import pytest

from vesselwrap.involvement import DpcgCategory, scan_involvement
from vesselwrap.phantom import (
    PhantomSpec,
    allowance_deg,
    gen_confusion_suite,
    gen_uncertainty_scene,
    gen_wrap_scene,
)
from vesselwrap.uncertainty import fold_mean_std, sigma_level_mask
from vesselwrap.volume import ChannelId
from conftest import collect


class TestSpecValidation:
    def test_radius_floor(self):
        with pytest.raises(ValueError, match="radius"):
            PhantomSpec(vessel_radius_px=1.0)

    def test_span_range(self):
        with pytest.raises(ValueError, match="span"):
            PhantomSpec(wrap_span_deg=361.0)

    def test_tube_inside_grid(self):
        with pytest.raises(ValueError, match="inside the grid"):
            PhantomSpec(vessel_center=(5.0, 64.0), vessel_radius_px=8.0)

    def test_slice_range(self):
        with pytest.raises(ValueError, match="slice range"):
            PhantomSpec(dims=(4, 128, 128), slice_range=(0, 6))


class TestWrapScene:
    def test_deterministic(self):
        spec = PhantomSpec(wrap_span_deg=135.0, jitter_seed=9)
        a, truth_a = gen_wrap_scene(spec)
        b, truth_b = gen_wrap_scene(spec)
        assert (a.data == b.data).all()
        assert truth_a == truth_b

    def test_span_zero_absent(self):
        scene, truth = gen_wrap_scene(PhantomSpec(wrap_span_deg=0.0))
        assert not truth.present
        assert scene.channel(ChannelId.TUMOR).sum() == 0
        rep = scan_involvement(scene, ChannelId.VEIN)
        assert not rep.present and rep.max_span_deg == 0.0

    def test_full_wrap(self):
        scene, truth = gen_wrap_scene(PhantomSpec(wrap_span_deg=360.0))
        assert truth.max_span_deg == 360.0
        rep = scan_involvement(scene, ChannelId.VEIN)
        assert rep.max_span_deg >= 350.0

    def test_truth_slices_cover_range(self):
        spec = PhantomSpec(wrap_span_deg=90.0, slice_range=(2, 6))
        _, truth = gen_wrap_scene(spec)
        assert sorted(truth.span_by_slice) == [2, 3, 4, 5]
        assert all(v == 90.0 for v in truth.span_by_slice.values())

    def test_artery_channel_category(self):
        _, truth = gen_wrap_scene(
            PhantomSpec(wrap_span_deg=45.0, vessel_channel=ChannelId.ARTERY)
        )
        assert truth.category is DpcgCategory.BORDERLINE_RESECTABLE

    def test_rasterization_bound_sample(self):
        # subset of the acceptance grid; the full sweep runs in the acceptance suite
        for radius, span, angle in ((8.0, 45.0, 30.0), (12.0, 180.0, 200.0), (16.0, 340.0, 77.0)):
            spec = PhantomSpec(
                vessel_radius_px=radius, wrap_span_deg=span, wrap_center_deg=angle,
                jitter_seed=int(radius * 7 + angle),
            )
            scene, truth = gen_wrap_scene(spec)
            rep = scan_involvement(scene, spec.vessel_channel)
            assert rep.max_span_deg == pytest.approx(truth.max_span_deg, abs=10.0)

    def test_allowance_shrinks_with_radius(self):
        assert allowance_deg(16.0) < allowance_deg(8.0)


class TestConfusionSuite:
    def test_size_and_balance(self):
        cases = gen_confusion_suite(seed=3)
        assert len(cases) == 20
        by_cell = {}
        for c in cases:
            by_cell.setdefault(c.expected, []).append(c)
        assert {k: len(v) for k, v in by_cell.items()} == {
            "tp": 5, "fp": 5, "tn": 5, "fn": 5
        }

    def test_deterministic_given_seed(self):
        a = gen_confusion_suite(seed=5)
        b = gen_confusion_suite(seed=5)
        for ca, cb in zip(a, b):
            assert ca.name == cb.name
            assert (ca.pred.data == cb.pred.data).all()
            assert (ca.gt.data == cb.gt.data).all()

    def test_labels_match_measured_presence(self):
        for case in gen_confusion_suite(seed=8):
            pred_present = scan_involvement(case.pred, case.vessel).present
            gt_present = scan_involvement(case.gt, case.vessel).present
            expected = {
                "tp": (True, True),
                "fp": (True, False),
                "tn": (False, False),
                "fn": (False, True),
            }[case.expected]
            assert (pred_present, gt_present) == expected


class TestUncertaintyScene:
    def test_zero_band_identical_folds(self):
        spec = PhantomSpec(wrap_span_deg=90.0, band_extra_deg=0.0)
        folds, truths = gen_uncertainty_scene(spec)
        assert len(folds) == 3
        for fold in folds[1:]:
            assert (fold.data == folds[0].data).all()
        assert len({t.max_span_deg for t in truths.values()}) == 1

    def test_identical_band_values_zero_epistemic(self):
        spec = PhantomSpec(
            wrap_span_deg=90.0, band_extra_deg=20.0, band_values=(0.4, 0.4, 0.4)
        )
        folds, _ = gen_uncertainty_scene(spec)
        field = collect(fold_mean_std(folds))
        assert (field.std.data == 0).all()

    def test_band_widens_span_at_high_sigma(self):
        spec = PhantomSpec(wrap_span_deg=70.0, band_extra_deg=25.0)
        folds, truths = gen_uncertainty_scene(spec)
        assert truths[-1.0].max_span_deg == 70.0
        assert truths[1.0].max_span_deg == 70.0
        assert truths[2.0].max_span_deg == 120.0
        # the widened sector measures like an ordinary wrap scene of that span
        wide = sigma_level_mask(fold_mean_std(folds), 2.0)
        rep = scan_involvement(wide, ChannelId.VEIN)
        assert rep.max_span_deg == pytest.approx(120.0, abs=10.0)
