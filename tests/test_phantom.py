import hashlib

import numpy as np
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


def digest(*volumes) -> str:
    h = hashlib.sha256()
    for vol in volumes:
        h.update(vol.data.tobytes())
    return h.hexdigest()


class TestGoldenBytes:
    """The phantom's volumes are pinned to the bytes of one recorded version.

    A change to any scene's geometry, jitter draws or channel fill changes
    these digests; one that does so on purpose must update them and say so.
    """

    @pytest.mark.parametrize("spec, want", [
        (PhantomSpec(), "b87289efaca525e5f5081aff5805c6e6c23eeac310abbd1964d6d991dd088d77"),
        (PhantomSpec(vessel_channel=ChannelId.ARTERY, wrap_span_deg=300.0, wrap_center_deg=10.0,
                     vessel_radius_px=12.0, pancreas_center=(64.0, 74.0), pancreas_radius_px=4.0,
                     axis_jitter_px=0.0),
         "89b3b2408fe8184bb964d46da43c748824f6f9e880c8e8235040d6a362b36d8c"),
        (PhantomSpec(slice_range=(4, 4)),
         "ca02793076b8845454d3cc4d949bda5bc49fe16d063e310331f86318ed644ba7"),
    ], ids=["default", "artery-pancreas-no-jitter", "empty-slice-range"])
    def test_wrap_scene(self, spec, want):
        scene, _ = gen_wrap_scene(spec)
        assert scene.data.dtype == np.uint8 and scene.data.shape == (6, 10, 128, 128)
        assert digest(scene) == want

    def test_uncertainty_folds(self):
        folds, _ = gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0, jitter_seed=2))
        assert [f.data.dtype for f in folds] == [np.float32] * 3
        assert [digest(f) for f in folds] == [
            "c7e545b6c6ce750fbb751ad058d8fd6b9bbe09c6b225d2a578743988fcd4bb2b",
            "fab7a3d7cd0afe5e64883133f4ec786845dc77697e1d078948c7cfd81652bebb",
            "51f42fef114394559ac61d90518d1863f025ea4e9967e1ec3a54a83a5168b974",
        ]

    def test_confusion_suite(self):
        # every pred, then its gt, case by case
        suite = gen_confusion_suite(3)
        assert [(c.name, c.expected) for c in suite[:4]] == [
            ("tp_0", "tp"), ("fp_0", "fp"), ("tn_0", "tn"), ("fn_0", "fn")]
        assert digest(*(v for c in suite for v in (c.pred, c.gt))) == (
            "5c342e1b2adcd8868128c6256511928fa9a7f7a8e103101c3264f496cd342c2c")
