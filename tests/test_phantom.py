import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vesselwrap import phantom
from vesselwrap.involvement import DpcgCategory, scan_involvement
from vesselwrap.phantom import (
    WRAP_THICKNESS_PX,
    PhantomSpec,
    _has_band,
    _scene_grids,
    _sector_tumor,
    _widened_span,
    _wrap_distance,
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


def _plane_polar(dims_hw, center):
    rows = np.arange(dims_hw[0], dtype=np.float64)[:, None] - center[0]
    cols = np.arange(dims_hw[1], dtype=np.float64)[None, :] - center[1]
    radius = np.hypot(rows, cols)
    theta = np.degrees(np.arctan2(-rows, np.broadcast_to(cols, radius.shape))) % 360.0
    return radius, theta


def reference_grids(spec: PhantomSpec):
    """The rasteriser before slabs: each slice in turn, on the whole plane,
    drawing its own two jitter uniforms."""
    z0, z1 = spec.slice_range
    vessel, tumor, band = np.zeros((3, z1 - z0) + spec.dims[1:], dtype=bool)
    rng = np.random.default_rng(spec.jitter_seed)
    for i in range(z1 - z0):
        center = spec.vessel_center
        if spec.axis_jitter_px > 0.0:
            j = rng.uniform(-spec.axis_jitter_px, spec.axis_jitter_px, size=2)
            center = (center[0] + float(j[0]), center[1] + float(j[1]))
        radius, theta = _plane_polar(spec.dims[1:], center)
        vessel[i] = radius <= spec.vessel_radius_px
        dist = _wrap_distance(theta, spec.wrap_center_deg)
        tumor[i] = _sector_tumor(spec, vessel[i], radius, dist, spec.wrap_span_deg)
        if _has_band(spec):
            band[i] = _sector_tumor(spec, vessel[i], radius, dist, _widened_span(spec)) & ~tumor[i]
    pancreas = np.zeros(spec.dims[1:], dtype=bool)
    if spec.pancreas_center is not None and spec.pancreas_radius_px > 0:
        p_radius, _ = _plane_polar(spec.dims[1:], spec.pancreas_center)
        pancreas = p_radius <= spec.pancreas_radius_px
    return vessel, tumor, band, pancreas


@st.composite
def scene_specs(draw):
    radius = draw(st.floats(2.0, 20.0))
    reach = radius + WRAP_THICKNESS_PX + 2.0
    plane = [draw(st.integers(math.ceil(2 * reach) + 1, math.ceil(2 * reach) + 12)) for _ in range(2)]
    depth = draw(st.integers(0, 6))
    z0 = draw(st.integers(0, depth))
    z1 = draw(st.one_of(st.just(depth), st.integers(z0, depth)))
    pancreas = draw(st.booleans())
    return PhantomSpec(
        dims=(depth, *plane),
        vessel_center=tuple(draw(st.floats(reach, size - 1 - reach)) for size in plane),
        vessel_radius_px=radius,
        wrap_center_deg=draw(st.floats(0.0, 360.0)),
        wrap_span_deg=draw(st.one_of(st.sampled_from([0.0, 360.0]), st.floats(0.0, 360.0))),
        slice_range=(0, depth) if draw(st.booleans()) else (z0, z1),
        axis_jitter_px=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        jitter_seed=draw(st.integers(0, 2**31)),
        pancreas_center=(draw(st.floats(0.0, plane[0] - 1.0)), draw(st.floats(0.0, plane[1] - 1.0)))
        if pancreas else None,
        pancreas_radius_px=draw(st.floats(0.0, 10.0)) if pancreas else 0.0,
        band_extra_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 60.0))),
    )


class TestSlabRasteriser:
    """``_scene_grids`` draws slabs of slices on the tube's box; it must give
    the per-slice whole-plane rasteriser's grids exactly."""

    @staticmethod
    def assert_matches_reference(spec, slab_voxels):
        with mock.patch.object(phantom, "_SLAB_VOXELS", slab_voxels):
            got = _scene_grids(spec)
        for name, a, b in zip(("vessel", "tumor", "band", "pancreas"), got, reference_grids(spec)):
            assert a.shape == b.shape and np.array_equal(a, b), name

    @settings(max_examples=80, deadline=None)
    @given(spec=scene_specs(), slab_voxels=st.one_of(st.just(phantom._SLAB_VOXELS), st.integers(1, 8000)))
    @example(spec=PhantomSpec(dims=(3, 22, 22), vessel_center=(6.5, 14.5), vessel_radius_px=2.0,
                              slice_range=(0, 3), axis_jitter_px=2.0),
             slab_voxels=1)
    @example(spec=PhantomSpec(slice_range=(0, 0), pancreas_center=(64.0, 80.0), pancreas_radius_px=5.0),
             slab_voxels=phantom._SLAB_VOXELS)
    def test_equals_per_slice_reference(self, spec, slab_voxels):
        # small slab sizes split even these small boxes into many slabs; the
        # first example's jitter pushes its box past both grid edges
        self.assert_matches_reference(spec, slab_voxels)

    def test_box_edge_between_slice_centres(self):
        # reach 12: jitter moves the slice centres across 30.0, so the box's
        # first row and column (centre - reach) fall on both sides of 18. The
        # centres also spread over more than the box's 2 px margin beyond the
        # rim band, so a box about any one slice's centre loses band pixels.
        spec = PhantomSpec(dims=(12, 61, 61), vessel_center=(30.0, 30.0), vessel_radius_px=7.5,
                           slice_range=(0, 12), axis_jitter_px=4.0, wrap_span_deg=300.0,
                           band_extra_deg=30.0, jitter_seed=0)
        j = np.random.default_rng(spec.jitter_seed).uniform(-4.0, 4.0, size=(12, 2))
        assert (j < 0).any(axis=0).all() and (j > 0).any(axis=0).all()
        assert (j.max(axis=0) - j.min(axis=0) > 6.0).all()
        for slab_voxels in (1, phantom._SLAB_VOXELS):
            self.assert_matches_reference(spec, slab_voxels)

    def test_peak_memory_of_a_plane_filling_tube(self):
        """A tube whose box fills most of the plane is drawn in slabs.

        tracemalloc counts bytes per grid voxel. The three bool grids take 3;
        drawing the whole box as one slab of float64 temporaries peaked at
        about 30, and per-slice drawing on the whole plane at about 4.
        """
        spec = PhantomSpec(dims=(64, 256, 256), vessel_center=(128.0, 128.0), vessel_radius_px=110.0,
                           slice_range=(0, 64), wrap_span_deg=200.0, band_extra_deg=25.0)
        tracemalloc.start()
        try:
            grids = _scene_grids(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grids[2].any()
        assert peak / math.prod(spec.dims) <= 5.0
