import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from vesselwrap.evaluation import BUCKETS, bucket_of
from vesselwrap.involvement import (
    DPCG_CUTS_DEG,
    SPAN_METHODS,
    DpcgCategory,
    assess_scan,
    component_table,
    dpcg_bucket,
    dpcg_classify,
    filter_critical_volume,
    in_contact,
    label_components,
    scan_involvement,
)
from vesselwrap.phantom import PhantomSpec, dilate, gen_wrap_scene
from vesselwrap.volume import ChannelId, MaskVolume, MissingChannelError, Spacing, set_voxels
from conftest import (
    _pixel_angles,
    angular_span,
    bfs_components,
    brute_force_contact,
    make_mask,
    scan_involvement_reference,
    slice_contact_sets,
    slice_involvement,
    tav_volume,
)


def vein_table(tumor, vessel, connectivity=8, span_method="largest-gap"):
    """component_table of the vein of a tumor and vein grid pair."""
    masks = tav_volume(tumor, np.zeros_like(tumor), vessel)
    return component_table(masks, ChannelId.VEIN, connectivity, span_method)


def table_2d(tumor2d, vessel2d, connectivity=8, span_method="largest-gap"):
    """component_table of a one-slice grid pair."""
    return vein_table(
        np.asarray(tumor2d)[None], np.asarray(vessel2d)[None], connectivity, span_method
    )


def contact_of(table, k) -> list[tuple[int, int]]:
    """Sorted (row, col) contact pixels of component k."""
    rows = table.contact[table.contact_start[k]:table.contact_start[k + 1], 1:]
    return sorted(map(tuple, rows.tolist()))


def components(mask2d, connectivity=8) -> list[list[tuple[int, int]]]:
    """Pixels of each component in table order: under an all-tumor slice
    every vessel pixel is a contact pixel."""
    mask = np.asarray(mask2d)
    table = table_2d(np.ones(mask.shape), mask, connectivity)
    return [contact_of(table, k) for k in range(len(table.z))]


def slice_report(tumor2d, vessel2d, connectivity=8, span_method="largest-gap"):
    """SliceInvolvement of a one-slice scan, through scan_involvement."""
    tumor = np.asarray(tumor2d)[None]
    vessel = np.asarray(vessel2d)[None]
    masks = tav_volume(tumor, np.zeros_like(tumor), vessel)
    return scan_involvement(masks, ChannelId.VEIN, connectivity, span_method).slices[0]


def assert_matches_reference(tumor, vessel, connectivity, span_method):
    """The kernel's report and table equal the per-component reference exactly."""
    masks = tav_volume(tumor, np.zeros_like(tumor), vessel)
    rep = scan_involvement(masks, ChannelId.VEIN, connectivity, span_method)
    slices, max_span, argmax, present = scan_involvement_reference(
        tumor, vessel, connectivity, span_method
    )
    assert rep.slices == slices  # float == on every component span
    assert (rep.max_span_deg, rep.argmax_slice, rep.present) == (max_span, argmax, present)
    ref = [
        cs for z in range(len(tumor))
        for cs in slice_contact_sets(tumor[z], vessel[z], connectivity, z)
    ]
    table = rep.table
    assert table.z.tolist() == [cs.z for cs in ref]
    assert [tuple(c) for c in table.centroid.tolist()] == [cs.centroid for cs in ref]
    for k, cs in enumerate(ref):
        assert set(table.contact[table.contact_start[k]:table.contact_start[k + 1], 0]) <= {cs.z}
        assert contact_of(table, k) == sorted(map(tuple, cs.contact_pixels.tolist()))


class TestConnectedComponents:
    def test_empty(self):
        assert components(np.zeros((4, 4))) == []

    def test_diagonal_8_joined(self):
        mask = np.zeros((4, 4))
        mask[1, 1] = mask[2, 2] = 1
        assert components(mask, 8) == [[(1, 1), (2, 2)]]

    def test_diagonal_4_split(self):
        mask = np.zeros((4, 4))
        mask[1, 1] = mask[2, 2] = 1
        assert len(components(mask, 4)) == 2

    def test_ordering_by_first_pixel(self):
        mask = np.zeros((5, 5))
        mask[3, 0] = 1  # later row
        mask[0, 4] = 1  # first row, high col
        assert components(mask, 8) == [[(0, 4)], [(3, 0)]]

    def test_bad_connectivity(self):
        with pytest.raises(ValueError):
            vein_table(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), 6)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), connectivity=st.sampled_from([4, 8]))
    def test_matches_bfs(self, seed, connectivity):
        gen = np.random.default_rng(seed)
        mask = gen.random((8, 8)) < 0.4
        got = components(mask, connectivity)
        expected = sorted(bfs_components(mask, connectivity), key=min)  # by first pixel
        assert got == [sorted(group) for group in expected]


# ndimage structures for the labeller's connectivities: in-slice 4 and 8
# set only the middle plane, 26 is the full 3x3x3 cube.
_ORACLE_STRUCTURES = {
    4: np.pad(ndimage.generate_binary_structure(2, 1)[None], ((1, 1), (0, 0), (0, 0))),
    8: np.pad(ndimage.generate_binary_structure(2, 2)[None], ((1, 1), (0, 0), (0, 0))),
    26: ndimage.generate_binary_structure(3, 3),
}


def labelled_grid(grid, connectivity):
    """label_components of a bool grid's voxel index, scattered back into an int32 grid."""
    voxels = set_voxels(grid)
    labels, n = label_components(voxels, grid.shape, connectivity)
    out = np.zeros(grid.shape, dtype=np.int32)
    out.reshape(-1)[voxels] = labels
    assert labels.dtype == np.int32 and labels.shape == voxels.shape
    return out, n


def assert_labels_match_ndimage(grid):
    for connectivity, structure in _ORACLE_STRUCTURES.items():
        labels, n = labelled_grid(grid, connectivity)
        want, want_n = ndimage.label(grid, structure=structure)
        assert n == want_n, connectivity
        assert labels.dtype == want.dtype and np.array_equal(labels, want), connectivity
    structure = np.ones((1, 3, 3), dtype=bool)
    assert np.array_equal(dilate(grid), ndimage.binary_dilation(grid, structure=structure))


def _stacked_runs():
    # a run on slice 0's last row directly above a run on slice 1's first
    # row: diagonal 26-neighbours, and adjacent rows once the slices are
    # flattened one after the other
    grid = np.zeros((2, 2, 6), dtype=bool)
    grid[0, 1, 1:4] = grid[1, 0, 1:4] = True
    return grid


def _border_runs():
    # rows alternate between a run ending at column W-1 and a run starting
    # at column 0; flattened without the zero columns they would touch
    grid = np.zeros((2, 5, 7), dtype=bool)
    grid[:, 0::2, 4:] = True
    grid[:, 1::2, :3] = True
    grid[1, 2, :] = True
    return grid


class TestRunLabeller:
    @pytest.mark.parametrize(
        "grid",
        [
            np.zeros((2, 5, 7), dtype=bool),
            np.ones((3, 4, 5), dtype=bool),
            np.array([[[1, 1, 0, 1, 0, 1]], [[0, 1, 1, 0, 1, 1]]], dtype=bool),  # one row
            np.array([[[1], [1], [0], [1]], [[0], [1], [0], [1]]], dtype=bool),  # one column
            _border_runs(),
            _stacked_runs(),
            np.zeros((0, 0, 0), dtype=bool),
        ],
        ids=["empty", "full", "one-row", "one-column", "border-columns", "stacked-slices", "zero-size"],
    )
    def test_edge_cases_match_ndimage(self, grid):
        assert_labels_match_ndimage(grid)

    def test_slices_join_only_under_26(self):
        grid = _stacked_runs()
        for connectivity in (4, 8):
            assert labelled_grid(grid, connectivity)[1] == 2
        assert labelled_grid(grid, 26)[1] == 1

    def test_bad_connectivity(self):
        with pytest.raises(ValueError):
            label_components(np.empty(0, np.intp), (1, 2, 2), 6)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 6), st.integers(1, 24), st.integers(1, 24)),
        density=st.floats(0.0, 1.0),
    )
    @example(seed=0, dims=(3, 1, 24), density=0.5)
    @example(seed=0, dims=(3, 24, 1), density=0.5)
    @example(seed=0, dims=(6, 24, 24), density=1.0)
    def test_random_grids_match_ndimage(self, seed, dims, density):
        assert_labels_match_ndimage(np.random.default_rng(seed).random(dims) < density)


class TestContactSearch:
    """in_contact equals a 1x3x3 dilation of the tumor at the vessel voxels.

    A tumor only on a row's last column or a slice's last row is where
    contact would wrap onto the next row or slice without the padding.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4)),
        density=st.floats(0.0, 1.0),
        vessel_density=st.floats(0.0, 1.0),
        edge=st.sampled_from(["anywhere", "last-column", "last-row"]),
    )
    @example(seed=0, dims=(2, 3, 4), density=1.0, vessel_density=1.0, edge="last-column")
    @example(seed=0, dims=(2, 3, 4), density=1.0, vessel_density=1.0, edge="last-row")
    @example(seed=0, dims=(3, 1, 1), density=0.5, vessel_density=1.0, edge="anywhere")
    def test_matches_binary_dilation(self, seed, dims, density, vessel_density, edge):
        gen = np.random.default_rng(seed)
        tumor = gen.random(dims) < density
        if edge == "last-column":
            tumor[:, :, :-1] = False
        elif edge == "last-row":
            tumor[:, :-1] = False
        vessel = set_voxels(gen.random(dims) < vessel_density)
        want = ndimage.binary_dilation(tumor, structure=np.ones((1, 3, 3), dtype=bool))
        got = in_contact(vessel, set_voxels(tumor), dims)
        assert got.dtype == bool and np.array_equal(got, want.reshape(-1)[vessel])


class TestContactPixels:
    def test_far_tumor_no_contact(self):
        tumor = np.zeros((8, 8))
        tumor[0, 0] = 1
        vessel = np.zeros((8, 8))
        vessel[6, 6] = 1
        table = table_2d(tumor, vessel)
        assert table.present.tolist() == [False]
        assert len(table.contact) == 0

    def test_overlap_voxel_counts_as_contact(self):
        grid = np.zeros((3, 3))
        grid[1, 1] = 1
        table = table_2d(grid, grid)  # tumor == vessel pixel
        assert table.present.tolist() == [True]
        assert table.contact.tolist() == [[0, 1, 1]]
        # single-pixel component: zero radius, no angles, but still present
        assert table.span_deg.tolist() == [0.0]

    def test_centroid_uses_all_component_pixels(self):
        vessel = np.zeros((5, 5))
        vessel[2, 1:4] = 1
        tumor = np.zeros((5, 5))
        tumor[1, 1] = 1  # touches only the left end
        table = table_2d(tumor, vessel)
        assert table.centroid.tolist() == [[2.0, 2.0]]

    def test_random_slices_match_brute_force(self, rng):
        for _ in range(100):
            tumor = rng.random((16, 16)) < 0.15
            vessel = rng.random((16, 16)) < 0.2
            got = set(map(tuple, table_2d(tumor, vessel).contact[:, 1:].tolist()))
            assert got == brute_force_contact(tumor, vessel)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_monotone_under_tumor_growth(self, seed):
        gen = np.random.default_rng(seed)
        tumor = gen.random((12, 12)) < 0.1
        bigger = tumor | (gen.random((12, 12)) < 0.1)
        vessel = gen.random((12, 12)) < 0.25
        small, grown = table_2d(tumor, vessel), table_2d(bigger, vessel)
        for k in range(len(small.z)):  # same vessel, same components
            assert set(contact_of(small, k)) <= set(contact_of(grown, k))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_presence_monotone_under_dilation_of_either_mask(self, seed):
        gen = np.random.default_rng(seed)
        tumor = gen.random((12, 12)) < 0.08
        vessel = gen.random((12, 12)) < 0.12
        base = slice_report(tumor, vessel).present
        grown_tumor = tumor | (gen.random((12, 12)) < 0.1)
        grown_vessel = vessel | (gen.random((12, 12)) < 0.1)
        if base:
            assert slice_report(grown_tumor, vessel).present
            assert slice_report(tumor, grown_vessel).present


class TestKernelEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12)),
        vessel_density=st.floats(0.0, 0.7),
        tumor_density=st.floats(0.0, 0.5),
        empty_vessel=st.booleans(),
        connectivity=st.sampled_from([4, 8]),
        span_method=st.sampled_from(SPAN_METHODS),
    )
    def test_matches_reference(
        self, seed, dims, vessel_density, tumor_density, empty_vessel, connectivity, span_method
    ):
        gen = np.random.default_rng(seed)
        vessel = gen.random(dims) < vessel_density
        tumor = gen.random(dims) < tumor_density  # overlaps the vessel freely
        vessel[gen.random(dims[0]) < 0.3] = False  # empty slices
        if empty_vessel:
            vessel[:] = False
        assert_matches_reference(tumor, vessel, connectivity, span_method)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(8, 40), st.integers(8, 40)),
        vessel_density=st.floats(0.0, 0.08),
        tumor_density=st.floats(0.0, 0.3),
        connectivity=st.sampled_from([4, 8]),
        span_method=st.sampled_from(SPAN_METHODS),
    )
    def test_sparse_vessels_match_reference(
        self, seed, dims, vessel_density, tumor_density, connectivity, span_method
    ):
        # scattered vessel pixels leave empty rows and columns between them,
        # which the kernel drops before labelling
        gen = np.random.default_rng(seed)
        vessel = gen.random(dims) < vessel_density
        tumor = gen.random(dims) < tumor_density
        assert_matches_reference(tumor, vessel, connectivity, span_method)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("span_method", SPAN_METHODS)
    def test_far_apart_components_match_reference(self, connectivity, span_method):
        tumor = np.zeros((3, 30, 30), dtype=bool)
        vessel = np.zeros_like(tumor)
        # pixels one empty row or column apart stay separate components;
        # tumor in a dropped row must not reach them
        vessel[0, 2, 2] = vessel[0, 4, 2] = vessel[0, 2, 4] = vessel[0, 4, 4] = True
        tumor[0, 3, 3] = True
        vessel[0, 25:28, 25:28] = True
        tumor[0, 24, 26] = tumor[0, 14, 14] = True
        # diagonal neighbours next to a wide gap of rows and columns
        vessel[1, 0, 0] = vessel[1, 1, 1] = vessel[1, 29, 29] = vessel[1, 28, 27] = True
        tumor[1, 2, 2] = tumor[1, 27, 28] = True
        vessel[2, 10, 0:3] = vessel[2, 10, 27:30] = True
        tumor[2, 11, 3] = tumor[2, 9, 26] = tumor[2, 10, 15] = True
        assert_matches_reference(tumor, vessel, connectivity, span_method)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("span_method", SPAN_METHODS)
    def test_edge_cases_match_reference(self, connectivity, span_method):
        tumor = np.zeros((5, 9, 9), dtype=bool)
        vessel = np.zeros_like(tumor)
        # slice 0 stays empty; slice 1: components on every border
        vessel[1, 0, :4] = vessel[1, 4:, 0] = vessel[1, 8, 5:] = vessel[1, :3, 8] = True
        tumor[1, 1, 1:3] = tumor[1, 7, 7] = True
        # slice 2: one-pixel components, one overlapped by tumor, and a 3x3
        # block whose centre pixel is a contact pixel at its own centroid
        vessel[2, 0, 0] = vessel[2, 8, 8] = vessel[2, 4, 0] = True
        tumor[2, 8, 8] = True
        vessel[2, 3:6, 3:6] = True
        tumor[2, 4, 4] = True
        # slice 3: a ring around a tumor core, contact on all sides
        vessel[3, 2:7, 2:7] = True
        vessel[3, 3:6, 3:6] = False
        tumor[3, 4, 4] = True
        # slice 4: the same wide ring, then a component with one angle (0 deg)
        # and one whose first angle is 180 deg; their difference must not
        # count as a gap of the ring
        vessel[4, 0:5, 0:5] = True
        vessel[4, 1:4, 1:4] = False
        tumor[4, 2, 2] = True
        vessel[4, 6, 0:2] = True
        tumor[4, 6, 2] = True
        vessel[4, 8, 5:7] = True
        tumor[4, 8, 4] = True
        assert_matches_reference(tumor, vessel, connectivity, span_method)
        assert_matches_reference(tumor, np.zeros_like(vessel), connectivity, span_method)

    def test_many_components_one_slice_fast(self):
        gen = np.random.default_rng(11)
        vessel = np.zeros((1, 256, 256), dtype=bool)
        for dr in range(3):  # small random blobs on a 4-px lattice
            for dc in range(3):
                vessel[0, dr::4, dc::4] = gen.random((64, 64)) < 0.5
        tumor = gen.random((1, 256, 256)) < 0.05
        t0 = time.perf_counter()
        table = vein_table(tumor, vessel)
        elapsed = time.perf_counter() - t0
        assert len(table.z) >= 3000
        assert elapsed < 1.0
        got = set(map(tuple, table.contact[:, 1:].tolist()))
        assert got == brute_force_contact(tumor[0], vessel[0])


def random_grids(seed, dims, vessel_density, tumor_density):
    """(tumor, vessel) boolean grids, each voxel set with its grid's density."""
    gen = np.random.default_rng(seed)
    return gen.random(dims) < tumor_density, gen.random(dims) < vessel_density


def slice_facts(tumor, vessel, connectivity=8, span_method="largest-gap"):
    """Per slice of scan_involvement: (sorted component spans, present)."""
    masks = tav_volume(tumor, np.zeros_like(tumor), vessel)
    rep = scan_involvement(masks, ChannelId.VEIN, connectivity, span_method)
    return [(sorted(s.component_spans_deg), s.present) for s in rep.slices]


def assert_same_slice_facts(got, want):
    assert len(got) == len(want)
    for (spans, present), (want_spans, want_present) in zip(got, want):
        assert present == want_present
        assert spans == pytest.approx(want_spans, abs=1e-9)


_GRIDS = dict(
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 12)),
    vessel_density=st.floats(0.0, 0.7),
    tumor_density=st.floats(0.0, 0.5),
)


class TestKernelInvariance:
    """Geometric properties of the kernel that need no reference to check."""

    @settings(max_examples=100, deadline=None)
    @given(**_GRIDS, turns=st.integers(1, 3), connectivity=st.sampled_from([4, 8]))
    def test_rot90_keeps_spans_and_presence(
        self, seed, dims, vessel_density, tumor_density, turns, connectivity
    ):
        tumor, vessel = random_grids(seed, dims, vessel_density, tumor_density)
        turned = [np.rot90(g, turns, axes=(1, 2)) for g in (tumor, vessel)]
        assert_same_slice_facts(
            slice_facts(*turned, connectivity), slice_facts(tumor, vessel, connectivity)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        **_GRIDS,
        offset=st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 5)),
        pad=st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 5)),
        connectivity=st.sampled_from([4, 8]),
        span_method=st.sampled_from(SPAN_METHODS),
    )
    def test_translation_shifts_contact_keeps_spans(
        self, seed, dims, vessel_density, tumor_density, offset, pad, connectivity, span_method
    ):
        tumor, vessel = random_grids(seed, dims, vessel_density, tumor_density)
        at = tuple(slice(o, o + d) for o, d in zip(offset, dims))
        big_tumor, big_vessel = (
            np.zeros(tuple(d + o + p for d, o, p in zip(dims, offset, pad)), bool) for _ in range(2)
        )
        big_tumor[at], big_vessel[at] = tumor, vessel
        small = vein_table(tumor, vessel, connectivity, span_method)
        big = vein_table(big_tumor, big_vessel, connectivity, span_method)
        assert np.array_equal(big.contact, small.contact + np.array(offset))
        assert np.array_equal(big.contact_start, small.contact_start)
        assert np.array_equal(big.z, small.z + offset[0])
        np.testing.assert_allclose(big.span_deg, small.span_deg, rtol=0, atol=1e-9)
        facts = slice_facts(big_tumor, big_vessel, connectivity, span_method)
        assert_same_slice_facts(
            facts[offset[0]:offset[0] + dims[0]],
            slice_facts(tumor, vessel, connectivity, span_method),
        )
        assert all(f == ([], False) for f in facts[:offset[0]] + facts[offset[0] + dims[0]:])

    @settings(max_examples=100, deadline=None)
    @given(**_GRIDS)
    def test_connectivity_keeps_contact_and_presence(
        self, seed, dims, vessel_density, tumor_density
    ):
        tumor, vessel = random_grids(seed, dims, vessel_density, tumor_density)
        four, eight = (vein_table(tumor, vessel, c) for c in (4, 8))
        assert set(map(tuple, eight.contact.tolist())) == set(map(tuple, four.contact.tolist()))
        assert [p for _, p in slice_facts(tumor, vessel, 8)] == [
            p for _, p in slice_facts(tumor, vessel, 4)
        ]
        eight_count, four_count = (np.bincount(t.z, minlength=dims[0]) for t in (eight, four))
        assert np.all(eight_count <= four_count)


def index_twin(masks):
    """The same volume held as voxel indices, as a read or the critical filter holds it."""
    return MaskVolume.from_voxels({c: masks.voxels(c) for c in masks.channels}, masks.dims, masks.spacing)


class TestIndexHeldVolumes:
    """The kernels give the same results on a volume of indices as on its grids."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 14), st.integers(1, 14)),
        vessel_density=st.sampled_from([0.0, 0.03, 0.2, 0.7]),
        tumor_density=st.sampled_from([0.0, 0.1, 0.5]),
        connectivity=st.sampled_from([4, 8]),
        span_method=st.sampled_from(SPAN_METHODS),
    )
    def test_component_table_matches_grids(
        self, seed, dims, vessel_density, tumor_density, connectivity, span_method
    ):
        gen = np.random.default_rng(seed)
        masks = tav_volume(gen.random(dims) < tumor_density, gen.random(dims) < vessel_density,
                           gen.random(dims) < vessel_density, Spacing(1.0, 0.6, 0.8))
        twin = index_twin(masks)
        for vessel in (ChannelId.ARTERY, ChannelId.VEIN):
            want = component_table(masks, vessel, connectivity, span_method)
            got = component_table(twin, vessel, connectivity, span_method)
            for name in ("z", "centroid", "span_deg", "contact", "contact_start"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12)),
        pancreas_density=st.sampled_from([0.0, 0.02, 0.2]),
        mode=st.sampled_from(["voxel", "component"]),
    )
    def test_filter_matches_grids(self, seed, dims, pancreas_density, mode):
        gen = np.random.default_rng(seed)
        channels = (ChannelId.PANCREAS, ChannelId.ARTERY, ChannelId.VEIN, ChannelId.TUMOR)
        density = np.array([pancreas_density, 0.2, 0.3, 0.3])[:, None, None, None]
        masks = MaskVolume((gen.random((4,) + dims) < density).astype(np.uint8), channels,
                           Spacing(1.0, 1.0, 1.0))
        want = filter_critical_volume(masks, mode)
        got = filter_critical_volume(index_twin(masks), mode)
        assert got.channels == want.channels
        for cid in channels:
            assert np.array_equal(got.voxels(cid), want.voxels(cid))
            assert np.array_equal(got.channel(cid), want.channel(cid))


class TestDenseMemory:
    """The kernel's worst case: every voxel of the tumor, the artery and the vein set.

    tracemalloc sees numpy buffers; the peak of ``assess_scan`` is counted
    in bytes per voxel of one 16x128x128 channel. Gathering bool sub-grids
    from the index peaked at 147 B per voxel on a volume held as indices,
    and at 163 on one built from an array, which also indexes each channel
    on first use. Labelling the runs of the index peaks at 118 and 142.
    """

    DIMS = (16, 128, 128)
    CHANNELS = (ChannelId.TUMOR, ChannelId.ARTERY, ChannelId.VEIN)

    @pytest.mark.parametrize("held, bound", [("index", 130), ("array", 150)])
    def test_peak_per_voxel(self, held, bound):
        n = math.prod(self.DIMS)
        if held == "index":
            masks = MaskVolume.from_voxels({c: np.arange(n) for c in self.CHANNELS}, self.DIMS,
                                           Spacing(1.0, 1.0, 1.0))
        else:
            masks = MaskVolume(np.ones((3, *self.DIMS), np.uint8), self.CHANNELS, Spacing(1.0, 1.0, 1.0))
        tracemalloc.start()
        try:
            _, grade = assess_scan(masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grade == DpcgCategory.IRRESECTABLE
        assert peak / n <= bound


def mm_scene(spacing_yx, span_deg, center_deg, field_mm=60.0, radius_mm=10.0, shell_mm=4.0):
    """One slice rasterised in millimetres at pixel centres: a round vein and a tumor shell sector.

    The vein is the disc of ``radius_mm``; the tumor covers the ring from
    its rim out to ``shell_mm`` beyond it, over the sector of ``span_deg``
    centred on ``center_deg``.
    """
    sy, sx = spacing_yx
    y = (np.arange(round(field_mm / sy)) + 0.5) * sy - field_mm / 2
    x = (np.arange(round(field_mm / sx)) + 0.5) * sx - field_mm / 2
    y, x = np.meshgrid(y, x, indexing="ij")
    rho = np.hypot(y, x)
    theta = np.degrees(np.arctan2(-y, x)) % 360.0
    in_sector = np.abs((theta - center_deg + 180.0) % 360.0 - 180.0) <= span_deg / 2
    tumor = (rho > radius_mm) & (rho <= radius_mm + shell_mm) & in_sector
    vessel = rho <= radius_mm
    return tav_volume(tumor[None], np.zeros_like(vessel)[None], vessel[None], Spacing(1.0, sy, sx))


class TestAnisotropicSpacing:
    """Spans are measured in millimetres when the in-plane spacing differs."""

    # The tolerance the phantom oracle allows a measured span (PhantomSpec scenes).
    TOLERANCE_DEG = 10.0

    @pytest.mark.parametrize("spacing_yx", [(0.5, 1.0), (1.0, 0.5), (0.7, 0.9)])
    @pytest.mark.parametrize("span_deg", [90.0, 270.0])
    @pytest.mark.parametrize("center_deg", [0.0, 45.0, 90.0, 133.0])
    def test_span_within_phantom_tolerance(self, spacing_yx, span_deg, center_deg):
        table = component_table(mm_scene(spacing_yx, span_deg, center_deg), ChannelId.VEIN)
        assert table.span_deg.size == 1
        assert abs(float(table.span_deg[0]) - span_deg) <= self.TOLERANCE_DEG

    def test_square_pixels_unchanged(self):
        """On square pixels the spacing ratio is exactly 1.0: spans equal the unit-spacing ones."""
        masks = mm_scene((0.67, 0.67), 90.0, 0.0)
        unit = MaskVolume(masks.data, masks.channels, Spacing(1.0, 1.0, 1.0))
        assert np.array_equal(component_table(masks, ChannelId.VEIN).span_deg,
                              component_table(unit, ChannelId.VEIN).span_deg)


class TestPixelAngle:
    """The reference's angle convention, which the kernel must reproduce."""

    def test_axis_conventions(self):
        pixels = np.array([[2.0, 3.0], [1.0, 2.0], [3.0, 3.0], [2.0, 1.0]])
        assert _pixel_angles((2.0, 2.0), pixels).tolist() == [0.0, 90.0, 315.0, 180.0]

    def test_zero_radius_rejected(self):
        # a pixel at the centroid has no angle and is dropped, not given 0 deg
        pixels = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 1.0]])
        assert _pixel_angles((1.0, 1.0), pixels).tolist() == [0.0]


class TestAngularSpan:
    def test_two_angles(self):
        assert angular_span([0.0, 90.0]) == 90.0

    def test_wraparound(self):
        assert angular_span([350.0, 10.0]) == pytest.approx(20.0)

    def test_minmax_compat_method(self):
        assert angular_span([350.0, 10.0], method="minmax") == pytest.approx(340.0)

    def test_fewer_than_two(self):
        assert angular_span([]) == 0.0
        assert angular_span([123.4]) == 0.0

    def test_uniform_samples_approach_interval_width(self, rng):
        angles = rng.uniform(30.0, 210.0, size=100)
        span = angular_span(angles)
        assert 170.0 <= span <= 180.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            angular_span([0.0, 360.0])

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        delta=st.floats(0.0, 360.0, exclude_max=True, allow_nan=False),
    )
    def test_rotation_invariance_and_range(self, seed, delta):
        gen = np.random.default_rng(seed)
        angles = gen.uniform(0.0, 360.0, size=gen.integers(2, 12))
        span = angular_span(angles)
        rotated = angular_span((angles + delta) % 360.0)
        assert 0.0 <= span < 360.0
        assert span == pytest.approx(rotated, abs=1e-6)


class TestSliceInvolvement:
    def test_empty_vessel(self):
        si = slice_report(np.ones((4, 4)), np.zeros((4, 4)))
        assert not si.present
        assert si.max_span_deg == 0.0

    def test_two_components_only_one_touched(self):
        vessel = np.zeros((9, 9))
        vessel[1, 1:4] = 1  # touched component
        vessel[7, 6:9] = 1  # far component
        tumor = np.zeros((9, 9))
        tumor[0, 1:4] = 1
        si = slice_report(tumor, vessel)
        assert si.present
        centroid = (1.0, 2.0)  # the touched component comes first
        angles = _pixel_angles(centroid, np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]))
        assert len(angles) == 2  # (1, 2) sits at radius 0
        assert si.max_span_deg == pytest.approx(angular_span(angles))
        assert si.component_spans_deg[1] == 0.0

    def test_single_contact_pixel_presence_with_zero_span(self):
        vessel = np.zeros((5, 5))
        vessel[2, 2] = 1
        tumor = np.zeros((5, 5))
        tumor[2, 3] = 1
        si = slice_report(tumor, vessel)
        assert si.present
        assert si.max_span_deg == 0.0

    def test_phantom_disk_half_wrap(self):
        spec = PhantomSpec(dims=(3, 128, 128), slice_range=(1, 2), vessel_radius_px=8.0,
                           wrap_span_deg=180.0, axis_jitter_px=0.0)
        scene, truth = gen_wrap_scene(spec)
        si = slice_report(scene.channel(ChannelId.TUMOR)[1], scene.channel(ChannelId.VEIN)[1])
        assert si.max_span_deg == pytest.approx(truth.max_span_deg, abs=10.0)


class TestScanInvolvement:
    def test_no_tumor(self):
        masks = tav_volume(np.zeros((2, 6, 6)), np.zeros((2, 6, 6)), np.ones((2, 6, 6)))
        rep = scan_involvement(masks, ChannelId.VEIN)
        assert not rep.present
        assert rep.max_span_deg == 0.0
        assert rep.argmax_slice is None

    def test_single_slice_contact(self):
        tumor = np.zeros((3, 9, 9))
        vein = np.zeros((3, 9, 9))
        # quarter arc contact on slice 1: vessel pixels right and up of centroid
        vein[1, 2:7, 2:7] = 1
        tumor[1, 1, 2:7] = 1  # along the top edge
        masks = tav_volume(tumor, np.zeros_like(tumor), vein)
        rep = scan_involvement(masks, ChannelId.VEIN)
        assert rep.present
        assert rep.argmax_slice == 1
        si = slice_involvement(tumor[1], vein[1])
        assert rep.max_span_deg == si.max_span_deg

    def test_phantom_tube_270_over_20_slices(self):
        spec = PhantomSpec(dims=(22, 128, 128), slice_range=(1, 21), wrap_span_deg=270.0,
                           vessel_radius_px=10.0, jitter_seed=3)
        scene, truth = gen_wrap_scene(spec)
        rep = scan_involvement(scene, ChannelId.VEIN)
        assert rep.max_span_deg == pytest.approx(270.0, abs=10.0)
        assert rep.present

    def test_missing_channel(self):
        masks = tav_volume(np.zeros((1, 4, 4)), np.zeros((1, 4, 4)), np.zeros((1, 4, 4)))
        with pytest.raises(MissingChannelError):
            scan_involvement(masks, ChannelId.PANCREAS)


def filtered_vein(vessel, pancreas, mode="voxel"):
    """The vein of a pancreas and vein volume after filter_critical_volume."""
    masks = make_mask(np.stack([pancreas, vessel]), (ChannelId.PANCREAS, ChannelId.VEIN))
    return filter_critical_volume(masks, mode).channel(ChannelId.VEIN)


def critical_reference(vessel, pancreas, mode):
    """The vessel voxels the filter keeps, from whole-grid operations.

    voxel mode keeps the vessel outside the pancreas; component mode labels
    the whole vessel with scipy and drops every label meeting the pancreas.
    """
    vessel, pancreas = np.asarray(vessel) > 0, np.asarray(pancreas) > 0
    if mode == "voxel":
        return vessel & ~pancreas
    labels, _ = ndimage.label(vessel, structure=np.ones((3, 3, 3)))
    return (labels > 0) & ~np.isin(labels, labels[pancreas & (labels > 0)])


class TestFilterCritical:
    def test_empty_pancreas_identity(self, rng):
        vessel = (rng.random((3, 6, 6)) < 0.3).astype(np.uint8)
        out = filtered_vein(vessel, np.zeros_like(vessel))
        assert (out == vessel).all()

    def test_vessel_inside_pancreas_voxel_mode(self):
        vessel = np.ones((2, 4, 4), dtype=np.uint8)
        out = filtered_vein(vessel, np.ones_like(vessel), mode="voxel")
        assert out.sum() == 0

    def test_half_embedded_tube_voxel_mode(self):
        vessel = np.zeros((2, 10, 4), dtype=np.uint8)
        vessel[:, 0:10, 1] = 1  # 20 voxels
        pancreas = np.zeros_like(vessel)
        pancreas[:, 0:5, :] = 1  # covers rows 0..4
        out = filtered_vein(vessel, pancreas, mode="voxel")
        assert out.sum() == 10
        assert (out[:, 5:10, 1] == 1).all()

    def test_component_mode_removes_whole_tube(self):
        vessel = np.zeros((2, 10, 4), dtype=np.uint8)
        vessel[:, 0:10, 1] = 1
        pancreas = np.zeros_like(vessel)
        pancreas[:, 0, 1] = 1  # touches one end only
        assert filtered_vein(vessel, pancreas, mode="component").sum() == 0
        # a second, untouched component survives
        vessel[:, 0:10, 3] = 1
        out = filtered_vein(vessel, pancreas, mode="component")
        assert out.sum() == 20
        assert (out[:, :, 3] == 1).all()

    def test_component_mode_keeps_one_voxel_gaps(self):
        vessel = np.zeros((7, 12, 12), dtype=np.uint8)
        vessel[0, 0, 0] = vessel[2, 2, 2] = 1  # one empty plane apart on every axis
        vessel[6, 11, 11] = vessel[5, 10, 10] = 1  # 26-connected across a corner
        vessel[3, 6, 0] = vessel[3, 6, 11] = 1
        pancreas = np.zeros_like(vessel)
        pancreas[0, 0, 0] = pancreas[6, 11, 11] = pancreas[3, 6, 0] = 1
        out = filtered_vein(vessel, pancreas, mode="component")
        assert sorted(map(tuple, np.argwhere(out).tolist())) == [(2, 2, 2), (3, 6, 11)]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 8), st.integers(1, 24), st.integers(1, 24)),
        vessel_density=st.floats(0.0, 0.3),
        pancreas_density=st.floats(0.0, 0.1),
    )
    def test_component_mode_matches_full_grid_labelling(
        self, seed, dims, vessel_density, pancreas_density
    ):
        gen = np.random.default_rng(seed)
        vessel = (gen.random(dims) < vessel_density).astype(np.uint8)
        pancreas = (gen.random(dims) < pancreas_density).astype(np.uint8)
        expected = critical_reference(vessel, pancreas, "component")
        assert np.array_equal(filtered_vein(vessel, pancreas, mode="component"), expected)

    @pytest.mark.parametrize("mode", ["voxel", "component"])
    def test_volume_shares_unfiltered_grids(self, mode):
        scene, _ = gen_wrap_scene(PhantomSpec(jitter_seed=3, pancreas_center=(64.0, 74.0),
                                              pancreas_radius_px=4.0))
        out = filter_critical_volume(scene, mode)
        assert out.channels == scene.channels
        changed = [cid for cid in scene.channels if out.voxels(cid) is not scene.voxels(cid)]
        assert changed == [ChannelId.VEIN]
        assert out.channel(ChannelId.VEIN).sum() < scene.channel(ChannelId.VEIN).sum()
        assert np.array_equal(
            out.channel(ChannelId.VEIN),
            critical_reference(scene.channel(ChannelId.VEIN), scene.channel(ChannelId.PANCREAS), mode),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 10), st.integers(1, 10)),
        pancreas_density=st.sampled_from([0.0, 0.02, 0.2]),
        mode=st.sampled_from(["voxel", "component"]),
    )
    def test_volume_matches_per_channel_filter(self, seed, dims, pancreas_density, mode):
        gen = np.random.default_rng(seed)
        channels = (ChannelId.TUMOR, ChannelId.VEIN, ChannelId.PANCREAS, ChannelId.ARTERY)
        density = np.array([0.3, 0.3, pancreas_density, 0.3])[:, None, None, None]
        grids = gen.random((4,) + dims) < density
        masks = MaskVolume(grids.astype(np.uint8), channels, Spacing(1.0, 1.0, 1.0))
        out = filter_critical_volume(masks, mode)
        pancreas = masks.channel(ChannelId.PANCREAS)
        for cid in channels:
            want = masks.channel(cid)
            if cid in (ChannelId.ARTERY, ChannelId.VEIN):
                want = critical_reference(want, pancreas, mode)
            assert np.array_equal(out.channel(cid), want)
            assert (out.voxels(cid) is masks.voxels(cid)) == np.array_equal(want, masks.channel(cid))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 10), st.integers(1, 11)),
        mode=st.sampled_from(["voxel", "component"]),
        primed=st.sets(st.sampled_from([ChannelId.TUMOR, ChannelId.VEIN, ChannelId.PANCREAS,
                                        ChannelId.ARTERY])),
    )
    def test_volume_voxel_index_matches_grids(self, seed, dims, mode, primed):
        """The index the result carries over, or finds anew, is that of its grids."""
        gen = np.random.default_rng(seed)
        channels = (ChannelId.TUMOR, ChannelId.VEIN, ChannelId.PANCREAS, ChannelId.ARTERY)
        density = np.array([0.3, 0.3, 0.1, 0.3])[:, None, None, None]
        masks = MaskVolume((gen.random((4,) + dims) < density).astype(np.uint8), channels,
                           Spacing(1.0, 1.0, 1.0))
        for cid in primed:
            masks.voxels(cid)
        out = filter_critical_volume(masks, mode)
        for cid in channels:
            voxels = out.voxels(cid)
            assert np.array_equal(voxels, np.flatnonzero(out.channel(cid)))
            assert not voxels.flags.writeable

    @pytest.mark.parametrize("mode", ["voxel", "component"])
    def test_volume_returned_when_nothing_dropped(self, mode):
        scene, _ = gen_wrap_scene(PhantomSpec(jitter_seed=3))
        assert filter_critical_volume(scene, mode) is scene


class TestDpcgClassify:
    def test_spec_examples(self):
        assert dpcg_classify(45.0, 0.0) is DpcgCategory.RESECTABLE
        assert dpcg_classify(107.67, 0.0) is DpcgCategory.BORDERLINE_RESECTABLE
        assert dpcg_classify(0.0, 120.0) is DpcgCategory.IRRESECTABLE

    @pytest.mark.parametrize(
        "vein,expected",
        [
            (0.0, DpcgCategory.RESECTABLE),
            (90.0, DpcgCategory.RESECTABLE),
            (90.01, DpcgCategory.BORDERLINE_RESECTABLE),
            (270.0, DpcgCategory.BORDERLINE_RESECTABLE),
            (270.01, DpcgCategory.IRRESECTABLE),
            (360.0, DpcgCategory.IRRESECTABLE),
        ],
    )
    def test_venous_thresholds(self, vein, expected):
        assert dpcg_classify(vein, 0.0) is expected

    @pytest.mark.parametrize(
        "artery,expected",
        [
            (0.0, DpcgCategory.RESECTABLE),
            (90.0, DpcgCategory.BORDERLINE_RESECTABLE),
            (90.01, DpcgCategory.IRRESECTABLE),
            (270.0, DpcgCategory.IRRESECTABLE),
            (270.01, DpcgCategory.IRRESECTABLE),
            (360.0, DpcgCategory.IRRESECTABLE),
        ],
    )
    def test_arterial_thresholds(self, artery, expected):
        assert dpcg_classify(0.0, artery) is expected

    def test_worse_of_both(self):
        assert dpcg_classify(45.0, 45.0) is DpcgCategory.BORDERLINE_RESECTABLE
        assert dpcg_classify(300.0, 45.0) is DpcgCategory.IRRESECTABLE

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            dpcg_classify(-1.0, 0.0)
        with pytest.raises(ValueError):
            dpcg_classify(0.0, 360.5)
        with pytest.raises(ValueError):
            bucket_of(360.5)

    @pytest.mark.parametrize("cut", [*DPCG_CUTS_DEG, 360.0])
    def test_bucket_and_grade_agree_at_cuts(self, cut):
        # the rule spelled out per vessel: venous <=90 R, <=270 B, else I;
        # arterial 0 R, <=90 B, else I; the bucket counts the cuts below
        R, B, I = DpcgCategory
        for deg in (np.nextafter(cut, -np.inf), cut, np.nextafter(cut, np.inf)):
            deg = float(deg)
            if not 0.0 <= deg <= 360.0:
                with pytest.raises(ValueError):
                    dpcg_bucket(deg)
                with pytest.raises(ValueError):
                    bucket_of(deg)
                continue
            bucket = sum(c < deg for c in DPCG_CUTS_DEG)
            assert dpcg_bucket(deg) == bucket
            assert bucket_of(deg) == BUCKETS[bucket]
            assert dpcg_classify(deg, 0.0) is (R if deg <= 90.0 else B if deg <= 270.0 else I)
            assert dpcg_classify(0.0, deg) is (R if deg == 0.0 else B if deg <= 90.0 else I)

    @settings(max_examples=50, deadline=None)
    @given(
        v1=st.floats(0, 360), v2=st.floats(0, 360), a1=st.floats(0, 360), a2=st.floats(0, 360)
    )
    def test_monotone_in_each_argument(self, v1, v2, a1, a2):
        lo_v, hi_v = sorted((v1, v2))
        lo_a, hi_a = sorted((a1, a2))
        assert dpcg_classify(lo_v, lo_a) <= dpcg_classify(hi_v, lo_a)
        assert dpcg_classify(lo_v, lo_a) <= dpcg_classify(lo_v, hi_a)


class TestDeterminism:
    def test_scan_involvement_repeatable(self, rng):
        tumor = (rng.random((3, 16, 16)) < 0.2).astype(np.uint8)
        vein = (rng.random((3, 16, 16)) < 0.2).astype(np.uint8)
        masks = tav_volume(tumor, np.zeros_like(tumor), vein)
        r1 = scan_involvement(masks, ChannelId.VEIN)
        r2 = scan_involvement(masks, ChannelId.VEIN)
        assert r1 == r2
