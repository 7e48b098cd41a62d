"""Contact overlays against the full-slice painter they replaced.

``reference_overlay`` is the painter the library used before it painted
from per-scan voxel indices on a reused canvas: each image compares whole
slices and paints four boolean masks over a fresh array. Every PPM that
``overlay.contact_overlay`` writes must equal, byte for byte, the image the
reference paints for that vessel and slice.
"""

import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_mask
from vesselwrap.involvement import VESSELS, assess_scan
from vesselwrap.overlay import (
    COLOR_CENTROID,
    COLOR_CONTACT,
    COLOR_OVERLAP,
    COLOR_PANCREAS,
    COLOR_TUMOR,
    COLOR_VESSEL,
    contact_overlay,
)
from vesselwrap.volume import CHANNEL_NAMES, ChannelId, MaskVolume

ROOT = Path(__file__).resolve().parent.parent


def reference_overlay(masks: MaskVolume, vessel: ChannelId, z: int, table) -> np.ndarray:
    tumor = masks.channel(ChannelId.TUMOR)[z] > 0
    vessel_grid = masks.channel(vessel)[z] > 0
    rgb = np.zeros(tumor.shape + (3,), dtype=np.uint8)
    if masks.has_channel(ChannelId.PANCREAS):
        rgb[masks.channel(ChannelId.PANCREAS)[z] > 0] = COLOR_PANCREAS
    rgb[vessel_grid] = COLOR_VESSEL
    rgb[tumor] = COLOR_TUMOR
    rgb[tumor & vessel_grid] = COLOR_OVERLAP
    lo, hi = np.searchsorted(table.z, (z, z + 1))
    for k in range(lo, hi):
        contact = table.contact[table.contact_start[k]:table.contact_start[k + 1]]
        if not len(contact):
            continue
        rgb[contact[:, 1], contact[:, 2]] = COLOR_CONTACT
        cr, cc = (int(round(v)) for v in table.centroid[k].tolist())
        for dr, dc in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
            r, c = cr + dr, cc + dc
            if 0 <= r < rgb.shape[0] and 0 <= c < rgb.shape[1]:
                rgb[r, c] = COLOR_CENTROID
    return rgb


def check_against_reference(masks: MaskVolume, connectivity: int = 8) -> dict[str, bytes]:
    """Assert that every written PPM equals the reference image; return the files."""
    reports, _ = assess_scan(masks, connectivity)
    h, w = masks.dims[1:]
    expected = {}
    for cid in VESSELS:
        report = reports[cid]
        for s in report.slices:
            if s.present:
                rgb = reference_overlay(masks, cid, s.z, report.table)
                name = f"s_{CHANNEL_NAMES[cid]}_z{s.z:03d}.ppm"
                expected[name] = b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes()
    with tempfile.TemporaryDirectory() as out:
        contact_overlay(masks, reports, out, "s")
        written = {p.name: p.read_bytes() for p in Path(out).iterdir()}
    assert sorted(written) == sorted(expected)
    assert [name for name in expected if written[name] != expected[name]] == []
    return written


def adversarial_scene() -> MaskVolume:
    spec = importlib.util.spec_from_file_location("cli_matrix", ROOT / "tools" / "cli_matrix.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.adversarial_scene()


def without_pancreas(masks: MaskVolume) -> MaskVolume:
    keep = [i for i, cid in enumerate(masks.channels) if cid != ChannelId.PANCREAS]
    return MaskVolume(masks.data[keep], tuple(masks.channels[i] for i in keep), masks.spacing)


def slices(masks: MaskVolume, zs) -> MaskVolume:
    return MaskVolume(masks.data[:, list(zs)], masks.channels, masks.spacing)


class TestAgainstReference:
    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("pancreas", [True, False], ids=["pancreas", "no-pancreas"])
    def test_adversarial_scene(self, connectivity, pancreas):
        scene = adversarial_scene()
        written = check_against_reference(scene if pancreas else without_pancreas(scene), connectivity)
        assert len(written) == 8  # slices 0-3 of both vessels

    def test_large_slice_then_small_one(self):
        # Slice 1 paints three pixels after slice 0 painted hundreds: any
        # pixel the canvas kept from slice 0 breaks the byte equality.
        scene = slices(adversarial_scene(), [0, 1])
        reports, _ = assess_scan(scene)
        table = reports[ChannelId.VEIN].table
        assert np.diff(table.contact_start).tolist() == [132, 2]
        check_against_reference(scene)

    def test_crosses_clipped_at_the_border(self):
        scene = slices(adversarial_scene(), [1, 2])
        reports, _ = assess_scan(scene)
        table = reports[ChannelId.VEIN].table
        h, w = scene.dims[1:]
        centroids = np.rint(table.centroid[table.z == 1]).astype(int).tolist()
        assert [0, 7] in centroids and [12, w - 1] in centroids and [h - 1, 0] in centroids
        check_against_reference(scene)

    def test_crescent_centroid_on_a_later_components_contact(self):
        scene = slices(adversarial_scene(), [3])
        reports, _ = assess_scan(scene)
        table = reports[ChannelId.VEIN].table
        crescent, inner = (table.contact[table.contact_start[k]:table.contact_start[k + 1], 1:]
                           for k in range(2))
        crosses = [
            {(r + dr, c + dc) for dr, dc in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))}
            for r, c in np.rint(table.centroid[:2]).astype(int).tolist()
        ]
        inner_pixels = set(map(tuple, inner.tolist()))
        # The crescent's centroid is off its own pixels, on the inner component.
        assert tuple(np.rint(table.centroid[0]).astype(int).tolist()) in inner_pixels
        assert len(crescent) and not crosses[0] & set(map(tuple, crescent.tolist()))
        # A pixel of the crescent's cross that only the inner component's
        # contact paint covers: painting every contact before every cross
        # would leave it in the centroid color.
        assert (crosses[0] - crosses[1]) & inner_pixels
        check_against_reference(scene)

    def test_no_contact_writes_nothing(self, tmp_path):
        scene = slices(adversarial_scene(), [4])
        reports, _ = assess_scan(scene)
        contact_overlay(scene, reports, tmp_path / "out", "s")
        assert not (tmp_path / "out").exists()

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        depth=st.integers(1, 4),
        h=st.integers(1, 14),
        w=st.integers(1, 14),
        density=st.floats(0.05, 0.6),
        pancreas=st.booleans(),
        connectivity=st.sampled_from([4, 8]),
    )
    def test_random_scenes(self, seed, depth, h, w, density, pancreas, connectivity):
        # Overlapping pancreas/artery/vein/tumor grids; the denser the
        # grids, the more components share pixels and crosses.
        rng = np.random.default_rng(seed)
        data = (rng.random((6, depth, h, w)) < density).astype(np.uint8)
        scene = make_mask(data)
        check_against_reference(scene if pancreas else without_pancreas(scene), connectivity)
