"""Shared fixtures, independent oracles and the per-component reference.

The oracles here deliberately avoid the library's code paths: contact is
checked by a per-pixel neighbourhood scan and connected components by a
plain breadth-first search.

The first reference below is the per-component involvement path the
library used before its whole-scan kernel: each slice is labelled on its own
and the whole tumor slice is dilated once per vessel component. It is slow
but plain, and the kernel must reproduce its spans float-for-float.

The second is the whole-volume uncertainty code the library used before it
streamed its statistics in blocks: every statistic stacks its volumes as one
float64 array and calls numpy's mean/std, and every sigma mask upcasts the
whole mean and std. The streamed code must reproduce its bytes exactly. The
library gives a field only as one pass (``FieldStream``); ``collect`` copies
a pass into a ``Field``, the plain pair of volumes the oracles return, and
``field_stream`` makes a pass over a hand-made mean and std.

The third is the grid loop ``encode_layered`` used before it worked from the
voxel indices: each label, in ascending order, overwrites the grid where
every channel it sets is set. The index code must give the same labels.

The last is the grid Dice the library kept before it scored voxel
indices alone: counts of the > 0 voxels of two grids. ``voxel_dice`` must
give the same value on the grids' set-voxel indices.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
import pytest
from scipy import ndimage

from vesselwrap.involvement import SPAN_METHODS, SliceInvolvement
from vesselwrap.uncertainty import _BLOCK, FieldStream, _check_same_geometry
from vesselwrap.volume import (
    LAYERED_DECODE,
    ChannelId,
    LayeredLabelVolume,
    MaskVolume,
    ProbVolume,
    Spacing,
    STANDARD_CHANNELS,
)

_STRUCT_4 = ndimage.generate_binary_structure(2, 1)
_STRUCT_8 = ndimage.generate_binary_structure(2, 2)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def make_mask(data, channels=STANDARD_CHANNELS, spacing=Spacing(1.0, 1.0, 1.0)) -> MaskVolume:
    return MaskVolume(np.asarray(data, dtype=np.uint8), channels, spacing)


def make_prob(data, channels=STANDARD_CHANNELS, spacing=Spacing(1.0, 1.0, 1.0)) -> ProbVolume:
    return ProbVolume(np.asarray(data, dtype=np.float32), channels, spacing)


def tav_volume(tumor, artery, vein, spacing=Spacing(1.0, 1.0, 1.0)) -> MaskVolume:
    """3-channel volume with just tumor/artery/vein grids."""
    data = np.stack([np.asarray(artery), np.asarray(vein), np.asarray(tumor)]).astype(np.uint8)
    return MaskVolume(data, (ChannelId.ARTERY, ChannelId.VEIN, ChannelId.TUMOR), spacing)


def brute_force_contact(tumor2d: np.ndarray, vessel2d: np.ndarray) -> set[tuple[int, int]]:
    """All-pixels scan: vessel pixel with tumor on it or in its 8-neighbourhood."""
    tumor = np.asarray(tumor2d) > 0
    vessel = np.asarray(vessel2d) > 0
    h, w = vessel.shape
    out = set()
    for r in range(h):
        for c in range(w):
            if not vessel[r, c]:
                continue
            hit = False
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < h and 0 <= cc < w and tumor[rr, cc]:
                        hit = True
            if hit:
                out.add((r, c))
    return out


def bfs_components(mask2d: np.ndarray, connectivity: int) -> list[set[tuple[int, int]]]:
    """Plain BFS connected components, independent of scipy labeling."""
    mask = np.asarray(mask2d) > 0
    h, w = mask.shape
    if connectivity == 8:
        steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1) if (dr, dc) != (0, 0)]
    else:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    seen = np.zeros_like(mask, dtype=bool)
    groups = []
    for r in range(h):
        for c in range(w):
            if not mask[r, c] or seen[r, c]:
                continue
            queue = [(r, c)]
            seen[r, c] = True
            group = set()
            while queue:
                pr, pc = queue.pop()
                group.add((pr, pc))
                for dr, dc in steps:
                    rr, cc = pr + dr, pc + dc
                    if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] and not seen[rr, cc]:
                        seen[rr, cc] = True
                        queue.append((rr, cc))
            groups.append(group)
    return groups


@dataclass(frozen=True)
class Component2D:
    """One in-slice connected region of a vessel mask."""

    z: int
    pixels: np.ndarray  # (N, 2) int rows/cols, row-major sorted
    connectivity: int

    def __post_init__(self):
        if self.pixels.ndim != 2 or self.pixels.shape[1] != 2 or len(self.pixels) == 0:
            raise ValueError("component needs a non-empty (N, 2) pixel array")


@dataclass(frozen=True)
class ContactSet:
    """Contact pixels of one vessel component plus their centroid angles."""

    z: int
    component: Component2D
    contact_pixels: np.ndarray  # (M, 2) int, subset of component pixels
    centroid: tuple[float, float]  # (row, col) over ALL component pixels
    angles_deg: np.ndarray  # one angle per contact pixel at nonzero radius

    @property
    def present(self) -> bool:
        return len(self.contact_pixels) > 0


def connected_components(mask2d: np.ndarray, connectivity: int = 8, z: int = -1) -> list[Component2D]:
    """Partition a binary slice into components, ordered by first pixel."""
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    mask = np.asarray(mask2d) > 0
    if mask.ndim != 2:
        raise ValueError("mask2d must be 2-D")
    struct = _STRUCT_8 if connectivity == 8 else _STRUCT_4
    labeled, n = ndimage.label(mask, structure=struct)
    if n == 0:
        return []
    coords = np.argwhere(labeled > 0)  # row-major order
    labels = labeled[coords[:, 0], coords[:, 1]]
    order = np.argsort(labels, kind="stable")  # keeps row-major order per label
    coords = coords[order]
    labels = labels[order]
    splits = np.searchsorted(labels, np.arange(2, n + 1))
    groups = np.split(coords, splits)
    groups.sort(key=lambda g: (int(g[0, 0]), int(g[0, 1])))
    return [Component2D(z=z, pixels=g, connectivity=connectivity) for g in groups]


def _pixel_angles(centroid: tuple[float, float], pixels: np.ndarray) -> np.ndarray:
    d_row = pixels[:, 0] - centroid[0]
    d_col = pixels[:, 1] - centroid[1]
    nonzero = (d_row != 0.0) | (d_col != 0.0)
    return np.degrees(np.arctan2(-d_row[nonzero], d_col[nonzero])) % 360.0


def contact_pixels(tumor2d: np.ndarray, vessel: Component2D) -> ContactSet:
    """Contact pixels of one vessel component against the tumor slice.

    A vessel pixel is in contact when the tumor occupies it or any of its 8
    neighbours. The centroid is the mean of all component pixels; angles are
    computed only for contact pixels at nonzero radius.
    """
    tumor = np.asarray(tumor2d) > 0
    if tumor.ndim != 2:
        raise ValueError("tumor2d must be 2-D")
    rows, cols = vessel.pixels[:, 0], vessel.pixels[:, 1]
    if rows.max(initial=0) >= tumor.shape[0] or cols.max(initial=0) >= tumor.shape[1]:
        raise ValueError("vessel component exceeds tumor slice dims")
    near = ndimage.binary_dilation(tumor, structure=np.ones((3, 3), dtype=bool))
    hit = near[rows, cols]
    contact = vessel.pixels[hit]
    centroid = (float(vessel.pixels[:, 0].mean()), float(vessel.pixels[:, 1].mean()))
    angles = _pixel_angles(centroid, contact.astype(np.float64)) if len(contact) else np.empty(0)
    return ContactSet(vessel.z, vessel, contact, centroid, angles)


def slice_contact_sets(
    tumor2d: np.ndarray,
    vessel2d: np.ndarray,
    connectivity: int = 8,
    z: int = -1,
) -> list[ContactSet]:
    """ContactSet for every vessel component of one slice."""
    tumor = np.asarray(tumor2d)
    vessel = np.asarray(vessel2d)
    if tumor.shape != vessel.shape:
        raise ValueError(f"slice dims mismatch: {tumor.shape} vs {vessel.shape}")
    return [contact_pixels(tumor, comp) for comp in connected_components(vessel, connectivity, z)]


def angular_span(angles, method: str = "largest-gap") -> float:
    """Spread of a set of angles in degrees.

    largest-gap: 360 minus the widest gap between sorted angles (wrap
    included); handles arcs crossing 0 deg. minmax: literal max - min.
    Fewer than two angles span 0.
    """
    if method not in SPAN_METHODS:
        raise ValueError(f"unknown span method {method!r}")
    a = np.sort(np.asarray(angles, dtype=np.float64).ravel())
    if a.size and (a[0] < 0.0 or a[-1] >= 360.0):
        raise ValueError("angles must lie in [0, 360)")
    if a.size < 2:
        return 0.0
    if method == "minmax":
        return float(a[-1] - a[0])
    gaps = np.diff(a)
    wrap = 360.0 - a[-1] + a[0]
    return float(360.0 - max(gaps.max(), wrap))


def slice_involvement(
    tumor2d: np.ndarray,
    vessel2d: np.ndarray,
    connectivity: int = 8,
    span_method: str = "largest-gap",
    z: int = -1,
) -> SliceInvolvement:
    """Involvement of one axial slice: per-component spans and their max."""
    spans = []
    present = False
    for cs in slice_contact_sets(tumor2d, vessel2d, connectivity, z):
        if cs.present:
            present = True
        spans.append(angular_span(cs.angles_deg, span_method))
    max_span = max(spans, default=0.0)
    return SliceInvolvement(z, tuple(spans), max_span, present)


def scan_involvement_reference(
    tumor3d: np.ndarray,
    vessel3d: np.ndarray,
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> tuple[tuple[SliceInvolvement, ...], float, int | None, bool]:
    """(slices, max_span_deg, argmax_slice, present), one slice at a time."""
    slices = []
    for z in range(tumor3d.shape[0]):
        slices.append(
            slice_involvement(tumor3d[z], vessel3d[z], connectivity, span_method, z=z)
        )
    present = any(s.present for s in slices)
    max_span = max((s.max_span_deg for s in slices), default=0.0)
    argmax = None
    if present:
        argmax = next(
            s.z for s in slices if s.present and s.max_span_deg == max_span
        )
    return tuple(slices), max_span, argmax, present


class Field(NamedTuple):
    """A whole mean and std field of one kind (epistemic | total)."""

    mean: ProbVolume
    std: ProbVolume
    kind: str


def collect(stream: FieldStream) -> Field:
    """The pass of ``stream`` copied into float32 mean and std volumes; raises as the pass raises.

    Every block must lie inside one channel grid.
    """
    shape = (len(stream.channels), *stream.dims)
    mean, std = np.empty(math.prod(shape), np.float32), np.empty(math.prod(shape), np.float32)
    pos, grid = 0, math.prod(stream.dims)
    for m, s in stream.blocks:
        assert m.dtype == s.dtype == np.float32 and m.size == s.size <= _BLOCK
        assert pos // grid == (pos + m.size - 1) // grid, "a block spans two channels"
        mean[pos:pos + m.size], std[pos:pos + s.size] = m, s
        pos += m.size
    assert pos == mean.size
    return Field(ProbVolume(mean.reshape(shape), stream.channels, stream.spacing),
                 ProbVolume(std.reshape(shape), stream.channels, stream.spacing), stream.kind)


def field_stream(mean: ProbVolume, std: ProbVolume, kind: str = "epistemic") -> FieldStream:
    """A pass over views of ``mean`` and ``std``, ``_BLOCK`` voxels of one channel at a time."""
    assert mean.dims == std.dims and mean.channels == std.channels
    grids = zip(map(np.ravel, mean.data), map(np.ravel, std.data))
    blocks = ((m[lo:lo + _BLOCK], s[lo:lo + _BLOCK])
              for m, s in grids for lo in range(0, m.size, _BLOCK))
    return FieldStream(mean.channels, mean.dims, mean.spacing, kind, blocks)


def _stack(volumes: Sequence[ProbVolume]) -> np.ndarray:
    _check_same_geometry(volumes)
    return np.stack([v.data.astype(np.float64) for v in volumes])


def _as_prob(arr: np.ndarray, like: ProbVolume) -> ProbVolume:
    return ProbVolume(
        np.clip(arr, 0.0, 1.0).astype(np.float32), like.channels, like.spacing
    )


def fold_mean_std_reference(folds: Sequence[ProbVolume]) -> Field:
    folds = list(folds)
    if len(folds) < 2:
        raise ValueError(f"need at least 2 folds for a std, got {len(folds)}")
    stack = _stack(folds)
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)  # population
    return Field(_as_prob(mean, folds[0]), _as_prob(std, folds[0]), "epistemic")


def aleatoric_reference(samples: Sequence[ProbVolume]) -> ProbVolume:
    vols = tuple(samples)
    if len(vols) < 2:
        raise ValueError(f"need at least 2 samples for a std, got {len(vols)}")
    stack = _stack(vols)
    return _as_prob(stack.std(axis=0), vols[0])


def fold_means_reference(folds: Sequence[Sequence[ProbVolume]]) -> list[ProbVolume]:
    return [_as_prob(_stack(f).mean(axis=0), f[0]) for f in folds]


def mean_aleatoric_reference(folds: Sequence[Sequence[ProbVolume]]) -> ProbVolume:
    folds = list(folds)
    if not folds:
        raise ValueError("need at least one fold")
    stds = [aleatoric_reference(f).data.astype(np.float64) for f in folds]
    return _as_prob(np.mean(stds, axis=0), folds[0][0])


def epistemic_from_samples_reference(folds: Sequence[Sequence[ProbVolume]]) -> ProbVolume:
    means = fold_means_reference(folds)
    if len(means) < 2:
        raise ValueError(f"need at least 2 folds for a std, got {len(means)}")
    stack = _stack(means)
    return _as_prob(stack.std(axis=0), means[0])


def sample_mean_std_reference(folds: Sequence[Sequence[ProbVolume]]) -> Field:
    folds = list(folds)
    means = fold_means_reference(folds)
    mean = _stack(means).mean(axis=0)
    total = mean_aleatoric_reference(folds).data.astype(np.float64)
    if len(folds) >= 2:
        total = total + epistemic_from_samples_reference(folds).data.astype(np.float64)
    return Field(_as_prob(mean, folds[0][0]), _as_prob(total, folds[0][0]), "total")


def sigma_level_mask_reference(f: Field, k: float, threshold: float = 0.5) -> MaskVolume:
    adjusted = np.clip(
        f.mean.data.astype(np.float64) + float(k) * f.std.data.astype(np.float64), 0.0, 1.0
    )
    mask = (adjusted >= threshold).astype(np.uint8)
    return MaskVolume(mask, f.mean.channels, f.mean.spacing)


def encode_layered_reference(mv: MaskVolume) -> LayeredLabelVolume:
    labels = np.zeros(mv.dims, dtype=np.uint8)
    for label, targets in sorted(LAYERED_DECODE.items()):
        if all(mv.has_channel(cid) for cid in targets):
            labels[reduce(np.logical_and, [mv.channel(cid).view(bool) for cid in targets])] = label
    return LayeredLabelVolume(labels, mv.spacing)


def _foreground(grid) -> np.ndarray:
    """The grid itself when nonzero already means > 0 (bool, unsigned), else grid > 0."""
    grid = np.asarray(grid)
    return grid if grid.dtype.kind in "bu" else grid > 0


def dice_reference(pred, gt) -> float:
    """Counts-based Dice of the > 0 voxels of two grids; both-empty is a perfect 1.0."""
    p = _foreground(pred)
    g = _foreground(gt)
    if p.shape != g.shape:
        raise ValueError(f"geometry mismatch: {p.shape} vs {g.shape}")
    denom = np.count_nonzero(p) + np.count_nonzero(g)
    if denom == 0:
        return 1.0
    return 2.0 * np.count_nonzero(np.logical_and(p, g)) / denom


def open_files(root) -> list[str]:
    """The files under ``root`` that this process holds open, deleted ones too (Linux)."""
    held = []
    for fd in Path("/proc/self/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:  # the descriptor of the listing itself, closed by now
            continue
        if target.startswith(str(root)):
            held.append(target)
    return sorted(held)


def open_payloads(root) -> list[str]:
    """The volume payload files under ``root`` that this process holds open (Linux)."""
    return [target for target in open_files(root) if target.endswith(".raw")]
