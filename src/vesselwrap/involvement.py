"""Per-slice tumor-vessel contact, angular involvement and DPCG grading.

Geometry conventions (shared with the phantom generator so measured and
analytic angles agree):

* slices are axial (fixed z); pixel coordinates are (row, col);
* angles use the four-quadrant arctangent of (-(row - c_row), col - c_col),
  i.e. 0 deg points to +col and 90 deg points to -row ("image up"),
  normalized to [0, 360);
* adjacency is 8-connectivity in-slice, both for vessel components and for
  the tumor neighbourhood that defines contact;
* a vessel pixel is a contact pixel when it is itself a tumor voxel
  (structures may overlap) or any of its 8 neighbours is;
* the span of a contact arc is 360 minus the largest angular gap between
  contact pixel angles, which equals max-min whenever the arc does not
  cross the 0 deg branch cut. The literal max-min variant stays available
  as ``span_method="minmax"`` for comparison.

One whole-scan kernel, ``component_table``, measures every vessel component
of a scan at once:

1. gather both grids on the slices, rows and columns that hold a vessel
   pixel, the rows and columns widened by one on each side. Every in-slice
   neighbour of a vessel pixel is kept and stays its neighbour, and two
   vessel pixels are neighbours in the gathered grid only if they are in
   the scan, so the work follows the vessels' extent, not the distance
   between them;
2. label the gathered grid once with an in-plane-only 3x3x3 structure:
   components never join across slices, and the raster label order is
   (slice, first pixel), the order reports list them in;
3. dilate the gathered tumor once with a (1, 3, 3) structure; a vessel
   pixel is in contact where the dilation is set;
4. take centroids from ``np.bincount`` sums of grid coordinates and the
   angle of every contact pixel at nonzero radius around its centroid;
5. sort the angles by (component, angle) and reduce each component's
   segment: the largest gap comes from a segmented ``np.maximum.reduceat``
   over the differences, max-min from the segment ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy import ndimage

from .volume import ChannelId, MaskVolume

SPAN_METHODS = ("largest-gap", "minmax")
# The graded vessels, in report order.
VESSELS = (ChannelId.ARTERY, ChannelId.VEIN)

_STRUCT_26 = ndimage.generate_binary_structure(3, 3)
# In-slice adjacency as 3-D structures: only the middle plane is set.
_IN_SLICE = {
    conn: np.pad(ndimage.generate_binary_structure(2, rank)[None], ((1, 1), (0, 0), (0, 0)))
    for conn, rank in ((4, 1), (8, 2))
}
_NEIGHBOURHOOD = np.ones((1, 3, 3), dtype=bool)


class DpcgCategory(IntEnum):
    """Resectability grades, ordered from best to worst."""

    RESECTABLE = 0
    BORDERLINE_RESECTABLE = 1
    IRRESECTABLE = 2

    @property
    def label(self) -> str:
        return {
            DpcgCategory.RESECTABLE: "resectable",
            DpcgCategory.BORDERLINE_RESECTABLE: "borderline_resectable",
            DpcgCategory.IRRESECTABLE: "irresectable",
        }[self]


@dataclass(frozen=True)
class ComponentTable:
    """Every in-slice vessel component of a scan, in grid coordinates.

    Row k describes component k. Components are ordered by slice, then by
    their first pixel in raster order. Contact pixels are grouped by
    component: component k owns ``contact[contact_start[k]:contact_start[k + 1]]``.
    """

    z: np.ndarray  # (K,) slice index
    centroid: np.ndarray  # (K, 2) mean (row, col) over ALL component pixels
    span_deg: np.ndarray  # (K,) angular span of the contact pixels
    contact: np.ndarray  # (M, 3) (z, row, col) contact pixels
    contact_start: np.ndarray  # (K + 1,) offsets into ``contact``

    @property
    def present(self) -> np.ndarray:
        """Per component: does it have at least one contact pixel."""
        return np.diff(self.contact_start) > 0


@dataclass(frozen=True)
class SliceInvolvement:
    z: int
    component_spans_deg: tuple[float, ...]
    max_span_deg: float
    present: bool


@dataclass(frozen=True)
class InvolvementReport:
    vessel: ChannelId
    slices: tuple[SliceInvolvement, ...]
    max_span_deg: float
    argmax_slice: int | None
    present: bool
    table: ComponentTable = field(compare=False, repr=False)


def _occupied_lines(grid: np.ndarray, margin: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """Indices along each axis of a 3-D grid of the planes holding a nonzero voxel.

    Each axis keeps the planes within ``margin`` of a nonzero one. Where an
    axis has a margin of one, the gathered grid ``grid[np.ix_(*lines)]``
    keeps every neighbour of a nonzero voxel along it next to that voxel,
    and nonzero voxels meet only where they meet in ``grid``. An all-zero
    grid gives three empty index arrays.
    """
    plane = np.any(grid, axis=0)
    occupied = (np.any(grid, axis=(1, 2)), plane.any(axis=1), plane.any(axis=0))
    lines = []
    for keep, m in zip(occupied, margin):
        if m:
            keep = ndimage.binary_dilation(keep, iterations=m)
        lines.append(np.flatnonzero(keep))
    return tuple(lines)


def _gather_index(lines: tuple[np.ndarray, ...]) -> tuple:
    """Index for the grid cells at ``lines``: plain slices when every axis is one run."""
    if all(i.size == 0 or i[-1] - i[0] + 1 == i.size for i in lines):
        return tuple(slice(i[0], i[-1] + 1) if i.size else slice(0, 0) for i in lines)
    return np.ix_(*lines)


def _segment_spans(labels: np.ndarray, angles: np.ndarray, n: int, method: str) -> np.ndarray:
    """The span of each label's angles, for labels 0..n-1 at once."""
    spans = np.zeros(n)
    order = np.lexsort((angles, labels))
    a = angles[order]
    count = np.bincount(labels, minlength=n)
    end = np.cumsum(count) - 1
    start = end - count + 1
    multi = count >= 2
    if not multi.any():
        return spans
    first, last = a[start[multi]], a[end[multi]]
    if method == "minmax":
        spans[multi] = last - first
        return spans
    gaps = np.diff(a)
    gaps[end[count > 0][:-1]] = -1.0  # differences across two components
    widest = np.maximum.reduceat(gaps, start[multi])
    wrap = 360.0 - last + first
    spans[multi] = 360.0 - np.maximum(widest, wrap)
    return spans


def component_table(
    tumor3d: np.ndarray,
    vessel3d: np.ndarray,
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> ComponentTable:
    """Centroid, contact pixels and contact span of every in-slice vessel component."""
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    if span_method not in SPAN_METHODS:
        raise ValueError(f"unknown span method {span_method!r}")
    tumor = np.asarray(tumor3d)
    vessel = np.asarray(vessel3d)
    if tumor.shape != vessel.shape:
        raise ValueError(f"geometry mismatch: {tumor.shape} vs {vessel.shape}")
    if vessel.ndim != 3:
        raise ValueError("expected 3-D grids")

    lines = _occupied_lines(vessel, (0, 1, 1))
    index = _gather_index(lines)
    labels, n = ndimage.label(vessel[index] > 0, structure=_IN_SLICE[connectivity])
    near = ndimage.binary_dilation(tumor[index] > 0, structure=_NEIGHBOURHOOD)
    pixels = np.argwhere(labels)  # raster order, gathered coordinates
    hit = near[tuple(pixels.T)]
    label = labels[tuple(pixels.T)] - 1
    for axis, kept in enumerate(lines):
        pixels[:, axis] = kept[pixels[:, axis]]

    size = np.bincount(label, minlength=n)
    centroid = np.stack(
        [np.bincount(label, pixels[:, 1], n) / size, np.bincount(label, pixels[:, 2], n) / size],
        axis=1,
    )
    z = np.empty(n, np.intp)
    z[label] = pixels[:, 0]  # every pixel of a component lies on its slice

    contact_label = label[hit]
    order = np.argsort(contact_label, kind="stable")
    contact = pixels[hit][order]
    contact_label = contact_label[order]
    contact_start = np.concatenate(([0], np.cumsum(np.bincount(contact_label, minlength=n))))

    d_row = contact[:, 1] - centroid[contact_label, 0]
    d_col = contact[:, 2] - centroid[contact_label, 1]
    nonzero = (d_row != 0.0) | (d_col != 0.0)
    angles = np.degrees(np.arctan2(-d_row[nonzero], d_col[nonzero])) % 360.0
    spans = _segment_spans(contact_label[nonzero], angles, n, span_method)
    return ComponentTable(z, centroid, spans, contact, contact_start)


def scan_involvement(
    masks: MaskVolume,
    vessel: ChannelId,
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> InvolvementReport:
    """Aggregate slice involvement over a whole scan for one vessel class."""
    tumor = masks.channel(ChannelId.TUMOR)
    table = component_table(tumor, masks.channel(vessel), connectivity, span_method)
    bounds = np.searchsorted(table.z, np.arange(masks.dims[0] + 1)).tolist()
    spans = table.span_deg.tolist()
    contacted = table.present.tolist()
    slices = tuple(
        SliceInvolvement(z, tuple(spans[lo:hi]), max(spans[lo:hi], default=0.0), any(contacted[lo:hi]))
        for z, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
    )
    present = any(s.present for s in slices)
    max_span = max((s.max_span_deg for s in slices), default=0.0)
    argmax = None
    if present:
        argmax = next(
            s.z for s in slices if s.present and s.max_span_deg == max_span
        )
    return InvolvementReport(ChannelId(vessel), slices, max_span, argmax, present, table)


def assess_scan(
    masks: MaskVolume,
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> tuple[dict[ChannelId, InvolvementReport], DpcgCategory]:
    """Artery and vein involvement of a scan, in that order, and its DPCG grade."""
    reports = {
        cid: scan_involvement(masks, cid, connectivity, span_method)
        for cid in VESSELS
    }
    grade = dpcg_classify(reports[ChannelId.VEIN].max_span_deg, reports[ChannelId.ARTERY].max_span_deg)
    return reports, grade


def filter_critical(
    vessel3d: np.ndarray,
    pancreas3d: np.ndarray,
    mode: str = "voxel",
) -> np.ndarray:
    """Drop vessel voxels (or whole 3D components) overlapping the pancreas.

    voxel mode removes exactly the overlapping voxels; component mode removes
    every 26-connected vessel component that touches the pancreas anywhere.
    Only the planes holding a vessel voxel, widened by one on every axis,
    are gathered and labelled; a keep/drop lookup indexed by label paints
    the survivors back.
    """
    vessel = np.asarray(vessel3d)
    pancreas = np.asarray(pancreas3d)
    if vessel.shape != pancreas.shape:
        raise ValueError(f"geometry mismatch: {vessel.shape} vs {pancreas.shape}")
    if vessel.ndim != 3:
        raise ValueError("expected 3-D grids")
    if mode == "voxel":
        return ((vessel > 0) & ~(pancreas > 0)).astype(np.uint8)
    if mode == "component":
        out = np.zeros(vessel.shape, dtype=np.uint8)
        index = _gather_index(_occupied_lines(vessel, (1, 1, 1)))
        labeled, n = ndimage.label(vessel[index] > 0, structure=_STRUCT_26)
        keep = np.ones(n + 1, dtype=np.uint8)
        keep[0] = 0
        keep[labeled[pancreas[index] > 0]] = 0
        out[index] = keep[labeled]
        return out
    raise ValueError(f"unknown filter mode {mode!r}")


def filter_critical_volume(masks: MaskVolume, mode: str = "voxel") -> MaskVolume:
    """Apply filter_critical to the artery and vein channels of a volume.

    The mask stack is copied only when the filter drops a voxel; otherwise
    the result shares the input's read-only data.
    """
    pancreas = masks.channel(ChannelId.PANCREAS)
    data = masks.data
    for cid in VESSELS:
        if masks.has_channel(cid):
            vessel = masks.channel(cid)
            kept = filter_critical(vessel, pancreas, mode)
            if np.count_nonzero(kept) != np.count_nonzero(vessel):  # kept is a subset
                if data is masks.data:
                    data = data.copy()
                data[masks.channel_index(cid)] = kept
            del kept  # one filtered channel alive at a time
    return MaskVolume(data, masks.channels, masks.spacing)


def dpcg_classify(vein_deg: float, artery_deg: float) -> DpcgCategory:
    """Grade resectability from maximum venous and arterial contact angles.

    Venous: <=90 resectable, (90, 270] borderline, >270 irresectable.
    Arterial: 0 resectable, (0, 90] borderline, >90 irresectable.
    The final grade is the worse of the two.
    """
    for name, deg in (("vein", vein_deg), ("artery", artery_deg)):
        if not (0.0 <= deg <= 360.0):
            raise ValueError(f"{name} degrees out of range [0, 360]: {deg}")
    if vein_deg <= 90.0:
        venous = DpcgCategory.RESECTABLE
    elif vein_deg <= 270.0:
        venous = DpcgCategory.BORDERLINE_RESECTABLE
    else:
        venous = DpcgCategory.IRRESECTABLE
    if artery_deg == 0.0:
        arterial = DpcgCategory.RESECTABLE
    elif artery_deg <= 90.0:
        arterial = DpcgCategory.BORDERLINE_RESECTABLE
    else:
        arterial = DpcgCategory.IRRESECTABLE
    return max(venous, arterial)
