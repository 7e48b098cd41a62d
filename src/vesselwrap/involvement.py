"""Per-slice tumor-vessel contact, angular involvement and DPCG grading.

Geometry conventions (shared with the phantom generator so measured and
analytic angles agree):

* slices are axial (fixed z); pixel coordinates are (row, col);
* angles use the four-quadrant arctangent of
  (-(row - c_row) * y_mm, (col - c_col) * x_mm), offsets in millimetres,
  i.e. 0 deg points to +col and 90 deg points to -row ("image up"),
  normalized to [0, 360);
* vessel components are labelled in-slice with the chosen connectivity,
  8 by default; ``connectivity=4`` (``--connectivity 4``) changes only
  how vessel pixels join into components;
* contact always uses the in-slice 8-neighbourhood, whatever the
  connectivity: a vessel pixel is a contact pixel when it is itself a
  tumor voxel (structures may overlap) or any of its 8 neighbours is;
* the span of a contact arc is 360 minus the largest angular gap between
  contact pixel angles, which equals max-min whenever the arc does not
  cross the 0 deg branch cut. The literal max-min variant stays available
  as ``span_method="minmax"`` for comparison.

Out of scope: the contact neighbourhood is counted in pixels, not
millimetres, so on an anisotropic grid it reaches further along the
coarser axis; only the angles are scaled by the spacing. A vessel that
runs obliquely to the axial plane is measured in its axial cross-section,
not in its own (ROADMAP item 9).

One whole-scan kernel, ``component_table``, measures every vessel component
of a scan at once:

1. gather the vessel and the tumor (``MaskVolume.gather``) on the slices,
   rows and columns that hold a vessel pixel, the rows and columns
   widened by one on each side. These lines come from the vessel's voxel
   index (``MaskVolume.voxels``), and a volume that holds indices builds
   both sub-grids from its indices, never a whole grid. Every in-slice
   neighbour of a vessel pixel is kept and stays its neighbour, and two
   vessel pixels are neighbours in the gathered grid only if they are in
   the scan, so the work follows the vessels' extent, not the distance
   between them;
2. label the gathered grid once with the run-length labeller
   ``label_components``: one ``np.diff`` finds the runs of vessel pixels
   in every row, two ``searchsorted`` calls pair the runs that touch in
   the next row of the same slice, and a union-find merges the pairs.
   Components never join across slices, and they are numbered by their
   first run, so the label order is (slice, first pixel in raster order),
   the order reports list them in;
3. dilate the gathered tumor once by a 3x3 box in-plane (``dilate``, an OR
   of shifted copies); a vessel pixel is in contact where the dilation is
   set;
4. take centroids from ``np.bincount`` sums of grid coordinates and the
   angle of every contact pixel at nonzero radius around its centroid,
   in millimetres (row offsets scaled by ``y_mm / x_mm``);
5. sort the angles by (component, angle) and reduce each component's
   segment: the largest gap comes from a segmented ``np.maximum.reduceat``
   over the differences, max-min from the segment ends.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .volume import ChannelId, MaskVolume

SPAN_METHODS = ("largest-gap", "minmax")
# The graded vessels, in report order.
VESSELS = (ChannelId.ARTERY, ChannelId.VEIN)
# Every channel ``assess_scan`` reads: the vessels and the tumor they are graded against.
GRADED_CHANNELS = (*VESSELS, ChannelId.TUMOR)


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


def dilate(grid: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Binary dilation of ``grid`` by a 3-long box along each of ``axes``.

    Along every listed axis a cell is set when it or a neighbour is set;
    cells beyond the edges count as unset. Axes ``(-2, -1)`` give the
    in-plane 3x3 neighbourhood.
    """
    out = np.asarray(grid, dtype=bool)
    for axis in axes:
        src = np.moveaxis(out, axis, 0)
        grown = src.copy()
        grown[1:] |= src[:-1]
        grown[:-1] |= src[1:]
        out = np.moveaxis(grown, 0, axis)
    return out


def label_components(grid: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    """Connected components of a 3-D boolean grid, as ``(labels, n)``.

    ``connectivity`` 4 or 8 joins pixels within a slice only, through their
    edges or also their corners; 26 joins every voxel of the 3x3x3
    neighbourhood. Labels are int32, 0 off the grid and 1..n numbered in the
    raster order of each component's first voxel.

    The grid is padded with a zero column on each side and a zero row after
    each slice, and flattened. Every run of set cells then starts and ends
    inside one row, so one ``np.diff`` finds them all. A run touches runs of
    a later row where the column intervals overlap, widened by one column
    for corner contact; shifted by that row's flat offset, the candidates
    are one contiguous range of runs found with two ``searchsorted`` calls.
    The zero row after each slice means a shift past a slice's last row
    lands on an empty row, never on the next slice.
    """
    if connectivity not in (4, 8, 26):
        raise ValueError(f"connectivity must be 4, 8 or 26, got {connectivity}")
    grid = np.asarray(grid, dtype=bool)
    depth, height, width = grid.shape
    row = width + 2
    plane = (height + 1) * row
    padded = np.zeros((depth, height + 1, row), dtype=bool)
    padded[:, :height, 1:-1] = grid
    edges = np.flatnonzero(np.diff(padded.reshape(-1).view(np.int8))) + 1
    start, end = edges[0::2], edges[1::2]
    slack = int(connectivity != 4)
    shifts = (row,) if connectivity != 26 else (row, plane - row, plane, plane + row)

    runs = np.arange(start.size)
    src, dst = [], []
    for shift in shifts:
        lo = np.searchsorted(end, start - slack + shift, side="right")
        count = np.searchsorted(start, end + slack + shift, side="left") - lo
        src.append(np.repeat(runs, count))
        dst.append(np.arange(count.sum()) + np.repeat(lo - (np.cumsum(count) - count), count))
    src, dst = np.concatenate(src), np.concatenate(dst)

    # Union-find over runs: hook the root of each pair's larger side onto
    # the smaller root, then jump pointers until every run points at its
    # root, the first run of its component.
    root = runs.copy()
    while src.size:
        a, b = root[src], root[dst]
        link = a != b
        if not link.any():
            break
        src, dst, a, b = src[link], dst[link], a[link], b[link]
        low = np.minimum(a, b)
        np.minimum.at(root, a, low)
        np.minimum.at(root, b, low)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped

    first = root == runs
    number = np.cumsum(first, dtype=np.int32)
    labels = np.zeros(grid.shape, dtype=np.int32)
    labels[grid] = np.repeat(number[root], end - start)
    return labels, int(np.count_nonzero(first))


def _occupied_lines(voxels: np.ndarray, shape: tuple[int, int, int],
                    margin: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """Indices along each axis of a 3-D grid of the planes holding a set voxel.

    ``voxels`` are the flat indices of the grid's set voxels. Each axis
    keeps the planes within ``margin`` of a set one. Where an axis has a
    margin of one, the gathered grid ``grid[np.ix_(*lines)]`` keeps every
    neighbour of a set voxel along it next to that voxel, and set voxels
    meet only where they meet in ``grid``. A grid with no set voxel gives
    three empty index arrays.
    """
    z, rest = np.divmod(voxels, shape[1] * shape[2])
    lines = []
    for coords, size, m in zip((z, *np.divmod(rest, shape[2])), shape, margin):
        keep = np.zeros(size, dtype=bool)
        keep[coords] = True
        for _ in range(m):
            keep = dilate(keep, (0,))
        lines.append(np.flatnonzero(keep))
    return tuple(lines)


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
    masks: MaskVolume,
    vessel: ChannelId,
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> ComponentTable:
    """Centroid, contact pixels and contact span of every in-slice vessel component.

    The vessel's voxel index and both sub-grids come from ``masks``. Angles
    are taken in millimetres: the row offsets are scaled by the in-plane
    spacing ratio ``y_mm / x_mm``, which is exactly 1.0 on a square grid.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    if span_method not in SPAN_METHODS:
        raise ValueError(f"unknown span method {span_method!r}")
    masks.channel_index(ChannelId.TUMOR)  # a volume lacking both names the tumor
    lines = _occupied_lines(masks.voxels(vessel), masks.dims, (0, 1, 1))
    labels, n = label_components(masks.gather(vessel, lines), connectivity)
    near = dilate(masks.gather(ChannelId.TUMOR, lines), (-2, -1))
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

    row_mm = masks.spacing.y_mm / masks.spacing.x_mm  # in units of x_mm, as d_col is
    d_row = (contact[:, 1] - centroid[contact_label, 0]) * row_mm
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
    table = component_table(masks, vessel, connectivity, span_method)
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


def filter_critical_volume(masks: MaskVolume, mode: str = "voxel") -> MaskVolume:
    """Drop the artery and vein voxels, or whole 3-D components, overlapping the pancreas.

    voxel mode removes exactly the overlapping voxels; component mode
    removes every 26-connected vessel component that touches the pancreas.
    Everything is done on voxel indices: the pancreas is read first, and a
    ``searchsorted`` of each vessel's index in the pancreas index finds
    the overlap, which decides whether that vessel loses anything and, in
    voxel mode, which voxels survive. component mode labels the vessel
    gathered on the planes holding a vessel voxel, widened by one on every
    axis; the gathered grid keeps the raster order, so its labelled cells
    are the vessel's voxels in index order, and the survivors are those
    whose component holds no overlapping voxel. The result holds indices
    only: the surviving ones, and every other channel's index shared with
    ``masks``. It is ``masks`` itself if nothing is dropped.
    """
    if mode not in ("voxel", "component"):
        raise ValueError(f"unknown filter mode {mode!r}")
    pancreas = masks.voxels(ChannelId.PANCREAS)
    replaced = {}
    for cid in masks.channels:
        if cid not in VESSELS:
            continue
        voxels = masks.voxels(cid)
        inside = np.searchsorted(pancreas, voxels, "right") > np.searchsorted(pancreas, voxels)
        if not inside.any():
            continue
        if mode == "voxel":
            replaced[cid] = voxels[~inside]
            continue
        lines = _occupied_lines(voxels, masks.dims, (1, 1, 1))
        labeled, n = label_components(masks.gather(cid, lines), 26)
        component = labeled[labeled != 0]
        keep = np.ones(n + 1, dtype=bool)
        keep[component[inside]] = False
        replaced[cid] = voxels[keep[component]]
    if not replaced:
        return masks
    return MaskVolume.from_voxels(
        {cid: replaced[cid] if cid in replaced else masks.voxels(cid) for cid in masks.channels},
        masks.dims, masks.spacing,
    )


# DPCG cut points in degrees. Bucket 0 is exactly 0 degrees and bucket i
# holds the spans in (cut i-1, cut i]; bucket 3 holds those above 270.
DPCG_CUTS_DEG = (0.0, 90.0, 270.0)
# Grade per bucket: venous <=90 resectable, (90, 270] borderline, >270
# irresectable; arterial 0 resectable, (0, 90] borderline, >90 irresectable.
_R, _B, _I = DpcgCategory
_VENOUS_GRADES = (_R, _R, _B, _I)
_ARTERIAL_GRADES = (_R, _B, _I, _I)


def dpcg_bucket(deg: float) -> int:
    """The index of the DPCG bucket holding a contact angle in [0, 360]."""
    if not (0.0 <= deg <= 360.0):
        raise ValueError(f"degrees out of range [0, 360]: {deg}")
    return bisect_left(DPCG_CUTS_DEG, deg)


def dpcg_classify(vein_deg: float, artery_deg: float) -> DpcgCategory:
    """Grade resectability from maximum venous and arterial contact angles.

    The final grade is the worse of the venous and the arterial grade.
    """
    return max(_VENOUS_GRADES[dpcg_bucket(vein_deg)], _ARTERIAL_GRADES[dpcg_bucket(artery_deg)])
