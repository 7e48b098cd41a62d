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
of a scan at once. It works on the voxel indices of the vessel and the
tumor (``MaskVolume.voxels``), never on a grid, so its work follows the
runs of set voxels, not the distance between them:

1. move both indices into the grid padded with a zero column after each
   row and a zero row after each slice; every run of consecutive indices
   then lies inside one row, and one ``np.diff`` finds the runs;
2. label the vessel's runs once with the run labeller
   ``label_components``: two ``searchsorted`` calls pair the runs that
   touch in the next row of the same slice, and a union-find merges the
   pairs. Components never join across slices, and they are numbered by
   their first run, so the label order is (slice, first pixel in raster
   order), the order reports list them in;
3. find contact from the tumor's runs (``in_contact``): each is widened by
   one column and copied onto the row above and the row below, which
   covers the tumor's 3x3 in-plane dilation, and the padding keeps them
   off the next row and the next slice. Sorted by start, with a running
   maximum of their ends, one ``searchsorted`` of the vessel's padded
   index tells which vessel voxels they cover;
4. take centroids from ``np.bincount`` sums of voxel coordinates and the
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
        return self.name.lower()


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
    table: ComponentTable | None = field(compare=False, repr=False)  # None in a sweep


def _padded(voxels: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Flat indices into a ``dims`` grid, moved into that grid padded with zeros.

    The padding is a zero column after each row and a zero row after each
    slice.
    """
    height, width = dims[1:]
    rows = voxels // width  # z * height + row
    padded = rows // height
    padded *= width + 1
    padded += rows
    padded += voxels
    return padded


def _runs(padded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and ends (one past the last value) of the runs of consecutive values in ``padded``."""
    bound = np.flatnonzero(np.diff(padded, prepend=-2, append=-2) != 1)
    return padded[bound[:-1]], padded[bound[1:] - 1] + 1


def label_components(voxels: np.ndarray, dims: tuple[int, int, int],
                     connectivity: int) -> tuple[np.ndarray, int]:
    """Connected components of the set voxels of a 3-D grid, as ``(labels, n)``.

    ``voxels`` are the sorted flat indices of the set voxels of a grid of
    shape ``dims``, and ``labels`` holds the int32 label of each, in index
    order. ``connectivity`` 4 or 8 joins voxels within a slice only,
    through their edges or also their corners; 26 joins every voxel of the
    3x3x3 neighbourhood. Labels 1..n are numbered in the raster order of
    each component's first voxel.

    The indices are moved into the grid padded with a zero column after
    each row and a zero row after each slice (``_padded``). Every run of
    consecutive indices then starts and ends inside one row, so one
    ``np.diff`` finds them all. A run touches runs of a later row where the
    column intervals overlap, widened by one column for corner contact;
    shifted by that row's flat offset, the candidates are one contiguous
    range of runs found with two ``searchsorted`` calls. The zero row
    after each slice means a shift past a slice's last row lands on an
    empty row, never on the next slice.
    """
    if connectivity not in (4, 8, 26):
        raise ValueError(f"connectivity must be 4, 8 or 26, got {connectivity}")
    start, end = _runs(_padded(voxels, dims))
    row = dims[2] + 1
    plane = (dims[1] + 1) * row
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
    return np.repeat(number[root], end - start), int(np.count_nonzero(first))


def in_contact(vessel: np.ndarray, tumor: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Per vessel voxel: is it a tumor voxel, or an in-slice 8-neighbour of one.

    Both are sorted flat indices into ``dims``. Each run of the padded
    tumor index (see ``label_components``) is widened by one column and
    copied onto the row above and the row below; these runs cover exactly
    the 3x3 in-plane dilation of the tumor, and the zero column and zero
    row of the padding keep them off the next row and the next slice.
    Sorted by start, the runs cover a voxel where the running maximum of
    the ends of the runs starting at or before it lies beyond it, so one
    ``searchsorted`` of the padded vessel index finds the covered voxels.
    """
    start, end = _runs(_padded(tumor, dims))
    row = dims[2] + 1
    start = np.concatenate([start - 1 + shift for shift in (-row, 0, row)])
    end = np.concatenate([end + 1 + shift for shift in (-row, 0, row)])
    order = np.argsort(start, kind="stable")
    # reach[i]: the furthest end of the first i runs by start
    reach = np.concatenate(([-1], np.maximum.accumulate(end[order])))
    vessel = _padded(vessel, dims)
    return reach[np.searchsorted(start[order], vessel, side="right")] > vessel


def _coordinates(voxels: np.ndarray, dims: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    """The (z, row, col) of flat indices into ``dims``, one array per axis."""
    rows, col = np.divmod(voxels, dims[2])
    return (*np.divmod(rows, dims[1]), col)


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


def _components(voxels: np.ndarray, label: np.ndarray, n: int,
                dims: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The slice and the mean (row, col) of each of ``n`` in-slice components.

    ``label`` holds the component, 0..n-1, of each voxel of the flat index ``voxels``.
    """
    z_of, row, col = _coordinates(voxels, dims)
    size = np.bincount(label, minlength=n)
    centroid = np.stack([np.bincount(label, row, n) / size, np.bincount(label, col, n) / size], axis=1)
    z = np.empty(n, np.intp)
    z[label] = z_of  # every voxel of a component lies on its slice
    return z, centroid


def component_table(
    masks: MaskVolume,
    vessel: ChannelId,
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> ComponentTable:
    """Centroid, contact pixels and contact span of every in-slice vessel component.

    The vessel's and the tumor's voxel indices come from ``masks``. Angles
    are taken in millimetres: the row offsets are scaled by the in-plane
    spacing ratio ``y_mm / x_mm``, which is exactly 1.0 on a square grid.
    """
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")
    if span_method not in SPAN_METHODS:
        raise ValueError(f"unknown span method {span_method!r}")
    tumor = masks.voxels(ChannelId.TUMOR)  # a volume lacking both names the tumor
    voxels = masks.voxels(vessel)
    label, n = label_components(voxels, masks.dims, connectivity)
    label -= 1
    hit = in_contact(voxels, tumor, masks.dims)
    z, centroid = _components(voxels, label, n, masks.dims)

    contact_label = label[hit]
    order = np.argsort(contact_label, kind="stable")
    contact = np.stack(_coordinates(voxels[hit][order], masks.dims), axis=1)
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
    voxel mode, which voxels survive. component mode labels the vessel's
    index with 26-connectivity (``label_components``), and the survivors
    are the voxels whose component holds no overlapping voxel. The result
    holds indices only: the surviving ones, and every other channel's
    index shared with ``masks``. It is ``masks`` itself if nothing is
    dropped.
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
        component, n = label_components(voxels, masks.dims, 26)
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
