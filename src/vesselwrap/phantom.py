"""Synthetic wrap scenes with analytic ground truth.

A scene is a vessel tube along z (a rasterized disk per slice) plus a tumor
hugging the vessel rim over a known angular span. The span recorded in the
truth is the exact analytic sector angle, making these scenes an
independent oracle for the involvement geometry.

Construction notes, because pixels are coarse at radius 8:

* The allowed contact window on the vessel is fixed analytically: vessel
  pixels whose centroid angle lies within half a pixel (in rim arc length)
  of the requested span. Tumor pixels are drawn from the annulus just
  outside the rim and only where their 8-neighbourhood stays clear of
  vessel pixels outside the window. One-pixel contact dilation therefore
  cannot push the measured arc beyond the window: overshoot is capped at
  the half-pixel allowance per side.
* Per-slice quantization can still underreport an arc end, so the tube
  axis wobbles sub-pixel from slice to slice (seeded); the scan maximum
  over the wobbled slices concentrates near the analytic span.

Angles use the same atan2 convention as the involvement module, so oracle
and measurement share one coordinate system.

One rasteriser and one channel fill build every scene. ``_scene_grids``
fills (slices, H, W) bool grids of the vessel, the tumor and the rim band
over ``slice_range``. It draws every slice's jitter in one call into an
(n, 2) array of tube centres, then draws slabs of whole slices at once,
only on the box of rows and columns within the tumor's reach of any
centre. A slab holds at most ``_SLAB_VOXELS`` box pixels, so no float64
temporary exceeds 1 MiB, and the cost follows the tube's box, not the
plane. ``_stack`` writes the grids and the pancreas disk into the six
channels (uint8 for a wrap scene; float32 per fold, with the fold's band
value written into the tumor grid). ``_has_band`` alone decides whether a
band exists (``band_extra_deg > 0`` and ``0 < wrap_span_deg < 360``), for
the rasteriser and the truth alike; the widened arc stops at 360 deg. The
confusion suite draws each case's three distinct scenes once, and its
four cases share those immutable volumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .involvement import DpcgCategory, dpcg_classify
from .uncertainty import DEFAULT_KS, DEFAULT_THRESHOLD
from .volume import ChannelId, MaskVolume, ProbVolume, Spacing, STANDARD_CHANNELS

# Half-pixel angular allowance of the contact window, in tangential pixels
# at the rim. Calibrated once against the involvement module over a dense
# (radius, span, orientation) grid; see the rasterization bound test.
ANGULAR_ALLOWANCE_PX = 0.5

DEFAULT_BAND_VALUES = (0.32, 0.40, 0.48)
WRAP_THICKNESS_PX = 2.5  # radial depth of the tumor rim
CONFUSION_CASES_PER_CELL = 5
# Box pixels per slab of ``_scene_grids``: 1 MiB per float64 temporary.
_SLAB_VOXELS = (1 << 20) // 8


@dataclass(frozen=True)
class PhantomSpec:
    """Parameters of one wrap scene."""

    dims: tuple[int, int, int] = (10, 128, 128)
    spacing: Spacing = Spacing(1.0, 1.0, 1.0)
    vessel_center: tuple[float, float] = (64.0, 64.0)  # (row, col)
    vessel_radius_px: float = 8.0
    wrap_center_deg: float = 90.0
    wrap_span_deg: float = 180.0
    slice_range: tuple[int, int] = (1, 9)  # z0 inclusive, z1 exclusive
    vessel_channel: ChannelId = ChannelId.VEIN
    axis_jitter_px: float = 0.5
    jitter_seed: int = 0
    pancreas_center: tuple[float, float] | None = None
    pancreas_radius_px: float = 0.0
    band_extra_deg: float = 0.0  # angular widening per side at high sigma
    band_values: tuple[float, ...] = DEFAULT_BAND_VALUES

    def __post_init__(self):
        if self.vessel_radius_px < 2.0:
            raise ValueError("vessel radius must be at least 2 px")
        if not (0.0 <= self.wrap_span_deg <= 360.0):
            raise ValueError("wrap span must lie in [0, 360]")
        z0, z1 = self.slice_range
        if not (0 <= z0 <= z1 <= self.dims[0]):
            raise ValueError("slice range outside the grid")
        reach = _reach(self)
        r, c = self.vessel_center
        if not (reach <= r <= self.dims[1] - 1 - reach and reach <= c <= self.dims[2] - 1 - reach):
            raise ValueError("tube (plus tumor rim) must sit fully inside the grid")
        if self.vessel_channel not in (ChannelId.ARTERY, ChannelId.VEIN):
            raise ValueError("vessel channel must be artery or vein")


def _reach(spec: PhantomSpec) -> float:
    """Distance from the tube axis beyond which a slice holds no vessel, tumor
    or band pixel and no pixel the contact dilation reads."""
    return spec.vessel_radius_px + WRAP_THICKNESS_PX + 2.0


@dataclass(frozen=True)
class PhantomTruth:
    """Analytic involvement facts for a scene."""

    max_span_deg: float
    present: bool
    category: DpcgCategory
    span_by_slice: dict[int, float] = field(default_factory=dict)


def _polar(rows: np.ndarray, cols: np.ndarray, centers: np.ndarray):
    """Radius (px) and atan2 angle (deg, in [0, 360)) of every pixel of the
    ``rows`` x ``cols`` grid about each of the (n, 2) row-col ``centers``:
    two (n, len(rows), len(cols)) float64 arrays, pixel for pixel the values
    a whole-plane grid holds at those rows and columns."""
    dr = rows[None, :, None] - centers[:, 0, None, None]
    dc = cols[None, None, :] - centers[:, 1, None, None]
    radius = np.hypot(dr, dc)
    theta = np.degrees(np.arctan2(-dr, np.broadcast_to(dc, radius.shape))) % 360.0
    return radius, theta


def _wrap_distance(theta: np.ndarray, center_deg: float) -> np.ndarray:
    return np.abs((theta - center_deg + 180.0) % 360.0 - 180.0)


def allowance_deg(radius_px: float) -> float:
    """Angular allowance of the contact window per side."""
    return math.degrees(math.asin(min(1.0, ANGULAR_ALLOWANCE_PX / radius_px)))


def dilate(grid: np.ndarray) -> np.ndarray:
    """In-plane 3x3 binary dilation of ``grid`` over its last two axes.

    A cell is set when it or one of its 8 in-plane neighbours is set;
    cells beyond the edges count as unset.
    """
    out = np.asarray(grid, dtype=bool)
    for axis in (-2, -1):
        src = np.moveaxis(out, axis, 0)
        grown = src.copy()
        grown[1:] |= src[:-1]
        grown[:-1] |= src[1:]
        out = np.moveaxis(grown, 0, axis)
    return out


def _sector_tumor(spec: PhantomSpec, vessel, radius, dist, span_deg: float) -> np.ndarray:
    """Annulus pixels that can only ever touch the allowed contact window."""
    if span_deg <= 0.0:
        return np.zeros_like(vessel)
    annulus = (~vessel) & (radius <= spec.vessel_radius_px + WRAP_THICKNESS_PX)
    if span_deg >= 360.0:
        return annulus
    half = span_deg / 2.0 + allowance_deg(spec.vessel_radius_px)
    target = vessel & (dist <= half)
    forbidden = vessel & (dist > half)
    return annulus & dilate(target) & ~dilate(forbidden)


def _has_band(spec: PhantomSpec) -> bool:
    """Whether the scene has a rim band: a widening of a wrap that is neither empty nor whole."""
    return spec.band_extra_deg > 0.0 and 0.0 < spec.wrap_span_deg < 360.0


def _widened_span(spec: PhantomSpec) -> float:
    """The span of the tumor plus its rim band, capped at the whole rim."""
    return min(spec.wrap_span_deg + 2.0 * spec.band_extra_deg, 360.0)


def _box(centers: np.ndarray, reach: float, size: int, axis: int) -> slice:
    """The grid indices on ``axis`` within ``reach`` of any centre, clipped to ``size``."""
    lo = math.floor(float(centers[:, axis].min()) - reach)
    hi = math.ceil(float(centers[:, axis].max()) + reach) + 1
    return slice(max(lo, 0), min(hi, size))


def _scene_grids(spec: PhantomSpec):
    """Bool (slices, H, W) grids of the vessel, tumor and band over ``slice_range``,
    plus the (H, W) pancreas disk.

    Every slice's tube centre is drawn up front, in one jitter draw that
    yields the stream of two uniforms per slice in turn. The grids are drawn
    only on the box that holds every pixel within the tumor's reach of any
    slice's centre, and stay False outside it. The box is drawn in slabs of
    whole slices, each at most ``_SLAB_VOXELS`` box pixels (and at least one
    slice), so no float64 temporary exceeds 1 MiB however large the tube.
    """
    z0, z1 = spec.slice_range
    n = z1 - z0
    vessel, tumor, band = np.zeros((3, n) + spec.dims[1:], dtype=bool)
    centers = np.broadcast_to(np.asarray(spec.vessel_center, dtype=np.float64), (n, 2))
    if spec.axis_jitter_px > 0.0:
        rng = np.random.default_rng(spec.jitter_seed)
        centers = centers + rng.uniform(-spec.axis_jitter_px, spec.axis_jitter_px, size=(n, 2))
    if n:
        reach = _reach(spec)
        box = tuple(_box(centers, reach, spec.dims[1 + axis], axis) for axis in (0, 1))
        rows, cols = (np.arange(b.start, b.stop, dtype=np.float64) for b in box)
        step = max(1, _SLAB_VOXELS // (rows.size * cols.size))
        for lo in range(0, n, step):
            slab = (slice(lo, lo + step),) + box
            radius, theta = _polar(rows, cols, centers[lo:lo + step])
            vessel[slab] = radius <= spec.vessel_radius_px
            dist = _wrap_distance(theta, spec.wrap_center_deg)
            tumor[slab] = _sector_tumor(spec, vessel[slab], radius, dist, spec.wrap_span_deg)
            if _has_band(spec):
                widened = _sector_tumor(spec, vessel[slab], radius, dist, _widened_span(spec))
                band[slab] = widened & ~tumor[slab]
    pancreas = np.zeros(spec.dims[1:], dtype=bool)
    if spec.pancreas_center is not None and spec.pancreas_radius_px > 0:
        plane = (np.arange(d, dtype=np.float64) for d in spec.dims[1:])
        p_radius, _ = _polar(*plane, np.asarray([spec.pancreas_center], dtype=np.float64))
        pancreas = p_radius[0] <= spec.pancreas_radius_px
    return vessel, tumor, band, pancreas


def _stack(spec: PhantomSpec, dtype, vessel, tumor, pancreas) -> np.ndarray:
    """The six-channel (C, Z, H, W) grid of ``dtype`` holding the scene's grids
    on ``slice_range`` and zeros elsewhere."""
    data = np.zeros((len(STANDARD_CHANNELS),) + spec.dims, dtype=dtype)
    z = slice(*spec.slice_range)
    for cid, grid in ((spec.vessel_channel, vessel), (ChannelId.TUMOR, tumor),
                      (ChannelId.PANCREAS, pancreas)):
        data[STANDARD_CHANNELS.index(cid), z] = grid
    return data


def _truth(spec: PhantomSpec, span: float) -> PhantomTruth:
    z0, z1 = spec.slice_range
    present = span > 0.0 and z1 > z0
    spans = {z: (span if present else 0.0) for z in range(z0, z1)}
    max_span = max(spans.values(), default=0.0)
    if spec.vessel_channel is ChannelId.VEIN:
        category = dpcg_classify(max_span, 0.0)
    else:
        category = dpcg_classify(0.0, max_span)
    return PhantomTruth(max_span, present, category, spans)


def gen_wrap_scene(spec: PhantomSpec) -> tuple[MaskVolume, PhantomTruth]:
    """Rasterize a wrap scene; truth carries the analytic span."""
    vessel, tumor, _, pancreas = _scene_grids(spec)
    data = _stack(spec, np.uint8, vessel, tumor, pancreas)
    return MaskVolume(data, STANDARD_CHANNELS, spec.spacing), _truth(spec, spec.wrap_span_deg)


def gen_uncertainty_scene(
    spec: PhantomSpec, ks: tuple[float, ...] = DEFAULT_KS
) -> tuple[list[ProbVolume], dict[float, PhantomTruth]]:
    """Fold probabilities differing only in a rim band, plus per-k truths.

    Certain voxels carry probability 1 in every fold; band voxels carry the
    per-fold band values. The expected span at each sigma step follows from
    whether clamp(mean + k*std, 0, 1) of the band values clears the
    sweep's DEFAULT_THRESHOLD: below it the scene involves the base span,
    above it the band widens the arc by band_extra_deg per side, up to the
    whole rim. A scene without a band (see ``_has_band``) keeps its base
    span at every k.
    """
    vessel, tumor, band, pancreas = _scene_grids(spec)
    folds = []
    for value in spec.band_values:
        data = _stack(spec, np.float32, vessel, tumor, pancreas)
        data[STANDARD_CHANNELS.index(ChannelId.TUMOR), slice(*spec.slice_range)][band] = value
        folds.append(ProbVolume(data, STANDARD_CHANNELS, spec.spacing))
    values = np.asarray(spec.band_values, dtype=np.float64)
    mean = float(values.mean())
    std = float(values.std())
    truths = {}
    for k in ks:
        band_on = _has_band(spec) and min(max(mean + k * std, 0.0), 1.0) >= DEFAULT_THRESHOLD
        truths[float(k)] = _truth(spec, _widened_span(spec) if band_on else spec.wrap_span_deg)
    return folds, truths


@dataclass(frozen=True)
class ConfusionCase:
    """A (prediction, ground truth) scene pair with its expected cell."""

    name: str
    vessel: ChannelId
    pred: MaskVolume
    gt: MaskVolume
    expected: str  # tp | fp | tn | fn


def gen_confusion_suite(seed: int = 0) -> list[ConfusionCase]:
    """Balanced seeded scene pairs inducing each confusion cell.

    TP pairs place the predicted contact at a different wrap angle than the
    ground truth, so presence matching must ignore location.
    """
    rng = np.random.default_rng(seed)
    base = PhantomSpec(dims=(6, 64, 64), vessel_center=(32.0, 32.0), slice_range=(1, 5))
    cases = []
    for i in range(CONFUSION_CASES_PER_CELL):
        vessel = ChannelId.VEIN if i % 2 == 0 else ChannelId.ARTERY
        radius = float(rng.integers(8, 13))
        span = float(rng.integers(60, 200))
        angle = float(rng.integers(0, 360))
        shifted = (angle + 90.0 + float(rng.integers(0, 90))) % 360.0
        touching = replace(
            base, vessel_channel=vessel, vessel_radius_px=radius,
            wrap_span_deg=span, wrap_center_deg=angle, jitter_seed=seed + i,
        )
        # each distinct scene is drawn once; the cases share its immutable volume
        scene = gen_wrap_scene(touching)[0]
        elsewhere = gen_wrap_scene(replace(touching, wrap_center_deg=shifted))[0]
        empty = gen_wrap_scene(replace(touching, wrap_span_deg=0.0))[0]
        for cell, pred, gt in (("tp", elsewhere, scene), ("fp", scene, empty),
                               ("tn", empty, empty), ("fn", empty, scene)):
            cases.append(ConfusionCase(f"{cell}_{i}", vessel, pred, gt, cell))
    return cases
