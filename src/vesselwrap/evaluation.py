"""Metric suite: Dice, involvement confusion, sensitivity/specificity,
critical-vessel variants, R squared of maximum involvement and the DPCG
bucket table.

Evaluation is per scan. A scan contributes one confusion cell per vessel
kind: involvement presence anywhere in the prediction counts against
presence anywhere in the ground truth, even when the locations differ.
Scan-level presence is the OR of the artery and vein presences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from . import involvement as inv
from .volume import CHANNEL_NAMES, ChannelId, MaskVolume


class ConfusionCell(Enum):
    TP = "tp"
    FP = "fp"
    TN = "tn"
    FN = "fn"


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def add(self, cell: ConfusionCell) -> None:
        setattr(self, cell.value, getattr(self, cell.value) + 1)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def as_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


def dice(pred, gt) -> float:
    """Counts-based Dice; both-empty is a perfect 1.0."""
    p = np.asarray(pred) > 0
    g = np.asarray(gt) > 0
    if p.shape != g.shape:
        raise ValueError(f"geometry mismatch: {p.shape} vs {g.shape}")
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / denom


def involvement_confusion(pred_presence: bool, gt_presence: bool) -> ConfusionCell:
    """Presence-vs-presence cell; location of the contact is irrelevant."""
    if pred_presence:
        return ConfusionCell.TP if gt_presence else ConfusionCell.FP
    return ConfusionCell.FN if gt_presence else ConfusionCell.TN


def scan_confusion(
    pred_artery: bool, pred_vein: bool, gt_artery: bool, gt_vein: bool
) -> ConfusionCell:
    """Scan-level cell: either vessel involved counts as involvement."""
    return involvement_confusion(pred_artery or pred_vein, gt_artery or gt_vein)


def sensitivity_specificity(c: ConfusionCounts) -> tuple[float | None, float | None]:
    """(sensitivity, specificity); None marks an undefined (0-denominator) value."""
    sens = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    spec = c.tn / (c.tn + c.fp) if (c.tn + c.fp) > 0 else None
    return sens, spec


def r_squared(gt_degrees: Sequence[float], pred_degrees: Sequence[float]) -> float:
    """Coefficient of determination of predicted vs ground-truth maxima."""
    y = np.asarray(gt_degrees, dtype=np.float64)
    yh = np.asarray(pred_degrees, dtype=np.float64)
    if y.shape != yh.shape or y.ndim != 1 or y.size < 2:
        raise ValueError("need two equal-length lists with at least 2 entries")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("ground-truth degrees are constant; R^2 undefined")
    ss_res = float(np.sum((y - yh) ** 2))
    return 1.0 - ss_res / ss_tot


# DPCG involvement buckets, mirroring the reporting table rows.
BUCKETS = (
    ("0", lambda d: d == 0.0),
    ("0 < deg <= 90", lambda d: 0.0 < d <= 90.0),
    ("90 < deg <= 270", lambda d: 90.0 < d <= 270.0),
    ("270 < deg", lambda d: d > 270.0),
)


def bucket_of(deg: float) -> str:
    for label, test in BUCKETS:
        if test(deg):
            return label
    raise ValueError(f"degrees out of range: {deg}")


@dataclass(frozen=True)
class BucketRow:
    bucket: str
    matched: int
    total: int


def dpcg_bucket_table(pairs: Sequence[tuple[float, float]]) -> list[BucketRow]:
    """Per GT bucket: how many predictions landed in the same bucket."""
    matched = {label: 0 for label, _ in BUCKETS}
    total = {label: 0 for label, _ in BUCKETS}
    for gt_deg, pred_deg in pairs:
        label = bucket_of(gt_deg)
        total[label] += 1
        if bucket_of(pred_deg) == label:
            matched[label] += 1
    return [BucketRow(label, matched[label], total[label]) for label, _ in BUCKETS]


@dataclass
class ScanEval:
    """Everything one scan contributes to the aggregate report."""

    scan_id: str
    fold: str | None
    dice_by_channel: dict[str, float]
    presence_pred: dict[ChannelId, bool]
    presence_gt: dict[ChannelId, bool]
    max_deg_pred: dict[ChannelId, float]
    max_deg_gt: dict[ChannelId, float]


def evaluate_scan(
    pred: MaskVolume,
    gt: MaskVolume,
    scan_id: str = "scan",
    fold: str | None = None,
    gt_critical: MaskVolume | None = None,
    critical: bool = False,
    filter_mode: str = "voxel",
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> ScanEval:
    """Per-scan Dice and involvement facts for the aggregate metrics.

    In critical mode the predicted vessels are stripped of their pancreas
    overlap first and the ground-truth side switches to the critical-vessel
    aggregate volume (same tumor channel rules apply there).
    """
    dice_by_channel: dict[str, float] = {}
    for cid in pred.channels:
        if gt.has_channel(cid):
            dice_by_channel[cid.name.lower()] = dice(pred.channel(cid), gt.channel(cid))
    for cid, key in ((ChannelId.ARTERY, "artery_overlap"), (ChannelId.VEIN, "vein_overlap")):
        if (
            pred.has_channel(ChannelId.TUMOR)
            and pred.has_channel(cid)
            and gt.has_channel(ChannelId.TUMOR)
            and gt.has_channel(cid)
        ):
            dice_by_channel[key] = dice(
                pred.channel(ChannelId.TUMOR) & pred.channel(cid),
                gt.channel(ChannelId.TUMOR) & gt.channel(cid),
            )

    pred_masks = pred
    gt_masks = gt
    if critical:
        pred_masks = inv.filter_critical_volume(pred, filter_mode)
        if gt_critical is None:
            raise ValueError("critical evaluation needs the GT critical-aggregate volume")
        gt_masks = gt_critical

    presence_pred: dict[ChannelId, bool] = {}
    presence_gt: dict[ChannelId, bool] = {}
    max_deg_pred: dict[ChannelId, float] = {}
    max_deg_gt: dict[ChannelId, float] = {}
    for vessel in inv.VESSELS:
        rp = inv.scan_involvement(pred_masks, vessel, connectivity, span_method)
        rg = inv.scan_involvement(gt_masks, vessel, connectivity, span_method)
        presence_pred[vessel] = rp.present
        presence_gt[vessel] = rg.present
        max_deg_pred[vessel] = rp.max_span_deg
        max_deg_gt[vessel] = rg.max_span_deg

    return ScanEval(
        scan_id, fold, dice_by_channel, presence_pred, presence_gt, max_deg_pred, max_deg_gt
    )


@dataclass
class DiceStats:
    mean: float
    std_per_case: float
    std_per_fold: float | None
    n: int


@dataclass
class MetricsReport:
    """Aggregate over a manifest of scans."""

    n_scans: int
    dice: dict[str, DiceStats]
    confusion: dict[str, ConfusionCounts]  # keys: artery, vein, scan
    sensitivity: dict[str, float | None]
    specificity: dict[str, float | None]
    r2: dict[str, float | None]
    r2_reason: dict[str, str | None]
    buckets: dict[str, list[BucketRow]]
    failures: list[str] = field(default_factory=list)


def _dice_stats(values: list[float], folds: list[str | None]) -> DiceStats:
    arr = np.asarray(values, dtype=np.float64)
    std_fold = None
    labels = sorted({f for f in folds if f is not None})
    if len(labels) >= 2:
        means = [
            float(np.mean([v for v, f in zip(values, folds) if f == lab])) for lab in labels
        ]
        std_fold = float(np.std(means))
    return DiceStats(float(arr.mean()), float(arr.std()), std_fold, len(values))


def build_metrics_report(evals: Sequence[ScanEval], failures: Sequence[str] = ()) -> MetricsReport:
    """Merge per-scan facts into the full metric suite."""
    dice_values: dict[str, list[float]] = {}
    dice_folds: dict[str, list[str | None]] = {}
    for ev in evals:
        for key, value in ev.dice_by_channel.items():
            dice_values.setdefault(key, []).append(value)
            dice_folds.setdefault(key, []).append(ev.fold)
    dice_stats = {k: _dice_stats(v, dice_folds[k]) for k, v in sorted(dice_values.items())}

    confusion = {"artery": ConfusionCounts(), "vein": ConfusionCounts(), "scan": ConfusionCounts()}
    for ev in evals:
        for vessel in inv.VESSELS:
            confusion[CHANNEL_NAMES[vessel]].add(
                involvement_confusion(ev.presence_pred[vessel], ev.presence_gt[vessel])
            )
        confusion["scan"].add(
            scan_confusion(
                ev.presence_pred[ChannelId.ARTERY],
                ev.presence_pred[ChannelId.VEIN],
                ev.presence_gt[ChannelId.ARTERY],
                ev.presence_gt[ChannelId.VEIN],
            )
        )

    sensitivity = {}
    specificity = {}
    for key, counts in confusion.items():
        sens, spec = sensitivity_specificity(counts)
        sensitivity[key] = sens
        specificity[key] = spec

    r2 = {}
    r2_reason = {}
    buckets = {}
    for vessel in inv.VESSELS:
        key = CHANNEL_NAMES[vessel]
        pairs = [(ev.max_deg_gt[vessel], ev.max_deg_pred[vessel]) for ev in evals]
        buckets[key] = dpcg_bucket_table(pairs)
        gt_deg = [p[0] for p in pairs]
        pred_deg = [p[1] for p in pairs]
        try:
            r2[key] = r_squared(gt_deg, pred_deg)
            r2_reason[key] = None
        except ValueError as exc:
            r2[key] = None
            r2_reason[key] = str(exc)

    return MetricsReport(
        n_scans=len(evals),
        dice=dice_stats,
        confusion=confusion,
        sensitivity=sensitivity,
        specificity=specificity,
        r2=r2,
        r2_reason=r2_reason,
        buckets=buckets,
        failures=list(failures),
    )
