"""Metric suite: Dice, involvement confusion, sensitivity/specificity,
critical-vessel variants, R squared of maximum involvement and the DPCG
bucket table.

Evaluation is per scan. A scan contributes one confusion cell per vessel
kind: involvement presence anywhere in the prediction counts against
presence anywhere in the ground truth, even when the locations differ.
Scan-level presence is the OR of the artery and vein presences.

``build_metrics_report`` returns the body of the metrics document, with
its key order and its rounding (metrics to 4 decimals) fixed here; the
CLI only puts the schema, version and config echo in front of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import involvement as inv
from .volume import CHANNEL_NAMES, ChannelId, MaskVolume


def voxel_dice(pred_voxels: np.ndarray, gt_voxels: np.ndarray) -> float:
    """Counts-based Dice of two grids given as the sorted flat indices of their set voxels.

    2 |P & G| / (|P| + |G|), the intersection found by ``np.intersect1d``;
    both-empty is a perfect 1.0.
    """
    denom = pred_voxels.size + gt_voxels.size
    if denom == 0:
        return 1.0
    return 2.0 * np.intersect1d(pred_voxels, gt_voxels, assume_unique=True).size / denom


def involvement_confusion(pred_presence: bool, gt_presence: bool) -> str:
    """Presence-vs-presence cell key: "tp", "fp", "tn" or "fn".

    The location of the contact is irrelevant.
    """
    if pred_presence:
        return "tp" if gt_presence else "fp"
    return "fn" if gt_presence else "tn"


def sensitivity_specificity(counts: dict[str, int]) -> tuple[float | None, float | None]:
    """(sensitivity, specificity) of a ``{"tp", "fp", "tn", "fn"}`` counts dict.

    None marks an undefined (0-denominator) value.
    """
    tp, fp, tn, fn = (counts[key] for key in ("tp", "fp", "tn", "fn"))
    sens = tp / (tp + fn) if (tp + fn) > 0 else None
    spec = tn / (tn + fp) if (tn + fp) > 0 else None
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


# DPCG involvement bucket labels by ``involvement.dpcg_bucket`` index,
# mirroring the reporting table rows.
BUCKETS = ("0", "0 < deg <= 90", "90 < deg <= 270", "270 < deg")


def bucket_of(deg: float) -> str:
    return BUCKETS[inv.dpcg_bucket(deg)]


def dpcg_bucket_table(pairs: Sequence[tuple[float, float]]) -> list[dict]:
    """Per GT bucket: how many predictions landed in the same bucket.

    One ``{"bucket", "matched", "total"}`` row per bucket, in BUCKETS order.
    """
    rows = {label: {"bucket": label, "matched": 0, "total": 0} for label in BUCKETS}
    for gt_deg, pred_deg in pairs:
        row = rows[bucket_of(gt_deg)]
        row["total"] += 1
        if bucket_of(pred_deg) == row["bucket"]:
            row["matched"] += 1
    return list(rows.values())


def _geometry(v) -> str:
    """The dims and spacing of a volume or header, as an error message names them."""
    return f"{v.dims} at {v.spacing.as_tuple()} mm"


def check_geometry(pred, gt, gt_critical=None) -> None:
    """Raise ValueError naming both geometries unless ``gt`` and ``gt_critical`` have ``pred``'s.

    Each argument is anything with ``dims`` and ``spacing``: a volume, or
    the ``volume.Payload`` of its header, so a caller can refuse an entry
    before reading a voxel. ``gt_critical`` may be None. Geometries are
    compared as values: dims are Python ints and a ``Spacing`` holds
    floats, whichever side built them.
    """
    for name, other in (("ground truth", gt), ("critical ground truth", gt_critical)):
        if other is not None and (other.dims, other.spacing) != (pred.dims, pred.spacing):
            raise ValueError(
                f"geometry mismatch: prediction {_geometry(pred)}, {name} {_geometry(other)}")


@dataclass
class ScanEval:
    """Everything one scan contributes to the aggregate report."""

    scan_id: str
    fold: str | None
    dice_by_channel: dict[str, float]
    pred: dict[ChannelId, tuple[bool, float]]  # vessel -> (present, max_span_deg)
    gt: dict[ChannelId, tuple[bool, float]]


def evaluate_scan(
    pred: MaskVolume,
    gt: MaskVolume,
    scan_id: str = "scan",
    fold: str | None = None,
    gt_critical: MaskVolume | None = None,
    filter_mode: str = "voxel",
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> ScanEval:
    """Per-scan Dice and involvement facts for the aggregate metrics.

    Dice is taken on the channels' voxel indices (``voxel_dice``), the
    overlap Dice on the intersections of the tumor and vessel indices, so
    no grid is built.

    With ``gt_critical`` (critical mode) the predicted vessels are stripped
    of their pancreas overlap first and the ground-truth side switches to
    that critical-vessel aggregate volume (same tumor channel rules apply).

    ``gt`` and ``gt_critical`` must have the prediction's dims and
    spacing; before any score, ``check_geometry`` names both geometries.
    """
    check_geometry(pred, gt, gt_critical)
    dice_by_channel: dict[str, float] = {}
    for cid in pred.channels:
        if gt.has_channel(cid):
            dice_by_channel[CHANNEL_NAMES[cid]] = voxel_dice(pred.voxels(cid), gt.voxels(cid))
    for cid, key in ((ChannelId.ARTERY, "artery_overlap"), (ChannelId.VEIN, "vein_overlap")):
        if (
            pred.has_channel(ChannelId.TUMOR)
            and pred.has_channel(cid)
            and gt.has_channel(ChannelId.TUMOR)
            and gt.has_channel(cid)
        ):
            dice_by_channel[key] = voxel_dice(
                *(np.intersect1d(side.voxels(ChannelId.TUMOR), side.voxels(cid), assume_unique=True)
                  for side in (pred, gt))
            )

    pred_masks, gt_masks = pred, gt
    if gt_critical is not None:
        pred_masks, gt_masks = inv.filter_critical_volume(pred, filter_mode), gt_critical

    # Only the facts are kept, not the reports: a manifest would otherwise
    # hold every scan's component tables until the report is built.
    sides = []
    for masks in (pred_masks, gt_masks):
        reports, _ = inv.assess_scan(masks, connectivity, span_method)
        sides.append({vessel: (r.present, r.max_span_deg) for vessel, r in reports.items()})
    return ScanEval(scan_id, fold, dice_by_channel, *sides)


def _round(x: float | None) -> float | None:
    return None if x is None else round(float(x), 4)


def _rate(value: float | None, reason: str | None = None) -> dict:
    """A rate entry of the document; the reason explains a null value."""
    if value is None:
        return {"value": None, "reason": reason}
    return {"value": _round(value), "reason": None}


def _dice_stats(values: list[float], folds: list[str | None]) -> dict:
    arr = np.asarray(values, dtype=np.float64)
    std_fold = None
    labels = sorted({f for f in folds if f is not None})
    if len(labels) >= 2:
        means = [
            float(np.mean([v for v, f in zip(values, folds) if f == lab])) for lab in labels
        ]
        std_fold = float(np.std(means))
    return {
        "mean": _round(arr.mean()),
        "std_per_case": _round(arr.std()),
        "std_per_fold": _round(std_fold),
        "n": len(values),
    }


def build_metrics_report(evals: Sequence[ScanEval], failures: Sequence[str] = ()) -> dict:
    """The metrics document body: ``n_scans``, ``dice``, ``involvement``,
    ``r2_max_involvement``, ``dpcg_buckets`` and ``failures``, in that order.
    """
    dice_values: dict[str, list[float]] = {}
    dice_folds: dict[str, list[str | None]] = {}
    for ev in evals:
        for key, value in ev.dice_by_channel.items():
            dice_values.setdefault(key, []).append(value)
            dice_folds.setdefault(key, []).append(ev.fold)

    confusion = {key: {"tp": 0, "fp": 0, "tn": 0, "fn": 0} for key in ("artery", "vein", "scan")}
    for ev in evals:
        for vessel in inv.VESSELS:
            cell = involvement_confusion(ev.pred[vessel][0], ev.gt[vessel][0])
            confusion[CHANNEL_NAMES[vessel]][cell] += 1
        # scan level: either vessel involved counts as involvement
        scan_pred = any(present for present, _ in ev.pred.values())
        scan_gt = any(present for present, _ in ev.gt.values())
        confusion["scan"][involvement_confusion(scan_pred, scan_gt)] += 1
    involvement = {}
    for key, counts in confusion.items():
        sens, spec = sensitivity_specificity(counts)
        involvement[key] = {
            "confusion": counts,
            "sensitivity": _rate(sens, "tp+fn == 0"),
            "specificity": _rate(spec, "tn+fp == 0"),
        }

    r2 = {}
    buckets = {}
    for vessel in inv.VESSELS:
        key = CHANNEL_NAMES[vessel]
        gt_deg = [ev.gt[vessel][1] for ev in evals]
        pred_deg = [ev.pred[vessel][1] for ev in evals]
        buckets[key] = dpcg_bucket_table(list(zip(gt_deg, pred_deg)))
        try:
            r2[key] = _rate(r_squared(gt_deg, pred_deg))
        except ValueError as exc:
            r2[key] = _rate(None, str(exc))

    return {
        "n_scans": len(evals),
        "dice": {k: _dice_stats(v, dice_folds[k]) for k, v in sorted(dice_values.items())},
        "involvement": involvement,
        "r2_max_involvement": r2,
        "dpcg_buckets": buckets,
        "failures": list(failures),
    }
