"""Numerical kernels for the segmentation training objectives.

Tensors are plain numpy arrays of shape (C, Z, H, W): predictions hold
sigmoid probabilities, targets hold {0, 1}. Everything here is a pure
value/gradient pair; no training happens in this package.

Definitions:

* bce(p, q)            mean over all elements of -(q ln p + (1-q) ln(1-p)),
                       p clamped to [1e-7, 1 - 1e-7] before the logs
* soft_dice_loss(p, q) channel mean of 1 - (2 sum(pq) + s) / (sum p + sum q + s),
                       s = 1e-5, sums over the spatial axes
* pseudo overlap       alpha = tumor * artery, nu = tumor * vein, element-wise,
                       built the same way from targets and from predictions
* overlap_loss         bce(alpha_hat, alpha) + bce(nu_hat, nu)
* combined_loss        alpha_w * [beta * bce + (1 - beta) * dice]
                       + (1 - alpha_w) * overlap_loss, defaults (0.5, 0.8)

The weight named alpha in the combined objective is called ``alpha_w`` here
to keep it apart from the pseudo overlap label alpha.

``gradcheck`` compares each analytic gradient with central differences in
a fixed number of O(N) probes (16 +-1 directions, plus single elements at
each channel's largest |g| and at 64 evenly spaced indices), so it runs in
linear time and takes tensors of any size. Its errors are scaled by
``||g||_2`` and ``||g||_inf``, floored at 1e-6, so a relative fault in the
gradient reads at about its own size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .volume import STANDARD_CHANNELS, ChannelId, find_channel

CLAMP_EPS = 1e-7
DICE_SMOOTH = 1e-5
GRADCHECK_STEP = 1e-4
GRADCHECK_MARGIN = 1e-3
GRADCHECK_DIRECTIONS = 16
GRADCHECK_COORDINATES = 64
GRADCHECK_FLOOR = 1e-6


@dataclass(frozen=True)
class LossWeights:
    """Mixing weights: beta between BCE and Dice, alpha_w main vs overlap."""

    beta: float = 0.5
    alpha_w: float = 0.8

    def __post_init__(self):
        if not (0.0 <= self.beta <= 1.0 and 0.0 <= self.alpha_w <= 1.0):
            raise ValueError(f"weights must lie in [0, 1]: beta={self.beta}, alpha_w={self.alpha_w}")


def _check_pair(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"tensor dims mismatch: {p.shape} vs {q.shape}")
    return p, q


def _check_binary(q: np.ndarray):
    if not np.isin(q, (0.0, 1.0)).all():
        raise ValueError("target tensor must be binary")


def bce(p, q) -> float:
    """Mean element-wise binary cross-entropy with clamped predictions."""
    p, q = _check_pair(p, q)
    _check_binary(q)
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    return float(np.mean(-(q * np.log(pc) + (1.0 - q) * np.log1p(-pc))))


def bce_grad(p, q) -> np.ndarray:
    p, q = _check_pair(p, q)
    pc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS)
    g = (-q / pc + (1.0 - q) / (1.0 - pc)) / p.size
    g[(p < CLAMP_EPS) | (p > 1.0 - CLAMP_EPS)] = 0.0  # clamp plateau
    return g


def _dice_sums(p: np.ndarray, q: np.ndarray):
    axes = tuple(range(1, p.ndim))
    num = 2.0 * np.sum(p * q, axis=axes) + DICE_SMOOTH
    den = np.sum(p, axis=axes) + np.sum(q, axis=axes) + DICE_SMOOTH
    return num, den


def soft_dice_loss(p, q) -> float:
    """Per-channel smoothed soft Dice loss, averaged over channels."""
    p, q = _check_pair(p, q)
    num, den = _dice_sums(p, q)
    return float(np.mean(1.0 - num / den))


def soft_dice_grad(p, q) -> np.ndarray:
    p, q = _check_pair(p, q)
    num, den = _dice_sums(p, q)
    nC = p.shape[0]
    shape = (nC,) + (1,) * (p.ndim - 1)
    num = num.reshape(shape)
    den = den.reshape(shape)
    return -(2.0 * q * den - num) / (den * den) / nC


def pseudo_overlap(tumor, artery, vein):
    """Pseudo overlap grids: (tumor*artery, tumor*vein), element-wise."""
    t = np.asarray(tumor, dtype=np.float64)
    a = np.asarray(artery, dtype=np.float64)
    v = np.asarray(vein, dtype=np.float64)
    if not (t.shape == a.shape == v.shape):
        raise ValueError("tumor/artery/vein dims mismatch")
    return t * a, t * v


def _tav_indices(channels) -> tuple[int, int, int]:
    """The places of the tumor, artery and vein in ``channels``; ``find_channel`` names a missing one."""
    channels = tuple(map(ChannelId, channels))
    return tuple(find_channel(channels, cid) for cid in (ChannelId.TUMOR, ChannelId.ARTERY, ChannelId.VEIN))


def overlap_loss(pred, gt, channels=STANDARD_CHANNELS) -> float:
    """BCE of predicted vs target pseudo overlap labels, artery + vein terms."""
    pred, gt = _check_pair(pred, gt)
    ti, ai, vi = _tav_indices(channels)
    alpha_hat, nu_hat = pseudo_overlap(pred[ti], pred[ai], pred[vi])
    alpha, nu = pseudo_overlap(gt[ti], gt[ai], gt[vi])
    return bce(alpha_hat, alpha) + bce(nu_hat, nu)


def overlap_grad(pred, gt, channels=STANDARD_CHANNELS) -> np.ndarray:
    pred, gt = _check_pair(pred, gt)
    ti, ai, vi = _tav_indices(channels)
    t, a, v = pred[ti], pred[ai], pred[vi]
    alpha, nu = pseudo_overlap(gt[ti], gt[ai], gt[vi])
    d_alpha = bce_grad(t * a, alpha)
    d_nu = bce_grad(t * v, nu)
    g = np.zeros_like(pred)
    g[ti] = d_alpha * a + d_nu * v
    g[ai] = d_alpha * t
    g[vi] = d_nu * t
    return g


def combined_loss(pred, gt, weights: LossWeights = LossWeights(), channels=STANDARD_CHANNELS) -> float:
    """Weighted blend of BCE, soft Dice and the overlap term."""
    main = weights.beta * bce(pred, gt) + (1.0 - weights.beta) * soft_dice_loss(pred, gt)
    return weights.alpha_w * main + (1.0 - weights.alpha_w) * overlap_loss(pred, gt, channels)


def combined_grad(pred, gt, weights: LossWeights = LossWeights(), channels=STANDARD_CHANNELS) -> np.ndarray:
    main = weights.beta * bce_grad(pred, gt) + (1.0 - weights.beta) * soft_dice_grad(pred, gt)
    return weights.alpha_w * main + (1.0 - weights.alpha_w) * overlap_grad(pred, gt, channels)


def _sign_bits(n: int) -> np.ndarray:
    """One splitmix64 hash of each flat index; bit j gives direction j's sign."""
    z = np.arange(n, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def gradcheck(value_fn, grad_fn, pred, *args) -> float:
    """Max relative error of the analytic gradient g against central differences.

    Two probe sets, each a fixed number of O(N) loss evaluations:

    * ``GRADCHECK_DIRECTIONS`` fixed +-1 directions d (bits of a hash of the
      flat index): error ``|g.d - fd| / max(||g||_2, GRADCHECK_FLOOR)``, where
      fd = (L(p + h d) - L(p - h d)) / 2h, h = GRADCHECK_STEP. With +-1
      entries this is ``|g.d - fd| / (||g|| ||d|| / sqrt(N))``, so a
      relative fault in g reads at its own size.
    * single-element central differences on each channel's largest-|g|
      element and ``GRADCHECK_COORDINATES`` evenly spaced flat indices:
      error ``|g_i - fd_i| / max(||g||_inf, GRADCHECK_FLOOR)``.

    The floor keeps a zero gradient of a constant loss at 0. The prediction
    must sit strictly inside the clamp region with margin 1e-3 so the losses
    are differentiable at every probed point.
    """
    pred = np.asarray(pred, dtype=np.float64)
    lo, hi = CLAMP_EPS + GRADCHECK_MARGIN, 1.0 - CLAMP_EPS - GRADCHECK_MARGIN
    if pred.min() < lo or pred.max() > hi:
        raise ValueError("prediction entries too close to the clamp boundary for gradcheck")
    g = np.asarray(grad_fn(pred, *args), dtype=np.float64).ravel()
    flat = pred.ravel()

    def central(delta):
        up = value_fn((flat + delta).reshape(pred.shape), *args)
        down = value_fn((flat - delta).reshape(pred.shape), *args)
        return (up - down) / (2.0 * GRADCHECK_STEP)

    worst = 0.0
    norm = max(float(np.sqrt(g @ g)), GRADCHECK_FLOOR)
    bits = _sign_bits(flat.size)
    for j in range(GRADCHECK_DIRECTIONS):
        d = 1.0 - 2.0 * ((bits >> np.uint64(j)) & np.uint64(1)).astype(np.float64)
        worst = max(worst, abs(float(g @ d) - central(GRADCHECK_STEP * d)) / norm)

    mag = np.abs(g)
    peak = max(float(mag.max()), GRADCHECK_FLOOR)
    per_channel = mag.reshape(pred.shape[0], -1)
    peaks = per_channel.argmax(axis=1) + per_channel.shape[1] * np.arange(pred.shape[0])
    spread = np.linspace(0, flat.size - 1, GRADCHECK_COORDINATES).astype(np.intp)
    delta = np.zeros_like(flat)
    # A set, not np.unique: np.unique imports numpy.ma, about 2 MB per process.
    for i in sorted({*peaks.tolist(), *spread.tolist()}):
        delta[i] = GRADCHECK_STEP
        worst = max(worst, abs(g[i] - central(delta)) / peak)
        delta[i] = 0.0
    return worst


# name -> (value_fn, grad_fn); both take (pred, gt, *extra args)
LOSS_FUNCTIONS = {
    "bce": (bce, bce_grad),
    "dice": (soft_dice_loss, soft_dice_grad),
    "overlap": (overlap_loss, overlap_grad),
    "combined": (combined_loss, combined_grad),
}


def gradcheck_loss(
    name: str,
    pred,
    gt,
    weights: LossWeights = LossWeights(),
    channels=STANDARD_CHANNELS,
) -> float:
    """gradcheck() for a named loss on a (pred, gt) pair."""
    if name not in LOSS_FUNCTIONS:
        raise ValueError(f"unknown loss {name!r}")
    value_fn, grad_fn = LOSS_FUNCTIONS[name]
    extra = {"overlap": (channels,), "combined": (weights, channels)}.get(name, ())
    return gradcheck(value_fn, grad_fn, pred, gt, *extra)
