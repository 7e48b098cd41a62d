"""Ensemble and probabilistic-sample statistics plus sigma-level sweeps.

Folds are the models of an ensemble; samples are the plausible outputs a
probabilistic model draws for one scan. Standard deviations are population
(divide by N) throughout: the fold/sample counts are tiny and fixed, so the
choice only rescales, and it is pinned by the unit tests.

* epistemic uncertainty: std of the per-fold mean predictions across folds
* aleatoric uncertainty: std across one fold's samples
* mean aleatoric: fold mean of the per-fold aleatoric stds
* total: mean aleatoric + epistemic (the displayed sum for probabilistic
  ensembles)

Sigma-level masks threshold clamp(mean + k * std, 0, 1) at 0.5 by default;
std >= 0 makes the masks nested in k.

Every mean, every std and every sigma mask is streamed over the flattened
volumes in blocks of ``_BLOCK`` voxels, so no float64 copy of a fold stack
or of a whole field is ever held; each float64 buffer holds one block
and stays in cache. Each block repeats, in float64, the exact operation
sequence of ``np.stack(volumes).mean(axis=0)`` and ``.std(axis=0)``:

1. the folds' blocks, upcast exactly from float32, are added in fold order
   into a buffer that starts at +0.0 (``np.add.reduce`` starts there, so a
   -0.0 voxel cannot flip a sign bit);
2. the sum is divided by N;
3. the squared deviations from that mean are added in fold order, again
   from +0.0;
4. that sum is divided by N and square-rooted;
5. both results are clipped into [0, 1] and cast to float32.

A block is one voxel range of every fold at once and never spans folds, so
each voxel meets the same operands in the same order as in the
whole-volume computation, and the outputs are byte-identical to it. The
masks likewise compute ``k * std + mean`` in float64 per block, then clip
and compare.

The summed std of ``sample_mean_std`` is the one whole-volume step: a
float32 add capped at 1. Both operands are float32 in [0, 1], and a
float64 sum rounded to float32 equals one float32 rounding of the exact
sum (53 >= 2 * 24 + 2), so it matches a float64 sum bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .involvement import DpcgCategory, InvolvementReport, assess_scan
from .volume import ChannelId, MaskVolume, ProbVolume

DEFAULT_KS = (-1.0, 0.0, 1.0, 2.0)


@dataclass(frozen=True)
class SampleSet:
    """Probability volumes sampled from one probabilistic model fold."""

    samples: tuple[ProbVolume, ...]

    def __post_init__(self):
        if len(self.samples) < 1:
            raise ValueError("sample set needs at least one sample")
        _check_same_geometry(self.samples)
        object.__setattr__(self, "samples", tuple(self.samples))

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class UncertaintyField:
    """Per-voxel mean prediction and standard deviation of one kind."""

    mean: ProbVolume
    std: ProbVolume
    kind: str  # epistemic | total

    def __post_init__(self):
        if self.mean.dims != self.std.dims or self.mean.channels != self.std.channels:
            raise ValueError("mean/std geometry mismatch")


def _check_same_geometry(volumes: Sequence[ProbVolume]):
    if len(volumes) == 0:
        raise ValueError("need at least one volume, got an empty sequence")
    first = volumes[0]
    for v in volumes[1:]:
        if v.dims != first.dims or v.channels != first.channels:
            raise ValueError("volumes must share dims and channels")
        if v.spacing.as_tuple() != first.spacing.as_tuple():
            raise ValueError("volumes must share spacing")


# Voxels per block: 256 KB per float64 buffer, so a handful of them stay in cache.
_BLOCK = 1 << 15


def _blocks(size: int):
    for lo in range(0, size, _BLOCK):
        yield slice(lo, min(lo + _BLOCK, size))


def _mean_std(volumes: Sequence[ProbVolume]) -> tuple[ProbVolume, ProbVolume]:
    """Clipped float32 mean and population std across volumes, streamed."""
    _check_same_geometry(volumes)
    flats = [v.data.reshape(-1) for v in volumes]
    n, size = len(flats), flats[0].size
    mean, std = np.empty(size, np.float32), np.empty(size, np.float32)
    width = min(size, _BLOCK)
    up, acc, sq = [np.empty(width) for _ in flats], np.empty(width), np.empty(width)
    for b in _blocks(size):
        k = b.stop - b.start
        xs, m, s = [x[:k] for x in up], acc[:k], sq[:k]
        for x, f in zip(xs, flats):
            x[...] = f[b]  # exact float32 -> float64 upcast
        m.fill(0.0)
        for x in xs:
            m += x
        m /= n
        s.fill(0.0)
        for x in xs:
            x -= m
            x *= x
            s += x
        s /= n
        np.sqrt(s, out=s)
        mean[b] = np.clip(m, 0.0, 1.0, out=m)
        std[b] = np.clip(s, 0.0, 1.0, out=s)
    like = volumes[0]
    return (
        ProbVolume(mean.reshape(like.data.shape), like.channels, like.spacing),
        ProbVolume(std.reshape(like.data.shape), like.channels, like.spacing),
    )


def fold_mean_std(folds: Sequence[ProbVolume]) -> UncertaintyField:
    """Mean prediction and epistemic std across deterministic model folds."""
    folds = list(folds)
    if len(folds) < 2:
        raise ValueError(f"need at least 2 folds for a std, got {len(folds)}")
    return UncertaintyField(*_mean_std(folds), "epistemic")


def sample_mean_std(folds: Sequence[SampleSet]) -> UncertaintyField:
    """Mean prediction with the summed (aleatoric + epistemic) std.

    Each fold's samples are streamed once, for that fold's mean and its
    aleatoric std. The mean prediction and the epistemic std come from the
    fold means; the aleatoric part is the fold mean of the aleatoric stds,
    which for a single fold is that fold's std alone.
    """
    folds = list(folds)
    per_fold = [_mean_std(f.samples) for f in folds]
    mean, epistemic = _mean_std([m for m, _ in per_fold])
    for f in folds:
        if len(f) < 2:
            raise ValueError(f"need at least 2 samples for a std, got {len(f)}")
    total = _mean_std([s for _, s in per_fold])[0]
    if len(folds) >= 2:
        summed = np.add(total.data, epistemic.data)
        np.minimum(summed, 1.0, out=summed)
        total = ProbVolume(summed, total.channels, total.spacing)
    return UncertaintyField(mean, total, "total")


def sigma_level_mask(f: UncertaintyField, k: float, threshold: float = 0.5) -> MaskVolume:
    """Binarize mean + k * std (clamped into [0, 1]) at the threshold."""
    k = float(k)
    mean, std = f.mean.data.reshape(-1), f.std.data.reshape(-1)
    mask = np.empty(mean.size, np.uint8)
    buf = np.empty(min(mean.size, _BLOCK))
    for b in _blocks(mean.size):
        adjusted = buf[: b.stop - b.start]
        # float64 named: a Python float times a float32 array stays float32 (NEP 50)
        np.multiply(std[b], k, out=adjusted, dtype=np.float64)
        np.add(adjusted, mean[b], out=adjusted)
        np.clip(adjusted, 0.0, 1.0, out=adjusted)
        np.greater_equal(adjusted, threshold, out=mask[b])
    return MaskVolume(mask.reshape(f.mean.data.shape), f.mean.channels, f.mean.spacing)


@dataclass(frozen=True)
class SweepEntry:
    k: float
    reports: dict[ChannelId, InvolvementReport]
    category: DpcgCategory


def uncertainty_sweep(
    f: UncertaintyField,
    ks: Sequence[float] = DEFAULT_KS,
    threshold: float = 0.5,
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> list[SweepEntry]:
    """Involvement and DPCG grade at every sigma step.

    Raises MissingChannelError (via the involvement module) when the field
    lacks the tumor, artery or vein channel.
    """
    return [
        SweepEntry(float(k), *assess_scan(sigma_level_mask(f, k, threshold), connectivity, span_method))
        for k in ks
    ]
