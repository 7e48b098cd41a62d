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

Sigma-level masks threshold clamp(mean + k * std, 0, 1) at DEFAULT_THRESHOLD (0.5).

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
5. both results are rounded to float32.

The reference also clips both results into [0, 1], a provable no-op.
Inputs lie in [0, 1] or are -0.0, and rounding is monotone, so a sum of
N inputs rounds to at most N, the mean to at most 1, each squared
deviation to at most 1 and the std to at most sqrt(1) = 1; nothing is
negative.

A block is one voxel range of every fold at once and never spans folds, so
each voxel meets the same operands in the same order as in the
whole-volume computation, and the outputs are byte-identical to it. The
masks likewise compute ``k * std + mean`` in float64 per block, then clip
and compare.

A fold or sample is an in-memory ``ProbVolume`` or a probability payload
on disk (``volume.Payload``). A payload is read straight into the
statistics, one ``PROB_CHUNK`` of voxels at a time (``prob_chunks``), and
its file is open only during its own pass, so no fold is held whole. An
in-memory volume is cut into the same chunks, and the blocks run inside
each chunk, so both kinds feed one loop. The chunked read keeps the
outputs byte-identical to reading each payload whole and then streaming:

* the clip into [0, 1] is elementwise, so clipping a chunk gives the
  same bits as clipping the whole payload;
* the running min and max, started at 0.0 and taken chunk after chunk,
  equal the whole payload's ``min(initial=0.0)`` and ``max(initial=0.0)``,
  since min and max are associative and a NaN propagates through both;
  so a payload is rejected exactly when a whole read rejects it, after
  its last chunk, with the same min and max in the message (a zero
  bound prints as 0.0, whichever zero the reduction kept). A member
  raises at the end of its pass, before a result exists, so nothing has
  been written.

A sweep masks only tumor, artery and vein, the channels the grade reads,
and builds every k's mask from one level grid per channel. The masks are
nested in k: for finite k and std >= 0, ``k * std`` and each later step
round monotonically, so a voxel held at some k is held at every larger k.
So one dense pass tests the largest k, the smaller ks are tested only at
the voxels of each block that pass it, and the grid records how many
distinct ks, counted from the top, hold each voxel. The result is exactly
``sigma_level_mask`` per k; a non-finite k is rejected, because inf * 0
is NaN and would break the nesting.

The summed std of ``sample_mean_std`` is the one whole-volume step: a
float32 add capped at 1. Both operands are float32 in [0, 1], and a
float64 sum rounded to float32 equals one float32 rounding of the exact
sum (53 >= 2 * 24 + 2), so it matches a float64 sum bit for bit.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .involvement import GRADED_CHANNELS, DpcgCategory, InvolvementReport, assess_scan
from .volume import PROB_CHUNK, ChannelId, MaskVolume, Payload, ProbVolume, prob_chunks

DEFAULT_KS = (-1.0, 0.0, 1.0, 2.0)
DEFAULT_THRESHOLD = 0.5

# A fold or sample: an in-memory volume, or an f32 payload streamed from its file.
Member = ProbVolume | Payload


@dataclass(frozen=True)
class SampleSet:
    """Probability volumes, or their payloads, sampled from one probabilistic model fold."""

    samples: tuple[Member, ...]

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


def _check_same_geometry(volumes: Sequence[Member]):
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


def _chunks(member: Member):
    """A member's voxels in order, ``PROB_CHUNK`` at a time.

    Views of an in-memory volume, or a payload read chunk by chunk (``prob_chunks``).
    """
    if isinstance(member, ProbVolume):
        flat = member.data.reshape(-1)
        return (flat[lo:lo + PROB_CHUNK] for lo in range(0, flat.size, PROB_CHUNK))
    return prob_chunks(member)


def _mean_std(volumes: Sequence[Member]) -> tuple[ProbVolume, ProbVolume]:
    """Float32 mean and population std across volumes, streamed.

    Each member is an in-memory volume or a probability payload; a
    payload is read once, a chunk at a time, and its file is open only
    during this pass. A payload's range check runs after its last chunk,
    in member order, before anything is returned.

    Neither result is clipped: both already lie in [0, 1] (see the module
    docstring). Both sums start at +0.0, because a clip keeps -0.0, and a
    voxel that is -0.0 in every fold must still give +0.0.
    """
    _check_same_geometry(volumes)
    like, n = volumes[0], len(volumes)
    shape = (len(like.channels), *like.dims)
    size = math.prod(shape)
    mean, std = np.empty(size, np.float32), np.empty(size, np.float32)
    width = min(size, _BLOCK)
    up, acc, sq = [np.empty(width) for _ in volumes], np.empty(width), np.empty(width)
    with contextlib.ExitStack() as opened:
        readers = [opened.enter_context(contextlib.closing(_chunks(v))) for v in volumes]
        for start in range(0, size, PROB_CHUNK):
            parts = [next(r) for r in readers]
            for b in _blocks(parts[0].size):
                k = b.stop - b.start
                xs, m, s = [x[:k] for x in up], acc[:k], sq[:k]
                for x, part in zip(xs, parts):
                    x[...] = part[b]  # exact float32 -> float64 upcast
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
                out = slice(start + b.start, start + b.stop)
                mean[out] = m
                np.sqrt(s, out=std[out], casting="same_kind")
        for r in readers:
            next(r, None)  # runs a payload's range check
    return (
        ProbVolume(mean.reshape(shape), like.channels, like.spacing),
        ProbVolume(std.reshape(shape), like.channels, like.spacing),
    )


def fold_mean_std(folds: Sequence[Member]) -> UncertaintyField:
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
    which for a single fold is that fold's std alone. The folds' geometry
    and sample counts are checked before any statistic is computed, and a
    fold's sample payloads are open only during that fold's pass.
    """
    folds = list(folds)
    _check_same_geometry([f.samples[0] for f in folds])
    for f in folds:
        if len(f) < 2:
            raise ValueError(f"need at least 2 samples for a std, got {len(f)}")
    per_fold = [_mean_std(f.samples) for f in folds]
    mean, epistemic = _mean_std([m for m, _ in per_fold])
    total = _mean_std([s for _, s in per_fold])[0]
    if len(folds) >= 2:
        summed = np.add(total.data, epistemic.data)
        np.minimum(summed, 1.0, out=summed)
        total = ProbVolume(summed, total.channels, total.spacing)
    return UncertaintyField(mean, total, "total")


def _adjusted(std: np.ndarray, mean: np.ndarray, k: float, out: np.ndarray) -> np.ndarray:
    """clip(k * std + mean, 0, 1) in float64, written into ``out``."""
    # float64 named: a Python float times a float32 array stays float32 (NEP 50)
    np.multiply(std, k, out=out, dtype=np.float64)
    np.add(out, mean, out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def _level_grid(
    mean: np.ndarray, std: np.ndarray, ks: Sequence[float], threshold: float, level: np.ndarray
):
    """Write into ``level`` how many of ``ks`` have a sigma mask holding each voxel.

    ``ks`` are distinct and descending, so the mask of ``ks[i]`` is
    ``level > i``. One dense pass tests the largest k; the others are
    tested only at the voxels of each block that pass it, since the masks
    are nested. ``level`` is a flat zeroed grid that can hold ``len(ks)``:
    unsigned, or bool for a single k.
    """
    mean, std = mean.reshape(-1), std.reshape(-1)
    buf = np.empty(min(mean.size, _BLOCK))
    for b in _blocks(mean.size):
        adjusted = _adjusted(std[b], mean[b], ks[0], buf[: b.stop - b.start])
        hits = np.flatnonzero(adjusted >= threshold)
        if hits.size == 0:
            continue
        out = level[b]
        out[hits] = 1
        s, m, inner = std[b][hits], mean[b][hits], buf[: hits.size]
        for k in ks[1:]:
            out[hits] += _adjusted(s, m, k, inner) >= threshold


def sigma_level_mask(f: UncertaintyField, k: float, threshold: float = DEFAULT_THRESHOLD) -> MaskVolume:
    """Binarize mean + k * std (clamped into [0, 1]) at the threshold."""
    mask = np.zeros(f.mean.data.shape, bool)
    _level_grid(f.mean.data, f.std.data, [float(k)], threshold, mask.reshape(-1))
    return MaskVolume(mask, f.mean.channels, f.mean.spacing)


@dataclass(frozen=True)
class SweepEntry:
    k: float
    reports: dict[ChannelId, InvolvementReport]
    category: DpcgCategory


def uncertainty_sweep(
    f: UncertaintyField,
    ks: Sequence[float] = DEFAULT_KS,
    threshold: float = DEFAULT_THRESHOLD,
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> list[SweepEntry]:
    """Involvement and DPCG grade at every sigma step, in the order of ``ks``.

    Only the graded channels (tumor, artery and vein) are masked, each from
    one level grid (see ``_level_grid``). Raises ValueError for a
    non-finite k, and MissingChannelError (via the involvement module) when
    the field lacks the tumor, artery or vein channel.
    """
    ks = [float(k) for k in ks]
    for k in ks:
        if not math.isfinite(k):
            raise ValueError(f"sigma level k must be finite, got {k}")
    if not ks:
        return []
    distinct = sorted(set(ks), reverse=True)
    rank = {k: i for i, k in enumerate(distinct)}
    graded = [c for c in f.mean.channels if c in GRADED_CHANNELS]
    # uint8 up to 255 distinct ks; wider beyond, so a level never wraps
    levels = np.zeros((len(graded), *f.mean.dims), np.min_scalar_type(len(distinct)))
    for c, level in zip(graded, levels):
        _level_grid(f.mean.channel(c), f.std.channel(c), distinct, threshold, level.reshape(-1))

    def masks(k):
        return MaskVolume(levels > rank[k], graded, f.mean.spacing)

    # one k's masks alive at a time
    return [SweepEntry(k, *assess_scan(masks(k), connectivity, span_method)) for k in ks]
