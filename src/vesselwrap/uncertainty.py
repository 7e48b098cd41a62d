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
5. both results are rounded to float32 (``np.copyto`` and ``np.sqrt``
   into float32 blocks, ``casting="same_kind"``).

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

A consensus block, where every member's block equals the first's under
``==``, skips the float64 stage: its mean is the first member's block plus
``np.float32(0.0)`` and its std is +0.0, the same bits. Every partial sum
``j * x`` of N equal float32 values is exact in float64 (it needs at most
24 + log2 N bits), so the sum is N * x, the mean is x, and every deviation
and the std are +0.0. ``==`` also pairs +0.0 with -0.0, but such a voxel is
zero in every member, and the sum from +0.0 is +0.0; adding +0.0 to the
first block gives the same. The check compares the first voxels alone
before the whole blocks, so a block where the members already differ
there costs no block comparison; one whose first voxels agree but whose
rest does not costs up to one float32 comparison per further member on
top of the float64 stage. So the shortcut pays only where members agree
exactly over whole blocks (``tools/fold_agreement.py`` counts them).

A fold or sample is an in-memory ``ProbVolume`` or a probability payload
on disk (``volume.Payload``). Every member of a field is read in one
lockstep pass (``_member_blocks``): a payload straight into the
statistics, at most one ``PROB_CHUNK`` of one channel grid at a time
(``prob_chunks``), and an in-memory volume cut into the same chunks,
grid by grid, so both kinds feed one loop and no member is held whole.
A block is cut from one chunk, so it never spans two channels. Every
payload of the field is open for the whole pass, with one read buffer
of at most 1 MiB each: F files for F folds, and F x S for F folds of S
samples. The chunked read keeps the outputs byte-identical to reading
each payload whole and then streaming:

* the clip into [0, 1] is elementwise, so clipping a chunk gives the
  same bits as clipping the whole payload;
* the running min and max, started at 0.0 and taken chunk after chunk,
  equal the whole payload's ``min(initial=0.0)`` and ``max(initial=0.0)``,
  since min and max are associative and a NaN propagates through both;
  so a payload is rejected exactly when a whole read rejects it, after
  its last chunk, with the same min and max in the message (a zero
  bound prints as 0.0, whichever zero the reduction kept). The pass
  raises for the first rejected member, in member order, only after
  its last block has been handed on: a consumer that writes blocks out
  keeps them out of sight until the pass has ended (the CLI writes
  temporary files and renames them only after the sweep has graded
  every k).

A sweep masks only tumor, artery and vein, the channels the grade reads,
and builds every k's mask from one level grid per channel. The masks are
nested in k: for finite k and std >= 0, ``k * std`` and each later step
round monotonically, so a voxel held at some k is held at every larger k.
So one dense pass tests the largest k, the smaller ks are tested only at
the voxels of each block that pass it, and the grid records how many
distinct ks, counted from the top, hold each voxel. The result is exactly
``sigma_level_mask`` per k. Both reject a non-finite k before the pass:
inf * 0 is NaN, which holds nowhere, so it would break the nesting and
the zero-std shortcut below. A block whose std is all zero (+0.0
or -0.0) takes no float64 step: for finite k, ``k * std`` is a zero and
adding it to the mean leaves float64(mean), up to the sign of a zero
mean, which no comparison sees; the mean lies in [0, 1], so the clip
leaves it too. Every k therefore holds exactly where ``mean >=
threshold`` in float64, and the level there is the count of ks. That
test is made in float32, against the smallest float32 not below the
threshold, which a float32 mean reaches exactly where it reaches the
threshold. The threshold itself cannot be used: a float32 array compared
with a Python float is compared in float32 (NEP 50), which would hold a
mean of float32(0.7), just below 0.7, at threshold 0.7.

A field is one pass (``FieldStream``), built by ``fold_mean_std`` or
``sample_mean_std``: its float32 mean and std come out block by block, in
voxel order, and each consumer takes a block before the next is
computed. ``uncertainty_sweep`` and ``sigma_level_mask`` fill level grids
from the blocks, each block into its one channel's grid; the CLI also
appends them to its payload files. So no consumer holds a whole mean or
std.

Sample folds, each a sequence of its samples, take that one pass over
every sample of every fold. Per block, each fold's mean and aleatoric
std are taken over its samples, then the mean and std of the fold means
and the mean of the aleatoric stds, and their sum capped at 1 as a
float32 add. These are the operations of three whole-volume statistics,
block by block, so no fold's mean or std is held whole. Both operands of
the sum are float32 in [0, 1], and a float64 sum rounded to float32
equals one float32 rounding of the exact sum (53 >= 2 * 24 + 2), so it
matches a float64 sum bit for bit.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, replace
from typing import Generator, Sequence

import numpy as np

from .involvement import GRADED_CHANNELS, VESSELS, DpcgCategory, InvolvementReport, assess_scan
from .volume import PROB_CHUNK, ChannelId, MaskVolume, Payload, ProbVolume, Spacing, find_channel, prob_chunks

DEFAULT_KS = (-1.0, 0.0, 1.0, 2.0)
DEFAULT_THRESHOLD = 0.5

# A fold or sample: an in-memory volume, or an f32 payload streamed from its file.
Member = ProbVolume | Payload
# A float32 mean block and std block, each a run of voxels in flat (C, Z, H, W) order.
Block = tuple[np.ndarray, np.ndarray]
Blocks = Generator[Block, None, None]


@dataclass(frozen=True)
class FieldStream:
    """A mean and std field that exists only as one pass over its blocks.

    Iterating the generator ``blocks`` runs the statistics: it yields
    the float32 mean and std of consecutive runs of at most ``_BLOCK``
    voxels, in flat (C, Z, H, W) order, in arrays that the next block
    overwrites. A block lies inside one channel grid, never across two.
    It can be iterated once, and raises for a rejected member after its
    last block. The geometry and ``kind`` are known before the pass.
    """

    channels: tuple[ChannelId, ...]
    dims: tuple[int, int, int]
    spacing: Spacing
    kind: str  # epistemic | total
    blocks: Blocks


def _check_same_geometry(volumes: Sequence[Member]):
    if len(volumes) == 0:
        raise ValueError("need at least one volume, got an empty sequence")
    first = volumes[0]
    for v in volumes[1:]:
        if v.dims != first.dims or v.channels != first.channels:
            raise ValueError("volumes must share dims and channels")
        if v.spacing != first.spacing:
            raise ValueError("volumes must share spacing")


# Voxels per block: 256 KB per float64 buffer, so a handful of them stay in cache.
_BLOCK = 1 << 15
_F32_MAX = float(np.finfo(np.float32).max)


def _chunks(member: Member):
    """A member's voxels in order, at most ``PROB_CHUNK`` of one channel grid at a time.

    Views of an in-memory volume cut grid by grid, or a payload read part
    by part (``prob_chunks``), so both kinds give chunks of equal sizes.
    """
    if isinstance(member, Payload):
        return prob_chunks(member)
    return (grid[lo:lo + PROB_CHUNK]
            for grid in map(np.ravel, member.data) for lo in range(0, grid.size, PROB_CHUNK))


def _member_blocks(members: Sequence[Member]) -> Generator[list[np.ndarray], None, None]:
    """Every member's block of each run of at most ``_BLOCK`` voxels, in lockstep.

    The members share one voxel count (the callers check geometry). Each
    is read once, through ``_chunks``; a block is a view that the next
    chunk may overwrite. Every payload is open for the whole pass, and
    each one's range check runs after the last block, in member order.
    """
    with contextlib.ExitStack() as opened:
        readers = [opened.enter_context(contextlib.closing(_chunks(m))) for m in members]
        for parts in zip(*readers):
            for lo in range(0, parts[0].size, _BLOCK):
                yield [part[lo:lo + _BLOCK] for part in parts]
        for r in readers:
            next(r, None)  # runs a payload's range check


def _agree(blocks: list[np.ndarray], equal: np.ndarray) -> bool:
    """Whether every block equals the first under ``==`` (+0.0 equals -0.0).

    The first voxels are compared before any whole block. ``equal`` is a
    bool buffer of the blocks' size.
    """
    first = blocks[0]
    return (all(x[0] == first[0] for x in blocks[1:])
            and all(np.equal(x, first, out=equal).all() for x in blocks[1:]))


def _statistic(n: int):
    """The float32 mean and population std of ``n`` members' blocks, as a function of them.

    The function takes one block of each member, all of one size, and
    returns the mean and std in its own buffers, which its next call
    overwrites. Neither result is clipped: both already lie in [0, 1]
    (see the module docstring). Both sums start at +0.0, because a clip
    keeps -0.0, and a voxel that is -0.0 in every member must still give
    +0.0.
    """
    up, acc, sq = [np.empty(_BLOCK) for _ in range(n)], np.empty(_BLOCK), np.empty(_BLOCK)
    mean, std = np.empty(_BLOCK, np.float32), np.empty(_BLOCK, np.float32)
    equal = np.empty(_BLOCK, bool)

    def statistic(blocks: list[np.ndarray]) -> Block:
        k = blocks[0].size
        if _agree(blocks, equal[:k]):
            # the shared value, -0.0 made +0.0 as a sum from +0.0 makes it
            np.add(blocks[0], np.float32(0.0), out=mean[:k])
            std[:k].fill(0.0)
            return mean[:k], std[:k]
        xs, m, s = [x[:k] for x in up], acc[:k], sq[:k]
        for x, block in zip(xs, blocks):
            x[...] = block  # exact float32 -> float64 upcast
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
        np.copyto(mean[:k], m, casting="same_kind")
        np.sqrt(s, out=std[:k], casting="same_kind")
        return mean[:k], std[:k]

    return statistic


def fold_mean_std(folds: Sequence[Member]) -> FieldStream:
    """The mean prediction and epistemic std across deterministic model folds, as one pass.

    The fold count and geometry are checked here; no voxel is read until
    the blocks are, and a payload's range error is raised by the pass.
    """
    folds = list(folds)
    if len(folds) < 2:
        raise ValueError(f"need at least 2 folds for a std, got {len(folds)}")
    _check_same_geometry(folds)
    like = folds[0]
    return FieldStream(like.channels, like.dims, like.spacing, "epistemic", _fold_blocks(folds))


def _fold_blocks(folds: list[Member]) -> Blocks:
    statistic = _statistic(len(folds))
    with contextlib.closing(_member_blocks(folds)) as blocks:
        for block in blocks:
            yield statistic(block)


def sample_mean_std(folds: Sequence[Sequence[Member]]) -> FieldStream:
    """The mean prediction with the summed (aleatoric + epistemic) std, as one pass.

    Each fold is a sequence of its samples. The geometry of every sample of
    every fold is checked here, once over all of them, then the sample
    counts; no voxel is read until the blocks are. When the blocks are read,
    every sample of every fold is streamed once, in one pass, so every
    sample payload is open for it. Per block, each fold's mean and aleatoric
    std come from its samples; the block then holds the mean prediction and
    the epistemic std from the fold means, and the aleatoric part, the fold
    mean of the aleatoric stds, which for a single fold is that fold's std
    alone.
    """
    folds = [tuple(f) for f in folds]
    members = [s for f in folds for s in f]
    _check_same_geometry(members)
    for f in folds:
        if len(f) < 2:
            raise ValueError(f"need at least 2 samples for a std, got {len(f)}")
    like = members[0]
    return FieldStream(like.channels, like.dims, like.spacing, "total", _total_blocks(folds, members))


def _total_blocks(folds: list[tuple[Member, ...]], members: list[Member]) -> Blocks:
    starts = itertools.accumulate((len(f) for f in folds), initial=0)
    per_fold = [(_statistic(len(f)), slice(lo, lo + len(f))) for f, lo in zip(folds, starts)]
    means, aleatoric = _statistic(len(folds)), _statistic(len(folds))
    with contextlib.closing(_member_blocks(members)) as blocks:
        for block in blocks:
            fold_stats = [statistic(block[samples]) for statistic, samples in per_fold]
            mean, epistemic = means([m for m, _ in fold_stats])
            total, _ = aleatoric([s for _, s in fold_stats])
            if len(folds) >= 2:  # in place: the next call overwrites the block anyway
                np.add(total, epistemic, out=total)
                np.minimum(total, 1.0, out=total)
            yield mean, total


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

    The arrays are flat: one piece of one block, 1 to ``_BLOCK`` voxels.
    ``ks`` are distinct and descending, so the mask of ``ks[i]`` is
    ``level > i``. One dense pass tests the largest k; the others are
    tested only at the voxels that pass it, since the masks are nested. A
    block whose std is all zero is held at every k exactly where its mean
    reaches the threshold in float64, so it is set with one comparison: a
    float32 mean reaches the threshold exactly where it reaches the
    smallest float32 not below it. ``level`` is zeroed and can hold
    ``len(ks)``: unsigned, or bool for a single k.
    """
    if std[0] == 0.0 and not std.any():
        # clamped into float32's range first, so the cast never overflows
        at_least = np.float32(min(max(threshold, -_F32_MAX), _F32_MAX))
        if float(at_least) < threshold:
            at_least = np.nextafter(at_least, np.float32(np.inf))
        level[mean >= at_least] = len(ks)
        return
    adjusted = _adjusted(std, mean, ks[0], np.empty(mean.size))
    hits = np.flatnonzero(adjusted >= threshold)
    if hits.size == 0:
        return
    level[hits] = 1
    s, m, inner = std[hits], mean[hits], adjusted[: hits.size]
    for k in ks[1:]:
        level[hits] += _adjusted(s, m, k, inner) >= threshold


def _finite(ks: Sequence[float]) -> list[float]:
    """``ks`` as floats; a non-finite one raises ValueError."""
    ks = [float(k) for k in ks]
    for k in ks:
        if not math.isfinite(k):
            raise ValueError(f"sigma level k must be finite, got {k}")
    return ks


def _fill_levels(
    stream: FieldStream, graded, levels: np.ndarray, ks: Sequence[float], threshold: float
):
    """Run the pass of ``stream``, writing each graded channel's level grid from its blocks.

    A block lies inside one channel grid, found by its first voxel. The
    blocks are closed when the pass ends or fails, so a payload it reads
    is too.
    """
    grid = math.prod(stream.dims)
    # each graded channel's flat level grid, by the channel's place in the field
    targets = {stream.channels.index(c): level.reshape(-1) for c, level in zip(graded, levels)}
    pos = 0
    with contextlib.closing(stream.blocks) as blocks:
        for mean, std in blocks:
            channel, lo = divmod(pos, grid)
            if channel in targets:
                _level_grid(mean, std, ks, threshold, targets[channel][lo:lo + mean.size])
            pos += mean.size


def sigma_level_mask(stream: FieldStream, k: float, threshold: float = DEFAULT_THRESHOLD) -> MaskVolume:
    """Binarize clamp(mean + k * std, 0, 1) at the threshold, every channel, in the stream's pass.

    Raises ValueError for a non-finite k, before the pass.
    """
    (k,) = _finite([k])
    mask = np.zeros((len(stream.channels), *stream.dims), bool)
    _fill_levels(stream, stream.channels, mask, [k], threshold)
    return MaskVolume(mask, stream.channels, stream.spacing)


@dataclass(frozen=True)
class SweepEntry:
    k: float
    reports: dict[ChannelId, InvolvementReport]
    category: DpcgCategory


def uncertainty_sweep(
    f: FieldStream,
    ks: Sequence[float] = DEFAULT_KS,
    threshold: float = DEFAULT_THRESHOLD,
    connectivity: int = 8,
    span_method: str = "largest-gap",
) -> list[SweepEntry]:
    """Involvement and DPCG grade at every sigma step, in the order of ``ks``.

    Only the graded channels (tumor, artery and vein) are masked, each from
    one level grid (see ``_level_grid``) that the stream's blocks fill as
    they pass; the pass runs to its end, whatever the ks. The reports carry
    no component table (``table`` is None): nothing paints a sweep, and the
    tables would hold every k's contact voxels at once. Before the pass,
    raises ValueError for a non-finite k, then, if there is a k,
    MissingChannelError when the field lacks the tumor, artery or vein
    channel, checked in that order, the order in which the kernel reads
    them, so the message is the kernel's.
    """
    ks = _finite(ks)
    for c in (ChannelId.TUMOR, *VESSELS) if ks else ():
        find_channel(f.channels, c)
    distinct = sorted(set(ks), reverse=True)
    rank = {k: i for i, k in enumerate(distinct)}
    graded = [c for c in f.channels if c in GRADED_CHANNELS] if ks else []
    # uint8 up to 255 distinct ks; wider beyond, so a level never wraps
    levels = np.zeros((len(graded), *f.dims), np.min_scalar_type(len(distinct)))
    _fill_levels(f, graded, levels, distinct, threshold)

    def entry(k):  # one k's masks and component tables alive at a time
        masks = MaskVolume(levels > rank[k], graded, f.spacing)
        reports, category = assess_scan(masks, connectivity, span_method)
        return SweepEntry(k, {c: replace(r, table=None) for c, r in reports.items()}, category)

    return [entry(k) for k in ks]
