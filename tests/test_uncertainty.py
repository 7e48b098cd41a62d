import inspect
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vesselwrap.involvement import DpcgCategory, assess_scan
from vesselwrap.phantom import PhantomSpec, gen_uncertainty_scene
from vesselwrap import uncertainty as unc
from vesselwrap.uncertainty import (
    _BLOCK,
    FieldStream,
    fold_mean_std,
    sample_mean_std,
    sigma_level_mask,
    uncertainty_sweep,
)
from vesselwrap import volume
from vesselwrap.volume import (
    PROB_CHUNK,
    STANDARD_CHANNELS,
    ChannelId,
    MissingChannelError,
    Spacing,
    VolumeFormatError,
    open_payload,
    write_volume,
)
from conftest import (
    Field,
    collect,
    epistemic_from_samples_reference,
    field_stream,
    fold_mean_std_reference,
    make_mask,
    make_prob,
    mean_aleatoric_reference,
    open_payloads,
    sample_mean_std_reference,
    sigma_level_mask_reference,
)

CH = (ChannelId.TUMOR,)


def prob_of(value, shape=(1, 1, 2, 2)):
    return make_prob(np.full(shape, value, dtype=np.float32), channels=CH)


def tav_prob(tumor, artery, vein):
    data = np.stack([artery, vein, tumor]).astype(np.float32)
    return make_prob(data, channels=(ChannelId.ARTERY, ChannelId.VEIN, ChannelId.TUMOR))


class TestFoldMeanStd:
    def test_identical_folds_zero_std(self):
        field = collect(fold_mean_std([prob_of(0.7)] * 3))
        assert (field.std.data == 0).all()
        assert np.allclose(field.mean.data, np.float32(0.7))
        assert field.kind == "epistemic"

    def test_three_fold_arithmetic(self):
        field = collect(fold_mean_std([prob_of(0.4), prob_of(0.6), prob_of(0.5)]))
        # population std of {0.4, 0.6, 0.5}
        expected = math.sqrt(((0.4 - 0.5) ** 2 + (0.6 - 0.5) ** 2 + 0.0) / 3.0)
        assert field.mean.data[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-6)
        assert field.std.data[0, 0, 0, 0] == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.08165, abs=5e-6)

    def test_two_point_symmetric(self):
        field = collect(fold_mean_std([prob_of(0.0), prob_of(1.0)]))
        assert field.mean.data[0, 0, 0, 0] == pytest.approx(0.5)
        assert field.std.data[0, 0, 0, 0] == pytest.approx(0.5)

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            fold_mean_std([prob_of(0.5)])

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError, match=re.escape(
                "geometry mismatch: member 0 (1, 2, 2) at (1.0, 1.0, 1.0) mm, "
                "member 1 (1, 2, 3) at (1.0, 1.0, 1.0) mm")):
            fold_mean_std([prob_of(0.5), prob_of(0.5, shape=(1, 1, 2, 3))])

    def test_channel_mismatch_names_the_member(self):
        """The first member whose channels differ is named, with both lists, before dims are compared."""
        vein = make_prob(np.full((1, 1, 2, 3), 0.5), channels=(ChannelId.VEIN,))
        with pytest.raises(ValueError,
                           match=re.escape("channel mismatch: member 0 ['tumor'], member 2 ['vein']") + "$"):
            fold_mean_std([prob_of(0.5), prob_of(0.2), vein])

    def test_commutes_with_voxel_permutation(self, rng):
        folds = [make_prob(rng.random((1, 1, 4, 4), dtype=np.float32), channels=CH)
                 for _ in range(3)]
        perm = rng.permutation(16)
        def scramble(v):
            flat = v.data.reshape(-1)[perm].reshape(v.data.shape)
            return make_prob(flat, channels=CH)
        direct = collect(fold_mean_std([scramble(f) for f in folds]))
        indirect = collect(fold_mean_std(folds))
        assert np.allclose(direct.std.data.reshape(-1), indirect.std.data.reshape(-1)[perm])


def std_of(folds):
    """The summed std volume of sample folds, for scalar checks."""
    return collect(sample_mean_std(folds)).std


class TestAleatoric:
    """A one-fold sample set's std is that fold's sample std."""

    def test_identical_samples(self):
        assert (std_of([(prob_of(0.3), prob_of(0.3))]).data == 0).all()

    def test_two_samples(self):
        std = std_of([(prob_of(0.2), prob_of(0.8))])
        assert std.data[0, 0, 0, 0] == pytest.approx(0.3, abs=1e-6)

    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2 samples for a std, got 1"):
            sample_mean_std([(prob_of(0.5),)])


class TestMeanAleatoric:
    """Folds with one shared mean add no epistemic part: the std is the mean aleatoric std."""

    def test_all_identical(self):
        fold = (prob_of(0.4), prob_of(0.4))
        assert (std_of([fold, fold, fold]).data == 0).all()

    def test_one_spread_fold(self):
        spread = (prob_of(0.2), prob_of(0.8))  # std 0.3
        tight = (prob_of(0.5), prob_of(0.5))   # std 0
        out = std_of([spread, tight, tight])
        assert out.data[0, 0, 0, 0] == pytest.approx(0.1, abs=1e-6)
        assert_same_bytes(out, mean_aleatoric_reference([spread, tight, tight]))

    def test_single_fold_degenerates(self):
        spread = (prob_of(0.2), prob_of(0.8))
        out = std_of([spread])
        assert out.data[0, 0, 0, 0] == pytest.approx(0.3, abs=1e-6)


class TestEpistemicFromSamples:
    """Folds with zero sample spread leave only the epistemic std of the fold means."""

    def test_shared_mean_zero(self):
        a = (prob_of(0.2), prob_of(0.8))
        b = (prob_of(0.5), prob_of(0.5))
        assert (epistemic_from_samples_reference([a, b]).data == 0).all()
        assert_same_bytes(std_of([a, b]), mean_aleatoric_reference([a, b]))

    def test_fold_mean_arithmetic(self):
        folds = [
            (prob_of(0.4), prob_of(0.4)),
            (prob_of(0.6), prob_of(0.6)),
            (prob_of(0.5), prob_of(0.5)),
        ]
        field = collect(sample_mean_std(folds))
        assert field.std.data[0, 0, 0, 0] == pytest.approx(0.08165, abs=5e-6)
        assert field.mean.data[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_total_is_sum_of_parts(self):
        folds = [
            (prob_of(0.2), prob_of(0.8)),
            (prob_of(0.3), prob_of(0.7)),
            (prob_of(0.4), prob_of(0.6)),
        ]
        total = collect(sample_mean_std(folds))
        expected = mean_aleatoric_reference(folds).data + epistemic_from_samples_reference(folds).data
        assert np.allclose(total.std.data, expected, atol=1e-6)
        assert total.kind == "total"


class TestSampleMeanStdPasses:
    @pytest.mark.parametrize("n_folds", [1, 2, 3])
    def test_every_sample_streamed_in_one_pass(self, monkeypatch, n_folds):
        passes, chunked = [], []
        real_pass, real_chunks = unc._member_blocks, unc._chunks

        def one_pass(members):
            passes.append(list(members))
            return real_pass(members)

        def chunks(member):
            chunked.append(member)
            return real_chunks(member)

        monkeypatch.setattr(unc, "_member_blocks", one_pass)
        monkeypatch.setattr(unc, "_chunks", chunks)
        folds = [(prob_of(0.1 * i), prob_of(0.2), prob_of(0.9)) for i in range(n_folds)]
        collect(sample_mean_std(folds))
        # one pass over every sample of every fold, in fold order, each chunked once
        members = [id(s) for f in folds for s in f]
        assert [[id(m) for m in p] for p in passes] == [members]
        assert [id(m) for m in chunked] == members

    def test_rejected_before_any_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(unc, "_member_blocks", calls.append)
        spread, single = (prob_of(0.2), prob_of(0.8)), (prob_of(0.5),)
        with pytest.raises(ValueError, match="need at least 2 samples for a std, got 1"):
            sample_mean_std([spread, single])
        # the geometry of every sample is checked before the sample counts
        other = (prob_of(0.5, shape=(1, 1, 2, 3)),)
        with pytest.raises(ValueError, match=re.escape(
                "geometry mismatch: member 0 (1, 2, 2) at (1.0, 1.0, 1.0) mm, "
                "member 1 (1, 2, 3) at (1.0, 1.0, 1.0) mm")):
            sample_mean_std([single, other])
        assert calls == []

    def test_geometry_checked_once_per_field(self, monkeypatch):
        """One ``_check_same_geometry`` call per field, over every member in pass order."""
        calls = []
        real = unc._check_same_geometry

        def spy(members):
            calls.append([id(m) for m in members])
            return real(members)

        monkeypatch.setattr(unc, "_check_same_geometry", spy)
        folds = [(prob_of(0.1 * i), prob_of(0.2), prob_of(0.9)) for i in range(3)]
        collect(sample_mean_std(folds))
        assert calls == [[id(s) for f in folds for s in f]]
        calls.clear()
        collect(fold_mean_std([f[0] for f in folds]))
        assert calls == [[id(f[0]) for f in folds]]

    def test_later_sample_spacing_refused_unread(self, tmp_path, monkeypatch):
        """A sample of a later fold at other spacing is refused before any payload is read."""
        folds = []
        for i in range(2):
            fold = []
            for j in range(2):
                spacing = Spacing(2.0, 1.0, 1.0) if (i, j) == (1, 1) else Spacing(1.0, 1.0, 1.0)
                write_volume(make_prob(np.full((1, 1, 2, 2), 0.5), CH, spacing), tmp_path / f"{i}{j}.json")
                fold.append(open_payload(tmp_path / f"{i}{j}.json"))
            folds.append(fold)
        reads = []
        real = volume._parts
        monkeypatch.setattr(volume, "_parts", lambda payload: reads.append(payload) or real(payload))
        with pytest.raises(ValueError, match="^" + re.escape(
                f"geometry mismatch: {tmp_path / '00.json'} (1, 2, 2) at (1.0, 1.0, 1.0) mm, "
                f"{tmp_path / '11.json'} (1, 2, 2) at (2.0, 1.0, 1.0) mm") + "$"):
            sample_mean_std(folds)
        assert reads == []

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="need at least one volume, got an empty sequence"):
            sample_mean_std([])

    def test_peak_in_grids(self):
        """tracemalloc peak of a pass over 3 folds of 2 in-memory samples, in uint8 grids.

        A grid is one 32x128x128 channel; the samples are 6 channels of it.
        Keeping each fold's float32 mean and std whole peaked at 150.3
        grids. The one pass holds only block buffers: per statistic, one
        float64 buffer per member, two more float64 ones and float32 mean
        and std, about 14 grids for the five statistics.
        """
        gen = np.random.default_rng(4)
        folds = [tuple(make_prob(gen.random((6, 32, 128, 128), dtype=np.float32)) for _ in range(2))
                 for _ in range(3)]
        tracemalloc.start()
        try:
            for _ in sample_mean_std(folds).blocks:
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (32 * 128 * 128) <= 20


class TestSigmaLevelMask:
    def test_one_sigma_crosses_threshold(self):
        field = Field(prob_of(0.45), prob_of(0.1), "epistemic")
        assert sigma_level_mask(field_stream(*field), 1.0).data.all()
        assert not sigma_level_mask(field_stream(*field), 0.0).data.any()

    def test_k_zero_is_plain_threshold(self, rng):
        mean = make_prob(rng.random((1, 2, 3, 3), dtype=np.float32), channels=CH)
        std = make_prob(rng.random((1, 2, 3, 3), dtype=np.float32) * 0.3, channels=CH)
        mask = sigma_level_mask(field_stream(mean, std), 0.0)
        assert (mask.data == (mean.data >= 0.5)).all()

    def test_zero_std_k_independent(self, rng):
        mean = make_prob(rng.random((1, 1, 4, 4), dtype=np.float32), channels=CH)
        field = Field(mean, prob_of(0.0, shape=mean.data.shape), "epistemic")
        base = sigma_level_mask(field_stream(*field), 0.0).data
        for k in (-1.0, 1.0, 2.0):
            assert (sigma_level_mask(field_stream(*field), k).data == base).all()

    @pytest.mark.parametrize("k", [math.inf, -math.inf, math.nan])
    def test_non_finite_k_rejected_before_the_pass(self, k):
        # clamp(0.7 + k * 0, 0, 1) is NaN, which holds nowhere; a zero std must not hold it
        field = field_stream(prob_of(0.7), prob_of(0.0))
        with pytest.raises(ValueError, match=f"sigma level k must be finite, got {k}"):
            sigma_level_mask(field, k)
        assert inspect.getgeneratorstate(field.blocks) == inspect.GEN_CREATED

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_nesting(self, seed):
        gen = np.random.default_rng(seed)
        mean = make_prob(gen.random((1, 2, 4, 4), dtype=np.float32), channels=CH)
        std = make_prob(gen.random((1, 2, 4, 4), dtype=np.float32) * 0.5, channels=CH)
        ks = (-1.0, 0.0, 1.0, 2.0)
        masks = [sigma_level_mask(field_stream(mean, std), k).data for k in ks]
        for lo, hi in zip(masks, masks[1:]):
            assert (lo <= hi).all()


class TestUncertaintySweep:
    def test_zero_std_identical_reports(self, rng):
        tumor = (rng.random((2, 12, 12)) < 0.2).astype(np.float32)
        vein = (rng.random((2, 12, 12)) < 0.2).astype(np.float32)
        vol = tav_prob(tumor, np.zeros_like(tumor), vein)
        field = fold_mean_std([vol, vol, vol])
        entries = uncertainty_sweep(field)
        first = entries[0]
        for entry in entries[1:]:
            assert entry.reports == first.reports
            assert entry.category == first.category

    def test_presence_monotone_in_k(self, rng):
        for seed in range(10):
            gen = np.random.default_rng(seed)
            folds = [
                tav_prob(
                    gen.random((2, 10, 10), dtype=np.float32),
                    gen.random((2, 10, 10), dtype=np.float32),
                    gen.random((2, 10, 10), dtype=np.float32),
                )
                for _ in range(3)
            ]
            entries = uncertainty_sweep(fold_mean_std(folds))
            for vessel in (ChannelId.ARTERY, ChannelId.VEIN):
                flags = [e.reports[vessel].present for e in entries]
                assert flags == sorted(flags)

    def test_borderline_fixture_flips_at_plus_two(self):
        spec = PhantomSpec(wrap_span_deg=70.0, band_extra_deg=25.0)
        folds, truths = gen_uncertainty_scene(spec)
        entries = uncertainty_sweep(fold_mean_std(folds))
        by_k = {e.k: e for e in entries}
        for k in (-1.0, 0.0, 1.0):
            assert truths[k].category is DpcgCategory.RESECTABLE
            assert by_k[k].category is DpcgCategory.RESECTABLE
        assert truths[2.0].category is DpcgCategory.BORDERLINE_RESECTABLE
        assert by_k[2.0].category is DpcgCategory.BORDERLINE_RESECTABLE
        for k, entry in by_k.items():
            assert entry.reports[ChannelId.VEIN].max_span_deg == pytest.approx(
                truths[k].max_span_deg, abs=10.0
            )


# -0.0, exact 0/1 and the 0.5 threshold, plus exact quarters for tied sums
SPECIAL_VALUES = np.array([-0.0, 0.0, 1.0, 0.5, 0.25, 0.75], dtype=np.float32)
SIZES = st.one_of(
    st.integers(1, 300),
    st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 37]),
)
KS = st.one_of(st.sampled_from([-2.5, -1.0, 0.0, 0.3, 1.0, 2.0]), st.floats(-4.0, 4.0))
THRESHOLDS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


def _random_volumes(gen, count, size, special_share):
    vols = []
    for _ in range(count):
        data = gen.random(size, dtype=np.float32)
        pick = gen.random(size) < special_share
        data[pick] = gen.choice(SPECIAL_VALUES, int(pick.sum()))
        vols.append(make_prob(data.reshape(1, 1, 1, size), channels=CH))
    return vols


def assert_same_bytes(got, want):
    assert got.data.dtype == want.data.dtype and got.data.shape == want.data.shape
    assert got.data.tobytes() == want.data.tobytes()


def assert_same_outcome(fn, reference, *args):
    """Both raise ValueError, or both return volumes with identical bytes.

    A ``FieldStream`` that ``fn`` returns is collected, so the errors its
    pass raises count.
    """
    def outcome():
        got = fn(*args)
        return collect(got) if isinstance(got, FieldStream) else got

    try:
        want = reference(*args)
    except ValueError:
        with pytest.raises(ValueError):
            outcome()
        return None
    got = outcome()
    if isinstance(want, Field):
        assert got.kind == want.kind
        assert_same_bytes(got.mean, want.mean)
        assert_same_bytes(got.std, want.std)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bytes(g, w)
    else:
        assert_same_bytes(got, want)
    return got


class TestStreamedEquivalence:
    """The block-streamed statistics and masks equal the whole-volume reference bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_folds=st.integers(2, 5),
        size=SIZES,
        special_share=st.sampled_from([0.0, 0.3, 1.0]),
        ks=st.lists(KS, min_size=1, max_size=3),
        threshold=THRESHOLDS,
    )
    def test_fold_field_and_masks(self, seed, n_folds, size, special_share, ks, threshold):
        folds = _random_volumes(np.random.default_rng(seed), n_folds, size, special_share)
        field = assert_same_outcome(fold_mean_std, fold_mean_std_reference, folds)
        for k in ks:
            assert_same_bytes(
                sigma_level_mask(field_stream(*field), k, threshold),
                sigma_level_mask_reference(field, k, threshold),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=SIZES,
        special_share=st.sampled_from([0.0, 0.3, 1.0]),
        k=KS,
        threshold=THRESHOLDS,
        near_threshold=st.booleans(),
    )
    def test_masks_of_arbitrary_fields(
        self, seed, size, special_share, k, threshold, near_threshold
    ):
        # mean and std drawn independently, -0.0 included, not from any fold set
        mean, std = _random_volumes(np.random.default_rng(seed), 2, size, special_share)
        if near_threshold:
            # mean + k * std lands within a float32 step of the threshold, so
            # the comparison depends on every rounding step of the float64 sum
            near = np.clip(threshold - k * std.data.astype(np.float64), 0.0, 1.0)
            mean = make_prob(near.astype(np.float32), channels=CH)
        field = Field(mean, std, "epistemic")
        assert_same_bytes(
            sigma_level_mask(field_stream(*field), k, threshold),
            sigma_level_mask_reference(field, k, threshold),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        sample_counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        size=SIZES,
        special_share=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_sample_statistics(self, seed, sample_counts, size, special_share):
        gen = np.random.default_rng(seed)
        folds = [
            tuple(_random_volumes(gen, count, size, special_share))
            for count in sample_counts
        ]
        assert_same_outcome(sample_mean_std, sample_mean_std_reference, folds)

    def test_fold_mean_std_holds_no_float64_stack(self):
        gen = np.random.default_rng(3)
        folds = [make_prob(gen.random((6, 16, 128, 128), dtype=np.float32)) for _ in range(3)]
        tracemalloc.start()
        try:
            field = collect(fold_mean_std(folds))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = field.mean.data.nbytes + field.std.data.nbytes
        assert peak < 1.5 * outputs, (peak, outputs)


# Raw payload values the reader accepts: in [0, 1], -0.0, and values within
# the 0.001 tolerance outside it, which it clamps.
READ_SPECIALS = np.array([-0.0, 0.0, 1.0, 0.5, -0.0005, 1.0005, -2.0**-10, 1 + 2.0**-10],
                         dtype=np.float32)
# Voxel counts on both sides of a block and of a streamed chunk, some not a multiple of 8.
READ_SIZES = st.one_of(
    st.integers(1, 300),
    st.sampled_from([_BLOCK - 1, _BLOCK + 1, PROB_CHUNK - 1, PROB_CHUNK, PROB_CHUNK + 1,
                     PROB_CHUNK + _BLOCK + 3, 2 * PROB_CHUNK + 37]),
)


def _raw_values(gen, size, special_share):
    data = gen.random(size, dtype=np.float32)
    pick = gen.random(size) < special_share
    data[pick] = gen.choice(READ_SPECIALS, int(pick.sum()))
    return data


def _write_raw(path: Path, data: np.ndarray):
    """Write ``data`` as a one-channel f32 volume, out-of-range values kept; its payload."""
    write_volume(make_prob(np.zeros((1, 1, 1, data.size)), channels=CH), path)
    path.with_suffix(".raw").write_bytes(data.astype("<f4").tobytes())
    return open_payload(path)


class TestStreamedRead:
    """Statistics streamed from payload files equal the in-memory ones bit for bit.

    Each member is drawn as a payload or as the in-memory volume of its
    clamped values, so both kinds also meet in one pass.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        sample_counts=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        size=READ_SIZES,
        special_share=st.sampled_from([0.0, 0.3, 1.0]),
        folds_of_samples=st.booleans(),
        streamed=st.lists(st.booleans(), min_size=9, max_size=9),
    )
    def test_equal_to_in_memory(self, seed, sample_counts, size, special_share, folds_of_samples,
                                streamed):
        gen = np.random.default_rng(seed)
        raw = [[_raw_values(gen, size, special_share) for _ in range(n)] for n in sample_counts]
        statistic = sample_mean_std if folds_of_samples else fold_mean_std

        def outcome(folds):
            """The field of ``folds`` (lists of members), or the ValueError text."""
            if folds_of_samples:
                args = [tuple(f) for f in folds]
            else:
                args = [m for f in folds for m in f]
            try:
                return collect(statistic(args))
            except ValueError as exc:
                return str(exc)

        in_memory = [[make_prob(np.clip(d, 0.0, 1.0).reshape(1, 1, 1, -1), channels=CH)
                      for d in fold] for fold in raw]
        want = outcome(in_memory)
        with tempfile.TemporaryDirectory() as tmp:
            got = outcome([
                [_write_raw(Path(tmp) / f"f{i}s{j}.json", d) if streamed[3 * i + j] else v
                 for j, (d, v) in enumerate(zip(fold, vols))]
                for i, (fold, vols) in enumerate(zip(raw, in_memory))
            ])
        if isinstance(want, str):
            assert got == want
        else:
            assert got.kind == want.kind
            assert_same_bytes(got.mean, want.mean)
            assert_same_bytes(got.std, want.std)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_folds=st.integers(2, 4),
        # mostly several chunks, so that the bad voxel often sits before the last one
        size=st.sampled_from([7, _BLOCK + 1, PROB_CHUNK + 1, PROB_CHUNK + _BLOCK + 3,
                              2 * PROB_CHUNK + 37]),
        bad=st.sampled_from([math.nan, math.inf, -math.inf, 1.0011, -0.0011, 2.0, -7.5]),
        where=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
        which=st.integers(0, 3),
    )
    def test_bad_voxel_raises_whole_payload_message(self, seed, n_folds, size, bad, where, which):
        gen = np.random.default_rng(seed)
        raw = [_raw_values(gen, size, 0.3) for _ in range(n_folds)]
        which %= n_folds
        raw[which][int(where * size)] = bad
        with tempfile.TemporaryDirectory() as tmp:
            payloads = [_write_raw(Path(tmp) / f"f{i}.json", d) for i, d in enumerate(raw)]
            with pytest.raises(VolumeFormatError) as exc:
                collect(fold_mean_std(payloads))
        data = raw[which]
        lo, hi = float(data.min(initial=0.0)) + 0.0, float(data.max(initial=0.0)) + 0.0
        assert str(exc.value) == (
            f"{payloads[which].path}: probability values non-finite or outside tolerated range: "
            f"min={lo}, max={hi}"
        )


    @pytest.mark.parametrize("grid", [4551, 43165, PROB_CHUNK + 37])
    @pytest.mark.parametrize("statistic", [fold_mean_std, sample_mean_std])
    def test_no_block_spans_two_channels(self, tmp_path, statistic, grid):
        """Payloads and in-memory members, in one pass, cut their blocks channel by channel."""
        gen = np.random.default_rng(grid)
        channels = (ChannelId.ARTERY, ChannelId.VEIN, ChannelId.TUMOR)
        members = []
        for i in range(4):
            vol = make_prob(gen.random((3, 1, 1, grid), dtype=np.float32), channels=channels)
            if i % 2:
                write_volume(vol, tmp_path / f"m{i}.json")
                vol = open_payload(tmp_path / f"m{i}.json")
            members.append(vol)
        if statistic is sample_mean_std:
            members = [tuple(members[:2]), tuple(members[2:])]
        ends = [0]
        for mean, _ in statistic(members).blocks:
            ends.append(ends[-1] + mean.size)
        assert ends[-1] == 3 * grid
        assert all(lo // grid == (hi - 1) // grid for lo, hi in zip(ends, ends[1:]))

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_failed_pass_closes_every_payload(self, tmp_path):
        """A payload that shrinks mid-pass stops it, and every payload is closed at once.

        The exception still references the pass's frame, so closing cannot
        wait for the garbage collector.
        """
        gen = np.random.default_rng(2)
        payloads = [_write_raw(tmp_path / f"f{i}.json", gen.random(PROB_CHUNK + 9, np.float32))
                    for i in range(3)]
        (tmp_path / "f1.raw").write_bytes(bytes(4 * PROB_CHUNK))
        with pytest.raises(VolumeFormatError, match="shrank while being read") as exc:
            collect(fold_mean_std(payloads))
        assert exc.value.__traceback__ is not None
        assert open_payloads(tmp_path) == []


def _agreeing_values(gen, count, size, changed_share, special_share):
    """``count`` float32 members copied from one base, some statistics blocks changed.

    Each block is changed with probability ``changed_share``, in one of
    three ways: one voxel of one member, every voxel of one member, or
    the sign of the zeros the block is given in every member, drawn per
    member, so the members still agree there under ``==``.
    """
    base = gen.random(size, dtype=np.float32)
    pick = gen.random(size) < special_share
    base[pick] = gen.choice(SPECIAL_VALUES, int(pick.sum()))
    members = [base.copy() for _ in range(count)]
    for lo in range(0, size, _BLOCK):
        hi = min(lo + _BLOCK, size)
        if gen.random() >= changed_share:
            continue
        x = members[gen.integers(count)]
        way = gen.integers(3)
        if way == 0:
            i = gen.choice([lo, hi - 1, gen.integers(lo, hi)])
            x[i] = (x[i] + np.float32(0.5)) % np.float32(1.0)  # differs from x[i]
        elif way == 1:
            x[lo:hi] = gen.random(hi - lo, dtype=np.float32)
        else:
            zeros = gen.random(hi - lo) < 0.5
            for m in members:
                m[lo:hi][zeros] = np.copysign(np.float32(0.0), gen.random(int(zeros.sum())) - 0.5)
    return members


class TestConsensusBlocks:
    """Blocks where every member agrees skip the float64 statistics, bit-equal to the reference.

    Each member is drawn as a payload or as an in-memory volume.
    """

    @staticmethod
    def _members(tmp, raw, streamed):
        return [_write_raw(Path(tmp) / f"m{i}.json", d) if s else make_prob(d[None, None, None], CH)
                for i, (d, s) in enumerate(zip(raw, streamed))]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n_folds=st.integers(2, 5),
        size=READ_SIZES,
        changed_share=st.sampled_from([0.0, 0.3, 1.0]),
        special_share=st.sampled_from([0.0, 0.3, 1.0]),
        streamed=st.lists(st.booleans(), min_size=5, max_size=5),
    )
    def test_fold_statistics(self, seed, n_folds, size, changed_share, special_share, streamed):
        raw = _agreeing_values(np.random.default_rng(seed), n_folds, size, changed_share,
                               special_share)
        want = fold_mean_std_reference([make_prob(d[None, None, None], CH) for d in raw])
        with tempfile.TemporaryDirectory() as tmp:
            got = collect(fold_mean_std(self._members(tmp, raw, streamed)))
        assert_same_bytes(got.mean, want.mean)
        assert_same_bytes(got.std, want.std)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        sample_counts=st.lists(st.integers(2, 3), min_size=1, max_size=3),
        size=READ_SIZES,
        changed_share=st.sampled_from([0.0, 0.3, 1.0]),
        special_share=st.sampled_from([0.0, 0.3, 1.0]),
        streamed=st.lists(st.booleans(), min_size=9, max_size=9),
    )
    def test_sample_statistics(self, seed, sample_counts, size, changed_share, special_share,
                               streamed):
        raw = _agreeing_values(np.random.default_rng(seed), sum(sample_counts), size,
                               changed_share, special_share)
        cuts = np.cumsum([0, *sample_counts])

        def sample_folds(members):
            return [tuple(members[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]

        want = sample_mean_std_reference(sample_folds([make_prob(d[None, None, None], CH)
                                                      for d in raw]))
        with tempfile.TemporaryDirectory() as tmp:
            got = collect(sample_mean_std(sample_folds(self._members(tmp, raw, streamed))))
        assert_same_bytes(got.mean, want.mean)
        assert_same_bytes(got.std, want.std)

    def test_sign_of_zero_block(self):
        """Folds that differ only in the sign of zero give +0.0, as a float64 sum from +0.0 does."""
        folds = [prob_of(0.0, (1, 1, 1, _BLOCK + 3)) for _ in range(3)]
        folds[1] = prob_of(-0.0, (1, 1, 1, _BLOCK + 3))
        for field in (collect(fold_mean_std(folds)), collect(fold_mean_std(folds[1:2] * 2))):
            assert not np.signbit(field.mean.data).any()
            assert not np.signbit(field.std.data).any()


def assert_sweep_matches_reference(field, ks, threshold):
    """Spy on ``assess_scan``: each graded mask is the reference mask, each entry grades it."""
    references = [sigma_level_mask_reference(field, k, threshold) for k in ks]
    graded = [c for c in field.mean.channels
              if c in (ChannelId.TUMOR, ChannelId.ARTERY, ChannelId.VEIN)]
    received = []
    real = unc.assess_scan

    def spy(masks, *args):
        reference = references[len(received)]
        received.append(masks)
        assert [c for c in masks.channels if c in graded] == graded
        for c in graded:
            assert masks.channel(c).dtype == np.uint8
            assert masks.channel(c).tobytes() == reference.channel(c).tobytes()
        return real(masks, *args)

    try:
        expected = [real(reference) for reference in references]
    except MissingChannelError as exc:
        expected = exc
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(unc, "assess_scan", spy)
        if isinstance(expected, MissingChannelError):
            with pytest.raises(MissingChannelError, match=f"^{re.escape(str(expected))}$"):
                uncertainty_sweep(field_stream(*field), ks, threshold)
            return
        entries = uncertainty_sweep(field_stream(*field), ks, threshold)
    assert len(received) == len(ks)
    assert [e.k for e in entries] == [float(k) for k in ks]
    for entry, (reports, category) in zip(entries, expected):
        assert entry.reports == reports
        assert list(entry.reports) == list(reports)
        assert entry.category is category


class TestSweepEquivalence:
    """Every graded mask of a sweep is the reference sigma mask, and every entry grades it."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=SIZES,
        special_share=st.sampled_from([0.0, 0.3, 1.0]),
        ks=st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 2.0]), KS), min_size=1, max_size=5),
        threshold=THRESHOLDS,
        channels=st.one_of(
            st.permutations(STANDARD_CHANNELS),
            st.lists(st.sampled_from(STANDARD_CHANNELS), min_size=1, max_size=6, unique=True),
        ),
    )
    def test_masks_and_entries(self, seed, size, special_share, ks, threshold, channels):
        # each channel's mean and std drawn independently, -0.0, 0 and 1 included
        vols = _random_volumes(np.random.default_rng(seed), 2 * len(channels), size, special_share)
        mean, std = (
            make_prob(np.concatenate([v.data for v in vols[i::2]]), channels=channels) for i in (0, 1)
        )
        assert_sweep_matches_reference(Field(mean, std, "epistemic"), ks, threshold)

    def test_more_distinct_ks_than_uint8_counts(self, rng):
        # 300 distinct ks: a uint8 level would wrap at a voxel held at all of them
        shape = (3, 1, 4, 4)
        mean, std = rng.random(shape, dtype=np.float32), rng.random(shape, dtype=np.float32) * 0.2
        mean[:, :, 0], std[:, :, 0] = 0.9, 0.0  # held at every k
        ks = np.linspace(-3.0, 3.0, 300)
        ks = list(rng.permutation(np.concatenate([ks, ks[:7]])))
        channels = (ChannelId.ARTERY, ChannelId.VEIN, ChannelId.TUMOR)
        field = Field(make_prob(mean, channels), make_prob(std, channels), "epistemic")
        assert_sweep_matches_reference(field, ks, 0.5)


class TestZeroStdLevels:
    """A zero-std block is held where its mean reaches the threshold, compared in float64.

    float32(0.7) and float32(0.9) lie below 0.7 and 0.9, so a comparison
    done in float32 (a float32 array against a Python float, NEP 50)
    would hold them.
    """

    @pytest.mark.parametrize("threshold", [0.7, 0.9])
    def test_float32_neighbours_of_threshold(self, threshold):
        t = np.float32(threshold)
        near = np.array([np.nextafter(t, np.float32(0)), t, np.nextafter(t, np.float32(1))])
        size = _BLOCK + 40  # a second, partial block in every channel
        mean = np.resize(near, (6, 1, 1, size))
        std = np.zeros_like(mean)
        std[:, :, :, :_BLOCK:2] = -0.0
        std[1, :, :, _BLOCK + 1] = 0.25  # one channel's second block takes the float64 path
        field = Field(make_prob(mean), make_prob(std), "epistemic")
        for k in (-2.0, 0.0, 1.5):
            assert_same_bytes(sigma_level_mask(field_stream(*field), k, threshold),
                              sigma_level_mask_reference(field, k, threshold))
        assert not sigma_level_mask(field_stream(*field), 0.0, threshold).data[..., 1].any()
        assert_sweep_matches_reference(field, [2.0, -1.0, 0.0, 1.0, 2.0], threshold)


class TestSweepValidation:
    def test_empty_ks_reads_no_channel(self):
        field = field_stream(prob_of(0.5), prob_of(0.1))  # tumor only
        assert uncertainty_sweep(field, []) == []

    @pytest.mark.parametrize("channels", [
        (ChannelId.ARTERY, ChannelId.VEIN),
        (ChannelId.VEIN, ChannelId.TUMOR),
        (ChannelId.ARTERY, ChannelId.TUMOR),
        (ChannelId.VEIN,),
        (ChannelId.PANCREAS,),
    ], ids=["no-tumor", "no-artery", "no-vein", "vein-only", "pancreas-only"])
    def test_missing_graded_channel_rejected_before_the_pass(self, channels):
        """The kernel's message, for the first channel it would miss, and no block computed."""
        shape = (len(channels), 1, 2, 2)
        with pytest.raises(MissingChannelError) as kernel:
            assess_scan(make_mask(np.zeros(shape), channels))
        field = field_stream(*(make_prob(np.full(shape, v), channels) for v in (0.5, 0.1)))
        with pytest.raises(MissingChannelError, match=f"^{re.escape(str(kernel.value))}$"):
            uncertainty_sweep(field, [0.0])
        assert inspect.getgeneratorstate(field.blocks) == inspect.GEN_CREATED

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
    def test_non_finite_k_rejected(self, k):
        field = field_stream(prob_of(0.5), prob_of(0.1))
        with pytest.raises(ValueError, match=f"sigma level k must be finite, got {k}"):
            uncertainty_sweep(field, [0.0, k])
        assert inspect.getgeneratorstate(field.blocks) == inspect.GEN_CREATED


class TestSweepMemory:
    """The sweep masks only the graded channels and gathers only within a block.

    tracemalloc sees numpy buffers; the peak is measured in uint8 grids of
    one 16x128x128 channel. Grading is stubbed out: on an all-ones mask the
    involvement kernel alone peaks near 300 grids, which would hide the
    masks. Masking all six channels for every k peaked at 7.281 grids on
    the sparse field and at 7.272 on the dense one, where every voxel passes
    the largest k; int64 indices of a whole-channel gather alone take 8.
    """

    @staticmethod
    def field():
        gen = np.random.default_rng(5)
        shape = (6, 16, 128, 128)
        mean = np.zeros(shape, np.float32)
        mean[:, 4:12, 40:88, 40:88] = gen.random((6, 8, 48, 48), dtype=np.float32)
        std = gen.random(shape, dtype=np.float32) * np.float32(0.2)
        return field_stream(make_prob(mean), make_prob(std))

    @pytest.mark.parametrize("threshold, bound", [(0.5, 7.29), (0.0, 7.28)], ids=["sparse", "dense"])
    def test_peak_in_grids(self, monkeypatch, threshold, bound):
        field = self.field()
        calls = []

        def ungraded(masks, *args):
            calls.append(masks.channels)
            return {}, None

        monkeypatch.setattr(unc, "assess_scan", ungraded)
        tracemalloc.start()
        try:
            uncertainty_sweep(field, threshold=threshold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == len(unc.DEFAULT_KS)
        assert peak / (16 * 128 * 128) <= bound

    def test_graded_reports_drop_their_tables(self):
        """Graded, the dense field keeps one k's component tables alive, not all four.

        Every voxel of every graded channel passes each k, so each k's
        tables hold every vessel voxel as a contact voxel. Returning the
        reports with their tables peaked at 292.2 grids; without them, at
        148.1.
        """
        field = self.field()
        tracemalloc.start()
        try:
            entries = uncertainty_sweep(field, threshold=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (16 * 128 * 128) <= 160
        assert all(r.table is None for e in entries for r in e.reports.values())


class TestStreamedCli:
    """The ``uncertainty`` command's one pass writes and grades what the library computes.

    Its payloads equal ``write_volume`` of the collected ``fold_mean_std``
    or ``sample_mean_std``, and the masks it grades, and so its level
    grids, equal those of a sweep over the collected field and the
    reference sigma masks.

    The channel sizes (4551, 14 and 43165 voxels) are not multiples of
    ``_BLOCK``, so each channel ends on a short block, and the next
    channel's first block starts at its first voxel: each level grid is
    filled from whole blocks of its own channel.
    """

    @staticmethod
    def graded_masks(monkeypatch) -> list[bytes]:
        """Spy on ``assess_scan``: the bytes of each mask volume it grades, in order."""
        seen = []
        real = unc.assess_scan

        def spy(masks, *args):
            seen.append(b"".join(masks.channel(c).tobytes() for c in masks.channels))
            return real(masks, *args)

        monkeypatch.setattr(unc, "assess_scan", spy)
        return seen

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        dims=st.sampled_from([(3, 37, 41), (2, 1, 7), (5, 97, 89)]),
        channels=st.permutations(STANDARD_CHANNELS),
        folds_of_samples=st.booleans(),
        counts=st.lists(st.integers(2, 3), min_size=1, max_size=3),
        special_share=st.sampled_from([0.0, 0.3]),
        ks=st.lists(KS, min_size=1, max_size=3),
        threshold=THRESHOLDS,
    )
    def test_outputs_equal_library(
        self, seed, dims, channels, folds_of_samples, counts, special_share, ks, threshold
    ):
        from vesselwrap import cli

        gen = np.random.default_rng(seed)
        depth, h, w = dims
        coarse = (len(channels), depth, -(-h // 8), -(-w // 8))

        def member():
            # values drawn per 8x8 patch, so each sigma mask has few components
            data = _random_volumes(gen, 1, math.prod(coarse), special_share)[0].data
            data = data.reshape(coarse).repeat(8, axis=2).repeat(8, axis=3)[:, :, :h, :w]
            return make_prob(data, channels=channels)

        if folds_of_samples:
            members = [[member() for _ in range(n)] for n in counts]
            field = collect(sample_mean_std([tuple(f) for f in members]))
        else:
            members = [[member()] for _ in range(counts[0])]
            field = collect(fold_mean_std([f[0] for f in members]))
        with pytest.MonkeyPatch.context() as patch:
            want_masks = self.graded_masks(patch)
            entries = uncertainty_sweep(field_stream(*field), ks, threshold)
        want_sweep = [{"k": float(e.k), **cli._grading_dict(e.reports, e.category)} for e in entries]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_volume(field.mean, tmp / "want" / "mean.json")
            write_volume(field.std, tmp / "want" / "std.json")
            argv = ["uncertainty"]
            for i, fold in enumerate(members):
                for j, vol in enumerate(fold):
                    name = f"f{i}/s{j}.json" if folds_of_samples else f"f{i}.json"
                    write_volume(vol, tmp / name)
                argv += ["--fold", str(tmp / (f"f{i}" if folds_of_samples else f"f{i}.json"))]
            # positional notation, exact, so that argparse takes a negative k for a number
            argv += ["--out", str(tmp / "out"), "--threshold", str(threshold), "--ks",
                     *(np.format_float_positional(k, trim="0") for k in ks)]
            with pytest.MonkeyPatch.context() as patch:
                got_masks = self.graded_masks(patch)
                assert cli.main(argv) == 0
            for name in ("mean.json", "mean.raw", "std.json", "std.raw"):
                assert (tmp / "out" / name).read_bytes() == (tmp / "want" / name).read_bytes()
            doc = json.loads((tmp / "out" / "uncertainty.json").read_text())
        graded = [c for c in channels if c in (ChannelId.TUMOR, ChannelId.ARTERY, ChannelId.VEIN)]
        references = [sigma_level_mask_reference(field, k, threshold) for k in ks]
        assert want_masks == [b"".join(r.channel(c).tobytes() for c in graded) for r in references]
        assert got_masks == want_masks
        assert doc["uncertainty_kind"] == field.kind
        assert doc["sweep"] == want_sweep
