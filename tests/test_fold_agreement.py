"""``tools/fold_agreement.py`` counts the blocks the statistics pass takes as agreeing."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from vesselwrap import uncertainty
from vesselwrap.volume import STANDARD_CHANNELS, ChannelId, ProbVolume, Spacing, write_volume

ROOT = Path(__file__).resolve().parent.parent
B = uncertainty._BLOCK


def tool():
    spec = importlib.util.spec_from_file_location("fold_agreement", ROOT / "tools" / "fold_agreement.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def folds() -> list[np.ndarray]:
    """Five whole blocks and a 100-voxel tail; blocks 1 and 2 differ, block 3 only in zero's sign."""
    base = np.random.default_rng(0).random(5 * B + 100, dtype=np.float32)
    base[3 * B:4 * B] = 0.0
    out = [base.copy() for _ in range(3)]
    out[2][2 * B - 1] += np.float32(0.25)  # past the first voxel
    out[1][2 * B] += np.float32(0.25)  # at it
    out[1][3 * B:4 * B] = -0.0
    return out


def volumes() -> list[ProbVolume]:
    """The folds as one-channel volumes."""
    return [ProbVolume(f.reshape(1, 1, 1, -1), (ChannelId.TUMOR,), Spacing(1.0, 1.0, 1.0))
            for f in folds()]


def test_counts_match_the_statistics_shortcut():
    agree, late, early, same, total = tool().agreement(volumes())
    assert (agree, late, early) == (4, 1, 1)
    assert (same, total) == (5 * B + 98, 5 * B + 100)
    # the blocks counted as agreeing are the ones whose std the pass gives as zero
    zero = [not s.any() for _, s in uncertainty.fold_mean_std(volumes()).blocks]
    assert sum(zero) == agree


def test_main_reads_payloads(tmp_path, capsys):
    names = []
    for i, f in enumerate(folds()):
        names.append(str(tmp_path / f"fold{i}.json"))
        data = np.zeros((len(STANDARD_CHANNELS), 1, 1, f.size), np.float32)
        data[0].reshape(-1)[:] = f
        write_volume(ProbVolume(data, STANDARD_CHANNELS, Spacing(1.0, 1.0, 1.0)), names[-1])
    assert tool().main(names) == 0
    first, second = capsys.readouterr().out.splitlines()
    blocks = int(first.split()[1].rstrip(":"))  # the zero channels' blocks all agree
    assert first == f"blocks {blocks}: agree {blocks - 2}, differ past the first voxel 1, differ at it 1"
    assert second == f"voxels equal in every fold: {100 * (6 * (5 * B + 100) - 2) / (6 * (5 * B + 100)):.3f}%"


def test_rejected_fold_reported_in_one_line(tmp_path, capsys):
    """A fold the pass rejects, after its last block, is named in one error line."""
    data = np.zeros((1, 1, 1, 3 * B), np.float32)
    for name in ("good", "bad"):
        write_volume(ProbVolume(data, (ChannelId.TUMOR,), Spacing(1.0, 1.0, 1.0)),
                     tmp_path / f"{name}.json")
    payload = np.fromfile(tmp_path / "bad.raw", "<f4")
    payload[-1] = np.nan
    payload.tofile(tmp_path / "bad.raw")
    with pytest.raises(SystemExit) as exit_:
        tool().main([str(tmp_path / "good.json"), str(tmp_path / "bad.json")])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {tmp_path / 'bad.json'}: probability values non-finite or "
                            "outside tolerated range: min=nan, max=nan\n")
