import argparse
import builtins
import collections
import contextlib
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vesselwrap import cli, volume
from vesselwrap.involvement import filter_critical_volume
from vesselwrap.overlay import COLOR_CENTROID, COLOR_CONTACT
from vesselwrap.loss import bce, combined_loss, overlap_loss, soft_dice_loss
from vesselwrap.phantom import PhantomSpec, gen_uncertainty_scene, gen_wrap_scene
from vesselwrap.volume import (
    CHANNEL_NAMES,
    HEADER_ORDER,
    ChannelId,
    MaskVolume,
    ProbVolume,
    Spacing,
    STANDARD_CHANNELS,
    VolumeFormatError,
    encode_layered,
    read_volume,
    set_voxels,
    write_volume,
)
from conftest import bfs_components, brute_force_contact, open_files, open_payloads


def run(*argv):
    return cli.main([str(a) for a in argv])


def write_scene(tmp_path, name="scene", span=180.0, vessel=ChannelId.VEIN, seed=0):
    spec = PhantomSpec(wrap_span_deg=span, vessel_channel=vessel, jitter_seed=seed)
    scene, truth = gen_wrap_scene(spec)
    write_volume(scene, tmp_path / f"{name}.json")
    return scene, truth


class TestAssess:
    def test_phantom_half_wrap(self, tmp_path, capsys):
        write_scene(tmp_path, span=180.0)
        assert run("assess", tmp_path / "scene.json", "--scan-id", "s1") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "vesselwrap.assessment/1"
        vein = doc["vessels"]["vein"]
        assert vein["present"] is True
        assert vein["max_involvement_deg"] == pytest.approx(180.0, abs=10.0)
        assert doc["dpcg_category"] == "borderline_resectable"
        assert doc["config"]["connectivity"] == 8

    def test_empty_tumor_resectable(self, tmp_path, capsys):
        write_scene(tmp_path, span=0.0)
        assert run("assess", tmp_path / "scene.json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["vessels"]["vein"]["present"] is False
        assert doc["dpcg_category"] == "resectable"

    def test_layered_input_equals_multichannel(self, tmp_path, capsys):
        scene, _ = write_scene(tmp_path, span=135.0)
        write_volume(encode_layered(scene), tmp_path / "layered.json")
        assert run("assess", tmp_path / "scene.json", "--scan-id", "x") == 0
        direct = capsys.readouterr().out
        assert run("assess", tmp_path / "layered.json", "--scan-id", "x") == 0
        layered = capsys.readouterr().out
        assert direct == layered

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{oops")
        assert run("assess", tmp_path / "bad.json") == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_channel_exit_3(self, tmp_path, capsys):
        vol = MaskVolume(
            np.zeros((1, 2, 4, 4), dtype=np.uint8), (ChannelId.VEIN,), Spacing(1, 1, 1)
        )
        write_volume(vol, tmp_path / "veinonly.json")
        assert run("assess", tmp_path / "veinonly.json") == 3

    def test_prob_input_rejected(self, tmp_path):
        vol = ProbVolume(
            np.zeros((1, 1, 2, 2), dtype=np.float32), (ChannelId.TUMOR,), Spacing(1, 1, 1)
        )
        write_volume(vol, tmp_path / "prob.json")
        assert run("assess", tmp_path / "prob.json") == 2

    def test_deterministic_documents(self, tmp_path):
        write_scene(tmp_path, span=120.0)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert run("assess", tmp_path / "scene.json", "--scan-id", "s", "-o", out1) == 0
        assert run("assess", tmp_path / "scene.json", "--scan-id", "s", "-o", out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_directory_leaves_no_temporary(self, tmp_path, capsys):
        """``-o`` naming a directory exits 2 naming it, and its staged document is removed."""
        write_scene(tmp_path)
        target = tmp_path / "d"
        target.mkdir()
        assert run("assess", tmp_path / "scene.json", "-o", target) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{target}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "scene.json", "scene.raw"]
        assert list(target.iterdir()) == []

    def test_overlay_written(self, tmp_path, capsys):
        write_scene(tmp_path, span=90.0)
        overlay_dir = tmp_path / "ppm"
        assert run(
            "assess", tmp_path / "scene.json", "--scan-id", "s",
            "--overlay", overlay_dir, "-o", tmp_path / "doc.json",
        ) == 0
        files = sorted(overlay_dir.glob("*.ppm"))
        assert files
        head = files[0].read_bytes()[:2]
        assert head == b"P6"

    def test_overlay_rerun_rewrites_same_bytes(self, tmp_path):
        write_scene(tmp_path, span=90.0)
        overlay_dir = tmp_path / "ppm"
        argv = ("assess", tmp_path / "scene.json", "--scan-id", "s",
                "--overlay", overlay_dir, "-o", tmp_path / "doc.json")
        assert run(*argv) == 0
        first = {p.name: p.read_bytes() for p in overlay_dir.glob("*.ppm")}
        for name in first:
            with (overlay_dir / name).open("ab") as f:
                f.write(b"stale tail")
        assert run(*argv) == 0
        assert {p.name: p.read_bytes() for p in overlay_dir.glob("*.ppm")} == first

    def test_overlay_pixels_match_contact_oracle(self, tmp_path):
        spec = PhantomSpec(dims=(4, 48, 48), vessel_center=(24.0, 24.0), slice_range=(1, 3),
                           wrap_span_deg=200.0, jitter_seed=4)
        scene, _ = gen_wrap_scene(spec)
        write_volume(scene, tmp_path / "scene.json")
        out = tmp_path / "ppm"
        assert run(
            "assess", tmp_path / "scene.json", "--scan-id", "s",
            "--overlay", out, "-o", tmp_path / "doc.json",
        ) == 0
        tumor, vein = scene.channel(ChannelId.TUMOR), scene.channel(ChannelId.VEIN)
        contacts = {z: brute_force_contact(tumor[z], vein[z]) for z in range(spec.dims[0])}
        files = {int(p.stem[-3:]): p for p in out.glob("s_vein_z*.ppm")}
        assert set(files) == {z for z, c in contacts.items() if c}
        for z, path in files.items():
            rgb = read_ppm(path)
            crosses = set()
            for comp in bfs_components(vein[z], 8):
                if comp & contacts[z]:
                    cr, cc = (int(round(v)) for v in np.mean(sorted(comp), axis=0))
                    crosses |= {
                        (cr + dr, cc + dc)
                        for dr, dc in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1))
                        if 0 <= cr + dr < rgb.shape[0] and 0 <= cc + dc < rgb.shape[1]
                    }
            assert crosses and crosses.isdisjoint(contacts[z])  # the disk centre is no contact
            assert pixels_of(rgb, COLOR_CENTROID) == crosses
            assert pixels_of(rgb, COLOR_CONTACT) == contacts[z]

    def test_critical_filter_drops_embedded_vessel(self, tmp_path, capsys):
        # artery tube embedded in pancreas and touching tumor
        data = np.zeros((6, 3, 8, 8), dtype=np.uint8)
        ai = STANDARD_CHANNELS.index(ChannelId.ARTERY)
        pi = STANDARD_CHANNELS.index(ChannelId.PANCREAS)
        ti = STANDARD_CHANNELS.index(ChannelId.TUMOR)
        data[ai, :, :, 2] = 1
        data[pi, :, :, 1:4] = 1
        data[ti, :, :, 3] = 1
        write_volume(MaskVolume(data, STANDARD_CHANNELS, Spacing(1, 1, 1)), tmp_path / "v.json")
        assert run("assess", tmp_path / "v.json") == 0
        plain = json.loads(capsys.readouterr().out)
        assert plain["vessels"]["artery"]["present"] is True
        assert run("assess", tmp_path / "v.json", "--critical") == 0
        filtered = json.loads(capsys.readouterr().out)
        assert filtered["vessels"]["artery"]["present"] is False

    def test_span_method_flag_honored(self, tmp_path, capsys):
        # arc crossing the 0-degree cut: minmax inflates, largest-gap does not
        write_scene(tmp_path, span=90.0, seed=2)
        spec = PhantomSpec(wrap_span_deg=90.0, wrap_center_deg=0.0, jitter_seed=2)
        scene, _ = gen_wrap_scene(spec)
        write_volume(scene, tmp_path / "cross.json")
        assert run("assess", tmp_path / "cross.json") == 0
        gap = json.loads(capsys.readouterr().out)
        assert run("assess", tmp_path / "cross.json", "--span-method", "minmax") == 0
        literal = json.loads(capsys.readouterr().out)
        assert literal["config"]["span_method"] == "minmax"
        assert gap["vessels"]["vein"]["max_involvement_deg"] == pytest.approx(90.0, abs=10.0)
        assert literal["vessels"]["vein"]["max_involvement_deg"] > 300.0

    def test_sweep_via_fold_flags(self, tmp_path, capsys):
        # assess grades one segmentation; the sweep of the same folds comes from uncertainty
        folds, _ = gen_uncertainty_scene(PhantomSpec(wrap_span_deg=70.0, band_extra_deg=25.0))
        fold_args = []
        for i, fold in enumerate(folds):
            write_volume(fold, tmp_path / f"f{i}.json")
            fold_args += ["--fold", str(tmp_path / f"f{i}.json")]
        assert run("uncertainty", *fold_args, "--out", tmp_path / "u") == 0
        doc = json.loads((tmp_path / "u" / "uncertainty.json").read_text())
        cats = [e["dpcg_category"] for e in doc["sweep"]]
        assert cats == ["resectable", "resectable", "resectable", "borderline_resectable"]
        assert doc["config"]["ks"] == [-1.0, 0.0, 1.0, 2.0]


def read_ppm(path) -> np.ndarray:
    magic, size, depth, data = path.read_bytes().split(b"\n", 3)
    assert (magic, depth) == (b"P6", b"255")
    width, height = map(int, size.split())
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3)


def pixels_of(rgb: np.ndarray, color) -> set[tuple[int, int]]:
    return set(map(tuple, np.argwhere((rgb == color).all(axis=-1)).tolist()))


def _tav_header(**fields) -> dict:
    header = {
        "dims": [1, 4, 4],
        "spacing_mm": [1.0, 1.0, 1.0],
        "dtype": "u8",
        "order": "channel-major,z,y,x",
        "channels": ["artery", "vein", "tumor"],
    }
    header.update(fields)
    return header


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err


def write_cli_inputs(tmp_path) -> dict[str, str]:
    """A wrap scene, a one-entry manifest on it and a loss pair; paths by name."""
    scene, _ = write_scene(tmp_path)
    (tmp_path / "manifest.jsonl").write_text(
        json.dumps({"scan_id": "s", "prediction": "scene.json", "ground_truth": "scene.json"}) + "\n"
    )
    write_volume(scene, tmp_path / "gt.json")
    pred = ProbVolume(0.1 + 0.8 * scene.data.astype(np.float32), scene.channels, scene.spacing)
    write_volume(pred, tmp_path / "pred.json")
    names = ("scene.json", "manifest.jsonl", "pred.json", "gt.json", "out")
    return {name.split(".")[0]: str(tmp_path / name) for name in names}


class TestInputBoundary:
    @pytest.mark.parametrize(
        "fields",
        [
            {"dims": ["a", 4, 4]},
            {"dims": [1.7, 4, 4]},
            {"spacing_mm": [1, 1]},
            {"spacing_mm": [-1, 1, 1]},
            {"channels": ["artery", "vein", "vein"]},
        ],
        ids=["dims-not-a-number", "dims-fractional", "spacing-two-entries",
             "spacing-negative", "duplicate-channels"],
    )
    def test_bad_header_exit_2(self, tmp_path, capsys, fields):
        (tmp_path / "v.json").write_text(json.dumps(_tav_header(**fields)))
        (tmp_path / "v.raw").write_bytes(bytes(3 * 16))  # fits 3 channels of 1x4x4
        assert run("assess", tmp_path / "v.json") == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "flags",
        [["--ks", "nan"], ["--ks", "0", "inf"], ["--ks=-inf"], ["--threshold", "nan"]],
        ids=["ks-nan", "ks-inf", "ks-minus-inf", "threshold-nan"],
    )
    def test_non_finite_sweep_params_exit_2(self, tmp_path, capsys, flags):
        folds, _ = gen_uncertainty_scene(PhantomSpec(wrap_span_deg=70.0, band_extra_deg=25.0))
        fold_args = []
        for i, fold in enumerate(folds[:2]):
            write_volume(fold, tmp_path / f"f{i}.json")
            fold_args += ["--fold", tmp_path / f"f{i}.json"]
        out = tmp_path / "out"
        assert run("uncertainty", *fold_args, "--out", out, *flags) == 2
        assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["uncertainty", "--fold", "{pred}", "--fold", "{pred}", "--out", "{out}",
              "--threshold", "nan"], "--threshold must be finite, got nan"),
            (["loss", "{pred}", "{gt}", "--beta=-inf"], "--beta must be finite, got -inf"),
            (["phantom", "wrap", "--out", "{out}", "--center-deg", "nan"],
             "--center-deg must be finite, got nan"),
            (["phantom", "uncertainty", "--out", "{out}", "--ks", "0", "inf"],
             "--ks must be finite, got inf"),
        ],
        ids=["uncertainty-threshold", "loss-beta", "phantom-center", "phantom-ks"],
    )
    def test_non_finite_flag_exit_2(self, tmp_path, capsys, argv, error):
        paths = write_cli_inputs(tmp_path)
        assert run(*(a.format(**paths) for a in argv)) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["assess", "{scene}", "-o", "{out}", "--fold", "fold.json"],
            ["assess", "{scene}", "-o", "{out}", "--ks", "3"],
            ["assess", "{scene}", "-o", "{out}", "--threshold", "0.4"],
            ["evaluate", "{manifest}", "--threshold", "inf"],
            ["uncertainty", "--fold", "{pred}", "--out", "{out}", "--filter-mode", "component"],
            ["phantom", "confusion", "--out", "{out}", "--radius", "12"],
            ["phantom", "wrap", "--out", "{out}", "--ks", "3"],
        ],
        ids=["assess-fold", "assess-ks", "assess-threshold", "evaluate-threshold", "uncertainty-filter-mode",
             "phantom-confusion-radius", "phantom-wrap-ks"],
    )
    def test_undeclared_flag_exit_2(self, tmp_path, capsys, argv):
        # A flag the command would not read is a usage error, not a config echo.
        paths = write_cli_inputs(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(*(a.format(**paths) for a in argv))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["assess", "evaluate"])
    def test_filter_mode_without_critical_exit_2(self, tmp_path, capsys, command):
        # --filter-mode only picks how --critical filters; alone it would filter nothing
        paths = write_cli_inputs(tmp_path)
        source = paths["scene" if command == "assess" else "manifest"]
        assert run(command, source, "--filter-mode", "component", "-o", paths["out"]) == 2
        assert capsys.readouterr().err == "error: --filter-mode acts only with --critical\n"
        assert not (tmp_path / "out").exists()
        assert run(command, source, "-o", paths["out"]) == 0
        assert json.loads(Path(paths["out"]).read_text())["config"]["filter_mode"] == "voxel"

    @pytest.mark.parametrize(
        "argv",
        [
            ["loss", "{pred}", "{gt}", "--beta", "2"],
            ["loss", "{pred}", "{gt}", "--alpha-w", "nan"],
            ["phantom", "wrap", "--out", "{out}", "--radius", "1"],
            ["phantom", "wrap", "--out", "{out}", "--span", "400"],
        ],
        ids=["loss-beta-2", "loss-alpha-w-nan", "phantom-radius-1", "phantom-span-400"],
    )
    def test_rejected_parameter_exit_2_without_traceback(self, tmp_path, capsys, argv):
        paths = write_cli_inputs(tmp_path)
        assert run(*(a.format(**paths) for a in argv)) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["assess", "{out}"],
            ["assess", "{scene}", "-o", "{gt}/x.json"],
            ["assess", "{scene}", "--overlay", "{gt}"],
        ],
        ids=["assess-directory", "output-under-file", "overlay-is-file"],
    )
    def test_bad_path_exit_2(self, tmp_path, capsys, argv):
        paths = write_cli_inputs(tmp_path)
        Path(paths["out"]).mkdir()
        assert run(*(a.format(**paths) for a in argv)) == 2
        assert_one_line_error(capsys)

    def test_directory_entry_counts_as_failure(self, tmp_path, capsys):
        write_cli_inputs(tmp_path)
        (tmp_path / "sub").mkdir()
        manifest = write_manifest(
            tmp_path,
            [
                {"scan_id": "ok", "prediction": "scene.json", "ground_truth": "gt.json"},
                {"scan_id": "dir", "prediction": "sub", "ground_truth": "gt.json"},
            ],
            name="dirs.jsonl",
        )
        assert run("evaluate", manifest) == 4
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["n_scans"] == 1
        assert [f.split(":")[0] for f in doc["failures"]] == ["dir"]
        assert captured.err.startswith("error: dir: ") and "Traceback" not in captured.err

    @pytest.mark.parametrize("nan", [False, True], ids=["clean", "nan"])
    def test_probabilities_rejected_before_any_voxel(self, tmp_path, capsys, monkeypatch, nan):
        """assess and evaluate reject a fold from its header and read no payload of it."""
        folds, _ = gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))
        fold = tmp_path / "fold.json"
        write_volume(folds[0], fold)
        if nan:
            payload = np.fromfile(tmp_path / "fold.raw", dtype="<f4")
            payload[-1] = np.nan
            payload.tofile(tmp_path / "fold.raw")
        write_scene(tmp_path)
        reads = []
        monkeypatch.setattr(volume, "prob_chunks", lambda *a: reads.append(a) or iter(()))
        message = f"{fold}: expected a mask or layered-label volume, got probabilities"
        assert run("assess", fold) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = write_manifest(tmp_path, [
            {"scan_id": "fold", "prediction": "fold.json", "ground_truth": "scene.json"},
            {"scan_id": "ok", "prediction": "scene.json", "ground_truth": "scene.json"},
        ])
        assert run("evaluate", manifest) == 4
        captured = capsys.readouterr()
        assert json.loads(captured.out)["failures"] == [f"fold: {message}"]
        assert captured.err == f"error: fold: {message}\n"
        assert reads == []

    def test_nan_probability_exit_2(self, tmp_path, capsys):
        # artery, vein and tumor: a field lacking one is refused before its values are read
        header = _tav_header(dims=[1, 2, 2], dtype="f32")
        (tmp_path / "f.json").write_text(json.dumps(header))
        (tmp_path / "f.raw").write_bytes(np.tile(np.array([0.0, np.nan, 0.5, 1.0], "<f4"), 3).tobytes())
        fold = tmp_path / "f.json"
        assert run("uncertainty", "--fold", fold, "--fold", fold, "--out", tmp_path / "o") == 2
        assert_one_line_error(capsys)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(2**70), 2**70), st.lists(st.integers(0, 3), max_size=2),
)
_CHANNEL_NAMES = sorted(CHANNEL_NAMES.values())
# malformed values per header field: list entries for dims/spacing/channels, whole values else
_BAD_VALUES = {
    "dims": [0, -1, 1.0, 2.0, 2.5, True, None, "2", [1], 10**20, 2**63],
    "spacing_mm": [0, 0.0, -1.0, float("nan"), float("inf"), "1.0", None, True, 10**400],
    "channels": ["bogus", "tumor", "Tumor", 3, None],
    "dtype": ["f64", "U8", "", None, 8],
    "order": ["z,y,x", "", None],
}


@st.composite
def _fuzz_header(draw) -> dict:
    """A valid header with up to two fields malformed, resized or dropped."""
    header = {
        "dims": draw(st.lists(st.integers(1, 4), min_size=3, max_size=3)),
        "spacing_mm": draw(st.lists(st.floats(0.1, 3.0), min_size=3, max_size=3)),
        "dtype": draw(st.sampled_from(["u8", "f32"])),
        "order": HEADER_ORDER,
        "channels": draw(st.one_of(
            st.none(), st.lists(st.sampled_from(_CHANNEL_NAMES), unique=True, max_size=4)
        )),
    }
    keys = draw(st.permutations(sorted(header)))
    for key in keys[: draw(st.sampled_from([0, 1, 1, 1, 2]))]:
        how = draw(st.sampled_from(["entry", "entry", "length", "drop", "junk"]))
        value = header[key]
        if how == "drop":
            del header[key]
        elif how == "junk":
            header[key] = draw(_JUNK)
        elif not isinstance(value, list) or not value:
            header[key] = draw(st.sampled_from(_BAD_VALUES[key]))
        elif how == "length":
            header[key] = value[:-1] if draw(st.booleans()) else value + value[:1]
        else:
            value[draw(st.integers(0, len(value) - 1))] = draw(st.sampled_from(_BAD_VALUES[key]))
    return header


def _exact_payload_length(header: dict) -> int | None:
    """The payload length read_volume expects, when the header makes that computable."""
    dims, names = header.get("dims"), header.get("channels")
    if not (isinstance(dims, list) and len(dims) == 3):
        return None
    # fractional dims too, so a length that fits their product reaches the payload read
    if not all(isinstance(d, (int, float)) and not isinstance(d, bool) and 0 < d <= 5
               for d in dims):
        return None
    grids = len(names) if isinstance(names, list) else 1
    return int(grids * dims[0] * dims[1] * dims[2] * (4 if header.get("dtype") == "f32" else 1))


class TestHeaderFuzz:
    """Any header and payload length: a volume or VolumeFormatError, exit 0/2/3, no traceback."""

    @settings(max_examples=400, deadline=None)
    @given(
        header=_fuzz_header(),
        length_kind=st.sampled_from(["exact", "exact", "short", "long", "any"]),
        any_length=st.integers(0, 600),
        payload_seed=st.integers(0, 2**32 - 1),
        valid_values=st.booleans(),
    )
    def test_read_volume_and_assess(self, header, length_kind, any_length, payload_seed,
                                    valid_values):
        exact = _exact_payload_length(header)
        length = {"exact": exact, "short": exact and exact - 1, "long": exact and exact + 4}.get(
            length_kind
        )
        length = any_length if length is None else length
        gen = np.random.default_rng(payload_seed)
        if not valid_values:
            payload = gen.integers(0, 256, length, dtype=np.uint8).tobytes()
        elif header.get("dtype") == "f32":
            payload = gen.random(length // 4, dtype=np.float32).astype("<f4").tobytes()
            payload += bytes(length % 4)
        else:
            payload = gen.integers(0, 2, length, dtype=np.uint8).tobytes()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "v.json"
            path.write_text(json.dumps(header))
            path.with_suffix(".raw").write_bytes(payload)
            try:
                vol = read_volume(path)
            except VolumeFormatError:
                vol = None
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["assess", str(path)])
        if vol is None or isinstance(vol, ProbVolume):
            assert code == 2
        else:
            assert code in (0, 3)
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
        else:
            assert err.getvalue() == ""


class TestOversizeDims:
    """Channel-free headers whose dims overflow numpy pass the size check with an empty payload."""

    @pytest.mark.parametrize("dims", [[10**20, 1, 1], [2**40, 2**40, 1], [2**31, 2**31, 4]])
    def test_assess_exits_2_naming_dims(self, tmp_path, capsys, dims):
        header = {"dims": dims, "spacing_mm": [1.0, 1.0, 1.0], "dtype": "u8",
                  "order": HEADER_ORDER, "channels": []}
        (tmp_path / "v.json").write_text(json.dumps(header))
        (tmp_path / "v.raw").write_bytes(b"")
        with pytest.raises(VolumeFormatError, match=r"bad dims"):
            read_volume(tmp_path / "v.json")
        assert run("assess", tmp_path / "v.json") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: bad dims {dims!r}")


class TestAssessMemory:
    """assess holds voxel indices, never a grid, and the filter allocates none.

    tracemalloc sees numpy buffers; the peak is measured in grids of the
    sparse 20x256x256 scene. Reading all six channels and copying the stack
    in the filter peaked at 13.2 grids (six channels) and 9.0 (layered).
    Keeping the four graded grids peaked at 5.29 and 5.15 grids. Streaming
    every payload into voxel indices peaks at about 1.1 and 0.95 grids,
    mostly the 1 MiB read buffer (0.8 grids); the kernels add arrays per
    set voxel, not grids.
    """

    SPEC = PhantomSpec(dims=(20, 256, 256), slice_range=(1, 19), vessel_center=(128.0, 128.0),
                       pancreas_center=(128.0, 138.0), pancreas_radius_px=4.0, jitter_seed=3)

    @pytest.mark.parametrize("layered, bound", [(False, 1.5), (True, 1.5)])
    def test_peak_in_grids(self, tmp_path, capsys, layered, bound):
        scene, _ = gen_wrap_scene(self.SPEC)
        write_volume(encode_layered(scene) if layered else scene, tmp_path / "v.json")
        tracemalloc.start()
        try:
            code = run("assess", tmp_path / "v.json", "--critical", "--filter-mode", "component",
                       "--overlay", tmp_path / "ov")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / scene.channel(ChannelId.VEIN).nbytes <= bound

    def cut_scene(self):
        """The scene with its vein cut in two at slice 10 and the pancreas on the lower part.

        The component filter drops that part, and contact is left to draw.
        """
        scene, _ = gen_wrap_scene(self.SPEC)
        data = scene.data.copy()
        data[scene.channel_index(ChannelId.VEIN), 10] = 0
        data[scene.channel_index(ChannelId.PANCREAS), 10:] = 0
        scene = MaskVolume(data, scene.channels, scene.spacing)
        filtered = filter_critical_volume(scene, "component").channel(ChannelId.VEIN)
        assert 0 < filtered.sum() < scene.channel(ChannelId.VEIN).sum()
        return scene

    @pytest.mark.parametrize("layered", [False, True])
    def test_each_kept_channel_scanned_once(self, tmp_path, capsys, monkeypatch, layered):
        """Reading, decoding, filtering, grading and overlays share one indexing per grid.

        The six-channel file has each of the four kept channels indexed
        once, in full, buffer by buffer; the layered file has only its
        label grid indexed, and the decode works from its labelled voxels.
        Nothing is indexed after the read: not the filtered vein, not a
        decoded channel.
        """
        scene = self.cut_scene()
        write_volume(encode_layered(scene) if layered else scene, tmp_path / "v.json")
        indexed = []

        def spy(grid):
            indexed.append(np.asarray(grid).size)
            return set_voxels(grid)

        monkeypatch.setattr(volume, "set_voxels", spy)
        assert run("assess", tmp_path / "v.json", "--critical", "--filter-mode", "component",
                   "--overlay", tmp_path / "ov") == 0
        assert any((tmp_path / "ov").iterdir())
        grid = scene.channel(ChannelId.VEIN).size
        assert grid > volume._STREAM_BYTES
        per_grid = [volume._STREAM_BYTES, grid - volume._STREAM_BYTES]
        assert indexed == per_grid * (1 if layered else len(cli.ASSESS_CHANNELS))

    @pytest.mark.parametrize("layered", [False, True])
    def test_each_voxel_value_checked_once(self, tmp_path, capsys, monkeypatch, layered):
        """Each payload voxel is value-checked once, at the read.

        The grids the program builds (the read stack, the decoded channels,
        the filtered vein) reach the value rule as bool or not at all, so
        the voxels it scans add up to the payload's voxel count.
        """
        scene = self.cut_scene()
        write_volume(encode_layered(scene) if layered else scene, tmp_path / "v.json")
        checked = []
        small_ints = volume._small_ints

        def spy(arr, top, message):
            if arr.dtype != bool:
                checked.append(arr.size)
            return small_ints(arr, top, message)

        monkeypatch.setattr(volume, "_small_ints", spy)
        assert run("assess", tmp_path / "v.json", "--critical", "--filter-mode", "component",
                   "--overlay", tmp_path / "ov") == 0
        assert any((tmp_path / "ov").iterdir())
        grids = 1 if layered else len(scene.channels)
        assert sum(checked) == grids * scene.channel(ChannelId.VEIN).size


class TestStreamedReadErrors:
    """A bad value or a cut payload in the last of many small buffers: the same error and exit 2."""

    DIMS = (3, 5, 7)  # 105 voxels: not a multiple of the buffer or of 8

    def six_channels(self, tmp_path):
        payload = np.zeros((len(STANDARD_CHANNELS),) + self.DIMS, dtype=np.uint8)
        payload[:, 1, 2, 3] = 1
        write_volume(MaskVolume(payload, STANDARD_CHANNELS, Spacing(1, 1, 1)), tmp_path / "v.json")
        return payload.copy()  # the volume froze its input

    @pytest.mark.parametrize("stream_bytes", [1, 8, 13])
    def test_bad_voxel_in_channel_not_kept(self, tmp_path, capsys, monkeypatch, stream_bytes):
        payload = self.six_channels(tmp_path)
        channel = STANDARD_CHANNELS.index(ChannelId.COMMON_BILE_DUCT)
        assert ChannelId.COMMON_BILE_DUCT not in cli.ASSESS_CHANNELS
        payload[channel, -1, -1, -1] = 2
        (tmp_path / "v.raw").write_bytes(payload.tobytes())
        monkeypatch.setattr(volume, "_STREAM_BYTES", stream_bytes)
        assert run("assess", tmp_path / "v.json") == 2
        assert capsys.readouterr().err == "error: mask voxels must be 0 or 1\n"

    @pytest.mark.parametrize("stream_bytes", [1, 8, 13])
    def test_label_9_in_last_buffer(self, tmp_path, capsys, monkeypatch, stream_bytes):
        labels = np.zeros(self.DIMS, dtype=np.uint8)
        labels[0, 0, :3] = (4, 8, 6)
        write_volume(volume.LayeredLabelVolume(labels, Spacing(1, 1, 1)), tmp_path / "l.json")
        labels = labels.copy()  # the volume froze its input
        labels[-1, -1, -1] = 9
        (tmp_path / "l.raw").write_bytes(labels.tobytes())
        monkeypatch.setattr(volume, "_STREAM_BYTES", stream_bytes)
        assert run("assess", tmp_path / "l.json") == 2
        assert capsys.readouterr().err == "error: layered labels must lie in 0..8\n"

    @pytest.mark.parametrize("layered", [False, True])
    @pytest.mark.parametrize("stream_bytes", [1, 8, 13])
    def test_payload_shrinks_mid_read(self, tmp_path, capsys, monkeypatch, layered, stream_bytes):
        if layered:
            write_volume(volume.LayeredLabelVolume(np.ones(self.DIMS, np.uint8), Spacing(1, 1, 1)),
                         tmp_path / "v.json")
        else:
            self.six_channels(tmp_path)
        size = (tmp_path / "v.raw").stat().st_size
        checked = cli.open_payload

        def cut(header):
            payload = checked(header)
            with open(payload.raw, "r+b") as fh:
                fh.truncate(size - 1)
            return payload

        # the command's one header parse, whose Payload read_volume then reads
        monkeypatch.setattr(cli, "open_payload", cut)
        monkeypatch.setattr(volume, "_STREAM_BYTES", stream_bytes)
        assert run("assess", tmp_path / "v.json") == 2
        assert capsys.readouterr().err == f"error: payload {tmp_path / 'v.raw'} shrank while being read\n"


def write_manifest(tmp_path, entries, name="manifest.jsonl"):
    lines = [json.dumps(e) for e in entries]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestEvaluate:
    def test_self_manifest(self, tmp_path, capsys):
        for i, seed in enumerate((1, 2, 3)):
            write_scene(tmp_path, name=f"s{i}", span=100.0 + 10 * i, seed=seed)
        manifest = write_manifest(
            tmp_path,
            [
                {"scan_id": f"s{i}", "prediction": f"s{i}.json", "ground_truth": f"s{i}.json"}
                for i in range(3)
            ],
        )
        assert run("evaluate", manifest) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_scans"] == 3
        for stats in doc["dice"].values():
            assert stats["mean"] == 1.0
        conf = doc["involvement"]["scan"]["confusion"]
        assert conf["fp"] == 0 and conf["fn"] == 0
        assert doc["r2_max_involvement"]["vein"]["value"] == 1.0
        assert doc["failures"] == []

    def test_confusion_suite_manifest(self, tmp_path, capsys):
        assert run("phantom", "confusion", "--out", tmp_path / "suite", "--seed", "4") == 0
        capsys.readouterr()
        assert run("evaluate", tmp_path / "suite" / "manifest.jsonl", "--table") == 0
        out = capsys.readouterr().out
        doc = json.loads(out[: out.index("Metric")])
        conf = doc["involvement"]["scan"]["confusion"]
        assert (conf["tp"], conf["fp"], conf["tn"], conf["fn"]) == (5, 5, 5, 5)
        assert "Scan Sensitivity" in out

    def test_partial_failure_exit_4(self, tmp_path, capsys):
        write_scene(tmp_path, name="ok", span=90.0)
        manifest = write_manifest(
            tmp_path,
            [
                {"scan_id": "ok", "prediction": "ok.json", "ground_truth": "ok.json"},
                {"scan_id": "missing", "prediction": "gone.json", "ground_truth": "ok.json"},
            ],
        )
        assert run("evaluate", manifest) == 4
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["n_scans"] == 1
        assert len(doc["failures"]) == 1
        assert "missing" in captured.err

    def test_non_string_path_counts_as_failure(self, tmp_path, capsys):
        write_scene(tmp_path, name="ok", span=90.0)
        manifest = write_manifest(
            tmp_path,
            [
                {"scan_id": "ok", "prediction": "ok.json", "ground_truth": "ok.json"},
                {"scan_id": "bad", "prediction": 5, "ground_truth": "ok.json"},
            ],
        )
        assert run("evaluate", manifest) == 4
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["n_scans"] == 1
        assert doc["failures"] == ["bad: prediction must be a path string, got 5"]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("critical", [False, True], ids=["spacing", "critical-dims"])
    def test_mixed_geometry_is_a_failure(self, tmp_path, capsys, critical):
        """A ground truth of other spacing, or a critical one of other dims, fails its entry."""
        scene, _ = write_scene(tmp_path, name="ok", span=90.0)
        if critical:
            crop = MaskVolume(scene.data[:, :, 32:96, 32:96], scene.channels, scene.spacing)
            write_volume(crop, tmp_path / "other.json")
            bad = {"ground_truth": "ok.json", "critical_ground_truth": "other.json"}
            shown = "critical ground truth (10, 64, 64) at (1.0, 1.0, 1.0) mm"
        else:
            spec = PhantomSpec(wrap_span_deg=90.0, spacing=Spacing(1.0, 0.5, 1.0))
            write_volume(gen_wrap_scene(spec)[0], tmp_path / "other.json")
            bad = {"ground_truth": "other.json"}
            shown = "ground truth (10, 128, 128) at (1.0, 0.5, 1.0) mm"
        manifest = write_manifest(tmp_path, [
            {"scan_id": "ok", "prediction": "ok.json", "ground_truth": "ok.json",
             "critical_ground_truth": "ok.json"},
            {"scan_id": "mixed", "prediction": "ok.json", **bad},
        ])
        assert run("evaluate", manifest, *(["--critical"] if critical else [])) == 4
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["n_scans"] == 1
        assert doc["failures"] == [
            f"mixed: geometry mismatch: prediction (10, 128, 128) at (1.0, 1.0, 1.0) mm, {shown}"]
        assert captured.err == f"error: {doc['failures'][0]}\n"

    def test_unhashable_scan_id_exit_2(self, tmp_path, capsys):
        manifest = write_manifest(
            tmp_path, [{"scan_id": ["a"], "prediction": "s.json", "ground_truth": "s.json"}]
        )
        assert run("evaluate", manifest) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize(
        "folds",
        [[0, "x"], [[1]], [True], ["a", None, 1], [{"k": 1}]],
        ids=["int-then-string", "list", "bool", "string-null-int", "object"],
    )
    def test_bad_fold_labels_exit_2(self, tmp_path, capsys, folds):
        write_scene(tmp_path, name="s", span=90.0)
        manifest = write_manifest(tmp_path, [
            {"scan_id": f"s{i}", "prediction": "s.json", "ground_truth": "s.json", "fold": fold}
            for i, fold in enumerate(folds)
        ])
        assert run("evaluate", manifest) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest line {len(folds)}: fold") and err.count("\n") == 1

    def test_integer_fold_labels_with_null_and_absent(self, tmp_path, capsys):
        write_scene(tmp_path, name="s", span=90.0)
        entries = [{"scan_id": f"s{i}", "prediction": "s.json", "ground_truth": "s.json"} for i in range(4)]
        for entry, fold in zip(entries, [1, None, 0]):
            entry["fold"] = fold
        assert run("evaluate", write_manifest(tmp_path, entries)) == 0
        dice = json.loads(capsys.readouterr().out)["dice"]["tumor"]
        assert dice["std_per_fold"] == 0.0

    def test_duplicate_scan_ids_rejected(self, tmp_path):
        write_scene(tmp_path, name="s", span=90.0)
        manifest = write_manifest(
            tmp_path,
            [
                {"scan_id": "x", "prediction": "s.json", "ground_truth": "s.json"},
                {"scan_id": "x", "prediction": "s.json", "ground_truth": "s.json"},
            ],
        )
        assert run("evaluate", manifest) == 2

    @pytest.mark.parametrize(
        "scan_ids, error",
        [
            ([1, "1"], "line 2: duplicate scan id '1'"),
            ([True], "line 1: scan_id must be a string or integer"),
        ],
        ids=["int-and-string", "bool"],
    )
    def test_scan_ids_that_print_alike_exit_2(self, tmp_path, capsys, scan_ids, error):
        write_scene(tmp_path, name="s", span=90.0)
        manifest = write_manifest(
            tmp_path, [{"scan_id": i, "prediction": "s.json", "ground_truth": "s.json"} for i in scan_ids]
        )
        assert run("evaluate", manifest) == 2
        assert capsys.readouterr().err == f"error: manifest {error}\n"

    def test_manifest_line_without_prediction_exit_2(self, tmp_path, capsys):
        write_scene(tmp_path)
        manifest = write_manifest(tmp_path, [{"scan_id": "s", "ground_truth": "scene.json"}])
        assert run("evaluate", manifest) == 2
        assert capsys.readouterr().err == "error: manifest line 1: needs scan_id and prediction\n"

    def test_blank_manifest_lines_skipped(self, tmp_path, capsys):
        write_scene(tmp_path)
        lines = [json.dumps({"scan_id": f"s{i}", "prediction": "scene.json", "ground_truth": "scene.json"})
                 for i in range(2)]
        (tmp_path / "plain.jsonl").write_text("\n".join(lines) + "\n")
        (tmp_path / "blank.jsonl").write_text("\n \t\n" + lines[0] + "\n\n   \n" + lines[1] + "\n\n")
        docs = []
        for name in ("plain.jsonl", "blank.jsonl"):
            assert run("evaluate", tmp_path / name) == 0
            docs.append(capsys.readouterr().out)
        assert docs[0] == docs[1] and json.loads(docs[0])["n_scans"] == 2

    def test_deterministic_reports(self, tmp_path):
        write_scene(tmp_path, name="s0", span=120.0, seed=5)
        manifest = write_manifest(
            tmp_path, [{"scan_id": "s0", "prediction": "s0.json", "ground_truth": "s0.json"}]
        )
        a = tmp_path / "r1.json"
        b = tmp_path / "r2.json"
        assert run("evaluate", manifest, "-o", a) == 0
        assert run("evaluate", manifest, "-o", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_critical_needs_aggregate(self, tmp_path, capsys):
        write_scene(tmp_path, name="s", span=90.0)
        manifest = write_manifest(
            tmp_path, [{"scan_id": "s", "prediction": "s.json", "ground_truth": "s.json"}]
        )
        assert run("evaluate", manifest, "--critical") == 4
        doc = json.loads(capsys.readouterr().out)
        assert "critical_ground_truth" in doc["failures"][0]

    def test_critical_manifest(self, tmp_path, capsys):
        scene, _ = write_scene(tmp_path, name="s", span=90.0)
        write_volume(scene, tmp_path / "crit.json")  # aggregate equal to the scene
        manifest = write_manifest(
            tmp_path,
            [{
                "scan_id": "s", "prediction": "s.json", "ground_truth": "s.json",
                "critical_ground_truth": "crit.json",
            }],
        )
        assert run("evaluate", manifest, "--critical") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["critical"] is True
        conf = doc["involvement"]["vein"]["confusion"]
        assert conf["tp"] == 1

    @pytest.mark.parametrize("suite", ["confusion", "all-tn", "empty"])
    def test_table_rows_match_document(self, tmp_path, capsys, suite):
        if suite == "confusion":
            assert run("phantom", "confusion", "--out", tmp_path, "--seed", "4") == 0
            manifest = tmp_path / "manifest.jsonl"
        elif suite == "all-tn":
            write_scene(tmp_path, name="s", span=0.0)
            manifest = write_manifest(
                tmp_path,
                [{"scan_id": i, "prediction": "s.json", "ground_truth": "s.json"} for i in range(3)],
            )
        else:
            manifest = write_manifest(tmp_path, [])
        capsys.readouterr()
        assert run("evaluate", manifest, "--table", "-o", tmp_path / "doc.json") == 0
        doc = json.loads((tmp_path / "doc.json").read_text())
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["Metric", "Value"]
        shown = {line[:22].rstrip(): line[24:].strip() for line in lines[1:]}
        expected = {}
        for vessel in ("Tumor", "Artery", "Vein", "Artery Overlap", "Vein Overlap"):
            stats = doc["dice"].get(vessel.lower().replace(" ", "_"))
            expected[f"{vessel} Dice"] = (
                "n/a" if stats is None else f"{stats['mean']:.4f} +- {stats['std_per_case']:.4f}"
            )
        rates = [
            (f"{key.title()} {rate.title()}", doc["involvement"][key][rate])
            for key in ("artery", "vein", "scan") for rate in ("sensitivity", "specificity")
        ] + [(f"{key.title()} R2", doc["r2_max_involvement"][key]) for key in ("artery", "vein")]
        for label, rate in rates:
            expected[label] = "undefined" if rate["value"] is None else f"{rate['value']:.4f}"
        assert shown == expected
        values = set(shown.values())
        assert ("undefined" in values) == (suite != "confusion")
        assert ("n/a" in values) == (suite == "empty")


class TestUncertaintyCmd:
    def test_zero_variance_folds_identical_entries(self, tmp_path, capsys):
        scene, _ = write_scene(tmp_path, span=120.0)
        prob = ProbVolume(
            scene.data.astype(np.float32), scene.channels, scene.spacing
        )
        for i in range(3):
            write_volume(prob, tmp_path / f"f{i}.json")
        out = tmp_path / "out"
        assert run(
            "uncertainty",
            "--fold", tmp_path / "f0.json", "--fold", tmp_path / "f1.json",
            "--fold", tmp_path / "f2.json", "--out", out,
        ) == 0
        doc = json.loads((out / "uncertainty.json").read_text())
        assert doc["uncertainty_kind"] == "epistemic"
        spans = {e["k"]: e["vessels"]["vein"]["max_involvement_deg"] for e in doc["sweep"]}
        assert len(set(spans.values())) == 1
        assert (out / "mean.json").exists() and (out / "std.raw").exists()

    def test_output_flag_rejected(self, tmp_path, capsys):
        scene, _ = write_scene(tmp_path, span=120.0)
        prob = ProbVolume(scene.data.astype(np.float32), scene.channels, scene.spacing)
        write_volume(prob, tmp_path / "f0.json")
        write_volume(prob, tmp_path / "f1.json")
        with pytest.raises(SystemExit) as exc:
            run("uncertainty", "--fold", tmp_path / "f0.json", "--fold", tmp_path / "f1.json",
                "--out", tmp_path / "o", "-o", tmp_path / "x.json")
        assert exc.value.code == 2
        assert "unrecognized arguments: -o" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "o").exists()

    def test_single_fold_exit_2(self, tmp_path, capsys):
        scene, _ = write_scene(tmp_path, span=120.0)
        prob = ProbVolume(scene.data.astype(np.float32), scene.channels, scene.spacing)
        write_volume(prob, tmp_path / "f0.json")
        assert run("uncertainty", "--fold", tmp_path / "f0.json", "--out", tmp_path / "o") == 2

    def test_headers_checked_before_values(self, tmp_path, capsys):
        """Every fold header is parsed and size-checked before any value is read.

        So a garbled header is reported although an earlier fold holds a
        value out of range, and that fold's own error names its header.
        """
        header = _tav_header(dims=[1, 2, 2], dtype="f32")
        (tmp_path / "f.json").write_text(json.dumps(header))
        (tmp_path / "f.raw").write_bytes(np.tile(np.array([0.0, 1.5, 0.5, 1.0], "<f4"), 3).tobytes())
        (tmp_path / "g.json").write_text("{oops")
        fold, garbled = tmp_path / "f.json", tmp_path / "g.json"
        assert run("uncertainty", "--fold", fold, "--fold", garbled, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith(f"error: garbled header {garbled}: ")
        assert run("uncertainty", "--fold", fold, "--fold", fold, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"error: {fold}: probability values non-finite or outside tolerated range: "
            "min=0.0, max=1.5\n"
        )

    def test_empty_sample_directory_exit_2(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        (tmp_path / "empty" / "notes.txt").write_text("no header here")
        assert run("uncertainty", "--fold", tmp_path / "empty", "--fold", tmp_path / "empty",
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            f"error: sample directory {tmp_path / 'empty'} holds no volume headers\n")
        assert not (tmp_path / "o").exists()

    def test_fold_beside_sample_directory_exit_2(self, tmp_path, capsys):
        folds, _ = gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))
        write_volume(folds[0], tmp_path / "fold0.json")
        write_volume(folds[1], tmp_path / "samples" / "s0.json")
        assert run("uncertainty", "--fold", tmp_path / "fold0.json", "--fold", tmp_path / "samples",
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: mix of deterministic folds and sample directories\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("layered", [False, True], ids=["mask", "layered"])
    @pytest.mark.parametrize("in_directory", [False, True], ids=["fold", "sample"])
    def test_non_probability_member_refused_from_its_header(self, tmp_path, capsys, monkeypatch,
                                                            layered, in_directory):
        """A mask or layered file given as a fold or a sample is refused before any voxel is read."""
        folds, _ = gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))
        scene, _ = gen_wrap_scene(PhantomSpec())
        members = [tmp_path / "m0.json", tmp_path / "m1.json"]
        if in_directory:
            members = [tmp_path / "d0" / "s0.json", tmp_path / "d1" / "s0.json"]
        write_volume(folds[0], members[0])
        write_volume(encode_layered(scene) if layered else scene, members[1])
        reads = TestOneWayIn.count_reads(monkeypatch)
        argv = [str(m.parent if in_directory else m) for m in members]
        assert run("uncertainty", "--fold", argv[0], "--fold", argv[1], "--out", tmp_path / "o") == 2
        got = "layered labels" if layered else "masks"
        assert capsys.readouterr().err == (
            f"error: {members[1]}: expected a probability volume, got {got}\n")
        assert reads == []

    def test_sample_directories(self, tmp_path, capsys):
        spec = PhantomSpec(wrap_span_deg=70.0, band_extra_deg=25.0)
        folds, _ = gen_uncertainty_scene(spec)
        fold_args = []
        for i, fold in enumerate(folds):
            d = tmp_path / f"fold{i}"
            # two identical samples per fold: zero aleatoric, epistemic from folds
            write_volume(fold, d / "s0.json")
            write_volume(fold, d / "s1.json")
            fold_args += ["--fold", str(d)]
        out = tmp_path / "out"
        assert run("uncertainty", *fold_args, "--out", out, "--overlay", tmp_path / "heat") == 0
        doc = json.loads((out / "uncertainty.json").read_text())
        assert doc["uncertainty_kind"] == "total"
        cats = [e["dpcg_category"] for e in doc["sweep"]]
        assert cats[-1] == "borderline_resectable"
        heat = sorted((tmp_path / "heat").glob("*.ppm"))
        assert heat and heat[0].read_bytes()[:2] == b"P6"


class TestUncertaintyStreaming:
    """uncertainty streams each fold payload once, in chunks, and holds no fold whole."""

    SPEC = PhantomSpec(dims=(16, 128, 128), slice_range=(1, 15), jitter_seed=3)

    def write_folds(self, tmp_path) -> tuple[int, list[str]]:
        """Three 6x16x128x128 phantom folds; returns one fold's bytes and the --fold arguments."""
        folds, _ = gen_uncertainty_scene(self.SPEC)
        args = []
        for i, fold in enumerate(folds):
            write_volume(fold, tmp_path / f"fold{i}.json")
            args += ["--fold", tmp_path / f"fold{i}.json"]
        return folds[0].data.nbytes, args

    def test_peak_in_fold_grids(self, tmp_path, capsys):
        """tracemalloc peak, in grids the size of one fold.

        No whole mean or std is held: the pass writes each block to the
        payload files and into the level grids. Each fold adds one 1 MiB
        chunk buffer, 0.5 grid for three folds of this size; the float64
        and float32 block buffers add 0.2 grid, the three uint8 level
        grids 0.13, and the level update of one block about 0.1. Reading
        every fold whole peaked at 5.26 grids, holding the whole mean and
        std at 2.76; the one streamed pass peaks at 0.97.
        """
        grid, folds = self.write_folds(tmp_path)
        tracemalloc.start()
        try:
            code = run("uncertainty", *folds, "--out", tmp_path / "o")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak / grid < 1.0

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("fault", ["late-nan", "shrank"])
    def test_failed_fold_run_leaves_no_payload_open(self, tmp_path, capsys, monkeypatch, fault):
        _, folds = self.write_folds(tmp_path)
        bad = tmp_path / "fold1.raw"
        if fault == "late-nan":
            payload = np.fromfile(bad, dtype="<f4")
            payload[-3] = np.nan
            payload.tofile(bad)
            message = f"{tmp_path / 'fold1.json'}: probability values non-finite"
        else:
            real = cli.open_payload

            def truncating(path):
                # the size check passes, then the payload loses its last voxel
                payload = real(path)
                if payload.raw == bad:
                    os.truncate(bad, bad.stat().st_size - 4)
                return payload

            monkeypatch.setattr(cli, "open_payload", truncating)
            message = f"payload {bad} shrank while being read"
        assert run("uncertainty", *folds, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert open_payloads(tmp_path) == []
        # the temporary mean and std payloads are closed, and removed with the directory
        assert open_files(tmp_path / "o") == []
        assert not (tmp_path / "o").exists()

    @staticmethod
    def snapshot(directory: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("fault", ["last-voxel-nan", "shrank", "no-vein"])
    def test_failed_run_keeps_previous_outputs(self, tmp_path, capsys, monkeypatch, fault):
        """A run that fails leaves the outputs of the run before it as they were.

        The last fold's last voxel is a NaN, so the range check that rejects
        it runs after every block has been written to the temporary
        payloads; or the last fold's payload shrinks while it is read; or
        the folds lack the vein channel, which the sweep finds after the
        pass. In each case no temporary file remains, and none stays open.
        """
        _, folds = self.write_folds(tmp_path)
        out = tmp_path / "o"
        assert run("uncertainty", *folds, "--out", out, "--ks", "0", "1") == 0
        previous = self.snapshot(out)
        assert sorted(previous) == sorted(cli.UNCERTAINTY_FILES)
        last = tmp_path / "fold2.raw"
        code = 2
        if fault == "last-voxel-nan":
            payload = np.fromfile(last, dtype="<f4")
            payload[-1] = np.nan
            payload.tofile(last)
            message = f"{tmp_path / 'fold2.json'}: probability values non-finite"
        elif fault == "shrank":
            real = cli.open_payload

            def truncating(path):
                payload = real(path)
                if payload.raw == last:
                    os.truncate(last, last.stat().st_size - 4)
                return payload

            monkeypatch.setattr(cli, "open_payload", truncating)
            message = f"payload {last} shrank while being read"
        else:
            for i in range(3):
                fold = read_volume(tmp_path / f"fold{i}.json")
                keep = [c for c in fold.channels if c != ChannelId.VEIN]
                data = np.stack([fold.channel(c) for c in keep])
                write_volume(ProbVolume(data, keep, fold.spacing), tmp_path / f"fold{i}.json")
            code, message = 3, "volume has no 'vein' channel"
        assert run("uncertainty", *folds, "--out", out) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1, err
        assert self.snapshot(out) == previous
        assert open_files(tmp_path) == []

    def test_header_name_taken_by_directory_keeps_other_outputs(self, tmp_path, capsys):
        """A rerun that cannot put ``mean.json`` in place puts no output in place.

        Each header is put in place before its payload, so the failed
        rerun leaves the earlier run's payloads beside the earlier headers.
        """
        _, folds = self.write_folds(tmp_path)
        out, fresh = tmp_path / "o", tmp_path / "fresh"
        assert run("uncertainty", *folds, "--out", out, "--ks", "0", "1") == 0
        # other folds, which differ in a rim band: every payload and the sweep differ
        other = []
        banded, _ = gen_uncertainty_scene(dataclasses.replace(self.SPEC, band_extra_deg=25.0))
        for i, fold in enumerate(banded):
            write_volume(fold, tmp_path / f"other{i}.json")
            other += ["--fold", tmp_path / f"other{i}.json"]
        assert run("uncertainty", *other, "--out", fresh) == 0
        (out / "mean.json").unlink()
        (out / "mean.json").mkdir()
        others = [name for name in cli.UNCERTAINTY_FILES if name != "mean.json"]
        previous = {name: (out / name).read_bytes() for name in others}
        assert all(previous[name] != (fresh / name).read_bytes()
                   for name in ("mean.raw", "std.raw", "uncertainty.json"))
        assert run("uncertainty", *other, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory") and len(err.splitlines()) == 1, err
        assert {name: (out / name).read_bytes() for name in others} == previous
        assert sorted(p.name for p in out.iterdir()) == sorted(cli.UNCERTAINTY_FILES)

    @pytest.mark.parametrize("fault", [None, "nan"])
    def test_unmakeable_out_reported_after_the_inputs(self, tmp_path, capsys, fault):
        """An --out that cannot be made is reported after an error in the folds, as before.

        The pass runs without writing, so a rejected fold is named first;
        with good folds the OSError follows the sweep. Nothing is left.
        """
        _, folds = self.write_folds(tmp_path)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        if fault:
            payload = np.fromfile(tmp_path / "fold1.raw", dtype="<f4")
            payload[-1] = np.nan
            payload.tofile(tmp_path / "fold1.raw")
        assert run("uncertainty", *folds, "--out", blocker / "o") == 2
        err = capsys.readouterr().err
        if fault:
            assert err.startswith(f"error: {tmp_path / 'fold1.json'}: probability values non-finite")
        else:
            assert err == f"error: [Errno 20] Not a directory: '{blocker / 'o'}'\n"
        assert sorted(p.name for p in tmp_path.iterdir() if not p.name.startswith("fold")) == ["file"]

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_every_sample_open_for_one_pass(self, tmp_path, capsys, monkeypatch):
        """Every sample payload of every fold is opened once, all for one pass.

        The second fold's last sample holds a NaN in its last voxel, so the
        range check that rejects it runs after the pass has read every
        sample. The run names that sample's header, leaves nothing open and
        writes no --out.
        """
        folds, _ = gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))
        for i, fold in enumerate(folds):
            for j in range(3):
                write_volume(fold, tmp_path / f"fold{i}" / f"s{j}.json")
        bad = tmp_path / "fold1" / "s2.raw"
        payload = np.fromfile(bad, dtype="<f4")
        payload[-1] = np.nan
        payload.tofile(bad)
        opened = []

        def spy(file, *args, **kwargs):
            if str(file).endswith(".raw"):
                # every payload opened before this one is still open
                assert len(open_payloads(tmp_path)) == len(opened), (file, opened)
                opened.append(Path(file).relative_to(tmp_path))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(volume, "open", spy, raising=False)
        assert run("uncertainty", *(f"--fold={tmp_path / f'fold{i}'}" for i in range(3)),
                   "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'fold1' / 's2.json'}: ") and len(err.splitlines()) == 1
        assert opened == [Path(f"fold{i}") / f"s{j}.raw" for i in range(3) for j in range(3)]
        assert open_payloads(tmp_path) == []
        assert not (tmp_path / "o").exists()


class TestPutInPlace:
    """A rerun removes each earlier output before renaming the new one onto its name.

    ext4 forces writeback of a file renamed over another, so no rename may
    find its destination taken: not ``uncertainty``'s five outputs, not a
    ``-o`` document, not a volume header or payload.
    """

    @staticmethod
    def spy_renames(monkeypatch) -> list[tuple[Path, bool]]:
        calls = []
        for name in ("rename", "replace"):
            def spy(src, dst, *args, _real=getattr(os, name), **kwargs):
                calls.append((Path(dst), os.path.lexists(dst)))
                return _real(src, dst, *args, **kwargs)

            monkeypatch.setattr(os, name, spy)
        return calls

    def test_reruns_rename_onto_free_names(self, tmp_path, capsys, monkeypatch):
        _, folds = TestUncertaintyStreaming().write_folds(tmp_path)
        fresh, out, doc = tmp_path / "fresh", tmp_path / "o", tmp_path / "doc.json"
        assert run("uncertainty", *folds, "--out", fresh) == 0
        assert run("uncertainty", *folds, "--out", out, "--ks", "0") == 0
        write_scene(tmp_path, span=90.0)
        assert run("assess", tmp_path / "scene.json", "-o", doc) == 0
        scene, _ = gen_wrap_scene(PhantomSpec(wrap_span_deg=200.0, jitter_seed=1))

        calls = self.spy_renames(monkeypatch)
        assert run("uncertainty", *folds, "--out", out) == 0
        assert run("assess", tmp_path / "scene.json", "-o", doc) == 0
        write_volume(scene, tmp_path / "scene.json")
        monkeypatch.undo()

        expected = {out / name for name in cli.UNCERTAINTY_FILES}
        expected |= {doc, tmp_path / "scene.json", tmp_path / "scene.raw"}
        assert {dst for dst, _ in calls} == expected
        assert [dst for dst, taken in calls if taken] == []
        snapshot = TestUncertaintyStreaming.snapshot
        assert snapshot(out) == snapshot(fresh)
        assert read_volume(tmp_path / "scene.json").data.tobytes() == scene.data.tobytes()
        assert not list(tmp_path.rglob("*.tmp"))


class _FullDisk:
    """A file open for writing that takes half of its first write, then fails with ENOSPC."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        view = data if isinstance(data, str) else memoryview(data).cast("B")
        self._f.write(view[: len(view) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


class TestFailedWriteLeavesNothing:
    """A write that fails on a full disk leaves the tree under its outputs as it was.

    Every file opened for writing under a ``.tmp`` name takes half of its
    first write and then fails with ENOSPC. No ``.tmp`` file may be left,
    every directory the call made is removed, and an earlier output under
    the same name stays byte-identical.
    """

    WRITERS = ("write_volume", "assess-o", "assess-overlay-o", "phantom-wrap", "uncertainty")

    @staticmethod
    def tree(root: Path) -> dict[str, bytes | None]:
        return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
                for p in sorted(root.rglob("*"))}

    @staticmethod
    def fill_disk(monkeypatch, name: str | None = None) -> None:
        """Fail the writes to every ``.tmp`` file, or only to the one called ``name``."""
        real = io.open

        def opener(file, mode="r", *args, **kwargs):
            f = real(file, mode, *args, **kwargs)
            full = str(file).endswith(".tmp") and name in (None, os.path.basename(file))
            return _FullDisk(f) if "w" in mode and full else f

        monkeypatch.setattr(builtins, "open", opener)
        monkeypatch.setattr(io, "open", opener)

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "rerun"])
    @pytest.mark.parametrize("writer", WRITERS)
    def test_enospc(self, tmp_path, capsys, monkeypatch, writer, earlier):
        inputs, root = tmp_path / "in", tmp_path / "root"
        root.mkdir()
        scene, _ = write_scene(inputs)
        folds = []
        if writer == "uncertainty":
            for i, fold in enumerate(gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))[0]):
                write_volume(fold, inputs / f"fold{i}.json")
                folds += ["--fold", inputs / f"fold{i}.json"]

        def write():
            if writer == "write_volume":
                write_volume(scene, root / "new" / "deeper" / "v.json")
                return 0
            return run(*{
                "assess-o": ("assess", inputs / "scene.json", "-o", root / "new" / "deeper" / "a.json"),
                # the document is written before the overlays, so none is left
                "assess-overlay-o": ("assess", inputs / "scene.json", "--overlay", root / "ov",
                                     "-o", root / "new" / "a.json"),
                "phantom-wrap": ("phantom", "wrap", "--out", root / "new"),
                "uncertainty": ("uncertainty", *folds, "--out", root / "new" / "deeper"),
            }[writer])

        if earlier:
            assert write() == 0
        before = self.tree(root)
        self.fill_disk(monkeypatch)
        if writer == "write_volume":
            with pytest.raises(OSError) as exc:
                write()
            assert exc.value.errno == errno.ENOSPC
        else:
            assert write() == 2
            assert capsys.readouterr().err == f"error: [Errno 28] {os.strerror(errno.ENOSPC)}\n"
        monkeypatch.undo()
        assert self.tree(root) == before

    @pytest.mark.parametrize("output", ["a.json", "-"])
    def test_failed_overlay_keeps_document(self, tmp_path, capsys, output):
        """The reverse case: the document is written before the overlays, and stays."""
        write_scene(tmp_path)
        assert run("assess", tmp_path / "scene.json", "--scan-id", "s") == 0
        want = capsys.readouterr().out
        (tmp_path / "ov").write_text("")  # the overlay directory cannot be made
        target = "-" if output == "-" else tmp_path / output
        assert run("assess", tmp_path / "scene.json", "--scan-id", "s", "--overlay", tmp_path / "ov",
                   "-o", target) == 2
        out = capsys.readouterr().out
        assert (out if output == "-" else (tmp_path / output).read_text()) == want

    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "rerun"])
    @pytest.mark.parametrize("scene, last", [("wrap", "truth.json"), ("uncertainty", "truth.json"),
                                             ("confusion", "expected.json")])
    def test_phantom_last_document_fails(self, tmp_path, capsys, monkeypatch, scene, last, earlier):
        """The scene's volumes, written before its last document, are not put in place either.

        A rerun over another seed's scene must leave that scene as it was.
        """
        out = tmp_path / "new"
        if earlier:
            assert run("phantom", scene, "--out", out, "--seed", "1") == 0
        before = self.tree(tmp_path)
        self.fill_disk(monkeypatch, f"{last}.tmp")
        assert run("phantom", scene, "--out", out, "--seed", "2") == 2
        assert capsys.readouterr().err == f"error: [Errno 28] {os.strerror(errno.ENOSPC)}\n"
        monkeypatch.undo()
        assert self.tree(tmp_path) == before


class TestLossCmd:
    @staticmethod
    def _write_pair(tmp_path, seed=5, shape=(6, 2, 4, 4)):
        gen = np.random.default_rng(seed)
        gt = gen.integers(0, 2, size=shape).astype(np.uint8)
        pred = gen.uniform(0.2, 0.8, size=shape).astype(np.float32)
        write_volume(MaskVolume(gt, STANDARD_CHANNELS, Spacing(1, 1, 1)), tmp_path / "gt.json")
        write_volume(ProbVolume(pred, STANDARD_CHANNELS, Spacing(1, 1, 1)), tmp_path / "pred.json")
        return pred.astype(np.float64), gt.astype(np.float64)

    def test_values_match_library(self, tmp_path, capsys):
        pred, gt = self._write_pair(tmp_path)
        assert run("loss", tmp_path / "pred.json", tmp_path / "gt.json") == 0
        doc = json.loads(capsys.readouterr().out)
        # CLI reads the f32 payload, so compare against the f32-rounded tensors
        pred32 = pred.astype(np.float32).astype(np.float64)
        assert doc["bce"] == pytest.approx(bce(pred32, gt), abs=1e-6)
        assert doc["dice"] == pytest.approx(soft_dice_loss(pred32, gt), abs=1e-6)
        assert doc["overlap"] == pytest.approx(overlap_loss(pred32, gt), abs=1e-6)
        assert doc["combined"] == pytest.approx(combined_loss(pred32, gt), abs=1e-6)

    def test_gradcheck_keys(self, tmp_path, capsys):
        self._write_pair(tmp_path)
        assert run("loss", tmp_path / "pred.json", tmp_path / "gt.json", "--gradcheck") == 0
        doc = json.loads(capsys.readouterr().out)
        errs = doc["gradcheck_max_rel_error"]
        assert set(errs) == {"bce", "dice", "overlap", "combined"}
        assert all(v < 1e-4 for v in errs.values())

    def test_gradcheck_above_former_size_cap(self, tmp_path, capsys):
        self._write_pair(tmp_path, shape=(6, 4, 32, 32))
        assert run("loss", tmp_path / "pred.json", tmp_path / "gt.json", "--gradcheck") == 0
        errs = json.loads(capsys.readouterr().out)["gradcheck_max_rel_error"]
        assert set(errs) == {"bce", "dice", "overlap", "combined"}
        assert all(v <= 1e-4 for v in errs.values())

    def test_geometry_mismatch_exit_3(self, tmp_path, capsys):
        self._write_pair(tmp_path)
        small = ProbVolume(
            np.zeros((1, 1, 2, 2), dtype=np.float32), (ChannelId.TUMOR,), Spacing(1, 1, 1)
        )
        write_volume(small, tmp_path / "small.json")
        assert run("loss", tmp_path / "small.json", tmp_path / "gt.json") == 3

    def test_no_channels_one_error_line(self, tmp_path):
        """Two headers of no channel: the one error line, no numpy warning before it."""
        for name in ("p", "g"):
            (tmp_path / f"{name}.json").write_text(json.dumps(_tav_header(channels=[])))
            (tmp_path / f"{name}.raw").write_bytes(b"")
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "vesselwrap.cli", "loss", tmp_path / "p.json", tmp_path / "g.json"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: volume has no 'tumor' channel\n"


class TestOneWayIn:
    """Each input header is parsed once, judged by one kind check, and a refused input is never read."""

    @staticmethod
    def count_parses(monkeypatch) -> collections.Counter:
        """Header parses by path, under both names the program binds ``open_payload`` to."""
        parses = collections.Counter()
        real = volume.open_payload

        def counting(path):
            parses[Path(path)] += 1
            return real(path)

        monkeypatch.setattr(volume, "open_payload", counting)
        monkeypatch.setattr(cli, "open_payload", counting)
        return parses

    @staticmethod
    def count_reads(monkeypatch) -> list[Path]:
        """The header of each payload that ``volume._parts``, the one payload reader, starts to read."""
        reads = []
        real = volume._parts

        def counting(payload):
            reads.append(payload.path)
            return real(payload)

        monkeypatch.setattr(volume, "_parts", counting)
        return reads

    @pytest.mark.parametrize("layered", [False, True], ids=["six-channel", "layered"])
    def test_assess_parses_its_header_once(self, tmp_path, capsys, monkeypatch, layered):
        scene, _ = gen_wrap_scene(PhantomSpec())
        write_volume(encode_layered(scene) if layered else scene, tmp_path / "v.json")
        parses = self.count_parses(monkeypatch)
        assert run("assess", tmp_path / "v.json") == 0
        assert parses == {tmp_path / "v.json": 1}

    @pytest.mark.parametrize("critical", [False, True])
    def test_evaluate_parses_each_header_once(self, tmp_path, capsys, monkeypatch, critical):
        scene, _ = write_scene(tmp_path, name="pred")
        write_volume(scene, tmp_path / "gt.json")
        write_volume(encode_layered(scene), tmp_path / "crit.json")
        manifest = write_manifest(tmp_path, [{"scan_id": "s", "prediction": "pred.json",
                                              "ground_truth": "gt.json", "critical_ground_truth": "crit.json"}])
        parses = self.count_parses(monkeypatch)
        assert run("evaluate", manifest, *["--critical"] * critical) == 0
        names = ("pred.json", "gt.json", "crit.json")[:3 if critical else 2]
        assert parses == {tmp_path / name: 1 for name in names}

    @pytest.mark.parametrize("samples", [False, True], ids=["folds", "sample-directories"])
    def test_uncertainty_parses_each_header_once(self, tmp_path, capsys, monkeypatch, samples):
        folds, _ = gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))
        headers = []
        for i, fold in enumerate(folds):
            for j in range(2 if samples else 1):
                headers.append(tmp_path / f"f{i}" / f"s{j}.json")
                write_volume(fold, headers[-1])
        fold_args = [f"--fold={h.parent if samples else h}" for h in headers[::2 if samples else 1]]
        parses = self.count_parses(monkeypatch)
        assert run("uncertainty", *fold_args, "--out", tmp_path / "o") == 0
        assert parses == {h: 1 for h in headers}

    def test_loss_parses_each_header_once(self, tmp_path, capsys, monkeypatch):
        paths = write_cli_inputs(tmp_path)
        parses = self.count_parses(monkeypatch)
        assert run("loss", paths["pred"], paths["gt"]) == 0
        assert parses == {Path(paths["pred"]): 1, Path(paths["gt"]): 1}

    @pytest.mark.parametrize("which", ["prediction", "ground_truth"])
    def test_loss_refuses_layered_labels_unread(self, tmp_path, capsys, monkeypatch, which):
        paths = write_cli_inputs(tmp_path)
        layered = tmp_path / "layered.json"
        write_volume(encode_layered(read_volume(paths["scene"])), layered)
        pair = {"prediction": paths["pred"], "ground_truth": paths["gt"], which: layered}
        reads = self.count_reads(monkeypatch)
        assert run("loss", pair["prediction"], pair["ground_truth"]) == 2
        assert capsys.readouterr().err == (
            f"error: {layered}: expected a probability or mask volume, got layered labels\n")
        assert reads == []

    @pytest.mark.parametrize("differ", ["dims", "channels", "spacing"])
    def test_loss_geometry_compared_unread(self, tmp_path, capsys, monkeypatch, differ):
        paths = write_cli_inputs(tmp_path)
        gt = read_volume(paths["gt"])
        if differ == "dims":
            other = MaskVolume(gt.data[:, :, :-1], gt.channels, gt.spacing)
        elif differ == "channels":
            other = MaskVolume(gt.data[::-1], gt.channels[::-1], gt.spacing)
        else:
            other = MaskVolume(gt.data, gt.channels, Spacing(2.0, 1.0, 1.0))
        write_volume(other, tmp_path / "other.json")
        reads = self.count_reads(monkeypatch)
        assert run("loss", paths["pred"], tmp_path / "other.json") == 3
        assert capsys.readouterr().err == "error: prediction and ground truth geometry differ\n"
        assert reads == []

    @pytest.mark.parametrize("fault", ["no-ground-truth", "no-critical", "probability-ground-truth",
                                       "ground-truth-spacing", "critical-spacing"])
    def test_evaluate_refused_entry_unread(self, tmp_path, capsys, monkeypatch, fault):
        """An entry refused from its keys or its headers has none of its payloads read."""
        scene, _ = write_scene(tmp_path)
        write_volume(MaskVolume(scene.data, scene.channels, Spacing(2.0, 1.0, 1.0)), tmp_path / "other.json")
        folds, _ = gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))
        write_volume(folds[0], tmp_path / "fold.json")
        entry = {"scan_id": "s", "prediction": "scene.json"}
        if fault != "no-ground-truth":
            entry["ground_truth"] = {"probability-ground-truth": "fold.json",
                                     "ground-truth-spacing": "other.json"}.get(fault, "scene.json")
        if fault == "critical-spacing":
            entry["critical_ground_truth"] = "other.json"
        manifest = write_manifest(tmp_path, [entry])
        reads = self.count_reads(monkeypatch)
        assert run("evaluate", manifest, *["--critical"] * (fault in ("no-critical", "critical-spacing"))) == 4
        mismatch = (f"geometry mismatch: prediction {scene.dims} at (1.0, 1.0, 1.0) mm, "
                    f"{{}} {scene.dims} at (2.0, 1.0, 1.0) mm")
        message = {
            "no-ground-truth": "entry lacks ground_truth",
            "no-critical": "critical evaluation needs critical_ground_truth",
            "probability-ground-truth": f"{tmp_path / 'fold.json'}: expected a mask or layered-label volume, "
                                        "got probabilities",
            "ground-truth-spacing": mismatch.format("ground truth"),
            "critical-spacing": mismatch.format("critical ground truth"),
        }[fault]
        assert capsys.readouterr().err == f"error: s: {message}\n"
        assert reads == []

    @pytest.mark.parametrize("missing", ["tumor", "vein"])
    def test_uncertainty_missing_graded_channel_refused_unread(self, tmp_path, capsys, monkeypatch,
                                                               missing):
        """Folds that lack a graded channel are refused before any payload is read or staged."""
        folds, _ = gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))
        args = []
        for i, fold in enumerate(folds):
            keep = [c for c in fold.channels if CHANNEL_NAMES[c] != missing]
            data = np.stack([fold.channel(c) for c in keep])
            write_volume(ProbVolume(data, keep, fold.spacing), tmp_path / f"f{i}.json")
            args += ["--fold", tmp_path / f"f{i}.json"]
        reads = self.count_reads(monkeypatch)
        assert run("uncertainty", *args, "--out", tmp_path / "o") == 3
        assert capsys.readouterr().err == f"error: volume has no {missing!r} channel\n"
        assert reads == []
        assert not (tmp_path / "o").exists()

    def test_uncertainty_later_sample_spacing_refused_unread(self, tmp_path, capsys, monkeypatch):
        """A sample of a later fold whose spacing differs is refused before any payload is read."""
        folds, _ = gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))
        for i in range(2):
            for j in range(2):
                spacing = Spacing(2.0, 1.0, 1.0) if (i, j) == (1, 1) else folds[i].spacing
                write_volume(ProbVolume(folds[i].data, folds[i].channels, spacing),
                             tmp_path / f"d{i}" / f"s{j}.json")
        reads = self.count_reads(monkeypatch)
        assert run("uncertainty", "--fold", tmp_path / "d0", "--fold", tmp_path / "d1",
                   "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == "error: volumes must share spacing\n"
        assert reads == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("form, kind, volume_type", [
        ({"dtype": "f32", "channels": ["tumor"]}, "probability", ProbVolume),
        ({"channels": ["tumor"]}, "mask", MaskVolume),
        ({"channels": []}, "mask", MaskVolume),
        ({"channels": None}, "layered-label", volume.LayeredLabelVolume),
        ({}, "layered-label", volume.LayeredLabelVolume),
    ], ids=["f32", "u8-names", "empty-list", "null", "omitted"])
    def test_payload_kind_is_the_one_kind_rule(self, tmp_path, form, kind, volume_type):
        """``Payload.kind`` agrees with the type ``read_volume`` returns and with ``_open_kind``."""
        header = {**_tav_header(dims=[1, 2, 2]), **form}
        if not form:
            del header["channels"]
        grids = 1 if header.get("channels") is None else len(header["channels"])
        (tmp_path / "v.json").write_text(json.dumps(header))
        (tmp_path / "v.raw").write_bytes(bytes(grids * 4 * (4 if header["dtype"] == "f32" else 1)))
        payload = volume.open_payload(tmp_path / "v.json")
        assert payload.kind == kind
        assert type(read_volume(payload)) is volume_type
        assert cli._open_kind(payload.path, kind) == payload
        others = [k for k in ("probability", "mask", "layered-label") if k != kind]
        with pytest.raises(cli.CliError, match=f"got {cli._KIND_NAMES[kind]}$"):
            cli._open_kind(payload.path, *others)

    def test_empty_channel_list_is_a_mask_volume(self, tmp_path, capsys):
        """``"channels": []`` is a mask volume of no channel, not layered labels: assess lacks the tumor."""
        (tmp_path / "v.json").write_text(json.dumps(_tav_header(channels=[])))
        (tmp_path / "v.raw").write_bytes(b"")
        assert run("assess", tmp_path / "v.json") == 3
        assert capsys.readouterr().err == "error: volume has no 'tumor' channel\n"


class TestPhantomCmd:
    def test_wrap_scene_files(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert run("phantom", "wrap", "--out", out, "--span", "200", "--channel", "artery") == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["max_span_deg"] == 200.0
        assert truth["dpcg_category"] == "irresectable"
        assert (out / "scene.json").exists() and (out / "scene.raw").exists()

    def test_uncertainty_scene_files(self, tmp_path):
        out = tmp_path / "u"
        assert run("phantom", "uncertainty", "--out", out, "--span", "70") == 0
        truth = json.loads((out / "truth.json").read_text())
        assert truth["per_k"]["2"]["max_span_deg"] == 120.0
        assert (out / "fold2.json").exists()

    @pytest.mark.parametrize("span, spans_by_k", [
        ("0", [0.0, 0.0, 0.0, 0.0]),
        ("350", [350.0, 350.0, 350.0, 360.0]),
        ("360", [360.0, 360.0, 360.0, 360.0]),
    ])
    def test_uncertainty_scene_truth_matches_sweep(self, tmp_path, span, spans_by_k):
        # a band exists only for 0 < span < 360, and the widened arc stops at the whole rim
        out = tmp_path / "u"
        assert run("phantom", "uncertainty", "--out", out, "--span", span) == 0
        truth = json.loads((out / "truth.json").read_text())["per_k"]
        assert [truth[k]["max_span_deg"] for k in ("-1", "0", "1", "2")] == spans_by_k
        folds = [a for i in range(3) for a in ("--fold", out / f"fold{i}.json")]
        assert run("uncertainty", *folds, "--out", tmp_path / "s") == 0
        sweep = json.loads((tmp_path / "s" / "uncertainty.json").read_text())["sweep"]
        assert [e["dpcg_category"] for e in sweep] == [
            truth[f"{e['k']:g}"]["dpcg_category"] for e in sweep
        ]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0


class ReadRecorder(argparse.Namespace):
    """Parsed flags that record which of them a command reads."""

    def __init__(self, **flags):
        super().__init__(**flags)
        self.__dict__["_read"] = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def command_paths(parser, path=()) -> list[tuple[str, ...]]:
    """The command words of every parser that runs a command, e.g. ("phantom", "wrap")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [path]
    return [leaf for name, sub in subs[0].choices.items() for leaf in command_paths(sub, path + (name,))]


class TestEveryFlagActs:
    def test_every_declared_flag_is_read(self, tmp_path, capsys, monkeypatch):
        # Each command runs once with inputs under which all its flags apply;
        # a declared flag it never reads could only change the config echo.
        spec = PhantomSpec(wrap_span_deg=70.0, band_extra_deg=25.0)
        write_volume(gen_wrap_scene(spec)[0], tmp_path / "scene.json")
        folds = []
        for i, fold in enumerate(gen_uncertainty_scene(spec)[0]):
            write_volume(fold, tmp_path / f"f{i}.json")
            folds += ["--fold", tmp_path / f"f{i}.json"]
        manifest = write_manifest(tmp_path, [{
            "scan_id": "s", "prediction": "scene.json", "ground_truth": "scene.json",
            "critical_ground_truth": "scene.json",
        }])
        TestLossCmd._write_pair(tmp_path)
        grading = ["--connectivity", "4", "--span-method", "minmax"]
        scene = ["--radius", "9", "--span", "120", "--center-deg", "10", "--channel", "artery", "--seed", "1"]
        cases = {
            ("assess",): [tmp_path / "scene.json", "--scan-id", "s", "--critical",
                          "--filter-mode", "component", "--overlay", tmp_path / "ov",
                          *grading, "-o", tmp_path / "a.json"],
            ("evaluate",): [manifest, "--critical", "--filter-mode", "component", "--table", *grading,
                            "-o", tmp_path / "m.json"],
            ("uncertainty",): [*folds, "--ks", "0", "2", "--threshold", "0.4", "--out", tmp_path / "u",
                               "--scan-id", "u", "--overlay", tmp_path / "heat", *grading],
            ("loss",): [tmp_path / "pred.json", tmp_path / "gt.json", "--beta", "0.3", "--alpha-w", "0.6",
                        "--gradcheck", "-o", tmp_path / "l.json"],
            ("phantom", "wrap"): ["--out", tmp_path / "w", *scene],
            ("phantom", "confusion"): ["--out", tmp_path / "c", "--seed", "1"],
            ("phantom", "uncertainty"): ["--out", tmp_path / "pu", *scene, "--band-extra-deg", "20",
                                         "--ks", "0", "2"],
        }
        echo = cli._config_echo
        monkeypatch.setattr(cli, "_config_echo",
                            lambda args: echo(argparse.Namespace(**vars(args))))
        unread = {}
        for path, flags in cases.items():
            parsed = vars(cli.build_parser().parse_args([*path, *map(str, flags)]))
            del parsed["command"]
            args = ReadRecorder(**parsed)
            assert parsed.pop("func")(args) == 0, path
            missing = sorted(set(parsed) - args._read)
            if missing:
                unread[" ".join(path)] = missing
        assert unread == {}
        assert sorted(command_paths(cli.build_parser())) == sorted(cases)

    def test_config_echoes_the_declared_flags(self, tmp_path, capsys):
        paths = write_cli_inputs(tmp_path)
        folds = []
        for i, fold in enumerate(gen_uncertainty_scene(PhantomSpec(band_extra_deg=25.0))[0][:2]):
            write_volume(fold, tmp_path / f"f{i}.json")
            folds += ["--fold", tmp_path / f"f{i}.json"]
        assert run("assess", paths["scene"], "-o", tmp_path / "a.json") == 0
        assert run("evaluate", paths["manifest"], "-o", tmp_path / "m.json") == 0
        assert run("uncertainty", *folds, "--out", tmp_path / "u") == 0
        documents = (tmp_path / "a.json", tmp_path / "m.json", tmp_path / "u" / "uncertainty.json")
        configs = [json.loads(path.read_text())["config"] for path in documents]
        assert [list(config) for config in configs] == [
            ["connectivity", "span_method", "filter_mode", "critical", "units"],
            ["connectivity", "span_method", "filter_mode", "critical", "units"],
            ["connectivity", "span_method", "threshold", "units", "ks"],
        ]


# Runs in a fresh interpreter in which importing scipy fails, so any scipy
# import on a command's path ends the run with a traceback.
_WITHOUT_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is not available")
        return None

sys.meta_path.insert(0, RefuseScipy())
from vesselwrap import cli

out = sys.argv[1]
try:
    cli.main(["--version"])
except SystemExit as exc:
    codes = [exc.code]
for argv in (
    ["phantom", "wrap", "--out", f"{out}/scene"],
    ["assess", f"{out}/scene/scene.json", "--critical", "--filter-mode", "component",
     "--overlay", f"{out}/overlay", "-o", f"{out}/assess.json"],
    ["phantom", "confusion", "--out", f"{out}/suite"],
    ["evaluate", f"{out}/suite/manifest.jsonl", "-o", f"{out}/evaluate.json"],
):
    codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


class TestRuntimeWithoutScipy:
    def test_commands_run_without_scipy(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0, 0, 0, 0], "scipy": []}
        assert len(list((tmp_path / "overlay").iterdir())) > 0


# Runs three commands in a fresh interpreter and lists the numpy.random and
# numpy.ma modules loaded afterwards. Neither is needed, and loading them
# raises an op's resident memory by about 7 MB (numpy.random, through
# default_rng) or 2 MB (numpy.ma, through np.unique).
_WITHOUT_NUMPY_RANDOM = """
import json, sys
from vesselwrap import cli

out = sys.argv[1]
codes = [cli.main(argv) for argv in (
    ["loss", f"{out}/pred.json", f"{out}/gt.json", "--gradcheck", "-o", f"{out}/loss.json"],
    ["assess", f"{out}/scene.json", "-o", f"{out}/assess.json"],
    ["evaluate", f"{out}/suite/manifest.jsonl", "-o", f"{out}/evaluate.json"],
)]
print(json.dumps({"codes": codes, "unneeded": sorted(m for m in sys.modules if m.split(".")[:2] in (["numpy", "random"], ["numpy", "ma"]))}))
"""


class TestRuntimeWithoutNumpyRandom:
    def test_commands_do_not_load_unneeded_numpy_modules(self, tmp_path):
        write_scene(tmp_path)
        TestLossCmd._write_pair(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("phantom", "confusion", "--out", tmp_path / "suite") == 0
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_NUMPY_RANDOM, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0, 0], "unneeded": []}


# Runs --version and assess in a fresh interpreter and reports whether the
# phantom module was loaded. Only the phantom command draws scenes, so no
# other command should pay its import.
_WITHOUT_PHANTOM = """
import json, sys
from vesselwrap import cli

out = sys.argv[1]
try:
    cli.main(["--version"])
except SystemExit as exc:
    codes = [exc.code]
codes.append(cli.main(["assess", f"{out}/scene.json", "-o", f"{out}/assess.json"]))
print(json.dumps({"codes": codes, "phantom": "vesselwrap.phantom" in sys.modules}))
"""


class TestRuntimeWithoutPhantom:
    def test_version_and_assess_do_not_load_phantom(self, tmp_path):
        write_scene(tmp_path)
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", _WITHOUT_PHANTOM, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0], "phantom": False}
