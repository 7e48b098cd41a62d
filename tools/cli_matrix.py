"""Run a fixed matrix of vesselwrap CLI cases and write every result to a tree.

Usage::

    python3 tools/cli_matrix.py SRC OUT [--only GROUP ...]

``SRC`` is a checkout of this repository; its ``src/vesselwrap`` is
imported and ``vesselwrap.cli.main`` runs every case in this one process.
``OUT`` receives one directory per case holding ``code`` (the exit code),
``stdout``, ``stderr`` and ``files/``, the files the case wrote. Overlay
PPMs and raw volume payloads are replaced by ``<name>.sha256`` files,
everything else is copied. ``OUT/inputs.sha256`` lists the inputs. Two
checkouts give comparable trees, so a refactor that must keep every
output byte-identical is checked with::

    python3 tools/cli_matrix.py PARENT_CHECKOUT /tmp/before
    python3 tools/cli_matrix.py .               /tmp/after
    diff -r /tmp/before /tmp/after

Cases run in a temporary working directory with relative paths, so error
messages and documents never hold a machine-specific path, and a rerun
writes the same tree. A case whose command raises is recorded with exit
code 1 and the last line of the traceback, ``Type: message``, as its
stderr, so an older checkout that lets an exception escape is compared,
not stopped. Groups:

``phantom``
    Small scenes from ``vesselwrap.phantom`` (a few seconds): every
    ``phantom`` scene, ``assess`` with overlays, the critical filter and a
    layered input, overlays of wrap scenes whose in-plane spacing differs
    ((1.0, 0.5, 1.0) and (1.0, 1.0, 0.5) mm), each as six channels and as
    layered labels, overlays of the hand-built ``adversarial_scene`` with
    and without its pancreas channel and as layered labels under the
    component filter, a 5x27x29 crop of it (cut to 27 rows, one empty
    column added, so the voxel count is not a multiple of 8) as a mask
    volume and as layered labels under the component filter, the
    ``wrap_edges_scene``, whose structures meet only across a row end or a
    slice boundary, plain and under the component filter, ``uncertainty``
    on folds and on sample directories, among them two directories of 2
    and 3 samples, each sample several read chunks long, plain and with a
    NaN in the last voxel of the last sample, on folds with an
    in-tolerance -0.0005 in a late chunk, with heat maps on a 10x70x73
    crop of the folds, whose channels are not a whole number of statistics
    blocks, with heat maps on three 17x128x128 folds, whose channels are
    longer than one read chunk but not a whole number of chunks, and at
    threshold 0.7 with heat maps on folds that agree except at scattered
    voxels and in one block where they differ only in the
    sign of zero, with tumor voxels at float32(0.7) and the float32 above
    it, ``phantom uncertainty`` at ``--span 0`` (no tumor, so no band) and
    ``--span 350`` (the widened arc capped at 360 deg), each followed by
    ``uncertainty`` over the three folds it writes, sixteen ``evaluate``
    manifests and flag sets, among them a ground truth whose spacing is
    not the prediction's and a critical ground truth whose dims are not
    (the entry fails, exit 4), a manifest with blank and whitespace-only
    lines between its entries, ``--critical`` on a manifest one of whose
    entries lacks ``critical_ground_truth`` (that entry fails, exit 4), a
    manifest one of whose entries lacks ``prediction`` (that entry fails,
    exit 4, the other is scored),
    ``loss`` with and without ``--gradcheck`` and
    the error paths, among them a voxel outside {0, 1} in a channel
    ``assess`` does not keep and in one it keeps, a layered label 9, a
    fold with a NaN in a late chunk and one with a NaN in its last voxel,
    the late NaN followed by a garbled header (the header is reported), a
    fold payload 4 bytes short, a mask given as a fold, the fold with a
    late NaN given to ``assess`` (its header rejects it before any voxel
    is read), a sample directory that holds no header, a fold header
    beside a sample directory, two sample directories one of whose
    samples has another spacing (its header is named), a manifest whose
    only line lacks ``prediction`` (exit 4), a layered file given to
    ``loss`` (its header rejects it before any voxel is read), a ``loss``
    pair whose spacings differ (exit 2, from the headers), a ``loss`` pair
    without its tumor channel (exit 3), a ``loss`` ground truth holding a
    voxel of 2, an ``evaluate`` ground truth (exit 4) and one sample of a
    directory whose headers declare dtype ``f64`` (each refusal names the
    file at fault), a header and a manifest line of arrays nested 200000
    deep (``error-evaluate-gt-bad-dtype``, ``error-loss-gt-bad-voxel``,
    ``error-uncertainty-sample-bad-dtype``, ``error-header-deep-json`` and
    ``error-manifest-deep-json``),
    folds without their tumor channel (exit 3, before the pass), ``-o``
    naming an existing directory (no staged document may be left beside
    it), ``--critical`` on a volume holding only the tumor
    (the filter names the missing pancreas before any vessel),
    ``--filter-mode`` without ``--critical``, a ``--scan-id`` holding
    ``/`` in ``assess`` and ``uncertainty`` (nothing is written), and
    flags that a command or phantom scene does not declare (argparse
    exits 2).
``sweep``
    The seed-1 ``sigma-sweep`` benchmark folds (3 x 6x64x128x128 f32):
    ``uncertainty`` with heat maps and changed flags, two folds at
    threshold 0 and 1, unsorted ks with a duplicate, a single k, threshold
    1.5 (every mask empty), the folds without their vein channel (exit 3),
    and ``assess`` of a thresholded fold given the folds, which only
    ``uncertainty`` takes (argparse exits 2).
``ct``
    The seed-1 ``ct-assess`` benchmark scans (100x512x512, layered and
    six-channel): ``assess`` with overlays in 4/8 connectivity x both span
    methods x no/voxel/component filter (24 cases), and ``evaluate`` on a
    manifest of both scans, plain, ``--table``, ``-o`` with connectivity
    4, and ``--critical`` in voxel and component mode.

The ``sweep`` and ``ct`` inputs come from ``perfbench/inputs.py`` of the
repository this script sits in, imported by path; it needs scipy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

GROUPS = ("phantom", "sweep", "ct")
HASHED_SUFFIXES = {".ppm", ".raw"}
ROOT = Path(__file__).resolve().parent.parent


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(path: str, entries: list[dict]) -> None:
    Path(path).write_text("".join(json.dumps(e) + "\n" for e in entries))


def _set_dtype(path: str, dtype: str) -> None:
    """Rewrite the volume header at ``path`` to declare ``dtype``."""
    Path(path).write_text(json.dumps({**json.loads(Path(path).read_text()), "dtype": dtype}))


def adversarial_scene():
    """A 5x28x28 pancreas/artery/vein/tumor scene whose overlays reuse a canvas riskily.

    Vein slices, each painted after the one before it:

    0. a large pancreas, vessel and tumor area with overlap;
    1. two vessel pixels and one tumor pixel, so any pixel left over from
       slice 0 shows;
    2. contacted components on row 0, on the last column and in the
       bottom-left corner, whose centroid crosses are clipped;
    3. a crescent whose centroid lies off its own pixels, on the contact
       pixels of a later component inside it, with pancreas over both;
    4. vessel and tumor without contact, so no image.

    The artery holds the same shapes mirrored left to right, and the tumor
    and pancreas are the union of both versions.
    """
    from vesselwrap.volume import ChannelId, MaskVolume, Spacing

    p, v, t = np.zeros((3, 5, 28, 28), dtype=np.uint8)
    p[0, 2:26, 2:26] = 1
    v[0, 4:21, 4:15] = 1
    t[0, 10:25, 10:23] = 1
    v[1, 12, 12:14] = 1
    t[1, 13, 14] = 1
    v[2, 0, 5:10] = t[2, 1, 6:9] = 1
    v[2, 10:15, 27] = t[2, 11:14, 26] = 1
    v[2, 27, 0] = t[2, 26, 1] = 1
    rows, cols = np.mgrid[:28, :28]
    radius = np.hypot(rows - 14, cols - 14)
    v[3] = (radius >= 4.5) & (radius <= 5.5) & (cols <= 16)
    v[3, 14, 11:16] = 1
    t[3, 13:16, 8] = t[3, 15, 12] = 1
    p[3, 12:17, 10:19] = 1
    v[4, 3:6, 3:6] = t[4, 20:23, 20:23] = 1
    artery = v[..., ::-1]
    data = np.stack([p | p[..., ::-1], artery, v, t | t[..., ::-1]])
    channels = (ChannelId.PANCREAS, ChannelId.ARTERY, ChannelId.VEIN, ChannelId.TUMOR)
    return MaskVolume(data, channels, Spacing(1.0, 0.7, 0.7))


def wrap_edges_scene():
    """A 4x8x9 scene whose structures meet only across a row end or a slice boundary.

    Read as one flat run of voxels, with no gap between rows or slices,
    tumor voxels sit next to vessel voxels: after the vein's last-column
    voxels (slice 0) and before the artery's first-column ones; one row
    above the vein's first row of slice 1 (on slice 0's last row), and one
    row below the artery's last row of slice 1 (on slice 2's first row).
    No vessel touches the tumor in the grid, so no contact is expected.
    On slice 3 two vein pieces hold the pancreas, one on the first row,
    one at the start of a row; the vein pieces just before them, on slice
    2's last row and at the end of the row above, must survive the
    component filter.
    """
    from vesselwrap.volume import ChannelId, MaskVolume, Spacing

    p, a, v, t = np.zeros((4, 4, 8, 9), dtype=np.uint8)
    v[0, 0:2, 8] = t[0, 1:3, 0] = 1
    t[0, 4:6, 8] = a[0, 5:7, 0] = 1
    t[0, 7, 2:5] = v[1, 0, 2:5] = 1
    a[1, 7, 5:8] = t[2, 0, 5:8] = 1
    v[2, 7, 6:9] = v[3, 0, 6:9] = p[3, 0, 7] = 1
    v[3, 3, 8] = v[3, 4, 0] = p[3, 4, 0] = 1
    channels = (ChannelId.PANCREAS, ChannelId.ARTERY, ChannelId.VEIN, ChannelId.TUMOR)
    return MaskVolume(np.stack([p, a, v, t]), channels, Spacing(1.0, 1.0, 1.0))


def _phantom_inputs() -> list[tuple[str, str]]:
    from vesselwrap import cli, phantom
    from vesselwrap.volume import (
        STANDARD_CHANNELS, ChannelId, MaskVolume, ProbVolume, Spacing, encode_layered, read_volume,
        write_volume,
    )

    spec = phantom.PhantomSpec(jitter_seed=3)
    scene = phantom.gen_wrap_scene(spec)[0]
    write_volume(scene, "ph/scene.json")
    write_volume(encode_layered(scene), "ph/layered.json")
    # y_mm != x_mm: the kernel scales row offsets by y_mm / x_mm
    for name, spacing in (("aniso_y", Spacing(1.0, 0.5, 1.0)), ("aniso_x", Spacing(1.0, 1.0, 0.5))):
        aniso = phantom.gen_wrap_scene(phantom.PhantomSpec(jitter_seed=3, spacing=spacing))[0]
        write_volume(aniso, f"ph/{name}.json")
        write_volume(encode_layered(aniso), f"ph/{name}_layered.json")
    touched = phantom.PhantomSpec(jitter_seed=3, pancreas_center=(64.0, 74.0), pancreas_radius_px=4.0)
    write_volume(phantom.gen_wrap_scene(touched)[0], "ph/pancreas.json")
    write_volume(phantom.gen_wrap_scene(phantom.PhantomSpec(wrap_span_deg=0.0))[0], "ph/empty.json")
    vein = scene.channel(ChannelId.VEIN)[None]
    write_volume(MaskVolume(vein, (ChannelId.VEIN,), scene.spacing), "ph/vein_only.json")
    tumor = scene.channel(ChannelId.TUMOR)[None]
    write_volume(MaskVolume(tumor, (ChannelId.TUMOR,), scene.spacing), "ph/tumor_only.json")
    adversarial = adversarial_scene()
    write_volume(adversarial, "ph/adversarial.json")
    write_volume(MaskVolume(adversarial.data[1:], adversarial.channels[1:], adversarial.spacing),
                 "ph/adversarial_no_pancreas.json")
    write_volume(encode_layered(adversarial), "ph/adversarial_layered.json")
    write_volume(wrap_edges_scene(), "ph/wrap_edges.json")
    # 5x27x29 = 3915 voxels, not a multiple of 8: voxel scans end on a
    # partial word, and the channel grids of a stack start off word bounds
    odd = np.pad(adversarial.data[:, :, :27], ((0, 0), (0, 0), (0, 0), (0, 1)))
    odd = MaskVolume(odd, adversarial.channels, adversarial.spacing)
    write_volume(odd, "ph/adversarial_odd.json")
    write_volume(encode_layered(odd), "ph/adversarial_odd_layered.json")
    # One bad value at the first voxel of a channel: a 2 in a channel assess
    # does not keep and in one it keeps, a 9 in layered labels. The volume
    # constructors reject these values, so the payloads are patched.
    grid = scene.channel(ChannelId.TUMOR).size
    for name, vol, offset, value in (
        ("bad_duct", scene, scene.channel_index(ChannelId.COMMON_BILE_DUCT) * grid, 2),
        ("bad_tumor", scene, scene.channel_index(ChannelId.TUMOR) * grid, 2),
        ("bad_layered", encode_layered(scene), 0, 9),
    ):
        write_volume(vol, f"ph/{name}.json")
        payload = np.fromfile(f"ph/{name}.raw", dtype=np.uint8)
        payload[offset] = value
        payload.tofile(f"ph/{name}.raw")
    Path("ph/garbled.json").write_text("{oops")
    Path("ph/garbled.jsonl").write_text("{oops\n")
    # arrays nested past the JSON decoder's recursion limit, as a header and as a manifest line
    Path("ph/deep.json").write_text("[" * 200_000)
    Path("ph/deep.jsonl").write_text("[" * 200_000 + "\n")

    for argv in (["phantom", "confusion", "--out", "ph/suite", "--seed", "4"],
                 ["phantom", "uncertainty", "--out", "ph/unc", "--seed", "2"]):
        if cli.main(argv) != 0:
            raise RuntimeError(f"input command failed: {argv}")
    # Fold copies patched past the first MiB of float32 voxels (1 << 18), so
    # a chunked read meets the value in a later chunk: a NaN and an
    # in-tolerance -0.0005 (clamped to 0), and a payload 4 bytes short.
    # The last fold's last voxel, in its last chunk, is a NaN too: the range
    # check that rejects it runs only after every chunk has been read.
    for name, fold, offset, value in (("late_nan", 2, (1 << 18) + 1000, np.nan),
                                      ("late_negative", 1, 3 * (1 << 18) + 17, -0.0005),
                                      ("last_nan", 2, -1, np.nan)):
        shutil.copytree("ph/unc", f"ph/{name}", ignore=shutil.ignore_patterns("truth.json"))
        payload = np.fromfile(f"ph/{name}/fold{fold}.raw", dtype="<f4")
        payload[offset] = value
        payload.tofile(f"ph/{name}/fold{fold}.raw")
    # The folds cropped to 10x70x73: a channel holds 51100 voxels, not a
    # multiple of the 32768-voxel statistics block, so it ends on a short block.
    # And the folds without their tumor channel, which the sweep cannot grade.
    for i in range(3):
        fold = read_volume(f"ph/unc/fold{i}.json")
        write_volume(ProbVolume(fold.data[:, :, 30:100, 27:100], fold.channels, fold.spacing),
                     f"ph/odd/fold{i}.json")
        keep = [c for c in fold.channels if c != ChannelId.TUMOR]
        write_volume(ProbVolume(np.stack([fold.channel(c) for c in keep]), keep, fold.spacing),
                     f"ph/no_tumor/fold{i}.json")
    shutil.copytree("ph/unc", "ph/short", ignore=shutil.ignore_patterns("truth.json"))
    with open("ph/short/fold1.raw", "r+b") as fh:
        fh.truncate(fh.seek(0, 2) - 4)
    # Folds that agree except at a dozen scattered voxels: copies of one fold
    # whose certain tumor voxels are float32(0.7) on even slices and the next
    # float32 above it on odd ones, for a run at threshold 0.7. In one
    # 32768-voxel statistics block of the vein channel (1 << 15 voxels from
    # 21 << 15), the second fold's zeros are -0.0: there the folds differ
    # only in the sign of zero.
    base = read_volume("ph/unc/fold0.json").data.copy()
    tumor, t = base[STANDARD_CHANNELS.index(ChannelId.TUMOR)], np.float32(0.7)
    tumor[0::2][tumor[0::2] == 1] = t
    tumor[1::2][tumor[1::2] == 1] = np.nextafter(t, np.float32(1))
    base = base.reshape(-1)
    sign_block = slice(21 << 15, 22 << 15)
    scatter = np.random.default_rng(7)
    shutil.copytree("ph/unc", "ph/agree", ignore=shutil.ignore_patterns("truth.json"))
    for i in range(3):
        fold = base.copy()
        if i:
            at = scatter.integers(0, base.size - (1 << 15), 6)
            at[at >= sign_block.start] += 1 << 15  # never inside the sign block
            fold[at] = scatter.random(6, dtype=np.float32)
        if i == 1:
            block = fold[sign_block]
            block[block == 0] = -0.0
        fold.tofile(f"ph/agree/fold{i}.raw")
    suite = [json.loads(line) for line in Path("ph/suite/manifest.jsonl").read_text().splitlines()]
    _write_manifest("ph/suite/folds.jsonl", [{**e, "fold": "ab"[i % 2]} for i, e in enumerate(suite)])
    _write_manifest("ph/suite/critical.jsonl",
                    [{**e, "critical_ground_truth": e["ground_truth"]} for e in suite])
    _write_manifest("ph/suite/failing.jsonl", suite[:3] + [
        {"scan_id": "missing", "prediction": "gone.json", "ground_truth": suite[0]["ground_truth"]},
        {"scan_id": "no_gt", "prediction": suite[0]["prediction"]},
    ])
    _write_manifest("ph/all_tn.jsonl",
                    [{"scan_id": f"e{i}", "prediction": "empty.json", "ground_truth": "empty.json"}
                     for i in range(3)])
    _write_manifest("ph/one.jsonl",
                    [{"scan_id": 7, "prediction": "scene.json", "ground_truth": "scene.json"}])
    _write_manifest("ph/empty.jsonl", [])
    _write_manifest("ph/no_prediction.jsonl", [{"scan_id": "s", "ground_truth": "scene.json"}])
    _write_manifest("ph/entry_without_prediction.jsonl",
                    [{"scan_id": "ok", "prediction": "scene.json", "ground_truth": "scene.json"},
                     {"scan_id": "bare", "ground_truth": "scene.json"}])
    Path("ph/suite/blank_lines.jsonl").write_text(
        "\n \t\n".join(Path("ph/suite/manifest.jsonl").read_text().splitlines()[:4]) + "\n\n  \n")
    Path("ph/no_samples").mkdir()
    # Mixed geometry: a ground truth of other spacing, and a critical ground
    # truth of other dims (the scene's central 64x64 rows and columns).
    write_volume(MaskVolume(scene.data[:, :, 32:96, 32:96], scene.channels, scene.spacing),
                 "ph/crop64.json")
    ok = {"scan_id": "ok", "prediction": "scene.json", "ground_truth": "scene.json",
          "critical_ground_truth": "scene.json"}
    _write_manifest("ph/mixed_spacing.jsonl",
                    [ok, {"scan_id": "aniso", "prediction": "aniso_y.json", "ground_truth": "scene.json"}])
    _write_manifest("ph/mixed_critical_dims.jsonl", [ok, {**ok, "scan_id": "crop",
                                                         "critical_ground_truth": "crop64.json"}])
    _write_manifest("ph/critical_missing.jsonl",
                    [ok, {"scan_id": "bare", "prediction": "scene.json", "ground_truth": "scene.json"}])
    # a ground truth whose header declares a dtype no volume has
    write_volume(scene, "ph/gt_f64.json")
    _set_dtype("ph/gt_f64.json", "f64")
    _write_manifest("ph/gt_f64.jsonl",
                    [ok, {"scan_id": "f64", "prediction": "scene.json", "ground_truth": "gt_f64.json"}])

    # Sample sets: each fold plus seeded noise, so both the aleatoric and
    # the epistemic std are nonzero.
    rng = np.random.default_rng(5)
    folds, _ = phantom.gen_uncertainty_scene(phantom.PhantomSpec(band_extra_deg=25.0, jitter_seed=2))
    for i, fold in enumerate(folds):
        for j in range(3):
            noisy = np.clip(fold.data + rng.uniform(-0.15, 0.15, fold.data.shape), 0.0, 1.0)
            write_volume(ProbVolume(noisy.astype(np.float32), fold.channels, fold.spacing),
                         f"ph/samples{i}/s{j}.json")
    write_volume(folds[0], "ph/one_sample/s0.json")
    # Unequal sample counts: the first two samples of the first fold beside
    # the second fold's three, and those three with a NaN in the last voxel
    # of the last sample, which the range check meets after the whole pass.
    shutil.copytree("ph/samples0", "ph/pair0", ignore=shutil.ignore_patterns("s2.*"))
    shutil.copytree("ph/samples1", "ph/nan_samples1")
    payload = np.fromfile("ph/nan_samples1/s2.raw", dtype="<f4")
    payload[-1] = np.nan
    payload.tofile("ph/nan_samples1/s2.raw")
    # the second fold's samples with the middle one at other spacing
    shutil.copytree("ph/samples1", "ph/mixed_samples1")
    middle = read_volume("ph/mixed_samples1/s1.json")
    write_volume(ProbVolume(middle.data, middle.channels, Spacing(2.0, 1.0, 1.0)),
                 "ph/mixed_samples1/s1.json")
    # the second fold's samples with the last one's header declaring f64
    shutil.copytree("ph/samples1", "ph/f64_samples1")
    _set_dtype("ph/f64_samples1/s2.json", "f64")
    # Folds of 17x128x128: a channel holds 278528 voxels, one read chunk
    # of 262144 and half a chunk more, so it ends inside a chunk.
    spec = phantom.PhantomSpec(dims=(17, 128, 128), slice_range=(2, 15), band_extra_deg=25.0,
                               jitter_seed=2)
    for i, fold in enumerate(phantom.gen_uncertainty_scene(spec, ())[0]):
        write_volume(fold, f"ph/tall/fold{i}.json")
    # the folds of `phantom uncertainty --span S` (empty, and a wrap whose band
    # reaches the whole rim); no ks, so no truth is drawn up
    for span in (0, 350):
        spec = phantom.PhantomSpec(wrap_span_deg=float(span), band_extra_deg=25.0)
        for i, fold in enumerate(phantom.gen_uncertainty_scene(spec, ())[0]):
            write_volume(fold, f"ph/span{span}/fold{i}.json")

    gen = np.random.default_rng(6)
    loss_gt = gen.integers(0, 2, size=(6, 2, 8, 8)).astype(np.uint8)
    loss_pred = gen.uniform(0.05, 0.95, size=(6, 2, 8, 8)).astype(np.float32)
    write_volume(MaskVolume(loss_gt, scene.channels, scene.spacing), "ph/loss_gt.json")
    write_volume(ProbVolume(loss_pred, scene.channels, scene.spacing), "ph/loss_pred.json")
    write_volume(MaskVolume(loss_gt, scene.channels, Spacing(2.0, 1.0, 1.0)), "ph/loss_gt_aniso.json")
    # the ground truth with a 2 in its last voxel
    write_volume(MaskVolume(loss_gt, scene.channels, scene.spacing), "ph/loss_gt_bad.json")
    payload = np.fromfile("ph/loss_gt_bad.raw", dtype=np.uint8)
    payload[-1] = 2
    payload.tofile("ph/loss_gt_bad.raw")
    # the same pair without its tumor channel: the overlap term cannot be formed
    keep = [i for i, c in enumerate(scene.channels) if c != ChannelId.TUMOR]
    no_tumor = [scene.channels[i] for i in keep]
    write_volume(MaskVolume(loss_gt[keep], no_tumor, scene.spacing), "ph/loss_gt_no_tumor.json")
    write_volume(ProbVolume(loss_pred[keep], no_tumor, scene.spacing), "ph/loss_pred_no_tumor.json")

    folds = "--fold ph/unc/fold0.json --fold ph/unc/fold1.json --fold ph/unc/fold2.json"
    span_folds = {span: " ".join(f"--fold ph/span{span}/fold{i}.json" for i in range(3))
                  for span in (0, 350)}
    suite_m = "ph/suite/manifest.jsonl"
    return [
        ("version", "--version"),
        ("phantom-wrap-default", "phantom wrap --out o"),
        ("phantom-wrap-artery",
         "phantom wrap --out o --channel artery --span 300 --center-deg 10 --radius 12 --seed 2"),
        ("phantom-wrap-narrow", "phantom wrap --out o --span 45 --seed 5"),
        ("phantom-uncertainty", "phantom uncertainty --out o --seed 1"),
        ("phantom-uncertainty-span0", "phantom uncertainty --out o --span 0"),
        ("uncertainty-phantom-span0", f"uncertainty {span_folds[0]} --out o/u"),
        ("phantom-uncertainty-span350", "phantom uncertainty --out o --span 350"),
        ("uncertainty-phantom-span350", f"uncertainty {span_folds[350]} --out o/u"),
        ("phantom-confusion", "phantom confusion --out o --seed 4"),
        ("assess-plain", "assess ph/scene.json"),
        ("assess-overlay", "assess ph/scene.json --overlay o/overlay -o o/assess.json"),
        ("assess-critical-component-overlay",
         "assess ph/pancreas.json --critical --filter-mode component --overlay o/overlay "
         "-o o/assess.json"),
        ("assess-critical-voxel", "assess ph/pancreas.json --critical --overlay o/overlay"),
        ("assess-adversarial-overlay", "assess ph/adversarial.json --overlay o/overlay -o o/assess.json"),
        ("assess-adversarial-c4-overlay",
         "assess ph/adversarial.json --connectivity 4 --overlay o/overlay -o o/assess.json"),
        ("assess-adversarial-critical-overlay",
         "assess ph/adversarial.json --critical --overlay o/overlay -o o/assess.json"),
        ("assess-adversarial-no-pancreas-overlay",
         "assess ph/adversarial_no_pancreas.json --overlay o/overlay -o o/assess.json"),
        ("assess-adversarial-layered-critical-component-overlay",
         "assess ph/adversarial_layered.json --critical --filter-mode component "
         "--overlay o/overlay -o o/assess.json"),
        ("assess-adversarial-odd-critical-component-overlay",
         "assess ph/adversarial_odd.json --critical --filter-mode component "
         "--overlay o/overlay -o o/assess.json"),
        ("assess-adversarial-odd-layered-critical-component-overlay",
         "assess ph/adversarial_odd_layered.json --critical --filter-mode component "
         "--overlay o/overlay -o o/assess.json"),
        ("assess-wrap-edges-overlay", "assess ph/wrap_edges.json --overlay o/overlay -o o/assess.json"),
        ("assess-wrap-edges-critical-component-overlay",
         "assess ph/wrap_edges.json --critical --filter-mode component --overlay o/overlay "
         "-o o/assess.json"),
        *((f"assess-{name}-overlay", f"assess ph/{name}.json --overlay o/overlay -o o/assess.json")
          for name in ("aniso_y", "aniso_y_layered", "aniso_x", "aniso_x_layered")),
        ("assess-layered-c4-minmax",
         "assess ph/layered.json --connectivity 4 --span-method minmax --scan-id lay"),
        ("uncertainty-folds", f"uncertainty {folds} --out o/u --overlay o/heat"),
        ("uncertainty-three-sample-folds",
         "uncertainty --fold ph/samples0 --fold ph/samples1 --fold ph/samples2 "
         "--out o/u --overlay o/heat"),
        ("uncertainty-two-sample-folds", "uncertainty --fold ph/samples0 --fold ph/samples2 --out o/u"),
        ("uncertainty-one-sample", "uncertainty --fold ph/one_sample --fold ph/samples0 --out o/u"),
        ("uncertainty-unequal-sample-counts",
         "uncertainty --fold ph/pair0 --fold ph/samples1 --out o/u --overlay o/heat"),
        ("uncertainty-output-flag", f"uncertainty {folds} --out o/u -o o/x.json"),
        ("uncertainty-odd-dims",
         "uncertainty --fold ph/odd/fold0.json --fold ph/odd/fold1.json --fold ph/odd/fold2.json "
         "--out o/u --overlay o/heat"),
        ("uncertainty-agreeing-folds",
         "uncertainty --fold ph/agree/fold0.json --fold ph/agree/fold1.json "
         "--fold ph/agree/fold2.json --out o/u --threshold 0.7 --overlay o/heat"),
        ("uncertainty-17-slices",
         "uncertainty --fold ph/tall/fold0.json --fold ph/tall/fold1.json "
         "--fold ph/tall/fold2.json --out o/u --overlay o/heat"),
        ("uncertainty-late-negative",
         "uncertainty --fold ph/unc/fold0.json --fold ph/late_negative/fold1.json "
         "--fold ph/unc/fold2.json --out o/u --overlay o/heat"),
        ("evaluate-plain", f"evaluate {suite_m}"),
        ("evaluate-table", f"evaluate {suite_m} --table"),
        ("evaluate-output", f"evaluate {suite_m} -o o/metrics.json"),
        ("evaluate-c4-minmax", f"evaluate {suite_m} --connectivity 4 --span-method minmax"),
        ("evaluate-folds", "evaluate ph/suite/folds.jsonl --table"),
        ("evaluate-critical-voxel", "evaluate ph/suite/critical.jsonl --critical"),
        ("evaluate-critical-component",
         "evaluate ph/suite/critical.jsonl --critical --filter-mode component"),
        ("evaluate-critical-without-gt", f"evaluate {suite_m} --critical"),
        ("evaluate-failing-entries", "evaluate ph/suite/failing.jsonl"),
        ("evaluate-all-tn", "evaluate ph/all_tn.jsonl --table"),
        ("evaluate-one-scan", "evaluate ph/one.jsonl"),
        ("evaluate-empty", "evaluate ph/empty.jsonl -o o/metrics.json"),
        ("evaluate-mixed-spacing", "evaluate ph/mixed_spacing.jsonl"),
        ("evaluate-critical-mixed-dims", "evaluate ph/mixed_critical_dims.jsonl --critical"),
        ("evaluate-blank-lines", "evaluate ph/suite/blank_lines.jsonl --table"),
        ("evaluate-entry-without-prediction", "evaluate ph/entry_without_prediction.jsonl"),
        ("loss", "loss ph/loss_pred.json ph/loss_gt.json --beta 0.3"),
        ("loss-gradcheck", "loss ph/loss_pred.json ph/loss_gt.json --gradcheck -o o/loss.json"),
        ("error-missing-header", "assess ph/gone.json"),
        ("error-garbled-header", "assess ph/garbled.json"),
        ("error-probabilities-as-mask", "assess ph/unc/fold0.json"),
        ("error-probabilities-with-nan-as-mask", "assess ph/late_nan/fold2.json"),
        ("error-missing-channel", "assess ph/vein_only.json"),
        ("error-missing-channel-critical", "assess ph/tumor_only.json --critical"),
        ("error-critical-without-pancreas", "assess ph/adversarial_no_pancreas.json --critical"),
        ("error-bad-voxel-in-unread-channel", "assess ph/bad_duct.json"),
        ("error-bad-voxel-in-kept-channel", "assess ph/bad_tumor.json"),
        ("error-bad-layered-label", "assess ph/bad_layered.json"),
        ("error-loss-geometry", "loss ph/loss_pred.json ph/scene.json"),
        ("error-loss-layered", "loss ph/layered.json ph/loss_gt.json"),
        ("error-loss-mixed-spacing", "loss ph/loss_pred.json ph/loss_gt_aniso.json"),
        ("error-loss-no-tumor", "loss ph/loss_pred_no_tumor.json ph/loss_gt_no_tumor.json"),
        ("error-loss-gt-bad-voxel", "loss ph/loss_pred.json ph/loss_gt_bad.json"),
        ("error-evaluate-gt-bad-dtype", "evaluate ph/gt_f64.jsonl"),
        ("error-uncertainty-sample-bad-dtype",
         "uncertainty --fold ph/samples0 --fold ph/f64_samples1 --out o/u"),
        ("error-header-deep-json", "assess ph/deep.json"),
        ("error-manifest-deep-json", "evaluate ph/deep.jsonl"),
        ("error-nan-threshold", f"uncertainty {folds} --out o/u --threshold nan"),
        ("error-uncertainty-late-nan",
         "uncertainty --fold ph/unc/fold0.json --fold ph/unc/fold1.json "
         "--fold ph/late_nan/fold2.json --out o/u"),
        ("error-uncertainty-last-voxel-nan",
         "uncertainty --fold ph/unc/fold0.json --fold ph/unc/fold1.json "
         "--fold ph/last_nan/fold2.json --out o/u --overlay o/heat"),
        ("error-uncertainty-last-sample-nan",
         "uncertainty --fold ph/pair0 --fold ph/nan_samples1 --out o/u --overlay o/heat"),
        ("error-uncertainty-values-then-garbled-header",
         "uncertainty --fold ph/late_nan/fold2.json --fold ph/garbled.json --out o/u"),
        ("error-uncertainty-wrong-size-fold",
         "uncertainty --fold ph/unc/fold0.json --fold ph/short/fold1.json "
         "--fold ph/unc/fold2.json --out o/u"),
        ("error-uncertainty-no-tumor",
         "uncertainty --fold ph/no_tumor/fold0.json --fold ph/no_tumor/fold1.json "
         "--fold ph/no_tumor/fold2.json --out o/u"),
        ("error-uncertainty-mask-fold",
         "uncertainty --fold ph/unc/fold0.json --fold ph/scene.json --out o/u"),
        ("error-uncertainty-mixed-spacing",
         "uncertainty --fold ph/samples0 --fold ph/mixed_samples1 --out o/u"),
        ("error-empty-sample-dir", "uncertainty --fold ph/no_samples --fold ph/samples0 --out o/u"),
        ("error-fold-and-sample-dir", "uncertainty --fold ph/unc/fold0.json --fold ph/samples0 --out o/u"),
        ("error-output-under-file", "assess ph/scene.json -o ph/scene.json/x.json"),
        ("error-output-is-directory", "assess ph/scene.json -o ph"),
        ("error-phantom-radius", "phantom wrap --out o --radius 1"),
        ("error-evaluate-threshold", f"evaluate {suite_m} --threshold 0.5"),
        ("error-assess-filter-mode", "assess ph/scene.json --filter-mode component"),
        ("error-evaluate-filter-mode", f"evaluate {suite_m} --filter-mode component"),
        ("error-uncertainty-filter-mode", f"uncertainty {folds} --out o/u --filter-mode component"),
        ("error-assess-scan-id-slash", "assess ph/scene.json --scan-id a/b --overlay o/overlay"),
        ("error-uncertainty-scan-id-parent",
         f"uncertainty {folds} --out o/u --scan-id ../x --overlay o/heat"),
        ("error-phantom-confusion-radius", "phantom confusion --out o --radius 12"),
        ("error-phantom-wrap-ks", "phantom wrap --out o --ks 3"),
        ("error-missing-manifest", "evaluate ph/none.jsonl"),
        ("error-garbled-manifest", "evaluate ph/garbled.jsonl"),
        ("error-manifest-no-prediction", "evaluate ph/no_prediction.jsonl"),
        ("error-evaluate-critical-missing", "evaluate ph/critical_missing.jsonl --critical"),
    ]


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_inputs() -> list[tuple[str, str]]:
    from vesselwrap.volume import ChannelId, MaskVolume, ProbVolume, read_volume, write_volume

    record, _ = _perfbench_inputs().build_sigma_sweep(np.random.default_rng(1), Path("sw"))
    folds = " ".join(f"--fold sw/{f}" for f in record["folds"])
    two_folds = " ".join(f"--fold sw/{f}" for f in record["folds"][:2])
    fold0 = read_volume("sw/fold0.json")
    mask = MaskVolume((fold0.data >= 0.5).astype(np.uint8), fold0.channels, fold0.spacing)
    write_volume(mask, "sw/mask.json")
    # the same folds without their vein channel: the sweep cannot grade them
    no_vein = []
    for name in record["folds"]:
        fold = read_volume(f"sw/{name}")
        keep = [i for i, c in enumerate(fold.channels) if c != ChannelId.VEIN]
        no_vein.append(f"--fold sw/no_vein/{name}")
        write_volume(ProbVolume(fold.data[keep], [fold.channels[i] for i in keep], fold.spacing),
                     f"sw/no_vein/{name}")
    return [
        ("sweep-uncertainty-heat", f"uncertainty {folds} --out o/u --overlay o/heat"),
        ("sweep-uncertainty-flags", f"uncertainty {folds} --out o/u --ks -2 0.5 3 --threshold 0.4 "
                                    "--connectivity 4 --span-method minmax"),
        ("sweep-uncertainty-two-folds-t0", f"uncertainty {two_folds} --out o/u --threshold 0"),
        ("sweep-uncertainty-two-folds-t1", f"uncertainty {two_folds} --out o/u --threshold 1"),
        ("sweep-uncertainty-ks-unsorted", f"uncertainty {folds} --out o/u --ks 2 -1 0.5 0.5"),
        ("sweep-uncertainty-one-k", f"uncertainty {folds} --out o/u --ks 1"),
        ("sweep-uncertainty-t1.5", f"uncertainty {folds} --out o/u --threshold 1.5"),
        ("sweep-uncertainty-no-vein", f"uncertainty {' '.join(no_vein)} --out o/u"),
        ("error-assess-fold", f"assess sw/mask.json {folds}"),
    ]


def _ct_inputs() -> list[tuple[str, str]]:
    record, _ = _perfbench_inputs().build_ct_assess(np.random.default_rng(1), Path("ct"))
    cases = []
    for scan in record["scans"]:
        for connectivity in ("4", "8"):
            for method in ("largest-gap", "minmax"):
                for mode in ("none", "voxel", "component"):
                    critical = "" if mode == "none" else f"--critical --filter-mode {mode}"
                    cases.append((
                        f"ct-assess-{scan['scan_id']}-c{connectivity}-{method}-{mode}",
                        f"assess ct/{scan['header']} --connectivity {connectivity} "
                        f"--span-method {method} {critical} --overlay o/overlay -o o/assess.json",
                    ))
    _write_manifest("ct/manifest.jsonl", [
        {"scan_id": s["scan_id"], "prediction": s["header"], "ground_truth": s["header"],
         "critical_ground_truth": s["header"]}
        for s in record["scans"]
    ])
    return cases + [
        ("ct-evaluate-plain", "evaluate ct/manifest.jsonl"),
        ("ct-evaluate-table", "evaluate ct/manifest.jsonl --table"),
        ("ct-evaluate-output-c4", "evaluate ct/manifest.jsonl --connectivity 4 -o o/metrics.json"),
        ("ct-evaluate-critical-voxel", "evaluate ct/manifest.jsonl --critical"),
        ("ct-evaluate-critical-component",
         "evaluate ct/manifest.jsonl --critical --filter-mode component"),
    ]


INPUTS = {"phantom": _phantom_inputs, "sweep": _sweep_inputs, "ct": _ct_inputs}


def _run_case(cli, command: str, dest: Path) -> None:
    """Run one case in the working directory and record it under ``dest``.

    ``command`` is the argument list joined by spaces; no path holds one.
    """
    argv = command.split()
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --version, usage errors
            code = exc.code
        except Exception as exc:  # as the interpreter ends on it, without the traceback's paths
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    dest.mkdir(parents=True)
    (dest / "argv").write_text(command + "\n")
    (dest / "code").write_text(f"{code}\n")
    (dest / "stdout").write_bytes(stdout.getvalue().encode())
    (dest / "stderr").write_bytes(stderr.getvalue().encode())
    written = Path("o")
    for path in sorted(p for p in written.rglob("*") if p.is_file()):
        target = dest / "files" / path.relative_to(written)
        target.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix in HASHED_SUFFIXES:
            target.with_name(target.name + ".sha256").write_text(_sha256(path) + "\n")
        else:
            shutil.copyfile(path, target)
    shutil.rmtree(written, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="checkout whose src/vesselwrap runs the cases")
    parser.add_argument("out", help="directory for the result tree (must not exist)")
    parser.add_argument("--only", nargs="+", choices=GROUPS, default=list(GROUPS))
    args = parser.parse_args(argv)
    out = Path(args.out).resolve()
    out.mkdir(parents=True)
    sys.path.insert(0, str(Path(args.src).resolve() / "src"))
    from vesselwrap import cli

    home = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="cli_matrix_") as work:
        os.chdir(work)
        try:
            for group in GROUPS:
                if group not in args.only:
                    continue
                cases = INPUTS[group]()
                if len({name for name, _ in cases}) != len(cases):
                    raise RuntimeError(f"duplicate case names in group {group}")
                for name, command in cases:
                    _run_case(cli, command, out / name)
            inputs = sorted(p for p in Path(".").rglob("*") if p.is_file())
            (out / "inputs.sha256").write_text("".join(f"{_sha256(p)}  {p}\n" for p in inputs))
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
