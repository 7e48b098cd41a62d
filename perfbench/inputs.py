"""Seeded benchmark inputs, built with ``vesselwrap.phantom`` and written to disk.

Each workload has one builder. A builder draws every free parameter from
``numpy.random.default_rng(seed)``, writes its volumes under the output
directory and returns the record the ops and output checks read (file
names and phantom truth) plus the volumes it wrote. The same seed always
yields byte-identical files.

Run as a script to generate one workload's inputs and print their record::

    PYTHONPATH=src python3 perfbench/inputs.py --workload ct-assess --seed 0 --out DIR

``--repeats K`` builds the inputs K times into the same directory and
records each build's wall time; the benchmark reports their median as
``setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
from scipy import ndimage

from vesselwrap import phantom
from vesselwrap.involvement import dpcg_classify
from vesselwrap.volume import (
    STANDARD_CHANNELS,
    ChannelId,
    LayeredLabelVolume,
    MaskVolume,
    ProbVolume,
    Spacing,
    decode_layered,
    encode_layered,
    write_volume,
)

VESSELS = (ChannelId.ARTERY, ChannelId.VEIN)
VESSEL_KEY = {ChannelId.ARTERY: "artery", ChannelId.VEIN: "vein"}
KS = (-1.0, 0.0, 1.0, 2.0)  # the CLI's default sigma steps

# Spans stay at least 10 deg away from the DPCG cut points (90 and 270), so
# the +-10 deg span tolerance of the output check can never flip a grade.
SPAN_RANGES = ((20.0, 80.0), (100.0, 260.0), (280.0, 340.0))

CT_DIMS = (100, 512, 512)
CT_SPACING = Spacing(1.0, 0.67, 0.67)
CT_TUBE_Z = (10, 90)
CT_CROP = 48  # side of the phantom block each tube is drawn in
CT_QUADRANTS = ((128, 128), (128, 384), (384, 128), (384, 384))
CT_TUBE_JITTER = 40

CROP_DIMS = (64, 128, 128)
CROP_Z = (8, 56)

LOSS_DIMS = (2, 16, 16)

MAX_REPEATS = 50


def _draw_span(rng: np.random.Generator) -> float:
    lo, hi = SPAN_RANGES[int(rng.integers(len(SPAN_RANGES)))]
    return round(float(rng.uniform(lo, hi)), 1)


def _truth_doc(spans: dict[ChannelId, float]) -> dict:
    """Expected report facts from the analytic scan-max span per vessel."""
    doc = {
        VESSEL_KEY[cid]: {"present": spans.get(cid, 0.0) > 0.0, "max_span_deg": spans.get(cid, 0.0)}
        for cid in VESSELS
    }
    doc["dpcg_category"] = dpcg_classify(
        spans.get(ChannelId.VEIN, 0.0), spans.get(ChannelId.ARTERY, 0.0)
    ).label
    return doc


def _ct_scan(rng: np.random.Generator, with_pancreas: bool):
    """One sparse CT-sized scan: two artery and two vein tubes, far apart.

    With ``with_pancreas`` a pancreas disk overlaps the first tube, so the
    component filter removes that tube and the truth leaves it out.
    """
    data = np.zeros((len(STANDARD_CHANNELS),) + CT_DIMS, dtype=np.uint8)
    half = CT_CROP // 2
    spans: dict[ChannelId, float] = {}
    kinds = [ChannelId.ARTERY, ChannelId.ARTERY, ChannelId.VEIN, ChannelId.VEIN]
    rng.shuffle(kinds)
    for i, ((row, col), kind) in enumerate(zip(CT_QUADRANTS, kinds)):
        radius = round(float(rng.uniform(8.0, 12.0)), 2)
        span = _draw_span(rng)
        removed = with_pancreas and i == 0
        spec = phantom.PhantomSpec(
            dims=(CT_DIMS[0], CT_CROP, CT_CROP),
            spacing=CT_SPACING,
            vessel_center=(float(half), float(half)),
            vessel_radius_px=radius,
            wrap_center_deg=round(float(rng.uniform(0.0, 360.0)), 1),
            wrap_span_deg=span,
            slice_range=CT_TUBE_Z,
            vessel_channel=kind,
            jitter_seed=int(rng.integers(2**31)),
            pancreas_center=(float(half), half + radius + 2.0) if removed else None,
            pancreas_radius_px=4.0 if removed else 0.0,
        )
        block, _ = phantom.gen_wrap_scene(spec)
        r0 = row + int(rng.integers(-CT_TUBE_JITTER, CT_TUBE_JITTER + 1)) - half
        c0 = col + int(rng.integers(-CT_TUBE_JITTER, CT_TUBE_JITTER + 1)) - half
        data[:, :, r0:r0 + CT_CROP, c0:c0 + CT_CROP] |= block.data
        if not removed:
            spans[kind] = max(spans.get(kind, 0.0), span)
    return MaskVolume(data, STANDARD_CHANNELS, CT_SPACING), _truth_doc(spans)


def build_ct_assess(rng: np.random.Generator, out: Path) -> tuple[dict, dict]:
    """A layered-label scan and a six-channel scan with a pancreas-touched tube."""
    scans = []
    volumes = {}
    for name, layered in (("ct_layered", True), ("ct_channels", False)):
        masks, truth = _ct_scan(rng, with_pancreas=not layered)
        volumes[name] = encode_layered(masks) if layered else masks
        write_volume(volumes[name], out / f"{name}.json")
        scans.append({"scan_id": name, "header": f"{name}.json", "truth": truth})
    return {"scans": scans}, volumes


def build_sigma_sweep(rng: np.random.Generator, out: Path) -> tuple[dict, dict]:
    """Three f32 folds whose rim band widens the arc past a DPCG cut at +2 sigma."""
    vessel = VESSELS[int(rng.integers(2))]
    # +2 sigma adds 2 * 25 deg; these base spans move the grade across 90
    # (artery) or 270 (vein) with at least 10 deg to spare on both sides.
    lo, hi = (55.0, 80.0) if vessel is ChannelId.ARTERY else (230.0, 260.0)
    center = CROP_DIMS[1] / 2.0
    spec = phantom.PhantomSpec(
        dims=CROP_DIMS, vessel_center=(center, center), slice_range=CROP_Z,
        vessel_channel=vessel, vessel_radius_px=round(float(rng.uniform(8.0, 12.0)), 2),
        wrap_span_deg=round(float(rng.uniform(lo, hi)), 1),
        wrap_center_deg=round(float(rng.uniform(0.0, 360.0)), 1),
        band_extra_deg=25.0, jitter_seed=int(rng.integers(2**31)),
    )
    folds, truths = phantom.gen_uncertainty_scene(spec, KS)
    if truths[KS[0]].category is truths[KS[-1]].category:
        raise RuntimeError("sigma-sweep scene lost its +2 sigma grade flip")
    volumes = {}
    for i, fold in enumerate(folds):
        write_volume(fold, out / f"fold{i}.json")
        volumes[f"fold{i}"] = fold
    per_k = [
        {"k": k, **_truth_doc({vessel: truths[k].max_span_deg} if truths[k].present else {})}
        for k in KS
    ]
    return {"folds": [f"fold{i}.json" for i in range(len(folds))], "truth_per_k": per_k}, volumes


def build_cli_small(rng: np.random.Generator, out: Path) -> tuple[dict, dict]:
    """The CLI's default 10x128x128 wrap scene, the phantom confusion suite
    (20 pred/gt pairs of 6x64x64) and a ~3k-element loss fixture."""
    spec = phantom.PhantomSpec(jitter_seed=int(rng.integers(2**31)))
    scene, truth = phantom.gen_wrap_scene(spec)
    write_volume(scene, out / "scene.json")
    volumes = {"scene": scene}

    lines = []
    expected = {key: {"tp": 0, "fp": 0, "tn": 0, "fn": 0} for key in ("artery", "vein", "scan")}
    for case in phantom.gen_confusion_suite(int(rng.integers(2**31))):
        for role, volume in (("pred", case.pred), ("gt", case.gt)):
            write_volume(volume, out / f"{case.name}_{role}.json")
            volumes[f"{case.name}_{role}"] = volume
        lines.append(json.dumps({
            "scan_id": case.name, "prediction": f"{case.name}_pred.json",
            "ground_truth": f"{case.name}_gt.json",
        }))
        for cid in VESSELS:
            expected[VESSEL_KEY[cid]][case.expected if cid is case.vessel else "tn"] += 1
        expected["scan"][case.expected] += 1
    (out / "manifest.jsonl").write_text("\n".join(lines) + "\n")

    fixture = phantom.PhantomSpec(
        dims=LOSS_DIMS, vessel_center=(8.0, 8.0), vessel_radius_px=2.5, slice_range=(0, LOSS_DIMS[0]),
        wrap_span_deg=round(float(rng.uniform(60.0, 300.0)), 1), axis_jitter_px=0.0,
    )
    gt, _ = phantom.gen_wrap_scene(fixture)
    noise = rng.uniform(-0.04, 0.04, size=gt.data.shape)
    pred = ProbVolume((0.05 + 0.9 * gt.data + noise).astype(np.float32), gt.channels, gt.spacing)
    write_volume(gt, out / "loss_gt.json")
    write_volume(pred, out / "loss_pred.json")
    volumes.update(loss_gt=gt, loss_pred=pred)
    return {
        "scene": "scene.json",
        "truth": _truth_doc({spec.vessel_channel: truth.max_span_deg}),
        "manifest": "manifest.jsonl",
        "n_scans": len(lines),
        "expected_confusion": expected,
        "loss_prediction": "loss_pred.json",
        "loss_ground_truth": "loss_gt.json",
    }, volumes


BUILDERS = {
    "ct-assess": build_ct_assess,
    "sigma-sweep": build_sigma_sweep,
    "cli-small": build_cli_small,
}


def _in_slice_components(volume) -> int | None:
    """8-connected in-slice components of the artery and vein channels."""
    if isinstance(volume, LayeredLabelVolume):
        volume = decode_layered(volume)
    if not isinstance(volume, MaskVolume):
        return None
    struct = np.zeros((3, 3, 3), dtype=bool)
    struct[1] = True
    total = 0
    for cid in VESSELS:
        if volume.has_channel(cid):
            total += ndimage.label(volume.channel(cid) > 0, structure=struct)[1]
    return total


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def build(workload: str, seed: int, out: Path, repeats: int = 1, min_seconds: float = 0.0) -> dict:
    """Build a workload's inputs into ``out`` and return their record.

    The build runs ``repeats`` times, and more until ``min_seconds`` have
    passed (at most MAX_REPEATS), so quick builds get enough samples for a
    steady median. Every build writes the same bytes.
    """
    out.mkdir(parents=True, exist_ok=True)
    times = []
    while len(times) < repeats or (sum(times) < min_seconds and len(times) < MAX_REPEATS):
        t0 = time.perf_counter()
        record, volumes = BUILDERS[workload](np.random.default_rng(seed), out)
        times.append(time.perf_counter() - t0)
    files = sorted(p for p in out.iterdir() if p.is_file())
    record["setup_s"] = times
    record["inputs"] = {
        "volumes": {
            name: {
                "shape": list(v.data.shape),
                "dtype": str(v.data.dtype),
                "voxels": int(v.data.size),
                "components": _in_slice_components(v),
            }
            for name, v in sorted(volumes.items())
        },
        "bytes_on_disk": sum(p.stat().st_size for p in files),
        "sha256": {p.name: _sha256(p) for p in files},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--min-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    record = build(args.workload, args.seed, Path(args.out), max(1, args.repeats), args.min_seconds)
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
