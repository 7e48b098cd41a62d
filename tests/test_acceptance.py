"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see the
lines on success; pytest shows them on failure regardless).
"""

import json
import time

import numpy as np
import pytest

from vesselwrap import cli
from vesselwrap.evaluation import (
    build_metrics_report,
    dpcg_bucket_table,
    evaluate_scan,
    r_squared,
    sensitivity_specificity,
    voxel_dice,
)
from vesselwrap.involvement import DpcgCategory, component_table, dpcg_classify, scan_involvement
from vesselwrap.loss import (
    bce,
    combined_loss,
    gradcheck_loss,
    overlap_loss,
    soft_dice_loss,
)
from vesselwrap.phantom import PhantomSpec, gen_uncertainty_scene, gen_wrap_scene
from vesselwrap.uncertainty import fold_mean_std, sigma_level_mask, uncertainty_sweep
from vesselwrap.volume import (
    ChannelId,
    MaskVolume,
    ProbVolume,
    STANDARD_CHANNELS,
    encode_layered,
    read_volume,
    write_volume,
)
from conftest import brute_force_contact, field_stream, make_mask, make_prob, tav_volume

SWEEP_SEED = 20240817
KS = (-1.0, 0.0, 1.0, 2.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


def test_phantom_geometry_sweep():
    rng = np.random.default_rng(SWEEP_SEED)
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for radius in (8.0, 12.0, 16.0):
        for span in (20.0, 45.0, 90.0, 180.0, 270.0, 340.0):
            spec = PhantomSpec(
                vessel_radius_px=radius,
                wrap_span_deg=span,
                wrap_center_deg=float(rng.uniform(0.0, 360.0)),
                jitter_seed=int(rng.integers(1 << 31)),
            )
            scene, truth = gen_wrap_scene(spec)
            measured = scan_involvement(scene, spec.vessel_channel).max_span_deg
            worst = max(worst, abs(measured - truth.max_span_deg))
            cases += 1
    elapsed = time.perf_counter() - t0
    report(
        "phantom-geometry",
        worst <= 10.0 and elapsed < 5.0,
        f"{cases} scenes, worst |err| {worst:.2f} deg <= 10, sweep {elapsed:.2f}s < 5s",
    )


def test_dpcg_threshold_table():
    venous = {0.0: DpcgCategory.RESECTABLE, 90.0: DpcgCategory.RESECTABLE,
              90.01: DpcgCategory.BORDERLINE_RESECTABLE, 270.0: DpcgCategory.BORDERLINE_RESECTABLE,
              270.01: DpcgCategory.IRRESECTABLE, 360.0: DpcgCategory.IRRESECTABLE}
    arterial = {0.0: DpcgCategory.RESECTABLE, 90.0: DpcgCategory.BORDERLINE_RESECTABLE,
                90.01: DpcgCategory.IRRESECTABLE, 270.0: DpcgCategory.IRRESECTABLE,
                270.01: DpcgCategory.IRRESECTABLE, 360.0: DpcgCategory.IRRESECTABLE}
    ok = all(dpcg_classify(deg, 0.0) is cat for deg, cat in venous.items()) and all(
        dpcg_classify(0.0, deg) is cat for deg, cat in arterial.items()
    )
    report("dpcg-thresholds", ok, "12 boundary probes exact on both vessel kinds")


def test_contact_brute_force_oracle():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    mismatches = 0
    for _ in range(500):
        tumor = rng.random((16, 16)) < rng.uniform(0.05, 0.3)
        vessel = rng.random((16, 16)) < rng.uniform(0.05, 0.3)
        masks = tav_volume(tumor[None], np.zeros((1, 16, 16)), vessel[None])
        table = component_table(masks, ChannelId.VEIN, 8)
        got = set(zip(*(axis.tolist() for axis in np.unravel_index(table.contact, (16, 16)))))
        if got != brute_force_contact(tumor, vessel):
            mismatches += 1
    report("contact-oracle", mismatches == 0,
           f"500 random 16x16 slice pairs, {mismatches} mismatches vs neighbourhood scan")


def test_loss_kernels():
    worst_grad = 0.0
    worst_comp = 0.0
    for seed in (101, 102, 103):
        gen = np.random.default_rng(seed)
        pred = gen.uniform(0.2, 0.8, size=(6, 2, 4, 4))
        gt = gen.integers(0, 2, size=(6, 2, 4, 4)).astype(np.float64)
        for name in ("bce", "dice", "overlap", "combined"):
            worst_grad = max(worst_grad, gradcheck_loss(name, pred, gt))
        composed = 0.8 * (0.5 * bce(pred, gt) + 0.5 * soft_dice_loss(pred, gt)) \
            + 0.2 * overlap_loss(pred, gt)
        worst_comp = max(worst_comp, abs(combined_loss(pred, gt) - composed))
    report(
        "loss-kernels",
        worst_grad < 1e-4 and worst_comp <= 1e-12,
        f"gradcheck max rel err {worst_grad:.2e} < 1e-4, "
        f"composition gap {worst_comp:.1e} <= 1e-12",
    )


def _random_tav_field(seed: int) -> tuple[ProbVolume, ProbVolume]:
    gen = np.random.default_rng(seed)
    channels = (ChannelId.ARTERY, ChannelId.VEIN, ChannelId.TUMOR)
    mean = make_prob(gen.random((3, 2, 12, 12), dtype=np.float32), channels=channels)
    std = make_prob(
        (gen.random((3, 2, 12, 12), dtype=np.float32) * 0.5).astype(np.float32),
        channels=channels,
    )
    return mean, std


def test_uncertainty_nesting_and_borderline_flip():
    nested = True
    monotone = True
    for seed in range(100):
        field = _random_tav_field(seed)
        masks = [sigma_level_mask(field_stream(*field), k).data for k in KS]
        for lo, hi in zip(masks, masks[1:]):
            if not (lo <= hi).all():
                nested = False
        entries = uncertainty_sweep(field_stream(*field), KS)
        for vessel in (ChannelId.ARTERY, ChannelId.VEIN):
            flags = [e.reports[vessel].present for e in entries]
            if flags != sorted(flags):
                monotone = False

    spec = PhantomSpec(wrap_span_deg=70.0, band_extra_deg=25.0)
    folds, truths = gen_uncertainty_scene(spec, KS)
    entries = uncertainty_sweep(fold_mean_std(folds), KS)
    flip_ok = all(
        e.category is truths[e.k].category for e in entries
    ) and [e.category for e in entries] == [
        DpcgCategory.RESECTABLE, DpcgCategory.RESECTABLE, DpcgCategory.RESECTABLE,
        DpcgCategory.BORDERLINE_RESECTABLE,
    ]
    report(
        "uncertainty-nesting",
        nested and monotone and flip_ok,
        "100 seeded fields nested over k in {-1,0,1,2}, presence monotone, "
        "borderline crossing at k=+2",
    )


def test_metric_definitions():
    checks = []
    sens, _ = sensitivity_specificity({"tp": 15, "fp": 0, "tn": 0, "fn": 2})
    checks.append(("sensitivity 15/(15+2)", round(sens, 3) == 0.882))
    _, spec_v = sensitivity_specificity({"tp": 0, "fp": 2, "tn": 12, "fn": 0})
    checks.append(("specificity 12/(12+2)", round(spec_v, 3) == 0.857))
    checks.append(
        ("r2 reversed ramp", r_squared([0.0, 90.0, 180.0], [180.0, 90.0, 0.0]) == -3.0)
    )
    a = np.zeros(8); a[:4] = 1
    b = np.zeros(8); b[2:6] = 1
    checks.append(("dice half overlap", voxel_dice(np.flatnonzero(a), np.flatnonzero(b)) == 0.5))
    checks.append(("dice empty-vs-empty", voxel_dice(np.flatnonzero(a[:0]), np.flatnonzero(a[:0])) == 1.0))
    pairs = (
        [(0.0, 0.0)] * 19 + [(45.0, 60.0)] * 5
        + [(120.0, 80.0)] * 4 + [(200.0, 290.0)] * 3 + [(300.0, 320.0)]
    )
    rows = dpcg_bucket_table(pairs)
    checks.append(
        ("bucket table (19/19),(5/5),(0/7),(1/1)",
         [(r["matched"], r["total"]) for r in rows] == [(19, 19), (5, 5), (0, 7), (1, 1)])
    )
    scenes = [
        gen_wrap_scene(PhantomSpec(wrap_span_deg=100.0 + 15 * i, jitter_seed=i))[0]
        for i in range(3)
    ]
    evals = [evaluate_scan(s, s, scan_id=str(i)) for i, s in enumerate(scenes)]
    rep = build_metrics_report(evals)
    self_ok = all(st["mean"] == 1.0 for st in rep["dice"].values()) and all(
        rep["involvement"][k]["confusion"]["fp"] == 0 and rep["involvement"][k]["confusion"]["fn"] == 0
        for k in ("artery", "vein", "scan")
    )
    checks.append(("self-evaluation dice 1.0, TP/TN only", self_ok))
    failed = [name for name, ok in checks if not ok]
    report("metric-definitions", not failed, f"{len(checks)} fixtures exact; failed: {failed or 'none'}")


def test_io_roundtrip_and_layered_equivalence(tmp_path):
    rng = np.random.default_rng(SWEEP_SEED + 2)
    bad = 0
    for i in range(1000):
        dims = tuple(int(d) for d in rng.integers(1, 5, size=3))
        n_ch = int(rng.integers(1, 4))
        channels = STANDARD_CHANNELS[:n_ch]
        if rng.random() < 0.5:
            vol = make_mask(rng.integers(0, 2, size=(n_ch,) + dims), channels=channels)
        else:
            vol = make_prob(rng.random(size=(n_ch,) + dims, dtype=np.float32), channels=channels)
        write_volume(vol, tmp_path / "v.json")
        back = read_volume(tmp_path / "v.json")
        if type(back) is not type(vol) or back.data.tobytes() != vol.data.tobytes():
            bad += 1

    # layered decode equivalence on a scene with tumor-vein and tumor-artery overlaps
    scene, _ = gen_wrap_scene(PhantomSpec(wrap_span_deg=150.0, jitter_seed=4))
    data = scene.data.copy()
    ti = STANDARD_CHANNELS.index(ChannelId.TUMOR)
    vi = STANDARD_CHANNELS.index(ChannelId.VEIN)
    ai = STANDARD_CHANNELS.index(ChannelId.ARTERY)
    data[ai, 2, 20:24, 20:24] = 1
    data[ti, 2, 20:22, 20:24] = 1  # tumor-artery overlap
    data[ti, 3, 60:62, 60:62] = data[vi, 3, 60:62, 60:62]  # tumor-vein overlap (inside the tube)
    multi = MaskVolume(data, STANDARD_CHANNELS, scene.spacing)
    write_volume(multi, tmp_path / "multi.json")
    write_volume(encode_layered(multi), tmp_path / "layered.json")
    code_a = cli.main(["assess", str(tmp_path / "multi.json"), "--scan-id", "eq",
                       "-o", str(tmp_path / "a.json")])
    code_b = cli.main(["assess", str(tmp_path / "layered.json"), "--scan-id", "eq",
                       "-o", str(tmp_path / "b.json")])
    same = (
        code_a == code_b == 0
        and (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    )
    report(
        "io-roundtrip",
        bad == 0 and same,
        f"1000 randomized round-trips bit-exact ({bad} bad), layered assessment identical",
    )


def test_document_determinism(tmp_path):
    scene, _ = gen_wrap_scene(PhantomSpec(wrap_span_deg=210.0, jitter_seed=6))
    write_volume(scene, tmp_path / "scene.json")
    outs = []
    for run_idx in (1, 2):
        out = tmp_path / f"assess{run_idx}.json"
        assert cli.main(["assess", str(tmp_path / "scene.json"), "--scan-id", "d",
                         "-o", str(out)]) == 0
        outs.append(out.read_bytes())
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps(
        {"scan_id": "d", "prediction": "scene.json", "ground_truth": "scene.json"}
    ) + "\n")
    reps = []
    for run_idx in (1, 2):
        out = tmp_path / f"eval{run_idx}.json"
        assert cli.main(["evaluate", str(manifest), "-o", str(out)]) == 0
        reps.append(out.read_bytes())
    ok = outs[0] == outs[1] and reps[0] == reps[1]
    report("determinism", ok, "repeated assess and evaluate runs byte-identical")
