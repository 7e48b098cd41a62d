from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vesselwrap.evaluation import (
    build_metrics_report,
    dpcg_bucket_table,
    evaluate_scan,
    involvement_confusion,
    r_squared,
    sensitivity_specificity,
    voxel_dice,
)
from vesselwrap.phantom import PhantomSpec, gen_confusion_suite, gen_wrap_scene
from vesselwrap.volume import ChannelId, MaskVolume, Spacing, STANDARD_CHANNELS
from conftest import dice_reference


SP = Spacing(1.0, 1.0, 1.0)


def dice(pred, gt) -> float:
    """``voxel_dice`` of two grids, given the flat indices of their > 0 voxels."""
    return voxel_dice(*(np.flatnonzero(np.asarray(grid) > 0) for grid in (pred, gt)))


class TestDice:
    """The properties of ``voxel_dice``; the grid oracle ``dice_reference`` keeps its own checks."""

    def test_identical(self, rng):
        m = rng.integers(0, 2, size=(3, 4, 4))
        m[0, 0, 0] = 1
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((2, 2, 2))
        b = np.zeros((2, 2, 2))
        a[0, 0, 0] = 1
        b[1, 1, 1] = 1
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        # |P| = |G| = 4 with |P & G| = 2 -> 2*2 / 8
        p = np.zeros(8)
        g = np.zeros(8)
        p[:4] = 1
        g[2:6] = 1
        assert dice(p.reshape(2, 2, 2), g.reshape(2, 2, 2)) == pytest.approx(0.5)

    def test_both_empty_is_one(self):
        z = np.zeros((1, 2, 2))
        assert dice(z, z) == 1.0

    def test_geometry_mismatch(self):
        with pytest.raises(ValueError):
            dice_reference(np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_symmetric_and_one_iff_equal(self, seed):
        gen = np.random.default_rng(seed)
        a = gen.integers(0, 2, size=(2, 4, 4))
        b = gen.integers(0, 2, size=(2, 4, 4))
        assert dice(a, b) == dice(b, a)
        assert (dice(a, b) == 1.0) == bool((a == b).all())

    def test_monotone_under_shrinking_symmetric_difference(self, rng):
        a = rng.integers(0, 2, size=(1, 5, 5))
        b = rng.integers(0, 2, size=(1, 5, 5))
        mismatch = np.argwhere(a != b)
        if len(mismatch):
            closer = b.copy()
            z, y, x = mismatch[0]
            closer[z, y, x] = a[z, y, x]
            assert dice(a, closer) >= dice(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),
        density=st.floats(0.0, 1.0),
        kinds=st.tuples(*[st.sampled_from(["bool", "uint8", "uint8-any", "float"])] * 2),
    )
    def test_counts_match_boolean_sum_formula(self, seed, shape, density, kinds):
        gen = np.random.default_rng(seed)

        def grid(kind):
            on = gen.random(shape) < density
            if kind == "bool":
                return on
            if kind == "uint8":
                return on.astype(np.uint8)
            if kind == "uint8-any":
                return on * gen.integers(1, 256, size=shape).astype(np.uint8)
            return np.where(on, gen.uniform(1e-6, 1.0, size=shape), -gen.uniform(0.0, 1.0, size=shape))

        a, b = grid(kinds[0]), grid(kinds[1])
        p, g = a > 0, b > 0
        denom = int(p.sum()) + int(g.sum())
        expected = 1.0 if denom == 0 else 2.0 * int((p & g).sum()) / denom
        assert dice_reference(a, b) == expected == dice(a, b)


def _scene(span, vessel=ChannelId.VEIN, angle=90.0, seed=0):
    spec = PhantomSpec(
        dims=(4, 64, 64), vessel_center=(32.0, 32.0), slice_range=(1, 3),
        wrap_span_deg=span, wrap_center_deg=angle, vessel_channel=vessel, jitter_seed=seed,
    )
    return gen_wrap_scene(spec)[0]


def _empty():
    return MaskVolume(np.zeros((6, 4, 64, 64), np.uint8), STANDARD_CHANNELS, Spacing(1.0, 1.0, 1.0))


def scan_cell_counts(pairs) -> dict[str, int]:
    """Scan-level confusion counts of build_metrics_report over (pred, gt) scenes."""
    evals = [evaluate_scan(p, g, scan_id=str(i)) for i, (p, g) in enumerate(pairs)]
    return build_metrics_report(evals)["involvement"]["scan"]["confusion"]


def counts(tp=0, fp=0, tn=0, fn=0) -> dict[str, int]:
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn}


class TestVoxelDice:
    """Dice from voxel indices equals the dense formula exactly."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)),
        pred_density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        gt_density=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
    )
    def test_equals_dense_dice(self, seed, dims, pred_density, gt_density):
        gen = np.random.default_rng(seed)
        p, g = gen.random(dims) < pred_density, gen.random(dims) < gt_density
        assert voxel_dice(np.flatnonzero(p), np.flatnonzero(g)) == dice_reference(p, g)

    def test_both_and_one_empty(self):
        empty, some = np.zeros(0, dtype=np.intp), np.array([3, 5])
        assert voxel_dice(empty, empty) == 1.0
        assert voxel_dice(empty, some) == voxel_dice(some, empty) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([0.0, 0.1, 0.6]))
    def test_scan_dice_equals_dense_and_builds_no_grid(self, seed, density):
        """evaluate_scan on volumes of indices gives the dense Dice and never asks for a grid."""
        gen = np.random.default_rng(seed)
        dims = (3, 8, 9)

        def volume(d):
            return MaskVolume.from_voxels(
                {c: np.flatnonzero(gen.random(dims) < d) for c in STANDARD_CHANNELS}, dims, SP
            )

        pred, gt = volume(density), volume(0.3)
        dense = {c: (pred.channel(c), gt.channel(c)) for c in STANDARD_CHANNELS}
        with mock.patch.object(MaskVolume, "channel", None), mock.patch.object(MaskVolume, "data", None):
            ev = evaluate_scan(pred, gt)
        for cid, (p, g) in dense.items():
            assert ev.dice_by_channel[cid.name.lower()] == dice_reference(p, g)
        tumor_p, tumor_g = dense[ChannelId.TUMOR]
        for cid, key in ((ChannelId.ARTERY, "artery_overlap"), (ChannelId.VEIN, "vein_overlap")):
            p, g = dense[cid]
            assert ev.dice_by_channel[key] == dice_reference(tumor_p & p, tumor_g & g)

    def test_scan_geometry_mismatch(self):
        a = MaskVolume(np.zeros((1, 1, 2, 2), np.uint8), (ChannelId.TUMOR,), SP)
        b = MaskVolume(np.zeros((1, 1, 2, 3), np.uint8), (ChannelId.TUMOR,), SP)
        with pytest.raises(ValueError) as exc:
            evaluate_scan(a, b)
        assert str(exc.value) == ("geometry mismatch: prediction (1, 2, 2) at (1.0, 1.0, 1.0) mm, "
                                  "ground truth (1, 2, 3) at (1.0, 1.0, 1.0) mm")

    @pytest.mark.parametrize("side", ["gt", "gt_critical"])
    @pytest.mark.parametrize("dims, spacing, shown", [
        ((10, 128, 128), Spacing(1.0, 0.5, 1.0), "(10, 128, 128) at (1.0, 0.5, 1.0) mm"),
        ((10, 64, 64), SP, "(10, 64, 64) at (1.0, 1.0, 1.0) mm"),
        ((10, 128, 128), Spacing(2.0, 1.0, 1.0), "(10, 128, 128) at (2.0, 1.0, 1.0) mm"),
    ], ids=["spacing-y", "dims", "spacing-z"])
    def test_ground_truth_geometry_checked_before_any_score(self, side, dims, spacing, shown):
        """A ground truth of other dims or spacing is never scored, whatever channels it holds."""
        pred = gen_wrap_scene(PhantomSpec())[0]
        other = gen_wrap_scene(PhantomSpec(dims=dims, spacing=spacing,
                                           vessel_center=(dims[1] / 2, dims[2] / 2)))[0]
        kwargs = {"gt": pred, "gt_critical": None, side: other}
        name = "ground truth" if side == "gt" else "critical ground truth"
        with mock.patch("vesselwrap.evaluation.voxel_dice", side_effect=AssertionError("scored")), \
                mock.patch("vesselwrap.evaluation.inv.assess_scan", side_effect=AssertionError("graded")):
            with pytest.raises(ValueError) as exc:
                evaluate_scan(pred, **kwargs)
        assert str(exc.value) == (f"geometry mismatch: prediction (10, 128, 128) at (1.0, 1.0, 1.0) mm, "
                                  f"{name} {shown}")


class TestConfusion:
    def test_cells(self):
        assert involvement_confusion(True, True) == "tp"
        assert involvement_confusion(True, False) == "fp"
        assert involvement_confusion(False, False) == "tn"
        assert involvement_confusion(False, True) == "fn"

    def test_scan_level_or(self):
        artery = _scene(120.0, vessel=ChannelId.ARTERY)
        vein = _scene(120.0, vessel=ChannelId.VEIN)
        # artery TP, vein TN -> scan TP
        assert scan_cell_counts([(artery, artery)]) == counts(tp=1)
        # both TN -> TN
        assert scan_cell_counts([(_empty(), _empty())]) == counts(tn=1)
        # pred vein only, GT artery only -> still TP under OR semantics
        assert scan_cell_counts([(vein, artery)]) == counts(tp=1)

    def test_counts_partition(self):
        artery = _scene(120.0, vessel=ChannelId.ARTERY)
        pairs = [(artery, artery), (artery, _empty()), (_empty(), _empty()),
                 (_empty(), artery), (artery, artery)]
        evals = [evaluate_scan(p, g, scan_id=str(i)) for i, (p, g) in enumerate(pairs)]
        involvement = build_metrics_report(evals)["involvement"]
        for key in ("artery", "vein", "scan"):
            assert sum(involvement[key]["confusion"].values()) == len(pairs)
        assert involvement["scan"]["confusion"] == counts(tp=2, fp=1, tn=1, fn=1)
        # rates come rounded to 4 decimals, as the document prints them
        assert involvement["scan"]["sensitivity"] == {"value": 0.6667, "reason": None}


class TestSensitivitySpecificity:
    def test_headline_sensitivity(self):
        sens, _ = sensitivity_specificity(counts(tp=15, fn=2))
        assert sens == pytest.approx(15 / 17)
        assert round(sens, 3) == 0.882

    def test_headline_specificity(self):
        _, spec = sensitivity_specificity(counts(tn=12, fp=2))
        assert spec == pytest.approx(12 / 14)
        assert round(spec, 3) == 0.857

    def test_undefined_marked_none(self):
        sens, spec = sensitivity_specificity(counts())
        assert sens is None and spec is None


class TestRSquared:
    def test_perfect(self):
        assert r_squared([0, 90, 180], [0, 90, 180]) == 1.0

    def test_mean_prediction_zero(self):
        y = [0.0, 90.0, 180.0]
        assert r_squared(y, [90.0, 90.0, 90.0]) == pytest.approx(0.0)

    def test_reversed_is_minus_three(self):
        # oracle: ss_res = 180^2 + 0 + 180^2 = 64800, ss_tot = 2 * 90^2 = 16200
        assert 64800 / 16200 == 4.0
        assert r_squared([0.0, 90.0, 180.0], [180.0, 90.0, 0.0]) == pytest.approx(-3.0)

    def test_degenerate_gt(self):
        with pytest.raises(ValueError, match="constant"):
            r_squared([90.0, 90.0], [0.0, 10.0])
        with pytest.raises(ValueError):
            r_squared([90.0], [0.0])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shift=st.floats(-500, 500, allow_nan=False))
    def test_shift_invariance(self, seed, shift):
        gen = np.random.default_rng(seed)
        y = gen.uniform(0, 360, size=6)
        yh = gen.uniform(0, 360, size=6)
        base = r_squared(y, yh)
        shifted = r_squared(y + shift, yh + shift)
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)


class TestBucketTable:
    def test_all_matched(self):
        pairs = [(0.0, 0.0), (45.0, 30.0), (120.0, 200.0), (300.0, 355.0)]
        rows = dpcg_bucket_table(pairs)
        assert all(r["matched"] == r["total"] == 1 for r in rows)

    def test_mismatch_counted_in_gt_bucket(self):
        rows = dpcg_bucket_table([(120.0, 60.0)])
        by = {r["bucket"]: r for r in rows}
        assert by["90 < deg <= 270"] == {"bucket": "90 < deg <= 270", "matched": 0, "total": 1}
        assert by["0 < deg <= 90"]["total"] == 0

    def test_reporting_table_fixture(self):
        # constructed list reproducing the (19/19), (5/5), (0/7), (1/1) column
        pairs = (
            [(0.0, 0.0)] * 19
            + [(45.0, 60.0)] * 5
            + [(120.0, 80.0)] * 4 + [(200.0, 290.0)] * 3
            + [(300.0, 320.0)]
        )
        rows = dpcg_bucket_table(pairs)
        assert [(r["matched"], r["total"]) for r in rows] == [(19, 19), (5, 5), (0, 7), (1, 1)]

    def test_row_totals_count_gt_bucket_members(self, rng):
        pairs = [(float(g), float(p)) for g, p in rng.uniform(0, 360, size=(50, 2))]
        rows = dpcg_bucket_table(pairs)
        assert sum(r["total"] for r in rows) == 50


class TestEvaluateScan:
    def test_self_evaluation_perfect(self):
        scene = _scene(120.0)
        ev = evaluate_scan(scene, scene, scan_id="self")
        assert all(v == 1.0 for v in ev.dice_by_channel.values())
        for vessel in (ChannelId.ARTERY, ChannelId.VEIN):
            assert ev.pred[vessel] == ev.gt[vessel]

    def test_wrong_location_still_tp(self):
        pred = _scene(90.0, angle=45.0)
        gt = _scene(90.0, angle=270.0)
        ev = evaluate_scan(pred, gt, scan_id="wrongloc")
        cell = involvement_confusion(ev.pred[ChannelId.VEIN][0], ev.gt[ChannelId.VEIN][0])
        assert cell == "tp"


def _tube_volume(artery_cols, pancreas_cols, tumor_cols, dims=(3, 8, 8)):
    data = np.zeros((len(STANDARD_CHANNELS),) + dims, dtype=np.uint8)
    for c in artery_cols:
        data[STANDARD_CHANNELS.index(ChannelId.ARTERY), :, :, c] = 1
    for c in pancreas_cols:
        data[STANDARD_CHANNELS.index(ChannelId.PANCREAS), :, :, c] = 1
    for c in tumor_cols:
        data[STANDARD_CHANNELS.index(ChannelId.TUMOR), :, :, c] = 1
    return MaskVolume(data, STANDARD_CHANNELS, Spacing(1.0, 1.0, 1.0))


def critical_cells(pred, gt_critical) -> dict[ChannelId, str]:
    """Per-vessel confusion cells of evaluate_scan in critical mode."""
    ev = evaluate_scan(pred, pred, gt_critical=gt_critical)
    return {
        v: involvement_confusion(ev.pred[v][0], ev.gt[v][0])
        for v in (ChannelId.ARTERY, ChannelId.VEIN)
    }


class TestCriticalVesselEval:
    def test_contact_via_embedded_vessel_filtered_to_tn(self):
        # artery column 2 inside pancreas columns 1..3; tumor column 3 touches it
        pred = _tube_volume(artery_cols=[2], pancreas_cols=[1, 2, 3], tumor_cols=[3])
        gt_critical = _tube_volume(artery_cols=[], pancreas_cols=[], tumor_cols=[])
        cells = critical_cells(pred, gt_critical)
        assert cells[ChannelId.ARTERY] == "tn"

    def test_free_vessel_unaffected_by_filter(self):
        pred = _tube_volume(artery_cols=[2], pancreas_cols=[6], tumor_cols=[3])
        gt_critical = _tube_volume(artery_cols=[2], pancreas_cols=[], tumor_cols=[3])
        cells = critical_cells(pred, gt_critical)
        assert cells[ChannelId.ARTERY] == "tp"

    def test_two_tubes_only_free_counted(self):
        # embedded tube at col 2 (in pancreas), free tube at col 6; tumor touches both
        pred = _tube_volume(artery_cols=[2, 6], pancreas_cols=[1, 2, 3], tumor_cols=[3, 5])
        gt_free_only = _tube_volume(artery_cols=[6], pancreas_cols=[], tumor_cols=[5])
        cells = critical_cells(pred, gt_free_only)
        assert cells[ChannelId.ARTERY] == "tp"
        # drop the free tube contact from GT: prediction still counts the free tube
        gt_none = _tube_volume(artery_cols=[], pancreas_cols=[], tumor_cols=[])
        cells = critical_cells(pred, gt_none)
        assert cells[ChannelId.ARTERY] == "fp"


class TestMetricsReport:
    def test_confusion_suite_counts(self):
        cases = gen_confusion_suite(seed=11)
        evals = [
            evaluate_scan(case.pred, case.gt, scan_id=case.name) for case in cases
        ]
        report = build_metrics_report(evals)
        # every scene pair contributes the constructed scan-level cell
        scan = report["involvement"]["scan"]["confusion"]
        assert scan == counts(tp=5, fp=5, tn=5, fn=5)
        assert sum(scan.values()) == len(cases)
        for case, ev in zip(cases, evals):
            assert involvement_confusion(ev.pred[case.vessel][0], ev.gt[case.vessel][0]) == case.expected

    def test_self_manifest_dice_and_confusion(self):
        scenes = [_scene(120.0, seed=s) for s in range(4)]
        evals = [evaluate_scan(s, s, scan_id=str(i)) for i, s in enumerate(scenes)]
        report = build_metrics_report(evals)
        for stats in report["dice"].values():
            assert stats["mean"] == 1.0
            assert stats["std_per_case"] == 0.0
        for key in ("artery", "vein", "scan"):
            cells = report["involvement"][key]["confusion"]
            assert cells["fp"] == 0 and cells["fn"] == 0
            assert cells["tp"] + cells["tn"] == len(scenes)
        # jittered seeds give distinct GT degrees, so self-eval R^2 is exact
        assert report["r2_max_involvement"]["vein"] == {"value": 1.0, "reason": None}

    def test_degenerate_r2_marked(self):
        scene = _scene(120.0, seed=1)
        evals = [evaluate_scan(scene, scene, scan_id=str(i)) for i in range(3)]
        report = build_metrics_report(evals)
        assert report["r2_max_involvement"]["vein"]["value"] is None
        assert "constant" in report["r2_max_involvement"]["vein"]["reason"]

    def test_per_fold_std_labeled(self):
        scenes = [_scene(120.0, seed=s) for s in range(4)]
        folds = ["a", "a", "b", "b"]
        evals = [
            evaluate_scan(s, s, scan_id=str(i), fold=f)
            for i, (s, f) in enumerate(zip(scenes, folds))
        ]
        report = build_metrics_report(evals)
        stats = report["dice"]["tumor"]
        assert stats["std_per_fold"] == 0.0  # all dice 1.0 in both folds
        evals_nofold = [evaluate_scan(s, s, scan_id=str(i)) for i, s in enumerate(scenes)]
        assert build_metrics_report(evals_nofold)["dice"]["tumor"]["std_per_fold"] is None
