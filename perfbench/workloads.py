"""The workloads: their ops, how each op runs, and its output check.

An op is one CLI call. In-process workloads call ``vesselwrap.cli.main``;
``cli-small`` starts a fresh ``python -m vesselwrap.cli`` process per op.
Every op's output is checked against the analytic phantom truth recorded by
``inputs.py``; a mismatch, a raised exception or a non-zero exit fails the op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SPAN_TOLERANCE_DEG = 10.0
GRADCHECK_TOLERANCE = 1e-4
VESSEL_KEYS = ("artery", "vein")
OP_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An op's output disagrees with the phantom truth."""


@dataclass
class Outcome:
    code: int
    stdout: str
    seconds: float
    maxrss_kb: int = 0


@dataclass
class Op:
    kind: str
    argv: list[str]
    scans: int  # scans the op completes, for scans_per_s
    docs: list[Path]  # JSON documents the op writes
    check: Callable[["Op", Outcome], list[float]]  # returns |span errors| in deg
    truth: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]  # one cycle; runs always end on a whole cycle
    subprocess_ops: bool


def _load_doc(op: Op, outcome: Outcome) -> dict:
    if outcome.code != 0:
        raise CheckFailed(f"{op.kind} exited {outcome.code}")
    try:
        return json.loads(op.docs[0].read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{op.kind}: unreadable document: {exc}") from None


def _check_report(vessels: dict, category: str, truth: dict, where: str) -> list[float]:
    errors = []
    for key in VESSEL_KEYS:
        got, want = vessels[key], truth[key]
        if got["present"] != want["present"]:
            raise CheckFailed(f"{where} {key}: present={got['present']}, truth {want['present']}")
        if want["present"]:
            err = abs(got["max_involvement_deg"] - want["max_span_deg"])
            if err > SPAN_TOLERANCE_DEG:
                raise CheckFailed(
                    f"{where} {key}: span {got['max_involvement_deg']} vs truth {want['max_span_deg']}"
                )
            errors.append(err)
    if category != truth["dpcg_category"]:
        raise CheckFailed(f"{where}: grade {category}, truth {truth['dpcg_category']}")
    return errors


def check_assess(op: Op, outcome: Outcome) -> list[float]:
    doc = _load_doc(op, outcome)
    return _check_report(doc["vessels"], doc["dpcg_category"], op.truth, doc["scan_id"])


def check_evaluate(op: Op, outcome: Outcome) -> list[float]:
    doc = _load_doc(op, outcome)
    if doc["failures"]:
        raise CheckFailed(f"evaluate failures: {doc['failures']}")
    if doc["n_scans"] != op.scans:
        raise CheckFailed(f"evaluate scored {doc['n_scans']} of {op.scans} scans")
    for key, want in op.truth.items():
        got = doc["involvement"][key]["confusion"]
        if got != want:
            raise CheckFailed(f"evaluate {key} confusion {got}, expected {want}")
    return []


def check_uncertainty(op: Op, outcome: Outcome) -> list[float]:
    doc = _load_doc(op, outcome)
    sweep = doc["sweep"]
    if [e["k"] for e in sweep] != [t["k"] for t in op.truth["per_k"]]:
        raise CheckFailed(f"sweep ks {[e['k'] for e in sweep]}")
    errors = []
    for entry, truth in zip(sweep, op.truth["per_k"]):
        errors += _check_report(entry["vessels"], entry["dpcg_category"], truth, f"k={entry['k']}")
    return errors


def check_version(op: Op, outcome: Outcome) -> list[float]:
    if outcome.code != 0 or not re.fullmatch(r"vesselwrap \d+\.\d+\.\d+\S*\n", outcome.stdout):
        raise CheckFailed(f"--version exited {outcome.code} with {outcome.stdout!r}")
    return []


def check_loss(op: Op, outcome: Outcome) -> list[float]:
    doc = _load_doc(op, outcome)
    values = [doc[k] for k in ("bce", "dice", "overlap", "combined")]
    grads = doc["gradcheck_max_rel_error"]
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        raise CheckFailed(f"loss values {values}")
    if sorted(grads) != ["bce", "combined", "dice", "overlap"] or max(grads.values()) > GRADCHECK_TOLERANCE:
        raise CheckFailed(f"gradcheck errors {grads}")
    return []


def make(name: str, record: dict, inputs: Path, out: Path) -> Workload:
    """Ops of one workload over the inputs ``inputs.py`` wrote to ``inputs``."""
    if name == "ct-assess":
        ops = [
            Op("assess", [
                "assess", str(inputs / scan["header"]), "--critical", "--filter-mode", "component",
                "--overlay", str(out / "overlays"), "-o", str(out / f"{scan['scan_id']}.json"),
            ], 1, [out / f"{scan['scan_id']}.json"], check_assess, scan["truth"])
            for scan in record["scans"]
        ]
        return Workload(ops, False)
    if name == "sigma-sweep":
        argv = ["uncertainty"]
        for fold in record["folds"]:
            argv += ["--fold", str(inputs / fold)]
        argv += ["--out", str(out / "sweep")]
        op = Op("uncertainty", argv, 1, [out / "sweep" / "uncertainty.json"], check_uncertainty,
                {"per_k": record["truth_per_k"]})
        return Workload([op], False)
    if name == "cli-small":
        ops = [
            Op("version", ["--version"], 0, [], check_version),
            Op("assess", ["assess", str(inputs / record["scene"]), "-o", str(out / "scene.json")],
               1, [out / "scene.json"], check_assess, record["truth"]),
            Op("evaluate", ["evaluate", str(inputs / record["manifest"]), "-o", str(out / "metrics.json")],
               record["n_scans"], [out / "metrics.json"], check_evaluate, record["expected_confusion"]),
            Op("loss", ["loss", str(inputs / record["loss_prediction"]),
                        str(inputs / record["loss_ground_truth"]), "--gradcheck", "-o", str(out / "loss.json")],
               1, [out / "loss.json"], check_loss),
        ]
        return Workload(ops, True)
    raise ValueError(f"unknown workload {name!r}")


def run_in_process(op: Op, clock) -> Outcome:
    """One ``cli.main`` call with stdout and stderr captured."""
    from vesselwrap import cli

    for doc in op.docs:
        doc.unlink(missing_ok=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        t0 = clock()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse exits after --version
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        seconds = clock() - t0
    return Outcome(code, buf.getvalue(), seconds)


def run_subprocess(op: Op, clock, env: dict, scratch: Path) -> Outcome:
    """One fresh ``python -m vesselwrap.cli`` process; rusage from wait4."""
    for doc in op.docs:
        doc.unlink(missing_ok=True)
    out_path = scratch / "op.stdout"
    with out_path.open("w+b") as stdout:
        t0 = clock()
        proc = subprocess.Popen(
            [sys.executable, "-m", "vesselwrap.cli", *op.argv],
            stdout=stdout, stderr=subprocess.DEVNULL, env=env,
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        text = stdout.read().decode(errors="replace")
    return Outcome(proc.returncode, text, seconds, usage.ru_maxrss)
