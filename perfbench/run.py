"""vesselwrap benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload ct-assess --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. The run
builds the workload's inputs with ``vesselwrap.phantom`` in a child process
(timed as ``setup_s``), then issues one op at a time, cycle after cycle,
and stops at the end of the cycle nearest to ``--seconds``. Every op's output is
checked against the phantom truth.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every op
in-process, alternating untraced and traced cycles, and reports per-layer
self times and counts per traced op plus the tracing overhead. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import os

# Before numpy loads: one BLAS/OpenMP thread here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = ("ct-assess", "sigma-sweep", "cli-small")
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
STARTUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "scans_per_s": "scans/s", "peak_rss_mb": "MB"}

# Per-layer metrics of the traced run: (name, unit, span name, summed field).
# Each is the field's total over the traced ops divided by their number.
LAYER_MEANS = (
    ("volume.read.calls", "count", "volume.read", "calls"),
    ("volume.read.self_s", "s", "volume.read", "self_s"),
    ("volume.read.bytes", "B", "volume.read", "bytes"),
    ("volume.write.self_s", "s", "volume.write", "self_s"),
    ("volume.write.bytes", "B", "volume.write", "bytes"),
    ("volume.decode.self_s", "s", "volume.decode", "self_s"),
    ("involvement.scan.calls", "count", "involvement.scan", "calls"),
    ("involvement.scan.self_s", "s", "involvement.scan", "self_s"),
    ("involvement.slices", "count", "involvement.scan", "slices"),
    ("involvement.components", "count", "involvement.scan", "components"),
    ("involvement.filter.self_s", "s", "involvement.filter", "self_s"),
    ("uncertainty.field.self_s", "s", "uncertainty.field", "self_s"),
    ("uncertainty.mask.calls", "count", "uncertainty.mask", "calls"),
    ("uncertainty.mask.self_s", "s", "uncertainty.mask", "self_s"),
    ("uncertainty.sweep.self_s", "s", "uncertainty.sweep", "self_s"),
    ("evaluation.scan.calls", "count", "evaluation.scan", "calls"),
    ("evaluation.scan.self_s", "s", "evaluation.scan", "self_s"),
    ("evaluation.report.self_s", "s", "evaluation.report", "self_s"),
    ("loss.values.self_s", "s", "loss.values", "self_s"),
    ("loss.gradcheck.self_s", "s", "loss.gradcheck", "self_s"),
    ("overlay.images", "count", "overlay", "images"),
    ("overlay.self_s", "s", "overlay", "self_s"),
    ("overlay.bytes", "B", "overlay", "bytes"),
    ("cli.self_s", "s", "cli", "self_s"),
    ("cli.emit_bytes", "B", "emit", "bytes"),
)
LAYER_UNITS = {
    **{name: unit for name, unit, _, _ in LAYER_MEANS},
    "involvement.contact_slice_ratio": "ratio",
    "loss.elements": "count",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "trace.overhead": "ratio",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup(workload: str, seed: int, inputs: Path) -> dict:
    """Build the inputs in a child process, so its memory stays out of peak_rss_mb."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload, "--seed", str(seed),
         "--out", str(inputs), "--repeats", str(SETUP_MIN_REPEATS), "--min-seconds", str(SETUP_MIN_SECONDS)],
        env=_child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"input build failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class Loop:
    """Closed loop over a workload's op cycle, checking every op."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = _child_env()
        self.times: list[float] = []
        self.scans = 0
        self.attempted = 0
        self.failed = 0
        self.span_errors: list[float] = []
        self.maxrss_kb = 0
        self.errors: list[str] = []

    def run_op(self, op: workloads.Op, in_process: bool) -> workloads.Outcome | None:
        self.attempted += 1
        outcome = None
        try:
            if in_process:
                outcome = workloads.run_in_process(op, time.perf_counter)
            else:
                outcome = workloads.run_subprocess(op, time.perf_counter, self.env, self.scratch)
            self.span_errors += op.check(op, outcome)
            self.scans += op.scans
        except Exception as exc:  # a raise, a bad exit or a failed check fails the op
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        if outcome is not None:
            self.times.append(outcome.seconds)
            self.maxrss_kb = max(self.maxrss_kb, outcome.maxrss_kb)
        gc.collect()
        return outcome


def _done(start: float, cycle_start: float, seconds: float) -> bool:
    """True at the cycle boundary nearest to ``seconds`` after ``start``."""
    now = time.perf_counter()
    return now - start + (now - cycle_start) / 2 >= seconds


def run_plain(wl: workloads.Workload, seconds: float, scratch: Path) -> tuple[Loop, dict]:
    loop = Loop(scratch)
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in wl.ops:
            loop.run_op(op, in_process=not wl.subprocess_ops)
        if _done(start, cycle_start, seconds):
            break
    rss_kb = loop.maxrss_kb if wl.subprocess_ops else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return loop, {
        "op_s.p50": statistics.median(loop.times),
        "scans_per_s": loop.scans / sum(loop.times),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def _startup_times(env: dict) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and what ``import vesselwrap.cli`` adds."""
    def median_wall(code: str) -> float:
        samples = []
        for _ in range(STARTUP_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=CHILD_TIMEOUT_S)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    bare = median_wall("pass")
    return bare, median_wall("import vesselwrap.cli") - bare


def run_traced(wl: workloads.Workload, seconds: float, scratch: Path) -> tuple[Loop, dict]:
    """Alternate untraced and traced cycles in-process; per-layer means per traced op."""
    loop = Loop(scratch)
    tracer = spans.Tracer()
    plain_times: list[float] = []
    traced_times: list[float] = []
    totals: dict[str, dict[str, float]] = {}
    start = time.perf_counter()
    while True:
        cycle_start = time.perf_counter()
        for op in wl.ops:
            outcome = loop.run_op(op, in_process=True)
            if outcome is not None:
                plain_times.append(outcome.seconds)
        for op in wl.ops:
            with tracer:
                outcome = loop.run_op(op, in_process=True)
            layers = tracer.take()
            if outcome is None:
                continue
            traced_times.append(outcome.seconds)
            layers["emit"] = {"bytes": len(outcome.stdout.encode())
                              + sum(d.stat().st_size for d in op.docs if d.exists())}
            for name, agg in layers.items():
                slot = totals.setdefault(name, {})
                for key, value in agg.items():
                    slot[key] = slot.get(key, 0) + value
        if _done(start, cycle_start, seconds):
            break
    leftover = spans.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"tracer left wrappers behind: {leftover}")

    n = len(traced_times)
    metrics = {name: totals.get(span, {}).get(key, 0) / n for name, _, span, key in LAYER_MEANS}
    scan = totals.get("involvement.scan", {})
    metrics["involvement.contact_slice_ratio"] = (
        scan["contact_slices"] / scan["slices"] if scan.get("slices") else 0.0
    )
    grad = totals.get("loss.gradcheck", {})
    metrics["loss.elements"] = grad["elements"] / grad["calls"] if grad else 0.0
    if wl.subprocess_ops:
        metrics["cli.interpreter_s"], metrics["cli.import_s"] = _startup_times(loop.env)
    else:
        metrics["cli.interpreter_s"] = metrics["cli.import_s"] = 0.0
    metrics["trace.overhead"] = statistics.median(traced_times) / statistics.median(plain_times)
    return loop, metrics


def _print_metric(name: str, value: float, unit: str) -> None:
    print(f"{name:34s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="vesselwrap benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vesselwrap" / "__init__.py").is_file():
        sys.stderr.write(f"error: no vesselwrap sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import vesselwrap

    if Path(vesselwrap.__file__).resolve().parent != SRC / "vesselwrap":
        sys.stderr.write(f"error: imported vesselwrap from {vesselwrap.__file__}, not {SRC}\n")
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        # Flush dirty pages left by earlier runs, and then by the set-up, so
        # neither the set-up nor the ops wait on someone else's writeback.
        os.sync()
        record = setup(args.workload, args.seed, work / "inputs")
        os.sync()
        (work / "out").mkdir()
        wl = workloads.make(args.workload, record, work / "inputs", work / "out")
        if args.trace:
            loop, metrics = run_traced(wl, args.seconds, work)
            units = LAYER_UNITS
        else:
            loop, metrics = run_plain(wl, args.seconds, work)
            metrics = {"setup_s": statistics.median(record["setup_s"]), **metrics}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    span_err = max(loop.span_errors, default=None)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cycle": [op.kind for op in wl.ops],
        "op_s": [round(t, 4) for t in loop.times],
        "setup_builds": len(record["setup_s"]),
        "errors": loop.errors,
        "inputs": record["inputs"],
        "environment": _environment(),
    }, sort_keys=True))
    for name, value in metrics.items():
        _print_metric(name, value, units[name])
    _print_metric("ops", loop.attempted, "count")
    # No percentile above the median has ten ops beyond it in a run of a few
    # dozen ops, so the tail is shown as the slowest op and is not gated.
    _print_metric("op_s.tail", max(loop.times), "s")
    _print_metric("failed_ops_ratio", loop.failed / loop.attempted, "ratio")
    if span_err is not None:
        _print_metric("span_abs_err_deg.max", span_err, "deg")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
