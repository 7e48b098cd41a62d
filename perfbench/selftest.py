"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # check
    python3 perfbench/selftest.py --update   # rewrite inputs_seed0.json

Run from the repository root. Exits non-zero on the first failed check.

1. Inputs are deterministic: building a workload twice with one seed gives
   byte-identical files (sha256 per file), and seed 0 reproduces the record
   in ``inputs_seed0.json`` (shapes, voxel and component counts, bytes on
   disk, digests), so a later change can confirm it measures the same inputs.
2. Tracing is transparent: every op writes byte-identical JSON (and stdout)
   traced and untraced, the layers each workload exercises record spans, and
   afterwards every patched module attribute is the original object again.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from run import WORK_ROOT, WORKLOADS  # noqa: E402  (first: it pins the thread counts)
import inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

REFERENCE = HERE / "inputs_seed0.json"

EXPECTED_LAYERS = {
    "ct-assess": {"cli", "volume.read", "volume.decode", "involvement.filter", "involvement.scan", "overlay"},
    "sigma-sweep": {
        "cli", "volume.read", "volume.write", "uncertainty.field", "uncertainty.mask",
        "uncertainty.sweep", "involvement.scan",
    },
    "cli-small": {
        "cli", "volume.read", "involvement.scan", "evaluation.scan", "evaluation.report",
        "loss.values", "loss.gradcheck",
    },
}


def _outputs(op, outcome) -> list[bytes]:
    return [outcome.stdout.encode()] + [doc.read_bytes() for doc in op.docs]


def check_inputs(name: str, work: Path, reference: dict) -> dict:
    """Build seed 0 twice; return the record of the build left in ``work / "a"``."""
    record = inputs.build(name, 0, work / "a")
    again = inputs.build(name, 0, work / "b")["inputs"]
    if record["inputs"]["sha256"] != again["sha256"]:
        raise AssertionError(f"{name}: the same seed built different files")
    if reference and reference.get(name) != record["inputs"]:
        raise AssertionError(f"{name}: seed 0 inputs differ from {REFERENCE.name}")
    shutil.rmtree(work / "b")
    return record


def check_tracing(name: str, record: dict, work: Path) -> None:
    (work / "out").mkdir()
    wl = workloads.make(name, record, work / "a", work / "out")
    tracer = spans.Tracer()
    seen = set()
    for op in wl.ops:
        plain = workloads.run_in_process(op, lambda: 0.0)
        op.check(op, plain)
        expected = _outputs(op, plain)
        with tracer:
            patched = list(tracer.patched)
            traced = workloads.run_in_process(op, lambda: 0.0)
        seen |= set(tracer.take())
        if _outputs(op, traced) != expected:
            raise AssertionError(f"{name} {op.kind}: traced output differs from untraced")
        for module, key, original in patched:
            if getattr(module, key) is not original:
                raise AssertionError(f"{name}: {module.__name__}.{key} was not restored")
    if spans.leftover_wrappers():
        raise AssertionError(f"{name}: wrappers left behind: {spans.leftover_wrappers()}")
    missing = EXPECTED_LAYERS[name] - seen
    if missing:
        raise AssertionError(f"{name}: no spans for {sorted(missing)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark self-tests")
    parser.add_argument("--update", action="store_true", help=f"rewrite {REFERENCE.name}")
    args = parser.parse_args(argv)
    reference = {} if args.update else json.loads(REFERENCE.read_text())
    records = {}
    WORK_ROOT.mkdir(exist_ok=True)
    for name in WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=WORK_ROOT))
        try:
            record = check_inputs(name, work, reference)
            records[name] = record["inputs"]
            print(f"PASS inputs  {name}: {len(records[name]['sha256'])} files identical")
            check_tracing(name, record, work)
            print(f"PASS tracing {name}: outputs identical, attributes restored")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    if args.update:
        REFERENCE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
