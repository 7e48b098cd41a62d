"""The names the benchmark in ``perfbench/`` takes from the program still exist.

The tracer patches every function named in ``perfbench/spans.py`` ``TARGETS``
by module and attribute, and ``perfbench/inputs.py`` imports the phantom and
volume names it builds inputs with. A renamed or deleted one breaks the
benchmark, not the program, so it is checked here. The seed-0 inputs are
checked byte for byte against the digests recorded beside the benchmark.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load("spans").TARGETS, ids=lambda t: f"{t[1]}.{t[2]}")
def test_traced_target_exists(target):
    _, module_name, attr, _, _ = target
    assert callable(getattr(importlib.import_module(f"vesselwrap.{module_name}"), attr))


def test_input_builder_imports():
    # importing the module resolves every ``from vesselwrap... import`` name
    assert callable(load("inputs").build)


@pytest.mark.parametrize("workload", ["ct-assess", "sigma-sweep", "cli-small"])
def test_seed0_inputs_match_recorded_digests(workload, tmp_path):
    # every input file the benchmark builds keeps the bytes it was recorded with
    want = json.loads((PERFBENCH / "inputs_seed0.json").read_text())[workload]["sha256"]
    record = load("inputs").build(workload, 0, tmp_path)
    assert record["inputs"]["sha256"] == want
