"""The names the benchmark in ``perfbench/`` takes from the program still exist.

The tracer patches every function named in ``perfbench/spans.py`` ``TARGETS``
by module and attribute, and ``perfbench/inputs.py`` imports the phantom and
volume names it builds inputs with. A renamed or deleted one breaks the
benchmark, not the program, so it is checked here.
"""

import importlib
import importlib.util
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
