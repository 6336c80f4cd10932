"""The benchmark's hooks and library calls resolve against macfade.

The tracer hooks named functions of macfade's modules.  A layer renamed or
folded away makes the tracer drop that layer's metrics instead of failing,
so one test names every hooked symbol that no longer resolves.  The
workloads call the library (and a few CLI internals) directly, so another
runs one pass of each and requires every check to pass.  The benchmark's
files are loaded by file path; they are not a package on the import path.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from macfade import boundary, cli, kernel, montecarlo, solver

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_symbol_resolves_to_a_callable():
    tracing = _load("tracing")
    assert tracing.HOOKS
    missing = [f"macfade.{module}.{name}" for module, name, _, _ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(f"macfade.{module}"), name, None))]
    assert missing == []


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_workload_pass_passes_every_check(name, tmp_path):
    workload = WORKLOADS[name]
    config, pinned = workload.make(1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    api = SimpleNamespace(boundary=boundary, cli=cli, kernel=kernel, montecarlo=montecarlo,
                          solver=solver)
    outcome = workload.run_pass(api, cli.load_config(str(path)), pinned)
    assert outcome.checks
    assert [label for label, ok in outcome.checks if not ok] == []
