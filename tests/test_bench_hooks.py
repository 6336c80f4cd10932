"""The benchmark's tracer hooks named functions of macfade's modules.

A layer renamed or folded away makes the tracer drop that layer's metrics
instead of failing, so this test names every hooked symbol that no longer
resolves.  ``perfbench/tracing.py`` is loaded by file path; it is not a
package on the import path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_symbol_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.HOOKS
    missing = [f"macfade.{module}.{name}" for module, name, _, _ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(f"macfade.{module}"), name, None))]
    assert missing == []
