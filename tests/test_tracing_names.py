"""The benchmark's tracer wraps qedge functions by name; every name must exist.

``perfbench/tracing.py`` replaces each (module, attribute) of its SPANS and
COUNTED tables when a traced run starts, so a renamed or deleted function
breaks ``perfbench/run.py --trace 1``.  This test loads the tracer by file
path, as the benchmark does, and looks each name up.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {**tracing.SPANS, **tracing.COUNTED}
    assert targets
    missing = [f"{name}: {module}.{attr}" for name, (module, attr) in sorted(targets.items())
               if not module.startswith("qedge")
               or not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
