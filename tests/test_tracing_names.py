"""The benchmark's tracer wraps qedge functions by name; every name must exist.

``perfbench/tracing.py`` replaces each (module, attribute) of its SPANS and
COUNTED tables when a traced run starts, so a renamed or deleted function
breaks ``perfbench/run.py --trace 1``.  The first test loads the tracer by file
path, as the benchmark does, and looks each name up; the second runs one traced
round of the SDP grid.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_traced_sdp_grid_round(tmp_path):
    # run.py takes src/ from its working directory and writes perfbench/out/ there: a
    # directory holding only a link to src keeps the traced spans out of the checkout
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "sdp_grid",
                           "--seed", "1", "--seconds", "0", "--trace", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True and report["failed"] == 0
    # no total reaches the dense solver: rank-one blocks take the closed form from log eta
    assert report["metrics"]["linalg.sdp_calls"]["value"] == 0
