"""`import qedge` loads numpy and no scipy module, and the CLI runs without scipy.

scipy.special alone takes about 0.2 s of start-up on every CLI call, and
scipy.integrate pulls in scipy.optimize, scipy.sparse, scipy.fft and
scipy.spatial on top; the package's own AGM, Landen and Dawson forms, its Gauss
rules and numpy.linalg do its work without them.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qedge

_HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg")


def test_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(qedge.__file__).resolve().parents[1])
    code = (f"import json, sys; sys.path.insert(0, {src!r}); import qedge; "
            f"print(json.dumps([m for m in {list(_HEAVY)!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert json.loads(proc.stdout) == []


def test_import_loads_no_scipy_module():
    src = str(Path(qedge.__file__).resolve().parents[1])
    code = (f"import json, sys; sys.path.insert(0, {src!r}); import qedge; "
            "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("argv", [["curve", "--n", "2:20:2"],
                                  ["curve", "--method", "sdp", "--n", "12"],
                                  ["asymptote", "--d", "2"]],
                         ids=["curve-srm", "curve-sdp", "asymptote"])
def test_cli_runs_without_scipy(argv):
    # sys.modules["scipy"] = None makes every import of scipy or a submodule raise ImportError
    src = str(Path(qedge.__file__).resolve().parents[1])
    code = (f"import sys; sys.modules['scipy'] = None; sys.path.insert(0, {src!r}); "
            f"from qedge.cli import main; sys.exit(main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
