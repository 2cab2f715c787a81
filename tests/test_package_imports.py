"""`import qedge` loads numpy and scipy.special, not scipy's heavier subpackages.

scipy.integrate alone pulls in scipy.optimize, scipy.sparse, scipy.fft and
scipy.spatial, about 0.3 s of start-up on every CLI call; the Gauss rules of
`qedge.asymptotics` and numpy.linalg do the package's work without them.
"""

import json
import subprocess
import sys
from pathlib import Path

import qedge

_HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.linalg")


def test_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(qedge.__file__).resolve().parents[1])
    code = (f"import json, sys; sys.path.insert(0, {src!r}); import qedge; "
            f"print(json.dumps([m for m in {list(_HEAVY)!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert json.loads(proc.stdout) == []
