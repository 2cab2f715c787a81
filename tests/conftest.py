import os
from pathlib import Path

# One BLAS thread: the small dense blocks are several times slower with more.
# Set before any test module imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# The CLI tests run the package from this checkout in child processes too;
# pyproject's `pythonpath` covers only the test process.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))

import pytest

_CRITERIA: dict[int, tuple[bool, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, desc): acceptance criterion this test belongs to"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, desc = marker.args
    passed_so_far, _ = _CRITERIA.get(num, (True, desc))
    _CRITERIA[num] = (passed_so_far and rep.passed, desc)


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        ok, desc = _CRITERIA[num]
        terminalreporter.write_line(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {desc}")
