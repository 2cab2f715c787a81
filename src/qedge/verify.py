"""Property suites behind the paper's Schur-Weyl reduction, one copy of each check.

- ``oracle``: the closed-form overlaps agree with the Clebsch-Gordan recursion
  (N <= 12, every irrep, every pair k <= k').
- ``tridiag``: the rescaled unknown blocks have the closed-form tridiagonal
  inverse (158 fixed blocks, compared with ``np.linalg.inv``).
- ``holevo``: every block SDP of the unknown d = 2 scenario, N <= 30, carries
  a valid Holevo-Yuen certificate.

Each suite takes no argument and returns a `SuiteResult`; `SUITES` maps the
names used by ``qedge verify`` to the suites.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .combinatorics import StringParams, hypothesis_range, omega_vector, overlap_closed
from .discrimination import ScenarioSpec, total_success
from .gram import build_gram_unknown, rescale_gram, tridiag_inverse_reference
from .linalg import psd_sqrt

__all__ = ["SUITES", "SuiteResult", "holevo", "oracle", "tridiag"]

_log = logging.getLogger(__name__)

_TOL = 1e-8          # tridiagonal relative deviation, SDP gap, dual slack
_OVERLAP_TOL = 1e-12

# every lam >= 1 of these (N, d), plus draws of (N, d, lam) over N in [4, 60],
# d in {2, 3, 4}, made once with np.random.default_rng(2024) and kept literal
# so that no run depends on an RNG; duplicates are checked once
_TRIDIAG_GRID = ((4, 2), (5, 3), (12, 2), (20, 4), (31, 3), (40, 4), (60, 2), (60, 3))
_TRIDIAG_DRAWS = (
    (42, 2, 2), (22, 2, 4), (49, 4, 22), (8, 4, 1), (56, 2, 11), (13, 2, 3),
    (49, 3, 15), (10, 4, 3), (43, 3, 1), (30, 2, 1), (40, 4, 16), (38, 3, 7),
    (11, 2, 2), (29, 4, 12), (45, 2, 20), (16, 4, 3), (49, 2, 20), (19, 3, 1),
    (12, 2, 1), (25, 2, 11), (20, 3, 4), (24, 4, 6), (30, 3, 8), (17, 4, 8),
    (8, 2, 2), (40, 2, 4), (55, 2, 22), (56, 3, 11), (51, 2, 3), (30, 3, 11),
    (17, 2, 1), (14, 2, 5), (23, 3, 8), (60, 3, 9), (18, 4, 6), (56, 3, 10),
    (28, 2, 9), (60, 2, 16), (37, 3, 11), (35, 3, 7), (57, 4, 16), (23, 2, 4),
    (33, 3, 3), (4, 3, 1), (17, 2, 8), (38, 2, 1), (22, 2, 2),
)


@dataclass(frozen=True)
class SuiteResult:
    """Counts of one suite's checks and a description of its first failure ("" if none)."""

    passed: int
    failed: int
    first: str


def _suite(checks):
    """Turn a generator of (ok, description) pairs into a parameterless suite."""

    @functools.wraps(checks)
    def run() -> SuiteResult:
        passed = failed = 0
        first = ""
        for ok, what in checks():
            if ok:
                passed += 1
            else:
                failed += 1
                first = first or what
        return SuiteResult(passed, failed, first)

    return run


@_suite
def oracle():
    """Closed-form overlaps against contracted Clebsch-Gordan vectors, N <= 12."""
    for n in range(2, 13):
        for lam in range(n // 2 + 1):
            ks = list(hypothesis_range(n, lam))
            vecs = {k: omega_vector(n, k, lam) for k in ks}
            for i, k in enumerate(ks):
                for k2 in ks[i:]:
                    closed = overlap_closed(n, k, k2, lam)
                    recursed = vecs[k].dot(vecs[k2])
                    yield (abs(closed - recursed) <= _OVERLAP_TOL,
                           f"N={n} lam={lam} k={k} k'={k2}: "
                           f"closed={closed!r} recursion={recursed!r}")


@_suite
def tridiag():
    """Closed-form tridiagonal inverse of rescaled unknown blocks against np.linalg.inv."""
    grid = [(n, d, lam) for n, d in _TRIDIAG_GRID for lam in range(1, n // 2 + 1)]
    for n, d, lam in dict.fromkeys([*grid, *_TRIDIAG_DRAWS]):
        dense_inv = np.linalg.inv(rescale_gram(build_gram_unknown(n, d, lam)).dense)
        diag, sup = tridiag_inverse_reference(n, d, n / 2 - lam)
        ref = np.diag(diag) + np.diag(sup, 1) + np.diag(sup, -1)
        dev = np.abs(dense_inv - ref).max() / np.abs(dense_inv).max()
        yield dev <= _TOL, f"N={n} d={d} lam={lam}: relative deviation {dev:.3e}"


@_suite
def holevo():
    """Holevo-Yuen certificates of every unknown d = 2 block SDP, N <= 30.

    A block passes when its solve converged with gap <= 1e-8, its certificate reads,
    and for every hypothesis Y - rho_k >= -1e-8 and |<Y - rho_k, E_k>| <= 1e-8.
    """
    for n in range(2, 31):
        res = total_success(ScenarioSpec("unknown", StringParams(n, 2), "sdp"))
        for lam, sol in sorted(res.certificates.items()):
            root = psd_sqrt(build_gram_unknown(n, 2, lam).dense)
            ok = sol.status == "converged" and sol.gap <= _TOL
            try:
                pairs = [(e, sol.dual - np.outer(s, s)) for e, s in zip(sol.primal, root.T)]
            except np.linalg.LinAlgError:   # no dense certificate agrees with the values
                ok, pairs = False, []
            for e, slack in pairs:
                ok = ok and np.linalg.eigvalsh(slack).min() >= -_TOL and abs(np.sum(slack * e)) <= _TOL
            yield ok, f"N={n} lam={lam}: status={sol.status} gap={sol.gap:.3e}"
        _log.info("verified N=%d", n)


SUITES = {"oracle": oracle, "tridiag": tridiag, "holevo": holevo}
