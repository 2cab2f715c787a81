"""Per-block and total edge-detection success probabilities.

Both scenarios (unknown-unknown, known-unknown) reduce to pure-state
discrimination on Gram blocks.  The square-root measurement needs no
optimization: its joint success probability on a block is the sum of squared
diagonal entries of sqrt(G), which `srm_blocks` takes for all blocks of a
total at once from a positive rational rule for x^{-1/2} applied to the
tridiagonal G^{-1}.  The optimal value is the block SDP optimum.  Totals sum
the joint block values over all outcomes of the first measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.special import ellipj, ellipkm1

from .combinatorics import CapacityError, StringParams
from .gram import SemiseparableGram, build_gram_known, build_gram_unknown
from .linalg import SdpSolution, _check_gap_tol, solve_discrimination_sdp

__all__ = [
    "CurvePoint",
    "DiscriminationResult",
    "SDP_MAX_PARTICLES",
    "SRM_MAX_PARTICLES",
    "ScenarioSpec",
    "optimal_block",
    "scenario_blocks",
    "srm_block",
    "srm_blocks",
    "success_curve",
    "total_success",
]

SDP_MAX_PARTICLES = 64
SRM_MAX_PARTICLES = 1000

_SCENARIOS = ("unknown", "known")
_METHODS = ("srm", "sdp")
_STATUS_RANK = ("converged", "gapExceeded", "maxIterations")   # best to worst


@dataclass(frozen=True)
class ScenarioSpec:
    """One curve point request: scenario, string parameters, and method."""

    scenario: str
    params: StringParams
    method: str

    def __post_init__(self) -> None:
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"scenario must be one of {_SCENARIOS}, got {self.scenario!r}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")


@dataclass
class DiscriminationResult:
    """Joint per-block success probabilities and their total."""

    per_block: dict[int, float]
    total: float
    certificates: Optional[dict[int, SdpSolution]] = field(default=None, repr=False)


def scenario_blocks(scenario: str, params: StringParams) -> list[tuple[int, SemiseparableGram]]:
    """(label, gram) pairs for a scenario.

    Unknown-unknown blocks are labeled by the irrep lam; known-unknown blocks
    by the excitation count n1 = N - ntilde0 for qubits and by ntilde0 for
    d > 2.
    """
    N, d = params.N, params.d
    if scenario == "unknown":
        return [(lam, build_gram_unknown(N, d, lam)) for lam in range(N // 2 + 1)]
    pairs = []
    for ntilde0 in range(N + 1):
        g = build_gram_known(N, d, ntilde0)
        label = g.block.n1 if d == 2 else ntilde0
        pairs.append((label, g))
    return pairs


# Relative error the node count of the rule for x^{-1/2} aims at.
_RULE_TOL = 2e-16
# Floats of shifted pivots `srm_blocks` holds at once (256 KB).  The blocks of
# one chunk share one position loop, so larger chunks take fewer loop steps.
_CHUNK_FLOATS = 1 << 15
# ellipj sees only m = 1 - p: its AGM loses relative accuracy in cn as p
# falls, and its first-order expansion in p (from p < 1e-10) loses p once
# 1 - p rounds to 1.  Below this p that expansion is taken here in p itself;
# its O(p^2) remainder keeps the rule within 1e-14 there.
_SMALL_P = 1e-9


def _inverse_sqrt_rule(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and shifts sigma, all positive, with x^{-1/2} ~ sum_j w_j / (x + sigma_j)
    to within 1e-13 relative for every x in [lo, hi].

    The midpoint rule in u on (0, K) for x^{-1/2} = (2/pi) int_0^inf dt / (t^2 + x),
    with t = sqrt(lo) sc(u | 1 - p) and p = lo/hi (Hale, Higham & Trefethen,
    SIAM J. Numer. Anal. 46, 2505, 2008); its error falls like
    exp(-2 pi^2 m / (ln(hi/lo) + 3)) in the node count m.  A node past K/2 is
    evaluated at its reflection v = K - u, where sn(u) = cd(v),
    cn(u) = k' sd(v) and dn(u) = k' nd(v) (k'^2 = p), so no cn near 0 comes
    from the cosine of an angle near pi/2.
    """
    p = lo / hi
    if p > _SMALL_P:
        p = 1.0 - (1.0 - p)   # the p that ellipj sees, so that K, k' and the nodes agree
    m = math.ceil((math.log(hi / lo) + 3.0) * math.log(8.0 / _RULE_TOL) / (2.0 * math.pi ** 2))
    big_k = float(ellipkm1(p))
    h = big_k / m
    u = (np.arange(m) + 0.5) * h
    near = u <= 0.5 * big_k
    v = np.where(near, u, big_k - u)
    if p > _SMALL_P:
        sn, cn, dn, _ = ellipj(v, 1.0 - p)
    else:
        quarter_p, cosh, tanh = 0.25 * p, np.cosh(v), np.tanh(v)
        twice = cosh * np.sinh(v)
        sn = tanh + quarter_p * (twice - v) / cosh ** 2
        cn = (1.0 - quarter_p * (twice - v) * tanh) / cosh
        dn = (1.0 + quarter_p * (twice + v) * tanh) / cosh
    scale = 2.0 * h * math.sqrt(lo) / math.pi
    shifts = np.where(near, lo * (sn / cn) ** 2, lo / p * (cn / sn) ** 2)
    weights = np.where(near, scale * dn / cn ** 2, scale * dn / (math.sqrt(p) * sn ** 2))
    return weights, shifts


def _segment(n: int) -> int:
    """Positions per segment of `_root_diagonal` for order n: sqrt(n) minimises the
    n/segment + segment rows of pivots it holds per shift and block."""
    return math.isqrt(n)


def _root_diagonal(b2: np.ndarray, c2: np.ndarray, weights: np.ndarray,
                   shifts: np.ndarray) -> np.ndarray:
    """diag(T^{-1/2}) = sum_j w_j [(T + sigma_j)^{-1}]_kk for every position k and block
    column, shape (positions, blocks); b2 and c2 are (positions, blocks), zero past each
    block's end.

    With f_k = c_{k-1}^2 t_{k-1} / (b_{k-1}^2 + t_{k-1}) (f_1 = 0), the top-down pivots of
    T + s are t_k = s + f_k and the bottom-up ones r_k = s + b_k^2 r_{k+1} / (r_{k+1} + c_k^2)
    (r_n = s + b_n^2, since c_n = 0), and [(T + s)^{-1}]_kk = 1 / (r_k + f_k).  Every term
    is positive.  The top-down pass keeps f only where a segment of `_segment(n)`
    positions starts; the bottom-up pass recomputes each segment's f from there.
    """
    n, blocks = b2.shape
    seg = _segment(n)
    s = shifts[:, None]
    pivot = np.repeat(s, blocks, axis=1)
    den = np.empty_like(pivot)

    def top_down(k: int, f: np.ndarray) -> None:   # f = f_{k+1}; pivot goes from t_k to t_{k+1}
        np.add(pivot, b2[k], out=den)
        np.multiply(pivot, c2[k], out=f)
        f /= den
        np.add(f, s, out=pivot)

    seg_f = np.zeros((-(-n // seg), len(shifts), blocks))   # f at each segment's start
    f = np.empty_like(pivot)
    for k in range(n - 1):
        top_down(k, f)
        if (k + 1) % seg == 0:
            seg_f[(k + 1) // seg] = f
    root = np.empty((n, blocks))
    sums = np.empty((seg, len(shifts), blocks))
    r = np.repeat(s, blocks, axis=1)   # any positive start, as c2 = 0 at each block's end
    for first in range(seg * ((n - 1) // seg), -1, -seg):
        stop = min(first + seg, n)
        sums[0] = seg_f[first // seg]
        np.add(sums[0], s, out=pivot)
        for k in range(first, stop - 1):
            top_down(k, sums[k + 1 - first])
        for k in range(stop - 1, first - 1, -1):
            np.add(r, c2[k], out=den)
            r *= b2[k]
            r /= den
            r += s
            sums[k - first] += r
        held = sums[:stop - first]
        root[first:stop] = weights @ np.reciprocal(held, out=held)
    return root


def _gershgorin_bound(b2: np.ndarray, c2: np.ndarray) -> float:
    """Largest Gershgorin row sum b_k^2 + c_{k-1}^2 + b_k c_k + b_{k-1} c_{k-1} of T = B^T B."""
    row_sums = np.sqrt(b2 * c2)
    row_sums[1:] += row_sums[:-1].copy()
    row_sums += b2
    row_sums[1:] += c2[:-1]
    return float(row_sums.max())


def srm_blocks(grams: Sequence[SemiseparableGram]) -> list[float]:
    """Square-root-measurement joint success of each block: sum of squared diagonal entries of sqrt(G).

    A rank-one block has sqrt(G) = G / tr G, so its value is sum eta^2 / sum eta.
    For every other block diag(sqrt(G)) = diag(T^{-1/2}), T = G^{-1} = B^T B with
    B upper bidiagonal (`SemiseparableGram.bidiagonal_factor`).  One rule
    x^{-1/2} ~ sum_j w_j / (x + sigma_j) with positive w_j and sigma_j
    (`_inverse_sqrt_rule`) covers the spectra of all blocks of the call: T's
    eigenvalues lie in [1 / tr G, largest Gershgorin row sum].  So
    diag(T^{-1/2}) = sum_j w_j diag((T + sigma_j)^{-1}), each term from the
    subtraction-free pivots of `_root_diagonal`, and every diagonal entry
    of sqrt(G) carries the rule's relative error.  The blocks are sorted by
    order and run, in chunks of similar order padded with zero coupling past
    each block's end, through one position loop vectorised over shifts and
    blocks; a chunk holds about `_CHUNK_FLOATS` pivots.  No dense matrix is
    built.  A singular block that is not rank one raises ValueError.
    """
    values = [0.0] * len(grams)
    full = []
    for i, g in enumerate(grams):
        if g.rank_one:
            eta = g.priors
            values[i] = float(eta @ eta / eta.sum())
        else:
            full.append(i)
    if not full:
        return values
    full.sort(key=lambda i: grams[i].order, reverse=True)
    orders = np.array([grams[i].order for i in full])
    starts = np.cumsum(orders) - orders
    b2 = np.empty(orders.sum())     # all blocks end to end, no coupling from one to the next
    c2 = np.zeros_like(b2)
    for i, start, n in zip(full, starts, orders):
        b2[start:start + n], c2[start:start + n - 1] = grams[i].bidiagonal_factor()
    lo = 1.0 / max(grams[i].trace for i in full)
    weights, shifts = _inverse_sqrt_rule(lo, _gershgorin_bound(b2, c2))
    squares = np.empty(len(full))
    first = 0
    while first < len(full):
        n = orders[first]
        seg = _segment(n)
        held = len(shifts) * (-(-n // seg) + seg)   # pivots per block: segment starts, one segment
        last = min(len(full), first + max(1, _CHUNK_FLOATS // held))
        position = np.arange(n)[:, None]
        inside = position < orders[first:last]
        index = np.where(inside, starts[first:last] + position, 0)
        root_diag = _root_diagonal(np.where(inside, b2[index], 0.0), np.where(inside, c2[index], 0.0),
                                   weights, shifts)
        root_diag *= inside
        squares[first:last] = np.sum(root_diag ** 2, axis=0)
        first = last
    for col, i in enumerate(full):
        values[i] = float(squares[col])
    return values


def srm_block(g: SemiseparableGram) -> float:
    """Square-root-measurement joint success of one block: `srm_blocks` of that block alone."""
    return srm_blocks([g])[0]


def optimal_block(g: SemiseparableGram, gap_tol: float = 1e-8) -> tuple[float, SdpSolution]:
    """Optimal joint success of one block together with its SDP certificate.

    Rank-one blocks (identical states) get the SDP solver's exact solution:
    the largest prior, with gap 0 and no Newton step.  The other blocks hold
    linearly independent states, solved by Newton on a reweighted SRM that
    starts at the SRM itself.  A solve that fails raises RuntimeError naming
    the block.
    """
    try:
        sol = solve_discrimination_sdp(g.dense, gap_tol=gap_tol)
    except Exception as exc:  # attach the block label
        raise RuntimeError(f"SDP failed on block {g.block}: {exc}") from exc
    return sol.primal_value, sol


def total_success(spec: ScenarioSpec, gap_tol: float = 1e-8) -> DiscriminationResult:
    """Total average success probability of the scenario at its spec's method.

    Particle counts are capped at SRM_MAX_PARTICLES (SRM) and
    SDP_MAX_PARTICLES (SDP).  Raises ValueError unless 0 < gap_tol < inf.
    """
    _check_gap_tol(gap_tol)
    N = spec.params.N
    cap = SRM_MAX_PARTICLES if spec.method == "srm" else SDP_MAX_PARTICLES
    if N > cap:
        raise CapacityError(f"method {spec.method!r} capped at N <= {cap}, got {N}")
    blocks = scenario_blocks(spec.scenario, spec.params)
    certificates: Optional[dict[int, SdpSolution]] = None
    if spec.method == "srm":
        per_block = dict(zip((label for label, _ in blocks), srm_blocks([g for _, g in blocks])))
    else:
        per_block, certificates = {}, {}
        for label, g in blocks:
            per_block[label], certificates[label] = optimal_block(g, gap_tol=gap_tol)
    total = float(sum(per_block.values()))
    return DiscriminationResult(per_block=per_block, total=total, certificates=certificates)


@dataclass(frozen=True)
class CurvePoint:
    """One row of a success-probability sweep.

    ``gap`` is the worst per-block duality gap (0 for SRM rows) and
    ``iterations`` the largest per-block count of Newton steps (reweighting
    steps for linearly independent states, barrier steps otherwise), for
    diagnostics.
    ``status`` is "ok" only when every block's certificate converged, that is
    closed its gap within ``gap_tol``; otherwise it is the worst block status
    ("gapExceeded" or "maxIterations"), or "error:<exception>" when a block
    solve raised.
    """

    N: int
    d: int
    scenario: str
    method: str
    p_success: float
    gap: float
    status: str
    iterations: int = 0


def success_curve(
    scenario: str,
    d: int,
    n_values: list[int],
    method: str,
    gap_tol: float = 1e-8,
) -> list[CurvePoint]:
    """Success probability for each N in ascending n_values; failures are recorded per row.

    Unsorted n_values and a gap_tol outside (0, inf) raise ValueError before any row.
    """
    if sorted(n_values) != list(n_values):
        raise ValueError("n_values must be sorted ascending")
    _check_gap_tol(gap_tol)

    def one(n: int) -> CurvePoint:
        try:
            res = total_success(ScenarioSpec(scenario, StringParams(n, d), method), gap_tol)
        except Exception as exc:
            return CurvePoint(n, d, scenario, method, float("nan"), float("nan"),
                              f"error:{type(exc).__name__}")
        gap = 0.0
        iterations = 0
        status = "ok"
        if res.certificates:
            sols = res.certificates.values()
            gap = max(sol.gap for sol in sols)
            iterations = max(sol.iterations for sol in sols)
            worst = max((sol.status for sol in sols), key=_STATUS_RANK.index)
            if worst != "converged":
                status = worst
        return CurvePoint(n, d, scenario, method, res.total, gap, status, iterations)

    return [one(n) for n in n_values]
