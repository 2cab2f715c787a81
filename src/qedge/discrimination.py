"""Per-block and total edge-detection success probabilities.

Both scenarios (unknown-unknown, known-unknown) reduce to pure-state
discrimination on Gram blocks.  The square-root measurement needs no
optimization: its joint success probability on a block is the sum of squared
diagonal entries of sqrt(G), which one kernel call takes for all blocks of a
total at once from a positive rational rule for x^{-1/2} applied to the
tridiagonal G^{-1}.  The optimal value, the block SDP optimum, is the SRM of a
reweighted block, found by repeated kernel calls.  Totals sum the joint block
values over all outcomes of the first measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ellipj, ellipkm1

from .combinatorics import CapacityError, StringParams
from .gram import (SemiseparableGram, build_gram_known, build_gram_unknown, dense_gram,
                   log_bidiagonal_squares, log_generators)
from .linalg import SdpSolution, _check_gap_tol, _reweighted_srm, solve_discrimination_sdp

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
    build = build_gram_unknown if scenario == "unknown" else build_gram_known
    labels, arguments = _block_arguments(scenario, params)
    return [(label, build(params.N, params.d, a)) for label, a in zip(labels, arguments)]


def _block_arguments(scenario: str, params: StringParams) -> tuple[range, range]:
    """Labels of a scenario's blocks and the lam or ntilde0 each is built from, in order."""
    arguments = range(params.N // 2 + 1 if scenario == "unknown" else params.N + 1)
    return (arguments[::-1] if scenario == "known" and params.d == 2 else arguments), arguments


# Log of the float64 maximum, above b_k^2 c_k^2 and the pivot products (sigma + b_k^2) b_k^2.
_LOG_MAX = math.log(np.finfo(float).max)
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


def _root_diagonal(b2: np.ndarray, c2: np.ndarray, weights: np.ndarray,
                   shifts: np.ndarray) -> np.ndarray:
    """diag(T^{-1/2}) = sum_j w_j [(T + sigma_j)^{-1}]_kk for every position k and block
    column, shape (positions, blocks); b2 and c2 are (positions, blocks), zero past each
    block's end.

    With f_k = c_{k-1}^2 t_{k-1} / (b_{k-1}^2 + t_{k-1}) (f_1 = 0), the top-down pivots of
    T + s are t_k = s + f_k and the bottom-up ones r_k = s + b_k^2 r_{k+1} / (r_{k+1} + c_k^2)
    (r_n = s + b_n^2, since c_n = 0), and [(T + s)^{-1}]_kk = 1 / (r_k + f_k).  Every term
    is positive.  The top-down pass keeps f only where a segment of sqrt(n) positions starts
    (fewest rows held), and the bottom-up pass recomputes each segment's f from there.
    """
    n, blocks = b2.shape
    seg = math.isqrt(n)
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


def _root_diagonals(orders: np.ndarray, log_eta: np.ndarray, log_r: np.ndarray,
                    log_delta: np.ndarray, describe: Callable[[int], object]) -> np.ndarray:
    """diag(G^{1/2}) of blocks laid end to end in flat arrays with the given orders
    (`log_generators`), one entry per position; ``describe(i)`` names block i in errors.
    A rank-one block has G^{1/2} = G / sqrt(tr G)."""
    ends = np.cumsum(orders) - 1
    starts = ends + 1 - orders
    rank_one = _rank_one(log_delta, starts, ends)
    eta = np.exp(log_eta)
    traces = np.add.reduceat(eta, starts)
    root = eta / np.sqrt(np.repeat(traces, orders))
    full = np.flatnonzero(~rank_one)
    if full.size == 0:
        return root
    log_b2, log_c2 = log_bidiagonal_squares(log_eta, log_r, log_delta, ends)
    outside = np.repeat(rank_one, orders)
    log_b2[outside] = log_c2[outside] = -np.inf   # b = c = 0: rank-one blocks stay out
    worst = int(np.argmax(np.maximum(log_b2, log_c2)))
    log_big = max(log_b2[worst], log_c2[worst])
    fits = log_big <= 0.5 * _LOG_MAX   # b_k^2 c_k^2 stays finite; inf if some Delta_k = 0
    if fits:
        b2, c2 = np.exp(log_b2, out=log_b2), np.exp(log_c2, out=log_c2)
        row_sums = np.sqrt(b2 * c2)   # Gershgorin: b_k^2 + c_{k-1}^2 + b_k c_k + b_{k-1} c_{k-1}
        row_sums[1:] += row_sums[:-1].copy()
        row_sums += b2
        row_sums[1:] += c2[:-1]
        weights, shifts = _inverse_sqrt_rule(1.0 / traces[full].max(), float(row_sums.max()))
        fits = log_big + math.log(shifts.max() + math.exp(log_big)) <= _LOG_MAX
    if not fits:
        problem = ("is singular (some Delta_k = 0)" if math.isinf(log_big) else
                   f"has b_k^2 or c_k^2 = exp({log_big:.1f}): the SRM products overflow float64")
        raise ValueError(f"block {describe(int(np.searchsorted(ends, worst)))} {problem}")
    full = full[np.argsort(-orders[full], kind="stable")]
    lengths, starts = orders[full], starts[full]
    first = 0
    while first < len(full):
        n = lengths[first]
        seg = math.isqrt(n)   # as in `_root_diagonal`
        held = len(shifts) * (-(-n // seg) + seg)   # pivots per block: segment starts, one segment
        last = min(len(full), first + max(1, _CHUNK_FLOATS // held))
        position = np.arange(n)[:, None]
        inside = position < lengths[first:last]
        index = np.where(inside, starts[first:last] + position, 0)
        root_diag = _root_diagonal(np.where(inside, b2[index], 0.0), np.where(inside, c2[index], 0.0),
                                   weights, shifts)
        root[index[inside]] = root_diag[inside]
        first = last
    return root


def _rank_one(log_delta: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Which blocks laid end to end are rank one: every Delta but the last vanishes."""
    vanishing = np.isneginf(log_delta)
    vanishing[ends] = True
    return np.logical_and.reduceat(vanishing, starts)


def _srm_values(orders: np.ndarray, log_eta: np.ndarray, log_r: np.ndarray, log_delta: np.ndarray,
                describe: Callable[[int], object]) -> np.ndarray:
    """SRM value sum_k [G^{1/2}]_kk^2 of each block laid end to end (`_root_diagonals`)."""
    root = _root_diagonals(orders, log_eta, log_r, log_delta, describe)
    return np.add.reduceat(np.square(root), np.cumsum(orders) - orders)


def srm_blocks(grams: Sequence[SemiseparableGram]) -> list[float]:
    """Square-root-measurement joint success of each block: sum of squared diagonal entries of sqrt(G).

    A rank-one block has sqrt(G) = G / sqrt(tr G).  For every other block
    diag(sqrt(G)) = diag(T^{-1/2}), T = G^{-1}, is sum_j w_j diag((T + sigma_j)^{-1}) by
    one positive rule for x^{-1/2} (`_inverse_sqrt_rule`), each term from the
    subtraction-free pivots of `_root_diagonal`; no dense matrix is built.  A singular
    block that is not rank one raises ValueError, and so does one whose b_k^2 or c_k^2
    would overflow b_k^2 c_k^2 or the pivot products.
    """
    if not grams:
        return []
    orders = np.array([g.order for g in grams])
    flat = map(np.concatenate, zip(*[(g.log_eta, g.log_r, g.log_delta) for g in grams]))
    return _srm_values(orders, *flat, lambda i: grams[i].block).tolist()


def srm_block(g: SemiseparableGram) -> float:
    """Square-root-measurement joint success of one block: `srm_blocks` of that block alone."""
    return srm_blocks([g])[0]


# Reweighting stops once a block's log(S_kk / w_k^2) spread by at most _SPREAD_TOL.  About
# 25 kernel passes suffice up to the SDP cap; _MAX_PASSES is a guard.  An Anderson step
# combines the last _ANDERSON_DEPTH passes, dropping singular values below _PINV_RCOND.
_SPREAD_TOL, _MAX_PASSES, _ANDERSON_DEPTH, _PINV_RCOND = 1e-13, 100, 5, 1e-10


def _optimal_solutions(orders: np.ndarray, log_eta: np.ndarray, log_r: np.ndarray,
                       log_delta: np.ndarray, describe: Callable[[int], object],
                       gap_tol: float) -> list[SdpSolution]:
    """Optimal-discrimination solution of each block laid end to end (`log_generators`).

    Rank-one blocks take `solve_discrimination_sdp`'s closed form.  For the others
    the SRM of M = W G W, W = diag(e^x), is optimal once q_k = S_kk / w_k^2
    (S = M^{1/2}) is the same for every k (Mochon, PRA 73, 032328, 2006).  M has the
    generators (log eta + 2x, log r, log Delta), so a pass is one `_root_diagonals`
    call over every block still moving, and x follows x + F - mean F, F = log q, from
    x = 0 with Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 49, 1715,
    2011).  The O(n) certificate: P = sum_k S_kk q_k, and Y = c S in the measurement
    basis, c = max_k q_k, is dual feasible, so D = c sum_k S_kk >= P bounds the
    optimum; both carry the kernel's relative error, below 1e-13.  Failures raise
    RuntimeError naming the block."""
    ends = np.cumsum(orders) - 1
    starts = ends + 1 - orders
    rank_one = _rank_one(log_delta, starts, ends)
    solutions: list[Optional[SdpSolution]] = [None] * len(orders)
    for i in np.flatnonzero(rank_one):
        try:
            solutions[i] = solve_discrimination_sdp(dense_gram(
                log_eta[starts[i]:ends[i] + 1], log_r[starts[i]:ends[i] + 1], describe(i)), gap_tol)
        except (ValueError, np.linalg.LinAlgError) as exc:  # attach the block label
            raise RuntimeError(f"SDP failed on block {describe(i)}: {exc}") from exc
    full = np.flatnonzero(~rank_one)
    n = orders[full]
    inside = np.arange(n.max(initial=0)) < n[:, None]   # one row per block, padded
    flat = np.where(inside, starts[full][:, None] + np.arange(inside.shape[1]), 0)
    x = np.zeros(inside.shape)
    active = np.arange(len(full))   # rows still moving
    history: list[tuple[np.ndarray, np.ndarray]] = []   # (F - mean F, x + F - mean F) per pass
    passes = 0
    while active.size:
        if passes == _MAX_PASSES:
            raise RuntimeError(f"SDP failed on block {describe(full[active[0]])}: the reweighting "
                               f"did not converge in {_MAX_PASSES} kernel passes")
        mask, xa = inside[active], x[active]
        at = flat[active][mask]
        root = np.ones(mask.shape)
        try:
            root[mask] = _root_diagonals(n[active], log_eta[at] + 2.0 * xa[mask], log_r[at],
                                         log_delta[at], lambda j: describe(full[active[j]]))
        except ValueError as exc:
            raise RuntimeError(f"SDP failed: {exc}") from exc
        log_q = np.log(root) - 2.0 * xa   # 0 past each block's end
        q = np.where(mask, np.exp(log_q), 0.0)
        spread = np.where(mask, log_q, -np.inf).max(axis=1) - np.where(mask, log_q, np.inf).min(axis=1)
        done = spread <= _SPREAD_TOL
        primal = np.sum(root * q, axis=1).tolist()
        dual = np.sum(q.max(axis=1, keepdims=True) * root * mask, axis=1).tolist()   # termwise >= primal
        for row in np.flatnonzero(done):
            i = full[active[row]]
            block = slice(starts[i], ends[i] + 1)
            solutions[i] = SdpSolution(
                partial(_dense_view, log_eta[block], log_r[block], xa[row, :orders[i]].copy(), describe(i)),
                primal[row], dual[row], passes,
                "converged" if dual[row] - primal[row] <= gap_tol else "gapExceeded")
        active, mask, xa, log_q = active[~done], mask[~done], xa[~done], log_q[~done]
        history = [(r[~done], s[~done]) for r, s in history[-_ANDERSON_DEPTH:]]
        resid = np.where(mask, log_q - log_q.sum(axis=1, keepdims=True) / n[active, None], 0.0)
        step = xa + resid
        x[active] = step
        if history:
            d_resid = np.stack([resid - r for r, _ in history], axis=-1)
            d_step = np.stack([step - s for _, s in history], axis=-1)
            x[active] -= (d_step @ (np.linalg.pinv(d_resid, rcond=_PINV_RCOND) @ resid[..., None]))[..., 0]
        history.append((resid, step))
        passes += 1
    return solutions


def _dense_view(log_eta: np.ndarray, log_r: np.ndarray, x: np.ndarray, block: object):
    """Dense POVM and dual of a full-rank block at log-weights x (`_reweighted_srm`)."""
    return _reweighted_srm(dense_gram(log_eta, log_r, block), x)


def optimal_block(g: SemiseparableGram, gap_tol: float = 1e-8) -> tuple[float, SdpSolution]:
    """Optimal joint success of one block and its certificate: `_optimal_solutions` of
    that block alone.  A solve that fails raises RuntimeError naming the block."""
    _check_gap_tol(gap_tol)
    (sol,) = _optimal_solutions(np.array([g.order]), g.log_eta, g.log_r, g.log_delta,
                                lambda i: g.block, gap_tol)
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
    labels, arguments = _block_arguments(spec.scenario, spec.params)
    generators = log_generators(spec.scenario, N, spec.params.d, arguments)

    def describe(i: int) -> str:
        return f"{labels[i]} of {spec}"

    certificates: Optional[dict[int, SdpSolution]] = None
    if spec.method == "srm":
        per_block = dict(zip(labels, _srm_values(*generators, describe).tolist()))
    else:
        certificates = dict(zip(labels, _optimal_solutions(*generators, describe, gap_tol)))
        per_block = {label: sol.primal_value for label, sol in certificates.items()}
    total = float(sum(per_block.values()))
    return DiscriminationResult(per_block=per_block, total=total, certificates=certificates)


@dataclass(frozen=True)
class CurvePoint:
    """One row of a success-probability sweep.

    ``gap`` is the worst per-block duality gap and ``iterations`` the largest
    per-block `SdpSolution.iterations` (both 0 for SRM rows).  ``status`` is "ok"
    only when every block's certificate converged, that is closed its gap within
    ``gap_tol``; otherwise it is the worst block status ("gapExceeded" or
    "maxIterations"), or "error:<exception>" when a block solve raised.
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
        sols = (res.certificates or {}).values()
        worst = max((sol.status for sol in sols), key=_STATUS_RANK.index, default="converged")
        return CurvePoint(n, d, scenario, method, res.total, max((sol.gap for sol in sols), default=0.0),
                          "ok" if worst == "converged" else worst,
                          max((sol.iterations for sol in sols), default=0))

    return [one(n) for n in n_values]
