"""Per-block and total edge-detection success probabilities.

Both scenarios (unknown-unknown, known-unknown) reduce to pure-state
discrimination on Gram blocks.  The square-root measurement needs no
optimization: its joint success probability on a block is the sum of squared
diagonal entries of sqrt(G), which one kernel call takes for all blocks of a
total, or of a batch of totals, at once from a positive rational rule for
x^{-1/2} applied to the tridiagonal G^{-1}.  The optimal value, the block SDP optimum, is the SRM of a
reweighted block, found by repeated kernel calls.  Totals sum the joint block
values over all outcomes of the first measurement.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .combinatorics import CapacityError, StringParams
from .gram import (SemiseparableGram, _block_orders, _gram_blocks, _rank_one, log_bidiagonal_squares,
                   log_generators)
from .linalg import SdpSolution, _check_gap_tol, _rank_one_solution, _reweighted_certificate

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
    """(label, gram) pairs for a scenario: unknown-unknown blocks are labeled by the irrep lam,
    known-unknown blocks by the excitation count n1 = N - ntilde0 for qubits and by ntilde0 for d > 2."""
    labels, arguments = _block_arguments(scenario, params)
    return list(zip(labels, _gram_blocks(scenario, params.N, params.d, arguments)))


def _block_arguments(scenario: str, params: StringParams) -> tuple[range, range]:
    """Labels of a scenario's blocks and the lam or ntilde0 each is built from, in order."""
    arguments = range(params.N // 2 + 1 if scenario == "unknown" else params.N + 1)
    return (arguments[::-1] if scenario == "known" and params.d == 2 else arguments), arguments


# Log of the float64 maximum, above b_k^2 c_k^2 and the pivot products (sigma + b_k^2) b_k^2.
_LOG_MAX = math.log(np.finfo(float).max)
# Positions of the blocks of one batch of `success_curve`, which share one kernel stream.
_BATCH_POSITIONS = 1 << 16
# Relative error the node count of the rule for x^{-1/2} aims at.
_RULE_TOL = 2e-16
# Floats of shifted pivots one chunk of `_root_diagonals` holds at once (1 MB).  The
# blocks of one chunk share one position loop, so larger chunks take fewer loop steps.
_CHUNK_FLOATS = 1 << 17
# Rules for hi < 2 lo are built for [lo, 2 lo]: descending Landen from p = 1 never ends,
# as k' = 0 maps k = 1 back to 1.
_P_MAX = 0.5
# Landen steps go on until the first-order remainder (p/4) cosh(v)^2 of sc(v | 1 - p) ~ sinh v,
# relative, falls below this at the largest argument v.
_LANDEN_TOL = 1e-17


def _inverse_sqrt_rule(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights w and shifts sigma, all positive, with x^{-1/2} ~ sum_j w_j / (x + sigma_j)
    to within 1e-13 relative for every x in [lo, hi].

    The midpoint rule in u on (0, K) for x^{-1/2} = (2/pi) int_0^inf dt / (t^2 + x),
    with t = sqrt(lo) sc(u | 1 - p) and p = lo/hi (Hale, Higham & Trefethen,
    SIAM J. Numer. Anal. 46, 2505, 2008); its error falls like
    exp(-2 pi^2 m / (ln(hi/lo) + 3)) in the node count m.  K = K(1 - p) is
    pi / (2 AGM(1, sqrt(p))).  sc(u | 1 - p) = -i sn(iu | p) (Jacobi's imaginary
    transformation) comes from descending Landen steps in the modulus k = sqrt(p)
    down to sinh, then back up by sc <- (1 + k_j) sc / (1 - k_j sc^2) (Abramowitz &
    Stegun 16.12, 16.20); then nc^2 = 1 + sc^2 and dc^2 = 1 + p sc^2.  A node past
    K/2 is the reflection K - u of a node before it, where sc(u) = 1 / (k sc(K - u)),
    so only the nodes up to K/2 are evaluated.
    """
    p = min(lo / hi, _P_MAX)
    m = math.ceil((math.log(max(hi / lo, 1.0 / _P_MAX)) + 3.0) * math.log(8.0 / _RULE_TOL)
                  / (2.0 * math.pi ** 2))
    k = k0 = math.sqrt(p)
    a, b = 1.0, k
    while a - b > 1e-9 * a:   # one more mean after this is exact to rounding
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    h = math.pi / ((a + b) * m)
    half = (m + 1) // 2   # nodes (j + 1/2) h up to K/2
    step, moduli = h, []   # node spacing in the argument of the last Landen step
    while k * k * math.cosh((half - 0.5) * step) ** 2 > 4.0 * _LANDEN_TOL:
        k = (k / (1.0 + math.sqrt((1.0 - k) * (1.0 + k)))) ** 2   # (1 - k') / (1 + k')
        moduli.append(k)
        step /= 1.0 + k
    sc = np.arange(0.5, half)
    sc *= step
    np.sinh(sc, out=sc)
    den = np.empty_like(sc)
    for k in reversed(moduli):
        np.multiply(sc, sc, out=den)
        den *= -k / (1.0 + k)
        den += 1.0 / (1.0 + k)
        sc /= den
    sc2 = np.multiply(sc, sc, out=sc)
    dc_nc = np.multiply(sc2, p, out=den)
    dc_nc += 1.0
    dc_nc *= sc2 + 1.0
    np.sqrt(dc_nc, out=dc_nc)
    scale = 2.0 * h * math.sqrt(lo) / math.pi
    weights, shifts = np.empty(m), np.empty(m)
    np.multiply(sc2, lo, out=shifts[:half])
    np.multiply(dc_nc, scale, out=weights[:half])
    mirror = slice(m // 2 - 1, None, -1)   # node m - 1 - j for j < m // 2
    np.divide(lo / p, sc2[mirror], out=shifts[half:])
    np.divide(dc_nc[mirror], sc2[mirror], out=weights[half:])
    weights[half:] *= scale / k0
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


def _root_diagonals(orders: np.ndarray, blocks: np.ndarray, trace: np.ndarray, log_eta: np.ndarray,
                    log_r: np.ndarray, log_delta: np.ndarray, describe: Callable[[int], object]) -> np.ndarray:
    """diag(G^{1/2}), one entry per position, of the full-rank blocks ``blocks`` (ascending indices,
    traces ``trace``) among blocks laid end to end (`log_generators`); the other blocks are ignored
    and read 0.  ValueError names (``describe(i)``) a block of ``blocks`` with some Delta_k = 0 or
    b_k^2, c_k^2 out of range."""
    ends = np.cumsum(orders) - 1
    starts = ends + 1 - orders
    log_b2, log_c2 = log_bidiagonal_squares(log_eta, log_r, log_delta, ends)
    if blocks.size < orders.size:   # zero couplings at the other blocks' positions
        skipped = np.ones(orders.size, bool)
        skipped[blocks] = False
        n = orders[skipped]
        at = np.repeat(starts[skipped] - np.cumsum(n) + n, n) + np.arange(n.sum())
        log_b2[at] = log_c2[at] = -np.inf
    worst = int(np.argmax(np.maximum(log_b2, log_c2)))
    log_big = max(log_b2[worst], log_c2[worst])
    fits = log_big <= 0.5 * _LOG_MAX   # b_k^2 c_k^2 stays finite; inf if some Delta_k = 0
    if fits:
        b2, c2 = np.exp(log_b2, out=log_b2), np.exp(log_c2, out=log_c2)
        # Gershgorin: b_k^2 + c_{k-1}^2 + b_k c_k + b_{k-1} c_{k-1}; the forward in-place sum
        # b_{k-1} c_{k-1} + b_k c_k reads each entry before it is overwritten, so numpy copies nothing
        bc = np.empty(b2.size + 1)
        bc[0] = 0.0
        np.sqrt(np.multiply(b2, c2, out=bc[1:]), out=bc[1:])
        row_sums = np.add(bc[:-1], bc[1:], out=bc[:-1])
        row_sums += b2
        row_sums[1:] += c2[:-1]
        weights, shifts = _inverse_sqrt_rule(1.0 / trace.max(), float(row_sums.max()))
        del bc, row_sums
        fits = log_big + math.log(shifts.max() + math.exp(log_big)) <= _LOG_MAX
    if not fits:
        problem = ("is singular (some Delta_k = 0)" if math.isinf(log_big) else
                   f"has b_k^2 or c_k^2 = exp({log_big:.1f}): the SRM products overflow float64")
        raise ValueError(f"block {describe(int(np.searchsorted(ends, worst)))} {problem}")
    by_order = blocks[np.argsort(-orders[blocks], kind="stable")]
    lengths, starts = orders[by_order], starts[by_order]
    root = b2   # b_k^2 of a block is read by its own chunk only, and is 0 outside the blocks
    first = 0
    while first < len(lengths):
        n = lengths[first]
        seg = math.isqrt(n)   # as in `_root_diagonal`
        held = len(shifts) * (-(-n // seg) + seg)   # pivots per block: segment starts, one segment
        last = min(len(lengths), first + max(1, _CHUNK_FLOATS // held))
        position = np.arange(n)[:, None]
        inside = position < lengths[first:last]
        index = np.where(inside, starts[first:last] + position, 0)
        b2_chunk, c2_chunk = b2[index], c2[index]
        b2_chunk *= inside   # zero past each block's end
        c2_chunk *= inside
        root_diag = _root_diagonal(b2_chunk, c2_chunk, weights, shifts)
        root[index[inside]] = root_diag[inside]
        first = last
    return root


def _srm_values(orders: np.ndarray, log_eta: np.ndarray, log_r: np.ndarray, log_delta: np.ndarray,
                describe: Callable[[int], object]) -> np.ndarray:
    """SRM value sum_k [G^{1/2}]_kk^2 of each block laid end to end (`log_generators`): sum eta^2 /
    sum eta if rank one, as G^{1/2} = G / sqrt(tr G), and from `_root_diagonals` otherwise."""
    starts = np.cumsum(orders) - orders
    rank_one = _rank_one(log_delta, starts, starts + orders - 1)
    eta = np.exp(log_eta)
    trace = np.add.reduceat(eta, starts)
    values = np.add.reduceat(np.square(eta, out=eta), starts) / trace
    del eta
    full = np.flatnonzero(~rank_one)
    if full.size:
        root = _root_diagonals(orders, full, trace[full], log_eta, log_r, log_delta, describe)
        values[full] = np.add.reduceat(np.square(root, out=root), starts)[full]
    return values


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
# combines the last _ANDERSON_DEPTH passes by normal equations cut at relative _PINV_RCOND.
_SPREAD_TOL, _MAX_PASSES, _ANDERSON_DEPTH, _PINV_RCOND = 1e-13, 100, 5, 1e-16


def _optimal_solutions(orders: np.ndarray, log_eta: np.ndarray, log_r: np.ndarray,
                       log_delta: np.ndarray, describe: Callable[[int], object],
                       gap_tol: float) -> list[SdpSolution]:
    """Optimal-discrimination solution of each block laid end to end (`log_generators`).

    A rank-one block, G = a a^T with a = sqrt(eta), takes `_rank_one_solution`.  For
    the others the SRM of M = W G W, W = diag(e^x), is optimal once q_k = S_kk / w_k^2
    (S = M^{1/2}) is the same for every k (Mochon, PRA 73, 032328, 2006).  M has the
    generators (log eta + 2x, log r, log Delta), so a pass is one `_root_diagonals` call
    over the positions of the blocks still moving, and x, flat over them, follows
    x + F - mean F, F = log q, from x = 0 with Anderson acceleration (Walker & Ni, SIAM
    J. Numer. Anal. 49, 1715, 2011) solved by each block's normal equations.  The O(n)
    certificate: P = sum_k S_kk q_k, and Y = c S in the measurement basis, c = max_k q_k,
    is dual feasible, so D = c sum_k S_kk >= P bounds the optimum; both carry the
    kernel's relative error, below 1e-13.  Failures raise RuntimeError naming the block."""
    ends = np.cumsum(orders) - 1
    starts = ends + 1 - orders
    rank_one = _rank_one(log_delta, starts, ends)
    solutions: list[Optional[SdpSolution]] = [None] * len(orders)
    for i in np.flatnonzero(rank_one):
        solutions[i] = _rank_one_solution(np.exp(0.5 * log_eta[starts[i]:ends[i] + 1]))
    blocks = np.flatnonzero(~rank_one)   # moving blocks
    n = orders[blocks]
    at = np.flatnonzero(np.repeat(~rank_one, orders))   # their positions in the input
    x = np.zeros(at.size)
    history: list[tuple[np.ndarray, np.ndarray]] = []   # (F - mean F, x + F - mean F), last passes
    passes, first = 0, np.cumsum(n) - n
    while blocks.size:
        if passes == _MAX_PASSES:
            raise RuntimeError(f"SDP failed on block {describe(blocks[0])}: the reweighting "
                               f"did not converge in {_MAX_PASSES} kernel passes")
        weighted = log_eta[at] + 2.0 * x
        try:
            root = _root_diagonals(n, np.arange(n.size), np.add.reduceat(np.exp(weighted), first),
                                   weighted, log_r[at], log_delta[at], lambda j: describe(blocks[j]))
        except ValueError as exc:
            raise RuntimeError(f"SDP failed: {exc}") from exc
        log_q = np.log(root) - 2.0 * x
        q = np.exp(log_q)
        done = np.maximum.reduceat(log_q, first) - np.minimum.reduceat(log_q, first) <= _SPREAD_TOL
        primal = np.add.reduceat(root * q, first).tolist()
        dual = np.add.reduceat(np.repeat(np.maximum.reduceat(q, first), n) * root,
                               first).tolist()   # termwise >= primal
        for j in np.flatnonzero(done):
            i = blocks[j]
            block = slice(starts[i], ends[i] + 1)
            solutions[i] = SdpSolution(
                partial(_reweighted_certificate, log_eta[block], log_r[block],
                        x[first[j]:first[j] + n[j]].copy(), describe(i)),
                primal[j], dual[j], passes,
                "converged" if dual[j] - primal[j] <= gap_tol else "gapExceeded")
        keep = np.repeat(~done, n)
        blocks, n, at, x, log_q = blocks[~done], n[~done], at[keep], x[keep], log_q[keep]
        history = [(r[keep], s[keep]) for r, s in history]
        first = np.cumsum(n) - n
        resid = log_q - np.repeat(np.add.reduceat(log_q, first) / n, n)
        x = step = x + resid
        if history:
            d_resid = resid - np.array([r for r, _ in history])   # (depth, positions)
            d_step = step - np.array([s for _, s in history])
            # each block's least squares min |resid - d_resid^T gamma| by its normal equations
            dots = np.stack([np.add.reduceat(d_resid * row, first, axis=1) for row in (*d_resid, resid)])
            gamma = np.linalg.pinv(dots[:-1].T, rcond=_PINV_RCOND) @ dots[-1].T[..., None]
            x = step - np.einsum("jp,pj->p", d_step, np.repeat(gamma[..., 0], n, axis=0))
        history = [*history, (resid, step)][-_ANDERSON_DEPTH:]
        passes += 1
    return solutions


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
    _check_capacity(spec)
    return _totals([spec], gap_tol)[0]


def _check_capacity(spec: ScenarioSpec) -> None:
    """Raise CapacityError if the spec's N is above its method's particle cap."""
    cap = SRM_MAX_PARTICLES if spec.method == "srm" else SDP_MAX_PARTICLES
    if spec.params.N > cap:
        raise CapacityError(f"method {spec.method!r} capped at N <= {cap}, got {spec.params.N}")


def _totals(specs: Sequence[ScenarioSpec], gap_tol: float) -> list[DiscriminationResult]:
    """`total_success` of each spec, all of one method, from one `_srm_values` or
    `_optimal_solutions` call over the generators of all their blocks laid end to end,
    each spec's written in place into one array per generator.  Raises what that call raises."""
    layouts = [_block_arguments(spec.scenario, spec.params) for spec in specs]
    orders = [_block_orders(spec.scenario, spec.params.N, arguments)
              for spec, (_, arguments) in zip(specs, layouts)]
    bounds = np.cumsum([0, *map(len, orders)]).tolist()   # each spec's first block
    orders = np.concatenate(orders)
    flat = np.empty((3, int(orders.sum())))   # log eta, log r, log Delta
    position = 0
    for spec, (_, arguments) in zip(specs, layouts):
        _, *generators = log_generators(spec.scenario, spec.params.N, spec.params.d, arguments)
        for row, generator in zip(flat, generators):
            row[position:position + generator.size] = generator
        position += generators[0].size

    def describe(i: int) -> str:
        j = bisect.bisect_right(bounds, i) - 1
        return f"{layouts[j][0][i - bounds[j]]} of {specs[j]}"

    if specs[0].method == "srm":
        values, solutions = _srm_values(orders, *flat, describe).tolist(), None
    else:
        solutions = _optimal_solutions(orders, *flat, describe, gap_tol)
        values = [sol.primal_value for sol in solutions]
    results = []
    for (labels, _), first, stop in zip(layouts, bounds, bounds[1:]):
        per_block = dict(zip(labels, values[first:stop]))
        certificates = None if solutions is None else dict(zip(labels, solutions[first:stop]))
        results.append(DiscriminationResult(per_block, float(sum(per_block.values())), certificates))
    return results


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

    Consecutive N run in batches: a batch takes the next N while its blocks hold at most
    _BATCH_POSITIONS positions (an N with more runs alone), and all its blocks share one
    kernel stream (`_totals`).  A failure stays in its row.  An N whose spec or capacity
    check fails is recorded before any batch is formed, and a batch whose kernel call
    raises runs again one N at a time, so every row, error rows included, is that N's
    `total_success` row.  A batch shares one rule over its blocks' spectra, so batched
    values may differ from per-N ones at the rule's error level.

    Unsorted n_values and a gap_tol outside (0, inf) raise ValueError before any row.
    """
    if sorted(n_values) != list(n_values):
        raise ValueError("n_values must be sorted ascending")
    _check_gap_tol(gap_tol)

    def point(n: int, outcome: object) -> CurvePoint:
        if isinstance(outcome, Exception):
            return CurvePoint(n, d, scenario, method, float("nan"), float("nan"),
                              f"error:{type(outcome).__name__}")
        sols = (outcome.certificates or {}).values()
        worst = max((sol.status for sol in sols), key=_STATUS_RANK.index, default="converged")
        return CurvePoint(n, d, scenario, method, outcome.total, max((sol.gap for sol in sols), default=0.0),
                          "ok" if worst == "converged" else worst,
                          max((sol.iterations for sol in sols), default=0))

    points: list[Optional[CurvePoint]] = [None] * len(n_values)
    batches: list[list[tuple[int, ScenarioSpec]]] = []   # (row, spec) of each batch
    held = 0   # positions in the last batch
    for row, n in enumerate(n_values):
        try:
            spec = ScenarioSpec(scenario, StringParams(n, d), method)
            _check_capacity(spec)
        except Exception as exc:
            points[row] = point(n, exc)
            continue
        size = int(_block_orders(scenario, n, _block_arguments(scenario, spec.params)[1]).sum())
        if not batches or held + size > _BATCH_POSITIONS:
            batches.append([])
            held = 0
        batches[-1].append((row, spec))
        held += size
    for batch in batches:
        rows, specs = zip(*batch)
        for row, outcome in zip(rows, _outcomes(list(specs), gap_tol)):
            points[row] = point(n_values[row], outcome)
    return points


def _outcomes(specs: list[ScenarioSpec], gap_tol: float) -> list[object]:
    """`_totals` of the specs, or, if that raises, of each spec alone: its result or its exception."""
    try:
        return _totals(specs, gap_tol)
    except Exception as exc:
        if len(specs) == 1:
            return [exc]
        return [outcome for spec in specs for outcome in _outcomes([spec], gap_tol)]
