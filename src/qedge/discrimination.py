"""Per-block and total edge-detection success probabilities.

Both scenarios (unknown-unknown, known-unknown) reduce to pure-state
discrimination on Gram blocks.  The square-root measurement needs no
optimization: its joint success probability on a block is the sum of squared
diagonal entries of sqrt(G).  The optimal value is the block SDP optimum.
Totals sum the joint block values over all outcomes of the first measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from scipy.linalg import eigh_tridiagonal

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


def srm_block(g: SemiseparableGram) -> float:
    """Square-root-measurement joint success: sum of squared diagonal entries of sqrt(G).

    The tridiagonal inverse T = G^{-1} (`SemiseparableGram.inverse_tridiagonal`)
    is diagonalised by the MRRR solver as T = V diag(mu) V^T, giving
    [sqrt(G)]_kk = sum_j V_kj^2 mu_j^{-1/2}; no dense matrix is built.
    A rank-one block has sqrt(G) = G / tr G, so its value is sum eta^2 / sum eta.
    """
    if g.rank_one:
        eta = g.priors
        return float(eta @ eta / eta.sum())
    mu, vec = eigh_tridiagonal(*g.inverse_tridiagonal())
    root_diag = vec ** 2 @ mu ** -0.5
    return float(root_diag @ root_diag)


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
    per_block: dict[int, float] = {}
    certificates: dict[int, SdpSolution] = {}
    for label, g in scenario_blocks(spec.scenario, spec.params):
        if spec.method == "srm":
            per_block[label] = srm_block(g)
        else:
            val, sol = optimal_block(g, gap_tol=gap_tol)
            per_block[label] = val
            certificates[label] = sol
    total = float(sum(per_block.values()))
    return DiscriminationResult(
        per_block=per_block,
        total=total,
        certificates=certificates if spec.method == "sdp" else None,
    )


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
