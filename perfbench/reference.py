"""Reference computation and checker for the qedge benchmark.

Nothing here calls into qedge.  The Gram blocks are rebuilt from their closed
forms in float64 log-gamma, and every check compares the library's outputs
with these blocks or with a property the method must have.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

# Exact anchors at N = 2, d = 2, unknown scenario (the paper's two-qubit case).
SRM_N2 = 4 / 7
SDP_N2 = 5 / 8
# Published limiting success probability p0(2); the finite-N SRM curve stays below it.
P0_D2 = 0.64991

# Agreement of an SRM value (a block's or a total's) with the reference.  Both
# sides take sqrt(G) from a symmetric eigendecomposition of the same matrix
# rounded differently; the worst block difference seen on the benchmark grids
# is 4e-15.
SRM_TOL = 1e-11
# Slack for the certificate's checks: absolute for the POVM (entries of order 1),
# relative to the block's trace (its prior mass) for the dual and the values.
# The worst residuals seen on the benchmark grid are 3e-14 of either scale.
CERT_TOL = 1e-11


def _log_binom(n, r):
    n = np.asarray(n, dtype=float)
    r = np.asarray(r, dtype=float)
    return gammaln(n + 1) - gammaln(r + 1) - gammaln(n - r + 1)


def _log_sym_dim(n, d):
    """log binom(d + n - 1, d - 1), the symmetric-subspace dimension of n qudits."""
    return _log_binom(np.asarray(n) + d - 1, d - 1)


def _log_generators(scenario: str, N: int, d: int, label: int) -> tuple[np.ndarray, np.ndarray]:
    """Log priors log eta_k and log overlap ratios of one block, in the library's labels
    (lam for unknown; n1 = e for known qubits and ntilde0 for known qudits).

    Unknown block lam: eta_k = s_lam / (N d_sym(N-k) d_sym(k)) over k = max(lam,1)..N-lam,
    with overlaps sqrt(C(k,lam) C(N-k',lam) / (C(k',lam) C(N-k,lam))) for k <= k'.
    Known block with e = N - ntilde0 excitations: eta_k = C(e+d-2, d-2) / (N d_sym(k))
    over k = max(e,1)..N, with overlaps sqrt(C(k,e) / C(k',e)) for k <= k'.
    """
    if scenario == "unknown":
        lam = label
        k = np.arange(max(lam, 1), N - lam + 1)
        log_s = (np.log(N - 2 * lam + 1) + _log_binom(d + lam - 2, d - 2)
                 + _log_binom(d + N - lam - 1, d - 1) - np.log(N - lam + 1))
        log_eta = log_s - np.log(N) - _log_sym_dim(N - k, d) - _log_sym_dim(k, d)
        return log_eta, _log_binom(N - k, lam) - _log_binom(k, lam)
    e = label if d == 2 else N - label
    k = np.arange(max(e, 1), N + 1)
    log_eta = _log_binom(e + d - 2, d - 2) - np.log(N) - _log_sym_dim(k, d)
    return log_eta, -_log_binom(k, e)


def labels(scenario: str, N: int, d: int) -> list[int]:
    """Block labels of one total, in the library's order."""
    if scenario == "unknown":
        return list(range(N // 2 + 1))
    return [N - i for i in range(N + 1)] if d == 2 else list(range(N + 1))


def gram(scenario: str, N: int, d: int, label: int) -> np.ndarray:
    """Dense block G[i, j] = sqrt(eta_i eta_j) * overlap, from exp of log generators."""
    log_eta, log_ratio = _log_generators(scenario, N, d, label)
    lo = 0.5 * (log_eta - log_ratio)
    hi = 0.5 * (log_eta + log_ratio)
    upper = np.triu(np.exp(lo[:, None] + hi[None, :]))
    return upper + np.triu(upper, 1).T


def block_traces(scenario: str, N: int, d: int) -> dict[int, float]:
    """Trace of each block, its total prior mass."""
    return {lab: float(np.exp(_log_generators(scenario, N, d, lab)[0]).sum())
            for lab in labels(scenario, N, d)}


def sqrt_psd(g: np.ndarray) -> np.ndarray:
    """PSD square root, with eigenvalues below the numerical rank threshold
    n * eps * lambda_max set to 0 (a rank-one block's rounding noise would
    otherwise add ~1e-10 through the square root)."""
    w, v = np.linalg.eigh(g)
    w = np.where(w > g.shape[0] * np.finfo(float).eps * w[-1], w, 0.0)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def srm_value(g: np.ndarray) -> float:
    """Square-root-measurement joint success of one block: sum_k sqrt(G)_kk^2."""
    return float(np.sum(np.diag(sqrt_psd(g)) ** 2))


def srm_total(scenario: str, N: int, d: int) -> float:
    return sum(srm_value(gram(scenario, N, d, lab)) for lab in labels(scenario, N, d))


def check_traces(scenario: str, N: int, d: int) -> list[str]:
    """The reference blocks' traces (their prior masses) sum to 1."""
    total = sum(block_traces(scenario, N, d).values())
    return [] if abs(total - 1.0) <= 1e-12 else [f"{scenario} N={N} d={d}: block traces sum to {total!r}"]


def check_srm_total(scenario: str, N: int, d: int, total: float) -> list[str]:
    ref = srm_total(scenario, N, d)
    if abs(total - ref) <= SRM_TOL:
        return []
    return [f"{scenario} N={N} d={d}: SRM total {total!r} != reference {ref!r}"]


def check_srm_blocks(scenario: str, N: int, d: int, per_block: dict, total: float,
                     sample: list[int]) -> list[str]:
    """Per-block SRM values of one total: the sampled ones against the reference,
    every one within (0, trace], and their sum equal to the total."""
    problems = []
    traces = block_traces(scenario, N, d)
    if sorted(per_block) != sorted(traces):
        return [f"{scenario} N={N} d={d}: block labels {sorted(per_block)} != {sorted(traces)}"]
    for lab, val in per_block.items():
        if not 0.0 < val <= traces[lab] * (1 + CERT_TOL):
            problems.append(f"{scenario} N={N} d={d} block {lab}: SRM {val!r} outside (0, {traces[lab]!r}]")
    for lab in sample:
        ref = srm_value(gram(scenario, N, d, lab))
        if abs(per_block[lab] - ref) > SRM_TOL:
            problems.append(f"{scenario} N={N} d={d} block {lab}: SRM {per_block[lab]!r} != reference {ref!r}")
    if abs(sum(per_block.values()) - total) > 1e-12:
        problems.append(f"{scenario} N={N} d={d}: total {total!r} != sum of blocks {sum(per_block.values())!r}")
    return problems


def check_srm_curve(n_values: list[int], totals: list[float]) -> list[str]:
    """Unknown-scenario SRM curve: non-decreasing from N >= 8, below p0(2)."""
    problems = []
    tail = [(n, p) for n, p in zip(n_values, totals) if n >= 8]
    for (n0, p0), (n1, p1) in zip(tail, tail[1:]):
        if p1 < p0:
            problems.append(f"SRM curve decreases from N={n0} ({p0!r}) to N={n1} ({p1!r})")
    for n, p in zip(n_values, totals):
        if not p < P0_D2:
            problems.append(f"SRM total at N={n} is {p!r}, not below p0(2) = {P0_D2}")
    return problems


def check_certificate(g: np.ndarray, primal: list, dual: np.ndarray, value: float,
                      gap_tol: float) -> list[str]:
    """Certificate of one block against the reference rho_k = s_k s_k^T (s = sqrt(G)):
    E_k >= 0, sum E_k = I, Y >= rho_k, SRM <= P = sum tr(E_k rho_k) = value,
    and tr Y - P <= gap_tol."""
    n = g.shape[0]
    s = sqrt_psd(g)
    tol = CERT_TOL * float(np.trace(g))
    problems = []
    if len(primal) != n or dual.shape != (n, n):
        return [f"certificate has {len(primal)} POVM elements and a {dual.shape} dual for order {n}"]
    worst_e = min(float(np.linalg.eigvalsh(e)[0]) for e in primal)
    if worst_e < -CERT_TOL:
        problems.append(f"E_k not PSD: eigenvalue {worst_e:.3e}")
    resid = float(np.abs(np.sum(primal, axis=0) - np.eye(n)).max())
    if resid > CERT_TOL:
        problems.append(f"sum E_k differs from I by {resid:.3e}")
    worst_y = min(float(np.linalg.eigvalsh(dual - np.outer(s[:, k], s[:, k]))[0]) for k in range(n))
    if worst_y < -tol:
        problems.append(f"Y - rho_k not PSD: eigenvalue {worst_y:.3e} (tolerance {tol:.1e})")
    p = float(sum(s[:, k] @ primal[k] @ s[:, k] for k in range(n)))
    srm = float(np.sum(np.diag(s) ** 2))
    if srm > p + tol:
        problems.append(f"SRM {srm!r} exceeds the POVM's success {p!r}")
    if abs(value - p) > tol:
        problems.append(f"reported value {value!r} != sum tr(E_k rho_k) = {p!r}")
    gap = float(np.trace(dual)) - p
    if not -tol <= gap <= gap_tol:
        problems.append(f"tr Y - P = {gap:.3e} outside [0, gap_tol = {gap_tol:.0e}]")
    return problems
