"""End-to-end checks against brute-force computations in the full 2^N space.

The Gram pipeline condenses the effective string states into per-block
matrices.  These tests rebuild the actual density matrices on (C^2)^(x N),
apply the pretty-good measurement (or the fixed-point optimal-POVM iteration)
directly, and compare totals.  The pretty-good measurement of a direct sum
decomposes blockwise, so the full-space value must equal the summed block
values; the optimum must equal the summed block optima.
"""

import itertools
import math

import numpy as np
import pytest

from qedge import ScenarioSpec, StringParams, total_success


def symmetric_projector(n: int) -> np.ndarray:
    """Projector onto the symmetric subspace of n qubits."""
    dim = 2**n
    proj = np.zeros((dim, dim))
    for perm in itertools.permutations(range(n)):
        mat = np.zeros((dim, dim))
        for idx in range(dim):
            bits = [(idx >> (n - 1 - pos)) & 1 for pos in range(n)]
            permuted = 0
            for pos in range(n):
                permuted = (permuted << 1) | bits[perm[pos]]
            mat[permuted, idx] = 1.0
        proj += mat
    return proj / math.factorial(n)


def effective_state_unknown(n: int, k: int) -> np.ndarray:
    """rho_k = P^sym_(n-k) (x) P^sym_k / (d^sym_(n-k) d^sym_k) for qubits."""
    left = symmetric_projector(n - k) if n - k else np.ones((1, 1))
    right = symmetric_projector(k)
    rho = np.kron(left, right)
    return rho / ((n - k + 1) * (k + 1))


def effective_state_known(n: int, k: int) -> np.ndarray:
    """rho_k = |0..0><0..0| (x) P^sym_k / d^sym_k for qubits."""
    dim_left = 2 ** (n - k)
    left = np.zeros((dim_left, dim_left))
    left[0, 0] = 1.0
    return np.kron(left, symmetric_projector(k)) / (k + 1)


def support_inverse_sqrt(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse square root of a PSD matrix on its support, and the support projector."""
    w, v = np.linalg.eigh(m)
    keep = w > 1e-12 * w[-1]
    w, v = w[keep], v[:, keep]
    return (v / np.sqrt(w)) @ v.T, v @ v.T


def pgm_success(states: list[np.ndarray], priors: list[float]) -> float:
    """Pretty-good-measurement success probability for weighted mixed states."""
    weighted = [p * s for p, s in zip(priors, states)]
    inv_sqrt, _ = support_inverse_sqrt(np.sum(weighted, axis=0))
    total = 0.0
    for rho in weighted:
        e = inv_sqrt @ rho @ inv_sqrt
        total += float(np.sum(e * rho))
    return total


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unknown_srm_total_matches_full_space_pgm(n):
    states = [effective_state_unknown(n, k) for k in range(1, n + 1)]
    direct = pgm_success(states, [1.0 / n] * n)
    block = total_success(ScenarioSpec("unknown", StringParams(n, 2), "srm")).total
    assert block == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_known_srm_total_matches_full_space_pgm(n):
    states = [effective_state_known(n, k) for k in range(1, n + 1)]
    direct = pgm_success(states, [1.0 / n] * n)
    block = total_success(ScenarioSpec("known", StringParams(n, 2), "srm")).total
    assert block == pytest.approx(direct, abs=1e-10)


def optimal_povm(states: list[np.ndarray], steps: int = 200) -> list[np.ndarray]:
    """Fixed-point iteration for the minimum-error POVM of weighted states sigma_k.

    E_k <- G^{-1/2} sigma_k E_k sigma_k G^{-1/2} with G = sum_k sigma_k E_k sigma_k
    (Jezek, Rehacek & Fiurasek, PRA 65, 060301(R), 2002); sum_k E_k stays the
    projector onto the states' joint support.
    """
    povm = [np.eye(states[0].shape[0]) / len(states) for _ in states]
    for _ in range(steps):
        inv_sqrt, _ = support_inverse_sqrt(sum(s @ e @ s for s, e in zip(states, povm)))
        povm = [inv_sqrt @ s @ e @ s @ inv_sqrt for s, e in zip(states, povm)]
    return povm


@pytest.mark.parametrize("scenario,n", [("unknown", 3), ("unknown", 4), ("known", 3),
                                        ("unknown", 5), ("known", 5)])
def test_sdp_total_matches_full_space_solver(scenario, n):
    builder = effective_state_unknown if scenario == "unknown" else effective_state_known
    states = [builder(n, k) / n for k in range(1, n + 1)]
    povm = optimal_povm(states)
    # lower bound: the POVM's value; upper bound: Y = sum_k sigma_k E_k shifted
    # by its worst violation delta of Y >= sigma_k is dual feasible
    lower = sum(float(np.sum(s * e)) for s, e in zip(states, povm))
    y = sum(s @ e for s, e in zip(states, povm))
    y = 0.5 * (y + y.T)
    delta = max(0.0, -min(np.linalg.eigvalsh(y - s)[0] for s in states))
    upper = float(np.trace(y)) + y.shape[0] * delta
    assert upper - lower <= 1e-12
    _, support = support_inverse_sqrt(sum(states))
    assert np.abs(sum(povm) - support).max() <= 1e-12

    res = total_success(ScenarioSpec(scenario, StringParams(n, 2), "sdp"))
    assert res.total <= upper + 1e-12
    assert lower - res.total <= len(res.per_block) * 1e-8
    assert sum(sol.dual_value for sol in res.certificates.values()) >= lower - 1e-12
