import math

import numpy as np
import pytest

from qedge import (
    NotPsdError,
    ScenarioSpec,
    StringParams,
    build_gram_known,
    build_gram_unknown,
    optimal_block,
    psd_sqrt,
    solve_discrimination_sdp,
    total_success,
)
from qedge import linalg


def random_psd(rng, n, rank=None):
    x = rng.normal(size=(n, rank or n))
    return x @ x.T


@pytest.mark.parametrize("fn", [psd_sqrt, solve_discrimination_sdp])
def test_rejects_asymmetric_and_nonfinite(fn):
    with pytest.raises(ValueError, match="not symmetric"):
        fn(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        fn(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        fn(np.ones((2, 3)))


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(5)), np.eye(5))


def test_psd_sqrt_rank_one_closed_form():
    g = np.array([[3 / 8, math.sqrt(3) / 4], [math.sqrt(3) / 4, 1 / 2]])
    root = psd_sqrt(g)
    assert np.abs(root - g / math.sqrt(7 / 8)).max() < 1e-14


def test_psd_sqrt_round_trip_random():
    rng = np.random.default_rng(11)
    for n in (3, 20, 100):
        m = random_psd(rng, n)
        root = psd_sqrt(m)
        assert np.abs(root @ root - m).max() <= 1e-9 * np.abs(m).max()


def test_psd_sqrt_round_trip_gram_blocks():
    for n in (10, 40, 100):
        for lam in (0, 1, n // 4, n // 2):
            g = build_gram_unknown(n, 2, lam)
            root = psd_sqrt(g.dense)
            assert np.abs(root @ root - g.dense).max() <= 1e-10 * max(np.abs(g.dense).max(), 1e-300)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPsdError):
        psd_sqrt(np.diag([1.0, -0.5]))
    # the solver shares the check: its Gram must be PSD
    with pytest.raises(NotPsdError):
        solve_discrimination_sdp(np.array([[0.5, 0.6], [0.6, 0.5]]))


def test_sdp_single_hypothesis():
    sol = solve_discrimination_sdp(np.array([[0.49]]))
    assert sol.primal_value == pytest.approx(0.49, abs=1e-12)
    assert np.allclose(sol.primal[0], np.eye(1))
    assert sol.status == "converged"


@pytest.mark.parametrize("gap_tol", [0.0, -1e-8, math.inf, math.nan])
def test_sdp_rejects_gap_tol_out_of_range(gap_tol):
    with pytest.raises(ValueError, match="gap_tol"):
        solve_discrimination_sdp(np.array([[0.5, 0.2], [0.2, 0.5]]), gap_tol=gap_tol)



@pytest.mark.parametrize("overlap", [0.0, 0.3, 1 / math.sqrt(2), 0.95, 0.999])
def test_sdp_two_state_helstrom(overlap):
    g = np.array([[0.5, overlap / 2], [overlap / 2, 0.5]])
    sol = solve_discrimination_sdp(g)
    expected = 0.5 * (1.0 + math.sqrt(1.0 - overlap**2))
    assert sol.status == "converged"
    assert sol.primal_value == pytest.approx(expected, abs=2e-8)
    assert 0 <= sol.gap <= 1e-8


def test_sdp_rank_one_gram_returns_max_prior():
    eta = np.array([0.2, 0.5, 0.3])
    psi = np.ones(3) / math.sqrt(3)
    g = np.sqrt(np.outer(eta, eta))   # identical states
    sol = solve_discrimination_sdp(g)
    assert sol.primal_value == pytest.approx(0.5, abs=1e-12)
    assert sol.gap == 0.0
    assert np.allclose(sum(sol.primal), np.eye(3))


def test_sdp_certificates_random_grams():
    rng = np.random.default_rng(5)
    for n in (4, 12, 25):
        g = random_psd(rng, n)
        g /= np.trace(g)
        root = psd_sqrt(g)   # columns are the states
        sol = solve_discrimination_sdp(g)
        assert sol.status == "converged"
        assert sol.gap <= 1e-8
        assert sol.gap >= -1e-9
        total = sum(sol.primal)
        assert np.abs(total - np.eye(n)).max() <= 1e-8
        for k in range(n):
            rho = np.outer(root[:, k], root[:, k])
            assert np.linalg.eigvalsh(sol.dual - rho).min() >= -1e-8
            assert abs(np.sum((sol.dual - rho) * sol.primal[k])) <= 1e-8
            assert np.linalg.eigvalsh(sol.primal[k]).min() >= -1e-9


def test_sdp_value_invariant_under_signed_permutation_conjugation():
    # the discrimination value is a function of the hypothesis Gram G,
    # so the conjugations that preserve the problem are the signed permutations
    # (relabeling hypotheses and flipping state signs); a generic orthogonal
    # conjugation changes the pairwise overlaps and with them the optimum
    rng = np.random.default_rng(17)
    g = random_psd(rng, 8)
    g /= np.trace(g)
    base = solve_discrimination_sdp(g).primal_value
    perm = rng.permutation(8)
    signs = rng.choice([-1.0, 1.0], size=8)
    q = np.zeros((8, 8))
    q[np.arange(8), perm] = signs
    rotated = solve_discrimination_sdp(q @ g @ q.T).primal_value
    assert rotated == pytest.approx(base, abs=2e-8)


def test_sdp_dominates_srm_value():
    rng = np.random.default_rng(23)
    for n in (5, 15):
        g = random_psd(rng, n)
        g /= np.trace(g)
        srm = float(np.sum(np.diag(psd_sqrt(g)) ** 2))
        sol = solve_discrimination_sdp(g)
        assert sol.dual_value >= srm - 1e-12
        assert sol.primal_value >= srm - 1e-8


def _barrier_value(g, gap_tol):
    _, w, vr = linalg._kept_spectrum(g)
    b = (vr * np.sqrt(w)).T
    _, es, _, centered = linalg._barrier_solve(b, gap_tol)
    assert centered
    return float(sum(b[:, k] @ es[k] @ b[:, k] for k in range(b.shape[1])))


@pytest.mark.parametrize("gram", [
    build_gram_unknown(8, 2, 1), build_gram_unknown(10, 2, 3),
    build_gram_known(8, 2, 7), build_gram_known(12, 2, 10), build_gram_known(6, 3, 4),
], ids=lambda g: str(g.block))
def test_reweighted_srm_matches_barrier(gram):
    gap_tol = 1e-8
    value, sol = optimal_block(gram, gap_tol)
    barrier = _barrier_value(gram.dense, gap_tol)
    assert sol.status == "converged" and sol.iterations > 0
    assert barrier - 1e-12 <= value <= barrier + gap_tol


def _count_barrier_solves(monkeypatch):
    calls = []
    solve = linalg._barrier_solve

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(linalg, "_barrier_solve", counted)
    return calls


def test_independent_states_skip_the_barrier(monkeypatch):
    # edge-detection blocks never reach it: rank one takes the closed form, the rest the kernel
    calls = _count_barrier_solves(monkeypatch)
    for scenario, d in [("unknown", 2), ("known", 2), ("known", 3)]:
        res = total_success(ScenarioSpec(scenario, StringParams(12, d), "sdp"))
        assert all(sol.status == "converged" for sol in res.certificates.values())
    assert calls == []


def test_dependent_states_use_the_barrier(monkeypatch):
    calls = _count_barrier_solves(monkeypatch)
    g = random_psd(np.random.default_rng(31), 6, rank=3)
    g /= np.trace(g)
    root = psd_sqrt(g)
    sol = solve_discrimination_sdp(g)
    assert len(calls) == 1
    assert sol.status == "converged"
    assert 0 <= sol.gap <= 1e-8
    assert np.abs(sum(sol.primal) - np.eye(6)).max() <= 1e-8
    for k in range(6):
        rho = np.outer(root[:, k], root[:, k])
        assert np.linalg.eigvalsh(sol.dual - rho).min() >= -1e-8
        assert np.linalg.eigvalsh(sol.primal[k]).min() >= -1e-9


@pytest.mark.parametrize("rank", [1, 6, 3], ids=["rank-one", "reweighted", "barrier"])
def test_gap_is_dual_minus_primal(rank):
    g = random_psd(np.random.default_rng(37), 6, rank=rank)
    sol = solve_discrimination_sdp(g / np.trace(g))
    assert sol.status == "converged"
    assert sol.gap == sol.dual_value - sol.primal_value
    with pytest.raises(AttributeError):
        sol.gap = 0.0


def test_failed_cholesky_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(linalg, "cholesky", broken)
    value, sol = optimal_block(build_gram_known(10, 2, 7))
    assert sol.status == "converged"   # the values and the status need no dense algebra
    with pytest.raises(np.linalg.LinAlgError, match="forced"):
        sol.dual   # the dense certificate, built on first read


def test_full_rank_gram_is_decomposed_once(monkeypatch):
    eigh = np.linalg.eigh
    args = []

    def spied(m, *rest, **kwargs):
        args.append(np.array(m))
        return eigh(m, *rest, **kwargs)

    monkeypatch.setattr(linalg.np.linalg, "eigh", spied)
    for gram in (build_gram_unknown(10, 2, 2), build_gram_known(12, 2, 10)):
        assert not gram.rank_one
        g = gram.dense
        sym = 0.5 * (g + g.T)
        args.clear()
        sol = solve_discrimination_sdp(g)
        assert sol.status == "converged" and sol.iterations > 0
        assert sum(np.array_equal(a, sym) for a in args) == 1
