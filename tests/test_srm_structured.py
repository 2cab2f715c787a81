"""Structured SRM: the tridiagonal inverse and the square-root measurement built on it,
checked against dense linear algebra, a tridiagonal eigensolver and a 40-digit dense reference."""

import inspect
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from qedge import (
    ScenarioSpec,
    SemiseparableGram,
    StringParams,
    build_gram_known,
    build_gram_unknown,
    optimal_block,
    rescale_gram,
    scenario_blocks,
    srm_block,
    srm_blocks,
    success_curve,
    total_success,
)
from qedge import discrimination
from qedge import gram as gram_module
from qedge.gram import tridiag_inverse_reference
from qedge.linalg import psd_sqrt


def gram(scenario, n, d, label):
    return build_gram_unknown(n, d, label) if scenario == "unknown" else build_gram_known(n, d, label)


def labels(scenario, n):
    return range(n // 2 + 1) if scenario == "unknown" else range(n + 1)


def mp_srm(scenario, n, d, label, dps=40):
    """SRM value from the closed-form block in dps-digit arithmetic: dense eigendecomposition."""
    with mpmath.workdps(dps):
        binom = mpmath.binomial
        if scenario == "unknown":
            lam = label
            ks = range(max(lam, 1), n - lam + 1)
            s_lam = mpmath.mpf((n - 2 * lam + 1) * binom(d + lam - 2, d - 2)
                               * binom(d + n - lam - 1, d - 1)) / (n - lam + 1)
            eta = [s_lam / (n * binom(n - k + d - 1, d - 1) * binom(k + d - 1, d - 1)) for k in ks]
            ratio = [binom(n - k, lam) / binom(k, lam) for k in ks]
        else:
            e = n - label
            ks = range(max(e, 1), n + 1)
            eta = [binom(e + d - 2, d - 2) / (n * binom(k + d - 1, d - 1)) for k in ks]
            ratio = [1 / binom(k, e) for k in ks]
        size = len(ks)
        g = mpmath.matrix(size, size)
        for i in range(size):
            for j in range(i, size):
                g[i, j] = g[j, i] = mpmath.sqrt(eta[i] * eta[j] * ratio[j] / ratio[i])
        w, q = mpmath.eigsy(g)
        root = q * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * q.T
        return float(mpmath.fsum(root[i, i] ** 2 for i in range(size)))


@pytest.mark.parametrize("scenario", ["unknown", "known"])
@pytest.mark.parametrize("d", [2, 3, 8])
def test_srm_block_matches_40_digit_reference(scenario, d):
    # every block at N = 9, and at N = 40 the largest block (lam = 1 / n1 = 1)
    cases = [(9, label) for label in labels(scenario, 9)]
    cases.append((40, 1 if scenario == "unknown" else 39))
    for n, label in cases:
        ref = mp_srm(scenario, n, d, label)
        val = srm_block(gram(scenario, n, d, label))
        assert abs(val - ref) <= 1e-12 * ref, (n, label, val, ref)


@pytest.mark.parametrize("scenario", ["unknown", "known"])
def test_srm_blocks_at_large_d_match_mpmath(scenario):
    # d = 2e5: log-binomials taken as differences of log-factorials near log (N+d)!
    # put every block of N = 10 off by 7.9e-10 relative
    for label in labels(scenario, 10):
        ref = mp_srm(scenario, 10, 200_000, label, dps=120)
        val = srm_block(gram(scenario, 10, 200_000, label))
        assert abs(val - ref) <= 1e-12 * ref, (label, val, ref)


def test_known_total_at_huge_d_stays_below_one():
    # known N = 3, d = 1e9: the log-factorial differences gave 1.0000013
    assert total_success(ScenarioSpec("known", StringParams(3, 10**9), "srm")).total <= 1.0


def tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("scenario", ["unknown", "known"])
def test_inverse_tridiagonal_matches_dense_inverse(scenario):
    for n, d in [(2, 2), (7, 3), (12, 2), (16, 4)]:
        for label in labels(scenario, n):
            g = gram(scenario, n, d, label)
            if g.rank_one:
                if g.order > 1:
                    with pytest.raises(ValueError):
                        g.inverse_tridiagonal()
                continue
            inv = np.linalg.inv(g.dense)
            t = tridiagonal(*g.inverse_tridiagonal())
            assert np.abs(t - inv).max() <= 1e-12 * np.abs(inv).max(), (n, d, label)


def test_inverse_tridiagonal_matches_closed_form():
    for n, d in [(4, 2), (5, 3), (12, 2), (20, 4), (31, 3), (60, 2)]:
        for lam in range(1, n // 2 + 1):
            diag, off = rescale_gram(build_gram_unknown(n, d, lam)).inverse_tridiagonal()
            ref_diag, ref_off = tridiag_inverse_reference(n, d, n / 2 - lam)
            scale = np.abs(ref_diag).max()
            assert np.abs(diag - ref_diag).max() <= 1e-12 * scale, (n, d, lam)
            assert np.abs(off - ref_off).max(initial=0.0) <= 1e-12 * scale, (n, d, lam)


@pytest.mark.parametrize("n, scenario, label", [
    (400, "unknown", 1), (400, "unknown", 57), (400, "known", 399), (400, "known", 150),
    (1000, "unknown", 1), (1000, "known", 999),   # known n1 = 1 is the worst-conditioned (~1e7)
])
def test_srm_block_matches_dense_sqrt_at_large_n(n, scenario, label):
    g = gram(scenario, n, 2, label)
    dense = float(np.sum(np.diag(psd_sqrt(g.dense)) ** 2))
    assert abs(srm_block(g) - dense) <= 1e-12


def test_rank_one_blocks():
    for n, d in [(2, 2), (9, 3), (40, 8)]:
        for lam in range(n // 2 + 1):
            g = build_gram_unknown(n, d, lam)
            assert g.rank_one == (lam == 0 or g.order == 1)
        for ntilde0 in range(n + 1):
            g = build_gram_known(n, d, ntilde0)
            assert g.rank_one == (ntilde0 == n or g.order == 1)
        g = build_gram_unknown(n, d, 0)
        eta = g.priors
        assert srm_block(g) == pytest.approx(eta @ eta / eta.sum(), rel=1e-14)
        assert np.linalg.matrix_rank(g.dense, tol=1e-12 * g.trace) == 1


def test_srm_block_leaves_dense_unbuilt():
    for g in (build_gram_unknown(30, 3, 4), build_gram_known(30, 2, 11), build_gram_unknown(30, 2, 0)):
        srm_block(g)
        assert "dense" not in g.__dict__


@pytest.mark.parametrize("module, name", [
    # every block is made by _gram_blocks: scenario_blocks calls discrimination's binding,
    # build_gram_unknown and build_gram_known call gram's
    (discrimination, "scenario_blocks"), (discrimination, "_gram_blocks"),
    (gram_module, "_gram_blocks"), (gram_module, "SemiseparableGram"),
])
def test_srm_total_builds_no_block(monkeypatch, module, name):
    class Built(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Built(name)

    monkeypatch.setattr(module, name, refuse)
    for scenario in ("unknown", "known"):
        for method in ("srm", "sdp"):
            assert 0 < total_success(ScenarioSpec(scenario, StringParams(12, 2), method)).total < 1


def test_dense_refuses_generators_outside_float_range():
    # e = 1200 of N = 2400: r_k = 1/binom(k, e) spans ~e^-1660, so u underflows and v overflows
    g = build_gram_known(2400, 2, 1200)
    with pytest.raises(ValueError):
        g.dense
    assert 0 < srm_block(g) < g.trace


@pytest.mark.parametrize("kappa", [10.0, 1e4, 1e7, 2.6e7, 1e9, 1e20,
                                   1.0, 1.0 + 1e-9, 1.5, 5e8, 1e50, 1e144, 1e250])
def test_inverse_sqrt_rule_is_positive_and_accurate(kappa):
    # hi < 2 lo takes the rule of [lo, 2 lo], as Landen from p = 1 would not end; the
    # number of Landen steps falls from 4 up to kappa = 10 to none from about 1e33
    lo = 0.37
    weights, shifts = discrimination._inverse_sqrt_rule(lo, lo * kappa)
    assert np.all(weights > 0) and np.all(shifts > 0)
    x = np.geomspace(lo, lo * kappa, 3001)
    approx = np.sum(weights[:, None] / (x[None, :] + shifts[:, None]), axis=0)
    assert np.abs(approx * np.sqrt(x) - 1.0).max() <= 1e-13


def mrrr_srm(g):
    """SRM value from the full eigendecomposition G^{-1} = V diag(mu) V^T by MRRR."""
    mu, vec = eigh_tridiagonal(*g.inverse_tridiagonal())
    root_diag = vec ** 2 @ mu ** -0.5
    return float(root_diag @ root_diag)


@pytest.mark.parametrize("scenario", ["unknown", "known"])
@pytest.mark.parametrize("d", [2, 3])
def test_srm_blocks_match_tridiagonal_eigensolver(scenario, d):
    for n in (9, 40, 198):
        grams = [g for _, g in scenario_blocks(scenario, StringParams(n, d))]
        for g, val in zip(grams, srm_blocks(grams)):
            if g.rank_one:
                continue
            ref = mrrr_srm(g)
            assert abs(val - ref) <= 1e-12 * ref, (n, g.block)


@pytest.mark.parametrize("scenario", ["unknown", "known"])
def test_total_per_block_matches_single_block_calls(scenario):
    # the batched call covers the union of all blocks' spectra, one block alone only its own;
    # N = 1, 2 hold no full-rank block, N = 3 order-1 and rank-one blocks next to a full one
    for n in (1, 2, 3, 60, 61):
        for d in (2, 3, 8):
            params = StringParams(n, d)
            res = total_success(ScenarioSpec(scenario, params, "srm"))
            blocks = scenario_blocks(scenario, params)
            assert list(res.per_block) == [label for label, _ in blocks]
            for label, g in blocks:
                single = srm_block(g)
                assert abs(res.per_block[label] - single) <= 1e-13 * single, (n, d, label)


def test_srm_range_limit():
    # known N = 400, d = 200: b_k^2 reaches exp(384.1) = 1e167, past sqrt of the float64
    # maximum, exp(354.9)
    with pytest.raises(ValueError, match=r"block 399 of .* exp\(384\.1\): .* overflow float64"):
        total_success(ScenarioSpec("known", StringParams(400, 200), "srm"))
    (row,) = success_curve("known", 200, [400], "srm")
    assert row.status == "error:ValueError" and math.isnan(row.p_success)
    # known N = 100: b_k^2 up to 1e146 at d = 1000 is inside.  At d = 1230 every b_k^2
    # is below sqrt of the float64 maximum, but the shifted pivot products would
    # overflow, so the total raises instead of warning and returning inf or nan
    assert 0.99 < total_success(ScenarioSpec("known", StringParams(100, 1000), "srm")).total < 1
    with pytest.raises(ValueError, match=r"block 99 of .* exp\(353\.7\): .* overflow float64"):
        total_success(ScenarioSpec("known", StringParams(100, 1230), "srm"))


def test_srm_blocks_mixed_batches():
    assert srm_blocks([]) == []
    rank_one = build_gram_unknown(12, 2, 0)
    order_one = build_gram_known(12, 3, 0)          # e = 12: the single hypothesis k = 12
    full = [build_gram_unknown(12, 2, 3), build_gram_known(40, 2, 21), build_gram_unknown(9, 3, 1)]
    assert order_one.order == 1 and not full[0].rank_one
    batch = [full[0], rank_one, full[1], order_one, full[2]]
    expected = [srm_block(g) for g in batch]
    got = srm_blocks(batch)
    assert got[1] == expected[1] and got[3] == expected[3]
    assert got[3] == pytest.approx(order_one.trace, rel=1e-15)
    for i in (0, 2, 4):
        assert got[i] == pytest.approx(expected[i], rel=1e-13)
    assert srm_blocks([rank_one, order_one]) == [expected[1], expected[3]]


def test_srm_blocks_rejects_singular_block():
    g = build_gram_unknown(10, 2, 2)
    log_delta = g.log_delta.copy()
    log_delta[1] = -np.inf
    singular = SemiseparableGram(g.block, g.log_eta, g.log_r, log_delta)
    assert not singular.rank_one
    # the rank-one lam = 0 block in front takes the closed form, and the error names the caller's block
    with pytest.raises(ValueError, match=r"^block IrrepBlock\(.*lam=2\) is singular"):
        srm_blocks([build_gram_unknown(10, 2, 0), singular, g])
    with pytest.raises(RuntimeError, match=r"^SDP failed: block IrrepBlock\(.*lam=2\) is singular \(some Delta_k = 0\)$"):
        optimal_block(singular)


def test_kernel_refuses_rank_one_block():
    # the callers split rank-one blocks off by structure; one handed to the kernel fails its range check
    blocks = [build_gram_unknown(10, 2, 2), build_gram_unknown(10, 2, 0)]
    assert blocks[1].rank_one and blocks[1].order > 1
    flat = map(np.concatenate, zip(*[(g.log_eta, g.log_r, g.log_delta) for g in blocks]))
    with pytest.raises(ValueError, match=r"^block IrrepBlock\(.*lam=0\) is singular"):
        discrimination._root_diagonals(np.array([g.order for g in blocks]), *flat, lambda i: blocks[i].block)


def test_one_srm_path():
    assert "eigh_tridiagonal" not in inspect.getsource(discrimination)
    assert not hasattr(discrimination, "eigh_tridiagonal")
