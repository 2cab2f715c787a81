import io
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from qedge import (
    build_gram_known,
    build_gram_unknown,
    overlap_oracle,
    rescale_gram,
    sym_dim,
    tridiag_inverse_reference,
)
from qedge.gram import _log_factorials, dump_gram_csv, log_generators


def test_unknown_gram_n2_exact():
    g = build_gram_unknown(2, 2, 0)
    expected = np.array([[3 / 8, math.sqrt(3) / 4], [math.sqrt(3) / 4, 1 / 2]])
    assert np.abs(g.dense - expected).max() < 1e-15
    assert np.linalg.matrix_rank(g.dense, tol=1e-12) == 1


def test_unknown_gram_diagonal_is_priors():
    for n, d in [(2, 2), (7, 3), (12, 4), (9, 8)]:
        for lam in range(n // 2 + 1):
            g = build_gram_unknown(n, d, lam)
            exact = np.array([float(p) for _, p in g.block.priors_exact()])
            assert np.abs(np.diag(g.dense) - exact).max() < 1e-14


def test_unknown_gram_matches_oracle():
    for n in range(2, 13):
        for lam in range(n // 2 + 1):
            g = build_gram_unknown(n, 2, lam)
            ks = g.labels
            eta = [float(p) for _, p in g.block.priors_exact()]
            for i, k in enumerate(ks):
                for jj in range(i, len(ks)):
                    expected = math.sqrt(eta[i] * eta[jj]) * overlap_oracle(n, k, ks[jj], lam)
                    assert g.dense[i, jj] == pytest.approx(expected, abs=1e-13)


def test_semiseparable_reconstruction():
    for n, d in [(6, 2), (11, 3), (20, 4), (40, 2)]:
        for lam in range(n // 2 + 1):
            g = build_gram_unknown(n, d, lam)
            outer = np.outer(g.v, g.u)
            rebuilt = np.triu(outer) + np.triu(outer, 1).T
            assert np.array_equal(rebuilt, g.dense)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_gram_psd_and_trace(d):
    rng = np.random.default_rng(7 + d)
    for n in [2, 3, 12, 41, 200]:
        lams = range(n // 2 + 1) if n <= 41 else rng.choice(n // 2 + 1, size=6, replace=False)
        for lam in lams:
            g = build_gram_unknown(n, d, int(lam))
            w = np.linalg.eigvalsh(g.dense)
            assert w[0] >= -1e-10 * max(w[-1], 1e-300)
            exact = sum(p for _, p in g.block.priors_exact())
            assert abs(g.trace - float(exact)) < 1e-12


def test_gram_persymmetric():
    # G[k,k'] = G[N-k', N-k] wherever both reflected labels are hypotheses;
    # for lam >= 1 the hypothesis set is closed under k -> N-k, for lam = 0
    # the k = N column has no mirror (k = 0 is never a hypothesis)
    for n, d in [(9, 2), (12, 3), (17, 4)]:
        for lam in range(n // 2 + 1):
            g = build_gram_unknown(n, d, lam)
            pos = {k: i for i, k in enumerate(g.labels)}
            for k in g.labels:
                for k2 in g.labels:
                    if n - k in pos and n - k2 in pos:
                        lhs = g.dense[pos[k], pos[k2]]
                        rhs = g.dense[pos[n - k2], pos[n - k]]
                        assert abs(lhs - rhs) < 1e-12
            if lam >= 1:
                flipped = g.dense[::-1, ::-1]
                assert np.abs(g.dense - flipped.T).max() < 1e-12


def test_known_gram_prior_example():
    g = build_gram_known(4, 2, 3)
    assert g.labels[0] == 1
    assert g.dense[0, 0] == pytest.approx(1 / 8)   # eta = 1/((k+1)N) at k=1, N=4


def test_known_gram_d2_reduction():
    # general-d entries at d=2 equal sqrt(eta_k eta_k' binom(k,n1)/binom(k',n1))
    n = 6
    for ntilde0 in range(n + 1):
        g = build_gram_known(n, 2, ntilde0)
        e = n - ntilde0
        ks = g.labels
        for i, k in enumerate(ks):
            for jj in range(i, len(ks)):
                k2 = ks[jj]
                eta_k = 1 / ((k + 1) * n)
                eta_k2 = 1 / ((k2 + 1) * n)
                expected = math.sqrt(eta_k * eta_k2 * math.comb(k, e) / math.comb(k2, e))
                assert g.dense[i, jj] == pytest.approx(expected, abs=1e-14)


def test_known_gram_diagonal_and_normalization():
    for n, d in [(5, 2), (6, 3), (7, 4)]:
        total = Fraction(0)
        for ntilde0 in range(n + 1):
            g = build_gram_known(n, d, ntilde0)
            exact = g.block.priors_exact()
            assert [k for k, _ in exact] == list(g.labels)
            assert np.abs(np.diag(g.dense) - np.array([float(p) for _, p in exact])).max() < 1e-14
            total += sum(p for _, p in exact)
        assert total == 1


def test_known_gram_aggregates_multi_index_blocks():
    # direct multi-index construction at d=3: blocks labeled by the full
    # excitation split (n_1, n_2) with entries 1/(N sqrt(dsym_k dsym_k'))
    # sqrt(multinom(k,n)/multinom(k',n')) must sum to the ntilde0 matrix
    d = 3
    for n in range(2, 9):
        for ntilde0 in range(n + 1):
            e = n - ntilde0
            g = build_gram_known(n, d, ntilde0)
            ks = g.labels
            direct = np.zeros_like(g.dense)
            splits = [(n1, e - n1) for n1 in range(e + 1)]
            for n1, n2 in splits:
                for i, k in enumerate(ks):
                    for jj, k2 in enumerate(ks):
                        a, b = min(k, k2), max(k, k2)
                        # multinomial ratio reduces to binom(a,e)/binom(b,e)
                        ratio = (
                            math.comb(a, e)
                            / math.comb(b, e)
                        )
                        direct[i, jj] += (
                            math.sqrt(ratio)
                            / (n * math.sqrt(sym_dim(k, d) * sym_dim(k2, d)))
                        )
            assert np.abs(direct - g.dense).max() < 1e-12


def test_rescale_prefactor_d2():
    n, lam = 10, 2
    g = build_gram_unknown(n, 2, lam)
    gt = rescale_gram(g)
    pref = (n / 2) ** 2 / (n - 2 * lam + 1)
    assert np.abs(gt.dense - pref * g.dense).max() < 1e-15


def test_rescale_rejects_known_blocks():
    with pytest.raises(ValueError):
        rescale_gram(build_gram_known(4, 2, 2))


def test_rescaled_gram_identity_limit_fixed_j():
    # N * Gtilde -> I entrywise at fixed j, deviation ~ 1/N
    for d, j in [(2, 2), (3, 3)]:
        devs = []
        for n in (20, 40, 80, 160):
            lam = n // 2 - j
            gt = rescale_gram(build_gram_unknown(n, d, lam))
            devs.append(np.abs(n * gt.dense - np.eye(gt.order)).max())
        assert devs[-1] < 0.05
        assert all(devs[i + 1] < 0.7 * devs[i] for i in range(len(devs) - 1))


def test_rescaled_inverse_is_tridiagonal():
    for n, d, lam in [(12, 2, 3), (15, 3, 4), (20, 4, 6)]:
        gt = rescale_gram(build_gram_unknown(n, d, lam))
        inv = np.linalg.inv(gt.dense)
        off = np.triu(np.abs(inv), 2)
        assert off.max() <= 1e-8 * np.abs(inv).max()


def test_tridiag_reference_single_hypothesis_block():
    diag, sup = tridiag_inverse_reference(4, 2, 0)
    assert diag.shape == (1,)
    assert sup.shape == (0,)
    gt = rescale_gram(build_gram_unknown(4, 2, 2))
    assert diag[0] == pytest.approx(1 / gt.dense[0, 0])


def test_tridiag_reference_guards():
    with pytest.raises(ValueError):
        tridiag_inverse_reference(4, 2, 2)     # lam = 0 block is singular
    with pytest.raises(ValueError):
        tridiag_inverse_reference(4, 2, 0.3)   # not a half-integer


def test_csv_dump_headers():
    g = build_gram_unknown(4, 2, 1)
    buf = io.StringIO()
    dump_gram_csv(g, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "k,1,2,3"
    assert len(lines) == 4
    assert lines[1].startswith("1,")


@pytest.mark.parametrize("scenario, n, d, labels", [
    ("unknown", 9, 3, [4, 0, 2, 1]),
    ("known", 7, 2, [7, 0, 3]),
    # the log-factorial table is held only where it is read: over n = 0..N+d it would take 8 TB
    ("known", 3, 10**12, [0, 1, 2, 3]),
])
def test_log_generators_lay_blocks_end_to_end(scenario, n, d, labels):
    build = build_gram_unknown if scenario == "unknown" else build_gram_known
    orders, *flat = log_generators(scenario, n, d, labels)
    ends = np.cumsum(orders)
    for label, start, stop in zip(labels, ends - orders, ends):
        g = build(n, d, label)
        for name, values in zip(("log_eta", "log_r", "log_delta"), flat):
            assert np.array_equal(values[start:stop], getattr(g, name)), (label, name)
    assert np.all(np.isfinite(flat[0]))


def test_log_factorials_match_mpmath():
    table = _log_factorials(10_000)
    assert table.shape == (10_001,) and table[0] == table[1] == 0.0
    with mpmath.workdps(40):
        for n in range(2, 10_001):
            ref = mpmath.loggamma(n + 1)
            # within 2 ulp, but for lgamma(3) = ln 2 - 3.6e-16 (3.2 ulp)
            assert abs(table[n] - ref) <= max(2 * np.spacing(table[n]), 4e-16), n
