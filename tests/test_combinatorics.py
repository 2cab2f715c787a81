import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from qedge import (
    CapacityError,
    build_gram_unknown,
    cg_coefficient,
    hypothesis_range,
    irrep_dim,
    omega_vector,
    overlap_closed,
    overlap_oracle,
    priors,
    sym_dim,
)
from qedge.combinatorics import _yamanouchi_sequences, yamanouchi_valid


def test_sym_dim_trivial():
    assert sym_dim(0, 5) == 1
    assert sym_dim(2, 2) == 3


def test_sym_dim_multiset_enumeration():
    # oracle: count multisets of size n over d symbols directly
    for n, d in [(3, 4), (4, 3), (5, 2), (2, 7)]:
        count = sum(1 for _ in combinations_with_replacement(range(d), n))
        assert sym_dim(n, d) == count


def test_sym_dim_rejects_bad_domain():
    with pytest.raises(ValueError):
        sym_dim(-1, 2)
    with pytest.raises(ValueError):
        sym_dim(2, 1)


def test_irrep_dim_lambda_zero_is_sym_dim():
    for n, d in [(1, 2), (4, 2), (7, 3), (10, 5)]:
        assert irrep_dim(n, d, 0) == sym_dim(n, d)


def test_irrep_dim_qubit_identity():
    # for qubits s_lam = N - 2 lam + 1
    for n in range(1, 20):
        for lam in range(n // 2 + 1):
            assert irrep_dim(n, 2, lam) == n - 2 * lam + 1


def test_irrep_dim_examples():
    assert irrep_dim(4, 2, 1) == 3
    assert irrep_dim(4, 3, 2) == 6


def test_irrep_dim_gelfand_oracle():
    # two-row irrep [N-lam, lam] of SU(d): count Gelfand-Tsetlin patterns by
    # recursion over interlacing rows
    def gt_count(top: tuple[int, ...]) -> int:
        if len(top) == 1:
            return 1
        total = 0
        lo_hi = []
        for i in range(len(top) - 1):
            lo_hi.append((top[i + 1], top[i]))

        def rec(i, row):
            nonlocal total
            if i == len(lo_hi):
                total += gt_count(tuple(row))
                return
            lo, hi = lo_hi[i]
            for v in range(lo, hi + 1):
                rec(i + 1, row + [v])

        rec(0, [])
        return total

    for n, d, lam in [(4, 3, 2), (5, 3, 1), (4, 4, 2), (6, 3, 3)]:
        top = (n - lam, lam) + (0,) * (d - 2)
        assert irrep_dim(n, d, lam) == gt_count(top)


def test_irrep_dim_rejects_bad_lambda():
    with pytest.raises(ValueError):
        irrep_dim(4, 2, 3)
    with pytest.raises(ValueError):
        irrep_dim(4, 2, -1)


def test_hypothesis_range_excludes_k_zero():
    assert list(hypothesis_range(4, 0)) == [1, 2, 3, 4]
    assert list(hypothesis_range(4, 1)) == [1, 2, 3]
    assert list(hypothesis_range(4, 2)) == [2]


def test_priors_examples():
    assert priors(2, 2, 1) == [(1, Fraction(1, 8))]
    assert priors(2, 2, 0) == [(1, Fraction(3, 8)), (2, Fraction(1, 2))]


@pytest.mark.parametrize("d", [2, 3, 4, 8])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 57, 200])
def test_prior_normalization_exact(n, d):
    total = sum(p for lam in range(n // 2 + 1) for _, p in priors(n, d, lam))
    assert total == 1


def test_blocks_expose_float_priors():
    grams = [build_gram_unknown(6, 3, lam) for lam in range(4)]
    for g in grams:
        exact = np.array([float(p) for _, p in g.block.priors_exact()])
        assert np.abs(g.priors - exact).max() <= 1e-14 * exact.max()
    assert abs(sum(g.priors.sum() for g in grams) - 1.0) < 1e-12
    assert grams[1].block.j == 2.0
    assert grams[1].labels == (1, 2, 3, 4, 5)


def test_cg_coefficient_table_entries():
    assert cg_coefficient(1, 0, 1, 0, 0) == 1.0
    # row q_n = 2, alpha_n = 0 entry is -sqrt((w-lam+1)/(n-2lam+2))
    assert cg_coefficient(2, 0, 4, 1, 2) == pytest.approx(-math.sqrt(2 / 4))
    assert cg_coefficient(1, 1, 2, 0, 1) == pytest.approx(math.sqrt(1 / 2))
    assert cg_coefficient(2, 1, 2, 1, 1) == pytest.approx(math.sqrt(1 / 2))


def test_cg_coefficient_rejects_invalid_steps():
    with pytest.raises(ValueError):
        cg_coefficient(1, 0, 2, 1, 0)   # n - 2 lam = 0
    with pytest.raises(ValueError):
        cg_coefficient(2, 0, 6, 3, 1)   # negative radicand w - lam + 1 < 0
    with pytest.raises(ValueError):
        cg_coefficient(3, 0, 1, 0, 0)


def test_yamanouchi_sequence_counts():
    # standard two-row tableaux are counted by the ballot numbers
    for n in range(1, 13):
        for lam in range(n // 2 + 1):
            expected = math.comb(n, lam) - (math.comb(n, lam - 1) if lam else 0)
            seqs = _yamanouchi_sequences(n, lam)
            assert len(seqs) == expected
            assert all(yamanouchi_valid(q, n, lam) for q in seqs)


def test_omega_vector_lowest_k_is_single_basis_element():
    # alpha(lam) collapses onto q = (1^(N-lam) 2^lam) with sign (-1)^lam
    for n, lam in [(2, 1), (4, 1), (4, 2), (5, 2), (7, 3)]:
        vec = omega_vector(n, lam, lam)
        packed = sum(1 << i for i in range(n - lam, n))
        assert set(vec.amplitudes) == {packed}
        assert vec.amplitudes[packed] == pytest.approx((-1.0) ** lam)


def test_omega_vector_symmetric_string():
    vec = omega_vector(2, 2, 0)
    assert vec.amplitudes == {0: 1.0}


def test_omega_vector_unit_norm():
    for n in range(2, 9):
        for lam in range(n // 2 + 1):
            for k in hypothesis_range(n, lam):
                assert omega_vector(n, k, lam).norm() == pytest.approx(1.0, abs=1e-12)


def test_omega_vector_guards():
    with pytest.raises(CapacityError):
        omega_vector(15, 3, 1)
    with pytest.raises(ValueError):
        omega_vector(6, 1, 2)   # k < lam


def test_overlap_examples():
    assert overlap_oracle(4, 1, 1, 1) == pytest.approx(1.0, abs=1e-12)
    assert overlap_oracle(4, 1, 2, 1) == pytest.approx(math.sqrt(1 / 3), abs=1e-12)
    assert overlap_closed(4, 1, 2, 1) == pytest.approx(math.sqrt(1 / 3))
    assert overlap_closed(9, 2, 7, 0) == 1.0


def test_overlap_multiplicativity():
    for n in range(2, 13):
        for lam in range(n // 2 + 1):
            ks = list(hypothesis_range(n, lam))
            for a, b, c in [(x, y, z) for x in ks for y in ks for z in ks if x <= y <= z]:
                lhs = overlap_closed(n, a, b, lam) * overlap_closed(n, b, c, lam)
                assert abs(lhs - overlap_closed(n, a, c, lam)) <= 1e-12


def test_overlap_smallest_k_closed_form():
    for n in range(2, 13):
        for lam in range(1, n // 2 + 1):
            for k in hypothesis_range(n, lam):
                expected = math.sqrt(
                    math.comb(n - k, lam) / (math.comb(n - lam, lam) * math.comb(k, lam))
                )
                assert overlap_oracle(n, k, lam, lam) == pytest.approx(expected, abs=1e-12)
