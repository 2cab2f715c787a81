import math
import tracemalloc

import numpy as np
import pytest

from qedge import (
    CapacityError,
    ScenarioSpec,
    StringParams,
    build_gram_known,
    build_gram_unknown,
    optimal_block,
    scenario_blocks,
    srm_block,
    success_curve,
    total_success,
)
from qedge import discrimination, gram, linalg
from qedge.linalg import psd_sqrt, solve_discrimination_sdp


def helstrom_two_mixed(eta1, rho1, eta2, rho2):
    """Closed-form optimum for two hypotheses: 1/2 + ||eta1 rho1 - eta2 rho2||_1 / 2."""
    diff = eta1 * rho1 - eta2 * rho2
    return 0.5 + 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum()


def test_srm_block_examples():
    assert srm_block(build_gram_unknown(2, 2, 1)) == pytest.approx(1 / 8, abs=1e-14)
    assert srm_block(build_gram_unknown(2, 2, 0)) == pytest.approx(25 / 56, abs=1e-12)


def test_srm_total_n2():
    res = total_success(ScenarioSpec("unknown", StringParams(2, 2), "srm"))
    assert res.total == pytest.approx(4 / 7, abs=1e-12)
    assert res.certificates is None


def test_optimal_block_degenerate_shortcut():
    for g, expected in [
        (build_gram_unknown(2, 2, 0), 0.5),     # identical states, priors (3/8, 1/2)
        (build_gram_known(6, 2, 6), 1 / 12),    # ntilde0 = N: identical states, largest prior at k = 1
        (build_gram_unknown(6, 2, 3), 1 / 96),  # order 1: the single hypothesis k = 3
    ]:
        assert g.rank_one
        val, sol = optimal_block(g)
        assert val == pytest.approx(expected, rel=1e-14)
        assert sol.iterations == 0 and sol.gap == 0.0 and sol.status == "converged"
        assert sol.primal_value == sol.dual_value == val
        k_star = int(np.argmax(g.priors))
        assert np.array_equal(sol.primal[k_star], np.eye(g.order))


def test_optimal_total_n2_matches_helstrom_oracle():
    # independent 4x4 oracle: rho_1 = I (x) I / 4, rho_2 = Pi_sym / 3, priors 1/2
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * i + j, 2 * j + i] = 1.0
    pi_sym = 0.5 * (np.eye(4) + swap)
    expected = helstrom_two_mixed(0.5, np.eye(4) / 4, 0.5, pi_sym / 3)
    assert expected == pytest.approx(0.625, abs=1e-14)
    res = total_success(ScenarioSpec("unknown", StringParams(2, 2), "sdp"))
    assert res.total == pytest.approx(expected, abs=1e-8)


def test_two_state_block_matches_helstrom():
    # known-unknown N=2, n1=1 block: two pure states, overlap 1/sqrt(2), priors 1/4, 1/6
    g = build_gram_known(2, 2, 1)
    val, sol = optimal_block(g)
    p1, p2 = 1 / 4, 1 / 6
    c = 1 / math.sqrt(2)
    mass = p1 + p2
    expected = mass * 0.5 * (1 + math.sqrt(1 - 4 * (p1 / mass) * (p2 / mass) * c * c))
    assert val == pytest.approx(expected, abs=1e-8)
    assert sol.gap <= 1e-8


def test_total_is_sum_of_blocks_and_bounded():
    for scenario in ("unknown", "known"):
        for n, d in [(2, 2), (5, 3), (9, 2)]:
            res = total_success(ScenarioSpec(scenario, StringParams(n, d), "srm"))
            assert res.total == pytest.approx(sum(res.per_block.values()), abs=1e-10)
            assert 1 / n <= res.total <= 1.0


def test_block_values_within_prior_mass():
    for scenario in ("unknown", "known"):
        pairs = scenario_blocks(scenario, StringParams(8, 2))
        res = total_success(ScenarioSpec(scenario, StringParams(8, 2), "sdp"))
        for label, g in pairs:
            mass = g.priors.sum()
            assert -1e-12 <= res.per_block[label] <= mass + 1e-10


def test_sdp_at_least_srm_per_block():
    for n in (4, 9, 14):
        for label, g in scenario_blocks("unknown", StringParams(n, 2)):
            val, _ = optimal_block(g)
            assert val >= srm_block(g) - 1e-9


def test_optimal_at_least_srm_on_known_blocks():
    # no SRM floor guards the optimal values; the SRM is feasible, so the optimum is above it
    for n in range(2, 41):
        sdp = total_success(ScenarioSpec("known", StringParams(n, 2), "sdp")).per_block
        srm = total_success(ScenarioSpec("known", StringParams(n, 2), "srm")).per_block
        for label, val in sdp.items():
            assert val >= srm[label] - 1e-12, (n, label)


def test_known_block_left_at_barrier_cap_converges():
    # known N = 40, n1 = 1: the barrier method stopped at its 200-step cap here
    # with value 0.033737770748603756 and a gap of 8.0e-9
    val, sol = optimal_block(build_gram_known(40, 2, 39))
    assert sol.status == "converged"
    assert 0.0 <= sol.gap <= 1e-8
    assert val >= 0.033737770748603756


def test_known_qutrit_block_closes_its_certificate():
    # known d = 3, N = 56, ntilde0 = 55: the barrier method stopped with gap 6.0e-6
    val, sol = optimal_block(build_gram_known(56, 3, 55))
    assert sol.status == "converged"
    assert 0.0 <= sol.gap <= 1e-8
    assert sol.dual_value >= val


def test_known_blocks_labeled_by_n1_for_qubits():
    pairs = scenario_blocks("known", StringParams(4, 2))
    assert sorted(label for label, _ in pairs) == list(range(5))
    pairs3 = scenario_blocks("known", StringParams(4, 3))
    assert sorted(label for label, _ in pairs3) == list(range(5))  # ntilde0 labels


def test_known_total_n2_values():
    srm = total_success(ScenarioSpec("known", StringParams(2, 2), "srm"))
    sdp = total_success(ScenarioSpec("known", StringParams(2, 2), "sdp"))
    # blocks: n1=0 identical states (max prior 1/4), n1=1 Helstrom pair with
    # priors (1/4, 1/6) and overlap 1/sqrt(2), n1=2 single hypothesis (1/6)
    expected_sdp = (15 + math.sqrt(13)) / 24
    assert sdp.total == pytest.approx(expected_sdp, abs=1e-8)
    assert srm.total <= sdp.total + 1e-9
    assert srm.total == pytest.approx(0.7409272, abs=1e-6)


def test_capacity_guards():
    with pytest.raises(CapacityError):
        total_success(ScenarioSpec("unknown", StringParams(65, 2), "sdp"))
    with pytest.raises(CapacityError):
        total_success(ScenarioSpec("unknown", StringParams(1001, 2), "srm"))


def test_scenario_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec("both", StringParams(2, 2), "srm")
    with pytest.raises(ValueError):
        ScenarioSpec("unknown", StringParams(2, 2), "brute")


def test_success_curve_rows_and_error_capture():
    rows = success_curve("unknown", 2, [2, 4], "srm")
    assert [r.N for r in rows] == [2, 4]
    assert all(r.status == "ok" for r in rows)
    assert rows[0].p_success == pytest.approx(4 / 7, abs=1e-12)
    # capacity violation must be recorded, not raised
    rows = success_curve("unknown", 2, [2, 70], "sdp")
    assert rows[0].status == "ok"
    assert rows[1].status.startswith("error:")
    with pytest.raises(ValueError):
        success_curve("unknown", 2, [4, 2], "srm")
    # a gap_tol outside (0, inf) is rejected before any row, not recorded per row
    for gap_tol in (0.0, math.inf):
        with pytest.raises(ValueError, match="gap_tol"):
            success_curve("unknown", 2, [2, 4], "sdp", gap_tol=gap_tol)


def test_known_curve_dominates_unknown():
    for method in ("srm", "sdp"):
        for n in (2, 6, 12):
            unk = total_success(ScenarioSpec("unknown", StringParams(n, 2), method)).total
            kno = total_success(ScenarioSpec("known", StringParams(n, 2), method)).total
            assert kno >= unk - 1e-9


def test_known_sdp_certificates_converge():
    res = total_success(ScenarioSpec("known", StringParams(14, 2), "sdp"))
    assert all(sol.status == "converged" for sol in res.certificates.values())
    assert all(sol.gap <= 1e-8 for sol in res.certificates.values())


def test_sdp_total_at_capacity():
    n = discrimination.SDP_MAX_PARTICLES
    res = total_success(ScenarioSpec("unknown", StringParams(n, 2), "sdp"))
    assert 0.6 < res.total < 0.65


def test_total_success_rejects_gap_tol_before_any_block(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("generators built despite a bad gap_tol")

    monkeypatch.setattr(discrimination, "log_generators", no_blocks)
    with pytest.raises(ValueError, match="gap_tol"):
        total_success(ScenarioSpec("unknown", StringParams(4, 2), "sdp"), gap_tol=math.inf)


def test_failed_block_solve_raises_and_marks_its_row(monkeypatch):
    # the reweighting guard: a block still moving after the last kernel pass
    monkeypatch.setattr(discrimination, "_MAX_PASSES", 1)
    g = build_gram_unknown(4, 2, 1)
    assert not g.rank_one
    with pytest.raises(RuntimeError, match=r"SDP failed on block .*lam=1.*did not converge in 1 kernel"):
        optimal_block(g)
    (row,) = success_curve("unknown", 2, [4], "sdp")
    assert row.status == "error:RuntimeError"
    assert math.isnan(row.p_success)


@pytest.mark.parametrize("scenario, d, n", [("known", 8, 48), ("known", 10, 64), ("unknown", 20, 64)])
def test_moderate_d_optimal_totals_converge(scenario, d, n):
    # the dense reweighting Newton raised here: the Cholesky factor of its dual did not exist
    (row,) = success_curve(scenario, d, [n], "sdp")
    (srm,) = success_curve(scenario, d, [n], "srm")
    assert row.status == "ok" and 0.0 <= row.gap <= 1e-8
    assert row.p_success >= srm.p_success - 1e-12


def test_optimal_gaps_close_to_rounding():
    for scenario, n in [("unknown", 54), ("known", 40)]:
        res = total_success(ScenarioSpec(scenario, StringParams(n, 2), "sdp"))
        assert all(0.0 <= sol.gap <= 1e-12 for sol in res.certificates.values())


def test_dense_certificate_built_on_read(monkeypatch):
    built = []
    build = discrimination._reweighted_certificate

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(discrimination, "_reweighted_certificate", counted)
    res = total_success(ScenarioSpec("known", StringParams(12, 2), "sdp"))
    assert built == []
    label = 4
    sol = res.certificates[label]
    primal, dual = sol.primal, sol.dual
    assert len(built) == 1   # one build serves both
    g = build_gram_known(12, 2, 12 - label)
    root = psd_sqrt(g.dense)   # its columns are the states
    value = sum(root[:, k] @ e @ root[:, k] for k, e in enumerate(primal))
    assert np.abs(sum(primal) - np.eye(g.order)).max() <= 1e-13
    assert value == pytest.approx(sol.primal_value, rel=1e-13)
    assert np.trace(dual) == pytest.approx(sol.dual_value, rel=1e-13)
    assert all(np.linalg.eigvalsh(dual - np.outer(c, c)).min() >= -1e-15 for c in root.T)


def test_sdp_totals_build_no_dense_matrix(monkeypatch):
    # each total holds a rank-one block; its values and its certificate come from log eta
    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(gram, "dense_gram", refuse)
    monkeypatch.setattr(linalg, "dense_gram", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    cases = [("unknown", 12, 2, 0), ("known", 12, 2, 0), ("known", 8, 3, 8)]
    solutions = [total_success(ScenarioSpec(scenario, StringParams(n, d), "sdp")).certificates[label]
                 for scenario, n, d, label in cases]
    duals = [sol.dual for sol in solutions]
    monkeypatch.undo()
    for (scenario, n, d, label), sol, dual in zip(cases, solutions, duals):
        g = dict(scenario_blocks(scenario, StringParams(n, d)))[label]
        assert g.rank_one and g.order > 1
        top = np.linalg.eigh(g.dense)[1][:, -1]
        assert np.abs(dual - sol.primal_value * np.outer(top, top)).max() <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 50])
@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_rank_one_closed_form_matches_dense_solve(n, d):
    def guess(sol):
        return [k for k, e in enumerate(sol.primal) if e.any()]

    for scenario in ("unknown", "known"):
        for _, g in scenario_blocks(scenario, StringParams(n, d)):
            if g.rank_one:
                value, sol = optimal_block(g)
                dense = solve_discrimination_sdp(g.dense)
                assert value == pytest.approx(dense.primal_value, rel=1e-14)
                k_star = guess(sol)
                assert len(k_star) == 1 and guess(dense) == k_star
                assert np.abs(sol.dual - dense.dual).max() <= 1e-15


def test_sdp_total_traced_peak():
    # the flat reweighting state peaks at 1.05 MB; padded to blocks x largest order, at 1.46 MB
    spec = ScenarioSpec("known", StringParams(64, 2), "sdp")
    total_success(spec)   # the kernel's rules are cached outside the traced call
    tracemalloc.start()
    try:
        total_success(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2 ** 20
