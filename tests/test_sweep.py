"""`success_curve` runs consecutive N as one kernel stream; its rows must be the per-N rows.

Per-N rows come from `total_success`, one total at a time.  A batch shares one rule over
its blocks' spectra, so batched values match per-N values to the rule's error level, and a
row that fails fails alone: a batch whose kernel call raises runs again one N at a time.
"""

import math

import pytest

from qedge import ScenarioSpec, StringParams, discrimination, success_curve, total_success

FIG1_N = list(range(2, 19, 2)) + list(range(22, 199, 4))


def per_n_row(scenario, d, n, method):
    """(status, total, worst gap, largest pass count) of one total computed alone."""
    try:
        res = total_success(ScenarioSpec(scenario, StringParams(n, d), method))
    except Exception as exc:
        return f"error:{type(exc).__name__}", math.nan, math.nan, 0
    sols = (res.certificates or {}).values()
    worst = max((sol.status for sol in sols), key=discrimination._STATUS_RANK.index, default="converged")
    return ("ok" if worst == "converged" else worst, res.total, max((sol.gap for sol in sols), default=0.0),
            max((sol.iterations for sol in sols), default=0))


@pytest.fixture
def batches(monkeypatch):
    """The N of each `_totals` call, in call order."""
    calls = []
    totals = discrimination._totals

    def recorded(specs, gap_tol):
        calls.append([spec.params.N for spec in specs])
        return totals(specs, gap_tol)

    monkeypatch.setattr(discrimination, "_totals", recorded)
    return calls


def assert_rows_equal_per_n(rows, scenario, d, method):
    for row in rows:
        status, total, _, iterations = per_n_row(scenario, d, row.N, method)
        assert row.status == status, row
        if status.startswith("error:"):
            assert math.isnan(row.p_success) and math.isnan(row.gap)
        else:
            assert row.p_success == total and row.iterations == iterations, row


def test_range_error_fails_only_its_row(batches):
    # known d = 1230: N = 100 leaves the float64 range (b_k^2 up to exp(353.7)), N = 60 and 80 do not
    rows = success_curve("known", 1230, [60, 80, 100], "srm")
    assert batches == [[60, 80, 100], [60], [80], [100]]
    assert [row.status for row in rows] == ["ok", "ok", "error:ValueError"]
    assert_rows_equal_per_n(rows, "known", 1230, "srm")
    # known d = 200: N = 400 leaves it from d = 173, N = 100 does not
    rows = success_curve("known", 200, [100, 400], "srm")
    assert [row.status for row in rows] == ["ok", "error:ValueError"]
    assert_rows_equal_per_n(rows, "known", 200, "srm")


def test_sdp_sweep_records_spec_and_capacity_rows_before_batching(batches):
    rows = success_curve("unknown", 2, [0, 2, 4, 6, 70], "sdp")
    assert batches == [[2, 4, 6]]   # N = 0 fails its StringParams, N = 70 the SDP cap
    assert [row.status for row in rows] == ["error:ValueError", "ok", "ok", "ok", "error:CapacityError"]
    for row in rows[1:4]:
        status, total, _, iterations = per_n_row("unknown", 2, row.N, "sdp")
        assert row.status == status
        assert row.p_success == pytest.approx(total, rel=1e-13, abs=0)
        assert abs(row.iterations - iterations) <= 1


def test_reweighting_failure_fails_only_its_rows(monkeypatch, batches):
    # the reweighting guard: blocks still moving after the last kernel pass.  N = 2 holds
    # rank-one blocks only, which take the closed form and need no pass
    monkeypatch.setattr(discrimination, "_MAX_PASSES", 1)
    rows = success_curve("unknown", 2, [2, 4, 6], "sdp")
    assert batches == [[2, 4, 6], [2], [4], [6]]
    assert [row.status for row in rows] == ["ok", "error:RuntimeError", "error:RuntimeError"]
    assert_rows_equal_per_n(rows, "unknown", 2, "sdp")


@pytest.mark.parametrize("scenario", ["unknown", "known"])
def test_batched_srm_curve_matches_per_n_totals(scenario, batches):
    n_values = FIG1_N[::3]
    rows = success_curve(scenario, 2, n_values, "srm")
    assert len(batches) < len(n_values)
    for row in rows:
        status, total, _, _ = per_n_row(scenario, 2, row.N, "srm")
        assert row.status == status == "ok"
        assert abs(row.p_success - total) <= 1e-14 * total, row


@pytest.mark.parametrize("scenario, n_values", [("unknown", [n for n in FIG1_N if n <= 54][::2]),
                                                ("known", list(range(4, 41, 8)))])
def test_batched_sdp_curve_matches_per_n_totals(scenario, n_values, batches):
    rows = success_curve(scenario, 2, n_values, "sdp")
    assert batches == [n_values]
    for row in rows:
        status, total, _, iterations = per_n_row(scenario, 2, row.N, "sdp")
        assert row.status == status == "ok"
        assert 0.0 <= row.gap <= 1e-12
        assert abs(row.iterations - iterations) <= 1, row
        assert row.p_success == pytest.approx(total, rel=1e-13, abs=0)


def test_totals_independent_of_chunk_width(monkeypatch):
    # 2^15 and 2^17 floats of pivots per chunk group the blocks into different chunks
    specs = [ScenarioSpec("known", StringParams(400, 2), "srm"),
             ScenarioSpec("unknown", StringParams(400, 2), "srm"),
             ScenarioSpec("known", StringParams(64, 2), "sdp")]
    chunks, totals = {}, {}
    root_diagonal = discrimination._root_diagonal

    def counted(*args):
        chunks[width] += 1
        return root_diagonal(*args)

    monkeypatch.setattr(discrimination, "_root_diagonal", counted)
    for width in (1 << 15, 1 << 17):
        monkeypatch.setattr(discrimination, "_CHUNK_FLOATS", width)
        chunks[width] = 0
        totals[width] = [total_success(spec).total for spec in specs]
    assert chunks[1 << 15] > chunks[1 << 17]
    assert totals[1 << 15] == totals[1 << 17]
