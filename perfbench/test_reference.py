"""The checker accepts the library's outputs and rejects corrupted ones.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

import os
import random
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

import qedge  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402


def _total(scenario, n, d, method):
    return qedge.total_success(qedge.ScenarioSpec(scenario, qedge.StringParams(n, d), method))


@pytest.mark.parametrize("scenario,d", [("unknown", 2), ("known", 2), ("unknown", 3), ("known", 3)])
def test_reference_gram_matches_library(scenario, d):
    n = 9
    for label, g in qedge.scenario_blocks(scenario, qedge.StringParams(n, d)):
        np.testing.assert_allclose(ref.gram(scenario, n, d, label), g.dense, rtol=1e-12, atol=0)
    assert ref.check_traces(scenario, n, d) == []


def test_srm_total_rejected_when_corrupted():
    total = _total("known", 30, 2, "srm").total
    assert ref.check_srm_total("known", 30, 2, total) == []
    assert ref.check_srm_total("known", 30, 2, total + 1e-9) != []


def test_srm_block_rejected_when_corrupted():
    res = _total("unknown", 40, 3, "srm")
    labels = ref.labels("unknown", 40, 3)
    assert ref.check_srm_blocks("unknown", 40, 3, res.per_block, res.total, labels) == []
    bad = dict(res.per_block)
    bad[5] *= 1 + 1e-8
    assert ref.check_srm_blocks("unknown", 40, 3, bad, res.total, labels) != []
    # a total that no longer equals its blocks' sum, with no block sampled
    assert ref.check_srm_blocks("unknown", 40, 3, res.per_block, res.total + 1e-9, []) != []


def test_srm_curve_rejected_when_decreasing_or_above_limit():
    assert ref.check_srm_curve([8, 10, 12], [0.60, 0.61, 0.62]) == []
    assert ref.check_srm_curve([8, 10, 12], [0.60, 0.59, 0.62]) != []
    assert ref.check_srm_curve([8, 10, 12], [0.60, 0.61, 0.65]) != []


def test_certificate_rejected_when_dual_scaled_below_feasibility():
    res = _total("unknown", 12, 2, "sdp")
    for lab, sol in res.certificates.items():
        g = ref.gram("unknown", 12, 2, lab)
        assert ref.check_certificate(g, sol.primal, sol.dual, res.per_block[lab], 1e-8) == []
    lab = 3
    sol = res.certificates[lab]
    g = ref.gram("unknown", 12, 2, lab)
    problems = ref.check_certificate(g, sol.primal, (1 - 1e-6) * sol.dual, res.per_block[lab], 1e-8)
    assert any("Y - rho_k" in p for p in problems)


def test_certificate_rejected_when_value_or_povm_corrupted():
    res = _total("known", 8, 2, "sdp")
    lab = 3
    sol = res.certificates[lab]
    g = ref.gram("known", 8, 2, lab)
    assert ref.check_certificate(g, sol.primal, sol.dual, res.per_block[lab] + 1e-9, 1e-8) != []
    primal = [e.copy() for e in sol.primal]
    primal[0] = primal[0] + 1e-6 * np.eye(g.shape[0])
    assert any("sum E_k" in p for p in ref.check_certificate(g, primal, sol.dual, res.per_block[lab], 1e-8))


def test_sdp_grid_check_counts_unconverged_total_as_failed():
    """A total whose certificate reports a status other than converged fails, but
    stays correct when every check on it passes."""
    res = _total("unknown", 6, 2, "sdp")
    out = workloads.check_sdp_grid([(("unknown", 6), res)], random.Random(0))
    assert (out.failed, out.problems) == (0, [])
    sol = res.certificates[1]
    sol.status = "maxIterations"
    out = workloads.check_sdp_grid([(("unknown", 6), res)], random.Random(0))
    assert (out.failed, out.problems) == (1, [])
