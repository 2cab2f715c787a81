"""Each suite of qedge.verify fails, and names the item, when one input is corrupted."""

import dataclasses

from qedge import verify


def test_oracle_catches_one_wrong_overlap(monkeypatch):
    closed = verify.overlap_closed

    def corrupted(n, k, k2, lam):
        value = closed(n, k, k2, lam)
        return value + 1e-9 if (n, k, k2, lam) == (7, 2, 5, 1) else value

    monkeypatch.setattr(verify, "overlap_closed", corrupted)
    res = verify.oracle()
    assert (res.passed, res.failed) == (943, 1)
    assert res.first.startswith("N=7 lam=1 k=2 k'=5:")


def test_tridiag_catches_one_wrong_reference(monkeypatch):
    reference = verify.tridiag_inverse_reference

    def corrupted(n, d, j):
        diag, sup = reference(n, d, j)
        return (diag * (1 + 1e-6), sup) if (n, d, j) == (31, 3, 10.5) else (diag, sup)

    monkeypatch.setattr(verify, "tridiag_inverse_reference", corrupted)
    res = verify.tridiag()
    assert (res.passed, res.failed) == (157, 1)
    assert res.first.startswith("N=31 d=3 lam=5:")


def test_holevo_catches_one_shrunk_dual(monkeypatch):
    total_success = verify.total_success

    def corrupted(spec):
        res = total_success(spec)
        if spec.params.N == 12:
            sol = res.certificates[3]
            res.certificates[3] = dataclasses.replace(sol, dual=0.999 * sol.dual)
        return res

    monkeypatch.setattr(verify, "total_success", corrupted)
    res = verify.holevo()
    assert (res.passed, res.failed) == (253, 1)
    assert res.first.startswith("N=12 lam=3:")
