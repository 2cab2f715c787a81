import dataclasses
import json
import os
import subprocess
import sys

import pytest

from qedge import DegeneratePadeError, build_gram_unknown, cli, discrimination, rescale_gram, verify
from qedge.cli import main, parse_n_spec
from qedge.cli import _UsageError


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qedge.cli", *args],
        capture_output=True, text=True, **kwargs
    )


def test_parse_n_spec_grid():
    grid = parse_n_spec("2:18:2,22:198:4")
    assert len(grid) == 54
    assert grid[0] == 2 and grid[-1] == 198
    assert parse_n_spec("5") == [5]
    assert parse_n_spec("3:6") == [3, 4, 5, 6]


def test_parse_n_spec_rejects_garbage():
    for bad in ("", "a:b", "4:2", "2:8:0", "1:2:3:4", "0"):
        with pytest.raises(_UsageError):
            parse_n_spec(bad)


def test_curve_csv_schema(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = main(["curve", "--scenario", "unknown", "--d", "2", "--method", "srm",
                 "--n", "2:6:2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "N,d,scenario,method,p_success,gap,status"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2" and first[2] == "unknown" and first[6] == "ok"
    assert float(first[4]) == pytest.approx(4 / 7, abs=1e-11)


def test_curve_sdp_anchor(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["curve", "--scenario", "unknown", "--d", "2", "--method", "sdp",
                 "--n", "2", "--out", str(out)])
    assert code == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[4]) == pytest.approx(0.625, abs=1e-8)
    assert float(row[5]) >= -1e-9


def test_curve_deterministic_output(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        main(["curve", "--d", "2", "--method", "srm", "--n", "2:10:2",
              "--out", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_curve_emitted_values_in_range(tmp_path):
    out = tmp_path / "c.csv"
    main(["curve", "--d", "3", "--method", "srm", "--n", "2:8:2", "--out", str(out)])
    for line in out.read_text().strip().split("\n")[1:]:
        parts = line.split(",")
        assert 0.0 <= float(parts[4]) <= 1.0
        assert float(parts[5]) >= -1e-9


def test_curve_partial_failure_exit_code(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["curve", "--d", "2", "--method", "sdp", "--n", "2,70",
                 "--out", str(out)])
    assert code == 2
    lines = out.read_text().strip().split("\n")
    assert lines[1].endswith("ok")
    assert "error:" in lines[2]


def test_curve_json_format(tmp_path):
    out = tmp_path / "c.json"
    code = main(["curve", "--d", "2", "--method", "srm", "--n", "2:4:2",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["config"]) == {"command", "scenario", "d", "n_values", "method",
                                  "gap_tol", "format", "deterministic", "version"}
    assert doc["config"]["deterministic"] is True
    assert doc["config"]["n_values"] == [2, 4]
    assert doc["config"]["method"] == "srm"
    assert [r["N"] for r in doc["rows"]] == [2, 4]


def test_curve_row_status_follows_block_certificates(monkeypatch, capsys):
    # known N = 40 holds the block n1 = 1 that the barrier method left at its
    # iteration cap; every block of it now converges
    proc = run_cli(["curve", "--scenario", "known", "--method", "sdp", "--n", "40",
                    "--format", "json"])
    assert proc.returncode == 0
    (row,) = json.loads(proc.stdout)["rows"]
    assert row["status"] == "ok"

    # one block certificate that did not converge (unknown N = 4, lam = 1,
    # order 3) marks its row and the exit code
    solve = discrimination._optimal_solutions

    def cap_order_three(orders, *args):
        return [dataclasses.replace(sol, status="maxIterations", iterations=200) if order == 3 else sol
                for order, sol in zip(orders, solve(orders, *args))]

    monkeypatch.setattr(discrimination, "_optimal_solutions", cap_order_three)
    assert main(["curve", "--method", "sdp", "--n", "2,4", "--format", "json"]) == 2
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["N"], r["status"]) for r in rows] == [(2, "ok"), (4, "maxIterations")]
    assert rows[1]["iterations"] == 200


def test_curve_verbose_line(capsys):
    assert main(["curve", "--method", "sdp", "--n", "2,4", "--verbose", "--format", "json"]) == 0
    captured = capsys.readouterr()
    row = json.loads(captured.out)["rows"][1]
    assert row["iterations"] > 0   # N = 4 holds a reweighted block; N = 2 only rank-one blocks
    assert captured.err.splitlines() == [
        "# N=2 p=0.625 gap=0 passes=0 ok",
        f"# N=4 p={row['p_success']:.12g} gap={row['gap']:.3g} passes={row['iterations']} ok",
    ]


def test_usage_errors_exit_one(capsys):
    assert main(["curve", "--d", "2", "--n", ""]) == 1
    assert main(["curve", "--d", "2", "--n", "oops"]) == 1
    assert main(["curve", "--n", "2", "--threads", "2"]) == 1   # sweeps are serial
    assert main(["asymptote", "--d", "2", "--verbose"]) == 1    # it has nothing to log


@pytest.mark.parametrize("tol", ["0", "-0.5", "inf", "nan"])
def test_gap_tol_out_of_range_is_usage_error(tol, capsys):
    assert main(["curve", "--n", "6", "--method", "sdp", "--gap-tol", tol]) == 1
    assert "gap tolerance must be positive and finite" in capsys.readouterr().err


def test_gap_tol_accepted(tmp_path):
    out = tmp_path / "c.json"
    assert main(["curve", "--n", "6", "--method", "sdp", "--gap-tol", "1e-6",
                 "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["gap_tol"] == 1e-6
    assert doc["rows"] and all(row["status"] == "ok" for row in doc["rows"])


@pytest.mark.parametrize("command", [
    ["curve", "--n", "4"],
    ["asymptote"],
    ["gram-dump", "--n", "4", "--block", "1"],
])
def test_dimension_below_two_is_usage_error(command, capsys):
    assert main([*command, "--d", "1"]) == 1
    assert "d must be >= 2" in capsys.readouterr().err


def test_asymptote_report(tmp_path):
    out = tmp_path / "r.json"
    code = main(["asymptote", "--d", "2", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["p0_known"] == pytest.approx(0.64991, abs=1e-5)
    assert doc["p0_pade_integral"] == pytest.approx(0.6499, abs=2e-4)
    assert doc["large_d"] == 0.75
    assert doc["error_estimates"]["cross_route_half_spread"] <= 3e-4


def test_asymptote_with_coefficient_estimates(tmp_path):
    out = tmp_path / "r.json"
    code = main(["asymptote", "--d", "2", "--estimate-coeffs", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    ests = doc["coefficient_estimates"]
    assert [e["r"] for e in ests] == [1, 2, 3]
    assert abs(ests[0]["value"] - 2.0) < 0.02


def test_asymptote_untabulated_d(tmp_path):
    out = tmp_path / "r.json"
    code = main(["asymptote", "--d", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["p0_pade_integral"] is None
    assert doc["p0_pade_primitive"] is None
    assert doc["p0_known"] == pytest.approx(p0_known_5(), abs=1e-6)
    assert "reason" in doc


def test_asymptote_defective_pade_reason(tmp_path, monkeypatch):
    def exhausted(d):
        raise DegeneratePadeError(f"all d={d} diagonal Pade orders defective")

    monkeypatch.setattr(cli, "p0_via_integral", exhausted)
    out = tmp_path / "r.json"
    assert main(["asymptote", "--d", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["p0_pade_integral"] is None and doc["error_estimates"] is None
    assert doc["reason"] == "all d=2 diagonal Pade orders defective"


def p0_known_5():
    from qedge import p0_known

    return p0_known(5)


def test_gram_dump(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code = main(["gram-dump", "--scenario", "unknown", "--d", "2", "--n", "4",
                 "--block", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,1,2,3"
    assert main(["gram-dump", "--n", "4", "--block", "1", "--rescaled", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    g = rescale_gram(build_gram_unknown(4, 2, 1))
    assert [float(x) for x in row[1:]] == pytest.approx(list(g.dense[0]), rel=1e-11)
    # the rescaling is defined for unknown-unknown blocks only
    assert main(["gram-dump", "--scenario", "known", "--n", "4", "--block", "2",
                 "--rescaled"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown-unknown blocks only" in captured.err


def test_verify_oracle_suite(capsys):
    assert main(["verify", "oracle"]) == 0
    assert capsys.readouterr().out == "oracle: 944 passed, 0 failed [ok]\n"


def test_verify_all_runs_every_suite(monkeypatch, capsys):
    counts = {"oracle": 3, "tridiag": 2, "holevo": 1}
    monkeypatch.setattr(verify, "SUITES", {
        name: lambda n=n: verify.SuiteResult(n, 0, "") for name, n in counts.items()
    })
    assert main(["verify", "all"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "oracle: 3 passed, 0 failed [ok]",
        "tridiag: 2 passed, 0 failed [ok]",
        "holevo: 1 passed, 0 failed [ok]",
    ]


def test_verify_failure_exits_three(monkeypatch, capsys):
    monkeypatch.setitem(
        verify.SUITES, "oracle", lambda: verify.SuiteResult(3, 1, "N=4 lam=1 synthetic")
    )
    assert main(["verify", "oracle"]) == 3
    out = capsys.readouterr().out
    assert out.splitlines() == ["oracle: 3 passed, 1 failed [FAILED]",
                                "  first counterexample: N=4 lam=1 synthetic"]


def test_cli_subprocess_entry():
    proc = run_cli(["curve", "--d", "2", "--method", "srm", "--n", "2"])
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "N,d,scenario,method,p_success,gap,status"


# Reads the bundled OpenBLAS thread counts before and after one CLI run.
_THREADS_AROUND_MAIN = """
import json, sys
from qedge import cli
def threads():
    return [get_threads() for _, get_threads in cli._openblas_thread_controls()]
before = threads()
cli.main(["gram-dump", "--n", "2", "--block", "0", "--out", sys.argv[1]])
print(json.dumps([before, threads()]))
"""


def _threads_around_main(tmp_path, **env):
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", _THREADS_AROUND_MAIN, str(tmp_path / "gram.csv")],
        capture_output=True, text=True, check=True, env={**base, **env},
    )
    return json.loads(proc.stdout)


def test_cli_pins_openblas_to_one_thread(tmp_path):
    before, after = _threads_around_main(tmp_path)
    if not before:
        pytest.skip("numpy and scipy carry no bundled OpenBLAS here")
    assert after == [1] * len(before)


def test_cli_keeps_user_openblas_threads(tmp_path):
    before, after = _threads_around_main(tmp_path, OPENBLAS_NUM_THREADS="2")
    assert after == before
