"""Tests for the command-line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import nscost.conic
import nscost.programs
import nscost.symmetry
from nscost.analytic import ClosedForm
from nscost.cli import emit_figure2, run
from nscost.conic import Block, problem_from_json, solve
from nscost.programs import one_shot_cost_ns, zero_error_costs
from nscost.qmat import make_channel
from nscost.symmetry import (
    depolarizing_cost_lp,
    depolarizing_mutual_info,
    depolarizing_sweep,
)


def _kv(line):
    return dict(token.split("=", 1) for token in line.split())


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_cost_reference_point(capsys):
    code = run(["cost", "--family", "depolarizing", "--d", "2", "--p", "0.15",
                "--eps", "0"])
    assert code == 0
    out = _kv(capsys.readouterr().out.strip())
    assert abs(float(out["tr_v"]) - 3.55) <= 1e-5
    assert float(out["cost_bits"]) == 1.0
    assert out["m_star"] == "2"
    half = math.log2(3.55) / 2.0
    assert abs(float(out["half_log_trv"]) - half) <= 1e-5
    assert abs(float(out["delta"]) - (1.0 - half)) <= 1e-5


def test_cost_ppt_code(capsys):
    code = run(["cost", "--family", "depolarizing", "--p", "0.15", "--eps", "0",
                "--code", "ns-ppt"])
    assert code == 0
    out = _kv(capsys.readouterr().out.strip())
    assert out["m_star"] == "2"
    assert float(out["tr_v"]) == 4.0
    assert float(out["delta"]) == 0.0


def test_zero_error_subcommand(capsys):
    code = run(["zero-error", "--family", "depolarizing", "--p", "0.3"])
    assert code == 0
    out = _kv(capsys.readouterr().out.strip())
    assert abs(float(out["tr_v"]) - 3.1) <= 1e-5


def test_diamond_subcommand(capsys):
    assert run(["diamond", "--a", "identity", "--b", "identity", "--d", "2"]) == 0
    first = _kv(capsys.readouterr().out.strip())
    assert abs(float(first["half_diamond_dist"])) <= 1e-6
    assert run(["diamond", "--a", "identity", "--b", "depolarizing",
                "--pb", "0.3"]) == 0
    second = _kv(capsys.readouterr().out.strip())
    assert abs(float(second["half_diamond_dist"]) - 0.225) <= 1e-5


def test_maxinfo_plain_and_smooth(capsys):
    assert run(["maxinfo", "--family", "depolarizing", "--p", "0.15"]) == 0
    plain = float(_kv(capsys.readouterr().out.strip())["i_max"])
    assert abs(plain - math.log2(3.55)) <= 1e-5
    assert run(["maxinfo", "--family", "depolarizing", "--p", "0.15",
                "--eps", "0.05"]) == 0
    smooth = float(_kv(capsys.readouterr().out.strip())["i_max"])
    assert smooth < plain


@pytest.mark.parametrize("argv", [
    ["cost", "--family", "depolarizing", "--d", "1", "--p", "0.3", "--eps", "0.1"],
    ["cost", "--family", "identity", "--d", "1", "--eps", "0.1"],
    ["maxinfo", "--family", "identity", "--d", "1", "--eps", "0.2"],
], ids=["cost-depolarizing", "cost-identity", "maxinfo-identity"])
def test_one_dimensional_channels_cost_nothing(argv, capsys):
    # With d_B = 1 the simulating channel J~ = 1_A / d_B has no parameters;
    # these calls once exited 2 with "constraint 0 has no coefficients".
    assert run(argv) == 0
    out = _kv(capsys.readouterr().out.strip())
    tr_v = float(out["tr_v"]) if "tr_v" in out else 2.0 ** float(out["i_max"])
    assert abs(tr_v - 1.0) <= 1e-6


def test_classical_lp_inline_and_file(tmp_path, capsys):
    assert run(["classical-lp", "--matrix", "0.8,0.2;0.2,0.8", "--eps", "0"]) == 0
    inline = _kv(capsys.readouterr().out.strip())
    assert abs(float(inline["tr_v"]) - 1.6) <= 1e-6
    path = tmp_path / "bsc.json"
    path.write_text(json.dumps({"matrix": [[0.8, 0.2], [0.2, 0.8]]}))
    assert run(["classical-lp", "--matrix", f"@{path}", "--eps", "0"]) == 0
    from_file = _kv(capsys.readouterr().out.strip())
    assert from_file["tr_v"] == inline["tr_v"]
    # A peaked 8 x 8 channel at tight tolerances.
    u = np.random.default_rng([1, 8]).random((8, 8)) ** 3
    rows = (u / u.sum(axis=1, keepdims=True)).tolist()
    matrix = ";".join(",".join(map(repr, row)) for row in rows)
    assert run(["classical-lp", "--matrix", matrix, "--eps", "0.05",
                "--gap-tol", "1e-9", "--feas-tol", "1e-9"]) == 0
    capsys.readouterr()


def test_choi_file_roundtrip(tmp_path, capsys):
    channel = make_channel("depolarizing", d=2, p=0.15)
    path = tmp_path / "depol.json"
    path.write_text(json.dumps({
        "dim_in": 2,
        "dim_out": 2,
        "re": channel.choi.real.tolist(),
        "im": channel.choi.imag.tolist(),
    }))
    assert run(["cost", "--family", f"@{path}", "--eps", "0"]) == 0
    out = _kv(capsys.readouterr().out.strip())
    assert abs(float(out["tr_v"]) - 3.55) <= 1e-5


def test_malformed_choi_file_is_usage_error(tmp_path, capsys):
    bad_tp = tmp_path / "bad.json"
    bad_tp.write_text(json.dumps({
        "dim_in": 2,
        "dim_out": 2,
        "re": (2.0 * np.eye(4)).tolist(),
    }))
    assert run(["cost", "--family", f"@{bad_tp}", "--eps", "0"]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dim_in": 2, "re": [[1.0]]}))
    assert run(["cost", "--family", f"@{missing}", "--eps", "0"]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(["cost", "--family", f"@{garbled}", "--eps", "0"]) == 2
    capsys.readouterr()


def test_usage_errors(capsys):
    assert run(["no-such-subcommand"]) == 2
    assert run(["cost", "--family", "unheard-of", "--p", "0.1"]) == 2
    assert run(["cost", "--family", "depolarizing"]) == 2
    assert run(["cost", "--family", "depolarizing", "--p", "0.1",
                "--eps", "1.5"]) == 2
    assert run(["cost", "--family", "depolarizing", "--p", "0.1",
                "--code", "magic"]) == 2
    # The qubit-only families reject any other dimension.
    assert run(["cost", "--family", "dephasing", "--d", "3", "--p", "0.1"]) == 2
    assert run(["cost", "--family", "amplitude-damping", "--d", "3", "--r", "0.1"]) == 2
    assert "qubit-only, got d = 3" in capsys.readouterr().err
    assert run(["figure2"]) == 2
    assert run(["figure2", "--out", "/tmp/x.csv", "--n-max", "0"]) == 2
    assert run(["figure2", "--out", "/tmp/x.csv", "--jobs", "0"]) == 2
    assert run(["figure3", "--out", "/tmp/x.csv", "--grid", "1"]) == 2
    # An empty tolerance list is no request for the default one.
    assert run(["figure2", "--out", "/tmp/x.csv", "--eps-list", ""]) == 2
    assert "eps_list must name at least one tolerance" in capsys.readouterr().err
    # A tolerance may appear once, also when spelled two ways: rows are keyed
    # by (n, eps).
    assert run(["figure2", "--out", "/tmp/x.csv", "--eps-list", "0.05,5e-2"]) == 2
    assert "eps_list repeats the tolerance 0.05" in capsys.readouterr().err
    # Invalid solver options are usage errors, found before any iteration.
    zero = ["zero-error", "--family", "depolarizing", "--p", "0.1"]
    assert run([*zero, "--gap-tol", "-1"]) == 2
    assert run([*zero, "--gap-tol", "nan"]) == 2
    assert run([*zero, "--feas-tol", "0"]) == 2
    assert run([*zero, "--max-iter", "-1"]) == 2
    # The same at eps = 0, where the classical cost runs no solve.
    classical = ["classical-lp", "--matrix", "0.9,0.1;0.2,0.8", "--eps", "0"]
    assert run([*classical, "--gap-tol", "-1"]) == 2
    assert run([*classical, "--gap-tol", "nan"]) == 2
    assert run([*classical, "--feas-tol", "0"]) == 2
    assert run([*classical, "--max-iter", "-1"]) == 2
    # A non-finite matrix entry is a usage error, with or without a solve.
    for eps in ("0.05", "0"):
        assert run(["classical-lp", "--matrix", "nan,1;0.5,0.5", "--eps", eps]) == 2
        assert "non-finite" in capsys.readouterr().err
    capsys.readouterr()


def test_solver_failure_exit_code(capsys):
    code = run(["cost", "--family", "depolarizing", "--p", "0.15",
                "--max-iter", "1"])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


def test_solver_flags_pass_on_only_when_given(tmp_path, monkeypatch, capsys):
    calls = []
    batches = []  # the number of problems of each solve_many call

    def recorder(solve_):
        def recording_solve(problem, **kw):
            calls.append(kw)
            return solve_(problem, **kw)

        return recording_solve

    def batch_recorder(solve_many_):
        def recording_solve_many(problems, **kw):
            calls.append(kw)
            batches.append(len(problems))
            return solve_many_(problems, **kw)

        return recording_solve_many

    monkeypatch.setattr(nscost.programs, "solve", recorder(nscost.programs.solve))
    monkeypatch.setattr(nscost.symmetry, "solve", recorder(nscost.symmetry.solve))
    monkeypatch.setattr(
        nscost.programs, "solve_many", batch_recorder(nscost.programs.solve_many)
    )
    for argv in (
        ["cost", "--family", "depolarizing", "--p", "0.15"],
        ["classical-lp", "--matrix", "0.9,0.1;0.2,0.8", "--eps", "0.05"],
        ["figure3", "--grid", "2", "--jobs", "1", "--out", str(tmp_path / "f3.csv")],
    ):
        calls.clear()
        assert run(argv) == 0
        assert calls and all(kw == {} for kw in calls), argv
    calls.clear()
    assert run(["cost", "--family", "depolarizing", "--p", "0.15",
                "--gap-tol", "1e-9"]) == 0
    assert calls == [{"gap_tol": 1e-9}]
    # The parser is shared between calls; a flag given once does not stay.
    calls.clear()
    assert run(["cost", "--family", "depolarizing", "--p", "0.15"]) == 0
    assert calls == [{}]
    # figure3 solves each family's grid in one batch, and states and builds
    # its program once (every family's channels are real): four families
    # at d = 2, two at d = 3.
    builds, stated = [], []
    build_ = nscost.conic.HermitianProgram.build
    monkeypatch.setattr(nscost.conic.HermitianProgram, "build",
                        lambda hp: builds.append(hp) or build_(hp))
    program_ = nscost.programs._zero_error_program
    monkeypatch.setattr(nscost.programs, "_zero_error_program",
                        lambda n: stated.append(n) or program_(n))
    for d, families in ((2, 4), (3, 2)):
        batches.clear()
        builds.clear()
        stated.clear()
        assert run(["figure3", "--d", str(d), "--grid", "5", "--jobs", "1",
                    "--out", str(tmp_path / "f3.csv")]) == 0
        assert batches == [5] * families
        assert len(builds) == len(stated) == families
    capsys.readouterr()


def test_usage_error_leaves_the_parser_usable(capsys):
    argv = ["zero-error", "--family", "depolarizing", "--p", "0.2"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(["zero-error", "--p", "0.2", "--no-such-flag"]) == 2
    assert "usage" in capsys.readouterr().err
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_verify_subcommand_ok(capsys):
    assert run(["verify", "--family", "dephasing", "--p", "0.3"]) == 0
    out = _kv(capsys.readouterr().out.strip())
    assert out["verdict"] == "ok"
    assert out["certificate"] == "optimal_confirmed"
    assert run(["verify", "--family", "amplitude-damping", "--r", "0.4"]) == 0
    capsys.readouterr()


def test_verify_subcommand_mismatch(monkeypatch, capsys):
    def shifted(family, param, d=2):
        return ClosedForm(family=family, param=param, d=d, value_bits=0.123)

    monkeypatch.setattr("nscost.cli.closed_form_cost", shifted)
    assert run(["verify", "--family", "dephasing", "--p", "0.3"]) == 1
    assert _kv(capsys.readouterr().out.strip())["verdict"] == "mismatch"


def test_figure2_small_sweep(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert run(["figure2", "--n-max", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(out)
    assert header == ["n", "eps", "cost_total_bits", "cost_per_use",
                      "unceiled_per_use", "qe_asymptote"]
    assert len(rows) == 12
    qe = depolarizing_mutual_info(2, 0.15) / 2.0
    eps_cycle = ["0.0005", "0.005", "0.05"]
    for i, row in enumerate(rows):
        assert int(row[0]) == i // 3 + 1
        assert row[1] == eps_cycle[i % 3]
        per_use = float(row[3])
        unceiled = float(row[4])
        assert per_use >= unceiled - 1e-9
        assert unceiled >= qe - 1e-6
        assert abs(float(row[5]) - qe) <= 1e-6
    for row in rows[:3]:
        direct = one_shot_cost_ns(make_channel("depolarizing", d=2, p=0.15),
                                  float(row[1]))
        assert abs(float(row[2]) - direct.cost_bits) <= 1e-6


def test_figure2_rows_match_lp(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert run(["figure2", "--n-max", "3", "--eps-list", "0.01",
                "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = _read_csv(out)
    for row in rows:
        res = depolarizing_cost_lp(int(row[0]), 2, 0.15, 0.01)
        assert abs(float(row[2]) - res.cost_bits) <= 1e-6
        assert abs(float(row[4]) - res.half_log_trv / int(row[0])) <= 1e-6


def test_figure2_deterministic_across_jobs(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    again = tmp_path / "again.csv"
    assert run(["figure2", "--n-max", "5", "--out", str(serial),
                "--jobs", "1"]) == 0
    assert run(["figure2", "--n-max", "5", "--out", str(pooled),
                "--jobs", "2"]) == 0
    assert run(["figure2", "--n-max", "5", "--out", str(again),
                "--jobs", "1"]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == pooled.read_bytes()
    assert serial.read_bytes() == again.read_bytes()


def test_figure3_deterministic_across_jobs(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    assert run(["figure3", "--grid", "5", "--out", str(serial), "--jobs", "1"]) == 0
    assert run(["figure3", "--grid", "5", "--out", str(pooled), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == pooled.read_bytes()


def test_figure2_failure_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "never.csv"
    # At d = 4 the point n = 270 overflows double precision. The overflow is
    # found over all blocklengths before any table is built, and no row may
    # reach the file.
    code = run(["figure2", "--d", "4", "--n-max", "300", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: log2 tr V can reach 1021.0 bits at these parameters, "
        "beyond double-precision range\n"
    )
    assert not out.exists()
    missing_dir = tmp_path / "no" / "such" / "dir" / "f.csv"
    assert run(["figure2", "--n-max", "1", "--out", str(missing_dir)]) == 2
    assert not missing_dir.exists()
    assert run(["figure2", "--p", "0", "--n-max", "1",
                "--out", str(out)]) == 2
    assert not out.exists()
    capsys.readouterr()


def test_emit_figure2_public_function(tmp_path):
    out = tmp_path / "emit.csv"
    count = emit_figure2(0.15, [5e-2], 3, str(out))
    assert count == 3
    _, rows = _read_csv(out)
    assert [int(row[0]) for row in rows] == [1, 2, 3]
    with pytest.raises(ValueError, match="repeats the tolerance 0.05"):
        emit_figure2(0.15, [5e-2, 0.01, 0.05], 3, str(out))


def _csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _sweep_csv_by_objects(d, p, eps_values, n_max) -> bytes:
    """A depolarizing sweep CSV made from depolarizing_sweep's CostResults
    and csv.writer."""
    qe = f"{depolarizing_mutual_info(d, p) / 2.0:.6f}"
    rows = [
        (n, repr(eps), f"{res.cost_bits:.6f}", f"{res.cost_bits / n:.6f}",
         f"{res.half_log_trv / n:.6f}", qe)
        for n, costs in enumerate(depolarizing_sweep(n_max, d, p, eps_values), 1)
        for eps, res in zip(eps_values, costs)
    ]
    header = ["n", "eps", "cost_total_bits", "cost_per_use", "unceiled_per_use",
              "qe_asymptote"]
    return _csv_writer_bytes(header, rows)


def test_sweep_csv_bytes_match_cost_results(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    eps_values = (0.0, 1e-100, 5e-3, 0.5, 1 - 1e-15, 1.0)
    eps_arg = ",".join(repr(eps) for eps in eps_values)
    for d in (2, 3, 4):
        for p in (0.0, 1e-6, 0.15, 0.5, 1.0):
            if 0.0 < p < 1.0:
                assert run(["figure2", "--d", str(d), "--p", repr(p), "--eps-list",
                            eps_arg, "--n-max", "40", "--out", str(out)]) == 0
                assert out.read_bytes() == _sweep_csv_by_objects(d, p, eps_values, 40)
            for eps in eps_values:
                assert run(["depol-scan", "--d", str(d), "--p", repr(p), "--eps",
                            repr(eps), "--n-max", "12", "--out", str(out)]) == 0
                assert out.read_bytes() == _sweep_csv_by_objects(d, p, (eps,), 12)
    # Several chunks of blocklengths, and log2 tr V far past 53 bits, where m*
    # needs big integers.
    for p in (0.15, 0.999):
        assert run(["figure2", "--p", repr(p), "--n-max", "300", "--out", str(out)]) == 0
        assert out.read_bytes() == _sweep_csv_by_objects(2, p, (5e-4, 5e-3, 5e-2), 300)
    assert max(r.half_log_trv for r in depolarizing_sweep(300, 2, 0.15, (5e-2,))[-1]) > 100
    capsys.readouterr()


def test_figure3_csv_bytes_match_csv_writer(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert run(["figure3", "--grid", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    params = [i / 4 for i in range(5)]
    rows = []
    for family in ("depolarizing", "amplitude_damping", "dephasing", "erasure"):
        key = "r" if family == "amplitude_damping" else "p"
        channels = [make_channel(family, d=2, **{key: x}) for x in params]
        rows += [(family, f"{x:.6f}", f"{c.half_log_trv:.6f}")
                 for x, c in zip(params, zero_error_costs(channels))]
    assert out.read_bytes() == _csv_writer_bytes(["family", "param", "cost_bits"], rows)


def test_figure3_small_grid(tmp_path, capsys):
    out = tmp_path / "fig3.csv"
    assert run(["figure3", "--grid", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = _read_csv(out)
    assert header == ["family", "param", "cost_bits"]
    assert len(rows) == 12
    families = [row[0] for row in rows]
    assert families == (["depolarizing"] * 3 + ["amplitude_damping"] * 3
                        + ["dephasing"] * 3 + ["erasure"] * 3)
    table = {(row[0], row[1]): float(row[2]) for row in rows}
    assert abs(table[("depolarizing", "0.000000")] - 1.0) <= 1e-6
    assert abs(table[("depolarizing", "1.000000")]) <= 1e-6
    assert abs(table[("dephasing", "0.500000")] - 0.5) <= 1e-6
    assert abs(table[("erasure", "0.500000")]
               - table[("depolarizing", "0.500000")]) <= 1e-9


def test_figure3_qutrit_grid(tmp_path, capsys):
    out = tmp_path / "fig3d3.csv"
    assert run(["figure3", "--d", "3", "--grid", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = _read_csv(out)
    assert sorted({row[0] for row in rows}) == ["depolarizing", "erasure"]
    assert len(rows) == 6
    table = {(row[0], row[1]): float(row[2]) for row in rows}
    assert abs(table[("depolarizing", "0.000000")] - math.log2(3)) <= 1e-6


def test_depol_scan_matches_lp(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert run(["depol-scan", "--p", "0.15", "--eps", "0.05", "--n-max", "3",
                "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = _read_csv(out)
    assert len(rows) == 3
    for row in rows:
        res = depolarizing_cost_lp(int(row[0]), 2, 0.15, 0.05)
        assert abs(float(row[2]) - res.cost_bits) <= 1e-6


def test_depol_scan_endpoints(tmp_path, capsys):
    # p = 1 forgets the input: tr V = 1 and nothing is sent. p = 0 leaves
    # n identity channels, whose eps-cost is d^(2n) (1 - eps).
    for d in (2, 3):
        for p in ("0", "1"):
            out = tmp_path / f"scan{d}{p}.csv"
            assert run(["depol-scan", "--d", str(d), "--p", p, "--eps", "0.01",
                        "--n-max", "40", "--out", str(out)]) == 0
            capsys.readouterr()
            _, rows = _read_csv(out)
            assert [int(row[0]) for row in rows] == list(range(1, 41))
            for row in rows:
                n = int(row[0])
                assert row[1] == "0.01"
                res = depolarizing_cost_lp(n, d, float(p), 0.01)
                assert row[2:5] == [f"{res.cost_bits:.6f}",
                                    f"{res.cost_bits / n:.6f}",
                                    f"{res.half_log_trv / n:.6f}"]
                if p == "1":
                    assert row[2] == row[3] == row[4] == row[5] == "0.000000"
                    assert res.tr_v_opt == 1.0
                else:
                    unceiled = math.log2(d) + math.log2(0.99) / (2 * n)
                    assert abs(float(row[4]) - unceiled) <= 1e-6, (d, n)
                    assert abs(float(row[5]) - math.log2(d)) <= 1e-6


def test_dump_problem_writes_valid_json(tmp_path, capsys):
    dump = tmp_path / "problem.json"
    assert run(["cost", "--family", "depolarizing", "--p", "0.15",
                "--eps", "0", "--dump-problem", str(dump)]) == 0
    problem = problem_from_json(json.loads(dump.read_text()))
    assert problem.blocks
    lp_dump = tmp_path / "lp.json"
    assert run(["classical-lp", "--matrix", "0.9,0.1;0.2,0.8", "--eps", "0.01",
                "--dump-problem", str(lp_dump)]) == 0
    lp_problem = problem_from_json(json.loads(lp_dump.read_text()))
    assert lp_problem.blocks
    capsys.readouterr()


def test_dump_problem_of_complex_channel(tmp_path, capsys):
    # Amplitude damping (r = 0.3) followed by a fixed complex unitary: a
    # complex Choi matrix, so the dump holds {"re", "im"} entries.
    u = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
    lift_u = np.kron(np.eye(2), u)
    choi = lift_u @ make_channel("amplitude_damping", r=0.3).choi @ lift_u.conj().T
    path = tmp_path / "complex.json"
    path.write_text(json.dumps({
        "dim_in": 2,
        "dim_out": 2,
        "re": choi.real.tolist(),
        "im": choi.imag.tolist(),
    }))
    dump = tmp_path / "problem.json"
    assert run(["cost", "--family", f"@{path}", "--eps", "0",
                "--dump-problem", str(dump)]) == 0
    capsys.readouterr()
    problem = problem_from_json(json.loads(dump.read_text()))
    # The Lagrange dual of min { tr V : J <= 1 (x) V }: one block for the
    # LMI, and one row per real parameter of V, all four kept for complex J.
    assert problem.maximize
    assert problem.blocks == (Block("sdp", 4),)
    assert len(problem.constraints) == 4
    assert np.iscomplexobj(problem.objective[0])
    assert np.iscomplexobj(problem.constraints[0].coeffs[0])
    sol = solve(problem)
    assert sol.status == "optimal"
    # The value of the same program solved over the 2n x 2n real embedding.
    assert abs(sol.primal_value - 3.3733200578131504) <= 1e-8 * 3.3733200578131504


def test_module_entry_point():
    # The child runs the package under test, wherever pytest imported it from.
    src = os.path.dirname(os.path.dirname(nscost.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "nscost.cli", "cost", "--family", "dephasing",
         "--p", "0.5", "--eps", "0"],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    out = _kv(proc.stdout.strip())
    assert abs(float(out["tr_v"]) - 2.0) <= 1e-5


def test_jobs_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NSCOST_JOBS", "2")
    out = tmp_path / "env.csv"
    assert run(["figure2", "--n-max", "3", "--eps-list", "0.05",
                "--out", str(out)]) == 0
    capsys.readouterr()
    _, rows = _read_csv(out)
    assert len(rows) == 3


@pytest.mark.parametrize(
    "argv, line",
    [
        (["zero-error", "--family", "identity", "--d", "1"],
         "tr_v=1.000000 cost_bits=0.000000 delta=0.000000 m_star=1 half_log_trv=0.000000"),
        (["maxinfo", "--family", "identity", "--d", "1"], "i_max=0.000000"),
        (["maxinfo", "--family", "identity", "--d", "1", "--eps", "0.2"], "i_max=0.000000"),
    ],
    ids=["zero-error", "maxinfo", "maxinfo-eps"],
)
def test_a_value_that_rounds_to_zero_prints_without_sign(argv, line, capsys):
    # The solver returns tr V a hair below 1 for the identity on one
    # dimension; its log prints as 0.000000, not -0.000000.
    assert run(argv) == 0
    assert capsys.readouterr().out == line + "\n"


def test_figure3_rows_print_no_negative_zero(tmp_path, capsys):
    out = tmp_path / "fig3d1.csv"
    assert run(["figure3", "--d", "1", "--grid", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    params = ["0.000000", "0.250000", "0.500000", "0.750000", "1.000000"]
    rows = [f"{family},{p},0.000000" for family in ("depolarizing", "erasure") for p in params]
    assert out.read_text() == "\n".join(["family,param,cost_bits", *rows, ""])
