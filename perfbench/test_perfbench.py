"""Tests of the benchmark's own references, checks, tracing and reporting.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "d,p,eps", [(2, 0.15, 5e-4), (2, 0.15, 0.05), (3, 0.3, 1e-3), (2, 0.9, 0.4), (3, 0.1, 1.0)]
)
def test_waterfilling_matches_highs_sector_lp(n, d, p, eps):
    groups = ref.depolarizing_groups(n, d, p)
    want = ref.groups_lp_log2_trv(*groups, d**n, eps)
    assert ref.depolarizing_log2_trv(n, d, p, eps) == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("n,p,eps", [(1, 0.2, 0.03), (2, 0.15, 0.02), (3, 0.4, 0.1)])
def test_dephasing_waterfilling_matches_highs(n, p, eps):
    want = ref.groups_lp_log2_trv(*ref.dephasing_groups(n, p), 2**n, eps)
    assert ref.dephasing_log2_trv(n, p, eps) == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("d,p", [(2, 0.15), (3, 0.4), (2, 1.0)])
def test_waterfilling_at_zero_eps_is_the_closed_form(d, p):
    want = 2.0 * ref.zero_error_bits("depolarizing", p, d)
    assert ref.depolarizing_log2_trv(1, d, p, 0.0) == pytest.approx(want, abs=1e-12)
    assert ref.depolarizing_log2_trv(3, d, p, 0.0) == pytest.approx(3 * want, abs=1e-9)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.8])
def test_dephasing_closed_form_is_the_top_bell_weight(p):
    want = 2.0 * ref.zero_error_bits("dephasing", p)
    assert ref.dephasing_log2_trv(1, p, 0.0) == pytest.approx(want, abs=1e-12)


def test_waterfilling_stays_finite_at_large_blocklength():
    value = ref.depolarizing_log2_trv(300, 2, 0.15, 5e-2)
    assert math.isfinite(value)
    # Per-use cost sits between the asymptote and the zero-error cost.
    assert ref.depolarizing_qe(2, 0.15) < value / 600 < ref.zero_error_bits("depolarizing", 0.15)


def test_full_eps_drives_tr_v_to_one():
    assert ref.depolarizing_log2_trv(4, 2, 0.3, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_mutual_information_endpoints():
    assert ref.depolarizing_qe(2, 0.0) == pytest.approx(1.0)
    assert ref.depolarizing_qe(3, 0.0) == pytest.approx(math.log2(3))
    assert ref.depolarizing_qe(2, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_classical_lp_reference():
    mat = [[0.8, 0.2], [0.3, 0.7]]
    assert ref.classical_trv(mat, 0.0) == pytest.approx(0.8 + 0.7)
    assert ref.classical_trv(mat, 1.0) == pytest.approx(1.0)
    assert ref.classical_trv(np.eye(3), 0.0) == pytest.approx(3.0)


def test_half_diamond_reference():
    assert ref.identity_depolarizing_half_diamond(2, 0.0) == 0.0
    assert ref.identity_depolarizing_half_diamond(2, 1.0) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# Input generation


def _is_channel(choi, d_in, d_out):
    assert np.allclose(choi, choi.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(choi)[0] > -1e-12
    marginal = np.einsum("ajbj->ab", choi.reshape(d_in, d_out, d_in, d_out))
    assert np.allclose(marginal, np.eye(d_in), atol=1e-12)


def test_random_channels_are_channels():
    rng = np.random.default_rng(0)
    for d_in, d_out in ((2, 3), (3, 2), (2, 2)):
        _is_channel(workloads.random_kraus_choi(rng, d_in, d_out, 2), d_in, d_out)


@pytest.mark.parametrize("d,p", [(2, 0.15), (3, 0.2)])
def test_two_use_depolarizing_spectrum_is_the_reference_groups(d, p):
    choi = workloads.two_use_choi(workloads.depolarizing_choi(d, p), d, d)
    _is_channel(choi, d * d, d * d)
    log_mult, log_val = ref.depolarizing_groups(2, d, p)
    want = np.sort(np.repeat(d * d * np.exp(log_val), np.round(np.exp(log_mult)).astype(int)))
    assert np.allclose(np.sort(np.linalg.eigvalsh(choi)), want, atol=1e-12)


def test_two_use_dephasing_spectrum_is_the_reference_groups():
    p = 0.2
    choi = workloads.two_use_choi(workloads.pauli_choi(2, [[1 - p, p], [0, 0]]), 2, 2)
    _is_channel(choi, 4, 4)
    log_mult, log_val = ref.dephasing_groups(2, p)
    want = np.sort(np.repeat(4 * np.exp(log_val), np.round(np.exp(log_mult)).astype(int)))
    assert np.allclose(np.sort(np.linalg.eigvalsh(choi)), want, atol=1e-12)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    wa = workloads.make("small-sdp", 7, 30, str(a))
    wb = workloads.make("small-sdp", 7, 30, str(b))
    assert wa.params == wb.params
    assert (a / "rand23.json").read_bytes() == (b / "rand23.json").read_bytes()
    assert workloads.make("small-sdp", 8, 30, str(b)).params != wa.params


# ---------------------------------------------------------------------------
# Output checks


def _write_reference_csv(path, d, p, eps_values, n_max, bump=0.0):
    qe = ref.depolarizing_qe(d, p)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["n", "eps", "cost_total_bits", "cost_per_use", "unceiled_per_use",
                    "qe_asymptote"])
        for n in range(1, n_max + 1):
            for eps in eps_values:
                half = 0.5 * ref.depolarizing_log2_trv(n, d, p, eps)
                m = math.ceil(2.0**half - 1e-9)
                total = math.log2(m)
                w.writerow([n, repr(eps), f"{total:.6f}", f"{total / n:.6f}",
                            f"{half / n + bump:.6f}", f"{qe:.6f}"])


def test_depol_csv_check_accepts_reference_rows(tmp_path):
    path = str(tmp_path / "ok.csv")
    _write_reference_csv(path, 2, 0.15, workloads.FIG2_EPS, 12)
    assert workloads.check_depol_csv(path, 2, 0.15, workloads.FIG2_EPS, 12) == []


def test_depol_csv_check_rejects_a_wrong_value(tmp_path):
    path = str(tmp_path / "bad.csv")
    _write_reference_csv(path, 2, 0.15, workloads.FIG2_EPS, 4, bump=1e-5)
    errs = workloads.check_depol_csv(path, 2, 0.15, workloads.FIG2_EPS, 4)
    assert errs and "unceiled_per_use" in errs[0]


def test_m_star_check():
    assert workloads._m_star_ok("x", 2, math.log2(3.55)) == []
    assert workloads._m_star_ok("x", 3, math.log2(3.55)) != []
    assert workloads._m_star_ok("x", 1, math.log2(3.55)) != []


# ---------------------------------------------------------------------------
# Tracing and reporting


class _Block:
    def __init__(self, kind, size):
        self.kind, self.size = kind, size


class _Problem:
    def __init__(self, m, blocks):
        self.constraints = [None] * m
        self.blocks = [_Block(*b) for b in blocks]


class _Solution:
    iterations = 7


def test_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    solve = tracer.wrap(lambda problem: (time.sleep(0.01), _Solution())[1], "conic", "solve")
    entry = tracer.wrap(lambda: (time.sleep(0.01), solve(_Problem(10, [("sdp", 4)])))[1],
                        "programs", "entry")
    tracer.op = 0
    with tracer.span("cli", "cost") as root:
        entry()
    total = sum(sp.self_s for sp in tracer.spans)
    assert total == pytest.approx(root.end - root.start, abs=1e-9)
    totals = tracing.layer_totals(tracer.spans, set())
    assert totals["cli.ops"] == 1 and totals["programs.calls"] == 1
    assert totals["conic.sdp.solves"] == 1 and totals["conic.sdp.iterations"] == 7
    assert totals["conic.sdp.schur_flops"] == tracing.schur_flops(10, [4], 7)
    assert totals["conic.sdp.solve_s"] >= 0.01


def test_schur_flops_formula():
    assert tracing.schur_flops(3, [2], 1) == 4 * 3 * 8 + 2 * 9 * 4 + 9


def test_installed_restores_the_package():
    import nscost.cli
    import nscost.programs

    before = (nscost.cli.one_shot_cost_ns, nscost.programs.solve)
    with tracing.installed(tracing.Tracer()):
        assert nscost.cli.one_shot_cost_ns is not before[0]
    assert (nscost.cli.one_shot_cost_ns, nscost.programs.solve) == before


def _report(times, traced=None, wrong=(), failures=()):
    traced = traced or [False] * len(times)
    return {
        "ops": ["a", "b", "c"],
        "pool_of": {"b": "a"},
        "params": {},
        "rounds": [
            {"times": t, "failures": list(failures), "wrong": list(wrong), "traced": tr,
             "self_by_op": {str(i): x for i, x in enumerate(t)}}
            for t, tr in zip(times, traced)
        ],
        "peak_rss_kb": 2048,
        "traced_totals": [],
    }


def test_end_to_end_summary():
    rep = _report([[1.0, 0.5, 2.0], [1.2, 0.6, 2.2], [1.1, 0.4, 2.1]])
    res, wrong = run.summarize([0.7, 0.9, 0.8], rep, trace=False)
    assert set(res) == {"correct", "attempted", "failed", "metrics"} and wrong == []
    assert res["correct"] and res["attempted"] == 9 and res["failed"] == 0
    m = res["metrics"]
    assert set(m) == set(run.END_TO_END)
    assert m["setup_s"] == {"value": 0.8, "unit": "s"}
    assert m["wall_s"]["value"] == pytest.approx(3.7)
    assert m["op_p50_ms"]["value"] == pytest.approx(1100.0)
    assert m["peak_rss_mb"] == {"value": 2.0, "unit": "MB"}


def test_wrong_outputs_make_the_run_incorrect():
    rep = _report([[1.0, 0.5, 2.0]], wrong=["x: got 1, expected 2"], failures=["c: boom"])
    res, wrong = run.summarize([0.7], rep, trace=False)
    assert not res["correct"] and res["failed"] == 1 and len(wrong) == 1


def test_traced_summary_reports_every_layer_metric():
    spans_round = tracing.layer_totals([], set())
    rep = _report([[1.0, 0.5, 2.0], [1.1, 0.5, 2.1]], traced=[False, True])
    rep["traced_totals"] = [spans_round]
    res, _ = run.summarize([0.7], rep, trace=True)
    assert set(res["metrics"]) == set(tracing.LAYER_METRICS)
    assert res["metrics"]["trace.overhead_s"]["value"] == pytest.approx(0.2)
    assert res["metrics"]["cli.pool_speedup"]["value"] == pytest.approx(2.0)
    assert res["correct"]


def test_trace_consistency_flags_unattributed_time():
    rounds = [{"times": [1.0, 2.0], "self_by_op": {"0": 1.0, "1": 1.5}}]
    assert run.trace_consistency(rounds, 0.1)
    assert not run.trace_consistency(rounds, 0.6)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "small-sdp", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
