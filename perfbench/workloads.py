"""The benchmark's workloads: inputs made from the seed, operations, checks.

Each workload is a fixed list of operations, run in the same order every
round: CLI invocations through ``nscost.cli.run(argv)`` and a few public
``nscost.programs`` calls that have no subcommand. Every output is checked
against :mod:`reference` (computed apart from nscost) or against a property
the method must have, never against a stored copy of an earlier output.

Input files (Choi matrices and classical channels as JSON) are written by
:func:`make` into the run directory. Parameters are drawn from narrow ranges
so that every seed costs about the same, and rounded to four decimals so the
CLI argument and the reference see the same number.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import nscost.programs
import nscost.qmat
import reference as ref

FIG2_P = 0.15
FIG2_EPS = (5e-4, 5e-3, 5e-2)
# 6-decimal printing of every CLI number, plus slack for the last float bit.
PRINT_TOL = 5e-7 + 1e-12
# Solver accuracy allowed on (1/2) log2 tr V, in qubits.
SOLVER_TOL = 1e-6


@dataclass
class Op:
    """One timed operation: a CLI argv, or a library call."""

    name: str
    argv: list[str] | None = None
    call: Callable[[], float] | None = None
    # For a --jobs 2 repeat: the name of the --jobs 1 operation it repeats.
    pool_of: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    # Each check takes the round's results by op name (failed ops absent)
    # and returns failure messages.
    checks: list[Callable[[dict], list[str]]] = field(default_factory=list)
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Input generation


def _draw(rng, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _draw_log(rng, lo: float, hi: float) -> str:
    return f"{math.exp(rng.uniform(math.log(lo), math.log(hi))):.4g}"


def random_kraus_choi(rng, d_in: int, d_out: int, rank: int) -> np.ndarray:
    """Choi matrix (input x output order) of a random channel of Kraus rank
    `rank`: complex Gaussian Kraus operators made trace preserving by
    K <- K (K^dag K)^(-1/2) on their stack."""
    g = rng.normal(size=(rank * d_out, d_in)) + 1j * rng.normal(size=(rank * d_out, d_in))
    evals, evecs = np.linalg.eigh(g.conj().T @ g)
    stack = g @ (evecs @ np.diag(evals**-0.5) @ evecs.conj().T)
    choi = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in range(rank):
        v = stack[k * d_out : (k + 1) * d_out].T.reshape(-1)
        choi += np.outer(v, v.conj())
    return choi


def pauli_choi(d: int, weights) -> np.ndarray:
    """Choi matrix of rho -> sum_ab w_ab X^a Z^b rho (X^a Z^b)^dag on C^d."""
    omega = np.exp(2j * np.pi / d)
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(omega ** np.arange(d))
    choi = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            k = np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            v = k.T.reshape(-1)
            choi += weights[a][b] * np.outer(v, v.conj())
    return choi


def depolarizing_choi(d: int, p: float) -> np.ndarray:
    w = np.full((d, d), p / (d * d))
    w[0, 0] += 1.0 - p
    return pauli_choi(d, w)


def two_use_choi(choi: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Choi of N (x) N on (A1 A2) x (B1 B2), from the Choi of N on A x B."""
    j = np.kron(choi, choi).reshape([d_in, d_out, d_in, d_out] * 2)
    # axes (a1 b1 a2 b2 | a1' b1' a2' b2') -> (a1 a2 b1 b2 | a1' a2' b1' b2')
    j = j.transpose(0, 2, 1, 3, 4, 6, 5, 7)
    dim = d_in * d_in * d_out * d_out
    return j.reshape(dim, dim)


def _write_choi(path: str, choi: np.ndarray, d_in: int, d_out: int) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "dim_in": d_in,
                "dim_out": d_out,
                "re": choi.real.tolist(),
                "im": choi.imag.tolist(),
            },
            fh,
        )
    return "@" + path


def _random_stochastic(rng, nx: int, ny: int) -> np.ndarray:
    mat = rng.dirichlet(np.ones(ny), size=nx)
    return mat / mat.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Output parsing and shared checks


def parse_fields(text: str) -> dict[str, str]:
    """key=value tokens of the last printed line."""
    line = text.strip().splitlines()[-1]
    return dict(tok.split("=", 1) for tok in line.split())


def _cost(results, name):
    f = parse_fields(results[name].out)
    return {
        "tr_v": float(f["tr_v"]),
        "bits": float(f["cost_bits"]),
        "half": float(f["half_log_trv"]),
        "m": int(f["m_star"]),
    }


def _close(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, expected {want!r} (tolerance {tol:.1e})"]


def _m_star_ok(label: str, m: int, log2_trv: float) -> list[str]:
    """m* must be the ceiling of sqrt(tr V) for the reference tr V, up to the
    solver's relative accuracy at either end."""
    rel = 2.0 * math.log(2.0) * SOLVER_TOL
    lo = (m - 1) ** 2
    hi = m * m
    log_lo = math.log2(lo) if lo > 0 else -math.inf
    if log_lo < log2_trv + rel and (hi >= 2.0**log2_trv * (1.0 - rel) - 1e-6):
        return []
    return [f"{label}: m_star={m} is not ceil(sqrt(tr V)) for log2 tr V={log2_trv:.9f}"]


def _check_cost_line(label, c, log2_trv_ref) -> list[str]:
    out = _close(f"{label} half_log_trv", c["half"], 0.5 * log2_trv_ref,
                 SOLVER_TOL + PRINT_TOL)
    out += _m_star_ok(label, c["m"], log2_trv_ref)
    out += _close(f"{label} cost_bits", c["bits"], math.log2(c["m"]), PRINT_TOL)
    return out


@functools.lru_cache(maxsize=None)
def _depol_ref(n: int, d: int, p: float, eps: float) -> float:
    return ref.depolarizing_log2_trv(n, d, p, eps)


def check_depol_csv(path: str, d: int, p: float, eps_values, n_max: int) -> list[str]:
    """Every row against waterfilling; m* against the ceiling of sqrt(tr V);
    the qe column against the mutual information; monotone in eps."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_max * len(eps_values):
        return [f"{path}: {len(rows)} rows, expected {n_max * len(eps_values)}"]
    errs = []
    qe = ref.depolarizing_qe(d, p)
    by_n: dict[int, list] = {}
    for row in rows:
        n, eps = int(row["n"]), float(row["eps"])
        if eps not in eps_values:
            errs.append(f"{path}: unexpected eps {row['eps']}")
            continue
        label = f"{os.path.basename(path)} n={n} eps={eps}"
        log2_trv = _depol_ref(n, d, p, eps)
        total = float(row["cost_total_bits"])
        unceiled = float(row["unceiled_per_use"])
        errs += _close(f"{label} unceiled_per_use", unceiled, 0.5 * log2_trv / n,
                       PRINT_TOL + SOLVER_TOL / n)
        errs += _close(f"{label} cost_per_use", float(row["cost_per_use"]), total / n,
                       PRINT_TOL + PRINT_TOL / n)
        errs += _close(f"{label} qe_asymptote", float(row["qe_asymptote"]), qe,
                       PRINT_TOL)
        # log2 m* lies in [h, log2(2^h + 1)] with h = (1/2) log2 tr V.
        h = 0.5 * log2_trv
        upper = h + math.log2(1.0 + 2.0**-h)
        if not h - SOLVER_TOL - PRINT_TOL <= total <= upper + SOLVER_TOL + PRINT_TOL:
            errs.append(f"{label}: cost_total_bits {total} outside [{h}, {upper}]")
        if total < 20.0:
            m = round(2.0**total)
            errs += _m_star_ok(label, m, log2_trv)
        by_n.setdefault(n, []).append((eps, unceiled, total))
    for n, vals in by_n.items():
        vals.sort()
        for (e1, u1, t1), (e2, u2, t2) in zip(vals, vals[1:]):
            if u2 > u1 + 2 * PRINT_TOL or t2 > t1 + 2 * PRINT_TOL:
                errs.append(f"{path} n={n}: cost rises from eps={e1} to eps={e2}")
    if sorted(by_n) != list(range(1, n_max + 1)):
        errs.append(f"{path}: blocklengths are not 1..{n_max}")
    return errs


# ---------------------------------------------------------------------------
# depol-sweep


def _depol_sweep(seed: int, seconds: int, run_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 1])
    # Blocklengths grow with the run length, capped at the paper's n = 300;
    # at 30 s a round takes about 8 s, so a run holds three or four rounds.
    n_fig = min(300, 3 * seconds // 2)
    n_scan = min(300, 5 * seconds // 2)
    scan_d = 3
    scan_p = _draw(rng, 0.14, 0.16)
    scan_eps = _draw_log(rng, 3e-3, 1e-2)
    fig2 = os.path.join(run_dir, "fig2_jobs1.csv")
    fig2_pool = os.path.join(run_dir, "fig2_jobs2.csv")
    scan = os.path.join(run_dir, "scan.csv")
    fig2_args = ["figure2", "--p", str(FIG2_P), "--n-max", str(n_fig)]
    ops = [
        Op("figure2-jobs1", argv=fig2_args + ["--out", fig2, "--jobs", "1"]),
        Op("figure2-jobs2", argv=fig2_args + ["--out", fig2_pool, "--jobs", "2"],
           pool_of="figure2-jobs1"),
        Op("depol-scan", argv=["depol-scan", "--d", str(scan_d), "--p", scan_p,
                               "--eps", scan_eps, "--n-max", str(n_scan),
                               "--out", scan, "--jobs", "1"]),
    ]

    def check_fig2(results):
        if "figure2-jobs1" not in results:
            return []
        return check_depol_csv(fig2, 2, FIG2_P, FIG2_EPS, n_fig)

    def check_pool(results):
        if "figure2-jobs1" not in results or "figure2-jobs2" not in results:
            return []
        with open(fig2, "rb") as a, open(fig2_pool, "rb") as b:
            if a.read() != b.read():
                return ["figure2 CSV at --jobs 2 differs from the one at --jobs 1"]
        return []

    def check_scan(results):
        if "depol-scan" not in results:
            return []
        return check_depol_csv(scan, scan_d, float(scan_p), (float(scan_eps),), n_scan)

    return Workload(
        ops,
        [check_fig2, check_pool, check_scan],
        {"figure2_n_max": n_fig, "scan": {"d": scan_d, "p": scan_p,
                                          "eps": scan_eps, "n_max": n_scan}},
    )


# ---------------------------------------------------------------------------
# small-sdp


def _small_sdp(seed: int, seconds: int, run_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 2])
    p2 = _draw(rng, 0.1, 0.3)
    p3 = _draw(rng, 0.1, 0.3)
    p_er = _draw(rng, 0.1, 0.3)
    r_ad = _draw(rng, 0.1, 0.5)
    p_dph = _draw(rng, 0.1, 0.4)
    eps = _draw(rng, 0.01, 0.05)
    eps_mi = _draw(rng, 0.01, 0.05)
    eps_cl = _draw(rng, 0.01, 0.1)
    p_dia = _draw(rng, 0.1, 0.5)
    a = _draw(rng, 0.6, 0.95)
    b = _draw(rng, 0.05, 0.4)
    inline = f"{a},{1 - float(a):.4f};{b},{1 - float(b):.4f}"
    inline_mat = [[float(a), float(f"{1 - float(a):.4f}")],
                  [float(b), float(f"{1 - float(b):.4f}")]]
    cl_mat = _random_stochastic(rng, 3, 4)
    cl_path = os.path.join(run_dir, "classical.json")
    with open(cl_path, "w", encoding="utf-8") as fh:
        json.dump({"matrix": cl_mat.tolist()}, fh)
    randoms = {}
    for tag, (d_in, d_out) in (("rand23", (2, 3)), ("rand32", (3, 2))):
        choi = random_kraus_choi(rng, d_in, d_out, rank=2)
        randoms[tag] = (
            _write_choi(os.path.join(run_dir, f"{tag}.json"), choi, d_in, d_out),
            d_in,
            d_out,
        )

    def cli(name, *args):
        return Op(name, argv=list(args))

    dep2 = ["--family", "depolarizing", "--d", "2", "--p", p2]
    dep3 = ["--family", "depolarizing", "--d", "3", "--p", p3]
    f3_path = os.path.join(run_dir, "fig3.csv")
    ops = [
        cli("figure3", "figure3", "--grid", "101", "--out", f3_path, "--jobs", "1"),
        cli("zero-dep2", "zero-error", *dep2),
        cli("zero-dep3", "zero-error", *dep3),
        cli("zero-erasure3", "zero-error", "--family", "erasure", "--d", "3", "--p", p_er),
        cli("zero-ad", "zero-error", "--family", "amplitude-damping", "--r", r_ad),
        cli("zero-dephasing", "zero-error", "--family", "dephasing", "--p", p_dph),
        cli("cost-dep2", "cost", *dep2, "--eps", eps),
        cli("cost-dep3", "cost", *dep3, "--eps", eps),
        cli("cost-ppt-dep2", "cost", *dep2, "--eps", eps, "--code", "ns-ppt"),
        cli("maxinfo-dep2", "maxinfo", *dep2),
        cli("maxinfo-eps-dep2", "maxinfo", *dep2, "--eps", eps_mi),
        cli("diamond-2", "diamond", "--a", "identity", "--b", "depolarizing",
            "--pb", p_dia, "--d", "2"),
        cli("diamond-3", "diamond", "--a", "identity", "--b", "depolarizing",
            "--pb", p_dia, "--d", "3"),
        cli("verify-dephasing", "verify", "--family", "dephasing", "--p", p_dph),
        cli("verify-ad", "verify", "--family", "amplitude-damping", "--r", r_ad),
        cli("classical-inline", "classical-lp", "--matrix", inline, "--eps", eps_cl),
        cli("classical-file", "classical-lp", "--matrix", "@" + cl_path, "--eps", eps_cl),
    ]
    for tag, (arg, _, _) in randoms.items():
        ops += [
            cli(f"zero-{tag}", "zero-error", "--family", arg),
            cli(f"cost-{tag}", "cost", "--family", arg, "--eps", eps),
            cli(f"cost-ppt-{tag}", "cost", "--family", arg, "--eps", eps, "--code", "ns-ppt"),
            cli(f"maxinfo-{tag}", "maxinfo", "--family", arg),
        ]

    closed = {
        "zero-dep2": ("depolarizing", p2, 2),
        "zero-dep3": ("depolarizing", p3, 3),
        "zero-erasure3": ("erasure", p_er, 3),
        "zero-ad": ("amplitude_damping", r_ad, 2),
        "zero-dephasing": ("dephasing", p_dph, 2),
    }

    def check_figure3(results):
        if "figure3" not in results:
            return []
        with open(f3_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != 4 * 101:
            return [f"figure3: {len(rows)} rows, expected 404"]
        errs = []
        for row in rows:
            want = ref.zero_error_bits(row["family"], float(row["param"]), 2)
            errs += _close(f"figure3 {row['family']} {row['param']}",
                           float(row["cost_bits"]), want, SOLVER_TOL + PRINT_TOL)
        return errs

    def check_named(results):
        errs = []
        for name, (family, param, d) in closed.items():
            if name in results:
                c = _cost(results, name)
                want = ref.zero_error_bits(family, float(param), d)
                errs += _check_cost_line(name, c, 2.0 * want)
        for name, d, p in (("cost-dep2", 2, p2), ("cost-dep3", 3, p3)):
            if name in results:
                log2_trv = ref.depolarizing_log2_trv(1, d, float(p), float(eps))
                errs += _check_cost_line(name, _cost(results, name), log2_trv)
        if "cost-dep2" in results and "cost-ppt-dep2" in results:
            errs += _ppt_order("dep2", _cost(results, "cost-dep2")["m"],
                               _cost(results, "cost-ppt-dep2")["m"], 2)
        if "maxinfo-dep2" in results:
            i_max = float(parse_fields(results["maxinfo-dep2"].out)["i_max"])
            errs += _close("maxinfo-dep2 vs 2 x zero-error cost", i_max,
                           2.0 * ref.zero_error_bits("depolarizing", float(p2), 2),
                           2 * SOLVER_TOL + PRINT_TOL)
            if "zero-dep2" in results:
                errs += _close("maxinfo-dep2 vs 2 x zero-dep2 output", i_max,
                               2.0 * _cost(results, "zero-dep2")["half"],
                               2 * SOLVER_TOL + 3 * PRINT_TOL)
        if "maxinfo-eps-dep2" in results:
            i_max = float(parse_fields(results["maxinfo-eps-dep2"].out)["i_max"])
            errs += _close("maxinfo-eps-dep2", i_max,
                           ref.depolarizing_log2_trv(1, 2, float(p2), float(eps_mi)),
                           2 * SOLVER_TOL + PRINT_TOL)
        for name, d in (("diamond-2", 2), ("diamond-3", 3)):
            if name in results:
                got = float(parse_fields(results[name].out)["half_diamond_dist"])
                want = ref.identity_depolarizing_half_diamond(d, float(p_dia))
                errs += _close(name, got, want, SOLVER_TOL + PRINT_TOL)
        for name, family, param in (("verify-dephasing", "dephasing", p_dph),
                                    ("verify-ad", "amplitude_damping", r_ad)):
            if name in results:
                f = parse_fields(results[name].out)
                if f.get("verdict") != "ok" or results[name].rc != 0:
                    errs.append(f"{name}: verdict {f.get('verdict')}")
                errs += _close(f"{name} closed_form", float(f["closed_form"]),
                               ref.zero_error_bits(family, float(param), 2), PRINT_TOL)
        for name, mat in (("classical-inline", inline_mat), ("classical-file", cl_mat)):
            if name in results:
                c = _cost(results, name)
                want = ref.classical_trv(mat, float(eps_cl))
                errs += _close(f"{name} tr_v", c["tr_v"], want,
                               want * 2e-6 + PRINT_TOL)
        return errs

    def check_random(results):
        errs = []
        for tag, (_, d_in, d_out) in randoms.items():
            names = [f"zero-{tag}", f"cost-{tag}", f"cost-ppt-{tag}", f"maxinfo-{tag}"]
            if not all(n in results for n in names):
                continue
            zero, eps_cost, ppt = (_cost(results, n) for n in names[:3])
            i_max = float(parse_fields(results[names[3]].out)["i_max"])
            cap = min(d_in, d_out) ** 2
            if not 1.0 - 1e-6 <= zero["tr_v"] <= cap * (1.0 + 1e-6):
                errs.append(f"{tag}: zero-error tr V {zero['tr_v']} outside [1, {cap}]")
            if not 1.0 - 1e-6 <= eps_cost["tr_v"] <= zero["tr_v"] * (1.0 + 1e-6) + PRINT_TOL:
                errs.append(f"{tag}: eps-cost tr V {eps_cost['tr_v']} not in "
                            f"[1, zero-error tr V {zero['tr_v']}]")
            errs += _ppt_order(tag, eps_cost["m"], ppt["m"], d_in)
            errs += _close(f"{tag} maxinfo vs 2 x zero-error cost", i_max,
                           2.0 * zero["half"], 3 * PRINT_TOL)
        return errs

    return Workload(
        ops,
        [check_figure3, check_named, check_random],
        {"p_dep2": p2, "p_dep3": p3, "p_erasure3": p_er, "r_ad": r_ad,
         "p_dephasing": p_dph, "eps": eps, "eps_maxinfo": eps_mi,
         "eps_classical": eps_cl, "p_diamond": p_dia, "classical_inline": inline},
    )


def _ppt_order(label: str, m_ns: int, m_ppt: int, d_in: int) -> list[str]:
    if m_ns <= m_ppt <= d_in:
        return []
    return [f"{label}: expected NS m* {m_ns} <= NS+PPT m* {m_ppt} <= d_in {d_in}"]


# ---------------------------------------------------------------------------
# large-sdp


def _large_sdp(seed: int, seconds: int, run_dir: str) -> Workload:
    rng = np.random.default_rng([seed, 3])
    p_dep = _draw(rng, 0.1, 0.2)
    p_dph = _draw(rng, 0.1, 0.2)
    eps = _draw(rng, 0.01, 0.05)
    p3 = _draw(rng, 0.1, 0.2)
    r_res = _draw(rng, 0.1, 0.3)
    p_tgt = _draw(rng, 0.2, 0.4)
    dep_two = _write_choi(
        os.path.join(run_dir, "depolarizing_x2.json"),
        two_use_choi(depolarizing_choi(2, float(p_dep)), 2, 2), 4, 4)
    dph = float(p_dph)
    dph_two = _write_choi(
        os.path.join(run_dir, "dephasing_x2.json"),
        two_use_choi(pauli_choi(2, [[1.0 - dph, dph], [0.0, 0.0]]), 2, 2), 4, 4)

    resource = nscost.qmat.make_channel("amplitude_damping", r=float(r_res))
    target = nscost.qmat.make_channel("depolarizing", d=2, p=float(p_tgt))
    identity = nscost.qmat.make_channel("identity", d=2)
    random_target = nscost.qmat.QuantumChannel(2, 2, random_kraus_choi(rng, 2, 2, 2))
    mes = nscost.programs.min_error_simulation
    dep3 = ["--family", "depolarizing", "--d", "3", "--p", p3, "--eps", eps]
    ops = [
        Op("cost-dep-x2", argv=["cost", "--family", dep_two, "--eps", eps]),
        Op("cost-dph-x2", argv=["cost", "--family", dph_two, "--eps", eps]),
        Op("cost-dep3", argv=["cost", *dep3]),
        Op("cost-ppt-dep3", argv=["cost", *dep3, "--code", "ns-ppt"]),
        Op("min-error-ns", call=lambda: mes(resource, target, "NS")),
        Op("min-error-ns-ppt", call=lambda: mes(resource, target, "NS_PPT")),
        Op("min-error-identity", call=lambda: mes(identity, random_target, "NS")),
    ]

    def check(results):
        errs = []
        for name, log2_trv in (
            ("cost-dep-x2", lambda: ref.depolarizing_log2_trv(2, 2, float(p_dep), float(eps))),
            ("cost-dph-x2", lambda: ref.dephasing_log2_trv(2, dph, float(eps))),
            ("cost-dep3", lambda: ref.depolarizing_log2_trv(1, 3, float(p3), float(eps))),
        ):
            if name in results:
                errs += _check_cost_line(name, _cost(results, name), log2_trv())
        if "cost-dep3" in results and "cost-ppt-dep3" in results:
            errs += _ppt_order("dep3", _cost(results, "cost-dep3")["m"],
                               _cost(results, "cost-ppt-dep3")["m"], 3)
        errors = {k: results[k] for k in ("min-error-ns", "min-error-ns-ppt",
                                          "min-error-identity") if k in results}
        for name, value in errors.items():
            if not -1e-7 <= value <= 1.0 + 1e-7:
                errs.append(f"{name}: error {value} outside [0, 1]")
        if "min-error-ns" in errors and "min-error-ns-ppt" in errors:
            if errors["min-error-ns"] > errors["min-error-ns-ppt"] + 1e-7:
                errs.append(f"NS min error {errors['min-error-ns']} exceeds "
                            f"NS+PPT min error {errors['min-error-ns-ppt']}")
        if "min-error-identity" in errors:
            errs += _close("min-error-identity", errors["min-error-identity"], 0.0, 1e-6)
        return errs

    return Workload(
        ops,
        [check],
        {"p_dep_x2": p_dep, "p_dph_x2": p_dph, "eps": eps, "p_dep3": p3,
         "r_resource": r_res, "p_target": p_tgt},
    )


WORKLOADS = {
    "depol-sweep": _depol_sweep,
    "small-sdp": _small_sdp,
    "large-sdp": _large_sdp,
}


def make(name: str, seed: int, seconds: int, run_dir: str) -> Workload:
    """Build a workload's operations and write its input files."""
    return WORKLOADS[name](seed, seconds, run_dir)
