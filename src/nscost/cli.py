"""Command-line front end for channel-simulation costs.

Subcommands:
    cost          one-shot simulation cost of a channel (NS or NS+PPT codes)
    zero-error    zero-error simulation cost
    diamond       half diamond-norm distance between two channels
    maxinfo       (smooth) channel max-information
    classical-lp  simulation cost of a classical channel
    depol-scan    blocklength sweep of the depolarizing LP at one tolerance
    figure2       per-use depolarizing cost curves at three tolerances (CSV)
    figure3       zero-error cost of the four closed-form families (CSV)
    verify        closed form vs solver vs certificate for one channel

Channels are named by family (identity, depolarizing, amplitude-damping,
dephasing, erasure) with parameters --d/--p/--r, or loaded from a JSON Choi
file given as @path with keys {dim_in, dim_out, re, im}. Exit codes: 0 on
success, 1 when `verify` finds a mismatch, 2 on usage errors, 3 on solver
failures.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analytic import certificate, closed_form_cost
from .conic import SolverFailure
from .programs import (
    CostResult,
    diamond_norm_dist,
    max_information,
    one_shot_cost_ns,
    one_shot_cost_ns_ppt,
    smooth_max_information,
    verify_certificate,
    zero_error_cost,
)
from .qmat import QuantumChannel, make_channel
from .symmetry import (
    classical_cost_lp,
    depolarizing_cost_lp,
    depolarizing_mutual_info,
)

_FIG2_EPS = (5e-4, 5e-3, 5e-2)
_FIG3_FAMILIES = ("depolarizing", "amplitude_damping", "dephasing", "erasure")


@dataclass(frozen=True)
class RunConfig:
    """Validated options of one CLI invocation."""

    subcommand: str
    channel: str | None = None
    channel_b: str | None = None
    matrix: str | None = None
    d: int = 2
    p: float | None = None
    r: float | None = None
    p_b: float | None = None
    r_b: float | None = None
    eps: float | None = None
    eps_list: tuple[float, ...] = _FIG2_EPS
    n_max: int = 300
    grid: int = 101
    code: str = "ns"
    out: str | None = None
    gap_tol: float = 1e-8
    feas_tol: float = 1e-8
    max_iter: int = 200
    dump_path: str | None = None
    jobs: int = 1


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        jobs = int(os.environ.get("NSCOST_JOBS", "1"))
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    eps_list = _FIG2_EPS
    if getattr(args, "eps_list", None):
        eps_list = tuple(float(tok) for tok in args.eps_list.split(","))
        if not eps_list:
            raise ValueError("--eps-list must name at least one tolerance")
    for value in (getattr(args, "eps", None), *eps_list):
        if value is not None and not 0.0 <= value <= 1.0:
            raise ValueError(f"error tolerance must lie in [0, 1], got {value}")
    n_max = getattr(args, "n_max", 300)
    if n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {n_max}")
    grid = getattr(args, "grid", 101)
    if grid < 2:
        raise ValueError(f"--grid needs at least two points, got {grid}")
    return RunConfig(
        subcommand=args.subcommand,
        channel=getattr(args, "family", None) or getattr(args, "a", None),
        channel_b=getattr(args, "b", None),
        matrix=getattr(args, "matrix", None),
        d=getattr(args, "d", 2),
        p=getattr(args, "p", None),
        r=getattr(args, "r", None),
        p_b=getattr(args, "pb", None),
        r_b=getattr(args, "rb", None),
        eps=getattr(args, "eps", None),
        eps_list=eps_list,
        n_max=n_max,
        grid=grid,
        code=getattr(args, "code", "ns"),
        out=getattr(args, "out", None),
        gap_tol=getattr(args, "gap_tol", 1e-8),
        feas_tol=getattr(args, "feas_tol", 1e-8),
        max_iter=getattr(args, "max_iter", 200),
        dump_path=getattr(args, "dump_problem", None),
        jobs=jobs,
    )


def _solver_kw(cfg: RunConfig) -> dict:
    return {
        "gap_tol": cfg.gap_tol,
        "feas_tol": cfg.feas_tol,
        "max_iter": cfg.max_iter,
        "dump_path": cfg.dump_path,
    }


def _load_choi_file(path: str) -> QuantumChannel:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        dim_in = int(data["dim_in"])
        dim_out = int(data["dim_out"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"channel file {path} is missing field {exc}") from None
    return QuantumChannel(dim_in=dim_in, dim_out=dim_out, choi=re + 1j * im)


def _make_named_channel(
    name: str, d: int, p: float | None, r: float | None
) -> QuantumChannel:
    if name.startswith("@"):
        return _load_choi_file(name[1:])
    family = name.strip().lower().replace("-", "_")
    if family == "identity":
        return make_channel("identity", d=d)
    if family in ("depolarizing", "erasure", "dephasing"):
        if p is None:
            raise ValueError(f"family {family} requires --p")
        if family == "dephasing":
            return make_channel("dephasing", p=p)
        return make_channel(family, d=d, p=p)
    if family == "amplitude_damping":
        if r is None:
            raise ValueError("family amplitude_damping requires --r")
        return make_channel("amplitude_damping", r=r)
    raise ValueError(f"unknown channel family {name!r}")


def _parse_matrix(text: str) -> np.ndarray:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict):
            if "matrix" not in data:
                raise ValueError(f"matrix file {text[1:]} has no 'matrix' key")
            data = data["matrix"]
        return np.asarray(data, dtype=float)
    rows = [row for row in text.split(";") if row.strip()]
    return np.asarray(
        [[float(tok) for tok in row.split(",")] for row in rows], dtype=float
    )


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _cost_line(res: CostResult) -> str:
    return (
        f"tr_v={_fmt(res.tr_v_opt)} cost_bits={_fmt(res.cost_bits)} "
        f"delta={_fmt(res.delta)} m_star={res.m_star} "
        f"half_log_trv={_fmt(res.half_log_trv)}"
    )


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_cost(cfg: RunConfig) -> int:
    channel = _make_named_channel(cfg.channel, cfg.d, cfg.p, cfg.r)
    eps = cfg.eps if cfg.eps is not None else 0.0
    code = cfg.code.strip().lower().replace("-", "_")
    if code == "ns":
        res = one_shot_cost_ns(channel, eps, **_solver_kw(cfg))
    elif code == "ns_ppt":
        res = one_shot_cost_ns_ppt(channel, eps, **_solver_kw(cfg))
    else:
        raise ValueError(f"unknown code class {cfg.code!r}, expected ns or ns-ppt")
    print(_cost_line(res))
    return 0


def _cmd_zero_error(cfg: RunConfig) -> int:
    channel = _make_named_channel(cfg.channel, cfg.d, cfg.p, cfg.r)
    res = zero_error_cost(channel, **_solver_kw(cfg))
    print(_cost_line(res))
    return 0


def _cmd_diamond(cfg: RunConfig) -> int:
    first = _make_named_channel(cfg.channel, cfg.d, cfg.p, cfg.r)
    second = _make_named_channel(
        cfg.channel_b,
        cfg.d,
        cfg.p_b if cfg.p_b is not None else cfg.p,
        cfg.r_b if cfg.r_b is not None else cfg.r,
    )
    value = diamond_norm_dist(first, second, **_solver_kw(cfg))
    print(f"half_diamond_dist={_fmt(value)}")
    return 0


def _cmd_maxinfo(cfg: RunConfig) -> int:
    channel = _make_named_channel(cfg.channel, cfg.d, cfg.p, cfg.r)
    if cfg.eps is None or cfg.eps == 0.0:
        value = max_information(channel, **_solver_kw(cfg))
    else:
        value = smooth_max_information(channel, cfg.eps, **_solver_kw(cfg))
    print(f"i_max={_fmt(value)}")
    return 0


def _cmd_classical_lp(cfg: RunConfig) -> int:
    matrix = _parse_matrix(cfg.matrix)
    eps = cfg.eps if cfg.eps is not None else 0.0
    res = classical_cost_lp(matrix, eps, **_solver_kw(cfg))
    print(_cost_line(res))
    return 0


def _cmd_verify(cfg: RunConfig) -> int:
    family = cfg.channel.strip().lower().replace("-", "_")
    param = cfg.r if family == "amplitude_damping" else cfg.p
    if param is None:
        raise ValueError("verify requires the family's noise parameter (--p or --r)")
    form = closed_form_cost(family, param, cfg.d)
    channel = _make_named_channel(cfg.channel, cfg.d, cfg.p, cfg.r)
    solved = zero_error_cost(channel, **_solver_kw(cfg))
    check = verify_certificate(channel, certificate(family, param, cfg.d))
    diff = abs(form.value_bits - solved.half_log_trv)
    ok = diff <= 1e-6 and check.status == "optimal_confirmed"
    print(
        f"closed_form={_fmt(form.value_bits)} sdp={_fmt(solved.half_log_trv)} "
        f"diff={diff:.3e} certificate={check.status} gap={check.gap:.3e} "
        f"verdict={'ok' if ok else 'mismatch'}"
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Sweeps


_DEPOL_HEADER = ["n", "eps", "cost_total_bits", "cost_per_use", "unceiled_per_use",
                 "qe_asymptote"]


def _depol_rows(d: int, p: float, eps_values, n_max: int) -> list[tuple]:
    # Each point is a closed-form waterfilling that takes well under a
    # millisecond, so the rows are computed in process: a worker pool would
    # cost more to start than it saves.
    qe = _fmt(depolarizing_mutual_info(d, p) / 2.0)
    rows = []
    for n in range(1, n_max + 1):
        for eps in eps_values:
            res = depolarizing_cost_lp(n, d, p, eps)
            rows.append(
                (
                    n,
                    repr(eps),
                    _fmt(res.cost_bits),
                    _fmt(res.cost_bits / n),
                    _fmt(res.half_log_trv / n),
                    qe,
                )
            )
    return rows


def _figure3_row(task) -> tuple:
    family, param, d, solver_kw = task
    channel = _make_named_channel(family, d, param, param)
    res = zero_error_cost(channel, **solver_kw)
    return (family, _fmt(param), _fmt(res.half_log_trv))


def _run_tasks(worker, tasks: list, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks, chunksize=8))


def _write_csv(path: str, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_figure2(
    p: float,
    eps_list,
    n_max: int,
    path: str,
    *,
    d: int = 2,
) -> int:
    """Write the per-use depolarizing cost curves to a CSV file.

    One row per blocklength n in 1..n_max and tolerance eps, columns
    n, eps, cost_total_bits, cost_per_use, unceiled_per_use, qe_asymptote.
    All rows are computed before the file is opened, so a failing point
    leaves no partial file behind. Returns the number of rows written.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"figure-2 sweeps need p strictly inside (0, 1), got {p}")
    eps_values = tuple(float(e) for e in eps_list)
    if not eps_values:
        raise ValueError("eps_list must name at least one tolerance")
    rows = _depol_rows(d, p, eps_values, n_max)
    _write_csv(path, _DEPOL_HEADER, rows)
    return len(rows)


def _cmd_depol_scan(cfg: RunConfig) -> int:
    if cfg.p is None:
        raise ValueError("depol-scan requires --p")
    eps = cfg.eps if cfg.eps is not None else 0.0
    rows = _depol_rows(cfg.d, cfg.p, (eps,), cfg.n_max)
    _write_csv(cfg.out, _DEPOL_HEADER, rows)
    print(f"wrote {cfg.out} ({len(rows)} rows)")
    return 0


def _cmd_figure2(cfg: RunConfig) -> int:
    p = cfg.p if cfg.p is not None else 0.15
    count = emit_figure2(p, cfg.eps_list, cfg.n_max, cfg.out, d=cfg.d)
    print(f"wrote {cfg.out} ({count} rows)")
    return 0


def _cmd_figure3(cfg: RunConfig) -> int:
    params = [i / (cfg.grid - 1) for i in range(cfg.grid)]
    families = _FIG3_FAMILIES if cfg.d == 2 else ("depolarizing", "erasure")
    solver_kw = _solver_kw(cfg)
    # Only the first solve writes the problem dump.
    later_kw = dict(solver_kw, dump_path=None)
    tasks = [(fam, param, cfg.d, later_kw) for fam in families for param in params]
    tasks[0] = (*tasks[0][:3], solver_kw)
    rows = _run_tasks(_figure3_row, tasks, cfg.jobs)
    _write_csv(cfg.out, ["family", "param", "cost_bits"], rows)
    print(f"wrote {cfg.out} ({len(rows)} rows)")
    return 0


_HANDLERS = {
    "cost": _cmd_cost,
    "zero-error": _cmd_zero_error,
    "diamond": _cmd_diamond,
    "maxinfo": _cmd_maxinfo,
    "classical-lp": _cmd_classical_lp,
    "depol-scan": _cmd_depol_scan,
    "figure2": _cmd_figure2,
    "figure3": _cmd_figure3,
    "verify": _cmd_verify,
}


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gap-tol", type=float, default=1e-8)
    sub.add_argument("--feas-tol", type=float, default=1e-8)
    sub.add_argument("--max-iter", type=int, default=200)
    sub.add_argument(
        "--dump-problem",
        metavar="PATH",
        default=None,
        help="write the (first) conic problem as JSON before solving",
    )


def _add_jobs_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for figure3 (default: NSCOST_JOBS or 1); "
        "figure2 and depol-scan accept it but compute in process",
    )


def _add_channel_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--family",
        required=True,
        help="channel family name, or @file.json with a Choi matrix",
    )
    sub.add_argument("--d", type=int, default=2)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--r", type=float, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nscost",
        description="Simulation costs of quantum channels under "
        "no-signalling codes.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("cost", help="one-shot eps-error simulation cost")
    _add_channel_flags(sub)
    sub.add_argument("--eps", type=float, default=0.0)
    sub.add_argument("--code", default="ns", help="code class: ns or ns-ppt")
    _add_solver_flags(sub)

    sub = subs.add_parser("zero-error", help="zero-error simulation cost")
    _add_channel_flags(sub)
    _add_solver_flags(sub)

    sub = subs.add_parser("diamond", help="half diamond distance of two channels")
    sub.add_argument("--a", required=True, help="first channel family or @file")
    sub.add_argument("--b", required=True, help="second channel family or @file")
    sub.add_argument("--d", type=int, default=2)
    sub.add_argument("--p", type=float, default=None)
    sub.add_argument("--r", type=float, default=None)
    sub.add_argument("--pb", type=float, default=None, help="--p for channel b")
    sub.add_argument("--rb", type=float, default=None, help="--r for channel b")
    _add_solver_flags(sub)

    sub = subs.add_parser("maxinfo", help="(smooth) channel max-information")
    _add_channel_flags(sub)
    sub.add_argument("--eps", type=float, default=None)
    _add_solver_flags(sub)

    sub = subs.add_parser("classical-lp", help="classical channel cost LP")
    sub.add_argument(
        "--matrix",
        required=True,
        help="row-stochastic matrix: 'a,b;c,d' or @file.json",
    )
    sub.add_argument("--eps", type=float, default=0.0)
    _add_solver_flags(sub)

    sub = subs.add_parser("depol-scan", help="depolarizing LP blocklength sweep")
    sub.add_argument("--d", type=int, default=2)
    sub.add_argument("--p", type=float, required=True)
    sub.add_argument("--eps", type=float, required=True)
    sub.add_argument("--n-max", type=int, default=300)
    sub.add_argument("--out", required=True)
    _add_jobs_flag(sub)

    sub = subs.add_parser("figure2", help="per-use cost curves CSV")
    sub.add_argument("--p", type=float, default=0.15)
    sub.add_argument("--eps-list", default=None, help="comma-separated tolerances")
    sub.add_argument("--n-max", type=int, default=300)
    sub.add_argument("--d", type=int, default=2)
    sub.add_argument("--out", required=True)
    _add_jobs_flag(sub)

    sub = subs.add_parser("figure3", help="zero-error cost of the four families")
    sub.add_argument("--d", type=int, default=2)
    sub.add_argument("--grid", type=int, default=101)
    sub.add_argument("--out", required=True)
    _add_solver_flags(sub)
    _add_jobs_flag(sub)

    sub = subs.add_parser("verify", help="closed form vs solver vs certificate")
    _add_channel_flags(sub)
    _add_solver_flags(sub)

    return parser


def run(argv) -> int:
    """Execute one CLI invocation and return its exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[cfg.subcommand](cfg)
    except SolverFailure as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
