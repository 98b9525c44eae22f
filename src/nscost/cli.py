"""Command-line front end for channel-simulation costs.

Subcommands:
    cost          one-shot simulation cost of a channel (NS or NS+PPT codes)
    zero-error    zero-error simulation cost
    diamond       half diamond-norm distance between two channels
    maxinfo       (smooth) channel max-information
    classical-lp  simulation cost of a classical channel
    depol-scan    blocklength sweep of the depolarizing cost at one tolerance
    figure2       per-use depolarizing cost curves at three tolerances (CSV)
    figure3       zero-error cost of the four closed-form families (CSV)
    verify        closed form vs solver vs certificate for one channel

Channels are named by family (identity, depolarizing, amplitude-damping,
dephasing, erasure) with parameters --d/--p/--r, or loaded from a JSON Choi
file given as @path with keys {dim_in, dim_out, re, im}. A named channel of
the depolarizing family (identity is p = 0) at d >= 2 is priced from its
Bell spectrum in cost (NS codes), zero-error, maxinfo and diamond, with no
solve; other channels, NS+PPT costs and verify go through `programs`.
Exit codes: 0 on success, 1 when `verify` finds a mismatch, 2 on usage
errors, 3 on solver failures.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import os
import sys

import numpy as np

from .analytic import certificate, closed_form_cost
from .conic import SolverFailure, dump_problem, solver_options
from .programs import (
    CostResult,
    _diamond_program,
    _eps_simulation_program,
    _m_star_bits,
    _normalize_code,
    _zero_error_program,
    diamond_norm_dist,
    max_information,
    one_shot_cost_ns,
    one_shot_cost_ns_ppt,
    smooth_max_information,
    verify_certificate,
    zero_error_cost,
    zero_error_costs,
)
from .qmat import QUBIT_ONLY_FAMILIES, QuantumChannel, _unit_interval, make_channel
from .symmetry import (
    classical_cost_lp,
    depolarizing_cost_lp,
    depolarizing_diamond_dist,
    depolarizing_log2_trv,
    depolarizing_mutual_info,
)

_FIG2_EPS = (5e-4, 5e-3, 5e-2)
_FIG3_FAMILIES = ("depolarizing", "amplitude_damping", "dephasing", "erasure")


_SOLVER_FLAGS = ("gap_tol", "feas_tol", "max_iter", "dump_path")


def _validate(args: argparse.Namespace) -> None:
    """Make the checks argparse cannot, filling in --jobs and --eps-list."""
    if "jobs" in args:
        if args.jobs is None:
            args.jobs = int(os.environ.get("NSCOST_JOBS", "1"))
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if "eps_list" in args:
        # An omitted flag takes the defaults; an empty one names no tolerance,
        # which emit_figure2 rejects.
        if args.eps_list is None:
            args.eps_list = _FIG2_EPS
        elif args.eps_list:
            args.eps_list = tuple(float(tok) for tok in args.eps_list.split(","))
        else:
            args.eps_list = ()
    if "n_max" in args and args.n_max < 1:
        raise ValueError(f"--n-max must be at least 1, got {args.n_max}")
    if "grid" in args and args.grid < 2:
        raise ValueError(f"--grid needs at least two points, got {args.grid}")


def _solver_kw(args: argparse.Namespace) -> dict:
    """The solver flags that were given; `conic.solve` defaults the rest."""
    return {name: getattr(args, name) for name in _SOLVER_FLAGS if name in args}


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


def _family_name(name: str) -> str:
    """make_channel's spelling of a family name: amplitude-damping is amplitude_damping."""
    return name.strip().lower().replace("-", "_")


def _make_named_channel(
    name: str, d: int, p: float | None, r: float | None
) -> QuantumChannel:
    if name.startswith("@"):
        return _load_choi_file(name[1:])
    family = _family_name(name)
    if family == "identity":
        return make_channel("identity", d=d)
    if family in ("depolarizing", "erasure", "dephasing"):
        if p is None:
            raise ValueError(f"family {family} requires --p")
        return make_channel(family, d=d, p=p)
    if family == "amplitude_damping":
        if r is None:
            raise ValueError("family amplitude_damping requires --r")
        return make_channel("amplitude_damping", d=d, r=r)
    raise ValueError(f"unknown channel family {name!r}")


def _depolarizing_p(name: str, d: int, p: float | None) -> float | None:
    """The depolarizing parameter of a named channel of the depolarizing
    family: --p for depolarizing, checked, and 0 for identity.

    None for every other channel, for depolarizing without --p and for
    d < 2; the general programs price these, and report a missing --p.
    """
    family = _family_name(name)
    if d < 2 or family not in ("identity", "depolarizing"):
        return None
    if family == "identity":
        return 0.0
    return None if p is None else _unit_interval("p", p)


def _without_solve(args: argparse.Namespace, program) -> None:
    """What the general path does before its solve, for a query answered
    from the Bell spectrum: write the unsolved program that `program()`
    states to --dump-problem, and check the solver flags."""
    solver_kw = _solver_kw(args)
    dump_path = solver_kw.pop("dump_path", None)
    if dump_path is not None:
        dump_problem(program().build(), dump_path)
    solver_options(**solver_kw)


def _spectrum_cost(
    args: argparse.Namespace, eps: float, code: str = "NS"
) -> CostResult | None:
    """The cost at eps of a channel of the depolarizing family under NS
    codes, by waterfilling its Bell spectrum, or None for any other channel
    or code class. The channel is checked before the code class, as on the
    general path."""
    p = _depolarizing_p(args.family, args.d, args.p)
    if p is None or _normalize_code(code) != "NS":
        return None
    # Called through this module's name: perfbench's tracer wraps it.
    res = depolarizing_cost_lp(1, args.d, p, eps)

    def program():
        channel = _make_named_channel(args.family, args.d, args.p, args.r)
        if eps == 0.0:
            return _zero_error_program(channel)[0]
        return _eps_simulation_program(channel, eps)

    _without_solve(args, program)
    return res


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
    """Six decimals; a value that rounds to zero prints as 0.000000, never
    -0.000000."""
    return f"{value:z.6f}"


def _cost_line(res: CostResult) -> str:
    return (
        f"tr_v={_fmt(res.tr_v_opt)} cost_bits={_fmt(res.cost_bits)} "
        f"delta={_fmt(res.delta)} m_star={res.m_star} "
        f"half_log_trv={_fmt(res.half_log_trv)}"
    )


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_cost(args: argparse.Namespace) -> int:
    res = _spectrum_cost(args, args.eps, args.code)
    if res is None:
        channel = _make_named_channel(args.family, args.d, args.p, args.r)
        # Read from this module's names at each call: perfbench's tracer wraps them.
        code = _normalize_code(args.code)
        cost = one_shot_cost_ns if code == "NS" else one_shot_cost_ns_ppt
        res = cost(channel, args.eps, **_solver_kw(args))
    print(_cost_line(res))
    return 0


def _cmd_zero_error(args: argparse.Namespace) -> int:
    res = _spectrum_cost(args, 0.0)
    if res is None:
        channel = _make_named_channel(args.family, args.d, args.p, args.r)
        res = zero_error_cost(channel, **_solver_kw(args))
    print(_cost_line(res))
    return 0


def _cmd_diamond(args: argparse.Namespace) -> int:
    p_b = args.p if args.pb is None else args.pb
    r_b = args.r if args.rb is None else args.rb
    first = functools.partial(_make_named_channel, args.a, args.d, args.p, args.r)
    second = functools.partial(_make_named_channel, args.b, args.d, p_b, r_b)
    p_first = _depolarizing_p(args.a, args.d, args.p)
    p_second = None if p_first is None else _depolarizing_p(args.b, args.d, p_b)
    if p_second is None:
        value = diamond_norm_dist(first(), second(), **_solver_kw(args))
    else:
        value = depolarizing_diamond_dist(args.d, p_first, p_second)
        _without_solve(args, lambda: _diamond_program(first(), second()))
    print(f"half_diamond_dist={_fmt(value)}")
    return 0


def _cmd_maxinfo(args: argparse.Namespace) -> int:
    # An omitted or zero --eps asks for the plain max-information.
    res = _spectrum_cost(args, args.eps or 0.0)
    if res is not None:
        value = 2.0 * res.half_log_trv  # log2 tr V
    else:
        channel = _make_named_channel(args.family, args.d, args.p, args.r)
        if not args.eps:
            value = max_information(channel, **_solver_kw(args))
        else:
            value = smooth_max_information(channel, args.eps, **_solver_kw(args))
    print(f"i_max={_fmt(value)}")
    return 0


def _cmd_classical_lp(args: argparse.Namespace) -> int:
    res = classical_cost_lp(_parse_matrix(args.matrix), args.eps, **_solver_kw(args))
    print(_cost_line(res))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    family = _family_name(args.family)
    param = args.r if family == "amplitude_damping" else args.p
    if param is None:
        raise ValueError("verify requires the family's noise parameter (--p or --r)")
    form = closed_form_cost(family, param, args.d)
    channel = _make_named_channel(args.family, args.d, args.p, args.r)
    solved = zero_error_cost(channel, **_solver_kw(args))
    check = verify_certificate(channel, certificate(family, param, args.d))
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


_DEPOL_HEADER = "n,eps,cost_total_bits,cost_per_use,unceiled_per_use,qe_asymptote"


def _depol_rows(d: int, p: float, eps_values, n_max: int) -> list[str]:
    """The CSV lines of a depolarizing sweep, read off its log2 tr V table
    with `cost_result_from_trv`'s rule: tr V = 2^x, half_log_trv = x / 2."""
    # One sweep waterfills every blocklength and tolerance from a few 2-D
    # tables of Bell-spectrum groups; figure2's 900 points to n = 300 take
    # under 10 ms, so the rows are computed in process: a worker pool would
    # cost more to start than it saves.
    qe = _fmt(depolarizing_mutual_info(d, p) / 2.0)
    table = depolarizing_log2_trv(n_max, d, p, eps_values).tolist()
    eps_reprs = [repr(eps) for eps in eps_values]
    lines = []
    for n, row in enumerate(table, 1):
        for eps, x in zip(eps_reprs, row):
            bits = _m_star_bits(2.0**x)[1]
            lines.append(f"{n},{eps},{bits:.6f},{bits / n:.6f},{0.5 * x / n:.6f},{qe}")
    return lines


def _figure3_rows(task) -> list[str]:
    """The CSV lines of one family: its grid of channels, solved as one batch."""
    family, params, d, solver_kw = task
    channels = [_make_named_channel(family, d, param, param) for param in params]
    costs = zero_error_costs(channels, **solver_kw)
    return [f"{family},{_fmt(p)},{_fmt(c.half_log_trv)}" for p, c in zip(params, costs)]


def _run_tasks(worker, tasks: list, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _write_csv(path: str, header: str, lines: list[str]) -> None:
    """Write a CSV file in one call. No field needs quoting: each is a
    number, the repr of a float or a family name."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([header, *lines, ""]))


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
    n, eps, cost_total_bits, cost_per_use, unceiled_per_use, qe_asymptote;
    a tolerance that eps_list repeats is rejected, as it would repeat rows.
    All rows are computed before the file is opened, so a failing point
    leaves no partial file behind. Returns the number of rows written.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"figure-2 sweeps need p strictly inside (0, 1), got {p}")
    eps_values = tuple(float(e) for e in eps_list)
    if not eps_values:
        raise ValueError("eps_list must name at least one tolerance")
    for i, eps in enumerate(eps_values):
        if eps in eps_values[:i]:
            raise ValueError(f"eps_list repeats the tolerance {eps!r}")
    rows = _depol_rows(d, p, eps_values, n_max)
    _write_csv(path, _DEPOL_HEADER, rows)
    return len(rows)


def _cmd_depol_scan(args: argparse.Namespace) -> int:
    rows = _depol_rows(args.d, args.p, (args.eps,), args.n_max)
    _write_csv(args.out, _DEPOL_HEADER, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    count = emit_figure2(args.p, args.eps_list, args.n_max, args.out, d=args.d)
    print(f"wrote {args.out} ({count} rows)")
    return 0


def _cmd_figure3(args: argparse.Namespace) -> int:
    params = [i / (args.grid - 1) for i in range(args.grid)]
    families = [f for f in _FIG3_FAMILIES if args.d == 2 or f not in QUBIT_ONLY_FAMILIES]
    solver_kw = _solver_kw(args)
    # One task per family, so the batches are the same at any --jobs. Only
    # the first family dumps its (first) problem.
    later_kw = {k: v for k, v in solver_kw.items() if k != "dump_path"}
    tasks = [
        (fam, params, args.d, later_kw if i else solver_kw)
        for i, fam in enumerate(families)
    ]
    rows = [row for rows in _run_tasks(_figure3_rows, tasks, args.jobs) for row in rows]
    _write_csv(args.out, "family,param,cost_bits", rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
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
    # A flag that is not given is not passed on: conic.solve's default holds.
    sub.add_argument("--gap-tol", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--feas-tol", type=float, default=argparse.SUPPRESS)
    sub.add_argument("--max-iter", type=int, default=argparse.SUPPRESS)
    sub.add_argument(
        "--dump-problem",
        dest="dump_path",
        metavar="PATH",
        default=argparse.SUPPRESS,
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: parsing only reads it."""
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

    sub = subs.add_parser("depol-scan", help="depolarizing cost blocklength sweep")
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
    """Execute one CLI invocation and return its exit code.

    The parser is built once per process, at the first call."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        _validate(args)
        return _HANDLERS[args.subcommand](args)
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
