"""Spans around the calls into each nscost layer, for the traced run only.

The tracer wraps public functions at the boundaries where one layer calls the
next, by replacing module attributes for the duration of a traced round and
restoring them afterwards:

- ``cli``: the benchmark opens a root span around each ``cli.run(argv)``.
- ``programs``/``symmetry``/``analytic``: the entry points as ``cli`` calls
  them (the names bound in ``nscost.cli``), and the library calls the
  benchmark makes itself.
- ``qmat``: ``make_channel`` as ``cli`` calls it, and every
  ``QuantumChannel`` construction (its validating ``__post_init__``).
- ``build``: ``HermitianProgram.build``, charged to the layer that called it.
- ``conic.lp``/``conic.sdp``: ``conic.solve`` as ``programs`` and
  ``symmetry`` call it, split by whether the problem has a PSD block.

No span goes inside the program. Spans are kept in memory; a layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    op: int
    layer: str
    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = field(default=None, repr=False)
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Records spans of one traced round, grouped by operation index."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = -1

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        parent = self._stack[-1] if self._stack else None
        if layer == "build":
            layer = parent.layer if parent else "programs"
            name = "build"
        sp = Span(self.op, layer, name, time.perf_counter(), parent=parent)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.end - sp.start
            self.spans.append(sp)

    def wrap(self, fn, layer: str, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer, name) as sp:
                out = fn(*args, **kwargs)
                if layer == "conic":
                    _record_solve(sp, args[0] if args else kwargs["problem"], out)
                elif sp.name == "build":
                    sp.info["problem"] = out
                return out

        return traced


def _record_solve(sp: Span, problem, solution) -> None:
    sdp_sizes = [b.size for b in problem.blocks if b.kind == "sdp"]
    sp.layer = "conic.sdp" if sdp_sizes else "conic.lp"
    sp.info = {
        "m": len(problem.constraints),
        "sdp_sizes": sdp_sizes,
        "iterations": int(solution.iterations),
    }


_PROGRAMS = (
    "one_shot_cost_ns",
    "one_shot_cost_ns_ppt",
    "zero_error_cost",
    "diamond_norm_dist",
    "max_information",
    "smooth_max_information",
    "verify_certificate",
)
_SYMMETRY = {"depolarizing_cost_lp": "lp", "classical_cost_lp": "classical"}
_ANALYTIC = ("closed_form_cost", "certificate")


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace the layer-boundary functions with traced ones, then restore."""
    import nscost.cli
    import nscost.conic
    import nscost.programs
    import nscost.qmat
    import nscost.symmetry

    patches = [(nscost.cli, name, "programs", name) for name in _PROGRAMS]
    patches += [(nscost.cli, name, "symmetry", kind) for name, kind in _SYMMETRY.items()]
    patches += [(nscost.cli, name, "analytic", name) for name in _ANALYTIC]
    patches += [
        (nscost.cli, "make_channel", "qmat", "make_channel"),
        (nscost.qmat.QuantumChannel, "__post_init__", "qmat", "channel"),
        (nscost.conic.HermitianProgram, "build", "build", "build"),
        (nscost.programs, "solve", "conic", "solve"),
        (nscost.symmetry, "solve", "conic", "solve"),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in patches]
    try:
        for owner, attr, layer, name in patches:
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), layer, name))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _problem_shape(problem) -> tuple[int, int, int]:
    """(rows, real PSD order, nonzero coefficients) of a built ConicProblem."""
    psd = sum(b.size for b in problem.blocks if b.kind == "sdp")
    nnz = 0
    for con in problem.constraints:
        for entry in con.coeffs:
            if entry is not None:
                nnz += int(np.count_nonzero(entry))
    return len(problem.constraints), psd, nnz


def schur_flops(m: int, sdp_sizes, iterations: int) -> float:
    """Computed flops of the dense Schur path: per iteration, W A_i W for
    every row and PSD block (two n^3 products each), the m x m inner
    products per block, and the Cholesky factorization of the m x m matrix."""
    per_iter = sum(4.0 * m * n**3 + 2.0 * m * m * n * n for n in sdp_sizes)
    return iterations * (per_iter + m**3 / 3.0)


LAYER_METRICS = {
    "cli.ops": "count",
    "cli.self_s": "s",
    "cli.pool_wait_s": "s",
    "cli.pool_speedup": "ratio",
    "qmat.channels": "count",
    "qmat.channel_s": "s",
    "programs.calls": "count",
    "programs.self_s": "s",
    "programs.build_s": "s",
    "programs.rows": "count",
    "programs.psd_order": "count",
    "programs.coeff_nnz": "count",
    "symmetry.lp_calls": "count",
    "symmetry.lp_s": "s",
    "symmetry.solves_per_lp": "ratio",
    "symmetry.classical_s": "s",
    "analytic.s": "s",
    "conic.lp.solves": "count",
    "conic.lp.iterations": "count",
    "conic.lp.solve_s": "s",
    "conic.lp.ms_per_iter": "ms",
    "conic.sdp.solves": "count",
    "conic.sdp.iterations": "count",
    "conic.sdp.solve_s": "s",
    "conic.sdp.ms_per_iter": "ms",
    "conic.sdp.schur_flops": "count",
    "trace.overhead_s": "s",
}


def layer_totals(spans: list[Span], pool_ops: set[int]) -> dict[str, float]:
    """Per-layer totals of one traced round (counts, self times, shapes).

    Root spans of operations in pool_ops wait on worker processes whose own
    spans are not seen here; their time is reported as cli.pool_wait_s.
    """
    t = {name: 0.0 for name in LAYER_METRICS}
    for sp in spans:
        layer, name, self_s = sp.layer, sp.name, sp.self_s
        if layer == "cli":
            t["cli.ops"] += 1
            key = "cli.pool_wait_s" if sp.op in pool_ops else "cli.self_s"
            t[key] += self_s
        elif layer == "qmat":
            t["qmat.channel_s"] += self_s
            t["qmat.channels"] += name == "channel"
        elif layer == "programs":
            t["programs.self_s"] += self_s
            if name == "build":
                t["programs.build_s"] += self_s
                rows, psd, nnz = _problem_shape(sp.info["problem"])
                t["programs.rows"] += rows
                t["programs.psd_order"] += psd
                t["programs.coeff_nnz"] += nnz
            else:
                t["programs.calls"] += 1
        elif layer == "symmetry":
            if _in_lp(sp):
                t["symmetry.lp_s"] += self_s
                t["symmetry.lp_calls"] += name == "lp"
            else:
                t["symmetry.classical_s"] += self_s
        elif layer == "analytic":
            t["analytic.s"] += self_s
        elif layer in ("conic.lp", "conic.sdp"):
            t[f"{layer}.solves"] += 1
            t[f"{layer}.iterations"] += sp.info["iterations"]
            t[f"{layer}.solve_s"] += self_s
            if layer == "conic.sdp":
                t["conic.sdp.schur_flops"] += schur_flops(
                    sp.info["m"], sp.info["sdp_sizes"], sp.info["iterations"]
                )
            elif _in_lp(sp):
                # A count of solves here; layer_metrics divides by the LPs.
                t["symmetry.solves_per_lp"] += 1
    return t


def _in_lp(sp: Span) -> bool:
    """Whether the span sits under a depolarizing sector-LP call."""
    while sp is not None:
        if sp.layer == "symmetry" and sp.name == "lp":
            return True
        sp = sp.parent
    return False


def span_records(spans: list[Span], round_index: int) -> list[dict]:
    """Spans as JSON-ready records; parents are given by position."""
    index = {id(sp): i for i, sp in enumerate(spans)}
    return [
        {
            "round": round_index,
            "op": sp.op,
            "layer": sp.layer,
            "name": sp.name,
            "start": sp.start,
            "end": sp.end,
            "self_s": sp.self_s,
            "parent": index.get(id(sp.parent)),
        }
        for sp in spans
    ]


def self_time_by_op(spans: list[Span]) -> dict[int, float]:
    """Sum of the self times of every span of each operation."""
    out: dict[int, float] = {}
    for sp in spans:
        out[sp.op] = out.get(sp.op, 0.0) + sp.self_s
    return out


def layer_metrics(
    rounds: list[dict[str, float]], overhead_s: float, pool_speedup: float
) -> dict[str, float]:
    """Average the per-round totals of the traced rounds into the reported
    per-layer metrics; ratios are taken of the averaged totals."""
    n = len(rounds)
    avg = {k: sum(r[k] for r in rounds) / n for k in rounds[0]}
    lp_calls = avg["symmetry.lp_calls"]
    avg["symmetry.solves_per_lp"] = (
        avg["symmetry.solves_per_lp"] / lp_calls if lp_calls else 0.0
    )
    for kind in ("lp", "sdp"):
        iters = avg[f"conic.{kind}.iterations"]
        avg[f"conic.{kind}.ms_per_iter"] = (
            1000.0 * avg[f"conic.{kind}.solve_s"] / iters if iters else 0.0
        )
    avg["cli.pool_speedup"] = pool_speedup
    avg["trace.overhead_s"] = overhead_s
    return {name: avg[name] for name in LAYER_METRICS}
