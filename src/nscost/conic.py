"""Block-structured conic solver: PSD and LP cones, primal-dual interior point.

Problems are stated in standard form over a block-diagonal cone (PSD blocks
and nonnegative-orthant blocks),

    minimize  <C, X>  subject to  <A_i, X> = b_i  (or <= b_i),  X in cone,

with <A, X> = Re tr(A X), and solved with a Nesterov-Todd scaled Mehrotra
predictor-corrector method. Inequality rows are converted internally to
equalities with one nonnegative slack each. Step lengths come from the NT
factors: with G X G^H = I, the step to the boundary along dX is
-1/lambda_min(G dX G^H), one eigvalsh call per group of PSD blocks (see
below) for both sides.

There is one path for real and complex data. A PSD block is real symmetric
(float64) when every entry given for it is real, and complex Hermitian
(complex128) otherwise. The method is the same for both: transposes are
conjugate transposes, and <A, X> is the dot product of the float64 views of
the flattened matrices. The Schur matrix and the Newton rhs are therefore
real, and on real blocks the views are the arrays themselves, so real data
run the same arithmetic as a real-only solver. The builder
:class:`HermitianProgram` states programs as linear matrix inequalities
over real parameters, passes their Lagrange duals to this form, and gives
them real blocks whenever the data allow it. It works on whole stacks: maps
act on the last axes, once per variable's stack of basis elements
(:meth:`Affine.map`), and `build` tests and stores each stack as it is.

Standardized form. :class:`ConicProblem` takes per block the rows that
give it an entry and those entries stacked, from the builder or gathered
from rows, and checks them once into one read-only stack per block group:
(m, k, n, n) for the k PSD blocks of one size n and dtype, (m, total) for
the LP blocks side by side. The solver runs on those stacks: a PSD group's
blocks share one iterate array, (batch, k, n, n), and every LP block
shares one (batch, total) array with a slack for each inequality row. The
instance is axis 0 of every per-instance array, so a block is a[:, j] and
an instance a[k]. The block group is the unit of all work: the NT
scaling, the corrector, the step lengths, the updates, the inner products
and the products with the constraint data (A x, A^T y, the Newton rhs) run
once per group, the latter over its stack, beside which the LP group
keeps the slack's unit columns. Sums over groups add their terms in group
order, the order in which each group's first block appears: block order,
when each PSD group holds one block.

Schur matrix. With W = R R^H on a PSD block, Re tr(A_i W A_j W) is the dot
product of svec(R^H A_i R) and svec(R^H A_j R), so from _GRAM_MIN_ROWS rows
on the PSD part of M = A W A^T is one Gram product G G^T per instance (BLAS
syrk), each block filling G only on the rows that touch it (Fujisawa,
Kojima & Nakata 1997; the svec form of SDPT3). Smaller problems, whose cost
is the number of numpy calls, add one W A_i W term per group instead. The
LP group adds A diag(x/s) A^T, and every M takes one dense Cholesky factor.

Safeguard. When a step's iterate fails its Cholesky factorization (or an LP
entry is not positive), that instance's step on the failing side shrinks by
_BACKTRACK, at most _BACKTRACKS times, before SolverFailure is raised. The
accepted factors serve the next NT scaling, so a run without such a failure
takes the same steps as without the safeguard, with one more factorization:
that of its last iterate.

Batches. :func:`solve_many` solves a list of problems. It groups those
whose blocks, senses and coefficient stacks (dtype and bytes) are equal
(objectives and rhs may differ) and runs each group in lockstep: every
iterate carries the leading batch axis, one entry per instance, so each
iteration does its block algebra once for the whole group. Each instance
keeps its own mu, sigma, step lengths, certificate tests, status and
iterate trace, and leaves the batch when it terminates. The m x m Schur
factorizations and solves (LAPACK potrf/potrs) run one instance at a time,
the products with the constraint data are formed per instance, and each
instance shrinks its own steps, so an instance's arithmetic does not
depend on the batch around it: solve_many gives bitwise the results of
:func:`solve`, which is solve_many on a batch of one.

The solver is deterministic: no randomness anywhere, so identical inputs give
bitwise-identical iterate sequences.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "Affine",
    "Block",
    "ConicProblem",
    "ConicSolution",
    "Constraint",
    "HermitianProgram",
    "IterateRecord",
    "SolverFailure",
    "problem_from_json",
    "problem_to_json",
    "solution_to_json",
    "solve",
    "solve_many",
    "solver_options",
]

_STEP_TO_BOUNDARY = 0.98
# A step whose iterate fails its Cholesky factorization shrinks by this
# factor, at most this many times.
_BACKTRACK = 0.8
_BACKTRACKS = 30
# From this many rows on, the Schur matrix is assembled as a Gram product
# (see _SchurSolver).
_GRAM_MIN_ROWS = 60
_BIG_STEP = 1e16
# The LAPACK routines behind scipy's cho_factor and cho_solve, called without
# their input checks.
_POTRF, _POTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs"), dtype=np.float64)


class SolverFailure(RuntimeError):
    """Raised on numerical breakdown or when a required solve does not finish."""

    def __init__(self, message: str, status: str = "breakdown"):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class Block:
    """One cone block: 'sdp' for a PSD block, 'lp' for a nonnegative vector."""

    kind: str
    size: int

    def __post_init__(self) -> None:
        if self.kind not in ("sdp", "lp"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("block size must be positive")


@dataclass(frozen=True)
class Constraint:
    """One scalar constraint sum_b <coeffs[b], X_b> (sense) rhs."""

    coeffs: tuple
    rhs: float
    sense: str = "eq"


class ConicProblem:
    """Standard-form block problem; see the module docstring.

    `objective` and each constraint's `coeffs` are sequences parallel to
    `blocks`; entries are (n, n) Hermitian arrays for SDP blocks (real or
    complex), length-n real vectors for LP blocks, or None for absent blocks.

    The coefficients are stored once, per block group, and `_stacks` holds
    each block's view; see :func:`_validated`. `constraints` is made when
    first read, with views of the stacks as `coeffs`. The objective keeps
    its entries. :meth:`with_objective` makes the same problem with another
    objective, sharing this one's stored constraint data.
    """

    def __init__(self, blocks, objective, constraints, maximize: bool = False):
        blocks = tuple(blocks)
        constraints = tuple(constraints)  # read once: it may be an iterator
        coeffs, errors = _by_block(blocks, [tuple(objective), *(c.coeffs for c in constraints)])
        self._set(blocks, coeffs, [c.rhs for c in constraints],
                  [c.sense for c in constraints], maximize, errors)

    def _set(self, blocks, coeffs, rhs, senses, maximize, errors=()) -> None:
        """Store per-block pieces, as HermitianProgram.build hands them over."""
        self.blocks, self.maximize = blocks, maximize
        self._rhs, self._le = np.array(rhs, dtype=float), np.array(senses) == "le"
        self.objective, self._groups, self._places, self._given = _validated(
            blocks, coeffs, rhs, senses, errors)
        self._stacks = tuple(self._groups[gi][2][:, i] for gi, i in self._places)

    def with_objective(self, objective) -> ConicProblem:
        """This problem with `objective`, a sequence parallel to `blocks`, in
        place of its own: the objective-only constructor.

        The new problem shares this one's read-only group stacks, rhs,
        senses and given-masks, so only the objective is checked, by the
        checks :func:`_validated` makes on it (see :func:`_entries`): shape,
        finite, Hermitian to 1e-10 relative, made Hermitian. A block keeps
        its dtype: on a real PSD block an entry must pass the conjugation
        test of :class:`HermitianProgram`, and its real part is kept.
        """
        coeffs, errors = _by_block(self.blocks, [tuple(objective)])
        entries = [None] * len(self.blocks)
        for bi, (block, stack, pieces) in enumerate(zip(self.blocks, self._stacks, coeffs)):
            for rows, part in pieces:
                entries[bi] = _frozen(_entries(block, rows, part, stack.dtype.kind != "c",
                                               bi, errors)[0])
        _raise_first(errors)
        problem = copy.copy(self)
        problem.objective = tuple(entries)
        return problem

    @functools.cached_property
    def constraints(self) -> tuple:
        given = [g.tolist() for g in self._given]
        return tuple(
            Constraint(tuple(s[i] if g[i] else None for s, g in zip(self._stacks, given)),
                       rhs, "le" if le else "eq")
            for i, (rhs, le) in enumerate(zip(self._rhs.tolist(), self._le.tolist()))
        )


def _by_block(blocks: tuple, rows: list) -> tuple:
    """The objective and the constraints' entries, `rows`, as pieces per
    block for :func:`_validated`, one per dtype (real or complex); and the
    errors of rows of the wrong length and entries of the wrong shape."""
    errors, given = [], [{} for _ in blocks]  # per block: complex or not -> [(row, entry)]
    for r, row in enumerate(rows):
        if len(row) != len(blocks):
            errors.append((r, -1, f": expected {len(blocks)} block entries, got {len(row)}"))
            continue
        for bi, (block, e) in enumerate(zip(blocks, row)):
            if e is None:
                continue
            sdp = block.kind == "sdp"
            a = np.asarray(e) if sdp else np.asarray(e, dtype=float).reshape(-1)
            if a.shape != (block.size,) * (2 if sdp else 1):
                what = "SDP entry shape" if sdp else "LP entry length"
                errors.append((r, bi, f": {what} {a.shape} != block size"))
                continue
            given[bi].setdefault(a.dtype.kind == "c", []).append((r, a))
    return [[(np.array([r for r, _ in ra]), np.array([a for _, a in ra], complex if c else float))
             for c, ra in pieces.items()] for pieces in given], errors


def _validated(blocks: tuple, coeffs: list, rhs, senses, errors) -> tuple:
    """The objective's entries, the block groups, each block's place in
    them (group, index) and which rows give each block an entry.

    `coeffs` holds per block its pieces (rows, stack): rows in increasing
    order, 0 for the objective and r + 1 for constraint r, and their entries
    in one dtype, made Hermitian in it. The groups, in order of their first
    block, are (PSD, members, stack), read-only and zero where no entry is
    given: (m, k, n, n) for the PSD blocks of one size and dtype (complex
    when a piece is), and (m, total) for the LP blocks side by side, even
    none when only the slack of "le" rows needs the group. Bad data raise
    the error of the first bad entry in row order, after any of senses and
    rhs; `errors` holds those found before, as (row, block or -1, message).
    """
    for sense, b in zip(senses, rhs):
        if sense not in ("eq", "le"):
            raise ValueError(f"unknown constraint sense {sense!r}")
        if not math.isfinite(b):
            raise ValueError("constraint rhs must be finite")
    m, errors, keys = len(rhs), list(errors), {}  # (PSD, size, dtype) -> blocks
    for bi, (block, pieces) in enumerate(zip(blocks, coeffs)):
        sdp = block.kind == "sdp"
        dtype = complex if sdp and any(a.dtype.kind == "c" for _, a in pieces) else float
        keys.setdefault((sdp, block.size if sdp else 0, dtype), []).append(bi)
    if "le" in senses:
        keys.setdefault((False, 0, float), [])
    groups, places = [], [None] * len(blocks)
    for gi, ((sdp, n, dtype), members) in enumerate(keys.items()):
        ends = np.cumsum([0] + [blocks[bi].size for bi in members]).tolist()
        index = range(len(members)) if sdp else map(slice, ends, ends[1:])
        for bi, i in zip(members, index):
            places[bi] = (gi, i)
        shape = (len(members), n, n) if sdp else (ends[-1],)
        groups.append((sdp, members, np.zeros((m, *shape), dtype)))
    objective, given = [None] * len(blocks), [np.zeros(m, dtype=bool) for _ in blocks]
    for bi, (block, pieces) in enumerate(zip(blocks, coeffs)):
        gi, i = places[bi]
        stack = groups[gi][2]
        for rows, part in pieces:
            part = _entries(block, rows, part, stack.dtype.kind != "c", bi, errors)
            if len(rows) and rows[0] == 0:  # the objective, in its own dtype
                objective[bi] = _frozen(part[0])
                rows, part = rows[1:], part[1:]
            stack[rows - 1, i] = part
            given[bi][rows - 1] = True
    for r in np.flatnonzero(~functools.reduce(np.logical_or, given, np.zeros(m, dtype=bool))):
        errors.append((r + 1, len(blocks), " has no coefficients"))
    _raise_first(errors)
    for _, _, stack in groups:
        stack.setflags(write=False)
    return tuple(objective), tuple(groups), tuple(places), tuple(given)


def _entries(block: Block, rows, part: np.ndarray, real: bool, bi: int, errors: list):
    """The entries `part` that `rows` give block `bi`, checked: each in its
    own dtype, or real when `real` says the block's group is, and made
    Hermitian on a PSD block. The errors of entries that are not finite,
    not Hermitian, or complex on a real block (their imaginary part fails
    the conjugation test of :class:`HermitianProgram`; the real part of
    any other is kept) go to `errors`, as :func:`_validated` lists them.
    """
    sdp = block.kind == "sdp"
    part = np.asarray(part, complex if sdp and part.dtype.kind == "c" else float)
    # The tests' scale, max(1, max |entry|), is NaN where an entry is not finite.
    scale = _scale(part) if sdp else None
    finite = np.isfinite(part) if scale is None or np.isnan(scale).any() else None
    bad = () if finite is None else np.flatnonzero(~finite.all(axis=tuple(range(1, part.ndim))))
    what = f": {block.kind.upper()} entry is not finite"
    errors.extend((rows[k], bi, what) for k in bad)
    if not sdp:
        return part
    if len(bad):
        part = np.where(finite, part, 0.0)
        scale = _scale(part)
    if real and part.dtype.kind == "c":
        for k in np.flatnonzero(_large(part.imag, scale)):
            errors.append((rows[k], bi, ": SDP entry is complex on a real block"))
        part = part.real
    for k in np.flatnonzero(_large(part - _h(part), scale)):
        errors.append((rows[k], bi, ": SDP entry is not Hermitian"))
    return _sym(part)


def _frozen(entry: np.ndarray) -> np.ndarray:
    """A read-only copy of an objective entry."""
    entry = entry.copy()
    entry.setflags(write=False)
    return entry


def _raise_first(errors: list) -> None:
    """Raise the error of the first bad entry in row order, if any: errors
    are (row, block or -1, message), row 0 the objective and r + 1
    constraint r."""
    if errors:
        r, _, msg = min(errors, key=lambda e: e[:2])
        raise ValueError((f"constraint {r - 1}" if r else "objective") + msg)


@dataclass(frozen=True)
class IterateRecord:
    """Per-iteration diagnostics, recorded before the step is taken."""

    iteration: int
    primal_value: float
    dual_value: float
    mu: float
    primal_residual: float
    dual_residual: float


@dataclass(frozen=True)
class ConicSolution:
    status: str
    primal_value: float
    dual_value: float
    gap: float
    primal_blocks: tuple
    dual_multipliers: np.ndarray
    iterations: int
    primal_residual: float
    dual_residual: float
    trace: tuple = field(repr=False, default=())


# ---------------------------------------------------------------------------
# Options and batches


def solver_options(
    gap_tol: float = 1e-8, feas_tol: float = 1e-8, max_iter: int = 200
) -> dict:
    """The interior-point options, checked, with their defaults filled in.

    This signature is the one place that names the options and their
    defaults. An unknown name raises TypeError. The tolerances must be finite
    and positive and max_iter an integer >= 0, or ValueError is raised.
    """
    for name, tol in (("gap_tol", gap_tol), ("feas_tol", feas_tol)):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    return {"gap_tol": gap_tol, "feas_tol": feas_tol, "max_iter": max_iter}


def solve(problem: ConicProblem, **options) -> ConicSolution:
    """Solve one ConicProblem: ``solve_many([problem], **options)[0]``."""
    return solve_many([problem], **options)[0]


def solve_many(problems, **options) -> list:
    """Solve a sequence of ConicProblems; see the module docstring.

    Returns one ConicSolution per problem, in input order, equal to
    ``[solve(p) for p in problems]``. A status is 'optimal' only when the
    relative duality gap is at most gap_tol and both feasibility residuals
    are at most feas_tol. Hitting the iteration cap reports 'max_iter';
    primal or dual infeasibility certificates report 'infeasible' or
    'unbounded'. Numerical breakdown of any problem raises SolverFailure.
    The options are those of :func:`solver_options`.
    """
    options = solver_options(**options)
    problems = list(problems)
    out = [None] * len(problems)
    for group in _groups(problems):
        sols = _solve_group([problems[i] for i in group], **options)
        for i, sol in zip(group, sols):
            out[i] = sol
    return out


def _groups(problems: list) -> list:
    """The indices of the problems that run in lockstep, one list per group.

    A group shares blocks, sense, constraint senses and each block group's
    members and stack of constraint coefficients, compared by dtype and
    bytes: a None entry and an explicit zero one are the same.
    """
    if len(problems) == 1:
        return [[0]]
    groups: dict = {}
    for i, p in enumerate(problems):
        key = (
            p.blocks,
            p.maximize,
            p._le.tobytes(),
            tuple((tuple(bis), s.dtype, s.tobytes()) for _, bis, s in p._groups),
        )
        groups.setdefault(key, []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Standardized internal form


class _BlockGroup:
    """Blocks whose iterates share one array, of one `item` per instance:
    the k PSD blocks of one size n and dtype, (batch, k, n, n), with the
    problem's stack of the group, `stack` (m, k, n, n), and its float64 view
    `flat` (m, k*n*n, or 2*k*n*n on complex blocks); or every LP block and
    the slack of the "le" rows, (batch, total), with `flat` the (m, total)
    stack of the group and one unit column per "le" row (the stack itself
    when there is none). An instance's item viewed as one vector lines up
    with `flat`.

    Given the first column `col` of its blocks in the Schur Gram matrix, a
    PSD group also keeps, per block, the rows whose coefficient on it is not
    zero (`touched`: slice(None) when every row is), their coefficients and
    its columns `cols`; `end` is the column past its last."""

    def __init__(self, members: list, stack: np.ndarray, le_rows=None, col=None):
        self.members = members
        self.sdp = le_rows is None
        self.end = col
        m = len(stack)
        if not self.sdp and len(le_rows):
            slack = np.zeros((m, len(le_rows)))
            slack[le_rows, np.arange(len(le_rows))] = 1.0
            stack = np.hstack((stack, slack))
        self.stack = stack
        self.flat = stack.reshape(m, -1).view(float)
        self.item, self.dtype = stack.shape[1:], stack.dtype
        if not self.sdp or col is None:
            return
        self.svec = _svec(self.item[-1], self.dtype.kind == "c")
        width, k = len(self.svec[0]), len(members)
        touched = self.flat.reshape(m, k, -1).any(axis=2).T
        self.touched = [slice(None) if t.all() else np.flatnonzero(t) for t in touched]
        self.coeffs = [self.stack[t, j] for j, t in enumerate(self.touched)]
        self.cols = [slice(col + j * width, col + (j + 1) * width) for j in range(k)]
        self.end = col + k * width


@functools.cache
def _svec(n: int, is_complex: bool) -> tuple:
    """Indices into the float64 view of a flattened n x n block and their
    weights, so that Re tr(A B) = (a[idx] * w) @ (b[idx] * w) for Hermitian
    A and B: the diagonal (its real part) with weight 1 and the strict upper
    triangle (real and imaginary parts) with weight sqrt 2. That is
    n(n+1)/2 entries on a real block and n^2 on a complex one."""
    i, j = np.triu_indices(n)
    idx, weight = i * n + j, np.where(i == j, 1.0, math.sqrt(2.0))
    if is_complex:
        keep = np.stack((np.ones(len(idx), dtype=bool), i != j), axis=1).ravel()
        idx = np.stack((2 * idx, 2 * idx + 1), axis=1).ravel()[keep]
        weight = np.repeat(weight, 2)[keep]
    idx.setflags(write=False)  # cached: shared by every caller
    weight.setflags(write=False)
    return idx, weight


class _Standardized:
    """Equality-form data of one group of problems, maximize folded into
    signs. The blocks run in :class:`_BlockGroup` s, in order of first
    appearance. The constraint data are shared; objectives and rhs have a
    leading batch axis, one row per problem."""

    def __init__(self, problems: list):
        first = problems[0]
        self.sign = -1.0 if first.maximize else 1.0
        self.m = m = len(first._rhs)
        self.b = np.stack([p._rhs for p in problems])
        row_sq = sum(np.einsum("ij,ij->i", f, f) for f in map(_flat, first._stacks))  # |row|^2
        le_rows = np.flatnonzero(first._le)
        # The Schur Gram matrix of each instance (see _SchurSolver), from
        # _GRAM_MIN_ROWS rows on when some block is PSD; rows that do not
        # touch a block stay 0 in its columns.
        gram = m >= _GRAM_MIN_ROWS and any(sdp for sdp, _, _ in first._groups)
        self.groups, col = [], 0 if gram else None
        for sdp, bis, stack in first._groups:
            g = _BlockGroup(bis, stack, None if sdp else le_rows, col)
            self.groups.append(g)
            col = g.end
        self.gram = np.zeros((len(problems), m, col)) if gram else None
        self.nu = sum(b.size for b in first.blocks) + len(le_rows)
        self.places = first._places  # each block's (group, index in an item)
        self.objective = self.grouped(list(zip(*(p.objective for p in problems))))
        for c in self.objective:
            c *= self.sign
        self.norm_a = math.sqrt(row_sq.max())
        self.norm_b = np.sqrt(_dots(self.b, self.b))
        self.norm_c = np.sqrt(self.dots(self.objective, self.objective))

    def grouped(self, blocks: list) -> list:
        """Per block, one entry per instance (None for 0), as group arrays:
        instance k's entry goes to out[group][k, index], the block's place
        in its group's item. The slack's entries are 0."""
        out = [np.zeros((len(self.b), *g.item), g.dtype) for g in self.groups]
        for (gi, i), entries in zip(self.places, blocks):
            for k, entry in enumerate(entries):
                if entry is not None:
                    out[gi][k, i] = entry
        return out

    def dots(self, a: list, b: list) -> np.ndarray:
        """Re <a_k, b_k> for each instance k of two lists of group arrays:
        one product per instance and group, added in group order."""
        terms = [_dots(ag, bg) for ag, bg in zip(a, b)]
        return functools.reduce(np.add, terms)

    # -- block-space linear maps, per instance ---------------------------

    def apply_A(self, x: list, start=None) -> np.ndarray:
        """A x per instance, plus `start` if given: one product per
        instance and group, added in group order after `start`."""
        terms = [_times(_flat(xg), g.flat.T) for g, xg in zip(self.groups, x)]
        return functools.reduce(np.add, terms if start is None else [start, *terms])

    def apply_At(self, y: np.ndarray) -> list:
        """A^T y per instance, as group arrays: one product per instance and
        group."""
        return [_times(y, g.flat).view(g.dtype).reshape(-1, *g.item) for g in self.groups]


def _flat(a: np.ndarray) -> np.ndarray:
    """Float64 view of each instance of a, flattened: Re tr(A B) =
    _flat(A)[k] @ _flat(B)[k] for Hermitian A and B."""
    return a.reshape(len(a), -1).view(float)


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re <a_k, b_k> for each instance k of two arrays."""
    return (_flat(a)[:, None, :] @ _flat(b)[:, :, None])[:, 0, 0]


def _times(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows[k] @ mat for each instance k, as one product per instance: an
    instance's arithmetic does not depend on the batch it runs in."""
    return (rows[:, None, :] @ mat)[:, 0]


def _bc(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """A per-instance vector v, shaped to scale the instances of a."""
    return v.reshape(-1, *(1,) * (a.ndim - 1))


def _h(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each instance."""
    return a.conj().swapaxes(-1, -2)


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + _h(a)) / 2.0


def _dense_cholesky_with_jitter(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor (LAPACK potrf) of mat plus the smallest jitter
    on the ladder that makes it positive definite."""
    c, info = _POTRF(mat, lower=1, clean=0)
    if info == 0:
        return c
    scale = max(1.0, float(np.trace(mat)) / mat.shape[0])
    for attempt in range(8):
        jitter = scale * 1e-14 * 10.0**attempt
        c, info = _POTRF(mat + jitter * np.eye(mat.shape[0]), lower=1, clean=0)
        if info == 0:
            return c
    raise SolverFailure("Schur complement factorization failed")


def _dense_solver(mat: np.ndarray):
    """rhs -> mat^-1 rhs through the jittered Cholesky factor (LAPACK potrs)."""
    factor = _dense_cholesky_with_jitter(mat)
    return lambda rhs: _POTRS(factor, rhs, lower=1)[0]


class _NTScaling:
    """Per-group Nesterov-Todd scaling data for one iterate of each instance.

    On a PSD block R^-1 X R^-H = R^H S R = diag(lam), so the two factors
    G[gi] = lam^-1/2 [R^-1, R^H] map X and S to the identity by congruence.
    On a PSD group R, Rinv and W = R R^H are (batch, k, n, n), lam is
    (batch, k, n) and G (batch, k, 2, n, n). `factors` are the iterate's
    Cholesky factors from :func:`_cholesky`.
    """

    def __init__(self, std: _Standardized, x: list, s: list, factors: dict):
        self.R: dict[int, np.ndarray] = {}
        self.Rinv: dict[int, np.ndarray] = {}
        self.W: dict[int, np.ndarray] = {}
        self.lam: dict[int, np.ndarray] = {}
        self.G: dict[int, np.ndarray] = {}
        self.w2: dict[int, np.ndarray] = {}
        for gi, g in enumerate(std.groups):
            if g.sdp:
                lx, ls = factors[gi]
                u, sig, vt = np.linalg.svd(_h(ls) @ lx)
                if sig[..., -1].min() <= 0.0:
                    raise SolverFailure("NT scaling breakdown: singular iterate")
                inv_sqrt = 1.0 / np.sqrt(sig)
                r = lx @ (_h(vt) * inv_sqrt[..., None, :])
                rinv = (inv_sqrt[..., :, None] * _h(u)) @ _h(ls)
                self.R[gi] = r
                self.Rinv[gi] = rinv
                self.W[gi] = r @ _h(r)
                self.lam[gi] = sig
                pair = np.concatenate((rinv[:, :, None], _h(r)[:, :, None]), axis=2)
                self.G[gi] = pair * inv_sqrt[..., None, :, None]
            else:
                self.w2[gi] = x[gi] / s[gi]
                self.lam[gi] = np.sqrt(x[gi] * s[gi])


def _cholesky(std: _Standardized, x: list, s: list) -> tuple:
    """Per PSD group, the lower Cholesky factors of an iterate's X and S
    blocks, as one (2, batch, k, n, n) array; and None when the iterate
    is inside the cone, or else per instance and side (primal, dual)
    whether it is outside: some block's Cholesky factorization fails, or
    some LP entry is <= 0."""
    factors = {}
    try:
        for gi, g in enumerate(std.groups):
            if g.sdp:
                pair = np.concatenate((x[gi], s[gi]))
                factors[gi] = np.linalg.cholesky(pair).reshape(2, *x[gi].shape)
            elif x[gi].min() <= 0.0 or s[gi].min() <= 0.0:
                raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        # Only on failure: find the instances and sides that fail.
        outside = np.zeros((len(x[0]), 2), dtype=bool)
        for gi, g in enumerate(std.groups):
            if g.sdp:  # per instance and side, all its blocks at once
                failed = [not _positive_definite(a) for a in np.concatenate((x[gi], s[gi]))]
                outside |= np.reshape(failed, (2, -1)).T
            else:
                outside |= np.stack(((x[gi] <= 0.0).any(axis=1), (s[gi] <= 0.0).any(axis=1)), 1)
        return factors, outside
    return factors, None


def _positive_definite(a: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


class _SchurSolver:
    """Factorizations of M = A W A^T for one iterate, one per instance,
    shared by both Newton solves.

    M is dense, assembled for all instances as one stack. With W = R R^H on
    a PSD block, Re tr(A_i W A_j W) = <svec(R^H A_i R), svec(R^H A_j R)>
    (see :func:`_svec`), so the PSD part of M is G G^T, where G (m, sum of
    svec widths) holds those svecs side by side, block by block: one
    product per instance, which numpy runs as BLAS syrk, exactly symmetric.
    A block fills only its rows of G that touch it; the others stay 0 in
    `_Standardized.gram`. Problems with fewer than _GRAM_MIN_ROWS rows,
    whose cost is the number of numpy calls rather than the arithmetic,
    instead add a term (A_i . W A_j W) per PSD group, with W broadcast over
    the group's blocks. The LP group adds its term A diag(w2) A^T, one
    product per instance, in group order, and a sum of terms is
    symmetrized. Every M takes a jittered Cholesky factor.
    """

    def __init__(self, std: _Standardized, nt: _NTScaling):
        terms = [] if std.gram is None else [self._gram(std, nt)]
        for gi, g in enumerate(std.groups):
            if g.sdp and std.gram is None:
                # W A W for every row and block: W broadcast over the rows.
                w = nt.W[gi][:, None]
                waw = np.matmul(w, np.matmul(g.stack, w))
                flat = waw.reshape(len(waw), std.m, -1).view(float)
                terms.append(np.matmul(g.flat, flat.swapaxes(1, 2)))
            elif not g.sdp:
                terms.append(np.matmul(g.flat * nt.w2[gi][:, None], g.flat.T))
        mat = functools.reduce(np.add, terms)
        if len(terms) > 1 or std.gram is None:  # G G^T is exactly symmetric
            mat = (mat + mat.swapaxes(1, 2)) / 2.0
        self._systems = [(mk, _dense_solver(mk)) for mk in mat]

    @staticmethod
    def _gram(std: _Standardized, nt: _NTScaling) -> np.ndarray:
        """G G^T per instance, for the PSD blocks."""
        gram = std.gram[: len(nt.lam[0])]
        for gi, g in enumerate(std.groups):
            if not g.sdp:
                continue
            idx, weight = g.svec
            for j, (touched, coeffs, cols) in enumerate(zip(g.touched, g.coeffs, g.cols)):
                r = nt.R[gi][:, j]
                # One instance: 3-D products, with no batch axis to broadcast.
                r = r[0] if len(r) == 1 else r[:, None]
                rar = _h(r) @ (coeffs @ r)
                flat = rar.reshape(*rar.shape[:-2], -1).view(float)
                gram[:, touched, cols] = flat[..., idx] * weight
        return gram @ gram.swapaxes(1, 2)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = np.empty_like(rhs)
        for k, (mat, solve_once) in enumerate(self._systems):
            yk = solve_once(rhs[k])
            # One step of iterative refinement stabilizes the late iterations.
            y[k] = yk + solve_once(rhs[k] - mat @ yk)
        if not np.isfinite(y).all():
            raise SolverFailure("Schur solve produced non-finite values")
        return y


def _max_step_lp(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Per instance, the largest step that keeps x + a delta >= 0, or
    _BIG_STEP, as a column."""
    ratio = np.full_like(x, _BIG_STEP)
    np.divide(-x, delta, out=ratio, where=delta < 0.0)
    return ratio.min(axis=1, keepdims=True)


def _solve_group(problems: list, gap_tol, feas_tol, max_iter) -> list:
    """Solve the problems of one group in lockstep; see :func:`solve_many`."""
    if not len(problems[0]._rhs):
        # Nothing constrains the cone variable: unbounded below unless C = 0,
        # and even then nothing useful to report. Declared, not solved.
        value = math.inf if problems[0].maximize else -math.inf
        return [
            ConicSolution("unbounded", value, value, math.nan, (), np.zeros(0), 0,
                          math.nan, math.nan)
            for _ in problems
        ]
    std = _Standardized(problems)
    sign, nu = std.sign, std.nu
    rho_p = np.maximum(1.0, std.norm_b / max(1.0, std.norm_a))
    rho_d = np.maximum(rho_p, std.norm_c / math.sqrt(nu))
    x, s = [], []
    for g in std.groups:
        unit = np.eye(g.item[-1], dtype=g.dtype) if g.sdp else np.ones(g.item)
        unit = np.broadcast_to(unit, (len(problems), *g.item))
        x.append(_bc(rho_p, unit) * unit)
        s.append(_bc(rho_d, unit) * unit)
    y = np.zeros((len(problems), std.m))
    factors = _cholesky(std, x, s)[0]  # of rho I, inside the cone
    # Per-instance data of the instances still running; `active` holds
    # their indices in `problems`.
    b, c = std.b, std.objective
    scale_b, scale_c = 1.0 + std.norm_b, 1.0 + std.norm_c
    active = np.arange(len(problems))
    traces = [[] for _ in problems]
    out = [None] * len(problems)

    for it in range(max_iter + 1):
        ax = std.apply_A(x)
        rp = b - ax
        aty = std.apply_At(y)
        rd = [cg - ag - sg for cg, ag, sg in zip(c, aty, s)]
        pobj = std.dots(c, x)
        dobj = _dots(b, y)
        mu = std.dots(x, s) / nu
        pres = np.sqrt(_dots(rp, rp)) / scale_b
        dres = np.sqrt(std.dots(rd, rd)) / scale_c
        certificates = _certificates(std, x, s, y, ax, aty, pobj, dobj) if it >= 3 else None
        # Per instance: record the iterate, then stop on optimality, on a
        # certificate or at the iteration cap.
        finished = []
        rows = zip(active.tolist(), pobj.tolist(), dobj.tolist(), mu.tolist(),
                   pres.tolist(), dres.tolist())
        for pos, (k, pv, dv, mv, pr, dr) in enumerate(rows):
            traces[k].append(IterateRecord(it, sign * pv, sign * dv, mv, pr, dr))
            gap = abs(pv - dv) / (1.0 + abs(pv))
            if gap <= gap_tol and pr <= feas_tol and dr <= feas_tol:
                status = "optimal"
            elif certificates and certificates[pos]:
                status = certificates[pos]
            elif it == max_iter:
                status = "max_iter"
            else:
                continue
            own = [xg[pos] for xg in x]
            out[k] = _solution(std, status, own, y[pos], pv, dv, pr, dr, it, traces[k])
            finished.append(pos)
        if len(finished) == len(active):
            break
        if finished:
            # Finished instances leave the batch.
            keep = np.ones(len(active), dtype=bool)
            keep[finished] = False
            x, s, rd, c = ([a[keep] for a in arrays] for arrays in (x, s, rd, c))
            factors = {gi: f[:, keep] for gi, f in factors.items()}
            y, b, rp, mu, scale_b, scale_c, active = (
                a[keep] for a in (y, b, rp, mu, scale_b, scale_c, active)
            )

        nt = _NTScaling(std, x, s, factors)
        schur = _SchurSolver(std, nt)

        # Predictor: target complementarity 0.
        dy_aff, dx_aff, ds_aff = _newton_step(std, nt, schur, rp, rd, [-xg for xg in x])
        ap, ad = np.minimum(_max_steps(std, nt, x, s, dx_aff, ds_aff), 1.0).T
        mu_aff = std.dots(
            [xg + _bc(ap, xg) * dxg for xg, dxg in zip(x, dx_aff)],
            [sg + _bc(ad, sg) * dsg for sg, dsg in zip(s, ds_aff)],
        ) / nu
        # sigma * mu, with sigma = (mu_aff / mu)^3 clipped to [0, 1].
        target = np.array([
            min(1.0, max(0.0, (max(ma, 0.0) / mv) ** 3)) * mv if mv > 0 else 0.0
            for ma, mv in zip(mu_aff.tolist(), mu.tolist())
        ])

        # Corrector: target sigma*mu minus the affine cross term.
        rc_cor = []
        for gi, g in enumerate(std.groups):
            if g.sdp:
                lam, r, rinv = nt.lam[gi], nt.R[gi], nt.Rinv[gi]
                dxh = rinv @ dx_aff[gi] @ _h(rinv)
                dsh = _h(r) @ ds_aff[gi] @ r
                d = -_sym(dxh @ dsh)
                d.reshape(*lam.shape[:-1], -1)[..., :: g.item[-1] + 1] += (
                    _bc(target, lam) - lam**2)
                z = 2.0 * d / (lam[..., :, None] + lam[..., None, :])
                rc_cor.append(_sym(r @ z @ _h(r)))
            else:
                d = target[:, None] - x[gi] * s[gi] - dx_aff[gi] * ds_aff[gi]
                rc_cor.append(d / s[gi])
        dy, dx, ds = _newton_step(std, nt, schur, rp, rd, rc_cor)

        steps = _STEP_TO_BOUNDARY * _max_steps(std, nt, x, s, dx, ds)
        x, s, y, factors = _step(std, x, s, y, dx, ds, dy, np.minimum(steps, 1.0))
    return out


def _step(std, x, s, y, dx, ds, dy, steps) -> tuple:
    """The next iterate of each instance, (x + ap dx, s + ad ds, y + ad dy)
    with (ap, ad) its row of `steps`, and its Cholesky factors.

    When an instance's next X (or S) fails its Cholesky factorization, its
    ap (or ad) shrinks by _BACKTRACK, at most _BACKTRACKS times before
    SolverFailure is raised. The other instances keep their steps, so each
    instance's iterate does not depend on the batch it runs in.
    """
    for _ in range(_BACKTRACKS + 1):
        ap, ad = steps.T
        xn, sn = [], []
        for gi, g in enumerate(std.groups):
            xg = x[gi] + _bc(ap, x[gi]) * dx[gi]
            sg = s[gi] + _bc(ad, s[gi]) * ds[gi]
            xn.append(_sym(xg) if g.sdp else xg)
            sn.append(_sym(sg) if g.sdp else sg)
        factors, outside = _cholesky(std, xn, sn)
        if outside is None:
            return xn, sn, y + ad[:, None] * dy, factors
        steps = np.where(outside, _BACKTRACK * steps, steps)
    raise SolverFailure("iterate left the cone (Cholesky breakdown)")


def _solution(std, status, x, y, pobj, dobj, pres, dres, it, trace) -> ConicSolution:
    """One instance's ConicSolution from its final iterate (its item of
    each group array); the values and residuals are floats."""
    sign = std.sign
    primal_value = sign * pobj
    dual_value = sign * dobj
    if status == "infeasible":
        primal_value = math.inf if sign > 0 else -math.inf
        dual_value = primal_value
    elif status == "unbounded":
        primal_value = -math.inf if sign > 0 else math.inf
        dual_value = primal_value
    return ConicSolution(
        status=status,
        primal_value=primal_value,
        dual_value=dual_value,
        gap=abs(pobj - dobj) / (1.0 + abs(pobj)) if math.isfinite(pobj) else math.nan,
        primal_blocks=tuple(x[gi][i].copy() for gi, i in std.places),
        dual_multipliers=sign * y,
        iterations=it,
        primal_residual=pres,
        dual_residual=dres,
        trace=tuple(trace),
    )


def _newton_step(std, nt, schur, rp, rd, rc):
    """Solve the scaled Newton system of each instance for given residual
    targets."""
    t = [
        nt.W[gi] @ rd[gi] @ nt.W[gi] - rc[gi] if g.sdp else nt.w2[gi] * rd[gi] - rc[gi]
        for gi, g in enumerate(std.groups)
    ]
    dy = schur.solve(std.apply_A(t, rp))
    at_dy = std.apply_At(dy)
    dx, ds = [], []
    for gi, g in enumerate(std.groups):
        dsg = rd[gi] - at_dy[gi]
        if g.sdp:
            dxg = _sym(rc[gi] - nt.W[gi] @ dsg @ nt.W[gi])
        else:
            dxg = rc[gi] - nt.w2[gi] * dsg
        dx.append(dxg)
        ds.append(dsg)
    return dy, dx, ds


def _max_steps(std, nt, x, s, dx, ds) -> np.ndarray:
    """The largest primal and dual steps that stay in the cone, or
    _BIG_STEP, as one row (primal, dual) per instance.

    With G X G^H = I, X + a dX is PSD exactly for a <= -1/lambda_min(G dX G^H);
    one eigvalsh per PSD group serves every block and both sides.
    """
    out = None
    for gi, g in enumerate(std.groups):
        if g.sdp:
            gg = nt.G[gi]
            t = gg @ np.concatenate((dx[gi][:, :, None], ds[gi][:, :, None]), axis=2) @ _h(gg)
            # Per instance and side, the smallest over its blocks.
            lo = np.linalg.eigvalsh((t + _h(t)) / 2.0)[..., 0].min(axis=1)
            steps = -1.0 / np.minimum(lo, -1e-14)
            steps[lo >= -1e-14] = _BIG_STEP
        else:
            steps = np.concatenate(
                (_max_step_lp(x[gi], dx[gi]), _max_step_lp(s[gi], ds[gi])), axis=1
            )
        out = steps if out is None else np.minimum(out, steps)
    return out


def _certificates(std, x, s, y, ax, aty, pobj, dobj) -> list:
    """Per instance, 'infeasible' or 'unbounded' when the iterate is a
    Farkas-style certificate of either, else None; ax = A x, aty = A^T y,
    pobj = <C, X> and dobj = b . y."""
    # Each test first checks a necessary condition that needs no norm.
    infeasible = dobj > 1e-8
    if infeasible.any():
        infeasible &= dobj > 1e-8 * (1.0 + np.sqrt(_dots(y, y)))
        res = [a + sg for a, sg in zip(aty, s)]
        infeasible &= np.sqrt(std.dots(res, res)) <= 1e-7 * dobj
    unbounded = pobj < -1e-8
    if unbounded.any():
        unbounded &= pobj < -1e-8 * (1.0 + np.sqrt(std.dots(x, x)))
        unbounded &= np.sqrt(_dots(ax, ax)) <= 1e-7 * -pobj
    return [
        "infeasible" if inf else "unbounded" if unb else None
        for inf, unb in zip(infeasible.tolist(), unbounded.tolist())
    ]


# ---------------------------------------------------------------------------
# JSON dump/load


def _array_to_json(a):
    """Nested lists; a complex array becomes {"re": ..., "im": ...}."""
    if a is None:
        return None
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {"re": a.real.tolist(), "im": a.imag.tolist()}
    return a.tolist()


def problem_to_json(problem: ConicProblem) -> dict:
    """Serialize a problem to the documented {blocks, objective, constraints, sense} schema.

    Entries are nested lists, or {"re": ..., "im": ...} for complex SDP entries.
    """
    return {
        "blocks": [{"kind": b.kind, "size": b.size} for b in problem.blocks],
        "objective": [_array_to_json(e) for e in problem.objective],
        "constraints": [
            {
                "coeffs": [_array_to_json(e) for e in c.coeffs],
                "rhs": c.rhs,
                "sense": c.sense,
            }
            for c in problem.constraints
        ],
        "sense": "max" if problem.maximize else "min",
    }


def problem_from_json(doc: dict) -> ConicProblem:
    blocks = tuple(Block(b["kind"], int(b["size"])) for b in doc["blocks"])

    def entry_from_json(entry):
        if entry is None:
            return None
        if isinstance(entry, dict):
            return np.asarray(entry["re"], dtype=float) + 1j * np.asarray(
                entry["im"], dtype=float
            )
        return np.asarray(entry, dtype=float)

    constraints = tuple(
        Constraint(
            tuple(entry_from_json(e) for e in c["coeffs"]),
            float(c["rhs"]),
            c.get("sense", "eq"),
        )
        for c in doc["constraints"]
    )
    return ConicProblem(
        blocks=blocks,
        objective=tuple(entry_from_json(e) for e in doc["objective"]),
        constraints=constraints,
        maximize=doc.get("sense", "min") == "max",
    )


def solution_to_json(sol: ConicSolution) -> dict:
    return {
        "status": sol.status,
        "primal_value": sol.primal_value,
        "dual_value": sol.dual_value,
        "gap": sol.gap,
        "iterations": sol.iterations,
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
        "primal_blocks": [_array_to_json(b) for b in sol.primal_blocks],
        "dual_multipliers": np.asarray(sol.dual_multipliers).tolist(),
    }


def dump_problem(problem: ConicProblem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(problem_to_json(problem), fh)


# ---------------------------------------------------------------------------
# LMI front end


def _scale(c: np.ndarray) -> np.ndarray:
    """max(1, max |c|) over the last two axes, or NaN where that is not
    finite: no entry is small relative to an infinite scale."""
    top = np.abs(c).max(axis=(-2, -1))
    return np.where(np.isfinite(top), np.maximum(1.0, top), np.nan)


def _large(part: np.ndarray, scale) -> np.ndarray:
    """Whether `part` has an entry above 1e-10 relative to `scale`, over the
    last two axes. A NaN entry or scale counts as large, so non-finite data
    fail the conjugation test and reach the complex path's validator."""
    return ~(np.abs(part).max(axis=(-2, -1)) <= 1e-10 * scale)


class Affine:
    """An affine function offset + sum_k t_k B_k of a program's real
    parameters t, with values of one shape (a number, vector or matrix).

    `terms` maps the index of the first parameter of each variable involved
    to the stack of that variable's B_k. Numbers and arrays combine with it
    by +, - and *, in either order.
    """

    __array_ufunc__ = None  # ndarray (op) Affine calls the methods below

    def __init__(self, offset, terms: dict):
        self.offset = np.asarray(offset)
        self.terms = terms

    def map(self, fn, *args) -> Affine:
        """fn(self, *args), for fn linear in its first argument and acting on
        its last axes (two of a matrix, one of a vector) like a gufunc, as
        np.trace(a, axis1=-2, axis2=-1) or the maps of :mod:`nscost.qmat`
        do: fn is called once on the offset and once on each variable's
        stack of B_k, given with one more leading axis. An image of that
        (1, k, ...) stack not shaped (1, k, *image of the offset), as
        np.trace(a) or np.transpose(a) give for every k, raises ValueError."""
        offset, terms = np.asarray(fn(self.offset, *args)), {}
        for start, stack in self.terms.items():
            image = np.asarray(fn(stack[None], *args))
            if image.shape != (1, len(stack), *offset.shape):
                raise ValueError(f"map takes a stack {stack[None].shape} to {image.shape}: "
                                 "fn must act on the last axes")
            terms[start] = image[0]
        return Affine(offset, terms)

    def __add__(self, other) -> Affine:
        if not isinstance(other, Affine):
            other = Affine(other, {})
        terms = dict(self.terms)
        for start, stack in other.terms.items():
            terms[start] = terms[start] + stack if start in terms else stack
        return Affine(self.offset + other.offset, terms)

    __radd__ = __add__

    def __mul__(self, c) -> Affine:
        """Times a number, or a number-valued function times an array."""
        c = np.asarray(c)
        return Affine(
            self.offset * c,
            {s: np.multiply.outer(st, c) for s, st in self.terms.items()},
        )

    __rmul__ = __mul__

    def __neg__(self) -> Affine:
        return self * -1.0

    def __sub__(self, other) -> Affine:
        return self + -other

    def __rsub__(self, other) -> Affine:
        return -self + other


class HermitianProgram:
    """Builder for semidefinite programs in LMI form,

        minimize c . t  subject to  F0_j + sum_k t_k F_kj >= 0  for each j,

    over real parameters t. :meth:`variable` adds the parameters of one
    variable, an :class:`Affine` family offset + sum_k t_k B_k over a real
    basis B_k given by the caller: `hermitian_basis` for a free Hermitian
    matrix, a subspace basis for an affinely constrained one. Expressions
    built from variables by linear maps (:meth:`Affine.map`) and arithmetic
    are required to be PSD by :meth:`add_lmi`; a matrix expression becomes
    an SDP block, a number or vector an LP block.

    :meth:`build` compiles the program to the solver's standard form as its
    Lagrange dual, one block X_j per LMI and one row per parameter,

        maximize sum_j <-F0_j, X_j>  subject to  sum_j <F_kj, X_j> = c_k,

    so the solution's `dual_multipliers` are t and its `dual_value` is c . t
    (Vandenberghe & Boyd 1996, "Semidefinite programming").

    Real blocks. When the data are invariant under complex conjugation (the
    PSD parts of the built objective -F0 are real, and every row either has real PSD
    coefficients, or purely imaginary ones with zero LP coefficients and a
    zero rhs), real rows keep the real part of their PSD coefficients and
    their LP coefficients and rhs as given; imaginary rows are dropped.
    This is exact: conj maps feasible points to feasible points of the same
    value, so for an optimal X the real symmetric Re X = (X + conj X) / 2 is
    feasible and optimal too by convexity, and <A, Re X> = 0 for every
    purely imaginary Hermitian A. On the LMI side the same symmetry gives an
    optimal t whose parameters of dropped rows are 0, and they read 0.

    Complex blocks, for any other program. Every coefficient, rhs and LP
    coefficient is passed as given, and the solver works over complex
    Hermitian blocks. :class:`ConicProblem` rejects non-Hermitian data.

    Imaginary or real parts below 1e-10 relative to max(1, max |A|) count
    as zero in the conjugation test, so data that carry rounding-level
    imaginary parts still take real blocks. :meth:`is_real` is the test on
    the objective, the one part that depends on F0.
    """

    def __init__(self):
        self._n_params = 0
        self._lmis: list[Affine] = []
        self._objective = Affine(0.0, {})
        self._kept = np.zeros(0, dtype=int)

    def variable(self, basis, offset=None) -> Affine:
        """A new variable offset + sum_k t_k basis[k]; offset defaults to 0
        and must otherwise have the shape of a basis element. An empty basis
        gives the constant offset: it has no parameters, so no term, which
        would share its key with the next variable's."""
        basis = np.asarray(basis)
        offset = np.zeros(basis.shape[1:]) if offset is None else np.asarray(offset)
        if offset.shape != basis.shape[1:]:
            raise ValueError(f"offset shape {offset.shape} does not match basis "
                             f"element shape {basis.shape[1:]}")
        start = self._n_params
        self._n_params += len(basis)
        return Affine(offset, {start: basis} if len(basis) else {})

    def add_lmi(self, expr: Affine) -> None:
        """Require expr >= 0: PSD for a matrix, entrywise for a vector."""
        self._lmis.append(expr)

    def minimize(self, expr: Affine) -> None:
        """Set the number-valued objective."""
        self._objective = expr

    def built_objective(self) -> list:
        """-F0 of each LMI, shaped as its block's entry: the objective that
        :meth:`build` gives the problem, before the conjugation test."""
        return [-lmi.offset.reshape(-1 if lmi.offset.ndim < 2 else lmi.offset.shape)
                for lmi in self._lmis]

    @staticmethod
    def is_real(objective) -> bool:
        """Whether a built objective passes the conjugation test: no PSD
        entry has an imaginary part above 1e-10 relative. :meth:`build`
        gives real blocks only then, and only if the rows pass too; the rows
        do not depend on F0."""
        return not any(c.ndim == 2 and _large(c.imag, _scale(c)) for c in objective)

    def build(self) -> ConicProblem:
        # Per LMI: its block, -F0 and, per variable it involves, the
        # indices of its parameters and the stack of their F_k, as it is.
        blocks, terms = [], []
        objective = self.built_objective()
        for lmi, c in zip(self._lmis, objective):
            blocks.append(Block("lp" if c.ndim < 2 else "sdp", c.shape[0]))
            terms.append([(np.arange(s, s + len(st)), st.reshape(len(st), *c.shape))
                          for s, st in lmi.terms.items()])
        rhs = np.zeros(self._n_params)
        for start, st in self._objective.terms.items():
            rhs[start : start + len(st)] = np.real(st)
        kept = _real_rows(objective, terms, rhs)
        real = kept is not None
        self._kept = kept if real else np.arange(self._n_params)
        # Per block, -F0 as row 0, then the kept rows with a nonzero
        # coefficient on it, as rows 1, 2, ... in the kept order.
        row_of = np.full(self._n_params, -1)
        row_of[self._kept] = np.arange(1, len(self._kept) + 1)
        pieces = []
        for c, block_terms in zip(objective, terms):
            pieces.append([(np.zeros(1, dtype=int), np.real(c)[None] if real else c[None])])
            for rows, st in block_terms:
                st = st.real if real else st
                keep = (row_of[rows] > 0) & st.any(axis=tuple(range(1, st.ndim)))
                if not keep.all():
                    rows, st = rows[keep], st[keep]
                pieces[-1].append((row_of[rows], st))
        problem = ConicProblem.__new__(ConicProblem)
        problem._set(tuple(blocks), pieces, rhs[self._kept], ["eq"] * len(self._kept), True)
        return problem

    def extract(self, solution: ConicSolution, expr: Affine) -> np.ndarray:
        """The value of an expression at the parameters t of a solution of the
        last built problem."""
        t = np.zeros(self._n_params)
        t[self._kept] = solution.dual_multipliers
        return expr.offset + sum(
            np.tensordot(t[s : s + len(st)], st, axes=1) for s, st in expr.terms.items()
        )

    def value(self, solution: ConicSolution) -> float:
        """The objective at the parameters t of a solution: its offset plus
        c . t, which the solver reports as the dual value."""
        return float(np.real(self._objective.offset) + solution.dual_value)


def _real_rows(objective: list, terms: list, rhs: np.ndarray):
    """The indices of the rows kept with real blocks, or None when the data
    are not invariant under complex conjugation.

    `terms` holds per block the rows each variable enters and their
    coefficients.
    """
    if not HermitianProgram.is_real(objective):
        return None
    n_rows = len(rhs)
    # Per row: some PSD coefficient has an imaginary part; the largest PSD
    # scale; the largest |rhs| or |LP coefficient|.
    imaginary = np.zeros(n_rows, dtype=bool)
    scale = np.ones(n_rows)
    rest = np.abs(rhs)
    mags = []
    for rows, c in itertools.chain(*terms):
        if c.ndim == 2:  # an LP block
            rest[rows] = np.maximum(rest[rows], np.abs(c).max(axis=1))
            mags.append(None)
            continue
        mags.append(_scale(c))
        imaginary[rows] |= _large(c.imag, mags[-1])
        scale[rows] = np.maximum(scale[rows], mags[-1])
    # A purely imaginary Hermitian (hence antisymmetric) coefficient reads 0
    # on every real symmetric X, so its row may only be dropped when it asks
    # for 0; only such rows take the antisymmetry test. Non-Hermitian data
    # fall through to complex blocks, which reject them.
    droppable = rest <= 1e-10 * scale
    for (rows, c), mag in zip(itertools.chain(*terms), mags):
        at = np.flatnonzero(imaginary[rows] & droppable[rows]) if c.ndim == 3 else ()
        if len(at):
            c, mag = c[at], mag[at]
            part = c if c.real.any() else c.imag  # |c + c^T| is |Im c + Im c^T| where Re c = 0
            droppable[rows[at]] &= ~(_large(c.real, mag) | _large(part + part.swapaxes(1, 2), mag))
    if np.any(imaginary & ~droppable):
        return None
    return np.flatnonzero(~imaginary)
