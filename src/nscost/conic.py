"""Block-structured conic solver: PSD and LP cones, primal-dual interior point.

Problems are stated in standard form over a block-diagonal cone (PSD blocks
and nonnegative-orthant blocks),

    minimize  <C, X>  subject to  <A_i, X> = b_i  (or <= b_i),  X in cone,

with <A, X> = Re tr(A X), and solved with a Nesterov-Todd scaled Mehrotra
predictor-corrector method. Inequality rows are converted internally to
equalities with one nonnegative slack each. Step lengths come from the NT
factors: with G X G^H = I, the step to the boundary along dX is
-1/lambda_min(G dX G^H), one eigvalsh call per PSD block for both sides.

There is one path for real and complex data. A PSD block is real symmetric
(float64) when every entry given for it is real, and complex Hermitian
(complex128) otherwise. The method is the same for both: transposes are
conjugate transposes, and <A, X> is the dot product of the float64 views of
the flattened matrices. The Schur matrix and the Newton rhs are therefore
real, and on real blocks the views are the arrays themselves, so real data
run the same arithmetic as a real-only solver. The builder
:class:`HermitianProgram` states programs as linear matrix inequalities
over real parameters, passes their Lagrange duals to this form, and gives
them real blocks whenever the data allow it.

The solver is deterministic: no randomness anywhere, so identical inputs give
bitwise-identical iterate sequences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

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
]

_STEP_TO_BOUNDARY = 0.98
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

    def __post_init__(self) -> None:
        if self.sense not in ("eq", "le"):
            raise ValueError(f"unknown constraint sense {self.sense!r}")
        if not math.isfinite(self.rhs):
            raise ValueError("constraint rhs must be finite")


@dataclass(frozen=True)
class ConicProblem:
    """Standard-form block problem; see the module docstring.

    `objective` and each constraint's `coeffs` are sequences parallel to
    `blocks`; entries are (n, n) Hermitian arrays for SDP blocks (real or
    complex), length-n real vectors for LP blocks, or None for absent blocks.
    """

    blocks: tuple
    objective: tuple
    constraints: tuple
    maximize: bool = False

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        rows = _validated_rows(
            [list(self.objective), *(list(con.coeffs) for con in self.constraints)],
            blocks,
        )
        cons = [
            Constraint(c, float(con.rhs), con.sense)
            for c, con in zip(rows[1:], self.constraints)
        ]
        object.__setattr__(self, "objective", rows[0])
        object.__setattr__(self, "constraints", tuple(cons))


def _validated_rows(rows: list, blocks: tuple) -> list:
    """Each row's entries as read-only arrays, SDP entries made Hermitian.

    Row 0 is the objective, row i + 1 constraint i, which needs a coefficient.
    The entries of a block are checked and stored as one stack per dtype.
    Invalid data raise the error of the first bad entry, in row order.
    """
    names = ["objective", *(f"constraint {i}" for i in range(len(rows) - 1))]
    errors = []  # (row, block, or -1 for the row itself, message)
    out = []
    for r, row in enumerate(rows):
        if len(row) != len(blocks):
            got = f"expected {len(blocks)} block entries, got {len(row)}"
            errors.append((r, -1, f"{names[r]}: {got}"))
            row = [None] * len(blocks)
        elif r > 0 and all(e is None for e in row):
            errors.append((r, len(blocks), f"{names[r]} has no coefficients"))
        out.append(row)
    for bi, block in enumerate(blocks):
        stacks: dict = {}  # dtype -> [(row, entry)]
        for r, row in enumerate(out):
            entry = row[bi]
            if entry is None:
                continue
            if block.kind == "sdp":
                a = np.asarray(entry, dtype=complex if np.iscomplexobj(entry) else float)
                shape, what = (block.size, block.size), "SDP entry shape"
            else:
                a = np.asarray(entry, dtype=float).reshape(-1)
                shape, what = (block.size,), "LP entry length"
            if a.shape != shape:
                errors.append((r, bi, f"{names[r]}: {what} {a.shape} != block size"))
            else:
                stacks.setdefault(a.dtype, []).append((r, a))
        for pairs in stacks.values():
            rs, entries = zip(*pairs)
            a = np.stack(entries)
            if block.kind == "sdp":
                ah = a.conj().transpose(0, 2, 1)
                scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
                bad = np.abs(a - ah).max(axis=(1, 2)) > 1e-10 * scale
                for k in np.flatnonzero(bad):
                    errors.append((rs[k], bi, f"{names[rs[k]]}: SDP entry is not Hermitian"))
                a = (a + ah) / 2.0
            a.setflags(write=False)
            for r, entry in zip(rs, a):
                out[r][bi] = entry
    if errors:
        raise ValueError(min(errors, key=lambda e: e[:2])[2])
    return [tuple(row) for row in out]


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
# Standardized internal form


class _Standardized:
    """Equality-form data: slack block appended, maximize folded into signs."""

    def __init__(self, problem: ConicProblem):
        self.sign = -1.0 if problem.maximize else 1.0
        self.blocks = list(problem.blocks)
        m = len(problem.constraints)
        le_rows = [i for i, c in enumerate(problem.constraints) if c.sense == "le"]
        self.n_user_blocks = len(self.blocks)
        self.slack_index = None
        if le_rows:
            self.slack_index = len(self.blocks)
            self.blocks.append(Block("lp", len(le_rows)))
        self.m = m
        self.b = np.array([c.rhs for c in problem.constraints], dtype=float)

        self.objective = []
        for block, entry in zip(problem.blocks, problem.objective):
            if entry is None:
                if block.kind == "sdp":
                    entry = np.zeros((block.size, block.size))
                else:
                    entry = np.zeros(block.size)
            self.objective.append(self.sign * entry)
        if self.slack_index is not None:
            self.objective.append(np.zeros(len(le_rows)))

        # Constraint stacks: dense (m, n, n) per SDP block, in the block's
        # dtype, with their float64 views (m, n*n or 2*n*n); sparse CSR per LP.
        self.sdp_stack: dict[int, np.ndarray] = {}
        self.sdp_flat: dict[int, np.ndarray] = {}
        self.lp_mat: dict[int, scipy.sparse.csr_matrix] = {}
        for bi, block in enumerate(self.blocks):
            if block.kind == "sdp":
                entries = [con.coeffs[bi] for con in problem.constraints]
                complex_data = any(
                    np.iscomplexobj(e) for e in [self.objective[bi], *entries]
                )
                stack = np.zeros(
                    (m, block.size, block.size), dtype=complex if complex_data else float
                )
                for i, entry in enumerate(entries):
                    if entry is not None:
                        stack[i] = entry
                self.sdp_stack[bi] = stack
                self.sdp_flat[bi] = stack.reshape(m, block.size**2).view(float)
            else:
                rows, cols, vals = [], [], []
                if bi == self.slack_index:
                    for j, i in enumerate(le_rows):
                        rows.append(i)
                        cols.append(j)
                        vals.append(1.0)
                else:
                    for i, con in enumerate(problem.constraints):
                        entry = con.coeffs[bi]
                        if entry is not None:
                            nz = np.nonzero(entry)[0]
                            rows.extend([i] * len(nz))
                            cols.extend(nz.tolist())
                            vals.extend(entry[nz].tolist())
                self.lp_mat[bi] = scipy.sparse.csr_matrix(
                    (vals, (rows, cols)), shape=(m, block.size)
                )
        self.pure_lp = not self.sdp_stack
        if self.pure_lp:
            self.lp_all = scipy.sparse.hstack(
                [self.lp_mat[bi] for bi in range(len(self.blocks))], format="csr"
            )
            self.lp_all_csc = self.lp_all.tocsc()
        self.norm_b = float(np.linalg.norm(self.b)) if m else 0.0
        self.norm_c = math.sqrt(sum(_sqnorm(c) for c in self.objective))

    # -- block-space linear maps ------------------------------------------

    def apply_A(self, x: list) -> np.ndarray:
        out = np.zeros(self.m)
        for bi, block in enumerate(self.blocks):
            if block.kind == "sdp":
                out += self.sdp_flat[bi] @ _flat(x[bi])
            else:
                out += self.lp_mat[bi] @ x[bi]
        return out

    def apply_At(self, y: np.ndarray) -> list:
        out = []
        for bi, block in enumerate(self.blocks):
            if block.kind == "sdp":
                stack = self.sdp_stack[bi]
                flat = y @ self.sdp_flat[bi]
                out.append(flat.view(stack.dtype).reshape(stack.shape[1:]))
            else:
                out.append(self.lp_mat[bi].T @ y)
        return out


def _flat(a: np.ndarray) -> np.ndarray:
    """Float64 view of a flattened matrix: Re tr(A B) = _flat(A) @ _flat(B)
    for Hermitian A and B."""
    return a.reshape(-1).view(float)


def _inner(block: Block, a, b) -> float:
    if block.kind == "sdp":
        return float(np.sum(a * b.conj()).real)
    return float(a @ b)


def _sqnorm(a) -> float:
    return float(np.sum(np.abs(a) ** 2))


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def _dense_cholesky_with_jitter(mat: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor (LAPACK potrf) of mat plus the smallest jitter
    on the ladder that makes it positive definite."""
    scale = max(1.0, float(np.trace(mat)) / mat.shape[0])
    jitter = 0.0
    for attempt in range(9):
        c, info = _POTRF(mat + jitter * np.eye(mat.shape[0]), lower=1, clean=0)
        if info == 0:
            return c
        jitter = scale * 1e-14 * 10.0**attempt
    raise SolverFailure("Schur complement factorization failed")


class _NTScaling:
    """Per-block Nesterov-Todd scaling data for one iterate.

    On an SDP block R^-1 X R^-H = R^H S R = diag(lam), so the two factors
    G[bi] = lam^-1/2 [R^-1, R^H] map X and S to the identity by congruence.
    """

    def __init__(self, std: _Standardized, x: list, s: list):
        self.R: dict[int, np.ndarray] = {}
        self.Rinv: dict[int, np.ndarray] = {}
        self.W: dict[int, np.ndarray] = {}
        self.lam: dict[int, np.ndarray] = {}
        self.G: dict[int, np.ndarray] = {}
        self.w2: dict[int, np.ndarray] = {}
        for bi, block in enumerate(std.blocks):
            if block.kind == "sdp":
                try:
                    lx = np.linalg.cholesky(x[bi])
                    ls = np.linalg.cholesky(s[bi])
                except np.linalg.LinAlgError as exc:
                    raise SolverFailure(
                        "iterate left the PSD cone (Cholesky breakdown)"
                    ) from exc
                u, sig, vt = np.linalg.svd(ls.conj().T @ lx)
                if sig[-1] <= 0.0:
                    raise SolverFailure("NT scaling breakdown: singular iterate")
                inv_sqrt = 1.0 / np.sqrt(sig)
                r = lx @ (vt.conj().T * inv_sqrt)
                rinv = (inv_sqrt[:, None] * u.conj().T) @ ls.conj().T
                self.R[bi] = r
                self.Rinv[bi] = rinv
                self.W[bi] = r @ r.conj().T
                self.lam[bi] = sig
                self.G[bi] = np.stack([rinv, r.conj().T]) * inv_sqrt[:, None]
            else:
                if np.any(x[bi] <= 0.0) or np.any(s[bi] <= 0.0):
                    raise SolverFailure("iterate left the nonnegative cone")
                self.w2[bi] = x[bi] / s[bi]
                self.lam[bi] = np.sqrt(x[bi] * s[bi])


class _SchurSolver:
    """Factorization of M = A W A^T for one iterate, shared by both solves.

    A pure LP factorizes the sparse A diag(w2) A^T with a sparse LU; any SDP
    block, or a failed LU, gives a dense M and its jittered Cholesky factor.
    """

    def __init__(self, std: _Standardized, nt: _NTScaling):
        if std.pure_lp:
            a = std.lp_all_csc
            d = np.concatenate([nt.w2[bi] for bi in range(len(std.blocks))])
            mat = (a.multiply(d) @ a.T).tocsc()
            try:
                self._solve_once = scipy.sparse.linalg.splu(mat).solve
                self._mat = mat
                return
            except (RuntimeError, scipy.linalg.LinAlgError):
                mat = mat.toarray()
        else:
            mat = np.zeros((std.m, std.m))
            for bi, block in enumerate(std.blocks):
                if block.kind == "sdp":
                    w = nt.W[bi]
                    waw = np.matmul(w[None, :, :], np.matmul(std.sdp_stack[bi], w))
                    mat += std.sdp_flat[bi] @ waw.reshape(std.m, -1).view(float).T
                else:
                    a = std.lp_mat[bi]
                    if a.nnz:
                        mat += (a.multiply(nt.w2[bi]) @ a.T).toarray()
        self._mat = (mat + mat.T) / 2.0
        factor = _dense_cholesky_with_jitter(self._mat)
        self._solve_once = lambda rhs: _POTRS(factor, rhs, lower=1)[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        y = self._solve_once(rhs)
        # One step of iterative refinement stabilizes the late iterations.
        residual = rhs - self._mat @ y
        y = y + self._solve_once(residual)
        if not np.all(np.isfinite(y)):
            raise SolverFailure("Schur solve produced non-finite values")
        return y


def _max_step_lp(x: np.ndarray, delta: np.ndarray) -> float:
    neg = delta < 0.0
    return float(np.min(-x[neg] / delta[neg])) if np.any(neg) else _BIG_STEP


def solve(
    problem: ConicProblem,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
) -> ConicSolution:
    """Solve a ConicProblem; see the module docstring for the algorithm.

    Returns a ConicSolution whose status is 'optimal' only when the relative
    duality gap is at most gap_tol and both feasibility residuals are at most
    feas_tol. Hitting the iteration cap reports 'max_iter'; primal or dual
    infeasibility certificates report 'infeasible'/'unbounded'. Numerical
    breakdown raises SolverFailure, and invalid options raise ValueError.
    """
    for name, tol in (("gap_tol", gap_tol), ("feas_tol", feas_tol)):
        if not (math.isfinite(tol) and tol > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {tol}")
    if not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
    std = _Standardized(problem)
    if std.m == 0:
        # Nothing constrains the cone variable: unbounded below unless C = 0,
        # and even then nothing useful to report. Declared, not solved.
        sign = std.sign
        return ConicSolution(
            status="unbounded",
            primal_value=-math.inf if sign > 0 else math.inf,
            dual_value=-math.inf if sign > 0 else math.inf,
            gap=math.nan,
            primal_blocks=(),
            dual_multipliers=np.zeros(0),
            iterations=0,
            primal_residual=math.nan,
            dual_residual=math.nan,
        )

    nu = sum(b.size for b in std.blocks)
    norm_a = max(
        (
            math.sqrt(sum(_sqnorm(c) for c in con.coeffs if c is not None))
            for con in problem.constraints
        ),
        default=1.0,
    )
    rho_p = max(1.0, std.norm_b / max(1.0, norm_a))
    rho_d = max(1.0, std.norm_c / math.sqrt(nu), std.norm_b / max(1.0, norm_a))
    x = []
    s = []
    for bi, block in enumerate(std.blocks):
        if block.kind == "sdp":
            dtype = std.sdp_stack[bi].dtype
            x.append(rho_p * np.eye(block.size, dtype=dtype))
            s.append(rho_d * np.eye(block.size, dtype=dtype))
        else:
            x.append(rho_p * np.ones(block.size))
            s.append(rho_d * np.ones(block.size))
    y = np.zeros(std.m)

    trace: list[IterateRecord] = []
    status = "max_iter"
    iterations = max_iter
    pres = dres = math.inf
    pobj = dobj = math.nan

    for it in range(max_iter + 1):
        ax = std.apply_A(x)
        rp = std.b - ax
        aty = std.apply_At(y)
        rd = [std.objective[bi] - aty[bi] - s[bi] for bi in range(len(std.blocks))]
        pobj = sum(
            _inner(block, std.objective[bi], x[bi])
            for bi, block in enumerate(std.blocks)
        )
        dobj = float(std.b @ y)
        mu = sum(
            _inner(block, x[bi], s[bi]) for bi, block in enumerate(std.blocks)
        ) / nu
        pres = float(np.linalg.norm(rp)) / (1.0 + std.norm_b)
        dres = math.sqrt(sum(_sqnorm(r) for r in rd)) / (1.0 + std.norm_c)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj))
        trace.append(IterateRecord(it, std.sign * pobj, std.sign * dobj, mu, pres, dres))

        if gap <= gap_tol and pres <= feas_tol and dres <= feas_tol:
            status = "optimal"
            iterations = it
            break

        if it >= 3:
            certificate = _detect_certificates(std, x, s, y, feas_tol)
            if certificate is not None:
                status = certificate
                iterations = it
                break

        if it == max_iter:
            iterations = max_iter
            break

        nt = _NTScaling(std, x, s)
        schur = _SchurSolver(std, nt)

        # Predictor: target complementarity 0.
        rc_aff = [-xb for xb in x]
        dy_aff, dx_aff, ds_aff = _newton_step(std, nt, schur, rp, rd, rc_aff)

        ap, ad = _max_steps(std, nt, x, s, dx_aff, ds_aff)
        mu_aff = sum(
            _inner(
                block,
                x[bi] + min(1.0, ap) * dx_aff[bi],
                s[bi] + min(1.0, ad) * ds_aff[bi],
            )
            for bi, block in enumerate(std.blocks)
        ) / nu
        mu_aff = max(mu_aff, 0.0)
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3)) if mu > 0 else 0.0

        # Corrector: target sigma*mu minus the affine cross term.
        rc_cor = []
        for bi, block in enumerate(std.blocks):
            if block.kind == "sdp":
                lam = nt.lam[bi]
                dxh = nt.Rinv[bi] @ dx_aff[bi] @ nt.Rinv[bi].conj().T
                dsh = nt.R[bi].conj().T @ ds_aff[bi] @ nt.R[bi]
                cross = _sym(dxh @ dsh)
                d = -cross
                d[np.diag_indices_from(d)] += sigma * mu - lam**2
                z = 2.0 * d / np.add.outer(lam, lam)
                rc_cor.append(_sym(nt.R[bi] @ z @ nt.R[bi].conj().T))
            else:
                d = sigma * mu - x[bi] * s[bi] - dx_aff[bi] * ds_aff[bi]
                rc_cor.append(d / s[bi])
        dy, dx, ds = _newton_step(std, nt, schur, rp, rd, rc_cor)

        ap, ad = _max_steps(std, nt, x, s, dx, ds)
        ap, ad = min(1.0, _STEP_TO_BOUNDARY * ap), min(1.0, _STEP_TO_BOUNDARY * ad)
        for bi, block in enumerate(std.blocks):
            if block.kind == "sdp":
                x[bi] = _sym(x[bi] + ap * dx[bi])
                s[bi] = _sym(s[bi] + ad * ds[bi])
            else:
                x[bi] = x[bi] + ap * dx[bi]
                s[bi] = s[bi] + ad * ds[bi]
        y = y + ad * dy

    user_blocks = tuple(x[bi] for bi in range(std.n_user_blocks))
    sign = std.sign
    primal_value = sign * pobj
    dual_value = sign * dobj
    if status == "infeasible":
        primal_value = math.inf if sign > 0 else -math.inf
        dual_value = primal_value
    elif status == "unbounded":
        primal_value = -math.inf if sign > 0 else math.inf
        dual_value = primal_value
    gap_out = (
        abs(pobj - dobj) / (1.0 + abs(pobj)) if math.isfinite(pobj) else math.nan
    )
    return ConicSolution(
        status=status,
        primal_value=primal_value,
        dual_value=dual_value,
        gap=gap_out,
        primal_blocks=user_blocks,
        dual_multipliers=sign * y,
        iterations=iterations,
        primal_residual=pres,
        dual_residual=dres,
        trace=tuple(trace),
    )


def _newton_step(std, nt, schur, rp, rd, rc):
    """Solve the scaled Newton system for given residual targets."""
    rhs = rp.copy()
    for bi, block in enumerate(std.blocks):
        if block.kind == "sdp":
            t = nt.W[bi] @ rd[bi] @ nt.W[bi] - rc[bi]
            rhs += std.sdp_flat[bi] @ _flat(t)
        else:
            t = nt.w2[bi] * rd[bi] - rc[bi]
            rhs += std.lp_mat[bi] @ t
    dy = schur.solve(rhs)
    at_dy = std.apply_At(dy)
    dx, ds = [], []
    for bi, block in enumerate(std.blocks):
        dsb = rd[bi] - at_dy[bi]
        if block.kind == "sdp":
            dxb = _sym(rc[bi] - nt.W[bi] @ dsb @ nt.W[bi])
        else:
            dxb = rc[bi] - nt.w2[bi] * dsb
        dx.append(dxb)
        ds.append(dsb)
    return dy, dx, ds


def _max_steps(std, nt, x, s, dx, ds) -> tuple[float, float]:
    """Largest primal and dual steps that stay in the cone, or _BIG_STEP.

    With G X G^H = I, X + a dX is PSD exactly for a <= -1/lambda_min(G dX G^H);
    one eigvalsh per SDP block serves the primal and the dual side.
    """
    ap = ad = _BIG_STEP
    for bi, block in enumerate(std.blocks):
        if block.kind == "sdp":
            g = nt.G[bi]
            t = g @ np.stack([dx[bi], ds[bi]]) @ g.conj().transpose(0, 2, 1)
            t = (t + t.conj().transpose(0, 2, 1)) / 2.0
            lo_p, lo_d = np.linalg.eigvalsh(t)[:, 0].tolist()
            if lo_p < -1e-14:
                ap = min(ap, -1.0 / lo_p)
            if lo_d < -1e-14:
                ad = min(ad, -1.0 / lo_d)
        else:
            ap = min(ap, _max_step_lp(x[bi], dx[bi]))
            ad = min(ad, _max_step_lp(s[bi], ds[bi]))
    return ap, ad


def _detect_certificates(std, x, s, y, feas_tol) -> str | None:
    """Farkas-style infeasibility and unboundedness certificates."""
    bty = float(std.b @ y)
    scale_y = 1.0 + float(np.linalg.norm(y))
    if bty > 1e-8 * scale_y:
        aty = std.apply_At(y)
        res = math.sqrt(
            sum(_sqnorm(aty[bi] + s[bi]) for bi in range(len(std.blocks)))
        )
        if res <= 1e-7 * bty:
            return "infeasible"
    ctx = sum(
        _inner(block, std.objective[bi], x[bi]) for bi, block in enumerate(std.blocks)
    )
    scale_x = 1.0 + math.sqrt(sum(_sqnorm(xb) for xb in x))
    if ctx < -1e-8 * scale_x:
        res = float(np.linalg.norm(std.apply_A(x)))
        if res <= 1e-7 * (-ctx):
            return "unbounded"
    return None


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
    """max(1, max |c|) over the last two axes."""
    return np.maximum(1.0, np.abs(c).max(axis=(-2, -1)))


def _large(part: np.ndarray, scale) -> np.ndarray:
    """Whether `part` has an entry above 1e-10 relative to `scale`, over the
    last two axes."""
    return np.abs(part).max(axis=(-2, -1)) > 1e-10 * scale


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
        """fn(self, *args), for fn linear in its first argument."""
        return Affine(
            fn(self.offset, *args),
            {s: np.stack([fn(b, *args) for b in st]) for s, st in self.terms.items()},
        )

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
    imaginary parts still take real blocks.
    """

    def __init__(self):
        self._n_params = 0
        self._lmis: list[Affine] = []
        self._objective = Affine(0.0, {})
        self._kept = np.zeros(0, dtype=int)

    def variable(self, basis, offset=None) -> Affine:
        """A new variable offset + sum_k t_k basis[k]; offset defaults to 0."""
        basis = np.asarray(basis)
        start = self._n_params
        self._n_params += len(basis)
        if offset is None:
            offset = np.zeros(basis.shape[1:])
        return Affine(offset, {start: basis})

    def add_lmi(self, expr: Affine) -> None:
        """Require expr >= 0: PSD for a matrix, entrywise for a vector."""
        self._lmis.append(expr)

    def minimize(self, expr: Affine) -> None:
        """Set the number-valued objective."""
        self._objective = expr

    def build(self) -> ConicProblem:
        # Per LMI: its block, -F0 and, for the parameters of the variables
        # it involves, their indices and the stack of their F_k.
        blocks, objective, coeffs = [], [], []
        for lmi in self._lmis:
            lp = lmi.offset.ndim < 2
            shape = (lmi.offset.size,) if lp else lmi.offset.shape
            blocks.append(Block("lp" if lp else "sdp", shape[0]))
            objective.append(-lmi.offset.reshape(shape))
            rows = [np.arange(s, s + len(st)) for s, st in lmi.terms.items()]
            stack = [st.reshape(len(st), *shape) for st in lmi.terms.values()]
            coeffs.append((np.concatenate(rows), np.concatenate(stack)))
        rhs = np.zeros(self._n_params)
        for start, st in self._objective.terms.items():
            rhs[start : start + len(st)] = np.real(st)
        kept = _real_rows(blocks, objective, coeffs, rhs)
        real = kept is not None
        self._kept = kept if real else np.arange(self._n_params)
        entries = [[None] * len(blocks) for _ in range(self._n_params)]
        for j, (rows, stack) in enumerate(coeffs):
            if real:
                stack = stack.real
            nonzero = np.any(stack != 0, axis=tuple(range(1, stack.ndim)))
            for k, f in zip(rows[nonzero], stack[nonzero]):
                entries[k][j] = f
        return ConicProblem(
            blocks=tuple(blocks),
            objective=tuple(np.real(c) if real else c for c in objective),
            constraints=tuple(
                Constraint(tuple(entries[k]), rhs[k]) for k in self._kept
            ),
            maximize=True,
        )

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


def _real_rows(blocks: list, objective: list, coeffs: list, rhs: np.ndarray):
    """The indices of the rows kept with real blocks, or None when the data
    are not invariant under complex conjugation.

    `coeffs` holds per block the rows it enters and their coefficients,
    which are tested as one stack.
    """
    for block, c in zip(blocks, objective):
        if block.kind == "sdp" and _large(c.imag, _scale(c)):
            return None
    n_rows = len(rhs)
    # Per row: some PSD coefficient has an imaginary part; every PSD
    # coefficient is purely imaginary and Hermitian, hence antisymmetric;
    # the largest PSD scale; the largest |rhs| or |LP coefficient|.
    imaginary = np.zeros(n_rows, dtype=bool)
    antisymmetric = np.ones(n_rows, dtype=bool)
    scale = np.ones(n_rows)
    rest = np.abs(rhs)
    for block, (rows, c) in zip(blocks, coeffs):
        if block.kind == "lp":
            rest[rows] = np.maximum(rest[rows], np.abs(c).max(axis=1))
            continue
        mag = _scale(c)
        imaginary[rows] |= _large(c.imag, mag)
        antisymmetric[rows] &= ~(
            _large(c.real, mag) | _large(c + c.transpose(0, 2, 1), mag)
        )
        scale[rows] = np.maximum(scale[rows], mag)
    # A purely imaginary Hermitian coefficient reads 0 on every real
    # symmetric X, so its row may only be dropped when it asks for 0.
    # Non-Hermitian data fall through to complex blocks, which reject them.
    droppable = antisymmetric & (rest <= 1e-10 * scale)
    if np.any(imaginary & ~droppable):
        return None
    return np.flatnonzero(~imaginary)
