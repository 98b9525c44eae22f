"""Channel-simulation costs and distances as conic programs.

This module turns operational questions about quantum channels (how well can
one channel simulate another with no-signalling correlations, and how large a
noiseless channel is needed to simulate a noisy one) into explicit
semidefinite programs over Choi matrices, solved with :func:`nscost.conic.solve`.

Conventions. A channel N from A to B is its unnormalized Choi matrix

    J_N = sum_ij |i><j| (x) N(|i><j|),  tr_B J_N = 1_A.

A bipartite code Pi receives the simulation input on A_i, feeds the resource
channel through A_o -> B_i, and emits the simulated output on B_o; its Choi
matrix J_Pi is ordered (A_i, B_i, A_o, B_o). Simulation error is half the
diamond norm of the difference between the effective channel and the target,
computed through the standard SDP form

    (1/2) ||N1 - N2||_dia = inf { gamma : tr_B Y <= gamma 1_A,
                                  Y >= J_N1 - J_N2, Y >= 0 }.

All optimizations run through :class:`nscost.conic.HermitianProgram`, so the
values reported here are in the complex Hermitian domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import (
    ConicSolution,
    HermitianProgram,
    SolverFailure,
    dump_problem,
    solve,
)
from .qmat import (
    QuantumChannel,
    hermitian_basis,
    kron,
    lift,
    partial_trace,
    partial_transpose,
    traceless_hermitian_basis,
)

_CERT_TOL = 1e-9
_MSTAR_SLACK = 1e-6


@dataclass(frozen=True)
class CostResult:
    """Outcome of a one-shot simulation-cost optimization.

    Attributes:
        tr_v_opt: optimal trace of the resource operator V, so the simulating
            noiseless channel needs dimension ceil(sqrt(tr_v_opt)).
        half_log_trv: (1/2) log2 tr_v_opt, the unceiled cost in qubits. This
            is half the (smooth) max-information of the channel.
        m_star: smallest integer m with m^2 >= tr_v_opt - 1e-6.
        cost_bits: log2 m_star, the dimension-ceiled cost.
        delta: cost_bits - half_log_trv, the integrality correction in [0, 1];
            clamped at 0 when tr_v_opt lies within the 1e-6 slack above
            m_star^2.
    """

    tr_v_opt: float
    half_log_trv: float
    m_star: int
    cost_bits: float
    delta: float


@dataclass(frozen=True)
class CertificatePair:
    """A weak-duality certificate for the zero-error cost SDP.

    primal_v lives on the output system and must satisfy J_N <= 1 (x) V;
    dual_x lives on input (x) output and must satisfy X >= 0 and
    tr_A X <= 1_B. Equal objectives tr V = tr(J_N X) prove optimality
    of both without trusting any solver.
    """

    primal_v: np.ndarray
    dual_x: np.ndarray


@dataclass(frozen=True)
class CertificateCheck:
    """Result of verifying a CertificatePair against a channel."""

    status: str
    gap: float


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius inner product of two Hermitian matrices (a real number)."""
    return float(np.real(np.sum(np.conj(a) * b)))


def _ceil_sqrt(tr_v: float) -> int:
    """Smallest positive integer m with m^2 >= tr_v - 1e-6.

    Uses integer arithmetic so the answer stays exact even when tr_v is
    astronomically large (many-use simulation costs reach 2^500 and beyond).
    """
    target = tr_v - _MSTAR_SLACK
    if target <= 1.0:
        return 1
    m = math.isqrt(math.ceil(target))
    if m * m < target:
        m += 1
    return max(m, 1)


def cost_result_from_trv(tr_v: float, *, log2_trv: float | None = None) -> CostResult:
    """Package an optimal tr V into a CostResult.

    Args:
        tr_v: the optimal trace, at least 1 for any channel.
        log2_trv: optional exact log2 of tr_v, preferred when the caller
            already works in the log domain (large blocklengths).
    """
    if not tr_v > 0.0:
        raise ValueError(f"tr V must be positive, got {tr_v}")
    if log2_trv is None:
        log2_trv = math.log2(tr_v)
    half = 0.5 * log2_trv
    m_star = _ceil_sqrt(tr_v)
    cost_bits = math.log2(m_star)
    return CostResult(
        tr_v_opt=float(tr_v),
        half_log_trv=half,
        m_star=m_star,
        cost_bits=cost_bits,
        delta=max(cost_bits - half, 0.0),
    )


def _run(
    program: HermitianProgram,
    *,
    gap_tol: float,
    feas_tol: float,
    max_iter: int,
    dump_path: str | None,
) -> ConicSolution:
    """Build, optionally dump, and solve a program; demand an optimal status."""
    problem = program.build()
    if dump_path is not None:
        dump_problem(problem, dump_path)
    sol = solve(problem, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter)
    if sol.status != "optimal":
        raise SolverFailure(
            f"conic solve finished with status '{sol.status}'", status=sol.status
        )
    return sol


def _normalize_code(code: str) -> str:
    canon = str(code).strip().upper().replace("-", "_").replace("+", "_")
    if canon in ("NS", "NS_PPT"):
        return canon
    raise ValueError(f"unknown code class {code!r}, expected 'NS' or 'NS_PPT'")


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"error tolerance must lie in [0, 1], got {eps}")
    return eps


def diamond_norm_dist(
    n1: QuantumChannel,
    n2: QuantumChannel,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
    dump_path: str | None = None,
) -> float:
    """Half the diamond-norm distance between two channels.

    Solves min gamma subject to tr_B Y <= gamma 1_A, Y >= J_N1 - J_N2 and
    Y >= 0. The value lies in [0, 1] and is symmetric in its arguments.

    Raises:
        ValueError: if the channels' dimensions differ.
        SolverFailure: if the interior-point solve does not reach optimality.
    """
    if (n1.dim_in, n1.dim_out) != (n2.dim_in, n2.dim_out):
        raise ValueError(
            f"channel dimensions differ: {(n1.dim_in, n1.dim_out)} vs "
            f"{(n2.dim_in, n2.dim_out)}"
        )
    da, db = n1.dim_in, n1.dim_out
    diff = n1.choi - n2.choi
    hp = HermitianProgram()
    gamma = hp.add_nonneg(1)
    y = hp.add_psd(da * db)
    z = hp.add_psd(da * db)
    w = hp.add_psd(da)
    # z = y - (J_N1 - J_N2)
    for h in hermitian_basis(da * db):
        hp.add_eq({z: h, y: -h}, -_inner(h, diff))
    # w = gamma 1_A - tr_B y
    for f in hermitian_basis(da):
        tr_f = float(np.real(np.trace(f)))
        hp.add_eq(
            {w: f, y: lift(f, [0], [da, db]), gamma: np.array([-tr_f])}, 0.0
        )
    hp.set_objective({gamma: np.ones(1)})
    sol = _run(
        hp, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter, dump_path=dump_path
    )
    return float(sol.primal_value)


def _no_signalling_rows(hp: HermitianProgram, j_pi, dims: list[int]) -> None:
    """Add the two marginal no-signalling conditions on a code variable.

    With J_Pi ordered (A_i, B_i, A_o, B_o), "A cannot signal to B" says
    tr_{A_o} J_Pi has no traceless component on A_i, and "B cannot signal
    to A" says tr_{B_o} J_Pi has no traceless component on B_i. Components
    already fixed by trace preservation are omitted so the rows stay
    linearly independent.
    """
    d_ai, d_bi, d_ao, d_bo = dims
    for t in traceless_hermitian_basis(d_ai):
        for f in hermitian_basis(d_bi):
            tf = kron(t, f)
            for g in traceless_hermitian_basis(d_bo):
                hp.add_eq({j_pi: lift(kron(tf, g), [0, 1, 3], dims)}, 0.0)
    for f in hermitian_basis(d_ai):
        for t in traceless_hermitian_basis(d_bi):
            ft = kron(f, t)
            for g in traceless_hermitian_basis(d_ao):
                hp.add_eq({j_pi: lift(kron(ft, g), [0, 1, 2], dims)}, 0.0)


def min_error_simulation(
    n: QuantumChannel,
    m: QuantumChannel,
    code: str = "NS",
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
    dump_path: str | None = None,
) -> float:
    """Minimum simulation error from resource channel n to target channel m.

    Optimizes over all bipartite codes Pi that are no-signalling in both
    directions (code "NS"), or additionally have a positive partial
    transpose over Bob's systems (code "NS_PPT"). The effective channel's
    Choi matrix enters through the composition identity

        J_M~ = tr_{A_o B_i} (J_N^T (x) 1_{A_i B_o}) J_Pi,

    and the objective is half the diamond distance between M~ and m.

    Args:
        n: the available resource channel, mapping A_o to B_i.
        m: the target channel, mapping A_i to B_o.
        code: "NS" or "NS_PPT".

    Returns:
        The least achievable error, a scalar in [0, 1].
    """
    code = _normalize_code(code)
    d_ai, d_bo = m.dim_in, m.dim_out
    d_ao, d_bi = n.dim_in, n.dim_out
    dims = [d_ai, d_bi, d_ao, d_bo]
    d_tot = d_ai * d_bi * d_ao * d_bo
    d_sim = d_ai * d_bo

    hp = HermitianProgram()
    gamma = hp.add_nonneg(1)
    y = hp.add_psd(d_sim)
    j_pi = hp.add_psd(d_tot)
    z = hp.add_psd(d_sim)
    w = hp.add_psd(d_ai)

    # w = gamma 1_{A_i} - tr_{B_o} y
    for f in hermitian_basis(d_ai):
        tr_f = float(np.real(np.trace(f)))
        hp.add_eq(
            {w: f, y: lift(f, [0], [d_ai, d_bo]), gamma: np.array([-tr_f])}, 0.0
        )
    # z = y - J_M~ + J_M, with J_M~ linear in j_pi
    lifted_jn_t = lift(n.choi.T, [2, 1], dims)
    for h in hermitian_basis(d_sim):
        coeff = lifted_jn_t @ lift(h, [0, 3], dims)
        hp.add_eq({z: h, y: -h, j_pi: coeff}, _inner(h, m.choi))
    # Trace preservation of the code: tr_{A_o B_o} J_Pi = 1_{A_i B_i}
    for f in hermitian_basis(d_ai):
        tr_f = float(np.real(np.trace(f)))
        for g in hermitian_basis(d_bi):
            rhs = tr_f * float(np.real(np.trace(g)))
            hp.add_eq({j_pi: lift(kron(f, g), [0, 1], dims)}, rhs)
    _no_signalling_rows(hp, j_pi, dims)
    if code == "NS_PPT":
        p = hp.add_psd(d_tot)
        for h in hermitian_basis(d_tot):
            hp.add_eq({p: h, j_pi: -partial_transpose(h, dims, [1, 3])}, 0.0)

    hp.set_objective({gamma: np.ones(1)})
    sol = _run(
        hp, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter, dump_path=dump_path
    )
    return float(sol.primal_value)


def min_error_noiseless(
    m: int,
    n: QuantumChannel,
    code: str = "NS",
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
    dump_path: str | None = None,
) -> float:
    """Minimum error when simulating n with a noiseless channel of size m.

    Uses the symmetry-reduced form of the code optimization: the noiseless
    resource id_m is invariant under U (x) conj(U), which collapses the code
    variable to an effective channel J~ together with a resource operator V,

        min gamma  s.t.  tr_B Y <= gamma 1_A,  Y >= J~ - J_N,  Y >= 0,
                         J~ >= 0,  tr_B J~ = 1_A,
                         J~ <= 1_A (x) V,  tr V = m^2.

    For code "NS_PPT" the additional constraint
    -1 (x) V^T <= m J~^{T_B} <= 1 (x) V^T is enforced. At m = 1 both code
    classes collapse to the best constant-channel approximation (J~ is
    forced to equal 1 (x) V and the partial-transpose bounds become vacuous),
    which is solved in that reduced form to keep the feasible set full
    dimensional.
    """
    if int(m) != m or m < 1:
        raise ValueError(f"noiseless channel size must be a positive integer, got {m}")
    m = int(m)
    code = _normalize_code(code)
    da, db = n.dim_in, n.dim_out
    dab = da * db

    hp = HermitianProgram()
    gamma = hp.add_nonneg(1)
    y = hp.add_psd(dab)
    v = hp.add_psd(db)
    w = hp.add_psd(da)
    for f in hermitian_basis(da):
        tr_f = float(np.real(np.trace(f)))
        hp.add_eq(
            {w: f, y: lift(f, [0], [da, db]), gamma: np.array([-tr_f])}, 0.0
        )
    hp.add_eq({v: np.eye(db, dtype=np.complex128)}, float(m * m))

    if m == 1:
        # J~ = 1 (x) V exactly; only the diamond-distance part survives.
        z1 = hp.add_psd(dab)
        for h in hermitian_basis(dab):
            v_coeff = partial_trace(h, [da, db], 0)
            hp.add_eq({z1: h, y: -h, v: v_coeff}, _inner(h, n.choi))
    else:
        jt = hp.add_psd(dab)
        z1 = hp.add_psd(dab)
        z2 = hp.add_psd(dab)
        for h in hermitian_basis(dab):
            hp.add_eq({z1: h, y: -h, jt: h}, _inner(h, n.choi))
        for f in hermitian_basis(da):
            hp.add_eq({jt: lift(f, [0], [da, db])}, float(np.real(np.trace(f))))
        for h in hermitian_basis(dab):
            hp.add_eq({z2: h, jt: h, v: -partial_trace(h, [da, db], 0)}, 0.0)
        if code == "NS_PPT":
            p1 = hp.add_psd(dab)
            p2 = hp.add_psd(dab)
            for h in hermitian_basis(dab):
                h_tb = partial_transpose(h, [da, db], 1)
                v_t = np.conj(partial_trace(h, [da, db], 0))
                hp.add_eq({p1: h, jt: -m * h_tb, v: -v_t}, 0.0)
                hp.add_eq({p2: h, jt: m * h_tb, v: -v_t}, 0.0)

    hp.set_objective({gamma: np.ones(1)})
    sol = _run(
        hp, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter, dump_path=dump_path
    )
    return float(sol.primal_value)


def _zero_error_trv(
    n: QuantumChannel,
    *,
    gap_tol: float,
    feas_tol: float,
    max_iter: int,
    dump_path: str | None,
) -> float:
    """Optimal value of min { tr V : J_N <= 1_A (x) V }."""
    da, db = n.dim_in, n.dim_out
    hp = HermitianProgram()
    v = hp.add_psd(db)
    z = hp.add_psd(da * db)
    # z = 1 (x) V - J_N
    for h in hermitian_basis(da * db):
        hp.add_eq(
            {z: h, v: -partial_trace(h, [da, db], 0)}, -_inner(h, n.choi)
        )
    hp.set_objective({v: np.eye(db, dtype=np.complex128)})
    sol = _run(
        hp, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter, dump_path=dump_path
    )
    return float(sol.primal_value)


def _eps_simulation_trv(
    n: QuantumChannel,
    eps: float,
    *,
    gap_tol: float,
    feas_tol: float,
    max_iter: int,
    dump_path: str | None,
) -> float:
    """Optimal tr V for simulating n within diamond-norm error eps.

    The program optimizes jointly over the simulating channel J~ and the
    resource operator V:

        min tr V  s.t.  tr_B Y <= eps 1_A,  Y >= J~ - J_N,  Y >= 0,
                        J~ >= 0,  tr_B J~ = 1_A,  J~ <= 1_A (x) V.

    At eps = 0 the Y block is forced to vanish; callers route that case to
    :func:`_zero_error_trv`, whose feasible set keeps an interior.
    """
    da, db = n.dim_in, n.dim_out
    dab = da * db
    hp = HermitianProgram()
    y = hp.add_psd(dab)
    jt = hp.add_psd(dab)
    v = hp.add_psd(db)
    w = hp.add_psd(da)
    z1 = hp.add_psd(dab)
    z2 = hp.add_psd(dab)
    # w = eps 1_A - tr_B y
    for f in hermitian_basis(da):
        hp.add_eq(
            {w: f, y: lift(f, [0], [da, db])}, eps * float(np.real(np.trace(f)))
        )
    # z1 = y - J~ + J_N
    for h in hermitian_basis(dab):
        hp.add_eq({z1: h, y: -h, jt: h}, _inner(h, n.choi))
    # trace preservation of J~
    for f in hermitian_basis(da):
        hp.add_eq({jt: lift(f, [0], [da, db])}, float(np.real(np.trace(f))))
    # z2 = 1 (x) V - J~
    for h in hermitian_basis(dab):
        hp.add_eq({z2: h, jt: h, v: -partial_trace(h, [da, db], 0)}, 0.0)
    hp.set_objective({v: np.eye(db, dtype=np.complex128)})
    sol = _run(
        hp, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter, dump_path=dump_path
    )
    return float(sol.primal_value)


def _trv_at_eps(n: QuantumChannel, eps: float, **kw) -> float:
    if eps == 0.0:
        return _zero_error_trv(n, **kw)
    return _eps_simulation_trv(n, eps, **kw)


def one_shot_cost_ns(
    n: QuantumChannel,
    eps: float,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
    dump_path: str | None = None,
) -> CostResult:
    """One-shot eps-error simulation cost of a channel under NS codes.

    The cost in qubits is log2 of the smallest noiseless-channel dimension
    achieving error at most eps, equal to log2 ceil(sqrt(tr V*)) where
    tr V* optimizes the eps-simulation program. The unceiled half-log value
    is reported alongside, so the integer correction delta is exact.
    """
    eps = _check_eps(eps)
    trv = _trv_at_eps(
        n,
        eps,
        gap_tol=gap_tol,
        feas_tol=feas_tol,
        max_iter=max_iter,
        dump_path=dump_path,
    )
    return cost_result_from_trv(trv)


def one_shot_cost_ns_ppt(
    n: QuantumChannel,
    eps: float,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
    dump_path: str | None = None,
) -> CostResult:
    """One-shot eps-error simulation cost under NS codes with PPT states.

    The PPT-constrained cost has no single-program form because the
    noiseless size m enters both linearly and quadratically, so this runs
    an integer search: the smallest m in 1..dim_in whose NS-and-PPT
    simulation error is at most eps (plus a 1e-7 numerical allowance).
    m = dim_in always succeeds, because sending the input through id_m and
    applying the channel afterwards is an error-free NS-and-PPT code.
    """
    eps = _check_eps(eps)
    chosen = n.dim_in
    for m in range(1, n.dim_in + 1):
        err = min_error_noiseless(
            m,
            n,
            "NS_PPT",
            gap_tol=gap_tol,
            feas_tol=feas_tol,
            max_iter=max_iter,
            dump_path=dump_path if m == 1 else None,
        )
        if err <= eps + 1e-7:
            chosen = m
            break
    bits = math.log2(chosen)
    return CostResult(
        tr_v_opt=float(chosen * chosen),
        half_log_trv=bits,
        m_star=chosen,
        cost_bits=bits,
        delta=0.0,
    )


def zero_error_cost(
    n: QuantumChannel,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
    dump_path: str | None = None,
) -> CostResult:
    """Zero-error NS-assisted simulation cost of a channel.

    At eps = 0 the simulating channel must equal the target exactly, which
    reduces the cost program to min { tr V : J_N <= 1_A (x) V }. Half the
    log of this optimum is also the asymptotic zero-error cost per use,
    since the underlying conditional min-entropy is additive.
    """
    trv = _zero_error_trv(
        n, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter, dump_path=dump_path
    )
    return cost_result_from_trv(trv)


def max_information(
    n: QuantumChannel,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
    dump_path: str | None = None,
) -> float:
    """Max-information of a channel in bits: log2 min { tr V : J <= 1 (x) V }."""
    trv = _zero_error_trv(
        n, gap_tol=gap_tol, feas_tol=feas_tol, max_iter=max_iter, dump_path=dump_path
    )
    return math.log2(trv)


def smooth_max_information(
    n: QuantumChannel,
    eps: float,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
    dump_path: str | None = None,
) -> float:
    """Smooth max-information: the max-information minimized over the
    diamond-norm eps-ball of channels around n.

    Shares its program with :func:`one_shot_cost_ns`, so the identity
    cost_bits = log2 ceil(sqrt(2^value)) holds exactly on every instance.
    """
    eps = _check_eps(eps)
    trv = _trv_at_eps(
        n,
        eps,
        gap_tol=gap_tol,
        feas_tol=feas_tol,
        max_iter=max_iter,
        dump_path=dump_path,
    )
    return math.log2(trv)


def robustness(
    n: QuantumChannel,
    eps: float,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-8,
    max_iter: int = 200,
    dump_path: str | None = None,
) -> float:
    """Generalized robustness of a channel at smoothing level eps.

    Equals 2^I_max^eps - 1: the least mixing weight of another channel that
    makes the mixture a constant channel, minimized over the eps-ball.
    """
    eps = _check_eps(eps)
    trv = _trv_at_eps(
        n,
        eps,
        gap_tol=gap_tol,
        feas_tol=feas_tol,
        max_iter=max_iter,
        dump_path=dump_path,
    )
    return trv - 1.0


def choi_compose(j_n: np.ndarray, j_pi: np.ndarray, dims: dict) -> np.ndarray:
    """Choi matrix of the channel obtained by wiring a code around a channel.

    Args:
        j_n: Choi matrix of the inner channel, on A_o (x) B_i.
        j_pi: Choi matrix of the bipartite code, ordered (A_i, B_i, A_o, B_o).
        dims: mapping with integer entries for keys "A_i", "B_i", "A_o", "B_o".

    Returns:
        J = tr_{A_o B_i} (J_N^T (x) 1_{A_i B_o}) J_Pi on A_i (x) B_o.
    """
    try:
        d = [int(dims[k]) for k in ("A_i", "B_i", "A_o", "B_o")]
    except KeyError as missing:
        raise ValueError(f"dims is missing key {missing}") from None
    d_ai, d_bi, d_ao, d_bo = d
    j_n = np.asarray(j_n, dtype=np.complex128)
    j_pi = np.asarray(j_pi, dtype=np.complex128)
    if j_n.shape != (d_ao * d_bi, d_ao * d_bi):
        raise ValueError(
            f"inner Choi shape {j_n.shape} does not match A_o*B_i = {d_ao * d_bi}"
        )
    d_tot = d_ai * d_bi * d_ao * d_bo
    if j_pi.shape != (d_tot, d_tot):
        raise ValueError(
            f"code Choi shape {j_pi.shape} does not match total dimension {d_tot}"
        )
    lifted = lift(j_n.T, [2, 1], d)
    return partial_trace(lifted @ j_pi, d, (1, 2))


def verify_certificate(n: QuantumChannel, cert: CertificatePair) -> CertificateCheck:
    """Check a primal/dual pair for the zero-error cost program.

    Primal feasibility means J_N <= 1 (x) V; dual feasibility means X >= 0
    and tr_A X <= 1_B. When both hold and tr V agrees with tr(J_N X) within
    1e-9, weak duality pins both values as optimal. Feasible pairs whose
    objectives disagree report "gap_open" rather than claiming optimality.
    """
    da, db = n.dim_in, n.dim_out
    v = np.asarray(cert.primal_v, dtype=np.complex128)
    x = np.asarray(cert.dual_x, dtype=np.complex128)
    if v.shape != (db, db):
        raise ValueError(f"primal V shape {v.shape} does not match output dim {db}")
    if x.shape != (da * db, da * db):
        raise ValueError(
            f"dual X shape {x.shape} does not match input*output dim {da * db}"
        )

    def _feasible_psd(mat: np.ndarray) -> bool:
        if np.max(np.abs(mat - mat.conj().T)) > _CERT_TOL:
            return False
        return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)[0]) >= -_CERT_TOL

    primal_ok = _feasible_psd(kron(np.eye(da, dtype=np.complex128), v) - n.choi)
    dual_ok = _feasible_psd(x) and _feasible_psd(
        np.eye(db, dtype=np.complex128) - partial_trace(x, [da, db], 0)
    )
    gap = abs(float(np.real(np.trace(v))) - float(np.real(np.trace(n.choi @ x))))
    if primal_ok and dual_ok:
        status = "optimal_confirmed" if gap <= _CERT_TOL else "gap_open"
    elif primal_ok:
        status = "primal_only"
    elif dual_ok:
        status = "dual_only"
    else:
        status = "infeasible"
    return CertificateCheck(status=status, gap=gap)
