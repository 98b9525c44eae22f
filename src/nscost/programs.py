"""Channel-simulation costs and distances as conic programs.

This module turns operational questions about quantum channels (how well can
one channel simulate another with no-signalling correlations, and how large a
noiseless channel is needed to simulate a noisy one) into explicit
semidefinite programs over Choi matrices, solved with :func:`nscost.conic.solve`
(:func:`nscost.conic.solve_many` for a batch of them).

Conventions. A channel N from A to B is its unnormalized Choi matrix

    J_N = sum_ij |i><j| (x) N(|i><j|),  tr_B J_N = 1_A.

A bipartite code Pi receives the simulation input on A_i, feeds the resource
channel through A_o -> B_i, and emits the simulated output on B_o; its Choi
matrix J_Pi is ordered (A_i, B_i, A_o, B_o). Simulation error is half the
diamond norm of the difference between the effective channel and the target,
computed through the standard SDP form

    (1/2) ||N1 - N2||_dia = inf { gamma : tr_B Y <= gamma 1_A,
                                  Y >= J_N1 - J_N2, Y >= 0 }.

Every program is stated as in its docstring, in LMI form through
:class:`nscost.conic.HermitianProgram`: each matrix variable is free
Hermitian, or ranges over the affine subspace that an equality constraint
leaves (tr_B J~ = 1_A, tr V = m^2, the no-signalling code space), and each
matrix inequality is one LMI. No program adds a slack variable or an
equality row. The values reported are the objective at the solver's
parameters, in the complex Hermitian domain.

Every program entry point takes ``**solve_kw``: ``dump_path``, a file to
which the (first) built conic problem is written as JSON before it is
solved, and the options of :func:`nscost.conic.solver_options`, passed on
unchanged, so that their defaults hold for any option not given.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from .conic import (
    Affine,
    HermitianProgram,
    SolverFailure,
    dump_problem,
    solve,
    solve_many,
    solver_options,
)
from .qmat import (
    QuantumChannel,
    _unit_interval,
    hermitian_basis,
    is_psd,
    kron,
    lift,
    partial_trace,
    partial_transpose,
    traceless_hermitian_basis,
)

_CERT_TOL = 1e-9
_MSTAR_SLACK = 1e-6
_ERR_SLACK = 1e-7  # an NS+PPT error up to eps + _ERR_SLACK meets eps


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


def _m_star_bits(tr_v: float) -> tuple[int, float]:
    """m*, the smallest positive integer m with m^2 >= tr_v - 1e-6, and the
    ceiled cost log2 m* in bits.

    Uses integer arithmetic so m* stays exact even when tr_v is
    astronomically large (many-use simulation costs reach 2^500 and beyond).
    tr_v must be a Python float: a numpy scalar would turn the integer
    comparison into a float64 one, which rounds m^2 once it passes 2^53.
    """
    target = tr_v - _MSTAR_SLACK
    if target <= 1.0:
        return 1, 0.0
    m = math.isqrt(math.ceil(target))
    if m * m < target:
        m += 1
    return m, math.log2(m)


def cost_result_from_trv(tr_v: float, *, log2_trv: float | None = None) -> CostResult:
    """Package an optimal tr V into a CostResult.

    Args:
        tr_v: the optimal trace, at least 1 for any channel.
        log2_trv: optional exact log2 of tr_v, preferred when the caller
            already works in the log domain (large blocklengths).
    """
    tr_v = float(tr_v)  # see _m_star_bits
    if not tr_v > 0.0:
        raise ValueError(f"tr V must be positive, got {tr_v}")
    if log2_trv is None:
        log2_trv = math.log2(tr_v)
    half = 0.5 * float(log2_trv)
    m_star, cost_bits = _m_star_bits(tr_v)
    return CostResult(
        tr_v_opt=tr_v,
        half_log_trv=half,
        m_star=m_star,
        cost_bits=cost_bits,
        delta=max(cost_bits - half, 0.0),
    )


def _run_all(programs: list, problems: list, dump_path: str | None = None,
             **solve_kw) -> list:
    """Solve the built `problems`, after dumping the first if asked, in one
    batch; demand optimal statuses and return the objective of each of
    `programs` at its problem's solution.

    A single problem goes through `solve`, the per-problem entry point that
    perfbench's tracer wraps; more go through one `solve_many` call.
    """
    if dump_path is not None and problems:
        dump_problem(problems[0], dump_path)
    if len(problems) == 1:
        sols = [solve(problems[0], **solve_kw)]
    else:
        sols = solve_many(problems, **solve_kw)
    for sol in sols:
        if sol.status != "optimal":
            raise SolverFailure(
                f"conic solve finished with status '{sol.status}'", status=sol.status
            )
    return [program.value(sol) for program, sol in zip(programs, sols)]


def _run(program: HermitianProgram, **solve_kw) -> float:
    """The objective of one program at its solution; see :func:`_run_all`."""
    return _run_all([program], [program.build()], **solve_kw)[0]


def _normalize_code(code: str) -> str:
    canon = str(code).strip().upper().replace("-", "_").replace("+", "_")
    if canon in ("NS", "NS_PPT"):
        return canon
    raise ValueError(f"unknown code class {code!r}, expected 'NS' or 'NS_PPT'")


def _built_once(build):
    """`build`, a function of dimensions that returns a basis stack, with
    its results read-only and kept for later calls when they take at most
    1 MiB (a full basis of 16 x 16 matrices). Bigger bases are built per
    call, so a process does not hold them once their program is gone."""
    kept = {}

    @functools.wraps(build)
    def cached(*key):
        stack = kept.get(key)
        if stack is None:
            stack = build(*key)
            stack.setflags(write=False)
            if stack.nbytes <= 2**20:
                kept[key] = stack
        return stack

    return cached


@_built_once
def _basis_stack(basis, n: int) -> np.ndarray:
    """basis(n), a list of n x n matrices such as hermitian_basis(n), as one
    stack."""
    return np.array(basis(n)).reshape(-1, n, n)


@_built_once
def _product_basis(dims: tuple, drop: tuple = ()) -> np.ndarray:
    """Orthonormal basis of the Hermitian operators on the product of `dims`:
    tensor products of one of 1/sqrt(d) and traceless_hermitian_basis(d) on
    each system, 1/sqrt(d) standing for that multiple of the identity, as a
    stack.

    A product is left out when its pattern matches one in `drop`, which
    names per system "1" for 1/sqrt(d), "T" for a traceless element and "."
    for either.
    """
    basis, patterns = np.ones((1, 1, 1)), [""]
    for d in dims:
        factors = np.stack([np.eye(d) / math.sqrt(d), *traceless_hermitian_basis(d)])
        size = basis.shape[1] * d
        basis = np.einsum("aij,bkl->abikjl", basis, factors).reshape(-1, size, size)
        patterns = [p + c for p in patterns for c in "1" + "T" * (d * d - 1)]
    keep = [not any(re.fullmatch(pat, p) for pat in drop) for p in patterns]
    return basis[keep]


def _channel_variable(hp: HermitianProgram, da: int, db: int) -> Affine:
    """A Hermitian J on A (x) B with tr_B J = 1_A: 1/d_B plus the components
    that are traceless on B."""
    return hp.variable(_product_basis((da, db), (".1",)), np.eye(da * db) / db)


def _add_diamond_ball(hp: HermitianProgram, delta, da: int, db: int, radius) -> None:
    """Require (1/2) ||Delta||_dia <= radius for a difference Delta of Choi
    matrices on A (x) B: tr_B Y <= radius 1_A with Y >= Delta and Y >= 0."""
    y = hp.variable(_basis_stack(hermitian_basis, da * db))
    hp.add_lmi(radius * np.eye(da) - y.map(partial_trace, [da, db], 1))
    hp.add_lmi(y - delta)
    hp.add_lmi(y)


def diamond_norm_dist(n1: QuantumChannel, n2: QuantumChannel, **solve_kw) -> float:
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
    hp = HermitianProgram()
    gamma = hp.variable([1.0])
    _add_diamond_ball(hp, n1.choi - n2.choi, n1.dim_in, n1.dim_out, gamma)
    hp.minimize(gamma)
    return _run(hp, **solve_kw)


def min_error_simulation(
    n: QuantumChannel,
    m: QuantumChannel,
    code: str = "NS",
    **solve_kw,
) -> float:
    """Minimum simulation error from resource channel n to target channel m.

    Optimizes over all bipartite codes Pi that are no-signalling in both
    directions (code "NS"), or additionally have a positive partial
    transpose over Bob's systems (code "NS_PPT"). The effective channel's
    Choi matrix enters through the composition identity of
    :func:`choi_compose`,

        J_M~ = tr_{A_o B_i} (J_N^T (x) 1_{A_i B_o}) J_Pi,

    and the objective is half the diamond distance between M~ and m.

    The code variable is parametrized over the NS code space. On the
    product basis of `_product_basis` over (A_i, B_i, A_o, B_o), trace
    preservation tr_{A_o B_o} J_Pi = 1_{A_i B_i} fixes the (., ., 1, 1)
    components, "A cannot signal to B" zeroes the (T, ., 1, T) ones and "B
    cannot signal to A" the (., T, T, 1) ones.

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

    hp = HermitianProgram()
    gamma = hp.variable([1.0])
    j_pi = hp.variable(
        _product_basis(tuple(dims), ("..11", "T.1T", ".TT1")),
        np.eye(math.prod(dims)) / (d_ao * d_bo),
    )
    j_eff = j_pi.map(functools.partial(choi_compose, n.choi),
                     dict(zip(("A_i", "B_i", "A_o", "B_o"), dims)))
    _add_diamond_ball(hp, j_eff - m.choi, d_ai, d_bo, gamma)
    hp.add_lmi(j_pi)
    if code == "NS_PPT":
        hp.add_lmi(j_pi.map(partial_transpose, dims, [1, 3]))
    hp.minimize(gamma)
    return _run(hp, **solve_kw)


def min_error_noiseless(
    m: int,
    n: QuantumChannel,
    code: str = "NS",
    **solve_kw,
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
    return _run(_noiseless_program(m, n, code), **solve_kw)


def _noiseless_program(m: int, n: QuantumChannel, code: str) -> HermitianProgram:
    """The program of :func:`min_error_noiseless`, unsolved."""
    if int(m) != m or m < 1:
        raise ValueError(f"noiseless channel size must be a positive integer, got {m}")
    m = int(m)
    code = _normalize_code(code)
    da, db = n.dim_in, n.dim_out

    hp = HermitianProgram()
    gamma = hp.variable([1.0])
    v = hp.variable(_basis_stack(traceless_hermitian_basis, db), m * m / db * np.eye(db))
    one_v = v.map(lift, [1], [da, db])  # 1_A (x) V
    if m == 1:
        # J~ = 1 (x) V exactly, which is >= 0 when V is.
        jt = one_v
        hp.add_lmi(v)
    else:
        jt = _channel_variable(hp, da, db)
        hp.add_lmi(jt)
        hp.add_lmi(one_v - jt)
        if code == "NS_PPT":
            one_vt = v.map(np.swapaxes, -1, -2).map(lift, [1], [da, db])
            jt_tb = m * jt.map(partial_transpose, [da, db], 1)
            hp.add_lmi(one_vt - jt_tb)
            hp.add_lmi(one_vt + jt_tb)
    _add_diamond_ball(hp, jt - n.choi, da, db, gamma)
    hp.minimize(gamma)
    return hp


@_built_once
def _lifted_basis(da: int, db: int) -> np.ndarray:
    """The lifts 1_A (x) B_k of hermitian_basis(db), which parametrize
    1_A (x) V in the zero-error program for every channel of one shape."""
    return lift(_basis_stack(hermitian_basis, db), [1], [da, db])


def _zero_error_program(n: QuantumChannel) -> tuple[HermitianProgram, Affine]:
    """min { tr V : J_N <= 1_A (x) V }, and its variable V."""
    basis = _basis_stack(hermitian_basis, n.dim_out)
    hp = HermitianProgram()
    v = hp.variable(basis)
    (start,) = v.terms
    lifted = _lifted_basis(n.dim_in, n.dim_out)
    one_v = Affine(np.zeros(lifted.shape[1:], dtype=complex), {start: lifted})
    hp.add_lmi(one_v - n.choi)  # 1_A (x) V - J_N
    hp.minimize(Affine(0.0, {start: np.trace(basis, axis1=1, axis2=2)}))  # tr V
    return hp, v


def _zero_error_trvs(channels: list, **solve_kw) -> list:
    """Optimal values of min { tr V : J_N <= 1_A (x) V } for channels of one
    shape, solved in one batch.

    The program's one LMI is 1_A (x) V - J_N, so J_N is its objective -F0
    and the rest does not depend on the channel. The first channel of each
    data kind (real or complex blocks, by the conjugation test on J_N)
    states and builds it; every later one takes that build with J_N as its
    objective (:meth:`nscost.conic.ConicProblem.with_objective`) and is
    read from that build's program, which has the same offset and kept rows.
    """
    dims = {(n.dim_in, n.dim_out) for n in channels}
    if len(dims) > 1:
        raise ValueError(f"channel dimensions differ: {sorted(dims)}")
    built, programs, problems = {}, [], []  # built: real or not -> (program, problem)
    for n in channels:
        objective = [n.choi]
        real = HermitianProgram.is_real(objective)
        if real in built:
            problems.append(built[real][1].with_objective(objective))
        else:
            hp = _zero_error_program(n)[0]
            built[real] = hp, hp.build()
            problems.append(built[real][1])
        programs.append(built[real][0])
    return _run_all(programs, problems, **solve_kw)


def _zero_error_trv(n: QuantumChannel, **solve_kw) -> float:
    """Optimal value of min { tr V : J_N <= 1_A (x) V }."""
    return _zero_error_trvs([n], **solve_kw)[0]


def _eps_simulation_trv(n: QuantumChannel, eps: float, **solve_kw) -> float:
    """Optimal tr V for simulating n within diamond-norm error eps.

    The program optimizes jointly over the simulating channel J~ and the
    resource operator V:

        min tr V  s.t.  tr_B Y <= eps 1_A,  Y >= J~ - J_N,  Y >= 0,
                        J~ >= 0,  tr_B J~ = 1_A,  J~ <= 1_A (x) V.

    At eps = 0 the Y block is forced to vanish; callers route that case to
    :func:`_zero_error_trv`, whose feasible set keeps an interior.
    """
    da, db = n.dim_in, n.dim_out
    hp = HermitianProgram()
    jt = _channel_variable(hp, da, db)
    v = hp.variable(_basis_stack(hermitian_basis, db))
    _add_diamond_ball(hp, jt - n.choi, da, db, eps)
    hp.add_lmi(jt)
    hp.add_lmi(v.map(lift, [1], [da, db]) - jt)
    hp.minimize(v.map(lambda a: np.trace(a, axis1=-2, axis2=-1)))
    return _run(hp, **solve_kw)


def _trv_at_eps(n: QuantumChannel, eps: float, **solve_kw) -> float:
    if eps == 0.0:
        return _zero_error_trv(n, **solve_kw)
    return _eps_simulation_trv(n, eps, **solve_kw)


def one_shot_cost_ns(n: QuantumChannel, eps: float, **solve_kw) -> CostResult:
    """One-shot eps-error simulation cost of a channel under NS codes.

    The cost in qubits is log2 of the smallest noiseless-channel dimension
    achieving error at most eps, equal to log2 ceil(sqrt(tr V*)) where
    tr V* optimizes the eps-simulation program. The unceiled half-log value
    is reported alongside, so the integer correction delta is exact.
    """
    eps = _unit_interval("eps", eps)
    trv = _trv_at_eps(n, eps, **solve_kw)
    return cost_result_from_trv(trv)


def _noiseless_error_floor(n: QuantumChannel, ms) -> np.ndarray:
    """A lower bound on the NS (hence also NS+PPT) error of simulating n with
    id_m, for each m of `ms`: (lambda_max(J_N) - m^2 sigma^2) / d_in, where
    sigma is the largest singular value of the top unit eigenvector of J_N
    read as a d_in x d_out matrix. See :func:`one_shot_cost_ns_ppt`."""
    w, vecs = np.linalg.eigh(n.choi)
    sigma = np.linalg.norm(vecs[:, -1].reshape(n.dim_in, n.dim_out), 2)
    ms = np.asarray(ms, dtype=float)
    return (w[-1] - ms * ms * sigma * sigma) / n.dim_in


def one_shot_cost_ns_ppt(n: QuantumChannel, eps: float, **solve_kw) -> CostResult:
    """One-shot eps-error simulation cost under NS codes with PPT states.

    The PPT-constrained cost has no single-program form because the
    noiseless size m enters both linearly and quadratically, so this is an
    integer search: m* is the smallest m whose NS-and-PPT simulation error
    (:func:`min_error_noiseless`) is at most eps, plus a 1e-7 numerical
    allowance. Two certified facts settle most m without a solve.

    The cap. m = min(d_in, d_out) always has an error-free NS-and-PPT code.
    For m >= d_in, Alice sends the input through id_m and Bob applies N. For
    m >= d_out, Alice applies N and sends its output through id_m, and Bob
    keeps it. Both are product codes; Bob's part, transposed on both of his
    systems, is a transposed Choi matrix and stays PSD, so both are PPT.
    Hence m* <= min(d_in, d_out), and no m from there on is solved.

    The converse. Take any X >= 0 on A (x) B with tr_A X <= 1_B, and any
    feasible point (J~, V, Y, gamma) of the NS program of
    :func:`min_error_noiseless` at m, and let Delta = J~ - J_N. Then

        m^2 = tr V >= tr(X (1_A (x) V)) >= tr(X J~)
            >= tr(X J_N) - lambda_max(X) tr Delta_-,

    where the first step uses V >= 0 (as 1_A (x) V >= J~ >= 0), and since
    tr Delta = 0, tr Delta_- = tr Delta_+ <= tr Y <= gamma d_in.
    So gamma >= (tr(X J_N) - m^2) / (d_in lambda_max(X)). The NS+PPT
    program only adds constraints, so this bounds its error too. With
    X = v v^dag / sigma^2, v the top unit eigenvector of J_N and sigma the
    largest singular value of v read as a d_in x d_out matrix, the bound is
    (lambda_max(J_N) - m^2 sigma^2) / d_in (:func:`_noiseless_error_floor`).
    It falls as m grows, so every m below the first whose bound is at most
    eps + 1e-7 is ruled out.

    Only the m that neither fact decides are solved, in increasing order,
    and the first whose error meets eps is m*; if none does, m* is the cap.
    The m = 1 program is the one dumped, also when it is not solved, and
    the solver options are checked also when no solve runs.
    """
    eps = _unit_interval("eps", eps)
    dump_path = solve_kw.pop("dump_path", None)
    solver_options(**solve_kw)
    if dump_path is not None:
        dump_problem(_noiseless_program(1, n, "NS_PPT").build(), dump_path)
    chosen = min(n.dim_in, n.dim_out)
    ms = np.arange(1, chosen)
    for m in ms[_noiseless_error_floor(n, ms) <= eps + _ERR_SLACK].tolist():
        if min_error_noiseless(m, n, "NS_PPT", **solve_kw) <= eps + _ERR_SLACK:
            chosen = m
            break
    return cost_result_from_trv(float(chosen * chosen), log2_trv=2.0 * math.log2(chosen))


def zero_error_costs(channels, **solve_kw) -> list:
    """Zero-error NS-assisted simulation costs of channels of one shape.

    The program (see :func:`zero_error_cost`) depends on the channel only
    through its objective, which is J_N itself, so it is stated and built
    once per data kind: for the first channel whose J_N gives real blocks
    and for the first that gives complex ones. Every other channel shares
    its kind's build, with J_N read as its objective. All are solved
    with one :func:`nscost.conic.solve_many` call, and only the first
    problem is dumped. The costs come back in input order, bitwise those of
    :func:`zero_error_cost` on each channel.

    Raises:
        ValueError: if the channels' dimensions differ.
        SolverFailure: if any solve does not reach optimality.
    """
    trvs = _zero_error_trvs(list(channels), **solve_kw)
    return [cost_result_from_trv(trv) for trv in trvs]


def zero_error_cost(n: QuantumChannel, **solve_kw) -> CostResult:
    """Zero-error NS-assisted simulation cost of a channel.

    At eps = 0 the simulating channel must equal the target exactly, which
    reduces the cost program to min { tr V : J_N <= 1_A (x) V }. Half the
    log of this optimum is also the asymptotic zero-error cost per use,
    since the underlying conditional min-entropy is additive.
    """
    return zero_error_costs([n], **solve_kw)[0]


def max_information(n: QuantumChannel, **solve_kw) -> float:
    """Max-information of a channel in bits: log2 min { tr V : J <= 1 (x) V }."""
    trv = _zero_error_trv(n, **solve_kw)
    return math.log2(trv)


def smooth_max_information(n: QuantumChannel, eps: float, **solve_kw) -> float:
    """Smooth max-information: the max-information minimized over the
    diamond-norm eps-ball of channels around n.

    Shares its program with :func:`one_shot_cost_ns`, so the identity
    cost_bits = log2 ceil(sqrt(2^value)) holds exactly on every instance.
    """
    eps = _unit_interval("eps", eps)
    trv = _trv_at_eps(n, eps, **solve_kw)
    return math.log2(trv)


def robustness(n: QuantumChannel, eps: float, **solve_kw) -> float:
    """Generalized robustness of a channel at smoothing level eps.

    Equals 2^I_max^eps - 1: the least mixing weight of another channel that
    makes the mixture a constant channel, minimized over the eps-ball.
    """
    eps = _unit_interval("eps", eps)
    trv = _trv_at_eps(n, eps, **solve_kw)
    return trv - 1.0


def choi_compose(j_n: np.ndarray, j_pi: np.ndarray, dims: dict) -> np.ndarray:
    """Choi matrix of the channel obtained by wiring a code around a channel.

    Args:
        j_n: Choi matrix of the inner channel, on A_o (x) B_i.
        j_pi: Choi matrix of the bipartite code, ordered (A_i, B_i, A_o, B_o),
            or a stack of them (..., n, n).
        dims: mapping with integer entries for keys "A_i", "B_i", "A_o", "B_o".

    Returns:
        J = tr_{A_o B_i} (J_N^T (x) 1_{A_i B_o}) J_Pi on A_i (x) B_o, per
        matrix of a stack.
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
    if j_pi.shape[-2:] != (d_tot, d_tot):
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
    primal_ok = is_psd(kron(np.eye(da, dtype=np.complex128), v) - n.choi, _CERT_TOL)
    dual_ok = is_psd(x, _CERT_TOL) and is_psd(
        np.eye(db, dtype=np.complex128) - partial_trace(x, [da, db], 0), _CERT_TOL
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
