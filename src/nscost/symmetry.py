"""Symmetry-reduced linear programs for simulation costs at large blocklength.

Two families of channels admit an exact reduction of the cost SDP to a small
LP. Classical channels reduce because all Choi matrices involved commute, and
n-fold depolarizing channels reduce because J_{D_p}^{(x) n} is a mixture of
permutation-symmetric projectors: with q1 = d(1-p) + p/d and q2 = p/d, the
spectrum takes the value p_k = q1^k q2^(n-k) on a sector of relative weight

    w_k = C(n, k) (1/d)^k (d - 1/d)^(n-k),

so the n-use cost program collapses to an LP over n+1 sectors, which
waterfilling solves exactly. Everything here is assembled in the log domain:
the weights and spectra span thousands of orders of magnitude long before n
reaches 300, and the optimal level s itself can lie far below the range of
double precision even though d^n s stays moderate.

One core prices a whole sweep: `depolarizing_sweep` takes the log-factorials
once, builds each blocklength's sector table once (weights, spectrum, and the
head masses and weights of the waterfilling) and waterfills every tolerance
from it. `depolarizing_cost_lp` and `depolarizing_reduction` are that core
run on one blocklength. The sector masses are checked to sum to 1 by a
max-shifted sum in numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conic import HermitianProgram, SolverFailure, dump_problem, solve, solver_options
from .programs import CostResult, _check_eps, cost_result_from_trv
from .qmat import row_stochastic

_NORMALIZATION_TOL = 1e-9
_MAX_LOG2_TRV = 1020.0


@dataclass(frozen=True)
class LPReduction:
    """Sector data of the n-fold depolarizing simulation LP.

    Attributes:
        n: blocklength.
        d: local dimension.
        log_weights: natural logs of the sector weights w_k, k = 0..n.
        log_spectrum: natural logs of the sector eigenvalues p_k, k = 0..n.
            Entries are -inf where the eigenvalue vanishes (p = 0 or 1).
    """

    n: int
    d: int
    log_weights: np.ndarray
    log_spectrum: np.ndarray


def depolarizing_reduction(n: int, d: int, p: float) -> LPReduction:
    """Sector weights and spectrum of J_{D_p}^{(x) n} in the log domain.

    The sector masses w_k p_k form a binomial distribution with success
    probability q1/d, which is checked to sum to 1 within 1e-9.
    """
    n, d, p = _check_dp_args(n, d, p)
    return _reduction(n, d, p, _log_factorials(n))


def _log_factorials(n_max: int) -> np.ndarray:
    return np.array([math.lgamma(j + 1) for j in range(n_max + 1)])


def _reduction(n: int, d: int, p: float, lgam: np.ndarray) -> LPReduction:
    """`depolarizing_reduction` from the log-factorials lgam[j] = log j!,
    j = 0..n or beyond."""
    q1 = d * (1.0 - p) + p / d
    q2 = p / d
    k = np.arange(n + 1, dtype=float)
    lg = lgam[: n + 1]
    log_binom = lgam[n] - lg - lg[::-1]
    log_weights = log_binom - k * math.log(d) + (n - k) * math.log(d - 1.0 / d)
    log_q1 = math.log(q1) if q1 > 0.0 else -math.inf
    log_q2 = math.log(q2) if q2 > 0.0 else -math.inf
    with np.errstate(invalid="ignore"):
        log_spectrum = k * log_q1 + (n - k) * log_q2
    # 0 * (-inf) from the arange endpoints must read as an absent factor.
    log_spectrum[np.isnan(log_spectrum)] = -math.inf
    if q2 == 0.0:
        log_spectrum[:n] = -math.inf
        log_spectrum[n] = n * log_q1
    log_mass = log_weights + log_spectrum
    top = log_mass.max()
    total = top + math.log(np.exp(log_mass - top).sum())
    if abs(total) > _NORMALIZATION_TOL:
        raise ValueError(f"sector masses sum to exp({total}), expected 1")
    return LPReduction(n=n, d=d, log_weights=log_weights, log_spectrum=log_spectrum)


def _check_dp_args(n, d, p):
    if int(n) != n or n < 1:
        raise ValueError(f"blocklength must be a positive integer, got {n}")
    return (int(n), *_check_dp(d, p))


def _check_dp(d, p):
    if int(d) != d or d < 2:
        raise ValueError(f"local dimension must be an integer >= 2, got {d}")
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must lie in [0, 1], got {p}")
    return int(d), p


def depolarizing_cost_lp(n: int, d: int, p: float, eps: float) -> CostResult:
    """Simulation cost of n uses of the depolarizing channel, via the sector LP.

    The sector LP, over retained spectrum r_k and clipping slack y_k,

        min s  s.t.  y_k - r_k + p_k >= 0,  y_k >= 0,  0 <= r_k <= s,
                     sum_k w_k r_k = 1,  sum_k w_k y_k <= eps,

    is solved exactly by waterfilling: clip every sector value at s and pay
    the clipped mass out of the error budget, so

        s* = max(d^-n, min{s : sum_k w_k (p_k - s)_+ <= eps}),

    where d^-n = 1 / sum_k w_k is the lowest level that still holds unit
    mass. Since p_k rises with k (q1 >= q2), the sectors above the water are
    a head k..n. Walking k = n..0 with the head mass M and head weight W, the
    level lands in the first head whose clipped mass M - p_(k-1) W at the next
    sector down exceeds eps, at s = (M - eps) / W. W and s stay in the log
    domain, and tr V = d^n s* is reported through its log2, which is 0
    exactly at the floor.

    At eps = 0 no search is needed: s = max_k p_k = q1^n and
    tr V = (d q1)^n.

    Raises:
        ValueError: on invalid arguments, or when log2 tr V would exceed the
            range representable in double precision.
    """
    n, d, p = _check_dp_args(n, d, p)
    eps = _check_eps(eps)
    return _waterfill(n, d, p, _log_factorials(n), (eps,))[0]


def depolarizing_sweep(
    n_max: int, d: int, p: float, eps_values
) -> list[tuple[CostResult, ...]]:
    """`depolarizing_cost_lp` at n = 1..n_max and every tolerance.

    Entry n - 1 holds one CostResult per entry of eps_values, each equal to
    `depolarizing_cost_lp(n, d, p, eps)`. Every tolerance of a blocklength is
    waterfilled from one sector table.

    Raises:
        ValueError: on invalid arguments, or at the first blocklength whose
            log2 tr V would exceed the range of double precision.
    """
    n_max, d, p = _check_dp_args(n_max, d, p)
    eps_values = tuple(_check_eps(eps) for eps in eps_values)
    lgam = _log_factorials(n_max)
    return [_waterfill(n, d, p, lgam, eps_values) for n in range(1, n_max + 1)]


def _waterfill(
    n: int, d: int, p: float, lgam: np.ndarray, eps_values: tuple
) -> tuple[CostResult, ...]:
    """The costs of n uses at each tolerance, as `depolarizing_cost_lp`
    documents, from the log-factorials lgam[j] = log j!, j = 0..n or beyond."""
    red = _reduction(n, d, p, lgam)
    q1 = d * (1.0 - p) + p / d
    log2_cap = n * (math.log2(d) + math.log2(q1))
    if log2_cap > _MAX_LOG2_TRV:
        raise ValueError(
            f"log2 tr V can reach {log2_cap:.1f} bits at these parameters, "
            "beyond double-precision range"
        )

    # Index i below is the head k = n - i..n.
    head_mass = np.cumsum(np.exp(red.log_weights + red.log_spectrum)[::-1])
    log_head_weight = np.logaddexp.accumulate(red.log_weights[::-1])
    log_next_level = np.append(red.log_spectrum[::-1][1:], -math.inf)
    clipped = head_mass - np.exp(log_next_level + log_head_weight)
    costs = []
    for eps in eps_values:
        log2_trv = log2_cap
        if eps > 0.0:
            # At the floor d^-n of the level, tr V = 1 exactly: n log2 d and
            # log s / log 2 would not cancel in floating point. At eps = 1
            # the whole unit mass may be clipped, so the level is the floor;
            # a head mass that rounds above 1 must not place it higher.
            log2_trv = 0.0
            over = np.flatnonzero(clipped > eps)
            if eps < 1.0 and over.size:
                i = over[0]
                log_s = math.log(head_mass[i] - eps) - log_head_weight[i]
                if log_s > -n * math.log(d):
                    log2_trv = n * math.log2(d) + log_s / math.log(2.0)
        costs.append(cost_result_from_trv(2.0**log2_trv, log2_trv=log2_trv))
    return tuple(costs)


def classical_cost_lp(
    channel: np.ndarray, eps: float, *, dump_path: str | None = None, **solve_kw
) -> CostResult:
    """Simulation cost of a classical channel N(y|x) under NS correlations.

    The conditional distributions are rows of the input matrix. The cost LP
    optimizes envelope values V_y and clipping slacks Y_xy,

        min sum_y V_y  s.t.  V_y >= 0,  sum_y V_y >= 1,  Y_xy >= 0,
                             Y_xy >= N(y|x) - V_y,  sum_y Y_xy <= eps per x,

    and reports tr V = sum_y V_y. This is the program over a row-stochastic
    simulator Nt(y|x) <= V_y within eps of N in total variation, with Nt
    left out: such an Nt exists exactly when sum_y V_y >= 1 and the mass of
    N above V, sum_y (N(y|x) - V_y)_+, is at most eps for every x. At eps = 0
    the optimum is sum_y max_x N(y|x) directly.

    Raises:
        ValueError: if the matrix has a non-finite entry or is not
            row-stochastic, eps is out of range or a solver option is
            invalid, at eps = 0 too.
    """
    mat = row_stochastic(channel)
    eps = _check_eps(eps)
    n_in, n_out = mat.shape

    if eps == 0.0:
        solver_options(**solve_kw)  # no solve runs: check the options here
        return cost_result_from_trv(float(np.sum(np.max(mat, axis=0))))

    hp = HermitianProgram()
    v = hp.variable(np.eye(n_out))
    y = hp.variable(np.eye(n_in * n_out))  # Y_xy at x * n_out + y
    hp.add_lmi(v)
    hp.add_lmi(v.map(np.sum) - 1.0)
    hp.add_lmi(y)
    hp.add_lmi(y - mat.reshape(-1) + v.map(np.tile, n_in))
    hp.add_lmi(eps - y.map(lambda a: a.reshape(n_in, n_out).sum(axis=1)))
    hp.minimize(v.map(np.sum))
    problem = hp.build()
    if dump_path is not None:
        dump_problem(problem, dump_path)
    sol = solve(problem, **solve_kw)
    if sol.status != "optimal":
        raise SolverFailure(
            f"classical cost LP finished with status '{sol.status}'",
            status=sol.status,
        )
    return cost_result_from_trv(hp.value(sol))


def depolarizing_mutual_info(d: int, p: float) -> float:
    """Mutual information I(A:B) of the depolarizing channel, in bits.

    Evaluated on the maximally entangled input, which is optimal by
    covariance: I = log2 d^2 + l1 log2 l1 + (d^2 - 1) l2 log2 l2 with
    l1 = 1 - p + p/d^2 and l2 = p/d^2. Half of this value is the
    entanglement-assisted quantum capacity, the asymptote of the per-use
    simulation cost.
    """
    d, p = _check_dp(d, p)
    d2 = d * d
    lam1 = 1.0 - p + p / d2
    lam2 = p / d2

    def xlog2x(x: float) -> float:
        return x * math.log2(x) if x > 0.0 else 0.0

    return math.log2(d2) + xlog2x(lam1) + (d2 - 1) * xlog2x(lam2)
