"""Simulation costs that need no SDP solve at large blocklength.

Classical channels reduce to an LP because all Choi matrices involved
commute. The n-fold depolarizing channel reduces to waterfilling. Its Choi
matrix is Bell-diagonal, J = D sum_i lam_i Phi_i over the projectors Phi_i
onto the D^2 Bell states of D = d^n, with sum_i lam_i = 1. Twirling with the
Weyl operators of each use makes every variable of the cost program
Bell-diagonal and V proportional to the identity, so the program becomes

    tr V = D^2 max(D^-2, t*),   t* = min{t : sum_i (lam_i - t)_+ <= eps}:

clip every lam_i at the level t and pay the clipped mass out of eps.
Per use the identity Bell state carries a = 1 - p + p/d^2 and each of the
other d^2 - 1 carries b = p/d^2, so the n-use spectrum falls into n + 1
groups: group k holds the C(n, k) (d^2 - 1)^(n-k) Bell states that are the
identity state on exactly k uses, each of value a^k b^(n-k). Everything is
assembled in the log domain: group sizes and values span thousands of
orders of magnitude long before n reaches 300, and t* itself can lie far
below the range of double precision even though D^2 t* stays moderate.

One core prices a whole sweep: `depolarizing_log2_trv` returns log2 tr V
as a (blocklengths, tolerances) table. It stacks the groups of many
blocklengths into one 2-D table, a row per blocklength padded with empty
groups, and `_waterfill` places the level of every row at every tolerance
in one array pass. The blocklengths go in chunks whose table stays under a
fixed number of entries, so memory does not grow with n_max. Each row's
group masses are checked to sum to 1. `depolarizing_sweep` and
`depolarizing_cost_lp` wrap rows of that table in CostResults; the CLI
writes its CSVs from the table directly.

The same spectrum prices every one-use query on the family with no solve:
`depolarizing_cost_lp(1, d, p, eps)` is the NS cost at eps, its
log2 tr V is the (smooth) max-information, and at eps = 0 it is the
zero-error cost (tr V = d^2 a). The half diamond distance of two members
of the family is half the l1 distance of their Bell spectra,
|p_a - p_b| (1 - 1/d^2) (`depolarizing_diamond_dist`).
"""

from __future__ import annotations

import math

import numpy as np

from .conic import HermitianProgram, solver_options
from .conic import solve  # unused here; perfbench/tracing.py patches this name
from .programs import CostResult, _run, cost_result_from_trv
from .qmat import _unit_interval, row_stochastic

_NORMALIZATION_TOL = 1e-9
_MAX_LOG2_TRV = 1020.0
# The most entries of one 2-D group table: a sweep waterfills its
# blocklengths in chunks that fit, about 2 MB of temporaries each. Larger
# tables are no faster, and an unchunked sweep to n = 3000 would take
# several hundred MB.
_TABLE_ENTRIES = 2**14


def _check_dp_args(n, d, p):
    if int(n) != n or n < 1:
        raise ValueError(f"blocklength must be a positive integer, got {n}")
    return (int(n), *_check_dp(d, p))


def _check_dp(d, p):
    if int(d) != d or d < 2:
        raise ValueError(f"local dimension must be an integer >= 2, got {d}")
    return int(d), _unit_interval("p", p)


def _bell_values(d: int, p: float) -> tuple[float, float]:
    """The Bell spectrum of one use of the depolarizing channel: the value a
    of the identity Bell state and the value b of each of the d^2 - 1 others."""
    return 1.0 - p + p / (d * d), p / (d * d)


def depolarizing_cost_lp(n: int, d: int, p: float, eps: float) -> CostResult:
    """Simulation cost of n uses of the depolarizing channel, by waterfilling.

    tr V = D^2 max(D^-2, t*) with D = d^n, where t* is the lowest level at
    which the Bell spectrum of the Choi matrix loses at most eps of its mass
    when clipped (see the module docstring). D^-2 is the lowest level that
    still holds unit mass, and log2 tr V is 0 exactly there. At eps = 0
    nothing is clipped: t* = a^n and tr V = (d^2 a)^n.

    Raises:
        ValueError: on invalid arguments, or when log2 tr V would exceed the
            range representable in double precision.
    """
    n, d, p = _check_dp_args(n, d, p)
    eps = _unit_interval("eps", eps)
    return _cost_results(_log2_trv_table(n, n, d, p, (eps,)))[0][0]


def depolarizing_diamond_dist(d: int, p_a: float, p_b: float) -> float:
    """Half the diamond-norm distance between the depolarizing channels
    D_(p_a) and D_(p_b) on dimension d: |p_a - p_b| (1 - 1/d^2).

    D_p = (1 - p) id + p R, where R replaces the input by 1/d, so
    D_a - D_b = (p_b - p_a)(id - R). The Choi matrix J of that difference
    is Bell-diagonal, d times the difference of the Bell spectra of
    `_bell_values` on the Bell projectors (the difference is
    Weyl-covariant), and tr J = 0, so tr J_+ = (1/2) ||J||_1. Both sides of
    the diamond-norm program of `programs.diamond_norm_dist` meet at
    tr J_+ / d:
    - Y = J_+ is feasible: Y >= J, Y >= 0, and tr_B Y = (tr Y / d) 1_A,
      as each Bell state has the reduced state 1/d. So the half distance
      is at most tr J_+ / d.
    - The maximally entangled input gives the output J / d, whose half
      trace norm is tr J_+ / d. So the half distance is at least that.
    The half distance is therefore half the l1 distance of the two Bell
    spectra. For id - R that is (1 - 1/d^2) on the identity Bell state and
    1/d^2 on each of the d^2 - 1 others, so (1/2) ||id - R||_dia = 1 - 1/d^2.

    Raises:
        ValueError: if d is not an integer >= 2 or a parameter lies
            outside [0, 1].
    """
    d, p_a = _check_dp(d, p_a)
    p_b = _check_dp(d, p_b)[1]
    (a_a, b_a), (a_b, b_b) = _bell_values(d, p_a), _bell_values(d, p_b)
    return 0.5 * (abs(a_a - a_b) + (d * d - 1) * abs(b_a - b_b))


def depolarizing_sweep(
    n_max: int, d: int, p: float, eps_values
) -> list[tuple[CostResult, ...]]:
    """`depolarizing_cost_lp` at n = 1..n_max and every tolerance.

    Entry n - 1 holds one CostResult per entry of eps_values, each equal to
    `depolarizing_cost_lp(n, d, p, eps)`: row n - 1 of
    `depolarizing_log2_trv`, wrapped.
    """
    return _cost_results(depolarizing_log2_trv(n_max, d, p, eps_values))


def depolarizing_log2_trv(n_max: int, d: int, p: float, eps_values) -> np.ndarray:
    """log2 tr V of n = 1..n_max uses at every tolerance, the core of
    `depolarizing_sweep`: entry [n - 1, i] is the log2_trv of
    `depolarizing_cost_lp(n, d, p, eps_values[i])`.

    Raises:
        ValueError: on invalid arguments, or when log2 tr V would exceed the
            range of double precision at some blocklength; the message gives
            its value at the first such blocklength.
    """
    n_max, d, p = _check_dp_args(n_max, d, p)
    eps_values = tuple(_unit_interval("eps", eps) for eps in eps_values)
    return _log2_trv_table(1, n_max, d, p, eps_values)


def _cost_results(log2_trv: np.ndarray) -> list[tuple[CostResult, ...]]:
    return [tuple(cost_result_from_trv(2.0**x, log2_trv=x) for x in row)
            for row in log2_trv.tolist()]


def _log2_trv_table(n_lo: int, n_hi: int, d: int, p: float, eps_values) -> np.ndarray:
    """log2 tr V of n = n_lo..n_hi uses at each tolerance, as
    `depolarizing_cost_lp` documents: one row per blocklength."""
    a, b = _bell_values(d, p)
    ns = np.arange(n_lo, n_hi + 1)
    # tr V at eps = 0 is (d^2 a)^n; one product makes it 1 exactly at p = 1.
    log2_cap = ns * math.log2(d * d * a)
    too_big = log2_cap > _MAX_LOG2_TRV
    if too_big.any():
        raise ValueError(f"log2 tr V can reach {log2_cap[too_big.argmax()]:.1f} "
                         "bits at these parameters, beyond double-precision range")
    lgam = np.array([math.lgamma(j + 1) for j in range(n_hi + 1)])
    log_b = math.log(b) if b > 0.0 else -math.inf
    log_t = np.empty((len(ns), len(eps_values)))
    lo = n_lo
    while lo <= n_hi:
        # Rows lo..hi, hi + 1 groups wide: rows * (lo + rows) <= _TABLE_ENTRIES.
        rows = (math.isqrt(lo * lo + 4 * _TABLE_ENTRIES) - lo) // 2
        hi = min(n_hi, lo + max(rows, 1) - 1)
        n = np.arange(lo, hi + 1)[:, None]
        j = np.arange(hi + 1)  # the uses on one of the d^2 - 1 other Bell states
        k = n - j  # the uses on the identity Bell state, negative in the padding
        log_size = lgam[n] - lgam[k] - lgam[j] + j * math.log(d * d - 1)
        # b^0 = 1, also at b = 0
        log_b_power = np.multiply(j, log_b, out=np.zeros(hi + 1), where=j > 0)
        log_value = k * math.log(a) + log_b_power
        pad = k < 0
        log_size[pad] = log_value[pad] = -math.inf
        log_t[lo - n_lo : hi - n_lo + 1] = _waterfill(log_size, log_value, eps_values)
        lo = hi + 1
    log2_trv = np.where(
        np.array(eps_values) > 0.0,
        (2 * ns * math.log2(d))[:, None] + log_t / math.log(2.0),
        log2_cap[:, None],
    )
    # At or below the floor D^-2 of the level, tr V = 1 exactly: 2n log2 d
    # and log2 t would not cancel in floating point.
    return np.maximum(log2_trv, 0.0)


def _waterfill(log_size: np.ndarray, log_value: np.ndarray, eps_values) -> np.ndarray:
    """The natural log of the level t* = min{t : sum_i (lam_i - t)_+ <= eps}
    for each table of a batch and each tolerance, as a (tables, tolerances)
    array.

    Row r of the 2-D inputs is one spectrum, given as groups of equal
    eigenvalues: group j holds exp(log_size[r, j]) eigenvalues of value
    exp(log_value[r, j]), in decreasing order of value, and the masses must
    sum to 1. A row shorter than the batch ends in padding groups with
    log_size = log_value = -inf: they carry no mass, and each reads like the
    row's last group, so they never move its level. With the head 0..i
    above the level, t lies in [v_(i+1), v_i], the mass clipped is
    H_i - t W_i and the mass kept is T_i + t W_i, with head mass H_i, tail
    mass T_i = 1 - H_i and head size W_i. The level lies in the first head
    that clips more than eps at the next value down, at t = (H_i - eps) / W_i.
    Both that test and the numerator are taken from the smaller of H_i and
    T_i, as H_i - v_(i+1) W_i > eps and H_i - eps or as
    T_i + v_(i+1) W_i < 1 - eps and (1 - eps) - T_i, so that no difference
    of two numbers near 1 decides anything, whether eps is near 0 or near 1.
    At eps = 0 the level is the largest value, and at eps = 1 it is -inf.
    """
    mass = np.exp(log_size + log_value)
    head_mass = np.cumsum(mass, axis=1)
    bad = np.abs(head_mass[:, -1] - 1.0) > _NORMALIZATION_TOL
    if bad.any():
        raise ValueError(f"group masses sum to {head_mass[bad.argmax(), -1]}, expected 1")
    tail_mass = np.zeros_like(mass)
    tail_mass[:, :-1] = np.cumsum(mass[:, :0:-1], axis=1)[:, ::-1]
    log_head_size = np.logaddexp.accumulate(log_size, axis=1)
    log_next_value = np.full_like(log_value, -math.inf)
    log_next_value[:, :-1] = log_value[:, 1:]
    at_next = np.exp(log_head_size + log_next_value)
    small_head = head_mass <= tail_mass
    clipped_at_next, kept_at_next = head_mass - at_next, tail_mass + at_next
    rows = np.arange(len(mass))
    log_t = np.full((len(mass), len(eps_values)), -math.inf)
    for col, eps in enumerate(eps_values):
        if eps == 0.0:
            log_t[:, col] = log_value[:, 0]
            continue
        over = np.where(small_head, clipped_at_next > eps, kept_at_next < 1.0 - eps)
        i = over.argmax(axis=1)
        hit = over[rows, i]
        i, at = i[hit], rows[hit]
        num = np.where(small_head[at, i], head_mass[at, i] - eps,
                       (1.0 - eps) - tail_mass[at, i])
        # libm's log, as everywhere else here: numpy's SIMD log can round the
        # last bit differently.
        log_num = np.array([math.log(x) for x in num.tolist()])
        log_t[at, col] = log_num - log_head_size[at, i]
    return log_t


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
    eps = _unit_interval("eps", eps)
    n_in, n_out = mat.shape

    if eps == 0.0:
        solver_options(**solve_kw)  # no solve runs: check the options here
        return cost_result_from_trv(float(np.sum(np.max(mat, axis=0))))

    hp = HermitianProgram()
    v = hp.variable(np.eye(n_out))
    y = hp.variable(np.eye(n_in * n_out))  # Y_xy at x * n_out + y
    hp.add_lmi(v)
    hp.add_lmi(v.map(np.sum, -1) - 1.0)
    hp.add_lmi(y)
    hp.add_lmi(y - mat.reshape(-1) + v.map(np.tile, n_in))
    hp.add_lmi(eps - y.map(lambda a: a.reshape(*a.shape[:-1], n_in, n_out).sum(axis=-1)))
    hp.minimize(v.map(np.sum, -1))
    return cost_result_from_trv(_run(hp, dump_path=dump_path, **solve_kw))


def depolarizing_mutual_info(d: int, p: float) -> float:
    """Mutual information I(A:B) of the depolarizing channel, in bits.

    Evaluated on the maximally entangled input, which is optimal by
    covariance, from the Bell spectrum a, b of the Choi state:
    I = log2 d^2 + a log2 a + (d^2 - 1) b log2 b. Half of this value is the
    entanglement-assisted quantum capacity, the asymptote of the per-use
    simulation cost.
    """
    d, p = _check_dp(d, p)
    a, b = _bell_values(d, p)

    def xlog2x(x: float) -> float:
        return x * math.log2(x) if x > 0.0 else 0.0

    return math.log2(d * d) + xlog2x(a) + (d * d - 1) * xlog2x(b)
