"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (index loops,
closed-form greedy constructions, or scipy's LP solver) so that agreement
with the package is evidence of correctness rather than shared code.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.optimize
import scipy.special

from nscost.qmat import QuantumChannel, choi_of_kraus


def brute_partial_trace(m: np.ndarray, dims: list[int], traced: list[int]) -> np.ndarray:
    keep = [i for i in range(len(dims)) if i not in traced]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)
    for row in range(m.shape[0]):
        for col in range(m.shape[1]):
            ridx = _unravel(row, dims)
            cidx = _unravel(col, dims)
            if any(ridx[i] != cidx[i] for i in traced):
                continue
            r_keep = _ravel([ridx[i] for i in keep], [dims[i] for i in keep])
            c_keep = _ravel([cidx[i] for i in keep], [dims[i] for i in keep])
            out[r_keep, c_keep] += m[row, col]
    return out


def brute_partial_transpose(
    m: np.ndarray, dims: list[int], transposed: list[int]
) -> np.ndarray:
    out = np.zeros_like(np.asarray(m, dtype=complex))
    for row in range(m.shape[0]):
        for col in range(m.shape[1]):
            ridx = _unravel(row, dims)
            cidx = _unravel(col, dims)
            for i in transposed:
                ridx[i], cidx[i] = cidx[i], ridx[i]
            out[_ravel(ridx, dims), _ravel(cidx, dims)] = m[row, col]
    return out


def brute_permute(m: np.ndarray, dims: list[int], perm: list[int]) -> np.ndarray:
    new_dims = [dims[p] for p in perm]
    n = m.shape[0]
    out = np.zeros_like(np.asarray(m, dtype=complex))
    for row in range(n):
        for col in range(n):
            ridx = _unravel(row, dims)
            cidx = _unravel(col, dims)
            nr = _ravel([ridx[p] for p in perm], new_dims)
            nc = _ravel([cidx[p] for p in perm], new_dims)
            out[nr, nc] = m[row, col]
    return out


def _unravel(index: int, dims: list[int]) -> list[int]:
    out = []
    for d in reversed(dims):
        out.append(index % d)
        index //= d
    return list(reversed(out))


def _ravel(idx: list[int], dims: list[int]) -> int:
    out = 0
    for i, d in zip(idx, dims):
        out = out * d + i
    return out


def kraus_apply(kraus: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def random_kraus(rng: np.random.Generator, dim_in: int, dim_out: int, n_kraus: int):
    """Random CPTP map via a Haar-ish random isometry, split into Kraus blocks."""
    g = rng.standard_normal((dim_out * n_kraus, dim_in)) + 1j * rng.standard_normal(
        (dim_out * n_kraus, dim_in)
    )
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))[None, :]
    return [q[i * dim_out : (i + 1) * dim_out, :] for i in range(n_kraus)]


def random_channel(
    rng: np.random.Generator, dim_in: int, dim_out: int, n_kraus: int
) -> QuantumChannel:
    return choi_of_kraus(random_kraus(rng, dim_in, dim_out, n_kraus), dim_in, dim_out)


# ---------------------------------------------------------------------------
# Waterfilling oracle for the n-fold depolarizing sector LP.
#
# The sector LP min{s : y_k >= r_k - p_k, y_k >= 0, 0 <= r_k <= s,
# sum w_k r_k = 1, sum w_k y_k <= eps} has the explicit solution
# s* = min{s : sum_k w_k (p_k - s)_+ <= eps}: clip every sector value at s and
# pay the clipped mass out of the error budget. All arithmetic is done in log
# domain so it stays exact-ish up to n in the thousands.


def depolarizing_sector_data(n: int, d: int, p: float):
    k = np.arange(n + 1)
    q1 = d * (1.0 - p) + p / d
    q2 = p / d
    log_w = (
        _log_binom(n, k)
        - k * math.log(d)
        + (n - k) * math.log(d - 1.0 / d)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.where(
            (k == 0) & (q1 <= 0.0), -np.inf, k * _safe_log(q1)
        ) + np.where((k == n) & (q2 <= 0.0), 0.0, (n - k) * _safe_log(q2))
    mask = np.isfinite(log_w) & np.isfinite(log_p)
    return log_w[mask], log_p[mask]


def _safe_log(v: float) -> float:
    return math.log(v) if v > 0 else -math.inf


def _log_binom(n: int, k: np.ndarray) -> np.ndarray:
    return (
        scipy.special.gammaln(n + 1)
        - scipy.special.gammaln(k + 1)
        - scipy.special.gammaln(n - k + 1)
    )


def waterfill_log2_trv(n: int, d: int, p: float, eps: float) -> float:
    """log2 of the optimal tr V = d^n * s* of the n-fold depolarizing LP."""
    assert 0.0 <= eps < 0.5, "oracle derived for small error budgets"
    log_w, log_p = depolarizing_sector_data(n, d, p)
    order = np.argsort(-log_p)
    lw, lp = log_w[order], log_p[order]
    mass = np.exp(lw + lp)

    if eps == 0.0:
        log_s = lp[0]
    else:
        log_s = None
        mass_above = 0.0
        weight_terms: list[float] = []
        for j in range(len(lp)):
            # D(p_j) with sectors 0..j-1 strictly above the water level p_j.
            d_j = mass_above - sum(math.exp(t + lp[j]) for t in weight_terms)
            if d_j >= eps:
                # Level sits in [p_j, p_{j-1}): solve mass_above - s*W = eps.
                log_weight = _logsumexp(weight_terms)
                log_s = math.log(mass_above - eps) - log_weight
                break
            mass_above += mass[j]
            weight_terms.append(lw[j])
        if log_s is None:
            # Budget never exhausted within the sector list: level below the
            # smallest sector value.
            log_weight = _logsumexp(weight_terms)
            log_s = math.log(max(mass_above - eps, 1e-300)) - log_weight
            log_s = min(log_s, lp[-1])
    return n * math.log2(d) + log_s / math.log(2.0)


def _logsumexp(terms: list[float]) -> float:
    m = max(terms)
    return m + math.log(sum(math.exp(t - m) for t in terms))


def waterfill_log2_trv_mp(n: int, d: int, p: float, eps: float) -> float:
    """log2 of the optimal tr V of n depolarizing uses, in 60-digit arithmetic.

    Any eps in [0, 1]. The Choi matrix of D_p^(x)n is Bell-diagonal: per use
    the identity Bell state has eigenvalue a = 1 - p + p/d^2 and the other
    d^2 - 1 have b = p/d^2. Walking the n-use eigenvalues from the largest
    down, a group at a time (k identity factors: C(n, k) (d^2 - 1)^(n-k)
    states of value a^k b^(n-k)), the level t is the first one at which the
    clipped mass sum_i (lam_i - t)_+ stops exceeding eps, and
    tr V = d^(2n) max(d^(-2n), t). p and eps are taken as the exact binary
    values of the floats given.
    """
    with mpmath.workdps(60):
        p, eps = mpmath.mpf(p), mpmath.mpf(eps)
        a = 1 - p + p / d**2
        b = p / d**2
        head_mass = head_size = mpmath.mpf(0)
        level = mpmath.mpf(0)
        for k in range(n, -1, -1):
            size = math.comb(n, k) * (d * d - 1) ** (n - k)
            value = a**k * b ** (n - k)
            # Clipped mass with the level at this group's value.
            if head_mass - head_size * value > eps:
                level = (head_mass - eps) / head_size
                break
            head_mass += size * value
            head_size += size
        else:
            if head_mass > eps:
                level = (head_mass - eps) / head_size
        dim2 = mpmath.mpf(d) ** (2 * n)
        return float(mpmath.log(max(dim2 * level, 1), 2))


# ---------------------------------------------------------------------------
# Classical-channel LP oracle via scipy's HiGHS solver.


def classical_cost_linprog(matrix: np.ndarray, eps: float) -> float:
    """Optimal sum_y V_y of the classical simulation LP, solved by HiGHS.

    Variables: Nt (X*Y), Y (X*Y), V (Y). Constraints: Nt row-stochastic,
    Nt <= V broadcast over x, Y >= Nt - N, sum_y Y_xy <= eps, all >= 0.
    """
    n = np.asarray(matrix, dtype=float)
    nx, ny = n.shape
    n_nt, n_y, n_v = nx * ny, nx * ny, ny
    nvar = n_nt + n_y + n_v

    def nt(x, y):
        return x * ny + y

    def yv(x, y):
        return n_nt + x * ny + y

    def vv(y):
        return n_nt + n_y + y

    c = np.zeros(nvar)
    c[n_nt + n_y :] = 1.0

    a_eq = np.zeros((nx, nvar))
    b_eq = np.ones(nx)
    for x in range(nx):
        for y in range(ny):
            a_eq[x, nt(x, y)] = 1.0

    rows = []
    rhs = []
    for x in range(nx):
        for y in range(ny):
            row = np.zeros(nvar)
            row[nt(x, y)] = 1.0
            row[vv(y)] = -1.0
            rows.append(row)
            rhs.append(0.0)
    for x in range(nx):
        for y in range(ny):
            row = np.zeros(nvar)
            row[nt(x, y)] = 1.0
            row[yv(x, y)] = -1.0
            rows.append(row)
            rhs.append(n[x, y])
    for x in range(nx):
        row = np.zeros(nvar)
        for y in range(ny):
            row[yv(x, y)] = 1.0
        rows.append(row)
        rhs.append(eps)

    res = scipy.optimize.linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)
