"""Reference values for the benchmark's output checks, computed apart from nscost.

Only numpy and scipy are used here; nothing imports nscost or the package's
tests. Each function is derived from the definitions, not from the package's
code paths:

- Pauli-diagonal channels (depolarizing, dephasing, and their tensor powers)
  have a Bell-diagonal Choi matrix J = sum_i lam_i |Phi_i><Phi_i|, with
  unnormalized maximally entangled vectors |Phi_i> on D x D and sum_i lam_i
  = 1. Twirling the cost program with the Pauli group leaves J fixed and
  makes every variable Bell-diagonal and V proportional to the identity, so
  the eps-simulation program becomes the waterfilling problem

      tr V = D^2 t*,   t* = max(1/D^2, min{t : sum_i (lam_i - t)_+ <= eps}),

  solved here in the log domain over groups of equal lam_i.
- The zero-error closed forms of the paper, the depolarizing mutual
  information, the half diamond distance between the identity and the
  depolarizing channel, and the classical cost LP solved by HiGHS.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog


def waterfill_log_level(log_mult, log_val, eps: float) -> float:
    """Natural log of t* = min{t >= 0 : sum_k m_k (v_k - t)_+ <= eps}.

    Groups k carry multiplicity m_k and value v_k, both given as natural
    logs (log_val may be -inf for a vanishing value). The masses m_k v_k
    must sum to at most 1. Returns -inf when eps covers the whole mass.
    """
    log_mult = np.asarray(log_mult, dtype=float)
    log_val = np.asarray(log_val, dtype=float)
    order = np.argsort(-log_val, kind="stable")
    log_mult, log_val = log_mult[order], log_val[order]
    masses = np.exp(log_mult + log_val)
    head_mass = 0.0
    head_log_mult = -math.inf
    for j in range(len(masses)):
        head_mass += float(masses[j])
        head_log_mult = float(np.logaddexp(head_log_mult, log_mult[j]))
        next_log_val = float(log_val[j + 1]) if j + 1 < len(masses) else -math.inf
        # Clipped mass if the level sat at the next value down; the product
        # next value x head multiplicity never exceeds the head mass (<= 1).
        clipped_at_next = head_mass - math.exp(next_log_val + head_log_mult)
        if clipped_at_next > eps:
            return math.log(head_mass - eps) - head_log_mult
    return -math.inf


def bell_diagonal_log2_trv(log_mult, log_val, dim: int, eps: float) -> float:
    """log2 of the optimal tr V of the eps-simulation program of a
    Bell-diagonal Choi matrix on dim x dim (dim = total input dimension)."""
    floor = -2.0 * math.log(dim)
    log_t = max(waterfill_log_level(log_mult, log_val, eps), floor)
    return (2.0 * math.log(dim) + log_t) / math.log(2.0)


def depolarizing_groups(n: int, d: int, p: float):
    """Bell spectrum of n uses of the d-dimensional depolarizing channel.

    Per use the identity Bell state carries 1 - p + p/d^2 and each of the
    d^2 - 1 others p/d^2. Group k holds the Bell states of n uses that are
    the identity state on exactly k uses. Returns (log_mult, log_val).
    """
    return _binomial_groups(n, 1.0 - p + p / (d * d), p / (d * d), d * d - 1)


def depolarizing_log2_trv(n: int, d: int, p: float, eps: float) -> float:
    """log2 of the optimal tr V for n uses of the depolarizing channel."""
    log_mult, log_val = depolarizing_groups(n, d, p)
    return bell_diagonal_log2_trv(log_mult, log_val, d**n, eps)


def dephasing_log2_trv(n: int, p: float, eps: float) -> float:
    """log2 of the optimal tr V for n uses of the qubit dephasing channel.

    Per use the two Bell states |Phi+>, |Phi-> carry 1 - p and p, and the
    other two carry nothing.
    """
    log_mult, log_val = dephasing_groups(n, p)
    return bell_diagonal_log2_trv(log_mult, log_val, 2**n, eps)


def dephasing_groups(n: int, p: float):
    """Bell spectrum of n uses of the qubit dephasing channel, with the
    4^n - 2^n Bell states of weight zero as one last group."""
    log_mult, log_val = _binomial_groups(n, 1.0 - p, p, 1)
    return (
        np.append(log_mult, math.log(4.0**n - 2.0**n)),
        np.append(log_val, -math.inf),
    )


def _binomial_groups(n: int, a: float, b: float, b_states: int):
    """Groups of n-use Bell states, one per use count k of the state with
    weight a; each of the other uses sits on one of b_states states of
    weight b. Returns (log_mult, log_val)."""
    log_a = math.log(a) if a > 0.0 else -math.inf
    log_b = math.log(b) if b > 0.0 else -math.inf
    log_mult, log_val = [], []
    for k in range(n + 1):
        log_binom = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        log_mult.append(log_binom + (n - k) * math.log(b_states))
        log_val.append((k * log_a if k else 0.0) + ((n - k) * log_b if n - k else 0.0))
    return np.array(log_mult), np.array(log_val)


def groups_lp_log2_trv(log_mult, log_val, dim: int, eps: float) -> float:
    """The grouped simulation LP solved directly by HiGHS (small sizes only).

    Variables r_k, y_k per group and the level t:
        min t  s.t.  r_k <= t,  y_k >= v_k - r_k,  sum_k m_k r_k = 1,
                     sum_k m_k y_k <= eps,  r, y, t >= 0,
    and tr V = dim^2 t. For the depolarizing groups this is the sector LP.
    """
    mult, val = np.exp(log_mult), np.exp(log_val)
    g = len(mult)
    nvar = 2 * g + 1
    c = np.zeros(nvar)
    c[-1] = 1.0
    a_ub, b_ub = [], []
    for k in range(g):
        row = np.zeros(nvar)
        row[k] = 1.0
        row[-1] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)
        row = np.zeros(nvar)
        row[k] = -1.0
        row[g + k] = -1.0
        a_ub.append(row)
        b_ub.append(-val[k])
    row = np.zeros(nvar)
    row[g : 2 * g] = mult
    a_ub.append(row)
    b_ub.append(eps)
    a_eq = np.zeros((1, nvar))
    a_eq[0, :g] = mult
    res = linprog(
        c, A_ub=np.array(a_ub), b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS sector LP failed: {res.message}")
    return 2.0 * math.log2(dim) + math.log2(res.fun)


def zero_error_bits(family: str, param: float, d: int = 2) -> float:
    """The paper's closed-form zero-error cost (1/2) log2 tr V, in qubits."""
    if family in ("depolarizing", "erasure"):
        tr_v = d * d * (1.0 - param) + param
    elif family == "amplitude_damping":
        tr_v = 2.0 * (1.0 + math.sqrt(1.0 - param)) - param
    elif family == "dephasing":
        tr_v = abs(4.0 * param - 2.0) + 2.0
    else:
        raise ValueError(f"no closed form for family {family!r}")
    return 0.5 * math.log2(tr_v)


def depolarizing_qe(d: int, p: float) -> float:
    """Half the depolarizing mutual information, in bits: the per-use
    asymptote of the simulation cost (entanglement-assisted capacity)."""
    d2 = d * d
    lam1 = 1.0 - p + p / d2
    lam2 = p / d2

    def xlog2x(x: float) -> float:
        return x * math.log2(x) if x > 0.0 else 0.0

    return 0.5 * (math.log2(d2) + xlog2x(lam1) + (d2 - 1) * xlog2x(lam2))


def identity_depolarizing_half_diamond(d: int, p: float) -> float:
    """Half the diamond distance between id_d and the depolarizing channel."""
    return p * (1.0 - 1.0 / (d * d))


def classical_trv(matrix, eps: float) -> float:
    """Optimal tr V of the classical simulation LP, solved by HiGHS.

    Variables: the simulating channel S(y|x), envelope values V_y and slacks
    Y(x, y) >= S(y|x) - N(y|x):
        min sum_y V_y  s.t.  S(y|x) <= V_y,  sum_y S(y|x) = 1,
                             sum_y Y(x, y) <= eps,  S, V, Y >= 0.
    """
    mat = np.asarray(matrix, dtype=float)
    nx, ny = mat.shape
    ns = nx * ny
    nvar = ns + ny + ns  # S, V, Y
    c = np.zeros(nvar)
    c[ns : ns + ny] = 1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for x in range(nx):
        row = np.zeros(nvar)
        row[x * ny : (x + 1) * ny] = 1.0
        a_eq.append(row)
        b_eq.append(1.0)
        row = np.zeros(nvar)
        row[ns + ny + x * ny : ns + ny + (x + 1) * ny] = 1.0
        a_ub.append(row)
        b_ub.append(eps)
        for y in range(ny):
            row = np.zeros(nvar)
            row[x * ny + y] = 1.0
            row[ns + y] = -1.0
            a_ub.append(row)
            b_ub.append(0.0)
            row = np.zeros(nvar)
            row[x * ny + y] = 1.0
            row[ns + ny + x * ny + y] = -1.0
            a_ub.append(row)
            b_ub.append(mat[x, y])
    res = linprog(
        c,
        A_ub=np.array(a_ub),
        b_ub=b_ub,
        A_eq=np.array(a_eq),
        b_eq=b_eq,
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS classical LP failed: {res.message}")
    return float(res.fun)
