"""Closed-form simulation costs and optimality certificates.

Four channel families admit explicit zero-error NS simulation costs:

    depolarizing       (1/2) log2( d^2 (1-p) + p )
    erasure            (1/2) log2( d^2 (1-p) + p )
    amplitude damping  (1/2) log2( 2 (1 + sqrt(1-r)) - r )
    dephasing          (1/2) log2( |4p - 2| + 2 )

Each closed form comes with an explicit primal/dual pair (V, X) for the
program min { tr V : J_N <= 1 (x) V } and its dual
max { tr(J_N X) : X >= 0, tr_A X <= 1_B }. Both sides are feasible by
construction and share the same objective, so
:func:`nscost.programs.verify_certificate` confirms optimality without
trusting any numerical solver. These values serve as ground truth for the
interior-point results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .programs import CertificatePair
from .qmat import QUBIT_ONLY_FAMILIES, _unit_interval

_FAMILIES = ("depolarizing", "amplitude_damping", "dephasing", "erasure")


@dataclass(frozen=True)
class ClosedForm:
    """A closed-form zero-error simulation cost.

    Attributes:
        family: channel family name.
        param: the family's noise parameter in [0, 1].
        d: input dimension the expression was evaluated at.
        value_bits: the cost (1/2) log2 tr V in qubits.
    """

    family: str
    param: float
    d: int
    value_bits: float


def _check_family_args(family: str, param: float, d: int):
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown channel family {family!r}, expected one of {_FAMILIES}"
        )
    param = _unit_interval("param", param)
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d}")
    if family in QUBIT_ONLY_FAMILIES and d != 2:
        raise ValueError(f"{family} is qubit-only, got d = {d}")
    return family, param, int(d)


def _tr_v_expression(family: str, param: float, d: int) -> float:
    # Depolarizing and erasure share one expression on purpose: the two
    # families have exactly the same cost, and that coincidence is tested as
    # float-exact equality, so both must go through identical arithmetic.
    if family in ("depolarizing", "erasure"):
        return d * d * (1.0 - param) + param
    if family == "amplitude_damping":
        return 2.0 * (1.0 + math.sqrt(1.0 - param)) - param
    return abs(4.0 * param - 2.0) + 2.0


def closed_form_cost(family: str, param: float, d: int = 2) -> ClosedForm:
    """Exact zero-error NS simulation cost of a named channel family.

    Args:
        family: one of "depolarizing", "amplitude_damping", "dephasing",
            "erasure". The middle two are qubit-only.
        param: noise parameter (p, or r for amplitude damping).
        d: input dimension for the families that support it.

    Returns:
        A ClosedForm whose value_bits is (1/2) log2 of the optimal tr V.
    """
    family, param, d = _check_family_args(family, param, d)
    tr_v = _tr_v_expression(family, param, d)
    return ClosedForm(
        family=family, param=param, d=d, value_bits=0.5 * math.log2(tr_v)
    )


def certificate(family: str, param: float, d: int = 2) -> CertificatePair:
    """The explicit optimal primal/dual pair for a channel family.

    The primal V satisfies J_N <= 1 (x) V with tr V equal to the closed
    form; the dual X satisfies X >= 0 and tr_A X <= 1_B with tr(J_N X)
    equal to the same value. Dephasing switches its dual between the even
    and odd Bell state at p = 1/2, where the two channel eigenvalues cross.
    """
    family, param, d = _check_family_args(family, param, d)
    if family == "depolarizing":
        v = (d * (1.0 - param) + param / d) * np.eye(d, dtype=complex)
        return CertificatePair(primal_v=v, dual_x=_aligned_pairs(d))
    if family == "amplitude_damping":
        s = math.sqrt(1.0 - param)
        v = np.diag([1.0 + s, s + 1.0 - param]).astype(complex)
        return CertificatePair(primal_v=v, dual_x=_aligned_pairs(2))
    if family == "dephasing":
        v = (abs(2.0 * param - 1.0) + 1.0) * np.eye(2, dtype=complex)
        sign = 1.0 if param <= 0.5 else -1.0
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        psi[3] = sign
        return CertificatePair(primal_v=v, dual_x=np.outer(psi, psi.conj()))
    # Erasure: output dimension d + 1, the last level flags the erasure.
    v = np.diag([d * (1.0 - param)] * d + [param]).astype(complex)
    dim_out = d + 1
    x = np.zeros((d * dim_out, d * dim_out), dtype=complex)
    for i in range(d):
        for j in range(d):
            x[i * dim_out + i, j * dim_out + j] = 1.0
    for i in range(d):
        x[i * dim_out + d, i * dim_out + d] += 1.0 / d
    return CertificatePair(primal_v=v, dual_x=x)


def _aligned_pairs(d: int) -> np.ndarray:
    """The rank-one dual sum_ij |ii><jj| on a d (x) d system."""
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[i * d + i] = 1.0
    return np.outer(psi, psi.conj())


def depolarizing_erasure_coincidence(p: float, d: int = 2) -> bool:
    """Whether depolarizing and erasure costs coincide at (p, d). Always true.

    The two families evaluate the identical expression d^2 (1-p) + p, so the
    comparison is float-exact, not approximate.
    """
    a = closed_form_cost("depolarizing", p, d).value_bits
    b = closed_form_cost("erasure", p, d).value_bits
    return a == b
