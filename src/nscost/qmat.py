"""Complex linear algebra and Choi-matrix calculus for finite-dimensional channels.

Matrices are dense numpy arrays with dtype complex128 (row-major). A channel
is stored by its Choi matrix J = sum_ij |i><j| (x) N(|i><j|) with the input
system as the slow tensor index, so J acts on (input (x) output) and trace
preservation reads tr_out J = identity on the input.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "PSD_TOL",
    "QUBIT_ONLY_FAMILIES",
    "TP_TOL",
    "QuantumChannel",
    "apply_channel",
    "as_matrix",
    "choi_of_kraus",
    "compose_channels",
    "hermitian_basis",
    "identity_matrix",
    "is_hermitian",
    "is_psd",
    "kron",
    "lift",
    "make_channel",
    "partial_trace",
    "partial_transpose",
    "row_stochastic",
    "subsystem_permute",
    "tensor_channels",
    "trace_norm_hermitian",
    "traceless_hermitian_basis",
]

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
TP_TOL = 1e-10
# The families of make_channel that are defined on qubits only.
QUBIT_ONLY_FAMILIES = ("amplitude_damping", "dephasing")


def as_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def is_hermitian(m, tol: float = HERMITIAN_TOL) -> bool:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def is_psd(m, tol: float = PSD_TOL) -> bool:
    a = as_matrix(m)
    if not is_hermitian(a, max(tol, HERMITIAN_TOL)):
        return False
    eigs = np.linalg.eigvalsh(a)
    return bool(eigs[0] >= -tol)


def kron(a, b) -> np.ndarray:
    """Tensor product with the left factor as the slow index."""
    return np.kron(as_matrix(a), as_matrix(b))


def _as_stack(m) -> np.ndarray:
    """Coerce input to a complex128 matrix, or a stack of them (..., n, n)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"expected a 2-D matrix or a stack of them, got shape {a.shape}")
    return a


def _check_dims(m: np.ndarray, dims: Sequence[int]) -> None:
    total = math.prod(dims)
    if m.shape[-2:] != (total, total):
        raise ValueError(
            f"matrix shape {m.shape} does not match subsystem dims {list(dims)}"
        )


def _check_index(i: int, nsys: int) -> int:
    if not 0 <= i < nsys:
        raise ValueError(f"subsystem index {i} out of range for {nsys} systems")
    return i


def _as_index_list(idx: int | Iterable[int], nsys: int) -> list[int]:
    if isinstance(idx, (int, np.integer)):
        idx = [int(idx)]
    return [_check_index(i, nsys) for i in sorted({int(i) for i in idx})]


# The subsystem maps below act on the last two axes, (..., n, n) with n the
# product of `dims`, and keep the leading ones: a stack of matrices maps as
# one array, matrix by matrix.


def subsystem_permute(m, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so output subsystem j is input subsystem perm[j]."""
    a = _as_stack(m)
    _check_dims(a, dims)
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"perm {list(perm)} is not a permutation of 0..{k - 1}")
    lead = a.ndim - 2
    t = a.reshape(*a.shape[:-2], *dims, *dims)
    axes = [*range(lead), *(lead + p for p in perm), *(lead + k + p for p in perm)]
    return t.transpose(axes).reshape(a.shape)


def partial_trace(m, dims: Sequence[int], traced: int | Iterable[int]) -> np.ndarray:
    """Trace out the listed subsystems of a multipartite matrix."""
    a = _as_stack(m)
    _check_dims(a, dims)
    traced_list = _as_index_list(traced, len(dims))
    lead, cur_dims = a.ndim - 2, list(dims)
    t = a.reshape(*a.shape[:-2], *cur_dims, *cur_dims)
    for i in reversed(traced_list):
        k = len(cur_dims)
        t = np.trace(t, axis1=lead + i, axis2=lead + i + k)
        del cur_dims[i]
    n = math.prod(cur_dims) if cur_dims else 1
    return t.reshape(*a.shape[:-2], n, n)


def partial_transpose(
    m, dims: Sequence[int], transposed: int | Iterable[int]
) -> np.ndarray:
    """Transpose the listed subsystems in place, leaving the others untouched."""
    a = _as_stack(m)
    _check_dims(a, dims)
    idx = _as_index_list(transposed, len(dims))
    lead, k = a.ndim - 2, len(dims)
    t = a.reshape(*a.shape[:-2], *dims, *dims)
    axes = list(range(lead + 2 * k))
    for i in idx:
        axes[lead + i], axes[lead + i + k] = axes[lead + i + k], axes[lead + i]
    return t.transpose(axes).reshape(a.shape)


def lift(op, sites: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Embed an operator acting on the listed sites (in that order) into the full space.

    The result acts as `op` on the tensor factors named by `sites` and as the
    identity elsewhere, with factors in the natural 0..k-1 order.
    """
    a = _as_stack(op)
    sites = [_check_index(int(s), len(dims)) for s in sites]
    if len(set(sites)) != len(sites):
        raise ValueError("duplicate site index")
    d_sites = math.prod(dims[s] for s in sites)
    if a.shape[-2:] != (d_sites, d_sites):
        raise ValueError(
            f"operator shape {a.shape} does not match sites {sites} of dims {list(dims)}"
        )
    rest = [i for i in range(len(dims)) if i not in sites]
    # Exact on a stack too: every entry is one product with 1 or 0.
    full = np.kron(a, identity_matrix(math.prod([dims[i] for i in rest] or [1])))
    order = sites + rest
    perm = [order.index(i) for i in range(len(dims))]
    return subsystem_permute(full, [dims[i] for i in order], perm)


def trace_norm_hermitian(m) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    a = as_matrix(m)
    if not is_hermitian(a, 1e-10):
        raise ValueError("trace_norm_hermitian requires a Hermitian matrix")
    return float(np.sum(np.abs(np.linalg.eigvalsh(a))))


def _off_diagonal_basis(n: int) -> list[np.ndarray]:
    """The n(n-1) off-diagonal elements of the orthonormal Hermitian basis:
    for each k < l, (|k><l| + |l><k|) / sqrt(2), then i(|l><k| - |k><l|) / sqrt(2)."""
    basis: list[np.ndarray] = []
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[k, l] = inv_sqrt2
            e[l, k] = inv_sqrt2
            basis.append(e)
            e = np.zeros((n, n), dtype=np.complex128)
            e[k, l] = -1j * inv_sqrt2
            e[l, k] = 1j * inv_sqrt2
            basis.append(e)
    return basis


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of n x n Hermitian matrices, n^2 elements."""
    basis: list[np.ndarray] = []
    for k in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[k, k] = 1.0
        basis.append(e)
    return basis + _off_diagonal_basis(n)


def traceless_hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of traceless Hermitian matrices, n^2 - 1 elements."""
    basis: list[np.ndarray] = []
    for k in range(1, n):
        e = np.zeros((n, n), dtype=np.complex128)
        scale = 1.0 / math.sqrt(k * (k + 1))
        for i in range(k):
            e[i, i] = scale
        e[k, k] = -k * scale
        basis.append(e)
    return basis + _off_diagonal_basis(n)


@dataclass(frozen=True)
class QuantumChannel:
    """A completely positive trace-preserving map stored by its Choi matrix.

    The Choi matrix is ordered input (x) output; complete positivity means the
    matrix is PSD and trace preservation means its partial trace over the
    output factor is the identity on the input factor.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.dim_in < 1 or self.dim_out < 1:
            raise ValueError("channel dimensions must be positive")
        j = as_matrix(self.choi)
        n = self.dim_in * self.dim_out
        if j.shape != (n, n):
            raise ValueError(
                f"Choi matrix shape {j.shape} does not match dims "
                f"({self.dim_in}, {self.dim_out})"
            )
        if not is_hermitian(j, 1e-10):
            raise ValueError("Choi matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(j)
        if eigs[0] < -PSD_TOL:
            raise ValueError(
                f"Choi matrix is not PSD (min eigenvalue {eigs[0]:.3e})"
            )
        marginal = partial_trace(j, [self.dim_in, self.dim_out], 1)
        if np.max(np.abs(marginal - identity_matrix(self.dim_in))) > TP_TOL:
            raise ValueError("channel is not trace preserving")
        j.setflags(write=False)
        object.__setattr__(self, "choi", j)


def _identity_choi(d: int) -> np.ndarray:
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            j[i * d + i, k * d + k] = 1.0
    return j


def choi_of_kraus(kraus: Sequence, dim_in: int, dim_out: int) -> QuantumChannel:
    """Build a channel from Kraus operators K_i mapping dim_in to dim_out.

    The Kraus set must be trace preserving: :class:`QuantumChannel` checks
    that tr_out J = (sum_i K_i^dag K_i)^T is the identity within 1e-10.
    """
    ops = [as_matrix(k) for k in kraus]
    if not ops:
        raise ValueError("empty Kraus set")
    for k in ops:
        if k.shape != (dim_out, dim_in):
            raise ValueError(
                f"Kraus operator shape {k.shape} does not match ({dim_out}, {dim_in})"
            )
    n = dim_in * dim_out
    j = np.zeros((n, n), dtype=np.complex128)
    for k in ops:
        v = np.ravel(k.T)
        j += np.outer(v, v.conj())
    return QuantumChannel(dim_in, dim_out, j)


def _density_matrix(sigma) -> np.ndarray:
    s = as_matrix(sigma)
    if s.shape[0] != s.shape[1]:
        raise ValueError("state must be square")
    if not is_psd(s, PSD_TOL):
        raise ValueError("state must be PSD")
    if abs(np.trace(s).real - 1.0) > 1e-10:
        raise ValueError("state must have unit trace")
    return s


def make_channel(
    family: str,
    *,
    d: int = 2,
    p: float | None = None,
    r: float | None = None,
    matrix=None,
    sigma=None,
    dim_in: int | None = None,
) -> QuantumChannel:
    """Construct a channel from the named family.

    Families and their parameters:
      depolarizing(d, p): rho -> (1-p) rho + p tr(rho) 1/d
      amplitude_damping(r): qubit decay |1> -> |0> with probability r
      dephasing(p): qubit phase flip Z with probability p
      erasure(d, p): rho -> (1-p) rho (+) p tr(rho) |e><e|, output dim d+1
      classical(matrix): row-stochastic N(y|x), diagonal Choi
      identity(d)
      constant(sigma, dim_in): rho -> tr(rho) sigma
    The qubit-only families, amplitude_damping and dephasing, reject d != 2.
    """
    if family == "depolarizing":
        pr = _unit_interval("p", p)
        if d < 1:
            raise ValueError("d must be positive")
        j = (1.0 - pr) * _identity_choi(d) + (pr / d) * identity_matrix(d * d)
        return QuantumChannel(d, d, j)
    if family in QUBIT_ONLY_FAMILIES and d != 2:
        raise ValueError(f"{family} is qubit-only, got d = {d}")
    if family == "amplitude_damping":
        rr = _unit_interval("r", r)
        e0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - rr)]], dtype=np.complex128)
        e1 = np.array([[0.0, math.sqrt(rr)], [0.0, 0.0]], dtype=np.complex128)
        return choi_of_kraus([e0, e1], 2, 2)
    if family == "dephasing":
        pr = _unit_interval("p", p)
        k0 = math.sqrt(1.0 - pr) * identity_matrix(2)
        k1 = math.sqrt(pr) * np.diag([1.0, -1.0]).astype(np.complex128)
        return choi_of_kraus([k0, k1], 2, 2)
    if family == "erasure":
        pr = _unit_interval("p", p)
        if d < 1:
            raise ValueError("d must be positive")
        embed = np.zeros((d + 1, d), dtype=np.complex128)
        embed[:d, :] = identity_matrix(d)
        ops = [math.sqrt(1.0 - pr) * embed]
        for i in range(d):
            flag = np.zeros((d + 1, d), dtype=np.complex128)
            flag[d, i] = math.sqrt(pr)
            ops.append(flag)
        return choi_of_kraus(ops, d, d + 1)
    if family == "classical":
        if matrix is None:
            raise ValueError("classical channel requires matrix=")
        n = row_stochastic(matrix)
        nx, ny = n.shape
        j = np.diag(n.reshape(-1)).astype(np.complex128)
        return QuantumChannel(nx, ny, j)
    if family == "identity":
        if d < 1:
            raise ValueError("d must be positive")
        return QuantumChannel(d, d, _identity_choi(d))
    if family == "constant":
        if sigma is None:
            raise ValueError("constant channel requires sigma=")
        s = _density_matrix(sigma)
        din = 1 if dim_in is None else int(dim_in)
        if din < 1:
            raise ValueError("dim_in must be positive")
        return QuantumChannel(din, s.shape[0], kron(identity_matrix(din), s))
    raise ValueError(f"unknown channel family {family!r}")


def row_stochastic(matrix) -> np.ndarray:
    """A classical channel N(y|x), one distribution per row, as a float
    array, checked: 2-D and not empty, finite, nonnegative up to -1e-12, and
    with rows summing to 1 within 1e-10. Raises ValueError otherwise."""
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError(f"channel must be a 2-D matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("channel matrix has non-finite entries")
    if np.min(mat) < -1e-12:
        raise ValueError("channel matrix has negative entries")
    row_sums = mat.sum(axis=1)
    if np.max(np.abs(row_sums - 1.0)) > 1e-10:
        raise ValueError(f"channel rows must sum to 1, got sums {row_sums}")
    return mat


def _unit_interval(name: str, value: float | None) -> float:
    if value is None:
        raise ValueError(f"parameter {name} is required")
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"parameter {name}={v} outside [0, 1]")
    return v


def apply_channel(ch: QuantumChannel, rho) -> np.ndarray:
    """Apply a channel to a matrix via its Choi representation."""
    x = as_matrix(rho)
    if x.shape != (ch.dim_in, ch.dim_in):
        raise ValueError(
            f"input shape {x.shape} does not match channel input dim {ch.dim_in}"
        )
    j4 = ch.choi.reshape(ch.dim_in, ch.dim_out, ch.dim_in, ch.dim_out)
    return np.einsum("ij,ikjl->kl", x, j4)


def compose_channels(second: QuantumChannel, first: QuantumChannel) -> QuantumChannel:
    """Channel composition second after first."""
    if first.dim_out != second.dim_in:
        raise ValueError(
            f"cannot compose: first output dim {first.dim_out} != "
            f"second input dim {second.dim_in}"
        )
    din, dout = first.dim_in, second.dim_out
    j = np.zeros((din * dout, din * dout), dtype=np.complex128)
    j4 = j.reshape(din, dout, din, dout)
    for i in range(din):
        for k in range(din):
            e = np.zeros((din, din), dtype=np.complex128)
            e[i, k] = 1.0
            j4[i, :, k, :] = apply_channel(second, apply_channel(first, e))
    return QuantumChannel(din, dout, j)


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Tensor product channel a (x) b with inputs and outputs grouped."""
    j = kron(a.choi, b.choi)
    dims = [a.dim_in, a.dim_out, b.dim_in, b.dim_out]
    j = subsystem_permute(j, dims, [0, 2, 1, 3])
    return QuantumChannel(a.dim_in * b.dim_in, a.dim_out * b.dim_out, j)
