import math

import numpy as np
import pytest

from nscost.qmat import (
    QuantumChannel,
    apply_channel,
    choi_of_kraus,
    compose_channels,
    hermitian_basis,
    identity_matrix,
    is_hermitian,
    is_psd,
    kron,
    lift,
    make_channel,
    partial_trace,
    partial_transpose,
    subsystem_permute,
    tensor_channels,
    trace_norm_hermitian,
    traceless_hermitian_basis,
)
from oracles import (
    brute_partial_trace,
    brute_partial_transpose,
    brute_permute,
    kraus_apply,
    random_channel,
    random_kraus,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(identity_matrix(2), identity_matrix(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert np.allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_bell_tensor_matches_permuted_phi4(self):
        # Phi_2 (x) Phi_2 equals Phi_4 after regrouping the two input and the
        # two output factors, checked by brute-force index permutation.
        phi2 = make_channel("identity", d=2).choi / 2
        phi4 = make_channel("identity", d=4).choi / 4
        got = kron(phi2, phi2)
        expected = brute_permute(phi4, [2, 2, 2, 2], [0, 2, 1, 3])
        assert np.allclose(got, expected, atol=1e-12)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(7)
        rho = random_hermitian(rng, 3)
        sigma = random_hermitian(rng, 4)
        got = partial_trace(kron(rho, sigma), [3, 4], 1)
        assert np.allclose(got, rho * np.trace(sigma), atol=1e-12)

    def test_identity_channel_tp(self):
        j = make_channel("identity", d=2).choi
        assert np.allclose(partial_trace(j, [2, 2], 1), np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("side", [0, 1])
    def test_max_entangled_marginals(self, side):
        d = 3
        phi = make_channel("identity", d=d).choi / d
        got = partial_trace(phi, [d, d], side)
        expected = brute_partial_trace(phi, [d, d], [side])
        assert np.allclose(got, expected, atol=1e-12)
        assert np.allclose(got, np.eye(d) / d, atol=1e-12)

    def test_matches_brute_force_on_three_systems(self):
        rng = np.random.default_rng(11)
        dims = [2, 3, 2]
        m = random_hermitian(rng, 12)
        for traced in ([0], [1], [2], [0, 2], [1, 2]):
            got = partial_trace(m, dims, traced)
            expected = brute_partial_trace(m, dims, traced)
            assert np.allclose(got, expected, atol=1e-12)
        assert np.isclose(np.trace(partial_trace(m, dims, [1])), np.trace(m))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), [2, 2], 0)


class TestPartialTranspose:
    def test_product_operator(self):
        rng = np.random.default_rng(3)
        rho = random_hermitian(rng, 2)
        sigma = random_hermitian(rng, 3)
        got = partial_transpose(kron(rho, sigma), [2, 3], 1)
        assert np.allclose(got, kron(rho, sigma.T), atol=1e-12)

    def test_unnormalized_bell_gives_swap(self):
        d = 3
        j = make_channel("identity", d=d).choi
        swap = partial_transpose(j, [d, d], 1)
        v = np.zeros((d * d, d * d))
        for i in range(d):
            for k in range(d):
                v[i * d + k, k * d + i] = 1.0
        assert np.allclose(swap, v, atol=1e-12)

    def test_involution_trace_hermiticity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = random_hermitian(rng, 6)
            pt = partial_transpose(m, [2, 3], 0)
            assert is_hermitian(pt, 1e-12)
            assert np.isclose(np.trace(pt), np.trace(m))
            assert np.allclose(partial_transpose(pt, [2, 3], 0), m, atol=1e-13)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        m = random_hermitian(rng, 12)
        for idx in ([0], [1], [2], [0, 1]):
            got = partial_transpose(m, [2, 3, 2], idx)
            expected = brute_partial_transpose(m, [2, 3, 2], idx)
            assert np.allclose(got, expected, atol=1e-12)


class TestSubsystemPermuteAndLift:
    def test_permute_matches_brute_force(self):
        rng = np.random.default_rng(17)
        m = random_hermitian(rng, 12)
        for perm in ([1, 0, 2], [2, 0, 1], [0, 2, 1]):
            got = subsystem_permute(m, [2, 3, 2], perm)
            expected = brute_permute(m, [2, 3, 2], perm)
            assert np.allclose(got, expected, atol=1e-12)

    def test_lift_places_operator(self):
        rng = np.random.default_rng(19)
        a = random_hermitian(rng, 3)
        got = lift(a, [1], [2, 3, 2])
        assert np.allclose(got, kron(kron(np.eye(2), a), np.eye(2)), atol=1e-12)

    def test_lift_two_sites_ordered(self):
        rng = np.random.default_rng(23)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        # Operator on (site 2, site 0) in that order.
        got = lift(kron(a, b), [2, 0], [2, 3, 2])
        expected = kron(kron(b, np.eye(3)), a)
        assert np.allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("sites", [[2], [-1], [0, 5]])
    def test_lift_rejects_sites_out_of_range(self, sites):
        with pytest.raises(ValueError, match=f"subsystem index {sites[-1]} out of range for 2"):
            lift(np.eye(2), sites, [2, 2])

    def test_lift_rejects_duplicate_sites(self):
        with pytest.raises(ValueError, match="duplicate site index"):
            lift(np.eye(4), [1, 1], [2, 2])


_STACK_MAPS = {
    "partial_trace": lambda a: partial_trace(a, [2, 3, 2], [0, 2]),
    "partial_trace_middle": lambda a: partial_trace(a, [2, 3, 2], 1),
    "partial_transpose": lambda a: partial_transpose(a, [2, 3, 2], [1, 2]),
    "subsystem_permute": lambda a: subsystem_permute(a, [2, 3, 2], [2, 0, 1]),
    "lift": lambda a: lift(a, [2, 0], [2, 3, 2]),
}


class TestStacks:
    """The subsystem maps act on the last two axes and keep the leading ones."""

    @pytest.mark.parametrize("name", sorted(_STACK_MAPS))
    @pytest.mark.parametrize("is_complex", [False, True])
    def test_stack_is_the_per_matrix_loop_bitwise(self, name, is_complex):
        fn = _STACK_MAPS[name]
        rng = np.random.default_rng(29)
        n = 4 if name == "lift" else 12
        stack = rng.standard_normal((5, n, n))
        if is_complex:
            stack = stack + 1j * rng.standard_normal((5, n, n))
        # Signed zeros too: a map that adds where the loop copies shows here.
        stack[:, 0, :] = -0.0
        got = fn(stack)
        loop = np.stack([fn(a) for a in stack])
        assert got.shape == loop.shape and got.dtype == loop.dtype
        assert got.tobytes() == loop.tobytes()
        deeper = fn(np.stack([stack, stack[::-1]]))
        assert deeper.tobytes() == np.stack([got, got[::-1]]).tobytes()

    @pytest.mark.parametrize("name", sorted(_STACK_MAPS))
    def test_non_square_and_one_dimensional_input_are_rejected(self, name):
        fn = _STACK_MAPS[name]
        n = 4 if name == "lift" else 12
        with pytest.raises(ValueError, match="does not match"):
            fn(np.zeros((3, n, n + 1)))
        with pytest.raises(ValueError, match="expected a 2-D matrix"):
            fn(np.zeros(n))


class TestChoiOfKraus:
    def test_identity_kraus(self):
        ch = choi_of_kraus([np.eye(3)], 3, 3)
        assert np.allclose(ch.choi, make_channel("identity", d=3).choi)

    def test_amplitude_damping_r0_is_identity(self):
        ch = make_channel("amplitude_damping", r=0.0)
        assert np.allclose(ch.choi, make_channel("identity", d=2).choi, atol=1e-12)

    def test_depolarizing_kraus_matches_direct_choi(self):
        # Weyl-twirl Kraus set against the direct q1*Phi + q2*Phi_perp form.
        d, p = 2, 0.35
        paulis = [
            np.eye(2),
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        kraus = [math.sqrt(1 - 3 * p / 4) * paulis[0]] + [
            math.sqrt(p / 4) * s for s in paulis[1:]
        ]
        via_kraus = choi_of_kraus(kraus, d, d)
        direct = make_channel("depolarizing", d=d, p=p)
        assert np.allclose(via_kraus.choi, direct.choi, atol=1e-12)

    def test_rejects_non_tp_set(self):
        with pytest.raises(ValueError, match="trace preserving"):
            choi_of_kraus([0.5 * np.eye(2)], 2, 2)


class TestMakeChannel:
    def test_depolarizing_p0_is_identity(self):
        assert np.allclose(
            make_channel("depolarizing", d=2, p=0.0).choi,
            make_channel("identity", d=2).choi,
        )

    def test_full_erasure(self):
        ch = make_channel("erasure", d=2, p=1.0)
        e = np.zeros((3, 3))
        e[2, 2] = 1.0
        assert np.allclose(ch.choi, kron(np.eye(2), e), atol=1e-12)
        assert ch.dim_out == 3

    def test_dephasing_choi_spectrum(self):
        p = 0.3
        ch = make_channel("dephasing", p=p)
        z = np.diag([1.0, -1.0])
        j_id = make_channel("identity", d=2).choi
        expected = (1 - p) * j_id + p * kron(np.eye(2), z) @ j_id @ kron(
            np.eye(2), z
        )
        assert np.allclose(ch.choi, expected, atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(ch.choi))
        assert np.allclose(eigs, [0.0, 0.0, 2 * p, 2 * (1 - p)], atol=1e-12)

    def test_classical_choi_is_diagonal(self):
        n = np.array([[0.8, 0.2], [0.4, 0.6]])
        ch = make_channel("classical", matrix=n)
        assert np.allclose(ch.choi, np.diag([0.8, 0.2, 0.4, 0.6]), atol=1e-14)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_classical_rejects_non_finite_entries(self, bad):
        # NaN passes the sign and row-sum tests, and inf fails the row sums:
        # both must be named for what they are.
        with pytest.raises(ValueError, match="non-finite"):
            make_channel("classical", matrix=[[bad, 1.0], [0.5, 0.5]])

    def test_constant_channel(self):
        sigma = np.diag([0.25, 0.75]).astype(complex)
        ch = make_channel("constant", sigma=sigma, dim_in=3)
        assert ch.dim_in == 3 and ch.dim_out == 2
        rng = np.random.default_rng(2)
        rho = np.eye(3) / 3 + 0j
        assert np.allclose(apply_channel(ch, rho), sigma, atol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"family": "depolarizing", "d": 2, "p": 1.5},
            {"family": "dephasing", "p": -0.1},
            {"family": "amplitude_damping"},
            {"family": "classical", "matrix": [[0.5, 0.2], [0.3, 0.7]]},
            {"family": "nosuch", "p": 0.5},
            {"family": "amplitude_damping", "d": 3, "r": 0.1},  # qubit-only
            {"family": "dephasing", "d": 3, "p": 0.1},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            make_channel(**kwargs)

    def test_channel_invariants_on_zoo(self):
        zoo = [
            make_channel("depolarizing", d=3, p=0.4),
            make_channel("amplitude_damping", r=0.7),
            make_channel("dephasing", p=0.5),
            make_channel("erasure", d=3, p=0.25),
            make_channel("identity", d=4),
        ]
        for ch in zoo:
            assert is_psd(ch.choi, 1e-10)
            marg = partial_trace(ch.choi, [ch.dim_in, ch.dim_out], 1)
            assert np.max(np.abs(marg - np.eye(ch.dim_in))) <= 1e-10


class TestApplyChannel:
    def test_identity(self):
        rng = np.random.default_rng(29)
        rho = random_hermitian(rng, 3)
        ch = make_channel("identity", d=3)
        assert np.allclose(apply_channel(ch, rho), rho, atol=1e-12)

    def test_fully_depolarizing(self):
        rho = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        ch = make_channel("depolarizing", d=2, p=1.0)
        assert np.allclose(apply_channel(ch, rho), np.eye(2) / 2, atol=1e-12)

    def test_matches_kraus_sum_on_random_channels(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            kraus = random_kraus(rng, 2, 2, 3)
            ch = choi_of_kraus(kraus, 2, 2)
            rho = random_hermitian(rng, 2)
            assert np.allclose(
                apply_channel(ch, rho), kraus_apply(kraus, rho), atol=1e-10
            )

    def test_trace_preserved_psd_preserved(self):
        rng = np.random.default_rng(37)
        ch = random_channel(rng, 3, 2, 4)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        out = apply_channel(ch, rho)
        assert np.isclose(np.trace(out), np.trace(rho))
        assert is_psd(out, 1e-10)


class TestCompositionAndTensor:
    def test_compose_matches_kraus(self):
        rng = np.random.default_rng(41)
        k1 = random_kraus(rng, 2, 3, 2)
        k2 = random_kraus(rng, 3, 2, 3)
        first = choi_of_kraus(k1, 2, 3)
        second = choi_of_kraus(k2, 3, 2)
        comp = compose_channels(second, first)
        rho = random_hermitian(rng, 2)
        expected = kraus_apply(k2, kraus_apply(k1, rho))
        assert np.allclose(apply_channel(comp, rho), expected, atol=1e-10)

    def test_tensor_applies_factorwise(self):
        rng = np.random.default_rng(43)
        a = random_channel(rng, 2, 2, 2)
        b = random_channel(rng, 2, 3, 2)
        ab = tensor_channels(a, b)
        rho = random_hermitian(rng, 2)
        sig = random_hermitian(rng, 2)
        got = apply_channel(ab, kron(rho, sig))
        expected = kron(apply_channel(a, rho), apply_channel(b, sig))
        assert np.allclose(got, expected, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="compose"):
            compose_channels(
                make_channel("identity", d=3), make_channel("identity", d=2)
            )


class TestTraceNorm:
    def test_zero(self):
        assert trace_norm_hermitian(np.zeros((3, 3))) == 0.0

    def test_orthogonal_pure_states(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        assert np.isclose(trace_norm_hermitian(rho - sigma), 2.0)

    def test_diagonal(self):
        assert np.isclose(trace_norm_hermitian(np.diag([3.0, -4.0])), 7.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            trace_norm_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianBases:
    @pytest.mark.parametrize("n", [2, 3])
    def test_full_basis_orthonormal_complete(self, n):
        basis = hermitian_basis(n)
        assert len(basis) == n * n
        for i, a in enumerate(basis):
            assert is_hermitian(a, 1e-14)
            for j, b in enumerate(basis):
                ip = np.sum(a.conj() * b).real
                assert np.isclose(ip, 1.0 if i == j else 0.0, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    def test_traceless_basis(self, n):
        basis = traceless_hermitian_basis(n)
        assert len(basis) == n * n - 1
        for a in basis:
            assert abs(np.trace(a)) < 1e-13
            assert is_hermitian(a, 1e-14)
        gram = np.array(
            [[np.sum(a.conj() * b).real for b in basis] for a in basis]
        )
        assert np.allclose(gram, np.eye(len(basis)), atol=1e-13)


class TestQuantumChannelValidation:
    def test_rejects_non_psd_choi(self):
        j = make_channel("identity", d=2).choi.copy()
        j[0, 0] = -1.0
        with pytest.raises(ValueError):
            QuantumChannel(2, 2, j)

    def test_rejects_non_tp_choi(self):
        with pytest.raises(ValueError, match="trace preserving"):
            QuantumChannel(2, 2, np.eye(4))

    def test_degenerate_dims_allowed(self):
        ch = make_channel("constant", sigma=np.eye(2) / 2, dim_in=1)
        assert ch.dim_in == 1
        trivial = make_channel("identity", d=1)
        assert trivial.choi.shape == (1, 1)
