"""Tests for the channel-simulation cost programs."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import nscost.conic
import nscost.programs
import nscost.symmetry
from nscost.conic import SolverFailure, problem_from_json, solve
from nscost.programs import (
    CertificatePair,
    choi_compose,
    cost_result_from_trv,
    diamond_norm_dist,
    max_information,
    min_error_noiseless,
    min_error_simulation,
    one_shot_cost_ns,
    one_shot_cost_ns_ppt,
    robustness,
    smooth_max_information,
    verify_certificate,
    zero_error_cost,
    zero_error_costs,
)
from nscost.qmat import (
    QuantumChannel,
    compose_channels,
    hermitian_basis,
    kron,
    make_channel,
    subsystem_permute,
    tensor_channels,
)
from nscost.symmetry import classical_cost_lp

from oracles import random_channel


def depol(p, d=2):
    return make_channel("depolarizing", d=d, p=p)


# ---------------------------------------------------------------------------
# CostResult construction


def test_cost_result_example_values():
    res = cost_result_from_trv(3.55)
    assert res.m_star == 2
    assert res.cost_bits == 1.0
    assert math.isclose(res.half_log_trv, 0.5 * math.log2(3.55))
    assert math.isclose(res.delta, 1.0 - 0.5 * math.log2(3.55))
    assert 0.0 <= res.delta <= 1.0


def test_cost_result_ceiling_slack():
    # Values within 1e-6 above a perfect square stay at that square's root.
    assert cost_result_from_trv(4.0).m_star == 2
    assert cost_result_from_trv(4.0000005).m_star == 2
    assert cost_result_from_trv(4.0000011).m_star == 3
    assert cost_result_from_trv(1.0).m_star == 1
    assert cost_result_from_trv(1.0).delta == 0.0
    # Inside the slack, delta is clamped at 0 rather than going negative.
    assert cost_result_from_trv(1 + 7.2e-11).delta == 0.0
    assert cost_result_from_trv(4.0000005).delta == 0.0


def test_cost_result_log_domain():
    res = cost_result_from_trv(2.0**548, log2_trv=548.0)
    assert res.m_star == 2**274
    assert res.cost_bits == 274.0
    assert res.delta == 0.0
    assert res.half_log_trv == 274.0


def test_cost_result_m_star_is_exact_for_numpy_scalars():
    # m^2 rounds up to tr V in float64, but m^2 < tr V: m* is m + 1.
    m = 2**52 + 2**26 - 1
    tr_v = float(m * m)
    assert m * m < tr_v
    for value in (tr_v, np.float64(tr_v)):
        res = cost_result_from_trv(value)
        assert res.m_star == m + 1
        assert type(res.tr_v_opt) is float
        assert type(res.half_log_trv) is float and type(res.delta) is float


def test_cost_result_rejects_nonpositive():
    with pytest.raises(ValueError):
        cost_result_from_trv(0.0)


# ---------------------------------------------------------------------------
# Diamond-norm distance


def test_diamond_self_distance_zero():
    rng = np.random.default_rng(7)
    n = random_channel(rng, 2, 2, 3)
    assert diamond_norm_dist(n, n) <= 1e-7


def test_diamond_identity_vs_depolarizing():
    # Half the diamond distance between id and D_p is 3p/4 on qubits.
    for p in (0.1, 0.3, 0.9):
        val = diamond_norm_dist(make_channel("identity", d=2), depol(p))
        assert abs(val - 0.75 * p) <= 1e-6


def test_diamond_identity_vs_dephasing():
    # Dephasing with flip weight p is distinguished by |+>, giving exactly p.
    for p in (0.1, 0.5, 0.9):
        val = diamond_norm_dist(
            make_channel("identity", d=2), make_channel("dephasing", p=p)
        )
        assert abs(val - p) <= 1e-6


def test_diamond_symmetry_and_triangle():
    rng = np.random.default_rng(11)
    a = random_channel(rng, 2, 2, 2)
    b = random_channel(rng, 2, 2, 3)
    c = random_channel(rng, 2, 2, 4)
    dab = diamond_norm_dist(a, b)
    dba = diamond_norm_dist(b, a)
    dac = diamond_norm_dist(a, c)
    dcb = diamond_norm_dist(c, b)
    assert abs(dab - dba) <= 1e-6
    assert 0.0 <= dab <= 1.0 + 1e-9
    assert dab <= dac + dcb + 1e-7


def test_diamond_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        diamond_norm_dist(make_channel("identity", d=2), make_channel("identity", d=3))


# ---------------------------------------------------------------------------
# General code optimization (resource -> target)


def test_simulating_a_channel_with_itself_is_free():
    rng = np.random.default_rng(23)
    n = random_channel(rng, 2, 2, 2)
    assert min_error_simulation(n, n, "NS") <= 1e-6


def test_fully_depolarizing_equals_constant_target():
    n = depol(1.0)
    m = make_channel("constant", sigma=np.eye(2) / 2, dim_in=2)
    assert min_error_simulation(n, m, "NS") <= 1e-6


def test_ppt_code_class_is_smaller():
    n = make_channel("dephasing", p=0.3)
    target = make_channel("identity", d=2)
    err_ns = min_error_simulation(n, target, "NS")
    err_ppt = min_error_simulation(n, target, "NS_PPT")
    assert err_ppt >= err_ns - 1e-7


def test_code_class_names_are_validated():
    n = depol(0.2)
    with pytest.raises(ValueError):
        min_error_simulation(n, n, "LOCC")
    with pytest.raises(ValueError):
        min_error_noiseless(2, n, "ppt only")


def test_general_and_reduced_programs_agree_trivial_resource():
    # A one-dimensional resource channel carries nothing, so the general
    # program must match the m = 1 reduced program (best constant channel).
    target = make_channel("dephasing", p=0.2)
    idle = make_channel("identity", d=1)
    general = min_error_simulation(idle, target, "NS")
    reduced = min_error_noiseless(1, target, "NS")
    assert reduced > 0.1
    assert abs(general - reduced) <= 1e-6


def test_general_and_reduced_agree_with_ppt_constraint():
    target = make_channel("dephasing", p=0.2)
    idle = make_channel("identity", d=1)
    general = min_error_simulation(idle, target, "NS_PPT")
    reduced = min_error_noiseless(1, target, "NS_PPT")
    assert abs(general - reduced) <= 1e-6


def test_general_and_reduced_agree_qutrit_target():
    # Simulating id_3 through a noiseless qubit: the symmetry-reduced program
    # must match the full code optimization over the (3,2,2,3) geometry.
    target = make_channel("identity", d=3)
    qubit = make_channel("identity", d=2)
    general = min_error_simulation(qubit, target, "NS")
    reduced = min_error_noiseless(2, target, "NS")
    assert general > 1e-3
    assert abs(general - reduced) <= 1e-6


# ---------------------------------------------------------------------------
# Noiseless-resource program


def test_identity_is_simulated_exactly_at_full_size():
    for d in (2, 3):
        assert min_error_noiseless(d, make_channel("identity", d=d), "NS") <= 1e-7


def test_m_equals_d_simulates_depolarizing_exactly():
    # tr V for D_0.15 is 3.55 <= 4, so a noiseless qubit already suffices.
    assert min_error_noiseless(2, depol(0.15), "NS") <= 1e-7


def test_constant_channel_needs_no_communication():
    assert min_error_noiseless(1, depol(1.0), "NS") <= 1e-7
    assert min_error_noiseless(1, depol(1.0), "NS_PPT") <= 1e-7


def test_single_letter_cannot_reproduce_dephasing():
    err = min_error_noiseless(1, make_channel("dephasing", p=0.3), "NS")
    assert err > 0.05
    assert min_error_noiseless(2, make_channel("dephasing", p=0.3), "NS") <= 1e-7


def test_noiseless_size_is_validated():
    with pytest.raises(ValueError):
        min_error_noiseless(0, depol(0.2))
    with pytest.raises(ValueError):
        min_error_noiseless(-3, depol(0.2))


# ---------------------------------------------------------------------------
# Zero-error cost and max-information


def test_depolarizing_zero_error_value():
    res = zero_error_cost(depol(0.3))
    assert abs(res.tr_v_opt - 3.1) <= 1e-6
    assert res.m_star == 2


def test_one_shot_example_depolarizing():
    res = one_shot_cost_ns(depol(0.15), 0.0)
    assert abs(res.tr_v_opt - 3.55) <= 1e-6
    assert res.m_star == 2
    assert res.cost_bits == 1.0
    assert abs(res.delta - (1.0 - 0.5 * math.log2(3.55))) <= 1e-6


def test_one_shot_example_dephasing():
    res = one_shot_cost_ns(make_channel("dephasing", p=0.5), 0.0)
    assert abs(res.tr_v_opt - 2.0) <= 1e-6
    assert res.m_star == 2
    assert res.cost_bits == 1.0
    assert abs(res.delta - 0.5) <= 1e-6


def test_amplitude_damping_zero_error_value():
    # tr V = 2(1 + sqrt(1-r)) - r.
    r = 0.36
    res = zero_error_cost(make_channel("amplitude_damping", r=r))
    expected = 2.0 * (1.0 + math.sqrt(1.0 - r)) - r
    assert abs(res.tr_v_opt - expected) <= 1e-6


def test_erasure_zero_error_value():
    # tr V = d^2 (1-p) + p.
    for d, p in ((2, 0.3), (3, 0.5)):
        res = zero_error_cost(make_channel("erasure", d=d, p=p))
        assert abs(res.tr_v_opt - (d * d * (1.0 - p) + p)) <= 1e-6


_FIGURE3_FAMILIES = {
    "depolarizing": lambda p: make_channel("depolarizing", d=2, p=p),
    "amplitude_damping": lambda r: make_channel("amplitude_damping", r=r),
    "dephasing": lambda p: make_channel("dephasing", p=p),
    "erasure": lambda p: make_channel("erasure", d=2, p=p),
}


@pytest.mark.parametrize("family", sorted(_FIGURE3_FAMILIES))
def test_zero_error_costs_match_single_solves(family, monkeypatch):
    channels = [_FIGURE3_FAMILIES[family](i / 20) for i in range(21)]
    if family == "erasure":
        # The 2 -> 3 family: a random complex channel of the same shape
        # joins the list, and solves in a group of its own.
        channels.insert(7, random_channel(np.random.default_rng(21), 2, 3, 2))
        assert not np.allclose(channels[7].choi.imag, 0.0)
    # The batch states and builds the program once per data kind (real or
    # complex blocks); every other channel reuses that build, with J_N as
    # its objective.
    builds, stated = [], []
    build_ = nscost.conic.HermitianProgram.build
    monkeypatch.setattr(nscost.conic.HermitianProgram, "build",
                        lambda hp: builds.append(hp) or build_(hp))
    program_ = nscost.programs._zero_error_program
    monkeypatch.setattr(nscost.programs, "_zero_error_program",
                        lambda n: stated.append(n) or program_(n))
    batch = zero_error_costs(channels)
    first = [0, 7] if family == "erasure" else [0]  # the first channel of each kind
    assert len(builds) == len(first)
    assert [id(n) for n in stated] == [id(channels[i]) for i in first]
    assert len(batch) == len(channels)
    for channel, got in zip(channels, batch):
        want = zero_error_cost(channel)
        for name in ("tr_v_opt", "half_log_trv"):
            assert np.float64(getattr(got, name)).tobytes() == (
                np.float64(getattr(want, name)).tobytes()), name
        assert got.m_star == want.m_star


def test_zero_error_costs_need_one_shape():
    with pytest.raises(ValueError, match="dimensions differ"):
        zero_error_costs([depol(0.1), make_channel("erasure", d=2, p=0.1)])
    assert zero_error_costs([]) == []


def test_max_information_reference_points():
    assert abs(max_information(make_channel("identity", d=2)) - 2.0) <= 1e-7
    const = make_channel("constant", sigma=np.eye(2) / 2, dim_in=2)
    assert abs(max_information(const)) <= 1e-7
    for d, p in ((2, 0.4), (3, 0.25)):
        got = max_information(depol(p, d))
        assert abs(got - math.log2(d * d * (1.0 - p) + p)) <= 1e-6


def test_zero_eps_routes_match():
    a = one_shot_cost_ns(depol(0.15), 0.0)
    b = zero_error_cost(depol(0.15))
    assert abs(a.tr_v_opt - b.tr_v_opt) <= 1e-9
    assert a.m_star == b.m_star


# ---------------------------------------------------------------------------
# Smoothing


def test_smooth_max_information_sandwich():
    val = smooth_max_information(depol(0.15), 5e-2)
    assert 2 * 0.657 <= val <= math.log2(3.55) + 1e-9


def test_smooth_max_information_monotone_in_eps():
    n = depol(0.15)
    vals = [smooth_max_information(n, e) for e in (5e-4, 5e-3, 5e-2)]
    assert vals[0] >= vals[1] - 1e-7
    assert vals[1] >= vals[2] - 1e-7
    assert vals[0] <= max_information(n) + 1e-7


def test_smoothing_with_room_to_spare_reaches_constant():
    # At eps above the distance to the best constant channel, tr V drops to 1.
    n = depol(0.9)
    err = min_error_noiseless(1, n, "NS")
    val = smooth_max_information(n, min(1.0, err + 0.05))
    assert val <= 0.07


def test_robustness_values():
    assert abs(robustness(make_channel("identity", d=2), 0.0) - 3.0) <= 1e-6
    assert abs(robustness(depol(0.15), 0.0) - 2.55) <= 1e-6
    const = make_channel("constant", sigma=np.eye(2) / 2, dim_in=2)
    assert abs(robustness(const, 0.0)) <= 1e-6


def test_eps_is_validated():
    with pytest.raises(ValueError):
        one_shot_cost_ns(depol(0.2), -0.01)
    with pytest.raises(ValueError):
        smooth_max_information(depol(0.2), 1.5)


# ---------------------------------------------------------------------------
# One-shot costs and orderings


def test_one_shot_cost_at_moderate_eps():
    res = one_shot_cost_ns(depol(0.15), 5e-2)
    assert res.tr_v_opt <= 3.55 + 1e-6
    assert res.tr_v_opt >= 1.0 - 1e-9
    assert res.m_star == 2


def test_ppt_cost_at_least_ns_cost():
    for n, eps in ((depol(0.15), 0.0), (make_channel("dephasing", p=0.3), 0.01)):
        ns = one_shot_cost_ns(n, eps)
        ppt = one_shot_cost_ns_ppt(n, eps)
        assert ppt.cost_bits >= ns.cost_bits - 1e-9
        assert ppt.delta == 0.0
        assert ppt.m_star ** 2 == ppt.tr_v_opt


def test_ppt_search_picks_one_for_constant_channel():
    res = one_shot_cost_ns_ppt(depol(1.0), 0.0)
    assert res.m_star == 1
    assert res.cost_bits == 0.0


@pytest.mark.parametrize(
    "channel, eps, solved, m_star",
    [
        (depol(0.15), 0.0, [], 2),
        (depol(0.15, d=3), 0.0, [], 3),
        (depol(0.3, d=3), 0.4, [2], 2),
        (random_channel(np.random.default_rng(0), 3, 2, 2), 0.5, [1], 2),
        (make_channel("erasure", d=2, p=0.3), 0.5, [1], 2),
    ],
    ids=["qubit", "qutrit", "qutrit-open", "3to2", "2to3"],
)
def test_ppt_search_never_solves_m_equal_to_dim_in(monkeypatch, channel, eps, solved,
                                                   m_star):
    # No m >= min(d_in, d_out) is solved, nor any m the converse rules out:
    # at eps = 0 it rules out m = 1 on both depolarizing channels and m = 2
    # on the qutrit one. The 3 -> 2 and 2 -> 3 channels fail at m = 1 and
    # end at the cap, 2, unsolved.
    sizes = []

    def counting(m, *args, **kw):
        sizes.append(m)
        return min_error_noiseless(m, *args, **kw)

    monkeypatch.setattr(nscost.programs, "min_error_noiseless", counting)
    res = one_shot_cost_ns_ppt(channel, eps)
    assert sizes == solved
    assert res.m_star == m_star


_FLOOR = nscost.programs._noiseless_error_floor
_FLOOR_RNG = np.random.default_rng(28)
_FLOOR_CHANNELS = {
    "depolarizing-2": depol(0.3),
    "depolarizing-3": depol(0.3, d=3),
    "amplitude-damping": make_channel("amplitude_damping", r=0.3),
    "dephasing": make_channel("dephasing", p=0.2),
    "erasure-2": make_channel("erasure", d=2, p=0.3),
    "erasure-3": make_channel("erasure", d=3, p=0.4),
    "identity-3": make_channel("identity", d=3),
    **{f"random-{a}to{b}-{i}": random_channel(_FLOOR_RNG, a, b, k)
       for i, (a, b, k) in enumerate([(2, 2, 2), (3, 2, 2), (3, 2, 3), (2, 3, 1),
                                      (3, 3, 1), (3, 3, 2)])},
}


@pytest.mark.parametrize("name", list(_FLOOR_CHANNELS))
def test_noiseless_error_floor_is_below_the_solved_error(name):
    channel = _FLOOR_CHANNELS[name]
    ms = list(range(1, channel.dim_in))
    floors = _FLOOR(channel, ms)
    assert np.all(np.diff(floors) < 0)
    for m, floor in zip(ms, floors):
        for code in ("NS", "NS_PPT"):
            err = min_error_noiseless(m, channel, code)
            assert floor <= err + 1e-7, (m, code)
            if name.startswith("depolarizing"):
                # There the converse is tight: (d(1 - p) + p/d - m^2/d) / d.
                assert abs(floor - err) <= 1e-6, (m, code)


def _ppt_search_solving_every_m(errors, d_in, eps):
    """m*, as the search read it when it solved m = 1..d_in - 1 in turn."""
    return next((m for m, err in enumerate(errors, 1) if err <= eps + 1e-7), d_in)


@pytest.mark.parametrize("name", ["depolarizing-2", "depolarizing-3", "amplitude-damping",
                                  "erasure-3", "random-3to2-1", "random-2to3-3",
                                  "random-3to3-5"])
def test_ppt_search_matches_a_search_that_solves_every_m(name):
    channel = _FLOOR_CHANNELS[name]
    ms = list(range(1, channel.dim_in))
    errors = [min_error_noiseless(m, channel, "NS_PPT") for m in ms]
    floors = _FLOOR(channel, ms).tolist()
    grid = [0.0, 0.05, 0.3, 0.6, 0.9]
    grid += [min(max(f + step, 0.0), 1.0) for f in floors for step in (-1e-6, 0.0, 1e-6)]
    for eps in grid:
        want = _ppt_search_solving_every_m(errors, channel.dim_in, eps)
        assert one_shot_cost_ns_ppt(channel, eps).m_star == want, eps


@pytest.mark.parametrize(
    "channel, eps, m_star",
    [
        # The cap: min(d_in, d_out) = 1.
        (QuantumChannel(1, 2, np.diag([0.7, 0.3])), 0.0, 1),
        # The converse at m = 1 is 0.525 > 0.05, and m = 2 is the cap.
        (depol(0.3), 0.05, 2),
    ],
    ids=["one-input", "converse"],
)
def test_ppt_search_that_solves_nothing_checks_options_and_dumps(tmp_path, monkeypatch,
                                                                 channel, eps, m_star):
    def no_solve(*args, **kw):
        raise AssertionError("no solve expected")

    want = tmp_path / "want.json"
    nscost.conic.dump_problem(
        nscost.programs._noiseless_program(1, channel, "NS_PPT").build(), str(want))
    monkeypatch.setattr(nscost.programs, "min_error_noiseless", no_solve)
    path = tmp_path / "problem.json"
    assert one_shot_cost_ns_ppt(channel, eps, dump_path=str(path)).m_star == m_star
    # The m = 1 program is dumped unsolved, and the options are still checked.
    assert path.read_bytes() == want.read_bytes()
    with pytest.raises(TypeError, match="bogus_tol"):
        one_shot_cost_ns_ppt(channel, eps, bogus_tol=1e-9)
    with pytest.raises(ValueError, match="gap_tol"):
        one_shot_cost_ns_ppt(channel, eps, gap_tol=-1.0)


@pytest.mark.parametrize(
    "channel, m",
    [(depol(1.0), 1), (depol(0.15), 2), (make_channel("identity", d=3), 3)],
    ids=["constant", "qubit", "qutrit-identity"],
)
def test_ppt_cost_is_the_cost_of_m_squared(channel, m):
    # The search's m goes through cost_result_from_trv with log2 tr V =
    # 2 log2 m, which gives every field exactly as written out here.
    res = one_shot_cost_ns_ppt(channel, 0.0)
    want = nscost.programs.CostResult(tr_v_opt=float(m * m), half_log_trv=math.log2(m),
                                      m_star=m, cost_bits=math.log2(m), delta=0.0)
    for name in ("tr_v_opt", "half_log_trv", "cost_bits", "delta"):
        assert np.float64(getattr(res, name)).tobytes() == (
            np.float64(getattr(want, name)).tobytes()), name
    assert type(res.m_star) is int and res.m_star == m


def test_a_channel_onto_one_dimension_costs_nothing():
    # The trace 2 -> 1: V and the simulating channel J~ have no free
    # parameters (d_B = 1). Their empty bases once shared a parameter index
    # with the next variable, and these calls raised a broadcast error or
    # "constraint 0 has no coefficients".
    trace = QuantumChannel(2, 1, np.eye(2))
    assert abs(min_error_noiseless(1, trace, "NS_PPT")) <= 1e-7
    assert one_shot_cost_ns_ppt(trace, 0.1).m_star == 1
    assert abs(one_shot_cost_ns(trace, 0.1).tr_v_opt - 1.0) <= 1e-6


def test_data_processing_reduces_cost():
    rng = np.random.default_rng(37)
    n = make_channel("dephasing", p=0.1)
    base = one_shot_cost_ns(n, 5e-2)
    for _ in range(2):
        post = random_channel(rng, 2, 2, 2)
        degraded = compose_channels(post, n)
        res = one_shot_cost_ns(degraded, 5e-2)
        assert res.tr_v_opt <= base.tr_v_opt + 1e-6


def test_cost_equals_half_smoothed_information():
    for n, eps in ((depol(0.15), 5e-2), (make_channel("dephasing", p=0.3), 5e-3)):
        res = one_shot_cost_ns(n, eps)
        info = smooth_max_information(n, eps)
        assert abs(res.half_log_trv - 0.5 * info) <= 1e-9
        target = res.tr_v_opt - 1e-6
        m = math.isqrt(math.ceil(target)) if target > 1 else 1
        if m * m < target:
            m += 1
        assert res.m_star == max(m, 1)
        assert res.delta == res.cost_bits - res.half_log_trv


def test_additivity_of_max_information():
    rng = np.random.default_rng(101)
    from nscost.qmat import tensor_channels

    for _ in range(3):
        n1 = random_channel(rng, 2, 2, 2)
        n2 = random_channel(rng, 2, 2, 3)
        joint = max_information(tensor_channels(n1, n2))
        split = max_information(n1) + max_information(n2)
        assert abs(joint - split) <= 1e-5


# ---------------------------------------------------------------------------
# Choi composition


def product_code(e, d):
    """Code Choi for independently applying e before and d after the resource."""
    dims_in = [e.dim_in, e.dim_out, d.dim_in, d.dim_out]
    j = kron(e.choi, d.choi)
    return subsystem_permute(j, dims_in, [0, 2, 1, 3]), {
        "A_i": e.dim_in,
        "A_o": e.dim_out,
        "B_i": d.dim_in,
        "B_o": d.dim_out,
    }


def test_choi_compose_identity_wiring():
    rng = np.random.default_rng(5)
    n = random_channel(rng, 2, 2, 2)
    ident = make_channel("identity", d=2)
    j_pi, dims = product_code(ident, ident)
    composed = choi_compose(n.choi, j_pi, dims)
    assert np.max(np.abs(composed - n.choi)) <= 1e-12


def test_choi_compose_random_product_codes():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        d_ai, d_ao, d_bi, d_bo = rng.integers(2, 4, size=4)
        e = random_channel(rng, int(d_ai), int(d_ao), 2)
        n = random_channel(rng, int(d_ao), int(d_bi), 2)
        d = random_channel(rng, int(d_bi), int(d_bo), 2)
        j_pi, dims = product_code(e, d)
        composed = choi_compose(n.choi, j_pi, dims)
        direct = compose_channels(d, compose_channels(n, e)).choi
        assert np.max(np.abs(composed - direct)) <= 1e-10, f"trial {trial}"


def test_choi_compose_maps_a_stack_like_each_matrix():
    # min_error_simulation maps the code variable's stack of basis elements
    # through choi_compose in one call.
    rng = np.random.default_rng(11)
    n = random_channel(rng, 2, 2, 2)
    dims = {"A_i": 2, "B_i": 2, "A_o": 2, "B_o": 2}
    stack = rng.standard_normal((5, 16, 16)) + 1j * rng.standard_normal((5, 16, 16))
    composed = choi_compose(n.choi, stack, dims)
    assert composed.shape == (5, 4, 4)
    for j_pi, got in zip(stack, composed):
        assert got.tobytes() == choi_compose(n.choi, j_pi, dims).tobytes()


def test_choi_compose_validates_inputs():
    n = depol(0.2)
    ident = make_channel("identity", d=2)
    j_pi, dims = product_code(ident, ident)
    with pytest.raises(ValueError):
        choi_compose(n.choi, j_pi, {"A_i": 2, "B_i": 2, "A_o": 2})
    with pytest.raises(ValueError):
        choi_compose(np.eye(3), j_pi, dims)
    with pytest.raises(ValueError):
        choi_compose(n.choi, np.eye(8), dims)
    with pytest.raises(ValueError, match="code Choi shape"):
        choi_compose(n.choi, np.ones(16), dims)
    with pytest.raises(ValueError, match="code Choi shape"):
        choi_compose(n.choi, np.ones((3, 16, 8)), dims)


# ---------------------------------------------------------------------------
# Certificates


def depol_certificate(p):
    v = (2.0 * (1.0 - p) + p / 2.0) * np.eye(2, dtype=complex)
    x = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            x[i * 2 + i, j * 2 + j] = 1.0
    return CertificatePair(primal_v=v, dual_x=x)


def test_depolarizing_certificate_confirms():
    cert = depol_certificate(0.3)
    check = verify_certificate(depol(0.3), cert)
    assert check.status == "optimal_confirmed"
    assert check.gap <= 1e-9
    assert abs(float(np.trace(cert.primal_v).real) - 3.1) <= 1e-12


def test_shrunk_primal_becomes_infeasible():
    cert = depol_certificate(0.3)
    bad = CertificatePair(primal_v=0.9 * cert.primal_v, dual_x=cert.dual_x)
    check = verify_certificate(depol(0.3), bad)
    assert check.status == "dual_only"


def test_inflated_dual_becomes_infeasible():
    cert = depol_certificate(0.3)
    bad = CertificatePair(primal_v=cert.primal_v, dual_x=1.1 * cert.dual_x)
    check = verify_certificate(depol(0.3), bad)
    assert check.status == "primal_only"


def test_feasible_pair_with_open_gap():
    cert = depol_certificate(0.3)
    loose = CertificatePair(primal_v=cert.primal_v, dual_x=0.9 * cert.dual_x)
    check = verify_certificate(depol(0.3), loose)
    assert check.status == "gap_open"
    assert check.gap > 1e-3


def test_nothing_feasible():
    cert = depol_certificate(0.3)
    bad = CertificatePair(primal_v=0.5 * cert.primal_v, dual_x=2.0 * cert.dual_x)
    assert verify_certificate(depol(0.3), bad).status == "infeasible"


def test_certificate_shapes_validated():
    cert = depol_certificate(0.3)
    with pytest.raises(ValueError):
        verify_certificate(depol(0.3), CertificatePair(np.eye(3), cert.dual_x))
    with pytest.raises(ValueError):
        verify_certificate(depol(0.3), CertificatePair(cert.primal_v, np.eye(3)))


# ---------------------------------------------------------------------------
# Real and complex blocks of the same program


@pytest.mark.parametrize(
    "family, params",
    [
        ("depolarizing", {"d": 2, "p": 0.15}),
        ("amplitude_damping", {"r": 0.3}),
        ("dephasing", {"p": 0.2}),
        ("erasure", {"d": 2, "p": 0.3}),
        ("depolarizing", {"d": 3, "p": 0.15}),
        ("erasure", {"d": 3, "p": 0.3}),
    ],
    ids=["depolarizing", "amplitude-damping", "dephasing", "erasure",
         "qutrit-depolarizing", "qutrit-erasure"],
)
def test_zero_error_solve_is_a_certificate(family, params):
    # The zero-error program is built as its Lagrange dual, so one solve
    # holds both halves of a weak-duality certificate: V from the
    # multipliers, X from the one primal block.
    channel = make_channel(family, **params)
    hp, v = nscost.programs._zero_error_program(channel)
    sol = solve(hp.build(), gap_tol=1e-10, feas_tol=1e-10)
    assert sol.status == "optimal" and len(sol.primal_blocks) == 1
    pair = CertificatePair(primal_v=hp.extract(sol, v), dual_x=sol.primal_blocks[0])
    check = verify_certificate(channel, pair)
    assert check.status == "optimal_confirmed", check


def test_programs_have_one_row_per_real_parameter(monkeypatch):
    # Real data drop the imaginary parameters, so a free Hermitian variable
    # on C^n has sym(n) rows, and one with tr_B J = 1_A on A (x) B has
    # sym(d_A d_B) - sym(d_A). No program adds an equality row of its own.
    def sym(n):
        return n * (n + 1) // 2

    shapes = []
    solve_ = nscost.programs.solve

    def recording_solve(problem, **kw):
        sizes = [b.size for b in problem.blocks if b.kind == "sdp"]
        shapes.append((len(problem.constraints), sizes))
        return solve_(problem, **kw)

    monkeypatch.setattr(nscost.programs, "solve", recording_solve)

    def rows(run):
        shapes.clear()
        run()
        return [m for m, _ in shapes]

    two_uses = tensor_channels(depol(0.15), depol(0.15))
    zero_error_cost(depol(0.15))
    assert shapes == [(3, [4])]  # V on a qubit
    assert rows(lambda: zero_error_cost(two_uses)) == [sym(4)]
    # Y, J~ and V.
    assert rows(lambda: one_shot_cost_ns(depol(0.15), 0.05)) == [
        sym(4) + sym(4) - sym(2) + sym(2)
    ] == [20]
    assert rows(lambda: one_shot_cost_ns(two_uses, 0.05)) == [
        sym(16) + sym(16) - sym(4) + sym(4)
    ] == [272]
    # gamma, Y, J~, and V with tr V = m^2.
    assert rows(lambda: min_error_noiseless(2, depol(0.15, d=3), "NS_PPT")) == [
        1 + sym(9) + sym(9) - sym(3) + sym(3) - 1
    ] == [90]
    # gamma, Y, and the 88 real parameters of the qubit NS code space; the
    # PPT condition adds an LMI but no parameter.
    resource = make_channel("amplitude_damping", r=0.2)
    ns = rows(lambda: min_error_simulation(resource, depol(0.3), "NS"))
    ns_ppt = rows(lambda: min_error_simulation(resource, depol(0.3), "NS_PPT"))
    assert ns == ns_ppt == [1 + sym(4) + 88]


def _built(run, monkeypatch) -> list:
    """The HermitianPrograms that `run` builds, each with its problem."""
    built = []
    build_ = nscost.conic.HermitianProgram.build
    monkeypatch.setattr(nscost.conic.HermitianProgram, "build",
                        lambda hp: built.append((hp, build_(hp))) or built[-1][1])
    run()
    monkeypatch.setattr(nscost.conic.HermitianProgram, "build", build_)
    return built


def _map_per_element(self, fn, *args):
    """Affine.map as a loop: fn on the offset and on each B_k alone."""
    return nscost.conic.Affine(
        fn(self.offset, *args),
        {s: np.stack([fn(b, *args) for b in st]) for s, st in self.terms.items()},
    )


def _bits(hp, problem) -> list:
    """Everything a build hands the solver, as (dtype, shape, bytes)."""
    arrays = [*problem.objective, *(stack for _, _, stack in problem._groups),
              *problem._given, problem._rhs, hp._kept]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


_AD = make_channel("amplitude_damping", r=0.2)
_PROGRAMS = {
    "two-use-eps-cost": lambda: one_shot_cost_ns(tensor_channels(depol(0.15), depol(0.15)), 0.05),
    "min-error-ns": lambda: min_error_simulation(_AD, depol(0.3), "NS"),
    "min-error-ns-ppt": lambda: min_error_simulation(_AD, depol(0.3), "NS_PPT"),
    "noiseless-ns-ppt": lambda: min_error_noiseless(2, depol(0.15, d=3), "NS_PPT"),
    "zero-error-complex": lambda: zero_error_cost(
        random_channel(np.random.default_rng(5), 2, 3, 2)),
    "classical-lp": lambda: classical_cost_lp(np.array([[0.7, 0.2, 0.1], [0.1, 0.5, 0.4]]), 0.05),
}


@pytest.mark.parametrize("name", sorted(_PROGRAMS))
def test_stack_maps_build_the_per_element_problem_bitwise(name, monkeypatch):
    # Affine.map calls its map once per variable's stack; stating the same
    # program with the map applied to each basis element alone builds the
    # same problem, bit for bit.
    stacked = _built(_PROGRAMS[name], monkeypatch)
    monkeypatch.setattr(nscost.conic.Affine, "map", _map_per_element)
    per_element = _built(_PROGRAMS[name], monkeypatch)
    assert len(stacked) == len(per_element) >= 1
    for (hp, problem), (hp_loop, problem_loop) in zip(stacked, per_element):
        assert problem.blocks == problem_loop.blocks
        assert _bits(hp, problem) == _bits(hp_loop, problem_loop)


def test_two_use_eps_cost_build_peaks_below_three_times_what_it_keeps(monkeypatch):
    # The build tests and stores each variable's stack in place: no copy of
    # an LMI's data as one complex stack. The peak was 4.4 times the group
    # stacks (10.0 MB for 2.26 MB) when it made one.
    ((hp, _),) = _built(_PROGRAMS["two-use-eps-cost"], monkeypatch)
    tracemalloc.start()
    try:
        problem = hp.build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(stack.nbytes for _, _, stack in problem._groups)
    assert kept > 2e6
    assert peak <= 3 * kept, (peak, kept)


def test_bases_are_kept_read_only_up_to_one_mebibyte():
    # A full basis of 16 x 16 matrices (1 MiB) is built once; a bigger one
    # is built per call, so the process does not hold it after its program.
    small = nscost.programs._basis_stack(hermitian_basis, 16)
    assert small.nbytes == 2**20 and small is nscost.programs._basis_stack(hermitian_basis, 16)
    big = [nscost.programs._product_basis((3, 3, 2), ()) for _ in range(2)]
    assert big[0].nbytes > 2**20 and big[0] is not big[1]
    assert big[0].tobytes() == big[1].tobytes()
    assert not any(a.flags.writeable for a in (small, *big))
    # The lifts 1_A (x) B_k of the zero-error program follow the same rule.
    lifted = nscost.programs._lifted_basis
    small = lifted(4, 8)  # 64 complex 32 x 32 matrices
    assert small.nbytes == 2**20 and small is lifted(4, 8)
    big = [lifted(5, 8) for _ in range(2)]
    assert big[0].nbytes > 2**20 and big[0] is not big[1]
    assert big[0].tobytes() == big[1].tobytes()
    assert not any(a.flags.writeable for a in (small, *big))


@pytest.mark.parametrize(
    "channel",
    [make_channel("amplitude_damping", r=0.3), depol(0.3, d=3)],
    ids=["amplitude-damping", "qutrit-depolarizing"],
)
def test_complex_rotation_agrees_with_real_form(channel, monkeypatch):
    # J' = (1 (x) U) J (1 (x) U)^dag for a fixed complex unitary U is the
    # channel followed by U, so every value below is unchanged. J is real and
    # solves over real n x n blocks; J' is complex and solves over complex
    # Hermitian blocks of the same order.
    d = channel.dim_out
    g = np.arange(d * d).reshape(d, d) + 1j * np.cos(np.arange(d * d)).reshape(d, d)
    u = np.linalg.qr(g)[0]
    lift_u = np.kron(np.eye(channel.dim_in), u)

    def rotate(ch):
        return QuantumChannel(ch.dim_in, ch.dim_out, lift_u @ ch.choi @ lift_u.conj().T)

    def values(ch, identity):
        return [
            zero_error_cost(ch).tr_v_opt,
            one_shot_cost_ns(ch, 0.05).tr_v_opt,
            min_error_noiseless(2, ch, "NS_PPT"),
            diamond_norm_dist(ch, identity),
        ]

    psd_orders = []
    solve = nscost.programs.solve

    def recording_solve(problem, **kw):
        psd_orders.append(
            (
                sum(b.size for b in problem.blocks if b.kind == "sdp"),
                any(np.iscomplexobj(c) for c in problem.constraints[0].coeffs),
            )
        )
        return solve(problem, **kw)

    monkeypatch.setattr(nscost.programs, "solve", recording_solve)
    identity = make_channel("identity", d=d)
    plain = values(channel, identity)
    plain_orders, psd_orders[:] = psd_orders[:], []
    rotated = values(rotate(channel), rotate(identity))
    assert all(not is_complex for _, is_complex in plain_orders)
    assert psd_orders == [(order, True) for order, _ in plain_orders]
    assert np.allclose(rotated, plain, rtol=0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# Solver options

_CLASSICAL = np.array([[0.9, 0.1], [0.2, 0.8]])
# Every public entry point that runs a conic program, by name.
_ENTRY_POINTS = {
    "diamond_norm_dist": lambda **kw: diamond_norm_dist(depol(0.3), depol(0.1), **kw),
    "min_error_simulation": lambda **kw: min_error_simulation(
        depol(0.1), depol(0.3), **kw
    ),
    "min_error_noiseless": lambda **kw: min_error_noiseless(2, depol(0.3), **kw),
    "one_shot_cost_ns": lambda **kw: one_shot_cost_ns(depol(0.3), 0.05, **kw),
    # At eps = 0.6 the NS+PPT search solves m = 1: its converse bound is 0.525.
    "one_shot_cost_ns_ppt": lambda **kw: one_shot_cost_ns_ppt(depol(0.3), 0.6, **kw),
    "zero_error_cost": lambda **kw: zero_error_cost(depol(0.3), **kw),
    "zero_error_costs": lambda **kw: zero_error_costs([depol(0.3), depol(0.1)], **kw),
    "max_information": lambda **kw: max_information(depol(0.3), **kw),
    "smooth_max_information": lambda **kw: smooth_max_information(
        depol(0.3), 0.05, **kw
    ),
    "robustness": lambda **kw: robustness(depol(0.3), 0.05, **kw),
    "classical_cost_lp": lambda **kw: classical_cost_lp(_CLASSICAL, 0.05, **kw),
}


def test_unknown_solver_options_raise_type_error():
    for call in _ENTRY_POINTS.values():
        with pytest.raises(TypeError, match="bogus_tol"):
            call(bogus_tol=1e-9)
    # Neither the classical cost at eps = 0, a closed form, nor the NS+PPT
    # search that its bounds decide runs a solve.
    with pytest.raises(TypeError, match="bogus_tol"):
        classical_cost_lp(_CLASSICAL, 0.0, bogus_tol=1e-9)
    with pytest.raises(TypeError, match="bogus_tol"):
        one_shot_cost_ns_ppt(depol(0.3), 0.05, bogus_tol=1e-9)


def test_solver_options_reach_solve_unchanged(tmp_path, monkeypatch):
    calls = []

    def recorder(solve_):
        def recording_solve(problem, **kw):
            calls.append(kw)
            return solve_(problem, **kw)

        return recording_solve

    def batch_recorder(solve_many_):
        def recording_solve_many(problems, **kw):
            calls.append(kw)
            return solve_many_(problems, **kw)

        return recording_solve_many

    monkeypatch.setattr(nscost.programs, "solve", recorder(nscost.programs.solve))
    monkeypatch.setattr(nscost.symmetry, "solve", recorder(nscost.symmetry.solve))
    monkeypatch.setattr(
        nscost.programs, "solve_many", batch_recorder(nscost.programs.solve_many)
    )
    options = {"gap_tol": 1e-9, "feas_tol": 1e-9, "max_iter": 150}
    for name, call in _ENTRY_POINTS.items():
        calls.clear()
        dump = tmp_path / f"{name}.json"
        call(dump_path=str(dump), **options)
        assert calls and all(kw == options for kw in calls), name
        assert problem_from_json(json.loads(dump.read_text())).constraints, name


# ---------------------------------------------------------------------------
# Failure reporting and problem dumps


def test_iteration_cap_raises_with_status():
    with pytest.raises(SolverFailure) as info:
        zero_error_cost(depol(0.3), max_iter=1)
    assert info.value.status == "max_iter"


def test_dump_problem_roundtrip(tmp_path):
    path = tmp_path / "problem.json"
    one_shot_cost_ns(depol(0.3), 0.0, dump_path=str(path))
    problem = problem_from_json(json.loads(path.read_text()))
    assert problem.constraints
