"""Tests for the depolarizing waterfilling and the classical cost LP."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from nscost.programs import (
    diamond_norm_dist,
    max_information,
    one_shot_cost_ns,
    smooth_max_information,
    zero_error_cost,
)
from nscost.qmat import make_channel, tensor_channels
from nscost.symmetry import (
    classical_cost_lp,
    depolarizing_cost_lp,
    depolarizing_diamond_dist,
    depolarizing_mutual_info,
    depolarizing_sweep,
)

from oracles import classical_cost_linprog, waterfill_log2_trv, waterfill_log2_trv_mp


# ---------------------------------------------------------------------------
# Depolarizing cost LP


def test_single_use_example():
    res = depolarizing_cost_lp(1, 2, 0.15, 0.0)
    assert abs(res.tr_v_opt - 3.55) <= 1e-9
    assert res.m_star == 2
    assert res.cost_bits == 1.0


def test_two_uses_are_additive_at_zero_eps():
    res = depolarizing_cost_lp(2, 2, 0.15, 0.0)
    per_use = res.half_log_trv / 2
    assert abs(per_use - 0.5 * math.log2(3.55)) <= 1e-6


def test_agrees_with_waterfilling():
    for n in (1, 2, 3, 5, 8, 40, 148, 150, 216, 242, 300):
        for eps in (5e-4, 5e-2):
            res = depolarizing_cost_lp(n, 2, 0.15, eps)
            expected = waterfill_log2_trv(n, 2, 0.15, eps)
            assert abs(2 * res.half_log_trv - expected) <= 1e-6, (n, eps)


def test_agrees_with_waterfilling_other_parameters():
    for n, d, p, eps in (
        (10, 3, 0.3, 1e-2),
        (25, 2, 0.5, 0.1),
        (120, 2, 0.02, 1e-3),
        (50, 3, 0.8, 0.2),
    ):
        res = depolarizing_cost_lp(n, d, p, eps)
        expected = waterfill_log2_trv(n, d, p, eps)
        assert abs(2 * res.half_log_trv - expected) <= 1e-6, (n, d, p, eps)


def test_qutrit_sweep_is_warning_free_and_exact():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(1, 121):
            res = depolarizing_cost_lp(n, 3, 0.15, 0.003)
            expected = waterfill_log2_trv(n, 3, 0.15, 0.003)
            assert abs(2 * res.half_log_trv - expected) <= 1e-6, n


def test_matches_full_sdp_single_use():
    for p in (0.1, 0.5):
        for eps in (0.0, 0.01):
            lp = depolarizing_cost_lp(1, 2, p, eps)
            sdp = one_shot_cost_ns(make_channel("depolarizing", d=2, p=p), eps)
            assert abs(lp.tr_v_opt - sdp.tr_v_opt) <= 1e-6, (p, eps)


def test_matches_full_sdp_two_uses():
    single = make_channel("depolarizing", d=2, p=0.15)
    pair = tensor_channels(single, single)
    for eps in (0.0, 0.01):
        lp = depolarizing_cost_lp(2, 2, 0.15, eps)
        sdp = one_shot_cost_ns(pair, eps)
        assert abs(lp.tr_v_opt - sdp.tr_v_opt) <= 1e-6, eps


def test_matches_full_sdp_noiseless_endpoint():
    # p = 0 leaves n identity channels; smoothing still buys a (1 - eps)
    # factor, which the waterfilling only sees through Bell states of value 0.
    lp = depolarizing_cost_lp(1, 2, 0.0, 0.01)
    sdp = one_shot_cost_ns(make_channel("depolarizing", d=2, p=0.0), 0.01)
    assert abs(lp.tr_v_opt - sdp.tr_v_opt) <= 1e-6
    assert abs(lp.tr_v_opt - 3.96) <= 1e-6


@pytest.mark.parametrize("d", [2, 3, 4])
def test_one_use_values_match_the_library_sdps(d):
    # The CLI prices the family by waterfilling alone; the SDPs stay the
    # reference, at the ends of both parameter ranges too.
    def close(sdp_trv, exact_trv):
        return abs(sdp_trv - exact_trv) <= 1e-7 * exact_trv

    for p in (0.0, 0.15, 0.5, 1.0):
        channel = make_channel("depolarizing", d=d, p=p)
        zero = depolarizing_cost_lp(1, d, p, 0.0).tr_v_opt
        assert abs(zero - (d * d * (1 - p) + p)) <= 1e-12 * zero
        assert close(zero_error_cost(channel).tr_v_opt, zero), p
        assert close(2.0 ** max_information(channel), zero), p
        for eps in (0.0, 1e-6, 0.05, 0.5, 1 - 1e-9):
            exact = depolarizing_cost_lp(1, d, p, eps).tr_v_opt
            assert close(one_shot_cost_ns(channel, eps).tr_v_opt, exact), (p, eps)
            assert close(2.0 ** smooth_max_information(channel, eps), exact), (p, eps)


@pytest.mark.parametrize("d", [2, 3])
def test_diamond_distance_matches_the_sdp(d):
    params = (0.0, 0.15, 0.5, 1.0)
    identity = make_channel("identity", d=d)
    for p_a in params:
        for p_b in params:
            first = identity if p_a == 0.0 else make_channel("depolarizing", d=d, p=p_a)
            second = make_channel("depolarizing", d=d, p=p_b)
            exact = depolarizing_diamond_dist(d, p_a, p_b)
            assert abs(exact - abs(p_a - p_b) * (1 - 1 / d**2)) <= 1e-15
            assert abs(diamond_norm_dist(first, second) - exact) <= 1e-7, (p_a, p_b)
    assert depolarizing_diamond_dist(d, 0.3, 0.3) == 0.0


def test_diamond_distance_validates_arguments():
    for d, p_a, p_b in ((1, 0.1, 0.2), (2.5, 0.1, 0.2), (2, -0.1, 0.2), (2, 0.1, 1.5)):
        with pytest.raises(ValueError):
            depolarizing_diamond_dist(d, p_a, p_b)


def test_endpoint_values():
    # At the floor d^-2n of the level (p = 1, or eps = 1, which may clip the
    # whole mass) tr V = 1 and log2 tr V = 0 exactly, with no rounding
    # residue; also at eps = 0, where 49 times the float 1/49 is below 1.
    for d, n in ((2, 7), (2, 150), (3, 1), (3, 40), (7, 30)):
        for p, eps in ((1.0, 0.3), (1.0, 0.01), (1.0, 0.0), (0.15, 1.0), (0.0, 1.0)):
            res = depolarizing_cost_lp(n, d, p, eps)
            assert (res.tr_v_opt, res.half_log_trv) == (1.0, 0.0), (d, n, p, eps)
    assert abs(depolarizing_cost_lp(4, 2, 0.0, 0.0).tr_v_opt - 2.0**8) <= 1e-9
    res = depolarizing_cost_lp(5, 2, 0.0, 0.01)
    assert abs(2 * res.half_log_trv - (10 + math.log2(0.99))) <= 1e-6


def test_per_use_cost_monotone_in_eps():
    for n in (1, 12, 80):
        values = [
            depolarizing_cost_lp(n, 2, 0.15, eps).half_log_trv / n
            for eps in (5e-4, 5e-3, 5e-2)
        ]
        assert values[0] >= values[1] >= values[2], n


def test_per_use_cost_bounded_by_capacity():
    q_e = depolarizing_mutual_info(2, 0.15) / 2
    for n in (1, 40, 300):
        res = depolarizing_cost_lp(n, 2, 0.15, 5e-2)
        assert res.half_log_trv / n >= q_e - 1e-6, n


def test_per_use_cost_decreasing_at_large_blocklength():
    values = [
        depolarizing_cost_lp(n, 2, 0.15, 5e-2).half_log_trv / n
        for n in (100, 200, 300)
    ]
    assert values[0] >= values[1] >= values[2]


def test_large_blocklength_m_star_is_exact():
    res = depolarizing_cost_lp(300, 2, 0.15, 0.0)
    assert res.tr_v_opt == 2.0 ** (300 * math.log2(2 * 1.775))
    assert res.m_star ** 2 >= res.tr_v_opt - 1e-6
    assert (res.m_star - 1) ** 2 < res.tr_v_opt - 1e-6
    assert 0.0 <= res.delta <= 1.0


def test_overflow_is_flagged():
    with pytest.raises(ValueError):
        depolarizing_cost_lp(300, 4, 0.0, 0.0)


def test_cost_lp_validates_arguments():
    with pytest.raises(ValueError):
        depolarizing_cost_lp(0, 2, 0.1, 0.0)
    with pytest.raises(ValueError):
        depolarizing_cost_lp(3, 2, 0.1, -0.2)
    with pytest.raises(ValueError):
        depolarizing_cost_lp(3, 2, 1.01, 0.0)


# ---------------------------------------------------------------------------
# Depolarizing sweep


def _assert_same_bits(got, want, where):
    for field in ("tr_v_opt", "half_log_trv", "cost_bits", "delta"):
        a, b = getattr(got, field), getattr(want, field)
        assert float(a).hex() == float(b).hex(), (*where, field)
    assert got.m_star == want.m_star, where


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sweep_is_the_per_point_lp_bitwise(d):
    # p = 0 gives every Bell state but the identity one value 0 and p = 1
    # gives all of them one value; eps = 0 takes the cap and eps = 1 the
    # floor d^-2n of the level. eps = 1e-100 clips a tiny head, 1 - 1e-15
    # nearly everything, and p = 1e-6 gives b near 0: there the padding of
    # the sweep's tables would leak into the level first. Every call also
    # checks that the masses sum to 1.
    eps_values = (0.0, 1e-100, 5e-4, 0.05, 0.3, 1 - 1e-15, 1.0)
    for p in (0.0, 1e-6, 0.15, 0.5, 1.0):
        rows = depolarizing_sweep(60, d, p, eps_values)
        assert len(rows) == 60
        for n, costs in enumerate(rows, 1):
            assert len(costs) == len(eps_values)
            for eps, got in zip(eps_values, costs):
                _assert_same_bits(got, depolarizing_cost_lp(n, d, p, eps), (n, p, eps))


def test_long_sweep_is_the_per_point_lp_across_chunks_in_little_memory():
    # At p = 0.999 the cap grows 0.0043 bits per use, so n = 2000 is in
    # range. The sweep splits it into many tables; an unchunked one would
    # need several hundred MB.
    eps_values = (5e-3, 0.5)
    tracemalloc.start()
    try:
        rows = depolarizing_sweep(2000, 2, 0.999, eps_values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 2000
    assert peak < 64e6, peak
    for n in sorted({1, *range(37, 2001, 37), 2000}):
        for eps, got in zip(eps_values, rows[n - 1]):
            _assert_same_bits(got, depolarizing_cost_lp(n, 2, 0.999, eps), (n, eps))


def test_figure2_sweep_matches_waterfilling_oracle():
    # The oracle sums in another order, so the two agree to rounding: at
    # most 4e-11 bits here, 1.0e-13 of log2 tr V.
    eps_values = (5e-4, 5e-3, 5e-2)
    rows = depolarizing_sweep(300, 2, 0.15, eps_values)
    for n, costs in enumerate(rows, 1):
        for eps, res in zip(eps_values, costs):
            want = waterfill_log2_trv(n, 2, 0.15, eps)
            assert abs(2 * res.half_log_trv - want) <= 1e-12 * max(1.0, want), (n, eps)


def test_figure2_sweep_m_star_is_exact():
    # (m - 1)^2 < tr V - 1e-6 <= m^2, compared exactly: Python compares an
    # int with a float without rounding either.
    for costs in depolarizing_sweep(300, 2, 0.15, (5e-4, 5e-3, 5e-2)):
        for res in costs:
            target = float(res.tr_v_opt) - 1e-6
            assert (res.m_star - 1) ** 2 < target <= res.m_star**2, res


def test_waterfilling_near_eps_one_matches_mpmath():
    # For eps near 1 the level keeps a mass of 1 - eps; the test that places
    # it must not be a difference of two numbers near 1.
    eps_values = (0.999999, 1 - 1e-14, 1 - 1e-15)
    rows = depolarizing_sweep(300, 2, 0.15, eps_values)
    for n in (104, 118, 123, 150, 200, 250, 300):
        got = [2 * res.half_log_trv for res in rows[n - 1]]
        for eps, value in zip(eps_values, got):
            want = waterfill_log2_trv_mp(n, 2, 0.15, eps)
            assert abs(value - want) <= 1e-9 * max(1.0, want), (n, eps, value, want)
        assert got[0] >= got[1] >= got[2], (n, got)


def test_waterfilling_near_eps_zero_matches_mpmath():
    # The mirror case: for eps far below the rounding of 1 the level clips
    # a small head, and the mass kept must not decide where it lies.
    eps_values = (1e-100, 1e-30, 1e-16)
    for d, p in ((2, 0.5), (2, 0.9), (3, 0.15)):
        rows = depolarizing_sweep(300, d, p, eps_values)
        for n in (40, 150, 300):
            got = [2 * res.half_log_trv for res in rows[n - 1]]
            for eps, value in zip(eps_values, got):
                want = waterfill_log2_trv_mp(n, d, p, eps)
                assert abs(value - want) <= 1e-9 * max(1.0, want), (d, p, n, eps)
            assert got[0] >= got[1] >= got[2], (d, p, n, got)


def test_sweep_overflows_at_the_first_blocklength_past_the_range():
    eps_values = (5e-4, 5e-3, 5e-2)
    assert len(depolarizing_sweep(269, 4, 0.15, eps_values)) == 269
    with pytest.raises(ValueError, match=r"can reach 1021\.0 bits"):
        depolarizing_sweep(300, 4, 0.15, eps_values)
    with pytest.raises(ValueError, match=r"can reach 1021\.0 bits"):
        depolarizing_cost_lp(270, 4, 0.15, 0.05)


def test_sweep_validates_arguments():
    for args in ((0, 2, 0.1, (0.1,)), (3, 1, 0.1, (0.1,)), (3, 2, 1.2, (0.1,)),
                 (3, 2, 0.1, (0.1, -0.2)), (3, 2, 0.1, (1.5,))):
        with pytest.raises(ValueError):
            depolarizing_sweep(*args)


# ---------------------------------------------------------------------------
# Classical channel LP


def test_randomizing_channel_is_free():
    mat = np.full((3, 4), 0.25)
    res = classical_cost_lp(mat, 0.0)
    assert abs(res.tr_v_opt - 1.0) <= 1e-9
    assert res.cost_bits == 0.0


def test_binary_identity_costs_one_bit():
    res = classical_cost_lp(np.eye(2), 0.0)
    assert abs(res.tr_v_opt - 2.0) <= 1e-9
    assert res.m_star == 2
    assert res.cost_bits == 1.0


def test_binary_symmetric_channel_value():
    mat = np.array([[0.8, 0.2], [0.2, 0.8]])
    assert abs(classical_cost_lp(mat, 0.0).tr_v_opt - 1.6) <= 1e-9


def test_classical_lp_matches_reference_solver():
    rng = np.random.default_rng(17)
    for trial in range(6):
        rows = int(rng.integers(2, 5))
        cols = int(rng.integers(2, 6))
        mat = rng.random((rows, cols))
        mat /= mat.sum(axis=1, keepdims=True)
        for eps in (0.0, 0.03, 0.2):
            mine = classical_cost_lp(mat, eps).tr_v_opt
            ref = classical_cost_linprog(mat, eps)
            assert abs(mine - ref) <= 1e-7, (trial, eps)


def test_classical_lp_without_simulator_matches_highs():
    # The LP over V and Y alone, against HiGHS on the program that keeps the
    # simulator Nt, on random channels of 2 to 16 inputs and outputs.
    rng = np.random.default_rng(29)
    for shape in ((2, 2), (3, 5), (5, 3), (8, 8), (4, 16), (16, 4), (16, 16)):
        mat = rng.random(shape)
        mat /= mat.sum(axis=1, keepdims=True)
        for eps in (0.01, 0.1, 0.3):
            mine = classical_cost_lp(mat, eps).tr_v_opt
            ref = classical_cost_linprog(mat, eps)
            assert abs(mine - ref) <= 1e-8 * ref, (shape, eps)


@pytest.mark.parametrize("n", [6, 8, 12])
def test_classical_lp_at_tight_tolerances_matches_highs(n):
    # Cubed uniform rows give peaked channels, whose Schur matrices are
    # badly conditioned in the last iterations.
    for seed in range(5):
        u = np.random.default_rng([seed, n]).random((n, n)) ** 3
        mat = u / u.sum(axis=1, keepdims=True)
        for eps in (0.01, 0.05, 0.2):
            # Any status but optimal raises SolverFailure.
            mine = classical_cost_lp(mat, eps, gap_tol=1e-10, feas_tol=1e-10).tr_v_opt
            ref = classical_cost_linprog(mat, eps)
            assert abs(mine - ref) <= 1e-8 * ref, (seed, eps)


def test_classical_lp_monotone_in_eps():
    mat = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]])
    vals = [classical_cost_lp(mat, e).tr_v_opt for e in (0.0, 0.05, 0.2)]
    assert vals[0] >= vals[1] >= vals[2]


def test_classical_lp_rejects_bad_input():
    with pytest.raises(ValueError):
        classical_cost_lp(np.array([[0.5, 0.6], [0.5, 0.4]]), 0.0)
    with pytest.raises(ValueError):
        classical_cost_lp(np.array([[1.2, -0.2], [0.5, 0.5]]), 0.0)
    with pytest.raises(ValueError):
        classical_cost_lp(np.ones(3), 0.0)
    with pytest.raises(ValueError):
        classical_cost_lp(np.eye(2), 1.5)
    # NaN passes the sign and row-sum tests, since every comparison with it
    # is false; it must not reach the solver.
    for bad in (math.nan, math.inf):
        for eps in (0.0, 0.05):
            with pytest.raises(ValueError, match="non-finite"):
                classical_cost_lp(np.array([[bad, 1.0], [0.5, 0.5]]), eps)


# ---------------------------------------------------------------------------
# Mutual information


def test_mutual_info_reference_values():
    assert abs(depolarizing_mutual_info(2, 0.0) - 2.0) <= 1e-12
    assert abs(depolarizing_mutual_info(2, 1.0)) <= 1e-12
    assert abs(depolarizing_mutual_info(2, 0.15) - 1.3143) <= 5e-5
    assert abs(depolarizing_mutual_info(2, 0.15) / 2 - 0.6571) <= 5e-5


def test_mutual_info_monotone_and_bounded():
    values = [depolarizing_mutual_info(3, p) for p in (0.0, 0.1, 0.4, 0.9, 1.0)]
    assert values[0] == pytest.approx(2 * math.log2(3))
    for a, b in zip(values, values[1:]):
        assert a >= b - 1e-12
    assert values[-1] == 0.0


def test_mutual_info_validates_arguments():
    with pytest.raises(ValueError):
        depolarizing_mutual_info(1, 0.3)
    with pytest.raises(ValueError):
        depolarizing_mutual_info(2, -0.1)
