import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from nscost import conic, programs, symmetry
from nscost.conic import (
    Block,
    ConicProblem,
    ConicSolution,
    Constraint,
    HermitianProgram,
    SolverFailure,
    problem_from_json,
    problem_to_json,
    solution_to_json,
    solve,
    solve_many,
)
from nscost.qmat import QuantumChannel, hermitian_basis, lift, make_channel


def random_problem(rng, with_ineq=True, complex=False):
    """Random strictly feasible problem with finite optimum.

    Primal interior point X0 and dual interior point (y0, S0) are drawn
    first; b and C are manufactured from them, so both sides are strictly
    feasible and strong duality holds. With `complex`, SDP data are complex
    Hermitian; the draws of the default real problems are unchanged.
    """
    blocks = []
    n_blocks = rng.integers(1, 4)
    for _ in range(n_blocks):
        if rng.random() < 0.6:
            blocks.append(Block("sdp", int(rng.integers(2, 7))))
        else:
            blocks.append(Block("lp", int(rng.integers(1, 6))))
    # Constraint rows must stay linearly independent, so never exceed the
    # cone's real degrees of freedom; Gaussian rows below that are a.s. fine.
    dof = sum(
        (b.size**2 if complex else b.size * (b.size + 1) // 2)
        if b.kind == "sdp"
        else b.size
        for b in blocks
    )
    m = int(rng.integers(1, min(15, dof) + 1))

    def random_square(n):
        g = rng.standard_normal((n, n))
        return g + 1j * rng.standard_normal((n, n)) if complex else g

    def random_entry(block):
        if block.kind == "sdp":
            g = random_square(block.size)
            return (g + g.conj().T) / 2
        return rng.standard_normal(block.size)

    def random_interior(block, floor):
        if block.kind == "sdp":
            g = random_square(block.size)
            return g @ g.conj().T + floor * np.eye(block.size)
        return rng.uniform(floor, floor + 1.0, block.size)

    constraints = []
    x0 = [random_interior(b, 0.5) for b in blocks]
    for i in range(m):
        coeffs = [random_entry(b) for b in blocks]
        val = sum(float(np.sum(c * x.conj()).real) for c, x in zip(coeffs, x0))
        if with_ineq and rng.random() < 0.4:
            constraints.append(
                Constraint(tuple(coeffs), val + float(rng.uniform(0.1, 1.0)), "le")
            )
        else:
            constraints.append(Constraint(tuple(coeffs), val, "eq"))

    y0 = rng.standard_normal(m)
    for i, con in enumerate(constraints):
        # Dual strict feasibility forces negative multipliers on <= rows
        # (the slack's dual constraint is y_i <= 0).
        if con.sense == "le":
            y0[i] = -abs(y0[i]) - 0.1
    s0 = [random_interior(b, 0.5) for b in blocks]
    objective = []
    for bi, block in enumerate(blocks):
        acc = s0[bi].copy() if block.kind == "lp" else s0[bi].copy()
        for i, con in enumerate(constraints):
            acc = acc + y0[i] * con.coeffs[bi]
        objective.append(acc)
    return ConicProblem(
        blocks=tuple(blocks),
        objective=tuple(objective),
        constraints=tuple(constraints),
    )


def sym_basis(n):
    """Real symmetric matrix units for expanding matrix equalities."""
    out = []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        out.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 0.5
            out.append(e)
    return out


def maxinfo_dual(j, basis=None, weight=None):
    """min tr(W V) s.t. 1 (x) V >= J on two qubits, over V in the span of
    `basis` (default hermitian_basis(2)) with W = 1 by default. Its build is
    the Lagrange dual max tr(J X) s.t. <1 (x) B_k, X> = tr(W B_k), X >= 0:
    one row per basis element B_k."""
    basis = hermitian_basis(2) if basis is None else basis
    weight = np.eye(2) if weight is None else weight
    prog = HermitianProgram()
    v = prog.variable(basis)
    prog.add_lmi(v.map(lift, [1], [2, 2]) - j)
    prog.minimize(v.map(lambda a: np.trace(weight @ a, axis1=-2, axis2=-1)))
    return prog, v


class TestSolveBasics:
    def test_min_trace_above_identity(self):
        # min tr X s.t. X >= 1_2 -> 2, via an explicit slack block.
        basis = sym_basis(2)
        blocks = (Block("sdp", 2), Block("sdp", 2))
        cons = tuple(
            Constraint((e, -e), float(np.trace(e)), "eq") for e in basis
        )
        prob = ConicProblem(
            blocks=blocks,
            objective=(np.eye(2), np.zeros((2, 2))),
            constraints=cons,
        )
        sol = solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 2.0) < 1e-7
        assert abs(sol.dual_value - 2.0) < 1e-7

    def test_lp_block_lower_bounds(self):
        # min sum v s.t. v_y >= c_y.
        c = np.array([0.3, 0.7])
        prob = ConicProblem(
            blocks=(Block("lp", 2),),
            objective=(np.ones(2),),
            constraints=(
                Constraint((np.array([-1.0, 0.0]),), -0.3, "le"),
                Constraint((np.array([0.0, -1.0]),), -0.7, "le"),
            ),
        )
        sol = solve(prob)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 1.0) < 1e-8

    def test_maxinfo_dual_of_depolarizing(self):
        # min tr V s.t. 1 (x) V >= J for d=2, p=0.3, built as its dual
        # max tr(J X) s.t. tr_A X = 1_B, X >= 0. Both optima are
        # d^2 (1-p) + p = 3.1 (attained by X = sum_ij |ii><jj|).
        j = make_channel("depolarizing", d=2, p=0.3).choi
        prog, v = maxinfo_dual(j)
        problem = prog.build()
        assert problem.maximize
        sol = solve(problem)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 3.1) < 1e-8
        assert abs(prog.value(sol) - 3.1) < 1e-8
        v_opt = prog.extract(sol, v)
        # Real data: the dropped imaginary parameter reads 0, and V comes
        # back as a complex matrix.
        assert v_opt.shape == (2, 2) and v_opt.dtype == np.complex128
        assert np.array_equal(v_opt, v_opt.conj().T)
        assert abs(np.trace(v_opt).real - 3.1) < 1e-8
        assert np.linalg.eigvalsh(np.kron(np.eye(2), v_opt) - j)[0] > -1e-8
        x_opt = sol.primal_blocks[0]
        assert x_opt.shape == (4, 4)
        assert np.linalg.eigvalsh(x_opt)[0] > -1e-8
        assert abs(np.real(np.sum(j.conj() * x_opt)) - 3.1) < 1e-8

    def test_zero_constraints_declared_unbounded(self):
        prob = ConicProblem(
            blocks=(Block("sdp", 2),),
            objective=(np.eye(2),),
            constraints=(),
        )
        sol = solve(prob)
        assert sol.status == "unbounded"
        assert sol.iterations == 0

    def test_infeasible_toy(self):
        # x = -1 with x >= 0.
        prob = ConicProblem(
            blocks=(Block("lp", 1),),
            objective=(np.ones(1),),
            constraints=(Constraint((np.ones(1),), -1.0, "eq"),),
        )
        sol = solve(prob)
        assert sol.status == "infeasible"

    def test_unbounded_toy(self):
        # min -x1 with x2 = 1: x1 free to grow.
        prob = ConicProblem(
            blocks=(Block("lp", 2),),
            objective=(np.array([-1.0, 0.0]),),
            constraints=(Constraint((np.array([0.0, 1.0]),), 1.0, "eq"),),
        )
        sol = solve(prob)
        assert sol.status == "unbounded"

    def test_max_iter_status(self):
        j = make_channel("depolarizing", d=2, p=0.3).choi
        prog, _ = maxinfo_dual(j)
        sol = solve(prog.build(), max_iter=2)
        assert sol.status == "max_iter"
        assert sol.iterations == 2

    def test_invalid_options_raise(self):
        problem = maxinfo_dual(make_channel("depolarizing", d=2, p=0.3).choi)[0].build()
        for kw in (
            {"gap_tol": -1.0},
            {"gap_tol": math.nan},
            {"feas_tol": 0.0},
            {"feas_tol": math.inf},
            {"max_iter": -1},
            {"max_iter": 2.5},
        ):
            with pytest.raises(ValueError, match=next(iter(kw))):
                solve(problem, **kw)
        assert solve(problem, max_iter=0).iterations == 0

    def test_validation_rejects_asymmetric_coeff(self):
        # A complex symmetric matrix is not Hermitian either.
        for coeff in ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 1j], [1j, 0.0]]):
            with pytest.raises(ValueError, match="not Hermitian"):
                ConicProblem(
                    blocks=(Block("sdp", 2),),
                    objective=(np.eye(2),),
                    constraints=(Constraint((np.array(coeff),), 1.0, "eq"),),
                )

    def test_validation_rejects_empty_constraint(self):
        with pytest.raises(ValueError, match="no coefficients"):
            ConicProblem(
                blocks=(Block("sdp", 2),),
                objective=(np.eye(2),),
                constraints=(Constraint((None,), 1.0, "eq"),),
            )

    def test_validation_reports_first_bad_entry_in_row_order(self):
        blocks = (Block("sdp", 2), Block("lp", 2))
        asymmetric = np.array([[0.0, 1.0], [0.0, 0.0]])
        valid = Constraint((np.eye(2), np.ones(2)), 1.0)
        rows = [
            Constraint((np.eye(2), np.ones(3)), 1.0),  # LP entry length
            Constraint((asymmetric, None), 1.0),
        ]
        with pytest.raises(ValueError, match=r"constraint 0: LP entry length \(3,\)"):
            ConicProblem(blocks, (np.eye(2), np.ones(2)), tuple(rows))
        with pytest.raises(ValueError, match="constraint 1: SDP entry is not Hermitian"):
            ConicProblem(blocks, (np.eye(2), np.ones(2)), (valid, rows[1]))
        with pytest.raises(ValueError, match=r"objective: SDP entry shape \(3, 3\)"):
            ConicProblem(blocks, (np.eye(3), np.ones(2)), tuple(rows))
        with pytest.raises(ValueError, match="constraint 1: expected 2 block entries"):
            ConicProblem(blocks, (None, None), (valid, Constraint((None,), 1.0)))

    def test_validation_rejects_non_finite_entries(self):
        # Through the row constructor, in row order: the objective first.
        blocks = (Block("sdp", 2), Block("lp", 2))
        nan_sdp = np.array([[1.0, math.nan], [math.nan, 1.0]])
        rows = (
            Constraint((np.eye(2), np.array([1.0, math.inf])), 1.0),
            Constraint((nan_sdp, None), 1.0),
        )
        with pytest.raises(ValueError, match="constraint 0: LP entry is not finite"):
            ConicProblem(blocks, (np.eye(2), np.ones(2)), rows)
        with pytest.raises(ValueError, match="objective: SDP entry is not finite"):
            ConicProblem(blocks, (nan_sdp, np.ones(2)), rows)
        with pytest.raises(ValueError, match="constraint 1: SDP entry is not finite"):
            ConicProblem(blocks, (np.eye(2), np.ones(2)),
                         (Constraint((np.eye(2), np.ones(2)), 1.0), rows[1]))
        # Through the builder: a basis element and an offset.
        prog = HermitianProgram()
        x = prog.variable([np.eye(2), np.array([[0.0, math.inf], [math.inf, 0.0]])])
        prog.add_lmi(x)
        prog.minimize(x.map(lambda a: np.trace(a, axis1=-2, axis2=-1)))
        with pytest.raises(ValueError, match="constraint 1: SDP entry is not finite"):
            prog.build()
        prog.add_lmi(x - nan_sdp)
        with pytest.raises(ValueError, match="objective: SDP entry is not finite"):
            prog.build()
        # Through the JSON reader, which accepts the NaN and Infinity tokens.
        text = (
            '{"blocks": [{"kind": "sdp", "size": 2}], "objective": [[[1, 0], [0, 1]]],'
            ' "constraints": [{"coeffs": [[[1, 0], [0, 1]]], "rhs": 1.0},'
            ' {"coeffs": [[[Infinity, 0], [0, NaN]]], "rhs": 0.0}]}'
        )
        with pytest.raises(ValueError, match="constraint 1: SDP entry is not finite"):
            problem_from_json(json.loads(text))

    def test_with_objective_is_the_build_of_its_program(self):
        # Programs that differ only in F0 share the constraint data: the
        # objective-only constructor gives bitwise the other's build.
        lift_u = np.kron(np.eye(2), np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0))

        def damping(r, rotate=False):
            choi = make_channel("amplitude_damping", r=r).choi
            return lift_u @ choi @ lift_u.conj().T if rotate else choi

        for first, other, dtype in (
            (make_channel("depolarizing", d=2, p=0.15).choi, damping(0.3), float),
            (damping(0.3, rotate=True), damping(0.6, rotate=True), complex),
        ):
            template = maxinfo_dual(first)[0].build()
            prog = maxinfo_dual(other)[0]
            shared = template.with_objective(prog.built_objective())
            built = prog.build()
            assert shared._groups is template._groups
            assert shared._rhs is template._rhs and shared._given is template._given
            assert template.objective[0].tobytes() != shared.objective[0].tobytes()
            assert template._stacks[0].dtype == shared.objective[0].dtype == dtype
            assert not shared.objective[0].flags.writeable
            assert shared.objective[0].tobytes() == built.objective[0].tobytes()
            assert_bitwise_equal(solve(shared), solve(built))

    def test_with_objective_checks_the_objective(self):
        # The objective goes through the validator's checks on row 0, and a
        # real block takes no complex entry.
        template = maxinfo_dual(make_channel("depolarizing", d=2, p=0.15).choi)[0].build()
        assert template._stacks[0].dtype == float
        bad = np.eye(4)
        bad[0, 1] = math.nan
        with pytest.raises(ValueError, match="objective: SDP entry is not finite"):
            template.with_objective([bad])
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="objective: SDP entry is not Hermitian"):
            template.with_objective([bad])
        bad = np.eye(4, dtype=complex)
        bad[0, 1], bad[1, 0] = 1j, -1j
        with pytest.raises(ValueError, match="objective: SDP entry is complex on a real block"):
            template.with_objective([bad])
        with pytest.raises(ValueError, match="objective: expected 1 block entries, got 2"):
            template.with_objective([np.eye(4), None])
        # Imaginary parts the conjugation test counts as zero are dropped.
        bad[0, 1], bad[1, 0] = 1e-12j, -1e-12j
        kept = template.with_objective([bad]).objective[0]
        assert kept.dtype == float and np.array_equal(kept, np.eye(4))

    def test_constraints_may_be_a_generator(self):
        # min x1 + 2 x2 s.t. x1 + x2 = 1, x >= 0: the rows are read once.
        prob = ConicProblem(
            blocks=(Block("lp", 2),),
            objective=(np.array([1.0, 2.0]),),
            constraints=(Constraint((np.ones(2),), 1.0) for _ in range(1)),
        )
        assert len(prob.constraints) == 1
        sol = solve(prob)
        assert sol.status == "optimal"
        assert sol.primal_value == pytest.approx(1.0, abs=1e-7)


class TestBuilder:
    def test_map_calls_its_function_once_per_term(self):
        prog = HermitianProgram()
        x = prog.variable(hermitian_basis(3))
        y = prog.variable(hermitian_basis(3), np.eye(3))
        calls = []

        def swap(a):
            calls.append(a.shape)
            return np.swapaxes(a, -1, -2)

        image = (x + y).map(swap)
        assert calls == [(3, 3), (1, 9, 3, 3), (1, 9, 3, 3)]
        assert image.offset.tobytes() == np.eye(3).tobytes()
        for stack in image.terms.values():
            assert stack.tobytes() == np.swapaxes(np.array(hermitian_basis(3)), 1, 2).tobytes()

    @pytest.mark.parametrize("fn", [np.trace, np.transpose])
    @pytest.mark.parametrize("k", [4, 2])  # with k = 2, as many elements as rows
    def test_map_rejects_a_function_that_is_not_stack_aware(self, fn, k):
        prog = HermitianProgram()
        v = prog.variable(hermitian_basis(2)[:k])  # k elements of 2 x 2
        with pytest.raises(ValueError, match="fn must act on the last axes"):
            v.map(fn)

    def test_variable_offset_must_have_the_shape_of_a_basis_element(self):
        prog = HermitianProgram()
        with pytest.raises(ValueError, match=r"offset shape \(4, 4\) does not match "
                                             r"basis element shape \(3, 3\)"):
            prog.variable(hermitian_basis(3), np.eye(4))
        assert prog.variable(hermitian_basis(3)).offset.shape == (3, 3)

    def test_a_variable_with_an_empty_basis_is_a_constant(self):
        # It has no parameters, so the next variable starts at its start
        # index; a term of it there once broadcast b's (1, n, n) stack with
        # its (0, n, n) one to (0, n, n), and b dropped out of b - a.
        prog = HermitianProgram()
        a = prog.variable(np.zeros((0, 2, 2)), np.eye(2))
        b = prog.variable(hermitian_basis(2)[:1])
        assert a.terms == {}
        diff = b - a
        assert list(diff.terms) == list(b.terms)
        assert diff.terms[0].tobytes() == b.terms[0].tobytes()
        assert np.array_equal(diff.offset, -np.eye(2))


class TestRealForm:
    SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])

    def test_real_data_build_blocks_of_size_n_without_imaginary_rows(self):
        j = make_channel("depolarizing", d=2, p=0.3).choi
        problem = maxinfo_dual(j)[0].build()
        assert problem.blocks == (Block("sdp", 4),)
        # hermitian_basis(2) has one imaginary element; its row reads 0 = 0
        # on real X and is dropped. The rest keep their rhs undoubled.
        assert [c.rhs for c in problem.constraints] == [1.0, 1.0, 0.0]
        assert problem.objective[0].dtype == np.float64
        assert np.array_equal(problem.objective[0], j.real)

    def test_rounding_level_imaginary_parts_count_as_zero(self):
        j = make_channel("depolarizing", d=2, p=0.3).choi
        noisy = j + 1e-16 * lift(self.SIGMA_Y, [1], [2, 2])
        problem = maxinfo_dual(noisy)[0].build()
        assert problem.blocks == (Block("sdp", 4),)
        assert problem.objective[0].dtype == np.float64

    def test_complex_objective_takes_complex_blocks(self):
        # Rotating the output by a complex unitary leaves the optimum at 3.1.
        u = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
        lift_u = np.kron(np.eye(2), u)
        j = lift_u @ make_channel("depolarizing", d=2, p=0.3).choi @ lift_u.conj().T
        prog, v = maxinfo_dual(j)
        problem = prog.build()
        # Complex data: n x n blocks, every row kept, nothing doubled or halved.
        assert problem.blocks == (Block("sdp", 4),)
        assert [c.rhs for c in problem.constraints] == [1.0, 1.0, 0.0, 0.0]
        assert problem.objective[0].dtype == np.complex128
        assert np.allclose(problem.objective[0], j, rtol=0.0, atol=1e-15)
        sol = solve(problem)
        assert sol.status == "optimal"
        assert abs(sol.primal_value - 3.1) < 1e-8
        assert np.iscomplexobj(sol.primal_blocks[0])
        assert prog.extract(sol, v).shape == (2, 2)

    # The last basis element of V is mixed (1 + sigma_y), or purely
    # imaginary (sigma_y) with a weight that asks its row for tr(W sigma_y)
    # = 0.1; either row keeps the program on complex blocks.
    @pytest.mark.parametrize(
        "element, weight, rhs",
        [
            (np.eye(2) + SIGMA_Y, np.eye(2), 2.0),
            (SIGMA_Y, np.eye(2) + 0.05 * SIGMA_Y, 0.1),
        ],
        ids=["mixed-row", "imaginary-row-asking-nonzero"],
    )
    def test_rows_not_invariant_under_conjugation_take_complex_blocks(
        self, element, weight, rhs
    ):
        j = make_channel("depolarizing", d=2, p=0.3).choi
        basis = [*hermitian_basis(2)[:3], element]
        problem = maxinfo_dual(j, basis, weight)[0].build()
        assert problem.blocks == (Block("sdp", 4),)
        assert [c.rhs for c in problem.constraints] == pytest.approx(
            [1.0, 1.0, 0.0, rhs], abs=1e-15
        )
        added = problem.constraints[-1].coeffs[0]
        assert added.dtype == np.complex128
        assert np.array_equal(added, np.kron(np.eye(2), element))

    def test_non_hermitian_imaginary_row_is_rejected(self):
        j = make_channel("depolarizing", d=2, p=0.3).choi
        prog, _ = maxinfo_dual(j, [*hermitian_basis(2), 1j * np.eye(2)])
        with pytest.raises(ValueError, match="Hermitian"):
            prog.build()

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["objective", "row"])
    def test_non_finite_imaginary_part_takes_complex_blocks_and_is_rejected(
        self, where, value
    ):
        # min tr V s.t. V >= J over hermitian_basis(2). A NaN or infinite
        # imaginary part fails the conjugation test, so the data take
        # complex blocks, whose validator rejects it, rather than losing it
        # to the real part.
        bad = np.zeros((2, 2), dtype=complex)
        bad[0, 1] = bad[1, 0] = complex(0.0, value)
        j, basis = 0.5 * np.eye(2), list(hermitian_basis(2))
        if where == "objective":
            j = j + bad
        else:
            basis[-1] = np.eye(2) + bad
        prog = HermitianProgram()
        v = prog.variable(basis)
        prog.add_lmi(v - j)
        prog.minimize(v.map(lambda a: np.trace(a, axis1=-2, axis2=-1)))
        assert HermitianProgram.is_real(prog.built_objective()) == (where == "row")
        what = "objective" if where == "objective" else f"constraint {len(basis) - 1}"
        with pytest.raises(ValueError, match=f"{what}: SDP entry is not finite"):
            prog.build()


class TestSolverProperties:
    def test_fifty_random_strictly_feasible(self):
        for seed, is_complex in ((2024, False), (2025, True)):
            rng = np.random.default_rng(seed)
            for trial in range(50):
                prob = random_problem(rng, complex=is_complex)
                sol = solve(prob, gap_tol=1e-8, feas_tol=1e-8, max_iter=200)
                assert sol.status == "optimal", f"trial {trial}: {sol.status}"
                assert sol.gap <= 1e-8
                for block, x in zip(prob.blocks, sol.primal_blocks):
                    if block.kind == "sdp":
                        assert np.iscomplexobj(x) == is_complex

    def test_weak_duality_on_iterates(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            prob = random_problem(rng)
            sol = solve(prob)
            assert sol.status == "optimal"
            for rec in sol.trace:
                scale = 1.0 + abs(rec.primal_value) + abs(rec.dual_value)
                assert rec.dual_value <= rec.primal_value + 1e-9 * scale

    def test_deterministic_iterates(self):
        rng = np.random.default_rng(55)
        prob = random_problem(rng)
        a = solve(prob)
        b = solve(prob)
        assert len(a.trace) == len(b.trace)
        for ra, rb in zip(a.trace, b.trace):
            assert ra == rb
        assert a.primal_value == b.primal_value
        for xa, xb in zip(a.primal_blocks, b.primal_blocks):
            assert np.array_equal(xa, xb)

    def test_slack_conversion_matches_manual_slacks(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            prob = random_problem(rng, with_ineq=True)
            if not any(c.sense == "le" for c in prob.constraints):
                continue
            # Manual reformulation: one extra LP block holding all slacks.
            le_rows = [i for i, c in enumerate(prob.constraints) if c.sense == "le"]
            blocks = prob.blocks + (Block("lp", len(le_rows)),)
            cons = []
            for i, c in enumerate(prob.constraints):
                extra = np.zeros(len(le_rows))
                if c.sense == "le":
                    extra[le_rows.index(i)] = 1.0
                cons.append(Constraint(c.coeffs + (extra,), c.rhs, "eq"))
            manual = ConicProblem(
                blocks=blocks,
                objective=prob.objective + (np.zeros(len(le_rows)),),
                constraints=tuple(cons),
            )
            sa = solve(prob)
            sb = solve(manual)
            assert sa.status == sb.status == "optimal"
            assert abs(sa.primal_value - sb.primal_value) <= 1e-8 * (
                1 + abs(sa.primal_value)
            )

    def test_lp_path_agrees_with_mixed_path(self):
        # Same LP solved alone and with a dummy SDP block alongside, which
        # adds a PSD group to the Schur matrix and the step lengths.
        rng = np.random.default_rng(99)
        for _ in range(5):
            a = rng.standard_normal((6, 10))
            x0 = rng.uniform(0.5, 1.5, 10)
            b = a @ x0
            c = a.T @ rng.standard_normal(6) + rng.uniform(0.5, 1.5, 10)
            lp = ConicProblem(
                blocks=(Block("lp", 10),),
                objective=(c,),
                constraints=tuple(
                    Constraint((a[i],), float(b[i]), "eq") for i in range(6)
                ),
            )
            mixed = ConicProblem(
                blocks=(Block("lp", 10), Block("sdp", 1)),
                objective=(c, np.zeros((1, 1))),
                constraints=tuple(
                    Constraint((a[i], None), float(b[i]), "eq") for i in range(6)
                )
                + (Constraint((None, np.eye(1)), 1.0, "eq"),),
            )
            sa = solve(lp)
            sb = solve(mixed)
            assert sa.status == sb.status == "optimal"
            assert abs(sa.primal_value - sb.primal_value) <= 1e-7 * (
                1 + abs(sa.primal_value)
            )

    def test_random_lps_against_scipy(self):
        rng = np.random.default_rng(404)
        for _ in range(20):
            nvar = int(rng.integers(4, 30))
            m = int(rng.integers(2, nvar + 1))
            a = rng.standard_normal((m, nvar))
            x0 = rng.uniform(0.2, 2.0, nvar)
            b = a @ x0
            c = a.T @ rng.standard_normal(m) + rng.uniform(0.2, 2.0, nvar)
            prob = ConicProblem(
                blocks=(Block("lp", nvar),),
                objective=(c,),
                constraints=tuple(
                    Constraint((a[i],), float(b[i]), "eq") for i in range(m)
                ),
            )
            sol = solve(prob)
            ref = scipy.optimize.linprog(
                c, A_eq=a, b_eq=b, bounds=(0, None), method="highs"
            )
            assert sol.status == "optimal" and ref.success
            assert abs(sol.primal_value - ref.fun) <= 1e-7 * (1 + abs(ref.fun))

    def test_dense_column_handling(self):
        # One variable appearing in every row densifies the normal matrix.
        rng = np.random.default_rng(505)
        m = 60
        rows = []
        x0 = rng.uniform(0.5, 1.5, m + 1)
        a = np.zeros((m, m + 1))
        for i in range(m):
            a[i, i] = 1.0
            a[i, m] = 1.0 + 0.01 * i
        b = a @ x0
        c = a.T @ rng.standard_normal(m) + rng.uniform(0.5, 1.5, m + 1)
        prob = ConicProblem(
            blocks=(Block("lp", m + 1),),
            objective=(c,),
            constraints=tuple(
                Constraint((a[i],), float(b[i]), "eq") for i in range(m)
            ),
        )
        sol = solve(prob)
        ref = scipy.optimize.linprog(
            c, A_eq=a, b_eq=b, bounds=(0, None), method="highs"
        )
        assert sol.status == "optimal" and ref.success
        assert abs(sol.primal_value - ref.fun) <= 1e-7 * (1 + abs(ref.fun))


class TestStepLengths:
    """The solver's step lengths against the generalized eigenproblem
    -dX v = mu X v, which does not use the NT factors: X + a dX stays PSD
    exactly for a <= 1 / max mu."""

    @staticmethod
    def oracle(x, dx):
        top = scipy.linalg.eigh(-dx, x, eigvals_only=True)[-1]
        return 1.0 / top if top > 0 else conic._BIG_STEP

    @staticmethod
    def steps(x, s, dx, ds):
        n = x[0].shape[0]
        problem = ConicProblem(
            blocks=(Block("sdp", n), Block("lp", len(x[1]))),
            objective=(None, None),
            constraints=(Constraint((np.eye(n, dtype=x[0].dtype), None), 1.0),),
        )
        # The solver's arrays carry a leading batch axis, one array per group
        # of blocks; this is a batch of one.
        std = conic._Standardized([problem])
        x, s, dx, ds = (std.grouped([a[None] for a in arrays]) for arrays in (x, s, dx, ds))
        nt = conic._NTScaling(std, x, s, conic._cholesky(std, x, s)[0])
        return tuple(conic._max_steps(std, nt, x, s, dx, ds)[0].tolist())

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_steps_match_generalized_eigenvalues(self, n, is_complex):
        rng = np.random.default_rng([n, is_complex])

        def square():
            g = rng.standard_normal((n, n))
            return g + 1j * rng.standard_normal((n, n)) if is_complex else g

        def interior():
            g = square()
            return g @ g.conj().T + 0.5 * np.eye(n)

        def direction():
            g = square()
            return 3.0 * (g + g.conj().T)

        for _ in range(5):
            x = [interior(), rng.uniform(0.5, 1.5, 3)]
            s = [interior(), rng.uniform(0.5, 1.5, 3)]
            # A positive primal LP direction never binds; the dual one may.
            dx = [direction(), rng.uniform(0.1, 1.0, 3)]
            ds = [direction(), rng.standard_normal(3)]
            ap, ad = self.steps(x, s, dx, ds)
            want_p = self.oracle(x[0], dx[0])
            neg = ds[1] < 0
            want_d = min(
                [self.oracle(s[0], ds[0]), *(-s[1][neg] / ds[1][neg])]
            )
            assert ap == pytest.approx(want_p, rel=1e-9)
            assert ad == pytest.approx(want_d, rel=1e-9)
            if ap < conic._BIG_STEP:
                edge = np.linalg.eigvalsh(x[0] + ap * dx[0])[0]
                scale = np.linalg.norm(x[0], 2) + ap * np.linalg.norm(dx[0], 2)
                assert abs(edge) <= 1e-9 * scale

    def test_psd_directions_are_unbounded(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 5, 8):
            g = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
            x = [np.eye(n, dtype=complex), np.ones(2)]
            dx = [g @ g.conj().T, np.array([0.0, 1.0])]
            assert self.steps(x, x, dx, dx) == (conic._BIG_STEP, conic._BIG_STEP)


class TestSchurFactorization:
    def test_positive_definite_solves_as_scipy_does(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((7, 7))
        mat = g @ g.T + np.eye(7)
        mat = (mat + mat.T) / 2.0
        rhs = rng.standard_normal(7)
        factor = conic._dense_cholesky_with_jitter(mat)
        got = conic._POTRS(factor, rhs, lower=1)[0]
        want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(mat, lower=True), rhs)
        assert np.array_equal(got, want)

    def test_singular_psd_factors_after_jitter(self):
        v = np.array([1.0, 2.0, -1.0])
        mat = np.outer(v, v)
        assert conic._POTRF(mat, lower=1)[1] > 0
        low = np.tril(conic._dense_cholesky_with_jitter(mat))
        assert np.allclose(low @ low.T, mat, rtol=0.0, atol=1e-10)

    def test_indefinite_matrix_fails(self):
        with pytest.raises(SolverFailure, match="Schur complement factorization failed"):
            conic._dense_cholesky_with_jitter(np.diag([1.0, -1.0]))


def rhs_variants(rng, problem, count, is_complex=False):
    """Problems with the blocks and constraint coefficients of `problem` and
    a new rhs and objective each, strictly feasible on both sides as in
    random_problem: made from fresh interior points X0 and (y0, S0)."""

    def interior(block):
        n = block.size
        if block.kind == "sdp":
            g = rng.standard_normal((n, n))
            if is_complex:
                g = g + 1j * rng.standard_normal((n, n))
            return g @ g.conj().T + 0.5 * np.eye(n)
        return rng.uniform(0.5, 1.5, n)

    out = []
    for _ in range(count):
        x0 = [interior(b) for b in problem.blocks]
        s0 = [interior(b) for b in problem.blocks]
        y0 = rng.standard_normal(len(problem.constraints))
        constraints = []
        for i, con in enumerate(problem.constraints):
            rhs = sum(float(np.sum(c * x.conj()).real) for c, x in zip(con.coeffs, x0))
            if con.sense == "le":
                rhs += float(rng.uniform(0.1, 1.0))
                y0[i] = -abs(y0[i]) - 0.1
            constraints.append(Constraint(con.coeffs, rhs, con.sense))
        objective = [
            s0[bi] + sum(y0[i] * con.coeffs[bi] for i, con in enumerate(problem.constraints))
            for bi in range(len(problem.blocks))
        ]
        out.append(ConicProblem(problem.blocks, tuple(objective), tuple(constraints)))
    return out


def assert_same_solution(got, want):
    """A solve_many result against the problem's own solve."""
    assert (got.status, got.iterations) == (want.status, want.iterations)
    for a, b in (
        (got.primal_value, want.primal_value),
        (got.dual_value, want.dual_value),
        (got.primal_residual, want.primal_residual),
        (got.dual_residual, want.dual_residual),
    ):
        assert a == pytest.approx(b, rel=1e-12)


def assert_bitwise_equal(got, want):
    """Two solutions with the same status, iterations and bits."""
    assert (got.status, got.iterations) == (want.status, want.iterations)
    for a, b in (
        (got.primal_value, want.primal_value),
        (got.dual_value, want.dual_value),
        (got.primal_residual, want.primal_residual),
        (got.dual_residual, want.dual_residual),
    ):
        assert np.float64(a).tobytes() == np.float64(b).tobytes()
    assert got.dual_multipliers.tobytes() == want.dual_multipliers.tobytes()
    for a, b in zip(got.primal_blocks, want.primal_blocks, strict=True):
        assert a.tobytes() == b.tobytes()


class TestSolveMany:
    """solve_many(problems) against [solve(p) for p in problems]."""

    @staticmethod
    def check(batch, **options):
        sols = solve_many(batch, **options)
        assert len(sols) == len(batch)
        for problem, sol in zip(batch, sols):
            assert_same_solution(sol, solve(problem, **options))
        return sols

    def test_instances_stop_at_different_iterations(self):
        rng = np.random.default_rng(4242)
        batch = rhs_variants(rng, random_problem(rng), 8)
        assert conic._groups(batch) == [list(range(8))]  # one lockstep run
        sols = self.check(batch)
        assert all(sol.status == "optimal" for sol in sols)
        assert len({sol.iterations for sol in sols}) > 1

    def test_complex_blocks(self):
        rng = np.random.default_rng(4343)
        batch = rhs_variants(rng, random_problem(rng, complex=True), 6, is_complex=True)
        assert conic._groups(batch) == [list(range(6))]
        sols = self.check(batch)
        assert all(sol.status == "optimal" for sol in sols)
        assert all(np.iscomplexobj(x) for sol in sols for x, b in
                   zip(sol.primal_blocks, batch[0].blocks) if b.kind == "sdp")

    def test_certificates_next_to_optimal_instances(self):
        # x2 = b over x >= 0, and X11 = b over X >= 0: b = -1 is infeasible,
        # and an objective that rewards x1 (X22) is unbounded.
        lp = [((1.0, 1.0), 1.0), ((1.0, 1.0), -1.0), ((-1.0, 0.0), 1.0), ((2.0, 1.0), 2.0)]
        lp_batch = [
            ConicProblem(
                blocks=(Block("lp", 2),),
                objective=(np.array(c),),
                constraints=(Constraint((np.array([0.0, 1.0]),), b),),
            )
            for c, b in lp
        ]
        e11 = np.diag([1.0, 0.0])
        sdp = [((1.0, 1.0), 1.0), ((1.0, 1.0), -1.0), ((0.0, -1.0), 1.0), ((2.0, 1.0), 2.0)]
        sdp_batch = [
            ConicProblem(
                blocks=(Block("sdp", 2),),
                objective=(np.diag(c),),
                constraints=(Constraint((e11,), b),),
            )
            for c, b in sdp
        ]
        for batch in (lp_batch, sdp_batch):
            assert conic._groups(batch) == [[0, 1, 2, 3]]
            sols = self.check(batch)
            assert [sol.status for sol in sols] == [
                "optimal", "infeasible", "unbounded", "optimal"
            ]

    def test_iteration_cap(self):
        rng = np.random.default_rng(4444)
        batch = rhs_variants(rng, random_problem(rng), 5)
        sols = self.check(batch, max_iter=4)
        assert all((sol.status, sol.iterations) == ("max_iter", 4) for sol in sols)

    def test_mixed_structures_come_back_in_input_order(self):
        rng = np.random.default_rng(4545)
        first = rhs_variants(rng, random_problem(rng), 3)
        second = rhs_variants(rng, random_problem(rng, complex=True), 2, is_complex=True)
        lp = rhs_variants(rng, random_problem(rng, with_ineq=True), 2)
        batch = [first[0], second[0], lp[0], first[1], second[1], first[2], lp[1]]
        assert len(conic._groups(batch)) == 3
        self.check(batch)

    def test_none_and_zero_coefficients_share_a_group(self):
        # The same program, with absent coefficients given as None in one
        # copy and as explicit zeros in the other: one stack, one group.
        blocks = (Block("sdp", 2), Block("lp", 2))
        objective = (np.diag([1.0, 2.0]), np.array([1.0, 3.0]))
        absent = [(np.eye(2), None), (None, np.ones(2))]
        zeros = [(np.eye(2), np.zeros(2)), (np.zeros((2, 2)), np.ones(2))]
        batch = [
            ConicProblem(blocks, objective, tuple(Constraint(c, 1.0) for c in rows))
            for rows in (absent, zeros)
        ]
        assert batch[0].constraints[0].coeffs[1] is None
        assert conic._groups(batch) == [[0, 1]]
        sols = solve_many(batch)
        for sol, want in zip(sols, [solve(p) for p in batch]):
            assert_bitwise_equal(sol, want)
        assert_bitwise_equal(sols[0], sols[1])
        assert sols[0].status == "optimal"
        assert sols[0].primal_value == pytest.approx(2.0, abs=1e-7)

    def test_block_with_real_and_complex_entries(self):
        # One real and one complex constraint entry on an SDP block: the
        # block's stack, and so every row view, is complex, while the real
        # objective entry stays real.
        sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
        prob = ConicProblem(
            blocks=(Block("sdp", 2),),
            objective=(np.array([[2.0, -0.0], [-0.0, 1.0]]),),
            constraints=(
                Constraint((np.eye(2),), 1.0),
                Constraint((sigma_y,), 0.5),
            ),
        )
        views = [con.coeffs[0] for con in prob.constraints]
        assert all(np.iscomplexobj(v) and not v.flags.writeable for v in views)
        assert not np.iscomplexobj(prob.objective[0])
        doc = problem_to_json(prob)
        back = problem_from_json(json.loads(json.dumps(doc)))
        assert problem_to_json(back) == doc
        for got, want in zip(back.constraints, prob.constraints):
            assert np.array_equal(got.coeffs[0], want.coeffs[0])
        assert conic._groups([prob, back]) == [[0, 1]]
        sols = self.check([prob, back])
        assert_bitwise_equal(sols[0], sols[1])
        assert sols[0].status == "optimal"

    def test_empty_batch(self):
        assert solve_many([]) == []
        with pytest.raises(ValueError, match="gap_tol"):
            solve_many([], gap_tol=-1.0)


# Three real 3x3 blocks, a complex 3x3 block, a real 2x2 block and two LP
# blocks, as (kind, size, complex).
_GROUPED_BLOCKS = (
    ("sdp", 3, False), ("lp", 3, False), ("sdp", 3, False), ("sdp", 3, True),
    ("sdp", 2, False), ("lp", 2, False), ("sdp", 3, False),
)


def grouped_batch(count, order=range(len(_GROUPED_BLOCKS))):
    """`count` strictly feasible problems on the blocks of _GROUPED_BLOCKS,
    with shared constraint coefficients and 3 "le" rows out of 12, made as
    in random_problem; their blocks are listed in `order`."""
    rng = np.random.default_rng(2718)

    def square(n, is_complex):
        g = rng.standard_normal((n, n))
        return g + 1j * rng.standard_normal((n, n)) if is_complex else g

    def entry(kind, n, is_complex):
        if kind == "lp":
            return rng.standard_normal(n)
        g = square(n, is_complex)
        return (g + g.conj().T) / 2

    def interior(kind, n, is_complex):
        if kind == "lp":
            return rng.uniform(0.5, 1.5, n)
        g = square(n, is_complex)
        return g @ g.conj().T + 0.5 * np.eye(n)

    m, n_le = 12, 3
    rows = [
        [entry(*b) if bi == i % 7 or rng.random() < 0.7 else None
         for bi, b in enumerate(_GROUPED_BLOCKS)]
        for i in range(m)
    ]
    senses = ["eq"] * (m - n_le) + ["le"] * n_le
    out = []
    for _ in range(count):
        x0 = [interior(*b) for b in _GROUPED_BLOCKS]
        s0 = [interior(*b) for b in _GROUPED_BLOCKS]
        y0 = rng.standard_normal(m)
        y0[m - n_le:] = -np.abs(y0[m - n_le:]) - 0.1
        rhs = [
            sum(float(np.sum(a * x.conj()).real) for a, x in zip(row, x0) if a is not None)
            for row in rows
        ]
        rhs[m - n_le:] += rng.uniform(0.1, 1.0, n_le)
        objective = [
            s0[bi] + sum(y0[i] * row[bi] for i, row in enumerate(rows) if row[bi] is not None)
            for bi in range(len(_GROUPED_BLOCKS))
        ]
        out.append(ConicProblem(
            tuple(Block(*_GROUPED_BLOCKS[bi][:2]) for bi in order),
            tuple(objective[bi] for bi in order),
            tuple(
                Constraint(tuple(row[bi] for bi in order), float(r), sense)
                for row, r, sense in zip(rows, rhs, senses)
            ),
        ))
    return out


class TestBlockGroups:
    """The solver runs blocks of one kind, size and dtype as one array."""

    def test_groups_by_kind_size_and_dtype(self):
        problem = grouped_batch(1)[0]
        std = conic._Standardized([problem])
        assert [(g.members, g.item, g.dtype) for g in std.groups] == [
            ([0, 2, 6], (3, 3, 3), np.float64),
            ([1, 5], (3 + 2 + 3,), np.float64),  # the LP blocks and the slack
            ([3], (1, 3, 3), np.complex128),
            ([4], (1, 2, 2), np.float64),
        ]
        # A PSD group runs on the problem's one stack of its coefficients,
        # of which each block's stack is a view: nothing is copied.
        for g in std.groups:
            if g.sdp:
                assert all(np.shares_memory(g.stack, problem._stacks[bi]) for bi in g.members)

    @pytest.mark.parametrize("order", [(5, 3, 6, 4, 0, 1, 2), (6, 5, 4, 3, 2, 1, 0)])
    def test_block_order_does_not_change_the_solution(self, order):
        # Another order only changes the rounding: the blocks of a group sit
        # in another order in its arrays, and the groups add their terms in
        # another order. On this problem that moves the primal value by a
        # few 1e-12 relative, and the blocks by up to 1e-7: the iterates
        # converge to 1e-8 only.
        want = solve(grouped_batch(1)[0])
        got = solve(grouped_batch(1, order)[0])
        assert want.status == "optimal"
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert got.primal_value == pytest.approx(want.primal_value, rel=1e-10)
        assert got.dual_value == pytest.approx(want.dual_value, rel=1e-12)
        assert len(got.primal_blocks) == len(_GROUPED_BLOCKS)
        for x, bi in zip(got.primal_blocks, order):
            kind, n, is_complex = _GROUPED_BLOCKS[bi]
            assert x.shape == ((n, n) if kind == "sdp" else (n,))
            assert x.dtype == (np.complex128 if is_complex else np.float64)
            assert np.allclose(x, want.primal_blocks[bi], rtol=0.0, atol=1e-6)

    def test_lp_group_matrix_is_its_blocks_side_by_side(self):
        # The LP blocks' stacks and the slack's unit columns, as hstack
        # builds them: the same entries, bit for bit.
        problem = grouped_batch(1)[0]
        lp = conic._Standardized([problem]).groups[1]
        slack = np.eye(12)[:, np.flatnonzero(problem._le)]
        want = np.hstack([problem._stacks[bi] for bi in lp.members] + [slack])
        assert lp.flat.shape == want.shape and lp.flat.dtype == want.dtype
        assert lp.flat.tobytes() == want.tobytes()
        # With no "le" row, the group runs on the stored stack: no copy.
        eq = ConicProblem((Block("lp", 2),), (np.ones(2),), (Constraint((np.ones(2),), 1.0),))
        assert np.shares_memory(conic._Standardized([eq]).groups[0].flat, eq._stacks[0])

    def test_linear_maps_are_their_definitions(self):
        # A x, A^T y and the inner products, one product per group, against
        # their definitions row by row and block by block, on two instances.
        batch = grouped_batch(2)
        problem = batch[0]
        std = conic._Standardized(batch)
        groups = [(g.sdp, g.item, g.dtype) for g in std.groups]
        assert groups[:3] == [(True, (3, 3, 3), np.float64), (False, (8,), np.float64),
                              (True, (1, 3, 3), np.complex128)]
        rows = problem.constraints
        m, le = len(rows), np.flatnonzero(problem._le)
        rng = np.random.default_rng(31)

        def point():
            """Per instance, a Hermitian or real entry per block and the slack."""
            out = []
            for _ in batch:
                blocks = []
                for kind, n, is_complex in _GROUPED_BLOCKS:
                    g = rng.standard_normal(n if kind == "lp" else (n, n))
                    if is_complex:
                        g = g + 1j * rng.standard_normal((n, n))
                    blocks.append(g if kind == "lp" else (g + g.conj().T) / 2)
                out.append((blocks, rng.standard_normal(len(le))))
            return out

        def grouped(pt):
            arrays = std.grouped([list(entries) for entries in zip(*(b for b, _ in pt))])
            arrays[1][:, -len(le):] = [slack for _, slack in pt]
            return arrays

        def inner(a, b):
            return float(np.sum(a * np.conj(b)).real)

        def close(got, want):
            assert np.abs(np.asarray(got) - want).max() <= 1e-13 * np.abs(want).max()

        x = point()
        ax = std.apply_A(grouped(x))
        for k, (blocks, slack) in enumerate(x):
            want = np.array([
                sum(inner(c, b) for c, b in zip(row.coeffs, blocks) if c is not None)
                for row in rows
            ])
            want[le] += slack
            close(ax[k], want)

        y = rng.standard_normal((len(batch), m))
        aty = std.apply_At(y)
        for k in range(len(batch)):
            blocks = [
                sum(y[k, i] * row.coeffs[bi] for i, row in enumerate(rows)
                    if row.coeffs[bi] is not None)
                for bi in range(len(_GROUPED_BLOCKS))
            ]
            want = std.grouped([[b] for b in blocks])  # as instance 0
            want[1][0, -len(le):] = y[k, le]
            for got_g, want_g in zip(aty, want):
                close(got_g.reshape(len(batch), -1)[k], want_g.reshape(len(batch), -1)[0])

        a, b = point(), point()
        want = [
            sum(inner(p, q) for p, q in zip(pa, pb)) + sa @ sb
            for (pa, sa), (pb, sb) in zip(a, b)
        ]
        close(std.dots(grouped(a), grouped(b)), want)

    def test_batch_is_bitwise_its_solves(self, monkeypatch):
        batch = grouped_batch(4)
        assert conic._groups(batch) == [[0, 1, 2, 3]]
        sols = solve_many(batch)
        assert all(sol.status == "optimal" for sol in sols)
        for problem, sol in zip(batch, sols):
            assert_bitwise_equal(sol, solve(problem))
        # HermitianProgram.build hands each block's rows over whole; the row
        # constructor, given the built rows, stores the same bytes, and both
        # problems solve bitwise alike.
        built = []
        solve_ = programs.solve
        monkeypatch.setattr(programs, "solve", lambda p, **kw: built.append(p) or solve_(p, **kw))
        depol = make_channel("depolarizing", d=2, p=0.15)
        damping = make_channel("amplitude_damping", r=0.3)
        u = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
        lift_u = np.kron(np.eye(2), u)
        rotated = QuantumChannel(2, 2, lift_u @ damping.choi @ lift_u.conj().T)
        programs.one_shot_cost_ns(damping, 0.05)
        programs.zero_error_cost(depol)
        programs.zero_error_cost(rotated)  # complex blocks
        programs.min_error_noiseless(2, make_channel("depolarizing", d=3, p=0.15), "NS_PPT")
        programs.min_error_simulation(damping, depol, "NS")
        symmetry.classical_cost_lp(np.array([[0.9, 0.1], [0.2, 0.8]]), 0.05)
        assert len(built) == 6
        for problem in built:
            assert "constraints" not in vars(problem)  # made only when read
            rows = ConicProblem(problem.blocks, problem.objective, problem.constraints,
                                problem.maximize)
            for (sdp, bis, stack), (sdp_r, bis_r, stack_r) in zip(
                problem._groups, rows._groups, strict=True
            ):
                assert (sdp, bis, stack.dtype, stack.shape) == (
                    sdp_r, bis_r, stack_r.dtype, stack_r.shape)
                assert stack.tobytes() == stack_r.tobytes()
            for name in ("_rhs", "_le", "_given"):
                assert np.asarray(getattr(problem, name)).tobytes() == (
                    np.asarray(getattr(rows, name)).tobytes()), name
            assert_bitwise_equal(solve(rows), solve(problem))


def psd_power(a, p):
    lam, v = np.linalg.eigh(a)
    return (v * lam**p) @ v.conj().T


def nt_point(x, s):
    """The Nesterov-Todd point W of PD X and S, with W S W = X."""
    root = psd_power(x, 0.5)
    return root @ psd_power(root @ s @ root, -0.5) @ root


class TestSchurAssembly:
    """The Schur matrix, as a Gram product of svecs (from _GRAM_MIN_ROWS
    rows on) or as a sum of dense W A_i W terms, against its definition."""

    @pytest.mark.parametrize("gram", [True, False], ids=["gram", "dense"])
    def test_schur_matrix_is_its_definition(self, monkeypatch, gram):
        monkeypatch.setattr(conic, "_GRAM_MIN_ROWS", 0 if gram else 10**9)
        problem = grouped_batch(1)[0]
        std = conic._Standardized([problem])
        assert (std.gram is not None) == gram
        if gram:  # some PSD block is not touched by every row
            assert any(
                not isinstance(t, slice) for g in std.groups if g.sdp for t in g.touched
            )
        rng = np.random.default_rng(99)

        def interior(kind, n, is_complex):
            if kind == "lp":
                return rng.uniform(0.5, 1.5, n)
            g = rng.standard_normal((n, n))
            if is_complex:
                g = g + 1j * rng.standard_normal((n, n))
            return g @ g.conj().T / n + 0.5 * np.eye(n)

        x = [interior(*b) for b in _GROUPED_BLOCKS]
        s = [interior(*b) for b in _GROUPED_BLOCKS]
        le = np.flatnonzero(problem._le)
        x_slack, s_slack = rng.uniform(0.5, 1.5, len(le)), rng.uniform(0.5, 1.5, len(le))
        xg, sg = std.grouped([[a] for a in x]), std.grouped([[a] for a in s])
        lp = std.groups[1]
        assert not lp.sdp
        xg[1][0, -len(le):], sg[1][0, -len(le):] = x_slack, s_slack
        nt = conic._NTScaling(std, xg, sg, conic._cholesky(std, xg, sg)[0])
        got = conic._SchurSolver(std, nt)._systems[0][0]

        m = len(problem.constraints)
        want = np.zeros((m, m))
        for bi, (kind, n, _) in enumerate(_GROUPED_BLOCKS):
            zero = np.zeros((n, n) if kind == "sdp" else n)
            a = np.array([zero if c.coeffs[bi] is None else c.coeffs[bi]
                          for c in problem.constraints])
            if kind == "sdp":
                aw = a @ nt_point(x[bi], s[bi])
                want += np.einsum("iab,jba->ij", aw, aw).real
            else:
                want += (a * (x[bi] / s[bi])) @ a.T
        want[le, le] += x_slack / s_slack
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(got, got.T)

    def test_batch_is_bitwise_its_solves(self, monkeypatch):
        monkeypatch.setattr(conic, "_GRAM_MIN_ROWS", 0)
        batch = grouped_batch(4)
        std = conic._Standardized(batch)
        assert std.gram is not None
        assert any(not isinstance(t, slice) for g in std.groups if g.sdp for t in g.touched)
        sols = solve_many(batch)
        assert all(sol.status == "optimal" for sol in sols)
        for problem, sol in zip(batch, sols):
            assert_bitwise_equal(sol, solve(problem))


class TestBacktracking:
    """A step whose iterate fails its Cholesky factorization shrinks."""

    @staticmethod
    def batch_of_two():
        problem = ConicProblem(
            blocks=(Block("sdp", 2),),
            objective=(np.eye(2),),
            constraints=(Constraint((np.eye(2),), 2.0),),
        )
        std = conic._Standardized([problem, problem])
        eye = np.eye(2)
        x, s = std.grouped([[eye, eye]]), std.grouped([[eye, eye]])
        y = np.zeros((2, 1))
        return std, x, s, y

    def test_only_the_failing_instance_shrinks_its_step(self):
        std, x, s, y = self.batch_of_two()
        # A full step takes instance 0's X to -I and instance 1's to I/2.
        dx = std.grouped([[-2.0 * np.eye(2), -0.5 * np.eye(2)]])
        ds = std.grouped([[np.zeros((2, 2)), np.zeros((2, 2))]])
        dy = np.ones((2, 1))
        xn, sn, yn, factors = conic._step(std, x, s, y, dx, ds, dy, np.ones((2, 2)))
        # Instance 0 takes 0.8^4 of its step, the first that keeps X PD.
        shrunk = 1.0
        for _ in range(4):
            shrunk *= conic._BACKTRACK
        assert np.array_equal(xn[0][0, 0], np.eye(2) + shrunk * (-2.0 * np.eye(2)))
        assert np.array_equal(xn[0][1, 0], 0.5 * np.eye(2))
        assert np.array_equal(sn[0], s[0])
        assert np.array_equal(yn, y + dy)
        lx, ls = factors[0]
        assert np.array_equal(lx, np.linalg.cholesky(xn[0]))
        assert np.array_equal(ls, np.linalg.cholesky(sn[0]))

    def test_a_failing_block_shrinks_its_instance_step_on_every_block(self):
        # Two 2 x 2 blocks, one group (k = 2), two instances. A full step
        # leaves block 0 at I and takes block 1 of instance 0 to -I, of
        # instance 1 to I/2.
        problem = ConicProblem(
            blocks=(Block("sdp", 2), Block("sdp", 2)),
            objective=(np.eye(2), np.eye(2)),
            constraints=(Constraint((np.eye(2), np.eye(2)), 4.0),),
        )
        std = conic._Standardized([problem, problem])
        assert [g.item for g in std.groups] == [(2, 2, 2)]
        eye, zero = np.eye(2), np.zeros((2, 2))
        x, s = std.grouped([[eye, eye], [eye, eye]]), std.grouped([[eye, eye], [eye, eye]])
        y, dy = np.zeros((2, 1)), np.ones((2, 1))
        dx = std.grouped([[zero, zero], [-2.0 * eye, -0.5 * eye]])
        ds = std.grouped([[zero, zero], [zero, zero]])
        xn, sn, yn, factors = conic._step(std, x, s, y, dx, ds, dy, np.ones((2, 2)))
        # Instance 0 takes 0.8^4 of its step on both blocks, the first that
        # keeps block 1 PD; instance 1 and y take their full steps.
        shrunk = 1.0
        for _ in range(4):
            shrunk *= conic._BACKTRACK
        assert np.array_equal(xn[0][0, 0], eye)
        assert np.array_equal(xn[0][0, 1], eye + shrunk * (-2.0 * eye))
        assert xn[0][0, 1, 0, 0] == pytest.approx(0.1808, abs=1e-15)
        assert np.array_equal(xn[0][1], [eye, 0.5 * eye])
        assert np.array_equal(sn[0], s[0])
        assert np.array_equal(yn, y + dy)
        lx, ls = factors[0]
        assert np.array_equal(lx, np.linalg.cholesky(xn[0]))
        assert np.array_equal(ls, np.linalg.cholesky(sn[0]))

    def test_a_failing_lp_entry_shrinks_only_its_instance_step(self):
        # One 2-entry LP block, two instances. A full step takes instance
        # 0's first entry to -1 and instance 1's to 1/2.
        problem = ConicProblem(
            blocks=(Block("lp", 2),),
            objective=(np.ones(2),),
            constraints=(Constraint((np.ones(2),), 2.0),),
        )
        std = conic._Standardized([problem, problem])
        assert [g.sdp for g in std.groups] == [False]
        one = np.ones(2)
        x, s = std.grouped([[one, one]]), std.grouped([[one, one]])
        y, dy = np.zeros((2, 1)), np.ones((2, 1))
        dx = std.grouped([[np.array([-2.0, 0.0]), np.array([-0.5, 0.0])]])
        ds = std.grouped([[np.zeros(2), np.zeros(2)]])
        xn, sn, yn, factors = conic._step(std, x, s, y, dx, ds, dy, np.ones((2, 2)))
        # Instance 0 takes 0.8^4 of its step, the first that keeps its
        # entries positive; instance 1 and y take their full steps.
        shrunk = 1.0
        for _ in range(4):
            shrunk *= conic._BACKTRACK
        assert np.array_equal(xn[0][0], one + shrunk * np.array([-2.0, 0.0]))
        assert xn[0][0, 0] == pytest.approx(0.1808, abs=1e-15)
        assert np.array_equal(xn[0][1], [0.5, 1.0])
        assert np.array_equal(sn[0], s[0])
        assert np.array_equal(yn, y + dy)
        assert factors == {}

    def test_bounded_number_of_shrinks(self):
        std, x, s, y = self.batch_of_two()
        ds = std.grouped([[-1e12 * np.eye(2), np.zeros((2, 2))]])
        dx = std.grouped([[np.zeros((2, 2)), np.zeros((2, 2))]])
        with pytest.raises(SolverFailure, match="left the cone"):
            conic._step(std, x, s, y, dx, ds, np.zeros((2, 1)), np.ones((2, 2)))

    @pytest.mark.parametrize("scale", [1 - 1e-15, 1 - 1e-14, 1 - 5e-14])
    def test_perturbed_step_solves_criterion_9_problem_21(self, monkeypatch, scale):
        # The jammed problem 21 of tests/test_acceptance.py's criterion 9
        # (seed 31337, gap_tol 1e-9): without backtracking, a step shortened
        # by 1e-14 or 5e-14 relative broke down on a failed Cholesky.
        monkeypatch.setattr(conic, "_STEP_TO_BOUNDARY", 0.98 * scale)
        rng = np.random.default_rng(31337)
        problem = [random_problem(rng) for _ in range(22)][21]
        sol = solve(problem, gap_tol=1e-9, feas_tol=1e-9, max_iter=200)
        assert sol.status == "optimal"
        assert sol.gap <= 1e-8


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(31415)
        prob = random_problem(rng)
        doc = problem_to_json(prob)
        text = json.dumps(doc)
        back = problem_from_json(json.loads(text))
        assert back.blocks == prob.blocks
        sa, sb = solve(prob), solve(back)
        assert sa.primal_value == sb.primal_value

    def test_solution_serializable(self):
        prob = ConicProblem(
            blocks=(Block("lp", 2),),
            objective=(np.ones(2),),
            constraints=(Constraint((np.ones(2),), 1.0, "eq"),),
        )
        sol = solve(prob)
        doc = solution_to_json(sol)
        text = json.dumps(doc)
        assert json.loads(text)["status"] == "optimal"
