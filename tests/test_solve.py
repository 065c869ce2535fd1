import dataclasses

import numpy as np
import pytest

from conftest import TAU, WEIGHTS
from rsmopt.cli import build_program
from rsmopt.fit import predict, unit_variance
from rsmopt.model import Region
from rsmopt.programs import (
    MethodConfig,
    ScalarProgram,
    kataoka_epsilon,
    mean_weighting,
    modified_e_epsilon,
    modified_e_weighting,
    p_model_weighting,
    v_model,
)
from rsmopt import solve
from rsmopt.solve import (
    FEASIBILITY_TOL,
    GRID_CHUNK,
    SolveResult,
    _better,
    _grid_chunks,
    _region_grid,
    _value_and_jacobian,
    grid_search,
    multistart,
    nelder_mead,
    pareto_front,
    penalty_solve,
    slsqp,
)


def constant_program():
    return ScalarProgram(
        objective=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        region=Region.unit_cube(3),
        descriptor="constant",
    )


class TestGridSearch:
    def test_v_model_paper_row(self, example_model):
        prog = v_model(example_model, MethodConfig(variance_scale=32))
        res = grid_search(prog, 0.05)
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-12)
        assert res.f_star == pytest.approx(1.0)

    def test_constant_objective_tie_break(self):
        res = grid_search(constant_program(), 0.5)
        assert res.x_star.tolist() == [-1, -1, -1]

    def test_scaling_does_not_move_argmin(self, example_model):
        x_ref = None
        for scale in (1.0, 32.0, 1000.0):
            prog = v_model(example_model, MethodConfig(variance_scale=scale))
            res = grid_search(prog, 0.25)
            if x_ref is None:
                x_ref = res.x_star
            assert np.allclose(res.x_star, x_ref)

    def test_grid_too_large(self):
        with pytest.raises(ValueError, match="grid too large"):
            grid_search(constant_program(), 1e-4)

    def test_chunks_keep_lexicographic_order_at_any_size(self):
        axes = [np.linspace(-1, 1, 5), np.linspace(0, 1, 3), np.linspace(-2, 2, 7)]
        want = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        for chunk in (7, GRID_CHUNK):
            got = np.concatenate(list(_grid_chunks(axes, chunk)))
            assert np.array_equal(got, want)

    def test_results_do_not_depend_on_the_chunk_size(self, example_model, run_config,
                                                      monkeypatch):
        programs = [build_program(example_model, spec, run_config.region)
                    for spec in run_config.methods]
        assert len(programs) == 8
        results = {}
        for chunk in (7, GRID_CHUNK, 65_536):
            monkeypatch.setattr(solve, "GRID_CHUNK", chunk)
            results[chunk] = [grid_search(p, 0.1) for p in programs]
        for chunk in (7, 65_536):
            for got, want in zip(results[chunk], results[GRID_CHUNK]):
                assert got.x_star.tolist() == want.x_star.tolist()
                assert got.f_star == want.f_star
                assert got.evaluations == want.evaluations == 21**3
                assert got.constraint_residuals.tolist() == want.constraint_residuals.tolist()

    def test_region_grid_keeps_the_ball_nodes_in_order_at_any_size(self, monkeypatch):
        region = Region.hypersphere(1.0, dim=3)
        axes = [np.linspace(-1, 1, 9)] * 3
        box = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        want = box[np.einsum("ij,ij->i", box, box) <= 1.0]
        for chunk in (7, GRID_CHUNK):
            monkeypatch.setattr(solve, "GRID_CHUNK", chunk)
            chunks = list(_region_grid(region, 0.25))
            assert all(len(c) for c in chunks)
            assert np.array_equal(np.concatenate(chunks), want)

    def test_nan_objective_is_rejected(self):
        all_nan = ScalarProgram(
            objective=lambda x: np.full(np.asarray(x).shape[:-1], np.nan),
            region=Region.unit_cube(2),
            descriptor="all nan",
        )
        with pytest.raises(ValueError, match="NaN"):
            grid_search(all_nan, 0.5)
        one_nan = ScalarProgram(
            objective=lambda x: np.where(x[..., 0] > 0.7, np.nan, x[..., 1]),
            region=Region.unit_cube(2),
            descriptor="one nan",
        )
        with pytest.raises(ValueError, match=r"NaN at grid node \[1\.0, -1\.0\]"):
            grid_search(one_nan, 0.5)

    def test_ball_without_grid_nodes(self, example_model):
        prog = v_model(example_model, region=Region.hypersphere(0.05, dim=3))
        with pytest.raises(ValueError, match="no grid node"):
            grid_search(prog, 0.1)
        with pytest.raises(ValueError, match="no grid node"):
            multistart(prog, k=2, seed=0)

    def test_hypersphere_rejection(self, example_model):
        prog = v_model(example_model, MethodConfig(variance_scale=1.0),
                       region=Region.hypersphere(1.0, dim=3))
        res = grid_search(prog, 0.25)
        assert float(res.x_star @ res.x_star) <= 1.0
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-12)


class TestNelderMead:
    def test_quadratic_bowl(self, example_model):
        prog = v_model(example_model)
        res = nelder_mead(prog, np.array([0.5, 0.5, 0.5]))
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-4)

    def test_never_worse_than_start(self, example_model):
        prog = modified_e_weighting(
            example_model,
            MethodConfig(w=WEIGHTS, r1=0.5, r2=0.5, variance_scale=32),
        )
        x0 = np.array([0.9, -0.9, 0.9])
        res = nelder_mead(prog, x0)
        assert res.f_star <= float(prog.objective(x0))

    def test_start_at_optimum(self, example_model):
        prog = v_model(example_model)
        res = nelder_mead(prog, np.zeros(3))
        assert res.converged
        assert res.f_star <= float(prog.objective(np.zeros(3)))

    def test_paper_modified_e_weighting(self, example_model):
        prog = modified_e_weighting(
            example_model,
            MethodConfig(w=WEIGHTS, r1=0.5, r2=0.5, variance_scale=32),
        )
        warm = grid_search(prog, 0.1)
        res = nelder_mead(prog, warm.x_star)
        assert res.f_star == pytest.approx(39.588, abs=0.02)

    def test_objective_sees_only_points_in_the_box(self, example_model):
        seen = []
        base = v_model(example_model).objective
        prog = ScalarProgram(
            objective=lambda x: seen.append(np.array(x)) or base(x),
            region=Region.hypercube([-1, 0, -1], [1, 0.5, 1]),
            descriptor="recorded",
        )
        nelder_mead(prog, np.array([0.9, 0.4, -0.9]))
        assert len(seen) > 10
        assert all(prog.region.contains(x) for x in seen)

    def test_stays_in_region(self, example_model):
        prog = v_model(example_model)
        res = nelder_mead(prog, np.array([1.0, 1.0, 1.0]))
        assert prog.region.contains(res.x_star, atol=1e-9)


class TestSlsqp:
    def test_objective_sees_only_points_in_the_box(self, example_model):
        seen = []
        base = v_model(example_model).objective
        prog = ScalarProgram(
            objective=lambda x: seen.append(np.array(x)) or base(x),
            region=Region.hypercube([-1, 0, -1], [1, 0.5, 1]),
            descriptor="recorded",
            smooth=True,
        )
        # the start is clipped onto the upper face in x2, where every
        # difference step in x2 has to go backward
        res = slsqp(prog, np.array([0.9, 0.7, -0.9]))
        rows = np.concatenate([np.atleast_2d(x) for x in seen])
        assert len(seen) > 2 and rows.shape[1] == 3
        assert all(prog.region.contains(x) for x in rows)
        assert res.evaluations == len(rows)

    def test_never_worse_than_start(self, example_model):
        prog = modified_e_weighting(
            example_model,
            MethodConfig(w=WEIGHTS, r1=0.5, r2=0.5, variance_scale=32),
        )
        for x0 in ([0.9, -0.9, 0.9], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]):
            x0 = np.array(x0)
            res = slsqp(prog, x0)
            assert res.converged
            assert res.f_star <= float(prog.objective(x0))
            assert res.f_star == pytest.approx(float(prog.objective(res.x_star)), rel=1e-14)

    def test_keeps_the_start_when_every_later_point_is_worse(self):
        # x0 sits on a kink, where the forward differences mislead
        kinked = ScalarProgram(
            objective=lambda x: np.abs(x[..., 0] - 0.3) + 0.1 * x[..., 1] ** 2,
            region=Region.unit_cube(2),
            descriptor="kink at x0",
            smooth=True,
        )
        res = slsqp(kinked, np.array([0.3, 0.0]))
        assert res.f_star == 0.0
        assert res.x_star.tolist() == [0.3, 0.0]

    def test_v_model_origin(self, example_model):
        prog = v_model(example_model, MethodConfig(variance_scale=32))
        res = slsqp(prog, np.array([0.5, -0.5, 0.9]))
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-5)
        assert res.f_star == pytest.approx(1.0, abs=1e-9)

    def test_paper_modified_e_weighting(self, example_model):
        prog = modified_e_weighting(
            example_model,
            MethodConfig(w=WEIGHTS, r1=0.5, r2=0.5, variance_scale=32),
        )
        warm = grid_search(prog, 0.1)
        res = slsqp(prog, warm.x_star)
        assert res.f_star == pytest.approx(39.5895, abs=1e-4)
        assert res.f_star <= nelder_mead(prog, warm.x_star).f_star + 1e-9

    def test_ball_is_an_inequality(self, example_model):
        # the weighted mean falls toward the corner (1, -1, 1), outside the
        # ball, so the optimum lies on the sphere
        prog = mean_weighting(example_model, MethodConfig(w=WEIGHTS),
                              region=Region.hypersphere(1.2, dim=3))
        res = slsqp(prog, np.zeros(3))
        assert float(np.linalg.norm(res.x_star)) == pytest.approx(1.2, abs=1e-9)
        assert prog.region.contains(res.x_star, atol=1e-12)
        assert res.f_star <= grid_search(prog, 0.05).f_star

    def test_shares_one_batch_per_point(self, example_model):
        prog = kataoka_epsilon(
            example_model, MethodConfig(tau=TAU, primary=2, confidence=0.95)
        )
        batches = []

        def score(x):
            batches.append(np.array(x))
            return prog.score(x)

        res = slsqp(dataclasses.replace(prog, score=score), np.array([0.2, -0.3, 0.4]))
        assert all(b.shape == (4, 3) for b in batches)
        assert res.evaluations == 4 * len(batches)
        # SLSQP asks for the objective, the constraints and both
        # derivatives at each point; the memo answers all but the first
        bases = [b[0].tolist() for b in batches]
        assert all(a != b for a, b in zip(bases, bases[1:]))


class TestBatchedGradient:
    # f(x) = sum_i c_i (x_i - a_i)^2 + x_0 x_1, gradient in closed form
    c = np.array([1.0, 3.0, 0.5])
    a = np.array([0.2, -0.4, 0.7])

    def f(self, x):
        return ((x - self.a) ** 2) @ self.c + x[..., 0] * x[..., 1]

    def grad(self, x):
        return 2 * self.c * (x - self.a) + np.array([x[1], x[0], 0.0])

    points = pytest.mark.parametrize("x", [
        [0.3, -0.2, 0.1],
        [1.0, 1.0, 1.0],     # every forward step would leave the box
        [-1.0, 0.999999999, 1.0],
        [2.5, -3.0, 0.0],    # steps scale with |x_i|
    ])

    @points
    def test_matches_closed_form(self, x):
        x = np.array(x)
        upper = np.maximum(x, 1.0)
        calls = []

        def fn(pts):
            calls.append(pts)
            return self.f(pts)

        (f,), (g,) = _value_and_jacobian(fn, x, upper)
        assert len(calls) == 1 and calls[0].shape == (4, 3)
        assert np.all(calls[0] <= upper)
        assert f == pytest.approx(self.f(x), rel=1e-14)
        assert g == pytest.approx(self.grad(x), abs=1e-6)

    @points
    def test_residual_jacobian(self, x):
        # residuals x0 x2 - 1 and x1^2 next to f, as a (batch, 3) array
        x = np.array(x)
        upper = np.maximum(x, 1.0)

        def fn(pts):
            return np.column_stack([self.f(pts), pts[:, 0] * pts[:, 2] - 1, pts[:, 1] ** 2])

        values, jac = _value_and_jacobian(fn, x, upper)
        assert values == pytest.approx([self.f(x), x[0] * x[2] - 1, x[1] ** 2], rel=1e-14)
        assert jac.shape == (3, 3)
        assert jac[0] == pytest.approx(self.grad(x), abs=1e-6)
        assert jac[1] == pytest.approx([x[2], 0.0, x[0]], abs=1e-6)
        assert jac[2] == pytest.approx([0.0, 2 * x[1], 0.0], abs=1e-6)


def first_order_gap(prog, x, h=1e-6):
    """Norm of the part of grad f at x outside the span of the constraint
    gradients and the active bound normals, over |grad f|, and whether
    every bound multiplier has the sign a minimum needs; all derivatives
    by central differences."""
    lo, hi = prog.region.bounding_box()
    eye = np.eye(x.size)

    def grad(fn):
        out = []
        for e in eye:  # one-sided where x sits on a bound
            up, down = np.clip(x + h * e, lo, hi), np.clip(x - h * e, lo, hi)
            out.append((float(fn(up)) - float(fn(down))) / ((up - down) @ e))
        return np.array(out)

    g = grad(prog.objective)
    at_lo, at_hi = np.isclose(x, lo, atol=1e-9), np.isclose(x, hi, atol=1e-9)
    basis = [grad(c) for c in prog.eq_constraints] + list(eye[at_lo | at_hi])
    coef, *_ = np.linalg.lstsq(np.array(basis).T, g, rcond=None)
    gap = np.linalg.norm(g - np.array(basis).T @ coef) / np.linalg.norm(g)
    # grad f = sum lambda_j grad g_j + mu_i e_i: mu >= 0 on a lower bound,
    # <= 0 on an upper one
    mu = coef[len(prog.eq_constraints):]
    signs = np.where(at_lo[at_lo | at_hi], mu >= -1e-6, mu <= 1e-6)
    return gap, bool(np.all(signs))


class TestPolishDispatch:
    @staticmethod
    def refuse(monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(solve, name, refuse)

    def test_smooth_flags(self, run_config, example_model):
        for spec in run_config.methods:
            prog = build_program(example_model, spec, run_config.region)
            assert prog.smooth == (spec.name != "goal-programming")
            assert (prog.goals is not None) == (spec.name == "goal-programming")
        assert not constant_program().smooth

    @pytest.mark.parametrize("region", [None, Region.hypersphere(1.2, dim=3)],
                             ids=["box", "ball"])
    def test_built_in_methods_never_reach_nelder_mead(self, run_config, example_model,
                                                      monkeypatch, region):
        self.refuse(monkeypatch, "nelder_mead")
        for spec in run_config.methods:
            prog = build_program(example_model, spec, region or run_config.region)
            res = multistart(prog, k=2, seed=0)
            assert prog.region.contains(res.x_star, atol=1e-12)

    def test_hand_built_nonsmooth_program_runs_nelder_mead(self, example_model,
                                                           monkeypatch):
        self.refuse(monkeypatch, "slsqp")
        calls = []
        real = solve.nelder_mead
        monkeypatch.setattr(solve, "nelder_mead",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        prog = ScalarProgram(objective=v_model(example_model).objective,
                             region=Region.unit_cube(3), descriptor="hand-built")
        res = multistart(prog, k=2, seed=0)
        assert len(calls) == 3  # the coarse-grid incumbent and two starts
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-4)

    @pytest.mark.parametrize("name", ["modified-e-epsilon", "p-model-epsilon",
                                      "kataoka-epsilon"])
    def test_exact_solve_meets_first_order_conditions(self, run_config, example_model,
                                                      name):
        spec = next(m for m in run_config.methods if m.name == name)
        prog = build_program(example_model, spec, run_config.region)
        res = multistart(prog, k=4, seed=0)
        assert res.converged
        assert np.max(res.constraint_residuals) <= 1e-9
        gap, signs = first_order_gap(prog, res.x_star)
        assert gap < 1e-5 and signs

    @pytest.mark.parametrize("name", ["modified-e-epsilon", "p-model-epsilon",
                                      "kataoka-epsilon"])
    def test_penalty_stages_agree_with_nelder_mead(self, run_config, example_model,
                                                   name):
        # an independent check of the exact solve: Nelder-Mead on the
        # quadratic-penalty objective f + mu * sum(g^2), each stage warm
        # started from the last; the penalty minimum undercuts the
        # constrained one by O(1 / mu), about 7e-7 in F at mu = 1e7
        spec = next(m for m in run_config.methods if m.name == name)
        prog = build_program(example_model, spec, run_config.region)
        x0 = grid_search(prog, 0.1).x_star
        exact = penalty_solve(prog, x0)
        x, evaluations = x0, 0
        for mu in (1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7):
            stage = nelder_mead(ScalarProgram(objective=solve._penalized(prog, mu),
                                              region=prog.region,
                                              descriptor=f"{name} at mu={mu:g}",
                                              smooth=False), x)
            x, evaluations = stage.x_star, evaluations + stage.evaluations
        simplex_f = float(prog.objective(x))
        assert exact.converged
        assert exact.f_star == pytest.approx(simplex_f, abs=1e-6)
        assert simplex_f <= exact.f_star + 1e-9
        assert exact.x_star == pytest.approx(x, abs=1e-3)
        assert np.max(exact.constraint_residuals) < np.max(solve._residuals_at(prog, x))
        assert exact.evaluations < evaluations


class TestPenaltySolve:
    def test_requires_constraints(self, example_model):
        with pytest.raises(ValueError):
            penalty_solve(v_model(example_model), np.zeros(3))

    def test_kataoka_epsilon_paper_value(self, example_model):
        prog = kataoka_epsilon(
            example_model, MethodConfig(tau=TAU, primary=2, confidence=0.95)
        )
        res = penalty_solve(prog, grid_search(prog, 0.1).x_star)
        assert res.converged
        assert res.f_star == pytest.approx(67.296, abs=0.05)

    def test_feasible_by_construction(self, example_model):
        x0 = np.array([0.25, -0.5, 0.75])
        target = predict(example_model, x0)[0]
        prog = ScalarProgram(
            objective=lambda x: np.asarray(unit_variance(example_model, x)),
            eq_constraints=(
                lambda x: predict(example_model, x)[..., 0] - target,
            ),
            region=Region.unit_cube(3),
            descriptor="pinned mean",
        )
        res = penalty_solve(prog, x0)
        assert res.converged
        assert np.max(res.constraint_residuals) < 1e-6

    def test_infeasible_targets_flagged(self, example_model):
        prog = modified_e_epsilon(
            example_model, MethodConfig(tau=[200.0, 0.0], variance_scale=32)
        )
        res = penalty_solve(prog, grid_search(prog, 0.1).x_star)
        assert not res.converged
        assert np.max(res.constraint_residuals) > 1e-2

    def test_residuals_non_increasing(self, example_model):
        # start -> solve -> solve again from the result: the largest
        # residual never grows along the sequence, reachable targets or not
        for tau in (TAU, [200.0, 0.0]):
            prog = modified_e_epsilon(example_model,
                                      MethodConfig(tau=tau, variance_scale=32))
            for x0 in [grid_search(prog, 0.1).x_star, *solve._start_points(prog, 4, 0)]:
                x = prog.region.clip(x0)
                residuals = [np.max(solve._residuals_at(prog, x))]
                for _ in range(2):
                    x = penalty_solve(prog, x).x_star
                    residuals.append(np.max(solve._residuals_at(prog, x)))
                for earlier, later in zip(residuals, residuals[1:]):
                    assert later <= earlier + 1e-9 * max(1.0, earlier)

    def test_stagnating_infeasible_sequence_stops(self, example_model):
        prog = modified_e_epsilon(
            example_model, MethodConfig(tau=[200.0, 0.0], variance_scale=32)
        )
        batches = []
        recording = dataclasses.replace(
            prog, score=lambda x: batches.append(np.shape(x)) or prog.score(x))
        x0 = grid_search(prog, 0.1).x_star
        res = penalty_solve(recording, x0)
        # SLSQP ends at its limit of 100 iterations, each scoring its point
        # and a few line-search points, one (n + 1)-point batch apiece
        assert not res.converged
        assert batches and all(shape == (4, 3) for shape in batches)
        assert res.evaluations == 4 * len(batches) < 10_000
        r0 = np.max(solve._residuals_at(prog, x0))
        assert np.max(res.constraint_residuals) <= r0 + 1e-9 * r0


class TestBall:
    """The configured methods on a ball of radius 1.2, as ``rsmopt report``
    runs them there."""

    @pytest.fixture(scope="class")
    def ball_solution(self, run_config, example_model):
        def solve_on_ball(name):
            spec = next(m for m in run_config.methods if m.name == name)
            prog = build_program(example_model, spec, Region.hypersphere(1.2, dim=3))
            return multistart(prog, k=run_config.solver.multistart_k,
                              seed=run_config.solver.seed)

        return solve_on_ball

    @pytest.mark.parametrize("name, f_star", [("p-model-epsilon", 5.77866),
                                              ("kataoka-epsilon", 67.20254)])
    def test_epsilon_methods_are_exact(self, ball_solution, name, f_star):
        res = ball_solution(name)
        assert res.converged
        assert np.max(res.constraint_residuals) <= 1e-9
        assert float(np.linalg.norm(res.x_star)) <= 1.2 + 1e-9
        assert res.f_star == pytest.approx(f_star, abs=1e-4)

    def test_goal_programming(self, ball_solution):
        res = ball_solution("goal-programming")
        assert float(np.linalg.norm(res.x_star)) <= 1.2 + 1e-9
        assert res.f_star <= 0.0631706 + 1e-9

    def test_unreachable_targets_are_not_converged(self, ball_solution):
        res = ball_solution("modified-e-epsilon")
        assert not res.converged
        assert np.max(res.constraint_residuals) > FEASIBILITY_TOL


class TestMultistart:
    def test_dominates_oracle_unconstrained(self, example_model):
        prog = p_model_weighting(example_model, MethodConfig(tau=TAU, w=WEIGHTS))
        oracle = grid_search(prog, 0.02)
        res = multistart(prog, k=8, seed=0)
        assert res.f_star <= oracle.f_star + 1e-6

    def test_seed_determinism(self, example_model):
        prog = modified_e_weighting(
            example_model,
            MethodConfig(w=WEIGHTS, r1=0.5, r2=0.5, variance_scale=32),
        )
        a = multistart(prog, k=4, seed=42)
        b = multistart(prog, k=4, seed=42)
        assert a.f_star == b.f_star
        assert a.x_star.tolist() == b.x_star.tolist()

    def test_k1_from_oracle_never_worse(self, example_model):
        prog = v_model(example_model, MethodConfig(variance_scale=32))
        oracle = grid_search(prog, 0.1)
        res = multistart(prog, k=1, seed=0)
        assert res.f_star <= oracle.f_star + 1e-12

    def test_close_f_values_tie_and_the_more_feasible_start_wins(self):
        def result(f, residual, x=0.0):
            return SolveResult(x_star=np.array([x]), f_star=f,
                               constraint_residuals=np.array([residual]),
                               evaluations=1, converged=True)

        exact, bought = result(67.20254029066, 3e-14), result(67.20254027982, 1e-8)
        assert _better(exact, bought) and not _better(bought, exact)
        lower = result(67.2024, 1e-8)
        assert _better(lower, exact)
        assert _better(result(1.0, 0.0, x=-1.0), result(1.0, 0.0, x=1.0))
        assert not _better(dataclasses.replace(exact, converged=False), bought)

    def test_result_in_region(self, example_model):
        prog = modified_e_epsilon(
            example_model, MethodConfig(tau=TAU, variance_scale=32)
        )
        res = multistart(prog, k=4, seed=0)
        assert prog.region.contains(res.x_star, atol=1e-9)


def box_nodes(region, resolution):
    lo, hi = region.bounding_box()
    axes = [np.linspace(a, b, int(round((b - a) / resolution)) + 1)
            for a, b in zip(lo, hi)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def brute_force_front(objectives, pts):
    """Rows of pts, in order, that no row with a different vector weakly
    dominates, by comparing every pair."""
    vals = np.stack([np.asarray(f(pts), dtype=float) for f in objectives], axis=-1)
    dominated = np.zeros(len(vals), dtype=bool)
    for lo in range(0, len(vals), 1024):  # blocks of rows keep memory small
        block = vals[lo:lo + 1024]
        weak = np.ones((len(block), len(vals)), dtype=bool)
        strict = np.zeros_like(weak)
        for k in range(vals.shape[1]):
            weak &= vals[:, k] <= block[:, k, None]
            strict |= vals[:, k] < block[:, k, None]
        dominated[lo:lo + 1024] = np.any(weak & strict, axis=1)
    return pts[~dominated], vals[~dominated]


def assert_front_equals(front, want_pts, want_vals):
    assert len(front.points) == len(want_pts)
    for (x, v), x_want, v_want in zip(front.points, want_pts, want_vals):
        assert np.array_equal(x, x_want)
        assert np.array_equal(v, v_want)


class TestParetoFront:
    @staticmethod
    def objective_sets(model):
        w = np.asarray(WEIGHTS)
        return {
            "weighted mean and variance": [lambda x: predict(model, x) @ w,
                                           lambda x: unit_variance(model, x)],
            "Y1 and Y2": [lambda x: predict(model, x)[..., 0],
                          lambda x: predict(model, x)[..., 1]],
            "identical": [lambda x: x[..., 0] ** 2] * 2,
        }

    @pytest.mark.parametrize("case, resolution, size", [
        ("weighted mean and variance", 0.1, 106),
        ("Y1 and Y2", 0.1, None),
        # every node with x1 = 0 ties at (0, 0); all 5 x 5 of them are kept
        ("identical", 0.5, 25),
    ])
    def test_equals_brute_force(self, example_model, case, resolution, size):
        objs = self.objective_sets(example_model)[case]
        region = Region.unit_cube(3)
        front = pareto_front(objs, region, resolution)
        assert_front_equals(front, *brute_force_front(objs, box_nodes(region, resolution)))
        if size is not None:
            assert len(front.points) == size

    def test_ball_region(self, example_model):
        objs = self.objective_sets(example_model)["weighted mean and variance"]
        region = Region.hypersphere(1.0, dim=3)
        front = pareto_front(objs, region, 0.1)
        assert all(float(x @ x) <= 1.0 for x, _ in front.points)
        nodes = box_nodes(region, 0.1)
        nodes = nodes[np.einsum("ij,ij->i", nodes, nodes) <= 1.0]
        assert_front_equals(front, *brute_force_front(objs, nodes))

    def test_ball_without_grid_nodes(self, example_model):
        objs = self.objective_sets(example_model)["Y1 and Y2"]
        with pytest.raises(ValueError, match="no grid node"):
            pareto_front(objs, Region.hypersphere(0.05, dim=3), 0.1)

    @staticmethod
    def pairwise_nondominance(points):
        vals = [v for _, v in points]
        for i, a in enumerate(vals):
            for j, b in enumerate(vals):
                if i != j:
                    assert not (np.all(b <= a) and np.any(b < a))

    def test_front_of_example_responses(self, example_model):
        objs = [
            lambda x: predict(example_model, x)[..., 0],
            lambda x: predict(example_model, x)[..., 1],
        ]
        front = pareto_front(objs, Region.unit_cube(3), 0.1)
        assert front.points
        self.pairwise_nondominance(front.points)
        # no surviving point may be dominated by the known corner point
        corner = predict(example_model, np.array([1.0, -1.0, 1.0]))
        for _, v in front.points:
            assert not (np.all(corner <= v - 1e-9) and np.any(corner < v - 1e-9))
        # the origin is dominated by the corner, so it cannot survive
        origin_val = predict(example_model, np.zeros(3))
        assert np.all(corner <= origin_val) and np.any(corner < origin_val)
        assert not any(np.allclose(x, 0.0) for x, _ in front.points)

    def test_identical_objectives_keep_minimizers(self, example_model):
        obj = lambda x: np.asarray(unit_variance(example_model, x))
        front = pareto_front([obj, obj], Region.unit_cube(3), 0.5)
        best = min(float(v[0]) for _, v in front.points)
        for _, v in front.points:
            assert float(v[0]) == pytest.approx(best)
        assert any(np.allclose(x, 0.0) for x, _ in front.points)

    def test_proportional_variances_collapse(self, example_model):
        sigma = np.diag(example_model.sigma_hat)
        objs = [
            lambda x, k=k: np.asarray(unit_variance(example_model, x)) * sigma[k]
            for k in range(2)
        ]
        front = pareto_front(objs, Region.unit_cube(3), 0.5)
        assert len(front.points) == 1
        assert np.allclose(front.points[0][0], 0.0)

    def test_needs_two_objectives(self, example_model):
        with pytest.raises(ValueError):
            pareto_front([lambda x: x[..., 0]], Region.unit_cube(3), 0.5)
