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
    modified_e_epsilon,
    modified_e_weighting,
    p_model_weighting,
    v_model,
)
from rsmopt import solve
from rsmopt.solve import (
    GRID_CHUNK,
    _grid_chunks,
    _region_grid,
    _value_and_gradient,
    grid_search,
    lbfgsb,
    multistart,
    nelder_mead,
    pareto_front,
    penalty_solve,
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


class TestLbfgsb:
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
        res = lbfgsb(prog, np.array([0.9, 0.7, -0.9]))
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
            res = lbfgsb(prog, x0)
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
        res = lbfgsb(kinked, np.array([0.3, 0.0]))
        assert res.f_star == 0.0
        assert res.x_star.tolist() == [0.3, 0.0]

    def test_v_model_origin(self, example_model):
        prog = v_model(example_model, MethodConfig(variance_scale=32))
        res = lbfgsb(prog, np.array([0.5, -0.5, 0.9]))
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-5)
        assert res.f_star == pytest.approx(1.0, abs=1e-9)

    def test_paper_modified_e_weighting(self, example_model):
        prog = modified_e_weighting(
            example_model,
            MethodConfig(w=WEIGHTS, r1=0.5, r2=0.5, variance_scale=32),
        )
        warm = grid_search(prog, 0.1)
        res = lbfgsb(prog, warm.x_star)
        assert res.f_star == pytest.approx(39.588, abs=0.02)
        assert res.f_star <= nelder_mead(prog, warm.x_star).f_star + 1e-9

    def test_ball_is_rejected(self, example_model):
        prog = v_model(example_model, region=Region.hypersphere(1.0, dim=3))
        with pytest.raises(ValueError, match="hypercube"):
            lbfgsb(prog, np.zeros(3))


class TestBatchedGradient:
    # f(x) = sum_i c_i (x_i - a_i)^2 + x_0 x_1, gradient in closed form
    c = np.array([1.0, 3.0, 0.5])
    a = np.array([0.2, -0.4, 0.7])

    def f(self, x):
        return ((x - self.a) ** 2) @ self.c + x[..., 0] * x[..., 1]

    def grad(self, x):
        return 2 * self.c * (x - self.a) + np.array([x[1], x[0], 0.0])

    @pytest.mark.parametrize("x", [
        [0.3, -0.2, 0.1],
        [1.0, 1.0, 1.0],     # every forward step would leave the box
        [-1.0, 0.999999999, 1.0],
        [2.5, -3.0, 0.0],    # steps scale with |x_i|
    ])
    def test_matches_closed_form(self, x):
        x = np.array(x)
        upper = np.maximum(x, 1.0)
        calls = []

        def fn(pts):
            calls.append(pts)
            return self.f(pts)

        f, g = _value_and_gradient(fn, x, upper)
        assert len(calls) == 1 and calls[0].shape == (4, 3)
        assert np.all(calls[0] <= upper)
        assert f == pytest.approx(self.f(x), rel=1e-14)
        assert g == pytest.approx(self.grad(x), abs=1e-6)


class TestPolishDispatch:
    @staticmethod
    def refuse_lbfgsb(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("lbfgsb called")

        monkeypatch.setattr(solve, "lbfgsb", refuse)

    def test_smooth_flags(self, run_config, example_model):
        for spec in run_config.methods:
            prog = build_program(example_model, spec, run_config.region)
            assert prog.smooth == (spec.name != "goal-programming")
        assert not constant_program().smooth

    def test_goal_programming_keeps_nelder_mead(self, run_config, example_model,
                                                monkeypatch):
        self.refuse_lbfgsb(monkeypatch)
        spec = next(m for m in run_config.methods if m.name == "goal-programming")
        prog = build_program(example_model, spec, run_config.region)
        res = multistart(prog, k=run_config.solver.multistart_k,
                         seed=run_config.solver.seed)
        assert res.evaluations == 15_377

    def test_ball_keeps_nelder_mead(self, run_config, example_model, monkeypatch):
        self.refuse_lbfgsb(monkeypatch)
        spec = next(m for m in run_config.methods if m.name == "p-model-epsilon")
        prog = build_program(example_model, spec, Region.hypersphere(1.2, dim=3))
        assert prog.smooth
        res = multistart(prog, k=4, seed=0)
        assert res.converged
        assert np.max(res.constraint_residuals) < 1e-4
        assert prog.region.contains(res.x_star, atol=1e-12)

    @pytest.mark.parametrize("name", ["modified-e-epsilon", "p-model-epsilon",
                                      "kataoka-epsilon"])
    def test_penalty_stages_agree_with_nelder_mead(self, run_config, example_model,
                                                   name):
        spec = next(m for m in run_config.methods if m.name == name)
        prog = build_program(example_model, spec, run_config.region)
        fast = multistart(prog, k=4, seed=0)
        simplex = multistart(dataclasses.replace(prog, smooth=False), k=4, seed=0)
        assert fast.converged and simplex.converged
        assert fast.f_star == pytest.approx(simplex.f_star, abs=1e-6)
        assert fast.x_star == pytest.approx(simplex.x_star, abs=1e-3)
        assert fast.evaluations < simplex.evaluations


class TestPenaltySolve:
    def test_requires_constraints(self, example_model):
        with pytest.raises(ValueError):
            penalty_solve(v_model(example_model))

    def test_kataoka_epsilon_paper_value(self, example_model):
        prog = kataoka_epsilon(
            example_model, MethodConfig(tau=TAU, primary_index=2, confidence=0.95)
        )
        res = penalty_solve(prog)
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
        res = penalty_solve(prog, x0=x0)
        assert res.converged
        assert np.max(res.constraint_residuals) < 1e-6

    def test_residuals_non_increasing(self, example_model):
        prog = modified_e_epsilon(
            example_model, MethodConfig(tau=TAU, variance_scale=32)
        )
        res = penalty_solve(prog)
        hist = res.residual_trace
        assert hist is not None and len(hist) >= 2
        for earlier, later in zip(hist, hist[1:]):
            assert later <= earlier + 1e-6

    def test_infeasible_targets_flagged(self, example_model):
        prog = modified_e_epsilon(
            example_model, MethodConfig(tau=[200.0, 0.0], variance_scale=32)
        )
        res = penalty_solve(prog)
        assert not res.converged
        assert np.max(res.constraint_residuals) > 1e-2


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
