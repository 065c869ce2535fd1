import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TAU, WEIGHTS
from rsmopt.cli import build_program
from rsmopt.fit import fit_ols, moments, predict, unit_variance
from rsmopt.model import Region, TermSpec, evaluate_basis
from rsmopt.programs import (
    METHODS,
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
    GRID_CHUNK,
    SolveResult,
    _better,
    _grid_axes,
    _nondominated_mask,
    _region_grid,
    _region_rows,
    _row_nodes,
    _value_and_jacobian,
    grid_search,
    multistart,
    nelder_mead,
    pareto_front,
    penalty_solve,
    sqp,
)


def constant_program():
    return ScalarProgram(
        objective=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        region=Region.unit_cube(3),
        descriptor="constant",
    )


@st.composite
def region_grids(draw):
    """A box or a ball in 1-4 factors over [-R, R], a resolution of R / k
    for k in 1-8 (so ball nodes fall on or next to the sphere), and a block
    of 1-60 nodes."""
    dim = draw(st.integers(1, 4))
    radius = draw(st.sampled_from([0.5, 1.0, 1.2, 8 ** 0.25]))
    if draw(st.booleans()):
        region = Region.hypersphere(radius, dim=dim)
    else:
        region = Region.hypercube([-radius] * dim, [radius] * dim)
    return region, radius / draw(st.integers(1, 8)), draw(st.integers(1, 60))


class TestGridSearch:
    def test_v_model_paper_row(self, example_model):
        prog = v_model(example_model)
        res = grid_search(prog, 0.05)
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-12)
        assert res.f_star == pytest.approx(1.0)

    def test_constant_objective_tie_break(self):
        res = grid_search(constant_program(), 0.5)
        assert res.x_star.tolist() == [-1, -1, -1]

    def test_scaling_does_not_move_argmin(self, example_model):
        """The v-model scores N*q; any other positive scale of q has the
        same grid argmin."""
        x_ref = grid_search(v_model(example_model), 0.25).x_star
        for scale in (1.0, 32.0, 1000.0):
            prog = ScalarProgram(
                objective=lambda x, s=scale: s * moments(example_model, x)[1],
                region=Region.unit_cube(3), descriptor=f"{scale} q")
            res = grid_search(prog, 0.25)
            assert np.allclose(res.x_star, x_ref)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 1000.0])
    @pytest.mark.parametrize("r1", [0.2, 0.5, 0.8])
    def test_r1_prime_gives_the_argmin_of_any_variance_scale(self, example_model,
                                                             scale, r1):
        """r1*(w.m) + (1 - r1)*s*q and r1'*(w.m) + (1 - r1')*N*q, for
        r1' = N r1 / (N r1 + s (1 - r1)), are proportional, so the E-model
        with r1' finds what any other variance scale s would."""
        n_obs = example_model.n_obs

        def scaled(x):
            m, q = moments(example_model, x)
            return r1 * (m @ WEIGHTS) + (1.0 - r1) * scale * q

        hand_built = ScalarProgram(objective=scaled, region=Region.unit_cube(3),
                                   descriptor=f"E-model at scale {scale}")
        r1_prime = n_obs * r1 / (n_obs * r1 + scale * (1.0 - r1))
        prog = modified_e_weighting(example_model, MethodConfig(w=WEIGHTS, r1=r1_prime))
        want = grid_search(hand_built, 0.05)
        got = grid_search(prog, 0.05)
        assert got.x_star.tolist() == want.x_star.tolist()
        assert got.f_star == pytest.approx(want.f_star * (1.0 - r1_prime) * n_obs
                                           / ((1.0 - r1) * scale), rel=1e-12)

    def test_grid_too_large(self):
        with pytest.raises(ValueError, match="grid too large"):
            grid_search(constant_program(), 1e-4)

    def test_node_count_does_not_wrap(self):
        # 21^15 nodes wrap to a negative count in int64
        program = dataclasses.replace(constant_program(), region=Region.unit_cube(15))
        with pytest.raises(ValueError, match="grid too large"):
            grid_search(program, 0.1)
        with pytest.raises(ValueError, match="grid too large"):
            pareto_front([program.objective] * 2, program.region, 0.1)

    @settings(max_examples=150, deadline=None)
    @given(case=region_grids())
    def test_region_rows_walk_the_masked_meshgrid(self, case):
        """The one grid walker against meshgrid and the norm test on the
        row-major nodes: same nodes in the same order, at most ``block``
        scored per block, and on a ball no row without a node inside."""
        region, resolution, block = case
        axes = _grid_axes(region, resolution)
        want = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        if region.kind == "hypersphere":
            want = want[np.einsum("ij,ij->i", want, want) <= region.radius**2]
        got = []
        for lead, t, inside in _region_rows(region, resolution, block):
            assert lead.shape[0] * t.size <= block
            nodes = _row_nodes(lead, t)
            if inside is not None:
                assert np.array_equal(np.unique(inside // t.size), np.arange(lead.shape[0]))
                nodes = nodes[inside]
            got.append(nodes)
        assert np.array_equal(np.concatenate(got), want)

    def test_results_do_not_depend_on_the_chunk_size(self, example_model, run_config,
                                                      monkeypatch):
        """Point batches of 7 to 65,536 nodes, and row blocks of 7 nodes
        (three segments per row), 30 (one row), 8,192 and 65,536 (every
        row), on the box and on the ball: the same x*, f and residuals."""
        regions = {"box": run_config.region, "ball": Region.hypersphere(1.2, dim=3)}
        programs = {name: [build_program(example_model, spec, region)
                           for spec in run_config.methods]
                    for name, region in regions.items()}
        sizes = [(7, 7), (100, 30), (GRID_CHUNK, None), (65_536, 65_536)]
        results = {}
        for chunk, block in sizes:
            monkeypatch.setattr(solve, "GRID_CHUNK", chunk)
            if block is not None:
                monkeypatch.setattr(solve, "GRID_BLOCK_BYTES", 8 * 2 * block)
            results[chunk] = {name: [grid_search(p, 0.1) for p in progs]
                              for name, progs in programs.items()}
            monkeypatch.undo()
        for chunk in (7, 100, 65_536):
            for name in ("box", "ball"):
                assert len(results[chunk][name]) == 8
                for got, want in zip(results[chunk][name], results[GRID_CHUNK][name]):
                    assert got.x_star.tolist() == want.x_star.tolist()
                    assert got.f_star == want.f_star
                    assert got.evaluations == want.evaluations
                    assert got.constraint_residuals.tolist() == want.constraint_residuals.tolist()
        assert {r.evaluations for r in results[GRID_CHUNK]["box"]} == {21**3}

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

    def test_point_path_scores_only_the_nodes_inside_the_ball(self):
        """A log barrier at the unit sphere: log of a negative number warns,
        and the warning fails the test, at every grid node outside the
        ball, so the point path must never score one."""
        program = ScalarProgram(
            objective=lambda x: -np.log(1 + 1e-9 - (x * x).sum(axis=-1)),
            region=Region.hypersphere(1.0, dim=3),
            descriptor="log barrier",
        )
        res = grid_search(program, 0.1)
        assert res.x_star.tolist() == [0.0, 0.0, 0.0]
        assert res.evaluations == sum(len(c) for c in _region_grid(program.region, 0.1))

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
        prog = v_model(example_model, region=Region.hypersphere(1.0, dim=3))
        res = grid_search(prog, 0.25)
        assert float(res.x_star @ res.x_star) <= 1.0
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-12)


def rotatable_ccd_model(centre_runs: int = 10, seed: int = 2011):
    """A full second-order model in three factors and three responses,
    fitted to a rotatable central composite design: the 2^3 cube, six axial
    points at alpha = 8^(1/4) = 1.682 and ``centre_runs`` centre runs, with
    seeded responses. With ten centre runs q is least at the centre; with
    six it is least on a sphere, where symmetric grid nodes tie in exact
    arithmetic and differ by rounding."""
    alpha = 8 ** 0.25
    cube = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    axial = [tuple(sign * alpha * (i == j) for j in range(3))
             for i in range(3) for sign in (-1, 1)]
    x = np.array(cube + axial + [(0, 0, 0)] * centre_runs, dtype=float)
    terms = TermSpec.full_second_order(3)
    rng = np.random.default_rng(seed)
    z = evaluate_basis(x, terms)
    y = z @ rng.standard_normal((terms.p, 3)) * 5.0 + rng.standard_normal((len(x), 3))
    return fit_ols(z, y, terms)


def method_programs(model, region):
    """Every built-in method over the region, its targets at the model's
    means at the centre plus an offset, so the epsilon targets are near."""
    m0 = moments(model, np.zeros(model.n))[0]
    r = model.r
    cfg = MethodConfig(tau=m0 + 1.0, w=np.full(r, 1.0 / r), confidence=0.9,
                       r1=0.3, primary=1, epsilon=np.linspace(-0.5, 0.5, r))
    return {name: build(model, cfg, region=region)
            for name, (build, _) in METHODS.items()}


class TestRowPath:
    """``grid_search`` on grid rows against the point path: the same
    program with its row scorer removed."""

    @staticmethod
    def assert_same(program, resolution):
        assert program.rows is not None
        got = grid_search(program, resolution)
        want = grid_search(dataclasses.replace(program, rows=None), resolution)
        assert got.x_star.tolist() == want.x_star.tolist(), program.descriptor
        assert got.evaluations == want.evaluations
        assert got.f_star == pytest.approx(want.f_star, rel=1e-12, abs=0)
        assert got.constraint_residuals == pytest.approx(want.constraint_residuals,
                                                         rel=1e-12, abs=0)

    @pytest.mark.parametrize("region", ["cube", "ball"])
    def test_configured_methods(self, example_model, run_config, region):
        region = {"cube": run_config.region,
                  "ball": Region.hypersphere(1.2, dim=3)}[region]
        programs = [build_program(example_model, spec, region)
                    for spec in run_config.methods]
        assert sum(p.rows is None for p in programs) == 1   # modified-e-epsilon
        for program in programs:
            if program.rows is not None:
                self.assert_same(program, 0.05)

    @pytest.mark.parametrize("centre_runs", [6, 10])
    def test_rotatable_ccd_with_three_responses(self, centre_runs):
        """With six centre runs the v-model's least nodes on the sphere are
        permutations 7e-16 apart: both paths must pick the same one."""
        model = rotatable_ccd_model(centre_runs)
        programs = method_programs(model, Region.hypersphere(8 ** 0.25, dim=3))
        for name, program in programs.items():
            if name != "modified-e-epsilon":
                self.assert_same(program, 0.1)

    @pytest.mark.parametrize("block", [None, 64, 100])
    def test_one_factor_model(self, monkeypatch, block):
        """One row of 2,001 nodes: one block, or segments of 64 (the last of
        17) and of 100 (the last of one node)."""
        x = np.array([-1.0, -0.7, -0.2, 0.1, 0.4, 0.8, 1.0])
        terms = TermSpec.from_names(["1", "x1", "x1^2"], 1)
        z = evaluate_basis(x[:, None], terms)
        y = np.column_stack([3.0 + 2.0 * x - 4.0 * x**2, 1.0 - x + x**2])
        y = y + 0.1 * np.cos(np.arange(7.0))[:, None]
        model = fit_ols(z, y, terms)
        if block is not None:
            monkeypatch.setattr(solve, "GRID_BLOCK_BYTES", 8 * 2 * block)
        for name, program in method_programs(model, Region.unit_cube(1)).items():
            if name != "modified-e-epsilon":
                self.assert_same(program, 0.001)
        v = grid_search(v_model(model), 0.001)
        nodes = np.linspace(-1.0, 1.0, 2001)[:, None]
        assert v.evaluations == 2001
        assert v.x_star.tolist() == nodes[np.argmin(unit_variance(model, nodes))].tolist()


class TestNelderMead:
    def test_quadratic_bowl(self, example_model):
        prog = v_model(example_model)
        res = nelder_mead(prog, np.array([0.5, 0.5, 0.5]))
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-4)

    def test_never_worse_than_start(self, example_model):
        prog = modified_e_weighting(example_model, MethodConfig(w=WEIGHTS, r1=0.5))
        x0 = np.array([0.9, -0.9, 0.9])
        res = nelder_mead(prog, x0)
        assert res.f_star <= float(prog.objective(x0))

    def test_start_at_optimum(self, example_model):
        prog = v_model(example_model)
        res = nelder_mead(prog, np.zeros(3))
        assert res.converged
        assert res.f_star <= float(prog.objective(np.zeros(3)))

    def test_paper_modified_e_weighting(self, example_model):
        prog = modified_e_weighting(example_model, MethodConfig(w=WEIGHTS, r1=0.5))
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


class TestSqp:
    def test_objective_sees_only_points_in_the_box(self, example_model):
        seen = []
        base = v_model(example_model).objective
        prog = ScalarProgram(
            objective=lambda x: seen.append(np.array(x)) or base(x),
            region=Region.hypercube([-1, 0, -1], [1, 0.5, 1]),
            descriptor="recorded",
        )
        # the start is clipped onto the upper face in x2, where every
        # difference step in x2 has to go backward
        res = sqp(prog, np.array([0.9, 0.7, -0.9]))
        rows = np.concatenate([np.atleast_2d(x) for x in seen])
        assert len(seen) > 2 and rows.shape[1] == 3
        assert all(prog.region.contains(x) for x in rows)
        assert res.evaluations == len(rows)

    def test_never_worse_than_start(self, example_model):
        prog = modified_e_weighting(example_model, MethodConfig(w=WEIGHTS, r1=0.5))
        for x0 in ([0.9, -0.9, 0.9], [1.0, 1.0, -1.0], [-1.0, -1.0, -1.0]):
            x0 = np.array(x0)
            res = sqp(prog, x0)
            assert res.converged
            assert res.f_star <= float(prog.objective(x0))
            assert res.f_star == pytest.approx(float(prog.objective(res.x_star)), rel=1e-14)

    @pytest.mark.parametrize("region", ["cube", "ball"])
    def test_goal_programming_never_worse_than_start(self, run_config, example_model,
                                                     region):
        """In deviation form the reported w.|gap| is at most the merit, whose
        start value is F at the clipped start."""
        region = run_config.region if region == "cube" else Region.hypersphere(1.2, dim=3)
        spec = next(m for m in run_config.methods if m.name == "goal-programming")
        prog = build_program(example_model, spec, region)
        for x0 in [grid_search(prog, 0.1).x_star, *solve._start_points(prog, 16, 0)]:
            res = sqp(prog, x0)
            assert res.f_star <= float(prog.objective(region.clip(x0))) + 1e-12

    def test_keeps_the_start_when_every_later_point_is_worse(self):
        # x0 sits on a kink, where the forward differences mislead
        kinked = ScalarProgram(
            objective=lambda x: np.abs(x[..., 0] - 0.3) + 0.1 * x[..., 1] ** 2,
            region=Region.unit_cube(2),
            descriptor="kink at x0",
        )
        res = sqp(kinked, np.array([0.3, 0.0]))
        assert res.f_star == 0.0
        assert res.x_star.tolist() == [0.3, 0.0]

    def test_v_model_origin(self, example_model):
        prog = v_model(example_model)
        res = sqp(prog, np.array([0.5, -0.5, 0.9]))
        assert res.x_star == pytest.approx([0, 0, 0], abs=1e-5)
        assert res.f_star == pytest.approx(1.0, abs=1e-9)

    def test_paper_modified_e_weighting(self, example_model):
        prog = modified_e_weighting(example_model, MethodConfig(w=WEIGHTS, r1=0.5))
        warm = grid_search(prog, 0.1)
        res = sqp(prog, warm.x_star)
        assert res.f_star == pytest.approx(39.5895, abs=1e-4)
        assert res.f_star <= nelder_mead(prog, warm.x_star).f_star + 1e-9

    def test_ball_is_an_inequality(self, example_model):
        # the weighted mean falls toward the corner (1, -1, 1), outside the
        # ball, so the optimum lies on the sphere
        prog = mean_weighting(example_model, MethodConfig(w=WEIGHTS),
                              region=Region.hypersphere(1.2, dim=3))
        res = sqp(prog, np.zeros(3))
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

        res = sqp(dataclasses.replace(prog, scorer=score), np.array([0.2, -0.3, 0.4]))
        assert all(b.shape == (7, 3) for b in batches)
        assert res.evaluations == 7 * len(batches)
        # the objective, the constraints and both derivatives at a point
        # come from its one batch, and no point is scored twice
        bases = [b[0].tolist() for b in batches]
        assert all(a != b for a, b in zip(bases, bases[1:]))

    @staticmethod
    def nan_program():
        """NaN right of x1 = 0.5 on the unit square."""
        return ScalarProgram(
            objective=lambda x: np.where(x[..., 0] > 0.5, np.nan, (x**2).sum(axis=-1)),
            region=Region.unit_cube(2),
            descriptor="NaN right of 0.5",
        )

    def test_nan_score_is_rejected(self):
        """A NaN in a round's values names the program and the first point
        that gave it, alone or in a block of several starts."""
        prog = self.nan_program()
        message = re.escape("NaN right of 0.5: score is NaN at point [0.75, 0.25]")
        with pytest.raises(ValueError, match=message):
            sqp(prog, np.array([0.75, 0.25]))
        with pytest.raises(ValueError, match=message):
            sqp(prog, np.array([[-0.5, 0.0], [0.75, 0.25], [0.0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_is_rejected(self, bad):
        prog = self.nan_program()
        message = re.escape(f"NaN right of 0.5: start {[bad, 0.0]} is not finite")
        with pytest.raises(ValueError, match=message):
            sqp(prog, np.array([bad, 0.0]))
        with pytest.raises(ValueError, match=message):
            sqp(prog, np.array([[-0.5, 0.0], [bad, 0.0], [0.0, 0.5]]))


def counted(prog, count):
    """The program with its ``score`` (or its goals' gap) counting calls and
    points in ``count``."""
    def wrap(fn):
        def wrapped(pts):
            count["calls"] += 1
            count["points"] += len(pts)
            return fn(pts)
        return wrapped

    if prog.goals is None:
        return dataclasses.replace(prog, scorer=wrap(prog.score))
    return dataclasses.replace(prog, goals=(wrap(prog.goals[0]), prog.goals[1]))


class TestLockstep:
    """``sqp`` on a block of starts runs them in lockstep, one ``score`` call
    a round for every live start, and moves no start's end: the scorer may
    round a value in a larger batch differently in the last bit, so ends
    match the starts solved alone to F within 1e-9 max(1, |F|) and x* within
    1e-6, with the same ``converged`` flags."""

    @staticmethod
    def assert_same_ends(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.converged == b.converged
            assert abs(a.f_star - b.f_star) <= 1e-9 * max(1.0, abs(b.f_star))
            assert a.x_star == pytest.approx(b.x_star, abs=1e-6)

    @pytest.mark.parametrize("region", ["cube", "ball"])
    @pytest.mark.parametrize("name", list(METHODS))
    def test_block_ends_match_one_at_a_time(self, run_config, example_model, region, name):
        """Every method, with the example's parameters, from the coarse-grid
        incumbent and the 16 starts of ``rsmopt report``, in order and
        reversed."""
        region = run_config.region if region == "cube" else Region.hypersphere(1.2, dim=3)
        cfg = MethodConfig(tau=TAU, w=WEIGHTS, r1=0.5, primary=2, epsilon=[3.9753, 0.0],
                           confidence=0.95)
        prog = METHODS[name][0](example_model, cfg, region=region)
        starts = np.array([grid_search(prog, 0.1).x_star, *solve._start_points(prog, 16, 0)])
        alone = [sqp(prog, x0) for x0 in starts]
        count = {"calls": 0, "points": 0}
        block = sqp(counted(prog, count), starts)
        self.assert_same_ends(block.ends, alone)
        self.assert_same_ends(sqp(prog, starts[::-1]).ends[::-1], alone)
        # one call a round: as many as the longest solve's batches, each of
        # the live starts' (2n + 1)-point batches
        assert count["calls"] == max(end.evaluations for end in block.ends) // 7
        assert count["points"] == block.evaluations == sum(end.evaluations for end in block.ends)
        best = solve._best(list(block.ends))
        assert block.x_star.tolist() == best.x_star.tolist() and block.f_star == best.f_star

    def test_one_start_gives_its_end(self, example_model):
        prog = v_model(example_model)
        x0 = np.array([0.5, -0.5, 0.9])
        one, block = sqp(prog, x0), sqp(prog, x0[None])
        assert one.ends == () and len(block.ends) == 1
        assert block.ends[0].x_star.tolist() == one.x_star.tolist()
        assert block.evaluations == one.evaluations


class TestBatchedGradient:
    # f(x) = sum_i c_i (x_i - a_i)^2 + x_0 x_1, gradient in closed form
    c = np.array([1.0, 3.0, 0.5])
    a = np.array([0.2, -0.4, 0.7])

    def f(self, x):
        return ((x - self.a) ** 2) @ self.c + x[..., 0] * x[..., 1]

    def grad(self, x):
        return 2 * self.c * (x - self.a) + np.array([x[1], x[0], 0.0])

    # the box is [min(x, -1), max(x, 1)]
    points = pytest.mark.parametrize("x", [
        [0.3, -0.2, 0.1],
        [1.0, 1.0, 1.0],     # every step +h would leave the box: -h and -2h
        [-1.0, 0.999999999, 1.0],
        [-1.0, -1.0, -0.99999],  # -h would leave it in x0 and x1: +h and +2h
        [2.5, -3.0, 0.0],    # steps scale with |x_i|
    ])

    @staticmethod
    def box(x):
        return np.minimum(x, -1.0), np.maximum(x, 1.0)

    @points
    def test_matches_closed_form(self, x):
        x = np.array(x)
        lower, upper = self.box(x)
        calls = []

        def fn(pts):
            calls.append(pts)
            return self.f(pts)

        (f,), (g,) = _value_and_jacobian(fn, x, lower, upper)
        assert len(calls) == 1 and calls[0].shape == (7, 3)
        assert np.all(calls[0] <= upper) and np.all(calls[0] >= lower)
        assert f == pytest.approx(self.f(x), rel=1e-14)
        assert g == pytest.approx(self.grad(x), abs=1e-8)

    @points
    def test_residual_jacobian(self, x):
        # residuals x0 x2 - 1 and x1^2 next to f, as a (batch, 3) array
        x = np.array(x)

        def fn(pts):
            return np.column_stack([self.f(pts), pts[:, 0] * pts[:, 2] - 1, pts[:, 1] ** 2])

        values, jac = _value_and_jacobian(fn, x, *self.box(x))
        assert values == pytest.approx([self.f(x), x[0] * x[2] - 1, x[1] ** 2], rel=1e-14)
        assert jac.shape == (3, 3)
        assert jac[0] == pytest.approx(self.grad(x), abs=1e-8)
        assert jac[1] == pytest.approx([x[2], 0.0, x[0]], abs=1e-8)
        assert jac[2] == pytest.approx([0.0, 2 * x[1], 0.0], abs=1e-8)

    def test_central_inside_one_sided_at_a_bound(self):
        """Steps -h and +h on an axis with room for both, +h and +2h at a
        lower bound, -h and -2h at an upper one."""
        x, lower, upper = np.array([0.0, -1.0, 1.0]), -np.ones(3), np.ones(3)
        calls = []
        _value_and_jacobian(lambda pts: calls.append(pts) or self.f(pts), x, lower, upper)
        steps = (calls[0][1:] - x).reshape(2, 3, 3).diagonal(axis1=1, axis2=2)
        assert np.all(np.sign(steps) == [[1, 1, -1], [-1, 1, -1]])
        assert steps[1, 1:] == pytest.approx(2 * steps[0, 1:], rel=1e-9)

    def test_cubic_to_second_order(self):
        """Both rules are exact for quadratics; on a cubic their error is of
        order h^2, under 1e-10 here, where a forward difference's is of order
        its step, about 1e-8."""
        x, lower, upper = np.array([0.5, -1.0, 1.0]), -np.ones(3), np.ones(3)
        (_,), (g,) = _value_and_jacobian(lambda p: (p**3).sum(axis=-1), x, lower, upper)
        assert g == pytest.approx(3 * x**2, abs=1e-9)

    step = np.cbrt(np.finfo(float).eps)

    @classmethod
    def rule_batch(cls, x, lower, upper):
        """The documented batch, built axis by axis in numpy: x, then x + h1
        and x + h2 on each axis, with h = min(eps^(1/3) max(1, |x_i|),
        (upper_i - lower_i) / 4), central where -h and +h fit, else +h and
        +2h, or -h and -2h where +2h would pass the upper bound."""
        n, axes = x.size, np.arange(x.size)
        h = np.minimum(cls.step * np.maximum(1.0, np.abs(x)), (upper - lower) / 4)
        h1 = np.where(x + 2 * h <= upper, h, -h)
        h2 = np.where((x - h >= lower) & (x + h <= upper), -h1, 2 * h1)
        pts = np.tile(x, (2 * n + 1, 1))
        pts[1 + axes, axes] = x + h1
        pts[1 + n + axes, axes] = x + h2
        return pts

    @classmethod
    def case(cls, n, where):
        """A point and its box in n factors: inside [-1, 1], 1.5 steps from
        its upper and lower bounds by turns (central, starting with -h next
        to an upper bound), on every lower or upper bound, or with |x_i| > 1
        inside [-6, 6] or on the bounds [min(x, -1), max(x, 1)]."""
        rng = np.random.default_rng(n)
        lower, upper = -np.ones(n), np.ones(n)
        if where == "inside":
            return rng.uniform(-0.9, 0.9, n), lower, upper
        if where == "near":
            return np.resize([1.0, -1.0], n) * (1 - 1.5 * cls.step), lower, upper
        if where in ("lower", "upper"):
            return (lower if where == "lower" else upper).copy(), lower, upper
        x = rng.choice([-1.0, 1.0], n) * rng.uniform(1.5, 5.0, n)
        if where == "large":
            return x, -6 * np.ones(n), 6 * np.ones(n)
        return x, np.minimum(x, -1.0), np.maximum(x, 1.0)

    cases = pytest.mark.parametrize("n", [1, 3, 8])
    wheres = pytest.mark.parametrize("where", ["inside", "near", "lower", "upper", "large", "large-on-bound"])

    @staticmethod
    def values(pts):
        """Two smooth values per point, one offset by 1e4."""
        return np.column_stack([1e4 + (pts**2).sum(axis=-1), np.sin(pts).sum(axis=-1)])

    @cases
    @wheres
    def test_points_are_the_documented_rule(self, n, where):
        x, lower, upper = self.case(n, where)
        calls = []
        _value_and_jacobian(lambda pts: calls.append(pts.copy()) or self.values(pts),
                            x, lower, upper)
        assert np.array_equal(calls[0], self.rule_batch(x, lower, upper))

    @cases
    @wheres
    def test_jacobian_is_the_parabola_slope(self, n, where):
        """Against the slope of the parabola through f(x), f(x + s1) and
        f(x + s2), at the steps s1, s2 actually taken, computed axis-wise by
        broadcasting as a reference: the same to rounding, at most 1e-12 of
        the largest difference over the smallest step."""
        x, lower, upper = self.case(n, where)
        pts = self.rule_batch(x, lower, upper)
        vals = self.values(pts)
        h1, h2 = (pts[1:].reshape(2, n * n)[:, ::n + 1] - x)[..., None]
        d1, d2 = (vals[1:] - vals[0]).reshape(2, n, -1)
        reference = ((d1 * h2 * h2 - d2 * h1 * h1) / (h1 * h2 * (h2 - h1))).T
        value, jac = _value_and_jacobian(self.values, x, lower, upper)
        assert np.array_equal(value, vals[0])
        scale = np.abs(vals[1:] - vals[0]).max() / np.abs(np.concatenate([h1, h2])).min()
        assert np.abs(jac - reference).max() <= 1e-12 * scale

    @cases
    @pytest.mark.parametrize("where", ["inside", "bounds"])
    def test_block_is_each_point_alone(self, n, where):
        """A block of points inside [-1, 1] (with one 1.5 steps from its
        bounds), or on its bounds (every corner coordinate, mixed), is scored
        in one call of fn on the points' own batches stacked, each equal to
        the one-point call's by ``np.array_equal``; each value is the same
        and each Jacobian within the 1e-12 bound above."""
        rng = np.random.default_rng(10 + n)
        lower, upper = -np.ones(n), np.ones(n)
        if where == "inside":
            block = np.vstack([rng.uniform(-0.9, 0.9, (4, n)), self.case(n, "near")[0]])
        else:
            block = np.vstack([lower, upper, rng.choice([-1.0, 1.0], (3, n))])
        calls = []
        values, jac = _value_and_jacobian(
            lambda pts: calls.append(pts.copy()) or self.values(pts), block, lower, upper)
        assert len(calls) == 1 and calls[0].shape == (5 * (2 * n + 1), n)
        assert values.shape == (5, 2) and jac.shape == (5, 2, n)
        for x, stencil, value, slopes in zip(block, calls[0].reshape(5, 2 * n + 1, n),
                                             values, jac):
            one = []
            value1, slopes1 = _value_and_jacobian(
                lambda pts: one.append(pts.copy()) or self.values(pts), x, lower, upper)
            assert np.array_equal(stencil, one[0])
            assert np.array_equal(value, value1)
            vals = self.values(one[0])
            steps = np.abs(one[0][1:] - x).max(axis=1)
            scale = np.abs(vals[1:] - vals[0]).max() / steps.min()
            assert np.abs(slopes - slopes1).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 8])
    def test_closed_form_in_one_and_eight_factors(self, n):
        """f(x) = sum_i c_i (x_i - a_i)^2 + x_0 x_{n-1}, inside the box and
        on its bounds."""
        c, a = np.linspace(0.5, 3.0, n), np.linspace(-0.4, 0.7, n)

        def f(pts):
            return ((pts - a) ** 2) @ c + pts[..., 0] * pts[..., -1]

        for x in (np.linspace(-0.8, 0.9, n), -np.ones(n), np.ones(n)):
            grad = 2 * c * (x - a)
            grad[0] += x[-1]
            grad[-1] += x[0]
            (value,), (g,) = _value_and_jacobian(f, x, -np.ones(n), np.ones(n))
            assert value == pytest.approx(f(x), rel=1e-14)
            assert g == pytest.approx(grad, abs=1e-8)

    def test_narrow_axis_stays_inside(self):
        """On [-1, 1] x [0, 1e-6] x [-1, 1] at x = 0 the step eps^(1/3) on the
        middle axis is wider than the box; capped at a quarter of the width,
        both of its steps stay inside."""
        region = Region.hypercube([-1, 0, -1], [1, 1e-6, 1])
        lower, upper = region.bounding_box()
        calls = []
        (_,), (g,) = _value_and_jacobian(
            lambda pts: calls.append(pts) or self.f(pts), np.zeros(3), lower, upper)
        assert np.all(calls[0] >= lower) and np.all(calls[0] <= upper)
        assert g == pytest.approx(self.grad(np.zeros(3)), abs=1e-6)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_boxes_keep_every_point_inside(self, n):
        """Boxes of widths from 1e-6 to 3, the point inside, on a bound or in
        the middle: every point of the batch lies in the box, and a
        quadratic's gradient is within 1e-6."""
        rng = np.random.default_rng(100 + n)
        c, a = rng.uniform(0.5, 3.0, n), rng.uniform(-1, 1, n)
        for _ in range(40):
            lower = rng.uniform(-2, 2, n)
            upper = lower + 10 ** rng.uniform(-6, 0.5, n)
            x = lower + (upper - lower) * rng.choice([0.0, 0.5, 1.0, rng.random()], n)
            calls = []
            (_,), (g,) = _value_and_jacobian(
                lambda pts: calls.append(pts) or ((pts - a) ** 2) @ c, x, lower, upper)
            assert np.all(calls[0] >= lower) and np.all(calls[0] <= upper)
            assert g == pytest.approx(2 * c * (x - a), abs=1e-6)


def first_order_gap(prog, x, h=1e-6):
    """Norm of the part of grad f at x outside the span of the constraint
    gradients, the active bound normals and, on a ball's sphere, the normal
    2x, over |grad f|, and whether every bound and ball multiplier has the
    sign a minimum needs; all derivatives by central differences (one-sided
    on a bound of the bounding box)."""
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
    on_sphere = bool(prog.region.kind == "hypersphere"
                     and abs(x @ x - prog.region.radius**2) <= 1e-9)
    basis = ([grad(c) for c in prog.eq_constraints] + list(eye[at_lo | at_hi])
             + ([2 * x] if on_sphere else []))
    coef, *_ = np.linalg.lstsq(np.array(basis).T, g, rcond=None)
    gap = np.linalg.norm(g - np.array(basis).T @ coef) / np.linalg.norm(g)
    # grad f = sum lambda_j grad g_j + mu_i e_i + nu 2x: mu >= 0 on a lower
    # bound, <= 0 on an upper one, and nu <= 0 on the sphere
    mu = coef[len(prog.eq_constraints):]
    signs = np.where(np.append(at_lo[at_lo | at_hi], [False] * on_sphere),
                     mu >= -1e-6, mu <= 1e-6)
    return gap, bool(np.all(signs))


class TestPolishDispatch:
    @staticmethod
    def refuse(monkeypatch, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(solve, name, refuse)

    def test_only_goal_programming_sets_goals(self, run_config, example_model):
        for spec in run_config.methods:
            prog = build_program(example_model, spec, run_config.region)
            assert (prog.goals is not None) == (spec.name == "goal-programming")

    @pytest.mark.parametrize("region", [None, Region.hypersphere(1.2, dim=3)],
                             ids=["box", "ball"])
    def test_built_in_methods_never_reach_nelder_mead(self, run_config, example_model,
                                                      monkeypatch, region):
        self.refuse(monkeypatch, "nelder_mead")
        region = region or run_config.region
        programs = [build_program(example_model, spec, region)
                    for spec in run_config.methods]
        # hand-built programs, with and without an equality constraint
        base = v_model(example_model, region=region)
        programs += [
            ScalarProgram(objective=base.objective, region=region,
                          descriptor="hand-built"),
            ScalarProgram(objective=base.objective, region=region,
                          eq_constraints=(lambda x: x[..., 0] - 0.25,),
                          descriptor="hand-built, pinned x1"),
        ]
        for prog in programs:
            res = multistart(prog, k=2, seed=0)
            assert prog.region.contains(res.x_star, atol=1e-12)

    def test_hand_built_program_runs_sqp(self, example_model, monkeypatch):
        self.refuse(monkeypatch, "nelder_mead")
        calls = []
        real = solve.sqp
        monkeypatch.setattr(solve, "sqp", lambda prog, x0: calls.extend(np.atleast_2d(x0))
                            or real(prog, x0))
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
            stage = nelder_mead(ScalarProgram(objective=solve._penalized(prog.score, mu),
                                              region=prog.region,
                                              descriptor=f"{name} at mu={mu:g}"), x)
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
        prog = modified_e_epsilon(example_model, MethodConfig(tau=[200.0, 0.0]))
        res = penalty_solve(prog, grid_search(prog, 0.1).x_star)
        assert not res.converged
        assert np.max(res.constraint_residuals) > 1e-2

    def test_residuals_non_increasing(self, example_model):
        # start -> solve -> solve again from the result: the largest
        # residual never grows along the sequence, reachable targets or not
        for tau in (TAU, [200.0, 0.0]):
            prog = modified_e_epsilon(example_model, MethodConfig(tau=tau))
            for x0 in [grid_search(prog, 0.1).x_star, *solve._start_points(prog, 4, 0)]:
                x = prog.region.clip(x0)
                residuals = [np.max(solve._residuals_at(prog, x))]
                for _ in range(2):
                    x = penalty_solve(prog, x).x_star
                    residuals.append(np.max(solve._residuals_at(prog, x)))
                for earlier, later in zip(residuals, residuals[1:]):
                    assert later <= earlier + 1e-9 * max(1.0, earlier)

    def test_stagnating_infeasible_sequence_stops(self, example_model):
        prog = modified_e_epsilon(example_model, MethodConfig(tau=[200.0, 0.0]))
        batches = []
        recording = dataclasses.replace(
            prog, scorer=lambda x: batches.append(np.shape(x)) or prog.score(x))
        x0 = grid_search(prog, 0.1).x_star
        res = penalty_solve(recording, x0)
        # the solve ends within its limit of 100 iterations, each scoring
        # its line-search points, one (2n + 1)-point batch apiece
        assert not res.converged
        assert batches and all(shape == (7, 3) for shape in batches)
        assert res.evaluations == 7 * len(batches) < 10_000
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
            return multistart(prog, k=run_config.solver.multistart_k)

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
        assert np.max(res.constraint_residuals) > 1e-3

    @staticmethod
    def ball_program(run_config, example_model, name):
        spec = next(m for m in run_config.methods if m.name == name)
        return build_program(example_model, spec, Region.hypersphere(1.2, dim=3))

    @staticmethod
    def every_start(prog):
        """``sqp`` from the coarse-grid incumbent and from each of the 16
        starts that ``rsmopt report`` may use."""
        starts = [grid_search(prog, 0.1).x_star, *solve._start_points(prog, 16, 0)]
        return [sqp(prog, x0) for x0 in starts]

    @pytest.mark.parametrize("max_iter", [solve.MAX_ITER, 3])
    @pytest.mark.parametrize("name", ["modified-e-epsilon", "p-model-epsilon",
                                      "kataoka-epsilon"])
    def test_an_end_off_its_pins_is_never_converged(self, run_config, example_model,
                                                    monkeypatch, name, max_iter):
        """At the default iteration limit, and at a limit of 3 that stops
        every start short of its pins."""
        monkeypatch.setattr(solve, "MAX_ITER", max_iter)
        prog = self.ball_program(run_config, example_model, name)
        off = [res for res in self.every_start(prog)
               if np.max(res.constraint_residuals) > solve.TOL]
        assert not any(res.converged for res in off)
        short = name == "modified-e-epsilon" or max_iter == 3
        assert len(off) == (17 if short else 0)

    @pytest.mark.parametrize("name", ["modified-e-epsilon", "p-model-epsilon",
                                      "kataoka-epsilon"])
    def test_converged_is_a_first_order_point(self, run_config, example_model, name):
        """On every start, ``converged`` holds exactly when the end meets the
        first-order conditions by the test's own central differences and
        every residual is at most 1e-10."""
        prog = self.ball_program(run_config, example_model, name)
        for res in self.every_start(prog):
            gap, signs = first_order_gap(prog, res.x_star)
            kkt = gap < 1e-5 and signs and np.max(res.constraint_residuals) <= 1e-10
            assert res.converged == kkt, (res.x_star, gap, signs, res.constraint_residuals)

    def test_unreachable_row_is_the_nearest_end(self, run_config, example_model,
                                                 monkeypatch):
        """When no start converges, the reported end has the least largest
        residual of all the solves."""
        ends, real = [], solve.sqp

        def record(prog, x0):
            res = real(prog, x0)
            ends.extend(res.ends or [res])
            return res

        monkeypatch.setattr(solve, "sqp", record)
        res = multistart(self.ball_program(run_config, example_model, "modified-e-epsilon"))
        assert len(ends) == 17 and not any(end.converged for end in ends)
        assert np.max(res.constraint_residuals) == min(np.max(end.constraint_residuals)
                                                       for end in ends)

    @pytest.mark.parametrize("name", ["p-model-epsilon", "kataoka-epsilon"])
    def test_exact_without_the_f_tie_band(self, ball_solution, monkeypatch, name):
        """The solver's verdict alone keeps a start stopped off its pins from
        winning, without counting close values of f as equal."""
        monkeypatch.setattr(solve, "F_TIE", 0.0)
        res = ball_solution(name)
        assert res.converged
        assert np.max(res.constraint_residuals) <= 1e-9


class TestMultistart:
    def test_dominates_oracle_unconstrained(self, example_model):
        prog = p_model_weighting(example_model, MethodConfig(tau=TAU, w=WEIGHTS))
        oracle = grid_search(prog, 0.02)
        res = multistart(prog, k=8, seed=0)
        assert res.f_star <= oracle.f_star + 1e-6

    def test_seed_determinism(self, example_model):
        prog = modified_e_weighting(example_model, MethodConfig(w=WEIGHTS, r1=0.5))
        a = multistart(prog, k=4, seed=42)
        b = multistart(prog, k=4, seed=42)
        assert a.f_star == b.f_star
        assert a.x_star.tolist() == b.x_star.tolist()

    def test_k1_from_oracle_never_worse(self, example_model):
        prog = v_model(example_model)
        oracle = grid_search(prog, 0.1)
        res = multistart(prog, k=1, seed=0)
        assert res.f_star <= oracle.f_star + 1e-12

    def test_converged_wins_then_f_lower_beyond_f_tie(self):
        def result(f, residual, x=0.0, converged=True):
            return SolveResult(x_star=np.array([x]), f_star=f,
                               constraint_residuals=np.array([residual]),
                               evaluations=1, converged=converged)

        # a solve stopped short of the pin, at an f the violation buys
        exact, bought = result(67.20254029066, 3e-14), result(67.20254027982, 1e-8,
                                                              converged=False)
        assert _better(exact, bought) and not _better(bought, exact)
        assert _better(exact, result(-1e9, 0.0, converged=False))
        # a later converged end wins only by more than F_TIE * max(1, |f|),
        # whatever the residuals and x; within it the earlier end stays
        band = solve.F_TIE * exact.f_star
        assert _better(result(exact.f_star - 2 * band, 1e-8, x=1.0), exact)
        close = result(exact.f_star - band / 2, 0.0, x=-1.0)
        assert not _better(close, exact) and not _better(exact, close)
        # below |f| = 1 the band is F_TIE itself
        assert not _better(result(-solve.F_TIE / 2, 0.0), result(0.0, 0.0))
        assert _better(result(-2 * solve.F_TIE, 0.0), result(0.0, 0.0))
        assert not _better(exact, exact)
        # among unconverged ends the smaller largest residual wins, then f
        assert _better(dataclasses.replace(exact, converged=False), bought)
        assert not _better(bought, dataclasses.replace(exact, converged=False))
        assert _better(result(2.0, 1e-3, converged=False), result(1.0, 2e-3, converged=False))
        assert _better(result(1.0, 1e-3, converged=False), result(2.0, 1e-3, converged=False))
        assert not _better(result(1.0, 1e-3, x=-1.0, converged=False),
                           result(1.0, 1e-3, x=1.0, converged=False))

    def test_first_end_at_a_minimum_stays(self, run_config, example_model):
        """Goal programming's minimum is a curve on which F is 0 up to
        rounding; every solve ends on it, and the incumbent's end, found
        first, is the one reported."""
        spec = next(m for m in run_config.methods if m.name == "goal-programming")
        prog = build_program(example_model, spec, run_config.region)
        first = sqp(prog, grid_search(prog, 0.1).x_star)
        res = multistart(prog, k=run_config.solver.multistart_k)
        assert first.converged and abs(first.f_star) <= solve.F_TIE
        assert res.x_star.tolist() == first.x_star.tolist()
        assert res.f_star == first.f_star

    def test_result_in_region(self, example_model):
        prog = modified_e_epsilon(example_model, MethodConfig(tau=TAU))
        res = multistart(prog, k=4, seed=0)
        assert prog.region.contains(res.x_star, atol=1e-9)

    @pytest.mark.parametrize("key, value", [
        ("k", 0), ("k", -1), ("k", True), ("k", False), ("k", 2.5), ("k", 3.0),
        ("k", "3"), ("k", None), ("seed", -1), ("seed", True), ("seed", 1.5),
        ("seed", "0"), ("seed", None),
    ])
    def test_k_and_seed_must_be_integers(self, key, value):
        least = {"k": 1, "seed": 0}[key]
        with pytest.raises(ValueError, match=f"^{key} must be an integer >= {least}, got "):
            multistart(constant_program(), **{key: value})


class TestStartPoints:
    """``_start_points`` is the plain Halton sequence from index 1, with seed
    s taking points s*k + 1 ... s*k + k."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_unscrambled_halton(self, n):
        """Bit for bit scipy's unscrambled ``qmc.Halton``, scaled to the box;
        scipy is the reference, imported only here."""
        from scipy.stats import qmc

        lo, hi = -1.0 - 0.5 * np.arange(n), 2.0 + np.arange(n)
        prog = dataclasses.replace(constant_program(), region=Region.hypercube(lo, hi))
        for k in (1, 7, 16, 64):
            for seed in (0, 1, 2, 42):
                want = qmc.Halton(n, scramble=False).random(seed * k + k + 1)[seed * k + 1:]
                got = solve._start_points(prog, k, seed)
                assert np.array_equal(got, qmc.scale(want, lo, hi))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_every_start_lies_in_the_ball(self, n):
        prog = dataclasses.replace(constant_program(), region=Region.hypersphere(1.2, dim=n))
        for seed in (0, 3):
            pts = solve._start_points(prog, 64, seed)
            assert pts.shape == (64, n)
            assert all(prog.region.contains(x) for x in pts)


class TestStoppingRule:
    """``multistart`` stops starting once the Bayesian estimate of the
    number of minima falls below the distinct values found plus one half."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """multistart's result and its local solves, counted at ``sqp``,
        which ``penalty_solve`` reaches through the module global, as the
        rows of each start or block of starts it is given."""
        calls = []
        real = solve.sqp
        monkeypatch.setattr(solve, "sqp", lambda prog, x0: calls.extend(np.atleast_2d(x0))
                            or real(prog, x0))

        def run(program, k=16, seed=0):
            calls.clear()
            return multistart(program, k=k, seed=seed), len(calls)

        return run

    @staticmethod
    def programs(run_config, example_model, region=None):
        return [build_program(example_model, spec, region or run_config.region)
                for spec in run_config.methods]

    def test_example_cube_counts(self, run_config, example_model, solves):
        """One value stops after 8 solves; p-model-epsilon reaches two and
        runs all 17: 73 solves in all, against 136 for every start."""
        counts = [solves(p)[1] for p in self.programs(run_config, example_model)]
        assert counts == [8, 8, 8, 8, 17, 8, 8, 8]

    def test_unreachable_targets_run_every_start(self, run_config, example_model,
                                                 solves):
        ball = Region.hypersphere(1.2, dim=3)
        spec = next(m for m in run_config.methods if m.name == "modified-e-epsilon")
        res, count = solves(build_program(example_model, spec, ball))
        assert not res.converged and count == 17

    def test_never_fires_at_k6(self, run_config, example_model, solves):
        counts = [solves(p, k=6)[1] for p in self.programs(run_config, example_model)]
        assert counts == [7] * 8

    @pytest.mark.parametrize("seed", [1, 42])
    def test_same_seed_stops_at_the_same_solve(self, run_config, example_model,
                                               solves, seed):
        spec = next(m for m in run_config.methods if m.name == "kataoka-weighting")
        prog = build_program(example_model, spec, run_config.region)
        (a, n_a), (b, n_b) = solves(prog, seed=seed), solves(prog, seed=seed)
        assert n_a == n_b == 8
        assert a.x_star.tolist() == b.x_star.tolist() and a.f_star == b.f_star

    @staticmethod
    def sequential(solver, incumbent, starts):
        """The reference: ``multistart``'s loop before its waves, one start
        per solve, the rule checked before each."""
        best = solver(incumbent)
        values = [best.f_star]
        for n, x0 in enumerate(starts, start=1):
            w = len(values)
            if n > w + 2 and w * (n - 1) / (n - w - 2) < w + 0.5:
                break
            cand = solver(x0)
            if not any(abs(cand.f_star - f) <= solve.F_TIE * max(1.0, abs(f)) for f in values):
                values.append(cand.f_star)
            if _better(cand, best):
                best = cand
        return best

    @classmethod
    def replay(cls, script, k):
        """``multistart`` and the reference on a fake ``sqp`` that gives solve
        i (0 for the incumbent, then start i) the scripted (f, converged,
        largest residual) and x* = [i]: the solves each asked for, in
        order, and the end each chose."""
        prog = dataclasses.replace(constant_program(), region=Region.unit_cube(2))
        incumbent = grid_search(prog, 0.1).x_star
        starts = solve._start_points(prog, k, 0)
        index = {x.tobytes(): i for i, x in enumerate(starts, start=1)}
        asked = []

        def end(x0):
            i = index.get(x0.tobytes(), 0)
            asked.append(i)
            f, converged, residual = script[i]
            return SolveResult(x_star=np.array([float(i)]), f_star=f,
                               constraint_residuals=np.array([residual]),
                               evaluations=1, converged=converged)

        def fake(prog, x0):
            if np.ndim(x0) == 1:
                return end(x0)
            ends = tuple(end(x) for x in x0)
            return dataclasses.replace(solve._best(list(ends)), ends=ends,
                                       evaluations=len(ends))

        real = solve.sqp
        solve.sqp = fake
        try:
            got = multistart(prog, k=k, seed=0)
            got_asked = asked.copy()
            asked.clear()
            want = cls.sequential(lambda x0: end(np.asarray(x0)), incumbent, starts)
        finally:
            solve.sqp = real
        return (got_asked, got), (asked, want)

    # f values by solve: 0 the incumbent, then starts 1, 2, ...
    @pytest.mark.parametrize("k, fs, solved", [
        (16, [1.0] * 17, 8),                         # w never grows
        (16, [1.0] * 7 + [2.0] + [1.0] * 9, 17),     # w grows at wave 1's last start
        (16, [1.0] * 3 + [2.0] + [1.0] * 13, 17),    # w grows mid-wave
        (40, [1.0] * 3 + [2.0] + [1.0] * 12 + [3.0] + [1.0] * 24, 30),  # at wave 2's last
        (40, [1.0, 2.0, 3.0, 4.0] + [1.0] * 37, 41),  # w = 4 in wave 1: every start
        (1, [1.0, 2.0], 2),                          # k = 1
        (6, [1.0] * 7, 7),                           # k <= 6: every start
        (3, [1.0, 1.0 + 1e-9, 1.0, 1.0], 4),         # within F_TIE: one value
    ])
    def test_waves_replay_the_sequential_rule(self, k, fs, solved):
        script = [(f, True, 0.0) for f in fs]
        (got_asked, got), (want_asked, want) = self.replay(script, k)
        assert got_asked == want_asked == list(range(solved))
        assert got.x_star.tolist() == want.x_star.tolist()
        assert got.evaluations == grid_search(
            dataclasses.replace(constant_program(), region=Region.unit_cube(2)), 0.1
        ).evaluations + solved

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 40),
           script=st.lists(st.tuples(st.sampled_from([0.0, 1.0, 1.0 + 1e-9, 2.0, 3.0, 7.5]),
                                     st.booleans(), st.sampled_from([0.0, 1e-3, 1e-2])),
                           min_size=41, max_size=41))
    def test_waves_replay_scripted_ends(self, k, script):
        """Any script: the same starts solved in the same order, and the
        same end chosen."""
        (got_asked, got), (want_asked, want) = self.replay(script, k)
        assert got_asked == want_asked
        assert got.x_star.tolist() == want.x_star.tolist()

    @pytest.mark.parametrize("case", ["example cube", "example ball", "ccd10 cube",
                                      "ccd10 alpha-ball", "ccd6 cube", "ccd6 alpha-ball"])
    def test_never_worse_than_every_start(self, run_config, example_model, monkeypatch,
                                          case):
        """The rule against the fixed k = 16: ``sqp`` from the coarse-grid
        incumbent and from each of the 16 starts, ranked by ``_better``.
        ``multistart`` gets each of those solves back from a table rather
        than solving again, and must ask for no other start."""
        model, region = case.split()
        if model == "example":
            region = run_config.region if region == "cube" else Region.hypersphere(1.2, dim=3)
            programs = self.programs(run_config, example_model, region)
        else:
            model = rotatable_ccd_model(int(model[3:]))
            region = (Region.unit_cube(3) if region == "cube"
                      else Region.hypersphere(8 ** 0.25, dim=3))
            programs = list(method_programs(model, region).values())
        solved = {}

        def answer(prog, x0):
            """Each start of a block from the table, as ``sqp`` gives them."""
            if np.ndim(x0) == 1:
                return solved[np.asarray(x0).tobytes()]
            ends = tuple(solved[x.tobytes()] for x in x0)
            return dataclasses.replace(solve._best(list(ends)), ends=ends,
                                       evaluations=sum(end.evaluations for end in ends))

        monkeypatch.setattr(solve, "sqp", answer)
        for prog in programs:
            starts = [grid_search(prog, 0.1).x_star, *solve._start_points(prog, 16, 0)]
            every = [sqp(prog, x0) for x0 in starts]
            solved.update({x0.tobytes(): res for x0, res in zip(starts, every)})
            want = every[0]
            for cand in every[1:]:
                if _better(cand, want):
                    want = cand
            got = multistart(prog, k=16, seed=0)
            solved.clear()
            assert got.converged == want.converged, prog.descriptor
            assert abs(got.f_star - want.f_star) <= solve.F_TIE * max(1.0, abs(want.f_star)), \
                prog.descriptor


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

    def test_nan_objective_names_the_first_node(self):
        objs = [lambda x: np.where(x[..., 0] > 0.9, np.nan, x[..., 0]),
                lambda x: -x[..., 0]]
        with pytest.raises(ValueError, match=r"objective 0 is NaN at grid node \[1.0, -1.0\]"):
            pareto_front(objs, Region.unit_cube(2), 0.5)
        objs = [lambda x: x[..., 0], lambda x: np.where(x[..., 1] >= 0.0, np.nan, x[..., 1])]
        with pytest.raises(ValueError, match=r"objective 1 is NaN at grid node \[-1.0, 0.0\]"):
            pareto_front(objs, Region.unit_cube(2), 0.5)

    @settings(max_examples=300, deadline=None)
    @given(d=st.integers(2, 4), n=st.integers(1, 300), levels=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_mask_equals_pairwise_dominance(self, d, n, levels, seed):
        """Small integer values make ties and duplicate rows common."""
        vals = np.random.default_rng(seed).integers(0, levels, size=(n, d)).astype(float)
        weak = np.all(vals[None, :, :] <= vals[:, None, :], axis=-1)
        strict = np.any(vals[None, :, :] < vals[:, None, :], axis=-1)
        assert np.array_equal(_nondominated_mask(vals), ~np.any(weak & strict, axis=1))

    # sha256 over each front point's coordinates then its values, as float64
    # bytes in front order, recorded from the row-major filter that preceded
    # the feature-major one (numpy 2.4.6 with its bundled OpenBLAS; a BLAS
    # that rounds the predictions differently changes the values)
    FRONT_DIGESTS = {
        ("cube", 0.1): (106, "6e464804a0a447c6e978282ccb860c8338e89b1bea9a00f823dda47f87e9c896"),
        ("cube", 0.05): (274, "9543f6c2846ed9b298451fef76eec3b578b62d744a0a79ad8e98e36a8d666dfa"),
        ("ball", 0.1): (63, "14f4352a0daa9f6992f71ead88877197761e043d4bc2b506a2b9fc9702502639"),
    }

    @pytest.mark.parametrize("region, resolution", list(FRONT_DIGESTS))
    def test_front_keeps_its_recorded_bits(self, example_model, region, resolution):
        objs = self.objective_sets(example_model)["weighted mean and variance"]
        shape = Region.unit_cube(3) if region == "cube" else Region.hypersphere(1.0, dim=3)
        front = pareto_front(objs, shape, resolution)
        digest = hashlib.sha256()
        for x, v in front.points:
            digest.update(x.tobytes())
            digest.update(v.tobytes())
        assert (len(front.points), digest.hexdigest()) == self.FRONT_DIGESTS[region, resolution]
