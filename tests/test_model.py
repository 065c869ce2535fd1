import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmopt.model import (
    ExperimentData,
    Region,
    Run,
    TermSpec,
    build_design_matrix,
    evaluate_basis,
)

INTERACTION_TERMS = ["1", "x1", "x2", "x3", "x1*x2", "x1*x3", "x2*x3"]


def interaction_spec():
    return TermSpec.from_names(INTERACTION_TERMS, 3)


class TestTermSpec:
    def test_full_second_order_count(self):
        for n in (1, 2, 3, 5):
            spec = TermSpec.full_second_order(n)
            assert spec.p == 1 + n + n * (n + 1) // 2

    def test_ordering(self):
        spec = TermSpec.full_second_order(2)
        assert spec.term_names() == ["1", "x1", "x2", "x1^2", "x2^2", "x1*x2"]

    def test_intercept_required_first(self):
        with pytest.raises(ValueError):
            TermSpec(n=2, terms=((0,), ()))

    def test_rejects_duplicates_and_high_degree(self):
        with pytest.raises(ValueError):
            TermSpec(n=2, terms=((), (0,), (0,)))
        with pytest.raises(ValueError):
            TermSpec(n=2, terms=((), (0, 0, 1)))
        with pytest.raises(ValueError):
            TermSpec(n=2, terms=((), (5,)))

    @pytest.mark.parametrize("names, repeated", [
        (["1", "x1*x2", "x2*x1"], "x1*x2"),
        (["1", "x1", "x1^1"], "x1"),
        (["1", "x2^2", "x2*x2"], "x2^2"),
    ])
    def test_duplicate_names_the_repeated_term(self, names, repeated):
        with pytest.raises(ValueError, match=f"duplicate monomial {re.escape(repr(repeated))}"):
            TermSpec.from_names(names, 2)

    @pytest.mark.parametrize("names", ["1", "x1", {"1": 1}, None])
    def test_terms_must_be_a_list(self, names):
        with pytest.raises(ValueError, match="terms must be a list"):
            TermSpec.from_names(names, 2)

    def test_parse_names(self):
        spec = TermSpec.from_names(["1", "x2", "x1^2", "x1*x3"], 3)
        assert spec.terms == ((), (1,), (0, 0), (0, 2))

    def test_parse_exponent_one_and_spaces(self):
        spec = TermSpec.from_names(["1", "x1^1", "x2 * x3", "x3 ^ 2"], 3)
        assert spec.terms == ((), (0,), (1, 2), (2, 2))

    @pytest.mark.parametrize("bad", [
        "x1^0", "x1^-1", "x1^3", "x1^a", "x1^", "x", "y1", "x0", "x4", "x1*",
        "x1^2*x2", "x1*x2*x3", "1*x1", "x²", 1,
    ])
    def test_bad_term_is_named(self, bad):
        # in place of the intercept, x1^0 and x1^-1 used to load as "1"
        with pytest.raises(ValueError, match=f"bad term {re.escape(repr(bad))}"):
            TermSpec.from_names([bad, "x1", "x2", "x3"], 3)


class TestEvaluateBasis:
    def test_origin_kills_all_but_intercept(self):
        z = evaluate_basis((0, 0, 0), interaction_spec())
        assert z.tolist() == [1, 0, 0, 0, 0, 0, 0]

    def test_sign_arithmetic(self):
        z = evaluate_basis((1, 1, -1), interaction_spec())
        assert z.tolist() == [1, 1, 1, -1, 1, -1, -1]

    def test_full_second_order_point(self):
        z = evaluate_basis((0.5, -1, 0.2), TermSpec.full_second_order(3))
        expected = [1, 0.5, -1, 0.2, 0.25, 1, 0.04, -0.5, 0.1, -0.2]
        assert z == pytest.approx(expected)

    def test_index_pairs_into_augmented_point(self):
        spec = TermSpec.from_names(["1", "x2", "x1^2", "x1*x3"], 3)
        assert spec.pair_a.tolist() == [3, 1, 0, 0]
        assert spec.pair_b.tolist() == [3, 3, 0, 2]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_basis((1, 2), interaction_spec())

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(10, 3))
        spec = TermSpec.full_second_order(3)
        batch = evaluate_basis(pts, spec)
        for i, x in enumerate(pts):
            assert batch[i] == pytest.approx(evaluate_basis(x, spec).tolist())

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.lists(st.floats(-2, 2), min_size=3, max_size=3),
        s=st.floats(0.1, 3.0),
        axis=st.integers(0, 2),
    )
    def test_scaling_multiplicativity(self, x, s, axis):
        # scaling x_i by s scales each monomial by s**multiplicity(i)
        spec = TermSpec.full_second_order(3)
        x = np.array(x)
        scaled = x.copy()
        scaled[axis] *= s
        z, zs = evaluate_basis(x, spec), evaluate_basis(scaled, spec)
        for j, term in enumerate(spec.terms):
            mult = sum(1 for i in term if i == axis)
            assert zs[j] == pytest.approx(z[j] * s**mult, rel=1e-12, abs=1e-12)


class TestRegion:
    def test_paper_solution_point_inside(self):
        cube = Region.unit_cube(3)
        assert cube.contains((1.0, 0.707, 0.452))

    def test_outside_box(self):
        assert not Region.unit_cube(3).contains((1.01, 0, 0))

    def test_sphere_boundary(self):
        ball = Region.hypersphere(1.0, dim=3)
        assert ball.contains((0.6, 0.8, 0.0))
        assert not ball.contains((0.6, 0.8, 0.1))

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Region.hypercube([0, 0], [1, 0])
        with pytest.raises(ValueError):
            Region.hypersphere(-1.0, dim=2)

    @pytest.mark.parametrize("dim", [None, 0, -1, 2.0, True, "3"])
    def test_hypersphere_needs_a_positive_integer_dim(self, dim):
        with pytest.raises(ValueError, match="dim must be a positive integer"):
            Region.hypersphere(1.0, dim=dim)

    def test_hypersphere_dim_is_required(self):
        with pytest.raises(TypeError):
            Region.hypersphere(1.0)

    @pytest.mark.parametrize("region", [Region.hypersphere(1.0, dim=3), Region.unit_cube(3)],
                             ids=["ball", "box"])
    @pytest.mark.parametrize("x", [[0, 0], [0, 0, 0, 0], [[0, 0, 0]]])
    def test_contains_rejects_a_point_of_the_wrong_length(self, region, x):
        with pytest.raises(ValueError, match="dimension mismatch"):
            region.contains(x)

    @pytest.mark.parametrize("lower, upper", [
        ([-1, -1], [1, np.inf]),
        ([-np.inf, -1], [1, 1]),
        ([-1, np.nan], [1, 1]),
    ])
    def test_non_finite_bounds_are_rejected(self, lower, upper):
        with pytest.raises(ValueError, match="finite|lower < upper"):
            Region.hypercube(lower, upper)

    @pytest.mark.parametrize("radius", [np.inf, np.nan])
    def test_non_finite_radius_is_rejected(self, radius):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            Region.hypersphere(radius, dim=2)

    def test_clip_projects_into_ball(self):
        ball = Region.hypersphere(1.0, dim=2)
        x = ball.clip(np.array([3.0, 4.0]))
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_clip_projects_each_row_of_a_batch(self):
        ball = Region.hypersphere(1.0, dim=2)
        batch = np.array([[2.0, 0.0], [0.0, 0.5], [0.0, 0.0], [3.0, 4.0]])
        got = ball.clip(batch)
        assert got.shape == batch.shape
        assert got == pytest.approx(np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 0.0], [0.6, 0.8]]))
        assert got[1].tolist() == [0.0, 0.5]  # an inside row is left as it is
        # a batch row projects exactly as the same point on its own
        for row, want in zip(batch, got):
            assert np.array_equal(ball.clip(row), want)
        cube = Region.unit_cube(2)
        assert cube.clip(batch).tolist() == [[1.0, 0.0], [0.0, 0.5], [0.0, 0.0], [1.0, 1.0]]


class TestDesignMatrix:
    def test_example_is_orthogonal(self, example_data):
        X, Y = build_design_matrix(example_data, interaction_spec())
        assert X.shape == (32, 7)
        assert Y.shape == (32, 2)
        assert np.allclose(X.T @ X, 32 * np.eye(7))

    def test_single_run_intercept_only(self):
        data = ExperimentData(runs=(Run(1, [0.3], [[1.0]]),))
        X, Y = build_design_matrix(data, TermSpec(n=1, terms=((),)))
        assert X.tolist() == [[1.0]]

    def test_two_point_linear(self):
        data = ExperimentData(
            runs=(Run(1, [1.0], [[2.0]]), Run(2, [-1.0], [[0.0]]))
        )
        spec = TermSpec(n=1, terms=((), (0,)))
        X, _ = build_design_matrix(data, spec)
        assert X.tolist() == [[1, 1], [1, -1]]

    def test_underdetermined(self):
        data = ExperimentData(runs=(Run(1, [0.0, 0.0], [[1.0]]),))
        with pytest.raises(ValueError, match="underdetermined"):
            build_design_matrix(data, TermSpec.full_second_order(2))

    def test_row_count_equals_replicates(self, example_data):
        X, _ = build_design_matrix(example_data, interaction_spec())
        assert X.shape[0] == example_data.n_observations == 32
