import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmopt.fit import fit_ols
from rsmopt.model import (
    ExperimentData,
    Region,
    TermSpec,
    as_integer,
    as_numbers,
    build_design_matrix,
    evaluate_basis,
)
from rsmopt.programs import MethodConfig

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


class TestNumberRule:
    @pytest.mark.parametrize("value, shape", [
        (3, ()), (-2.5, ()), (np.int32(3), ()), (np.float32(0.5), ()), (np.float64(1e300), ()),
        ([1, 2.5], (2,)), (np.array([1.0, -1.0]), (2,)), (np.arange(6).reshape(2, 3), (2, 3)),
        ([[1, 2.0], [np.int64(3), 4]], (2, 2)), ([], (0,)),
    ])
    def test_numbers_are_accepted_as_floats(self, value, shape):
        got = as_numbers(value, "v", shape)
        assert got.dtype == float and got.shape == shape
        assert np.array_equal(got, np.asarray(value, dtype=float))

    @pytest.mark.parametrize("value, message", [
        (True, "v must be a number, got True"),
        (np.True_, "v must be a number, got np.True_"),
        ("1", "v must be a number, got '1'"),
        (None, "v must be a number, got None"),
        (1j, "v must be a number, got 1j"),
        ([1.0, False], "v must hold numbers, got False"),
        (np.array([True, False]), "v must hold numbers, got True"),
        (["-1", 1.0], "v must hold numbers, got '-1'"),
        ([[1.0, 2.0], [3.0]], "v must hold numbers, got [1.0, 2.0]"),
        (np.nan, "v must be finite"),
        ([1.0, np.inf], "v must be finite"),
        ([[-np.inf]], "v must be finite"),
    ])
    def test_non_numbers_and_non_finite_values_are_rejected(self, value, message):
        with pytest.raises(ValueError) as info:
            as_numbers(value, "v")
        assert str(info.value) == message

    @pytest.mark.parametrize("value, shape, got", [
        ([1.0, 2.0], (3,), (2,)), (1.0, (1,), ()), ([1.0], (), (1,)), ([[1.0, 2.0]], (2,), (1, 2)),
    ])
    def test_a_wrong_shape_is_rejected(self, value, shape, got):
        with pytest.raises(ValueError) as info:
            as_numbers(value, "v", shape)
        assert str(info.value) == f"v must have shape {shape}, got {got}"

    @pytest.mark.parametrize("value", [0, 1, 7, np.int64(2), 10**20])
    def test_integers_at_or_above_the_least_are_accepted(self, value):
        got = as_integer(value, "k", 0)
        assert type(got) is int and got == value

    @pytest.mark.parametrize("value", [3.0, True, False, np.True_, "3", None, -1, [1],
                                       np.float64(2.0)])
    def test_anything_else_is_not_an_integer(self, value):
        with pytest.raises(ValueError) as info:
            as_integer(value, "k", 0)
        assert str(info.value) == f"k must be an integer >= 0, got {value!r}"

    def test_the_library_reaches_the_rule(self):
        with pytest.raises(ValueError, match="radius must be a number, got True"):
            Region.hypersphere(True, dim=3)
        with pytest.raises(ValueError, match="tau must hold numbers, got '103'"):
            MethodConfig(tau=["103", "73"])


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
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            Region.hypersphere(1.0, dim=dim)

    @pytest.mark.parametrize("kwargs, extra", [
        (dict(kind="hypersphere", radius=1.0, dim=2, lower=[-1, -1]), "lower"),
        (dict(kind="hypercube", lower=[-1], upper=[1], radius=1.0, dim=1), "radius or dim"),
    ])
    def test_a_key_of_the_other_kind_is_rejected(self, kwargs, extra):
        with pytest.raises(ValueError) as info:
            Region(**kwargs)
        assert str(info.value) == f"a {kwargs['kind']} takes no {extra}"

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
        with pytest.raises(ValueError, match="radius must be finite"):
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

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("radius", [1.0, 1.2, 8 ** 0.25, 2.0])
    def test_clipped_batch_lies_in_the_ball(self, n, radius):
        """A plain radial rescale rounds about a fifth of these points to
        just past the sphere; every clipped point must pass ``contains``
        at atol 0, and a point already inside comes back bit for bit."""
        ball = Region.hypersphere(radius, dim=n)
        batch = np.random.default_rng(n).uniform(-1.5 * radius, 1.5 * radius, (2_000, n))
        got = ball.clip(batch)
        inside = np.array([ball.contains(x) for x in batch])
        assert 0 < inside.sum() < len(batch)
        assert all(ball.contains(x) for x in got)
        assert np.array_equal(got[inside], batch[inside])


class TestDesignMatrix:
    def test_example_is_orthogonal(self, example_data):
        X, Y = build_design_matrix(example_data, interaction_spec())
        assert X.shape == (32, 7)
        assert Y.shape == (32, 2)
        assert np.allclose(X.T @ X, 32 * np.eye(7))

    def test_single_run_intercept_only(self):
        data = ExperimentData(run_ids=[1], x=[[0.3]], y=[[1.0]])
        X, Y = build_design_matrix(data, TermSpec(n=1, terms=((),)))
        assert X.tolist() == [[1.0]]

    def test_two_point_linear(self):
        data = ExperimentData(run_ids=[1, 2], x=[[1.0], [-1.0]], y=[[2.0], [0.0]])
        spec = TermSpec(n=1, terms=((), (0,)))
        X, _ = build_design_matrix(data, spec)
        assert X.tolist() == [[1, 1], [1, -1]]

    def test_underdetermined(self):
        """N <= p is rejected by the fit, not by the design matrix."""
        data = ExperimentData(run_ids=[1], x=[[0.0, 0.0]], y=[[1.0]])
        spec = TermSpec.full_second_order(2)
        X, Y = build_design_matrix(data, spec)
        assert X.shape == (1, 6)
        with pytest.raises(ValueError, match=r"need N > p, got N=1, p=6"):
            fit_ols(X, Y, spec)

    def test_row_count_equals_replicates(self, example_data):
        X, _ = build_design_matrix(example_data, interaction_spec())
        assert X.shape[0] == len(example_data.run_ids) == len(example_data.y) == 32

    def test_x_is_c_contiguous_and_equals_the_basis_row_by_row(self, example_data):
        """The fit's last bits depend on X's memory layout, so X is C order
        whatever layout evaluate_basis returns."""
        spec = TermSpec.full_second_order(3)
        X, Y = build_design_matrix(example_data, spec)
        assert X.flags.c_contiguous
        for row, x in zip(X, example_data.x):
            assert np.array_equal(row, evaluate_basis(x, spec))
        assert np.array_equal(Y, example_data.y)

    def test_factor_count_must_match(self, example_data):
        with pytest.raises(ValueError, match="disagree on factor count"):
            build_design_matrix(example_data, TermSpec.full_second_order(2))


class TestExperimentData:
    def test_ragged_replicate_counts(self):
        """Run 1 has one replicate and run 2 three: four rows."""
        data = ExperimentData(run_ids=[1, 2, 2, 2], x=[[0.0], [1.0], [1.0], [1.0]],
                              y=[[5.0, 1.0], [6.0, 2.0], [6.5, 2.5], [7.0, 3.0]])
        assert data.run_ids.tolist() == [1, 2, 2, 2]
        assert data.x.shape == (4, 1) and data.y.shape == (4, 2)
        assert data.x.dtype == data.y.dtype == float
        assert data.response_names == ("Y1", "Y2")
        X, _ = build_design_matrix(data, TermSpec(n=1, terms=((), (0,))))
        assert X.tolist() == [[1, 0], [1, 1], [1, 1], [1, 1]]

    def test_names_are_kept(self):
        data = ExperimentData(run_ids=[3], x=[[0.0]], y=[[1.0, 2.0]],
                              response_names=["yield", "purity"])
        assert data.response_names == ("yield", "purity")

    @pytest.mark.parametrize("kwargs, message", [
        (dict(run_ids=[1, 2], x=[[0.0]], y=[[1.0], [2.0]]),
         "run_ids, x and y must have as many rows, got 2, 1 and 2"),
        (dict(run_ids=[1, 2], x=[[0.0], [1.0]], y=[[1.0]]),
         "run_ids, x and y must have as many rows, got 2, 2 and 1"),
        (dict(run_ids=[4, 7, 7], x=[[0.0], [1.0], [1.0]], y=[[1.0], [2.0], [np.nan]]),
         "run 7: non-finite values"),
        (dict(run_ids=[4, 9], x=[[0.0], [np.inf]], y=[[1.0], [2.0]]),
         "run 9: non-finite values"),
        (dict(run_ids=[1], x=[[0.0]], y=[[1.0, 2.0]], response_names=("Y1",)),
         "1 response names for 2 responses"),
        (dict(run_ids=[], x=np.empty((0, 1)), y=np.empty((0, 1))), "no observations"),
        (dict(run_ids=[1], x=[0.0], y=[[1.0]]), "run_ids must be 1-d, x and y 2-d"),
    ], ids=["x rows", "y rows", "nan response", "inf factor", "name count", "no rows",
            "1-d x"])
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentData(**kwargs)
