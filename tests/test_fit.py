import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmopt.fit import (
    SingularDesignError,
    compare_covariances,
    covariance_at,
    eigen_sym,
    fit_ols,
    matrix_criterion,
    matrix_sqrt,
    predict,
    unit_variance,
)
from rsmopt.model import TermSpec, evaluate_basis

PAPER_B1 = [104.86, -3.147, -0.142, -0.199, 2.379, -0.35, -0.106]
PAPER_B2 = [70.45, -0.348, 3.59, 0.28, 0.323, -0.45, 0.614]
PAPER_SIGMA = [[4.190, 3.546], [3.546, 4.666]]


def random_symmetric(rng, r):
    a = rng.standard_normal((r, r))
    return 0.5 * (a + a.T)


class TestFitOls:
    def test_example_coefficients(self, example_model):
        assert example_model.b_hat[:, 0] == pytest.approx(PAPER_B1, abs=0.01)
        assert example_model.b_hat[:, 1] == pytest.approx(PAPER_B2, abs=0.01)

    def test_example_sigma(self, example_model):
        assert example_model.sigma_hat == pytest.approx(
            np.array(PAPER_SIGMA), abs=0.002
        )

    def test_perfect_fit_has_zero_sigma(self):
        spec = TermSpec(n=1, terms=((), (0,)))
        X = np.array([[1, -1], [1, 0], [1, 1], [1, 2]], dtype=float)
        Y = np.full((4, 2), 5.0)
        model = fit_ols(X, Y, spec)
        assert np.allclose(model.sigma_hat, 0.0)
        assert np.allclose(model.residuals, 0.0)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(7)
        spec = TermSpec.full_second_order(2)
        pts = rng.uniform(-1, 1, size=(20, 2))
        X = evaluate_basis(pts, spec)
        B = rng.standard_normal((spec.p, 3))
        model = fit_ols(X, X @ B, spec)
        assert np.allclose(model.b_hat, B, atol=1e-9)
        assert np.allclose(model.sigma_hat, 0.0, atol=1e-9)

    def test_residuals_orthogonal_to_design(self, example_model, example_data):
        from rsmopt.model import build_design_matrix

        X, _ = build_design_matrix(example_data, example_model.terms)
        assert np.max(np.abs(X.T @ example_model.residuals)) < 1e-9

    def test_residual_mean_zero_with_intercept(self, example_model):
        assert np.abs(example_model.residuals.mean(axis=0)).max() < 1e-12

    def test_singular_design(self):
        spec = TermSpec(n=1, terms=((), (0,)))
        X = np.array([[1, 1], [1, 1], [1, 1]], dtype=float)  # duplicated column
        with pytest.raises(SingularDesignError):
            fit_ols(X, np.zeros((3, 1)), spec)


class TestPrediction:
    @pytest.mark.parametrize(
        "x, expected",
        [
            ((0, 0, 0), (104.86, 70.45)),
            ((1, -1, 1), (99.039, 65.405)),
            ((1, 1, -1), (104.612, 73.574)),
        ],
    )
    def test_example_predictions(self, example_model, x, expected):
        assert predict(example_model, x) == pytest.approx(expected, abs=0.01)

    def test_unit_variance_values(self, example_model):
        assert unit_variance(example_model, (0, 0, 0)) == pytest.approx(0.03125)
        assert unit_variance(example_model, (1, 1, -1)) == pytest.approx(0.21875)

    def test_covariance_values(self, example_model):
        assert covariance_at(example_model, (0, 0, 0)) == pytest.approx(
            np.array([[0.131, 0.111], [0.111, 0.146]]), abs=0.001
        )
        assert covariance_at(example_model, (1, 1, -1)) == pytest.approx(
            np.array([[0.917, 0.776], [0.776, 1.021]]), abs=0.002
        )

    def test_covariance_is_q_times_sigma(self, example_model):
        rng = np.random.default_rng(3)
        for x in rng.uniform(-1, 1, size=(20, 3)):
            q = unit_variance(example_model, x)
            assert np.allclose(
                covariance_at(example_model, x), q * example_model.sigma_hat
            )

    def test_eigenvalue_scaling_identity(self, example_model):
        # lambda_j(q * Sigma) = q * lambda_j(Sigma)
        sig_vals, _ = eigen_sym(example_model.sigma_hat)
        rng = np.random.default_rng(11)
        for x in rng.uniform(-1, 1, size=(50, 3)):
            q = unit_variance(example_model, x)
            vals, _ = eigen_sym(covariance_at(example_model, x))
            assert np.max(np.abs(vals - q * sig_vals)) < 1e-10


class TestMatrixOps:
    def test_trace_of_example_sigma(self, example_model):
        assert matrix_criterion(example_model.sigma_hat, "trace") == pytest.approx(
            8.856, abs=0.002
        )

    def test_identity_determinant(self):
        assert matrix_criterion(np.eye(2), "determinant") == pytest.approx(1.0)

    def test_diagonal_extremes(self):
        C = np.diag([2.0, 1.0])
        assert matrix_criterion(C, "lambda_max") == 2.0
        assert matrix_criterion(C, "lambda_min") == 1.0
        assert matrix_criterion(C, "lambda_j", j=1) == 2.0
        assert matrix_criterion(C, "lambda_j", j=np.int64(2)) == 1.0
        with pytest.raises(ValueError, match=r"^lambda_j needs 1 <= j <= 2$"):
            matrix_criterion(C, "lambda_j", j=3)

    @pytest.mark.parametrize("j", [True, 1.5, "1", None, 0, -1])
    def test_lambda_j_needs_an_integer_j(self, j):
        """j=True gave lambda_1 and j=1.5 an IndexError that did not name j."""
        with pytest.raises(ValueError, match=f"j must be an integer >= 1, got {j!r}"):
            matrix_criterion(np.diag([2.0, 1.0]), "lambda_j", j=j)

    def test_eigen_sym_diag(self):
        vals, _ = eigen_sym(np.diag([3.0, 1.0]))
        assert vals.tolist() == [3.0, 1.0]

    def test_eigen_sym_offdiag(self):
        vals, _ = eigen_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert vals == pytest.approx([1.0, -1.0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_eigen_reconstruction(self, seed):
        C = random_symmetric(np.random.default_rng(seed), 5)
        vals, vecs = eigen_sym(C)
        assert np.max(np.abs(vecs @ np.diag(vals) @ vecs.T - C)) < 1e-10
        assert list(vals) == sorted(vals, reverse=True)

    def test_matrix_sqrt_diag(self):
        assert np.allclose(matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
        assert np.allclose(matrix_sqrt(np.eye(3)), np.eye(3))

    def test_matrix_sqrt_of_prediction_covariance(self, example_model):
        C = covariance_at(example_model, (1, 1, -1))
        root = matrix_sqrt(C)
        assert np.max(np.abs(root @ root - C)) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matrix_sqrt_random_psd(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        C = a @ a.T
        root = matrix_sqrt(C)
        assert np.max(np.abs(root @ root - C)) < 1e-9 * max(1, np.max(np.abs(C)))

    def test_matrix_sqrt_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            matrix_sqrt(np.diag([1.0, -0.5]))


class TestCompareCovariances:
    def test_proportional_spectra(self, example_model):
        C1 = covariance_at(example_model, (0, 0, 0))
        C2 = covariance_at(example_model, (1, 1, -1))
        assert compare_covariances(C1, C2).verdict == "first_smaller"
        assert compare_covariances(C2, C1).verdict == "second_smaller"

    def test_equal(self):
        C = np.diag([2.0, 1.0])
        out = compare_covariances(C, C)
        assert out.verdict == "equal"
        assert np.allclose(out.eigen_gaps, 0.0)

    def test_equal_spectra_different_matrices(self):
        # sorted eigenvalues tie even though the matrices differ
        out = compare_covariances(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        assert out.verdict == "equal"

    def test_incomparable(self):
        out = compare_covariances(np.diag([3.0, 0.5]), np.diag([2.0, 1.0]))
        assert out.verdict == "incomparable"
