"""Multivariate least squares and covariance machinery.

Fits all responses against a shared design matrix and provides the
pointwise moments of the prediction: the means m(x) = z(x)'B and the unit
variance q(x) = z(x)'(X'X)^{-1} z(x), which scales Sigma. Also the matrix
criteria and the sorted-eigenvalue comparison used to rank covariance
matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TermSpec, evaluate_basis

__all__ = [
    "SingularDesignError",
    "FittedModel",
    "CovCompare",
    "fit_ols",
    "moments",
    "row_moments",
    "predict",
    "unit_variance",
    "covariance_at",
    "matrix_criterion",
    "eigen_sym",
    "matrix_sqrt",
    "compare_covariances",
]

class SingularDesignError(ValueError):
    """X'X is numerically rank deficient."""


@dataclass(frozen=True)
class FittedModel:
    """Least-squares fit of all responses against one design matrix."""

    terms: TermSpec
    b_hat: np.ndarray      # (p, r), column k = coefficient vector of response k
    sigma_hat: np.ndarray  # (r, r) residual covariance, divisor N - p
    xtx_inv: np.ndarray    # (p, p)
    residuals: np.ndarray  # (N, r)
    n_obs: int

    @property
    def p(self) -> int:
        return self.b_hat.shape[0]

    @property
    def r(self) -> int:
        return self.b_hat.shape[1]

    @property
    def n(self) -> int:
        return self.terms.n


@dataclass(frozen=True)
class CovCompare:
    """Sorted-eigenvalue comparison of two covariance matrices.

    ``eigen_gaps[j]`` is the difference of the j-th largest eigenvalues.
    The verdict is ``first_smaller`` only when every gap is strictly
    negative and the matrices differ (a weak Pareto order, not the
    Loewner order).
    """

    verdict: str
    eigen_gaps: np.ndarray


def fit_ols(X: np.ndarray, Y: np.ndarray, terms: TermSpec) -> FittedModel:
    """b_hat = (X'X)^{-1} X'Y; sigma_hat = residual cross-products / (N - p)."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    n_obs, p = X.shape
    if n_obs <= p:
        raise ValueError(f"need N > p, got N={n_obs}, p={p}")
    xtx = X.T @ X
    eig = np.linalg.eigvalsh(xtx)
    if eig[0] < 1e-10 * max(eig[-1], 1.0):
        raise SingularDesignError("singular design")
    xtx_inv = np.linalg.inv(xtx)
    b_hat = xtx_inv @ (X.T @ Y)
    residuals = Y - X @ b_hat
    sigma_hat = residuals.T @ residuals / (n_obs - p)
    sigma_hat = 0.5 * (sigma_hat + sigma_hat.T)
    return FittedModel(
        terms=terms,
        b_hat=b_hat,
        sigma_hat=sigma_hat,
        xtx_inv=0.5 * (xtx_inv + xtx_inv.T),
        residuals=residuals,
        n_obs=n_obs,
    )


def _quadratic_form(z: np.ndarray, a: np.ndarray):
    """z' A z over the last axis of z. One matmul then a sum over the term
    axis: about 3x faster than the three-operand einsum on a grid chunk, and
    as fast on a single point.

    A batch from ``evaluate_basis`` is the transpose of a C-contiguous
    (p, k) array, so for a 2-D z with that layout the product is formed
    as (A' z') * z' and summed over axis 0, which reads both operands in
    memory order; any other z takes ``((z @ a) * z).sum(-1)``."""
    if z.ndim == 2 and z.flags.f_contiguous:
        zt = z.T
        return ((a.T @ zt) * zt).sum(0)
    return ((z @ a) * z).sum(-1)


def _means(z: np.ndarray, b: np.ndarray) -> np.ndarray:
    """z @ b over the last axis of z. For a 2-D batch from ``evaluate_basis``
    the product is formed as b' z', so the means come out feature-major
    like z: a (k, r) view of a C-contiguous (r, k) array, whose columns
    are contiguous."""
    if z.ndim == 2:
        return (b.T @ z.T).T
    return z @ b


def moments(model: FittedModel, x) -> tuple[np.ndarray, np.ndarray]:
    """(m(x), q(x)) from one basis evaluation: the predicted means, shape
    (..., r), and the unit variance, shape (...). For a 2-D batch m is the
    (k, r) transpose of a C-contiguous (r, k) array (see ``_means``)."""
    z = evaluate_basis(x, model.terms)
    return _means(z, model.b_hat), _quadratic_form(z, model.xtx_inv)


def row_moments(model: FittedModel):
    """The moments along grid rows of the last factor: a function
    ``(lead, t) -> (m, q)`` at the nodes (lead_i, t_j) for every row
    ``lead_i`` of ``lead`` (rows, n-1) and every node ``t_j`` of ``t`` (L,),
    in lexicographic order (row i, then j). m has shape (rows * L, r) and
    the layout ``moments`` gives a batch; q has shape (rows * L,).

    Every term of z is its value at x_n = 1 times x_n^d, with d in {0, 1, 2}
    its degree in x_n. So along a row m is the quadratic M0 + M1 t + M2 t^2
    and q the quartic sum_k c_k t^k with c_k = sum_{d+e=k} F_d' A_de F_e,
    where F = z(lead, 1) comes from one ``evaluate_basis`` call per block
    and F_d is its part of degree d. B and A are split by degree once, here;
    a block's coefficients then take three matrix products, and its nodes
    one product with the powers of t each for m and q: a few multiply-adds
    per node instead of p products.

    With the OpenBLAS kernels numpy ships, a matrix-matrix product rounds
    an entry the same way wherever it falls, but a product with one row or
    column takes the matrix-vector path, which rounds some entries
    differently in the last bit. So a lone row or node is scored as two,
    and a row gets the same bits in any block of rows or segment of t."""
    terms, p, r = model.terms, model.p, model.r
    degree = (terms.pair_a == terms.n - 1).astype(int) + (terms.pair_b == terms.n - 1)
    split = degree == np.arange(3)[:, None]                       # (3, p)
    # column 3k + d of f @ b3 is coefficient d of response k's mean
    b3 = (model.b_hat.T[:, None, :] * split).reshape(3 * r, p).T
    # column e p + l of f @ a3 sums f_j A_jl over the terms j of degree e;
    # times f_l it belongs to c_(e + degree l), where to_power sends it
    a3 = (model.xtx_inv * split[:, :, None]).transpose(1, 0, 2).reshape(p, 3 * p)
    to_power = np.zeros((3, p, 5))
    for e in range(3):
        to_power[e, np.arange(p), e + degree] = 1.0
    to_power = to_power.reshape(3 * p, 5)

    def read(lead, t):
        lead = np.asarray(lead, dtype=float)
        t = np.asarray(t, dtype=float)
        rows, size = lead.shape[0], t.size
        if rows == 1:
            lead = np.repeat(lead, 2, axis=0)
        if size == 1:
            t = np.repeat(t, 2)
        f = evaluate_basis(np.column_stack([lead, np.ones(len(lead))]), terms)
        powers = np.vander(t, 5, increasing=True).T               # t^0 .. t^4
        # (r, rows, L): the (rows * L, r) transpose has a batch's layout
        m = (f @ b3).reshape(-1, r, 3).transpose(1, 0, 2) @ powers[:3]
        m = np.ascontiguousarray(m[:, :rows, :size])
        c = ((f @ a3).reshape(-1, 3, p) * f[:, None, :]).reshape(-1, 3 * p) @ to_power
        q = c @ powers
        return m.reshape(r, -1).T, q[:rows, :size].reshape(-1)

    return read


def predict(model: FittedModel, x) -> np.ndarray:
    """Predicted response vector z'(x) b_hat; batch-aware over leading axes."""
    return _means(evaluate_basis(x, model.terms), model.b_hat)


def unit_variance(model: FittedModel, x) -> np.ndarray | float:
    """q(x) = z'(x) (X'X)^{-1} z(x); the shared scale of all prediction variances."""
    q = _quadratic_form(evaluate_basis(x, model.terms), model.xtx_inv)
    return float(q) if np.ndim(q) == 0 else q


def covariance_at(model: FittedModel, x) -> np.ndarray:
    """Estimated covariance of the predicted response vector: q(x) * sigma_hat."""
    q = unit_variance(model, x)
    if np.ndim(q) == 0:
        return float(q) * model.sigma_hat
    return np.multiply.outer(np.asarray(q), model.sigma_hat)


def _check_symmetric(C: np.ndarray, tol: float = 1e-9,
                     name: str = "matrix") -> np.ndarray:
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(C - C.T)) > tol * max(1.0, np.max(np.abs(C))):
        raise ValueError(f"{name} is not symmetric")
    return 0.5 * (C + C.T)


def eigen_sym(C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and matching orthonormal eigenvectors."""
    C = _check_symmetric(C)
    vals, vecs = np.linalg.eigh(C)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def matrix_criterion(C: np.ndarray, kind: str, j: int | None = None) -> float:
    """Scalar ranking functions of a covariance matrix.

    ``lambda_j`` indexes the descending spectrum with 1-based j.
    """
    C = _check_symmetric(C)
    if kind == "trace":
        return float(np.trace(C))
    if kind == "determinant":
        return float(np.linalg.det(C))
    if kind == "elementsum":
        return float(np.sum(C))
    vals, _ = eigen_sym(C)
    if kind == "lambda_max":
        return float(vals[0])
    if kind == "lambda_min":
        return float(vals[-1])
    if kind == "lambda_j":
        if j is None or not 1 <= j <= C.shape[0]:
            raise ValueError(f"lambda_j needs 1 <= j <= {C.shape[0]}")
        return float(vals[j - 1])
    raise ValueError(f"unknown criterion {kind!r}")


def matrix_sqrt(C: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clamped to 0."""
    vals, vecs = eigen_sym(C)
    lam_max = max(float(vals[0]), 0.0)
    if np.any(vals < -1e-6 * max(lam_max, 1.0)):
        raise ValueError("not PSD")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def compare_covariances(C1: np.ndarray, C2: np.ndarray) -> CovCompare:
    """Weak Pareto comparison via the sorted spectra of C1 and C2."""
    a, _ = eigen_sym(C1)
    g, _ = eigen_sym(C2)
    if a.shape != g.shape:
        raise ValueError("dimension mismatch")
    gaps = a - g
    scale = max(np.max(np.abs(a)), np.max(np.abs(g)), 1.0)
    same_matrix = np.max(np.abs(np.asarray(C1, float) - np.asarray(C2, float))) <= 1e-12 * scale
    same_spectrum = np.max(np.abs(gaps)) <= 1e-12 * scale
    if same_matrix or same_spectrum:
        verdict = "equal"
    elif np.all(gaps < 0):
        verdict = "first_smaller"
    elif np.all(gaps > 0):
        verdict = "second_smaller"
    else:
        verdict = "incomparable"
    return CovCompare(verdict=verdict, eigen_gaps=gaps)
