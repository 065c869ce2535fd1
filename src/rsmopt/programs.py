"""Deterministic scalar programs for the stochastic solution concepts.

Each constructor turns a fitted multiresponse model into a
``ScalarProgram``: an objective over the factor space, optional equality
constraints, and a feasible region. Everything is vectorized over a
leading batch axis so the grid oracle can evaluate millions of points.

Notation used throughout: m_k(x) is the predicted mean of response k and
s_k(x) = sqrt(q(x) * sigma_kk) its prediction standard deviation.
Each constructor defines its method once, as a score function that maps
a batch to the objective and every equality residual from one pass over
(m, q); the solvers call that function, and the program's ``objective``
and ``eq_constraints`` are its components. A method that needs both m
and q gets them from one ``moments`` call per batch; one that needs only
one calls ``predict`` or ``unit_variance``, and modified-e-epsilon, which
needs q for its objective and m for its constraints, calls each once.
What does not depend on x (a normal quantile, diag Sigma) is computed
once per program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fit import FittedModel, covariance_at, matrix_sqrt, moments, predict, unit_variance
from .model import Region

__all__ = [
    "MethodConfig",
    "ScalarProgram",
    "GoalDeviations",
    "v_model",
    "mean_weighting",
    "modified_e_weighting",
    "modified_e_epsilon",
    "p_model_terms",
    "p_model_weighting",
    "p_model_epsilon",
    "kataoka_terms",
    "kataoka_weighting",
    "kataoka_epsilon",
    "goal_deviations",
    "goal_programming",
    "normal_quantile",
    "joint_probability_mc",
]


@dataclass(frozen=True)
class MethodConfig:
    """Knobs shared by the method constructors.

    ``confidence`` is the probability level of the Kataoka-style terms
    (one knob; 0.5 makes the quantile term vanish). ``primary_index`` is
    1-based and names the response kept as the objective in
    epsilon-constraint programs. ``variance_scale`` multiplies q(x) in
    scalarized objectives; it defaults to 1 and is only ever set
    explicitly (the worked example uses N because q scales as 1/N for an
    orthogonal design).
    """

    tau: np.ndarray | None = None
    w: np.ndarray | None = None
    confidence: float = 0.95
    r1: float = 0.5
    r2: float = 0.5
    variance_scale: float = 1.0
    primary_index: int | None = None
    epsilon: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("tau", "w", "epsilon"):
            v = getattr(self, name)
            if v is not None:
                v = np.asarray(v, dtype=float)
                if not np.all(np.isfinite(v)):
                    raise ValueError(f"{name} must be finite")
                object.__setattr__(self, name, v)
        if self.w is not None:
            if np.any(self.w < 0) or abs(float(np.sum(self.w)) - 1.0) > 1e-9:
                raise ValueError("weights must be nonnegative and sum to 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if self.r1 < 0 or self.r2 < 0 or abs(self.r1 + self.r2 - 1.0) > 1e-9:
            raise ValueError("r1, r2 must be nonnegative with r1 + r2 = 1")
        if self.variance_scale <= 0:
            raise ValueError("variance_scale must be positive")


# A batch -> (objective, tuple of equality residuals), each of the batch shape.
Score = Callable[[np.ndarray], tuple[np.ndarray, tuple[np.ndarray, ...]]]


@dataclass(frozen=True)
class ScalarProgram:
    """Objective, equality constraints (== 0) and region for one method.

    ``score`` returns the objective and every equality residual from one
    evaluation at a batch; the solvers score through it. A program built
    by hand may give only ``objective`` and ``eq_constraints``, and its
    score is then composed from them (and recomposed when
    ``dataclasses.replace`` swaps them). ``smooth`` declares the objective
    and constraints continuously differentiable in x, which lets a local
    solver use gradients; a program built by hand keeps the
    derivative-free default.
    """

    objective: Callable[[np.ndarray], np.ndarray]
    region: Region
    descriptor: str
    eq_constraints: tuple[Callable[[np.ndarray], np.ndarray], ...] = field(default=())
    smooth: bool = False
    score: Score | None = None

    def __post_init__(self) -> None:
        if self.score is None or getattr(self.score, "composed", False):
            object.__setattr__(self, "score",
                               _composed_score(self.objective, self.eq_constraints))


def _composed_score(objective, eq_constraints) -> Score:
    """The score of a program given as separate callables."""
    def score(x):
        return objective(x), tuple(c(x) for c in eq_constraints)

    score.composed = True
    return score


def _program(score: Score, n_eq: int, region: Region, descriptor: str,
             smooth: bool = True) -> ScalarProgram:
    """A built-in program: the objective and each constraint read ``score``."""
    def constraint(k: int):
        return lambda x: score(x)[1][k]

    return ScalarProgram(
        objective=lambda x: score(x)[0],
        eq_constraints=tuple(constraint(k) for k in range(n_eq)),
        score=score,
        region=region,
        descriptor=descriptor,
        smooth=smooth,
    )


@dataclass(frozen=True)
class GoalDeviations:
    """Componentwise positive/negative parts of (kataoka term - tau)."""

    d_plus: np.ndarray
    d_minus: np.ndarray


def _default_region(model: FittedModel, region: Region | None) -> Region:
    return region if region is not None else Region.unit_cube(model.n)


def _require(cfg: MethodConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"method requires config field {name!r}")


def v_model(model: FittedModel, cfg: MethodConfig | None = None,
            region: Region | None = None) -> ScalarProgram:
    """Minimum-variance program: every matrix criterion of q(x)*Sigma shares
    its argmin with q(x), so the objective is just (scaled) q."""
    scale = cfg.variance_scale if cfg is not None else 1.0

    def score(x):
        return scale * np.asarray(unit_variance(model, x)), ()

    return _program(score, 0, _default_region(model, region), "v-model")


def mean_weighting(model: FittedModel, cfg: MethodConfig,
                   region: Region | None = None) -> ScalarProgram:
    """Weighted sum of predicted means."""
    _require(cfg, "w")
    w = cfg.w

    def score(x):
        return predict(model, x) @ w, ()

    return _program(score, 0, _default_region(model, region), "mean-weighting")


def modified_e_weighting(model: FittedModel, cfg: MethodConfig,
                         region: Region | None = None) -> ScalarProgram:
    """r1 * (weighted mean) + r2 * (scaled q): mean/dispersion trade-off."""
    _require(cfg, "w")
    w, r1, r2, scale = cfg.w, cfg.r1, cfg.r2, cfg.variance_scale

    def score(x):
        m, q = moments(model, x)
        return r1 * (m @ w) + r2 * scale * q, ()

    return _program(score, 0, _default_region(model, region), "modified-e-weighting")


def modified_e_epsilon(model: FittedModel, cfg: MethodConfig,
                       region: Region | None = None) -> ScalarProgram:
    """Minimize scaled q subject to every predicted mean hitting its target."""
    _require(cfg, "tau")
    tau, scale = cfg.tau, cfg.variance_scale

    def score(x):
        m = predict(model, x)
        return (scale * np.asarray(unit_variance(model, x)),
                tuple(m[..., k] - tau[k] for k in range(model.r)))

    return _program(score, model.r, _default_region(model, region),
                    "modified-e-epsilon")


def _p_model_fn(model: FittedModel, tau) -> Callable[[np.ndarray], np.ndarray]:
    """x -> (tau_k - m_k(x)) / s_k(x), with diag Sigma taken once."""
    tau = np.asarray(tau, dtype=float)
    var_diag = np.diag(model.sigma_hat)

    def terms(x):
        m, q = moments(model, x)
        s = np.sqrt(np.multiply.outer(q, var_diag))
        if np.any(s <= 0):
            raise ValueError("zero prediction variance")
        return (tau - m) / s

    return terms


def p_model_terms(model: FittedModel, tau, x) -> np.ndarray:
    """Standardized shortfalls (tau_k - m_k(x)) / s_k(x); shape (..., r)."""
    return _p_model_fn(model, tau)(x)


def p_model_weighting(model: FittedModel, cfg: MethodConfig,
                      region: Region | None = None) -> ScalarProgram:
    _require(cfg, "tau", "w")
    terms, w = _p_model_fn(model, cfg.tau), cfg.w

    def score(x):
        return terms(x) @ w, ()

    return _program(score, 0, _default_region(model, region), "p-model-weighting")


def _epsilon_score(model: FittedModel, terms, targets: np.ndarray,
                   primary_index: int) -> Score:
    """Keep the primary term as the objective; every other term minus its
    target is an equality residual."""
    k_star = primary_index - 1
    if not 0 <= k_star < model.r:
        raise ValueError("primary_index out of range")
    others = [k for k in range(model.r) if k != k_star]

    def score(x):
        t = terms(x)
        return t[..., k_star], tuple(t[..., k] - targets[k] for k in others)

    return score


def p_model_epsilon(model: FittedModel, cfg: MethodConfig,
                    region: Region | None = None) -> ScalarProgram:
    """Keep one standardized term as objective; pin the others to epsilon."""
    _require(cfg, "tau", "primary_index", "epsilon")
    score = _epsilon_score(model, _p_model_fn(model, cfg.tau), cfg.epsilon,
                           cfg.primary_index)
    return _program(score, model.r - 1, _default_region(model, region),
                    "p-model-epsilon")


def _kataoka_fn(model: FittedModel, cfg: MethodConfig) -> Callable[[np.ndarray], np.ndarray]:
    """x -> m_k(x) + quantile * s_k(x), with the quantile and diag Sigma
    taken once."""
    quant = normal_quantile(cfg.confidence)
    var_diag = np.diag(model.sigma_hat)

    def terms(x):
        m, q = moments(model, x)
        return m + quant * np.sqrt(np.multiply.outer(q, var_diag))

    return terms


def kataoka_terms(model: FittedModel, cfg: MethodConfig, x) -> np.ndarray:
    """m_k(x) + quantile(confidence) * s_k(x); shape (..., r)."""
    return _kataoka_fn(model, cfg)(x)


def kataoka_weighting(model: FittedModel, cfg: MethodConfig,
                      region: Region | None = None) -> ScalarProgram:
    _require(cfg, "w")
    terms, w = _kataoka_fn(model, cfg), cfg.w

    def score(x):
        return terms(x) @ w, ()

    return _program(score, 0, _default_region(model, region), "kataoka-weighting")


def kataoka_epsilon(model: FittedModel, cfg: MethodConfig,
                    region: Region | None = None) -> ScalarProgram:
    """Minimize the primary Kataoka term; pin the others to their targets."""
    _require(cfg, "tau", "primary_index")
    score = _epsilon_score(model, _kataoka_fn(model, cfg), cfg.tau, cfg.primary_index)
    return _program(score, model.r - 1, _default_region(model, region),
                    "kataoka-epsilon")


def goal_deviations(model: FittedModel, cfg: MethodConfig, x) -> GoalDeviations:
    """Positive and negative parts of (kataoka term - tau), componentwise."""
    _require(cfg, "tau")
    diff = kataoka_terms(model, cfg, x) - cfg.tau
    return GoalDeviations(
        d_plus=np.maximum(diff, 0.0),
        d_minus=np.maximum(-diff, 0.0),
    )


def goal_programming(model: FittedModel, cfg: MethodConfig,
                     region: Region | None = None) -> ScalarProgram:
    """Sum of weighted deviations; identical to sum w_k |term_k - tau_k|.

    The |.| kinks make it the one nonsmooth program, so it keeps
    ``smooth=False`` and a derivative-free polish."""
    _require(cfg, "tau", "w")
    terms, tau, w = _kataoka_fn(model, cfg), cfg.tau, cfg.w

    def score(x):
        return np.abs(terms(x) - tau) @ w, ()

    return _program(score, 0, _default_region(model, region), "goal-programming",
                    smooth=False)


def normal_quantile(prob: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    prob = float(prob)
    if not 0.0 < prob < 1.0:
        raise ValueError("probability must lie strictly inside (0, 1)")
    from scipy.special import ndtri  # imported on first use: scipy loads slowly

    return float(ndtri(prob))


def joint_probability_mc(model: FittedModel, x, tau, n_samples: int,
                         seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of P(all predicted responses <= tau) at x.

    Draws from Normal(m(x), q(x)*Sigma) through the symmetric matrix
    square root; returns (estimate, binomial standard error).
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples")
    tau = np.asarray(tau, dtype=float)
    mean = predict(model, x)
    root = matrix_sqrt(covariance_at(model, x))
    rng = np.random.default_rng(seed)
    draws = mean + rng.standard_normal((int(n_samples), model.r)) @ root
    p_hat = float(np.mean(np.all(draws <= tau, axis=1)))
    std_err = float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
    return p_hat, std_err
