"""Deterministic scalar programs for the stochastic solution concepts.

Each constructor turns a fitted multiresponse model into a
``ScalarProgram``: an objective over the factor space, optional equality
constraints, and a feasible region. Everything is vectorized over a
leading batch axis so the grid oracle can evaluate millions of points.

Notation used throughout: m_k(x) is the predicted mean of response k and
s_k(x) = sqrt(q(x) * sigma_kk) its prediction standard deviation.
Each constructor defines its method once, as a function ``fn(m, q)`` of the
moments that returns the objective and every equality residual, and
``_program`` composes it with one ``moments`` call per batch: that
composition is the program's ``scorer``, which the solvers call through
``score``, and its ``objective`` and ``eq_constraints`` are the components. The same ``fn``
composed with ``row_moments`` scores whole rows of a grid for the oracle.
modified-e-epsilon is the one exception: it reads (m, q) through
``predict`` and ``unit_variance`` (its docstring says why) and has no row
scorer. What does not depend on x (a normal quantile, diag Sigma) is
computed once per program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .fit import FittedModel, matrix_sqrt, moments, predict, row_moments, unit_variance
from .model import Region, as_integer, as_numbers

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
    """The parameters of one method's program.

    One class holds every method's fields; ``METHODS`` names the few each
    method reads, and a config may set no other. ``confidence`` is the
    probability level of the Kataoka-style terms (0.5 makes the quantile
    term vanish). ``primary`` is 1-based and names the response kept as the
    objective in epsilon-constraint programs. ``r1`` in [0, 1] weighs the
    mean in the E-model, and 1 - r1 the variance. No field scales the
    variance: the V-model and both modified E-models score N*q(x), the
    scaled prediction variance (Box & Hunter 1957), with N the fit's
    observation count. Every numeric field must be a finite number
    (``model.as_numbers``; a bool or a string is a ValueError naming the
    field) and ``primary`` an integer >= 1; each constructor that reads a
    field checks that a config fits its model (see ``_require``).
    """

    tau: np.ndarray | None = None
    w: np.ndarray | None = None
    confidence: float = 0.95
    r1: float = 0.5
    primary: int | None = None
    epsilon: np.ndarray | None = None

    def __post_init__(self) -> None:
        for name in ("tau", "w", "epsilon"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_numbers(getattr(self, name), name))
        for name in ("confidence", "r1"):
            object.__setattr__(self, name, float(as_numbers(getattr(self, name), name, ())))
        if self.primary is not None:
            object.__setattr__(self, "primary", as_integer(self.primary, "primary", 1))
        if self.w is not None:
            if np.any(self.w < 0) or abs(float(np.sum(self.w)) - 1.0) > 1e-9:
                raise ValueError("weights must be nonnegative and sum to 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie in (0, 1)")
        if not 0.0 <= self.r1 <= 1.0:
            raise ValueError("r1 must lie in [0, 1]")


# A batch -> (objective, tuple of equality residuals), each of the batch shape.
Score = Callable[[np.ndarray], tuple[np.ndarray, tuple[np.ndarray, ...]]]


@dataclass(frozen=True)
class ScalarProgram:
    """Objective, equality constraints (== 0) and region for one method.

    ``score`` returns the objective and every equality residual from one
    evaluation at a batch; the solvers score through it. It calls
    ``scorer``, which every built-in program sets. A program built by hand
    may give only ``objective`` and ``eq_constraints``, and ``score`` then
    calls those, including ones that ``dataclasses.replace`` swaps in.
    ``multistart`` gives every program to ``solve.sqp``, which
    differentiates ``score`` by central differences; ``solve.nelder_mead`` is
    the tests' reference, not a product path. ``goals``, set only by
    ``goal_programming``, is ``(gap, w)``: the objective is ``|gap(x)| @ w``
    for a differentiable ``gap`` from a batch to its (batch, r) deviations
    from the targets, which ``sqp`` solves in deviation-variable form.
    ``rows``, set by ``_program`` for a program that reads ``moments``, is
    ``(score_rows, r)``: ``score_rows(lead, t)`` gives what ``score`` gives
    at the grid nodes (lead_i, t_j) in lexicographic order, for leading
    coordinates ``lead`` (rows, n-1) and last-axis nodes ``t``, and r, the
    width of its (nodes, r) means, sizes the blocks ``grid_search`` scores.
    """

    objective: Callable[[np.ndarray], np.ndarray]
    region: Region
    descriptor: str
    eq_constraints: tuple[Callable[[np.ndarray], np.ndarray], ...] = field(default=())
    scorer: Score | None = None
    goals: tuple[Callable[[np.ndarray], np.ndarray], np.ndarray] | None = None
    rows: tuple[Callable[[np.ndarray, np.ndarray], tuple], int] | None = None

    def score(self, x):
        if self.scorer is not None:
            return self.scorer(x)
        return self.objective(x), tuple(c(x) for c in self.eq_constraints)


def _program(model: FittedModel, fn, n_eq: int, region: Region | None,
             descriptor: str, read=None, goals=None) -> ScalarProgram:
    """A built-in program over the unit cube unless ``region`` is given:
    ``fn(m, q)`` gives the objective and ``n_eq`` residuals, and its (m, q)
    come from one ``moments`` call per batch unless ``read(x)`` is given.
    The objective and each constraint read the program's ``scorer``. A
    program that reads ``moments`` also scores grid rows, ``fn`` of one
    ``row_moments`` call per block of rows; one given ``read`` keeps only
    ``scorer``. Only goal programming passes ``goals``."""
    rows = None
    if read is None:
        read = lambda x: moments(model, x)
        read_rows = row_moments(model)
        rows = (lambda lead, t: fn(*read_rows(lead, t)), model.r)

    def score(x):
        return fn(*read(x))

    def constraint(k: int):
        return lambda x: score(x)[1][k]

    return ScalarProgram(
        objective=lambda x: score(x)[0],
        eq_constraints=tuple(constraint(k) for k in range(n_eq)),
        scorer=score,
        region=region if region is not None else Region.unit_cube(model.n),
        descriptor=descriptor,
        goals=goals,
        rows=rows,
    )


@dataclass(frozen=True)
class GoalDeviations:
    """Componentwise positive/negative parts of (kataoka term - tau)."""

    d_plus: np.ndarray
    d_minus: np.ndarray


def _require(model: FittedModel, cfg: MethodConfig, *names: str) -> None:
    """ValueError unless ``names`` are set, each set tau, w and epsilon has
    one entry per response, and a set primary is at most r."""
    for name in names:
        if getattr(cfg, name) is None:
            raise ValueError(f"method requires config field {name!r}")
    for name in ("tau", "w", "epsilon"):
        v = getattr(cfg, name)
        if v is not None and v.shape != (model.r,):
            raise ValueError(f"{name} must have one entry per response "
                             f"({model.r}), got {v.tolist()}")
    if cfg.primary is not None and cfg.primary > model.r:
        raise ValueError(f"primary must be a response number in "
                         f"1..{model.r}, got {cfg.primary}")


def v_model(model: FittedModel, cfg: MethodConfig | None = None,
            region: Region | None = None) -> ScalarProgram:
    """Minimum-variance program: every matrix criterion of q(x)*Sigma shares
    its argmin with q(x), so the objective is the scaled prediction variance
    N*q(x), N the model's observation count. It reads no config field."""

    def fn(m, q):
        return model.n_obs * q, ()

    return _program(model, fn, 0, region, "v-model")


def mean_weighting(model: FittedModel, cfg: MethodConfig,
                   region: Region | None = None) -> ScalarProgram:
    """Weighted sum of predicted means."""
    _require(model, cfg, "w")
    w = cfg.w

    def fn(m, q):
        return m @ w, ()

    return _program(model, fn, 0, region, "mean-weighting")


def modified_e_weighting(model: FittedModel, cfg: MethodConfig,
                         region: Region | None = None) -> ScalarProgram:
    """r1 * (weighted mean) + (1 - r1) * N*q, for r1 in [0, 1]."""
    _require(model, cfg, "w")
    w, r1, q_weight = cfg.w, cfg.r1, (1.0 - cfg.r1) * model.n_obs

    def fn(m, q):
        return r1 * (m @ w) + q_weight * q, ()

    return _program(model, fn, 0, region, "modified-e-weighting")


def modified_e_epsilon(model: FittedModel, cfg: MethodConfig,
                       region: Region | None = None) -> ScalarProgram:
    """Minimize N*q subject to every predicted mean hitting its target.

    The one program that does not read ``moments``: it takes m from
    ``predict`` and q from ``unit_variance``, two basis evaluations per
    batch, because the layered benchmark requires each of its basis calls
    to sit under one of those two spans. ROADMAP item 1 lifts that."""
    _require(model, cfg, "tau")
    tau = cfg.tau

    def fn(m, q):
        return model.n_obs * q, tuple(m[..., k] - tau[k] for k in range(model.r))

    def read(x):
        return predict(model, x), np.asarray(unit_variance(model, x))

    return _program(model, fn, model.r, region, "modified-e-epsilon", read=read)


def _std(var_diag: np.ndarray, q: np.ndarray) -> np.ndarray:
    """s_k = sqrt(q * sigma_kk), shape q.shape + (r,). For a 2-D batch it is
    laid out like m from ``moments``, the (k, r) transpose of a C-contiguous
    (r, k) array, so every (k, r) operation on m and s runs along k."""
    if q.ndim == 1:
        return np.sqrt(np.multiply.outer(var_diag, q)).T
    return np.sqrt(np.multiply.outer(q, var_diag))


def _p_model_fn(model: FittedModel, tau):
    """(m, q) -> (tau_k - m_k) / s_k, with diag Sigma taken once."""
    tau = np.asarray(tau, dtype=float)
    var_diag = np.diag(model.sigma_hat)

    def terms(m, q):
        s = _std(var_diag, q)
        if np.any(s <= 0):
            raise ValueError("zero prediction variance")
        return (tau - m) / s

    return terms


def p_model_terms(model: FittedModel, tau, x) -> np.ndarray:
    """Standardized shortfalls (tau_k - m_k(x)) / s_k(x); shape (..., r)."""
    return _p_model_fn(model, tau)(*moments(model, x))


def p_model_weighting(model: FittedModel, cfg: MethodConfig,
                      region: Region | None = None) -> ScalarProgram:
    _require(model, cfg, "tau", "w")
    terms, w = _p_model_fn(model, cfg.tau), cfg.w

    def fn(m, q):
        return terms(m, q) @ w, ()

    return _program(model, fn, 0, region, "p-model-weighting")


def _epsilon_fn(model: FittedModel, terms, targets: np.ndarray, primary: int):
    """(m, q) -> the primary term as the objective, and every other term
    minus its target as an equality residual."""
    k_star = primary - 1
    others = [k for k in range(model.r) if k != k_star]

    def fn(m, q):
        t = terms(m, q)
        return t[..., k_star], tuple(t[..., k] - targets[k] for k in others)

    return fn


def p_model_epsilon(model: FittedModel, cfg: MethodConfig,
                    region: Region | None = None) -> ScalarProgram:
    """Keep one standardized term as objective; pin the others to epsilon."""
    _require(model, cfg, "tau", "primary", "epsilon")
    fn = _epsilon_fn(model, _p_model_fn(model, cfg.tau), cfg.epsilon, cfg.primary)
    return _program(model, fn, model.r - 1, region, "p-model-epsilon")


def _kataoka_fn(model: FittedModel, cfg: MethodConfig):
    """(m, q) -> m_k + quantile * s_k, with the quantile and diag Sigma
    taken once."""
    quant = normal_quantile(cfg.confidence)
    var_diag = np.diag(model.sigma_hat)

    def terms(m, q):
        return m + quant * _std(var_diag, q)

    return terms


def kataoka_terms(model: FittedModel, cfg: MethodConfig, x) -> np.ndarray:
    """m_k(x) + quantile(confidence) * s_k(x); shape (..., r)."""
    return _kataoka_fn(model, cfg)(*moments(model, x))


def kataoka_weighting(model: FittedModel, cfg: MethodConfig,
                      region: Region | None = None) -> ScalarProgram:
    _require(model, cfg, "w")
    terms, w = _kataoka_fn(model, cfg), cfg.w

    def fn(m, q):
        return terms(m, q) @ w, ()

    return _program(model, fn, 0, region, "kataoka-weighting")


def kataoka_epsilon(model: FittedModel, cfg: MethodConfig,
                    region: Region | None = None) -> ScalarProgram:
    """Minimize the primary Kataoka term; pin the others to their targets."""
    _require(model, cfg, "tau", "primary")
    fn = _epsilon_fn(model, _kataoka_fn(model, cfg), cfg.tau, cfg.primary)
    return _program(model, fn, model.r - 1, region, "kataoka-epsilon")


def goal_deviations(model: FittedModel, cfg: MethodConfig, x) -> GoalDeviations:
    """Positive and negative parts of (kataoka term - tau), componentwise."""
    _require(model, cfg, "tau")
    diff = kataoka_terms(model, cfg, x) - cfg.tau
    return GoalDeviations(
        d_plus=np.maximum(diff, 0.0),
        d_minus=np.maximum(-diff, 0.0),
    )


def goal_programming(model: FittedModel, cfg: MethodConfig,
                     region: Region | None = None) -> ScalarProgram:
    """Sum of weighted deviations; identical to sum w_k |term_k - tau_k|.

    The |.| has a kink where a term meets its target, so the program's
    ``goals`` carry the differentiable gap term_k - tau_k and the weights,
    which the local solver uses in the deviation-variable form (Charnes &
    Cooper 1961)."""
    _require(model, cfg, "tau", "w")
    terms, tau, w = _kataoka_fn(model, cfg), cfg.tau, cfg.w

    def fn(m, q):
        return np.abs(terms(m, q) - tau) @ w, ()

    def gap(x):
        return terms(*moments(model, x)) - tau

    return _program(model, fn, 0, region, "goal-programming", goals=(gap, w))


# Each method's constructor and the config fields it reads, by method name.
METHODS = {
    "v-model": (v_model, ()),
    "mean-weighting": (mean_weighting, ("w",)),
    "modified-e-weighting": (modified_e_weighting, ("w", "r1")),
    "modified-e-epsilon": (modified_e_epsilon, ("tau",)),
    "p-model-weighting": (p_model_weighting, ("tau", "w")),
    "p-model-epsilon": (p_model_epsilon, ("tau", "primary", "epsilon")),
    "kataoka-weighting": (kataoka_weighting, ("w", "confidence")),
    "kataoka-epsilon": (kataoka_epsilon, ("tau", "primary", "confidence")),
    "goal-programming": (goal_programming, ("tau", "w", "confidence")),
}


def normal_quantile(prob: float) -> float:
    """Inverse standard normal CDF on (0, 1)."""
    prob = float(prob)
    if not 0.0 < prob < 1.0:
        raise ValueError("probability must lie strictly inside (0, 1)")
    from statistics import NormalDist  # imported on first use: `import rsmopt` skips it
    return NormalDist().inv_cdf(prob)


def joint_probability_mc(model: FittedModel, x, tau, n_samples: int,
                         seed: int) -> tuple[float, float]:
    """Monte-Carlo estimate of P(all predicted responses <= tau) at x.

    Draws from Normal(m(x), q(x)*Sigma) through the symmetric matrix
    square root; returns (estimate, binomial standard error). ``x`` must
    hold one finite coordinate per factor, ``tau`` one finite target per
    response, ``n_samples`` be an integer >= 1000 and ``seed`` one >= 0.
    """
    n_samples, seed = as_integer(n_samples, "n_samples", 1000), as_integer(seed, "seed", 0)
    x = as_numbers(x, "x", (model.n,))
    tau = as_numbers(tau, "tau", (model.r,))
    mean, q = moments(model, x)
    root = matrix_sqrt(q * model.sigma_hat)
    draws = np.random.default_rng(seed).standard_normal((n_samples, model.r)) @ root
    draws += mean
    hits = draws[:, 0] <= tau[0]
    for k in range(1, model.r):
        hits &= draws[:, k] <= tau[k]
    p_hat = float(np.count_nonzero(hits) / n_samples)
    std_err = float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
    return p_hat, std_err
