"""Designed experiments, polynomial term sets and feasible regions.

Everything here is immutable after construction and all functions are
pure, so concurrent use needs no locking.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TermSpec",
    "Region",
    "Run",
    "ExperimentData",
    "evaluate_basis",
    "build_design_matrix",
]


# one factor of a monomial name: x<i>, optionally to the power 1 or 2
_FACTOR = re.compile(r"x([0-9]+)(?:\^([12]))?")


def _parse_monomial(name: str, n: int) -> tuple[int, ...]:
    """Parse a monomial name like ``1``, ``x2``, ``x1*x3`` or ``x2^2``.

    Each factor is ``x<i>`` with 1 <= i <= n, optionally raised to the
    power 1 or 2, and the degree is at most 2; anything else is a
    ValueError that names the term.
    """
    if not isinstance(name, str):
        raise ValueError(f"bad term {name!r}: not a string")
    name = name.replace(" ", "")
    if name in ("1", ""):
        return ()
    factors: list[int] = []
    for part in name.split("*"):
        match = _FACTOR.fullmatch(part)
        if match is None or not 1 <= int(match[1]) <= n:
            raise ValueError(f"bad term {name!r}: factors must be x1..x{n}, "
                             f"each to the power 1 or 2")
        factors.extend([int(match[1]) - 1] * int(match[2] or 1))
    if len(factors) > 2:
        raise ValueError(f"bad term {name!r}: degree is more than 2")
    return tuple(sorted(factors))


@dataclass(frozen=True)
class TermSpec:
    """Ordered list of monomials defining the basis vector z(x).

    Each term is a sorted tuple of factor indices; the empty tuple is the
    intercept. Total degree of every term is at most 2 and the intercept
    comes first, matching the coefficient ordering used downstream.

    Every term is also stored as an index pair (a, b) into the augmented
    point [x, 1], so that term j is [x, 1][a_j] * [x, 1][b_j]: the
    intercept is (n, n), a linear term (i, n), a square or cross term (i, j).
    """

    n: int
    terms: tuple[tuple[int, ...], ...]
    pair_a: np.ndarray = field(init=False, repr=False, compare=False)
    pair_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one factor")
        terms = tuple(tuple(sorted(t)) for t in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms or terms[0] != ():
            raise ValueError("first term must be the intercept")
        for j, t in enumerate(terms):
            if t in terms[:j]:
                raise ValueError(f"duplicate monomial {_term_name(t)!r}")
            if len(t) > 2:
                raise ValueError(f"monomial degree > 2: {t}")
            if any(i < 0 or i >= self.n for i in t):
                raise ValueError(f"factor index out of range: {t}")
        pairs = np.array([t + (self.n,) * (2 - len(t)) for t in terms], dtype=np.intp)
        object.__setattr__(self, "pair_a", pairs[:, 0])
        object.__setattr__(self, "pair_b", pairs[:, 1])

    @property
    def p(self) -> int:
        return len(self.terms)

    @classmethod
    def full_second_order(cls, n: int) -> "TermSpec":
        """Intercept, linears, squares, then i<j cross terms: p = 1 + n + n(n+1)/2."""
        terms: list[tuple[int, ...]] = [()]
        terms += [(i,) for i in range(n)]
        terms += [(i, i) for i in range(n)]
        terms += [(i, j) for i in range(n) for j in range(i + 1, n)]
        return cls(n=n, terms=tuple(terms))

    @classmethod
    def from_names(cls, names: list[str], n: int) -> "TermSpec":
        if not isinstance(names, list):
            raise ValueError(f"terms must be a list of term names, got {names!r}")
        return cls(n=n, terms=tuple(_parse_monomial(s, n) for s in names))

    def term_names(self) -> list[str]:
        return [_term_name(t) for t in self.terms]


def _term_name(t: tuple[int, ...]) -> str:
    """The canonical name of a monomial: ``1``, ``x2``, ``x1^2`` or ``x1*x3``."""
    if not t:
        return "1"
    if len(t) == 2 and t[0] == t[1]:
        return f"x{t[0] + 1}^2"
    return "*".join(f"x{i + 1}" for i in t)


@dataclass(frozen=True)
class Region:
    """Feasible region: a closed hypercube or a hypersphere ||x|| <= radius
    in ``dim`` factors.

    The factor bounds are closed even though optima may sit exactly on
    them; an open box would have no attained minimum there.
    """

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    radius: float | None = None
    dim: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "hypercube":
            lo = np.asarray(self.lower, dtype=float)
            hi = np.asarray(self.upper, dtype=float)
            if lo.shape != hi.shape or lo.ndim != 1:
                raise ValueError("lower/upper must be 1-d and congruent")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ValueError("bounds must be finite")
            if not np.all(lo < hi):
                raise ValueError("require lower < upper componentwise")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        elif self.kind == "hypersphere":
            if self.radius is None or not 0 < self.radius < np.inf:
                raise ValueError("radius must be positive and finite")
            if (isinstance(self.dim, bool)
                    or not isinstance(self.dim, (int, np.integer)) or self.dim < 1):
                raise ValueError(f"hypersphere dim must be a positive integer, "
                                 f"got {self.dim!r}")
        else:
            raise ValueError(f"unknown region kind {self.kind!r}")

    @classmethod
    def hypercube(cls, lower, upper) -> "Region":
        return cls(kind="hypercube", lower=lower, upper=upper)

    @classmethod
    def hypersphere(cls, radius: float, dim: int) -> "Region":
        return cls(kind="hypersphere", radius=radius, dim=dim)

    @classmethod
    def unit_cube(cls, n: int) -> "Region":
        return cls.hypercube(-np.ones(n), np.ones(n))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "hypercube":
            return self.lower.copy(), self.upper.copy()
        c = float(self.radius)
        return -c * np.ones(self.dim), c * np.ones(self.dim)

    def contains(self, x, atol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float)
        if x.shape != self.bounding_box()[0].shape:
            raise ValueError("dimension mismatch")
        if self.kind == "hypercube":
            return bool(np.all(x >= self.lower - atol) and np.all(x <= self.upper + atol))
        return bool(x @ x <= self.radius**2 + atol)

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project a point, or each row of a batch, into the region (used by
        local searches)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "hypercube":
            return np.clip(x, self.lower, self.upper)
        # one dot product per row: rounds as np.linalg.norm of that row does
        nrm = np.sqrt(x[..., None, :] @ x[..., :, None])[..., 0]
        outside = nrm > self.radius
        return np.where(outside, x * (self.radius / np.where(outside, nrm, 1.0)), x)


@dataclass(frozen=True)
class Run:
    """One design point: coded factor settings and replicated observations.

    ``y`` has one row per replicate and one column per response, so
    replicate counts may differ between runs.
    """

    run_id: int
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_2d(np.asarray(self.y, dtype=float))
        if y.shape[0] < 1:
            raise ValueError(f"run {self.run_id}: needs at least one replicate")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class ExperimentData:
    runs: tuple[Run, ...]
    response_names: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.runs:
            raise ValueError("no runs")
        n = self.runs[0].x.size
        r = self.runs[0].y.shape[1]
        for run in self.runs:
            if run.x.size != n:
                raise ValueError(f"run {run.run_id}: inconsistent factor count")
            if run.y.shape[1] != r:
                raise ValueError(f"run {run.run_id}: inconsistent response count")
            if not np.all(np.isfinite(run.y)) or not np.all(np.isfinite(run.x)):
                raise ValueError(f"run {run.run_id}: non-finite values")
        if not self.response_names:
            object.__setattr__(
                self, "response_names", tuple(f"Y{k + 1}" for k in range(r))
            )
        if len(self.response_names) != r:
            raise ValueError("response_names length mismatch")

    @property
    def n_factors(self) -> int:
        return self.runs[0].x.size

    @property
    def n_responses(self) -> int:
        return self.runs[0].y.shape[1]

    @property
    def n_observations(self) -> int:
        """Total replicate count = row count of the expanded design matrix."""
        return sum(run.y.shape[0] for run in self.runs)


def evaluate_basis(x, terms: TermSpec) -> np.ndarray:
    """Evaluate z(x) for a single point (n,) or a batch (..., n).

    Component j is the product of the factors named by monomial j; the
    intercept evaluates to 1. Ordering follows ``terms`` exactly. This is
    the only place z(x) is built.

    The products are formed feature-major: the augmented point [x, 1] is
    laid out as (n+1, ...batch reversed), so each ``take`` along axis 0
    copies whole contiguous rows instead of gathering a few elements from
    every point. The result is the transpose of that (p, ...) array, a
    (..., p) view whose transpose is C-contiguous; the values are the same
    products as a point-major gather.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != terms.n:
        raise ValueError(f"expected {terms.n} factors, got {x.shape[-1]}")
    x1 = np.empty((terms.n + 1,) + x.shape[-2::-1])
    x1[:-1] = x.T
    x1[-1] = 1.0
    return (x1.take(terms.pair_a, axis=0) * x1.take(terms.pair_b, axis=0)).T


def build_design_matrix(
    data: ExperimentData, terms: TermSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Expand replicates into rows of X and stack Y in the same order.

    Returns (X, Y) with shapes (N, p) and (N, r); replicate rows of the
    same run share the same basis row.
    """
    if terms.n != data.n_factors:
        raise ValueError("term spec and data disagree on factor count")
    reps = [run.y.shape[0] for run in data.runs]
    X = np.repeat(evaluate_basis(np.stack([run.x for run in data.runs]), terms),
                  reps, axis=0)
    Y = np.concatenate([run.y for run in data.runs], axis=0)
    if terms.p > X.shape[0]:
        raise ValueError(
            f"underdetermined design: p={terms.p} exceeds N={X.shape[0]}"
        )
    return X, Y
