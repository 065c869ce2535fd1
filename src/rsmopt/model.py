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
    "ExperimentData",
    "evaluate_basis",
    "build_design_matrix",
]


def as_numbers(value, key: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
    """``value`` as a float array of ``shape`` if given, or a ValueError
    naming ``key``. The one rule for a number given as input: an int or a
    float, numpy scalars included, and finite; a bool, a string or None is
    not one. Callers keep their domain checks (a positive radius, say)."""
    entries = np.asarray(value, dtype=object)  # a ragged list gives list entries
    for e in entries.flat:
        if isinstance(e, bool) or not isinstance(e, (int, float, np.integer, np.floating)):
            noun = "be a number" if entries.ndim == 0 else "hold numbers"
            raise ValueError(f"{key} must {noun}, got {e!r}")
    arr = entries.astype(float)
    if shape is not None and arr.shape != shape:
        raise ValueError(f"{key} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{key} must be finite")
    return arr


def as_integer(value, key: str, least: int) -> int:
    """``value`` if it is an integer >= ``least``; a bool or a float such as
    3.0 is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")
    return int(value)


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
    them; an open box would have no attained minimum there. The bounds and
    the radius must be finite numbers (``as_numbers``) and ``dim`` an
    integer >= 1, so a bool or a string is a ValueError naming its key. A
    region given a key of the other kind is a ValueError too.
    """

    kind: str
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    radius: float | None = None
    dim: int | None = None

    def __post_init__(self) -> None:
        keys = {"hypercube": ("lower", "upper"), "hypersphere": ("radius", "dim")}
        if self.kind not in keys:
            raise ValueError(f"unknown region kind {self.kind!r}")
        extra = [key for key in ("lower", "upper", "radius", "dim")
                 if key not in keys[self.kind] and getattr(self, key) is not None]
        if extra:
            raise ValueError(f"a {self.kind} takes no {' or '.join(extra)}")
        if self.kind == "hypercube":
            lo = as_numbers(self.lower, "lower")
            hi = as_numbers(self.upper, "upper", lo.shape)
            if lo.ndim != 1:
                raise ValueError("lower/upper must be 1-d")
            if not np.all(lo < hi):
                raise ValueError("require lower < upper componentwise")
            object.__setattr__(self, "lower", lo)
            object.__setattr__(self, "upper", hi)
        else:
            radius = float(as_numbers(self.radius, "radius", ()))
            if radius <= 0:
                raise ValueError("radius must be positive")
            object.__setattr__(self, "radius", radius)
            object.__setattr__(self, "dim", as_integer(self.dim, "dim", 1))

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
        return bool(_squared_norm(x) <= self.radius**2 + atol)

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project a point, or each row of a batch, into the region (used by
        local searches). On a ball a row outside is scaled by radius/||x||,
        the factor stepped down an ulp while rounding leaves the row outside,
        so every row returned passes ``contains``; a row inside is kept."""
        x = np.asarray(x, dtype=float)
        if self.kind == "hypercube":
            return np.clip(x, self.lower, self.upper)
        r2, sq = self.radius**2, _squared_norm(x)[..., None]
        scale = np.where(sq > r2, self.radius / np.sqrt(np.maximum(sq, r2)), 1.0)
        while (out := _squared_norm(x * scale)[..., None] > r2).any():
            scale = np.where(out, np.nextafter(scale, 0.0), scale)
        return x * scale


def _squared_norm(x: np.ndarray) -> np.ndarray:
    """||x||^2 of a point or of each row, the test of ``contains`` and ``clip``."""
    return (x[..., None, :] @ x[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class ExperimentData:
    """One row per observation, in run-id order and then replicate order:
    ``run_ids`` (N,), coded factor settings ``x`` (N, n) and responses ``y``
    (N, r). A run's replicates are rows that share its id and settings, so
    replicate counts may differ between runs. ``response_names`` defaults
    to Y1..Yr."""

    run_ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    response_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        run_ids = np.asarray(self.run_ids)
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if run_ids.ndim != 1 or x.ndim != 2 or y.ndim != 2:
            raise ValueError("run_ids must be 1-d, x and y 2-d")
        if not len(run_ids):
            raise ValueError("no observations")
        if not len(run_ids) == len(x) == len(y):
            raise ValueError(f"run_ids, x and y must have as many rows, "
                             f"got {len(run_ids)}, {len(x)} and {len(y)}")
        finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
        if not finite.all():
            raise ValueError(f"run {run_ids[~finite][0]}: non-finite values")
        names = self.response_names or tuple(f"Y{k + 1}" for k in range(y.shape[1]))
        if len(names) != y.shape[1]:
            raise ValueError(f"{len(names)} response names for {y.shape[1]} responses")
        object.__setattr__(self, "run_ids", run_ids)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "response_names", tuple(names))


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
    """X (N, p) with row i = z(data.x[i]), and Y = data.y (N, r)."""
    if terms.n != data.x.shape[1]:
        raise ValueError("term spec and data disagree on factor count")
    # C order: the fit's last bits depend on X's layout, and evaluate_basis gives F order
    return np.ascontiguousarray(evaluate_basis(data.x, terms)), data.y
