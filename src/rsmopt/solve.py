"""Minimizers for scalar programs over box or ball regions.

The exhaustive grid search is the independent oracle used by the test
suite; the production path is a coarse grid followed by Nelder-Mead
polish, with a quadratic penalty schedule for equality constraints and a
deterministic quasi-random multistart on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Region
from .programs import ScalarProgram

__all__ = [
    "SolveResult",
    "ParetoSet",
    "grid_search",
    "nelder_mead",
    "penalty_solve",
    "multistart",
    "pareto_front",
    "DEFAULT_PENALTY_SCHEDULE",
]

MAX_GRID_NODES = int(2e8)
# Grid nodes scored per batch: large enough that per-batch overhead is
# small, small enough that the (chunk, p) basis temporaries stay a few MB.
GRID_CHUNK = 65_536
DEFAULT_PENALTY_SCHEDULE = (1e1, 1e2, 1e3, 1e4, 1e5)
# Penalty weight the grid oracle applies to squared residuals. Balances
# two opposing biases at the default 0.01 grid: too large and the
# half-step discretization residual swamps the objective; too small and
# the oracle undercuts the constrained minimum by trading violation for
# objective.
GRID_PENALTY_WEIGHT = 200.0
FEASIBILITY_TOL = 1e-3


@dataclass(frozen=True)
class SolveResult:
    x_star: np.ndarray
    f_star: float
    constraint_residuals: np.ndarray
    evaluations: int
    converged: bool
    trace: tuple[tuple[int, float], ...] | None = None
    residual_trace: tuple[float, ...] | None = None


@dataclass(frozen=True)
class ParetoSet:
    """Nondominated (x, objective-vector) pairs under componentwise <=."""

    points: tuple[tuple[np.ndarray, np.ndarray], ...] = field(default=())


def _region_dim(program: ScalarProgram) -> int:
    region = program.region
    if region.kind == "hypercube":
        return region.lower.size
    if region.dim is None:
        raise ValueError("hypersphere region needs an explicit dimension")
    return region.dim


def _axis_grid(lo: float, hi: float, resolution: float) -> np.ndarray:
    count = int(round((hi - lo) / resolution)) + 1
    return np.linspace(lo, hi, count)


def _residuals_at(program: ScalarProgram, x: np.ndarray) -> np.ndarray:
    if not program.eq_constraints:
        return np.zeros(0)
    return np.array([abs(float(c(x))) for c in program.eq_constraints])


def _penalized(program: ScalarProgram, mu: float):
    def fn(x):
        val = np.asarray(program.objective(x), dtype=float)
        for c in program.eq_constraints:
            val = val + mu * np.asarray(c(x), dtype=float) ** 2
        return val

    return fn


def grid_search(program: ScalarProgram, resolution: float,
                penalty_weight: float = GRID_PENALTY_WEIGHT) -> SolveResult:
    """Exhaustive evaluation on an axis-aligned grid over the region.

    Constrained programs are scored as objective + mu * sum(residual^2);
    raw residuals are reported at the winner. Ties break to the lowest
    score, then the lexicographically smallest point.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    region = program.region
    if region.kind == "hypercube":
        lo, hi = region.lower, region.upper
        in_region = None
    else:
        # hypersphere: grid over the bounding box, reject out-of-ball nodes
        n = _region_dim(program)
        lo, hi = region.bounding_box(n)
        in_region = lambda pts: np.einsum("ij,ij->i", pts, pts) <= region.radius**2
    axes = [_axis_grid(lo[i], hi[i], resolution) for i in range(lo.size)]
    total = int(np.prod([a.size for a in axes]))
    if total > MAX_GRID_NODES:
        raise ValueError("grid too large")

    score_fn = _penalized(program, penalty_weight)
    best_score = np.inf
    best_x: np.ndarray | None = None
    evaluations = 0

    for pts in _grid_chunks(axes, GRID_CHUNK):
        if in_region is not None:
            pts = pts[in_region(pts)]
            if pts.shape[0] == 0:
                continue
        scores = np.asarray(score_fn(pts), dtype=float)
        evaluations += pts.shape[0]
        nan = np.isnan(scores)
        if nan.any():
            raise ValueError(f"{program.descriptor}: objective is NaN at grid node "
                             f"{pts[int(np.argmax(nan))].tolist()}")
        idx = int(np.argmin(scores))
        s = float(scores[idx])
        if s < best_score - 1e-15:
            best_score, best_x = s, pts[idx].copy()
        elif best_x is not None and abs(s - best_score) <= 1e-15:
            # tie: keep the lexicographically smaller point
            cand = pts[idx]
            if tuple(cand) < tuple(best_x):
                best_x = cand.copy()
        # exact ties within a chunk: argmin returns the first, and chunks
        # are generated in lexicographic order, so the rule holds.
    if best_x is None:
        raise ValueError(f"{program.descriptor}: no grid node at resolution "
                         f"{resolution:g} lies inside the region")
    residuals = _residuals_at(program, best_x)
    return SolveResult(
        x_star=best_x,
        f_star=best_score,
        constraint_residuals=residuals,
        evaluations=evaluations,
        converged=True,
    )


def _grid_chunks(axes: list[np.ndarray], chunk: int):
    """Yield grid points in lexicographic order, chunked along axis 0 blocks."""
    n = len(axes)
    sizes = [a.size for a in axes]
    total = int(np.prod(sizes))
    # enumerate flat indices in blocks; decode to coordinates vectorized
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        flat = np.arange(start, stop)
        coords = np.empty((flat.size, n))
        rem = flat
        for i in range(n - 1, -1, -1):
            coords[:, i] = axes[i][rem % sizes[i]]
            rem = rem // sizes[i]
        yield coords


def nelder_mead(program: ScalarProgram, x0, tol: float = 1e-10,
                objective=None) -> SolveResult:
    """Bound-clipped simplex polish; never returns a point worse than x0."""
    from scipy.optimize import minimize  # imported on first use: scipy loads slowly

    region = program.region
    x0 = region.clip(np.asarray(x0, dtype=float))
    fn = objective if objective is not None else program.objective

    if region.kind == "hypercube":
        # scipy's bounded Nelder-Mead clips every point it evaluates to the box
        def scalar_fn(x):
            return float(fn(x))
    else:
        def scalar_fn(x):
            return float(fn(region.clip(x)))

    lo, hi = region.bounding_box(x0.size)
    res = minimize(
        scalar_fn,
        x0,
        method="Nelder-Mead",
        bounds=list(zip(lo, hi)),
        options={"fatol": tol, "xatol": 1e-10, "maxfev": 100_000},
    )
    x_best = region.clip(np.asarray(res.x, dtype=float))
    f_best = float(fn(x_best))
    f0 = float(fn(x0))
    if f0 < f_best:
        x_best, f_best = x0, f0
    return SolveResult(
        x_star=x_best,
        f_star=f_best,
        constraint_residuals=_residuals_at(program, x_best),
        evaluations=int(res.nfev) + 2,
        converged=bool(res.success) or f_best <= f0,
    )


def penalty_solve(program: ScalarProgram,
                  schedule=DEFAULT_PENALTY_SCHEDULE,
                  x0=None, tol: float = 1e-12) -> SolveResult:
    """Quadratic-penalty sequence with warm starts for equality constraints."""
    if not program.eq_constraints:
        raise ValueError("penalty_solve requires equality constraints")
    if x0 is None:
        coarse = grid_search(program, resolution=0.1,
                             penalty_weight=schedule[0])
        x0 = coarse.x_star
        evaluations = coarse.evaluations
    else:
        x0 = np.asarray(x0, dtype=float)
        evaluations = 0
    x = x0
    residual_history: list[float] = []
    trace: list[tuple[int, float]] = []
    for i, mu in enumerate(schedule):
        step = nelder_mead(program, x, tol=tol, objective=_penalized(program, mu))
        x = step.x_star
        evaluations += step.evaluations
        res_max = float(np.max(_residuals_at(program, x))) if program.eq_constraints else 0.0
        residual_history.append(res_max)
        trace.append((i, float(program.objective(x))))
        if len(residual_history) >= 2 and all(
            r > 1e-2 for r in residual_history[-2:]
        ) and abs(residual_history[-1] - residual_history[-2]) < 1e-4:
            break  # stagnating infeasible
    residuals = _residuals_at(program, x)
    converged = bool(np.max(residuals) < FEASIBILITY_TOL)
    return SolveResult(
        x_star=x,
        f_star=float(program.objective(x)),
        constraint_residuals=residuals,
        evaluations=evaluations,
        converged=converged,
        trace=tuple(trace),
        residual_trace=tuple(residual_history),
    )


def _start_points(program: ScalarProgram, k: int, seed: int) -> np.ndarray:
    from scipy.stats import qmc  # imported on first use: scipy loads slowly

    region = program.region
    n = _region_dim(program)
    lo, hi = region.bounding_box(n)
    sampler = qmc.Halton(d=n, seed=seed)
    pts = qmc.scale(sampler.random(k), lo, hi)
    if region.kind == "hypersphere":
        pts = np.array([region.clip(p) for p in pts])
    return pts


def multistart(program: ScalarProgram, k: int = 16, seed: int = 0,
               schedule=DEFAULT_PENALTY_SCHEDULE) -> SolveResult:
    """Best of local searches from k quasi-random starts plus the coarse-grid
    incumbent; deterministic given the seed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coarse = grid_search(program, resolution=0.1,
                         penalty_weight=GRID_PENALTY_WEIGHT)

    def local(x0) -> SolveResult:
        if program.eq_constraints:
            return penalty_solve(program, schedule=schedule, x0=x0)
        return nelder_mead(program, x0)

    best = local(coarse.x_star)
    evaluations = coarse.evaluations + best.evaluations
    for x0 in _start_points(program, k, seed):
        cand = local(x0)
        evaluations += cand.evaluations
        if _better(cand, best):
            best = cand
    return SolveResult(
        x_star=best.x_star,
        f_star=best.f_star,
        constraint_residuals=best.constraint_residuals,
        evaluations=evaluations,
        converged=best.converged,
        trace=best.trace,
        residual_trace=best.residual_trace,
    )


def _better(a: SolveResult, b: SolveResult) -> bool:
    """Feasible-and-lower-f wins; ties break lexicographically on x."""
    if a.converged != b.converged:
        return a.converged
    if abs(a.f_star - b.f_star) > 1e-12:
        return a.f_star < b.f_star
    return tuple(a.x_star) < tuple(b.x_star)


def pareto_front(objectives, region: Region, resolution: float) -> ParetoSet:
    """Nondominated subset of grid evaluations of several objectives."""
    if len(objectives) < 2:
        raise ValueError("need at least two objectives")
    if region.kind != "hypercube":
        raise ValueError("pareto_front needs a hypercube region")
    lo, hi = region.lower, region.upper
    axes = [_axis_grid(lo[i], hi[i], resolution) for i in range(lo.size)]
    total = int(np.prod([a.size for a in axes]))
    if total > MAX_GRID_NODES:
        raise ValueError("grid too large")
    pts = np.stack(
        [g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1
    )
    vals = np.stack([np.asarray(f(pts), dtype=float) for f in objectives], axis=-1)
    keep = _nondominated_mask(vals)
    points = tuple(
        (pts[i].copy(), vals[i].copy()) for i in np.flatnonzero(keep)
    )
    return ParetoSet(points=points)


def _nondominated_mask(vals: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not weakly dominated by a different row."""
    order = np.lexsort(vals.T[::-1])
    vals_sorted = vals[order]
    keep_sorted = np.ones(len(vals_sorted), dtype=bool)
    kept: list[np.ndarray] = []
    for i, v in enumerate(vals_sorted):
        dominated = any(
            np.all(u <= v) and np.any(u < v) for u in kept
        )
        if dominated:
            keep_sorted[i] = False
        else:
            kept.append(v)
    # duplicates of kept vectors are themselves nondominated; keep them
    keep = np.zeros(len(vals), dtype=bool)
    keep[order] = keep_sorted
    return keep
