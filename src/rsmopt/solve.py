"""Minimizers for scalar programs over box or ball regions.

The exhaustive grid search is the independent oracle used by the test
suite; the production path is a coarse grid followed by a local polish,
with a quadratic penalty schedule for equality constraints and a
deterministic quasi-random multistart on top.

The polish, on its own and in every penalty stage, is L-BFGS-B for a
smooth program on a box: each iteration evaluates the objective once, on
a batch of n+1 points that gives the value and a forward-difference
gradient. Goal programming (its |.| terms are not differentiable), a
program built by hand (``smooth`` defaults to False) and any program on a
ball keep bound-clipped Nelder-Mead; see ``_polish`` for why a ball does.
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
    "lbfgsb",
    "penalty_solve",
    "multistart",
    "pareto_front",
    "DEFAULT_PENALTY_SCHEDULE",
]

MAX_GRID_NODES = int(2e8)
# Grid nodes scored per batch. Each batch makes several (chunk, p) float64
# temporaries (the basis z, z'A and their product). glibc serves a block
# above its mmap threshold (128 KiB by default) with a fresh mapping and
# unmaps it on free, so every batch faults those pages in again; at 2,048
# nodes a (chunk, 7) block is 112 KiB and comes from the heap, reused by
# the next batch. At 65,536 nodes, eight 0.02 grids over the example took
# about 293,000 minor faults per pass; at 2,048 they take a few dozen, and
# the pass takes a third of the time (chunk sweep in CHANGES.md).
GRID_CHUNK = 2_048
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


def _residuals_at(program: ScalarProgram, x: np.ndarray) -> np.ndarray:
    if not program.eq_constraints:
        return np.zeros(0)
    return np.array([abs(float(c(x))) for c in program.eq_constraints])


def _penalized(program: ScalarProgram, mu: float):
    """x -> objective + mu * sum(residual^2), from one ``program.score`` call."""
    def fn(x):
        f, residuals = program.score(x)
        val = np.asarray(f, dtype=float)
        for g in residuals:
            val = val + mu * np.asarray(g, dtype=float) ** 2
        return val

    return fn


def grid_search(program: ScalarProgram, resolution: float,
                penalty_weight: float = GRID_PENALTY_WEIGHT) -> SolveResult:
    """Exhaustive evaluation on an axis-aligned grid over the region.

    Constrained programs are scored as objective + mu * sum(residual^2);
    raw residuals are reported at the winner. Ties break to the lowest
    score, then the lexicographically smallest point.
    """
    score_fn = _penalized(program, penalty_weight)
    best_score = np.inf
    best_x: np.ndarray | None = None
    evaluations = 0

    for pts in _region_grid(program.region, resolution):
        scores = np.asarray(score_fn(pts), dtype=float)
        evaluations += pts.shape[0]
        nan = np.isnan(scores)
        if nan.any():
            raise ValueError(f"{program.descriptor}: objective is NaN at grid node "
                             f"{pts[int(np.argmax(nan))].tolist()}")
        idx = int(np.argmin(scores))
        s = float(scores[idx])
        if best_x is None or s < best_score - 1e-15:
            best_score, best_x = s, pts[idx].copy()
        elif abs(s - best_score) <= 1e-15:
            # tie: keep the lexicographically smaller point
            cand = pts[idx]
            if tuple(cand) < tuple(best_x):
                best_x = cand.copy()
        # exact ties within a chunk: argmin returns the first, and chunks
        # are generated in lexicographic order, so the rule holds.
    residuals = _residuals_at(program, best_x)
    return SolveResult(
        x_star=best_x,
        f_star=best_score,
        constraint_residuals=residuals,
        evaluations=evaluations,
        converged=True,
    )


def _region_grid(region: Region, resolution: float):
    """Yield the grid nodes inside the region in lexicographic order, in
    chunks of at most GRID_CHUNK rows; the grid spans the bounding box."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    lo, hi = region.bounding_box()
    axes = [np.linspace(a, b, int(round((b - a) / resolution)) + 1)
            for a, b in zip(lo, hi)]
    if int(np.prod([a.size for a in axes])) > MAX_GRID_NODES:
        raise ValueError("grid too large")
    found = False
    for pts in _grid_chunks(axes, GRID_CHUNK):
        if region.kind == "hypersphere":
            # einsum's row sums round differently on a column-major block
            # when n >= 3; test the norm on a row-major copy
            pts = np.ascontiguousarray(pts)
            pts = pts[np.einsum("ij,ij->i", pts, pts) <= region.radius**2]
            if pts.shape[0] == 0:
                continue
        found = True
        yield pts
    if not found:
        raise ValueError(f"no grid node at resolution {resolution:g} "
                         f"lies inside the region")


def _grid_chunks(axes: list[np.ndarray], chunk: int):
    """Yield grid points in lexicographic order, in blocks of at most
    ``chunk`` rows.

    Each block decodes a range of flat indices with one ``divmod`` per axis
    and fills the coordinates feature-major, one contiguous row per axis;
    it is yielded as the (rows, n) transpose of that array, which is what
    ``evaluate_basis`` reads fastest. The built-in programs give the same
    bits for any layout; a hand-built objective that reduces along the
    factor axis (an einsum, say) may round its last bit differently than
    on a row-major block.
    """
    n = len(axes)
    sizes = [a.size for a in axes]
    total = int(np.prod(sizes))
    for start in range(0, total, chunk):
        rem = np.arange(start, min(start + chunk, total))
        coords = np.empty((n, rem.size))
        for i in range(n - 1, 0, -1):
            rem, idx = np.divmod(rem, sizes[i])
            axes[i].take(idx, out=coords[i])
        axes[0].take(rem, out=coords[0])
        yield coords.T


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


def lbfgsb(program: ScalarProgram, x0, tol: float = 1e-10,
           objective=None) -> SolveResult:
    """Bounded quasi-Newton polish on a box; never returns a point worse
    than x0.

    Each iteration takes its value and gradient from one call of the
    vectorized objective on n+1 points (see ``_value_and_gradient``), so one
    basis evaluation serves them all, and every point evaluated lies in the
    box.
    """
    from scipy.optimize import minimize  # imported on first use: scipy loads slowly

    region = program.region
    if region.kind != "hypercube":
        raise ValueError("lbfgsb needs a hypercube region")
    lo, hi = region.bounding_box()
    x0 = region.clip(np.asarray(x0, dtype=float))
    fn = objective if objective is not None else program.objective
    evaluations = 0
    best = None  # (f, x) of the lowest base point evaluated; x0 comes first

    def value_and_gradient(x):
        nonlocal evaluations, best
        x = np.clip(x, lo, hi)
        f, grad = _value_and_gradient(fn, x, hi)
        evaluations += x.size + 1
        if best is None or f < best[0]:
            best = (f, x)
        return f, grad

    minimize(value_and_gradient, x0, jac=True, method="L-BFGS-B",
             bounds=list(zip(lo, hi)), options={"ftol": tol, "gtol": tol})
    f_best, x_best = best
    return SolveResult(
        x_star=x_best,
        f_star=f_best,
        constraint_residuals=_residuals_at(program, x_best),
        evaluations=evaluations,
        converged=True,
    )


def _value_and_gradient(fn, x: np.ndarray, upper: np.ndarray):
    """f(x) and its forward-difference gradient from one call of fn on an
    (n+1, n) batch: x, then x plus a step of sqrt(eps) * max(1, |x_i|) along
    each axis, taken backward where the forward step would pass ``upper``."""
    step = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
    step = np.where(x + step > upper, -step, step)
    pts = np.vstack([x, x + np.diag(step)])
    vals = np.asarray(fn(pts), dtype=float)
    # divide by the step actually taken, which rounding may have changed
    return float(vals[0]), (vals[1:] - vals[0]) / (pts[1:].diagonal() - x)


def _polish(program: ScalarProgram, x0, tol: float,
            objective=None) -> SolveResult:
    """Local polish from x0: L-BFGS-B for a smooth program on a box,
    Nelder-Mead for everything else.

    A ball keeps Nelder-Mead: projecting each point onto the ball makes the
    objective flat outside it, so a gradient method stalls there (on
    p-model-epsilon over a radius-1.2 ball it ended with residual 8e-2),
    while SLSQP with the ball as an inequality was slower than the simplex
    on the ill-conditioned penalized objective.
    """
    if program.smooth and program.region.kind == "hypercube":
        return lbfgsb(program, x0, tol=tol, objective=objective)
    return nelder_mead(program, x0, tol=tol, objective=objective)


def penalty_solve(program: ScalarProgram, x0=None,
                  tol: float = 1e-12) -> SolveResult:
    """Quadratic-penalty sequence with warm starts for equality constraints;
    each stage polishes the penalized objective with ``_polish``."""
    if not program.eq_constraints:
        raise ValueError("penalty_solve requires equality constraints")
    if x0 is None:
        coarse = grid_search(program, resolution=0.1,
                             penalty_weight=DEFAULT_PENALTY_SCHEDULE[0])
        x0 = coarse.x_star
        evaluations = coarse.evaluations
    else:
        x0 = np.asarray(x0, dtype=float)
        evaluations = 0
    x = x0
    residual_history: list[float] = []
    trace: list[tuple[int, float]] = []
    for i, mu in enumerate(DEFAULT_PENALTY_SCHEDULE):
        step = _polish(program, x, tol, objective=_penalized(program, mu))
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
    lo, hi = region.bounding_box()
    sampler = qmc.Halton(d=lo.size, seed=seed)
    pts = qmc.scale(sampler.random(k), lo, hi)
    return region.clip(pts)


def multistart(program: ScalarProgram, k: int = 16, seed: int = 0) -> SolveResult:
    """Best of local searches from k quasi-random starts plus the coarse-grid
    incumbent; deterministic given the seed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    coarse = grid_search(program, resolution=0.1,
                         penalty_weight=GRID_PENALTY_WEIGHT)

    def local(x0) -> SolveResult:
        if program.eq_constraints:
            return penalty_solve(program, x0=x0)
        return _polish(program, x0, tol=1e-10)

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
    """Nondominated subset of the objectives' values on the region grid
    that grid_search scores."""
    if len(objectives) < 2:
        raise ValueError("need at least two objectives")
    chunks = list(_region_grid(region, resolution))
    pts = np.concatenate(chunks)
    vals = np.concatenate([
        np.stack([np.asarray(f(c), dtype=float) for f in objectives], axis=-1)
        for c in chunks
    ])
    keep = _nondominated_mask(vals)
    points = tuple(
        (pts[i].copy(), vals[i].copy()) for i in np.flatnonzero(keep)
    )
    return ParetoSet(points=points)


def _nondominated_mask(vals: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not weakly dominated by a different row.

    Rows are visited in lexicographic order, where every dominator of a row
    comes before it. Each row not yet marked marks, in one comparison, all
    rows it dominates; a row dominated only by marked rows is also dominated
    by whatever marked them, so the mask is exact. Duplicates of a front
    vector dominate none of each other and are all kept.
    """
    order = np.lexsort(vals.T[::-1])
    vals_sorted = vals[order]
    dominated = np.zeros(len(vals_sorted), dtype=bool)
    for i, v in enumerate(vals_sorted):
        if dominated[i]:
            continue
        rest = vals_sorted[i + 1:]
        dominated[i + 1:] |= np.all(v <= rest, axis=1) & np.any(v < rest, axis=1)
    keep = np.zeros(len(vals), dtype=bool)
    keep[order] = ~dominated
    return keep
