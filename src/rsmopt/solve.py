"""Minimizers for scalar programs over box or ball regions.

``grid_search`` is the exhaustive oracle the tests check against, scored
through ``program.score`` one batch at a time. The production path is
``multistart``: a coarse-grid incumbent and deterministic quasi-random
starts, each followed by one local solve. For every built-in program that
is ``slsqp``: SLSQP with the box bounds, the equality constraints given
exactly, ||x||^2 <= radius^2 on a ball, and goal programming in its
deviation-variable form; one (n+1)-point batch per point gives every value
and forward-difference derivative. A constrained program reaches it through
``penalty_solve``, a name kept for the benchmark's tests. Nelder-Mead runs
only for a program built by hand with ``smooth=False`` and no constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .model import Region
from .programs import ScalarProgram

__all__ = [
    "SolveResult",
    "ParetoSet",
    "grid_search",
    "nelder_mead",
    "slsqp",
    "penalty_solve",
    "multistart",
    "pareto_front",
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
# Penalty weight the grid oracle applies to squared residuals. Balances
# two opposing biases at the default 0.01 grid: too large and the
# half-step discretization residual swamps the objective; too small and
# the oracle undercuts the constrained minimum by trading violation for
# objective.
GRID_PENALTY_WEIGHT = 200.0
FEASIBILITY_TOL = 1e-3
# Relative f gap within which ``multistart`` ranks starts by feasibility: a
# start stopped just off its constraints otherwise wins by what the violation
# buys (kataoka-epsilon, radius-1.2 ball: f 1.1e-8 lower at residual 1e-8).
F_TIE = 1e-8


@dataclass(frozen=True)
class SolveResult:
    x_star: np.ndarray
    f_star: float
    constraint_residuals: np.ndarray
    evaluations: int
    converged: bool


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


def grid_search(program: ScalarProgram, resolution: float) -> SolveResult:
    """Exhaustive evaluation on an axis-aligned grid over the region.

    Constrained programs are scored as objective + mu * sum(residual^2)
    with mu = GRID_PENALTY_WEIGHT; raw residuals are reported at the
    winner. Ties break to the lowest score, then the lexicographically
    smallest point.
    """
    score_fn = _penalized(program, GRID_PENALTY_WEIGHT)
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


def nelder_mead(program: ScalarProgram, x0, tol: float = 1e-10) -> SolveResult:
    """Bound-clipped simplex polish; never returns a point worse than x0."""
    from scipy.optimize import minimize  # imported on first use: scipy loads slowly

    region = program.region
    x0 = region.clip(np.asarray(x0, dtype=float))
    fn = program.objective

    def scalar_fn(x):
        # scipy's bounded Nelder-Mead clips every point it evaluates to the
        # box; a ball needs the radial clip as well
        return float(fn(x if region.kind == "hypercube" else region.clip(x)))

    lo, hi = region.bounding_box()
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
        converged=True,
    )


def _value_and_jacobian(fn, x: np.ndarray, upper: np.ndarray):
    """The k values of fn at x and their forward-difference (k, n) Jacobian,
    from one call of fn on an (n+1, n) batch: x, then x plus a step of
    sqrt(eps) * max(1, |x_i|) along each axis, taken backward where the
    forward step would pass ``upper``. fn maps a batch of points to one
    value per point, or to k values per point as a (batch, k) array."""
    step = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x))
    step = np.where(x + step > upper, -step, step)
    pts = np.vstack([x, x + np.diag(step)])
    vals = np.asarray(fn(pts), dtype=float).reshape(x.size + 1, -1)
    # divide by the step actually taken, which rounding may have changed
    return vals[0], ((vals[1:] - vals[0]) / (pts[1:].diagonal() - x)[:, None]).T


def slsqp(program: ScalarProgram, x0) -> SolveResult:
    """Local solve from x0 by SLSQP (Kraft 1988) with the constraints exact.

    The variables are x in the region's bounding box, the equality
    residuals of ``program.score`` are equality constraints, and a ball
    adds ||x||^2 <= radius^2. A program with ``goals`` (gap, w) is solved
    in deviation form: variables (x, d+, d-), objective w.(d+ + d-),
    constraints gap(x) = d+ - d- and d+, d- >= 0, with d+ and d- started at
    the parts of gap(x0). All values and derivatives at a point come from
    one (n+1)-point batch (``_value_and_jacobian``). Without equality
    constraints the result is never worse than the clipped start.
    """
    from scipy.optimize import minimize  # imported on first use: scipy loads slowly

    region = program.region
    lo, hi = region.bounding_box()
    x0 = region.clip(np.asarray(x0, dtype=float))
    n = x0.size
    if program.goals is None:
        def batch(pts):
            f, residuals = program.score(pts)
            return np.column_stack([f, *residuals])
    else:
        batch, w = program.goals
    evaluations, last = 0, [None, None]  # the last x evaluated, its values and Jacobian

    def at(v):
        nonlocal evaluations
        x = np.clip(v[:n], lo, hi)  # SLSQP may pass a bound by an ulp or two
        if last[0] is None or not np.array_equal(last[0], x):
            last[:] = x, _value_and_jacobian(batch, x, hi)
            evaluations += n + 1
        return last[1]

    def f_at(x):
        values = at(x)[0]
        return float(values[0] if program.goals is None else np.abs(values) @ w)

    f0, bounds = f_at(x0), list(zip(lo, hi))
    # each jac returns a fresh array: SLSQP writes into the gradient it is given
    if program.goals is None:
        v0, constraints = x0, []
        fun, jac = (lambda v: at(v)[0][0]), (lambda v: at(v)[1][0].copy())
        if program.eq_constraints:
            constraints.append({"type": "eq", "fun": lambda v: at(v)[0][1:],
                                "jac": lambda v: at(v)[1][1:]})
    else:
        r, gap0, eye = w.size, at(x0)[0], np.eye(w.size)
        v0 = np.concatenate([x0, np.maximum(gap0, 0.0), np.maximum(-gap0, 0.0)])
        bounds += [(0.0, None)] * (2 * r)
        fun = lambda v: w @ (v[n:n + r] + v[n + r:])
        jac = lambda v: np.concatenate([np.zeros(n), w, w])
        constraints = [{"type": "eq", "fun": lambda v: at(v)[0] - v[n:n + r] + v[n + r:],
                        "jac": lambda v: np.hstack([at(v)[1], -eye, eye])}]
    if region.kind == "hypersphere":
        constraints.append({"type": "ineq", "fun": lambda v: region.radius**2 - v[:n] @ v[:n],
                            "jac": lambda v: np.concatenate([-2.0 * v[:n], 0.0 * v[n:]])})
    res = minimize(fun, v0, jac=jac, method="SLSQP", bounds=bounds,
                   constraints=constraints, options={"ftol": 1e-10})
    x = region.clip(np.clip(res.x[:n], lo, hi))
    f = f_at(x)
    # the residuals are the rest of the row f_at just scored; a goal row is gaps
    residuals = np.abs(at(x)[0][1:]) if program.goals is None else np.zeros(0)
    if not program.eq_constraints and f0 < f:
        x, f = x0, f0
    converged = residuals.size == 0 or np.max(residuals) < FEASIBILITY_TOL
    return SolveResult(x_star=x, f_star=f, constraint_residuals=residuals,
                       evaluations=evaluations, converged=bool(converged))


def penalty_solve(program: ScalarProgram, x0) -> SolveResult:
    """``slsqp`` for a program with equality constraints; no penalty is left.

    ``multistart`` calls this binding because ``bench/test_bench.py::
    test_instrumented_records_layers_and_restores_bindings`` counts its
    ``solve.penalty_solve`` spans; the name is kept for that test until
    the benchmark change of ROADMAP item 1 renames it."""
    if not program.eq_constraints:
        raise ValueError("penalty_solve requires equality constraints")
    return slsqp(program, x0)


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
    coarse = grid_search(program, resolution=0.1)

    def local(x0) -> SolveResult:
        if program.eq_constraints:
            return penalty_solve(program, x0)
        if program.smooth or program.goals is not None:
            return slsqp(program, x0)
        return nelder_mead(program, x0)

    best = local(coarse.x_star)
    evaluations = coarse.evaluations + best.evaluations
    for x0 in _start_points(program, k, seed):
        cand = local(x0)
        evaluations += cand.evaluations
        if _better(cand, best):
            best = cand
    return replace(best, evaluations=evaluations)


def _better(a: SolveResult, b: SolveResult) -> bool:
    """Feasible wins, then lower f. f values within F_TIE of each other
    tie, and a tie goes to the smaller largest residual, then the lower f,
    then the lexicographically smaller x."""
    if a.converged != b.converged:
        return a.converged
    if abs(a.f_star - b.f_star) > F_TIE * max(1.0, abs(b.f_star)):
        return a.f_star < b.f_star
    ra, rb = (float(np.max(r.constraint_residuals, initial=0.0)) for r in (a, b))
    return (ra, a.f_star, tuple(a.x_star)) < (rb, b.f_star, tuple(b.x_star))


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
