"""Minimizers for scalar programs over box or ball regions.

``grid_search`` is the exhaustive oracle the tests check against. One loop
walks the grid in blocks of whole rows of the last axis (``_region_rows``):
a program that reads ``moments`` scores a block through its row scorer
(``fit.row_moments``), and any other program scores the block's nodes
inside the region through ``program.score``. The production path is
``multistart``: a coarse-grid incumbent and at most k deterministic
quasi-random starts, each followed by one local solve, which stop once the
Bayesian estimate of the number of minima says the solves have found them
all (Boender & Rinnooy Kan 1987). That solve is ``slsqp`` for
every program: SLSQP with the box bounds, the equality constraints given
exactly, ||x||^2 <= radius^2 on a ball, and goal programming in its
deviation-variable form; one (n+1)-point batch per point gives every value
and forward-difference derivative. A constrained program reaches it through
``penalty_solve``, a name kept for the benchmark's tests. ``nelder_mead``
is no product path: it is the tests' derivative-free reference, and the
benchmark binds it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .model import Region, as_integer
from .programs import ScalarProgram

__all__ = [
    "SolveResult",
    "ParetoSet",
    "grid_search",
    "slsqp",
    "multistart",
    "pareto_front",
]

MAX_GRID_NODES = int(2e8)
# glibc serves a block above its mmap threshold (128 KiB by default) with a
# fresh mapping and unmaps it on free, so a grid block whose temporaries
# pass it faults their pages in again every time; below it they come from
# the heap, reused by the next block. The grid oracle sizes its blocks to
# stay under it. On the row path (``grid_search``) the widest per-node
# array is the (nodes, r) means, so a block holds GRID_BLOCK_BYTES / (8 r)
# nodes in whole rows: 8,192 nodes at r = 2, 81 rows of a 0.02 grid over
# the example cube (block sweep in CHANGES.md). On a ball the (nodes, n)
# points of the norm test are as wide when n > r, so there a block holds
# GRID_BLOCK_BYTES / (8 max(r, n)).
GRID_BLOCK_BYTES = 128 * 1024
# Grid nodes scored per batch on the point path, which builds several
# (chunk, p) float64 temporaries (the basis z, z'A and their product): at
# 2,048 nodes a (chunk, 7) block is 112 KiB. At 65,536 nodes, eight 0.02
# grids over the example took about 293,000 minor faults per pass; at 2,048
# they take a few dozen, and the pass takes a third of the time (chunk
# sweep in CHANGES.md). A batch is the nodes inside one block of whole rows
# of ``_region_rows``, expanded to points.
GRID_CHUNK = 2_048
# Penalty weight the grid oracle applies to squared residuals. Balances
# two opposing biases at the resolutions in use (0.1 for the coarse grid of
# ``multistart``, 0.02 for the benchmark's oracle): too large and the
# half-step discretization residual swamps the objective; too small and
# the oracle undercuts the constrained minimum by trading violation for
# objective.
GRID_PENALTY_WEIGHT = 200.0
# Relative f gap within which the stopping rule of ``multistart`` counts two
# values of f as one minimum.
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


def _penalized(score, mu: float):
    """The objective plus mu * sum(residual^2), from one call of ``score``,
    which returns (objective, residuals) as ``program.score`` does."""
    def fn(*args):
        f, residuals = score(*args)
        val = np.asarray(f, dtype=float)
        for g in residuals:
            val = val + mu * np.asarray(g, dtype=float) ** 2
        return val

    return fn


def grid_search(program: ScalarProgram, resolution: float) -> SolveResult:
    """Exhaustive evaluation on an axis-aligned grid over the region.

    Constrained programs are scored as objective + mu * sum(residual^2)
    with mu = GRID_PENALTY_WEIGHT; raw residuals are reported at the
    winner. Scores within 1e-15 of the least tie, and a tie goes to the
    lexicographically smallest point: blocks come in lexicographic order,
    so within a block that is the first node within 1e-15 of the block's
    least score, and a later block wins only by more than 1e-15.

    One loop walks the blocks of ``_region_rows``: whole rows of the last
    axis (a row longer than the block in segments), on a ball without the
    rows that miss it and with the nodes that pass the norm test. A program
    with a row scorer (``program.rows``, set for every built-in program
    that reads ``moments``) scores a block of at most GRID_BLOCK_BYTES /
    (8 max(r, n)) nodes on a ball, and / (8 r) on a box, from one basis
    evaluation at its rows' leading coordinates (``fit.row_moments``), and
    keeps the scores of the nodes inside. Any other program scores only
    the nodes inside, at most GRID_CHUNK of them, through ``program.score``
    on the block expanded to points (``_row_nodes``).

    A scorer forms a weighted sum over the responses as one matrix-vector
    product per block, and with the OpenBLAS kernels numpy ships that
    rounds the nodes past the block's last multiple of four differently in
    the last bit. So f at a node can move by an ulp with the block size;
    on the tests' box and ball their block sizes give the same x*, f and
    residuals.
    """
    region = program.region
    if program.rows is None:
        score, block = program.score, GRID_CHUNK
    else:
        score, width = program.rows
        if region.kind == "hypersphere":
            width = max(width, region.dim)   # the (nodes, n) points of the norm test
        block = max(1, GRID_BLOCK_BYTES // (8 * width))
    score = _penalized(score, GRID_PENALTY_WEIGHT)
    best_score = np.inf
    best_x: np.ndarray | None = None
    evaluations = 0

    for lead, t, inside in _region_rows(region, resolution, block):
        if program.rows is None:
            pts = _row_nodes(lead, t)
            scores = np.asarray(score(pts if inside is None else pts[inside]), dtype=float)
        else:
            scores = np.asarray(score(lead, t), dtype=float)
            if inside is not None:
                scores = scores[inside]
        evaluations += scores.size
        idx = int(np.argmin(scores))  # the first NaN, if there is one
        s = float(scores[idx])
        if np.isnan(s):
            raise ValueError(f"{program.descriptor}: objective is NaN at grid node "
                             f"{_node(lead, t, inside, idx).tolist()}")
        idx = int(np.argmax(scores <= s + 1e-15))
        s = float(scores[idx])
        if best_x is None or s < best_score - 1e-15:
            best_score, best_x = s, _node(lead, t, inside, idx)
    residuals = _residuals_at(program, best_x)
    return SolveResult(
        x_star=best_x,
        f_star=best_score,
        constraint_residuals=residuals,
        evaluations=evaluations,
        converged=True,
    )


def _node(lead: np.ndarray, t: np.ndarray, inside: np.ndarray | None, i: int) -> np.ndarray:
    """The i-th scored node of a block of ``_region_rows``: the i-th node
    (lead_row, t_j) of its rows, or on a ball the i-th node inside."""
    row, j = divmod(int(i if inside is None else inside[i]), t.size)
    return np.append(lead[row], t[j])


def _grid_axes(region: Region, resolution: float) -> list[np.ndarray]:
    """The grid's axes over the region's bounding box; the node count is
    checked against MAX_GRID_NODES in exact integers."""
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    lo, hi = region.bounding_box()
    axes = [np.linspace(a, b, int(round((b - a) / resolution)) + 1)
            for a, b in zip(lo, hi)]
    if math.prod(a.size for a in axes) > MAX_GRID_NODES:
        raise ValueError("grid too large")
    return axes


def _row_nodes(lead: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The nodes (lead_i, t_j) in lexicographic order (row i, then j), as
    the (k, n) transpose of a feature-major array, which is what
    ``evaluate_basis`` reads fastest; ``moments`` gives m in the same
    layout. The built-in programs give the same bits for any layout; a
    hand-built objective that reduces along the factor axis (an einsum,
    say) may round its last bit differently than on a row-major block."""
    coords = np.empty((lead.shape[1] + 1, lead.shape[0], t.size))
    coords[:-1] = lead.T[:, :, None]
    coords[-1] = t
    return coords.reshape(coords.shape[0], -1).T


def _region_grid(region: Region, resolution: float):
    """Yield the grid nodes inside the region in lexicographic order, in
    (k, n) batches of at most GRID_CHUNK nodes: the blocks of
    ``_region_rows`` expanded to points."""
    for lead, t, inside in _region_rows(region, resolution, GRID_CHUNK):
        pts = _row_nodes(lead, t)
        yield pts if inside is None else pts[inside]


def _region_rows(region: Region, resolution: float, block: int):
    """Yield the grid nodes inside the region, in lexicographic order, as
    (lead, t, inside): the nodes (lead_i, t_j) of whole rows of the last
    axis, at most ``block`` of them, with the leading coordinates ``lead``
    (rows, n-1) and ``t`` a slice of the last axis, which is the whole axis
    unless a row is longer than ``block``. ``lead`` is decoded from the row
    indices (``np.unravel_index``) into a feature-major array, and a
    one-factor grid has one empty row. ``inside`` is None on a box. On a
    ball the rows with no node in it are dropped from ``lead``, ``inside``
    is the flat indices of the remaining nodes with ||x||^2 <= radius^2,
    summed over a row-major (k, n) array (einsum's row sums round
    differently on a column-major one when n >= 3), and a block with none
    is skipped."""
    axes = _grid_axes(region, resolution)
    *lead_axes, last = axes
    sizes = [a.size for a in lead_axes]
    segments = [last[i:i + block] for i in range(0, last.size, block)]
    total = math.prod(sizes)
    per_block = max(1, block // last.size)
    found = False
    for start in range(0, total, per_block):
        stop = min(start + per_block, total)
        index = np.unravel_index(np.arange(start, stop), sizes) if sizes else ()
        lead = np.array([a.take(i) for a, i in zip(lead_axes, index)])
        lead = lead.reshape(-1, stop - start).T
        for t in segments:
            rows, inside = lead, None
            if region.kind == "hypersphere":
                # rows whose leading coordinates alone pass radius^2, by more
                # than rounding could move it, have no node inside
                near = np.einsum("ij,ij->i", lead, lead) <= region.radius**2 * (1 + 1e-12)
                if not near.all():
                    rows = lead[near]
                pts = np.empty((rows.shape[0], t.size, len(axes)))
                pts[..., :-1] = rows[:, None, :]
                pts[..., -1] = t
                pts = pts.reshape(-1, len(axes))
                mask = np.einsum("ij,ij->i", pts, pts) <= region.radius**2
                mask = mask.reshape(rows.shape[0], t.size)
                hit = mask.any(axis=1)
                if not hit.any():
                    continue
                if not hit.all():
                    rows, mask = rows[hit], mask[hit]
                inside = np.flatnonzero(mask)
            found = True
            yield rows, t, inside
    if not found:
        raise ValueError(f"no grid node at resolution {resolution:g} "
                         f"lies inside the region")


def nelder_mead(program: ScalarProgram, x0) -> SolveResult:
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
        options={"fatol": 1e-10, "xatol": 1e-10, "maxfev": 100_000},
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
    constraints the result is never worse than the clipped start. It has
    converged when SLSQP ends with status 0, whose stopping test holds every
    constraint to its ``ftol`` of 1e-10; any other status is not converged.
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
    return SolveResult(x_star=x, f_star=f, constraint_residuals=residuals,
                       evaluations=evaluations, converged=bool(res.status == 0))


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
    """Points seed*k + 1 ... seed*k + k of the unscrambled Halton sequence
    (Halton 1960; point 0 is the box's lower corner), scaled to the region's
    bounding box and clipped into it: coordinate d of point i is the radical
    inverse of i in the d-th prime, its digits summed least significant first."""
    region = program.region
    lo, hi = region.bounding_box()
    primes = [2]
    while len(primes) < lo.size:  # Bertrand: a prime lies between p and 2p
        primes.append(next(c for c in range(primes[-1] + 1, 2 * primes[-1])
                           if all(c % p for p in primes)))
    index = np.arange(seed * k + 1, seed * k + k + 1)[:, None] + np.zeros(lo.size, dtype=int)
    pts, scale = np.zeros(index.shape), np.ones(lo.size)
    while index.any():
        scale /= primes
        index, digit = np.divmod(index, primes)
        pts += digit * scale
    return region.clip(pts * (hi - lo) + lo)


def multistart(program: ScalarProgram, k: int = 16, seed: int = 0) -> SolveResult:
    """Best of local searches from the coarse-grid incumbent and at most k
    quasi-random starts: seed s takes points s*k + 1 ... s*k + k of the
    Halton sequence (``_start_points``), and the CLI always passes seed 0.

    The starts stop early by the Bayesian rule of Boender & Rinnooy Kan
    (1987, *Math. Programming* 37:59). The solves so far, N of them with the
    incumbent's, have reached w distinct values of f, a value being new
    unless it is within F_TIE * max(1, |f|) of a value f already reached,
    converged or not. Before each further start the rule estimates
    w (N - 1) / (N - w - 2) minima in all, and stops once N > w + 2 and that
    is below w + 0.5: after 8 solves with one value, after 17 with two. At
    k <= 6 every start runs. The best of the solves that ran wins, by
    ``_better``: converged first, then the lowest f, then the smallest x.
    """
    k, seed = as_integer(k, "k", 1), as_integer(seed, "seed", 0)
    coarse = grid_search(program, resolution=0.1)

    solver = penalty_solve if program.eq_constraints else slsqp
    best = solver(program, coarse.x_star)
    evaluations = coarse.evaluations + best.evaluations
    values = [best.f_star]  # the distinct values of f the solves reached
    for n, x0 in enumerate(_start_points(program, k, seed), start=1):
        w = len(values)
        if n > w + 2 and w * (n - 1) / (n - w - 2) < w + 0.5:
            break
        cand = solver(program, x0)
        evaluations += cand.evaluations
        if not any(abs(cand.f_star - f) <= F_TIE * max(1.0, abs(f)) for f in values):
            values.append(cand.f_star)
        if _better(cand, best):
            best = cand
    return replace(best, evaluations=evaluations)


def _better(a: SolveResult, b: SolveResult) -> bool:
    """Converged wins, then the lower f, then the lexicographically smaller x."""
    return ((not a.converged, a.f_star, tuple(a.x_star))
            < (not b.converged, b.f_star, tuple(b.x_star)))


def pareto_front(objectives, region: Region, resolution: float) -> ParetoSet:
    """Nondominated subset of the objectives' values on the region grid
    that grid_search scores, in lexicographic order of the nodes. An
    objective that is NaN at a node raises ``ValueError`` naming the first
    such node: NaN compares false, so the filter would keep it."""
    if len(objectives) < 2:
        raise ValueError("need at least two objectives")
    chunks = list(_region_grid(region, resolution))
    pts = np.concatenate(chunks)
    vals = np.concatenate([
        np.stack([np.asarray(f(c), dtype=float) for f in objectives], axis=-1)
        for c in chunks
    ])
    nan = np.isnan(vals)
    if nan.any():
        i, k = np.argwhere(nan)[0]
        raise ValueError(f"objective {k} is NaN at grid node {pts[i].tolist()}")
    keep = _nondominated_mask(vals)
    points = tuple(
        (pts[i].copy(), vals[i].copy()) for i in np.flatnonzero(keep)
    )
    return ParetoSet(points=points)


def _nondominated_mask(vals: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not weakly dominated by a different row.

    The sort-filter skyline (Chomicki, Godfrey, Gryz & Liang, "Skyline with
    presorting", ICDE 2003): rows are visited in lexicographic order, where
    every dominator of a row comes before it. Each row not yet marked is a
    front member and marks all later rows it dominates; a row dominated only
    by marked rows is also dominated by whatever marked them, so the mask is
    exact, and the walk visits only the front's rows, jumping from one to
    the next unmarked row. The comparison is feature-major: the sorted
    values are one contiguous (d, N) array, and a visit compares each
    objective's row with one elementwise pass. Duplicates of a front vector
    dominate none of each other and are all kept.
    """
    order = np.lexsort(vals.T[::-1])
    cols = vals.T.take(order, axis=1)
    n = order.size
    dominated = np.zeros(n + 1, dtype=bool)  # the last entry, never marked, ends the walk
    i = 0
    while i < n:
        v, rest = cols[:, i], cols[:, i + 1:]
        weak, strict = rest[0] >= v[0], rest[0] > v[0]
        for k in range(1, len(cols)):
            weak &= rest[k] >= v[k]
            strict |= rest[k] > v[k]
        weak &= strict
        dominated[i + 1:n] |= weak
        # argmin of a boolean array stops at its first False
        i += 1 + int(dominated[i + 1:].argmin())
    keep = np.zeros(n, dtype=bool)
    keep[order] = ~dominated[:n]
    return keep
