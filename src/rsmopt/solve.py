"""Minimizers for scalar programs over box or ball regions.

``grid_search`` is the exhaustive oracle the tests check against. One loop
walks the grid in blocks of whole rows of the last axis (``_region_rows``):
a program that reads ``moments`` scores a block through its row scorer
(``fit.row_moments``), and any other program scores the block's nodes
inside the region through ``program.score``. The production path is
``multistart``: a local solve from a coarse-grid incumbent, then waves of
at most k deterministic quasi-random starts, which stop once the Bayesian
estimate of the number of minima says the solves have found them all
(Boender & Rinnooy Kan 1987). That solve is ``sqp`` for every program, a
sequential quadratic program in numpy with the box bounds, the equality
constraints given exactly, ||x||^2 <= radius^2 on a ball, and goal
programming in its deviation-variable form; one (2n+1)-point batch per
point gives every value and central-difference derivative, and a wave's
starts run in lockstep, one ``score`` call a round for all their batches.
A constrained program reaches it through ``penalty_solve``, a name kept for
the benchmark's tests. ``nelder_mead`` is no product path: it is the tests'
derivative-free reference, the benchmark binds it by name, and it is the
one user of scipy here, imported on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce

import numpy as np

from .model import Region, as_integer
from .programs import ScalarProgram

__all__ = [
    "SolveResult",
    "ParetoSet",
    "grid_search",
    "sqp",
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
# Relative f gap within which ``multistart`` counts two values of f as one
# minimum, for its stopping rule and its choice among converged ends.
F_TIE = 1e-8
# ``sqp``'s iteration limit, and its tolerance on every equality residual
# of a converged end and on the merit's change over its last step.
MAX_ITER = 100
TOL = 1e-10
# The difference step at |x_i| <= 1, eps^(1/3), which balances the rounding
# and truncation errors of central differences.
FD_STEP = float(np.cbrt(np.finfo(float).eps))


@dataclass(frozen=True)
class SolveResult:
    x_star: np.ndarray
    f_star: float
    constraint_residuals: np.ndarray
    evaluations: int
    converged: bool
    # every start's own end, in start order, on ``sqp``'s answer for a block
    ends: tuple[SolveResult, ...] = ()


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


def _value_and_jacobian(fn, x: np.ndarray, lower: np.ndarray, upper: np.ndarray):
    """The k values of fn at x and their (k, n) Jacobian, from one call of fn
    on a (2n+1, n) batch, or for a block x (s, n) the (s, k) values and
    (s, k, n) Jacobians from one call on the s batches stacked. A point's
    batch is x, then two steps along each axis of
    h = min(eps^(1/3) * max(1, |x_i|), (upper_i - lower_i) / 4), -h and +h
    (central differences) where both stay in [lower, upper], else +h and +2h,
    or -h and -2h where +2h would pass ``upper`` (the one-sided three-point
    rule); the cap on h keeps whichever pair the rule picks inside the box.
    The slope on axis i is that of the parabola through the values at the
    steps s1, s2 actually taken, which rounding may have changed:
    w1 (f(x + s1) - f(x)) + w2 (f(x + s2) - f(x)) with w1 = s2^2 / den,
    w2 = -s1^2 / den and den = s1 s2 (s2 - s1). The steps are set elementwise,
    so a point's batch is the same in any block, and a point's slopes are its
    (n, 2n) weight matrix times the differences, which keeps f(x) out of the
    product and so does not lose its digits where |f| is large. fn maps a
    batch to one value per point, or to k values per point as (batch, k)."""
    block = np.atleast_2d(x)
    s, n = block.shape
    h = np.minimum(FD_STEP * np.maximum(1.0, np.abs(block)), (upper - lower) / 4)
    h1 = np.where(block + 2 * h <= upper, h, -h)
    h2 = np.where((block - h >= lower) & (block + h <= upper), -h1, 2 * h1)
    pts, axes = np.repeat(block[:, None], 2 * n + 1, axis=1), np.arange(n)
    pts[:, 1 + axes, axes] = p1 = block + h1
    pts[:, 1 + n + axes, axes] = p2 = block + h2
    s1, s2 = p1 - block, p2 - block
    den = s1 * s2 * (s2 - s1)
    weights = np.zeros((s, n, 2 * n))
    weights[:, axes, axes], weights[:, axes, n + axes] = s2 * s2 / den, -s1 * s1 / den
    vals = np.asarray(fn(pts.reshape(-1, n)), dtype=float).reshape(s, 2 * n + 1, -1)
    jac = (weights @ (vals[:, 1:] - vals[:, :1])).transpose(0, 2, 1)
    return (vals[:, 0], jac) if x.ndim == 2 else (vals[0, 0], jac[0])


def _qp(B, g, E, e, G, b, W):
    """min g.d + d'Bd/2 subject to E d = e and G d >= b by the primal
    active-set method (Nocedal & Wright 2006, Alg. 16.3) from d = 0, where
    the rows W are active. A step solves the KKT system of E and the working
    rows and stops at the first blocking row, which joins them; a full step
    drops the row with the most negative multiplier. It gives up where more
    rows than variables would be working. Returns d, the working rows and
    the multipliers of E and of those rows."""
    nv, m = g.size, len(E)
    W = list(W[:nv - m])
    d, grad, res, floor = np.zeros(nv), g, e, b - 1e-12
    for _ in range(10 * (nv + b.size)):
        J = np.concatenate([E, G[W]]) if W else E
        K = np.zeros((nv + len(J), nv + len(J)))
        K[:nv, :nv], K[:nv, nv:], K[nv:, :nv] = B, -J.T, J
        rhs = np.concatenate([-grad, res, np.zeros(len(W))])
        try:
            step = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(K, rhs, rcond=None)[0]
        p = step[:nv]  # B (d + p) + g = J' step[nv:]
        if not (G @ (d + p) >= floor).all():  # a row blocks the full step
            Gp = G @ p
            block = Gp < -1e-12 * math.sqrt(p @ p)
            block[W] = False
            slack = np.maximum(np.where(block, G @ d - b, np.inf), 0.0)
            ratios = slack / np.where(block, -Gp, 1.0)
            i = int(np.argmin(ratios))
            if ratios[i] < 1.0:
                if len(J) >= nv:
                    break
                d = d + ratios[i] * p
                grad, res = B @ d + g, e - E @ d
                W.append(i)
                continue
        d = d + p
        mu = step[nv + m:]
        if not W or mu.min() >= -1e-10 * max(1.0, np.abs(grad).max()):
            break
        grad, res = B @ d + g, e - E @ d
        W.pop(int(np.argmin(mu)))
    # at the iteration limit, a row added after the last solve has no multiplier
    return d, W[:len(step) - nv - m], step[nv:nv + m], step[nv + m:]


def _multipliers(J, g):
    """The least-squares multipliers of the rows J for the gradient g."""
    try:
        return np.linalg.solve(J @ J.T, J @ g)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(J.T, g, rcond=None)[0]


def sqp(program: ScalarProgram, x0) -> SolveResult:
    """Local solve by sequential quadratic programming (Nocedal & Wright 2006,
    ch. 18) with the constraints exact, from one start x0 (n,) or from each
    start of a block (s, n).

    The variables are x in the region's bounding box, the equality residuals
    of ``program.score`` are equality constraints, and a ball adds
    ||x||^2 <= radius^2. A program with ``goals`` (gap, w) is solved in
    deviation form: variables (x, d+, d-), objective w.(d+ + d-), constraints
    gap(x) = d+ - d- and d+, d- >= 0, with d+ and d- started at the parts of
    gap(x0). All values and derivatives at a point come from one
    (2n+1)-point batch (``_value_and_jacobian``).

    Each iteration solves a quadratic program over the bounds and the
    linearized equalities and ball row (``_qp``), warm started from the last
    working rows; where the linearized equalities are out of reach, the step
    is the damped least-squares step toward them. Its Hessian is a
    Powell-damped BFGS approximation of the Lagrangian's (Proc. 18.2). A
    backtracking line search on the l1 merit f + sum_k penalty_k |c_k|, each
    penalty at least its multiplier (Powell 1978) and large enough by (18.36),
    takes the step, clipped into the region; in deviation form each penalty
    is also at least w_k, so w.|gap(x)| never exceeds the merit. It stops
    after MAX_ITER iterations, when the line search fails, or at a KKT point
    after a step that moved the merit by at most TOL * max(1, |merit|).

    It has converged when its last point is a KKT point: every equality
    residual at most TOL and, with least-squares multipliers of the
    equalities and the working bounds and ball row, the Lagrangian's gradient
    and every wrong-signed multiplier at most sqrt(TOL) * max(1, |grad f|).

    A block's starts run in lockstep, each as a generator (``_sqp``): a round
    scores every live start's batch in one ``program.score`` (or goals' gap)
    call. It gives the end ``_better`` picks in start order, the evaluations
    of all, and every end in ``ends``. A start that is not finite, or a NaN
    in a round's values, is a ValueError naming the program and the point.
    """
    region, (lo, hi) = program.region, program.region.bounding_box()
    starts = np.atleast_2d(np.asarray(x0, dtype=float))
    if not np.isfinite(starts).all():
        raise ValueError(f"{program.descriptor}: start "
                         f"{starts[~np.isfinite(starts).all(axis=1)][0].tolist()} is not finite")

    def batch(pts):  # f and every residual, or the goals' gaps, at each point
        if program.goals is None:
            f, residuals = program.score(pts)
            vals = np.column_stack([f, *residuals])
        else:
            vals = program.goals[0](pts)
        if np.isnan(vals).any():
            raise ValueError(f"{program.descriptor}: score is NaN at point "
                             f"{pts[np.isnan(vals).any(axis=-1)][0].tolist()}")
        return vals

    runs = [_sqp(program, region.clip(x), lo, hi) for x in starts]
    asks, ends = {i: next(run) for i, run in enumerate(runs)}, [None] * len(runs)
    while asks:  # one round: every live start's batch in one call of score
        values, jac = _value_and_jacobian(batch, np.array(list(asks.values())), lo, hi)
        for j, i in enumerate(list(asks)):
            try:
                asks[i] = runs[i].send((values[j], jac[j]))
            except StopIteration as stop:
                ends[i] = stop.value
                del asks[i]
    if np.ndim(x0) == 1:
        return ends[0]
    return replace(_best(ends), evaluations=sum(e.evaluations for e in ends), ends=tuple(ends))


def _sqp(program: ScalarProgram, x0: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``sqp`` from one start x0, as a generator: it yields each point it needs
    scored, is sent its values and Jacobian, and returns its ``SolveResult``."""
    region, n = program.region, x0.size
    w = np.zeros(0) if program.goals is None else program.goals[1]
    r, ball = w.size, region.radius if region.kind == "hypersphere" else None
    eye = np.eye(n + 2 * r)
    # G d >= b on a step d: the lower bounds, the upper bounds of x, then on
    # a ball the row ||x||^2 <= radius^2, linearized and divided by 2 radius
    G = np.concatenate([eye, -eye[:n], np.zeros((int(ball is not None), n + 2 * r))])
    lower, evaluations = np.append(lo, np.zeros(2 * r)), 0
    if r:  # the objective's gradient, and the deviations' block of the Jacobian
        grad_goal, dev_jac = np.append(np.zeros(n), [w, w]), np.hstack([-eye[:r, :r], eye[:r, :r]])

    def at(v, values, jac):
        """(f, grad f, c, Jacobian of c) at v, from its batch's values and Jacobian."""
        nonlocal evaluations
        evaluations += 2 * n + 1
        if r == 0:
            return values[0], jac[0], values[1:], jac[1:]
        dev = v[n:n + r] - v[n + r:]
        return (w @ (v[n:n + r] + v[n + r:]), grad_goal, values - dev,
                np.concatenate([jac, dev_jac], axis=1))

    def first_order(g, c, A, W):
        """Whether (g, c, A) meets the KKT conditions with the rows W active."""
        J = np.concatenate([A, G[W]])
        mult = _multipliers(J, g)
        tol = math.sqrt(TOL) * max(1.0, np.abs(g).max())
        return bool(np.abs(c).max(initial=0.0) <= TOL and np.abs(g - J.T @ mult).max() <= tol
                    and mult[len(c):].min(initial=0.0) >= -tol)

    v = np.concatenate([x0, np.zeros(2 * r)])
    state = at(v, *(yield x0))
    if r:
        v[n:] = np.maximum(np.concatenate([state[2], -state[2]]), 0.0)
        state = at(v, *(yield x0))
    # the deviations enter linearly: their block of the Hessian starts near 0
    B = B0 = np.diag(np.repeat([1.0, 1e-6], [n, 2 * r])) if r else eye
    penalty, moved, W, phi_new = np.zeros(state[2].size), np.inf, [], state[0]
    for iteration in range(MAX_ITER + 1):
        f, g, c, A = state
        b = np.concatenate([lower - v, v[:n] - hi])
        if ball is not None:
            G[-1, :n] = -v[:n] / ball
            b = np.append(b, (v[:n] @ v[:n] - ball**2) / (2 * ball))
        W = [i for i in W if b[i] >= -1e-12]  # the last working rows still active
        if moved <= TOL * max(1.0, abs(phi_new)) or iteration == MAX_ITER:
            converged = first_order(g, c, A, W)
            if converged or iteration == MAX_ITER:
                break
        active = W
        d, W, lam, mu = _qp(B, g, A, -c, G, b, active)
        slope, phi = g @ d, f
        if c.size:
            size, lin = np.abs(c), np.abs(c + A @ d)
            if lin.max() > 1e-8 * size.max() + 1e-3 * TOL:  # out of reach
                damping = 1e-10 * max(1.0, np.square(A).sum())
                d, W, _, _ = _qp(A.T @ A + damping * eye, A.T @ c, A[:0], c[:0], G, b, active)
                lam, mu = np.split(_multipliers(np.concatenate([A, G[W]]), g), [c.size])
                slope, lin = g @ d, np.abs(c + A @ d)
            drop, weight = size - lin, np.abs(lam) if r == 0 else np.maximum(np.abs(lam), w)
            penalty = np.maximum(weight, 0.5 * (penalty + weight))
            if drop.sum() > 0:  # rho = 0.3 in (18.36)
                penalty = np.maximum(penalty, (slope + 0.5 * d @ B @ d) / (0.7 * drop.sum()))
            slope, phi = slope - penalty @ drop, phi + penalty @ size
        alpha, accepted = 1.0, False
        while slope < 0 and alpha > TOL and not accepted:
            trial = np.maximum(v + alpha * d, lower)
            trial[:n] = np.minimum(trial[:n], hi)
            if ball is not None:
                trial[:n] = region.clip(trial[:n])
            new = at(trial, *(yield trial[:n]))
            phi_new = new[0] + penalty @ np.abs(new[2]) if c.size else new[0]
            accepted = phi_new <= phi + 1e-4 * alpha * slope
            if not accepted:  # back off to the parabola's minimum, in [0.1, 0.5] alpha
                if (trial == v).all():
                    break  # the clip undid the step
                alpha *= min(0.5, max(0.1, -slope * alpha / (2 * (phi_new - phi - alpha * slope))))
        if not accepted:
            converged = first_order(g, c, A, W)
            break
        # the damped BFGS update from the change in the Lagrangian's gradient
        s, y = trial - v, new[1] - g
        if c.size:
            y -= (new[3] - A).T @ lam
        if ball is not None and len(G) - 1 in W:  # the ball row turns with x
            y[:n] += mu[W.index(len(G) - 1)] * s[:n] / ball
        sy = s @ y
        if iteration == 0 and sy > 0:  # to the curvature along the first step
            B = sy / (s @ B0 @ s) * B0
        Bs = B @ s
        sBs = s @ Bs
        if sBs > 0:  # s is 0 where rounding leaves the merit's test unmoved
            if sy < 0.2 * sBs:
                y, sy = y + (0.2 * sBs - sy) / (sBs - sy) * (Bs - y), 0.2 * sBs
            B = B + (y[:, None] * (y / sy) - Bs[:, None] * (Bs / sBs))
        moved, v, state = phi - phi_new, trial, new
    f = state[0] if r == 0 else np.abs(state[2] + v[n:n + r] - v[n + r:]) @ w
    return SolveResult(x_star=v[:n], f_star=float(f),
                       constraint_residuals=np.abs(state[2]) if r == 0 else np.zeros(0),
                       evaluations=evaluations, converged=bool(converged))


def penalty_solve(program: ScalarProgram, x0) -> SolveResult:
    """``sqp``, start or block, for a program with equality constraints; no
    penalty is left. ``multistart`` calls this binding because the benchmark's
    tests count its spans, until the change of ROADMAP item 1 renames it."""
    if not program.eq_constraints:
        raise ValueError("penalty_solve requires equality constraints")
    return sqp(program, x0)


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
    w (N - 1) / (N - w - 2) minima in all, and stops once that is below
    w + 0.5, that is once N >= 2w^2 + 3w + 3: after 8 solves with one value,
    after 17 with two. At k <= 6 every start runs. As w never falls, the
    starts run in waves after the incumbent's solve, each one lockstep
    ``sqp`` (or ``penalty_solve``) call on the block of starts up to start
    min(2w^2 + 3w + 2, k) at the current w; w is then recounted in start
    order, and another wave follows only if it grew. The best end wins by
    ``_better``, in start order: converged first, then the lowest f, the
    first end found winning ties within F_TIE; when none converged, the end
    nearest its pins (the least largest residual).
    """
    k, seed = as_integer(k, "k", 1), as_integer(seed, "seed", 0)
    coarse = grid_search(program, resolution=0.1)
    solver = penalty_solve if program.eq_constraints else sqp
    best = solver(program, coarse.x_star)
    evaluations = coarse.evaluations + best.evaluations
    values = [best.f_star]  # the distinct values of f the solves reached
    starts, done = _start_points(program, k, seed), 0
    while (stop := min(2 * len(values) ** 2 + 3 * len(values) + 2, k)) > done:
        wave = solver(program, starts[done:stop])
        for cand in wave.ends:
            if not any(abs(cand.f_star - f) <= F_TIE * max(1.0, abs(f)) for f in values):
                values.append(cand.f_star)
        best, done, evaluations = _best([best, *wave.ends]), stop, evaluations + wave.evaluations
    return replace(best, evaluations=evaluations)


def _best(ends: list[SolveResult]) -> SolveResult:
    """The end ``_better`` picks, each end against the best before it."""
    return reduce(lambda best, end: end if _better(end, best) else best, ends)


def _better(a: SolveResult, b: SolveResult) -> bool:
    """Whether the end a replaces b, found before it: converged wins; between
    converged ends an f lower by more than F_TIE * max(1, |f|), so the first
    end found at a minimum stays; between unconverged ones the smaller
    largest residual, then the lower f."""
    if a.converged != b.converged:
        return a.converged
    if a.converged:
        return a.f_star < b.f_star - F_TIE * max(1.0, abs(b.f_star))
    miss = [float(np.max(r.constraint_residuals, initial=0.0)) for r in (a, b)]
    return (miss[0], a.f_star) < (miss[1], b.f_star)


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
