#!/usr/bin/env python3
"""Layered benchmark for rsmopt.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each was chosen):
    example-report  the shipped example through ``rsmopt report``
    grid-oracle     the example model through the grid oracle at 0.02,
                    a Pareto front and Monte-Carlo joint probabilities

The repository root is the directory above this file; it must hold
``src/rsmopt``, ``configs/example.json`` and ``data/experiment_wide.csv``,
otherwise the run exits with code 2 before measuring. Inputs are written
to ``.bench_run/`` under the root and only the checkout's ``src`` is
imported.

A run takes its set-up samples, warms up without timing or checking,
then times passes of the workload; the whole takes about
``--seconds``. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates traced and untraced
passes and reports the per-layer metrics. Every pass is checked against
values recorded in ``reference.json``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXAMPLE_CONFIG = ROOT / "configs" / "example.json"
EXAMPLE_DATA = ROOT / "data" / "experiment_wide.csv"
WORK = ROOT / ".bench_run"

SETUP_SAMPLES = 9
GRID_RESOLUTION = 0.02
PARETO_RESOLUTION = 0.1
PARETO_WEIGHTS = (0.285, 0.715)
MC_DRAWS = 100_000
MC_TAIL_LIMIT = 1e-9  # false alarms stay negligible over thousands of checks
F_TOL = 1e-3          # method optimum F against the recorded value
X_TOL = 1e-2          # method optimum x* (max norm) where x* is unique
RESIDUAL_TOL = 1e-3   # equality residual at x*; the solver's own feasibility limit
GRID_F_RTOL = 1e-6    # grid oracle F: same nodes, so only rounding may differ
ROW_RTOL = 1e-9       # fixed-point rows are pure model evaluations


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# --- inputs ---------------------------------------------------------------

def make_inputs(workdir: Path, seed: int) -> Path:
    """Write the example data with its rows in a seeded order, and a copy of
    the example config that points at it. Ingest sorts runs by id, so the
    fitted model is the same for every seed."""
    import numpy as np

    workdir.mkdir(parents=True, exist_ok=True)
    lines = EXAMPLE_DATA.read_text().splitlines()
    header, rows = lines[0], [line for line in lines[1:] if line.strip()]
    order = np.random.default_rng(seed).permutation(len(rows))
    (workdir / "data.csv").write_text(
        "\n".join([header] + [rows[i] for i in order]) + "\n")
    doc = json.loads(EXAMPLE_CONFIG.read_text())
    doc["data"] = "data.csv"
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(doc, indent=2) + "\n")
    return config_path


def probe_setup(config_path: Path) -> list[dict]:
    """Set-up timings from SETUP_SAMPLES fresh interpreters, one at a time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), str(config_path)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(sample.pop("rsmopt_file")).resolve().is_relative_to(SRC):
            raise BenchError("set-up probe imported rsmopt from outside src/")
        samples.append(sample)
    return samples


class Context:
    """The fitted example model and its config, built once per run."""

    def __init__(self, config_path: Path, seed: int) -> None:
        from rsmopt import cli

        self.seed = seed
        self.config = cli.load_config(config_path)
        self.data = cli.ingest_csv_wide(self.config.data_path,
                                        response_order=self.config.responses)
        self.model = cli.fit_from_config(self.config, self.data)
        self.reference = json.loads((BENCH / "reference.json").read_text())
        self.cache: dict = {}   # values the checks compute once per run


# --- workloads ------------------------------------------------------------
#
# A pass returns what its check needs; an operation that raises is recorded
# with its exception, not propagated. check_* turns a pass's output into
# (operations attempted, operations failed, problems). warm_* runs the code
# paths of a pass once before timing starts: the first calls into scipy,
# the first growth of the interpreter's and numpy's memory pools.

def example_report_pass(ctx: Context, tracer, fine: bool):
    from rsmopt import cli

    with tracer.span("cli.build_report"):
        report = cli.build_report(ctx.model, ctx.config)
    with tracer.span("cli.report_markdown"):
        text = cli.report_markdown(report, list(ctx.data.response_names))
    return report, text


def warm_report(ctx: Context, tracer) -> None:
    """Every method from one start instead of k: the paths of a pass at
    about a tenth of its cost, which leaves room for one more counted pass."""
    from rsmopt import cli

    solver = dataclasses.replace(ctx.config.solver, multistart_k=1)
    cli.build_report(ctx.model, dataclasses.replace(ctx.config, solver=solver))


def check_example_report(ctx: Context, out) -> tuple[int, int, list[str]]:
    import numpy as np

    report, text = out
    ref = ctx.reference["example-report"]
    rows = {row["method"]: row for row in report["rows"]}
    region = ctx.config.region
    problems, failed = [], 0
    for spec in ctx.config.methods:
        row, want = rows.get(spec.name), ref["methods"][spec.name]
        bad = None
        if row is None or "error" in row:
            bad = "no result" if row is None else row["error"]
        elif not row["converged"]:
            bad = "did not converge"
        elif abs(row["F"] - want["F"]) > F_TOL:
            bad = f"F {row['F']!r} != {want['F']!r}"
        elif want["x_unique"] and np.max(np.abs(np.subtract(row["x"], want["x"]))) > X_TOL:
            bad = f"x* {row['x']} != {want['x']}"
        elif any(r > RESIDUAL_TOL for r in row["residuals"]):
            bad = f"residuals {row['residuals']}"
        elif not region.contains(np.asarray(row["x"]), atol=1e-9):
            bad = f"x* {row['x']} outside the region"
        if bad:
            failed += 1
            problems.append(f"{spec.name}: {bad}")
    for want in ref["fixed_points"]:
        row = rows.get(want["method"])
        for key in ("x", "y_hat", "var", "cov"):
            if row is None or not np.allclose(row[key], want[key], rtol=ROW_RTOL, atol=0):
                problems.append(f"fixed point {want['method']}: {key} differs")
                break
    if len(text.splitlines()) != 2 + len(report["rows"]):
        problems.append("markdown table has the wrong number of lines")
    return len(ctx.config.methods), failed, problems


def _candidates(region, resolution: float):
    """Grid nodes over a box, built here independently of rsmopt.solve."""
    import numpy as np

    axes = [np.linspace(lo, hi, int(round((hi - lo) / resolution)) + 1)
            for lo, hi in zip(region.lower, region.upper)]
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)


def grid_oracle_pass(ctx: Context, tracer, fine: bool):
    import numpy as np
    from rsmopt import cli, programs, solve

    from spans import traced_program

    ops = []
    optima = {}
    for spec in ctx.config.methods:
        program = cli.build_program(ctx.model, spec, ctx.config.region)
        if fine:
            program = traced_program(tracer, program)
        try:
            with tracer.span("oracle.grid_search", spec.name) as record:
                result = solve.grid_search(program, GRID_RESOLUTION)
                record["count"], record["value"] = result.evaluations, result.f_star
            optima[spec.name] = result.x_star
        except Exception as exc:  # counted as a failed operation
            result = exc
        ops.append(("grid:" + spec.name, result))

    w = np.asarray(PARETO_WEIGHTS)
    objectives = [
        lambda x: programs.predict(ctx.model, x) @ w,
        lambda x: programs.unit_variance(ctx.model, x),
    ]
    candidates = len(_candidates(ctx.config.region, PARETO_RESOLUTION))
    try:
        with tracer.span("solve.pareto_front") as record:
            front = solve.pareto_front(objectives, ctx.config.region, PARETO_RESOLUTION)
            record["count"], record["value"] = candidates, len(front.points)
    except Exception as exc:
        front = exc
    ops.append(("pareto", front))

    tau = next(s.config.tau for s in ctx.config.methods if s.config.tau is not None)
    for k, (name, x) in enumerate(optima.items()):
        try:
            with tracer.span("programs.joint_probability_mc", name) as record:
                estimate = programs.joint_probability_mc(
                    ctx.model, x, tau, MC_DRAWS, seed=ctx.seed * 100 + k)
                record["count"] = MC_DRAWS
        except Exception as exc:
            estimate = exc
        ops.append((f"mc:{name}", (x, tau, estimate)))
    return ops


def warm_oracle(ctx: Context, tracer) -> None:
    """One full pass: a smaller grid would not warm the allocator for
    buffers of the counted passes' size, and a pass is a tenth of a run."""
    grid_oracle_pass(ctx, tracer, False)


def _front_problem(ctx: Context, front) -> str | None:
    """Brute-force check that the front is exactly the nondominated subset of
    the candidate grid."""
    import numpy as np
    from rsmopt.fit import predict, unit_variance

    if "front" not in ctx.cache:
        pts = _candidates(ctx.config.region, PARETO_RESOLUTION)
        vals = np.stack([predict(ctx.model, pts) @ np.asarray(PARETO_WEIGHTS),
                         unit_variance(ctx.model, pts)], axis=-1)
        dominated = np.zeros(len(vals), dtype=bool)
        for lo in range(0, len(vals), 256):   # blocks keep memory small
            block = vals[lo:lo + 256, None, :]
            dominated[lo:lo + 256] = np.any(
                np.all(vals <= block, axis=-1) & np.any(vals < block, axis=-1), axis=1)
        ctx.cache["front"] = {tuple(np.round(p, 9)): v
                              for p, v in zip(pts[~dominated], vals[~dominated])}
    want = ctx.cache["front"]
    got = {tuple(np.round(x, 9)): v for x, v in front.points}
    if got.keys() != want.keys():
        return (f"front has {len(got)} points, {len(got.keys() - want.keys())} "
                f"dominated; {len(want.keys() - got.keys())} nondominated missing")
    for key, v in got.items():
        if not np.allclose(v, want[key], rtol=1e-9, atol=1e-12):
            return f"front value at {key} is {v}, expected {want[key]}"
    if len(got) != ctx.reference["grid-oracle"]["pareto_front_size"]:
        return f"front size {len(got)} differs from the recorded size"
    return None


def normal_cdf_2d(mean, cov, tau) -> float:
    """P(Y1 <= tau1, Y2 <= tau2) for a bivariate normal, by quadrature of
    phi(z1) * Phi((b - rho z1) / sqrt(1 - rho^2)) over z1 <= a."""
    import numpy as np
    from scipy.special import ndtr

    sd = np.sqrt(np.diag(cov))
    a, b = (np.asarray(tau) - mean) / sd
    rho = cov[0, 1] / (sd[0] * sd[1])
    z = np.linspace(-12.0, max(a, -12.0), 200_001)
    f = np.exp(-0.5 * z**2) / math.sqrt(2 * math.pi) * ndtr((b - rho * z) / math.sqrt(1 - rho**2))
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(z)))


def mc_tail(p_hat: float, n: int, exact: float) -> float:
    """Probability, under the exact probability, of a count at least as far
    out as the one observed: the smaller binomial tail at k = p_hat * n."""
    from scipy.stats import binom

    k = round(p_hat * n)
    exact = min(max(exact, 0.0), 1.0)
    return float(min(binom.cdf(k, n, exact), binom.sf(k - 1, n, exact)))


def _mc_problem(ctx: Context, x, tau, estimate) -> str | None:
    """The estimate must be a count the exact probability makes plausible:
    fail below a binomial tail of MC_TAIL_LIMIT."""
    from rsmopt.fit import covariance_at, predict

    key = tuple(x)
    if key not in ctx.cache:
        ctx.cache[key] = normal_cdf_2d(predict(ctx.model, x), covariance_at(ctx.model, x), tau)
    exact = ctx.cache[key]
    p_hat, std_err = estimate
    if not 0 <= p_hat <= 1 or std_err < 0 or mc_tail(p_hat, MC_DRAWS, exact) < MC_TAIL_LIMIT:
        return f"P = {p_hat} (se {std_err}), exact {exact:.3g}"
    return None


def check_grid_oracle(ctx: Context, ops) -> tuple[int, int, list[str]]:
    import numpy as np

    ref = ctx.reference["grid-oracle"]["methods"]
    problems = []
    for name, outcome in ops:
        kind, _, method = name.partition(":")
        if isinstance(outcome, Exception) or (
                kind == "mc" and isinstance(outcome[2], Exception)):
            exc = outcome if isinstance(outcome, Exception) else outcome[2]
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        if kind == "grid":
            want = ref[method]["F"]
            if not outcome.converged:
                bad = "did not converge"
            elif abs(outcome.f_star - want) > GRID_F_RTOL * max(1.0, abs(want)):
                bad = f"F {outcome.f_star!r} != {want!r}"
            elif not ctx.config.region.contains(outcome.x_star, atol=1e-9):
                bad = "x* outside the region"
            else:
                bad = None
        elif kind == "pareto":
            bad = _front_problem(ctx, outcome)
        else:
            bad = _mc_problem(ctx, *outcome)
        if bad:
            problems.append(f"{name}: {bad}")
    return len(ops), len(problems), problems


WORKLOADS = {
    "example-report": (example_report_pass, check_example_report, warm_report),
    "grid-oracle": (grid_oracle_pass, check_grid_oracle, warm_oracle),
}


# --- metrics --------------------------------------------------------------

class Spans:
    """Numpy view of a tracer's spans with name lookups."""

    def __init__(self, tracer) -> None:
        from spans import self_times

        self.a = tracer.arrays()
        self.names = tracer.names
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.dur = self.a["end"] - self.a["start"]
        self.self_s = self_times(self.a["parent"], self.dur)

    def is_(self, name: str):
        return self.a["name"] == self.ids.get(name, -2)

    def parent_is(self, name: str):
        parent = self.a["parent"]
        has = parent >= 0
        out = has.copy()
        out[has] = self.a["name"][parent[has]] == self.ids.get(name, -2)
        return out

    def label(self, i: int) -> str:
        return self.names[self.a["label"][i]]


def end_to_end(s: Spans, groups: list[int], setup: list[dict]) -> tuple[dict, dict]:
    """End-to-end values over the passes in ``groups``. A method solve is a
    ``cli.optimize_method`` call on the report workload and one of the
    pass's own grid_search calls on the oracle."""
    import numpy as np

    counted = np.isin(s.a["group"], groups)
    passes = s.dur[s.is_("pass") & counted]
    per_method: dict[str, list[float]] = {}
    solve_spans = s.is_("cli.optimize_method") | s.is_("oracle.grid_search")
    for i in np.flatnonzero(solve_spans & counted):
        per_method.setdefault(s.label(i), []).append(float(s.dur[i]))
    solves = [t for ts in per_method.values() for t in ts]
    worst = max(per_method, key=lambda m: statistics.median(per_method[m]))
    values = {
        "setup_s": statistics.median(x["setup_s"] for x in setup),
        "pass_s": statistics.median(passes),
        "optimize_s.p50": statistics.median(solves),
        "optimize_s.worst": statistics.median(per_method[worst]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "setup_s": len(setup),
        "pass_s": [round(float(t), 3) for t in passes],
        "optimize_s.p50": len(solves),
        "optimize_s.worst": f"{len(per_method[worst])} ({worst})",
    }
    return values, samples


def layers_of_pass(s: Spans, group: int, methods: list[str]) -> dict:
    """Per-layer metrics of one traced pass."""
    import numpy as np

    g = s.a["group"] == group
    dur, self_s, count, value, ok = (s.dur, s.self_s, s.a["count"],
                                     s.a["value"], s.a["ok"])

    def n(mask):
        return int(np.count_nonzero(mask & g))

    def total(x, mask):
        return float(x[mask & g].sum())

    out = {}
    report = s.is_("cli.build_report")
    out["cli.report_self_s"] = total(self_s, report)
    out["cli.render_s"] = total(dur, s.is_("cli.report_markdown"))

    basis = s.is_("fit.evaluate_basis")
    out["model.basis_calls"] = n(basis)
    out["model.basis_s"] = total(dur, basis)
    out["model.basis_us_per_call"] = 1e6 * out["model.basis_s"] / max(n(basis), 1)

    moments = s.is_("programs.predict") | s.is_("programs.unit_variance")
    out["fit.moments_calls"] = n(moments)
    out["fit.moments_self_s"] = total(self_s, moments)

    objective, constraint = s.is_("programs.objective"), s.is_("programs.constraint")
    out["programs.objective_calls"] = n(objective)
    out["programs.constraint_calls"] = n(constraint)
    out["programs.points"] = int(count[(objective | constraint) & g].sum())
    out["programs.self_s"] = total(self_s, objective | constraint)
    mc = s.is_("programs.joint_probability_mc")
    out["programs.mc_s"] = total(dur, mc)
    out["programs.mc_draws_per_s"] = (
        int(count[mc & g].sum()) / out["programs.mc_s"] if n(mc) else 0.0)

    multistart = s.is_("cli.multistart")
    for m in methods:
        mask = multistart & g & (s.a["label"] == s.ids.get(m, -2))
        out[f"solve.multistart_s.{m}"] = float(dur[mask].sum())
        out[f"solve.nfev.{m}"] = int(count[mask].sum())

    grid = s.is_("solve.grid_search")
    coarse = grid & s.parent_is("cli.multistart")
    out["solve.coarse_grid_s"] = total(dur, coarse)
    out["solve.coarse_grid_nodes"] = int(count[coarse & g].sum())

    nm = s.is_("solve.nelder_mead")
    local = (nm | s.is_("solve.penalty_solve")) & s.parent_is("cli.multistart") & g
    out["solve.local_solves"] = int(np.count_nonzero(local))
    out["solve.penalty_stages"] = n(nm & s.parent_is("solve.penalty_solve"))
    out["solve.nm_self_s"] = total(self_s, nm)
    out["solve.nfev_max_start"] = int(count[local].max()) if local.any() else 0
    if local.any():
        best = value[s.a["parent"][local]]
        out["solve.local_converged_frac"] = float(ok[local].mean())
        out["solve.starts_at_best_frac"] = float(np.mean(np.abs(value[local] - best) <= 1e-6))
    else:
        out["solve.local_converged_frac"] = out["solve.starts_at_best_frac"] = 0.0

    oracle = s.is_("oracle.grid_search")
    out["solve.grid_s"] = total(dur, oracle)
    out["solve.grid_nodes"] = int(count[oracle & g].sum())
    out["solve.grid_ns_per_node"] = 1e9 * out["solve.grid_s"] / max(out["solve.grid_nodes"], 1)
    pareto = s.is_("solve.pareto_front")
    out["solve.pareto_s"] = total(dur, pareto)
    out["solve.pareto_candidates"] = int(count[pareto & g].sum())
    out["solve.pareto_front_size"] = int(np.nansum(value[pareto & g]))
    return out


def per_layer(s: Spans, fine_groups: list[int], plain_groups: list[int],
              methods: list[str], setup: list[dict],
              units: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer values (medians over traced passes), the deterministic
    counters among them, and any counter that differs between passes."""
    import numpy as np

    by_pass = [layers_of_pass(s, g, methods) for g in fine_groups]
    out, counters, problems = {}, {}, []
    for name in by_pass[0]:
        vals = [p[name] for p in by_pass]
        if units.get(name) in ("count", "ratio"):
            if len(set(vals)) != 1:
                problems.append(f"counter {name} differs between passes: {vals}")
            out[name] = counters[name] = vals[0]
        else:
            out[name] = statistics.median(vals)
    for name in ("cli.import_s", "cli.load_config_s", "cli.ingest_s",
                 "model.design_matrix_s", "fit.fit_ols_s"):
        out[name] = statistics.median(x[name] for x in setup)
    pass_dur = s.dur[s.is_("pass")]
    group_of_pass = s.a["group"][s.is_("pass")]
    traced = statistics.median(pass_dur[np.isin(group_of_pass, fine_groups)])
    plain = statistics.median(pass_dur[np.isin(group_of_pass, plain_groups)])
    out["trace.overhead_frac"] = traced / plain - 1
    return out, counters, problems


def source_digest() -> str:
    """Hash of everything that decides the work of a pass: rsmopt's source,
    the example inputs and the benchmark's own workload code."""
    digest = hashlib.sha256()
    files = sorted(p for p in (SRC / "rsmopt").rglob("*.py"))
    files += [EXAMPLE_CONFIG, EXAMPLE_DATA, BENCH / "run.py", BENCH / "spans.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_counters(workload: str, seed: int, counters: dict,
                   digest: str) -> list[str]:
    """Counters must also match an earlier traced run with the same seed on
    the same source; a run on changed source starts a file of its own."""
    path = WORK / f"counters-{workload}-seed{seed}-{digest}.json"
    if path.exists():
        before = json.loads(path.read_text())
        differ = sorted(k for k in counters if before.get(k) != counters[k])
        if differ:
            return [f"counters differ from an earlier run with seed {seed}: {differ}"]
        return []
    path.write_text(json.dumps(counters, indent=1, sort_keys=True) + "\n")
    return []


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


# --- main loop ------------------------------------------------------------

def measure(workload: str, ctx: Context, tracer, deadline: float, trace: bool):
    """Warm up, then make passes until the next one would end after
    ``deadline``.

    The warm-up's spans are in group 0, which no metric reads. A traced run
    alternates traced and untraced passes, so both sides of
    trace.overhead_frac are warm and see the same drift of the machine's
    speed, and it makes at least two traced passes, so that counters can be
    compared.
    """
    from spans import instrumented

    run_pass, check, warm_up = WORKLOADS[workload]
    tracer.group_id = 0
    warm_up(ctx, tracer)
    attempted = failed = 0
    problems: list[str] = []
    fine_groups, plain_groups = [], []
    group = 1
    while True:
        fine = trace and group % 2 == 1
        tracer.group_id = group
        start = perf_counter()
        with instrumented(tracer, fine), tracer.span("pass"):
            out = run_pass(ctx, tracer, fine)
        took = perf_counter() - start
        a, f, p = check(ctx, out)
        attempted, failed = attempted + a, failed + f
        problems += [f"pass {group}: {msg}" for msg in p]
        (fine_groups if fine else plain_groups).append(group)
        group += 1
        enough = len(plain_groups) >= 1 and len(fine_groups) >= (2 if trace else 0)
        if enough and perf_counter() + took > deadline:
            return attempted, failed, problems, fine_groups, plain_groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, set before numpy loads here and in the set-up probes:
    # the largest product is a 1e6 x 7 block times 7 x 2, which a second
    # thread on two shared cores does not speed up, only makes noisier.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    for path in (SRC / "rsmopt" / "__init__.py", EXAMPLE_CONFIG, EXAMPLE_DATA,
                 ROOT / "BENCHMARK.json"):
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}; run from a checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    sys.path.insert(0, str(SRC))
    import rsmopt
    from spans import Tracer

    if not Path(rsmopt.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported rsmopt from {rsmopt.__file__}, not from src/")

    t0 = perf_counter()
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    config_path = make_inputs(workdir, args.seed)
    ctx = Context(config_path, args.seed)
    setup = probe_setup(config_path)

    tracer = Tracer()
    attempted, failed, problems, fine_groups, plain_groups = measure(
        args.workload, ctx, tracer, t0 + args.seconds, bool(args.trace))
    s = Spans(tracer)
    detail = {"workload": args.workload, "seed": args.seed, "environment": environment(),
              "fail_frac": f"{failed}/{attempted}"}
    if args.trace:
        methods = [m.name for m in ctx.config.methods]
        values, counters, counter_problems = per_layer(
            s, fine_groups, plain_groups, methods, setup, units)
        problems += counter_problems
        problems += check_counters(args.workload, args.seed, counters, source_digest())
        tracer.save(workdir / "spans.npz", workload=args.workload, seed=args.seed,
                    traced_groups=fine_groups)
        detail["spans"] = str((workdir / "spans.npz").relative_to(ROOT))
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        values, detail["samples"] = end_to_end(s, plain_groups, setup)
        wanted = [m["name"] for m in spec["end_to_end"]]
    missing = [name for name in wanted if name not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in wanted}

    for msg in problems:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(detail))
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
