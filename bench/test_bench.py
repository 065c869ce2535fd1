"""Tests of the benchmark's own machinery: spans, self time, inputs and checks.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import math

import numpy as np
import pytest

import run
from spans import Tracer, instrumented, self_times


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    config_path = run.make_inputs(tmp_path_factory.mktemp("inputs"), seed=3)
    return run.Context(config_path, seed=3)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 3.0, 1.0, 4.0])
    assert self_times(parent, duration).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_spans_nest_and_failed_calls_are_closed():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    inner = tracer.wrap("inner", lambda: 7, info=lambda args, out: (out, 1.5, True))
    failing = tracer.wrap("failing", boom)
    with tracer.span("outer") as record:
        assert inner() == 7
        with pytest.raises(KeyError):
            failing()
        record["count"] = 2
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    assert names == ["outer", "inner", "failing"]
    assert a["parent"].tolist() == [-1, 0, 0]
    assert a["count"].tolist() == [2, 7, 0]
    assert a["ok"].tolist() == [1, 1, 0]
    assert a["value"][1] == 1.5 and math.isnan(a["value"][0])
    assert np.all(a["end"] >= a["start"])


def test_instrumented_records_layers_and_restores_bindings(ctx):
    from rsmopt import cli, fit, programs, solve

    before = [cli.multistart, cli.optimize_method, fit.evaluate_basis,
              programs.predict, programs.unit_variance, solve.grid_search,
              solve.nelder_mead, solve.penalty_solve]
    spec = next(m for m in ctx.config.methods if m.name == "modified-e-epsilon")
    program = cli.build_program(ctx.model, spec, ctx.config.region)
    tracer = Tracer()
    with instrumented(tracer, fine=True):
        result = cli.multistart(program, k=1, seed=0)
    after = [cli.multistart, cli.optimize_method, fit.evaluate_basis,
             programs.predict, programs.unit_variance, solve.grid_search,
             solve.nelder_mead, solve.penalty_solve]
    assert all(x is y for x, y in zip(before, after))

    s = run.Spans(tracer)
    top = np.flatnonzero(s.is_("cli.multistart"))
    assert top.tolist() == [0] and s.label(0) == "modified-e-epsilon"
    assert s.a["count"][0] == result.evaluations
    local = s.is_("solve.penalty_solve") & s.parent_is("cli.multistart")
    assert np.count_nonzero(local) == 2          # coarse-grid incumbent + one start
    assert np.count_nonzero(s.is_("solve.grid_search") & s.parent_is("cli.multistart")) == 1
    assert np.all(s.parent_is("solve.penalty_solve")[s.is_("solve.nelder_mead")])
    basis = s.is_("fit.evaluate_basis")
    assert np.all((s.parent_is("programs.predict") | s.parent_is("programs.unit_variance"))[basis])
    assert np.count_nonzero(s.is_("programs.constraint")) > 0
    assert np.all(s.self_s >= -1e-6)


def test_inputs_repeat_for_a_seed_and_leave_the_model_unchanged(tmp_path, ctx):
    first = run.make_inputs(tmp_path / "a", seed=5)
    again = run.make_inputs(tmp_path / "b", seed=5)
    other = run.make_inputs(tmp_path / "c", seed=6)
    for name in ("config.json", "data.csv"):
        assert (first.parent / name).read_bytes() == (again.parent / name).read_bytes()
    assert (first.parent / "data.csv").read_bytes() != (other.parent / "data.csv").read_bytes()
    model = run.Context(other, seed=6).model
    assert np.array_equal(model.b_hat, ctx.model.b_hat)
    assert np.array_equal(model.xtx_inv, ctx.model.xtx_inv)


def _reference_report(ctx):
    ref = ctx.reference["example-report"]
    rows = [{"method": name, "x": want["x"], "F": want["F"], "residuals": [],
             "converged": True} for name, want in ref["methods"].items()]
    rows += [dict(row) for row in ref["fixed_points"]]
    return {"rows": rows}, "\n" * (len(rows) + 2)


def test_report_check_accepts_reference_and_flags_a_wrong_optimum(ctx):
    report, text = _reference_report(ctx)
    assert run.check_example_report(ctx, (report, text)) == (8, 0, [])
    report["rows"][2]["F"] += 2 * run.F_TOL
    report["rows"][4]["residuals"] = [2 * run.RESIDUAL_TOL]
    attempted, failed, problems = run.check_example_report(ctx, (report, text))
    assert (attempted, failed) == (8, 2)
    assert problems[0].startswith("modified-e-epsilon: F")


def test_front_check_needs_exactly_the_nondominated_candidates(ctx):
    from rsmopt import solve
    from rsmopt.fit import predict, unit_variance

    w = np.asarray(run.PARETO_WEIGHTS)
    front = solve.pareto_front(
        [lambda x: predict(ctx.model, x) @ w, lambda x: unit_variance(ctx.model, x)],
        ctx.config.region, run.PARETO_RESOLUTION)
    assert run._front_problem(ctx, front) is None
    short = solve.ParetoSet(points=front.points[1:])
    assert "missing" in run._front_problem(ctx, short)
    x_bad = np.zeros(3)
    v_bad = np.array([predict(ctx.model, x_bad) @ w, unit_variance(ctx.model, x_bad)])
    if not any(np.array_equal(x, x_bad) for x, _ in front.points):
        padded = solve.ParetoSet(points=front.points + ((x_bad, v_bad),))
        assert "dominated" in run._front_problem(ctx, padded)


def test_normal_cdf_2d_matches_independent_and_comonotone_cases():
    from scipy.special import ndtr

    mean = np.array([1.0, -2.0])
    tau = np.array([1.5, -2.5])
    cov = np.diag([4.0, 0.25])
    want = ndtr(0.25) * ndtr(-1.0)
    assert abs(run.normal_cdf_2d(mean, cov, tau) - want) < 1e-9
    nearly_one = np.array([[1.0, 0.999], [0.999, 1.0]])
    got = run.normal_cdf_2d(np.zeros(2), nearly_one, np.array([0.3, 0.3]))
    assert ndtr(0.3) ** 2 < got <= ndtr(0.3) + 1e-9


def test_counters_must_repeat_across_passes_and_runs(tmp_path, monkeypatch):
    tracer = Tracer()
    for group, calls in ((0, 5), (1, 2), (2, 3)):
        tracer.group_id = group
        with tracer.span("pass"):
            for _ in range(calls):
                with tracer.span("fit.evaluate_basis"):
                    pass
    setup = [dict.fromkeys(("cli.import_s", "cli.load_config_s", "cli.ingest_s",
                            "model.design_matrix_s", "fit.fit_ols_s"), 1.0)]
    units = {"model.basis_calls": "count"}
    _, counters, problems = run.per_layer(run.Spans(tracer), [1, 2], [0], [], setup, units)
    assert counters["model.basis_calls"] == 2
    assert problems == ["counter model.basis_calls differs between passes: [2, 3]"]

    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.check_counters("w", 1, {"model.basis_calls": 2}, "aa") == []
    assert run.check_counters("w", 1, {"model.basis_calls": 2}, "aa") == []
    assert run.check_counters("w", 2, {"model.basis_calls": 3}, "aa") == []
    assert run.check_counters("w", 1, {"model.basis_calls": 3}, "aa") != []


def test_counters_of_changed_source_start_a_file_of_their_own(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    digest = run.source_digest()
    assert digest == run.source_digest() and len(digest) == 16
    assert run.check_counters("w", 1, {"solve.nfev.x": 100}, digest) == []
    # a change to the solver legitimately changes the work
    assert run.check_counters("w", 1, {"solve.nfev.x": 80}, "0" * 16) == []
    assert len(list(tmp_path.glob("counters-w-seed1-*.json"))) == 2
    assert run.check_counters("w", 1, {"solve.nfev.x": 80}, digest) != []


def test_mc_check_uses_the_binomial_tail_not_a_normal_approximation():
    n = run.MC_DRAWS
    # one hit where 0.012 are expected happens about once in 80 calls
    assert run.mc_tail(1 / n, n, 1.2357e-7) > 0.01
    assert run.mc_tail(5 / n, n, 1.2357e-7) < run.MC_TAIL_LIMIT
    sd = math.sqrt(0.4 * 0.6 / n)
    assert run.mc_tail(0.4 + 3 * sd, n, 0.4) > 1e-4
    assert run.mc_tail(0.4 - 7 * sd, n, 0.4) < run.MC_TAIL_LIMIT
    assert run.mc_tail(1.0, n, 0.999986) > 0.1
