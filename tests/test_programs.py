import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmopt import cli, fit, solve
from rsmopt.cli import build_program
from rsmopt.fit import FittedModel, predict, unit_variance
from rsmopt.model import Region, TermSpec
from rsmopt.programs import (
    METHODS,
    MethodConfig,
    ScalarProgram,
    goal_deviations,
    goal_programming,
    joint_probability_mc,
    kataoka_epsilon,
    kataoka_terms,
    kataoka_weighting,
    mean_weighting,
    modified_e_epsilon,
    modified_e_weighting,
    normal_quantile,
    p_model_epsilon,
    p_model_terms,
    p_model_weighting,
    v_model,
)

from conftest import TAU, WEIGHTS


def std_normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def quantile_by_bisection(p: float) -> float:
    """Independent inverse CDF: bisection on erf, no scipy involved."""
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def synthetic_model(b_hat, sigma_hat, xtx_inv_diag, n=1):
    """Hand-built model for tests that need exact control of every matrix."""
    b_hat = np.atleast_2d(np.asarray(b_hat, dtype=float))
    p = b_hat.shape[0]
    terms = TermSpec(n=n, terms=tuple([()] + [(i,) for i in range(n)])[:p])
    return FittedModel(
        terms=terms,
        b_hat=b_hat,
        sigma_hat=np.asarray(sigma_hat, dtype=float),
        xtx_inv=np.diag(xtx_inv_diag),
        residuals=np.zeros((p + 1, b_hat.shape[1])),
        n_obs=p + 1,
    )


class TestMethodConfig:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            MethodConfig(w=[0.5, 0.6])
        with pytest.raises(ValueError):
            MethodConfig(w=[-0.1, 1.1])

    def test_rejects_bad_confidence(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                MethodConfig(confidence=bad)

    def test_rejects_bad_mixing(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"r1 must lie in \[0, 1\]"):
                MethodConfig(r1=bad)

    @pytest.mark.parametrize("field", ["confidence", "r1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_scalar(self, field, bad):
        """NaN compares false, so a range check alone lets it through."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            MethodConfig(**{field: bad})

    @pytest.mark.parametrize("name", sorted(name for name, (_, reads) in METHODS.items()
                                            if reads))
    @pytest.mark.parametrize("field, value, message", [
        ("tau", [103.0], "tau must have one entry per response (2), got [103.0]"),
        ("tau", [103.0, 73.0, 1.0], "tau must have one entry per response (2)"),
        ("w", [1.0], "w must have one entry per response (2), got [1.0]"),
        ("w", [0.2, 0.3, 0.5], "w must have one entry per response (2)"),
        ("epsilon", [0.5], "epsilon must have one entry per response (2)"),
        ("epsilon", [0.5, 0.0, 0.0], "epsilon must have one entry per response (2)"),
        ("primary", 0, "primary must be an integer >= 1, got 0"),
        ("primary", 3, "primary must be a response number in 1..2, got 3"),
    ])
    def test_constructor_rejects_a_config_that_does_not_fit_the_model(
            self, example_model, name, field, value, message):
        """Every constructor checks the per-response fields against r; a
        short tau or w is not broadcast over the responses."""
        cfg = MethodConfig(tau=TAU, w=WEIGHTS, primary=2, epsilon=[3.9753, 0.0])
        METHODS[name][0](example_model, cfg)
        with pytest.raises(ValueError) as info:
            METHODS[name][0](example_model, dataclasses.replace(cfg, **{field: value}))
        assert message in str(info.value)

    def test_v_model_reads_no_field(self, example_model):
        """The one constructor that reads no field checks none: it scores
        the same N*q for a config whose fields do not fit the model."""
        cfg = MethodConfig(tau=[103.0], w=[1.0], primary=3, epsilon=[0.5, 0.0, 0.0])
        x = np.random.default_rng(1).uniform(-1, 1, size=(20, 3))
        assert np.array_equal(v_model(example_model, cfg).score(x)[0],
                              v_model(example_model).score(x)[0])

    @pytest.mark.parametrize("name", sorted(METHODS))
    def test_table_constructor_builds_the_program_of_its_name(self, example_model, name):
        cfg = MethodConfig(tau=TAU, w=WEIGHTS, primary=2, epsilon=[3.9753, 0.0])
        assert METHODS[name][0](example_model, cfg).descriptor == name


class TestVModel:
    def test_scaled_minimum_value(self, example_model):
        """N*q is 1 at the centre of the example's orthogonal design, where
        q itself is 1/N = 1/32."""
        prog = v_model(example_model)
        assert example_model.n_obs == 32
        assert float(prog.objective(np.zeros(3))) == pytest.approx(1.0)
        assert float(unit_variance(example_model, np.zeros(3))) == pytest.approx(0.03125)

    def test_corner_value(self, example_model):
        prog = v_model(example_model)
        assert float(prog.objective(np.ones(3))) == pytest.approx(7.0)


class TestMeanWeighting:
    def test_single_weight_is_first_response(self, example_model):
        prog = mean_weighting(example_model, MethodConfig(w=[1.0, 0.0]))
        assert float(prog.objective(np.zeros(3))) == pytest.approx(104.86, abs=0.01)

    def test_paper_weights_at_kataoka_point(self, example_model):
        prog = mean_weighting(example_model, MethodConfig(w=WEIGHTS))
        assert float(prog.objective(np.array([1, -1, 1]))) == pytest.approx(
            74.99, abs=0.02
        )

    def test_antisymmetric_responses_cancel(self):
        model = synthetic_model([[2.0, -2.0], [1.0, -1.0]], np.eye(2), [0.1, 0.1])
        prog = mean_weighting(model, MethodConfig(w=[0.5, 0.5]))
        for x in ([0.3], [-0.8], [0.0]):
            assert float(prog.objective(np.array(x))) == pytest.approx(0.0)


class TestModifiedE:
    def test_weighting_at_reported_point(self, example_model):
        cfg = MethodConfig(w=WEIGHTS, r1=0.5)
        prog = modified_e_weighting(example_model, cfg)
        x = np.array([0.522, -1.0, 0.108])
        assert float(prog.objective(x)) == pytest.approx(39.59, abs=0.02)

    def test_r1_one_reduces_to_mean_weighting(self, example_model):
        cfg = MethodConfig(w=WEIGHTS, r1=1.0)
        prog = modified_e_weighting(example_model, cfg)
        base = mean_weighting(example_model, MethodConfig(w=WEIGHTS))
        rng = np.random.default_rng(5)
        for x in rng.uniform(-1, 1, size=(10, 3)):
            assert float(prog.objective(x)) == pytest.approx(
                float(base.objective(x))
            )

    def test_epsilon_feasible_at_origin_targets(self, example_model):
        tau0 = predict(example_model, np.zeros(3))
        prog = modified_e_epsilon(example_model, MethodConfig(tau=tau0))
        assert all(
            abs(float(c(np.zeros(3)))) < 1e-12 for c in prog.eq_constraints
        )
        assert float(prog.objective(np.zeros(3))) == pytest.approx(1.0)

    def test_epsilon_residuals_at_paper_point(self, example_model):
        prog = modified_e_epsilon(example_model, MethodConfig(tau=TAU))
        x = np.array([1.0, 0.707, 0.452])
        assert float(prog.objective(x)) == pytest.approx(3.511, abs=0.02)
        assert max(abs(float(c(x))) for c in prog.eq_constraints) <= 0.05


class TestPModel:
    def test_terms_at_origin(self, example_model):
        got = p_model_terms(example_model, TAU, np.zeros(3))
        assert got == pytest.approx([-5.15, 6.67], abs=0.02)

    def test_term_vanishes_at_target(self, example_model):
        x = np.array([0.2, -0.4, 0.6])
        tau = predict(example_model, x)
        assert p_model_terms(example_model, tau, x) == pytest.approx([0.0, 0.0])

    def test_weighting_at_reported_point(self, example_model):
        prog = p_model_weighting(example_model, MethodConfig(tau=TAU, w=WEIGHTS))
        x = np.array([-0.349, 1.0, 0.548])
        assert float(prog.objective(x)) == pytest.approx(-2.672, abs=0.02)

    def test_unit_weight_equals_component(self, example_model):
        prog = p_model_weighting(
            example_model, MethodConfig(tau=TAU, w=[1.0, 0.0])
        )
        rng = np.random.default_rng(9)
        for x in rng.uniform(-1, 1, size=(20, 3)):
            assert float(prog.objective(x)) == pytest.approx(
                float(p_model_terms(example_model, TAU, x)[0])
            )

    def test_epsilon_objective_at_reported_point(self, example_model):
        cfg = MethodConfig(tau=TAU, primary=2, epsilon=[3.9753, 0.0])
        prog = p_model_epsilon(example_model, cfg)
        x = np.array([0.910, -0.658, 0.0])
        # independent recomputation: (73 - 67.577) / 0.618
        assert float(prog.objective(x)) == pytest.approx(8.77, abs=0.05)

    def test_epsilon_feasible_by_construction(self, example_model):
        x0 = np.array([0.1, 0.2, -0.3])
        eps = p_model_terms(example_model, TAU, x0)
        cfg = MethodConfig(tau=TAU, primary=2, epsilon=eps)
        prog = p_model_epsilon(example_model, cfg)
        assert all(abs(float(c(x0))) < 1e-12 for c in prog.eq_constraints)

    def test_zero_variance_errors(self):
        model = synthetic_model([[1.0]], [[0.0]], [0.5])
        with pytest.raises(ValueError, match="zero prediction variance"):
            p_model_terms(model, [1.0], np.zeros(1))


class TestKataoka:
    def test_median_confidence_equals_mean(self, example_model):
        cfg = MethodConfig(confidence=0.5)
        x = np.array([0.3, -0.7, 0.1])
        assert kataoka_terms(example_model, cfg, x) == pytest.approx(
            predict(example_model, x).tolist()
        )

    def test_constraint_term_at_reported_point(self, example_model):
        cfg = MethodConfig(confidence=0.95)
        got = kataoka_terms(example_model, cfg, np.array([0.541, -1.0, 0.851]))
        assert got[0] == pytest.approx(103.0, abs=0.05)

    def test_terms_at_corner(self, example_model):
        cfg = MethodConfig(confidence=0.95)
        got = kataoka_terms(example_model, cfg, np.array([1.0, -1.0, 1.0]))
        assert got == pytest.approx([100.61, 67.07], abs=0.05)

    def test_weighting_single_response_at_origin(self, example_model):
        cfg = MethodConfig(w=[1.0, 0.0], confidence=0.95)
        prog = kataoka_weighting(example_model, cfg)
        assert float(prog.objective(np.zeros(3))) == pytest.approx(105.455, abs=0.01)

    def test_monotone_in_confidence(self, example_model):
        x = np.array([0.4, 0.4, -0.2])
        levels = [0.5, 0.7, 0.9, 0.95, 0.99]
        vals = [
            kataoka_terms(example_model, MethodConfig(confidence=c), x)
            for c in levels
        ]
        for lo, hi in zip(vals, vals[1:]):
            assert np.all(hi > lo)

    def test_epsilon_constraint_residual_at_reported_point(self, example_model):
        cfg = MethodConfig(tau=TAU, primary=2, confidence=0.95)
        prog = kataoka_epsilon(example_model, cfg)
        x = np.array([0.541, -1.0, 0.851])
        (constraint,) = prog.eq_constraints
        assert abs(float(constraint(x))) <= 0.02
        assert float(prog.objective(x)) == pytest.approx(67.296, abs=0.05)


class TestGoalProgramming:
    def test_zero_deviation_at_targets(self, example_model):
        x = np.array([0.2, 0.5, -0.1])
        cfg = MethodConfig(tau=predict(example_model, x), w=WEIGHTS, confidence=0.5)
        dev = goal_deviations(example_model, cfg, x)
        assert np.allclose(dev.d_plus, 0.0) and np.allclose(dev.d_minus, 0.0)

    def test_reported_point_deviations(self, example_model):
        cfg = MethodConfig(tau=TAU, w=WEIGHTS, confidence=0.5)
        dev = goal_deviations(example_model, cfg, np.array([0.844, 0.605, 1.0]))
        assert dev.d_minus == pytest.approx([0.22, 0.22], abs=0.05)
        prog = goal_programming(example_model, cfg)
        assert float(prog.objective(np.array([0.844, 0.605, 1.0]))) == pytest.approx(
            0.22, abs=0.05
        )

    @settings(max_examples=50, deadline=None)
    @given(
        x=st.lists(st.floats(-1, 1), min_size=3, max_size=3),
        conf=st.floats(0.05, 0.95),
    )
    def test_deviation_identities(self, example_model, x, conf):
        cfg = MethodConfig(tau=TAU, w=WEIGHTS, confidence=conf)
        x = np.array(x)
        dev = goal_deviations(example_model, cfg, x)
        diff = kataoka_terms(example_model, cfg, x) - TAU
        assert np.allclose(dev.d_plus - dev.d_minus, diff, atol=1e-12)
        assert np.allclose(dev.d_plus * dev.d_minus, 0.0, atol=1e-12)

    def test_objective_equals_weighted_deviation_sum(self, example_model):
        cfg = MethodConfig(tau=TAU, w=WEIGHTS, confidence=0.8)
        prog = goal_programming(example_model, cfg)
        rng = np.random.default_rng(17)
        for x in rng.uniform(-1, 1, size=(25, 3)):
            dev = goal_deviations(example_model, cfg, x)
            assert float(prog.objective(x)) == pytest.approx(
                float(WEIGHTS @ (dev.d_plus + dev.d_minus))
            )

    def test_unreachable_targets_stay_positive(self, example_model):
        cfg = MethodConfig(tau=[200.0, 200.0], w=WEIGHTS, confidence=0.5)
        prog = goal_programming(example_model, cfg)
        rng = np.random.default_rng(23)
        for x in rng.uniform(-1, 1, size=(10, 3)):
            expected = WEIGHTS @ (np.array([200.0, 200.0]) - predict(example_model, x))
            assert float(prog.objective(x)) == pytest.approx(float(expected))
            assert float(prog.objective(x)) > 0


def reference_program(name, model, cfg):
    """(objective, constraints) of a method as separate callables, each of
    which evaluates the model on its own: the per-callable formulas the
    programs were built from before each method became one score function."""
    scale, tau, w = model.n_obs, cfg.tau, cfg.w

    def variance(x):
        return scale * np.asarray(unit_variance(model, x))

    def epsilon(terms, targets):
        k_star = cfg.primary - 1
        return (lambda x: terms(x)[..., k_star]), tuple(
            (lambda x, k=k: terms(x)[..., k] - targets[k])
            for k in range(model.r) if k != k_star)

    def p_terms(x):
        return p_model_terms(model, tau, x)

    def k_terms(x):
        return kataoka_terms(model, cfg, x)

    if name == "v-model":
        return variance, ()
    if name == "mean-weighting":
        return (lambda x: predict(model, x) @ w), ()
    if name == "modified-e-weighting":
        return (lambda x: cfg.r1 * (predict(model, x) @ w)
                + (1.0 - cfg.r1) * scale * unit_variance(model, x)), ()
    if name == "modified-e-epsilon":
        return variance, tuple((lambda x, k=k: predict(model, x)[..., k] - tau[k])
                               for k in range(model.r))
    if name == "p-model-weighting":
        return (lambda x: p_terms(x) @ w), ()
    if name == "p-model-epsilon":
        return epsilon(p_terms, cfg.epsilon)
    if name == "kataoka-weighting":
        return (lambda x: k_terms(x) @ w), ()
    if name == "kataoka-epsilon":
        return epsilon(k_terms, tau)
    if name == "goal-programming":
        return (lambda x: np.abs(k_terms(x) - tau) @ w), ()
    raise KeyError(name)


def quadratic_model_r3() -> FittedModel:
    """Full second-order model in three factors with three responses."""
    terms = TermSpec.full_second_order(3)
    p, r = terms.p, 3
    rng = np.random.default_rng(2011)
    a = rng.standard_normal((p, p))
    s = rng.standard_normal((r, r))
    return FittedModel(
        terms=terms,
        b_hat=rng.standard_normal((p, r)) * 10.0,
        sigma_hat=s @ s.T + 0.1 * np.eye(r),
        xtx_inv=a @ a.T / p + 0.01 * np.eye(p),
        residuals=np.zeros((p + 1, r)),
        n_obs=p + 1,
    )


# every field any of the eight methods reads, for the three-response model
R3_CONFIG = MethodConfig(tau=[1.0, -2.0, 3.0], w=[0.2, 0.3, 0.5], confidence=0.9,
                         r1=0.3, primary=2,
                         epsilon=[0.5, 0.0, -0.5])
R3_MODEL = quadratic_model_r3()


class TestVarianceScale:
    """The v-model and both modified E-models score the variance as N*q(x),
    N the model's observation count, whatever N is."""

    @pytest.mark.parametrize("which", ["r3", "synthetic"])
    def test_variance_term_is_n_obs_times_q(self, which):
        model = (R3_MODEL if which == "r3" else
                 synthetic_model([[2.0, -2.0], [1.0, -1.0]], np.eye(2), [0.1, 0.3]))
        assert model.n_obs == {"r3": 11, "synthetic": 3}[which]
        x = np.random.default_rng(3).uniform(-1, 1, size=(50, model.n))
        m, q = fit.moments(model, x)
        w, tau = np.full(model.r, 1.0 / model.r), m[7]

        f, g = v_model(model).score(x)
        assert np.array_equal(f, model.n_obs * q) and g == ()
        f, g = modified_e_epsilon(model, MethodConfig(tau=tau)).score(x)
        assert np.array_equal(f, model.n_obs * q)
        assert all(np.array_equal(g[k], m[:, k] - tau[k]) for k in range(model.r))
        for r1 in (0.0, 0.3):
            f, g = modified_e_weighting(model, MethodConfig(w=w, r1=r1)).score(x)
            assert np.array_equal(f, r1 * (m @ w) + (1.0 - r1) * model.n_obs * q)
            assert g == ()


def example_configs(run_config):
    """The example's configured methods, plus mean weighting, which it lacks."""
    cfgs = {m.name: m.config for m in run_config.methods}
    cfgs["mean-weighting"] = MethodConfig(w=WEIGHTS)
    return cfgs


class TestScore:
    @settings(max_examples=100, deadline=None)
    @given(which=st.sampled_from(["example", "r3"]),
           k=st.integers(1, 5), l=st.integers(1, 5),
           batch=st.sampled_from(["()", "(k,)", "(k, l)"]),
           seed=st.integers(0, 2**32 - 1))
    def test_score_matches_per_callable_reference(self, example_model, run_config,
                                                  which, k, l, batch, seed):
        if which == "example":
            model, cfgs = example_model, example_configs(run_config)
        else:
            model, cfgs = R3_MODEL, dict.fromkeys(METHODS, R3_CONFIG)
        shape = {"()": (), "(k,)": (k,), "(k, l)": (k, l)}[batch]
        x = np.random.default_rng(seed).uniform(-1.2, 1.2, size=shape + (model.n,))
        assert set(cfgs) == set(METHODS)
        for name, cfg in cfgs.items():
            program = METHODS[name][0](model, cfg)
            want_f, want_g = reference_program(name, model, cfg)
            f, g = program.score(x)
            assert np.shape(f) == shape
            assert np.allclose(f, want_f(x), rtol=1e-12, atol=0), name
            assert len(g) == len(want_g) == len(program.eq_constraints)
            for got, want, c in zip(g, want_g, program.eq_constraints):
                assert np.shape(got) == shape
                assert np.allclose(got, want(x), rtol=1e-12, atol=0), name
                assert np.array_equal(c(x), got)
            assert np.array_equal(program.objective(x), f)

    @pytest.mark.parametrize("name, per_chunk", [
        ("v-model", 1),
        ("modified-e-weighting", 1),
        ("modified-e-epsilon", 2),
        ("p-model-weighting", 1),
        ("p-model-epsilon", 1),
        ("kataoka-weighting", 1),
        ("kataoka-epsilon", 1),
        ("goal-programming", 1),
    ])
    def test_grid_search_builds_the_basis_once_per_chunk(self, example_model, run_config,
                                                         monkeypatch, name, per_chunk):
        """A program that reads ``moments`` scores the 0.1 grid's 441 rows in
        blocks of 47 (1,000 nodes at r = 2): one basis call per block, at
        the block's leading coordinates with x3 = 1, covering each row once.
        modified-e-epsilon reads m and q through ``predict`` and
        ``unit_variance`` and keeps the point path: two calls per point
        batch, the same 47 rows expanded to points."""
        spec = next(m for m in run_config.methods if m.name == name)
        program = build_program(example_model, spec, run_config.region)
        assert (program.rows is None) == (name == "modified-e-epsilon")
        real = fit.evaluate_basis
        batches = []

        def counting(x, terms):
            if np.ndim(x) > 1:   # blocks; residuals at the winner are one point
                batches.append(np.array(x))
            return real(x, terms)

        monkeypatch.setattr(solve, "GRID_CHUNK", 1000)
        monkeypatch.setattr(solve, "GRID_BLOCK_BYTES", 1000 * 8 * 2)
        monkeypatch.setattr(fit, "evaluate_basis", counting)
        result = solve.grid_search(program, 0.1)
        assert result.evaluations == 21**3
        if program.rows is None:
            sizes = [47 * 21] * 9 + [18 * 21]
            assert [len(b) for b in batches] == [k for k in sizes for _ in range(per_chunk)]
            return
        assert [len(b) for b in batches] == [47] * 9 + [18]
        lead = np.concatenate(batches)
        axis = np.linspace(-1, 1, 21)
        rows = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=-1)
        assert np.array_equal(lead[:, :2], rows)
        assert np.all(lead[:, 2] == 1.0)

    @pytest.mark.parametrize("reader", [
        "report row", "rsmopt eval", "joint_probability_mc", "p_model_terms",
        "kataoka_terms", "goal_deviations",
    ])
    def test_each_point_reader_builds_the_basis_once(self, example_model, monkeypatch,
                                                     tmp_path, reader):
        x = np.array([0.25, -0.5, 0.75])
        cfg = MethodConfig(tau=TAU, w=WEIGHTS)
        model_path = tmp_path / "model.json"
        cli.save_model(example_model, model_path)
        calls = {
            "report row": lambda: cli._row_from_x(example_model, "point", x),
            "rsmopt eval": lambda: cli.main(["eval", "--model", str(model_path),
                                             "--x", "0.25,-0.5,0.75",
                                             "--out", str(tmp_path / "eval.json")]),
            "joint_probability_mc": lambda: joint_probability_mc(example_model, x, TAU,
                                                                 1000, seed=0),
            "p_model_terms": lambda: p_model_terms(example_model, TAU, x),
            "kataoka_terms": lambda: kataoka_terms(example_model, cfg, x),
            "goal_deviations": lambda: goal_deviations(example_model, cfg, x),
        }
        real = fit.evaluate_basis
        points = []

        def counting(x, terms):
            points.append(np.asarray(x).tolist())
            return real(x, terms)

        monkeypatch.setattr(fit, "evaluate_basis", counting)
        calls[reader]()
        assert points == [x.tolist()]

    def test_hand_built_program_scores_from_its_callables(self):
        program = ScalarProgram(
            objective=lambda x: np.sum(x**2, axis=-1),
            eq_constraints=(lambda x: x[..., 0] - 0.5,),
            region=Region.unit_cube(2),
            descriptor="hand-built",
        )
        x = np.array([[0.5, 0.0], [1.0, 1.0]])
        f, (g,) = program.score(x)
        assert f.tolist() == [0.25, 2.0] and g.tolist() == [0.0, 0.5]
        shifted = dataclasses.replace(program, objective=lambda x: x[..., 1])
        assert shifted.score(x)[0].tolist() == [0.0, 1.0]
        assert solve.grid_search(program, 0.5).x_star.tolist() == [0.5, 0.0]


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    @pytest.mark.parametrize("p, expected", [(0.95, 1.6449), (0.975, 1.9600)])
    def test_table_values(self, p, expected):
        assert normal_quantile(p) == pytest.approx(expected, abs=5e-4)
        assert normal_quantile(p) == pytest.approx(quantile_by_bisection(p), abs=1e-9)

    def test_odd_symmetry(self):
        for p in (0.6, 0.75, 0.9, 0.99):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1 - p))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            normal_quantile(bad)

    def test_matches_scipy_ndtri(self):
        """The standard library's inverse CDF against scipy's, the reference
        imported only here."""
        from scipy.special import ndtri

        probs = np.append(np.linspace(1e-6, 1 - 1e-6, 10_001), [0.5, 0.95, 0.975])
        got = np.array([normal_quantile(p) for p in probs])
        assert np.max(np.abs(got - ndtri(probs))) <= 4e-15
        assert normal_quantile(0.5) == ndtri(0.5) == 0.0


def reference_mc(model, x, tau, n_samples, seed):
    """The estimator as one expression over all draws, as it was written
    before its hits were counted one response column at a time."""
    mean, q = fit.moments(model, x)
    root = fit.matrix_sqrt(q * model.sigma_hat)
    draws = mean + np.random.default_rng(seed).standard_normal((n_samples, model.r)) @ root
    p_hat = float(np.mean(np.all(draws <= np.asarray(tau, dtype=float), axis=1)))
    return p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))


class TestJointProbability:
    def test_far_targets_give_one(self, example_model):
        x = np.zeros(3)
        m = predict(example_model, x)
        q = unit_variance(example_model, x)
        s = np.sqrt(np.diag(example_model.sigma_hat) * q)
        est, _ = joint_probability_mc(example_model, x, m + 20 * s, 10_000, seed=1)
        assert est == 1.0

    def test_paper_targets_at_origin_near_zero(self, example_model):
        # bounded above by the marginal P(Y1 <= 103) = Phi(-5.15) ~ 1.2e-7
        est, _ = joint_probability_mc(example_model, np.zeros(3), TAU, 1_000_000, seed=2)
        assert est < 1e-4

    def test_independent_responses_match_marginal_product(self):
        model = synthetic_model(
            [[1.0, -0.5], [0.4, 0.2]], np.diag([2.0, 3.0]), [0.5, 0.5]
        )
        x = np.array([0.6])
        tau = np.array([1.5, 0.3])
        m = predict(model, x)
        s = np.sqrt(np.diag(model.sigma_hat) * unit_variance(model, x))
        expected = std_normal_cdf(float((tau[0] - m[0]) / s[0])) * std_normal_cdf(
            float((tau[1] - m[1]) / s[1])
        )
        est, se = joint_probability_mc(model, x, tau, 100_000, seed=3)
        assert abs(est - expected) <= 3 * max(se, 1e-12)

    def test_single_response_matches_phi(self):
        model = synthetic_model([[0.0], [1.0]], [[1.0]], [1.0, 1.0])
        x = np.array([0.5])
        tau = np.array([1.0])
        s = math.sqrt(float(unit_variance(model, x)))
        expected = std_normal_cdf((1.0 - 0.5) / s)
        est, se = joint_probability_mc(model, x, tau, 100_000, seed=4)
        assert abs(est - expected) <= 3 * se

    def test_sample_floor(self, example_model):
        with pytest.raises(ValueError):
            joint_probability_mc(example_model, np.zeros(3), TAU, 10, seed=0)

    def test_reproducible(self, example_model):
        a = joint_probability_mc(example_model, np.zeros(3), [105.0, 71.0], 5000, seed=9)
        b = joint_probability_mc(example_model, np.zeros(3), [105.0, 71.0], 5000, seed=9)
        assert a == b

    @pytest.mark.parametrize("n_samples", [1000.0, 1e5, "100000", True])
    def test_sample_count_must_be_an_integer(self, example_model, n_samples):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            joint_probability_mc(example_model, np.zeros(3), TAU, n_samples, seed=0)

    @pytest.mark.parametrize("tau", [[103.0], [103.0, 73.0, 80.0], [[103.0, 73.0]], 103.0])
    def test_tau_needs_one_target_per_response(self, example_model, tau):
        with pytest.raises(ValueError, match=r"tau must have shape \(2,\)"):
            joint_probability_mc(example_model, np.zeros(3), tau, 1000, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_tau_must_be_finite(self, example_model, bad):
        with pytest.raises(ValueError, match="tau must be finite"):
            joint_probability_mc(example_model, np.zeros(3), [103.0, bad], 1000, seed=0)

    @pytest.mark.parametrize("x, message", [
        ([np.nan, 0.0, 0.0], "x must be finite"),
        ([0.0, np.inf, 0.0], "x must be finite"),
        ([0.0, 0.0], r"x must have shape \(3,\)"),
        ([[0.0, 0.0, 0.0]], r"x must have shape \(3,\)"),
        ([True, 0.0, 0.0], "x must hold numbers"),
        (["0", 0.0, 0.0], "x must hold numbers"),
    ])
    def test_point_must_be_one_finite_coordinate_per_factor(self, example_model, x,
                                                            message):
        """A NaN point gave (0.0, 0.0): a zero with zero standard error."""
        with pytest.raises(ValueError, match=message):
            joint_probability_mc(example_model, x, TAU, 1000, seed=0)

    @pytest.mark.parametrize("seed", [True, False, -1, 1.5, 1.0, "1", None])
    def test_seed_must_be_an_integer(self, example_model, seed):
        """seed=True ran seed 1."""
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got "):
            joint_probability_mc(example_model, np.zeros(3), TAU, 1000, seed=seed)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_synthetic_models_match_reference_bits(self, r):
        rng = np.random.default_rng(r)
        b_hat = rng.normal(size=(2, r))
        g = rng.normal(size=(r, r))
        model = synthetic_model(b_hat, g @ g.T + 0.1 * np.eye(r), [0.5, 0.8])
        for x in (np.array([-0.7]), np.array([0.0]), np.array([0.4])):
            tau = predict(model, x) + rng.normal(size=r)
            for seed in range(4):
                for n_samples in (1000, 4_097, 50_000):
                    got = joint_probability_mc(model, x, tau, n_samples, seed)
                    assert got == reference_mc(model, x, tau, n_samples, seed)
                    assert all(type(v) is float for v in got)

    def test_example_matches_reference_bits(self, example_model):
        points = [np.zeros(3), np.array([1.0, 0.707, 0.483]), np.array([-1.0, 1.0, 1.0]),
                  np.array([1.0, -1.0, 1.0]), np.array([0.25, -0.5, 0.75])]
        for x in points:
            for seed in range(6):
                got = joint_probability_mc(example_model, x, TAU, 100_000, seed)
                assert got == reference_mc(example_model, x, TAU, 100_000, seed)
