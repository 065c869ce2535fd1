"""End-to-end checks against the published worked example.

One test per criterion; each line of ``pytest -v`` output is one
pass/fail verdict. Reference values are the published coefficients,
covariances, and comparison-table rows for the 8-run, 4-replicate,
2-response experiment shipped in data/.
"""

import math

import numpy as np
import pytest

from conftest import RAW_RUNS, TAU, WEIGHTS
from rsmopt.cli import build_program
from rsmopt.fit import (
    FittedModel,
    covariance_at,
    eigen_sym,
    matrix_criterion,
    matrix_sqrt,
    predict,
    unit_variance,
)
from rsmopt.model import Region, TermSpec, evaluate_basis
from rsmopt.programs import (
    MethodConfig,
    goal_deviations,
    joint_probability_mc,
    kataoka_terms,
    normal_quantile,
    p_model_terms,
)
from rsmopt.solve import grid_search, multistart, pareto_front

REPORTED_B1 = [104.86, -3.147, -0.142, -0.199, 2.379, -0.35, -0.106]
REPORTED_B2 = [70.45, -0.348, 3.59, 0.28, 0.323, -0.45, 0.614]
REPORTED_SIGMA = np.array([[4.190, 3.546], [3.546, 4.666]])


def std_normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@pytest.fixture(scope="module")
def solutions(run_config, example_model):
    """Memoized multistart solution per configured method name."""
    cache = {}

    def solve(name):
        if name not in cache:
            spec = next(m for m in run_config.methods if m.name == name)
            program = build_program(example_model, spec, run_config.region)
            cache[name] = multistart(program, k=run_config.solver.multistart_k)
        return cache[name]

    return solve


@pytest.fixture(scope="module")
def grid_oracle(run_config, example_model):
    """Memoized 0.01-grid oracle result per configured method name."""
    cache = {}

    def solve(name):
        if name not in cache:
            spec = next(m for m in run_config.methods if m.name == name)
            program = build_program(example_model, spec, run_config.region)
            cache[name] = grid_search(program, 0.01)
        return cache[name]

    return solve


def test_01_regression_golden(example_model):
    assert example_model.b_hat[:, 0] == pytest.approx(REPORTED_B1, abs=0.01)
    assert example_model.b_hat[:, 1] == pytest.approx(REPORTED_B2, abs=0.01)
    assert example_model.sigma_hat == pytest.approx(REPORTED_SIGMA, abs=0.002)
    assert np.max(np.abs(example_model.xtx_inv - np.eye(7) / 32)) < 1e-9

    # independent oracle: coefficients as factorial contrast means
    spec = TermSpec.from_names(
        ["1", "x1", "x2", "x3", "x1*x2", "x1*x3", "x2*x3"], 3
    )
    z_rows, y_rows = [], []
    for _, x, y1, y2 in RAW_RUNS:
        z = evaluate_basis(np.array(x, dtype=float), spec)
        for a, b in zip(y1, y2):
            z_rows.append(z)
            y_rows.append((a, b))
    Z, Y = np.array(z_rows), np.array(y_rows)
    contrast = Z.T @ Y / 32.0
    assert contrast[1, 0] == pytest.approx(-3.148, abs=5e-4)
    assert np.max(np.abs(contrast - example_model.b_hat)) < 1e-9


def test_02_variance_columns(example_model):
    corner = covariance_at(example_model, (1, 1, -1))
    assert corner[0, 0] == pytest.approx(0.917, abs=0.002)
    assert corner[1, 1] == pytest.approx(1.021, abs=0.002)
    assert corner[0, 1] == pytest.approx(0.776, abs=0.002)
    origin = covariance_at(example_model, (0, 0, 0))
    assert origin[0, 0] == pytest.approx(0.131, abs=0.001)
    assert origin[1, 1] == pytest.approx(0.1458, abs=0.001)
    assert origin[0, 1] == pytest.approx(0.111, abs=0.001)


def test_03_v_model(solutions):
    res = solutions("v-model")
    assert res.x_star == pytest.approx([0, 0, 0], abs=0.01)
    assert res.f_star == pytest.approx(1.000, abs=0.001)


def test_04_modified_e_weighting(solutions):
    res = solutions("modified-e-weighting")
    assert res.f_star == pytest.approx(39.588, abs=0.05)
    assert res.x_star == pytest.approx([0.522, -1.0, 0.108], abs=0.03)


def test_05_modified_e_epsilon(solutions, example_model):
    res = solutions("modified-e-epsilon")
    assert np.max(res.constraint_residuals) < 5e-3
    assert predict(example_model, res.x_star) == pytest.approx(TAU, abs=0.05)
    assert res.f_star == pytest.approx(3.511, abs=0.02)


def test_06_p_model_weighting(solutions):
    res = solutions("p-model-weighting")
    assert res.f_star == pytest.approx(-2.672, abs=0.03)
    assert res.x_star == pytest.approx([-0.349, 1.0, 0.548], abs=0.06)


def test_07_kataoka_epsilon(solutions, example_model, run_config):
    res = solutions("kataoka-epsilon")
    assert res.f_star == pytest.approx(67.296, abs=0.05)
    cfg = next(m for m in run_config.methods if m.name == "kataoka-epsilon").config
    term1 = kataoka_terms(example_model, cfg, res.x_star)[0]
    assert abs(term1 - 103.0) < 0.02


def test_08_kataoka_weighting_discrepancy(example_model, grid_oracle):
    # the reported objective value at the reported point is the plain
    # weighted mean; the full 0.95-level objective there is larger
    x_rep = np.array([1.0, -1.0, 1.0])
    y_hat = predict(example_model, x_rep)
    assert y_hat == pytest.approx([99.039, 65.405], abs=0.01)
    assert y_hat @ WEIGHTS == pytest.approx(74.99, abs=0.02)
    cfg = MethodConfig(w=WEIGHTS, confidence=0.95)
    full = kataoka_terms(example_model, cfg, x_rep) @ WEIGHTS
    assert full == pytest.approx(76.63, abs=0.05)
    oracle = grid_oracle("kataoka-weighting")
    assert oracle.f_star <= 76.63
    assert oracle.x_star[0] >= 0.95
    assert oracle.x_star[1] <= -0.95


def test_09_goal_programming(solutions, example_model, run_config):
    res = solutions("goal-programming")
    assert res.f_star <= 0.01
    x_rep = np.array([0.844, 0.605, 1.0])
    assert predict(example_model, x_rep) == pytest.approx(
        [102.78, 72.78], abs=0.05
    )
    spec = next(m for m in run_config.methods if m.name == "goal-programming")
    program = build_program(example_model, spec, run_config.region)
    assert float(program.objective(x_rep)) == pytest.approx(0.22, abs=0.05)


def test_10_p_model_epsilon_evaluation(example_model):
    term = p_model_terms(example_model, TAU, np.array([0.910, -0.658, 0.0]))
    assert term[1] == pytest.approx(8.77, abs=0.05)


def test_11a_eigenvalue_scaling(example_model):
    base_vals, _ = eigen_sym(example_model.sigma_hat)
    rng = np.random.default_rng(101)
    for x in rng.uniform(-1, 1, size=(100, 3)):
        q = unit_variance(example_model, x)
        vals, _ = eigen_sym(covariance_at(example_model, x))
        assert np.max(np.abs(vals - q * base_vals)) < 1e-10


def test_11b_matrix_sqrt_reconstruction(example_model):
    rng = np.random.default_rng(102)
    for x in rng.uniform(-1, 1, size=(20, 3)):
        C = covariance_at(example_model, x)
        root = matrix_sqrt(C)
        assert np.max(np.abs(root @ root - C)) < 1e-9


def test_11c_matrix_criteria_share_argmin(example_model):
    axis = np.linspace(-1, 1, 21)
    pts = np.stack(
        [g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij")],
        axis=-1,
    )
    q = np.asarray(unit_variance(example_model, pts))
    ref = int(np.argmin(q))
    kinds = [
        ("trace", {}),
        ("determinant", {}),
        ("elementsum", {}),
        ("lambda_max", {}),
        ("lambda_min", {}),
        ("lambda_j", {"j": 2}),
    ]
    for kind, kw in kinds:
        vals = np.array([
            matrix_criterion(covariance_at(example_model, x), kind, **kw)
            for x in pts
        ])
        assert int(np.argmin(vals)) == ref, kind


def test_11d_goal_deviation_identities(example_model):
    cfg = MethodConfig(tau=TAU, confidence=0.95)
    rng = np.random.default_rng(103)
    for x in rng.uniform(-1, 1, size=(100, 3)):
        dev = goal_deviations(example_model, cfg, x)
        diff = kataoka_terms(example_model, cfg, x) - TAU
        assert np.max(np.abs(dev.d_plus * dev.d_minus)) < 1e-12
        assert np.max(np.abs(dev.d_plus - dev.d_minus - diff)) < 1e-12


def test_11e_normal_quantile_round_trip():
    for p in np.linspace(0.01, 0.99, 99):
        assert abs(std_normal_cdf(normal_quantile(p)) - p) < 1e-9


def test_11f_pareto_front_nondominance(example_model):
    objs = [
        lambda x: predict(example_model, x)[..., 0],
        lambda x: predict(example_model, x)[..., 1],
    ]
    front = pareto_front(objs, Region.unit_cube(3), 0.1)
    vals = [v for _, v in front.points]
    assert vals
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            if i != j:
                assert not (np.all(b <= a) and np.any(b < a))


def test_11g_joint_probability_vs_marginal_product():
    spec = TermSpec(n=1, terms=((), (0,)))
    model = FittedModel(
        terms=spec,
        b_hat=np.array([[0.0, 0.0], [1.0, -1.0]]),
        sigma_hat=np.diag([1.0, 2.0]),
        xtx_inv=np.diag([0.5, 0.5]),
        residuals=np.zeros((4, 2)),
        n_obs=4,
    )
    tau = np.array([1.0, 0.5])
    for x in (np.array([0.0]), np.array([0.6]), np.array([-0.4])):
        mean = predict(model, x)
        s = np.sqrt(unit_variance(model, x) * np.diag(model.sigma_hat))
        closed = math.prod(
            std_normal_cdf((tau[k] - mean[k]) / s[k]) for k in range(2)
        )
        p_hat, se = joint_probability_mc(model, x, tau, 100_000, seed=9)
        assert abs(p_hat - closed) <= 3 * max(se, 1e-6)


@pytest.mark.parametrize("name", [
    "v-model",
    "modified-e-weighting",
    "modified-e-epsilon",
    "p-model-weighting",
    "p-model-epsilon",
    "kataoka-weighting",
    "kataoka-epsilon",
    "goal-programming",
])
def test_11h_oracle_agreement(name, solutions, grid_oracle):
    assert abs(solutions(name).f_star - grid_oracle(name).f_star) <= 0.01


# F of each configured method from the quadratic-penalty solver that SLSQP
# replaced; its epsilon points missed their targets by up to 1.45e-5,
# which moved modified-e-epsilon's F by 6.8e-5 below the exact value.
PENALTY_SOLVER_F = {
    "v-model": 1.0,
    "modified-e-weighting": 39.5895255,
    "modified-e-epsilon": 3.5825714,
    "p-model-weighting": -2.6767059,
    "p-model-epsilon": 7.0724892,
    "kataoka-weighting": 76.6271611,
    "kataoka-epsilon": 67.2987814,
    "goal-programming": 0.0,
}


@pytest.mark.parametrize("name", list(PENALTY_SOLVER_F))
def test_12_exact_constraints(name, solutions):
    res = solutions(name)
    assert res.converged
    assert np.all(res.constraint_residuals <= 1e-9)
    assert res.f_star == pytest.approx(PENALTY_SOLVER_F[name], abs=1e-4)
