"""The index-pair basis and the (m, q) moments against reference formulas.

``evaluate_basis_loop`` is the per-term product loop that builds z(x) one
monomial at a time; the production ``evaluate_basis`` must agree with it
exactly. The Kataoka and P-model terms are recomputed here from that
reference z(x) with their textbook formulas, and the matmul quadratic form
is checked against the three-operand einsum it replaced. The row form of
the moments, which the grid oracle scores, is checked against ``moments``
at the same nodes.
"""

from statistics import NormalDist

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rsmopt.fit import (
    FittedModel,
    _quadratic_form,
    moments,
    predict,
    row_moments,
    unit_variance,
)
from rsmopt.model import TermSpec, evaluate_basis
from rsmopt.programs import MethodConfig, kataoka_terms, p_model_terms


def evaluate_basis_loop(x, terms: TermSpec) -> np.ndarray:
    """Reference z(x): each column is a product over the term's factors."""
    x = np.asarray(x, dtype=float)
    cols = []
    for t in terms.terms:
        col = np.ones(x.shape[:-1])
        for i in t:
            col = col * x[..., i]
        cols.append(col)
    return np.stack(cols, axis=-1)


@st.composite
def term_specs(draw):
    """Intercept plus a random subset of linear, square and cross terms."""
    n = draw(st.integers(1, 5))
    candidates = [(i,) for i in range(n)]
    candidates += [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.lists(st.sampled_from(candidates), min_size=1,
                           max_size=len(candidates), unique=True))
    return TermSpec(n=n, terms=((),) + tuple(chosen))


@st.composite
def cases(draw):
    """A random model over a random term set, and a batch of points."""
    terms = draw(term_specs())
    r = draw(st.integers(1, 3))
    k, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (k,), (k, l)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = terms.p
    a = rng.standard_normal((p, p))
    s = rng.standard_normal((r, r))
    model = FittedModel(
        terms=terms,
        b_hat=rng.standard_normal((p, r)) * 10.0,
        sigma_hat=s @ s.T + 0.1 * np.eye(r),
        xtx_inv=a @ a.T / p + 0.01 * np.eye(p),
        residuals=np.zeros((p + 1, r)),
        n_obs=p + 1,
    )
    x = rng.uniform(-2.0, 2.0, size=batch + (terms.n,))
    tau = rng.uniform(-5.0, 5.0, size=r)
    confidence = float(rng.uniform(0.05, 0.95))
    return model, x, tau, confidence


def layouts(x):
    """x, a Fortran-ordered copy, a view with every other column of a
    wider array (and every third row when batched), and a view with
    negative strides: the same values in the layouts a caller may pass."""
    strided = np.repeat(x, 2, axis=-1)[..., ::2]
    if x.ndim > 1:
        strided = np.repeat(strided, 3, axis=0)[::3]
    reversed_view = np.ascontiguousarray(x[..., ::-1])[..., ::-1]
    return [x, np.asfortranarray(x), strided, reversed_view]


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_index_pair_basis_equals_loop_reference(case):
    model, x, _, _ = case
    want = evaluate_basis_loop(x, model.terms)
    for view in layouts(x):
        got = evaluate_basis(view, model.terms)
        assert got.shape == x.shape[:-1] + (model.p,)
        assert np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_moments_match_predict_and_unit_variance(case):
    model, x, _, _ = case
    m, q = moments(model, x)
    assert np.array_equal(m, predict(model, x))
    assert np.array_equal(q, unit_variance(model, x))
    assert np.shape(m) == x.shape[:-1] + (model.r,)
    assert np.shape(q) == x.shape[:-1]


def reference_moments(model, x):
    z = evaluate_basis_loop(x, model.terms)
    m = z @ model.b_hat
    q = np.sum((z @ model.xtx_inv) * z, axis=-1)
    s = np.sqrt(q[..., None] * np.diag(model.sigma_hat))
    return m, s


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_kataoka_terms_match_textbook_formula(case):
    model, x, _, confidence = case
    m, s = reference_moments(model, x)
    want = m + NormalDist().inv_cdf(confidence) * s
    got = kataoka_terms(model, MethodConfig(confidence=confidence), x)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))


@settings(max_examples=200, deadline=None)
@given(case=cases())
def test_p_model_terms_match_textbook_formula(case):
    model, x, tau, _ = case
    m, s = reference_moments(model, x)
    want = (tau - m) / s
    got = p_model_terms(model, tau, x)
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.max(np.abs(want)))


@st.composite
def quadratic_form_cases(draw):
    """A basis batch over a random term set and a random symmetric positive
    definite A whose spectrum lies in [1, 5], so q >= |z|^2 >= 1."""
    terms = draw(term_specs())
    k, l = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (k,), (k, l)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-2.0, 2.0, size=batch + (terms.n,))
    return evaluate_basis(x, terms), spd(rng, terms.p)


def spd(rng, p):
    """A random symmetric positive definite (p, p) matrix, eigenvalues >= 1."""
    a = rng.standard_normal((p, p))
    return a @ a.T / p + np.eye(p)


@settings(max_examples=200, deadline=None)
@given(case=quadratic_form_cases())
def test_quadratic_form_matches_three_operand_einsum(case):
    z, a = case
    got = _quadratic_form(z, a)
    want = np.einsum("...i,ij,...j->...", z, a, z)
    assert np.shape(got) == z.shape[:-1]
    assert np.all(got >= 0)
    assert np.allclose(got, want, rtol=1e-12, atol=0)


@st.composite
def feature_major_cases(draw):
    """A (k, p) basis batch as ``evaluate_basis`` lays it out, the transpose
    of a C-contiguous (p, k) array, and a random SPD A."""
    terms = draw(term_specs())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.uniform(-2.0, 2.0, size=(draw(st.integers(1, 64)), terms.n))
    return evaluate_basis(x, terms), spd(rng, terms.p)


@settings(max_examples=200, deadline=None)
@given(case=feature_major_cases())
def test_feature_major_quadratic_form_matches_einsum(case):
    z, a = case
    assert z.T.flags.c_contiguous  # the layout that takes the (A' z') * z' branch
    got = _quadratic_form(z, a)
    assert got.shape == z.shape[:1]
    assert np.allclose(got, np.einsum("...i,ij,...j->...", z, a, z), rtol=1e-12, atol=0)
    row_major = _quadratic_form(np.ascontiguousarray(z), a)
    assert np.allclose(got, row_major, rtol=1e-12, atol=0)


@st.composite
def row_cases(draw):
    """A random model over a random term set with r = 1-4 and an SPD A (so
    q >= |z|^2 >= 1), and a block of 1-6 grid rows over 1-9 last-axis
    nodes; one-row blocks and one-node rows are drawn often."""
    terms = draw(term_specs())
    r = draw(st.integers(1, 4))
    rows = draw(st.one_of(st.just(1), st.integers(1, 6)))
    size = draw(st.one_of(st.just(1), st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = terms.p
    s = rng.standard_normal((r, r))
    model = FittedModel(
        terms=terms,
        b_hat=rng.standard_normal((p, r)) * 10.0,
        sigma_hat=s @ s.T + 0.1 * np.eye(r),
        xtx_inv=spd(rng, p),
        residuals=np.zeros((p + 1, r)),
        n_obs=p + 1,
    )
    lead = rng.uniform(-2.0, 2.0, size=(rows, terms.n - 1))
    t = np.sort(rng.uniform(-2.0, 2.0, size=size))
    return model, lead, t


@settings(max_examples=300, deadline=None)
@given(case=row_cases())
def test_row_moments_match_moments_at_the_row_nodes(case):
    model, lead, t = case
    pts = np.column_stack([np.repeat(lead, t.size, axis=0), np.tile(t, len(lead))])
    m, q = row_moments(model)(lead, t)
    want_m, want_q = moments(model, pts)
    assert m.shape == want_m.shape and q.shape == want_q.shape
    assert m.T.flags.c_contiguous    # the (r, k) layout of a batch's means
    z = evaluate_basis_loop(pts, model.terms)
    scale = np.abs(z) @ np.abs(model.b_hat)        # sum_j |B_jk z_j|
    assert np.all(np.abs(m - want_m) <= 1e-12 * scale)
    assert np.all(np.abs(q - want_q) <= 1e-12 * want_q)


@settings(max_examples=200, deadline=None)
@given(case=row_cases(), cut=st.integers(0, 9))
def test_row_moments_give_a_row_the_same_bits_in_any_block(case, cut):
    """One row at a time, and t cut in two, give the block's exact values:
    the grid oracle's result must not depend on its block size."""
    model, lead, t = case
    read = row_moments(model)
    m, q = read(lead, t)
    m = m.reshape(len(lead), t.size, model.r)
    q = q.reshape(len(lead), t.size)
    cut = min(cut, t.size)
    for i in range(len(lead)):
        for piece in (slice(0, cut), slice(cut, None)):
            if len(t[piece]) == 0:
                continue
            got_m, got_q = read(lead[i:i + 1], t[piece])
            assert np.array_equal(got_m, m[i, piece])
            assert np.array_equal(got_q, q[i, piece])
