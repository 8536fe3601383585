"""Likelihood machinery, closed-form variances, and the point estimators."""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, strategies as st

from copulachain import estimation
from copulachain.chain import (
    BinaryPath,
    ModelParams,
    PathOrigin,
    Regime,
    RealPath,
    TransitionCounts,
    simulate_bernoulli_chain,
    simulate_uniform_chain,
    transition_counts,
)
from copulachain.errors import DegenerateData, DomainError
from copulachain.estimation import (
    asymptotic_cov,
    chisq1_quantile,
    clt_variance,
    fit_mle,
    indicator_estimate,
    loglik,
    mean_estimate,
    mle_ci,
    mle_half,
    normal_quantile,
    robust_estimate,
    var_sample_mean,
)

from oracles import (
    clt_variance_reference,
    exact_var_scaled_mean,
    grid_mle,
    mean_estimate_reference,
    quantile_bisect,
    quartic_coefficients,
    robust_estimate_reference,
    runs_count,
    score_reference,
)

interior_params = st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)).map(
    lambda t: ModelParams(*t)
)


def _simulated_counts(a, p, n, seed):
    return transition_counts(simulate_bernoulli_chain(ModelParams(a, p), n, seed))


# -- quantiles -----------------------------------------------------------


def test_normal_quantile_frozen():
    assert normal_quantile(0.5) == 0.0
    assert math.isclose(normal_quantile(0.975), 1.959963984540054, abs_tol=1e-9)


@pytest.mark.parametrize("q", [1e-8, 0.001, 0.025, 0.31, 0.5, 0.77, 0.975, 0.999, 1 - 1e-8])
def test_normal_quantile_against_bisection(q):
    assert math.isclose(normal_quantile(q), quantile_bisect(q), abs_tol=1e-8)


@given(st.floats(0.01, 0.99))
def test_normal_quantile_antisymmetric(q):
    assert math.isclose(normal_quantile(q), -normal_quantile(1.0 - q), abs_tol=1e-12)


def _ndtri_points():
    rng = np.random.default_rng(20260814)
    tails = 10.0 ** rng.uniform(-300.0, 0.0, 20_000)
    edges = []
    for c in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0)):
        for direction in (0.0, 1.0):
            v = c
            for _ in range(8):
                edges.append(v)
                v = math.nextafter(v, direction)
    alphas = [1.0 - alpha / 2.0 for alpha in (0.001, 0.01, 0.05, 0.1, 0.2, 0.5)]
    pts = np.concatenate((rng.random(100_000), tails, 1.0 - tails, edges, alphas, [5e-324, 2.0**-53, 0.5]))
    return pts[(pts > 0.0) & (pts < 1.0)].tolist()


def test_normal_quantile_is_scipy_ndtri_bit_for_bit():
    from scipy.special import ndtri

    pts = _ndtri_points()
    want = ndtri(np.array(pts)).tolist()
    got = [normal_quantile(q) for q in pts]
    mismatches = [(q, g, w) for q, g, w in zip(pts, got, want) if g != w]
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 2.0, "0.5", None, object()])
def test_normal_quantile_domain(q):
    with pytest.raises(DomainError, match="quantile level"):
        normal_quantile(q)


def test_chisq_quantile():
    assert math.isclose(chisq1_quantile(0.05), 3.841458821, abs_tol=1e-3)
    assert math.isclose(chisq1_quantile(0.3173), 1.0, abs_tol=1e-3)
    # one degree of freedom: the threshold is a squared normal quantile
    for alpha in (0.01, 0.05, 0.2, 0.6):
        assert math.isclose(chisq1_quantile(alpha), normal_quantile(1 - alpha / 2) ** 2, rel_tol=1e-12)
    assert chisq1_quantile(0.01) > chisq1_quantile(0.05) > chisq1_quantile(0.5)


# -- log-likelihood and score -------------------------------------------


def test_loglik_frozen_value():
    c = TransitionCounts(x0=0, n00=3, n01=0, n10=0, n11=0)
    expected = math.log(0.75) + 3.0 * math.log(0.625 / 0.75)
    assert math.isclose(loglik(c, ModelParams(0.5, 0.25)), expected, abs_tol=1e-14)


@given(interior_params, st.integers(0, 10_000))
def test_loglik_collapses_to_binomial_at_independence(params, seed):
    p = params.p
    a = p if p < 0.5 else 1.0 - p
    c = _simulated_counts(params.a, params.p, 60, seed)
    got = loglik(c, ModelParams(a, p))
    iid = c.ones * math.log(p) + (c.n + 1 - c.ones) * math.log(1.0 - p)
    assert math.isclose(got, iid, rel_tol=1e-12, abs_tol=1e-12)


@given(interior_params, st.integers(0, 10_000))
def test_loglik_flip_invariance(params, seed):
    # both sides score the same relabeled counts, so where p and 1 - p are
    # exact complements they agree bit for bit
    p = 1.0 - (1.0 - params.p)
    assume(p != 0.5 and 1.0 - (1.0 - p) == p)
    c = _simulated_counts(0.5, 0.4, 80, seed)
    assert loglik(c, ModelParams(params.a, p)) == loglik(c.flipped(), ModelParams(params.a, 1.0 - p))


def test_score_zero_at_matching_independence_counts():
    # 16 states, a quarter of them ones, transitions split i.i.d.-style
    c = TransitionCounts(x0=0, n00=9, n01=3, n10=3, n11=1)
    s_a, s_p = score_reference(c, ModelParams(0.25, 0.25))
    assert s_a == 0.0
    assert math.isclose(s_p, -4.0 / 3.0, abs_tol=1e-12)


def test_score_sign_reacts_to_persistence():
    base = TransitionCounts(x0=0, n00=9, n01=3, n10=3, n11=1)
    sticky = TransitionCounts(x0=0, n00=12, n01=3, n10=3, n11=1)
    assert score_reference(base, ModelParams(0.25, 0.25))[0] == 0.0
    assert score_reference(sticky, ModelParams(0.25, 0.25))[0] > 0.0


@pytest.mark.parametrize(
    "a,p",
    [(0.3, 0.2), (0.7, 0.4), (0.2, 0.8), (0.9, 0.6)],
)
def test_score_matches_finite_differences(a, p):
    c = _simulated_counts(0.5, 0.45, 300, 12)
    h = 1e-6
    s_a, s_p = score_reference(c, ModelParams(a, p))
    fd_a = (loglik(c, ModelParams(a + h, p)) - loglik(c, ModelParams(a - h, p))) / (2 * h)
    fd_p = (loglik(c, ModelParams(a, p + h)) - loglik(c, ModelParams(a, p - h))) / (2 * h)
    assert math.isclose(s_a, fd_a, rel_tol=1e-5, abs_tol=1e-4)
    assert math.isclose(s_p, fd_p, rel_tol=1e-5, abs_tol=1e-4)


def test_score_mirrors_under_relabeling():
    c = _simulated_counts(0.6, 0.3, 200, 5)
    s_a, s_p = score_reference(c, ModelParams(0.4, 0.3))
    f_a, f_p = score_reference(c.flipped(), ModelParams(0.4, 0.7))
    assert math.isclose(s_a, f_a, rel_tol=1e-9)
    assert math.isclose(s_p, -f_p, rel_tol=1e-9)


def test_score_undefined_on_the_ridge():
    c = _simulated_counts(0.5, 0.5, 50, 1)
    with pytest.raises(DomainError):
        score_reference(c, ModelParams(0.3, 0.5))


# -- profile and quartic -------------------------------------------------


def _profile_a(counts, p):
    # the a that zeroes the p component of the score at fixed p < 1/2, as the core profiles it
    ws = quartic_coefficients(counts)
    return estimation._profile(ws.lam1, ws.lam2, ws.lam3, p)


def test_profile_frozen_value():
    c = TransitionCounts(x0=0, n00=8, n01=1, n10=1, n11=0)
    assert math.isclose(_profile_a(c, 0.1), 0.08 / 0.89, abs_tol=1e-15)


@given(st.floats(0.02, 0.48), st.integers(0, 10_000))
def test_profile_zeroes_the_p_score(p, seed):
    c = _simulated_counts(0.5, 0.3, 150, seed)
    a = _profile_a(c, p)
    assume(0.001 < a < 0.999)
    _, s_p = score_reference(c, ModelParams(a, p))
    assert abs(s_p) < 1e-7 * (c.n + 1)


def test_profile_matches_workspace_terms():
    # the profile written out in the counts, against its form in the workspace aggregates
    c = _simulated_counts(0.4, 0.25, 120, 8)
    for p in (0.1, 0.22, 0.37, 0.49):
        num = p * (2 * c.x0 + 1 + c.n00 + 2 * c.n01 - 2.0 * p) - (c.x0 + c.n01)
        den = p * (c.x0 + c.n00 + c.n01 - p)
        assert math.isclose(_profile_a(c, p), num / den, rel_tol=1e-15)


def test_workspace_frozen_example():
    ws = quartic_coefficients(TransitionCounts(x0=0, n00=3, n01=0, n10=0, n11=0))
    assert (ws.lam1, ws.lam2, ws.lam3, ws.lam4, ws.lam5) == (4, 0, 3, 3, 0)
    assert ws.coeffs == (6, -18, 12, 0, 0)


@pytest.mark.parametrize("seed", [2, 17, 41])
def test_quartic_rederivation(seed):
    """Re-derive the profile equation symbolically and compare coefficients.

    Starting from the transition log-likelihood on the p < 1/2 branch, the
    cleared score equations factor into a quadratic in a and a bilinear
    equation whose solution is the profile; substituting the profile into
    the quadratic and clearing denominators must reproduce the integer
    coefficients of the oracle quartic_coefficients exactly; the tests hold
    the fitting core's tables to that oracle.
    """
    c = _simulated_counts(0.6, 0.35, 40, seed)
    a, p = sp.symbols("a p", positive=True)
    p00 = (a * p + 1 - 2 * p) / (1 - p)
    p11 = a
    ll = (
        c.x0 * sp.log(p)
        + (1 - c.x0) * sp.log(1 - p)
        + c.n00 * sp.log(p00)
        + c.n01 * sp.log(1 - p00)
        + c.n10 * sp.log(1 - p11)
        + c.n11 * sp.log(p11)
    )
    s_a = sp.diff(ll, a)
    s_p = sp.diff(ll, p)

    n = c.n
    lam1 = 2 * c.x0 + 1 + c.n00 + 2 * c.n01
    lam2 = c.x0 + c.n01
    lam3 = c.x0 + c.n00 + c.n01
    lam4 = 2 * n - c.n00 + c.n11
    lam5 = n - c.n00

    quad_a = n * p * a**2 - (lam4 * p - lam5) * a + c.n11 * (2 * p - 1)
    cleared_sa = sp.expand(sp.cancel(s_a * a * (1 - a) * (a * p + 1 - 2 * p)))
    assert sp.simplify(cleared_sa + quad_a) == 0

    num = p * (lam1 - 2 * p) - lam2
    den = p * (lam3 - p)
    bilinear = a * p * (lam3 - p) - num
    cleared_sp = sp.expand(sp.cancel(s_p * p * (1 - p) * (a * p + 1 - 2 * p)))
    assert sp.simplify(cleared_sp - (-bilinear)) == 0 or sp.simplify(cleared_sp - bilinear) == 0

    profile = num / den
    quartic = sp.expand(
        n * num**2 - (lam4 * p - lam5) * num * (lam3 - p) + c.n11 * (2 * p - 1) * p * (lam3 - p) ** 2
    )
    # the quadratic score equation vanishes along the profile iff the quartic does
    assert sp.simplify(sp.cancel(quad_a.subs(a, profile) * den**2) - p * quartic) == 0

    got = quartic_coefficients(c).coeffs
    want = sp.Poly(quartic, p).all_coeffs()
    want = [0] * (5 - len(want)) + [int(w) for w in want]
    assert list(got) == want


def test_coefficient_tables_equal_the_lambda_form():
    # the fitting core evaluates the quartic as integer tables on the
    # monomials n00 b_i b_j of b = (1, x0, n00, n01, n10, n11); as
    # polynomials in the counts they must equal the quartic written in the
    # aggregates
    x0, n00, n01, n10, n11 = sp.symbols("x0 n00 n01 n10 n11")
    b = (1, x0, n00, n01, n10, n11)
    n = n00 + n01 + n10 + n11
    lam1 = 2 * x0 + 1 + n00 + 2 * n01
    lam2 = x0 + n01
    lam3 = x0 + n00 + n01
    lam4 = 2 * n - n00 + n11
    lam5 = n - n00
    c4 = 4 * n - 2 * lam4 + 2 * n11
    c3 = 2 * lam3 * lam4 - 4 * n * lam1 + lam1 * lam4 + 2 * lam5 - n11 - 4 * n11 * lam3
    c2 = (
        n * lam1**2 + 4 * n * lam2 - lam1 * lam3 * lam4 - lam2 * lam4 - 2 * lam3 * lam5
        - lam1 * lam5 + 2 * n11 * lam3 + 2 * n11 * lam3**2
    )
    c1 = lam1 * lam3 * lam5 - 2 * n * lam1 * lam2 + lam2 * lam3 * lam4 + lam2 * lam5 - n11 * lam3**2
    c0 = n * lam2**2 - lam2 * lam3 * lam5
    lams = [sum(int(w) * v for w, v in zip(col, b)) for col in estimation._LAMBDAS.T]
    # the core reads lam1..lam3 alone; lam4 and lam5 enter the quartic only
    assert estimation._LAMBDAS.shape == (6, 3)
    assert [sp.expand(got - want) for got, want in zip(lams, (lam1, lam2, lam3))] == [0] * 3
    mono = [n00 * b[i] * b[j] for i, j in zip(*estimation._QUARTIC_PAIRS)]
    assert len(set(mono)) == 14
    coeffs = [sum(int(w) * m for w, m in zip(col, mono)) for col in estimation._QUARTIC.T]
    assert [sp.expand(got - want) for got, want in zip(coeffs, (c4, c3, c2, c1, c0))] == [0] * 5


def _lens_table(delta):
    """The (5, 5) table taking quartic coefficients (c4, ..., c0) in p to the
    coefficients (t^4, ..., t^0) of (1 + t)^4 times the quartic at
    p = (-delta + (1/2 + delta) t) / (1 + t), derived in sympy."""
    p, t = sp.symbols("p t")
    c = sp.symbols("c4 c3 c2 c1 c0")
    quartic = sum(ck * p ** (4 - k) for k, ck in enumerate(c))
    moved = sp.cancel(quartic.subs(p, (-delta + (sp.Rational(1, 2) + delta) * t) / (1 + t)) * (1 + t) ** 4)
    poly = sp.Poly(sp.expand(moved), t)
    return sp.Matrix(5, 5, lambda k, i: poly.coeff_monomial(t ** (4 - i)).coeff(c[k]))


def test_lens_table_is_the_mobius_substitution():
    # the certificate's table is the map of (-1/64, 33/64) onto t > 0, scaled
    # by 64^4 to integers, each exact in a double
    want = _lens_table(sp.Rational(1, 64)) * 64**4
    assert all(v.is_integer and abs(v) < 2**53 for v in want)
    assert estimation._LENS.tolist() == [[float(v) for v in want.row(k)] for k in range(5)]


@pytest.mark.parametrize("pair", [0.5 - 1e-12 + 9e-7j, 0.5 - 1e-13 + 8e-7j, 1e-12 + 9e-7j])
def test_the_lens_margin_keeps_near_real_roots_at_the_ends(pair):
    # the window the core tests is every root with real part in (0, 1/2) and
    # imaginary part below _IMAG_TOL.  A pair at the very end of it lies
    # outside the lens over (0, 1/2) itself, which that lens would certify
    # although the eigenvalue call gives the pair admissible slots; the
    # margin of 1/64 keeps such a quartic solved
    c = np.poly([pair, pair.conjugate(), -1.0, -2.0]).real[None] * 2**20
    roots = np.roots(c[0])
    assert ((np.abs(roots.imag) < estimation._IMAG_TOL) & (0.0 < roots.real) & (roots.real < 0.5)).sum() == 2
    bare = np.array(_lens_table(0), dtype=float)
    s = c @ bare
    assert (s > np.abs(c) @ np.abs(bare) * 2.0**-48).all()
    assert not estimation._root_free(c).any()


def test_the_certificate_holds_in_exact_arithmetic():
    # rows whose transformed coefficient k nearly cancels: c = s @ _LENS^-1
    # for positive s with s_k = 0, rounded.  Wherever _root_free certifies,
    # the exact transformed coefficients of the rounded c share one strict
    # sign; among these rows are some whose rounded products all come out
    # positive although an exact coefficient is not, which the rounding bound
    # must refuse
    rng = np.random.default_rng(5)
    inverse = np.linalg.inv(estimation._LENS)
    blocks = []
    for k in range(5):
        s = rng.uniform(1.0, 2.0, size=(400, 5)) * 2.0**60
        s[:, k] = 0.0
        blocks.append(s @ inverse)
    c = np.concatenate(blocks)
    lens = estimation._LENS.astype(np.int64).tolist()
    exact = np.array([[sum(Fraction(x) * col[i] for x, col in zip(row, lens)) for i in range(5)] for row in c.tolist()])
    strict = (exact > 0).all(axis=1) | (exact < 0).all(axis=1)
    rounded = c @ estimation._LENS
    assert ((rounded > 0).all(axis=1) & ~strict).sum() > 10
    assert not (estimation._root_free(c) & ~strict).any()


def test_int64_quartic_bound():
    # each monomial n00 b_i b_j is at most n^3 (x0 <= 1, every count <= n),
    # so every term of a coefficient, and every partial sum of them, is at
    # most the column's absolute sum of _QUARTIC times n^3: 28 n^3
    bound = int(np.abs(estimation._QUARTIC).sum(axis=0).max())
    assert bound == 28
    assert bound * 690_000**3 < 2**63 <= bound * 700_000**3
    # at the bound, the int64 tables give the exact coefficients the oracle expands
    n = estimation._INT64_MAX_N
    for row in [(1, n // 3, n // 3, n // 3 + 1, n - 3 * (n // 3) - 1), (0, n - 2, 1, 1, 0), (1, 1, 0, 1, n - 2)]:
        counts = TransitionCounts(*row)
        b = np.array([[1, *row]], dtype=np.int64)
        assert estimation._quartic_table(b)[0].tolist() == list(quartic_coefficients(counts).coeffs)


def test_interior_fit_is_a_quartic_root():
    c = _simulated_counts(0.6, 0.3, 800, 21)
    fit = fit_mle(c)
    assert fit.params.regime is Regime.LESS_HALF
    ws = quartic_coefficients(c)
    residual = np.polyval(ws.coeffs, fit.params.p)
    assert abs(residual) < 1e-7 * max(abs(x) for x in ws.coeffs)


# -- asymptotic covariance and variances ---------------------------------


def test_cov_frozen_below_half():
    cov = asymptotic_cov(ModelParams(0.5, 0.25))
    assert np.allclose(cov.entries, [[1.0, 0.375], [0.375, 0.375]], atol=1e-15)


def test_cov_frozen_above_half():
    cov = asymptotic_cov(ModelParams(0.5, 0.75))
    assert np.allclose(cov.entries, [[1.0, -0.375], [-0.375, 0.375]], atol=1e-15)


@given(interior_params)
def test_cov_mirror_under_relabeling(params):
    assume(params.p != 0.5)
    here = asymptotic_cov(params)
    there = asymptotic_cov(ModelParams(params.a, 1.0 - params.p))
    assert math.isclose(here[0, 0], there[0, 0], rel_tol=1e-12)
    assert math.isclose(here[1, 1], there[1, 1], rel_tol=1e-12)
    assert math.isclose(here[0, 1], -there[0, 1], rel_tol=1e-12)


@given(interior_params)
def test_cov_positive_semidefinite(params):
    assume(params.p != 0.5)
    cov = asymptotic_cov(params)
    assert cov[0, 1] == cov[1, 0]
    assert np.linalg.eigvalsh(cov.entries).min() > -1e-12


def _cov_with_smaller_eigenvalue(lam):
    # [[2, b], [b, 1/2]] with b set so that its smaller eigenvalue is lam
    b = math.sqrt((1.25 - lam) ** 2 - 0.75**2)
    m = np.array([[2.0, b], [b, 0.5]])
    assert np.linalg.eigvalsh(m).min() == pytest.approx(lam, rel=1e-4)
    return m


@pytest.mark.parametrize("lam, ok", [(-2e-10, False), (-5e-11, True), (0.0, True)])
def test_cov_check_tolerates_eigenvalues_down_to_minus_1e_10(lam, ok):
    m = _cov_with_smaller_eigenvalue(lam)
    for check in (estimation.CovMatrix, lambda m: estimation._check_cov(np.stack((np.eye(2), m)))):
        if ok:
            check(m)
        else:
            with pytest.raises(DomainError, match="positive semidefinite"):
                check(m)


def test_cov_undefined_on_the_ridge():
    with pytest.raises(DomainError):
        asymptotic_cov(ModelParams(0.3, 0.5))


def test_clt_variance_frozen():
    assert clt_variance(ModelParams(0.5, 0.3)) == 0.378


@given(interior_params)
def test_clt_variance_equals_cov_diagonal(params):
    assume(params.p != 0.5)
    assert math.isclose(clt_variance(params), asymptotic_cov(params)[1, 1], rel_tol=1e-12)


@given(st.floats(0.05, 0.95))
def test_clt_variance_collapses_at_independence(p):
    a = p if p < 0.5 else 1.0 - p
    assert math.isclose(clt_variance(ModelParams(a, p)), p * (1.0 - p), rel_tol=1e-9)


@given(st.floats(0.02, 0.98), st.floats(0.02, 0.98))
def test_clt_variance_exactly_symmetric(a, p):
    assert clt_variance(ModelParams(a, p)) == clt_variance(ModelParams(a, 1.0 - p))


@pytest.mark.parametrize("a,p", [(0.5, 0.3), (0.2, 0.7), (0.8, 0.45), (0.35, 0.5)])
def test_clt_variance_against_exact_sum(a, p):
    limit = clt_variance(ModelParams(a, p))
    assert math.isclose(exact_var_scaled_mean(a, p, 10**6), limit, rel_tol=1e-3)


def test_clt_variance_kernel_equals_reference():
    # the array kernel that the mean estimator runs on rows, against the scalar
    # formula in Python floats: p = 1/2, its neighbours and random pairs
    rng = np.random.default_rng(5)
    a = rng.uniform(1e-9, 1.0 - 1e-9, 20_000)
    p = rng.uniform(1e-9, 1.0 - 1e-9, 20_000)
    p[:3] = 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
    want = [clt_variance_reference(ModelParams(x, y)) for x, y in zip(a.tolist(), p.tolist())]
    assert estimation._clt_variance(a, p).tolist() == want
    assert [clt_variance(ModelParams(x, y)) for x, y in zip(a[:500].tolist(), p[:500].tolist())] == want[:500]


def test_var_sample_mean_scaling():
    params = ModelParams(0.5, 0.3)
    assert var_sample_mean(params, 999) * 1000 == clt_variance(params)
    with pytest.raises(DomainError):
        var_sample_mean(params, 0)


def test_var_sample_mean_takes_whole_n_only():
    # n equal to an integer is that integer; any other value is refused by
    # name, not turned into a variance for a fractional or NaN path length
    params = ModelParams(0.5, 0.3)
    assert var_sample_mean(params, 99.0) == var_sample_mean(params, 99)
    for n in (99.5, math.nan, math.inf, "99", None):
        with pytest.raises(DomainError, match="^n must be an integer of at least 1"):
            var_sample_mean(params, n)


# -- maximum likelihood --------------------------------------------------

GRID_CASES = [
    (0.3, 0.2, 400, 0),
    (0.3, 0.2, 1500, 1),
    (0.6, 0.3, 700, 2),
    (0.6, 0.7, 700, 3),
    (0.9, 0.45, 900, 4),
    (0.9, 0.55, 900, 5),
    (0.15, 0.85, 1200, 6),
    (0.5, 0.25, 250, 7),
    (0.45, 0.5, 600, 8),
    (0.8, 0.9, 2000, 9),
    (0.05, 0.35, 1000, 10),
    (0.7, 0.6, 350, 11),
]


@pytest.mark.parametrize("a,p,n,seed", GRID_CASES)
def test_mle_agrees_with_grid_search(a, p, n, seed):
    c = _simulated_counts(a, p, n, seed)
    fit = fit_mle(c)
    ga, gp, gll = grid_mle(c)
    assert fit.loglik >= gll - 1e-6
    if fit.params.p != 0.5:
        assert abs(fit.params.a - ga) < 2e-3
        assert abs(fit.params.p - gp) < 2e-3


@pytest.mark.parametrize("a,p,n,seed", GRID_CASES)
def test_mle_score_vanishes_at_interior_fits(a, p, n, seed):
    c = _simulated_counts(a, p, n, seed)
    fit = fit_mle(c)
    if fit.params.p == 0.5:
        return
    s_a, s_p = score_reference(c, fit.params)
    assert max(abs(s_a), abs(s_p)) < 1e-6 * (c.n + 1)


def _expected_counts(a, p, n):
    """The counts of an n-step path from x0 = 0 nearest their expectations under (a, p), p < 1/2.

    Under stationarity each step is a 0 -> 1 move with probability
    (1 - p)(1 - p00) = p (1 - a), as is each 1 -> 0 move, and a 1 -> 1
    move with probability p a.
    """
    n01 = round(n * p * (1.0 - a))
    n11 = round(n * p * a)
    return TransitionCounts(x0=0, n00=n - 2 * n01 - n11, n01=n01, n10=n01, n11=n11)


@pytest.mark.parametrize("flip", [False, True], ids=["p_below_half", "p_above_half"])
@pytest.mark.parametrize("a,p", [(0.5, 0.3), (0.2, 0.1), (0.9, 0.4), (0.7, 0.2), (0.3, 0.45)])
def test_mle_score_vanishes_to_rounding_at_large_n(a, p, flip):
    # the stationarity of an interior fit, relative to n, holds to a few
    # units of rounding at every n, not just to the 1e-6 (n + 1) above
    for k in range(4, 11):
        c = _expected_counts(a, p, 10**k)
        c = c.flipped() if flip else c
        fit = fit_mle(c)
        assert fit.cov is not None and (fit.params.p > 0.5) == flip
        assert max(map(abs, score_reference(c, fit.params))) / c.n <= 3e-15, (k, fit.params)


@pytest.mark.parametrize("a,p", [(0.3, 0.2), (0.7, 0.8), (0.5, 0.4)])
def test_mle_consistency_at_large_n(a, p):
    n = 40_000
    c = _simulated_counts(a, p, n, 99)
    fit = fit_mle(c)
    params, cov = fit.params, fit.cov
    assert cov is not None
    assert abs(params.a - a) < 4.0 * math.sqrt(cov[0, 0] / (n + 1))
    assert abs(params.p - p) < 4.0 * math.sqrt(cov[1, 1] / (n + 1))


@pytest.mark.parametrize("seed", range(10))
def test_mle_flip_equivariance_is_exact(seed):
    c = _simulated_counts(0.6, 0.35, 500, seed)
    fit = fit_mle(c)
    mirrored = fit_mle(c.flipped())
    assert mirrored.params.a == fit.params.a
    assert mirrored.params.p == 1.0 - fit.params.p


def test_mle_constant_path_is_degenerate():
    with pytest.raises(DegenerateData) as exc:
        fit_mle(TransitionCounts(x0=0, n00=3, n01=0, n10=0, n11=0))
    # boundary report: the walk never moved and never visited 1
    assert exc.value.a == 1.0 and exc.value.p == 0.0


def test_mle_alternating_path_is_degenerate():
    with pytest.raises(DegenerateData):
        fit_mle(TransitionCounts(x0=1, n00=0, n01=2, n10=2, n11=0))


def test_mle_edge_attracted_counts_are_degenerate():
    # the supremum sits at a -> 0 here; no interior maximum exists
    with pytest.raises(DegenerateData) as exc:
        fit_mle(TransitionCounts(x0=1, n00=0, n01=3, n10=3, n11=4))
    assert exc.value.a == 0.0
    assert math.isclose(exc.value.p, 0.7122144564, abs_tol=1e-6)


def test_mle_edge_fit_never_beaten_by_grid():
    ga, gp, gll = grid_mle(TransitionCounts(x0=1, n00=0, n01=3, n10=3, n11=4))
    assert ga < 1e-3  # the brute grid pins the optimum to the a edge too


def test_mle_ridge_winner_frozen():
    c = TransitionCounts(x0=1, n00=9, n01=1, n10=1, n11=3)
    fit = fit_mle(c)
    assert fit.params.p == 0.5
    assert math.isclose(fit.params.a, 12.0 / 14.0, abs_tol=1e-15)
    assert fit.cov is None
    _, _, gll = grid_mle(c)
    assert fit.loglik >= gll - 1e-5


def test_mle_ci_half_width_identity():
    c = _simulated_counts(0.5, 0.3, 2000, 3)
    fit = fit_mle(c)
    est_a, est_p = mle_ci(c, alpha=0.1)
    z = normal_quantile(0.95)
    for k, est in ((0, est_a), (1, est_p)):
        half = z * math.sqrt(fit.cov[k, k] / (c.n + 1))
        assert math.isclose(est.ci_high - est.point, half, rel_tol=1e-12)
        assert math.isclose(est.point - est.ci_low, half, rel_tol=1e-12)
    assert est_a.method == est_p.method == "mle"
    assert est_a.n == est_p.n == c.n


def test_mle_ci_requires_off_ridge_fit():
    c = TransitionCounts(x0=1, n00=9, n01=1, n10=1, n11=3)
    with pytest.raises(DomainError):
        mle_ci(c)


@pytest.mark.parametrize("alpha", [0.0, 1.0, math.nan, "0.05", None, object()])
def test_mle_ci_rejects_a_level_outside_the_unit_interval(alpha):
    with pytest.raises(DomainError, match="level alpha"):
        mle_ci(_simulated_counts(0.5, 0.3, 99, 2), alpha=alpha)


def test_mle_ci_width_shrinks_with_n():
    wide = mle_ci(_simulated_counts(0.5, 0.3, 499, 2))[1].length
    narrow = mle_ci(_simulated_counts(0.5, 0.3, 4999, 2))[1].length
    assert narrow < wide


def test_mle_half_frozen():
    est = mle_half(TransitionCounts(x0=1, n00=9, n01=1, n10=1, n11=3))
    assert est.method == "mle-half"
    assert math.isclose(est.point, 12.0 / 14.0, abs_tol=1e-15)
    assert est.regime is Regime.HALF
    assert est.ci_low < est.point < est.ci_high


def test_mle_half_coverage():
    hits = 0
    for seed in range(200):
        c = _simulated_counts(0.8, 0.5, 9999, seed)
        hits += mle_half(c).covers(0.8)
    assert 0.90 <= hits / 200 <= 0.99


def test_mle_half_degenerate():
    with pytest.raises(DegenerateData):
        mle_half(TransitionCounts(x0=1, n00=0, n01=2, n10=2, n11=0))


# -- mean, robust, indicator ---------------------------------------------


def test_mean_estimate_point_and_plugin():
    path = simulate_bernoulli_chain(ModelParams(0.5, 0.3), 999, 3)
    est = mean_estimate(path)
    assert est.method == "mean"
    assert est.point == path.states.mean()
    fit = fit_mle(transition_counts(path))
    plug = ModelParams(fit.params.a, float(path.states.mean()))
    assert math.isclose(est.stderr, math.sqrt(var_sample_mean(plug, path.n)), rel_tol=1e-12)


def test_mean_estimate_with_fixed_weight():
    path = simulate_bernoulli_chain(ModelParams(0.5, 0.3), 999, 3)
    est = mean_estimate(path, a_hat=0.5)
    assert est.point == path.states.mean()
    assert math.isclose(
        est.stderr,
        math.sqrt(var_sample_mean(ModelParams(0.5, float(path.states.mean())), path.n)),
        rel_tol=1e-12,
    )


def test_mean_estimate_degenerate_on_constant_path():
    path = BinaryPath(
        states=np.zeros(12, dtype=np.int8),
        origin=PathOrigin(kind="loaded", seed=None, a=None, p=None),
    )
    with pytest.raises(DegenerateData):
        mean_estimate(path)


@pytest.mark.parametrize("a_hat", [1.5, 1.0, 0.0, -0.2, math.nan, math.inf, "0.5", "x", object()])
def test_mean_estimate_rejects_a_plug_in_outside_the_unit_interval(a_hat):
    path = simulate_bernoulli_chain(ModelParams(0.5, 0.3), 99, 3)
    with pytest.raises(DomainError, match="copula weight a"):
        mean_estimate(path, a_hat=a_hat)


def test_robust_estimate_deterministic():
    path = simulate_bernoulli_chain(ModelParams(0.5, 0.3), 999, 3)
    one = robust_estimate(path, noise_seed=5)
    two = robust_estimate(path, noise_seed=5)
    other = robust_estimate(path, noise_seed=6)
    assert one == two
    assert one.point != other.point
    assert one.method == "robust"


def test_robust_estimate_takes_noise_seeds_in_the_64_bit_range_only():
    # noise_seed 2**64 once drew the noise of seed 0, and -1 that of 2**64 - 1
    path = simulate_bernoulli_chain(ModelParams(0.5, 0.3), 99, 3)
    assert robust_estimate(path, noise_seed=2**64 - 1) == robust_estimate(path, noise_seed=np.uint64(2**64 - 1))
    for seed in (-1, 2**64):
        with pytest.raises(DomainError, match=f"^noise_seed must be .*got {seed}$"):
            robust_estimate(path, noise_seed=seed)
    with pytest.raises(DomainError, match="^noise_seed must be an integer"):
        robust_estimate(path, noise_seed=2.5)


def test_robust_estimate_center_identity():
    path = simulate_bernoulli_chain(ModelParams(0.4, 0.6), 1999, 11)
    est = robust_estimate(path, noise_seed=2)
    h = (1.0 / (2000 * math.sqrt(2.0))) ** 0.2
    center = est.point * math.sqrt(1.0 + h * h)
    assert math.isclose(0.5 * (est.ci_low + est.ci_high), center, rel_tol=1e-12)


def test_robust_estimate_zero_path():
    path = BinaryPath(
        states=np.zeros(50, dtype=np.int8),
        origin=PathOrigin(kind="loaded", seed=None, a=None, p=None),
    )
    with pytest.raises(DegenerateData) as info:
        robust_estimate(path)
    assert info.value.point == info.value.p == 0.0
    assert info.value.method == "robust"


def test_robust_estimate_tracks_the_mean():
    path = simulate_bernoulli_chain(ModelParams(0.5, 0.3), 9999, 17)
    est = robust_estimate(path, noise_seed=17)
    assert abs(est.point - 0.3) < 0.15
    assert est.covers(0.3)


def _kernel_paths():
    """Simulated paths of odd and even length, and constant paths."""
    for n, seed in [(1, 0), (2, 1), (999, 2), (1000, 3), (4095, 4), (20_000, 5)]:
        yield simulate_bernoulli_chain(ModelParams(0.5, 0.3), n, seed)
        yield simulate_bernoulli_chain(ModelParams(0.2, 0.7), n, seed)
    for n in (2, 11, 12, 5000):
        yield BinaryPath(np.zeros(n, dtype=np.int8))
        yield BinaryPath(np.ones(n, dtype=np.int8))


def _outcome(estimator, *args, **kwargs):
    try:
        return estimator(*args, **kwargs)
    except DegenerateData as exc:
        return str(exc)


@pytest.mark.parametrize("noise_seed", [0, 7, 2**64 - 1])
def test_robust_estimate_equals_reference(noise_seed):
    for path in _kernel_paths():
        for alpha in (0.05, 0.2):
            got = _outcome(robust_estimate, path, alpha, noise_seed)
            assert got == _outcome(robust_estimate_reference, path, alpha, noise_seed)
            assert isinstance(got, str) or (type(got.point) is float and type(got.stderr) is float)


def test_mean_estimate_equals_reference():
    for path in _kernel_paths():
        for a_hat in (None, 0.5):
            got = _outcome(mean_estimate, path, 0.05, a_hat=a_hat)
            assert got == _outcome(mean_estimate_reference, path, 0.05, a_hat=a_hat)
            assert isinstance(got, str) or type(got.point) is float


def test_indicator_estimate_accuracy():
    path = simulate_uniform_chain(0.73, 100_000, 13)
    est = indicator_estimate(path)
    assert est.method == "indicator"
    assert abs(est.point - 0.73) < 0.02
    agree = (path.states[:-1] == path.states[1:]).mean()
    assert est.point == agree
    assert math.isclose(est.stderr, math.sqrt(agree * (1 - agree) / path.n), rel_tol=1e-12)


def test_indicator_agreements_look_independent():
    # repeat indicators of the uniform chain are i.i.d.; a runs test on
    # them should stay inside +-2.58 sigma most of the time
    ok = 0
    for seed in range(50):
        s = simulate_uniform_chain(0.5, 2000, seed).states
        agree = (s[:-1] == s[1:]).astype(int)
        n1, n0 = agree.sum(), (1 - agree).sum()
        mu = 2.0 * n1 * n0 / (n1 + n0) + 1.0
        var = (mu - 1.0) * (mu - 2.0) / (n1 + n0 - 1.0)
        z = (runs_count(agree) - mu) / math.sqrt(var)
        ok += abs(z) < 2.576
    assert ok >= 45


def test_indicator_estimate_degenerate():
    path = RealPath(
        states=np.full(11, 0.25),
        origin=PathOrigin(kind="loaded", seed=None, a=None, p=None),
    )
    with pytest.raises(DegenerateData) as exc:
        indicator_estimate(path)
    assert exc.value.point == 1.0
