"""The averaging operator: coefficient, integral, and semigroup forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaronorm import (
    ClosedForm,
    Constant,
    ConvergenceError,
    DomainError,
    Korenblum,
    KorenblumExtremal,
    LogKorenblumExtremal,
    Poly,
    PowerSeries,
    cesaro_coeff,
    cesaro_derivative,
    cesaro_integral,
    cesaro_of_one,
    cesaro_semigroup,
    cesaro_transform,
    semigroup_transform,
    space_norm,
)
from cesaronorm.functions import EVAL_RADIUS_LIMIT, derivative, evaluate, evaluate_polar
from cesaronorm import numerics


def test_coeff_examples():
    np.testing.assert_allclose(
        cesaro_coeff(PowerSeries([1, 0, 0, 0])).coeffs, [1, 1 / 2, 1 / 3, 1 / 4]
    )
    np.testing.assert_allclose(
        cesaro_coeff(PowerSeries([0, 1, 0, 0])).coeffs, [0, 1 / 2, 1 / 3, 1 / 4]
    )


def test_geometric_series_is_fixed():
    ones = PowerSeries(np.ones(40))
    np.testing.assert_array_equal(cesaro_coeff(ones).coeffs, ones.coeffs)


coeff_st = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


@given(
    st.lists(coeff_st, min_size=1, max_size=16),
    st.lists(coeff_st, min_size=1, max_size=16),
    coeff_st,
    coeff_st,
)
@settings(max_examples=150, deadline=None)
def test_coeff_linearity(p, q, a, b):
    n = max(len(p), len(q))
    ps = PowerSeries(p).truncate(n - 1)
    qs = PowerSeries(q).truncate(n - 1)
    combo = cesaro_coeff(PowerSeries(a * ps.coeffs + b * qs.coeffs)).coeffs
    parts = a * cesaro_coeff(ps).coeffs + b * cesaro_coeff(qs).coeffs
    assert float(np.max(np.abs(combo - parts))) <= 1e-12 * max(1.0, abs(a) + abs(b))


@given(st.lists(coeff_st, min_size=2, max_size=24), st.integers(0, 23))
@settings(max_examples=150, deadline=None)
def test_coeff_truncation_commutes(coeffs, n):
    """Lower triangularity: output[0..n] depends only on input[0..n]."""
    p = PowerSeries(coeffs)
    n = min(n, p.degree)
    direct = cesaro_coeff(p.truncate(n)).coeffs
    full = cesaro_coeff(p).coeffs[: n + 1]
    np.testing.assert_array_equal(direct, full)


def test_constant_image_closed_form():
    # C(1)(z) = -log(1 - z)/z, so C(1)(0.5) = 2 log 2
    got = cesaro_integral(Constant(1.0), 0.5)
    assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
    assert cesaro_integral(Constant(1.0), 0.0) == pytest.approx(1.0, abs=1e-12)
    assert cesaro_semigroup(Constant(1.0), 0.0) == pytest.approx(1.0, abs=1e-10)
    assert cesaro_semigroup(Constant(1.0), 0.5) == pytest.approx(
        2.0 * math.log(2.0), abs=1e-9
    )
    assert evaluate(cesaro_of_one(), 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-14)


def test_integral_matches_coefficient_form():
    p = Poly([0.3, -1.0, 2.5, 0.0, 1.0 - 0.5j])
    z = 0.3 + 0.4j
    series = cesaro_coeff(p.series.truncate(256))
    want = complex(series.eval_at(z))
    assert cesaro_integral(p, z) == pytest.approx(want, abs=1e-8)


def test_semigroup_matches_integral_on_extremal():
    f = KorenblumExtremal(0.4)
    for r in (0.0, 0.5, 0.9):
        a = cesaro_integral(f, r, tol=1e-10)
        b = cesaro_semigroup(f, r, tol=1e-10)
        assert b == pytest.approx(a, abs=2e-10)


def test_kernel_invariants():
    """S_t 1 is the weight w_t and S_t z / S_t 1 the self-map phi_t of the disk."""
    rng = np.random.default_rng(5)
    w = np.sqrt(rng.uniform(0, 1, 500)) * np.exp(2j * np.pi * rng.uniform(0, 1, 500))
    z = np.array([0.0, 0.5, -0.3 + 0.1j, 0.9j])
    for t in (0.0, 0.1, 1.0, 5.0):
        u = math.exp(-t)
        weight = evaluate(semigroup_transform(Constant(1.0), t), w)
        image = evaluate(semigroup_transform(Poly([0.0, 1.0]), t), w)
        np.testing.assert_allclose(weight, u / (1.0 - (1.0 - u) * w), rtol=1e-14)
        np.testing.assert_allclose(image / weight, u * w / (1.0 - (1.0 - u) * w), rtol=1e-14)
        # phi_t fixes the origin and sends the disk into itself
        assert evaluate(semigroup_transform(Poly([0.0, 1.0]), t), 0j) == 0.0
        assert float(np.max(np.abs(image / weight))) < 1.0
    # S_0 is the identity
    for f in (Constant(1.0), Poly([0.0, 1.0])):
        np.testing.assert_allclose(evaluate(semigroup_transform(f, 0.0), z), evaluate(f, z), atol=1e-15)
    with pytest.raises(DomainError):
        semigroup_transform(Constant(1.0), -0.1)


def test_semigroup_transform_examples():
    f = Poly([1.0, 2.0, -1.0])
    z = 0.4 - 0.2j
    assert evaluate(semigroup_transform(f, 0.0), z) == pytest.approx(evaluate(f, z), abs=1e-14)
    for t in (0.3, 2.0):
        assert evaluate(semigroup_transform(Constant(1.0), t), 0j) == pytest.approx(
            math.exp(-t), abs=1e-15
        )
    with pytest.raises(DomainError):
        semigroup_transform(f, -1.0)


@pytest.mark.parametrize("k", [1, 20, 40, 53])
def test_semigroup_transform_of_the_extremals_near_the_boundary_matches_mpmath(k):
    """S_t f at r = 1 - 2^-k to 2e-14 relative: neither D = (1 - r) + u r nor (1 - r) + 2u r cancels as r -> 1."""
    import mpmath as mp

    r = 1.0 - 2.0**-k
    with mp.workdps(50):
        x = mp.mpf(r)
        for alpha in (0.1, 0.5, 0.9):
            for t in (0.0, 1e-3, 0.5, 5.0, 40.0):
                u = mp.mpf(math.exp(-t))
                d = (1 - x) + u * x
                one_minus_phi_sq = (1 - x) * ((1 - x) + 2 * u * x) / d**2
                plain = u / d * one_minus_phi_sq ** -mp.mpf(alpha)
                logged = plain / (1 / mp.mpf(alpha) + mp.log(2) - mp.log(one_minus_phi_sq))
                for f, want in ((KorenblumExtremal(alpha), plain), (LogKorenblumExtremal(alpha), logged)):
                    got = complex(semigroup_transform(f, t).eval_at(r))
                    assert got.imag == 0.0
                    assert got.real == pytest.approx(float(want), rel=2e-14, abs=0.0), (f, t)


def test_st_weighted_ratio_tends_to_exponential():
    """Along r -> 1-, the weighted norm ratio of S_t f_alpha approaches e^(-alpha t)."""
    alpha, t = 0.3, 1.0
    image = semigroup_transform(KorenblumExtremal(alpha), t)
    vals = []
    for k in range(10, 31, 5):
        r = 1.0 - 2.0**-k
        w = (1.0 - r * r) ** alpha
        vals.append(w * abs(evaluate(image, complex(r))))
    target = math.exp(-alpha * t)
    errors = [abs(v - target) for v in vals]
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-3


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_semigroup_contraction(alpha, t):
    """The weighted composition operator contracts by e^(-alpha t)."""
    f = KorenblumExtremal(alpha)
    est = space_norm(semigroup_transform(f, t), Korenblum(alpha), tol=1e-8)
    assert est.value <= math.exp(-alpha * t) + 1e-6


def test_derivative_form_examples():
    got = cesaro_derivative(Constant(1.0), 0.0)
    assert got == pytest.approx(0.5, abs=1e-10)
    # derivative of -log(1 - z)/z at 0.5: 1/(z(1-z)) - log(1/(1-z))/z^2
    want = 4.0 - 4.0 * math.log(2.0)
    assert cesaro_derivative(Constant(1.0), 0.5) == pytest.approx(want, abs=1e-9)
    assert evaluate(derivative(cesaro_of_one()), 0.5) == pytest.approx(want, abs=1e-12)


def test_derivative_form_matches_coefficient_form():
    p = Poly([1.0, -0.5, 0.25, 2.0])
    z = 0.2 + 0.3j
    series = cesaro_coeff(p.series.truncate(256)).differentiate()
    want = complex(series.eval_at(z))
    assert cesaro_derivative(p, z) == pytest.approx(want, abs=1e-8)


def test_transform_of_polynomial_keeps_the_log_tail():
    """C maps z to -log(1-z)/z - 1, not to the truncated z/2."""
    g = cesaro_transform(Poly([0.0, 1.0]))
    z = 0.8
    want = -math.log(1.0 - z) / z - 1.0
    assert evaluate(g, z) == pytest.approx(want, abs=1e-12)
    # well inside the disk the image agrees with a long coefficient expansion
    series = cesaro_coeff(PowerSeries([0.0, 1.0]).truncate(512))
    z = 0.25
    assert evaluate(g, z) == pytest.approx(complex(series.eval_at(z)), abs=1e-13)


def test_transform_derivative_matches_difference_quotient():
    g = cesaro_transform(Poly([0.5, 1.5, -2.0, 0.75]))
    dg = derivative(g)
    h = 1e-6
    for z in (0.1, 0.45, 0.8, 0.3 + 0.5j):
        fd = (evaluate(g, z + h) - evaluate(g, z - h)) / (2.0 * h)
        assert evaluate(dg, z) == pytest.approx(fd, rel=2e-8, abs=1e-8)


def test_representation_equivalence_small_batch():
    rng = np.random.default_rng(1)
    z = 0.95 * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
    for _ in range(10):
        deg = int(rng.integers(0, 17))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f = Poly(coeffs)
        series = cesaro_coeff(f.series.truncate(512))
        for w in z:
            via_coeff = complex(series.eval_at(w))
            via_int = cesaro_integral(f, w)
            via_semi = cesaro_semigroup(f, w)
            assert abs(via_int - via_coeff) <= 1e-8
            assert abs(via_semi - via_int) <= 1e-8


FORMS = (cesaro_integral, cesaro_semigroup, cesaro_derivative)
FUNCTIONS = (Poly([0.5, -1.0 + 2.0j, 0.25, 1.5j]), KorenblumExtremal(0.3), LogKorenblumExtremal(0.7))


def _golden_points(n):
    """n points filling |z| <= 0.95 by area along a golden-angle spiral."""
    j = np.arange(n)
    return 0.95 * np.sqrt(1.0 - j / n) * np.exp(2j * np.pi * ((j * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0))


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("f", FUNCTIONS, ids=repr)
def test_forms_are_bitwise_independent_of_the_batch(form, f):
    """Each point is its own integral, so a batch of 24 gives its batches of one bit for bit."""
    z = _golden_points(24)
    batch = form(f, z, 1e-8)
    for k in range(z.size):
        assert batch[k] == form(f, z[k : k + 1], 1e-8)[0] == form(f, complex(z[k]), 1e-8)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("f", FUNCTIONS, ids=repr)
def test_forms_keep_the_shape_of_their_input(form, f):
    z = _golden_points(6)
    assert isinstance(form(f, 0.3 + 0.2j), complex)
    assert isinstance(form(f, np.array(0.5)), complex)
    empty = form(f, np.zeros(0))
    assert empty.shape == (0,) and empty.dtype == complex
    grid = form(f, z.reshape(2, 3))
    assert grid.shape == (2, 3)
    np.testing.assert_array_equal(grid.ravel(), form(f, z))


def test_forms_refine_each_point_on_its_own_partition(monkeypatch):
    """Point evaluations of the nine forms on a fixed 256-point batch, pinned.

    One partition shared by all 256 points, refined wherever the worst
    point needs it, costs 441 600 here; one partition per point 86 400.
    """
    total = [0]
    panels = numerics._panels

    def counting(g, lo, hi, rows):
        def counted(x, r):
            vals = g(x, r)
            total[0] += vals.size
            return vals

        return panels(counted, lo, hi, rows)

    monkeypatch.setattr(numerics, "_panels", counting)
    z = _golden_points(256)
    for f in (Poly(np.arange(1.0, 10.0)), KorenblumExtremal(0.5), LogKorenblumExtremal(0.5)):
        for form in FORMS:
            form(f, z, 1e-8)
    assert total[0] == 86_400


@pytest.mark.parametrize("form", FORMS)
def test_forms_raise_where_the_integrand_is_not_finite(form):
    """A point whose integrand is nan somewhere fails the batch instead of returning nan."""
    f = ClosedForm(lambda w: np.where(np.abs(w) > 0.3, np.nan, 1.0), lambda w: np.zeros_like(w))
    with pytest.raises(ConvergenceError, match="not finite"):
        form(f, np.array([0.1, 0.9, 0.2j]))


def test_cesaro_of_one_and_its_derivative_match_mpmath():
    """C(1) = -log(1 - z)/z and C(1)' to 4e-15 relative, |z| = 1e-6..1 - 1e-6 on random angles.

    C(1) is PolyImage's image of the constant 1; the closed form it
    replaced was 1.2e-8 off in C(1)' near |z| = 1e-4.
    """
    import mpmath as mp

    rng = np.random.default_rng(1)
    moduli = np.concatenate([np.geomspace(1e-6, 0.5, 60), 1.0 - np.geomspace(0.5, 1e-6, 60)])
    z = moduli * np.exp(1j * rng.uniform(-np.pi, np.pi, moduli.size))
    image = cesaro_of_one()
    got_value, got_slope = evaluate(image, z), evaluate(derivative(image), z)
    with mp.workdps(30):
        for w, value, slope in zip(z, got_value, got_slope):
            x = mp.mpc(w)
            want_value = -mp.log(1 - x) / x
            want_slope = 1 / (x * (1 - x)) + mp.log(1 - x) / x**2
            assert abs(value - want_value) <= 4e-15 * abs(want_value), w
            assert abs(slope - want_slope) <= 4e-15 * abs(want_slope), w


def _extremal_image(family, alpha, z, slope):
    """C(f)(z), or C(f)'(z) = (f(z)/(1 - z) - C(f)(z)) / z, for the extremal f of family, in mpmath."""
    import mpmath as mp

    with mp.workdps(30):
        a, w = mp.mpf(alpha), mp.mpc(z)
        c0 = 1 / a + mp.log(2)

        def f(x):
            plain = (1 - x * x) ** (-a)
            return plain if family is KorenblumExtremal else plain / (c0 - mp.log(1 - x * x))

        image = mp.quad(lambda t: f(t * w) / (1 - t * w), [0, 0.5, 0.9, 0.99, 1])
        return complex((f(w) / (1 - w) - image) / w if slope else image)


def _assert_within_tol_at_each_point(family, form, alpha):
    """Every point of a batch meets the absolute tolerance on its own, near the singular points."""
    tol = 1e-12
    z = 0.95 * np.exp(1j * np.array([0.0, 0.05, np.pi / 3, np.pi / 2, 3.0]))
    got = form(family(alpha), z, tol)
    for value, w in zip(got, z):
        assert abs(value - _extremal_image(family, alpha, w, form is cesaro_derivative)) <= tol


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_log_extremal_derivative_is_within_tol_at_each_point(alpha):
    _assert_within_tol_at_each_point(LogKorenblumExtremal, cesaro_derivative, alpha)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize(
    "family, form",
    [
        (KorenblumExtremal, cesaro_semigroup),
        (KorenblumExtremal, cesaro_derivative),
        (LogKorenblumExtremal, cesaro_semigroup),
    ],
    ids=lambda arg: arg.__name__,
)
def test_extremal_forms_are_within_tol_at_each_point(family, form, alpha):
    _assert_within_tol_at_each_point(family, form, alpha)


@pytest.mark.parametrize("k", [1, 20, 40, 53])
def test_semigroup_transform_derivative_of_the_extremals_near_the_boundary_matches_mpmath(k):
    """(S_t f)' at r e^(i theta), r = 1 - 2^-k, to 1e-14 relative of mpmath.diff of the exact S_t f.

    The slope comes from the factored 1 - phi^2 of the value: f' at the
    rounded phi, formed as 1 - phi^2, loses every digit at k = 53.
    """
    import mpmath as mp

    r = 1.0 - 2.0**-k
    with mp.workdps(50):
        for z in (complex(r), complex(r * np.exp(1e-3j))):
            for alpha in (0.1, 0.5, 0.9):
                a = mp.mpf(alpha)
                for t in (0.01, 0.5, 5.0):
                    u = mp.mpf(math.exp(-t))
                    for f in (KorenblumExtremal(alpha), LogKorenblumExtremal(alpha)):

                        def exact(x):
                            d = (1 - x) + u * x
                            one_minus_phi_sq = (1 - x) * ((1 - x) + 2 * u * x) / d**2
                            plain = u / d * one_minus_phi_sq**-a
                            if isinstance(f, KorenblumExtremal):
                                return plain
                            return plain / (1 / a + mp.log(2) - mp.log(one_minus_phi_sq))

                        want = mp.diff(exact, mp.mpc(z))
                        got = complex(semigroup_transform(f, t).derivative().eval_at(z))
                        assert abs(got - want) <= 1e-14 * abs(want), (f, t, z)


@pytest.mark.parametrize("degree", [0, 1, 7, 64])
def test_poly_image_polar_matches_pointwise(degree):
    """Value and derivative rows on both sides of the r = 0.35 series switch agree with eval_at."""
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    image = cesaro_transform(Poly(coeffs / (np.arange(degree + 1) + 1.0)))
    r = np.array([0.0, 1e-5, 0.2, 0.34999999, 0.35, 0.35000001, 0.5, 0.9, 0.999999, EVAL_RADIUS_LIMIT])
    angles = 2.0 * np.pi * np.arange(64) / 64 + 0.01
    z = r[:, None] * np.exp(1j * angles)[None, :]
    for f in (image, derivative(image)):
        got = evaluate_polar(f, r, angles)
        ref = evaluate(f, z)
        assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    with pytest.raises(DomainError):
        evaluate_polar(image, np.array([0.5, 1.0 - 1e-13]), angles)


def test_poly_image_second_derivative_falls_back_to_contour():
    image = cesaro_transform(Poly([1.0, 2.0, -1.0]))
    z = np.array([0.1, 0.5 + 0.2j])
    h = 1e-5
    d1 = derivative(image)
    quotient = (evaluate(d1, z + h) - evaluate(d1, z - h)) / (2 * h)
    np.testing.assert_allclose(evaluate(derivative(d1), z), quotient, rtol=1e-7)


@pytest.mark.parametrize(
    "f",
    FUNCTIONS + (KorenblumExtremal(0.05), LogKorenblumExtremal(0.05), cesaro_transform(FUNCTIONS[0])),
    ids=repr,
)
def test_derivative_form_is_bitwise_the_two_call_integrand(f):
    """One eval_with_derivative per node gives the same integral as f and f' evaluated apart.

    The extremals take S_t's factored slope instead, which agrees within
    2 tol with the generic path on their values and derivatives.
    """
    from cesaronorm.cesaro import _unit_interval_integral

    df = derivative(f)

    def two_calls(u, z):
        d_full = (1.0 - z) + u * z
        weight, inv_d = u / d_full, 1.0 / d_full
        phi = u * z / d_full
        slope = (weight * (1.0 - u) * inv_d) * f.eval_at(phi) + (weight * weight * inv_d) * df.eval_at(phi)
        return slope / u

    z = _golden_points(48)
    for tol in (1e-8, 1e-12):
        got = cesaro_derivative(f, z, tol)
        if isinstance(f, (KorenblumExtremal, LogKorenblumExtremal)):
            generic = cesaro_derivative(ClosedForm(f.eval_at, df.eval_at), z, tol)
            assert np.max(np.abs(got - generic)) <= 2.0 * tol
        else:
            assert got.tobytes() == _unit_interval_integral(two_calls, z, tol).tobytes()
