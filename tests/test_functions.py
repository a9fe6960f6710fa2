"""Function representations: evaluation, derivatives, coefficient extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaronorm import (
    Constant,
    ConvergenceError,
    DomainError,
    KorenblumExtremal,
    LogKorenblumExtremal,
    Poly,
    log_weight_constant,
    taylor_truncate,
)
from cesaronorm import functions
from cesaronorm.functions import (
    EVAL_RADIUS_LIMIT,
    check_radii,
    evaluate,
    evaluate_polar,
    one_minus_sq,
)


def test_power_series_rejects_bad_coeffs():
    with pytest.raises(DomainError):
        Poly([])
    with pytest.raises(DomainError):
        Poly([1.0, float("nan")])
    with pytest.raises(DomainError):
        Poly([float("inf")])


def test_power_series_eval_at_zero_is_exact():
    c0 = 0.123456789 + 0.987654321j
    p = Poly([c0, 3.0, -2.0j, 17.0])
    assert complex(p.eval_at(0.0 + 0.0j)) == c0


def test_power_series_degree_and_truncate():
    p = Poly([1, 2, 3])
    assert p.degree == 2
    q = p.truncate(4)
    assert q.degree == 4
    np.testing.assert_array_equal(q.coeffs, [1, 2, 3, 0, 0])
    with pytest.raises(DomainError):
        p.truncate(-1)


def test_evaluate_examples():
    assert evaluate(Constant(1.0), 0.5) == 1.0
    assert evaluate(KorenblumExtremal(0.5), 0.0) == 1.0


def test_evaluate_korenblum_extremal_against_binomial_series():
    # (1 - z^2)^(-a) = sum_k binom(a + k - 1, k) z^(2k), 200 terms at r = 0.6
    a, r = 0.5, 0.6
    term, acc = 1.0, 1.0
    for k in range(1, 200):
        term *= (a + k - 1.0) / k * r * r
        acc += term
    assert evaluate(KorenblumExtremal(a), r) == pytest.approx(acc, abs=1e-12)


def test_evaluate_guard():
    with pytest.raises(DomainError):
        evaluate(Constant(1.0), 1.0)
    with pytest.raises(DomainError):
        evaluate(Poly([0, 1]), 0.7 + 0.8j)
    # just inside the guard is fine
    evaluate(Poly([0, 1]), 1.0 - 1e-12)


def _tensor_grid(r, angles):
    return r[:, None] * np.exp(1j * angles)[None, :]


@pytest.mark.parametrize("degree", [0, 1, 64, 300])
def test_evaluate_polar_matches_evaluate_for_polys(degree):
    """The separable product agrees with Horner's rule on the same grid, degree above the angle count included."""
    rng = np.random.default_rng(degree)
    coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    p = Poly(coeffs / (np.arange(degree + 1) + 1.0))
    r = np.array([0.0, 0.2, 0.35, 0.6, 0.9, 0.999, EVAL_RADIUS_LIMIT])
    angles = 2.0 * np.pi * np.arange(256) / 256
    got = evaluate_polar(p, r, angles)
    ref = evaluate(p, _tensor_grid(r, angles))
    assert got.shape == (r.size, angles.size)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_evaluate_polar_default_path_is_bitwise_evaluate():
    r = np.array([0.0, 0.5, 0.99, EVAL_RADIUS_LIMIT])
    angles = np.array([0.0, 0.3, 2.0, 5.9])
    for f in (KorenblumExtremal(0.4), LogKorenblumExtremal(0.3), Constant(2.0 - 1j)):
        np.testing.assert_array_equal(evaluate_polar(f, r, angles), evaluate(f, _tensor_grid(r, angles)))


def test_evaluate_polar_guard():
    angles = np.array([0.0, 1.0])
    for f in (Poly([0, 1]), KorenblumExtremal(0.5)):
        with pytest.raises(DomainError):
            evaluate_polar(f, np.array([0.5, 1.0 - 1e-13]), angles)
        with pytest.raises(DomainError):
            evaluate_polar(f, np.array([-1.0]), angles)
        evaluate_polar(f, np.array([EVAL_RADIUS_LIMIT]), angles)


@pytest.mark.parametrize("bad", [1.0, -0.1, math.nan, math.inf, [0.5, math.nan]], ids=repr)
def test_check_radii_rejects_radii_outside_the_unit_interval(bad):
    with pytest.raises(DomainError, match=r"radius must lie in \[0, 1\)"):
        check_radii(bad)


def test_check_radii_returns_a_float_array():
    out = check_radii([0, 0.5])
    assert out.dtype == float and out.tolist() == [0.0, 0.5]


def test_extremal_alpha_ranges():
    for bad in (0.0, 1.0, -0.3, 2.0):
        with pytest.raises(DomainError):
            KorenblumExtremal(bad)
        with pytest.raises(DomainError):
            LogKorenblumExtremal(bad)


def test_derivative_examples():
    d = Poly([1, 1, 1]).derivative()
    np.testing.assert_allclose(d.coeffs, [1, 2])
    assert evaluate(Constant(3.0 + 1j).derivative(), 0.2) == 0.0
    # even functions have vanishing derivative at the origin
    assert abs(evaluate(KorenblumExtremal(0.4).derivative(), 0.0)) < 1e-14
    assert abs(evaluate(LogKorenblumExtremal(0.4).derivative(), 0.0)) < 1e-12


def test_derivative_closed_forms_match_finite_differences():
    h = 1e-6
    for f in (KorenblumExtremal(0.3), LogKorenblumExtremal(0.3)):
        df = f.derivative()
        for z in (0.2, 0.5 + 0.3j, -0.6j):
            fd = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
            assert evaluate(df, z) == pytest.approx(fd, rel=1e-7)


def test_taylor_truncate_examples():
    np.testing.assert_allclose(taylor_truncate(Constant(1.0), 3).coeffs, [1, 0, 0, 0])
    a = 0.35
    c = taylor_truncate(KorenblumExtremal(a), 2).coeffs
    np.testing.assert_allclose(c, [1.0, 0.0, a], atol=1e-10)
    lead = taylor_truncate(LogKorenblumExtremal(a), 0).coeffs[0]
    assert lead == pytest.approx(1.0 / log_weight_constant(a), abs=1e-10)


def test_taylor_truncate_validates_inputs():
    with pytest.raises(DomainError):
        taylor_truncate(Constant(1.0), -1)
    with pytest.raises(DomainError):
        taylor_truncate(KorenblumExtremal(0.3), 2, radius=1.5)


@pytest.mark.parametrize("n", [True, False, 2.5, 2.0, -1, "3", None], ids=repr)
def test_truncation_degree_must_be_a_nonnegative_integer(n):
    """Poly.truncate and taylor_truncate share one degree check, made before any extraction."""
    p = Poly([1.0, 2.0])
    for call in (
        lambda: p.truncate(n),
        lambda: taylor_truncate(p, n),
        lambda: taylor_truncate(KorenblumExtremal(0.3), n),
    ):
        with pytest.raises(DomainError, match="truncation degree must be a nonnegative integer"):
            call()


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, True, False], ids=repr)
def test_taylor_truncate_rejects_bool_nan_and_nonpositive_tol(tol):
    """The quadrature's tolerance rule, for a Poly and before any FFT of a closed form."""
    for f in (Poly([1.0, 2.0]), KorenblumExtremal(0.3)):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            taylor_truncate(f, 3, tol=tol)


def test_truncations_of_a_poly_are_its_prefix_or_zero_padding():
    """truncate and taylor_truncate of a Poly return a Poly holding the prefix or the zero-padded vector, bitwise."""
    rng = np.random.default_rng(3)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    p = Poly(c)
    for n in (0, 3, 8, 12, np.int64(5)):
        want = np.concatenate([c[: n + 1], np.zeros(max(n + 1 - c.size, 0), dtype=complex)])
        for got in (p.truncate(n), taylor_truncate(p, n)):
            assert type(got) is Poly and _same_bits(got.coeffs, want)
    assert type(taylor_truncate(KorenblumExtremal(0.3), 2)) is Poly


@pytest.mark.parametrize("c", [1.0, -2.5, 1.5 - 0.5j, -0.0 - 3j])
def test_constant_is_the_degree_zero_poly(c):
    """Constant(c) is a Poly with the constant's own values, image, truncation, message and repr."""
    from cesaronorm.cesaro import PolyImage, cesaro_transform

    f = Constant(c)
    assert isinstance(f, Poly) and f.value == complex(c)
    z = np.array([0.0, 0.5, -0.3 + 0.6j, 1.0 - 1e-12])
    assert _same_bits(evaluate(f, z), np.full(z.shape, complex(c), dtype=complex))
    assert evaluate(f, 0.5) == complex(c)
    image, want = cesaro_transform(f), PolyImage(Poly([c]))
    assert _same_bits(image.eval_at(z), want.eval_at(z))
    assert _same_bits(image.derivative().eval_at(z), want.derivative().eval_at(z))
    truncated = np.zeros(4, dtype=complex)
    truncated[0] = c
    assert _same_bits(taylor_truncate(f, 3).coeffs, truncated)
    assert repr(f) == f"Constant({complex(c)})"
    assert np.all(evaluate(f.derivative(), z) == 0.0)
    with pytest.raises(DomainError, match="constant must be finite"):
        Constant(complex(math.nan, 1.0))
    with pytest.raises(DomainError, match="constant must be finite"):
        Constant(math.inf)


coeff_st = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@given(st.lists(coeff_st, min_size=1, max_size=41))
@settings(max_examples=200, deadline=None)
def test_round_trip_poly_coefficients(coeffs):
    """taylor_truncate recovers polynomial coefficients to 1e-12."""
    p = Poly(coeffs)
    got = taylor_truncate(p, len(coeffs) - 1).coeffs
    assert float(np.max(np.abs(got - p.coeffs))) <= 1e-12


@given(st.lists(coeff_st, min_size=1, max_size=20), st.integers(0, 25))
@settings(max_examples=200, deadline=None)
def test_round_trip_with_padding(coeffs, n):
    p = Poly(coeffs)
    got = taylor_truncate(p, n).coeffs
    want = p.truncate(n).coeffs
    assert float(np.max(np.abs(got - want))) <= 1e-12


def test_round_trip_through_circle_extraction():
    """The FFT path (not the Poly shortcut) also recovers known coefficients."""
    from cesaronorm import ClosedForm

    coeffs = np.array([0.5, -1.0, 0.25j, 0.0, 2.0, -0.75])
    p = Poly(coeffs)
    f = ClosedForm(lambda z: p.eval_at(z), label="poly-as-closed-form")
    got = taylor_truncate(f, 5).coeffs
    assert float(np.max(np.abs(got - coeffs))) <= 1e-12


def test_branch_safety_in_the_disk():
    """Principal-branch inputs stay in the right half plane on 1e4 points."""
    rng = np.random.default_rng(7)
    z = np.sqrt(rng.uniform(0.0, 1.0, 10_000)) * np.exp(
        2j * np.pi * rng.uniform(0.0, 1.0, 10_000)
    )
    z *= 0.999999
    omsq = one_minus_sq(z)
    assert np.all(omsq.real > 0.0)
    for alpha in (0.1, 0.5, 0.9):
        log_factor = log_weight_constant(alpha) - np.log(omsq)
        assert np.all(log_factor.real > 1.0 / alpha)


@pytest.mark.parametrize("family", [KorenblumExtremal, LogKorenblumExtremal])
def test_derivative_commutes_with_truncation(family):
    """Coefficients of f' match the shifted coefficients of f at alpha = 0.3."""
    f = family(0.3)
    n = 12
    from_deriv = taylor_truncate(f.derivative(), n - 1).coeffs
    shifted = taylor_truncate(f, n).coeffs
    from_series = np.arange(1, n + 1) * shifted[1:]
    assert float(np.max(np.abs(from_deriv - from_series))) <= 1e-10


def test_extraction_failure_is_reported(monkeypatch):
    # too few sample points to stabilize a high-degree coefficient
    monkeypatch.setattr(functions, "_MAX_EXTRACTION_POINTS", 512)
    with pytest.raises(ConvergenceError):
        taylor_truncate(KorenblumExtremal(0.9), 40, radius=0.99)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _disk_samples(n=4000, seed=11):
    """Dense disk points by area, plus radii up to the guard 1 - 1e-12 and the real axis near +-1."""
    rng = np.random.default_rng(seed)
    z = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))
    s = 1.0 - np.logspace(-12, -1, 120)
    angles = 2.0 * np.pi * rng.uniform(0.0, 1.0, s.size)
    return np.concatenate([z, s * np.exp(1j * angles), s, -s, [0j]])


def _double_double(values):
    """mpmath values as (hi, lo) complex arrays with hi + lo their value to about 1e-32."""
    hi = np.array([complex(v) for v in values])
    lo = np.array([complex(v - h) for v, h in zip(values, hi)])
    return hi, lo


@pytest.mark.parametrize("alpha", [0.05, 0.33, 0.5, 0.9])
def test_extremals_from_one_log_match_the_power_formula(alpha):
    """Values and derivatives from principal_log are as close to mpmath as the np.power formulas, also near z = +-1.

    On the 361 boundary points of _disk_samples and 500 of its disk
    points, per family, the worst value error relative to |f| and the
    worst derivative error relative to |f| |2z/(1 - z^2)| are no larger
    than those of np.power with np.log at the same points.
    """
    import mpmath as mp

    z = _disk_samples(seed=int(100 * alpha))
    z = np.concatenate([z[:500], z[4000:]])
    w = one_minus_sq(z)
    plain = np.power(w, -alpha)
    log_term = log_weight_constant(alpha) - np.log(w)
    power_formulas = {
        KorenblumExtremal: (plain, 2.0 * alpha * z * np.power(w, -alpha - 1.0)),
        LogKorenblumExtremal: (plain / log_term, plain / log_term * (2.0 * z / w) * (alpha - 1.0 / log_term)),
    }
    with mp.workdps(40):
        a, c0 = mp.mpf(alpha), 1 / mp.mpf(alpha) + mp.log(2)
        exact = {KorenblumExtremal: ([], []), LogKorenblumExtremal: ([], [])}
        for point in z:
            x = mp.mpc(point)
            w_exact = 1 - x * x
            log_w = mp.log(w_exact)
            value = mp.exp(-a * log_w)
            exact[KorenblumExtremal][0].append(value)
            exact[KorenblumExtremal][1].append(2 * a * x * value / w_exact)
            log_factor = c0 - log_w
            exact[LogKorenblumExtremal][0].append(value / log_factor)
            exact[LogKorenblumExtremal][1].append(value / log_factor * (2 * x / w_exact) * (a - 1 / log_factor))
    scale = np.abs(2.0 * z / w)
    inside = scale > 0.0
    for family, (want, want_slope) in exact.items():
        (hi, lo), (slope_hi, slope_lo) = _double_double(want), _double_double(want_slope)
        f = family(alpha)
        value, slope = f.eval_at(z), f.derivative().eval_at(z)
        ref_value, ref_slope = power_formulas[family]

        def worst(got, got_slope):
            value_err = np.abs((got - hi) - lo) / np.abs(hi)
            slope_err = np.abs((got_slope - slope_hi) - slope_lo)[inside] / (np.abs(hi) * scale)[inside]
            return np.max(value_err), np.max(slope_err)

        got_worst, ref_worst = worst(value, slope), worst(ref_value, ref_slope)
        assert np.all(np.asarray(got_worst) <= np.asarray(ref_worst)), (family, got_worst, ref_worst)
        assert np.all(slope[~inside] == 0.0)


def test_principal_log_matches_numpy_log():
    """log|w| + i atan2(Im w, Re w) within 5e-16 max(1, |log w|) of np.log, in both half-planes and on the cut."""
    rng = np.random.default_rng(3)
    w = rng.standard_normal(2000) * np.exp(rng.uniform(-30.0, 30.0, 2000)) + 1j * rng.standard_normal(2000)
    want = np.log(w)
    got = functions.principal_log(w)
    assert np.all(np.abs(got - want) <= 5e-16 * np.maximum(1.0, np.abs(want)))
    assert functions.principal_log(np.array(-1.0 + 0j)) == np.pi * 1j
