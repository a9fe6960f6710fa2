"""Identified results: integrands, slice integrals, bounds, verdicts."""

import json
import math

import numpy as np
import pytest

from cesaronorm import (
    BlochAlpha,
    ClosedForm,
    DivergenceFlag,
    DomainError,
    HardyInf,
    Korenblum,
    KorenblumExtremal,
    KorenblumLog,
    LogKorenblumExtremal,
    THEOREM_IDS,
    PreconditionError,
    SampleConfig,
    TheoremVerdict,
    bloch_upper_bound,
    bloch_witness_profile,
    boundary_envelope,
    constant_one_bloch_norm,
    h_analytic,
    h_closed_form,
    h_series_coeff,
    korenblum_sup,
    log_to_log_norm,
    log_to_plain_norm,
    log_weight_constant,
    operator_norm_lower_bound,
    sup_over_radius,
    taylor_truncate,
    verify_theorem,
)
from cesaronorm import theorems
from cesaronorm.theorems import (
    RESULTS,
    bloch_lower_bound,
    bloch_lower_bound_integral,
    divergence_witness,
    hardy_to_bloch_bounds,
    integrand_F,
    korenblum_norm_exact,
    korenblum_slice_integral,
    log_ratio,
    log_to_log_slice,
    log_to_plain_lower_bound,
    log_to_plain_slice,
    profile_integrand,
)


def test_integrand_examples():
    for alpha in (0.1, 0.5, 0.9):
        assert float(integrand_F(0.5, 0.0, alpha)) == 1.0
        ts = np.linspace(0.0, 8.0, 33)
        np.testing.assert_array_equal(integrand_F(0.0, ts, alpha), np.exp(-ts))


def test_integrand_boundary_limit():
    # for fixed t the r -> 1- limit of F is e^(-alpha t)
    r = 1.0 - 1e-9
    for alpha in (0.25, 0.5, 0.75):
        for t in (0.0, 0.5, 1.0, 2.0, 5.0):
            want = math.exp(-alpha * t)
            assert float(integrand_F(r, t, alpha)) == pytest.approx(want, rel=1e-5)


def test_integrand_domain():
    with pytest.raises(DomainError):
        integrand_F(1.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        integrand_F(0.5, -0.1, 0.5)
    with pytest.raises(DomainError):
        integrand_F(0.5, 1.0, 1.2)


def test_slice_integrals_at_origin():
    for alpha in (0.2, 0.5, 0.8):
        assert korenblum_slice_integral(0.0, alpha) == pytest.approx(1.0, abs=1e-9)
        assert log_to_plain_slice(0.0, alpha) == pytest.approx(
            1.0 / log_weight_constant(alpha), abs=1e-9
        )
        assert log_to_log_slice(0.0, alpha) == pytest.approx(1.0, abs=1e-9)


def test_korenblum_norm_exact_contract():
    assert korenblum_norm_exact(0.5) == 2.0
    assert korenblum_norm_exact(0.25) == 4.0
    for bad in (0.6, 0.0, -1.0, 1.0):
        with pytest.raises(DomainError):
            korenblum_norm_exact(bad)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4, 0.5])
def test_weighted_sup_reaches_reciprocal_alpha(alpha):
    """The supremum is the boundary limit 1/alpha; no interior value beats it."""
    est = korenblum_sup(alpha)
    target = 1.0 / alpha
    assert est.extrapolated_limit is not None
    assert abs(est.extrapolated_limit - target) <= 0.01 * target
    assert est.value <= target + 1e-6
    assert not est.diverged


def test_log_to_plain_norm_values():
    # interior maximizers; values frozen from converged runs
    cases = {0.2: 0.42874767, 0.5: 0.48073222, 0.8: 0.58600492}
    for alpha, want in cases.items():
        est = log_to_plain_norm(alpha)
        assert est.value == pytest.approx(want, abs=1e-6)
        assert est.value >= log_to_plain_lower_bound(alpha) - 1e-6
        assert 0.0 < est.argmax_radius < 1.0


def test_log_to_plain_lower_bound_formula():
    assert log_to_plain_lower_bound(0.5) == pytest.approx(1.0 / (2.0 + math.log(2.0)), abs=1e-15)


@pytest.mark.parametrize("alpha,sup_value", [(0.25, 5.21682), (0.5, 2.62902)])
def test_log_to_log_norm_boundary(alpha, sup_value):
    est = log_to_log_norm(alpha)
    assert est.value == pytest.approx(sup_value, abs=1e-4)
    assert est.extrapolated_limit is not None
    assert est.extrapolated_limit >= 0.99 / alpha
    assert math.isfinite(est.value)


@pytest.mark.parametrize("t", [math.nan, -1.0, np.array([0.5, math.nan])], ids=repr)
def test_profile_integrands_reject_negative_and_nan_t(t):
    with pytest.raises(DomainError, match="t must be nonnegative"):
        integrand_F(0.5, t, 0.3)
    with pytest.raises(DomainError, match="t must be nonnegative"):
        log_ratio(0.5, t, 0.3)
    for theorem_id in ("T3.1", "T4.1", "T5.1"):
        with pytest.raises(DomainError, match="t must be nonnegative"):
            profile_integrand(theorem_id, 0.5, t, 0.3)


def test_profile_integrands_vanish_at_infinite_t():
    assert float(integrand_F(0.5, math.inf, 0.3)) == 0.0
    # phi_t(r) -> 0, where the log factor is log(2 e^(1/alpha))
    want = (log_weight_constant(0.3) - math.log(0.75)) / log_weight_constant(0.3)
    assert float(log_ratio(0.5, math.inf, 0.3)) == pytest.approx(want, rel=1e-15)
    for theorem_id in ("T3.1", "T4.1", "T5.1"):
        value, _ = profile_integrand(theorem_id, 0.5, np.array([0.0, math.inf]), 0.3)
        assert value[1] == 0.0


def test_log_ratio_is_one_at_zero_time():
    for r in (0.0, 0.3, 0.9, 1.0 - 2.0**-30):
        assert float(log_ratio(r, 0.0, 0.5)) == pytest.approx(1.0, abs=1e-14)


def test_log_ratio_approach_is_slow_but_monotone():
    """ratio - 1 decays like t / log(1/(1-r)): monotone, positive, rate-bounded."""
    alpha = 0.5
    for t in (0.5, 2.0, 5.0):
        gaps = []
        for k in (10, 15, 20, 25, 30):
            ratio = float(log_ratio(1.0 - 2.0**-k, t, alpha))
            gaps.append(ratio - 1.0)
        assert all(g > 0.0 for g in gaps)
        assert gaps == sorted(gaps, reverse=True)
        # quantitative rate at the last radius: gap ~ t / (k log 2 - t + C)
        k = 30
        assert gaps[-1] <= t / (k * math.log(2.0) - t - 3.0)
        # halving 1 - r halves the gap only logarithmically, not geometrically
        assert gaps[-1] > 0.25 * gaps[-2]


def test_bloch_upper_bound_branches():
    assert bloch_upper_bound(2.0) == 4.0
    assert bloch_upper_bound(1.5) == pytest.approx(2.0**1.5 / 0.5, abs=1e-12)
    assert bloch_upper_bound(3.0) == pytest.approx(8.0, abs=1e-12)
    a = 1.05
    big_a = 1.0 + (2.0 / (2 * a - 1)) ** (2 * a - 1) * a**a * (a - 1) ** (a - 1)
    assert bloch_upper_bound(a) == pytest.approx(max(big_a, 2.0**a / (a - 1)), abs=1e-12)
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(DomainError):
            bloch_upper_bound(bad)


@pytest.mark.parametrize("alpha", [1.05, 3.0, 143.0, 144.0, 150.0, 300.0, 515.0, 521.0])
def test_bloch_upper_bound_matches_mpmath_past_the_overflow_of_its_factors(alpha):
    """Both terms at 40 digits: A tends to 2, and the bound is the larger term."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        big_a = 1 + (2 / (2 * a - 1)) ** (2 * a - 1) * a**a * (a - 1) ** (a - 1)
        if a <= 2:
            other = 2**a / (a - 1)
        else:
            other = 2**a * (2**a - a - 1) / (a - 1) ** 2
        want = float(max(big_a, other))
    assert bloch_upper_bound(alpha) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("alpha", [522.0, 600.0, 1100.0, 1e300])
def test_bloch_upper_bound_beyond_the_float_range_is_a_domain_error(alpha):
    with pytest.raises(DomainError, match="float range"):
        bloch_upper_bound(alpha)


def test_bloch_lower_bound_and_integral():
    assert bloch_lower_bound(1.2) == 1.5
    with pytest.raises(DomainError):
        bloch_lower_bound(1.0)
    assert bloch_lower_bound_integral() == pytest.approx(1.5, abs=1e-9)


def test_bound_ordering_on_dense_grid():
    for alpha in np.linspace(1.001, 6.0, 120):
        assert bloch_lower_bound(float(alpha)) <= bloch_upper_bound(float(alpha)) + 1e-12


def test_hardy_to_bloch_bounds_branches():
    assert hardy_to_bloch_bounds(1.0) == (3.0, 4.0)
    assert hardy_to_bloch_bounds(2.0) == (1.5, 4.0)
    flag = hardy_to_bloch_bounds(0.5)
    assert isinstance(flag, DivergenceFlag)
    assert flag.value > 100.0
    with pytest.raises(DomainError):
        hardy_to_bloch_bounds(0.0)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_boundary_envelope_argmax(alpha):
    est = sup_over_radius(lambda r: boundary_envelope(r, alpha), 1e-10)
    assert est.argmax_radius == pytest.approx(1.0 / (2.0 * alpha - 1.0), abs=1e-6)


def test_boundary_envelope_value_example():
    # alpha = 2: maximum (4/3)^2 (2/3) = 32/27 at r = 1/3
    assert float(boundary_envelope(1.0 / 3.0, 2.0)) == pytest.approx(32.0 / 27.0, abs=1e-12)
    with pytest.raises(DomainError):
        boundary_envelope(0.5, 0.0)


def test_witness_profile_and_probe():
    # C(1)'(0) = 1/2, and every weight is 1 at the origin
    for alpha in (0.3, 1.0, 2.0):
        assert bloch_witness_profile(0.0, alpha) == pytest.approx(0.5, abs=1e-12)
    # one closed-form call for a grid, bitwise as one radius at a time
    radii = np.array([0.0, 0.5, 1.0 - 1e-6, 1.0 - 2.0**-39])
    values = bloch_witness_profile(radii, 0.5)
    assert values.tolist() == [bloch_witness_profile(float(r), 0.5) for r in radii]
    assert isinstance(bloch_witness_profile(0.5, 0.5), float)
    # 2^alpha (1 - r)^(alpha - 1) to leading order
    assert values[-1] == pytest.approx(2.0**0.5 * 2.0 ** (39 * 0.5), rel=1e-9)
    for bad in (1.0, -0.1, math.nan, np.array([0.5, 1.0])):
        with pytest.raises(DomainError):
            bloch_witness_profile(bad, 0.5)
    # the fit's deepest witness, at L = 700, where r rounds to 1: 2^alpha e^((1 - alpha) L)
    (depth, value), _, _, _ = divergence_witness(0.5)
    assert (depth, value) == (700.0, pytest.approx(2.0**0.5 * math.exp(0.5 * 700.0), rel=1e-13))


def test_h_series_coeff_values():
    assert h_series_coeff(0) == 1.0
    assert h_series_coeff(1) == 1.0
    assert h_series_coeff(2) == pytest.approx(0.25, abs=1e-15)
    assert all(h_series_coeff(n) > 0.0 for n in range(3, 200))
    with pytest.raises(DomainError):
        h_series_coeff(-1)


def test_h_closed_form_profile():
    assert h_closed_form(1e-5) == pytest.approx(1.0 + 1e-5, abs=1e-9)
    # 200-term series oracle at r = 0.5
    r = 0.5
    want = sum(h_series_coeff(n) * r**n for n in range(200))
    assert h_closed_form(r) == pytest.approx(want, abs=1e-12)
    assert h_closed_form(1.0 - 1e-6) == pytest.approx(3.0, abs=1e-4)
    grid = np.linspace(0.01, 0.999, 200)
    vals = [h_closed_form(float(r)) for r in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        h_closed_form(1.0)


def test_h_analytic_matches_closed_form_and_series():
    rs = np.array([5e-5, 1e-4, 2e-4, 0.01, 0.3, 0.9])
    got = h_analytic(rs.astype(complex))
    want = np.array([h_closed_form(float(r)) for r in rs])
    np.testing.assert_allclose(got.real, want, atol=1e-10)
    np.testing.assert_allclose(got.imag, np.zeros_like(want), atol=1e-12)


def test_h_coefficients_via_extraction():
    f = ClosedForm(h_analytic, label="h")
    got = taylor_truncate(f, 12).coeffs
    want = np.array([h_series_coeff(n) for n in range(13)])
    assert float(np.max(np.abs(got - want))) <= 1e-10


def test_verdict_serialization_round_trip():
    v = verify_theorem("T6.2", 2.0)
    d = v.to_dict()
    again = json.loads(json.dumps(d))
    assert again["theorem_id"] == "T6.2"
    assert again["theoretical"] == [1.5, 4.0]
    assert isinstance(again["passed"], bool)
    assert again["computed"] == pytest.approx(v.computed)


def test_verify_fast_subset_passes():
    assert verify_theorem("T3.1", 0.25).passed
    assert verify_theorem("T4.1", 0.5).passed
    assert verify_theorem("T5.1", 0.5).passed
    assert verify_theorem("T6.3", 1.5).passed
    v = verify_theorem("T7.1", 0.5)
    assert v.passed
    assert "divergence confirmed" in v.notes


def test_verify_t31_above_half_is_lower_bound_only():
    v = verify_theorem("T3.1", 0.6)
    assert v.passed
    assert "lower bound only" in v.notes


def test_verify_t71_near_one_reports_slow_witness():
    # the witness grows only like (1 - r)^-0.05, and its fitted slope in L says so
    v = verify_theorem("T7.1", 0.95)
    assert v.passed
    assert "divergence confirmed" in v.notes
    assert "slope b = 0.05 vs 1 - alpha = 0.05" in v.notes
    assert "at 1 - r = e^-700" in v.notes


# 1 - 10^-j for j = 1..15, the last float below 1, and 0.01..0.99
T71_SWEEP = [1.0 - 10.0**-j for j in range(1, 16)] + [float(np.nextafter(1.0, 0.0))]
T71_SWEEP = sorted(set(T71_SWEEP + [round(0.01 * k, 2) for k in range(1, 100)]))


@pytest.mark.parametrize("alpha", T71_SWEEP)
def test_t71_slope_fit_confirms_blow_up(alpha):
    """The fit sees the slope 1 - alpha at L = 40..700, down to 1.1e-16 at the last float below 1."""
    (depth, value), slope, misfit, confirmed = divergence_witness(alpha)
    assert confirmed and verify_theorem("T7.1", alpha).passed
    assert isinstance(RESULTS["T7.1"].bounds(alpha), DivergenceFlag)
    assert abs(slope - (1.0 - alpha)) <= 1e-15
    assert misfit <= 1e-12
    # log W = alpha log 2 + (1 - alpha) L to rounding where r rounds to 1
    assert (depth, value) == (700.0, pytest.approx(2.0**alpha * math.exp((1.0 - alpha) * 700.0), rel=1e-13))


def test_t71_slope_fit_does_not_confirm_at_alpha_one():
    # W tends to 2 at alpha = 1: the fitted slope is rounding, below 10 misfits over the window
    (_, value), slope, misfit, confirmed = divergence_witness(1.0)
    assert not confirmed
    assert value == 2.0
    assert abs(slope) <= 1e-17
    # the norm is 1 + W at L = inf, exactly
    verdict = verify_theorem("T7.1", 1.0)
    assert verdict.passed and verdict.computed == 3.0


def test_unconfirmed_blow_up_is_a_precondition_error(monkeypatch):
    """bounds, and so the empirical pair, flag divergence only on a confirmed fit."""
    monkeypatch.setattr(theorems, "divergence_witness", lambda alpha: ((700.0, 2.0), 0.0, 1.0, False))
    with pytest.raises(PreconditionError, match="does not confirm"):
        hardy_to_bloch_bounds(0.5)
    with pytest.raises(PreconditionError, match="does not confirm"):
        operator_norm_lower_bound(HardyInf(), BlochAlpha(0.5), SampleConfig(count=1))


def test_verify_domain_errors():
    with pytest.raises(DomainError):
        verify_theorem("T9.9", 0.5)
    with pytest.raises(DomainError):
        verify_theorem("T3.1", 1.2)
    with pytest.raises(DomainError):
        verify_theorem("T6.2", 1.0)
    with pytest.raises(DomainError):
        verify_theorem("T7.1", 0.0)
    with pytest.raises(DomainError):
        verify_theorem("T3.1", 0.25, tol=0.0)
    with pytest.raises(DomainError):
        verify_theorem("T3.1", float("nan"))


@pytest.mark.parametrize("tol", [True, False, math.nan, math.inf, -math.inf, -1e-3], ids=repr)
def test_verify_rejects_bool_and_non_finite_tol(tol):
    with pytest.raises(DomainError, match="tolerance"):
        verify_theorem("T3.1", 0.25, tol=tol)


def test_theorem_id_registry():
    assert THEOREM_IDS == ("T3.1", "T4.1", "T5.1", "T6.2", "T6.3", "T7.1")
    assert set(TheoremVerdict.__dataclass_fields__) >= {
        "theorem_id",
        "alpha",
        "theoretical",
        "computed",
        "tolerance",
        "passed",
        "notes",
    }


def test_verify_rejects_bool_alpha():
    # bool is an int subclass; True must not pass as alpha = 1
    for theorem_id in ("T3.1", "T7.1"):
        with pytest.raises(DomainError):
            verify_theorem(theorem_id, True)


# every entry point that takes alpha, called with an otherwise valid input
ALPHA_ENTRY_POINTS = {
    "integrand_F": lambda a: integrand_F(0.5, 1.0, a),
    "log_ratio": lambda a: log_ratio(0.5, 1.0, a),
    "log_to_plain_lower_bound": log_to_plain_lower_bound,
    "korenblum_norm_exact": korenblum_norm_exact,
    "bloch_upper_bound": bloch_upper_bound,
    "bloch_lower_bound": bloch_lower_bound,
    "hardy_to_bloch_bounds": hardy_to_bloch_bounds,
    "boundary_envelope": lambda a: boundary_envelope(0.5, a),
    "bloch_witness_profile": lambda a: bloch_witness_profile(0.5, a),
    "constant_one_bloch_norm": constant_one_bloch_norm,
    "Korenblum": Korenblum,
    "KorenblumLog": KorenblumLog,
    "BlochAlpha": BlochAlpha,
    "KorenblumExtremal": KorenblumExtremal,
    "LogKorenblumExtremal": LogKorenblumExtremal,
    **{f"verify_theorem-{tid}": (lambda a, tid=tid: verify_theorem(tid, a)) for tid in THEOREM_IDS},
}


@pytest.mark.parametrize("alpha", [True, math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
def test_alpha_rejects_bool_and_non_finite(entry, alpha):
    with pytest.raises(DomainError, match="alpha"):
        ALPHA_ENTRY_POINTS[entry](alpha)
