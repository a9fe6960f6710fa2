"""The radial profiles in L = log(1/(1 - r)): an mpmath table, the radial verdicts, the sup search, the boundary limits.

The same table holds the Bloch-type norm of C(1), a radial sup too, and its witness W.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from cesaronorm import (
    KorenblumExtremal,
    KorenblumLog,
    LogKorenblumExtremal,
    cesaro_integral,
    constant_one_bloch_norm,
    log_to_log_norm,
    verify_theorem,
)
from cesaronorm.errors import DomainError
from cesaronorm.numerics import radius_grid
from cesaronorm.spaces import weight_at
from cesaronorm.theorems import (
    RESULTS,
    _log_witness,
    _profile_columns,
    constant_one_bloch_sup,
    profile_sup,
    slice_values,
)

# written by tests/make_profile_reference.py (mpmath, 30 digits)
TABLE = json.loads(pathlib.Path(__file__).with_name("profile_reference.json").read_text())
REFERENCE, T41_SUP, T51_SUP, BLOCH_C1 = TABLE["profiles"], TABLE["t41_sup"], TABLE["t51_sup"], TABLE["bloch_c1"]
C1_WITNESS, T51_TAIL, T51_READ = TABLE["c1_witness"], TABLE["t51_tail"], TABLE["t51_read"]
PROFILES = (("T3.1", "P3"), ("T4.1", "P4"), ("T5.1", "P5"))
RADIAL_ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]


@pytest.mark.parametrize("row", REFERENCE, ids=lambda row: f"alpha={row['alpha']}-k={row['k']}")
def test_profiles_match_the_mpmath_table(row):
    """P3, P4 and P5 at r = 1 - 2^-k to 1e-12 relative, out to k = 40."""
    r = 1.0 - 2.0 ** -row["k"]
    for theorem_id, name in PROFILES:
        (value,) = slice_values(theorem_id, [r], row["alpha"])
        assert value == pytest.approx(float(row[name]), rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("theorem_id", ["T3.1", "T4.1", "T5.1"])
@pytest.mark.parametrize("alpha", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_profile_is_the_weighted_operator_image_of_the_extremal(theorem_id, alpha):
    """The L-form profile is w_Y(r) |C f_X(r)| at r = 1 - 2^-k, k <= 20, to 1e-12 relative.

    f_X is the source's norm-one extremal and w_Y the target's weight; C f_X
    is the finite-integral form, to 1e-13 of the profile's value.
    """
    source, target = RESULTS[theorem_id].pair
    extremal = (LogKorenblumExtremal if source is KorenblumLog else KorenblumExtremal)(alpha)
    radii = 1.0 - 2.0 ** -np.arange(21.0)
    for r, value in zip(radii, slice_values(theorem_id, radii, alpha)):
        weight = weight_at(target(alpha), r)
        image = weight * abs(cesaro_integral(extremal, r, tol=1e-13 * value / weight))
        assert image == pytest.approx(value, rel=1e-12, abs=0.0), r


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.95])
def test_t51_profile_is_the_t41_profile_times_the_log_factor(alpha):
    radii = radius_grid(40)
    delta = 1.0 - radii  # exact on the grid
    log_factor = 1.0 / alpha - np.log(delta * (2.0 - delta) / 2.0)  # log(2 e^(1/alpha) / (1 - r^2))
    expected = log_factor * np.array(slice_values("T4.1", radii, alpha))
    np.testing.assert_allclose(slice_values("T5.1", radii, alpha), expected, rtol=1e-15)


@pytest.mark.parametrize("theorem_id", ["T3.1", "T4.1", "T5.1"])
@pytest.mark.parametrize("alpha", RADIAL_ALPHAS)
def test_every_radial_verdicts_case_passes(theorem_id, alpha):
    """The 57 operations of the radial-verdicts benchmark, T5.1 at alpha = 0.15, 0.2 and 0.4 included."""
    verdict = verify_theorem(theorem_id, alpha)
    assert verdict.passed, verdict.notes
    assert profile_sup(theorem_id, alpha).converged


@pytest.mark.parametrize("alpha", [round(0.01 * k, 2) for k in range(1, 100)] + [1e-9, 1e-6, 1e-4, 1e-3])
def test_t31_limit_fit_finds_reciprocal_alpha(alpha):
    """P3 at L = 40/alpha, where e^(-alpha L) < 5e-18, is 1/alpha to 1e-14 relative, with no model fitted."""
    est = profile_sup("T3.1", alpha)
    assert est.extrapolated_limit == pytest.approx(1.0 / alpha, rel=1e-14, abs=0.0)
    assert est.converged


@pytest.mark.parametrize("alpha", [round(0.01 * k, 2) for k in range(1, 100)] + [1e-9, 1e-6, 1e-4, 1e-3])
def test_t51_limit_fit_finds_reciprocal_alpha(alpha):
    """P5 at L = 40/alpha less its exact tail c/alpha is 1/alpha to 1e-14 relative, with no model fitted."""
    est = log_to_log_norm(alpha)
    assert est.extrapolated_limit == pytest.approx(1.0 / alpha, rel=1e-14, abs=0.0)


def test_t51_tail_is_the_mpmath_constant():
    """c = 41 e^-41 (Ei(41) - Ei(1)) - 1, alpha Q - 1 at the read, as the package rounds it."""
    assert RESULTS["T5.1"].limit_tail == float(T51_TAIL)


@pytest.mark.parametrize("row", T51_READ, ids=lambda row: f"alpha={row['alpha']}")
def test_t51_read_matches_the_mpmath_profile(row):
    """P5 at L = 40/alpha, the depth of the limit read, to 1e-14 relative."""
    alpha, depths = row["alpha"], np.array([row["L"]])
    (value,) = _profile_columns("T5.1", alpha)(depths)[2]
    assert value == pytest.approx(float(row["P5"]), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("theorem_id", ["T3.1", "T4.1", "T5.1"])
@pytest.mark.parametrize("alpha", [10.0**-j for j in range(1, 16)] + [1e-300])
def test_sups_converge_at_small_alpha(theorem_id, alpha):
    """converged is relative to the value: P5 near 3.3 / alpha is found to rounding down to alpha = 1e-300."""
    assert profile_sup(theorem_id, alpha).converged


@pytest.mark.parametrize("row", T41_SUP, ids=lambda row: f"alpha={row['alpha']}")
def test_t41_sup_matches_the_mpmath_root(row):
    """The sup to 1e-10 relative and its depth L* to 1e-6, below alpha = 0.048 too, where L* is past the grid."""
    alpha, depth, sup = row["alpha"], float(row["L"]), float(row["sup"])
    est = profile_sup("T4.1", alpha)
    assert est.value == pytest.approx(sup, rel=1e-10, abs=0.0)
    assert est.argmax_depth == pytest.approx(depth, rel=1e-6)
    assert est.converged
    slope = _profile_columns("T4.1", alpha)(np.array([depth]))[3]
    assert abs(slope[0]) < 1e-12  # the reference root is a root of the package's P' too
    verdict = verify_theorem("T4.1", alpha)
    assert verdict.computed == est.value
    if depth > 14.5:  # r = 1 - e^-L prints as 1 to six digits
        assert f"at 1 - r = {np.exp(-depth):.3e}" in verdict.notes


@pytest.mark.parametrize("row", T51_SUP, ids=lambda row: f"alpha={row['alpha']}")
def test_t51_sup_matches_the_mpmath_root(row):
    """The sup to 1e-14 relative and its depth L* to 1e-6, below alpha = 0.11 too, where L* is past the grid."""
    alpha, depth, sup = row["alpha"], float(row["L"]), float(row["sup"])
    est = profile_sup("T5.1", alpha)
    assert est.value == pytest.approx(sup, rel=1e-14, abs=0.0)
    assert est.argmax_depth == pytest.approx(depth, rel=1e-6)
    assert est.converged


@pytest.mark.parametrize("alpha", [round(0.01 * k, 2) for k in range(1, 100)])
def test_t41_and_t51_peak_before_four_over_alpha(alpha):
    """Both sups lie inside the sampled depths, and the T5.1 sup is no lower than its boundary limit."""
    for theorem_id in ("T4.1", "T5.1"):
        est = profile_sup(theorem_id, alpha)
        assert est.argmax_depth < 4.0 / alpha, theorem_id
        assert est.converged, theorem_id
    assert est.value >= est.extrapolated_limit


def test_t51_notes_print_one_minus_r_where_r_rounds_to_one():
    """At alpha = 0.05 the T5.1 sup lies deeper than L = 14.5, where r prints as 1 to six digits."""
    est = log_to_log_norm(0.05)
    assert est.argmax_depth > 14.5
    assert f"at 1 - r = {np.exp(-est.argmax_depth):.3e};" in verify_theorem("T5.1", 0.05).notes


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("theorem_id, alpha", [("T3.1", 1e-307), ("T5.1", 1e-307), ("T4.1", 5e-324)])
def test_a_depth_past_the_float_range_is_a_domain_error(theorem_id, alpha):
    """40/alpha or the steps up to 4/alpha overflow: the table refuses L = inf instead of growing forever."""
    with pytest.raises(DomainError, match="depth L must be finite"):
        profile_sup(theorem_id, alpha)


def test_t31_notes_name_the_depth_of_the_read():
    """At alpha = 0.05 the sup and the read lie at L = 800, where 1 - r = e^-L underflows: the notes print e^-800."""
    notes = verify_theorem("T3.1", 0.05).notes
    assert notes == "sup 20 at 1 - r = e^-800; boundary limit 20 at 1 - r = e^-800; paper [20, 20]"


@pytest.mark.parametrize("row", BLOCH_C1, ids=lambda row: f"alpha={row['alpha']}")
def test_constant_one_bloch_norm_matches_the_mpmath_max(row):
    """1 + max_L W(L) to 2e-15 relative, from L* = 6.2 at alpha = 1.01 to L* = 0.0013 at alpha = 500.

    The reference argmax is a root of the package's d(log W)/dL too, to the
    eps / L* that its cancellation of L / m against 2 / r leaves.
    """
    alpha, depth = row["alpha"], float(row["L"])
    assert constant_one_bloch_norm(alpha) == pytest.approx(float(row["norm"]), rel=2e-15, abs=0.0)
    _, (slope,) = _log_witness(np.array([depth]), alpha)
    assert abs(slope) < 1e-15 / depth


@pytest.mark.parametrize("row", BLOCH_C1, ids=lambda row: f"alpha={row['alpha']}")
def test_constant_one_bloch_sup_reports_the_mpmath_argmax(row):
    """The sup's value is constant_one_bloch_norm's, bitwise, at its depth L* to 1e-6 relative."""
    est = constant_one_bloch_sup(row["alpha"])
    assert est.value == constant_one_bloch_norm(row["alpha"]) and est.converged
    assert est.argmax_depth == pytest.approx(float(row["L"]), rel=1e-6)
    assert est.argmax_radius == -math.expm1(-est.argmax_depth)


@pytest.mark.parametrize("alpha", [1e-300, 1e-15, 0.5, 1.0 - 1e-15], ids=repr)
def test_grid_profiles_stay_far_below_the_overflow_guard(alpha):
    """On the radius grid P3 and P5 stay below 27.73 (about 40 log 2, the grid's end depth) and P4 below 0.65.

    So profile_sup, which no longer checks its grid against
    numerics.OVERFLOW_GUARD, never meets a value past it.
    """
    for theorem_id, bound in (("T3.1", 27.73), ("T4.1", 0.65), ("T5.1", 27.73)):
        values = np.array(slice_values(theorem_id, radius_grid(), alpha))
        assert np.all(np.isfinite(values) & (values > 0.0) & (values <= bound)), theorem_id


@pytest.mark.parametrize("row", C1_WITNESS, ids=lambda row: f"alpha={row['alpha']}-k={row['k']}")
def test_c1_witness_matches_the_mpmath_table(row):
    """W at 1 - r = 10^-k, to a few ulps of its exponent alpha log 2 + (1 - alpha) L."""
    alpha, depth = row["alpha"], row["L"]
    (log_w,), _ = _log_witness(np.array([depth]), alpha)
    rel = 4e-16 * (4.0 + abs(1.0 - alpha) * depth)
    assert math.exp(log_w) == pytest.approx(float(row["W"]), rel=rel, abs=0.0)


@pytest.mark.parametrize("theorem_id", ["T3.1", "T4.1", "T5.1"])
@pytest.mark.parametrize("alpha", [row["alpha"] for row in T41_SUP])
def test_slope_matches_a_central_difference_of_slice_values(theorem_id, alpha):
    """dP/dL from k(L) - alpha I(L) against (P(L + h) - P(L - h)) / 2h, h = 1e-4, to 1e-8 of P."""
    depths = np.array([0.3, 1.0, 3.0, 10.0, 20.0])
    _, _, values, slopes = _profile_columns(theorem_id, alpha)(depths)
    up, down = -np.expm1(-(depths + 1e-4)), -np.expm1(-(depths - 1e-4))
    step = np.log1p(-down) - np.log1p(-up)  # the depths of the rounded radii
    central = (np.array(slice_values(theorem_id, up, alpha)) - slice_values(theorem_id, down, alpha)) / step
    np.testing.assert_allclose(central, slopes, rtol=0.0, atol=1e-8 * values.max())


@pytest.mark.parametrize("alpha", RADIAL_ALPHAS)
def test_t51_limit_fit_passes_at_tol_1e7(alpha):
    """The read leaves A alpha - 1 within 1e-14, so verify passes at tol 1e-13, and at 1e-7 with it."""
    verdict = verify_theorem("T5.1", alpha, tol=1e-13)
    assert verdict.passed, verdict.notes
    assert verdict.computed * alpha == pytest.approx(1.0, rel=0.0, abs=1e-14)
