"""The radial profiles in L = log(1/(1 - r)): an mpmath table, the radial verdicts, the sup search, the T5.1 limit fit.

The same table holds the Bloch-type norm of C(1), a radial sup too, and its witness W.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from cesaronorm import constant_one_bloch_norm, log_to_log_norm, verify_theorem
from cesaronorm.errors import DomainError
from cesaronorm.numerics import radius_grid
from cesaronorm.theorems import _log_witness, _profile_at, _profile_table, profile_sup, slice_values

# written by tests/make_profile_reference.py (mpmath, 30 digits)
TABLE = json.loads(pathlib.Path(__file__).with_name("profile_reference.json").read_text())
REFERENCE, T41_SUP, T51_SUP, BLOCH_C1 = TABLE["profiles"], TABLE["t41_sup"], TABLE["t51_sup"], TABLE["bloch_c1"]
C1_WITNESS = TABLE["c1_witness"]
PROFILES = (("T3.1", "P3"), ("T4.1", "P4"), ("T5.1", "P5"))
RADIAL_ALPHAS = [round(0.05 * k, 2) for k in range(1, 20)]


@pytest.mark.parametrize("row", REFERENCE, ids=lambda row: f"alpha={row['alpha']}-k={row['k']}")
def test_profiles_match_the_mpmath_table(row):
    """P3, P4 and P5 at r = 1 - 2^-k to 1e-12 relative, out to k = 40."""
    r = 1.0 - 2.0 ** -row["k"]
    for theorem_id, name in PROFILES:
        (value,) = slice_values(theorem_id, [r], row["alpha"])
        assert value == pytest.approx(float(row[name]), rel=1e-12, abs=0.0), name


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
    assert est.limit_fit is None
    assert est.converged


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.03] + RADIAL_ALPHAS)
def test_t51_limit_fit_finds_reciprocal_alpha(alpha):
    """A within 1e-4 of 1/alpha although the fit leaves it free; B alpha^2 near 1 checks the model."""
    est = log_to_log_norm(alpha)
    b_alpha_sq, residual = est.limit_fit
    assert est.extrapolated_limit == pytest.approx(1.0 / alpha, rel=1e-4)
    assert b_alpha_sq == pytest.approx(1.0, abs=1e-3)
    assert 0.0 < residual < 1e-6


@pytest.mark.parametrize("row", T41_SUP, ids=lambda row: f"alpha={row['alpha']}")
def test_t41_sup_matches_the_mpmath_root(row):
    """The sup to 1e-10 relative and its depth L* to 1e-6, below alpha = 0.048 too, where L* is past the grid."""
    alpha, depth, sup = row["alpha"], float(row["L"]), float(row["sup"])
    est = profile_sup("T4.1", alpha)
    assert est.value == pytest.approx(sup, rel=1e-10, abs=0.0)
    assert est.argmax_depth == pytest.approx(depth, rel=1e-6)
    assert est.converged
    _, slope = _profile_at("T4.1", np.array([depth]), -np.expm1(-np.array([depth])), alpha, _profile_table("T4.1", alpha))
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
    """40/alpha, 639/alpha or the steps up to 4/alpha overflow: the table refuses L = inf instead of growing forever."""
    with pytest.raises(DomainError, match="depth L must be finite"):
        profile_sup(theorem_id, alpha)


def test_t31_notes_name_the_depth_of_the_read():
    """At alpha = 0.05 the sup and the read lie at L = 800, where 1 - r = e^-L underflows: the notes print e^-800."""
    notes = verify_theorem("T3.1", 0.05).notes
    assert notes == "sup 20 at 1 - r = e^-800; boundary value 20 at 1 - r = e^-800 vs exact 20"


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
    values, slopes = _profile_at(theorem_id, depths, -np.expm1(-depths), alpha, _profile_table(theorem_id, alpha))
    up, down = -np.expm1(-(depths + 1e-4)), -np.expm1(-(depths - 1e-4))
    step = np.log1p(-down) - np.log1p(-up)  # the depths of the rounded radii
    central = (np.array(slice_values(theorem_id, up, alpha)) - slice_values(theorem_id, down, alpha)) / step
    np.testing.assert_allclose(central, slopes, rtol=0.0, atol=1e-8 * values.max())


@pytest.mark.parametrize("alpha", RADIAL_ALPHAS)
def test_t51_limit_fit_passes_at_tol_1e7(alpha):
    """The five-term fit leaves A alpha - 1 = 1.4e-8, so verify passes at tol 1e-7 (the four-term fit left -2.6e-7)."""
    verdict = verify_theorem("T5.1", alpha, tol=1e-7)
    assert verdict.passed, verdict.notes
    assert verdict.computed * alpha == pytest.approx(1.0, abs=1e-7)
