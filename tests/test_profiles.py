"""The radial profiles in L = log(1/(1 - r)): an mpmath table, the radial verdicts, the T5.1 limit fit."""

import json
import pathlib

import numpy as np
import pytest

from cesaronorm import log_to_log_norm, verify_theorem
from cesaronorm.numerics import radius_grid
from cesaronorm.theorems import profile_sup, slice_values

# written by tests/make_profile_reference.py (mpmath, 30 digits)
REFERENCE = json.loads(pathlib.Path(__file__).with_name("profile_reference.json").read_text())["profiles"]
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


@pytest.mark.parametrize("alpha", [0.01, 0.02, 0.03] + RADIAL_ALPHAS)
def test_t51_limit_fit_finds_reciprocal_alpha(alpha):
    """A within 1e-4 of 1/alpha although the fit leaves it free; B alpha^2 near 1 checks the model."""
    est = log_to_log_norm(alpha)
    b_alpha_sq, residual = est.limit_fit
    assert est.extrapolated_limit == pytest.approx(1.0 / alpha, rel=1e-4)
    assert b_alpha_sq == pytest.approx(1.0, abs=1e-3)
    assert 0.0 < residual < 1e-6
