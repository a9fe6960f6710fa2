"""Randomized lower bounds: sampling, witnesses, soundness, determinism."""

import math

import numpy as np
import pytest

from cesaronorm import (
    BlochAlpha,
    DivergenceFlag,
    DomainError,
    HardyInf,
    Korenblum,
    KorenblumLog,
    Poly,
    PreconditionError,
    SampleConfig,
    bloch_upper_bound,
    operator_norm_lower_bound,
    space_norm,
)
from cesaronorm.empirical import GRID_K_MAX, result_for_pair, sample_unit_ball
from cesaronorm.theorems import RESULTS


def test_sample_config_validation():
    with pytest.raises(DomainError):
        SampleConfig(count=0)
    with pytest.raises(DomainError):
        SampleConfig(max_degree=-1)
    for bad in (
        {"seed": -1},
        {"seed": True},
        {"seed": 1.0},
        {"seed": "3"},
        {"count": True},
        {"count": 2.0},
        {"max_degree": False},
        {"max_degree": 8.5},
    ):
        with pytest.raises(DomainError):
            SampleConfig(**bad)
    assert SampleConfig(seed=np.int64(3), count=np.int32(2)).seed == 3


def test_samples_are_normalized():
    space = Korenblum(0.4)
    for f in sample_unit_ball(space, SampleConfig(seed=9, count=6, max_degree=12)):
        assert space_norm(f, space, 1e-9).value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("space", [HardyInf(), Korenblum(0.25), BlochAlpha(1.5)], ids=repr)
def test_samples_are_normalized_on_the_default_radius_grid(space):
    """Each sample is raw / space_norm(Poly(raw), space).value, at k_max RADIAL_K_MAX, bit for bit."""
    cfg = SampleConfig(seed=3, count=5, max_degree=40)
    rng = np.random.default_rng(cfg.seed)
    off_grid = []
    for f in sample_unit_ball(space, cfg):
        deg = int(rng.integers(0, cfg.max_degree + 1))
        raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        raw *= (np.arange(deg + 1) + 1.0) ** -1.0
        np.testing.assert_array_equal(f.coeffs, raw / space_norm(Poly(raw), space).value)
        off_grid.append(space_norm(Poly(raw), space, k_max=GRID_K_MAX).value != space_norm(Poly(raw), space).value)
    if isinstance(space, HardyInf):
        # the sup of |f| sits at the circle, so the shorter grid gives other norms
        assert any(off_grid)


def test_a_lower_second_peak_does_not_stall_the_angular_refinement():
    """One of seed 6's draws has a second, lower peak that each finer angular level polishes anew.

    A lower peak changes nothing about the sup, so it ends the refinement
    instead of counting as a change of 2.7e-3 up to MAX_ANGLES.
    """
    space = KorenblumLog(0.5)
    samples = sample_unit_ball(space, SampleConfig(seed=6, count=10))
    assert len(samples) == 10
    for f in samples:
        assert space_norm(f, space).value == pytest.approx(1.0, rel=1e-12)


def test_degree_zero_sample_is_unit_constant():
    (f,) = sample_unit_ball(HardyInf(), SampleConfig(seed=1, count=1, max_degree=0))
    coeffs = f.coeffs
    assert coeffs.shape == (1,)
    assert abs(coeffs[0]) == pytest.approx(1.0, abs=1e-12)


def test_sampling_is_deterministic():
    cfg = SampleConfig(seed=42, count=4, max_degree=10)
    a = sample_unit_ball(Korenblum(0.3), cfg)
    b = sample_unit_ball(Korenblum(0.3), cfg)
    for f, g in zip(a, b):
        np.testing.assert_array_equal(f.coeffs, g.coeffs)


def test_lower_bound_is_deterministic():
    cfg = SampleConfig(seed=7, count=3, max_degree=8)
    first = operator_norm_lower_bound(Korenblum(0.25), Korenblum(0.25), cfg)
    second = operator_norm_lower_bound(Korenblum(0.25), Korenblum(0.25), cfg)
    assert first == second


def test_unsupported_pairs_rejected():
    with pytest.raises(PreconditionError):
        operator_norm_lower_bound(Korenblum(0.3), KorenblumLog(0.3), SampleConfig())
    with pytest.raises(PreconditionError):
        operator_norm_lower_bound(Korenblum(0.3), Korenblum(0.4), SampleConfig())
    with pytest.raises(PreconditionError):
        operator_norm_lower_bound(BlochAlpha(0.8), BlochAlpha(0.8), SampleConfig())
    with pytest.raises(PreconditionError):
        operator_norm_lower_bound(HardyInf(), Korenblum(0.3), SampleConfig())


def test_plain_pair_reaches_near_exact_norm():
    """Witness inclusion pushes the bound within 5 percent of 1/alpha."""
    cfg = SampleConfig(seed=2, count=5, max_degree=16)
    for alpha in (0.25, 0.5):
        est, _ = operator_norm_lower_bound(Korenblum(alpha), Korenblum(alpha), cfg)
        exact = 1.0 / alpha
        assert est.value <= exact + 1e-3
        assert est.value >= 0.95 * exact


def test_hardy_to_bloch_witness():
    """At alpha = 1 the C(1) witness is the exact norm 3 of C(1), the lower end of T7.1's bounds."""
    est, _ = operator_norm_lower_bound(HardyInf(), BlochAlpha(1.0), SampleConfig(seed=1, count=2))
    assert est.value == 3.0


@pytest.mark.parametrize(
    "source, target",
    [
        (Korenblum(0.25), Korenblum(0.25)),
        (KorenblumLog(0.5), Korenblum(0.5)),
        (KorenblumLog(0.05), KorenblumLog(0.05)),
        (BlochAlpha(1.5), BlochAlpha(1.5)),
        (HardyInf(), BlochAlpha(1.0)),
        (HardyInf(), BlochAlpha(2.0)),
    ],
    ids=repr,
)
def test_a_winning_witness_is_its_results_sup_in_l(source, target):
    """The witness is RESULTS[id].witness(alpha), bitwise, with its argmax on the positive real axis."""
    result = result_for_pair(source, target)
    est, taken = operator_norm_lower_bound(source, target, SampleConfig(seed=0, count=2, max_degree=8))
    witness = RESULTS[result.theorem_id].witness(target.alpha)
    assert (est.value, est.argmax_radius, est.argmax_depth) == (
        witness.value,
        witness.argmax_radius,
        witness.argmax_depth,
    )
    assert (est.argmax_angle, est.angular_points) == (0.0, 1)
    # the second value returned is that same witness, taken once
    assert taken is est


def test_unbounded_pair_flags_divergence():
    for alpha in (0.5, 0.9):
        flag, _ = operator_norm_lower_bound(HardyInf(), BlochAlpha(alpha), SampleConfig(count=1))
        assert isinstance(flag, DivergenceFlag)
        assert flag.at_depth == 700.0
        # the witness 2^alpha (1 - r)^(alpha - 1) at the fit's deepest depth, 1 - r = e^-700
        assert flag.value == pytest.approx(2.0**alpha * math.exp(700.0 * (1.0 - alpha)), rel=1e-13)
        # the witness itself is infinite: the pair is unbounded
        assert RESULTS["T7.1"].witness(alpha).value == math.inf


def test_log_pairs_stay_sound():
    cfg = SampleConfig(seed=4, count=3, max_degree=10)
    alpha = 0.5
    est, _ = operator_norm_lower_bound(KorenblumLog(alpha), Korenblum(alpha), cfg)
    # soundness against the computed sup plus attainment of the closed-form bound
    assert est.value >= 1.0 / (1.0 / alpha + math.log(2.0)) - 1e-3
    assert est.value <= 0.480733 + 1e-3
    est, _ = operator_norm_lower_bound(KorenblumLog(alpha), KorenblumLog(alpha), cfg)
    assert est.value <= 2.62902 + 1e-3
    assert est.value >= 1.0  # the origin slice alone already gives 1


def test_bloch_pair_respects_upper_bound():
    cfg = SampleConfig(seed=5, count=3, max_degree=10)
    est, _ = operator_norm_lower_bound(BlochAlpha(1.5), BlochAlpha(1.5), cfg)
    assert est.value <= bloch_upper_bound(1.5) + 1e-3
    assert est.value >= 1.5 - 1e-3
