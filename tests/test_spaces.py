"""Weighted spaces: weights, norms and the radial shortcut."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cesaronorm import (
    BlochAlpha,
    ClosedForm,
    Constant,
    DomainError,
    HardyInf,
    Korenblum,
    KorenblumExtremal,
    KorenblumLog,
    LogKorenblumExtremal,
    Poly,
    cesaro_of_one,
    cesaro_transform,
    constant_one_bloch_norm,
    log_weight_constant,
    space_norm,
)
from cesaronorm.functions import derivative, evaluate
from cesaronorm import spaces
from cesaronorm.spaces import weight_at


def test_construction_ranges():
    for bad in (0.0, -1.0, 1.0, 1.5):
        with pytest.raises(DomainError):
            Korenblum(bad)
        with pytest.raises(DomainError):
            KorenblumLog(bad)
    for bad in (0.0, -0.5):
        with pytest.raises(DomainError):
            BlochAlpha(bad)
    BlochAlpha(3.0)  # any positive alpha is fine here


def test_weight_examples():
    assert weight_at(Korenblum(0.5), 0.0) == 1.0
    assert weight_at(KorenblumLog(0.5), 0.0) == pytest.approx(2.0 + math.log(2.0), abs=1e-15)
    assert weight_at(HardyInf(), 0.7) == 1.0
    with pytest.raises(DomainError):
        weight_at(Korenblum(0.5), 1.0)
    with pytest.raises(DomainError):
        weight_at(Korenblum(0.5), -0.1)


def test_weight_rejects_nan_radii():
    with pytest.raises(DomainError, match="radius"):
        weight_at(Korenblum(0.5), math.nan)
    with pytest.raises(DomainError, match="radius"):
        weight_at(HardyInf(), np.array([0.2, math.nan]))
    with pytest.raises(DomainError, match="radius"):
        weight_at(KorenblumLog(0.5), np.array([math.nan]))


def test_weight_vanishes_monotonically_at_boundary():
    r = np.linspace(0.9, 1.0 - 1e-9, 50)
    w = weight_at(Korenblum(0.25), r)
    assert np.all(np.diff(w) < 0.0)
    assert w[-1] < 1e-2


def test_log_weight_is_plain_weight_times_log_factor():
    """The two weights agree bitwise after multiplying in the log factor."""
    alpha = 0.37
    r = np.linspace(0.0, 1.0 - 1e-10, 257)
    omsq = (1.0 - r) * (1.0 + r)
    log_factor = log_weight_constant(alpha) - np.log(omsq)
    lhs = weight_at(Korenblum(alpha), r) * log_factor
    rhs = weight_at(KorenblumLog(alpha), r)
    np.testing.assert_array_equal(lhs, rhs)


@pytest.mark.parametrize("alpha", [0.2, 0.4])
def test_extremal_norm_is_one(alpha):
    est = space_norm(KorenblumExtremal(alpha), Korenblum(alpha))
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.argmax_radius > 0.9


def test_log_extremal_norm_is_one():
    est = space_norm(LogKorenblumExtremal(0.5), KorenblumLog(0.5))
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_constant_bloch_norm():
    est = space_norm(Constant(1.0), BlochAlpha(0.7))
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_radial_sup_examples():
    est = space_norm(KorenblumExtremal(0.3), Korenblum(0.3))
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.argmax_radius > 1.0 - 2.0**-30
    assert space_norm(Constant(1.0), HardyInf()).value == pytest.approx(1.0, abs=1e-12)
    est = space_norm(Poly([0, 1]), HardyInf())
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_radial_matches_disk_for_nonnegative_coefficients():
    """Nonnegative coefficients put the disk supremum on the radius [0, 1)."""
    rng = np.random.default_rng(3)
    space = Korenblum(0.4)
    r = np.linspace(0.0, 1.0, 1 << 17, endpoint=False)
    for _ in range(5):
        f = Poly(rng.uniform(0.0, 1.0, rng.integers(1, 9)))
        radial = float(np.max(weight_at(space, r) * np.abs(evaluate(f, r.astype(complex)))))
        assert space_norm(f, space, tol=1e-9).value == pytest.approx(radial, abs=1e-8)


def test_space_norm_divergence_flag():
    # far outside every weighted space with alpha < 1
    f = ClosedForm(lambda z: (1.0 - z) ** -10.0, label="steep pole")
    est = space_norm(f, Korenblum(0.5))
    assert est.diverged
    assert est.argmax_radius > 0.9


@pytest.mark.parametrize("tol", [math.nan, True, False, 0.0, -1e-9, -math.inf, "1e-9", None])
def test_space_norm_rejects_bad_tol(tol):
    with pytest.raises(DomainError, match="tol > 0"):
        space_norm(Poly([1.0, 0.5]), HardyInf(), tol=tol)


@pytest.mark.parametrize("k_max", [-1, 0, 2.5, 40.0, True, None, "40"])
def test_space_norm_rejects_bad_k_max(k_max):
    with pytest.raises(DomainError, match="k_max must be an integer >= 1"):
        space_norm(Poly([1.0, 0.5]), HardyInf(), k_max=k_max)


def test_space_norm_accepts_integer_k_max_and_infinite_tol():
    f = Poly([1.0, 0.5])
    assert space_norm(f, HardyInf(), k_max=np.int64(5)) == space_norm(f, HardyInf(), k_max=5)
    assert space_norm(f, HardyInf(), tol=math.inf, k_max=1).radial_points == 2


def test_norm_dominates_samples():
    rng = np.random.default_rng(11)
    space = KorenblumLog(0.6)
    for _ in range(3):
        f = Poly(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        est = space_norm(f, space, tol=1e-9)
        z = np.sqrt(rng.uniform(0, 1, 200)) * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
        z *= 0.999
        vals = weight_at(space, np.abs(z)) * np.abs(evaluate(f, z))
        assert est.value >= float(np.max(vals)) - 1e-9


def test_bloch_norm_splits_origin_value_and_seminorm():
    # f(z) = c + z: |f(0)| = |c|, seminorm = sup (1 - r^2)^alpha * 1
    est = space_norm(Poly([2.0, 1.0]), BlochAlpha(0.8))
    assert est.value == pytest.approx(3.0, abs=1e-9)


def test_g_monotone_on_weight_domain():
    """x^alpha log(2 e^(1/alpha) / x) increases on (0, 2)."""
    for alpha in np.arange(0.1, 0.95, 0.1):
        x = np.linspace(1e-6, 2.0, 1000, endpoint=False)
        g = x**alpha * (log_weight_constant(alpha) - np.log(x))
        assert np.all(np.diff(g) > 0.0), f"not increasing for alpha={alpha:.1f}"


@given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.0, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_log_weight_dominates_plain_weight(alpha, r):
    # the log factor exceeds 1/alpha > 1 everywhere on [0, 1)
    assert weight_at(KorenblumLog(alpha), r) >= weight_at(Korenblum(alpha), r)


@pytest.mark.parametrize(
    "space",
    # BlochAlpha(1.0) images peak on the outer radius, where the zoom stops on its top row
    [HardyInf(), Korenblum(0.25), KorenblumLog(0.5), BlochAlpha(1.0), BlochAlpha(1.5)],
    ids=repr,
)
def test_polished_norm_of_random_images(space, monkeypatch):
    """The polish settles at one angular level and beats a dense patch at its argmax."""

    def at_one_level(image, m):
        # tol = inf accepts the polished value of a single angular level
        with monkeypatch.context() as patched:
            patched.setattr(spaces, "FIRST_ANGLES", m)
            patched.setattr(spaces, "MAX_ANGLES", m)
            return space_norm(image, space, tol=math.inf).value

    for seed in range(4):
        rng = np.random.default_rng(seed)
        deg = int(rng.integers(1, 65))
        raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        image = cesaro_transform(Poly(raw / (np.arange(deg + 1) + 1.0)))
        at_m, at_2m = (at_one_level(image, m) for m in (256, 512))
        assert at_m == pytest.approx(at_2m, rel=1e-12, abs=0.0)

        est = space_norm(image, space)
        assert math.isfinite(est.refinement_residual)
        # 201 x 201 offsets from 1e-9 to 1 times 1 - r on both sides of the argmax
        scale = np.geomspace(1e-9, 1.0, 100) * (1.0 - est.argmax_radius)
        offsets = np.concatenate([-scale[::-1], [0.0], scale])
        r = np.clip(est.argmax_radius + offsets, 0.0, 1.0 - 1e-12)
        z = r[:, None] * np.exp(1j * (est.argmax_angle + offsets))[None, :]
        if isinstance(space, BlochAlpha):
            dense = abs(evaluate(image, 0j)) + weight_at(space, r)[:, None] * np.abs(
                evaluate(derivative(image), z)
            )
        else:
            dense = weight_at(space, r)[:, None] * np.abs(evaluate(image, z))
        assert est.value >= float(dense.max()) - 1e-12


def _pointwise(image):
    """The same image behind the generic path, which forms every grid point and calls eval_at."""
    return ClosedForm(image.eval_at, derivative(image).eval_at, label="pointwise")


def _sampled_image(seed):
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(0, 65))
    raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return cesaro_transform(Poly(raw / (np.arange(deg + 1) + 1.0)))


def test_polar_norms_do_the_same_work_as_the_pointwise_path():
    spaces_ = [Korenblum(0.25), KorenblumLog(0.5), BlochAlpha(1.0), BlochAlpha(1.5), BlochAlpha(3.0)]
    for seed in range(40):
        image = _sampled_image(seed)
        space = spaces_[seed % len(spaces_)]
        fast, ref = space_norm(image, space), space_norm(_pointwise(image), space)
        assert (fast.angular_points, fast.radial_points) == (ref.angular_points, ref.radial_points)
        assert fast.value == pytest.approx(ref.value, rel=1e-13, abs=0.0)


def test_space_norm_evaluation_count(monkeypatch):
    """The (radius, angle) points one disk sup evaluates, pinned for a fixed image."""
    calls = []
    polar = spaces.evaluate_polar

    def counting(f, r, angles):
        calls.append((np.size(r), np.array(angles, dtype=float)))
        return polar(f, r, angles)

    monkeypatch.setattr(spaces, "evaluate_polar", counting)
    image = _sampled_image(3)
    est = space_norm(image, Korenblum(0.25))
    fast = sum(n * angles.size for n, angles in calls)
    level_2 = calls[-2:]
    calls.clear()
    space_norm(_pointwise(image), Korenblum(0.25))
    assert sum(n * angles.size for n, angles in calls) == fast
    assert est.angular_points == 512
    # level 2 is one grid call on the odd columns of 512 angles, then the
    # point on the positive real axis: no row patch, no zoom
    (n, odd), (n_axis, axis) = level_2
    assert n == est.radial_points and n_axis == 1
    np.testing.assert_array_equal(odd, (2.0 * np.pi * np.arange(512) / 512)[1::2])
    np.testing.assert_array_equal(axis, [0.0])
    # 32 392 grid, row and patch points, plus the one on the positive real axis
    assert fast == 32_393


def test_zoom_stops_once_flat_to_rounding(monkeypatch):
    """|1 + z/2| peaks at z = 1, on the top grid row: its zoom stops once its angles are flat."""
    patches = [0]
    polar = spaces.evaluate_polar

    def counting(f, r, angles):
        patches[0] += np.size(r) == np.size(angles) == spaces._PATCH.size
        return polar(f, r, angles)

    monkeypatch.setattr(spaces, "evaluate_polar", counting)
    assert space_norm(Poly([1.0, 0.5]), HardyInf()).value == pytest.approx(1.5, abs=1e-12)
    # the half-width stop alone takes 18 patches, and 13 with a 3 x 3 test on the top row
    assert patches[0] == 6


_STEP = 2.0 * np.pi / 512  # the angle step of level 2


@pytest.mark.parametrize(
    "space, k1, k2, phi1, phi2, height2, value",
    [
        # the higher peak sits on an odd column: level 2 sees it above the polished one
        (HardyInf(), 2e3, 2e3, 20 * _STEP, 101 * _STEP, 1.01, 1.00999999798),
        # level 2 sees it below the polished peak, 81 angle steps away
        (HardyInf(), 2e3, 2e3, 20 * _STEP + 5e-3, 101 * _STEP + 4.5e-3, 1.01, 1.00999999798),
        # level 2 sees it below the polished peak, in its angle step but 32 grid rows out
        (Korenblum(0.25), 20.0, 1e11, 20 * _STEP + 3e-3, 21 * _STEP, 266.0, 0.311269448447),
    ],
    ids=["above", "below-elsewhere", "below-in-the-step"],
)
def test_a_peak_only_the_finer_level_sees_is_polished(
    monkeypatch, space, k1, k2, phi1, phi2, height2, value
):
    """Level 1 polishes the lower of two peaks, level 2 the higher one, and level 3 confirms it."""
    # exp(k (z e^(-i phi) - 1)) peaks at angle phi, about k^(-1/2) wide
    f = ClosedForm(
        lambda z: np.exp(k1 * (z * np.exp(-1j * phi1) - 1.0))
        + height2 * np.exp(k2 * (z * np.exp(-1j * phi2) - 1.0)),
        label="two peaks",
    )
    with monkeypatch.context() as patched:
        patched.setattr(spaces, "MAX_ANGLES", spaces.FIRST_ANGLES)
        level_1 = space_norm(f, space, tol=math.inf).value
    est = space_norm(f, space)
    assert level_1 < 0.995 * est.value
    assert est.value == pytest.approx(value, rel=1e-11)
    assert est.argmax_angle == pytest.approx(phi2, abs=1e-7)
    assert est.angular_points == 1024


def test_flat_argmax_is_reported_at_angle_zero():
    # real coefficients: the modulus is symmetric about the real axis and peaks on it
    image = cesaro_transform(Poly([1.0, 0.5, 0.25]))
    for space in (HardyInf(), Korenblum(0.25), BlochAlpha(1.0)):
        assert space_norm(image, space).argmax_angle == 0.0


@pytest.mark.parametrize("a", [1.5, 3.0, 10.0])
def test_argmax_on_the_positive_axis_is_reported_near_zero(a):
    """C(1)' peaks on the positive real axis; its angle is reported in [-pi, pi), not just below 2 pi."""
    assert abs(space_norm(cesaro_of_one(), BlochAlpha(a)).argmax_angle) < 1e-6


@pytest.mark.parametrize(
    "a, rel",
    [(1.01, 1e-15), (1.5, 1e-15), (2.0, 1e-15), (3.0, 1e-15), (10.0, 1e-15), (50.0, 1e-15), (500.0, 2.5e-14)],
)
def test_disk_sup_of_c1_matches_its_sup_in_l(a, rel):
    """The 2-D sup of C(1) in the Bloch-type space is constant_one_bloch_norm's 1-D sup in L, to rounding."""
    disk = space_norm(cesaro_of_one(), BlochAlpha(a)).value
    assert disk == pytest.approx(constant_one_bloch_norm(a), rel=rel, abs=0.0)


def test_disk_sup_of_c1_at_alpha_one_stays_just_below_three():
    """At alpha = 1 the sup 3 is a limit at the circle: the grid's last radius leaves the disk sup 1.8e-11 short."""
    assert 3.0 * (1.0 - 2e-11) <= space_norm(cesaro_of_one(), BlochAlpha(1.0)).value < constant_one_bloch_norm(1.0)


def test_a_grid_winner_on_the_origin_row_is_in_the_polished_peaks_basin():
    """Every angle ties on the r = 0 row, where argmax picks angle 0; such a winner does not restart the polish.

    The 63rd polynomial that the empirical sampler draws at seed 0 (degree 21) has
    its grid maximum in BlochAlpha(50) on that row and its polished peak at
    r = 0.012, angle 1.24; it stalled at 8192 angles, polishing again at every level.
    """
    rng = np.random.default_rng(0)
    for _ in range(63):
        deg = int(rng.integers(0, 65))
        raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    f = Poly(raw * (np.arange(deg + 1) + 1.0) ** -1.0)
    est = space_norm(f, BlochAlpha(50.0))
    assert est.angular_points == 512
    r, angles = np.linspace(0.0, 0.05, 501)[:, None], 2.0 * np.pi * np.arange(4096) / 4096
    weighted = (1.0 - r * r) ** 50 * np.abs(evaluate(derivative(f), r * np.exp(1j * angles)))
    dense = abs(f.series.coeffs[0]) + weighted.max()
    assert 0.0 <= est.value - dense <= 1e-7


def test_argmax_angle_lies_in_the_principal_range():
    # |1 + i z| peaks at z = -i r, angle -pi/2 (reported as 3 pi / 2 before the wrap)
    est = space_norm(Poly([1.0, 1.0j]), Korenblum(0.5))
    assert est.argmax_angle == pytest.approx(-0.5 * math.pi, abs=1e-6)
    for angle in (-math.pi, -1e-300, 0.0, math.pi - 1e-15, math.pi, 2.0 * math.pi, 7.0):
        wrapped = spaces._principal_angle(angle)
        assert -math.pi <= wrapped < math.pi
        assert math.remainder(wrapped - angle, 2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
