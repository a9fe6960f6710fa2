"""Acceptance gate: the eleven headline checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
lines; each criterion is a separate test so failures stay isolated.
"""

import math
import time

import numpy as np

from cesaronorm import (
    BlochAlpha,
    Constant,
    DivergenceFlag,
    HardyInf,
    Korenblum,
    KorenblumExtremal,
    KorenblumLog,
    Poly,
    PowerSeries,
    SampleConfig,
    bloch_upper_bound,
    bloch_witness_profile,
    boundary_envelope,
    cesaro_coeff,
    cesaro_integral,
    cesaro_semigroup,
    constant_one_bloch_norm,
    h_analytic,
    h_closed_form,
    h_series_coeff,
    korenblum_sup,
    log_to_log_norm,
    log_to_plain_norm,
    log_weight_constant,
    operator_norm_lower_bound,
    semigroup_transform,
    space_norm,
    sup_over_radius,
    taylor_truncate,
)
from cesaronorm import ClosedForm


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {status} — {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def test_01_exact_norm_boundary_limits():
    started = time.monotonic()
    worst = 0.0
    for alpha in (0.1, 0.25, 0.5):
        est = korenblum_sup(alpha)
        target = 1.0 / alpha
        rel = abs(est.extrapolated_limit - target) / target
        worst = max(worst, rel)
    elapsed = time.monotonic() - started
    ok = worst <= 0.01 and elapsed < 10.0
    _line(1, "weighted sup-norm equals 1/alpha at the boundary",
          ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_02_representation_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    angles = rng.uniform(0.0, 2.0 * np.pi, 64)
    radii = 0.95 * np.sqrt(rng.uniform(0.0, 1.0, 64))
    zs = radii * np.exp(1j * angles)
    worst = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 33))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        f = Poly(coeffs)
        series = cesaro_coeff(f.series.truncate(512))
        via_coeff = series.eval_at(zs)
        via_int = np.asarray(cesaro_integral(f, zs))
        via_semi = np.asarray(cesaro_semigroup(f, zs))
        worst = max(
            worst,
            float(np.max(np.abs(via_int - via_coeff))),
            float(np.max(np.abs(via_semi - via_int))),
        )
    elapsed = time.monotonic() - started
    ok = worst <= 1e-8 and elapsed < 30.0
    _line(2, "coefficient, integral, and semigroup forms agree",
          ok, f"max discrepancy {worst:.2e}, {elapsed:.1f}s")


def test_03_fixed_point_and_constant_image():
    ones = PowerSeries(np.ones(64))
    fixed = np.array_equal(cesaro_coeff(ones).coeffs, ones.coeffs)
    gap = abs(cesaro_integral(Constant(1.0), 0.5) - 2.0 * math.log(2.0))
    ok = fixed and gap <= 1e-9
    _line(3, "geometric series fixed; image of 1 hits 2 log 2",
          ok, f"closed-form gap {gap:.2e}")


def test_04_semigroup_contraction():
    worst = -math.inf
    for alpha in (0.1, 0.3, 0.5):
        f = KorenblumExtremal(alpha)
        for t in (0.1, 0.5, 1.0, 2.0, 5.0):
            est = space_norm(semigroup_transform(f, t), Korenblum(alpha), tol=1e-8)
            worst = max(worst, est.value - math.exp(-alpha * t))
    ok = worst <= 1e-6
    _line(4, "weighted composition operators contract by e^(-alpha t)",
          ok, f"worst excess {worst:.2e}")


def test_05_log_to_plain_lower_bound():
    margin = math.inf
    for alpha in (0.2, 0.5, 0.8):
        est = log_to_plain_norm(alpha)
        lb = 1.0 / log_weight_constant(alpha)
        margin = min(margin, est.value - lb)
        if alpha == 0.5:
            at_half = est.value
    ok = margin >= -1e-6 and at_half >= 0.3714
    _line(5, "log-to-plain sup clears the closed-form lower bound",
          ok, f"min margin {margin:.3e}, value at 0.5 = {at_half:.6f}")


def test_06_log_space_boundary_limit():
    ok = True
    details = []
    for alpha in (0.25, 0.5):
        est = log_to_log_norm(alpha)
        limit = est.extrapolated_limit
        ok = ok and limit is not None and math.isfinite(est.value) and not est.diverged
        ok = ok and limit >= 0.99 / alpha
        details.append(f"alpha={alpha}: limit {limit:.4f}")
    _line(6, "log-space boundary limit reaches 1/alpha", ok, "; ".join(details))


def test_07_bloch_bounds_and_empirical():
    exact_branch = bloch_upper_bound(2.0) == 4.0
    est, _ = operator_norm_lower_bound(
        BlochAlpha(1.5), BlochAlpha(1.5), SampleConfig(seed=0, count=200)
    )
    hi = bloch_upper_bound(1.5)
    ok = exact_branch and 1.5 - 1e-3 <= est.value <= hi
    _line(7, "Bloch bounds: exact branch value and sampled lower bound",
          ok, f"empirical {est.value:.6f} in [1.499, {hi:.4f}]")


def test_08_bloch_norm_of_constant_image_and_divergence():
    norm = constant_one_bloch_norm(1.0)
    witness = bloch_witness_profile(1.0 - 1e-6, 0.5)
    flag, _ = operator_norm_lower_bound(HardyInf(), BlochAlpha(0.5), SampleConfig(count=1))
    ok = abs(norm - 3.0) <= 1e-3 and witness > 100.0 and isinstance(flag, DivergenceFlag)
    _line(8, "image of 1 has Bloch norm 3; alpha = 1/2 witness diverges",
          ok, f"norm {norm:.6f}, witness {witness:.1f}")


def test_09_radial_profile_machinery():
    coeffs = taylor_truncate(ClosedForm(h_analytic, label="h"), 49, radius=0.9).coeffs
    want = np.array([h_series_coeff(n) for n in range(50)])
    coeff_err = float(np.max(np.abs(coeffs - want)))
    boundary = sup_over_radius(h_closed_form, 1e-9)
    limit = boundary.extrapolated_limit
    if limit is None:
        limit = boundary.value
    argmax_err = 0.0
    for alpha in (1.5, 2.0, 3.0):
        est = sup_over_radius(lambda r: boundary_envelope(r, alpha), 1e-10)
        argmax_err = max(argmax_err, abs(est.argmax_radius - 1.0 / (2.0 * alpha - 1.0)))
    ok = coeff_err <= 1e-10 and abs(limit - 3.0) <= 1e-4 and argmax_err <= 1e-6
    _line(9, "radial profile: series, boundary value 3, envelope argmax",
          ok, f"coeff err {coeff_err:.1e}, limit {limit:.6f}, argmax err {argmax_err:.1e}")


def test_10_monotonicity_suite():
    increasing = True
    for alpha in np.arange(0.1, 0.95, 0.1):
        x = np.linspace(1e-9, 2.0, 1000, endpoint=False)
        g = x**alpha * (log_weight_constant(float(alpha)) - np.log(x))
        increasing = increasing and bool(np.all(np.diff(g) > 0.0))
    positive = all(h_series_coeff(n) > 0.0 for n in range(1, 10_001))
    ok = increasing and positive
    _line(10, "weight profile increasing; radial profile series positive", ok)


def test_11_empirical_soundness():
    sup_log_plain = log_to_plain_norm(0.5).value
    sup_log_log = log_to_log_norm(0.5).value
    pairs = [
        (Korenblum(0.25), Korenblum(0.25), 4.0),
        (Korenblum(0.5), Korenblum(0.5), 2.0),
        (KorenblumLog(0.5), Korenblum(0.5), sup_log_plain),
        (KorenblumLog(0.5), KorenblumLog(0.5), sup_log_log),
        (BlochAlpha(1.5), BlochAlpha(1.5), bloch_upper_bound(1.5)),
        (HardyInf(), BlochAlpha(1.0), 4.0),
    ]
    worst = -math.inf
    for seed in range(1, 6):
        cfg = SampleConfig(seed=seed, count=2, max_degree=10)
        for source, target, bound in pairs:
            est, _ = operator_norm_lower_bound(source, target, cfg)
            worst = max(worst, est.value - bound)
    ok = worst <= 1e-3
    _line(11, "no sampled ratio beats its theoretical bound",
          ok, f"worst excess {worst:.2e}")
