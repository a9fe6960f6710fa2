"""Quadrature, golden-section search, and the radial supremum machinery."""

import math

import numpy as np
import pytest

from cesaronorm import ConvergenceError, DomainError, numerics, sup_over_radius
from cesaronorm.numerics import (
    ExpCumulative,
    golden_section_max,
    integrate_finite,
    radius_grid,
)


def test_integrate_constant():
    res = integrate_finite(lambda u: np.ones_like(u), 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.error_estimate <= 1e-12


def test_integrate_endpoint_singularity():
    # u^(alpha - 1) with alpha = 0.5: antiderivative 2 sqrt(u); the width
    # floor near the singular endpoint caps the achievable tolerance
    res = integrate_finite(lambda u: u**-0.5, 0.0, 1.0, 1e-8)
    assert res.value == pytest.approx(2.0, abs=1e-7)


def test_integrate_kernel_weight_product():
    # e^-t (1 - e^-t) over the half line is 1 - u over [0, 1] through u = e^-t
    res = integrate_finite(lambda u: 1.0 - u, 0.0, 1.0, 1e-11)
    assert res.value == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("degree", range(14))
def test_quadrature_exact_on_polynomials(degree):
    """The embedded rule integrates low-degree polynomials to machine precision."""
    res = integrate_finite(lambda u: u**degree, 0.0, 1.0, 1e-12)
    assert res.value == pytest.approx(1.0 / (degree + 1), abs=5e-15)


def test_integrate_finite_error_budget():
    res = integrate_finite(lambda u: np.sin(10.0 * u), 0.0, 3.0, 1e-10)
    exact = (1.0 - math.cos(30.0)) / 10.0
    assert abs(res.value - exact) <= 1e-10
    assert res.error_estimate <= 1e-10
    assert res.subdivisions >= 1


def test_integrate_finite_needs_vectorized_integrand():
    # a scalar-only integrand is an error, not a slow node-by-node fallback
    with pytest.raises(TypeError):
        integrate_finite(lambda u: math.exp(u), 0.0, 1.0)


def test_integrate_finite_cap(monkeypatch):
    monkeypatch.setattr(numerics, "MAX_PANELS", 16)
    with pytest.raises(ConvergenceError):
        integrate_finite(lambda u: np.sin(1.0 / u) / u, 1e-12, 1.0, 1e-13)


# 132 rows of a batch on [0, 1], each (f, -f / 2) per node: cubics that converge
# on their first panel, sines that take one round, and multiples of sqrt(u)
# that split their leftmost panel every round and run past the first doubling
def _doubling_row(i):
    if i % 3 == 0:
        return lambda u: (1.0 + 0.01 * i) * u**3 - u
    if i % 3 == 1:
        return lambda u: (1.0 + 0.01 * i) * np.sin((5.0 + 3.0 * (i % 2)) * u)
    return lambda u: (0.5 + 0.05 * i) * np.sqrt(u)


def _components(f, u):
    """(f, -f / 2) at u, complex once a node of the call lies below 1e-3."""
    out = np.outer(f(u), [1.0, -0.5])
    return out + 0j if u.min() < 1e-3 else out


def test_lockstep_doubling_matches_each_row_alone():
    """Rows dropped at a doubling, trailing value dims and a dtype switch, each bitwise as alone.

    Only multiples of sqrt(u) are left when the first call reaches u < 1e-3,
    in round 3, and each of them reaches it in the same round alone, so every
    call has the dtype that each of its rows has alone.
    """
    rows = [_doubling_row(i) for i in range(132)]
    dtypes = []

    def batch(x, which):
        out = np.empty(x.shape + (2,), dtype=complex if x.min() < 1e-3 else float)
        for i in np.unique(which):
            out[which == i] = _components(rows[i], x[which == i])
        dtypes.append(out.dtype)
        return out

    values, totals, counts = numerics._lockstep(batch, len(rows), 0.0, 1.0, 1e-10)
    assert dtypes[0] == float and values.dtype == complex and values.shape == (132, 2)
    # cap is 16 columns for more than 128 rows: some rows end before it doubles, others after
    assert counts.min() <= 3 and counts.max() > 16
    for i, f in enumerate(rows):
        value, total, count = numerics._lockstep(lambda x, _, f=f: _components(f, x), 1, 0.0, 1.0, 1e-10)
        assert (int(counts[i]), totals[i].hex()) == (int(count[0]), total[0].hex())
        assert values[i].tobytes() == value[0].astype(complex).tobytes()


@pytest.mark.parametrize("alpha", [0.01, 0.5, 2.0])
def test_exp_cumulative_matches_closed_forms(alpha):
    """int_0^L e^(-alpha (L - y)) k(y) dy for k = 1 and k = e^-y, from L = 0 out to L = 10^5."""
    depths = np.array([0.0, 1e-3, 0.7, 5.0, 27.7, 1e3, 1e5])
    np.testing.assert_allclose(
        ExpCumulative(np.ones_like, alpha)(depths), -np.expm1(-alpha * depths) / alpha, rtol=1e-13
    )
    np.testing.assert_allclose(
        ExpCumulative(lambda y: np.exp(-y), alpha)(depths[::-1]),
        ((np.exp(-depths) - np.exp(-alpha * depths)) / (alpha - 1.0))[::-1],
        rtol=1e-13,
    )


@pytest.mark.parametrize("depth", [-1.0, -math.inf, math.nan, math.inf])
def test_exp_cumulative_rejects_bad_depths_before_integrating(depth, monkeypatch):
    """A negative depth would index the table end at -1: it fails as +inf and nan do, before any quadrature."""
    table, calls = ExpCumulative(np.ones_like, 0.5), []
    monkeypatch.setattr(numerics, "integrate_rows", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match=f"depth L must be finite and nonnegative, got {depth!r}"):
        table(np.array([1.0, depth]))
    assert calls == []


def _t31_kernel(alpha):
    return lambda y: (2.0 - np.exp(-y)) ** -alpha


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.95])
def test_exp_cumulative_filled_piecewise_matches_fresh_tables_bitwise(alpha):
    """Shallow depths, then 40/alpha, then depths inside: each value is bitwise what a fresh table gives."""
    parts = (np.array([0.0, 0.1, 0.7, 3.0]), np.array([40.0 / alpha]), np.array([2.5, 17.0, 39.0 / alpha, 0.3]))
    table = ExpCumulative(_t31_kernel(alpha), alpha)
    piecewise = np.concatenate([table(part) for part in parts])
    fresh = [ExpCumulative(_t31_kernel(alpha), alpha)(np.array([depth]))[0] for depth in np.concatenate(parts)]
    assert piecewise.tobytes() == np.array(fresh).tobytes()


@pytest.mark.parametrize("alpha", [0.05, 0.5])
def test_a_call_inside_the_table_integrates_only_its_tail_panels(alpha, monkeypatch):
    """Once the table reaches 40/alpha, depths inside it take one quadrature row each and rebuild no table array."""
    table = ExpCumulative(_t31_kernel(alpha), alpha)
    table(np.array([40.0 / alpha]))
    ends, at_ends = table.ends, table.at_ends
    rows, integrate = [], numerics.integrate_rows

    def counted(g, n, *args):
        rows.append(n)
        return integrate(g, n, *args)

    monkeypatch.setattr(numerics, "integrate_rows", counted)
    depths = np.linspace(0.0, 40.0 / alpha, 33)
    table(depths)
    assert rows == [depths.size]
    assert table.ends is ends and table.at_ends is at_ends


def test_golden_section_max_on_sine():
    x, fx, _, ok = golden_section_max(math.sin, 0.0, math.pi, xtol=1e-10)
    assert ok
    assert x == pytest.approx(math.pi / 2.0, abs=1e-8)
    assert fx == pytest.approx(1.0, abs=1e-12)


def test_golden_section_rejects_non_finite_probes():
    # NaN beyond 0.5 would lose every comparison and go unnoticed
    f = lambda x: math.nan if x > 0.5 else x
    with pytest.raises(ConvergenceError, match="not finite at x = 0.618"):
        golden_section_max(f, 0.0, 1.0)


def test_golden_section_needs_ordered_interval():
    with pytest.raises(DomainError):
        golden_section_max(math.sin, 1.0, 1.0)


def test_radius_grid_shape():
    grid = radius_grid(10)
    assert grid[0] == 0.0
    assert grid[-1] == 1.0 - 2.0**-10
    assert np.all(np.diff(grid) > 0.0)


def test_sup_over_radius_boundary_supremum():
    est = sup_over_radius(lambda r: r, 1e-9)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.extrapolated_limit is None  # only theorems.profile_sup knows a boundary limit
    assert not est.diverged


def test_sup_over_radius_interior_maximum():
    est = sup_over_radius(lambda r: r * (1.0 - r), 1e-9)
    assert est.value == pytest.approx(0.25, abs=1e-9)
    assert est.argmax_radius == pytest.approx(0.5, abs=1e-6)


def test_sup_over_radius_envelope_example():
    # (1 + r)^2 (1 - r) peaks at r = 1/3 with value 32/27
    est = sup_over_radius(lambda r: (1.0 + r) ** 2 * (1.0 - r), 1e-10)
    assert est.argmax_radius == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert est.value == pytest.approx(32.0 / 27.0, abs=1e-10)


def test_sup_over_radius_divergence_flag():
    est = sup_over_radius(lambda r: (1.0 - r) ** -2, 1e-9)
    assert est.diverged
    assert est.value > 1e12 or not math.isfinite(est.value)


def test_sup_dominates_uniform_probe():
    h = lambda r: (1.0 + r) ** 1.3 * (1.0 - r) ** 0.4
    est = sup_over_radius(h, 1e-9)
    probes = np.linspace(0.0, 1.0, 1000, endpoint=False)
    assert est.value >= max(h(float(r)) for r in probes) - 1e-9
