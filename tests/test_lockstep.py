"""The lockstep Gauss-Kronrod core: batch invariance, stopping rules, batched radial search."""

import heapq
import math

import numpy as np
import pytest

from cesaronorm import ConvergenceError, DomainError, sup_over_radius, theorems, verify_theorem
from cesaronorm import numerics
from cesaronorm.numerics import _panels, integrate_finite, radius_grid
from cesaronorm.theorems import profile_sup, slice_values


def _one_panel(g, a, b):
    k15, err = _panels(lambda x, rows: g(x), np.array([a]), np.array([b]), np.arange(1))
    return k15[0], float(err[0])


def _reference(g, a, b, tol, max_panels=10_000):
    """One integral at a time, re-summing every panel error on each split."""
    value, err = _one_panel(g, a, b)
    panels = {0: (a, b, value, err)}
    heap, count, next_id = [(-err, 0)], 1, 1
    while count < max_panels and sum(p[3] for p in panels.values()) > tol:
        pa, pb, _, _ = panels[heap[0][1]]
        if pb - pa <= (b - a) * 1e-15:
            break
        del panels[heapq.heappop(heap)[1]]
        mid = 0.5 * (pa + pb)
        for qa, qb in ((pa, mid), (mid, pb)):
            val, perr = _one_panel(g, qa, qb)
            panels[next_id] = (qa, qb, val, perr)
            heapq.heappush(heap, (-perr, next_id))
            next_id, count = next_id + 1, count + 1
    total = sum(p[3] for p in panels.values())
    if total > tol:
        return None, total, count
    ordered = sorted(panels.values(), key=lambda p: p[0])
    value = ordered[0][2]
    for p in ordered[1:]:
        value = value + p[2]
    return value, total, count


@pytest.mark.parametrize(
    "g, a, b, tol, max_panels",
    [
        (lambda u: np.sin(10.0 * u), 0.0, 3.0, 1e-10, 10_000),
        (lambda u: u**-0.5, 0.0, 1.0, 1e-8, 10_000),  # stops on the width floor
        (lambda u: 1e8 * np.exp(-1e4 * u), 0.0, 1.0, 1e-10, 10_000),  # large early errors
        (lambda u: np.sin(1.0 / u) / u, 1e-12, 1.0, 1e-13, 16),  # budget exhausted
        (lambda u: np.exp(1j * 40.0 * u), 0.0, 1.0, 1e-12, 10_000),
    ],
)
def test_running_total_stops_where_the_exact_sum_does(g, a, b, tol, max_panels, monkeypatch):
    monkeypatch.setattr(numerics, "MAX_PANELS", max_panels)
    value, total, count = _reference(g, a, b, tol, max_panels)
    if value is None:
        with pytest.raises(ConvergenceError, match=f"after {count} panels"):
            integrate_finite(g, a, b, tol)
        return
    res = integrate_finite(g, a, b, tol)
    assert (res.subdivisions, res.error_estimate) == (count, total)
    assert res.value == value


@pytest.mark.parametrize("theorem_id", ["T3.1", "T4.1", "T5.1"])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.95])
def test_grid_batch_matches_batch_of_one_bitwise(theorem_id, alpha):
    radii = radius_grid(40)
    batch = slice_values(theorem_id, radii, alpha)
    single = [slice_values(theorem_id, [r], alpha)[0] for r in radii]
    assert [v.hex() for v in batch] == [v.hex() for v in single]


@pytest.mark.parametrize("theorem_id", ["T3.1", "T4.1", "T5.1"])
def test_shared_table_matches_a_fresh_pass_bitwise(theorem_id):
    """A table that earlier batches filled, deeper or shallower, changes no value."""
    radii = 1.0 - 2.0 ** -np.linspace(0.0, 40.0, 97)
    fresh = [slice_values(theorem_id, [r], 0.3)[0].hex() for r in radii]
    for first, second in ((radii[:50], radii[50:]), (radii[50:], radii[:50])):
        table = theorems._profile_table(theorem_id, 0.3)
        shared = [theorems._profile_at(theorem_id, -np.log1p(-part), part, 0.3, table)[0] for part in (first, second)]
        order = list(first) + list(second)
        assert [v.hex() for v in np.concatenate(shared)] == [fresh[list(radii).index(r)] for r in order]


def test_slice_values_keep_the_scalar_checks():
    with pytest.raises(DomainError, match="alpha"):
        slice_values("T3.1", [0.5], 1.5)
    with pytest.raises(DomainError, match="radius"):
        slice_values("T4.1", [0.0, 0.5, 1.0], 0.5)


@pytest.mark.parametrize("theorem_id", ["T3.1", "T4.1", "T5.1"])
def test_slice_values_check_alpha_once_per_call(monkeypatch, theorem_id):
    """alpha is checked once per call, not once per quadrature round."""
    calls = []
    check = theorems.check_alpha

    def counted(*args):
        calls.append(args[0])
        return check(*args)

    monkeypatch.setattr(theorems, "check_alpha", counted)
    slice_values(theorem_id, radius_grid(40), 0.3)
    assert calls == ["integrand_F"]


def test_diverged_grid_reports_the_first_radius_and_hides_later_errors():
    """inf at k = 5 and NaN after: the k = 5 radius is reported, from one grid call in increasing radius."""
    asked = []

    def batch(radii):
        asked.append(radii.copy())
        k = np.arange(radii.size)
        return np.where(k < 5, 1.0, np.where(k == 5, math.inf, math.nan))

    est = sup_over_radius(batch, 1e-9)
    assert est.diverged and not est.converged
    assert est.argmax_radius == float(radius_grid(40)[5]) and est.value == math.inf
    assert len(asked) == 1
    np.testing.assert_array_equal(asked[0], radius_grid(40))


def test_sup_over_radius_refines_with_one_golden_section_search(monkeypatch):
    brackets = []
    golden = numerics.golden_section_max

    def counted(f, a, b, *args, **kwargs):
        brackets.append((a, b))
        return golden(f, a, b, *args, **kwargs)

    monkeypatch.setattr(numerics, "golden_section_max", counted)
    est = sup_over_radius(lambda r: (1.0 + r) ** 2 * (1.0 - r), 1e-10)
    assert brackets == [(0, 2)]  # the neighbours of the grid maximum at k = 1, in s = -log2(1 - r)
    assert est.converged and est.argmax_radius == pytest.approx(1.0 / 3.0, abs=1e-8)


@pytest.mark.parametrize(
    "theorem_id, alpha, expected",
    [("T3.1", 0.3, 1), ("T5.1", 0.05, 3), ("T4.1", 0.5, 3), ("T4.1", 0.01, 3)],
)
def test_profile_sup_makes_at_most_three_table_calls(theorem_id, alpha, expected, monkeypatch):
    """integrate_rows calls per search: the grid, then for an interior maximum its bracket and its root.

    T3.1 at alpha = 0.3 peaks on its last depth, L = 40/alpha, where it is
    1/alpha to rounding, so the grid call is the only one.  Below
    alpha = 0.144 every profile takes steps of sqrt(2) in L from the grid
    end up to L = 4/alpha in that same call, and T5.1 its fit depths; T5.1
    at 0.05 peaks among those steps, near L = 66.
    """
    calls, integrate = [], numerics.integrate_rows

    def counted(g, n, *args):
        calls.append(n)
        return integrate(g, n, *args)

    monkeypatch.setattr(numerics, "integrate_rows", counted)
    est = profile_sup(theorem_id, alpha)
    assert len(calls) == expected
    assert est.converged


@pytest.mark.parametrize("theorem_id", ["T3.1", "T4.1", "T5.1"])
@pytest.mark.parametrize("alpha", [round(0.05 * k, 2) for k in range(1, 20)])
def test_profile_sup_reaches_a_dense_scan_of_its_bracket(theorem_id, alpha):
    """The search ends no lower than 401 evenly spaced s-nodes of the bracket around the grid maximum.

    Within 1e-12 relative at every k: the search samples the sign-change
    bracket of P' and its interpolated root in L, whose widths do not
    shrink with 1 - r.
    """
    k = int(np.argmax(slice_values(theorem_id, radius_grid(40), alpha)))
    s = np.linspace(max(k - 1, 0), min(k + 1, 40), 401)
    dense = max(slice_values(theorem_id, 1.0 - 2.0**-s, alpha))
    value = profile_sup(theorem_id, alpha).value
    assert value >= dense * (1.0 - 1e-12)


def test_integrate_finite_calls_integrand_with_one_ndarray():
    calls = []

    def g(*args, **kwargs):
        calls.append((args, kwargs))
        return np.sin(args[0])

    integrate_finite(g, 0.0, 3.0, 1e-12)
    assert calls
    for args, kwargs in calls:
        assert len(args) == 1 and not kwargs
        assert isinstance(args[0], np.ndarray) and args[0].ndim == 1


def test_integrate_finite_keeps_array_valued_integrands():
    z = np.array([0.5, 2.0, 3.0])
    res = integrate_finite(lambda u: np.exp(np.outer(u, z)), 0.0, 1.0, 1e-12)
    np.testing.assert_allclose(res.value, np.expm1(z) / z, rtol=1e-12)


@pytest.mark.parametrize("alpha", [round(0.05 * k, 2) for k in range(1, 11)])
def test_t31_passes_on_dense_alpha_grid(alpha):
    assert verify_theorem("T3.1", alpha).passed


@pytest.mark.parametrize("alpha", [round(0.05 * k, 2) for k in range(1, 20)])
def test_t41_passes_on_dense_alpha_grid(alpha):
    assert verify_theorem("T4.1", alpha).passed


# one integrand per row of a batch on [0, 1]: rows that converge, a row that
# stops on the width floor and rows that exhaust the panel budget
MIXED_ROWS = (
    lambda u: np.exp(1j * 40.0 * u),
    lambda u: u**-0.5 + 0j,  # stops on the width floor
    lambda u: np.sin(1.0 / u) / u + 0j,  # stops on the width floor
    lambda u: np.sin(10.0 * u) + 0j,
    lambda u: np.exp(1j * 2000.0 * u),  # budget exhausted
    lambda u: np.exp(1j / (u + 0.01)),
    lambda u: np.full(u.shape, 2.0 + 1j),  # converges on its first panel
)


@pytest.mark.parametrize("components", [None, 2], ids=["scalar", "array"])
def test_batch_rows_match_the_one_at_a_time_reference(components, monkeypatch):
    """Each row of one mixed batch ends bitwise where the reference loop ends alone."""
    budget, tol = 301, 1e-10
    monkeypatch.setattr(numerics, "MAX_PANELS", budget)
    rows = MIXED_ROWS
    if components:  # row i as (f_i, (k + 1) f_i), k = 0..components-1
        rows = [lambda u, f=f: np.outer(f(u), np.arange(1.0, components + 1.0)) for f in MIXED_ROWS]

    def batch(x, which):
        out = np.empty(x.shape + ((components,) if components else ()), dtype=complex)
        for i, f in enumerate(rows):
            out[which == i] = f(x[which == i])
        return out

    values, totals, counts = numerics._lockstep(batch, len(rows), 0.0, 1.0, tol)
    outcomes = set()
    for i, f in enumerate(rows):
        value, total, count = _reference(f, 0.0, 1.0, tol, budget)
        assert (int(counts[i]), totals[i].hex()) == (count, total.hex())
        if value is None:
            assert not totals[i] <= tol
            assert f"after {count} panels" in str(numerics._failure(totals[i], counts[i], tol))
            outcomes.add("budget" if count >= budget else "width floor")
        else:
            assert np.asarray(values[i]).tobytes() == np.asarray(value).tobytes()
            outcomes.add("converged")
    assert outcomes == {"converged", "width floor", "budget"}


def test_empty_batch():
    def g(x, rows):
        assert x.size == rows.size == 0
        return np.exp(x)

    values, totals, counts = numerics._lockstep(g, 0, 0.0, 1.0, 1e-10)
    assert values.shape == totals.shape == counts.shape == (0,)
    assert slice_values("T3.1", [], 0.5) == []


def test_non_finite_integrand_raises_instead_of_returning():
    """|K15 - G7| of an infinite panel is nan, and nan > tol is False: the row must still fail."""
    with pytest.raises(ConvergenceError, match="not finite after 1 panels"):
        integrate_finite(lambda u: np.where(u > 0.5, np.inf, 1.0), 0.0, 1.0)
    with pytest.raises(ConvergenceError, match="not finite"):
        integrate_finite(lambda u: np.where(u > 0.5, np.nan, 1.0), 0.0, 1.0)


@pytest.mark.parametrize(
    "theorem_id, alpha, calls, nodes",
    [("T5.1", 0.2, 1, 720), ("T4.1", 0.5, 1, 735), ("T3.1", 0.05, 1, 720)],
)
def test_radial_grid_work_is_pinned(theorem_id, alpha, calls, nodes, monkeypatch):
    """_panels calls and integrand nodes of one slice_values call on the full grid.

    One round of 15 nodes per panel: 7 or 8 table panels up to L = 40 log 2
    and one tail panel per radius, each within PANEL_TOL at once.
    """
    counted = [0, 0]
    panels = numerics._panels

    def counting(g, lo, hi, rows):
        counted[0] += 1

        def g_counted(x, r):
            counted[1] += x.size
            return g(x, r)

        return panels(g_counted, lo, hi, rows)

    monkeypatch.setattr(numerics, "_panels", counting)
    slice_values(theorem_id, radius_grid(40), alpha)
    assert counted == [calls, nodes]


def test_integrand_that_turns_complex_after_the_first_round():
    """Real values on the first panel, complex ones from the round that reaches u < 1e-3."""

    def g(u):
        return np.sqrt(u) + 0j if u.min() < 1e-3 else np.sqrt(u)

    assert not np.iscomplexobj(_one_panel(g, 0.0, 1.0)[0])
    res = integrate_finite(g, 0.0, 1.0, 1e-10)
    assert res.subdivisions > 1 and np.iscomplexobj(res.value)
    assert res.value.real == pytest.approx(2.0 / 3.0, abs=1e-9) and res.value.imag == 0.0


def test_ties_go_to_the_oldest_panel(monkeypatch):
    """With error = width, the first split of each depth takes its leftmost panel, as a heap does.

    A panel's value here is its left end, so the final value names the panels left alive.
    """
    monkeypatch.setattr(numerics, "_panels", lambda g, lo, hi, rows: (lo.copy(), hi - lo))
    monkeypatch.setattr(numerics, "MAX_PANELS", 8)
    values, totals, counts = numerics._lockstep(None, 2, 0.0, 1.0, 0.5)
    # [0, 1] -> [0, .5] [.5, 1] -> [0, .25] [.25, .5] -> [.5, .75] [.75, 1] -> [0, .125] [.125, .25]
    assert values.tolist() == [0.0 + 0.125 + 0.25 + 0.5 + 0.75] * 2
    assert totals.tolist() == [1.0, 1.0] and counts.tolist() == [9, 9]
