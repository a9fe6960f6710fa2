"""Shared polar tables: bitwise equal to fresh per-call tables, bounded and read-only."""

import gc
import math

import numpy as np
import pytest

from cesaronorm import (
    BlochAlpha,
    HardyInf,
    Korenblum,
    KorenblumExtremal,
    KorenblumLog,
    Poly,
    cesaro_of_one,
    cesaro_transform,
    space_norm,
)
from cesaronorm import functions, spaces
from cesaronorm.cesaro import _POLY_SMALL
from cesaronorm.functions import evaluate_polar, polar_tables


def _clear():
    functions._shared_polar_tables.cache_clear()
    functions._shared_level.cache_clear()


# --- reference: the tables built afresh on every call -------------------------

def _ref_angular_powers(unit, n):
    w = np.empty((n, unit.size), dtype=complex)
    w[0] = 1.0
    w[1:] = unit
    return np.cumprod(w, axis=0, out=w)


def _ref_polyval_polar(coeffs, r, w):
    return (coeffs * r[:, None] ** np.arange(coeffs.size)) @ w[: coeffs.size]


def _ref_poly(f, r, angles):
    c = f.series.coeffs
    return _ref_polyval_polar(c, r, _ref_angular_powers(np.exp(1j * angles), c.size))


def _ref_image(f, r, angles):
    """PolyImage.eval_polar (and its derivative's) with fresh W, radial powers and log(1 - z)."""
    small = r < _POLY_SMALL
    rs, rc = r[small], r[~small]
    head, shift, tail = f._series()
    unit = np.exp(1j * angles)
    w = _ref_angular_powers(unit, max(f.q.size, shift + 1, tail.size) if rs.size else f.q.size)
    out = np.empty((r.size, angles.size), dtype=complex)
    if rs.size:
        zs_shift = rs[:, None] ** shift * w[shift]
        out[small] = _ref_polyval_polar(head, rs, w) + f.total * zs_shift * _ref_polyval_polar(tail, rs, w)
    z = rc[:, None] * unit
    out[~small] = f._closed(z, np.log(1.0 - z), lambda p: _ref_polyval_polar(p, rc, w))
    return out


def _functions(degree):
    rng = np.random.default_rng(degree)
    raw = (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)) / (np.arange(degree + 1) + 1.0)
    image = cesaro_transform(Poly(raw))
    return [(Poly(raw), _ref_poly), (image, _ref_image), (image.derivative(), _ref_image)]


def _grids():
    """The level grids and one whole-row patch of a disk sup, plus one 25 x 25 zoom patch."""
    out = []
    for k_max in (30, 40):
        s_grid = -np.log2(1.0 - spaces._clamped_radii(k_max))
        for m in (256, 512, 1024):
            angles = 2.0 * np.pi * np.arange(m) / m
            out.append((1.0 - np.exp2(-s_grid), angles))
    # the row patch around grid row 1 straddles the series/closed switch at r = 0.35
    s = np.clip(1.0 + spaces._PATCH, 0.0, None)
    out.append((1.0 - np.exp2(-s), 2.0 * np.pi * np.arange(512) / 512))
    s = 5.0 + 0.01 * spaces._PATCH
    out.append((1.0 - np.exp2(-s), 0.3 + 0.01 * spaces._PATCH))
    return out


DEGREES = (0, 1, 5, 64, 150)


@pytest.mark.parametrize("order", [DEGREES, DEGREES[::-1]], ids=["growing", "shrinking"])
def test_shared_tables_are_bitwise_the_fresh_ones(order):
    """Every degree, on tables grown in either order, equals the per-call build bit for bit."""
    _clear()
    grids = _grids()
    r_row = grids[6][0]
    assert (r_row < _POLY_SMALL).any() and (r_row >= _POLY_SMALL).any()
    for _ in range(2):  # cold, then warm
        for degree in order:
            for f, ref in _functions(degree):
                for r, angles in grids:
                    np.testing.assert_array_equal(evaluate_polar(f, r, angles), ref(f, r, angles))
    assert functions._shared_polar_tables.cache_info().hits > 0


def test_table_prefixes_are_bitwise_fresh_builds():
    _clear()
    r, angles = _grids()[5]
    tables = polar_tables(r, angles)
    unit = np.exp(1j * angles)
    for n in (3, 4, 1, 70, 71, 151, 40):
        np.testing.assert_array_equal(tables.angular_powers(n), _ref_angular_powers(unit, n))
        np.testing.assert_array_equal(tables.radial_powers(n), r[:, None] ** np.arange(n))
    np.testing.assert_array_equal(tables.log_one_minus(), np.log(1.0 - r[:, None] * unit))
    assert polar_tables(r.copy(), angles.copy()) is tables


def test_small_grids_get_tables_of_their_own():
    r, angles = _grids()[-1]
    assert polar_tables(r, angles) is not polar_tables(r, angles)


def test_small_grid_tables_are_freed_without_the_cycle_collector():
    """A zoom patch's tables hold no reference cycle, so they go with their last reference."""
    r, angles = _grids()[-1]
    image = cesaro_transform(Poly([1.0, 0.5j, -0.25]))
    gc.collect()
    gc.disable()
    try:
        for f in (Poly([1.0, 2.0, 3.0]), image, image.derivative()):
            evaluate_polar(f, r, angles)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cached_arrays_are_read_only():
    _clear()
    r, angles = _grids()[0]
    tables = polar_tables(r, angles)
    for arr in (tables.unit, tables.angular_powers(4), tables.radial_powers(4), tables.log_one_minus()):
        with pytest.raises(ValueError):
            arr[...] = 0.0


def _mixed():
    image = cesaro_transform(Poly([1.0, -0.5j, 0.25, 0.1 + 0.2j]))
    return [
        (Poly([1.0, 2.0j, -0.5]), HardyInf()),
        (image, Korenblum(0.25)),
        (image, KorenblumLog(0.5)),
        (image, BlochAlpha(1.5)),
        (cesaro_of_one(), BlochAlpha(1.0)),
        (KorenblumExtremal(0.3), Korenblum(0.3)),
        (cesaro_transform(Poly(np.linspace(1.0, 0.0, 40) + 0.5j)), HardyInf()),
    ]


def test_norms_do_not_depend_on_the_cache_state():
    pairs = _mixed()
    _clear()
    cold = [space_norm(f, sp) for f, sp in pairs]
    warm = [space_norm(f, sp) for f, sp in pairs]
    _clear()
    backwards = [space_norm(f, sp) for f, sp in reversed(pairs)][::-1]
    assert cold == warm == backwards


def test_cache_stays_within_its_bound(monkeypatch):
    _clear()
    rng = np.random.default_rng(23)
    deg = int(rng.integers(0, 65))
    raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    image = cesaro_transform(Poly(raw / (np.arange(deg + 1) + 1.0)))
    # one single-level disk sup at every angular level up to MAX_ANGLES
    m = spaces.FIRST_ANGLES
    while m <= spaces.MAX_ANGLES:
        with monkeypatch.context() as patched:
            patched.setattr(spaces, "FIRST_ANGLES", m)
            patched.setattr(spaces, "MAX_ANGLES", m)
            assert space_norm(image, Korenblum(0.25), tol=math.inf).angular_points == m
        m *= 2
    f = Poly([1.0, 0.5, 0.25j])
    m = spaces.FIRST_ANGLES
    while m <= spaces.MAX_ANGLES:
        angles = 2.0 * np.pi * np.arange(m) / m
        for i in range(12):
            evaluate_polar(f, np.linspace(0.0, 0.5 + 0.01 * i, 5), angles)
        m *= 2
    grids, levels = functions._shared_polar_tables.cache_info(), functions._shared_level.cache_info()
    assert grids.misses > grids.maxsize and grids.currsize <= grids.maxsize
    assert levels.currsize <= levels.maxsize
