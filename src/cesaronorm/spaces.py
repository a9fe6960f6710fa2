"""Weighted sup-norm spaces on the unit disk and their numerical norms.

Four spaces appear throughout the package, identified by the radial
weight applied to |f| (or to |f'| for the Bloch-type space):

    HardyInf            w(r) = 1
    Korenblum(alpha)    w(r) = (1 - r^2)^alpha,                 0 < alpha < 1
    KorenblumLog(alpha) w(r) = (1 - r^2)^alpha
                               * log(2 e^(1/alpha) / (1 - r^2)), 0 < alpha < 1
    BlochAlpha(alpha)   |f(0)| + sup w(r) |f'(z)|,
                        w(r) = (1 - r^2)^alpha,                 alpha > 0

space_norm estimates the supremum over the disk on a polar grid: the
geometric radius grid r_k = 1 - 2^-k (k = 0..40, clamped inside the
evaluation guard) crossed with an equispaced angular grid that starts at
256 points and doubles until the polished supremum stabilizes.  A level
is polished by a batched zoom in s = -log2(1 - r): whole angle rows at
radii around the grid maximum, then joint (radius, angle) patches that
shrink around the best point until their half-width in s is 1e-8 or
they are flat to rounding around it.  Each doubling evaluates only its
new, odd angles and interleaves them with the last level's values; a
grid maximum no higher than the polished one and in its cell (one angle
step, one grid row) is the same peak, and the search stops there
without polishing it again.  A peak only the finer grid sees is
polished: a rise past tol / 2 is checked at the next level, and a lower
peak, no rise, ends the search.  Every grid, row and patch is a tensor
grid radii x angles, evaluated in one functions.evaluate_polar call:
polynomials and their Cesaro images as a separable product of radial
rows and angular powers, every other function pointwise.  The
grids and whole-row patches repeat across the functions measured, so
their tables come from functions.polar_tables, bitwise as built afresh.  The
argmax angle is reported in [-pi, pi), and a maximum that is flat in the
angle to within rounding at angle 0 is reported at angle 0.  Values
beyond the overflow guard (1e12) mark the function as outside the space
and are reported through the diverged flag instead of an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, DomainError
from .functions import (
    _REAL,
    EVAL_RADIUS_LIMIT,
    AnalyticFunction,
    check_alpha,
    check_radii,
    derivative,
    evaluate,
    evaluate_polar,
    log_weight_constant,
    one_minus_sq,
)
from .numerics import OVERFLOW_GUARD, RADIAL_K_MAX, radius_grid


@dataclass(frozen=True)
class HardyInf:
    """Bounded analytic functions with the plain sup norm."""


@dataclass(frozen=True)
class Korenblum:
    """Weight (1 - r^2)^alpha on |f|."""

    alpha: float

    def __post_init__(self):
        check_alpha("Korenblum", self.alpha, 0.0, 1.0)


@dataclass(frozen=True)
class KorenblumLog:
    """Weight (1 - r^2)^alpha log(2 e^(1/alpha) / (1 - r^2)) on |f|."""

    alpha: float

    def __post_init__(self):
        check_alpha("KorenblumLog", self.alpha, 0.0, 1.0)


@dataclass(frozen=True)
class BlochAlpha:
    """Weight (1 - r^2)^alpha on |f'|, plus the value at the origin."""

    alpha: float

    def __post_init__(self):
        check_alpha("BlochAlpha", self.alpha)


SpaceSpec = HardyInf | Korenblum | KorenblumLog | BlochAlpha


@dataclass(frozen=True)
class NormEstimate:
    """Norm value with the argmax location (angle in [-pi, pi)) and refinement diagnostics.

    argmax_depth, if known, is log(1/(1 - r)) at the argmax radius.
    """

    value: float
    argmax_radius: float
    argmax_angle: float
    radial_points: int
    angular_points: int
    refinement_residual: float
    diverged: bool = False
    argmax_depth: float | None = None


def weight_at(space: SpaceSpec, r):
    """Radial weight of the space at r (scalar or ndarray); DomainError unless 0 <= r < 1."""
    out = _weight(space, check_radii(r))
    return float(out) if np.ndim(r) == 0 else out


def _weight(space: SpaceSpec, r: np.ndarray) -> np.ndarray:
    """weight_at on an ndarray of radii, without the radius check."""
    if isinstance(space, HardyInf):
        return np.ones_like(r)
    if isinstance(space, (Korenblum, BlochAlpha)):
        return one_minus_sq(r) ** space.alpha
    if isinstance(space, KorenblumLog):
        omsq = one_minus_sq(r)
        return omsq ** space.alpha * (log_weight_constant(space.alpha) - np.log(omsq))
    raise DomainError(f"unknown space {space!r}")


def _clamped_radii(k_max: int) -> np.ndarray:
    rs = np.minimum(radius_grid(k_max), EVAL_RADIUS_LIMIT)
    return np.unique(rs)


# the angular grid starts at this many points and doubles up to the cap
FIRST_ANGLES = 256
MAX_ANGLES = 8192

# patch nodes in units of the half-width; an interior winner leaves one
# node spacing, a twelfth of the half-width, to search in the next patch
_PATCH = np.linspace(-1.0, 1.0, 25)
_SHRINK = 2.0 / (_PATCH.size - 1)


def _principal_angle(angle: float) -> float:
    """angle reduced to [-pi, pi); exact, as the final shift by 2 pi lies in Sterbenz range."""
    angle %= 2.0 * math.pi
    return angle - 2.0 * math.pi if angle >= math.pi else angle


def _disk_sup(f, space, tol, k_max):
    """sup over a polar grid of weight_at(space, r) |f(z)|, polished by batched zoom.

    A bare angular grid converges only quadratically in the spacing, so
    each level is polished in s = -log2(1 - r): whole angle rows first,
    since the angle of the maximum moves with r, then joint patches,
    square in (r, angle) so that their angular width scales with 1 - r
    like a peak near the circle.  The zoom stops at a radial half-width of
    1e-8, or once the winner's 3 x 3 neighbourhood is flat to rounding
    (1 x 3 on the top row, onto which every row above it clips).  The
    angular resolution doubles until the polished supremum stops moving.
    A level after the first evaluates only its new, odd columns, and a
    grid winner no higher than the polished best and within one angle
    step (any angle on the r = 0 row) and one grid row of it is the
    polished peak's own basin: the search ends there without polishing
    it again.
    """
    radii = _clamped_radii(k_max)
    s_grid = -np.log2(1.0 - radii)
    s_top = float(s_grid[-1])

    def weighted(s, angles):
        r = 1.0 - np.exp2(-s)
        return _weight(space, r)[:, None] * np.abs(evaluate_polar(f, r, angles))

    def best(vals, s, angles):
        """The best node of vals on s x angles: row, column, s, angle and value."""
        a, b = np.unravel_index(int(np.argmax(vals)), vals.shape)
        return a, b, float(s[a]), float(angles[b]), float(vals[a, b])

    def patch(s, angles):
        """s clipped to the grid, the weighted modulus on s x angles, and its best node."""
        s = np.clip(s, 0.0, s_top)
        vals = weighted(s, angles)
        return s, vals, best(vals, s, angles)

    def scan(vals, angles, m):
        # increasing radius so a blow-up reports its first witness
        row_max = vals.max(axis=1)
        bad = np.flatnonzero(~np.isfinite(row_max) | (row_max > OVERFLOW_GUARD))
        if not bad.size:
            return None
        i = int(bad[0])
        j = int(np.argmax(vals[i]))
        return NormEstimate(
            value=float(row_max[i]),
            argmax_radius=float(radii[i]),
            argmax_angle=_principal_angle(float(angles[j])),
            radial_points=i + 1,
            angular_points=m,
            refinement_residual=math.inf,
            diverged=True,
        )

    def polish(angles, m, lo, hi, grid_best):
        _, _, best_s, best_angle, best_v = grid_best
        centre, h_s = 0.5 * (lo + hi), 0.5 * (hi - lo)
        _, _, (_, _, s, angle, v) = patch(centre + h_s * _PATCH, angles)
        if v > best_v:
            best_s, best_angle, best_v = s, angle, v

        # h is the angular half-width and, as a change of r, the radial one
        h = 2.0 * np.pi / m
        residual = 0.0
        for _ in range(100):
            h_s = h / (math.log(2.0) * math.exp2(-best_s))
            if h_s <= 1e-8:
                break
            s, vals, (a, b, s_a, angle, v) = patch(best_s + h_s * _PATCH, best_angle + h * _PATCH)
            residual = max(v - best_v, 0.0)
            if v > best_v:
                best_s, best_angle, best_v = s_a, angle, v
                # a winner on the patch edge may sit below a higher point
                # outside: slide the patch before shrinking it
                if {a, b} & {0, _PATCH.size - 1}:
                    continue
            rows = vals[a : a + 1] if s_a == s_top else vals[max(a - 1, 0) : a + 2]
            near = rows[:, max(b - 1, 0) : b + 2]
            if near.max() - near.min() <= 4e-16 * max(1.0, v):
                break
            h *= _SHRINK
        return best_s, _principal_angle(best_angle), best_v, residual

    m, best_v, angular_delta, vals = FIRST_ANGLES // 2, -math.inf, math.inf, None
    while m < MAX_ANGLES:
        m *= 2
        angles = 2.0 * np.pi * np.arange(m) / m
        if vals is None:
            vals = weighted(s_grid, angles)
        else:
            # the last level's angles are bitwise this level's even columns
            odd = weighted(s_grid, angles[1::2])
            vals = np.stack([vals, odd], axis=2).reshape(len(s_grid), m)
        flagged = scan(vals, angles, m)
        if flagged is not None:
            return flagged
        grid_best = best(vals, s_grid, angles)
        i, _, _, angle, v = grid_best
        lo, hi = s_grid[max(i - 1, 0)], s_grid[min(i + 1, len(s_grid) - 1)]
        if (
            v <= best_v
            and lo <= best_s <= hi
            and (i == 0 or abs(math.remainder(angle - best_angle, 2.0 * math.pi)) <= 2.0 * math.pi / m)
        ):
            # the polished peak's own basin: this level adds nothing to it;
            # the r = 0 row ties at every angle, so a winner there has no angle of its own
            break
        ns, na, nv, nres = polish(angles, m, lo, hi, grid_best)
        angular_delta = max(nv - best_v, 0.0)
        if nv > best_v:
            best_s, best_angle, best_v, residual = ns, na, nv, nres
        # the first level has no level to compare with, even at tol = inf
        if m > FIRST_ANGLES and angular_delta <= max(0.5 * tol, 4e-16 * max(1.0, best_v)):
            break
    else:
        if angular_delta > tol:
            raise ConvergenceError(
                f"angular refinement stalled at delta {angular_delta:.3e} with {m} angles"
            )

    # a maximum flat in the angle to within rounding is reported at angle 0,
    # not at a few ulps either side of it
    v_real = float(weighted(np.array([best_s]), np.zeros(1))[0, 0])
    if v_real >= best_v - 4e-16 * max(1.0, best_v):
        best_angle, best_v = 0.0, max(best_v, v_real)

    return NormEstimate(
        value=best_v,
        argmax_radius=1.0 - math.exp2(-best_s),
        argmax_angle=best_angle,
        radial_points=len(radii),
        angular_points=m,
        refinement_residual=residual,
        argmax_depth=best_s * math.log(2.0),
    )


def space_norm(
    f: AnalyticFunction,
    space: SpaceSpec,
    tol: float = 1e-9,
    k_max: int = RADIAL_K_MAX,
) -> NormEstimate:
    """Numerical norm of f in the given space.

    The returned value is a supremum over sampled points, hence a lower
    bound of the true norm that is accurate to roughly tol for smooth
    integrands.  A diverged estimate means the weighted modulus passed
    the overflow guard, i.e. f does not belong to the space.  tol must be
    positive (inf visits two angular levels) and k_max an integer >= 1.
    """
    if isinstance(tol, bool) or not isinstance(tol, _REAL) or not tol > 0.0:
        raise DomainError(f"space_norm requires tol > 0, got {tol!r}")
    if isinstance(space, BlochAlpha):
        base = abs(evaluate(f, 0j))
        est = _disk_sup(derivative(f), space, tol, k_max)
        if est.diverged:
            return est
        return replace(est, value=base + est.value)
    return _disk_sup(f, space, tol, k_max)

