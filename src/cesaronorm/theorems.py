"""Verified quantities: norm identities, bounds, and their witnesses.

Each radial profile is int_0^inf F(r, t) dt, F = w_Y(r) |S_t f_X(r)| the
target weight times the image of the source's norm-one extremal under the
semigroup S_t of cesaro, which profile_integrand evaluates.  With
delta = 1 - r and u = e^-t, the plain pair (T3.1) has

    F(r, t) = (1 + r)^alpha * u * (delta + u r)^(2 alpha - 1)
              / (delta + 2 u r)^alpha ,

whose profile has supremum and boundary limit 1/alpha, the norm on the
plain weighted space for alpha <= 1/2.  A log-weighted source (T4.1)
divides F by the log factor log(2 e^(1/alpha) / (1 - s^2)) at
s = phi_t(r); a log-weighted target (T5.1) also multiplies by the log
factor at s = r.

The profiles are computed in L = log(1/delta): y = log(1 + u r / delta)
maps t >= 0 onto [0, L] and gives 1 - phi_t(r)^2 = e^-y (2 - e^-y), so

    P3 = ((1 + r)^alpha / r) int_0^L e^(-alpha (L - y)) (2 - e^-y)^-alpha dy,

P4 is the same with the kernel over 1/alpha + y - log(1 - e^-y / 2), and
P5 = Lambda(L) P4 with Lambda(L) = 1/alpha + L - log(1 - e^-L / 2).  No
difference 1 - r is formed, and one numerics.ExpCumulative pass serves
every depth of a search.  profile_sup samples each profile past the peaks
of P4 and P5 and finds the sup in L from the exact slope dP/dL, since
dI/dL = k(L) - alpha I(L).  Both boundary limits 1/alpha are read at
L = 40/alpha, where e^(-alpha L) < 5e-18.  P3 = 1/alpha + B e^(-alpha L)
+ O(e^-L) is its limit there.  With M = L + 1/alpha, P5 tends to
Q = M e^(-alpha M) (Ei(alpha M) - Ei(1)), P5 with k3 -> 2^-alpha and
Lambda -> M, as P5 - Q = O(alpha M e^(-alpha L)); at alpha M = 41,
alpha Q - 1 is one constant c, and the limit is P5 - c/alpha.
The Bloch witness W of C(1) is closed form in L: 1 + its sup, on the same
search, is the norm of C(1), and below alpha = 1 log W rises with slope
1 - alpha in L (T7.1).

Result identifiers
------------------
    T3.1  exact norm 1/alpha on the plain weighted space, 0 < alpha <= 1/2
    T4.1  norm from the log-weighted space into the plain one:
          sup-integral formula, lower bound 1/(1/alpha + log 2)
    T5.1  norm on the log-weighted space: sup-integral formula,
          boundary limit >= 1/alpha
    T6.2  upper bound for the Bloch-type norm, alpha > 1
    T6.3  lower bound 3/2 for the Bloch-type norm, alpha > 1
    T7.1  sup-norm -> Bloch-type bounds: [3, 4] at alpha = 1,
          [3/2, 4] for alpha > 1, unbounded for 0 < alpha < 1

The identifiers are the package's stable vocabulary; the CLI accepts
them verbatim.  RESULTS, at the end of this module, states each result's
claim and witness once; one _verdict judges the witness against the
claim, each norm-table column names the end of either that it shows, and
the CLI reads nothing else about a result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Optional, Union

import numpy as np

from .cesaro import _st_eval
from .errors import ConvergenceError, DomainError, PreconditionError
from .functions import (
    KorenblumExtremal,
    LogKorenblumExtremal,
    _polyval,
    check_alpha,
    check_radii,
    log_weight_constant,
    one_minus_sq,
)
from .numerics import (
    DivergenceFlag,
    ExpCumulative,
    SupEstimate,
    integrate_finite,
    radius_grid,
)
from .spaces import BlochAlpha, HardyInf, Korenblum, KorenblumLog, weight_at

Interval = tuple[float, Optional[float]]


@dataclass(frozen=True)
class TheoremVerdict:
    theorem_id: str
    alpha: float
    theoretical: Union[float, Interval, None]
    computed: Optional[float]
    tolerance: float
    passed: bool
    notes: str

    def to_dict(self) -> dict:
        theoretical = self.theoretical
        if isinstance(theoretical, tuple):
            theoretical = [theoretical[0], theoretical[1]]
        computed = self.computed
        if computed is not None and not math.isfinite(computed):
            computed = None
        return {
            "theorem_id": self.theorem_id,
            "alpha": self.alpha,
            "theoretical": theoretical,
            "computed": computed,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "notes": self.notes,
        }


def profile_integrand(theorem_id: str, r: float, t, alpha: float):
    """F = w_Y(r) |S_t f_X(r)|, the integrand over t >= 0 of the T3.1, T4.1 or T5.1 profile.

    f_X is the source's norm-one extremal and w_Y the target's weight, both
    read from the result's pair; S_t is cesaro's, and weight_at checks r.
    Vectorized over t, which may be +inf, where F vanishes, but not
    negative or nan.  For T3.1, F(0, t) = e^-t, and for fixed t the
    boundary limit is e^(-alpha t).
    """
    check_alpha("profile_integrand", alpha, 0.0, 1.0)
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("t must be nonnegative")
    source, target = _radial_pair(theorem_id)
    extremal = (LogKorenblumExtremal if source is KorenblumLog else KorenblumExtremal)(alpha)
    return weight_at(target(alpha), r) * np.abs(_st_eval(extremal, np.exp(-t), r))


def _radial_pair(theorem_id: str) -> tuple[type, type]:
    """The (source, target) space types of a radial profile; DomainError for an id outside RADIAL_IDS."""
    if theorem_id not in RADIAL_IDS:
        raise DomainError(f"no radial profile for {theorem_id!r}; choose from {RADIAL_IDS}")
    return RESULTS[theorem_id].pair


def _profile_columns(theorem_id: str, alpha: float) -> Callable:
    """sample(depths, r = 1 - e^-L): columns (L, r, P, P') of the T3.1, T4.1 or T5.1 profile, from one table call.

    The table is one ExpCumulative pass of k = (2 - e^-y)^-alpha, over
    Lambda = 1/alpha + y - log(1 - e^-y / 2) for a log-weighted source.
    P' = c' I + c (k - alpha I) for P = c I, c = (1 + r)^alpha / r, dr/dL = e^-L;
    at r = 0, P = k(0) and P' = k(0) / 2, as k'(0) = -alpha k(0) for both
    kernels.  A log-weighted target (T5.1) multiplies by Lambda at L, and
    Lambda' = 1 - e^-L / (2 - e^-L).
    """
    source, target = _radial_pair(theorem_id)

    def kernel(y, e):  # k and Lambda (None for a plain source) at y, given e = e^-y
        k3 = (2.0 - e) ** -alpha
        if source is not KorenblumLog:
            return k3, None
        log_factor = 1.0 / alpha + y - np.log1p(-0.5 * e)
        return k3 / log_factor, log_factor

    table = ExpCumulative(lambda y: kernel(y, np.exp(-y))[0], alpha)

    def sample(depths, r=None):
        cumulative, minus = table(depths), -depths
        e, r = np.exp(minus), -np.expm1(minus) if r is None else r
        (k, log_factor), at_zero, one_plus_r = kernel(depths, e), not r.all(), 1.0 + r
        safe_r = np.where(r > 0.0, r, 1.0) if at_zero else r
        scale = one_plus_r**alpha / safe_r
        values = scale * cumulative
        slopes = scale * (e * (alpha / one_plus_r - 1.0 / safe_r) * cumulative + k - alpha * cumulative)
        if at_zero:
            values, slopes = np.where(r > 0.0, values, k), np.where(r > 0.0, slopes, 0.5 * k)
        if target is KorenblumLog:
            values, slopes = log_factor * values, log_factor * slopes + (1.0 - e / (2.0 - e)) * values
        return np.array([depths, r, values, slopes])

    return sample


def slice_values(theorem_id: str, radii, alpha: float) -> list:
    """The T3.1, T4.1 or T5.1 radial profile at every radius, from one cumulative pass in L.

    A ConvergenceError of the pass is raised.  A radius's value is bitwise
    the same whichever radii share the call, and whichever depths filled
    the table before (profile_sup calls one table up to three times).
    alpha and the radii are checked once, before any integration.
    """
    check_alpha("slice_values", alpha, 0.0, 1.0)
    radii = check_radii(radii)
    return _profile_columns(theorem_id, alpha)(-np.log1p(-radii), radii)[2].tolist()


def korenblum_slice_integral(r: float, alpha: float) -> float:
    """int_0^inf F(r, t) dt, the radial profile behind the T3.1 supremum."""
    return slice_values("T3.1", [r], alpha)[0]


def log_to_plain_slice(r: float, alpha: float) -> float:
    """Radial profile for T4.1: F divided by the log factor at phi_t(r)."""
    return slice_values("T4.1", [r], alpha)[0]


def log_to_log_slice(r: float, alpha: float) -> float:
    """Radial profile for T5.1: F times the ratio of log factors."""
    return slice_values("T5.1", [r], alpha)[0]


# alpha L of the boundary-limit reads
_LIMIT_DEPTH = 40.0
# depths sampled inside the bracket of a sup search
_SUP_NODES = 32
_EYE6 = np.eye(6, dtype=bool)
# the radius grid r_k = 1 - 2^-k, k <= 40, its depths and its end depth
_GRID_RADII = radius_grid()
_GRID_DEPTHS, _GRID_END = -np.log1p(-_GRID_RADII), -math.log1p(-_GRID_RADII[-1])


def _sup_search(sample, cols):
    """The best column (L, r, value, slope) of a profile sampled at cols, by increasing L, and converged.

    Unless the slope is >= 0 at a maximum on the last column, which counts
    as converged, sample(depths) takes _SUP_NODES depths of the neighbour
    bracket where the slope changes sign, then the root of the slope
    interpolated inversely through the six nodes around the best sub-bracket;
    converged means slope^2 / (2 |slope'|) <= 1e-9 max(1, |value|) there,
    slope' the secant.
    """
    i = int(cols[2].argmax())
    if i == cols.shape[1] - 1 and not cols[3, i] < 0.0:
        return cols[:, i], True
    lo = i if cols[3, i] >= 0.0 else i - 1  # a positive slope at the first column keeps lo >= 0
    inner = np.linspace(cols[0, lo], cols[0, lo + 1], _SUP_NODES + 2)[1:-1]
    cols = np.concatenate([cols[:, lo : lo + 1], sample(inner), cols[:, lo + 1 : lo + 2]], axis=1)
    j = int(cols[2].argmax())
    m = min(max(j - int(cols[3, j] < 0.0), 0), _SUP_NODES)
    (x0, x1), (d0, d1) = cols[0, m : m + 2], cols[3, m : m + 2]
    first = min(max(m - 2, 0), _SUP_NODES - 4)
    x, d = cols[0, first : first + 6], cols[3, first : first + 6]
    with np.errstate(all="ignore"):  # Lagrange weights at slope 0: [i, j] = d_j / (d_j - d_i), i != j
        lagrange = np.where(_EYE6, 1.0, d / (d - d[:, None]))
        root = float(lagrange.prod(axis=1) @ x)
    cols = np.concatenate([cols, sample(np.array([root if x0 <= root <= x1 else 0.5 * (x0 + x1)]))], axis=1)
    shortfall_bound = 2e-9 * abs(d1 - d0) * max(1.0, abs(cols[2, -1]))
    return cols[:, cols[2].argmax()], bool(cols[3, -1] ** 2 * (x1 - x0) <= shortfall_bound)


def profile_sup(theorem_id: str, alpha: float) -> SupEstimate:
    """Supremum of the T3.1, T4.1 or T5.1 profile, searched in L with the exact slope P'.

    One table call samples every profile on the grid r_k = 1 - 2^-k,
    k <= 40, then in steps of sqrt(2) in L from the grid end up to
    L = 4/alpha, past the peaks of P4 and P5 (at alpha L = 0.48..1.34 and
    2.13..3.30), then, for T3.1 and T5.1, at L = 40/alpha.  _sup_search
    refines the maximum with P' in at most two more table calls.  On the
    grid P3 and P5 stay below 27.73 (about 40 log 2, the grid's end depth)
    and P4 below 0.65 for every alpha, so no estimate is diverged.
    extrapolated_limit is the profile at L = 40/alpha less the result's
    limit_tail / alpha there: 0 for T3.1, c / alpha for T5.1.
    """
    check_alpha("profile_sup", alpha, 0.0, 1.0)
    sample, end = _profile_columns(theorem_id, alpha), _GRID_END
    # steps of sqrt(2), as steps of 2 left P5's sup 7e-14 short; 2100 steps pass the float range
    steps = np.arange(1.0, min(max(np.ceil(2.0 * np.log2(4.0 / (alpha * end))), 0.0), 2100.0) + 1.0)
    tail = RESULTS[theorem_id].limit_tail
    extra = np.concatenate([end * 2.0 ** (steps / 2.0), [] if tail is None else [_LIMIT_DEPTH / alpha]])
    cols = sample(np.concatenate([_GRID_DEPTHS, extra]), np.concatenate([_GRID_RADII, -np.expm1(-extra)]))
    limit = None if tail is None else float(cols[2, -1] - tail / alpha)
    best, converged = _sup_search(sample, cols)
    depth, radius, value = (float(c) for c in best[:3])
    return SupEstimate(value, radius, converged, limit, argmax_depth=depth)


def korenblum_sup(alpha: float) -> SupEstimate:
    """Supremum over the radius of the T3.1 profile (boundary limit 1/alpha)."""
    return profile_sup("T3.1", alpha)


def log_to_plain_norm(alpha: float) -> SupEstimate:
    """T4.1 sup-integral; the maximizer sits at an interior radius."""
    return profile_sup("T4.1", alpha)


def log_to_log_norm(alpha: float) -> SupEstimate:
    """T5.1 sup-integral; extrapolated_limit is the boundary value, read at L = 40/alpha."""
    return profile_sup("T5.1", alpha)


def log_to_plain_lower_bound(alpha: float) -> float:
    """Closed-form lower bound 1/(1/alpha + log 2) for the T4.1 norm."""
    return 1.0 / log_weight_constant(check_alpha("log_to_plain_lower_bound", alpha, 0.0, 1.0))


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def bloch_upper_bound(alpha: float) -> float:
    """Upper bound for the Bloch-type operator norm, alpha > 1.

    max(A, 2^alpha/(alpha-1)) on 1 < alpha <= 2 and
    max(A, 2^alpha (2^alpha - alpha - 1)/(alpha-1)^2) beyond, with
    A = 1 + (2/(2 alpha - 1))^(2 alpha - 1) alpha^alpha (alpha-1)^(alpha-1).
    A tends to 2, but its factors overflow from alpha ~ 144 on, so its
    product is formed from its logarithm.  The second term passes the
    float range near alpha = 521, which is a DomainError.
    """
    a = check_alpha("bloch_upper_bound", alpha, 1.0)
    log_a = (2.0 * a - 1.0) * math.log(2.0 / (2.0 * a - 1.0))
    big_a = 1.0 + math.exp(log_a + a * math.log(a) + (a - 1.0) * math.log(a - 1.0))
    if a <= 2.0:
        other = 2.0**a / (a - 1.0)
    else:
        # log of an upper bound on the second term
        if 2.0 * a * math.log(2.0) - 2.0 * math.log(a - 1.0) >= _LOG_FLOAT_MAX:
            raise DomainError(f"the T6.2 upper bound leaves the float range at alpha = {a:g}")
        # 4^alpha alone overflows from alpha = 512 on; scaling by 2^-64 and
        # back is exact, so the value is the unscaled product wherever that is finite
        other = 2.0**a * 2.0**-64 * (2.0**a - a - 1.0) / (a - 1.0) ** 2 * 2.0**64
    return max(big_a, other)


def bloch_lower_bound(alpha: float) -> float:
    """Lower bound 3/2 for the Bloch-type operator norm, alpha > 1, once bloch_lower_bound_integral gives it to 1e-9."""
    check_alpha("bloch_lower_bound", alpha, 1.0)
    defining = bloch_lower_bound_integral()
    if abs(defining - 1.5) > 1e-9:
        raise ConvergenceError(f"the defining integral of the 3/2 bound gives {defining:.12g}")
    return 1.5


def bloch_lower_bound_integral() -> float:
    """The defining computation 1 + int_0^inf e^-t (1 - e^-t) dt = 3/2, as 1 + int_0^1 (1 - u) du."""
    return 1.0 + float(np.real(integrate_finite(lambda u: 1.0 - u, 0.0, 1.0).value))


def hardy_to_bloch_bounds(alpha: float):
    """Norm interval for sup-norm -> Bloch-type; below 1 a DivergenceFlag if divergence_witness confirms."""
    alpha = check_alpha("hardy_to_bloch_bounds", alpha)
    if alpha < 1.0:
        deepest, _, _, confirmed = divergence_witness(alpha)
        if not confirmed:
            raise PreconditionError("the witness fit does not confirm the blow-up; use alpha further below 1")
        return DivergenceFlag(*deepest)
    if alpha == 1.0:
        return (3.0, 4.0)
    return (1.5, 4.0)


def boundary_envelope(r, alpha: float):
    """(1 + r)^alpha (1 - r)^(alpha - 1); peaks at r = 1/(2 alpha - 1) for alpha > 1."""
    check_alpha("boundary_envelope", alpha)
    r = check_radii(r)
    return (1.0 + r) ** alpha * (1.0 - r) ** (alpha - 1.0)


# e^L - 1 - L = L^2 sum_n L^n / (n + 2)! below L = 1, where the subtraction cancels; highest power first
_EXPM1_TAIL = 1.0 / np.array([math.factorial(n + 2) for n in range(17, -1, -1)])


def _log_witness(depths, alpha: float):
    """log W and d(log W)/dL at depths L in [0, inf], W = (1 - r^2)^alpha C(1)'(r) the Bloch witness.

    r = 1 - e^-L gives C(1)'(r) = (e^L - 1 - L) / r^2, so with m = r - L e^-L
    log W = alpha log(1 + r) + (1 - alpha) L + log(m / r^2), and dm/dL = L e^-L.
    The ends take their limits: log(1/2) and 4/3 at L = 0; log 2 + (1 - alpha) L
    and 1 - alpha at L = inf, where W = 2 exactly at alpha = 1.
    """
    depths = np.asarray(depths, dtype=float)
    inside = (depths > 0.0) & (depths < math.inf)
    x = np.where(inside, depths, 1.0)
    e, r = np.exp(-x), -np.expm1(-x)
    m = np.where(x < 1.0, e * x * x * np.polyval(_EXPM1_TAIL, x), r - x * e)
    log_w = alpha * np.log1p(r) + (1.0 - alpha) * x + np.log(m / (r * r))
    slope = alpha * e / (1.0 + r) + 1.0 - alpha + e * (x / m - 2.0 / r)
    far = math.log(2.0) + (0.0 if alpha == 1.0 else (1.0 - alpha) * math.inf)
    log_w = np.where(inside, log_w, np.where(depths > 0.0, far, -math.log(2.0)))
    return log_w, np.where(inside, slope, np.where(depths > 0.0, 1.0 - alpha, 4.0 / 3.0))


def bloch_witness_profile(r, alpha: float):
    """(1 - r^2)^alpha C(1)'(r), the radial witness for (un)boundedness, from _log_witness.

    For alpha < 1 the profile grows like 2^alpha (1 - r)^(alpha - 1) near
    the boundary.  A float for a scalar r, an ndarray for an array.
    """
    alpha = check_alpha("bloch_witness_profile", alpha)
    out = np.exp(_log_witness(-np.log1p(-check_radii(r)), alpha)[0])
    return float(out) if out.ndim == 0 else out


# depths of the T7.1 slope fit, where r = 1 - e^-L rounds to 1
_DIVERGENCE_DEPTHS = np.linspace(40.0, 700.0, 12)


def divergence_witness(alpha: float):
    """A fit of log W = a + b L to the witness W at L = 40, 100, ..., 700.

    Below alpha = 1, log W = alpha log 2 + (1 - alpha) L there to rounding.
    Returns (L, W) at L = 700, b, the largest misfit, and whether they
    confirm the blow-up: b > 0 and b (700 - 40) above 10 times the misfit.
    """
    log_w = _log_witness(_DIVERGENCE_DEPTHS, alpha)[0]
    design = np.column_stack([np.ones(log_w.size), _DIVERGENCE_DEPTHS])
    coef = np.linalg.lstsq(design, log_w, rcond=None)[0]
    slope, misfit = float(coef[1]), float(np.abs(design @ coef - log_w).max())
    confirmed = bool(slope > 0.0 and slope * (_DIVERGENCE_DEPTHS[-1] - _DIVERGENCE_DEPTHS[0]) > 10.0 * misfit)
    return (float(_DIVERGENCE_DEPTHS[-1]), math.exp(log_w[-1])), slope, misfit, confirmed


# L = 0, 2^(j/4) for j = -80..24, inf: the sup lies near L = 2/(3 alpha) for large alpha
_WITNESS_DEPTHS = np.concatenate([[0.0], 2.0 ** (np.arange(-80, 25) / 4.0), [math.inf]])


def constant_one_bloch_sup(alpha: float) -> SupEstimate:
    """Bloch-type norm of C(1), the standard witness for the lower bounds, at its argmax depth.

    Every Taylor coefficient of C(1)' is nonnegative, so |C(1)'(z)| <= C(1)'(|z|)
    and the norm is 1 + sup_L W: _sup_search on log W over _WITNESS_DEPTHS.
    It is 3 at alpha = 1, where W tends to 2 at L = inf, and inf below.
    """
    alpha = check_alpha("BlochAlpha", alpha)

    def sample(depths):
        return np.array([depths, -np.expm1(-depths), *_log_witness(depths, alpha)])

    (depth, radius, log_w, _), converged = _sup_search(sample, sample(_WITNESS_DEPTHS))
    return SupEstimate(1.0 + math.exp(log_w), float(radius), converged, argmax_depth=float(depth))


def constant_one_bloch_norm(alpha: float) -> float:
    """The value of constant_one_bloch_sup(alpha)."""
    return constant_one_bloch_sup(alpha).value


def h_series_coeff(n: int) -> float:
    """Taylor coefficient of the radial profile h below: 1, 1, then
    5/(2n(n+2)) + (-1)^(n-1)/(2n(n+2))."""
    if n < 0:
        raise DomainError("coefficient index must be nonnegative")
    if n <= 1:
        return 1.0
    return 5.0 / (2.0 * n * (n + 2)) + (-1.0) ** (n - 1) / (2.0 * n * (n + 2))


_H_SERIES_PREFIX = np.array([h_series_coeff(n) for n in range(9)])
_H_SMALL = 1e-4


def h_closed_form(r):
    """h(r) = ((1-r^2)/r^2) (3r/(2(1-r)) - (1/4) log((1+r)/(1-r)^5)).

    The increasing radial profile behind the value-4 upper bound; its
    boundary limit is 3.  A short series branch covers the removable
    singularity at the origin.  A float for a scalar r, an ndarray for
    an array.
    """
    r = check_radii(r)
    small = r < _H_SMALL
    safe = np.where(small, 0.5, r)
    bracket = 1.5 * safe / (1.0 - safe) - 0.25 * (np.log1p(safe) - 5.0 * np.log1p(-safe))
    big = (1.0 - safe * safe) / (safe * safe) * bracket
    out = np.where(small, _polyval(_H_SERIES_PREFIX, r).real, big)
    return float(out) if out.ndim == 0 else out


def h_analytic(z):
    """Analytic extension of h to the disk (principal logs; branch-safe)."""
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < _H_SMALL
    safe = np.where(small, 0.5, z)
    bracket = 1.5 * safe / (1.0 - safe) - 0.25 * (np.log(1.0 + safe) - 5.0 * np.log(1.0 - safe))
    big = one_minus_sq(safe) / (safe * safe) * bracket
    return np.where(small, _polyval(_H_SERIES_PREFIX, z), big)


def argmax_note(est) -> str:
    """'r = ...' to six digits, or '1 - r = ...' where r rounds to 1 there (past L = 14.5), as e^-L past L = 700.

    est is a SupEstimate or a NormEstimate; only its argmax_radius and
    argmax_depth are read.
    """
    at, depth = f"r = {est.argmax_radius:.6g}", est.argmax_depth
    if at != "r = 1":
        return at
    return f"1 - r = {math.exp(-depth):.3e}" if depth <= 700.0 else f"1 - r = e^-{depth:g}"


def _verdict(result: Result, alpha: float, tol: float) -> TheoremVerdict:
    """Judge result's witness against its paper_ends(alpha): the one verdict rule for every id.

    An infinite witness goes to divergence_witness.  The value read is the
    boundary limit, tol relative, where limit_tail is set, else the sup,
    tol absolute; it must clear low, and it and the sup a claimed high.
    """
    est = result.witness(alpha)
    if math.isinf(est.value):
        (depth, value), slope, misfit, confirmed = divergence_witness(alpha)
        notes = (
            f"unbounded, divergence {'confirmed' if confirmed else 'not confirmed'}: log witness "
            f"fits a + b L with slope b = {slope:.9g} vs 1 - alpha = {1.0 - alpha:.9g} "
            f"(residual {misfit:.1e}); witness {value:.6g} at 1 - r = e^-{depth:g}"
        )
        return TheoremVerdict(result.theorem_id, alpha, None, value, tol, confirmed, notes)
    low, high = result.paper_ends(alpha)
    read = f"sup {est.value:.9g} at {argmax_note(est)}"
    value, slack = est.value, tol
    if result.limit_tail is not None:
        value, slack = est.extrapolated_limit, tol * low
        tail = f" less its tail {result.limit_tail / alpha:.9g}" if result.limit_tail else ""
        read += f"; boundary limit {value:.9g} at 1 - r = e^-{_LIMIT_DEPTH / alpha:g}{tail}"
    passed = low - slack <= value and (high is None or max(value, est.value) <= high + slack)
    paper = f"paper >= {low:.9g}" if high is None else f"paper [{low:.9g}, {high:.9g}]"
    if not result.admits(alpha, exact_only=True):
        paper += f", exact only for alpha <= {result.exact_max:g}"
    theoretical = low if low == high else (low, high)
    return TheoremVerdict(result.theorem_id, alpha, theoretical, value, tol, passed, f"{read}; {paper}")


@dataclass(frozen=True)
class Result:
    """One catalogued result, as verify, table, empirical and dump-integrand read it.

    domain is the open alpha interval; exact_max, when set, caps the alpha
    range where the value is exact rather than a bound.  claim(alpha) is
    the paper's (low, high), high None where only low is claimed, or a
    DivergenceFlag where T7.1 is unbounded; past exact_max, paper_ends
    drops high.  witness(alpha) is the SupEstimate, a sup in L, of the
    image of the source's norm-one extremal function, infinite where the
    pair is unbounded; _verdict reads its boundary limit less limit_tail /
    alpha where limit_tail is set.  columns are its (name, end) in the
    norm table: end "low" or "high" of claim(alpha), or "sup", the witness
    value.  pair is the (source, target) space types of its empirical
    bound, checked against bounds(alpha, witness); where both weight |f|,
    its id is in RADIAL_IDS, and profile_integrand reads its extremal and
    weight from them.
    """

    theorem_id: str
    tol: float
    domain: tuple[float, float]
    claim: Callable[[float], Union[Interval, DivergenceFlag]]
    witness: Callable[[float], SupEstimate]
    columns: tuple[tuple[str, str], ...]
    exact_max: Optional[float] = None
    limit_tail: Optional[float] = None
    pair: Optional[tuple[type, type]] = None

    def paper_ends(self, alpha: float) -> Union[Interval, DivergenceFlag]:
        """claim(alpha), with high None past exact_max; a DivergenceFlag as it is."""
        claim = self.claim(alpha)
        if isinstance(claim, DivergenceFlag) or self.admits(alpha, exact_only=True):
            return claim
        return claim[0], None

    def bounds(self, alpha: float, witness) -> Union[Interval, DivergenceFlag]:
        """paper_ends(alpha), with the value of witness, the caller's witness(alpha), as high where none is claimed."""
        ends = self.paper_ends(alpha)
        if isinstance(ends, DivergenceFlag) or ends[1] is not None:
            return ends
        return ends[0], witness.value

    def cells(self, alpha: float) -> tuple:
        """Its norm-table cells: each column's end of claim(alpha), or the witness value; None for a DivergenceFlag."""
        claim = self.claim(alpha)
        if isinstance(claim, DivergenceFlag):
            return (None,) * len(self.columns)
        ends = {"low": claim[0], "high": claim[1]}
        return tuple(self.witness(alpha).value if end == "sup" else ends[end] for _, end in self.columns)

    def admits(self, alpha: float, exact_only: bool = False) -> bool:
        """alpha lies in the domain, or with exact_only where the value is exact."""
        lo, hi = self.domain
        if exact_only and self.exact_max is not None:
            return lo < alpha <= self.exact_max
        return lo < alpha < hi

    def check_alpha(self, alpha: float, exact_only: bool = False) -> float:
        """alpha as a float, or DomainError outside admits(alpha, exact_only)."""
        lo, hi = self.domain
        alpha = check_alpha(self.theorem_id, alpha, lo, hi)
        if not self.admits(alpha, exact_only):
            raise DomainError(
                f"{self.theorem_id} requires {lo:g} < alpha <= {self.exact_max:g}, got {alpha:g}"
            )
        return alpha


# Entries reach the package's functions through this module's globals, so
# that rebinding one of them (a tracer, a test double) is seen here too.
RESULTS = MappingProxyType(
    {
        r.theorem_id: r
        for r in (
            Result(
                "T3.1",
                1e-2,
                (0.0, 1.0),
                claim=lambda a: (1.0 / a, 1.0 / a),
                witness=lambda a: korenblum_sup(a),
                columns=(("t31_exact", "low"),),
                exact_max=0.5,
                limit_tail=0.0,
                pair=(Korenblum, Korenblum),
            ),
            Result(
                "T4.1",
                1e-6,
                (0.0, 1.0),
                claim=lambda a: (log_to_plain_lower_bound(a), None),
                witness=lambda a: log_to_plain_norm(a),
                columns=(("t41_sup", "sup"), ("t41_lower_bound", "low")),
                pair=(KorenblumLog, Korenblum),
            ),
            Result(
                "T5.1",
                1e-2,
                (0.0, 1.0),
                claim=lambda a: (1.0 / a, None),
                witness=lambda a: log_to_log_norm(a),
                columns=(("t51_sup", "sup"), ("t51_reciprocal_alpha", "low")),
                # c = 41 e^-41 (Ei(41) - Ei(1)) - 1 (mpmath), alpha Q - 1 at alpha M = 41
                limit_tail=0.025676781133384993,
                pair=(KorenblumLog, KorenblumLog),
            ),
            Result(
                "T6.2",
                1e-3,
                (1.0, math.inf),
                claim=lambda a: (bloch_lower_bound(a), bloch_upper_bound(a)),
                witness=lambda a: constant_one_bloch_sup(a),
                columns=(("t62_upper", "high"),),
                pair=(BlochAlpha, BlochAlpha),
            ),
            Result(
                "T6.3",
                1e-3,
                (1.0, math.inf),
                claim=lambda a: (bloch_lower_bound(a), None),
                witness=lambda a: constant_one_bloch_sup(a),
                columns=(("t63_lower", "low"),),
            ),
            Result(
                "T7.1",
                1e-3,
                (0.0, math.inf),
                claim=lambda a: hardy_to_bloch_bounds(a),
                witness=lambda a: constant_one_bloch_sup(a),
                columns=(("t71_low", "low"), ("t71_high", "high")),
                pair=(HardyInf, BlochAlpha),
            ),
        )
    }
)

THEOREM_IDS = tuple(RESULTS)
# the ids with a radial profile: both spaces of the pair weight |f|, not |f'|
RADIAL_IDS = tuple(tid for tid, r in RESULTS.items() if r.pair and BlochAlpha not in r.pair)


def verify_theorem(theorem_id: str, alpha: float, tol: Optional[float] = None) -> TheoremVerdict:
    """Check one identified result at the given alpha.

    tol defaults per identifier (relative for the boundary-limit results
    T3.1 and T5.1, absolute otherwise); a bool, non-finite or nonpositive
    tol is a DomainError.
    """
    if theorem_id not in THEOREM_IDS:
        raise DomainError(f"unknown result id {theorem_id!r}; choose from {THEOREM_IDS}")
    result = RESULTS[theorem_id]
    alpha = result.check_alpha(alpha)
    if tol is None:
        tol = result.tol
    elif isinstance(tol, bool) or not 0.0 < float(tol) < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    return _verdict(result, alpha, float(tol))
