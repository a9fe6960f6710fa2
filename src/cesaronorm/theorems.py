"""Verified quantities: norm identities, bounds, and their witnesses.

The workhorse integrand, with delta = 1 - r and u = e^-t, is

    F(r, t) = (1 + r)^alpha * u * (delta + u r)^(2 alpha - 1)
              / (delta + 2 u r)^alpha ,

the weighted modulus of S_t applied to the norm-one extremal function on
the radius.  Its integral over t >= 0 is the T3.1 profile, whose supremum
and boundary limit 1/alpha give the norm on the plain weighted space for
alpha <= 1/2.  T4.1 divides F by the log factor log(2 e^(1/alpha) / (1 - s^2))
at s = phi_t(r); T5.1 also multiplies by the log factor at s = r.

The profiles are computed in L = log(1/delta): y = log(1 + u r / delta)
maps t >= 0 onto [0, L] and gives 1 - phi_t(r)^2 = e^-y (2 - e^-y), so

    P3 = ((1 + r)^alpha / r) int_0^L e^(-alpha (L - y)) (2 - e^-y)^-alpha dy,

P4 is the same with the kernel over 1/alpha + y - log(1 - e^-y / 2), and
P5 = Lambda(L) P4 with Lambda(L) = 1/alpha + L - log(1 - e^-L / 2).  No
difference 1 - r is formed, and one numerics.ExpCumulative pass serves
every depth of a search.  profile_sup samples each profile past the peaks
of P4 and P5 and finds the sup in L from the exact slope dP/dL, since
dI/dL = k(L) - alpha I(L).  P3 = 1/alpha + B e^(-alpha L) + O(e^-L) is
read at L = 40/alpha, where e^(-alpha L) < 5e-18.  P5 tends to 1/alpha
like 1/(alpha L), which no depth reaches: its limit is a least-squares fit
(fit_model, with the largest misfit; Sidi, Practical Extrapolation Methods,
2003) of A + B/M + ... + E/M^4, M = L + 1/alpha: A free, B alpha^2 = 1 the check.
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
them verbatim.  RESULTS, at the end of this module, is the one table of
what verify, table, empirical and dump-integrand need about each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError, PreconditionError
from .functions import _polyval, check_alpha, log_weight_constant, one_minus_sq
from .numerics import (
    OVERFLOW_GUARD,
    DivergenceFlag,
    ExpCumulative,
    SupEstimate,
    integrate_finite,
    radius_grid,
)
from .spaces import BlochAlpha, HardyInf, Korenblum, KorenblumLog

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


def _check_alpha_and_radii(r, alpha: float, who: str = "integrand_F") -> None:
    check_alpha(who, alpha, 0.0, 1.0)
    if not np.all((0.0 <= r) & (r < 1.0)):  # also rejects nan
        raise DomainError("radius must lie in [0, 1)")


def _checked_t(r, t, alpha: float, who: str = "integrand_F") -> np.ndarray:
    """t as a float array, after DomainError for a bad alpha, radius or t.

    t may be +inf, where every profile integrand vanishes, but not
    negative or nan.
    """
    _check_alpha_and_radii(r, alpha, who)
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0.0):
        raise DomainError("t must be nonnegative")
    return t


def integrand_F(r, t, alpha: float):
    """Weighted modulus of the extremal image under S_t, on the radius.

    Vectorized over t, and over r when r is an array broadcasting against
    t.  F(0, t) = e^-t and F(r, 0) = 1; for fixed t the boundary limit is
    e^(-alpha t), which integrates to 1/alpha.
    """
    u = np.exp(-_checked_t(r, t, alpha))
    delta = 1.0 - r
    return (1.0 + r) ** alpha * u * (delta + u * r) ** (2.0 * alpha - 1.0) / (delta + 2.0 * u * r) ** alpha


def _log_factor_at_image(r: float, u, alpha: float):
    """Same log factor at phi_t(r), computed from 1 - phi^2 in factored form."""
    delta = 1.0 - r
    one_minus_phi_sq = delta * (delta + 2.0 * u * r) / (delta + u * r) ** 2
    return log_weight_constant(alpha) - np.log(one_minus_phi_sq)


def _log_ratio(r, u, alpha: float):
    """log(2 e^(1/alpha) / (1 - r^2)) over the same log factor at phi_t(r)."""
    delta = 1.0 - r
    at_radius = log_weight_constant(alpha) - np.log(delta * (2.0 - delta))
    return at_radius / _log_factor_at_image(r, u, alpha)


def log_ratio(r: float, t, alpha: float):
    """Ratio of the log factor at r to the log factor at phi_t(r).

    Equals 1 at t = 0 and tends to 1 as r -> 1 for each fixed t; the
    deviation scales like t / log(1/(1-r)), so the approach is slow.
    """
    return _log_ratio(r, np.exp(-_checked_t(r, t, alpha, "log_ratio")), alpha)


def profile_integrand(theorem_id: str, r: float, t, alpha: float):
    """Integrand of the T3.1, T4.1 or T5.1 radial profile, and its log-factor column.

    F(r, t) itself for T3.1 (column None); F divided by the log factor at
    phi_t(r) for T4.1; F times the ratio of log factors for T5.1.
    """
    f = integrand_F(r, t, alpha)
    factor = RESULTS[theorem_id].factor
    if factor is None:
        return f, None
    _, column_fn, combine = factor
    column = column_fn(r, np.exp(-np.asarray(t, dtype=float)), alpha)
    return combine(f, column), column


def _profile_table(theorem_id: str, alpha: float) -> ExpCumulative:
    """An empty cumulative pass of the T3.1 kernel, or of the T4.1 kernel for T4.1 and T5.1."""
    log_weighted = theorem_id != "T3.1"

    def k(y):
        e = np.exp(-y)
        k3 = (2.0 - e) ** -alpha
        return k3 / (1.0 / alpha + y - np.log1p(-0.5 * e)) if log_weighted else k3

    return ExpCumulative(k, alpha)


def _profile_at(theorem_id: str, depths, r, alpha: float, table: ExpCumulative):
    """The profile P and its slope P' = dP/dL at depths L = log(1/(1 - r)), given both.

    P' = c' I + c (k - alpha I) for P = c I, c = (1 + r)^alpha / r, dr/dL = e^-L;
    at r = 0, P = k(0) and P' = k(0) / 2, as k'(0) = -alpha k(0) for both
    kernels.  T5.1 multiplies by Lambda, and Lambda' = 1 - e^-L / (2 - e^-L).
    """
    cumulative, k, e, safe_r = table(depths), table.k(depths), np.exp(-depths), np.where(r > 0.0, r, 1.0)
    scale = (1.0 + r) ** alpha / safe_r
    values = np.where(r > 0.0, scale * cumulative, k)
    slopes = scale * (e * (alpha / (1.0 + r) - 1.0 / safe_r) * cumulative + k - alpha * cumulative)
    slopes = np.where(r > 0.0, slopes, 0.5 * k)
    if theorem_id == "T5.1":
        log_factor = 1.0 / alpha + depths - np.log1p(-0.5 * e)
        slopes = log_factor * slopes + (1.0 - e / (2.0 - e)) * values
        values = log_factor * values
    return values, slopes


def slice_values(theorem_id: str, radii, alpha: float) -> list:
    """The T3.1, T4.1 or T5.1 radial profile at every radius, from one cumulative pass in L.

    A ConvergenceError of the pass is raised.  A radius's value is bitwise
    the same whichever radii share the call, and whichever depths filled
    the table before (profile_sup calls one table up to three times).
    alpha and the radii are checked once, before any integration.
    """
    radii = np.asarray(radii, dtype=float)
    _check_alpha_and_radii(radii, alpha)
    table = _profile_table(theorem_id, alpha)
    return _profile_at(theorem_id, -np.log1p(-radii), radii, alpha, table)[0].tolist()


def korenblum_slice_integral(r: float, alpha: float) -> float:
    """int_0^inf F(r, t) dt, the radial profile behind the T3.1 supremum."""
    return slice_values("T3.1", [r], alpha)[0]


def log_to_plain_slice(r: float, alpha: float) -> float:
    """Radial profile for T4.1: F divided by the log factor at phi_t(r)."""
    return slice_values("T4.1", [r], alpha)[0]


def log_to_log_slice(r: float, alpha: float) -> float:
    """Radial profile for T5.1: F times the ratio of log factors."""
    return slice_values("T5.1", [r], alpha)[0]


def fit_model(design, target):
    """Least-squares coefficients of target on the columns of design, and the largest misfit."""
    coef = np.linalg.lstsq(design, target, rcond=None)[0]
    return coef, float(np.abs(design @ coef - target).max())


# x = 1/(alpha M) at alpha M = 40..640, where alpha P5 = 1 + x + 2 x^2 + 6 x^3 + 24 x^4 + O(x^5)
_T51_FIT_X = 1.0 / (40.0 * 2.0 ** (np.arange(17) / 4.0))
# depths sampled inside the bracket of a sup search
_SUP_NODES = 32


def _sup_search(sample, cols):
    """The best column (L, r, value, slope) of a profile sampled at cols, by increasing L, and converged.

    Unless the slope is >= 0 at a maximum on the last column, which counts
    as converged, sample(depths) takes _SUP_NODES depths of the neighbour
    bracket where the slope changes sign, then the root of the slope
    interpolated inversely through the six nodes around the best sub-bracket;
    converged means slope^2 / (2 |slope'|) <= 1e-9 there, slope' the secant.
    """
    i = int(np.argmax(cols[2]))
    if i == cols.shape[1] - 1 and not cols[3, i] < 0.0:
        return cols[:, i], True
    lo = i if cols[3, i] >= 0.0 else i - 1  # a positive slope at the first column keeps lo >= 0
    inner = np.linspace(cols[0, lo], cols[0, lo + 1], _SUP_NODES + 2)[1:-1]
    cols = np.insert(cols[:, lo : lo + 2], [1], sample(inner), axis=1)
    j = int(np.argmax(cols[2]))
    m = min(max(j - int(cols[3, j] < 0.0), 0), _SUP_NODES)
    (x0, x1), (d0, d1) = cols[0, m : m + 2], cols[3, m : m + 2]
    first = min(max(m - 2, 0), _SUP_NODES - 4)
    x, d = cols[0, first : first + 6], cols[3, first : first + 6]
    with np.errstate(all="ignore"):  # Lagrange weights at slope 0: [i, j] = d_j / (d_j - d_i), i != j
        lagrange = np.where(np.eye(6, dtype=bool), 1.0, d / (d - d[:, None]))
        root = float(lagrange.prod(axis=1) @ x)
    cols = np.hstack([cols, sample(np.array([root if x0 <= root <= x1 else 0.5 * (x0 + x1)]))])
    return cols[:, int(np.argmax(cols[2]))], bool(cols[3, -1] ** 2 * (x1 - x0) <= 2e-9 * abs(d1 - d0))


def profile_sup(theorem_id: str, alpha: float) -> SupEstimate:
    """Supremum of the T3.1, T4.1 or T5.1 profile, searched in L with the exact slope P'.

    One table call samples every profile on the grid r_k = 1 - 2^-k,
    k <= 40, then in steps of sqrt(2) in L from the grid end up to
    L = 4/alpha, past the peaks of P4 and P5 (at alpha L = 0.48..1.34 and
    2.13..3.30), then at the depths of the boundary limit.  A grid value not
    finite or beyond OVERFLOW_GUARD gives a diverged estimate; else
    _sup_search refines the maximum with P' in at most two more table calls.
    extrapolated_limit is P3 at L = 40/alpha for T3.1 (limit_fit None), and
    for T5.1 the A of a fit of alpha P5 at alpha M = 40..640 in x = 1/(alpha M),
    limit_fit its B and misfit.
    """
    radii = radius_grid()
    _check_alpha_and_radii(radii, alpha)
    table, end = _profile_table(theorem_id, alpha), -math.log1p(-radii[-1])

    def sample(depths, r=None):
        """Columns (L, r, P, P') at the depths, from one table call."""
        r = -np.expm1(-depths) if r is None else r
        return np.array([depths, r, *_profile_at(theorem_id, depths, r, alpha, table)])

    # steps of sqrt(2), as steps of 2 left P5's sup 7e-14 short; 2100 steps pass the float range
    steps = np.arange(1.0, np.clip(np.ceil(2.0 * np.log2(4.0 / (alpha * end))), 0.0, 2100.0) + 1.0)
    limit_depths = [40.0] if theorem_id == "T3.1" else 1.0 / _T51_FIT_X - 1.0 if theorem_id == "T5.1" else []
    extra = np.concatenate([end * 2.0 ** (steps / 2.0), np.divide(limit_depths, alpha)])
    cols = sample(np.concatenate([-np.log1p(-radii), extra]), np.concatenate([radii, -np.expm1(-extra)]))
    values = cols[2]
    bad = np.flatnonzero(~(np.isfinite(values[: radii.size]) & (values[: radii.size] <= OVERFLOW_GUARD)))
    if bad.size:
        return SupEstimate(float(values[bad[0]]), float(radii[bad[0]]), converged=False, diverged=True)
    limit, fit = None, None
    if theorem_id == "T3.1":
        limit = float(values[-1])
    elif theorem_id == "T5.1":
        coef, misfit = fit_model(np.vander(_T51_FIT_X, 5, increasing=True), alpha * values[-_T51_FIT_X.size :])
        limit, fit = float(coef[0]) / alpha, (float(coef[1]), misfit)
    best, converged = _sup_search(sample, cols)
    depth, radius, value = (float(c) for c in best[:3])
    return SupEstimate(value, radius, converged, limit, limit_fit=fit, argmax_depth=depth)


def korenblum_sup(alpha: float) -> SupEstimate:
    """Supremum over the radius of the T3.1 profile (boundary limit 1/alpha)."""
    return profile_sup("T3.1", alpha)


def log_to_plain_norm(alpha: float) -> SupEstimate:
    """T4.1 sup-integral; the maximizer sits at an interior radius."""
    return profile_sup("T4.1", alpha)


def log_to_log_norm(alpha: float) -> SupEstimate:
    """T5.1 sup-integral; extrapolated_limit estimates the boundary value."""
    return profile_sup("T5.1", alpha)


def korenblum_norm_exact(alpha: float) -> float:
    """Exact operator norm 1/alpha on the plain weighted space, alpha <= 1/2."""
    RESULTS["T3.1"].check_alpha(alpha, exact_only=True)
    return 1.0 / alpha


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
    """Lower bound 3/2 for the Bloch-type operator norm, alpha > 1."""
    check_alpha("bloch_lower_bound", alpha, 1.0)
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
    r = np.asarray(r, dtype=float)
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
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r < 1.0)):  # also rejects nan
        raise DomainError("radius must lie in [0, 1)")
    out = np.exp(_log_witness(-np.log1p(-r), alpha)[0])
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
    coef, misfit = fit_model(np.column_stack([np.ones(log_w.size), _DIVERGENCE_DEPTHS]), log_w)
    slope = float(coef[1])
    confirmed = bool(slope > 0.0 and slope * (_DIVERGENCE_DEPTHS[-1] - _DIVERGENCE_DEPTHS[0]) > 10.0 * misfit)
    return (float(_DIVERGENCE_DEPTHS[-1]), math.exp(log_w[-1])), slope, misfit, confirmed


# L = 0, 2^(j/4) for j = -80..24, inf: the sup lies near L = 2/(3 alpha) for large alpha
_WITNESS_DEPTHS = np.concatenate([[0.0], 2.0 ** (np.arange(-80, 25) / 4.0), [math.inf]])


def constant_one_bloch_norm(alpha: float) -> float:
    """Bloch-type norm of C(1), the standard witness for the lower bounds.

    Every Taylor coefficient of C(1)' is nonnegative, so |C(1)'(z)| <= C(1)'(|z|)
    and the norm is 1 + sup_L W: _sup_search on log W over _WITNESS_DEPTHS.
    It is 3 at alpha = 1, where W tends to 2 at L = inf, and inf below.
    """
    alpha = check_alpha("BlochAlpha", alpha)

    def sample(depths):
        return np.array([depths, -np.expm1(-depths), *_log_witness(depths, alpha)])

    best, _ = _sup_search(sample, sample(_WITNESS_DEPTHS))
    return 1.0 + math.exp(best[2])


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
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r < 1.0)):
        raise DomainError("radius must lie in [0, 1)")
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


def _verdict_t31(alpha: float, tol: float) -> TheoremVerdict:
    est = korenblum_sup(alpha)
    target, computed = 1.0 / alpha, est.extrapolated_limit
    if computed is None or est.diverged:
        return TheoremVerdict("T3.1", alpha, target, None, tol, False, "boundary extrapolation unavailable")
    read = f"boundary value {computed:.9g} at 1 - r = e^-{40.0 / alpha:g}"
    if RESULTS["T3.1"].admits(alpha, exact_only=True):
        passed = abs(computed - target) <= tol * target
        notes = f"sup {est.value:.9g} at {argmax_note(est)}; {read} vs exact {target:.9g}"
    else:
        passed = computed >= (1.0 - tol) * target
        notes = f"lower bound only: exactness is established for alpha <= 1/2; {read} vs limit {target:.9g}"
    return TheoremVerdict("T3.1", alpha, target, computed, tol, passed, notes)


def argmax_note(est) -> str:
    """'r = ...' to six digits, or '1 - r = ...' where r rounds to 1 there (past L = 14.5), as e^-L past L = 700.

    est is a SupEstimate or a NormEstimate; only its argmax_radius and
    argmax_depth are read.
    """
    at, depth = f"r = {est.argmax_radius:.6g}", est.argmax_depth
    if at != "r = 1":
        return at
    return f"1 - r = {math.exp(-depth):.3e}" if depth <= 700.0 else f"1 - r = e^-{depth:g}"


def _verdict_t41(alpha: float, tol: float) -> TheoremVerdict:
    est = log_to_plain_norm(alpha)
    lb = log_to_plain_lower_bound(alpha)
    passed = (not est.diverged) and est.value >= lb - tol
    notes = (
        f"sup {est.value:.9g} at {argmax_note(est)} "
        f"(interior maximizer); closed-form lower bound {lb:.9g}"
    )
    return TheoremVerdict("T4.1", alpha, (lb, None), est.value, tol, passed, notes)


def _verdict_t51(alpha: float, tol: float) -> TheoremVerdict:
    est = log_to_log_norm(alpha)
    target = 1.0 / alpha
    computed = est.extrapolated_limit
    if computed is None or est.diverged:
        computed, passed, notes = None, False, "boundary extrapolation unavailable"
    else:
        passed = math.isfinite(est.value) and computed >= (1.0 - tol) * target
        b_alpha_sq, residual = est.limit_fit
        notes = (
            f"sup {est.value:.9g} at {argmax_note(est)}; "
            f"boundary limit fits to {computed:.9g} (A + B/M + C/M^2 + D/M^3 + E/M^4, "
            f"B alpha^2 = {b_alpha_sq:.6f}, residual {residual:.1e}), theory >= {target:.9g}"
        )
    return TheoremVerdict("T5.1", alpha, (target, None), computed, tol, passed, notes)


def _verdict_t62(alpha: float, tol: float) -> TheoremVerdict:
    ub = bloch_upper_bound(alpha)
    witness = constant_one_bloch_norm(alpha)
    passed = 1.5 - tol <= witness <= ub + tol
    notes = f"constant-witness norm {witness:.9g} inside [3/2, {ub:.9g}]"
    return TheoremVerdict("T6.2", alpha, (1.5, ub), witness, tol, passed, notes)


def _verdict_t63(alpha: float, tol: float) -> TheoremVerdict:
    defining = bloch_lower_bound_integral()
    witness = constant_one_bloch_norm(alpha)
    passed = witness >= 1.5 - tol and abs(defining - 1.5) <= 1e-9
    notes = f"defining integral gives {defining:.12g}; constant-witness norm {witness:.9g} >= 3/2"
    return TheoremVerdict("T6.3", alpha, (1.5, None), witness, tol, passed, notes)


def _verdict_t71(alpha: float, tol: float) -> TheoremVerdict:
    if alpha >= 1.0:
        lo, hi = hardy_to_bloch_bounds(alpha)
        witness = constant_one_bloch_norm(alpha)
        passed = lo - tol <= witness <= hi + tol
        notes = f"constant-witness norm {witness:.9g} inside [{lo:g}, {hi:g}]"
        return TheoremVerdict("T7.1", alpha, (lo, hi), witness, tol, passed, notes)
    (depth, value), slope, misfit, confirmed = divergence_witness(alpha)
    notes = (
        f"unbounded, divergence {'confirmed' if confirmed else 'not confirmed'}: log witness "
        f"fits a + b L with slope b = {slope:.9g} vs 1 - alpha = {1.0 - alpha:.9g} "
        f"(residual {misfit:.1e}); witness {value:.6g} at 1 - r = e^-{depth:g}"
    )
    return TheoremVerdict("T7.1", alpha, None, value, tol, confirmed, notes)


@dataclass(frozen=True)
class Result:
    """One catalogued result, as verify, table, empirical and dump-integrand read it.

    domain is the open alpha interval of the result; exact_max, when set,
    caps the alpha range where the value is exact rather than a bound.
    verdict(alpha, tol) checks the result; cells(alpha)
    gives its columns of the norm table.  factor is (column name, log
    factor at (r, u = e^-t, alpha), how it combines with F) for the
    log-weighted profiles.  pair is the (source, target) space types of
    its empirical bound, which is checked against bounds(alpha) =
    (low, high); radial marks the results whose witness is the radial
    profile of slice_values.
    """

    theorem_id: str
    label: str
    tol: float
    domain: tuple[float, float]
    verdict: Callable[[float, float], TheoremVerdict]
    columns: tuple[str, ...]
    cells: Callable[[float], tuple]
    exact_max: Optional[float] = None
    factor: Optional[tuple[str, Callable, Callable]] = None
    pair: Optional[tuple[type, type]] = None
    bounds: Optional[Callable[[float], Interval]] = None
    radial: bool = False

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
                "exact norm 1/alpha on the plain weighted space (alpha <= 1/2)",
                1e-2,
                (0.0, 1.0),
                verdict=_verdict_t31,
                columns=("t31_exact",),
                cells=lambda a: (korenblum_norm_exact(a),),
                exact_max=0.5,
                pair=(Korenblum, Korenblum),
                bounds=lambda a: (0.0, korenblum_norm_exact(a)),
                radial=True,
            ),
            Result(
                "T4.1",
                "log-weighted to plain-weighted norm via the sup-integral",
                1e-6,
                (0.0, 1.0),
                verdict=_verdict_t41,
                columns=("t41_sup", "t41_lower_bound"),
                cells=lambda a: (log_to_plain_norm(a).value, log_to_plain_lower_bound(a)),
                factor=("log_denominator", _log_factor_at_image, np.divide),
                pair=(KorenblumLog, Korenblum),
                bounds=lambda a: (log_to_plain_lower_bound(a), log_to_plain_norm(a).value),
                radial=True,
            ),
            Result(
                "T5.1",
                "log-weighted norm via the sup-integral, boundary limit 1/alpha",
                1e-2,
                (0.0, 1.0),
                verdict=_verdict_t51,
                columns=("t51_sup", "t51_reciprocal_alpha"),
                cells=lambda a: (log_to_log_norm(a).value, 1.0 / a),
                factor=("log_ratio", _log_ratio, np.multiply),
                pair=(KorenblumLog, KorenblumLog),
                bounds=lambda a: (0.0, log_to_log_norm(a).value),
                radial=True,
            ),
            Result(
                "T6.2",
                "Bloch-type norm upper bound (alpha > 1)",
                1e-3,
                (1.0, math.inf),
                verdict=_verdict_t62,
                columns=("t62_upper",),
                cells=lambda a: (bloch_upper_bound(a),),
                pair=(BlochAlpha, BlochAlpha),
                bounds=lambda a: (1.5, bloch_upper_bound(a)),
            ),
            Result(
                "T6.3",
                "Bloch-type norm lower bound 3/2 (alpha > 1)",
                1e-3,
                (1.0, math.inf),
                verdict=_verdict_t63,
                columns=("t63_lower",),
                cells=lambda a: (bloch_lower_bound(a),),
            ),
            Result(
                "T7.1",
                "sup-norm to Bloch-type bounds; unbounded below alpha = 1",
                1e-3,
                (0.0, math.inf),
                verdict=_verdict_t71,
                columns=("t71_low", "t71_high"),
                cells=lambda a: hardy_to_bloch_bounds(a) if a >= 1.0 else (None, None),
                pair=(HardyInf, BlochAlpha),
                bounds=lambda a: hardy_to_bloch_bounds(a),
            ),
        )
    }
)

THEOREM_IDS = tuple(RESULTS)


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
    return result.verdict(alpha, float(tol))
