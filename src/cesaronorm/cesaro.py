"""The Cesaro averaging operator in its three equivalent representations.

On Taylor coefficients the operator averages partial sums:

    C(f)(z) = sum_n ( (1/(n+1)) sum_{k<=n} a_k ) z^n,

a lower-triangular, exactly computable map on polynomials.  Two integral
representations give pointwise access for closed forms:

    C(f)(z) = int_0^1 f(tz) / (1 - tz) dt
            = int_0^inf (S_t f)(z) dt,

where S_t is the weighted composition semigroup, written once in _st_eval:

    (S_t f)(z) = (u/D) f(phi),   u = e^-t,  D = (1 - z) + u z,  phi = u z/D,
    (S_t f)'(z) = u (1 - u)/D^2 f(phi) + u^2/D^3 f'(phi).

Substituting u = e^-t, the semigroup form and its derivative, used for
Bloch-type norms of operator images, are the smooth finite integrals
int_0^1 (S_t f)(z)/u du and int_0^1 (S_t f)'(z)/u du.

The quadrature forms integrate each point on its own adaptive partition,
to its own absolute tolerance, all points in one lockstep pass; a value
is bitwise the same whatever batch its point arrives in.

For the closed-form extremal families, _st_eval takes the principal log
of 1 - phi^2 = (1 - z) E / D^2, E = (1 - z) + 2u z, as the sum of the
factors' logs: each factor stays in the right half-plane on the disk.
None of them cancels as z approaches 1, as 1 - phi^2 formed from a
rounded phi would, and the slope is the value times the derivative of
its log, with no second transcendental call.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .functions import (
    AnalyticFunction,
    ClosedForm,
    Constant,
    KorenblumExtremal,
    LogKorenblumExtremal,
    Poly,
    PowerSeries,
    _check_point,
    _polyval,
    _polyval_polar,
    log_weight_constant,
    polar_tables,
    principal_log,
)
from .numerics import DEFAULT_QUAD_TOL, integrate_rows


def cesaro_coeff(series: PowerSeries) -> PowerSeries:
    """Coefficient form: running means of the coefficient prefix sums."""
    if not isinstance(series, PowerSeries):
        series = PowerSeries(series)
    n = np.arange(1, series.coeffs.size + 1, dtype=float)
    sums = np.cumsum(series.coeffs)
    # divide componentwise: the complex-division kernel can lose an ulp
    # even on exact integer ratios, breaking the fixed-point identity
    out = np.empty_like(sums)
    out.real = sums.real / n
    out.imag = sums.imag / n
    return PowerSeries(out)


def _st_eval(f: AnalyticFunction, u, z, derivative: bool = False):
    """(S_t f)(z) at u = e^-t, a scalar or an array broadcasting against z.

    With derivative, (S_t f)'(z) instead.
    """
    z = np.asarray(z, dtype=complex)
    one_minus_z = 1.0 - z
    d_full = one_minus_z + u * z
    weight = u / d_full
    if isinstance(f, (KorenblumExtremal, LogKorenblumExtremal)):
        # principal log of 1 - phi_t(z)^2 = (1 - z) E / D^2 from its factors, none of which cancels as z -> 1
        e_full = one_minus_z + 2.0 * u * z
        log_omps = principal_log(one_minus_z) + principal_log(e_full) - 2.0 * principal_log(d_full)
        value = weight * np.exp(-f.alpha * log_omps)
        if isinstance(f, LogKorenblumExtremal):
            log_term = log_weight_constant(f.alpha) - log_omps
            value = value / log_term
        if not derivative:
            return value
        # d/dz log(1 - phi^2), then d/dz log of the value
        dlog_omps = (2.0 * u - 1.0) / e_full - 1.0 / one_minus_z + 2.0 * (1.0 - u) / d_full
        dlog = (1.0 - u) / d_full - f.alpha * dlog_omps
        if isinstance(f, LogKorenblumExtremal):
            dlog = dlog + dlog_omps / log_term
        return value * dlog
    phi = u * z / d_full
    if not derivative:
        return weight * f.eval_at(phi)
    f_phi, df_phi = f.eval_with_derivative(phi)
    inv_d = 1.0 / d_full
    return (weight * (1.0 - u) * inv_d) * f_phi + (weight * weight * inv_d) * df_phi


def semigroup_transform(f: AnalyticFunction, t: float) -> ClosedForm:
    """S_t f as an analytic function, evaluated directly (no truncation)."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError("semigroup time must be finite and nonnegative")
    u = math.exp(-t)
    return ClosedForm(lambda z: _st_eval(f, u, z), lambda z: _st_eval(f, u, z, True), label=f"S_{t:g}")


def _unit_interval_integral(integrand, z, tol: float):
    """int_0^1 integrand(u, z) du at every point of z, in one lockstep pass.

    Each point is one integral on its own partition, to absolute tol;
    integrand(u, w) sees equal-length vectors of nodes and points.  A
    scalar z gives a complex, an array z an array of its shape.
    """
    arr = _check_point(z)
    flat, n = arr.ravel(), arr.size
    values, _, _ = integrate_rows(lambda u, rows: integrand(u, flat[rows]), n, 0.0, 1.0, tol)
    value = values.reshape(arr.shape)
    return complex(value) if np.ndim(z) == 0 else value


def cesaro_integral(f: AnalyticFunction, z, tol: float = DEFAULT_QUAD_TOL):
    """Finite-integral form int_0^1 f(tz)/(1 - tz) dt; z a scalar or an ndarray."""

    def g(t, z):
        tz = t * z
        return f.eval_at(tz) / (1.0 - tz)

    return _unit_interval_integral(g, z, tol)


def cesaro_semigroup(f: AnalyticFunction, z, tol: float = DEFAULT_QUAD_TOL):
    """Semigroup form int_0^inf (S_t f)(z) dt through the u = e^-t pullback."""
    return _unit_interval_integral(lambda u, z: _st_eval(f, u, z) / u, z, tol)


def cesaro_derivative(f: AnalyticFunction, z, tol: float = DEFAULT_QUAD_TOL):
    """Derivative form of the operator image, C(f)'(z) = int_0^inf (S_t f)'(z) dt, via one quadrature."""
    return _unit_interval_integral(lambda u, z: _st_eval(f, u, z, True) / u, z, tol)


# switchover radius and tail length for the polynomial-image series branch;
# 0.35^48 ~ 1e-22 keeps the truncated tail far below quadrature tolerances
_POLY_SMALL = 0.35
_POLY_TAIL_J = np.arange(48, dtype=float)


class PolyImage(AnalyticFunction):
    """Exact C(poly): the image of z^k is (-log(1-z) - sum_{m<=k} z^m/m)/z.

    Summing against the coefficients gives

        C(f)(z) = ( -S log(1-z) - Q(z) ) / z,
        S = sum_k a_k,  Q(z) = sum_m (z^m/m) sum_{k>=m} a_k,

    an entire-on-the-disk closed form; a series branch (exact leading
    coefficients plus the geometric log tail) covers small |z| where the
    closed form cancels.  On a polar grid the branch is chosen per radius
    and every polynomial part is a separable product sharing one matrix
    of angular powers; those and log(1 - z) come from polar_tables,
    shared across a disk sup's functions and bitwise as built afresh.
    """

    __slots__ = ("degree", "total", "q", "dq", "head", "dhead")

    def __init__(self, series: PowerSeries):
        c = series.coeffs
        d = self.degree = series.degree
        self.total = complex(c.sum())
        suffix = np.cumsum(c[::-1])[::-1]
        self.q = np.zeros(d + 1, dtype=complex)
        if d >= 1:
            self.q[1:] = suffix[1:] / np.arange(1, d + 1)
        self.dq = suffix[1:] if d >= 1 else np.zeros(1, dtype=complex)
        self.head = np.cumsum(c) / np.arange(1, d + 2)
        self.dhead = self.head[1:] * np.arange(1, d + 1) if d >= 1 else np.zeros(1, dtype=complex)

    def _series(self):
        """(head, shift, tail) of the series branch head(z) + S z^shift tail(z)."""
        d = self.degree
        return self.head, d + 1, 1.0 / (d + 2.0 + _POLY_TAIL_J)

    def _closed(self, z, log_one_minus, polyval):
        """The closed form at z, given log(1 - z) and polyval(p) = p at the same points."""
        return (-self.total * log_one_minus - polyval(self.q)) / z

    def eval_at(self, z):
        z = np.asarray(z, dtype=complex)
        small = np.abs(z) < _POLY_SMALL
        out = np.empty_like(z)
        zs, zc = z[small], z[~small]
        head, shift, tail = self._series()
        out[small] = _polyval(head, zs) + self.total * zs**shift * _polyval(tail, zs)
        out[~small] = self._closed(zc, np.log(1.0 - zc), lambda p: _polyval(p, zc))
        return out

    def eval_polar(self, r, angles):
        small = r < _POLY_SMALL
        rs, rc = r[small], r[~small]
        head, shift, tail = self._series()
        out = np.empty((r.size, angles.size), dtype=complex)
        if rs.size:
            ts = polar_tables(rs, angles)
            zs_shift = rs[:, None] ** shift * ts.angular_powers(shift + 1)[shift]
            out[small] = _polyval_polar(head, ts) + self.total * zs_shift * _polyval_polar(tail, ts)
        tc = polar_tables(rc, angles)
        out[~small] = self._closed(rc[:, None] * tc.unit, tc.log_one_minus(), lambda p: _polyval_polar(p, tc))
        return out

    def derivative(self) -> "PolyImage":
        return _PolyImageDerivative(self)

    def __repr__(self):
        return f"PolyImage(degree={self.degree})"


class _PolyImageDerivative(PolyImage):
    """C(poly)', sharing the coefficient vectors of the image."""

    __slots__ = ()

    def __init__(self, image: PolyImage):
        for name in PolyImage.__slots__:
            setattr(self, name, getattr(image, name))

    def _series(self):
        d = self.degree
        return self.dhead, d, (d + 1.0 + _POLY_TAIL_J) / (d + 2.0 + _POLY_TAIL_J)

    def _closed(self, z, log_one_minus, polyval):
        n_val = -self.total * log_one_minus - polyval(self.q)
        n_der = self.total / (1.0 - z) - polyval(self.dq)
        return (n_der * z - n_val) / z**2

    def derivative(self) -> ClosedForm:
        return ClosedForm(self.eval_at, label=f"{self!r}'").derivative()

    def __repr__(self):
        return f"PolyImage(degree={self.degree})'"


def cesaro_transform(f: AnalyticFunction) -> AnalyticFunction:
    """C(f) as an analytic function.

    Polynomials and constants map to PolyImage, the closed form built
    from the exact monomial images (the log tail is what cesaro_coeff
    necessarily truncates); the image of a constant c is c C(1), with
    C(1)(z) = -log(1 - z)/z.  Other closed forms are wrapped as
    quadrature evaluators (value and derivative) at DEFAULT_QUAD_TOL.
    """
    if isinstance(f, Poly):
        return PolyImage(f.series)
    if isinstance(f, Constant):
        return PolyImage(PowerSeries([f.value]))

    def fn(z):
        return cesaro_integral(f, np.asarray(z, dtype=complex))

    def dfn(z):
        return cesaro_derivative(f, np.asarray(z, dtype=complex))

    return ClosedForm(fn, dfn, label=f"cesaro({f!r})")


def cesaro_of_one() -> PolyImage:
    """C(1)(z) = -log(1 - z)/z, the image of the constant 1."""
    return cesaro_transform(Constant(1.0))
