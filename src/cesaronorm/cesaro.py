"""The Cesaro averaging operator in its three equivalent representations.

On Taylor coefficients the operator averages partial sums:

    C(f)(z) = sum_n ( (1/(n+1)) sum_{k<=n} a_k ) z^n,

a lower-triangular, exactly computable map on polynomials.  Two integral
representations give pointwise access for closed forms:

    C(f)(z) = int_0^1 f(tz) / (1 - tz) dt
            = int_0^inf (S_t f)(z) dt,

where S_t is the weighted composition semigroup

    (S_t f)(z) = w_t(z) f(phi_t(z)),
    w_t(z)   = e^-t / (1 - (1 - e^-t) z),
    phi_t(z) = e^-t z / (1 - (1 - e^-t) z).

The half-line integral is always evaluated through the u = e^-t
substitution, under which it becomes

    int_0^1 f( u z / (1 - (1-u) z) ) / (1 - (1-u) z) du,

a smooth finite integral (the kernel factor e^-t cancels against dt).
Differentiating under the integral gives the derivative representation

    C(f)'(z) = int_0^inf [ e^-t (1 - e^-t) / D^2 * f(phi_t)
                         + e^-2t / D^3 * f'(phi_t) ] dt,
    D = 1 - (1 - e^-t) z,

used for Bloch-type norms of operator images.

The quadrature forms integrate each point on its own adaptive partition,
to its own absolute tolerance, all points in one lockstep pass; a value
is bitwise the same whatever batch its point arrives in.

For the closed-form extremal families, S_t is evaluated through the
factorization 1 - phi_t(z)^2 = (1 - z)(1 - (1 - 2 e^-t) z) / D^2: each
factor stays in the right half-plane on the disk, so principal powers of
the factors multiply to the principal power of the product.  Each factor
is formed from 1 - z plus a multiple of e^-t z, so none cancels as z
approaches 1, and neither does 1 - phi^2, which formed directly would
lose every digit once phi rounds to 1.
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


def _st_eval(f: AnalyticFunction, u, z):
    """(S_t f)(z) at u = e^-t, a scalar or an array broadcasting against z, with D = (1 - z) + u z."""
    z = np.asarray(z, dtype=complex)
    one_minus_z = 1.0 - z
    d_full = one_minus_z + u * z
    if isinstance(f, (KorenblumExtremal, LogKorenblumExtremal)):
        # principal log of 1 - phi_t(z)^2 from its factors, none of which cancels as z -> 1
        log_omps = np.log(one_minus_z) + np.log(one_minus_z + 2.0 * u * z) - 2.0 * np.log(d_full)
        out = (u / d_full) * np.exp(-f.alpha * log_omps)
        return out if isinstance(f, KorenblumExtremal) else out / (log_weight_constant(f.alpha) - log_omps)
    return (u / d_full) * f.eval_at(u * z / d_full)


def semigroup_transform(f: AnalyticFunction, t: float) -> ClosedForm:
    """S_t f as an analytic function, evaluated directly (no truncation)."""
    if not (math.isfinite(t) and t >= 0.0):
        raise DomainError("semigroup time must be finite and nonnegative")
    u = math.exp(-t)

    def fn(z):
        return _st_eval(f, u, z)

    def dfn(z):
        z = np.asarray(z, dtype=complex)
        d_full = (1.0 - z) + u * z
        f_phi, df_phi = f.eval_with_derivative(u * z / d_full)
        # product rule: w' f(phi) + w phi' f'(phi)
        return (u * (1.0 - u) / d_full**2) * f_phi + (u**2 / d_full**3) * df_phi

    return ClosedForm(fn, dfn, label=f"S_{t:g}")


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

    def g(u, z):
        d_full = 1.0 - (1.0 - u) * z
        return f.eval_at(u * z / d_full) / d_full

    return _unit_interval_integral(g, z, tol)


def cesaro_derivative(f: AnalyticFunction, z, tol: float = DEFAULT_QUAD_TOL):
    """Derivative form of the operator image, C(f)'(z), via one quadrature."""

    def g(u, z):
        d_full = 1.0 - (1.0 - u) * z
        f_phi, df_phi = f.eval_with_derivative(u * z / d_full)
        return (1.0 - u) / d_full**2 * f_phi + u / d_full**3 * df_phi

    return _unit_interval_integral(g, z, tol)


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
