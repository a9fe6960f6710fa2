"""Analytic functions on the open unit disk.

A polynomial is a Poly, which holds its finite Taylor coefficient vector
(exact coefficient arithmetic); Constant is its degree-0 case.  The other
functions here are closed-form evaluators, among them the extremal families

    (1 - z^2)^(-alpha)                          unit vector of the weighted
                                                sup-norm space with weight
                                                (1 - r^2)^alpha,
    (1 - z^2)^(-alpha) / log(2 e^(1/alpha) / (1 - z^2))
                                                unit vector of the variant
                                                with the extra log factor.

Both families use principal branches.  That is legitimate on the whole
disk because Re(1 - z^2) = 1 - x^2 + y^2 > 0 whenever |z| < 1, so
1 - z^2 never meets the branch cut of the principal logarithm.  Each
family takes one principal log, log_w = log(1 - z^2), per point and forms
every power as exp(c * log_w).  principal_log takes log(x^2 + y^2)/2
+ i atan2(y, x) for w = x + iy, 16 ns per point against np.log's 87 ns
(20 000 points, Xeon, numpy 2.4), within 2.6e-16 max(1, |log w|) of
mpmath on 1 - z^2 and 1 - z out to |z| = 1 - 1e-12 (np.log: 2.4e-16).
On 861 points in the disk and next to the circle the values and
derivatives are no farther from mpmath than those of the np.power formulas.

A function's derivative is f.derivative(), itself an AnalyticFunction;
the extremals' takes f' from one log_w.

Evaluators accept scalars or numpy arrays of points.  Evaluation is
guarded at |z| <= 1 - 1e-12; the families above blow up at the boundary
and every caller in this package stays inside that radius.

evaluate_polar takes a tensor grid r x angles instead.  Polynomial-backed
functions evaluate there as a separable product: the rows
coeffs[n] r^n times the angular powers W[n, j] = exp(1j n angles[j]),
one matrix product where Horner's rule would make one pass over every
grid point per degree.  Every other function forms the grid and goes
through eval_at.  The radial powers r^n, W, the points z and 1 - z and
log(1 - z), taken by principal_log, do not depend on the function: a
grid of at least 256 angles, as a disk sup's levels and row patches
are, takes them from a bounded LRU cache keyed by the bytes of
(r, angles).  Every table is read-only and a fresh build of its size,
so values are bitwise those of per-call tables whatever the cache holds.

Taylor coefficients of a closed form are recovered through the discrete
Cauchy integral: sample on a circle |z| = rho, take an FFT, and divide
by rho^n.  The point count starts at the smallest power of two with at
least 4*(N+1) samples and doubles until no requested coefficient moves
by more than the coefficient tolerance; failure to stabilize raises
ConvergenceError.  Roundoff grows like rho^(-n), so deep coefficients
need a radius closer to the circle of convergence than the default 1/2.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError

# Hard guard against boundary blow-up: evaluation rejects |z| above this.
EVAL_RADIUS_LIMIT = 1.0 - 1e-12

DEFAULT_COEFF_TOL = 1e-10
DEFAULT_EXTRACTION_RADIUS = 0.5
_MAX_EXTRACTION_POINTS = 1 << 17
_SHARED_ANGLES = 256


def principal_log(w):
    """Principal log of the complex ndarray w, as log(x^2 + y^2)/2 + i atan2(y, x), w = x + iy.

    Accurate to about eps max(1, |log w|) absolute, for 1e-150 < |w| < 1e150
    (x^2 + y^2 over- or underflows outside).  Near |w| = 1 the error of
    the real part is absolute, not relative: a caller that needs a small
    log to relative accuracy must not use it.
    """
    x, y = w.real, w.imag
    out = np.empty_like(w)
    out.real = 0.5 * np.log(x * x + y * y)
    out.imag = np.arctan2(y, x)
    return out


def one_minus_sq(z):
    """(1 - z)(1 + z), which keeps precision near z = +-1 where 1 - z*z cancels."""
    return (1.0 - z) * (1.0 + z)


# concrete types: an isinstance test against the numbers.Real ABC is several
# times slower, and every entry point that takes alpha checks it on each call
_REAL = (float, int, np.floating, np.integer)


def check_alpha(who: str, alpha, lo: float = 0.0, hi: float = math.inf) -> float:
    """alpha as a float; DomainError naming who for a bool, a non-number or alpha outside (lo, hi).

    The one alpha check of the package.  Every lo is finite, so the open
    interval also rejects nan and both infinities.
    """
    if isinstance(alpha, _REAL) and not isinstance(alpha, bool) and lo < alpha < hi:
        return float(alpha)
    shown = f"{alpha:g}" if isinstance(alpha, float) else repr(alpha)
    raise DomainError(f"{who} requires {lo:g} < alpha < {hi:g}, got {shown}")


def check_radii(r) -> np.ndarray:
    """r as a float ndarray; the package's one radius check, a DomainError unless all of r (no nan) lies in [0, 1)."""
    r = np.asarray(r, dtype=float)
    if not np.all((0.0 <= r) & (r < 1.0)):
        raise DomainError("radius must lie in [0, 1)")
    return r


def _polyval(coeffs, z):
    """sum_n coeffs[n] z^n on the ndarray z, by Horner's rule."""
    out = np.full(z.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        out *= z
        out += c
    return out


def _frozen(a):
    a.setflags(write=False)
    return a


class _PolarTables:
    """Tables of the grid r x angles that do not depend on the function evaluated, read-only.

    unit = exp(1j angles) and the angular powers belong to the level, the
    tables of the angles alone, which all grids with those angles share;
    the radial powers, the points z = r unit, 1 - z and log(1 - z) to the
    grid.  Each is built on first use, and a power table too short for n
    is rebuilt whole: every prefix of a fresh build is bitwise the build
    of that many powers, whereas extending a cumulative product by one
    row takes numpy's other complex multiply and moves entries by an ulp.
    """

    __slots__ = ("r", "unit", "level", "_w", "_rpow", "_points", "_log")

    def __init__(self, r, angles, level=None):
        # no level: the grid is its own, not through self.level, which would make
        # a cycle that keeps a zoom patch's tables until the cycle collector runs
        self.r, self.level = r, level
        self.unit = _frozen(np.exp(1j * angles)) if level is None else level.unit
        self._w = self._rpow = self._points = self._log = None

    def angular_powers(self, n):
        """W[k, j] = unit[j]^k for k < n, by cumulative products down the rows."""
        level = self if self.level is None else self.level
        if level._w is None or level._w.shape[0] < n:
            w = np.empty((n, self.unit.size), dtype=complex)
            w[0] = 1.0
            w[1:] = self.unit
            level._w = _frozen(np.cumprod(w, axis=0, out=w))
        return level._w[:n]

    def radial_powers(self, n):
        if self._rpow is None or self._rpow.shape[1] < n:
            self._rpow = _frozen(self.r[:, None] ** np.arange(n))
        return self._rpow[:, :n]

    def points(self):
        """(z, 1 - z) on the grid, z = r[:, None] * unit."""
        if self._points is None:
            z = _frozen(self.r[:, None] * self.unit)
            self._points = z, _frozen(1.0 - z)
        return self._points

    def log_one_minus(self):
        if self._log is None:
            self._log = _frozen(principal_log(self.points()[1]))
        return self._log


@functools.lru_cache(maxsize=8)
def _shared_level(angles_key):
    return _PolarTables(None, np.frombuffer(angles_key))


@functools.lru_cache(maxsize=64)
def _shared_polar_tables(r_key, angles_key):
    return _PolarTables(np.frombuffer(r_key), None, _shared_level(angles_key))


def polar_tables(r, angles):
    """The _PolarTables of r x angles: shared for at least _SHARED_ANGLES angles, else new."""
    r, angles = np.asarray(r, dtype=float), np.asarray(angles, dtype=float)
    if angles.size < _SHARED_ANGLES:
        return _PolarTables(r, angles)
    return _shared_polar_tables(r.tobytes(), angles.tobytes())


def _polyval_polar(coeffs, tables):
    """sum_n coeffs[n] (r e^(i angle))^n on the grid of tables."""
    n = coeffs.size
    return (coeffs * tables.radial_powers(n)) @ tables.angular_powers(n)


def _check_radius(moduli) -> None:
    """DomainError when some modulus lies beyond |z| <= 1 - 1e-12."""
    # the 1e-15 relative slack absorbs the ulp noise of r * e^(i theta)
    # written as not <= so that a nan modulus fails too
    if moduli.size and not float(np.max(moduli)) <= EVAL_RADIUS_LIMIT * (1.0 + 1e-15):
        raise DomainError("evaluation point outside |z| <= 1 - 1e-12")


def _check_point(z):
    """z as a complex ndarray, rejecting points beyond |z| <= 1 - 1e-12."""
    arr = np.asarray(z, dtype=complex)
    _check_radius(np.abs(arr))
    return arr


def _check_degree(n) -> int:
    """n as an int; the truncation-degree check, a DomainError for a bool, a non-integer or n < 0."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 0:
        return int(n)
    raise DomainError(f"truncation degree must be a nonnegative integer, got {n!r}")


class AnalyticFunction:
    """Base class; subclasses provide eval_at and derivative."""

    def eval_at(self, z):
        raise NotImplementedError

    def eval_polar(self, r, angles):
        """Values on the grid r[:, None] * exp(1j * angles)[None, :]; r and angles 1-D."""
        return self.eval_at(r[:, None] * np.exp(1j * angles)[None, :])

    def derivative(self) -> "AnalyticFunction":
        raise NotImplementedError


class Poly(AnalyticFunction):
    """Polynomial sum_n coeffs[n] z^n; coeffs is an immutable finite complex vector."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex)).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("coefficient vector must be one dimensional and nonempty")
        if not np.all(np.isfinite(arr)):
            raise DomainError("coefficients must be finite")
        self.coeffs = _frozen(arr)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    def eval_at(self, z):
        """Horner evaluation; z may be a scalar or an ndarray."""
        return _polyval(self.coeffs, np.asarray(z, dtype=complex))

    def eval_polar(self, r, angles):
        return _polyval_polar(self.coeffs, polar_tables(r, angles))

    def derivative(self) -> "Poly":
        return Poly(np.arange(1, self.coeffs.size) * self.coeffs[1:] if self.degree else [0.0])

    def truncate(self, n: int) -> "Poly":
        """The coefficients of degree <= n, zero-padded past the degree."""
        n = _check_degree(n)
        return Poly(np.pad(self.coeffs[: n + 1], (0, max(n + 1 - self.coeffs.size, 0))))

    def __repr__(self):
        return f"Poly(degree={self.degree})"


class Constant(Poly):
    """The constant function value: the degree-0 Poly, evaluated and differentiated as one."""

    __slots__ = ("value",)

    def __init__(self, value):
        value = complex(value)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise DomainError("constant must be finite")
        super().__init__([value])
        self.value = value

    def __repr__(self):
        return f"Constant({self.value})"


class ClosedForm(AnalyticFunction):
    """Analytic function given by an arbitrary vectorized evaluator.

    deriv_fn, when supplied, must evaluate the analytic derivative.  When
    absent, derivative() falls back to a spectral contour derivative on a
    small circle around each point; that fallback loses accuracy as the
    point approaches the unit circle, so hot paths supply deriv_fn.
    """

    __slots__ = ("fn", "deriv_fn", "label")

    def __init__(self, fn, deriv_fn=None, label: str = "closed-form"):
        self.fn = fn
        self.deriv_fn = deriv_fn
        self.label = label

    def eval_at(self, z):
        z = np.asarray(z, dtype=complex)
        return np.asarray(self.fn(z), dtype=complex)

    def derivative(self) -> "ClosedForm":
        if self.deriv_fn is not None:
            return ClosedForm(self.deriv_fn, label=self.label + "'")
        return ClosedForm(_spectral_derivative(self.fn), label=self.label + "'")

    def __repr__(self):
        return f"ClosedForm({self.label})"


class KorenblumExtremal(AnalyticFunction):
    """f(z) = (1 - z^2)^(-alpha), the norm-one extremal of the plain weight."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        self.alpha = check_alpha(type(self).__name__, alpha, 0.0, 1.0)

    def eval_at(self, z):
        return np.exp(-self.alpha * principal_log(one_minus_sq(np.asarray(z, dtype=complex))))

    def derivative(self) -> ClosedForm:
        a = self.alpha

        def slope(z):
            z = np.asarray(z, dtype=complex)
            return 2.0 * a * z * np.exp((-a - 1.0) * principal_log(one_minus_sq(z)))

        return ClosedForm(slope, label=f"d/dz (1-z^2)^(-{a})")

    def __repr__(self):
        return f"KorenblumExtremal(alpha={self.alpha})"


def log_weight_constant(alpha: float) -> float:
    """log(2 e^(1/alpha)) = 1/alpha + log 2, the log factor at the origin."""
    return 1.0 / alpha + math.log(2.0)


class LogKorenblumExtremal(AnalyticFunction):
    """f(z) = (1 - z^2)^(-alpha) / log(2 e^(1/alpha) / (1 - z^2))."""

    __slots__ = ("alpha",)

    def __init__(self, alpha: float):
        self.alpha = check_alpha(type(self).__name__, alpha, 0.0, 1.0)

    def eval_at(self, z):
        log_w = principal_log(one_minus_sq(np.asarray(z, dtype=complex)))
        return np.exp(-self.alpha * log_w) / (log_weight_constant(self.alpha) - log_w)

    def derivative(self) -> ClosedForm:
        a = self.alpha

        def slope(z):
            z = np.asarray(z, dtype=complex)
            w = one_minus_sq(z)
            log_w = principal_log(w)
            log_term = log_weight_constant(a) - log_w
            # d/dz log f = 2 a z/(1-z^2) - (2 z/(1-z^2)) / log_term
            return np.exp(-a * log_w) / log_term * (2.0 * z / w) * (a - 1.0 / log_term)

        return ClosedForm(slope, label=f"d/dz log-extremal({a})")

    def __repr__(self):
        return f"LogKorenblumExtremal(alpha={self.alpha})"


def _spectral_derivative(fn, points: int = 32):
    """Contour derivative f'(z) = (1/(M rho)) sum_j f(z + rho w^j) w^-j.

    Exponentially accurate for analytic fn as long as the sampling circle
    stays inside the evaluation guard; rho shrinks with 1 - |z|.
    """
    theta = 2.0 * np.pi * np.arange(points) / points
    rot = np.exp(1j * theta)
    inv_rot = np.exp(-1j * theta)

    def dfn(z):
        z = np.asarray(z, dtype=complex)
        rho = 0.5 * (EVAL_RADIUS_LIMIT - np.abs(z))
        if np.any(rho <= 0):
            raise DomainError("point too close to the unit circle for contour derivative")
        samples = fn(z[..., None] + rho[..., None] * rot)
        return (samples * inv_rot).sum(axis=-1) / (points * rho)

    return dfn


def evaluate(f: AnalyticFunction, z):
    """Evaluate f at z (scalar or ndarray), guarding |z| <= 1 - 1e-12.

    Returns a python complex for scalar input, an ndarray otherwise.
    """
    out = f.eval_at(_check_point(z))
    if np.ndim(z) == 0:
        return complex(out)
    return out


def evaluate_polar(f: AnalyticFunction, r, angles) -> np.ndarray:
    """f on the tensor grid r[:, None] * exp(1j * angles)[None, :], guarding |r| <= 1 - 1e-12.

    r and angles are 1-D; the result has shape (r.size, angles.size).
    """
    r = np.asarray(r, dtype=float)
    _check_radius(np.abs(r))
    return f.eval_polar(r, np.asarray(angles, dtype=float))


def taylor_truncate(
    f: AnalyticFunction,
    n: int,
    radius: float = DEFAULT_EXTRACTION_RADIUS,
    tol: float = DEFAULT_COEFF_TOL,
) -> Poly:
    """First n + 1 Taylor coefficients of f at the origin, as a Poly.

    Exact for Poly, Constant included: f.truncate(n).  Closed forms go
    through the circle-FFT extraction described in the module docstring;
    the doubling test keeps aliasing below tol but cannot beat the
    rho^(-n) roundoff floor, so callers wanting n beyond roughly 30 should
    pass a larger radius.  n, radius and tol are checked whatever f is.
    """
    n = _check_degree(n)
    if not 0.0 < radius <= EVAL_RADIUS_LIMIT:
        raise DomainError("extraction radius must lie in (0, 1)")
    if isinstance(tol, bool) or not tol > 0:  # not > also rejects nan
        raise DomainError("tolerance must be positive")
    if isinstance(f, Poly):
        return f.truncate(n)

    m = 1
    while m < 4 * (n + 1):
        m *= 2
    prev = _circle_coefficients(f, n, radius, m)
    while m < _MAX_EXTRACTION_POINTS:
        m *= 2
        cur = _circle_coefficients(f, n, radius, m)
        if float(np.max(np.abs(cur - prev))) <= tol:
            return Poly(cur)
        prev = cur
    raise ConvergenceError(
        f"coefficient extraction did not stabilize below {tol:g} "
        f"with {_MAX_EXTRACTION_POINTS} samples"
    )


def _circle_coefficients(f, n, radius, m):
    theta = 2.0 * np.pi * np.arange(m) / m
    samples = f.eval_at(radius * np.exp(1j * theta))
    spectrum = np.fft.fft(samples) / m
    return spectrum[: n + 1] / radius ** np.arange(n + 1)
