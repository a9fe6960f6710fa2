"""Reference values the benchmark checks cesaronorm against.

Nothing here imports cesaronorm.  The bounds are the paper's closed
forms, re-derived from the statements of T3.1-T7.1; the operator images
are evaluated from their Taylor coefficients or by quadrature of the
defining integral (a fixed Gauss-Legendre rule, and mpmath), so a later change to the package's methods cannot
move the yardstick it is measured with.
"""

from __future__ import annotations

import math

import numpy as np

# Relative allowance for floating-point round-off at the end of a closed
# interval whose end the computed value can reach exactly (a sampled norm
# ratio is itself a sup over sampled points, so it can sit on the bound).
ROUND_OFF = 1e-6

# Terms of the Taylor series used for |z| <= 0.95: 0.95^1000 ~ 5e-23.
SERIES_TERMS = 1000

# Gauss-Legendre nodes for the log extremal on [0, 1].  For |z| <= 0.95 the
# nearest singularity of the integrand sits at t = 1/|z| >= 1.05, so the rule
# converges like 1.57^(-2n): 120 nodes leave ~1e-47.
GAUSS_NODES = 120


# --- paper bounds ----------------------------------------------------------


def t31_ok(alpha: float, computed) -> bool:
    """T3.1: norm 1/alpha on the plain weighted space.

    Within 1 % of 1/alpha where the identity holds (alpha <= 1/2), at
    least 0.99/alpha above it, where only the lower bound is proved.
    """
    if computed is None or not math.isfinite(computed):
        return False
    target = 1.0 / alpha
    if alpha <= 0.5:
        return abs(computed - target) <= 0.01 * target
    return computed >= 0.99 * target


def t41_interval(alpha: float) -> tuple[float, float]:
    """T4.1 bounds: at least 1/(1/alpha + log 2); at most 1/(1 + alpha log 2)
    for alpha <= 1/2 (infinite upper end otherwise)."""
    low = 1.0 / (1.0 / alpha + math.log(2.0))
    high = 1.0 / (1.0 + alpha * math.log(2.0)) if alpha <= 0.5 else math.inf
    return low, high


def t51_ok(alpha: float, computed) -> bool:
    """T5.1: the boundary limit of the log-weighted profile is >= 1/alpha."""
    if computed is None or not math.isfinite(computed):
        return False
    return computed >= 0.99 / alpha


def t62_upper(alpha: float) -> float:
    """T6.2 closed form for the Bloch-type norm, alpha > 1.

    max(A, 2^a/(a-1)) for 1 < a <= 2 and max(A, 2^a (2^a - a - 1)/(a-1)^2)
    beyond, with A = 1 + (2/(2a-1))^(2a-1) a^a (a-1)^(a-1).
    """
    a = float(alpha)
    big_a = 1.0 + (2.0 / (2.0 * a - 1.0)) ** (2.0 * a - 1.0) * a**a * (a - 1.0) ** (a - 1.0)
    if a <= 2.0:
        return max(big_a, 2.0**a / (a - 1.0))
    return max(big_a, 2.0**a * (2.0**a - a - 1.0) / (a - 1.0) ** 2)


def empirical_interval(source: str, target: str, alpha: float) -> tuple[float, float]:
    """Interval the paper gives for the norm of one CLI space pair."""
    if (source, target) == ("korenblum", "korenblum"):
        return 0.99 / alpha, 1.0 / alpha
    if (source, target) == ("bloch", "bloch"):
        return 1.5, t62_upper(alpha)
    if (source, target) == ("hardy", "bloch"):
        if alpha == 1.0:
            return 3.0, 4.0
        if alpha > 1.0:
            return 1.5, 4.0
    if (source, target) == ("korenblum-log", "korenblum"):
        return t41_interval(alpha)[0], math.inf
    if (source, target) == ("korenblum-log", "korenblum-log"):
        return 1.0 / alpha, math.inf
    raise ValueError(f"no reference interval for {source}->{target} at alpha {alpha}")


def inside(value, low: float, high: float) -> bool:
    """low <= value <= high up to ROUND_OFF, for a finite value."""
    if value is None or not math.isfinite(value):
        return False
    return low * (1.0 - ROUND_OFF) <= value <= high * (1.0 + ROUND_OFF)


# --- T4.1 profile by mpmath quadrature --------------------------------------


def t41_profile(alpha: float, r: float, dps: int = 20) -> float:
    """(1 - r^2)^alpha * C(f)(r) for the log extremal f, r real in [0, 1).

    Uses the semigroup form C(f)(r) = int_0^inf w_t(r) f(phi_t(r)) dt with
    w_t(r) = e^-t / (1 - (1 - e^-t) r) and phi_t(r) = e^-t r / (1 - (1 - e^-t) r),
    written straight from the definitions.  A supremum over r can never
    lie below this value.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(alpha)
        rr = mp.mpf(r)
        c0 = 1 / a + mp.log(2)

        def g(t):
            u = mp.exp(-t)
            den = 1 - (1 - u) * rr
            phi = u * rr / den
            omsq = 1 - phi * phi
            return (u / den) * omsq ** (-a) / (c0 - mp.log(omsq))

        val = mp.quad(g, [0, 1, 4, 12, 40, mp.inf])
        return float((1 - rr * rr) ** a * val)


# --- Cesaro images from Taylor coefficients ---------------------------------


def cesaro_coefficients(coeffs, terms: int = SERIES_TERMS) -> np.ndarray:
    """Coefficients of C(f): prefix sums of f's coefficients over n + 1.

    coeffs are f's leading coefficients; missing ones are zero, so the
    prefix sum of a polynomial stays at its total beyond the degree.
    """
    a = np.zeros(terms, dtype=complex)
    c = np.asarray(coeffs, dtype=complex)[:terms]
    a[: c.size] = c
    return np.cumsum(a) / np.arange(1, terms + 1)


def binomial_extremal_coefficients(alpha: float, terms: int = SERIES_TERMS) -> np.ndarray:
    """Taylor coefficients of (1 - z^2)^(-alpha): (alpha)_n / n! at z^(2n)."""
    half = (terms + 1) // 2
    n = np.arange(1, half, dtype=float)
    even = np.concatenate(([1.0], np.cumprod((alpha + n - 1.0) / n)))
    out = np.zeros(terms, dtype=float)
    out[0::2] = even[: out[0::2].size]
    return out


def series_value(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_n coeffs[n] z^n by Horner."""
    out = np.full(z.shape, coeffs[-1], dtype=complex)
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out


def series_derivative(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_n n coeffs[n] z^(n-1), the term-by-term derivative."""
    n = np.arange(1, coeffs.size)
    return series_value(n * coeffs[1:], z)


# --- log extremal image by quadrature ---------------------------------


def _log_extremal(alpha: float, w):
    """f(w) and f'(w) for the log extremal, principal branches, numpy arrays."""
    g = (1.0 - w) * (1.0 + w)
    log_term = 1.0 / alpha + math.log(2.0) - np.log(g)
    f = g ** (-alpha) / log_term
    return f, f * (2.0 * w / g) * (alpha - 1.0 / log_term)


def log_extremal_gauss(alpha: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C(f)(z) and C(f)'(z) for the log extremal by a fixed Gauss-Legendre rule.

    Same integrals as log_extremal_image, vectorized over the points.
    """
    x, wts = np.polynomial.legendre.leggauss(GAUSS_NODES)
    t = 0.5 * (x + 1.0)[:, None]
    wts = 0.5 * wts
    w = t * np.asarray(z, dtype=complex)[None, :]
    f, df = _log_extremal(alpha, w)
    value = wts @ (f / (1.0 - w))
    deriv = wts @ (t * (df / (1.0 - w) + f / (1.0 - w) ** 2))
    return value, deriv


def log_extremal_image(alpha: float, z: complex, dps: int = 20) -> tuple[complex, complex]:
    """C(f)(z) and C(f)'(z) for f(w) = (1 - w^2)^-alpha / log(2 e^(1/alpha)/(1 - w^2)).

    Quadrature of the finite-integral form int_0^1 f(tz)/(1 - tz) dt and of
    its z-derivative int_0^1 t [f'(tz)/(1 - tz) + f(tz)/(1 - tz)^2] dt.
    Principal branches are exact on the disk because Re(1 - w^2) > 0.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a = mp.mpf(alpha)
        zz = mp.mpc(z)
        c0 = 1 / a + mp.log(2)

        def f_and_df(w):
            g = 1 - w * w
            log_term = c0 - mp.log(g)
            f = g ** (-a) / log_term
            return f, f * (2 * w / g) * (a - 1 / log_term)

        def value(t):
            f, _ = f_and_df(t * zz)
            return f / (1 - t * zz)

        def deriv(t):
            w = t * zz
            f, df = f_and_df(w)
            return t * (df / (1 - w) + f / (1 - w) ** 2)

        return complex(mp.quad(value, [0, 0.5, 0.9, 1])), complex(mp.quad(deriv, [0, 0.5, 0.9, 1]))
