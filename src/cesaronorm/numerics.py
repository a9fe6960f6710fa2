"""Quadrature and supremum-search primitives.

One lockstep core runs every adaptive integral.  It advances a batch of
independent integrals, each on its own partition into panels of the
embedded Gauss(7)/Kronrod(15) pair: a panel is evaluated once at the 15
Kronrod abscissae, the 7-point Gauss value reuses a subset of those
samples, and |K15 - G7| (the worst component, for array-valued
integrands) is the panel error.  In each round every unfinished integral
splits its own worst panel, and all new panels of the round go through
one integrand call.  An integral stops once its summed error is within
tol (a running total, re-summed exactly near tol), when its worst panel
is narrower than the width floor, or at 10^4 panels, where it ends in
ConvergenceError.  integrate_finite is the batch of one; the operator
forms of cesaro run one integral per point.

Half-line integrals of exponentially decaying integrands are pulled back
to (0, 1] through u = exp(-t):

    int_0^inf g(t) dt = int_0^1 g(-log u) / u du,

which turns the e^{-t} kernel decay into a bounded transformed integrand.
The left endpoint is cut at u = 1e-16, and the probe value there is
reported as tail_bound.  integrate_halfline_batch integrates many such
integrands, such as a radial profile at every grid radius, in one pass.

sup_over_radius scans a batched profile h over the radius grid
r_k = 1 - 2^-k, k = 0..40, in one call, and refines the grid maximum by
zoom patches in s = -log2(1 - r), where the grid is uniform: each patch
is one call on 15 evenly spaced interior nodes of a bracket, and the
next bracket is the winner's neighbours, narrowed around the vertex of
the parabola through the three when it is concave (Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 5).  It extrapolates the
last five grid values with iterated Aitken steps, exact for tails like
c * q^k.  golden_section_max is the scalar one-dimensional search.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError

# 15-point Kronrod rule on [-1, 1], mirrored from its nonnegative half; the
# odd entries, with the weights _WG, form the embedded 7-point Gauss rule.
_X_HALF = np.array([0.0, 0.207784955007898, 0.405845151377397, 0.586087235467691,
                    0.741531185599394, 0.864864423359769, 0.949107912342759, 0.991455371120813])
_W_HALF = np.array([0.209482141084728, 0.204432940075298, 0.190350578064785, 0.169004726639267,
                    0.140653259715525, 0.104790010322250, 0.063092092629979, 0.022935322010529])
_G_HALF = np.array([0.417959183673469, 0.381830050505119, 0.279705391489277, 0.129484966168870])
_XGK = np.concatenate([-_X_HALF[:0:-1], _X_HALF])
_WGK = np.concatenate([_W_HALF[:0:-1], _W_HALF])
_WG = np.concatenate([_G_HALF[:0:-1], _G_HALF])
_GAUSS_IDX = np.arange(1, 15, 2)

DEFAULT_QUAD_TOL = 1e-10
MAX_PANELS = 10_000
HALFLINE_CUT = 1e-16

OVERFLOW_GUARD = 1e12
RADIAL_K_MAX = 40


@dataclass(frozen=True)
class QuadratureResult:
    """Value, accumulated error estimate, panel count, and truncated tail bound."""

    value: complex
    error_estimate: float
    subdivisions: int
    tail_bound: float = 0.0


@dataclass(frozen=True)
class SupEstimate:
    """Result of a supremum search over the radius parameter.

    value is the largest sampled value (grid plus zoom patches) and
    therefore a certified lower bound for the supremum.  When the tail of
    the grid behaves geometrically, extrapolated_limit estimates the
    r -> 1 limit.  diverged marks a blow-up past the overflow guard.
    """

    value: float
    argmax_radius: float
    converged: bool
    extrapolated_limit: Optional[float] = None
    diverged: bool = False


@dataclass(frozen=True)
class DivergenceFlag:
    """Marker for an unbounded quantity, with the radius that witnessed it."""

    at_radius: Optional[float] = None
    value: Optional[float] = None


def _eval_nodes(g, x):
    """Evaluate g on the abscissa vector; a constant g may return one scalar."""
    v = np.asarray(g(x))
    if v.ndim == 0:
        return np.full(x.shape, complex(v) if np.iscomplexobj(v) else float(v))
    return v


def _panels(g, lo, hi, rows):
    """K15 values and |K15 - G7| errors of the panels [lo_p, hi_p] from one call g(x, rows).

    The node axis of C-ordered values is reduced with einsum, never a BLAS
    product, so a panel does not depend on the other panels of the call.
    """
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _XGK
    vals = np.ascontiguousarray(g(x.ravel(), np.repeat(rows, _XGK.size)))
    vals = vals.reshape(x.shape + vals.shape[1:])
    h = h.reshape((-1,) + (1,) * (vals.ndim - 2))
    k15 = h * np.einsum("j,pj...->p...", _WGK, vals)
    err = np.abs(k15 - h * np.einsum("j,pj...->p...", _WG, vals.take(_GAUSS_IDX, axis=1)))
    return k15, err.max(axis=tuple(range(1, err.ndim)))


def _lockstep(g, a, b, tol: float) -> list:
    """Adaptive G7/K15 integrals over [a_i, b_i], advanced together.

    Each integral keeps its own partition and stops as integrate_finite
    describes.  In each round every unfinished one splits its worst panel,
    and all new panels go through one call g(x, rows), rows giving the
    integral of each node.  Returns per integral a QuadratureResult or the
    ConvergenceError it ended with.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    n = len(a)
    vals, err = _panels(g, np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.arange(n))
    lo, hi, values, errs = list(a), list(b), list(vals), err.tolist()  # by panel id
    floors = [(bi - ai) * 1e-15 for ai, bi in zip(a, b)]
    alive = [{i: errs[i]} for i in range(n)]  # panel id -> error, in creation order
    heaps = [[(-errs[i], i)] for i in range(n)]
    count = [1] * n
    # Running error totals, with a bound on their rounding drift; the exact
    # sum decides every stop, and is taken only once a total nears tol.
    running, drift = errs[:], [0.0] * n
    active = list(range(n))
    while active:
        split, gone, rows, cuts = [], [], [], []
        for i in active:
            if count[i] < MAX_PANELS and not running[i] > 2.0 * tol + drift[i]:
                running[i], drift[i] = sum(alive[i].values()), 0.0
            pid = heaps[i][0][1]
            if count[i] >= MAX_PANELS or running[i] <= tol or hi[pid] - lo[pid] <= floors[i]:
                continue
            heapq.heappop(heaps[i])
            gone.append(alive[i].pop(pid))
            values[pid] = None
            split.append(i)
            rows += (i, i)
            cuts += (lo[pid], 0.5 * (lo[pid] + hi[pid]), hi[pid])
        if not split:
            break
        cuts = np.array(cuts).reshape(-1, 3)
        new_lo, new_hi = cuts[:, :2].ravel(), cuts[:, 1:].ravel()
        vals, err = _panels(g, new_lo, new_hi, np.array(rows))
        base, e = len(lo), err.tolist()
        lo += new_lo.tolist()
        hi += new_hi.tolist()
        values += list(vals)
        for k, i in enumerate(rows):
            alive[i][base + k] = e[k]
            heapq.heappush(heaps[i], (-e[k], base + k))
        for j, i in enumerate(split):
            change = (e[2 * j], e[2 * j + 1], -gone[j])
            drift[i] += 1e-15 * (abs(running[i]) + sum(map(abs, change)))  # > 4 roundings
            running[i] += sum(change)
            count[i] += 2
        active = split

    out = []
    for i in range(n):
        total, ordered = sum(alive[i].values()), sorted(alive[i], key=lo.__getitem__)
        value = values[ordered[0]]
        for pid in ordered[1:]:  # deterministic left-to-right summation
            value = value + values[pid]
        out.append(QuadratureResult(value, total, count[i]))
        if total > tol:
            message = f"quadrature error {total:.3e} above tolerance {tol:.3e}"
            out[-1] = ConvergenceError(f"{message} after {count[i]} panels")
    return out


def integrate_finite(
    g: Callable, a: float, b: float, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Adaptive integral of g over [a, b] to absolute tolerance tol.

    g is called with one ndarray of abscissae and may return one value per
    abscissa or an array per abscissa (leading axis = abscissae).  Raises
    ConvergenceError when the panel budget of MAX_PANELS is exhausted
    above tolerance.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("integration interval must be finite with a < b")
    (res,) = _lockstep(lambda x, rows: _eval_nodes(g, x), [a], [b], tol)
    if isinstance(res, ConvergenceError):
        raise res
    return res


def integrate_halfline_batch(g: Callable, n: int, tol: float = DEFAULT_QUAD_TOL) -> list:
    """integrate_halfline_exp for n integrands in one lockstep pass.

    g(t, rows) evaluates integrand rows[k] at t[k].  Returns per integrand
    a QuadratureResult, or the ConvergenceError of a non-finite probe at
    the cut or of an exhausted panel budget.
    """

    def transformed(u, rows):
        vals = _eval_nodes(lambda t: g(t, rows), -np.log(u))
        return vals / u.reshape((u.shape[0],) + (1,) * (vals.ndim - 1))

    cut = HALFLINE_CUT
    probe = np.abs(transformed(np.full(n, cut), np.arange(n))).reshape(n, -1)
    ok = np.flatnonzero(np.isfinite(probe).all(axis=1))
    done = _lockstep(lambda u, k: transformed(u, ok[k]), [cut] * ok.size, [1.0] * ok.size, tol)
    out = [ConvergenceError("transformed integrand not finite at the endpoint cut") for _ in range(n)]
    for i, res in zip(ok, done):
        tail = float(probe[i].max()) * cut
        out[i] = res if isinstance(res, ConvergenceError) else replace(res, tail_bound=tail)
    return out


def integrate_halfline_exp(g: Callable, tol: float = DEFAULT_QUAD_TOL) -> QuadratureResult:
    """Integral of g over [0, inf) for integrands with exponential decay.

    Uses the u = exp(-t) pullback described in the module docstring.  The
    transformed integrand must be integrable on (0, 1]; the portion below
    the cut u = HALFLINE_CUT is not integrated, and cut * |h(cut)| is
    reported as tail_bound so callers can see the truncation scale.
    """
    (res,) = integrate_halfline_batch(lambda t, rows: g(t), 1, tol)
    if isinstance(res, ConvergenceError):
        raise res
    return res


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_max(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = 1e-8,
    max_iter: int = 200,
):
    """Golden-section maximization on [a, b].

    Returns (x_best, f_best, residual, converged); residual is the last
    change of the running maximum, and the best value seen at any interior
    probe is returned.  The bracket ends a and b are never probed.
    A non-finite probe raises ConvergenceError, since it would lose every
    comparison unseen.
    """
    if not a < b:
        raise DomainError("golden section needs a < b")

    def probe(x):
        v = f(x)
        if not math.isfinite(v):
            raise ConvergenceError(f"golden-section probe not finite at x = {x!r}")
        return v

    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = probe(x1), probe(x2)
    best_x, best_f = (x1, f1) if f1 >= f2 else (x2, f2)
    lo, hi = a, b
    residual = math.inf
    converged = False
    for _ in range(max_iter):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = probe(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = probe(x2)
        cand_x, cand_f = (x1, f1) if f1 >= f2 else (x2, f2)
        residual = abs(cand_f - best_f)
        if cand_f > best_f:
            best_x, best_f = cand_x, cand_f
        if hi - lo < xtol:
            converged = True
            break
    return best_x, best_f, residual, converged


def radius_grid(k_max: int = RADIAL_K_MAX) -> np.ndarray:
    """Geometric approach to the boundary: r_k = 1 - 2^-k, k = 0..k_max."""
    return 1.0 - 2.0 ** -np.arange(k_max + 1, dtype=float)


def _aitken(v0: float, v1: float, v2: float) -> float:
    den = v2 - 2.0 * v1 + v0
    if abs(den) < 1e-14 * (abs(v0) + abs(v1) + abs(v2) + 1.0):
        return v2
    return v2 - (v2 - v1) ** 2 / den


def extrapolate_tail(values) -> Optional[float]:
    """Iterated-Aitken limit of a convergent tail, or None if inconsistent.

    Expects the last few values of a sequence v_k -> L sampled at radii
    with geometrically shrinking 1 - r.  Differences must be one-signed
    with ratios in (0, 1); otherwise no extrapolation is attempted.
    """
    vs = [float(v) for v in values]
    if len(vs) < 3 or not all(math.isfinite(v) for v in vs):
        return None
    scale = max(1.0, max(abs(v) for v in vs))
    d = [vs[i + 1] - vs[i] for i in range(len(vs) - 1)]
    if max(abs(x) for x in d) <= 1e-14 * scale:
        return vs[-1]
    if any(x == 0.0 for x in d):
        return vs[-1]
    ratios = [d[i + 1] / d[i] for i in range(len(d) - 1)]
    if not all(0.0 < q < 0.9999 for q in ratios):
        return None
    level1 = [_aitken(vs[i], vs[i + 1], vs[i + 2]) for i in range(len(vs) - 2)]
    if len(level1) >= 3:
        return _aitken(level1[-3], level1[-2], level1[-1])
    return level1[-1]


# a zoom patch samples this many evenly spaced interior nodes of its
# bracket; the zoom stops once the bracket is narrower than _ZOOM_XTOL in r.
# Near k = 19 a bracket 1e-8 wide in r is still 7.6e-3 wide in s, which
# left the T5.1 sup at alpha = 0.25 3.4e-11 relative below its maximum.
_ZOOM_NODES = 15
_ZOOM_XTOL = 1e-9


def sup_over_radius(
    h: Callable,
    tol: float = 1e-9,
    k_max: int = RADIAL_K_MAX,
    memo: Optional[dict] = None,
) -> SupEstimate:
    """Supremum of h over [0, 1) via grid scan, batched zoom, tail limit.

    h takes one ndarray of radii and returns one value, or one exception,
    per radius.  The grid radii go in increasing order in one call, and
    the scan stops at the first exception, which is raised, or at the
    first value that is not finite or beyond OVERFLOW_GUARD, which short-circuits
    into a diverged estimate.  Each zoom patch is one more call; there an
    exception is raised and a non-finite value raises ConvergenceError.
    converged means the last patch raised the best value by at most tol.
    memo, a dict shared by searches of one profile, keeps h by radius and
    is read before h is called.
    """
    memo = {} if memo is None else memo

    def fill(radii, stop):
        missing = [r for r in radii if r not in memo]
        for r, v in zip(missing, h(np.array(missing)) if missing else ()):
            memo[r] = v
            if isinstance(v, Exception) or not (math.isfinite(v) and v <= OVERFLOW_GUARD):
                if stop:
                    return

    def value(r):
        if isinstance(memo[r], Exception):
            raise memo[r]
        return float(memo[r])

    radii = [float(r) for r in radius_grid(k_max)]
    fill(radii, stop=True)
    vals: list[float] = []
    for r in radii:
        vals.append(value(r))
        if not math.isfinite(vals[-1]) or vals[-1] > OVERFLOW_GUARD:
            return SupEstimate(vals[-1], r, converged=False, diverged=True)

    i = int(np.argmax(vals))
    best_r, best_v = radii[i], vals[i]
    # the bracket [a, b] in s, with the values at its ends where sampled
    a, b = max(i - 1, 0), min(i + 1, k_max)
    fa, fb = vals[a], vals[b]
    while True:
        s = a + (b - a) * np.arange(_ZOOM_NODES + 2) / (_ZOOM_NODES + 1)
        nodes = [float(r) for r in 1.0 - 2.0**-s]
        fill(nodes[1:-1], stop=False)
        f = [fa]
        for r in nodes[1:-1]:
            f.append(value(r))
            if not math.isfinite(f[-1]):
                raise ConvergenceError(f"zoom node not finite at r = {r!r}")
        f.append(fb)
        j = 1 + int(np.argmax(f[1:-1]))
        rise = max(f[j] - best_v, 0.0)
        if f[j] > best_v:
            best_r, best_v = nodes[j], f[j]

        # the winner's neighbours, narrowed around the vertex of a concave
        # parabola through the three: half-width 4 |offset|, at least spacing/64
        lo, hi = float(s[j - 1]), float(s[j + 1])
        if f[j - 1] is not None and f[j + 1] is not None:
            curvature = f[j - 1] - 2.0 * f[j] + f[j + 1]
            if curvature < 0.0:
                spacing = (b - a) / (_ZOOM_NODES + 1)
                offset = 0.5 * spacing * (f[j - 1] - f[j + 1]) / curvature
                half = max(4.0 * abs(offset), spacing / 64.0)
                lo, hi = max(lo, s[j] + offset - half), min(hi, s[j] + offset + half)
        fa = f[j - 1] if lo == s[j - 1] else None
        fb = f[j + 1] if hi == s[j + 1] else None
        a, b = float(lo), float(hi)
        if 2.0**-a - 2.0**-b < _ZOOM_XTOL:
            break

    limit = extrapolate_tail(vals[-5:]) if len(vals) >= 5 else None
    return SupEstimate(best_v, best_r, rise <= tol, extrapolated_limit=limit)
