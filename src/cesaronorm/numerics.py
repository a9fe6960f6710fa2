"""Quadrature and supremum-search primitives.

One lockstep core runs every adaptive integral.  It advances a batch of
independent integrals over one interval, each on its own partition into
panels of the embedded Gauss(7)/Kronrod(15) pair: a panel is evaluated
once at the 15 Kronrod abscissae, the 7-point Gauss value reuses a subset
of those samples, and |K15 - G7| (the worst component, for array-valued
integrands) is the panel error.  The panels of a batch live in one 2-D
table, a row per integral and a column per panel.  In each round every
unfinished integral splits its own worst panel, and all new panels of the
round go through one integrand call.  An integral stops once the exact
left-to-right sum of its panel errors, taken every round, is within tol
or is not finite, when its worst panel is narrower than the width floor,
or at 10^4 panels (Piessens et al., QUADPACK, 1983).  integrate_rows owns
the convergence rule: it raises ConvergenceError for the first integral
whose error total is not within tol.  integrate_finite is the batch of
one; the operator forms of cesaro run one integral per point.

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
c * q^k.  golden_section_max, the scalar one-dimensional search, is no
longer called by the package; it stays because the benchmark's tracer
binds it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    product, so a panel does not depend on the other panels of the call,
    provided the dtype of g does not depend on the nodes: einsum rounds real
    and complex values differently (np.emath.sqrt is a counterexample).
    """
    h = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + h[:, None] * _XGK
    vals = np.ascontiguousarray(g(x.ravel(), rows.repeat(_XGK.size)))
    vals = vals.reshape(x.shape + vals.shape[1:])
    h = h.reshape((-1,) + (1,) * (vals.ndim - 2))
    k15 = h * np.einsum("j,pj...->p...", _WGK, vals)
    err = np.abs(k15 - h * np.einsum("j,pj...->p...", _WG, vals.take(_GAUSS_IDX, axis=1)))
    return k15, err.max(axis=tuple(range(1, err.ndim))) if err.ndim > 1 else err


def _row_sums(x):
    """Sums along axis 1, strictly left to right as Python's sum adds (np.sum adds pairwise)."""
    return np.add.accumulate(x, axis=1)[:, -1]


def _finish(err_t, lo_t, val_t, c: int):
    """Values, exact error totals and panel counts of the table rows, from their first c columns."""
    err_t, lo_t, val_t = err_t[:, :c], lo_t[:, :c], val_t[:, :c]
    by_lo = np.arange(err_t.shape[0])[:, None], lo_t.argsort(axis=1, kind="stable")
    dead = (err_t[by_lo] == -np.inf).reshape(err_t.shape + (1,) * (val_t.ndim - 2))
    live = err_t != -np.inf
    values = _row_sums(np.where(dead, -np.zeros((), val_t.dtype), val_t[by_lo]))
    # a split turns one live panel into two and adds two panels
    return values, _row_sums(np.where(live, err_t, -0.0)), 2 * live.sum(axis=1) - 1


def _lockstep(g, n: int, a: float, b: float, tol: float):
    """n adaptive G7/K15 integrals over [a, b], advanced together; see the module docstring.

    All new panels of a round go through one call g(x, rows), rows giving
    the integral of each node.  Table row i holds the ends, K15 values and
    errors of one integral's panels in creation order, an error turning
    -inf once its panel is split.  When the columns run out, finished rows
    are summed and dropped and the others padded to twice the width.
    argmax along a row picks the worst panel, the first maximum being the
    oldest, as a heap on (-error, id) would.  Sums run left to right, -0.0
    in split cells changing no float: the error total in creation order,
    the value in order of lo, as Python's sum adds them.  Returns values,
    exact error totals and panel counts, one entry per integral.
    """
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    # about 2048 cells to start with, at least 16 a row, so that small batches rarely double;
    # c counts the panels of every unfinished integral
    cap, c = max(16, 2048 // max(n, 1)), 1
    vals, err = _panels(g, np.full(n, a), np.full(n, b), np.arange(n))
    err_t, lo_t, hi_t = np.full((n, cap), -np.inf), np.full((n, cap), a), np.full((n, cap), b)
    val_t = np.zeros((n, cap) + vals.shape[1:], vals.dtype)
    err_t[:, 0], val_t[:, 0] = err, vals
    values, totals, counts = np.empty_like(vals), np.empty(n), np.empty(n, dtype=int)
    # the integral of each table row, and the table rows of the unfinished integrals
    ids, rows, floor = np.arange(n), np.arange(n), (b - a) * 1e-15
    while rows.size and c < MAX_PANELS:
        errs = err_t[rows, :c]
        col = errs.argmax(axis=1)
        lo, hi = lo_t[rows, col], hi_t[rows, col]
        keep = (_row_sums(np.where(errs == -np.inf, -0.0, errs)) > tol) & (hi - lo > floor)  # NaN stops
        rows, col, lo, hi = rows[keep], col[keep], lo[keep], hi[keep]
        if not rows.size:
            break
        err_t[rows, col] = -np.inf
        # each child starts as its parent; the midpoint closes the left one and opens the right one
        mid = 0.5 * (lo + hi)
        lo, hi = lo.repeat(2), hi.repeat(2)
        lo[1::2], hi[0::2] = mid, mid
        vals, err = _panels(g, lo, hi, ids[rows].repeat(2))
        if c + 2 > cap:  # sum up and drop the finished rows, and double cap
            done = np.ones(ids.size, dtype=bool)
            done[rows] = False
            fin = ids[done]
            values[fin], totals[fin], counts[fin] = _finish(err_t[done], lo_t[done], val_t[done], c)
            err_t, lo_t, hi_t, val_t = (
                np.concatenate([t[rows], np.full_like(t[rows], f)], axis=1)
                for t, f in zip((err_t, lo_t, hi_t, val_t), (-np.inf, a, b, 0.0))
            )
            ids, rows, cap = ids[rows], np.arange(rows.size), 2 * cap
        if vals.dtype != val_t.dtype:
            val_t = val_t.astype(np.result_type(val_t, vals))
            values = values.astype(val_t.dtype)
        for t, new in zip((err_t, lo_t, hi_t, val_t), (err, lo, hi, vals)):
            t[rows, c : c + 2] = new.reshape((-1, 2) + new.shape[1:])
        c += 2

    values[ids], totals[ids], counts[ids] = _finish(err_t, lo_t, val_t, c)
    return values, totals, counts


def _failure(total: float, count: int, tol: float) -> ConvergenceError:
    """The error of an integral whose exact error total is not within tol."""
    reason = "is not finite" if math.isnan(total) else f"{total:.3e} above tolerance {tol:.3e}"
    return ConvergenceError(f"quadrature error {reason} after {count} panels")


def integrate_rows(g: Callable, n: int, a: float, b: float, tol: float):
    """_lockstep(g, n, a, b, tol); ConvergenceError for the first error total not within tol."""
    values, totals, counts = _lockstep(g, n, a, b, tol)
    failed = np.flatnonzero(~(totals <= tol))
    if failed.size:
        raise _failure(float(totals[failed[0]]), int(counts[failed[0]]), tol)
    return values, totals, counts


def integrate_finite(
    g: Callable, a: float, b: float, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Adaptive integral of g over [a, b] to absolute tolerance tol.

    g is called with one ndarray of abscissae and may return one value per
    abscissa or an array per abscissa (leading axis = abscissae).  Raises
    ConvergenceError when the panel budget of MAX_PANELS is exhausted
    above tolerance, or when the error estimate is not finite.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("integration interval must be finite with a < b")
    values, totals, counts = integrate_rows(lambda x, rows: _eval_nodes(g, x), 1, a, b, tol)
    return QuadratureResult(values[0], float(totals[0]), int(counts[0]))


def integrate_halfline_batch(g: Callable, n: int, tol: float = DEFAULT_QUAD_TOL) -> list:
    """integrate_halfline_exp for n integrands in one lockstep pass.

    g(t, rows) evaluates integrand rows[k] at t[k].  Returns per integrand
    a QuadratureResult, or the ConvergenceError of a non-finite probe at
    the cut, of a non-finite error estimate or of an exhausted panel budget.
    """

    def transformed(u, rows):
        vals = _eval_nodes(lambda t: g(t, rows), -np.log(u))
        return vals / u.reshape((u.shape[0],) + (1,) * (vals.ndim - 1))

    cut = HALFLINE_CUT
    probe = np.abs(transformed(np.full(n, cut), np.arange(n)))
    ok = np.flatnonzero(np.isfinite(probe).all(axis=tuple(range(1, probe.ndim))))
    values, totals, counts = _lockstep(lambda u, k: transformed(u, ok[k]), ok.size, cut, 1.0, tol)
    out = [ConvergenceError("transformed integrand not finite at the endpoint cut") for _ in range(n)]
    for k, (i, total, count) in enumerate(zip(ok.tolist(), totals.tolist(), counts.tolist())):
        tail = float(probe[i].max()) * cut
        out[i] = QuadratureResult(values[k], total, count, tail) if total <= tol else _failure(total, count, tol)
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
