"""Quadrature and supremum-search primitives.

integrate_finite is an adaptive bisection scheme built on the embedded
Gauss(7)/Kronrod(15) pair: each panel is evaluated once at the 15
Kronrod abscissae, the 7-point Gauss value reuses a subset of those
samples, and |K15 - G7| serves as the panel error estimate.  The worst
panel is split until the summed estimate drops below the requested
absolute tolerance or the panel budget (10^4) is exhausted, which raises
ConvergenceError.  Integrands may be complex and may return an array per
abscissa (one adaptive pass then integrates a whole batch of points,
with the error taken as the worst component).

Half-line integrals of exponentially decaying integrands are pulled back
to (0, 1] through u = exp(-t):

    int_0^inf g(t) dt = int_0^1 g(-log u) / u du,

which turns the e^{-t} kernel decay into a bounded transformed integrand
and lets the adaptive scheme spend its panels on genuine structure.  The
left endpoint is truncated at u = 1e-16; the one-panel probe value at
the cut is reported as tail_bound rather than silently dropped.

sup_over_radius scans h over the geometric radius grid r_k = 1 - 2^-k,
k = 0..40, golden-sections the bracketing triple around the grid
maximum, and extrapolates the tail of the last five grid values with
iterated Aitken steps.  For a sequence approaching its limit like
c * q^k the first Aitken sweep is exact; the second sweep removes the
next geometric component.  The extrapolated limit is reported whenever
the tail differences behave consistently, since several quantities of
interest attain their supremum only in the r -> 1 limit while others
peak at an interior radius.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError

# 15-point Kronrod abscissae on [-1, 1]; odd entries form the 7-point Gauss rule.
_XGK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)

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

    value is the largest sampled value (grid plus refinement probes) and
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


def _panel(g, a, b):
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    vals = _eval_nodes(g, c + h * _XGK)
    k15 = h * np.tensordot(_WGK, vals, axes=(0, 0))
    g7 = h * np.tensordot(_WG, vals[_GAUSS_IDX], axes=(0, 0))
    err = float(np.max(np.abs(k15 - g7)))
    return k15, err


def integrate_finite(
    g: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_QUAD_TOL,
    max_panels: int = MAX_PANELS,
) -> QuadratureResult:
    """Adaptive integral of g over [a, b] to absolute tolerance tol.

    g is called with an ndarray of abscissae and may return one value per
    abscissa or an array per abscissa (leading axis = abscissae).  Raises
    ConvergenceError when the panel budget is exhausted above tolerance.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError("integration interval must be finite with a < b")
    if tol <= 0:
        raise DomainError("tolerance must be positive")

    counter = itertools.count()
    value, err = _panel(g, a, b)
    panels = {next(counter): (a, b, value, err)}
    heap = [(-err, 0)]
    evaluations = 1
    width_floor = (b - a) * 1e-15
    stuck: set[int] = set()

    while evaluations < max_panels:
        total_err = sum(p[3] for p in panels.values())
        if total_err <= tol:
            break
        while heap and heap[0][1] not in panels:
            heapq.heappop(heap)
        if not heap:
            break
        _, worst_id = heapq.heappop(heap)
        if worst_id in stuck:
            break
        pa, pb, _, perr = panels[worst_id]
        if pb - pa <= width_floor:
            stuck.add(worst_id)
            heapq.heappush(heap, (-perr, worst_id))
            # every remaining reducible panel is narrower than the floor
            if all(pb2 - pa2 <= width_floor for pa2, pb2, _, _ in panels.values()):
                break
            continue
        del panels[worst_id]
        mid = 0.5 * (pa + pb)
        for qa, qb in ((pa, mid), (mid, pb)):
            val, perr = _panel(g, qa, qb)
            pid = next(counter)
            panels[pid] = (qa, qb, val, perr)
            heapq.heappush(heap, (-perr, pid))
            evaluations += 1

    total_err = sum(p[3] for p in panels.values())
    if total_err > tol:
        raise ConvergenceError(
            f"quadrature error {total_err:.3e} above tolerance {tol:.3e} "
            f"after {evaluations} panels"
        )
    # deterministic left-to-right summation
    ordered = sorted(panels.values(), key=lambda p: p[0])
    value = ordered[0][2]
    for p in ordered[1:]:
        value = value + p[2]
    return QuadratureResult(value, total_err, evaluations)


def integrate_halfline_exp(
    g: Callable,
    tol: float = DEFAULT_QUAD_TOL,
    cut: float = HALFLINE_CUT,
) -> QuadratureResult:
    """Integral of g over [0, inf) for integrands with exponential decay.

    Uses the u = exp(-t) pullback described in the module docstring.  The
    transformed integrand must be integrable on (0, 1]; the portion below
    the cut is not integrated, and cut * |h(cut)| is reported as
    tail_bound so callers can see the truncation scale.
    """

    def transformed(u):
        u = np.asarray(u, dtype=float)
        vals = _eval_nodes(g, -np.log(u))
        shape = (u.shape[0],) + (1,) * (vals.ndim - 1)
        return vals / u.reshape(shape)

    probe = _eval_nodes(transformed, np.array([cut]))
    if not np.all(np.isfinite(probe)):
        raise ConvergenceError("transformed integrand not finite at the endpoint cut")
    tail = float(np.max(np.abs(probe))) * cut
    res = integrate_finite(transformed, cut, 1.0, tol)
    return QuadratureResult(res.value, res.error_estimate, res.subdivisions, tail)


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
    change of the running maximum, and the best value seen at any probe
    (including the endpoints) is returned.  A non-finite probe raises
    ConvergenceError, since it would lose every comparison unseen.
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


def sup_over_radius(
    h: Callable[[float], float],
    tol: float = 1e-9,
    k_max: int = RADIAL_K_MAX,
    guard: float = OVERFLOW_GUARD,
    memo: Optional[dict] = None,
) -> SupEstimate:
    """Supremum of h over [0, 1) via grid scan, golden refinement, tail limit.

    Radii are scanned in increasing order; any non-finite value or value
    beyond the overflow guard short-circuits into a diverged estimate.
    memo, a dict shared by searches of one profile, keeps h by radius.
    """
    if memo is not None:
        profile = h

        def h(r):
            if r not in memo:
                memo[r] = profile(r)
            return memo[r]

    radii = radius_grid(k_max)
    vals: list[float] = []
    for r in radii:
        v = float(h(float(r)))
        if not math.isfinite(v) or v > guard:
            return SupEstimate(
                value=v,
                argmax_radius=float(r),
                converged=False,
                extrapolated_limit=None,
                diverged=True,
            )
        vals.append(v)

    arr = np.asarray(vals)
    i = int(np.argmax(arr))
    best_r = float(radii[i])
    best_v = float(arr[i])

    if i == 0:
        lo, hi = float(radii[0]), float(radii[1])
    elif i == len(radii) - 1:
        lo, hi = float(radii[i - 1]), float(radii[i])
    else:
        lo, hi = float(radii[i - 1]), float(radii[i + 1])
    gx, gv, residual, g_ok = golden_section_max(h, lo, hi, xtol=1e-8)
    if gv > best_v:
        best_r, best_v = gx, gv

    limit = extrapolate_tail(vals[-5:]) if len(vals) >= 5 else None
    converged = g_ok and residual <= max(tol, 1e-13 * max(1.0, abs(best_v)))
    return SupEstimate(
        value=best_v,
        argmax_radius=best_r,
        converged=converged,
        extrapolated_limit=limit,
        diverged=False,
    )
