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

ExpCumulative gives I(L) = int_0^L e^(-alpha (L - y)) k(y) dy at many
depths L from one left-to-right pass over a table of y panels,
I(b) = e^(-alpha (b - a)) I(a) + int_a^b e^(-alpha (b - y)) k(y) dy, and
one tail panel per depth.  The new panels go through one integrate_rows
call, each mapped onto [0, 1] as its own row; the table ends depend on
alpha alone, so a depth's value does not depend on what shares the call.

sup_over_radius, for a batched profile h given only on the radius (the
package's own radial sups search in L with exact slopes, in theorems),
scans h over r_k = 1 - 2^-k, k = 0..40, in one call and refines the grid
maximum with golden_section_max in s = -log2(1 - r) between its grid
neighbours (Brent, Algorithms for Minimization without Derivatives, 1973, ch. 5).
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

OVERFLOW_GUARD = 1e12
RADIAL_K_MAX = 40


@dataclass(frozen=True)
class QuadratureResult:
    """Value, accumulated error estimate and panel count."""

    value: complex
    error_estimate: float
    subdivisions: int


@dataclass(frozen=True)
class SupEstimate:
    """Result of a supremum search over the radius parameter.

    value is the largest sampled value and therefore a certified lower
    bound for the supremum; argmax_depth, if known, is log(1/(1 - r)) at its
    radius.  diverged marks a blow-up past the overflow guard.
    extrapolated_limit is the r -> 1 limit, if the caller knows one.
    """

    value: float
    argmax_radius: float
    converged: bool
    extrapolated_limit: Optional[float] = None
    diverged: bool = False
    argmax_depth: Optional[float] = None


@dataclass(frozen=True)
class DivergenceFlag:
    """Marker for an unbounded quantity, with the depth L = log(1/(1 - r)) that witnessed it."""

    at_depth: Optional[float] = None
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
    the integral of each node.  An integral within tol on its first panel
    stops there; each other one gets a table row, holding the ends, K15
    values and errors of its panels in creation order, an error turning
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
    values, totals = _panels(g, np.full(n, a), np.full(n, b), np.arange(n))
    counts, live = np.ones(n, dtype=int), totals > tol  # NaN stops
    if not live.any():
        return values, totals, counts
    # the integral of each table row; about 2048 cells to start with, at least 16 a row, so that
    # small batches rarely double; c counts the panels of every unfinished integral
    ids, c = np.flatnonzero(live), 1
    cap = max(16, 2048 // ids.size)
    err_t, lo_t, hi_t = (np.full((ids.size, cap), f) for f in (-np.inf, a, b))
    val_t = np.zeros(err_t.shape + values.shape[1:], values.dtype)
    err_t[:, 0], val_t[:, 0] = totals[ids], values[ids]
    rows, floor = np.arange(ids.size), (b - a) * 1e-15  # the table rows of the unfinished integrals
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
    if not (totals <= tol).all():
        first = int((totals <= tol).argmin())
        raise _failure(float(totals[first]), int(counts[first]), tol)
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


# Per unit width, as a panel integrates its integrand's mean: I(L) is within about PANEL_TOL / alpha.
# Ends 0, 1/4, 1/2, 1, 2, ...: a panel as wide as its left end keeps a kernel
# singularity left of 0 three half-widths away; at most 4 / alpha wide.
PANEL_TOL = 1e-12
_FIRST_PANEL = 0.25
_PANEL_DECAY = 4.0


class ExpCumulative:
    """I(L) = int_0^L e^(-alpha (L - y)) k(y) dy at depths L >= 0, k vectorized.

    The table, arrays of its ends and of I there, grows only when deeper L are asked for.
    """

    def __init__(self, k: Callable, alpha: float):
        self.k, self.alpha = k, alpha
        self.ends, self.at_ends = np.zeros(1), np.zeros(1)

    def __call__(self, depths) -> np.ndarray:
        depths = np.asarray(depths, dtype=float)
        ends, alpha = self.ends, self.alpha
        top, bottom = float(depths.max(initial=0.0)), float(depths.min(initial=0.0))
        if not (top < math.inf and bottom >= 0.0):  # also rejects nan
            raise DomainError(f"depth L must be finite and nonnegative, got {bottom if top < math.inf else top!r}")
        if ends[-1] <= top:
            grown = ends.tolist()
            while grown[-1] <= top:
                grown.append(grown[-1] + min(max(grown[-1], _FIRST_PANEL), _PANEL_DECAY / alpha))
            self.ends = ends = np.array(grown)
        last = np.searchsorted(ends, depths, side="right") - 1  # the last table end <= L
        lo, known = ends[last], self.at_ends.size - 1
        width, new = depths - lo, int(last.max(initial=0)) - known  # new panels [ends[i], ends[i + 1]]
        if new > 0:
            panels = ends[known : known + new + 1]
            lo, width = np.concatenate([panels[:-1], lo]), np.concatenate([panels[1:] - panels[:-1], width])

        def g(s, rows):
            w = width[rows]
            return np.exp(-alpha * w * (1.0 - s)) * self.k(lo[rows] + w * s)

        pieces = width * integrate_rows(g, lo.size, 0.0, 1.0, PANEL_TOL)[0]
        if new > 0:
            at_ends = self.at_ends.tolist()
            for w, piece in zip(width[:new].tolist(), pieces[:new].tolist()):
                at_ends.append(math.exp(-alpha * w) * at_ends[-1] + piece)
            self.at_ends, width, pieces = np.array(at_ends), width[new:], pieces[new:]
        return np.exp(-alpha * width) * self.at_ends[last] + pieces


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
    """Geometric approach to the boundary: r_k = 1 - 2^-k, k = 0..k_max, for an integer k_max >= 1."""
    if isinstance(k_max, bool) or not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise DomainError(f"k_max must be an integer >= 1, got {k_max!r}")
    return 1.0 - 2.0 ** -np.arange(k_max + 1, dtype=float)


def sup_over_radius(h: Callable, tol: float = 1e-9, k_max: int = RADIAL_K_MAX) -> SupEstimate:
    """Supremum of h over [0, 1) via grid scan and golden-section refinement.

    h takes one ndarray of radii and returns one value per radius.  The
    grid radii go in increasing order in one call, and the first value that
    is not finite or beyond OVERFLOW_GUARD short-circuits into a diverged
    estimate.  golden_section_max refines the grid maximum in
    s = -log2(1 - r) between its grid neighbours, one call of h per probe;
    a non-finite probe raises ConvergenceError.  converged means the
    bracket closed and its last step moved the best value by at most tol.
    """
    radii = radius_grid(k_max)
    vals = [float(v) for v in h(radii)]
    for r, v in zip(radii, vals):
        if not (math.isfinite(v) and v <= OVERFLOW_GUARD):
            return SupEstimate(v, float(r), converged=False, diverged=True)

    i = int(np.argmax(vals))
    s_best, best, residual, ok = golden_section_max(
        lambda s: float(h(np.array([1.0 - 2.0**-s]))[0]), max(i - 1, 0), min(i + 1, k_max)
    )
    best_r, best_v = (1.0 - 2.0**-s_best, best) if best > vals[i] else (float(radii[i]), vals[i])
    return SupEstimate(best_v, best_r, ok and residual <= tol)
