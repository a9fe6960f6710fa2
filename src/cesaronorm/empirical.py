"""Randomized lower bounds for operator norms between the supported spaces.

Draws random polynomials in the unit ball of the source space, applies
the averaging operator, measures the image in the target space, and
keeps the best ratio.  Each run appends the known extremal function of
the source space so the reported bound is never worse than the witness
value.  The supported pairs are those of theorems.RESULTS, each checked
against the bounds of its result, with the same alpha on both sides:

    T3.1  plain weighted -> plain weighted  (alpha <= 1/2; bound 1/alpha)
    T4.1  log weighted   -> plain weighted  (sup-integral bound)
    T5.1  log weighted   -> log weighted    (sup-integral bound)
    T6.2  Bloch-type     -> Bloch-type      (alpha > 1; closed-form bound)
    T7.1  sup-norm       -> Bloch-type      (alpha >= 1 bounded; alpha < 1 flagged)

Results are bit-identical across runs for a fixed seed: sampling uses
numpy's default_rng and every downstream computation is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cesaro import cesaro_transform
from .errors import DomainError, PreconditionError
from .functions import (
    AnalyticFunction,
    Constant,
    KorenblumExtremal,
    LogKorenblumExtremal,
    Poly,
    PowerSeries,
)
from .numerics import RADIAL_K_MAX
from .spaces import Korenblum, KorenblumLog, NormEstimate, SpaceSpec, space_norm
from .theorems import RESULTS, Result, profile_sup

# depth of the radius grid of every sampled image measured here
GRID_K_MAX = 30


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 0
    count: int = 100
    max_degree: int = 64

    def __post_init__(self):
        for name in ("seed", "count", "max_degree"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        if self.count < 1:
            raise DomainError("sample count must be at least 1")
        if self.max_degree < 0:
            raise DomainError("max_degree must be nonnegative")


def extremal_for(space: SpaceSpec) -> AnalyticFunction:
    """The known norm-one extremizer attached to each space."""
    if isinstance(space, Korenblum):
        return KorenblumExtremal(space.alpha)
    if isinstance(space, KorenblumLog):
        return LogKorenblumExtremal(space.alpha)
    return Constant(1.0)


def sample_unit_ball(space: SpaceSpec, cfg: SampleConfig) -> list[AnalyticFunction]:
    """Random polynomials normalized to unit norm in the given space.

    Coefficients are complex Gaussian with magnitude decay (n + 1)^-1;
    the norm is positively homogeneous, so dividing the coefficients by
    the measured norm is exact.  The norm is space_norm's at its defaults:
    tol 1e-9 on the radius grid k <= RADIAL_K_MAX (41 radii), not the
    GRID_K_MAX grid on which operator_norm_lower_bound measures images.
    """
    rng = np.random.default_rng(cfg.seed)
    out: list[AnalyticFunction] = []
    for _ in range(cfg.count):
        deg = int(rng.integers(0, cfg.max_degree + 1))
        raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        raw *= (np.arange(deg + 1) + 1.0) ** -1.0
        f = Poly(PowerSeries(raw))
        norm = space_norm(f, space)
        if norm.diverged or norm.value == 0.0:
            # all-zero draw is impossible; divergence cannot happen for polys
            raise PreconditionError("sampled polynomial has unusable norm")
        out.append(Poly(PowerSeries(raw / norm.value)))
    return out


def result_for_pair(source: SpaceSpec, target: SpaceSpec) -> Result:
    """The catalogued result whose bounds the source -> target lower bound is checked against."""
    pairs = {r.pair: r for r in RESULTS.values() if r.pair is not None}
    result = pairs.get((type(source), type(target)))
    if result is None:
        supported = ", ".join(f"{s.__name__} -> {t.__name__}" for s, t in pairs)
        raise PreconditionError(f"unsupported space pair; supported pairs: {supported}")
    if getattr(source, "alpha", target.alpha) != target.alpha:
        raise PreconditionError("source and target spaces need matching alpha")
    try:
        result.check_alpha(target.alpha, exact_only=True)
    except DomainError as exc:
        raise PreconditionError(str(exc)) from None
    return result


def _witness_estimate(result: Result, source: SpaceSpec, target: SpaceSpec):
    """Norm of the transformed extremal function.

    For the weighted-modulus sources the image has a positive radial
    profile that dominates every other ray, and that profile is the
    result's own: its sup is theorems.profile_sup's, the same search as
    the result's bounds(alpha), so the witness never exceeds them.
    Computing it in L = log(1/(1 - r)) avoids pushing huge pre-weight
    magnitudes through the polar grid.  The remaining sources have cheap
    closed-form images and go through the generic norm on the GRID_K_MAX grid.
    """
    if not result.radial:
        image = cesaro_transform(extremal_for(source))
        return space_norm(image, target, k_max=GRID_K_MAX)
    est = profile_sup(result.theorem_id, source.alpha)
    return NormEstimate(
        value=est.value,
        argmax_radius=est.argmax_radius,
        argmax_angle=0.0,
        radial_points=RADIAL_K_MAX + 1,
        angular_points=1,
        refinement_residual=0.0,
        diverged=est.diverged,
        argmax_depth=est.argmax_depth,
    )


def operator_norm_lower_bound(source: SpaceSpec, target: SpaceSpec, cfg: SampleConfig):
    """Best observed norm ratio over the sample plus the extremal witness.

    Every sampled image, and a closed-form witness, is measured on the
    radius grid r_k = 1 - 2^-k, k <= GRID_K_MAX (31 radii), at space_norm's
    default tol; a radial witness is its result's profile_sup.  The samples
    are normalized on space_norm's default grid of 41 radii.  Returns a
    NormEstimate whose value is a certified lower bound for the operator
    norm (up to quadrature tolerance).  For the sup-norm -> Bloch-type pair with
    alpha < 1 it returns the result's bounds(alpha): a DivergenceFlag once
    the witness fit confirms the blow-up, else a PreconditionError.
    """
    result = result_for_pair(source, target)
    if result.theorem_id == "T7.1" and target.alpha < 1.0:
        return result.bounds(target.alpha)
    best = None
    for f in sample_unit_ball(source, cfg):
        image = cesaro_transform(f)
        est = space_norm(image, target, k_max=GRID_K_MAX)
        if est.diverged:
            return est
        if best is None or est.value > best.value:
            best = est
    witness = _witness_estimate(result, source, target)
    if witness.diverged:
        return witness
    if best is None or witness.value > best.value:
        best = witness
    return best
