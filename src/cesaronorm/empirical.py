"""Randomized lower bounds for operator norms between the supported spaces.

Draws random polynomials in the unit ball of the source space, applies
the averaging operator, measures the image in the target space, and
keeps the best ratio.  Each run also takes the witness of the pair's
result in theorems.RESULTS, the norm of the image of the source's
norm-one extremal function as a sup in L = log(1/(1 - r)), so the
reported bound is never worse than the witness value.  The supported
pairs are the results' space pairs, each checked against the bounds of
its result, with the same alpha on both sides:

    plain weighted -> plain weighted  (alpha <= 1/2; ends [1/alpha, 1/alpha])
    log weighted   -> plain weighted  (ends [closed-form bound, sup-integral])
    log weighted   -> log weighted    (ends [1/alpha, sup-integral])
    Bloch-type     -> Bloch-type      (alpha > 1; closed-form bound)
    sup-norm       -> Bloch-type      (alpha >= 1 bounded; alpha < 1 flagged)

Results are bit-identical across runs for a fixed seed: sampling uses
numpy's default_rng and every downstream computation is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cesaro import cesaro_transform
from .errors import DomainError, PreconditionError
from .functions import AnalyticFunction, Poly
from .spaces import NormEstimate, SpaceSpec, space_norm
from .theorems import RESULTS, Result

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
        f = Poly(raw)
        norm = space_norm(f, space)
        if norm.diverged or norm.value == 0.0:
            # all-zero draw is impossible; divergence cannot happen for polys
            raise PreconditionError("sampled polynomial has unusable norm")
        out.append(Poly(raw / norm.value))
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


def _witness_estimate(result: Result, alpha: float) -> NormEstimate:
    """result.witness(alpha), the norm of the transformed extremal function, as a NormEstimate.

    Every witness image has a nonnegative radial profile that dominates
    every other ray, so its sup is a 1-D search in L on the positive
    real axis: theorems.profile_sup's for the weighted-modulus sources,
    the same search as the result's bounds(alpha), and
    theorems.constant_one_bloch_sup's, for C(1), for the others.  It
    counts one radial and one angular point: one ray, searched in L.
    """
    est = result.witness(alpha)
    return NormEstimate(
        value=est.value,
        argmax_radius=est.argmax_radius,
        argmax_angle=0.0,
        radial_points=1,
        angular_points=1,
        refinement_residual=0.0,
        argmax_depth=est.argmax_depth,
    )


def operator_norm_lower_bound(source: SpaceSpec, target: SpaceSpec, cfg: SampleConfig):
    """(bound, witness): the best norm ratio seen over the sample and the result's witness, and that witness.

    Every sampled image is measured on the radius grid r_k = 1 - 2^-k,
    k <= GRID_K_MAX (31 radii), at space_norm's default tol; the samples
    are normalized on space_norm's default grid of 41 radii.  The witness,
    its result's 1-D sup in L, is returned for the result's bounds(alpha,
    witness).  The bound is a NormEstimate whose value is a certified lower
    bound for the operator norm (up to quadrature tolerance), the first
    sample of the largest value unless the witness beats them all.  Where
    the witness is infinite, as for sup-norm -> Bloch-type with alpha < 1,
    the pair is unbounded: no sample is drawn and the bound is the result's
    bounds, a DivergenceFlag once the witness fit confirms the blow-up, else
    a PreconditionError.
    """
    result = result_for_pair(source, target)
    witness = _witness_estimate(result, target.alpha)
    if math.isinf(witness.value):
        return result.bounds(target.alpha, witness), witness
    best = None
    for f in sample_unit_ball(source, cfg):
        est = space_norm(cesaro_transform(f), target, k_max=GRID_K_MAX)
        if est.diverged:
            return est, witness
        if best is None or est.value > best.value:
            best = est
    return witness if witness.value > best.value else best, witness
