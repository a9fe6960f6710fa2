"""Randomized lower bounds for operator norms between the supported spaces.

Draws random polynomials in the unit ball of the source space, applies
the averaging operator, measures the image in the target space, and
keeps the best ratio.  Each run appends the known extremal function of
the source space so the reported bound is never worse than the witness
value.  Supported pairs and the bounds they are checked against:

    plain weighted  -> plain weighted   (same alpha <= 1/2; bound 1/alpha)
    log weighted    -> plain weighted   (same alpha; sup-integral bound)
    log weighted    -> log weighted     (same alpha; sup-integral bound)
    Bloch-type      -> Bloch-type       (same alpha > 1; closed-form bound)
    sup-norm        -> Bloch-type       (alpha >= 1 bounded; alpha < 1 flagged)

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
from .numerics import DivergenceFlag, sup_over_radius
from .spaces import (
    BlochAlpha,
    HardyInf,
    Korenblum,
    KorenblumLog,
    NormEstimate,
    SpaceSpec,
    space_norm,
)
from .theorems import (
    DIVERGENCE_PROBE_RADII,
    DIVERGENCE_THRESHOLD,
    bloch_witness_profile,
    korenblum_slice_integral,
    log_to_log_slice,
    log_to_plain_slice,
)


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 0
    count: int = 100
    max_degree: int = 64
    decay_exponent: float = 1.0

    def __post_init__(self):
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


def sample_unit_ball(space: SpaceSpec, cfg: SampleConfig, tol: float = 1e-9) -> list[AnalyticFunction]:
    """Random polynomials normalized to unit norm in the given space.

    Coefficients are complex Gaussian with magnitude decay
    (n + 1)^-decay_exponent; the norm is positively homogeneous, so
    dividing the coefficients by the measured norm is exact.
    """
    rng = np.random.default_rng(cfg.seed)
    out: list[AnalyticFunction] = []
    for _ in range(cfg.count):
        deg = int(rng.integers(0, cfg.max_degree + 1))
        raw = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        raw *= (np.arange(deg + 1) + 1.0) ** -cfg.decay_exponent
        f = Poly(PowerSeries(raw))
        norm = space_norm(f, space, tol)
        if norm.diverged or norm.value == 0.0:
            # all-zero draw is impossible; divergence cannot happen for polys
            raise PreconditionError("sampled polynomial has unusable norm")
        out.append(Poly(PowerSeries(raw / norm.value)))
    return out


_SUPPORTED_NOTE = (
    "supported pairs: plain->plain (alpha <= 1/2), log->plain, log->log, "
    "Bloch->Bloch (alpha > 1), sup-norm->Bloch"
)


def _validate_pair(source: SpaceSpec, target: SpaceSpec):
    if isinstance(source, Korenblum) and isinstance(target, Korenblum):
        if source.alpha != target.alpha:
            raise PreconditionError("plain->plain needs matching alpha")
        if source.alpha > 0.5:
            raise PreconditionError("plain->plain is only verified for alpha <= 1/2")
        return
    if isinstance(source, KorenblumLog) and isinstance(target, (Korenblum, KorenblumLog)):
        if source.alpha != target.alpha:
            raise PreconditionError("log-weighted pairs need matching alpha")
        return
    if isinstance(source, BlochAlpha) and isinstance(target, BlochAlpha):
        if source.alpha != target.alpha:
            raise PreconditionError("Bloch->Bloch needs matching alpha")
        if source.alpha <= 1.0:
            raise PreconditionError("Bloch->Bloch is only verified for alpha > 1")
        return
    if isinstance(source, HardyInf) and isinstance(target, BlochAlpha):
        return
    raise PreconditionError(f"unsupported space pair; {_SUPPORTED_NOTE}")


def _unbounded_witness(alpha: float):
    """Monotone blow-up probe for the sup-norm -> Bloch-type pair below 1."""
    values = [bloch_witness_profile(r, alpha) for r in DIVERGENCE_PROBE_RADII]
    monotone = all(b > a for a, b in zip(values, values[1:]))
    if monotone and values[-1] > DIVERGENCE_THRESHOLD:
        return DivergenceFlag(at_radius=DIVERGENCE_PROBE_RADII[-1], value=values[-1])
    return None


def _witness_estimate(source: SpaceSpec, target: SpaceSpec, tol: float, k_max: int, memo):
    """Norm of the transformed extremal function.

    For the weighted-modulus sources the image has a positive radial
    profile that dominates every other ray, and that profile is exactly
    the half-line integral of the weighted semigroup kernel; computing
    it that way avoids pushing huge pre-weight magnitudes through the
    polar grid.  The remaining sources have cheap closed-form images and
    go through the generic norm.
    """
    alpha = getattr(source, "alpha", None)
    if isinstance(source, Korenblum) and isinstance(target, Korenblum):
        slice_fn = lambda r: korenblum_slice_integral(r, alpha)
    elif isinstance(source, KorenblumLog) and isinstance(target, Korenblum):
        slice_fn = lambda r: log_to_plain_slice(r, alpha)
    elif isinstance(source, KorenblumLog) and isinstance(target, KorenblumLog):
        slice_fn = lambda r: log_to_log_slice(r, alpha)
    else:
        image = cesaro_transform(extremal_for(source))
        return space_norm(image, target, tol, k_max=k_max)
    est = sup_over_radius(slice_fn, tol, k_max=k_max, memo=memo)
    return NormEstimate(
        value=est.value,
        argmax_radius=est.argmax_radius,
        argmax_angle=0.0,
        radial_points=k_max + 1,
        angular_points=1,
        refinement_residual=0.0,
        diverged=est.diverged,
    )


def operator_norm_lower_bound(
    source: SpaceSpec,
    target: SpaceSpec,
    cfg: SampleConfig,
    tol: float = 1e-9,
    k_max: int = 30,
    memo: dict | None = None,
):
    """Best observed norm ratio over the sample plus the extremal witness.

    Returns a NormEstimate whose value is a certified lower bound for
    the operator norm (up to quadrature tolerance), or a DivergenceFlag
    for the sup-norm -> Bloch-type pair with alpha < 1.  memo (see
    sup_over_radius) takes the witness profile of the log-weighted pairs.
    """
    _validate_pair(source, target)
    if isinstance(source, HardyInf) and isinstance(target, BlochAlpha) and target.alpha < 1.0:
        flag = _unbounded_witness(target.alpha)
        if flag is not None:
            return flag
        raise PreconditionError(
            "pair is unbounded but the witness probe stayed below threshold; "
            "use alpha further below 1"
        )
    best = None
    for f in sample_unit_ball(source, cfg, tol):
        image = cesaro_transform(f)
        est = space_norm(image, target, tol, k_max=k_max)
        if est.diverged:
            return est
        if best is None or est.value > best.value:
            best = est
    witness = _witness_estimate(source, target, tol, k_max, memo)
    if witness.diverged:
        return witness
    if best is None or witness.value > best.value:
        best = witness
    return best
