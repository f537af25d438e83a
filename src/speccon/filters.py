"""Periodic control sequences as graph spectrum filters, and their designers.

A gain sequence eps(0..M-1), applied periodically, induces the product-form
filter h(lam, T) = prod_{k<T} (1 - eps(k mod M) * lam). Consensus requires h
to be small on the nonzero Laplacian eigenvalues; the designers below place
the filter roots r_k = 1/eps(k) to achieve that on a known spectrum
(finite-time), on an uncertainty band (uniform grid or Chebyshev nodes), or
with a single constant gain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graphs import SpectralBand, _integral, _number, _real

METHOD_TAGS = ("finite_time", "constant", "lagrange", "chebyshev", "uniform_unknown", "custom")


@dataclass(frozen=True)
class ControlSequence:
    """Positive gains applied periodically; roots are the reciprocal gains."""

    gains: tuple[float, ...]
    method: str = "custom"
    band: SpectralBand | None = None

    def __post_init__(self):
        gains = tuple(_real(g, "control gains must be positive and finite") for g in self.gains)
        if not gains:
            raise ParameterError("control sequence needs at least one gain")
        if any(g <= 0.0 or not math.isfinite(g) for g in gains):
            raise ParameterError("control gains must be positive and finite")
        if self.method not in METHOD_TAGS:
            raise ParameterError(f"unknown method tag {self.method!r}")
        object.__setattr__(self, "gains", gains)

    @property
    def period(self) -> int:
        return len(self.gains)

    @property
    def roots(self) -> tuple[float, ...]:
        return tuple(1.0 / g for g in self.gains)

    def gain_at(self, k: int) -> float:
        return self.gains[k % self.period]


def eval_filter(seq: ControlSequence, lam, steps: int):
    """Evaluate h(lam, steps) in product form, term by term.

    ``lam`` may be a scalar or an ndarray; h(0, T) is exactly 1. An |h| past
    the float range is inf, and h with a factor exactly zero is 0, even where
    an overflow came before the zero (inf * 0 is NaN), both without a warning;
    h is NaN only where the product underflowed to 0 before a factor overflowed.
    """
    steps = _integral(steps, "steps", 0)
    lam_arr = np.asarray(lam, dtype=float)
    out = np.ones_like(lam_arr)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            out = out * (1.0 - seq.gain_at(k) * lam_arr)
        nan = np.isnan(out)
        if nan.any():
            zero = np.any([1.0 - g * lam_arr == 0.0 for g in seq.gains[:steps]], axis=0)
            out = np.where(nan & zero, 0.0, out)
    if lam_arr.ndim == 0:
        return float(out)
    return out


def design_finite_time(distinct) -> ControlSequence:
    """Gains 1/lambda over the K distinct nonzero eigenvalues: consensus in K
    steps. ``ControlSequence`` refuses an empty list, a design with no gain."""
    values = [float(v) for v in distinct]
    if any(v <= 0.0 for v in values):
        raise ParameterError("eigenvalues must be positive")
    return ControlSequence(tuple(1.0 / v for v in values), "finite_time")


def _band_gains(b: SpectralBand, place) -> tuple[float, ...]:
    """The gains 1/r of the roots r that ``place(alpha, beta)`` puts on the
    band's ``_unit_scaled`` ends, with the scale undone on the root while it is
    a normal float, and on 1/r, then normal, below that.

    Undoing a power of two on a normal float is exact, so each gain keeps
    every bit it has when the roots are placed on the band itself, and no sum
    such as alpha + beta overflows on a band near the top of the float range.
    """
    shift = math.frexp(b.beta)[1]
    unit_roots = place(*_unit_scaled(b))
    if any(r <= 0.0 for r in unit_roots):
        raise ParameterError("filter roots must be positive")
    gains = []
    for r in unit_roots:
        root = math.ldexp(r, shift)
        gains.append(1.0 / root if root >= np.finfo(np.float64).tiny else _real(
            1.0 / r, "control gains must be positive and finite", lambda g: math.ldexp(g, -shift)))
    return tuple(gains)


def design_constant(b: SpectralBand) -> ControlSequence:
    """Best constant gain 2/(alpha + beta), as a period-1 sequence: the
    reciprocal of the root (alpha + beta)/2, bit for bit wherever that root
    is a normal float."""
    return ControlSequence(_band_gains(b, lambda a, z: [(a + z) / 2.0]), "constant", b)


def design_lagrange(b: SpectralBand, period: int) -> ControlSequence:
    """Roots on the uniform interior grid of [alpha, beta], ascending.

    r_k = alpha + (beta - alpha) * (k + 1) / (M + 1). A degenerate band
    (alpha == beta) collapses every root onto alpha.
    """
    period = _integral(period, "period", 1)
    gains = _band_gains(b, lambda a, z: [a + (z - a) * (k + 1) / (period + 1)
                                         for k in range(period)])
    return ControlSequence(gains, "lagrange", b)


def design_chebyshev(b: SpectralBand, period: int) -> ControlSequence:
    """Roots at the Chebyshev nodes of [alpha, beta], descending.

    r_i = (beta - alpha)/2 * cos((2i - 1) pi / (2M)) + (beta + alpha)/2 for
    i = 1..M. This is the minimax-optimal root placement for the worst-case
    per-period rate over the band.
    """
    if b.alpha == b.beta:
        raise ParameterError("chebyshev design requires alpha < beta")
    period = _integral(period, "period", 1)

    def place(alpha, beta):
        half_width, center = (beta - alpha) / 2.0, (beta + alpha) / 2.0
        return [half_width * math.cos((2 * i - 1) * math.pi / (2 * period)) + center
                for i in range(1, period + 1)]
    return ControlSequence(_band_gains(b, place), "chebyshev", b)


def design_uniform_unknown(beta_bar: float, period: int) -> ControlSequence:
    """Gains (M+1)/(beta_bar * (k+1)) for k = 0..M-1 (only an upper bound known)."""
    if beta_bar <= 0.0:
        raise ParameterError("beta_bar must be positive")
    period = _integral(period, "period", 1)
    return ControlSequence(
        tuple((period + 1) / (beta_bar * (k + 1)) for k in range(period)),
        "uniform_unknown",
    )


def cheby_on_band_at_zero(b: SpectralBand, m: int) -> float:
    """T_m(chi(0)), with chi(lam) = (2 lam - beta - alpha)/(beta - alpha) the
    affine map of [alpha, beta] onto [-1, 1], which sends lambda = 0 outside.

    With s = sqrt(beta/alpha):
      0.5 * (-1)^m * [((s - 1)/(s + 1))^m + ((s + 1)/(s - 1))^m].
    Grows without bound as m increases; overflows to +/-inf for very large m.
    A band whose s rounds to 1, alpha == beta among them, is a ParameterError.
    From s = 2**54 on, s - 1 and s + 1 round to s, so both ratios are 1 and
    the value is +/-1, its limit as beta/alpha grows; s is held there, so a
    ratio beta/alpha past the float range gives that limit too, not NaN.
    """
    m = _integral(m, "order", 0)
    s = min(math.sqrt(b.beta / b.alpha), 2.0 ** 54)
    if s == 1.0:
        raise ParameterError("closed form requires alpha < beta")
    small = (s - 1.0) / (s + 1.0)
    big = (s + 1.0) / (s - 1.0)
    with np.errstate(over="ignore"):
        value = 0.5 * (np.float64(small) ** m + np.float64(big) ** m)
    sign = -1.0 if m % 2 else 1.0
    return float(sign * value)


def _unit_scaled(b: SpectralBand) -> tuple[float, float]:
    """(alpha, beta) times the power of two that puts beta in [0.5, 1).

    Exact while alpha stays a normal float, so a closed form that depends only
    on beta/alpha keeps every bit, and alpha + beta or (M + 1)·alpha no longer
    overflow on a band near the top of the float range.
    """
    shift = -math.frexp(b.beta)[1]
    return math.ldexp(b.alpha, shift), math.ldexp(b.beta, shift)


def closed_rate_lagrange(b: SpectralBand, period: int) -> float:
    """Worst-case per-period rate of the uniform-grid design.

    gamma_M = M! / prod_{k=1..M} (k + (M+1) alpha / (beta - alpha)). Returns 0
    for a degenerate band (all roots coincide with the only eigenvalue
    location).
    """
    period = _integral(period, "period", 1)
    if b.alpha == b.beta:
        return 0.0
    alpha, beta = _unit_scaled(b)
    shift = (period + 1) * alpha / (beta - alpha)
    out = 1.0
    for k in range(1, period + 1):
        out *= k / (k + shift)
    return out


def closed_rate_chebyshev(b: SpectralBand, period: int) -> float:
    """Optimal worst-case per-period rate: the reciprocal filter normalization."""
    period = _integral(period, "period", 1)
    return 1.0 / abs(cheby_on_band_at_zero(b, period))


def closed_rate_constant(b: SpectralBand, period: int) -> float:
    """Worst-case rate of the constant gain iterated ``period`` times."""
    period = _integral(period, "period", 1)
    alpha, beta = _unit_scaled(b)
    return ((beta - alpha) / (beta + alpha)) ** period


# ---------------------------------------------------------------------------
# serialization

def sequence_to_dict(seq: ControlSequence) -> dict:
    return {
        "period": seq.period,
        "gains": list(seq.gains),
        "method": seq.method,
        "band": None if seq.band is None else [seq.band.alpha, seq.band.beta],
    }


def sequence_from_dict(d: dict) -> ControlSequence:
    """Sequence from its document; a malformed document is a ParameterError."""
    try:
        gains = tuple(float(_number(g, "a gain")) for g in d["gains"])
        method = d.get("method", "custom")
        band = d.get("band")
        band = None if band is None else SpectralBand(*(_number(v, "a band end") for v in band))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed sequence document: {exc}") from exc
    if "period" in d and _number(d["period"], "period") != len(gains):
        raise ParameterError(f"the period is not the number of gains, {len(gains)}")
    return ControlSequence(gains, method, band)

