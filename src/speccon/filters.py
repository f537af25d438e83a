"""Periodic control sequences as graph spectrum filters, and their designers.

A gain sequence eps(0..M-1), applied periodically, induces the product-form
filter h(lam, T) = prod_{k<T} (1 - eps(k mod M) * lam). Consensus requires h
to be small on the nonzero Laplacian eigenvalues; the designers below place
the filter roots r_k = 1/eps(k) to achieve that on a known spectrum
(finite-time), on an uncertainty band (uniform grid or Chebyshev nodes), or
with a single constant gain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .graphs import SpectralBand

METHOD_TAGS = ("finite_time", "constant", "lagrange", "chebyshev", "uniform_unknown", "custom")


@dataclass(frozen=True)
class ControlSequence:
    """Positive gains applied periodically; roots are the reciprocal gains."""

    gains: tuple[float, ...]
    method: str = "custom"
    band: SpectralBand | None = None

    def __post_init__(self):
        gains = tuple(float(g) for g in self.gains)
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

    @classmethod
    def from_roots(cls, roots, method: str = "custom", band: SpectralBand | None = None) -> "ControlSequence":
        if any(r <= 0.0 for r in roots):
            raise ParameterError("filter roots must be positive")
        return cls(tuple(1.0 / r for r in roots), method, band)

    def gain_at(self, k: int) -> float:
        return self.gains[k % self.period]


def eval_filter(seq: ControlSequence, lam, steps: int):
    """Evaluate h(lam, steps) in product form, term by term.

    ``lam`` may be a scalar or an ndarray; h(0, T) is exactly 1.
    """
    if steps < 0:
        raise ParameterError("steps must be non-negative")
    lam_arr = np.asarray(lam, dtype=float)
    out = np.ones_like(lam_arr)
    for k in range(steps):
        out = out * (1.0 - seq.gain_at(k) * lam_arr)
    if np.isscalar(lam) or lam_arr.ndim == 0:
        return float(out)
    return out


def design_finite_time(distinct) -> ControlSequence:
    """Gains 1/lambda over the K distinct nonzero eigenvalues: consensus in K steps."""
    values = [float(v) for v in distinct]
    if not values:
        raise ParameterError("need at least one distinct nonzero eigenvalue")
    if any(v <= 0.0 for v in values):
        raise ParameterError("eigenvalues must be positive")
    return ControlSequence(tuple(1.0 / v for v in values), "finite_time")


def design_constant(b: SpectralBand) -> ControlSequence:
    """Best constant gain 2/(alpha + beta), as a period-1 sequence."""
    return ControlSequence((2.0 / (b.alpha + b.beta),), "constant", b)


def design_lagrange(b: SpectralBand, period: int) -> ControlSequence:
    """Roots on the uniform interior grid of [alpha, beta], ascending.

    r_k = alpha + (beta - alpha) * (k + 1) / (M + 1). A degenerate band
    (alpha == beta) collapses every root onto alpha.
    """
    if period < 1:
        raise ParameterError("period must be >= 1")
    roots = [b.alpha + (b.beta - b.alpha) * (k + 1) / (period + 1) for k in range(period)]
    return ControlSequence.from_roots(roots, "lagrange", b)


def design_chebyshev(b: SpectralBand, period: int) -> ControlSequence:
    """Roots at the Chebyshev nodes of [alpha, beta], descending.

    r_i = (beta - alpha)/2 * cos((2i - 1) pi / (2M)) + (beta + alpha)/2 for
    i = 1..M. This is the minimax-optimal root placement for the worst-case
    per-period rate over the band.
    """
    if period < 1:
        raise ParameterError("period must be >= 1")
    if b.alpha == b.beta:
        raise ParameterError("chebyshev design requires alpha < beta")
    half_width = (b.beta - b.alpha) / 2.0
    center = (b.beta + b.alpha) / 2.0
    roots = [half_width * math.cos((2 * i - 1) * math.pi / (2 * period)) + center
             for i in range(1, period + 1)]
    return ControlSequence.from_roots(roots, "chebyshev", b)


def design_uniform_unknown(beta_bar: float, period: int) -> ControlSequence:
    """Gains (M+1)/(beta_bar * (k+1)) for k = 0..M-1 (only an upper bound known)."""
    if beta_bar <= 0.0:
        raise ParameterError("beta_bar must be positive")
    if period < 1:
        raise ParameterError("period must be >= 1")
    return ControlSequence(
        tuple((period + 1) / (beta_bar * (k + 1)) for k in range(period)),
        "uniform_unknown",
    )


def _cheb_recursion(m: int, x: float) -> float:
    if m == 0:
        return 1.0
    prev, cur = 1.0, float(x)
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def cheby_t(m: int, chi: float) -> float:
    """Chebyshev polynomial T_m(chi) on [-1, 1], by the three-term recursion."""
    if m < 0:
        raise ParameterError("order must be non-negative")
    if abs(chi) > 1.0 + 1e-12:
        raise ParameterError(f"chi = {chi} outside [-1, 1]")
    return _cheb_recursion(m, chi)


def _band_chi(b: SpectralBand, lam: float) -> float:
    if b.alpha == b.beta:
        raise ParameterError("band map requires alpha < beta")
    return (2.0 * lam - (b.beta + b.alpha)) / (b.beta - b.alpha)


def cheby_on_band(b: SpectralBand, m: int, lam: float) -> float:
    """T_m composed with the affine map sending [alpha, beta] onto [-1, 1].

    Uses the polynomial recursion, valid for any real ``lam`` (in particular
    lam = 0, which lies outside the band).
    """
    if m < 0:
        raise ParameterError("order must be non-negative")
    return _cheb_recursion(m, _band_chi(b, lam))


def cheby_on_band_at_zero(b: SpectralBand, m: int) -> float:
    """Closed form of cheby_on_band(b, m, 0).

    With s = sqrt(beta/alpha):
      0.5 * (-1)^m * [((s - 1)/(s + 1))^m + ((s + 1)/(s - 1))^m].
    Grows without bound as m increases; overflows to +/-inf for very large m.
    """
    if m < 0:
        raise ParameterError("order must be non-negative")
    if b.alpha == b.beta:
        raise ParameterError("closed form requires alpha < beta")
    s = math.sqrt(b.beta / b.alpha)
    small = (s - 1.0) / (s + 1.0)
    big = (s + 1.0) / (s - 1.0)
    with np.errstate(over="ignore"):
        value = 0.5 * (np.float64(small) ** m + np.float64(big) ** m)
    sign = -1.0 if m % 2 else 1.0
    return float(sign * value)


def closed_rate_lagrange(b: SpectralBand, period: int) -> float:
    """Worst-case per-period rate of the uniform-grid design.

    gamma_M = M! / prod_{k=1..M} (k + (M+1) alpha / (beta - alpha)). Returns 0
    for a degenerate band (all roots coincide with the only eigenvalue
    location).
    """
    if period < 1:
        raise ParameterError("period must be >= 1")
    if b.alpha == b.beta:
        return 0.0
    shift = (period + 1) * b.alpha / (b.beta - b.alpha)
    out = 1.0
    for k in range(1, period + 1):
        out *= k / (k + shift)
    return out


def closed_rate_chebyshev(b: SpectralBand, period: int) -> float:
    """Optimal worst-case per-period rate: the reciprocal filter normalization."""
    if period < 1:
        raise ParameterError("period must be >= 1")
    denom = abs(cheby_on_band_at_zero(b, period))
    return 0.0 if math.isinf(denom) else 1.0 / denom


def closed_rate_constant(b: SpectralBand, period: int) -> float:
    """Worst-case rate of the constant gain iterated ``period`` times."""
    if period < 1:
        raise ParameterError("period must be >= 1")
    return ((b.beta - b.alpha) / (b.beta + b.alpha)) ** period


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
        gains = tuple(float(g) for g in d["gains"])
        method = d.get("method", "custom")
        band = d.get("band")
        band = None if band is None else SpectralBand(*band)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParameterError(f"malformed sequence document: {exc}") from exc
    if "period" in d and d["period"] != len(gains):
        raise ParameterError(f"period {d['period']!r} is not the number of gains, {len(gains)}")
    return ControlSequence(gains, method, band)


def save_sequence(seq: ControlSequence, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sequence_to_dict(seq), fh, indent=2)
        fh.write("\n")


def load_sequence(path) -> ControlSequence:
    """Sequence from a JSON file; an unreadable or non-JSON file is a ParameterError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read sequence file {path}: {exc}") from exc
    return sequence_from_dict(doc)
