"""Convergence-rate analysis: exact rates on known spectra, worst-case rates
over uncertainty bands, decaying-gain envelopes and the spectral state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .filters import ControlSequence, eval_filter
from .graphs import _U, LaplacianSpectrum, SpectralBand, SpectralExtremes, _widened
from .sim import _fmt6


@dataclass(frozen=True)
class RateReport:
    """Exact rate max |h(lambda_i, steps)| and the smallest eigenvalue attaining it."""

    exact_rate: float
    argmax_eigenvalue: float


def worst_case_rate(seq: ControlSequence, b: SpectralBand, steps: int | None = None) -> float:
    """Global maximum of |h(lam, steps)| over the band, exact up to rounding.

    With distinct roots r_j of multiplicity m_j, (log|h|)' = sum_j m_j/(lam - r_j)
    strictly decreases between consecutive roots, since its derivative is
    -sum_j m_j/(lam - r_j)^2. So |h| has exactly one critical point in each
    root-to-root interval, and it decreases up to the smallest root and
    increases past the largest. The maximum is therefore |h| at a band
    endpoint or at the maximizer of |h| on an interval clipped to the band,
    which bisection on the sign of that sum finds.
    """
    steps = seq.period if steps is None else steps
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    roots, mult = np.unique([1.0 / seq.gain_at(k) for k in range(steps)], return_counts=True)
    # exact, through Python ints: numpy's first int-to-float cast in a process
    # (astype, or int by float division) grows the heap by 64 KiB
    mult = np.array(mult.tolist(), dtype=np.float64)
    lo, hi = np.clip(roots[:-1], b.alpha, b.beta), np.clip(roots[1:], b.alpha, b.beta)
    while True:
        # halved before the sum, which then cannot overflow: bit for bit
        # 0.5 * (lo + hi) wherever both halves are normal
        mid = 0.5 * lo + 0.5 * hi
        # The slope is taken only at midpoints strictly inside their interval,
        # never at a root; the loop ends when each interval is two adjacent floats.
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            break
        rising = (mult / (mid[inside, None] - roots)).sum(axis=1) > 0.0
        lo[inside] = np.where(rising, mid[inside], lo[inside])
        hi[inside] = np.where(rising, hi[inside], mid[inside])
    candidates = np.concatenate(([b.alpha, b.beta], mid))
    return float(np.abs(eval_filter(seq, candidates, steps)).max())


def _slack(wide: SpectralBand, steps: int) -> float:
    """The B = 2M + 2·b/(b - a)·M^2 of ``_in_band_check``, for M = ``steps``
    on its widened band [a, b]."""
    return 2 * steps + 2 * wide.beta / (wide.beta - wide.alpha) * steps ** 2


def _peaks_at_beta(seq: ControlSequence, band: SpectralBand, n: int, steps: int) -> bool:
    """Whether |h(lambda, steps)| on [smallest root, beta] peaks at beta, to
    within the rounding of ``_in_band_check``: its ``worst_case_rate`` there
    is at most |h(beta)|·(1 + B·u).

    Below its smallest root |h| decreases in lambda, so where this holds the
    rate over a spectrum [lambda_2, ..., lambda_N] with lambda_N = beta is
    max(|h(lambda_2)|, |h(lambda_N)|) up to that rounding: a rescaled sweep
    row needs only its two ends. Chebyshev designs equioscillate, and their
    interior maxima read a few ulps above |h(beta)|.
    """
    bound = _slack(_widened(band, n), steps)
    smallest = min(1.0 / seq.gain_at(k) for k in range(steps))
    peak = worst_case_rate(seq, SpectralBand(min(smallest, band.beta), band.beta), steps)
    return peak <= abs(eval_filter(seq, band.beta, steps)) * (1.0 + bound * _U)


def _in_band_check(seq: ControlSequence, band: SpectralBand, n: int, steps: int):
    """The check of a rate over ``steps`` on a spectrum of n eigenvalues that
    ``band_contains`` puts inside ``band``: a function of that rate that
    raises NumericalError when it exceeds the band's worst case.

    Such computed eigenvalues lie in the band widened by their error
    (``graphs._widened``), so the limit is ``worst_case_rate`` on the widened
    band [a, b], times 1 + 2·B·u with B = 2M + 2·b/(b - a)·M^2 for M =
    ``steps``: B·u bounds worst_case_rate's shortfall from the band maximum
    (tests/test_oracle.py), and B·u again the rounding of ``eval_filter`` at
    an eigenvalue where |h| comes that close to it. Where the widened band
    starts at the least positive float, the limit is at least 1.
    """
    wide = _widened(band, n)
    limit = worst_case_rate(seq, wide, steps) * (1.0 + 2 * _slack(wide, steps) * _U)

    def check(rate: float) -> None:
        if not rate <= limit:
            raise NumericalError(
                f"predicted rate {_fmt6(rate)} exceeds the band worst case {_fmt6(limit)}")
    return check


def rate_on_eigenvalues(seq: ControlSequence, eigenvalues, steps: int | None = None) -> RateReport:
    """Rate report for an explicit list of nonzero eigenvalues."""
    steps = seq.period if steps is None else steps
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    if eigs.size == 0 or eigs[0] <= 0.0:
        raise ParameterError("eigenvalues must be positive")
    values = np.abs(eval_filter(seq, eigs, steps))
    idx = int(np.argmax(values))  # first occurrence: ties go to the smallest
    return RateReport(exact_rate=float(values[idx]), argmax_eigenvalue=float(eigs[idx]))


def exact_rate(seq: ControlSequence, s: LaplacianSpectrum | SpectralExtremes,
               steps: int | None = None) -> RateReport:
    """Max of |h(lambda_i, steps)| over the nonzero eigenvalues of a connected
    graph; of a ``SpectralExtremes``, over its two ends."""
    return rate_on_eigenvalues(seq, s.nonzero_eigenvalues(), steps)


def decaying_gain_residuals(kind: str, s: LaplacianSpectrum, horizon: int) -> np.ndarray:
    """Residual envelope max_i |h(lambda_i, t)| for t = 0..horizon under decaying gains.

    kind "harmonic" uses eps(k) = c/(k+1) (divergent sum: the envelope decays
    to zero); kind "summable" uses eps(k) = c/(k+1)^2 (convergent sum: the
    envelope stalls at a positive floor whenever lambda_2 < lambda_N). In both
    cases c = 1/lambda_N, which annihilates the lambda_N component at the
    first step.
    """
    if kind not in ("harmonic", "summable"):
        raise ParameterError(f"unknown gain schedule {kind!r}")
    if horizon < 0:
        raise ParameterError("horizon must be non-negative")
    eigs = s.nonzero_eigenvalues()
    c = 1.0 / s.lambda_max
    residual = np.ones_like(eigs)
    envelope = np.empty(horizon + 1)
    envelope[0] = 1.0
    for t in range(horizon):
        eps = c / (t + 1.0) if kind == "harmonic" else c / (t + 1.0) ** 2
        residual = residual * (1.0 - eps * eigs)
        envelope[t + 1] = np.abs(residual).max()
    return envelope


def spectral_state(s: LaplacianSpectrum, seq: ControlSequence, x0, steps: int) -> np.ndarray:
    """State after ``steps`` via the eigendecomposition instead of time stepping.

    x(T) = V diag{1, h(lambda_2, T), ..., h(lambda_N, T)} V^T x(0).
    """
    if s.eigenvectors is None:
        raise ParameterError("spectral_state needs a spectrum with eigenvectors")
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (s.n,):
        raise ParameterError(f"x0 must have length {s.n}")
    coords = s.eigenvectors.T @ x0
    coords[1:] *= eval_filter(seq, s.eigenvalues[1:], steps)
    return s.eigenvectors @ coords
