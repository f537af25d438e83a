"""Convergence-rate analysis: exact rates on known spectra, worst-case rates
over uncertainty bands, asymptotic limits, and consensus-condition checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConnectivityError, ParameterError
from .filters import ControlSequence, eval_filter
from .graphs import LaplacianSpectrum, SpectralBand

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
PRESCAN_POINTS = 4097


@dataclass(frozen=True)
class RateReport:
    """Per-period convergence rate of a sequence on a spectrum.

    ``worst_case_rate`` is computed on first access, since it costs far more
    than the exact rate and most callers never read it.
    """

    exact_rate: float
    argmax_eigenvalue: float
    per_step_rate: float
    method: str
    steps: int
    sequence: ControlSequence = field(repr=False, compare=False)
    band: SpectralBand | None = None

    @cached_property
    def worst_case_rate(self) -> float | None:
        """Max of |h(lam, steps)| over ``band``; None without a band."""
        return None if self.band is None else worst_case_rate(self.sequence, self.band, self.steps)


def _golden_max(f, lo: float, hi: float, xtol: float = 1e-12) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return max(fc, fd, f(0.5 * (a + b)))


def worst_case_rate(seq: ControlSequence, b: SpectralBand, steps: int | None = None) -> float:
    """Global maximum of |h(lam, steps)| over the band.

    |h| is unimodal between consecutive real roots, so the maximum is found by
    evaluating the band endpoints and refining each root-to-root interval with
    golden-section search; a uniform pre-scan guards sequences whose peaks do
    not follow that structure.
    """
    steps = seq.period if steps is None else steps
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    gains = [seq.gain_at(k) for k in range(steps)]

    def f(lam: float) -> float:
        out = 1.0
        for g in gains:
            out *= 1.0 - g * lam
        return abs(out)

    best = max(f(b.alpha), f(b.beta))
    roots = sorted({1.0 / g for g in gains})
    for r_left, r_right in zip(roots, roots[1:]):
        lo, hi = max(r_left, b.alpha), min(r_right, b.beta)
        if hi - lo > 1e-15:
            best = max(best, _golden_max(f, lo, hi))
    grid = np.linspace(b.alpha, b.beta, PRESCAN_POINTS)
    values = np.abs(eval_filter(seq, grid, steps))
    peak = int(np.argmax(values))
    lo = grid[max(peak - 1, 0)]
    hi = grid[min(peak + 1, PRESCAN_POINTS - 1)]
    if hi > lo:
        best = max(best, _golden_max(f, lo, hi))
    return best


def _nonzero_eigenvalues(s: LaplacianSpectrum) -> np.ndarray:
    if not s.is_connected():
        raise ConnectivityError(
            f"spectrum is effectively disconnected (lambda_2 = {s.lambda_2:.3e})"
        )
    return s.eigenvalues[1:]


def rate_on_eigenvalues(seq: ControlSequence, eigenvalues, steps: int | None = None,
                        band: SpectralBand | None = None) -> RateReport:
    """Rate report for an explicit list of nonzero eigenvalues."""
    steps = seq.period if steps is None else steps
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    eigs = np.sort(np.asarray(eigenvalues, dtype=float))
    if eigs.size == 0 or eigs[0] <= 0.0:
        raise ParameterError("eigenvalues must be positive")
    values = np.abs(eval_filter(seq, eigs, steps))
    idx = int(np.argmax(values))  # first occurrence: ties go to the smallest
    rho = float(values[idx])
    return RateReport(
        exact_rate=rho,
        argmax_eigenvalue=float(eigs[idx]),
        per_step_rate=rho ** (1.0 / steps),
        method=seq.method,
        steps=steps,
        sequence=seq,
        band=seq.band if band is None else band,
    )


def exact_rate(seq: ControlSequence, s: LaplacianSpectrum, steps: int | None = None) -> RateReport:
    """Max of |h(lambda_i, steps)| over the nonzero eigenvalues of a connected graph."""
    return rate_on_eigenvalues(seq, _nonzero_eigenvalues(s), steps)


def asymptotic_optimal_limit(b: SpectralBand) -> float:
    """Limit of the optimal per-step rate: (sqrt(beta/alpha) - 1)/(sqrt(beta/alpha) + 1)."""
    if b.alpha == b.beta:
        return 0.0
    s = math.sqrt(b.beta / b.alpha)
    return (s - 1.0) / (s + 1.0)


def check_finite_time(seq: ControlSequence, s: LaplacianSpectrum, horizon: int,
                      tol: float) -> tuple[bool, np.ndarray]:
    """Whether |h(lambda_i, horizon)| <= tol for every nonzero eigenvalue.

    Returns (reached, residuals) with one residual per nonzero eigenvalue.
    """
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    residuals = np.abs(eval_filter(seq, _nonzero_eigenvalues(s), horizon))
    return bool(residuals.max() <= tol), residuals


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
    eigs = _nonzero_eigenvalues(s)
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


def report_to_dict(r: RateReport) -> dict:
    return {
        "exact_rate": r.exact_rate,
        "argmax_lambda": r.argmax_eigenvalue,
        "worst_case_rate": r.worst_case_rate,
        "per_step_rate": r.per_step_rate,
        "method": r.method,
        "M": r.steps,
    }
