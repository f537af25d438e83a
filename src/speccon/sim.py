"""Discrete-time multi-agent consensus dynamics under a gain sequence.

The update is applied through neighbor sums over the edge list (the protocol
is local: each agent moves toward the weighted average of its neighbors), not
through an assembled Laplacian matrix. The pairwise accumulation keeps the
state mean constant to round-off at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .filters import ControlSequence
from .graphs import Graph, _read_only, edge_arrays

ERROR_FLOOR = 1e-14


@dataclass(frozen=True)
class SimulationTrace:
    """States x(0..T), consensus errors ||x(k) - mean(x(0))||_2, and that mean.

    Both arrays are read-only. A read-only float array that owns its memory,
    as ``simulate`` hands over, is kept without a copy; any other input is
    copied, so the trace never shares memory a caller can still write.
    """

    states: np.ndarray
    errors: np.ndarray
    average: float

    def __post_init__(self):
        object.__setattr__(self, "states", _read_only(self.states))
        object.__setattr__(self, "errors", _read_only(self.errors))

    @property
    def steps(self) -> int:
        return self.states.shape[0] - 1


def _error(x, average: float) -> float:
    # the same reduction as np.linalg.norm(states - average, axis=1) per row,
    # bit for bit; a 1-D norm or d @ d would go through BLAS dot instead.
    # Finite deviations whose squares overflow are scaled by the largest one
    # first, so finite states keep a finite error.
    with np.errstate(over="ignore"):
        d = x - average
        sq = np.add.reduce(d * d)
        if sq == np.inf and np.all(np.isfinite(d)):
            m = np.abs(d).max()
            return m * np.sqrt(np.add.reduce((d / m) ** 2))
    return np.sqrt(sq)


def simulate(g: Graph, seq: ControlSequence, x0, steps: int) -> SimulationTrace:
    """Run ``steps`` protocol steps with the periodic gains of ``seq``.

    The consensus error of each state is computed as the state is produced,
    so the only array of size (steps + 1) x n is the stored states; the
    returned trace owns it and the errors without a copy.
    """
    x = np.asarray(x0, dtype=float)
    if x.shape != (g.n,):
        raise ParameterError(f"x0 must have length {g.n}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("x0 must be finite")
    if steps < 0:
        raise ParameterError("steps must be non-negative")
    iu, ju, w = edge_arrays(g)
    src = np.concatenate([iu, ju])
    # A mean whose sum overflows is taken over the states scaled by the
    # largest one, so finite states keep a finite mean.
    with np.errstate(over="ignore", invalid="ignore"):
        average = float(x.mean())
    if not np.isfinite(average):
        m = np.abs(x).max()
        average = float(m * (x / m).mean())
    states = np.empty((steps + 1, g.n))
    errors = np.empty(steps + 1)
    states[0] = x
    errors[0] = _error(x, average)
    for k in range(steps):
        # sum_j a_ij (x_j - x_i) per node: node i receives +diff for its edges
        # as ``iu`` and then -diff for its edges as ``ju``, each in edge order
        diff = w * (x[ju] - x[iu])
        x = x + seq.gain_at(k) * np.bincount(src, weights=np.concatenate([diff, -diff]),
                                             minlength=g.n)
        states[k + 1] = x
        errors[k + 1] = _error(x, average)
    states.flags.writeable = False
    errors.flags.writeable = False
    return SimulationTrace(states, errors, average)


@dataclass(frozen=True)
class PeriodRatios:
    """Per-period error contractions; periods with vanished error are omitted."""

    ratios: tuple[float, ...]
    omitted: tuple[int, ...]


def measured_period_ratios(trace: SimulationTrace, period: int) -> PeriodRatios:
    """Ratios errors[(j+1)M] / errors[jM] for each whole period j in the trace."""
    if period < 1:
        raise ParameterError("period must be >= 1")
    e = trace.errors[::period]
    kept = e[:-1] > ERROR_FLOOR
    return PeriodRatios(tuple((e[1:][kept] / e[:-1][kept]).tolist()),
                        tuple(np.flatnonzero(~kept).tolist()))


def consensus_time(trace: SimulationTrace, tol: float) -> int | None:
    """Smallest k with errors[j] <= tol * max(1, errors[0]) for all j >= k.

    The threshold has an absolute floor of 1e-12. Returns None when the trace
    never settles below the threshold or its first error is not finite; any
    other non-finite error (a divergent run) counts as above it.
    """
    if not 0.0 < tol < np.inf:  # also rejects NaN
        raise ParameterError("tolerance must be finite and positive")
    if not np.isfinite(trace.errors[0]):
        return None
    threshold = max(tol * max(1.0, float(trace.errors[0])), 1e-12)
    above = np.nonzero(~(trace.errors <= threshold))[0]
    if above.size == 0:
        return 0
    k = int(above[-1]) + 1
    return None if k == trace.errors.shape[0] else k


def uniform_initial_states(n: int, seed: int | None) -> np.ndarray:
    """Seeded uniform initial states on [0, 10]."""
    return np.random.default_rng(seed).uniform(0.0, 10.0, n)


# ---------------------------------------------------------------------------
# serialization

def trace_csv_lines(trace: SimulationTrace, include_states: bool = False) -> list[str]:
    """CSV "k,err[,x_0,...,x_{n-1}]" with one row per recorded step."""
    n = trace.states.shape[1]
    header = "k,err"
    if include_states:
        header += "," + ",".join(f"x_{i}" for i in range(n))
    lines = [header]
    for k in range(trace.states.shape[0]):
        row = f"{k},{trace.errors[k]:.6g}"
        if include_states:
            row += "," + ",".join(f"{v:.6g}" for v in trace.states[k])
        lines.append(row)
    return lines
