"""Discrete-time multi-agent consensus dynamics under a gain sequence.

The update is applied through neighbor sums over the edge list (the protocol
is local: each agent moves toward the weighted average of its neighbors), not
through an assembled Laplacian matrix. The pairwise accumulation keeps the
state mean constant to round-off at every step. States are kept on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .filters import ControlSequence
from .graphs import _U, Graph, _integral, _neighbour_sums, _read_only, _real, edge_arrays


def round_off_floor(n: int) -> float:
    """n·u, with u = 2**-53 the double unit round-off: the share of the size
    of the initial states, ||x(0)||_2, below which an error of n agents is
    round-off.

    The mean, each neighbor sum and each squared error norm is a sum of up to
    n terms, which carries an error of up to n·u / (1 - n·u) times the sum of
    the terms' magnitudes (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 3). Those terms are of the size of the states, not of
    their spread: states at consensus whose computed mean is not exact keep
    a first error of that size. Being relative, the floor does not move when
    x(0) is scaled.
    """
    return n * _U


def _floor(trace: SimulationTrace) -> float:
    """round_off_floor(n)·||x(0)||_2, with ||x(0)||_2^2 = errors[0]^2 + n·average^2
    since x(0) - average is orthogonal to the constant vector; each term is
    scaled before the sum, so finite states give a finite floor."""
    n = trace.states.shape[1]
    f = round_off_floor(n)
    return float(np.hypot(f * trace.errors[0], f * np.sqrt(n) * abs(trace.average)))


@dataclass(frozen=True)
class SimulationTrace:
    """States x(0..T), consensus errors ||x(k) - mean(x(0))||_2, and that mean.

    ``states`` has n columns and one row per error, or none if none was kept.
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
        if self.states.ndim != 2 or len(self.states) not in (0, len(self.errors)):
            raise ParameterError("states must be a 2-D array with no row or one row per error")


def _scaled(reduce, v):
    """``reduce(v)``, redone as ``m * reduce(v / m)`` with ``m = max|v|`` when
    it overflows on finite ``v``, so finite states keep a finite mean and error."""
    r = reduce(v)
    if not np.isfinite(r) and np.all(np.isfinite(v)):
        m = np.abs(v).max()
        return m * reduce(v / m)
    return r


def _norm(d):
    # the same reduction as np.linalg.norm(states - average, axis=1) per row,
    # bit for bit; a 1-D norm or d @ d would go through BLAS dot instead.
    return np.sqrt(np.add.reduce(d * d))


def check_initial_states(x0, n: int) -> np.ndarray:
    """``x0`` as a float array of n finite states whose spread ``max - min``
    and consensus error are finite floats; anything else is a ParameterError."""
    x = _real(x0, "x0 must be finite", lambda a: np.asarray(a, dtype=float))
    if x.shape != (n,):
        raise ParameterError(f"x0 must have length {n}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("x0 must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        if not (np.isfinite(x.max() - x.min())
                and np.isfinite(_scaled(_norm, x - _scaled(np.mean, x)))):
            raise ParameterError("x0 is out of range: the spread and the consensus error of "
                                 "the initial states must be finite floats")
    return x


def simulate(g: Graph, seq: ControlSequence, x0, steps: int, states: bool = True) -> SimulationTrace:
    """Run ``steps`` protocol steps with the periodic gains of ``seq``.

    The consensus error of each state is computed as the state is produced.
    Only ``states`` keeps the states, the one array of size (steps + 1) x n;
    without it the trace's states have no row. Initial states that
    ``check_initial_states`` rejects are a ParameterError; a run that diverges
    from valid ones overflows to inf and NaN without a warning.
    """
    x = check_initial_states(x0, g.n)
    steps = _integral(steps, "steps", 0)
    neighbour_sums = _neighbour_sums(g.n, *edge_arrays(g))
    rows = np.empty((steps + 1 if states else 0, g.n))
    errors = np.empty(steps + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        average = float(_scaled(np.mean, x))
        if states:
            rows[0] = x
        errors[0] = _scaled(_norm, x - average)
        for k in range(steps):
            x = x + seq.gain_at(k) * neighbour_sums(x)
            if states:
                rows[k + 1] = x
            errors[k + 1] = _scaled(_norm, x - average)
    rows.flags.writeable = False
    errors.flags.writeable = False
    return SimulationTrace(rows, errors, average)


@dataclass(frozen=True)
class PeriodRatios:
    """Per-period error contractions. A period whose starting error is at most
    a finite ``round_off_floor(n) * ||x(0)||_2`` has vanished into round-off
    and is omitted; a non-finite starting error gives a non-finite ratio, and
    a floor that is not finite omits no period."""

    ratios: tuple[float, ...]
    omitted: tuple[int, ...]


def measured_period_ratios(trace: SimulationTrace, period: int) -> PeriodRatios:
    """Ratios errors[(j+1)M] / errors[jM] for each whole period j in the trace."""
    period = _integral(period, "period", 1)
    e = trace.errors[::period]
    start = e[:-1]
    floor = _floor(trace)
    kept = ~(np.isfinite(floor) & (start <= floor))
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = e[1:][kept] / start[kept]
    return PeriodRatios(tuple(ratios.tolist()), tuple(np.flatnonzero(~kept).tolist()))


def consensus_time(trace: SimulationTrace, tol: float) -> int | None:
    """Smallest k with errors[j] <= max(tol * errors[0], round_off_floor(n) *
    ||x(0)||_2) for all j >= k: ``tol`` is relative to the first error, and
    no tighter than round-off. As in ``measured_period_ratios``, a floor that
    is not finite (a library trace whose average is not) does not raise the
    threshold.

    Returns None when the trace never settles below the threshold or its
    first error is not finite; any other non-finite error (a divergent run)
    counts as above it.
    """
    if not 0.0 < tol < np.inf:  # also rejects NaN
        raise ParameterError("tolerance must be finite and positive")
    if not np.isfinite(trace.errors[0]):
        return None
    floor = _floor(trace)
    threshold = max(tol * float(trace.errors[0]), floor if np.isfinite(floor) else 0.0)
    above = np.nonzero(~(trace.errors <= threshold))[0]
    if above.size == 0:
        return 0
    k = int(above[-1]) + 1
    return None if k == trace.errors.shape[0] else k


def uniform_initial_states(n: int, seed: int | None) -> np.ndarray:
    """Seeded uniform initial states on [0, 10], drawn from a child of ``seed``,
    not from the stream ``build_graph`` draws a graph from with that seed."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]).uniform(0.0, 10.0, n)


# ---------------------------------------------------------------------------
# serialization

def _fmt6(x: float) -> str:
    """A number as the CSV documents print it: 6 significant digits."""
    return f"{x:.6g}"


def trace_csv_lines(trace: SimulationTrace) -> list[str]:
    """CSV "k,err[,x_0,...,x_{n-1}]", one row per error; the state columns are
    there exactly when the trace holds one state row per error."""
    # a trace that kept no states is printed as one with no columns
    states = trace.states if len(trace.states) else np.empty((len(trace.errors), 0))
    return ["k,err" + "".join(f",x_{i}" for i in range(states.shape[1]))] + [
        f"{k},{_fmt6(err)}" + "".join("," + _fmt6(v) for v in x)
        for k, (err, x) in enumerate(zip(trace.errors, states))]
