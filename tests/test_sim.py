import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speccon import (
    ControlSequence,
    Graph,
    ParameterError,
    PeriodRatios,
    SimulationTrace,
    SpectralBand,
    build_graph,
    check_initial_states,
    consensus_time,
    design_chebyshev,
    design_constant,
    design_finite_time,
    design_lagrange,
    distinct_nonzero_eigenvalues,
    eval_filter,
    exact_rate,
    graph_from_dict,
    measured_period_ratios,
    simulate,
    spectral_state,
    spectrum,
    trace_csv_lines,
    uniform_initial_states,
)
from speccon import graphs
from speccon.graphs import edge_arrays
from speccon.sim import round_off_floor

BAND = SpectralBand(0.2, 12.8)
WEIGHTED = Path(__file__).parent / "data" / "graph_weighted24.json"

# consensus step counts for the special families (distinct nonzero eigenvalues)
FINITE_TIME_CASES = [
    ("complete", dict(n=5), 1),
    ("star", dict(n=12), 2),
    ("complete_bipartite", dict(m=3, n=4), 3),
    ("cycle", dict(n=12), 6),
    ("path", dict(n=6), 5),
]


def _one_step(g, x, eps):
    return simulate(g, ControlSequence((eps,)), x, 1).states[1]


def test_step_examples():
    g3 = build_graph("complete", n=3)
    assert np.allclose(_one_step(g3, np.array([1.0, 0.0, 0.0]), 1.0 / 3.0),
                       [1 / 3, 1 / 3, 1 / 3], atol=1e-15)
    x = np.full(5, 2.5)
    assert np.array_equal(_one_step(build_graph("complete", n=5), x, 0.7), x)
    p2 = build_graph("path", n=2)
    assert np.allclose(_one_step(p2, np.array([1.0, 0.0]), 0.5), [0.5, 0.5], atol=1e-15)
    with pytest.raises(ParameterError):
        _one_step(p2, np.ones(3), 0.5)
    with pytest.raises(ParameterError):
        _one_step(p2, np.ones(2), 0.0)


def test_simulate_constant_state_is_fixed_point():
    g = build_graph("cycle", n=8)
    trace = simulate(g, design_constant(BAND), np.full(8, 3.7), 10)
    assert np.all(trace.errors == 0.0)
    assert consensus_time(trace, 1e-9) == 0


@pytest.mark.parametrize("family,kwargs,steps", FINITE_TIME_CASES)
def test_finite_time_certificates(family, kwargs, steps):
    g = build_graph(family, **kwargs)
    s = spectrum(g)
    seq = design_finite_time(distinct_nonzero_eigenvalues(s))
    assert seq.period == steps
    for seed in range(3):
        trace = simulate(g, seq, uniform_initial_states(g.n, seed), steps)
        assert trace.errors[steps] <= 1e-9 * trace.errors[0]


def test_simulate_tracks_filter_on_eigenvector():
    g = build_graph("cycle", n=12)
    s = spectrum(g)
    seq = design_chebyshev(BAND, 3)
    v2 = s.eigenvectors[:, 1]
    trace = simulate(g, seq, v2, 3)
    expected = abs(eval_filter(seq, s.eigenvalues[1], 3))
    assert abs(trace.errors[3] / trace.errors[0] - expected) <= 1e-12


def test_average_preserved_along_trace():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(4, 25))
        g = build_graph("random_connected", n=n, p=0.4, seed=int(rng.integers(2**32)))
        high = 1.8 / spectrum(g).lambda_max
        seq = ControlSequence(tuple(rng.uniform(0.01, high, int(rng.integers(1, 5)))))
        x0 = uniform_initial_states(n, int(rng.integers(2**32)))
        trace = simulate(g, seq, x0, 25)
        means = trace.states.mean(axis=1)
        assert np.abs(means - trace.average).max() <= 1e-10 * max(1.0, abs(trace.average))


def test_simulation_matches_spectral_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(4, 31))
        g = build_graph("random_connected", n=n, p=0.45, seed=int(rng.integers(2**32)))
        s = spectrum(g)
        period = int(rng.integers(1, 6))
        seq = ControlSequence(tuple(rng.uniform(0.01, 1.0 / s.lambda_max * 1.8, period)))
        x0 = uniform_initial_states(n, int(rng.integers(2**32)))
        steps = int(rng.integers(0, 41))
        trace = simulate(g, seq, x0, steps)
        assert np.abs(trace.states[-1] - spectral_state(s, seq, x0, steps)).max() <= 1e-8


def test_error_envelope_contracts_per_period():
    rng = np.random.default_rng(13)
    for _ in range(5):
        n = int(rng.integers(5, 20))
        g = build_graph("random_connected", n=n, p=0.5, seed=int(rng.integers(2**32)))
        s = spectrum(g)
        band = SpectralBand(s.lambda_2 * 0.9, s.lambda_max * 1.05)
        for seq in (design_lagrange(band, 3), design_chebyshev(band, 3)):
            rho = exact_rate(seq, s).exact_rate
            assert rho < 1.0
            trace = simulate(g, seq, uniform_initial_states(n, 1), 12)
            for j in range(1, 5):
                assert trace.errors[3 * j] <= (rho + 1e-9) ** j * trace.errors[0] + 1e-12


def test_convergence_iff_rate_below_one():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(5, 25))
        g = build_graph("random_connected", n=n, p=0.4, seed=int(rng.integers(2**32)))
        s = spectrum(g)
        band = SpectralBand(s.lambda_2 * 0.9, s.lambda_max * 1.05)
        good = design_chebyshev(band, 3)
        rho = exact_rate(good, s).exact_rate
        assert rho < 1.0
        x0 = uniform_initial_states(n, int(rng.integers(2**32)))
        trace = simulate(g, good, x0, 15)
        assert trace.errors[15] < trace.errors[0]
        assert trace.errors[15] <= (rho + 1e-9) ** 5 * trace.errors[0] + 1e-12

        bad = ControlSequence((3.0 / s.lambda_2,))
        report = exact_rate(bad, s)
        assert report.exact_rate > 1.0
        values = np.abs(eval_filter(bad, s.eigenvalues[1:], 1))
        idx = 1 + int(np.argmax(values))
        diverging = simulate(g, bad, s.eigenvectors[:, idx], 5)
        assert diverging.errors[5] > diverging.errors[0]


def test_measured_ratios_worst_eigenvector_attains_rate():
    g = build_graph("star", n=12)
    s = spectrum(g)
    seq = design_lagrange(BAND, 3)
    report = exact_rate(seq, s)
    values = np.abs(eval_filter(seq, s.eigenvalues[1:], 3))
    idx = 1 + int(np.argmax(values))
    trace = simulate(g, seq, s.eigenvectors[:, idx], 6)
    ratios = measured_period_ratios(trace, 3)
    assert not ratios.omitted
    assert abs(ratios.ratios[0] - report.exact_rate) <= 1e-9
    assert abs(ratios.ratios[0] - 0.5321) <= 5e-5
    assert abs(ratios.ratios[1] - report.exact_rate) <= 1e-9


def test_measured_ratios_random_never_exceed_rate():
    g = build_graph("cycle", n=12)
    s = spectrum(g)
    seq = design_chebyshev(BAND, 5)
    rho = exact_rate(seq, s).exact_rate
    for seed in range(10):
        trace = simulate(g, seq, uniform_initial_states(12, seed), 20)
        for ratio in measured_period_ratios(trace, 5).ratios:
            assert ratio <= rho + 1e-9


@pytest.mark.parametrize("n,p,seed", [(50, 0.3, 3), (100, 0.08, 1), (300, 0.05, 2)])
def test_uniform_states_are_not_the_graph_draws(n, p, seed):
    # er:N,P draws its first edge coins, node 0's, from default_rng(seed):
    # states from that stream would fall below 10·p exactly at its neighbours
    iu, ju, _ = edge_arrays(build_graph("random_connected", n=n, p=p, seed=seed))
    adjacent = np.isin(np.arange(1, n), ju[iu == 0])
    x0 = uniform_initial_states(n, seed)
    assert not np.array_equal(x0[:n - 1] < 10.0 * p, adjacent)
    assert x0.tobytes() == uniform_initial_states(n, seed).tobytes()


def test_measured_ratios_omit_vanished_periods():
    g = build_graph("star", n=12)
    s = spectrum(g)
    seq = design_finite_time(distinct_nonzero_eigenvalues(s))
    trace = simulate(g, seq, uniform_initial_states(12, 0), 8)
    ratios = measured_period_ratios(trace, 2)
    assert ratios.ratios[0] <= 1e-9
    assert ratios.omitted  # error vanished after the first period
    assert len(measured_period_ratios(trace, 5).ratios) == 1  # one whole period in 8 steps
    with pytest.raises(ParameterError):
        measured_period_ratios(trace, 0)


def test_measured_ratios_omit_only_vanished_periods():
    # A divergent run's errors turn inf and then NaN. Such a starting error has
    # not vanished, so its period gets a ratio, not a place in ``omitted``;
    # neither the run nor the ratios warn.
    g = build_graph("complete", n=20)
    trace = simulate(g, design_chebyshev(BAND, 3), uniform_initial_states(20, 1), 3000)
    ratios = measured_period_ratios(trace, 3)
    assert len(ratios.ratios) + len(ratios.omitted) == 1000
    # round_off_floor(n)·||x(0)||_2, with ||x(0)||_2^2 = errors[0]^2 + n·average^2
    f = round_off_floor(20)
    floor = np.hypot(f * trace.errors[0], f * np.sqrt(20) * abs(trace.average))
    assert all(trace.errors[3 * j] <= floor for j in ratios.omitted)
    assert all(not trace.errors[3 * j] <= floor for j in range(1000) if j not in ratios.omitted)
    assert math.isnan(ratios.ratios[-1])
    errors = np.array([1e-13, 1e300, np.inf, np.nan, 0.0, 1.0])
    synthetic = measured_period_ratios(SimulationTrace(np.zeros((6, 1)), errors, 0.0), 1)
    assert synthetic.omitted == (4,)
    assert synthetic.ratios[:2] == (math.inf, math.inf)
    assert all(math.isnan(r) for r in synthetic.ratios[2:])


def test_a_floor_that_is_not_finite_omits_no_period():
    # An infinite first error makes the floor infinite; the finite periods
    # after it are still measured, and the trace never settles.
    trace = SimulationTrace(np.zeros((4, 1)), np.array([np.inf, 1.0, 0.5, 0.25]), 0.0)
    assert measured_period_ratios(trace, 1) == PeriodRatios((0.0, 0.5, 0.5), ())
    assert consensus_time(trace, 1e-9) is None


def test_a_floor_that_is_not_finite_does_not_settle_a_trace():
    # An infinite average makes the floor infinite; as for the ratios, it does
    # not raise the threshold, so these growing errors never settle.
    trace = SimulationTrace(np.zeros((3, 1)), np.array([1.0, 2.0, 4.0]), math.inf)
    assert measured_period_ratios(trace, 1) == PeriodRatios((2.0, 2.0), ())
    assert consensus_time(trace, 1e-9) is None
    assert consensus_time(SimulationTrace(np.zeros((3, 1)), np.array([1.0, 0.5, 0.0]),
                                          math.inf), 0.1) == 2


def test_states_at_consensus_are_settled_from_the_start():
    # The computed mean of [0.1, 0.1, 0.1] is not exact, so every error is a
    # round-off 2.4e-17 that never falls: below the floor, which is relative
    # to the size of the states, not to that first error.
    trace = simulate(build_graph("path", n=3), design_constant(BAND), [0.1, 0.1, 0.1], 5)
    assert trace.errors[0] > 0.0
    assert consensus_time(trace, 1e-9) == 0
    assert measured_period_ratios(trace, 1) == PeriodRatios((), (0, 1, 2, 3, 4))


def test_consensus_time_examples():
    g5 = build_graph("complete", n=5)
    trace = simulate(g5, ControlSequence((0.2,)), uniform_initial_states(5, 3), 3)
    assert consensus_time(trace, 1e-10) == 1

    p6 = build_graph("path", n=6)
    seq = design_finite_time(distinct_nonzero_eigenvalues(spectrum(p6)))
    trace = simulate(p6, seq, uniform_initial_states(6, 4), 10)
    assert consensus_time(trace, 1e-8) == 5

    slow = simulate(build_graph("star", n=12), ControlSequence((1.0 / 6.5,)),
                    uniform_initial_states(12, 5), 5)
    assert consensus_time(slow, 1e-10) is None
    with pytest.raises(ParameterError):
        consensus_time(slow, 0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_consensus_time_rejects_tolerance_not_finite_and_positive(tol):
    # a NaN threshold compares false against every error, so it must not be
    # read as "never settled"
    trace = simulate(build_graph("cycle", n=12), ControlSequence((0.25,)),
                     uniform_initial_states(12, 1), 8)
    with pytest.raises(ParameterError, match="tolerance"):
        consensus_time(trace, tol)


def test_consensus_time_divergent_run_is_not_consensus():
    # complete:20 has lambda_N = 20 > beta: the predicted rate is about 25, so
    # the errors overflow to inf and then NaN, which must not count as settled
    g = build_graph("complete", n=20)
    seq = design_chebyshev(BAND, 3)
    assert exact_rate(seq, spectrum(g)).exact_rate > 1.0
    with np.errstate(all="ignore"):
        trace = simulate(g, seq, uniform_initial_states(20, 1), 3000)
    assert not np.all(np.isfinite(trace.errors))
    assert consensus_time(trace, 1e-9) is None
    for tail in (np.inf, np.nan):
        stalled = SimulationTrace(np.zeros((3, 2)), np.array([1.0, 0.0, tail]), 0.0)
        assert consensus_time(stalled, 1e-9) is None
        # an infinite first error makes the threshold infinite, and inf <= inf
        diverged = SimulationTrace(np.zeros((3, 2)), np.array([tail] * 3), 0.0)
        assert consensus_time(diverged, 1e-9) is None


def test_error_of_finite_states_does_not_overflow():
    # Scaling x(0) by a power of two scales every state exactly, so the errors
    # scale too, although the squared deviations of the large run overflow.
    g = build_graph("cycle", n=12)
    seq = design_finite_time(distinct_nonzero_eigenvalues(spectrum(g)))
    x0 = uniform_initial_states(12, 3)
    small = simulate(g, seq, x0, 8)
    big = simulate(g, seq, 2.0 ** 600 * x0, 8)  # no RuntimeWarning either
    assert np.array_equal(big.states, 2.0 ** 600 * small.states)
    assert np.all(np.isfinite(big.errors))
    assert np.allclose(big.errors, 2.0 ** 600 * small.errors, rtol=1e-14, atol=0.0)
    assert consensus_time(big, 1e-9) == consensus_time(small, 1e-9) == 6


def _scaling_run(family, kwargs, seq, steps):
    g = build_graph(family, **kwargs)
    return g, seq, uniform_initial_states(g.n, 1), steps


SCALING_RUNS = {
    "ws200-chebyshev": _scaling_run("watts_strogatz", dict(n=200, k=6, p=0.3, seed=1),
                                    design_chebyshev(SpectralBand(0.2, 20), 5), 600),
    "cycle12-constant": _scaling_run("cycle", dict(n=12), design_constant(BAND), 60),
}
UNSCALED = {name: simulate(*run) for name, run in SCALING_RUNS.items()}


@settings(derandomize=True, deadline=None)
@example(run="ws200-chebyshev", k=-50)  # consensus_time 0 against 221 under an absolute floor
@example(run="cycle12-constant", k=-50)
@given(run=st.sampled_from(sorted(SCALING_RUNS)), k=st.integers(-60, 60))
def test_measurements_do_not_depend_on_the_scale_of_x0(run, k):
    # The protocol is linear and scaling by a power of two is exact, so every
    # error scales by 2**k bit for bit, and the consensus time and the period
    # ratios, which compare errors with errors, must not move.
    g, seq, x0, steps = SCALING_RUNS[run]
    unscaled = UNSCALED[run]
    scaled = simulate(g, seq, 2.0 ** k * x0, steps)
    assert scaled.errors.tobytes() == (2.0 ** k * unscaled.errors).tobytes()
    assert consensus_time(scaled, 1e-9) == consensus_time(unscaled, 1e-9)
    assert measured_period_ratios(scaled, seq.period) == measured_period_ratios(unscaled, seq.period)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reported_ratios_never_exceed_rate_at_scale(seed):
    # Criterion 07's property on the benchmark's simulate graph: periods whose
    # starting error is round-off are omitted, so no reported ratio exceeds
    # the exact rate.
    g = build_graph("watts_strogatz", n=2000, k=6, p=0.3, seed=seed)
    seq = design_chebyshev(SpectralBand(0.2, 20), 5)
    rho = exact_rate(seq, spectrum(g, vectors=False)).exact_rate
    trace = simulate(g, seq, uniform_initial_states(g.n, seed), 5000)
    ratios = measured_period_ratios(trace, 5)
    assert len(ratios.ratios) + len(ratios.omitted) == 1000
    assert ratios.ratios and max(ratios.ratios) <= rho * (1 + 1e-9)


def test_mean_of_finite_states_does_not_overflow():
    # the sum overflows, so the mean is taken over states scaled by the largest
    trace = simulate(build_graph("path", n=3), ControlSequence((0.25,)),
                     np.array([1.5e308, 1.5e308, 1.0]), 2)  # no RuntimeWarning either
    assert trace.average == pytest.approx(1e308, rel=1e-15)
    assert np.all(np.isfinite(trace.errors))


def test_trace_serialization():
    # the state columns are there exactly when the trace holds the states
    g = build_graph("path", n=3)
    args = (g, ControlSequence((0.25,)), np.array([1.0, 2.0, 6.0]), 2)
    lines = trace_csv_lines(simulate(*args, states=False))
    assert lines[0] == "k,err"
    assert len(lines) == 4
    with_states = trace_csv_lines(simulate(*args))
    assert with_states[0] == "k,err,x_0,x_1,x_2"
    assert with_states[1].startswith("0,")


def test_simulate_without_states_keeps_the_errors_and_n():
    g = build_graph("watts_strogatz", n=30, k=4, p=0.3, seed=2)
    args = (g, design_chebyshev(BAND, 3), uniform_initial_states(g.n, 2), 40)
    full, lean = simulate(*args), simulate(*args, states=False)
    assert lean.states.shape == (0, 30) and not lean.states.flags.writeable
    assert lean.errors.tobytes() == full.errors.tobytes() and lean.average == full.average
    assert measured_period_ratios(lean, 3) == measured_period_ratios(full, 3)
    assert consensus_time(lean, 1e-6) == consensus_time(full, 1e-6)
    assert [line.split(",", 2)[:2] for line in trace_csv_lines(full)] == [
        line.split(",") for line in trace_csv_lines(lean)]


@pytest.mark.parametrize("states", [np.zeros(3), np.zeros((2, 1)), np.zeros((4, 1)),
                                    np.zeros((3, 1, 1))], ids=["1-D", "2-rows", "4-rows", "3-D"])
def test_trace_refuses_states_that_do_not_match_the_errors(states):
    # no state row at all, or one per error; a (0, n) array still carries n
    with pytest.raises(ParameterError, match="states"):
        SimulationTrace(states, np.ones(3), 0.0)


def test_simulate_validates_inputs():
    g = build_graph("path", n=3)
    with pytest.raises(ParameterError):
        simulate(g, ControlSequence((0.25,)), np.ones(4), 2)
    with pytest.raises(ParameterError):
        simulate(g, ControlSequence((0.25,)), np.ones(3), -1)
    for bad in (np.nan, np.inf, -np.inf):  # bad input, not a divergent run
        with pytest.raises(ParameterError, match="finite"):
            simulate(g, ControlSequence((0.25,)), [1.0, bad, 2.0], 2)


@pytest.mark.parametrize("x0", [
    [1.7e308, -1.7e308, 0.0, 0.0, 0.0, 0.0],  # spread and error overflow
    [1e308, -1e308, 0.0, 0.0, 0.0, 0.0],  # spread overflows, error 1.41e308 does not
    [8.9e307] * 3 + [-8.9e307] * 3,  # spread 1.78e308 fits, error 2.18e308 does not
])
def test_simulate_rejects_x0_outside_float_range(x0):
    # finite states whose first neighbor difference or consensus error is not
    # a float are bad input, not a divergent run
    with pytest.raises(ParameterError, match="x0 is out of range"):
        simulate(build_graph("path", n=6), ControlSequence((0.25,)), x0, 2)


def test_check_initial_states_is_the_rule_simulate_applies():
    x = check_initial_states([1, 2.5, 3], 3)
    assert x.dtype == float and x.tolist() == [1.0, 2.5, 3.0]
    for bad, message in [([1.0, 2.0], "length 3"), ([[1.0, 2.0, 3.0]], "length 3"),
                         ([1.0, np.nan, 2.0], "finite"), ([10 ** 400, 1, 2], "finite"),
                         ([1e308, -1e308, 0.0], "out of range")]:
        with pytest.raises(ParameterError, match=message):
            check_initial_states(bad, 3)
        with pytest.raises(ParameterError, match=message):
            simulate(build_graph("path", n=3), ControlSequence((0.25,)), bad, 2)


def _add_at_states(g, seq, x0, steps):
    """Reference stepping: the neighbor update accumulated with np.add.at."""
    iu, ju, w = edge_arrays(g)
    x = np.asarray(x0, dtype=float)
    states = [x]
    for k in range(steps):
        diff = w * (x[ju] - x[iu])
        u = np.zeros_like(x)
        np.add.at(u, iu, diff)
        np.add.at(u, ju, -diff)
        x = x + seq.gain_at(k) * u
        states.append(x)
    return np.array(states)


@pytest.mark.parametrize("family,kwargs,seq,steps", [
    ("random_connected", dict(n=30, p=0.3, seed=4), design_lagrange(BAND, 4), 60),
    ("random_connected", dict(n=97, p=0.08, seed=5), design_chebyshev(BAND, 5), 80),
    ("watts_strogatz", dict(n=200, k=6, p=0.3, seed=6), design_chebyshev(SpectralBand(0.2, 20), 5), 120),
    ("watts_strogatz", dict(n=513, k=4, p=0.1, seed=7), design_constant(BAND), 40),
    ("complete", dict(n=20), design_chebyshev(BAND, 3), 3000),  # diverges to inf and NaN
])
def test_simulate_states_equal_add_at_oracle_bitwise(family, kwargs, seq, steps):
    g = build_graph(family, **kwargs)
    x0 = uniform_initial_states(g.n, 1)
    with np.errstate(all="ignore"):
        expected = _add_at_states(g, seq, x0, steps)
        trace = simulate(g, seq, x0, steps)
        errors = np.linalg.norm(expected - trace.average, axis=1)
    assert trace.states.tobytes() == expected.tobytes()
    # the norm overflows on finite states whose squares do not fit a float;
    # there the trace keeps the finite error, which math.hypot computes too
    overflowed = np.isinf(errors) & np.isfinite(expected).all(axis=1)
    assert trace.errors[~overflowed].tobytes() == errors[~overflowed].tobytes()
    hypot = [math.hypot(*(x - trace.average)) for x in expected[overflowed]]
    assert np.allclose(trace.errors[overflowed], hypot, rtol=1e-14, atol=0.0)
    if family == "complete":
        assert np.flatnonzero(overflowed)[[0, -1]].tolist() == [327, 657]
        assert np.isnan(trace.states[-1]).all() and np.isnan(trace.errors[-1])


def _bincount_sums(g, x):
    """Reference neighbour sums: one bincount over both edge ends, +diff at
    each edge's i and then -diff at its j, in edge order."""
    iu, ju, w = edge_arrays(g)
    diff = w * (x[ju] - x[iu])
    return np.bincount(np.concatenate([iu, ju]), weights=np.concatenate([diff, -diff]),
                       minlength=g.n)


def _bincount_states(g, seq, x0, steps):
    """Reference stepping through ``_bincount_sums``."""
    x = np.asarray(x0, dtype=float)
    states = [x]
    for k in range(steps):
        x = x + seq.gain_at(k) * _bincount_sums(g, x)
        states.append(x)
    return np.array(states)


def _weighted_graph():
    return graph_from_dict(json.loads(WEIGHTED.read_text()))


@pytest.mark.parametrize("graph,seq,steps", [
    (lambda: build_graph("random_connected", n=97, p=0.08, seed=5), design_chebyshev(BAND, 5), 80),
    (lambda: build_graph("watts_strogatz", n=200, k=6, p=0.3, seed=6),
     design_chebyshev(SpectralBand(0.2, 20), 5), 120),
    (lambda: build_graph("star", n=30), design_constant(SpectralBand(0.2, 30)), 50),
    (_weighted_graph, design_lagrange(SpectralBand(0.2, 40), 4), 100),
    (lambda: build_graph("complete", n=20), design_chebyshev(BAND, 3), 3000),  # diverges
], ids=["er97", "ws200", "star30", "weighted24", "complete20"])
def test_simulate_states_equal_bincount_reference_bitwise(graph, seq, steps):
    g = graph()
    x0 = uniform_initial_states(g.n, 1)
    with np.errstate(all="ignore"):
        expected = _bincount_states(g, seq, x0, steps)
        trace = simulate(g, seq, x0, steps)
    assert trace.states.tobytes() == expected.tobytes()
    nan = np.isnan(expected)
    if nan.any():  # the diverging run: NaN of both signs, whose bits are compared too
        assert 0 < np.signbit(expected[nan]).sum() < nan.sum()


def test_neighbour_sums_equal_bincount_reference_on_non_finite_states():
    g = _weighted_graph()
    x = np.random.default_rng(2).normal(0.0, 1e300, g.n)
    x[[0, 3, 7, 11, 16]] = [np.inf, -np.inf, np.nan, -np.nan, np.inf]
    with np.errstate(all="ignore"):
        expected = _bincount_sums(g, x)
        sums = graphs._neighbour_sums(g.n, *edge_arrays(g))(x)
    assert sums.tobytes() == expected.tobytes()
    nan = np.isnan(expected)
    assert 0 < np.signbit(expected[nan]).sum() < nan.sum()


@pytest.mark.parametrize("k", [-60, -27, -3, 2, 7])
def test_edge_list_core_commutes_with_power_of_two_weight_scaling(k):
    # weights times 2**k and gains times 2**-k: every product and sum is
    # scaled exactly, so the states are the same bit for bit and the Lanczos
    # ends and their error are exactly 2**k times the unscaled ones
    base = build_graph("watts_strogatz", n=300, k=6, p=0.3, seed=3)
    i, j, _ = edge_arrays(base)
    w = np.random.default_rng(3).uniform(0.5, 2.0, len(i))
    g, scaled = Graph(base.n, i, j, w), Graph(base.n, i, j, w * 2.0 ** k)
    seq = design_chebyshev(SpectralBand(0.5, 17), 5)
    x0 = uniform_initial_states(g.n, 3)
    expected = simulate(g, seq, x0, 150).states
    unscaled_gains = ControlSequence(tuple(e * 2.0 ** -k for e in seq.gains))
    assert simulate(scaled, unscaled_gains, x0, 150).states.tobytes() == expected.tobytes()
    ends, ends_scaled = graphs.extreme_eigenvalues(g), graphs.extreme_eigenvalues(scaled)
    assert (ends_scaled.lambda_2, ends_scaled.lambda_max, ends_scaled.error) == (
        2.0 ** k * ends.lambda_2, 2.0 ** k * ends.lambda_max, 2.0 ** k * ends.error)


def test_simulate_peak_memory_is_the_states_array():
    g = build_graph("watts_strogatz", n=400, k=6, p=0.3, seed=1)
    seq = design_chebyshev(SpectralBand(0.2, 20), 5)
    x0 = uniform_initial_states(g.n, 1)
    tracemalloc.start()
    try:
        trace = simulate(g, seq, x0, 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * trace.states.nbytes


def test_simulate_without_states_allocates_no_state_rows():
    g = build_graph("watts_strogatz", n=400, k=6, p=0.3, seed=1)
    seq = design_chebyshev(SpectralBand(0.2, 20), 5)
    x0 = uniform_initial_states(g.n, 1)
    tracemalloc.start()
    try:
        trace = simulate(g, seq, x0, 3000, states=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.states.shape == (0, g.n)
    assert peak < 0.01 * 3001 * g.n * 8  # a hundredth of the states array


def test_trace_arrays_are_read_only_and_owned():
    trace = simulate(build_graph("cycle", n=6), design_constant(BAND),
                     uniform_initial_states(6, 2), 4)
    for arr in (trace.states, trace.errors):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    states, errors = np.zeros((3, 2)), np.ones(3)
    view = states.view()
    view.flags.writeable = False  # read-only, but its owner stays writable
    traces = [SimulationTrace(given, errors, 0.0) for given in (states, view)]
    states[:] = errors[:] = 9.0
    for owned in traces:
        assert np.all(owned.states == 0.0) and np.all(owned.errors == 1.0)
        assert not owned.states.flags.writeable and not owned.errors.flags.writeable
