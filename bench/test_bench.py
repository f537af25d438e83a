"""Tests of the benchmark's output checks and span aggregation.

Run from the repository root: python3 -m pytest bench -q
"""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

from click.testing import CliRunner  # noqa: E402

from speccon import cli, filters, graphs  # noqa: E402
from spans import Span, Tracer, aggregate, derive, spans_from_json  # noqa: E402
from workloads import BAND, BAND_ARG, METHODS, check_simulate, check_sweep  # noqa: E402

SWEEP_PERIOD = 5
SWEEP_TRIALS = 4
SIM_STEPS = 200
SIM_NODES = 200


def _closed_rates(period):
    band = graphs.SpectralBand(*BAND)
    return {m: getattr(filters, f"closed_rate_{m}")(band, period) for m in METHODS}


@pytest.fixture(scope="module")
def sweep_csv():
    result = CliRunner().invoke(cli.main, [
        "sweep", "--nodes", "100", "-M", str(SWEEP_PERIOD), "--band", BAND_ARG,
        "--trials", str(SWEEP_TRIALS), "--seed", "3"])
    assert result.exit_code == 0, result.output
    return result.output


@pytest.fixture()
def sim_out(tmp_path):
    out = tmp_path / "out"
    result = CliRunner().invoke(cli.main, [
        "simulate", "--graph", f"ws:{SIM_NODES},6,0.3", "--band", BAND_ARG, "--method",
        "chebyshev", "-M", "5", "--steps", str(SIM_STEPS), "--seed", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return result.output, out


def _check_sim(stdout, out):
    return check_simulate(stdout, out, SIM_STEPS, SIM_NODES, 5)


def test_sweep_check_accepts_real_output(sweep_csv):
    assert check_sweep(sweep_csv, SWEEP_TRIALS, _closed_rates(SWEEP_PERIOD)) == []


def test_sweep_check_rejects_rho_above_closed_rate(sweep_csv):
    rates = _closed_rates(SWEEP_PERIOD)
    lines = sweep_csv.splitlines()
    cells = lines[1].split(",")
    cells[4] = repr(rates["chebyshev"] * 1.001)
    lines[1] = ",".join(cells)
    problems = check_sweep("\n".join(lines) + "\n", SWEEP_TRIALS, rates)
    assert any("rho_chebyshev" in p for p in problems)


def test_sweep_check_rejects_nan_token(sweep_csv):
    lines = sweep_csv.splitlines()
    cells = lines[2].split(",")
    cells[3] = "nan"
    lines[2] = ",".join(cells)
    problems = check_sweep("\n".join(lines) + "\n", SWEEP_TRIALS, _closed_rates(SWEEP_PERIOD))
    assert any("non-finite" in p for p in problems)


def test_sweep_check_rejects_missing_row(sweep_csv):
    lines = sweep_csv.splitlines()
    del lines[2]
    problems = check_sweep("\n".join(lines) + "\n", SWEEP_TRIALS, _closed_rates(SWEEP_PERIOD))
    assert problems


def test_simulate_check_accepts_real_output(sim_out):
    assert _check_sim(*sim_out) == []


def test_simulate_check_rejects_short_trace(sim_out):
    stdout, out = sim_out
    trace = out / "trace.csv"
    trace.write_text("\n".join(trace.read_text().splitlines()[:-1]) + "\n")
    assert any("trace has" in p for p in _check_sim(stdout, out))


def test_simulate_check_rejects_nan_token(sim_out):
    stdout, out = sim_out
    summary = json.loads(stdout)
    summary["average"] = float("nan")
    text = json.dumps(summary, indent=2)
    assert "NaN" in text
    (out / "summary.json").write_text(text + "\n")
    assert any("non-finite" in p for p in _check_sim(text + "\n", out))


def test_simulate_check_rejects_ratio_above_prediction(sim_out):
    stdout, out = sim_out
    summary = json.loads(stdout)
    summary["measured_ratios"][0] = summary["predicted_rate"] * 1.01
    text = json.dumps(summary, indent=2) + "\n"
    (out / "summary.json").write_text(text)
    assert any("above predicted" in p for p in _check_sim(text, out))


def _span(i, name, parent, start, end, thread=1, cpu=0.0):
    return Span(i, name, parent, thread, start, end, cpu)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "b", 1, 2.0, 3.0),
        _span(3, "a", 0, 5.0, 6.0, cpu=0.25),
    ]
    m = aggregate(spans)
    assert m["root.self_s"] == pytest.approx(6.0)
    assert m["a.s"] == pytest.approx(4.0)
    assert m["a.calls"] == 2
    assert m["a.self_s"] == pytest.approx(3.0)
    assert m["b.self_s"] == pytest.approx(1.0)
    assert m["a.offcpu_s"] == pytest.approx(3.75)


def test_self_time_with_overlapping_threaded_children():
    spans = [
        _span(0, "root", None, 0.0, 10.0),
        _span(1, "row", 0, 1.0, 5.0, thread=2),
        _span(2, "row", 0, 3.0, 8.0, thread=3),
        _span(3, "row", 0, 9.0, 12.0, thread=2),  # clipped to the parent's end
    ]
    m = aggregate(spans)
    assert m["root.self_s"] == pytest.approx(10.0 - 7.0 - 1.0)
    assert m["row.self_s"] == pytest.approx(4.0 + 5.0 + 3.0)


def test_percentiles_need_ten_calls_beyond():
    few = aggregate([_span(i, "f", None, 0.0, 0.001 * (i + 1)) for i in range(30)])
    assert few["f.p50_ms"] == pytest.approx(15.0)
    assert not any(k.startswith("f.p9") for k in few)
    many = aggregate([_span(i, "f", None, 0.0, 0.001 * (i + 1)) for i in range(100)])
    assert many["f.p90_ms"] == pytest.approx(90.0)
    assert "f.p99_ms" not in many


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.002))

    def outer():
        time.sleep(0.001)
        inner()
        return threading.get_ident()

    outer = tracer.wrap("outer", outer)
    with tracer.root("cli"):
        with ThreadPoolExecutor(max_workers=3) as pool:
            threads = set(pool.map(lambda _: outer(), range(6)))
    by_id = {s.id: s for s in tracer.spans}
    assert len(threads) > 1
    for s in tracer.spans:
        if s.name == "outer":
            assert s.parent == tracer.root_id
        if s.name == "inner":
            assert by_id[s.parent].name == "outer"
            assert by_id[s.parent].thread == s.thread
    m = aggregate(tracer.spans)
    assert m["outer.calls"] == m["inner.calls"] == 6
    assert m["outer.self_s"] == pytest.approx(m["outer.s"] - m["inner.s"])
    assert 0.0 <= m["cli.self_s"] < m["cli.s"]


def test_traced_cli_names_every_layer(tmp_path):
    """End to end: the traced CLI patches every namespace that looks a name up."""
    spans_path = tmp_path / "spans.json"
    argv = ["simulate", "--graph", "ws:60,4,0.3", "--band", "0.2,20", "--method", "chebyshev",
            "-M", "3", "--steps", "30", "--seed", "1"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    traced = subprocess.run([sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *argv,
                             "--out", str(tmp_path / "traced")],
                            capture_output=True, env=env, timeout=120, check=True)
    plain = subprocess.run([sys.executable, "-m", "speccon.cli", *argv,
                            "--out", str(tmp_path / "plain")],
                           capture_output=True, env=env, timeout=120, check=True)
    assert traced.stdout == plain.stdout
    spans = spans_from_json(json.loads(spans_path.read_text()))
    by_id = {s.id: s for s in spans}
    m = aggregate(spans)
    m.update(derive(m))
    for name in ("graphs.build_graph", "graphs.is_connected", "graphs.laplacian",
                 "graphs.spectrum", "numpy.linalg.eigh", "filters.eval_filter",
                 "rates.exact_rate", "rates.rate_on_eigenvalues", "rates.worst_case_rate",
                 "sim.simulate", "sim.edge_arrays", "sim.trace_csv_lines",
                 "sim.measured_period_ratios", "sim.consensus_time"):
        assert m.get(f"{name}.calls", 0) >= 1, name
    eigh = next(s for s in spans if s.name == "numpy.linalg.eigh")
    assert by_id[eigh.parent].name == "graphs.spectrum"
    assert m["graphs.spectrum.n_cubed"] == 60 ** 3
    assert m["sim.simulate.agent_steps"] == 60 * 30
    assert m["filters.design.calls"] == 1
    assert m["graphs.is_connected.accept_ratio"] == 1.0
