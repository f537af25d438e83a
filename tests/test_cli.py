import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from speccon import build_graph, filters, graph_to_dict, graphs, rates
from speccon.cli import bundled_spectrum, main, parse_graph_spec

RUN = CliRunner()
DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"
README = Path(__file__).parents[1] / "README.md"


def invoke(*args, env=None):
    return RUN.invoke(main, list(args), env=env, catch_exceptions=False)


def test_design_chebyshev_json_and_summary():
    result = invoke("design", "--band", "0.2,12.8", "--method", "chebyshev", "-M", "3")
    assert result.exit_code == 0
    doc = json.loads(result.stdout)
    assert doc["period"] == 3
    assert doc["method"] == "chebyshev"
    assert doc["band"] == [0.2, 12.8]
    roots = [1.0 / g for g in doc["gains"]]
    assert np.allclose(roots, [11.956, 6.5, 1.044], atol=5e-4)
    assert "roots: 11.956 6.5 1.04404" in result.stderr
    assert "0.770454" in result.stderr


def test_design_constant():
    result = invoke("design", "--band", "0.2,12.8", "--method", "constant", "-M", "1")
    doc = json.loads(result.stdout)
    assert doc["gains"] == [2.0 / 13.0]


def test_design_usage_errors():
    assert RUN.invoke(main, ["design", "--band", "5,2", "--method", "chebyshev"]).exit_code == 2
    assert RUN.invoke(main, ["design", "--method", "chebyshev"]).exit_code != 0
    assert RUN.invoke(main, ["design", "--band", "1,2", "--method", "nope"]).exit_code == 2
    no_bound = RUN.invoke(main, ["design", "--method", "uniform_unknown", "-M", "4"])
    assert no_bound.exit_code == 2
    assert "requires --beta-bar" in no_bound.stderr


# design stdout and stderr (roots, worst-case rate) and response stdout pinned
# byte for byte: the method dispatch may change, the output may not.
@pytest.mark.parametrize("stem,args", [
    ("design_lagrange_M4", ("--band", "0.2,12.8", "--method", "lagrange", "-M", "4")),
    ("design_chebyshev_M3", ("--band", "0.2,12.8", "--method", "chebyshev", "-M", "3")),
    ("design_constant", ("--band", "0.2,12.8", "--method", "constant")),
    ("design_uniform_unknown_M4", ("--method", "uniform_unknown", "--beta-bar", "10", "-M", "4")),
])
def test_design_matches_pinned_output(stem, args):
    result = invoke("design", *args)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / f"{stem}.stdout.json").read_bytes()
    assert result.stderr_bytes == (DATA / f"{stem}.stderr.txt").read_bytes()


def test_response_matches_pinned_output():
    result = invoke("response", "--methods", "chebyshev,constant", "-M", "5", "--samples", "33")
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / "response_chebyshev_constant_M5_s33.csv").read_bytes()


@pytest.mark.parametrize("args", [
    ("design", "--band", "0.2,12.8", "--method", "chebyshev"),
    ("response",),
    ("sweep", "--trials", "2", "--nodes", "20"),
    ("simulate", "--graph", "star:12", "--band", "0.2,12.8", "--method", "chebyshev",
     "--steps", "5"),
])
def test_period_zero_is_a_usage_error(args):
    result = RUN.invoke(main, [*args, "-M", "0"])
    assert result.exit_code == 2
    assert "--period" in result.stderr


@pytest.mark.parametrize("args", [
    ("table2",), ("table3",), ("design", "--method", "constant"),
])
def test_infinite_band_is_a_usage_error(args):
    result = RUN.invoke(main, [*args, "--band", "1,inf"])
    assert result.exit_code == 2
    assert result.stdout == ""


@pytest.mark.parametrize("command", ["table2", "table3"])
@pytest.mark.parametrize("periods", ["0", "a,b"])
def test_bad_periods_are_a_usage_error(command, periods):
    result = RUN.invoke(main, [command, "--periods", periods])
    assert result.exit_code == 2
    assert "--periods" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("methods", [", ", "", "lagrange,,chebyshev", "lagrange,nope"])
def test_response_rejects_empty_or_unknown_methods(methods):
    result = RUN.invoke(main, ["response", "--methods", methods])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_table2_csv_golden_and_deterministic():
    result = invoke("table2")
    expected = (
        "method,2,3,4,5\n"
        "lagrange,0.9323,0.8925,0.8513,0.8097\n"
        "chebyshev,0.8857,0.7705,0.6455,0.5266\n"
        "constant,0.9394,0.9105,0.8825,0.8553\n"
    )
    assert result.stdout == expected
    assert invoke("table2").stdout == expected


def test_table2_json_and_out_dir(tmp_path):
    result = invoke("table2", "--format", "json", "--out", str(tmp_path))
    doc = json.loads(result.stdout)
    assert doc["periods"] == [2, 3, 4, 5]
    assert doc["rates"]["chebyshev"][0] == 0.8857
    assert json.loads((tmp_path / "table2.json").read_text()) == doc


def test_table3_csv(tmp_path):
    result = invoke("table3", "--out", str(tmp_path))
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "graph,method,2,3,4,5"
    assert len(lines) == 13
    cells = {tuple(line.split(",")[:2]): [float(v) for v in line.split(",")[2:]]
             for line in lines[1:]}
    assert cells[("star12", "lagrange")] == [0.6829, 0.5321, 0.4024, 0.2961]
    assert cells[("star12", "chebyshev")][1] == 0.0327
    assert cells[("smallworld12", "lagrange")][0] == 0.7863
    assert (tmp_path / "table3.csv").read_text() == result.stdout


def test_table3_json_cells_equal_the_csv():
    csv_lines = invoke("table3").stdout.splitlines()[1:]
    doc = json.loads(invoke("table3", "--format", "json").stdout)
    assert doc["periods"] == [2, 3, 4, 5]
    csv_cells = [(g, m, [float(v) for v in cells])
                 for g, m, *cells in (line.split(",") for line in csv_lines)]
    json_cells = [(g, m, doc["rates"][g][m]) for g in doc["rates"] for m in doc["rates"][g]]
    assert json_cells == csv_cells


def test_bundled_spectrum_shape():
    eigs = bundled_spectrum()
    assert eigs.shape == (12,)
    assert eigs[0] == 0.0
    assert np.all(np.diff(eigs) > 0)
    assert eigs[-1] == 7.1909


def test_response_grid():
    result = invoke("response", "--band", "0.2,12.8", "-M", "3", "--samples", "9")
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "lambda,h_lagrange,h_chebyshev,h_constant"
    first = lines[1].split(",")
    assert first[0] == "0" and first[1:] == ["1", "1", "1"]
    assert len(lines) == 10
    last_lambda = float(lines[-1].split(",")[0])
    assert abs(last_lambda - 12.8 * 1.05) <= 1e-9
    assert RUN.invoke(main, ["response", "--samples", "1"]).exit_code == 2


def test_sweep_small_and_deterministic(tmp_path):
    args = ("sweep", "--trials", "4", "--nodes", "30", "--edge-prob", "0.2",
            "--seed", "9", "-M", "5")
    first = invoke(*args)
    second = invoke(*args)
    assert first.exit_code == 0
    assert first.stdout == second.stdout
    lines = first.stdout.strip().splitlines()
    assert lines[0] == "graph_id,lambda2,lambda_n,rho_lagrange,rho_chebyshev,rho_constant"
    assert len(lines) == 5
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert int(fields[0]) == i
        l2, ln, lp, wo, xs = (float(v) for v in fields[1:])
        assert 0.0 < l2 <= ln <= 12.8 + 1e-9
        assert lp < xs


def test_sweep_json_rows_match_the_csv():
    args = ("sweep", "--trials", "6", "--nodes", "30", "--edge-prob", "0.2", "--seed", "9",
            "-M", "5", "--band", "1,12.8")
    csv_lines = invoke(*args).stdout.splitlines()
    doc = json.loads(invoke(*args, "--format", "json").stdout)
    columns = csv_lines[0].split(",")
    assert len(doc["rows"]) == len(csv_lines) - 1 == 6
    band = graphs.SpectralBand(1.0, 12.8)
    for row, line in zip(doc["rows"], csv_lines[1:]):
        assert line == ",".join(str(row[c]) if c == "graph_id" else f"{row[c]:.6g}"
                                for c in columns)
        s = graphs.LaplacianSpectrum(np.array([0.0, row["lambda2"], row["lambda_n"]]), None,
                                     row["lambda_n"])
        assert row["in_band"] is graphs.band_contains(s, band)
    assert {row["in_band"] for row in doc["rows"]} == {True, False}


# Sweep stdout pinned byte for byte: the CLI's determinism contract holds across
# changes to how the spectrum is computed.
@pytest.mark.parametrize("fixture,args", [
    ("sweep_n100_p008_M16_seed1.csv",
     ("--nodes", "100", "--edge-prob", "0.08", "-M", "16", "--band", "0.2,12.8",
      "--trials", "20", "--seed", "1")),
    ("sweep_n300_M5_seed2.csv",
     ("--nodes", "300", "-M", "5", "--band", "0.2,12.8", "--trials", "3", "--seed", "2")),
])
def test_sweep_csv_matches_pinned_output(fixture, args):
    result = invoke("sweep", *args)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / fixture).read_bytes()


def test_sweep_and_table3_compute_no_worst_case_rate(monkeypatch):
    calls = []
    original = rates.worst_case_rate
    monkeypatch.setattr(rates, "worst_case_rate",
                        lambda *args: calls.append(args) or original(*args))
    assert invoke("sweep", "--trials", "3", "--nodes", "30", "--edge-prob", "0.2",
                  "--seed", "9", "-M", "5").exit_code == 0
    assert invoke("table3").exit_code == 0
    assert calls == []


def test_simulate_checks_rate_against_band_worst_case(monkeypatch):
    args = ("simulate", "--graph", "star:12", "--band", "0.2,12.8", "--method", "chebyshev",
            "-M", "3", "--steps", "6", "--seed", "1")
    calls = []
    original = rates.worst_case_rate
    monkeypatch.setattr(rates, "worst_case_rate",
                        lambda *args: calls.append(args) or original(*args))
    assert invoke(*args).exit_code == 0
    assert len(calls) == 1
    monkeypatch.setattr(rates, "worst_case_rate", lambda *args: 0.0)
    result = RUN.invoke(main, list(args))
    assert result.exit_code == 1
    assert "exceeds the band worst case" in result.stderr
    # Out of band the bound does not apply, so it is not checked.
    assert invoke("simulate", "--graph", "star:12", "--band", "1,5", "--method", "chebyshev",
                  "-M", "3", "--steps", "6", "--seed", "1").exit_code == 0
    # star:12 has lambda_2 = 1 up to round-off (0.9999999999999986), which
    # band_contains counts as inside [1, 12], as sweep's in_band does.
    calls.clear()
    monkeypatch.setattr(rates, "worst_case_rate",
                        lambda *args: calls.append(args) or original(*args))
    assert invoke("simulate", "--graph", "star:12", "--band", "1,12", "--method", "lagrange",
                  "-M", "3", "--steps", "6", "--seed", "1").exit_code == 0
    assert len(calls) == 1


def test_sweep_reports_generation_failures_nonzero():
    result = RUN.invoke(main, ["sweep", "--trials", "2", "--nodes", "40",
                               "--edge-prob", "0.000001", "--seed", "1"])
    assert result.exit_code == 1
    assert "graph 0:" in result.stderr
    assert result.stdout.startswith("graph_id,")


# A degenerate band fails the closed form and the chebyshev design. Each
# command reports the library error once, as "Error: ...", with exit 1 and
# nothing on stdout.
@pytest.mark.parametrize("args,message", [
    (("table2", "--band", "1,1"), "closed form requires alpha < beta"),
    (("sweep", "--band", "1,1", "--trials", "3", "--nodes", "30", "--edge-prob", "0.2",
      "--seed", "9", "-M", "5"), "chebyshev design requires alpha < beta"),
])
def test_degenerate_band_reports_error(args, message):
    result = RUN.invoke(main, list(args))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"Error: {message}\n"
    assert result.stdout == ""


@pytest.mark.parametrize("args", [
    ("--nodes", "1"), ("--edge-prob", "0"), ("--edge-prob", "nan"),
])
def test_bad_sweep_arguments_are_a_usage_error(args):
    result = RUN.invoke(main, ["sweep", "--trials", "3", *args])
    assert result.exit_code == 2
    assert args[0] in result.stderr
    assert result.stdout == ""


def test_sweep_designs_once_per_run(monkeypatch):
    calls = []
    original = filters.design_chebyshev
    monkeypatch.setattr(filters, "design_chebyshev",
                        lambda *args: calls.append(args) or original(*args))
    assert invoke("sweep", "--trials", "5", "--nodes", "30", "--edge-prob", "0.2",
                  "--seed", "9", "-M", "5").exit_code == 0
    assert len(calls) == 1
    calls.clear()
    assert invoke("table3", "--periods", "2,3").exit_code == 0
    assert len(calls) == 2  # once per period, not once per graph


def test_simulate_star_chebyshev(tmp_path):
    result = invoke("simulate", "--graph", "star:12", "--band", "0.2,12.8",
                    "--method", "chebyshev", "-M", "3", "--x0", "uniform",
                    "--steps", "30", "--seed", "1", "--out", str(tmp_path))
    summary = json.loads(result.stdout)
    assert summary["period"] == 3
    assert summary["predicted_rate"] == pytest.approx(0.0327073287, abs=1e-9)
    trace_lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "k,err"
    assert len(trace_lines) == 32
    errs = [float(line.split(",")[1]) for line in trace_lines[1:]]
    # contraction bound applies while the error is above round-off noise
    for j, ratio in enumerate(summary["measured_ratios"]):
        if errs[3 * j] >= 1e-9 * errs[0]:
            assert ratio <= 0.0328 + 1e-9
    assert json.loads((tmp_path / "summary.json").read_text()) == summary


def test_simulate_byte_deterministic(tmp_path):
    args = ("simulate", "--graph", "er:20,0.3", "--band", "0.2,12.8", "--method",
            "lagrange", "-M", "2", "--steps", "8", "--seed", "11", "--states")
    first = invoke(*args, "--out", str(tmp_path / "a"))
    second = invoke(*args, "--out", str(tmp_path / "b"))
    assert first.stdout == second.stdout
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()


# simulate stdout, summary.json and trace.csv pinned byte for byte: the step
# kernel and the consensus-error computation may change, the output may not.
@pytest.mark.parametrize("stem,args", [
    ("sim_ws300_seed3_states",
     ("--graph", "ws:300,6,0.3", "--band", "0.2,20", "--method", "chebyshev", "-M", "5",
      "--steps", "400", "--seed", "3", "--states")),
    ("sim_path20_finite_time_seed1",
     ("--graph", "path:20", "--method", "finite_time", "--steps", "60", "--seed", "1")),
])
def test_simulate_matches_pinned_output(tmp_path, stem, args):
    result = invoke("simulate", *args, "--out", str(tmp_path))
    assert result.exit_code == 0
    expected = (DATA / f"{stem}.stdout.json").read_bytes()
    assert result.stdout_bytes == expected
    assert (tmp_path / "summary.json").read_bytes() == expected
    assert (tmp_path / "trace.csv").read_bytes() == (DATA / f"{stem}.trace.csv").read_bytes()


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def test_simulate_divergent_run_is_reported_as_failure(tmp_path):
    # complete:20 has lambda_N = 20 > beta, so the predicted rate is about 25
    # and the errors overflow: the run must not pass for a success.
    args = ["simulate", "--graph", "complete:20", "--band", "0.2,12.8", "--method",
            "chebyshev", "-M", "3", "--steps", "3000", "--seed", "1", "--states",
            "--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "speccon.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    summary = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert (tmp_path / "summary.json").read_text(encoding="utf-8") == proc.stdout
    assert summary["consensus_time"] is None
    assert summary["predicted_rate"] > 1.0
    assert None in summary["measured_ratios"]
    rows = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 3001
    first = next(k for k, row in enumerate(rows) if not math.isfinite(float(row.split(",")[1])))
    # the error turns non-finite with the first non-finite state, not when the
    # squared deviations of finite states overflow (from step 327 on)
    assert first == next(k for k, row in enumerate(rows)
                         if not all(math.isfinite(float(v)) for v in row.split(",")[2:]))
    assert first == 657
    # one line naming the first non-finite step, and no numpy RuntimeWarnings
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert f"step {first}" in lines[0] and "diverged" in lines[0]
    # A finite out-of-band run is no failure.
    oob = invoke("simulate", "--graph", "star:12", "--band", "1,5", "--method", "chebyshev",
                 "-M", "3", "--steps", "30", "--seed", "1")
    assert oob.exit_code == 0
    assert oob.stderr == ""
    assert json.loads(oob.stdout, parse_constant=_reject_constant)["predicted_rate"] == 39.0


def test_simulate_finite_states_with_overflowing_squares_converge(tmp_path):
    # deviations near 1e200 square past the float range, but every state is finite
    path = tmp_path / "big.json"
    path.write_text(json.dumps([1e200] + [0.0] * 11))
    result = invoke("simulate", "--graph", "cycle:12", "--method", "finite_time", "--steps", "8",
                    "--x0", f"file:{path}", "--out", str(tmp_path))
    assert result.exit_code == 0
    assert result.stderr == ""
    assert json.loads(result.stdout)["consensus_time"] == 6
    rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    errors = [float(row.split(",")[1]) for row in rows]
    assert errors[0] == pytest.approx(1e200 * math.sqrt(132) / 12, rel=1e-5)
    assert all(math.isfinite(e) for e in errors)


def test_simulate_finite_states_with_overflowing_mean_converge(tmp_path):
    # the sum of these finite states overflows, but their mean is finite
    path = tmp_path / "huge.json"
    path.write_text(json.dumps([1.5e308, 1.5e308, 1.0]))
    result = invoke("simulate", "--graph", "path:3", "--band", "0.5,3", "--method", "chebyshev",
                    "-M", "2", "--steps", "4", "--x0", f"file:{path}")
    assert result.exit_code == 0
    assert result.stderr == ""
    summary = json.loads(result.stdout)
    assert summary["average"] == pytest.approx(1e308, rel=1e-15)
    assert len(summary["measured_ratios"]) == 2
    assert all(r <= summary["predicted_rate"] + 1e-9 for r in summary["measured_ratios"])


def test_simulate_finite_time_consensus_times():
    result = invoke("simulate", "--graph", "complete:5", "--method", "finite_time",
                    "--steps", "3", "--seed", "2")
    assert json.loads(result.stdout)["consensus_time"] == 1
    result = invoke("simulate", "--graph", "path:6", "--method", "finite_time",
                    "--steps", "10", "--seed", "2")
    assert json.loads(result.stdout)["consensus_time"] == 5


def test_simulate_worst_eigenvector_attains_rate():
    result = invoke("simulate", "--graph", "cycle:12", "--band", "0.2,12.8",
                    "--method", "lagrange", "-M", "3", "--x0", "worst_eigenvector",
                    "--steps", "6")
    summary = json.loads(result.stdout)
    assert summary["measured_ratios"][0] == pytest.approx(summary["predicted_rate"], abs=1e-9)


def test_simulate_measures_every_whole_period():
    for steps in (0, 2, 3, 5, 6):
        result = invoke("simulate", "--graph", "star:12", "--band", "0.2,12.8", "--method",
                        "chebyshev", "-M", "3", "--steps", str(steps), "--seed", "1")
        assert result.exit_code == 0
        summary = json.loads(result.stdout)
        measured, omitted = summary["measured_ratios"], summary["omitted_periods"]
        assert len(measured) + len(omitted) == steps // 3
        assert all(r <= summary["predicted_rate"] + 1e-9 for r in measured)


def test_simulate_with_sequence_file(tmp_path):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps({"period": 1, "gains": [0.2], "method": "custom", "band": None}))
    result = invoke("simulate", "--graph", "complete:5", "--sequence", str(seq_path),
                    "--steps", "4", "--seed", "0")
    assert json.loads(result.stdout)["consensus_time"] == 1


@pytest.mark.parametrize("content", [
    "this is not JSON",
    '{"gains": [0.1, 0.2], "period": "x"}',
    '{"gains": [0.1, 0.2], "period": 2.5}',
    '{"gains": [0.1, 0.2], "band": [1]}',
])
def test_simulate_reports_malformed_sequence_file(tmp_path, content):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(content)
    result = RUN.invoke(main, ["simulate", "--graph", "complete:5", "--sequence", str(seq_path),
                               "--steps", "4"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Error: ") and len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("content", [
    None,  # no such file
    "this is not JSON",
    '["a", "b", "c"]',
    '{"x": 1}',
    '["1", "2", "3"]',
    "[true, false, true]",
    pytest.param("[" + "9" * 400 + ", 1, 2]", id="integer-too-large-for-a-float"),
    "[1, NaN, 2]",  # bad input, not a divergent run
])
def test_simulate_reports_malformed_x0_file(tmp_path, content):
    x0_path = tmp_path / "x0.json"
    if content is not None:
        x0_path.write_text(content)
    result = RUN.invoke(main, ["simulate", "--graph", "cycle:3", "--method", "finite_time",
                               "--steps", "2", "--x0", f"file:{x0_path}"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("Error: ") and len(result.stderr.splitlines()) == 1
    assert "diverged" not in result.stderr


def test_simulate_with_x0_file(tmp_path):
    x0_path = tmp_path / "x0.json"
    x0_path.write_text(json.dumps([4.0, 4.0, 4.0]))
    result = invoke("simulate", "--graph", "cycle:3", "--method", "finite_time",
                    "--steps", "2", "--x0", f"file:{x0_path}")
    summary = json.loads(result.stdout)
    assert summary["average"] == 4.0
    assert summary["consensus_time"] == 0
    bad = RUN.invoke(main, ["simulate", "--graph", "cycle:3", "--method", "finite_time",
                            "--steps", "2", "--x0", "sideways"])
    assert bad.exit_code == 2


# Each bad simulate argument is a usage error (exit 2) found before the
# eigendecomposition, which is the costly step of a large run.
@pytest.mark.parametrize("args,message", [
    (("--band", "0.2,12.8", "--steps", "6"), "provide --method or --sequence"),
    (("--method", "finite_time", "--steps", "6", "--x0", "sideways"), "unknown x0 mode"),
    (("--method", "finite_time", "--steps", "-1"), "--steps"),
    (("--method", "finite_time", "--steps", "6", "--tol", "0"), "--tol"),
    (("--method", "finite_time", "--steps", "6", "--tol", "-1"), "--tol"),
    (("--method", "finite_time", "--steps", "6", "--tol", "nan"), "--tol"),
    (("--method", "finite_time", "--steps", "6", "--tol", "inf"), "--tol"),
], ids=["no-method", "x0-mode", "steps-negative", "tol-zero", "tol-negative", "tol-nan",
        "tol-inf"])
def test_simulate_usage_errors_come_before_the_spectrum(monkeypatch, args, message):
    def no_spectrum(*_args, **_kwargs):
        raise AssertionError("spectrum computed before the arguments were checked")

    monkeypatch.setattr(graphs, "spectrum", no_spectrum)
    result = RUN.invoke(main, ["simulate", "--graph", "cycle:12", *args, "--seed", "1"])
    assert result.exit_code == 2
    assert message in result.stderr
    assert result.stdout == ""


# A malformed --sequence or --x0 file fails the run (exit 1) before the
# eigendecomposition, too; a wrong number of states is found later, by sim.
@pytest.mark.parametrize("option,content", [
    ("--sequence", "this is not JSON"),
    ("--sequence", '{"gains": [0.1, 0.2], "period": 3}'),
    ("--x0", None),  # no such file
    ("--x0", "this is not JSON"),
    ("--x0", '["a", "b", "c"]'),
    ("--x0", "[1, NaN, 2]"),
    ("--x0", "[" + "9" * 400 + ", 1, 2]"),
], ids=["sequence-not-json", "sequence-period", "x0-missing", "x0-not-json", "x0-strings",
        "x0-nan", "x0-integer-too-large-for-a-float"])
def test_simulate_reads_input_files_before_the_spectrum(monkeypatch, tmp_path, option, content):
    def no_spectrum(*_args, **_kwargs):
        raise AssertionError("spectrum computed before the input files were read")

    monkeypatch.setattr(graphs, "spectrum", no_spectrum)
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    value = str(path) if option == "--sequence" else f"file:{path}"
    result = RUN.invoke(main, ["simulate", "--graph", "cycle:12", "--method", "finite_time",
                               "--steps", "6", option, value])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("Error: ") and len(result.stderr.splitlines()) == 1


def test_graph_generate_and_inspect(tmp_path):
    out = tmp_path / "ws.json"
    result = invoke("graph", "generate", "ws:12,4,0.3", "--seed", "7", "--out", str(out))
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc == graph_to_dict(build_graph("watts_strogatz", n=12, k=4, p=0.3, seed=7))

    inspect = invoke("graph", "inspect", f"file:{out}", "--format", "json")
    info = json.loads(inspect.stdout)
    assert info["n"] == 12 and info["connected"]

    csv = invoke("graph", "inspect", "star:12", "--format", "csv")
    lines = csv.stdout.strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 13
    assert [float(line.split(",")[1]) for line in lines[1:]] == pytest.approx(
        [0.0] + [1.0] * 10 + [12.0], abs=1e-6)


def test_graph_inspect_rejects_infinite_weight(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1, Infinity], [1, 2, 1.0]]}\n')
    result = RUN.invoke(main, ["graph", "inspect", f"file:{path}", "--format", "json"])
    assert result.exit_code != 0
    assert "NaN" not in result.stdout


# A weighted file graph with non-dyadic weights, one edge given as (j, i) and
# one duplicate whose last weight wins: the dense row sums fix max_degree's
# last digit (a bincount over the edges would print 28.402000000000005).
@pytest.mark.parametrize("args,fixture", [
    (("inspect", "--format", "json"), "graph_weighted24.inspect.stdout.json"),
    (("generate",), "graph_weighted24.generate.stdout.json"),
])
def test_weighted_file_graph_matches_pinned_output(args, fixture):
    command, *options = args
    result = invoke("graph", command, f"file:{DATA / 'graph_weighted24.json'}", *options)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / fixture).read_bytes()


@pytest.mark.parametrize("content", [
    '{"n": -1, "edges": []}',
    '{"n": 3, "edges": [[0, 1, "x"]]}',
    "this is not JSON",
    None,  # no such file
    '{"n": 1, "edges": []}',
    '{"n": 3.7, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}',
    '{"n": 3, "edges": [[0.9, 1.2, 1.0], [1, 2, 1.0]]}',
    '{"n": 100000000, "edges": [[0, 1, 1.0]]}',  # its dense Laplacian needs 71 PiB
    '{"n": Infinity, "edges": []}',
    '{"n": 3, "edges": [[0, 1]]}',
])
def test_graph_inspect_reports_malformed_file(tmp_path, content):
    path = tmp_path / "g.json"
    if content is not None:
        path.write_text(content)
    result = RUN.invoke(main, ["graph", "inspect", f"file:{path}", "--format", "json"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Error: ") and len(result.stderr.splitlines()) == 1


def test_simulate_rejects_one_node_graph(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 1, "edges": []}')
    result = RUN.invoke(main, ["simulate", "--graph", f"file:{path}", "--method", "finite_time",
                               "--steps", "3"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith("Error: ")


@pytest.mark.parametrize("method", ["finite_time", "chebyshev"])
def test_simulate_disconnected_graph_is_one_error(tmp_path, method):
    path = tmp_path / "g.json"
    path.write_text('{"n": 4, "edges": [[0, 1, 1.0], [2, 3, 1.0]]}')
    result = RUN.invoke(main, ["simulate", "--graph", f"file:{path}", "--method", method,
                               "--band", "0.2,12.8", "--steps", "3"])
    assert result.exit_code == 1
    assert result.stderr == "Error: spectrum is effectively disconnected (lambda_2 = 0.000e+00)\n"


def test_parse_graph_spec_errors():
    with pytest.raises(Exception):
        parse_graph_spec("hexagon:7")
    with pytest.raises(Exception):
        parse_graph_spec("star:many")
    # the spec list in README is the whole grammar: no long family names
    for spec in ("complete_bipartite:3,4", "watts_strogatz:12,4,0.3", "random_connected:12,0.5"):
        with pytest.raises(Exception, match="unknown graph family"):
            parse_graph_spec(spec, seed=1)


def test_bipartite_spec_is_the_complete_bipartite_family():
    assert graph_to_dict(parse_graph_spec("bipartite:3,4")) == graph_to_dict(
        build_graph("complete_bipartite", m=3, n=4))


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "speccon.cli", "table2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("method,2,3,4,5")


def _readme_cli_commands() -> list[list[str]]:
    """The arguments of each ``speccon`` line in README's CLI block, in order."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("speccon ")]


def test_readme_cli_commands_run(tmp_path, monkeypatch):
    # run in order: `graph inspect file:g.json` reads the file the line before writes
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_commands()
    assert len(commands) == 9
    for argv in commands:
        result = RUN.invoke(main, argv)
        assert result.exit_code == 0, (argv, result.output)
