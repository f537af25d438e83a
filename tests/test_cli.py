import ast
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from speccon import build_graph, cli, filters, graph_to_dict, graphs, rates
from speccon.cli import TABLE_METHODS, bundled_spectrum, main, parse_graph_spec

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


def test_version_runs_from_source():
    result = RUN.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert result.stdout.rstrip().endswith("version 0.1.0")


def test_design_usage_errors():
    assert RUN.invoke(main, ["design", "--band", "5,2", "--method", "chebyshev"]).exit_code == 2
    assert RUN.invoke(main, ["design", "--method", "chebyshev"]).exit_code != 0
    assert RUN.invoke(main, ["design", "--band", "1,2", "--method", "nope"]).exit_code == 2
    no_bound = RUN.invoke(main, ["design", "--method", "uniform_unknown", "-M", "4"])
    assert no_bound.exit_code == 2
    assert "requires --beta-bar" in no_bound.stderr


# design, like simulate, refuses a design option its method would leave unread
@pytest.mark.parametrize("args,message", [
    (("--method", "uniform_unknown", "--beta-bar", "10", "--band", "0.2,12.8"), "--band"),
    (("--method", "chebyshev", "--band", "0.2,12.8", "--beta-bar", "10"), "--beta-bar"),
    (("--method", "lagrange", "--band", "0.2,12.8", "--beta-bar", "10", "-M", "3"), "--beta-bar"),
    (("--method", "constant", "--band", "0.2,12.8", "--beta-bar", "10"), "--beta-bar"),
], ids=["uniform-unknown-with-band", "chebyshev-with-beta-bar", "lagrange-with-beta-bar",
        "constant-with-beta-bar"])
def test_design_refuses_unread_options(args, message):
    result = RUN.invoke(main, ["design", *args])
    assert result.exit_code == 2
    assert f"--method {args[1]} cannot be given with {message}" in result.stderr
    assert result.stdout == ""


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
    ("sweep_n600_p004_M5_seed3.csv",
     ("--nodes", "600", "--edge-prob", "0.04", "-M", "5", "--band", "0.2,12.8", "--trials", "3",
      "--seed", "3")),
])
def test_sweep_csv_matches_pinned_output(fixture, args):
    result = invoke("sweep", *args)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / fixture).read_bytes()


@pytest.mark.parametrize("args", [
    ("--nodes", "100", "--edge-prob", "0.08", "-M", "16", "--band", "0.2,12.8",
     "--trials", "20", "--seed", "1"),
    ("--nodes", "300", "-M", "5", "--band", "0.2,12.8", "--trials", "3", "--seed", "2"),
    ("--nodes", "30", "--edge-prob", "0.2", "-M", "5", "--band", "1,12.8", "--trials", "6",
     "--seed", "9"),
    ("--nodes", "60", "--edge-prob", "0.2", "-M", "3", "--band", "0.5,6", "--trials", "6",
     "--seed", "4"),
])
def test_sweep_rescaled_rows_are_rated_by_their_two_extreme_eigenvalues(args):
    # A rescaled row has lambda_N = beta up to its rounding; each band design's
    # |h| then peaks over the spectrum at lambda_2 or lambda_N, bit for bit
    doc = json.loads(invoke("sweep", *args, "--format", "json").stdout)
    band = graphs.SpectralBand(doc["alpha"], doc["beta"])
    rescaled = [row for row in doc["rows"]
                if abs(row["lambda_n"] - band.beta) <= 2 * math.ulp(band.beta)]
    assert rescaled
    for method in TABLE_METHODS:
        seq = cli._sequence(method, band, doc["period"])
        for row in rescaled:
            extremes = [row["lambda2"], row["lambda_n"]]
            expected = rates.rate_on_eigenvalues(seq, extremes, doc["period"]).exact_rate
            assert row[f"rho_{method}"] == expected, (method, row)


# A sweep above the two-eigenvalue threshold, with every row rescaled.
SWEEP_600 = ("--nodes", "600", "--edge-prob", "0.04", "-M", "5", "--band", "0.2,12.8",
             "--trials", "3", "--seed", "3")


def _count_solvers(monkeypatch) -> dict:
    """Counts of the calls to the Lanczos ends and to the dense solver."""
    calls = {"ends": 0, "dense": 0}
    for name, key in (("extreme_eigenvalues", "ends"), ("spectrum", "dense")):
        def counted(*args, original=getattr(graphs, name), key=key, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(graphs, name, counted)
    return calls


def test_sweep_rates_rescaled_rows_from_two_eigenvalues_from_the_threshold(monkeypatch):
    calls = _count_solvers(monkeypatch)
    args = ("--edge-prob", "0.04", "-M", "5", "--trials", "2", "--seed", "3")
    for nodes, path in ((cli.TWO_EIGENVALUE_NODES - 1, "dense"), (cli.TWO_EIGENVALUE_NODES, "ends")):
        calls.update(ends=0, dense=0)
        assert invoke("sweep", "--nodes", str(nodes), *args).exit_code == 0
        assert calls == {"ends": 2 if path == "ends" else 0, "dense": 2 if path == "dense" else 0}


def test_sweep_checks_once_per_run_that_each_method_peaks_at_beta(monkeypatch):
    calls = _count_solvers(monkeypatch)
    checked = []
    original = rates._peaks_at_beta
    monkeypatch.setattr(rates, "_peaks_at_beta",
                        lambda *args: checked.append(args) or original(*args))
    assert invoke("sweep", *SWEEP_600).exit_code == 0
    assert [seq.method for seq, *_ in checked] == list(TABLE_METHODS)
    assert all(original(*args) for args in checked)
    assert calls == {"ends": 3, "dense": 0}
    # one method whose |h| does not peak at beta sends the whole run dense
    monkeypatch.setattr(rates, "_peaks_at_beta", lambda seq, *args: seq.method != "constant")
    calls.update(ends=0, dense=0)
    assert invoke("sweep", *SWEEP_600).exit_code == 0
    assert calls == {"ends": 0, "dense": 3}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_rows_whose_ends_are_not_certified_are_the_dense_rows(monkeypatch, fmt):
    args = (*SWEEP_600, "--format", fmt)
    with monkeypatch.context() as m:
        m.setattr(cli, "TWO_EIGENVALUE_NODES", 10 ** 9)
        dense = invoke("sweep", *args).stdout_bytes
    # a basis cap that no run reaches
    with monkeypatch.context() as m:
        m.setattr(graphs, "LANCZOS_MAX_BASIS", 8)
        assert invoke("sweep", *args).stdout_bytes == dense
    # a second start that lands on another lambda_2
    original = graphs._lanczos_ends

    def disagreeing(product, n, seed, tol):
        low, high = original(product, n, seed, tol)
        return (low + 3.0 * tol if seed == graphs.LANCZOS_SEEDS[1] else low), high
    with monkeypatch.context() as m:
        m.setattr(graphs, "_lanczos_ends", disagreeing)
        assert invoke("sweep", *args).stdout_bytes == dense


def test_sweep_rows_with_lambda_n_not_beyond_beta_by_the_error_are_dense(monkeypatch):
    # Lanczos ends at beta - 1, beta + error and beta + 3·error: only the
    # last is certainly rescaled on the dense path too
    calls = _count_solvers(monkeypatch)
    dense = []
    for offset in (-1.0, 1e-11, 3e-11):
        extremes = graphs.SpectralExtremes(2.5, 12.8 + offset, 600, 1e-11)
        monkeypatch.setattr(graphs, "extreme_eigenvalues",
                            lambda g, e=extremes: calls.update(ends=calls["ends"] + 1) or e)
        calls.update(ends=0, dense=0)
        doc = json.loads(invoke("sweep", *SWEEP_600, "--format", "json").stdout)
        dense.append(calls["dense"])
    assert dense == [3, 3, 0]
    # rated at the rescaled ends
    seq = cli._sequence("chebyshev", graphs.SpectralBand(0.2, 12.8), 5)
    row = doc["rows"][0]
    assert row["lambda_n"] == 12.8 and row["lambda2"] == 12.8 / (12.8 + 3e-11) * 2.5
    assert row["rho_chebyshev"] == rates.rate_on_eigenvalues(
        seq, [row["lambda2"], row["lambda_n"]], 5).exact_rate


def test_sweep_on_the_two_eigenvalue_path_is_deterministic():
    runs = [invoke("sweep", *SWEEP_600, "--format", "json").stdout_bytes for _ in range(2)]
    assert runs[0] == runs[1]


def test_sweep_on_a_large_graph_allocates_no_dense_array(monkeypatch):
    # the dense Laplacian is a mapping and the solver's copy is LAPACK's, which
    # tracemalloc does not see: neither may be reached
    monkeypatch.setattr(graphs, "laplacian", lambda g: pytest.fail("dense Laplacian"))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: pytest.fail("dense solver"))
    # the solver's input is an n x n mapping too; the Lanczos basis has 301 rows
    original = graphs._mapped_zeros
    monkeypatch.setattr(graphs, "_mapped_zeros", lambda rows, n: pytest.fail(
        "n x n mapping") if rows == n else original(rows, n))
    args = ("sweep", "--nodes", "1000", "--trials", "1", "--seed", "1")
    tracemalloc.start()
    try:
        result = invoke(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0 and len(result.stdout.splitlines()) == 2
    assert peak < 1000 * 1000 * 8  # less than one n x n array


def test_sweep_computes_one_worst_case_rate_per_method_and_table3_none(monkeypatch):
    # sweep bounds its in-band rows by each method's worst case over the band
    # widened by the eigenvalue error, computed once per run, before any graph
    calls = []
    original = rates.worst_case_rate
    monkeypatch.setattr(rates, "worst_case_rate",
                        lambda *args: calls.append(args) or original(*args))
    for trials in ("3", "6"):
        calls.clear()
        assert invoke("sweep", "--trials", trials, "--nodes", "30", "--edge-prob", "0.2",
                      "--seed", "9", "-M", "5").exit_code == 0
        assert [(seq.method, steps) for seq, _, steps in calls] == [(m, 5) for m in TABLE_METHODS]
        assert all(b.alpha < 0.2 and b.beta > 12.8 for _, b, _ in calls)
    calls.clear()
    assert invoke("table3").exit_code == 0
    assert calls == []


def test_table3_graph_rows_are_exact_rates(monkeypatch):
    # every cell is one rate_on_eigenvalues call; star, cycle and path take
    # their eigenvalues once each through nonzero_eigenvalues, the one
    # connectivity rule; only the bundled small-world list does not
    calls, spectra = [], []
    original = rates.rate_on_eigenvalues
    monkeypatch.setattr(rates, "rate_on_eigenvalues",
                        lambda *args, **kw: calls.append(args) or original(*args, **kw))
    nonzero = graphs.LaplacianSpectrum.nonzero_eigenvalues
    monkeypatch.setattr(graphs.LaplacianSpectrum, "nonzero_eigenvalues",
                        lambda s: spectra.append(s) or nonzero(s))
    assert invoke("table3", "--periods", "2,3").exit_code == 0
    assert len(calls) == len(cli.TABLE3_GRAPHS) * len(TABLE_METHODS) * 2
    assert len(spectra) == 3


def test_sweep_checks_in_band_rates_against_band_worst_case(monkeypatch):
    # graph 2 of this run is out of band (lambda_2 = 0.109), the rest in band
    args = ["sweep", "--trials", "6", "--nodes", "30", "--edge-prob", "0.1", "--seed", "9",
            "-M", "5"]
    assert invoke(*args).exit_code == 0
    monkeypatch.setattr(rates, "worst_case_rate", lambda *args: 0.0)
    result = RUN.invoke(main, args)
    assert result.exit_code == 1
    assert [line.split(",")[0] for line in result.stdout.splitlines()[1:]] == ["2"]
    failed = result.stderr.splitlines()
    assert [line.split(":")[0] for line in failed] == [f"graph {k}" for k in (0, 1, 3, 4, 5)]
    assert all("exceeds the band worst case 0" in line for line in failed)


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


# A degenerate band fails the closed form and the chebyshev design, and a band
# whose sqrt(beta/alpha) rounds to 1 fails the closed form. Each command
# reports the library error once, as "Error: ...", with exit 1 and nothing on
# stdout.
@pytest.mark.parametrize("args,message", [
    (("table2", "--band", "1,1"), "closed form requires alpha < beta"),
    (("sweep", "--band", "1,1", "--trials", "3", "--nodes", "30", "--edge-prob", "0.2",
      "--seed", "9", "-M", "5"), "chebyshev design requires alpha < beta"),
    (("table2", "--band", "1,1.0000000000000002"), "closed form requires alpha < beta"),
    (("design", "--method", "chebyshev", "--band", "1,1.0000000000000002", "-M", "3"),
     "closed form requires alpha < beta"),
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


# numpy's generators refuse a negative seed: each seeded command refuses it as
# a usage error of --seed before any graph is built
@pytest.mark.parametrize("args", [
    ["sweep", "--trials", "1"],
    ["simulate", "--graph", "path:4", "--method", "constant", "--band", "0.2,4", "--steps", "2"],
    ["graph", "generate", "ws:12,4,0.3"],
    ["graph", "inspect", "ws:12,4,0.3"],
])
def test_a_negative_seed_is_a_usage_error(args, monkeypatch):
    monkeypatch.setattr(graphs, "build_graph", lambda *a, **k: pytest.fail("graph built"))
    result = RUN.invoke(main, [*args, "--seed", "-1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Invalid value for '--seed'" in result.stderr
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


@pytest.mark.parametrize("x0", ["uniform", "worst_eigenvector"])
def test_simulate_overflowing_rate_is_null_without_a_warning(tmp_path, x0):
    # |h| at lambda_N = 2e150 overflows within one period of three gains: the
    # predicted rate is inf, printed as null, and the run diverges
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 2, "edges": [[0, 1, 1e150]]}))
    result = RUN.invoke(main, ["simulate", "--graph", f"file:{path}", "--method", "chebyshev",
                               "--band", "0.2,20", "-M", "3", "--steps", "6", "--seed", "1",
                               "--x0", x0])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert json.loads(result.stdout)["predicted_rate"] is None
    assert result.stderr == ("Error: the run diverged: the consensus error is first non-finite "
                             "at step 3\n")


def test_simulate_zero_factor_after_an_overflow_rates_zero(tmp_path):
    # h(2) = (1 - 2e160)^2 * 0: the first two factors overflow, the third is
    # exactly zero, so the predicted rate is 0, not NaN; the run still diverges
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"gains": [1e160, 1e160, 0.5]}))
    result = RUN.invoke(main, ["simulate", "--graph", "path:2", "--sequence", str(path),
                               "--steps", "3", "--seed", "1"])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    summary = json.loads(result.stdout)
    assert summary["predicted_rate"] == 0.0 and summary["argmax_lambda"] == 2.0
    assert result.stderr == ("Error: the run diverged: the consensus error is first non-finite "
                             "at step 2\n")


# Bands whose beta/alpha overflows: sqrt(beta/alpha) is past 2**54 either way,
# where the closed form's two ratios round to 1, so the Chebyshev rate is 1.
@pytest.mark.parametrize("band", ["1e-300,1e300", "0.2,1e308", "5e-324,1"])
def test_chebyshev_rate_on_a_band_past_the_float_range_is_one(band):
    csv = invoke("table2", "--band", band, "--periods", "2,5")
    assert csv.exit_code == 0
    assert csv.stdout.splitlines()[2] == "chebyshev,1.0000,1.0000"
    doc = json.loads(invoke("table2", "--band", band, "--periods", "2,5", "--format", "json")
                     .stdout, parse_constant=_reject_constant)
    assert doc["rates"]["chebyshev"] == [1.0, 1.0]
    design = invoke("design", "--method", "chebyshev", "--band", band, "-M", "3")
    assert design.exit_code == 0
    assert design.stderr.splitlines()[1] == "worst-case rate (M=3): 1"


def test_closed_forms_on_a_band_whose_sums_overflow_equal_the_unit_band():
    # every closed form depends only on beta/alpha = 1.5; alpha + beta and
    # (M + 1)·alpha overflow on the first band, which printed 0 cells
    tables = [invoke("table2", "--band", band, "--periods", "1,2").stdout.splitlines()[1:]
              for band in ("1e308,1.5e308", "1,1.5")]
    assert tables[0] == tables[1]
    assert tables[1] == ["lagrange,0.2000,0.0357", "chebyshev,0.2000,0.0204",
                         "constant,0.2000,0.0400"]


@pytest.mark.parametrize("method,period", [
    ("constant", "2"), ("chebyshev", "2"), ("chebyshev", "5"), ("lagrange", "5")])
def test_design_on_a_band_whose_sums_overflow_is_the_unit_band_scaled(method, period):
    # alpha + beta, the Chebyshev center and (beta - alpha)·(M + 1) overflow
    # on the first band, which was refused as having gains that are not finite
    results = [invoke("design", "--band", band, "--method", method, "-M", period)
               for band in ("1e308,1.5e308", "1,1.5")]
    assert [r.exit_code for r in results] == [0, 0]
    big, unit = ([float(v) for v in r.stderr.splitlines()[0].split()[1:]] for r in results)
    assert [r / 1e308 for r in big] == pytest.approx(unit, rel=1e-5)
    assert results[0].stderr.splitlines()[1:] == results[1].stderr.splitlines()[1:]
    assert all(0.0 < g < 1e-307 for g in json.loads(results[0].stdout)["gains"])


def test_simulate_in_a_band_up_to_1e308_warns_nothing():
    # the in-band check's worst_case_rate bisects between Chebyshev roots near
    # 1e308, whose sum overflows
    result = invoke("simulate", "--graph", "cycle:8", "--band", "0.2,1e308", "--method",
                    "chebyshev", "-M", "5", "--steps", "20", "--seed", "1")
    assert result.exit_code == 0
    assert result.stderr == ""
    assert json.loads(result.stdout)["predicted_rate"] == 1.0


def test_rate_tables_print_overflowing_cells_as_null():
    # |h| over 400 steps overflows on eigenvalues far above a band [1e-308, 1]:
    # strict JSON prints the cell as null, CSV as inf
    args = ("table3", "--band", "1e-308,1", "--periods", "400")
    doc = json.loads(invoke(*args, "--format", "json").stdout, parse_constant=_reject_constant)
    assert doc["rates"]["star12"] == {m: [None] for m in TABLE_METHODS}
    assert invoke(*args).stdout.splitlines()[1] == "star12,lagrange,inf"


@pytest.mark.parametrize("command", [
    ["graph", "inspect", "--format", "json", "complete:200000"],
    ["simulate", "--method", "constant", "--band", "0.2,12.8", "--steps", "3",
     "--graph", "complete:200000"],
], ids=["inspect", "simulate"])
def test_a_failed_allocation_is_one_error(monkeypatch, command):
    # complete:200000 asks np.triu_indices for a 37.3 GiB mask; stand in for
    # that allocation rather than make it
    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 37.3 GiB")

    monkeypatch.setattr(graphs.np, "triu_indices", allocate)
    result = RUN.invoke(main, command)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == "Error: Unable to allocate 37.3 GiB\n"


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


def test_simulate_reports_round_off_blow_up_above_the_floor():
    # The ascending finite-time gains amplify round-off on path:80: the first
    # period's error grows by about 9.3e20 where the analysis predicts 1.8e-15.
    # That starting error is errors[0] itself, so the round-off floor, which
    # is relative to it, must leave the ratio in the report.
    result = invoke("simulate", "--graph", "path:80", "--method", "finite_time",
                    "--steps", "160", "--seed", "1")
    assert result.exit_code == 0
    summary = json.loads(result.stdout)
    assert summary["predicted_rate"] < 1e-14
    assert summary["measured_ratios"][0] == pytest.approx(9.3e20, rel=0.05)
    assert summary["consensus_time"] is None


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
    # a number is a JSON number, never a string or a bool
    '{"gains": ["0.2", true]}',
    '{"gains": [0.1, 0.2], "band": [true, 12.8]}',
    '{"gains": [0.2], "period": true}',
    pytest.param('{"gains": [' + "9" * 401 + "]}", id="gain-too-large-for-a-float"),
])
def test_simulate_reports_malformed_sequence_file(tmp_path, content):
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(content)
    result = RUN.invoke(main, ["simulate", "--graph", "complete:5", "--sequence", str(seq_path),
                               "--steps", "4"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
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
    # finite states whose spread is not a float, although the protocol settles
    pytest.param("[1.7e308, -1.7e308, 0.0]", id="spread-and-error-out-of-range"),
    pytest.param("[1e308, -1e308, 0.0]", id="spread-out-of-range"),
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
    (("--method", "chebyshev", "--steps", "6"), "chebyshev requires --band"),
    (("--method", "uniform_unknown", "--steps", "6"), "uniform_unknown requires --beta-bar"),
    # --sequence takes the place of the design options; beside it they would go unread
    (("--method", "chebyshev", "--band", "0.2,12.8", "--sequence", "{seq}", "--steps", "4"),
     "--sequence cannot be given with --method, --band"),
    (("--method", "finite_time", "--sequence", "{seq}", "--steps", "4"),
     "--sequence cannot be given with --method"),
    (("--band", "0.2,12.8", "--sequence", "{seq}", "--steps", "4"),
     "--sequence cannot be given with --band"),
    (("--beta-bar", "13", "--sequence", "{seq}", "--steps", "4"),
     "--sequence cannot be given with --beta-bar"),
    (("-M", "9", "--sequence", "{seq}", "--steps", "4"), "--sequence cannot be given with -M"),
    # a method that does not read a design option cannot be given it either;
    # -M has a default, so only an -M on the command line counts
    (("--method", "finite_time", "-M", "3", "--steps", "4"),
     "--method finite_time cannot be given with -M"),
    (("--method", "constant", "--band", "0.2,12.8", "--period", "7", "--steps", "4"),
     "--method constant cannot be given with -M"),
    (("--method", "finite_time", "--band", "0.2,12.8", "-M", "7", "--steps", "4"),
     "--method finite_time cannot be given with --band, -M"),
    (("--method", "uniform_unknown", "--beta-bar", "13", "--band", "0.2,12.8", "--steps", "4"),
     "--method uniform_unknown cannot be given with --band"),
    (("--method", "chebyshev", "--band", "0.2,12.8", "--beta-bar", "99", "--steps", "4"),
     "--method chebyshev cannot be given with --beta-bar"),
    (("--method", "finite_time", "--beta-bar", "99", "--steps", "4"),
     "--method finite_time cannot be given with --beta-bar"),
    # without --out no trace is written, so the states would go unread
    (("--method", "finite_time", "--steps", "4", "--states"), "--states needs --out"),
], ids=["no-method", "x0-mode", "steps-negative", "tol-zero", "tol-negative", "tol-nan",
        "tol-inf", "no-band", "no-beta-bar", "sequence-with-method-and-band",
        "sequence-with-method", "sequence-with-band", "sequence-with-beta-bar",
        "sequence-with-period", "finite-time-with-period", "constant-with-period",
        "finite-time-with-band-and-period", "uniform-unknown-with-band",
        "band-method-with-beta-bar", "finite-time-with-beta-bar", "states-without-out"])
def test_simulate_usage_errors_come_before_the_spectrum(monkeypatch, tmp_path, args, message):
    def no_spectrum(*_args, **_kwargs):
        raise AssertionError("spectrum computed before the arguments were checked")

    def no_graph(*_args, **_kwargs):
        raise AssertionError("graph built before the arguments were checked")

    monkeypatch.setattr(graphs, "spectrum", no_spectrum)
    monkeypatch.setattr(cli, "parse_graph_spec", no_graph)
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"period": 1, "gains": [0.2], "method": "custom", "band": None}))
    args = [str(seq) if a == "{seq}" else a for a in args]
    result = RUN.invoke(main, ["simulate", "--graph", "cycle:12", *args, "--seed", "1"])
    assert result.exit_code == 2
    assert message in result.stderr
    assert result.stdout == ""


# A malformed --sequence or --x0 file fails the run (exit 1) before the
# eigendecomposition, too, and so do initial states of the wrong length or out
# of the float range: they are checked as soon as the graph is built.
@pytest.mark.parametrize("option,content", [
    ("--sequence", "this is not JSON"),
    ("--sequence", '{"gains": [0.1, 0.2], "period": 3}'),
    ("--x0", None),  # no such file
    ("--x0", "this is not JSON"),
    ("--x0", '["a", "b", "c"]'),
    ("--x0", "[1, NaN, 2]"),
    ("--x0", "[" + "9" * 400 + ", 1, 2]"),
    ("--x0", "[1, 2, 3]"),
    ("--x0", json.dumps([1e308, -1e308] + [0.0] * 10)),
], ids=["sequence-not-json", "sequence-period", "x0-missing", "x0-not-json", "x0-strings",
        "x0-nan", "x0-integer-too-large-for-a-float", "x0-wrong-length", "x0-out-of-range"])
def test_simulate_reads_input_files_before_the_spectrum(monkeypatch, tmp_path, option, content):
    def no_spectrum(*_args, **_kwargs):
        raise AssertionError("spectrum computed before the input files were read")

    monkeypatch.setattr(graphs, "spectrum", no_spectrum)
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    source = ["--sequence", str(path)] if option == "--sequence" else \
        ["--method", "finite_time", "--x0", f"file:{path}"]
    result = RUN.invoke(main, ["simulate", "--graph", "cycle:12", "--steps", "6", *source])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("Error: ") and len(result.stderr.splitlines()) == 1


def test_simulate_design_errors_come_before_the_spectrum(monkeypatch):
    def no_spectrum(*_args, **_kwargs):
        raise AssertionError("spectrum computed before the sequence was designed")

    monkeypatch.setattr(graphs, "spectrum", no_spectrum)
    result = RUN.invoke(main, ["simulate", "--graph", "cycle:12", "--band", "1,1", "--method",
                               "chebyshev", "--steps", "6", "--seed", "1"])
    assert result.exit_code == 1
    assert result.stderr == "Error: chebyshev design requires alpha < beta\n"
    assert result.stdout == ""


def test_simulate_designs_finite_time_after_one_spectrum(monkeypatch):
    calls = []
    spectrum, design = graphs.spectrum, filters.design_finite_time
    monkeypatch.setattr(graphs, "spectrum",
                        lambda *args, **kw: calls.append("spectrum") or spectrum(*args, **kw))
    monkeypatch.setattr(filters, "design_finite_time",
                        lambda *args: calls.append("design") or design(*args))
    assert invoke("simulate", "--graph", "path:6", "--method", "finite_time", "--steps", "10",
                  "--seed", "2").exit_code == 0
    assert calls == ["spectrum", "design"]


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


def test_only_simulate_decomposes_with_eigenvectors():
    # simulate --x0 worst_eigenvector reads an eigenvector; every other
    # command reads eigenvalues only
    tree = ast.parse((SRC / "speccon" / "cli.py").read_text(encoding="utf-8"))
    simulate = next(node for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "simulate_cmd")
    inside = {id(node) for node in ast.walk(simulate)}
    outside = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
               and ast.unparse(node.func) == "graphs.spectrum" and id(node) not in inside]
    assert len(outside) == 3  # table3, the sweep row and graph inspect
    for call in outside:
        assert any(k.arg == "vectors" and isinstance(k.value, ast.Constant)
                   and k.value.value is False for k in call.keywords), ast.unparse(call)


def test_every_simulate_call_says_whether_it_records_states():
    # the library records states by default; a command records them only on request
    calls = [node for path in sorted((SRC / "speccon").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "sim.simulate"]
    assert calls
    for call in calls:
        assert any(k.arg == "states" for k in call.keywords), ast.unparse(call)


def test_simulate_without_states_allocates_no_state_rows(tmp_path):
    # ws:200 over 20000 steps: the 32 MB of states that --states would record
    # dwarf the Laplacian and eigh arrays (under 2 MB)
    argv = ["simulate", "--graph", "ws:200,6,0.3", "--method", "chebyshev", "--band", "0.2,20",
            "-M", "5", "--steps", "20000", "--seed", "1", "--out", str(tmp_path)]
    tracemalloc.start()
    try:
        result = invoke(*argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0
    assert (tmp_path / "trace.csv").read_text().startswith("k,err\n0,")
    assert peak < 20001 * 200 * 8


def test_inspect_and_table3_call_no_eigh(monkeypatch):
    path = DATA / "graph_weighted24.json"
    values = graphs.spectrum(parse_graph_spec(f"file:{path}"), vectors=False).eigenvalues

    def eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    assert invoke("table3").exit_code == 0
    assert invoke("graph", "inspect", "ws:200,6,0.3", "--format", "json").exit_code == 0
    result = invoke("graph", "inspect", f"file:{path}", "--format", "csv")
    assert result.exit_code == 0
    assert result.stdout.splitlines() == ["index,eigenvalue"] + [
        f"{i + 1},{cli._fmt6(v)}" for i, v in enumerate(values)]


def test_graph_inspect_rejects_infinite_weight(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": [[0, 1, Infinity], [1, 2, 1.0]]}\n')
    result = RUN.invoke(main, ["graph", "inspect", f"file:{path}", "--format", "json"])
    assert result.exit_code != 0
    assert "NaN" not in result.stdout


# A weighted file graph with non-dyadic weights, one edge given as (j, i) and
# one duplicate whose last weight wins: the degrees summed in edge order fix
# max_degree's last digit (dense row sums would print 28.402).
@pytest.mark.parametrize("args,fixture", [
    (("inspect", "--format", "json"), "graph_weighted24.inspect.stdout.json"),
    (("generate",), "graph_weighted24.generate.stdout.json"),
])
def test_weighted_file_graph_matches_pinned_output(args, fixture):
    command, *options = args
    result = invoke("graph", command, f"file:{DATA / 'graph_weighted24.json'}", *options)
    assert result.exit_code == 0
    assert result.stdout_bytes == (DATA / fixture).read_bytes()


def _weighted_ws300() -> dict:
    """ws:300,6,0.3 (seed 3) with seeded weights uniform in [0.5, 2]."""
    base = build_graph("watts_strogatz", n=300, k=6, p=0.3, seed=3)
    i, j, _ = graphs.edge_arrays(base)
    w = np.random.default_rng(3).uniform(0.5, 2.0, len(i))
    return graph_to_dict(graphs.Graph(base.n, i, j, w))


def test_every_degree_is_the_one_edge_order_sum(monkeypatch):
    # the dense Laplacian's diagonal, the Lanczos operator's degrees and the
    # degrees behind spectrum's max_degree, on non-dyadic weights, where sums
    # in different orders round apart
    inputs = []
    original = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: inputs.append(a.diagonal().copy()) or original(a))
    for doc in (json.loads((DATA / "graph_weighted24.json").read_text()), _weighted_ws300()):
        g = graphs.graph_from_dict(doc)
        s = graphs.spectrum(g, vectors=False)
        dense = np.diag(graphs.laplacian(g))
        assert dense.tobytes() == graphs._laplacian_product(g)[1].tobytes()
        assert dense.tobytes() == inputs[-1].tobytes()
        assert s.max_degree == dense.max()


@pytest.mark.parametrize("k", [-60, -3, 2, 7, 60])
def test_commands_on_file_graphs_commute_with_power_of_two_weight_scaling(tmp_path, k):
    # Every weight and the band times 2**k: the eigenvalues, degrees and weight
    # sums scale exactly and the gains by 2**-k, so the filter and the states
    # are the same bit for bit. LAPACK scales only matrices whose norm is near
    # the ends of the float range, which these are not: a platform on which
    # this fails breaks the relation, and the test must not be loosened.
    scale = 2.0 ** k
    weighted24 = json.loads((DATA / "graph_weighted24.json").read_text())
    for doc in (weighted24, _weighted_ws300()):
        runs = []
        for name, factor in (("base", 1.0), ("scaled", scale)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                {"n": doc["n"], "edges": [[i, j, w * factor] for i, j, w in doc["edges"]]}))
            runs.append((f"file:{path}", factor))
        base, scaled = (json.loads(invoke("graph", "inspect", spec, "--format", "json").stdout)
                        for spec, _ in runs)
        for key in ("lambda_2", "lambda_max", "max_degree", "total_weight"):
            assert scaled[key] == scale * base[key], (doc["n"], key)
        for x0 in ("uniform", "worst_eigenvector"):
            base, scaled = (json.loads(invoke(
                "simulate", "--graph", spec, "--method", "chebyshev",
                "--band", f"{0.05 * factor!r},{40 * factor!r}", "-M", "4", "--steps", "40",
                "--seed", "2", "--x0", x0).stdout) for spec, factor in runs)
            for key in ("predicted_rate", "measured_ratios", "average", "consensus_time"):
                assert scaled[key] == base[key], (doc["n"], x0, key)
            assert scaled["argmax_lambda"] == scale * base["argmax_lambda"], (doc["n"], x0)


@pytest.mark.parametrize("k", [0, -20, -27, -40, -60])
def test_verdicts_on_small_weights_commute_with_power_of_two_weight_scaling(tmp_path, k):
    # star:12 with every weight times 2**k: connectivity and the grouping of
    # equal eigenvalues are relative to lambda_N, so no absolute floor turns
    # the scaled star disconnected (from k = -27 on, lambda_2 = 2**k < 1e-8)
    scale = 2.0 ** k
    star = graph_to_dict(build_graph("star", n=12))
    specs = []
    for name, factor in (("base", 1.0), ("scaled", scale)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(
            {"n": 12, "edges": [[i, j, w * factor] for i, j, w in star["edges"]]}))
        specs.append(f"file:{path}")
    base, scaled = (json.loads(invoke("graph", "inspect", spec, "--format", "json").stdout)
                    for spec in specs)
    assert base["connected"] is scaled["connected"] is True
    for key in ("max_degree", "lambda_2", "lambda_max"):
        assert scaled[key] == scale * base[key], key
    results = [invoke("simulate", "--graph", spec, "--method", "finite_time", "--steps", "4",
                      "--seed", "1") for spec in specs]
    assert [r.exit_code for r in results] == [0, 0], results[1].stderr
    base, scaled = (json.loads(r.stdout) for r in results)
    for key in ("predicted_rate", "measured_ratios", "consensus_time"):
        assert scaled[key] == base[key], key


def test_a_graph_of_subnormal_weights_is_one_error(tmp_path):
    # star:12 with every weight times 2**-1060: its eigenvalues' error bound
    # underflows, so a check fails, as one error and not a traceback
    star = graph_to_dict(build_graph("star", n=12))
    path = tmp_path / "subnormal.json"
    path.write_text(json.dumps(
        {"n": 12, "edges": [[i, j, w * 2.0 ** -1060] for i, j, w in star["edges"]]}))
    result = invoke("simulate", "--graph", f"file:{path}", "--method", "finite_time",
                    "--steps", "4", "--seed", "1")
    assert result.exit_code == 1
    assert result.stderr.startswith("Error: ") and len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("nodes,edge_prob", [("100", "0.08"), ("600", "0.04")],
                         ids=["dense", "lanczos"])
def test_sweep_rows_at_a_borderline_alpha_commute_with_power_of_two_band_scaling(
        nodes, edge_prob):
    # alpha a relative 1e-5 above the row's lambda2: the row is in the band
    # only if the eigenvalue error covers that gap, and the error scales with
    # the band. Sweep graphs have unit weights and are rescaled only down to
    # beta, so the relation holds for k <= 0.
    def rows(*band):
        return json.loads(invoke(
            "sweep", "--nodes", nodes, "--edge-prob", edge_prob, "-M", "5", "--trials", "1",
            "--seed", "3", *band, "--format", "json").stdout)["rows"]
    alpha = rows()[0]["lambda2"] * (1 + 1e-5)
    (base,) = rows("--band", f"{alpha!r},12.8")
    for k in (-27, -60):
        scale = 2.0 ** k
        (row,) = rows("--band", f"{alpha * scale!r},{12.8 * scale!r}")
        for key, value in base.items():
            factor = scale if key in ("lambda2", "lambda_n") else 1.0
            assert row[key] == factor * value, (k, key)


def test_dense_sweep_rows_commute_with_power_of_two_band_scaling():
    # the paper's band times 2**-27 puts every rescaled lambda_2 below 1e-8
    scale = 2.0 ** -27
    base, scaled = (json.loads(invoke(
        "sweep", "--nodes", "100", "--trials", "2", "-M", "3", "--seed", "1", "--band",
        f"{0.2 * factor!r},{12.8 * factor!r}", "--format", "json").stdout)["rows"]
        for factor in (1.0, scale))
    assert len(base) == len(scaled) == 2
    for row, row_scaled in zip(base, scaled):
        for key, value in row.items():
            factor = scale if key in ("lambda2", "lambda_n") else 1.0
            assert row_scaled[key] == factor * value, key


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
    # a number is a JSON number, never a bool or a string
    '{"n": 3, "edges": [[0, 1, 1.0], [true, 2, 1.0]]}',
    '{"n": 3, "edges": [[0, 1, "2.5"], [1, 2, 1.0]]}',
])
def test_graph_inspect_reports_malformed_file(tmp_path, content):
    path = tmp_path / "g.json"
    if content is not None:
        path.write_text(content)
    result = RUN.invoke(main, ["graph", "inspect", f"file:{path}", "--format", "json"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("Error: ") and len(result.stderr.splitlines()) == 1


# Graphs out of numpy's range: too many nodes for an addressable n x n
# Laplacian (refused before the 2**32 uniform states are drawn), or finite
# weights so large that twice ||L||_F^2 overflows (refused by ``laplacian``,
# before any moment of the spectrum is summed, without a numpy warning).
TOO_MANY_NODES = "n={} nodes is too many: numpy cannot address an n x n Laplacian"
TOO_HEAVY_SQUARES = "edge weights are too large: twice ||L||_F^2 is not a finite float"


@pytest.mark.parametrize("command", [
    ["graph", "inspect", "--format", "json"],
    ["simulate", "--method", "constant", "--band", "0.2,12.8", "--steps", "3", "--graph"],
], ids=["inspect", "simulate"])
@pytest.mark.parametrize("doc,message", [
    ({"n": 2 ** 63, "edges": [[0, 1, 1.0]]}, TOO_MANY_NODES.format(2 ** 63)),
    ({"n": 2 ** 32, "edges": [[0, 1, 1.0]]}, TOO_MANY_NODES.format(2 ** 32)),
    # degrees that overflow
    ({"n": 3, "edges": [[0, 1, 1e308], [0, 2, 1e308], [1, 2, 1e308]]}, TOO_HEAVY_SQUARES),
    ({"n": 2, "edges": [[0, 1, 1e308]]}, TOO_HEAVY_SQUARES),
    # finite degrees whose squares, and so ||L||_F^2, overflow
    ({"n": 3, "edges": [[0, 1, 1e160], [0, 2, 1e160], [1, 2, 1e160]]}, TOO_HEAVY_SQUARES),
    ({"n": 2, "edges": [[0, 1, 8e307]]}, TOO_HEAVY_SQUARES),
    # finite degrees whose sum, trace(L), overflows too
    ({"n": 20, "edges": [[k, k + 1, 5e306] for k in range(19)]}, TOO_HEAVY_SQUARES),
    ({"n": 7, "edges": [[i, j, 5e306] for i in range(7) for j in range(i + 1, 7)]},
     TOO_HEAVY_SQUARES),
], ids=["n-2**63", "n-2**32", "triangle-1e308", "edge-1e308", "triangle-1e160", "edge-8e307",
        "path20-5e306", "complete7-5e306"])
def test_graph_file_out_of_range_is_one_error(tmp_path, command, doc, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    result = RUN.invoke(main, [*command, f"file:{path}"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == f"Error: {message}\n"


def test_simulate_refuses_a_huge_graph_before_drawing_its_states(tmp_path, monkeypatch):
    # the uniform states, 80 MB here, are drawn only after the decomposition,
    # which refuses the Laplacian first
    def draw(*args):
        raise AssertionError("uniform states drawn before the decomposition")

    monkeypatch.setattr(cli.sim, "uniform_initial_states", draw)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 10 ** 7, "edges": [[0, 1, 1.0]]}))
    result = RUN.invoke(main, ["simulate", "--method", "constant", "--band", "0.2,12.8",
                               "--steps", "3", "--graph", f"file:{path}"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == ("Error: a dense Laplacian on n=10000000 nodes does not fit in "
                             "memory\n")


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
    band = ["--band", "0.2,12.8"] if method == "chebyshev" else []  # finite_time reads none
    result = RUN.invoke(main, ["simulate", "--graph", f"file:{path}", "--method", method,
                               *band, "--steps", "3"])
    assert result.exit_code == 1
    assert result.stderr == "Error: spectrum is effectively disconnected (lambda_2 = 0.000e+00)\n"


def test_parse_graph_spec_errors():
    with pytest.raises(Exception):
        parse_graph_spec("hexagon:7")
    with pytest.raises(Exception):
        parse_graph_spec("star:many")
    # a wrong parameter count is told in the spec's terms
    for spec, message in (("ws:10,4", "expected 3 parameters (N,K,P), got 2"),
                          ("complete:", "expected 1 parameter (N), got 0"),
                          ("er:10,0.5,3", "expected 2 parameters (N,P), got 3")):
        with pytest.raises(click.BadParameter) as info:
            parse_graph_spec(spec, seed=1)
        assert info.value.message == f"bad graph spec {spec!r}: {message}"
    # the spec list in README is the whole grammar: no long family names
    for spec in ("complete_bipartite:3,4", "watts_strogatz:12,4,0.3", "random_connected:12,0.5"):
        with pytest.raises(Exception, match="unknown graph family"):
            parse_graph_spec(spec, seed=1)


def test_bipartite_spec_is_the_complete_bipartite_family():
    assert graph_to_dict(parse_graph_spec("bipartite:3,4")) == graph_to_dict(
        build_graph("complete_bipartite", m=3, n=4))


def test_readme_spec_list_is_the_spec_grammar():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("\nGraph specs: ", 1)[1].split("This list", 1)[0]
    listed = re.findall(r"`([^`]+)`", paragraph)
    grammar = [f"{kind}:{','.join(params)}" for kind, (_, params) in cli._SPECS.items()]
    assert listed == grammar + ["file:PATH"]


def test_cli_methods_are_the_method_tags():
    assert set(cli.METHODS) | {"custom"} == set(filters.METHOD_TAGS)
    # the band methods are the ones with a closed-form rate
    assert all(hasattr(filters, f"closed_rate_{m}") == (m in TABLE_METHODS) for m in cli.METHODS)


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


# An output that cannot be written is one error after whatever was printed:
# an --out directory that is an existing file, a graph --out that is a
# directory, and simulate's trace.csv, written after summary.json, where a
# directory stands.
@pytest.mark.parametrize("command,blocked", [
    (["table2"], "file"),
    (["table3", "--periods", "2"], "file"),
    (["sweep", "--nodes", "20", "--trials", "2", "--seed", "1"], "file"),
    (["response", "--samples", "3"], "file"),
    (["simulate", "--graph", "star:5", "--method", "constant", "--band", "0.2,12.8",
      "--steps", "3", "--seed", "1"], "file"),
    (["simulate", "--graph", "star:5", "--method", "constant", "--band", "0.2,12.8",
      "--steps", "3", "--seed", "1"], "trace.csv"),
    (["graph", "generate", "star:3"], "dir"),
], ids=["table2", "table3", "sweep", "response", "simulate", "simulate-trace", "generate"])
def test_an_unwritable_output_is_one_error(tmp_path, command, blocked):
    out = tmp_path / "out"
    if blocked == "file":
        out.write_text("taken\n")
    else:
        out.mkdir()
        if blocked == "trace.csv":
            (out / "trace.csv").mkdir()
    result = RUN.invoke(main, [*command, "--out", str(out)])
    assert result.exit_code == 1
    assert not isinstance(result.exception, OSError)
    assert result.stderr.splitlines()[-1].startswith(f"Error: cannot write {out}")


def test_simulate_refuses_an_unwritable_out_before_the_graph(monkeypatch, tmp_path):
    # the --out directory is made before the graph is built, so a run that
    # could not write its outputs does not decompose and step the graph first
    def no_graph(*_args, **_kwargs):
        raise AssertionError("graph built before --out was made")

    monkeypatch.setattr(cli, "parse_graph_spec", no_graph)
    out = tmp_path / "out"
    out.write_text("taken\n")
    result = RUN.invoke(main, ["simulate", "--graph", "ws:2000,6,0.3", "--method", "chebyshev",
                               "--band", "0.2,20", "-M", "5", "--steps", "5000", "--seed", "1",
                               "--out", str(out)])
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1].startswith(f"Error: cannot write {out}")
