"""Command-line front end: protocol design, rate tables, simulations, sweeps.

All commands are seeded and byte-deterministic for fixed inputs on a fixed
numpy/BLAS build and BLAS thread count. Tables are rounded to 4 decimals;
other CSV output carries 6 significant digits.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from . import filters, graphs, rates, sim
from .errors import NumericalError, ParameterError, SpecconError

# Band methods, compared in the rate tables, the sweep and the response plot.
TABLE_METHODS = ("lagrange", "chebyshev", "constant")
METHODS = TABLE_METHODS + ("uniform_unknown", "finite_time")


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def _parse_band(_ctx, _param, value) -> graphs.SpectralBand | None:
    if value is None:
        return None
    try:
        alpha, beta = (float(p) for p in value.split(","))
        return graphs.SpectralBand(alpha, beta)
    except (ValueError, SpecconError) as exc:
        raise click.BadParameter(f"expected 'alpha,beta' with 0 < alpha <= beta: {exc}")


def _parse_methods(_ctx, _param, value) -> list[str]:
    names = [m.strip() for m in value.split(",")]
    if not all(m in TABLE_METHODS for m in names):
        raise click.BadParameter(
            f"expected a comma-separated subset of {','.join(TABLE_METHODS)}, got {value!r}")
    return names


def _parse_tol(_ctx, _param, value) -> float:
    if not 0.0 < value < math.inf:  # also rejects NaN
        raise click.BadParameter(f"expected a finite positive tolerance, got {value}")
    return value


def _parse_edge_prob(_ctx, _param, value) -> float:
    if not 0.0 < value <= 1.0:  # also rejects NaN
        raise click.BadParameter(f"expected a probability in (0, 1], got {value}")
    return value


def _parse_periods(_ctx, _param, value) -> tuple[int, ...]:
    try:
        periods = tuple(int(p) for p in value.split(","))
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}")
    if not periods or any(m < 1 for m in periods):
        raise click.BadParameter("periods must be positive integers")
    return periods


def _read_json(path, what: str):
    """The JSON document in ``path``; an unreadable or non-JSON file is a ParameterError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read {what} file {path}: {exc}") from exc


def parse_graph_spec(spec: str, seed: int | None = None) -> graphs.Graph:
    """Build or load a graph from a compact spec string.

    Forms: complete:N, star:N, cycle:N, path:N, bipartite:M,N,
    ws:N,K,P (Watts-Strogatz), er:N,P (connected Erdos-Renyi), file:PATH.
    """
    kind, _, arg = spec.partition(":")
    if kind == "file":
        return graphs.graph_from_dict(_read_json(arg, "graph"))
    try:
        parts = arg.split(",") if arg else []
        if kind in ("complete", "star", "cycle", "path"):
            (n,) = parts
            return graphs.build_graph(kind, n=int(n))
        if kind == "bipartite":
            m, n = parts
            return graphs.build_graph("complete_bipartite", m=int(m), n=int(n))
        if kind == "ws":
            n, k, p = parts
            return graphs.build_graph("watts_strogatz", n=int(n), k=int(k), p=float(p), seed=seed)
        if kind == "er":
            n, p = parts
            return graphs.build_graph("random_connected", n=int(n), p=float(p), seed=seed)
    except ValueError as exc:
        raise click.BadParameter(f"bad graph spec {spec!r}: {exc}")
    raise click.BadParameter(f"unknown graph family in spec {spec!r}")


def bundled_spectrum() -> np.ndarray:
    """Small-world eigenvalue list shipped with the package (ascending, includes 0)."""
    doc = _read_json(Path(__file__).with_name("data") / "smallworld12.json", "spectrum")
    return np.asarray(doc["eigenvalues"], dtype=float)


def _sequence(method: str, band: graphs.SpectralBand | None, period: int,
              beta_bar: float | None = None,
              s: graphs.LaplacianSpectrum | None = None) -> filters.ControlSequence:
    """The method's gain sequence for period M.

    finite_time reads the spectrum ``s``, uniform_unknown needs ``beta_bar``
    and the other methods the band. Methods are compared over M steps, which
    is not ``seq.period`` for the period-1 constant sequence, so callers pass
    M itself as the step count.
    """
    if method == "finite_time":
        return filters.design_finite_time(graphs.distinct_nonzero_eigenvalues(s))
    if method == "uniform_unknown":
        if beta_bar is None:
            raise click.BadParameter("uniform_unknown requires --beta-bar")
        return filters.design_uniform_unknown(beta_bar, period)
    if band is None:
        raise click.BadParameter(f"{method} requires --band")
    if method == "constant":
        return filters.design_constant(band)
    return getattr(filters, f"design_{method}")(band, period)


def _closed_rate(method: str, band: graphs.SpectralBand, period: int) -> float:
    """Closed-form worst-case rate over the band of a ``TABLE_METHODS`` design."""
    return getattr(filters, f"closed_rate_{method}")(band, period)


def _load_states(path) -> np.ndarray:
    """Initial states from a JSON list of finite numbers; anything else is a ParameterError."""
    doc = _read_json(path, "initial states")
    if isinstance(doc, list) and all(type(v) in (int, float) for v in doc):
        try:
            x = np.array([float(v) for v in doc])
        except OverflowError:  # an integer too large for a float
            x = np.array([math.inf])
        if np.all(np.isfinite(x)):
            return x
    raise ParameterError(f"initial states file {path} must hold a JSON list of finite numbers")


def _finite_or_null(value):
    """``value`` with every non-finite float, nested in lists and dicts, as None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return value


def _emit(lines: list[str], out: Path | None, filename: str) -> None:
    text = "\n".join(lines) + "\n"
    click.echo(text, nl=False)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / filename).write_text(text, encoding="utf-8")


seed_option = click.option("--seed", type=int, default=None, help="Seed for random draws.")
format_option = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                             default="csv", show_default=True, help="Output format.")
out_option = click.option("--out", type=click.Path(path_type=Path), default=None,
                          help="Directory to write output files into.")


# The band of the paper's rate tables, the default where a command needs one.
PAPER_BAND = "0.2,12.8"


def _band_option(default: str | None = None):
    return click.option("--band", callback=_parse_band, default=default,
                        help="Uncertainty interval 'alpha,beta'.")


def _period_option(default: int):
    return click.option("-M", "--period", "period", type=click.IntRange(min=1), default=default,
                        show_default=True)


class _Commands(click.Group):
    """Reports a library error from any subcommand as ``Error: <message>``, exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SpecconError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
@click.version_option()
def main():
    """Design and analyze periodic spectrum-filter consensus protocols."""


@main.command()
@_band_option()
# finite_time needs a graph's spectrum, so only simulate offers it.
@click.option("--method", type=click.Choice([m for m in METHODS if m != "finite_time"]),
              required=True)
@_period_option(1)
@click.option("--beta-bar", type=float, default=None,
              help="Spectral radius bound for uniform_unknown.")
def design(band, method, period, beta_bar):
    """Design a gain sequence and print it as JSON (roots and rate on stderr)."""
    seq = _sequence(method, band, period, beta_bar)
    gamma = _closed_rate(method, band, period) if method in TABLE_METHODS else None
    click.echo(json.dumps(filters.sequence_to_dict(seq), indent=2))
    click.echo("roots: " + " ".join(_fmt6(r) for r in seq.roots), err=True)
    if gamma is not None:
        click.echo(f"worst-case rate (M={period}): {_fmt6(gamma)}", err=True)


@main.command()
@_band_option(PAPER_BAND)
@click.option("--periods", callback=_parse_periods, default="2,3,4,5", show_default=True)
@format_option
@out_option
def table2(band, periods, fmt, out):
    """Worst-case rates gamma_M per method over the band (4-decimal cells)."""
    cells = {m: [round(_closed_rate(m, band, p), 4) for p in periods] for m in TABLE_METHODS}
    if fmt == "json":
        doc = {"alpha": band.alpha, "beta": band.beta, "periods": list(periods), "rates": cells}
        _emit([json.dumps(doc, indent=2)], out, "table2.json")
        return
    lines = ["method," + ",".join(str(p) for p in periods)]
    lines += [m + "," + ",".join(f"{v:.4f}" for v in cells[m]) for m in TABLE_METHODS]
    _emit(lines, out, "table2.csv")


# Table 3's graphs by spec; smallworld12 is the spectrum bundled with the package.
TABLE3_GRAPHS = {"star12": "star:12", "cycle12": "cycle:12", "path6": "path:6",
                 "smallworld12": None}


@main.command()
@_band_option(PAPER_BAND)
@click.option("--periods", callback=_parse_periods, default="2,3,4,5", show_default=True)
@format_option
@out_option
def table3(band, periods, fmt, out):
    """Exact rates rho_M per graph and method (4-decimal cells)."""
    seqs = {(m, p): _sequence(m, band, p) for m in TABLE_METHODS for p in periods}
    rows = {}
    for gname, spec in TABLE3_GRAPHS.items():
        if spec is None:
            eigs = bundled_spectrum()[1:]
        else:
            eigs = graphs.spectrum(parse_graph_spec(spec), vectors=False).eigenvalues[1:]
        for method in TABLE_METHODS:
            rows[(gname, method)] = [
                round(rates.rate_on_eigenvalues(seqs[(method, p)], eigs, steps=p).exact_rate, 4)
                for p in periods]
    if fmt == "json":
        doc = {
            "alpha": band.alpha, "beta": band.beta, "periods": list(periods),
            "rates": {g: {m: rows[(g, m)] for m in TABLE_METHODS} for g in TABLE3_GRAPHS},
        }
        _emit([json.dumps(doc, indent=2)], out, "table3.json")
        return
    lines = ["graph,method," + ",".join(str(p) for p in periods)]
    for gname in TABLE3_GRAPHS:
        for method in TABLE_METHODS:
            lines.append(f"{gname},{method}," + ",".join(f"{v:.4f}" for v in rows[(gname, method)]))
    _emit(lines, out, "table3.csv")


def _sweep_row(seqs, band, period, nodes, edge_prob, seed, graph_id) -> dict:
    """One graph's spectrum extremes, band membership and exact rate per method."""
    g = graphs.build_graph("random_connected", n=nodes, p=edge_prob, seed=[seed, graph_id])
    s = graphs.spectrum(g, vectors=False)
    if s.lambda_max > band.beta:
        s = s.scaled(band.beta / s.lambda_max)
    row = {"graph_id": graph_id, "lambda2": s.lambda_2, "lambda_n": s.lambda_max,
           "in_band": graphs.band_contains(s, band)}
    for method, seq in seqs.items():
        row[f"rho_{method}"] = rates.exact_rate(seq, s, steps=period).exact_rate
    return row


@main.command()
@_band_option(PAPER_BAND)
@_period_option(5)
@click.option("--trials", type=click.IntRange(min=1), default=80, show_default=True)
@click.option("--nodes", type=click.IntRange(min=2), default=100, show_default=True)
@click.option("--edge-prob", type=float, callback=_parse_edge_prob, default=0.08,
              show_default=True)
@seed_option
@format_option
@out_option
def sweep(band, period, trials, nodes, edge_prob, seed, fmt, out):
    """Exact rates of all methods on seeded random connected graphs.

    Only Laplacian eigenvalues are computed. A graph whose spectral radius
    exceeds beta has its edge weights rescaled by beta/lambda_N; its spectrum
    is rescaled by the same factor, which is exact, so it is not decomposed
    again. Rows are computed one after another in graph-id order, so the
    linear algebra library may use every core; failed graphs are reported on
    stderr after the rows.
    """
    seed = 0 if seed is None else seed
    seqs = {m: _sequence(m, band, period) for m in TABLE_METHODS}
    rows, failures = [], []
    for graph_id in range(trials):
        try:
            rows.append(_sweep_row(seqs, band, period, nodes, edge_prob, seed, graph_id))
        except SpecconError as exc:
            failures.append(f"graph {graph_id}: {exc}")
    if fmt == "json":
        doc = {"alpha": band.alpha, "beta": band.beta, "period": period, "nodes": nodes,
               "edge_prob": edge_prob, "seed": seed, "rows": rows}
        _emit([json.dumps(doc, indent=2)], out, "sweep.json")
    else:
        columns = ["lambda2", "lambda_n"] + [f"rho_{m}" for m in TABLE_METHODS]
        lines = [",".join(["graph_id"] + columns)]
        lines += [",".join([str(r["graph_id"])] + [_fmt6(r[c]) for c in columns]) for r in rows]
        _emit(lines, out, "sweep.csv")
    for message in failures:
        click.echo(message, err=True)
    if failures:
        sys.exit(1)


@main.command()
@_band_option(PAPER_BAND)
@click.option("--methods", "names", callback=_parse_methods, default=",".join(TABLE_METHODS),
              show_default=True, help=f"Comma-separated subset of {','.join(TABLE_METHODS)}.")
@_period_option(3)
@click.option("--samples", type=click.IntRange(min=2), default=513, show_default=True)
@out_option
def response(band, names, period, samples, out):
    """Filter response h(lambda) per method on [0, beta * 1.05] as CSV."""
    columns = {}
    grid = np.linspace(0.0, band.beta * 1.05, samples)
    for name in names:
        seq = _sequence(name, band, period)
        columns[name] = filters.eval_filter(seq, grid, period)
    lines = ["lambda," + ",".join(f"h_{n}" for n in names)]
    for i, lam in enumerate(grid):
        lines.append(_fmt6(lam) + "," + ",".join(_fmt6(columns[n][i]) for n in names))
    _emit(lines, out, "response.csv")


@main.command(name="simulate")
@click.option("--graph", "graph_spec", required=True,
              help="Graph spec, e.g. star:12, bipartite:3,4, ws:12,4,0.3, file:g.json.")
@_band_option()
@click.option("--method", type=click.Choice(METHODS), default=None,
              help="Design method (alternative to --sequence).")
@_period_option(3)
@click.option("--beta-bar", type=float, default=None)
@click.option("--sequence", "sequence_file", type=click.Path(exists=True), default=None,
              help="Load the gain sequence from a JSON file.")
@click.option("--x0", default="uniform", show_default=True,
              help="Initial states: uniform | worst_eigenvector | file:PATH.")
@click.option("--steps", type=click.IntRange(min=0), required=True)
@click.option("--tol", type=float, callback=_parse_tol, default=1e-9, show_default=True,
              help="Relative consensus tolerance.")
@click.option("--states", "with_states", is_flag=True, help="Include state columns in the trace CSV.")
@seed_option
@out_option
def simulate_cmd(graph_spec, band, method, period, beta_bar, sequence_file, x0, steps,
                 tol, with_states, seed, out):
    """Simulate the protocol on a graph; write trace CSV and summary JSON.

    A divergent run, one whose consensus error is not finite at some step,
    prints its non-finite summary numbers as null and exits with status 1.
    """
    # Usage errors and malformed input files are found before the
    # eigendecomposition, the costly step.
    if sequence_file is None and method is None:
        raise click.BadParameter("provide --method or --sequence")
    if x0 not in ("uniform", "worst_eigenvector") and not x0.startswith("file:"):
        raise click.BadParameter(f"unknown x0 mode {x0!r}")
    if sequence_file is not None:
        seq = filters.sequence_from_dict(_read_json(sequence_file, "sequence"))
    x_init = _load_states(x0[5:]) if x0.startswith("file:") else None
    g = parse_graph_spec(graph_spec, seed)
    s = graphs.spectrum(g)
    if sequence_file is None:
        seq = _sequence(method, band, period, beta_bar, s)

    report = rates.exact_rate(seq, s)
    if seq.band is not None and graphs.band_contains(s, seq.band):
        # Every nonzero eigenvalue lies in the band, so the band's worst
        # case bounds the predicted rate; a breach is a numerical fault.
        gamma = rates.worst_case_rate(seq, seq.band)
        if not (report.exact_rate <= gamma * (1.0 + 1e-9) + 1e-12):
            raise NumericalError(f"predicted rate {report.exact_rate:.6g} exceeds the "
                                 f"band worst case {gamma:.6g}")
    if x0 == "uniform":
        x_init = sim.uniform_initial_states(g.n, seed)
    elif x0 == "worst_eigenvector":
        idx = int(np.searchsorted(s.eigenvalues, report.argmax_eigenvalue))
        x_init = s.eigenvectors[:, idx]

    # A divergent run overflows to inf and NaN; it is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        trace = sim.simulate(g, seq, x_init, steps)
        ratios = sim.measured_period_ratios(trace, seq.period)
    summary = {
        "graph": graph_spec,
        "n": g.n,
        "method": seq.method,
        "period": seq.period,
        "steps": steps,
        "seed": seed,
        "x0_mode": x0,
        "average": trace.average,
        "consensus_time": sim.consensus_time(trace, tol),
        "predicted_rate": report.exact_rate,
        "argmax_lambda": report.argmax_eigenvalue,
        "measured_ratios": list(ratios.ratios),
        "omitted_periods": list(ratios.omitted),
    }
    _emit([json.dumps(_finite_or_null(summary), indent=2, allow_nan=False)], out, "summary.json")
    if out is not None:
        (out / "trace.csv").write_text(
            "\n".join(sim.trace_csv_lines(trace, with_states)) + "\n", encoding="utf-8")
    nonfinite = np.flatnonzero(~np.isfinite(trace.errors))
    if nonfinite.size:
        raise click.ClickException(
            f"the run diverged: the consensus error is first non-finite at step {nonfinite[0]}")


@main.group()
def graph():
    """Generate or inspect graphs."""


@graph.command()
@click.argument("spec")
@seed_option
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Write the graph JSON to this file instead of stdout.")
def generate(spec, seed, out):
    """Generate a graph from SPEC (e.g. star:12, ws:12,4,0.3) as JSON."""
    g = parse_graph_spec(spec, seed)
    text = json.dumps(graphs.graph_to_dict(g), indent=2)
    if out is None:
        click.echo(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n", encoding="utf-8")


@graph.command()
@click.argument("spec")
@format_option
@seed_option
def inspect(spec, fmt, seed):
    """Summarize a graph: size, degree, spectrum (csv) or key facts (json)."""
    g = parse_graph_spec(spec, seed)
    s = graphs.spectrum(g)
    if fmt == "csv":
        lines = ["index,eigenvalue"] + [f"{i + 1},{_fmt6(v)}" for i, v in enumerate(s.eigenvalues)]
        click.echo("\n".join(lines))
        return
    iu, _, w = graphs.edge_arrays(g)
    click.echo(json.dumps({
        "n": g.n,
        "edges": int(iu.size),
        "total_weight": float(w.sum()),
        "max_degree": s.max_degree,
        "connected": s.is_connected(),
        "lambda_2": s.lambda_2,
        "lambda_max": s.lambda_max,
    }, indent=2))


if __name__ == "__main__":
    main()
