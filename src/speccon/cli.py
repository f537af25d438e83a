"""Command-line front end: protocol design, rate tables, simulations, sweeps.

All commands are byte-deterministic for fixed inputs and --seed (0 when
omitted) on a fixed numpy/BLAS build and BLAS thread count. Tables are
rounded to 4 decimals; other CSV output carries 6 significant digits.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__, filters, graphs, rates, sim
from .errors import ParameterError, SpecconError

# The design methods and the design options each one's sequence reads
# (design also prints the constant gain's rate over -M steps).
_READS = {"lagrange": ("--band", "-M"), "chebyshev": ("--band", "-M"), "constant": ("--band",),
          "uniform_unknown": ("--beta-bar", "-M"), "finite_time": ()}
METHODS = tuple(_READS)
# Band methods, the ones with a closed-form rate, compared in the rate tables,
# the sweep and the response plot.
TABLE_METHODS = tuple(m for m, reads in _READS.items() if "--band" in reads)

_fmt6 = sim._fmt6  # 6 significant digits: every printed number but the tables' cells


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


# The graph spec grammar besides file:PATH: kind -> build_graph family and its
# parameters in order with their types, each passed as its name in lower case,
# as graphs._FAMILIES gives them; a kind is its family but for the short ones.
_KINDS = {"complete_bipartite": "bipartite", "watts_strogatz": "ws", "random_connected": "er"}
_SPECS = {_KINDS.get(family, family): (family, {key.upper(): float if least is None else int
                                                for key, least in params.items()})
          for family, params in graphs._FAMILIES.items()}


def parse_graph_spec(spec: str, seed: int = 0) -> graphs.Graph:
    """Build a graph from a compact spec string such as ws:12,4,0.3, or load
    one with file:PATH. ``seed`` seeds the random families."""
    kind, _, arg = spec.partition(":")
    if kind == "file":
        return graphs.graph_from_dict(_read_json(arg, "graph"))
    if kind not in _SPECS:
        raise click.BadParameter(f"unknown graph family in spec {spec!r}")
    family, params = _SPECS[kind]
    parts = arg.split(",") if arg else []
    if len(parts) != len(params):
        raise click.BadParameter(
            f"bad graph spec {spec!r}: expected {len(params)} parameter"
            f"{'s' if len(params) > 1 else ''} ({','.join(params)}), got {len(parts)}")
    try:
        values = {name.lower(): cast(part) for (name, cast), part in zip(params.items(), parts)}
        return graphs.build_graph(family, seed=seed, **values)
    except ValueError as exc:
        raise click.BadParameter(f"bad graph spec {spec!r}: {exc}")


def bundled_spectrum() -> np.ndarray:
    """Small-world eigenvalue list shipped with the package (ascending, includes 0)."""
    doc = _read_json(Path(__file__).with_name("data") / "smallworld12.json", "spectrum")
    return np.asarray(doc["eigenvalues"], dtype=float)


def _sequence(method: str, band: graphs.SpectralBand | None, period: int,
              beta_bar: float | None = None) -> filters.ControlSequence:
    """The gain sequence for period M of any method but finite_time, which
    needs a graph's spectrum.

    A method without an option it reads in ``_READS`` is a usage error.
    Methods are compared over M steps, which is not ``seq.period`` for the
    period-1 constant sequence, so callers pass M itself as the step count.
    """
    given = {"--band": band, "--beta-bar": beta_bar, "-M": period}
    for option in _READS[method]:
        if given[option] is None:
            raise click.BadParameter(f"{method} requires {option}")
    if method == "uniform_unknown":
        return filters.design_uniform_unknown(beta_bar, period)
    if method == "constant":
        return filters.design_constant(band)
    return getattr(filters, f"design_{method}")(band, period)


def _refuse_unread(source: str, reads, given: dict) -> None:
    """A usage error naming each option in ``given`` that is not None and not
    in ``reads``, the options that ``source`` reads."""
    unread = [name for name, value in given.items() if value is not None and name not in reads]
    if unread:
        raise click.BadParameter(f"{source} cannot be given with {', '.join(unread)}")


def _closed_rate(method: str, band: graphs.SpectralBand, period: int) -> float:
    """Closed-form worst-case rate over the band of a ``TABLE_METHODS`` design."""
    return getattr(filters, f"closed_rate_{method}")(band, period)


def _load_states(path) -> list:
    """Initial states from a JSON list of numbers (``graphs._number``); any other
    document is a ParameterError. ``sim.check_initial_states`` judges their values."""
    doc = _read_json(path, "initial states")
    if not isinstance(doc, list):
        raise ParameterError(f"initial states file {path} must hold a JSON list of numbers")
    return [graphs._number(v, f"an initial state in {path}") for v in doc]


def _finite_or_null(value):
    """``value`` with every non-finite float, nested in lists and dicts, as None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return value


def _strict_json(doc) -> str:
    """``doc`` as indented JSON with every non-finite number as null, so no
    NaN or Infinity token is printed."""
    return json.dumps(_finite_or_null(doc), indent=2, allow_nan=False)


@contextmanager
def _writing(path: Path):
    """Report an OSError raised in the block as a ParameterError on ``path``."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, making its directory; an OSError is a ParameterError."""
    with _writing(path):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _emit(lines: list[str], out: Path | None, filename: str) -> None:
    text = "\n".join(lines) + "\n"
    click.echo(text, nl=False)
    if out is not None:
        _write_text(out / filename, text)


def _emit_table(name: str, labels: tuple[str, ...], rows: dict, band, periods, fmt, out) -> None:
    """A rate table: per key of ``rows``, a tuple of the ``labels`` columns, one
    cell per period rounded to 4 decimals; JSON nests the cells under the key."""
    cells = {key: [round(v, 4) for v in values] for key, values in rows.items()}
    if fmt == "json":
        nested = {}
        for key, row in cells.items():
            node = nested
            for label in key[:-1]:
                node = node.setdefault(label, {})
            node[key[-1]] = row
        doc = {"alpha": band.alpha, "beta": band.beta, "periods": list(periods), "rates": nested}
        _emit([_strict_json(doc)], out, f"{name}.json")
        return
    lines = [",".join([*labels, *map(str, periods)])]
    lines += [",".join([*key, *(f"{v:.4f}" for v in row)]) for key, row in cells.items()]
    _emit(lines, out, f"{name}.csv")


seed_option = click.option("--seed", type=click.IntRange(min=0), default=0,
                           help="Seed for random draws.")
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
    """Reports a library error from any subcommand as ``Error: <message>``, exit 1,
    and so a failed allocation, such as a graph family's edge arrays for a
    spec too large to hold."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except SpecconError as exc:
            raise click.ClickException(str(exc)) from exc
        except MemoryError as exc:
            raise click.ClickException(str(exc) or "out of memory") from exc


@click.group(cls=_Commands)
@click.version_option(__version__)
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
    """Design a gain sequence and print it as JSON (roots and rate on stderr).

    A --band or --beta-bar that the method would leave unread is a usage error.
    """
    _refuse_unread(f"--method {method}", _READS[method],
                   {"--band": band, "--beta-bar": beta_bar})
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
    rows = {(m,): [_closed_rate(m, band, p) for p in periods] for m in TABLE_METHODS}
    _emit_table("table2", ("method",), rows, band, periods, fmt, out)


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
        eigs = (bundled_spectrum()[1:] if spec is None else
                graphs.spectrum(parse_graph_spec(spec), vectors=False).nonzero_eigenvalues())
        for method in TABLE_METHODS:
            rows[(gname, method)] = [
                rates.rate_on_eigenvalues(seqs[(method, p)], eigs, p).exact_rate for p in periods]
    _emit_table("table3", ("graph", "method"), rows, band, periods, fmt, out)


# Sweeps on graphs of at least this many nodes rate their rescaled rows from
# lambda_2 and lambda_N alone (see sweep), with no n x n array. Medians over
# 12 graphs, dense against two-start Lanczos, on connected Erdos-Renyi graphs
# (2 shared vCPUs, numpy 2.4.6, OpenBLAS 0.3.31): at mean degree 20, 5.5
# against 7.6 ms at n = 400, 8.5 against 7.6 at n = 500 and 17.6 against
# 9.8 at n = 700; at mean degree 80, whose matvecs cost three times as much,
# 40.8 against 27.0 ms at n = 1000.
TWO_EIGENVALUE_NODES = 512


def _sweep_row(methods, band, period, nodes, edge_prob, seed, graph_id, ends_only) -> dict:
    """One graph's spectrum extremes, band membership and exact rate per method;
    ``methods`` maps each to its sequence and its in-band check. With
    ``ends_only``, a graph whose certified lambda_N exceeds beta by more than
    its own and the dense solver's error is rated at lambda_2 and lambda_N."""
    g = graphs.build_graph("random_connected", n=nodes, p=edge_prob, seed=[seed, graph_id])
    s = graphs.extreme_eigenvalues(g) if ends_only else None
    if s is None or not s.lambda_max - 2.0 * s.error > band.beta:
        s = graphs.spectrum(g, vectors=False)
    if s.lambda_max > band.beta:
        s = s.scaled(band.beta / s.lambda_max)
    row = {"graph_id": graph_id, "lambda2": s.lambda_2, "lambda_n": s.lambda_max,
           "in_band": graphs.band_contains(s, band)}
    for method, (seq, check) in methods.items():
        row[f"rho_{method}"] = rates.exact_rate(seq, s, steps=period).exact_rate
        if row["in_band"]:
            check(row[f"rho_{method}"])
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
    linear algebra library may use every core. A graph that fails, including
    an in-band one whose exact rate exceeds its method's worst case over the
    band widened by the eigenvalue error, is reported on stderr after the rows.

    From TWO_EIGENVALUE_NODES nodes on, a rescaled row needs only lambda_2 and
    lambda_N: once lambda_N = beta, each method's |h| over the spectrum peaks
    at one of them, which the run checks once for every method
    (``rates._peaks_at_beta``). ``graphs.extreme_eigenvalues`` then finds the
    two by Lanczos on the edge list, with no n x n array, and certifies them
    by their residuals, two independent starts and Gershgorin's bound. A row
    whose values are not certified or whose lambda_N is not beyond beta by
    twice their error, and every row of a run whose check fails, takes the
    dense solver, so no row is printed from uncertified values.
    """
    seqs = {m: _sequence(m, band, period) for m in TABLE_METHODS}
    methods = {m: (seq, rates._in_band_check(seq, band, nodes, period)) for m, seq in seqs.items()}
    ends_only = nodes >= TWO_EIGENVALUE_NODES and all(
        rates._peaks_at_beta(seq, band, nodes, period) for seq in seqs.values())
    rows, failures = [], []
    for graph_id in range(trials):
        try:
            rows.append(_sweep_row(methods, band, period, nodes, edge_prob, seed, graph_id,
                                   ends_only))
        except SpecconError as exc:
            failures.append(f"graph {graph_id}: {exc}")
    if fmt == "json":
        doc = {"alpha": band.alpha, "beta": band.beta, "period": period, "nodes": nodes,
               "edge_prob": edge_prob, "seed": seed, "rows": rows}
        _emit([_strict_json(doc)], out, "sweep.json")
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
    if band.beta * 1.05 == math.inf:
        raise ParameterError(f"the grid end 1.05*beta overflows for beta = {_fmt6(band.beta)}")
    grid = np.linspace(0.0, band.beta * 1.05, samples)
    columns = {name: filters.eval_filter(_sequence(name, band, period), grid, period)
               for name in names}
    lines = ["lambda," + ",".join(f"h_{n}" for n in names)]
    for i, lam in enumerate(grid):
        lines.append(_fmt6(lam) + "," + ",".join(_fmt6(columns[n][i]) for n in names))
    _emit(lines, out, "response.csv")


@main.command(name="simulate")
@click.option("--graph", "graph_spec", required=True,
              help="Graph spec, e.g. star:12, bipartite:3,4, ws:12,4,0.3, file:g.json.")
@_band_option()
@click.option("--method", type=click.Choice(METHODS), default=None,
              help="Design method; not with --sequence.")
@_period_option(3)
@click.option("--beta-bar", type=float, default=None)
@click.option("--sequence", "sequence_file", type=click.Path(exists=True), default=None,
              help="Gain sequence JSON file; not with --method, --band, --beta-bar or -M.")
@click.option("--x0", default="uniform", show_default=True,
              help="Initial states: uniform | worst_eigenvector | file:PATH.")
@click.option("--steps", type=click.IntRange(min=0), required=True)
@click.option("--tol", type=float, callback=_parse_tol, default=1e-9, show_default=True,
              help="Consensus tolerance relative to the first error, at least n*2**-53.")
@click.option("--states", "with_states", is_flag=True,
              help="Include state columns in the trace CSV; needs --out.")
@seed_option
@out_option
def simulate_cmd(graph_spec, band, method, period, beta_bar, sequence_file, x0, steps,
                 tol, with_states, seed, out):
    """Simulate the protocol on a graph; write trace CSV and summary JSON.

    Every error that needs no spectrum, from a missing --band or --beta-bar,
    or a --method, --band, --beta-bar or -M that --sequence or the method
    would leave unread, or --states without --out, to initial states of the
    wrong length or out of the float range, is reported before the graph is
    decomposed, the costly step, and so is an --out that cannot be made. On
    a spectrum inside the band, the predicted rate is checked against the
    band's worst case, as sweep checks its in-band rows. A divergent run, one
    whose consensus error is not finite at some step, prints its non-finite
    summary numbers as null and exits with status 1.
    """
    if sequence_file is None and method is None:
        raise click.BadParameter("provide --method or --sequence")
    period_source = click.get_current_context().get_parameter_source("period")
    given = {"--band": band, "--beta-bar": beta_bar,
             "-M": None if period_source is ParameterSource.DEFAULT else period}
    if sequence_file is not None:
        _refuse_unread("--sequence", (), {"--method": method, **given})
    else:
        _refuse_unread(f"--method {method}", _READS[method], given)
    if x0 not in ("uniform", "worst_eigenvector") and not x0.startswith("file:"):
        raise click.BadParameter(f"unknown x0 mode {x0!r}")
    if with_states and out is None:
        raise click.BadParameter("--states needs --out: the states go only to trace.csv")
    seq = None  # finite_time is designed from the spectrum
    if sequence_file is not None:
        seq = filters.sequence_from_dict(_read_json(sequence_file, "sequence"))
    elif method != "finite_time":
        seq = _sequence(method, band, period, beta_bar)
    x_init = _load_states(x0[5:]) if x0.startswith("file:") else None
    if out is not None:
        with _writing(out):
            out.mkdir(parents=True, exist_ok=True)

    g = parse_graph_spec(graph_spec, seed)
    if x_init is not None:
        x_init = sim.check_initial_states(x_init, g.n)

    s = graphs.spectrum(g)
    if seq is None:
        seq = filters.design_finite_time(graphs.distinct_nonzero_eigenvalues(s))
    report = rates.exact_rate(seq, s)
    if seq.band is not None and graphs.band_contains(s, seq.band):
        rates._in_band_check(seq, seq.band, g.n, seq.period)(report.exact_rate)
    # uniform states are drawn from their own seeded generator, and only after
    # the decomposition, which refuses a graph too large to hold first
    if x0 == "uniform":
        x_init = sim.uniform_initial_states(g.n, seed)
    elif x0 == "worst_eigenvector":
        idx = int(np.searchsorted(s.eigenvalues, report.argmax_eigenvalue))
        x_init = s.eigenvectors[:, idx]

    trace = sim.simulate(g, seq, x_init, steps, states=with_states)
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
    _emit([_strict_json(summary)], out, "summary.json")
    if out is not None:
        _write_text(out / "trace.csv", "\n".join(sim.trace_csv_lines(trace)) + "\n")
    nonfinite = np.flatnonzero(~np.isfinite(trace.errors))
    if nonfinite.size:
        raise click.ClickException(
            f"the run diverged: the consensus error is first non-finite at step {nonfinite[0]}")
    # by the paper's condition |h(lambda_i, M)| < 1 on every nonzero eigenvalue,
    # a run whose predicted rate is not below 1, or NaN, cannot reach consensus
    rate = report.exact_rate
    if not rate < 1.0:
        why = "is not a number" if math.isnan(rate) else f"{_fmt6(rate)} is not below 1"
        raise click.ClickException(f"the run cannot reach consensus: the predicted rate {why}")


@main.group()
def graph():
    """Generate or inspect graphs."""


@graph.command()
@click.argument("spec")
@seed_option
@out_option
def generate(spec, seed, out):
    """Generate a graph from SPEC (e.g. star:12, ws:12,4,0.3) as JSON."""
    _emit([json.dumps(graphs.graph_to_dict(parse_graph_spec(spec, seed)), indent=2)], out,
          "graph.json")


@graph.command()
@click.argument("spec")
@format_option
@seed_option
def inspect(spec, fmt, seed):
    """Summarize a graph: size, degree, spectrum (csv) or key facts (json)."""
    g = parse_graph_spec(spec, seed)
    s = graphs.spectrum(g, vectors=False)
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
