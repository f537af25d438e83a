"""The benchmark's workloads and the checks on their outputs.

Each check returns a list of problems (empty when the output is correct). The
checks test properties, not bytes, so a correct change that moves the last
printed digit still passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

BAND = (0.2, 12.8)
BAND_ARG = "0.2,12.8"
METHODS = ("lagrange", "chebyshev", "constant")
SWEEP_HEADER = ["graph_id", "lambda2", "lambda_n"] + [f"rho_{m}" for m in METHODS]
# The CLI prints 6 significant digits; this slack covers their rounding.
PRINT_SLACK = 1e-5
# Simulated period ratios are checked only while the error is above this share
# of the initial error; below it they are round-off.
RATIO_ERROR_FLOOR = 1e-8
RATIO_SLACK = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # speccon subcommand
    args: tuple[str, ...]  # fixed arguments; --seed (and --out) are appended
    nodes: int
    steps: int = 0  # protocol steps per invocation (simulate only)
    period: int = 0
    trials: int = 0

    def argv(self, seed: int, out_dir: Path) -> list[str]:
        argv = [self.command, *self.args, "--seed", str(seed)]
        if self.command == "simulate":
            argv += ["--out", str(out_dir)]
        return argv

    @property
    def agent_steps(self) -> int:
        return self.nodes * self.steps


def _sweep(name, nodes, period, trials, extra=()):
    args = ("--nodes", str(nodes), *extra, "-M", str(period), "--band", BAND_ARG,
            "--trials", str(trials))
    return Workload(name, "sweep", args, nodes=nodes, period=period, trials=trials)


SIM_STEPS = 5000
SIM_NODES = 2000
SIM_PERIOD = 5
# lambda_N of ws:2000,6,0.3 runs from 12.1 to 13.8 over seeds 1-40, so the
# sweeps' beta = 12.8 would leave the spectrum out of band (and the run
# divergent) on many seeds; beta = 20 contains it with a wide margin.
SIM_BAND_ARG = "0.2,20"

# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        _sweep("sweep-er100", nodes=100, period=16, trials=200, extra=("--edge-prob", "0.08")),
        _sweep("sweep-er1000", nodes=1000, period=5, trials=4),
        Workload("simulate-ws2000", "simulate",
                 ("--graph", f"ws:{SIM_NODES},6,0.3", "--band", SIM_BAND_ARG, "--method", "chebyshev",
                  "-M", str(SIM_PERIOD), "--steps", str(SIM_STEPS)),
                 nodes=SIM_NODES, steps=SIM_STEPS, period=SIM_PERIOD),
    )
}


def _strict_json(text: str):
    """json.loads that rejects NaN and Infinity tokens."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")
    return json.loads(text, parse_constant=reject)


def check_sweep(stdout: str, trials: int, closed_rates: dict[str, float]) -> list[str]:
    """Rows 0..trials-1, finite values, 0 < lambda2 <= lambda_n <= beta, and on
    in-band rows each rho at most its method's closed-form band rate."""
    alpha, beta = BAND
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != SWEEP_HEADER:
        return [f"bad header {rows[0] if rows else None!r}"]
    body = rows[1:]
    problems = []
    if len(body) != trials:
        problems.append(f"{len(body)} rows, expected {trials}")
    for expected_id, row in enumerate(body):
        try:
            gid, *values = int(row[0]), *(float(v) for v in row[1:])
        except (ValueError, IndexError):
            problems.append(f"unparsable row {row!r}")
            continue
        if gid != expected_id or len(values) != len(SWEEP_HEADER) - 1:
            problems.append(f"row {expected_id}: got id {gid} with {len(values)} values")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"row {gid}: non-finite value")
            continue
        l2, ln, *rhos = values
        if not 0.0 < l2 <= ln <= beta * (1 + PRINT_SLACK):
            problems.append(f"row {gid}: spectrum {l2}, {ln} outside (0, beta]")
            continue
        if l2 < alpha * (1 + PRINT_SLACK) or ln > beta:
            continue  # out of band: the closed forms do not bound it
        for method, rho in zip(METHODS, rhos):
            bound = closed_rates[method] * (1 + PRINT_SLACK)
            if rho > bound:
                problems.append(f"row {gid}: rho_{method} {rho} above closed rate {bound}")
    return problems


def check_simulate(stdout: str, out_dir: Path, steps: int, nodes: int, period: int) -> list[str]:
    """Strict-JSON summary, steps+1 trace rows, and every period whose starting
    error is above the round-off floor contracting by at most predicted_rate."""
    try:
        summary = _strict_json(stdout)
        if _strict_json((out_dir / "summary.json").read_text(encoding="utf-8")) != summary:
            return ["summary.json differs from stdout"]
        trace = (out_dir / "trace.csv").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    problems = []
    if (summary.get("n"), summary.get("steps"), summary.get("period")) != (nodes, steps, period):
        problems.append("summary n/steps/period do not match the command")
    if trace[:1] != ["k,err"] or len(trace) != steps + 2:
        return problems + [f"trace has {len(trace) - 1} rows, expected {steps + 1}"]
    try:
        errors = [float(line.split(",")[1]) for line in trace[1:]]
    except (ValueError, IndexError):
        return problems + ["unparsable trace row"]
    if not all(math.isfinite(e) and e >= 0.0 for e in errors):
        return problems + ["non-finite or negative error in trace"]
    predicted = summary.get("predicted_rate")
    measured, omitted = summary.get("measured_ratios"), summary.get("omitted_periods")
    if not isinstance(predicted, float) or not 0.0 < predicted < 1.0:
        return problems + [f"predicted_rate {predicted!r} not in (0, 1)"]
    if not isinstance(measured, list) or not isinstance(omitted, list) \
            or len(measured) + len(omitted) != steps // period:
        return problems + ["measured_ratios and omitted_periods do not cover every period"]
    skipped = set(omitted)
    kept = [j for j in range(steps // period) if j not in skipped]
    for j, ratio in zip(kept, measured):
        if errors[j * period] > RATIO_ERROR_FLOOR * errors[0] \
                and ratio > predicted * (1 + RATIO_SLACK):
            problems.append(f"period {j}: ratio {ratio} above predicted rate {predicted}")
    return problems
