"""speccon benchmark: run one workload through the real CLI and report metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sweep-er100 --seed 1 --seconds 20 --trace 0

Each invocation of the workload's command is a fresh ``python -m speccon.cli``
process, repeated until ``--seconds`` is spent; every one is checked for
correctness and for stdout identical to the first. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates untraced
and traced invocations and reports its per-layer metrics. The last line of
stdout is the JSON result; a full record goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from spans import aggregate, derive, spans_from_json
from workloads import BAND, METHODS, WORKLOADS, check_simulate, check_sweep

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
SETUP_REPS = 3  # before the first repeat; one more precedes each repeat
INVOCATION_TIMEOUT_S = 90


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke(argv: list[str], work: Path, env: dict[str, str]) -> Invocation:
    """Run one child to completion; wall time spans launch to exit, RSS is its own."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=work, env=env)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                      out_path.read_bytes(), err_path.read_bytes())


def check_import(work: Path, env: dict[str, str]) -> None:
    """Warm-up import that also proves the checkout's own ``src`` is imported."""
    probe = invoke([sys.executable, "-c", "import speccon.cli as c; print(c.__file__)"], work, env)
    found = probe.stdout.decode(errors="replace").strip()
    if probe.code != 0 or Path(found).resolve() != (SRC / "speccon" / "cli.py").resolve():
        raise SystemExit(f"bench: speccon.cli imports from {found!r}, not {SRC}: "
                         f"{probe.stderr.decode(errors='replace')[-400:]}")


def import_time(work: Path, env: dict[str, str]) -> float:
    """Wall time of a fresh ``import speccon.cli``: the set-up every command pays."""
    inv = invoke([sys.executable, "-c", "import speccon.cli"], work, env)
    if inv.code != 0:
        raise SystemExit(f"bench: importing speccon.cli failed: {inv.stderr[-400:]!r}")
    return inv.wall_s


def environment(speccon_version: str) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "speccon": speccon_version,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k == "SPECCON_THREADS"},
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "speccon" / "cli.py").is_file():
        raise SystemExit(f"bench: no speccon sources at {SRC}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import speccon
    from speccon import filters, graphs

    w = WORKLOADS[args.workload]
    band = graphs.SpectralBand(*BAND)
    closed_rates = {m: getattr(filters, f"closed_rate_{m}")(band, w.period) for m in METHODS}
    env = _child_env()
    work = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out_dir = work / "out"

    def check(inv: Invocation) -> list[str]:
        if inv.code != 0:
            return [f"exit code {inv.code}: {inv.stderr.decode(errors='replace')[-400:]}"]
        text = inv.stdout.decode("utf-8", errors="replace")
        if w.command == "sweep":
            return check_sweep(text, w.trials, closed_rates)
        return check_simulate(text, out_dir, w.steps, w.nodes, w.period)

    check_import(work, env)
    setup_times = [import_time(work, env) for _ in range(SETUP_REPS)]
    argv = w.argv(args.seed, out_dir)
    plain: list[Invocation] = []
    traced: list[Invocation] = []
    layer_runs: list[dict[str, float]] = []
    problems: list[str] = []
    failed = 0
    first_stdout = None

    def record(inv: Invocation, label: str, found: list[str]) -> None:
        nonlocal failed, first_stdout
        found += check(inv)
        if first_stdout is None:
            first_stdout = inv.stdout
        elif inv.stdout != first_stdout:
            found.append(f"{label} stdout differs from the first invocation's")
        if found:
            failed += 1
            problems.extend(f"{label} #{len(plain) + len(traced)}: {p}" for p in found)

    deadline = time.perf_counter() + args.seconds
    while True:
        started = time.perf_counter()
        # Set-up samples are spread over the whole run: a shared machine's speed drifts.
        setup_times.append(import_time(work, env))
        shutil.rmtree(out_dir, ignore_errors=True)
        inv = invoke([sys.executable, "-m", "speccon.cli", *argv], work, env)
        plain.append(inv)
        record(inv, "untraced", [])
        if args.trace:
            shutil.rmtree(out_dir, ignore_errors=True)
            spans_path = work / "spans.json"
            spans_path.unlink(missing_ok=True)
            inv = invoke([sys.executable, str(TRACED_CLI), str(spans_path), *argv], work, env)
            traced.append(inv)
            if spans_path.is_file():
                layers = aggregate(spans_from_json(json.loads(spans_path.read_text(encoding="utf-8"))))
                layers.update(derive(layers))
                layer_runs.append(layers)
            record(inv, "traced", [] if spans_path.is_file() else ["no spans written"])
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    attempted = len(plain) + len(traced)
    wall_s = statistics.median([i.wall_s for i in plain])
    measured = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median([i.peak_rss_mb for i in plain]),
        "failed_frac": failed / attempted,
    }
    if w.command == "sweep":
        measured["graphs_per_s"] = w.trials / wall_s
    else:
        measured["agent_steps_per_s"] = w.agent_steps / wall_s
    layers = {}
    if args.trace:
        keys = sorted({k for run in layer_runs for k in run})
        layers = {k: statistics.median([run.get(k, 0.0) for run in layer_runs]) for k in keys}
        layers["trace_overhead_s"] = statistics.median([i.wall_s for i in traced]) - wall_s

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = layers if args.trace else measured
    metrics = {m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    stdout_sha256 = hashlib.sha256(first_stdout).hexdigest()

    record_doc = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "argv": ["speccon", *argv], "stdout_sha256": stdout_sha256,
        "environment": environment(speccon.__version__),
        "end_to_end": measured, "layers": layers, "problems": problems,
        "setup_s_runs": setup_times,
        "wall_s_runs": [i.wall_s for i in plain],
        "traced_wall_s_runs": [i.wall_s for i in traced],
        "peak_rss_mb_runs": [i.peak_rss_mb for i in plain],
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(record_doc, indent=2) + "\n", encoding="utf-8")

    for p in problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"workload {w.name} seed {args.seed}: {len(plain)} untraced and {len(traced)} traced "
          f"invocations, stdout sha256 {stdout_sha256}")
    print(f"  environment: {json.dumps(record_doc['environment'])}")
    for name, value in measured.items():
        print(f"  {name} = {value:.6g}")
    for name, value in sorted(layers.items()):
        print(f"  {name} = {value:.6g}")
    print(f"  record: {work / 'result.json'}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
