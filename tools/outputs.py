"""Output digests: the exit status and the sha256 of everything a fixed list of
CLI invocations prints and writes, one line per invocation.

Run it as `python tools/outputs.py`, from any directory. It runs the CLI of
the checkout it sits in (`python -m speccon.cli`, with that checkout's `src/`
first on PYTHONPATH), each invocation in a new temporary directory that holds
only the input `states.json`. A line gives the argv, the exit status, and the
sha256 of stdout, of stderr and of each file under `out`, the path every
`--out` in the list names. `{data}` in an argv stands for the checkout's
`tests/data`. The tool sets no thread variable: its first line names the
`*_NUM_THREADS` variables it found, on which the linear algebra's rounding
may depend. Comparing two checkouts is `diff` of the two runs' outputs.
"""

import hashlib
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "bench"))
from workloads import WORKLOADS  # noqa: E402

# Initial states for star:12, read by `--x0 file:states.json`.
STATES = "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1e3]\n"
OUT = ["--out", "out"]
STAR = ["simulate", "--graph", "star:12", "--band", "0.2,12.8", "--method", "chebyshev", "-M",
        "3", "--steps", "30", "--seed", "1"]

COMMANDS = [
    *(w.argv(seed, Path("out")) for w in WORKLOADS.values() for seed in (1, 2, 3)),
    *([table, *fmt, *OUT] for table in ("table2", "table3")
      for fmt in ([], ["--format", "json"])),
    *([*command, "--help"] for command in (
        [], ["design"], ["table2"], ["table3"], ["sweep"], ["response"], ["simulate"],
        ["graph"], ["graph", "generate"], ["graph", "inspect"])),
    ["graph", "inspect", "--format", "json", "ws:2000,6,0.3"],
    ["graph", "inspect", "--format", "json", "file:{data}/graph_weighted24.json"],
    ["graph", "generate", "ws:12,4,0.3", "--seed", "7"],
    ["graph", "generate", "ws:12,4,0.3", "--seed", "7", *OUT],
    ["response", "-M", "5", "--samples", "33", *OUT],
    [*STAR, "--x0", "uniform", *OUT],
    [*STAR, "--x0", "worst_eigenvector"],
    [*STAR, "--x0", "file:states.json"],
    ["simulate", "--graph", "er:20,0.3", "--band", "0.2,12.8", "--method", "lagrange", "-M",
     "2", "--steps", "8", "--seed", "11", "--states", *OUT],
    ["simulate", "--graph", "path:20", "--method", "finite_time", "--steps", "60", "--seed",
     "1", *OUT],
    ["simulate", "--graph", "star:12", "--sequence", "{data}/design_chebyshev_M3.stdout.json",
     "--steps", "12", "--seed", "1"],
    ["simulate", "--graph", "complete:20", "--band", "0.2,12.8", "--method", "chebyshev", "-M",
     "3", "--steps", "3000", "--seed", "1", "--states", *OUT],
    *(["simulate", "--graph", "star:12", "--method", "chebyshev", "--band", "1,5", "-M", "3",
       "--steps", "12", "--seed", "1", *x0] for x0 in ([], ["--x0", "worst_eigenvector"])),
    ["sweep", "--nodes", "100", "--trials", "5", "--seed", "1"],
    ["sweep", "--nodes", "600", "--edge-prob", "0.04", "--trials", "2", "--seed", "3"],
    ["sweep", "--band", "1,8", "--nodes", "50", "--trials", "5", "--seed", "2", "--format",
     "json", *OUT],
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(commands, repo: Path = REPO):
    """One line per argv in ``commands``, run by the CLI of ``repo``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(repo / "src"), env.get("PYTHONPATH")) if p)
    data = str(repo / "tests" / "data")
    for argv in commands:
        with tempfile.TemporaryDirectory() as tmp:
            cwd = Path(tmp)
            (cwd / "states.json").write_text(STATES, encoding="utf-8")
            run = subprocess.run(
                [sys.executable, "-m", "speccon.cli", *(a.replace("{data}", data) for a in argv)],
                cwd=cwd, env=env, capture_output=True)
            out = cwd / "out"
            files = [out] if out.is_file() else sorted(p for p in out.rglob("*") if p.is_file())
            yield " | ".join([shlex.join(argv), f"exit {run.returncode}",
                              f"stdout {_sha(run.stdout)}", f"stderr {_sha(run.stderr)}",
                              *(f"{p.relative_to(cwd)} {_sha(p.read_bytes())}" for p in files)])


def main() -> None:
    threads = sorted(f"{k}={v}" for k, v in os.environ.items() if k.endswith("_NUM_THREADS"))
    print("threads: " + (" ".join(threads) or "no *_NUM_THREADS variable set"))
    for line in digests(COMMANDS):
        print(line, flush=True)


if __name__ == "__main__":
    main()
