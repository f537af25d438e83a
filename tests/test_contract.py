"""The CLI's contract, fuzzed: every invocation ends with exit 0, 1 or 2,
raises nothing but click's exit, emits no warning and prints no NaN or
Infinity token, on weighted graph documents and on bands and periods."""

import json
import re
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from speccon.cli import main

RUN = CliRunner()

# Ordinary weights, tiny and subnormal ones, the least normal float, and ones
# large enough that a degree, trace(L), ||L||_F^2 or |h| over a period overflows.
WEIGHTS = [1.0, 0.5, 3.0, 1e-8, 1e-200, 1e-300, 5e-324, 2.2250738585072014e-308,
           1e100, 1e150, 1e154, 1e155, 5e306, 3e307]

# Each command takes the graph file last.
COMMANDS = [
    ["graph", "inspect", "--format", "json"],
    ["simulate", "--method", "finite_time", "--steps", "6", "--seed", "1", "--graph"],
    ["simulate", "--method", "chebyshev", "--band", "0.2,20", "-M", "3", "--steps", "6",
     "--seed", "1", "--x0", "worst_eigenvector", "--graph"],
]

# Band ends: the least subnormal, ordinary values, a pair one ulp apart, and
# ends whose ratio, or sum, is past the float range.
BAND_ENDS = [5e-324, 1e-300, 0.2, 1.0, 1.0000000000000002, 12.8, 1e300, 1e308]
PERIODS = [1, 2, 5, 60, 400]

# Each command takes the band and the periods last: a list for the tables,
# its first entry as -M for the others.
BAND_COMMANDS = [
    ["table2", "--format", "json"],
    ["table3", "--format", "json"],
    ["design", "--method", "chebyshev"],
    ["simulate", "--graph", "cycle:8", "--method", "chebyshev", "--steps", "20", "--seed", "1"],
]

NON_FINITE = re.compile(r"NaN|Infinity")


@st.composite
def weighted_graphs(draw) -> dict:
    """A graph document on 2 to 8 nodes, connected or not, with weights from WEIGHTS."""
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return {"n": n, "edges": [[i, j, draw(st.sampled_from(WEIGHTS))] for i, j in edges]}


def _assert_contract(args: list[str]) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = RUN.invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, repr(result.exception))
    assert not NON_FINITE.search(result.stdout), (args, result.stdout)
    # design prints its rate on stderr, where a NaN reads "nan"
    assert not re.search(r"\bnan\b", result.stderr), (args, result.stderr)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(doc=weighted_graphs())
def test_commands_keep_the_contract_on_weighted_file_graphs(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.json"
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            _assert_contract([*command, f"file:{path}"])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(alpha=st.sampled_from(BAND_ENDS), beta=st.sampled_from(BAND_ENDS),
       periods=st.lists(st.sampled_from(PERIODS), min_size=1, max_size=3))
def test_commands_keep_the_contract_on_bands_and_periods(alpha, beta, periods):
    band = f"{alpha!r},{beta!r}"
    for command in BAND_COMMANDS:
        if command[0].startswith("table"):
            options = ["--periods", ",".join(map(str, periods))]
        else:
            options = ["-M", str(periods[0])]
        _assert_contract([*command, "--band", band, *options])
