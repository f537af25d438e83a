"""The CLI's contract, fuzzed: every invocation ends with exit 0, 1 or 2,
raises nothing but click's exit, emits no warning and prints no NaN or
Infinity token, on weighted graph documents, on bands and periods, on graph
specs, on sequence documents, from the worst eigenvector on bands and
periods, on state documents and on seeds."""

import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speccon import cli
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

# Band ends: the least subnormal, ordinary values, a pair one ulp apart, ends
# whose ratio, or sum, is past the float range, and the float maximum.
BAND_ENDS = [5e-324, 1e-300, 0.2, 1.0, 1.0000000000000002, 12.8, 1e300, 1e308,
             1.7976931348623157e308]
PERIODS = [1, 2, 5, 60, 400]

# Each command takes the band and the periods last: a list for the tables,
# its first entry as -M for the others.
BAND_COMMANDS = [
    ["table2", "--format", "json"],
    ["table3", "--format", "json"],
    ["design", "--method", "chebyshev"],
    ["simulate", "--graph", "cycle:8", "--method", "chebyshev", "--steps", "20", "--seed", "1"],
    ["response", "--samples", "5"],
    ["sweep", "--nodes", "20", "--trials", "1", "--seed", "1", "--format", "json"],
]

# Spec parameters: sizes and counts up to 64, so no graph past 128 nodes (a
# bipartite 64,64) is built, a count past numpy's index range, refused before
# any allocation, probabilities in and out of [0, 1], a subnormal, non-finite
# and non-numeric tokens, and an empty one. A spec with its family's number of
# parameters draws each one half the time from the valid values of its type.
SPEC_TOKENS = ["-3", "0", "2", "12", "64", "2.5", "1e3", "nan", "inf", "-0.5", "1e-320", "",
               "9223372036854775808"]
VALID_TOKENS = {int: ["2", "12", "64"], float: ["0", "0.3", "1", "1e-320"]}

# Graphs for --x0 worst_eigenvector, whose run starts from the eigenvector
# where |h| peaks: spectra with and without repeated eigenvalues, and ends in
# and out of the drawn bands. Each band method reads what _READS names of the
# band and the period; uniform_unknown takes the band's upper end as --beta-bar.
WORST_EIGENVECTOR_GRAPHS = ["cycle:8", "star:6", "path:5", "bipartite:3,4", "complete:5"]

# Sequence document values: gains from the least subnormal to 1e308, ones
# that are not positive or not finite, and ones that are not numbers; periods
# that are the gain count or not; bands that are valid, reversed, of the wrong
# length, not numbers, non-finite or not a list. A key drawn as ABSENT is left out.
ABSENT = object()
GAINS = [5e-324, 1e-300, 0.05, 0.25, 1.0, 1e308, -0.1, 0.0, math.nan, math.inf, True, "0.1",
         None, [0.1]]
SEQUENCE_PERIODS = [ABSENT, "count", 0, 1, 2.0, 2.5, -1, 10 ** 20, math.nan, True, "2", None]
SEQUENCE_BANDS = [ABSENT, None, [0.2, 20], [5, 1], [0, 1], [1], [1, 2, 3], ["a", 1], [True, 2],
                  [5e-324, 1e308], [1e308, 1.5e308], [math.nan, 1], [1, math.inf], "0.2,20", 7]
METHOD_TAGS = [ABSENT, "custom", "chebyshev", "finite_time", "bogus", 3]

# Each command takes the sequence file last.
SEQUENCE_COMMANDS = [
    ["simulate", "--graph", "cycle:8", "--steps", "12", "--seed", "1", "--sequence"],
    ["simulate", "--graph", "star:6", "--steps", "6", "--seed", "1", "--x0", "worst_eigenvector",
     "--sequence"],
]

# State document entries, as raw JSON text: finite floats, ordinary ones, ones
# near the ends of the float range and the least subnormal; and others, NaN
# and Infinity tokens, integers of 400 digits and entries that are not
# numbers. A document is a list of them, another JSON value or an empty file.
FINITE_STATES = ["0", "1", "-2.5", "1e308", "-1e308", "8.9e307", "-8.9e307", "5e-324", "-5e-324"]
OTHER_STATES = ["NaN", "Infinity", "-Infinity", "9" * 400, "-" + "9" * 400, "true", "false",
                '"1"', '"nan"', "null", "[1]", "[]", "{}"]
NON_LIST_STATES = ["", "{}", '{"x0": [1, 2]}', "3", "NaN", '"1,2"', "null", "true"]

# Each command takes the state file last, after file:. Their graphs have 8
# and 6 nodes, so a list of either length has the right length for one.
STATE_COMMANDS = [
    ["simulate", "--graph", "cycle:8", "--method", "chebyshev", "--band", "0.2,20", "-M", "3",
     "--steps", "12", "--seed", "1", "--x0"],
    ["simulate", "--graph", "star:6", "--method", "lagrange", "--band", "0.5,6", "-M", "2",
     "--steps", "12", "--seed", "1", "--x0"],
]

# Seeds: a negative one, which numpy's generators refuse, zero, and one past
# 64 bits. Each seeded command takes --seed last.
SEEDS = ["-1", "0", str(2 ** 64)]
SEEDED_COMMANDS = [
    ["sweep", "--trials", "1", "--nodes", "20", "--edge-prob", "0.3"],
    ["simulate", "--graph", "path:4", "--method", "constant", "--band", "0.2,4", "--steps", "2"],
    ["graph", "generate", "ws:12,4,0.3"],
    ["graph", "inspect", "--format", "json", "er:12,0.5"],
]

NON_FINITE = re.compile(r"NaN|Infinity")


@st.composite
def weighted_graphs(draw) -> dict:
    """A graph document on 2 to 8 nodes, connected or not, with weights from WEIGHTS."""
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return {"n": n, "edges": [[i, j, draw(st.sampled_from(WEIGHTS))] for i, j in edges]}


@st.composite
def graph_specs(draw) -> str:
    """A spec of each family of ``cli._SPECS`` or an unknown one, with its
    number of parameters or any from 0 to 4."""
    kind = draw(st.sampled_from([*cli._SPECS, "lattice"]))
    casts = list(cli._SPECS[kind][1].values()) if kind in cli._SPECS else [int]
    count = draw(st.one_of(st.just(len(casts)), st.integers(0, 4)))
    if count == len(casts):
        params = [draw(st.sampled_from(SPEC_TOKENS) | st.sampled_from(VALID_TOKENS[cast]))
                  for cast in casts]
    else:
        params = draw(st.lists(st.sampled_from(SPEC_TOKENS), min_size=count, max_size=count))
    return f"{kind}:{','.join(params)}" if params or draw(st.booleans()) else kind


@st.composite
def sequence_documents(draw):
    """A --sequence document: a dict with each key present or not, or
    another JSON value; ``json.dumps`` writes NaN and Infinity tokens, which
    the document reader accepts."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from([[], [0.1], "gains", 3, None, {}]))
    doc = {}
    if draw(st.integers(0, 7)):
        doc["gains"] = draw(st.lists(st.sampled_from(GAINS), max_size=4))
    for key, values in (("period", SEQUENCE_PERIODS), ("method", METHOD_TAGS),
                        ("band", SEQUENCE_BANDS)):
        value = draw(st.sampled_from(values))
        if value == "count":
            value = len(doc.get("gains", []))
        if value is not ABSENT:
            doc[key] = value
    return doc


@st.composite
def state_documents(draw) -> str:
    """The text of an --x0 file: a list, mostly of one of the graphs' lengths,
    of finite entries half the time, ordinary ones in most places, and of any
    entry otherwise; or one of NON_LIST_STATES."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(NON_LIST_STATES))
    length = draw(st.sampled_from([6, 8]) | st.integers(0, 10))
    entries = FINITE_STATES if draw(st.booleans()) else FINITE_STATES + OTHER_STATES
    tokens = draw(st.lists(st.sampled_from(FINITE_STATES[:3]) | st.sampled_from(entries),
                           min_size=length, max_size=length))
    return f"[{', '.join(tokens)}]"


def _assert_contract(args: list[str], quotes_input: bool = False) -> None:
    """``quotes_input``: an error may quote the input, such as a 'nan' token
    of a spec, so quoted text is not searched for a NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = RUN.invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        args, repr(result.exception))
    assert not NON_FINITE.search(result.stdout), (args, result.stdout)
    # design prints its rate on stderr, where a NaN reads "nan"
    stderr = re.sub(r"'[^']*'", "", result.stderr) if quotes_input else result.stderr
    assert not re.search(r"\bnan\b", stderr), (args, result.stderr)


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


@settings(max_examples=200, derandomize=True, deadline=None)
@example(spec="ws:64,12,0.3")  # the random families, which few draws build
@example(spec="er:64,0.3")
@given(spec=graph_specs())
def test_graph_commands_keep_the_contract_on_specs(spec):
    _assert_contract(["graph", "inspect", "--format", "json", "--seed", "1", spec], True)
    _assert_contract(["graph", "generate", "--seed", "1", spec], True)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=sequence_documents())
def test_simulate_keeps_the_contract_on_sequence_documents(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.json"
        path.write_text(json.dumps(doc))
        for command in SEQUENCE_COMMANDS:
            _assert_contract([*command, str(path)])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graph=st.sampled_from(WORST_EIGENVECTOR_GRAPHS),
       method=st.sampled_from([m for m in cli.METHODS if m != "finite_time"]),
       alpha=st.sampled_from(BAND_ENDS), beta=st.sampled_from(BAND_ENDS),
       period=st.sampled_from(PERIODS))
def test_simulate_keeps_the_contract_from_the_worst_eigenvector_on_bands_and_periods(
        graph, method, alpha, beta, period):
    given = {"--band": f"{alpha!r},{beta!r}", "--beta-bar": repr(beta), "-M": str(period)}
    options = [x for key in cli._READS[method] for x in (key, given[key])]
    _assert_contract(["simulate", "--graph", graph, "--method", method, *options, "--steps", "12",
                      "--seed", "1", "--x0", "worst_eigenvector"])


@settings(max_examples=200, derandomize=True, deadline=None)
@example(text="[8.9e307, -8.9e307, 0, 0, 0, 0, 0, 0]")  # the states overflow: exit 1
@given(text=state_documents())
def test_simulate_keeps_the_contract_on_state_documents(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x0.json"
        path.write_text(text)
        for command in STATE_COMMANDS:
            _assert_contract([*command, f"file:{path}"], True)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_seeded_commands_keep_the_contract_on_seeds(command, seed):
    _assert_contract([*command, "--seed", seed])


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_an_omitted_seed_is_seed_zero(command):
    omitted, zero = (RUN.invoke(main, args) for args in (command, [*command, "--seed", "0"]))
    assert omitted.exit_code == zero.exit_code == 0
    assert omitted.stdout == zero.stdout
