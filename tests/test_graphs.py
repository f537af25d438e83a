import ast
import inspect
import json
import math
import mmap
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speccon import (
    ConnectivityError,
    GenerationError,
    Graph,
    LaplacianSpectrum,
    NumericalError,
    ParameterError,
    SpectralBand,
    analytic_spectrum,
    band_contains,
    build_graph,
    distinct_nonzero_eigenvalues,
    graph_from_dict,
    graph_to_dict,
    laplacian,
    spectrum,
)
from speccon import filters, graphs, rates
from speccon.cli import main
from speccon.graphs import _eig_error, edge_arrays, is_connected

SRC = Path(__file__).parents[1] / "src"
WEIGHTED = Path(__file__).parent / "data" / "graph_weighted24.json"

# Connected 12-node Watts-Strogatz instance (n=12, k=4, p=0.3, seed=7), frozen
# from a run whose connectivity was verified by an independent breadth-first
# search.
WS_GOLDEN_EDGES = [
    [0, 1], [0, 2], [0, 3], [0, 10], [0, 11], [1, 2], [1, 3], [1, 7], [1, 8],
    [1, 11], [2, 3], [2, 4], [3, 5], [3, 9], [4, 5], [4, 6], [5, 9], [5, 10],
    [6, 7], [6, 8], [7, 8], [8, 9], [9, 11], [10, 11],
]


def _graph_of(a):
    """The graph of a dense symmetric adjacency, through its upper triangle."""
    i, j = np.nonzero(np.triu(a))
    return Graph(a.shape[0], i, j, a[i, j])


def _assert_same_graph(g, h):
    assert g.n == h.n
    for x, y in zip(edge_arrays(g), edge_arrays(h)):
        assert x.tobytes() == y.tobytes()


def test_star_adjacency_center_first():
    g = build_graph("star", n=4)
    expected = np.zeros((4, 4))
    expected[0, 1:] = expected[1:, 0] = 1.0
    _assert_edges_of(g, expected)


def test_cycle3_equals_complete3():
    _assert_same_graph(build_graph("cycle", n=3), build_graph("complete", n=3))


def test_watts_strogatz_golden_and_deterministic():
    g = build_graph("watts_strogatz", n=12, k=4, p=0.3, seed=7)
    edges = [[i, j] for i, j, _ in graph_to_dict(g)["edges"]]
    assert edges == WS_GOLDEN_EDGES
    # spot-check connectivity independently of the library BFS
    adj = {i: set() for i in range(12)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    assert len(seen) == 12
    again = build_graph("watts_strogatz", n=12, k=4, p=0.3, seed=7)
    _assert_same_graph(g, again)


def test_random_connected_deterministic():
    g1 = build_graph("random_connected", n=25, p=0.2, seed=5)
    g2 = build_graph("random_connected", n=25, p=0.2, seed=5)
    _assert_same_graph(g1, g2)
    assert spectrum(g1).is_connected()


def test_random_connected_exhausts_retries():
    with pytest.raises(GenerationError):
        build_graph("random_connected", n=40, p=1e-6, seed=0)


@pytest.mark.parametrize("kwargs", [
    dict(family="complete", n=1),
    dict(family="star", n=-3),
    dict(family="cycle", n=2),
    dict(family="watts_strogatz", n=12, k=3, p=0.3, seed=1),   # odd k
    dict(family="watts_strogatz", n=12, k=12, p=0.3, seed=1),  # k >= n
    dict(family="watts_strogatz", n=12, k=4, p=1.5, seed=1),
    dict(family="random_connected", n=12, p=0.0, seed=1),
    dict(family="complete_bipartite", m=3),
    dict(family="nonesuch", n=5),
])
def test_build_graph_rejects_bad_params(kwargs):
    family = kwargs.pop("family")
    with pytest.raises(ParameterError):
        build_graph(family, **kwargs)


@pytest.mark.parametrize("family,params,message", [
    # a string p reached a comparison with a float: a raw TypeError
    ("watts_strogatz", dict(n=12, k=4, p="0.3"), "parameter 'p' must be a number, got '0.3'"),
    ("random_connected", dict(n=12, p="0.5"), "parameter 'p' must be a number, got '0.5'"),
    # a bool was read as 0 or 1: K_{1,3}, and a rewiring at p = 1.0
    ("complete_bipartite", dict(m=True, n=3), "parameter 'm' must be a number, got True"),
    ("watts_strogatz", dict(n=12, k=4, p=True), "parameter 'p' must be a number, got True"),
    # a parameter the family does not take was ignored
    ("star", dict(n=5, k=3), "graph family 'star' takes no parameter 'k'"),
    ("star", dict(n=5, p=0.3), "graph family 'star' takes no parameter 'p'"),
    # a NaN or infinite count was a raw ValueError or OverflowError
    ("complete", dict(n=math.nan), "parameter 'n' must be an integer >= 2, got nan"),
    ("cycle", dict(n=math.inf), "parameter 'n' must be an integer >= 3, got inf"),
    ("complete_bipartite", dict(m=-math.inf, n=3),
     "parameter 'm' must be an integer >= 1, got -inf"),
    ("watts_strogatz", dict(n=12, k=math.nan, p=0.3),
     "parameter 'k' must be an integer >= 2, got nan"),
    # a count numpy cannot address was named n, whichever parameter it was
    ("complete_bipartite", dict(m=10 ** 20, n=1),
     f"m={10 ** 20} nodes is too many: numpy cannot address an n x n Laplacian"),
    ("watts_strogatz", dict(n=10, k=10 ** 20, p=0.3),
     f"k={10 ** 20} nodes is too many: numpy cannot address an n x n Laplacian"),
    # past 4300 digits str() raised a raw ValueError: shown as sign and digit count
    pytest.param("complete", dict(n=10 ** 5000),
                 "n=<5001 digits> nodes is too many: numpy cannot address an n x n Laplacian",
                 id="n-5001-digits"),
    pytest.param("watts_strogatz", dict(n=12, k=1 - 10 ** 5000, p=0.3),
                 "parameter 'k' must be an integer >= 2, got -<5000 digits>", id="k-5000-digits"),
    pytest.param("path", dict(n=-2 ** 20000), "parameter 'n' must be an integer >= 2, got "
                 "-<6021 digits>", id="n-6021-digits"),
    # an int past the float range was a raw OverflowError
    pytest.param("random_connected", dict(n=12, p=10 ** 400),
                 "parameter 'p' is past the float range", id="p-past-the-float-range"),
    pytest.param("watts_strogatz", dict(n=12, k=4, p=-10 ** 400),
                 "parameter 'p' is past the float range", id="p-below-the-float-range"),
])
def test_family_parameters_outside_the_one_rule_are_refused(family, params, message):
    with pytest.raises(ParameterError) as info:
        build_graph(family, seed=1, **params)
    assert str(info.value) == message
    if family not in ("watts_strogatz", "random_connected"):
        with pytest.raises(ParameterError) as info:
            analytic_spectrum(family, **params)
        assert str(info.value) == message


# One below the least value of each integer parameter of each family, the
# other parameters valid: (family, parameters, spec, name, least value).
BELOW_LEAST = [
    ("complete", dict(n=1), "complete:1", "n", 2),
    ("star", dict(n=1), "star:1", "n", 2),
    ("cycle", dict(n=2), "cycle:2", "n", 3),
    ("path", dict(n=1), "path:1", "n", 2),
    ("complete_bipartite", dict(m=0, n=3), "bipartite:0,3", "m", 1),
    ("complete_bipartite", dict(m=3, n=0), "bipartite:3,0", "n", 1),
    ("watts_strogatz", dict(n=2, k=2, p=0.3), "ws:2,2,0.3", "n", 3),
    ("watts_strogatz", dict(n=12, k=1, p=0.3), "ws:12,1,0.3", "k", 2),
    ("random_connected", dict(n=1, p=0.5), "er:1,0.5", "n", 2),
]


@pytest.mark.parametrize("family,params,spec,name,least", BELOW_LEAST)
def test_parameter_below_its_least_value_is_refused_on_every_path(
        family, params, spec, name, least):
    message = f"parameter '{name}' must be an integer >= {least}, got {least - 1}"
    with pytest.raises(ParameterError) as info:
        build_graph(family, seed=1, **params)
    assert str(info.value) == message
    if family not in ("watts_strogatz", "random_connected"):
        with pytest.raises(ParameterError) as info:
            analytic_spectrum(family, **params)
        assert str(info.value) == message
    result = CliRunner().invoke(main, ["graph", "inspect", spec])
    assert result.exit_code == 2
    assert result.stderr.endswith(f"\nError: Invalid value: bad graph spec {spec!r}: {message}\n")


@pytest.mark.parametrize("spec,name", [
    ("ws:10,99999999999999999999,0.3", "k"), ("bipartite:99999999999999999999,1", "m")])
def test_a_count_numpy_cannot_address_is_named(spec, name):
    result = CliRunner().invoke(main, ["graph", "inspect", spec])
    assert result.exit_code == 2
    assert result.stderr.endswith(
        f"\nError: Invalid value: bad graph spec {spec!r}: {name}=99999999999999999999 nodes "
        "is too many: numpy cannot address an n x n Laplacian\n")


def test_the_bipartite_size_names_the_sum():
    # the sum was named n, though n is 2**29
    with pytest.raises(ParameterError, match=re.escape("m+n=1073741824 nodes is too many")):
        build_graph("complete_bipartite", m=2 ** 29, n=2 ** 29)


def test_graph_invariants_enforced():
    with pytest.raises(ParameterError):
        Graph(2, [0], [1], [-1.0])  # negative weight
    for bad in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            Graph(2, [0], [1], [bad])  # non-finite weight
    g = build_graph("path", n=2)
    for x in edge_arrays(g):
        with pytest.raises(ValueError):
            x[0] = 5  # the edge arrays are read-only


# One case per branch of the constructor's validation, each told by its message.
@pytest.mark.parametrize("n,i,j,w,match", [
    (1, [], [], [], "n must be an integer >= 2"),
    (2.5, [0], [1], [1.0], "n must be an integer >= 2"),
    (3, [[0, 1]], [[1, 2]], [[1.0, 1.0]], "1-D"),
    (3, [0, 1], [1, 2], [1.0], "equal length"),
    (3, [1], [0], [1.0], "i < j"),
    (3, [1], [1], [1.0], "i < j"),
    (3, [-1], [1], [1.0], "0 <= i"),
    (3, [0], [3], [1.0], "j < 3"),
    (3, [1, 0], [2, 1], [1.0, 1.0], "sorted"),
    (3, [0, 0], [1, 1], [1.0, 1.0], "unique"),
    (3, [0], [1], [0.0], "positive"),
    (3, [0], [1], [-1.0], "positive"),
    (3, [0], [1], [math.inf], "finite"),
    (3, [0], [1], [math.nan], "finite"),
    # indices are kept as given, never cast: these were edges (0, 1), (1, 2)
    (3, [0.5, 1.7], [1.2, 2.9], [1.0, 1.0], "integers"),
    (3, [False, True], [True, True], [1.0, 1.0], "integers"),
    (3, [0, math.inf], [1, 2], [1.0, 1.0], "integers"),
    (3, [0.0], [1e20], [1.0], "integers"),  # its cast to intp is undefined
    (3, [False, 1], [1, 2], [1.0, 1.0], "integers"),  # np.asarray casts the bool with the int
    (3, [0, 0], [2, 1], [1.0, 1.0], "sorted"),
    # i * n + j overflowed int64 here; no n x n array of these fits numpy's sizes
    (2 ** 63, [0], [1], [1.0], "cannot address"),
    (2 ** 32, [0], [1], [1.0], "cannot address"),
    # NaN was a raw ValueError, inf an OverflowError, and True a count below 2
    (math.nan, [], [], [], "n must be an integer >= 2, got nan"),
    (math.inf, [0], [1], [1.0], "n must be an integer >= 2, got inf"),
    (-math.inf, [0], [1], [1.0], "n must be an integer >= 2, got -inf"),
    (True, [0], [1], [1.0], "n must be a number, got True"),
    # a weight past the float range was a raw OverflowError, a huge n a raw ValueError
    (3, [0], [1], [10 ** 400], "edge weights must be finite"),
    pytest.param(10 ** 5000, [], [], [], "n=<5001 digits> nodes is too many", id="n-5001-digits"),
])
def test_graph_rejects_invalid_edges(n, i, j, w, match):
    with pytest.raises(ParameterError, match=match):
        Graph(n, i, j, w)


@pytest.mark.parametrize("family,params", [
    ("complete", dict(n=2 ** 32)),
    ("star", dict(n=2 ** 32)),
    ("watts_strogatz", dict(n=2 ** 63, k=4, p=0.1)),
    ("complete_bipartite", dict(m=2 ** 29, n=2 ** 29)),  # each part fits, not both
])
def test_build_graph_refuses_node_counts_numpy_cannot_address(family, params):
    # refused before any array of that length is made
    with pytest.raises(ParameterError, match="cannot address"):
        build_graph(family, **params)


def test_graph_keeps_integral_indices_and_read_only_arrays():
    assert graph_to_dict(Graph(3, [0.0, 1.0], np.array([1, 2], dtype=np.uint8), [1.0, 2.0])) \
        == {"n": 3, "edges": [[0, 1, 1.0], [1, 2, 2.0]]}
    arrays = [np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])]
    for a in arrays:
        a.flags.writeable = False
    g = Graph(3, *arrays)
    assert all(x is a for x, a in zip(edge_arrays(g), arrays))  # handed over, not copied


def test_laplacian_examples():
    assert np.array_equal(laplacian(build_graph("path", n=2)),
                          np.array([[1.0, -1.0], [-1.0, 1.0]]))
    lap3 = laplacian(build_graph("complete", n=3))
    assert np.array_equal(np.diag(lap3), [2.0, 2.0, 2.0])
    assert np.all(lap3[~np.eye(3, dtype=bool)] == -1.0)
    lap_star = laplacian(build_graph("star", n=4))
    assert np.array_equal(np.diag(lap_star), [3.0, 1.0, 1.0, 1.0])
    assert np.array_equal(lap_star[0], [3.0, -1.0, -1.0, -1.0])


@pytest.mark.parametrize("family,kwargs", [
    ("complete", dict(n=7)),
    ("star", dict(n=12)),
    ("cycle", dict(n=12)),
    ("path", dict(n=6)),
    ("complete_bipartite", dict(m=3, n=4)),
    ("watts_strogatz", dict(n=12, k=4, p=0.3, seed=7)),
    ("random_connected", dict(n=20, p=0.3, seed=3)),
])
def test_laplacian_and_spectrum_invariants(family, kwargs):
    g = build_graph(family, **kwargs)
    lap = laplacian(g)
    assert np.abs(lap.sum(axis=1)).max() <= 1e-12
    assert np.array_equal(lap, lap.T)
    s = spectrum(g)
    scale = max(1.0, s.lambda_max)
    assert abs(s.eigenvalues[0]) <= 1e-9 * scale
    assert s.lambda_max <= 2.0 * s.max_degree + 1e-9
    assert np.all(np.diff(s.eigenvalues) >= 0.0)
    assert np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(g.n)).max() <= 1e-9
    recon = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
    assert np.abs(recon - lap).max() <= 1e-8 * scale
    ones = np.ones(g.n) / math.sqrt(g.n)
    v1 = s.eigenvectors[:, 0]
    assert min(np.abs(v1 - ones).max(), np.abs(v1 + ones).max()) <= 1e-8


def test_spectrum_star12():
    s = spectrum(build_graph("star", n=12))
    assert np.allclose(s.eigenvalues, [0.0] + [1.0] * 10 + [12.0], atol=1e-9)


def test_spectrum_cycle12_distinct_values():
    s = spectrum(build_graph("cycle", n=12))
    got = distinct_nonzero_eigenvalues(s)
    expected = [2.0 - math.sqrt(3.0), 1.0, 2.0, 3.0, 2.0 + math.sqrt(3.0), 4.0]
    assert np.allclose(got, expected, atol=1e-8)
    assert np.allclose(np.round(expected, 4), [0.2679, 1.0, 2.0, 3.0, 3.7321, 4.0])


def test_spectrum_complete5():
    s = spectrum(build_graph("complete", n=5))
    assert np.allclose(s.eigenvalues, [0.0, 5.0, 5.0, 5.0, 5.0], atol=1e-9)


def test_analytic_spectrum_examples():
    assert analytic_spectrum("star", n=12) == [(0.0, 1), (1.0, 10), (12.0, 1)]
    assert analytic_spectrum("complete_bipartite", m=2, n=3) == [
        (0.0, 1), (2.0, 2), (3.0, 1), (5.0, 1)]
    path6 = analytic_spectrum("path", n=6)
    assert [m for _, m in path6] == [1] * 6
    assert np.allclose(np.round([v for v, _ in path6][1:], 4),
                       [0.2679, 1.0, 2.0, 3.0, 3.7321])
    with pytest.raises(ParameterError):
        analytic_spectrum("watts_strogatz", n=12)


def _families_grid():
    for n in range(2, 21):
        yield "complete", dict(n=n)
        yield "star", dict(n=n)
        yield "path", dict(n=n)
        if n >= 3:
            yield "cycle", dict(n=n)
    for m in range(1, 11):
        for n in range(1, 11):
            if m + n >= 2:
                yield "complete_bipartite", dict(m=m, n=n)


@pytest.mark.parametrize("family,kwargs", list(_families_grid()))
def test_analytic_matches_numeric(family, kwargs):
    pairs = analytic_spectrum(family, **kwargs)
    flat = np.repeat([v for v, _ in pairs], [m for _, m in pairs])
    g = build_graph(family, **kwargs)
    assert flat.size == g.n
    assert np.abs(np.sort(flat) - spectrum(g).eigenvalues).max() <= 1e-8


def test_distinct_nonzero_star_and_complete():
    assert np.allclose(distinct_nonzero_eigenvalues(spectrum(build_graph("star", n=12))),
                       [1.0, 12.0], atol=1e-8)
    assert np.allclose(distinct_nonzero_eigenvalues(spectrum(build_graph("complete", n=5))),
                       [5.0], atol=1e-8)


def test_distinct_nonzero_grouping_and_separation():
    s = spectrum(build_graph("cycle", n=12))
    tol = 1e-8
    got = distinct_nonzero_eigenvalues(s)
    radius = tol * max(1.0, s.lambda_max)
    for v in s.eigenvalues[1:]:
        hits = [u for u in got if abs(u - v) <= radius]
        assert len(hits) == 1
    assert all(b - a > radius for a, b in zip(got, got[1:]))


def test_distinct_nonzero_disconnected_raises():
    s = spectrum(Graph(4, [0, 2], [1, 3], [1.0, 1.0]))  # edges (0, 1) and (2, 3)
    with pytest.raises(ConnectivityError):
        distinct_nonzero_eigenvalues(s)


def test_band_contains():
    band = SpectralBand(0.2, 12.8)
    assert band_contains(spectrum(build_graph("star", n=12)), band)
    assert not band_contains(spectrum(build_graph("complete", n=5)), SpectralBand(0.2, 4.0))
    s = spectrum(build_graph("cycle", n=12))
    assert band_contains(s, SpectralBand(s.lambda_2, 4.0))  # boundary inclusive


def test_band_validation():
    with pytest.raises(ParameterError):
        SpectralBand(0.0, 1.0)
    with pytest.raises(ParameterError):
        SpectralBand(5.0, 2.0)
    with pytest.raises(ParameterError):
        SpectralBand(1.0, math.inf)
    with pytest.raises(ParameterError):
        SpectralBand(math.inf, math.inf)
    for ends in ((1, 10 ** 400), (-10 ** 400, 1)):  # was a raw OverflowError
        with pytest.raises(ParameterError, match="^band requires finite endpoints$"):
            SpectralBand(*ends)


def test_graph_json_roundtrip(tmp_path):
    g = build_graph("watts_strogatz", n=12, k=4, p=0.3, seed=7)
    path = tmp_path / "graph.json"
    runner = CliRunner()
    written = runner.invoke(main, ["graph", "generate", "ws:12,4,0.3", "--seed", "7",
                                   "--out", str(tmp_path)], catch_exceptions=False)
    assert written.exit_code == 0 and written.stdout_bytes == path.read_bytes()
    doc = json.loads(path.read_text())
    _assert_same_graph(graph_from_dict(doc), g)
    assert all(i < j and w > 0 for i, j, w in doc["edges"])
    reread = runner.invoke(main, ["graph", "generate", f"file:{path}"], catch_exceptions=False)
    assert reread.exit_code == 0
    assert reread.stdout_bytes == path.read_bytes()


def test_graph_from_dict_symmetrizes_and_validates():
    g = graph_from_dict({"n": 3, "edges": [[2, 0, 1.5]]})
    assert [x.tolist() for x in edge_arrays(g)] == [[0], [2], [1.5]]
    with pytest.raises(ParameterError):
        graph_from_dict({"n": 3, "edges": [[0, 0, 1.0]]})
    with pytest.raises(ParameterError):
        graph_from_dict({"n": 3, "edges": [[0, 5, 1.0]]})
    with pytest.raises(ParameterError):
        graph_from_dict({"n": 3, "edges": [[0, 1, -2.0]]})
    with pytest.raises(ParameterError):
        graph_from_dict({"n": 3, "edges": [[0, 1, math.inf], [1, 2, 1.0]]})
    with pytest.raises(ParameterError):
        graph_from_dict({"edges": []})


def test_spectrum_group_tol_threads_to_connectivity():
    s = spectrum(build_graph("path", n=2))
    assert isinstance(s, LaplacianSpectrum)
    assert s.is_connected()


# The five special families plus seeded random instances.
VALUES_ONLY_CASES = [
    ("complete", dict(n=7)),
    ("star", dict(n=12)),
    ("cycle", dict(n=12)),
    ("path", dict(n=6)),
    ("complete_bipartite", dict(m=3, n=4)),
    ("watts_strogatz", dict(n=40, k=4, p=0.3, seed=7)),
    ("watts_strogatz", dict(n=60, k=6, p=0.1, seed=8)),
    ("random_connected", dict(n=50, p=0.2, seed=3)),
    ("random_connected", dict(n=80, p=0.08, seed=4)),
]


@pytest.mark.parametrize("family,kwargs", VALUES_ONLY_CASES)
def test_values_only_spectrum_matches_full(family, kwargs):
    g = build_graph(family, **kwargs)
    full = spectrum(g)
    vals = spectrum(g, vectors=False)
    assert vals.eigenvectors is None
    assert vals.max_degree == full.max_degree
    scale = max(1.0, full.lambda_max)
    assert np.abs(vals.eigenvalues - full.eigenvalues).max() <= 1e-12 * scale
    if family not in ("watts_strogatz", "random_connected"):
        pairs = analytic_spectrum(family, **kwargs)
        flat = np.repeat([v for v, _ in pairs], [m for _, m in pairs])
        assert np.abs(np.sort(flat) - vals.eigenvalues).max() <= 1e-12 * scale


@pytest.mark.parametrize("family,kwargs", VALUES_ONLY_CASES)
def test_scaled_spectrum_matches_scaled_graph(family, kwargs):
    g = build_graph(family, **kwargs)
    s = spectrum(g, vectors=False)
    c = 12.8 / s.lambda_max
    scaled = s.scaled(c)
    i, j, w = edge_arrays(g)
    direct = spectrum(Graph(g.n, i, j, w * c), vectors=False)
    assert scaled.eigenvectors is None
    assert scaled.max_degree == pytest.approx(direct.max_degree, rel=1e-15)
    assert np.abs(scaled.eigenvalues - direct.eigenvalues).max() <= 1e-12 * direct.lambda_max
    full = spectrum(g)
    full_scaled = full.scaled(c)
    assert np.array_equal(full_scaled.eigenvectors, full.eigenvectors)
    assert np.array_equal(full_scaled.eigenvalues, c * full.eigenvalues)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            s.scaled(bad)


def _perturb_numpy(monkeypatch, name, perturb):
    """Make numpy.linalg.<name> return a perturbed result."""
    original = getattr(np.linalg, name)

    def patched(a):
        out = original(a)
        if isinstance(out, np.ndarray):
            return perturb(out.copy())
        vals, vecs = out
        return perturb(vals.copy()), vecs

    monkeypatch.setattr(np.linalg, name, patched)


def _shift(i, delta):
    def perturb(vals):
        vals[i] += delta * max(1.0, vals[-1])
        return vals
    return perturb


def _swap_mass(vals):
    # keeps the trace, changes the sum of squares by about 1e-6 * scale^2
    delta = 1e-6 * vals[-1]
    vals[-1] += delta
    vals[1] -= delta
    return vals


def _poison(vals):
    vals[-1] = np.nan
    return vals


@pytest.mark.parametrize("perturb", [_shift(-1, 1e-6), _shift(2, -1e-6), _swap_mass, _poison,
                                     _shift(-1, 1e-10), _shift(2, -1e-10)])
def test_values_only_moment_checks_reject_perturbed_eigenvalues(monkeypatch, perturb):
    g = build_graph("random_connected", n=40, p=0.2, seed=5)
    spectrum(g, vectors=False)  # unperturbed: accepted
    _perturb_numpy(monkeypatch, "eigvalsh", perturb)
    with pytest.raises(NumericalError):
        spectrum(g, vectors=False)


def test_spectrum_rejects_a_largest_eigenvalue_past_twice_the_degree(monkeypatch):
    # lambda_N >= max_degree + 1 on a connected graph, so 3·lambda_N is past
    # Gershgorin's bound; a NaN fails the first check, as its tolerance is NaN
    g = build_graph("random_connected", n=40, p=0.2, seed=5)
    _perturb_numpy(monkeypatch, "eigvalsh", _shift(-1, 2.0))
    with pytest.raises(NumericalError, match="twice the maximum degree"):
        spectrum(g, vectors=False)


def test_full_spectrum_rejects_nan_eigenvalues(monkeypatch):
    g = build_graph("random_connected", n=40, p=0.2, seed=5)
    _perturb_numpy(monkeypatch, "eigh", _poison)
    with pytest.raises(NumericalError):
        spectrum(g)


def _bump_entry(vals, vecs):
    vecs[3, 5] += 1e-6
    return vals, vecs


def _permute_interior_values(vals, vecs):
    # orthonormal eigenvectors, zero smallest and in-bound largest eigenvalue:
    # only the reconstruction can notice
    vals[1:-1] = vals[1:-1][::-1].copy()
    return vals, vecs


def _stretch_vectors(vals, vecs):
    return vals, vecs * (1.0 + 1e-8)


def _stretch_null_vector(vals, vecs):
    # the null eigenvalue is zero to round-off, so only orthonormality notices
    vecs[:, 0] *= 2.0
    return vals, vecs


def _lift_null_value(vals, vecs):
    # within the reconstruction tolerance, since the null vector has entries
    # 1/sqrt(n): the reconstruction moves by 4/n of the zero-eigenvalue tolerance
    vals[0] += 4 * _eig_error(vals.size, vals[-1])
    return vals, vecs


def _stretch_values(vals, vecs):
    # the reconstruction is off by 1e-10 relative, 1e-10 * max_degree at most
    return vals * (1.0 + 1e-10), vecs


# the message of the one check that can notice a perturbation, where only one can
FAILED_CHECK = {
    _permute_interior_values: "reconstruction",
    _stretch_null_vector: "not orthonormal",
    _lift_null_value: "smallest eigenvalue .* not zero",
    _stretch_values: "reconstruction",
}


@pytest.mark.parametrize("bad", [_bump_entry, _permute_interior_values, _stretch_vectors,
                                 _stretch_null_vector, _lift_null_value, _stretch_values])
def test_full_spectrum_rejects_bad_eigenvectors(monkeypatch, bad):
    g = build_graph("random_connected", n=40, p=0.2, seed=5)
    spectrum(g)  # unperturbed: accepted
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: bad(*(m.copy() for m in original(a))))
    with pytest.raises(NumericalError, match=FAILED_CHECK.get(bad)):
        spectrum(g)


def _move_mass_to_null_value(vals):
    # keeps the trace and, well within its tolerance, the sum of squares, which
    # moves by about 2 * delta * lambda_2
    delta = 4 * _eig_error(vals.size, vals[-1])
    vals[0] += delta
    vals[1] -= delta
    return vals


def test_values_only_checks_read_no_laplacian_entry_after_the_solver(monkeypatch):
    # the moments come from the degrees and the edge weights, read before the
    # solver, so what the solver leaves in its input changes no check
    original = np.linalg.eigvalsh

    def eigvalsh(a):
        vals = original(a)
        a[...] = np.nan
        return vals

    cases = [build_graph("random_connected", n=40, p=0.2, seed=5),
             graph_from_dict(json.loads(WEIGHTED.read_text()))]
    expected = [spectrum(g, vectors=False) for g in cases]
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    for g, e in zip(cases, expected):
        s = spectrum(g, vectors=False)
        assert s.eigenvalues.tobytes() == e.eigenvalues.tobytes()
        assert s.max_degree == e.max_degree


@pytest.mark.parametrize("vectors", [True, False])
def test_both_modes_check_the_moments_from_the_edges(monkeypatch, vectors):
    # the last two tolerances are the trace's and the Frobenius norm's, taken
    # at the dense Laplacian's moments: exactly, as the weights are integers
    g = build_graph("random_connected", n=40, p=0.2, seed=5)
    lap = laplacian(g)
    scales = []
    tolerance = graphs._eig_error
    monkeypatch.setattr(graphs, "_eig_error",
                        lambda n, scale: scales.append(scale) or tolerance(n, scale))
    spectrum(g, vectors=vectors)
    assert scales[-2:] == [np.trace(lap), np.vdot(lap, lap)]


def test_values_only_spectrum_rejects_nonzero_smallest_eigenvalue(monkeypatch):
    g = build_graph("random_connected", n=40, p=0.2, seed=5)
    _perturb_numpy(monkeypatch, "eigvalsh", _move_mass_to_null_value)
    with pytest.raises(NumericalError, match="smallest eigenvalue .* not zero"):
        spectrum(g, vectors=False)


# Each check of graphs.spectrum stays within a tenth of its tolerance on
# these graphs under 1 and 2 BLAS threads, whose last bits differ: the
# tolerances are divided by 10 in a fresh process that sets the thread count.
# The weighted graph file, given as the argument, has non-dyadic weights, on
# which the moments from the edges and the dense sums could round apart.
HEADROOM = """
import sys
from speccon import cli, graphs
tolerance = graphs._eig_error
graphs._eig_error = lambda n, scale: tolerance(n, scale) / 10
graphs.spectrum(cli.parse_graph_spec("ws:2000,6,0.3", 1))
for spec in ("er:1000,0.02", "er:100,0.08", "path:80", "complete:200", "cycle:12",
             "bipartite:6,6"):
    graphs.spectrum(cli.parse_graph_spec(spec, 1), vectors=False)
weighted = cli.parse_graph_spec("file:" + sys.argv[1])
for vectors in (True, False):
    graphs.spectrum(weighted, vectors=vectors)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_spectral_checks_have_tenfold_headroom(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", HEADROOM, str(WEIGHTED)], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_spectral_checks_take_every_tolerance_from_the_error_rule():
    # no hand-set tolerance: each one is a multiple of _eig_error, reached
    # directly or through _widened
    for fn in (graphs.spectrum, graphs._widened, graphs.band_contains, rates._in_band_check):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        numbers = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                   and type(node.value) in (int, float)}
        assert numbers <= {0, 1, 2}, fn.__name__
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert names & {"_eig_error", "_widened"}, fn.__name__


def test_laplacian_refuses_weights_whose_frobenius_norm_squared_overflows():
    # finite weights, but twice ||L||_F^2 is not a finite float: degrees that
    # overflow, and finite degrees whose squares do
    for g in (Graph(2, [0], [1], [1e308]), Graph(3, [0, 0, 1], [1, 2, 2], [1e308] * 3),
              Graph(2, [0], [1], [8e307]), Graph(3, [0, 0, 1], [1, 2, 2], [1e160] * 3)):
        with pytest.raises(ParameterError, match=r"twice \|\|L\|\|_F\^2 is not a finite float"):
            laplacian(g)


@pytest.mark.parametrize("vectors,solver", [(True, "eigh"), (False, "eigvalsh")])
def test_spectrum_reports_solver_failure(monkeypatch, vectors, solver):
    def fail(a):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(NumericalError, match="eigendecomposition failed: did not converge"):
        spectrum(build_graph("path", n=4), vectors=vectors)


# ---------------------------------------------------------------------------
# The solver's input: the Laplacian's lower triangle, the upper one's pages never written

@pytest.mark.parametrize("vectors,solver", [(True, "eigh"), (False, "eigvalsh")])
def test_solver_reads_the_lower_triangle_and_returns_the_full_matrix_result(
        monkeypatch, vectors, solver):
    # numpy's solvers read the lower triangle only (UPLO='L'): the upper one
    # is zero in their input, and the result is the full Laplacian's, bit for bit
    original = getattr(np.linalg, solver)
    inputs = []
    monkeypatch.setattr(np.linalg, solver, lambda a: inputs.append(a.copy()) or original(a))
    # in the last graph nodes 0 and 2 have no edge: their diagonal entries are zero
    for g in (build_graph("watts_strogatz", n=700, k=6, p=0.3, seed=1),
              graph_from_dict(json.loads(WEIGHTED.read_text())), Graph(4, [1], [3], [1.0])):
        s = spectrum(g, vectors=vectors)
        lap = laplacian(g)
        assert not np.triu(inputs[-1], 1).any()
        assert np.tril(inputs[-1]).tobytes() == np.tril(lap).tobytes()
        vals, vecs = original(lap) if vectors else (original(lap), None)
        assert s.eigenvalues.tobytes() == vals.tobytes()
        if vectors:
            assert s.eigenvectors.tobytes() == vecs.tobytes()
    assert s.eigenvalues.tolist() == [0.0, 0.0, 0.0, 2.0]


def _pages_holding(nonzero, page):
    """Whether each page, of ``page`` bytes, of a row-major float matrix holds
    an entry that ``nonzero`` marks."""
    per_page = page // 8
    padded = np.zeros(-(-nonzero.size // per_page) * per_page, dtype=bool)
    padded[:nonzero.size] = nonzero.ravel()
    return padded.reshape(-1, per_page).any(axis=1)


def _mapped_pages(a):
    """Whether each page of the page-aligned array ``a`` is mapped: bit 63 of
    its /proc/self/pagemap entry."""
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek(8 * (a.ctypes.data // mmap.PAGESIZE))
        entries = np.frombuffer(pagemap.read(8 * -(-a.nbytes // mmap.PAGESIZE)), dtype="<u8")
    return (entries >> 63).astype(bool)


@pytest.mark.skipif(not Path("/proc/self/pagemap").exists(), reason="reads /proc/self/pagemap")
@pytest.mark.parametrize("vectors,solver", [(True, "eigh"), (False, "eigvalsh")])
def test_solver_input_maps_no_page_that_holds_only_upper_entries(monkeypatch, vectors, solver):
    g = build_graph("watts_strogatz", n=700, k=6, p=0.3, seed=1)
    lap = laplacian(g)
    kept = _pages_holding(np.tril(lap) != 0, mmap.PAGESIZE)
    released = _pages_holding(np.triu(lap, 1) != 0, mmap.PAGESIZE) & ~kept
    assert released.sum() == 86  # of the 958 pages
    original = getattr(np.linalg, solver)
    mapped = []
    monkeypatch.setattr(np.linalg, solver, lambda a: mapped.append(_mapped_pages(a)) or original(a))
    spectrum(g, vectors=vectors)
    assert mapped[0][kept].all() and not mapped[0][released].any()


@pytest.mark.parametrize("vectors,solver", [(True, "eigh"), (False, "eigvalsh")])
def test_spectrum_maps_one_matrix_at_a_time(monkeypatch, vectors, solver):
    # values only: the solver's input is the one n x n mapping, and no dense
    # Laplacian is built. With eigenvectors the reconstruction's reference,
    # laplacian(g), is mapped once the solver has returned and its input is gone.
    g = graph_from_dict(json.loads(WEIGHTED.read_text()))
    events, inputs = [], []
    original_map, original_lap = graphs._mapped_zeros, graphs.laplacian
    original_solver = getattr(np.linalg, solver)

    def solve(a):
        inputs.append(weakref.ref(a))
        result = original_solver(a)
        events.append("solver")
        return result

    def lap(h):
        events.append(("laplacian", inputs[-1]() is None))
        return original_lap(h)

    monkeypatch.setattr(graphs, "_mapped_zeros",
                        lambda rows, n: events.append(("map", rows, n)) or original_map(rows, n))
    monkeypatch.setattr(graphs, "laplacian", lap)
    monkeypatch.setattr(np.linalg, solver, solve)
    spectrum(g, vectors=vectors)
    square = ("map", g.n, g.n)
    assert events == ([square, "solver", ("laplacian", True), square] if vectors
                      else [square, "solver"])


@st.composite
def _edge_lists(draw, max_nodes):
    """A node count and a sorted list of node pairs (a, b), a < b, over it."""
    n = draw(st.integers(2, max_nodes))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return n, sorted(draw(st.lists(st.sampled_from(pairs), unique=True)))


def _relabelled(g, perm):
    """``g`` with node k renamed ``perm[k]``."""
    i, j, w = edge_arrays(g)
    low, high = np.minimum(perm[i], perm[j]), np.maximum(perm[i], perm[j])
    order = np.lexsort((high, low))
    return Graph(g.n, low[order], high[order], w[order])


def _assert_relabelling_keeps_the_eigenvalues(g, perm):
    # relabelling moves nonzeros across the triangle and its pages
    h = _relabelled(g, np.asarray(perm))
    for vectors in (True, False):
        s, t = spectrum(g, vectors=vectors), spectrum(h, vectors=vectors)
        err = _eig_error(g.n, s.lambda_max)
        assert np.abs(s.eigenvalues - t.eigenvalues).max() <= err


@settings(max_examples=60, derandomize=True, deadline=None)
@given(graph=_edge_lists(12), data=st.data())
def test_relabelling_the_nodes_keeps_the_eigenvalues(graph, data):
    n, edges = graph
    weights = data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(edges), max_size=len(edges)))
    g = graph_from_dict({"n": n, "edges": [[a, b, w] for (a, b), w in zip(edges, weights)]})
    _assert_relabelling_keeps_the_eigenvalues(g, data.draw(st.permutations(range(n))))


@pytest.mark.parametrize("n,seed", [(300, 3), (700, 1)])  # 700: some pages hold upper entries only
def test_relabelling_a_watts_strogatz_graph_keeps_its_eigenvalues(n, seed):
    g = build_graph("watts_strogatz", n=n, k=6, p=0.3, seed=seed)
    _assert_relabelling_keeps_the_eigenvalues(g, np.random.default_rng(seed).permutation(n))


# ---------------------------------------------------------------------------
# The edge-list core against the dense implementation it replaced

def _dense_watts_strogatz_once(n, k, p, rng):
    """The dense-matrix Watts-Strogatz step that the edge-list builder replaced."""
    a = np.zeros((n, n))
    for j in range(1, k // 2 + 1):
        for i in range(n):
            a[i, (i + j) % n] = 1.0
            a[(i + j) % n, i] = 1.0
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            old = (i + j) % n
            if a[i].sum() >= n - 1:
                continue
            w = int(rng.integers(n))
            while w == i or a[i, w] > 0.0:
                w = int(rng.integers(n))
            a[i, old] = a[old, i] = 0.0
            a[i, w] = a[w, i] = 1.0
    return a


def _dense_erdos_renyi_once(n, p, rng):
    a = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    a[iu[mask], ju[mask]] = 1.0
    return a + a.T


def _dense_is_connected(adjacency):
    """Breadth-first search over dense rows."""
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = [0]
    while queue:
        i = queue.pop(0)
        for j in np.nonzero(adjacency[i] > 0.0)[0]:
            if not seen[j]:
                seen[j] = True
                queue.append(j)
    return bool(seen.all())


def _dense_build(once, seed, n, *args):
    """The dense generator's retry loop: (adjacency, attempts used)."""
    rng = np.random.default_rng(seed)
    for attempt in range(1, 1001):
        a = once(n, *args, rng)
        if _dense_is_connected(a):
            return a, attempt
    raise GenerationError("no connected graph")


def _assert_edges_of(g, a):
    assert g.n == a.shape[0]
    iu, ju = np.nonzero(np.triu(a))
    i, j, w = edge_arrays(g)
    assert np.array_equal(i, iu) and np.array_equal(j, ju)
    assert w.tobytes() == a[iu, ju].tobytes()


GENERATOR_SEEDS = range(20)


@pytest.mark.parametrize("n,k,p", [
    (12, 4, 0.3), (12, 2, 0.9), (100, 6, 0.1), (100, 4, 0.5), (300, 6, 0.3), (300, 2, 1.0),
    (12, 10, 1.0),  # k = n - 2, p = 1: rewiring saturates nodes (the degree-full branch)
])
def test_watts_strogatz_matches_dense_oracle(n, k, p):
    for seed in GENERATOR_SEEDS:
        a, _ = _dense_build(_dense_watts_strogatz_once, seed, n, k, p)
        _assert_edges_of(build_graph("watts_strogatz", n=n, k=k, p=p, seed=seed), a)


def test_saturated_watts_strogatz_reaches_full_degree():
    a, _ = _dense_build(_dense_watts_strogatz_once, 0, 12, 10, 1.0)
    assert a.sum(axis=1).max() == 11.0


@pytest.mark.parametrize("n,p", [(12, 0.3), (12, 0.15), (100, 0.08), (100, 0.3), (300, 0.02),
                                 (300, 0.1),
                                 # more node pairs than one block of draws
                                 (400, 0.02), (1000, 0.01)])
def test_erdos_renyi_matches_dense_oracle(n, p):
    attempts = []
    for seed in GENERATOR_SEEDS:
        a, used = _dense_build(_dense_erdos_renyi_once, seed, n, p)
        attempts.append(used)
        _assert_edges_of(build_graph("random_connected", n=n, p=p, seed=seed), a)
    if p == 0.15:
        assert max(attempts) > 1  # low p: some seeds need connectivity retries


# Each case draws both connected and disconnected graphs.
@pytest.mark.parametrize("n,p", [(2, 0.5), (5, 0.3), (30, 0.1), (200, 0.025)])
def test_is_connected_matches_dense_search(n, p):
    rng = np.random.default_rng(n)
    outcomes = set()
    for _ in range(30):
        a = _dense_erdos_renyi_once(n, p, rng)
        connected = _dense_is_connected(a)
        outcomes.add(connected)
        assert is_connected(_graph_of(a)) is connected
    assert outcomes == {True, False}
    assert is_connected(build_graph("path", n=n))


# Symmetric weights that are not dyadic, so the degrees round differently in
# different orders; about half the entries are zero.
@settings(max_examples=40, deadline=None)
@example(n=700, density=0.5, seed=1, log_scale=0.0)  # long rows
@given(n=st.integers(2, 700), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-3.0, 3.0))
def test_dense_roundtrip_is_bitwise(n, density, seed, log_scale):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.lognormal(log_scale, 2.0, (n, n)) * (rng.random((n, n)) < density), 1)
    a = upper + upper.T
    g = _graph_of(a)
    # the degrees in edge order: every edge's i end, then every edge's j end
    edge_degrees = [0.0] * n
    for ends in edge_arrays(g)[:2]:
        for node, weight in zip(ends.tolist(), edge_arrays(g)[2].tolist()):
            edge_degrees[node] += weight
    assert laplacian(g).tobytes() == (np.diag(edge_degrees) - a).tobytes()
    _assert_edges_of(g, a)
    iu, ju = np.nonzero(np.triu(a))
    assert graph_to_dict(g) == {
        "n": n, "edges": [[int(x), int(y), float(a[x, y])] for x, y in zip(iu, ju)]}


def test_graph_holds_only_its_edges():
    n = 2000
    tracemalloc.start()
    try:
        g = build_graph("watts_strogatz", n=n, k=6, p=0.3, seed=1)
        built, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    dense = 8 * n * n
    assert peak < dense / 8  # 4 MB, an eighth of the dense matrix
    assert built < dense / 8
    assert sum(x.nbytes for x in edge_arrays(g)) < 300_000
    assert edge_arrays(g)[0] is edge_arrays(g)[0]  # stored, not copied
    for x in edge_arrays(g):
        assert not x.flags.writeable


def test_erdos_renyi_holds_no_array_per_node_pair():
    # 2000 nodes have 1999000 node pairs: one int64 or float64 array over
    # them is 16 MB, and the draws themselves are taken a block at a time
    tracemalloc.start()
    try:
        build_graph("random_connected", n=2000, p=0.01, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def _traced(f):
    """``f()`` and the peak of the memory that tracemalloc traces while it runs."""
    tracemalloc.start()
    try:
        result = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_neighbour_sums_allocate_only_two_edge_arrays_and_the_result():
    g = build_graph("random_connected", n=1000, p=0.08, seed=1)
    m = len(edge_arrays(g)[0])
    minus_lap, made = _traced(lambda: graphs._neighbour_sums(g.n, *edge_arrays(g)))
    assert made < m  # nothing of length m, not even of bytes
    x = np.random.default_rng(1).standard_normal(g.n)
    minus_lap(x)
    sums, peak = _traced(lambda: minus_lap(x))
    assert sums.shape == (g.n,)
    assert peak <= 8 * (2 * m + g.n)


@pytest.mark.parametrize("family,params", [
    ("watts_strogatz", dict(n=2000, k=6, p=0.3)),
    ("random_connected", dict(n=1000, p=0.08)),
    # 48000 edges: a copy of one index array, 384 KB more, breaks the bound
    ("complete_bipartite", dict(m=120, n=400)),
])
def test_graph_builders_peak_near_their_edge_arrays(family, params):
    # m = 6000, about 40000 and 48000 edges: the stored arrays are 144, 960
    # and 1152 KB. A first build of a family loads numpy.random's lazily
    # imported modules, so one build runs before the traced one.
    build_graph(family, seed=1, **params)
    g, peak = _traced(lambda: build_graph(family, seed=1, **params))
    assert peak < 1_500_000
    assert all(a.base is None and not a.flags.writeable for a in edge_arrays(g))


def test_extreme_eigenvalues_peak_near_their_basis():
    # tracemalloc does not see the basis, a mapping (see the resident test
    # below): it counts the CSR operator, 2m indices and 2m weights of about
    # 40000 edges, 1.3 MB, its build's temporaries and the per-step ones.
    # The traced peak is 2.3 MB.
    g = build_graph("random_connected", n=1000, p=0.08, seed=2)
    ends, peak = _traced(lambda: graphs.extreme_eigenvalues(g))
    assert ends is not None
    assert peak < 3_500_000


def test_extreme_eigenvalues_grow_their_basis_without_a_copy():
    # tracemalloc sees the CSR operator, 2m indices and 2m weights of 60000
    # edges, 1.9 MB, and the temporaries, not the mapped basis: the traced
    # peak is 4.2 MB. A basis of numpy's memory would count whole, 301 rows of
    # n floats, 48 MB, and a copy of the 177 rows a start writes breaks the bound.
    g = build_graph("watts_strogatz", n=20000, k=6, p=0.3, seed=1)
    ends, peak = _traced(lambda: graphs.extreme_eigenvalues(g))
    assert ends is not None
    assert peak < 52_000_000


# The values-only spectrum of path:1500 in a fresh process, after the solver
# is warmed on a small graph: the peak rises by the solver's input copy plus
# the Laplacian's resident pages. The path writes one diagonal band, so few of
# the Laplacian's pages are resident; a Laplacian backed by huge pages, one
# entry making 2 MiB resident, raised it by about 2.0·8n². The peak is VmHWM,
# that of this process image: ru_maxrss keeps the larger peak of the process
# that started it, here pytest's.
RISE = """
from speccon import graphs
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
g = graphs.build_graph("path", n=1500)
graphs.spectrum(graphs.build_graph("path", n=8), vectors=False)
before = peak()
graphs.spectrum(g, vectors=False)
print(peak() - before)
"""


# extreme_eigenvalues on ws:20000,6,0.3 in a fresh process, after a warm-up on
# a small graph. The rise runs from VmRSS before the call to VmHWM after it, so
# a higher peak while the graph was built cannot hide part of it.
BASIS_RISE = """
from speccon import graphs
def status(key):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith(key + ":"))
g = graphs.build_graph("watts_strogatz", n=20000, k=6, p=0.3, seed=1)
graphs.extreme_eigenvalues(graphs.build_graph("random_connected", n=600, p=0.08, seed=1))
before = status("VmRSS")
assert graphs.extreme_eigenvalues(g) is not None
print(status("VmHWM") - before)
"""


def _resident_rise(script: str) -> int:
    """What ``script`` prints in kB, in bytes, run in a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) * 1024


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_laplacian_keeps_only_its_written_pages_resident():
    assert _resident_rise(RISE) < 1.7 * 8 * 1500 ** 2


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_extreme_eigenvalues_keep_only_their_written_basis_rows_resident():
    # Each start runs 176 products, so it writes 177 of the basis's 301 rows
    # of n = 20000 floats, 27.0 MiB, and frees them before the next start. The
    # CSR operator stores 2m indices and 2m weights (m = 60000 edges); its
    # build holds at most three more arrays of 2m entries at once, and a
    # product one gather, which the heap may keep resident: six arrays of 2m
    # entries, 5.5 MiB: 32.5 MiB in all. A basis that makes its unwritten
    # rows resident, as a zero-filled one of 256 rows does, breaks the bound.
    n, m = 20000, 60000
    assert _resident_rise(BASIS_RISE) < 8 * n * 177 + 6 * 8 * 2 * m


def test_graph_requires_two_nodes():
    with pytest.raises(ParameterError):
        Graph(1, [], [], [])
    with pytest.raises(ParameterError):
        graph_from_dict({"n": 1, "edges": []})


@pytest.mark.parametrize("doc", [
    {"n": -1, "edges": []},
    {"n": 3, "edges": [[0, 1, "x"]]},
    {"n": 3, "edges": [[0, 1, None]]},
    {"n": 3, "edges": [[0, "a", 1.0]]},
    {"n": 3, "edges": [5]},
    {"n": 3, "edges": 7},
    {"n": "three", "edges": []},
    [1, 2, 3],
    # a number is an int or a float, never a bool or a string
    {"n": 3, "edges": [[0, 1, 1.0], [True, 2, 1.0]]},
    {"n": 3, "edges": [[0, 1, "2.5"], [1, 2, 1.0]]},
])
def test_graph_from_dict_rejects_malformed_documents(doc):
    with pytest.raises(ParameterError):
        graph_from_dict(doc)


@pytest.mark.parametrize("doc,message", [
    # a NaN or infinite n was "malformed graph document: cannot convert ..."
    ({"n": math.nan, "edges": []}, "n must be an integer >= 2, got nan"),
    ({"n": math.inf, "edges": []}, "n must be an integer >= 2, got inf"),
    ({"n": 1, "edges": []}, "n must be an integer >= 2, got 1"),
    ({"n": 2.5, "edges": [[0, 1, 1.0]]}, "n must be an integer >= 2, got 2.5"),
    ({"n": 3, "edges": [[-1, 1, 1.0]]}, "a node index must be an integer >= 0, got -1"),
    ({"n": 3, "edges": [[0, math.nan, 1.0]]}, "a node index must be an integer >= 0, got nan"),
])
def test_graph_from_dict_names_the_number_at_fault(doc, message):
    with pytest.raises(ParameterError) as info:
        graph_from_dict(doc)
    assert str(info.value) == message


def test_graph_from_dict_reads_numpy_numbers():
    doc = {"n": np.int64(3), "edges": [[np.int32(0), np.int64(1), np.float64(0.5)],
                                       [1, 2, np.float32(2.0)]]}
    assert graph_to_dict(graph_from_dict(doc)) == {"n": 3, "edges": [[0, 1, 0.5], [1, 2, 2.0]]}


def test_graph_from_dict_last_duplicate_weight_wins():
    g = graph_from_dict({"n": 3, "edges": [[0, 1, 2.0], [1, 2, 1.0], [1, 0, 0.3], [2, 1, 0.7]]})
    assert graph_to_dict(g) == {"n": 3, "edges": [[0, 1, 0.3], [1, 2, 0.7]]}


# The Lanczos operator's CSR rows on a weighted graph, a star whose one row
# holds every edge, a graph with isolated nodes and an edgeless one, where
# np.add.reduceat gets no rows at all.
@pytest.mark.parametrize("g", [
    graph_from_dict(json.loads(WEIGHTED.read_text())),
    build_graph("star", n=30),
    Graph(5, [0, 1], [1, 2], [1.0, 2.0]),
    Graph(4, [], [], []),
], ids=["weighted24", "star30", "isolated", "edgeless"])
def test_minus_laplacian_equals_the_dense_product(g):
    lap = laplacian(g)
    product, degrees = graphs._laplacian_product(g)
    # the degrees are the diagonal of L, summed by the same rule
    assert degrees.tobytes() == np.diag(lap).tobytes()
    for seed in range(3):
        x = np.random.default_rng(seed).standard_normal(g.n)
        got = product(x)
        assert got.dtype == np.float64 and got.shape == (g.n,)
        # each side sums at most n + 2 terms of |L||x|, within (n + 2)·u of it
        bound = 2 * (g.n + 2) * graphs._U * (np.abs(lap) @ np.abs(x))
        assert np.all(np.abs(got - lap @ x) <= bound)
        assert np.all(got[degrees == 0.0] == 0.0)
    ends = graphs.extreme_eigenvalues(g)
    assert isinstance(ends, graphs.SpectralExtremes)
    s = spectrum(g, vectors=False)
    assert abs(ends.lambda_max - s.lambda_max) <= ends.error


# Lanczos ends (graphs.extreme_eigenvalues) against the dense solver on seeded
# random graphs, and against the closed form on a bipartite graph, whose four
# distinct eigenvalues make the Krylov space invariant after three steps.
@pytest.mark.parametrize("family,params", [
    ("random_connected", {"n": 500, "p": 0.04}), ("random_connected", {"n": 1000, "p": 0.02}),
    ("random_connected", {"n": 800, "p": 0.08}), ("watts_strogatz", {"n": 600, "k": 6, "p": 0.3}),
    ("watts_strogatz", {"n": 1000, "k": 10, "p": 0.3}),
    # the benchmark's density
    ("random_connected", {"n": 1000, "p": 0.08}),
])
def test_extreme_eigenvalues_agree_with_the_dense_solver(family, params):
    g = build_graph(family, seed=7, **params)
    ends, s = graphs.extreme_eigenvalues(g), spectrum(g, vectors=False)
    assert ends is not None and ends.n == g.n
    err = _eig_error(g.n, s.lambda_max)
    assert abs(ends.lambda_2 - s.lambda_2) <= err
    assert abs(ends.lambda_max - s.lambda_max) <= err
    assert ends.error == _eig_error(g.n, 2.0 * s.max_degree)


def test_extreme_eigenvalues_of_a_bipartite_graph_are_its_closed_form():
    g = build_graph("complete_bipartite", m=200, n=400)
    ends = graphs.extreme_eigenvalues(g)
    exact = analytic_spectrum("complete_bipartite", m=200, n=400)
    assert abs(ends.lambda_2 - exact[1][0]) <= ends.error
    assert abs(ends.lambda_max - exact[-1][0]) <= ends.error


def test_extreme_eigenvalues_agree_with_a_sparse_oracle():
    # scipy, test-only: ARPACK's ends of the Laplacian off its zero eigenvalue
    sparse = pytest.importorskip("scipy.sparse")
    eigsh = pytest.importorskip("scipy.sparse.linalg").eigsh
    g = build_graph("watts_strogatz", n=800, k=8, p=0.3, seed=3)
    i, j, w = edge_arrays(g)
    a = sparse.coo_matrix((np.r_[w, w], (np.r_[i, j], np.r_[j, i])), shape=(g.n, g.n)).tocsr()
    lap = sparse.diags(np.asarray(a.sum(axis=1)).ravel()) - a
    low = eigsh(lap, k=2, sigma=-1.0, which="LM", return_eigenvectors=False, tol=0.0)
    high = eigsh(lap, k=1, which="LA", return_eigenvectors=False, tol=0.0)
    ends = graphs.extreme_eigenvalues(g)
    assert abs(ends.lambda_2 - max(low)) <= ends.error
    assert abs(ends.lambda_max - high[0]) <= ends.error


def test_extreme_eigenvalues_are_not_certified_past_the_basis_cap(monkeypatch):
    # a path's bottom eigenvalues lie 1e-4 apart: Lanczos fills the basis first
    assert graphs.extreme_eigenvalues(build_graph("path", n=600)) is None
    g = build_graph("random_connected", n=600, p=0.04, seed=1)
    assert graphs.extreme_eigenvalues(g) is not None
    monkeypatch.setattr(graphs, "LANCZOS_MAX_BASIS", 8)
    assert graphs.extreme_eigenvalues(g) is None


def test_extreme_eigenvalues_need_both_starts_to_agree(monkeypatch):
    g = build_graph("random_connected", n=600, p=0.04, seed=1)
    ends = graphs.extreme_eigenvalues(g)
    original = graphs._lanczos_ends
    # the smaller lambda_2 and the larger lambda_N of the two starts
    product, _ = graphs._laplacian_product(g)
    first, second = (original(product, g.n, seed, ends.error) for seed in graphs.LANCZOS_SEEDS)
    assert first != second
    assert (ends.lambda_2, ends.lambda_max) == (min(first[0], second[0]), max(first[1], second[1]))
    for shift in ((3.0, 0.0), (0.0, 3.0), (1.5, 1.5)):
        def shifted(product, n, seed, tol, shift=shift):
            low, high = original(product, n, seed, tol)
            if seed == graphs.LANCZOS_SEEDS[1]:
                return low + shift[0] * tol, high + shift[1] * tol
            return low, high
        monkeypatch.setattr(graphs, "_lanczos_ends", shifted)
        agree = shift == (1.5, 1.5)
        assert (graphs.extreme_eigenvalues(g) is not None) is agree, shift


def test_extreme_eigenvalues_respect_the_gershgorin_bound(monkeypatch):
    g = build_graph("random_connected", n=600, p=0.04, seed=1)
    max_degree = spectrum(g, vectors=False).max_degree
    monkeypatch.setattr(graphs, "_lanczos_ends",
                        lambda *args: (1.0, 2.0 * max_degree * (1.0 + 1e-9)))
    assert graphs.extreme_eigenvalues(g) is None
    monkeypatch.setattr(graphs, "_lanczos_ends", lambda *args: (1.0, 2.0 * max_degree))
    assert graphs.extreme_eigenvalues(g) is not None


def _lanczos_events(monkeypatch):
    """What ``extreme_eigenvalues`` does with its operator, in order: "finite
    err" or "infinite err" once it is built, then "product" for each use."""
    original, events = graphs._laplacian_product, []

    def recorded(g):
        product, degrees = original(g)
        finite = math.isfinite(_eig_error(g.n, 2.0 * degrees.max()))
        events.append("finite err" if finite else "infinite err")
        return lambda x: events.append("product") or product(x), degrees
    monkeypatch.setattr(graphs, "_laplacian_product", recorded)
    return events


# star:12 with weights whose degrees overflow: 2·max_degree, and so err, are
# not finite. That is None before any product and without a warning, where
# the dense path refuses the weights by its own range rule.
@pytest.mark.parametrize("scale", [1e308, 5e307])
def test_extreme_eigenvalues_past_the_float_range_are_none(scale, monkeypatch):
    i, j, w = edge_arrays(build_graph("star", n=12))
    g = Graph(12, i, j, w * scale)
    events = _lanczos_events(monkeypatch)
    assert graphs.extreme_eigenvalues(g) is None
    assert events == ["infinite err"]
    with pytest.raises(ParameterError, match="edge weights are too large"):
        spectrum(g, vectors=False)


def test_extreme_eigenvalues_whose_product_norm_overflows_are_none(monkeypatch):
    # er:600,0.08 with weights times 1e160: max_degree is about 6.9e161, so err
    # is finite, but a product's entries pass 1.3e154, past which the unscaled
    # dot in np.linalg.norm overflows. The first start gives up after one product.
    i, j, w = edge_arrays(build_graph("random_connected", n=600, p=0.08, seed=1))
    g = Graph(600, i, j, w * 1e160)
    events = _lanczos_events(monkeypatch)
    assert graphs.extreme_eigenvalues(g) is None
    assert events == ["finite err", "product"]
    with pytest.raises(ParameterError, match="edge weights are too large"):
        spectrum(g, vectors=False)


def test_extreme_eigenvalues_make_no_dense_array(monkeypatch):
    monkeypatch.setattr(graphs, "laplacian", lambda g: pytest.fail("dense Laplacian"))
    # the solver's input is an n x n mapping too; the Lanczos basis has 301 rows
    original = graphs._mapped_zeros
    monkeypatch.setattr(graphs, "_mapped_zeros", lambda rows, n: pytest.fail(
        "n x n mapping") if rows == n else original(rows, n))
    g = build_graph("random_connected", n=1000, p=0.08, seed=2)
    tracemalloc.start()
    try:
        assert graphs.extreme_eigenvalues(g) is not None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.n * g.n * 8  # less than one n x n array


def test_extreme_eigenvalues_run_under_a_trace_function():
    # a Python trace function, as pdb or a coverage tracer sets, holds each
    # local of a traced frame in its f_locals, the basis among them; the ends
    # are the same under one
    g = build_graph("random_connected", n=1000, p=0.08, seed=2)
    ends = graphs.extreme_eigenvalues(g)

    def trace(frame, event, arg):
        return trace
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        traced = graphs.extreme_eigenvalues(g)
    finally:
        sys.settrace(previous)
    assert traced == ends


def test_lanczos_ends_of_the_period_operator_are_the_filter_ends():
    # P = h(L, M) = prod_k (I - eps_k L) is symmetric and maps the ones vector
    # to itself, so the routine gives the smallest and largest h(lambda_i, M)
    # off it. Each end lies within its residual, at most tol, of an eigenvalue
    # of P; the dense reference h(lambda_i) is off by h's change over each
    # lambda_i's own error, _eig_error(n, lambda_N), taken at both its ends.
    # Observed: within 4.9e-15 on all three cases.
    tol = 1e-12
    ws300 = build_graph("watts_strogatz", n=300, k=6, p=0.3, seed=3)
    cases = [
        (ws300, filters.design_chebyshev(SpectralBand(0.2, 20), 5), 5),
        (build_graph("random_connected", n=200, p=0.08, seed=1),
         filters.design_lagrange(SpectralBand(0.2, 40), 4), 4),
        (ws300, filters.design_constant(SpectralBand(0.2, 20)), 3),
    ]
    for g, seq, steps in cases:
        lap, _ = graphs._laplacian_product(g)

        def period(x, lap=lap, seq=seq, steps=steps):
            for k in range(steps):
                x = x - seq.gain_at(k) * lap(x)
            return x
        s = spectrum(g, vectors=False)
        lam = s.eigenvalues[1:]
        h = filters.eval_filter(seq, lam, steps)
        e = _eig_error(g.n, s.lambda_max)
        slack = tol + max(np.abs(filters.eval_filter(seq, lam + d, steps) - h).max()
                          for d in (-e, e))
        for seed in graphs.LANCZOS_SEEDS:
            low, high = graphs._lanczos_ends(period, g.n, seed, tol)
            assert abs(low - h.min()) <= slack, (g.n, steps, seed)
            assert abs(high - h.max()) <= slack, (g.n, steps, seed)


def _weighted_lanczos_graph(family, params):
    """A seeded graph (seed 1) with weights uniform in [0.5, 2] (seed 3)."""
    i, j, _ = edge_arrays(build_graph(family, seed=1, **params))
    return Graph(params["n"], i, j, np.random.default_rng(3).uniform(0.5, 2.0, len(i)))


LANCZOS_RELATION_GRAPHS = [("random_connected", {"n": 600, "p": 0.04}),
                           ("watts_strogatz", {"n": 1000, "k": 10, "p": 0.3})]


@pytest.mark.parametrize("k", [-60, -27, -10, -2, 3, 7, 40])
@pytest.mark.parametrize("family,params", LANCZOS_RELATION_GRAPHS, ids=["er600", "ws1000"])
def test_extreme_eigenvalues_commute_with_power_of_two_weight_scaling(family, params, k):
    # relation 17(a) on the Lanczos path: every product, sum and norm of the
    # iteration scales exactly, and so does the error, taken at 2·max_degree
    # whatever the unit of the weights, so the ends and their error scale by
    # 2**k bit for bit
    g = _weighted_lanczos_graph(family, params)
    i, j, w = edge_arrays(g)
    scaled = Graph(g.n, i, j, w * 2.0 ** k)
    ends, ends_scaled = graphs.extreme_eigenvalues(g), graphs.extreme_eigenvalues(scaled)
    assert (ends_scaled.lambda_2, ends_scaled.lambda_max, ends_scaled.error) == (
        2.0 ** k * ends.lambda_2, 2.0 ** k * ends.lambda_max, 2.0 ** k * ends.error)


@pytest.mark.parametrize("family,params", LANCZOS_RELATION_GRAPHS, ids=["er600", "ws1000"])
def test_relabelling_the_nodes_keeps_the_lanczos_ends(family, params):
    # relation 17(b) on the Lanczos path: the relabelled graph's products sum
    # in another order, so its ends move, but within their error
    g = _weighted_lanczos_graph(family, params)
    h = _relabelled(g, np.random.default_rng(1).permutation(g.n))
    ends, moved = graphs.extreme_eigenvalues(g), graphs.extreme_eigenvalues(h)
    assert abs(moved.lambda_2 - ends.lambda_2) <= ends.error
    assert abs(moved.lambda_max - ends.lambda_max) <= ends.error


def test_spectral_extremes_act_as_their_spectrum():
    s = spectrum(build_graph("random_connected", n=40, p=0.3, seed=5), vectors=False)
    ends = graphs.SpectralExtremes(s.lambda_2, s.lambda_max, s.n, 1e-12)
    assert ends.nonzero_eigenvalues().tolist() == [s.lambda_2, s.lambda_max]
    c = 12.8 / s.lambda_max
    assert (ends.scaled(c).lambda_2, ends.scaled(c).lambda_max) == (
        s.scaled(c).lambda_2, s.scaled(c).lambda_max)
    assert ends.scaled(c).error == c * 1e-12
    # band membership takes the error of n eigenvalues, not of two
    band = SpectralBand(s.lambda_2 + 0.5 * _eig_error(s.n, s.lambda_max), s.lambda_max)
    assert band_contains(ends, band) and band_contains(s, band)
    with pytest.raises(ParameterError):
        ends.scaled(0.0)
    with pytest.raises(ConnectivityError):
        graphs.SpectralExtremes(1e-12, 5.0, 10, 1e-15).nonzero_eigenvalues()
