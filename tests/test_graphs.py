import json
import math
import tracemalloc

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
from speccon.cli import main
from speccon.graphs import edge_arrays, is_connected

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
    (1, [], [], [], "n >= 2"),
    (2.5, [0], [1], [1.0], "n >= 2"),
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
])
def test_graph_rejects_invalid_edges(n, i, j, w, match):
    with pytest.raises(ParameterError, match=match):
        Graph(n, i, j, w)


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


def test_graph_json_roundtrip(tmp_path):
    g = build_graph("watts_strogatz", n=12, k=4, p=0.3, seed=7)
    path = tmp_path / "g.json"
    runner = CliRunner()
    written = runner.invoke(main, ["graph", "generate", "ws:12,4,0.3", "--seed", "7",
                                   "--out", str(path)], catch_exceptions=False)
    assert written.exit_code == 0 and written.stdout == ""
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


@pytest.mark.parametrize("perturb", [_shift(-1, 1e-6), _shift(2, -1e-6), _swap_mass, _poison])
def test_values_only_moment_checks_reject_perturbed_eigenvalues(monkeypatch, perturb):
    g = build_graph("random_connected", n=40, p=0.2, seed=5)
    spectrum(g, vectors=False)  # unperturbed: accepted
    _perturb_numpy(monkeypatch, "eigvalsh", perturb)
    with pytest.raises(NumericalError):
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
    # within the reconstruction tolerance, since the null vector has norm 1/sqrt(n)
    vals[0] += 1e-7 * max(1.0, vals[-1])
    return vals, vecs


# the message of the one check that can notice a perturbation, where only one can
FAILED_CHECK = {
    _permute_interior_values: "reconstruction",
    _stretch_null_vector: "not orthonormal",
    _lift_null_value: "smallest eigenvalue .* not zero",
}


@pytest.mark.parametrize("bad", [_bump_entry, _permute_interior_values, _stretch_vectors,
                                 _stretch_null_vector, _lift_null_value])
def test_full_spectrum_rejects_bad_eigenvectors(monkeypatch, bad):
    g = build_graph("random_connected", n=40, p=0.2, seed=5)
    spectrum(g)  # unperturbed: accepted
    original = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: bad(*(m.copy() for m in original(a))))
    with pytest.raises(NumericalError, match=FAILED_CHECK.get(bad)):
        spectrum(g)


def _move_mass_to_null_value(vals):
    # keeps the trace and, to within the tolerance, the sum of squares
    delta = 1e-8 * max(1.0, vals[-1])
    vals[0] += delta
    vals[1] -= delta
    return vals


def test_values_only_spectrum_rejects_nonzero_smallest_eigenvalue(monkeypatch):
    g = build_graph("random_connected", n=40, p=0.2, seed=5)
    _perturb_numpy(monkeypatch, "eigvalsh", _move_mass_to_null_value)
    with pytest.raises(NumericalError, match="smallest eigenvalue .* not zero"):
        spectrum(g, vectors=False)


@pytest.mark.parametrize("vectors,solver", [(True, "eigh"), (False, "eigvalsh")])
def test_spectrum_reports_solver_failure(monkeypatch, vectors, solver):
    def fail(a):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(NumericalError, match="eigendecomposition failed: did not converge"):
        spectrum(build_graph("path", n=4), vectors=vectors)


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


# Symmetric weights that are not dyadic, so the row sums round differently in
# different orders; about half the entries are zero.
@settings(max_examples=40, deadline=None)
@example(n=700, density=0.5, seed=1, log_scale=0.0)  # long rows, summed pairwise in blocks
@given(n=st.integers(2, 700), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-3.0, 3.0))
def test_dense_roundtrip_is_bitwise(n, density, seed, log_scale):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.lognormal(log_scale, 2.0, (n, n)) * (rng.random((n, n)) < density), 1)
    a = upper + upper.T
    g = _graph_of(a)
    dense_degrees = a.sum(axis=1)
    assert laplacian(g).tobytes() == (np.diag(dense_degrees) - a).tobytes()
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
])
def test_graph_from_dict_rejects_malformed_documents(doc):
    with pytest.raises(ParameterError):
        graph_from_dict(doc)


def test_graph_from_dict_last_duplicate_weight_wins():
    g = graph_from_dict({"n": 3, "edges": [[0, 1, 2.0], [1, 2, 1.0], [1, 0, 0.3], [2, 1, 0.7]]})
    assert graph_to_dict(g) == {"n": 3, "edges": [[0, 1, 0.3], [1, 2, 0.7]]}
