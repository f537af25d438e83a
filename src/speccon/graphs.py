"""Weighted undirected graphs, Laplacians and their spectra.

Provides constructors for the standard graph families (complete, complete
bipartite, star, cycle, path) plus seeded Watts-Strogatz and connected
Erdos-Renyi generators, the numerical eigendecomposition of the Laplacian,
and closed-form spectra for the special families as an independent oracle.
A graph is stored as its edge list; the dense Laplacian is assembled from it
only for the eigensolver.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConnectivityError, GenerationError, NumericalError, ParameterError

MAX_GENERATION_ATTEMPTS = 1000

# Relative tolerance, times max(1, lambda_N), below which lambda_2 counts as
# zero and within which eigenvalues are grouped as equal.
GROUP_TOL = 1e-8


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Weighted undirected graph on n >= 2 nodes, stored as its edge list.

    ``Graph(n, i, j, w)`` takes the edges as arrays (i, j, w), sorted by
    (i, j) and unique, with 0 <= i < j < n and finite w > 0; ``edge_arrays``
    returns them. The arrays are kept read-only, without a copy when handed
    over read-only and owning their memory. No n x n array is kept.
    """

    n: int
    _edges: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, n: int, i, j, w) -> None:
        if int(n) != n or n < 2:
            raise ParameterError(f"a graph needs n >= 2 nodes, got {n!r}")
        i, j, w = _read_only(i, np.intp), _read_only(j, np.intp), _read_only(w)
        if not (i.ndim == 1 and i.shape == j.shape == w.shape):
            raise ParameterError("edge arrays must be 1-D and of equal length")
        if i.size and (i.min() < 0 or j.max() >= n or np.any(i >= j)):
            raise ParameterError(f"edges must satisfy 0 <= i < j < {n}")
        key = i * n + j
        if np.any(key[1:] <= key[:-1]):
            raise ParameterError("edges must be sorted by (i, j) and unique")
        if not np.all(np.isfinite(w)):
            raise ParameterError("edge weights must be finite")
        if np.any(w <= 0.0):
            raise ParameterError("edge weights must be positive")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "_edges", (i, j, w))


@dataclass(frozen=True)
class SpectralBand:
    """Uncertainty interval [alpha, beta] containing [lambda_2, lambda_N]."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= self.beta):
            raise ParameterError(f"band requires 0 < alpha <= beta, got [{self.alpha}, {self.beta}]")
        if not math.isfinite(self.beta):
            raise ParameterError(f"band requires finite endpoints, got [{self.alpha}, {self.beta}]")


def _read_only(a, dtype=np.float64) -> np.ndarray:
    """``a`` itself if it is a read-only ``dtype`` array owning its memory, else
    a read-only copy, so no caller can change the array after handing it over."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.base is None
            and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.flags.writeable = False
    return a


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Ascending Laplacian eigenvalues with paired orthonormal eigenvectors.

    ``eigenvectors`` is None for a values-only spectrum. Both arrays are
    read-only; ones handed over read-only and owning their memory, as
    ``spectrum`` does, are kept without a copy.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    max_degree: float

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", _read_only(self.eigenvalues))
        if self.eigenvectors is not None:
            object.__setattr__(self, "eigenvectors", _read_only(self.eigenvectors))

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def lambda_2(self) -> float:
        return float(self.eigenvalues[1])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    def is_connected(self) -> bool:
        return self.lambda_2 > GROUP_TOL * max(1.0, self.lambda_max)

    def scaled(self, c: float) -> LaplacianSpectrum:
        """Spectrum of the graph with every edge weight multiplied by ``c > 0``.

        Exact: the Laplacian scales linearly, so spec(cL) = c spec(L) with the
        same eigenvectors.
        """
        if not (0.0 < c < math.inf):
            raise ParameterError(f"scale factor must be positive and finite, got {c}")
        return replace(self, eigenvalues=c * self.eigenvalues, max_degree=c * self.max_degree)


def edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored (i, j, w) edge arrays of ``g``, without a copy: read-only,
    sorted by (i, j), with i < j."""
    return g._edges


def is_connected(g: Graph) -> bool:
    """Breadth-first search from node 0: each numpy pass over the edges adds
    the next level, so the cost is O(|E|) per level of the search."""
    i, j, _ = edge_arrays(g)
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    while True:
        leaving = seen[i] != seen[j]
        if not leaving.any():
            return bool(seen.all())
        seen[i[leaving]] = True
        seen[j[leaving]] = True


def _integral(v, what: str) -> int:
    """``v`` as an int; a number with a fractional part is a ParameterError."""
    if int(v) != v:
        raise ParameterError(f"{what} must be an integer, got {v!r}")
    return int(v)


def _require_int(params: dict, key: str, minimum: int) -> int:
    if key not in params or params[key] is None:
        raise ParameterError(f"missing parameter '{key}'")
    v = _integral(params[key], f"parameter '{key}'")
    if v < minimum:
        raise ParameterError(f"parameter '{key}' must be an integer >= {minimum}, got {v!r}")
    return v


def _unit_graph(n: int, i, j) -> Graph:
    """Unit weights on the edges (i[k], j[k]), given in the stored order."""
    return Graph(n, i, j, np.ones(len(i)))


def _watts_strogatz_once(n: int, k: int, p: float, rng: np.random.Generator) -> Graph:
    # Neighbor sets in place of a dense matrix. The random draws must stay
    # those of the dense version, call for call, so that every seed keeps its
    # graph; the tests compare the two.
    nbrs = [set() for _ in range(n)]
    for j in range(1, k // 2 + 1):
        for i in range(n):
            nbrs[i].add((i + j) % n)
            nbrs[(i + j) % n].add(i)
    # rewire the right-hand ring edges, ring-lattice order
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= p:
                continue
            old = (i + j) % n
            if len(nbrs[i]) >= n - 1:
                continue  # node already saturated, nothing to rewire to
            w = int(rng.integers(n))
            while w == i or w in nbrs[i]:
                w = int(rng.integers(n))
            nbrs[i].discard(old)
            nbrs[old].discard(i)
            nbrs[i].add(w)
            nbrs[w].add(i)
    pairs = np.array([(u, v) for u in range(n) for v in sorted(nbrs[u]) if u < v], dtype=np.intp)
    return _unit_graph(n, pairs[:, 0], pairs[:, 1])


def _erdos_renyi_once(n: int, p: float, rng: np.random.Generator) -> Graph:
    # One draw per node pair (i, j), i < j, in row-major order, taken a block
    # at a time: block draws are the stream of one draw, so every seed keeps
    # its graph. Only the accepted pairs get indices; pair number k lies in
    # row i, the last row whose first pair number i(2n - i - 1)/2 is <= k.
    pairs = n * (n - 1) // 2
    block = 1 << 16
    accepted = [start + np.flatnonzero(rng.random(min(block, pairs - start)) < p)
                for start in range(0, pairs, block)]
    k = np.concatenate(accepted)
    rows = np.arange(n)
    first = rows * (2 * n - rows - 1) // 2
    iu = np.searchsorted(first, k, side="right") - 1
    return _unit_graph(n, iu, k - first[iu] + iu + 1)


def build_graph(family: str, seed: int | None = None, **params) -> Graph:
    """Build a graph of the given family with unit edge weights.

    Supported families and parameters:
      complete(n), complete_bipartite(m, n), star(n), cycle(n), path(n),
      watts_strogatz(n, k, p, seed), random_connected(n, p, seed).

    Random families are resampled until connected (bounded retries) and are
    deterministic for a fixed seed.
    """
    if family == "complete":
        n = _require_int(params, "n", 2)
        return _unit_graph(n, *np.triu_indices(n, k=1))
    if family == "complete_bipartite":
        m = _require_int(params, "m", 1)
        n = _require_int(params, "n", 1)
        if m + n < 2:
            raise ParameterError("complete_bipartite needs at least 2 vertices")
        return _unit_graph(m + n, np.repeat(np.arange(m), n), np.tile(np.arange(m, m + n), m))
    if family == "star":
        n = _require_int(params, "n", 2)
        return _unit_graph(n, np.zeros(n - 1, dtype=np.intp), np.arange(1, n))
    if family == "cycle":
        n = _require_int(params, "n", 3)
        # (0, 1), (0, n - 1), then (k, k + 1) for k = 1..n-2
        return _unit_graph(n, np.r_[0, 0, 1:n - 1], np.r_[1, n - 1, 2:n])
    if family == "path":
        n = _require_int(params, "n", 2)
        idx = np.arange(n - 1)
        return _unit_graph(n, idx, idx + 1)
    if family == "watts_strogatz":
        n = _require_int(params, "n", 3)
        k = _require_int(params, "k", 2)
        p = params.get("p")
        if k % 2 != 0 or k >= n:
            raise ParameterError("watts_strogatz requires even k < n")
        if p is None or not (0.0 <= p <= 1.0):
            raise ParameterError("watts_strogatz requires rewiring probability p in [0, 1]")
        rng = np.random.default_rng(seed)
        for _ in range(MAX_GENERATION_ATTEMPTS):
            g = _watts_strogatz_once(n, k, float(p), rng)
            if is_connected(g):
                return g
        raise GenerationError(
            f"no connected watts_strogatz graph in {MAX_GENERATION_ATTEMPTS} attempts"
        )
    if family == "random_connected":
        n = _require_int(params, "n", 2)
        p = params.get("p")
        if p is None or not (0.0 < p <= 1.0):
            raise ParameterError("random_connected requires edge probability p in (0, 1]")
        rng = np.random.default_rng(seed)
        for _ in range(MAX_GENERATION_ATTEMPTS):
            g = _erdos_renyi_once(n, float(p), rng)
            if is_connected(g):
                return g
        raise GenerationError(
            f"no connected random graph in {MAX_GENERATION_ATTEMPTS} attempts (n={n}, p={p})"
        )
    raise ParameterError(f"unknown graph family {family!r}")


def laplacian(g: Graph) -> np.ndarray:
    """Dense Laplacian, degree diagonal minus adjacency, assembled from the edges.

    Bit for bit ``np.diag(a.sum(axis=1)) - a`` for the dense adjacency ``a``
    of the edges, without building ``a``: the degrees are the row sums of the
    negated off-diagonal entries, summed in the same order, and
    round-to-nearest is symmetric in sign. A Laplacian too large to allocate
    is a ParameterError.
    """
    i, j, w = edge_arrays(g)
    try:
        lap = np.zeros((g.n, g.n))
    except MemoryError as exc:
        raise ParameterError(f"a dense Laplacian on n={g.n} nodes does not fit in memory") from exc
    lap[i, j] = lap[j, i] = -w
    np.fill_diagonal(lap, 0.0 - lap.sum(axis=1))
    return lap


def spectrum(g: Graph, vectors: bool = True) -> LaplacianSpectrum:
    """Eigendecomposition of the Laplacian, eigenvalues ascending.

    With ``vectors=False`` only the eigenvalues are computed and the result
    carries ``eigenvectors=None``. Both modes raise NumericalError if the
    eigensolver fails, the smallest eigenvalue is not zero, or the largest
    exceeds twice the maximum degree. The full decomposition must reconstruct
    the Laplacian to within 1e-8 * max(1, lambda_N) with orthonormal
    eigenvectors; the eigenvalues alone must reproduce trace(L) to within
    1e-8 * scale and ||L||_F^2 to within 1e-8 * scale^2, scale = max(1, lambda_N).
    NaN fails every check.
    """
    lap = laplacian(g)
    max_degree = float(lap.diagonal().max())  # the degrees are L's diagonal
    try:
        if vectors:
            vals, vecs = np.linalg.eigh(lap)
        else:
            vals, vecs = np.linalg.eigvalsh(lap), None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    scale = max(1.0, float(vals[-1]))
    if vectors:
        # one n x n scratch buffer holds both residuals in turn
        resid = (vecs * vals) @ vecs.T
        resid -= lap
        recon = np.abs(resid, out=resid).max()
        if not (recon <= 1e-8 * scale):
            raise NumericalError(f"eigendecomposition reconstruction error {recon:.3e}")
        np.matmul(vecs.T, vecs, out=resid)
        resid.flat[::g.n + 1] -= 1.0
        ortho = np.abs(resid, out=resid).max()
        if not (ortho <= 1e-9):
            raise NumericalError(f"eigenvector matrix not orthonormal ({ortho:.3e})")
    else:
        trace_err = abs(vals.sum() - np.trace(lap))
        if not (trace_err <= 1e-8 * scale):
            raise NumericalError(f"eigenvalue sum misses trace(L) by {trace_err:.3e}")
        frob_err = abs(vals @ vals - np.vdot(lap, lap))
        if not (frob_err <= 1e-8 * scale * scale):
            raise NumericalError(f"eigenvalue sum of squares misses ||L||_F^2 by {frob_err:.3e}")
    if not (abs(vals[0]) <= 1e-9 * scale):
        raise NumericalError(f"smallest eigenvalue {vals[0]:.3e} not zero")
    if not (vals[-1] <= 2.0 * max_degree + 1e-9):
        raise NumericalError("largest eigenvalue exceeds twice the maximum degree")
    vals.flags.writeable = False
    if vecs is not None:
        vecs.flags.writeable = False
    return LaplacianSpectrum(vals, vecs, max_degree)


def analytic_spectrum(family: str, **params) -> list[tuple[float, int]]:
    """Closed-form Laplacian spectrum as (eigenvalue, multiplicity) pairs, ascending.

    Supported: complete(n), complete_bipartite(m, n), star(n), cycle(n), path(n).
    """
    if family == "complete":
        n = _require_int(params, "n", 2)
        return [(0.0, 1), (float(n), n - 1)]
    if family == "complete_bipartite":
        m = _require_int(params, "m", 1)
        n = _require_int(params, "n", 1)
        pairs: dict[float, int] = {0.0: 1}
        for value, mult in ((float(m), n - 1), (float(n), m - 1), (float(m + n), 1)):
            if mult > 0:
                pairs[value] = pairs.get(value, 0) + mult
        return sorted(pairs.items())
    if family == "star":
        n = _require_int(params, "n", 2)
        out = [(0.0, 1)]
        if n > 2:
            out.append((1.0, n - 2))
        out.append((float(n), 1))
        return out
    if family == "cycle":
        n = _require_int(params, "n", 3)
        out = [(0.0, 1)]
        for k in range(1, (n - 1) // 2 + 1):
            out.append((2.0 - 2.0 * math.cos(2.0 * math.pi * k / n), 2))
        if n % 2 == 0:
            out.append((4.0, 1))
        return out
    if family == "path":
        n = _require_int(params, "n", 2)
        return [(2.0 - 2.0 * math.cos(math.pi * k / n), 1) for k in range(n)]
    raise ParameterError(f"no closed-form spectrum for family {family!r}")


def distinct_nonzero_eigenvalues(s: LaplacianSpectrum) -> list[float]:
    """Group the nonzero eigenvalues to within GROUP_TOL * max(1, lambda_N).

    Returns the ascending group means. Raises ConnectivityError when lambda_2
    falls below the grouping tolerance (effectively disconnected graph).
    """
    tol = GROUP_TOL * max(1.0, s.lambda_max)
    if not s.is_connected():
        raise ConnectivityError(f"lambda_2 = {s.lambda_2:.3e} is below tolerance {tol:.3e}")
    groups: list[list[float]] = []
    for v in s.eigenvalues[1:]:
        if groups and v - groups[-1][0] <= tol:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return [float(np.mean(grp)) for grp in groups]


def band_contains(s: LaplacianSpectrum, b: SpectralBand) -> bool:
    """True iff [lambda_2, lambda_N] lies inside the band (1e-12 slack)."""
    return s.lambda_2 >= b.alpha - 1e-12 and s.lambda_max <= b.beta + 1e-12


# ---------------------------------------------------------------------------
# serialization

def graph_to_dict(g: Graph) -> dict:
    """Edge-list form: {"n": n, "edges": [[i, j, w], ...]} with i < j."""
    iu, ju, w = edge_arrays(g)
    return {"n": g.n, "edges": [[int(i), int(j), float(x)] for i, j, x in zip(iu, ju, w)]}


def graph_from_dict(d: dict) -> Graph:
    """Graph from its edge-list document. An edge may be given as [i, j, w] or
    [j, i, w]; the last weight given for an edge wins."""
    try:
        n = _integral(d["n"], "n")
        weights = {}
        for e in d["edges"]:
            if len(e) != 3:
                raise ParameterError(f"edge entry {e!r} must be [i, j, w]")
            i, j, w = _integral(e[0], "a node index"), _integral(e[1], "a node index"), float(e[2])
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ParameterError(f"edge ({i}, {j}) out of range for n={n}")
            if w <= 0.0:
                raise ParameterError(f"edge ({i}, {j}) has non-positive weight {w}")
            weights[min(i, j), max(i, j)] = w
    except ParameterError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"malformed graph document: {exc}") from exc
    pairs = sorted(weights)
    ij = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return Graph(n, ij[:, 0], ij[:, 1], [weights[e] for e in pairs])


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2)
        fh.write("\n")


def load_graph(path) -> Graph:
    """Graph from a JSON file; an unreadable or non-JSON file is a ParameterError."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParameterError(f"cannot read graph file {path}: {exc}") from exc
    return graph_from_dict(doc)


def spectrum_csv_lines(s: LaplacianSpectrum) -> list[str]:
    """CSV lines "index,eigenvalue" with 1-based index, ascending."""
    lines = ["index,eigenvalue"]
    lines += [f"{i + 1},{v:.6g}" for i, v in enumerate(s.eigenvalues)]
    return lines
