"""Weighted undirected graphs, Laplacians and their spectra.

Provides constructors for the standard graph families (complete, complete
bipartite, star, cycle, path) plus seeded Watts-Strogatz and connected
Erdos-Renyi generators, the numerical eigendecomposition of the Laplacian,
and closed-form spectra for the special families as an independent oracle.
A graph is stored as its edge list. Its weighted degrees are summed from the
edges by one rule, ``_degrees``, and the dense Laplacian is assembled from
them only for the eigensolver and, with eigenvectors, its reconstruction check.
"""

from __future__ import annotations

import math
import mmap
import sys
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ConnectivityError, GenerationError, NumericalError, ParameterError

MAX_GENERATION_ATTEMPTS = 1000

# Relative tolerance, times lambda_N, below which lambda_2 counts as zero and
# within which eigenvalues are grouped as equal, so that neither verdict
# depends on the unit of the weights. A modelling choice, not round-off
# (_eig_error): which eigenvalues finite_time designs for as one.
GROUP_TOL = 1e-8

_U = 2.0 ** -53  # the unit round-off of a double


def _eig_error(n: int, scale: float) -> float:
    """16·n·u·scale: how far round-off can move a computed eigenvalue of an
    n-node Laplacian L with ||L||_2 <= scale; every spectral check takes its
    tolerance from this one rule.

    numpy's symmetric solvers (LAPACK) are backward stable: the computed
    eigenvalues are the exact ones of L + dL, so by Weyl's inequality each is
    within ||dL||_2 of its exact value (Demmel, *Applied Numerical Linear
    Algebra*, ch. 5). dL is the round-off of two orthogonal similarities, the
    reduction to tridiagonal form and its diagonalization, each applied from
    both sides. Each one-sided product is made of n-term inner products, which
    round by at most n·u times the size of their terms (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 3), and orthogonal factors keep
    that size at ||L||_2: four products give 4·n·u·||L||_2 to first order. A
    further factor 4 covers the rounding of a few u per plane rotation, which
    does not shrink with n and so dominates on graphs of a few nodes. The same
    count bounds the eigenvectors' departure from orthonormal (scale 1), and
    the error of a sum over the spectrum, with the size of what it sums as
    the scale.
    """
    return 16 * n * _U * scale


def _addressable(n: int, name: str = "n") -> int:
    """``n`` if numpy can address an n x n float Laplacian; otherwise a
    ParameterError naming the count ``name``, before anything of length n is made."""
    if n * n * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
        raise ParameterError(
            f"{name}={_shown(n)} nodes is too many: numpy cannot address an n x n Laplacian")
    return n


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Weighted undirected graph on n >= 2 nodes, stored as its edge list.

    ``Graph(n, i, j, w)`` reads n by ``_integral`` and ``_addressable``, and takes the
    edges as arrays (i, j, w), sorted by (i, j) and unique, with 0 <= i < j < n and
    finite w > 0; ``edge_arrays`` returns them. The arrays are kept read-only, without
    a copy when handed over read-only and owning their memory. No n x n array is kept.
    """

    n: int
    _edges: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    def __init__(self, n: int, i, j, w) -> None:
        n = _addressable(_integral(n, "n", 2))
        i, j = _node_indices(i), _node_indices(j)
        w = _real(w, "edge weights must be finite", _read_only)
        if not (i.ndim == 1 and i.shape == j.shape == w.shape):
            raise ParameterError("edge arrays must be 1-D and of equal length")
        if i.size and (i.min() < 0 or j.max() >= n or np.any(i >= j)):
            raise ParameterError(f"edges must satisfy 0 <= i < j < {n}")
        if np.any((i[1:] < i[:-1]) | ((i[1:] == i[:-1]) & (j[1:] <= j[:-1]))):
            raise ParameterError("edges must be sorted by (i, j) and unique")
        if not np.all(np.isfinite(w)):
            raise ParameterError("edge weights must be finite")
        if np.any(w <= 0.0):
            raise ParameterError("edge weights must be positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_edges", (i, j, w))


@dataclass(frozen=True)
class SpectralBand:
    """Uncertainty interval [alpha, beta] containing [lambda_2, lambda_N]."""

    alpha: float
    beta: float

    def __post_init__(self):
        message = "band requires finite endpoints"  # echoes no end, so prints no NaN token
        if not all(_real(end, message, math.isfinite) for end in (self.alpha, self.beta)):
            raise ParameterError(message)
        if not (0.0 < self.alpha <= self.beta):
            raise ParameterError(f"band requires 0 < alpha <= beta, got [{self.alpha}, {self.beta}]")


def _read_only(a, dtype=np.float64) -> np.ndarray:
    """``a`` itself if it is a read-only ``dtype`` array owning its memory, else
    a read-only copy, so no caller can change the array after handing it over."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.base is None
            and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.flags.writeable = False
    return a


def _node_indices(a) -> np.ndarray:
    """``a`` as ``_read_only`` intp node indices. An integer array is not
    scanned; a boolean one, or a float one with a value that is not an
    integer below 2**63, is a ParameterError rather than cast, and so is a
    list holding a bool, which ``np.asarray`` would cast with its ints."""
    if not isinstance(a, np.ndarray) and any(
            isinstance(v, (bool, np.bool_)) for v in np.array(a, dtype=object).flat):
        raise ParameterError("node indices must be integers below 2**63, got a bool")
    a = np.asarray(a)
    if a.dtype.kind not in "iu" and not (
            a.dtype.kind == "f" and np.all((np.trunc(a) == a) & (np.abs(a) < 2.0 ** 63))):
        raise ParameterError(f"node indices must be integers below 2**63, got {a.dtype} values")
    return _read_only(a, np.intp)


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
        return self.lambda_2 > GROUP_TOL * self.lambda_max

    def nonzero_eigenvalues(self) -> np.ndarray:
        """lambda_2..lambda_N; a ConnectivityError when lambda_2 counts as zero."""
        _require_connected(self)
        return self.eigenvalues[1:]

    def scaled(self, c: float) -> LaplacianSpectrum:
        """Spectrum of the graph with every edge weight multiplied by ``c > 0``.

        Exact: the Laplacian scales linearly, so spec(cL) = c spec(L) with the
        same eigenvectors.
        """
        if not (0.0 < c < math.inf):
            raise ParameterError(f"scale factor must be positive and finite, got {c}")
        return replace(self, eigenvalues=c * self.eigenvalues, max_degree=c * self.max_degree)


def _require_connected(s) -> None:
    """A ConnectivityError when the spectrum ``s`` counts its lambda_2 as zero."""
    if not s.is_connected():
        raise ConnectivityError(
            f"spectrum is effectively disconnected (lambda_2 = {s.lambda_2:.3e})")


@dataclass(frozen=True)
class SpectralExtremes:
    """lambda_2 and lambda_N of an n-node Laplacian, each within ``error`` of
    its exact value, as ``extreme_eigenvalues`` certifies them.

    It offers what a ``LaplacianSpectrum`` offers for its ends: band membership
    (``band_contains`` takes the error of n eigenvalues), connectivity and
    rescaling. Its ``nonzero_eigenvalues`` are the two ends only, so a rate
    over them is the spectrum's rate only where |h| between them peaks at an end.
    """

    lambda_2: float
    lambda_max: float
    n: int
    error: float

    is_connected = LaplacianSpectrum.is_connected

    def nonzero_eigenvalues(self) -> np.ndarray:
        """[lambda_2, lambda_N]; a ConnectivityError when lambda_2 counts as zero."""
        _require_connected(self)
        return np.array([self.lambda_2, self.lambda_max])

    def scaled(self, c: float) -> SpectralExtremes:
        """The ends, and their error, of the graph with every edge weight
        multiplied by ``c > 0``, as ``LaplacianSpectrum.scaled``."""
        if not (0.0 < c < math.inf):
            raise ParameterError(f"scale factor must be positive and finite, got {c}")
        return replace(self, lambda_2=c * self.lambda_2, lambda_max=c * self.lambda_max,
                       error=c * self.error)


def edge_arrays(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored (i, j, w) edge arrays of ``g``, without a copy: read-only,
    sorted by (i, j), with i < j."""
    return g._edges


def _neighbour_sums(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray):
    """The map x -> sum_j a_ij (x_j - x_i) per node, which is -L x, for the
    edges (i, j, w) of an n-node graph: the protocol step of ``sim.simulate``.
    ``np.add.at`` adds +diff at each edge's ``i``, then -diff at its ``j``, in
    edge order, as one ``bincount`` over both ends would, so the sums are
    bincount's bit for bit; NaN signs too, since -diff is added rather than
    diff subtracted. A call allocates at most 2m + n floats. The Lanczos
    product L x, ``_laplacian_product``, sums in another order."""
    def apply(x: np.ndarray) -> np.ndarray:
        diff = x[j]
        diff -= x[i]
        diff *= w
        out = np.zeros(n)
        np.add.at(out, i, diff)
        np.add.at(out, j, np.negative(diff, out=diff))
        return out
    return apply


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


def _number(v, what: str):
    """``v`` if it is a number of an input document: an int or a float, as JSON
    gives them, or a numpy number; a bool, a string or anything else is a
    ParameterError. The one number rule for graph, sequence and state documents."""
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{what} must be a number, got {v!r}")
    return v


def _integral(v, what: str, least: int) -> int:
    """The one rule for every count the package reads: ``v`` as an int if it is an integral
    ``_number`` >= ``least``, else a ParameterError naming ``what``. No int is cast to float."""
    v = _number(v, what)
    if not (isinstance(v, (int, np.integer)) or float(v).is_integer()) or v < least:
        raise ParameterError(f"{what} must be an integer >= {least}, got {_shown(v)}")
    return int(v)


def _shown(v) -> str:
    """``v`` for a message; an int past ``str``'s digit limit as its sign and digit count."""
    try:
        return str(v)
    except ValueError:
        d = int(abs(v).bit_length() * math.log10(2))  # the digits of abs(v), or one less
        return f"{'-' * (v < 0)}<{d + (abs(v) >= 10 ** d)} digits>"


def _real(v, message: str, read=float):
    """``read(v)``, or ParameterError(``message``) where v holds an int past the float range."""
    try:
        return read(v)
    except OverflowError:
        raise ParameterError(message) from None


# Each graph family's parameters in spec order: an integer parameter's least
# value, or None for the random families' probability p, a float.
_FAMILIES = {"complete": {"n": 2}, "star": {"n": 2}, "cycle": {"n": 3}, "path": {"n": 2},
             "complete_bipartite": {"m": 1, "n": 1}, "watts_strogatz": {"n": 3, "k": 2, "p": None},
             "random_connected": {"n": 2, "p": None}}


def _parameters(family: str, params: dict) -> dict:
    """``params`` of the ``_FAMILIES`` family ``family``, each given and read in
    place: an integer one by ``_integral`` from its least value and, as each
    counts nodes or is below the node count, ``_addressable`` under its name; p
    as a float ``_number``. A parameter the family does not take is refused."""
    table = _FAMILIES[family]
    unread = [repr(key) for key in params if key not in table]
    if unread:
        raise ParameterError(f"graph family {family!r} takes no parameter {', '.join(unread)}")
    for key, least in table.items():
        what = f"parameter '{key}'"
        if params.get(key) is None:
            raise ParameterError(f"missing {what}")
        params[key] = (_real(_number(params[key], what), f"{what} is past the float range")
                       if least is None else _addressable(_integral(params[key], what, least), key))
    return params


def _unit_graph(n: int, i: np.ndarray, j: np.ndarray) -> Graph:
    """Unit weights on the edges (i[k], j[k]), given in the stored order. The
    caller's fresh arrays are handed over read-only, so ``Graph`` keeps them."""
    w = np.ones(len(i))
    for a in (i, j, w):
        a.flags.writeable = False
    return Graph(n, i, j, w)


def _watts_strogatz_once(n: int, k: int, p: float, rng: np.random.Generator) -> Graph:
    # One set of edge keys min·n + max, which sort as the stored (i, j), and
    # the degrees. The random draws must stay those of the dense version, call
    # for call, so that every seed keeps its graph; the tests compare the two.
    def key(u, v):
        return min(u, v) * n + max(u, v)
    edges = {key(i, (i + j) % n) for j in range(1, k // 2 + 1) for i in range(n)}
    degree = [k] * n
    # rewire the right-hand ring edges, ring-lattice order; no other turn removes one
    for j in range(1, k // 2 + 1):
        for i in range(n):
            if rng.random() >= p or degree[i] >= n - 1:
                continue  # not rewired, or saturated: nothing to rewire to
            w = int(rng.integers(n))
            while w == i or key(i, w) in edges:
                w = int(rng.integers(n))
            old = (i + j) % n
            edges.remove(key(i, old))
            edges.add(key(i, w))
            degree[old] -= 1
            degree[w] += 1
    keys = np.sort(np.fromiter(edges, np.intp, len(edges)))
    return _unit_graph(n, *np.divmod(keys, n))


def _erdos_renyi_once(n: int, p: float, rng: np.random.Generator) -> Graph:
    # One draw per node pair (i, j), i < j, in row-major order, taken a block
    # at a time: block draws are the stream of one draw, so every seed keeps
    # its graph. Only the accepted pairs get indices; pair number k lies in
    # row i, the last row whose first pair number i(2n - i - 1)/2 is <= k.
    pairs = n * (n - 1) // 2
    block = 1 << 16
    k = np.concatenate([start + np.flatnonzero(rng.random(min(block, pairs - start)) < p)
                        for start in range(0, pairs, block)])
    rows = np.arange(n)
    first = rows * (2 * n - rows - 1) // 2
    iu = np.searchsorted(first[1:], k, side="right")
    k -= (first - rows - 1)[iu]  # column k - first[i] + i + 1, in place
    return _unit_graph(n, iu, k)


def build_graph(family: str, seed: int | None = None, **params) -> Graph:
    """Build a graph of a ``_FAMILIES`` family with unit edge weights, its
    parameters read by ``_parameters``. The random families, the two with a p,
    are resampled until connected (bounded retries), deterministic for a seed."""
    if family not in _FAMILIES:
        raise ParameterError(f"unknown graph family {family!r}")
    params = _parameters(family, params)
    n = params["n"]
    if family == "complete":
        return _unit_graph(n, *np.triu_indices(n, k=1))
    if family == "complete_bipartite":
        m = params["m"]
        _addressable(m + n, "m+n")
        return _unit_graph(m + n, np.repeat(np.arange(m), n), np.arange(m * n) % n + m)
    if family == "star":
        return _unit_graph(n, np.zeros(n - 1, dtype=np.intp), np.arange(1, n))
    if family == "cycle":
        # (0, 1), (0, n - 1), then (k, k + 1) for k = 1..n-2
        return _unit_graph(n, np.r_[0, 0, 1:n - 1], np.r_[1, n - 1, 2:n])
    if family == "path":
        idx = np.arange(n - 1)
        return _unit_graph(n, idx, idx + 1)
    p = params["p"]
    if family == "watts_strogatz":
        k = params["k"]
        if k % 2 != 0 or k >= n:
            raise ParameterError("watts_strogatz requires even k < n")
        if not (0.0 <= p <= 1.0):
            raise ParameterError("watts_strogatz requires rewiring probability p in [0, 1]")
        draw = partial(_watts_strogatz_once, n, k, p)
    else:
        if not (0.0 < p <= 1.0):
            raise ParameterError("random_connected requires edge probability p in (0, 1]")
        draw = partial(_erdos_renyi_once, n, p)
    rng = np.random.default_rng(seed)
    for _ in range(MAX_GENERATION_ATTEMPTS):
        g = draw(rng)
        if is_connected(g):
            return g
    raise GenerationError(
        f"no connected random graph in {MAX_GENERATION_ATTEMPTS} attempts (n={n}, p={p})")


def _mapped_zeros(rows: int, n: int) -> np.ndarray:
    """rows x n float zeros, rows <= n, over a private anonymous mapping: a
    page is resident only once written (numpy's own zeros of 4 MiB or more are
    advised to huge pages, so one entry makes 2 MiB resident). Too large to
    map, a ParameterError that names the dense Laplacian on n nodes, which as
    rows <= n does not fit either."""
    try:
        zeros = mmap.mmap(-1, rows * n * 8, flags=mmap.MAP_PRIVATE)
    except OSError as exc:
        raise ParameterError(f"a dense Laplacian on n={n} nodes does not fit in memory") from exc
    return np.ndarray((rows, n), buffer=zeros)


def _degrees(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The weighted degrees of the edges (i, j, w) of an n-node graph, the one
    degree rule: ``np.add.at`` adds each edge's weight at its i end, then at
    its j end, in edge order. Degrees past the float range are inf; the
    caller sets the error state."""
    degrees = np.zeros(n)
    np.add.at(degrees, i, w)
    np.add.at(degrees, j, w)
    return degrees


def _lower_laplacian(g: Graph) -> tuple[np.ndarray, float]:
    """L's strict lower triangle and its diagonal, the ``_degrees``, in one
    ``_mapped_zeros`` array whose strict upper triangle is never written, and
    ||L||_F^2 = sum deg^2 + 2·sum w^2. A Laplacian too large to map is a
    ParameterError, and so are edge weights so large that twice ||L||_F^2 is
    not a finite float. That one weight-range rule keeps finite every moment
    ``spectrum`` reads: 2·max_degree (max_degree^2 <= ||L||_F^2), the trace
    (at most sqrt(n·||L||_F^2)) and the eigenvalues' squares, which sum to
    ||L||_F^2.
    """
    i, j, w = edge_arrays(g)
    lap = _mapped_zeros(g.n, g.n)
    with np.errstate(over="ignore"):
        degrees = _degrees(g.n, i, j, w)
        frob = degrees @ degrees + 2.0 * (w @ w)
    if not frob <= np.finfo(np.float64).max / 2:
        raise ParameterError("edge weights are too large: twice ||L||_F^2 is not a finite float")
    lap[j, i] = -w
    np.fill_diagonal(lap, degrees)
    return lap, frob


def laplacian(g: Graph) -> np.ndarray:
    """Dense Laplacian, degree diagonal minus adjacency, assembled from the
    edges: ``_lower_laplacian``'s array, under its weight-range rule, with the
    upper entries written too."""
    i, j, w = edge_arrays(g)
    lap, _ = _lower_laplacian(g)
    lap[i, j] = -w
    return lap


def spectrum(g: Graph, vectors: bool = True) -> LaplacianSpectrum:
    """Eigendecomposition of the Laplacian, eigenvalues ascending.

    With ``vectors=False`` only the eigenvalues are computed and the result
    carries ``eigenvectors=None``. numpy's symmetric solvers read only the
    lower triangle and diagonal (LAPACK's UPLO='L'), so the solver is given
    ``_lower_laplacian``'s array, the one n x n mapping of a values-only
    call; the result is bit for bit that of the full matrix. max_degree and
    trace(L) = sum deg are read from its diagonal before the solver runs, and
    ||L||_F^2 comes with it; its weight-range rule has kept them finite. A
    failed solver or check is a NumericalError; NaN fails every check. Each
    tolerance is ``_eig_error`` of n and a scale, here scale = lambda_N, so
    no check depends on the unit of the weights. With ``vectors``, first the
    decomposition reconstructs ``laplacian(g)``, mapped only once the
    solver's input is dropped, to within _eig_error(n, scale) in every entry,
    with eigenvectors orthonormal to within _eig_error(n, 1). Then, in both
    modes:
      - the smallest eigenvalue is zero to within _eig_error(n, scale);
      - the largest is at most 2·max_degree, which holds exactly, to within
        2·_eig_error(n, scale): the eigenvalue's error, and twice that of the
        degree, a sum of up to n weights;
      - the eigenvalues sum to trace(L) within _eig_error(n, trace(L)), as
        they are nonnegative, and their squares to ||L||_F^2 within
        2·_eig_error(n, ||L||_F^2), since that of L + dL moves by at most
        2·||L||_F·||dL||_F.
    """
    lap, frob = _lower_laplacian(g)
    max_degree, trace = float(lap.diagonal().max()), lap.diagonal().sum()
    try:
        vals, vecs = np.linalg.eigh(lap) if vectors else (np.linalg.eigvalsh(lap), None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    del lap  # the solver's input goes before laplacian(g) maps the reference
    err = _eig_error(g.n, float(vals[-1]))
    if vectors:
        # one n x n scratch buffer holds both residuals in turn
        resid = (vecs * vals) @ vecs.T
        resid -= laplacian(g)
        recon = np.abs(resid, out=resid).max()
        if not (recon <= err):
            raise NumericalError(f"eigendecomposition reconstruction error {recon:.3e}")
        np.matmul(vecs.T, vecs, out=resid)
        resid.flat[::g.n + 1] -= 1.0
        ortho = np.abs(resid, out=resid).max()
        if not (ortho <= _eig_error(g.n, 1.0)):
            raise NumericalError(f"eigenvector matrix not orthonormal ({ortho:.3e})")
    if not (abs(vals[0]) <= err):
        raise NumericalError(f"smallest eigenvalue {vals[0]:.3e} not zero")
    if not (vals[-1] <= 2.0 * (max_degree + err)):
        raise NumericalError("largest eigenvalue exceeds twice the maximum degree")
    trace_err = abs(vals.sum() - trace)
    if not (trace_err <= _eig_error(g.n, trace)):
        raise NumericalError(f"eigenvalue sum misses trace(L) by {trace_err:.3e}")
    frob_err = abs(vals @ vals - frob)
    if not (frob_err <= 2.0 * _eig_error(g.n, frob)):
        raise NumericalError(f"eigenvalue sum of squares misses ||L||_F^2 by {frob_err:.3e}")
    vals.flags.writeable = False
    if vecs is not None:
        vecs.flags.writeable = False
    return LaplacianSpectrum(vals, vecs, max_degree)


# The Lanczos basis of ``extreme_eigenvalues`` grows to at most this many
# vectors; a run that needs more is left to the dense solver.
LANCZOS_MAX_BASIS = 300
# The seeds of its two independent start vectors.
LANCZOS_SEEDS = (0x5EED1, 0x5EED2)


def _laplacian_product(g: Graph):
    """The Lanczos operator x -> L x = d∘x - A x of ``g``, and its weighted
    degrees d, the ``_degrees`` that ``spectrum`` reads too.

    A is stored once, in node-ordered CSR form, 2m indices and 2m floats: a
    stable argsort of the 2m edge ends, j's before i's, gives each node's
    neighbours in ascending order as ``col`` and their weights as ``val``.
    ``starts`` holds the first entry of each node with an edge, so no row is
    empty: ``np.add.reduceat`` would not sum an empty row to zero. A product
    subtracts one gather, multiply and ``reduceat`` from d∘x;
    ``_neighbour_sums`` sums in another order, by two scatters.
    """
    n = g.n
    i, j, w = edge_arrays(g)
    degrees = _degrees(n, i, j, w)
    order = np.argsort(np.concatenate((j, i)), kind="stable")
    col = np.concatenate((i, j))[order]
    val = np.take(w, order, mode="wrap")  # end k belongs to edge k mod m
    counts = np.bincount(i, minlength=n) + np.bincount(j, minlength=n)
    nodes = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[nodes]

    def apply(x: np.ndarray) -> np.ndarray:
        prod = np.take(x, col)
        prod *= val
        out = degrees * x
        out[nodes] -= np.add.reduceat(prod, starts)
        return out
    return apply, degrees


def _lanczos_ends(product, n: int, seed: int, tol: float) -> tuple[float, float] | None:
    """The smallest and largest Ritz values off the ones vector of a symmetric
    S, once both residuals are at most ``tol``; None when the basis reaches
    ``LANCZOS_MAX_BASIS`` vectors first or a norm is not finite.

    ``product`` maps x to S x. S must map the ones vector to a multiple of
    itself, as L (to 0) and the period operator h(L, M) (to itself) do. The
    basis starts with the unit ones vector and a seeded normal vector, and
    each new vector is orthogonalized twice against all of it. A Ritz pair's
    residual ||S y - theta y||_2 is b·|s_k|, the last Lanczos coefficient
    times y's last basis entry; ``eigh`` reads only the lower band of the
    tridiagonal matrix. The basis is one ``_mapped_zeros`` array at its cap,
    ``LANCZOS_MAX_BASIS + 1`` rows (n at most), so only the rows a run writes
    become resident. Neither the norm check nor a finite ``tol`` subsumes the
    other: ``np.linalg.norm`` squares unscaled and overflows once an entry
    passes about 1.3e154, far below a 2·max_degree past the float range, and
    an infinite ``tol`` passes any finite residual.
    """
    size = min(LANCZOS_MAX_BASIS, n - 1) + 1
    basis = _mapped_zeros(size, n)
    basis[0] = 1.0 / math.sqrt(n)
    v = np.random.default_rng(seed).standard_normal(n)
    diag, off = [], []
    for k in range(1, size + 1):
        for _ in range(2):
            v -= basis[:k].T @ (basis[:k] @ v)
        b = float(np.linalg.norm(v))
        if not np.isfinite(b):
            return None
        # the end pairs are checked every 8 steps, and when the basis is full
        # or the Krylov space invariant
        if k > 1 and (k % 8 == 1 or k == size or b <= tol):
            theta, s = np.linalg.eigh(np.diag(diag) + np.diag(off[1:], -1))
            if b * max(abs(s[-1, 0]), abs(s[-1, -1])) <= tol:
                return float(theta[0]), float(theta[-1])
            if b <= tol or k == size:
                return None
        off.append(b)
        basis[k] = v / b
        v = product(basis[k])
        diag.append(basis[k] @ v)


def extreme_eigenvalues(g: Graph) -> SpectralExtremes | None:
    """lambda_2 and lambda_N by Lanczos on ``_laplacian_product``, certified,
    or None where they are not; no n x n array is made.

    Two runs of ``_lanczos_ends`` from independent seeded starts each stop
    once both end Ritz residuals are at most err = _eig_error(n,
    2·max_degree), the dense path's own rule for an n-node Laplacian, whose
    norm Gershgorin bounds by 2·max_degree. A Ritz value lies within its
    residual of an eigenvalue (Parlett, *The Symmetric Eigenvalue Problem*),
    and the extreme Ritz values off the ones vector lie inside [lambda_2,
    lambda_N]. A start nearly orthogonal to an end eigenvector can still make
    its run settle on the next eigenvalue; for a random start that chance is
    small and shrinks with the basis size (Kuczynski and Wozniakowski, SIAM
    J. Matrix Anal. Appl., 1992), and two independent starts must both miss.
    So the values are certified when the runs agree to within 2·err and the
    larger lambda_N stays within Gershgorin's 2·(max_degree + err), which
    holds exactly; then the smaller lambda_2 and the larger lambda_N are
    returned with error err. A run that hits the basis cap or a non-finite
    norm, a disagreement, a failed bound or a 2·max_degree past the float
    range gives None, with no warning; the caller then takes ``spectrum``.
    """
    runs = []
    with np.errstate(over="ignore", invalid="ignore"):
        product, degrees = _laplacian_product(g)
        max_degree = float(degrees.max())
        err = _eig_error(g.n, 2.0 * max_degree)
        if not math.isfinite(err):
            return None
        for seed in LANCZOS_SEEDS:
            ends = _lanczos_ends(product, g.n, seed, err)
            if ends is None:
                return None
            runs.append(ends)
    (low_a, high_a), (low_b, high_b) = runs
    low, high = min(low_a, low_b), max(high_a, high_b)
    if not (abs(low_a - low_b) <= 2.0 * err and abs(high_a - high_b) <= 2.0 * err
            and high <= 2.0 * (max_degree + err)):
        return None
    return SpectralExtremes(low, high, g.n, err)


def analytic_spectrum(family: str, **params) -> list[tuple[float, int]]:
    """Closed-form Laplacian spectrum as (eigenvalue, multiplicity) pairs,
    ascending, of a ``_FAMILIES`` family without p, its parameters read by
    ``_parameters``."""
    if family not in _FAMILIES or "p" in _FAMILIES[family]:
        raise ParameterError(f"no closed-form spectrum for family {family!r}")
    params = _parameters(family, params)
    n = params["n"]
    if family == "complete":
        return [(0.0, 1), (float(n), n - 1)]
    if family == "complete_bipartite":
        m = params["m"]
        pairs: dict[float, int] = {0.0: 1}
        for value, mult in ((float(m), n - 1), (float(n), m - 1), (float(m + n), 1)):
            if mult > 0:
                pairs[value] = pairs.get(value, 0) + mult
        return sorted(pairs.items())
    if family == "star":
        out = [(0.0, 1)]
        if n > 2:
            out.append((1.0, n - 2))
        out.append((float(n), 1))
        return out
    if family == "cycle":
        out = [(0.0, 1)]
        for k in range(1, (n - 1) // 2 + 1):
            out.append((2.0 - 2.0 * math.cos(2.0 * math.pi * k / n), 2))
        if n % 2 == 0:
            out.append((4.0, 1))
        return out
    return [(2.0 - 2.0 * math.cos(math.pi * k / n), 1) for k in range(n)]  # path


def distinct_nonzero_eigenvalues(s: LaplacianSpectrum) -> list[float]:
    """Group the nonzero eigenvalues to within GROUP_TOL * lambda_N.

    Returns the ascending group means. Raises ConnectivityError when lambda_2
    falls below the grouping tolerance (effectively disconnected graph).
    """
    tol = GROUP_TOL * s.lambda_max
    groups: list[list[float]] = []
    for v in s.nonzero_eigenvalues():
        if groups and v - groups[-1][0] <= tol:
            groups[-1].append(float(v))
        else:
            groups.append([float(v)])
    return [float(np.mean(grp)) for grp in groups]


def _widened(b: SpectralBand, n: int) -> SpectralBand:
    """The band's ends moved out by _eig_error(n, beta), the upper one at most
    to the float maximum. A spectrum of n eigenvalues inside the band has
    ||L||_2 <= beta, so its computed eigenvalues lie inside these ends. When
    alpha is within that error of zero, the widened band starts at the least
    positive float, where h = 1: the spectrum is not known to stay away from zero."""
    err = _eig_error(n, b.beta)
    return SpectralBand(max(b.alpha - err, math.ulp(0.0)), min(b.beta + err, sys.float_info.max))


def band_contains(s: LaplacianSpectrum, b: SpectralBand) -> bool:
    """True iff [lambda_2, lambda_N] lies inside the band widened by the
    eigenvalue error of the spectrum's n (``_widened``)."""
    wide = _widened(b, s.n)
    return wide.alpha <= s.lambda_2 and s.lambda_max <= wide.beta


# ---------------------------------------------------------------------------
# serialization

def graph_to_dict(g: Graph) -> dict:
    """Edge-list form: {"n": n, "edges": [[i, j, w], ...]} with i < j."""
    iu, ju, w = edge_arrays(g)
    return {"n": g.n, "edges": [[int(i), int(j), float(x)] for i, j, x in zip(iu, ju, w)]}


def graph_from_dict(d: dict) -> Graph:
    """Graph from its edge-list document, n and each node index read by ``_integral``.
    An edge may be given as [i, j, w] or [j, i, w]; the last weight given for it wins."""
    try:
        n = _integral(d["n"], "n", 2)
        weights = {}
        for e in d["edges"]:
            if len(e) != 3:
                raise ParameterError(f"edge entry {e!r} must be [i, j, w]")
            i, j = (_integral(v, "a node index", 0) for v in e[:2])
            w = float(_number(e[2], "an edge weight"))
            if max(i, j) >= n or i == j:
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
