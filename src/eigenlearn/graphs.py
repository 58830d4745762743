"""Undirected graphs and their spectral operators.

Graphs are dense-matrix backed: the target scale is tens of nodes, so every
operator (adjacency, Laplacian, random-walk diffusion) is a plain float64
numpy array. `build_adjacency` builds the adjacency from a graph's edge
tuple in one vectorized assignment, the endpoints flattened into one index
array, with no loop over the edges in Python. The Laplacian and diffusion
operators take that (n, n) array, or a (B, n, n) stack of the adjacencies of
B graphs of one node count, and give every matrix of a stack the bits it gets
alone; so a caller that needs both the adjacency and an operator builds it
once, and one that has many graphs of one size (train.precompute_targets)
pays numpy's per-call cost once per stack, not once per graph. A refusal on
a stack names the first bad graph. A graph whose adjacency would not fit in
the machine's physical memory is refused before anything is allocated.
"""

import functools
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGraph, InvalidParams, IsolatedNode, ShapeMismatch

UNNORMALIZED = "unnormalized"
SYMMETRIC = "symmetric"
LAPLACIAN_NORMS = (UNNORMALIZED, SYMMETRIC)

GRAPH_KINDS = ("path", "cycle", "complete", "star", "grid", "erdos_renyi")


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with optional node features and scalar targets.

    Edges are stored once as (u, v) with u < v; no self-loops, no duplicates.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    node_features: np.ndarray | None = None
    graph_targets: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        n = self.num_nodes
        if type(n) is not int:  # a bool is not an int here
            if not isinstance(n, np.integer):
                raise InvalidGraph(
                    f"num_nodes must be an int, got {n!r} ({type(n).__name__})")
            object.__setattr__(self, "num_nodes", int(n))
        if self.num_nodes < 1:
            raise InvalidGraph(f"num_nodes must be positive, got {self.num_nodes}")
        canonical = []
        seen = set()
        for e in self.edges:
            try:
                e = tuple(e)
                u, v = e
            except (TypeError, ValueError):  # not a sequence, or not of two
                raise InvalidGraph(f"edge {e!r} is not a pair") from None
            if type(u) is not int or type(v) is not int:  # a bool is not an int here
                if not all(type(x) is int or isinstance(x, np.integer) for x in e):
                    raise InvalidGraph(f"edge {e!r} has an endpoint that is not an int")
                u, v = int(u), int(v)
            if u == v:
                raise InvalidGraph(f"self-loop at node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise InvalidGraph(f"edge ({u},{v}) endpoint outside [0,{self.num_nodes})")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise InvalidGraph(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            canonical.append((u, v))
        object.__setattr__(self, "edges", tuple(canonical))
        if self.node_features is not None:
            x = np.asarray(self.node_features, dtype=np.float64)
            if x.ndim != 2 or x.shape[0] != self.num_nodes:
                raise InvalidGraph(
                    f"node_features must be ({self.num_nodes}, d), got shape {x.shape}"
                )
            if not np.all(np.isfinite(x)):
                raise InvalidGraph("node_features contains non-finite values")
            object.__setattr__(self, "node_features", x)

    def with_features(self, x: np.ndarray) -> "Graph":
        return Graph(self.num_nodes, self.edges, x, dict(self.graph_targets))


@functools.cache
def physical_memory() -> float:
    """The bytes of this machine's physical memory, read once per process;
    infinite where the platform gives no page counts (Windows)."""
    if hasattr(os, "sysconf"):
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return float("inf")


def adjacency_fits(n: int) -> bool:
    """Whether an (n, n) float64 adjacency fits in physical memory."""
    return 8 * n * n <= physical_memory()


def build_adjacency(g: Graph) -> np.ndarray:
    """Symmetric 0/1 float64 adjacency matrix of g: the edges' endpoints read
    into one (2E,) index array, then one fancy-indexed assignment per
    direction. InvalidGraph when the matrix would not fit in memory."""
    n = g.num_nodes
    if not adjacency_fits(n):
        raise InvalidGraph(f"a graph of {n} nodes needs an n x n float64 adjacency, more "
                           f"than the {physical_memory()} bytes of this machine's memory")
    a = np.zeros((n, n))
    ends = np.fromiter(itertools.chain.from_iterable(g.edges), dtype=np.intp,
                       count=2 * len(g.edges))
    u, v = ends[0::2], ends[1::2]
    a[u, v] = a[v, u] = 1.0
    return a


def _check_square(a, op: str) -> None:
    if not (isinstance(a, np.ndarray) and a.ndim in (2, 3) and a.shape[-1] == a.shape[-2]):
        got = f"shape {a.shape}" if isinstance(a, np.ndarray) else f"a {type(a).__name__}"
        raise ShapeMismatch(f"{op} takes a square (n, n) adjacency array or a (B, n, n) "
                            f"stack of them, got {got}")


def build_laplacian(a: np.ndarray, norm: str = UNNORMALIZED) -> np.ndarray:
    """Graph Laplacian of the (n, n) adjacency a, or of each adjacency of a
    (B, n, n) stack: D - A, or its symmetric normalization
    I - D^{-1/2} A D^{-1/2}.

    Isolated nodes are allowed; the symmetric norm treats their D^{-1/2}
    diagonal entry as 0.
    """
    _check_square(a, "build_laplacian")
    if norm not in LAPLACIAN_NORMS:
        raise InvalidParams(f"unknown Laplacian norm {norm!r}")
    d = a.sum(axis=-1)
    n = a.shape[-1]
    if norm == UNNORMALIZED:
        # as np.diag(d) - a: an entry off the diagonal is 0.0 - a_ij, not -a_ij
        lap = np.zeros(a.shape, np.result_type(d, a))
        lap[..., np.arange(n), np.arange(n)] = d
        lap -= a
        return lap
    d_inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return np.eye(n) - (d_inv_sqrt[..., :, None] * a) * d_inv_sqrt[..., None, :]


def has_isolated_node(a: np.ndarray) -> np.ndarray:
    """Whether the adjacency a (a bool), or each adjacency of a stack (a (B,)
    bool array), has a node of degree 0: the test build_diffusion refuses by."""
    return (a.sum(axis=-1) == 0).any(axis=-1)


def build_diffusion(a: np.ndarray) -> np.ndarray:
    """Row-stochastic random-walk matrix P = D^{-1} A of the (n, n) adjacency
    a, or of each adjacency of a (B, n, n) stack.

    Raises IsolatedNode for degree-0 nodes, naming the first one (and on a
    stack, the first graph that has one): one-step walk probabilities are
    undefined there, so callers must prune or reject such graphs.
    """
    _check_square(a, "build_diffusion")
    d = a.sum(axis=-1)
    zero = d == 0
    if zero.any():
        *graph, node = (int(i) for i in np.argwhere(zero)[0])  # first (graph, node)
        raise IsolatedNode(node, *graph)
    return a / d[..., None]


def count_components(g: Graph) -> int:
    """Connected component count via union-find (test oracle for the spectrum)."""
    parent = list(range(g.num_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(i) for i in range(g.num_nodes)})


def permute_graph(g: Graph, perm: list[int]) -> Graph:
    """Relabel nodes: new index of old node i is perm[i]."""
    if sorted(perm) != list(range(g.num_nodes)):
        raise InvalidParams("perm must be a permutation of range(num_nodes)")
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    x = None
    if g.node_features is not None:
        x = np.empty_like(g.node_features)
        for old, new in enumerate(perm):
            x[new] = g.node_features[old]
    return Graph(g.num_nodes, tuple(edges), x, dict(g.graph_targets))


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def generate_graph(kind: str, params: dict | None = None, seed: int = 0) -> Graph:
    """Deterministic graph generators used for fixtures and synthetic datasets.

    Kinds: path, cycle, complete, star (params: n); grid (params: rows, cols);
    erdos_renyi (params: n, p) which resamples until no node is isolated.
    """
    params = dict(params or {})
    if kind not in GRAPH_KINDS:
        raise InvalidParams(f"unknown graph kind {kind!r}")

    if kind == "grid":
        rows, cols = int(params.get("rows", 0)), int(params.get("cols", 0))
        if rows < 1 or cols < 1:
            raise InvalidParams("grid needs rows >= 1 and cols >= 1")
        n = rows * cols
        edges = []
        for r in range(rows):
            for c in range(cols):
                i = r * cols + c
                if c + 1 < cols:
                    edges.append((i, i + 1))
                if r + 1 < rows:
                    edges.append((i, i + cols))
        return Graph(n, tuple(edges))

    n = int(params.get("n", 0))
    if n < 1:
        raise InvalidParams(f"{kind} needs n >= 1")

    if kind == "path":
        return Graph(n, tuple(_path_edges(n)))
    if kind == "cycle":
        if n < 3:
            raise InvalidParams("cycle needs n >= 3")
        return Graph(n, tuple(_path_edges(n) + [(0, n - 1)]))
    if kind == "complete":
        return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))
    if kind == "star":
        return Graph(n, tuple((0, i) for i in range(1, n)))

    # erdos_renyi
    p = float(params.get("p", -1.0))
    if not 0.0 <= p <= 1.0:
        raise InvalidParams(f"erdos_renyi needs p in [0,1], got {p}")
    if n < 2:
        raise InvalidParams("erdos_renyi needs n >= 2")
    rng = np.random.default_rng(seed)
    for _ in range(200):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        if len({x for e in edges for x in e}) == n:
            return Graph(n, tuple(edges))
    raise InvalidParams(
        f"could not sample an isolated-node-free G({n}, {p}) in 200 attempts"
    )
