"""Shared test utilities: finite-difference oracles, a scalarizing
projection, the small tape ops that `autodiff.dense` and
`autodiff.gin_aggregate` fuse (kept as their references), a counter of
recorded ops, a spy on every op's result and every Tensor constructed, the
column loop `eigen.canonical_signs` replaced and the edge loop
`graphs.build_adjacency` replaced (each kept as its reference), the layout of
a module built alone, random graph soup, stacks of adjacencies and the
bitwise check that an operator gives each matrix of a stack what it gives it
alone, checkpoint helpers: a header reader and editor, and an old-version
writer, and output paths that cannot be written."""

import base64
import json
import math
from pathlib import Path

import numpy as np

from eigenlearn import autodiff as ad
from eigenlearn.errors import ShapeMismatch
from eigenlearn.graphs import Graph, build_adjacency, generate_graph
from eigenlearn.nn import allocate_parameters


def numeric_gradient(fn, array: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar-valued fn over every entry."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    scale = np.maximum(np.abs(analytic), np.maximum(np.abs(numeric), floor))
    return float(np.max(np.abs(analytic - numeric) / scale))


def project(t: ad.Tensor, seed: int = 0) -> ad.Tensor:
    """A fixed random projection of t to one number, as one op: value
    sum(w * t.values), gradient w, with w drawn from seed. Weights of both
    signs and of different sizes let a gradient check see every entry of t."""
    w = np.random.default_rng(seed).standard_normal(t.shape)
    return ad.scalar_with_grad(t, float(np.sum(w * t.values)), w)


# --- reference ops ------------------------------------------------------------
# The tape ops a dense layer and a GIN aggregation were built from before each
# became one op. Each checks the array it computes and records it through
# autodiff's own result constructor, so each is one node with its own finite
# check, as it was in the library.


def _record(values: np.ndarray, parents: tuple, vjp) -> ad.Tensor:
    ad._check_finite(values)
    return ad._result(values, parents, vjp)


def matmul(a: ad.Tensor, b: ad.Tensor) -> ad.Tensor:
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul: {a.shape} @ {b.shape}")

    def vjp(g):
        if a.requires_grad:
            a.accumulate_product(g, b.values.T)
        if b.requires_grad:
            b.accumulate_product(a.values.T, g)

    return _record(a.values @ b.values, (a, b), vjp)


def relu(a: ad.Tensor) -> ad.Tensor:
    mask = a.values > 0

    def vjp(g):
        if a.requires_grad:
            a.accumulate_grad(g * mask)

    return _record(np.where(mask, a.values, 0.0), (a,), vjp)


def dropout(a: ad.Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> ad.Tensor:
    """Inverted dropout: mask drawn from rng, kept entries scaled by 1/(1-rate).

    Identity (and no generator draw) when rate is 0 or training is off.
    """
    if not 0.0 <= rate < 1.0:
        raise ShapeMismatch(f"dropout rate must be in [0,1), got {rate}")
    if not training or rate == 0.0:
        return a
    keep = rng.random(a.shape) >= rate
    factor = keep / (1.0 - rate)

    def vjp(g):
        if a.requires_grad:
            a.accumulate_grad(g * factor)

    return _record(a.values * factor, (a,), vjp)


def slice_rows(a: ad.Tensor, start: int, stop: int) -> ad.Tensor:
    """Rows start..stop-1 of a: one graph's rows cut out of a padded batch."""
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeMismatch(f"slice [{start}:{stop}] outside {a.shape[0]} rows")

    def vjp(g):
        if a.requires_grad:
            full = np.zeros_like(a.values)
            full[start:stop] = g
            a.accumulate_grad(full)

    return _record(a.values[start:stop].copy(), (a,), vjp)


def sum_neighbors(a: ad.Tensor, adjacency: np.ndarray) -> ad.Tensor:
    """Row v of the result is the sum of a's rows over v's neighbors.

    A (B, m, m) adjacency is a batch of blocks: a holds B stacked (m, d)
    blocks, and block i only sums over the rows of block i.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    rows = a.shape[0]
    blocks, m = (1, rows) if adjacency.ndim == 2 else adjacency.shape[:2]
    if (a.values.ndim != 2 or adjacency.ndim not in (2, 3) or blocks * m != rows
            or adjacency.shape[-2:] != (m, m)):
        raise ShapeMismatch(f"sum_neighbors: {a.shape} with adjacency {adjacency.shape}")
    stacked = (blocks, m, a.shape[1])

    def vjp(g):
        if a.requires_grad:
            back = np.matmul(np.swapaxes(adjacency, -1, -2), g.reshape(stacked))
            a.accumulate_grad(back.reshape(a.shape), owned=True)

    return _record(np.matmul(adjacency, a.values.reshape(stacked)).reshape(a.shape),
                   (a,), vjp)


def dense_reference(x, w, b, relu_on: bool, rate: float, rng) -> ad.Tensor:
    """autodiff.dense as the composition it replaces: matmul, add, then relu
    and dropout when on."""
    h = ad.add(matmul(x, w), b)
    if relu_on:
        h = relu(h)
    return dropout(h, rate, rng) if rate > 0.0 else h


def gin_aggregate_reference(h, eps, adjacency) -> ad.Tensor:
    """autodiff.gin_aggregate as the composition it replaces."""
    neighbor_sum = sum_neighbors(h, adjacency)
    return ad.add(ad.mul(ad.add(ad.constant(1.0), eps), h), neighbor_sum)


def reachable_nodes(tensor: ad.Tensor) -> list:
    """The nodes reachable from tensor through its parents, leaves and
    constants included."""
    seen = {id(tensor)}
    nodes = [tensor]
    stack = [tensor]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                nodes.append(parent)
                stack.append(parent)
    return nodes


OPS = ("add", "mul", "dense", "gin_aggregate", "reshape", "scalar_with_grad", "thin_qr")


def spy_on_ops(monkeypatch) -> tuple[list, list]:
    """Patch every autodiff op and Tensor.__init__; returns the lists each
    op's result (in call order) and each Tensor constructed are appended to."""
    results, tensors = [], []
    for name in OPS:
        def spy(*args, _op=getattr(ad, name), **kwargs):
            results.append(_op(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(ad, name, spy)
    init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tensors.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
    return results, tensors


def recorded_ops(tensor: ad.Tensor) -> int:
    """Backward ops recorded on the way to tensor: the reachable nodes that
    carry a backward closure (leaves and constants carry none)."""
    return sum(node._vjp is not None for node in reachable_nodes(tensor))


def canonical_signs_loop(vectors: np.ndarray, tol: float) -> np.ndarray:
    """Column by column: flip a column whose first entry with |value| > tol
    is negative (the loop `eigen.canonical_signs` vectorizes)."""
    out = vectors.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        nz = np.nonzero(np.abs(col) > tol)[0]
        if nz.size and col[nz[0]] < 0:
            out[:, i] = -col
    return out


def build_adjacency_loop(g: Graph) -> np.ndarray:
    """Edge by edge: two item assignments per edge into a zero (n, n) float64
    matrix (the loop `graphs.build_adjacency` vectorizes)."""
    a = np.zeros((g.num_nodes, g.num_nodes))
    for u, v in g.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def laid_out(module, rng: np.random.Generator):
    """A module built alone, its parameters laid out and initialised from rng
    as a model builder lays out a whole model's (nn.allocate_parameters)."""
    allocate_parameters(module.parameters(), rng)
    return module


def random_connected_graph(rng: np.random.Generator, n_low: int = 4, n_high: int = 16) -> Graph:
    n = int(rng.integers(n_low, n_high + 1))
    p = float(rng.uniform(0.3, 0.7))
    return generate_graph("erdos_renyi", {"n": n, "p": p}, seed=int(rng.integers(1 << 31)))


def random_graph_soup(count: int, seed: int, n_low: int = 4, n_high: int = 16) -> list[Graph]:
    rng = np.random.default_rng(seed)
    return [random_connected_graph(rng, n_low, n_high) for _ in range(count)]


def threads_mix(seed: int = 0) -> list[Graph]:
    """Graphs whose 100-node chunks precompute_targets solves on worker
    threads: 8 graphs of 16 nodes, 4 of 40 and 4 of 100, then one 16-node
    graph with an isolated node, one too small for k=6 and one too large for
    max_nodes=100, all G(n, 0.3)."""
    sizes = [16] * 8 + [40] * 4 + [100] * 4 + [16, 4, 101]
    graphs = [generate_graph("erdos_renyi", {"n": n, "p": 0.3}, seed=seed + i)
              for i, n in enumerate(sizes)]
    graphs[16] = Graph(16, tuple(e for e in graphs[16].edges if 15 not in e))
    return graphs


# The node counts every stacked operator is pinned at.
STACK_SIZES = (1, 2, 8, 16, 40)


def adjacency_stack(n: int, count: int = 5, seed: int = 0) -> np.ndarray:
    """A (count, n, n) stack of adjacencies of n-node graphs: G(n, p) with
    no isolated node (p varies from graph to graph), except that a one-node
    graph has nothing but its isolated node."""
    if n == 1:
        return np.zeros((count, 1, 1))
    rng = np.random.default_rng([seed, n])
    return np.stack([build_adjacency(generate_graph(
        "erdos_renyi", {"n": n, "p": float(rng.uniform(0.2, 0.8))}, seed=seed + i))
        for i in range(count)])


def assert_same_bits(stacked, alone) -> None:
    """The arrays an operator gave a stack (stacked, each with the stack's
    leading axis) equal the arrays it gave each matrix alone (alone[i] for
    matrix i) bit for bit, in shape and dtype too."""
    stacked = stacked if isinstance(stacked, tuple) else (stacked,)
    assert len(alone) == len(stacked[0])
    for i, one in enumerate(alone):
        one = one if isinstance(one, tuple) else (one,)
        assert len(one) == len(stacked)
        for s, a in zip(stacked, one):
            assert s[i].shape == a.shape and s[i].dtype == a.dtype
            assert s[i].tobytes() == a.tobytes()


def read_header(path) -> dict:
    """The parsed JSON header line of the checkpoint at path."""
    return json.loads(Path(path).read_bytes().split(b"\n", 1)[0])


def edit_header(blob: bytes, edit) -> bytes:
    """A checkpoint's bytes with edit(header) applied to its parsed JSON header
    line, the body kept byte for byte."""
    line, body = blob.split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    return json.dumps(header).encode() + b"\n" + body


def as_old_version(blob: bytes, version: int) -> str:
    """A pretrain checkpoint written in the layout of version 1 or 2: the whole
    file one JSON object, the header's scalar fields beside an entry per array
    (parameters under "params", Adam's moments under "optimizer"). Version 1
    holds the values as JSON floats (a moment as nested lists), version 2 the
    base64 of their little-endian float64 bytes."""
    line, body = blob.split(b"\n", 1)
    header = json.loads(line)
    old = {**header, "version": version, "params": {}}
    old["optimizer"] = {**header["optimizer"], "m": {}, "v": {}}
    offset = 0
    for name, shape in old.pop("arrays"):
        a = np.frombuffer(body, "<f8", math.prod(shape), offset).reshape(shape)
        offset += a.nbytes
        if version == 2:
            entry = {"shape": shape, "data": base64.b64encode(a.tobytes()).decode("ascii")}
        else:
            entry = {"shape": shape, "values": a.ravel().tolist()}
        key, _, param = name.partition(".")
        if key in ("m", "v"):
            old["optimizer"][key][param] = a.tolist() if version == 1 else entry
        else:
            old["params"][name] = entry
    return json.dumps(old)


# an output path that cannot be written (see unwritable) -> the reason the OS gives
UNWRITABLE = {
    "missing/dir/out.jsonl": "No such file or directory",
    "a_file/out.jsonl": "Not a directory",
    "a_dir": "Is a directory",
}


def unwritable(tmp_path: Path, case: str) -> Path:
    """The UNWRITABLE output path case, under tmp_path once it holds the
    regular file a_file and the directory a_dir."""
    (tmp_path / "a_file").write_text("kept")
    (tmp_path / "a_dir").mkdir()
    return tmp_path / case
