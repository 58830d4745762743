"""Shared test utilities: finite-difference oracles, a scalarizing
projection, the layout of a module built alone, random graph soup and a
version-1 checkpoint writer."""

import numpy as np

from eigenlearn import autodiff as ad
from eigenlearn.graphs import Graph, generate_graph
from eigenlearn.nn import allocate_parameters
from eigenlearn.train import decode_array


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


def as_version_1(blob: dict) -> dict:
    """A current checkpoint object rewritten in the version-1 layout, which
    stored every array as JSON floats: parameters as {"shape", "values"} with
    the values row-major, Adam moments as nested lists."""
    def values(entries):
        return {name: {"shape": e["shape"], "values": decode_array(e, name).ravel().tolist()}
                for name, e in entries.items()}

    old = {**blob, "version": 1, "params": values(blob["params"])}
    old["optimizer"] = {**blob["optimizer"], **{
        key: {name: decode_array(e, name).tolist() for name, e in blob["optimizer"][key].items()}
        for key in ("m", "v")}}
    return old
