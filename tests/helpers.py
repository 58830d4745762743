"""Shared test utilities: finite-difference oracles, a scalarizing
projection, the layout of a module built alone, random graph soup, and
checkpoint helpers: a header reader and editor, and an old-version writer."""

import base64
import json
import math
from pathlib import Path

import numpy as np

from eigenlearn import autodiff as ad
from eigenlearn.graphs import Graph, generate_graph
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
