"""Structure-based node feature augmentation.

Two embeddings built from the random-walk matrix P = D^{-1} A:

* wavelet positional embeddings: dirac probes at two seeded source nodes,
  pushed through every operator of a diffusion wavelet bank;
* diffused dirac embeddings: each node's own one-step walk row dotted against
  its row in every bank operator.

The bank {I - P, P - P^2, ..., P^(2^(J-1)) - P^(2^J), P^(2^J)} telescopes to
the identity, which is the main structural invariant tested downstream.

Every function here takes one graph's (n, n) matrix or a (B, n, n) stack of
the matrices of B graphs of one node count, and gives each graph of a stack
the bits it gets alone; a refusal on a stack names the first bad matrix.
structural_embeddings computes both embeddings of an adjacency or a stack;
with_original_features puts a graph's own features before them when the
config keeps them; augment_features is the two in turn for one graph, as
train.precompute_targets is for stacks.

Which embeddings a graph gets is a FeatureConfig, a data.config class: each
field is declared with its kind, and an instance with neither embedding flag
set is rejected when it is built.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Annotated

import numpy as np

from .data import BOOL, NON_NEGATIVE_INT, config
from .errors import (IndexOutOfRange, InvalidParams, NodeCountTooSmall, NotStochastic,
                     ShapeMismatch)
from .graphs import Graph, build_adjacency, build_diffusion, physical_memory

STOCHASTIC_TOL = 1e-8
DEFAULT_SCALES = 2


@dataclass(frozen=True)
class WaveletBank:
    """Operators [psi_0, ..., psi_J, P^(2^J)], all n x n, plus the source P;
    each (B, n, n) for the bank of a stack."""

    scales: int
    operators: tuple[np.ndarray, ...]
    source_diffusion: np.ndarray

    @property
    def size(self) -> int:
        return len(self.operators)

    @property
    def n(self) -> int:
        return self.source_diffusion.shape[-1]


@config
class FeatureConfig:
    use_wavelet_positional: Annotated[bool, BOOL] = True
    use_diffused_dirac: Annotated[bool, BOOL] = True
    scales_J: Annotated[int, NON_NEGATIVE_INT] = DEFAULT_SCALES
    dirac_seed: Annotated[int, NON_NEGATIVE_INT] = 0
    keep_original_features: Annotated[bool, BOOL] = False

    def __post_init__(self):
        if not (self.use_wavelet_positional or self.use_diffused_dirac):
            raise InvalidParams("at least one embedding flag must be set")

    @property
    def num_operators(self) -> int:
        return self.scales_J + 2

    def embedding_dim(self, original_dim: int = 0) -> int:
        d = original_dim if self.keep_original_features else 0
        if self.use_wavelet_positional:
            d += 2 * self.num_operators
        if self.use_diffused_dirac:
            d += self.num_operators
        return d


def build_wavelet_bank(p: np.ndarray, scales: int) -> WaveletBank:
    """Diffusion wavelet bank of a row-stochastic matrix, or of each matrix of
    a (B, n, n) stack.

    psi_0 = I - P, psi_j = P^(2^(j-1)) - P^(2^j) for 1 <= j <= scales, closed
    by the low-pass P^(2^scales). Powers come from repeated squaring. A P
    whose row sums deviate from 1 by more than STOCHASTIC_TOL, or that holds
    a non-finite value, is refused, naming the first bad matrix of a stack.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (2, 3) or p.shape[-1] != p.shape[-2]:
        raise InvalidParams(f"diffusion matrix must be square, or a (B, n, n) stack of "
                            f"square matrices, got {p.shape}")
    if scales < 0:
        raise InvalidParams("scales must be >= 0")
    n = p.shape[-1]
    if 8 * (scales + 2) * p.size > physical_memory():
        raise InvalidParams(f"a wavelet bank of {scales} scales holds scales + 2 operators of "
                            f"shape {p.shape} in floats, more than this machine's memory; "
                            "lower scales_J")
    # a NaN entry, or +inf and -inf in one row, makes the row error NaN,
    # which fails the test below as well
    with np.errstate(invalid="ignore"):
        row_err = np.max(np.abs(p.sum(axis=-1) - 1.0), axis=-1)
    bad = np.flatnonzero(~(row_err <= STOCHASTIC_TOL))
    if bad.size:
        if np.isnan(row_err.flat[bad[0]]):
            name = "the matrix" if p.ndim == 2 else f"matrix {bad[0]} in the stack"
            raise NotStochastic(f"{name} holds a non-finite value")
        where = "" if p.ndim == 2 else f" of matrix {bad[0]} in the stack"
        raise NotStochastic(f"row sums{where} deviate from 1 by {row_err.flat[bad[0]]:.3e}")
    ops = [np.eye(n) - p]
    power = p  # holds P^(2^(j-1)) at the top of iteration j
    for _ in range(1, scales + 1):
        squared = power @ power
        ops.append(power - squared)
        power = squared
    ops.append(power)
    return WaveletBank(scales, tuple(ops), p)


def wavelet_positional_embeddings(bank: WaveletBank, node_i: int, node_j: int) -> np.ndarray:
    """n x 2(J+2) matrix (B x n x 2(J+2) for the bank of a stack): per
    operator, the columns of the two dirac sources.

    Column layout is operator-major: (op_0 @ i, op_0 @ j, op_1 @ i, ...).
    """
    n = bank.n
    if not (0 <= node_i < n) or not (0 <= node_j < n):
        raise IndexOutOfRange(f"source nodes ({node_i}, {node_j}) outside [0,{n})")
    if node_i == node_j:
        raise InvalidParams("dirac source nodes must be distinct")
    cols = [op[..., [node_i, node_j]] for op in bank.operators]
    return np.concatenate(cols, axis=-1)


def diffused_dirac_embeddings(bank: WaveletBank) -> np.ndarray:
    """n x (J+2) matrix (B x n x (J+2) for the bank of a stack): entry (m, k)
    = <row m of operator k, row m of P>."""
    p = bank.source_diffusion
    cols = [np.sum(op * p, axis=-1) for op in bank.operators]
    return np.stack(cols, axis=-1)


@lru_cache(maxsize=1024)
def pick_dirac_sources(num_nodes: int, seed: int) -> tuple[int, int]:
    """Two distinct node indices, deterministic per (num_nodes, seed), so
    memoized: a dataset draws them once per node count, not once per graph.
    The bound keeps every node count up to a few hundred under a few seeds."""
    if num_nodes < 2:
        raise NodeCountTooSmall(f"need >= 2 nodes for dirac sources, got {num_nodes}")
    rng = np.random.default_rng(seed)
    i, j = rng.choice(num_nodes, size=2, replace=False)
    return int(i), int(j)


def structural_embeddings(adjacency: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """The (positional | diffused dirac) embeddings, per config, of one
    graph's (n, n) adjacency, or of each graph of a (B, n, n) stack: an
    (n, d) or a (B, n, d) array.

    Dirac sources depend only on (n, cfg.dirac_seed) and are memoized per pair
    (pick_dirac_sources), so the result is deterministic for a fixed (graph,
    config), and every graph of a stack takes the same two.
    """
    if cfg.use_wavelet_positional and np.shape(adjacency)[-2:] == (1, 1):
        raise NodeCountTooSmall("positional embeddings need >= 2 nodes, got 1")
    bank = build_wavelet_bank(build_diffusion(adjacency), cfg.scales_J)
    blocks = []
    if cfg.use_wavelet_positional:
        i, j = pick_dirac_sources(bank.n, cfg.dirac_seed)
        blocks.append(wavelet_positional_embeddings(bank, i, j))
    if cfg.use_diffused_dirac:
        blocks.append(diffused_dirac_embeddings(bank))
    return np.concatenate(blocks, axis=-1)


def with_original_features(g: Graph, cfg: FeatureConfig, embeddings: np.ndarray) -> np.ndarray:
    """g's encoder input from its (n, d) structural embeddings: g's own node
    features before them when cfg keeps them and g has some, else the
    embeddings as they are."""
    if cfg.keep_original_features and g.node_features is not None:
        return np.concatenate([g.node_features, embeddings], axis=1)
    return embeddings


def augment_features(g: Graph, cfg: FeatureConfig,
                     adjacency: np.ndarray | None = None) -> np.ndarray:
    """Concatenate (original features | positional | diffused dirac) per config:
    with_original_features of g's structural_embeddings.

    The diffusion operator comes from adjacency, g's (n, n) adjacency array
    when the caller has already built it (graphs.build_adjacency), else from
    one built here.
    """
    if adjacency is None:
        adjacency = build_adjacency(g)
    elif np.shape(adjacency) != (g.num_nodes, g.num_nodes):
        n = g.num_nodes
        raise ShapeMismatch(f"augment_features: a {n}-node graph needs a ({n}, {n}) "
                            f"adjacency, got shape {np.shape(adjacency)}")
    return with_original_features(g, cfg, structural_embeddings(adjacency, cfg))
