"""Model zoo on top of the autodiff engine.

GIN-style message passing encoder, node-wise and graph-level MLP heads that
run a whole mini-batch through one matrix product per layer,
differentiable modified Gram-Schmidt orthonormalization, and tape versions of
the training losses (which must agree with the numpy forms in `losses`).
"""

from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import GraphTooLarge, RankDeficient, ShapeMismatch
from .graphs import Graph, build_adjacency
from .losses import LossWeights

RANK_TOL = 1e-8

GRAPH_LEVEL = "graph_level"
NODE_WISE = "node_wise"
HEAD_KINDS = (GRAPH_LEVEL, NODE_WISE)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Mlp:
    """Dense stack: affine + ReLU (+ dropout) per hidden layer, affine output."""

    def __init__(self, dims: list[int], dropout_rate: float = 0.0,
                 rng: np.random.Generator | None = None):
        if len(dims) < 2:
            raise ShapeMismatch("an MLP needs at least input and output dims")
        if not 0.0 <= dropout_rate < 1.0:
            raise ShapeMismatch(f"dropout rate must be in [0,1), got {dropout_rate}")
        rng = rng or np.random.default_rng(0)
        self.dims = list(dims)
        self.dropout_rate = dropout_rate
        self.weights = []
        self.biases = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            self.weights.append(ad.parameter(glorot_uniform(rng, d_in, d_out)))
            self.biases.append(ad.parameter(np.zeros(d_out)))

    def forward(self, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = ad.add(ad.matmul(h, w), b)
            if i < last:
                h = ad.relu(h)
                if training and self.dropout_rate > 0.0:
                    h = ad.dropout(h, self.dropout_rate, rng, training=True)
        return h

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out


class GinLayer:
    """One message-passing step: h_v <- MLP((1 + eps) * h_v + sum_{u in N(v)} h_u)."""

    def __init__(self, in_dim: int, hidden_dim: int, update_layers: int,
                 dropout_rate: float, rng: np.random.Generator):
        dims = [in_dim] + [hidden_dim] * update_layers
        self.update_mlp = Mlp(dims, dropout_rate, rng)
        self.eps = ad.parameter(np.zeros(()))

    def forward(self, h: Tensor, adjacency: np.ndarray, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        neighbor_sum = ad.sum_neighbors(h, adjacency)
        scaled_self = ad.mul(ad.add(ad.constant(1.0), self.eps), h)
        return self.update_mlp.forward(ad.add(scaled_self, neighbor_sum), training, rng)

    def parameters(self) -> dict[str, Tensor]:
        out = {"eps": self.eps}
        for name, p in self.update_mlp.parameters().items():
            out[f"mlp.{name}"] = p
        return out


class GinEncoder:
    def __init__(self, in_dim: int, hidden_dim: int, mp_layers: int,
                 update_layers: int, dropout_rate: float, rng: np.random.Generator):
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.layers = []
        d = in_dim
        for _ in range(mp_layers):
            self.layers.append(GinLayer(d, hidden_dim, update_layers, dropout_rate, rng))
            d = hidden_dim

    def forward(self, g: Graph, x: Tensor, training: bool = False,
                rng: np.random.Generator | None = None) -> Tensor:
        adjacency = build_adjacency(g)
        h = x
        for layer in self.layers:
            h = layer.forward(h, adjacency, training, rng)
        return h

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, p in layer.parameters().items():
                out[f"layer{i}.{name}"] = p
        return out


def flatten_padded(zs: list[Tensor], max_nodes: int) -> Tensor:
    """Stack a batch of (n_i, d) node-embedding matrices into one (B, max_nodes*d)
    matrix: row i is graph i's embedding, zero-padded to max_nodes rows and
    flattened row-major. Gradients reach only the real rows."""
    for z in zs:
        if z.shape[0] > max_nodes:
            raise GraphTooLarge(z.shape[0], max_nodes)
    stacked = ad.concat_rows([ad.zero_pad_rows(z, max_nodes) for z in zs])
    return ad.reshape(stacked, (len(zs), max_nodes * zs[0].shape[1]))


class GraphLevelHead:
    """Concatenate all node embeddings (zero-padded to a fixed node budget) and
    map them jointly to an n x k eigenvector estimate.

    forward() takes a batch: the padded embeddings of all graphs go through the
    MLP as one (B, max_nodes*d) matrix, so each layer is one GEMM forward and
    one weight-gradient GEMM backward. The padded output rows are sliced away
    before anything downstream sees them, so phantom nodes never influence a
    prediction or a loss.
    """

    def __init__(self, max_nodes: int, d_hidden: int, k: int, mlp_hidden: int,
                 mlp_layers: int, dropout_rate: float, rng: np.random.Generator):
        self.max_nodes = max_nodes
        self.k = k
        dims = [max_nodes * d_hidden] + [mlp_hidden] * (mlp_layers - 1) + [max_nodes * k]
        self.mlp = Mlp(dims, dropout_rate, rng)

    def forward(self, zs: list[Tensor], training: bool = False,
                rng: np.random.Generator | None = None) -> list[Tensor]:
        out = self.mlp.forward(flatten_padded(zs, self.max_nodes), training, rng)
        grid = ad.reshape(out, (len(zs) * self.max_nodes, self.k))
        return [ad.slice_rows(grid, i * self.max_nodes, i * self.max_nodes + z.shape[0])
                for i, z in enumerate(zs)]

    def parameters(self) -> dict[str, Tensor]:
        return {f"mlp.{name}": p for name, p in self.mlp.parameters().items()}


class NodeWiseHead:
    """Per-node MLP from hidden embedding to k eigencoordinates; rows never mix.

    forward() takes a batch and runs the MLP once over the nodes of all graphs.
    """

    def __init__(self, d_hidden: int, k: int, mlp_hidden: int, mlp_layers: int,
                 dropout_rate: float, rng: np.random.Generator):
        self.k = k
        dims = [d_hidden] + [mlp_hidden] * (mlp_layers - 1) + [k]
        self.mlp = Mlp(dims, dropout_rate, rng)

    def forward(self, zs: list[Tensor], training: bool = False,
                rng: np.random.Generator | None = None) -> list[Tensor]:
        out = self.mlp.forward(ad.concat_rows(zs), training, rng)
        starts = accumulate((z.shape[0] for z in zs), initial=0)
        return [ad.slice_rows(out, lo, lo + z.shape[0]) for lo, z in zip(starts, zs)]

    def parameters(self) -> dict[str, Tensor]:
        return {f"mlp.{name}": p for name, p in self.mlp.parameters().items()}


def orthonormalize(u_tilde: Tensor) -> Tensor:
    """Differentiable modified Gram-Schmidt: returns Q with Q^T Q = I and
    span(Q) = span(input), the thin-QR Q with positive R diagonal.

    Gradients flow through every projection and normalization. Raises
    RankDeficient(j) if column j collapses below tolerance during elimination.
    """
    if len(u_tilde.shape) != 2:
        raise ShapeMismatch(f"orthonormalize needs a matrix, got {u_tilde.shape}")
    n, k = u_tilde.shape
    if n < k:
        raise ShapeMismatch(f"need n >= k to orthonormalize, got {n} x {k}")
    columns: list[Tensor] = []
    for j in range(k):
        selector = np.zeros((k, 1))
        selector[j, 0] = 1.0
        v = ad.matmul(u_tilde, ad.constant(selector))
        for q in columns:
            coeff = ad.matmul(ad.transpose(q), v)
            v = ad.sub(v, ad.mul(q, coeff))
        norm = ad.frobenius_norm(v)
        if norm.item() < RANK_TOL:
            raise RankDeficient(j)
        columns.append(ad.div(v, norm))
    return ad.concat_cols(columns)


class EigenModel:
    """Encoder plus eigenvector head; forward gives the raw head outputs of a
    batch of graphs, and predict() one graph's orthonormalized eigenvector
    estimate."""

    def __init__(self, encoder: GinEncoder, head, head_kind: str):
        if head_kind not in HEAD_KINDS:
            raise ShapeMismatch(f"unknown head kind {head_kind!r}")
        self.encoder = encoder
        self.head = head
        self.head_kind = head_kind

    def forward(self, graphs: list[Graph], xs: list[Tensor], training: bool = False,
                rng: np.random.Generator | None = None) -> list[Tensor]:
        """Raw head outputs of a batch: the encoder runs graph by graph, the
        head once over the whole batch."""
        zs = [self.encoder.forward(g, x, training, rng) for g, x in zip(graphs, xs)]
        return self.head.forward(zs, training, rng)

    def predict(self, g: Graph, features: np.ndarray) -> np.ndarray:
        """Evaluation-mode orthonormal eigenvector estimate (no dropout) of one
        graph, run as a batch of one."""
        u_tilde = self.forward([g], [ad.constant(features)])[0]
        return orthonormalize(u_tilde).values

    def parameters(self) -> dict[str, Tensor]:
        out = {f"encoder.{n}": p for n, p in self.encoder.parameters().items()}
        out.update({f"head.{n}": p for n, p in self.head.parameters().items()})
        return out


# --- tape versions of the training losses ---------------------------------
# These mirror the numpy evaluations in `losses`; tests pin them to agree.


def eigvec_loss_t(u_hat: Tensor, laplacian: np.ndarray, lambda_k: np.ndarray) -> Tensor:
    k = u_hat.shape[1]
    residual = ad.sub(ad.matmul(ad.constant(laplacian), u_hat),
                      ad.column_scale(u_hat, lambda_k))
    return ad.scale(ad.frobenius_norm(residual), 1.0 / k)


def energy_loss_t(u_hat: Tensor, laplacian: np.ndarray) -> Tensor:
    k = u_hat.shape[1]
    quad = ad.matmul(ad.transpose(u_hat), ad.matmul(ad.constant(laplacian), u_hat))
    return ad.scale(ad.trace(quad), 1.0 / k)


def ortho_loss_t(u_hat: Tensor) -> Tensor:
    k = u_hat.shape[1]
    gram = ad.matmul(ad.transpose(u_hat), u_hat)
    return ad.scale(ad.frobenius_norm(ad.sub(gram, ad.constant(np.eye(k)))), 1.0 / k)


def combined_loss_t(u_hat: Tensor, laplacian: np.ndarray, lambda_k: np.ndarray,
                    weights: LossWeights) -> Tensor:
    total = None
    if weights.alpha_energy:
        total = ad.scale(energy_loss_t(u_hat, laplacian), weights.alpha_energy)
    if weights.beta_eigvec:
        term = ad.scale(eigvec_loss_t(u_hat, laplacian, lambda_k), weights.beta_eigvec)
        total = term if total is None else ad.add(total, term)
    if weights.gamma_ortho:
        term = ad.scale(ortho_loss_t(u_hat), weights.gamma_ortho)
        total = term if total is None else ad.add(total, term)
    return total


def abs_cos_mae_loss_t(u_hat: Tensor, psi_k: np.ndarray) -> Tensor:
    """Tape version of the absolute-value cosine + MAE baseline loss."""
    n, k = u_hat.shape
    if psi_k.shape != (n, k):
        raise ShapeMismatch(f"targets shape {psi_k.shape} != prediction shape {(n, k)}")
    total = None
    for i in range(k):
        selector = np.zeros((k, 1))
        selector[i, 0] = 1.0
        a = ad.abs_(ad.matmul(u_hat, ad.constant(selector)))
        b_vals = np.abs(psi_k[:, i : i + 1])
        b = ad.constant(b_vals)
        mae = ad.mean(ad.abs_(ad.sub(a, b)))
        nb = float(np.linalg.norm(b_vals))
        na = ad.frobenius_norm(a)
        if nb == 0.0 or na.item() == 0.0:
            # zero-vector convention: maximal cosine penalty, no direction to follow
            term = ad.add(mae, ad.constant(1.0))
        else:
            dot = ad.reshape(ad.matmul(ad.transpose(a), b), ())
            cos = ad.div(dot, ad.scale(na, nb))
            term = ad.add(mae, ad.sub(ad.constant(1.0), cos))
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / k)


def mae_loss_t(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float64).reshape(pred.shape)
    return ad.mean(ad.abs_(ad.sub(pred, ad.constant(target))))
