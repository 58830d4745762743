"""Model zoo on top of the autodiff engine.

The unit of work is a padded mini-batch: the GIN encoder runs all graphs of a
batch at once, each graph occupying `max_nodes` consecutive rows of one
matrix. It takes each graph as its dense adjacency, which the caller builds
once per graph (a training example carries its own, see
train.precompute_targets; EigenModel.predict builds one). Each GIN
aggregation is one tape op over the whole batch (`autodiff.gin_aggregate`),
and so is each layer of the encoder's update MLPs and of the node-wise and
graph-level heads (`autodiff.dense`: product, bias, ReLU and dropout). A
head's output is one (B, max_nodes, k) stack whose phantom rows (those past
each graph's node count) are zero. Orthonormalization is one thin-QR op over the stack, and each training
objective is one op over it too, built on its single numpy definition in
`losses`, which returns each graph's value together with the closed-form
gradient: `combined_loss_t` for pre-training and the eigvec_ours arm of the
loss comparison, `abs_cos_mae_loss_t` for its baseline arm and `mae_loss_t`
for fine-tuning. The energy, eigenvector and orthogonality terms reach the
tape only as parts of the combined loss.

A forward pass drops out exactly when it is given a generator (`rng`), its
one mode switch. Evaluation is the same forward without one, inside
`autodiff.no_grad`, which records no tape: there every op returns a bare
np.ndarray and takes one back, so a forward pass, and each module's, returns
an array and builds no Tensor. Modules hand the ops their constants (an input
batch, a phantom-row mask) as bare arrays too.

Modules declare the shapes of their parameters and allocate nothing. The
model builders in `train` lay a whole model's parameters out as views of one
buffer (allocate_parameters), the layout optim.Adam steps in one pass.
"""

import math

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tensor
from .errors import GraphTooLarge, ShapeMismatch
from .graphs import Graph, build_adjacency
from .losses import LossWeights

RANK_TOL = 1e-8

GRAPH_LEVEL = "graph_level"
NODE_WISE = "node_wise"
HEAD_KINDS = (GRAPH_LEVEL, NODE_WISE)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """A (fan_in, fan_out) Glorot-uniform draw, into `out` when given. It is
    bit for bit rng.uniform(-limit, limit, (fan_in, fan_out)) and leaves rng
    in the same state, without a temporary the size of the draw."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    out = np.empty((fan_in, fan_out)) if out is None else out
    rng.random(out=out)
    out *= limit - -limit
    out += -limit
    return out


def unallocated_parameter(shape: tuple) -> Tensor:
    """A parameter with a shape but no storage yet (a read-only zero view);
    allocate_parameters gives it its place in a buffer."""
    return ad.parameter(np.broadcast_to(0.0, shape))


def allocate_parameters(params: dict[str, Tensor],
                        rng: np.random.Generator | None) -> np.ndarray:
    """Lay the parameters out, in order, as consecutive views of one new
    float64 buffer, and initialise them in that order: each matrix (a layer's
    weights) Glorot-uniform from rng, drawn straight into its view, everything
    else (biases, the GIN eps) zero. Returns the buffer. Without a generator
    every value stays zero, for a caller that fills them all itself (a
    checkpoint load).

    The model builders (train.build_model, train.build_downstream_head) are
    its only callers: each lays out a whole model at once, so its parameters
    make one buffer (and one optimizer run, see optim.Adam)."""
    flat = np.zeros(sum(p.values.size for p in params.values()))
    offset = 0
    for p in params.values():
        view = flat[offset:offset + p.values.size].reshape(p.shape)
        offset += view.size
        if view.ndim == 2 and rng is not None:
            glorot_uniform(rng, *view.shape, out=view)
        p.values = view
    return flat


class Mlp:
    """Dense stack: affine + ReLU per hidden layer, affine output; each layer
    is one `autodiff.dense` op. forward() drops out the hidden layers exactly
    when it is given a generator.

    Like every module here, it declares its parameters' shapes and allocates
    nothing: a model builder lays them out (allocate_parameters).
    """

    def __init__(self, dims: list[int], dropout_rate: float = 0.0):
        if len(dims) < 2:
            raise ShapeMismatch("an MLP needs at least input and output dims")
        if not 0.0 <= dropout_rate < 1.0:
            raise ShapeMismatch(f"dropout rate must be in [0,1), got {dropout_rate}")
        self.dims = list(dims)
        self.dropout_rate = dropout_rate
        self.weights = []
        self.biases = []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            self.weights.append(unallocated_parameter((d_in, d_out)))
            self.biases.append(unallocated_parameter((d_out,)))

    def forward(self, x: ad.Value, rng: np.random.Generator | None = None) -> ad.Value:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            hidden = i < last
            rate = self.dropout_rate if hidden and rng is not None else 0.0
            h = ad.dense(h, w, b, relu=hidden, rate=rate, rng=rng)
        return h

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"w{i}"] = w
            out[f"b{i}"] = b
        return out


class GinLayer:
    """One message-passing step: h_v <- MLP((1 + eps) * h_v + sum_{u in N(v)} h_u),
    the aggregation one `autodiff.gin_aggregate` op."""

    def __init__(self, in_dim: int, hidden_dim: int, update_layers: int,
                 dropout_rate: float):
        dims = [in_dim] + [hidden_dim] * update_layers
        self.update_mlp = Mlp(dims, dropout_rate)
        self.eps = unallocated_parameter(())

    def forward(self, h: ad.Value, adjacency: np.ndarray,
                rng: np.random.Generator | None = None) -> ad.Value:
        return self.update_mlp.forward(ad.gin_aggregate(h, self.eps, adjacency), rng)

    def parameters(self) -> dict[str, Tensor]:
        out = {"eps": self.eps}
        for name, p in self.update_mlp.parameters().items():
            out[f"mlp.{name}"] = p
        return out


class GinEncoder:
    """GIN message passing over a padded mini-batch.

    Graph i of a batch of B occupies rows i*max_nodes .. i*max_nodes+n_i-1 of
    one (B*max_nodes, d) matrix; its adjacency is block i of a (B, max_nodes,
    max_nodes) tensor. The remaining (phantom) rows have no edges, so no
    message ever reaches a real node from them, and the MLPs act row by row;
    the output multiplies them by zero once, after the last layer, so they
    neither reach a head nor receive a gradient.
    """

    def __init__(self, in_dim: int, hidden_dim: int, mp_layers: int,
                 update_layers: int, dropout_rate: float, max_nodes: int):
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.max_nodes = max_nodes
        self.layers = []
        d = in_dim
        for _ in range(mp_layers):
            self.layers.append(GinLayer(d, hidden_dim, update_layers, dropout_rate))
            d = hidden_dim

    def forward(self, adjacencies: list[np.ndarray], features: list,
                rng: np.random.Generator | None = None) -> ad.Value:
        """Node embeddings of a batch as one (B*max_nodes, hidden_dim) tensor,
        zero on phantom rows. adjacencies[i] is graph i's (n_i, n_i) adjacency
        (graphs.build_adjacency) and features[i] its (n_i, in_dim) array (a
        constant tensor is accepted too)."""
        m = self.max_nodes
        x = np.zeros((len(adjacencies) * m, self.in_dim))
        adjacency = np.zeros((len(adjacencies), m, m))
        mask = np.zeros((len(adjacencies) * m, 1))
        for i, (a, f) in enumerate(zip(adjacencies, features, strict=True)):
            n = len(a)
            if a.shape != (n, n):
                raise ShapeMismatch(f"adjacency of shape {a.shape} is not square")
            if n > m:
                raise GraphTooLarge(n, m)
            f = f.values if isinstance(f, Tensor) else np.asarray(f, dtype=np.float64)
            if f.shape != (n, self.in_dim):
                raise ShapeMismatch(f"features of shape {f.shape} for a {n}-node graph; "
                                    f"the encoder expects ({n}, {self.in_dim})")
            x[i * m:i * m + n] = f
            adjacency[i, :n, :n] = a
            mask[i * m:i * m + n] = 1.0
        h = x
        for layer in self.layers:
            h = layer.forward(h, adjacency, rng)
        return ad.mul(h, mask)

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, layer in enumerate(self.layers):
            for name, p in layer.parameters().items():
                out[f"layer{i}.{name}"] = p
        return out


def _mask_phantom_rows(out: ad.Value, sizes: list[int], k: int) -> ad.Value:
    """A head's output for a batch of graphs with sizes[i] nodes, reshaped to
    (B, max_nodes, k) with the rows past each graph's size multiplied by zero
    (one constant mask), so phantom nodes reach neither a prediction nor a
    loss and receive no gradient."""
    b = len(sizes)
    size = math.prod(out.shape)
    m = size // (b * k)
    if size != b * m * k or max(sizes) > m:
        raise ShapeMismatch(f"head output {out.shape} does not hold {b} graphs of up to "
                            f"{max(sizes)} nodes with {k} columns")
    mask = np.zeros((b, m, 1))
    for i, n in enumerate(sizes):
        mask[i, :n] = 1.0
    return ad.mul(ad.reshape(out, (b, m, k)), mask)


class GraphLevelHead:
    """Concatenate all node embeddings of a graph (zero-padded to a fixed node
    budget) and map them jointly to an n x k eigenvector estimate.

    forward() takes the encoder's padded batch: one reshape makes it the
    (B, max_nodes*d) input, so each MLP layer is one GEMM forward and one
    weight-gradient GEMM backward. One constant mask zeroes the output's
    phantom rows, so phantom nodes never influence a prediction or a loss.
    """

    def __init__(self, max_nodes: int, d_hidden: int, k: int, mlp_hidden: int,
                 mlp_layers: int, dropout_rate: float):
        self.max_nodes = max_nodes
        self.k = k
        dims = [max_nodes * d_hidden] + [mlp_hidden] * (mlp_layers - 1) + [max_nodes * k]
        self.mlp = Mlp(dims, dropout_rate)

    def forward(self, z: ad.Value, sizes: list[int],
                rng: np.random.Generator | None = None) -> ad.Value:
        """z: (B*max_nodes, d) padded embeddings of B graphs with sizes[i]
        nodes; returns their (B, max_nodes, k) outputs, zero on phantom rows."""
        b = len(sizes)
        if z.shape[0] != b * self.max_nodes:
            raise ShapeMismatch(f"graph-level head: {z.shape[0]} rows for {b} graphs "
                                f"of {self.max_nodes} node slots")
        out = self.mlp.forward(ad.reshape(z, (b, self.max_nodes * z.shape[1])), rng)
        return _mask_phantom_rows(out, sizes, self.k)

    def parameters(self) -> dict[str, Tensor]:
        return {f"mlp.{name}": p for name, p in self.mlp.parameters().items()}


class NodeWiseHead:
    """Per-node MLP from hidden embedding to k eigencoordinates; rows never mix.

    forward() runs the MLP once over every row of the padded batch, phantom
    rows included, and zeroes the phantom rows of the output.
    """

    def __init__(self, d_hidden: int, k: int, mlp_hidden: int, mlp_layers: int,
                 dropout_rate: float):
        self.k = k
        dims = [d_hidden] + [mlp_hidden] * (mlp_layers - 1) + [k]
        self.mlp = Mlp(dims, dropout_rate)

    def forward(self, z: ad.Value, sizes: list[int],
                rng: np.random.Generator | None = None) -> ad.Value:
        """z: (B*m, d) padded embeddings of B graphs with sizes[i] nodes;
        returns their (B, m, k) outputs, zero on phantom rows."""
        return _mask_phantom_rows(self.mlp.forward(z, rng), sizes, self.k)

    def parameters(self) -> dict[str, Tensor]:
        return {f"mlp.{name}": p for name, p in self.mlp.parameters().items()}


def orthonormalize(u_tilde: ad.Value) -> ad.Value:
    """Q with Q^T Q = I and span(Q) = span(input), for one (n, k) matrix or
    for each graph of a padded (B, max_nodes, k) batch: the thin-QR Q with a
    positive R diagonal, recorded as one op (`autodiff.thin_qr`). Zero
    (phantom) rows stay exactly zero.

    Raises RankDeficient(j) for the first column j with |R_jj| < RANK_TOL;
    in a batch, RankDeficient(j, i) for the first such graph i, and
    ShapeMismatch for anything but a tall matrix or a stack of them.
    """
    return ad.thin_qr(u_tilde, RANK_TOL)


class EigenModel:
    """Encoder plus eigenvector head; forward gives the raw head outputs of a
    batch of graphs, predict_batch() their orthonormalized eigenvector
    estimates in evaluation mode, and predict() one graph's. A batch's
    outputs are one (B, max_nodes, k) stack, zero on phantom rows."""

    def __init__(self, encoder: GinEncoder, head):
        self.encoder = encoder
        self.head = head

    def forward(self, adjacencies: list[np.ndarray], features: list,
                rng: np.random.Generator | None = None) -> ad.Value:
        """Raw (B, max_nodes, k) head outputs of a batch: one encoder pass and
        one head pass over the padded batch (adjacencies and features as in
        GinEncoder.forward). A graph with fewer than k nodes has no k
        orthonormal columns to estimate and raises ShapeMismatch, as does an
        empty batch."""
        sizes = [len(a) for a in adjacencies]
        if not sizes:
            raise ShapeMismatch("an empty batch has no graph to run the model on")
        for n in sizes:
            if n < self.head.k:
                raise ShapeMismatch(f"need n >= k to orthonormalize, got {n} x {self.head.k}")
        z = self.encoder.forward(adjacencies, features, rng)
        return self.head.forward(z, sizes, rng)

    def predict_batch(self, adjacencies: list[np.ndarray], features: list) -> np.ndarray:
        """Evaluation-mode (no generator, no dropout, nothing recorded)
        orthonormal eigenvector estimates of a batch of graphs: one
        (B, max_nodes, k) array, graph i's (n_i, k) estimate in its first n_i
        rows, zeros below. The pass runs inside autodiff.no_grad, so every op
        returns a bare array and no Tensor is built; the result is the thin-QR
        op's own array. It opens no optim.worker_threads scope, which would
        cost every predict a scope entry: a library caller who wants the
        run's float policy and one BLAS thread opens optim.worker_threads()
        around it, as the CLI's commands and train's evaluations do."""
        with ad.no_grad():
            return orthonormalize(self.forward(adjacencies, features))

    def predict(self, g: Graph, features: np.ndarray) -> np.ndarray:
        """The (n, k) estimate of one graph: predict_batch of a batch of one,
        on the adjacency it builds; like predict_batch, it opens no
        optim.worker_threads scope."""
        return self.predict_batch([build_adjacency(g)], [features])[0, :g.num_nodes]

    def parameters(self) -> dict[str, Tensor]:
        out = {f"encoder.{n}": p for n, p in self.encoder.parameters().items()}
        out.update({f"head.{n}": p for n, p in self.head.parameters().items()})
        return out


# --- training objectives as single ops --------------------------------------
# Each records the value and gradient its numpy definition in `losses`
# returns: for one (n, k) matrix a scalar, for a padded (B, max_nodes, k)
# stack one value per graph (with targets padded alike), as one node. Each
# takes a recorded pass's Tensor; evaluation, whose passes return bare arrays,
# calls the numpy definitions in `losses` directly.


def combined_loss_t(u_hat: Tensor, laplacian: np.ndarray, lambda_k: np.ndarray,
                    weights: LossWeights, terms: bool = False):
    """The combined loss op; terms=True returns (op, the unweighted (energy,
    eigvec, ortho) values) as losses.combined_loss computes them."""
    value, grad, *rest = losses.combined_loss(u_hat.values, laplacian, lambda_k, weights,
                                              grad=True, terms=terms)
    loss = ad.scalar_with_grad(u_hat, value, grad)
    return (loss, *rest) if terms else loss


def abs_cos_mae_loss_t(u_hat: Tensor, psi_k: np.ndarray, sizes=None) -> Tensor:
    return ad.scalar_with_grad(u_hat, *losses.abs_cos_mae_loss(u_hat.values, psi_k, sizes,
                                                               grad=True))


def mae_loss_t(pred: Tensor, target: np.ndarray) -> Tensor:
    return ad.scalar_with_grad(pred, *losses.mae_loss(pred.values, target, grad=True))
