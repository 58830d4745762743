"""Pre-training and fine-tuning loops.

Pre-training drives the encoder + eigenvector head against the combined
spectral objective in mini-batches; fine-tuning swaps in a downstream
scalar-regression head over the same concatenated-padded node embeddings, and
the loss comparison trains one model per loss. All three run through one
epoch loop, the generator _epochs, and differ only in their per-batch loss
function; a caller's loop over _epochs is its per-epoch hook. A mini-batch
runs as a few ops on its padded (B, max_nodes, k) stack: one encoder and head
pass, one thin-QR op (_spectral_pass), and one op per loss over the stack,
against the batch's zero-padded targets (padded_targets). Every per-graph
constant, the adjacency as well as the targets, is built once by
precompute_targets, which runs each operator once per stack of graphs of one
node count, and carried on the example. Evaluation runs the same pass
without a generator or a tape, and takes the spectral means from one
combined_loss call per batch (_spectral_means). Runs are deterministic per
seed, including across a checkpoint: one JSON header line with the run's
scalar state (the generator's too) and array layout, then the array bytes.

A run is set by one PretrainConfig, which nests a SchedulerConfig, the loss's
LossWeights and the wavelets' FeatureConfig. Each is a data.config class: a
field is declared once, with its kind, and every config is checked when it is
built, in code, by dataclasses.replace or from a dict (config_from_dict); the
checkpoint header's config is dataclasses.asdict of it.
"""

import contextlib
import functools
import json
import logging
import math
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import zip_longest
from typing import Annotated, NamedTuple

import numpy as np

from . import autodiff as ad
from .data import (BOOL, FINITE, FINITE_OR_NULL, FRACTION, LIST, NON_NEGATIVE,
                   NON_NEGATIVE_INT, OBJECT, OBJECT_OR_NULL, POSITIVE, POSITIVE_INT, Kind,
                   atomic_write_text, check_fields, config, from_dict, one_of,
                   read_header_and_arrays)
from .eigen import eigendecompose, lowest_k
from .errors import (EmptyDatasetAfterFilter, InvalidParams, MissingTarget, NumericalFault,
                     RankDeficient)
from .graphs import (LAPLACIAN_NORMS, Graph, build_adjacency, build_laplacian,
                     has_isolated_node, physical_memory)
from .losses import LossWeights, combined_loss, mae_loss
from .nn import (GRAPH_LEVEL, HEAD_KINDS, EigenModel, GinEncoder, GraphLevelHead,
                 Mlp, NodeWiseHead, abs_cos_mae_loss_t, allocate_parameters,
                 combined_loss_t, mae_loss_t, orthonormalize)
from .optim import Adam, ReduceLROnPlateau, worker_threads
from .wavelets import FeatureConfig, structural_embeddings, with_original_features

log = logging.getLogger("eigenlearn.train")

CHECKPOINT_FORMAT = "eigenlearn-checkpoint"
CHECKPOINT_VERSION = 3

ARM_OURS = "eigvec_ours"
ARM_BASELINE = "abs_cos_mae"
ARM_RANDOM = "random_orthogonal"
COMPARISON_ARMS = (ARM_OURS, ARM_BASELINE, ARM_RANDOM)


@config
class SchedulerConfig:
    kind: Annotated[str, one_of("none", "reduce_on_plateau")] = "reduce_on_plateau"
    patience: Annotated[int, POSITIVE_INT] = 5
    factor: Annotated[float, FINITE] = 0.9
    monitored: Annotated[str, one_of("train_loss", "val_loss")] = "train_loss"

    def __post_init__(self):
        if self.kind == "reduce_on_plateau" and not 0.0 < self.factor < 1.0:
            raise InvalidParams(f"plateau factor must be in (0,1), got {self.factor!r}")


@config
class PretrainConfig:
    """Every knob of the pre-training run; defaults are the desk-scale
    rendition of the reference hyperparameter table."""

    k: Annotated[int, POSITIVE_INT] = 6
    epochs: Annotated[int, NON_NEGATIVE_INT] = 200
    batch_size: Annotated[int, POSITIVE_INT] = 128
    lr: Annotated[float, POSITIVE] = 0.001
    loss_weights: LossWeights = LossWeights()
    laplacian_norm: Annotated[str, one_of(*LAPLACIAN_NORMS)] = "unnormalized"
    head_kind: Annotated[str, one_of(*HEAD_KINDS)] = GRAPH_LEVEL
    max_nodes: Annotated[int, POSITIVE_INT] = 40
    scheduler: SchedulerConfig = SchedulerConfig()
    seed: Annotated[int, NON_NEGATIVE_INT] = 0
    feature_config: FeatureConfig = FeatureConfig()
    hidden_dim: Annotated[int, POSITIVE_INT] = 60
    mp_layers: Annotated[int, POSITIVE_INT] = 4
    update_layers: Annotated[int, POSITIVE_INT] = 3
    head_layers: Annotated[int, POSITIVE_INT] = 5
    head_hidden_dim: Annotated[int, POSITIVE_INT] = 2400
    dropout: Annotated[float, FRACTION] = 0.1
    finetune_epochs: Annotated[int, NON_NEGATIVE_INT] = 500
    keep_pretrain_head: Annotated[bool, BOOL] = False


def config_from_dict(d: dict) -> PretrainConfig:
    """Build a config from a plain dict; unspecified fields take defaults,
    unknown fields are rejected."""
    return from_dict(PretrainConfig, d)


@dataclass
class TrainingExample:
    """A graph with everything training needs attached, each built once: the
    encoder's input (features, adjacency) and the spectral targets."""

    graph: Graph
    features: np.ndarray
    adjacency: np.ndarray
    laplacian: np.ndarray
    lambda_k: np.ndarray
    psi_k: np.ndarray


@dataclass
class EpochRow:
    epoch: int
    loss_total: float
    loss_energy: float
    loss_eigvec: float
    ortho_residual: float
    lr: float
    seconds: float


def _csv(cls, rows: list) -> str:
    """Rows of dataclass cls as CSV: a header of its field names, then each
    row's fields in that order (str of a float is its shortest round trip)."""
    names = [f.name for f in fields(cls)]
    lines = [",".join(names)] + [",".join(str(getattr(r, n)) for n in names) for r in rows]
    return "\n".join(lines) + "\n"


@dataclass
class RunRecord:
    rows: list[EpochRow] = field(default_factory=list)
    skipped_batches: int = 0

    def to_csv(self, include_timing: bool = True) -> str:
        return _csv(EpochRow, self.rows if include_timing
                    else [replace(r, seconds=0.0) for r in self.rows])

    def deterministic_key(self) -> list[tuple]:
        """Row tuples with the wall-clock column dropped (the one
        nondeterministic field); used for run-equality comparisons."""
        return [tuple(getattr(r, f.name) for f in fields(EpochRow) if f.name != "seconds")
                for r in self.rows]


# The most adjacency values precompute_targets stacks into one call of each
# operator: graphs of one node count go in chunks of at most this many values
# (one graph a chunk from 91 nodes up). Small graphs gain most from stacking,
# since numpy's per-call cost dominates their operators; at 100 nodes eigh
# dominates and a stack gains nothing, and a larger chunk would only raise
# peak memory by the chunk's operators and spectra. A chunk planned at half
# this many values or more (a graph of 91 nodes or more, or a stack of smaller
# graphs as large) is solved on a worker thread (precompute_targets): its
# solve takes about a millisecond, while handing it over (the first time,
# starting the run's pool) takes up to a few tenths of one, which the solve
# of a smaller chunk would not repay.
STACK_VALUES = 2 ** 14


def _lowest_spectra(laplacians: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(lambda_k, psi_k) of each Laplacian of a stack: all a solve keeps, so
    no full n x n spectrum outlives its chunk."""
    return lowest_k(eigendecompose(laplacians), k)


def _chunks(by_size: dict[int, list[tuple[int, Graph]]]) -> list[list[tuple[int, Graph]]]:
    """The (index, graph) members of each chunk of graphs of one node count,
    of at most STACK_VALUES adjacency values; node count by node count, in
    order."""
    chunks = []
    for n, members in by_size.items():
        per_chunk = max(1, STACK_VALUES // (n * n))
        chunks += [members[lo:lo + per_chunk] for lo in range(0, len(members), per_chunk)]
    return chunks


def precompute_targets(graphs: list[Graph], cfg: PretrainConfig) -> list[TrainingExample]:
    """Attach augmented features, the adjacency, the Laplacian, and the
    lowest-k spectrum to every usable graph; drop (and count, by reason)
    graphs violating the preconditions (n < k, n > max_nodes, isolated nodes).
    The examples keep the graphs' order.

    Graphs of one node count are stacked, in chunks of at most STACK_VALUES
    adjacency values: each graph that passes the size filter has its
    adjacency built once, into its chunk's stack, which the example carries a
    view of. Graphs with an isolated node leave the chunk before its
    operators run, and each operator (the features' diffusion and wavelet
    bank, the Laplacian, the eigensolver) then runs once per chunk, giving
    each graph the bits its own per-graph call would at one BLAS thread.

    Everything runs inside optim.worker_threads, so at one BLAS thread, and
    the examples do not depend on the BLAS thread count. A chunk planned at
    STACK_VALUES // 2 adjacency values or more (before the isolated-node
    filter) has its spectra solved by a submitted call, on the scope's
    workers, while this thread goes on to build the next chunks'
    adjacency, Laplacian and features; smaller chunks are solved here,
    after every chunk is built. A failure raises what a chunk-by-chunk loop
    would: the error of the first failing chunk, in chunk order.
    """
    too_small = too_large = isolated = 0
    by_size: dict[int, list[tuple[int, Graph]]] = {}
    for i, g in enumerate(graphs):
        if g.num_nodes < cfg.k:
            too_small += 1
        elif g.num_nodes > cfg.max_nodes:
            too_large += 1
        else:
            by_size.setdefault(g.num_nodes, []).append((i, g))
    examples: list[TrainingExample | None] = [None] * len(graphs)
    chunks = _chunks(by_size)
    large = [len(chunk) * chunk[0][1].num_nodes ** 2 >= STACK_VALUES // 2 for chunk in chunks]
    # each built chunk, in chunk order, with the call that gives its spectra
    built: list[tuple[list, np.ndarray, np.ndarray, np.ndarray, Callable]] = []
    failure = None
    with worker_threads() as submit:
        try:
            for chunk, on_worker in zip(chunks, large):
                adjacency = np.stack([build_adjacency(g) for _, g in chunk])
                bad = has_isolated_node(adjacency)
                if bad.any():
                    isolated += int(bad.sum())
                    chunk = [member for member, b in zip(chunk, bad) if not b]
                    if not chunk:
                        continue
                    adjacency = adjacency[~bad]
                features = structural_embeddings(adjacency, cfg.feature_config)
                laplacians = build_laplacian(adjacency, cfg.laplacian_norm)
                solve = (submit if on_worker else functools.partial)(_lowest_spectra,
                                                                     laplacians, cfg.k)
                built.append((chunk, adjacency, features, laplacians, solve))
        except Exception as exc:  # raised below, after the chunks built before it
            failure = exc
        for chunk, adjacency, features, laplacians, solve in built:
            lambda_k, psi_k = solve()
            for j, (i, g) in enumerate(chunk):
                examples[i] = TrainingExample(
                    g, with_original_features(g, cfg.feature_config, features[j]),
                    adjacency[j], laplacians[j], lambda_k[j], psi_k[j])
    if failure is not None:
        raise failure
    examples = [ex for ex in examples if ex is not None]
    if too_small + too_large + isolated:
        log.info("dropped %d of %d graphs during target precomputation: %d with fewer than "
                 "k=%d nodes, %d with more than max_nodes=%d, %d with an isolated node",
                 too_small + too_large + isolated, len(graphs), too_small, cfg.k,
                 too_large, cfg.max_nodes, isolated)
    if not examples:
        raise EmptyDatasetAfterFilter(
            f"no graph survived filtering (k={cfg.k}, max_nodes={cfg.max_nodes})")
    return examples


class PaddedTargets(NamedTuple):
    """A mini-batch's targets in the layout of its (B, max_nodes, k)
    prediction stack, zero past each graph's node count."""

    laplacian: np.ndarray  # (B, max_nodes, max_nodes)
    lambda_k: np.ndarray   # (B, k)
    psi_k: np.ndarray      # (B, max_nodes, k)
    sizes: np.ndarray      # (B,) node counts


def pad_stack(arrays: list[np.ndarray], shape: tuple) -> np.ndarray:
    """A zeros (len(arrays), *shape) stack with arrays[i] in the leading
    corner of block i."""
    out = np.zeros((len(arrays), *shape))
    for block, a in zip(out, arrays):
        block[tuple(slice(0, d) for d in a.shape)] = a
    return out


def padded_targets(batch: list[TrainingExample], max_nodes: int) -> PaddedTargets:
    """The batch's Laplacians, spectra and node counts, padded to max_nodes
    rows; built per batch, so target precomputation does no padding."""
    k = len(batch[0].lambda_k)
    return PaddedTargets(pad_stack([ex.laplacian for ex in batch], (max_nodes, max_nodes)),
                         np.stack([ex.lambda_k for ex in batch]),
                         pad_stack([ex.psi_k for ex in batch], (max_nodes, k)),
                         np.array([ex.graph.num_nodes for ex in batch]))


def _require_examples(examples: list, what: str) -> None:
    """Refuse an empty example list in one line: training on it would report
    a loss of 0.0, and evaluating it would fail deep inside numpy."""
    if not examples:
        raise InvalidParams(f"{what} needs at least one example, got none")


def feature_dim(examples: list[TrainingExample]) -> int:
    _require_examples(examples, "feature_dim")
    dims = {ex.features.shape[1] for ex in examples}
    if len(dims) != 1:
        raise InvalidParams(f"inconsistent feature dims across dataset: {sorted(dims)}")
    return dims.pop()


def _mlp_size(d_in: int, hidden: int, layers: int, d_out: int) -> int:
    """The parameter count of Mlp([d_in] + [hidden] * (layers - 1) + [d_out])."""
    if layers == 1:
        return (d_in + 1) * d_out
    return (d_in + 1) * hidden + (layers - 2) * (hidden + 1) * hidden + (hidden + 1) * d_out


def model_size(cfg: PretrainConfig, d_in: int) -> int:
    """The number of parameter values build_model(cfg, d_in) lays out, in
    closed form: nothing is built or allocated, whatever the config."""
    h = cfg.hidden_dim
    # each GIN layer: eps, then an update MLP of update_layers layers of width
    # h; the first layer's first weight is d_in x h, not h x h
    encoder = cfg.mp_layers * (1 + _mlp_size(h, h, cfg.update_layers, h)) - (h - d_in) * h
    if cfg.head_kind == GRAPH_LEVEL:
        head = _mlp_size(cfg.max_nodes * h, cfg.head_hidden_dim, cfg.head_layers,
                         cfg.max_nodes * cfg.k)
    else:
        head = _mlp_size(h, cfg.head_hidden_dim, cfg.head_layers, cfg.k)
    return encoder + head


def downstream_head_size(cfg: PretrainConfig) -> int:
    """The number of parameter values build_downstream_head(cfg) lays out."""
    return _mlp_size(cfg.max_nodes * cfg.hidden_dim, cfg.head_hidden_dim, cfg.head_layers, 1)


# Fields that a model's memory need depends on, named when a model is refused.
_SIZE_FIELDS = ("hidden_dim", "mp_layers", "update_layers", "head_kind", "head_layers",
                "head_hidden_dim", "max_nodes", "k", "batch_size")


def _check_fits(what: str, size: int, cfg: PretrainConfig) -> None:
    """Refuse, in one line naming the config fields, a model whose values and
    Adam's two moments (three float64 buffers of `size` values) and a batch's
    two (batch_size, max_nodes, max_nodes) float64 stacks (padded Laplacians,
    the encoder's adjacency) would not fit in the machine's physical memory."""
    need, memory = 8 * (3 * size + 2 * cfg.batch_size * cfg.max_nodes ** 2), physical_memory()
    if need > memory:
        fields = ", ".join(f"{name}={getattr(cfg, name)!r}" for name in _SIZE_FIELDS)
        raise InvalidParams(f"the {what} of this config has {_approx(size)} parameters, whose "
                            f"values and Adam moments, with a batch's padded stacks, need "
                            f"{_approx(need)} bytes, more than the {_approx(memory)} bytes of "
                            f"this machine's memory; lower some of {fields}")


@contextlib.contextmanager
def naming(where: str | None, errors=InvalidParams):
    """Prefix an error of the kinds errors (by default a config's refusal)
    raised inside with where: the file the config came from, or the step
    that failed. With where None, pass it on as it is."""
    try:
        yield
    except errors as exc:
        if where is not None:
            exc.args = (f"{where}: {exc}",)
        raise


def _approx(n: int) -> str:
    """A positive int to three significant digits (1.23e+45), or, beyond the
    float range, as the power of ten it exceeds."""
    try:
        return f"{n:.3g}"
    except OverflowError:
        return f"over 1e+{int((n.bit_length() - 1) * math.log10(2))}"


def build_model(cfg: PretrainConfig, d_in: int, draw: bool = True) -> EigenModel:
    """The model of a config, its parameters laid out as views of one buffer
    and initialised from generator stream 0; with draw=False left zero, for a
    caller that fills every value (load_checkpoint). A model that would not fit
    in memory is refused before anything is built."""
    _check_fits("model", model_size(cfg, d_in), cfg)
    encoder = GinEncoder(d_in, cfg.hidden_dim, cfg.mp_layers, cfg.update_layers,
                         cfg.dropout, cfg.max_nodes)
    if cfg.head_kind == GRAPH_LEVEL:
        head = GraphLevelHead(cfg.max_nodes, cfg.hidden_dim, cfg.k,
                              cfg.head_hidden_dim, cfg.head_layers, cfg.dropout)
    else:
        head = NodeWiseHead(cfg.hidden_dim, cfg.k, cfg.head_hidden_dim,
                            cfg.head_layers, cfg.dropout)
    model = EigenModel(encoder, head)
    allocate_parameters(model.parameters(), np.random.default_rng([cfg.seed, 0]) if draw else None)
    return model


def build_downstream_head(cfg: PretrainConfig, draw: bool = True) -> Mlp:
    """Scalar-regression head over the concatenated-padded node embeddings,
    its parameters one buffer, initialised from generator stream 3 (left zero
    with draw=False, as in build_model)."""
    _check_fits("downstream head", downstream_head_size(cfg), cfg)
    hidden = [cfg.head_hidden_dim] * (cfg.head_layers - 1)
    head = Mlp([cfg.max_nodes * cfg.hidden_dim] + hidden + [1], cfg.dropout)
    allocate_parameters(head.parameters(), np.random.default_rng([cfg.seed, 3]) if draw else None)
    return head


@dataclass
class TrainState:
    """Everything that must survive a checkpoint to resume bit-for-bit."""

    optimizer: Adam
    scheduler: ReduceLROnPlateau | None
    rng: np.random.Generator
    epoch: int = 0
    skipped_batches: int = 0


def _fresh_state(model: EigenModel, cfg: PretrainConfig,
                 downstream_head: Mlp | None = None) -> TrainState:
    """A run's state before its first epoch. Pre-training owns every model parameter
    and draws from generator stream 1; fine-tuning (a downstream head given) owns
    encoder.*, downstream.* and, with cfg.keep_pretrain_head, head.*, stream 4."""
    params, rng_stream = model.parameters(), 1
    if downstream_head is not None:
        params = {n: p for n, p in params.items() if n.startswith("encoder.")}
        params.update({f"downstream.{n}": p for n, p in downstream_head.parameters().items()})
        if cfg.keep_pretrain_head:
            params.update({f"head.{n}": p for n, p in model.head.parameters().items()})
        rng_stream = 4
    optimizer = Adam(params, lr=cfg.lr)
    scheduler = None
    if cfg.scheduler.kind == "reduce_on_plateau":
        scheduler = ReduceLROnPlateau(optimizer, cfg.scheduler.patience,
                                      cfg.scheduler.factor)
    return TrainState(optimizer, scheduler, np.random.default_rng([cfg.seed, rng_stream]))


# One mini-batch's loss: the loss op over the batch (one value per graph) and
# the extra per-graph record metrics (a tuple of arrays of B values).
BatchLosses = Callable[[list[TrainingExample]], tuple[ad.Tensor, tuple]]


def _batches(examples: list, batch_size: int):
    for lo in range(0, len(examples), batch_size):
        yield examples[lo:lo + batch_size]


def _monitors_val_loss(cfg: PretrainConfig) -> bool:
    return cfg.scheduler.kind == "reduce_on_plateau" and cfg.scheduler.monitored == "val_loss"


def _check_monitor(cfg: PretrainConfig, val_examples) -> None:
    """A plateau schedule on val_loss needs validation examples to monitor."""
    if _monitors_val_loss(cfg) and not val_examples:
        raise InvalidParams("scheduler.monitored='val_loss' needs validation examples; "
                            "pass val_examples or monitor train_loss")


def _epochs(examples: list[TrainingExample], cfg: PretrainConfig, state: TrainState,
            epochs: int, batch_losses: BatchLosses, validate: Callable[[], float] | None,
            columns: int = 1):
    """The one epoch loop: epochs state.epoch..epochs-1, each yielding its
    EpochRow after its scheduler step and state.epoch increment, so a caller
    that stops consuming can resume from state.

    An epoch is one pass over a fresh permutation of the examples in
    mini-batches, each a fixed slice of the permutation. The sum of a batch's
    per-graph losses is back-propagated once, and Adam steps on the mean
    gradient over the batch. A numerical fault or a rank-deficient
    orthogonalization anywhere in the batch discards the whole batch (its
    gradients are dropped, never clamped); it is counted and logged. If any
    batch reached the optimizer, the scheduler then steps on the mean
    training loss, or on validate() when it monitors val_loss; an epoch that
    changed no parameter leaves the schedule as it was, all under the
    caller's optim.worker_threads scope and its float policy. The row holds
    the means of the (loss, *metrics) rows of the graphs whose batch reached
    the optimizer step, padded with zeros to the run record's four loss
    columns. The objective fills `columns` of them; in an epoch that
    committed no batch they are NaN, since a made-up 0.0 would read as a
    perfect fit.
    """
    while state.epoch < epochs:
        started = time.perf_counter()
        order = state.rng.permutation(len(examples))
        rows = []
        for batch in _batches([examples[i] for i in order], cfg.batch_size):
            try:
                loss, metrics = batch_losses(batch)
                loss.backward(np.ones(loss.shape))
            except (NumericalFault, RankDeficient) as exc:
                state.optimizer.zero_grad()
                state.skipped_batches += 1
                log.warning("skipped batch at epoch %d: %s", state.epoch, exc)
                continue
            state.optimizer.step(grad_scale=1.0 / len(batch))
            state.optimizer.zero_grad()
            rows.append(np.column_stack((loss.values, *metrics)))
            del loss  # free this batch's tape before the next batch records its own
        # finite losses can sum past the largest float
        means = ([float(v) for v in np.mean(np.concatenate(rows), axis=0)] if rows
                 else [math.nan] * columns)
        means += [0.0] * (4 - len(means))  # finetune fills one of the four columns
        if state.scheduler is not None and rows:
            monitored = validate() if cfg.scheduler.monitored == "val_loss" else means[0]
            state.scheduler.step(float(monitored))
        state.epoch += 1
        yield EpochRow(state.epoch - 1, *means, state.optimizer.lr,
                       time.perf_counter() - started)


def _spectral_pass(model: EigenModel, batch: list[TrainingExample], cfg: PretrainConfig,
                   rng: np.random.Generator) -> tuple[ad.Tensor, PaddedTargets]:
    """The batch's training-mode orthonormal outputs, one (B, max_nodes, k) QR
    op over one model pass, and its padded targets."""
    targets = padded_targets(batch, cfg.max_nodes)
    return orthonormalize(model.forward([ex.adjacency for ex in batch],
                                        [ex.features for ex in batch], rng)), targets


def _spectral_means(outputs: list[np.ndarray], targets: list[PaddedTargets],
                    weights: LossWeights) -> list[float]:
    """Means of the combined loss and its unweighted (energy, eigvec, ortho)
    terms over orthonormal outputs (outputs[j] is batch j's padded stack,
    targets[j] its targets), each over every graph: one combined_loss call a batch."""
    batches = [combined_loss(u, t.laplacian, t.lambda_k, weights, terms=True)
               for u, t in zip(outputs, targets, strict=True)]
    return [float(np.mean(np.concatenate(column)))
            for column in zip(*[(total, *terms) for total, terms in batches])]


def _fixed_batches(examples: list[TrainingExample], cfg: PretrainConfig
                   ) -> tuple[list[list[TrainingExample]], list[PaddedTargets]]:
    """The examples in order, in batches of cfg.batch_size, and each batch's
    padded targets: built once for a dataset evaluated again and again."""
    batches = list(_batches(examples, cfg.batch_size))
    return batches, [padded_targets(batch, cfg.max_nodes) for batch in batches]


def _evaluate_spectral(model: EigenModel, batches: list[list[TrainingExample]],
                       targets: list[PaddedTargets], weights: LossWeights) -> list[float]:
    """_spectral_means of the model's predict_batch of each batch: the spectral
    pass without a generator (so without dropout) and without a tape."""
    return _spectral_means([model.predict_batch([ex.adjacency for ex in batch],
                                                [ex.features for ex in batch])
                            for batch in batches], targets, weights)


def pretrain(examples: list[TrainingExample], model: EigenModel, cfg: PretrainConfig,
             state: TrainState | None = None,
             val_examples: list[TrainingExample] | None = None
             ) -> tuple[RunRecord, TrainState]:
    """Run the eigenvector-learning loop from state.epoch up to cfg.epochs.

    Per mini-batch of `batch_size` graphs: one encoder pass and one head pass
    over the padded batch -> one thin-QR op over the stack -> one combined
    loss op (a value per graph), one Adam step on the mean gradient (see
    _epochs for the batch and fault semantics). The record's energy,
    eigvec and orthogonality columns come from the same loss call. A
    scheduler monitoring val_loss steps on evaluate_pretrain_loss's figure
    for val_examples, which it then requires; their batches and padded
    targets are built once per call, not once per epoch.

    The epochs run in one optim.worker_threads scope: at one BLAS thread, so
    the run's bits do not depend on the BLAS thread count, under its float
    policy and with one worker pool. The hold is process-wide: BLAS work
    that the caller runs in another thread meanwhile runs on one thread too.
    """
    _require_examples(examples, "pretrain")
    _check_monitor(cfg, val_examples)
    if state is None:
        state = _fresh_state(model, cfg)
    val = _fixed_batches(val_examples, cfg) if _monitors_val_loss(cfg) else None

    def batch_losses(batch):
        q, targets = _spectral_pass(model, batch, cfg, state.rng)
        loss, (energy, eigvec, ortho) = combined_loss_t(
            q, targets.laplacian, targets.lambda_k, cfg.loss_weights, terms=True)
        return loss, (energy, eigvec, cfg.k * ortho)  # ortho_loss is ||U^T U - I|| / k

    with worker_threads():
        rows = list(_epochs(examples, cfg, state, cfg.epochs, batch_losses,
                            lambda: _evaluate_spectral(model, *val, cfg.loss_weights)[0],
                            columns=4))
    return RunRecord(rows, state.skipped_batches), state


def evaluate_pretrain_loss(model: EigenModel, examples: list[TrainingExample],
                           cfg: PretrainConfig) -> float:
    """Evaluation-mode (dropout-free, no tape) mean combined loss over a
    dataset, in batches of cfg.batch_size (see _evaluate_spectral)."""
    _require_examples(examples, "evaluate_pretrain_loss")
    return _evaluate_spectral(model, *_fixed_batches(examples, cfg), cfg.loss_weights)[0]


def _regression_pass(model: EigenModel, head: Mlp, batch: list[TrainingExample],
                     rng: np.random.Generator | None = None) -> tuple[ad.Tensor, ad.Tensor]:
    """The batch's (B, 1) downstream predictions and the encoder output z they
    come from: one encoder pass, reshaped to the head's (B, max_nodes*hidden_dim)
    input, and one head pass, each a training pass when given rng."""
    z = model.encoder.forward([ex.adjacency for ex in batch], [ex.features for ex in batch], rng)
    return head.forward(ad.reshape(z, (len(batch), -1)), rng), z


def predict_targets(model: EigenModel, head: Mlp, examples: list[TrainingExample],
                    cfg: PretrainConfig) -> np.ndarray:
    """Evaluation-mode (no tape) downstream predictions of every example, in
    batches of cfg.batch_size: fine-tuning's pass without a generator."""
    _require_examples(examples, "predict_targets")
    with ad.no_grad():
        return np.concatenate([_regression_pass(model, head, batch)[0][:, 0]
                               for batch in _batches(examples, cfg.batch_size)])


def evaluate_mae(model: EigenModel, head: Mlp, examples: list[TrainingExample],
                 cfg: PretrainConfig, target_name: str) -> float:
    _require_examples(examples, "evaluate_mae")
    targets = [ex.graph.graph_targets[target_name] for ex in examples]
    return mae_loss(predict_targets(model, head, examples, cfg), targets)


def finetune(examples: list[TrainingExample], model: EigenModel, head: Mlp,
             cfg: PretrainConfig, target_name: str,
             val_examples: list[TrainingExample] | None = None,
             state: TrainState | None = None) -> tuple[RunRecord, TrainState]:
    """Mean-absolute-error regression of a named scalar graph target, from
    state.epoch up to cfg.finetune_epochs (the one fine-tuning budget).

    The downstream head replaces the eigenvector head (both encoder and head
    weights update); with cfg.keep_pretrain_head the spectral objective keeps
    training alongside the regression loss through the retained head, on the
    same encoder pass. A scheduler monitoring val_loss evaluates the MAE on
    val_examples, which it then requires. The epochs, their validation
    included, run in one optim.worker_threads scope, as in pretrain.
    """
    _require_examples(examples, "finetune")
    _check_monitor(cfg, val_examples)
    for ex in examples + (val_examples or []):
        if target_name not in ex.graph.graph_targets:
            raise MissingTarget(target_name)
    if state is None:
        state = _fresh_state(model, cfg, head)

    def batch_losses(batch):
        b = len(batch)
        preds, z = _regression_pass(model, head, batch, state.rng)
        # each graph's prediction is a 1 x 1 block of a (B, 1, 1) stack
        targets = np.array([ex.graph.graph_targets[target_name] for ex in batch])
        loss = mae_loss_t(ad.reshape(preds, (b, 1, 1)), targets.reshape(b, 1, 1))
        if cfg.keep_pretrain_head:
            spectral = padded_targets(batch, cfg.max_nodes)
            q = orthonormalize(model.head.forward(z, spectral.sizes, state.rng))
            loss = ad.add(loss, combined_loss_t(q, spectral.laplacian, spectral.lambda_k,
                                                cfg.loss_weights))
        return loss, ()

    with worker_threads():
        rows = list(_epochs(examples, cfg, state, cfg.finetune_epochs, batch_losses,
                            lambda: evaluate_mae(model, head, val_examples, cfg, target_name)))
    return RunRecord(rows, state.skipped_batches), state


# --- loss-comparison harness ------------------------------------------------


@dataclass
class ComparisonRow:
    arm: str
    epoch: int
    loss_eigvec: float
    loss_energy: float


def comparison_to_csv(rows: list[ComparisonRow]) -> str:
    return _csv(ComparisonRow, rows)


def _random_orthonormal(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    with ad.no_grad():
        return ad.thin_qr(rng.standard_normal((n, k)), 0.0)


def compare_losses(examples: list[TrainingExample], cfg: PretrainConfig,
                   arms: tuple[str, ...] = COMPARISON_ARMS) -> dict[str, list[ComparisonRow]]:
    """Train one identical architecture per arm (the no-training arm emits
    seeded random orthonormal outputs) and report per-epoch eigvec/energy
    losses from one shared evaluation (_spectral_means) over the examples'
    fixed batches. arms names distinct arms of COMPARISON_ARMS; a bare
    string, an unknown arm or a repeated one is refused in one line.

    A trained arm's schedule steps once per epoch on its mean training loss;
    there is no validation split, so a val_loss schedule is rejected. The
    arms, their per-epoch evaluations included, run in one
    optim.worker_threads scope, as in pretrain.
    """
    _require_examples(examples, "compare_losses")
    if isinstance(arms, str):
        raise InvalidParams(f"arms must be a tuple of arm names, got the string {arms!r}")
    unknown = set(arms) - set(COMPARISON_ARMS)
    if unknown:
        raise InvalidParams(f"unknown arms: {sorted(unknown)}")
    if len(set(arms)) < len(arms):
        raise InvalidParams(f"each arm may be named once, got {list(arms)}")
    _check_monitor(cfg, None)
    d_in = feature_dim(examples)
    _check_fits("model", model_size(cfg, d_in), cfg)  # before the batches are padded
    batches, targets = _fixed_batches(examples, cfg)
    results: dict[str, list[ComparisonRow]] = {}
    with worker_threads():
        for arm in arms:
            if arm == ARM_RANDOM:
                outputs = [_random_orthonormal(ex.graph.num_nodes, cfg.k,
                                               np.random.default_rng([cfg.seed, 2, i]))
                           for i, ex in enumerate(examples)]
                stacks = [pad_stack(batch, (cfg.max_nodes, cfg.k))
                          for batch in _batches(outputs, cfg.batch_size)]
                _, energy, eigvec, _ = _spectral_means(stacks, targets, cfg.loss_weights)
                results[arm] = [ComparisonRow(arm, epoch, eigvec, energy)
                                for epoch in range(cfg.epochs)]
            else:
                results[arm] = _train_arm(arm, examples, cfg, d_in, batches, targets)
    return results


def _train_arm(arm: str, examples: list[TrainingExample], cfg: PretrainConfig, d_in: int,
               batches: list[list[TrainingExample]],
               targets: list[PaddedTargets]) -> list[ComparisonRow]:
    """A trained arm of compare_losses: a fresh model trained on the arm's
    loss, evaluated on the fixed batches after every epoch. Its model and
    state are gone when it returns, before the next arm builds its own."""
    model = build_model(cfg, d_in)
    state = _fresh_state(model, cfg)

    def batch_losses(batch):
        q, t = _spectral_pass(model, batch, cfg, state.rng)
        if arm == ARM_OURS:
            return combined_loss_t(q, t.laplacian, t.lambda_k, cfg.loss_weights), ()
        return abs_cos_mae_loss_t(q, t.psi_k, t.sizes), ()

    rows = []
    for row in _epochs(examples, cfg, state, cfg.epochs, batch_losses, None):
        with naming(f"{arm} arm, epoch {row.epoch}", (NumericalFault, RankDeficient)):
            _, energy, eigvec, _ = _evaluate_spectral(model, batches, targets, cfg.loss_weights)
        rows.append(ComparisonRow(arm, row.epoch, eigvec, energy))
    return rows


# --- checkpointing -----------------------------------------------------------


def _body(model: EigenModel, downstream_head: Mlp | None, optimizer: Adam) -> dict:
    """The arrays of a checkpoint's body by name, in body order: the model's
    parameter values, the downstream head's (named downstream.*), then Adam's
    m slots (m.*) and v slots (v.*), each in the order its buffer lays them out."""
    arrays = {name: p.values for name, p in model.parameters().items()}
    if downstream_head is not None:
        arrays.update({f"downstream.{name}": p.values
                       for name, p in downstream_head.parameters().items()})
    for key in ("m", "v"):
        arrays.update({f"{key}.{name}": a for name, a in getattr(optimizer, key).items()})
    return arrays


def _layout(arrays: dict) -> list:
    """The header's `arrays`: [name, shape] of each body array, in body order."""
    return [[name, list(a.shape)] for name, a in arrays.items()]


# The header fields of a checkpoint and of the optimizer and plateau states in
# it, each of its kind: a save writes these attributes, a load checks them. Of
# the scalars, a load sets only the state a fresh run cannot rebuild
# (_RESUMED); the others must equal the fresh state's: the code's betas, eps and
# threshold, the config's patience and factor.
# Adam's step count is the exponent of a float power, so it must convert to a float.
_ADAM = {"lr": NON_NEGATIVE, "beta1": FINITE, "beta2": FINITE, "eps": FINITE,
         "t": Kind("an int", lambda v: type(v) is int, ">= 0 and within the floats",
                   lambda v: 0 <= v <= sys.float_info.max)}
_PLATEAU = {"patience": POSITIVE_INT, "factor": FINITE, "threshold": FINITE,
            "best": FINITE_OR_NULL, "num_bad": NON_NEGATIVE_INT}
# Version-3 files saved before every run computed at one BLAS thread carry
# blas_threads, the count they were saved at: still checked, then ignored.
_CHECKPOINT = {
    "format": one_of(CHECKPOINT_FORMAT), "version": POSITIVE_INT,
    "kind": one_of("pretrain", "finetune"), "config": OBJECT, "d_in": POSITIVE_INT,
    "epoch": NON_NEGATIVE_INT, "skipped_batches": NON_NEGATIVE_INT,
    "blas_threads": Kind("null or an int", lambda v: v is None or type(v) is int,
                         "null or >= 1", lambda v: v is None or v >= 1),
    "optimizer": _ADAM, "scheduler": OBJECT_OR_NULL, "rng_state": OBJECT, "extra": OBJECT,
    "arrays": LIST,
}
_RESUMED = ("lr", "t", "best", "num_bad")


def _resume(fresh, saved: dict, where: str) -> None:
    """Set the _RESUMED fields of a fresh optimizer or schedule to the saved
    values; every other saved scalar must equal the fresh one."""
    for name, value in saved.items():
        if name in _RESUMED:
            setattr(fresh, name, value)
        elif value != getattr(fresh, name):
            raise InvalidParams(f"{where}.{name}: {value!r} in the file, "
                                f"{getattr(fresh, name)!r} in the state built from its config")


def save_checkpoint(path: str, model: EigenModel, cfg: PretrainConfig,
                    state: TrainState, d_in: int, downstream_head: Mlp | None = None,
                    extra: dict | None = None) -> None:
    """Write the run as one JSON header line, then the raw bytes of the arrays
    its `arrays` field lists (see the README's Checkpoint section), each
    written from its place in its buffer. d_in must be the model's input
    width (model.encoder.in_dim); any other is refused before anything is
    written."""
    if d_in != model.encoder.in_dim:
        raise InvalidParams(f"{path}: d_in {d_in} is not the model's input width "
                            f"{model.encoder.in_dim}")
    opt, scheduler = state.optimizer, state.scheduler
    arrays = _body(model, downstream_head, opt)
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "kind": "pretrain" if downstream_head is None else "finetune",
        "config": asdict(cfg),
        "d_in": d_in,
        "epoch": state.epoch,
        "skipped_batches": state.skipped_batches,
        "optimizer": {name: getattr(opt, name) for name in _ADAM},
        "scheduler": {name: getattr(scheduler, name) for name in _PLATEAU} if scheduler else None,
        "rng_state": state.rng.bit_generator.state,
        "extra": extra or {},
        "arrays": _layout(arrays),
    }
    atomic_write_text(path, json.dumps(header) + "\n", *arrays.values())


def load_checkpoint(path: str):
    """Returns (model, cfg, state, d_in, downstream_head_or_None, extra), built from
    the saved config as for a fresh run; the header is checked in full, then the
    body read straight into the built arrays. A misfit raises one InvalidParams line."""
    return read_header_and_arrays(path, lambda header: _restore(path, header))


def _restore(path: str, blob) -> tuple:
    """The run of a checkpoint's header (see load_checkpoint), its state set from
    the header's, and the arrays its body fills."""
    if type(blob) is not dict or blob.get("format") != CHECKPOINT_FORMAT:
        raise InvalidParams(f"{path} is not an eigenlearn checkpoint")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise InvalidParams(f"{path} is a version {blob.get('version')} checkpoint; this "
                            f"eigenlearn reads only version {CHECKPOINT_VERSION}")
    check_fields(blob, _CHECKPOINT, f"{path}: checkpoint", optional=("blas_threads",))
    cfg = from_dict(PretrainConfig, blob["config"], f"{path}: checkpoint.config")
    # the body fills every value, so nothing is drawn to be overwritten
    with naming(path):
        model = build_model(cfg, blob["d_in"], draw=False)
        head = build_downstream_head(cfg, draw=False) if blob["kind"] == "finetune" else None
    state = _fresh_state(model, cfg, head)
    arrays = _body(model, head, state.optimizer)
    # compared as JSON text, so that a shape of floats or bools differs too
    saved, built = map(json.dumps, blob["arrays"]), map(json.dumps, _layout(arrays))
    for i, (got, want) in enumerate(zip_longest(saved, built, fillvalue="absent")):
        if got != want:
            raise InvalidParams(f"{path}: checkpoint.arrays[{i}] is {got} in the file, {want} "
                                "in the model built from its config")
    _resume(state.optimizer, blob["optimizer"], f"{path}: checkpoint.optimizer")
    if (blob["scheduler"] is None) != (state.scheduler is None):
        raise InvalidParams(f"{path}: checkpoint scheduler state {blob['scheduler']} does not "
                            f"match its config's scheduler.kind={cfg.scheduler.kind!r}")
    if state.scheduler is not None:
        where = f"{path}: checkpoint.scheduler"
        _resume(state.scheduler, check_fields(blob["scheduler"], _PLATEAU, where), where)
    try:
        state.rng.bit_generator.state = blob["rng_state"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParams(f"{path}: the checkpoint's rng_state is not a "
                            f"{type(state.rng.bit_generator).__name__} state ({exc!r})") from None
    state.epoch, state.skipped_batches = blob["epoch"], blob["skipped_batches"]
    return (model, cfg, state, blob["d_in"], head, blob["extra"]), list(arrays.values())
