import ast
import concurrent.futures
import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eigenlearn import autodiff as ad
from eigenlearn import optim
from eigenlearn import train as tr
from eigenlearn import wavelets
from eigenlearn.data import from_dict
from eigenlearn.eigen import eigendecompose, lowest_k
from eigenlearn.errors import (EmptyDatasetAfterFilter, InvalidParams, IsolatedNode,
                               MissingTarget, NoConvergence, NodeCountTooSmall,
                               NotStochastic, NotSymmetric, NumericalFault, ShapeMismatch)
from eigenlearn.graphs import (LAPLACIAN_NORMS, Graph, build_adjacency, build_laplacian,
                               generate_graph)
from eigenlearn.losses import LossWeights, eigvec_loss, energy_loss, mae_loss
from eigenlearn.wavelets import FeatureConfig
from helpers import (as_old_version, edit_header, random_graph_soup, read_header,
                     reachable_nodes, recorded_ops, spy_on_ops, threads_mix)


def small_cfg(**overrides):
    base = {
        "k": 2, "epochs": 3, "batch_size": 4, "lr": 0.005,
        "hidden_dim": 6, "mp_layers": 2, "update_layers": 2,
        "head_layers": 2, "head_hidden_dim": 12, "max_nodes": 12,
        "dropout": 0.1, "seed": 0,
        "scheduler": {"kind": "none"},
        "feature_config": {"scales_J": 1},
    }
    base.update(overrides)
    return tr.config_from_dict(base)


def graph_soup(count=6, seed=0, n_low=4, n_high=10, target=False):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(n_low, n_high + 1))
        g = generate_graph("erdos_renyi", {"n": n, "p": 0.5}, seed=seed + i + 1)
        if target:
            from eigenlearn.eigen import eigendecompose
            lam2 = float(eigendecompose(build_laplacian(build_adjacency(g))).eigenvalues[1])
            g = Graph(g.num_nodes, g.edges, None, {"lambda_2": lam2})
        graphs.append(g)
    return graphs


# --- config plumbing ---

def test_config_defaults_match_reference_table():
    cfg = tr.config_from_dict({})
    assert cfg.k == 6
    assert cfg.epochs == 200
    assert cfg.batch_size == 128
    assert cfg.lr == 0.001
    assert cfg.loss_weights == LossWeights(1.0, 2.0, 0.0)
    assert cfg.laplacian_norm == "unnormalized"
    assert cfg.max_nodes == 40
    assert cfg.hidden_dim == 60
    assert cfg.mp_layers == 4
    assert cfg.update_layers == 3
    assert cfg.head_layers == 5
    assert cfg.head_hidden_dim == 2400
    assert cfg.dropout == 0.1
    assert cfg.scheduler.kind == "reduce_on_plateau"
    assert cfg.scheduler.patience == 5
    assert cfg.scheduler.factor == 0.9
    assert cfg.head_kind == "graph_level"


def test_config_roundtrip():
    cfg = small_cfg()
    assert tr.config_from_dict(dataclasses.asdict(cfg)) == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(InvalidParams):
        tr.config_from_dict({"learning_rate": 0.1})
    with pytest.raises(InvalidParams):
        tr.config_from_dict({"scheduler": {"kidn": "none"}})
    with pytest.raises(InvalidParams, match="feature_config"):
        tr.config_from_dict({"feature_config": {"scales": 2}})
    with pytest.raises(InvalidParams, match="loss_weights"):
        tr.config_from_dict({"loss_weights": {"alpha": 1.0}})
    with pytest.raises(InvalidParams):
        tr.config_from_dict({"scheduler": "none"})


@pytest.mark.parametrize("cls, d, message", [
    (tr.PretrainConfig, {"k": "x"}, "config.k must be an int, got 'x'"),
    (tr.PretrainConfig, {"k": True}, "config.k must be an int, got True"),
    (tr.PretrainConfig, {"batch_size": 2.5}, "config.batch_size must be an int, got 2.5"),
    (tr.PretrainConfig, {"lr": "x"}, "config.lr must be a number, got 'x'"),
    (tr.PretrainConfig, {"dropout": False}, "config.dropout must be a number, got False"),
    (tr.PretrainConfig, {"laplacian_norm": 1}, "config.laplacian_norm must be a string, got 1"),
    (tr.PretrainConfig, {"keep_pretrain_head": 1},
     "config.keep_pretrain_head must be true or false, got 1"),
    (tr.PretrainConfig, {"scheduler": {"patience": "5"}},
     "config.scheduler.patience must be an int, got '5'"),
    (tr.PretrainConfig, {"loss_weights": {"alpha_energy": None}},
     "config.loss_weights.alpha_energy must be a number, got None"),
    (FeatureConfig, {"use_diffused_dirac": "yes"},
     "config.use_diffused_dirac must be true or false, got 'yes'"),
])
def test_config_rejects_a_field_of_the_wrong_type_in_one_line(cls, d, message):
    with pytest.raises(InvalidParams) as exc:
        from_dict(cls, d)
    assert str(exc.value) == message


# (class, field, bad value, the diagnostic built in code or by replace, the
# diagnostic read from a dict when it differs); "@" stands for the class name,
# or for "config" when read from a dict. A nested config's place takes its
# instance, and from a dict its object: a dict or a wrong config class fails
# at the parent, except that from a dict a nested dict is read and its bad
# leaf named.
CONFIG_CASES = [
    (tr.PretrainConfig, "loss_weights", {"alpha_energy": -5.0},
     "@.loss_weights must be a LossWeights, got {'alpha_energy': -5.0}",
     "@.loss_weights.alpha_energy must be finite and >= 0, got -5.0"),
    (tr.PretrainConfig, "scheduler", {"patience": 0},
     "@.scheduler must be a SchedulerConfig, got {'patience': 0}",
     "@.scheduler.patience must be >= 1, got 0"),
    (tr.PretrainConfig, "feature_config", {"scales_J": -1},
     "@.feature_config must be a FeatureConfig, got {'scales_J': -1}",
     "@.feature_config.scales_J must be >= 0, got -1"),
    (tr.PretrainConfig, "loss_weights", tr.SchedulerConfig(),
     "@.loss_weights must be a LossWeights, got SchedulerConfig(kind='reduce_on_plateau', "
     "patience=5, factor=0.9, monitored='tra",
     "@.loss_weights must be an object, got SchedulerConfig(kind='reduce_on_plateau', "
     "patience=5, factor=0.9, monitored='tra"),
    (tr.PretrainConfig, "scheduler", LossWeights(),
     "@.scheduler must be a SchedulerConfig, got LossWeights(alpha_energy=1.0, beta_eigvec=2.0,"
     " gamma_ortho=0.0)",
     "@.scheduler must be an object, got LossWeights(alpha_energy=1.0, beta_eigvec=2.0, "
     "gamma_ortho=0.0)"),
    (tr.PretrainConfig, "feature_config", LossWeights(),
     "@.feature_config must be a FeatureConfig, got LossWeights(alpha_energy=1.0, "
     "beta_eigvec=2.0, gamma_ortho=0.0)",
     "@.feature_config must be an object, got LossWeights(alpha_energy=1.0, "
     "beta_eigvec=2.0, gamma_ortho=0.0)"),
    (tr.PretrainConfig, "k", "6", "@.k must be an int, got '6'", None),
    (tr.PretrainConfig, "dropout", 1.0, "@.dropout must be in [0, 1), got 1.0", None),
    (LossWeights, "gamma_ortho", True, "@.gamma_ortho must be a number, got True", None),
    (LossWeights, "beta_eigvec", -1.0, "@.beta_eigvec must be finite and >= 0, got -1.0", None),
    (tr.SchedulerConfig, "patience", 2.0, "@.patience must be an int, got 2.0", None),
    (tr.SchedulerConfig, "monitored", "val",
     "@.monitored must be one of 'train_loss', 'val_loss', got 'val'", None),
    (FeatureConfig, "use_diffused_dirac", 1, "@.use_diffused_dirac must be true or false, got 1",
     None),
    (FeatureConfig, "dirac_seed", -1, "@.dirac_seed must be >= 0, got -1", None),
]


@pytest.mark.parametrize("how", ["code", "replace", "dict"])
@pytest.mark.parametrize("cls, name, value, message, from_dict_message", CONFIG_CASES,
                         ids=[f"{c[0].__name__}.{c[1]}-{type(c[2]).__name__}"
                              for c in CONFIG_CASES])
def test_every_way_of_building_a_config_checks_it_in_one_line(how, cls, name, value,
                                                              message, from_dict_message):
    with pytest.raises(InvalidParams) as exc:
        if how == "code":
            cls(**{name: value})
        elif how == "replace":
            dataclasses.replace(cls(), **{name: value})
        else:
            from_dict(cls, {name: value})
    if how == "dict":
        expected = (from_dict_message or message).replace("@", "config")
    else:
        expected = message.replace("@", cls.__name__)
    assert str(exc.value) == expected


def test_config_float_fields_take_ints():
    cfg = tr.config_from_dict({"lr": 1, "loss_weights": {"gamma_ortho": 2}})
    assert cfg.lr == 1 and cfg.loss_weights.gamma_ortho == 2


def _non_default(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2 if value else 1.0  # stays inside (0, 1) where it must
    return {"unnormalized": "symmetric", "graph_level": "node_wise",
            "reduce_on_plateau": "none", "train_loss": "val_loss"}[value]


def _leaf_paths(obj, prefix=()):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaf_paths(value, prefix + (f.name,))
        else:
            yield prefix + (f.name,)


def test_config_every_field_roundtrips():
    # each field, nested ones included, set away from its default on its own
    # (some pairs of non-default values are invalid together)
    base = tr.PretrainConfig()
    paths = list(_leaf_paths(base))
    assert len(paths) == 28
    for path in paths:
        d = dataclasses.asdict(base)
        leaf = d
        for name in path[:-1]:
            leaf = leaf[name]
        leaf[path[-1]] = _non_default(leaf[path[-1]])
        cfg = tr.config_from_dict(d)
        assert cfg != base, path
        assert dataclasses.asdict(cfg) == d
        assert tr.config_from_dict(json.loads(json.dumps(d))) == cfg


def test_readme_config_block_is_the_default_config():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("### Config file"):]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    parsed = json.loads(block)
    assert tr.config_from_dict(parsed) == tr.PretrainConfig()
    assert parsed == dataclasses.asdict(tr.PretrainConfig())
    # the list of kinds names each leaf field by its path, in exactly one bullet
    kinds = section[section.index("\n- "):]
    kinds = kinds[:kinds.index("\n\n")]
    bullets = [set(re.findall(r"`([^`]+)`", bullet)) for bullet in kinds.split("\n- ")[1:]]
    for path in _leaf_paths(tr.PretrainConfig()):
        assert sum(".".join(path) in names for names in bullets) == 1, path


# --- target precomputation ---

def test_precompute_attaches_p3_spectrum():
    cfg = small_cfg()
    g = generate_graph("path", {"n": 3})
    ex = tr.precompute_targets([g], cfg)[0]
    assert np.allclose(ex.lambda_k, [0.0, 1.0], atol=1e-10)
    assert ex.psi_k.shape == (3, 2)
    assert ex.laplacian.tolist() == [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert ex.features.shape == (3, 2 * 3 + 3)


def test_precompute_drops_undersized_graphs(caplog):
    cfg = small_cfg(k=4)
    graphs = graph_soup(9, seed=1, n_low=5, n_high=10) + [generate_graph("path", {"n": 3})]
    with caplog.at_level("INFO", logger="eigenlearn.train"):
        examples = tr.precompute_targets(graphs, cfg)
    assert len(examples) == 9
    assert any("dropped 1 of 10" in r.message for r in caplog.records)


def test_precompute_drops_oversized_and_isolated(caplog):
    cfg = small_cfg(max_nodes=8)
    graphs = [generate_graph("path", {"n": 12}),   # too big
              Graph(5, ((0, 1), (1, 2))),          # isolated nodes
              generate_graph("cycle", {"n": 6})]
    with caplog.at_level("INFO", logger="eigenlearn.train"):
        examples = tr.precompute_targets(graphs, cfg)
    assert len(examples) == 1
    assert examples[0].graph.num_nodes == 6
    assert [r.message for r in caplog.records] == [
        "dropped 2 of 3 graphs during target precomputation: 0 with fewer than k=2 nodes, "
        "1 with more than max_nodes=8, 1 with an isolated node"]


def test_precompute_drops_a_one_node_graph(caplog):
    # with k = 1 no size filter stops it, and its one node is isolated
    cfg = small_cfg(k=1)
    with caplog.at_level("INFO", logger="eigenlearn.train"):
        examples = tr.precompute_targets([Graph(1, ()), generate_graph("path", {"n": 5})], cfg)
    assert [ex.graph.num_nodes for ex in examples] == [5]
    assert any("dropped 1 of 2" in r.message for r in caplog.records)


def test_precompute_builds_each_adjacency_once_and_shares_it(monkeypatch):
    # One build per kept graph: the example's adjacency is the Laplacian's
    # input and augment_features' too.
    calls = []

    def counted(g):
        calls.append(g)
        return build_adjacency(g)

    monkeypatch.setattr(tr, "build_adjacency", counted)
    monkeypatch.setattr(wavelets, "build_adjacency", counted)
    for norm in LAPLACIAN_NORMS:
        calls.clear()
        graphs = graph_soup(5, seed=2) + [generate_graph("path", {"n": 13})]  # too big
        cfg = small_cfg(laplacian_norm=norm)
        examples = tr.precompute_targets(graphs, cfg)
        assert len(examples) == 5
        assert len(calls) == len(examples)
        for ex in examples:
            assert np.array_equal(ex.adjacency, build_adjacency(ex.graph))
            laplacian = build_laplacian(ex.adjacency, norm)
            assert ex.laplacian.tobytes() == laplacian.tobytes()
            features = wavelets.augment_features(ex.graph, cfg.feature_config)
            assert ex.features.tobytes() == features.tobytes()


def precompute_one_by_one(graphs, cfg):
    """The per-graph composition precompute_targets stacks: build_adjacency,
    augment_features, build_laplacian, eigendecompose, lowest_k, graph by
    graph, dropping what fails the size filter or has an isolated node (a
    one-node graph's node is isolated); returns the examples and the count
    dropped."""
    examples, dropped = [], 0
    for g in graphs:
        if not cfg.k <= g.num_nodes <= cfg.max_nodes:
            dropped += 1
            continue
        adjacency = build_adjacency(g)
        try:
            features = wavelets.augment_features(g, cfg.feature_config)
        except (IsolatedNode, NodeCountTooSmall):
            dropped += 1
            continue
        laplacian = build_laplacian(adjacency, cfg.laplacian_norm)
        lambda_k, psi_k = lowest_k(eigendecompose(laplacian), cfg.k)
        examples.append(tr.TrainingExample(g, features, adjacency, laplacian, lambda_k, psi_k))
    return examples, dropped


def mixed_dataset():
    """Repeated node counts (seven graphs of 6 nodes, one with an isolated
    node among them), one-node and two-node graphs, graphs over max_nodes=10,
    and node features on every other graph."""
    rng = np.random.default_rng(9)
    graphs = []
    for i, n in enumerate([6, 9, 6, 1, 6, 12, 9, 6, 2, 6, 8, 6, 11, 6, 3, 9]):
        if n == 1:
            g = Graph(1, ())
        elif n == 2:
            g = generate_graph("path", {"n": 2})
        else:
            g = generate_graph("erdos_renyi", {"n": n, "p": 0.6}, seed=40 + i)
        if i == 9:  # a 6-node graph whose node 5 is isolated, inside a chunk
            g = Graph(6, tuple(e for e in g.edges if 5 not in e))
        if i % 2:
            g = g.with_features(rng.standard_normal((n, 2)))
        graphs.append(g)
    return graphs


@pytest.mark.parametrize("keep", [False, True], ids=["structural", "kept-features"])
@pytest.mark.parametrize("norm", LAPLACIAN_NORMS)
@pytest.mark.parametrize("k", [1, 3])
def test_precompute_gives_the_per_graph_composition_bit_for_bit(monkeypatch, caplog, k,
                                                                norm, keep):
    # chunks of at most three 6-node graphs, so the seven of them span three
    monkeypatch.setattr(tr, "STACK_VALUES", 3 * 6 * 6 + 5)
    cfg = small_cfg(k=k, max_nodes=10, laplacian_norm=norm,
                    feature_config={"scales_J": 2, "keep_original_features": keep})
    graphs = mixed_dataset()
    want, dropped = precompute_one_by_one(graphs, cfg)
    with caplog.at_level("INFO", logger="eigenlearn.train"):
        got = tr.precompute_targets(graphs, cfg)
    assert [ex.graph for ex in got] == [ex.graph for ex in want]  # the input order
    assert all(a.graph is b.graph for a, b in zip(got, want))
    for a, b in zip(got, want):
        for name in ("features", "adjacency", "laplacian", "lambda_k", "psi_k"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
    # two over max_nodes, the isolated node and the one-node graph, and at k=3
    # the one-node graph (then too small) and the two-node graph
    assert dropped == (4 if k == 1 else 5)
    assert [r.message.split(":")[0] for r in caplog.records] == [
        f"dropped {dropped} of {len(graphs)} graphs during target precomputation"]


# --- precompute on worker threads ---

THREADS_CFG = {"max_nodes": 100}  # keeps the 100-node graphs of threads_mix
EXAMPLE_ARRAYS = ("features", "adjacency", "laplacian", "lambda_k", "psi_k")


def example_bytes(examples) -> list[bytes]:
    return [getattr(ex, name).tobytes() for ex in examples for name in EXAMPLE_ARRAYS]


def recording_pool(monkeypatch, events: list):
    """Make every thread pool built from now on record, into events, its
    building ("pool", workers), each submitted call's future ("submit",
    future) and its shutdown ("shutdown", the number of workers it started)."""

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            events.append(("pool", workers))
            super().__init__(workers)

        def submit(self, *args, **kwargs):
            future = super().submit(*args, **kwargs)
            events.append(("submit", future))
            return future

        def shutdown(self, *args, **kwargs):
            started = len(self._threads)
            super().shutdown(*args, **kwargs)
            events.append(("shutdown", started))

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)


def test_precompute_gives_the_same_bytes_on_one_and_on_two_cpus(monkeypatch, caplog):
    # the 100-node chunks go to workers, one per usable CPU but the calling
    # thread's, only with two usable CPUs or more; either way the examples
    # are the per-graph composition's bytes, in input order, with the same
    # dropped counts and log line
    cfg = tr.config_from_dict(THREADS_CFG)
    graphs = threads_mix()
    with optim.worker_threads():
        want, dropped = precompute_one_by_one(graphs, cfg)
    assert dropped == 3
    for cpus, pools in [(1, []), (2, [("pool", 1)]), (3, [("pool", 2)])]:
        monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
        events = []
        recording_pool(monkeypatch, events)
        caplog.clear()
        with caplog.at_level("INFO", logger="eigenlearn.train"):
            got = tr.precompute_targets(graphs, cfg)
        assert [e for e in events if e[0] == "pool"] == pools
        assert [ex.graph for ex in got] == graphs[:16]
        assert example_bytes(got) == example_bytes(want)
        assert caplog.messages == [
            "dropped 3 of 19 graphs during target precomputation: 1 with fewer than k=6 "
            "nodes, 1 with more than max_nodes=100, 1 with an isolated node"]


def test_precompute_of_a_desk_mix_starts_no_thread(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
    before = threading.active_count()
    examples = tr.precompute_targets(random_graph_soup(50, seed=1, n_low=8, n_high=16),
                                     tr.config_from_dict({}))
    assert len(examples) == 50 and threading.active_count() == before


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
def test_the_pool_opens_at_the_first_submit_and_closes_before_precompute_ends(
        monkeypatch, fail):
    # chunk order: the 16-node chunk, the 40-node chunk, then four 100-node
    # chunks of one graph each; the last one's features fail with fail=True.
    # The four 100-node chunks are worth a thread, so the first of them
    # builds the pool, with one worker beside the caller on two CPUs (a desk
    # mix builds none: the test above)
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    events = []
    recording_pool(monkeypatch, events)
    features = tr.structural_embeddings

    def recorded(adjacency, cfg):
        events.append(("features", adjacency.shape))
        if fail and sum(e[0] == "features" for e in events) == 6:
            raise NotStochastic("the last chunk")
        return features(adjacency, cfg)

    monkeypatch.setattr(tr, "structural_embeddings", recorded)
    before = threading.active_count()
    if fail:
        with pytest.raises(NotStochastic, match="the last chunk"):
            tr.precompute_targets(threads_mix(), tr.config_from_dict(THREADS_CFG))
    else:
        tr.precompute_targets(threads_mix(), tr.config_from_dict(THREADS_CFG))
    assert threading.active_count() == before  # no thread outlives the call
    kinds = [e[0] if e[0] not in ("features", "pool") else e[1] for e in events]
    one = (1, 100, 100)
    assert kinds == [(8, 16, 16), (4, 40, 40), one, 1, "submit", one, "submit", one,
                     "submit", one] + ([] if fail else ["submit"]) + ["shutdown"]
    assert events[-1] == ("shutdown", 1)
    for future in [e[1] for e in events if e[0] == "submit"]:
        # a worker hands back the lowest k eigenpairs alone, no full spectrum
        lambda_k, psi_k = future.result()
        assert lambda_k.shape == (1, 6) and psi_k.shape == (1, 100, 6)
    # a chunk is worth a thread by its plan: 32 graphs of 16 nodes are half of
    # STACK_VALUES, and the one dropped for its isolated node leaves
    # 31 x 256 < 8192 values, solved on the worker started for the chunk still
    events.clear()
    graphs = [generate_graph("erdos_renyi", {"n": 16, "p": 0.5}, seed=i) for i in range(32)]
    graphs[5] = Graph(16, tuple(e for e in graphs[5].edges if 15 not in e))
    assert len(tr.precompute_targets(graphs, tr.config_from_dict({}))) == 31
    assert [e[1] if e[0] in ("features", "pool") else e[0] for e in events] == [
        (31, 16, 16), 1, "submit", "shutdown"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failure_raises_the_error_of_the_first_failing_chunk(monkeypatch, cpus):
    # the first 100-node chunk's solve fails, on a worker with two CPUs, only
    # after the next chunk's preparation has failed: the first chunk's error
    # is the one raised, as a chunk-by-chunk loop would raise it
    monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
    later_failed = threading.Event()
    solve, features = tr.eigendecompose, tr.structural_embeddings
    hundreds = []

    def failing_solve(laplacians):
        if laplacians.shape[-1] == 100:
            assert later_failed.wait(timeout=30)
            raise NoConvergence("the first 100-node chunk")
        return solve(laplacians)

    def failing_features(adjacency, cfg):
        if adjacency.shape[-1] == 100:
            hundreds.append(adjacency)
            if len(hundreds) == 2:
                later_failed.set()
                raise NotStochastic("the second 100-node chunk")
        return features(adjacency, cfg)

    monkeypatch.setattr(tr, "eigendecompose", failing_solve)
    monkeypatch.setattr(tr, "structural_embeddings", failing_features)
    with pytest.raises(NoConvergence, match="the first 100-node chunk"):
        tr.precompute_targets(threads_mix(), tr.config_from_dict(THREADS_CFG))
    assert later_failed.is_set()
    monkeypatch.setattr(tr, "eigendecompose", solve)  # no earlier failure: the later one
    hundreds.clear()
    with pytest.raises(NotStochastic, match="the second 100-node chunk"):
        tr.precompute_targets(threads_mix(), tr.config_from_dict(THREADS_CFG))


def test_a_chunk_solve_that_fails_in_a_callers_scope_raises_and_its_worker_ends_with_it(
        monkeypatch):
    # precompute inside a caller's open scope (as a CLI command runs it): the
    # failing solve's error is raised, and the scope's one worker lives on
    # until the scope closes, which joins it before restoring the count
    blas = optim._openblas()
    if blas is None:
        pytest.skip("the BLAS thread count of this numpy cannot be set")
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    solve = tr.eigendecompose

    def fail_on_a_worker(laplacians):
        if threading.current_thread() is not threading.main_thread():
            raise NoConvergence("a worker's chunk")
        return solve(laplacians)

    monkeypatch.setattr(tr, "eigendecompose", fail_on_a_worker)
    found, before = optim.blas_threads(), threading.active_count()
    blas[1](2)
    try:
        with optim.worker_threads():
            with pytest.raises(NoConvergence, match="a worker's chunk"):
                tr.precompute_targets(threads_mix(), tr.config_from_dict(THREADS_CFG))
            assert optim.blas_threads() == 1 and threading.active_count() == before + 1
        assert optim.blas_threads() == 2 and threading.active_count() == before
    finally:
        blas[1](found)


def test_a_non_finite_laplacian_is_refused_alike_inline_and_from_a_worker(monkeypatch):
    laplacian = tr.build_laplacian
    messages = []

    def poisoned(adjacency, norm):
        out = laplacian(adjacency, norm)
        if adjacency.shape[-1] == 100:
            out[0, 3, 7] = out[0, 7, 3] = np.nan
        return out

    monkeypatch.setattr(tr, "build_laplacian", poisoned)
    for cpus in (1, 2):
        monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
        with pytest.raises(NotSymmetric) as caught:
            tr.precompute_targets(threads_mix(), tr.config_from_dict(THREADS_CFG))
        messages.append((type(caught.value), str(caught.value)))
    assert messages == [(NotSymmetric, "matrix 0 in the stack holds a non-finite value")] * 2


# One interpreter's digests (SHA-256) of precompute_targets over threads_mix
# and of one Adam step on two threads, given the same factor terms, of a
# 2.7M-value model, and of a dense pass through a weight of
# autodiff.SPLIT_VALUES values; first the BLAS thread count it started with.
# It also asserts that the dense pass, inside one worker_threads scope as a
# training call runs it, forms both products with one pool at any BLAS
# thread count, with the same bytes on two usable CPUs as on one. Run as
# python -c CHILD <src dir> <tests dir>.
CHILD = """
import hashlib, sys, threading
sys.path[:0] = sys.argv[1:3]
import eigenlearn
assert "concurrent.futures" not in sys.modules, "import eigenlearn imported concurrent.futures"
assert threading.active_count() == 1, "import eigenlearn started a thread"
import numpy as np
from eigenlearn import optim, train as tr
from helpers import threads_mix
print(optim.blas_threads())
optim.usable_cpus = lambda: 2  # a threaded step and pool whatever the machine
digest = hashlib.sha256()
for ex in tr.precompute_targets(threads_mix(), tr.config_from_dict({"max_nodes": 100})):
    for name in ("features", "adjacency", "laplacian", "lambda_k", "psi_k"):
        digest.update(getattr(ex, name).tobytes())
print(digest.hexdigest())
params = tr.build_model(tr.config_from_dict({"head_hidden_dim": 600}), 12).parameters()
opt = optim.Adam(params)
assert opt._threads == 2
rng = np.random.default_rng(0)
for p in params.values():
    if p.values.ndim == 2:
        p.accumulate_product(rng.standard_normal((128, p.shape[0])).T,
                             rng.standard_normal((128, p.shape[1])))
    else:
        p.accumulate_grad(rng.standard_normal(p.shape))
opt.step(grad_scale=1 / 128)
digest = hashlib.sha256()
for p in params.values():
    digest.update(p.values.tobytes())
print(digest.hexdigest())
# a dense pass through a weight of autodiff.SPLIT_VALUES values: split over
# two threads, with the bits of the pass on one CPU
import concurrent.futures
from eigenlearn import autodiff as ad
rng = np.random.default_rng(1)
arrays = [rng.standard_normal((4, 2048)), rng.standard_normal((2048, 1024)),
          rng.standard_normal(1024)]
assert arrays[1].size == ad.SPLIT_VALUES
def dense_digest():
    x, w, b = (ad.parameter(a.copy()) for a in arrays)
    out = ad.dense(x, w, b, relu=True)
    out.backward(np.cos(np.arange(out.values.size)).reshape(out.shape))
    return hashlib.sha256(b"".join(a.tobytes() for a in (out.values, x.grad, w.grad, b.grad)))
built, Executor = [], concurrent.futures.ThreadPoolExecutor
class Pool(Executor):
    def __init__(self, workers):
        built.append(workers)
        super().__init__(workers)
concurrent.futures.ThreadPoolExecutor = Pool
with optim.worker_threads():
    split = dense_digest().digest()
optim.usable_cpus = lambda: 1
assert dense_digest().digest() == split
assert built == [1], built
print(split.hex())
"""


def test_precompute_and_a_threaded_step_give_the_same_bytes_at_one_and_two_blas_threads():
    if optim._openblas() is None:
        pytest.skip("the BLAS thread count of this numpy cannot be set")
    here = Path(__file__).parent
    outputs = []
    for threads in ("1", "2"):
        child = subprocess.run([sys.executable, "-c", CHILD, str(here.parent / "src"), str(here)],
                               env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
                               capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout.split())
    if (os.cpu_count() or 1) > 1:  # OpenBLAS starts no more threads than CPUs
        assert [out[0] for out in outputs] == ["1", "2"]
    assert len(outputs[0]) == 4 and outputs[0][1:] == outputs[1][1:]


def test_precompute_empty_after_filter():
    cfg = small_cfg(k=8)
    with pytest.raises(EmptyDatasetAfterFilter):
        tr.precompute_targets([generate_graph("path", {"n": 4})], cfg)


# Every training and evaluation entry point, called on an empty example list.
EMPTY_CALLS = {
    "pretrain": lambda model, head, cfg: tr.pretrain([], model, cfg),
    "finetune": lambda model, head, cfg: tr.finetune([], model, head, cfg, "lambda_2"),
    "evaluate_pretrain_loss": lambda model, head, cfg: tr.evaluate_pretrain_loss(model, [], cfg),
    "predict_targets": lambda model, head, cfg: tr.predict_targets(model, head, [], cfg),
    "evaluate_mae": lambda model, head, cfg: tr.evaluate_mae(model, head, [], cfg, "lambda_2"),
    "compare_losses": lambda model, head, cfg: tr.compare_losses([], cfg),
    "feature_dim": lambda model, head, cfg: tr.feature_dim([]),
    "predict_batch": lambda model, head, cfg: model.predict_batch([], []),
}


@pytest.mark.parametrize("name", sorted(EMPTY_CALLS))
def test_an_empty_example_list_is_refused_in_one_line(name):
    cfg = small_cfg()
    model = tr.build_model(cfg, 5)
    head = tr.build_downstream_head(cfg)
    error = ShapeMismatch if name == "predict_batch" else InvalidParams
    with pytest.raises(error) as caught:
        EMPTY_CALLS[name](model, head, cfg)
    message = str(caught.value)
    assert "\n" not in message
    if error is InvalidParams:
        assert message == f"{name} needs at least one example, got none"


# --- pretraining ---

def test_zero_epochs_is_a_no_op():
    cfg = small_cfg(epochs=0)
    examples = tr.precompute_targets(graph_soup(), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    before = {n: p.values.copy() for n, p in model.parameters().items()}
    record, _ = tr.pretrain(examples, model, cfg)
    assert record.rows == []
    for n, p in model.parameters().items():
        assert np.array_equal(p.values, before[n])


def test_pretrain_deterministic_per_seed():
    cfg = small_cfg(epochs=3)
    examples = tr.precompute_targets(graph_soup(), cfg)

    def run():
        model = tr.build_model(cfg, tr.feature_dim(examples))
        record, _ = tr.pretrain(examples, model, cfg)
        return record, model

    rec_a, model_a = run()
    rec_b, model_b = run()
    assert rec_a.deterministic_key() == rec_b.deterministic_key()
    for (na, pa), (nb, pb) in zip(model_a.parameters().items(),
                                  model_b.parameters().items()):
        assert na == nb
        assert np.array_equal(pa.values, pb.values)


def test_pretrain_seed_changes_trajectory():
    examples = tr.precompute_targets(graph_soup(), small_cfg())
    recs = []
    for seed in (0, 1):
        cfg = small_cfg(epochs=2, seed=seed)
        model = tr.build_model(cfg, tr.feature_dim(examples))
        record, _ = tr.pretrain(examples, model, cfg)
        recs.append(record.deterministic_key())
    assert recs[0] != recs[1]


def test_a_wide_pretrain_builds_one_pool_and_starts_one_worker(monkeypatch):
    # the head's first weight has autodiff.SPLIT_VALUES values (2048 x 1024),
    # so each of the two batches splits its forward and backward products,
    # and each step (2.2M values) deals its blocks to two threads: six
    # submitted calls, which all go to the run's one pool and its one worker,
    # with the bytes of the run on one CPU, which starts no thread
    cfg = small_cfg(epochs=1, batch_size=2, hidden_dim=128, max_nodes=16, head_hidden_dim=1024)
    examples = tr.precompute_targets(graph_soup(4, seed=5), cfg)
    runs = []
    for cpus in (2, 1):
        monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
        events = []
        recording_pool(monkeypatch, events)
        model = tr.build_model(cfg, tr.feature_dim(examples))
        assert model.head.mlp.weights[0].values.size == ad.SPLIT_VALUES
        record, state = tr.pretrain(examples, model, cfg)
        runs.append([record.deterministic_key(), model.parameters()["head.mlp.w0"].values.tobytes(),
                     state.optimizer.flat_m.tobytes(), state.optimizer.flat_v.tobytes()])
        assert [e[0] for e in events] == (["pool"] + ["submit"] * 6 + ["shutdown"]
                                          if cpus == 2 else [])
        assert events[:1] + events[-1:] == ([("pool", 1), ("shutdown", 1)] if cpus == 2 else [])
    assert state.optimizer._threads == 1 and runs[0] == runs[1]


def test_pretrain_loss_decreases_and_invariants_hold():
    cfg = small_cfg(epochs=25, dropout=0.0, lr=0.003)
    examples = tr.precompute_targets(graph_soup(4, seed=3), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    record, _ = tr.pretrain(examples, model, cfg)
    assert record.rows[-1].loss_total < record.rows[0].loss_total
    floor = min(float(np.sum(ex.lambda_k)) / cfg.k for ex in examples)
    for row in record.rows:
        assert row.loss_energy >= floor - 1e-6
        assert row.ortho_residual <= 1e-6
        assert row.loss_total >= 0.0


def test_pretrain_wires_scheduler_to_train_loss():
    # replaying the recorded per-epoch losses through a standalone scheduler
    # must reproduce the recorded lr column exactly
    cfg = small_cfg(epochs=10, scheduler={"kind": "reduce_on_plateau",
                                          "patience": 2, "factor": 0.5},
                    lr=0.001)
    examples = tr.precompute_targets(graph_soup(2, seed=5), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    record, _ = tr.pretrain(examples, model, cfg)
    from eigenlearn import autodiff as ad
    from eigenlearn.optim import Adam, ReduceLROnPlateau
    shadow = ReduceLROnPlateau(Adam({"p": ad.parameter(np.zeros(1))}, lr=cfg.lr),
                               patience=2, factor=0.5)
    for row in record.rows:
        shadow.step(row.loss_total)
        assert row.lr == shadow.lr


def test_pretrain_val_loss_monitors_the_validation_examples(monkeypatch):
    cfg = small_cfg(epochs=3, scheduler={"kind": "reduce_on_plateau", "patience": 1,
                                         "monitored": "val_loss"})
    examples = tr.precompute_targets(graph_soup(6, seed=6), cfg)
    train, val = examples[:4], examples[4:]
    model = tr.build_model(cfg, tr.feature_dim(examples))
    evaluated = []
    original = tr._evaluate_spectral

    def spy(model_, batches, targets, weights):
        evaluated.append([ex for batch in batches for ex in batch])
        return original(model_, batches, targets, weights)

    monkeypatch.setattr(tr, "_evaluate_spectral", spy)
    record, _ = tr.pretrain(train, model, cfg, val_examples=val)
    assert len(record.rows) == 3
    assert evaluated == [val] * 3


def test_pretrain_val_loss_pads_the_validation_targets_once(monkeypatch):
    cfg = small_cfg(epochs=3, batch_size=2, scheduler={
        "kind": "reduce_on_plateau", "patience": 1, "monitored": "val_loss"})
    examples = tr.precompute_targets(graph_soup(9, seed=6), cfg)
    train, val = examples[:5], examples[5:]
    padded = []
    original = tr.padded_targets

    def counted(batch, max_nodes):
        padded.append("val" if any(ex is v for ex in batch for v in val) else "train")
        return original(batch, max_nodes)

    monkeypatch.setattr(tr, "padded_targets", counted)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    record, _ = tr.pretrain(train, model, cfg, val_examples=val)
    assert len(record.rows) == 3
    assert padded.count("train") == 3 * 3  # three batches of <= 2 each epoch
    assert padded.count("val") == 2  # two batches of two, once per call


def test_pretrain_val_loss_without_validation_examples_fails_at_the_start():
    cfg = small_cfg(scheduler={"kind": "reduce_on_plateau", "monitored": "val_loss"})
    examples = tr.precompute_targets(graph_soup(3, seed=6), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    before = {n: p.values.copy() for n, p in model.parameters().items()}
    with pytest.raises(InvalidParams, match="val_loss"):
        tr.pretrain(examples, model, cfg)
    for n, p in model.parameters().items():
        assert np.array_equal(p.values, before[n])


def fault_on_call(monkeypatch, name, *call_numbers):
    """Wrap the loss op train.<name>, called once per mini-batch, so that its
    calls numbered in call_numbers raise NumericalFault; returns each call's
    per-graph loss values in call order, None for a faulted call."""
    original = getattr(tr, name)
    values = []
    calls = [0]

    def wrapped(*args, **kwargs):
        calls[0] += 1
        if calls[0] in call_numbers:
            values.append(None)
            raise NumericalFault("injected")
        out = original(*args, **kwargs)
        loss = out[0] if isinstance(out, tuple) else out  # (op, terms) with terms=True
        values.append(list(loss.values))
        return out

    monkeypatch.setattr(tr, name, wrapped)
    return values


def test_epoch_means_count_only_graphs_of_committed_batches(monkeypatch, caplog):
    # batches of 2 over 6 graphs, one loss call per batch, each call's values
    # recorded as the op returned them, and the second call (the second
    # batch) fails
    cfg = small_cfg(epochs=1, batch_size=2, dropout=0.0)
    examples = tr.precompute_targets(graph_soup(6, seed=4), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    values = fault_on_call(monkeypatch, "combined_loss_t", 2)
    with caplog.at_level("WARNING", logger="eigenlearn.train"):
        record, state = tr.pretrain(examples, model, cfg)
    assert values[1] is None and len(values) == 3  # the second batch stopped at its fault
    committed = values[0] + values[2]
    assert len(committed) == 4
    assert record.skipped_batches == state.skipped_batches == 1
    assert record.rows[0].loss_total == pytest.approx(np.mean(committed), rel=1e-12)
    assert any("skipped batch at epoch 0: injected" in r.message for r in caplog.records)


def test_an_epoch_whose_every_batch_is_skipped_leaves_the_schedule_alone(monkeypatch):
    # one batch an epoch, and the batches of epochs 1 and 2 fail: those epochs
    # change no parameter and have no training loss, so the schedule must not
    # step on them (a made-up 0.0 would become its best and cut the lr for good)
    cfg = small_cfg(epochs=5, batch_size=8, dropout=0.0,
                    scheduler={"kind": "reduce_on_plateau", "patience": 1, "factor": 0.5})
    examples = tr.precompute_targets(graph_soup(4, seed=5), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    fault_on_call(monkeypatch, "combined_loss_t", 2, 3)
    record, state = tr.pretrain(examples, model, cfg)
    assert state.skipped_batches == 2
    shadow = optim.ReduceLROnPlateau(optim.Adam({"p": ad.parameter(np.zeros(1))}, lr=cfg.lr),
                                     patience=1, factor=0.5)
    expected = []
    for row in record.rows:
        if row.epoch not in (1, 2):
            shadow.step(row.loss_total)
        expected.append(shadow.lr)
    assert [row.lr for row in record.rows] == expected
    assert state.scheduler.best > 0.0


def test_an_epoch_that_commits_no_batch_records_nan_not_a_perfect_fit(monkeypatch):
    # one batch an epoch, and epoch 1's fails: pretraining fills four loss
    # columns, fine-tuning one (the other three stay 0.0)
    cfg = small_cfg(epochs=3, finetune_epochs=3, batch_size=8, dropout=0.0)
    examples = tr.precompute_targets(graph_soup(4, seed=5, target=True), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    fault_on_call(monkeypatch, "combined_loss_t", 2)
    record, _ = tr.pretrain(examples, model, cfg)
    losses = [(r.loss_total, r.loss_energy, r.loss_eigvec, r.ortho_residual)
              for r in record.rows]
    assert all(math.isfinite(v) for v in losses[0] + losses[2])
    assert all(math.isnan(v) for v in losses[1])
    assert "\n1,nan,nan,nan,nan," in record.to_csv()
    fault_on_call(monkeypatch, "mae_loss_t", 1)
    record, _ = tr.finetune(examples, model, tr.build_downstream_head(cfg), cfg, "lambda_2")
    first, *rest = [(r.loss_total, r.loss_energy, r.loss_eigvec, r.ortho_residual)
                    for r in record.rows]
    assert math.isnan(first[0]) and first[1:] == (0.0, 0.0, 0.0)
    assert all(math.isfinite(r[0]) and r[1:] == (0.0, 0.0, 0.0) for r in rest)


def test_runrecord_csv_roundtrip_format():
    record = tr.RunRecord(rows=[tr.EpochRow(0, 1.5, 0.5, 0.25, 1e-8, 0.001, 0.1)])
    text = record.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,loss_total,loss_energy,loss_eigvec,ortho_residual,lr,seconds"
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert float(fields[1]) == 1.5
    untimed = record.to_csv(include_timing=False)
    assert untimed.strip().split("\n")[1].endswith(",0.0")


# --- fine-tuning ---

def test_finetune_requires_target():
    cfg = small_cfg()
    examples = tr.precompute_targets(graph_soup(3, seed=7), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    head = tr.build_downstream_head(cfg)
    with pytest.raises(MissingTarget):
        tr.finetune(examples, model, head, dataclasses.replace(cfg, finetune_epochs=1),
                    "lambda_2")


def test_finetune_zero_head_on_zero_target_has_zero_error():
    cfg = small_cfg(dropout=0.0)
    graphs = [Graph(g.num_nodes, g.edges, None, {"y": 0.0})
              for g in graph_soup(3, seed=8)]
    examples = tr.precompute_targets(graphs, cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    head = tr.build_downstream_head(cfg)
    for w in head.weights:
        w.values[:] = 0.0
    record, _ = tr.finetune(examples, model, head, dataclasses.replace(cfg, finetune_epochs=1),
                            "y")
    assert record.rows[0].loss_total <= 1e-15


def test_finetune_learns_lambda2_better_than_mean_baseline():
    cfg = small_cfg(epochs=20, dropout=0.0, lr=0.005, batch_size=8)
    graphs = graph_soup(24, seed=9, n_low=4, n_high=10, target=True)
    examples = tr.precompute_targets(graphs, cfg)
    val, train = examples[:6], examples[6:]
    model = tr.build_model(cfg, tr.feature_dim(examples))
    pre_rec, _ = tr.pretrain(train, model, small_cfg(epochs=5, dropout=0.0))
    head = tr.build_downstream_head(cfg)
    record, _ = tr.finetune(train, model, head, dataclasses.replace(cfg, finetune_epochs=40),
                            "lambda_2")
    mae = tr.evaluate_mae(model, head, val, cfg, "lambda_2")
    train_mean = float(np.mean([ex.graph.graph_targets["lambda_2"] for ex in train]))
    baseline = float(np.mean([abs(ex.graph.graph_targets["lambda_2"] - train_mean)
                              for ex in val]))
    assert mae < baseline


def test_finetune_deterministic():
    cfg = small_cfg(epochs=2)
    graphs = graph_soup(4, seed=10, target=True)

    def run():
        examples = tr.precompute_targets(graphs, cfg)
        model = tr.build_model(cfg, tr.feature_dim(examples))
        head = tr.build_downstream_head(cfg)
        record, _ = tr.finetune(examples, model, head,
                                dataclasses.replace(cfg, finetune_epochs=2), "lambda_2")
        return record.deterministic_key()

    assert run() == run()


# --- comparison harness ---

def test_compare_losses_random_arm_is_flat_and_ordering_sane():
    cfg = small_cfg(epochs=4, dropout=0.0)
    examples = tr.precompute_targets(graph_soup(4, seed=11), cfg)
    results = tr.compare_losses(examples, cfg)
    assert set(results) == set(tr.COMPARISON_ARMS)
    random_rows = results[tr.ARM_RANDOM]
    assert len(random_rows) == cfg.epochs
    assert len({(r.loss_eigvec, r.loss_energy) for r in random_rows}) == 1
    ours = results[tr.ARM_OURS]
    assert ours[-1].loss_eigvec < random_rows[-1].loss_eigvec


def test_compare_losses_logs_skipped_batches(monkeypatch, caplog):
    cfg = small_cfg(epochs=2, dropout=0.0)
    examples = tr.precompute_targets(graph_soup(4, seed=11), cfg)
    fault_on_call(monkeypatch, "abs_cos_mae_loss_t", 1)  # epoch 0's only batch
    with caplog.at_level("WARNING", logger="eigenlearn.train"):
        tr.compare_losses(examples, cfg, arms=(tr.ARM_BASELINE,))
    skipped = [r.message for r in caplog.records if "skipped batch" in r.message]
    assert skipped == ["skipped batch at epoch 0: injected"]


def test_compare_losses_steps_its_scheduler(monkeypatch):
    # a flat objective (the optimizer never moves the model) with patience 1
    # cuts the lr once per epoch in each trained arm
    cfg = small_cfg(epochs=3, dropout=0.0,
                    scheduler={"kind": "reduce_on_plateau", "patience": 1, "factor": 0.5})
    examples = tr.precompute_targets(graph_soup(4, seed=11), cfg)
    states = []
    fresh_state = tr._fresh_state

    def spy(*args, **kwargs):
        states.append(fresh_state(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(tr, "_fresh_state", spy)
    monkeypatch.setattr(tr.Adam, "step", lambda self, grad_scale=1.0: None)
    tr.compare_losses(examples, cfg)
    assert len(states) == 2
    for state in states:
        assert state.optimizer.lr == cfg.lr * 0.5 ** 3


def test_the_ours_arm_trains_and_evaluates_as_pretrain_does():
    # one loop and one pass: after E epochs the ours arm's model is the model
    # pretrain trains on the same config, evaluated on the same fixed batches
    cfg = small_cfg(epochs=3, batch_size=3, dropout=0.2,
                    scheduler={"kind": "reduce_on_plateau", "patience": 1, "factor": 0.5})
    examples = tr.precompute_targets(graph_soup(7, seed=21), cfg)
    last = tr.compare_losses(examples, cfg, arms=(tr.ARM_OURS,))[tr.ARM_OURS][-1]
    model = tr.build_model(cfg, tr.feature_dim(examples))
    tr.pretrain(examples, model, cfg)
    eigvec, energy = [], []
    for lo in range(0, len(examples), cfg.batch_size):
        batch = examples[lo:lo + cfg.batch_size]
        u = model.predict_batch([ex.adjacency for ex in batch], [ex.features for ex in batch])
        t = tr.padded_targets(batch, cfg.max_nodes)
        eigvec.append(eigvec_loss(u, t.laplacian, t.lambda_k))
        energy.append(energy_loss(u, t.laplacian))
    assert last.epoch == cfg.epochs - 1
    assert last.loss_eigvec == np.mean(np.concatenate(eigvec))
    assert last.loss_energy == np.mean(np.concatenate(energy))


def test_an_overflowing_evaluation_of_a_library_comparison_raises_one_numerical_fault():
    # pytest turns every warning into an error (pyproject's filterwarnings):
    # an lr of 1e308 overflows the first step, and the per-epoch evaluation,
    # which runs outside the epoch loop, must then raise the arm's one-line
    # NumericalFault, not numpy's RuntimeWarning from its matmul
    cfg = small_cfg(lr=1e308, head_hidden_dim=32, max_nodes=16, epochs=2, dropout=0.0)
    examples = tr.precompute_targets(graph_soup(16, seed=3, n_low=8, n_high=16), cfg)
    caller = np.geterr()
    with pytest.raises(NumericalFault) as caught:
        tr.compare_losses(examples, cfg, arms=(tr.ARM_OURS,))
    assert str(caught.value) == "eigvec_ours arm, epoch 0: dense produced non-finite values"
    assert np.geterr() == caller  # the policy ends with the call


@pytest.mark.parametrize("evaluate", [
    lambda model, head, examples, cfg: tr.evaluate_pretrain_loss(model, examples, cfg),
    lambda model, head, examples, cfg: tr.evaluate_mae(model, head, examples, cfg, "lambda_2"),
], ids=["evaluate_pretrain_loss", "evaluate_mae"])
def test_a_standalone_evaluation_that_overflows_raises_one_numerical_fault(evaluate):
    # under pyproject's error filter, a library evaluation outside any run
    # opens the compute scope itself: its overflow reaches the finite checks
    # as NumericalFault, not as numpy's RuntimeWarning from a matmul
    cfg = small_cfg(dropout=0.0)
    examples = tr.precompute_targets(graph_soup(4, seed=5, target=True), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    head = tr.build_downstream_head(cfg)
    for p in [*model.parameters().values(), *head.parameters().values()]:
        p.values[...] = 1e200
    caller = np.geterr()
    with pytest.raises(NumericalFault) as caught:
        evaluate(model, head, examples, cfg)
    assert str(caught.value) == "dense produced non-finite values"
    assert np.geterr() == caller


def test_compare_losses_rejects_val_loss_schedule():
    cfg = small_cfg(epochs=1, scheduler={"kind": "reduce_on_plateau", "monitored": "val_loss"})
    examples = tr.precompute_targets(graph_soup(2, seed=12), cfg)
    with pytest.raises(InvalidParams, match="val_loss"):
        tr.compare_losses(examples, cfg)


@pytest.mark.parametrize("arms, message", [
    (("nonsense",), "unknown arms: ['nonsense']"),
    ((tr.ARM_OURS, tr.ARM_OURS), "each arm may be named once, got ['eigvec_ours', 'eigvec_ours']"),
    (tr.ARM_OURS, "arms must be a tuple of arm names, got the string 'eigvec_ours'"),
], ids=["unknown", "repeated", "string"])
def test_compare_losses_rejects_unknown_arm(arms, message):
    # a repeated arm trained twice into one entry, and a string was taken
    # as its letters ("unknown arms: ['_', 'c', 'e', ...]")
    cfg = small_cfg(epochs=1)
    examples = tr.precompute_targets(graph_soup(2, seed=12), cfg)
    with pytest.raises(InvalidParams) as caught:
        tr.compare_losses(examples, cfg, arms=arms)
    assert str(caught.value) == message


def test_comparison_csv_format():
    rows = [tr.ComparisonRow("eigvec_ours", 0, 0.5, 1.0)]
    text = tr.comparison_to_csv(rows)
    assert text.splitlines()[0] == "arm,epoch,loss_eigvec,loss_energy"
    assert text.splitlines()[1].startswith("eigvec_ours,0,")


# --- checkpointing ---

def assert_resume_is_bit_for_bit(tmp_path, full_cfg):
    """A run interrupted halfway, checkpointed and resumed ends where the
    uninterrupted run does: the same records, the same values."""
    examples = tr.precompute_targets(graph_soup(5, seed=13), full_cfg)
    d_in = tr.feature_dim(examples)

    # uninterrupted run
    model_a = tr.build_model(full_cfg, d_in)
    rec_a, state_a = tr.pretrain(examples, model_a, full_cfg)

    # interrupted halfway, checkpointed, resumed
    half_cfg = tr.config_from_dict({**dataclasses.asdict(full_cfg), "epochs": full_cfg.epochs // 2})
    model_b = tr.build_model(half_cfg, d_in)
    rec_b1, state = tr.pretrain(examples, model_b, half_cfg)
    path = tmp_path / "ckpt.json"
    tr.save_checkpoint(str(path), model_b, full_cfg, state, d_in)
    model_c, cfg_c, state_c, d_in_c, _, _ = tr.load_checkpoint(str(path))
    assert d_in_c == d_in
    plateau = ("patience", "factor", "threshold", "best", "num_bad")
    assert state.scheduler.best is not None
    assert ([getattr(state_c.scheduler, name) for name in plateau]
            == [getattr(state.scheduler, name) for name in plateau])
    rec_b2, _ = tr.pretrain(examples, model_c, cfg_c, state_c)

    combined = rec_b1.deterministic_key() + rec_b2.deterministic_key()
    assert combined == rec_a.deterministic_key()
    for (na, pa), (nc, pc) in zip(model_a.parameters().items(),
                                  model_c.parameters().items()):
        assert na == nc
        assert np.array_equal(pa.values, pc.values)
    return state_a.optimizer


def test_checkpoint_roundtrip_resumes_bit_for_bit(tmp_path):
    assert_resume_is_bit_for_bit(tmp_path, small_cfg(
        epochs=6, scheduler={"kind": "reduce_on_plateau", "patience": 2, "factor": 0.9}))


def test_checkpoint_roundtrip_resumes_bit_for_bit_with_the_step_on_two_threads(
        tmp_path, monkeypatch):
    # 2.2M parameters, over twice MIN_PIECE, so with two usable CPUs each
    # step deals its blocks to two threads (most of the test's time goes to
    # writing and reading the checkpoint)
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    optimizer = assert_resume_is_bit_for_bit(tmp_path, small_cfg(
        epochs=2, batch_size=3, hidden_dim=60, max_nodes=40, head_layers=4, head_hidden_dim=600,
        scheduler={"kind": "reduce_on_plateau", "patience": 1, "factor": 0.9}))
    assert optimizer._threads == 2


def test_a_run_stopped_between_epochs_resumes_from_its_state_bit_for_bit(monkeypatch):
    # the caller of the epoch loop stops consuming it after epoch 1 and goes on
    # later from the state it left: the per-epoch boundary a hook works at
    cfg = small_cfg(epochs=4, dropout=0.2,
                    scheduler={"kind": "reduce_on_plateau", "patience": 1, "factor": 0.5})
    examples = tr.precompute_targets(graph_soup(6, seed=22), cfg)
    d_in = tr.feature_dim(examples)
    model_a = tr.build_model(cfg, d_in)
    rec_a, state_a = tr.pretrain(examples, model_a, cfg)
    epochs = tr._epochs

    def first_epoch_only(*args, **kwargs):
        loop = epochs(*args, **kwargs)
        yield next(loop)
        loop.close()

    monkeypatch.setattr(tr, "_epochs", first_epoch_only)
    model_b = tr.build_model(cfg, d_in)
    rec_b1, state_b = tr.pretrain(examples, model_b, cfg)
    monkeypatch.undo()
    assert state_b.epoch == len(rec_b1.rows) == 1
    rec_b2, state_b = tr.pretrain(examples, model_b, cfg, state_b)
    assert rec_b1.deterministic_key() + rec_b2.deterministic_key() == rec_a.deterministic_key()
    assert state_b.optimizer.lr == state_a.optimizer.lr < cfg.lr
    for (na, pa), (nb, pb) in zip(model_a.parameters().items(), model_b.parameters().items()):
        assert na == nb and pa.values.tobytes() == pb.values.tobytes()


def test_checkpoint_params_roundtrip_losslessly(tmp_path):
    cfg = small_cfg(epochs=1)
    examples = tr.precompute_targets(graph_soup(2, seed=14), cfg)
    d_in = tr.feature_dim(examples)
    model = tr.build_model(cfg, d_in)
    _, state = tr.pretrain(examples, model, cfg)
    # values a decimal round trip could lose: signed zero, subnormals, a NaN payload
    special = np.array([-0.0, 5e-324, -2.2250738585072e-308, np.nan, -np.inf])
    special[3] = np.frombuffer(np.uint64(0x7FF8_0000_0000_0123).tobytes(), np.float64)[0]
    model.parameters()[W0].values.ravel()[:special.size] = special
    state.optimizer.m[W0].ravel()[:special.size] = special
    path = tmp_path / "ckpt.json"
    tr.save_checkpoint(str(path), model, cfg, state, d_in)
    loaded, _, state2, _, _, _ = tr.load_checkpoint(str(path))
    for (na, pa), (nb, pb) in zip(model.parameters().items(),
                                  loaded.parameters().items()):
        assert na == nb
        assert pa.values.shape == pb.values.shape
        assert pa.values.tobytes() == pb.values.tobytes(), na
    for key in ("m", "v"):
        saved, restored = getattr(state.optimizer, key), getattr(state2.optimizer, key)
        assert list(saved) == list(restored)
        for name in saved:
            assert saved[name].shape == restored[name].shape
            assert saved[name].tobytes() == restored[name].tobytes(), (key, name)
    adam = ("lr", "beta1", "beta2", "eps", "t")
    assert [getattr(state2.optimizer, n) for n in adam] == [getattr(state.optimizer, n)
                                                            for n in adam]
    assert state2.epoch == state.epoch
    assert state2.rng.bit_generator.state == state.rng.bit_generator.state
    # loaded into place: the values are still one buffer, in dict order, the
    # moments its slots
    values = [p.values for p in state2.optimizer.params.values()]
    assert all(v.base is values[0].base for v in values)
    assert ([v.ctypes.data - values[0].base.ctypes.data for v in values]
            == [8 * n for n in np.cumsum([0] + [v.size for v in values[:-1]])])
    for name in saved:
        assert state2.optimizer.m[name].base is state2.optimizer.flat_m
        assert state2.optimizer.v[name].base is state2.optimizer.flat_v


def test_save_checkpoint_refuses_a_d_in_that_is_not_the_models(tmp_path):
    cfg = small_cfg(epochs=1)
    d_in = tr.feature_dim(tr.precompute_targets(graph_soup(2, seed=14), cfg))
    model = tr.build_model(cfg, d_in)
    path = tmp_path / "ckpt.json"
    with pytest.raises(InvalidParams, match=f"d_in 99 is not the model's input width {d_in}"):
        tr.save_checkpoint(str(path), model, cfg, tr._fresh_state(model, cfg), 99)
    assert not path.exists()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_ckpt.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(InvalidParams):
        tr.load_checkpoint(str(path))


def test_checkpoint_rejects_version_1(tmp_path):
    cfg = small_cfg(epochs=1)
    examples = tr.precompute_targets(graph_soup(2, seed=14), cfg)
    d_in = tr.feature_dim(examples)
    model = tr.build_model(cfg, d_in)
    _, state = tr.pretrain(examples, model, cfg)
    path = tmp_path / "ckpt.json"
    tr.save_checkpoint(str(path), model, cfg, state, d_in)
    path.write_text(as_old_version(path.read_bytes(), 1))
    with pytest.raises(InvalidParams, match="is a version 1 checkpoint") as exc:
        tr.load_checkpoint(str(path))
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("keep_pretrain_head", [False, True])
def test_finetune_checkpoint_resumes_bit_for_bit(tmp_path, keep_pretrain_head):
    cfg = small_cfg(keep_pretrain_head=keep_pretrain_head,
                    scheduler={"kind": "reduce_on_plateau", "patience": 1, "factor": 0.5})
    examples = tr.precompute_targets(graph_soup(5, seed=15, target=True), cfg)
    d_in = tr.feature_dim(examples)

    # uninterrupted: 4 fine-tuning epochs
    model_a, head_a = tr.build_model(cfg, d_in), tr.build_downstream_head(cfg)
    rec_a, _ = tr.finetune(examples, model_a, head_a,
                           dataclasses.replace(cfg, finetune_epochs=4), "lambda_2")

    # 2 epochs, checkpointed, loaded, 2 more
    cfg_b = dataclasses.replace(cfg, finetune_epochs=2)
    model_b, head_b = tr.build_model(cfg_b, d_in), tr.build_downstream_head(cfg_b)
    rec_b1, state = tr.finetune(examples, model_b, head_b, cfg_b, "lambda_2")
    path = tmp_path / "ft.json"
    tr.save_checkpoint(str(path), model_b, cfg_b, state, d_in, downstream_head=head_b)
    assert read_header(path)["kind"] == "finetune"
    model_c, cfg_c, state_c, _, head_c, _ = tr.load_checkpoint(str(path))
    assert cfg_c == cfg_b  # the checkpoint records the budget its run ran
    rec_b2, _ = tr.finetune(examples, model_c, head_c,
                            dataclasses.replace(cfg_c, finetune_epochs=4), "lambda_2",
                            state=state_c)

    assert rec_b1.deterministic_key() + rec_b2.deterministic_key() == rec_a.deterministic_key()
    for straight, resumed in ((model_a, model_c), (head_a, head_c)):
        pa, pc = straight.parameters(), resumed.parameters()
        assert list(pa) == list(pc)
        for name in pa:
            assert np.array_equal(pa[name].values, pc[name].values), name


W0 = "encoder.layer0.mlp.w0"
M0 = f"m.{W0}"  # the array of its first moment
# the `arrays` entries of W0 and M0 as their messages quote them
W0_ENTRY, M0_ENTRY = (rf'\["{re.escape(name)}", \[\d+, 6\]\]' for name in (W0, M0))


def _in_layout(name, change):
    """A header edit: the `arrays` entry of array `name` becomes change(entry),
    or goes when change is None."""
    def edit(header):
        i = next(i for i, entry in enumerate(header["arrays"]) if entry[0] == name)
        header["arrays"][i:i + 1] = [] if change is None else [change(header["arrays"][i])]
    return edit


def _of_bytes(edit):
    """Marks a table edit as an edit of the file's bytes, not of its header."""
    edit.of_bytes = True
    return edit


@pytest.mark.parametrize("edit, message", [
    (_in_layout(W0, lambda e: [e[0], [e[1][0] + 1, 6]]),
     rf"checkpoint\.arrays\[1\] is {W0_ENTRY} in the file, {W0_ENTRY} in the model built "
     "from its config$"),
    (_of_bytes(lambda blob: blob[:-1]),
     r"ckpt\.json: the body ends after \d+ of the \d+ bytes its header's arrays take$"),
    (_in_layout(W0, None),
     rf'checkpoint\.arrays\[1\] is \["encoder\.layer0\.mlp\.b0", \[6\]\] in the file, '
     rf"{W0_ENTRY} in the model"),
    (_in_layout(M0, None),
     rf'checkpoint\.arrays\[\d+\] is \["m\.encoder\.layer0\.mlp\.b0", \[6\]\] in the file, '
     rf"{M0_ENTRY} in the model"),
    (lambda b: b["arrays"].append(["v.downstream.w0", [1, 1]]),
     r'checkpoint\.arrays\[\d+\] is \["v\.downstream\.w0", \[1, 1\]\] in the file, absent in '
     "the model built from its config$"),
    (_in_layout(M0, lambda e: [e[0], [e[1][0] - 1, 6]]),
     rf"checkpoint\.arrays\[\d+\] is {M0_ENTRY} in the file, {M0_ENTRY} in the model"),
    (lambda b: b.update(scheduler=None), "scheduler.kind='reduce_on_plateau'"),
    (_of_bytes(lambda blob: blob + bytes(3)),
     r"ckpt\.json: the body goes on past the \d+ bytes its header's arrays take$"),
    (_of_bytes(lambda blob: b"{not JSON" + blob[blob.index(b"\n"):]),
     r"ckpt\.json: the header is not UTF-8 JSON \(Expecting property name"),
    (_of_bytes(lambda blob: blob.replace(b"-checkpoint", b"-\xffcheckpoint", 1)),
     r"ckpt\.json: the header is not UTF-8 JSON \('utf-8' codec can't decode byte 0xff in "
     r"position \d+: invalid start byte\)$"),
    (_in_layout(W0, lambda e: [e[0], [float(d) for d in e[1]]]),
     rf'checkpoint\.arrays\[1\] is \["{W0}", \[\d+\.0, 6\.0\]\] in the file, {W0_ENTRY} in '),
    (_in_layout(M0, lambda e: [e[0], [-d for d in e[1]]]),
     rf'checkpoint\.arrays\[\d+\] is \["{M0}", \[-\d+, -6\]\] in the file, {M0_ENTRY} in '),
    (_in_layout(M0, lambda e: [1.0, [2.0]]),
     rf"checkpoint\.arrays\[\d+\] is \[1\.0, \[2\.0\]\] in the file, {M0_ENTRY} in the model"),
    (lambda b: b.update(arrays=5),
     r"ckpt\.json: checkpoint\.arrays must be a list, got 5$"),
    (lambda b: b.update(kind="finetune"),
     r'checkpoint\.arrays\[\d+\] is \["m\.encoder\.layer0\.eps", \[\]\] in the file, '
     r'\["downstream\.w0", \[\d+, 12\]\] in the model'),
    (_of_bytes(lambda blob: as_old_version(blob, 2).encode()),
     r"ckpt\.json is a version 2 checkpoint; this eigenlearn reads only version 3$"),
    (lambda b: b.update(d_in="x"),
     r"ckpt\.json: checkpoint\.d_in must be an int, got 'x'$"),
    (lambda b: b.update(d_in=0),
     r"ckpt\.json: checkpoint\.d_in must be >= 1, got 0$"),
    (lambda b: b.update(epoch=-1),
     r"ckpt\.json: checkpoint\.epoch must be >= 0, got -1$"),
    (lambda b: b.update(epoch=1.0),
     r"ckpt\.json: checkpoint\.epoch must be an int, got 1\.0$"),
    (lambda b: b.update(skipped_batches=False),
     r"ckpt\.json: checkpoint\.skipped_batches must be an int, got False$"),
    (lambda b: b.update(skipped_batches=None),
     r"ckpt\.json: checkpoint\.skipped_batches must be an int, got None$"),
    (lambda b: b["optimizer"].update(lr="x"),
     r"ckpt\.json: checkpoint\.optimizer\.lr must be a number, got 'x'$"),
    (lambda b: b["optimizer"].update(beta1=True),
     r"ckpt\.json: checkpoint\.optimizer\.beta1 must be a number, got True$"),
    (lambda b: b["optimizer"].update(beta2=None),
     r"ckpt\.json: checkpoint\.optimizer\.beta2 must be a number, got None$"),
    (lambda b: b["optimizer"].update(eps=float("nan")),
     r"ckpt\.json: checkpoint\.optimizer\.eps must be finite, got nan$"),
    (lambda b: b["optimizer"].update(t="x"),
     r"ckpt\.json: checkpoint\.optimizer\.t must be an int, got 'x'$"),
    (lambda b: b["optimizer"].update(t=-1),
     r"ckpt\.json: checkpoint\.optimizer\.t must be >= 0 and within the floats, got -1$"),
    (lambda b: b["optimizer"].update(t=10 ** 400),  # once an OverflowError in the step
     r"ckpt\.json: checkpoint\.optimizer\.t must be >= 0 and within the floats, got 10{79}$"),
    (lambda b: b.update(scheduler=5),
     r"ckpt\.json: checkpoint\.scheduler must be null or an object, got 5$"),
    (lambda b: b["scheduler"].pop("num_bad"),
     r"ckpt\.json: checkpoint\.scheduler has no field 'num_bad'$"),
    (lambda b: b.update(rng_state=5),
     r"ckpt\.json: checkpoint\.rng_state must be an object, got 5$"),
    (lambda b: b.update(rng_state={}),
     r"ckpt\.json: the checkpoint's rng_state is not a PCG64 state"),
    (lambda b: b["rng_state"]["state"].update(inc=-1),  # once an OverflowError
     r"ckpt\.json: the checkpoint's rng_state is not a PCG64 state"),
    (lambda b: b["config"].update(k="x"),
     r"ckpt\.json: checkpoint\.config\.k must be an int, got 'x'$"),
], ids=["param-shape", "body-one-byte-short", "param-missing", "moment-missing", "moment-extra",
        "moment-shape", "scheduler-state-missing", "trailing-bytes", "header-not-json",
        "header-not-utf8", "param-shape-not-ints", "moment-shape-negative",
        "moment-ragged-list", "arrays-not-a-list", "kind-without-its-arrays", "version-2",
        "d_in-not-an-int", "d_in-zero", "epoch-negative", "epoch-float",
        "skipped-batches-bool", "skipped-batches-null", "lr-not-a-number", "beta1-bool",
        "beta2-null", "eps-nan", "t-not-an-int", "t-negative", "t-beyond-the-floats", "scheduler-not-an-object",
        "scheduler-field-missing", "rng-state-not-an-object", "rng-state-not-pcg64",
        "rng-state-out-of-range",
        "config-k-not-an-int"])
def test_checkpoint_rejects_entries_that_do_not_fit_its_config(tmp_path, edit, message):
    cfg = small_cfg(epochs=1, scheduler={"kind": "reduce_on_plateau", "patience": 2,
                                         "factor": 0.9})
    examples = tr.precompute_targets(graph_soup(2, seed=14), cfg)
    d_in = tr.feature_dim(examples)
    model = tr.build_model(cfg, d_in)
    _, state = tr.pretrain(examples, model, cfg)
    path = tmp_path / "ckpt.json"
    tr.save_checkpoint(str(path), model, cfg, state, d_in)
    blob = path.read_bytes()
    path.write_bytes(edit(blob) if getattr(edit, "of_bytes", False) else edit_header(blob, edit))
    with pytest.raises(InvalidParams, match=message) as exc:
        tr.load_checkpoint(str(path))
    assert "\n" not in str(exc.value)


# --- parameter layout -----------------------------------------------------------


@pytest.mark.parametrize("head_kind", tr.HEAD_KINDS)
def test_build_model_draws_what_per_array_glorot_draws_give(head_kind):
    # the reference: each weight matrix drawn with rng.uniform in parameter
    # order (biases and eps zero), the model from stream 0, the downstream head
    # from stream 3
    cfg = small_cfg(head_kind=head_kind, seed=5)
    for params, stream in ((tr.build_model(cfg, 7).parameters(), 0),
                           (tr.build_downstream_head(cfg).parameters(), 3)):
        rng = np.random.default_rng([cfg.seed, stream])
        for name, p in params.items():
            if p.values.ndim == 2:
                limit = np.sqrt(6.0 / sum(p.shape))
                expected = rng.uniform(-limit, limit, p.shape)
            else:
                expected = np.zeros(p.shape)
            assert np.array_equal(p.values, expected), name


def callers(package: Path, name: str) -> list[str]:
    """<file>:<top-level function or class> of every call of `name` (a bare
    name or an attribute) in the package's modules."""
    found = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None)):
                    found.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    return sorted(found)


def test_numpy_is_the_only_runtime_dependency():
    # every import in every module, at its top or inside a function (as
    # optim.worker_threads imports concurrent.futures), names the package itself, numpy
    # or a module of the standard library
    package = Path(__file__).parent.parent / "src" / "eigenlearn"
    imported: dict[str, set] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["eigenlearn" if node.level else node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], set()).add(path.name)
    allowed = {"eigenlearn", "numpy", *sys.stdlib_module_names}
    assert {top: files for top, files in imported.items() if top not in allowed} == {}
    assert imported["concurrent"] == {"optim.py"} and "numpy" in imported


def test_only_worker_threads_starts_threads():
    # one place builds a thread pool, starts a thread or copies a context for
    # one: every other piece of threaded work goes through its submit
    package = Path(__file__).parent.parent / "src" / "eigenlearn"
    starters = {"ThreadPoolExecutor", "threading.Thread", "copy_context"}
    found = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    names = {ast.unparse(node), getattr(node, "attr", None)}
                elif isinstance(node, ast.ImportFrom):
                    names = {f"{node.module}.{alias.name}" for alias in node.names} | {
                        alias.name for alias in node.names}
                else:
                    continue
                if names & starters:
                    found.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert found == {"optim.py:worker_threads"}


def test_the_float_policy_is_set_by_the_compute_scope_alone():
    # overflow reaches the ops' finite checks as NumericalFault under the one
    # compute scope's policy; the other errstate blocks ignore the invalid
    # operations by which the eigensolver and the wavelet bank detect NaN.
    # No second name for the policy is left to enter
    package = Path(__file__).parent.parent / "src" / "eigenlearn"
    assert callers(package, "errstate") == ["eigen.py:eigendecompose", "optim.py:worker_threads",
                                            "wavelets.py:build_wavelet_bank"]
    assert not [path.name for path in package.glob("*.py") if "quiet_floats" in path.read_text()]


def test_whether_an_op_records_is_decided_in_one_place():
    # autodiff._result alone tests for no_grad and wraps a bare-array parent
    # as a constant; each op hands it a backward closure that takes the
    # recorded parents as arguments, so no op keeps a wrapped copy of its own
    package = Path(__file__).parent.parent / "src" / "eigenlearn"

    def readers(name):
        found = set()
        for path in sorted(package.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if (getattr(node, "id", None) == name and isinstance(node.ctx, ast.Load)
                            or getattr(node, "attr", None) == name):
                        found.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
        return sorted(found)

    assert readers("_quiet_threads") == ["autodiff.py:_result", "autodiff.py:no_grad"]
    assert readers("_tensor") == ["autodiff.py:_result"]  # the one call, through map
    vjps = {top.name: [len(node.args.args) for node in ast.walk(top)
                       if isinstance(node, ast.FunctionDef) and node.name == "vjp"]
            for top in ast.parse((package / "autodiff.py").read_text()).body
            if isinstance(top, ast.FunctionDef)}
    assert {name: args for name, args in vjps.items() if args} == {
        "add": [3], "mul": [3], "dense": [4], "gin_aggregate": [3], "reshape": [2],
        "scalar_with_grad": [2], "thin_qr": [2]}


def test_the_thread_scope_is_entered_by_each_run_and_each_piece_of_threaded_work():
    # one scope holds the BLAS thread count and owns the pool: each command,
    # training call and library evaluation enters it, as does each piece of
    # work that submits, and .grad, which forms products; only it sets the
    # count, blas_threads taking the getter alone
    package = Path(__file__).parent.parent / "src" / "eigenlearn"
    assert callers(package, "worker_threads") == [
        "autodiff.py:Tensor", "autodiff.py:_product", "cli.py:main", "optim.py:Adam",
        "train.py:compare_losses", "train.py:evaluate_pretrain_loss", "train.py:finetune",
        "train.py:precompute_targets", "train.py:predict_targets", "train.py:pretrain"]
    assert callers(package, "_openblas") == ["optim.py:blas_threads", "optim.py:worker_threads"]
    taken = {}
    for top in ast.parse((package / "optim.py").read_text()).body:
        if getattr(top, "name", None) in ("blas_threads", "worker_threads"):
            taken[top.name] = {node.slice.value for node in ast.walk(top)
                               if isinstance(node, ast.Subscript)
                               and isinstance(node.slice, ast.Constant)
                               and type(node.slice.value) is int}
    assert taken == {"blas_threads": {0}, "worker_threads": {0, 1}}


def test_only_the_model_builders_lay_parameters_out():
    # one way in for parameters: no module lays out its own
    package = Path(__file__).parent.parent / "src" / "eigenlearn"
    assert callers(package, "allocate_parameters") == ["train.py:build_downstream_head",
                                                       "train.py:build_model"]


@pytest.mark.parametrize("run", ["pretrain", "finetune", "finetune-keep-head"])
def test_the_optimizer_holds_values_and_moments_in_flat_buffers_and_weights_as_factors(run):
    cfg = small_cfg(epochs=2, keep_pretrain_head=run == "finetune-keep-head")
    examples = tr.precompute_targets(graph_soup(5, seed=16, target=True), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    head = None if run == "pretrain" else tr.build_downstream_head(cfg)
    state = tr._fresh_state(model, cfg, head)
    opt = state.optimizer
    # the model buffers it owns, in order: the model; or the encoder, the
    # downstream head and, kept, the eigenvector head; each block lies in one
    parts = ([model.parameters()] if head is None else
             [model.encoder.parameters(), head.parameters()]
             + [model.head.parameters()] * cfg.keep_pretrain_head)
    assert list(opt.params.values()) == [p for part in parts for p in part.values()]
    assert all(len({id(p.values.base) for p in part.values()}) == 1 for part in parts)
    for values, _, _, fills in opt.blocks:
        assert all(opt.params[name].values.base is values.base for name, *_ in fills)
    for name in opt.params:
        assert opt.m[name].base is opt.flat_m and opt.v[name].base is opt.flat_v
    factored = []
    step = opt.step

    def each_weight_gives_its_factors(grad_scale):
        # a weight's gradient reaches the step as its one (x^T, g) pair from
        # backward, every other parameter's as one array
        factored.append(all(
            [type(term) for term in p.grad_terms()] == [tuple if p.values.ndim == 2 else np.ndarray]
            for p in opt.params.values()))
        step(grad_scale)

    opt.step = each_weight_gives_its_factors
    if head is None:
        tr.pretrain(examples, model, cfg, state)
    else:
        tr.finetune(examples, model, head, dataclasses.replace(cfg, finetune_epochs=2),
                    "lambda_2", state=state)
    assert factored == [True] * 4


def test_a_training_batch_allocates_two_model_sized_buffers_not_three():
    # numpy reports its buffers to tracemalloc: building the state allocates
    # Adam's m and v, and a batch's weight gradients reach the step as their
    # factors, so nothing else near the model's size is allocated
    cfg = small_cfg(epochs=1, batch_size=4, hidden_dim=60, max_nodes=40, head_layers=4,
                    head_hidden_dim=600)
    examples = tr.precompute_targets(graph_soup(4, seed=18), cfg)
    d_in = tr.feature_dim(examples)
    model = tr.build_model(cfg, d_in)
    model_bytes = next(iter(model.parameters().values())).values.base.nbytes
    assert model_bytes > 16_000_000  # far more than a batch of four graphs needs besides
    tracemalloc.start()
    try:
        state = tr._fresh_state(model, cfg)
        record, _ = tr.pretrain(examples, model, cfg, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.optimizer.t == 1 and record.skipped_batches == 0
    assert 2 * model_bytes <= peak < 2.5 * model_bytes, peak / model_bytes


@pytest.mark.parametrize("head_kind", tr.HEAD_KINDS)
@pytest.mark.parametrize("shape", [
    {}, {"mp_layers": 1, "update_layers": 1, "head_layers": 1},
    {"mp_layers": 3, "update_layers": 4, "head_layers": 3, "hidden_dim": 9, "k": 3},
], ids=["small", "one_layer_each", "deeper"])
def test_the_closed_form_parameter_counts_are_the_sizes_of_the_built_buffers(head_kind, shape):
    cfg = small_cfg(head_kind=head_kind, **shape)
    for d_in in (1, 7, 40):
        values = next(iter(tr.build_model(cfg, d_in).parameters().values())).values
        assert tr.model_size(cfg, d_in) == values.base.size
    values = next(iter(tr.build_downstream_head(cfg).parameters().values())).values
    assert tr.downstream_head_size(cfg) == values.base.size


def test_a_model_that_does_not_fit_in_memory_is_refused_before_it_is_built(monkeypatch):
    # the values, Adam's two moments and a batch's two padded stacks, one byte short
    cfg = small_cfg()
    need = 8 * (3 * tr.model_size(cfg, 7) + 2 * cfg.batch_size * cfg.max_nodes ** 2)
    monkeypatch.setattr(tr, "physical_memory", lambda: need - 1)
    monkeypatch.setattr(tr, "GinEncoder", None)  # building anything would fail otherwise
    with pytest.raises(InvalidParams, match=r"^the model of this config has [^\n]* more than the "
                                            r"[^\n]* bytes of this machine's memory; lower some "
                                            r"of hidden_dim=6, mp_layers=2, [^\n]*k=2, "
                                            r"batch_size=4$"):
        tr.build_model(cfg, 7)
    monkeypatch.setattr(tr, "physical_memory", lambda: need)
    with pytest.raises(TypeError):  # past the check: GinEncoder is None
        tr.build_model(cfg, 7)


def test_a_checkpoint_load_draws_no_initialisation(tmp_path, monkeypatch):
    cfg = small_cfg(epochs=1)
    examples = tr.precompute_targets(graph_soup(3, seed=19, target=True), cfg)
    d_in = tr.feature_dim(examples)
    model, head = tr.build_model(cfg, d_in), tr.build_downstream_head(cfg)
    _, state = tr.finetune(examples, model, head, dataclasses.replace(cfg, finetune_epochs=1),
                           "lambda_2")
    path = tmp_path / "ft.ckpt"
    tr.save_checkpoint(str(path), model, cfg, state, d_in, head)
    drawn = []
    monkeypatch.setattr("eigenlearn.nn.glorot_uniform", lambda *args, **kw: drawn.append(args))
    loaded, _, _, _, loaded_head, _ = tr.load_checkpoint(str(path))
    assert drawn == []
    for saved, restored in ((model, loaded), (head, loaded_head)):
        for (na, pa), (nb, pb) in zip(saved.parameters().items(), restored.parameters().items()):
            assert na == nb and pa.values.tobytes() == pb.values.tobytes()


def test_adjacencies_are_built_by_precompute_targets_and_predict_only(monkeypatch):
    built = []

    def counting(g):
        built.append(id(g))
        return build_adjacency(g)

    for module in ("train", "nn"):
        monkeypatch.setattr(f"eigenlearn.{module}.build_adjacency", counting)
    cfg = small_cfg(epochs=3, batch_size=2)
    examples = tr.precompute_targets(graph_soup(5, seed=17, target=True), cfg)
    assert sorted(built) == sorted(id(ex.graph) for ex in examples)
    for ex in examples:
        assert np.array_equal(ex.adjacency, build_adjacency(ex.graph))
    # training and its evaluation passes, over many epochs, build none: not
    # even the graphs module's operators run
    monkeypatch.setattr("eigenlearn.graphs.build_adjacency", counting)
    built.clear()
    monitored = small_cfg(epochs=3, batch_size=2, scheduler={
        "kind": "reduce_on_plateau", "monitored": "val_loss"})
    model = tr.build_model(cfg, tr.feature_dim(examples))
    tr.pretrain(examples, model, monitored, val_examples=examples[:2])
    tr.finetune(examples, model, tr.build_downstream_head(cfg),
                dataclasses.replace(monitored, finetune_epochs=3), "lambda_2",
                val_examples=examples[:2])
    tr.compare_losses(examples, cfg)
    assert built == []
    # predict takes a graph, and builds its adjacency on each call
    for ex in examples[:2] * 2:
        model.predict(ex.graph, ex.features)
    assert built == [id(ex.graph) for ex in examples[:2] * 2]


# --- one batch, a few ops -----------------------------------------------------

# the acceptance-7 config: per GIN layer one aggregation and two dense ops, the
# node mask, then a reshape, three dense ops, a reshape and the phantom-row
# mask in the head, one QR and one loss op; 19 parameters and constants
DESK_TAPE = ({
    "k": 3, "hidden_dim": 16, "mp_layers": 2, "update_layers": 2,
    "head_layers": 3, "head_hidden_dim": 128, "max_nodes": 16, "dropout": 0.0,
    "seed": 0, "epochs": 1, "lr": 0.002, "scheduler": {"kind": "none"},
    "feature_config": {"scales_J": 2},
}, dict(seed=14, n_low=8, n_high=16), (34, 15))


@pytest.mark.parametrize("run, desk", [
    pytest.param("pretrain", False, id="pretrain"),
    pytest.param(tr.ARM_OURS, False, id=tr.ARM_OURS),
    pytest.param(tr.ARM_BASELINE, False, id=tr.ARM_BASELINE),
    pytest.param(tr.ARM_OURS, True, id=tr.ARM_OURS + "-desk"),
    pytest.param(tr.ARM_BASELINE, True, id=tr.ARM_BASELINE + "-desk"),
])
def test_tape_size_of_a_batch_does_not_depend_on_its_size(monkeypatch, run, desk):
    sizes = []
    backward = ad.Tensor.backward

    def spy(self, seed=None):
        sizes.append((len(reachable_nodes(self)), recorded_ops(self)))
        return backward(self, seed)

    monkeypatch.setattr(ad.Tensor, "backward", spy)
    per_batch_size = {}
    for batch_size in (1, 2, 8):
        if desk:
            config, soup, expected = DESK_TAPE
            cfg = tr.config_from_dict({**config, "batch_size": batch_size})
        else:
            soup, expected = dict(seed=12), None
            cfg = small_cfg(epochs=1, batch_size=batch_size)
        examples = tr.precompute_targets(graph_soup(8, **soup), cfg)
        sizes.clear()
        if run == "pretrain":
            tr.pretrain(examples, tr.build_model(cfg, tr.feature_dim(examples)), cfg)
        else:
            tr.compare_losses(examples, cfg, arms=(run,))
        assert len(sizes) == 8 // batch_size  # one backward per batch
        per_batch_size[batch_size] = set(sizes)
    assert per_batch_size[1] == per_batch_size[2] == per_batch_size[8]
    assert len(per_batch_size[8]) == 1
    if expected is not None:  # (nodes, ops)
        assert per_batch_size[8] == {expected}


def test_a_rank_deficient_graph_drops_its_batch_and_is_named(caplog):
    # the graph-level head's output is its last bias alone; its first three
    # rows span one direction, so the 3-node graph's column 1 collapses and
    # every larger graph keeps full rank
    cfg = small_cfg(epochs=1, dropout=0.0)
    graphs = [generate_graph("cycle", {"n": n}) for n in (5, 6, 3, 7)]
    examples = tr.precompute_targets(graphs, cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    model.head.mlp.weights[-1].values[:] = 0.0
    bias = np.zeros((cfg.max_nodes, cfg.k))
    bias[:3, 0] = [1.0, 2.0, 3.0]
    bias[3:, 1] = 1.0
    bias[4:, 0] = np.arange(cfg.max_nodes - 4)
    model.head.mlp.biases[-1].values[:] = bias.ravel()
    state = tr._fresh_state(model, cfg)
    order = copy.deepcopy(state.rng).permutation(len(examples))
    examples = [examples[i] for i in np.argsort(order)]  # the epoch's batch: graphs (5, 6, 3, 7)
    with caplog.at_level("WARNING", logger="eigenlearn.train"):
        record, _ = tr.pretrain(examples, model, cfg, state)
    assert record.skipped_batches == 1
    warnings = [r.message for r in caplog.records if "skipped batch" in r.message]
    assert warnings == ["skipped batch at epoch 0: column 1 of graph 2 in the batch collapsed "
                        "below tolerance during orthonormalization"]


def test_a_non_finite_feature_drops_its_batch_and_the_warning_names_the_op(caplog):
    # the first op to compute from the poisoned feature is the encoder's
    # first aggregation
    cfg = small_cfg(epochs=1, dropout=0.0)
    examples = tr.precompute_targets(graph_soup(4, seed=3), cfg)
    examples[0].features[0, 0] = np.inf
    with caplog.at_level("WARNING", logger="eigenlearn.train"):
        record, _ = tr.pretrain(examples, tr.build_model(cfg, tr.feature_dim(examples)), cfg)
    assert record.skipped_batches == 1
    assert [r.message for r in caplog.records if "skipped batch" in r.message] == [
        "skipped batch at epoch 0: gin_aggregate produced non-finite values"]


EVALUATIONS = {
    "predict": lambda model, head, examples, cfg: np.concatenate(
        [model.predict(ex.graph, ex.features) for ex in examples]),
    "predict_batch": lambda model, head, examples, cfg: model.predict_batch(
        [ex.adjacency for ex in examples], [ex.features for ex in examples]),
    "predict_targets": lambda model, head, examples, cfg: tr.predict_targets(
        model, head, examples, cfg),
    "evaluate_pretrain_loss": lambda model, head, examples, cfg: tr.evaluate_pretrain_loss(
        model, examples, cfg),
    "evaluate_mae": lambda model, head, examples, cfg: tr.evaluate_mae(
        model, head, examples, cfg, "lambda_2"),
}


def _recorded_spectral(model, batches, cfg) -> list:
    """Each batch's orthonormal outputs from the recorded spectral training
    pass, given no generator."""
    return [tr._spectral_pass(model, batch, cfg, None)[0].values for batch in batches]


def _recorded_targets(model, head, examples, cfg) -> np.ndarray:
    """The downstream predictions from the recorded regression training pass,
    given no generator."""
    return np.concatenate([tr._regression_pass(model, head, batch)[0].values[:, 0]
                           for batch in tr._batches(examples, cfg.batch_size)])


# EVALUATIONS' values from the recorded passes training runs.
RECORDED = {
    "predict": lambda model, head, examples, cfg: np.concatenate(
        [_recorded_spectral(model, [[ex]], cfg)[0][0, :ex.graph.num_nodes] for ex in examples]),
    "predict_batch": lambda model, head, examples, cfg: _recorded_spectral(
        model, [examples], cfg)[0],
    "predict_targets": _recorded_targets,
    "evaluate_pretrain_loss": lambda model, head, examples, cfg: tr._spectral_means(
        _recorded_spectral(model, tr._batches(examples, cfg.batch_size), cfg),
        [tr.padded_targets(batch, cfg.max_nodes)
         for batch in tr._batches(examples, cfg.batch_size)], cfg.loss_weights)[0],
    "evaluate_mae": lambda model, head, examples, cfg: mae_loss(
        _recorded_targets(model, head, examples, cfg),
        [ex.graph.graph_targets["lambda_2"] for ex in examples]),
}


@pytest.mark.parametrize("name", sorted(EVALUATIONS))
def test_evaluation_records_no_tape_and_gives_the_recorded_values(monkeypatch, name):
    cfg = small_cfg(batch_size=3)
    examples = tr.precompute_targets(graph_soup(5, seed=13, target=True), cfg)
    model = tr.build_model(cfg, tr.feature_dim(examples))
    head = tr.build_downstream_head(cfg)
    results, tensors = spy_on_ops(monkeypatch)
    quiet = EVALUATIONS[name](model, head, examples, cfg)
    assert results and all(type(r) is np.ndarray for r in results)
    assert tensors == []  # no Tensor, so no parent tuple or closure, anywhere in the pass
    results.clear()
    recorded = RECORDED[name](model, head, examples, cfg)
    assert any(isinstance(r, ad.Tensor) and r._parents for r in results)
    assert np.array_equal(quiet, recorded)
