import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlearn.errors import (IndexOutOfRange, InvalidParams, IsolatedNode,
                               NodeCountTooSmall, NotStochastic, ShapeMismatch)
from eigenlearn.graphs import (Graph, build_adjacency, build_diffusion, generate_graph,
                               permute_graph)
from eigenlearn.wavelets import (FeatureConfig, augment_features,
                                 build_wavelet_bank, diffused_dirac_embeddings,
                                 pick_dirac_sources, structural_embeddings,
                                 wavelet_positional_embeddings, with_original_features)
from helpers import STACK_SIZES, adjacency_stack, assert_same_bits


def path3_diffusion():
    return build_diffusion(build_adjacency(generate_graph("path", {"n": 3})))


def test_bank_at_scale_zero_is_highpass_plus_lowpass():
    p = path3_diffusion()
    bank = build_wavelet_bank(p, 0)
    assert bank.size == 2
    assert np.allclose(bank.operators[0], np.eye(3) - p)
    assert np.allclose(bank.operators[1], p)


def test_bank_scale_one_hand_computed():
    p = path3_diffusion()
    bank = build_wavelet_bank(p, 1)
    p2 = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    assert np.allclose(p @ p, p2)
    assert np.allclose(bank.operators[1], p - p2)
    assert np.allclose(bank.operators[2], p2)


def test_bank_length_and_telescoping():
    g = generate_graph("erdos_renyi", {"n": 9, "p": 0.5}, seed=1)
    bank = build_wavelet_bank(build_diffusion(build_adjacency(g)), 2)
    assert bank.size == 4
    total = np.sum(bank.operators, axis=0)
    assert np.max(np.abs(total - np.eye(9))) <= 1e-10


def test_bank_rejects_non_stochastic():
    with pytest.raises(NotStochastic):
        build_wavelet_bank(np.array([[0.5, 0.4], [1.0, 0.0]]), 1)


def test_bank_rejects_negative_scales():
    with pytest.raises(InvalidParams):
        build_wavelet_bank(path3_diffusion(), -1)


def test_positional_embedding_hand_values():
    bank = build_wavelet_bank(path3_diffusion(), 0)
    w = wavelet_positional_embeddings(bank, 0, 2)
    assert w.shape == (3, 4)
    # operator 0 is I - P: node 0 row picks (1, 0), node 1 row (-0.5, -0.5)
    assert w[0, 0] == 1.0 and w[0, 1] == 0.0
    assert w[1, 0] == -0.5 and w[1, 1] == -0.5
    # trailing operator is P itself
    assert np.allclose(w[:, 2], path3_diffusion()[:, 0])


def test_positional_embedding_source_swap_swaps_paired_columns():
    g = generate_graph("cycle", {"n": 8})
    bank = build_wavelet_bank(build_diffusion(build_adjacency(g)), 1)
    w_ij = wavelet_positional_embeddings(bank, 1, 5)
    w_ji = wavelet_positional_embeddings(bank, 5, 1)
    for op in range(bank.size):
        assert np.array_equal(w_ij[:, 2 * op], w_ji[:, 2 * op + 1])
        assert np.array_equal(w_ij[:, 2 * op + 1], w_ji[:, 2 * op])


def test_positional_embedding_index_checks():
    bank = build_wavelet_bank(path3_diffusion(), 0)
    with pytest.raises(IndexOutOfRange):
        wavelet_positional_embeddings(bank, 0, 3)
    with pytest.raises(InvalidParams):
        wavelet_positional_embeddings(bank, 1, 1)


def test_dirac_embedding_path3_first_column():
    bank = build_wavelet_bank(path3_diffusion(), 0)
    d = diffused_dirac_embeddings(bank)
    assert np.allclose(d[:, 0], [-1.0, -0.5, -1.0])


def test_dirac_embedding_k2_hand_value():
    g = generate_graph("complete", {"n": 2})
    bank = build_wavelet_bank(build_diffusion(build_adjacency(g)), 0)
    d = diffused_dirac_embeddings(bank)
    assert d[0, 0] == -1.0


def test_dirac_embedding_rows_telescope_to_diagonal_of_p():
    g = generate_graph("erdos_renyi", {"n": 10, "p": 0.4}, seed=3)
    p = build_diffusion(build_adjacency(g))
    bank = build_wavelet_bank(p, 2)
    d = diffused_dirac_embeddings(bank)
    assert np.allclose(d.sum(axis=1), np.diag(p), atol=1e-12)


def test_dirac_embedding_permutation_equivariance():
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = generate_graph("erdos_renyi", {"n": 10, "p": 0.5},
                           seed=int(rng.integers(1000)))
        d = diffused_dirac_embeddings(build_wavelet_bank(build_diffusion(build_adjacency(g)), 2))
        perm = list(rng.permutation(g.num_nodes))
        gp = permute_graph(g, perm)
        dp = diffused_dirac_embeddings(build_wavelet_bank(build_diffusion(build_adjacency(gp)), 2))
        for old, new in enumerate(perm):
            assert np.allclose(dp[new], d[old], atol=1e-12)


def test_distinct_spectra_give_distinct_dirac_rows():
    # concrete instance: path vs star on 4 nodes (different Laplacian spectra)
    path = generate_graph("path", {"n": 4})
    star = generate_graph("star", {"n": 4})
    d1 = diffused_dirac_embeddings(build_wavelet_bank(build_diffusion(build_adjacency(path)), 2))
    d2 = diffused_dirac_embeddings(build_wavelet_bank(build_diffusion(build_adjacency(star)), 2))
    rows1 = np.array(sorted(map(tuple, d1.tolist())))
    rows2 = np.array(sorted(map(tuple, d2.tolist())))
    assert np.max(np.abs(rows1 - rows2)) > 1e-6


def test_pick_dirac_sources_deterministic_and_distinct():
    a = pick_dirac_sources(12, seed=5)
    b = pick_dirac_sources(12, seed=5)
    assert a == b
    assert a[0] != a[1]
    with pytest.raises(NodeCountTooSmall):
        pick_dirac_sources(1, seed=0)


def test_memoized_dirac_sources_equal_a_fresh_draw():
    def fresh(n, seed):
        return tuple(int(x) for x in np.random.default_rng(seed).choice(n, 2, replace=False))

    pick_dirac_sources.cache_clear()
    for cache in ("cold", "warm"):
        for n in range(2, 101):
            for seed in range(4):
                got = pick_dirac_sources(n, seed)
                assert got == fresh(n, seed), (cache, n, seed)
                assert all(type(x) is int for x in got)
        assert pick_dirac_sources.cache_info().hits == (0 if cache == "cold" else 99 * 4)


def test_dirac_sources_refuse_one_node_on_every_call():
    for _ in range(3):
        for n in (0, 1):
            with pytest.raises(NodeCountTooSmall):
                pick_dirac_sources(n, 0)


def test_augment_shapes_dirac_only():
    g = generate_graph("path", {"n": 3})
    cfg = FeatureConfig(use_wavelet_positional=False, use_diffused_dirac=True,
                        scales_J=0)
    assert augment_features(g, cfg).shape == (3, 2)


def test_augment_shapes_both_plus_original():
    g = Graph(3, ((0, 1), (1, 2)), node_features=np.ones((3, 5)))
    cfg = FeatureConfig(scales_J=1, keep_original_features=True)
    x = augment_features(g, cfg)
    assert x.shape == (3, 5 + 2 * 3 + 3)
    assert cfg.embedding_dim(5) == 14


def test_augment_deterministic():
    g = generate_graph("erdos_renyi", {"n": 10, "p": 0.5}, seed=2)
    cfg = FeatureConfig(scales_J=2, dirac_seed=9)
    assert np.array_equal(augment_features(g, cfg), augment_features(g, cfg))


def test_augment_on_a_given_adjacency_matches_its_own_build():
    g = generate_graph("erdos_renyi", {"n": 10, "p": 0.5}, seed=2)
    cfg = FeatureConfig(scales_J=2, dirac_seed=9)
    given = augment_features(g, cfg, adjacency=build_adjacency(g))
    assert given.tobytes() == augment_features(g, cfg).tobytes()


@pytest.mark.parametrize("shape", [(5, 5), (3, 3), (4, 5), (4,)])
def test_augment_refuses_an_adjacency_of_another_shape(shape):
    g = generate_graph("path", {"n": 4})
    with pytest.raises(ShapeMismatch, match=rf"^augment_features: a 4-node graph needs a "
                                            rf"\(4, 4\) adjacency, got shape "
                                            rf"{re.escape(str(shape))}$"):
        augment_features(g, FeatureConfig(), adjacency=np.ones(shape))


def test_augment_propagates_isolated_node():
    g = Graph(4, ((0, 1),))
    with pytest.raises(IsolatedNode):
        augment_features(g, FeatureConfig())


def test_augment_small_graph_needs_two_nodes():
    g = Graph(1, ())
    with pytest.raises(NodeCountTooSmall):
        augment_features(g, FeatureConfig(use_diffused_dirac=False))


def random_stochastic_stack(n: int, count: int = 5, seed: int = 0) -> np.ndarray:
    """count dense row-stochastic n x n matrices (a one-node one is [[1.0]])."""
    x = np.random.default_rng([seed, n]).random((count, n, n))
    return x / x.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("scales", [0, 2])
@pytest.mark.parametrize("n", STACK_SIZES)
def test_the_banks_and_embeddings_of_a_stack_are_each_matrix_own_bit_for_bit(n, scales):
    p = random_stochastic_stack(n)
    bank = build_wavelet_bank(p, scales)
    alone = [build_wavelet_bank(one, scales) for one in p]
    assert bank.n == n and bank.size == scales + 2
    assert_same_bits(bank.operators, [one.operators for one in alone])
    assert_same_bits(diffused_dirac_embeddings(bank),
                     [diffused_dirac_embeddings(one) for one in alone])
    if n > 1:  # two distinct dirac sources
        i, j = pick_dirac_sources(n, 3)
        assert_same_bits(wavelet_positional_embeddings(bank, i, j),
                         [wavelet_positional_embeddings(one, i, j) for one in alone])


CONFIGS = [FeatureConfig(), FeatureConfig(scales_J=0, dirac_seed=4),
           FeatureConfig(use_wavelet_positional=False, scales_J=3),
           FeatureConfig(use_diffused_dirac=False, keep_original_features=True)]


@pytest.mark.parametrize("cfg", CONFIGS, ids=range(len(CONFIGS)))
@pytest.mark.parametrize("n", STACK_SIZES[1:])  # a one-node graph's node is isolated
def test_the_embeddings_of_a_stack_are_each_graphs_augmented_features(n, cfg):
    stack = adjacency_stack(n)
    embeddings = structural_embeddings(stack, cfg)
    assert embeddings.shape == (len(stack), n, cfg.embedding_dim())
    assert_same_bits(embeddings, [structural_embeddings(a, cfg) for a in stack])
    assert_same_bits(embeddings, [augment_features(Graph(n, ()), cfg, adjacency=a)
                                  for a in stack])


def test_the_original_features_go_first_only_when_kept():
    g = generate_graph("cycle", {"n": 4}).with_features(np.arange(8.0).reshape(4, 2))
    embeddings = np.ones((4, 3))
    kept = with_original_features(g, FeatureConfig(keep_original_features=True), embeddings)
    assert np.array_equal(kept, np.hstack([g.node_features, embeddings]))
    assert with_original_features(g, FeatureConfig(), embeddings) is embeddings
    bare = generate_graph("cycle", {"n": 4})
    assert with_original_features(bare, FeatureConfig(keep_original_features=True),
                                  embeddings) is embeddings


def test_a_stack_with_a_matrix_that_is_not_stochastic_is_refused_naming_the_first():
    p = random_stochastic_stack(4)
    p[3, 0, 0] += 1e-3
    p[1, 2, 1] += 1e-2
    with pytest.raises(NotStochastic, match=r"^row sums of matrix 1 in the stack deviate "
                                            r"from 1 by 1\.000e-02$"):
        build_wavelet_bank(p, 2)


@pytest.mark.parametrize("bad", ["nan", "inf_and_minus_inf"])
@pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
def test_a_non_finite_diffusion_matrix_is_refused_naming_the_first(bad, stacked):
    # a NaN entry, or +inf and -inf in one row, makes the row error NaN,
    # which once passed the test, since NaN > STOCHASTIC_TOL is False
    p = random_stochastic_stack(3)
    if bad == "nan":
        p[1, 2, 0] = np.nan
    else:
        p[1, 2, 0], p[1, 2, 1] = np.inf, -np.inf
    p[2] = p[1]
    name = "matrix 1 in the stack"
    if not stacked:
        p, name = p[1], "the matrix"
    with pytest.raises(NotStochastic, match=rf"^{name} holds a non-finite value$"):
        build_wavelet_bank(p, 2)


def test_the_embeddings_of_one_node_graphs_are_refused():
    stack = adjacency_stack(1)
    with pytest.raises(NodeCountTooSmall):
        structural_embeddings(stack, FeatureConfig())
    with pytest.raises(IsolatedNode, match=r"^node 0 of graph 0 in the stack "):
        structural_embeddings(stack, FeatureConfig(use_wavelet_positional=False))


def test_config_requires_an_embedding():
    with pytest.raises(InvalidParams):
        FeatureConfig(use_wavelet_positional=False, use_diffused_dirac=False)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 32), scales=st.integers(0, 4), seed=st.integers(0, 500))
def test_telescoping_property(n, scales, seed):
    g = generate_graph("erdos_renyi", {"n": n, "p": 0.5}, seed=seed)
    bank = build_wavelet_bank(build_diffusion(build_adjacency(g)), scales)
    total = np.sum(bank.operators, axis=0)
    assert np.max(np.abs(total - np.eye(n))) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 24), seed=st.integers(0, 500))
def test_embedding_values_bounded(n, seed):
    g = generate_graph("erdos_renyi", {"n": n, "p": 0.5}, seed=seed)
    x = augment_features(g, FeatureConfig(scales_J=3, dirac_seed=seed))
    assert np.all(np.isfinite(x))
    assert np.max(np.abs(x)) <= 1.0 + 1e-9
