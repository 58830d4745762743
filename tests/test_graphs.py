import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlearn.errors import InvalidGraph, InvalidParams, IsolatedNode, ShapeMismatch
from eigenlearn.graphs import (GRAPH_KINDS, LAPLACIAN_NORMS, Graph, build_adjacency,
                               build_diffusion, build_laplacian, count_components,
                               generate_graph, has_isolated_node, permute_graph)
from helpers import (STACK_SIZES, adjacency_stack, assert_same_bits, build_adjacency_loop,
                     random_graph_soup)


def test_path_adjacency():
    g = generate_graph("path", {"n": 3})
    assert build_adjacency(g).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_empty_graph_adjacency_is_zero():
    g = Graph(3, ())
    assert np.all(build_adjacency(g) == 0)


def test_complete_k3_adjacency():
    g = generate_graph("complete", {"n": 3})
    expected = np.ones((3, 3)) - np.eye(3)
    assert np.array_equal(build_adjacency(g), expected)


# one generator call per kind, each with the parameters it takes
KIND_PARAMS = {"path": {"n": 7}, "cycle": {"n": 7}, "complete": {"n": 7}, "star": {"n": 7},
               "grid": {"rows": 3, "cols": 4}, "erdos_renyi": {"n": 9, "p": 0.4}}


def assert_matches_the_loop(g):
    got = build_adjacency(g)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, build_adjacency_loop(g))


@pytest.mark.parametrize("g", random_graph_soup(12, seed=3, n_low=2, n_high=40)
                         + [generate_graph(kind, KIND_PARAMS[kind], seed=1) for kind in GRAPH_KINDS]
                         + [Graph(1, ()), Graph(3, ())],
                         ids=lambda g: f"n{g.num_nodes}-e{len(g.edges)}")
def test_vectorized_adjacency_matches_the_edge_loop(g):
    assert_matches_the_loop(g)


@st.composite
def random_edge_sets(draw):
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # either orientation: Graph stores each edge as (min, max)
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Graph(n, tuple((v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)))


@settings(max_examples=60, deadline=None)
@given(g=random_edge_sets())
def test_vectorized_adjacency_matches_the_edge_loop_on_random_edge_sets(g):
    assert_matches_the_loop(g)


def test_path_laplacian_unnormalized():
    g = generate_graph("path", {"n": 3})
    expected = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
    assert build_laplacian(build_adjacency(g)).tolist() == expected


def test_single_node_laplacian():
    assert build_laplacian(build_adjacency(Graph(1, ()))).tolist() == [[0.0]]


def test_path_laplacian_symmetric_norm():
    g = generate_graph("path", {"n": 3})
    s = 1.0 / np.sqrt(2.0)
    expected = np.array([[1, -s, 0], [-s, 1, -s], [0, -s, 1]])
    assert np.allclose(build_laplacian(build_adjacency(g), "symmetric"), expected, atol=1e-15)


def test_symmetric_norm_isolated_node_row_is_zeroed():
    g = Graph(3, ((0, 1),))
    lap = build_laplacian(build_adjacency(g), "symmetric")
    # isolated node keeps a 1 on the diagonal from I, no off-diagonal coupling
    assert lap[2, 2] == 1.0
    assert np.all(lap[2, :2] == 0) and np.all(lap[:2, 2] == 0)


def test_path_diffusion():
    g = generate_graph("path", {"n": 3})
    expected = [[0, 1, 0], [0.5, 0, 0.5], [0, 1, 0]]
    assert build_diffusion(build_adjacency(g)).tolist() == expected


def test_k2_diffusion():
    g = generate_graph("complete", {"n": 2})
    assert build_diffusion(build_adjacency(g)).tolist() == [[0, 1], [1, 0]]


def test_diffusion_rejects_isolated_node():
    g = Graph(3, ((0, 1),))
    with pytest.raises(IsolatedNode) as exc:
        build_diffusion(build_adjacency(g))
    assert exc.value.index == 2 and exc.value.graph_index is None


@pytest.mark.parametrize("op", [build_laplacian, build_diffusion])
@pytest.mark.parametrize("bad, got", [
    (generate_graph("path", {"n": 3}), "got a Graph"),  # the pre-adjacency call
    (np.zeros((3, 4)), r"got shape \(3, 4\)"),
    (np.zeros(3), r"got shape \(3,\)"),
    (np.zeros((2, 2, 3)), r"got shape \(2, 2, 3\)"),  # a stack of non-square matrices
    ([[0.0, 1.0], [1.0, 0.0]], "got a list"),
])
def test_operators_refuse_anything_but_a_square_array(op, bad, got):
    with pytest.raises(ShapeMismatch, match=f"^{op.__name__} takes a square .*{got}$"):
        op(bad)


@pytest.mark.parametrize("norm", LAPLACIAN_NORMS)
@pytest.mark.parametrize("n", STACK_SIZES)
def test_the_laplacians_of_a_stack_are_each_graphs_own_bit_for_bit(n, norm):
    stack = adjacency_stack(n)
    if n > 2:  # an isolated node, which the Laplacian allows
        stack[1, 2, :] = stack[1, :, 2] = 0.0
    assert_same_bits(build_laplacian(stack, norm), [build_laplacian(a, norm) for a in stack])
    if norm == "unnormalized":  # 0.0 - a_ij off the diagonal, never -0.0
        assert_same_bits(build_laplacian(stack), [np.diag(a.sum(axis=1)) - a for a in stack])


@pytest.mark.parametrize("n", STACK_SIZES[1:])  # a one-node graph's node is isolated
def test_the_diffusions_of_a_stack_are_each_graphs_own_bit_for_bit(n):
    stack = adjacency_stack(n)
    assert not has_isolated_node(stack).any()
    assert_same_bits(build_diffusion(stack), [build_diffusion(a) for a in stack])


def test_a_stack_with_isolated_nodes_is_refused_naming_its_first_graph():
    stack = adjacency_stack(6)
    stack[3, 1, :] = stack[3, :, 1] = 0.0
    stack[2, 5, :] = stack[2, :, 5] = 0.0
    stack[2, 4, :] = stack[2, :, 4] = 0.0
    assert has_isolated_node(stack).tolist() == [False, False, True, True, False]
    assert [has_isolated_node(a) for a in stack] == has_isolated_node(stack).tolist()
    with pytest.raises(IsolatedNode, match=r"^node 4 of graph 2 in the stack has degree 0; "
                                           r"diffusion is undefined$") as exc:
        build_diffusion(stack)
    assert (exc.value.index, exc.value.graph_index) == (4, 2)
    with pytest.raises(IsolatedNode, match=r"^node 0 of graph 0 in the stack "):
        build_diffusion(adjacency_stack(1))


def test_graph_rejects_self_loop():
    with pytest.raises(InvalidGraph):
        Graph(3, ((1, 1),))


def test_graph_rejects_duplicate_edge():
    with pytest.raises(InvalidGraph):
        Graph(3, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range_edge():
    with pytest.raises(InvalidGraph):
        Graph(3, ((0, 3),))


@pytest.mark.parametrize("edge, shown", [(5, "5"), (None, "None"), ((0, 1, 2), "(0, 1, 2)"),
                                         ([0], "(0,)"), ((), "()")])
def test_graph_rejects_an_edge_that_is_not_a_pair(edge, shown):
    with pytest.raises(InvalidGraph, match=rf"^edge {re.escape(shown)} is not a pair$"):
        Graph(3, ((0, 1), edge))


@pytest.mark.parametrize("edge", [(0.9, 1), (True, 2), (0, 2.0), ("0", 1)])
def test_graph_rejects_an_endpoint_that_is_not_an_int(edge):
    with pytest.raises(InvalidGraph, match=rf"^edge {re.escape(repr(edge))} has an endpoint "
                                           "that is not an int$"):
        Graph(3, (edge,))


@pytest.mark.parametrize("num_nodes, edges", [(3.0, ((0, 1), (1, 2))), ("3", ((0, 1),)),
                                              (True, ((0, 1),)), (np.float64(3), ())])
def test_graph_rejects_a_node_count_that_is_not_an_int(num_nodes, edges):
    with pytest.raises(InvalidGraph, match=rf"^num_nodes must be an int, got "
                                           rf"{re.escape(repr(num_nodes))} \(\w+\)$"):
        Graph(num_nodes, edges)


def test_graph_takes_a_numpy_int_node_count():
    g = Graph(np.int32(3), ((0, 1), (1, 2)))
    assert type(g.num_nodes) is int and g.num_nodes == 3


def test_graph_takes_numpy_int_endpoints():
    assert Graph(3, ((np.int64(2), np.int32(0)),)).edges == ((0, 2),)


def test_graph_rejects_bad_feature_rows():
    with pytest.raises(InvalidGraph):
        Graph(3, ((0, 1),), node_features=np.zeros((2, 4)))


def test_graph_canonicalizes_edge_order():
    g = Graph(3, ((2, 0),))
    assert g.edges == ((0, 2),)


def test_generate_path_edges():
    assert generate_graph("path", {"n": 3}).edges == ((0, 1), (1, 2))


def test_generate_complete_edge_count():
    assert len(generate_graph("complete", {"n": 4}).edges) == 6


def test_generate_star_structure():
    g = generate_graph("star", {"n": 4})
    assert g.edges == ((0, 1), (0, 2), (0, 3))
    assert build_adjacency(g).sum(axis=1).tolist() == [3, 1, 1, 1]


def test_generate_grid_shape():
    g = generate_graph("grid", {"rows": 2, "cols": 3})
    assert g.num_nodes == 6
    assert len(g.edges) == 7  # 2*2 horizontal + 3 vertical


def test_generate_erdos_renyi_deterministic():
    a = generate_graph("erdos_renyi", {"n": 10, "p": 0.4}, seed=7)
    b = generate_graph("erdos_renyi", {"n": 10, "p": 0.4}, seed=7)
    assert a.edges == b.edges
    assert np.all(build_adjacency(a).sum(axis=1) > 0)


def test_generate_erdos_renyi_rejects_bad_p():
    with pytest.raises(InvalidParams):
        generate_graph("erdos_renyi", {"n": 5, "p": 1.5})


def test_generate_unknown_kind():
    with pytest.raises(InvalidParams):
        generate_graph("hypercube", {"n": 8})


def test_count_components():
    assert count_components(Graph(5, ((0, 1), (1, 2)))) == 3
    assert count_components(generate_graph("cycle", {"n": 6})) == 1


def test_permute_graph_moves_features_with_nodes():
    g = Graph(3, ((0, 1),), node_features=np.array([[1.0], [2.0], [3.0]]))
    p = permute_graph(g, [2, 0, 1])
    assert p.node_features[:, 0].tolist() == [2.0, 3.0, 1.0]
    assert p.edges == ((0, 2),)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 1000))
def test_laplacian_rows_sum_to_zero(n, seed):
    g = generate_graph("erdos_renyi", {"n": n, "p": 0.5}, seed=seed)
    lap = build_laplacian(build_adjacency(g))
    assert np.max(np.abs(lap.sum(axis=1))) <= 1e-10
    ones = np.ones(n)
    assert np.linalg.norm(lap @ ones) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 20), seed=st.integers(0, 1000))
def test_diffusion_rows_sum_to_one(n, seed):
    g = generate_graph("erdos_renyi", {"n": n, "p": 0.5}, seed=seed)
    p = build_diffusion(build_adjacency(g))
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12
