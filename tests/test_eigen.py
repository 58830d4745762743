import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlearn.eigen import (SIGN_TOL, Spectrum, canonical_signs, eigendecompose,
                              eigenvalue_clusters, lowest_k)
from eigenlearn.errors import KTooLarge, NotSymmetric
from eigenlearn.graphs import (LAPLACIAN_NORMS, build_adjacency, build_laplacian,
                               count_components, generate_graph)
from helpers import (STACK_SIZES, adjacency_stack, assert_same_bits, canonical_signs_loop,
                     random_graph_soup)


def path_eigenvalues(n: int) -> np.ndarray:
    # closed form for the path graph's unnormalized Laplacian
    return np.sort(2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n))


def test_path3_eigenvalues_closed_form():
    s = eigendecompose(build_laplacian(build_adjacency(generate_graph("path", {"n": 3}))))
    assert np.allclose(s.eigenvalues, [0.0, 1.0, 3.0], atol=1e-10)


@pytest.mark.parametrize("n", range(3, 11))
def test_path_family_matches_closed_form(n):
    s = eigendecompose(build_laplacian(build_adjacency(generate_graph("path", {"n": n}))))
    assert np.allclose(s.eigenvalues, path_eigenvalues(n), atol=1e-8)


def test_complete_graph_spectrum_structure():
    s = eigendecompose(build_laplacian(build_adjacency(generate_graph("complete", {"n": 5}))))
    assert abs(s.eigenvalues[0]) <= 1e-10
    assert np.allclose(s.eigenvalues[1:], 5.0, atol=1e-8)


def test_identity_matrix_spectrum():
    s = eigendecompose(np.eye(4))
    assert np.allclose(s.eigenvalues, 1.0)
    assert np.allclose(s.eigenvectors, np.eye(4))


def test_eigenvalues_nondecreasing_and_orthonormal():
    for g in random_graph_soup(10, seed=3, n_high=20):
        s = eigendecompose(build_laplacian(build_adjacency(g)))
        assert np.all(np.diff(s.eigenvalues) >= -1e-12)
        gram = s.eigenvectors.T @ s.eigenvectors
        assert np.linalg.norm(gram - np.eye(g.num_nodes)) <= 1e-8


def test_eigenpair_residuals():
    for g in random_graph_soup(10, seed=4, n_high=24):
        lap = build_laplacian(build_adjacency(g))
        s = eigendecompose(lap)
        for i in range(g.num_nodes):
            resid = np.linalg.norm(lap @ s.eigenvectors[:, i]
                                   - s.eigenvalues[i] * s.eigenvectors[:, i])
            assert resid <= 1e-8 * max(1.0, abs(s.eigenvalues[i]))


def test_reconstruction_against_lapack_oracle():
    # independent oracle: numpy's LAPACK eigensolver
    for g in random_graph_soup(10, seed=5, n_high=24):
        lap = build_laplacian(build_adjacency(g))
        s = eigendecompose(lap)
        oracle = np.sort(np.linalg.eigvalsh(lap))
        assert np.allclose(s.eigenvalues, oracle, atol=1e-9)
        recon = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
        assert np.linalg.norm(recon - lap) <= 1e-8 * max(np.linalg.norm(lap), 1.0)


def test_trivial_eigenvalue_of_laplacian_is_zero():
    for g in random_graph_soup(10, seed=6):
        s = eigendecompose(build_laplacian(build_adjacency(g)))
        assert abs(s.eigenvalues[0]) <= 1e-10


def test_zero_eigenvalue_multiplicity_counts_components():
    rng = np.random.default_rng(9)
    from eigenlearn.graphs import Graph
    for _ in range(15):
        n = int(rng.integers(4, 25))
        p = float(rng.uniform(0.05, 0.35))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = Graph(n, tuple(edges))
        s = eigendecompose(build_laplacian(build_adjacency(g)))
        assert int(np.sum(s.eigenvalues < 1e-8)) == count_components(g)


def test_sign_convention_first_significant_entry_positive():
    for g in random_graph_soup(5, seed=7):
        s = eigendecompose(build_laplacian(build_adjacency(g)))
        for i in range(g.num_nodes):
            col = s.eigenvectors[:, i]
            nz = np.nonzero(np.abs(col) > 1e-10)[0]
            assert col[nz[0]] > 0


def test_deterministic_output():
    g = random_graph_soup(1, seed=8)[0]
    lap = build_laplacian(build_adjacency(g))
    a = eigendecompose(lap)
    b = eigendecompose(lap)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_rejects_asymmetric_matrix():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        eigendecompose(m)


def test_symmetrizes_tiny_asymmetry():
    m = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
    s = eigendecompose(m)
    assert np.allclose(s.eigenvalues, [0.5, 1.5], atol=1e-9)


def test_solves_an_exactly_symmetric_input_as_given(monkeypatch):
    solved = []
    eigh = np.linalg.eigh

    def spy(m):
        solved.append(m)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    lap = build_laplacian(build_adjacency(generate_graph("erdos_renyi", {"n": 12, "p": 0.4},
                                                         seed=2)))
    eigendecompose(lap)
    assert solved.pop() is lap
    near = np.array([[1.0, 0.5 + 1e-12], [0.5, 1.0]])
    eigendecompose(near)
    seen = solved.pop()
    assert np.array_equal(seen, (near + near.T) / 2.0) and np.array_equal(seen, seen.T)


def test_lowest_k_slices():
    s = eigendecompose(build_laplacian(build_adjacency(generate_graph("path", {"n": 3}))))
    values, vectors = lowest_k(s, 2)
    assert np.allclose(values, [0.0, 1.0], atol=1e-10)
    assert vectors.shape == (3, 2)


def test_lowest_k_full_spectrum_is_identity_slice():
    s = eigendecompose(build_laplacian(build_adjacency(generate_graph("cycle", {"n": 5}))))
    values, vectors = lowest_k(s, 5)
    assert np.array_equal(values, s.eigenvalues)
    assert np.array_equal(vectors, s.eigenvectors)


def test_lowest_k_too_large():
    s = eigendecompose(build_laplacian(build_adjacency(generate_graph("path", {"n": 3}))))
    with pytest.raises(KTooLarge):
        lowest_k(s, 4)


def test_trivial_eigenvector_is_included():
    s = eigendecompose(build_laplacian(build_adjacency(generate_graph("cycle", {"n": 6}))))
    _, vectors = lowest_k(s, 2)
    constant = np.ones(6) / np.sqrt(6)
    assert np.allclose(np.abs(vectors[:, 0]), constant, atol=1e-8)


def test_eigenvalue_clusters_on_cycle():
    s = eigendecompose(build_laplacian(build_adjacency(generate_graph("cycle", {"n": 6}))))
    clusters = eigenvalue_clusters(s.eigenvalues)
    sizes = [hi - lo for lo, hi in clusters]
    # C_6 spectrum: 0, 1, 1, 3, 3, 4
    assert sizes == [1, 2, 2, 1]


def test_canonical_signs_idempotent():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    once = canonical_signs(q)
    assert np.array_equal(canonical_signs(once), once)


def assert_signs_match_loop(v):
    got, want = canonical_signs(v), canonical_signs_loop(v, SIGN_TOL)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 counts


@pytest.mark.parametrize("seed", range(20))
def test_canonical_signs_matches_column_loop_across_scales(seed):
    # Entries scaled from 1e-14 to 1 straddle SIGN_TOL; zeros make columns
    # lead with +0.0 and -0.0 as well.
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
    v = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-14, 0, (n, m))
    v[rng.random((n, m)) < 0.3] = 0.0
    v[rng.random((n, m)) < 0.1] = -0.0
    assert_signs_match_loop(v)


def test_canonical_signs_matches_column_loop_at_the_tolerance():
    # An entry of exactly +-SIGN_TOL does not lead; columns 0, 2 and 5 lead
    # with a negative entry above it, columns 3 and 4 have none.
    v = np.array([[SIGN_TOL, -SIGN_TOL, -SIGN_TOL, 0.0, -0.0, -1e-12],
                  [-0.5, 0.5, -2 * SIGN_TOL, -0.0, 0.0, 3e-11],
                  [1.0, -1.0, 1.0, -1e-11, -SIGN_TOL, -4e-10]])
    assert_signs_match_loop(v)
    assert np.array_equal(canonical_signs(v), v * [-1, 1, -1, 1, 1, -1])


def test_canonical_signs_keeps_columns_below_the_tolerance():
    v = np.array([[-1e-11, 0.0, -SIGN_TOL], [5e-11, -0.0, SIGN_TOL], [-SIGN_TOL, -1e-14, 0.0]])
    assert_signs_match_loop(v)
    assert np.array_equal(canonical_signs(v), v)


@pytest.mark.parametrize("shape", [(4, 0), (0, 3), (0, 0)])
def test_canonical_signs_empty_inputs(shape):
    assert_signs_match_loop(np.zeros(shape))


@pytest.mark.parametrize("norm", LAPLACIAN_NORMS)
@pytest.mark.parametrize("n", STACK_SIZES)
def test_the_spectra_of_a_stack_are_each_matrix_own_bit_for_bit(n, norm):
    laplacians = build_laplacian(adjacency_stack(n), norm)
    s = eigendecompose(laplacians)
    alone = [eigendecompose(m) for m in laplacians]
    assert s.n == n
    assert_same_bits((s.eigenvalues, s.eigenvectors),
                     [(one.eigenvalues, one.eigenvectors) for one in alone])
    for k in sorted({1, min(3, n), n}):
        assert_same_bits(lowest_k(s, k), [lowest_k(one, k) for one in alone])
    raw = np.linalg.eigh(laplacians)[1]
    assert_same_bits(canonical_signs(raw), [canonical_signs(v) for v in raw])


@pytest.mark.parametrize("seed", range(5))
def test_canonical_signs_of_a_stack_match_the_column_loop(seed):
    # entries straddling SIGN_TOL, and signed zeros, as in the single-matrix case
    rng = np.random.default_rng(seed)
    b, n, m = 4, int(rng.integers(1, 20)), int(rng.integers(1, 20))
    v = rng.standard_normal((b, n, m)) * 10.0 ** rng.uniform(-14, 0, (b, n, m))
    v[rng.random((b, n, m)) < 0.3] = 0.0
    v[rng.random((b, n, m)) < 0.1] = -0.0
    assert_same_bits(canonical_signs(v), [canonical_signs_loop(one, SIGN_TOL) for one in v])


def test_a_stack_symmetrizes_only_the_matrices_that_need_it(monkeypatch):
    solved = []
    eigh = np.linalg.eigh

    def spy(m):
        solved.append(m)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    stack = build_laplacian(adjacency_stack(6, count=4))
    stack[1, 0, 1] += 1e-12
    stack[3, 2, 5] -= 3e-13
    given = stack.copy()
    s = eigendecompose(stack)
    seen = solved.pop()
    assert stack.tobytes() == given.tobytes()  # the caller's stack is left alone
    for i in (0, 2):
        assert seen[i].tobytes() == stack[i].tobytes()
    for i in (1, 3):
        assert np.array_equal(seen[i], (stack[i] + stack[i].T) / 2.0)
    alone = [eigendecompose(m) for m in stack]
    assert_same_bits((s.eigenvalues, s.eigenvectors),
                     [(one.eigenvalues, one.eigenvectors) for one in alone])


def test_a_stack_with_asymmetric_matrices_is_refused_naming_the_first():
    stack = np.stack([np.eye(3)] * 5)
    stack[3, 0, 1] = 2.0
    stack[2, 1, 2] = 0.5
    with pytest.raises(NotSymmetric, match=r"^asymmetry 5\.000e-01 of matrix 2 in the stack "
                                           r"exceeds 1e-10$"):
        eigendecompose(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stacked", [False, True], ids=["matrix", "stack"])
def test_a_non_finite_matrix_is_refused_naming_the_first(bad, stacked):
    # symmetric, so only the non-finite test can refuse it; NaN passed the
    # asymmetry test once, since NaN > SYMMETRY_TOL is False
    m = np.eye(3)
    m[0, 1] = m[1, 0] = bad
    name = "the matrix"
    if stacked:
        m = np.stack([np.eye(3), m, m])
        name = "matrix 1 in the stack"
    with pytest.raises(NotSymmetric, match=rf"^{name} holds a non-finite value$"):
        eigendecompose(m)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (2, 2, 3, 3)])
def test_eigendecompose_refuses_anything_but_a_square_matrix_or_a_stack(shape):
    with pytest.raises(NotSymmetric, match=r"^expected a square matrix or a \(B, n, n\) "
                                           rf"stack of them, got shape {re.escape(str(shape))}$"):
        eigendecompose(np.zeros(shape))


def test_degenerate_cluster_projector_matches_oracle():
    # within a degenerate cluster only the projector is well-defined
    lap = build_laplacian(build_adjacency(generate_graph("complete", {"n": 5})))
    s = eigendecompose(lap)
    w, v = np.linalg.eigh(lap)
    ours = s.eigenvectors[:, 1:]
    theirs = v[:, 1:]
    assert np.linalg.norm(ours @ ours.T - theirs @ theirs.T) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 10_000))
def test_random_symmetric_matrices_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    m = (m + m.T) / 2.0
    s = eigendecompose(m)
    recon = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
    assert np.linalg.norm(recon - m) <= 1e-8 * max(np.linalg.norm(m), 1.0)
    assert isinstance(s, Spectrum)
