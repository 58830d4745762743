import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenlearn.eigen import eigendecompose, eigenvalue_clusters, lowest_k
from eigenlearn.errors import NotOrthonormal, ShapeMismatch
from eigenlearn.graphs import build_adjacency, build_laplacian, generate_graph
from eigenlearn.losses import (LossWeights, abs_cos_mae_loss, combined_loss,
                               eigenspace_rotation, eigvec_loss,
                               energy_abs_loss, energy_loss,
                               flip_column_signs, mae_loss, ortho_loss,
                               random_special_orthogonal)
from helpers import max_rel_error, numeric_gradient, random_graph_soup


# --- independent straight-line oracles (no shared code with the library) ---

def oracle_eigvec(u, lap, lam):
    k = u.shape[1]
    total = 0.0
    for i in range(k):
        r = lap @ u[:, i] - lam[i] * u[:, i]
        total += float(r @ r)
    return math.sqrt(total) / k


def oracle_energy(u, lap):
    k = u.shape[1]
    return sum(float(u[:, i] @ lap @ u[:, i]) for i in range(k)) / k


def oracle_energy_abs(u, lap, lam):
    k = u.shape[1]
    return sum(abs(float(u[:, i] @ lap @ u[:, i]) - lam[i]) for i in range(k)) / k


def oracle_ortho(u):
    k = u.shape[1]
    total = 0.0
    for i in range(k):
        for j in range(k):
            entry = float(u[:, i] @ u[:, j]) - (1.0 if i == j else 0.0)
            total += entry * entry
    return math.sqrt(total) / k


def oracle_abs_cos_mae(u, psi):
    k = u.shape[1]
    total = 0.0
    for i in range(k):
        a = np.abs(u[:, i])
        b = np.abs(psi[:, i])
        mae = float(np.mean(np.abs(a - b)))
        na = math.sqrt(float(a @ a))
        nb = math.sqrt(float(b @ b))
        cos = 0.0 if na == 0.0 or nb == 0.0 else float(a @ b) / (na * nb)
        total += mae + 1.0 - cos
    return total / k


def p3_fixture(k=2):
    lap = build_laplacian(build_adjacency(generate_graph("path", {"n": 3})))
    lam, psi = lowest_k(eigendecompose(lap), k)
    return lap, lam, psi


def random_case(rng, n_low=5, n_high=14, k_max=4):
    g = random_graph_soup(1, seed=int(rng.integers(1 << 31)), n_low=n_low, n_high=n_high)[0]
    lap = build_laplacian(build_adjacency(g))
    k = int(rng.integers(1, min(k_max, g.num_nodes) + 1))
    lam, psi = lowest_k(eigendecompose(lap), k)
    u = rng.standard_normal((g.num_nodes, k))
    return lap, lam, psi, u


# --- eigvec loss ---

def test_eigvec_loss_zero_on_exact_eigenvectors():
    lap, lam, psi = p3_fixture()
    assert eigvec_loss(psi, lap, lam) <= 1e-12


def test_eigvec_loss_wrong_eigenvalue_unit_residual():
    lap, _, _ = p3_fixture()
    u = np.ones((3, 1)) / np.sqrt(3.0)
    # L u = 0, so the residual against a (deliberately wrong) target 1 is u itself
    assert abs(eigvec_loss(u, lap, np.array([1.0])) - 1.0) <= 1e-12


def test_eigvec_loss_matches_oracle_on_random_inputs():
    rng = np.random.default_rng(21)
    for _ in range(20):
        lap, lam, _, u = random_case(rng)
        assert abs(eigvec_loss(u, lap, lam) - oracle_eigvec(u, lap, lam)) <= 1e-12


def test_eigvec_loss_per_vector_variant():
    rng = np.random.default_rng(22)
    lap, lam, _, u = random_case(rng, k_max=3)
    k = u.shape[1]
    expected = sum(np.linalg.norm(lap @ u[:, i] - lam[i] * u[:, i])
                   for i in range(k)) / k
    assert abs(eigvec_loss(u, lap, lam, per_vector=True) - expected) <= 1e-12


def test_eigvec_loss_shape_mismatch():
    lap, lam, psi = p3_fixture()
    with pytest.raises(ShapeMismatch):
        eigvec_loss(psi, lap[:2, :2], lam)
    with pytest.raises(ShapeMismatch):
        eigvec_loss(psi, lap, lam[:1])


# --- energy loss ---

def test_energy_loss_of_exact_lowest_two_on_path3():
    lap, _, psi = p3_fixture()
    assert abs(energy_loss(psi, lap) - 0.5) <= 1e-10


def test_energy_loss_of_highest_eigenvector_is_its_eigenvalue():
    lap = build_laplacian(build_adjacency(generate_graph("path", {"n": 3})))
    s = eigendecompose(lap)
    top = s.eigenvectors[:, -1:]
    assert abs(energy_loss(top, lap) - 3.0) <= 1e-10


def test_energy_loss_zero_operator():
    u = np.random.default_rng(0).standard_normal((4, 2))
    assert energy_loss(u, np.zeros((4, 4))) == 0.0


def test_energy_loss_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        lap, _, _, u = random_case(rng)
        assert abs(energy_loss(u, lap) - oracle_energy(u, lap)) <= 1e-12


# --- absolute energy loss ---

def test_energy_abs_zero_on_exact_pairs():
    lap, lam, psi = p3_fixture()
    assert energy_abs_loss(psi, lap, lam) <= 1e-10


def test_energy_abs_trivial_vector_against_wrong_target():
    lap, _, _ = p3_fixture()
    u = np.ones((3, 1)) / np.sqrt(3.0)
    assert abs(energy_abs_loss(u, lap, np.array([1.0])) - 1.0) <= 1e-12


def test_energy_abs_matches_oracle():
    rng = np.random.default_rng(24)
    for _ in range(20):
        lap, lam, _, u = random_case(rng)
        assert abs(energy_abs_loss(u, lap, lam) - oracle_energy_abs(u, lap, lam)) <= 1e-12


# --- orthogonality loss ---

def test_ortho_loss_zero_on_orthonormal():
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((6, 3)))
    assert ortho_loss(q) <= 1e-12


def test_ortho_loss_identical_unit_columns():
    u = np.zeros((4, 2))
    u[0, 0] = 1.0
    u[0, 1] = 1.0
    assert abs(ortho_loss(u) - math.sqrt(2.0) / 2.0) <= 1e-12


def test_ortho_loss_column_scaling_moves_one_gram_entry():
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    c = 1.7
    scaled = q.copy()
    scaled[:, 1] *= c
    gram = scaled.T @ scaled
    assert abs(gram[1, 1] - c * c) <= 1e-12
    expected = abs(c * c - 1.0) / 3.0
    assert abs(ortho_loss(scaled) - expected) <= 1e-12


def test_ortho_loss_matches_oracle():
    rng = np.random.default_rng(25)
    for _ in range(20):
        _, _, _, u = random_case(rng)
        assert abs(ortho_loss(u) - oracle_ortho(u)) <= 1e-12


# --- abs cosine + MAE baseline ---

def test_abs_cos_mae_zero_on_identical_inputs():
    _, _, psi = p3_fixture()
    assert abs_cos_mae_loss(psi, psi) <= 1e-12


def test_abs_cos_mae_blind_to_global_sign():
    _, _, psi = p3_fixture()
    assert abs_cos_mae_loss(-psi, psi) <= 1e-12


def test_abs_cos_mae_blind_to_per_column_sign_flips():
    rng = np.random.default_rng(26)
    lap, lam, psi, u = random_case(rng, k_max=3)
    base = abs_cos_mae_loss(u, psi)
    flipped_pred = flip_column_signs(u, [0])
    flipped_target = flip_column_signs(psi, [u.shape[1] - 1])
    assert abs(abs_cos_mae_loss(flipped_pred, psi) - base) <= 1e-12
    assert abs(abs_cos_mae_loss(u, flipped_target) - base) <= 1e-12


def test_abs_cos_mae_matches_oracle():
    rng = np.random.default_rng(27)
    for _ in range(20):
        _, _, psi, u = random_case(rng)
        assert abs(abs_cos_mae_loss(u, psi) - oracle_abs_cos_mae(u, psi)) <= 1e-12


def test_abs_cos_mae_zero_column_max_penalty():
    psi = np.array([[1.0], [0.0]])
    u = np.zeros((2, 1))
    # MAE term 0.5, cosine term pinned to 1
    assert abs(abs_cos_mae_loss(u, psi) - 1.5) <= 1e-12


# --- combined loss ---

def test_combined_default_weights_on_exact_eigenvectors():
    lap, lam, psi = p3_fixture()
    expected = float(np.sum(lam)) / len(lam)  # energy at its floor, eigvec 0
    got = combined_loss(psi, lap, lam, LossWeights(1.0, 2.0, 0.0))
    assert abs(got - expected) <= 1e-10


def test_combined_projects_to_single_terms():
    rng = np.random.default_rng(28)
    lap, lam, _, u = random_case(rng)
    only_eigvec = combined_loss(u, lap, lam, LossWeights(0.0, 1.0, 0.0))
    assert abs(only_eigvec - eigvec_loss(u, lap, lam)) <= 1e-15
    q, _ = np.linalg.qr(u)
    assert combined_loss(q, lap, lam, LossWeights(0.0, 0.0, 1.0)) <= 1e-12


def test_weights_validation():
    from eigenlearn.errors import InvalidParams
    with pytest.raises(InvalidParams):
        LossWeights(0.0, 0.0, 0.0)
    with pytest.raises(InvalidParams):
        LossWeights(-1.0, 1.0, 0.0)


def test_rotation_rejects_one_dimensional_sign_flip():
    # SO(1) is trivial: a 1x1 block of (-1) is a reflection, not a rotation
    _, _, psi = p3_fixture(k=1)
    with pytest.raises(NotOrthonormal):
        eigenspace_rotation(psi, np.array([[-1.0]]))


# --- eigenspace rotations ---

def test_rotation_identity_case():
    _, _, psi = p3_fixture()
    r = eigenspace_rotation(psi, np.eye(2))
    assert np.allclose(r, np.eye(3), atol=1e-12)


def test_rotation_is_orthogonal_and_respects_complement():
    lap = build_laplacian(build_adjacency(generate_graph("complete", {"n": 5})))
    s = eigendecompose(lap)
    psi = s.eigenvectors[:, 1:]  # eigenvalue 5 with multiplicity 4
    a = random_special_orthogonal(4, seed=3)
    r = eigenspace_rotation(psi, a)
    assert np.linalg.norm(r.T @ r - np.eye(5)) <= 1e-10
    # acts as A on span(psi)
    assert np.allclose(r @ psi, psi @ a, atol=1e-10)
    # identity on the complement (the trivial eigenvector)
    trivial = s.eigenvectors[:, :1]
    assert np.allclose(r @ trivial, trivial, atol=1e-10)


def test_rotation_commutes_with_operator_on_degenerate_space():
    lap = build_laplacian(build_adjacency(generate_graph("complete", {"n": 5})))
    s = eigendecompose(lap)
    psi = s.eigenvectors[:, 1:]
    r = eigenspace_rotation(psi, random_special_orthogonal(4, seed=9))
    assert np.linalg.norm(r @ lap - lap @ r) <= 1e-8


def test_rotation_rejects_non_orthonormal_basis():
    with pytest.raises(NotOrthonormal):
        eigenspace_rotation(np.ones((4, 2)), np.eye(2))


def test_rotation_rejects_reflection():
    _, _, psi = p3_fixture()
    reflection = np.diag([1.0, -1.0])
    with pytest.raises(NotOrthonormal):
        eigenspace_rotation(psi, reflection)


def test_so1_is_trivial():
    assert random_special_orthogonal(1, seed=0).tolist() == [[1.0]]


def test_random_rotation_contract():
    for seed in (0, 1, 7):
        for m in (2, 3, 5):
            r = random_special_orthogonal(m, seed=seed)
            assert np.linalg.norm(r.T @ r - np.eye(m)) <= 1e-8
            assert abs(np.linalg.det(r) - 1.0) <= 1e-8
    a = random_special_orthogonal(4, seed=0)
    b = random_special_orthogonal(4, seed=1)
    assert not np.allclose(a, b)
    assert np.array_equal(a, random_special_orthogonal(4, seed=0))


# --- invariance properties ---

def degenerate_and_random_fixtures():
    graphs = [generate_graph("complete", {"n": 5}),
              generate_graph("complete", {"n": 8}),
              generate_graph("cycle", {"n": 6})]
    graphs += random_graph_soup(8, seed=31, n_low=4, n_high=16)
    return graphs


def test_energy_unchanged_by_eigenspace_rotation():
    worst = 0.0
    for gi, g in enumerate(degenerate_and_random_fixtures()):
        lap = build_laplacian(build_adjacency(g))
        s = eigendecompose(lap)
        rng = np.random.default_rng(gi)
        for lo, hi in eigenvalue_clusters(s.eigenvalues):
            if hi - lo < 2:
                continue
            psi = s.eigenvectors[:, lo:hi]
            for t in range(5):
                r = eigenspace_rotation(psi, random_special_orthogonal(hi - lo, seed=10 * gi + t))
                u = rng.standard_normal(g.num_nodes)
                u /= np.linalg.norm(u)
                worst = max(worst, abs(u @ lap @ u - (r @ u) @ lap @ (r @ u)))
    assert worst <= 1e-8


def test_eigvec_residual_unchanged_by_eigenspace_rotation():
    worst = 0.0
    for gi, g in enumerate(degenerate_and_random_fixtures()):
        lap = build_laplacian(build_adjacency(g))
        s = eigendecompose(lap)
        rng = np.random.default_rng(100 + gi)
        for lo, hi in eigenvalue_clusters(s.eigenvalues):
            if hi - lo < 2:
                continue
            psi = s.eigenvectors[:, lo:hi]
            for t in range(5):
                r = eigenspace_rotation(psi, random_special_orthogonal(hi - lo, seed=77 * gi + t))
                u = rng.standard_normal(g.num_nodes)
                u /= np.linalg.norm(u)
                for lam in np.unique(np.round(s.eigenvalues, 10)):
                    before = np.linalg.norm(lap @ u - lam * u)
                    after = np.linalg.norm(lap @ (r @ u) - lam * (r @ u))
                    worst = max(worst, abs(before - after))
    assert worst <= 1e-8


def test_energy_invariant_under_prediction_rotation():
    rng = np.random.default_rng(33)
    for g in random_graph_soup(10, seed=34, n_low=5, n_high=16):
        lap = build_laplacian(build_adjacency(g))
        k = int(rng.integers(2, 5))
        q, _ = np.linalg.qr(rng.standard_normal((g.num_nodes, k)))
        rot = random_special_orthogonal(k, seed=int(rng.integers(1000)))
        assert abs(energy_loss(q, lap) - energy_loss(q @ rot, lap)) <= 1e-8


def test_eigvec_not_invariant_under_prediction_rotation():
    # distinct eigenvalues: rotating the exact basis must cost > 1e-4
    lap = build_laplacian(build_adjacency(generate_graph("path", {"n": 6})))
    lam, psi = lowest_k(eigendecompose(lap), 3)
    assert np.all(np.diff(lam) > 1e-6)
    rot = random_special_orthogonal(3, seed=5)
    before = eigvec_loss(psi, lap, lam)
    after = eigvec_loss(psi @ rot, lap, lam)
    assert before <= 1e-10
    assert after - before > 1e-4


def test_energy_floor_over_random_orthonormal_predictions():
    rng = np.random.default_rng(35)
    for _ in range(100):
        g = random_graph_soup(1, seed=int(rng.integers(1 << 31)), n_low=5, n_high=16)[0]
        lap = build_laplacian(build_adjacency(g))
        k = int(rng.integers(1, 5))
        s = eigendecompose(lap)
        floor = float(np.sum(s.eigenvalues[:k])) / k
        q, _ = np.linalg.qr(rng.standard_normal((g.num_nodes, k)))
        assert energy_loss(q, lap) >= floor - 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_all_losses_nonnegative(seed):
    rng = np.random.default_rng(seed)
    lap, lam, psi, u = random_case(rng)
    assert eigvec_loss(u, lap, lam) >= 0.0
    assert energy_abs_loss(u, lap, lam) >= 0.0
    assert ortho_loss(u) >= 0.0
    assert abs_cos_mae_loss(u, psi) >= 0.0
    # energy is a mean Rayleigh quotient of a PSD operator
    assert energy_loss(u, lap) >= -1e-12


# --- padded stacks: one call per mini-batch ---

def padded_batch(sizes=(7, 3, 10, 5), k=3, m=10, seed=21):
    """Per-graph (u, L, lambda, psi) of mixed sizes, and the same data as
    zero-padded stacks of m rows."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i, n in enumerate(sizes):
        g = generate_graph("erdos_renyi", {"n": n, "p": 0.6}, seed=seed + i)
        lap = build_laplacian(build_adjacency(g))
        lam, psi = lowest_k(eigendecompose(lap), k)
        graphs.append((rng.standard_normal((n, k)), lap, lam, psi))
    b = len(sizes)
    u, lap, psi = np.zeros((b, m, k)), np.zeros((b, m, m)), np.zeros((b, m, k))
    for i, (gu, gl, _, gp) in enumerate(graphs):
        n = len(gu)
        u[i, :n], lap[i, :n, :n], psi[i, :n] = gu, gl, gp
    lam = np.stack([g[2] for g in graphs])
    return graphs, (u, lap, lam, psi, np.array(sizes))


STACKED_LOSSES = {
    "energy": (lambda u, lap, lam, psi, sizes, grad: energy_loss(u, lap, grad=grad)),
    "eigvec": (lambda u, lap, lam, psi, sizes, grad: eigvec_loss(u, lap, lam, grad=grad)),
    "eigvec_per_vector": (lambda u, lap, lam, psi, sizes, grad:
                          eigvec_loss(u, lap, lam, per_vector=True, grad=grad)),
    "ortho": (lambda u, lap, lam, psi, sizes, grad: ortho_loss(u, grad=grad)),
    "abs_cos": (lambda u, lap, lam, psi, sizes, grad:
                abs_cos_mae_loss(u, psi, sizes, grad=grad)),
    "combined": (lambda u, lap, lam, psi, sizes, grad:
                 combined_loss(u, lap, lam, LossWeights(1.0, 2.0, 0.5), grad=grad)),
}


@pytest.mark.parametrize("name", sorted(STACKED_LOSSES))
def test_stacked_loss_matches_each_graph_alone(name):
    loss = STACKED_LOSSES[name]
    graphs, (u, lap, lam, psi, sizes) = padded_batch()
    values, grad = loss(u, lap, lam, psi, sizes, True)
    assert values.shape == (len(graphs),)
    assert np.array_equal(loss(u, lap, lam, psi, sizes, False), values)
    for i, (gu, gl, gl_lam, gp) in enumerate(graphs):
        n = len(gu)
        alone_value, alone_grad = loss(gu, gl, gl_lam, gp, None, True)
        assert isinstance(alone_value, float)
        assert abs(values[i] - alone_value) <= 1e-12 * max(1.0, abs(alone_value))
        assert np.max(np.abs(grad[i, :n] - alone_grad)) <= 1e-12
        assert np.all(grad[i, n:] == 0.0)  # phantom rows get no gradient


def test_stacked_mae_is_the_mae_of_each_block_alone():
    # MAE averages over a block's every entry, phantom rows included
    _, (u, _, _, psi, _) = padded_batch()
    values, grad = mae_loss(u, psi, grad=True)
    assert values.shape == (len(u),)
    assert np.array_equal(mae_loss(u, psi), values)
    for i in range(len(u)):
        alone_value, alone_grad = mae_loss(u[i], psi[i], grad=True)
        assert abs(values[i] - alone_value) <= 1e-12 * max(1.0, abs(alone_value))
        assert np.array_equal(grad[i], alone_grad)


def test_energy_abs_loss_of_a_stack_matches_each_graph_alone():
    graphs, (u, lap, lam, _, _) = padded_batch()
    values = energy_abs_loss(u, lap, lam)
    for i, (gu, gl, gl_lam, _) in enumerate(graphs):
        assert abs(values[i] - energy_abs_loss(gu, gl, gl_lam)) <= 1e-12


def test_combined_loss_terms_are_the_unweighted_losses():
    _, (u, lap, lam, _, _) = padded_batch()
    weights = LossWeights(1.0, 2.0, 0.0)
    value, grad, (energy, eigvec, ortho) = combined_loss(u, lap, lam, weights, grad=True,
                                                         terms=True)
    assert np.array_equal(energy, energy_loss(u, lap))
    assert np.array_equal(eigvec, eigvec_loss(u, lap, lam))
    assert np.array_equal(ortho, ortho_loss(u))  # computed although its weight is 0
    assert np.array_equal(value, combined_loss(u, lap, lam, weights))
    assert np.array_equal(grad, combined_loss(u, lap, lam, weights, grad=True)[1])


def test_stacked_losses_reject_mismatched_targets_and_sizes():
    _, (u, lap, lam, psi, sizes) = padded_batch()
    with pytest.raises(ShapeMismatch):
        energy_loss(u, lap[:2])
    with pytest.raises(ShapeMismatch):
        eigvec_loss(u, lap, lam[:, :2])
    with pytest.raises(ShapeMismatch):
        abs_cos_mae_loss(u, psi, sizes[:2])
    with pytest.raises(ShapeMismatch):
        abs_cos_mae_loss(u, psi, sizes + 10)  # more nodes than rows
    with pytest.raises(ShapeMismatch):
        abs_cos_mae_loss(u[0], psi[0], sizes)  # sizes belong to a stack
    for grad in (False, True):
        with pytest.raises(ShapeMismatch):
            abs_cos_mae_loss(u, psi, grad=grad)  # a stack's phantom rows are not marked


# --- closed-form gradients against finite differences of the same function ---

SPECTRAL_TERMS = {
    "energy": lambda u, lap, lam, grad=False: energy_loss(u, lap, grad=grad),
    "eigvec": lambda u, lap, lam, grad=False: eigvec_loss(u, lap, lam, grad=grad),
    "ortho": lambda u, lap, lam, grad=False: ortho_loss(u, grad=grad),
}


@pytest.mark.parametrize("name", sorted(SPECTRAL_TERMS))
def test_closed_form_gradient_vs_finite_differences(name):
    # 1e-5: an entry near 0 (6e-5 in the eigvec stack) sees the finite
    # differences' own error; a gradient off by 0.1% fails by 1e-3
    loss = SPECTRAL_TERMS[name]
    graphs, (u, lap, lam, _, _) = padded_batch()
    gu, gl, gl_lam, _ = graphs[0]
    _, grad = loss(gu, gl, gl_lam, grad=True)
    assert max_rel_error(grad, numeric_gradient(lambda: loss(gu, gl, gl_lam), gu)) <= 1e-5
    # a padded stack: a fixed random projection of its per-graph values, so
    # each graph's block of the gradient is checked with its own scale
    w = np.random.default_rng(22).standard_normal(len(u))
    _, grad = loss(u, lap, lam, grad=True)
    numeric = numeric_gradient(lambda: float(w @ loss(u, lap, lam)), u)
    assert max_rel_error(w[:, None, None] * grad, numeric) <= 1e-5


def test_a_zero_norm_gives_the_gradient_no_direction():
    # exact eigenpairs of P3 and orthonormal columns make the residual and
    # the Gram excess exactly 0: each loss sits at its kink, where the
    # gradient is 0 rather than a division by the zero norm
    lap = build_laplacian(build_adjacency(generate_graph("path", {"n": 3})))
    u = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, -1.0]])
    for value, grad in (eigvec_loss(u, lap, np.array([0.0, 1.0]), grad=True),
                        ortho_loss(np.eye(3)[:, :2], grad=True)):
        assert value == 0.0
        assert np.array_equal(grad, np.zeros_like(grad))
