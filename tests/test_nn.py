import numpy as np
import pytest

from eigenlearn import autodiff as ad
from eigenlearn.eigen import eigendecompose, lowest_k
from eigenlearn.errors import GraphTooLarge, RankDeficient, ShapeMismatch
from eigenlearn.graphs import Graph, build_laplacian, generate_graph, permute_graph
from eigenlearn.losses import LossWeights
from eigenlearn.nn import (EigenModel, GinEncoder, GinLayer, GraphLevelHead,
                           Mlp, NodeWiseHead, abs_cos_mae_loss_t,
                           combined_loss_t, eigvec_loss_t, energy_loss_t,
                           glorot_uniform, mae_loss_t, orthonormalize,
                           ortho_loss_t)
from eigenlearn import losses
from helpers import max_rel_error, numeric_gradient


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 30, 10)
    limit = np.sqrt(6.0 / 40.0)
    assert w.shape == (30, 10)
    assert np.max(np.abs(w)) <= limit


# --- MLP / GIN ---

def test_mlp_zero_weights_outputs_bias():
    mlp = Mlp([3, 2], rng=np.random.default_rng(0))
    mlp.weights[0].values[:] = 0.0
    mlp.biases[0].values[:] = [1.5, -2.0]
    out = mlp.forward(ad.constant(np.random.default_rng(1).standard_normal((4, 3))))
    assert np.allclose(out.values, np.tile([1.5, -2.0], (4, 1)))


def identity_gin_layer(dim):
    """Single affine 'MLP' wired to the identity so the layer output equals
    its pre-activation aggregate."""
    layer = GinLayer(dim, dim, update_layers=1, dropout_rate=0.0,
                     rng=np.random.default_rng(0))
    layer.update_mlp.weights[0].values = np.eye(dim)
    layer.update_mlp.biases[0].values[:] = 0.0
    return layer


def test_gin_layer_k2_hand_evaluation():
    g = generate_graph("complete", {"n": 2})
    x = np.array([[1.0, 2.0], [10.0, 20.0]])
    layer = identity_gin_layer(2)
    from eigenlearn.graphs import build_adjacency
    out = layer.forward(ad.constant(x), build_adjacency(g))
    # eps = 0: each node maps to x_self + x_neighbor
    assert np.allclose(out.values, [[11.0, 22.0], [11.0, 22.0]])


def test_gin_layer_eps_scales_self_term():
    g = generate_graph("complete", {"n": 2})
    x = np.array([[1.0], [3.0]])
    layer = identity_gin_layer(1)
    layer.eps.values = np.array(0.5)
    from eigenlearn.graphs import build_adjacency
    out = layer.forward(ad.constant(x), build_adjacency(g))
    assert np.allclose(out.values, [[1.5 * 1 + 3], [1.5 * 3 + 1]])


def test_gin_no_edges_means_no_mixing():
    g = Graph(3, ())
    x = np.diag([1.0, 2.0, 3.0])
    layer = identity_gin_layer(3)
    out = layer.forward(ad.constant(x), np.zeros((3, 3)))
    assert np.allclose(out.values, x)


def test_gin_encoder_permutation_equivariance():
    rng = np.random.default_rng(5)
    g = generate_graph("erdos_renyi", {"n": 7, "p": 0.5}, seed=2)
    x = rng.standard_normal((7, 4))
    enc = GinEncoder(4, 6, mp_layers=2, update_layers=2, dropout_rate=0.0,
                     rng=np.random.default_rng(1))
    out = enc.forward(g, ad.constant(x)).values
    perm = list(rng.permutation(7))
    gp = permute_graph(g, perm)
    xp = np.empty_like(x)
    for old, new in enumerate(perm):
        xp[new] = x[old]
    outp = enc.forward(gp, ad.constant(xp)).values
    for old, new in enumerate(perm):
        assert np.allclose(outp[new], out[old], atol=1e-12)


# --- heads ---

def make_graph_head(**kw):
    args = dict(max_nodes=5, d_hidden=3, k=2, mlp_hidden=8, mlp_layers=2,
                dropout_rate=0.0, rng=np.random.default_rng(3))
    args.update(kw)
    return GraphLevelHead(**args)


def test_graph_level_head_shapes():
    head = make_graph_head()
    z = np.random.default_rng(0).standard_normal((3, 3))
    out = head.forward([ad.constant(z)])[0]
    assert out.shape == (3, 2)
    assert head.mlp.dims[0] == 15 and head.mlp.dims[-1] == 10


def test_graph_level_head_boundary_no_padding():
    head = make_graph_head()
    z = np.random.default_rng(1).standard_normal((5, 3))
    assert head.forward([ad.constant(z)])[0].shape == (5, 2)


def test_graph_level_head_rejects_oversize():
    head = make_graph_head()
    z = np.zeros((6, 3))
    with pytest.raises(GraphTooLarge):
        head.forward([ad.constant(z)])


def test_graph_level_head_reference_dims():
    # hidden 60, 40-node budget, 6 eigenvectors: 2400 -> ... -> 240
    head = GraphLevelHead(max_nodes=40, d_hidden=60, k=6, mlp_hidden=2400,
                          mlp_layers=2, dropout_rate=0.0,
                          rng=np.random.default_rng(0))
    assert head.mlp.dims[0] == 2400
    assert head.mlp.dims[-1] == 240
    z = np.zeros((3, 60))
    assert head.forward([ad.constant(z)])[0].shape == (3, 6)


def test_graph_level_head_is_order_sensitive():
    # deliberate design property: the flattened representation depends on node
    # order, so permuting inputs must NOT permute outputs in general
    head = make_graph_head()
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 3))
    out = head.forward([ad.constant(z)])[0].values
    zp = z[::-1].copy()
    outp = head.forward([ad.constant(zp)])[0].values
    assert not np.allclose(outp, out[::-1], atol=1e-6)


def test_node_wise_head_row_independence():
    head = NodeWiseHead(d_hidden=3, k=2, mlp_hidden=8, mlp_layers=2,
                        dropout_rate=0.0, rng=np.random.default_rng(4))
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 3))
    out = head.forward([ad.constant(z)])[0].values
    # duplicating a row duplicates its output
    z2 = np.vstack([z, z[1]])
    out2 = head.forward([ad.constant(z2)])[0].values
    assert np.allclose(out2[-1], out[1])
    # permuting rows permutes outputs
    perm = [2, 0, 3, 1]
    out3 = head.forward([ad.constant(z[perm])])[0].values
    assert np.allclose(out3, out[perm])


def batch_of_mixed_sizes(d, sizes=(3, 5, 1, 4), seed=6):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, d)) for n in sizes]


@pytest.mark.parametrize("make_head", [
    lambda: make_graph_head(),
    lambda: NodeWiseHead(d_hidden=3, k=2, mlp_hidden=8, mlp_layers=3,
                         dropout_rate=0.0, rng=np.random.default_rng(4)),
], ids=["graph_level", "node_wise"])
def test_batched_head_matches_batch_of_one(make_head):
    head = make_head()
    zs = batch_of_mixed_sizes(3)
    batched = head.forward([ad.constant(z) for z in zs])
    assert [u.shape for u in batched] == [(z.shape[0], 2) for z in zs]
    for z, u in zip(zs, batched):
        alone = head.forward([ad.constant(z)])[0].values
        assert np.max(np.abs(u.values - alone)) <= 1e-12


def test_graph_level_head_phantom_rows_never_reach_the_loss():
    # the widest graph has 4 of the 5 node slots: the output columns of the
    # fifth (phantom) slot must get exactly zero gradient from any loss
    head = make_graph_head()
    zs = [ad.parameter(z) for z in batch_of_mixed_sizes(3, sizes=(2, 4, 3))]
    total = None
    for u in head.forward(zs):
        term = ad.sum_(ad.mul(u, u))
        total = term if total is None else ad.add(total, term)
    total.backward()
    out_w, out_b = head.mlp.weights[-1], head.mlp.biases[-1]
    assert np.all(out_w.grad[:, 4 * head.k:] == 0.0)
    assert np.all(out_b.grad[4 * head.k:] == 0.0)
    assert np.any(out_w.grad[:, :4 * head.k] != 0.0)
    for z in zs:
        assert z.grad.shape == z.shape


# --- orthonormalize ---

def test_orthonormalize_fixed_point_on_orthonormal_input():
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))
    out = orthonormalize(ad.constant(q))
    assert np.allclose(out.values, q, atol=1e-10)


def test_orthonormalize_hand_example():
    u = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    out = orthonormalize(ad.constant(u)).values
    assert np.allclose(out, [[1, 0], [0, 1], [0, 0]], atol=1e-12)


def test_orthonormalize_output_is_orthonormal_and_preserves_span():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(3, 12))
        k = int(rng.integers(1, min(n, 5) + 1))
        u = rng.standard_normal((n, k))
        q = orthonormalize(ad.constant(u)).values
        assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-6
        # same span: projecting u onto span(q) reproduces u
        assert np.allclose(q @ (q.T @ u), u, atol=1e-8)


def test_orthonormalize_rank_deficient_reports_column():
    u = np.zeros((4, 2))
    u[:, 0] = [1.0, 0.0, 0.0, 0.0]
    u[:, 1] = [2.0, 0.0, 0.0, 0.0]  # dependent on column 0
    with pytest.raises(RankDeficient) as exc:
        orthonormalize(ad.constant(u))
    assert exc.value.column_index == 1


def test_orthonormalize_needs_tall_matrix():
    with pytest.raises(ShapeMismatch):
        orthonormalize(ad.constant(np.ones((2, 3))))


def test_orthonormalize_gradient_vs_finite_differences():
    rng = np.random.default_rng(2)
    u = rng.standard_normal((6, 3))
    lap = rng.standard_normal((6, 6))
    lap = lap @ lap.T
    lam = np.sort(rng.uniform(0, 2, size=3))
    weights = LossWeights(1.0, 2.0, 0.0)

    def loss_from(u_arr):
        q = orthonormalize(ad.Tensor(u_arr, requires_grad=True))
        return combined_loss_t(q, lap, lam, weights)

    t = ad.parameter(u)
    out = combined_loss_t(orthonormalize(t), lap, lam, weights)
    out.backward()
    numeric = numeric_gradient(lambda: float(loss_from(u).values), u)
    assert max_rel_error(t.grad, numeric) <= 1e-3


# --- tape losses agree with the numpy forms ---

def test_tape_losses_match_numpy_losses():
    rng = np.random.default_rng(3)
    g = generate_graph("erdos_renyi", {"n": 8, "p": 0.5}, seed=1)
    lap = build_laplacian(g)
    lam, psi = lowest_k(eigendecompose(lap), 3)
    u = rng.standard_normal((8, 3))
    t = ad.constant(u)
    assert abs(eigvec_loss_t(t, lap, lam).item() - losses.eigvec_loss(u, lap, lam)) <= 1e-12
    assert abs(energy_loss_t(t, lap).item() - losses.energy_loss(u, lap)) <= 1e-12
    assert abs(ortho_loss_t(t).item() - losses.ortho_loss(u)) <= 1e-12
    assert abs(abs_cos_mae_loss_t(t, psi).item() - losses.abs_cos_mae_loss(u, psi)) <= 1e-12
    w = LossWeights(1.0, 2.0, 0.5)
    assert abs(combined_loss_t(t, lap, lam, w).item()
               - losses.combined_loss(u, lap, lam, w)) <= 1e-12


def test_mae_loss_tape():
    pred = ad.constant(np.array([[1.0]]))
    assert abs(mae_loss_t(pred, np.array([[3.5]])).item() - 2.5) <= 1e-15


# --- full model ---

def build_small_model(seed=0, dropout=0.0):
    rng = np.random.default_rng(seed)
    enc = GinEncoder(4, 8, mp_layers=2, update_layers=2, dropout_rate=dropout, rng=rng)
    head = GraphLevelHead(max_nodes=10, d_hidden=8, k=3, mlp_hidden=16,
                          mlp_layers=2, dropout_rate=dropout, rng=rng)
    return EigenModel(enc, head, "graph_level")


def test_full_model_gradient_check():
    rng = np.random.default_rng(7)
    g = generate_graph("erdos_renyi", {"n": 8, "p": 0.5}, seed=5)
    x = rng.standard_normal((8, 4))
    lap = build_laplacian(g)
    lam, _ = lowest_k(eigendecompose(lap), 3)
    model = build_small_model()
    weights = LossWeights(1.0, 2.0, 0.0)

    def loss_tensor():
        u = model.forward([g], [ad.constant(x)], training=False)[0]
        return combined_loss_t(orthonormalize(u), lap, lam, weights)

    out = loss_tensor()
    out.backward()
    sampler = np.random.default_rng(8)
    worst = 0.0
    for name, p in model.parameters().items():
        flat = p.values.ravel()
        gflat = p.grad.ravel()
        count = min(4, flat.size)
        for i in sampler.choice(flat.size, size=count, replace=False):
            orig = flat[i]
            flat[i] = orig + 1e-5
            up = loss_tensor().item()
            flat[i] = orig - 1e-5
            down = loss_tensor().item()
            flat[i] = orig
            numeric = (up - down) / 2e-5
            denom = max(abs(numeric), abs(gflat[i]), 1e-6)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    assert worst <= 1e-3


def test_batched_step_gradient_check():
    # the summed loss of one mini-batch of mixed-size graphs, as a training
    # step back-propagates it
    rng = np.random.default_rng(9)
    graphs = [generate_graph("erdos_renyi", {"n": n, "p": 0.6}, seed=s)
              for n, s in ((6, 1), (9, 2), (4, 3))]
    xs = [rng.standard_normal((g.num_nodes, 4)) for g in graphs]
    targets = []
    for g in graphs:
        lap = build_laplacian(g)
        targets.append((lap, lowest_k(eigendecompose(lap), 3)[0]))
    model = build_small_model()
    weights = LossWeights(1.0, 2.0, 0.5)

    def loss_tensor():
        outputs = model.forward(graphs, [ad.constant(x) for x in xs])
        total = None
        for u, (lap, lam) in zip(outputs, targets):
            term = combined_loss_t(orthonormalize(u), lap, lam, weights)
            total = term if total is None else ad.add(total, term)
        return total

    loss_tensor().backward()
    sampler = np.random.default_rng(10)
    worst = 0.0
    for p in model.parameters().values():
        flat = p.values.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in sampler.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + 1e-5
            up = loss_tensor().item()
            flat[i] = orig - 1e-5
            down = loss_tensor().item()
            flat[i] = orig
            numeric = (up - down) / 2e-5
            worst = max(worst, abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-6))
    assert worst <= 1e-3


def test_eval_mode_deterministic_even_with_dropout_configured():
    g = generate_graph("cycle", {"n": 6})
    x = np.random.default_rng(1).standard_normal((6, 4))
    model = build_small_model(dropout=0.4)
    a = model.predict(g, x)
    b = model.predict(g, x)
    assert np.array_equal(a, b)


def test_training_mode_dropout_changes_outputs():
    g = generate_graph("cycle", {"n": 6})
    x = np.random.default_rng(1).standard_normal((6, 4))
    model = build_small_model(dropout=0.4)
    rng = np.random.default_rng(2)
    a = model.forward([g], [ad.constant(x)], training=True, rng=rng)[0].values
    b = model.forward([g], [ad.constant(x)], training=True, rng=rng)[0].values
    assert not np.array_equal(a, b)


def test_parameter_names_are_stable_and_unique():
    model = build_small_model()
    names = list(model.parameters())
    assert len(names) == len(set(names))
    assert names == list(build_small_model().parameters())
    assert any(n.startswith("encoder.layer0.") for n in names)
    assert any(n.startswith("head.mlp.") for n in names)
