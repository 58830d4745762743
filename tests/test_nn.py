import numpy as np
import pytest

from eigenlearn import autodiff as ad
from eigenlearn.eigen import eigendecompose, lowest_k
from eigenlearn.errors import GraphTooLarge, RankDeficient, ShapeMismatch
from eigenlearn.graphs import (Graph, build_adjacency, build_laplacian, generate_graph,
                               permute_graph)
from eigenlearn.losses import LossWeights
from eigenlearn.nn import (RANK_TOL, EigenModel, GinEncoder, GinLayer, GraphLevelHead,
                           Mlp, NodeWiseHead, abs_cos_mae_loss_t, combined_loss_t,
                           glorot_uniform, mae_loss_t, orthonormalize)
from eigenlearn import losses
from eigenlearn.train import pad_stack
from helpers import (dense_reference, gin_aggregate_reference, laid_out, max_rel_error,
                     numeric_gradient, project, recorded_ops, slice_rows, sum_neighbors)


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 30, 10)
    limit = np.sqrt(6.0 / 40.0)
    assert w.shape == (30, 10)
    assert np.max(np.abs(w)) <= limit


# --- MLP / GIN ---

def test_mlp_zero_weights_outputs_bias():
    mlp = laid_out(Mlp([3, 2]), np.random.default_rng(0))
    mlp.weights[0].values[:] = 0.0
    mlp.biases[0].values[:] = [1.5, -2.0]
    out = mlp.forward(ad.constant(np.random.default_rng(1).standard_normal((4, 3))))
    assert np.allclose(out.values, np.tile([1.5, -2.0], (4, 1)))


def identity_gin_layer(dim):
    """Single affine 'MLP' wired to the identity so the layer output equals
    its pre-activation aggregate."""
    layer = laid_out(GinLayer(dim, dim, update_layers=1, dropout_rate=0.0),
                     np.random.default_rng(0))
    layer.update_mlp.weights[0].values = np.eye(dim)
    layer.update_mlp.biases[0].values[:] = 0.0
    return layer


def test_gin_layer_k2_hand_evaluation():
    g = generate_graph("complete", {"n": 2})
    x = np.array([[1.0, 2.0], [10.0, 20.0]])
    layer = identity_gin_layer(2)
    out = layer.forward(ad.constant(x), build_adjacency(g))
    # eps = 0: each node maps to x_self + x_neighbor
    assert np.allclose(out.values, [[11.0, 22.0], [11.0, 22.0]])


def test_gin_layer_eps_scales_self_term():
    g = generate_graph("complete", {"n": 2})
    x = np.array([[1.0], [3.0]])
    layer = identity_gin_layer(1)
    layer.eps.values = np.array(0.5)
    out = layer.forward(ad.constant(x), build_adjacency(g))
    assert np.allclose(out.values, [[1.5 * 1 + 3], [1.5 * 3 + 1]])


def test_gin_no_edges_means_no_mixing():
    g = Graph(3, ())
    x = np.diag([1.0, 2.0, 3.0])
    layer = identity_gin_layer(3)
    out = layer.forward(ad.constant(x), np.zeros((3, 3)))
    assert np.allclose(out.values, x)


@pytest.mark.parametrize("training", [False, True])
def test_gin_layer_is_one_op_per_step_and_matches_the_small_ops(training):
    # the layer as the small ops built it: sum_neighbors, mul and add for the
    # aggregation, then matmul, add, relu and dropout per hidden MLP layer
    layer = laid_out(GinLayer(3, 5, update_layers=3, dropout_rate=0.3),
                     np.random.default_rng(4))
    layer.eps.values[...] = 0.25
    data = np.random.default_rng(5)
    a = np.triu((data.random((2, 4, 4)) < 0.5).astype(float), 1)
    adjacency = a + np.swapaxes(a, 1, 2)
    x = ad.parameter(data.standard_normal((8, 3)))
    seed = data.standard_normal((8, 5))

    def grads():
        out = [t.grad for t in [x, *layer.parameters().values()]]
        for t in [x, *layer.parameters().values()]:
            t.grad = None
        return out

    rng = np.random.default_rng(6)
    fused = layer.forward(x, adjacency, rng if training else None)
    fused.backward(seed)
    fused_grads = grads()
    reference_rng = np.random.default_rng(6)
    mlp = layer.update_mlp
    h = gin_aggregate_reference(x, layer.eps, adjacency)
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        hidden = i < len(mlp.weights) - 1
        h = dense_reference(h, w, b, hidden, 0.3 if training and hidden else 0.0, reference_rng)
    h.backward(seed)
    assert np.array_equal(fused.values, h.values)
    assert all(np.array_equal(f, r) for f, r in zip(fused_grads, grads()))
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert recorded_ops(fused) == 1 + len(mlp.weights)


def test_gin_encoder_permutation_equivariance():
    rng = np.random.default_rng(5)
    g = generate_graph("erdos_renyi", {"n": 7, "p": 0.5}, seed=2)
    x = rng.standard_normal((7, 4))
    enc = laid_out(GinEncoder(4, 6, mp_layers=2, update_layers=2, dropout_rate=0.0,
                              max_nodes=7), np.random.default_rng(1))
    out = enc.forward([build_adjacency(g)], [x]).values
    perm = list(rng.permutation(7))
    gp = permute_graph(g, perm)
    xp = np.empty_like(x)
    for old, new in enumerate(perm):
        xp[new] = x[old]
    outp = enc.forward([build_adjacency(gp)], [xp]).values
    for old, new in enumerate(perm):
        assert np.allclose(outp[new], out[old], atol=1e-12)


# --- heads ---

def padded(zs, max_nodes):
    """The encoder's layout of a batch: each (n_i, d) block zero-padded to
    max_nodes rows, stacked into one constant."""
    out = np.zeros((len(zs) * max_nodes, zs[0].shape[1]))
    for i, z in enumerate(zs):
        out[i * max_nodes:i * max_nodes + len(z)] = z
    return ad.constant(out)


def make_graph_head(**kw):
    args = dict(max_nodes=5, d_hidden=3, k=2, mlp_hidden=8, mlp_layers=2,
                dropout_rate=0.0)
    args.update(kw)
    return laid_out(GraphLevelHead(**args), np.random.default_rng(3))


def test_graph_level_head_shapes():
    head = make_graph_head()
    z = np.random.default_rng(0).standard_normal((3, 3))
    out = head.forward(padded([z], 5), [3])
    assert out.shape == (1, 5, 2)
    assert np.all(out.values[0, 3:] == 0.0)  # phantom rows
    assert head.mlp.dims[0] == 15 and head.mlp.dims[-1] == 10


def test_graph_level_head_boundary_no_padding():
    head = make_graph_head()
    z = np.random.default_rng(1).standard_normal((5, 3))
    assert head.forward(ad.constant(z), [5]).shape == (1, 5, 2)


def test_graph_level_head_rejects_a_batch_of_another_node_budget():
    head = make_graph_head()
    with pytest.raises(ShapeMismatch):
        head.forward(padded([np.zeros((3, 3))], 6), [3])


def test_encoder_rejects_oversize():
    enc = laid_out(GinEncoder(2, 3, mp_layers=1, update_layers=1, dropout_rate=0.0,
                              max_nodes=5), np.random.default_rng(0))
    with pytest.raises(GraphTooLarge):
        enc.forward([build_adjacency(generate_graph("path", {"n": 6}))], [np.zeros((6, 2))])


def test_encoder_rejects_features_of_the_wrong_shape():
    enc = laid_out(GinEncoder(2, 3, mp_layers=1, update_layers=1, dropout_rate=0.0,
                              max_nodes=5), np.random.default_rng(0))
    with pytest.raises(ShapeMismatch):
        enc.forward([build_adjacency(generate_graph("path", {"n": 4}))], [np.zeros((4, 3))])


def test_encoder_rejects_an_adjacency_that_is_not_square():
    enc = laid_out(GinEncoder(2, 3, mp_layers=1, update_layers=1, dropout_rate=0.0,
                              max_nodes=5), np.random.default_rng(0))
    with pytest.raises(ShapeMismatch, match="not square"):
        enc.forward([np.zeros((4, 3))], [np.zeros((4, 2))])


def test_graph_level_head_reference_dims():
    # hidden 60, 40-node budget, 6 eigenvectors: 2400 -> ... -> 240
    head = laid_out(GraphLevelHead(max_nodes=40, d_hidden=60, k=6, mlp_hidden=2400,
                                   mlp_layers=2, dropout_rate=0.0), np.random.default_rng(0))
    assert head.mlp.dims[0] == 2400
    assert head.mlp.dims[-1] == 240
    z = np.zeros((3, 60))
    assert head.forward(padded([z], 40), [3]).shape == (1, 40, 6)


def test_graph_level_head_is_order_sensitive():
    # deliberate design property: the flattened representation depends on node
    # order, so permuting inputs must NOT permute outputs in general
    head = make_graph_head()
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 3))
    out = head.forward(padded([z], 5), [4]).values[0, :4]
    zp = z[::-1].copy()
    outp = head.forward(padded([zp], 5), [4]).values[0, :4]
    assert not np.allclose(outp, out[::-1], atol=1e-6)


def test_node_wise_head_row_independence():
    head = laid_out(NodeWiseHead(d_hidden=3, k=2, mlp_hidden=8, mlp_layers=2,
                                 dropout_rate=0.0), np.random.default_rng(4))
    rng = np.random.default_rng(5)
    z = rng.standard_normal((4, 3))
    out = head.forward(ad.constant(z), [4]).values[0]
    # duplicating a row duplicates its output
    z2 = np.vstack([z, z[1]])
    out2 = head.forward(ad.constant(z2), [5]).values[0]
    assert np.allclose(out2[-1], out[1])
    # permuting rows permutes outputs
    perm = [2, 0, 3, 1]
    out3 = head.forward(ad.constant(z[perm]), [4]).values[0]
    assert np.allclose(out3, out[perm])


def batch_of_mixed_sizes(d, sizes=(3, 5, 1, 4), seed=6):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, d)) for n in sizes]


@pytest.mark.parametrize("make_head", [
    lambda: make_graph_head(),
    lambda: laid_out(NodeWiseHead(d_hidden=3, k=2, mlp_hidden=8, mlp_layers=3,
                                  dropout_rate=0.0), np.random.default_rng(4)),
], ids=["graph_level", "node_wise"])
def test_batched_head_matches_batch_of_one(make_head):
    head = make_head()
    zs = batch_of_mixed_sizes(3)
    sizes = [len(z) for z in zs]
    batched = head.forward(padded(zs, 5), sizes)
    assert batched.shape == (len(sizes), 5, 2)
    for z, u in zip(zs, batched.values):
        alone = head.forward(padded([z], 5), [len(z)]).values[0]
        assert np.max(np.abs(u - alone)) <= 1e-12
        assert np.all(u[len(z):] == 0.0)


def test_graph_level_head_phantom_rows_never_reach_the_loss():
    # the widest graph has 4 of the 5 node slots: the output columns of the
    # fifth (phantom) slot must get exactly zero gradient from any loss
    head = make_graph_head()
    z = ad.parameter(padded(batch_of_mixed_sizes(3, sizes=(2, 4, 3)), 5).values)
    out = head.forward(z, [2, 4, 3])
    project(out).backward()
    out_w, out_b = head.mlp.weights[-1], head.mlp.biases[-1]
    assert np.all(out_w.grad[:, 4 * head.k:] == 0.0)
    assert np.all(out_b.grad[4 * head.k:] == 0.0)
    assert np.any(out_w.grad[:, :4 * head.k] != 0.0)


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


def mgs_reference(u):
    """Modified Gram-Schmidt, the orthonormalization the QR op replaced: the
    reference it is pinned against."""
    columns = []
    for j in range(u.shape[1]):
        v = u[:, j].copy()
        for q in columns:
            v -= q * (q @ v)
        norm = np.linalg.norm(v)
        if norm < RANK_TOL:
            raise RankDeficient(j)
        columns.append(v / norm)
    return np.column_stack(columns)


@pytest.mark.parametrize("k", range(1, 7))
def test_qr_orthonormalize_matches_gram_schmidt(k):
    rng = np.random.default_rng(40 + k)
    for _ in range(50):
        u = rng.standard_normal((int(rng.integers(k, 20)), k))
        q = orthonormalize(ad.constant(u)).values
        assert np.max(np.abs(q - mgs_reference(u))) <= 1e-12


@pytest.mark.parametrize("collapsed", [0, 1, 3])
def test_qr_and_gram_schmidt_report_the_same_collapsed_column(collapsed):
    rng = np.random.default_rng(collapsed)
    u = rng.standard_normal((8, 4))
    # column `collapsed` is a combination of the columns before it (or zero)
    u[:, collapsed] = u[:, :collapsed] @ rng.standard_normal(collapsed)
    with pytest.raises(RankDeficient) as reference:
        mgs_reference(u)
    with pytest.raises(RankDeficient) as ours:
        orthonormalize(ad.constant(u))
    assert ours.value.column_index == reference.value.column_index == collapsed


def check_gradient(build, array, tol=1e-6):
    """build(tensor) -> scalar Tensor; its gradient against central finite
    differences."""
    t = ad.parameter(array)
    build(t).backward()
    numeric = numeric_gradient(lambda: build(ad.constant(array)).item(), array)
    assert max_rel_error(t.grad, numeric) <= tol


@pytest.mark.parametrize("shape", [(5, 1), (6, 3), (9, 6), (4, 4)])
def test_qr_op_gradient_vs_finite_differences(shape):
    rng = np.random.default_rng(shape[1])
    u = rng.standard_normal(shape)
    check_gradient(lambda x: project(orthonormalize(x), seed=7), u)


# the energy, eigenvector and orthogonality terms reach the tape only inside
# the combined loss op: with one weight set, the op is that term alone
ENERGY_ONLY = LossWeights(1.0, 0.0, 0.0)
EIGVEC_ONLY = LossWeights(0.0, 1.0, 0.0)
ORTHO_ONLY = LossWeights(0.0, 0.0, 1.0)


def loss_fixture(seed=11, n=8, k=3):
    rng = np.random.default_rng(seed)
    g = generate_graph("erdos_renyi", {"n": n, "p": 0.5}, seed=seed)
    lap = build_laplacian(build_adjacency(g))
    lam, psi = lowest_k(eigendecompose(lap), k)
    return rng.standard_normal((n, k)), lap, lam, psi


@pytest.mark.parametrize("name", ["energy", "eigvec", "ortho", "combined", "abs_cos",
                                  "abs_cos_zero_target_column", "mae"])
def test_loss_op_gradient_vs_finite_differences(name):
    u, lap, lam, psi = loss_fixture()
    if name == "abs_cos_zero_target_column":
        psi = psi.copy()
        psi[:, 1] = 0.0
    build = {
        "energy": lambda x: combined_loss_t(x, lap, lam, ENERGY_ONLY),
        "eigvec": lambda x: combined_loss_t(x, lap, lam, EIGVEC_ONLY),
        "ortho": lambda x: combined_loss_t(x, lap, lam, ORTHO_ONLY),
        "combined": lambda x: combined_loss_t(x, lap, lam, LossWeights(1.0, 2.0, 0.5)),
        "abs_cos": lambda x: abs_cos_mae_loss_t(x, psi),
        "abs_cos_zero_target_column": lambda x: abs_cos_mae_loss_t(x, psi),
        "mae": lambda x: mae_loss_t(x, psi),
    }[name]
    check_gradient(build, u)
    assert build(ad.constant(u)).shape == ()


def test_abs_cos_zero_prediction_column_takes_penalty_one_without_direction():
    u, _, _, psi = loss_fixture()
    u[:, 2] = 0.0
    t = ad.parameter(u)
    loss = abs_cos_mae_loss_t(t, psi)
    loss.backward()
    mae = np.mean(np.abs(psi[:, 2]))
    others = losses.abs_cos_mae_loss(u[:, :2], psi[:, :2]) * 2
    assert loss.item() == pytest.approx((others + mae + 1.0) / 3, rel=1e-12)
    assert np.all(t.grad[:, 2] == 0.0)  # np.sign(0) = 0, and no cosine direction


def test_sum_neighbors_over_a_block_adjacency():
    rng = np.random.default_rng(12)
    blocks = []
    for _ in range(3):
        a = np.triu((rng.random((4, 4)) < 0.5).astype(float), 1)
        blocks.append(a + a.T)
    adjacency = np.stack(blocks)
    x = rng.standard_normal((12, 2))
    out = sum_neighbors(ad.constant(x), adjacency).values
    for i, block in enumerate(blocks):
        alone = sum_neighbors(ad.constant(x[4 * i:4 * i + 4]), block).values
        assert np.array_equal(out[4 * i:4 * i + 4], alone)
    check_gradient(lambda t: project(sum_neighbors(t, adjacency), seed=12), x)
    with pytest.raises(ShapeMismatch):
        sum_neighbors(ad.constant(np.zeros((10, 2))), adjacency)


# --- tape losses agree with the numpy forms ---

def test_tape_losses_match_numpy_losses():
    rng = np.random.default_rng(3)
    g = generate_graph("erdos_renyi", {"n": 8, "p": 0.5}, seed=1)
    lap = build_laplacian(build_adjacency(g))
    lam, psi = lowest_k(eigendecompose(lap), 3)
    u = rng.standard_normal((8, 3))
    t = ad.constant(u)
    for weights, term in ((ENERGY_ONLY, losses.energy_loss(u, lap)),
                          (EIGVEC_ONLY, losses.eigvec_loss(u, lap, lam)),
                          (ORTHO_ONLY, losses.ortho_loss(u))):
        assert abs(combined_loss_t(t, lap, lam, weights).item() - term) <= 1e-12
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
    enc = laid_out(GinEncoder(4, 8, mp_layers=2, update_layers=2, dropout_rate=dropout,
                              max_nodes=10), rng)
    head = laid_out(GraphLevelHead(max_nodes=10, d_hidden=8, k=3, mlp_hidden=16,
                                   mlp_layers=2, dropout_rate=dropout), rng)
    return EigenModel(enc, head)


def test_full_model_gradient_check():
    rng = np.random.default_rng(7)
    g = generate_graph("erdos_renyi", {"n": 8, "p": 0.5}, seed=5)
    x = rng.standard_normal((8, 4))
    lap = build_laplacian(build_adjacency(g))
    lam, _ = lowest_k(eigendecompose(lap), 3)
    model = build_small_model()
    weights = LossWeights(1.0, 2.0, 0.0)

    def loss_tensor():
        u = model.forward([build_adjacency(g)], [ad.constant(x)])
        return combined_loss_t(orthonormalize(u), pad_stack([lap], (10, 10)), lam[None], weights)

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
    laps = [build_laplacian(build_adjacency(g)) for g in graphs]
    lams = np.stack([lowest_k(eigendecompose(lap), 3)[0] for lap in laps])
    laps = pad_stack(laps, (10, 10))
    model = build_small_model()
    weights = LossWeights(1.0, 2.0, 0.5)

    def loss_tensor():
        outputs = model.forward(adjacencies(graphs), [ad.constant(x) for x in xs])
        return combined_loss_t(orthonormalize(outputs), laps, lams, weights)

    loss_tensor().backward(np.ones(len(graphs)))
    sampler = np.random.default_rng(10)
    worst = 0.0
    for p in model.parameters().values():
        flat = p.values.reshape(-1)
        gflat = p.grad.reshape(-1)
        for i in sampler.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + 1e-5
            up = loss_tensor().values.sum()
            flat[i] = orig - 1e-5
            down = loss_tensor().values.sum()
            flat[i] = orig
            numeric = (up - down) / 2e-5
            worst = max(worst, abs(numeric - gflat[i]) / max(abs(numeric), abs(gflat[i]), 1e-6))
    assert worst <= 1e-3


def adjacencies(graphs):
    return [build_adjacency(g) for g in graphs]


def mixed_batch(seed=13, sizes=(7, 3, 10, 5)):
    rng = np.random.default_rng(seed)
    graphs = [generate_graph("erdos_renyi", {"n": n, "p": 0.6}, seed=seed + n) for n in sizes]
    return graphs, [rng.standard_normal((g.num_nodes, 4)) for g in graphs]


def build_small_node_wise_model(seed=0):
    rng = np.random.default_rng(seed)
    enc = laid_out(GinEncoder(4, 8, mp_layers=2, update_layers=2, dropout_rate=0.0,
                              max_nodes=10), rng)
    head = laid_out(NodeWiseHead(d_hidden=8, k=3, mlp_hidden=16, mlp_layers=2,
                                 dropout_rate=0.0), rng)
    return EigenModel(enc, head)


@pytest.mark.parametrize("build", [build_small_model, build_small_node_wise_model],
                         ids=["graph_level", "node_wise"])
def test_padded_batch_matches_batch_of_one(build):
    # the padded batch gives every graph the output and the parameter
    # gradient it gets alone: phantom rows reach neither
    model = build()
    graphs, xs = mixed_batch()
    # weights on the phantom rows too: those rows must still contribute nothing
    weights = [np.random.default_rng(i).standard_normal((1, 10, 3)) for i in range(len(graphs))]

    def loss_and_grads(gs, fs, ws):
        weighted = ad.mul(model.forward(adjacencies(gs), fs), ad.constant(np.concatenate(ws)))
        weighted.backward(np.ones(weighted.shape))
        grads = {n: p.grad.copy() for n, p in model.parameters().items()}
        for p in model.parameters().values():
            p.grad = None
        return weighted.values.sum(), grads

    batched = model.forward(adjacencies(graphs), xs)
    batch_loss, batch_grads = loss_and_grads(graphs, xs, weights)
    alone_loss = 0.0
    alone_grads = {n: 0.0 for n in batch_grads}
    for g, x, w, u in zip(graphs, xs, weights, batched.values):
        assert np.max(np.abs(u - model.forward([build_adjacency(g)], [x]).values[0])) <= 1e-12
        loss, grads = loss_and_grads([g], [x], [w])
        alone_loss += loss
        alone_grads = {n: alone_grads[n] + grads[n] for n in grads}
    assert batch_loss == pytest.approx(alone_loss, rel=1e-12)
    for n, grad in batch_grads.items():
        assert np.max(np.abs(grad - alone_grads[n])) <= 1e-12 * max(1.0, np.max(np.abs(grad)))


def test_encoder_phantom_rows_are_zero_and_get_zero_gradient():
    model = build_small_model()
    graphs, xs = mixed_batch()
    z = model.encoder.forward(adjacencies(graphs), xs)
    masked_input = z._parents[0]  # the last layer's output, before the node mask
    out = model.head.forward(z, [g.num_nodes for g in graphs])
    project(out).backward()
    for i, g in enumerate(graphs):
        phantom = slice(i * 10 + g.num_nodes, (i + 1) * 10)
        assert np.all(z.values[phantom] == 0.0)
        assert np.all(masked_input.grad[phantom] == 0.0)
        assert np.any(masked_input.grad[i * 10:i * 10 + g.num_nodes] != 0.0)


def test_predict_batch_matches_predict():
    model = build_small_model()
    graphs, xs = mixed_batch()
    for u, g, x in zip(model.predict_batch(adjacencies(graphs), xs), graphs, xs):
        assert np.max(np.abs(u[:g.num_nodes] - model.predict(g, x))) <= 1e-12
        assert np.all(u[g.num_nodes:] == 0.0)


def test_predict_rejects_a_graph_with_fewer_nodes_than_k():
    # the padded stack has max_nodes >= k rows, so the model, not the QR,
    # must reject a graph that cannot hold k orthonormal columns
    model = build_small_model()
    g = generate_graph("path", {"n": 2})
    with pytest.raises(ShapeMismatch, match="need n >= k to orthonormalize, got 2 x 3"):
        model.predict(g, np.ones((2, 4)))
    graphs, xs = mixed_batch()
    with pytest.raises(ShapeMismatch, match="got 2 x 3"):
        model.predict_batch(adjacencies(graphs + [g]), xs + [np.ones((2, 4))])
    with pytest.raises(ShapeMismatch, match="empty batch"):
        model.predict_batch([], [])


def test_eval_mode_deterministic_even_with_dropout_configured():
    g = generate_graph("cycle", {"n": 6})
    x = np.random.default_rng(1).standard_normal((6, 4))
    model = build_small_model(dropout=0.4)
    a = model.predict(g, x)
    b = model.predict(g, x)
    assert np.array_equal(a, b)
    # the mode is the generator: a forward without one drops nothing
    a = model.forward([build_adjacency(g)], [ad.constant(x)]).values
    b = model.forward([build_adjacency(g)], [ad.constant(x)]).values
    assert np.array_equal(a, b)
    # a generator given to a pass in which no layer drops out is not drawn from
    single = laid_out(Mlp([4, 3], dropout_rate=0.4), np.random.default_rng(3))
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    out = single.forward(ad.constant(x), rng).values
    assert rng.bit_generator.state == before
    assert np.array_equal(out, single.forward(ad.constant(x)).values)


def test_training_mode_dropout_changes_outputs():
    g = generate_graph("cycle", {"n": 6})
    x = np.random.default_rng(1).standard_normal((6, 4))
    model = build_small_model(dropout=0.4)
    rng = np.random.default_rng(2)
    a = model.forward([build_adjacency(g)], [ad.constant(x)], rng=rng).values
    b = model.forward([build_adjacency(g)], [ad.constant(x)], rng=rng).values
    assert not np.array_equal(a, b)


def test_parameter_names_are_stable_and_unique():
    model = build_small_model()
    names = list(model.parameters())
    assert len(names) == len(set(names))
    assert names == list(build_small_model().parameters())
    assert any(n.startswith("encoder.layer0.") for n in names)
    assert any(n.startswith("head.mlp.") for n in names)


# --- the padded (B, max_nodes, k) stack: one QR op and one loss op per batch ---

def padded_stack(sizes=(7, 3, 10, 5), m=10, k=3, seed=31):
    """A random (B, m, k) stack, zero past each graph's size, and targets
    padded alike: (stack, laplacians, eigenvalues, eigenvectors, sizes)."""
    rng = np.random.default_rng(seed)
    u, laps, psis, lams = np.zeros((len(sizes), m, k)), [], [], []
    for i, n in enumerate(sizes):
        u[i, :n] = rng.standard_normal((n, k))
        g = generate_graph("erdos_renyi", {"n": n, "p": 0.6}, seed=seed + i)
        lap = build_laplacian(build_adjacency(g))
        lam, psi = lowest_k(eigendecompose(lap), k)
        laps.append(lap)
        lams.append(lam)
        psis.append(psi)
    return (u, pad_stack(laps, (m, m)), np.stack(lams), pad_stack(psis, (m, k)),
            np.array(sizes))


STACK_LOSS_OPS = {
    "energy": lambda q, lap, lam, psi, sizes: combined_loss_t(q, lap, lam, ENERGY_ONLY),
    "eigvec": lambda q, lap, lam, psi, sizes: combined_loss_t(q, lap, lam, EIGVEC_ONLY),
    "ortho": lambda q, lap, lam, psi, sizes: combined_loss_t(q, lap, lam, ORTHO_ONLY),
    "combined": lambda q, lap, lam, psi, sizes: combined_loss_t(q, lap, lam,
                                                                LossWeights(1.0, 2.0, 0.5)),
    "abs_cos": lambda q, lap, lam, psi, sizes: abs_cos_mae_loss_t(q, psi, sizes),
    "mae": lambda q, lap, lam, psi, sizes: mae_loss_t(q, psi),
}


def test_stacked_qr_matches_each_graph_alone():
    u, *_ = padded_stack()
    q = orthonormalize(ad.constant(u)).values
    for block, alone, n in zip(q, u, (7, 3, 10, 5)):
        assert np.max(np.abs(block[:n] - orthonormalize(ad.constant(alone[:n])).values)) <= 1e-12
        assert np.all(block[n:] == 0.0)


def test_stacked_qr_gradient_vs_finite_differences():
    u, *_ = padded_stack()
    # the projection weighs the phantom rows too
    check_gradient(lambda x: project(orthonormalize(x), seed=32), u)


@pytest.mark.parametrize("name", sorted(STACK_LOSS_OPS))
def test_stacked_loss_op_gradient_vs_finite_differences(name):
    u, lap, lam, psi, sizes = padded_stack()
    # a fixed random projection of the per-graph values, so each graph's
    # block of the gradient is checked with its own scale
    check_gradient(lambda x: project(STACK_LOSS_OPS[name](x, lap, lam, psi, sizes), seed=33), u)


@pytest.mark.parametrize("name", sorted(STACK_LOSS_OPS))
def test_q_phantom_rows_and_their_gradients_are_exactly_zero(name):
    u, lap, lam, psi, sizes = padded_stack()
    t = ad.parameter(u)
    q = orthonormalize(t)
    STACK_LOSS_OPS[name](q, lap, lam, psi, sizes).backward(np.ones(len(sizes)))
    for i, n in enumerate(sizes):
        assert np.all(q.values[i, n:] == 0.0)
        assert np.all(q.grad[i, n:] == 0.0)
        assert np.all(t.grad[i, n:] == 0.0)


def test_stacked_qr_names_the_first_rank_deficient_graph():
    u, *_ = padded_stack()
    u[2, :, 1] = 3.0 * u[2, :, 0]  # the third graph's column 1 collapses
    u[3, :, 2] = 0.0  # a later graph's too: the first in batch order is reported
    with pytest.raises(RankDeficient) as exc:
        orthonormalize(ad.constant(u))
    assert (exc.value.graph_index, exc.value.column_index) == (2, 1)
    assert "column 1 of graph 2" in str(exc.value)


@pytest.mark.parametrize("build", [build_small_model, build_small_node_wise_model],
                         ids=["graph_level", "node_wise"])
@pytest.mark.parametrize("loss_name", ["combined", "abs_cos"])
def test_batched_training_loss_matches_the_per_graph_path(build, loss_name):
    # the per-graph reference: each graph alone, its (n, k) rows out of a
    # batch of one, a 2-D QR op and a 2-D loss op, summed over the batch
    model = build()
    graphs, xs = mixed_batch(seed=15)  # every graph's output has full column rank
    sizes = [g.num_nodes for g in graphs]
    assert sizes == [7, 3, 10, 5]
    laps = [build_laplacian(build_adjacency(g)) for g in graphs]
    spectra = [lowest_k(eigendecompose(lap), 3) for lap in laps]
    weights = LossWeights(1.0, 2.0, 0.5)

    def loss_op(q, lap, lam, psi, n):
        if loss_name == "combined":
            return combined_loss_t(q, lap, lam, weights)
        return abs_cos_mae_loss_t(q, psi, n)

    def grads():
        out = {n: p.grad.copy() for n, p in model.parameters().items()}
        for p in model.parameters().values():
            p.grad = None
        return out

    batched = loss_op(orthonormalize(model.forward(adjacencies(graphs), xs)),
                      pad_stack(laps, (10, 10)),
                      np.stack([lam for lam, _ in spectra]),
                      pad_stack([psi for _, psi in spectra], (10, 3)), sizes)
    batched.backward(np.ones(len(graphs)))
    batched_grads = grads()
    total = None
    for i, (g, x, lap, (lam, psi)) in enumerate(zip(graphs, xs, laps, spectra)):
        rows = slice_rows(ad.reshape(model.forward([build_adjacency(g)], [x]), (10, 3)),
                          0, g.num_nodes)
        term = loss_op(orthonormalize(rows), lap, lam, psi, None)
        assert abs(batched.values[i] - term.item()) <= 1e-12 * max(1.0, abs(term.item()))
        total = term if total is None else ad.add(total, term)
    total.backward()
    for name, grad in grads().items():
        scale = max(1.0, np.max(np.abs(grad)))
        assert np.max(np.abs(batched_grads[name] - grad)) <= 1e-12 * scale, name
