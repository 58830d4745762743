import gc
import math
import weakref

import numpy as np
import pytest

from eigenlearn import autodiff as ad
from eigenlearn import nn, optim
from eigenlearn import train as tr
from eigenlearn.optim import Adam, ReduceLROnPlateau


def make_param(values):
    return ad.parameter(np.asarray(values, dtype=np.float64))


def test_zero_gradient_is_a_fixed_point():
    p = make_param([1.0, -2.0])
    opt = Adam({"p": p})
    p.accumulate_grad(np.zeros(2))
    before = p.values.copy()
    opt.step()
    assert np.array_equal(p.values, before)


@pytest.mark.parametrize("give_b_a_gradient", [
    lambda p: None,
    lambda p: setattr(p, "grad", np.ones(p.shape)),
], ids=["none", "set_by_hand"])
def test_a_step_fails_in_one_line_and_changes_nothing_without_every_gradient_in_its_slot(
        give_b_a_gradient):
    params = {"a": make_param([1.0, 2.0]), "b": make_param([3.0])}
    opt = Adam(params)
    params["a"].accumulate_grad(np.array([0.5, -0.5]))
    give_b_a_gradient(params["b"])
    with pytest.raises(ValueError, match=r"^Adam\.step: parameter 'b' has no gradient in its "
                                         r"slot[^\n]*$"):
        opt.step()
    assert params["a"].values.tolist() == [1.0, 2.0] and params["b"].values.tolist() == [3.0]
    assert opt.t == 0 and not opt.flat_m.any() and not opt.flat_v.any()
    assert opt.flat_grad.tolist() == [0.5, -0.5, 0.0]


def test_first_step_closed_form():
    # bias-corrected first step moves by lr * g / (|g| + eps)
    g = np.array([0.3, -4.0])
    p = make_param([0.0, 0.0])
    opt = Adam({"p": p}, lr=0.01)
    p.accumulate_grad(g)
    opt.step()
    expected = -0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.values, expected, atol=1e-12)


def test_grad_scale_averages_accumulated_gradients():
    p1 = make_param([0.0])
    p2 = make_param([0.0])
    opt1 = Adam({"p": p1}, lr=0.5)
    opt2 = Adam({"p": p2}, lr=0.5)
    p1.accumulate_grad(np.array([4.0]))
    opt1.step(grad_scale=0.25)
    p2.accumulate_grad(np.array([1.0]))
    opt2.step()
    assert np.allclose(p1.values, p2.values)


def reference_adam_step(params, grads, m, v, t, lr, grad_scale,
                        beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place folded Adam update (Kingma and Ba, section 2) the
    in-place step must reproduce bit for bit."""
    root2 = math.sqrt(1.0 - beta2 ** t)
    lr_t = lr * root2 / (1.0 - beta1 ** t)
    eps_t = eps * root2
    a1 = (1.0 - beta1) * grad_scale
    a2 = (1.0 - beta2) * grad_scale ** 2
    for name in params:
        g = grads[name]
        m[name] = beta1 * m[name] + a1 * g
        v[name] = beta2 * v[name] + a2 * (g * g)
        params[name] = params[name] - lr_t * m[name] / (np.sqrt(v[name]) + eps_t)


def textbook_adam_step(params, grads, m, v, t, lr, grad_scale,
                       beta1=0.9, beta2=0.999, eps=1e-8):
    """Algorithm 1 of Kingma and Ba as written, with explicit bias correction."""
    correct1 = 1.0 - beta1 ** t
    correct2 = 1.0 - beta2 ** t
    for name in params:
        g = grads[name] * grad_scale
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        m_hat = m[name] / correct1
        v_hat = v[name] / correct2
        params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)


def test_folded_step_stays_within_rounding_of_the_textbook_update():
    rng = np.random.default_rng(7)
    shapes = {"w": (40, 50), "b": (50,)}
    values = {name: rng.standard_normal(shape) * 3.0 for name, shape in shapes.items()}
    folded, textbook = dict(values), dict(values)
    moments = [{name: np.zeros(shape) for name, shape in shapes.items()} for _ in range(4)]
    for t in range(1, 61):
        # gradients across twelve orders of magnitude, some exactly zero
        grads = {name: rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 4, shape)
                 * (rng.random(shape) > 0.05) for name, shape in shapes.items()}
        reference_adam_step(folded, grads, *moments[:2], t, lr=0.01, grad_scale=0.3)
        textbook_adam_step(textbook, grads, *moments[2:], t, lr=0.01, grad_scale=0.3)
        for a, b in ((folded, textbook), *zip(moments[:2], moments[2:])):
            for name in shapes:
                assert np.all(np.abs(a[name] - b[name])
                              <= 1e-12 * np.maximum(1.0, np.abs(b[name]))), (name, t)


def test_in_place_step_is_bit_identical_to_out_of_place_formula():
    rng = np.random.default_rng(5)
    # one parameter spans several update blocks, one is a scalar
    shapes = {"w": (3, Adam.BLOCK - 7), "b": (5,), "eps": ()}
    reference = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    params = {name: make_param(values.copy()) for name, values in reference.items()}
    opt = Adam(params, lr=0.01)
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for t in range(1, 6):
        grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        for name, p in params.items():
            p.accumulate_grad(grads[name])
        opt.step(grad_scale=1.0 / 3.0)
        opt.zero_grad()
        reference_adam_step(reference, grads, m, v, t, lr=0.01, grad_scale=1.0 / 3.0)
        for name, p in params.items():
            assert np.array_equal(p.values, reference[name]), (name, t)
            assert np.array_equal(opt.m[name], m[name]), (name, t)
            assert np.array_equal(opt.v[name], v[name]), (name, t)


def test_step_over_a_model_and_standalone_parameters_is_bit_identical_to_the_formula():
    # a built model's parameters are one run, each standalone parameter a run
    # of its own
    cfg = tr.config_from_dict({"k": 2, "hidden_dim": 4, "mp_layers": 2, "update_layers": 2,
                               "head_layers": 2, "head_hidden_dim": 8, "max_nodes": 6})
    model = tr.build_model(cfg, 3).parameters()
    rng = np.random.default_rng(6)
    params = {"first": make_param(rng.standard_normal((2, 3))), **model,
              "middle": make_param(rng.standard_normal(4)), "last": make_param(np.array(0.5))}
    opt = Adam(params, lr=0.01)
    assert [names for _, names in opt.runs] == [["first"], list(model), ["middle"], ["last"]]
    reference = {name: p.values.copy() for name, p in params.items()}
    m = {name: np.zeros(p.shape) for name, p in params.items()}
    v = {name: np.zeros(p.shape) for name, p in params.items()}
    for t in range(1, 5):
        grads = {name: rng.standard_normal(p.shape) for name, p in params.items()}
        for name, g in grads.items():
            params[name].accumulate_grad(g)  # into its slot, as backward writes it
        opt.step(grad_scale=0.5)
        opt.zero_grad()
        reference_adam_step(reference, grads, m, v, t, lr=0.01, grad_scale=0.5)
        for name, p in params.items():
            assert np.array_equal(p.values, reference[name]), (name, t)
            assert np.array_equal(opt.m[name], m[name]), (name, t)
            assert np.array_equal(opt.v[name], v[name]), (name, t)


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_cutting_a_run_into_pieces_changes_no_bit(monkeypatch, cpus):
    # sizes that are no multiples of BLOCK, in one run of more than three
    # times a (lowered) piece minimum
    block = Adam.BLOCK
    monkeypatch.setattr(Adam, "MIN_PIECE", 2 * block)
    shapes = {"w0": (3, block + 5), "b0": (block - 3,), "w1": (2, block + 7), "b1": (7,),
              "eps": ()}
    rng = np.random.default_rng(8)

    def build(usable):
        params = {name: ad.parameter(np.zeros(shape)) for name, shape in shapes.items()}
        flat = nn.allocate_parameters(params, np.random.default_rng(0))
        flat[:] = np.random.default_rng(9).standard_normal(flat.size)
        monkeypatch.setattr(optim, "usable_cpus", lambda: usable)
        return params, Adam(params, lr=0.01)

    params1, whole = build(1)
    params_n, cut = build(cpus)
    size = sum(math.prod(shape) for shape in shapes.values())
    assert [len(opt.pieces) for opt in (whole, cut)] == [1, min(cpus, size // Adam.MIN_PIECE)]
    sizes = [piece[0].size for piece in cut.pieces]
    assert sum(sizes) == size and min(sizes) >= Adam.MIN_PIECE
    assert all(n % block == 0 for n in sizes[:-1])
    for t in range(1, 5):
        grads = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
        for params, opt in ((params1, whole), (params_n, cut)):
            for name, g in grads.items():
                params[name].accumulate_grad(g)
            opt.step(grad_scale=0.25)
            opt.zero_grad()
        for name in shapes:
            assert np.array_equal(params1[name].values, params_n[name].values), (name, t)
        assert np.array_equal(whole.flat_m, cut.flat_m) and np.array_equal(whole.flat_v, cut.flat_v)


def test_an_error_in_a_piece_is_raised_by_the_step(monkeypatch):
    monkeypatch.setattr(Adam, "MIN_PIECE", Adam.BLOCK)
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    p = make_param(np.zeros(2 * Adam.BLOCK))
    opt = Adam({"p": p})
    assert len(opt.pieces) == 2

    def fail(self, piece, *factors):
        raise MemoryError("piece")

    monkeypatch.setattr(Adam, "_update", fail)
    p.accumulate_grad(np.ones(p.shape))
    with pytest.raises(MemoryError, match="piece"):
        opt.step()


def test_a_dropped_optimizer_leaves_no_gradient_buffer_behind():
    # parameters refer to their gradient slots weakly: once the optimizer is
    # gone its buffer is freed, and a gradient gets an array of its own
    p = make_param(np.ones(3))
    opt = Adam({"p": p})
    buffer = weakref.ref(opt.flat_grad)
    del opt
    gc.collect()
    assert buffer() is None and p.grad_view is None
    p.accumulate_grad(np.full(3, 2.0))
    assert p.grad.tolist() == [2.0, 2.0, 2.0]


def test_step_updates_values_in_place():
    p = make_param(np.ones((4, 3)))
    values = p.values
    opt = Adam({"p": p}, lr=0.1)
    p.accumulate_grad(np.ones((4, 3)))
    opt.step()
    assert p.values is values
    assert np.all(values < 1.0)


def test_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(3)
        p = make_param(rng.standard_normal(5))
        opt = Adam({"p": p}, lr=0.05)
        for _ in range(10):
            p.accumulate_grad(rng.standard_normal(5))
            opt.step()
            opt.zero_grad()
        return p.values
    assert np.array_equal(run(), run())


def test_plateau_constant_loss_decays_geometrically():
    p = make_param([0.0])
    opt = Adam({"p": p}, lr=1.0)
    sched = ReduceLROnPlateau(opt, patience=5, factor=0.9)
    for i in range(15):
        sched.step(1.0)
        if (i + 1) % 5 == 0:
            assert abs(opt.lr - 0.9 ** ((i + 1) // 5)) <= 1e-12
    assert abs(opt.lr - 0.9 ** 3) <= 1e-12


def test_plateau_improvement_resets_counter():
    p = make_param([0.0])
    opt = Adam({"p": p}, lr=1.0)
    sched = ReduceLROnPlateau(opt, patience=3, factor=0.5)
    losses = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5]  # always improving
    for value in losses:
        sched.step(value)
    assert opt.lr == 1.0


def test_plateau_needs_threshold_sized_improvement():
    p = make_param([0.0])
    opt = Adam({"p": p}, lr=1.0)
    sched = ReduceLROnPlateau(opt, patience=2, factor=0.5, threshold=1e-6)
    sched.step(1.0)
    sched.step(1.0 - 1e-9)  # below threshold: counts as no improvement
    assert opt.lr == 0.5
