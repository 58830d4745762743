import concurrent.futures
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from eigenlearn import autodiff as ad
from eigenlearn import cli, nn, optim
from eigenlearn import train as tr
from eigenlearn.data import save_dataset
from eigenlearn.errors import NumericalFault, ShapeMismatch
from eigenlearn.optim import THREAD_VARS, Adam, ReduceLROnPlateau
from helpers import random_graph_soup


def make_param(values):
    return ad.parameter(np.asarray(values, dtype=np.float64))


def test_zero_gradient_is_a_fixed_point():
    p = make_param([1.0, -2.0])
    opt = Adam({"p": p})
    p.accumulate_grad(np.zeros(2))
    before = p.values.copy()
    opt.step()
    assert np.array_equal(p.values, before)


def test_a_step_fails_in_one_line_and_changes_nothing_without_every_gradient():
    params = {"a": make_param([1.0, 2.0]), "b": make_param([3.0])}
    opt = Adam(params)
    params["a"].accumulate_grad(np.array([0.5, -0.5]))
    with pytest.raises(ValueError, match=r"^Adam\.step: parameter 'b' has no gradient; "
                                         r"backward or accumulate_grad gives it one$"):
        opt.step()
    assert params["a"].values.tolist() == [1.0, 2.0] and params["b"].values.tolist() == [3.0]
    assert opt.t == 0 and not opt.flat_m.any() and not opt.flat_v.any()
    assert params["a"].grad.tolist() == [0.5, -0.5]


def test_a_gradient_is_kept_as_terms_of_its_own_and_a_misshapen_one_is_refused():
    # what accumulate_grad (not owned) and the setter are given is copied, so
    # a later change to the caller's array changes no gradient
    p, given, set_by_hand = make_param(np.zeros((2, 3))), np.ones((2, 3)), np.ones((3, 2))
    p.accumulate_grad(given)
    p.accumulate_grad(np.array([0.5, 0.0, 2.0]))  # broadcast to the tensor's shape
    given += 1.0
    assert [term.tolist() for term in p.grad_terms()] == [[[1.0] * 3] * 2, [[0.5, 0.0, 2.0]] * 2]
    assert all(term.flags.c_contiguous for term in p.grad_terms())
    p.grad = set_by_hand.T
    set_by_hand += 1.0
    assert p.grad.tolist() == [[1.0] * 3] * 2 and p.grad.flags.c_contiguous
    with pytest.raises(ShapeMismatch, match=r"^a gradient of shape \(3, 2\) for a tensor of "
                                            r"shape \(2, 3\)$"):
        p.grad = set_by_hand
    assert p.grad.tolist() == [[1.0] * 3] * 2


def test_a_gradient_set_by_hand_is_stepped_like_an_accumulated_one():
    by_hand, accumulated = make_param([1.0, -2.0]), make_param([1.0, -2.0])
    opts = Adam({"p": by_hand}, lr=0.1), Adam({"p": accumulated}, lr=0.1)
    by_hand.grad = np.array([0.25, 3.0])
    accumulated.accumulate_grad(np.array([0.25, 3.0]))
    for opt in opts:
        opt.step()
    assert by_hand.values.tobytes() == accumulated.values.tobytes()
    assert opts[0].m["p"].tobytes() == opts[1].m["p"].tobytes()


def test_a_strided_gradient_set_by_hand_is_stepped_like_an_accumulated_one():
    # a transposed array, set by hand and then added to by a product, and an
    # array that is a view of the values themselves
    rng = np.random.default_rng(5)
    start, x, y = rng.standard_normal((4, 3)), rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
    by_hand, accumulated = make_param(start.T), make_param(start.T)
    opts = Adam({"p": by_hand}, lr=0.1), Adam({"p": accumulated}, lr=0.1)
    for _ in range(2):
        by_hand.grad = start.T
        by_hand.accumulate_product(x.T, y)
        accumulated.accumulate_grad(start.T)
        accumulated.accumulate_product(x.T, y)
        for opt in opts:
            opt.step()
            opt.zero_grad()
    by_hand.grad, values = by_hand.values, by_hand.values.copy()
    accumulated.accumulate_grad(accumulated.values)
    for opt in opts:
        opt.step()
    assert not np.array_equal(by_hand.values, values)
    assert by_hand.values.tobytes() == accumulated.values.tobytes()
    assert opts[0].v["p"].tobytes() == opts[1].v["p"].tobytes()


@pytest.mark.parametrize("params, message", [
    (lambda p, q: {"a": p, "b": q, "c": p}, "parameters 'a' and 'c' are one tensor"),
    (lambda p, q: {"a": p, "b": ad.parameter(p.values[1:])},
     "the values of parameters 'a' and 'b' overlap"),
    (lambda p, q: {"b": ad.parameter(p.values[2:]), "a": p, "c": q},
     "the values of parameters 'a' and 'b' overlap"),  # named in memory order
], ids=["one_tensor_twice", "a_view_of_another", "a_view_listed_first"])
def test_the_optimizer_refuses_values_it_would_step_twice_in_one_line(params, message):
    p, q = make_param(np.zeros(4)), make_param(np.zeros(4))
    with pytest.raises(ValueError, match=rf"^Adam: {message}$"):
        Adam(params(p, q))


def block_names(opt):
    """The names each of the optimizer's blocks fills, block by block."""
    return [[name for name, *_ in fills] for *_, fills in opt.blocks]


def test_the_optimizer_accepts_adjacent_views_of_one_buffer():
    flat = np.zeros(6)
    params = {"a": ad.parameter(flat[:2]), "b": ad.parameter(flat[2:5]),
              "c": ad.parameter(flat[5:])}
    assert block_names(Adam(params)) == [["a", "b", "c"]]


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
    # a built model's small parameters are one block, each standalone
    # parameter a block of its own
    cfg = tr.config_from_dict({"k": 2, "hidden_dim": 4, "mp_layers": 2, "update_layers": 2,
                               "head_layers": 2, "head_hidden_dim": 8, "max_nodes": 6})
    model = tr.build_model(cfg, 3).parameters()
    rng = np.random.default_rng(6)
    params = {"first": make_param(rng.standard_normal((2, 3))), **model,
              "middle": make_param(rng.standard_normal(4)), "last": make_param(np.array(0.5))}
    opt = Adam(params, lr=0.01)
    assert block_names(opt) == [["first"], list(model), ["middle"], ["last"]]
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


def test_dealing_the_blocks_to_threads_changes_no_bit(monkeypatch):
    # the layout fine-tuning builds: several buffers (an encoder, a head and
    # a second head, no block spanning two) with matrices cut into row blocks and
    # small parameters packed together; sizes that are no multiples of
    # BLOCK, and MIN_PIECE lowered so that 8 threads each get blocks
    block = Adam.BLOCK
    monkeypatch.setattr(Adam, "MIN_PIECE", block)
    layout = [{"w0": (6, block + 5), "b0": (block - 3,), "eps": ()},
              {"w1": (2, block + 7), "b1": (7,), "w2": (40, 900), "b2": (900,)},
              {"w3": (9, 2 * block + 1), "b3": (3,)}]
    rng = np.random.default_rng(8)

    def build(threads):
        monkeypatch.setattr(optim, "usable_cpus", lambda: threads)
        params = {}
        for i, shapes in enumerate(layout):
            buffer = {name: ad.parameter(np.zeros(shape)) for name, shape in shapes.items()}
            flat = nn.allocate_parameters(buffer, np.random.default_rng(0))
            flat[:] = np.random.default_rng(9 + i).standard_normal(flat.size)
            params.update(buffer)
        opt = Adam(params, lr=0.01)
        assert all(any(set(names) <= set(shapes) for shapes in layout)
                   for names in block_names(opt))
        assert opt._threads == threads
        return params, opt

    builds = [build(threads) for threads in (1, 2, 3, 8)]
    for t in range(1, 4):
        grads = {name: (rng.standard_normal((5, shape[0])).T, rng.standard_normal((5, shape[1])))
                 if len(shape) == 2 else rng.standard_normal(shape)
                 for shapes in layout for name, shape in shapes.items()}
        for params, opt in builds:
            for name, g in grads.items():
                if type(g) is tuple:
                    params[name].accumulate_product(*g)
                else:
                    params[name].accumulate_grad(g)
            opt.step(grad_scale=0.25)
            opt.zero_grad()
        for params, opt in builds[1:]:
            assert_same_state(builds[0][0], builds[0][1], params, opt, (t, opt._threads))


@pytest.mark.parametrize("layout", ["model", "standalone", "finetune-keep-head"])
def test_the_blocks_tile_every_parameter_in_order_as_grad_blocks_cuts_it(layout):
    # a model with a head matrix cut into row blocks, or standalone
    # parameters (formed whole however large, empty, scalar, cut) around a
    # small model, or the three buffers fine-tuning steps
    cfg = tr.config_from_dict({"head_hidden_dim": 600, "keep_pretrain_head": True})
    block = Adam.BLOCK
    if layout == "standalone":
        small = tr.build_model(tr.config_from_dict({"hidden_dim": 4, "head_hidden_dim": 8}), 3)
        params = {"long": make_param(np.zeros(2 * block + 1)), "empty": make_param(np.zeros(0)),
                  **small.parameters(), "few_rows": make_param(np.zeros((3, block))),
                  "one_column": make_param(np.zeros((2 * block, 1))),
                  "cut": make_param(np.zeros((9, block // 2 + 3))), "scalar": make_param(0.5)}
    else:
        model = tr.build_model(cfg, 12, draw=False)
        params = model.parameters()
        if layout == "finetune-keep-head":
            head = tr.build_downstream_head(cfg, draw=False)
            params = {**{n: p for n, p in params.items() if n.startswith("encoder.")},
                      **{f"downstream.{n}": p for n, p in head.parameters().items()},
                      **{n: p for n, p in params.items() if n.startswith("head.")}}
    opt = Adam(params)
    fills = [(name, lo, hi) for *_, block_fills in opt.blocks for name, lo, hi, _ in block_fills]
    assert fills == [(name, lo, hi) for name, p in params.items()
                     for lo, hi in p.grad_blocks()]
    assert sum(len(p.grad_blocks()) > 1 for p in params.values()) >= 1
    at = 0  # the block's first moment slot
    for values, m, v, block_fills in opt.blocks:
        assert values.size == m.size == v.size == sum(hi - lo for _, lo, hi, _ in block_fills)
        if values.size:  # an empty array's address means nothing
            assert m.ctypes.data == opt.flat_m.ctypes.data + 8 * at
            assert v.ctypes.data == opt.flat_v.ctypes.data + 8 * at
        offset = 0
        for name, lo, hi, put in block_fills:
            assert put == offset
            if hi > lo:
                flat = params[name].values.reshape(-1)
                assert values[put:].ctypes.data == flat[lo:].ctypes.data
                assert m[put:].ctypes.data == opt.m[name].reshape(-1)[lo:].ctypes.data
            offset += hi - lo
        # a parameter cut into several ranges has a block per range, and only
        # whole parameters are packed, within BLOCK values
        cut = [len(params[name].grad_blocks()) > 1 for name, *_ in block_fills]
        assert (cut == [True]) if any(cut) else (len(cut) == 1 or values.size <= block)
        at += values.size
    assert at == opt.flat_m.size == opt.flat_v.size


@pytest.mark.parametrize("shape, cpus, threads", [((2, 2 ** 16), 2, 1), ((4, 2 ** 15), 4, 2)])
def test_a_step_starts_no_more_threads_than_there_are_blocks(monkeypatch, shape, cpus, threads):
    # a matrix of fewer than four rows is one block, one cut at rows // 2 two
    # blocks: fewer blocks than usable CPUs, with MIN_PIECE lowered so that
    # the values alone would allow eight threads
    monkeypatch.setattr(Adam, "MIN_PIECE", shape[0] * shape[1] // 8)
    monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
    started, shares = [], []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            started.append(len(self._threads))  # the workers it started
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    update = Adam._update

    def recording_update(self, blocks, *rest):
        shares.append([values.ctypes.data for values, *_ in blocks])
        update(self, blocks, *rest)

    monkeypatch.setattr(Adam, "_update", recording_update)
    p = make_param(np.random.default_rng(7).standard_normal(shape))
    opt = Adam({"p": p}, lr=0.01)
    assert len(opt.blocks) == threads
    p.accumulate_grad(np.ones(shape))
    opt.step()
    assert started == ([threads - 1] if threads > 1 else [])  # share 0 runs on the caller
    assert sorted(len(share) for share in shares) == [1] * threads
    assert sorted(sum(shares, [])) == sorted(values.ctypes.data for values, *_ in opt.blocks)


def test_an_error_in_one_threads_share_is_raised_by_the_step(monkeypatch):
    monkeypatch.setattr(Adam, "MIN_PIECE", Adam.BLOCK)
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    p = make_param(np.zeros((4, Adam.BLOCK // 2)))  # cut into two row blocks
    opt = Adam({"p": p})
    assert len(opt.blocks) == opt._threads == 2
    update = Adam._update

    def fail_in_the_second_share(self, blocks, *rest):
        if blocks[0][0].ctypes.data != p.values.ctypes.data:
            raise MemoryError("the second share")
        update(self, blocks, *rest)

    monkeypatch.setattr(Adam, "_update", fail_in_the_second_share)
    p.accumulate_grad(np.ones(p.shape))
    with pytest.raises(MemoryError, match="the second share"):
        opt.step()


def test_a_step_leaves_the_gradients_as_they_were_and_a_dropped_optimizer_frees_its_buffers():
    # the step forms each weight's gradient in a scratch of its own: the
    # factors are not written, and the gradient read afterwards is the one
    # the step used; the parameters refer to no buffer of the optimizer
    rng = np.random.default_rng(2)
    w, b = make_param(rng.standard_normal((3, 4))), make_param(np.zeros(4))
    x, g = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
    opt = Adam({"w": w, "b": b})
    w.accumulate_product(x.T, g)
    b.accumulate_grad(g.sum(axis=0), owned=True)
    factors = x.copy(), g.copy()
    opt.step()
    assert x.tobytes() == factors[0].tobytes() and g.tobytes() == factors[1].tobytes()
    assert w.grad.tobytes() == (x.T @ g).tobytes()
    assert b.grad.tobytes() == g.sum(axis=0).tobytes()
    buffers = weakref.ref(opt.flat_m), weakref.ref(opt.flat_v)
    del opt
    gc.collect()
    assert [ref() for ref in buffers] == [None, None]


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


# A run whose blocks include one inside a matrix (w0 is cut into three, w2
# into two) and one spanning several small parameters (b0, w1, b1, eps). w0
# has the default graph-level head's output width (max_nodes * k = 240) or
# one for which some BLAS kernels round a row block differently from those
# rows of the whole product (250 columns).
FACTOR_SHAPES = {"w0": (300, 240), "b0": (240,), "w1": (240, 7), "b1": (7,), "eps": (),
                 "w2": (7, 5000)}
ODD_SHAPES = dict(FACTOR_SHAPES, w0=(300, 250), b0=(250,), w1=(250, 7))


def formed_as_grad(x, y):
    """x @ y as `Tensor.grad` forms it, in its row blocks."""
    t = ad.parameter(np.zeros((x.shape[0], y.shape[1])))
    t.accumulate_product(x, y)
    return t.grad


def twin_runs(shapes, seed=0):
    """Two parameter dicts of these shapes, each laid out in one buffer, with
    the same values."""
    twins = []
    for _ in range(2):
        params = {name: ad.parameter(np.zeros(shape)) for name, shape in shapes.items()}
        nn.allocate_parameters(params, np.random.default_rng(seed))
        twins.append(params)
    return twins


def assert_same_state(params_a, opt_a, params_b, opt_b, where):
    for name in params_a:
        assert params_a[name].values.tobytes() == params_b[name].values.tobytes(), (name, where)
    assert opt_a.flat_m.tobytes() == opt_b.flat_m.tobytes(), where
    assert opt_a.flat_v.tobytes() == opt_b.flat_v.tobytes(), where


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("contributions", [1, 2])
@pytest.mark.parametrize("batch", [1, 4, 700])
@pytest.mark.parametrize("shapes", [FACTOR_SHAPES, ODD_SHAPES], ids=["head", "odd"])
def test_a_step_given_factors_is_bit_identical_to_one_given_their_product(
        monkeypatch, shapes, batch, contributions, cpus):
    # the reference is given each product as an array, formed in its row
    # blocks as `.grad` forms it: the step applies exactly what `.grad` shows
    monkeypatch.setattr(Adam, "MIN_PIECE", Adam.BLOCK)
    monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
    factored, formed = twin_runs(shapes)
    opt_f, opt_a = Adam(factored, lr=0.01), Adam(formed, lr=0.01)
    fills = [fills for *_, fills in opt_f.blocks]
    assert [name for name, *_ in fills[0]] == ["w0"] and sum(f[0][0] == "w0" for f in fills) == 3
    assert ["b0", "w1", "b1", "eps"] in [[name for name, *_ in f] for f in fills]
    assert opt_f._threads == cpus
    rng = np.random.default_rng(batch)
    for t in range(1, 4):
        for name, shape in shapes.items():
            if len(shape) == 2:
                for _ in range(contributions):
                    x, g = rng.standard_normal((batch, shape[0])), rng.standard_normal((batch, shape[1]))
                    factored[name].accumulate_product(x.T, g)
                    formed[name].accumulate_grad(formed_as_grad(x.T, g), owned=True)
            else:
                g = rng.standard_normal(shape)
                factored[name].accumulate_grad(g)
                formed[name].accumulate_grad(g)
        for opt in (opt_f, opt_a):
            opt.step(grad_scale=1.0 / batch)
            opt.zero_grad()
        assert_same_state(factored, opt_f, formed, opt_a, t)


def test_a_parameter_that_feeds_a_dense_layer_gets_its_gradient_formed_before_it_changes():
    # x comes first in the run, so its values are updated before w's blocks;
    # w's factor x^T is a view of them, and must be read before they change
    shapes = {"x": (5, 40), "w": (40, 900), "b": (900,)}
    factored, formed = twin_runs(shapes)
    opts = Adam(factored, lr=0.1), Adam(formed, lr=0.1)
    seed = np.random.default_rng(4).standard_normal((5, 900))
    for t in range(1, 4):
        for params in (factored, formed):
            ad.dense(params["x"], params["w"], params["b"], relu=True).backward(seed)
        assert isinstance(factored["w"].grad_terms()[0], tuple)
        assert np.shares_memory(factored["w"].grad_terms()[0][0], factored["x"].values)
        for p in formed.values():
            p.grad = np.array(p.grad)  # formed, and copied, before the step
        for opt in opts:
            opt.step()
            opt.zero_grad()
        assert_same_state(factored, opts[0], formed, opts[1], t)


def test_reading_a_gradient_forms_its_terms_in_arrival_order():
    rng = np.random.default_rng(3)
    p = make_param(np.zeros((6, 5)))
    x1, g1, x2, g2 = (rng.standard_normal(shape) for shape in ((4, 6), (4, 5), (3, 6), (3, 5)))
    a, c = rng.standard_normal((6, 5)), rng.standard_normal((6, 5))
    p.accumulate_grad(a)
    p.accumulate_product(x1.T, g1)
    p.accumulate_grad(c)
    p.accumulate_product(x2.T, g2)
    assert [type(term) for term in p.grad_terms()] == [np.ndarray, tuple, np.ndarray, tuple]
    expected = a.copy()
    expected += x1.T @ g1
    expected += c
    expected += x2.T @ g2
    assert p.grad.tobytes() == expected.tobytes()
    assert len(p.grad_terms()) == 1  # formed once, kept as one array
    with pytest.raises(ShapeMismatch, match=r"^gradient product \(6, 4\) @ \(3, 5\) for a "
                                            r"tensor of shape \(6, 5\)$"):
        p.accumulate_product(x1.T, g2)


# --- the thread budget: worker_threads and the hold of the BLAS thread count ---

@pytest.fixture
def blas_at_two():
    """numpy's bundled OpenBLAS set to two threads for the test, and its
    count restored after it; the test is skipped where it cannot be set."""
    blas = optim._openblas()
    if blas is None:
        pytest.skip("the BLAS thread count of this numpy cannot be set")
    found = optim.blas_threads()
    blas[1](2)
    yield
    blas[1](found)


def raise_in_a_worker():
    raise ValueError("in a worker")


def on_a_worker() -> bool:
    """Whether worker_threads() runs a submitted call on another thread."""
    with optim.worker_threads() as submit:
        return submit(threading.get_ident)() != threading.get_ident()


def test_worker_threads_hold_blas_at_one_thread_and_restore_it(monkeypatch, blas_at_two):
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    with optim.worker_threads() as submit:
        assert submit(optim.blas_threads)() == optim.blas_threads() == 1
    assert optim.blas_threads() == 2 and on_a_worker()
    with pytest.raises(ValueError, match="in a worker"):
        with optim.worker_threads() as submit:
            submit(raise_in_a_worker)()
    assert optim.blas_threads() == 2
    with optim.worker_threads():  # a scope that submits nothing holds as well
        assert optim.blas_threads() == 1
    assert optim.blas_threads() == 2
    # nested scopes share the outer one's hold and its one worker, and
    # restore the count once, when the outer one closes
    with optim.worker_threads() as outer:
        worker = outer(threading.get_ident)()
        with optim.worker_threads() as inner:
            assert inner(threading.get_ident)() == worker != threading.get_ident()
        assert optim.blas_threads() == 1 and outer(threading.get_ident)() == worker
    assert optim.blas_threads() == 2


@pytest.mark.parametrize("cpus, nested", [(2, False), (1, False), (2, True)],
                         ids=["pool", "one-cpu", "nested"])
def test_a_submitted_call_runs_as_it_would_on_the_caller(monkeypatch, blas_at_two, cpus,
                                                          nested):
    # on a worker (of the scope's pool, or of an outer scope's built
    # before it) or deferred to the caller, a submitted call sees the
    # caller's errstate and one BLAS thread, and its error is raised by the
    # callable submit returned; a deferred call runs only when called
    monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
    pooled = cpus > 1
    ran = []

    def seen():
        ran.append(threading.get_ident())
        return np.geterr(), optim.blas_threads()

    with optim.worker_threads() as outer:
        if nested:
            outer(int)()
        with np.errstate(over="ignore", divide="raise", invalid="warn"):
            caller = np.geterr()
            with optim.worker_threads() as submit:
                call = submit(seen)
                if not pooled:
                    assert ran == []
                assert call() == (caller, 1)
                assert (ran != [threading.get_ident()]) == pooled
                failing = submit(raise_in_a_worker)
                with pytest.raises(ValueError, match="in a worker"):
                    failing()
    assert optim.blas_threads() == 2


def test_holds_overlapping_in_many_threads_keep_one_blas_thread_and_restore_the_count(
        monkeypatch, blas_at_two):
    # more threads than CPUs open and close scopes, and submit to their
    # shared pool, at a short switch interval: a lost update of the open
    # count would leave it nonzero, restore the count while another thread's
    # scope is open, or build a second pool. Each hold sets one thread and
    # its restore the two it found, so the setter's calls alternate; under a
    # scope left open meanwhile, the count is set and restored once
    get, put = optim._openblas()
    puts = []

    def recording_put(count):
        puts.append(count)
        put(count)

    monkeypatch.setattr(optim, "_openblas", lambda: (get, recording_put))
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    pools = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    seen, errors = set(), []

    def hold_often():
        try:
            for i in range(200):
                with optim.worker_threads() as submit:
                    seen.add(optim.blas_threads())
                    if i % 10 == 0:
                        seen.add(submit(optim.blas_threads)())
        except BaseException as exc:  # reported below: a thread's error is lost otherwise
            errors.append(exc)

    def run_threads():
        threads = [threading.Thread(target=hold_often) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads) and errors == []

    interval, before = sys.getswitchinterval(), threading.active_count()
    sys.setswitchinterval(1e-6)
    try:
        run_threads()
        assert puts == [1, 2] * (len(puts) // 2) and puts and set(pools) == {1}
        puts.clear()
        pools.clear()
        with optim.worker_threads():
            run_threads()
    finally:
        sys.setswitchinterval(interval)
    assert seen == {1} and puts == [1, 2] and pools == [1]
    assert optim._scope["open"] == 0 and optim.blas_threads() == 2
    assert threading.active_count() == before


def test_a_command_and_a_training_call_hold_one_blas_thread_and_restore_the_count(
        monkeypatch, tmp_path, blas_at_two):
    # a CLI command that exits 0 and one that exits 1, then a library
    # pretrain that raises in its second batch, after a first step that
    # started a worker: each computes at one BLAS thread and leaves the
    # count it found and no thread
    before = threading.active_count()
    dataset = tmp_path / "graphs.jsonl"
    graphs = random_graph_soup(6, seed=4, n_low=5, n_high=9)
    save_dataset(str(dataset), graphs)
    inside, decompose = [], cli.eigendecompose

    def spectrum_with(fail):
        def eigendecompose(laplacian):
            inside.append(optim.blas_threads())
            if fail:
                raise NumericalFault("a command that fails")
            return decompose(laplacian)
        monkeypatch.setattr(cli, "eigendecompose", eigendecompose)
        return cli.main(["--quiet", "spectrum", "--input", str(dataset),
                         "--output", str(tmp_path / "spectra.jsonl")])

    assert spectrum_with(fail=False) == 0 and optim.blas_threads() == 2
    assert spectrum_with(fail=True) == 1 and optim.blas_threads() == 2
    assert threading.active_count() == before
    assert inside == [1] * len(graphs) + [1]
    cfg = tr.config_from_dict({"k": 2, "hidden_dim": 4, "head_hidden_dim": 8, "max_nodes": 9,
                               "batch_size": 2, "epochs": 2, "scheduler": {"kind": "none"}})
    examples = tr.precompute_targets(graphs, cfg)
    assert optim.blas_threads() == 2
    inside.clear()
    loss = tr.combined_loss_t

    def fail_in_the_second_batch(*args, **kwargs):
        inside.append(optim.blas_threads())
        if len(inside) == 2:
            raise MemoryError("mid-run")
        return loss(*args, **kwargs)

    monkeypatch.setattr(tr, "combined_loss_t", fail_in_the_second_batch)
    # a step of two shares, so the first batch's step starts a worker
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    monkeypatch.setattr(Adam, "BLOCK", 64)
    monkeypatch.setattr(Adam, "MIN_PIECE", 64)
    workers = []
    update = Adam._update

    def recording_update(self, *args):
        workers.append(threading.current_thread() is not threading.main_thread())
        update(self, *args)

    monkeypatch.setattr(Adam, "_update", recording_update)
    with pytest.raises(MemoryError, match="mid-run"):
        tr.pretrain(examples, tr.build_model(cfg, tr.feature_dim(examples)), cfg)
    assert inside == [1, 1] and sorted(workers) == [False, True]
    assert optim.blas_threads() == 2 and optim._scope["open"] == 0
    assert threading.active_count() == before


def test_a_step_that_fails_in_a_thread_restores_the_blas_thread_count(monkeypatch, blas_at_two):
    monkeypatch.setattr(Adam, "MIN_PIECE", Adam.BLOCK)
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    p = make_param(np.zeros((4, Adam.BLOCK // 2)))  # cut into two row blocks
    opt = Adam({"p": p})
    assert opt._threads == 2
    held = []

    def fail(self, blocks, *rest):
        held.append(optim.blas_threads())
        raise MemoryError("a share")

    monkeypatch.setattr(Adam, "_update", fail)
    p.accumulate_grad(np.ones(p.shape))
    with pytest.raises(MemoryError, match="a share"):
        opt.step()
    assert held and set(held) == {1} and optim.blas_threads() == 2


def test_work_runs_inline_without_the_blas_symbols_unless_the_thread_variables_say_1(
        monkeypatch):
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    monkeypatch.setattr(optim, "_openblas", lambda: None)
    assert optim.blas_threads() is None
    for name in THREAD_VARS:
        monkeypatch.delenv(name, raising=False)

    assert not on_a_worker()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert on_a_worker()
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert on_a_worker()
    monkeypatch.setenv("OMP_NUM_THREADS", "4")  # one variable says otherwise
    assert not on_a_worker()


def test_a_step_without_the_blas_symbols_runs_inline_with_the_same_bits(monkeypatch):
    monkeypatch.setattr(Adam, "MIN_PIECE", Adam.BLOCK)
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    for name in THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    rng = np.random.default_rng(6)
    start, x, g = rng.standard_normal((8, Adam.BLOCK // 4)), rng.standard_normal((5, 8)), \
        rng.standard_normal((5, Adam.BLOCK // 4))
    runs = []
    for symbols in (True, False):
        if not symbols:
            monkeypatch.setattr(optim, "_openblas", lambda: None)

            def refuse(*args, **kwargs):
                raise AssertionError("a thread pool was built")

            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        p = make_param(start.copy())
        opt = Adam({"p": p}, lr=0.01)
        assert opt._threads == 2
        for _ in range(2):
            p.accumulate_product(x.T, g)
            opt.step()
            opt.zero_grad()
        runs.append((p.values.tobytes(), opt.flat_m.tobytes(), opt.flat_v.tobytes()))
    assert runs[0] == runs[1]


def test_a_threaded_step_runs_under_the_callers_errstate(monkeypatch):
    # pytest turns warnings into errors: the overflow of grad * grad warned
    # in the step's threads, and so raised, when they ignored the caller's
    # errstate
    monkeypatch.setattr(Adam, "MIN_PIECE", Adam.BLOCK)
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    p = make_param(np.zeros((4, Adam.BLOCK // 2)))  # cut into two row blocks
    opt = Adam({"p": p})
    assert opt._threads == 2
    p.accumulate_grad(np.full(p.shape, 1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        opt.step()
    assert np.all(opt.flat_v == np.inf)
