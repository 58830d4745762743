import concurrent.futures
import threading
import warnings

import numpy as np
import pytest

from eigenlearn import autodiff as ad
from eigenlearn import optim
from eigenlearn import train as tr
from eigenlearn.errors import NumericalFault, ShapeMismatch
from helpers import (dense_reference, dropout, gin_aggregate_reference, matmul,
                     max_rel_error, numeric_gradient, project, random_graph_soup,
                     recorded_ops, relu, slice_rows, spy_on_ops, sum_neighbors)


def check_op_gradient(build, arrays, h=1e-5, tol=1e-4):
    """build(tensors) -> scalar Tensor; checks every input's gradient against
    central finite differences."""
    tensors = [ad.parameter(a) for a in arrays]
    out = build(*tensors)
    out.backward()
    for t, a in zip(tensors, arrays):
        def value():
            fresh = [ad.Tensor(x) for x in arrays]
            return float(build(*fresh).values)
        numeric = numeric_gradient(value, a, h=h)
        assert max_rel_error(t.grad, numeric) <= tol, f"gradient mismatch on {a.shape}"


def test_matmul_gradient():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((3, 2))
    check_op_gradient(lambda x, y: project(matmul(x, y)), [a, b])


def test_matmul_quadratic_gradient():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3))
    lap = rng.standard_normal((5, 5))
    lap = lap + lap.T
    check_op_gradient(lambda x: project(ad.mul(x, matmul(ad.constant(lap), x))), [a])


def test_add_mul_broadcast_gradients():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 4))
    for b in (rng.standard_normal(4), rng.standard_normal((3, 1)), rng.standard_normal((3, 4))):
        check_op_gradient(lambda x, y: project(ad.add(x, y)), [a, b])
        check_op_gradient(lambda x, y: project(ad.mul(x, y)), [a, b])


def test_add_and_mul_reject_shapes_that_do_not_broadcast():
    a, b = ad.constant(np.ones((2, 3))), ad.constant(np.ones(4))
    for op in (ad.add, ad.mul):
        with pytest.raises(ShapeMismatch,
                           match=rf"^{op.__name__}: cannot broadcast \(2, 3\) with \(4,\)$"):
            op(a, b)


def test_relu_gradient_at_strictly_positive_input():
    x = ad.parameter(np.array([[0.5, 2.0], [1.0, 3.0]]))
    relu(x).backward(np.ones((2, 2)))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_relu_blocks_negative_side():
    x = ad.parameter(np.array([-1.0, 2.0]))
    relu(x).backward(np.ones(2))
    assert x.grad.tolist() == [0.0, 1.0]


def test_structural_op_gradients():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4))
    adj = (rng.random((3, 3)) < 0.5).astype(float)
    adj = np.triu(adj, 1) + np.triu(adj, 1).T
    check_op_gradient(lambda x: project(slice_rows(x, 1, 3)), [a])
    check_op_gradient(lambda x: project(ad.reshape(x, (4, 3))), [a])
    check_op_gradient(lambda x: project(sum_neighbors(x, adj)), [a])


B = ad.Tensor.PRODUCT_BLOCK


@pytest.mark.parametrize("shape, sizes", [
    ((), [1]), ((0,), [0]), ((3 * B,), [3 * B]), ((3, B), [3 * B]),  # formed whole
    ((2 * B, 1), [2 * B]), ((4, B // 4), [B]),
    ((4, B), [2 * B, 2 * B]),  # at most rows // 2 blocks
    ((300, 240), [100 * 240] * 3), ((301, 240), [100 * 240, 100 * 240, 101 * 240]),
])
def test_grad_blocks_cut_a_large_matrix_into_even_row_blocks_and_nothing_else(shape, sizes):
    blocks = ad.parameter(np.zeros(shape)).grad_blocks()
    assert [hi - lo for lo, hi in blocks] == sizes
    assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]


def test_reading_a_gradient_forms_it_in_its_grad_blocks(monkeypatch):
    rng = np.random.default_rng(1)
    t = ad.parameter(np.zeros((300, 240)))
    x, g = rng.standard_normal((300, 5)), rng.standard_normal((5, 240))
    t.accumulate_product(x, g)
    formed = []
    form = ad.Tensor.form_grad
    monkeypatch.setattr(ad.Tensor, "form_grad",
                        lambda self, lo, hi, out: formed.append((lo, hi)) or form(self, lo, hi, out))
    grad = t.grad
    assert formed == t.grad_blocks() and len(formed) == 3
    assert np.allclose(grad, x @ g, rtol=1e-14, atol=1e-14)


def test_gradient_accumulates_over_reuse():
    x = ad.parameter(np.array([2.0]))
    y = ad.add(ad.mul(x, x), x)  # x^2 + x -> d/dx = 2x + 1 = 5
    y.backward()
    assert np.allclose(x.grad, [5.0])


def test_backward_twice_accumulates_into_leaves():
    x = ad.parameter(np.array([1.0, 2.0]))
    ad.mul(x, ad.constant(1.0)).backward(np.ones(2))
    ad.mul(x, ad.constant(2.0)).backward(np.ones(2))
    assert x.grad.tolist() == [3.0, 3.0]


def test_backward_requires_scalar_without_seed():
    x = ad.parameter(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        ad.mul(x, x).backward()


def test_backward_refuses_a_seed_of_another_shape():
    x = ad.parameter(np.ones((4, 2)))
    with pytest.raises(ShapeMismatch, match=r"^backward: seed \(2,\) for output \(4, 2\)$"):
        ad.mul(x, ad.constant(2.0)).backward(np.ones(2))
    with pytest.raises(ShapeMismatch, match=r"^backward: seed \(5,\) for output \(\)$"):
        project(x).backward(np.ones(5))
    assert x.grad is None


def test_reshape_refuses_a_shape_of_another_size():
    with pytest.raises(ShapeMismatch, match=r"^reshape: cannot reshape \(8,\) into \(3, 3\)$"):
        ad.reshape(ad.constant(np.ones(8)), (3, 3))


def test_backward_with_explicit_seed():
    x = ad.parameter(np.ones((2, 2)))
    y = ad.mul(x, ad.constant(3.0))
    y.backward(seed=np.full((2, 2), 2.0))
    assert np.array_equal(x.grad, np.full((2, 2), 6.0))


def test_constants_do_not_grow_graph():
    a = ad.constant(np.ones((2, 2)))
    b = ad.constant(np.ones((2, 2)))
    out = matmul(a, b)
    assert not out.requires_grad
    assert out._parents == ()


def test_numerical_fault_on_overflow():
    a = ad.constant(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericalFault):
        ad.mul(a, a)


# --- the finite check: each op checks each array it computes, once ---

def _poisoned_by(name: str, v: np.ndarray) -> ad.Tensor:
    """The op `name` computing an array whose entries are v, or that v's
    non-finite entries reach."""
    n = v.size
    if name == "add":
        return ad.add(ad.constant(v), ad.constant(0.0))
    if name == "mul":
        return ad.mul(ad.constant(v), ad.constant(1.0))
    if name.startswith("dense"):  # 0 @ w + v, ReLU, and in dense_dropout a dropout
        rate = 0.5 if name == "dense_dropout" else 0.0
        return ad.dense(ad.constant(np.zeros((1, 2))), ad.constant(np.ones((2, n))),
                        ad.constant(v), True, rate, np.random.default_rng(0))
    if name == "gin_aggregate":  # n one-node blocks: row i is (1 + 0) v_i + 0 v_i
        return ad.gin_aggregate(ad.constant(v[:, None]), ad.constant(0.0), np.zeros((n, 1, 1)))
    if name == "thin_qr":
        return ad.thin_qr(ad.constant(v[:, None]), 1e-12)
    assert name == "scalar_with_grad"
    return ad.scalar_with_grad(ad.constant(np.zeros((n, 1))), v, np.zeros((n, 1)))


COMPUTING_OPS = ["add", "mul", "dense", "dense_dropout", "gin_aggregate", "thin_qr",
                 "scalar_with_grad"]


def test_finite_values_whose_sum_overflows_pass_without_a_warning():
    big = np.full(4, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("add", "mul", "dense", "gin_aggregate", "scalar_with_grad"):
            assert np.array_equal(_poisoned_by(name, big).values.ravel(), big), name


@pytest.mark.parametrize("name", COMPUTING_OPS)
@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, 3, 6])
def test_a_non_finite_value_anywhere_raises_from_every_op_that_computes_an_array(
        name, poison, position):
    v = np.arange(1.0, 8.0)
    v[position] = poison
    with np.errstate(all="ignore"), pytest.raises(NumericalFault):
        _poisoned_by(name, v)


def test_reshape_checks_nothing_and_the_next_op_does():
    view = ad.reshape(ad.constant(np.array([1.0, np.nan, 2.0, 3.0])), (2, 2))
    assert np.isnan(view.values[0, 1])
    with pytest.raises(NumericalFault):
        ad.add(view, ad.constant(0.0))


@pytest.mark.parametrize("name, checks", [(name, 1 + (name == "dense_dropout"))
                                          for name in COMPUTING_OPS] + [("reshape", 0)])
def test_each_op_checks_each_array_it_computes_once(monkeypatch, name, checks):
    checked = []
    check = ad._check_finite

    def spy(values):
        checked.append(values.shape)
        check(values)

    monkeypatch.setattr(ad, "_check_finite", spy)
    v = np.arange(1.0, 8.0)
    if name == "reshape":
        ad.reshape(ad.constant(v), (7, 1))
    else:
        _poisoned_by(name, v)
    assert len(checked) == checks


def test_shape_mismatch_on_bad_matmul():
    with pytest.raises(ShapeMismatch):
        matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


def test_dropout_eval_mode_is_identity_without_rng_draw():
    x = ad.parameter(np.ones((4, 4)))
    out = dropout(x, 0.5, rng=None, training=False)
    assert out is x


def test_dropout_training_masks_and_rescales():
    rng = np.random.default_rng(7)
    x = ad.parameter(np.ones((50, 50)))
    out = dropout(x, 0.25, rng, training=True)
    values = np.unique(out.values)
    assert set(np.round(values, 12)) <= {0.0, np.round(1.0 / 0.75, 12)}
    kept = float(np.mean(out.values > 0))
    assert 0.65 < kept < 0.85
    out.backward(np.ones((50, 50)))
    # gradient carries the same mask and scale
    assert np.array_equal(x.grad, out.values)


def test_dropout_deterministic_per_seed():
    x = ad.constant(np.ones((8, 8)))
    a = dropout(x, 0.3, np.random.default_rng(42), training=True)
    b = dropout(x, 0.3, np.random.default_rng(42), training=True)
    assert np.array_equal(a.values, b.values)


def _every_op(x: np.ndarray, params: dict) -> list:
    """One pass through all seven ops, x and the mask fed as bare arrays;
    returns each op's result."""
    adjacency = np.array([[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0],
                          [1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0]])
    mask = np.array([[1.0], [1.0], [1.0], [0.0]])
    out = [ad.gin_aggregate(x, params["eps"], adjacency)]
    out.append(ad.dense(out[-1], params["w"], params["b"], relu=True))
    out.append(ad.mul(ad.add(out[-1], params["shift"]), mask))
    out.append(ad.reshape(out[-1], (1, 4, 2)))
    out.append(ad.thin_qr(out[-1], 1e-8))
    q = out[-1].values if isinstance(out[-1], ad.Tensor) else out[-1]
    out.append(ad.scalar_with_grad(out[-1], np.sum(q), np.ones_like(q)))
    return out


def test_no_grad_records_nothing_and_changes_no_value(monkeypatch):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3))
    params = {"eps": ad.parameter(np.array(0.25)), "w": ad.parameter(rng.standard_normal((3, 2))),
              "b": ad.parameter(np.ones(2)), "shift": ad.parameter(rng.standard_normal(2))}
    results, tensors = spy_on_ops(monkeypatch)
    recorded = _every_op(x, params)
    assert all(t._parents for t in recorded)
    results.clear()
    tensors.clear()
    with ad.no_grad():
        quiet = _every_op(x, params)
    assert len(results) == 7 and all(type(r) is np.ndarray for r in results)
    assert tensors == []  # no Tensor, so no parent tuple or closure, inside the block
    for r, q in zip(recorded, quiet, strict=True):
        assert np.array_equal(q, r.values)
    assert _every_op(x, params)[-1]._parents  # recording resumes after the block


# Each op with every input it can take as a constant given by wrap(array): a
# bare array or ad.constant of it. params are parameters of the other inputs.
BARE_INPUTS = {
    "add": lambda wrap, a, p: ad.add(wrap(a["x"]), p["row"]),
    "mul": lambda wrap, a, p: ad.mul(p["row"], wrap(a["x"])),
    "dense-x-b": lambda wrap, a, p: ad.dense(wrap(a["x"]), p["w"], wrap(a["b"]), relu=True),
    "dense-w": lambda wrap, a, p: ad.dense(p["x"], wrap(a["w"]), p["b"]),
    "gin_aggregate-h": lambda wrap, a, p: ad.gin_aggregate(wrap(a["x"]), p["eps"], a["adj"]),
    "gin_aggregate-eps": lambda wrap, a, p: ad.gin_aggregate(p["x"], wrap(a["eps"]), a["adj"]),
    "reshape": lambda wrap, a, p: ad.reshape(wrap(a["x"]), (2, 2, 3)),
    "thin_qr": lambda wrap, a, p: ad.thin_qr(wrap(a["x"]), 1e-8),
    "scalar_with_grad": lambda wrap, a, p: ad.scalar_with_grad(
        wrap(a["x"]), np.sum(a["x"] ** 2), 2.0 * a["x"]),
}


@pytest.mark.parametrize("recording", [True, False], ids=["recording", "no_grad"])
@pytest.mark.parametrize("case", sorted(BARE_INPUTS))
def test_a_bare_array_input_gives_the_bits_of_a_constant(case, recording):
    rng = np.random.default_rng(11)
    arrays = {"x": rng.standard_normal((4, 3)), "w": rng.standard_normal((3, 3)),
              "b": rng.standard_normal(3), "eps": np.array(0.5),
              "adj": np.array([[0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0],
                               [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])}
    outs = []
    for wrap in (ad.constant, lambda a: a):
        params = {name: ad.parameter(arrays[name].copy())
                  for name in ("x", "w", "b", "eps")}
        params["row"] = ad.parameter(np.linspace(-1.0, 1.0, 3))
        if recording:
            out = BARE_INPUTS[case](wrap, arrays, params)
            if out.requires_grad:
                out.backward(np.cos(np.arange(out.values.size)).reshape(out.shape))
            outs.append((out.values, [p.grad for p in params.values()]))
        else:
            with ad.no_grad():
                out = BARE_INPUTS[case](wrap, arrays, params)
            assert type(out) is np.ndarray
            outs.append((out, []))
    (constant, constant_grads), (bare, bare_grads) = outs
    assert constant.tobytes() == bare.tobytes() and constant.shape == bare.shape
    for g, h in zip(constant_grads, bare_grads, strict=True):
        assert (g is None and h is None) or np.array_equal(g, h)


def test_no_grad_restores_recording_after_an_error():
    with pytest.raises(NumericalFault):
        with ad.no_grad():
            ad.add(ad.parameter(np.array([np.inf])), ad.constant(1.0))
    assert ad.mul(ad.parameter(np.ones(2)), ad.constant(2.0))._parents
    with pytest.raises(NumericalFault), np.errstate(over="ignore"):
        with ad.no_grad():
            ad.mul(np.array([1e200, 1.0]), np.array([1e200, 1.0]))  # overflows to inf
    product = ad.mul(ad.parameter(np.ones(2)), np.full(2, 2.0))
    assert isinstance(product, ad.Tensor) and product._parents


def test_nested_no_grad_blocks_of_one_instance_restore_recording_at_the_outer_exit():
    block = ad.no_grad()
    with block:
        with block:
            pass
        assert type(ad.mul(ad.parameter(np.ones(2)), np.full(2, 2.0))) is np.ndarray
    assert ad.mul(ad.parameter(np.ones(2)), np.full(2, 2.0))._parents


def test_scalar_with_grad_takes_one_value_per_graph_of_a_stack():
    rng = np.random.default_rng(4)
    a = ad.parameter(rng.standard_normal((3, 4, 2)))
    grad = rng.standard_normal((3, 4, 2))
    loss = ad.scalar_with_grad(a, np.array([1.0, 2.0, 3.0]), grad)
    assert loss.shape == (3,)
    seed = np.array([0.5, -1.0, 2.0])
    loss.backward(seed)
    assert np.array_equal(a.grad, grad * seed[:, None, None])  # block b scaled by seed[b]
    with pytest.raises(ShapeMismatch):
        ad.scalar_with_grad(a, np.ones(2), grad)


# --- one op per layer: dense and gin_aggregate against their compositions ---

def _run(build, arrays, seed_grad):
    """Values, and each input's gradient for the seed gradient, of build(*inputs)."""
    inputs = [ad.parameter(a.copy()) for a in arrays]
    out = build(*inputs)
    out.backward(seed_grad)
    return out, [t.grad for t in inputs]


def _dense_inputs(edges: bool, rng: np.random.Generator) -> list:
    """x, w and b of a dense layer; with edges, pre-activations x @ w + b that
    hold exact +0.0 and -0.0 (x_ik w_kj products that underflow to a zero of
    their sign, plus b of either sign), subnormals of both signs and normal
    values, a pair of rows each."""
    if not edges:
        return [rng.standard_normal((6, 4)), rng.standard_normal((4, 5)), rng.standard_normal(5)]
    scale = np.array([1e-200, -1e-200, 1e-120, -1e-120, 1e190, -1e190])[:, None]
    arrays = [scale * rng.uniform(1.0, 2.0, (6, 4)), np.full((4, 5), 1e-200),
              np.array([0.0, -0.0, 0.0, -0.0, 0.0])]
    pre = arrays[0] @ arrays[1] + arrays[2]
    zero, tiny = pre == 0.0, np.abs(pre) < np.finfo(np.float64).tiny
    assert np.signbit(pre[zero]).any() and not np.signbit(pre[zero]).all()
    assert (pre[tiny & ~zero] > 0).any() and (pre[tiny & ~zero] < 0).any()
    return arrays


@pytest.mark.parametrize("edges", [False, True])
@pytest.mark.parametrize("relu_on", [True, False])
@pytest.mark.parametrize("rate", [0.0, 0.4])
def test_dense_is_its_composition_bit_for_bit(relu_on, rate, edges):
    # Bytes, not values, are compared, so a zero of the wrong sign counts.
    rng = np.random.default_rng(21)
    arrays = _dense_inputs(edges, rng)
    seed_grad = rng.standard_normal((6, 5))
    fused_rng, composed_rng = np.random.default_rng(8), np.random.default_rng(8)
    fused, fused_grads = _run(lambda x, w, b: ad.dense(x, w, b, relu_on, rate, fused_rng),
                              arrays, seed_grad)
    composed, composed_grads = _run(
        lambda x, w, b: dense_reference(x, w, b, relu_on, rate, composed_rng), arrays, seed_grad)
    assert fused.values.tobytes() == composed.values.tobytes()
    for mine, reference in zip(fused_grads, composed_grads):
        assert mine.tobytes() == reference.tobytes()
    # the mask is drawn at the same point of the stream, and nothing else is
    assert fused_rng.bit_generator.state == composed_rng.bit_generator.state
    assert (fused_rng.bit_generator.state == np.random.default_rng(8).bit_generator.state) \
        == (rate == 0.0)
    if relu_on:
        assert np.any(fused.values == 0.0) and np.any(fused_grads[2] != 0.0)
    assert recorded_ops(fused) == 1
    assert recorded_ops(composed) == 2 + relu_on + (rate > 0.0)


@pytest.mark.parametrize("blocks", [False, True])
def test_gin_aggregate_is_its_composition_bit_for_bit(blocks):
    rng = np.random.default_rng(22)
    adjacency = np.triu((rng.random((3, 5, 5) if blocks else (15, 15)) < 0.4).astype(float), 1)
    adjacency = adjacency + np.swapaxes(adjacency, -1, -2)
    arrays = [rng.standard_normal((15, 4)), np.array(0.37)]
    seed_grad = rng.standard_normal((15, 4))
    fused, fused_grads = _run(lambda h, eps: ad.gin_aggregate(h, eps, adjacency),
                              arrays, seed_grad)
    composed, composed_grads = _run(lambda h, eps: gin_aggregate_reference(h, eps, adjacency),
                                    arrays, seed_grad)
    assert np.array_equal(fused.values, composed.values)
    for mine, reference in zip(fused_grads, composed_grads):
        assert np.array_equal(mine, reference)
    assert fused_grads[1].shape == ()
    assert recorded_ops(fused) == 1 and recorded_ops(composed) == 4


@pytest.mark.parametrize("poison", [np.nan, -np.inf, np.inf])
@pytest.mark.parametrize("rate", [0.0, 0.5])
def test_dense_checks_the_pre_activation_that_relu_would_clean(poison, rate):
    # ReLU maps NaN and -Inf to 0: only a check before it sees them
    x = np.ones((2, 2))
    b = np.array([0.0, poison])
    rng = np.random.default_rng(3)
    with np.errstate(invalid="ignore"), pytest.raises(NumericalFault):
        ad.dense(ad.constant(x), ad.parameter(np.eye(2)), ad.parameter(b), True, rate, rng)
    # the fault is raised before the dropout mask is drawn, as the small ops raised it
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def test_dense_checks_the_output_that_dropout_scales():
    # finite before dropout, overflowing once the kept entries are doubled
    big = np.full((8, 1), 1.5e308)
    with np.errstate(over="ignore"), pytest.raises(NumericalFault):
        ad.dense(ad.constant(big), ad.parameter(np.ones((1, 1))), ad.parameter(np.zeros(1)),
                 True, 0.5, np.random.default_rng(0))


def test_dense_and_gin_aggregate_reject_bad_shapes_and_rates():
    x, w, b = ad.constant(np.ones((4, 3))), ad.constant(np.ones((3, 2))), ad.constant(np.ones(2))
    for args in ((x, x, b), (x, w, ad.constant(np.ones(3))), (x, w, ad.constant(np.ones((4, 2)))),
                 (ad.constant(np.ones(3)), w, b)):
        with pytest.raises(ShapeMismatch, match=r"^dense: "):
            ad.dense(*args)
    for rate in (-0.1, 1.0):
        with pytest.raises(ShapeMismatch, match="dropout rate"):
            ad.dense(x, w, b, True, rate, np.random.default_rng(0))
    with pytest.raises(ShapeMismatch, match="dropout rate 0.5 needs a generator"):
        ad.dense(x, w, b, True, 0.5, None)
    h, eps = ad.constant(np.ones((8, 2))), ad.constant(0.0)
    for adjacency, e in ((np.zeros((8, 8, 8)), eps), (np.zeros((2, 4, 3)), eps),
                         (np.zeros((3, 3)), eps), (np.zeros((8, 8)), ad.constant(np.zeros(2)))):
        with pytest.raises(ShapeMismatch, match=r"^gin_aggregate: "):
            ad.gin_aggregate(h, e, adjacency)


def test_a_no_grad_block_in_one_thread_leaves_the_other_threads_ops_recording():
    entered, release, seen, errors = threading.Event(), threading.Event(), [], []

    def hold_a_block_open():
        try:
            with ad.no_grad():
                entered.set()
                release.wait(timeout=60)
                seen.append(ad.mul(ad.parameter(np.ones(2)), np.full(2, 2.0)))
        except BaseException as exc:  # reported below: a thread's error is lost otherwise
            errors.append(exc)
            entered.set()

    worker = threading.Thread(target=hold_a_block_open)
    worker.start()
    try:
        assert entered.wait(timeout=60)
        product = ad.mul(ad.parameter(np.ones(2)), np.full(2, 2.0))
        assert isinstance(product, ad.Tensor) and product._parents
        with ad.no_grad():  # blocks of two threads interleave
            release.set()
            worker.join(timeout=60)
            assert type(ad.add(ad.parameter(np.ones(2)), np.ones(2))) is np.ndarray
    finally:
        release.set()
        worker.join(timeout=60)
    assert errors == [] and len(seen) == 1 and type(seen[0]) is np.ndarray
    assert ad.mul(ad.parameter(np.ones(2)), np.full(2, 2.0))._parents  # recording again


# --- dense's products of a wide weight, split over two threads ----------------


@pytest.fixture
def one_blas_thread(monkeypatch):
    """The bundled OpenBLAS at one thread for the test, through the hold, or,
    where its count cannot be set, by the thread variables; two usable CPUs."""
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    if optim._openblas() is None:
        for name in optim.THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        yield
        return
    with optim.one_blas_thread():
        yield


def pools_built(monkeypatch) -> list:
    """The worker counts of the thread pools built from now on."""
    built = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            built.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return built


def refuse_pools(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was built")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)


# (rows, columns) of wide weights: at the threshold, square, and with an odd
# column count whose middle is no multiple of SPLIT_ALIGN
WIDE = [(2048, 1024), (1500, 1501)]


@pytest.mark.parametrize("rows", [1, 4, 128])
@pytest.mark.parametrize("shape", WIDE, ids=lambda s: f"{s[0]}x{s[1]}")
def test_the_split_products_are_the_whole_ones_byte_for_byte(monkeypatch, one_blas_thread,
                                                             shape, rows):
    assert shape[0] * shape[1] >= ad.SPLIT_VALUES
    built = pools_built(monkeypatch)
    rng = np.random.default_rng(rows)
    w = rng.standard_normal(shape)
    x, g = rng.standard_normal((rows, shape[0])), rng.standard_normal((rows, shape[1]))
    forward, backward = ad._product(x, w), ad._product(g, w.T)
    assert built == [1, 1]
    assert forward.tobytes() == (x @ w).tobytes()
    assert backward.tobytes() == (g @ w.T).tobytes()
    assert forward.flags.c_contiguous and backward.flags.c_contiguous


@pytest.mark.parametrize("shape", WIDE, ids=lambda s: f"{s[0]}x{s[1]}")
def test_dense_gives_the_same_bytes_on_one_and_on_two_cpus(monkeypatch, one_blas_thread,
                                                            shape):
    rng = np.random.default_rng(5)
    arrays = [rng.standard_normal((4, shape[0])), rng.standard_normal(shape),
              rng.standard_normal(shape[1])]
    seed_grad = rng.standard_normal((4, shape[1]))
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(optim, "usable_cpus", lambda: cpus)
        built = pools_built(monkeypatch)
        x, w, b = (ad.parameter(a.copy()) for a in arrays)
        out = ad.dense(x, w, b, relu=True)
        out.backward(seed_grad)
        assert built == ([1, 1] if cpus == 2 else [])
        runs.append([out.values.tobytes()] + [t.grad.tobytes() for t in (x, w, b)])
    assert runs[0] == runs[1]


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("shape", WIDE, ids=lambda s: f"{s[0]}x{s[1]}")
def test_dense_splits_at_two_blas_threads_and_gives_the_one_thread_bytes(monkeypatch, shape,
                                                                         rows):
    blas = optim._openblas()
    if blas is None:
        pytest.skip("the BLAS thread count of this numpy cannot be set")
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(6)
    arrays = [rng.standard_normal((rows, shape[0])), rng.standard_normal(shape)]
    seed_grad = rng.standard_normal((rows, shape[1]))

    def run():
        x, w = (ad.parameter(a.copy()) for a in arrays)
        out = ad.dense(x, w, ad.constant(np.zeros(shape[1])))
        out.backward(seed_grad)
        return [a.tobytes() for a in (out.values, x.grad, w.grad)]

    with optim.one_blas_thread():
        whole = [(arrays[0] @ arrays[1]).tobytes(), (seed_grad @ arrays[1].T).tobytes()]
        at_one = run()
    built = pools_built(monkeypatch)
    found = optim.blas_threads()
    blas[1](2)
    try:
        at_two = run()
        assert optim.blas_threads() == 2
    finally:
        blas[1](found)
    assert built == [1, 1]
    assert at_two == at_one and at_one[:2] == whole


def test_dense_starts_no_thread_below_the_threshold(monkeypatch, one_blas_thread):
    refuse_pools(monkeypatch)
    rng = np.random.default_rng(7)
    # a head_hidden_dim 600 layer's weight, the widest of that config
    x, w = ad.parameter(rng.standard_normal((1, 2400))), ad.parameter(rng.standard_normal((2400, 600)))
    assert w.values.size < ad.SPLIT_VALUES
    ad.dense(x, w, ad.constant(np.zeros(600))).backward(np.ones((1, 600)))
    assert x.grad.shape == (1, 2400)


def test_a_compare_desk_run_starts_no_thread(monkeypatch, one_blas_thread):
    refuse_pools(monkeypatch)
    before = threading.active_count()
    cfg = tr.config_from_dict({  # the acceptance-criterion-7 desk config
        "k": 3, "hidden_dim": 16, "mp_layers": 2, "update_layers": 2, "head_layers": 3,
        "head_hidden_dim": 128, "max_nodes": 16, "dropout": 0.0, "seed": 0, "batch_size": 8,
        "lr": 0.002, "scheduler": {"kind": "none"}, "feature_config": {"scales_J": 2},
        "epochs": 2})
    examples = tr.precompute_targets(random_graph_soup(10, seed=2, n_low=8, n_high=16), cfg)
    rows = tr.compare_losses(examples, cfg)
    assert rows and threading.active_count() == before


def test_an_error_in_the_workers_block_is_raised_by_dense_and_the_count_restored(monkeypatch):
    blas = optim._openblas()
    if blas is None:
        pytest.skip("the BLAS thread count of this numpy cannot be set")
    monkeypatch.setattr(optim, "usable_cpus", lambda: 2)
    matmul = np.matmul

    def fail_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("the worker's block")
        return matmul(*args, **kwargs)

    rng = np.random.default_rng(8)
    x, w = ad.parameter(rng.standard_normal((4, 2048))), ad.parameter(rng.standard_normal((2048, 1024)))
    found = optim.blas_threads()
    blas[1](2)
    try:
        with optim.one_blas_thread():  # a caller's hold: the split runs inside it
            monkeypatch.setattr(np, "matmul", fail_off_the_main_thread)
            with pytest.raises(MemoryError, match="the worker's block"):
                ad.dense(x, w, ad.constant(np.zeros(1024)))
            monkeypatch.setattr(np, "matmul", matmul)
            assert optim.blas_threads() == 1 and optim._hold["open"] == 1
        assert optim.blas_threads() == 2 and optim._hold["open"] == 0
    finally:
        blas[1](found)


def test_the_workers_block_runs_under_the_callers_errstate(monkeypatch, one_blas_thread):
    # pytest turns warnings into errors: an overflow in the worker's block
    # warned, and so raised, when the worker ignored the caller's errstate
    built = pools_built(monkeypatch)
    x, w = np.full((2, 2048), 1e300), np.full((2048, 1024), 1e300)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFault):
            ad.dense(ad.constant(x), ad.parameter(w), ad.constant(np.zeros(1024)))
    assert built == [1]
