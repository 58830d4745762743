import numpy as np
import pytest

from eigenlearn import autodiff as ad
from eigenlearn.errors import NumericalFault, ShapeMismatch
from helpers import max_rel_error, numeric_gradient, project


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
    check_op_gradient(lambda x, y: project(ad.matmul(x, y)), [a, b])


def test_matmul_quadratic_gradient():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3))
    lap = rng.standard_normal((5, 5))
    lap = lap + lap.T
    check_op_gradient(lambda x: project(ad.mul(x, ad.matmul(ad.constant(lap), x))), [a])


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
    ad.relu(x).backward(np.ones((2, 2)))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_relu_blocks_negative_side():
    x = ad.parameter(np.array([-1.0, 2.0]))
    ad.relu(x).backward(np.ones(2))
    assert x.grad.tolist() == [0.0, 1.0]


def test_structural_op_gradients():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 4))
    adj = (rng.random((3, 3)) < 0.5).astype(float)
    adj = np.triu(adj, 1) + np.triu(adj, 1).T
    check_op_gradient(lambda x: project(ad.slice_rows(x, 1, 3)), [a])
    check_op_gradient(lambda x: project(ad.reshape(x, (4, 3))), [a])
    check_op_gradient(lambda x: project(ad.sum_neighbors(x, adj)), [a])


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


def test_backward_with_explicit_seed():
    x = ad.parameter(np.ones((2, 2)))
    y = ad.mul(x, ad.constant(3.0))
    y.backward(seed=np.full((2, 2), 2.0))
    assert np.array_equal(x.grad, np.full((2, 2), 6.0))


def test_constants_do_not_grow_graph():
    a = ad.constant(np.ones((2, 2)))
    b = ad.constant(np.ones((2, 2)))
    out = ad.matmul(a, b)
    assert not out.requires_grad
    assert out._parents == ()


def test_numerical_fault_on_overflow():
    a = ad.constant(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericalFault):
        ad.mul(a, a)


def test_shape_mismatch_on_bad_matmul():
    with pytest.raises(ShapeMismatch):
        ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


def test_dropout_eval_mode_is_identity_without_rng_draw():
    x = ad.parameter(np.ones((4, 4)))
    out = ad.dropout(x, 0.5, rng=None, training=False)
    assert out is x


def test_dropout_training_masks_and_rescales():
    rng = np.random.default_rng(7)
    x = ad.parameter(np.ones((50, 50)))
    out = ad.dropout(x, 0.25, rng, training=True)
    values = np.unique(out.values)
    assert set(np.round(values, 12)) <= {0.0, np.round(1.0 / 0.75, 12)}
    kept = float(np.mean(out.values > 0))
    assert 0.65 < kept < 0.85
    out.backward(np.ones((50, 50)))
    # gradient carries the same mask and scale
    assert np.array_equal(x.grad, out.values)


def test_dropout_deterministic_per_seed():
    x = ad.constant(np.ones((8, 8)))
    a = ad.dropout(x, 0.3, np.random.default_rng(42), training=True)
    b = ad.dropout(x, 0.3, np.random.default_rng(42), training=True)
    assert np.array_equal(a.values, b.values)


def test_no_grad_records_nothing_and_changes_no_value(monkeypatch):
    rng = np.random.default_rng(3)
    w, x = ad.parameter(rng.standard_normal((3, 2))), ad.constant(rng.standard_normal((4, 3)))

    def forward():
        return project(ad.relu(ad.add(ad.matmul(x, w), ad.parameter(np.ones(2)))))

    produced = []
    result = ad._result

    def spy(*args):
        produced.append(result(*args))
        return produced[-1]

    monkeypatch.setattr(ad, "_result", spy)
    recorded = forward()
    assert all(t._parents for t in produced)
    produced.clear()
    with ad.no_grad():
        quiet = forward()
    assert len(produced) == 4
    assert all(t._parents == () and t._vjp is None and not t.requires_grad for t in produced)
    assert np.array_equal(quiet.values, recorded.values)
    assert forward()._parents  # recording resumes after the block


def test_no_grad_restores_recording_after_an_error():
    with pytest.raises(NumericalFault):
        with ad.no_grad():
            ad.add(ad.parameter(np.array([np.inf])), ad.constant(1.0))
    assert ad.mul(ad.parameter(np.ones(2)), ad.constant(2.0))._parents


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
