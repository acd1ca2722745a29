import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framemoe import autodiff
from framemoe.autodiff import (
    AutodiffError,
    Graph,
    NumericalError,
    ShapeError,
    Tensor,
    _accum,
    _lift,
    _node,
    _note_kink,
    abs_,
    add,
    affine,
    backprop,
    check_nodes,
    check_outputs,
    clamp_min,
    concat,
    const,
    finite_difference_check,
    forward,
    log_softmax_rows,
    matmul,
    mean_all,
    mean_rows,
    mixture,
    mul,
    neg,
    no_tape,
    param,
    record_kinks,
    relu_affine,
    reshape,
    softmax_rows,
    sqrt,
    sub,
    sum_all,
    sum_segments,
    take_rows,
    working_dtype,
)

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                          allow_infinity=False)


def rand(rng, *shape):
    return rng.standard_normal(shape)


# Oracles: the compositions the fused library ops replaced, kept as they were.

def relu(a) -> Tensor:
    a = _lift(a)
    _note_kink(a.data)
    mask = a.data > 0.0

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * mask)

    return _node("relu", lambda: np.maximum(a.data, 0.0), (a,), backward)


def scatter_rows(a, rows: np.ndarray, n_rows: int) -> Tensor:
    """An (n_rows, cols) tensor holding a's rows at the given distinct indices
    and zeros elsewhere; the inverse of take_rows."""
    a = _lift(a)
    if a.ndim != 2 or a.shape[0] != len(rows):
        raise ShapeError(f"scatter_rows: {len(rows)} indices for operand {a.shape}")
    data = np.zeros((n_rows, a.shape[1]))
    data[rows] = a.data

    def backward(out: Tensor) -> None:
        _accum(a, out.grad[rows])

    return _node("scatter_rows", lambda: data, (a,), backward)


def col(a, j: int) -> Tensor:
    """Column j of a 2-d tensor, kept as a (rows, 1) slice."""
    a = _lift(a)
    if a.ndim != 2:
        raise ShapeError(f"col: expects a 2-d operand, got {a.shape}")
    if not 0 <= j < a.shape[1]:
        raise ShapeError(f"col: index {j} out of range for shape {a.shape}")

    def backward(out: Tensor) -> None:
        g = np.zeros_like(a.data)
        g[:, j : j + 1] = out.grad
        _accum(a, g, fresh=True)

    return _node("col", lambda: a.data[:, j : j + 1].copy(), (a,), backward)


def affine_oracle(x, w, b) -> Tensor:
    return add(matmul(x, w), b)


def relu_affine_oracle(x, w, b) -> Tensor:
    return relu(add(matmul(x, w), b))


def sum_rows_oracle(parts, n_rows: int, cols: int) -> Tensor:
    """Zeros plus each (tensor, rows) part scattered to (n_rows, cols), in order."""
    z = const(np.zeros((n_rows, cols)))
    for t, rows in parts:
        z = add(z, t if rows is None else scatter_rows(t, rows, n_rows))
    return z


def mixture_oracle(retained, terms, n_rows: int) -> Tensor:
    """Each (n, rows, y) term weighted by column n of `retained` at its rows,
    scattered and added to zeros in order."""
    parts = [(mul(col(retained, n) if rows is None else take_rows(col(retained, n), rows), y),
              rows) for n, rows, y in terms]
    return sum_rows_oracle(parts, n_rows, terms[0][2].shape[1])


def same_bits(a, b) -> bool:
    """Equal shapes and values, NaN where NaN, and the same sign on every zero;
    or both None, as the gradient of a leaf the output does not reach."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def grads_of(build, leaves, upstream):
    """The value of build(), and each leaf's gradient of sum(value * upstream)."""
    for leaf in leaves:
        leaf.zero_grad()
    out = build()
    value = out.data.copy()
    backprop(sum_all(mul(out, const(upstream))))
    return value, [leaf.grad for leaf in leaves]


def numeric_grad(loss_fn, leaf: Tensor, step: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar-valued closure w.r.t. one leaf."""
    flat = leaf.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + step
        hi = float(loss_fn().data)
        flat[i] = keep - step
        lo = float(loss_fn().data)
        flat[i] = keep
        out[i] = (hi - lo) / (2.0 * step)
    return out.reshape(leaf.data.shape)


def check_grad(loss_fn, leaf: Tensor, atol: float = 1e-6) -> None:
    leaf.zero_grad()
    backprop(loss_fn())
    numeric = numeric_grad(loss_fn, leaf)
    np.testing.assert_allclose(leaf.grad, numeric, atol=atol, rtol=1e-4)


def test_add_mul_match_numpy():
    rng = np.random.default_rng(0)
    a, b = rand(rng, 3, 4), rand(rng, 3, 4)
    np.testing.assert_array_equal(add(const(a), const(b)).data, a + b)
    np.testing.assert_array_equal(mul(const(a), const(b)).data, a * b)
    np.testing.assert_array_equal(sub(const(a), const(b)).data, a - b)
    np.testing.assert_array_equal(neg(const(a)).data, -a)


def test_matmul_gradients_match_hand_formula():
    rng = np.random.default_rng(1)
    a = param("a", rand(rng, 3, 4))
    b = param("b", rand(rng, 4, 2))
    g = rand(rng, 3, 2)
    out = matmul(a, b)
    loss = sum_all(mul(out, const(g)))
    backprop(loss)
    np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
    np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)


def test_affine_bias_gradient_is_column_sum():
    rng = np.random.default_rng(2)
    x = const(rand(rng, 5, 3))
    w = param("w", rand(rng, 3, 2))
    b = param("b", rand(rng, 2))
    backprop(sum_all(affine(x, w, b)))
    np.testing.assert_allclose(b.grad, np.full(2, 5.0), atol=1e-12)


def test_relu_gradient_masks_negatives():
    x = param("x", [[-2.0, 3.0, -0.5, 4.0]])
    backprop(sum_all(relu(x)))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0, 1.0]])


def test_abs_subgradient_zero_at_zero():
    x = param("x", [[-2.0, 0.0, 3.0]])
    backprop(sum_all(abs_(x)))
    np.testing.assert_array_equal(x.grad, [[-1.0, 0.0, 1.0]])


def test_clamp_min_gradient_zero_where_floor_binds():
    x = param("x", [[0.5, 2.0, -1.0]])
    out = clamp_min(x, 1.0)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0, 1.0]])
    backprop(sum_all(out))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])


@pytest.mark.parametrize("op,domain", [
    (sqrt, (0.5, 4.0)),
])
def test_elementwise_gradients_match_finite_differences(op, domain):
    rng = np.random.default_rng(3)
    lo, hi = domain
    x = param("x", rng.uniform(lo, hi, size=(4, 3)))
    check_grad(lambda: sum_all(op(x)), x)


@given(arrays(np.float64, (4, 3), elements=finite_floats))
@settings(max_examples=50, deadline=None)
def test_softmax_rows_are_distributions(logits):
    y = softmax_rows(const(logits)).data
    assert np.all(y >= 0.0)
    np.testing.assert_allclose(y.sum(axis=1), np.ones(4), atol=1e-12)


@given(arrays(np.float64, (3, 5), elements=finite_floats),
       st.floats(min_value=-100.0, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_softmax_shift_invariance(logits, shift):
    base = softmax_rows(const(logits)).data
    shifted = softmax_rows(const(logits + shift)).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_softmax_stable_for_huge_logits():
    y = softmax_rows(const([[1e4, 1e4 - 1.0, 0.0]])).data
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y.sum(), 1.0, atol=1e-12)


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(4)
    logits = rand(rng, 6, 4)
    np.testing.assert_allclose(log_softmax_rows(const(logits)).data,
                               np.log(softmax_rows(const(logits)).data),
                               atol=1e-12)


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    x = param("x", rand(rng, 3, 4))
    w = const(rand(rng, 3, 4))
    check_grad(lambda: sum_all(mul(softmax_rows(x), w)), x)
    check_grad(lambda: sum_all(mul(log_softmax_rows(x), w)), x)


def test_structural_op_gradients():
    rng = np.random.default_rng(6)
    x = param("x", rand(rng, 4, 3))
    y = param("y", rand(rng, 2, 3))
    w = const(rand(rng, 3, 4))
    check_grad(lambda: sum_all(mul(reshape(x, (3, 4)), w)), x)
    check_grad(lambda: sum_all(concat([x, y], axis=0)), y)
    check_grad(lambda: sum_all(col(x, 1)), x)
    check_grad(lambda: mean_all(x), x)
    check_grad(lambda: sum_all(mul(sum_segments(mul(x, x), 2), y)), x)
    check_grad(lambda: sum_all(mean_rows(x)), x)
    rows = np.array([3, 0])
    check_grad(lambda: sum_all(mul(take_rows(x, rows), y)), x)
    check_grad(lambda: sum_all(mul(scatter_rows(y, rows, 4), const(w.data.T))), y)
    weights = param("weights", rand(rng, 4, 2))
    for leaf in (y, x, weights):
        check_grad(lambda: sum_all(mul(mixture(weights, [(0, rows, y), (1, None, x)], 4),
                                       const(w.data.T))), leaf)


def test_col_takes_the_right_column():
    x = const([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(col(x, 1).data, [[2.0], [4.0]])


def test_broadcast_gradients_unbroadcast_correctly():
    a = param("a", np.ones((3, 4)))
    b = param("b", np.ones((1, 4)))
    s = param("s", 2.0)
    backprop(sum_all(add(a, b)))
    np.testing.assert_array_equal(b.grad, np.full((1, 4), 3.0))
    b.zero_grad()
    backprop(sum_all(mul(a, s)))
    np.testing.assert_allclose(s.grad, 12.0)


def test_mean_rows_is_exactly_sum_rows_over_n():
    # The balancing loss relies on this being bitwise, not just close.
    rng = np.random.default_rng(7)
    x = rng.standard_normal((13, 5))
    lhs = mean_rows(const(x)).data
    rhs = np.sum(x, axis=0, keepdims=True) / 13.0
    np.testing.assert_array_equal(lhs, rhs)


def test_shared_subgraph_accumulates_gradient():
    x = param("x", 3.0)
    y = param("y", 4.0)
    s = mul(x, y)
    backprop(add(s, s))
    np.testing.assert_allclose(x.grad, 8.0)
    np.testing.assert_allclose(y.grad, 6.0)


def test_deep_chain_does_not_recurse():
    x = param("x", 1.0)
    node = x
    for _ in range(5000):
        node = add(node, 0.0)
    backprop(node)
    np.testing.assert_allclose(x.grad, 1.0)


def test_backprop_rejects_non_scalar():
    x = param("x", [[1.0, 2.0]])
    with pytest.raises(AutodiffError):
        backprop(add(x, x))


def test_shape_errors_name_the_op():
    with pytest.raises(ShapeError, match="matmul"):
        matmul(const(np.ones((2, 3))), const(np.ones((4, 2))))
    with pytest.raises(ShapeError, match="matmul"):
        matmul(const(np.ones(3)), const(np.ones(3)))
    with pytest.raises(ShapeError, match="softmax"):
        softmax_rows(const(np.ones(3)))
    with pytest.raises(ShapeError, match="col"):
        col(const(np.ones((2, 3))), 5)
    with pytest.raises(ShapeError, match="concat"):
        concat([], axis=0)
    with pytest.raises(ShapeError, match="add"):
        add(const(np.ones((2, 3))), const(np.ones((4, 5))))
    with pytest.raises(ShapeError, match="relu_affine"):
        relu_affine(const(np.ones((2, 3))), const(np.ones((2, 3))), const(np.ones(3)))
    with pytest.raises(ShapeError, match="affine"):
        affine(const(np.ones((2, 3))), const(np.ones((3, 4))), const(np.ones(5)))
    weights, part = const(np.ones((3, 2))), const(np.ones((1, 2)))
    with pytest.raises(ShapeError, match="mixture"):
        mixture(weights, [(0, np.array([0, 1]), part)], 3)
    with pytest.raises(ShapeError, match="mixture"):
        mixture(weights, [(0, None, part)], 3)
    with pytest.raises(ShapeError, match="mixture"):
        mixture(weights, [(2, np.array([1]), part)], 3)
    with pytest.raises(ShapeError, match="mixture"):
        mixture(weights, [(0, np.array([1]), part)], 4)
    with pytest.raises(ShapeError, match="mixture"):
        mixture(weights, [], 3)


def _consume(build):
    """A pass that hands out build()'s value, checked where it leaves."""
    out = build()
    check_outputs("pass output", [out.data], build)
    return out


# Passes whose first non-finite node is a const leaf, a sqrt and a
# log_softmax_rows over a parameter row that already holds an inf (a leaf
# made before the pass is not checked), with the op name each error must
# carry (None: any message).
_W = param("w", np.array([1.0, 2.0]))
_INF_ROW = param("inf_row", np.array([[np.inf, 0.0]]))
NONFINITE_PASSES = [
    (lambda: sum_all(add(const(np.inf), _W)), None),
    (lambda: sum_all(sqrt(mul(_W, -1.0))), "sqrt"),
    (lambda: sum_all(log_softmax_rows(_INF_ROW)), "log_softmax_rows"),
]


def test_nonfinite_values_raise_numerical_error():
    with np.errstate(invalid="ignore"):
        for build, op in NONFINITE_PASSES:
            with pytest.raises(NumericalError, match=op):
                _consume(build)


def test_tape_free_pass_names_the_same_op():
    with np.errstate(invalid="ignore"):
        for build, op in NONFINITE_PASSES:
            with pytest.raises(NumericalError) as taped:
                _consume(build)
            with no_tape(), pytest.raises(NumericalError) as tape_free:
                _consume(build)
            assert str(tape_free.value) == str(taped.value)
            if op is not None:
                assert str(taped.value).startswith(f"{op}:")


def test_nodes_are_checked_only_inside_check_nodes():
    with np.errstate(invalid="ignore"):
        assert np.isnan(sqrt(const(-1.0)).data)
        with check_nodes(), pytest.raises(NumericalError, match="sqrt"):
            sqrt(const(-1.0))
        assert np.isnan(sqrt(const(-1.0)).data)
    with check_nodes(), pytest.raises(NumericalError, match="'x'"):
        param("x", np.array([np.nan]))


def test_check_outputs_passes_finite_values_and_names_what_the_rerun_missed():
    calls = []
    check_outputs("outputs", [np.ones(3), np.zeros((2, 2))], lambda: calls.append(1))
    assert calls == []
    # A re-run that raises nothing still ends in an error naming the outputs.
    with pytest.raises(NumericalError, match="outputs: non-finite"):
        check_outputs("outputs", [np.ones(3), np.array([np.inf])], lambda: calls.append(1))
    assert calls == [1]


def test_graph_forward_backward_and_frozen():
    rng = np.random.default_rng(8)
    params = {
        "w": param("w", rand(rng, 3, 2)),
        "frozen_w": param("frozen_w", rand(rng, 2, 1), frozen=True),
    }
    x = const(rand(rng, 4, 3))

    def build():
        h = relu(matmul(x, params["w"]))
        return sum_all(matmul(h, params["frozen_w"]))

    graph = Graph(build=build, params=params)
    out = forward(graph)
    h = np.maximum(x.data @ params["w"].data, 0.0)
    assert float(out.data) == pytest.approx(float(np.sum(h @ params["frozen_w"].data)))
    backprop(out)
    assert params["w"].grad.shape == (3, 2)
    # Frozen parameters never receive a gradient.
    assert params["frozen_w"].grad is None


def test_finite_difference_check_passes_on_smooth_graph():
    rng = np.random.default_rng(9)
    params = {"w": param("w", rand(rng, 3, 3)), "b": param("b", rand(rng, 3))}
    x = const(rand(rng, 5, 3))

    def build():
        return mean_all(mul(softmax_rows(affine(x, params["w"], params["b"])),
                            log_softmax_rows(mul(x, x))))

    graph = Graph(build=build, params=params)
    report = finite_difference_check(graph)
    assert report.passed
    assert report.max_rel_err < 1e-4
    assert {c.name for c in report.checks} == {"w", "b"}


def test_finite_difference_check_names_the_op_of_a_nonfinite_probe():
    # The lower probe takes sqrt of a negative entry.
    w = param("w", np.array([1.0, 1e-6]))
    graph = Graph(build=lambda: sum_all(sqrt(w)), params={"w": w})
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="sqrt"):
        finite_difference_check(graph, step=1e-5)


def test_finite_difference_check_catches_wrong_gradient():
    w = param("w", np.array(2.0))

    def bad_square(t):
        def backward_fn(out):
            t.grad = (t.grad or 0.0) + 3.0 * t.data * out.grad  # wrong: 3x not 2x

        return Tensor(t.data * t.data, _parents=(t,), _backward=backward_fn)

    graph = Graph(build=lambda: bad_square(w), params={"w": w})
    report = finite_difference_check(graph)
    assert not report.passed
    assert report.max_rel_err > 1e-4


def test_finite_difference_check_fails_a_nan_gradient():
    # clamp_min's backward passes sqrt's inf slope times a zero mask: NaN.
    w = param("w", np.array([-1.0]))
    graph = Graph(build=lambda: sum_all(sqrt(clamp_min(w, 0.0))), params={"w": w})
    with np.errstate(divide="ignore", invalid="ignore"):
        report = finite_difference_check(graph)
    assert np.isnan(w.grad).all()
    (check,) = report.checks
    assert not check.passed and np.isnan(check.max_rel_err)
    assert not report.passed and np.isnan(report.max_rel_err)


def test_frozen_parameters_are_skipped_not_checked():
    rng = np.random.default_rng(10)
    params = {"w": param("w", rand(rng, 2, 2)),
              "locked": param("locked", rand(rng, 2, 2), frozen=True)}
    graph = Graph(build=lambda: sum_all(matmul(params["w"], params["locked"])),
                  params=params)
    report = finite_difference_check(graph)
    by_name = {c.name: c for c in report.checks}
    assert by_name["locked"].skipped
    assert by_name["locked"].passed
    assert not by_name["w"].skipped
    assert report.passed


def test_a_probe_through_a_node_no_op_made_is_a_full_build():
    # A hand-made node has no compute closure a replay could call again.
    w = param("w", np.array([2.0]))

    def square(t):
        return Tensor(t.data * t.data, _parents=(t,), _backward=lambda out: None)

    graph = Graph(build=lambda: sum_all(square(w)), params={"w": w})
    assert float(forward(graph).data) == 4.0
    w.data[0] = 3.0
    assert float(forward(graph, "w").data) == 9.0


def test_record_kinks_collects_distances():
    with record_kinks() as kinks:
        relu(const([[0.5, -2.0]]))
        abs_(const([[-0.25]]))
        clamp_min(const([[1.1]]), 1.0)
    assert kinks == [0.5, 0.25, pytest.approx(0.1)]
    # Outside the context nothing is recorded.
    relu(const([[0.01]]))
    assert len(kinks) == 3


def test_record_kinks_takes_one_margin_per_kinked_op_with_or_without_tape():
    x = param("x", np.array([[0.3, -0.7], [2.0, -0.05]]))
    with record_kinks() as kinks:
        relu(x)
        abs_(x)
        clamp_min(x, 0.25)
        with no_tape():
            relu(x)
            clamp_min(x, -1.0)
    assert kinks == [0.05, 0.05, pytest.approx(0.05), 0.05, pytest.approx(0.3)]
    with record_kinks() as inner:
        pass
    assert inner == []


def test_batching_ops_values():
    x = np.arange(12.0).reshape(6, 2)
    np.testing.assert_array_equal(sum_segments(const(x), 3).data,
                                  [x[:3].sum(axis=0), x[3:].sum(axis=0)])
    rows = np.array([5, 0])
    np.testing.assert_array_equal(take_rows(const(x), rows).data, x[rows])
    back = scatter_rows(take_rows(const(x), rows), rows, 6).data
    np.testing.assert_array_equal(back[rows], x[rows])
    assert not np.any(back[[1, 2, 3, 4]])
    np.testing.assert_array_equal(reshape(const(x), (2, 6)).data, x.reshape(2, 6))
    with pytest.raises(ShapeError, match="sum_segments"):
        sum_segments(const(x), 4)
    with pytest.raises(ShapeError, match="reshape"):
        reshape(const(x), (5, 2))


def test_no_tape_nodes_keep_no_graph():
    x = param("x", np.ones((2, 2)))
    with no_tape():
        y = mul(relu(x), 2.0)
        z = sum_all(y)
    assert y._parents == () and y._backward is None
    assert z._parents == () and z._backward is None
    assert float(z.data) == 8.0
    # Outside the context the tape records again.
    assert mul(x, 2.0)._parents


def test_constant_operands_build_no_graph():
    a = const(np.ones((2, 2)))
    assert matmul(a, a)._parents == ()
    assert add(a, param("p", np.ones((2, 2))))._parents


def test_backprop_keeps_leaf_grads_and_drops_interior_ones():
    rng = np.random.default_rng(22)
    w = param("w", rand(rng, 3, 2))
    x = const(rand(rng, 4, 3))
    hidden = relu(matmul(x, w))
    out = sum_all(mul(hidden, hidden))
    backprop(out)
    h = np.maximum(x.data @ w.data, 0.0)
    np.testing.assert_allclose(w.grad, x.data.T @ (2.0 * h), atol=1e-12)
    assert hidden.grad is None and out.grad is None
    assert x.grad is None


def _released_graph(rng):
    """A matmul -> relu -> mul -> sum_all graph: its root, a weak reference to
    the matmul node's value (Tensor has no weakref slot, and only the node
    holds that array), its leaves and its constant multiplier."""
    w = param("w", rand(rng, 3, 2))
    x = param("x", rand(rng, 4, 3))
    g = rand(rng, 4, 2)
    hidden = matmul(x, w)
    root = sum_all(mul(relu(hidden), const(g)))
    return root, weakref.ref(hidden.data), w, x, g


def test_backprop_releases_the_tape_it_walks():
    rng = np.random.default_rng(24)
    root, hidden, w, x, g = _released_graph(rng)
    assert hidden() is not None
    backprop(root)
    # Freed by reference counting alone: no gc.collect().
    assert hidden() is None
    assert root._parents == () and root.grad is None
    upstream = (x.data @ w.data > 0.0) * g
    np.testing.assert_allclose(w.grad, x.data.T @ upstream, atol=1e-12)
    np.testing.assert_allclose(x.grad, upstream @ w.data.T, atol=1e-12)


def test_second_backprop_of_a_consumed_graph_raises():
    root, _, w, x, _ = _released_graph(np.random.default_rng(25))
    backprop(root)
    w_grad, x_grad = w.grad.copy(), x.grad.copy()
    with pytest.raises(AutodiffError, match="already consumed"):
        backprop(root)
    np.testing.assert_array_equal(w.grad, w_grad)
    np.testing.assert_array_equal(x.grad, x_grad)


def test_consumed_node_reused_as_an_operand_is_a_constant():
    w = param("w", np.array([[2.0]]))
    v = param("v", np.array([[3.0]]))
    hidden = mul(w, w)
    backprop(sum_all(hidden))
    w.zero_grad()
    backprop(sum_all(mul(hidden, v)))
    assert w.grad is None
    np.testing.assert_array_equal(v.grad, [[4.0]])


def test_finite_difference_check_consumes_its_base_graph_and_reuses_its_stages(monkeypatch):
    rng = np.random.default_rng(26)
    params = {"w": param("w", rand(rng, 3, 3)), "v": param("v", rand(rng, 3, 2))}
    x = const(rand(rng, 5, 3))
    base = {}

    def build():
        hidden = softmax_rows(matmul(x, params["w"]))
        out = mean_all(log_softmax_rows(mul(matmul(hidden, params["v"]),
                                            matmul(hidden, params["v"]))))
        base.setdefault("hidden", hidden)
        base.setdefault("root", out)
        return out

    graph = Graph(build=build, params=params)
    replayed = finite_difference_check(graph)
    # Every probe a full build instead of a replay.
    real = autodiff.forward
    monkeypatch.setattr(autodiff, "forward", lambda graph, name=None: real(graph))
    rebuilt = finite_difference_check(Graph(build=build, params=params))
    assert replayed.passed and replayed.checks == rebuilt.checks
    assert base["root"]._parents == () and base["hidden"]._parents == ()


def _special_values(rng, shape):
    """Random values with +0, -0, NaN, +Inf and -Inf planted at random entries."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    for value in (0.0, -0.0, np.nan, np.inf, -np.inf):
        flat[rng.integers(flat.size)] = value
    return x


@pytest.mark.parametrize("fused,oracle", [(affine, affine_oracle),
                                          (relu_affine, relu_affine_oracle)],
                         ids=["affine", "relu_affine"])
def test_fused_affine_ops_match_their_compositions_bit_for_bit(fused, oracle):
    rng = np.random.default_rng(30)
    shapes = [(1, 1, 1), (2, 3, 4), (7, 5, 3)]
    shapes += [tuple(int(v) for v in rng.integers(1, 40, size=3)) for _ in range(8)]
    # The expert layers at the shipped shapes (rows, in, hidden): toy, `long`, audit.
    shapes += [(992, 80, 64), (4080, 80, 128), (18, 18, 12)]
    for rows, inner, cols in shapes:
        for special in (False, True):
            draw = _special_values if special else (lambda r, shape: r.standard_normal(shape))
            x = param("x", draw(rng, (rows, inner)))
            w = param("w", draw(rng, (inner, cols)))
            b = param("b", draw(rng, (cols,)))
            if not special:
                # Exact zeros reach the relu's kink from both sides.
                x.data[0, :] = 0.0
                b.data[0] = -0.0
            upstream = draw(rng, (rows, cols))
            with np.errstate(all="ignore"):
                got = grads_of(lambda: fused(x, w, b), (x, w, b), upstream)
                want = grads_of(lambda: oracle(x, w, b), (x, w, b), upstream)
            assert same_bits(got[0], want[0]), (rows, inner, cols, special)
            for name, g, h in zip("xwb", got[1], want[1]):
                assert same_bits(g, h), (name, rows, inner, cols, special)


def assert_mixture_matches_chain(retained, terms, n_rows, upstream):
    leaves = [retained, *(y for _, _, y in terms)]
    with np.errstate(all="ignore"):
        got = grads_of(lambda: mixture(retained, terms, n_rows), leaves, upstream)
        want = grads_of(lambda: mixture_oracle(retained, terms, n_rows), leaves, upstream)
    assert same_bits(got[0], want[0])
    for leaf, g, h in zip(leaves, got[1], want[1]):
        assert same_bits(g, h), leaf.name


def test_mixture_matches_the_scatter_and_add_chain_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(40):
        n_rows, cols = int(rng.integers(2, 30)), int(rng.integers(1, 6))
        special = trial % 2 == 1
        draw = _special_values if special else (lambda r, shape: r.standard_normal(shape))
        experts = int(rng.integers(1, 5))
        retained = param("retained", draw(rng, (n_rows, experts)))
        terms = []
        for n in rng.integers(experts, size=int(rng.integers(1, 5))):
            if rng.random() < 0.25:
                rows = None
            else:
                size = int(rng.integers(1, n_rows + 1))
                rows = np.sort(rng.choice(n_rows, size=size, replace=False))
            count = n_rows if rows is None else len(rows)
            terms.append((int(n), rows, param("y", draw(rng, (count, cols)))))
        assert_mixture_matches_chain(retained, terms, n_rows, draw(rng, (n_rows, cols)))
    # A -0 weight gradient: one term hands it on as it is, two sum it to +0.
    retained = param("retained", np.full((2, 2), 0.5))
    lone = (0, None, param("y", [[1.0], [-2.0]]))
    for terms in ([lone], [lone, (1, np.array([1]), param("y1", [[3.0]]))]):
        assert_mixture_matches_chain(retained, terms, 2, np.array([[-0.0], [0.0]]))


def test_relu_affine_records_the_kink_of_its_composition():
    rng = np.random.default_rng(32)
    x, w, b = rand(rng, 6, 4), rand(rng, 4, 5), rand(rng, 5)
    with record_kinks() as fused, no_tape():
        relu_affine(const(x), const(w), const(b))
    with record_kinks() as oracle:
        relu_affine_oracle(const(x), const(w), const(b))
    assert fused == oracle and len(fused) == 1


def test_check_nodes_names_the_fused_affine_ops():
    w, b = param("w", np.eye(2)), param("b", np.zeros(2))
    with np.errstate(invalid="ignore"):
        for values in ([[np.inf, 1.0]], [[np.nan, 1.0]]):
            x = param("x", np.array(values))
            with check_nodes(), pytest.raises(NumericalError, match="^affine:"):
                affine(x, w, b)
            with check_nodes(), pytest.raises(NumericalError, match="^relu_affine:"):
                relu_affine(x, w, b)
        # A -inf pre-activation that the relu clips to 0 is still named.
        x, w, b = param("x", np.array([[-np.inf]])), param("w", [[1.0]]), param("b", [0.0])
        assert relu_affine(x, w, b).data == 0.0
        with check_nodes(), pytest.raises(NumericalError, match="^relu_affine:"):
            relu_affine(x, w, b)


def test_gradient_hand_off_never_aliases():
    rng = np.random.default_rng(34)
    g = rand(rng, 3, 4)

    def loss(out):
        return sum_all(mul(out, const(g)))

    z = param("z", rand(rng, 3, 4))
    backprop(loss(mul(z, z)))
    np.testing.assert_array_equal(z.grad, 2.0 * (g * z.data))

    x = param("x", rand(rng, 3, 4))
    backprop(loss(add(x, x)))
    np.testing.assert_array_equal(x.grad, g + g)

    x = param("x", rand(rng, 3, 2))
    w1, b1 = param("w1", rand(rng, 2, 4)), param("b1", rand(rng, 4))
    w2, b2 = param("w2", rand(rng, 2, 4)), param("b2", rand(rng, 4))
    g2 = rand(rng, 3, 4)
    backprop(add(loss(affine(x, w1, b1)), sum_all(mul(affine(x, w2, b2), const(g2)))))
    np.testing.assert_array_equal(x.grad, g @ w1.data.T + g2 @ w2.data.T)
    np.testing.assert_array_equal(w1.grad, x.data.T @ g)
    np.testing.assert_array_equal(w2.grad, x.data.T @ g2)
    np.testing.assert_array_equal(b1.grad, g.sum(axis=0))
    np.testing.assert_array_equal(b2.grad, g2.sum(axis=0))

    x = param("x", rand(rng, 3, 2))
    g6 = rand(rng, 6, 2)
    backprop(sum_all(mul(concat([x, x], axis=0), const(g6))))
    np.testing.assert_array_equal(x.grad, g6[:3] + g6[3:])
    for a, b in ((z, x), (w1, w2), (b1, b2), (w1, b1)):
        assert not np.shares_memory(a.grad, b.grad)

    # One relu_affine output feeding two ops: its backward masks the
    # gradient it owns in place, and writes no other array.
    x, w = param("x", rand(rng, 3, 2)), param("w", rand(rng, 2, 4))
    b, c = param("b", rand(rng, 4)), param("c", rand(rng, 3, 4))
    h = relu_affine(x, w, b)
    mask = h.data > 0.0
    assert mask.any() and not mask.all()
    inputs = [a.copy() for a in (g, g2, h.data, x.data, w.data, b.data, c.data)]
    backprop(add(loss(add(h, c)), sum_all(mul(h, const(g2)))))
    gh = (g + g2) * mask
    np.testing.assert_array_equal(x.grad, gh @ w.data.T)
    np.testing.assert_array_equal(w.grad, x.data.T @ gh)
    np.testing.assert_array_equal(b.grad, gh.sum(axis=0))
    np.testing.assert_array_equal(c.grad, g)
    for before, after in zip(inputs, (g, g2, h.data, x.data, w.data, b.data, c.data)):
        np.testing.assert_array_equal(after, before)
    for u, v in ((x, w), (x, c), (w, c), (b, c)):
        assert not np.shares_memory(u.grad, v.grad)


def test_working_dtype_sets_the_dtype_of_nodes_lifted_constants_and_gradients():
    rng = np.random.default_rng(41)
    master = rand(rng, 3, 2)
    with working_dtype(np.float32):
        w = param("w", master)
        x = const(rand(rng, 4, 3))
        # A 0-d float64 array and a float64 bias are cast as they are lifted.
        mixed = mixture(np.ones((4, 2)),
                        [(0, None, affine(x, w, np.zeros(2))),
                         (1, np.array([1, 3]),
                          relu_affine(take_rows(x, np.array([0, 2])), w, np.ones(2)))], 4)
        out = mean_all(mul(mixed, np.array(2.0)))
        # The mixture adds in float32: 1 + 2**-24 rounds to 1 at each add,
        # while a float64 sum rounded once would give 1 + 2**-23.
        tiny = const([[2.0 ** -24]])
        summed = mixture(np.ones((1, 3)), [(0, None, const([[1.0]])), (1, None, tiny),
                                           (2, None, tiny)], 1)
        scalar = param("s", np.array(3.0))
        scaled = mul(scalar, 2.0)
    assert {t.data.dtype for t in (w, x, mixed, out, summed)} == {np.dtype(np.float32)}
    np.testing.assert_array_equal(w.data, master.astype(np.float32))
    assert summed.data[0, 0] == 1.0
    # A float32 graph keeps its dtype when backpropagated outside the block.
    backprop(out)
    backprop(scaled)
    assert w.grad.dtype == scalar.grad.dtype == np.float32
    assert const(1.0).data.dtype == np.float64
    with pytest.raises(ShapeError), working_dtype(np.float32):
        add(np.ones(2), np.ones(3))
    assert add(np.ones(2), np.ones(2)).data.dtype == np.float64


def _within(scope, block):
    with scope:
        block()


def _in_forward(block):
    def build():
        block()
        return const(0.0)

    forward(Graph(build=build, params={}))


# Each mode of the engine: the module switch it sets and how a block runs
# inside it.
MODE_SWITCHES = {
    "_KINK_TRACE": lambda block: _within(record_kinks(), block),
    "_TAPE": lambda block: _within(no_tape(), block),
    "_DTYPE": lambda block: _within(working_dtype(np.float32), block),
    "_CHECK_NODES": lambda block: _within(check_nodes(), block),
    "_RECORD": _in_forward,
}


class _Raised(Exception):
    pass


def _raise():
    raise _Raised


@pytest.mark.parametrize("switch", MODE_SWITCHES)
def test_each_mode_switch_is_restored_after_a_block_that_raises_and_after_a_nested_one(switch):
    run = MODE_SWITCHES[switch]

    def value():
        return getattr(autodiff, switch)

    before = value()
    seen = []

    def outer():
        held = value()
        seen.append(held)
        run(lambda: seen.append(value()))
        assert value() is held
        with pytest.raises(_Raised):
            run(_raise)
        assert value() is held

    run(outer)
    assert value() is before
    # The switch was set inside both blocks: a new recorder per block where
    # the mode holds one.
    assert seen[0] is not before and seen[1] is not before
    assert (seen[1] is not seen[0]) == (switch in ("_KINK_TRACE", "_RECORD"))
    with pytest.raises(_Raised):
        run(_raise)
    assert value() is before


def test_a_build_that_raises_leaves_no_recording_active():
    records = []

    def build():
        records.append(autodiff._RECORD)
        add(const(1.0), const(2.0))
        raise _Raised

    with pytest.raises(_Raised):
        forward(Graph(build=build, params={}))
    assert autodiff._RECORD is None
    assert len(records[0].nodes) == 1
    add(const(1.0), const(2.0))
    assert len(records[0].nodes) == 1
