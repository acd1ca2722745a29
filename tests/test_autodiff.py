import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framemoe.autodiff import (
    AutodiffError,
    Graph,
    NumericalError,
    ShapeError,
    Tensor,
    abs_,
    add,
    affine,
    backprop,
    check_nodes,
    check_outputs,
    clamp_min,
    col,
    concat,
    const,
    finite_difference_check,
    forward,
    log1p,
    log_softmax_rows,
    matmul,
    mean_all,
    mean_rows,
    mul,
    neg,
    no_tape,
    param,
    record_kinks,
    relu,
    reshape,
    scatter_rows,
    softmax_rows,
    sqrt,
    sub,
    sum_all,
    sum_segments,
    take_rows,
)

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                          allow_infinity=False)


def rand(rng, *shape):
    return rng.standard_normal(shape)


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
    (log1p, (-0.5, 4.0)),
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


def _consume(build):
    """A pass that hands out build()'s value, checked where it leaves."""
    out = build()
    check_outputs("pass output", [out.data], build)
    return out


# Passes whose first non-finite node is a const leaf, a sqrt and a log1p,
# with the op name each error must carry (None: any message).
_W = param("w", np.array([1.0, 2.0]))
NONFINITE_PASSES = [
    (lambda: sum_all(add(const(np.inf), _W)), None),
    (lambda: sum_all(sqrt(mul(_W, -1.0))), "sqrt"),
    (lambda: sum_all(log1p(mul(_W, -2.0))), "log1p"),
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

    def build(changed):
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

    def build(changed):
        return mean_all(mul(softmax_rows(affine(x, params["w"], params["b"])),
                            log1p(mul(x, x))))

    graph = Graph(build=build, params=params)
    report = finite_difference_check(graph)
    assert report.passed
    assert not report.excluded
    assert report.max_rel_err < 1e-4
    assert {c.name for c in report.checks} == {"w", "b"}


def test_finite_difference_check_names_the_op_of_a_nonfinite_probe():
    # The lower probe takes sqrt of a negative entry.
    w = param("w", np.array([1.0, 1e-6]))
    graph = Graph(build=lambda changed: sum_all(sqrt(w)), params={"w": w})
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="sqrt"):
        finite_difference_check(graph, step=1e-5)


def test_finite_difference_check_catches_wrong_gradient():
    w = param("w", np.array(2.0))

    def bad_square(t):
        def backward_fn(out):
            t.grad = (t.grad or 0.0) + 3.0 * t.data * out.grad  # wrong: 3x not 2x

        return Tensor(t.data * t.data, _parents=(t,), _backward=backward_fn)

    graph = Graph(build=lambda changed: bad_square(w), params={"w": w})
    report = finite_difference_check(graph)
    assert not report.passed
    assert report.max_rel_err > 1e-4


def test_finite_difference_check_fails_a_nan_gradient():
    # clamp_min's backward passes sqrt's inf slope times a zero mask: NaN.
    w = param("w", np.array([-1.0]))
    graph = Graph(build=lambda changed: sum_all(sqrt(clamp_min(w, 0.0))), params={"w": w})
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
    graph = Graph(build=lambda changed: sum_all(matmul(params["w"], params["locked"])),
                  params=params)
    report = finite_difference_check(graph)
    by_name = {c.name: c for c in report.checks}
    assert by_name["locked"].skipped
    assert by_name["locked"].passed
    assert not by_name["w"].skipped
    assert report.passed


def test_nondiff_guard_excludes_the_check():
    w = param("w", np.array([1.0, 1.0]))
    graph = Graph(
        build=lambda changed: sum_all(w),
        params={"w": w},
        nondiff_guard=lambda: ["tie between entries 0 and 1"],
    )
    report = finite_difference_check(graph)
    assert report.excluded
    assert report.flags == ["tie between entries 0 and 1"]
    assert report.checks == []


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


def test_finite_difference_check_consumes_its_base_graph_and_reuses_its_stages():
    rng = np.random.default_rng(26)
    params = {"w": param("w", rand(rng, 3, 3)), "v": param("v", rand(rng, 3, 2))}
    x = const(rand(rng, 5, 3))
    base = {}

    def build(changed, reuse):
        # A probe of v may take the base point's hidden stage, as the audit does.
        hidden = (base["hidden"] if reuse and changed == "v"
                  else softmax_rows(matmul(x, params["w"])))
        out = mean_all(log1p(mul(matmul(hidden, params["v"]), matmul(hidden, params["v"]))))
        if changed is None:
            base.update(hidden=hidden, root=out)
        return out

    fresh = finite_difference_check(Graph(build=lambda c: build(c, False), params=params))
    reused = finite_difference_check(Graph(build=lambda c: build(c, True), params=params))
    assert reused.passed and reused.checks == fresh.checks
    assert base["root"]._parents == () and base["hidden"]._parents == ()
