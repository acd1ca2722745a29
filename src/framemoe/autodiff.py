"""Minimal reverse-mode automatic differentiation over dense float arrays.

Node values are float64, or the dtype set by working_dtype() while nodes
are made inside it: a training step runs in float32 there. A gradient takes
its node's dtype.

Every operation allocates a new Tensor node holding its value and, when some
operand needs a gradient, a closure that routes the output gradient back to
its parents. Nodes computed only from constants, and every node made inside
`no_tape()`, keep neither: they are constants themselves, so forward-only
passes hold no graph. Calling backprop() on a scalar node walks the tape in
reverse topological order and consumes it: each interior node lets go of
its parents and its closure as soon as its gradient has been passed on, so
a step's graph is freed before the next one is built. A graph can therefore
be backpropagated once (as in PyTorch without retain_graph); a second
backprop of the same output raises AutodiffError. A consumed node keeps its
value and, with no parents, is a constant when reused as an operand. The op
set is exactly what the routing pipeline needs; there is no broadcasting
beyond what the ops below use themselves.

Three fused nodes keep only what their backward reads. affine(x, w, b) holds
x @ w + b and its three operands, not the x @ w product. relu_affine(x, w,
b) holds relu(x @ w + b) and its operands, not the pre-activation: its
backward takes the relu mask from its own output. mixture(retained, terms,
n_rows) holds the routed experts' retained-weight sum and its operands, not
a weight column, a product or a scattered copy per term. Each is bit-equal,
value and gradients, to the composition it replaces: add(matmul(x, w), b),
a relu after it, and per term a column, a gather, a mul, a scatter and an
add. A gradient a backward has just computed (a product, a quotient, a
gather) becomes its operand's .grad as it is; only a gradient that may
alias another array is copied.

Each op computes its value in a compute closure that reads its operands'
.data when called. A node keeps only its value (and, on the tape, its
parents and backward closure), unless forward() is recording a base point:
then every node made is recorded with its operands and its compute closure,
and forward(graph, name) replays the recorded nodes downstream of leaf
`name`, calling those closures again, instead of rebuilding the graph.

Nodes do not check their values. A pass checks what it hands out with
check_outputs(), which on a non-finite value re-runs the pass under
check_nodes() so the error names the first op that made one.

The engine's modes (record_kinks, no_tape, working_dtype, check_nodes and
forward()'s recording) are module switches, each set for a block by _switch.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class AutodiffError(Exception):
    """Base class for graph construction and execution failures."""


class ShapeError(AutodiffError):
    """Operands with incompatible shapes; message names the offending op."""


class NumericalError(AutodiffError):
    """NaN or Inf in a checked value; message names the op or parameter."""


@contextmanager
def _switch(name: str, value):
    """Set the module switch `name` to `value` for a block and yield it; the
    previous value comes back on exit, by an exception too."""
    switches = globals()
    prev, switches[name] = switches[name], value
    try:
        yield value
    finally:
        switches[name] = prev


# Optional kink recorder: while active, relu_affine/abs/clamp_min append the distance
# of their inputs to the nearest non-differentiable point. Finite-difference
# harnesses use this to reject base points too close to a kink.
_KINK_TRACE: list[float] | None = None


def record_kinks() -> AbstractContextManager[list[float]]:
    return _switch("_KINK_TRACE", [])


def _note_kink(x: np.ndarray, kink: float = 0.0) -> None:
    """Record min |x - kink| while a recorder is active; free otherwise."""
    if _KINK_TRACE is not None and x.size:
        _KINK_TRACE.append(float(np.min(np.abs(x - kink))))


# While False, ops record no parents and no backward closures.
_TAPE = True


def no_tape() -> AbstractContextManager[bool]:
    """Forward-only evaluation: nodes made inside keep no parents or closures,
    so each intermediate is freed as soon as nothing reads it."""
    return _switch("_TAPE", False)


# The dtype of every new node's value. Under numpy 2's promotion rules one
# float64 operand, a 0-d array included, turns a float32 result back into
# float64, so every constant an op lifts is cast to it too.
_DTYPE = np.float64


def working_dtype(dtype) -> AbstractContextManager:
    """Nodes made inside, constants and parameters lifted into a graph
    included, hold `dtype` values; leaves made before keep theirs."""
    return _switch("_DTYPE", dtype)


# While True, every new node checks its values and names its op on a
# non-finite one.
_CHECK_NODES = False


def check_nodes() -> AbstractContextManager[bool]:
    """Check every node made inside for NaN and Inf as it is constructed."""
    return _switch("_CHECK_NODES", True)


# While forward() records a base point, the _Record that every new node is
# appended to.
_RECORD = None


def check_outputs(what: str, arrays: Sequence[np.ndarray], rerun: Callable[[], object]) -> None:
    """Raise NumericalError if any of a pass's output arrays holds NaN or Inf.

    The pass is first re-run under check_nodes(), so the error names the
    first op that made a non-finite value; `what` names the outputs in the
    rare case the re-run does not raise.
    """
    if all(np.isfinite(a).all() for a in arrays):
        return
    if not _CHECK_NODES:
        with check_nodes():
            rerun()
    raise NumericalError(f"{what}: non-finite values")


def _check_finite(op: str, data: np.ndarray, name: str | None = None) -> None:
    if not np.all(np.isfinite(data)):
        where = f" '{name}'" if name else ""
        raise NumericalError(f"{op}: non-finite values in tensor{where}")


class Tensor:
    """A float array of the working dtype (float64 unless working_dtype()
    says otherwise) plus the bookkeeping needed for reverse mode."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents: tuple = (), _backward=None, _op: str = "leaf"):
        self.data = np.asarray(data, dtype=_DTYPE)
        if _CHECK_NODES:
            _check_finite(_op, self.data, name)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.shape}, requires_grad={self.requires_grad})"


def const(data, name: str | None = None) -> Tensor:
    """A leaf that never receives a gradient."""
    return Tensor(data, requires_grad=False, name=name)


def param(name: str, data, frozen: bool = False) -> Tensor:
    """A named leaf; frozen parameters keep requires_grad False."""
    return Tensor(data, requires_grad=not frozen, name=name)


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return const(value)


def _tracks(t: Tensor) -> bool:
    # Gradients are accumulated on interior nodes and on trainable leaves.
    return t.requires_grad or bool(t._parents)


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add g to t.grad. A `fresh` g, an array the caller has just computed
    and hands to no one else, becomes t.grad as it is; any other g is copied,
    since it may be a view of another node's gradient or read-only. A 0-d
    result is a numpy scalar, not an array, and is copied too. A copy takes
    t's dtype."""
    if not _tracks(t):
        return
    if t.grad is None:
        t.grad = g if fresh and isinstance(g, np.ndarray) else np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient over the axes numpy broadcasting introduced."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _node(op: str, compute: Callable[[], np.ndarray], parents: tuple, backward) -> Tensor:
    """A node holding compute()'s value. While a base point records, the
    node is recorded with its operands and `compute`, which a replay calls
    again; otherwise `compute` is dropped here. Operands whose shapes do not
    fit make a ShapeError naming the op."""
    try:
        data = compute()
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {[p.shape for p in parents]}") from exc
    if _TAPE and any(_tracks(p) for p in parents):
        out = Tensor(data, _parents=parents, _backward=backward, _op=op)
    else:
        out = Tensor(data, _op=op)
    if _RECORD is not None:
        _RECORD.nodes.append((out, parents, compute))
    return out


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)

    def backward(out: Tensor) -> None:
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(out.grad, b.data.shape))

    return _node("add", lambda: a.data + b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = _lift(a)

    def backward(out: Tensor) -> None:
        _accum(a, -out.grad, fresh=True)

    return _node("neg", lambda: -a.data, (a,), backward)


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)

    def backward(out: Tensor) -> None:
        if _tracks(a):
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape), fresh=True)
        if _tracks(b):
            _accum(b, _unbroadcast(out.grad * a.data, b.data.shape), fresh=True)

    return _node("mul", lambda: a.data * b.data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    def backward(out: Tensor) -> None:
        if _tracks(a):
            _accum(a, out.grad @ b.data.T, fresh=True)
        if _tracks(b):
            _accum(b, a.data.T @ out.grad, fresh=True)

    return _node("matmul", lambda: a.data @ b.data, (a, b), backward)


def _affine_operands(op: str, x, w, b) -> tuple[Tensor, Tensor, Tensor]:
    x, w, b = _lift(x), _lift(w), _lift(b)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"{op}: cannot multiply {x.shape} @ {w.shape}")
    return x, w, b


def _affine_data(x: Tensor, w: Tensor, b: Tensor) -> np.ndarray:
    """x @ w, then b added in place: the IEEE ops of add(matmul(x, w), b)."""
    data = x.data @ w.data
    data += b.data
    return data


def _affine_backward(x: Tensor, w: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Hand the gradient g of x @ w + b on to its three operands."""
    if _tracks(x):
        _accum(x, g @ w.data.T, fresh=True)
    if _tracks(w):
        _accum(w, x.data.T @ g, fresh=True)
    if _tracks(b):
        # A bias of g's own shape gets g itself back, which must be copied.
        _accum(b, _unbroadcast(g, b.data.shape), fresh=b.data.shape != g.shape)


def affine(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows, as one node."""
    x, w, b = _affine_operands("affine", x, w, b)

    def backward(out: Tensor) -> None:
        _affine_backward(x, w, b, out.grad)

    return _node("affine", lambda: _affine_data(x, w, b), (x, w, b), backward)


def relu_affine(x, w, b) -> Tensor:
    """relu(x @ w + b) as one node that keeps only its output.

    The kink recorder sees the pre-activation. The relu passes the gradient
    where the output is > 0, which holds exactly where the pre-activation
    is > 0 (NaN included, since the relu keeps a NaN). Under check_nodes()
    the pre-activation is checked too, so a non-finite value the relu would
    clip is still named here.
    """
    x, w, b = _affine_operands("relu_affine", x, w, b)

    def compute() -> np.ndarray:
        data = _affine_data(x, w, b)
        _note_kink(data)
        if _CHECK_NODES:
            _check_finite("relu_affine", data)
        return np.maximum(data, 0.0, out=data)

    def backward(out: Tensor) -> None:
        # out.grad is this node's own (see _accum) and dropped after this call.
        g = out.grad
        np.multiply(g, out.data > 0.0, out=g)
        _affine_backward(x, w, b, g)

    return _node("relu_affine", compute, (x, w, b), backward)


def abs_(a) -> Tensor:
    """Elementwise absolute value; subgradient at 0 is defined as 0."""
    a = _lift(a)

    def compute() -> np.ndarray:
        _note_kink(a.data)
        return np.abs(a.data)

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * np.sign(a.data), fresh=True)

    return _node("abs", compute, (a,), backward)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient is zero where the floor binds."""
    a = _lift(a)

    def compute() -> np.ndarray:
        _note_kink(a.data, floor)
        return np.maximum(a.data, floor)

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * (a.data > floor), fresh=True)

    return _node("clamp_min", compute, (a,), backward)


def sqrt(a) -> Tensor:
    a = _lift(a)

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * 0.5 / out.data, fresh=True)

    return _node("sqrt", lambda: np.sqrt(a.data), (a,), backward)


def softmax_rows(a) -> Tensor:
    """Row-wise softmax with max subtraction for numerical stability."""
    a = _lift(a)
    if a.ndim != 2:
        raise ShapeError(f"softmax_rows: expects a 2-d operand, got {a.shape}")

    def compute() -> np.ndarray:
        e = np.exp(a.data - a.data.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def backward(out: Tensor) -> None:
        y, gy = out.data, out.grad
        _accum(a, y * (gy - (gy * y).sum(axis=1, keepdims=True)), fresh=True)

    return _node("softmax_rows", compute, (a,), backward)


def log_softmax_rows(a) -> Tensor:
    a = _lift(a)
    if a.ndim != 2:
        raise ShapeError(f"log_softmax_rows: expects a 2-d operand, got {a.shape}")

    def compute() -> np.ndarray:
        shifted = a.data - a.data.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def backward(out: Tensor) -> None:
        gy = out.grad
        _accum(a, gy - np.exp(out.data) * gy.sum(axis=1, keepdims=True), fresh=True)

    return _node("log_softmax_rows", compute, (a,), backward)


def concat(parts: Sequence, axis: int) -> Tensor:
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ShapeError("concat: needs at least one operand")

    def backward(out: Tensor) -> None:
        splits = np.cumsum([p.shape[axis] for p in parts])[:-1]
        for p, g in zip(parts, np.split(out.grad, splits, axis=axis)):
            _accum(p, g)

    return _node("concat", lambda: np.concatenate([p.data for p in parts], axis=axis),
                 tuple(parts), backward)


def sum_all(a) -> Tensor:
    a = _lift(a)
    shape = a.data.shape

    def backward(out: Tensor) -> None:
        _accum(a, np.broadcast_to(out.grad, shape))

    return _node("sum", lambda: np.sum(a.data), (a,), backward)


def mean_all(a) -> Tensor:
    a = _lift(a)
    size = a.data.size
    if size == 0:
        raise ShapeError("mean: empty operand")
    shape = a.data.shape

    def backward(out: Tensor) -> None:
        _accum(a, np.broadcast_to(out.grad / size, shape))

    return _node("mean", lambda: np.mean(a.data), (a,), backward)


def mean_rows(a) -> Tensor:
    """Mean over axis 0 of a 2-d tensor, result shape (1, cols)."""
    a = _lift(a)
    if a.ndim != 2:
        raise ShapeError(f"mean_rows: expects a 2-d operand, got {a.shape}")
    rows = a.shape[0]
    if rows == 0:
        raise ShapeError("mean_rows: empty operand")

    def backward(out: Tensor) -> None:
        _accum(a, np.broadcast_to(out.grad / rows, (rows, a.shape[1])))

    return _node("mean_rows", lambda: np.mean(a.data, axis=0, keepdims=True), (a,), backward)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _lift(a)

    def compute() -> np.ndarray:
        try:
            return a.data.reshape(shape)
        except ValueError as exc:
            raise ShapeError(f"reshape: cannot reshape {a.shape} to {tuple(shape)}") from exc

    def backward(out: Tensor) -> None:
        _accum(a, out.grad.reshape(a.shape))

    return _node("reshape", compute, (a,), backward)


def sum_segments(a, segment: int) -> Tensor:
    """Sums of consecutive blocks of `segment` rows: (B*segment, D) -> (B, D)."""
    a = _lift(a)
    if a.ndim != 2 or segment < 1 or a.shape[0] % segment:
        raise ShapeError(f"sum_segments: cannot split {a.shape} into blocks of {segment} rows")
    rows, cols = a.shape

    def backward(out: Tensor) -> None:
        _accum(a, np.repeat(out.grad, segment, axis=0), fresh=True)

    return _node("sum_segments",
                 lambda: a.data.reshape(rows // segment, segment, cols).sum(axis=1),
                 (a,), backward)


def take_rows(a, rows: np.ndarray) -> Tensor:
    """The rows of a 2-d tensor at the given distinct indices, in that order."""
    a = _lift(a)
    if a.ndim != 2:
        raise ShapeError(f"take_rows: expects a 2-d operand, got {a.shape}")

    def backward(out: Tensor) -> None:
        g = np.zeros_like(a.data)
        g[rows] = out.grad
        _accum(a, g, fresh=True)

    return _node("take_rows", lambda: a.data[rows], (a,), backward)


def mixture(retained, terms: Sequence[tuple], n_rows: int) -> Tensor:
    """The retained-weight sum z = 0 + sum over terms of retained[:, n] * y,
    as one (n_rows, cols) node. Each term (n, rows, y) weights expert n's
    output y, one row per distinct index in `rows`, by column n of
    `retained` at those rows and adds it at them; rows None means every row.

    It is bit-equal to zeros plus each term's mul(take_rows(col(retained,
    n), rows), y) scattered to (n_rows, cols), added in term order, and to
    that chain's gradients: the sum starts at +0 and a round-to-nearest sum
    that starts at +0 is never -0, so the +0 rows a scatter would add change
    nothing.
    """
    retained = _lift(retained)
    terms = [(n, rows, _lift(y)) for n, rows, y in terms]
    sizes = [(n, n_rows if rows is None else len(rows), y.shape) for n, rows, y in terms]
    cols = sizes[0][2][-1] if sizes and sizes[0][2] else 0
    if retained.ndim != 2 or retained.shape[0] != n_rows or not sizes or any(
            not 0 <= n < retained.shape[1] or shape != (count, cols) for n, count, shape in sizes):
        raise ShapeError(f"mixture: weights {retained.shape} for {n_rows} rows and terms "
                         f"(expert, rows, shape) {sizes}")
    dtype = _DTYPE
    every = slice(None)

    def compute() -> np.ndarray:
        data = np.zeros((n_rows, cols), dtype=dtype)
        for n, rows, y in terms:
            rows = every if rows is None else rows
            data[rows] += retained.data[rows, n : n + 1] * y.data
        return data

    def backward(out: Tensor) -> None:
        weights = np.zeros_like(retained.data)
        for n, rows, y in terms:
            rows = every if rows is None else rows
            g = out.grad[rows]
            # mul's unbroadcast sum, added up as col's zero-padded gradients
            # were: +0 plus a -0 is +0, but a lone term's is handed on as it is.
            column = _unbroadcast(g * y.data, (len(g), 1))
            if len(terms) == 1:
                weights[rows, n : n + 1] = column
            else:
                weights[rows, n : n + 1] += column
            if _tracks(y):
                _accum(y, g * retained.data[rows, n : n + 1], fresh=True)
        _accum(retained, weights, fresh=True)

    # The order of the parents sets the order in which backprop reaches the
    # operands' own operands (the frames the experts and the gate share):
    # the weights before the last term's output, as the chain reached them.
    ys = [y for _, _, y in terms]
    return _node("mixture", compute, (*ys[:-1], retained, ys[-1]), backward)


def _topo_order(root: Tensor) -> list[Tensor]:
    # Iterative DFS; recursion would overflow on long loss chains.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _consumed(out: Tensor) -> None:
    """The backward slot of a node whose graph backprop() has already walked."""
    raise AutodiffError("backprop: graph already consumed; a graph can be backpropagated once")


def backprop(output: Tensor) -> None:
    """Accumulate d(output)/d(leaf) into .grad over the tape of `output`.

    The walk consumes the tape: each interior node drops its gradient, its
    parents and its backward closure once its gradient has been passed on,
    so only the leaves hold gradients afterwards and nothing but the
    caller's references keeps the graph alive. A second backprop of the
    same output raises AutodiffError.
    """
    if output.data.shape != ():
        raise AutodiffError(f"backprop: output must be scalar, got shape {output.shape}")
    order = _topo_order(output)
    output.grad = np.ones((), dtype=output.data.dtype)
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node)
        if node._parents:
            node.grad = None
            node._parents = ()
            node._backward = _consumed


@dataclass
class _Record:
    """A base point's build: every node an op made, in creation order, with
    its operands and its compute closure; the holds declared on nodes; the
    output; and, per probed leaf, the replay plan made from them."""

    nodes: list[tuple[Tensor, tuple, Callable[[], np.ndarray]]] = field(default_factory=list)
    holds: dict[int, list[Callable[[np.ndarray], bool]]] = field(default_factory=dict)
    root: Tensor | None = None
    plans: dict[int, list[tuple]] = field(default_factory=dict)

    def complete(self) -> bool:
        """Whether the output and every operand are recorded nodes or leaves.
        A node no op here made (a Tensor given parents directly) has no
        compute closure, so a replay could not pass a change through it."""
        made = {id(node) for node, _, _ in self.nodes}
        operands = [self.root, *(p for _, parents, _ in self.nodes for p in parents)]
        return all(id(t) in made or not t._parents for t in operands)

    def plan(self, leaf: Tensor) -> list[tuple]:
        """The recorded nodes downstream of `leaf`, in creation order, each
        with its compute closure, its holds and its base value."""
        if id(leaf) not in self.plans:
            moved, plan = {id(leaf)}, []
            for node, parents, compute in self.nodes:
                if any(id(p) in moved for p in parents):
                    moved.add(id(node))
                    plan.append((node, compute, self.holds.get(id(node)), node.data))
            self.plans[id(leaf)] = plan
        return self.plans[id(leaf)]

    def replay(self, leaf: Tensor) -> Tensor | None:
        """The output's value, as a new constant, with the nodes downstream of
        `leaf` re-run; None if a hold breaks. Every replayed node holds its
        base value again on return."""
        plan = self.plan(leaf)
        try:
            for node, compute, holds, data in plan:
                node.data = np.asarray(compute(), dtype=data.dtype)
                if holds and not all(unchanged(node.data) for unchanged in holds):
                    return None
            return const(self.root.data)
        finally:
            for node, _, _, data in plan:
                node.data = data


def hold(node: Tensor, unchanged: Callable[[np.ndarray], bool]) -> None:
    """Declare a value the caller took from node.data outside the graph (a
    routing choice, say). A replay keeps such a value as it was at the base
    point, so it holds only while unchanged(the node's replayed value) is
    true; when it is not, the probe is a full build instead."""
    if _RECORD is not None:
        _RECORD.holds.setdefault(id(node), []).append(unchanged)


@dataclass
class Graph:
    """A scalar computation over named parameter leaves.

    build() assembles the output from the tensors in `params`; frozen
    parameters are leaves with requires_grad False. forward() keeps the
    recorded base point in _base.
    """

    build: Callable[[], Tensor]
    params: dict[str, Tensor]
    _base: _Record | None = field(default=None, init=False, repr=False, compare=False)


def forward(graph: Graph, name: str | None = None) -> Tensor:
    """The graph's output at the current parameter values.

    forward(graph) builds it all and records the build as the base point.
    forward(graph, name), with only parameter `name` moved off the base
    point, replays it: the recorded nodes downstream of that leaf re-run
    their own compute closures in creation order, every other node keeps
    its base value, and the output's value comes back as a new constant.
    A replay that breaks a hold (a changed top-k choice, say), and any probe
    of a graph with a node no op here made, is a full build that records
    nothing. Either way the value is bit-equal to a full build's.
    """
    if name is None:
        with _switch("_RECORD", _Record()) as record:
            out = graph.build()
        record.root = out
        graph._base = record if record.complete() else None
        return out
    if graph._base is not None:
        value = graph._base.replay(graph.params[name])
        if value is not None:
            return value
    return graph.build()


@dataclass
class ParamCheck:
    name: str
    n_entries: int
    max_rel_err: float
    passed: bool
    skipped: bool = False


@dataclass
class GradCheckReport:
    checks: list[ParamCheck]

    @property
    def max_rel_err(self) -> float:
        errs = [c.max_rel_err for c in self.checks if not c.skipped]
        return float(np.max(errs)) if errs else 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _rel_err(a: float, n: float) -> float:
    # Unit floor keeps near-zero gradients from blowing up the ratio.
    return abs(a - n) / max(abs(a), abs(n), 1.0)


def finite_difference_check(graph: Graph, step: float = 1e-5,
                            tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients against central differences entry by entry.

    The base point is one forward(graph), which records it, and each probe
    of parameter `name` one forward(graph, name), which replays only what
    `name` feeds; a non-finite one re-runs a full build under check_nodes()
    to name the first bad op. Relative error uses a unit floor: |a - n| /
    max(|a|, |n|, 1). The caller picks a differentiable base point, off
    routing ties and relu kinks (see record_kinks).
    """
    def output(name: str | None = None) -> Tensor:
        out = forward(graph, name)
        check_outputs("audited output", [out.data], lambda: forward(graph))
        return out

    for p in graph.params.values():
        p.zero_grad()
    backprop(output())
    # A leaf the output does not reach, and every frozen leaf, reads as zero.
    analytic = {name: np.zeros_like(p.data) if p.grad is None else p.grad
                for name, p in graph.params.items()}

    checks: list[ParamCheck] = []
    for name, p in graph.params.items():
        if not p.requires_grad:
            frozen_zero = not np.any(analytic[name])
            checks.append(ParamCheck(name=name, n_entries=p.data.size,
                                     max_rel_err=0.0, passed=frozen_zero, skipped=True))
            continue
        flat = p.data.reshape(-1)
        errs = np.zeros(flat.size)
        for i in range(flat.size):
            keep = flat[i]
            # Probes need values only.
            with no_tape():
                flat[i] = keep + step
                hi = float(output(name).data)
                flat[i] = keep - step
                lo = float(output(name).data)
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * step)
            errs[i] = _rel_err(float(analytic[name].reshape(-1)[i]), numeric)
        # np.max keeps a NaN error (a NaN gradient, say), and NaN fails the check.
        worst = float(np.max(errs, initial=0.0))
        checks.append(ParamCheck(name=name, n_entries=flat.size,
                                 max_rel_err=worst, passed=worst < tolerance))
    return GradCheckReport(checks=checks)
