"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

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

Nodes do not check their values. A pass checks what it hands out with
check_outputs(), which on a non-finite value re-runs the pass under
check_nodes() so the error names the first op that made one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np


class AutodiffError(Exception):
    """Base class for graph construction and execution failures."""


class ShapeError(AutodiffError):
    """Operands with incompatible shapes; message names the offending op."""


class NumericalError(AutodiffError):
    """NaN or Inf in a checked value; message names the op or parameter."""


# Optional kink recorder: while active, relu/abs/clamp_min append the distance
# of their inputs to the nearest non-differentiable point. Finite-difference
# harnesses use this to reject base points too close to a kink.
_KINK_TRACE: list[float] | None = None


@contextmanager
def record_kinks() -> Iterator[list[float]]:
    global _KINK_TRACE
    prev = _KINK_TRACE
    _KINK_TRACE = []
    try:
        yield _KINK_TRACE
    finally:
        _KINK_TRACE = prev


def _note_kink(x: np.ndarray, kink: float = 0.0) -> None:
    """Record min |x - kink| while a recorder is active; free otherwise."""
    if _KINK_TRACE is not None and x.size:
        _KINK_TRACE.append(float(np.min(np.abs(x - kink))))


# While False, ops record no parents and no backward closures.
_TAPE = True


@contextmanager
def no_tape() -> Iterator[None]:
    """Forward-only evaluation: nodes made inside keep no parents or closures,
    so each intermediate is freed as soon as nothing reads it."""
    global _TAPE
    prev = _TAPE
    _TAPE = False
    try:
        yield
    finally:
        _TAPE = prev


# While True, every new node checks its values and names its op on a
# non-finite one.
_CHECK_NODES = False


@contextmanager
def check_nodes() -> Iterator[None]:
    """Check every node made inside for NaN and Inf as it is constructed."""
    global _CHECK_NODES
    prev = _CHECK_NODES
    _CHECK_NODES = True
    try:
        yield
    finally:
        _CHECK_NODES = prev


def check_outputs(what: str, arrays: Sequence[np.ndarray], rerun: Callable[[], object]) -> None:
    """Raise NumericalError if any of a pass's output arrays holds NaN or Inf.

    The pass is first re-run under check_nodes(), so the error names the
    first op that made a non-finite value; `what` names the outputs in the
    rare case the re-run does not raise.
    """
    if all(np.all(np.isfinite(a)) for a in arrays):
        return
    if not _CHECK_NODES:
        with check_nodes():
            rerun()
    raise NumericalError(f"{what}: non-finite values")


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse mode."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents: tuple = (), _backward=None, _op: str = "leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        if _CHECK_NODES and not np.all(np.isfinite(self.data)):
            where = f" '{name}'" if name else ""
            raise NumericalError(f"{_op}: non-finite values in tensor{where}")
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


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not _tracks(t):
        return
    if t.grad is None:
        # A copy: g may be a view of another node's gradient or read-only.
        t.grad = np.array(g, dtype=np.float64)
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


def _node(op: str, data: np.ndarray, parents: tuple, backward) -> Tensor:
    if _TAPE and any(_tracks(p) for p in parents):
        return Tensor(data, _parents=parents, _backward=backward, _op=op)
    return Tensor(data, _op=op)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(out: Tensor) -> None:
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(out.grad, b.data.shape))

    return _node("add", data, (a, b), backward)


def neg(a) -> Tensor:
    a = _lift(a)

    def backward(out: Tensor) -> None:
        _accum(a, -out.grad)

    return _node("neg", -a.data, (a,), backward)


def sub(a, b) -> Tensor:
    return add(a, neg(b))


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from exc

    def backward(out: Tensor) -> None:
        if _tracks(a):
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if _tracks(b):
            _accum(b, _unbroadcast(out.grad * a.data, b.data.shape))

    return _node("mul", data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: expects 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    def backward(out: Tensor) -> None:
        if _tracks(a):
            _accum(a, out.grad @ b.data.T)
        if _tracks(b):
            _accum(b, a.data.T @ out.grad)

    return _node("matmul", a.data @ b.data, (a, b), backward)


def affine(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    return add(matmul(x, w), b)


def relu(a) -> Tensor:
    a = _lift(a)
    _note_kink(a.data)
    mask = a.data > 0.0

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * mask)

    return _node("relu", np.maximum(a.data, 0.0), (a,), backward)


def abs_(a) -> Tensor:
    """Elementwise absolute value; subgradient at 0 is defined as 0."""
    a = _lift(a)
    _note_kink(a.data)
    sign = np.sign(a.data)

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * sign)

    return _node("abs", np.abs(a.data), (a,), backward)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient is zero where the floor binds."""
    a = _lift(a)
    _note_kink(a.data, floor)
    mask = a.data > floor

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * mask)

    return _node("clamp_min", np.maximum(a.data, floor), (a,), backward)


def sqrt(a) -> Tensor:
    a = _lift(a)
    data = np.sqrt(a.data)

    def backward(out: Tensor) -> None:
        _accum(a, out.grad * 0.5 / data)

    return _node("sqrt", data, (a,), backward)


def log1p(a) -> Tensor:
    a = _lift(a)

    def backward(out: Tensor) -> None:
        _accum(a, out.grad / (1.0 + a.data))

    return _node("log1p", np.log1p(a.data), (a,), backward)


def softmax_rows(a) -> Tensor:
    """Row-wise softmax with max subtraction for numerical stability."""
    a = _lift(a)
    if a.ndim != 2:
        raise ShapeError(f"softmax_rows: expects a 2-d operand, got {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward(out: Tensor) -> None:
        gy = out.grad
        _accum(a, y * (gy - (gy * y).sum(axis=1, keepdims=True)))

    return _node("softmax_rows", y, (a,), backward)


def log_softmax_rows(a) -> Tensor:
    a = _lift(a)
    if a.ndim != 2:
        raise ShapeError(f"log_softmax_rows: expects a 2-d operand, got {a.shape}")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    y = shifted - logz

    def backward(out: Tensor) -> None:
        gy = out.grad
        _accum(a, gy - np.exp(y) * gy.sum(axis=1, keepdims=True))

    return _node("log_softmax_rows", y, (a,), backward)


def concat(parts: Sequence, axis: int) -> Tensor:
    parts = [_lift(p) for p in parts]
    if not parts:
        raise ShapeError("concat: needs at least one operand")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: incompatible shapes {[p.shape for p in parts]}") from exc
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def backward(out: Tensor) -> None:
        for p, g in zip(parts, np.split(out.grad, splits, axis=axis)):
            _accum(p, g)

    return _node("concat", data, tuple(parts), backward)


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
        _accum(a, g)

    return _node("col", a.data[:, j : j + 1].copy(), (a,), backward)


def sum_all(a) -> Tensor:
    a = _lift(a)
    shape = a.data.shape

    def backward(out: Tensor) -> None:
        _accum(a, np.broadcast_to(out.grad, shape))

    return _node("sum", np.sum(a.data), (a,), backward)


def mean_all(a) -> Tensor:
    a = _lift(a)
    size = a.data.size
    if size == 0:
        raise ShapeError("mean: empty operand")
    shape = a.data.shape

    def backward(out: Tensor) -> None:
        _accum(a, np.broadcast_to(out.grad / size, shape))

    return _node("mean", np.mean(a.data), (a,), backward)


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

    return _node("mean_rows", np.mean(a.data, axis=0, keepdims=True), (a,), backward)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _lift(a)
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"reshape: cannot reshape {a.shape} to {tuple(shape)}") from exc

    def backward(out: Tensor) -> None:
        _accum(a, out.grad.reshape(a.shape))

    return _node("reshape", data, (a,), backward)


def sum_segments(a, segment: int) -> Tensor:
    """Sums of consecutive blocks of `segment` rows: (B*segment, D) -> (B, D)."""
    a = _lift(a)
    if a.ndim != 2 or segment < 1 or a.shape[0] % segment:
        raise ShapeError(f"sum_segments: cannot split {a.shape} into blocks of {segment} rows")
    rows, cols = a.shape

    def backward(out: Tensor) -> None:
        _accum(a, np.repeat(out.grad, segment, axis=0))

    return _node("sum_segments",
                 a.data.reshape(rows // segment, segment, cols).sum(axis=1), (a,), backward)


def take_rows(a, rows: np.ndarray) -> Tensor:
    """The rows of a 2-d tensor at the given distinct indices, in that order."""
    a = _lift(a)
    if a.ndim != 2:
        raise ShapeError(f"take_rows: expects a 2-d operand, got {a.shape}")

    def backward(out: Tensor) -> None:
        g = np.zeros_like(a.data)
        g[rows] = out.grad
        _accum(a, g)

    return _node("take_rows", a.data[rows], (a,), backward)


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

    return _node("scatter_rows", data, (a,), backward)


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
    output.grad = np.ones(())
    while order:
        node = order.pop()
        if node._backward is not None and node.grad is not None:
            node._backward(node)
        if node._parents:
            node.grad = None
            node._parents = ()
            node._backward = _consumed


@dataclass
class Graph:
    """A scalar computation over named parameter leaves.

    build(changed) assembles the output from the tensors in `params`; frozen
    parameters are leaves with requires_grad False. build(None) computes it
    all at a new base point; build(name), with only `name` moved off it, may
    reuse base values that `name` does not feed, bit for bit. nondiff_guard(),
    when given, lists the reasons the current point is not differentiable.
    """

    build: Callable[[str | None], Tensor]
    params: dict[str, Tensor]
    nondiff_guard: Callable[[], list[str]] | None = None


def forward(graph: Graph, changed: str | None = None) -> Tensor:
    """Evaluate the graph at the current parameter values (`changed` as in Graph)."""
    return graph.build(changed)


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
    flags: list[str]
    step: float
    tolerance: float

    @property
    def excluded(self) -> bool:
        return bool(self.flags)

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

    The base point is one forward(graph), each probe of parameter `name` one
    forward(graph, name). Relative error uses a unit floor: |a - n| / max(|a|,
    |n|, 1). If the graph's nondiff_guard flags the base point (a routing
    tie, say), the checks are excluded and the flags are reported instead.
    """
    if graph.nondiff_guard is not None:
        flags = graph.nondiff_guard()
        if flags:
            return GradCheckReport(checks=[], flags=list(flags), step=step, tolerance=tolerance)

    def output(changed: str | None = None) -> Tensor:
        out = forward(graph, changed)
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
            # Probes need values only, and only what `name` feeds.
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
    return GradCheckReport(checks=checks, flags=[], step=step, tolerance=tolerance)
