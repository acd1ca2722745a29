"""Frame-wise sparse mixture-of-experts with per-task gating.

A shared pool of two-layer relu experts maps each concatenated feature frame
back to the layer width. Each task owns a single affine gate whose softmax
scores are pruned to the top K per frame; the retained weights keep their
original magnitudes (no renormalization) and the pruned ones are exactly zero.
The mixture output is the retained-weight sum of expert outputs. Top-K is
treated as a constant during backprop: gradients flow through the retained
softmax values only.

A batch of equal-length utterances is routed as one stacked matrix. Each
expert runs on the whole utterances that route at least one frame to it,
gathered, never on single rows: a BLAS product on a subset of rows need not
reproduce the bits of the full product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    add,
    affine,
    col,
    const,
    mean_rows,
    mul,
    param,
    relu,
    scatter_rows,
    softmax_rows,
    sum_all,
    take_rows,
)
from .backbone import ConcatRepresentation

TASK_SER = "ser"
TASK_SE = "se"
TASKS = (TASK_SER, TASK_SE)


@dataclass
class ExpertParams:
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class ExpertPool:
    """N identical-shape experts mapping (L+1)*D features to D outputs."""

    experts: list[ExpertParams]
    in_width: int
    hidden: int
    out_width: int

    @property
    def n_experts(self) -> int:
        return len(self.experts)


@dataclass
class GatingNetwork:
    """A single affine map from a feature frame to one score per expert."""

    task: str
    w: Tensor
    b: Tensor

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task tag '{self.task}'")


@dataclass
class RoutingDecision:
    """Gate probabilities and the per-frame sparse selection derived from them.

    gates: full softmax distribution, shape (T, N), T counting the frames of
        every utterance of a batch
    retained: gates with all but the top K entries per frame zeroed, same shape
    indices: selected expert indices per frame, shape (T, K), best first
    tie_margin: smallest gap between the K-th and (K+1)-th gate value over all
        frames; infinity when K == N. Near-zero margins mark points where the
        selection is about to change.
    """

    task: str
    gates: Tensor
    retained: Tensor
    indices: np.ndarray
    top_k: int
    tie_margin: float

    def __post_init__(self) -> None:
        if self.indices.shape != (self.gates.shape[0], self.top_k):
            raise ValueError(
                f"indices shape {self.indices.shape} does not match (T, K) = "
                f"({self.gates.shape[0]}, {self.top_k})"
            )


@dataclass
class TaskSequence:
    """The task-specific mixed representation, shape (B*T, D): B utterances
    of `segment` = T frames each, stacked; segment defaults to all rows. A
    mixture keeps its per-expert terms (None where no frame routes)."""

    task: str
    z: Tensor
    segment: int | None = None
    terms: list[Tensor | None] | None = None

    def __post_init__(self) -> None:
        if self.segment is None:
            self.segment = self.z.shape[0]


def init_expert_pool(rng: np.random.Generator, n_experts: int, in_width: int,
                     hidden: int, out_width: int) -> ExpertPool:
    """Uniform +-1/sqrt(fan_in) initialization for every expert layer."""
    if n_experts < 1:
        raise ValueError(f"need at least one expert, got {n_experts}")
    experts = []
    for n in range(n_experts):
        b_in = 1.0 / np.sqrt(in_width)
        b_hid = 1.0 / np.sqrt(hidden)
        experts.append(ExpertParams(
            w1=param(f"expert{n}.w1", rng.uniform(-b_in, b_in, size=(in_width, hidden))),
            b1=param(f"expert{n}.b1", rng.uniform(-b_in, b_in, size=(hidden,))),
            w2=param(f"expert{n}.w2", rng.uniform(-b_hid, b_hid, size=(hidden, out_width))),
            b2=param(f"expert{n}.b2", rng.uniform(-b_hid, b_hid, size=(out_width,))),
        ))
    return ExpertPool(experts=experts, in_width=in_width, hidden=hidden, out_width=out_width)


def init_gate(rng: np.random.Generator, task: str, in_width: int, n_experts: int) -> GatingNetwork:
    """Small uniform weights, zero bias, so initial routing is near uniform."""
    bound = 1.0 / np.sqrt(in_width)
    return GatingNetwork(
        task=task,
        w=param(f"gate.{task}.w", rng.uniform(-bound, bound, size=(in_width, n_experts))),
        b=param(f"gate.{task}.b", np.zeros(n_experts)),
    )


def expert_forward(pool: ExpertPool, n: int, frames) -> Tensor:
    """Expert n applied to every frame: relu affine followed by affine."""
    if not 0 <= n < pool.n_experts:
        raise ValueError(f"expert index {n} out of range for pool of {pool.n_experts}")
    e = pool.experts[n]
    return affine(relu(affine(frames, e.w1, e.b1)), e.w2, e.b2)


def gate_scores(gate: GatingNetwork, frames) -> Tensor:
    """Per-frame softmax distribution over experts, shape (T, N)."""
    return softmax_rows(affine(frames, gate.w, gate.b))


def _topk_rows(gates: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Row-wise top-k selection: binary mask, (T, K) indices, min tie margin."""
    t, n = gates.shape
    if not 1 <= k <= n:
        raise ValueError(f"top_k={k} out of range for {n} experts")
    order = np.argsort(-gates, axis=1, kind="stable")
    indices = order[:, :k]
    mask = np.zeros_like(gates)
    np.put_along_axis(mask, indices, 1.0, axis=1)
    if k == n:
        margin = float("inf")
    else:
        ranked = np.take_along_axis(gates, order, axis=1)
        margin = float(np.min(ranked[:, k - 1] - ranked[:, k]))
    return mask, indices, margin


def mix(pool: ExpertPool, decision: RoutingDecision, rep: ConcatRepresentation,
        base: TaskSequence | None = None, expert: int | None = None) -> TaskSequence:
    """The retained-weight mixture z = 0 + term_0 + term_1 + ... in expert order.

    Expert n runs only on the utterances (blocks of rep.segment rows) that
    route at least one frame to it, and its retained-weighted output is
    scattered back to their rows; every other row of that term is exactly
    zero. A lone utterance is never gathered, so its result is bit-equal to
    the dense sum over all experts: adding a zero-weighted term never
    changes an IEEE accumulation. Given `base`, a mixture of the same routing
    and frames, only expert `expert`'s term is recomputed, bit for bit.
    """
    frames, retained = rep.frames, decision.retained
    t, seg = frames.shape[0], rep.segment
    used = (decision.indices.reshape(t // seg, -1, 1) == np.arange(pool.n_experts)).any(axis=1)
    terms = [None] * pool.n_experts if base is None else list(base.terms)
    for n in range(pool.n_experts) if base is None else (expert,):
        utts = np.flatnonzero(used[:, n])
        if utts.size == 0:
            continue
        if utts.size == used.shape[0]:
            terms[n] = mul(col(retained, n), expert_forward(pool, n, frames))
            continue
        rows = (utts[:, None] * seg + np.arange(seg)).reshape(-1)
        out = mul(take_rows(col(retained, n), rows),
                  expert_forward(pool, n, take_rows(frames, rows)))
        terms[n] = scatter_rows(out, rows, t)
    z: Tensor = const(np.zeros((t, pool.out_width)))
    for term in terms:
        if term is not None:
            z = add(z, term)
    return TaskSequence(task=decision.task, z=z, segment=seg, terms=terms)


def moe_forward(pool: ExpertPool, gate: GatingNetwork, rep: ConcatRepresentation,
                top_k: int) -> tuple[TaskSequence, RoutingDecision]:
    """Route every frame through its top-k experts and mix the outputs."""
    gates = gate_scores(gate, rep.frames)
    if gates.shape[1] != pool.n_experts:
        raise ValueError(
            f"gate produces {gates.shape[1]} scores but pool has {pool.n_experts} experts"
        )
    mask, indices, margin = _topk_rows(gates.data, top_k)
    decision = RoutingDecision(task=gate.task, gates=gates, retained=mul(gates, const(mask)),
                               indices=indices, top_k=top_k, tie_margin=margin)
    return mix(pool, decision, rep), decision


def balancing_loss(decision: RoutingDecision, alpha: float = 0.01) -> Tensor:
    """Load-balancing penalty alpha * N * sum_n f_n * P_n.

    f_n is the fraction of frames whose top choice is expert n (a constant
    with respect to the parameters); P_n is the mean gate probability of
    expert n, which carries the gradient. Equals alpha exactly when routing
    is uniform. Requires top-1 routing: the fraction-routed statistic needs a
    hard assignment.
    """
    if decision.top_k != 1:
        raise ValueError(
            f"balancing loss requires top-1 routing, got top_k={decision.top_k}"
        )
    t, n = decision.gates.shape
    counts = np.bincount(decision.indices[:, 0], minlength=n)
    f = counts / t
    p = mean_rows(decision.gates)
    return mul(sum_all(mul(const(f.reshape(1, n)), p)), alpha * n)
