"""Frame-wise sparse mixture-of-experts with per-task gating.

A shared pool of experts, each the model's two-layer MLP (heads.Mlp, the
block both heads are built from too), maps each concatenated feature frame
back to the layer width. Each task owns a single affine gate whose softmax
scores are pruned to the top K per frame; the retained weights keep their
original magnitudes (no renormalization) and the pruned ones are exactly zero.
The mixture output is the retained-weight sum z_t = sum over n in TopK(t) of
g_{t,n} E_n(x_t), one autodiff mixture node per task. Top-K is treated as a
constant during backprop: gradients flow through the retained softmax values
only. `moe_forward` returns z and the task's RoutingDecision; neither names
its task, since the model keys its gates by task.

A batch of equal-length utterances is routed as one stacked matrix. Each
expert runs only on the frames routed to it, gathered, and never on a single
row: a one-row BLAS product need not reproduce the bits of the same row in
the full product, so a lone routed frame is gathered with a neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor,
    affine,
    const,
    hold,
    mean_rows,
    mixture,
    mul,
    param,
    softmax_rows,
    sum_all,
    take_rows,
)
from .backbone import ConcatRepresentation
from .heads import Mlp, init_mlp, mlp_forward

TASK_SER = "ser"
TASK_SE = "se"
# The one task order: gates are drawn, named, routed and reported in it.
TASKS = (TASK_SER, TASK_SE)


@dataclass
class ExpertPool:
    """N identical-shape experts mapping (L+1)*D features to D outputs."""

    experts: list[Mlp]

    @property
    def n_experts(self) -> int:
        return len(self.experts)

    @property
    def out_width(self) -> int:
        return self.experts[0].w2.shape[1]


@dataclass
class GatingNetwork:
    """A single affine map from a feature frame to one score per expert."""

    w: Tensor
    b: Tensor


@dataclass
class RoutingDecision:
    """Gate probabilities and the per-frame sparse selection derived from them.

    gates: full softmax distribution, shape (T, N), T counting the frames of
        every utterance of a batch
    retained: gates with all but the top K entries per frame zeroed, same shape
    indices: selected expert indices per frame, shape (T, K), best first;
        K is `top_k`
    tie_margin: smallest gap between the K-th and (K+1)-th gate value over all
        frames; infinity when K == N. Near-zero margins mark points where the
        selection is about to change.
    """

    gates: Tensor
    retained: Tensor
    indices: np.ndarray
    tie_margin: float

    def __post_init__(self) -> None:
        if self.indices.ndim != 2 or self.indices.shape[0] != self.gates.shape[0]:
            raise ValueError(f"indices shape {self.indices.shape} is not "
                             f"(T, K) with T = {self.gates.shape[0]}")

    @property
    def top_k(self) -> int:
        return self.indices.shape[1]


def init_expert_pool(rng: np.random.Generator, n_experts: int, in_width: int,
                     hidden: int, out_width: int) -> ExpertPool:
    """Uniform +-1/sqrt(fan_in) initialization for every expert layer."""
    if n_experts < 1:
        raise ValueError(f"need at least one expert, got {n_experts}")
    return ExpertPool(experts=[init_mlp(rng, f"expert{n}", in_width, hidden, out_width)
                               for n in range(n_experts)])


def init_gate(rng: np.random.Generator, task: str, in_width: int, n_experts: int) -> GatingNetwork:
    """Small uniform weights, zero bias, so initial routing is near uniform."""
    bound = 1.0 / np.sqrt(in_width)
    return GatingNetwork(
        w=param(f"gate.{task}.w", rng.uniform(-bound, bound, size=(in_width, n_experts))),
        b=param(f"gate.{task}.b", np.zeros(n_experts)),
    )


def expert_forward(pool: ExpertPool, n: int, frames) -> Tensor:
    """Expert n applied to every frame."""
    if not 0 <= n < pool.n_experts:
        raise ValueError(f"expert index {n} out of range for pool of {pool.n_experts}")
    return mlp_forward(pool.experts[n], frames)


def gate_scores(gate: GatingNetwork, frames) -> Tensor:
    """Per-frame softmax distribution over experts, shape (T, N)."""
    return softmax_rows(affine(frames, gate.w, gate.b))


def _rank(gates: np.ndarray) -> np.ndarray:
    """Each row's experts, best first; a tie goes to the lower index."""
    return np.argsort(-gates, axis=1, kind="stable")


def _topk_rows(gates: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Row-wise top-k selection: binary mask, (T, K) indices, min tie margin."""
    t, n = gates.shape
    if not 1 <= k <= n:
        raise ValueError(f"top_k={k} out of range for {n} experts")
    order = _rank(gates)
    indices = order[:, :k]
    mask = np.zeros_like(gates)
    np.put_along_axis(mask, indices, 1.0, axis=1)
    if k == n:
        margin = float("inf")
    else:
        ranked = np.take_along_axis(gates, order, axis=1)
        margin = float(np.min(ranked[:, k - 1] - ranked[:, k]))
    return mask, indices, margin


def mix(pool: ExpertPool, decision: RoutingDecision, frames) -> Tensor:
    """The retained-weight mixture z = 0 + term_0 + term_1 + ... in expert order.

    One mixture node: expert n runs only on the frames that route to it,
    gathered, and its output, weighted by column n of the retained weights,
    is added back at their rows; every other row of that term is exactly
    zero and is not added. A lone routed frame is gathered with a neighbour
    (the next row, or the previous one on the last row), whose retained
    weight is zero, so its term is +-0. An expert that takes every frame
    runs on all of them without a gather. The result is bit-equal to the
    dense sum over all experts: adding a zero-weighted term never changes an
    IEEE accumulation. The gathered rows come from the decision's indices,
    outside the graph, so a replay of a recorded mixture keeps them only
    while the routing is unchanged (see moe_forward).
    """
    t = frames.shape[0]
    routed = (decision.indices[:, :, None] == np.arange(pool.n_experts)).any(axis=1)
    terms = []
    for n in range(pool.n_experts):
        rows = np.flatnonzero(routed[:, n])
        if rows.size == t:
            terms.append((n, None, expert_forward(pool, n, frames)))
        elif rows.size:
            if rows.size == 1:
                r = rows[0]
                rows = np.array([r, r + 1] if r + 1 < t else [r - 1, r])
            terms.append((n, rows, expert_forward(pool, n, take_rows(frames, rows))))
    return mixture(decision.retained, terms, t)


def moe_forward(pool: ExpertPool, gate: GatingNetwork, rep: ConcatRepresentation,
                top_k: int) -> tuple[Tensor, RoutingDecision]:
    """Route every frame of `rep` through its top-k experts; returns the
    mixed frames z, shape (rows, D), and the routing decision."""
    gates = gate_scores(gate, rep.frames)
    if gates.shape[1] != pool.n_experts:
        raise ValueError(
            f"gate produces {gates.shape[1]} scores but pool has {pool.n_experts} experts"
        )
    mask, indices, margin = _topk_rows(gates.data, top_k)
    # The mask, the gathered rows and the balancing tally all follow the
    # indices: a replay that moves the gates holds only while they do not.
    hold(gates, lambda data: np.array_equal(_rank(data)[:, :top_k], indices))
    decision = RoutingDecision(gates=gates, retained=mul(gates, const(mask)),
                               indices=indices, tie_margin=margin)
    return mix(pool, decision, rep.frames), decision


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
