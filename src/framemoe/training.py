"""Losses, optimizer, and the two-phase training procedure.

Phase 1 freezes everything except one task head at a time and trains the
denoising head on the L1 spectral loss and the classification head on the
weighted cross entropy. Phase 2 starts from the phase-1 head weights, keeps
the expert pool and gates at their initialization, and trains heads, gates,
experts (and optionally the backbone affine layers at a second learning rate)
against the joint objective.

Every training step of both phases runs its forward and backward pass in
float32, on float32 copies of the parameters it reads and on float32 train
features, as in mixed-precision training (Micikevicius et al., arXiv
1710.03740). A step reads parameters only through the optimizer's groups,
each on its group's float32 copy; the frozen backbone projection, which an
unfrozen stack multiplies in-graph, enters as a constant of the step's
dtype. The float64 parameters stay the masters: the optimizer takes the
step's gradients as float64 and updates the masters and its float64
moments. Everything outside a step stays float64: the dev pass, the
best-epoch snapshots and the checkpoints, so that a checkpoint's dev loss
and everything evaluated from it can be recomputed in float64.

The optimizer holds each group's parameters flat: building an AdamW makes
every parameter's `.data` a view into one contiguous float64 buffer per
group, and the group's gradients, moments and float32 step copy are one
buffer each, laid out alike. So the update, its finiteness checks, the
gradient norms and a step's float32 copy are a few whole-buffer ops per
group (the multi-tensor form of AdamW), with the same IEEE operations in
the same order as a per-tensor loop, so the trained bits do not depend on
the layout. Code that rebinds a parameter's `.data` after the optimizer was
built detaches it; the next step refuses it by name.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .autodiff import (
    NumericalError,
    Tensor,
    abs_,
    add,
    backprop,
    check_outputs,
    const,
    log_softmax_rows,
    mean_all,
    mul,
    neg,
    no_tape,
    sub,
    sum_all,
    working_dtype,
)
from .files import write_atomic
from .heads import N_CLASSES
from .model import ModelOutputs, forward_features, representation
from .moe import TASK_SE, TASK_SER, TaskSequence, balancing_loss, moe_forward


class TrainingAborted(RuntimeError):
    """Raised when a training step meets a non-finite value; carries diagnostics."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class NormStats:
    """Scalar mean and standard deviation pooled over training samples."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        # A bool is no number here, as in the config hydrator.
        real = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in (self.mean, self.std))
        if not (real and np.isfinite(self.mean) and np.isfinite(self.std) and self.std > 0.0):
            raise ValueError(f"bad normalization stats: mean={self.mean} std={self.std}")


def norm_stats(samples: np.ndarray) -> NormStats:
    """Mean and population std over every sample of a stacked (B, N) array."""
    if samples.size == 0:
        raise ValueError("cannot estimate normalization stats from an empty set")
    return NormStats(mean=float(samples.mean()), std=float(samples.std()))


def z_normalize(samples: np.ndarray, stats: NormStats) -> np.ndarray:
    return (samples - stats.mean) / stats.std


def class_weights_from_counts(counts) -> np.ndarray:
    """Inverse-frequency weights rescaled to mean 1."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (N_CLASSES,) or np.any(counts <= 0):
        raise ValueError(f"need positive counts for all {N_CLASSES} classes, got {counts}")
    inv = 1.0 / counts
    return inv / inv.mean()


def weighted_cross_entropy(logits, labels, weights) -> Tensor:
    """Class-weighted cross entropy normalized by the sum of batch weights.

    logits: (B, 4) Tensor or array; labels: B class indices. With uniform
    weights this reduces to the plain mean cross entropy.
    """
    labels = np.asarray(labels, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (N_CLASSES,):
        raise ValueError(f"expected {N_CLASSES} class weights, got shape {weights.shape}")
    if labels.ndim != 1 or labels.size == 0:
        raise ValueError("labels must be a non-empty 1-d sequence")
    if np.any((labels < 0) | (labels >= N_CLASSES)):
        raise ValueError(f"labels out of range: {labels}")
    logp = log_softmax_rows(logits)
    if logp.shape[0] != labels.size:
        raise ValueError(f"{logp.shape[0]} logit rows for {labels.size} labels")
    picked = np.zeros((labels.size, N_CLASSES))
    picked[np.arange(labels.size), labels] = weights[labels]
    total_weight = float(weights[labels].sum())
    return mul(neg(sum_all(mul(logp, const(picked)))), 1.0 / total_weight)


def l1_loss(pred, target) -> Tensor:
    """Mean absolute difference over all entries."""
    return mean_all(abs_(sub(pred, target)))


def joint_loss(wce: Tensor, l1: Tensor, balance: Tensor | None = None) -> Tensor:
    """Unweighted sum of the task losses, plus the balancing term if given."""
    total = add(wce, l1)
    if balance is not None:
        total = add(total, balance)
    return total


# The dtype of a training step's arithmetic; parameters are float64 masters.
STEP_DTYPE = np.float32


class ParamGroup:
    """One optimizer group laid out flat: each parameter's `.data` is a view
    into one contiguous float64 buffer, `values`, and its gradient, its two
    moments and its STEP_DTYPE step copy sit at the same offsets of one
    buffer each, so that the work over every tensor of the group is a few
    whole-buffer ops."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        sizes = [p.data.size for p in self.params]
        # Parameter i owns entries ends[i] - sizes[i] .. ends[i] - 1.
        self.ends = np.cumsum(sizes, dtype=np.int64)
        self.values = np.empty(sum(sizes))
        self.views = self._views(self.values)
        for p, view in zip(self.params, self.views):
            view[...] = p.data
            p.data = view
        self.grads = np.empty_like(self.values)
        self.grad_views = self._views(self.grads)
        self.step_values = np.empty(self.values.size, dtype=STEP_DTYPE)
        self.step_views = self._views(self.step_values)
        self.m: np.ndarray | None = None
        self.v: np.ndarray | None = None

    def _views(self, buffer: np.ndarray) -> list[np.ndarray]:
        return [buffer[end - p.data.size : end].reshape(p.data.shape)
                for p, end in zip(self.params, self.ends)]

    def gather_grads(self) -> None:
        """Copy every gradient into `grads` (a None gradient reads as 0) and
        bind each `.grad` to its view there; a no-op once they are bound."""
        if all(p.grad is view for p, view in zip(self.params, self.grad_views)):
            return
        np.concatenate([np.zeros(view.size) if p.grad is None else np.ravel(p.grad)
                        for p, view in zip(self.params, self.grad_views)], out=self.grads)
        for p, view in zip(self.params, self.grad_views):
            p.grad = view

    def enter_step(self) -> None:
        """Bind every `.data` to its view of a fresh STEP_DTYPE copy of the
        masters (which restore_params may have written since the last step)."""
        np.copyto(self.step_values, self.values)
        for p, view in zip(self.params, self.step_views):
            p.data = view

    def leave_step(self) -> None:
        """Bind every `.data` back to its master view and gather the step's
        gradients as float64."""
        for p, view in zip(self.params, self.views):
            p.data = view
        self.gather_grads()

    def check(self) -> None:
        """Refuse a parameter whose `.data` is no longer its view of `values`,
        then a non-finite gradient or value, naming the first parameter that
        holds one (its gradient checked before its value)."""
        for p, view in zip(self.params, self.views):
            if p.data is not view:
                raise ValueError(f"AdamW.step: parameter '{p.name}' no longer views the "
                                 f"optimizer's buffer (its .data was rebound after the "
                                 f"optimizer was built)")
        self.gather_grads()
        if np.isfinite(self.grads).all() and np.isfinite(self.values).all():
            return
        bad_grad, bad_value = self._first_nonfinite(self.grads), self._first_nonfinite(self.values)
        what, index = ("gradient", bad_grad) if bad_grad <= bad_value else ("value", bad_value)
        raise NumericalError(f"AdamW.step: non-finite {what} "
                             f"in parameter '{self.params[index].name}'")

    def _first_nonfinite(self, buffer: np.ndarray) -> int:
        """Index of the first parameter with a non-finite entry in `buffer`,
        or the parameter count if there is none."""
        bad = np.flatnonzero(~np.isfinite(buffer))
        if bad.size == 0:
            return len(self.params)
        return int(np.searchsorted(self.ends, bad[0], side="right"))


class AdamW:
    """Adam with decoupled weight decay (Loshchilov & Hutter, arXiv
    1711.05101) and per-group learning rates, applied to each ParamGroup as
    whole-buffer ops (the multi-tensor form)."""

    def __init__(self, groups, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01):
        self.groups = [ParamGroup(g["params"], g["lr"]) for g in groups]
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        # Per-group gradient norms of the last step that reached backprop
        # (set by train_epoch, reported when training aborts).
        self.last_grad_norms: list[float] = []

    def zero_grad(self) -> None:
        for g in self.groups:
            for p in g.params:
                p.zero_grad()

    def step(self) -> None:
        """One update of every parameter. A non-finite gradient or parameter
        value is refused with a NumericalError naming the parameter: a value
        that a relu zeroes on its way to the loss leaves the loss finite.
        Nothing moves and `t` stays unless every group passes."""
        for g in self.groups:
            g.check()
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        debias1, debias2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for g in self.groups:
            if g.m is None:
                g.m, g.v = np.zeros_like(g.values), np.zeros_like(g.values)
            m, v, grad, p = g.m, g.v, g.grads, g.values
            # m = b1*m + (1-b1)*grad; v = b2*v + ((1-b2)*grad)*grad
            m *= b1
            update = np.multiply(grad, 1.0 - b1)
            m += update
            v *= b2
            np.multiply(grad, 1.0 - b2, out=update)
            update *= grad
            v += update
            # p -= lr*(m_hat/(sqrt(v_hat)+eps) + wd*p)
            np.divide(m, debias1, out=update)
            denom = v / debias2
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            np.multiply(p, self.weight_decay, out=denom)
            update += denom
            update *= g.lr
            p -= update

    def grad_norms(self) -> list[float]:
        """Per group, the L2 norm of its gradients as one dot product."""
        norms = []
        for g in self.groups:
            g.gather_grads()
            norms.append(float(np.sqrt(np.dot(g.grads, g.grads))))
        return norms


def snapshot_params(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: p.data.copy() for name, p in params.items()}


def restore_params(params: dict[str, Tensor], snapshot: dict[str, np.ndarray]) -> None:
    for name, p in params.items():
        if name not in snapshot:
            raise KeyError(f"snapshot is missing parameter '{name}'")
        if snapshot[name].shape != p.data.shape:
            raise ValueError(
                f"snapshot parameter '{name}' has shape {snapshot[name].shape}, "
                f"expected {p.data.shape}"
            )
        p.data[...] = snapshot[name]


CHECKPOINT_FORMAT = "framemoe-checkpoint"
CHECKPOINT_VERSION = 1


def save_checkpoint(path: str | Path, params: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Write named parameters as versioned JSON with shapes alongside data."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "params": {
            name: {"shape": list(arr.shape), "data": arr.reshape(-1).tolist()}
            for name, arr in params.items()
        },
    }
    if extra:
        payload.update(extra)
    write_atomic(path, json.dumps(payload, sort_keys=True))


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a recognized checkpoint file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
    params = {}
    for name, entry in payload["params"].items():
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])
        params[name] = arr
    meta = {k: v for k, v in payload.items() if k not in ("format", "version", "params")}
    return params, meta


def _batches(n: int, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


@dataclass
class LossStages:
    """One batch's joint loss and the stage values it was built from."""

    out: ModelOutputs
    wce: Tensor
    l1: Tensor
    balance: Tensor | None
    total: Tensor


def joint_loss_stages(model, feats, class_weights, moe_cfg, train_cfg,
                      base: LossStages | None = None, changed: str | None = None) -> LossStages:
    """The joint objective over a batch, stage by stage (see batch_joint_loss).
    Given `base`, the stages where only parameter `changed` had another value,
    a loss whose inputs forward_features hands back as base's own is base's."""
    out = forward_features(model, feats, None if base is None else base.out, changed)

    def kept(*names: str) -> bool:
        return base is not None and all(getattr(out, n) is getattr(base.out, n) for n in names)

    wce = l1 = const(np.zeros(()))
    if train_cfg.ser_loss_enabled:
        wce = (base.wce if kept("ser_logits")
               else weighted_cross_entropy(out.ser_logits, feats.labels, class_weights))
    if train_cfg.se_loss_enabled:
        l1 = (base.l1 if kept("enhanced")
              else l1_loss(out.enhanced, const(feats.x_clean.reshape(out.enhanced.shape))))
    balance = None
    if moe_cfg.balancing_loss_enabled:
        balance = (base.balance if kept("ser_decision", "se_decision")
                   else mul(add(balancing_loss(out.ser_decision, moe_cfg.balancing_alpha),
                                balancing_loss(out.se_decision, moe_cfg.balancing_alpha)), 0.5))
    return LossStages(out=out, wce=wce, l1=l1, balance=balance,
                      total=joint_loss(wce, l1, balance))


def batch_joint_loss(model, batch_feats, class_weights, moe_cfg, train_cfg):
    """Joint objective over a batch of utterances, built as one graph.

    Returns (total, parts, decisions) where parts holds float components and
    decisions the per-task routing pooled over the batch's frames. The
    balancing term is computed once over the frames of the whole batch
    (per-batch pooling) and averaged over the two task gates so the
    uniform-routing value stays at alpha. All utterances have the same frame
    count, so the L1 mean over the stacked frames equals the mean of the
    per-utterance L1 means.
    """
    stages = joint_loss_stages(model, batch_feats, class_weights, moe_cfg, train_cfg)
    total = stages.total
    check_outputs("joint loss", [total.data], lambda: batch_joint_loss(
        model, batch_feats, class_weights, moe_cfg, train_cfg))
    parts = {"wce": float(stages.wce.data), "l1": float(stages.l1.data),
             "balance": 0.0 if stages.balance is None else float(stages.balance.data),
             "total": float(total.data)}
    return total, parts, {"ser": stages.out.ser_decision, "se": stages.out.se_decision}


@contextmanager
def step_precision(opt: AdamW) -> Iterator[None]:
    """Run a step's forward and backward pass in STEP_DTYPE: every node made
    inside holds STEP_DTYPE values, and so does every parameter of `opt`'s
    groups, each on its group's STEP_DTYPE copy of its masters, made with
    one copy per group. On the way out, by an exception too, every `.data`
    is its float64 master view again and every gradient is float64,
    gathered into its group's gradient buffer."""
    try:
        for g in opt.groups:
            g.enter_step()
        with working_dtype(STEP_DTYPE):
            yield
    finally:
        for g in opt.groups:
            g.leave_step()


def train_epoch(opt: AdamW, batches: list[np.ndarray], loss_of, phase: int,
                epoch: int) -> dict:
    """One epoch of `opt` over `batches`; returns the epoch's curve row.

    `loss_of(batch)` builds a step's loss and checks it, returning the loss
    tensor and its float parts (wce, l1, balance, total). It runs under
    step_precision(opt), so it may read only the optimizer's parameters
    (and constants). Each part of the row is a running sum in
    batch order divided by the batch count. A non-finite value anywhere in a
    step aborts with the optimizer's last gradient norms, which carry across
    epochs.
    """
    sums = {"wce": 0.0, "l1": 0.0, "balance": 0.0, "total": 0.0}
    for index, batch in enumerate(batches):
        opt.zero_grad()
        try:
            with step_precision(opt):
                loss, parts = loss_of(batch)
                backprop(loss)
            opt.last_grad_norms = opt.grad_norms()
            opt.step()
        except NumericalError as exc:
            raise TrainingAborted(
                f"non-finite values in phase {phase} at epoch {epoch}: {exc}",
                diagnostics={"phase": phase, "epoch": epoch, "batch": index,
                             "last_grad_norms": opt.last_grad_norms,
                             "error": str(exc)},
            ) from exc
        for key in sums:
            sums[key] += parts[key]
    return {"epoch": epoch, **{key: total / len(batches) for key, total in sums.items()}}


def cache_task_sequences(model, feats, batch_size: int) -> dict[str, np.ndarray]:
    """Mixed per-task sequences with the current (frozen) experts and gates.

    Used by phase 1: with the backbone, experts, and gates all fixed, each
    utterance's task sequences are constants, so the head-only training loops
    can reuse them instead of rebuilding the routing graph every step.
    Returns one (utterances, T, D) array per task, computed forward-only in
    batches of `batch_size`.
    """
    def sequences(batch):
        rep = representation(model, batch)
        return [moe_forward(model.pool, model.gates[task], rep, model.top_k)[0]
                for task in (TASK_SER, TASK_SE)]

    parts: dict[str, list[np.ndarray]] = {TASK_SER: [], TASK_SE: []}
    with no_tape():
        for start in range(0, len(feats), batch_size):
            batch = feats[start : start + batch_size]
            seqs = sequences(batch)
            check_outputs("phase-1 task sequences", [seq.z.data for seq in seqs],
                          lambda: sequences(batch))
            for seq in seqs:
                parts[seq.task].append(seq.z.data.reshape(-1, seq.segment, seq.z.shape[1]))
    return {task: np.concatenate(arrays) for task, arrays in parts.items()}


@dataclass
class PhaseResult:
    curve: list[dict]
    checkpoint: dict[str, np.ndarray]


@dataclass
class Phase2Result:
    curve: list[dict]
    dev_totals: list[float]
    best_epoch: int
    checkpoint: dict[str, np.ndarray]


def train_phase1(model, train_feats, class_weights, cfg, rng) -> PhaseResult:
    """Train each head separately with everything else frozen.

    The classification head minimizes the weighted cross entropy, the
    denoising head the L1 spectral loss. Returns the loss curves and a
    snapshot of all parameters after training.
    """
    from .heads import se_decode, ser_classify
    from .model import named_parameters, se_parameters, ser_parameters

    if not train_feats:
        raise ValueError("phase 1 needs a non-empty training set")
    cached = cache_task_sequences(model, train_feats, cfg.phase2_batch)
    n_utts, seg, _ = cached["ser"].shape
    labels, x_noisy, x_clean = train_feats.labels, train_feats.x_noisy, train_feats.x_clean

    def stacked(arrays: np.ndarray, batch: np.ndarray) -> np.ndarray:
        return arrays[batch].reshape(len(batch) * seg, -1)

    def ser_loss(batch: np.ndarray) -> Tensor:
        seq = TaskSequence(task=TASK_SER, z=const(stacked(cached["ser"], batch)), segment=seg)
        return weighted_cross_entropy(ser_classify(model.ser_head, seq), labels[batch],
                                      class_weights)

    def se_loss(batch: np.ndarray) -> Tensor:
        seq = TaskSequence(task=TASK_SE, z=const(stacked(cached["se"], batch)), segment=seg)
        enhanced = se_decode(model.se_head, seq, const(stacked(x_noisy, batch)))
        return l1_loss(enhanced, const(stacked(x_clean, batch)))

    def checked(loss_of, column: str, what: str):
        """A head's step loss, checked, with its value as `column` and total."""
        def step_loss(batch: np.ndarray):
            loss = loss_of(batch)
            check_outputs(f"phase-1 {what} loss", [loss.data], lambda: loss_of(batch))
            value = float(loss.data)
            return loss, {"wce": 0.0, "l1": 0.0, "balance": 0.0, column: value, "total": value}
        return step_loss

    # One pass per head, classification first.
    heads = [(ser_parameters(model), cfg.phase1_ser_lr, cfg.phase1_ser_epochs,
              cfg.phase1_ser_batch, checked(ser_loss, "wce", "classification")),
             (se_parameters(model), cfg.phase1_se_lr, cfg.phase1_se_epochs,
              cfg.phase1_se_batch, checked(se_loss, "l1", "denoising"))]
    curve: list[dict] = []
    for params, lr, epochs, batch_size, step_loss in heads:
        opt = AdamW([{"params": params, "lr": lr}], weight_decay=cfg.weight_decay)
        for _ in range(epochs):
            curve.append(train_epoch(opt, _batches(n_utts, batch_size, rng), step_loss,
                                     1, len(curve)))

    return PhaseResult(curve=curve, checkpoint=snapshot_params(named_parameters(model)))


def evaluate_joint_loss(model, feats, class_weights, moe_cfg, train_cfg) -> float:
    """Forward-only joint loss over a whole split, as one pooled batch."""
    with no_tape():
        _, parts, _ = batch_joint_loss(model, feats, class_weights, moe_cfg, train_cfg)
    return parts["total"]


def train_phase2(model, train_feats, dev_feats, class_weights, cfg, moe_cfg, rng) -> Phase2Result:
    """Joint training of experts, gates, and heads from the weights the model holds.

    The backbone affine layers join in at their own learning rate when the
    backbone is unfrozen. After each epoch the joint loss on the dev split is
    measured and the best-scoring parameters are the ones returned. A
    non-finite loss, gradient or parameter aborts with the last gradient
    norms attached.
    """
    from .model import backbone_parameters, moe_head_parameters, named_parameters

    if not train_feats:
        raise ValueError("phase 2 needs a non-empty training set")
    params = named_parameters(model)

    groups = [{"params": moe_head_parameters(model), "lr": cfg.lr_heads_gates_experts}]
    bb = backbone_parameters(model)
    if bb:
        groups.append({"params": bb, "lr": cfg.lr_backbone})
    opt = AdamW(groups, weight_decay=cfg.weight_decay)

    def step_loss(batch: np.ndarray):
        total, parts, _ = batch_joint_loss(model, train_feats[batch], class_weights, moe_cfg, cfg)
        return total, parts

    curve: list[dict] = []
    dev_totals: list[float] = []
    best = snapshot_params(params)
    best_loss = float("inf")
    best_epoch = -1

    for epoch in range(cfg.phase2_epochs):
        curve.append(train_epoch(opt, _batches(len(train_feats), cfg.phase2_batch, rng),
                                 step_loss, 2, epoch))

        dev_total = evaluate_joint_loss(model, dev_feats, class_weights, moe_cfg, cfg) \
            if dev_feats else curve[-1]["total"]
        dev_totals.append(dev_total)
        if dev_total < best_loss:
            best_loss = dev_total
            best_epoch = epoch
            best = snapshot_params(params)

    restore_params(params, best)
    return Phase2Result(curve=curve, dev_totals=dev_totals, best_epoch=best_epoch,
                        checkpoint=best)
