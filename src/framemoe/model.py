"""Assembly of the full pipeline: backbone, shared expert pool, per-task
gates, and both heads, plus the feature plumbing that training and
evaluation share.

One framing serves everything: the experts route the backbone's frames and
the denoising head decodes the spectrum of those same frames, so the noisy
log1p spectrum is both the stack's input and the head's. With the backbone
frozen, the concatenated layer features of an utterance never change, so
they are computed once per split, in tape-free passes over chunks of its
utterances written into arrays allocated once, and re-entered into each
step's graph as constants. The unfrozen variant rebuilds the layers
in-graph every step. A batch of utterances, all of one length, runs as a
single graph over their stacked frames, routed for each task in moe.TASKS.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, check_outputs, const
from .backbone import (
    BackboneParams,
    ConcatRepresentation,
    concat_layers,
    init_backbone,
    run_layers,
    synth_layer_stack,
)
from .config import ExperimentConfig, component_rng
from .heads import (
    Mlp,
    SerHead,
    init_se_head,
    init_ser_head,
    log1p_spectrum,
    se_decode,
    ser_classify,
    stft,
)
from .moe import (
    TASK_SE,
    TASK_SER,
    TASKS,
    ExpertPool,
    GatingNetwork,
    RoutingDecision,
    init_expert_pool,
    init_gate,
    moe_forward,
)


@dataclass
class JointModel:
    backbone: BackboneParams
    pool: ExpertPool
    gates: dict[str, GatingNetwork]
    ser_head: SerHead
    se_head: Mlp
    top_k: int


def build_model(cfg: ExperimentConfig) -> JointModel:
    """Construct every component from the config's seed split."""
    b = cfg.backbone
    backbone = init_backbone(component_rng(cfg.seed, "backbone"), n_layers=b.n_layers,
                             width=b.width, frame=b.frame, hop=b.hop, frozen=not b.unfrozen)

    rng = component_rng(cfg.seed, "model")
    width = (b.n_layers + 1) * b.width
    pool = init_expert_pool(rng, n_experts=cfg.moe.n_experts, in_width=width,
                            hidden=cfg.moe.expert_hidden, out_width=b.width)
    gates = {task: init_gate(rng, task, width, cfg.moe.n_experts) for task in TASKS}
    ser_head = init_ser_head(rng, width=b.width, hidden=cfg.heads.ser_hidden)
    se_head = init_se_head(rng, width=b.width, n_bins=b.frame // 2 + 1,
                           hidden=cfg.heads.se_hidden)
    return JointModel(backbone=backbone, pool=pool, gates=gates,
                      ser_head=ser_head, se_head=se_head, top_k=cfg.moe.top_k)


def named_parameters(model: JointModel) -> dict[str, Tensor]:
    """Every parameter tensor keyed by its name, in a stable order: backbone,
    experts, gates, classification head, denoising head."""
    bb, ser = model.backbone, model.ser_head
    tensors = [bb.projection]
    for w, b in bb.affines:
        tensors += [w, b]
    for e in model.pool.experts:
        tensors += [e.w1, e.b1, e.w2, e.b2]
    for task in TASKS:
        tensors += [model.gates[task].w, model.gates[task].b]
    tensors += [ser.scorer_w, ser.scorer_b]
    for m in (ser.cls, model.se_head):
        tensors += [m.w1, m.b1, m.w2, m.b2]
    return {t.name: t for t in tensors}


def _with_prefix(model: JointModel, prefix: str) -> list[Tensor]:
    return [t for name, t in named_parameters(model).items() if name.startswith(prefix)]


def moe_head_parameters(model: JointModel) -> list[Tensor]:
    """Experts, gates, and both heads: the primary learning-rate group."""
    return [t for name, t in named_parameters(model).items()
            if not name.startswith("backbone.")]


def ser_parameters(model: JointModel) -> list[Tensor]:
    return _with_prefix(model, "ser.")


def se_parameters(model: JointModel) -> list[Tensor]:
    return _with_prefix(model, "se.")


def backbone_parameters(model: JointModel) -> list[Tensor]:
    """The affine layers; empty when the backbone is frozen."""
    return [] if model.backbone.frozen else _with_prefix(model, "backbone.layer")


@dataclass
class Features:
    """Cached inputs of B equal-length utterances, stacked along axis 0, all
    in the normalized domain: labels (B,), noisy and clean log1p spectra
    (B, T, n_bins), and for a frozen backbone its layer concatenation
    (B, T, (L+1)*width)."""

    labels: np.ndarray
    x_noisy: np.ndarray
    x_clean: np.ndarray | None
    rep: np.ndarray | None

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, rows) -> Features:
        """The utterances picked by a slice or an index array."""
        if isinstance(rows, (int, np.integer)):
            raise TypeError("index features with a slice or an index array")
        return Features(labels=self.labels[rows], x_noisy=self.x_noisy[rows],
                        x_clean=None if self.x_clean is None else self.x_clean[rows],
                        rep=None if self.rep is None else self.rep[rows])


def _frames(arrays: np.ndarray) -> np.ndarray:
    """(B, T, C) per-utterance arrays as (B*T, C) stacked frames."""
    return arrays.reshape(-1, arrays.shape[2])


def compute_features(model: JointModel, noisy: np.ndarray, labels,
                     clean: np.ndarray | None = None,
                     spectrum: np.ndarray | None = None) -> Features:
    """Features of B equal-length utterances from stacked (B, N) waveforms.

    The noisy mixes are framed and transformed once (`spectrum`, their
    complex STFT, may be passed in when the caller has it already); their
    log1p magnitudes feed both the backbone and the denoising head. A frozen
    stack runs once over all B utterances and its layer concatenation is
    cached as numbers, checked finite once here since later passes take it as
    a constant.
    """
    bb = model.backbone
    if spectrum is None:
        spectrum = stft(noisy, bb.frame, bb.hop)
    x_noisy = np.log1p(np.abs(spectrum))
    x_clean = None if clean is None else log1p_spectrum(clean, bb.frame, bb.hop)
    rep = None
    if bb.frozen:
        stacked = _frames(x_noisy)
        # The check refuses non-finite layers, without numpy's warnings.
        with np.errstate(all="ignore"):
            rep = synth_layer_stack(stacked, bb)
            check_outputs("frozen layer concatenation", [rep],
                          lambda: synth_layer_stack(stacked, bb))
        rep = rep.reshape(*x_noisy.shape[:2], -1)
    return Features(labels=np.asarray(labels, dtype=np.int64), x_noisy=x_noisy,
                    x_clean=x_clean, rep=rep)


@dataclass
class ModelOutputs:
    """One batch's outputs: row b of ser_logits and rows b*T .. (b+1)*T - 1
    of enhanced are utterance b's; decisions are keyed in TASKS order."""

    ser_logits: Tensor
    enhanced: Tensor
    decisions: dict[str, RoutingDecision]


def route_tasks(model: JointModel, feats: Features) -> dict[str, tuple[Tensor, RoutingDecision]]:
    """Each task's mixed frames z and routing decision, keyed in TASKS order,
    over the stacked backbone frames of a batch of equal-length utterances."""
    bb = model.backbone
    if bb.frozen:
        rep = ConcatRepresentation(frames=const(_frames(feats.rep)))
    else:
        rep = concat_layers(run_layers(_frames(feats.x_noisy), bb))
    return {task: moe_forward(model.pool, model.gates[task], rep, model.top_k)
            for task in TASKS}


def forward_features(model: JointModel, feats: Features) -> ModelOutputs:
    """A batch of utterances through routing and both heads, as one graph.

    The gradient audit builds it once per base point; its probes replay the
    recorded nodes below the probed parameter (autodiff.forward) and do not
    call it again, unless a probe changes a top-k choice."""
    routed = route_tasks(model, feats)
    return ModelOutputs(
        ser_logits=ser_classify(model.ser_head, routed[TASK_SER][0], feats.x_noisy.shape[1]),
        enhanced=se_decode(model.se_head, routed[TASK_SE][0], const(_frames(feats.x_noisy))),
        decisions={task: decision for task, (_, decision) in routed.items()})
