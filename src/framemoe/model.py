"""Assembly of the full pipeline: backbone, shared expert pool, per-task
gates, and both heads, plus the per-utterance feature plumbing that training
and evaluation share.

With the backbone frozen, the concatenated layer features of an utterance
never change, so they are computed once, in one tape-free pass over a whole
split, and re-entered into each step's graph as constants. The unfrozen
variant caches the backbone's spectral input and rebuilds the layers in-graph
every step. A batch of utterances, all of one length, runs as a single graph
over their stacked frames.
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
    spectral_input,
    synth_layer_stack,
)
from .config import ExperimentConfig, component_rng
from .heads import (
    SeHead,
    SerHead,
    SpectralFeature,
    StftConfig,
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
    ExpertPool,
    GatingNetwork,
    RoutingDecision,
    TaskSequence,
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
    se_head: SeHead
    stft: StftConfig
    top_k: int


def build_model(cfg: ExperimentConfig) -> JointModel:
    """Construct every component from the config's seed split."""
    b = cfg.backbone
    backbone_seed = b.seed if b.seed is not None else None
    if backbone_seed is not None:
        backbone_rng = np.random.default_rng(backbone_seed)
    else:
        backbone_rng = component_rng(cfg.seed, "backbone")
    backbone = init_backbone(backbone_rng, n_layers=b.n_layers, width=b.width,
                             frame=b.frame, hop=b.hop, frozen=not b.unfrozen)

    rng = component_rng(cfg.seed, "model")
    width = (b.n_layers + 1) * b.width
    pool = init_expert_pool(rng, n_experts=cfg.moe.n_experts, in_width=width,
                            hidden=cfg.moe.expert_hidden, out_width=b.width)
    gates = {
        TASK_SER: init_gate(rng, TASK_SER, width, cfg.moe.n_experts),
        TASK_SE: init_gate(rng, TASK_SE, width, cfg.moe.n_experts),
    }
    stft = StftConfig(window=cfg.heads.stft.window, hop=cfg.heads.stft.hop,
                      fft_size=cfg.heads.stft.fft_size)
    ser_head = init_ser_head(rng, width=b.width, hidden=cfg.heads.ser_hidden)
    se_head = init_se_head(rng, width=b.width, n_bins=stft.n_bins,
                           hidden=cfg.heads.se_hidden)
    return JointModel(backbone=backbone, pool=pool, gates=gates,
                      ser_head=ser_head, se_head=se_head, stft=stft,
                      top_k=cfg.moe.top_k)


def named_parameters(model: JointModel) -> dict[str, Tensor]:
    """Every parameter tensor keyed by its name, in a stable order: backbone,
    experts, gates, classification head, denoising head."""
    bb, ser, se = model.backbone, model.ser_head, model.se_head
    tensors = [bb.projection]
    for w, b in bb.affines:
        tensors += [w, b]
    for e in model.pool.experts:
        tensors += [e.w1, e.b1, e.w2, e.b2]
    for task in (TASK_SER, TASK_SE):
        tensors += [model.gates[task].w, model.gates[task].b]
    tensors += [ser.scorer_w, ser.scorer_b, ser.cls_w1, ser.cls_b1, ser.cls_w2, ser.cls_b2]
    tensors += [se.w1, se.b1, se.w2, se.b2]
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
class UtteranceFeatures:
    """Cached per-utterance inputs, all in the normalized domain."""

    uid: str
    label: int | None
    x_noisy: np.ndarray
    x_clean: np.ndarray | None
    concat_rep: np.ndarray | None  # frozen backbone: the layer concatenation
    spectra: np.ndarray | None  # unfrozen backbone: the stack's input


def compute_features(model: JointModel, uids: list[str], noisy: np.ndarray,
                     clean: np.ndarray | None = None, labels=None,
                     spectrum: np.ndarray | None = None) -> list[UtteranceFeatures]:
    """Features of B equal-length utterances from stacked (B, N) waveforms.

    The noisy mixes are framed and transformed once, at the STFT framing
    (`spectrum`, their complex STFT, may be passed in when the caller has it
    already). The backbone shares the framing, so it reuses those log1p
    magnitudes whenever fft_size == frame. A frozen stack runs once over all
    B utterances and its layer concatenation is cached as numbers, checked
    finite once here since later passes take it as a constant.
    """
    if spectrum is None:
        spectrum = stft(noisy, model.stft)
    x_noisy = np.log1p(np.abs(spectrum))
    x_clean = None if clean is None else log1p_spectrum(clean, model.stft)
    n_utts, n_frames, _ = x_noisy.shape
    bb, st = model.backbone, model.stft
    shared = (st.window, st.hop, st.fft_size) == (bb.frame, bb.hop, bb.frame)
    spectra = x_noisy if shared else spectral_input(noisy, bb)
    if spectra.shape[1] != n_frames:
        raise ValueError(f"backbone frames ({spectra.shape[1]}) misaligned with "
                         f"spectral frames ({n_frames})")
    rep = None
    if bb.frozen:
        stacked = spectra.reshape(n_utts * n_frames, -1)
        rep = synth_layer_stack(stacked, bb)
        check_outputs("frozen layer concatenation", [rep],
                      lambda: synth_layer_stack(stacked, bb))
        rep = rep.reshape(n_utts, n_frames, -1)
    labels = [None] * n_utts if labels is None else labels
    return [UtteranceFeatures(uid=uids[b], label=labels[b], x_noisy=x_noisy[b],
                              x_clean=None if x_clean is None else x_clean[b],
                              concat_rep=None if rep is None else rep[b],
                              spectra=None if bb.frozen else spectra[b])
            for b in range(n_utts)]


@dataclass
class ModelOutputs:
    """One batch's outputs; rows of utterance b are b*T .. (b+1)*T - 1, with
    T = ser_seq.segment, and row b of ser_logits is its class scores."""

    ser_logits: Tensor
    enhanced: SpectralFeature
    ser_seq: TaskSequence
    se_seq: TaskSequence
    ser_decision: RoutingDecision
    se_decision: RoutingDecision


def representation(model: JointModel, batch: list[UtteranceFeatures]) -> ConcatRepresentation:
    """The stacked backbone frames of a batch of equal-length utterances."""
    counts = sorted({f.x_noisy.shape[0] for f in batch})
    if len(counts) != 1:
        raise ValueError(f"a batch needs one frame count per utterance, got {counts}")
    if model.backbone.frozen:
        return ConcatRepresentation(frames=const(np.vstack([f.concat_rep for f in batch])),
                                    n_layers=model.backbone.n_layers,
                                    width=model.backbone.width, segment=counts[0])
    layers = run_layers(np.vstack([f.spectra for f in batch]), model.backbone)
    return concat_layers(layers, segment=counts[0])


def forward_features(model: JointModel, batch: list[UtteranceFeatures]) -> ModelOutputs:
    """A batch of utterances through routing and both heads, as one graph."""
    rep = representation(model, batch)
    ser_seq, ser_dec = moe_forward(model.pool, model.gates[TASK_SER], rep, model.top_k)
    se_seq, se_dec = moe_forward(model.pool, model.gates[TASK_SE], rep, model.top_k)
    logits = ser_classify(model.ser_head, ser_seq)
    noisy_feat = SpectralFeature(frames=const(np.vstack([f.x_noisy for f in batch])),
                                 config=model.stft)
    enhanced = se_decode(model.se_head, se_seq, noisy_feat)
    return ModelOutputs(ser_logits=logits, enhanced=enhanced,
                        ser_seq=ser_seq, se_seq=se_seq,
                        ser_decision=ser_dec, se_decision=se_dec)
