import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framemoe.backbone import (
    ConcatRepresentation,
    Waveform,
    concat_layers,
    frame_count,
    frame_signal,
    init_backbone,
    run_layers,
    spectral_input,
    synth_layer_stack,
)


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(samples=np.zeros((2, 3)), sample_rate=8000)
    with pytest.raises(ValueError):
        Waveform(samples=np.array([]), sample_rate=8000)
    with pytest.raises(ValueError):
        Waveform(samples=np.array([1.0, np.nan]), sample_rate=8000)
    with pytest.raises(ValueError):
        Waveform(samples=np.zeros(4), sample_rate=0)


@given(st.integers(min_value=2, max_value=64).flatmap(
    lambda frame: st.tuples(st.just(frame),
                            st.integers(min_value=1, max_value=frame),
                            st.integers(min_value=frame, max_value=512))))
@settings(max_examples=100, deadline=None)
def test_frame_count_matches_enumeration(args):
    frame, hop, n = args
    expected = len([s for s in range(0, n, hop) if s + frame <= n])
    assert frame_count(n, frame, hop) == expected


def test_frame_count_toy_shape():
    # 1024 samples at frame 64 / hop 32 is the toy default: 31 frames.
    assert frame_count(1024, 64, 32) == 31


def test_frame_count_rejects_short_signal():
    with pytest.raises(ValueError):
        frame_count(10, 64, 32)


def test_frame_signal_slices_match_manual_indexing():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200)
    frames = frame_signal(x, 32, 10)
    assert frames.shape == (frame_count(200, 32, 10), 32)
    for t in range(frames.shape[0]):
        np.testing.assert_array_equal(frames[t], x[t * 10 : t * 10 + 32])


def test_frame_signal_keeps_leading_axes():
    x = np.random.default_rng(1).standard_normal((3, 2, 100))
    frames = frame_signal(x, 32, 10)
    assert frames.shape == (3, 2, frame_count(100, 32, 10), 32)
    for i in range(3):
        for j in range(2):
            np.testing.assert_array_equal(frames[i, j], frame_signal(x[i, j], 32, 10))


def test_init_backbone_shapes_and_freezing():
    rng = np.random.default_rng(1)
    bb = init_backbone(rng, n_layers=3, width=8, frame=32, hop=16)
    assert bb.projection.shape == (17, 8)
    assert not bb.projection.requires_grad
    assert len(bb.affines) == 3
    for w, b in bb.affines:
        assert w.shape == (8, 8)
        assert b.shape == (8,)
        assert not w.requires_grad and not b.requires_grad

    unfrozen = init_backbone(rng, n_layers=2, width=4, frame=32, hop=16,
                             frozen=False)
    # The spectral projection never trains, whatever the flag says.
    assert not unfrozen.projection.requires_grad
    for w, b in unfrozen.affines:
        assert w.requires_grad and b.requires_grad


def test_init_backbone_rejects_bad_args():
    rng = np.random.default_rng(2)
    with pytest.raises(ValueError):
        init_backbone(rng, n_layers=0, width=8, frame=32, hop=16)
    with pytest.raises(ValueError):
        init_backbone(rng, n_layers=1, width=8, frame=32, hop=64)


def test_layer_stack_shapes_and_first_layer_oracle():
    rng = np.random.default_rng(3)
    bb = init_backbone(rng, n_layers=2, width=6, frame=32, hop=16)
    wave = Waveform(samples=rng.standard_normal(160), sample_rate=8000)
    stack = run_layers(spectral_input(wave.samples, bb), bb)
    t = frame_count(160, 32, 16)
    assert len(stack) == 3
    for layer in stack:
        assert layer.shape == (t, 6)

    frames = frame_signal(wave.samples, 32, 16)
    feats = np.log1p(np.abs(np.fft.rfft(frames, n=32, axis=1)))
    np.testing.assert_array_equal(stack[0].data, feats @ bb.projection.data)
    h = feats @ bb.projection.data
    for i, (w, b) in enumerate(bb.affines, start=1):
        h = np.maximum(h @ w.data + b.data, 0.0)
        np.testing.assert_array_equal(stack[i].data, h)


def test_backbone_is_deterministic_per_seed():
    samples = np.sin(np.arange(300) * 0.1)

    def layers(seed):
        bb = init_backbone(np.random.default_rng(seed), 2, 4, 32, 16)
        return run_layers(spectral_input(samples, bb), bb)

    a, b, c = layers(7), layers(7), layers(8)
    for la, lb in zip(a, b):
        np.testing.assert_array_equal(la.data, lb.data)
    assert not np.array_equal(a[1].data, c[1].data)


def test_concat_layers_width_and_order():
    rng = np.random.default_rng(4)
    bb = init_backbone(rng, n_layers=3, width=5, frame=32, hop=16)
    wave = Waveform(samples=rng.standard_normal(96), sample_rate=8000)
    stack = run_layers(spectral_input(wave.samples, bb), bb)
    rep = concat_layers(stack)
    assert rep.frames.shape == (stack[0].shape[0], 4 * 5)
    assert rep.n_layers == 3 and rep.width == 5
    for i, layer in enumerate(stack):
        np.testing.assert_array_equal(rep.frames.data[:, i * 5 : (i + 1) * 5],
                                      layer.data)


def test_synth_layer_stack_is_the_layer_concatenation_without_a_tape():
    rng = np.random.default_rng(5)
    bb = init_backbone(rng, n_layers=2, width=4, frame=32, hop=16, frozen=False)
    spectra = spectral_input(rng.standard_normal((2, 96)), bb).reshape(-1, 17)
    rep = synth_layer_stack(spectra, bb)
    assert isinstance(rep, np.ndarray) and rep.shape == (spectra.shape[0], 3 * 4)
    np.testing.assert_array_equal(rep, concat_layers(run_layers(spectra, bb)).frames.data)


def test_concat_representation_checks_width():
    from framemoe.autodiff import const

    with pytest.raises(ValueError):
        ConcatRepresentation(frames=const(np.zeros((3, 10))), n_layers=2, width=4)
