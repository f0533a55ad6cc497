"""Tiny transformer: embedding, attention, layers, caching, serialization."""

import numpy as np
import pytest

from weavepe.masks import causal_mask, sink_mask
from weavepe.model import (
    BOS_ID,
    DenseFF,
    HeadWeights,
    KVCache,
    LayerWeights,
    ModelWeights,
    WhitespaceVocab,
    embed,
    forward,
    head_scores,
    load_weights,
    random_model,
    save_weights,
    softmax_rows,
    zero_ff,
)
from weavepe.pe_core import Scheme, WeaveParams, rotary_table
from weavepe.theory import TheoryConfig, build_theorem1, build_theorem2


def test_embed_prepends_bos():
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=8, seed=0)
    h = embed([3, 5, 1, 2, 7], w)
    assert h.shape == (4, 6)
    assert np.array_equal(h[:, 0], w.w_e[:, BOS_ID])


def test_embed_empty_after_bos():
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=8, seed=0)
    assert embed([], w).shape == (4, 1)


def test_embed_rejects_unknown_token():
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=8, seed=0)
    with pytest.raises(ValueError):
        embed([8], w)


def test_theorem_embedding_shape():
    m = build_theorem1(TheoryConfig(window=8, t_max=10))
    h = embed([1, 1, 1], m.weights)
    assert np.all(h[0, :] == 1.0)           # first dimension all ones
    assert h[1, 0] == 1.0 and np.all(h[1, 1:] == 0.0)  # second marks <bos>


def test_forward_rejects_empty():
    w = random_model(seed=0)
    with pytest.raises(ValueError):
        forward([], w)


def test_forward_shapes_and_determinism():
    for layers in (1, 2):
        w = random_model(d=8, n_heads=2, n_layers=layers, vocab=16, seed=5)
        tokens = [1, 2, 3, 4, 5]
        tr1 = forward(tokens, w)
        tr2 = forward(tokens, w)
        assert tr1.final.shape == (8, 6)
        assert len(tr1.hidden) == layers + 1
        assert len(tr1.attn) == layers
        for a, b in zip(tr1.hidden, tr2.hidden):
            assert np.array_equal(a, b)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(40, 40)) * 30
    s[np.triu_indices(40, k=1)] = -np.inf
    alpha = softmax_rows(s)
    assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_exact_for_large_integer_scores():
    # the two-layer construction feeds [-(t-1), ..., -1, 0]; stays finite to 700
    t = 700
    s = -np.arange(t, dtype=np.float64)[::-1][None, :]
    alpha = softmax_rows(s)
    assert np.isfinite(alpha).all()
    assert alpha[0, -1] > 0.6  # weight concentrates on the zero score


def test_uniform_attention_with_identical_keys():
    m = build_theorem1(TheoryConfig(window=8, t_max=16))
    tr = m.run(16)
    alpha = tr.alphas[0][0]
    for t in range(1, 17):
        row = alpha[t - 1, :t]
        assert np.allclose(row, 1.0 / t, atol=1e-15)


def test_single_token_attention():
    w = random_model(d=8, n_heads=1, n_layers=1, vocab=8, seed=1)
    tr = forward([3], w)
    assert tr.alphas[0][0][0, 0] == 1.0
    head = w.layers[0].heads[0]
    v1 = head.w_v @ tr.hidden[0][:, 0]
    assert np.allclose(tr.attn[0][:, 0], head.w_o @ v1, atol=1e-15)


def test_two_layer_bos_weight_value():
    m = build_theorem2(TheoryConfig(window=8, t_max=8))
    tr = m.run(8)
    got = tr.alphas[0][0][2, 0]  # query t=3, key <bos>
    expect = np.exp(-2) / (1 + np.exp(-1) + np.exp(-2))
    assert got == pytest.approx(expect, abs=1e-15)
    assert got == pytest.approx(0.090030, abs=1e-6)


def test_additive_head_view_equals_concat_projection():
    rng = np.random.default_rng(7)
    d, h, n = 6, 3, 5
    w = random_model(d=d, n_heads=2, n_layers=1, vocab=8, seed=7, pe_family="dot")
    tokens = [1, 2, 3, 4]
    tr = forward(tokens, w)
    # rebuild: per-head pooled values, then block projection
    h0 = tr.hidden[0]
    allowed = causal_mask(h0.shape[1]).dense()
    pooled = []
    for head in w.layers[0].heads:
        q = (head.w_q @ h0).T
        k = (head.w_k @ h0).T
        s = np.where(allowed, q @ k.T, -np.inf)
        alpha = softmax_rows(s)
        pooled.append((head.w_v @ h0) @ alpha.T)
    w_o_block = np.concatenate([head.w_o for head in w.layers[0].heads], axis=1)
    concat = np.concatenate(pooled, axis=0)
    assert np.allclose(w_o_block @ concat, tr.attn[0], atol=1e-12)


def test_forward_translation_covariance_rotary():
    w = random_model(d=8, n_heads=1, n_layers=1, vocab=8, seed=2)
    rng = np.random.default_rng(3)
    q = rng.normal(size=(4, 8))
    k = rng.normal(size=(6, 8))
    qc = np.array([3.0, 5.0, 8.0, 9.0])
    kc = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])

    def scores(shift):
        rot = (rotary_table(qc + shift, 8, w.theta_base), rotary_table(kc + shift, 8, w.theta_base))
        return head_scores(q, k, w, 0.0, None, rot=rot)

    assert np.allclose(scores(0.0), scores(117.0), atol=1e-12)


@pytest.mark.parametrize("case", ["causal", "sink", "layer_norm"])
def test_rotary_identity_path_matches_dense_kernel(case):
    # raw distances factor into coordinates, so the default rotary forward
    # rotates q and k by 0..n-1; a stair weave with cap n has the same
    # distances but takes the dense scores_rotary path
    w = random_model(d=16, n_heads=2, n_layers=3, vocab=16, seed=11)
    if case == "layer_norm":
        for layer in w.layers:
            layer.layer_norm = "standard"
    tokens = np.random.default_rng(12).integers(1, 16, size=63).tolist()
    n = len(tokens) + 1
    mask = sink_mask(n, 3, 20) if case == "sink" else None
    fast = forward(tokens, w, mask=mask)
    dense = forward(tokens, w, weave=WeaveParams(scheme=Scheme.STAIR, cap=n), mask=mask)
    for a, b in zip(fast.hidden, dense.hidden):
        assert np.max(np.abs(a - b)) <= 1e-12
    for layer_a, layer_b in zip(fast.alphas, dense.alphas):
        for a, b in zip(layer_a, layer_b):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_mask_argument_restricts_attention():
    from weavepe.masks import sink_mask

    w = random_model(d=8, n_heads=1, n_layers=1, vocab=8, seed=4)
    tokens = [1, 2, 3, 4, 5, 6, 7]
    tr = forward(tokens, w, mask=sink_mask(8, 2, 3))
    alpha = tr.alphas[0][0]
    assert alpha[7, 2] == 0.0 and alpha[7, 4] == 0.0
    assert alpha[7, 0] > 0.0 and alpha[7, 7] > 0.0


def test_kv_cache_round_trip():
    cache = KVCache(n_layers=2, n_heads=1)
    rng = np.random.default_rng(0)
    ka = rng.normal(size=(3, 4))
    va = rng.normal(size=(3, 4))
    cache.append(np.arange(4), [[ka], [ka * 2]], [[va], [va * 2]])
    kb = rng.normal(size=(3, 2))
    vb = rng.normal(size=(3, 2))
    cache.append(np.array([4, 5]), [[kb], [kb * 2]], [[vb], [vb * 2]])
    assert len(cache) == 6
    k, v, idx = cache.view(0, 0)
    assert k.shape == (3, 6)
    assert np.array_equal(idx, np.arange(6))
    assert np.array_equal(k[:, :4], ka) and np.array_equal(v[:, 4:], vb)
    k2, _, idx2 = cache.view(1, 0, span=(2, 5))
    assert np.array_equal(idx2, np.array([2, 3, 4]))
    assert np.array_equal(k2[:, 0], ka[:, 2] * 2)


@pytest.mark.parametrize(
    "span",
    [(0, 3), (3, 5), (0, 5), (2, 4), (1, 8), (5, 8), (6, 9), (3, 3), (0, 20), (9, 20), (-4, 0)],
)
def test_kv_cache_span_view_equals_sliced_full_view(span):
    # blocks hold positions 0-2, 3-4 and 6-8 (5 is absent, as after a gap)
    cache = KVCache(n_layers=2, n_heads=2)
    rng = np.random.default_rng(1)
    for idx in (np.arange(3), np.array([3, 4]), np.array([6, 7, 8])):
        k = [[rng.normal(size=(3, idx.size)) for _ in range(2)] for _ in range(2)]
        v = [[rng.normal(size=(3, idx.size)) for _ in range(2)] for _ in range(2)]
        cache.append(idx, k, v)
    for layer in range(2):
        for head in range(2):
            k_full, v_full, idx_full = cache.view(layer, head)
            sel = (idx_full >= span[0]) & (idx_full < span[1])
            k, v, idx = cache.view(layer, head, span=span)
            assert k.shape == (3, int(sel.sum())) and v.shape == k.shape
            assert np.array_equal(k, k_full[:, sel])
            assert np.array_equal(v, v_full[:, sel])
            assert np.array_equal(idx, idx_full[sel])
    # only the blocks overlapping the span were copied
    overlap = sum(b.size for b in cache._idx if b[0] < span[1] and b[-1] >= span[0]) or 3
    k, _, _ = cache.view(0, 0, span=span)
    assert (k if k.base is None else k.base).shape[1] == overlap


def test_kv_cache_empty_views():
    cache = KVCache(n_layers=1, n_heads=1)
    for span in (None, (0, 4)):
        k, v, idx = cache.view(0, 0, span=span)
        assert k.shape == v.shape == (0, 0) and idx.size == 0


def test_kv_cache_rejects_non_monotonic():
    cache = KVCache(n_layers=1, n_heads=1)
    k = np.zeros((2, 2))
    cache.append(np.array([0, 1]), [[k]], [[k]])
    with pytest.raises(ValueError):
        cache.append(np.array([1, 2]), [[k]], [[k]])
    with pytest.raises(ValueError):
        cache.append(np.array([5, 4]), [[k]], [[k]])


def test_weights_round_trip():
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=8, seed=11)
    text = save_weights(w)
    back = load_weights(text)
    assert back.pe_family == w.pe_family
    assert np.array_equal(back.w_e, w.w_e)
    tokens = [1, 2, 3]
    assert np.array_equal(forward(tokens, w).final, forward(tokens, back).final)


def test_theory_weights_round_trip():
    m = build_theorem2(TheoryConfig(window=8, t_max=40))
    text = save_weights(m.weights)
    back = load_weights(text)
    a = forward([1] * 20, m.weights, weave=m.weave).final
    b = forward([1] * 20, back, weave=m.weave).final
    assert np.array_equal(a, b)


def test_theorem_weights_golden_file():
    from pathlib import Path

    m = build_theorem1(TheoryConfig(window=8))
    golden = Path(__file__).parent / "goldens" / "theorem1_weights_M8_H0.json"
    assert save_weights(m.weights) == golden.read_text()
    back = load_weights(golden.read_text())
    assert np.array_equal(forward([1, 1, 1], back, weave=None).final, forward([1, 1, 1], m.weights).final)


def test_layer_norm_option_runs():
    w = random_model(d=8, n_heads=2, n_layers=1, vocab=8, seed=9)
    for layer in w.layers:
        layer.layer_norm = "standard"
    tr = forward([1, 2, 3], w)
    assert np.isfinite(tr.final).all()


def test_zero_ff_means_pure_residual():
    w = random_model(d=8, n_heads=1, n_layers=1, vocab=8, seed=10)
    w.layers[0].ff = zero_ff(8)
    tr = forward([1, 2], w)
    assert np.allclose(tr.final, tr.attn[0] + tr.hidden[0], atol=0)


def test_whitespace_vocab_round_trip():
    v = WhitespaceVocab.from_text("the cat sat on the mat")
    ids = v.encode("cat on mat")
    assert v.decode(ids) == "cat on mat"
    with pytest.raises(ValueError):
        v.encode("dog")
