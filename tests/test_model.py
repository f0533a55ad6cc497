"""Tiny transformer: embedding, attention, layers, caching, serialization."""

import numpy as np
import pytest

from dense_oracle import masked_softmax
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
    load_weights,
    random_model,
    save_weights,
    zero_ff,
)
from weavepe.pe_core import Scheme, WeaveParams, apply_rotary, rotary_table
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
    # queries scaled up so the scores spread over tens of units, as N(0, 30^2) scores do
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=0)
    for layer in w.layers:
        for head in layer.heads:
            head.w_q *= 30.0
    tr = forward(np.random.default_rng(0).integers(1, 16, size=39).tolist(), w)
    for layer in tr.alphas:
        for alpha in layer:
            assert alpha.shape == (40, 40)
            assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(alpha[np.triu_indices(40, k=1)] == 0.0)


def test_softmax_exact_for_large_integer_scores():
    # the two-layer construction's first layer feeds query t the scores
    # [-(t-1), ..., -1, 0]; stays finite to 700
    t = 700
    alpha = build_theorem2(TheoryConfig(window=8, t_max=t)).run(t).alphas[0][0]
    assert np.isfinite(alpha).all()
    assert alpha[t - 1, t - 1] > 0.6  # weight concentrates on the zero score


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
        alpha = masked_softmax(q @ k.T, allowed)
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
        return apply_rotary(q.T, rot[0]).T @ apply_rotary(k.T, rot[1])

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


def _commit(cache, k_blocks, v_blocks):
    """Write each layer and head's keys and values ([layer][head] -> h x m)
    past len(cache), then commit their m slots."""
    for layer, (ks, vs) in enumerate(zip(k_blocks, v_blocks)):
        for head, (k, v) in enumerate(zip(ks, vs)):
            cache.write(layer, head, k, v)
    cache.append(k_blocks[0][0].shape[1])


def test_kv_cache_round_trip():
    cache = KVCache(n_layers=2, n_heads=1)
    rng = np.random.default_rng(0)
    ka = rng.normal(size=(3, 4))
    va = rng.normal(size=(3, 4))
    _commit(cache, [[ka], [ka * 2]], [[va], [va * 2]])
    kb = rng.normal(size=(3, 2))
    vb = rng.normal(size=(3, 2))
    _commit(cache, [[kb], [kb * 2]], [[vb], [vb * 2]])
    assert len(cache) == 6
    assert np.array_equal(cache.indices, np.arange(6))
    k, v = cache.view(0, 0)
    assert k.shape == (3, 6)
    assert np.array_equal(k[:, :4], ka) and np.array_equal(v[:, 4:], vb)
    k2, v2 = cache.view(1, 0)
    assert np.array_equal(k2[:, 2], ka[:, 2] * 2)
    # a view is a slice of the cache's storage, not a copy
    assert np.shares_memory(k2, cache._k[1]) and np.shares_memory(v2, cache._v[1])


@pytest.mark.parametrize(
    "span",
    [(0, 3), (3, 5), (0, 5), (2, 4), (1, 8), (5, 8), (6, 9), (3, 3), (0, 20), (9, 20), (-4, 0)],
)
def test_kv_cache_span_view_equals_sliced_full_view(span):
    # blocks of 3, 2 and 3 tokens fill slots 0-7; slot i holds token i, so a
    # span of positions is the same slice of the view, across block boundaries
    cache = KVCache(n_layers=2, n_heads=2)
    rng = np.random.default_rng(1)
    blocks = []
    for m in (3, 2, 3):
        k = [[rng.normal(size=(3, m)) for _ in range(2)] for _ in range(2)]
        v = [[rng.normal(size=(3, m)) for _ in range(2)] for _ in range(2)]
        _commit(cache, k, v)
        blocks.append((k, v))
    pos = cache.indices
    sel = (pos >= span[0]) & (pos < span[1])
    for layer in range(2):
        for head in range(2):
            k_full, v_full = cache.view(layer, head)
            k, v = k_full[:, slice(*span)], v_full[:, slice(*span)]
            assert k.shape == (3, int(sel.sum())) and v.shape == k.shape
            assert np.array_equal(k, np.concatenate([b[0][layer][head] for b in blocks], axis=1)[:, sel])
            assert np.array_equal(v, np.concatenate([b[1][layer][head] for b in blocks], axis=1)[:, sel])


def test_kv_cache_growth_keeps_earlier_columns():
    cache = KVCache(n_layers=2, n_heads=2, capacity=64)
    rng = np.random.default_rng(2)
    blocks, capacities = [], []
    # fill, grow by 1/8 (64 -> 72), then past 72 + 9 straight to the need (85)
    for m in (64, 1, 20):
        k = [[rng.normal(size=(3, m)) for _ in range(2)] for _ in range(2)]
        v = [[rng.normal(size=(3, m)) for _ in range(2)] for _ in range(2)]
        _commit(cache, k, v)
        blocks.append((k, v))
        capacities.append(cache.capacity)
    assert capacities == [64, 72, 85] and len(cache) == 85
    for layer in range(2):
        for head in range(2):
            k, v = cache.view(layer, head)
            assert np.array_equal(k, np.concatenate([b[0][layer][head] for b in blocks], axis=1))
            assert np.array_equal(v, np.concatenate([b[1][layer][head] for b in blocks], axis=1))


def test_kv_cache_append_needs_written_slots():
    cache = KVCache(n_layers=2, n_heads=1)
    cache.write(0, 0, np.ones((3, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        cache.append(2)
    cache.write(1, 0, np.ones((3, 2)), np.ones((3, 2)))
    cache.append(2)
    assert len(cache) == 2


def test_kv_cache_empty_views():
    cache = KVCache(n_layers=1, n_heads=1)
    k, v = cache.view(0, 0)
    assert k.shape == v.shape == (0, 0)


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
