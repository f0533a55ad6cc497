"""Chunked prefill, woven decode, and fallback behavior."""

import numpy as np
import pytest

from weavepe.evalkit import count_cells
from weavepe.model import KVCache, forward, random_model, softmax_rows
from weavepe.pe_core import Scheme, WeaveParams, rope_score, weave_stair
from weavepe.pipeline import (
    MesaConfig,
    decode_distances,
    decode_step,
    generate,
    prefill,
)

TOY = MesaConfig(
    train_len=64,
    weave=WeaveParams(scheme=Scheme.STAIR, cap=32, tread=4),
    first_len=8,
    min_last=16,
    rest_max=8,
)


def _tokens(n, vocab=16, seed=0):
    return np.random.default_rng(seed).integers(1, vocab, size=n).tolist()


def test_fallback_logits_identical_to_forward():
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=3)
    tokens = _tokens(40)
    res = prefill(tokens, w, TOY)
    assert res.report.fallback
    assert np.array_equal(res.logits, forward(tokens, w).logits(w))


def test_fallback_cache_covers_sequence():
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=3)
    res = prefill(_tokens(30), w, TOY)
    assert np.array_equal(res.cache.indices, np.arange(31))


def test_chunked_cache_completeness():
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=3)
    res = prefill(_tokens(199), w, TOY)  # I = 200 > train_len
    assert not res.report.fallback
    assert np.array_equal(res.cache.indices, np.arange(200))


def test_middle_chunks_stay_inside_window():
    w = random_model(d=8, n_heads=2, n_layers=1, vocab=16, seed=3)
    res = prefill(_tokens(399), w, TOY)
    for trace in res.report.chunks:
        if trace.kind in ("first", "middle"):
            assert trace.max_pe_distance <= TOY.train_len


def test_middle_chunks_see_first_chunk_only():
    w = random_model(d=8, n_heads=1, n_layers=1, vocab=16, seed=3)
    res = prefill(_tokens(199), w, TOY)
    for trace in res.report.chunks:
        if trace.kind == "middle":
            assert np.array_equal(trace.ctx_indices, np.arange(TOY.first_len))
        if trace.kind == "last":
            assert np.array_equal(trace.ctx_indices, np.arange(trace.q_span[0]))


def test_triangular_pattern_13_tokens():
    # 13-token layout: first 3, two middles of 3, last 4; middles attend the
    # first chunk plus themselves, the last chunk attends everything
    cfg = MesaConfig(
        train_len=7,
        weave=WeaveParams(scheme=Scheme.STAIR, cap=4, tread=2),
        first_len=3,
        min_last=4,
        rest_max=2,
    )
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=8, seed=0)
    res = prefill(_tokens(12, vocab=8), w, cfg)
    spans = [c.q_span for c in res.report.chunks]
    assert spans == [(0, 3), (3, 6), (6, 9), (9, 13)]
    got = set()
    for c in res.report.chunks:
        got |= c.allowed_pairs()
    expect = set()
    for q in range(13):
        for i in range(q + 1):
            if q < 9:  # first + middles: first chunk or own chunk
                chunk_start = 0 if q < 3 else 3 * (q // 3)
                if i < 3 or i >= chunk_start:
                    expect.add((q, i))
            else:
                expect.add((q, i))
    assert got == expect


def test_last_chunk_final_query_exact_stair_additive():
    # one-layer additive model: the last chunk's inputs are raw embeddings, so
    # the final-token logits are reproducible from cached keys + stair distances
    w = random_model(d=8, n_heads=1, n_layers=1, vocab=16, seed=5, pe_family="additive")
    w.head_slopes = [1.0]
    tokens = _tokens(199, seed=2)
    res = prefill(tokens, w, TOY)
    seq = np.asarray([0] + tokens)
    h0 = w.w_e[:, seq]
    head = w.layers[0].heads[0]
    q = head.w_q @ h0[:, -1]
    k = head.w_k @ h0
    v = head.w_v @ h0
    t_star = len(seq) - 1
    dist = weave_stair(t_star - np.arange(len(seq)), TOY.weave.cap, TOY.weave.tread)
    scores = q @ k - dist
    alpha = softmax_rows(scores[None, :])[0]
    h_final = w.layers[0].ff(h0[:, -1] + head.w_o @ (v @ alpha)) + h0[:, -1] + head.w_o @ (v @ alpha)
    expect = w.w_e.T @ h_final
    assert np.allclose(res.logits, expect, atol=1e-12)


def test_last_chunk_final_query_exact_stair_rotary():
    # same check through the pairwise rotary kernel, independent of the
    # factorized coordinate path the pipeline uses
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=16, seed=6)
    tokens = _tokens(199, seed=3)
    res = prefill(tokens, w, TOY)
    seq = np.asarray([0] + tokens)
    h0 = w.w_e[:, seq]
    head = w.layers[0].heads[0]
    q = head.w_q @ h0[:, -1]
    k = head.w_k @ h0
    v = head.w_v @ h0
    t_star = len(seq) - 1
    dist = weave_stair(t_star - np.arange(len(seq)), TOY.weave.cap, TOY.weave.tread)
    scores = np.array([rope_score(q, k[:, i], dist[i], w.theta_base) for i in range(len(seq))])
    alpha = softmax_rows(scores[None, :])[0]
    a = head.w_o @ (v @ alpha)
    h_final = w.layers[0].ff(h0[:, -1] + a) + h0[:, -1] + a
    expect = w.w_e.T @ h_final
    assert np.allclose(res.logits, expect, atol=1e-10)


def test_decode_attends_all_keys_plus_self():
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=3)
    res = prefill(_tokens(40), w, TOY)
    n = len(res.cache)
    _, cache = decode_step(res.cache, 3, w, TOY)
    assert len(cache) == n + 1
    assert cache.indices[-1] == n


def test_decode_distances_follow_stair_exactly():
    for n in (50, 200, 513):
        dist = decode_distances(n, TOY)
        expect = weave_stair(n - np.arange(n + 1), TOY.weave.cap, TOY.weave.tread)
        assert np.array_equal(dist, expect)


def test_decode_matches_forward_inside_weave_window():
    # while every distance stays below the weave point the decode path must
    # reproduce the vanilla forward pass
    cfg = MesaConfig(
        train_len=64,
        weave=WeaveParams(scheme=Scheme.STAIR, cap=60, tread=4),
        first_len=8,
        min_last=16,
        rest_max=8,
    )
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=8)
    tokens = _tokens(20, seed=9)
    res = prefill(tokens, w, cfg)
    logits, cache = res.logits, res.cache
    new = []
    for _ in range(5):
        nxt = int(np.argmax(logits))
        new.append(nxt)
        logits, cache = decode_step(cache, nxt, w, cfg)
    want = forward(tokens + new, w).logits(w)
    assert np.allclose(logits, want, atol=1e-12)


def test_in_window_rotary_prefill_skips_dense_kernel(monkeypatch):
    from weavepe import model

    def dense_path(*args, **kwargs):
        raise AssertionError("in-window rotary prefill took the dense distance-matrix path")

    monkeypatch.setattr(model, "scores_rotary", dense_path)
    monkeypatch.setattr(model, "position_matrix", dense_path)
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=3)
    res = prefill(_tokens(40), w, TOY)
    assert res.report.fallback
    assert np.isfinite(res.logits).all()


def _count_rotations(monkeypatch):
    """Record the column count of every rotary table and each weave_stair call."""
    from weavepe import pe_core, pipeline

    tables, stairs = [], []
    real_table, real_stair = pipeline.rotary_table, pe_core.weave_stair

    def table(coords, *args):
        tables.append(len(coords))
        return real_table(coords, *args)

    def stair(*args):
        stairs.append(args)
        return real_stair(*args)

    monkeypatch.setattr(pipeline, "rotary_table", table)
    monkeypatch.setattr(pe_core, "weave_stair", stair)
    return tables, stairs


def test_decode_step_builds_each_rotation_once(monkeypatch):
    w = random_model(d=8, n_heads=2, n_layers=3, vocab=16, seed=3)
    res = prefill(_tokens(40), w, TOY)
    n = len(res.cache)
    tables, stairs = _count_rotations(monkeypatch)
    decode_step(res.cache, 3, w, TOY)
    # one query and one key rotation, and one weave of the key distances,
    # not one per layer x head
    assert sorted(tables) == [1, n + 1]
    assert len(stairs) == 1


def test_prefill_builds_each_rotation_once_per_chunk(monkeypatch):
    w = random_model(d=8, n_heads=2, n_layers=3, vocab=16, seed=3)
    tables, _ = _count_rotations(monkeypatch)
    res = prefill(_tokens(199), w, TOY)
    assert not res.report.fallback
    assert len(tables) == 2 * len(res.report.chunks)


def test_generate_deterministic_and_stops():
    w = random_model(d=8, n_heads=2, n_layers=1, vocab=16, seed=4)
    a = generate(_tokens(30), w, TOY, max_new=6)
    b = generate(_tokens(30), w, TOY, max_new=6)
    assert a.token_ids == b.token_ids
    assert len(a.token_ids) == 6
    stop = a.token_ids[0]
    first_hit = a.token_ids.index(stop) + 1
    c = generate(_tokens(30), w, TOY, max_new=6, stop_id=stop)
    assert c.token_ids == a.token_ids[:first_hit]


def test_prefill_cells_match_closed_form():
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=8, seed=0)
    params = {
        "train_len": TOY.train_len,
        "first_len": TOY.first_len,
        "min_last": TOY.min_last,
        "rest_max": TOY.rest_max,
    }
    for n in (150, 200, 377):
        res = prefill(_tokens(n - 1, vocab=8), w, TOY)
        assert res.report.total_cells == count_cells("mesa", n, params)


def test_prefill_9000_plan_and_anchored_distance():
    w = random_model(d=2, n_heads=1, n_layers=1, vocab=8, seed=0)
    cfg = MesaConfig(train_len=4096, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    res = prefill(_tokens(8999, vocab=8), w, cfg)
    plan = res.report.plan
    assert (plan.quotient, plan.chunk_width, plan.num_middle) == (2, 2796, 3)
    last = res.report.chunks[-1]
    assert last.q_span == (8488, 9000)
    # final token attends every one of the 9000 keys
    assert len(last.ctx_indices) + (9000 - 8488) == 9000
    # and its woven distance to key 0 follows the staircase exactly
    assert weave_stair(8999, 512, 50) == 682.0
    assert last.max_pe_distance == 682.0


def test_prefill_rejects_empty():
    w = random_model(seed=0)
    with pytest.raises(ValueError):
        prefill([], w, TOY)


def test_decode_rejects_unknown_token():
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=3)
    res = prefill(_tokens(10), w, TOY)
    with pytest.raises(ValueError):
        decode_step(res.cache, 99, w, TOY)


def test_mesa_config_validation():
    with pytest.raises(ValueError):
        MesaConfig(train_len=50, first_len=100)
    with pytest.raises(ValueError):
        MesaConfig(train_len=64, weave=WeaveParams(scheme=Scheme.STAIR, cap=64, tread=2))
    with pytest.raises(ValueError):
        MesaConfig(train_len=64, weave=WeaveParams(scheme=Scheme.SELF_EXTEND))


def test_rerope_weave_pipeline_runs():
    cfg = MesaConfig(
        train_len=64,
        weave=WeaveParams(scheme=Scheme.REROPE, cap=32),
        first_len=8,
        min_last=16,
        rest_max=8,
    )
    w = random_model(d=8, n_heads=1, n_layers=1, vocab=16, seed=1)
    res = prefill(_tokens(199), w, cfg)
    assert np.isfinite(res.logits).all()
    dist = decode_distances(200, cfg)
    assert dist.max() == 32.0
