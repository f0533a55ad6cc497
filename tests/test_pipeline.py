"""Chunked prefill, woven decode, and fallback behavior."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from weavepe.evalkit import count_cells
from dense_oracle import masked_softmax
from weavepe.masks import sink_mask
from weavepe.model import TILE_ROWS, forward, random_model
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
# TOY's split under a tread of 12, which takes N + (T - 1 - N) E + 1 = 405
# positions, for the tests that prefill past TOY's 157
TOY_E12 = replace(TOY, weave=WeaveParams(scheme=Scheme.STAIR, cap=32, tread=12))


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
    res = prefill(_tokens(199), w, TOY_E12)  # I = 200 > train_len
    assert not res.report.fallback
    assert np.array_equal(res.cache.indices, np.arange(200))


def test_middle_chunks_stay_inside_window():
    w = random_model(d=8, n_heads=2, n_layers=1, vocab=16, seed=3)
    res = prefill(_tokens(399), w, TOY_E12)
    for trace in res.report.chunks:
        if trace.kind in ("first", "middle"):
            assert trace.max_pe_distance <= TOY.train_len


def test_middle_chunks_see_first_chunk_only():
    w = random_model(d=8, n_heads=1, n_layers=1, vocab=16, seed=3)
    res = prefill(_tokens(199), w, TOY_E12)
    for trace in res.report.chunks:
        if trace.kind == "middle":
            assert trace.ctx_len == TOY.first_len
        if trace.kind == "last":
            assert trace.ctx_len == trace.q_span[0]


def test_triangular_pattern_13_tokens():
    # 13-token layout: first 3, two middles of 3, last 4; middles attend the
    # first chunk plus themselves, the last chunk attends everything
    cfg = MesaConfig(
        train_len=7,
        weave=WeaveParams(scheme=Scheme.STAIR, cap=4, tread=4),
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
    res = prefill(tokens, w, TOY_E12)
    seq = np.asarray([0] + tokens)
    h0 = w.w_e[:, seq]
    head = w.layers[0].heads[0]
    q = head.w_q @ h0[:, -1]
    k = head.w_k @ h0
    v = head.w_v @ h0
    t_star = len(seq) - 1
    dist = weave_stair(t_star - np.arange(len(seq)), TOY_E12.weave.cap, TOY_E12.weave.tread)
    scores = q @ k - dist
    alpha = masked_softmax(scores[None, :], True)[0]
    h_final = w.layers[0].ff(h0[:, -1] + head.w_o @ (v @ alpha)) + h0[:, -1] + head.w_o @ (v @ alpha)
    expect = w.w_e.T @ h_final
    assert np.allclose(res.logits, expect, atol=1e-12)


def test_last_chunk_final_query_exact_stair_rotary():
    # same check through the pairwise rotary kernel, independent of the
    # factorized coordinate path the pipeline uses
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=16, seed=6)
    tokens = _tokens(199, seed=3)
    res = prefill(tokens, w, TOY_E12)
    seq = np.asarray([0] + tokens)
    h0 = w.w_e[:, seq]
    head = w.layers[0].heads[0]
    q = head.w_q @ h0[:, -1]
    k = head.w_k @ h0
    v = head.w_v @ h0
    t_star = len(seq) - 1
    dist = weave_stair(t_star - np.arange(len(seq)), TOY_E12.weave.cap, TOY_E12.weave.tread)
    scores = np.array([rope_score(q, k[:, i], dist[i], w.theta_base) for i in range(len(seq))])
    alpha = masked_softmax(scores[None, :], True)[0]
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
    from weavepe import model, pe_core

    tables, stairs = [], []
    real_table, real_stair = model.rotary_table, pe_core.weave_stair

    def table(coords, *args):
        tables.append(len(coords))
        return real_table(coords, *args)

    def stair(*args):
        stairs.append(args)
        return real_stair(*args)

    monkeypatch.setattr(model, "rotary_table", table)
    monkeypatch.setattr(pe_core, "weave_stair", stair)
    return tables, stairs


def test_decode_step_builds_each_rotation_once(monkeypatch):
    # whole-number offsets read one kept table over a power of two of them
    # (64 here, for the single chunk's offsets 0..40 and each step's
    # distances 0..35), so a stair prefill and its decode steps build it
    # once; a step's turns are bit for bit a per-step table's rows, and the
    # key distances are woven once per step, not once per layer x head
    from weavepe import model, pe_core

    w = random_model(d=8, n_heads=2, n_layers=3, vocab=16, seed=3)
    model._table.cache_clear()
    tables, stairs = _count_rotations(monkeypatch)
    res = prefill(_tokens(40), w, TOY)
    assert res.report.fallback and tables == [64]
    n = len(res.cache)
    dist = np.unique(decode_distances(n, TOY))[::-1]
    assert np.array_equal(dist, np.arange(35, -1, -1))
    cos, sin = pe_core.rotary_table(dist, w.head_dim, w.theta_base)
    turns = model._positions(w, n - decode_distances(n, TOY), 1).turns
    assert np.array_equal(turns.real, cos.T) and np.array_equal(turns.imag, sin.T)
    del stairs[:]
    decode_step(res.cache, 3, w, TOY)
    decode_step(res.cache, 3, w, TOY)
    assert tables == [64] and len(stairs) == 2


def test_prefill_builds_each_rotation_once_per_chunk(monkeypatch):
    # a leaky weave's offsets are not whole numbers, so its last chunk and
    # each decode step build one table over their distinct offsets; the
    # first and middle chunks, at whole local offsets, read kept tables
    from weavepe import model

    leaky = replace(TOY, weave=WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=20, leak=0.5))
    w = random_model(d=8, n_heads=2, n_layers=3, vocab=16, seed=3)
    model._table.cache_clear()
    tables, _ = _count_rotations(monkeypatch)
    res = prefill(_tokens(90), w, leaky)
    kinds = [c.kind for c in res.report.chunks]
    assert kinds[0] == "first" and kinds[-1] == "last" and set(kinds[1:-1]) == {"middle"}
    t = len(res.cache)
    decode_step(res.cache, 3, w, leaky)
    decode_step(res.cache, 3, w, leaky)
    assert len(tables) == model._table.cache_info().misses + 3
    assert tables[-3:] == [np.unique(decode_distances(p, leaky)).size for p in (t - 1, t, t + 1)]


def test_identity_forward_builds_one_rotation(monkeypatch):
    # forward's offsets 0..40 are rows of the kept table over 0..63, which a
    # longer forward, at offsets 0..60, reads again
    from weavepe import model

    w = random_model(d=8, n_heads=2, n_layers=3, vocab=16, seed=3)
    model._table.cache_clear()
    tables, _ = _count_rotations(monkeypatch)
    forward(_tokens(40), w)
    forward(_tokens(60), w)
    assert tables == [64]


def _heads_on(monkeypatch, cpus, q_scale=1.0, pe_family="rotary", head_slopes=None):
    """Chunked prefill, 3 decode steps, the single pass and a woven, masked
    forward of a 4-head model, its first head's queries scaled by q_scale,
    with _run_layers seeing cpus usable CPUs; the outputs, every cached
    K/V, and the threads _attend ran on."""
    from weavepe import model

    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(model, "TILE_ROWS", 8)  # several tiles per chunk
    attend, threads = model._attend, set()

    def spy(*args):
        threads.add(threading.get_ident())
        return attend(*args)

    monkeypatch.setattr(model, "_attend", spy)
    w = random_model(d=16, n_heads=4, n_layers=2, vocab=16, seed=3, pe_family=pe_family)
    w.head_slopes = head_slopes
    for layer in w.layers:
        layer.heads[0].w_q *= q_scale
    res = prefill(_tokens(150), w, TOY)
    assert {c.kind for c in res.report.chunks} == {"first", "middle", "last"}
    out = [res.logits]
    logits, cache = res.logits, res.cache
    for _ in range(3):
        logits, cache = decode_step(cache, int(np.argmax(logits)), w, TOY)
        out.append(logits)
    single = prefill(_tokens(40), w, TOY)
    assert single.report.fallback
    out.append(single.logits)
    for c in (cache, single.cache):
        out += [kv for li in range(2) for mi in range(4) for kv in c.view(li, mi)]
    tr = forward(_tokens(50), w, weave=WeaveParams(scheme=Scheme.STAIR, cap=12, tread=3), mask=sink_mask(51, 2, 20))
    out += tr.hidden + tr.attn + [alpha for layer in tr.alphas for alpha in layer]
    monkeypatch.undo()
    return out, threads


def test_head_pool_changes_no_bit(monkeypatch):
    # two workers even on a one-CPU host
    pooled, pooled_threads = _heads_on(monkeypatch, 2)
    serial, serial_threads = _heads_on(monkeypatch, 1)
    assert serial_threads == {threading.get_ident()}
    assert pooled_threads - serial_threads
    assert len(pooled) == len(serial)
    assert all(np.array_equal(a, b) for a, b in zip(pooled, serial))


@pytest.mark.parametrize("pe_family, head_slopes", [("rotary", None), ("additive", [0.5, -0.5, 0.25, 0.125])])
def test_head_pool_changes_no_bit_over_shifted_and_unshifted_tiles(monkeypatch, pe_family, head_slopes):
    # the first head's queries x700 put some of its 8-row tiles past the
    # score bound |q_r| max|k_i| <= _SAFE and leave others under it, while
    # the other heads' tiles all stay under it, the additive family's
    # second head aside, which a negative slope keeps shifted: shifted and
    # unshifted tiles share calls, stacked and one head per call, and the
    # pool changes no bit
    from weavepe import model

    w = random_model(d=16, n_heads=4, n_layers=2, vocab=16, seed=3, pe_family=pe_family)
    w.layers[0].heads[0].w_q *= 700.0
    h = forward(_tokens(150), w).hidden[0]
    bounds = [
        np.maximum.reduceat(np.linalg.norm(head.w_q @ h, axis=0), range(0, 151, 8))
        * np.linalg.norm(head.w_k @ h, axis=0).max()
        for head in w.layers[0].heads
    ]
    assert bounds[0].min() < model._SAFE < bounds[0].max()
    assert max(b.max() for b in bounds[1:]) < model._SAFE
    pooled, pooled_threads = _heads_on(monkeypatch, 2, 700.0, pe_family, head_slopes)
    serial, serial_threads = _heads_on(monkeypatch, 1, 700.0, pe_family, head_slopes)
    assert pooled_threads - serial_threads
    assert len(pooled) == len(serial)
    assert all(np.array_equal(a, b) for a, b in zip(pooled, serial))


def test_decode_step_attends_all_heads_in_one_call(monkeypatch):
    # a step with one query calls _attend once per layer, every head on the
    # leading axis, on the calling thread; so does each middle chunk, on its
    # pool thread, while the first and last chunk call it once per head
    # there.  In the last layer only the last chunk attends, and only with
    # its final tile's rows
    from collections import Counter

    from weavepe import model

    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)  # middle chunks on the pool even on a one-CPU host
    monkeypatch.setattr(model, "TILE_ROWS", 8)  # the last chunk spans several tiles
    w = random_model(d=16, n_heads=4, n_layers=3, vocab=16, seed=3)
    res = prefill(_tokens(150), w, TOY)
    calls, attend = [], model._attend

    def spy(q, ks, vs, *args):
        calls.append((q.shape, tuple(k.shape for k in ks), tuple(v.shape for v in vs), model._on_pool()))
        return attend(q, ks, vs, *args)

    monkeypatch.setattr(model, "_attend", spy)
    t = len(res.cache)
    decode_step(res.cache, 3, w, TOY)
    # the step's key t opens a page past the prompt-sized first one: two spans
    spans = ((4, 4, t), (4, 4, 1))
    assert calls == [((4, 4, 1), spans, spans, False)] * 3
    calls.clear()
    pre = prefill(_tokens(150), w, TOY)
    want = Counter()
    for c in pre.report.chunks:
        m, middle = c.q_span[1] - c.q_span[0], c.kind == "middle"
        heads = 4 if middle else 1
        # a middle chunk's keys are two spans, the first chunk's and its own,
        # unless it follows the first chunk
        apart = c.ctx_len < c.q_span[0]
        spans = ((heads, 4, c.ctx_len), (heads, 4, m)) if apart else ((heads, 4, c.ctx_len + m),)
        want[((heads, 4, m), spans, spans, True)] += 2 * (4 // heads)
        if c.kind == "last":
            rows = m - (m - 1) // 8 * 8
            assert rows < m
            want[((1, 4, rows), spans, spans, True)] += 4
    assert sum(c.kind == "middle" for c in pre.report.chunks) == 3
    assert Counter(calls) == want


#: a window wide enough for a single pass of several tiles, and a last chunk of more than one
WIDE = MesaConfig(
    train_len=256,
    weave=WeaveParams(scheme=Scheme.STAIR, cap=128, tread=8),
    first_len=16,
    min_last=128,
    rest_max=32,
)


def _attend_calls(monkeypatch):
    """The (query columns, keys, context length) of every _attend call made from now on."""
    from weavepe import model

    calls, attend = [], model._attend

    def spy(q, ks, vs, ctx_len, *args):
        calls.append((q.shape[-1], sum(k.shape[-1] for k in ks), ctx_len))
        return attend(q, ks, vs, ctx_len, *args)

    monkeypatch.setattr(model, "_attend", spy)
    return calls


def _prefill_and_decode(w, n):
    """Prefill of n tokens, then 3 decode steps of fixed tokens: the prefill
    result, every layer and head's cached keys and values, and the 3 logits."""
    res = prefill(_tokens(n), w, WIDE)
    cache, steps = res.cache, []
    for token in (3, 7, 1):
        logits, cache = decode_step(cache, token, w, WIDE)
        steps.append(logits)
    kv = [x for li in range(len(w.layers)) for mi in range(len(w.layers[0].heads)) for x in cache.view(li, mi)]
    return res, kv, steps


def _full_last_layer(monkeypatch):
    """Make prefill run every column of every layer, as a pass that reads all of them."""
    from weavepe import model, pipeline

    monkeypatch.setattr(pipeline, "_run_layers", lambda *args, read=None: model._run_layers(*args))


def test_single_pass_caches_the_keys_and_values_of_forward(monkeypatch):
    # 151 positions, three tiles: the last layer attends only the third, but
    # writes every column's keys and values, each the product of forward's
    # hidden state at that layer; so too in tiles of 8 rows over blocks of
    # 16 keys, where both run the same online softmax
    from weavepe import model

    w = random_model(d=8, n_heads=2, n_layers=3, vocab=16, seed=3)
    for tile, block in [(64, 2048), (8, 16)]:
        monkeypatch.setattr(model, "TILE_ROWS", tile)
        monkeypatch.setattr(model, "KEY_BLOCK", block)
        res = prefill(_tokens(150), w, WIDE)
        assert res.report.fallback and len(res.cache) > 2 * tile
        tr = forward(_tokens(150), w)
        for li, layer in enumerate(w.layers):
            for mi, head in enumerate(layer.heads):
                k, v = res.cache.view(li, mi)
                assert np.array_equal(k, head.w_k @ tr.hidden[li])
                assert np.array_equal(v, head.w_v @ tr.hidden[li])


@pytest.mark.parametrize("family", ["dot", "additive", "rotary"])
@pytest.mark.parametrize("n", [150, 644])  # a single pass of three tiles; a first, two middle and a 149-row last chunk
def test_last_layer_rows_change_no_cached_or_decoded_bit(monkeypatch, family, n):
    # against a prefill whose last layer runs every column: the same report,
    # every cached key and value and every decode logit bit for bit, and the
    # prefill logits within 1e-13
    w = random_model(d=8, n_heads=2, n_layers=3, vocab=16, seed=3, pe_family=family)
    res, kv, steps = _prefill_and_decode(w, n)
    _full_last_layer(monkeypatch)
    full, full_kv, full_steps = _prefill_and_decode(w, n)
    assert res.report.to_doc() == full.report.to_doc()
    assert res.report.fallback == (n == 150)
    assert len(kv) == len(full_kv) == 12
    assert all(np.array_equal(a, b) for a, b in zip(kv, full_kv))
    assert all(np.array_equal(a, b) for a, b in zip(steps, full_steps))
    np.testing.assert_allclose(res.logits, full.logits, rtol=0, atol=1e-13)


def test_single_pass_logits_beyond_one_tile_match_forward(monkeypatch):
    # within 1e-13, not bit for bit: the last layer's narrower query, output
    # and feed-forward products may round differently.  That layer attends
    # its final tile's 23 rows alone, as queries after the first 128
    from collections import Counter

    from weavepe.model import TILE_ROWS

    w = random_model(d=8, n_heads=2, n_layers=3, vocab=16, seed=3)
    calls = _attend_calls(monkeypatch)
    res = prefill(_tokens(150), w, WIDE)
    assert res.report.fallback
    r0 = 150 // TILE_ROWS * TILE_ROWS
    assert Counter(calls) == Counter({(151, 151, 0): 2 * 2, (151 - r0, 151, r0): 2})
    np.testing.assert_allclose(res.logits, forward(_tokens(150), w).logits(w), rtol=0, atol=1e-13)


def test_one_layer_non_final_chunks_do_not_attend(monkeypatch):
    # a one-layer model's only layer is its last: the first and middle chunks
    # only write their keys and values, and the last chunk attends its final
    # tile's rows alone, after ctx_len + r0 keys
    from weavepe.model import TILE_ROWS

    w = random_model(d=8, n_heads=2, n_layers=1, vocab=16, seed=3)
    calls = _attend_calls(monkeypatch)
    res = prefill(_tokens(644), w, WIDE)
    *rest, last = res.report.chunks
    assert [c.kind for c in rest] == ["first", "middle", "middle"] and last.kind == "last"
    m = last.q_span[1] - last.q_span[0]
    r0 = (m - 1) // TILE_ROWS * TILE_ROWS
    assert r0 > 0
    assert calls == [(m - r0, last.ctx_len + m, last.ctx_len + r0)] * 2
    assert len(res.cache) == 645


def _chunked_run(monkeypatch, cpus, n, family, pool_calls=None):
    """Prefill of n - 1 tokens (n with <bos>) and 4 decode steps of a 4-head
    model of family with cpus usable CPUs, in a daemon thread so that a
    deadlock fails the test instead of hanging it: the report's doc, the 5
    logits, and every layer and head's cached keys and values.  pool_calls,
    if given, receives the name of each thread that asked for the pool."""
    from weavepe import model

    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(model, "TILE_ROWS", 16)  # several tiles per middle chunk
    if pool_calls is not None:
        pool = model._pool

        def spy(workers):
            pool_calls.append(threading.current_thread().name)
            return pool(workers)

        monkeypatch.setattr(model, "_pool", spy)
    w = random_model(d=16, n_heads=4, n_layers=2, vocab=16, seed=5, pe_family=family)
    # 400 positions and 4 steps stay inside TOY_E12's window: W(403) = 32 + ceil(371 / 12) = 63
    done = []

    def run():
        res = prefill(_tokens(n - 1), w, TOY_E12)
        logits, cache = [res.logits], res.cache
        for _ in range(4):
            step, cache = decode_step(cache, int(np.argmax(logits[-1])), w, TOY_E12)
            logits.append(step)
        done.append((res.report, logits, cache))

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    monkeypatch.undo()
    assert not worker.is_alive(), "prefill never finished: a pool task waiting on the pool deadlocks"
    report, logits, cache = done[0]
    return report.to_doc(), logits, [kv for li in range(2) for mi in range(4) for kv in cache.view(li, mi)]


@pytest.mark.parametrize("family", ["dot", "additive", "rotary"])
@pytest.mark.parametrize("n, middles", [(81, 1), (100, 2), (300, 5)])
def test_middle_chunks_on_the_pool_change_no_bit(monkeypatch, family, n, middles):
    pool_calls = []
    doc, logits, kv = _chunked_run(monkeypatch, 2, n, family, pool_calls)
    assert sum(c["kind"] == "middle" for c in doc["chunks"]) == middles
    # nothing on a pool thread asked for the pool: a nested map would deadlock
    assert pool_calls and not any(name.startswith("weavepe-pool") for name in pool_calls)
    serial = _chunked_run(monkeypatch, 1, n, family)
    assert doc == serial[0]
    assert len(logits) == len(serial[1]) == 5 and len(kv) == len(serial[2]) == 16
    assert all(np.array_equal(a, b) for a, b in zip(logits + kv, serial[1] + serial[2]))


def test_middle_chunks_change_no_bit_under_fast_thread_switches(monkeypatch):
    # more workers than this host has CPUs, switching threads every 10 us, so
    # the chunks' writes into the shared storage interleave as finely as they can
    import sys

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pooled = _chunked_run(monkeypatch, 4, 400, "rotary")
    finally:
        sys.setswitchinterval(interval)
    serial = _chunked_run(monkeypatch, 1, 400, "rotary")
    assert pooled[0] == serial[0]
    assert all(np.array_equal(a, b) for a, b in zip(pooled[1] + pooled[2], serial[1] + serial[2]))


def test_prefill_commits_each_chunk_once_in_order(monkeypatch):
    # one KVCache.append per chunk, on the calling thread, in chunk order
    from weavepe import model

    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    appends, append = [], model.KVCache.append

    def spy(cache, m):
        appends.append((len(cache), m, threading.get_ident()))
        return append(cache, m)

    monkeypatch.setattr(model.KVCache, "append", spy)
    w = random_model(d=16, n_heads=4, n_layers=2, vocab=16, seed=3)
    res = prefill(_tokens(299), w, TOY_E12)
    spans = [c.q_span for c in res.report.chunks]
    assert [c.kind for c in res.report.chunks].count("middle") == 5
    assert appends == [(lo, hi - lo, threading.get_ident()) for lo, hi in spans]


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


def _greedy_loop(tokens, w, cfg, max_new):
    """The ids of prefill then greedy decode_steps, max_new - 1 of them, and the cache."""
    res = prefill(tokens, w, cfg)
    logits, cache, ids = res.logits, res.cache, []
    for _ in range(max_new):
        ids.append(int(np.argmax(logits)))
        if len(ids) < max_new:
            logits, cache = decode_step(cache, ids[-1], w, cfg)
    return ids, cache


def test_generate_sizes_the_cache_once(monkeypatch):
    # generate's cache holds the prompt and the max_new - 1 tokens it
    # decodes from the start, so no decode step adds a page, and it never
    # decodes the last token, whose logits nobody reads; the ids are the
    # prefill and decode_step loop's
    from weavepe import pipeline

    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=4)
    tokens, max_new = _tokens(100), 7
    want, grown = _greedy_loop(tokens, w, TOY, max_new)
    # the loop's first step added a page to a prompt-sized cache: TILE_ROWS slots, at most 1/8 of it
    assert grown.capacity == 101 + min(TILE_ROWS, 101 // 8)
    caches, prefill_ = [], pipeline._prefill

    def spy(*args):
        res = prefill_(*args)
        caches.append(res.cache)
        return res

    monkeypatch.setattr(pipeline, "_prefill", spy)
    res = generate(tokens, w, TOY, max_new=max_new)
    assert res.token_ids == want and res.report.decode_steps == max_new - 1
    (cache,) = caches
    assert len(cache) == cache.capacity == 101 + max_new - 1
    assert all(len(pages) == 1 for pages in cache._k + cache._v)


def test_generate_checks_the_window_before_any_work(monkeypatch):
    # TOY's staircase takes positions up to 156 (W(156) = 63): with a
    # 150-token prompt, max_new = 7 decodes positions 151..156 and fits,
    # max_new = 8 would decode 157 and raises before prefill runs
    from weavepe import pipeline

    w = random_model(d=8, n_heads=2, n_layers=1, vocab=16, seed=3)
    tokens = _tokens(150)
    want, _ = _greedy_loop(tokens, w, TOY, 7)
    assert generate(tokens, w, TOY, max_new=7).token_ids == want
    calls = []
    monkeypatch.setattr(pipeline, "_prefill", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="max_new=8 would decode position 157, .* largest max_new that fits is 7"):
        generate(tokens, w, TOY, max_new=8)
    assert calls == []


def test_decode_steps_keep_the_prompts_pages(monkeypatch):
    # steps past a prompt-sized cache add pages and copy no filled slot: the
    # prompt's K and V arrays stay the same objects, still holding its keys.
    # The pages double from TILE_ROWS slots, each at most 1/8 of the slots
    # before it: 12 = 101 // 8, then 14 = 113 // 8
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=4)
    res = prefill(_tokens(100), w, TOY)
    cache = res.cache
    pages = [(ks[0], vs[0]) for ks, vs in zip(cache._k, cache._v)]
    before = [cache.view(li, mi) for li in range(2) for mi in range(2)]
    logits = res.logits
    for _ in range(15):  # 101 + 12 + 14 slots: the steps open two pages
        logits, cache = decode_step(cache, int(np.argmax(logits)), w, TOY)
    assert [len(ks) for ks in cache._k] == [3, 3] and cache.capacity == 101 + 12 + 14
    for li, (k0, v0) in enumerate(pages):
        assert cache._k[li][0] is k0 and cache._v[li][0] is v0
        for mi in range(2):
            k, v = cache.view(li, mi)
            assert np.shares_memory(before[2 * li + mi][0], k0) and np.shares_memory(before[2 * li + mi][1], v0)
            assert np.array_equal(k[:, :101], before[2 * li + mi][0]) and np.array_equal(v[:, :101], before[2 * li + mi][1])


def test_first_step_past_the_prompt_allocates_less_than_a_layer():
    # the first step after a prompt-sized prefill adds a page of TILE_ROWS
    # slots to the layer's K and V; copying the layer into a larger array,
    # as a contiguous cache must, would allocate more than its K alone
    import tracemalloc

    w = random_model(d=32, n_heads=2, n_layers=1, vocab=16, seed=4)
    cfg = MesaConfig(train_len=1024, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    res = prefill(_tokens(4000), w, cfg)
    layer_k = res.cache._k[0][0].nbytes  # 2 heads x 16 dims x 4,001 slots: 1 MB
    tracemalloc.start()
    try:
        decode_step(res.cache, int(np.argmax(res.logits)), w, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.cache.capacity == 4001 + TILE_ROWS
    assert peak < layer_k, (peak, layer_k)


def test_decode_across_page_boundaries_matches_a_presized_cache():
    # steps over a prompt-sized cache cross two page boundaries; a cache
    # sized for the steps up front holds one page, so its keys are one span
    from weavepe.pipeline import _prefill

    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=4)
    tokens, steps = _tokens(100), 15
    runs = []
    for res in (prefill(tokens, w, TOY), _prefill(tokens, w, TOY, 101 + steps)):
        logits, cache, ids, all_logits = res.logits, res.cache, [], []
        for _ in range(steps):
            ids.append(int(np.argmax(logits)))
            logits, cache = decode_step(cache, ids[-1], w, TOY)
            all_logits.append(logits)
        runs.append((ids, all_logits, [len(ks) for ks in cache._k]))
    (paged_ids, paged, paged_pages), (ids, sized, sized_pages) = runs
    assert paged_pages == [3, 3] and sized_pages == [1, 1]
    assert paged_ids == ids
    assert max(np.max(np.abs(a - b)) for a, b in zip(paged, sized)) <= 1e-13


@pytest.mark.parametrize("prompt", [63, 60])
def test_decode_step_rejects_a_distance_past_the_window(prompt):
    # an identity weave under T = 64: positions 0..63 are trained, so the
    # step at position 64 would score raw distance 64 to <bos>; it raises
    # before writing the cache
    cfg = MesaConfig(train_len=64, weave=WeaveParams(scheme=Scheme.ROPE), first_len=8, min_last=16, rest_max=8)
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=3)
    res = prefill(_tokens(prompt), w, cfg)
    assert res.report.fallback
    logits, cache = res.logits, res.cache
    with pytest.raises(ValueError, match="position 64 would score woven distance 64 .* window of 64 positions"):
        for _ in range(10):
            logits, cache = decode_step(cache, int(np.argmax(logits)), w, cfg)
    assert len(cache) == 64


def test_decode_step_stops_at_the_stairs_closed_form_length():
    # TOY's staircase (N 32, E 4, T 64) takes N + (T - 1 - N) E + 1 = 157
    # positions: W(156) = 63, and the step at 157 would score W(157) = 64
    w = random_model(d=8, n_heads=2, n_layers=1, vocab=16, seed=3)
    res = prefill(_tokens(150), w, TOY)
    logits, cache = res.logits, res.cache
    with pytest.raises(ValueError, match="position 157 would score woven distance 64 .* window of 64 positions"):
        for _ in range(10):
            logits, cache = decode_step(cache, int(np.argmax(logits)), w, TOY)
    assert len(cache) == 157


def test_prefill_cells_match_closed_form():
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=8, seed=0)
    params = {
        "train_len": TOY.train_len,
        "first_len": TOY.first_len,
        "min_last": TOY.min_last,
        "rest_max": TOY.rest_max,
    }
    for n in (150, 200, 377):
        res = prefill(_tokens(n - 1, vocab=8), w, TOY_E12)
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
    assert last.ctx_len + (9000 - 8488) == 9000
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


@pytest.mark.parametrize("bad", [16, -1, 99])
def test_every_entry_point_names_a_bad_token_id(bad):
    # forward, prefill and decode_step share one token-id rule and one message
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=3)
    cache = prefill(_tokens(10), w, TOY).cache
    message = f"^unknown token id {bad}$"
    with pytest.raises(ValueError, match=message):
        forward([1, bad, 2], w)
    with pytest.raises(ValueError, match=message):
        prefill([1, bad, 2], w, TOY)
    with pytest.raises(ValueError, match=message):
        decode_step(cache, bad, w, TOY)
    assert len(cache) == 11  # the rejected step appended nothing


def test_mesa_config_validation():
    with pytest.raises(ValueError):
        MesaConfig(train_len=50, first_len=100)
    with pytest.raises(ValueError):
        MesaConfig(train_len=64, weave=WeaveParams(scheme=Scheme.STAIR, cap=64, tread=2))
    with pytest.raises(ValueError):
        MesaConfig(train_len=64, weave=WeaveParams(scheme=Scheme.SELF_EXTEND))


def test_mesa_config_rejects_a_leak_above_one():
    # leak 2 weaves distance d past cap 20 to 20 + 2 (d - 20), past d itself:
    # a 47-token prompt would prefill as one raw pass, yet generate would
    # call 41 tokens the longest prompt the weave takes
    with pytest.raises(ValueError, match="leak must be at most 1, got 2.0"):
        replace(TOY, weave=WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=20, leak=2.0))
    replace(TOY, weave=WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=20, leak=1.0))


def test_identity_weave_needs_no_weave_point():
    # rope has no weave point, so its default cap of 512 is not held against the window
    MesaConfig(train_len=256, weave=WeaveParams(scheme=Scheme.ROPE))


def _forbid_work(monkeypatch):
    """Make planning the split and running any layer fail the test."""
    from weavepe import pipeline

    def no_work(*args, **kwargs):
        raise AssertionError("prefill started work before rejecting the prompt")

    monkeypatch.setattr(pipeline, "dynamic_split", no_work)
    monkeypatch.setattr(pipeline, "_run_layers", no_work)


def test_identity_weave_rejects_a_chunked_prompt(monkeypatch):
    cfg = MesaConfig(
        train_len=256,
        weave=WeaveParams(scheme=Scheme.ROPE, cap=64),
        first_len=16,
        min_last=32,
        rest_max=16,
    )
    w = random_model(d=8, n_heads=2, n_layers=1, vocab=16, seed=3)
    _forbid_work(monkeypatch)
    # the last chunk would feed raw distances up to 2047 against T - 1 = 255
    with pytest.raises(ValueError, match="longest prompt it takes is 255 tokens"):
        prefill(_tokens(2047), w, cfg)
    monkeypatch.undo()
    # 255 tokens plus <bos> still take the single pass
    assert prefill(_tokens(255), w, cfg).report.fallback


def test_prefill_stops_at_the_stairs_closed_form_length(monkeypatch):
    # TOY's staircase takes N + (T - 1 - N) E + 1 = 157 positions: a 156-token
    # prompt is chunked and its last chunk scores W(156) = 63, the window's
    # last distance; one more token raises before the split or any layer
    w = random_model(d=8, n_heads=2, n_layers=1, vocab=16, seed=3)
    res = prefill(_tokens(156), w, TOY)
    assert not res.report.fallback
    assert res.report.chunks[-1].max_pe_distance == 63
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match="position 157 would score woven distance 64 .* longest prompt it takes is 156 tokens"):
        prefill(_tokens(157), w, TOY)


def test_reference_config_names_its_longest_prompt(monkeypatch):
    # T 1024, stair N 512 E 50: 512 + 511 * 50 + 1 = 26,063 positions fit
    cfg = MesaConfig(train_len=1024, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=16, seed=3)
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match="position 26063 would score woven distance 1024 .* it takes is 26062 tokens$"):
        prefill(_tokens(26063), w, cfg)


def test_single_pass_stops_at_the_trained_window(monkeypatch):
    from weavepe import pipeline

    # first_len + min_last = 612 passes T = 256, but the single pass still
    # takes at most 256 positions: 597 would feed raw distances up to 596
    cfg = MesaConfig(
        train_len=256, weave=WeaveParams(scheme=Scheme.STAIR, cap=64, tread=8), first_len=100, min_last=512
    )
    w = random_model(d=8, n_heads=2, n_layers=1, vocab=16, seed=3)
    assert prefill(_tokens(255), w, cfg).report.fallback
    monkeypatch.setattr(pipeline, "_run_layers", lambda *args, **kwargs: pytest.fail("a layer ran"))
    with pytest.raises(ValueError, match="too short to chunk") as err:
        prefill(_tokens(596), w, cfg)
    assert "fits" not in str(err.value)


@pytest.mark.parametrize(
    "weave, longest",
    [
        (WeaveParams(scheme=Scheme.STAIR, cap=32, tread=1), 32 + 31 * 1),
        (WeaveParams(scheme=Scheme.STAIR, cap=32, tread=4), 32 + 31 * 4),
        (WeaveParams(scheme=Scheme.STAIR, cap=10, tread=7), 10 + 53 * 7),
        (WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=32, leak=0.25), int(32 + 31 / 0.25)),
        (WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=32, leak=0.3), int(32 + 31 / 0.3)),
        (WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=20, leak=0.5), int(20 + 43 / 0.5)),
        (WeaveParams(scheme=Scheme.ROPE), 63),
        (WeaveParams(scheme=Scheme.NOPE), 63),
    ],
    ids=["stair-32-1", "stair-32-4", "stair-10-7", "leaky-0.25", "leaky-0.3", "leaky-0.5", "rope", "nope"],
)
def test_longest_prompt_follows_the_closed_form(monkeypatch, weave, longest):
    # T = 64: stair N + (T - 1 - N) E, leaky floor(N + (T - 1 - N) / leak),
    # identity T - 1 tokens
    cfg = replace(TOY, weave=weave)
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=16, seed=3)
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=f"the longest prompt it takes is {longest} tokens$"):
        prefill(_tokens(999), w, cfg)
    table = decode_distances(longest + 1, cfg)[::-1]
    assert table[longest] <= 63 < table[longest + 1]


def test_generate_names_no_max_new_for_a_prompt_past_the_window(monkeypatch):
    # a 200-token prompt is past TOY's 156 already, so no max_new fits
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=16, seed=3)
    _forbid_work(monkeypatch)
    with pytest.raises(ValueError, match="^position 203 would score woven distance 75 .* it takes is 156 tokens$"):
        generate(_tokens(200), w, TOY, max_new=4)


def test_capped_weave_never_raises():
    from weavepe import pipeline

    cfg = replace(TOY, weave=WeaveParams(scheme=Scheme.REROPE, cap=32))
    w = random_model(d=4, n_heads=1, n_layers=1, vocab=16, seed=3)
    res = generate(_tokens(1999), w, cfg, max_new=3)
    assert res.report.decode_steps == 2 and res.report.chunks[-1].max_pe_distance == 32
    assert pipeline._fits_window(10**6, 64, decode_distances(10**6, cfg))


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
