"""Micro-benchmarks of the tiled attention (with normal score rows, with
rows just past the bound under which a tile skips the softmax's row-max
shift, and with peaked rows), the last layer of the last chunk, the middle
chunks, the in-window prefill and the decode path at the reference config's
sizes, the first decode step past a prompt-sized cache among them and, at
1k keys, a step under the capped and the leaky weave beside the staircase's, and of
one 700-position threshold scan, its closed form and its forward pass apart.

Not part of the test suite (pytest's testpaths is tests/); run with

    PYTHONPATH=src python -m pytest benches/ --benchmark-only

CI runs each once, untimed (--benchmark-disable), so that they keep working.

Reference config: random_model(d=64, n_heads=4, n_layers=4, vocab=256),
rotary, STAIR cap=512 tread=50, 16,384-token prompt; its last chunk is 577
queries over 16,385 keys.
"""

import numpy as np

from weavepe.model import (
    _SAFE,
    TILE_ROWS,
    KVCache,
    _Rotation,
    _attend,
    _forward,
    _pool_map,
    _positions,
    _run_layers,
    random_model,
)
from weavepe.pe_core import Scheme, WeaveParams, apply_rotary, rotary_table, weave_stair
from weavepe.pipeline import MesaConfig, decode_distances, decode_step, prefill
from weavepe.splitter import chunk_spans, dynamic_split
from weavepe.theory import MAX_SCAN, TheoryConfig, build_corollary, threshold_scan

HEAD_DIM = 16
LAST_ROWS, KEYS = 577, 16_385
CTX = KEYS - LAST_ROWS


def _last_chunk_attention(benchmark, scale):
    rng = np.random.default_rng(0)
    q = scale * rng.normal(size=(HEAD_DIM, LAST_ROWS))
    k = rng.normal(size=(HEAD_DIM, KEYS))
    v = rng.normal(size=(HEAD_DIM, KEYS))
    pos = _Rotation(*rotary_table(np.arange(KEYS, dtype=np.float64), HEAD_DIM, 10000.0), np.arange(KEYS))
    out = benchmark(_attend, q, (k,), (v,), CTX, 0.0, pos)
    assert out.shape == (HEAD_DIM, LAST_ROWS) and np.isfinite(out).all()


def test_last_chunk_attention(benchmark):
    # score rows spread by about 30, as REF's random weights give
    _last_chunk_attention(benchmark, 1.0)


def test_last_chunk_attention_peaked(benchmark):
    # queries x60 spread score rows by about 1,900, as a trained model's
    # peaked attention would: exp of the shifted scores then reaches
    # subnormals, which this path does not yet avoid; compare its time
    # with test_last_chunk_attention's
    _last_chunk_attention(benchmark, 60.0)


def test_last_chunk_attention_shifted(benchmark):
    # every query's norm put at 1.05 x the bound on |score| (model._SAFE)
    # over these keys, so every tile keeps the row-max shift that the tiles
    # of test_last_chunk_attention skip, while each row still spreads by
    # under 708 (507 at most), so no exp reaches subnormals: the two times
    # differ by the max and shift passes alone
    rng = np.random.default_rng(0)
    q = rng.normal(size=(HEAD_DIM, LAST_ROWS))
    k = rng.normal(size=(HEAD_DIM, KEYS))
    v = rng.normal(size=(HEAD_DIM, KEYS))
    q *= 1.05 * _SAFE / (np.linalg.norm(q, axis=0) * np.linalg.norm(k, axis=0).max())
    table = rotary_table(np.arange(KEYS, dtype=np.float64), HEAD_DIM, 10000.0)
    qr, kr = apply_rotary(q, tuple(t[:, CTX:] for t in table)), apply_rotary(k, table)
    for r in range(0, LAST_ROWS, 64):  # one 64-row tile of scores at a time
        s = qr[:, r : r + 64].T @ kr
        seen = np.arange(KEYS) <= CTX + r + np.arange(s.shape[0])[:, None]
        assert np.all(np.where(seen, s, -np.inf).max(axis=1) - np.where(seen, s, np.inf).min(axis=1) < 708)
    del s, seen, qr, kr
    out = benchmark(_attend, q, (k,), (v,), CTX, 0.0, _Rotation(*table, np.arange(KEYS)))
    assert out.shape == (HEAD_DIM, LAST_ROWS) and np.isfinite(out).all()


def test_last_chunk_layer(benchmark):
    # REF's last layer of the last chunk, as prefill runs it: 4 heads write
    # all 577 columns' keys and values, then only the final tile's row
    # attends over 16,385 keys, each round over a fresh cache holding the
    # 15,808 context keys
    weights = random_model(d=64, n_heads=4, n_layers=1, vocab=256, seed=0)
    config = MesaConfig(train_len=1024, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    pos = _positions(weights, (KEYS - 1) - decode_distances(KEYS - 1, config), LAST_ROWS)
    rng = np.random.default_rng(3)
    h = rng.normal(size=(64, LAST_ROWS))
    ctx = [rng.normal(size=(HEAD_DIM, CTX)) for _ in range(4)]

    def fresh_cache():
        cache = KVCache(1, 4, capacity=KEYS)
        cache.write(0, 0, np.stack(ctx), np.stack(ctx))
        cache.append(CTX)
        return (h, weights, cache, CTX, CTX, pos), {"read": 1}

    out = benchmark.pedantic(_run_layers, setup=fresh_cache, rounds=5)
    assert out.shape == (64, 1) and np.isfinite(out).all()


def test_middle_stage_16k(benchmark):
    # REF's 17 middle chunks of 924 queries, each over the first chunk's 100
    # keys and its own, at the same time on the pool as prefill runs them,
    # reading no column, so their last layer only writes keys and values;
    # each round over a fresh prompt-sized cache holding the first chunk.
    # The inputs are embedded tokens, not unit normals: scores that large
    # push the softmax into subnormals, which run several times slower.
    weights = random_model(d=64, n_heads=4, n_layers=4, vocab=256, seed=0)
    plan = dynamic_split(KEYS, 1024, 100, 512, 200)
    spans = chunk_spans(plan)
    middles, ctx = spans[1:-1], plan.first_len
    h = weights.w_e[:, np.random.default_rng(4).integers(1, 256, size=KEYS)]

    def fresh_cache():
        cache = KVCache(4, 4, capacity=KEYS)
        _run_layers(h[:, :ctx], weights, cache, 0, 0, _positions(weights, np.arange(ctx, dtype=np.float64), ctx))
        cache.append(ctx)
        return (cache,), {}

    def middle_stage(cache):
        def run(span):
            lo, hi = span
            pos = _positions(weights, np.arange(ctx + hi - lo, dtype=np.float64), hi - lo)
            return _run_layers(h[:, lo:hi], weights, cache, lo, ctx, pos, read=0)

        for (lo, hi), _ in zip(middles, _pool_map(run, middles)):
            cache.append(hi - lo)
        return cache

    cache = benchmark.pedantic(middle_stage, setup=fresh_cache, rounds=5)
    assert len(middles) == 17 and len(cache) == middles[-1][1]


def _ref_blocks(n):
    rng = np.random.default_rng(1)
    return [[rng.normal(size=(HEAD_DIM, n)) for _ in range(4)] for _ in range(4)]


def _fill(cache, blocks):
    """Write blocks ([layer][head] -> h x n) as every head's keys and values, then commit them."""
    for layer, heads in enumerate(blocks):
        cache.write(layer, len(cache), np.stack(heads), np.stack(heads))
    cache.append(blocks[0][0].shape[1])


def _ref_cache(n):
    # sized to the prompt, as prefill sizes it; the first step adds a page of 1/8
    weights = random_model(d=64, n_heads=4, n_layers=4, vocab=256, seed=0)
    cache = KVCache(len(weights.layers), 4, capacity=n)
    _fill(cache, _ref_blocks(n))
    return weights, cache


def _decode_step(benchmark, weights, cache, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50)):
    config = MesaConfig(train_len=1024, weave=weave)
    # each call appends one token, so the cache grows by one key per round
    logits, _ = benchmark(decode_step, cache, 3, weights, config)
    assert np.isfinite(logits).all()


def test_decode_step_16k_keys(benchmark):
    _decode_step(benchmark, *_ref_cache(KEYS - 1))


def test_first_decode_step_16k_keys(benchmark):
    # the first step after a prompt-sized 16k prefill, each round over a
    # fresh prompt-sized cache: the step that adds a page to every layer
    config = MesaConfig(train_len=1024, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    weights = random_model(d=64, n_heads=4, n_layers=4, vocab=256, seed=0)
    blocks = _ref_blocks(KEYS)

    def fresh_cache():
        cache = KVCache(len(weights.layers), 4, capacity=KEYS)
        _fill(cache, blocks)
        return (cache, 3, weights, config), {}

    logits, cache = benchmark.pedantic(decode_step, setup=fresh_cache, rounds=3)
    assert np.isfinite(logits).all() and len(cache) == KEYS + 1 and cache.capacity == KEYS + TILE_ROWS


def test_decode_step_1k_keys(benchmark):
    # the in-window prompt's cache: 1,000 tokens plus <bos>
    _decode_step(benchmark, *_ref_cache(1001))


def test_decode_step_1k_keys_capped(benchmark):
    # the same cache under the capped weave: one-key runs up to 512, then one long run
    _decode_step(benchmark, *_ref_cache(1001), WeaveParams(scheme=Scheme.REROPE, cap=512))


def test_decode_step_1k_keys_leaky(benchmark):
    # under a leaky weave every distance is its own run; a leak of 0.1 keeps
    # W(t) inside the window up to t = 5,622, past any round count
    _decode_step(benchmark, *_ref_cache(1001), WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=512, leak=0.1))


def test_kv_cache_append_and_view_16k(benchmark):
    # a fresh prompt-sized cache per round: one 16k-key append, then every
    # layer/head view, as a prefill fills it and a decode step reads it
    blocks = _ref_blocks(KEYS - 1)

    def fill_and_view():
        cache = KVCache(4, 4, capacity=KEYS - 1)
        _fill(cache, blocks)
        return [cache.view(layer, head) for layer in range(4) for head in range(4)]

    views = benchmark(fill_and_view)
    assert views[-1][0].shape == (HEAD_DIM, KEYS - 1)


def test_in_window_prefill(benchmark):
    # REF's in-window prompt: 1,000 tokens plus <bos>, one chunk at raw positions
    weights = random_model(d=64, n_heads=4, n_layers=4, vocab=256, seed=0)
    config = MesaConfig(train_len=1024, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    tokens = np.random.default_rng(2).integers(1, 256, size=1000).tolist()
    res = benchmark(prefill, tokens, weights, config)
    assert res.report.fallback and len(res.cache) == 1001 and np.isfinite(res.logits).all()


def test_weave_stair_16k(benchmark):
    dist = np.arange(KEYS)[::-1]
    woven = benchmark(weave_stair, dist, 512, 50)
    assert woven[0] == 512 + -(-(KEYS - 1 - 512) // 50)


def _corollary_700():
    # the longest scan: a staircase whose rescue ceiling is the 700-position limit
    return build_corollary(TheoryConfig(window=32, cap=8, tread=2, t_max=MAX_SCAN))


def test_alpha1_700(benchmark):
    model = _corollary_700()
    ts = np.arange(1, MAX_SCAN + 1)
    alpha1 = benchmark(model.alpha1, ts)
    assert np.all(alpha1[32:] > 1.0 / ts[32:])


def test_woven_forward_700(benchmark):
    # the scan's forward pass alone: its staircase tiles read from one weave table
    model = _corollary_700()
    trace = benchmark(_forward, [1] * (MAX_SCAN - 1), model.weights, model.weave, None, alphas=None)
    assert trace.final.shape == (3, MAX_SCAN) and trace.alphas is None


def test_threshold_scan_700(benchmark):
    rep = benchmark(threshold_scan, _corollary_700())
    assert rep.agrees and rep.crossing is None
