"""Micro-benchmarks of the tiled attention, the in-window prefill and the
decode path at the reference config's sizes.

Not part of the test suite (pytest's testpaths is tests/); run with

    PYTHONPATH=src python -m pytest benches/ --benchmark-only

Reference config: random_model(d=64, n_heads=4, n_layers=4, vocab=256),
rotary, STAIR cap=512 tread=50, 16,384-token prompt; its last chunk is 577
queries over 16,385 keys.
"""

import numpy as np
import pytest

from weavepe.model import KVCache, _attend, random_model
from weavepe.pe_core import Scheme, WeaveParams, rotary_table, weave_stair
from weavepe.pipeline import MesaConfig, decode_step, prefill

HEAD_DIM = 16
LAST_ROWS, KEYS = 577, 16_385
CTX = KEYS - LAST_ROWS


def test_last_chunk_attention(benchmark):
    rng = np.random.default_rng(0)
    q = rng.normal(size=(HEAD_DIM, LAST_ROWS))
    k = rng.normal(size=(HEAD_DIM, KEYS))
    v = rng.normal(size=(HEAD_DIM, KEYS))
    pos = rotary_table(np.arange(KEYS, dtype=np.float64), HEAD_DIM, 10000.0)
    out = benchmark(_attend, q, k, v, CTX, 0.0, pos)
    assert out.shape == (HEAD_DIM, LAST_ROWS) and np.isfinite(out).all()


def _ref_blocks(n):
    rng = np.random.default_rng(1)
    return [[rng.normal(size=(HEAD_DIM, n)) for _ in range(4)] for _ in range(4)]


def _fill(cache, blocks):
    """Write blocks ([layer][head] -> h x n) as every head's keys and values, then commit them."""
    for layer, heads in enumerate(blocks):
        for head, kv in enumerate(heads):
            cache.write(layer, head, kv, kv)
    cache.append(blocks[0][0].shape[1])


@pytest.fixture(scope="module")
def ref_cache():
    # sized to the prompt, as prefill sizes it; the first step grows it by 1/8
    weights = random_model(d=64, n_heads=4, n_layers=4, vocab=256, seed=0)
    cache = KVCache(len(weights.layers), 4, capacity=KEYS - 1)
    _fill(cache, _ref_blocks(KEYS - 1))
    return weights, cache


def test_decode_step_16k_keys(benchmark, ref_cache):
    weights, cache = ref_cache
    config = MesaConfig(train_len=1024, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    # each call appends one token, so the cache grows by one key per round
    logits, _ = benchmark(decode_step, cache, 3, weights, config)
    assert np.isfinite(logits).all()


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
