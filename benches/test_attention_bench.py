"""Micro-benchmarks of the tiled attention at the reference config's sizes.

Not part of the test suite (pytest's testpaths is tests/); run with

    PYTHONPATH=src python -m pytest benches/ --benchmark-only

Reference config: random_model(d=64, n_heads=4, n_layers=4, vocab=256),
rotary, 16,384-token prompt; its last chunk is 577 queries over 16,385 keys.
"""

import numpy as np
import pytest

from weavepe.model import KVCache, random_model
from weavepe.pe_core import Scheme, WeaveParams, rotary_table
from weavepe.pipeline import MesaConfig, _attend, decode_step

HEAD_DIM = 16
LAST_ROWS, KEYS = 577, 16_385
CTX = KEYS - LAST_ROWS


def test_last_chunk_attention(benchmark):
    rng = np.random.default_rng(0)
    q = rng.normal(size=(HEAD_DIM, LAST_ROWS))
    k = rng.normal(size=(HEAD_DIM, KEYS))
    v = rng.normal(size=(HEAD_DIM, KEYS))
    coords = np.arange(KEYS, dtype=np.float64)
    pos = (rotary_table(coords[CTX:], HEAD_DIM, 10000.0), rotary_table(coords, HEAD_DIM, 10000.0))
    out = benchmark(_attend, q, k, v, CTX, "rotary", 0.0, pos)
    assert out.shape == (HEAD_DIM, LAST_ROWS) and np.isfinite(out).all()


@pytest.fixture(scope="module")
def ref_cache():
    weights = random_model(d=64, n_heads=4, n_layers=4, vocab=256, seed=0)
    cache = KVCache(len(weights.layers), 4)
    rng = np.random.default_rng(1)
    blocks = [[rng.normal(size=(HEAD_DIM, KEYS - 1)) for _ in range(4)] for _ in weights.layers]
    cache.append(np.arange(KEYS - 1), blocks, blocks)
    return weights, cache


def test_decode_step_16k_keys(benchmark, ref_cache):
    weights, cache = ref_cache
    config = MesaConfig(train_len=1024, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    # each call appends one token, so the cache grows by one key per round
    logits, _ = benchmark(decode_step, cache, 3, weights, config)
    assert np.isfinite(logits).all()
