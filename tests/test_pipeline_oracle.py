"""Every chunk of the tiled pipeline against a dense oracle built from the chunk plan.

The oracle restates the method from its definition, with no tiling: each
chunk's queries score every token of the input through an explicit
(queries x all keys) visibility mask and an explicit coordinate-difference
matrix, then take a plain masked softmax.  The first chunk sits alone at raw
positions; a middle chunk sees the first chunk at raw positions and itself
shifted to start at F; the last chunk sees everything at woven coordinates
(staircase, capped or leaky) anchored at the final token; a decode query
sees everything at woven distances from itself.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import masked_softmax
from weavepe import model
from weavepe.model import layer_norm_cols, random_model
from weavepe.pe_core import Scheme, WeaveParams, scores_rotary, weave_table
from weavepe.pipeline import MesaConfig, decode_step, prefill
from weavepe.splitter import chunk_spans

TOL = 1e-12


def _dense_layer(h_all, q_cols, layer, weights, visible, dist):
    """One layer for the query columns q_cols of h_all, over every column as a key."""
    h = h_all[:, q_cols]
    a = np.zeros_like(h)
    for mi, head in enumerate(layer.heads):
        q = (head.w_q @ h).T
        k = (head.w_k @ h_all).T
        if weights.pe_family == "rotary":
            s = scores_rotary(q, k, dist, weights.theta_base)
        else:
            s = q @ k.T
            if weights.pe_family == "additive":
                s = s - weights.slope_for_head(mi) * dist
        alpha = masked_softmax(s, visible)
        a += head.w_o @ ((head.w_v @ h_all) @ alpha.T)
    z = a + h
    zz = layer_norm_cols(z) if layer.layer_norm == "standard" else z
    return layer.ff(zz) + z


def _oracle(weights, seq, cfg, plan):
    """Per chunk (visible mask, distance matrix), the inputs of every layer for
    every token, and the final-token logits."""
    total = len(seq)
    keys = np.arange(total)
    weave = weave_table(cfg.weave, total)
    anchor = total - 1
    spans = chunk_spans(plan)
    layer_in = [np.zeros((weights.d, total)) for _ in weights.layers]
    chunks = []
    for ci, (lo, hi) in enumerate(spans):
        q = np.arange(lo, hi)
        visible = keys[None, :] <= q[:, None]
        if ci == 0:
            qc, kc = q, keys
        elif ci < len(spans) - 1:
            visible &= (keys[None, :] < plan.first_len) | (keys[None, :] >= lo)
            shift = lo - plan.first_len
            qc, kc = q - shift, np.where(keys < plan.first_len, keys, keys - shift)
        else:
            qc, kc = anchor - weave[anchor - q], anchor - weave[anchor - keys]
        dist = np.asarray(qc, dtype=np.float64)[:, None] - np.asarray(kc, dtype=np.float64)[None, :]
        h = weights.w_e[:, seq[lo:hi]].astype(np.float64)
        for li, layer in enumerate(weights.layers):
            layer_in[li][:, lo:hi] = h
            h = _dense_layer(layer_in[li], q, layer, weights, visible, dist)
        chunks.append((visible, dist))
    return chunks, layer_in, weights.w_e.T @ h[:, -1]


def _oracle_decode(weights, layer_in, token, cfg):
    """One decode step, token at position t right after the t tokens of
    layer_in: its logits, and the inputs of every layer with its column added."""
    t = layer_in[0].shape[1]
    keys = np.arange(t + 1)
    dist = weave_table(cfg.weave, t + 1)[t - keys][None, :]
    h = weights.w_e[:, [token]].astype(np.float64)
    grown = []
    for li, layer in enumerate(weights.layers):
        grown.append(np.concatenate([layer_in[li], h], axis=1))
        h = _dense_layer(grown[-1], [t], layer, weights, np.ones_like(dist, dtype=bool), dist)
    return weights.w_e.T @ h[:, -1], grown


def _check_against_oracle(weights, cfg, n_tokens, seed):
    tokens = np.random.default_rng(seed).integers(1, weights.vocab_size, size=n_tokens).tolist()
    seq = np.asarray([0] + tokens)
    res = prefill(tokens, weights, cfg)
    assert not res.report.fallback
    chunks, layer_in, logits = _oracle(weights, seq, cfg, res.report.plan)
    assert len(chunks) == len(res.report.chunks)
    for trace, (visible, dist) in zip(res.report.chunks, chunks):
        assert trace.cells == int(visible.sum())
        assert trace.max_pe_distance == float(np.max(np.abs(dist[visible])))
        for li, layer in enumerate(weights.layers):
            h_in = layer_in[li][:, slice(*trace.q_span)]
            for mi, head in enumerate(layer.heads):
                k, v = (x[:, slice(*trace.q_span)] for x in res.cache.view(li, mi))
                np.testing.assert_allclose(k, head.w_k @ h_in, rtol=0, atol=TOL)
                np.testing.assert_allclose(v, head.w_v @ h_in, rtol=0, atol=TOL)
    np.testing.assert_allclose(res.logits, logits, rtol=0, atol=TOL)
    # prefill sizes the cache to the prompt, so the first step grows it
    cache, step_logits = res.cache, res.logits
    assert cache.capacity == len(cache)
    for _ in range(3):
        token = int(np.argmax(step_logits))
        want, layer_in = _oracle_decode(weights, layer_in, token, cfg)
        step_logits, cache = decode_step(cache, token, weights, cfg)
        np.testing.assert_allclose(step_logits, want, rtol=0, atol=TOL)
    assert len(cache) == len(seq) + 3 <= cache.capacity
    return res.report


def _model(family, seed, standard_norm=False, n_layers=2, n_heads=2):
    w = random_model(d=4 * n_heads, n_heads=n_heads, n_layers=n_layers, vocab=16, seed=seed, pe_family=family)
    if standard_norm:
        w.layers[-1].layer_norm = "standard"
    return w


@st.composite
def _cases(draw):
    first = draw(st.integers(1, 8))
    train = draw(st.integers(first + 2, 48))
    scheme = draw(st.sampled_from([Scheme.STAIR, Scheme.REROPE, Scheme.LEAKY_REROPE]))
    cap = draw(st.integers(1, train - 2))
    min_last, rest_max = draw(st.integers(1, 24)), draw(st.integers(1, 12))
    floor = max(train, min_last + first)
    total = draw(st.integers(floor + 1, floor + 120))
    # the three decode steps stay inside the trained window: the last scores
    # W(total + 2) = cap + (its steps past the cap, reach) woven <= train - 1
    reach, room = total + 2 - cap, train - 1 - cap
    tread = -(-reach // room)
    leak = room / reach
    weave = WeaveParams(
        scheme=scheme,
        cap=cap,
        tread=draw(st.integers(tread, tread + 5)),
        leak=draw(st.floats(leak / 20, 0.999 * leak)),
    )
    cfg = MesaConfig(train_len=train, weave=weave, first_len=first, min_last=min_last, rest_max=rest_max)
    family = draw(st.sampled_from(["rotary", "additive", "dot"]))
    tile = draw(st.sampled_from([1, 2, 3, 4, 7, 16]))
    block = draw(st.sampled_from([1, 3, 16, model.KEY_BLOCK]))
    shape = {"n_layers": draw(st.integers(1, 3)), "n_heads": draw(st.integers(1, 3))}
    return cfg, total, family, tile, block, draw(st.booleans()), shape, draw(st.integers(0, 2**16))


@given(_cases())
@settings(deadline=None, max_examples=60)
def test_every_chunk_matches_dense_oracle(case):
    # small tiles put chunk lengths below, at, and off multiples of the tile
    # height, and small key blocks split each tile's keys off the diagonal
    cfg, total, family, tile, block, standard_norm, shape, seed = case
    # patched where _attend reads them
    with mock.patch.object(model, "TILE_ROWS", tile), mock.patch.object(model, "KEY_BLOCK", block):
        _check_against_oracle(_model(family, seed, standard_norm, **shape), cfg, total - 1, seed)


_TILE_HEIGHT_CASES = [
    # first 8 (below the tile), middles of exactly one tile, last of one tile
    (72, 8, 64, 200, [8, 64, 64, 64]),
    # middles of one tile, last of 101 rows (not a multiple)
    (72, 8, 64, 237, [8, 64, 64, 101]),
    # middles of 140 rows and a last of 150: over two tiles, off the multiple
    (150, 10, 130, 440, [10, 140, 140, 150]),
    # a last chunk of one token: a rotary query is rotated per woven distance
    (16, 4, 1, 29, [4, 12, 12, 1]),
    # middle chunks of one token: one query, all heads in one call, seeing
    # the first chunk's keys and its own, not the whole cache
    (5, 4, 2, 12, [4, 1, 1, 1, 1, 1, 1, 2]),
]


def _check_tile_height_case(family, train, first, min_last, total, lengths):
    # a tread of 6 keeps every case's three decode steps inside the window
    cfg = MesaConfig(
        train_len=train,
        weave=WeaveParams(scheme=Scheme.STAIR, cap=train // 2, tread=6),
        first_len=first,
        min_last=min_last,
        rest_max=200,
    )
    report = _check_against_oracle(_model(family, seed=11), cfg, total - 1, seed=12)
    assert [hi - lo for lo, hi in (c.q_span for c in report.chunks)] == lengths


@pytest.mark.parametrize("family", ["rotary", "additive", "dot"])
@pytest.mark.parametrize("train, first, min_last, total, lengths", _TILE_HEIGHT_CASES)
def test_chunks_at_tile_height_match_dense_oracle(family, train, first, min_last, total, lengths):
    _check_tile_height_case(family, train, first, min_last, total, lengths)
    assert model.TILE_ROWS == 64 and model.KEY_BLOCK == 2048


@pytest.mark.parametrize("family", ["rotary", "additive", "dot"])
@pytest.mark.parametrize("train, first, min_last, total, lengths", _TILE_HEIGHT_CASES)
def test_chunks_in_key_blocks_match_dense_oracle(family, train, first, min_last, total, lengths):
    # tiles of 8 rows over blocks of 16 keys: every chunk past the first
    # splits its rows' keys into blocks, some wholly above the diagonal of
    # a tile's first rows, and the online softmax must still match
    with mock.patch.object(model, "TILE_ROWS", 8), mock.patch.object(model, "KEY_BLOCK", 16):
        _check_tile_height_case(family, train, first, min_last, total, lengths)
