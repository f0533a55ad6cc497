"""Tiny transformer: embedding, attention, layers, caching, serialization."""

import numpy as np
import pytest

import weavepe.model as model_module
from dense_oracle import masked_softmax
from weavepe.masks import causal_mask, sink_mask
from weavepe.model import (
    BOS_ID,
    TILE_ROWS,
    DenseFF,
    HeadWeights,
    KVCache,
    LayerWeights,
    ModelWeights,
    WhitespaceVocab,
    _Distances,
    _Rotation,
    _Woven,
    _positions,
    embed,
    forward,
    load_weights,
    random_model,
    save_weights,
    zero_ff,
)
from weavepe.pe_core import (
    IDENTITY_SCHEMES,
    Scheme,
    WeaveParams,
    apply_rotary,
    position_matrix,
    rotary_table,
    weave_table,
    woven_distances,
)
from weavepe.theory import TheoryConfig, build_corollary, build_theorem1, build_theorem2, build_theorem3


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


_PURE_WEAVES = {
    "stair": WeaveParams(scheme=Scheme.STAIR, cap=5, tread=3),
    "rerope": WeaveParams(scheme=Scheme.REROPE, cap=7),
    "leaky": WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=6, leak=0.3),
}
_WEAVES = {"none": None, **_PURE_WEAVES, "grouped": WeaveParams(scheme=Scheme.SELF_EXTEND, neighbor=8, group=3)}


def _per_tile_positions(weights, coords, m, weave=None):
    """forward's positional input rebuilt for every tile: woven_distances of
    each pair under a non-identity weave, else coordinate differences (or
    the rotary table) over 0..m-1."""
    if coords is None:
        coords = np.arange(m, dtype=np.float64)
        if weights.pe_family != "dot" and weave is not None and weave.scheme not in IDENTITY_SCHEMES:
            base = weights.theta_base if weights.pe_family == "rotary" else None
            return _Distances(lambda lo, hi, c0, c1: woven_distances(weave, np.arange(lo, hi), np.arange(c0, c1)), base)
    return _positions(weights, coords, m)


@pytest.mark.parametrize("mask", ["none", "sink"])
@pytest.mark.parametrize("weave", list(_WEAVES))
@pytest.mark.parametrize("family", ["dot", "additive", "rotary"])
def test_forward_distance_windows_change_no_bit(monkeypatch, family, weave, mask):
    # three row tiles; the windows onto one weave table against the distances rebuilt per tile
    w = random_model(d=16, n_heads=2, n_layers=2, vocab=16, seed=3, pe_family=family)
    tokens = np.random.default_rng(5).integers(1, 16, size=150).tolist()
    sink = sink_mask(151, 3, 40) if mask == "sink" else None
    got = forward(tokens, w, weave=_WEAVES[weave], mask=sink)
    monkeypatch.setattr(model_module, "_positions", _per_tile_positions)
    want = forward(tokens, w, weave=_WEAVES[weave], mask=sink)
    assert all(np.array_equal(a, b) for a, b in zip(got.hidden, want.hidden, strict=True))
    for layer_a, layer_b in zip(got.alphas, want.alphas, strict=True):
        assert all(np.array_equal(a, b) for a, b in zip(layer_a, layer_b, strict=True))


@pytest.mark.parametrize("family", ["additive", "rotary"])
@pytest.mark.parametrize("weave", list(_PURE_WEAVES))
def test_distance_tiles_are_windows_onto_the_position_matrix(family, weave):
    n = 150
    params = _PURE_WEAVES[weave]
    pos = _positions(random_model(d=8, n_heads=2, n_layers=1, vocab=8, pe_family=family), None, n, params)
    entries = position_matrix(params, n).entries
    spans = [(lo, min(lo + TILE_ROWS, n)) for lo in range(0, n, TILE_ROWS)] + [(0, 1), (7, 8), (3, 97), (149, 150)]
    for lo, hi in spans:
        # every key, then a block of columns off the diagonal and one across it
        for c0, c1 in [(0, hi), (lo // 2, lo // 2 + 1), (lo // 3, hi)]:
            tile = pos.tile(lo, hi, c0, c1)
            assert tile.shape == (hi - lo, c1 - c0) and not tile.flags.owndata  # a view, not a built array
            seen = np.tri(hi - lo, hi, lo, dtype=bool)[:, c0:c1]  # on and below the diagonal
            assert np.array_equal(tile[seen], entries[lo:hi, c0:c1][seen])


@pytest.mark.parametrize("weave", list(_WEAVES.values()), ids=list(_WEAVES))
def test_forward_builds_one_weave_table(monkeypatch, weave):
    # a distance weave reads every tile from one table; only the grouped remap rebuilds per tile
    calls = {"weave_table": 0, "woven_distances": 0}

    def spy(name):
        real = getattr(model_module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(model_module, name, spy(name))
    w = random_model(d=8, n_heads=2, n_layers=2, vocab=16, seed=1, pe_family="additive")
    forward(np.random.default_rng(2).integers(1, 16, size=199).tolist(), w, weave=weave)
    if weave is not None and weave.scheme is Scheme.SELF_EXTEND:
        assert calls["weave_table"] == 0 and calls["woven_distances"] > 0
    else:
        assert calls == {"weave_table": 1, "woven_distances": 0}


def _commit(cache, k_blocks, v_blocks):
    """Write each layer and head's keys and values ([layer][head] -> h x m)
    into the slots from len(cache) on, then commit their m slots."""
    for layer, (ks, vs) in enumerate(zip(k_blocks, v_blocks)):
        cache.write(layer, len(cache), np.stack(ks), np.stack(vs))
    cache.append(k_blocks[0][0].shape[1])


def test_attend_holds_one_score_tile():
    # 3 full row tiles over 4,096 keys, scored in blocks: a block is 64 x
    # 2,048 float64 (1 MiB), and the tile's other blocks are never alive with it
    import tracemalloc

    from weavepe.model import KEY_BLOCK, TILE_ROWS, _attend

    rng = np.random.default_rng(0)
    h, m, n = 16, 3 * TILE_ROWS, 4096
    q, k, v = rng.normal(size=(h, m)), rng.normal(size=(h, n)), rng.normal(size=(h, n))
    block = TILE_ROWS * KEY_BLOCK * 8
    rotary = _Rotation(*rotary_table(np.arange(n, dtype=np.float64), h, 10000.0), np.arange(n))
    # forward's table-backed additive tiles: one block, plus the slope-scaled
    # table reversed and padded to 2n - 1 values
    stair = WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50)
    additive = _positions(random_model(d=h, n_heads=1, n_layers=1, pe_family="additive"), None, n, stair)
    for pos, held in [(rotary, (m + n) * h * 8), (additive, (2 * n - 1) * 8)]:  # rotated q and k; the table
        tracemalloc.start()
        try:
            _attend(q, (k,), (v,), n - m, 0.5, pos)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block + held + (256 << 10), (type(pos).__name__, peak)


def test_attend_over_the_last_chunk_of_16k_stays_under_5_mib():
    # one head of REF's last chunk, 577 queries over 16,385 keys, rotary:
    # unblocked, its 64 x 16,385 score tile alone is 8 MiB and the call
    # peaks at 10.2 MiB; in blocks of 2,048 keys it holds the rotated keys
    # (2 MiB), their rotation's temporaries and one 1 MiB block
    import tracemalloc

    from weavepe.model import _attend

    rng = np.random.default_rng(0)
    h, m, n = 16, 577, 16_385
    q, k, v = rng.normal(size=(h, m)), rng.normal(size=(h, n)), rng.normal(size=(h, n))
    rotary = _Rotation(*rotary_table(np.arange(n, dtype=np.float64), h, 10000.0), np.arange(n))
    tracemalloc.start()
    try:
        out = _attend(q, (k,), (v,), n - m, 0.0, rotary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (h, m) and np.isfinite(out).all()
    assert peak < 5 << 20, peak


def test_attend_over_the_last_chunk_holds_no_rotated_span():
    # one head of REF's last chunk, rotary, its keys at the staircase's
    # anchored coordinates: each key block is rotated as it is taken and
    # the queries in place, so the call holds less than the keys' own 2 MiB
    import tracemalloc

    from weavepe.model import _attend
    from weavepe.pipeline import MesaConfig, decode_distances

    rng = np.random.default_rng(0)
    h, m, n = 16, 577, 16_385
    q, k, v = rng.normal(size=(h, m)), rng.normal(size=(h, n)), rng.normal(size=(h, n))
    config = MesaConfig(train_len=1024, weave=WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    pos = _positions(random_model(d=h, n_heads=1, n_layers=1), (n - 1) - decode_distances(n - 1, config), m)
    tracemalloc.start()
    try:
        out = _attend(q, (k,), (v,), n - m, 0.0, pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (h, m) and np.isfinite(out).all()
    assert peak < k.nbytes, (peak, k.nbytes)


@pytest.mark.parametrize("family", ["dot", "rotary", "additive"])
def test_attend_blocks_that_only_later_tiles_see_match_the_dense_oracle(monkeypatch, family):
    # blocks of 64 keys over 200 context keys and 200 queries in four row
    # tiles, unshifted and shifted in turn: the block of keys 320..383 is
    # seen by the last three tiles alone, 384..399 by the last two, and the
    # block of keys 256..319 crosses the two spans, split at 300.  The
    # rotary queries and keys sit at a staircase's anchored coordinates.
    from weavepe.model import _attend

    monkeypatch.setattr(model_module, "KEY_BLOCK", 64)
    m, n, split = 3 * TILE_ROWS + 8, 400, 300
    ctx = n - m
    factors = [0.99] * TILE_ROWS + [1.01] * TILE_ROWS + [0.99] * TILE_ROWS + [1.01] * 8
    q, k, v, pos, scores = _at_bound(family, factors, n)
    if family == "rotary":
        stair = WeaveParams(scheme=Scheme.STAIR, cap=40, tread=3)
        coords = (n - 1) - woven_distances(stair, np.array([n - 1]), np.arange(n))[0]
        pos = _positions(random_model(d=16, n_heads=1, n_layers=1), coords, m)
        table = rotary_table(coords, 16, 10000.0)
        scores = apply_rotary(q, tuple(t[:, ctx:] for t in table)).T @ apply_rotary(k, table)
    alpha = np.zeros((m, n))
    out = _attend(q, (k[:, :split], k[:, split:]), (v[:, :split], v[:, split:]), ctx, 0.5, pos, None, alpha)
    want = masked_softmax(scores, causal_mask(n).tile(ctx, n, 0, n))
    np.testing.assert_allclose(alpha, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out, v @ want.T, rtol=0, atol=1e-12)
    assert np.all(np.triu(alpha[:, ctx:], 1) == 0.0)


@pytest.mark.parametrize("family", ["dot", "rotary"])
def test_attend_peaked_rows_over_two_spans_match_the_dense_oracle(family):
    # queries scaled x60 spread each row's scores over more than 708, where
    # exp of the shifted scores reaches subnormals; the keys come as two
    # spans split at 2,000, so the first 2,048-key block crosses them, and a
    # sink mask hides cells, whose weights must stay exactly 0
    from weavepe.model import KEY_BLOCK, _attend

    rng = np.random.default_rng(5)
    h, m, n, split = 16, 100, 2348, 2000
    ctx = n - m
    q, k, v = 60.0 * rng.normal(size=(h, m)), rng.normal(size=(h, n)), rng.normal(size=(h, n))
    assert split < KEY_BLOCK < ctx
    mask = sink_mask(n, 4, 1500)
    pos, qr, kr = None, q, k
    if family == "rotary":
        table = rotary_table(np.arange(n, dtype=np.float64), h, 10000.0)
        pos = _Rotation(*table, np.arange(n))
        qr, kr = apply_rotary(q, tuple(t[:, ctx:] for t in table)), apply_rotary(k, table)
    alpha = np.zeros((m, n))
    out = _attend(q, (k[:, :split], k[:, split:]), (v[:, :split], v[:, split:]), ctx, 0.0, pos, mask, alpha)
    scores, visible = qr.T @ kr, mask.tile(ctx, n, 0, n)
    spread = np.where(visible, scores, -np.inf).max(axis=1) - np.where(visible, scores, np.inf).min(axis=1)
    assert spread.min() > 708
    want = masked_softmax(scores, visible)
    np.testing.assert_allclose(alpha, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out, v @ want.T, rtol=0, atol=1e-12)
    assert np.all(alpha[~visible] == 0.0)


def test_rotary_attend_leaves_the_cached_keys_raw(monkeypatch):
    # a key block is a view of one span unless it crosses two: the rotary
    # family rotates a view into a new array and only a joined block in
    # place, so over one page or two the cache's keys stay bit for bit raw
    from weavepe.model import _attend

    monkeypatch.setattr(model_module, "KEY_BLOCK", 64)  # blocks of 32 keys for 2 stacked heads
    rng = np.random.default_rng(9)
    h, m, n = 16, 40, 300
    k, v, q = rng.normal(size=(2, h, n)), rng.normal(size=(2, h, n)), rng.normal(size=(2, h, m))
    pos = _Rotation(*rotary_table(np.arange(n, dtype=np.float64), h, 10000.0), np.arange(n))
    outs = []
    for capacity in (n, 100):  # one page; two, split at key 100, inside the block of keys 96..127
        cache = KVCache(n_layers=1, n_heads=2, capacity=capacity)
        ks, vs = cache.write(0, 0, k, v)
        assert len(ks) == (1 if capacity == n else 2)
        outs.append(_attend(q.copy(), ks, vs, n - m, np.zeros((2, 1, 1)), pos))
        assert np.array_equal(np.concatenate(ks, axis=-1), k) and np.array_equal(np.concatenate(vs, axis=-1), v)
    np.testing.assert_allclose(outs[1], outs[0], rtol=0, atol=1e-12)


class _RowMaxSpy(np.ndarray):
    """Queries whose score blocks record the rows of every row-max reduction
    made on them: _attend scores q @ k, and the block keeps this type."""

    calls: list = []

    def max(self, *args, **kwargs):
        if kwargs.get("keepdims"):
            _RowMaxSpy.calls.append(self.shape[-2])
        return super().max(*args, **kwargs)


def _at_bound(family, factors, n, seed=8, slope=0.5):
    """_attend's inputs for queries at the last len(factors) of n keys, and
    the dense oracle's scores: the query of row r has the norm that puts
    its score bound, |q_r| max_i |k_i|, at factors[r] x _SAFE, and every
    second query points along the longest key, key 0, so that its score
    with it is near the bound; the additive family subtracts slope x
    distance."""
    from weavepe.model import _SAFE

    rng = np.random.default_rng(seed)
    m, h = len(factors), 16
    k, v = rng.normal(size=(h, n)), rng.normal(size=(h, n))
    k[:, 0] *= 1.5 * np.linalg.norm(k, axis=0).max() / np.linalg.norm(k[:, 0])
    q = rng.normal(size=(h, m))
    q[:, ::2] = k[:, [0]]
    q *= np.asarray(factors) * _SAFE / (np.linalg.norm(q, axis=0) * np.linalg.norm(k[:, 0]))
    ctx, pos, qr, kr, penalty = n - m, None, q, k, 0.0
    if family == "rotary":
        table = rotary_table(np.arange(n, dtype=np.float64), h, 10000.0)
        pos = _Rotation(*table, np.arange(n))
        qr, kr = apply_rotary(q, tuple(t[:, ctx:] for t in table)), apply_rotary(k, table)
    elif family == "additive":
        coords = np.arange(n, dtype=np.float64)
        pos = _positions(random_model(d=h, n_heads=1, n_layers=1, pe_family="additive"), coords, m)
        penalty = slope * (coords[ctx:, None] - coords[None, :])
    return q, k, v, pos, qr.T @ kr - penalty


@pytest.mark.parametrize("mask", [False, True])
@pytest.mark.parametrize("family", ["dot", "rotary", "additive"])
def test_attend_tiles_either_side_of_the_score_bound_match_the_dense_oracle(family, mask):
    # the first tile's rows lie 1 % under the bound, so it runs unshifted,
    # the second's 1 % over it, so it keeps the row-max shift; both match
    # the oracle, and under a sink mask hidden cells keep weight exactly 0
    from weavepe.model import _attend

    m, n = TILE_ROWS + 36, 400
    q, k, v, pos, scores = _at_bound(family, [0.99] * TILE_ROWS + [1.01] * 36, n)
    amask = sink_mask(n, 4, 150) if mask else None
    visible = (amask or causal_mask(n)).tile(n - m, n, 0, n)
    alpha = np.zeros((m, n))
    _RowMaxSpy.calls = []
    out = _attend(q.view(_RowMaxSpy), (k,), (v,), n - m, 0.5, pos, amask, alpha)
    if family != "rotary":  # the rotation makes the queries plain arrays again
        assert _RowMaxSpy.calls == [36]
    want = masked_softmax(scores, visible)
    np.testing.assert_allclose(alpha, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out, v @ want.T, rtol=0, atol=1e-12)
    assert np.all(alpha[~visible] == 0.0)


def test_attend_keeps_the_shift_for_a_negative_slope():
    # a negative slope raises far keys' scores past any bound from |q| |k|
    from weavepe.model import _attend

    m, n = 20, 200
    q, k, v, pos, scores = _at_bound("additive", [0.5] * m, n, slope=-0.5)
    _RowMaxSpy.calls = []
    out = _attend(q.view(_RowMaxSpy), (k,), (v,), n - m, -0.5, pos)
    assert _RowMaxSpy.calls == [m]
    want = masked_softmax(scores, causal_mask(n).tile(n - m, n, 0, n))
    np.testing.assert_allclose(out, v @ want.T, rtol=0, atol=1e-12)


def test_attend_16k_keys_at_the_score_bound_stay_finite():
    # one tile over 16,385 keys across two spans, every key along the
    # queries' direction: each score lies within 0.1 % of the bound, so
    # every exp is about e^350 and the row total about 16k e^350, far from
    # overflow; the tile runs unshifted and matches the oracle
    from weavepe.model import _SAFE, _attend

    rng = np.random.default_rng(9)
    h, m, n = 16, TILE_ROWS, 16_385
    u = rng.normal(size=(h, 1))
    k = u * rng.uniform(0.999, 1.0, size=n)
    q = np.repeat(u, m, axis=1) * (0.999 * _SAFE / np.linalg.norm(u) / np.linalg.norm(k, axis=0).max())
    v = rng.normal(size=(h, n))
    _RowMaxSpy.calls = []
    out = _attend(q.view(_RowMaxSpy), (k[:, :9000], k[:, 9000:]), (v[:, :9000], v[:, 9000:]), n - m, 0.0, None)
    assert _RowMaxSpy.calls == []
    assert np.isfinite(out).all()
    scores = q.T @ k
    assert scores.max() > 0.998 * _SAFE
    want = masked_softmax(scores, causal_mask(n).tile(n - m, n, 0, n))
    np.testing.assert_allclose(out, v @ want.T, rtol=0, atol=1e-12)


def test_attend_additive_row_whose_far_keys_underflow():
    # keys 1,000 apart and a unit slope: every key but a row's own scores
    # below -700 and the far ones below -1,700, where exp underflows to 0,
    # while its own key, at distance 0 and about -0.85 x _SAFE, holds the
    # unshifted row total clear of underflow
    from weavepe.model import _SAFE, _attend

    rng = np.random.default_rng(10)
    h, m, n = 16, 10, 30
    k, v = rng.normal(size=(h, n)), rng.normal(size=(h, n))
    k /= np.linalg.norm(k, axis=0)  # unit keys
    q = -0.85 * _SAFE * k[:, n - m :]
    coords = 1000.0 * np.arange(n)
    pos = _positions(random_model(d=h, n_heads=1, n_layers=1, pe_family="additive"), coords, m)
    alpha = np.zeros((m, n))
    _RowMaxSpy.calls = []
    out = _attend(q.view(_RowMaxSpy), (k,), (v,), n - m, 1.0, pos, None, alpha)
    assert _RowMaxSpy.calls == []
    visible = causal_mask(n).tile(n - m, n, 0, n)
    scores = np.where(visible, q.T @ k - (coords[n - m :, None] - coords[None, :]), -np.inf)
    np.testing.assert_allclose(np.diag(scores[:, n - m :]), -0.85 * _SAFE, rtol=1e-12)
    assert np.all(scores[:, : n - m - 1] < -1700)
    want = masked_softmax(scores, visible)
    np.testing.assert_allclose(alpha, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out, v @ want.T, rtol=0, atol=1e-12)


def test_layer_projects_every_head_from_one_stack():
    # the stacked weights are the heads' own arrays, so the cached keys and
    # values are bit for bit each head's w_k @ h and w_v @ h, and an
    # in-place change to a head's weights reaches the stack
    from weavepe.model import _run_layers

    w = random_model(d=16, n_heads=4, n_layers=1, vocab=16, seed=11)
    layer = w.layers[0]
    h = np.random.default_rng(12).normal(size=(16, 30))
    cache = KVCache(1, 4, capacity=30)
    _run_layers(h, w, cache, 0, 0, _positions(w, None, 30))
    cache.append(30)
    for mi, head in enumerate(layer.heads):
        assert all(np.shares_memory(x, layer.qkv) for x in (head.w_q, head.w_k, head.w_v))
        k, v = cache.view(0, mi)
        assert np.array_equal(k, head.w_k @ h) and np.array_equal(v, head.w_v @ h)
    layer.heads[2].w_k *= 3.0
    assert np.array_equal(layer.qkv[1, 2], layer.heads[2].w_k)


#: a weave of every kind MesaConfig accepts: staircase, capped, leaky, identity
ONE_QUERY_WEAVES = [
    WeaveParams(scheme=Scheme.STAIR, cap=9, tread=4),
    WeaveParams(scheme=Scheme.REROPE, cap=9),
    WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=9, leak=0.3),
    WeaveParams(scheme=Scheme.ROPE),
]
WEAVE_IDS = ["stair", "capped", "leaky", "identity"]


def _found_row(weave, t, head_dim, theta_base):
    """A one-query row found from weave_table(weave, t + 1): the woven
    distance of each key 0..t, its runs of equal distance (first key of
    each), their segments (first run, end run, run length, first key) and
    each run's turn e^(-i W theta) from a table over the runs' distances."""
    dist = weave_table(weave, t + 1)[::-1]
    starts = np.flatnonzero(np.concatenate(([True], dist[1:] != dist[:-1])))
    runs = np.diff(starts, append=t + 1)
    first = np.flatnonzero(np.concatenate(([True], runs[1:] != runs[:-1])))
    segments = tuple(
        (int(r0), int(r1), int(runs[r0]), int(starts[r0])) for r0, r1 in zip(first, [*first[1:], runs.size])
    )
    cos, sin = rotary_table(-dist[starts], head_dim, theta_base)
    turns = np.empty((starts.size, head_dim // 2), dtype=np.complex128)
    turns.real, turns.imag = cos.T, -sin.T
    return dist, segments, turns


@pytest.mark.parametrize("weave", ONE_QUERY_WEAVES, ids=WEAVE_IDS)
def test_kept_runs_row_matches_runs_found_from_the_weave_table(weave):
    # t runs across the tread boundaries, the cap N = 9 and the kept
    # runs' growth at every power of two up to 64: each step's runs,
    # segments and turns are those found from its own weave table, its
    # turns a view of the ones kept beside the runs, its scores the
    # per-key rotation's, and the additive row is the reversed table
    from weavepe import pe_core

    w = random_model(d=8, n_heads=2, n_layers=1, vocab=8, seed=6)
    additive = random_model(d=8, n_heads=2, n_layers=1, vocab=8, seed=6, pe_family="additive")
    rng = np.random.default_rng(7)
    for t in range(70):
        dist, segments, turns = _found_row(weave, t, 4, w.theta_base)
        pos = _positions(w, t, 1, weave)
        assert isinstance(pos, _Woven) and pos.segments == segments, t
        assert np.array_equal(pos.turns, turns), t
        assert np.shares_memory(pos.turns, pe_core.weave_runs(weave, t).turns[4, w.theta_base])
        q, k = rng.normal(size=(2, 4, 1)), rng.normal(size=(2, 4, t + 1))
        rotated = apply_rotary(np.repeat(q, t + 1, axis=-1), rotary_table(dist, 4, w.theta_base))
        np.testing.assert_allclose(pos.scores(q, (k,))[:, 0], (rotated * k).sum(axis=-2), rtol=0, atol=1e-12)
        row = _positions(additive, t, 1, weave)
        for c0, c1 in ((0, t + 1), (0, (t + 1) // 2), ((t + 1) // 3, t + 1)):
            assert np.array_equal(row.tile(t, t + 1, c0, c1), dist[None, c0:c1]), (t, c0, c1)


def test_woven_scores_over_spans_split_anywhere_match_one_span():
    # a decode query under each weave (the staircase: runs of 4 keys far
    # away, one key per distance near): its keys split into two or three
    # spans at every point, inside runs too, score as they do joined
    w = random_model(d=8, n_heads=2, n_layers=1, vocab=8, seed=6)
    t = 40
    rng = np.random.default_rng(7)
    for weave in ONE_QUERY_WEAVES:
        pos = _positions(w, t, 1, weave)
        q, k = rng.normal(size=(2, 4, 1)), rng.normal(size=(2, 4, t + 1))
        whole = pos.scores(q, (k,))
        for a in range(1, t + 1):
            for b in (a + 1, a + 5):
                spans = tuple(x for x in (k[..., :a], k[..., a:b], k[..., b:]) if x.shape[-1])
                np.testing.assert_allclose(pos.scores(q, spans), whole, rtol=0, atol=1e-14)


def test_run_layers_leaves_its_input_unchanged():
    # the head sum and the residual adds write into arrays of the layer's
    # own: the caller's h stays as it was, with or without a trace and a
    # read, and each layer's kept attention output is the one its next
    # input was summed from
    from weavepe.model import ForwardTrace, _run_layers

    w = random_model(d=16, n_heads=4, n_layers=2, vocab=16, seed=11)
    h = np.random.default_rng(12).normal(size=(16, 30))
    keep = h.copy()
    for trace in (None, ForwardTrace(hidden=[], attn=[], alphas=None)):
        for read in (None, 1):
            _run_layers(h, w, KVCache(2, 4, capacity=30), 0, 0, _positions(w, None, 30), trace=trace, read=read)
            assert np.array_equal(h, keep)
    y = trace.hidden[0] + trace.attn[0]
    assert trace.hidden[0] is h and np.array_equal(trace.hidden[1], w.layers[0].ff(y) + y)


def test_attend_one_woven_query_fills_alpha_under_a_mask():
    # a decode-shaped call, one query under a staircase over two spans,
    # given forward's mask and alpha: its weights are the dense oracle's and
    # the cells the mask hides keep weight exactly 0
    from weavepe.model import _attend

    w = random_model(d=16, n_heads=1, n_layers=1, vocab=8, seed=6)
    n, split, stair = 41, 17, WeaveParams(scheme=Scheme.STAIR, cap=9, tread=4)
    coords = (n - 1) - woven_distances(stair, np.array([n - 1]), np.arange(n))[0]
    pos = _positions(w, n - 1, 1, stair)
    assert isinstance(pos, _Woven)
    rng = np.random.default_rng(8)
    q, k, v = rng.normal(size=(16, 1)), rng.normal(size=(16, n)), rng.normal(size=(16, n))
    mask = sink_mask(n, 2, 10)
    table = rotary_table(coords, 16, w.theta_base)
    scores = apply_rotary(q, tuple(t[:, n - 1 :] for t in table)).T @ apply_rotary(k, table)
    visible = mask.tile(n - 1, n, 0, n)
    alpha = np.zeros((1, n))
    out = _attend(q, (k[:, :split], k[:, split:]), (v[:, :split], v[:, split:]), n - 1, 0.0, pos, mask, alpha)
    want = masked_softmax(scores, visible)
    np.testing.assert_allclose(alpha, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(out, v @ want.T, rtol=0, atol=1e-12)
    assert np.all(alpha[~visible] == 0.0) and visible.sum() < n


def test_kv_cache_write_across_a_page_returns_spans_per_page():
    # a write that runs past the capacity adds a page and straddles both;
    # the spans it returns cover slots 0..ctx_len-1 then its own, split at
    # the page boundary, as views of the pages
    cache = KVCache(n_layers=1, n_heads=1, capacity=4)
    cache.write(0, 0, np.full((1, 2, 3), 1.0), np.full((1, 2, 3), -1.0))
    cache.append(3)
    k = np.arange(8.0).reshape(1, 2, 4)
    ks, vs = cache.write(0, 3, k, -k, ctx_len=2)
    assert cache.capacity == 7 and len(cache._k[0]) == 2
    assert [x.shape[-1] for x in ks] == [2, 1, 3] and [x.shape[-1] for x in vs] == [2, 1, 3]
    assert all(np.shares_memory(x, cache._k[0][p]) for x, p in zip(ks, (0, 0, 1)))
    assert np.array_equal(np.concatenate(ks, axis=-1), np.concatenate([np.ones((1, 2, 2)), k], axis=-1))
    assert np.array_equal(np.concatenate(vs, axis=-1), np.concatenate([-np.ones((1, 2, 2)), -k], axis=-1))
    cache.append(4)
    assert np.array_equal(cache.view(0, 0)[0], np.concatenate([np.ones((2, 3)), k[0]], axis=-1))


def test_kv_cache_round_trip():
    cache = KVCache(n_layers=2, n_heads=1)
    rng = np.random.default_rng(0)
    ka = rng.normal(size=(3, 4))
    va = rng.normal(size=(3, 4))
    _commit(cache, [[ka], [ka * 2]], [[va], [va * 2]])
    # a view within one page is a slice of it, not a copy
    first_k, first_v = cache._k[1][0], cache._v[1][0]
    k2, v2 = cache.view(1, 0)
    assert np.shares_memory(k2, first_k) and np.shares_memory(v2, first_v)
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
    # the second write added a page and left the first where it was
    assert cache._k[1][0] is first_k and cache._v[1][0] is first_v and len(cache._k[1]) == 2


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
    # fill, grow by min(TILE_ROWS, 1/8 of the slots) (64 -> 72), then past
    # 72 + min(2 TILE_ROWS, 9) straight to the need (85)
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


def test_kv_cache_growth_pages_double_from_a_tile_to_an_eighth():
    # each write fills the storage and runs one slot past it: the pages
    # added double from TILE_ROWS slots up to 1/8 of the slots before them
    # (5,056 // 8 = 632, then 5,688 // 8 = 711, once TILE_ROWS doubled 4
    # times passes them), and a write that needs more gets what it needs
    cache = KVCache(n_layers=1, n_heads=1, capacity=4096)
    sizes = []
    for _ in range(6):
        m = cache.capacity - len(cache) + 1
        cache.write(0, len(cache), np.ones((1, 2, m)), np.ones((1, 2, m)))
        cache.append(m)
        sizes.append(cache._k[0][-1].shape[-1])
    t = TILE_ROWS
    assert sizes == [t, 2 * t, 4 * t, 8 * t, min(16 * t, 5056 // 8), min(32 * t, 5688 // 8)]
    m = cache.capacity - len(cache) + 1000
    cache.write(0, len(cache), np.ones((1, 2, m)), np.ones((1, 2, m)))
    assert cache._k[0][-1].shape[-1] == 1000  # past min(64 TILE_ROWS, 6,399 // 8 = 799)


def test_kv_cache_append_needs_written_slots():
    cache = KVCache(n_layers=2, n_heads=1)
    cache.write(0, 0, np.ones((1, 3, 2)), np.ones((1, 3, 2)))
    with pytest.raises(ValueError):
        cache.append(2)
    cache.write(1, 0, np.ones((1, 3, 2)), np.ones((1, 3, 2)))
    cache.append(2)
    assert len(cache) == 2


def test_kv_cache_write_past_filled_slots_never_grows():
    # a write past the filled slots (a middle chunk's, on a pool thread) must
    # fit the storage: growth keeps only the filled slots, and others may be in use
    cache = KVCache(n_layers=1, n_heads=1, capacity=6)
    cache.write(0, 0, np.ones((1, 3, 2)), np.ones((1, 3, 2)))
    cache.append(2)
    (k,), _ = cache.write(0, 4, np.full((1, 3, 2), 4.0), np.full((1, 3, 2), 4.0))
    assert k.shape == (1, 3, 6) and np.all(k[..., 4:] == 4.0)
    with pytest.raises(ValueError, match="past the filled 2"):
        cache.write(0, 5, np.ones((1, 3, 2)), np.ones((1, 3, 2)))
    cache.write(0, 2, np.full((1, 3, 2), 2.0), np.full((1, 3, 2), 2.0))
    cache.append(4)
    assert len(cache) == 6 and cache.capacity == 6
    assert np.array_equal(cache.view(0, 0)[0][0], [1, 1, 2, 2, 4, 4])


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
    # the un-woven, capped and staircase recovery FFs each rebuild from their saved doc
    for m in (
        build_theorem2(TheoryConfig(window=8, t_max=40)),
        build_theorem3(TheoryConfig(window=8, cap=2, t_max=40)),
        build_corollary(TheoryConfig(window=8, cap=3, tread=2, t_max=40)),
    ):
        text = save_weights(m.weights)
        back = load_weights(text)
        assert save_weights(back) == text, m.label
        assert back.layers[0].ff == m.weights.layers[0].ff, m.label
        a = forward([1] * 20, m.weights, weave=m.weave).final
        b = forward([1] * 20, back, weave=m.weave).final
        assert np.array_equal(a, b), m.label


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
