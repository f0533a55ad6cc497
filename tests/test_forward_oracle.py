"""model.forward against a dense oracle that restates one layer from its definition.

The oracle builds the full n x n woven distance matrix (position_matrix),
the full visibility mask (AttentionMask.dense), and every head's full score
matrix (scores_rotary, scores_additive or a plain dot product), then takes
an explicit masked softmax and the normalised value product.  forward runs
the row-tiled attention core instead: coordinate rotations under an
identity weave, each tile's own woven distances under any other, the causal
tail plus a mask's tile, and normalisation deferred past the value product;
with KEY_BLOCK patched small, each tile's keys in blocks under an online
softmax.  position_matrix and AttentionMask.dense raise while forward runs, so it calls neither.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import masked_softmax
from weavepe import model
from weavepe.masks import AttentionMask, causal_mask, lambda_mask, sink_mask
from weavepe.model import embed, forward, layer_norm_cols, random_model
from weavepe.pe_core import Scheme, WeaveParams, position_matrix, scores_additive, scores_rotary

TOL = 1e-12

WEAVES = {
    "identity": None,
    "stair": WeaveParams(scheme=Scheme.STAIR, cap=5, tread=3),
    "rerope": WeaveParams(scheme=Scheme.REROPE, cap=6),
    "leaky": WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=4, leak=0.35),
    "self-extend": WeaveParams(scheme=Scheme.SELF_EXTEND, neighbor=4, group=3),
}


def _mask(kind, n):
    if kind == "sink":
        return sink_mask(n, 2, 5)
    if kind == "lambda":
        return lambda_mask(n, 3, 7)
    if kind == "local":  # no global keys: a row past the first blocks sees none of them
        return AttentionMask(n, n_global=0, n_local=5)
    return None


def _dense_forward(tokens, weights, weave, mask):
    """(hidden states, attention outputs, head weights) per layer, all n x n."""
    h = embed(tokens, weights)
    n = h.shape[1]
    dist = position_matrix(weave or WeaveParams(scheme=Scheme.ROPE), n).entries
    visible = (mask or causal_mask(n)).dense()
    hidden, attn, alphas = [h], [], []
    for layer in weights.layers:
        a = np.zeros_like(h)
        heads = []
        for mi, head in enumerate(layer.heads):
            q, k = (head.w_q @ h).T, (head.w_k @ h).T
            if weights.pe_family == "rotary":
                s = scores_rotary(q, k, dist, weights.theta_base)
            elif weights.pe_family == "additive":
                s = scores_additive(q, k, dist, weights.slope_for_head(mi))
            else:
                s = q @ k.T
            alpha = masked_softmax(s, visible)
            a += head.w_o @ ((head.w_v @ h) @ alpha.T)
            heads.append(alpha)
        z = a + h
        zz = layer_norm_cols(z) if layer.layer_norm == "standard" else z
        h = layer.ff(zz) + z
        hidden.append(h)
        attn.append(a)
        alphas.append(heads)
    return hidden, attn, alphas


def _check(family, weave, mask_kind, standard_norm, n_tokens, tile, seed, n_layers=2, n_heads=2, block=2048):
    w = random_model(d=4 * n_heads, n_heads=n_heads, n_layers=n_layers, vocab=16, seed=seed, pe_family=family)
    if standard_norm:
        w.layers[-1].layer_norm = "standard"
    tokens = np.random.default_rng(seed).integers(1, 16, size=n_tokens).tolist()
    mask = _mask(mask_kind, n_tokens + 1)
    hidden, attn, alphas = _dense_forward(tokens, w, weave, mask)
    # TILE_ROWS and KEY_BLOCK patched where _attend reads them; forward
    # builds no n x n distance or mask matrix, so both dense forms raise inside it
    dense_build = AssertionError("forward built an n x n matrix")
    with (
        mock.patch.object(model, "TILE_ROWS", tile),
        mock.patch.object(model, "KEY_BLOCK", block),
        mock.patch.object(model, "position_matrix", side_effect=dense_build),
        mock.patch.object(AttentionMask, "dense", side_effect=dense_build),
    ):
        tr = forward(tokens, w, weave=weave, mask=mask)
    assert len(tr.hidden) == len(hidden) and len(tr.attn) == len(attn)
    for got, want in zip(tr.hidden + tr.attn, hidden + attn):
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    for got_layer, want_layer in zip(tr.alphas, alphas, strict=True):
        for got, want in zip(got_layer, want_layer, strict=True):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("family", ["rotary", "additive", "dot"])
@pytest.mark.parametrize("weave", list(WEAVES))
@pytest.mark.parametrize("mask_kind", ["causal", "sink", "lambda", "local"])
def test_forward_matches_dense_oracle(family, weave, mask_kind):
    # 30 positions in tiles of 7: four full tiles and a partial one
    _check(family, WEAVES[weave], mask_kind, standard_norm=True, n_tokens=29, tile=7, seed=3)


@pytest.mark.parametrize("family", ["rotary", "additive", "dot"])
@pytest.mark.parametrize("weave", list(WEAVES))
@pytest.mark.parametrize("mask_kind", ["causal", "sink", "lambda", "local"])
def test_forward_in_key_blocks_matches_dense_oracle(family, weave, mask_kind):
    # 70 positions in tiles of 8 over blocks of 16 keys: up to five blocks
    # per tile, the last one partial, a block may lie wholly past the
    # diagonal of a tile's first rows, and under the local mask a row sees
    # no key of its first blocks, so its running max starts with no finite
    # score; the kept weights are rescaled after each row's last block
    _check(family, WEAVES[weave], mask_kind, standard_norm=True, n_tokens=69, tile=8, seed=3, block=16)


@st.composite
def _cases(draw):
    scheme = draw(st.sampled_from([Scheme.ROPE, Scheme.STAIR, Scheme.REROPE, Scheme.LEAKY_REROPE, Scheme.SELF_EXTEND]))
    weave = None if scheme is Scheme.ROPE and draw(st.booleans()) else WeaveParams(
        scheme=scheme,
        cap=draw(st.integers(1, 12)),
        tread=draw(st.integers(1, 5)),
        leak=draw(st.floats(0.05, 1.0)),
        neighbor=draw(st.integers(1, 8)),
        group=draw(st.integers(1, 4)),
    )
    tile = draw(st.integers(1, 16))
    block = draw(st.sampled_from([1, 2, 5, 16, 2048]))
    # lengths below, at and past one and two tile heights
    n_tokens = draw(st.sampled_from([tile - 1, tile, tile + 1, 2 * tile, 2 * tile + 1, 3 * tile + 2]) | st.integers(1, 40))
    return (
        draw(st.sampled_from(["rotary", "additive", "dot"])),
        weave,
        draw(st.sampled_from(["causal", "sink", "lambda", "local"])),
        draw(st.booleans()),
        max(n_tokens, 1),
        tile,
        draw(st.integers(0, 2**16)),
        draw(st.integers(1, 2)),
        draw(st.integers(1, 2)),
        block,
    )


@given(_cases())
@settings(deadline=None, max_examples=80)
def test_forward_fuzz_matches_dense_oracle(case):
    _check(*case)
