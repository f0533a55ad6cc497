"""Chunk-based triangular prefill with a woven last chunk, plus woven decode.

Prefill runs the first chunk alone at local positions, each middle chunk
against the first chunk only (both at local coordinates, so no positional
distance ever exceeds the trained window), and the last chunk against the
full concatenated cache with staircase-woven coordinates anchored at the
final token.  Decode re-anchors the woven coordinates at each new token, so
every decode query sees exactly the woven distance to every key.

Every distance a chunk or decode step feeds the positional term is a
difference of coordinates, so the coordinates, and for the rotary family the
cos/sin tables of the query and key rotations, are built once per chunk and
once per decode step, before the layer loop, and shared by every layer and
head; no per-cell trigonometry runs on these paths.

Attention runs in tiles of TILE_ROWS query rows, through one routine shared
by chunks and decode steps (a decode step is one row over every cached
key).  Queries and keys are rotated once per head and sliced per tile.  A
tile ending at chunk row r1 scores only the keys [0, c + r1) it may see, c
being the chunk's context length; the causal -inf is added on the tile's
rows x rows diagonal tail alone, the softmax runs in place on the one tile
buffer, and its normalisation is deferred past the value product, as in
FlashAttention (Dao et al., arXiv 2205.14135).  No m x n score, mask or
distance matrix is built, and a chunk's cell count and largest distance
are computed in closed form from its coordinates.  Middle chunks are
independent given the first chunk's keys and values but run one after
another: the time goes to the elementwise passes over the scores, not to
the Python loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from weavepe.model import (
    KVCache,
    ModelWeights,
    forward,  # noqa: F401  kept importable here: perfbench/layertrace.py wraps this name
    forward_layers,
    layer_norm_cols,
)
from weavepe.pe_core import (
    Scheme,
    WeaveParams,
    apply_rotary,
    rotary_table,
    rotate_by_coords,  # noqa: F401  kept importable here: perfbench/layertrace.py wraps this name
    weave_fn,
)
from weavepe.splitter import ChunkPlan, chunk_spans, dynamic_split

#: query rows per attention tile; REF's last-chunk attention (577 x 16,385) is
#: fastest from 48 to 64 rows, and about 35 % slower at 32 or 128
TILE_ROWS = 64
#: additive causal mask for a full tile's diagonal tail: -inf above the diagonal
_CAUSAL_TAIL = np.triu(np.full((TILE_ROWS, TILE_ROWS), -np.inf), 1)


@dataclass(frozen=True)
class MesaConfig:
    """Weave and split parameters for the pipeline.

    The weave point must sit inside the trained window; inputs that fit the
    window (or the first+last budget) are processed in a single vanilla pass.
    """

    train_len: int
    weave: WeaveParams = field(default_factory=lambda: WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    first_len: int = 100
    min_last: int = 512
    rest_max: int = 200

    def __post_init__(self) -> None:
        if self.train_len <= self.first_len:
            raise ValueError("train_len must exceed first_len")
        if self.weave.scheme is Scheme.SELF_EXTEND:
            raise ValueError("the grouped scheme is not a pure distance weave; use stair/rerope/leaky")
        if self.weave.cap >= self.train_len:
            raise ValueError("weave point must sit inside the trained window")


@dataclass
class ChunkTrace:
    """What one chunk's attention actually touched."""

    kind: str                      # "single" | "first" | "middle" | "last" | "decode"
    q_span: tuple[int, int]        # raw token indices of the queries
    ctx_indices: np.ndarray        # raw indices of out-of-chunk context keys
    cells: int                     # visible (query, key) pairs, the scores softmaxed (one head, one layer)
    max_pe_distance: float         # largest coordinate distance fed to the PE

    def allowed_pairs(self) -> set[tuple[int, int]]:
        """(query, key) pairs this chunk computed; for small-n pattern checks."""
        pairs = set()
        for q in range(*self.q_span):
            for i in self.ctx_indices:
                pairs.add((q, int(i)))
            for i in range(self.q_span[0], q + 1):
                pairs.add((q, i))
        return pairs


@dataclass
class RunReport:
    """Chunk plan, exact per-chunk cell counts, and wall-clock stage timings."""

    plan: ChunkPlan | None
    fallback: bool
    chunks: list[ChunkTrace] = field(default_factory=list)
    prefill_seconds: float = 0.0
    decode_seconds: float = 0.0
    decode_steps: int = 0

    @property
    def total_cells(self) -> int:
        return sum(c.cells for c in self.chunks if c.kind != "decode")

    def to_doc(self, include_timings: bool = False) -> dict:
        doc = {
            "fallback": self.fallback,
            "plan": None if self.plan is None else self.plan.to_json().strip(),
            "prefill_cells": self.total_cells,
            "chunks": [
                {
                    "kind": c.kind,
                    "q_span": list(c.q_span),
                    "cells": c.cells,
                    "max_pe_distance": c.max_pe_distance,
                }
                for c in self.chunks
            ],
        }
        if include_timings:
            doc["prefill_seconds"] = self.prefill_seconds
            doc["decode_seconds"] = self.decode_seconds
            doc["decode_steps"] = self.decode_steps
        return doc


@dataclass
class PrefillResult:
    logits: np.ndarray
    cache: KVCache
    report: RunReport


def _n_heads(weights: ModelWeights) -> int:
    return len(weights.layers[0].heads)


def _positions(weights: ModelWeights, q_coords: np.ndarray, k_coords: np.ndarray):
    """Positional input of _attend for one chunk or decode step.

    Built once and shared by every layer and head: the query and key rotary
    tables for the rotary family, the coordinates themselves for the additive
    family (its distances are taken per tile), None for the dot family.
    """
    fam = weights.pe_family
    if fam == "dot":
        return None
    if fam == "additive":
        return q_coords, k_coords
    if fam == "rotary":
        dim, base = weights.head_dim, weights.theta_base
        return rotary_table(q_coords, dim, base), rotary_table(k_coords, dim, base)
    raise ValueError(f"pipeline does not support pe_family {fam}")


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, ctx_len: int, fam: str, slope: float, pos) -> np.ndarray:
    """Causal attention of the m columns of q over ctx_len context keys, then
    the m queries' own keys; k and v are h x (ctx_len + m).

    Query row r sees keys [0, ctx_len + r].  Rows run in tiles of TILE_ROWS:
    a tile ending at row r1 scores only keys [0, ctx_len + r1), the causal
    -inf goes on its rows x rows diagonal tail alone, and the softmax runs in
    place on the tile with its normalisation deferred past the value product.
    Returns the h x m attention-weighted values.
    """
    if fam == "rotary":
        q, k = apply_rotary(q, pos[0]), apply_rotary(k, pos[1])
    qt = q.T
    m = qt.shape[0]
    out = np.empty((v.shape[0], m))
    for r0 in range(0, m, TILE_ROWS):
        r1 = min(r0 + TILE_ROWS, m)
        nk = ctx_len + r1
        s = qt[r0:r1] @ k[:, :nk]
        if fam == "additive":
            s -= slope * (pos[0][r0:r1, None] - pos[1][None, :nk])
        s[:, ctx_len + r0 :] += _CAUSAL_TAIL[: r1 - r0, : r1 - r0]
        s -= s.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        out[:, r0:r1] = (v[:, :nk] @ s.T) / s.sum(axis=1)
    return out


def _run_layers(h: np.ndarray, q_raw: np.ndarray, weights: ModelWeights, cache: KVCache, ctx_span, pos) -> np.ndarray:
    """Run the columns of h (tokens q_raw) through every layer; appends their raw K/V.

    Their queries see the cached keys in ctx_span (every cached key when
    ctx_span is None), then their own keys causally; pos is the _positions
    of exactly those keys.  Returns the final hidden state.
    """
    ctx_len = len(cache) if ctx_span is None else ctx_span[1] - ctx_span[0]
    new_k = [[None] * _n_heads(weights) for _ in weights.layers]
    new_v = [[None] * _n_heads(weights) for _ in weights.layers]
    for li, layer in enumerate(weights.layers):
        a = np.zeros_like(h)
        for mi, head in enumerate(layer.heads):
            k = new_k[li][mi] = head.w_k @ h
            v = new_v[li][mi] = head.w_v @ h
            if ctx_len:
                k_ctx, v_ctx, _ = cache.view(li, mi, span=ctx_span)
                k = np.concatenate([k_ctx, k], axis=1)
                v = np.concatenate([v_ctx, v], axis=1)
            att = _attend(head.w_q @ h, k, v, ctx_len, weights.pe_family, weights.slope_for_head(mi), pos)
            a += head.w_o @ att
        z = a + h
        zz = layer_norm_cols(z) if layer.layer_norm == "standard" else z
        h = layer.ff(zz) + z
    cache.append(q_raw, new_k, new_v)
    return h


def _max_visible_distance(q_coords: np.ndarray, k_coords: np.ndarray, ctx_len: int) -> float:
    """Largest |q - k| coordinate gap over the pairs _attend scores: query row
    r against keys [0, ctx_len + r], via prefix minima and maxima of the keys."""
    rows = slice(ctx_len, ctx_len + q_coords.size)
    lo = np.minimum.accumulate(k_coords)[rows]
    hi = np.maximum.accumulate(k_coords)[rows]
    return float(max(np.max(np.abs(q_coords - lo)), np.max(np.abs(q_coords - hi))))


def _run_chunk(
    seq_ids: np.ndarray,
    weights: ModelWeights,
    cache: KVCache,
    span: tuple[int, int],
    ctx_idx: np.ndarray,
    coords_of,  # callable raw index array -> PE coordinates array
) -> tuple[np.ndarray, int, float]:
    """Process tokens in span against the cached context keys ctx_idx, which
    are 0..c-1; appends their raw K/V.

    Returns (hidden d x m of the chunk through all layers, visible pairs per
    layer/head, max coordinate distance used).
    """
    lo, hi = span
    m, c = hi - lo, ctx_idx.size
    h = weights.w_e[:, seq_ids[lo:hi]].astype(np.float64)
    q_raw = np.arange(lo, hi)
    k_coords = np.asarray(coords_of(np.concatenate([ctx_idx, q_raw])), dtype=np.float64)
    q_coords = k_coords[c:]

    cells = m * c + m * (m + 1) // 2
    max_pe = _max_visible_distance(q_coords, k_coords, c)
    h = _run_layers(h, q_raw, weights, cache, (0, c), _positions(weights, q_coords, k_coords))
    return h, cells, max_pe


def _fill_cache_from_forward(seq_ids: np.ndarray, weights: ModelWeights) -> tuple[np.ndarray, KVCache]:
    """Vanilla single-pass forward; raw K/V taken from each layer's input.

    The layers run one at a time and only their hidden states are kept, so
    each layer's n x n attention matrices are dropped as the next one runs.
    """
    k_blocks = []
    v_blocks = []
    for layer, (h_in, h, _, _) in zip(weights.layers, forward_layers(seq_ids[1:], weights)):
        k_blocks.append([head.w_k @ h_in for head in layer.heads])
        v_blocks.append([head.w_v @ h_in for head in layer.heads])
    cache = KVCache(len(weights.layers), _n_heads(weights))
    cache.append(np.arange(len(seq_ids)), k_blocks, v_blocks)
    logits = weights.w_e.T @ h[:, -1]
    return logits, cache


def prefill(tokens, weights: ModelWeights, config: MesaConfig) -> PrefillResult:
    """Chunked prefill of the whole prompt; returns last-position logits and the cache.

    Inputs that fit the trained window (or the first+last budget) fall back to
    a single vanilla pass with regular positions.
    """
    if len(tokens) == 0:
        raise ValueError("empty input")
    seq_ids = np.asarray([0] + [int(t) for t in tokens], dtype=np.int64)
    if seq_ids.min() < 0 or seq_ids.max() >= weights.vocab_size:
        raise ValueError("token id out of range")
    total = len(seq_ids)
    t0 = time.perf_counter()

    if total <= config.train_len or total <= config.min_last + config.first_len:
        logits, cache = _fill_cache_from_forward(seq_ids, weights)
        report = RunReport(plan=None, fallback=True)
        report.chunks.append(
            ChunkTrace(
                kind="single",
                q_span=(0, total),
                ctx_indices=np.zeros(0, dtype=np.int64),
                cells=total * (total + 1) // 2,
                max_pe_distance=float(total - 1),
            )
        )
        report.prefill_seconds = time.perf_counter() - t0
        return PrefillResult(logits=logits, cache=cache, report=report)

    plan = dynamic_split(total, config.train_len, config.first_len, config.min_last, config.rest_max)
    spans = chunk_spans(plan)
    cache = KVCache(len(weights.layers), _n_heads(weights))
    report = RunReport(plan=plan, fallback=False)
    remap = weave_fn(config.weave)
    anchor = total - 1

    def raw_coords(idx):
        return idx

    h_last = None
    for ci, span in enumerate(spans):
        if ci == 0:
            kind, ctx_len, coords = "first", 0, raw_coords
        elif ci < len(spans) - 1:
            kind, ctx_len = "middle", plan.first_len
            offset = span[0] - plan.first_len

            def coords(idx, off=offset):
                # context keeps raw local 0..F-1; chunk tokens shift to F..F+C-1
                idx = np.asarray(idx)
                return np.where(idx < plan.first_len, idx, idx - off)

        else:
            kind, ctx_len = "last", span[0]

            def coords(idx):
                idx = np.asarray(idx, dtype=np.int64)
                return anchor - remap(anchor - idx)

        ctx_idx = np.arange(ctx_len, dtype=np.int64)
        h_chunk, cells, max_pe = _run_chunk(seq_ids, weights, cache, span, ctx_idx, coords)
        report.chunks.append(
            ChunkTrace(kind=kind, q_span=span, ctx_indices=ctx_idx, cells=cells, max_pe_distance=max_pe)
        )
        h_last = h_chunk

    logits = weights.w_e.T @ h_last[:, -1]
    report.prefill_seconds = time.perf_counter() - t0
    return PrefillResult(logits=logits, cache=cache, report=report)


def _woven_key_coords(t_new: int, idx: np.ndarray, config: MesaConfig) -> np.ndarray:
    """Coordinates of keys idx seen from a decode query at t_new: t_new - weave(t_new - idx)."""
    return t_new - np.asarray(weave_fn(config.weave)(t_new - idx), dtype=np.float64)


def decode_step(
    cache: KVCache, next_token: int, weights: ModelWeights, config: MesaConfig
) -> tuple[np.ndarray, KVCache]:
    """Append one token; its query attends every cached key at woven distances."""
    if not (0 <= int(next_token) < weights.vocab_size):
        raise ValueError(f"unknown token id {next_token}")
    t_new = len(cache)
    k_coords = _woven_key_coords(t_new, np.append(cache.indices, t_new), config)
    pos = _positions(weights, np.asarray([float(t_new)]), k_coords)
    h = weights.w_e[:, [int(next_token)]].astype(np.float64)
    h = _run_layers(h, np.asarray([t_new]), weights, cache, None, pos)
    logits = weights.w_e.T @ h[:, -1]
    return logits, cache


@dataclass
class GenerationResult:
    token_ids: list[int]
    report: RunReport


def generate(
    tokens,
    weights: ModelWeights,
    config: MesaConfig,
    max_new: int,
    stop_id: int | None = None,
) -> GenerationResult:
    """Greedy generation: prefill once, then decode one token at a time."""
    pre = prefill(tokens, weights, config)
    report = pre.report
    out: list[int] = []
    logits = pre.logits
    cache = pre.cache
    t0 = time.perf_counter()
    for _ in range(max_new):
        nxt = int(np.argmax(logits))
        out.append(nxt)
        if stop_id is not None and nxt == stop_id:
            break
        logits, cache = decode_step(cache, nxt, weights, config)
        report.decode_steps += 1
    report.decode_seconds = time.perf_counter() - t0
    return GenerationResult(token_ids=out, report=report)


def decode_distances(cache_len: int, config: MesaConfig) -> np.ndarray:
    """Effective woven distance from a decode query at position cache_len to
    each cached key; exposed for exactness checks."""
    return cache_len - _woven_key_coords(cache_len, np.arange(cache_len + 1), config)
