"""Chunk-based triangular prefill with a woven last chunk, plus woven decode.

Prefill runs the first chunk alone at local positions, each middle chunk
against the first chunk only (both at local coordinates, so no positional
distance ever exceeds the trained window), and the last chunk against the
full cache with coordinates woven by MesaConfig.weave (the staircase by
default; capped and leaky weaves too) anchored at the final token.  A
prompt of at most train_len positions is one chunk at raw positions, the
same computation as the first chunk.  A decode step is the last chunk of
one token: the same weave, anchored at the new token, so every decode
query sees exactly the woven distance to every key.  W is a fixed function
of the distance, so the weave is kept across steps as its runs of equal
W(d) up to the next power of two (pe_core.weave_runs): the last chunk's
distances (decode_distances) are read from them, and a step reads W(t) and
its woven row's runs from them without building anything over its t keys.
One rule, _fits_window, keeps each W(p) <= train_len - 1, p's largest
woven distance (to <bos>): prefill checks its anchor, decode_step its token
and generate its last step before any work.  generate sizes the cache for
the tokens it decodes up front, so its steps never add a page.

Every distance a chunk feeds the positional term is a difference of
coordinates.  A chunk's keys are its context, always the tokens
0..ctx_len-1, then its own tokens, which are also its queries; so each
chunk builds one coordinate array over its keys before the layer loop,
shared by every layer and head, with the queries taking its tail.  For
the rotary family each key's offset from the chunk's last coordinate is a
row of one kept cos/sin table over a power of two of offsets
(model._angles), which every chunk and step whose offsets lie below the
same power of two share: the offsets are woven distances from the anchor,
all below train_len.  One query (a decode step, or a one-token chunk)
rotates itself by each run's distance instead (model._Woven), with turns
from the same table's rows kept beside the weave's runs, so no key is
rotated; no per-key or per-cell trigonometry runs at all.

Cache slot i holds token i.  Each chunk or step writes its raw keys and
values into its own tokens' preallocated slots before attending, and
attends over spans of the cache's pages, views that no step copies: the
last chunk and a decode step over slots 0..t, one span per page they lie
in (prefill's one page, then a page each time decode runs past it); a
middle chunk over the first chunk's slots and its own, two spans that are
never joined beyond one key block, which a rotary chunk rotates as it takes
it.  The layers and the row-tiled attention are model's (_run_layers,
_attend), shared with model.forward; a chunk's cell count and largest
distance are computed in closed form from its coordinates.  The single,
first and last chunk split their rows over a small thread pool, each
thread running its group of row tiles through the whole layer with every
head stacked (model._run_layers), since the time goes to the elementwise
passes over the scores, which release the GIL.
The middle chunks need only the first chunk's keys and values, so they run
at the same time on that pool, one chunk per task, each attending with all
its heads in one stacked call, as a decode step does.  Each chunk is
committed (KVCache.append) on the calling thread, in chunk order, and is
handed its embedding without the caller keeping it, so _run_layers drops
it after the first layer.

Only the last column's final hidden state feeds the logits, and a later
chunk or step reads only the cached keys and values, so every chunk's last
layer writes its keys and values but only the final chunk attends there,
and only with the tile that holds that column (_run_layers' read).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from weavepe.model import (
    BOS_ID,
    KVCache,
    ModelWeights,
    _pool_map,
    _positions,
    _run_layers,
    forward,  # noqa: F401  kept importable here: perfbench/layertrace.py wraps this name
    token_ids,
)
from weavepe.pe_core import (
    IDENTITY_SCHEMES,
    Scheme,
    WeaveParams,
    rotate_by_coords,  # noqa: F401  kept importable here: perfbench/layertrace.py wraps this name
    weave_runs,
)
from weavepe.splitter import ChunkPlan, chunk_spans, dynamic_split


@dataclass(frozen=True)
class MesaConfig:
    """Weave and split parameters for the pipeline.

    A weave's weave point must sit inside the trained window (an identity
    weave has none), and a leaky weave's leak may not pass 1: above it, the
    woven distances outgrow the raw ones, so a prompt the single pass takes
    at raw positions would be past the window once woven.
    """

    train_len: int
    weave: WeaveParams = field(default_factory=lambda: WeaveParams(scheme=Scheme.STAIR, cap=512, tread=50))
    first_len: int = 100
    min_last: int = 512
    rest_max: int = 200

    def __post_init__(self) -> None:
        if self.train_len <= self.first_len:
            raise ValueError("train_len must exceed first_len")
        if min(self.first_len, self.min_last, self.rest_max) < 1:
            raise ValueError("first_len, min_last and rest_max must be positive")
        if self.weave.scheme is Scheme.SELF_EXTEND:
            raise ValueError("the grouped scheme is not a pure distance weave; use stair/rerope/leaky")
        if self.weave.scheme not in IDENTITY_SCHEMES and self.weave.cap >= self.train_len:
            raise ValueError("weave point must sit inside the trained window")
        if self.weave.scheme is Scheme.LEAKY_REROPE and self.weave.leak > 1:
            raise ValueError(
                f"leak must be at most 1, got {self.weave.leak}: it would weave distances past the raw ones"
            )


@dataclass
class ChunkTrace:
    """What one chunk's attention actually touched: the context keys
    0..ctx_len-1, then its own tokens q_span causally."""

    kind: str                      # "single" | "first" | "middle" | "last"
    q_span: tuple[int, int]        # raw token indices of the queries
    ctx_len: int                   # context keys before the chunk: tokens 0..ctx_len-1
    cells: int                     # visible (query, key) pairs of one head in one full layer; the last layer scores fewer
    max_pe_distance: float         # largest coordinate distance fed to the PE

    def allowed_pairs(self) -> set[tuple[int, int]]:
        """(query, key) pairs this chunk computed; for small-n pattern checks."""
        pairs = set()
        for q in range(*self.q_span):
            for i in range(self.ctx_len):
                pairs.add((q, i))
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
        return sum(c.cells for c in self.chunks)

    def to_doc(self) -> dict:
        """The deterministic fields; the timings stay out of files."""
        return {
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


@dataclass
class PrefillResult:
    logits: np.ndarray
    cache: KVCache
    report: RunReport


def prefill(tokens, weights: ModelWeights, config: MesaConfig) -> PrefillResult:
    """Chunked prefill of the whole prompt; returns last-position logits and
    the cache, sized to the prompt.

    A prompt of at most train_len positions (<bos> included) is one pass at
    raw positions; a longer one is chunked, and raises before any work past
    the trained window or at first_len + min_last positions or fewer.
    """
    return _prefill(tokens, weights, config, len(tokens) + 1)


def _prefill(tokens, weights: ModelWeights, config: MesaConfig, slots: int) -> PrefillResult:
    """prefill, its cache sized to slots tokens, <bos> and the prompt included."""
    if len(tokens) == 0:
        raise ValueError("empty input")
    seq_ids = token_ids([BOS_ID, *tokens], weights)
    total = len(seq_ids)
    t0 = time.perf_counter()

    anchor = total - 1
    fallback = _fits_window(anchor, config.train_len)
    if fallback:
        plan, spans = None, [(0, total)]
    else:
        _fits_window(anchor, config.train_len, config.weave)
        plan = dynamic_split(total, config.train_len, config.first_len, config.min_last, config.rest_max)
        spans = chunk_spans(plan)
    cache = KVCache(len(weights.layers), len(weights.layers[0].heads), capacity=slots)
    report = RunReport(plan=plan, fallback=fallback)

    def run(ci: int) -> tuple[np.ndarray | None, ChunkTrace]:
        """Chunk ci through the layers, its keys and values written to its
        own slots; returns the final hidden state of the prompt's last
        column for the final chunk, None for any other."""
        lo, hi = spans[ci]
        m = hi - lo
        # the chunk's keys are tokens 0..ctx_len-1 then its own m tokens, at
        # raw (local) coordinates, or woven from the anchor for the last chunk
        if ci == 0:
            kind, ctx_len, weave = ("single" if fallback else "first"), 0, None
        elif ci < len(spans) - 1:
            # the first chunk keeps local 0..F-1; the chunk's tokens shift to F..F+m-1
            kind, ctx_len, weave = "middle", plan.first_len, None
        else:
            kind, ctx_len, weave = "last", lo, config.weave
        if weave is None:
            coords = np.arange(ctx_len + m, dtype=np.float64)
        else:
            coords = anchor - decode_distances(anchor, config)
        # the logits read the final chunk's last column alone; the other chunks feed only the cache
        read = int(ci == len(spans) - 1)
        # one query reads its woven row from the kept runs, as a decode step does
        pos = _positions(weights, coords, m) if m > 1 else _positions(weights, ctx_len, 1, weave)
        # the embedding is held by _run_layers alone, which drops it after the first layer
        h = _run_layers(weights.w_e[:, seq_ids[lo:hi]].astype(np.float64), weights, cache, lo, ctx_len, pos, read=read)
        trace = ChunkTrace(
            kind=kind,
            q_span=(lo, hi),
            ctx_len=ctx_len,
            cells=m * ctx_len + m * (m + 1) // 2,
            # coordinates never decrease with the key index under every weave here, so
            # the largest distance scored is the last query's to the first key
            max_pe_distance=float(coords[-1] - coords[0]),
        )
        return (h[:, -1] if read else None), trace

    # the first (or single) chunk, then the middle chunks, at once on the pool,
    # then the last chunk, which needs them all; the first sizes every layer's
    # storage to slots, so the middle chunks write into it without growing it
    last = max(len(spans) - 1, 1)
    for stage in (range(1), range(1, last), range(last, len(spans))):
        for final, trace in _pool_map(run, stage):
            cache.append(trace.q_span[1] - trace.q_span[0])
            report.chunks.append(trace)

    logits = weights.w_e.T @ final
    report.prefill_seconds = time.perf_counter() - t0
    return PrefillResult(logits=logits, cache=cache, report=report)


def decode_step(
    cache: KVCache, next_token: int, weights: ModelWeights, config: MesaConfig
) -> tuple[np.ndarray, KVCache]:
    """Append one token: the last chunk of a one-token prompt extension, its
    query anchored at itself and every cached raw key at its woven distance.

    The step builds nothing over its t keys: the window check reads W(t),
    and the query's woven row its runs and their rotary turns, from the
    weave's runs kept across steps (pe_core.weave_runs), rebuilt only when
    t passes the next power of two.  Raises, before writing the cache, when
    the token's woven distance to the first key, the largest it would
    score, passes train_len - 1."""
    t = len(cache)
    _fits_window(t, config.train_len, config.weave)
    h = weights.w_e[:, token_ids([next_token], weights)].astype(np.float64)
    h = _run_layers(h, weights, cache, t, t, _positions(weights, t, 1, config.weave))
    cache.append(1)
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
    """Greedy generation: prefill once, into a cache sized for the prompt and
    the max_new - 1 tokens decoded after it, then decode one token at a
    time; the last token's logits are never read, so it is not decoded.

    Raises before any work when max_new is negative, or when the last of
    those steps would score a woven distance past train_len - 1, naming the
    largest max_new that fits.
    """
    if max_new < 0:
        raise ValueError(f"max_new must be >= 0, got {max_new}")
    steps = max(max_new - 1, 0)
    last = len(tokens) + steps  # position of the last step's token
    if steps:
        _fits_window(last, config.train_len, config.weave, max_new)
    pre = _prefill(tokens, weights, config, last + 1)
    report = pre.report
    out: list[int] = []
    logits = pre.logits
    cache = pre.cache
    t0 = time.perf_counter()
    for _ in range(max_new):
        nxt = int(np.argmax(logits))
        out.append(nxt)
        if len(out) == max_new or (stop_id is not None and nxt == stop_id):
            break
        logits, cache = decode_step(cache, nxt, weights, config)
        report.decode_steps += 1
    report.decode_seconds = time.perf_counter() - t0
    return GenerationResult(token_ids=out, report=report)


def _fits_window(p: int, train_len: int, weave: WeaveParams | None = None, max_new: int | None = None) -> bool:
    """The trained-window rule: the token at position p fits when its distance
    to <bos>, its largest, is at most train_len - 1: p at raw positions (no
    weave), W(p) under weave, read from its kept runs (weave_runs).  A woven
    misfit raises, naming p, W(p), the window, the smallest stair tread or
    largest leak that takes p, the longest prompt and largest max_new.

    Past the weave point N, W(p) = N + ceil((p - N) / E) on the staircase and
    N + leak (p - N) for the leaky weave, so p fits a tread of at least
    ceil((p - N) / (T - 1 - N)), or a leak of at most (T - 1 - N) / (p - N),
    named as that exact fraction: its nearest float may weave p a rounding
    step past the window."""
    top = train_len - 1
    if weave is None:
        return p <= top
    runs = weave_runs(weave, p)
    woven = runs.values[runs.run(p)]
    if woven <= top:
        return True
    # W never decreases, so the positions that fit are 0..fits-1, fits the first run past top
    fits = int(runs.starts[np.searchsorted(runs.values, top, side="right")])
    new = 0 if max_new is None else fits - 1 - p + max_new  # generate's largest max_new that fits, if any
    tail = f"; max_new={max_new} would decode position {p}, and the largest max_new that fits is {new}"
    room, over = top - weave.cap, p - weave.cap  # the window's woven room past the weave point, p's raw distance past it
    fix = ""
    if weave.scheme is Scheme.STAIR and room > 0:
        fix = f"; a tread of at least {-(-over // room)} takes it"
    elif weave.scheme is Scheme.LEAKY_REROPE and room > 0:
        fix = f"; a leak of at most {Fraction(room, over)} takes it"
    raise ValueError(
        f"position {p} would score woven distance {woven:g} to the first key, past the trained window "
        f"of {train_len} positions (distances up to {top}{fix}): the longest prompt it takes is {fits - 1} tokens"
        + (tail if new > 0 else "")
    )


def decode_distances(anchor: int, config: MesaConfig) -> np.ndarray:
    """Woven distance from the token at position anchor to each of the keys
    0..anchor, read from config.weave's kept runs (weave_runs): the last
    chunk applies it, anchored at its final token, and a decode step reads
    the same runs without building it."""
    return weave_runs(config.weave, anchor).window(0, anchor + 1)[::-1]
