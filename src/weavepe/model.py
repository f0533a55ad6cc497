"""Minimal decoder-only transformer with pluggable positional score kernels,
and the one attention core that every path runs.

Double precision throughout; the threshold constructions depend on it.  The
multi-head sub-layer uses the additive view (head outputs summed), which is
equivalent to concatenate-then-project for block-structured output weights.
Keys and values are cached before any rotation, token i in slot i, so the
same cached key can be assigned different woven positions later.  The cache
grows by pages and never moves a key, so attention reads its keys as spans,
views of the pages that joined give one key index, and nothing joins them
beyond one block.

forward, each prefill chunk and each decode step run the same layers
(_run_layers) and the same attention (_attend); _positions alone turns their
keys' coordinates (and forward's weave) into a positional form (_Form):
the dot product, a rotation (_Rotation, _Woven, _Cells) or a per-head
distance penalty (_Penalty).  _attend asks the form only to prepare the
queries, take each key block and score a tile against it, so it branches
on no family, as FlexAttention plugs its score into one kernel (Dong et
al., arXiv 2412.05496).  Rows run in tiles of TILE_ROWS queries, and the
keys in blocks of KEY_BLOCK (stacked heads share one head's block over the
keys: min(KEY_BLOCK, keys) / heads), the blocks outermost, as in
FlashAttention's loop order (Dao et al., arXiv 2205.14135): each block is
taken once per call, rotated once by a rotary form, and scored against
every row tile that sees any of it, while each tile keeps its softmax
state from block to block.  Each block
gets the causal -inf on the diagonal tail cells it holds (and, under
forward's mask, -inf on its cells outside it), and the softmax runs online
over the blocks, in place, with its normalisation deferred past the value
product (FlashAttention; Rabe & Staats, arXiv 2112.05682).  The running
row max of that softmax (Milakov & Gimelshein, arXiv 1805.02867) is there
only to keep exp from overflowing, which in float64 takes a score past
709; a tile whose scores Cauchy-Schwarz bounds by _SAFE before any is
computed skips it, and makes four passes over each block (scores, exp, row
sums, values), not six (the max and the shift too).  A decode step's one
query always shifts, and its woven row (_Woven) is the same loop's one
block, as wide as all the keys; the row's runs of equal distance and their
rotary turns are read from its weave's runs kept across steps
(pe_core.weave_runs), so a step builds no array over its keys.  No score,
distance or mask matrix larger than one block is held, and a block is freed before the next is scored, so
the working set is the queries, their value sums and one block, however
long the context; only forward keeps each head's normalised n x n weights.
A block is read one way for every form, as PagedAttention reads its
pages (Kwon et al., arXiv 2309.06180): a view when it lies inside one
span, joined when it crosses spans, and its values one product per span
piece, never copied.  Rotary keys are rotated by their offsets from the
last key's coordinate, a view into a new block and a joined block in
place, so no rotated span is held and the cached keys stay raw; whole
offsets are rows of one kept table (_angles), so no table over every key
is built either.  A caller that reads only the last columns (prefill) has
the last layer attend only the tiles holding them.

Every array of _attend may carry a leading heads axis, and every call
stacks all of a layer's heads, so its per-head numpy calls become one
batched call each.  A call with several queries that is not on a pool
thread (forward, the single pass, the first and last chunk) splits its
rows, not its heads, as FlashAttention-2 splits row blocks (Dao, arXiv
2307.08691): min(usable CPUs, heads) groups of whole row tiles, balanced
by the keys their rows see, each run through the whole layer on a pool thread
(query projection, attention, head sum in head order, residual and
feed-forward), after the calling thread has projected and written the
layer's keys and values.  numpy releases the GIL in the elementwise passes
and matmuls that dominate a tile, and a stacked tile holds every head's
cells, so each call does more work between the threads' GIL handoffs than
one head's did.  Every group attends over all the keys, with the block
edges and score bounds the whole call has, so the split changes no bit.  A step with one query
(every decode step; threads made it no faster), a one-head model and a
one-CPU host run each layer as one call on the calling thread, and a call
already on a pool thread (a prefill's middle chunk, the chunks running at
once) as one call on that thread: it never submits to the pool, which
would deadlock.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol

import numpy as np

from weavepe.masks import AttentionMask
from weavepe.pe_core import (
    IDENTITY_SCHEMES,
    Scheme,
    WeaveParams,
    WeaveRuns,
    alibi_slopes,
    apply_rotary,
    position_matrix,  # noqa: F401  kept importable here: perfbench/layertrace.py wraps this name
    rotary_table,
    scores_rotary,
    toeplitz_tiles,
    weave_runs,
    weave_table,
    woven_distances,
)

BOS_ID = 0

#: positional-score families a model can use
PE_FAMILIES = ("dot", "rotary", "additive")


class FeedForward(Protocol):
    def __call__(self, z: np.ndarray) -> np.ndarray: ...


@dataclass
class DenseFF:
    """Two-layer MLP ff(x) = w2 @ act(w1.T @ x), applied column-wise."""

    w1: np.ndarray  # (d, m)
    w2: np.ndarray  # (d, m)
    activation: str = "relu"  # "relu" | "identity"

    def __post_init__(self) -> None:
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation}")

    def __call__(self, z: np.ndarray) -> np.ndarray:
        pre = self.w1.T @ z
        if self.activation == "relu":
            np.maximum(pre, 0.0, out=pre)
        return self.w2 @ pre


def zero_ff(d: int) -> DenseFF:
    return DenseFF(w1=np.zeros((d, 1)), w2=np.zeros((d, 1)))


@dataclass
class HeadWeights:
    w_q: np.ndarray  # (h, d)
    w_k: np.ndarray  # (h, d)
    w_v: np.ndarray  # (h, d)
    w_o: np.ndarray  # (d, h)


@dataclass
class LayerWeights:
    """One layer's heads and feed-forward.

    The heads' query, key and value weights are stacked once, here, into qkv
    (3 x heads x h x d), and each head's w_q, w_k and w_v become views of
    it, so an in-place change to a head's weights reaches the stack; a
    weight rebound to a new array does not.  A layer projects every head's
    keys and values, or a group of heads' queries, by one batched matmul
    over a slice of the stack, one (h x d) @ (d x m) product per head and
    weight, each bit for bit the head's own w @ h.
    """

    heads: list[HeadWeights]
    ff: FeedForward
    layer_norm: str = "identity"  # "identity" | "standard"
    qkv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.qkv = np.array([[getattr(head, name) for head in self.heads] for name in ("w_q", "w_k", "w_v")])
        for i, head in enumerate(self.heads):
            head.w_q, head.w_k, head.w_v = self.qkv[:, i]


@dataclass
class ModelWeights:
    """Embedding plus per-layer head and feed-forward weights.

    head_slopes, one per head, applies to the additive family; None means
    the geometric slope set for the head count.  pe_family picks the score
    kernel.
    """

    w_e: np.ndarray  # (d, V)
    layers: list[LayerWeights]
    pe_family: str = "rotary"
    theta_base: float = 10000.0
    head_slopes: list[float] | None = None

    def __post_init__(self) -> None:
        if self.pe_family not in PE_FAMILIES:
            raise ValueError(f"unknown pe_family {self.pe_family}")
        if self.w_e.shape[1] < 2:
            raise ValueError("vocabulary must contain at least <bos> and one token")
        self.slopes()

    @property
    def d(self) -> int:
        return self.w_e.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.w_e.shape[1]

    @property
    def head_dim(self) -> int:
        """Query/key dimension h, shared by every head."""
        return self.layers[0].heads[0].w_q.shape[0]

    def slopes(self) -> list[float]:
        """Each head's additive slope: head_slopes, checked to hold one per
        head however it was set, or the geometric set for the head count."""
        heads = len(self.layers[0].heads)
        slopes = alibi_slopes(heads) if self.head_slopes is None else list(self.head_slopes)
        if len(slopes) != heads:
            raise ValueError(f"{len(slopes)} head slopes for {heads} heads")
        return slopes

    def slope_for_head(self, m: int) -> float:
        return self.slopes()[m]


def layer_norm_cols(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-12)


def token_ids(tokens, weights: ModelWeights) -> np.ndarray:
    """tokens as int64 ids; each must be in the vocabulary, or the first
    that is not is named in a ValueError."""
    ids = np.asarray(tokens, dtype=np.int64)
    bad = np.flatnonzero((ids < 0) | (ids >= weights.vocab_size))
    if bad.size:
        raise ValueError(f"unknown token id {ids[bad[0]]}")
    return ids


def embed(tokens, weights: ModelWeights) -> np.ndarray:
    """Initial hidden state: embedding columns of <bos> followed by the tokens."""
    return weights.w_e[:, token_ids([BOS_ID, *tokens], weights)].astype(np.float64)


@dataclass
class ForwardTrace:
    """Per-layer hidden states, attention-sublayer outputs, and head weights."""

    hidden: list[np.ndarray]                 # hidden[0] is the embedding; one per layer after
    attn: list[np.ndarray]                   # summed head outputs per layer (d x n)
    alphas: list[list[np.ndarray]] | None    # [layer][head] -> (n, n) softmaxed weights; None keeps none

    @property
    def final(self) -> np.ndarray:
        return self.hidden[-1]

    def logits(self, weights: ModelWeights) -> np.ndarray:
        """Logits of the last position."""
        return weights.w_e.T @ self.hidden[-1][:, -1]


#: query rows per attention tile; one head's _attend over REF's last chunk
#: (577 x 16,385 keys, rotary) took 43-47 ms at 32 to 64 rows and 54 ms at
#: 128 (2-CPU Xeon, Python 3.11, numpy 2.4, one BLAS thread)
TILE_ROWS = 64
#: key columns per block of one head's tile, and KEY_BLOCK / heads when a
#: call stacks heads, so a block never exceeds TILE_ROWS x KEY_BLOCK cells
#: (1 MiB); the same call took 47-52 ms at every width from 512 keys to all
#: 16,385, and its tracemalloc peak was 4.07 MiB up to 2,048 keys, 6.2 MiB
#: at 8,192 and 10.2 MiB unblocked
KEY_BLOCK = 2048
#: where each tile's running row max starts: finite, so a block whose cells a
#: row may not see (all -inf) shifts to -inf, not NaN
_LOWEST = np.finfo(np.float64).min
#: the largest score bound, |q_r| max_i |k_i|, under which a tile's softmax
#: runs unshifted.  Its exps then lie within e^+-350 ~ 1e+-152 (an additive
#: row's far keys aside, which only underflow), where exp itself stays finite
#: and normal to about +-708.  A row's total and value sums, at most n
#: e^350 max|v|, stay below DBL_MAX ~ 1.8e308 while n max|v| < 1e156, and a
#: row total, at least one visible key's e^-350, stays 150 decades above the
#: smallest normal float, 2.2e-308
_SAFE = 350.0
#: additive causal mask for a full tile's diagonal tail: -inf above the diagonal
_CAUSAL_TAIL = np.triu(np.full((TILE_ROWS, TILE_ROWS), -np.inf), 1)


class _Form:
    """A positional form, the one positional input of _attend; this base
    form is the dot family's: raw queries and keys, each score q . k.

    _attend prepares its queries once per call (queries), takes each key
    block once for every row tile (keys) and scores each tile's rows
    against it (scores), and asks nothing else, so a positional encoding is
    one more form, not a branch of the attention core.
    """

    #: whether |q_r| max_i |k_i| bounds every head's scores from above, as a
    #: tile's unshifted softmax needs (see _attend).  Cauchy-Schwarz bounds
    #: the dot and rotary scores (a rotation keeps norms)
    norm_bound = True
    #: whether the loop's one block holds every key: the form then scores
    #: its row over the spans themselves, which keys hands on
    one_block = False

    def queries(self, q: np.ndarray, first: int) -> np.ndarray:
        """The queries q ([heads x] h x m), keys first.. on, ready to score."""
        return q

    def keys(self, ks: tuple[np.ndarray, ...], pieces, c0: int):
        """The key block that pieces (_pieces) lays over the spans ks, its
        first key c0, taken once for every tile: a view when it lies inside
        one span, joined when it crosses spans."""
        parts = [ks[j][..., a:b] for j, a, b, _ in pieces]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)

    def scores(self, qr: np.ndarray, kb, lo: int, c0: int, e: int) -> np.ndarray:
        """Scores ([heads x] rows x (e - c0)) of the query rows qr ([heads x]
        rows x h), the first being key lo, against the keys c0..e-1 of the
        block kb that keys took."""
        return qr @ kb[..., : e - c0]


@dataclass(frozen=True)
class _Woven(_Form):
    """Rotary positional input of one query, key t: its keys 0..t at woven
    distances W(t - i).

    Key i scores (R(-w_i theta) q) . k_i, the rotation moved off the key onto
    the query, so no key is rotated.  The distances never increase with the
    key index, so equal ones form runs, and consecutive runs of one length
    form segments: for the staircase, a possibly shorter run furthest away,
    the runs of E keys, then one key per distance up to N.  W is a fixed
    function of the distance, so the runs are read, not found: they are the
    weave's kept runs (pe_core.weave_runs) up to distance t, in reverse, the
    furthest cut at t, and their turns the tail of the turns kept beside
    those runs, furthest first, built once per kept WeaveRuns (_woven).
    Every head's query is rotated once per run in one product: its
    dimension pairs, read as complex numbers, times each run's turns
    e^(-i w theta), which is apply_rotary's rotation.  Each segment is then scored by one batched
    product of each run's rotated query with an h x length view of that
    run's keys, so no key is copied either; a segment of one-key runs by
    one einsum over the dims instead, which reads the keys row by row, not
    one strided column per key, in about half the time (REF's 507 near
    keys, one layer).  The keys come as spans (the cache's pages), and no
    view crosses one, so the segments are cut at the spans' boundaries, a
    run that crosses one scored in two parts with its one turn; they are
    cut once per layout of spans, on the first layer's call, and kept for
    the others.  Its row is _attend's one block, as wide as all the keys,
    and keys hands on the spans themselves.
    """

    one_block = True
    turns: np.ndarray  # runs x h/2 complex, contiguous: e^(-i w theta) per run, the conjugate of its distance's _angles row
    segments: tuple  # (first run, end run, run length, first key) each, over the joined keys
    cut: dict = field(default_factory=dict, compare=False, repr=False)  # span lengths -> their layout

    def layout(self, lengths: tuple[int, ...]) -> tuple:
        """(first run, end run, run length, span, first key in the span,
        first key) of each part of the segments over spans of these
        lengths: whole runs of a segment that lie in one span, or the part
        of one run that does."""
        if lengths not in self.cut:
            parts, s0 = [], 0
            for j, n in enumerate(lengths):
                s1 = s0 + n
                for r0, r1, length, a in self.segments:
                    x, x1 = max(a, s0), min(a + (r1 - r0) * length, s1)
                    r = r0 + (x - a) // length  # the run that holds key x
                    while x < x1:
                        head = a + (r - r0) * length  # run r's first key
                        runs = 1 if x > head else max((x1 - x) // length, 1)
                        size = min(head + runs * length, x1) - x
                        parts.append((r, r + runs, length if size == runs * length else size, j, x - s0, x))
                        x, r = x + size, r + runs
                s0 = s1
            self.cut[lengths] = tuple(parts)
        return self.cut[lengths]

    def keys(self, ks: tuple[np.ndarray, ...], pieces, c0: int) -> tuple[np.ndarray, ...]:
        return ks

    def scores(self, qr: np.ndarray, ks: tuple[np.ndarray, ...], lo: int, c0: int, e: int) -> np.ndarray:
        """Scores ([heads x] 1 x n) of each head's query row qr ([heads x] 1
        x h) against its keys: the spans ks ([heads x] h x length each),
        joined."""
        pairs = np.ascontiguousarray(qr[..., 0, :]).view(np.complex128)
        # each head's query once per run, then times the runs' turns in place:
        # against a query broadcast over the runs, numpy multiplies h/2 numbers
        # per inner loop, about twice as slow (the operands keep their order,
        # on which the product's rounding depends)
        rows = np.repeat(pairs[..., None, :], len(self.turns), axis=-2)
        rows = np.multiply(rows, self.turns, out=rows).view(np.float64)[..., None, :]  # [heads x] runs x 1 x h
        lengths = tuple([k.shape[-1] for k in ks])
        s = np.empty(qr.shape[:-2] + (1, sum(lengths)))
        for r0, r1, length, j, a, c in self.layout(lengths):
            k, b = ks[j], a + (r1 - r0) * length
            if length == 1:  # one key per run: products summed over the dims, the keys read row by row
                part = np.einsum("...rj,...jr->...r", rows[..., r0:r1, 0, :], k[..., a:b])
            else:
                keys = np.swapaxes(k[..., a:b].reshape(k.shape[:-1] + (r1 - r0, length)), -3, -2)  # runs x h x length
                part = (rows[..., r0:r1, :, :] @ keys).reshape(s.shape[:-2] + (b - a,))
            s[..., 0, c : c + b - a] = part
        return s


@dataclass(frozen=True)
class _Rotation(_Form):
    """Rotary positional input of many queries: each key's rotation, by its
    offset from the last key's coordinate, from one table row per offset.

    A score depends on the difference of two coordinates alone, so
    rotating every key and query by its offset o = c_last - c, not by -c,
    scores the same pairs.  A chunk's offsets under a staircase, capped or
    identity weave are its woven distances from the anchor, whole numbers
    of at most train_len - 1, so they are rows of one kept table (_angles)
    however many keys there are.  A rotary_table over the keys, one column
    per key, is a _Rotation whose key i is row i.
    """

    cos: np.ndarray  # h/2 x rows: cos and sin of each row's rotation
    sin: np.ndarray
    row: np.ndarray  # each key's row

    def rotate(self, x: np.ndarray, a: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rotate the columns of x ([heads x] h x n), keys a..a+n-1, into
        out: a new array, or x itself to rotate it in place."""
        row = self.row[a : a + x.shape[-1]]
        return apply_rotary(x, (self.cos[:, row], self.sin[:, row]), out=out)

    def queries(self, q: np.ndarray, first: int) -> np.ndarray:
        return self.rotate(q, first, out=q)

    def keys(self, ks: tuple[np.ndarray, ...], pieces, c0: int) -> np.ndarray:
        """The block, rotated: a view into a new array, so the cached keys
        stay raw, and a joined block in place."""
        kb = super().keys(ks, pieces, c0)
        return self.rotate(kb, c0, out=None if len(pieces) == 1 else kb)


@dataclass(frozen=True)
class _Cells(_Form):
    """Rotary positional input scored per cell from each pair's distance:
    forward's under a distance weave or the grouped remap."""

    tile: Callable[[int, int, int, int], np.ndarray]  # (lo, hi, c0, c1): keys lo..hi-1 against keys c0..c1-1
    theta_base: float

    def scores(self, qr: np.ndarray, kb: np.ndarray, lo: int, c0: int, e: int) -> np.ndarray:
        dist = self.tile(lo, lo + qr.shape[-2], c0, e)
        return scores_rotary(qr, np.swapaxes(kb[..., : e - c0], -1, -2), dist, self.theta_base)


class _Penalty(_Form):
    """Additive positional input: each head's slope x each pair's distance,
    subtracted from its dot score.

    slope, one per head (heads x 1 x 1), broadcasts against the scores.
    Distances given as tiles (lo, hi, c0, c1), keys lo..hi-1 against keys
    c0..c1-1, are scaled tile by tile.  Distances given as a weave table
    (forward's) are scaled here, once, and a tile is a window onto the
    scaled table (toeplitz_tiles), so it holds one array; each slope * W(d)
    is the product slope * distance would have taken.  The penalty, with W
    >= 0, only lowers a score when the slope is >= 0, and a row's own key
    (W(0) = 0, which no AttentionMask hides) keeps its total above
    e^-_SAFE, so |q_r| max_i |k_i| bounds the scores when every slope is.
    """

    def __init__(self, slope: float | np.ndarray, dist: Callable | None = None, table: np.ndarray | None = None):
        self.norm_bound = bool(np.all(np.asarray(slope) >= 0))
        if table is None:
            self.tile = lambda lo, hi, c0, c1: slope * dist(lo, hi, c0, c1)
        else:
            self.tile = toeplitz_tiles((slope * table).reshape(np.shape(slope)[:-2] + table.shape))

    def scores(self, qr: np.ndarray, kb: np.ndarray, lo: int, c0: int, e: int) -> np.ndarray:
        s = qr @ kb[..., : e - c0]
        s -= self.tile(lo, lo + qr.shape[-2], c0, e)
        return s


def _positions(
    weights: ModelWeights, coords: np.ndarray | int | None, m: int, weave: WeaveParams | None = None
) -> _Form:
    """The positional form of _attend for m queries over keys at coords; the
    one place that picks a form.

    Built once per chunk, forward or decode step and shared by every layer
    and head; the queries are the last m keys, so they take the tail of
    coords.  forward passes no coords: its m keys sit at 0..m-1, and each
    pair's distance is its weave's (the raw t - i without one).  The dot
    family gets the base _Form.  The additive family gets a _Penalty with
    each head's slope: forward's over that weave's one weave_table, scaled
    once per forward, and the pipeline's chunks over coordinate
    differences, since the last chunk's anchored coordinates are not
    evenly spaced.  The rotary family gets a _Rotation: each key's offset
    coords[-1] - coords, a row of _angles' table, which in the pipeline
    are its woven distances from the anchor; forward, whose keys are one
    span, gets _Cells instead under a distance weave, whose tiles are
    windows onto its one weave_table (toeplitz_tiles).  The grouped remap,
    which is not a function of t - i, gives either family woven_distances
    per tile.

    One query (m = 1: a decode step, or a one-token chunk) passes its own
    key index t as coords, and weave: its keys 0..t sit at the woven
    distances W(t - i) (raw without a weave), read from the weave's runs
    kept across calls (pe_core.weave_runs), so nothing over the keys is
    searched or gathered.  The rotary family gets a _Woven, which rotates
    the query by each run's distance (_woven); the additive family gets a
    _Penalty whose one row, block by block, is the runs' window over the
    block's distances, reversed.
    """
    fam, base = weights.pe_family, weights.theta_base
    if fam == "dot":
        return _Form()
    if fam == "additive":
        slope = np.array(weights.slopes())[:, None, None]
    if isinstance(coords, int):
        t = coords
        runs = weave_runs(weave, t)
        if fam == "rotary":
            return _woven(runs, t, weights.head_dim, base)
        return _Penalty(slope, lambda lo, hi, c0, c1: runs.window(t + 1 - c1, t + 1 - c0)[None, ::-1])
    if coords is None:
        if weave is not None and weave.scheme is Scheme.SELF_EXTEND:
            def dist(lo, hi, c0, c1):
                return woven_distances(weave, np.arange(lo, hi), np.arange(c0, c1))

            return _Penalty(slope, dist) if fam == "additive" else _Cells(dist, base)
        if fam == "additive":
            return _Penalty(slope, table=weave_table(weave, m))
        if weave is not None and weave.scheme not in IDENTITY_SCHEMES:
            return _Cells(toeplitz_tiles(weave_table(weave, m)), base)
        coords = np.arange(m, dtype=np.float64)
    if fam == "additive":
        return _Penalty(slope, lambda lo, hi, c0, c1: coords[lo:hi, None] - coords[None, c0:c1])
    return _Rotation(*_angles(coords[-1] - coords, weights.head_dim, base))


def _woven(runs: WeaveRuns, t: int, head_dim: int, theta_base: float) -> _Woven:
    """The _Woven of the query at key t over keys 0..t, read from the kept
    runs: runs 0..J-1 reach distance t, the last cut there, and in key
    order they run J-1 down to 0, so their turns are the last J of the
    runs' turns kept furthest first, a contiguous view, which the first
    call over those runs builds and keeps beside them.  The segments are
    the kept ones below run J-1, then that run, joined to the last of them
    when as long as its runs; only those few tuples are built per call."""
    turns = runs.turns.get((head_dim, theta_base))
    if turns is None:  # each run's e^(-i W theta), the conjugate of its distance's _angles row
        cos, sin, row = _angles(runs.values, head_dim, theta_base)
        turns = np.empty((row.size, cos.shape[0]), dtype=np.complex128)
        turns.real, turns.imag = cos[:, row[::-1]].T, -sin[:, row[::-1]].T  # furthest run first
        turns.flags.writeable = False
        runs.turns[head_dim, theta_base] = turns
    last = runs.run(t)
    cut = t + 1 - int(runs.starts[last])  # the distances of run `last` within t
    parts = [[j0, min(j1, last), length] for j0, j1, length in runs.segments if j0 < last]
    if parts and parts[-1][2] == cut:
        parts[-1][1] = last + 1
    else:
        parts.append([last, last + 1, cut])
    # distance run j is key-order run last - j, and a part's first key is
    # the furthest of its furthest run, j1 - 1
    segments = tuple(
        (last + 1 - j1, last + 1 - j0, length, t + 1 - min(int(runs.starts[j1]), t + 1))
        for j0, j1, length in reversed(parts)
    )
    return _Woven(turns[len(turns) - 1 - last :], segments)


def _angles(offsets: np.ndarray, head_dim: int, theta_base: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos and sin (h/2 x rows each) of a rotary table holding every
    rotation by one of offsets, and each offset's row in it.

    Whole offsets >= 0 (the staircase, capped and identity weaves, and
    forward) read the kept table over 0..2^k - 1, a power of two past the
    largest, so every chunk, step and forward whose offsets share k share
    one table and its trigonometry runs once.  The pipeline keeps every
    offset below the trained window, so none of its tables outgrows twice
    that.  Any other offsets (the leaky weave's) get a table over their
    distinct values.
    """
    if offsets.min() >= 0 and np.array_equal(offsets, np.floor(offsets)):
        return *_table(1 << int(offsets.max()).bit_length(), head_dim, theta_base), offsets.astype(np.intp)
    distinct, row = np.unique(offsets, return_inverse=True)
    return *rotary_table(-distinct, head_dim, theta_base), row


@functools.lru_cache(maxsize=4)
def _table(n: int, head_dim: int, theta_base: float) -> tuple[np.ndarray, np.ndarray]:
    """rotary_table over the offsets 0..n-1 (rotations by +o), read-only and kept."""
    table = rotary_table(-np.arange(n, dtype=np.float64), head_dim, theta_base)
    for t in table:
        t.flags.writeable = False
    return table


def _pieces(starts: list[int], c0: int, c1: int) -> list[tuple[int, int, int, int]]:
    """(span, first key, end key, first column) of each span's share of the
    joined keys c0..c1-1, keys counted within the span and columns from c0;
    starts holds each span's first joined key, then their total."""
    pieces, j, x = [], bisect.bisect_right(starts, c0) - 1, c0
    while x < c1:
        end = min(c1, starts[j + 1])
        pieces.append((j, x - starts[j], end - starts[j], x - c0))
        x, j = end, j + 1
    return pieces


def _values(s: np.ndarray, vts: list[np.ndarray], pieces) -> np.ndarray:
    """s @ a block of values that pieces lays over the spans vts (each
    [heads x] length x h), cut at s's width, so a tile that sees part of a
    block reads that block's pieces: one product per piece it reaches,
    summed in span order."""
    w, pv = s.shape[-1], None
    for j, a, b, x in pieces:
        if x >= w:
            break
        part = s[..., x : x + b - a] @ vts[j][..., a : a + min(b - a, w - x), :]
        if pv is None:
            pv = part
        else:
            pv += part
    return pv


def _attend(
    q: np.ndarray,
    ks: tuple[np.ndarray, ...],
    vs: tuple[np.ndarray, ...],
    ctx_len: int,
    pos: _Form,
    mask: AttentionMask | None = None,
    alpha: np.ndarray | None = None,
) -> np.ndarray:
    """Causal attention of the m columns of q over ctx_len context keys, then
    the m queries' own keys, scored by the positional form pos.  The keys
    and values come as spans: ks and vs are tuples of h x length arrays,
    views of the cache's pages, that joined hold the keys in order, and
    nothing joins them here.  The queries are keys ctx_len..ctx_len+m-1;
    any keys past the last one (a row group's, which is given all its
    chunk's keys) no query sees, and they only set the block width and the
    score bound, so both are the whole chunk's.

    Any leading axes are heads: q (heads x h x m) and every span (heads x h
    x length) attend head by head in the same passes; one head's arrays may
    also come without the axis.  Query row r sees keys [0, ctx_len + r] of
    the joined index.  Rows run in tiles of TILE_ROWS, and a tile ending at
    row r1 sees keys [0, ctx_len + r1).  The keys up to the last query's
    are walked once, outermost, in blocks of min(KEY_BLOCK, n) / heads
    columns, n all the keys given, so a stacked block holds at most the
    cells of one head's block over them, or in one block of them all when
    pos.one_block.  pos takes each block once (keys) and scores it against
    every row tile that sees any of it (scores), a tile's last block cut at
    its own end, after preparing the queries once (queries).  Each tile
    keeps its running row max, row sums and value accumulators (s @ v^T,
    one product per span piece, so no value is copied) from block to
    block, as in FlashAttention, and the accumulators, normalised after the
    last block, fill the result.  Per tile, the blocks run in key order, so
    a tile's arithmetic is the one it would do alone.

    A tile runs unshifted when none of its scores can leave +-_SAFE: when
    the form's scores are bounded by |q_r| max_i |k_i| (pos.norm_bound),
    the squared norms of the raw queries and of all the keys given give
    every tile's bound at once, with one reduction over the tiles, and a
    tile runs unshifted when every head's bound fits.  Such a tile's blocks
    are exponentiated as they are: four passes each (scores, exp, sum,
    values).  Any other tile shifts each head's block by its own running
    row max, which takes two more passes (the max and the shift), and
    rescales the sums by exp(old max - new max) when a block raises the
    max; the max starts at the lowest finite float, not -inf, so a row that
    sees no key of a block adds zeros, not NaN.  A call with one query
    (every decode step) always shifts: its bound would add a third read of
    the cached keys to a step close to memory bound, to save one max over
    one row.  A tile of one block is plain softmax arithmetic.

    pos is _positions over the keys, and the queries, keys ctx_len on,
    take its rows from there.  forward passes its mask, which sets -inf on
    each block's cells outside it, and alpha, zeros of the weights' shape
    ([heads x] m x n) into which each block writes its weights, rescaled
    and normalised after the last block.  Returns [heads x] h x m values.
    """
    # each span's first key in the joined index, then their total
    starts = [0, *np.cumsum([k.shape[-1] for k in ks]).tolist()]
    vts = [np.swapaxes(v, -1, -2) for v in vs]
    m = q.shape[-1]
    tiles = range(0, m, TILE_ROWS)
    # per tile, whether no head's scores can pass +-_SAFE, so the tile runs unshifted
    free = [False] * len(tiles)
    if m > 1 and pos.norm_bound:
        kk = np.max([np.einsum("...ij,...ij->...j", k, k).max(axis=-1, initial=0.0) for k in ks], axis=0)
        qq = np.einsum("...ij,...ij->...j", q, q).reshape(-1, m)
        fits = np.maximum.reduceat(qq, tiles, axis=-1) * kk.reshape(-1, 1) <= _SAFE * _SAFE  # heads x tiles
        del qq  # no norm array stays alive beside the blocks
        free = fits.all(axis=0).tolist()
    qt = np.swapaxes(pos.queries(q, ctx_len), -1, -2)
    top = [_LOWEST] * len(tiles)  # each tile's running row max
    total = [None] * len(tiles)  # each tile's row sums
    acc = [None] * len(tiles)  # each tile's value sums, s @ v^T
    shifts = [[] for _ in tiles]  # per tile, (first key, end key, max subtracted) of each block in alpha
    # stacked heads share the cells of one head's block over all the keys, so
    # the edges depend on the keys alone, not on the rows a call takes
    width = starts[-1] if pos.one_block else max(min(KEY_BLOCK, starts[-1]) // math.prod(q.shape[:-2]), 1)
    end = ctx_len + m  # no query sees a key past its own
    for c0 in range(0, end, width):
        c1 = min(c0 + width, end)
        pieces = _pieces(starts, c0, c1)  # the block's share of each span, once for every tile
        kb = pos.keys(ks, pieces, c0)
        # the tiles that see the block: those whose rows reach past key c0
        for i in range(max(c0 - ctx_len, 0) // TILE_ROWS, len(tiles)):
            r0 = tiles[i]
            r1 = min(r0 + TILE_ROWS, m)
            lo, nk = ctx_len + r0, ctx_len + r1  # the tile's first query is key lo; its rows see keys [0, nk)
            e = min(c1, nk)  # the block's keys c0..e-1 that the tile sees
            s = pos.scores(qt[..., r0:r1, :], kb, lo, c0, e)
            if e > lo:  # the block holds part of the diagonal tail
                s[..., max(c0, lo) - c0 :] += _CAUSAL_TAIL[: r1 - r0, max(c0, lo) - lo : e - lo]
            if mask is not None:
                s[..., ~mask.tile(lo, nk, c0, e)] = -np.inf
            if not free[i]:  # shift by the running row max, and rescale the sums to it
                new = s.max(axis=-1, keepdims=True)
                if c0 or mask is not None:  # every row sees key 0 of the first block, unless a mask hides it
                    np.maximum(new, top[i], out=new)
                s -= new
                if c0:
                    rescale = np.exp(top[i] - new)
                    total[i] *= rescale
                    acc[i] *= rescale
                top[i] = new
            np.exp(s, out=s)
            pv = _values(s, vts, pieces)
            if c0 == 0:
                total[i], acc[i] = s.sum(axis=-1, keepdims=True), pv
            else:
                total[i] += s.sum(axis=-1, keepdims=True)
                acc[i] += pv
            if alpha is not None:
                alpha[..., r0:r1, c0:e] = s
                shifts[i].append((c0, e, top[i]))
            del s, pv  # free this block's scores before the next are made: one alive, not two
    out = np.empty(vs[0].shape[:-1] + (m,))
    for i, r0 in enumerate(tiles):
        r1 = min(r0 + TILE_ROWS, m)
        out[..., r0:r1] = np.swapaxes(acc[i] / total[i], -1, -2)
        acc[i] = None  # each tile's sums are freed once copied into the result
        for c0, c1, shift in shifts[i]:
            kept = alpha[..., r0:r1, c0:c1]
            kept *= np.exp(shift - top[i])  # exactly 1 in an unshifted tile, whose top stays _LOWEST
            kept /= total[i]
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: name prefix of the pool's threads
_POOL_THREADS = "weavepe-pool"


@functools.cache
def _pool(workers: int):
    """The threads that run a call's row groups or a prefill's middle chunks, made on first use."""
    from concurrent.futures import ThreadPoolExecutor  # imported here: one-head models never pay for it

    return ThreadPoolExecutor(workers, thread_name_prefix=_POOL_THREADS)


def _on_pool() -> bool:
    """Whether the calling thread is one of the pool's."""
    return threading.current_thread().name.startswith(_POOL_THREADS)


def _pool_map(fn: Callable, items) -> Iterator:
    """fn of each item, yielded in order: on the pool of usable-CPU threads
    when there are two or more of each, else on the calling thread, and
    always there when that is a pool thread: a task waiting on tasks queued
    behind it on the same workers would wait for ever."""
    workers = 1 if len(items) < 2 or _on_pool() else _usable_cpus()
    if workers < 2:
        return map(fn, items)
    return _pool(workers).map(fn, items)


def _row_groups(rows: int, ctx_len: int, groups: int) -> list[slice]:
    """At most groups runs of whole TILE_ROWS tiles over rows query rows, the
    first of which sees ctx_len + 1 keys, balanced by the keys the rows see,
    as FlashAttention-2 balances its row blocks.  Row r sees ctx_len + r + 1
    keys, so rows 0..r-1 see r (ctx_len + 1) + r (r - 1) / 2, and each cut
    is the tile edge whose count lies nearest a multiple of total / groups;
    one group is all the rows.  A last tile of one row joins the group
    before it: _attend always shifts a call of one query, so that row would
    shift where the whole call leaves it unshifted."""

    def seen(r: int) -> float:  # keys seen by rows 0..r-1
        return r * (ctx_len + 1) + r * (r - 1) / 2

    edges = range(TILE_ROWS, rows - 1, TILE_ROWS)  # no cut at rows - 1
    targets = [k * seen(rows) / groups for k in range(1, groups)] if edges else []
    bounds = [0, *sorted({min(edges, key=lambda e: abs(seen(e) - t)) for t in targets}), rows]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _run_layers(
    h: np.ndarray,
    weights: ModelWeights,
    cache: KVCache,
    lo: int,
    ctx_len: int,
    pos,
    mask: AttentionMask | None = None,
    trace: ForwardTrace | None = None,
    read: int | None = None,
) -> np.ndarray:
    """Run the columns of h, tokens lo..lo+m-1, through every layer; writes
    their raw K/V into cache slots lo..lo+m-1, which the caller commits
    (KVCache.append).

    Each layer first projects every head's new keys and values at once,
    over its stacked weights (LayerWeights.qkv), and writes them into those
    slots.  The queries see the first
    ctx_len cached keys, then their own keys causally, as the spans that
    KVCache.write returns: slots 0..lo+m-1 when ctx_len is lo (the first
    and last chunk, a decode step, forward), else (a middle chunk) slots
    0..ctx_len-1 and the chunk's own, never joined; a range that crosses a
    page is one span per page.  pos is the _positions of exactly those keys,
    in that order.  Every head's queries are projected, attended in one
    stacked _attend call and summed in head order, then the residual and
    the feed-forward run; none of the heads' outputs outlives its layer.
    forward passes its
    mask, applied per tile, and a trace that receives each layer's input and
    attention output, and its head weights if its alphas is a list (None
    asks for none).  Returns the final hidden state: all m columns, or the
    last read of them when read (0..m) is given.

    Only the last layer's keys and values feed a later chunk or step, and
    only its read columns feed the caller, so with read given the last
    layer still projects and writes every column's keys and values but
    attends, projects queries, sums heads and runs the feed-forward only
    from row r0 = (m - read) // TILE_ROWS * TILE_ROWS on, the start of the
    tile that holds the first read column, and for read 0 not at all.
    Those rows attend as queries after ctx_len + r0 context keys, so they
    score exactly the tiles, keys and positions a full pass scores.

    A call with several queries and heads that is not on a pool thread
    (forward, the single pass, the first and last chunk) splits each
    layer's rows into min(usable CPUs, heads) groups of whole row tiles
    (_row_groups), balanced by the keys their rows see, and each pool thread
    runs its group through the whole layer, writing its columns of the
    layer's result.  The cache writes happen on the thread that called
    this, before the groups start.  Every group attends over the same
    keys, so its tiles, key blocks and score bounds are the ones the whole
    call would have, and the split changes no bit.  One query (every
    decode step), a one-head model, a one-CPU host and a call on a pool
    thread (a middle chunk) have one group, and run each layer as one call
    on their own thread.
    """
    m = h.shape[1]
    n_heads = len(weights.layers[0].heads)
    workers = 1 if m == 1 or _on_pool() else min(_usable_cpus(), n_heads)
    keep_alphas = trace is not None and trace.alphas is not None
    r0 = 0
    for li, layer in enumerate(weights.layers):
        ks, vs = cache.write(li, lo, *(layer.qkv[1:] @ h), ctx_len)
        if read is not None and li == len(weights.layers) - 1:
            r0 = m if read == 0 else (m - read) // TILE_ROWS * TILE_ROWS
            h = h[:, r0:]
            if r0 == m:
                break
        rows = h.shape[1]
        groups = _row_groups(rows, ctx_len + r0, workers)
        alphas = np.zeros((n_heads, rows, ctx_len + m)) if keep_alphas else None
        attn = out = None
        if len(groups) > 1:
            # each group writes its columns of the head sum (if traced) and of
            # the layer's result into these, in C order as one call's products
            # come: a product over the other order rounds differently.  A group
            # reads only its own columns of h, so past the first layer, h being
            # this call's own and untraced, the result overwrites it
            attn = np.empty(h.shape) if trace is not None else None
            out = h if li > 0 and trace is None else np.empty(h.shape)

        def run(g: slice) -> tuple[np.ndarray | None, np.ndarray]:
            """Rows g of h through the layer; returns their head sum if traced,
            and their result (a view of out when out is given)."""
            x = h[:, g]
            heads_out = _attend(
                layer.qkv[0] @ x, ks, vs, ctx_len + r0 + g.start, pos, mask,
                None if alphas is None else alphas[:, g],
            )
            # the sum starts as the first head's projection, no zeros beside
            # the heads, and adds the others in head order
            a = layer.heads[0].w_o @ heads_out[0]
            for mi in range(1, n_heads):
                a += layer.heads[mi].w_o @ heads_out[mi]
            del heads_out  # summed into a: nothing of it stays alive into the feed-forward
            if attn is not None:
                attn[:, g] = a
            # each sum goes into an array of this layer's own (a, unless the
            # trace keeps it, then the feed-forward's output), never into the
            # caller's h
            z = a + x if trace is not None else np.add(a, x, out=a)
            y = layer.ff(layer_norm_cols(z) if layer.layer_norm == "standard" else z)
            return (a if trace is not None else None), np.add(y, z, out=y if out is None else out[:, g])

        if out is None:
            a, h_next = run(groups[0])
        else:
            for _ in _pool_map(run, groups):
                pass
            a, h_next = attn, out
        if trace is not None:
            trace.hidden.append(h)
            trace.attn.append(a)
            if keep_alphas:
                trace.alphas.append(list(alphas))
        h = h_next
        del a, h_next
    return h if read is None else h[:, h.shape[1] - read :]


def forward(
    tokens,
    weights: ModelWeights,
    weave: WeaveParams | None = None,
    mask: AttentionMask | None = None,
) -> ForwardTrace:
    """Full forward pass, every layer's states kept; deterministic in all arguments.

    The whole input runs through _run_layers as one chunk with no context
    at the positions 0..n-1, so forward and every prefill chunk share one
    attention kernel.  Without a weave or under a distance weave, a pair's
    distance depends on t - i alone, so the additive family, and any family
    under a distance weave, reads each tile's distances as a window onto
    one reversed weave table built once per call; the grouped remap, a
    function of the pair, is rebuilt per tile (_positions).  A mask
    sets -inf on each tile's cells outside it; no n x n distance or mask
    matrix is built.
    """
    return _forward(tokens, weights, weave, mask, alphas=[])


def _forward(
    tokens, weights: ModelWeights, weave: WeaveParams | None, mask: AttentionMask | None, alphas: list | None
) -> ForwardTrace:
    """forward, keeping each layer's head weights in alphas, or none when alphas is None."""
    if len(tokens) == 0:
        raise ValueError("empty input")
    h = embed(tokens, weights)
    n = h.shape[1]
    if mask is not None and mask.n != n:
        raise ValueError(f"mask length {mask.n} does not match sequence length {n}")
    trace = ForwardTrace(hidden=[], attn=[], alphas=alphas)
    cache = KVCache(len(weights.layers), len(weights.layers[0].heads), capacity=n)
    h = _run_layers(h, weights, cache, 0, 0, _positions(weights, None, n, weave), mask, trace)
    trace.hidden.append(h)
    return trace


class KVCache:
    """Append-only store of raw (pre-positional) keys and values per layer/head.

    Layout: per layer, a list of pages each for K and V, a page one (heads,
    h, size) array; slot i holds token i, page after page, so the first
    len(cache) slots are the appended tokens in order and a span of
    positions is a span of slots.  Every layer has the same pages.  write
    returns spans of slots as views of the pages, never copies.

    A step writes each head's new keys and values into its own tokens'
    slots (write), attends over them in place, and append then commits
    them, in token order; prefill's middle chunks write theirs past slots
    other chunks are still writing.  The first page holds the constructor's
    capacity (prefill passes the prompt length, generate the prompt plus
    the tokens it decodes).  A write at len(cache) that runs past the
    capacity adds a page to every layer as it writes: TILE_ROWS slots for
    the first page past the first, twice as many for each page after, but
    never more than an eighth of the slots before it, nor fewer than the
    slots missing.  So a few decode steps past a prompt-sized cache add
    TILE_ROWS slots, not an eighth of the prompt, while a long decode adds
    pages of a fixed share of the cache, whose count grows with the log of
    its length.  Growth allocates that page alone and never copies a
    filled slot, so the arrays a step has read stay where they are.
    """

    def __init__(self, n_layers: int, n_heads: int, capacity: int = 0):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self._k: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
        self._v: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
        self._bounds = [0, capacity] if capacity else [0]  # first slot of each page, then the capacity
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def capacity(self) -> int:
        return self._bounds[-1]

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self._len)

    def write(
        self, layer: int, lo: int, k: np.ndarray, v: np.ndarray, ctx_len: int | None = None
    ) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Store one layer's keys and values (heads x h x m) in slots
        lo..lo+m-1; append then commits them.  Returns the layer's keys and
        values over slots 0..ctx_len-1 then lo..lo+m-1 (ctx_len defaults to
        lo: slots 0..lo+m-1) as spans: tuples of heads x h x length views of
        the pages, one per page each range lies in, which _attend reads as
        one joined index.  Only a write at len(self) may grow the storage,
        by one page; a write past it must fit the pages this layer already
        has, for other threads may be writing the slots between."""
        bounds, ks, vs = self._bounds, self._k[layer], self._v[layer]
        end = lo + k.shape[-1]
        if end > bounds[len(ks)]:  # past this layer's pages
            if lo > self._len:
                raise ValueError(f"slots {lo}..{end - 1} lie past the filled {self._len} and the storage")
            if end > bounds[-1]:  # pages of TILE_ROWS, 2 TILE_ROWS, ... slots past the first, up to 1/8 of the storage
                grow = min(TILE_ROWS << max(len(bounds) - 2, 0), bounds[-1] // 8)
                bounds.append(bounds[-1] + max(end - bounds[-1], grow))
            while bounds[len(ks)] < end:
                size = bounds[len(ks) + 1] - bounds[len(ks)]
                ks.append(np.empty((self.n_heads, k.shape[-2], size)))
                vs.append(np.empty((self.n_heads, k.shape[-2], size)))
        for p, a, b, x in _pieces(bounds, lo, end):
            ks[p][:, :, a:b] = k[..., x : x + b - a]
            vs[p][:, :, a:b] = v[..., x : x + b - a]
        ranges = [(0, end)] if ctx_len is None or ctx_len == lo else [(0, ctx_len), (lo, end)]
        spans = [(p, a, b) for r in ranges for p, a, b, _ in _pieces(bounds, *r)]
        return tuple(ks[p][:, :, a:b] for p, a, b in spans), tuple(vs[p][:, :, a:b] for p, a, b in spans)

    def append(self, m: int) -> None:
        """Commit the m slots past len(self); every layer's keys and values
        must already be in them (write)."""
        n = self._len + m
        if any(self._bounds[len(pages)] < n for pages in self._k):
            raise ValueError("no keys and values were written for the appended slots")
        self._len = n

    def view(self, layer: int, head: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values (h x n) for one layer/head: slices of the storage
        while the filled slots lie in one page; across pages, the pages'
        slices joined into a new array, for reading (attention reads the
        spans write returns)."""
        spans = _pieces(self._bounds, 0, self._len)
        if not spans:
            return np.zeros((0, 0)), np.zeros((0, 0))
        return tuple(
            np.concatenate([pages[p][head, :, a:b] for p, a, b, _ in spans], axis=-1)
            if len(spans) > 1
            else pages[0][head, :, : self._len]
            for pages in (self._k[layer], self._v[layer])
        )


def random_model(
    d: int = 8,
    n_heads: int = 2,
    n_layers: int = 2,
    vocab: int = 16,
    seed: int = 0,
    pe_family: str = "rotary",
) -> ModelWeights:
    """Small random-weight model for pipeline and benchmark runs; each
    feed-forward is 2d wide."""
    if min(d, n_heads, n_layers) < 1:
        raise ValueError(f"d, n_heads and n_layers must be >= 1, got {d}, {n_heads}, {n_layers}")
    if d % n_heads != 0:
        raise ValueError("d must be divisible by n_heads")
    h = d // n_heads
    if pe_family == "rotary" and h % 2 != 0:
        raise ValueError("per-head dimension must be even for the rotary family")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d)

    def mat(r, c):
        return rng.normal(0.0, scale, size=(r, c))

    layers = []
    for _ in range(n_layers):
        heads = [HeadWeights(w_q=mat(h, d), w_k=mat(h, d), w_v=mat(h, d), w_o=mat(d, h)) for _ in range(n_heads)]
        ff = DenseFF(w1=mat(d, 2 * d), w2=mat(d, 2 * d))
        layers.append(LayerWeights(heads=heads, ff=ff))
    return ModelWeights(w_e=mat(d, vocab), layers=layers, pe_family=pe_family)


def save_weights(weights: ModelWeights) -> str:
    """Structured-text (JSON) serialization; nested arrays are row-major."""

    def arr(a: np.ndarray):
        return [[float(v) for v in row] for row in a]

    layers = []
    for layer in weights.layers:
        ff = layer.ff
        if isinstance(ff, DenseFF):
            ff_doc = {"kind": "dense", "w1": arr(ff.w1), "w2": arr(ff.w2), "activation": ff.activation}
        elif hasattr(ff, "describe"):
            ff_doc = ff.describe()
        else:
            raise ValueError("feed-forward stand-in is not serializable")
        layers.append(
            {
                "heads": [
                    {"w_q": arr(hd.w_q), "w_k": arr(hd.w_k), "w_v": arr(hd.w_v), "w_o": arr(hd.w_o)}
                    for hd in layer.heads
                ],
                "ff": ff_doc,
                "layer_norm": layer.layer_norm,
            }
        )
    doc = {
        "w_e": arr(weights.w_e),
        "layers": layers,
        "pe_family": weights.pe_family,
        "theta_base": weights.theta_base,
        "head_slopes": weights.head_slopes,
    }
    return json.dumps(doc, sort_keys=True) + "\n"


def load_weights(text: str) -> ModelWeights:
    doc = json.loads(text)
    layers = []
    for lw in doc["layers"]:
        heads = [
            HeadWeights(*(np.asarray(hd[name], dtype=np.float64) for name in ("w_q", "w_k", "w_v", "w_o")))
            for hd in lw["heads"]
        ]
        ff_doc = lw["ff"]
        if ff_doc["kind"] == "dense":
            ff = DenseFF(
                w1=np.asarray(ff_doc["w1"], dtype=np.float64),
                w2=np.asarray(ff_doc["w2"], dtype=np.float64),
                activation=ff_doc.get("activation", "relu"),
            )
        elif ff_doc["kind"] == "position_recovery":
            from weavepe.theory import recovery_ff_from_doc

            ff = recovery_ff_from_doc(ff_doc)
        else:
            raise ValueError(f"unknown ff kind {ff_doc['kind']}")
        layers.append(LayerWeights(heads=heads, ff=ff, layer_norm=lw.get("layer_norm", "identity")))
    return ModelWeights(
        w_e=np.asarray(doc["w_e"], dtype=np.float64),
        layers=layers,
        pe_family=doc["pe_family"],
        theta_base=doc["theta_base"],
        head_slopes=doc["head_slopes"],
    )


class WhitespaceVocab:
    """Toy tokenizer: whitespace word splitting over a fixed word list."""

    def __init__(self, words: list[str]):
        self.words = ["<bos>"] + sorted(set(words))
        self.ids = {w: i for i, w in enumerate(self.words)}

    @classmethod
    def from_text(cls, text: str) -> "WhitespaceVocab":
        return cls(text.split())

    def __len__(self) -> int:
        return len(self.words)

    def encode(self, text: str) -> list[int]:
        try:
            return [self.ids[w] for w in text.split()]
        except KeyError as exc:
            raise ValueError(f"unknown word {exc.args[0]!r}") from None

    def decode(self, ids) -> str:
        return " ".join(self.words[i] for i in ids)
