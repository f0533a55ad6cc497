"""Minimal decoder-only transformer with pluggable positional score kernels,
and the one attention core that every path runs.

Double precision throughout; the threshold constructions depend on it.  The
multi-head sub-layer uses the additive view (head outputs summed), which is
equivalent to concatenate-then-project for block-structured output weights.
Keys and values are cached before any rotation, token i in slot i, so the
same cached key can be assigned different woven positions later.

forward, each prefill chunk and each decode step run the same layers
(_run_layers) and the same attention (_attend); _positions alone turns their
keys' coordinates (and forward's weave) into the positional input.  Rows
run in tiles of TILE_ROWS queries; a tile scores only the keys its rows may
see, adds the causal -inf on its diagonal tail alone (and, under forward's
mask, -inf on its cells outside it), runs the softmax in place and defers
its normalisation past the value product, as in FlashAttention (Dao et al.,
arXiv 2205.14135).  No score, distance or mask matrix larger than one tile
is held; only forward keeps each head's normalised n x n weights.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from weavepe.masks import AttentionMask
from weavepe.pe_core import (
    IDENTITY_SCHEMES,
    WeaveParams,
    alibi_slopes,
    apply_rotary,
    position_matrix,  # noqa: F401  kept importable here: perfbench/layertrace.py wraps this name
    rotary_table,
    scores_additive,
    scores_rotary,
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
    activation: str = "relu"

    def __call__(self, z: np.ndarray) -> np.ndarray:
        pre = self.w1.T @ z
        if self.activation == "relu":
            act = np.maximum(pre, 0.0)
        elif self.activation == "identity":
            act = pre
        else:
            raise ValueError(f"unknown activation {self.activation}")
        return self.w2 @ act


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
    heads: list[HeadWeights]
    ff: FeedForward
    layer_norm: str = "identity"  # "identity" | "standard"


@dataclass
class ModelWeights:
    """Embedding plus per-layer head and feed-forward weights.

    head_slopes applies to the additive families; None means the geometric
    slope set for the head count.  pe_family picks the score kernel.
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

    def slope_for_head(self, m: int) -> float:
        if self.head_slopes is not None:
            return self.head_slopes[m]
        return alibi_slopes(len(self.layers[0].heads))[m]


def layer_norm_cols(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-12)


def embed(tokens, weights: ModelWeights) -> np.ndarray:
    """Initial hidden state: embedding columns of <bos> followed by the tokens."""
    ids = [BOS_ID] + [int(t) for t in tokens]
    for t in ids:
        if not (0 <= t < weights.vocab_size):
            raise ValueError(f"unknown token id {t}")
    return weights.w_e[:, ids].astype(np.float64)


@dataclass
class ForwardTrace:
    """Per-layer hidden states, attention-sublayer outputs, and head weights."""

    hidden: list[np.ndarray]          # hidden[0] is the embedding; one per layer after
    attn: list[np.ndarray]            # summed head outputs per layer (d x n)
    alphas: list[list[np.ndarray]]    # [layer][head] -> (n, n) softmaxed weights

    @property
    def final(self) -> np.ndarray:
        return self.hidden[-1]

    def logits(self, weights: ModelWeights) -> np.ndarray:
        """Logits of the last position."""
        return weights.w_e.T @ self.hidden[-1][:, -1]


#: query rows per attention tile; REF's last-chunk attention (577 x 16,385) is
#: fastest from 48 to 64 rows, and about 35 % slower at 32 or 128
TILE_ROWS = 64
#: additive causal mask for a full tile's diagonal tail: -inf above the diagonal
_CAUSAL_TAIL = np.triu(np.full((TILE_ROWS, TILE_ROWS), -np.inf), 1)


@dataclass(frozen=True)
class _Woven:
    """Rotary positional input of one query: its keys at woven distances.

    Key i scores (R(-w_i theta) q) . k_i, the rotation moved off the key onto
    the query, so no key is rotated.  The distances never increase with the
    key index, so equal ones form runs, and consecutive runs of one length
    form segments: for the staircase, a possibly shorter run furthest away,
    the runs of E keys, then one key per distance up to N.  The query is
    rotated once per run (table) and each segment is scored through an
    (h, runs, length) view of its keys, so no key is copied either.
    """

    table: tuple     # rotary_table over one distance per run
    segments: tuple  # (first run, end run, run length, first key) each

    def scores(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """1 x n scores of the query q (h x 1) against the keys k (h x n)."""
        qw = apply_rotary(np.broadcast_to(q, (q.shape[0], self.table[0].shape[1])), self.table)
        s = np.empty((1, k.shape[1]))
        for r0, r1, length, a in self.segments:
            b = a + (r1 - r0) * length
            s[0, a:b] = np.einsum("hr,hrl->rl", qw[:, r0:r1], k[:, a:b].reshape(-1, r1 - r0, length)).ravel()
        return s


@dataclass(frozen=True)
class _Distances:
    """Positional input scored per tile from each pair's distance: additive coordinate
    differences, or forward's woven distances under a capped, leaky, stair or grouped weave."""

    tile: Callable[[int, int], np.ndarray]  # (lo, hi): keys lo..hi-1 against keys 0..hi-1
    theta_base: float | None  # the rotary family's; None for the additive family

    def scores(self, qt: np.ndarray, k: np.ndarray, lo: int, slope: float) -> np.ndarray:
        """Scores of the query rows qt (rows x h), the first being key lo,
        against the keys k (h x (lo + rows))."""
        dist = self.tile(lo, k.shape[1])
        if self.theta_base is None:
            return scores_additive(qt, k.T, dist, slope)
        return scores_rotary(qt, k.T, dist, self.theta_base)


def _positions(weights: ModelWeights, coords: np.ndarray, m: int, weave: WeaveParams | None = None):
    """Positional input of _attend for m queries over keys at coords; the one
    place that picks a positional form.

    Built once per chunk, forward or decode step and shared by every layer
    and head; the queries are the last m keys, so they take the tail of
    coords.  The dot family gets None; forward under a non-identity weave
    _Distances of its keys' woven distances; the additive family _Distances
    of coordinate differences; the rotary family one rotary table over
    coords, but one query (a decode step, or a one-token chunk) a _Woven,
    which rotates the query by each key's distance coords[-1] - coords.
    """
    fam = weights.pe_family
    if fam == "dot":
        return None
    base = weights.theta_base if fam == "rotary" else None
    if weave is not None and weave.scheme not in IDENTITY_SCHEMES:
        return _Distances(lambda lo, hi: woven_distances(weave, np.arange(lo, hi), np.arange(hi)), base)
    if fam == "additive":
        return _Distances(lambda lo, hi: coords[lo:hi, None] - coords[None, :hi], None)
    if m > 1:
        return rotary_table(coords, weights.head_dim, base)
    starts = np.flatnonzero(np.r_[True, coords[1:] != coords[:-1]])  # first key of each run
    runs = np.diff(np.r_[starts, coords.size])
    first = np.flatnonzero(np.r_[True, runs[1:] != runs[:-1]])  # first run of each segment
    segments = tuple(
        (int(r0), int(r1), int(runs[r0]), int(starts[r0])) for r0, r1 in zip(first, np.r_[first[1:], runs.size])
    )
    return _Woven(rotary_table(coords[-1] - coords[starts], weights.head_dim, base), segments)


def _attend(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    ctx_len: int,
    slope: float,
    pos,
    mask: AttentionMask | None = None,
    alpha: np.ndarray | None = None,
) -> np.ndarray:
    """Causal attention of the m columns of q over ctx_len context keys, then
    the m queries' own keys; k and v are h x (ctx_len + m).

    Query row r sees keys [0, ctx_len + r].  Rows run in tiles of TILE_ROWS:
    a tile ending at row r1 scores only keys [0, ctx_len + r1), the causal
    -inf goes on its rows x rows diagonal tail alone, and the softmax runs in
    place on the tile with its normalisation deferred past the value product.
    pos is _positions over the ctx_len + m keys, and the queries, being the
    last m keys, take its tail from ctx_len on; a _Woven (one query) scores
    its one row itself.  forward passes its mask, which sets -inf on each
    tile's cells outside it, and alpha, zeros of the weights' shape into
    which each tile writes its normalised weights.  Returns h x m values.
    """
    if isinstance(pos, tuple):  # a rotary table over the keys
        q, k = apply_rotary(q, tuple(t[:, ctx_len:] for t in pos)), apply_rotary(k, pos)
    qt = q.T
    m = qt.shape[0]
    out = np.empty((v.shape[0], m))
    for r0 in range(0, m, TILE_ROWS):
        r1 = min(r0 + TILE_ROWS, m)
        nk = ctx_len + r1
        if isinstance(pos, _Woven):
            s = pos.scores(q, k)
        elif isinstance(pos, _Distances):
            s = pos.scores(qt[r0:r1], k[:, :nk], ctx_len + r0, slope)
        else:
            s = qt[r0:r1] @ k[:, :nk]
        s[:, ctx_len + r0 :] += _CAUSAL_TAIL[: r1 - r0, : r1 - r0]
        if mask is not None:
            s[~mask.tile(ctx_len + r0, nk)] = -np.inf
        s -= s.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        total = s.sum(axis=1)
        out[:, r0:r1] = (v[:, :nk] @ s.T) / total
        if alpha is not None:
            np.divide(s, total[:, None], out=alpha[r0:r1, :nk])
    return out


def _run_layers(
    h: np.ndarray,
    weights: ModelWeights,
    cache: KVCache,
    ctx_len: int,
    pos,
    mask: AttentionMask | None = None,
    trace: ForwardTrace | None = None,
) -> np.ndarray:
    """Run the columns of h through every layer; appends their raw K/V.

    Each head first writes its new keys and values into the cache slots past
    len(cache).  The queries see the first ctx_len cached keys, then their
    own keys causally: a plain slice of the cache when ctx_len is len(cache)
    (the first and last chunk, a decode step, forward), else (a middle
    chunk) those ctx_len columns joined to the new ones.  pos is the
    _positions of exactly those keys.  forward passes its mask, applied per
    tile, and a trace that receives each layer's input, attention output and
    head weights.  Returns the final hidden state.
    """
    n = len(cache)
    for li, layer in enumerate(weights.layers):
        a = np.zeros_like(h)
        alphas = []
        for mi, head in enumerate(layer.heads):
            k, v = cache.write(li, mi, head.w_k @ h, head.w_v @ h)
            if ctx_len < n:
                k = np.concatenate([k[:, :ctx_len], k[:, n:]], axis=1)
                v = np.concatenate([v[:, :ctx_len], v[:, n:]], axis=1)
            alpha = None if trace is None else np.zeros((h.shape[1], k.shape[1]))
            a += head.w_o @ _attend(head.w_q @ h, k, v, ctx_len, weights.slope_for_head(mi), pos, mask, alpha)
            alphas.append(alpha)
        if trace is not None:
            trace.hidden.append(h)
            trace.attn.append(a)
            trace.alphas.append(alphas)
        z = a + h
        zz = layer_norm_cols(z) if layer.layer_norm == "standard" else z
        h = layer.ff(zz) + z
    cache.append(h.shape[1])
    return h


def forward(
    tokens,
    weights: ModelWeights,
    weave: WeaveParams | None = None,
    mask: AttentionMask | None = None,
) -> ForwardTrace:
    """Full forward pass, every layer's states kept; deterministic in all arguments.

    The whole input runs through _run_layers as one chunk with no context
    at the coordinates 0..n-1, so forward and every prefill chunk share one
    attention kernel.  Any weave but an identity one (or None) gives each
    tile the woven distances of its pairs instead (_positions), and a mask
    sets -inf on each tile's cells outside it; no n x n distance or mask
    matrix is built.
    """
    if len(tokens) == 0:
        raise ValueError("empty input")
    h = embed(tokens, weights)
    n = h.shape[1]
    if mask is not None and mask.n != n:
        raise ValueError(f"mask length {mask.n} does not match sequence length {n}")
    trace = ForwardTrace(hidden=[], attn=[], alphas=[])
    cache = KVCache(len(weights.layers), len(weights.layers[0].heads), capacity=n)
    h = _run_layers(h, weights, cache, 0, _positions(weights, np.arange(n, dtype=np.float64), n, weave), mask, trace)
    trace.hidden.append(h)
    return trace


class KVCache:
    """Append-only store of raw (pre-positional) keys and values per layer/head.

    Layout: per layer, one (heads, h, capacity) array each for K and V; slot
    i holds token i, so the first len(cache) slots are the appended tokens in
    order and a span of positions is a span of slots.  view returns slices
    of this storage, never copies.

    A step writes each head's new keys and values into the slots past
    len(cache) (write), attends over them in place, and append then commits
    them.  Capacity starts at the constructor's (prefill passes the prompt
    length); a write that runs past it grows that layer's arrays to the
    larger of the need and capacity + 1/8 — never by doubling, so growing a
    full cache allocates at most one layer's K or V again at a time.
    """

    def __init__(self, n_layers: int, n_heads: int, capacity: int = 0):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self._k: list[np.ndarray | None] = [None] * n_layers
        self._v: list[np.ndarray | None] = [None] * n_layers
        self._capacity = capacity
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self._len)

    def _layer_storage(self, layer: int, head_dim: int, need: int) -> tuple[np.ndarray, np.ndarray]:
        """This layer's K and V arrays, grown (K first, then V) to hold need slots."""
        for store in (self._k, self._v):
            old = store[layer]
            size = self._capacity if old is None else old.shape[2]
            if old is None or need > size:
                grown = size if need <= size else max(need, size + size // 8)
                new = np.empty((self.n_heads, head_dim, grown))
                if old is not None:
                    new[:, :, : self._len] = old[:, :, : self._len]
                store[layer] = new
                self._capacity = max(self._capacity, grown)
        return self._k[layer], self._v[layer]

    def write(self, layer: int, head: int, k: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Store one head's keys and values (h x m) in the m slots past len(self);
        append then commits them.  Returns that head's keys and values over
        every filled slot and the new ones: h x (len + m) views of the storage."""
        n, m = self._len, k.shape[1]
        ks, vs = self._layer_storage(layer, k.shape[0], n + m)
        ks[head, :, n : n + m] = k
        vs[head, :, n : n + m] = v
        return ks[head, :, : n + m], vs[head, :, : n + m]

    def append(self, m: int) -> None:
        """Commit the m slots past len(self); every layer's keys and values
        must already be in them (write)."""
        n = self._len + m
        if any(ks is None or ks.shape[2] < n for ks in self._k):
            raise ValueError("no keys and values were written for the appended slots")
        self._len = n

    def view(self, layer: int, head: int) -> tuple[np.ndarray, np.ndarray]:
        """Keys and values (h x n) for one layer/head: slices of the storage, not copies."""
        ks = self._k[layer]
        if ks is None:
            return np.zeros((0, 0)), np.zeros((0, 0))
        return ks[head, :, : self._len], self._v[layer][head, :, : self._len]


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
            HeadWeights(
                w_q=np.asarray(hd["w_q"], dtype=np.float64),
                w_k=np.asarray(hd["w_k"], dtype=np.float64),
                w_v=np.asarray(hd["w_v"], dtype=np.float64),
                w_o=np.asarray(hd["w_o"], dtype=np.float64),
            )
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
