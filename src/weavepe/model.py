"""Minimal decoder-only transformer with pluggable positional score kernels.

Double precision throughout; the threshold constructions depend on it.  The
multi-head sub-layer uses the additive view (head outputs summed), which is
equivalent to concatenate-then-project for block-structured output weights.
Keys and values are cached before any rotation so the same cached key can be
assigned different woven positions later.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from weavepe.masks import AttentionMask, causal_mask
from weavepe.pe_core import (
    IDENTITY_SCHEMES,
    Scheme,
    WeaveParams,
    alibi_slopes,
    apply_rotary,
    position_matrix,
    rotary_table,
    scores_additive,
    scores_approx_additive,
    scores_dot,
    scores_rotary,
)

BOS_ID = 0

#: positional-score families a model can use
PE_FAMILIES = ("dot", "rotary", "additive", "approx_additive")


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


def layer_norm_cols(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    mu = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def embed(tokens, weights: ModelWeights) -> np.ndarray:
    """Initial hidden state: embedding columns of <bos> followed by the tokens."""
    ids = [BOS_ID] + [int(t) for t in tokens]
    for t in ids:
        if not (0 <= t < weights.vocab_size):
            raise ValueError(f"unknown token id {t}")
    return weights.w_e[:, ids].astype(np.float64)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Numerically stabilized row softmax; -inf marks disallowed cells."""
    m = np.max(scores, axis=1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(scores - m)
    return e / np.sum(e, axis=1, keepdims=True)


def head_scores(
    q: np.ndarray,
    k: np.ndarray,
    weights: ModelWeights,
    slope: float,
    dmat: np.ndarray | None,
    key_idx: np.ndarray | None = None,
    n_total: int | None = None,
    rot: tuple | None = None,
) -> np.ndarray:
    """Dispatch to the model's score kernel; q, k are (m, h) and (n, h).

    The rotary family takes rot, the query and key rotary_table when the
    distances are coordinate differences, in place of dmat: both sides are
    rotated and one matmul replaces the per-cell trig of scores_rotary.
    """
    fam = weights.pe_family
    if fam == "dot":
        return scores_dot(q, k)
    if fam == "rotary":
        if rot is not None:
            return apply_rotary(q.T, rot[0]).T @ apply_rotary(k.T, rot[1])
        if dmat is None:
            raise ValueError("rotary family needs a distance matrix or coordinate rotations")
        return scores_rotary(q, k, dmat, weights.theta_base)
    if fam == "additive":
        if dmat is None:
            raise ValueError("additive family needs a distance matrix")
        return scores_additive(q, k, dmat, slope)
    if fam == "approx_additive":
        if key_idx is None or n_total is None:
            raise ValueError("approx_additive family needs key indices and total length")
        return scores_approx_additive(q, k, key_idx, n_total, slope)
    raise ValueError(fam)


def attention_head(
    h_prev: np.ndarray,
    head: HeadWeights,
    weights: ModelWeights,
    slope: float,
    allowed: np.ndarray,
    dmat: np.ndarray | None,
    rot: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One causal attention head over all positions; returns (output d x n, alpha n x n)."""
    q = (head.w_q @ h_prev).T  # (n, h)
    k = (head.w_k @ h_prev).T
    v = head.w_v @ h_prev      # (h, n)
    n = h_prev.shape[1]
    key_idx = np.arange(n)
    s = head_scores(q, k, weights, slope, dmat, key_idx=key_idx, n_total=n, rot=rot)
    s = np.where(allowed, s, -np.inf)
    alpha = softmax_rows(s)
    out = head.w_o @ (v @ alpha.T)
    return out, alpha


@dataclass
class ForwardTrace:
    """Per-layer hidden states, attention-sublayer outputs, and head weights."""

    hidden: list[np.ndarray]          # hidden[0] is the embedding; one per layer after
    attn: list[np.ndarray]            # summed head outputs per layer (d x n)
    alphas: list[list[np.ndarray]]    # [layer][head] -> (n, n) softmaxed weights

    @property
    def final(self) -> np.ndarray:
        return self.hidden[-1]

    def logits(self, weights: ModelWeights, col: int = -1) -> np.ndarray:
        return weights.w_e.T @ self.hidden[-1][:, col]


def transformer_layer(
    h_prev: np.ndarray,
    layer: LayerWeights,
    weights: ModelWeights,
    allowed: np.ndarray,
    dmat: np.ndarray | None,
    rot: tuple | None = None,
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Residual + FF(lambda(residual)) per column; heads are summed additively."""
    a = np.zeros_like(h_prev)
    alphas = []
    for m, head in enumerate(layer.heads):
        out, alpha = attention_head(h_prev, head, weights, weights.slope_for_head(m), allowed, dmat, rot)
        a += out
        alphas.append(alpha)
    z = a + h_prev
    zz = layer_norm_cols(z) if layer.layer_norm == "standard" else z
    h_new = layer.ff(zz) + z
    return h_new, a, alphas


def forward_layers(
    tokens,
    weights: ModelWeights,
    weave: WeaveParams | None = None,
    mask: AttentionMask | None = None,
):
    """The forward pass one layer at a time: yields (layer input, layer output,
    attention-sublayer output, head weights) per layer.

    The positional input is built once and shared by every layer and head.
    A rotary model under an identity weave (or None) rotates queries and keys
    by their positions 0..n-1, since R(t)^T R(i) = R(t - i); any other weave,
    and the additive family, get the distance matrix of the scheme.  A caller
    that keeps only the hidden states lets each layer's n x n head weights go
    as the next layer runs.
    """
    if len(tokens) == 0:
        raise ValueError("empty input")
    h = embed(tokens, weights)
    n = h.shape[1]
    if mask is not None and mask.n != n:
        raise ValueError(f"mask length {mask.n} does not match sequence length {n}")
    allowed = (mask or causal_mask(n)).dense()
    dmat = rot = None
    if weights.pe_family == "rotary" and (weave is None or weave.scheme in IDENTITY_SCHEMES):
        table = rotary_table(np.arange(n), weights.head_dim, weights.theta_base)
        rot = (table, table)
    elif weights.pe_family in ("rotary", "additive"):
        params = weave or WeaveParams(scheme=Scheme.ROPE)
        dmat = position_matrix(params, n).entries
    for layer in weights.layers:
        h_out, a, alphas = transformer_layer(h, layer, weights, allowed, dmat, rot)
        yield h, h_out, a, alphas
        h = h_out


def forward(
    tokens,
    weights: ModelWeights,
    weave: WeaveParams | None = None,
    mask: AttentionMask | None = None,
) -> ForwardTrace:
    """Full forward pass, every layer's states kept; deterministic in all arguments."""
    trace = ForwardTrace(hidden=[], attn=[], alphas=[])
    for h, h_out, a, alphas in forward_layers(tokens, weights, weave, mask):
        trace.hidden.append(h)
        trace.attn.append(a)
        trace.alphas.append(alphas)
    trace.hidden.append(h_out)
    return trace


class KVCache:
    """Append-only store of raw (pre-positional) keys and values per layer/head.

    Layout: per layer, one (heads, h, capacity) array each for K and V, plus
    one index array shared by the layers; the first len(cache) slots hold the
    appended tokens in order.  Indices are the absolute token positions and
    must stay strictly increasing across appends.  view returns slices of
    this storage, never copies.

    A step writes each head's new keys and values into the slots past
    len(cache) (write), attends over them in place, and append then commits
    their positions.  Capacity starts at the constructor's (prefill passes the
    prompt length); a write that runs past it grows that layer's arrays, and
    append the index array, to the larger of the need and capacity + 1/8 —
    never by doubling, so growing a full cache allocates at most one layer's
    K or V again at a time.
    """

    def __init__(self, n_layers: int, n_heads: int, capacity: int = 0):
        self.n_layers = n_layers
        self.n_heads = n_heads
        self._k: list[np.ndarray | None] = [None] * n_layers
        self._v: list[np.ndarray | None] = [None] * n_layers
        self._idx = np.empty(capacity, dtype=np.int64)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def capacity(self) -> int:
        return self._idx.size

    @property
    def indices(self) -> np.ndarray:
        return self._idx[: self._len]

    @staticmethod
    def _grown(size: int, need: int) -> int:
        return size if need <= size else max(need, size + size // 8)

    def _layer_storage(self, layer: int, head_dim: int, need: int) -> tuple[np.ndarray, np.ndarray]:
        """This layer's K and V arrays, grown (K first, then V) to hold need slots."""
        for store in (self._k, self._v):
            old = store[layer]
            size = self.capacity if old is None else old.shape[2]
            if old is None or need > size:
                new = np.empty((self.n_heads, head_dim, self._grown(size, need)))
                if old is not None:
                    new[:, :, : self._len] = old[:, :, : self._len]
                store[layer] = new
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

    def append(
        self, indices, k_blocks: list[list[np.ndarray]] | None = None, v_blocks: list[list[np.ndarray]] | None = None
    ) -> None:
        """Commit one block of token positions to the slots past len(self).

        With k_blocks and v_blocks ([layer][head] -> h x m raw K and V) they are
        written there first; without, every layer's keys and values must
        already be in those slots (write).
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        if np.any(np.diff(idx) <= 0):
            raise ValueError("appended indices must be strictly increasing")
        if self._len and idx[0] <= self._idx[self._len - 1]:
            raise ValueError("appended indices must follow the existing maximum")
        n = self._len + idx.size
        if k_blocks is not None:
            for l in range(self.n_layers):
                for m in range(self.n_heads):
                    if k_blocks[l][m].shape[1] != idx.size or v_blocks[l][m].shape[1] != idx.size:
                        raise ValueError("key/value blocks must match the index count")
                    self.write(l, m, k_blocks[l][m], v_blocks[l][m])
        elif any(ks is None or ks.shape[2] < n for ks in self._k):
            raise ValueError("no keys and values were written for the appended positions")
        if n > self.capacity:
            grown = np.empty(self._grown(self.capacity, n), dtype=np.int64)
            grown[: self._len] = self.indices
            self._idx = grown
        self._idx[self._len : n] = idx
        self._len = n

    def view(self, layer: int, head: int, span: tuple[int, int] | None = None):
        """Keys, values (h x n) and indices for one layer/head, optionally only
        the positions in [span); slices of the storage, not copies."""
        ks = self._k[layer]
        if ks is None:
            return np.zeros((0, 0)), np.zeros((0, 0)), np.zeros(0, dtype=np.int64)
        lo, hi = (0, self._len) if span is None else np.searchsorted(self.indices, span)
        return ks[head, :, lo:hi], self._v[layer][head, :, lo:hi], self._idx[lo:hi]


def random_model(
    d: int = 8,
    n_heads: int = 2,
    n_layers: int = 2,
    vocab: int = 16,
    seed: int = 0,
    pe_family: str = "rotary",
    ff_mult: int = 2,
) -> ModelWeights:
    """Small random-weight model for pipeline and benchmark runs."""
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
        ff = DenseFF(w1=mat(d, ff_mult * d), w2=mat(d, ff_mult * d))
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
