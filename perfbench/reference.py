"""Independent reference computations the benchmark checks weavepe against.

Written in plain numpy from the method's definition.  The pipeline reference
reads only the model's weight arrays and the chunk plan; it uses nothing from
``weavepe.pipeline``, ``rotate_by_coords``, ``scores_rotary`` or
``weave_stair``.  The theory reference is the closed forms of the threshold
constructions, computed from (M, H, N, E) alone.
"""

from __future__ import annotations

import math

import numpy as np

BOS_ID = 0


def stair(d, cap: int, tread: int) -> np.ndarray:
    """Staircase weave W(d) = d for d <= N, else N + ceil((d - N) / E)."""
    d = np.asarray(d, dtype=np.int64)
    return np.where(d <= cap, d, cap - ((cap - d) // tread))


def rope(x: np.ndarray, coords: np.ndarray, theta_base: float) -> np.ndarray:
    """Absolute-position rotary encoding of the columns of x (dim x n).

    Pair (2j, 2j+1) of a column at coordinate c is turned clockwise by
    c * theta_j, theta_j = theta_base^(-2j/dim).  The dot product of a query
    turned to c_q and a key turned to c_k is then q^T R((c_q - c_k) theta) k
    with R counter-clockwise, the convention weavepe documents.
    """
    dim = x.shape[0]
    theta = theta_base ** (-2.0 * np.arange(dim // 2, dtype=np.float64) / dim)
    phi = theta[:, None] * np.asarray(coords, dtype=np.float64)[None, :]
    c, s = np.cos(phi), np.sin(phi)
    a, b = x[0::2], x[1::2]
    out = np.empty_like(x)
    out[0::2] = a * c + b * s
    out[1::2] = b * c - a * s
    return out


class ReferenceModel:
    """The rotary decoder of ``random_model`` re-implemented over its raw weights.

    Keeps its own raw (unrotated) key/value store, one column per absolute
    position, so the chunk layout and decode can be replayed independently of
    the program's cache.
    """

    def __init__(self, weights, capacity: int):
        self.w_e = np.asarray(weights.w_e, dtype=np.float64)
        self.theta_base = float(weights.theta_base)
        self.layers = []
        for layer in weights.layers:
            if layer.layer_norm != "identity" or layer.ff.activation != "relu":
                raise ValueError("reference covers the identity-norm ReLU model only")
            heads = [(hd.w_q, hd.w_k, hd.w_v, hd.w_o) for hd in layer.heads]
            self.layers.append((heads, layer.ff.w1, layer.ff.w2))
        hd = weights.layers[0].heads[0].w_k.shape[0]
        n_heads = len(weights.layers[0].heads)
        self.k = np.zeros((len(self.layers), n_heads, hd, capacity))
        self.v = np.zeros_like(self.k)
        self.length = 0

    def chunk(self, ids, lo: int, hi: int, n_ctx: int, coord) -> np.ndarray:
        """Run the tokens at raw positions [lo, hi) against cached keys [0, n_ctx).

        coord maps raw positions to the coordinates the rotary term sees.  The
        chunk attends to all of its context and causally to itself; its raw
        keys and values are stored.  Returns the chunk's final hidden states.
        """
        h = self.w_e[:, ids]
        m = hi - lo
        cq = coord(np.arange(lo, hi))
        ck = np.concatenate([coord(np.arange(n_ctx)), cq])
        future = ~np.tri(m, dtype=bool)
        for li, (heads, w1, w2) in enumerate(self.layers):
            a = np.zeros_like(h)
            for mi, (w_q, w_k, w_v, w_o) in enumerate(heads):
                k, v = self.k[li, mi], self.v[li, mi]
                k[:, lo:hi] = w_k @ h
                v[:, lo:hi] = w_v @ h
                keys = np.concatenate([k[:, :n_ctx], k[:, lo:hi]], axis=1)
                vals = np.concatenate([v[:, :n_ctx], v[:, lo:hi]], axis=1)
                s = rope(w_q @ h, cq, self.theta_base).T @ rope(keys, ck, self.theta_base)
                s[:, n_ctx:][future] = -np.inf
                # softmax rows, normalised after the value product
                s -= s.max(axis=1, keepdims=True)
                e = np.exp(s, out=s)
                a += w_o @ ((vals @ e.T) / e.sum(axis=1))
            z = a + h
            h = w2 @ np.maximum(w1.T @ z, 0.0) + z
        self.length = max(self.length, hi)
        return h

    def logits(self, h: np.ndarray) -> np.ndarray:
        return self.w_e.T @ h[:, -1]


def reference_generation(weights, tokens, train_len, cap, tread, plan, steps):
    """Prefill logits, the greedy ids and every decode step's logits.

    plan is None when the prompt fits the trained window: one dense causal pass
    at absolute positions.  Otherwise the layout follows the plan: the first
    chunk at raw positions; each middle chunk against the first chunk, its own
    tokens at local coordinates F..F+C-1; the last chunk against every earlier
    key, everything at anchor - W(anchor - i) with the anchor on the final
    token.  Decode step t sees key i at t - W(t - i).
    """
    ids = np.asarray([BOS_ID] + list(tokens), dtype=np.int64)
    n = len(ids)
    ref = ReferenceModel(weights, n + steps)
    if plan is None:
        if n > train_len:
            raise ValueError("a prompt longer than the window needs a plan")
        h = ref.chunk(ids, 0, n, 0, lambda p: p)
    else:
        f, c = plan.first_len, plan.chunk_width
        h = ref.chunk(ids[:f], 0, f, 0, lambda p: p)
        for j in range(plan.num_middle):
            lo = f + j * c
            h = ref.chunk(ids[lo:lo + c], lo, lo + c, f, lambda p, lo=lo: np.where(p < f, p, p - lo + f))
        lo = plan.last_span[0]
        anchor = n - 1
        h = ref.chunk(ids[lo:], lo, n, lo, lambda p: anchor - stair(anchor - p, cap, tread))
    prefill_logits = ref.logits(h)
    out_ids, step_logits = [], []
    logits = prefill_logits
    for _ in range(steps):
        nxt = int(np.argmax(logits))
        out_ids.append(nxt)
        t = ref.length
        h = ref.chunk([nxt], t, t + 1, t, lambda p, t=t: t - stair(t - p, cap, tread))
        logits = ref.logits(h)
        step_logits.append(logits)
    return prefill_logits, out_ids, step_logits


def plan_cells(plan, n: int) -> dict[str, int]:
    """Score cells (one head, one layer) each prefill stage computes, from the plan."""

    def tri(k: int) -> int:
        return k * (k + 1) // 2

    if plan is None:
        return {"single": tri(n)}
    f, c = plan.first_len, plan.chunk_width
    lo = plan.last_span[0]
    return {
        "first": tri(f),
        "middle": plan.num_middle * (tri(c) + c * f),
        "last": tri(n) - tri(lo),
    }


def last_chunk_max_distance(n: int, cap: int, tread: int) -> int:
    """Largest woven distance the last chunk feeds the rotary term: W(I - 1)."""
    d = n - 1
    return d if d <= cap else cap + math.ceil((d - cap) / tread)


# ---------------------------------------------------------------- theory scans

MAX_SCAN = 700


def scan_ceiling(window: int, cap: int, tread: int | None) -> int:
    """End of the rescue range: M e^N / 2 capped, M e^(N - ceil(N/E)) / 2 stair."""
    exponent = cap if tread is None else cap - math.ceil(cap / tread)
    return int(min(MAX_SCAN, window * math.exp(exponent) / 2.0))


def first_token_weight(woven: np.ndarray, t_max: int) -> np.ndarray:
    """Closed-form second-layer weight on the first token for t = 1..t_max.

    The score of key i at query t is W(t-1) - W(i-1) - W(t-i); woven holds
    W(d) for d = 0..t_max-1.
    """
    out = np.empty(t_max)
    for t in range(1, t_max + 1):
        i = np.arange(1, t + 1)
        score = woven[t - 1] - woven[i - 1] - woven[t - i]
        out[t - 1] = 1.0 / np.sum(np.exp(score - score[0]))
    return out
