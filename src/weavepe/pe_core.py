"""Distance-weave functions, positional score kernels, and position matrices.

Every scheme here remaps the causal relative distance t - i through a weave
function before the positional term is applied, so a model trained on a short
window can be pointed at keys far outside it without ever seeing an unseen
distance.  Weave functions take integer distances and return floats so the
capped, leaky, and staircase variants share one signature.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np


class Scheme(enum.Enum):
    """Positional-encoding schemes, including the weave variants."""

    NOPE = "nope"
    ROPE = "rope"
    ALIBI = "alibi"
    APPROX_ALIBI = "approx-alibi"
    REROPE = "rerope"
    LEAKY_REROPE = "leaky-rerope"
    STAIR = "stair"
    SELF_EXTEND = "self-extend"


#: Schemes whose weave is the identity (the raw distance is used as-is).
IDENTITY_SCHEMES = frozenset({Scheme.NOPE, Scheme.ROPE, Scheme.ALIBI, Scheme.APPROX_ALIBI})


@dataclass(frozen=True)
class WeaveParams:
    """Parameters for a weave scheme.

    cap is the distance at which weaving begins (written N in run configs),
    tread the number of raw distances sharing one woven value for the
    staircase (E), leak the per-step increment of the leaky variant (1/k),
    neighbor/group the window and group sizes of the grouped remap (W, G).
    Fields irrelevant to a scheme are ignored.
    """

    scheme: Scheme
    cap: int = 512
    tread: int = 50
    leak: float = 1.0
    neighbor: int = 4
    group: int = 2

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError(f"cap must be >= 1, got {self.cap}")
        if self.tread < 1:
            raise ValueError(f"tread must be >= 1, got {self.tread}")
        if self.leak <= 0:
            raise ValueError(f"leak must be > 0, got {self.leak}")
        if self.group < 1:
            raise ValueError(f"group must be >= 1, got {self.group}")
        if self.neighbor < 1:
            raise ValueError(f"neighbor must be >= 1, got {self.neighbor}")


def _as_int_array(d) -> np.ndarray:
    """Distances d as int64; each must be a non-negative integer."""
    a = np.asarray(d)
    if not np.issubdtype(a.dtype, np.integer) and not np.all(np.mod(a, 1) == 0):
        raise ValueError("distances must be integers")
    if np.any(a < 0):
        raise ValueError("distance must be non-negative")
    return a.astype(np.int64)


def _ret(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out.astype(np.float64)


def weave_stair(d, cap: int, tread: int):
    """Staircase weave: identity up to cap, then one extra unit per tread raw steps.

    weave(d) = d for d <= cap, else cap + ceil((d - cap) / tread).
    """
    if cap < 1 or tread < 1:
        raise ValueError("cap and tread must be positive integers")
    a = _as_int_array(d)
    over = np.maximum(a - cap, 0)
    woven = np.where(a <= cap, a, cap + (over + tread - 1) // tread)
    return _ret(woven, np.isscalar(d) or np.ndim(d) == 0)


def weave_rerope(d, cap: int):
    """Capped weave: distances saturate at cap."""
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    a = _as_int_array(d)
    return _ret(np.minimum(a, cap), np.isscalar(d) or np.ndim(d) == 0)


def weave_leaky(d, cap: int, leak: float):
    """Leaky capped weave: beyond cap, distance grows by leak per raw step."""
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    if leak <= 0:
        raise ValueError("leak must be > 0")
    a = _as_int_array(d)
    woven = np.where(a <= cap, a.astype(np.float64), cap + (a - cap) * float(leak))
    return _ret(woven, np.isscalar(d) or np.ndim(d) == 0)


def leaky_k_inv(train_len: int, input_len: int, weave_point: int) -> float:
    """Leak increment matched to the input length: (T - w) / (I - w)."""
    if input_len <= weave_point:
        raise ValueError(f"input_len must exceed weave_point ({input_len} <= {weave_point})")
    if train_len <= weave_point:
        raise ValueError(f"train_len must exceed weave_point ({train_len} <= {weave_point})")
    return (train_len - weave_point) / (input_len - weave_point)


def self_extend_map(t: int, i: int, neighbor: int, group: int) -> float:
    """Grouped remap of a (query, key) index pair.

    Inside the neighbor window the raw distance is kept; outside it, both
    positions are floor-divided into groups and the query side is shifted by
    neighbor - neighbor // group.
    """
    if t < i:
        raise ValueError("query index must be >= key index")
    if t - i <= neighbor:
        return float(t - i)
    return float(t // group + neighbor - neighbor // group - i // group)


def self_extend_map_ceil(t: int, i: int, neighbor: int, group: int) -> float:
    """Grouped remap with its single flooring adjusted to a ceiling.

    The raw map lands on a group boundary only when (t - i - neighbor) is a
    multiple of group; adjusting the flooring to a ceiling adds one grouped
    step everywhere else.  Built on top of the raw floor map so the
    staircase-equivalence condition stays observable.
    """
    if t < i:
        raise ValueError("query index must be >= key index")
    if t - i <= neighbor:
        return float(t - i)
    bump = 1.0 if (t - i - neighbor) % group != 0 else 0.0
    return self_extend_map(t, i, neighbor, group) + bump


def floor_identity_holds(t: int, i: int, group: int) -> bool:
    """Whether t//G - i//G equals (t-i)//G for this pair."""
    return t // group - i // group == (t - i) // group


def stair_selfextend_equivalent(t: int, i: int, neighbor: int, group: int) -> bool:
    """Condition under which the ceiling-adjusted grouped remap equals the staircase.

    Holds iff t mod G >= i mod G and the neighbor window is a multiple of the
    group size; then self_extend_map_ceil(t, i, W, G) == weave_stair(t-i, W, G).
    """
    if t < i:
        raise ValueError("query index must be >= key index")
    return (t % group >= i % group) and (neighbor % group == 0)


def alibi_slopes(num_heads: int) -> list[float]:
    """Per-head slopes 2^(-8(m+1)/num_heads) for heads m = 0..num_heads-1."""
    if num_heads < 1:
        raise ValueError("num_heads must be >= 1")
    return [2.0 ** (-8.0 * (m + 1) / num_heads) for m in range(num_heads)]


def alibi_score(qk_dot: float, d, slope: float) -> float:
    """Linear-bias score: the dot product minus slope times the distance."""
    a = np.asarray(d, dtype=np.float64)
    if np.any(a < 0):
        raise ValueError("distance must be non-negative")
    out = qk_dot - a * slope
    return float(out) if np.ndim(d) == 0 else out


def rope_angles(dim: int, theta_base: float) -> np.ndarray:
    """Per-pair angle schedule theta_j = theta_base^(-2j/dim)."""
    if dim % 2 != 0:
        raise ValueError("rotary dimension must be even")
    j = np.arange(dim // 2, dtype=np.float64)
    return theta_base ** (-2.0 * j / dim)


def rope_score(q, k, distance: float, theta_base: float = 10000.0) -> float:
    """Rotary score q^T R(distance * theta) k with counter-clockwise rotation.

    The rotation acts on consecutive dimension pairs; fractional distances are
    fine since rotation is continuous in the angle.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.shape != k.shape or q.ndim != 1:
        raise ValueError("q and k must be 1-d vectors of equal dimension")
    if q.shape[0] % 2 != 0:
        raise ValueError("rotary dimension must be even")
    theta = rope_angles(q.shape[0], theta_base)
    ang = distance * theta
    qa, qb = q[0::2], q[1::2]
    ka, kb = k[0::2], k[1::2]
    return float(np.sum(np.cos(ang) * (qa * ka + qb * kb) + np.sin(ang) * (qb * ka - qa * kb)))


def rotary_table(coords, dim: int, theta_base: float) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of -coord * theta per pair: two (dim/2, n) arrays.

    Build it once per set of coordinates and apply it with apply_rotary to
    every head and layer that shares them.
    """
    theta = rope_angles(dim, theta_base)
    ang = -np.outer(theta, np.asarray(coords, dtype=np.float64))  # (dim/2, n)
    return np.cos(ang), np.sin(ang)


def apply_rotary(x: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Rotate the columns of x (dim x n) by a rotary_table built for them."""
    c, s = table
    xa, xb = x[0::2, :], x[1::2, :]
    out = np.empty_like(x)
    out[0::2, :] = xa * c - xb * s
    out[1::2, :] = xa * s + xb * c
    return out


def rotate_by_coords(x: np.ndarray, coords: np.ndarray, theta_base: float) -> np.ndarray:
    """Rotate columns of x (dim x n) by -coord * theta per pair.

    With both sides rotated this way, a dot product between a query at
    coordinate c_q and a key at c_k equals rope_score(q, k, c_q - c_k).
    """
    return apply_rotary(x, rotary_table(coords, x.shape[0], theta_base))


def scores_additive(q: np.ndarray, k: np.ndarray, dmat: np.ndarray, slope: float) -> np.ndarray:
    """Dot-product scores with a linear distance penalty."""
    return q @ k.T - slope * dmat


def scores_rotary(q: np.ndarray, k: np.ndarray, dmat: np.ndarray, theta_base: float) -> np.ndarray:
    """Rotary scores for a distance matrix that does not factor into coordinates.

    S[a, b] = q_a^T R(D[a, b] * theta) k_b, expanded per dimension pair, so it
    takes cos/sin of the whole matrix for every pair.  A woven position matrix
    (capped, leaky, stair or grouped over all pairs) needs it; when D[a, b] =
    c_a - c_b (raw positions, or the pipeline's per-chunk coordinates), rotate
    both sides once with rotary_table + apply_rotary and take one matmul.
    """
    m, h = q.shape
    if h % 2 != 0:
        raise ValueError("rotary dimension must be even")
    theta = rope_angles(h, theta_base)
    out = np.zeros((m, k.shape[0]), dtype=np.float64)
    for j, th in enumerate(theta):
        qa, qb = q[:, 2 * j], q[:, 2 * j + 1]
        ka, kb = k[:, 2 * j], k[:, 2 * j + 1]
        ang = dmat * th
        out += np.cos(ang) * (np.outer(qa, ka) + np.outer(qb, kb))
        out += np.sin(ang) * (np.outer(qb, ka) - np.outer(qa, kb))
    return out


def weave_fn(params: WeaveParams) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized distance remap for a scheme; identity for un-woven schemes.

    The grouped (self-extend) remap is not a pure function of the distance,
    so it is rejected here; use woven_distances for it.
    """
    if params.scheme in IDENTITY_SCHEMES:
        return lambda d: np.asarray(d, dtype=np.float64)
    if params.scheme is Scheme.REROPE:
        return lambda d: weave_rerope(d, params.cap)
    if params.scheme is Scheme.LEAKY_REROPE:
        return lambda d: weave_leaky(d, params.cap, params.leak)
    if params.scheme is Scheme.STAIR:
        return lambda d: weave_stair(d, params.cap, params.tread)
    raise ValueError(f"{params.scheme.value} weave is not a pure function of the distance")


@dataclass(frozen=True)
class PositionMatrix:
    """Lower-triangular matrix of woven relative distances per (query, key) pair."""

    params: WeaveParams
    n: int
    entries: np.ndarray  # (n, n) float64; cells above the diagonal are 0 and unused

    def row(self, t: int) -> np.ndarray:
        """Woven distances from query t to keys 0..t."""
        return self.entries[t, : t + 1].copy()

    def to_csv(self) -> str:
        """Row-major CSV with empty cells above the diagonal."""
        lines = []
        for t in range(self.n):
            cells = [f"{v:.12g}" for v in self.entries[t, : t + 1]]
            cells += [""] * (self.n - t - 1)
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Structured-text document with scheme metadata and the full rows."""
        doc = {
            "scheme": self.params.scheme.value,
            "n": self.n,
            "N": self.params.cap,
            "E": self.params.tread,
            "k_inv": self.params.leak,
            "W": self.params.neighbor,
            "G": self.params.group,
            "rows": [[float(v) for v in self.entries[t, : t + 1]] for t in range(self.n)],
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def woven_distances(params: WeaveParams, rows, cols) -> np.ndarray:
    """Woven distance of each (query index, key index) pair, rows x cols: the
    weave of t - i, or under the grouped scheme the remap of the pair itself;
    0 where the key comes after the query (raw distance 0, which every weave
    keeps at 0).  A pure distance weave runs once per raw distance up to the
    largest, then each cell looks its distance up."""
    t, i = np.asarray(rows)[:, None], np.asarray(cols)
    raw = np.maximum(t - i, 0)
    if params.scheme is Scheme.SELF_EXTEND:
        w, g = params.neighbor, params.group
        return np.where(raw <= w, raw, t // g + w - w // g - i // g).astype(np.float64)
    return np.asarray(weave_fn(params)(np.arange(raw.max() + 1)), dtype=np.float64)[raw]


def position_matrix(params: WeaveParams, n: int) -> PositionMatrix:
    """Woven-distance matrix for a scheme over a sequence of length n: the
    woven_distances of every (query, key) pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PositionMatrix(params=params, n=n, entries=woven_distances(params, np.arange(n), np.arange(n)))
