"""Distance-weave functions, positional score kernels, and position matrices.

Every scheme here remaps the causal relative distance t - i through a weave
function before the positional term is applied, so a model trained on a short
window can be pointed at keys far outside it without ever seeing an unseen
distance.  Weave functions take integer distances and return floats so the
capped, leaky, and staircase variants share one signature; weave_table is
the one place a WeaveParams becomes W(d), and weave_runs keeps a weave's
runs of equal W(d) for the decode steps that read them.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def apply_rotary(x: np.ndarray, table: tuple[np.ndarray, np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    """Rotate the columns of x ([heads x] dim x n) by a rotary_table built
    for them, into out: a new array, or x itself to rotate it in place.

    Each half of the result is written in place, xa c - xb s then xb c + xa
    s, with two half-size scratch arrays, so no full-size temporary is made;
    xa s is taken before the first half is written, which may overwrite xa.
    """
    c, s = table
    xa, xb = x[..., 0::2, :], x[..., 1::2, :]
    out = np.empty_like(x) if out is None else out
    even, odd = out[..., 0::2, :], out[..., 1::2, :]
    scratch = np.multiply(xa, s)
    np.multiply(xa, c, out=even)
    even -= xb * s
    np.multiply(xb, c, out=odd)
    odd += scratch
    return out


def rotate_by_coords(x: np.ndarray, coords: np.ndarray, theta_base: float) -> np.ndarray:
    """Rotate columns of x (dim x n) by -coord * theta per pair.

    With both sides rotated this way, a dot product between a query at
    coordinate c_q and a key at c_k equals rope_score(q, k, c_q - c_k).
    """
    return apply_rotary(x, rotary_table(coords, x.shape[0], theta_base))


def scores_additive(q: np.ndarray, k: np.ndarray, dmat: np.ndarray, slope: float | np.ndarray) -> np.ndarray:
    """Dot-product scores with a linear distance penalty; leading axes of q
    and k (and of slope) are heads."""
    return q @ np.swapaxes(k, -1, -2) - slope * dmat


def scores_rotary(q: np.ndarray, k: np.ndarray, dmat: np.ndarray, theta_base: float) -> np.ndarray:
    """Rotary scores for a distance matrix that does not factor into coordinates.

    S[a, b] = q_a^T R(D[a, b] * theta) k_b, expanded per dimension pair, so it
    takes cos/sin of the whole matrix for every pair.  A woven position matrix
    (capped, leaky, stair or grouped over all pairs) needs it; when D[a, b] =
    c_a - c_b (raw positions, or the pipeline's per-chunk coordinates), rotate
    both sides once with rotary_table + apply_rotary and take one matmul.
    Leading axes of q (m x h) and k (n x h) are heads.
    """
    m, h = q.shape[-2:]
    if h % 2 != 0:
        raise ValueError("rotary dimension must be even")
    theta = rope_angles(h, theta_base)
    out = np.zeros(q.shape[:-1] + (k.shape[-2],), dtype=np.float64)
    for j, th in enumerate(theta):
        qa, qb = q[..., :, 2 * j, None], q[..., :, 2 * j + 1, None]
        ka, kb = k[..., None, :, 2 * j], k[..., None, :, 2 * j + 1]
        ang = dmat * th
        out += np.cos(ang) * (qa * ka + qb * kb)
        out += np.sin(ang) * (qb * ka - qa * kb)
    return out


def weave_table(params: WeaveParams | None, n: int) -> np.ndarray:
    """W(d) for the raw distances d = 0..n-1, as float64: the raw distance
    for None and every identity scheme.

    The grouped (self-extend) remap is not a pure function of the distance,
    so it is rejected here; use woven_distances for it.
    """
    d = np.arange(n)
    if params is None or params.scheme in IDENTITY_SCHEMES:
        return d.astype(np.float64)
    if params.scheme is Scheme.REROPE:
        return weave_rerope(d, params.cap)
    if params.scheme is Scheme.LEAKY_REROPE:
        return weave_leaky(d, params.cap, params.leak)
    if params.scheme is Scheme.STAIR:
        return weave_stair(d, params.cap, params.tread)
    raise ValueError(f"{params.scheme.value} weave is not a pure function of the distance")


@dataclass(frozen=True)
class WeaveRuns:
    """A weave over the distances 0..n-1, n a power of two, kept as its runs:
    the stretches of consecutive distances that share one W(d).

    Every pure weave here is non-decreasing, so a query's keys at raw
    distances t..0 meet the runs up to distance t in reverse, the furthest
    cut at t; one WeaveRuns serves every query up to n - 1 (weave_runs).
    Only the runs are kept, not W(d) per distance: the staircase of N 512
    and E 50 takes 1,159 runs over 32,768 distances.  turns keeps what a positional form derives
    per run, each run's rotary turns per (head dim, theta base), beside the
    runs it came from.
    """

    starts: np.ndarray  # first distance of each run, then n
    values: np.ndarray  # W of each run, increasing
    segments: tuple  # (first run, end run, run length) of each stretch of runs of one length
    turns: dict = field(default_factory=dict, compare=False, repr=False)

    def run(self, d: int) -> int:
        """The run that holds distance d."""
        return int(np.searchsorted(self.starts, d, side="right")) - 1

    def window(self, d0: int, d1: int) -> np.ndarray:
        """W(d) for d = d0..d1-1: each run's value over its share of them,
        bit for bit weave_table's."""
        j0, j1 = self.run(d0), self.run(d1 - 1) + 1
        return np.repeat(self.values[j0:j1], np.diff(np.clip(self.starts[j0 : j1 + 1], d0, d1)))


def weave_runs(params: WeaveParams | None, d: int) -> WeaveRuns:
    """The kept WeaveRuns of params that reaches distance d: over 0..n-1 for
    n the power of two past d, so a growing d rebuilds it only when it
    doubles."""
    return _weave_runs(params, 1 << d.bit_length())


@functools.lru_cache(maxsize=8)
def _weave_runs(params: WeaveParams | None, n: int) -> WeaveRuns:
    table = weave_table(params, n)
    starts = np.flatnonzero(np.concatenate(([True], table[1:] != table[:-1])))
    values = table[starts]
    lengths = np.diff(starts, append=n)
    first = np.flatnonzero(np.concatenate(([True], lengths[1:] != lengths[:-1])))
    segments = tuple((int(j0), int(j1), int(lengths[j0])) for j0, j1 in zip(first, [*first[1:], lengths.size]))
    starts = np.append(starts, n)
    starts.flags.writeable = values.flags.writeable = False
    return WeaveRuns(starts, values, segments)


def toeplitz_tiles(table: np.ndarray) -> Callable[[int, int, int, int], np.ndarray]:
    """Tiles (lo, hi, c0, c1) of the n x n matrix whose row t holds
    table[t - i] at columns i <= t and 0 past t: its rows lo..hi-1 over
    columns c0..c1-1.

    A weave's distance matrix is constant along each diagonal, so every tile
    is a strided view of one reversed table [table[n-1], ..., table[0], 0
    x (n-1)], whose window n-1-t is row t; no tile is built or gathered.
    Leading axes of table (heads, say) lead each tile.
    """
    n = table.shape[-1]
    padded = np.concatenate([table[..., ::-1], np.zeros(table.shape[:-1] + (n - 1,))], axis=-1)
    windows = sliding_window_view(padded, n, axis=-1)
    return lambda lo, hi, c0, c1: windows[..., n - hi : n - lo, :][..., ::-1, c0:c1]


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
    keeps at 0).  A pure distance weave is a lookup into its weave_table up
    to the largest raw distance.  position_matrix and the grouped remap's
    forward tiles use it; forward reads a pure weave's tiles as windows onto
    one reversed weave_table instead (model._positions)."""
    t, i = np.asarray(rows)[:, None], np.asarray(cols)
    raw = np.maximum(t - i, 0)
    if params.scheme is Scheme.SELF_EXTEND:
        w, g = params.neighbor, params.group
        return np.where(raw <= w, raw, t // g + w - w // g - i // g).astype(np.float64)
    return weave_table(params, raw.max() + 1)[raw]


def position_matrix(params: WeaveParams, n: int) -> PositionMatrix:
    """Woven-distance matrix for a scheme over a sequence of length n: the
    woven_distances of every (query, key) pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return PositionMatrix(params=params, n=n, entries=woven_distances(params, np.arange(n), np.arange(n)))
