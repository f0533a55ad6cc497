"""Causal attention masks and additive-bias matrices for the comparison methods.

Masks are stored as per-row interval predicates, not dense matrices, so exact
allowed-cell counts stay cheap at lengths where a dense n x n bool would not fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AttentionMask:
    """Causal mask where query t may attend key i iff i <= t and
    (i < n_global or t - i < n_local)."""

    n: int
    n_global: int
    n_local: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n_global < 0 or self.n_local < 1:
            raise ValueError("n_global must be >= 0 and n_local >= 1")

    def allowed(self, t: int, i: int) -> bool:
        if not (0 <= i <= t < self.n):
            return False
        return i < self.n_global or t - i < self.n_local

    def row_intervals(self, t: int) -> list[tuple[int, int]]:
        """Allowed key indices for query t as half-open intervals."""
        left = (0, min(self.n_global, t + 1))
        right = (max(0, t + 1 - self.n_local), t + 1)
        if left[1] >= right[0]:  # merged
            lo = min(left[0], right[0])
            hi = max(left[1], right[1])
            return [(lo, hi)] if hi > lo else []
        return [iv for iv in (left, right) if iv[1] > iv[0]]

    def count(self) -> int:
        """Exact number of allowed cells, O(n) time and memory."""
        t = np.arange(self.n, dtype=np.int64)
        left = np.minimum(self.n_global, t + 1)
        right = np.minimum(self.n_local, t + 1)
        lo = np.maximum(0, t + 1 - self.n_local)
        overlap = np.maximum(0, left - lo)
        return int(np.sum(left + right - overlap))

    def tile(self, lo: int, hi: int, c0: int, c1: int) -> np.ndarray:
        """Boolean form of the rows of queries lo..hi-1 over the keys c0..c1-1."""
        t, i = np.arange(lo, hi)[:, None], np.arange(c0, c1)
        return (i <= t) & ((i < self.n_global) | (t - i < self.n_local))

    def dense(self) -> np.ndarray:
        """Boolean matrix form; intended for small n only."""
        return self.tile(0, self.n, 0, self.n)

    def to_csv(self) -> str:
        dense = self.dense()
        lines = [",".join("1" if v else "0" for v in row) for row in dense]
        return "\n".join(lines) + "\n"


def causal_mask(n: int) -> AttentionMask:
    """Plain lower-triangular mask: every key at or before the query is allowed."""
    return AttentionMask(n=n, n_global=n, n_local=n)


def lambda_mask(n: int, n_global: int, n_local: int) -> AttentionMask:
    """Global-branch-plus-local-branch mask; tokens outside both are dropped."""
    return AttentionMask(n=n, n_global=n_global, n_local=n_local)


def sink_mask(n: int, x_sinks: int, y_recent: int) -> AttentionMask:
    """Sink mask: x initial tokens are always visible plus a rolling window of y."""
    return AttentionMask(n=n, n_global=x_sinks, n_local=y_recent)


def approx_alibi_bias(n: int) -> list[list[float]]:
    """Column-anchored linear bias rows: bias(t, i) = i - (n - 1) for i <= t.

    Only the final row reproduces the exact linear penalty -(t - i); earlier
    rows are shifted by t - (n - 1), which is what makes it an approximation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [[float(i - (n - 1)) for i in range(t + 1)] for t in range(n)]


def exact_alibi_bias(n: int, slope: float = 1.0) -> list[list[float]]:
    """Reference rows -(t - i) * slope for comparison against the approximation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [[-(t - i) * slope for i in range(t + 1)] for t in range(n)]


def bias_rows_to_csv(rows: list[list[float]]) -> str:
    n = len(rows)
    lines = []
    for t, row in enumerate(rows):
        cells = [f"{v:.12g}" for v in row] + [""] * (n - t - 1)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
