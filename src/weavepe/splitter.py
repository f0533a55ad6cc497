"""Dynamic chunk planning for the triangular prefill layout.

An input of I tokens is cut into a short first chunk, equal middle chunks
whose attention context (first chunk + self) fits the trained window, and a
last chunk of at least a configured minimum length that will attend to
everything with woven positions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class ChunkPlan:
    """Result of dynamic_split; all indices are 0-based half-open spans."""

    total: int            # I, input length in tokens
    train_len: int        # T, max trained window
    first_len: int        # F
    min_last: int         # L, configured minimum last-chunk length
    chunk_width: int      # C, width of each middle chunk
    num_middle: int       # number of middle chunks
    last_span: tuple[int, int]
    quotient: int         # N = floor((I - L - F) / (T - F))
    remainder: int        # M = (I - L - F) mod (T - F)

    @property
    def last_len(self) -> int:
        return self.last_span[1] - self.last_span[0]

    def to_json(self) -> str:
        doc = {
            "I": self.total,
            "T": self.train_len,
            "F": self.first_len,
            "L": self.min_last,
            "C": self.chunk_width,
            "N": self.quotient,
            "M": self.remainder,
            "num_middle": self.num_middle,
            "last_span": list(self.last_span),
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"

    @staticmethod
    def from_json(text: str) -> "ChunkPlan":
        doc = json.loads(text)
        return ChunkPlan(
            total=doc["I"],
            train_len=doc["T"],
            first_len=doc["F"],
            min_last=doc["L"],
            chunk_width=doc["C"],
            num_middle=doc["num_middle"],
            last_span=tuple(doc["last_span"]),
            quotient=doc["N"],
            remainder=doc["M"],
        )


def dynamic_split(
    total: int,
    train_len: int,
    first_len: int = 100,
    min_last: int = 512,
    rest_max: int = 200,
) -> ChunkPlan:
    """Plan the chunk layout for an input of `total` tokens.

    With x = I - L - F and a full middle width of T - F, the quotient
    N = x // (T - F) and remainder M = x mod (T - F) decide the shape: a small
    remainder (M < rest_max) keeps full-width middles and is absorbed into the
    last chunk, otherwise the middle region is re-divided into N + 1 equal
    chunks.  An input of at most F + L tokens cannot be chunked and is
    rejected.
    """
    if train_len <= first_len:
        raise ValueError(f"train_len must exceed first_len ({train_len} <= {first_len})")
    if first_len < 1 or min_last < 1 or rest_max < 1:
        raise ValueError("first_len, min_last and rest_max must be positive")
    if total <= min_last + first_len:
        raise ValueError(
            f"input of {total} tokens is too short to chunk: chunking needs more than the "
            f"first+last budget ({first_len}+{min_last})"
        )

    x = total - min_last - first_len
    full = train_len - first_len
    quotient, remainder = divmod(x, full)

    if remainder < rest_max:
        width = full
        num_middle = quotient
        last_len = min_last + remainder
    else:
        width = x // (quotient + 1)
        num_middle = quotient + 1
        last_len = min_last + (x - num_middle * width)

    last_start = first_len + num_middle * width
    plan = ChunkPlan(
        total=total,
        train_len=train_len,
        first_len=first_len,
        min_last=min_last,
        chunk_width=width,
        num_middle=num_middle,
        last_span=(last_start, total),
        quotient=quotient,
        remainder=remainder,
    )
    assert plan.last_len == last_len and plan.last_len >= min_last
    assert first_len + width <= train_len
    return plan


def chunk_spans(plan: ChunkPlan) -> list[tuple[int, int]]:
    """Ordered, disjoint spans covering [0, I): first, middles, last."""
    spans = [(0, plan.first_len)]
    start = plan.first_len
    for _ in range(plan.num_middle):
        spans.append((start, start + plan.chunk_width))
        start += plan.chunk_width
    spans.append(plan.last_span)
    return spans
