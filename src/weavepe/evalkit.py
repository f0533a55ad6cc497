"""Synthetic evaluation assets: passkey corpus, retrieval scoring, exact
attention-cell accounting, and a small wall-clock/memory bench harness.

Retrieval accuracy is meaningless on random weights, so the corpus checks are
structural: the templates, the double occurrence of the key, and the token
budget.  Cell counts are exact integers from closed-form sums, never
estimates.
"""

from __future__ import annotations

import json
import re
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from weavepe.masks import lambda_mask, sink_mask
from weavepe.model import _forward, random_model
from weavepe.pe_core import Scheme, WeaveParams
from weavepe.pipeline import MesaConfig, _fits_window, generate
from weavepe.splitter import dynamic_split

TASK_DESCRIPT = (
    "There is an important info hidden inside a lot of irrelevant text. "
    "Find it and memorize it. I will quiz you about the important information there."
)
DEFAULT_CONTENT = (
    "The grass is green. The sky is blue. The sun is yellow. "
    "Here we go. There and back again."
)
KEY_CONTENT = "The pass key is {key}. Remember it. {key} is the pass key."


def _tok(text: str) -> list[str]:
    return text.split()


@dataclass(frozen=True)
class PasskeySample:
    text: str
    key: str
    target_length: int
    key_position: int  # token index where the key sentence starts

    @property
    def token_count(self) -> int:
        return len(_tok(self.text))

    def to_json(self) -> str:
        return json.dumps(
            {
                "text": self.text,
                "key": self.key,
                "target_length": self.target_length,
                "key_position": self.key_position,
            },
            sort_keys=True,
        )


def gen_passkey(
    target_length: int,
    key: str | None = None,
    position_fraction: float | None = None,
    seed: int = 0,
) -> PasskeySample:
    """One retrieval sample: task description, filler, and the key sentence
    inserted at the fractional position.  Deterministic in all arguments;
    the seed draws the key and position when they are not given.
    """
    rng = np.random.default_rng(seed)
    if key is None:
        key = "".join(str(d) for d in rng.integers(0, 10, size=5))
    if position_fraction is None:
        position_fraction = float(rng.uniform(0.05, 0.95))
    if not key.isdigit():
        raise ValueError("key must be a digit string")
    if not 0.0 <= position_fraction <= 1.0:
        raise ValueError("position_fraction must be in [0, 1]")

    head = len(_tok(TASK_DESCRIPT))
    filler = len(_tok(DEFAULT_CONTENT))
    key_sentence = KEY_CONTENT.format(key=key)
    tail = len(_tok(key_sentence))
    if target_length < head + tail:
        raise ValueError(f"target_length {target_length} shorter than the mandatory parts")

    repeats = max(0, round((target_length - head - tail) / filler))
    gap = round(position_fraction * repeats)
    parts = [TASK_DESCRIPT] + [DEFAULT_CONTENT] * gap + [key_sentence] + [DEFAULT_CONTENT] * (repeats - gap)
    return PasskeySample(
        text=" ".join(parts),
        key=key,
        target_length=target_length,
        key_position=head + gap * filler,
    )


def gen_corpus(lengths, per_length: int, seed: int = 0) -> list[PasskeySample]:
    """Deterministic corpus: per_length samples at each target length."""
    rng = np.random.default_rng(seed)
    samples = []
    for n in lengths:
        for _ in range(per_length):
            key = "".join(str(d) for d in rng.integers(0, 10, size=5))
            frac = float(rng.uniform(0.05, 0.95))
            samples.append(gen_passkey(n, key=key, position_fraction=frac))
    return samples


def score_retrieval(generated_text: str, key: str) -> bool:
    """True iff the key appears in the text as a standalone digit run."""
    return re.search(rf"(?<![0-9]){re.escape(key)}(?![0-9])", generated_text) is not None


def count_key_occurrences(text: str, key: str) -> int:
    return len(re.findall(rf"(?<![0-9]){re.escape(key)}(?![0-9])", text))


def _tri(n: int) -> int:
    return n * (n + 1) // 2


def count_cells(method: str, n: int, params: dict | None = None) -> int:
    """Exact number of attention score entries a method computes at length n.

    vanilla: full causal triangle.  rerope_dual: two attention matrices, so
    twice vanilla.  lambda/sink: the masked cell count.  mesa: the sum over
    chunks of each chunk's context cells (vanilla for the single pass).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = params or {}
    if method == "vanilla":
        return _tri(n)
    if method == "rerope_dual":
        return 2 * _tri(n)
    if method == "lambda":
        return lambda_mask(n, p.get("n_global", 100), p.get("n_local", p.get("train_len", 4096))).count()
    if method == "sink":
        return sink_mask(n, p.get("x_sinks", 4), p.get("y_recent", p.get("train_len", 4096) - 4)).count()
    if method == "mesa":
        train_len = p.get("train_len", 4096)
        if _fits_window(n - 1, train_len):  # the pipeline's single pass
            return _tri(n)
        plan = dynamic_split(n, train_len, p.get("first_len", 100), p.get("min_last", 512), p.get("rest_max", 200))
        cells = _tri(plan.first_len)
        c = plan.chunk_width
        cells += plan.num_middle * (_tri(c) + c * plan.first_len)
        ls = plan.last_span[0]
        cells += _tri(n) - _tri(ls)  # sum of (q+1) for q in [ls, n)
        return cells
    raise ValueError(f"unknown method {method}")


#: the toy pipeline config bench_run (and weavepe bench) runs by default
BENCH_CONFIG = MesaConfig(
    train_len=256,
    weave=WeaveParams(scheme=Scheme.STAIR, cap=64, tread=8),
    first_len=16,
    min_last=32,
    rest_max=16,
)


def bench_run(
    method: str,
    n_list,
    repeats: int = 1,
    config: MesaConfig = BENCH_CONFIG,
    seed: int = 0,
) -> list[dict]:
    """Best-of-repeats prefill and decode seconds, the allocation peak, and
    exact cell counts on the tiny model: one forward pass for vanilla, and
    for mesa the report of generate with four decode steps.

    The peak comes from one more pass under tracemalloc that is not timed,
    so no timed call pays for the allocation tracing.
    """
    if method not in ("vanilla", "mesa"):
        raise ValueError(f"unknown bench method {method}")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    weights = random_model(d=8, n_heads=2, n_layers=1, vocab=32, seed=seed)

    def run(tokens) -> tuple[float, float, int]:
        """(prefill seconds, decode seconds, prefill cells) of one pass."""
        if method == "vanilla":
            # one pass that keeps no head weights; the baseline has no cached decode path
            t0 = time.perf_counter()
            _forward(tokens, weights, None, None, alphas=None)
            return time.perf_counter() - t0, 0.0, count_cells("vanilla", len(tokens) + 1)
        report = generate(tokens, weights, config, max_new=4).report
        return report.prefill_seconds, report.decode_seconds, report.total_cells

    rng = np.random.default_rng(seed)
    rows = []
    for n in n_list:
        tokens = rng.integers(1, weights.vocab_size, size=n - 1).tolist()
        timed = [run(tokens) for _ in range(repeats)]
        tracemalloc.start()
        try:
            run(tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows.append(
            {
                "method": method,
                "n": n,
                "prefill_seconds": min(t[0] for t in timed),
                "decode_seconds": min(t[1] for t in timed),
                "peak_bytes": peak,
                "cells": timed[-1][2],
            }
        )
    return rows


def bench_table_csv(rows: list[dict]) -> str:
    """The deterministic columns of bench_run rows.  Timings and the
    allocation peak stay out of files: the peak depends on how the pool's
    threads overlap their tiles, so it varies between identical runs."""
    cols = ["method", "n", "cells"]
    lines = [",".join(cols)]
    for r in rows:
        lines.append(",".join(str(r[c]) for c in cols))
    return "\n".join(lines) + "\n"
