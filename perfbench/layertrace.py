"""Per-layer timing for the traced run.

Each public function is wrapped where its caller looks it up (a module
global, a class attribute, or the ``ff`` of the workload's own layer
objects), so weavepe runs unchanged while the wrappers are installed.
Times are inclusive: ``model.forward.s`` contains the ``scores_rotary``,
``position_matrix``, ``AttentionMask.dense`` and ``ff`` calls made inside it.

The cost of tracing is measured directly, not as traced minus untraced time
(host noise between rounds is larger than the effect): ``wrapper_cost_s``
times one wrapped no-op call against the bare call, and each scope
(``prefill``, ``decode_step``, ``threshold_scan``) counts the wrapped calls
made inside it, so the added seconds are calls x cost per call.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

MIB = float(1 << 20)

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("pipeline.stage.first_s", "s"),
    ("pipeline.stage.middle_s", "s"),
    ("pipeline.stage.last_s", "s"),
    ("pipeline.cells.first", "count"),
    ("pipeline.cells.middle", "count"),
    ("pipeline.cells.last", "count"),
    ("pipeline.decode_step.calls", "count"),
    ("pe_core.scores_rotary.s", "s"),
    ("pe_core.scores_rotary.calls", "count"),
    ("pe_core.scores_rotary.pair_cells", "count"),
    ("pe_core.rotate_by_coords.s", "s"),
    ("pe_core.rotate_by_coords.calls", "count"),
    ("pe_core.rotate_by_coords.columns", "count"),
    ("pe_core.weave_stair.s", "s"),
    ("pe_core.weave_stair.calls", "count"),
    ("pe_core.position_matrix.s", "s"),
    ("model.forward.s", "s"),
    ("model.forward.calls", "count"),
    ("model.KVCache.view.s", "s"),
    ("model.KVCache.view.calls", "count"),
    ("model.KVCache.view.mib_out", "MiB"),
    ("model.KVCache.append.s", "s"),
    ("model.KVCache.append.calls", "count"),
    ("model.ff.s", "s"),
    ("masks.AttentionMask.dense.s", "s"),
    ("theory.TheoryModel.run.s", "s"),
    ("theory.TheoryModel.predict.s", "s"),
    ("theory.PositionRecoveryFF.s", "s"),
    ("theory.threshold_scan.calls", "count"),
    ("splitter.dynamic_split.calls", "count"),
    ("trace.prefill_s", "s"),
    ("trace.decode_ms_per_token", "ms"),
    ("trace.overhead.prefill_pct", "%"),
    ("trace.overhead.decode_pct", "%"),
]


def _pair_cells(args, out):
    q, k = args[0], args[1]  # (m, h) queries, (n, h) keys
    return {"pair_cells": q.shape[0] * k.shape[0] * (q.shape[1] // 2)}


def _columns(args, out):
    return {"columns": args[0].shape[1]}


def _mib_out(args, out):
    return {"mib_out": (out[0].nbytes + out[1].nbytes) / MIB}


class LayerTrace:
    """Installs timing wrappers on entry and restores the originals on exit.

    ``totals`` accumulates seconds (``<key>.s``), calls and counts across
    every traced call, and for each scope key ``<key>.inner``, the wrapped
    calls made inside it, itself included; ``marks`` holds the end time of
    each ``KVCache.append``, which closes one prefill chunk.
    """

    SCOPES = ("pipeline.prefill", "pipeline.decode_step", "theory.threshold_scan")

    def __init__(self, layers):
        from weavepe import masks, model, pe_core, pipeline, theory

        self.totals: dict[str, float] = defaultdict(float)
        self.marks: list[float] = []
        self.calls = 0  # wrapped calls so far
        self._targets = [
            (pipeline, "rotate_by_coords", "pe_core.rotate_by_coords", _columns),
            (model, "scores_rotary", "pe_core.scores_rotary", _pair_cells),
            (pe_core, "weave_stair", "pe_core.weave_stair", None),
            (model, "position_matrix", "pe_core.position_matrix", None),
            (pipeline, "forward", "model.forward", None),
            (theory, "forward", "model.forward", None),
            (model.KVCache, "view", "model.KVCache.view", _mib_out),
            (model.KVCache, "append", "model.KVCache.append", None),
            (masks.AttentionMask, "dense", "masks.AttentionMask.dense", None),
            (theory.TheoryModel, "run", "theory.TheoryModel.run", None),
            (theory.TheoryModel, "predict", "theory.TheoryModel.predict", None),
            (theory, "threshold_scan", "theory.threshold_scan", None),
            (pipeline, "dynamic_split", "splitter.dynamic_split", None),
            (pipeline, "decode_step", "pipeline.decode_step", None),
            (pipeline, "prefill", "pipeline.prefill", None),
        ]
        for layer in layers:
            key = "theory.PositionRecoveryFF" if isinstance(layer.ff, theory.PositionRecoveryFF) else "model.ff"
            self._targets.append((layer, "ff", key, None))
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, key: str, count):
        totals, marks = self.totals, self.marks
        is_append = key == "model.KVCache.append"
        is_scope = key in self.SCOPES

        def timed(*args, **kwargs):
            self.calls += 1
            c0 = self.calls
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            totals[key + ".s"] += t1 - t0
            totals[key + ".calls"] += 1
            if is_scope:
                totals[key + ".inner"] += self.calls - c0 + 1
            if count is not None:
                for name, value in count(args, out).items():
                    totals[f"{key}.{name}"] += value
            if is_append:
                marks.append(t1)
            return out

        return timed

    def wrapper_cost_s(self, calls: int = 20000, repeats: int = 7) -> float:
        """Seconds one wrapper adds to a call: wrapped no-op minus bare no-op, median of repeats."""

        def noop():
            return None

        timed = self._wrap(noop, "calibrate", None)
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                timed()
            costs.append(max(0.0, (time.perf_counter() - t1) - (t1 - t0)) / calls)
        self.calls -= calls * repeats
        for k in [k for k in self.totals if k.startswith("calibrate.")]:
            del self.totals[k]
        return statistics.median(costs)

    def __enter__(self) -> "LayerTrace":
        for owner, attr, key, count in self._targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, key, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def stage_split(rnd, marks: list[float]) -> dict[str, float]:
    """Seconds per prefill stage: the time between successive cache appends.

    Each chunk ends with one ``KVCache.append``; the stage kind of the k-th
    append is the kind of the k-th entry of ``RunReport.chunks``.
    """
    out = {"first": 0.0, "middle": 0.0, "last": 0.0}
    if rnd.report is None:
        return out
    kinds = [c.kind for c in rnd.report.chunks]
    ends = [t for t in marks if t > rnd.prefill_t0][: len(kinds)]
    start = rnd.prefill_t0
    for kind, end in zip(kinds, ends):
        if kind in out:
            out[kind] += end - start
        start = end
    return out

