"""The benchmark's workloads: set-up, one round of operations, and its checks.

Each workload is a closed loop: one caller in one process runs whole rounds
back to back.  A round of a pipeline workload is one prompt: ``prefill``
followed by DECODE_STEPS greedy ``decode_step`` calls.  A round of the
theory workload is one sweep of the 34 threshold scans.  The program sees
only the generated inputs; every output is checked against ``reference``.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import reference as ref

# ROADMAP reference config "REF"
REF_MODEL = dict(d=64, n_heads=4, n_layers=4, vocab=256, seed=0)
TRAIN_LEN, CAP, TREAD, FIRST_LEN, MIN_LAST, REST_MAX = 1024, 512, 50, 100, 512, 200
DECODE_STEPS = 16
TOL = 1e-9


@dataclass
class Round:
    """What one round did: per-operation times, failures and wrong outputs."""

    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)  # operations that raised or could not run
    wrong: list[str] = field(default_factory=list)   # outputs of completed operations that failed a check
    round_s: float = 0.0
    prefill_s: list[float] = field(default_factory=list)
    decode_s: list[float] = field(default_factory=list)
    report: object = None          # RunReport of the prefill, for the stage split
    prefill_t0: float = 0.0


def cells_by_kind(report) -> dict[str, int]:
    """Score cells a prefill computed per stage kind, from its RunReport."""
    cells: dict[str, int] = {}
    for chunk in report.chunks:
        cells[chunk.kind] = cells.get(chunk.kind, 0) + chunk.cells
    return cells


def _median(xs) -> float:
    """Median of the samples, NaN when operations failed and left none."""
    xs = list(xs)
    return statistics.median(xs) if xs else float("nan")


def _max_err(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


class PipelineWorkload:
    """REF on one generated prompt, then greedy decode."""

    def __init__(self, name: str, prompt_len: int, warmup_len: int):
        self.name = name
        self.prompt_len = prompt_len
        # the warm-up prompt is shorter but takes the same path: fallback for a
        # prompt within the window, first/middle/last chunks for one beyond it
        self.warmup_len = warmup_len

    def setup(self, seed: int) -> None:
        from weavepe import model, pipeline
        from weavepe.pe_core import Scheme, WeaveParams

        self.weights = model.random_model(**REF_MODEL)
        self.config = pipeline.MesaConfig(
            train_len=TRAIN_LEN,
            weave=WeaveParams(scheme=Scheme.STAIR, cap=CAP, tread=TREAD),
            first_len=FIRST_LEN,
            min_last=MIN_LAST,
            rest_max=REST_MAX,
        )
        rng = np.random.default_rng(seed)
        vocab = self.weights.vocab_size
        self.tokens = rng.integers(1, vocab, size=self.prompt_len).tolist()
        warm = rng.integers(1, vocab, size=self.warmup_len).tolist()
        self._generate(warm, steps=2)

    def layers(self):
        return self.weights.layers

    def prepare(self) -> None:
        """Compute the reference outputs for this run's prompt (untimed)."""
        from weavepe.splitter import dynamic_split

        n = self.prompt_len + 1
        self.plan = None if n <= TRAIN_LEN else dynamic_split(n, TRAIN_LEN, FIRST_LEN, MIN_LAST, REST_MAX)
        self.ref_prefill, self.ref_ids, self.ref_steps = ref.reference_generation(
            self.weights, self.tokens, TRAIN_LEN, CAP, TREAD, self.plan, DECODE_STEPS
        )
        self.cells = ref.plan_cells(self.plan, n)

    def _generate(self, tokens, steps: int):
        """Prefill then greedy decode; returns the Round and the outputs to check."""
        from weavepe import pipeline

        out = Round(attempted=1 + steps)
        t0 = out.prefill_t0 = time.perf_counter()
        try:
            pre = pipeline.prefill(tokens, self.weights, self.config)
        except Exception as exc:  # a program fault: the whole round fails
            out.failed = out.attempted
            out.errors.append(f"prefill raised {exc!r}")
            out.round_s = time.perf_counter() - t0
            return out, None
        out.prefill_s.append(time.perf_counter() - t0)
        out.report = pre.report
        logits, cache = pre.logits, pre.cache
        ids, step_logits = [], []
        for k in range(steps):
            nxt = int(np.argmax(logits))
            ids.append(nxt)
            ta = time.perf_counter()
            try:
                logits, cache = pipeline.decode_step(cache, nxt, self.weights, self.config)
            except Exception as exc:  # this step and the rest of the round fail
                out.failed = steps - k
                out.errors.append(f"decode step {k} raised {exc!r}")
                break
            out.decode_s.append(time.perf_counter() - ta)
            step_logits.append(logits)
        out.round_s = time.perf_counter() - t0
        return out, (pre, ids, step_logits, cache)

    def run_round(self) -> Round:
        out, outputs = self._generate(self.tokens, DECODE_STEPS)
        if outputs is not None:
            self._check(out, *outputs)
        return out

    def _check(self, out: Round, pre, ids, step_logits, cache) -> None:
        wrong = out.wrong
        n = self.prompt_len + 1
        err = _max_err(pre.logits, self.ref_prefill)
        if err > TOL:
            wrong.append(f"prefill logits off the reference by {err:.3g}")
        for k, (got, want) in enumerate(zip(step_logits, self.ref_steps)):
            err = _max_err(got, want)
            if err > TOL:
                wrong.append(f"decode step {k} logits off the reference by {err:.3g}")
        if ids != self.ref_ids[: len(ids)]:
            wrong.append(f"greedy ids {ids} differ from the reference {self.ref_ids}")
        if not out.failed and not np.array_equal(cache.indices, np.arange(n + DECODE_STEPS)):
            wrong.append("cache does not hold positions 0..n+steps-1 in order")
        report = pre.report
        if self.plan is None:
            if not report.fallback or report.plan is not None:
                wrong.append("a prompt within the window did not take the single pass")
            return
        if report.fallback or report.plan != self.plan:
            wrong.append("chunk plan differs from dynamic_split's")
        cells = cells_by_kind(report)
        if cells != self.cells:
            wrong.append(f"stage cells {cells} differ from the plan's {self.cells}")
        last = report.chunks[-1]
        want = ref.last_chunk_max_distance(n, CAP, TREAD)
        if last.kind != "last" or last.max_pe_distance != want or want > TRAIN_LEN - 1:
            wrong.append(f"last chunk max_pe_distance {last.max_pe_distance}, expected {want} <= {TRAIN_LEN - 1}")

    @staticmethod
    def summarize(rounds: list[Round]) -> dict[str, float]:
        return {
            "prefill_s": _median(s for r in rounds for s in r.prefill_s),
            "decode_ms_per_token": 1e3 * _median(s for r in rounds for s in r.decode_s),
            "scan_s": _median(r.round_s for r in rounds),
        }

    @staticmethod
    def decode_samples(rounds: list[Round]) -> list[float]:
        return [1e3 * s for r in rounds for s in r.decode_s]


@dataclass(frozen=True)
class ScanSpec:
    kind: str          # "theorem1" | "theorem2" | "capped" | "stair"
    window: int        # M
    threshold: float   # H
    cap: int = 2       # N (TheoryConfig's defaults where the kind has no weave)
    tread: int = 1     # E

    @property
    def ceiling(self) -> int:
        if self.kind in ("theorem1", "theorem2"):
            return ref.MAX_SCAN
        return ref.scan_ceiling(self.window, self.cap, self.tread if self.kind == "stair" else None)


def scan_specs() -> list[ScanSpec]:
    """The 34 scans of acceptance criteria 1-3."""
    specs = [
        ScanSpec(kind, m, h)
        for kind in ("theorem1", "theorem2")
        for m in (4, 8, 32, 128)
        for h in (0.0, 1.0)
    ]
    for n in (2, 4, 8):
        for mult in (4, 8):
            specs.append(ScanSpec("capped", mult * n, 0.0, n))
            specs += [ScanSpec("stair", mult * n, 0.0, n, e) for e in (2, 5)]
    return specs


class TheoryWorkload:
    """The threshold scans: dot and additive families on the dense forward path."""

    name = "theory-scan"
    warmup_t = 32

    def __init__(self):
        self.specs = scan_specs()
        self.positions = sum(s.ceiling for s in self.specs)

    def setup(self, seed: int) -> None:
        from weavepe import theory

        build = {
            "theorem1": theory.build_theorem1,
            "theorem2": theory.build_theorem2,
            "capped": theory.build_theorem3,
            "stair": theory.build_corollary,
        }
        self.models = []
        for s in self.specs:
            cfg = theory.TheoryConfig(
                window=s.window, threshold=s.threshold, cap=s.cap, tread=s.tread, t_max=s.ceiling
            )
            self.models.append(build[s.kind](cfg))
        # the seed draws the order the scans run in
        self.order = np.random.default_rng(seed).permutation(len(self.specs)).tolist()
        seen = set()
        for i in self.order:
            if self.specs[i].kind not in seen:
                seen.add(self.specs[i].kind)
                theory.threshold_scan(self.models[i], t_max=min(self.warmup_t, self.specs[i].ceiling))

    def layers(self):
        return [layer for m in self.models for layer in m.weights.layers]

    def prepare(self) -> None:
        """Closed forms for every scan, from (M, H, N, E) alone (untimed)."""
        self.expected = []
        for s in self.specs:
            ts = np.arange(1, s.ceiling + 1, dtype=np.float64)
            if s.kind in ("theorem1", "theorem2"):
                self.expected.append((s.window / ts - 1.0 + s.threshold, None))
                continue
            d = np.arange(s.ceiling)
            woven = np.minimum(d, s.cap) if s.kind == "capped" else ref.stair(d, s.cap, s.tread)
            alpha1 = ref.first_token_weight(woven.astype(np.float64), s.ceiling)
            self.expected.append((s.threshold + alpha1 * s.window - 1.0, alpha1))

    def run_round(self) -> Round:
        from weavepe import theory

        out = Round(attempted=len(self.specs))
        t0 = time.perf_counter()
        for i in self.order:
            ta = time.perf_counter()
            try:
                rep = theory.threshold_scan(self.models[i])
            except Exception as exc:
                out.failed += 1
                out.errors.append(f"scan {self.specs[i]} raised {exc!r}")
                continue
            dt = time.perf_counter() - ta
            if self.specs[i].kind == "theorem2":
                out.prefill_s.append(dt)
            self._check(self.specs[i], self.expected[i], rep, out.wrong)
        out.round_s = time.perf_counter() - t0
        return out

    @staticmethod
    def _check(s: ScanSpec, expected, rep, wrong: list[str]) -> None:
        value, alpha1 = expected
        ts = np.arange(1, s.ceiling + 1)
        if not np.array_equal(rep.ts, ts):
            wrong.append(f"{s}: scanned t = {rep.ts[0]}..{rep.ts[-1]}, expected 1..{s.ceiling}")
            return
        err = _max_err(rep.observed, value)
        if err > TOL:
            wrong.append(f"{s}: observed off the closed form by {err:.3g}")
        h = s.threshold
        if alpha1 is None:
            below = np.nonzero(rep.observed <= h + TOL)[0]
            crossing = int(ts[below[0]]) if below.size else None
            if crossing != s.window or rep.crossing != s.window:
                wrong.append(f"{s}: crossing at {crossing} (reported {rep.crossing}), expected {s.window}")
            return
        beyond = ts > s.window
        if not beyond.any():
            wrong.append(f"{s}: empty rescue range (M, {s.ceiling}]")
        if not np.all(rep.observed[beyond] > h):
            wrong.append(f"{s}: o_t <= H inside (M, {s.ceiling}]")
        if not np.all(alpha1[beyond] > 1.0 / ts[beyond]):
            wrong.append(f"{s}: first-token weight <= 1/t inside (M, {s.ceiling}]")

    def summarize(self, rounds: list[Round]) -> dict[str, float]:
        scan = _median(r.round_s for r in rounds)
        return {
            "prefill_s": _median(s for r in rounds for s in r.prefill_s),
            "decode_ms_per_token": 1e3 * scan / self.positions,
            "scan_s": scan,
        }

    @staticmethod
    def decode_samples(rounds: list[Round]) -> list[float]:
        return []


WORKLOADS = {
    "in-window": lambda: PipelineWorkload("in-window", prompt_len=1000, warmup_len=128),
    "long-context": lambda: PipelineWorkload("long-context", prompt_len=16384, warmup_len=1024),
    "theory-scan": TheoryWorkload,
}
