"""weavepe benchmark: one workload per process, checked against a reference.

    python3 perfbench/run.py --workload in-window --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports weavepe from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics (see
README.md).  ``--setup-only`` stops after the set-up and prints its time:
the run starts itself that way to time cold set-ups in fresh processes.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation ran and matched the reference.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()

# one BLAS thread, fixed before numpy loads, so the numbers measure the program
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUPS = 5          # cold set-ups per run, this process and fresh ones; setup_s is their median
MIN_ROUNDS = 3      # timed rounds at least, so a median ignores one outlier
MIN_TRACE_ROUNDS = 2  # per side (untraced, traced) in a traced run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["in-window", "long-context", "theory-scan"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cold_setup_s(args) -> float:
    """Import time plus one set-up, measured by a fresh process of this script."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up process exited {proc.returncode} without a result")
    return float(json.loads(lines[-1])["setup_s"])


def import_weavepe():
    """Import weavepe from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    import weavepe

    if not os.path.abspath(weavepe.__file__).startswith(os.path.join(SRC, "weavepe") + os.sep):
        raise ImportError(f"weavepe loaded from {weavepe.__file__}, not from {SRC}")


def tail_percentile(samples: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n == 0:
        return "n/a (no samples)"
    med = statistics.median(samples)
    if n < 40:
        return f"median {med:.4g} (n={n})"
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    tail = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"median {med:.4g}, p{p} {tail:.4g} (n={n})"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_weavepe()
    except ImportError as exc:
        print(f"cannot import weavepe from {SRC}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START

    # a set-up is cold: imports, construction, and the warm-up round, which
    # pays for any cache or lazy table the program builds on first use
    t0 = time.perf_counter()
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    setup_times = [import_s + time.perf_counter() - t0]
    if args.setup_only:
        print(json.dumps({"setup_s": setup_times[0]}))
        return 0
    if args.trace == 0:
        setup_times += [cold_setup_s(args) for _ in range(SETUPS - 1)]
    wl.prepare()

    checked = []
    if args.trace == 0:
        tracemalloc.start()
        checked.append(wl.run_round())
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
            rounds.append(wl.run_round())
        checked += rounds
        e2e = {"setup_s": statistics.median(setup_times), **wl.summarize(rounds)}
        e2e["peak_alloc_mib"] = peak / float(1 << 20)
        units = {"setup_s": "s", "prefill_s": "s", "decode_ms_per_token": "ms", "scan_s": "s", "peak_alloc_mib": "MiB"}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
        print(f"{wl.name}: {len(rounds)} timed rounds; decode ms/token {tail_percentile(wl.decode_samples(rounds))}")
    else:
        metrics = traced_run(wl, args.seconds, checked)

    attempted = sum(r.attempted for r in checked)
    failed = sum(r.failed for r in checked)
    for e in dict.fromkeys(e for r in checked for e in r.errors):
        print(f"FAILED: {e}", file=sys.stderr)
    for w in dict.fromkeys(w for r in checked for w in r.wrong):
        print(f"CHECK FAILED: {w}", file=sys.stderr)
    correct = not any(r.wrong for r in checked)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted} operations, {failed} failed, outputs {'correct' if correct else 'WRONG'}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


def traced_run(wl, seconds: float, checked: list) -> dict[str, dict]:
    """Alternate untraced and traced rounds; per-layer values are per-round medians."""
    from layertrace import PER_LAYER, LayerTrace, stage_split
    from workloads import cells_by_kind

    tracer = LayerTrace(wl.layers())
    per_call = tracer.wrapper_cost_s()
    plain, traced, per_round = [], [], []
    deadline = time.perf_counter() + seconds
    while min(len(plain), len(traced)) < MIN_TRACE_ROUNDS or time.perf_counter() < deadline:
        if len(plain) <= len(traced):
            plain.append(wl.run_round())
            continue
        before = dict(tracer.totals)
        tracer.marks.clear()
        with tracer:
            rnd = wl.run_round()
        traced.append(rnd)
        row = {k: v - before.get(k, 0.0) for k, v in tracer.totals.items()}
        for kind, s in stage_split(rnd, tracer.marks).items():
            row[f"pipeline.stage.{kind}_s"] = s
        cells = cells_by_kind(rnd.report) if rnd.report is not None else {}
        for kind in ("first", "middle", "last"):
            row[f"pipeline.cells.{kind}"] = cells.get(kind, 0)
        per_round.append(row)
    checked += plain + traced

    untraced_e2e, traced_e2e = wl.summarize(plain), wl.summarize(traced)
    # overhead: wrapped calls per operation x the wrapper's own cost, against
    # the untraced operation; on theory-scan both are the whole sweep's share
    t = tracer.totals

    def inner_per_call(key: str) -> float:
        return t.get(key + ".inner", 0.0) / max(t.get(key + ".calls", 0.0), 1.0)

    if t.get("pipeline.prefill.calls"):
        prefill_pct = 100.0 * per_call * inner_per_call("pipeline.prefill") / untraced_e2e["prefill_s"]
        decode_pct = 100.0 * per_call * inner_per_call("pipeline.decode_step") \
            / (1e-3 * untraced_e2e["decode_ms_per_token"])
    else:
        prefill_pct = decode_pct = 100.0 * per_call * t["theory.threshold_scan.inner"] / len(traced) \
            / untraced_e2e["scan_s"]
    values = {
        "trace.prefill_s": traced_e2e["prefill_s"],
        "trace.decode_ms_per_token": traced_e2e["decode_ms_per_token"],
        "trace.overhead.prefill_pct": prefill_pct,
        "trace.overhead.decode_pct": decode_pct,
    }
    out = {}
    for name, unit in PER_LAYER:
        value = values.get(name)
        if value is None:
            value = statistics.median(row.get(name, 0.0) for row in per_round)
            if unit == "count" and float(value).is_integer():
                value = int(value)
        out[name] = {"value": value, "unit": unit}
    print(
        f"{wl.name}: {len(plain)} untraced and {len(traced)} traced rounds; "
        f"untraced prefill_s {untraced_e2e['prefill_s']:.4g}, "
        f"decode_ms_per_token {untraced_e2e['decode_ms_per_token']:.4g}; "
        f"one wrapper adds {1e6 * per_call:.3g} us per call"
    )
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(3)
