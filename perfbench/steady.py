"""Run every workload several times and report each metric's spread.

    python3 perfbench/steady.py --runs 10 --out bench_results/steady.json
    python3 perfbench/steady.py --runs 10 --baseline-tree ../parent

Each run is a fresh ``run.py`` process with its own seed (seed0, seed0+1,
...), one at a time, the workloads interleaved so that slow drift of the
machine touches all of them alike.  Every run lasts BENCHMARK.json's
``run_seconds`` and every workload it lists is run.  For every end-to-end
metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
against the bound.

``--baseline-tree`` names a second source checkout (the parent commit, say)
and runs its ``perfbench/run.py`` on the same seeds, each of its runs next
to the matching run here, first and second in turn, so that both sets see
the same host.  It then prints each median's change against the baseline's.
A change is UNRESOLVED when either set's own spread exceeds the bound: the
medians then say nothing within the bound.  Compare only sets run together
this way; a host whose speed moves between sessions makes medians from
different sessions incomparable.

Exits 1 if a run failed an operation or gave a wrong output, or if a spread
(setup_s aside) or a baseline change exceeds its bound or is unresolved.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not lines:  # 1: ran, but an operation failed a check
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {proc.returncode} without a result")
    return json.loads(lines[-1])


def summary(runs: list[dict], name: str) -> tuple[float, float, float, float]:
    """Median, q1, q3 and spread (q3 - q1) / median of one metric; NaN if not finite."""
    vals = [r["metrics"][name]["value"] for r in runs]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    spread = (q3 - q1) / med if med else math.nan
    return med, q1, q3, spread


def sets_ok(label: str, runs: list[dict]) -> bool:
    """Every run attempted operations, failed none and gave correct outputs."""
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"{label}: {len(runs)} runs, {sum(r['attempted'] for r in runs)} operations, "
          f"{failed} failed, all correct: {correct}")
    return failed == 0 and correct and all(r["attempted"] > 0 for r in runs)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--out", help="write every run's result here (JSON)")
    p.add_argument("--baseline-tree", help="a second source checkout to run interleaved and compare against")
    args = p.parse_args(argv)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    trees = {"base": os.path.abspath(args.baseline_tree)} if args.baseline_tree else {}
    trees["this"] = ROOT

    results = {t: {w: [] for w in workloads} for t in trees}
    for i in range(args.runs):
        for w in workloads:
            order = list(trees.items())
            for t, root in order[::-1] if i % 2 else order:
                res = run_once(root, w, args.seed0 + i, seconds)
                results[t][w].append(res)
                print(f"{t} {w} seed {args.seed0 + i}: " + ", ".join(
                    f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump({"run_seconds": seconds, "trees": trees, "results": results}, fh, indent=1)

    ok = True
    for w in workloads:
        print()
        for t in trees:
            ok &= sets_ok(f"{t} {w}", results[t][w])
        print(f"  {'metric':<22}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  verdict")
        for name, bound in bounds.items():
            med, q1, q3, spread = summary(results["this"][w], name)
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
            if name == "setup_s":
                verdict += " (not gated)"
            elif not spread <= bound:
                ok = False
            line = f"  {name:<22}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bound:>7.2f}  {verdict}"
            if "base" in trees:
                old, _, _, old_spread = summary(results["base"][w], name)
                change = med / old - 1.0 if old else math.nan
                if not (spread <= bound and old_spread <= bound):
                    line += f"  vs base {change:+.3f} UNRESOLVED (base spread {old_spread:.3f})"
                    ok = False
                else:
                    line += f"  vs base {change:+.3f}" + ("" if change <= bound else " WORSE")
                    ok &= change <= bound
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
