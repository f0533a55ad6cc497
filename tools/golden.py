"""Bit-identity check of two source trees: the same cases, run by each, array by array.

    python tools/golden.py --baseline-tree ../parent
    python tools/golden.py --baseline-tree ../parent --cases forward,chunked --atol 1e-12

Each tree runs the cases in a subprocess of its own, with its own ``src``
first on ``PYTHONPATH``, through weavepe's public functions only, and writes
every output array to one ``.npz`` in a temporary directory.  Both
subprocesses run this file, so both run the same cases.  The two files are
then compared: for each array the tool prints ``equal`` or its largest
absolute and relative difference, and it exits 1 if any array differs by
more than ``--atol`` (0 by default), changes shape or is missing from one
file.  Byte and integer arrays must match exactly.

The cases (``--cases`` picks some by name, comma-separated):

- ``ref-1000``, ``ref-4096``, ``ref-16384``: perfbench's reference config
  (REF) on a seeded prompt of that many tokens: the prefill logits, the
  logits of 16 greedy decode steps, and every layer's and head's cached keys
  and values after them, read through ``KVCache.view``;
- ``forward``: the hidden states, attention outputs and head weights of
  ``forward`` for the dot, additive and rotary families, each with no weave
  and under the stair, rerope, leaky and grouped weaves, each with no mask
  and with a sink mask;
- ``chunked``: chunked ``prefill`` (logits and cache) and ``generate``
  (token ids) of the additive and rotary families, over first, middle and
  last chunks;
- ``scans``: the 34 threshold scans' ``observed`` arrays, the specs read
  from ``perfbench/workloads.scan_specs``;
- ``run-report``: the bytes of a seeded ``weavepe run`` report.

``--dump PATH`` runs the cases in this process, with whatever weavepe it
imports, and writes them to PATH; ``--baseline-tree`` runs it once per tree.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def _workloads():
    """perfbench's workload module, for REF's config and the scan specs (read only)."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def _cache(prefix: str, cache) -> dict[str, np.ndarray]:
    """Every layer's and head's cached keys and values."""
    out = {}
    for layer in range(cache.n_layers):
        for head in range(cache.n_heads):
            k, v = cache.view(layer, head)
            out[f"{prefix}/k/L{layer}H{head}"] = k
            out[f"{prefix}/v/L{layer}H{head}"] = v
    return out


def _ref(n: int) -> dict[str, np.ndarray]:
    from weavepe import MesaConfig, Scheme, WeaveParams, decode_step, prefill, random_model

    w = _workloads()
    weights = random_model(**w.REF_MODEL)
    config = MesaConfig(
        train_len=w.TRAIN_LEN,
        weave=WeaveParams(scheme=Scheme.STAIR, cap=w.CAP, tread=w.TREAD),
        first_len=w.FIRST_LEN,
        min_last=w.MIN_LAST,
        rest_max=w.REST_MAX,
    )
    tokens = np.random.default_rng(SEED).integers(1, weights.vocab_size, size=n).tolist()
    res = prefill(tokens, weights, config)
    logits, cache, steps = res.logits, res.cache, []
    for _ in range(w.DECODE_STEPS):
        logits, cache = decode_step(cache, int(np.argmax(logits)), weights, config)
        steps.append(logits)
    prefix = f"ref-{n}"
    return {f"{prefix}/prefill_logits": res.logits, f"{prefix}/decode_logits": np.array(steps), **_cache(prefix, cache)}


def _forward() -> dict[str, np.ndarray]:
    from weavepe import Scheme, WeaveParams, forward, random_model, sink_mask

    weaves = {
        "none": None,
        "stair": WeaveParams(scheme=Scheme.STAIR, cap=32, tread=4),
        "rerope": WeaveParams(scheme=Scheme.REROPE, cap=40),
        "leaky": WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=24, leak=0.3),
        "grouped": WeaveParams(scheme=Scheme.SELF_EXTEND, neighbor=32, group=4),
    }
    n = 200  # with <bos>: three full row tiles of 64 and a part
    tokens = np.random.default_rng(SEED).integers(1, 16, size=n - 1).tolist()
    out = {}
    for family in ("dot", "additive", "rotary"):
        weights = random_model(d=16, n_heads=2, n_layers=2, vocab=16, seed=3, pe_family=family)
        for name, weave in weaves.items():
            for mask_name, mask in (("none", None), ("sink", sink_mask(n, 4, 64))):
                tr = forward(tokens, weights, weave=weave, mask=mask)
                key = f"forward/{family}/{name}/{mask_name}"
                out[f"{key}/hidden"] = np.array(tr.hidden)
                out[f"{key}/attn"] = np.array(tr.attn)
                out[f"{key}/alphas"] = np.array(tr.alphas)
    return out


def _chunked() -> dict[str, np.ndarray]:
    from weavepe import MesaConfig, Scheme, WeaveParams, generate, prefill, random_model

    config = MesaConfig(
        train_len=64, weave=WeaveParams(scheme=Scheme.STAIR, cap=32, tread=4), first_len=8, min_last=16, rest_max=8
    )
    tokens = np.random.default_rng(SEED).integers(1, 16, size=120).tolist()
    out = {}
    for family in ("additive", "rotary"):
        weights = random_model(d=16, n_heads=4, n_layers=2, vocab=16, seed=3, pe_family=family)
        res = prefill(tokens, weights, config)
        out[f"chunked/{family}/prefill_logits"] = res.logits
        out.update(_cache(f"chunked/{family}", res.cache))
        out[f"chunked/{family}/generate_ids"] = np.array(generate(tokens, weights, config, max_new=8).token_ids)
    return out


def _scans() -> dict[str, np.ndarray]:
    from weavepe import TheoryConfig, build_corollary, build_theorem1, build_theorem2, build_theorem3, threshold_scan

    build = {"theorem1": build_theorem1, "theorem2": build_theorem2, "capped": build_theorem3, "stair": build_corollary}
    out = {}
    for s in _workloads().scan_specs():
        cfg = TheoryConfig(window=s.window, threshold=s.threshold, cap=s.cap, tread=s.tread, t_max=s.ceiling)
        key = f"scans/{s.kind}/M{s.window}/H{s.threshold:g}/N{s.cap}/E{s.tread}"
        out[key] = threshold_scan(build[s.kind](cfg)).observed
    return out


def _run_report() -> dict[str, np.ndarray]:
    from weavepe import cli

    # 601 positions past a 256-token window: first, middle and last chunks
    argv = ["run", "--seed", "1", "--random-tokens", "600", "--T", "256", "--N", "128", "--E", "16"]
    argv += ["--F", "32", "--L", "64", "--M-max", "32", "--max-new", "8"]
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        if cli.main([*argv, "--out", out]) != 0:
            raise RuntimeError(f"weavepe {' '.join(argv)} failed")
        return {"run-report/bytes": np.frombuffer(Path(out, "run_report.json").read_bytes(), dtype=np.uint8)}


CASES = {
    "ref-1000": lambda: _ref(1000),
    "ref-4096": lambda: _ref(4096),
    "ref-16384": lambda: _ref(16384),
    "forward": _forward,
    "chunked": _chunked,
    "scans": _scans,
    "run-report": _run_report,
}


def dump(path, cases) -> None:
    """Run the named cases with the weavepe this process imports, into one .npz at path."""
    arrays = {}
    for name in cases:
        arrays.update(CASES[name]())
    np.savez(path, **arrays)


def _difference(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Largest absolute and relative difference of a from b, unequal
    arrays of the same shape: inf where b is 0 and a is not, where one is
    NaN and the other is not, and for bytes or integers."""
    if a.dtype.kind not in "fc":
        return np.inf, np.inf
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.abs(a - b)
        diff[np.isnan(a) & np.isnan(b)] = 0.0
        diff[a == b] = 0.0  # infinities of one sign
        diff[np.isnan(diff)] = np.inf
        rel = np.where(diff == 0.0, 0.0, diff / np.abs(b))
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def compare(path, baseline, atol: float = 0.0) -> int:
    """Print each array's difference from the baseline's; returns the number
    of arrays above atol, of another shape or in one file only."""
    bad = equal = 0
    with np.load(path) as here, np.load(baseline) as base:
        names = sorted(set(here.files) | set(base.files))
        width = max(map(len, names), default=0)
        for name in names:
            if name not in here.files or name not in base.files:
                line, failed = f"only in {'the baseline' if name in base.files else 'this tree'}", True
            else:
                a, b = here[name], base[name]
                if a.shape != b.shape:
                    line, failed = f"shape {a.shape} against {b.shape}", True
                elif np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"):
                    line, failed = "equal", False
                    equal += 1
                else:
                    err, rel = _difference(a, b)
                    line, failed = f"max abs {err:.3g}, max rel {rel:.3g}", err > atol
            bad += failed
            print(f"{name:<{width}}  {line}{'  FAIL' if failed else ''}")
    print(f"{len(names)} arrays: {equal} equal, {bad} failed at --atol {atol:g}")
    return bad


def _dump_tree(tree: Path, out: Path, cases) -> None:
    """Run --dump in a subprocess that imports weavepe from tree/src, and
    check that it did."""
    src = (tree / "src").resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--dump", str(out), "--cases", ",".join(cases)]
    proc = subprocess.run(cmd, cwd=out.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"the dump of {tree} exited {proc.returncode}")
    imported = Path(proc.stdout.strip().splitlines()[-1])
    if src not in imported.parents:
        raise SystemExit(f"the dump of {tree} imported weavepe from {imported}, not from {src}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--baseline-tree", type=Path, help="the source checkout to compare this one with")
    p.add_argument("--dump", type=Path, help="run the cases in this process into this .npz")
    p.add_argument("--cases", default=",".join(CASES), help=f"comma-separated, of: {', '.join(CASES)}")
    p.add_argument("--atol", type=float, default=0.0, help="largest absolute difference that passes")
    args = p.parse_args(argv)
    cases = args.cases.split(",")
    unknown = [c for c in cases if c not in CASES]
    if unknown or (args.dump is None) == (args.baseline_tree is None):
        p.error(f"unknown cases {unknown}" if unknown else "give one of --dump and --baseline-tree")
    if args.dump is not None:
        dump(args.dump, cases)
        import weavepe

        print(Path(weavepe.__file__).resolve())  # the caller checks which tree ran
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        here, base = Path(tmp, "tree.npz"), Path(tmp, "baseline.npz")
        _dump_tree(ROOT, here, cases)
        _dump_tree(args.baseline_tree, base, cases)
        print(f"{ROOT} against {args.baseline_tree.resolve()}, cases {', '.join(cases)}")
        return 1 if compare(here, base, args.atol) else 0


if __name__ == "__main__":
    sys.exit(main())
