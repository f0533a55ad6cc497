"""Command-line entry point.

Subcommands: gen-positions, plan, verify-theory, run, passkey, bench.  Every
subcommand is deterministic under --seed and writes byte-identical output
files for identical invocations; wall-clock timings go to stdout only.
Failures emit a JSON error record on stderr and a nonzero exit code.

Flag values resolve as: built-in defaults < --config file < WEAVEPE_* env
vars < explicit flags.  Config files use the run-symbol field names
(N, E, F, L, T, M_max, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from weavepe.evalkit import BENCH_CONFIG, bench_run, bench_table_csv, gen_corpus
from weavepe.model import WhitespaceVocab, random_model
from weavepe.pe_core import Scheme, WeaveParams, position_matrix
from weavepe.pipeline import MesaConfig, generate
from weavepe.splitter import dynamic_split
from weavepe.theory import (
    MAX_SCAN,
    TheoryConfig,
    build_corollary,
    build_theorem1,
    build_theorem2,
    build_theorem3,
    scan_cap,
    threshold_scan,
)

ENV_PREFIX = "WEAVEPE_"

#: flags that may be overridden by config file or environment
_CONFIG_KEYS = {
    "N": int,
    "E": int,
    "k_inv": float,
    "heads": int,
    "F": int,
    "L": int,
    "M_max": int,
    "T": int,
    "d": int,
    "layers": int,
    "seed": int,
}


def _apply_overrides(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, then the environment."""
    sources: list[dict] = []
    env = {}
    for key, cast in _CONFIG_KEYS.items():
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            env[key] = cast(raw)
    if env:
        sources.append(env)
    if getattr(args, "config", None):
        with open(args.config) as fh:
            doc = json.load(fh)
        conf = {k: _CONFIG_KEYS[k](v) for k, v in doc.items() if k in _CONFIG_KEYS}
        sources.append(conf)
    for source in sources:  # env first, config as fallback
        for key, value in source.items():
            if getattr(args, key, None) is None and hasattr(args, key):
                setattr(args, key, value)
    return args


def _given(args, **flags) -> dict:
    """{parameter: flag value} for each parameter=flag whose flag was given, so
    an unset flag leaves the parameter to its constructor's default."""
    return {param: getattr(args, flag) for param, flag in flags.items() if getattr(args, flag, None) is not None}


def _scheme(name: str) -> Scheme:
    try:
        return Scheme(name)
    except ValueError:
        raise SystemExit(_fail(f"unknown scheme {name!r}"))


#: weave flags each scheme reads, and its name in messages; identity schemes read none
_WEAVE_FLAGS = {
    Scheme.STAIR: ("stair", ("N", "E")),
    Scheme.REROPE: ("rerope", ("N",)),
    Scheme.LEAKY_REROPE: ("leaky", ("N", "k_inv")),
    Scheme.SELF_EXTEND: ("self-extend", ("W", "G")),
}


def _weave_params(args) -> WeaveParams:
    """The weave of --scheme; a weave flag that the scheme does not read is an error."""
    scheme = _scheme(args.scheme)
    for flag in ("N", "E", "k_inv", "W", "G"):
        if getattr(args, flag, None) is not None and flag not in _WEAVE_FLAGS.get(scheme, ("", ()))[1]:
            readers = "/".join(name for name, flags in _WEAVE_FLAGS.values() if flag in flags)
            raise ValueError(f"{flag} applies to the {readers} scheme, not {scheme.value}")
    return WeaveParams(scheme=scheme, **_given(args, cap="N", tread="E", leak="k_inv", neighbor="W", group="G"))


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _fail(message: str, code: int = 1) -> int:
    sys.stderr.write(json.dumps({"error": message, "exit_code": code}, sort_keys=True) + "\n")
    return code


def cmd_gen_positions(args) -> int:
    params = _weave_params(args)
    pm = position_matrix(params, args.n)
    out = _outdir(args)
    stem = f"positions_{params.scheme.value}_n{args.n}"
    (out / f"{stem}.csv").write_text(pm.to_csv())
    (out / f"{stem}.json").write_text(pm.to_text())
    print(f"wrote {out / (stem + '.csv')}")
    return 0


def cmd_plan(args) -> int:
    if args.T is None:
        raise ValueError("plan needs --T (or a config/WEAVEPE_T override)")
    plan = dynamic_split(args.I, args.T, **_given(args, first_len="F", min_last="L", rest_max="M_max"))
    text = plan.to_json()
    if args.out:
        out = _outdir(args)
        (out / f"plan_I{args.I}_T{args.T}.json").write_text(text)
    sys.stdout.write(text)
    return 0


_THEOREMS = {
    "1": build_theorem1,
    "2": build_theorem2,
    "3": build_theorem3,
    "corollary": build_corollary,
}


def cmd_verify_theory(args) -> int:
    if args.theorem == "corollary" and args.E is None:
        raise ValueError("the corollary needs --E, the staircase tread (E=1 is the identity weave: theorem 2)")
    # theorems 1 and 2 read no cap, and only the corollary reads the tread
    cfg = TheoryConfig(window=args.M, threshold=args.H, **_given(args, cap="N", tread="E", t_max="t_max"))
    if args.theorem in ("3", "corollary") and args.t_max is None:
        # each weave is scanned to its own closed-form ceiling
        tread = cfg.tread if args.theorem == "corollary" else None
        cfg = dataclasses.replace(cfg, t_max=scan_cap(args.M, cfg.cap, tread=tread))
    model = _THEOREMS[args.theorem](cfg)
    report = threshold_scan(model)
    out = _outdir(args)
    path = out / f"threshold_theorem{args.theorem}_M{args.M}.csv"
    path.write_text(report.to_csv())
    summary = {
        "theorem": args.theorem,
        "M": args.M,
        "H": args.H,
        "t_max": cfg.t_max,
        "crossing": report.crossing,
        "max_abs_err": report.max_abs_err,
        "agrees_with_closed_form": bool(report.agrees),
    }
    print(json.dumps(summary, sort_keys=True))
    if not report.agrees:
        return _fail("forward pass disagrees with the closed form")
    return 0


def cmd_run(args) -> int:
    if args.input:
        text = Path(args.input).read_text()
        vocab = WhitespaceVocab.from_text(text)
        tokens = vocab.encode(text)
        vocab_size = len(vocab)
    else:
        vocab = None
        vocab_size = args.vocab
    weights = random_model(vocab=vocab_size, **_given(args, d="d", n_heads="heads", n_layers="layers", seed="seed"))
    if vocab is None:
        rng = np.random.default_rng(args.seed or 0)
        tokens = rng.integers(1, weights.vocab_size, size=args.random_tokens).tolist()

    config = MesaConfig(
        train_len=4096 if args.T is None else args.T,
        weave=_weave_params(args),
        **_given(args, first_len="F", min_last="L", rest_max="M_max"),
    )
    result = generate(tokens, weights, config, max_new=args.max_new)
    out = _outdir(args)
    doc = {
        "input_tokens": len(tokens),
        "generated_ids": result.token_ids,
        "generated_text": vocab.decode(result.token_ids) if vocab else None,
        "report": result.report.to_doc(),
    }
    (out / "run_report.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    print(
        f"prefill {result.report.prefill_seconds:.3f}s, "
        f"decode {result.report.decode_seconds:.3f}s for {result.report.decode_steps} steps, "
        f"{result.report.total_cells} prefill cells"
    )
    return 0


def cmd_passkey(args) -> int:
    lengths = [int(x) for x in args.lengths.split(",")]
    samples = gen_corpus(lengths, args.per_length, **_given(args, seed="seed"))
    out = _outdir(args)
    path = out / "passkey_corpus.jsonl"
    path.write_text("".join(s.to_json() + "\n" for s in samples))
    print(f"wrote {len(samples)} samples to {path}")
    return 0


def cmd_bench(args) -> int:
    config = dataclasses.replace(
        BENCH_CONFIG,
        weave=dataclasses.replace(BENCH_CONFIG.weave, **_given(args, cap="N", tread="E")),
        **_given(args, train_len="T", first_len="F", min_last="L", rest_max="M_max"),
    )
    n_list = [int(x) for x in args.n_list.split(",")]
    rows = []
    for method in args.methods.split(","):
        rows.extend(bench_run(method, n_list, repeats=args.repeats, config=config, **_given(args, seed="seed")))
    out = _outdir(args)
    (out / "bench.csv").write_text(bench_table_csv(rows))
    for r in rows:
        print(
            f"{r['method']:8s} n={r['n']:7d} prefill {r['prefill_seconds']:8.4f}s "
            f"decode {r['decode_seconds']:8.4f}s peak {r['peak_bytes']} B cells {r['cells']}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="weavepe", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--config", default=None, help="JSON config file with run-symbol fields")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default="out" if out_required else None, help="output directory")

    sp = sub.add_parser("gen-positions", help="write a woven position matrix as CSV + JSON")
    sp.add_argument("--scheme", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--E", type=int, default=None)
    sp.add_argument("--k-inv", dest="k_inv", type=float, default=None)
    sp.add_argument("--W", type=int, default=None)
    sp.add_argument("--G", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_gen_positions)

    sp = sub.add_parser("plan", help="print the chunk plan for an input length")
    sp.add_argument("--I", type=int, required=True)
    sp.add_argument("--T", type=int, default=None)
    sp.add_argument("--F", type=int, default=None)
    sp.add_argument("--L", type=int, default=None)
    sp.add_argument("--M-max", dest="M_max", type=int, default=None)
    common(sp, out_required=False)
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("verify-theory", help="run a threshold construction and scan")
    sp.add_argument("--theorem", choices=list(_THEOREMS), required=True)
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--H", type=float, default=0.0)
    sp.add_argument("--N", type=int, default=None)
    sp.add_argument("--E", type=int, default=None, help="staircase tread; required for the corollary")
    sp.add_argument("--t-max", dest="t_max", type=int, default=None,
                    help=f"scan length; default: the weave's own ceiling scan_cap(M, N[, tread=E]), else {MAX_SCAN}")
    common(sp)
    sp.set_defaults(func=cmd_verify_theory)

    sp = sub.add_parser("run", help="chunked generation on a random-weight toy model")
    sp.add_argument("--input", default=None, help="text file (whitespace tokenized)")
    sp.add_argument("--random-tokens", dest="random_tokens", type=int, default=2048)
    sp.add_argument("--vocab", type=int, default=64)
    sp.add_argument("--scheme", default="stair")
    sp.add_argument("--max-new", dest="max_new", type=int, default=8)
    for flag in ("--N", "--E", "--F", "--L", "--T", "--d", "--layers", "--heads"):
        sp.add_argument(flag, type=int, default=None)
    sp.add_argument("--M-max", dest="M_max", type=int, default=None)
    sp.add_argument("--k-inv", dest="k_inv", type=float, default=None)
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("passkey", help="generate a retrieval corpus")
    sp.add_argument("--lengths", default=",".join(str(1024 * k) for k in range(1, 9)))
    sp.add_argument("--per-length", dest="per_length", type=int, default=10)
    common(sp)
    sp.set_defaults(func=cmd_passkey)

    sp = sub.add_parser("bench", help="wall-clock and allocation table on the toy model")
    sp.add_argument("--methods", default="vanilla,mesa")
    sp.add_argument("--n-list", dest="n_list", default="256,512,1024")
    sp.add_argument("--repeats", type=int, default=1)
    for flag in ("--N", "--E", "--F", "--L", "--T"):
        sp.add_argument(flag, type=int, default=None)
    sp.add_argument("--M-max", dest="M_max", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_bench)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_overrides(args)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, KeyError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
