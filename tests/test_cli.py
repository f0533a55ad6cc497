"""End-to-end CLI subcommand checks in temporary directories."""

import json
import os

import pytest

from weavepe.cli import main


def run_cli(args):
    return main([str(a) for a in args])


def test_plan_echoes_symbols(tmp_path, capsys):
    assert run_cli(["plan", "--I", 9000, "--T", 4096]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["N"] == 2 and doc["C"] == 2796
    assert doc["F"] == 100 and doc["L"] == 512


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--N", 0], "cap must be >= 1, got 0"),
        (["--E", 0], "tread must be >= 1, got 0"),
        (["--scheme", "leaky-rerope", "--k-inv", 0], "leak must be > 0, got 0.0"),
        (["--d", 0], "d, n_heads and n_layers must be >= 1"),
        (["--heads", 0], "d, n_heads and n_layers must be >= 1"),
        (["--layers", 0], "d, n_heads and n_layers must be >= 1"),
        (["--F", 0], "first_len, min_last and rest_max must be positive"),
        (["--L", 0], "first_len, min_last and rest_max must be positive"),
        (["--M-max", 0], "first_len, min_last and rest_max must be positive"),
    ],
)
def test_run_rejects_zero_flag(tmp_path, capsys, flags, message):
    # a flag given as 0 reaches its constructor, not the default
    code = run_cli(["run", "--random-tokens", 300, "--T", 1024, "--max-new", 2, "--out", tmp_path] + flags)
    assert code != 0
    assert message in json.loads(capsys.readouterr().err)["error"]


def test_run_rejects_a_prompt_past_the_window(tmp_path, capsys):
    # T 256, stair N 64 E 8 takes 64 + 191 * 8 + 1 = 1,593 positions: a
    # 4,096-token prompt fails before any work, even with no step to decode
    flags = ["--T", 256, "--N", 64, "--E", 8, "--F", 16, "--L", 32, "--M-max", 16, "--d", 8, "--max-new", 1]
    assert run_cli(["run", "--random-tokens", 4096, "--out", tmp_path] + flags) == 1
    doc = json.loads(capsys.readouterr().err)
    assert doc["exit_code"] == 1
    assert "longest prompt it takes is 1592 tokens" in doc["error"]
    assert not (tmp_path / "run_report.json").exists()


def test_run_rejects_a_negative_max_new(tmp_path, capsys, monkeypatch):
    # a negative max_new fails before the prefill, not after it with no token generated
    from weavepe import pipeline

    prefills = []
    monkeypatch.setattr(pipeline, "_prefill", lambda *args: prefills.append(args))
    flags = ["--T", 64, "--N", 16, "--E", 4, "--F", 8, "--L", 16, "--M-max", 8, "--max-new", -2]
    assert run_cli(["run", "--random-tokens", 50, "--out", tmp_path] + flags) == 1
    assert "max_new must be >= 0, got -2" in json.loads(capsys.readouterr().err)["error"]
    assert not prefills and not (tmp_path / "run_report.json").exists()


def test_passkey_rejects_a_negative_per_length(tmp_path, capsys):
    out = tmp_path / "o"
    assert run_cli(["passkey", "--lengths", 10, "--per-length", -1, "--out", out]) == 1
    assert "per_length must be >= 0, got -1" in json.loads(capsys.readouterr().err)["error"]
    assert not (out / "passkey_corpus.jsonl").exists()


def test_plan_rejects_zero_first_len(capsys):
    assert run_cli(["plan", "--I", 9000, "--T", 4096, "--F", 0]) != 0
    assert "first_len, min_last and rest_max must be positive" in json.loads(capsys.readouterr().err)["error"]


def test_bench_overrides_only_given_flags(tmp_path, capsys, monkeypatch):
    from weavepe import cli
    from weavepe.evalkit import BENCH_CONFIG

    seen = []
    monkeypatch.setattr(cli, "bench_run", lambda method, n_list, repeats, config, **kw: seen.append(config) or [])
    assert run_cli(["bench", "--methods", "mesa", "--N", 32, "--F", 8, "--out", tmp_path]) == 0
    assert seen[0].weave.cap == 32 and seen[0].first_len == 8
    assert seen[0].weave.tread == BENCH_CONFIG.weave.tread and seen[0].train_len == BENCH_CONFIG.train_len
    assert run_cli(["bench", "--methods", "mesa", "--E", 0, "--out", tmp_path]) != 0
    assert "tread must be >= 1, got 0" in json.loads(capsys.readouterr().err)["error"]


def test_gen_positions_golden_row(tmp_path):
    out = tmp_path / "o"
    assert run_cli(["gen-positions", "--scheme", "stair", "--n", 10, "--N", 4, "--E", 2, "--out", out]) == 0
    rows = (out / "positions_stair_n10.csv").read_text().strip().splitlines()
    assert rows[-1] == "7,6,6,5,5,4,3,2,1,0"
    doc = json.loads((out / "positions_stair_n10.json").read_text())
    assert doc["N"] == 4 and doc["E"] == 2


def test_gen_positions_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["gen-positions", "--scheme", "rerope", "--n", 12, "--N", 4, "--out", out]) == 0
    assert (a / "positions_rerope_n12.csv").read_bytes() == (b / "positions_rerope_n12.csv").read_bytes()


def test_invalid_combination_emits_error_record(tmp_path, capsys):
    code = run_cli(["gen-positions", "--scheme", "rerope", "--n", 8, "--E", 2, "--out", tmp_path])
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert "E applies" in err["error"]


def test_run_rejects_tread_for_another_scheme(tmp_path, capsys):
    # run builds its weave as gen-positions does, so it rejects the same flags
    code = run_cli(
        ["run", "--scheme", "rerope", "--E", 5, "--random-tokens", 300, "--T", 1024, "--max-new", 1, "--out", tmp_path]
    )
    assert code != 0
    assert json.loads(capsys.readouterr().err)["error"] == "E applies to the stair scheme, not rerope"
    assert not (tmp_path / "run_report.json").exists()


@pytest.mark.parametrize(
    "scheme, flags, message",
    [
        ("self-extend", ["--E", 5], "E applies to the stair scheme, not self-extend"),
        ("stair", ["--W", 5, "--G", 3], "W applies to the self-extend scheme, not stair"),
        ("rope", ["--N", 4], "N applies to the stair/rerope/leaky scheme, not rope"),
        ("self-extend", ["--N", 3], "N applies to the stair/rerope/leaky scheme, not self-extend"),
        ("rerope", ["--G", 2], "G applies to the self-extend scheme, not rerope"),
    ],
)
def test_gen_positions_rejects_flag_of_another_scheme(tmp_path, capsys, scheme, flags, message):
    # each scheme takes only the weave flags it reads
    code = run_cli(["gen-positions", "--scheme", scheme, "--n", 10, "--out", tmp_path] + flags)
    assert code != 0
    assert json.loads(capsys.readouterr().err)["error"] == message
    assert not list(tmp_path.iterdir())


def test_verify_theory_crossing(tmp_path, capsys):
    out = tmp_path / "t"
    assert run_cli(["verify-theory", "--theorem", "1", "--M", 8, "--H", 0, "--t-max", 32, "--out", out]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["crossing"] == 8
    csv = (out / "threshold_theorem1_M8.csv").read_text().splitlines()
    assert csv[0] == "t,observed,predicted,verdict"
    assert len(csv) == 33


def test_verify_theory_corollary(tmp_path, capsys):
    out = tmp_path / "t"
    code = run_cli(
        ["verify-theory", "--theorem", "corollary", "--M", 8, "--N", 2, "--E", 5, "--t-max", 20, "--out", out]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["agrees_with_closed_form"] is True


def test_verify_theory_corollary_scans_to_stair_ceiling(tmp_path, capsys):
    # without --t-max the staircase is scanned to its own ceiling
    # scan_cap(16, 4, tread=5) = 160, where the rescue holds on every row
    out = tmp_path / "t"
    assert run_cli(["verify-theory", "--theorem", "corollary", "--M", 16, "--N", 4, "--E", 5, "--out", out]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t_max"] == 160
    rows = (out / "threshold_theoremcorollary_M16.csv").read_text().splitlines()[1:]
    assert len(rows) == 160
    assert not [r for r in rows if r.endswith(",fail")]


def test_verify_theory_corollary_requires_tread(tmp_path, capsys):
    code = run_cli(["verify-theory", "--theorem", "corollary", "--M", 16, "--N", 4, "--out", tmp_path])
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert "--E" in err["error"]


def test_run_report_deterministic(tmp_path, capsys):
    # a tread of 10 keeps the 301 positions and 4 new tokens inside the
    # window: the last step scores W(304) = 32 + ceil(272 / 10) = 60 < 64
    args = [
        "run", "--random-tokens", 300, "--T", 64, "--N", 32, "--E", 10,
        "--F", 8, "--L", 16, "--M-max", 8, "--d", 8, "--max-new", 4, "--seed", 5,
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", a]) == 0
    assert run_cli(args + ["--out", b]) == 0
    capsys.readouterr()
    assert (a / "run_report.json").read_bytes() == (b / "run_report.json").read_bytes()
    doc = json.loads((a / "run_report.json").read_text())
    assert len(doc["generated_ids"]) == 4
    assert doc["report"]["fallback"] is False


def test_run_with_text_input(tmp_path, capsys):
    src = tmp_path / "prompt.txt"
    src.write_text("the cat sat on the mat and looked at the dog " * 12)
    out = tmp_path / "o"
    # 133 positions and 3 new tokens; a tread of 8 keeps the last step's
    # W(135) = 16 + ceil(119 / 8) = 31 inside the window
    args = [
        "run", "--input", src, "--T", 32, "--N", 16, "--E", 8, "--F", 4, "--L", 8,
        "--M-max", 4, "--d", 8, "--max-new", 3, "--out", out,
    ]
    assert run_cli(args) == 0
    capsys.readouterr()
    doc = json.loads((out / "run_report.json").read_text())
    assert isinstance(doc["generated_text"], str)
    assert len(doc["generated_text"].split()) == 3


def test_passkey_corpus_file(tmp_path, capsys):
    out = tmp_path / "p"
    assert run_cli(["passkey", "--lengths", "1024,2048", "--per-length", 2, "--seed", 3, "--out", out]) == 0
    capsys.readouterr()
    lines = (out / "passkey_corpus.jsonl").read_text().strip().splitlines()
    assert len(lines) == 4
    doc = json.loads(lines[0])
    assert doc["text"].startswith("There is an important info")


def test_bench_writes_table(tmp_path, capsys):
    out = tmp_path / "b"
    assert run_cli(["bench", "--methods", "vanilla", "--n-list", "32,64", "--out", out]) == 0
    capsys.readouterr()
    table = (out / "bench.csv").read_text().splitlines()
    assert len(table) == 3
    # timings and allocation peaks go to stdout only; the file holds the deterministic columns
    assert table[0] == "method,n,cells"


def test_bench_files_are_byte_identical_under_one_seed(tmp_path, capsys):
    # the mesa rows run middle chunks and heads on the pool, whose allocation
    # peak varies between runs; the file must not
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        args = ["bench", "--methods", "vanilla,mesa", "--n-list", "256,1024", "--seed", 7, "--out", out]
        assert run_cli(args) == 0
    assert "peak" in capsys.readouterr().out
    assert (outs[0] / "bench.csv").read_bytes() == (outs[1] / "bench.csv").read_bytes()


def test_env_override_applies(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEAVEPE_T", "2048")
    assert run_cli(["plan", "--I", 9000]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["T"] == 2048


def test_config_file_fills_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 4096, "F": 100, "L": 512, "M_max": 200}))
    assert run_cli(["plan", "--I", 5000, "--config", cfg, "--T", 4096]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["C"] == 2194
