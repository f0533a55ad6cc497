"""Passkey corpus, retrieval scoring, cell accounting, bench smoke."""

import numpy as np
import pytest

from weavepe.evalkit import (
    DEFAULT_CONTENT,
    KEY_CONTENT,
    TASK_DESCRIPT,
    bench_run,
    bench_table_csv,
    count_cells,
    count_key_occurrences,
    gen_corpus,
    gen_passkey,
    score_retrieval,
)
from weavepe.masks import lambda_mask, sink_mask


def test_sample_structure():
    s = gen_passkey(1024, key="12345", position_fraction=0.5)
    assert s.text.startswith(TASK_DESCRIPT)
    assert "Find it and memorize it." in s.text
    assert count_key_occurrences(s.text, "12345") == 2
    assert abs(s.token_count - 1024) <= 16


def test_sample_key_position_tracks_fraction():
    early = gen_passkey(2048, key="777", position_fraction=0.1)
    late = gen_passkey(2048, key="777", position_fraction=0.9)
    assert early.key_position < late.key_position
    head = len(TASK_DESCRIPT.split())
    assert early.text.split()[early.key_position] == "The"
    assert early.key_position >= head


def test_sample_deterministic_under_seed():
    a = gen_passkey(1024, seed=42)
    b = gen_passkey(1024, seed=42)
    assert a == b
    c = gen_passkey(1024, seed=43)
    assert a != c


def test_sample_key_recoverable_from_text():
    s = gen_passkey(3072, seed=9)
    assert score_retrieval(s.text, s.key)


def test_sample_validation():
    with pytest.raises(ValueError):
        gen_passkey(10, key="123", position_fraction=0.5)
    with pytest.raises(ValueError):
        gen_passkey(1024, key="abc", position_fraction=0.5)
    with pytest.raises(ValueError):
        gen_passkey(1024, key="123", position_fraction=1.5)


def test_corpus_lengths_and_determinism():
    lengths = [1024, 2048]
    a = gen_corpus(lengths, per_length=3, seed=0)
    b = gen_corpus(lengths, per_length=3, seed=0)
    assert a == b
    assert len(a) == 6
    for s in a:
        assert abs(s.token_count - s.target_length) <= 16


def test_score_retrieval_rules():
    assert score_retrieval("the pass key is 12345.", "12345")
    assert not score_retrieval("the pass key is 12346.", "12345")
    assert not score_retrieval("the pass key is 612345.", "12345")
    assert not score_retrieval("the pass key is 123456.", "12345")


def test_count_cells_vanilla_and_dual():
    assert count_cells("vanilla", 10) == 55
    assert count_cells("rerope_dual", 10) == 110
    for n in (1, 17, 4096):
        assert count_cells("rerope_dual", n) == 2 * count_cells("vanilla", n)


def test_count_cells_mask_methods():
    assert count_cells("lambda", 500, {"n_global": 4, "n_local": 8}) == lambda_mask(500, 4, 8).count()
    assert count_cells("sink", 500, {"x_sinks": 4, "y_recent": 8}) == sink_mask(500, 4, 8).count()


def test_count_cells_mesa_formula():
    params = {"train_len": 4096, "first_len": 100, "min_last": 512, "rest_max": 200}
    # plan for I=9000: F=100, three middles of 2796, last 512 starting at 8488
    f, c, ls, n = 100, 2796, 8488, 9000
    expect = f * (f + 1) // 2
    expect += 3 * (c * (c + 1) // 2 + c * f)
    expect += sum(q + 1 for q in range(ls, n))
    assert count_cells("mesa", n, params) == expect


def test_count_cells_mesa_falls_back_to_vanilla():
    params = {"train_len": 4096, "first_len": 100, "min_last": 512, "rest_max": 200}
    assert count_cells("mesa", 4000, params) == count_cells("vanilla", 4000)


def test_count_cells_rejects_unknown():
    with pytest.raises(ValueError):
        count_cells("quadratic-but-fast", 10)


def test_bench_run_smoke():
    rows = bench_run("vanilla", [32, 64], repeats=1)
    rows += bench_run("mesa", [32, 64], repeats=1)
    assert {r["method"] for r in rows} == {"vanilla", "mesa"}
    for r in rows:
        assert r["prefill_seconds"] >= 0.0
        assert r["cells"] > 0
    # cell counts grow with the input for both methods
    assert rows[1]["cells"] > rows[0]["cells"]
    assert rows[3]["cells"] > rows[2]["cells"]
    csv = bench_table_csv(rows)
    assert csv.splitlines()[0].startswith("method,n,")
    assert len(csv.splitlines()) == 5


def test_bench_run_times_no_call_under_tracemalloc(monkeypatch):
    import tracemalloc

    from weavepe import evalkit

    traced = []
    real = evalkit.forward

    def spy(*args, **kwargs):
        traced.append(tracemalloc.is_tracing())
        return real(*args, **kwargs)

    monkeypatch.setattr(evalkit, "forward", spy)
    rows = bench_run("vanilla", [32], repeats=3)
    # three timed passes, then one untimed pass for the allocation peak
    assert traced == [False, False, False, True]
    assert rows[0]["peak_bytes"] > 0


def test_templates_contain_no_digits():
    # filler and task text must not collide with digit keys
    assert not any(ch.isdigit() for ch in TASK_DESCRIPT + DEFAULT_CONTENT)
    assert "{key}" in KEY_CONTENT
