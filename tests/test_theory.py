"""Threshold constructions against their closed forms."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from weavepe.model import forward
from weavepe.pe_core import Scheme, WeaveParams, weave_table
from weavepe.theory import (
    MAX_SCAN,
    PositionDecoder,
    TheoryConfig,
    bos_weight,
    build_corollary,
    build_position_decoder_mlp,
    build_theorem1,
    build_theorem2,
    build_theorem3,
    geometric_sum,
    position_inversion,
    scan_cap,
    threshold_scan,
    weave_schedule,
)

GOLDENS = Path(__file__).parent / "goldens"


def test_theorem1_closed_form_spots():
    cfg = TheoryConfig(window=8, threshold=0.0, t_max=32)
    rep = threshold_scan(build_theorem1(cfg))
    assert rep.observed[3] == pytest.approx(1.0, abs=1e-12)      # M/t - 1 at t=4
    assert rep.observed[7] == pytest.approx(0.0, abs=1e-12)      # crossing value
    assert rep.observed[15] == pytest.approx(-0.5, abs=1e-12)    # failure side
    assert rep.crossing == 8
    assert rep.max_abs_err <= 1e-9


def test_theorem1_crossing_is_threshold_independent():
    for h in (0.0, 1.0, -2.5):
        cfg = TheoryConfig(window=16, threshold=h, t_max=64)
        rep = threshold_scan(build_theorem1(cfg))
        assert rep.crossing == 16


def test_theorem2_layer1_weight_and_recovery():
    cfg = TheoryConfig(window=8, t_max=200)
    model = build_theorem2(cfg)
    tr = model.run(200)
    got = tr.alphas[0][0][:, 0]
    ts = np.arange(1, 201)
    expect = bos_weight(ts)
    rel = np.abs(got - expect) / expect
    assert np.max(rel) <= 1e-12
    assert np.array_equal(tr.hidden[1][2, :], ts.astype(float))


def test_theorem2_crossing_at_window():
    rep = threshold_scan(build_theorem2(TheoryConfig(window=12, t_max=40)))
    assert rep.crossing == 12
    assert rep.max_abs_err <= 1e-9


def test_theorem3_hand_instance():
    cfg = TheoryConfig(window=4, threshold=0.0, cap=2, t_max=20)
    model = build_theorem3(cfg)
    a1 = model.alpha1(np.array([6]))[0]
    expect = 1.0 / (2 + 2 * math.exp(-1) + 2 * math.exp(-2))
    assert a1 == pytest.approx(expect, abs=1e-15)
    rep = threshold_scan(model)
    assert rep.observed[5] == pytest.approx(4 * expect - 1, abs=1e-12)
    assert a1 > 1 / 6


def test_theorem3_rescue_boundary_small_window():
    # N=2, M=4: the softmax denominator 2*S(2) + (t-4)e^-2 reaches M between
    # t=13 (3.954) and t=14 (4.089), so the scan crosses exactly at 14
    cfg = TheoryConfig(window=4, threshold=0.0, cap=2, t_max=scan_cap(4, 2))
    rep = threshold_scan(build_theorem3(cfg))
    assert rep.crossing == 14
    assert np.all(rep.observed[:13] > 0.0)


def test_theorem3_recovery_saturates():
    cfg = TheoryConfig(window=8, cap=2, t_max=30)
    tr = build_theorem3(cfg).run(30)
    recovered = tr.hidden[1][2, :]
    assert np.array_equal(recovered[:3], [1.0, 2.0, 3.0])
    assert np.all(recovered[3:] == 3.0)  # cap + 1


def test_corollary_matches_theorem2_inside_cap():
    cfg = TheoryConfig(window=8, cap=4, tread=2, t_max=4)
    got = threshold_scan(build_corollary(cfg)).observed
    want = threshold_scan(build_theorem2(TheoryConfig(window=8, t_max=4))).observed
    assert np.allclose(got, want, atol=1e-12)


def test_corollary_wide_tread_equals_capped_weave_at_cap_plus_one():
    # a tread wider than every scanned overshoot pins the staircase at cap+1,
    # which is the capped weave with cap' = cap + 1
    t_max = 24
    cor = build_corollary(TheoryConfig(window=8, cap=2, tread=1000, t_max=t_max))
    cap3 = build_theorem3(TheoryConfig(window=8, cap=3, t_max=t_max))
    ts = np.arange(1, t_max + 1)
    assert np.allclose(cor.alpha1(ts), cap3.alpha1(ts), atol=1e-15)
    got = threshold_scan(cor).observed
    want = threshold_scan(cap3).observed
    assert np.allclose(got, want, atol=1e-12)


def test_corollary_first_entry_tied_max():
    cfg = TheoryConfig(window=8, cap=2, tread=2, t_max=40)
    model = build_corollary(cfg)
    ts = np.arange(1, 41)
    a1 = model.alpha1(ts)
    assert np.all(a1 >= 1.0 / ts - 1e-15)
    # the staircase is still the identity at distance cap+1, so scores stay
    # uniform through t = cap+2; strictness starts one step after the cap case
    assert np.all(a1[cfg.cap + 2:] > 1.0 / ts[cfg.cap + 2:])
    assert a1[cfg.cap + 1] == 1.0 / ts[cfg.cap + 1]


def test_unit_tread_is_identity_weave():
    # tread 1 adds one unit per raw step beyond the cap: the weave is the
    # identity and the staircase model degenerates to the plain-PE model
    cfg = TheoryConfig(window=8, cap=2, tread=1, t_max=30)
    rep = threshold_scan(build_corollary(cfg))
    rep2 = threshold_scan(build_theorem2(TheoryConfig(window=8, t_max=30)))
    assert np.allclose(rep.observed, rep2.observed, atol=1e-12)
    assert rep.crossing == 8


def test_paired_scan_verdicts_differ_beyond_window():
    m = 8
    cap = scan_cap(m, 2)
    plain = threshold_scan(build_theorem1(TheoryConfig(window=m, t_max=cap)))
    woven = threshold_scan(build_theorem3(TheoryConfig(window=m, cap=2, t_max=cap)))
    # agree strictly below the window, differ strictly beyond it
    assert np.array_equal(plain.verdicts[: m - 1], woven.verdicts[: m - 1])
    assert not np.any(plain.verdicts[m:])
    assert np.all(woven.verdicts[m:])


def test_bos_weight_strictly_decreasing_and_separated():
    ts = np.arange(1, MAX_SCAN + 1)
    g = bos_weight(ts)
    ratios = g[1:] / g[:-1]
    assert np.all(ratios < 0.37)  # near e^-1, never ambiguous


def test_geometric_sum_matches_brute_force():
    for t in (1, 2, 5, 30):
        assert geometric_sum(t) == pytest.approx(sum(math.exp(-j) for j in range(t)), rel=1e-14)


def test_position_inversion_round_trips():
    assert position_inversion(1.0, 10) == 1
    g3 = bos_weight(3)
    assert position_inversion(g3, 700) == 3
    assert position_inversion(g3 * (1 + 1e-12), 700) == 3
    for t in (1, 2, 7, 100, 700):
        assert position_inversion(bos_weight(t), 700) == t


def test_position_inversion_rejects_underflow_region():
    with pytest.raises(ValueError):
        position_inversion(bos_weight(50) * 0.05, 10)


def test_decoder_rejects_increasing_schedule():
    with pytest.raises(ValueError):
        PositionDecoder(np.array([0.1, 0.5]), np.array([1.0, 2.0]))


def test_weave_schedule_recovers_stair_positions():
    weave = WeaveParams(scheme=Scheme.STAIR, cap=2, tread=2)
    sched, rec = weave_schedule(weave, 40)
    dec = PositionDecoder(sched, rec)
    got = dec.decode(sched)
    assert np.array_equal(got, rec)
    # positions sharing a tread recover the same value: W(9) == W(10) == 6
    assert rec[9] == rec[10] == 7.0


def test_position_decoder_mlp_realizes_lookup():
    ff = build_position_decoder_mlp(t_max=64)
    g = bos_weight(np.arange(1, 65, dtype=np.float64))
    z = np.zeros((3, 64))
    z[0, :] = 1.0
    z[2, :] = g
    out = ff(z) + z
    assert np.allclose(out[2, :], np.arange(1, 65), atol=1e-6)


def test_scan_caps():
    assert scan_cap(4, 2) == 14
    assert scan_cap(8, 2) == 29
    assert scan_cap(32, 8) == 700
    assert scan_cap(16, 4, tread=2) == 59
    assert scan_cap(16, 4, tread=5) == 160
    assert scan_cap(8, 2, tread=1) == 4
    assert scan_cap(32, 8, tread=2) == 700


def test_theory_config_validation():
    with pytest.raises(ValueError):
        TheoryConfig(window=8, t_max=701)
    with pytest.raises(ValueError):
        TheoryConfig(window=0)
    with pytest.raises(ValueError):
        build_theorem3(TheoryConfig(window=4, cap=4, t_max=10))


def test_report_csv_format():
    rep = threshold_scan(build_theorem1(TheoryConfig(window=8, t_max=4)))
    lines = rep.to_csv().strip().splitlines()
    assert lines[0] == "t,observed,predicted,verdict"
    assert lines[1].startswith("1,7,7,")


@pytest.mark.parametrize(
    "name,builder,cfg",
    [
        ("threshold_theorem1_M8_H0_T32.csv", build_theorem1, TheoryConfig(window=8, t_max=32)),
        ("threshold_theorem2_M8_H0_T32.csv", build_theorem2, TheoryConfig(window=8, t_max=32)),
        ("threshold_theorem3_N2_M8_T29.csv", build_theorem3, TheoryConfig(window=8, cap=2, t_max=29)),
        (
            "threshold_corollary_N2_E2_M8_T29.csv",
            build_corollary,
            TheoryConfig(window=8, cap=2, tread=2, t_max=29),
        ),
    ],
)
def test_threshold_golden_csv(name, builder, cfg):
    rep = threshold_scan(builder(cfg))
    assert rep.to_csv() == (GOLDENS / name).read_text()


def test_oracle_equivalence_across_models():
    # forward pass and closed form agree everywhere, for every construction
    cases = [
        build_theorem1(TheoryConfig(window=8, t_max=120)),
        build_theorem2(TheoryConfig(window=8, t_max=120)),
        build_theorem3(TheoryConfig(window=8, cap=2, t_max=120)),
        build_corollary(TheoryConfig(window=8, cap=2, tread=2, t_max=120)),
        build_corollary(TheoryConfig(window=8, cap=2, tread=5, t_max=120)),
    ]
    for model in cases:
        rep = threshold_scan(model)
        assert rep.max_abs_err <= 1e-9, model.label


def _alpha1_loop(model, ts):
    """The closed form one t at a time: the reference the convolution must match."""
    t_max = int(np.max(ts))
    w = weave_table(model.weave, t_max)
    out = np.empty(len(ts), dtype=np.float64)
    for j, t in enumerate(ts):
        i = np.arange(1, t + 1)
        alpha = w[t - 1] - w[i - 1] - w[t - i]
        out[j] = 1.0 / np.sum(np.exp(alpha - alpha[0]))
    return out


@pytest.mark.parametrize(
    "weave",
    [None]
    + [WeaveParams(scheme=Scheme.REROPE, cap=n) for n in (2, 4, 8)]
    + [WeaveParams(scheme=Scheme.STAIR, cap=4, tread=e) for e in (1, 2, 5)]
    + [WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=4, leak=leak) for leak in (0.5, 3.0)],
    ids=["none", "capped-2", "capped-4", "capped-8", "stair-1", "stair-2", "stair-5", "leaky", "leaky-3"],
)
@pytest.mark.parametrize(
    "ts", [np.arange(1, MAX_SCAN + 1), np.array([5, 3, MAX_SCAN, 1, 5])], ids=["1..700", "unsorted"]
)
def test_alpha1_row_blocks_match_per_t_loop(weave, ts):
    model = replace(build_theorem2(TheoryConfig(window=16, cap=4)), weave=weave)
    got = model.alpha1(ts)
    want = _alpha1_loop(model, ts)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
    if weave is None or weave.tread == 1:  # identity weave: exactly 1/t
        assert np.array_equal(got, 1.0 / ts)


@pytest.mark.parametrize("builder", [build_theorem2, build_theorem3, build_corollary])
def test_alpha1_at_any_ts_reads_the_full_scan(builder):
    model = builder(TheoryConfig(window=32, cap=8, tread=2))
    ts = np.array([5, 3, MAX_SCAN, 1, 5])
    assert np.array_equal(model.alpha1(ts), model.alpha1(np.arange(1, MAX_SCAN + 1))[ts - 1])


_GOLDEN_COROLLARY = TheoryConfig(window=8, cap=2, tread=2, t_max=29)


def test_threshold_scan_rejects_zero_t_max():
    # 0 once fell back to cfg.t_max and scanned all 29 positions
    with pytest.raises(ValueError, match="t_max must be >= 1, got 0"):
        threshold_scan(build_corollary(_GOLDEN_COROLLARY), t_max=0)


def test_run_rejects_zero_t_max():
    with pytest.raises(ValueError, match="t_max must be >= 1, got 0"):
        build_corollary(_GOLDEN_COROLLARY).run(0)


def test_alpha1_rejects_t_below_one():
    with pytest.raises(ValueError, match="got 0$"):
        build_corollary(_GOLDEN_COROLLARY).alpha1(np.array([0, 3]))


def test_alpha1_rejects_non_integer_t():
    with pytest.raises(ValueError, match="got 2.5$"):
        build_corollary(_GOLDEN_COROLLARY).alpha1(np.array([3, 2.5]))


def test_alpha1_rejects_t_past_max_scan():
    # past MAX_SCAN the closed form's products leave double precision
    with pytest.raises(ValueError, match=f"in 1..{MAX_SCAN}, got {MAX_SCAN + 1}$"):
        build_corollary(_GOLDEN_COROLLARY).alpha1(np.array([3, MAX_SCAN + 1]))


def test_alpha1_names_a_weave_it_cannot_hold():
    # a leak of 4 past a cap of 200 puts e^(2 * 600) into the convolution,
    # which once came back as alpha1 = v / inf = 0
    weave = WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=200, leak=4.0)
    model = replace(build_theorem2(TheoryConfig(window=16)), weave=weave)
    with pytest.raises(ValueError, match="overflows double precision under WeaveParams"):
        model.alpha1(np.arange(1, MAX_SCAN + 1))


def test_threshold_scan_peak_is_the_forward_pass(monkeypatch):
    # the closed form runs before the forward pass, so nothing it holds
    # sits next to the forward pass's own arrays
    model = build_corollary(TheoryConfig(window=32, cap=8, tread=2, t_max=MAX_SCAN))
    threshold_scan(model)  # warm-up: first-call allocations stay out of both peaks
    held_at_predict = []
    predict = model.predict

    def traced_predict(ts):
        held_at_predict.append(tracemalloc.get_traced_memory()[0])
        return predict(ts)

    monkeypatch.setattr(model, "predict", traced_predict)
    tracemalloc.start()
    try:
        model.run(MAX_SCAN)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        threshold_scan(model)
        scan_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan_peak <= run_peak + 64 * 1024, (scan_peak, run_peak)
    # the closed form's few t_max-long arrays fit under the forward pass's
    # own transient tiles, so the peak alone cannot see the order: nothing
    # as large as a trace may be alive when the closed form starts
    assert held_at_predict[0] - before <= 64 * 1024, held_at_predict[0] - before


def test_threshold_scan_keeps_no_head_weights():
    # the scan reads only the last layer's output, so its forward pass keeps
    # no n x n head weights: its peak stays below one 700 x 700 float64 matrix
    # (keeping them, it peaked at 9 MB); run still returns them
    model = build_corollary(TheoryConfig(window=32, cap=8, tread=2, t_max=MAX_SCAN))
    threshold_scan(model)  # warm-up: first-call allocations stay out of the peak
    tracemalloc.start()
    try:
        rep = threshold_scan(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.agrees
    assert peak < MAX_SCAN * MAX_SCAN * 8, peak
    alphas = model.run(50).alphas
    assert len(alphas) == len(model.weights.layers)
    assert all(a.shape == (50, 50) for layer in alphas for a in layer)
