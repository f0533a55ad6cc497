"""Weave functions, score kernels, and position matrices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weavepe.pe_core import (
    IDENTITY_SCHEMES,
    Scheme,
    WeaveParams,
    alibi_score,
    alibi_slopes,
    floor_identity_holds,
    leaky_k_inv,
    position_matrix,
    rope_angles,
    rope_score,
    rotate_by_coords,
    scores_rotary,
    self_extend_map,
    self_extend_map_ceil,
    stair_selfextend_equivalent,
    toeplitz_tiles,
    weave_leaky,
    weave_rerope,
    weave_stair,
    weave_table,
)


def test_stair_examples():
    assert weave_stair(4, 4, 2) == 4.0
    assert weave_stair(7, 4, 2) == 6.0  # 4 + ceil(3/2)
    assert weave_stair(9, 4, 2) == 7.0  # 4 + ceil(5/2)
    assert weave_stair(600, 512, 50) == 514.0  # 512 + ceil(88/50)


def test_stair_rejects_bad_input():
    with pytest.raises(ValueError):
        weave_stair(-1, 4, 2)
    with pytest.raises(ValueError):
        weave_stair(2.5, 4, 2)
    with pytest.raises(ValueError):
        weave_stair(3, 0, 2)


def test_rerope_examples():
    assert weave_rerope(2, 4) == 2.0
    assert weave_rerope(9, 4) == 4.0
    assert weave_rerope(0, 4) == 0.0


def test_leaky_examples():
    assert weave_leaky(9, 4, 1 / 3) == pytest.approx(4 + 5 / 3, abs=1e-15)
    assert weave_leaky(4, 4, 1 / 3) == 4.0
    assert weave_leaky(5, 4, 0.5) == 4.5


def test_leaky_k_inv():
    assert leaky_k_inv(4096, 8192, 512) == pytest.approx(3584 / 7680)
    assert leaky_k_inv(6, 10, 4) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        leaky_k_inv(513, 513, 513)
    with pytest.raises(ValueError):
        leaky_k_inv(4096, 100, 512)


@given(st.integers(0, 4000), st.integers(1, 64), st.integers(1, 64))
@settings(deadline=None)
def test_schemes_agree_inside_window(d, cap, tread):
    if d <= cap:
        assert weave_stair(d, cap, tread) == d
        assert weave_rerope(d, cap) == d
        assert weave_leaky(d, cap, 0.37) == d


@given(st.integers(0, 4000), st.integers(1, 64), st.integers(1, 64))
@settings(deadline=None)
def test_stair_monotone_unit_steps(d, cap, tread):
    assert weave_stair(d + 1, cap, tread) >= weave_stair(d, cap, tread)
    # exactly one extra unit per tread raw steps beyond the cap
    if d >= cap:
        assert weave_stair(d + tread, cap, tread) == weave_stair(d, cap, tread) + 1


def test_rerope_is_min_and_stair_limit():
    for d in range(0, 50):
        assert weave_rerope(d, 7) == min(d, 7)
        # a tread wider than the overshoot pins the staircase at cap + 1
        if d > 7:
            assert weave_stair(d, 7, d) == 8


def test_self_extend_examples():
    assert self_extend_map(10, 5, 4, 2) == 5.0  # 10//2 + 4 - 2 - 5//2
    assert self_extend_map(7, 7, 4, 2) == 0.0
    assert self_extend_map(9, 1, 4, 2) == 6.0  # 4 + 9//2 - 2 - 0


def test_selfextend_equivalence_flags():
    assert not stair_selfextend_equivalent(10, 5, 4, 2)
    assert stair_selfextend_equivalent(8, 2, 4, 2)
    assert stair_selfextend_equivalent(5, 5, 4, 2)
    assert not floor_identity_holds(10, 5, 2)  # 5 - 2 != 2


def test_selfextend_ceiling_matches_stair_small_grid():
    for g in (2, 3, 4):
        for w in (4, 6, 8):
            if w % g != 0:
                continue
            for t in range(0, 10 * g + 1):
                for i in range(0, t + 1):
                    if stair_selfextend_equivalent(t, i, w, g):
                        assert self_extend_map_ceil(t, i, w, g) == weave_stair(t - i, w, g)


def test_alibi_slopes_worked_set():
    assert alibi_slopes(8) == [2.0 ** -(m + 1) for m in range(8)]
    assert alibi_slopes(1) == [2.0**-8]
    assert alibi_slopes(16)[15] == 2.0**-8


def test_alibi_score():
    assert alibi_score(0.0, 3, 0.5) == -1.5
    assert alibi_score(7.25, 0, 0.125) == 7.25
    assert alibi_score(1.0, 4, 0.25) == 0.0


def test_rope_zero_distance_is_dot():
    rng = np.random.default_rng(0)
    q, k = rng.normal(size=4), rng.normal(size=4)
    assert rope_score(q, k, 0.0) == pytest.approx(float(q @ k), abs=1e-15)


def test_rope_quarter_turn():
    assert rope_score([1.0, 0.0], [1.0, 0.0], math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    # counter-clockwise rotation of the key fixes the sign
    assert rope_score([1.0, 0.0], [0.0, 1.0], math.pi / 2) == pytest.approx(-1.0, abs=1e-12)


def test_rope_rejects_odd_dimension():
    with pytest.raises(ValueError):
        rope_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], 1.0)


def test_rope_relative_only_dependence():
    rng = np.random.default_rng(1)
    q, k = rng.normal(size=6), rng.normal(size=6)
    base = rope_score(q, k, 5.0)
    for shift in (0.0, 3.0, 111.0):
        qr = rotate_by_coords(q[:, None], [9.0 + shift], 10000.0)[:, 0]
        kr = rotate_by_coords(k[:, None], [4.0 + shift], 10000.0)[:, 0]
        assert float(qr @ kr) == pytest.approx(base, abs=1e-12)


def test_scores_rotary_matches_coordinate_rotation():
    rng = np.random.default_rng(2)
    q = rng.normal(size=(5, 8))
    k = rng.normal(size=(7, 8))
    qc = rng.integers(0, 40, size=5).astype(float)
    kc = rng.integers(0, 40, size=7).astype(float)
    dmat = qc[:, None] - kc[None, :]
    via_dmat = scores_rotary(q, k, dmat, 10000.0)
    via_coords = rotate_by_coords(q.T, qc, 10000.0).T @ rotate_by_coords(k.T, kc, 10000.0)
    assert np.allclose(via_dmat, via_coords, atol=1e-12)


def test_rope_angles_schedule():
    ang = rope_angles(8, 10000.0)
    assert ang[0] == 1.0
    assert np.all(np.diff(ang) < 0)
    assert ang[3] == pytest.approx(10000.0 ** (-6 / 8))


def test_position_matrix_stair_rows():
    pm = position_matrix(WeaveParams(scheme=Scheme.STAIR, cap=4, tread=2), 10)
    assert pm.row(9).tolist() == [7, 6, 6, 5, 5, 4, 3, 2, 1, 0]
    assert pm.row(0).tolist() == [0]


def test_position_matrix_rerope_rows():
    pm = position_matrix(WeaveParams(scheme=Scheme.REROPE, cap=4), 10)
    assert pm.row(9).tolist() == [4, 4, 4, 4, 4, 4, 3, 2, 1, 0]


def test_position_matrix_leaky_fractional_row():
    pm = position_matrix(WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=4, leak=1 / 3), 10)
    expect = [4 + 5 / 3, 4 + 4 / 3, 5.0, 4 + 2 / 3, 4 + 1 / 3, 4.0, 3.0, 2.0, 1.0, 0.0]
    assert np.allclose(pm.row(9), expect, atol=1e-12)


def test_position_matrix_single_token():
    for scheme in Scheme:
        pm = position_matrix(WeaveParams(scheme=scheme), 1)
        assert pm.entries.tolist() == [[0.0]]


def test_position_matrix_invariants():
    params = [
        WeaveParams(scheme=Scheme.ROPE),
        WeaveParams(scheme=Scheme.STAIR, cap=4, tread=2),
        WeaveParams(scheme=Scheme.REROPE, cap=4),
        WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=4, leak=0.25),
        WeaveParams(scheme=Scheme.SELF_EXTEND, neighbor=4, group=2),
    ]
    n = 24
    for p in params:
        pm = position_matrix(p, n)
        diag = np.diagonal(pm.entries)
        assert np.all(diag == 0)
        assert np.all(pm.entries >= 0)
        for t in range(n):
            row = pm.row(t)
            assert np.all(np.diff(row) <= 0), f"{p.scheme} row {t} not non-increasing"
        # deterministic
        assert np.array_equal(pm.entries, position_matrix(p, n).entries)


def test_position_matrix_cap_bound():
    n = 40
    stair = position_matrix(WeaveParams(scheme=Scheme.STAIR, cap=4, tread=2), n)
    bound = 4 + math.ceil((n - 1 - 4) / 2)
    assert np.max(stair.entries) <= bound
    rerope = position_matrix(WeaveParams(scheme=Scheme.REROPE, cap=4), n)
    assert np.max(rerope.entries) <= 4


def test_position_matrix_csv_layout():
    pm = position_matrix(WeaveParams(scheme=Scheme.STAIR, cap=4, tread=2), 4)
    lines = pm.to_csv().strip().split("\n")
    assert lines[0] == "0,,,"
    assert lines[3] == "3,2,1,0"


def test_position_matrix_text_doc():
    import json

    pm = position_matrix(WeaveParams(scheme=Scheme.STAIR, cap=4, tread=2), 5)
    doc = json.loads(pm.to_text())
    assert doc["scheme"] == "stair"
    assert doc["N"] == 4 and doc["E"] == 2
    assert doc["rows"][4] == [4.0, 3.0, 2.0, 1.0, 0.0]


def test_position_matrix_golden_file():
    from pathlib import Path

    pm = position_matrix(WeaveParams(scheme=Scheme.STAIR, cap=4, tread=2), 10)
    golden = Path(__file__).parent / "goldens" / "positions_stair_n10_N4_E2.csv"
    assert pm.to_csv() == golden.read_text()


def test_weave_table_matches_each_weave():
    n = 200
    d = np.arange(n)
    cases = [
        (WeaveParams(scheme=Scheme.STAIR, cap=16, tread=5), weave_stair(d, 16, 5)),
        (WeaveParams(scheme=Scheme.REROPE, cap=16), weave_rerope(d, 16)),
        (WeaveParams(scheme=Scheme.LEAKY_REROPE, cap=16, leak=0.25), weave_leaky(d, 16, 0.25)),
    ]
    for params, want in cases:
        got = weave_table(params, n)
        assert got.dtype == np.float64
        assert np.array_equal(got, want), params.scheme


@pytest.mark.parametrize("scheme", [None, *sorted(IDENTITY_SCHEMES, key=lambda s: s.value)])
def test_weave_table_is_the_raw_distance_without_a_weave(scheme):
    got = weave_table(None if scheme is None else WeaveParams(scheme=scheme, cap=4), 50)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.arange(50))


def test_weave_table_rejects_grouped_scheme():
    with pytest.raises(ValueError, match="not a pure function of the distance"):
        weave_table(WeaveParams(scheme=Scheme.SELF_EXTEND), 10)


def test_toeplitz_tiles_hold_each_distance_and_pad_past_the_diagonal():
    n = 9
    table = np.arange(n) ** 2.0
    want = np.array([[table[t - i] if i <= t else 0.0 for i in range(n)] for t in range(n)])
    tiles = toeplitz_tiles(table)
    heads = toeplitz_tiles(np.stack([table, -2.0 * table]))  # a leading axis leads each tile
    for lo in range(n):
        for hi in range(lo + 1, n + 1):
            for c0 in range(hi):  # every column range ending at or before the last row's diagonal
                for c1 in range(c0 + 1, hi + 1):
                    block = want[lo:hi, c0:c1]
                    assert np.array_equal(tiles(lo, hi, c0, c1), block), (lo, hi, c0, c1)
                    assert np.array_equal(heads(lo, hi, c0, c1), [block, -2.0 * block]), (lo, hi, c0, c1)


def test_weave_params_validation():
    with pytest.raises(ValueError):
        WeaveParams(scheme=Scheme.STAIR, cap=0)
    with pytest.raises(ValueError):
        WeaveParams(scheme=Scheme.LEAKY_REROPE, leak=0.0)
    with pytest.raises(ValueError):
        WeaveParams(scheme=Scheme.STAIR, tread=0)
