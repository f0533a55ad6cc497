"""tools/golden.py: a dump is deterministic, a tree matches itself, and a difference is reported."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_a_case_dumped_twice_gives_equal_arrays(tmp_path, capsys):
    # chunked prefill and generate of two families, in this process, twice
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    golden.dump(a, ["chunked"])
    golden.dump(b, ["chunked"])
    assert golden.compare(a, b) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * 18 + 1  # per family: logits, ids and 2 layers x 4 heads x K, V; then the summary
    assert all(line.endswith("  equal") for line in out[:-1])
    assert out[-1] == "36 arrays: 36 equal, 0 failed at --atol 0"


def test_a_tree_compared_with_itself_is_all_equal(capsys):
    # both dumps run in subprocesses that import weavepe from this tree's src
    assert golden.main(["--baseline-tree", str(ROOT), "--cases", "chunked"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "36 arrays: 36 equal, 0 failed at --atol 0"


def test_compare_reports_each_difference_and_fails_above_atol(tmp_path, capsys):
    x = np.linspace(1.0, 2.0, 5)
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    np.savez(a, same=x, moved=x + 1e-15, shape=x, ids=np.arange(3), only_here=x)
    np.savez(b, same=x, moved=x, shape=x[:4], ids=np.array([0, 1, 3]), only_there=x)
    assert golden.compare(a, b, atol=1e-12) == 4
    lines = dict(line.split(maxsplit=1) for line in capsys.readouterr().out.splitlines()[:-1])
    assert lines == {
        "ids": "max abs inf, max rel inf  FAIL",
        "moved": "max abs 1.11e-15, max rel 1.11e-15",
        "only_here": "only in this tree  FAIL",
        "only_there": "only in the baseline  FAIL",
        "same": "equal",
        "shape": "shape (5,) against (4,)  FAIL",
    }
    assert golden.compare(a, b) == 5  # at --atol 0 the moved array fails too
