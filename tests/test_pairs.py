"""tools/pairs.py's rule that a gain does not count when the change fails
more of its ops or reports an incorrect run."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def test_a_gain_with_the_parents_failures_counts():
    assert pairs.counted("gain", (10, 1520, 0), (10, 1520, 0)) == "gain"
    assert pairs.counted("gain", (10, 1520, 0), (9, 1520, 0)) == "gain"


def test_a_gain_with_more_failed_ops_is_not_counted():
    assert pairs.counted("gain", (10, 1520, 0), (11, 1520, 0)) == \
        "not counted"
    # the share decides when the sides attempted different numbers of ops
    assert pairs.counted("gain", (1, 100, 0), (2, 300, 0)) == "gain"
    assert pairs.counted("gain", (1, 300, 0), (1, 100, 0)) == "not counted"


def test_a_gain_with_an_incorrect_change_run_is_not_counted():
    assert pairs.counted("gain", (0, 49, 0), (0, 49, 1)) == "not counted"
    # the parent's incorrect runs do not take the change's gain away
    assert pairs.counted("gain", (0, 49, 2), (0, 49, 0)) == "gain"


def test_other_verdicts_pass_through():
    for text in ("worse than bound", "unresolved", "within bound"):
        assert pairs.counted(text, (0, 10, 0), (5, 10, 3)) == text


def test_ops_sums_the_runs():
    runs = [{"failed": 1, "attempted": 152, "correct": True},
            {"failed": 0, "attempted": 152, "correct": False}]
    assert pairs.ops(runs) == (1, 304, 1)
