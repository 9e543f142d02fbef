"""scripts/bench_pairs.py: the pair summary and the argument checks."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "tokens_per_s", "unit": "tokens/s", "better": "higher",
     "bound": 0.25},
    {"name": "iter_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
]


def runs(*values: dict) -> list[dict]:
    return [{"metrics": v} for v in values]


def test_wins_and_ties_follow_the_better_direction():
    out = bench_pairs.summarize({
        "parent": runs({"tokens_per_s": 10.0, "iter_s_p50": 2.0},
                       {"tokens_per_s": 10.0, "iter_s_p50": 2.0},
                       {"tokens_per_s": 10.0, "iter_s_p50": 2.0}),
        "change": runs({"tokens_per_s": 12.0, "iter_s_p50": 1.5},
                       {"tokens_per_s": 10.0, "iter_s_p50": 2.5},
                       {"tokens_per_s": 9.0, "iter_s_p50": 2.0}),
    }, SPEC)
    higher, lower = out["tokens_per_s"], out["iter_s_p50"]
    assert (higher["change_wins"], higher["ties"], higher["pairs"]) == (1, 1, 3)
    assert (lower["change_wins"], lower["ties"], lower["pairs"]) == (1, 1, 3)
    assert higher["parent"]["runs"] == [10.0, 10.0, 10.0]
    assert higher["change"]["median"] == 10.0
    assert lower["better"] == "lower" and lower["bound"] == 0.25


def test_metric_missing_on_one_side_is_skipped():
    out = bench_pairs.summarize({
        "parent": runs({"tokens_per_s": 10.0, "iter_s_p50": 2.0},
                       {"tokens_per_s": 11.0}),
        "change": runs({"tokens_per_s": 12.0},
                       {"tokens_per_s": 13.0, "iter_s_p50": 1.0}),
    }, SPEC)
    # no pair has iter_s_p50 on both sides
    assert "iter_s_p50" not in out
    assert out["tokens_per_s"]["pairs"] == 2
    assert out["tokens_per_s"]["change_wins"] == 2


def test_quartiles_of_a_single_run():
    assert bench_pairs.quartiles([4.5]) == {"median": 4.5, "q1": 4.5,
                                            "q3": 4.5}
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}


def test_unknown_workload_refused(capsys):
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--label", "x", "--seed", "1",
                          "--workload", "train-desk", "no-such-workload"])
    assert exit_info.value.code == 2
    assert "unknown workload(s) ['no-such-workload']" in capsys.readouterr().err
