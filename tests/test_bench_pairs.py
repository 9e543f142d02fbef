"""scripts/bench_pairs.py: the pair summary and its paired ratios, the
argument checks, the exit status and the exported working-tree snapshot."""

import importlib.util
import json
import shutil
import subprocess
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


def test_paired_ratios_are_change_over_parent():
    out = bench_pairs.summarize({
        "parent": runs(*({"tokens_per_s": p, "iter_s_p50": 2.0}
                         for p in (10.0, 20.0, 10.0, 40.0, 10.0))),
        "change": runs(*({"tokens_per_s": c, "iter_s_p50": 1.0}
                         for c in (11.0, 20.0, 12.0, 36.0, 15.0))),
    }, SPEC)
    ratio = out["tokens_per_s"]["ratio"]
    assert ratio["runs"] == [1.1, 1.0, 1.2, 0.9, 1.5]
    assert (ratio["median"], ratio["q1"], ratio["q3"]) == (1.1, 1.0, 1.2)
    assert (ratio["min"], ratio["max"]) == (0.9, 1.5)
    # the ratio is change/parent whichever direction is better
    assert out["iter_s_p50"]["ratio"]["median"] == 0.5
    line = bench_pairs.ratio_line("sample-full", "tokens_per_s",
                                  out["tokens_per_s"])
    assert line == ("sample-full tokens_per_s: parent 10, change 15, ratio "
                    "1.100 [1.000, 1.200] range 0.900-1.500, change wins 3/5")


def test_ratio_skips_a_zero_parent():
    out = bench_pairs.summarize({
        "parent": runs({"tokens_per_s": 0.0}, {"tokens_per_s": 4.0}),
        "change": runs({"tokens_per_s": 1.0}, {"tokens_per_s": 5.0}),
    }, SPEC)
    assert out["tokens_per_s"]["ratio"]["runs"] == [1.25]
    out = bench_pairs.summarize({"parent": runs({"tokens_per_s": 0.0}),
                                 "change": runs({"tokens_per_s": 0.0})}, SPEC)
    assert out["tokens_per_s"]["ratio"] is None
    assert "no ratio" in bench_pairs.ratio_line("w", "tokens_per_s",
                                                out["tokens_per_s"])


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


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_pairs_below_one_refused(pairs, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--label", "x", "--seed", "1", "--pairs", pairs])
    assert exit_info.value.code == 2
    assert f"--pairs must be >= 1, got {pairs}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []  # no BENCH file written


def test_failed_runs_are_listed_and_exit_1(tmp_path, monkeypatch, capsys):
    shutil.copy(SCRIPT.parent.parent / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "parent-sha")
    monkeypatch.setattr(bench_pairs, "snapshot_tree", lambda: "change-tree")
    exports: dict = {}  # checkout directory -> the ref exported into it
    monkeypatch.setattr(bench_pairs, "export_commit",
                        lambda ref, dest: exports.setdefault(dest, ref))

    def fake_run(checkout, workload, seed, seconds):
        # both sides run from an export, neither from the working tree
        assert checkout != tmp_path and checkout in exports
        side = "change" if exports[checkout] == "change-tree" else "parent"
        crashed = (side, seed) == ("change", 11)
        failed_check = (side, seed) == ("parent", 10)
        return {"seed": seed, "exit": 1 if crashed else 0, "wall_s": 1.0,
                "env": None, "correct": not (crashed or failed_check),
                "failed": None if crashed else int(failed_check),
                "metrics": {} if crashed else {"tokens_per_s": 10.0}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    code = bench_pairs.main(["--label", "t", "--seed", "10", "--pairs", "2",
                             "--workload", "sample-full"])
    assert code == 1
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert sorted(exports.values()) == ["change-tree", "parent-sha"]
    assert report["change_tree"] == "change-tree"
    assert report["workloads"]["sample-full"]["failed"] == {
        "parent": [1, 0], "change": [0, None]}
    out, err = capsys.readouterr()
    # one metric line per workload; the crashed pair has no tokens_per_s
    assert ("sample-full tokens_per_s: parent 10, change 10, ratio 1.000 "
            "[1.000, 1.000] range 1.000-1.000, change wins 0/1" in out)
    assert "failed: sample-full parent seed 10" in err
    assert "failed: sample-full change seed 11" in err
    assert err.count("failed:") == 2

    monkeypatch.setattr(bench_pairs, "run_once", lambda *a: {
        **fake_run(*a), "exit": 0, "correct": True, "failed": 0})
    assert bench_pairs.main(["--label", "t", "--seed", "10", "--pairs", "2",
                             "--workload", "sample-full"]) == 0


def test_snapshot_holds_the_working_tree_but_not_ignored_files(
        tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        subprocess.run(("git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args), cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "kept.py").write_text("old\n")
    (repo / "gone.py").write_text("x\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "kept.py").write_text("new\n")
    (repo / "gone.py").unlink()
    (repo / "added.py").write_text("untracked\n")
    (repo / "run.log").write_text("ignored\n")
    index = (repo / ".git" / "index").read_bytes()
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    out = tmp_path / "export"
    out.mkdir()
    bench_pairs.export_commit(bench_pairs.snapshot_tree(), out)
    assert sorted(p.name for p in out.iterdir()) == [
        ".gitignore", "added.py", "kept.py"]
    assert (out / "kept.py").read_text() == "new\n"
    assert (repo / ".git" / "index").read_bytes() == index
