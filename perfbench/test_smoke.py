"""Smoke test of the benchmark at tiny sizes (about a minute on one core).

    python3 -m pytest perfbench/test_smoke.py -q

Checks the result line against BENCHMARK.json (every metric present, with
its unit) and that injected bad outputs are counted as failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from strokegen import autodiff, sampling, training  # noqa: E402

NAMES = [w["name"] for w in SPEC["workloads"]]


def test_spec_lists_every_workload():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_result_line_has_every_metric_with_its_unit(workload, trace,
                                                   monkeypatch, capsys):
    monkeypatch.setattr(workloads, "BENCH", workloads.TINY)
    code = run.main(["--workload", workload, "--seed", "1",
                     "--seconds", "0.1", "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, err
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, m["name"]


def test_host_clock_scales_by_the_probe_and_leaves_it_out(monkeypatch):
    # a probe at twice its nominal time: the host runs at half speed
    monkeypatch.setattr(workloads, "host_probe",
                        lambda: time.sleep(2 * workloads.PROBE_NOMINAL_S))
    host = workloads.HostClock(adjust=True)
    start, wall = host.now(), time.perf_counter()
    time.sleep(0.1)
    host.probe()
    time.sleep(0.1)
    assert host.now() - start == pytest.approx(0.1, rel=0.3)
    assert time.perf_counter() - wall >= 0.2 + 2 * workloads.PROBE_NOMINAL_S
    assert len(host.probes) == 2

    wall_clock = workloads.HostClock(adjust=False)
    start, wall = wall_clock.now(), time.perf_counter()
    time.sleep(0.05)
    wall_clock.probe()
    assert wall_clock.now() - start == pytest.approx(
        time.perf_counter() - wall, abs=0.005)
    assert wall_clock.probes == []


def nan_loss(logits, targets):
    return autodiff.Tensor(np.array(np.nan, dtype=np.float32))


@pytest.mark.parametrize("workload", ["train-desk", "train-full"])
def test_nan_loss_is_counted_as_failed(workload, monkeypatch):
    monkeypatch.setattr(training, "cross_entropy", nan_loss)
    monkeypatch.setattr(autodiff, "cross_entropy", nan_loss)
    result = workloads.run(workload, 1, 0.1, workloads.TINY)
    assert not result.correct
    assert result.failed >= 1
    assert any("finite" in f for f in result.failures)


def test_out_of_range_token_is_counted_as_failed(monkeypatch):
    generate = sampling.generate_images

    def corrupted(ckpt, cfg, count, jobs=1):
        results = generate(ckpt, cfg, count, jobs)
        results[0].token_ids[0] = ckpt.vocab.size
        return results

    monkeypatch.setattr(sampling, "generate_images", corrupted)
    result = workloads.run("sample-full", 1, 0.1, workloads.TINY)
    assert not result.correct
    assert any("token id" in f for f in result.failures)


def test_failed_operation_is_counted_not_raised(monkeypatch):
    def broken_adam(*args, **kwargs):
        raise autodiff.NonFiniteError("injected")

    monkeypatch.setattr(training, "adam_step", broken_adam)
    result = workloads.run("train-full", 1, 0.1, workloads.TINY)
    assert not result.correct and result.failed == 1


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-desk",
         "--seed", "1", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
