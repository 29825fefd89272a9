"""Smoke tests for the benchmark itself, at toy scale (groups of order <= 6).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
from time import perf_counter

import pytest

import hostspeed
import run
import workloads
from rsumlab import bounds

ROOT = os.path.dirname(run.HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))


def _toy(workload, trace, seed=1):
    return run.measure(workload, seed, 0, trace, scale="toy")["result"]


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.tracing.LAYER_METRICS)


def test_sampler_takes_out_its_own_time_and_stops_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.SpeedSampler(period_s=0.005)
    with sampler.sampling():
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            pass
        t1 = perf_counter()
        stolen = sampler.stolen_s
    assert sampler.samples > 5
    assert 0 < stolen < t1 - t0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    start = perf_counter()
    hostspeed.kernel()
    kernel_s = perf_counter() - start
    # ref_s per host second is about REF_KERNEL_S over the kernel's host time
    assert 0.2 < sampler.factor(t0, t1) * kernel_s / hostspeed.REF_KERNEL_S < 5


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_emits_every_metric(workload, trace):
    prunable = bounds._prunable
    result = _toy(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert bounds._prunable is prunable, "tracer left a patch behind"


def test_counts_repeat_and_exhaustive_workloads_ignore_the_seed():
    first, second = _toy("thm1_small", True, seed=1), _toy("thm1_small", True, seed=2)
    counts = [name for name, unit in run.tracing.LAYER_METRICS if unit == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["masks.cmasks.calls"]["value"] > 0


def test_second_seed_draws_new_inputs_that_still_pass_the_oracle():
    subs = workloads.setup(workloads.groups_for("scalar_lib", "toy"))
    one = workloads.build_calls("scalar_lib", "toy", 1, subs, {})
    two = workloads.build_calls("scalar_lib", "toy", 2, subs, {})
    assert [repr(c.args) for c in one] != [repr(c.args) for c in two]
    assert _toy("scalar_lib", False, seed=2)["correct"]


def test_oracle_counts_a_perturbed_sweep_as_failed(monkeypatch):
    honest = workloads.LIB.exhaustive_verify

    def off_by_one(*args, **kwargs):
        summary = honest(*args, **kwargs)
        return dataclasses.replace(summary, tight_count=summary.tight_count + 1)

    monkeypatch.setattr(workloads.LIB, "exhaustive_verify", off_by_one)
    result = _toy("thm1_small", False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_oracle_counts_a_perturbed_scalar_result_as_failed(monkeypatch):
    monkeypatch.setattr(workloads.LIB, "classify_critical_pair", lambda a, b: [])
    result = _toy("scalar_lib", False)
    classify_calls = workloads.SCALES["toy"]["classify"][1]
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] % classify_calls == 0


def test_benchmark_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar_lib", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
