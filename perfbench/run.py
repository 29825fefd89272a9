"""rsumlab benchmark: one workload per run, every output checked by an oracle.

    python3 perfbench/run.py --workload thm1_small --seed 1 --seconds 15 --trace 0

Workloads and why they were chosen are described in ``workloads.py`` and in
BENCHMARK.json.  A run times the set-up in fresh interpreters (``setup_s``),
builds the tables and the seeded inputs, then repeats passes of the
workload's library calls until about ``--seconds`` of passes are measured.
Timings are medians over the passes, so the first pass, which also fills the
library's lazy caches, does not set them.  Every pass is judged by the
oracle; a call that raises or fails it counts in ``failed``.

``--trace 0`` reports the end-to-end metrics with tracing off.  Their times
are in reference seconds (``ref_s``, see ``hostspeed.py``): a reference
kernel, sampled every 20 ms during the passes and every 5 ms during each
set-up, takes the shared host's changing speed out of them.  ``setup_s`` is
such a time too, in seconds at the reference speed.  The raw host-second
figures are printed before the result and kept in ``perfbench/out/``.
``--trace 1`` spends half the time on untraced passes and half on traced
ones, and reports the per-layer metrics of ``tracer.LAYER_METRICS`` per traced
pass plus the tracing overhead, all in raw host seconds; its spans are written
to ``perfbench/out/`` when the run ends.  The last line of standard output is
the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from functools import partial
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import LIB  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 9

# (metric, unit); BENCHMARK.json's end_to_end list must match.
END_TO_END = (
    ("wall_ref_s", "ref_s"),
    ("checks_per_ref_s", "1/ref_s"),
    ("calls_per_ref_s", "1/ref_s"),
    ("call_p50_ref_us", "ref_us"),
    ("call_p99_ref_us", "ref_us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def machine_facts() -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "load_1min": os.getloadavg()[0],
        "cpu": platform.processor() or platform.machine(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        try:
            with open(os.path.join(cache_dir, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(cache_dir, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"L{level}"] = size
    return facts


def setup_seconds(workload: str, scale: str) -> list[tuple[float, float]]:
    """(host s, ref_s) set-up times of SETUP_PROBES fresh interpreters, one after another."""
    probe = os.path.join(HERE, "setup_probe.py")
    return [
        tuple(map(float, subprocess.run([sys.executable, probe, workload, scale],
                                        capture_output=True, text=True, timeout=120,
                                        check=True).stdout.split()))
        for _ in range(SETUP_PROBES)
    ]


def run_pass(calls, sampler=None):
    """Make every call once; return the pass seconds, per-call spans and outcomes.

    A span is a row (start, end, seconds): seconds leaves out the time the
    sampler's handler took inside the call.  The rows are kept as one array,
    so that the bookkeeping of many passes does not raise peak_rss_mb.
    """
    spans, outcomes = [], []
    stolen = (lambda: sampler.stolen_s) if sampler else (lambda: 0.0)
    start = perf_counter()
    for call in calls:
        fn = getattr(LIB, call.fn)
        s0, t0 = stolen(), perf_counter()
        try:
            outcomes.append((fn(*call.args, **call.kwargs), None))
        except Exception:
            outcomes.append((None, traceback.format_exc(limit=3)))
        t1 = perf_counter()
        spans.append((t0, t1, t1 - t0 - (stolen() - s0)))
    return perf_counter() - start, np.array(spans), outcomes


def judge(calls, outcomes, accepted: list) -> list[str]:
    """One problem line per failed call.

    ``accepted[i]`` holds a result of call i that passed the oracle; an equal
    result passes without being checked again, which keeps later passes cheap.
    """
    failures = []
    for i, (call, (result, error)) in enumerate(zip(calls, outcomes)):
        if error is None and accepted[i] is not None and result == accepted[i]:
            continue
        problems = [error] if error else call.check(result)
        if problems:
            failures.append(f"call {i} {call.fn}: " + "; ".join(problems))
        else:
            accepted[i] = result
    return failures


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload; return the result object plus the details behind it."""
    facts = machine_facts()
    probes = [] if trace else setup_seconds(workload, scale)
    tr = tracing.Tracer() if trace else None
    with tr.installed(LIB) if tr else contextlib.nullcontext():
        subs = workloads.setup(workloads.groups_for(workload, scale))
    calls = workloads.build_calls(workload, scale, seed, subs, load_reference())
    attempted, failures, accepted = 0, [], [None] * len(calls)

    def one_pass(runner):
        nonlocal attempted
        wall, per_call, outcomes = runner(calls)
        if tr:
            tr.phase = "validate"
        failures.extend(judge(calls, outcomes, accepted))
        if tr:
            tr.phase = "pass"
        attempted += len(calls)
        return wall, per_call

    def passes(runner, budget):
        walls, per_calls = [], []
        while not walls or sum(walls) + statistics.median(walls) / 2 < budget:
            wall, per_call = one_pass(runner)
            walls.append(wall)
            per_calls.append(per_call)
        return walls, per_calls

    sampler = None
    if tr:
        # half the time untraced, half traced: the difference is the overhead
        untraced, _ = passes(run_pass, seconds / 2)
        tr.phase = "pass"
        with tr.installed(LIB):
            walls, per_calls = passes(tr.span("bench.pass", run_pass), seconds / 2)
    else:
        sampler = hostspeed.SpeedSampler()
        with sampler.sampling():
            walls, per_calls = passes(partial(run_pass, sampler=sampler), seconds)

    details = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": scale, "machine": facts, "pass_walls_s": walls,
        "setup_probes_s": [host for host, _ in probes],
        "setup_probes_ref_s": [ref for _, ref in probes], "calls_per_pass": len(calls),
        "failures": failures[:20],
    }
    if tr:
        details["untraced_walls_s"] = untraced
        metrics = layer_metrics(tr, walls, statistics.median(untraced))
    else:
        metrics = end_to_end_metrics(calls, per_calls, probes, sampler, details)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    details["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-{scale}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w") as fh:
        json.dump(details, fh, indent=1)
    if tr:
        tr.dump(stem + "-spans.json", {"workload": workload, "seed": seed, "machine": facts})
    return details


def end_to_end_metrics(calls, per_calls, probes, sampler, details) -> dict:
    # every call's seconds in ref_s, by the kernel samples around it: (passes, calls)
    ref = np.array([spans[:, 2] * [sampler.factor(t0, t1) for t0, t1 in spans[:, :2].tolist()]
                    for spans in per_calls])
    details["pass_ref_s"] = ref.sum(axis=1).tolist()
    details["kernel_samples"] = sampler.samples
    wall = statistics.median(details["pass_ref_s"])
    sweep_idx = [i for i, c in enumerate(calls) if c.kind == "sweep"]
    sweep_s = statistics.median(ref[:, sweep_idx].sum(axis=1).tolist())
    # A call's latency is its median over the passes; the percentiles run
    # over the scalar calls where there are any, else over the sweeps.
    lat_idx = [i for i, c in enumerate(calls) if c.kind != "sweep"] or sweep_idx
    lat_us = np.median(ref[:, lat_idx], axis=0) * 1e6
    p50, p99 = np.percentile(lat_us, [50, 99])
    details["latency_samples"] = len(lat_us)
    details["checks_per_pass"] = sum(c.checks for c in calls)
    values = {
        "wall_ref_s": wall,
        "checks_per_ref_s": details["checks_per_pass"] / sweep_s,
        "calls_per_ref_s": len(calls) / wall,
        "call_p50_ref_us": float(p50),
        "call_p99_ref_us": float(p99),
        "setup_s": statistics.median(ref for _, ref in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_metrics(tr: tracing.Tracer, walls, untraced_s: float) -> dict:
    n = len(walls)

    def per_pass(total):
        value = total / n
        return int(value) if isinstance(total, int) and value == int(value) else value

    def calls(layer):
        return per_pass(tr.layer("pass", layer)[0])

    def total_s(layer):
        return tr.layer("pass", layer)[1] / n

    def self_s(layer):
        return tr.layer("pass", layer)[2] / n

    def count(name):
        return per_pass(tr.counts[("pass", name)])

    def ratio(num, den):
        return num / den if den else 0.0

    layers = {layer for phase, layer in tr.agg if phase == "pass"} - {"bench.pass"}
    wall = statistics.median(walls)
    values = {
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_s,
        "trace.overhead_s": wall - untraced_s,
        "trace.coverage": ratio(sum(self_s(layer) for layer in layers), total_s("bench.pass")),
        "bench.harness.s": self_s("bench.pass"),
        "sets.enumerate.a_masks": count("sets.a_masks"),
        "masks.union_table.bytes_computed": count("union_table.bytes"),
        "bounds.shard.calls": calls("bounds.kernel") + calls("bounds.scalar_loop"),
        "bounds.shard.s": total_s("bounds.kernel") + total_s("bounds.scalar_loop"),
        "bounds.shard.max_s": max(tr.shard_seconds, default=0.0),
        "bounds.prune.skip_ratio": ratio(count("prune.skipped"), calls("bounds.prune")),
        "bounds.harvest.records": count("harvest.records"),
        "bounds.harvest.offers": calls("bounds.harvest"),
        "bounds.harvest.kept_ratio": ratio(count("harvest.kept"), calls("bounds.harvest")),
        "groups.arith.calls": count("groups.arith"),
    }
    for layer in tracing.SETUP_LAYERS:
        values[f"{layer}.s"] = tr.layer("setup", layer)[2]
    for name, _ in tracing.LAYER_METRICS:
        if name in values:
            continue
        layer, stat = name.rsplit(".", 1)
        values[name] = calls(layer) if stat == "calls" else self_s(layer)
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}


def report(details: dict) -> None:
    """The human-readable lines printed before the JSON result."""
    print("# machine: " + json.dumps(details["machine"], sort_keys=True))
    walls = ", ".join(f"{w:.3f}" for w in details["pass_walls_s"])
    print(f"# {details['workload']} seed={details['seed']} trace={details['trace']}: "
          f"{len(details['pass_walls_s'])} passes of {details['calls_per_pass']} calls "
          f"({walls} host s)")
    if details["setup_probes_s"]:
        host = ", ".join(f"{w:.3f}" for w in details["setup_probes_s"])
        print(f"# set-up in host s: {host}")
    if "pass_ref_s" in details:
        refs = ", ".join(f"{w:.3f}" for w in details["pass_ref_s"])
        print(f"# calls per pass in ref_s: {refs}; {details['kernel_samples']} kernel samples")
    if "latency_samples" in details:
        print(f"# latency percentiles over {details['latency_samples']} calls, "
              f"each the median of {len(details['pass_walls_s'])} passes; "
              f"{details['checks_per_pass']} planned checks per pass")
    result = details["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"# error_rate {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} calls failed)")
    for line in details["failures"]:
        print("# FAIL " + line.replace("\n", " | ")[:400])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    report(details)
    print(json.dumps(details["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
