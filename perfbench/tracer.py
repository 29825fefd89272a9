"""Span tracer that wraps rsumlab's layer entry points from outside the library.

Each wrapper replaces a name where its caller looks it up (a module global,
a class attribute, or the benchmark's own ``LIB`` namespace), so the library
source stays untouched.  Spans nest on one stack; a span's self time is its
duration minus the time its child spans cover.  Hot leaf layers (about a
million ``_prunable`` calls per pass) are aggregated per layer name instead of
being kept one by one; the coarse spans listed in ``RECORDED`` are kept
individually.  Everything stays in memory until ``dump`` writes it out.

Aggregates are kept per phase: "setup" (table and subgroup builds), "pass"
(the measured library calls) and "validate" (the oracle, never reported).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
from collections import defaultdict
from time import perf_counter

from rsumlab import _masks, bounds, structure, subgroups
from rsumlab.groups import GroupSpec

RECORDED = frozenset({
    "bench.pass", "bounds.sweep", "bounds.kernel", "bounds.scalar_loop", "bounds.merge",
})

ARITH_METHODS = ("add", "sub", "neg", "scale", "element_index", "index_element")

# (metric, unit) in the order the traced run reports them; BENCHMARK.json's
# per_layer list must match.  Every ".s" is a self time per pass, except
# bounds.shard.s (whole shard durations) and the trace.* totals.
LAYER_METRICS = (
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("bench.harness.s", "s"),
    ("sets.enumerate.s", "s"),
    ("sets.enumerate.calls", "count"),
    ("sets.enumerate.a_masks", "count"),
    ("masks.tables.s", "s"),
    ("masks.cmasks.calls", "count"),
    ("masks.cmasks.s", "s"),
    ("masks.union_table.calls", "count"),
    ("masks.union_table.s", "s"),
    ("masks.union_table.bytes_computed", "bytes"),
    ("bounds.kernel.s", "s"),
    ("bounds.scalar_loop.s", "s"),
    ("bounds.shard.calls", "count"),
    ("bounds.shard.s", "s"),
    ("bounds.shard.max_s", "s"),
    ("bounds.merge.calls", "count"),
    ("bounds.merge.s", "s"),
    ("bounds.sweep.calls", "count"),
    ("bounds.sweep.s", "s"),
    ("bounds.prune.calls", "count"),
    ("bounds.prune.s", "s"),
    ("bounds.prune.skip_ratio", "ratio"),
    ("bounds.applicability.calls", "count"),
    ("bounds.applicability.s", "s"),
    ("bounds.harvest.records", "count"),
    ("bounds.harvest.offers", "count"),
    ("bounds.harvest.kept_ratio", "ratio"),
    ("bounds.harvest.s", "s"),
    ("bounds.check_triple.calls", "count"),
    ("bounds.check_triple.s", "s"),
    ("engine.sumset.calls", "count"),
    ("engine.sumset.s", "s"),
    ("structure.sdr_select.calls", "count"),
    ("structure.sdr_select.s", "s"),
    ("structure.classify.calls", "count"),
    ("structure.classify.s", "s"),
    ("structure.fiber_spread.calls", "count"),
    ("structure.fiber_spread.s", "s"),
    ("structure.stabilizer.calls", "count"),
    ("structure.stabilizer.s", "s"),
    ("structure.coset_decompose.calls", "count"),
    ("structure.coset_decompose.s", "s"),
    ("subgroups.all_subgroups.s", "s"),
    ("groups.arith.calls", "count"),
)

# layers measured in the set-up phase rather than per pass
SETUP_LAYERS = ("masks.tables", "subgroups.all_subgroups")


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stack: list[list] = []  # open spans: [child seconds, span id]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, layer) -> calls, total, self
        self.counts = defaultdict(int)  # (phase, counter) -> value
        self.spans: list[tuple] = []  # (id, parent id, phase, layer, start, end)
        self.shard_seconds: list[float] = []
        self.muted = 0
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- span bookkeeping -----------------------------------------------------

    def _close(self, layer: str, frame: list, start: float, end: float) -> None:
        self.stack.pop()
        dur = end - start
        a = self.agg[(self.phase, layer)]
        a[0] += 1
        a[1] += dur
        a[2] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur
        if layer in RECORDED:
            parent = next((f[1] for f in reversed(self.stack) if f[1] is not None), None)
            self.spans.append((frame[1], parent, self.phase, layer, start, end))

    def span(self, layer: str, fn, *, before=None, after=None, mute=False):
        """Wrap fn in a span; ``mute`` stops nested wrappers from tracing."""
        tracer = self
        record = layer in RECORDED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.muted:
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            frame = [0.0, next(tracer._ids) if record else None]
            tracer.stack.append(frame)
            tracer.muted += mute
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.muted -= mute
                tracer._close(layer, frame, start, end)
            if after is not None:
                after(tracer, args, result, end - start)
            return result

        return traced

    def generator(self, layer: str, genfn, item_counter: str | None = None):
        """Wrap a generator function; each next() is one span."""
        tracer = self

        @functools.wraps(genfn)
        def traced(*args, **kwargs):
            it = genfn(*args, **kwargs)
            while True:
                if tracer.muted:
                    yield from it
                    return
                frame = [0.0, None]
                tracer.stack.append(frame)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(layer, frame, start, perf_counter())
                if item_counter is not None:
                    tracer.counts[(tracer.phase, item_counter)] += 1
                yield item

        return traced

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[(tracer.phase, name)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, lib) -> None:
        """Wrap every traced name; ``lib`` is the benchmark's call namespace."""
        S, G = self.span, self.generator
        p = self._patch
        p(lib, "exhaustive_verify", S("bounds.sweep", lib.exhaustive_verify))
        for attr in ("generalized_restricted_sumset", "twisted_restricted_sumset"):
            p(lib, attr, S("engine.sumset", getattr(lib, attr)))
        for attr, layer in (
            ("sdr_select", "structure.sdr_select"),
            ("classify_critical_pair", "structure.classify"),
            ("fiber_spread_check", "structure.fiber_spread"),
            ("stabilizer", "structure.stabilizer"),
            ("coset_decompose", "structure.coset_decompose"),
        ):
            p(lib, attr, S(layer, getattr(lib, attr)))
        p(_masks, "tables_for", S("masks.tables", _masks.tables_for))
        p(_masks, "union_table", S("masks.union_table", _masks.union_table, after=_union_bytes))
        p(_masks.MaskTables, "cmasks_general",
          S("masks.cmasks", _masks.MaskTables.cmasks_general))
        p(subgroups, "all_subgroups", S("subgroups.all_subgroups", subgroups.all_subgroups))
        p(bounds, "plan_a_masks", G("sets.enumerate", bounds.plan_a_masks, "sets.a_masks"))
        p(bounds, "plan_s_masks", G("sets.enumerate", bounds.plan_s_masks))
        p(bounds, "enumerate_triples", G("sets.enumerate", bounds.enumerate_triples))
        p(bounds, "_vector_shard", S("bounds.kernel", bounds._vector_shard, after=_shard_done))
        p(bounds, "_scalar_shard",
          S("bounds.scalar_loop", bounds._scalar_shard, after=_shard_done))
        p(bounds, "_prunable", S("bounds.prune", bounds._prunable, after=_pruned))
        p(bounds, "_applicable_vector", S("bounds.applicability", bounds._applicable_vector))
        p(bounds, "applicability", S("bounds.applicability", bounds.applicability))
        p(bounds, "check_triple", S("bounds.check_triple", bounds.check_triple))
        for attr in ("sumset", "restricted_sumset", "generalized_restricted_sumset",
                     "twisted_restricted_sumset"):
            p(bounds, attr, S("engine.sumset", getattr(bounds, attr)))
        for attr in ("sumset", "generalized_restricted_sumset"):
            p(structure, attr, S("engine.sumset", getattr(structure, attr)))
        p(bounds._TopK, "offer", S("bounds.harvest", bounds._TopK.offer, before=_offered))
        p(bounds._TopK, "merge", S("bounds.merge", bounds._TopK.merge, mute=True))
        p(bounds, "_payload_report", S("bounds.merge", bounds._payload_report, mute=True))
        for attr in ARITH_METHODS:
            p(GroupSpec, attr, self.counter("groups.arith", getattr(GroupSpec, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, lib):
        self.install(lib)
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------------

    def layer(self, phase: str, layer: str) -> tuple[int, float, float]:
        calls, total, self_s = self.agg.get((phase, layer), (0, 0.0, 0.0))
        return calls, total, self_s

    def dump(self, path: str, extra: dict) -> None:
        data = dict(extra)
        data["aggregate"] = [
            {"phase": ph, "layer": layer, "calls": c, "total_s": t, "self_s": s}
            for (ph, layer), (c, t, s) in sorted(self.agg.items())
        ]
        data["counts"] = {f"{ph}/{name}": v for (ph, name), v in sorted(self.counts.items())}
        data["spans"] = [
            {"id": i, "parent": par, "phase": ph, "layer": layer, "start": st, "end": en}
            for i, par, ph, layer, st, en in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(data, fh)


def _union_bytes(tracer: Tracer, args, result, seconds: float) -> None:
    # one uint32 read and one write per table entry, computed from the size
    tracer.counts[(tracer.phase, "union_table.bytes")] += 2 * 4 * (1 << args[1])


def _shard_done(tracer: Tracer, args, result, seconds: float) -> None:
    tracer.counts[(tracer.phase, "harvest.records")] += result.violations.total + result.tight.total
    if tracer.phase == "pass":
        tracer.shard_seconds.append(seconds)


def _pruned(tracer: Tracer, args, result, seconds: float) -> None:
    tracer.counts[(tracer.phase, "prune.skipped")] += bool(result)


def _offered(tracer: Tracer, args) -> None:
    topk, key = args[0], args[1]
    threshold = topk.threshold
    tracer.counts[(tracer.phase, "harvest.kept")] += threshold is None or key < threshold
