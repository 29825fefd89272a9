"""Run exhaustive sweeps and witness searches over the abelian groups of order
<= 9, hash their output, and count the size-table rows the kernel builds.

Two trees whose hashes agree gave the same bytes on every run, so a rewrite
of the sweep kernel can be checked against the tree it replaces:

    PYTHONPATH=src python tests/sweep_matrix.py [DUMP.jsonl]

prints the run count, the sha256 of the runs' output, and the rows and calls
of ``_masks.size_table_batch`` over all runs; with DUMP.jsonl it also writes
one JSON line per run (its arguments, then its output) for a diff.  A run's
output is ``exhaustive_verify(...).to_json(include_timing=False)``, the
witness rows of ``search_witnesses``, or the error a run raised.

The verify runs take every group x kinds {thm1; all but twisted; all} x
canonical A and S off/on x witness cap 0/1/3/100 x shards 1/3 x |S| in 0..1
and 0..2; the search runs take Z7, Z2xZ4 and Z9 x pansun, thm1, twisted,
karolyi and bw x tight/counterexample at caps 1/5/1000 with |S| in 1..2.
Last come verify runs with ``prune=True`` and with ``collect_tight=False``:
every group x the three kind sets x canonical off/on x caps 0/3 x shards
1/3, with |S| in 0..2.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys

import rsumlab as rl
from rsumlab import _masks
from rsumlab.bounds import ALL_KINDS, BoundKind

K = BoundKind
KIND_SETS = {
    "thm1": (K.THM1,),
    "all_but_twisted": tuple(k for k in ALL_KINDS if k is not K.TWISTED_PAN_SUN),
    "all": ALL_KINDS,
}
SEARCH_GROUPS = ("Z7", "Z2xZ4", "Z9")
SEARCH_KINDS = (K.PAN_SUN, K.THM1, K.TWISTED_PAN_SUN, K.KAROLYI, K.BALISTER_WHEELER)
VERIFY_FLAGS = {"prune": {"prune": True}, "no_tight": {"collect_tight": False}}


def _verify(g, kinds, canonical, cap, shards, s_max, **flags) -> str:
    plan = rl.EnumerationPlan(group=g, s_min=0, s_max=s_max, canonicalize=canonical,
                              canonicalize_s=canonical)
    return rl.exhaustive_verify(plan, kinds, max_witnesses=cap, shard_count=shards,
                                **flags).to_json(include_timing=False)


def _search(g, kind, mode, cap) -> str:
    plan = rl.EnumerationPlan(group=g, s_min=1, s_max=2)
    rows = rl.search_witnesses(plan, kind, mode, max_witnesses=cap)
    return json.dumps([r.to_row() for r in rows], sort_keys=True)


def runs():
    """(arguments, function, its arguments) of every run, in a fixed order."""
    for g in rl.abelian_groups_up_to(9):
        for (name, kinds), canonical, cap, shards, s_max in itertools.product(
                KIND_SETS.items(), (False, True), (0, 1, 3, 100), (1, 3), (1, 2)):
            yield (["verify", rl.format_group(g), name, canonical, cap, shards, s_max], _verify,
                   (g, kinds, canonical, cap, shards, s_max))
    for name, kind, mode, cap in itertools.product(
            SEARCH_GROUPS, SEARCH_KINDS, ("tight", "counterexample"), (1, 5, 1000)):
        yield ["search", name, kind.value, mode, cap], _search, (rl.parse_group(name), kind, mode, cap)
    for g in rl.abelian_groups_up_to(9):
        for flag, (name, kinds), canonical, cap, shards in itertools.product(
                VERIFY_FLAGS, KIND_SETS.items(), (False, True), (0, 3), (1, 3)):
            yield (["verify", rl.format_group(g), name, canonical, cap, shards, 2, flag],
                   functools.partial(_verify, **VERIFY_FLAGS[flag]),
                   (g, kinds, canonical, cap, shards, 2))


def main(dump: str | None) -> None:
    built = {"rows": 0, "calls": 0}
    honest = _masks.size_table_batch

    def counted(cmasks, n):
        built["rows"] += cmasks.shape[0]
        built["calls"] += 1
        return honest(cmasks, n)

    _masks.size_table_batch = counted
    lines = []
    for args, run, run_args in runs():
        try:
            out = run(*run_args)
        except (ValueError, RuntimeError) as exc:
            out = f"{type(exc).__name__}: {exc}"
        lines.append(json.dumps([args, out]) + "\n")
    blob = "".join(lines)
    if dump:
        with open(dump, "w") as fh:
            fh.write(blob)
    print(f"{len(lines)} runs; sha256 {hashlib.sha256(blob.encode()).hexdigest()}; "
          f"size_table_batch {built['rows']} rows in {built['calls']} calls")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
