"""The benchmark's tracer wraps library names from outside the library.

It looks each name up where its caller does (``bounds.plan_a_masks``,
``structure.generalized_restricted_sumset``, ``_masks.union_table`` and the
rest), so deleting or renaming one breaks the benchmark without breaking any
library test.  Installing the tracer once here catches that in this suite.
"""

import os

from rsumlab import _masks, bounds, structure

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_tracer_installs_on_every_name_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    import workloads

    def names():
        return (workloads.LIB.exhaustive_verify, bounds._vector_shard,
                structure.sumset, _masks.union_table)

    originals = names()
    t = tracer.Tracer()
    try:
        # a missing patch point raises here; the finally still restores the
        # names wrapped before it, so the rest of the suite runs unpatched
        t.install(workloads.LIB)
    finally:
        t.uninstall()
    assert names() == originals
