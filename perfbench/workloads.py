"""The four benchmark workloads: their groups, their inputs and one pass of calls.

Why these four (full-scale times on a 2-core box, Python 3.11):

* ``thm1_small`` cuts acceptance criterion 05 (thm1, order <= 12, |S| <= 2;
  25 s for Z12 alone) down to every abelian group of order <= 10: about 68k
  (A, S) pairs on tables of <= 1024 entries, so the per-pair Python work
  (contribution masks, union tables, harvest with tight collection on)
  dominates.
* ``pairs_large`` cuts criterion 03 (Balister-Wheeler pair sweep, 21.5 s on
  Z15) down to Z14: one contribution-mask call per A but 16,384-entry union
  tables, run as two in-process shards so shard and merge stay timed.
* ``ppow_pruned`` cuts criterion 06 (Z16, |S| <= 3, pruned, 145 s) down to
  |S| <= 2: the prune test and the enumeration loop dominate, and only about
  1.8k (A, S) pairs reach the 65,536-entry tables.
* ``scalar_lib`` never touches powerset tables: sampled scalar sweeps of
  every kind, direct operator calls and the constructive procedures.

The three exhaustive workloads are seed-independent; only ``scalar_lib``
draws its inputs from the seed.  Every call runs in this process
(``threads=1``): with two worker processes on two cores the timings measured
the scheduler rather than the program.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from rsumlab import _masks, bounds, engine, structure, subgroups
from rsumlab.bounds import ALL_KINDS, BoundKind
from rsumlab.groups import GroupSpec, abelian_groups_up_to, format_group, is_prime, parse_group
from rsumlab.sets import ElementSet, EnumerationPlan
from rsumlab.structure import SdrInstance, SdrVariant

import oracle

WORKLOADS = ("thm1_small", "pairs_large", "ppow_pruned", "scalar_lib")

# The benchmark's call sites look library entry points up here at call time,
# so the traced run can wrap them without touching the library.
LIB = types.SimpleNamespace(
    exhaustive_verify=bounds.exhaustive_verify,
    generalized_restricted_sumset=engine.generalized_restricted_sumset,
    twisted_restricted_sumset=engine.twisted_restricted_sumset,
    sdr_select=structure.sdr_select,
    classify_critical_pair=structure.classify_critical_pair,
    fiber_spread_check=structure.fiber_spread_check,
    stabilizer=structure.stabilizer,
    coset_decompose=structure.coset_decompose,
)

SCALES = {
    "full": {
        "thm1_max_order": 10,
        "pairs_group": "Z14",
        "ppow_group": "Z16",
        "sampled": (("Z13", 1000), ("Z2xZ6", 1000)),
        "engine": (("Z13", 1000), ("Z2xZ6", 1000)),
        "sdr": (("Z11", "Z13"), 1000),
        "classify": ("Z11", 1500),
        "direct_sum": ("Z4xZ4", 600),
    },
    # order <= 6 everywhere, for the smoke test
    "toy": {
        "thm1_max_order": 6,
        "pairs_group": "Z6",
        "ppow_group": "Z4",
        "sampled": (("Z5", 20), ("Z2xZ3", 20)),
        "engine": (("Z5", 20), ("Z2xZ3", 20)),
        "sdr": (("Z5",), 20),
        "classify": ("Z5", 20),
        "direct_sum": ("Z2xZ2", 10),
    },
}

GAMMAS = (2, 3)
SAMPLED_S_SIZES = (1, 3)


@dataclass
class Call:
    """One library call of a pass, with the oracle that judges its result."""

    kind: str  # "sweep", "engine" or "structure"
    fn: str  # attribute of LIB
    args: tuple
    check: object  # result -> list of problem strings
    kwargs: dict = field(default_factory=dict)
    checks: int = 0  # planned (A, B, S, kind, gamma) checks, sweeps only


def groups_for(name: str, scale: str) -> list[GroupSpec]:
    cfg = SCALES[scale]
    if name == "thm1_small":
        return abelian_groups_up_to(cfg["thm1_max_order"])
    if name == "pairs_large":
        return [parse_group(cfg["pairs_group"])]
    if name == "ppow_pruned":
        return [parse_group(cfg["ppow_group"])]
    names = [g for g, _ in cfg["sampled"]] + [g for g, _ in cfg["engine"]]
    names += list(cfg["sdr"][0]) + [cfg["classify"][0], cfg["direct_sum"][0]]
    return [parse_group(n) for n in dict.fromkeys(names)]


def setup(groups) -> dict[GroupSpec, list]:
    """The set-up that setup_s times: mask tables and subgroup lists."""
    subs = {}
    for g in groups:
        _masks.tables_for(g)
        subs[g] = subgroups.all_subgroups(g)
    return subs


def build_calls(name: str, scale: str, seed: int, subs, reference) -> list[Call]:
    if name == "scalar_lib":
        return _scalar_calls(SCALES[scale], np.random.default_rng(seed), seed, subs)
    cfg = SCALES[scale]
    if name == "thm1_small":
        sweeps = [
            (EnumerationPlan(group=g, s_min=1, s_max=2, canonicalize=True),
             (BoundKind.THM1,), {})
            for g in groups_for(name, scale)
        ]
    elif name == "pairs_large":
        g = parse_group(cfg["pairs_group"])
        sweeps = [(EnumerationPlan(group=g, s_min=0, s_max=0),
                   (BoundKind.BALISTER_WHEELER,), {"shard_count": 2})]
    else:
        g = parse_group(cfg["ppow_group"])
        sweeps = [(EnumerationPlan(group=g, s_min=1, s_max=2, canonicalize=True,
                                   canonicalize_s=True),
                   (BoundKind.PRIME_POWER_S, BoundKind.PROP34),
                   {"prune": True, "work_ceiling": 10 ** 12})]
    calls = []
    for plan, kinds, kwargs in sweeps:
        planned = planned_checks(plan, kinds, ())
        ref = reference.get(f"{scale}/{name}/{format_group(plan.group)}")
        calls.append(Call("sweep", "exhaustive_verify", (plan, kinds),
                          partial(oracle.check_sweep, ref, planned), kwargs, planned))
    return calls


def planned_checks(plan: EnumerationPlan, kinds, gammas) -> int:
    """(A, B, S, kind, gamma) checks the plan asks for, counted independently."""
    n = plan.group.order

    def sets(lo, hi, pin_zero):
        return sum(math.comb(n - 1, k - 1) if pin_zero and k else math.comb(n, k)
                   for k in range(lo, hi + 1))

    twist = len(gammas) if is_prime(n) else 0
    per_triple = sum(twist if k is BoundKind.TWISTED_PAN_SUN else 1 for k in kinds)
    if plan.mode == "sampled":
        return plan.sample_count * per_triple
    triples = (sets(plan.a_min, plan.a_max, plan.canonicalize)
               * sets(plan.b_min, plan.b_max, False)
               * sets(plan.s_min, plan.s_max, plan.canonicalize_s))
    return triples * per_triple


# -- scalar_lib inputs -----------------------------------------------------------


def _subset(rng, g: GroupSpec, lo: int, hi: int) -> ElementSet:
    size = int(rng.integers(lo, hi + 1))
    return ElementSet.from_indices(g, (int(i) for i in rng.choice(g.order, size, replace=False)))


def _scalar_calls(cfg, rng, seed: int, subs) -> list[Call]:
    calls = []
    for gname, count in cfg["sampled"]:
        g = parse_group(gname)
        plan = EnumerationPlan(group=g, s_min=SAMPLED_S_SIZES[0], s_max=SAMPLED_S_SIZES[1],
                               mode="sampled", sample_count=count, seed=seed)
        planned = planned_checks(plan, ALL_KINDS, GAMMAS)
        calls.append(Call("sweep", "exhaustive_verify", (plan, ALL_KINDS),
                          partial(oracle.check_sampled, planned), {"gammas": GAMMAS}, planned))
    for gname, count in cfg["engine"]:
        g = parse_group(gname)
        for i in range(count):
            a, b = _subset(rng, g, 1, g.order), _subset(rng, g, 1, g.order)
            s = _subset(rng, g, 0, 3)
            if g.is_prime_cyclic and i % 2:
                gamma = GAMMAS[i // 2 % len(GAMMAS)]
                calls.append(Call("engine", "twisted_restricted_sumset", (a, b, s, gamma),
                                  partial(oracle.check_sumset, a, b, s, gamma)))
            else:
                calls.append(Call("engine", "generalized_restricted_sumset", (a, b, s),
                                  partial(oracle.check_sumset, a, b, s, 1)))
    sdr_groups, count = cfg["sdr"]
    for i in range(count):
        inst = _sdr_instance(rng, parse_group(sdr_groups[i % len(sdr_groups)]),
                             list(SdrVariant)[i % len(SdrVariant)])
        calls.append(Call("structure", "sdr_select", (inst,),
                          partial(oracle.check_sdr, inst)))
    gname, count = cfg["classify"]
    g = parse_group(gname)
    for _ in range(count):
        a, b, d = _critical_pair(rng, g)
        calls.append(Call("structure", "classify_critical_pair", (a, b),
                          partial(oracle.check_classes, a, b, d)))
    gname, count = cfg["direct_sum"]
    g = parse_group(gname)
    subs_g = subs[g]
    proper = [h for h in subs_g if 1 < h.order < g.order]
    splittings = [
        (k1, k2) for k1 in proper for k2 in proper
        if k1.order * k2.order == g.order and k1.members.intersect(k2.members).size == 1
    ]
    for _ in range(count):
        a = _subset(rng, g, 1, g.order)
        k1, k2 = splittings[int(rng.integers(len(splittings)))]
        calls.append(Call("structure", "fiber_spread_check", (a, k1, k2),
                          partial(oracle.check_fiber_spread, a, k1, k2)))
    for _ in range(count):
        # a union of cosets of a random subgroup, so stabilizers are non-trivial
        h = subs_g[int(rng.integers(len(subs_g)))]
        x = ElementSet.empty(g)
        for _ in range(int(rng.integers(1, 4))):
            x = x.union(h.members.translate(g.index_element(int(rng.integers(g.order)))))
        x = x.union(_subset(rng, g, 0, 1)) if rng.integers(2) else x
        calls.append(Call("structure", "stabilizer", (x,), partial(oracle.check_stabilizer, x)))
    for _ in range(count):
        x = _subset(rng, g, 1, g.order)
        h = subs_g[int(rng.integers(len(subs_g)))]
        calls.append(Call("structure", "coset_decompose", (x, h),
                          partial(oracle.check_coset_decomposition, x, h)))
    order = rng.permutation(len(calls))
    return [calls[int(i)] for i in order]


def _sdr_instance(rng, g: GroupSpec, variant: SdrVariant) -> SdrInstance:
    """A random instance meeting the variant's hypotheses on a prime cyclic group."""
    p = g.least_prime
    if variant is SdrVariant.LEMMA22:
        h = int(rng.integers(1, min(3, g.order - 3) + 1))
        m = int(rng.integers(h + 3, min(g.order, p + h + 1) + 1))
        n = int(rng.integers(1, p + h + 2 - m + 1))
    elif variant is SdrVariant.LEMMA33:
        h = 1
        m = int(rng.integers(4, min(g.order, p + 2) + 1))
        n = int(rng.integers(1, p + 3 - m + 1))
    else:
        h = 0
        m = int(rng.integers(1, p))
        n = int(rng.integers(1, p + 1 - m + 1))
    n = min(n, g.order)
    a = tuple(g.index_element(int(i)) for i in rng.choice(g.order, m, replace=False))
    b = tuple(g.index_element(int(i)) for i in rng.choice(g.order, n, replace=False))
    s = ElementSet.from_indices(g, (int(i) for i in rng.choice(g.order, h, replace=False)))
    return SdrInstance(group=g, a=a, b=b, s=s, variant=variant)


def _critical_pair(rng, g: GroupSpec):
    """Two progressions with one common difference d; |A+B| = |A|+|B|-1 < p."""
    p = g.order
    d = int(rng.integers(1, p))
    la = int(rng.integers(1, p - 1))
    lb = int(rng.integers(1, p - la + 1))
    x0, y0 = int(rng.integers(p)), int(rng.integers(p))
    a = ElementSet.from_indices(g, ((x0 + i * d) % p for i in range(la)))
    b = ElementSet.from_indices(g, ((y0 + j * d) % p for j in range(lb)))
    return a, b, d
