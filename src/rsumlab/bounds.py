"""Bound catalog, single-triple checks, exhaustive sweeps, witness search.

Every bound has the shape  lhs >= min(linear(|A|, |B|, |S|), p(G))  for one
of the four operators, so the catalog is one table of coefficients and
hypotheses per kind.  Since hypotheses and rhs depend only on the sizes, one
check plan per (|A|, |S|) class (``_size_class``) says which (kind, gamma)
checks run and whether B must equal A, and ``_check_rhs`` gives their rhs
at each |B|; both sweep paths read them.  Exhaustive sweeps go class
first: for each |A| with checks left they gather the checks of all its |S|
classes under the (S, gamma) their operator reads, one S per orbit of S
under translations and units (plain and restricted fix theirs), group its A
masks, one slice of the popcount table, by orbit under translations and the
units that map that S to a translate of itself, and evaluate all B at once
through the mask tables in ``_masks``, once per orbit pair
(``MaskTables.orbit_pairs``): a translate of A or of S, and a unit multiple
u(A, B, S), have the same hit counts.  The same pass over each |A|
harvests witness rows, real triples, from its first A masks with hits.
A scalar fallback walks the triple stream one triple at a time,
evaluating every operator of a triple in one engine ``pair_sums`` call over
the translates b + A, and is kept bit-for-bit consistent with the vectorized
path (tests compare the two).

The kernel deals whole |A| sizes to shards and the scalar path deals A
masks by stream position.  Merging is order-independent:
counters add up and witness lists are re-sorted by a canonical triple key,
so any shard count yields an identical summary.  Each shard counts the
checks it evaluated and pruned, and the merge requires them to add up to
the plan.
"""

from __future__ import annotations

import functools
import heapq
import json
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _masks
from .engine import (
    generalized_restricted_sumset,
    pair_sums,
    restricted_sumset,
    sumset,
    twisted_restricted_sumset,
)
from .groups import GroupSpec, format_group
from .sets import (
    ElementSet,
    EnumerationPlan,
    enumerate_triples,
    format_set,
    size_mask_array,
)
# plan_a_masks and plan_s_masks are unused here but kept as module attributes:
# the benchmark tracer (perfbench/tracer.py) wraps bounds' enumeration names
from .sets import plan_a_masks, plan_s_masks  # noqa: F401

DEFAULT_WORK_CEILING = 10 ** 9
DEFAULT_MAX_WITNESSES = 100


class WorkCeilingExceeded(RuntimeError):
    """The sweep would exceed the configured number of (A,B,S,kind) checks."""


class Operator(Enum):
    PLAIN = "plain"
    RESTRICTED = "restricted"
    GENERAL = "general"
    TWISTED = "twisted"


class BoundKind(Enum):
    """The catalog of lower bounds; values are the stable CLI names."""

    CAUCHY_DAVENPORT = "cd"
    KNESER_CD = "kneser"
    ERDOS_HEILBRONN = "eh"
    ANR = "anr"
    KAROLYI = "karolyi"
    BALISTER_WHEELER = "bw"
    PAN_SUN = "pansun"
    THM1 = "thm1"
    PRIME_POWER_S = "ppow"
    THM2 = "thm2"
    PROP34 = "prop34"
    TWISTED_PAN_SUN = "twisted"

    # cached on the member, as a lookup keyed by an enum member hashes it in Python
    @functools.cached_property
    def info(self) -> "_KindInfo":
        return _KIND_INFO[self]

    @functools.cached_property
    def operator(self) -> Operator:
        return self.info.operator

    @functools.cached_property
    def fixed_s(self) -> int | None:
        """The S mask the operator fixes (plain and restricted), or None if it reads S."""
        return _FIXED_S.get(self.operator)

    @functools.cached_property
    def reads_s(self) -> bool:
        """Whether the operator reads the sweep's S; plain and restricted fix theirs."""
        return self.fixed_s is None

    @functools.cached_property
    def position(self) -> int:
        return ALL_KINDS.index(self)


# Each operator is A +_S B = {a + b : a - gamma*b not in S} at the (S, gamma) that
# _operator_s_gamma reads off the sweep's: plain fixes S = {}, restricted S = {0}
# (element index 0), general reads S, and twisted reads S and gamma.
_FIXED_S = {Operator.PLAIN: 0, Operator.RESTRICTED: 1}


def _operator_s_gamma(kind: BoundKind, smask: int, gamma) -> tuple[int, int]:
    """The (S mask, gamma) that ``kind``'s operator reads of the sweep's (S, gamma)."""
    fixed = kind.fixed_s
    return smask if fixed is None else fixed, gamma if kind.operator is Operator.TWISTED else 1


@dataclass(frozen=True)
class _KindInfo:
    """rhs = min(ca*|A| + cb*|B| + ch*|S| + c0, p(G)), and the bound's hypotheses.

    ``_failed_hypothesis`` tests the hypothesis fields in order; an operator
    that reads the sweep's S adds a non-empty S after the size fields, and
    the twisted operator adds gamma not in {0, -1} just before the size floor.
    """

    operator: Operator
    ca: int
    cb: int
    ch: int
    c0: int
    group_shape: str = ""  # a GroupSpec predicate that must hold, a key of _GROUP_SHAPES
    equal_sets: bool = False  # bound is about A (+) A
    distinct_sizes: bool = False  # needs |A| != |B|
    s_below_p: bool = False  # needs |S| < p
    size_floor: tuple[str, Callable[[int], int]] | None = None  # min(|A|,|B|) >= f(|S|)


_GROUP_SHAPES = {
    "is_prime_cyclic": "group not prime cyclic",
    "is_cyclic_prime_power": "group not a cyclic prime power",
}

_KIND_INFO = {
    BoundKind.CAUCHY_DAVENPORT: _KindInfo(
        Operator.PLAIN, 1, 1, 0, -1, group_shape="is_prime_cyclic"),
    BoundKind.KNESER_CD: _KindInfo(Operator.PLAIN, 1, 1, 0, -1),
    BoundKind.ERDOS_HEILBRONN: _KindInfo(
        Operator.RESTRICTED, 2, 0, 0, -3, group_shape="is_prime_cyclic", equal_sets=True),
    BoundKind.ANR: _KindInfo(
        Operator.RESTRICTED, 1, 1, 0, -2, group_shape="is_prime_cyclic", distinct_sizes=True),
    BoundKind.KAROLYI: _KindInfo(Operator.RESTRICTED, 2, 0, 0, -3, equal_sets=True),
    BoundKind.BALISTER_WHEELER: _KindInfo(Operator.RESTRICTED, 1, 1, 0, -3),
    BoundKind.PAN_SUN: _KindInfo(
        Operator.GENERAL, 1, 1, -1, -2, group_shape="is_prime_cyclic", s_below_p=True),
    BoundKind.THM1: _KindInfo(Operator.GENERAL, 1, 1, -3, 0),
    BoundKind.PRIME_POWER_S: _KindInfo(
        Operator.GENERAL, 1, 1, -2, -1, group_shape="is_cyclic_prime_power"),
    BoundKind.THM2: _KindInfo(
        Operator.GENERAL, 1, 1, -1, -2,
        size_floor=("9|S|^2-5|S|-3", lambda h: 9 * h * h - 5 * h - 3)),
    BoundKind.PROP34: _KindInfo(
        Operator.GENERAL, 1, 1, -1, -2, group_shape="is_cyclic_prime_power",
        size_floor=("6|S|^2-5", lambda h: 6 * h * h - 5)),
    BoundKind.TWISTED_PAN_SUN: _KindInfo(
        Operator.TWISTED, 1, 1, -1, -2, group_shape="is_prime_cyclic", s_below_p=True),
}

ALL_KINDS = tuple(BoundKind)
# The kernel counts a kind that reads S once per orbit of S under translations
# and units, a count that moves B to B + y; a B = A check cannot follow it, so
# it fixes S.
assert not any(kind.reads_s and kind.info.equal_sets for kind in ALL_KINDS)


def kind_from_name(name: str) -> BoundKind:
    try:
        return BoundKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in ALL_KINDS)
        raise ValueError(f"unknown bound kind {name!r}; expected one of: {valid}") from None


def bound_value(kind: BoundKind, a_size: int, b_size: int, s_size: int, p: int) -> int:
    """The right-hand side min-expression; may be <= 0 (then trivially met)."""
    info = kind.info
    return min(info.ca * a_size + info.cb * b_size + info.ch * s_size + info.c0, p)


def _failed_hypothesis(
    kind: BoundKind, group: GroupSpec, a_size: int, b_size: int, s_size: int, gamma
) -> str:
    """The first hypothesis of ``kind`` that fails at these sizes; "" when all hold.

    It sees sizes only, so for ``equal_sets`` kinds it tests |A| = |B|, not A = B.
    """
    info = kind.info
    if info.group_shape and not getattr(group, info.group_shape):
        return _GROUP_SHAPES[info.group_shape]
    if info.equal_sets and a_size != b_size:
        return "A != B"
    if info.distinct_sizes and a_size == b_size:
        return "|A| = |B|"
    if kind.reads_s and s_size == 0:
        return "S is empty"
    p = group.least_prime
    if info.s_below_p and s_size >= p:
        return f"|S| = {s_size} not < p = {p}"
    if info.operator is Operator.TWISTED:
        if gamma is None:
            return "gamma missing"
        if gamma % group.order == 0:
            return "gamma = 0 excluded"
        if gamma % group.order == group.order - 1:
            return "gamma = -1 excluded"
    if info.size_floor is not None:
        text, floor = info.size_floor
        low = min(a_size, b_size)
        if low < floor(s_size):
            return f"min(|A|,|B|) = {low} < {text} = {floor(s_size)}"
    return ""


def applicability(
    kind: BoundKind,
    group: GroupSpec,
    a: ElementSet,
    b: ElementSet,
    s: ElementSet,
    gamma: int | None = None,
) -> tuple[bool, str]:
    """Whether every stated hypothesis of the bound holds for this triple.

    The reason string names the first failed hypothesis ("" when applicable).
    """
    reason = _failed_hypothesis(kind, group, a.size, b.size, s.size, gamma)
    if not reason and kind.info.equal_sets and a != b:
        reason = "A != B"
    return not reason, reason


def operator_lhs(
    kind: BoundKind, a: ElementSet, b: ElementSet, s: ElementSet, gamma: int | None = None
) -> int:
    op = kind.operator
    if op is Operator.PLAIN:
        return sumset(a, b).size
    if op is Operator.RESTRICTED:
        return restricted_sumset(a, b).size
    if op is Operator.GENERAL:
        return generalized_restricted_sumset(a, b, s).size
    if gamma is None:
        raise ValueError("twisted bound needs gamma")
    return twisted_restricted_sumset(a, b, s, gamma).size


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one (A, B, S[, gamma]) triple against one bound."""

    kind: BoundKind
    a: ElementSet
    b: ElementSet
    s: ElementSet
    gamma: int | None
    lhs: int
    rhs: int
    applicable: bool
    reason: str
    hypothesis_dropped: bool = False

    @property
    def satisfied(self) -> bool:
        """A bound that does not apply is met by every lhs."""
        return not self.applicable or self.lhs >= self.rhs

    @property
    def tight(self) -> bool:
        return self.applicable and self.lhs == self.rhs

    def to_row(self) -> dict:
        return {
            "kind": self.kind.value,
            "A": format_set(self.a),
            "B": format_set(self.b),
            "S": format_set(self.s),
            "gamma": self.gamma,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tight": self.tight,
        }


def check_triple(
    group: GroupSpec,
    a: ElementSet,
    b: ElementSet,
    s: ElementSet,
    kind: BoundKind,
    gamma: int | None = None,
) -> BoundReport:
    """Evaluate one bound on one triple; operator errors propagate."""
    for part in (a, b, s):
        if part.group != group:
            raise ValueError("triple does not belong to the stated group")
    lhs = operator_lhs(kind, a, b, s, gamma)
    rhs = bound_value(kind, a.size, b.size, s.size, group.least_prime)
    applicable, reason = applicability(kind, group, a, b, s, gamma)
    return BoundReport(
        kind=kind, a=a, b=b, s=s, gamma=gamma, lhs=lhs, rhs=rhs,
        applicable=applicable, reason=reason,
    )


# -- sweep machinery -----------------------------------------------------------


@dataclass(frozen=True)
class _SweepConfig:
    kinds: tuple[BoundKind, ...]
    gammas: tuple[int, ...]
    collect_violations: bool
    collect_tight: bool
    ignore_applicability: bool
    max_witnesses: int
    prune: bool
    force_scalar: bool


class _TopK:
    """Keep the cap smallest integer keys with their payloads, plus a total."""

    def __init__(self, cap: int):
        self.cap = cap
        self.heap: list[tuple[int, tuple]] = []  # (-key, payload)
        self.total = 0

    @property
    def threshold(self) -> int | None:
        """Keys >= this can never enter the heap, as it only falls; None while not yet full."""
        if self.cap <= 0:
            return -1
        if len(self.heap) < self.cap:
            return None
        return -self.heap[0][0]

    def offer(self, key: int, payload: tuple) -> bool:
        """Keep the key if it is among the cap smallest offered; return whether it was kept."""
        if len(self.heap) < self.cap:
            heapq.heappush(self.heap, (-key, payload))
        elif self.cap > 0 and key < -self.heap[0][0]:
            heapq.heapreplace(self.heap, (-key, payload))
        else:
            return False
        return True

    def record(self, key: int, payload: tuple) -> None:
        self.total += 1
        self.offer(key, payload)

    def merge(self, other: "_TopK") -> None:
        self.total += other.total
        for negkey, payload in other.heap:
            self.offer(-negkey, payload)

    def sorted_payloads(self) -> list[tuple]:
        return [p for _, p in sorted(((-nk, p) for nk, p in self.heap))]


def _triple_key(order: int, amask: int, bmask: int, smask: int, kind: BoundKind, gamma) -> int:
    span = 1 << order
    code = 0 if gamma is None else (gamma % order) + 1
    key = ((amask * span + bmask) * span + smask)
    return (key * len(ALL_KINDS) + kind.position) * (order + 2) + code


def _witness(order, amask, bmask, smask, kind, gamma, lhs, rhs) -> tuple[int, tuple]:
    """A hit's (key, payload); ``_payload_report`` turns the payload into a report."""
    key = _triple_key(order, amask, bmask, smask, kind, gamma)
    return key, (amask, bmask, smask, kind.value, gamma, lhs, rhs)


def _kind_gammas(kind: BoundKind, cfg: _SweepConfig) -> tuple:
    """The gammas a kind is checked at: the sweep's for twisted, (None,) otherwise."""
    return cfg.gammas if kind.operator is Operator.TWISTED else (None,)


def _min_lhs_floor(kind: BoundKind, m: int, b_min: int, h: int) -> int:
    """max(|A|, |B|) - |S| at the operator's own S, so restricted stays 1 at |S| = 0."""
    s_eff = _operator_s_gamma(kind, (1 << h) - 1, None)[0]
    return max(m, b_min) - s_eff.bit_count()


def _prunable(kind: BoundKind, m: int, h: int, plan: EnumerationPlan, p: int) -> bool:
    return _min_lhs_floor(kind, m, plan.b_min, h) >= bound_value(kind, m, plan.b_max, h, p)


def _size_class(plan: EnumerationPlan, cfg: _SweepConfig, m: int, h: int):
    """The check plan of the (|A|, |S|) = (m, h) class.

    Returns (checks, evaluated, pruned): each triple of the class has
    ``evaluated`` (kind, gamma) checks, and --prune skips ``pruned`` more.
    Each check is (kind, gamma, same): ``same`` says only B = A is checked.
    ``_check_rhs`` gives a check's rhs at the |B| values a path needs.
    """
    p = plan.group.least_prime
    checks = []
    evaluated = pruned = 0
    for kind in cfg.kinds:
        gammas = _kind_gammas(kind, cfg)
        if cfg.prune and _prunable(kind, m, h, plan, p):
            pruned += len(gammas)
            continue
        evaluated += len(gammas)
        same = kind.info.equal_sets and not cfg.ignore_applicability
        checks.extend((kind, gamma, same) for gamma in gammas)
    return checks, evaluated, pruned


def _check_rhs(plan: EnumerationPlan, cfg: _SweepConfig, kind, gamma, m, h, b_sizes) -> list[int]:
    """A check's rhs at |A| = m, |S| = h and each |B| in ``b_sizes``, as Python ints.

    An rhs is -1 where |B| is outside the plan, a hypothesis fails (unless
    they are ignored) or the bound is <= -1, so no lhs is below or equal to
    it there.
    """
    g = plan.group
    rhs = [
        max(bound_value(kind, m, k, h, g.least_prime), -1) if plan.b_min <= k <= plan.b_max else -1
        for k in b_sizes
    ]
    if cfg.ignore_applicability:
        return rhs
    ok = _applicable_vector(kind, g, m, h, gamma, b_sizes)
    return [r if applies else -1 for r, applies in zip(rhs, ok)]


def _applicable_vector(kind, g, m, h, gamma, sizes):
    """Whether the hypotheses hold at |A| = m, |S| = h and each |B| in ``sizes``.

    For ``equal_sets`` kinds this only says |B| = |A|; the caller must still
    restrict to B = A.
    """
    return [not _failed_hypothesis(kind, g, m, b, h, gamma) for b in sizes]


@dataclass
class _ShardResult:
    violations: _TopK
    tight: _TopK
    evaluated: int = 0  # (A, B, S, kind, gamma) checks decided by this shard
    pruned: int = 0  # checks skipped because their (|A|, |S|) class was pruned
    triples: int = 0  # (A, B, S) triples with at least one evaluated check

    def count(self, k: int, evaluated: int, pruned: int) -> None:
        """Count k triples of a size class, each with these evaluated and pruned checks."""
        self.evaluated += k * evaluated
        self.pruned += k * pruned
        self.triples += k if evaluated else 0


def _planned_checks(
    plan: EnumerationPlan, cfg: _SweepConfig, work_ceiling: int, shard_count: int, threads: int
) -> int:
    """The sweep's (A, B, S, kind, gamma) check count, which must be in [1, work_ceiling].

    It also refuses shard and thread counts below 1, so a sweep it accepts
    runs; the caller has already checked the witness cap against its floor.
    """
    if shard_count < 1 or threads < 1:
        raise ValueError(f"shard_count and threads must be >= 1, got {shard_count} and {threads}")
    p = plan.group.least_prime
    if not cfg.ignore_applicability and p - 1 in cfg.gammas:
        raise ValueError(f"gamma = {p - 1} is -1 modulo {p}, where no twisted check applies; "
                         f"only a counterexample search, which drops the hypotheses, takes it")
    checks = plan.count_triples() * sum(len(_kind_gammas(k, cfg)) for k in cfg.kinds)
    if checks == 0:
        # only twisted kinds can contribute no checks: they have no gammas off Z_p,
        # and on Z2 none by default, where 1 = -1
        raise ValueError(
            f"no checks planned: the twisted bound needs a prime cyclic group and a "
            f"gamma other than 0 and -1, got {format_group(plan.group)}"
        )
    reasons = [] if cfg.ignore_applicability else _failed_everywhere(plan, cfg)
    if reasons:
        raise ValueError(f"no planned check applies at any size class of the plan: "
                         f"{'; '.join(reasons)}")
    if checks > work_ceiling:
        raise WorkCeilingExceeded(
            f"planned {checks} checks exceed the work ceiling {work_ceiling}"
        )
    return checks


def _failed_everywhere(plan: EnumerationPlan, cfg: _SweepConfig) -> list[str]:
    """Each kind's first failed hypothesis when no (kind, gamma) check applies anywhere.

    [] as soon as one check applies.  A hypothesis reads |A| and |B| only
    through |A| = |B| and min(|A|, |B|), so at each |S| the size pairs
    (a_max, b_max), (M, M), (M, M - 1) and (M - 1, M) with M = min(a_max, b_max)
    cover every case, less those outside the plan's ranges; the work does not
    grow with |G|.  Gamma = -1 is refused before this, so a kind's first
    gamma decides for all of its gammas.
    """
    top = min(plan.a_max, plan.b_max)
    pairs = [(a, b) for a, b in ((plan.a_max, plan.b_max), (top, top), (top, top - 1),
                                 (top - 1, top))
             if plan.a_min <= a <= plan.a_max and plan.b_min <= b <= plan.b_max]
    reasons: dict[BoundKind, str] = {}
    for kind in cfg.kinds:
        for gamma in _kind_gammas(kind, cfg)[:1]:
            for h in range(plan.s_min, plan.s_max + 1):
                for a, b in pairs:
                    reason = _failed_hypothesis(kind, plan.group, a, b, h, gamma)
                    if not reason:
                        return []
                    reasons.setdefault(kind, f"{kind.value} ({reason})")
    return list(reasons.values())


def _shard_worker(args) -> _ShardResult:
    plan, cfg, shard_index, shard_count = args
    use_scalar = (
        cfg.force_scalar
        or plan.mode == "sampled"
        or plan.group.order > _masks.MAX_TABLE_ORDER
    )
    if use_scalar:
        return _scalar_shard(plan, cfg, shard_index, shard_count)
    return _vector_shard(plan, cfg, shard_index, shard_count)


def _scalar_shard(
    plan: EnumerationPlan, cfg: _SweepConfig, shard_index: int, shard_count: int
) -> _ShardResult:
    """Walk the shard's triples one at a time against the check plan at their sizes.

    The plan is built once per (|A|, |S|), the kernel's size class, and the
    rhs of its checks once per |B| that a triple of the class has, so the
    work per class does not grow with |G|.  A check whose rhs is -1 at the
    triple's |B|, or that needs B = A when B differs, is skipped.  The live
    checks share one lhs per (S, gamma) that ``_operator_s_gamma`` gives, all
    computed by one engine ``pair_sums`` call over the translates b + A, not
    by mask tables, so this path is the reference for the kernel's.
    """
    g = plan.group
    n = g.order
    res = _ShardResult(_TopK(cfg.max_witnesses), _TopK(cfg.max_witnesses))
    classes: dict[tuple[int, int], tuple] = {}  # (|A|, |S|) -> check plan, rhs by |B|
    for a, b, s in enumerate_triples(plan, shard_index, shard_count):
        sizes = a.size, s.size
        if sizes not in classes:
            classes[sizes] = (*_size_class(plan, cfg, *sizes), {})
        checks, evaluated, pruned, rhs_by_b = classes[sizes]
        res.count(1, evaluated, pruned)
        if b.size not in rhs_by_b:
            rhs_by_b[b.size] = [_check_rhs(plan, cfg, kind, gamma, *sizes, [b.size])[0]
                                for kind, gamma, _ in checks]
        live = [
            (kind, gamma, rhs, _operator_s_gamma(kind, s.bits, gamma))
            for (kind, gamma, same), rhs in zip(checks, rhs_by_b[b.size])
            if rhs >= 0 and not (same and a.bits != b.bits)
        ]
        if not live:
            continue
        rules = list(dict.fromkeys(rule for *_, rule in live))
        sums = pair_sums(g, a.bits, b.bits, rules)
        lhs_by_rule = {rule: bits.bit_count() for rule, bits in zip(rules, sums)}
        for kind, gamma, rhs, rule in live:
            lhs = lhs_by_rule[rule]
            if (lhs < rhs and cfg.collect_violations) or (lhs == rhs and cfg.collect_tight):
                collector = res.violations if lhs < rhs else res.tight
                collector.record(*_witness(n, a.bits, b.bits, s.bits, kind, gamma, lhs, rhs))
    return res


# The byte planes of one size-table build stay within this many bytes, so a
# chunk holds 256 rows at order 10, 16 at order 14 and one at order 17 and above.
_CHUNK_BYTES = 512 * 1024


def _chunk_rows(order: int) -> int:
    return max(1, _CHUNK_BYTES // (_masks.plane_count(order) << order))


def _harvest(collector: _TopK, rows, cols, chunk, smask, kind, gamma, lhs, rhs, n) -> None:
    """Offer the hits (rows[i], cols[i]) = (index into chunk, B mask) as witnesses.

    It only offers: the kernel has already added every hit to the
    collector's total.  The hits must arrive in ascending key order.
    They do when the chunk's A masks ascend: the kernel lists them row by
    row, B masks ascend within a row, and smask, kind and gamma are fixed per
    call.  A hit the collector keeps is then never evicted by a later one of
    the same call, so only the first ``cap`` hits can be kept, and after the
    first refusal none can.
    """
    cap = collector.cap
    for r, bmask in zip(rows[:cap].tolist(), cols[:cap].tolist()):
        lhs_r, rhs_r = int(lhs[r, bmask]), int(rhs[bmask])
        if not collector.offer(*_witness(n, chunk[r], bmask, smask, kind, gamma, lhs_r, rhs_r)):
            return


def _row_counts(hit: np.ndarray) -> np.ndarray:
    """The hits in each row of a 2-d bool table, summed over its bytes viewed
    as uint8: numpy's ``count_nonzero(axis=1)`` takes a slower generic reduction."""
    return np.add.reduce(hit.view(np.uint8), axis=1, dtype=np.int32)


def _vector_shard(
    plan: EnumerationPlan, cfg: _SweepConfig, shard_index: int, shard_count: int
) -> _ShardResult:
    """Evaluate every B at once, one size table per orbit pair of (A, S) under units.

    Shard i of N walks every N-th |A| of the plan from a_min + i, and takes
    all A masks of each size, one slice of the popcount table.  Each
    (|A|, |S|) class is planned and counted once, its rhs read out over B by
    the B popcounts, and its checks are gathered under the (S, gamma) that
    their operator reads, in one key map for all classes of that |A|.  Only
    sizes with checks left are walked.

    Each |A| is one pass over one key map, and it counts with tables built
    once per orbit pair of (A, S).  For a unit u (coprime to the exponent),
    (A, B, S) -> (uA, uB, uS) keeps the lhs at every gamma, since
    u(a - gamma*b) = ua - gamma*(ub), and keeps every size and B = A (the
    only B = A checks are at gamma = 1).  (A, B, S) -> (A + x, B + x/gamma, S)
    and (A, B - y/gamma, S + y) keep the lhs and |B| too, as every gamma a
    sweep takes is a unit.  So a check whose operator reads S has one entry
    per orbit of the size's S masks under translations and units, from
    ``MaskTables.orbit_pairs``, keyed at the orbit's least mask S0: each S
    mask u*S0 + x of the orbit gives A the hits of u^-1 A at S0, and the A
    masks of a size are closed under units, so the entry's hits count once
    per S mask of the plan in the orbit.  Its A masks are grouped by orbit
    under translations and H0, the units that map S0 to a translate of
    itself, and each member of an A orbit has its least member's hits.  An
    operator that fixes S has one entry per |S| class for all its masks,
    keyed at the fixed S, which every unit fixes, so its A masks are grouped
    under all units.  ``MaskTables.size_tables`` builds the tables of every
    (A orbit, key) pair of a pass in chunks of ``_chunk_rows`` rows across
    its unit groups, and each chunk's checks run before the next is built.

    A pass counts the checks it compares, by the A masks and S masks each
    table entry stands for, and checks with no |B| of the plan to compare;
    ``_sweep`` reconciles the total with the plan.

    Then it builds tables for the A masks that can still give a collector
    witness rows, at the real (S, gamma) keys of every S mask of the entries
    with a hit.  An entry's S masks meet every coset of its H0, so A has a
    hit at one of them iff A's orbit under translations and all units holds
    an A orbit under H0 with a hit, one ``orbit_rep(units)`` lookup per pass.
    Triple keys sort by A mask first, so these are its first ``cap`` masks
    of this size with a hit, less those whose least key is at or above its
    ``threshold``; ``_harvest`` offers their hits, computed once per entry
    and offered under each of its S masks when the operator fixes S.
    """
    g = plan.group
    n = g.order
    t = _masks.tables_for(g)
    b_count = plan.b_count()
    res = _ShardResult(_TopK(cfg.max_witnesses), _TopK(cfg.max_witnesses))
    s_by_size = {h: size_mask_array(t.pops, h, plan.canonicalize_s).tolist()
                 for h in range(plan.s_min, plan.s_max + 1)}
    # one comparison per table: lhs <= rhs when both collectors are on, split by lhs < rhs
    both = cfg.collect_violations and cfg.collect_tight
    cmp = np.less_equal if both else np.less if cfg.collect_violations else np.equal
    if both:
        collectors = (res.violations, res.tight)
    else:
        collectors = (res.violations if cfg.collect_violations else res.tight,)
    chunk_rows = _chunk_rows(n)
    full = t.orbit_rep(t.units)  # one value per orbit of A under translations and all units

    def key_map(m, a_count):
        """|A| = m's key map, H0 -> (its A orbits, (S, gamma) -> positions in
        its check entries), and the entries.  It counts each class's pruned
        checks, its triples, and the checks with no |B| of the plan to compare.

        An entry is (S masks, kind, gamma, same, rhs): one orbit of the
        size's S masks under translations and units, keyed at its least mask
        S0, when the operator reads the sweep's S, and all of them at the
        fixed key when the operator fixes S.
        """
        work: dict[tuple[int, ...], tuple[_masks.AOrbits, dict]] = {}
        entries = []
        for h, s_list in s_by_size.items():
            checks, evaluated, pruned = _size_class(plan, cfg, m, h)
            triples = a_count * len(s_list) * b_count
            res.pruned += triples * pruned
            res.triples += triples if evaluated else 0
            for kind, gamma, same in checks:
                rhs = _check_rhs(plan, cfg, kind, gamma, m, h, range(n + 1))
                if max(rhs) < 0:
                    res.evaluated += triples  # no |B| of the plan to check
                    continue
                rhs = np.array(rhs, dtype=np.int8)[t.pops]
                if kind.reads_s:
                    groups = [(o.rep, o.units, o.members, a) for o, a in t.orbit_pairs(
                        m, h, plan.canonicalize, plan.canonicalize_s)]
                else:  # every unit fixes S = {} and S = {0}
                    groups = [(0, t.units, s_list, t.a_orbits(t.units, m, plan.canonicalize))]
                for rep, units, members, a in groups:
                    key = _operator_s_gamma(kind, rep, gamma)
                    work.setdefault(units, (a, {}))[1].setdefault(key, []).append(len(entries))
                    entries.append((members, kind, gamma, same, rhs))
        return work, entries

    for m in range(plan.a_min + shard_index, plan.a_max + 1, shard_count):
        mine = size_mask_array(t.pops, m, plan.canonicalize)
        work, entries = key_map(m, mine.size)
        if not work:
            continue
        hit_reps = [[] for _ in collectors]  # the reps of A orbits with a hit, per collector
        hit_entries = set()
        # one group of (A orbit, key) pairs per H0
        groups = [(orbits, list(keys.values())) for orbits, keys in work.values()]
        tables = [(orbits.reps, list(keys)) for orbits, keys in work.values()]
        for k, j, rows, lhs in t.size_tables(tables, chunk_rows):
            orbits, by_key = groups[k]
            ar = orbits.reps[rows]
            weight = orbits.weights[rows]
            compared = int(weight.sum()) * b_count  # the A masks and B masks of the rows
            for e in by_key[j]:
                members, kind, gamma, same, rhs = entries[e]
                res.evaluated += compared * len(members)
                if same:  # only B = A: one entry per row
                    lhs_h, rhs_h = lhs[np.arange(ar.size), ar][:, None], rhs[ar][:, None]
                else:
                    lhs_h, rhs_h = lhs, rhs
                hit = cmp(lhs_h, rhs_h)
                if not hit.any():
                    continue
                hit_entries.add(e)
                per_row = _row_counts(hit)
                counts = (per_row,)
                if both:  # split the lhs <= rhs hits
                    below = _row_counts(lhs_h < rhs_h)
                    counts = (below, per_row - below)
                for collector, count, reps in zip(collectors, counts, hit_reps):
                    collector.total += len(members) * int(count @ weight)
                    reps.append(ar[count > 0])
        if not hit_entries:
            continue
        # witness rows: each collector's first cap masks with a hit, less those
        # whose least possible key is at or above its threshold
        orbit = full[mine]
        picks = set()  # positions in mine
        for collector, reps in zip(collectors, hit_reps):
            first = np.flatnonzero(np.isin(orbit, full[np.concatenate(reps)]))[:collector.cap]
            limit = collector.threshold
            picks.update(i for i, a in zip(first.tolist(), mine[first].tolist())
                         if limit is None or _triple_key(n, a, 0, 0, ALL_KINDS[0], None) < limit)
        if not picks:
            continue
        picks = sorted(picks)
        amasks = mine[picks]
        # the real (S, gamma) keys of the S masks of each entry with a hit
        real: dict[tuple[int, int], list] = {}
        for e in sorted(hit_entries):
            members, kind, gamma, same, rhs = entries[e]
            for smasks in ([s] for s in members) if kind.reads_s else [members]:
                key = _operator_s_gamma(kind, smasks[0], gamma)
                real.setdefault(key, []).append((smasks, kind, gamma, same, rhs))
        wanted = list(real)
        for _, j, rows, lhs in t.size_tables([(amasks, wanted)], chunk_rows):
            ar = amasks[rows]
            chunk = ar.tolist()  # Python ints: triple keys overflow int64 at order 20
            for smasks, kind, gamma, same, rhs in real[wanted[j]]:
                # (chunk rows, B masks) of the hits; only B = A when ``same``
                if same:
                    rows_hit = np.flatnonzero(cmp(lhs[np.arange(ar.size), ar], rhs[ar]))
                    cols = ar[rows_hit]
                else:
                    cols = np.flatnonzero(cmp(lhs, rhs))  # far faster than a 2-d nonzero
                    rows_hit = cols >> n
                    cols &= (1 << n) - 1
                if not rows_hit.size:
                    continue
                if both:  # split the lhs <= rhs hits
                    below = lhs[rows_hit, cols] < rhs[cols]
                    parts = ((res.violations, rows_hit[below], cols[below]),
                             (res.tight, rows_hit[~below], cols[~below]))
                else:
                    parts = ((collectors[0], rows_hit, cols),)
                for smask in smasks:  # an operator that fixes S gives each member these hits
                    for collector, r, b in parts:
                        _harvest(collector, r, b, chunk, smask, kind, gamma, lhs, rhs, n)
    return res


# -- public sweep entry points ---------------------------------------------------


@dataclass
class VerificationSummary:
    """Outcome of one sweep: counters plus capped, key-sorted witness lists."""

    plan: EnumerationPlan
    kinds: tuple[BoundKind, ...]
    gammas: tuple[int, ...]
    triples_checked: int
    checks_planned: int
    violation_count: int
    tight_count: int
    violations: list[BoundReport]
    tight: list[BoundReport]
    elapsed_ms: int
    pruned: bool
    max_witnesses: int
    work_ceiling: int

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def to_json_dict(self, include_timing: bool = True) -> dict:
        plan = self.plan
        return {
            "group": format_group(plan.group),
            "kinds": [k.value for k in self.kinds],
            "constraints": {
                "a_size": [plan.a_min, plan.a_max],
                "b_size": [plan.b_min, plan.b_max],
                "s_size": [plan.s_min, plan.s_max],
                "mode": plan.mode,
                "sample_count": plan.sample_count,
                "seed": plan.seed,
                "canonicalize": plan.canonicalize,
                "canonicalize_s": plan.canonicalize_s,
                "gammas": list(self.gammas),
                "prune": self.pruned,
                "max_witnesses": self.max_witnesses,
                "work_ceiling": self.work_ceiling,
            },
            "triples_checked": self.triples_checked,
            "checks_planned": self.checks_planned,
            "violation_count": self.violation_count,
            "tight_count": self.tight_count,
            "violations": [r.to_row() for r in self.violations],
            "tight": [r.to_row() for r in self.tight],
            "elapsed_ms": self.elapsed_ms if include_timing else 0,
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timing), sort_keys=True, indent=2)


def witness_csv(group: GroupSpec, rows: list[dict]) -> str:
    """Witness rows (``BoundReport.to_row`` dicts) as CSV text with its header."""
    lines = ["group,kind,A,B,S,gamma,lhs,rhs,tight"]
    gname = format_group(group)
    for row in rows:
        gamma = "" if row["gamma"] is None else str(row["gamma"])
        lines.append(
            f'{gname},{row["kind"]},"{row["A"]}","{row["B"]}","{row["S"]}",'
            f'{gamma},{row["lhs"]},{row["rhs"]},{str(row["tight"]).lower()}'
        )
    return "\n".join(lines) + "\n"


def _payload_report(plan: EnumerationPlan, payload: tuple, hypothesis_dropped: bool) -> BoundReport:
    """A witness payload as a report.  A sweep records a hit only where its rhs
    is >= 0, that is where the check applies (B = A for ``equal_sets`` kinds),
    so every report is applicable; with the hypotheses dropped the formula was
    evaluated as if they held, and the report is flagged so readers know."""
    g = plan.group
    amask, bmask, smask, kind_name, gamma, lhs, rhs = payload
    return BoundReport(
        kind=BoundKind(kind_name), a=ElementSet(g, amask), b=ElementSet(g, bmask),
        s=ElementSet(g, smask), gamma=gamma, lhs=lhs, rhs=rhs, applicable=True,
        reason="hypotheses deliberately dropped" if hypothesis_dropped else "",
        hypothesis_dropped=hypothesis_dropped,
    )


def default_gammas(p: int) -> range:
    """The gammas a twisted sweep on Z_p checks by default: all but 0 and -1, none on Z2."""
    return range(1, p - 1)


def _normalize_gammas(plan: EnumerationPlan, kinds, gammas) -> tuple[int, ...]:
    g = plan.group
    if not g.is_prime_cyclic or not any(k.operator is Operator.TWISTED for k in kinds):
        return ()
    p = g.order
    vals = default_gammas(p) if gammas is None else gammas
    out = sorted({v % p for v in vals})
    if any(v == 0 for v in out):
        raise ValueError("gamma must be non-zero modulo p")
    return tuple(out)


def _sweep(
    plan: EnumerationPlan, cfg: _SweepConfig, work_ceiling: int, shard_count: int, threads: int,
    on_planned: Callable[[int], object] | None,
) -> VerificationSummary:
    """Plan the checks, run every shard, reconcile and merge them into a summary.

    ``_planned_checks`` refuses a sweep that cannot run before ``on_planned``,
    when given, is called with the planned check count.  The shards must
    evaluate and prune exactly the planned checks between them.
    ``elapsed_ms`` covers the shards and their merge, not the reports.
    """
    checks = _planned_checks(plan, cfg, work_ceiling, shard_count, threads)
    if on_planned is not None:
        on_planned(checks)
    start = time.perf_counter()
    jobs = [(plan, cfg, i, shard_count) for i in range(shard_count)]
    if threads > 1 and shard_count > 1:
        with ProcessPoolExecutor(max_workers=min(threads, shard_count)) as pool:
            results = list(pool.map(_shard_worker, jobs))
    else:
        results = [_shard_worker(job) for job in jobs]
    evaluated = sum(r.evaluated for r in results)
    pruned = sum(r.pruned for r in results)
    if evaluated + pruned != checks:
        raise RuntimeError(
            f"shards evaluated {evaluated} and pruned {pruned} checks, "
            f"but the plan has {checks}"
        )
    violations = _TopK(cfg.max_witnesses)
    tight = _TopK(cfg.max_witnesses)
    for r in results:
        violations.merge(r.violations)
        tight.merge(r.tight)
    elapsed_ms = int((time.perf_counter() - start) * 1000)
    dropped = cfg.ignore_applicability
    return VerificationSummary(
        plan=plan, kinds=cfg.kinds, gammas=cfg.gammas,
        triples_checked=sum(r.triples for r in results), checks_planned=checks,
        violation_count=violations.total, tight_count=tight.total,
        violations=[_payload_report(plan, p, dropped) for p in violations.sorted_payloads()],
        tight=[_payload_report(plan, p, dropped) for p in tight.sorted_payloads()],
        elapsed_ms=elapsed_ms, pruned=cfg.prune, max_witnesses=cfg.max_witnesses,
        work_ceiling=work_ceiling,
    )


def exhaustive_verify(
    plan: EnumerationPlan,
    kinds,
    *,
    gammas=None,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
    work_ceiling: int = DEFAULT_WORK_CEILING,
    collect_tight: bool = True,
    prune: bool = False,
    shard_count: int = 1,
    threads: int = 1,
    force_scalar: bool = False,
    on_planned: Callable[[int], object] | None = None,
) -> VerificationSummary:
    """Check every enumerated triple against every applicable kind.

    The summary is deterministic and independent of shard_count/threads.
    ``max_witnesses`` may be 0, which keeps the counts and lists no witness;
    a negative cap is refused before anything else.  ``prune`` skips
    (|A|, |S|) classes whose trivial floor max(|A|,|B|) - |S| already meets
    the largest possible rhs; it preserves the violation report exactly,
    suppresses tight collection, and leaves out of ``triples_checked`` the
    triples of classes it skips for every kind.  ``on_planned``, when given,
    is called with the planned check count once ``_planned_checks`` has
    accepted the sweep, before any shard runs.  A kind listed twice is
    checked once, at its first place.
    """
    if max_witnesses < 0:
        raise ValueError(f"max_witnesses must be >= 0, got {max_witnesses}")
    kinds = tuple(dict.fromkeys(kinds))
    if not kinds:
        raise ValueError("at least one bound kind required")
    cfg = _SweepConfig(
        kinds=kinds, gammas=_normalize_gammas(plan, kinds, gammas), collect_violations=True,
        collect_tight=collect_tight and not prune, ignore_applicability=False,
        max_witnesses=max_witnesses, prune=prune, force_scalar=force_scalar,
    )
    return _sweep(plan, cfg, work_ceiling, shard_count, threads, on_planned)


def search_witnesses(
    plan: EnumerationPlan,
    kind: BoundKind,
    mode: str = "tight",
    *,
    gammas=None,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
    work_ceiling: int = DEFAULT_WORK_CEILING,
    shard_count: int = 1,
    threads: int = 1,
    force_scalar: bool = False,
    on_planned: Callable[[int], object] | None = None,
) -> list[BoundReport]:
    """Tight mode: triples with lhs = rhs under full applicability.

    Counterexample mode: triples violating the bare formula with every
    hypothesis deliberately dropped (reports are flagged); an empty result
    is a perfectly good outcome, never an error.  A search runs the sweep
    of ``exhaustive_verify``, ``_sweep``, with one collector on and returns
    only that collector's witnesses, so ``max_witnesses`` must be at least
    1, which is checked before anything else.  ``on_planned`` is called as
    in ``exhaustive_verify``.
    """
    if max_witnesses < 1:
        raise ValueError(f"max_witnesses must be >= 1 for a search, which lists only its "
                         f"witnesses, got {max_witnesses}")
    if mode not in ("tight", "counterexample"):
        raise ValueError(f"unknown search mode {mode!r}")
    counterexample = mode == "counterexample"
    cfg = _SweepConfig(
        kinds=(kind,), gammas=_normalize_gammas(plan, (kind,), gammas),
        collect_violations=counterexample, collect_tight=not counterexample,
        ignore_applicability=counterexample, max_witnesses=max_witnesses, prune=False,
        force_scalar=force_scalar,
    )
    summary = _sweep(plan, cfg, work_ceiling, shard_count, threads, on_planned)
    return summary.violations if counterexample else summary.tight
