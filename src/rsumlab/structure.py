"""Constructive procedures behind the lower-bound proofs.

Coset decomposition, sumset stabilizers, Hall-style selection of distinct
representative sums via augmenting-path matching, the critical-pair
trichotomy (singleton / common-difference progressions / prime-order coset),
and the direct-sum fiber-spread count.

Two error regimes are kept apart: a HypothesisViolation means the *caller's
input* fails a stated precondition; a LemmaViolation (or
EmptyClassification) means a construction that provably always succeeds
failed, which a test must treat as a defect, never swallow.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

# generalized_restricted_sumset is unused here but kept as a module attribute:
# the benchmark tracer (perfbench/tracer.py) wraps structure's sumset names
from .engine import generalized_restricted_sumset, sumset  # noqa: F401
from .groups import Element, GroupSpec, index_table, map_bits
from .sets import ElementSet, _require_same_group
from .subgroups import Subgroup, prime_order_subgroups


class HypothesisViolation(ValueError):
    """An operation's stated precondition does not hold for the input."""


class LemmaViolation(RuntimeError):
    """A construction that is guaranteed to succeed did not."""


class EmptyClassification(LemmaViolation):
    """No structure class matched a critical pair."""


# -- coset decomposition -------------------------------------------------------


@dataclass(frozen=True)
class CosetDecomposition:
    """X = union of (rep_i + fiber_i) over the H-cosets meeting X.

    Fibers are non-empty subsets of H containing 0; representatives are the
    minimal element index inside each hit coset, pairwise in distinct cosets.
    Parts are sorted by descending fiber size, ties by representative index.
    """

    subgroup: Subgroup
    parts: tuple[tuple[Element, ElementSet], ...]

    @property
    def part_count(self) -> int:
        return len(self.parts)


def coset_decompose(x: ElementSet, h: Subgroup) -> CosetDecomposition:
    """Split a non-empty set into its fibers over the cosets of a subgroup."""
    g = _require_same_group(x, h.members)
    if not x.bits:
        raise ValueError("cannot decompose the empty set")
    t = index_table(g)
    remaining = x.bits
    found: list[tuple[int, int, int]] = []  # (-fiber size, rep index, fiber bits)
    while remaining:
        rep = (remaining & -remaining).bit_length() - 1
        hit = remaining & map_bits(h.members.bits, t.add[rep])
        found.append((-hit.bit_count(), rep, map_bits(hit, t.add[t.neg[rep]])))
        remaining &= ~hit
    found.sort()
    parts = tuple((g.index_element(rep), ElementSet(g, fiber)) for _, rep, fiber in found)
    return CosetDecomposition(subgroup=h, parts=parts)


def stabilizer(x: ElementSet) -> Subgroup:
    """The period H(X) = {g : g + X = X}; always a subgroup."""
    g = x.group
    if not x.bits:
        raise ValueError("stabilizer of the empty set is undefined here")
    add = index_table(g).add
    bits = 0
    for i in range(g.order):
        if map_bits(x.bits, add[i]) == x.bits:
            bits |= 1 << i
    members = ElementSet(g, bits)
    return Subgroup(group=g, members=members, order=members.size)


# -- distinct representative sums (Hall-type selection) -------------------------


class SdrVariant(Enum):
    """Which selection lemma's hypotheses and index windows apply."""

    LEMMA22 = "lemma22"
    LEMMA33 = "lemma33"
    LEMMA32 = "lemma32"


@dataclass(frozen=True)
class SdrInstance:
    """Indexed inputs (a_1..a_m, b_1..b_n, S) for one selection variant.

    The element order is part of the instance: a_1 plays a special role and
    the index windows refer to positions.  ``from_sets`` orders elements by
    ascending index.
    """

    group: GroupSpec
    a: tuple[Element, ...]
    b: tuple[Element, ...]
    s: ElementSet
    variant: SdrVariant

    def __post_init__(self):
        if not self.a or not self.b:
            raise ValueError("A and B must be non-empty")
        for e in self.a + self.b:
            self.group.check_element(e)
        if len(set(self.a)) != len(self.a) or len(set(self.b)) != len(self.b):
            raise ValueError("A and B must list distinct elements")
        if self.s.group != self.group:
            raise ValueError("S lives in a different group")

    @classmethod
    def from_sets(
        cls,
        a: ElementSet,
        b: ElementSet,
        s: ElementSet | None,
        variant: SdrVariant,
    ) -> "SdrInstance":
        g = a.group
        return cls(
            group=g,
            a=tuple(a.elements()),
            b=tuple(b.elements()),
            s=s if s is not None else ElementSet.empty(g),
            variant=variant,
        )

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def n(self) -> int:
        return len(self.b)

    @property
    def h(self) -> int:
        return self.s.size


@dataclass(frozen=True)
class SdrSolution:
    """Pairs (i_k, j_k), 1-based, whose sums are the selected distinct elements."""

    instance: SdrInstance
    pairs: tuple[tuple[int, int], ...]

    @property
    def sums(self) -> tuple[Element, ...]:
        inst = self.instance
        g = inst.group
        return tuple(g.add(inst.a[i - 1], inst.b[j - 1]) for i, j in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def _window_rule(inst: SdrInstance) -> tuple[int, int]:
    """(w, first): position k may use A-positions 2..w and k + w, for k = first..m - w."""
    if inst.variant is SdrVariant.LEMMA22:
        return inst.h + 2, 1
    if inst.variant is SdrVariant.LEMMA33:
        return 3 * inst.h, 1
    return 0, 2


def sdr_index_window(inst: SdrInstance, k: int) -> list[int]:
    """Admissible 1-based A-positions for the k-th selected pair."""
    w, _ = _window_rule(inst)
    return list(range(2, w + 1)) + [k + w]


def _check_hypotheses(inst: SdrInstance) -> None:
    g, m, n, h = inst.group, inst.m, inst.n, inst.h
    p = g.least_prime
    v = inst.variant
    if v is SdrVariant.LEMMA22:
        if not g.is_prime_cyclic:
            raise HypothesisViolation(f"variant lemma22 needs a prime cyclic group, got {g}")
        if h < 1:
            raise HypothesisViolation("variant lemma22 needs non-empty S")
        if h >= p:
            raise HypothesisViolation(f"|S| = {h} must be < p = {p}")
        if m < h + 3:
            raise HypothesisViolation(f"m = {m} must be >= |S| + 3 = {h + 3}")
        if m + n - h - 2 > p:
            raise HypothesisViolation(f"m + n - |S| - 2 = {m + n - h - 2} must be <= p = {p}")
    elif v is SdrVariant.LEMMA33:
        if h < 1:
            raise HypothesisViolation("variant lemma33 needs non-empty S")
        if h >= p:
            raise HypothesisViolation(f"|S| = {h} must be < p(G) = {p}")
        if m < 3 * h + 1:
            raise HypothesisViolation(f"m = {m} must be >= 3|S| + 1 = {3 * h + 1}")
        if m + n - 3 * h > p:
            raise HypothesisViolation(f"m + n - 3|S| = {m + n - 3 * h} must be <= p(G) = {p}")
    else:
        if h:
            raise HypothesisViolation(f"variant lemma32 takes no S (it selects from A + B), "
                                      f"got |S| = {h}")
        if m + n - 1 > p:
            raise HypothesisViolation(f"m + n - 1 = {m + n - 1} must be <= p(G) = {p}")


def _max_matching(adjacency: list[list[int]], n_right: int) -> list[int | None]:
    """Augmenting-path maximum matching; deterministic for sorted adjacency."""
    match_left: list[int | None] = [None] * len(adjacency)
    match_right: list[int | None] = [None] * n_right

    def augment(u: int, visited: list[bool]) -> bool:
        for v in adjacency[u]:
            if visited[v]:
                continue
            visited[v] = True
            w = match_right[v]
            if w is None or augment(w, visited):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    for u in range(len(adjacency)):
        augment(u, [False] * n_right)
    return match_left


def sdr_select(inst: SdrInstance) -> SdrSolution:
    """Select distinct sums a_{i_k} + b_{j_k} outside a_1 + B, one per position.

    Each position k records every admissible sum of its window with the first
    pair (i, j) that makes it, in window order and then B order.  Hall's
    condition is certified by the matching itself: on inputs meeting the
    variant hypotheses a perfect matching always exists, so a LemmaViolation
    from here is a genuine failure, not an input error.
    """
    _check_hypotheses(inst)
    g = inst.group
    t = index_table(g)
    a_idx = [g.element_index(e) for e in inst.a]
    b_idx = [g.element_index(e) for e in inst.b]
    excluded = {t.add[bj][a_idx[0]] for bj in b_idx}
    sbits = inst.s.bits  # a_i - b_j must lie outside S; lemma32 has S = {}
    w, first = _window_rule(inst)
    records: list[dict[int, tuple[int, int]]] = []
    for k in range(first, inst.m - w + 1):
        record: dict[int, tuple[int, int]] = {}
        for i in sdr_index_window(inst, k):
            ai = a_idx[i - 1]
            for j, bj in enumerate(b_idx, start=1):
                total = t.add[bj][ai]
                if total in excluded or sbits >> t.add[t.neg[bj]][ai] & 1:
                    continue
                record.setdefault(total, (i, j))
        records.append(record)
    # sums are numbered position by position, ascending element index within one
    sum_ids: dict[int, int] = {}
    for record in records:
        for total in sorted(record):
            sum_ids.setdefault(total, len(sum_ids))
    adjacency = [sorted(sum_ids[total] for total in record) for record in records]
    match_left = _max_matching(adjacency, len(sum_ids))
    if any(v is None for v in match_left):
        raise LemmaViolation(
            f"no perfect matching for {inst.variant.value} instance "
            f"(m={inst.m}, n={inst.n}, h={inst.h})"
        )
    by_id = list(sum_ids)
    pairs = tuple(
        record[by_id[v]] for record, v in zip(records, match_left)  # type: ignore[index]
    )
    return SdrSolution(instance=inst, pairs=pairs)


# -- critical pair classification ----------------------------------------------


@dataclass(frozen=True)
class Singleton:
    """One side of the critical pair has a single element."""

    side: str  # "A" or "B"


@dataclass(frozen=True)
class ArithmeticPair:
    """Both sets are progressions with one common difference."""

    difference: Element
    a_length: int
    b_length: int


@dataclass(frozen=True)
class CosetPair:
    """Both sets live in single cosets of one subgroup of order p(G)."""

    subgroup: Subgroup
    a_offset: Element
    b_offset: Element


StructureClass = Singleton | ArithmeticPair | CosetPair


@lru_cache(maxsize=256)
def _prime_order_subgroups_cached(g: GroupSpec) -> tuple[Subgroup, ...]:
    return tuple(prime_order_subgroups(g))


def progression_differences(s: ElementSet) -> list[int]:
    """Element indices q != 0 for which s is a progression with difference q."""
    if not s.bits:
        return []
    return list(_progression_differences_cached(s.group, s.bits))


@lru_cache(maxsize=1 << 16)
def _progression_differences_cached(g: GroupSpec, bits: int) -> tuple[int, ...]:
    # X is a progression with difference q iff its q-runs, which start at
    # X \ (X + q), are one run that does not close (|X| < ord(q)) or none,
    # so that X is one whole <q>-coset (|X| = ord(q))
    k = bits.bit_count()
    add = index_table(g).add
    out = []
    for qi in range(1, g.order):
        runs = (bits & ~map_bits(bits, add[qi])).bit_count()
        if runs <= 1:
            o = g.element_order(g.index_element(qi))
            if k <= o and runs == (k < o):
                out.append(qi)
    return tuple(out)


def classify_critical_pair(a: ElementSet, b: ElementSet) -> list[StructureClass]:
    """All matching structure classes for a critical pair.

    Requires |A+B| = |A| + |B| - 1 <= p(G) - 1.  The trichotomy is not
    exclusive, so every matching class is reported; an empty result raises
    EmptyClassification, which on valid input is impossible.
    """
    g = _require_same_group(a, b)
    if not a.bits or not b.bits:
        raise HypothesisViolation("A and B must be non-empty")
    total = sumset(a, b).size
    if total != a.size + b.size - 1:
        raise HypothesisViolation(
            f"|A+B| = {total} != |A| + |B| - 1 = {a.size + b.size - 1}: not a critical pair"
        )
    if total > g.least_prime - 1:
        raise HypothesisViolation(
            f"|A+B| = {total} exceeds p(G) - 1 = {g.least_prime - 1}"
        )
    classes: list[StructureClass] = []
    if a.size == 1:
        classes.append(Singleton(side="A"))
    if b.size == 1:
        classes.append(Singleton(side="B"))
    common = sorted(set(progression_differences(a)) & set(progression_differences(b)))
    for qi in common:
        classes.append(
            ArithmeticPair(difference=g.index_element(qi), a_length=a.size, b_length=b.size)
        )
    # A and B lie in cosets of K exactly when A - a0 and B - b0 lie in K
    t = index_table(g)
    a0, b0 = a.min_index(), b.min_index()
    a_base = map_bits(a.bits, t.add[t.neg[a0]])
    b_base = map_bits(b.bits, t.add[t.neg[b0]])
    for k in _prime_order_subgroups_cached(g):
        if k.order != g.least_prime:
            continue
        kbits = k.members.bits
        if a_base & ~kbits or b_base & ~kbits:
            continue
        classes.append(
            CosetPair(
                subgroup=k,
                a_offset=g.index_element(ElementSet(g, map_bits(kbits, t.add[a0])).min_index()),
                b_offset=g.index_element(ElementSet(g, map_bits(kbits, t.add[b0])).min_index()),
            )
        )
    if not classes:
        raise EmptyClassification(f"no class matched A={a!r}, B={b!r}")
    return classes


# -- fiber spread over a direct sum ---------------------------------------------


@dataclass(frozen=True)
class FiberSpreadReport:
    """Counts of K1- and K2-cosets meeting A, and the sqrt pigeonhole check."""

    count1: int
    count2: int
    ok: bool


def fiber_spread_check(a: ElementSet, k1: Subgroup, k2: Subgroup) -> FiberSpreadReport:
    """Count cosets of each direct summand meeting A; max must reach sqrt|A|.

    Requires G = K1 (+) K2 internally: trivial intersection and
    |K1| * |K2| = |G|, both factors non-trivial.  A False ``ok`` would
    contradict the pigeonhole argument and is treated by tests as a
    LemmaViolation.
    """
    g = _require_same_group(a, k1.members, k2.members)
    if not a.bits:
        raise ValueError("A must be non-empty")
    if k1.order <= 1 or k2.order <= 1:
        raise HypothesisViolation("both summands must be non-trivial")
    if k1.members.intersect(k2.members).size != 1:
        raise HypothesisViolation("summands intersect non-trivially")
    if k1.order * k2.order != g.order:
        raise HypothesisViolation(
            f"|K1| * |K2| = {k1.order * k2.order} != |G| = {g.order}: not a direct sum"
        )
    count1 = _coset_count(a, k1)
    count2 = _coset_count(a, k2)
    top = max(count1, count2)
    return FiberSpreadReport(count1=count1, count2=count2, ok=top * top >= a.size)


def _coset_count(a: ElementSet, k: Subgroup) -> int:
    add = index_table(a.group).add
    return len({map_bits(k.members.bits, add[i]) for i in a.indices()})
