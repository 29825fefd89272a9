"""Dense subsets of a group and enumeration of (A, B, S) triples.

Sets are immutable bitmaps over the group's element indices, stored in a
single Python int.  Triple enumeration supports exact sharding and one
canonicalization rule, read by the exhaustive and the sampled streams
alike: ``canonicalize`` takes A, and ``canonicalize_s`` takes a non-empty S,
among the sets containing element index 0.  Every B is still taken, so for
the general and twisted operators, where ``(A + x, B + y, S + x - gamma*y)``
keeps ``|A +_S B|``, the pinned streams still reach every lhs value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .groups import (
    Element, GroupError, GroupSpec, format_element, index_table, map_bits, parse_element,
)


class GroupMismatchError(ValueError):
    """Operands belong to different groups."""


def _require_same_group(*sets: "ElementSet") -> GroupSpec:
    g = sets[0].group
    for s in sets[1:]:
        if s.group != g:
            raise GroupMismatchError(f"sets live in different groups: {g} vs {s.group}")
    return g


class ElementSet:
    """An immutable subset of a group, stored as an int bitmap.

    Bit i is set iff the element with index i belongs to the set; ``size``
    caches the popcount.
    """

    __slots__ = ("group", "bits", "size")

    def __init__(self, group: GroupSpec, bits: int):
        if bits < 0 or bits >> group.order:
            raise GroupError(f"bitmap {bits:#x} out of range for group of order {group.order}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "size", bits.bit_count())

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def empty(cls, group: GroupSpec) -> "ElementSet":
        return cls(group, 0)

    @classmethod
    def full(cls, group: GroupSpec) -> "ElementSet":
        return cls(group, (1 << group.order) - 1)

    @classmethod
    def from_indices(cls, group: GroupSpec, indices) -> "ElementSet":
        bits = 0
        for i in indices:
            if not 0 <= i < group.order:
                raise GroupError(f"index {i} out of range [0, {group.order})")
            bits |= 1 << i
        return cls(group, bits)

    @classmethod
    def from_elements(cls, group: GroupSpec, elements) -> "ElementSet":
        return cls.from_indices(group, (group.element_index(e) for e in elements))

    # -- queries -----------------------------------------------------------

    def __contains__(self, e: Element) -> bool:
        return bool(self.bits >> self.group.element_index(e) & 1)

    def contains_index(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def indices(self):
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def elements(self):
        for i in self.indices():
            yield self.group.index_element(i)

    def __iter__(self):
        return self.elements()

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.bits != 0

    def min_index(self) -> int:
        if not self.bits:
            raise GroupError("empty set has no minimum element")
        return (self.bits & -self.bits).bit_length() - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.group == other.group
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.group, self.bits))

    def __repr__(self) -> str:
        return f"ElementSet({self.group}, {format_set(self)})"

    def is_subset(self, other: "ElementSet") -> bool:
        _require_same_group(self, other)
        return self.bits & ~other.bits == 0

    # -- operations ----------------------------------------------------------

    def union(self, other: "ElementSet") -> "ElementSet":
        g = _require_same_group(self, other)
        return ElementSet(g, self.bits | other.bits)

    def intersect(self, other: "ElementSet") -> "ElementSet":
        g = _require_same_group(self, other)
        return ElementSet(g, self.bits & other.bits)

    def difference(self, other: "ElementSet") -> "ElementSet":
        g = _require_same_group(self, other)
        return ElementSet(g, self.bits & ~other.bits)

    __or__ = union
    __and__ = intersect
    __sub__ = difference

    def translate(self, g: Element) -> "ElementSet":
        """The set {x + g : x in self}."""
        grp = self.group
        return ElementSet(grp, map_bits(self.bits, index_table(grp).add[grp.element_index(g)]))

    def negate(self) -> "ElementSet":
        """The set {-x : x in self}."""
        return ElementSet(self.group, map_bits(self.bits, index_table(self.group).neg))

    def image_under(self, mapping) -> "ElementSet":
        """Image under an element map (e.g. unit scaling, a projection)."""
        return ElementSet.from_elements(self.group, (mapping(x) for x in self.elements()))


# -- set literal grammar: {e1,e2,...} ----------------------------------------


def parse_set(group: GroupSpec, text: str) -> ElementSet:
    """Parse a set literal, e.g. ``{1,2,3}`` on Z7 or ``{(0,0),(1,3)}`` on Z2xZ4."""
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise GroupError(f"bad set literal {text!r}; expected {{e1,e2,...}}")
    body = s[1:-1].strip()
    bits = 0
    if body:
        # split on top-level commas only; tuples contain commas of their own
        items = re.split(r",(?![^()]*\))", body)
        for item in items:
            e = parse_element(group, item)
            i = group.element_index(e)
            if bits >> i & 1:
                raise GroupError(f"duplicate element {item.strip()!r} in set literal")
            bits |= 1 << i
    return ElementSet(group, bits)


def format_set(s: ElementSet) -> str:
    """Format with elements in ascending index order; round-trips parse_set."""
    g = s.group
    return "{" + ",".join(format_element(g, g.index_element(i)) for i in s.indices()) + "}"


# -- triple enumeration -------------------------------------------------------


@dataclass(frozen=True)
class EnumerationPlan:
    """Size-constrained enumeration of (A, B, S) triples over one group.

    ``canonicalize`` restricts A, and ``canonicalize_s`` a non-empty S, to
    the sets containing element index 0, in both modes.  Exhaustive
    streams list each of A, B and S by size, then by ascending mask value
    (``size_masks``), so the scalar and the vectorized sweeps agree on which
    A masks a shard owns.  Sampled mode draws ``sample_count`` triples
    reproducibly from ``seed``, a pinned set as 0 plus the rest drawn from
    the other indices; each triple's RNG is derived independently, so
    shards agree for any shard count.  The drawn triple is the one checked.
    """

    group: GroupSpec
    a_min: int = 1
    a_max: int | None = None
    b_min: int = 1
    b_max: int | None = None
    s_min: int = 1
    s_max: int | None = None
    mode: str = "exhaustive"
    sample_count: int | None = None
    seed: int | None = None
    canonicalize: bool = False
    canonicalize_s: bool = False

    def __post_init__(self):
        n = self.group.order
        if self.a_max is None:
            object.__setattr__(self, "a_max", n)
        if self.b_max is None:
            object.__setattr__(self, "b_max", n)
        if self.s_max is None:
            object.__setattr__(self, "s_max", self.s_min)
        if not 1 <= self.a_min <= self.a_max <= n:
            raise ValueError(f"A size bounds [{self.a_min}, {self.a_max}] invalid for order {n}")
        if not 1 <= self.b_min <= self.b_max <= n:
            raise ValueError(f"B size bounds [{self.b_min}, {self.b_max}] invalid for order {n}")
        if not 0 <= self.s_min <= self.s_max <= n:
            raise ValueError(f"S size bounds [{self.s_min}, {self.s_max}] invalid for order {n}")
        if self.mode not in ("exhaustive", "sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "sampled":
            if not self.sample_count or self.sample_count < 1:
                raise ValueError("sampled mode needs sample_count >= 1")
            if self.seed is None:
                object.__setattr__(self, "seed", 0)

    # -- counting ------------------------------------------------------------

    def a_count(self) -> int:
        return _count_sets(self.group.order, self.a_min, self.a_max, self.canonicalize)

    def b_count(self) -> int:
        return _count_sets(self.group.order, self.b_min, self.b_max, False)

    def s_count(self) -> int:
        return _count_sets(self.group.order, self.s_min, self.s_max, self.canonicalize_s)

    def count_triples(self) -> int:
        if self.mode == "sampled":
            return self.sample_count
        return self.a_count() * self.b_count() * self.s_count()


def _count_sets(n: int, lo: int, hi: int, pin_zero: bool) -> int:
    total = 0
    for k in range(lo, hi + 1):
        if pin_zero and k >= 1:
            total += math.comb(n - 1, k - 1)
        else:
            total += math.comb(n, k)
    return total


def size_masks(n: int, size: int, pin_zero: bool = False):
    """All bitmaps over n indices with the given popcount, in ascending order.

    With ``pin_zero`` and size >= 1, only masks containing bit 0: the masks
    ``m << 1 | 1`` over the (size-1)-bit masks m of n-1 indices.  Each step is
    Gosper's next mask with the same popcount.  ``size_mask_array`` gives the
    same sequence as one numpy array.
    """
    if pin_zero and size:
        for m in size_masks(n - 1, size - 1):
            yield m << 1 | 1
        return
    if size == 0:
        yield 0
        return
    m, end = (1 << size) - 1, 1 << n
    while m < end:
        yield m
        low = m & -m
        ripple = m + low
        m = ripple | ((m ^ ripple) >> 2) // low


def size_mask_array(pops: np.ndarray, size: int, pin_zero: bool = False) -> np.ndarray:
    """``size_masks(n, size, pin_zero)`` as one int64 array, read off a popcount table.

    ``pops[m]`` is the popcount of each mask m below 2**n; with ``pin_zero``
    and size >= 1 only the odd masks are kept.
    """
    masks = np.flatnonzero(pops == size).astype(np.int64, copy=False)
    if pin_zero and size:
        masks = masks[masks & 1 == 1]
    return masks


def plan_a_masks(plan: EnumerationPlan):
    n = plan.group.order
    for k in range(plan.a_min, plan.a_max + 1):
        yield from size_masks(n, k, plan.canonicalize)


def plan_b_masks(plan: EnumerationPlan):
    n = plan.group.order
    for k in range(plan.b_min, plan.b_max + 1):
        yield from size_masks(n, k)


def plan_s_masks(plan: EnumerationPlan):
    n = plan.group.order
    for k in range(plan.s_min, plan.s_max + 1):
        yield from size_masks(n, k, plan.canonicalize_s)


def enumerate_triples(plan: EnumerationPlan, shard_index: int = 0, shard_count: int = 1):
    """Yield (A, B, S) ElementSet triples for the plan.

    Shards partition the stream disjointly (round-robin over A for the
    exhaustive mode, over the sample index for sampled mode); the union over
    all shards is exactly the unsharded stream.
    """
    if not 0 <= shard_index < shard_count:
        raise ValueError(f"bad shard {shard_index}/{shard_count}")
    if plan.mode == "sampled":
        yield from _sampled_triples(plan, shard_index, shard_count)
        return
    g = plan.group
    b_masks = list(plan_b_masks(plan))
    s_masks = list(plan_s_masks(plan))
    for pos, am in enumerate(plan_a_masks(plan)):
        if pos % shard_count != shard_index:
            continue
        a = ElementSet(g, am)
        for bm in b_masks:
            b = ElementSet(g, bm)
            for sm in s_masks:
                yield a, b, ElementSet(g, sm)


def _sampled_triples(plan: EnumerationPlan, shard_index: int, shard_count: int):
    g = plan.group
    n = g.order

    def draw(rng, size: int, pin_zero: bool) -> ElementSet:
        """A set of ``size`` distinct indices; a pinned one is 0 plus size - 1 others."""
        if pin_zero and size:
            idx = [0, *(rng.choice(n - 1, size=size - 1, replace=False) + 1)]
        else:
            idx = rng.choice(n, size=size, replace=False)
        return ElementSet.from_indices(g, (int(i) for i in idx))

    for t in range(plan.sample_count):
        if t % shard_count != shard_index:
            continue
        rng = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(t,)))
        ka = int(rng.integers(plan.a_min, plan.a_max + 1))
        kb = int(rng.integers(plan.b_min, plan.b_max + 1))
        ks = int(rng.integers(plan.s_min, plan.s_max + 1))
        a = draw(rng, ka, plan.canonicalize)
        b = draw(rng, kb, False)
        yield a, b, draw(rng, ks, plan.canonicalize_s)
