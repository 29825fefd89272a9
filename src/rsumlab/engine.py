"""The four sumset operators, computed by brute force over element pairs.

All operators return a fresh ElementSet; inputs are never mutated.  Pair
enumeration is O(|A|*|B|) with bitmap accumulation, which beats anything
cleverer at the group orders this library targets.
"""

from __future__ import annotations

from .groups import GroupError, GroupSpec, index_table
from .sets import ElementSet, _require_same_group


def _require_nonempty(s: ElementSet, name: str) -> None:
    if not s.bits:
        raise ValueError(f"{name} must be non-empty")


def sumset(a: ElementSet, b: ElementSet) -> ElementSet:
    """{a + b : a in A, b in B}; equals the S = {} case."""
    return generalized_restricted_sumset(a, b, ElementSet.empty(a.group))


def restricted_sumset(a: ElementSet, b: ElementSet) -> ElementSet:
    """{a + b : a in A, b in B, a != b}; equals the S = {0} case."""
    return generalized_restricted_sumset(a, b, ElementSet(a.group, 1))


def generalized_restricted_sumset(a: ElementSet, b: ElementSet, s: ElementSet) -> ElementSet:
    """{a + b : a in A, b in B, a - b not in S}; S may be empty (plain sumset)."""
    g = _require_same_group(a, b, s)
    _require_nonempty(a, "A")
    _require_nonempty(b, "B")
    return ElementSet(g, _pair_sums(g, a, b, s.bits, 1))


def twisted_restricted_sumset(
    a: ElementSet, b: ElementSet, s: ElementSet, gamma: int
) -> ElementSet:
    """{a + b : a in A, b in B, a - gamma*b not in S} over a prime cyclic group.

    The set is well defined for any non-zero scalar; whether gamma satisfies
    a bound's hypothesis (gamma not in {0, -1}) is the bound checker's
    business, not this operator's.
    """
    g = _require_same_group(a, b, s)
    _require_nonempty(a, "A")
    _require_nonempty(b, "B")
    if not g.is_prime_cyclic:
        raise GroupError(f"twisted sumset needs a prime cyclic group, got {g}")
    if gamma % g.order == 0:
        raise ValueError("gamma must be non-zero modulo p")
    return ElementSet(g, _pair_sums(g, a, b, s.bits, gamma))


def _pair_sums(g: GroupSpec, a: ElementSet, b: ElementSet, sbits: int, gamma: int) -> int:
    """Bitmap of {a + b : a - gamma*b not in S}, by index-table lookups.

    Row b of the add table gives every a + b, and the row of -gamma*b every
    a - gamma*b, so each pair costs two list reads.
    """
    t = index_table(g)
    add = t.add
    twist = t.scaled(-gamma)
    a_idx = list(a.indices())
    out = 0
    for j in b.indices():
        row = add[j]
        if sbits:
            diff = add[twist[j]]
            for i in a_idx:
                if not sbits >> diff[i] & 1:
                    out |= 1 << row[i]
        else:
            for i in a_idx:
                out |= 1 << row[i]
    return out
