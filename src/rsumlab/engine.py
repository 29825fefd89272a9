"""The four sumset operators, computed from the translates b + A.

All operators return a fresh ElementSet; inputs are never mutated.  Each
element b of B contributes its translate b + A less (1+gamma)b + S, so one
operator costs |B| whole-bitmap translates for b + A and |B| more for the
excluded translates of a non-empty S, whatever |A| is.
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
    return ElementSet(g, pair_sums(g, a.bits, b.bits, [(s.bits, 1)])[0])


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
    return ElementSet(g, pair_sums(g, a.bits, b.bits, [(s.bits, gamma)])[0])


def pair_sums(g: GroupSpec, abits: int, bbits: int, rules) -> list[int]:
    """Bitmaps of {a + b : a - gamma*b not in S}, one per (S mask, gamma) rule.

    a + b is excluded exactly when it lies in (1+gamma)b + S, so b adds its
    translate b + A less that translate of S.  The translates b + A are
    built once and shared by every rule.
    """
    t = index_table(g)
    translates = []
    while bbits:
        low = bbits & -bbits
        j = low.bit_length() - 1
        translates.append((j, t.translate(abits, j)))
        bbits ^= low
    out = []
    for sbits, gamma in rules:
        acc = 0
        if sbits:
            shift = t.scaled(1 + gamma)
            for j, moved in translates:
                acc |= moved & ~t.translate(sbits, shift[j])
        else:
            for _, moved in translates:
                acc |= moved
        out.append(acc)
    return out
