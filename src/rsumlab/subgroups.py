"""Subgroup enumeration and membership.

Subgroup enumeration closes the cyclic subgroups under pairwise joins, which
is exact because every subgroup of a finite abelian group is a join of cyclic
ones.  That is only feasible at desk scale, so a configured order ceiling
rejects larger groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import Element, GroupError, GroupSpec, index_table, is_prime, map_bits
from .sets import ElementSet

SUBGROUP_ENUM_CEILING = 64


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its explicit member set."""

    group: GroupSpec
    members: ElementSet
    order: int

    @classmethod
    def from_set(cls, members: ElementSet) -> "Subgroup":
        if not is_subgroup_set(members):
            raise GroupError(f"{members!r} is not closed under the group law")
        return cls(group=members.group, members=members, order=members.size)

    @classmethod
    def trivial(cls, group: GroupSpec) -> "Subgroup":
        return cls(group=group, members=ElementSet(group, 1), order=1)

    @classmethod
    def whole(cls, group: GroupSpec) -> "Subgroup":
        return cls(group=group, members=ElementSet.full(group), order=group.order)

    def __contains__(self, e: Element) -> bool:
        return e in self.members


def is_subgroup_set(s: ElementSet) -> bool:
    """True iff s contains the identity and is closed under addition.

    Closure under negation follows in a finite group.
    """
    if not s.contains_index(0):
        return False
    add = index_table(s.group).add
    return all(map_bits(s.bits, add[i]) == s.bits for i in s.indices())


def _cyclic_bits(row) -> int:
    """Bitmap of the subgroup generated by x, given x's add row."""
    bits = 1
    y = row[0]
    while y:
        bits |= 1 << y
        y = row[y]
    return bits


def all_subgroups(g: GroupSpec, max_order: int = SUBGROUP_ENUM_CEILING) -> list[Subgroup]:
    """Every subgroup of g, sorted by member bitmap.

    Joins each discovered subgroup with each cyclic subgroup until no new
    ones appear; H v <x> is computed as the union of the translates H + kx.
    Exact because every subgroup is a join of cyclic ones.
    """
    if g.order > max_order:
        raise GroupError(
            f"subgroup enumeration ceiling is {max_order}; group has order {g.order}"
        )
    add = index_table(g).add
    cyclics: dict[int, list[int]] = {}  # cyclic subgroup bits -> its add rows
    for xi in range(1, g.order):
        cbits = _cyclic_bits(add[xi])
        if cbits not in cyclics:
            cyclics[cbits] = [add[yi] for yi in ElementSet(g, cbits).indices()]
    known: set[int] = {1}
    frontier = [1]
    while frontier:
        h = frontier.pop()
        for cbits, rows in cyclics.items():
            if cbits & ~h == 0:
                continue
            joined = h
            for row in rows:
                joined |= map_bits(h, row)
            if joined not in known:
                known.add(joined)
                frontier.append(joined)
    return [
        Subgroup(group=g, members=ElementSet(g, bits), order=bits.bit_count())
        for bits in sorted(known)
    ]


def prime_order_subgroups(g: GroupSpec) -> list[Subgroup]:
    """All subgroups of prime order, sorted by member bitmap.

    These are exactly the cyclic subgroups generated by prime-order elements,
    so no join closure (hence no ceiling) is needed.
    """
    add = index_table(g).add
    cyclics = (_cyclic_bits(add[xi]) for xi in range(1, g.order))
    seen = {bits for bits in cyclics if is_prime(bits.bit_count())}
    return [
        Subgroup(group=g, members=ElementSet(g, bits), order=bits.bit_count())
        for bits in sorted(seen)
    ]
