"""Vectorized bitmap machinery for whole-powerset sweeps.

Subsets of a group of order n are integer masks; a table of length 2**n can
therefore hold one value per subset.  The core trick is a doubling
recursion: the masks in [2**b, 2**(b+1)) are the masks below 2**b with bit b
added, so ``U[2**b:2**(b+1)] = U[:2**b] | C[b]`` fills the table in n
contiguous numpy writes, which turns "for every subset B, the union of
per-element contributions" into a few microseconds of work.  The verifier
and the exhaustive invariant tests are built on these tables.

X +_S Y is the union over y in Y of y + (X minus (gamma*y + S)), and
translating by y is a bijection, so candidate y contributes the translate
y + X less (1+gamma)*y + S.  That is the one contribution-mask rule,
``cmasks_general(A) & kept(S, gamma)``, and ``MaskTables.size_tables``, the
one builder of |A +_S B| tables, applies it for the sweep kernel and the tests.

The sweep kernel counts once per orbit pair.  For a unit u (coprime to the
exponent) (A, B, S) -> (uA, uB, uS) keeps |A +_S B| at every gamma, and
translating A or S keeps it too, with B moved.  ``MaskTables.orbit_pairs``
enumerates the S masks of a size up to translations and all units; for each
orbit's least mask S0 it takes H0, the units that map S0 to a translate of
itself, and the A masks of a size up to translations and H0, with the
number of masks in each A orbit.  Each A orbit's least member stands for
its members at S0, and S0 for the orbit's S masks.  An S orbit's masks meet
every coset of H0, so A has a hit at some S mask of the orbit iff A's orbit
under translations and all units, one value of ``orbit_rep(units)``, holds
an A orbit under H0 with a hit at S0.  ``size_tables`` builds the tables of
such (A, key) pairs in chunks of rows across several unit groups at once.

Size tables need only the sizes |U[m]|, so ``size_table_batch`` runs
the recursion on byte planes: byte j of every contribution mask holds the
elements 8j..8j+7, the unions of each plane are taken on their own, and the
popcounts of the planes add up to the size.  numpy counts uint8 bits with a
SIMD byte popcount, many times faster than on uint32, and the recursion
moves one byte per plane and entry instead of four.

Only orders up to MAX_TABLE_ORDER are supported (a 2**n table must fit in
memory); everything here is internal API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec, index_table, map_bits
from .sets import size_mask_array

MAX_TABLE_ORDER = 20

MASK_DTYPE = np.uint32


@dataclass(frozen=True)
class AOrbits:
    """The A masks of one size (``sets.size_mask_array`` order) up to translations and H."""

    reps: np.ndarray  # the least mask of each orbit, ascending
    weights: np.ndarray  # the size's A masks in each orbit


@dataclass(frozen=True)
class SOrbit:
    """The S masks of one size in one orbit under translations and all units."""

    rep: int  # S0, the orbit's least mask
    units: tuple[int, ...]  # H0, the units that map S0 to a translate of itself
    members: list[int]  # the size's masks in the orbit, ascending; they meet every coset of H0


class MaskTables:
    """Whole-powerset mask computations over one group's index table."""

    def __init__(self, group: GroupSpec):
        n = group.order
        if n > MAX_TABLE_ORDER:
            raise ValueError(f"mask tables support order <= {MAX_TABLE_ORDER}, got {n}")
        self.group = group
        self.n = n
        self.index = index_table(group)
        self.add = self.index.add_array()
        self.pops = popcount_table(n)
        exponent = math.lcm(*group.factors)
        # the units modulo the exponent, ascending: x -> u*x is an automorphism for these
        self.units = tuple(u for u in range(1, exponent) if math.gcd(u, exponent) == 1)
        self._orbit_reps: dict[tuple[int, ...], np.ndarray] = {}
        self._a_orbits: dict[tuple, AOrbits] = {}
        self._s_orbits: dict[tuple[int, bool], list[SOrbit]] = {}
        self._kept: dict[tuple[int, int], np.ndarray] = {}

    @property
    def translation_rep(self) -> np.ndarray:
        """rep[m] = the least mask among the translates x + m: ``orbit_rep((1,))``."""
        return self.orbit_rep((1,))

    def orbit_rep(self, units: tuple[int, ...]) -> np.ndarray:
        """rep[m] = the least mask among the translates x + u*m for u in ``units``.

        ``units`` must be a subgroup H of the units (1 included), so that rep
        is one value per orbit of m -> u*m + x.  Built on first use and cached
        per H: the translates are n - 1 union tables of the singletons
        {x + b}, and each u != 1 adds the union table of {u*b}, read through
        the translation reps.
        """
        rep = self._orbit_reps.get(units)
        if rep is None:
            if units == (1,):
                rep = np.arange(1 << self.n, dtype=MASK_DTYPE)  # x = 0
                for x in range(1, self.n):
                    np.minimum(rep, self._image_table(self.add[x]), out=rep)
            else:
                translates = self.translation_rep
                rep = translates.copy()
                for u in units:
                    if u != 1:
                        np.minimum(rep, translates[self._image_table(self.index.scaled(u))],
                                   out=rep)
            self._orbit_reps[units] = rep
        return rep

    def a_orbits(self, units: tuple[int, ...], a_size: int, pin_zero: bool = False) -> AOrbits:
        """The A masks of size ``a_size`` (with 0 when ``pin_zero``) by orbit under
        translations and the unit group ``units``; cached per argument tuple."""
        key = (units, a_size, pin_zero)
        orbits = self._a_orbits.get(key)
        if orbits is None:
            masks = size_mask_array(self.pops, a_size, pin_zero)
            orbits = self._a_orbits[key] = AOrbits(*np.unique(
                self.orbit_rep(units)[masks], return_counts=True))
        return orbits

    def s_orbits(self, s_size: int, pin_zero: bool = False) -> list[SOrbit]:
        """The S masks of size ``s_size`` (with 0 when ``pin_zero``) by orbit under
        translations and all units, by ascending least mask; cached per argument pair.

        Each orbit holds u*S0 + x for every unit u, also with 0 pinned (take
        x = -u*s for an s in S0), so its masks meet every coset of H0.
        """
        key = (s_size, pin_zero)
        if key not in self._s_orbits:
            masks = size_mask_array(self.pops, s_size, pin_zero)
            reps, index, counts = np.unique(self.orbit_rep(self.units)[masks],
                                            return_inverse=True, return_counts=True)
            members = np.split(masks[np.argsort(index, kind="stable")], np.cumsum(counts)[:-1])
            # S0 is least among its translates, so u is in H0 iff u*S0 has S0 as least translate
            self._s_orbits[key] = [
                SOrbit(rep, tuple(u for u in self.units if
                                  self.translation_rep[map_bits(rep, self.index.scaled(u))] == rep),
                       ms.tolist())
                for rep, ms in zip(reps.tolist(), members)]
        return self._s_orbits[key]

    def orbit_pairs(self, a_size: int, s_size: int, pin_a: bool = False,
                    pin_s: bool = False) -> list[tuple[SOrbit, AOrbits]]:
        """The (A, S) pairs of two sizes up to translations and units, one per S orbit.

        For each orbit of the S masks, with least mask S0 and H0 its ``units``,
        the A masks are grouped by orbit under translations and H0.  Every
        (A, S) with S = u*S0 + x has the hits of (u^-1 A, S0), and the size's
        A masks are closed under units, so an A orbit's least member counts
        for its ``weights`` A masks times the orbit's S masks at S0.
        """
        return [(o, self.a_orbits(o.units, a_size, pin_a)) for o in self.s_orbits(s_size, pin_s)]

    def _image_table(self, row) -> np.ndarray:
        """P[m] = mask of {row[b] : b in m} for every mask m, e.g. x + m for an add row."""
        return union_table((np.int64(1) << np.asarray(row)).astype(MASK_DTYPE), self.n)

    def cmasks_general(self, abits) -> np.ndarray:
        """T[..., b] = mask of the translate b + A for each element index b.

        ``abits`` is one mask (result shape ``(n,)``) or an array of k masks
        (result shape ``(k, n)``).
        """
        members = np.asarray(abits, dtype=np.int64)[..., None] >> np.arange(self.n) & 1
        # member x of A lands on bit add[x][b] of b + A; for fixed b these bits
        # are distinct, so their sum is their union
        return (members[..., None] << self.add).sum(axis=-2).astype(MASK_DTYPE)

    def kept(self, sbits: int, gamma: int = 1) -> np.ndarray:
        """K[b] = mask of the elements outside (1+gamma)*b + S; cached per (S, gamma)."""
        if (sbits, gamma) not in self._kept:
            if gamma != 1 and self.group.rank != 1:
                raise ValueError("twist is only defined on rank-1 groups")
            members = [x for x in range(self.n) if sbits >> x & 1]  # excluded[c] = mask of c + S
            excluded = np.bitwise_or.reduce(np.int64(1) << self.add[members])
            self._kept[sbits, gamma] = (~excluded[self.index.scaled(1 + gamma)]).astype(MASK_DTYPE)
        return self._kept[sbits, gamma]

    def size_tables(self, groups, chunk_rows: int):
        """Yield (g, j, rows, sizes), sizes[r, B] = |A +_S B| at A = amasks[rows][r]
        and (S, gamma) = keys[j] of ``groups[g] = (amasks, keys)``.

        The rows are (A mask, key) pairs, key by key within each group, and
        one ``size_table_batch`` call builds each chunk of ``chunk_rows``
        rows across all groups.  The translates of a group's A masks are
        built once, ``chunk_rows`` masks per ``cmasks_general`` call.
        """
        pending: list[tuple] = []  # (g, j, rows, contribution masks) of the chunk
        room = chunk_rows
        for g, (amasks, keys) in enumerate(groups):
            if not amasks.size or not keys:
                continue
            translates = np.concatenate([self.cmasks_general(amasks[i:i + chunk_rows])
                                         for i in range(0, amasks.size, chunk_rows)])
            for j, key in enumerate(keys):
                kept = self.kept(*key)
                first = 0
                while first < amasks.size:
                    rows = slice(first, min(first + room, amasks.size))
                    pending.append((g, j, rows, translates[rows] & kept))
                    room -= rows.stop - first
                    first = rows.stop
                    if not room:
                        yield from self._build(pending)
                        pending, room = [], chunk_rows
        if pending:
            yield from self._build(pending)

    def _build(self, pending):
        sizes = size_table_batch(np.concatenate([cmasks for *_, cmasks in pending]), self.n)
        first = 0
        for g, j, rows, cmasks in pending:
            yield g, j, rows, sizes[first:first + len(cmasks)]
            first += len(cmasks)


def popcount_table(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=MASK_DTYPE)).astype(np.uint8)


def union_table(cmasks: np.ndarray, n: int) -> np.ndarray:
    """U[m] = OR of cmasks[b] over set bits b of m, for every mask m."""
    return union_table_batch(np.asarray(cmasks)[None, :], n)[0]


def union_table_batch(cmasks: np.ndarray, n: int, dtype=MASK_DTYPE) -> np.ndarray:
    """Row-wise union_table: cmasks is (k, n), result is (k, 2**n) of ``dtype``.

    The doubling recursion: with the masks below 2**b final, the block
    [2**b, 2**(b+1)) is that prefix with bit b added, one contiguous write.
    """
    u = np.empty((cmasks.shape[0], 1 << n), dtype=dtype)
    u[:, 0] = 0
    c = cmasks.astype(dtype, copy=False)
    for b in range(n):
        half = 1 << b
        np.bitwise_or(u[:, :half], c[:, b:b + 1], out=u[:, half:2 * half])
    return u


def plane_count(n: int) -> int:
    """The byte planes that hold an n-bit mask."""
    return (n + 7) // 8


def size_table_batch(cmasks: np.ndarray, n: int) -> np.ndarray:
    """|U[m]| for each row of union_table_batch, as a (k, 2**n) int8 table.

    The uint32 masks are split into little-endian byte planes, all
    ``plane_count(n) * k`` plane rows go through one doubling recursion, and
    the uint8 popcounts of the planes are summed.
    """
    k = cmasks.shape[0]
    planes = plane_count(n)
    c = np.ascontiguousarray(cmasks, dtype="<u4").view(np.uint8).reshape(k, n, 4)
    c = c[:, :, :planes].transpose(2, 0, 1).reshape(planes * k, n)  # plane-major rows
    u = union_table_batch(c, n, dtype=np.uint8)
    np.bitwise_count(u, out=u)
    sizes = u.reshape(planes, k, 1 << n)
    if planes == 1:
        return sizes[0].view(np.int8)
    # a fresh array, so the planes are freed on return
    total = np.add(sizes[0], sizes[1])
    for plane in sizes[2:]:
        total += plane
    return total.view(np.int8)


_tables_cache: dict[GroupSpec, MaskTables] = {}


def tables_for(group: GroupSpec) -> MaskTables:
    t = _tables_cache.get(group)
    if t is None:
        t = MaskTables(group)
        _tables_cache[group] = t
    return t
