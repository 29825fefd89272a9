"""Vectorized bitmap machinery for whole-powerset sweeps.

Subsets of a group of order n are integer masks; a table of length 2**n can
therefore hold one value per subset.  The core trick is an lsb recursion:
``T[m] = T[m & (m-1)] combine C[lsb(m)]`` evaluated as n strided numpy
assignments, which turns "for every subset B, the union of per-element
contributions" into a few microseconds of work.  The verifier and the
exhaustive invariant tests are built on these tables.

Only orders up to MAX_TABLE_ORDER are supported (a 2**n table must fit in
memory); everything here is internal API.
"""

from __future__ import annotations

import numpy as np

from .groups import GroupSpec

MAX_TABLE_ORDER = 20

MASK_DTYPE = np.uint32


class MaskTables:
    """Per-group index arithmetic tables backing mask computations."""

    def __init__(self, group: GroupSpec):
        n = group.order
        if n > MAX_TABLE_ORDER:
            raise ValueError(f"mask tables support order <= {MAX_TABLE_ORDER}, got {n}")
        self.group = group
        self.n = n
        els = [group.index_element(i) for i in range(n)]
        add = np.empty((n, n), dtype=np.int64)
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                add[i, j] = group.element_index(group.add(a, b))
        self.add = add
        self.neg = np.array([group.element_index(group.neg(e)) for e in els], dtype=np.int64)
        self.pops = popcount_table(n)
        self.all_masks = 1 << n
        self._perm_tables: dict[tuple, np.ndarray] = {}

    # -- python-int mask helpers -------------------------------------------------

    def translate_bits(self, bits: int, shift_idx: int) -> int:
        """Mask of {x + shift : x in bits}."""
        col = self.add[:, shift_idx]
        out = 0
        while bits:
            low = bits & -bits
            out |= 1 << int(col[low.bit_length() - 1])
            bits ^= low
        return out

    def negate_bits(self, bits: int) -> int:
        out = 0
        while bits:
            low = bits & -bits
            out |= 1 << int(self.neg[low.bit_length() - 1])
            bits ^= low
        return out

    # -- whole-powerset tables ------------------------------------------------

    def union_table(self, cmasks: np.ndarray) -> np.ndarray:
        """U[m] = OR of cmasks[i] over the bits i of m, for every mask m."""
        return union_table(cmasks, self.n)

    def mask_perm_table(self, perm: np.ndarray, key: tuple | None = None) -> np.ndarray:
        """P[m] = mask of {perm[i] : i in m}; optionally cached under key."""
        if key is not None and key in self._perm_tables:
            return self._perm_tables[key]
        table = union_table((np.uint64(1) << perm.astype(np.uint64)).astype(MASK_DTYPE), self.n)
        if key is not None:
            self._perm_tables[key] = table
        return table

    def neg_mask_table(self) -> np.ndarray:
        return self.mask_perm_table(self.neg, key=("neg",))

    def translate_mask_table(self, shift_idx: int) -> np.ndarray:
        return self.mask_perm_table(self.add[:, shift_idx], key=("tr", shift_idx))

    def stabilizer_sizes(self) -> np.ndarray:
        """stab[m] = |{g : g + set(m) = set(m)}| for every mask m."""
        n = self.n
        stab = np.zeros(self.all_masks, dtype=np.int32)
        masks = np.arange(self.all_masks, dtype=MASK_DTYPE)
        for gi in range(n):
            stab += self.translate_mask_table(gi) == masks
        return stab

    # -- contribution masks --------------------------------------------------------
    #
    # X +_S Y = union over y in Y of (y + (X minus (gamma*y + S))), so fixing
    # the first operand and S gives one contribution mask per candidate y.

    def cmasks_general(self, abits, sbits: int, gamma: int = 1) -> np.ndarray:
        """C[..., b] = mask of b + (A \\ (gamma*b + S)) for each element index b.

        ``abits`` is one mask (result shape ``(n,)``) or an array of k masks
        (result shape ``(k, n)``).  Each step ORs the translates of one element
        x, so the cost is n numpy operations whatever k is.
        """
        n = self.n
        if gamma != 1 and self.group.rank != 1:
            raise ValueError("twist is only defined on rank-1 groups")
        a = np.asarray(abits, dtype=np.int64)
        shifts = np.arange(n) if gamma == 1 else (gamma * np.arange(n)) % n
        excluded = np.zeros(n, dtype=np.int64)  # excluded[b] = mask of gamma*b + S
        for x in range(n):
            if sbits >> x & 1:
                excluded |= np.int64(1) << self.add[x, shifts]
        keep = a[..., None] & ~excluded
        out = np.zeros(keep.shape, dtype=np.int64)
        for x in range(n):
            out |= (keep >> x & 1) << self.add[x]
        return out.astype(MASK_DTYPE)

    def cmasks_plain(self, abits) -> np.ndarray:
        return self.cmasks_general(abits, 0)

    def cmasks_restricted(self, abits) -> np.ndarray:
        return self.cmasks_general(abits, 1)


def popcount_table(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=MASK_DTYPE)).astype(np.uint8)


def union_table(cmasks: np.ndarray, n: int) -> np.ndarray:
    """U[m] = OR of cmasks[b] over set bits b of m, for every mask m."""
    return union_table_batch(np.asarray(cmasks)[None, :], n)[0]


def union_table_batch(cmasks: np.ndarray, n: int) -> np.ndarray:
    """Row-wise union_table: cmasks is (k, n), result is (k, 2**n).

    The lsb recursion: processing bit b from high to low, every mask whose
    lowest set bit is b reads the already-final value of the mask with that
    bit cleared.
    """
    k = cmasks.shape[0]
    u = np.zeros((k, 1 << n), dtype=MASK_DTYPE)
    c = cmasks.astype(MASK_DTYPE)
    for b in range(n - 1, -1, -1):
        step = 1 << (b + 1)
        np.bitwise_or(u[:, ::step], c[:, b:b + 1], out=u[:, (1 << b)::step])
    return u


_tables_cache: dict[GroupSpec, MaskTables] = {}


def tables_for(group: GroupSpec) -> MaskTables:
    t = _tables_cache.get(group)
    if t is None:
        t = MaskTables(group)
        _tables_cache[group] = t
    return t
