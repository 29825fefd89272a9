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

from .groups import GroupSpec, index_table

MAX_TABLE_ORDER = 20

MASK_DTYPE = np.uint32


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
        excluded = np.zeros(n, dtype=np.int64)  # excluded[c] = mask of c + S
        for x in range(n):
            if sbits >> x & 1:
                excluded |= np.int64(1) << self.add[x]
        if gamma != 1:
            excluded = excluded[self.index.scaled(gamma)]  # the mask of gamma*b + S
        keep = a[..., None] & ~excluded
        out = np.zeros(keep.shape, dtype=np.int64)
        for x in range(n):
            out |= (keep >> x & 1) << self.add[x]
        return out.astype(MASK_DTYPE)


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
