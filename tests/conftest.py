"""Shared fixtures and independent brute-force oracles.

The oracles here compute expected values with plain tuple/set arithmetic,
deliberately not reusing the library's bitmap code paths, so every frozen
expected value in the tests has an independent derivation.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np
import pytest

import rsumlab as rl
from rsumlab import _masks, bounds


# -- independent oracles ---------------------------------------------------------


def o_add(factors, a, b):
    return tuple((x + y) % n for x, y, n in zip(a, b, factors))


def o_sub(factors, a, b):
    return tuple((x - y) % n for x, y, n in zip(a, b, factors))


def o_neg(factors, a):
    return tuple((-x) % n for x, n in zip(a, factors))


def o_scale(factors, u, a):
    return tuple((u * x) % n for x, n in zip(a, factors))


def o_elements(factors):
    return [tuple(c) for c in product(*(range(n) for n in factors))]


def oracle_sumset(factors, a_elems, b_elems, s_elems=(), gamma=1):
    """{a+b : a-gamma*b not in S} by raw pair enumeration over tuples."""
    s = set(s_elems)
    out = set()
    for a in a_elems:
        for b in b_elems:
            if o_sub(factors, a, o_scale(factors, gamma, b)) in s:
                continue
            out.add(o_add(factors, a, b))
    return out


def oracle_progression_differences(factors, elems):
    """Indices of q != 0 with elems = {x, x+q, ..., x+(k-1)q} for some x.

    Only a member x with x - q outside the set can start such a run; when
    every member has its predecessor inside, any member may start it.
    """
    s = set(elems)
    out = []
    for q in o_elements(factors)[1:]:
        starts = [x for x in s if o_sub(factors, x, q) not in s]
        run, y = set(), (starts or sorted(s))[0]
        for _ in range(len(s)):
            run.add(y)
            y = o_add(factors, y, q)
        if run == s:
            out.append(o_index(factors, q))
    return out


def oracle_is_subgroup(factors, elems):
    s = set(elems)
    return tuple(0 for _ in factors) in s and all(
        o_add(factors, x, y) in s for x in s for y in s
    )


def oracle_least_prime(n):
    for d in range(2, n + 1):
        if n % d == 0:
            return d
    raise AssertionError


def oracle_subgroups(factors):
    """All subsets containing 0 and closed under addition, by brute force."""
    els = o_elements(factors)
    zero = tuple(0 for _ in factors)
    out = []
    for bits in range(1, 1 << len(els)):
        members = [e for i, e in enumerate(els) if bits >> i & 1]
        if zero not in members:
            continue
        mset = set(members)
        if all(o_add(factors, x, y) in mset for x in members for y in members):
            out.append(frozenset(mset))
    return set(out)


def o_index(factors, e):
    """Mixed-radix index, first factor most significant."""
    idx = 0
    for c, n in zip(e, factors):
        idx = idx * n + c
    return idx


def o_perm(factors, fn):
    """perm[i] = index of fn(e_i), over the elements in index order."""
    return np.array([o_index(factors, fn(e)) for e in o_elements(factors)], dtype=np.int64)


def o_map_bits(bits, perm):
    """Mask of {perm[i] : i in bits}."""
    return sum(1 << int(perm[i]) for i in range(len(perm)) if bits >> i & 1)


def perm_mask_table(perm):
    """P[m] = mask of {perm[i] : i in m}, for every mask m."""
    return _masks.union_table((np.uint64(1) << perm.astype(np.uint64)).astype(np.uint32),
                              len(perm))


def translate_perm(factors, shift):
    return o_perm(factors, lambda e: o_add(factors, e, shift))


def stabilizer_sizes(factors):
    """stab[m] = |{g : g + set(m) = set(m)}|, for every mask m."""
    masks = np.arange(1 << math.prod(factors), dtype=np.uint32)
    stab = np.zeros(masks.size, dtype=np.int32)
    for shift in o_elements(factors):
        stab += perm_mask_table(translate_perm(factors, shift)) == masks
    return stab


def as_set(group, elems):
    return rl.ElementSet.from_elements(group, elems)


def set_of(eset):
    return set(eset.elements())


# -- the library's size tables, for tests that check identities over them -------


def size_rows(t, amasks, keys):
    """sizes[j, r, B] = |A +_S B| at A = amasks[r] and (S, gamma) = keys[j], built by
    ``MaskTables.size_tables`` at the kernel's chunk size."""
    amasks = np.atleast_1d(np.asarray(amasks, dtype=np.int64))
    out = np.empty((len(keys), amasks.size, 1 << t.n), dtype=np.int8)
    for _, j, rows, sizes in t.size_tables([(amasks, keys)], bounds._chunk_rows(t.n)):
        out[j, rows] = sizes
    return out


# -- fixtures --------------------------------------------------------------------


GROUP_MATRIX = ["Z2", "Z5", "Z7", "Z8", "Z2xZ4", "Z9", "Z3xZ3", "Z12", "Z2xZ2xZ3", "Z13", "Z16"]


@pytest.fixture(scope="session")
def group_matrix():
    """Small mixed matrix used by randomized and property tests."""
    return [rl.parse_group(n) for n in GROUP_MATRIX]
