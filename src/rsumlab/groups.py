"""Finite abelian groups given as explicit products of cyclic factors.

Elements are coordinate tuples; a mixed-radix encoding with the first factor
most significant maps them to dense indices in ``[0, order)``.  Every other
layer (bitmap sets, sweep tables, CSV/JSON witness rows) relies on this
encoding being stable, so the factor list is kept exactly as given: ``Z2xZ4``
and ``Z4xZ2`` are isomorphic but index their elements differently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

Element = tuple[int, ...]

DEFAULT_MAX_ORDER = 1 << 20

# Groups up to this order get their index arithmetic as lookup lists; above
# it, the same lookups compute each index from its digits.
INDEX_TABLE_LIMIT = 512


class GroupError(ValueError):
    """Malformed group construction, element access, or subgroup request."""


def is_prime(n: int) -> bool:
    return n >= 2 and least_prime_factor(n) == n


def least_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError(f"no prime factor for {n}")
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def prime_power_base(n: int) -> int | None:
    """Return p if n = p**a for a prime p and a >= 1, else None."""
    if n < 2:
        return None
    p = least_prime_factor(n)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}."""
    out: dict[int, int] = {}
    while n > 1:
        p = least_prime_factor(n)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out[p] = e
    return out


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group ``Z_{n1} x ... x Z_{nk}`` with cached order data.

    Use :func:`make_group` to construct one; it validates the factor list and
    fills in the derived fields.
    """

    factors: tuple[int, ...]
    order: int
    least_prime: int

    # -- element encoding ------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.factors)

    def identity(self) -> Element:
        return (0,) * len(self.factors)

    def check_element(self, e: Element) -> None:
        if len(e) != len(self.factors):
            raise GroupError(f"element {e!r} has rank {len(e)}, group has rank {self.rank}")
        for c, n in zip(e, self.factors):
            if not 0 <= c < n:
                raise GroupError(f"coordinate {c} out of range [0, {n}) in {e!r}")

    def element_index(self, e: Element) -> int:
        """Mixed-radix index of an element, factors[0] most significant."""
        self.check_element(e)
        idx = 0
        for c, n in zip(e, self.factors):
            idx = idx * n + c
        return idx

    def index_element(self, i: int) -> Element:
        """Inverse of :meth:`element_index`."""
        if not 0 <= i < self.order:
            raise GroupError(f"index {i} out of range [0, {self.order})")
        coords = []
        for n in reversed(self.factors):
            i, c = divmod(i, n)
            coords.append(c)
        return tuple(reversed(coords))

    def elements(self):
        """All elements in index order."""
        for coords in product(*(range(n) for n in self.factors)):
            yield coords

    # -- group law ---------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        self.check_element(a)
        self.check_element(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.factors))

    def sub(self, a: Element, b: Element) -> Element:
        self.check_element(a)
        self.check_element(b)
        return tuple((x - y) % n for x, y, n in zip(a, b, self.factors))

    def neg(self, a: Element) -> Element:
        self.check_element(a)
        return tuple((-x) % n for x, n in zip(a, self.factors))

    def scale(self, u: int, a: Element) -> Element:
        """Integer multiple u*a (an automorphism when gcd(u, order) = 1)."""
        self.check_element(a)
        return tuple((u * x) % n for x, n in zip(a, self.factors))

    def element_order(self, a: Element) -> int:
        self.check_element(a)
        o = 1
        for x, n in zip(a, self.factors):
            o = math.lcm(o, n // math.gcd(n, x))
        return o

    # -- shape predicates used by the bound catalog -------------------------

    @property
    def is_prime_cyclic(self) -> bool:
        return self.least_prime == self.order

    @property
    def is_cyclic_prime_power(self) -> bool:
        return len(self.factors) == 1 and prime_power_base(self.factors[0]) is not None

    def __str__(self) -> str:
        return format_group(self)


def make_group(factors, max_order: int = DEFAULT_MAX_ORDER) -> GroupSpec:
    """Build a GroupSpec from a list of cyclic orders, each >= 2.

    The factor list is preserved as given (no normal-form rewriting), keeping
    the element encoding stable.
    """
    fs = tuple(int(n) for n in factors)
    if not fs:
        raise GroupError("factor list must be non-empty")
    for n in fs:
        if n < 2:
            raise GroupError(f"cyclic factor {n} < 2")
    order = math.prod(fs)
    if order > max_order:
        raise GroupError(f"group order {order} exceeds configured maximum {max_order}")
    return GroupSpec(factors=fs, order=order, least_prime=least_prime_factor(order))


# -- index arithmetic ---------------------------------------------------------


def _affine_index(factors: tuple[int, ...], u: int, shift, i):
    """Index of u*e_i + e_shift by mixed-radix digits; ints or int64 arrays."""
    out = 0
    weight = 1
    for n in reversed(factors):
        i, c = divmod(i, n)
        shift, d = divmod(shift, n)
        out = out + (u * c + d) % n * weight
        weight *= n
    return out


class _DigitRow:
    """``row[i]`` = index of u*e_i + e_shift, computed on lookup."""

    __slots__ = ("factors", "u", "shift")

    def __init__(self, factors: tuple[int, ...], u: int, shift: int):
        self.factors, self.u, self.shift = factors, u, shift

    def __getitem__(self, i: int) -> int:
        return _affine_index(self.factors, self.u, self.shift, i)


class _DigitRows:
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors

    def __getitem__(self, j: int) -> _DigitRow:
        return _DigitRow(self.factors, 1, j)


def _below(pattern: int, m: int, w: int, d: int) -> int:
    """Mask of the elements whose digit of modulus m and weight w is below m - d."""
    return (pattern << (m - d) * w) - pattern


class IndexTable:
    """The group law on element indices: every sum, negation and multiple.

    ``add[j][i]`` is the index of e_i + e_j, ``neg[i]`` that of -e_i and
    ``scaled(u)[i]`` that of u*e_i.  Up to INDEX_TABLE_LIMIT elements they are
    lists, filled by vectorised mixed-radix arithmetic; above it they are
    rows that compute each index from its digits when read.
    ``translate(bits, j)`` moves a whole bitmap by e_j, one bit rotation per
    factor digit of j; the digit masks it reads are stored lists up to the
    same limit and computed per call above it, so a group of order 2**20
    holds no table of 2**20 masks.  Get one with :func:`index_table`, which
    caches it per group.
    """

    def __init__(self, group: GroupSpec):
        self.factors = group.factors
        self.order = group.order
        self._scaled: dict[int, object] = {}
        stored = self.order <= INDEX_TABLE_LIMIT
        self.add = self.add_array().tolist() if stored else _DigitRows(self.factors)
        self.neg = self.scaled(-1)
        # per factor, least significant first: (modulus m, weight w, pattern,
        # masks), pattern holding bit 0 of each block of m*w bits and, when
        # stored, masks[d] = _below(pattern, m, w, d)
        self._digits = []
        weight = 1
        for m in reversed(self.factors):
            pattern, span = 1, m * weight
            while span < self.order:
                pattern |= pattern << span
                span <<= 1
            pattern &= (1 << self.order) - 1
            masks = [_below(pattern, m, weight, d) for d in range(m)] if stored else None
            self._digits.append((m, weight, pattern, masks))
            weight *= m

    def translate(self, bits: int, j: int) -> int:
        """Bitmap of {x + e_j : x in bits}.

        Per factor digit d of j, the elements whose digit is below m - d move
        up by d*w and the others down by (m - d)*w.
        """
        for m, w, pattern, masks in self._digits:
            j, d = divmod(j, m)
            if d:
                low = bits & (masks[d] if masks is not None else _below(pattern, m, w, d))
                bits = low << d * w | (bits ^ low) >> (m - d) * w
        return bits

    def add_array(self) -> np.ndarray:
        """The ``add`` table as an int64 ``(order, order)`` array."""
        idx = np.arange(self.order, dtype=np.int64)
        return _affine_index(self.factors, 1, idx[:, None], idx[None, :])

    def scaled(self, u: int):
        """Row of u*e_i over all indices i."""
        u %= self.order
        row = self._scaled.get(u)
        if row is None:
            if self.order <= INDEX_TABLE_LIMIT:
                row = _affine_index(self.factors, u, 0, np.arange(self.order)).tolist()
            else:
                row = _DigitRow(self.factors, u, 0)
            self._scaled[u] = row
        return row


# a table near the limit holds about 10 MB of Python ints, and rebuilding one
# takes milliseconds, so only the most recently used groups keep theirs
@lru_cache(maxsize=32)
def index_table(group: GroupSpec) -> IndexTable:
    return IndexTable(group)


def map_bits(bits: int, row) -> int:
    """Bitmap of {row[i] : i in bits}, e.g. a multiple when row is a scaled row."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << row[low.bit_length() - 1]
        bits ^= low
    return out


# -- text grammar: Z<n> or Z<n1>xZ<n2>x... ; elements <i> or (<i>,<j>,...) ---


def parse_group(text: str, max_order: int = DEFAULT_MAX_ORDER) -> GroupSpec:
    """Parse a group spec string like ``Z7`` or ``Z2xZ4``."""
    s = text.strip()
    if not re.fullmatch(r"Z\d+(?:xZ\d+)*", s):
        raise GroupError(f"bad group spec {text!r}; expected e.g. Z7 or Z2xZ4")
    return make_group([int(part[1:]) for part in s.split("x")], max_order=max_order)


def format_group(g: GroupSpec) -> str:
    return "x".join(f"Z{n}" for n in g.factors)


def parse_element(g: GroupSpec, text: str) -> Element:
    """Parse an element literal: a bare residue for rank-1 groups, else a tuple."""
    s = text.strip()
    if g.rank == 1:
        if not re.fullmatch(r"\d+", s):
            raise GroupError(f"bad element literal {text!r} for rank-1 group")
        e: Element = (int(s),)
    else:
        m = re.fullmatch(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)", s)
        if m is None:
            raise GroupError(f"bad element literal {text!r}; expected (i,j,...)")
        e = tuple(int(c) for c in m.group(1).split(","))
    g.check_element(e)
    return e


def format_element(g: GroupSpec, e: Element) -> str:
    g.check_element(e)
    if g.rank == 1:
        return str(e[0])
    return "(" + ",".join(str(c) for c in e) + ")"


# -- isomorphism-class representatives for test matrices --------------------


def _partitions(n: int):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def abelian_group_specs(order: int) -> list[GroupSpec]:
    """One GroupSpec per isomorphism class of abelian groups of this order.

    Factors are primary components, primes ascending, exponents descending,
    e.g. order 12 -> [4,3] and [2,2,3].
    """
    if order < 2:
        return []
    per_prime = []
    for p, e in sorted(factorize(order).items()):
        per_prime.append([tuple(p ** k for k in part) for part in _partitions(e)])
    specs = []
    for combo in product(*per_prime):
        factors = tuple(f for chunk in combo for f in chunk)
        specs.append(make_group(factors))
    specs.sort(key=lambda g: g.factors)
    return specs


def abelian_groups_up_to(max_order: int, min_order: int = 2) -> list[GroupSpec]:
    """All isomorphism-class representatives with min_order <= order <= max_order."""
    out: list[GroupSpec] = []
    for n in range(min_order, max_order + 1):
        out.extend(abelian_group_specs(n))
    return out
