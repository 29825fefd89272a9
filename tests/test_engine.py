from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rsumlab as rl
from rsumlab import _masks, bounds, engine
from conftest import (
    o_add, o_elements, o_index, o_map_bits, o_neg, o_perm, o_sub, oracle_sumset,
    perm_mask_table, set_of, size_rows, translate_perm,
)


def S(g, text):
    return rl.parse_set(g, text)


class TestPlainSumset:
    def test_z5_example(self):
        g = rl.parse_group("Z5")
        # oracle: 4 pairs {0,1}x{0,2} -> sums {0,2,1,3}
        assert set_of(rl.sumset(S(g, "{0,1}"), S(g, "{0,2}"))) == {(0,), (1,), (2,), (3,)}

    def test_identity_translate(self):
        g = rl.parse_group("Z7")
        b = S(g, "{2,4,5}")
        assert rl.sumset(S(g, "{0}"), b) == b

    def test_subgroup_closure(self):
        g = rl.parse_group("Z2xZ2")
        full = rl.ElementSet.full(g)
        assert rl.sumset(full, full) == full

    def test_empty_operand_rejected(self):
        g = rl.parse_group("Z5")
        with pytest.raises(ValueError):
            rl.sumset(rl.ElementSet.empty(g), S(g, "{0}"))


class TestRestrictedSumset:
    def test_z7_example(self):
        g = rl.parse_group("Z7")
        a = S(g, "{1,2,3}")
        assert set_of(rl.restricted_sumset(a, a)) == {(3,), (4,), (5,)}

    def test_single_equal_pair_empty(self):
        g = rl.parse_group("Z5")
        assert rl.restricted_sumset(S(g, "{2}"), S(g, "{2}")).size == 0

    def test_single_distinct_pair(self):
        g = rl.parse_group("Z5")
        assert set_of(rl.restricted_sumset(S(g, "{2}"), S(g, "{3}"))) == {(0,)}

    @pytest.mark.parametrize("name", ["Z5", "Z6", "Z2xZ4"])
    def test_equals_generalized_with_zero(self, name):
        g = rl.parse_group(name)
        zero = rl.ElementSet(g, 1)
        for abits in range(1, 1 << g.order, 3):
            for bbits in range(1, 1 << g.order, 5):
                a, b = rl.ElementSet(g, abits), rl.ElementSet(g, bbits)
                assert rl.restricted_sumset(a, b) == rl.generalized_restricted_sumset(a, b, zero)


class TestGeneralizedRestricted:
    def test_full_s_gives_empty(self):
        # with S the whole group every pair is excluded
        g = rl.parse_group("Z5")
        full = rl.ElementSet.full(g)
        assert rl.generalized_restricted_sumset(S(g, "{0,2}"), S(g, "{1}"), full).size == 0

    def test_z7_tight_example(self):
        g = rl.parse_group("Z7")
        a = S(g, "{1,2,3}")
        got = rl.generalized_restricted_sumset(a, a, S(g, "{0}"))
        assert set_of(got) == {(3,), (4,), (5,)}
        assert got.size == 3 == a.size + a.size - 1 - 2

    def test_empty_s_is_plain_sumset(self):
        g = rl.parse_group("Z6")
        a, b = S(g, "{0,1}"), S(g, "{0,3}")
        got = rl.generalized_restricted_sumset(a, b, rl.ElementSet.empty(g))
        assert set_of(got) == {(0,), (1,), (3,), (4,)}
        assert got == rl.sumset(a, b)

    def test_rejects_mixed_groups(self):
        g5, g6 = rl.parse_group("Z5"), rl.parse_group("Z6")
        with pytest.raises(rl.GroupMismatchError):
            rl.generalized_restricted_sumset(S(g5, "{0}"), S(g6, "{0}"), rl.ElementSet.empty(g5))

    @pytest.mark.parametrize("name", ["Z7", "Z2xZ4", "Z3xZ3", "Z2xZ3xZ5", "Z521"])
    def test_matches_oracle_on_random_triples(self, name):
        g = rl.parse_group(name)
        rng = np.random.default_rng(2)
        for _ in range(200):
            abits, bbits, sbits = _random_bits(rng, g.order, 3)
            a, b = rl.ElementSet(g, abits), rl.ElementSet(g, bbits)
            s = rl.ElementSet(g, sbits & (abits ^ bbits))
            want = oracle_sumset(g.factors, list(a), list(b), list(s))
            assert set_of(rl.generalized_restricted_sumset(a, b, s)) == want


class TestTwisted:
    def test_z5_gamma2_tight(self):
        g = rl.parse_group("Z5")
        got = rl.twisted_restricted_sumset(S(g, "{0,1,2}"), S(g, "{0,1}"), S(g, "{0}"), 2)
        assert set_of(got) == {(1,), (2,)}
        assert got.size == 2 == 3 + 2 - 1 - 2

    def test_gamma1_reduces_to_generalized(self):
        g = rl.parse_group("Z7")
        for abits in range(1, 128, 7):
            for bbits in range(1, 128, 11):
                a, b = rl.ElementSet(g, abits), rl.ElementSet(g, bbits)
                s = rl.ElementSet(g, (abits * 3) % 128)
                assert rl.twisted_restricted_sumset(a, b, s, 1) == (
                    rl.generalized_restricted_sumset(a, b, s)
                )

    def test_gamma_minus_one_still_computes(self):
        # the set is well defined at gamma = -1; only the bound checker
        # treats that value as out of hypothesis
        g = rl.parse_group("Z5")
        got = rl.twisted_restricted_sumset(S(g, "{0,1}"), S(g, "{0,1}"), S(g, "{0}"), 4)
        assert set_of(got) == set_of(rl.sumset(S(g, "{0,1}"), S(g, "{0,1}")) - S(g, "{0}"))

    def test_rejects_non_prime_group(self):
        g = rl.parse_group("Z6")
        with pytest.raises(rl.GroupError):
            rl.twisted_restricted_sumset(S(g, "{0}"), S(g, "{0}"), S(g, "{0}"), 2)

    def test_rejects_gamma_zero(self):
        g = rl.parse_group("Z5")
        with pytest.raises(ValueError):
            rl.twisted_restricted_sumset(S(g, "{0}"), S(g, "{0}"), S(g, "{0}"), 5)

    def test_matches_oracle(self):
        # every gamma in 1..p-1, so a wrong multiple (1+gamma)b shows
        rng = np.random.default_rng(3)
        for g in map(rl.parse_group, ("Z7", "Z11", "Z13")):
            p = g.order
            for gamma in range(1, p):
                for _ in range(40):
                    a, b, s = (rl.ElementSet(g, x) for x in _random_bits(rng, p, 3))
                    want = oracle_sumset(g.factors, list(a), list(b), list(s), gamma=gamma)
                    assert set_of(rl.twisted_restricted_sumset(a, b, s, gamma)) == want, gamma


@pytest.mark.parametrize("name", ["Z13", "Z2xZ6", "Z521"])
def test_one_multi_rule_call_equals_single_rule_calls(name):
    # the scalar sweep asks for every (S, gamma) rule of a triple at once,
    # sharing the translates b + A between them
    g = rl.parse_group(name)
    rng = np.random.default_rng(4)
    gammas = (1, 2, 3, g.order - 1) if g.is_prime_cyclic else (1,)
    for _ in range(50):
        abits, bbits, sbits = _random_bits(rng, g.order, 3)
        rules = [(0, 1), (1, 1)] + [(sbits, gamma) for gamma in gammas]
        got = engine.pair_sums(g, abits, bbits, rules)
        assert got == [engine.pair_sums(g, abits, bbits, [rule])[0] for rule in rules]
        a, b, s = (rl.ElementSet(g, x) for x in (abits, bbits, sbits))
        assert got[:3] == [rl.sumset(a, b).bits, rl.restricted_sumset(a, b).bits,
                           rl.generalized_restricted_sumset(a, b, s).bits]


def _random_bits(rng, n: int, count: int) -> list[int]:
    """``count`` random non-empty bitmaps of n bits; above 62 bits, of at most 12 elements."""
    if n < 63:
        return [int(x) for x in rng.integers(1, 1 << n, size=count)]
    sizes = rng.integers(1, 13, size=count).tolist()
    return [sum(1 << i for i in rng.choice(n, k, replace=False).tolist()) for k in sizes]


# -- algebraic invariants, exhaustive at small orders ---------------------------


@pytest.mark.parametrize("name,sbits,gamma", [
    ("Z2xZ4", 0, 1), ("Z2xZ4", 0b101, 1), ("Z7", 0, 3), ("Z7", 0b1001, 3), ("Z7", 1, 1),
    ("Z7", 0b1001, 6), ("Z7", 1, 2),
])
def test_batched_cmasks_match_per_mask_and_element_loop(name, sbits, gamma):
    g = rl.parse_group(name)
    t = _masks.tables_for(g)
    n = g.order
    amasks = [1, 0b1011, (1 << n) - 1, 0b0110010 & ((1 << n) - 1), 0]
    batch = t.cmasks_general(np.array(amasks)) & t.kept(sbits, gamma)
    assert batch.shape == (len(amasks), n)
    assert np.array_equal(batch, np.stack([t.cmasks_general(a) & t.kept(sbits, gamma)
                                           for a in amasks]))
    # reference: C[b] = b + (A \ (gamma*b + S)), element by element
    for row, abits in zip(batch, amasks):
        for b in range(n):
            gb = b if gamma == 1 else (gamma * b) % n
            excluded = {t.add[x, gb] for x in range(n) if sbits >> x & 1}
            want = sum(1 << int(t.add[x, b]) for x in range(n)
                       if abits >> x & 1 and x not in excluded)
            assert int(row[b]) == want, (name, abits, b)


@pytest.mark.parametrize("name", ["Z5", "Z6", "Z2xZ2", "Z7", "Z2xZ4"])
def test_size_tables_match_oracle(name, monkeypatch):
    # every (A, B), |S| <= 2, every gamma 1..p-1 on Z_p.  The oracle's pair
    # loop makes A +_S B the union over b in B of A +_S {b}, so it is called
    # once per (A, b) and the union is taken over B by the lowest set bit.
    g = rl.parse_group(name)
    t = _masks.tables_for(g)
    n, f = g.order, g.factors
    els = o_elements(f)
    gammas = range(1, n) if g.is_prime_cyclic else (1,)
    keys = [(s, gm) for s in range(1 << n) if s.bit_count() <= 2 for gm in gammas]
    amasks = np.arange(1 << n)
    members = [[els[x] for x in range(n) if m >> x & 1] for m in range(1 << n)]
    want = np.empty((len(keys), 1 << n, 1 << n), dtype=np.int8)
    for j, (sbits, gamma) in enumerate(keys):
        single = np.array([[sum(1 << o_index(f, e) for e in oracle_sumset(
            f, members[a], [els[b]], members[sbits], gamma)) for b in range(n)]
            for a in range(1 << n)])
        u = np.zeros((1 << n, 1 << n), dtype=np.int64)
        for m in range(1, 1 << n):
            u[:, m] = u[:, m & (m - 1)] | single[:, (m & -m).bit_length() - 1]
        want[j] = np.bitwise_count(u)
    build = _masks.size_table_batch
    calls = []
    monkeypatch.setattr(_masks, "size_table_batch",
                        lambda cmasks, n: calls.append(len(cmasks)) or build(cmasks, n))
    for chunk_rows in (1, 3, bounds._chunk_rows(n)):
        calls.clear()
        got = np.full_like(want, -1)
        for rows, j, sizes in t.size_tables(amasks, keys, chunk_rows):
            got[j, rows] = sizes
        assert np.array_equal(got, want), (name, chunk_rows)
        # each table row is built once, in batches of at most chunk_rows rows
        assert sum(calls) == len(keys) * amasks.size and max(calls) <= chunk_rows
        if chunk_rows <= 3:  # a chunk's keys span several batches
            assert len(calls) > -(-amasks.size // chunk_rows)


def test_kept_rows():
    t = _masks.tables_for(rl.parse_group("Z2xZ4"))
    with pytest.raises(ValueError, match="rank-1"):
        t.kept(0b101, 3)
    assert t.kept(0b101, 1) is t.kept(0b101, 1)


@pytest.mark.parametrize("n", [*range(1, 9), 14])
def test_union_table_is_or_over_set_bits(n):
    rng = np.random.default_rng(n)
    masks = np.arange(1 << n)
    for k in (1, 3, bounds._chunk_rows(n)):
        cmasks = rng.integers(0, 1 << n, size=(k, n))
        u = _masks.union_table_batch(cmasks, n)
        assert u.shape == (k, 1 << n) and u.dtype == _masks.MASK_DTYPE
        assert not u[:, 0].any()
        # U[m] is the OR of cmasks[b] over the set bits b of m
        want = np.zeros((k, 1 << n), dtype=np.int64)
        for b in range(n):
            want |= np.where(masks >> b & 1, cmasks[:, b:b + 1], 0)
        assert np.array_equal(u, want), (n, k)
        # one byte plane of the same masks
        u8 = _masks.union_table_batch(cmasks & 0xFF, n, dtype=np.uint8)
        assert u8.dtype == np.uint8 and np.array_equal(u8, want & 0xFF), (n, k)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 16, 17, 20])
def test_size_table_batch_counts_union_table(n):
    rng = np.random.default_rng(n)
    for k in (1, 3, bounds._chunk_rows(n)) if n <= 16 else (1,):
        cmasks = rng.integers(0, 1 << n, size=(k, n)).astype(_masks.MASK_DTYPE)
        cmasks[0, -1] = (1 << n) - 1  # every bit below n is in some mask
        sizes = _masks.size_table_batch(cmasks, n)
        want = np.bitwise_count(_masks.union_table_batch(cmasks, n))
        assert sizes.dtype == np.int8 and np.array_equal(sizes, want), (n, k)


@pytest.mark.parametrize("name", [
    "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2",
    "Z9", "Z3xZ3", "Z10", "Z11", "Z12", "Z2xZ6",
])
def test_duality_exhaustive_orders_up_to_12(name):
    # |A +_S B| = |(-B) +_S (-A)| for every triple with |S| <= 2.  The right
    # side, unioned over its free first operand -B, has contribution masks
    # x + ((-A) \ (x + (-S))), i.e. the (-A, -S) table evaluated at mask(-B).
    # The S range is closed under negation, so for each A both sides come
    # from one batched table per member of the pair {A, -A}.
    g = rl.parse_group(name)
    t = _masks.tables_for(g)
    n = g.order
    neg_perm = o_perm(g.factors, lambda e: o_neg(g.factors, e))
    neg_table = perm_mask_table(neg_perm)
    s_masks = [0] + [m for k in (1, 2) for m in _all_masks(n, k)]
    s_pos = {m: i for i, m in enumerate(s_masks)}
    neg_rows = np.array([s_pos[o_map_bits(m, neg_perm)] for m in s_masks])

    def batch_tables(abits):
        return size_rows(t, abits, [(sbits, 1) for sbits in s_masks])[:, 0]

    for abits in range(1, 1 << n):
        neg_abits = o_map_bits(abits, neg_perm)
        if neg_abits < abits:
            continue  # the identity pairs (A,S,B) with (-A,-S,-B); check once
        lhs = batch_tables(abits)
        rhs = lhs if neg_abits == abits else batch_tables(neg_abits)
        assert np.array_equal(lhs, rhs[neg_rows][:, neg_table]), (name, abits)


def _all_masks(n, k):
    from itertools import combinations

    out = []
    for combo in combinations(range(n), k):
        m = 0
        for i in combo:
            m |= 1 << i
        out.append(m)
    return out


def test_duality_unit_example():
    g = rl.parse_group("Z5")
    a, b, s = S(g, "{0}"), S(g, "{1}"), S(g, "{4}")
    lhs = rl.generalized_restricted_sumset(a, b, s).size
    swapped = rl.generalized_restricted_sumset(b.negate(), a.negate(), s).size
    assert lhs == swapped == 0
    # negating S as well as swapping changes the constraint and the answer
    other = rl.generalized_restricted_sumset(b.negate(), a.negate(), s.negate()).size
    assert other == 1 != lhs
    # the set-level identities behind the cardinality ones
    assert rl.generalized_restricted_sumset(b.negate(), a.negate(), s) == (
        rl.generalized_restricted_sumset(a, b, s).negate()
    )
    assert rl.generalized_restricted_sumset(b, a, s.negate()) == (
        rl.generalized_restricted_sumset(a, b, s)
    )


@pytest.mark.parametrize("name", ["Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2"])
def test_translation_invariance_exhaustive_order_up_to_8(name):
    # (g+A) +_{(g-h)+S} (h+B) = (g+h) + (A +_S B) for all A, B, |S| <= 2, g, h.
    # The (g,h) shift is the composition of (g,0) and (0,h), and each factor
    # is verified here for every triple, so checking the two one-parameter
    # families exhaustively covers the full two-parameter family; small
    # groups get the full (g,h) grid as well.
    g = rl.parse_group(name)
    t = _masks.tables_for(g)
    n = g.order
    f = g.factors
    els = list(g.elements())
    s_masks = [0] + [m for k in (1, 2) for m in _all_masks(n, k)]
    tr_perms = [translate_perm(f, e) for e in els]
    tr_tables = [perm_mask_table(perm) for perm in tr_perms]
    full_grid = n <= 5
    pairs = [(gi, 0) for gi in range(n)] + [(0, hi) for hi in range(1, n)]
    if full_grid:
        pairs = [(gi, hi) for gi in range(n) for hi in range(n)]
    for abits in range(1, 1 << n):
        for sbits in s_masks:
            base = _masks.union_table(t.cmasks_general(abits) & t.kept(sbits), n)
            for gi, hi in pairs:
                ga = o_map_bits(abits, tr_perms[gi])
                shift = o_index(f, o_sub(f, els[gi], els[hi]))
                ss = o_map_bits(sbits, tr_perms[shift])
                shifted = _masks.union_table(t.cmasks_general(ga) & t.kept(ss), n)
                ghsum = o_index(f, o_add(f, els[gi], els[hi]))
                assert np.array_equal(
                    shifted[tr_tables[hi]], tr_tables[ghsum][base]
                ), (name, abits, sbits, gi, hi)


@given(
    st.sampled_from(["Z7", "Z8", "Z2xZ4", "Z3xZ3", "Z12"]),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_monotonicity_in_s(name, data):
    g = rl.parse_group(name)
    full = (1 << g.order) - 1
    a = rl.ElementSet(g, data.draw(st.integers(1, full)))
    b = rl.ElementSet(g, data.draw(st.integers(1, full)))
    s_small_bits = data.draw(st.integers(0, full))
    s_big_bits = s_small_bits | data.draw(st.integers(0, full))
    s_small, s_big = rl.ElementSet(g, s_small_bits), rl.ElementSet(g, s_big_bits)
    bigger = rl.generalized_restricted_sumset(a, b, s_small)
    smaller = rl.generalized_restricted_sumset(a, b, s_big)
    assert smaller.is_subset(bigger)
    assert bigger.is_subset(rl.sumset(a, b))


@given(st.sampled_from(["Z7", "Z8", "Z2xZ4", "Z3xZ3"]), st.data())
@settings(max_examples=120, deadline=None)
def test_trivial_floor(name, data):
    # |A +_S B| >= max(|A|, |B|) - |S|
    g = rl.parse_group(name)
    full = (1 << g.order) - 1
    a = rl.ElementSet(g, data.draw(st.integers(1, full)))
    b = rl.ElementSet(g, data.draw(st.integers(1, full)))
    s = rl.ElementSet(g, data.draw(st.integers(0, full)))
    assert rl.generalized_restricted_sumset(a, b, s).size >= max(a.size, b.size) - s.size


@pytest.mark.parametrize("n", range(2, 11))
def test_unit_scaling_equivariance(n):
    # |uA +_{uS} uB| = |A +_S B| for u coprime to n, exhaustively for |S| <= 1
    g = rl.make_group([n])
    t = _masks.tables_for(g)
    units = [u for u in range(2, n) if __import__("math").gcd(u, n) == 1]
    s_masks = [0] + [1 << i for i in range(n)]
    for u in units:
        perm = np.array([(u * i) % n for i in range(n)], dtype=np.int64)
        scale_table = perm_mask_table(perm)
        for abits in range(1, 1 << n):
            ua = int(scale_table[abits])
            for sbits in s_masks:
                us = int(scale_table[sbits])
                base = size_rows(t, abits, [(sbits, 1)])[0, 0]
                scaled = size_rows(t, ua, [(us, 1)])[0, 0]
                assert np.array_equal(base, scaled[scale_table]), (n, u, abits, sbits)
