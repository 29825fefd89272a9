from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import rsumlab as rl
from conftest import set_of


class TestParseFormat:
    def test_parse_rank1(self):
        g = rl.parse_group("Z7")
        s = rl.parse_set(g, "{1,2,3}")
        assert s.size == 3
        assert set_of(s) == {(1,), (2,), (3,)}

    def test_parse_rank2_indices(self):
        g = rl.parse_group("Z2xZ4")
        s = rl.parse_set(g, "{(0,0),(1,3)}")
        assert s.size == 2
        assert sorted(s.indices()) == [0, 7]

    def test_duplicate_rejected(self):
        g = rl.parse_group("Z5")
        with pytest.raises(rl.GroupError):
            rl.parse_set(g, "{0,0}")

    def test_syntax_errors(self):
        g = rl.parse_group("Z5")
        for bad in ("1,2", "{1,2", "{a}", "{6}", "{1;2}"):
            with pytest.raises(rl.GroupError):
                rl.parse_set(g, bad)

    def test_empty_set(self):
        g = rl.parse_group("Z5")
        s = rl.parse_set(g, "{}")
        assert s.size == 0
        assert rl.format_set(s) == "{}"

    def test_format_ascending(self):
        g = rl.parse_group("Z7")
        assert rl.format_set(rl.parse_set(g, "{5,1,3}")) == "{1,3,5}"


class TestSetOps:
    def test_translate(self):
        g = rl.parse_group("Z5")
        assert set_of(rl.parse_set(g, "{0,1}").translate((3,))) == {(3,), (4,)}

    def test_negate(self):
        g = rl.parse_group("Z5")
        assert set_of(rl.parse_set(g, "{1,2}").negate()) == {(3,), (4,)}

    def test_intersect(self):
        g = rl.parse_group("Z6")
        got = rl.parse_set(g, "{0,2,4}").intersect(rl.parse_set(g, "{0,3}"))
        assert set_of(got) == {(0,)}

    def test_union_difference_image(self):
        g = rl.parse_group("Z6")
        a = rl.parse_set(g, "{0,1}")
        b = rl.parse_set(g, "{1,2}")
        assert set_of(a | b) == {(0,), (1,), (2,)}
        assert set_of(a - b) == {(0,)}
        assert set_of(a.image_under(lambda e: g.scale(2, e))) == {(0,), (2,)}

    def test_group_mismatch(self):
        a = rl.parse_set(rl.parse_group("Z5"), "{0}")
        b = rl.parse_set(rl.parse_group("Z7"), "{0}")
        with pytest.raises(rl.GroupMismatchError):
            a.union(b)

    def test_immutability(self):
        s = rl.parse_set(rl.parse_group("Z5"), "{0}")
        with pytest.raises(AttributeError):
            s.bits = 3


small_groups = st.sampled_from(["Z5", "Z6", "Z8", "Z2xZ4", "Z3xZ3"])


@given(small_groups, st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
def test_popcount_cache_after_ops(name, bits1, bits2):
    g = rl.parse_group(name)
    mask = (1 << g.order) - 1
    a = rl.ElementSet(g, bits1 & mask)
    b = rl.ElementSet(g, bits2 & mask)
    for s in (a | b, a & b, a - b, a.negate(), a.translate(g.index_element(1))):
        assert s.size == bin(s.bits).count("1")


@given(small_groups, st.integers(min_value=0, max_value=255))
def test_format_parse_roundtrip(name, bits):
    g = rl.parse_group(name)
    s = rl.ElementSet(g, bits & ((1 << g.order) - 1))
    assert rl.parse_set(g, rl.format_set(s)) == s


class TestEnumeration:
    def test_exhaustive_count_z5_singletons(self):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, a_max=1, b_max=1, s_min=1, s_max=1)
        assert plan.count_triples() == 125
        assert sum(1 for _ in rl.enumerate_triples(plan)) == 125

    def test_canonical_count_z5_singletons(self):
        # canonical forms pin A's minimum element index at 0; brute-force dedup
        # of the diagonal-translate canonical map over all 125 triples gives 25
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, a_max=1, b_max=1, s_min=1, s_max=1)
        seen = set()
        for a, b, s in rl.enumerate_triples(plan):
            ca, cb, cs = rl.canonicalize_triple(a, b, s, canonicalize=True)
            assert ca.min_index() == 0
            seen.add((ca.bits, cb.bits, cs.bits))
        cplan = rl.EnumerationPlan(
            group=g, a_max=1, b_max=1, s_min=1, s_max=1, canonicalize=True
        )
        got = {(a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(cplan)}
        assert cplan.count_triples() == 25
        assert len(got) == 25
        assert seen == got

    @pytest.mark.parametrize("name", ["Z4", "Z5", "Z6", "Z2xZ2", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2"])
    def test_canonical_stream_is_exactly_the_zero_containing_slice(self, name):
        g = rl.parse_group(name)
        full = rl.EnumerationPlan(group=g, s_min=0, s_max=2)
        canon = rl.EnumerationPlan(group=g, s_min=0, s_max=2, canonicalize=True)
        full_keys = {(a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(full)}
        canon_keys = {(a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(canon)}
        assert canon_keys == {k for k in full_keys if k[0] & 1}
        assert len(canon_keys) == canon.count_triples()

    @pytest.mark.parametrize("name", ["Z4", "Z5", "Z6"])
    def test_canonical_expansion_reproduces_full_stream(self, name):
        # translating every canonical triple diagonally by all g recovers the
        # exhaustive stream exactly
        g = rl.parse_group(name)
        full = rl.EnumerationPlan(group=g, s_min=0, s_max=2)
        canon = rl.EnumerationPlan(group=g, s_min=0, s_max=2, canonicalize=True)
        expanded = set()
        for a, b, s in rl.enumerate_triples(canon):
            for e in g.elements():
                expanded.add((a.translate(e).bits, b.translate(e).bits, s.bits))
        full_keys = {(a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(full)}
        assert expanded == full_keys

    def test_canonicalize_s_pins_zero_and_preserves_cardinality(self):
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, a_max=3, b_max=3, s_min=1, s_max=2)
        for a, b, s in rl.enumerate_triples(plan, shard_index=0, shard_count=17):
            ca, cb, cs = rl.canonicalize_triple(a, b, s, True, True)
            assert ca.contains_index(0) and cs.contains_index(0)
            lhs = rl.generalized_restricted_sumset(a, b, s).size
            assert rl.generalized_restricted_sumset(ca, cb, cs).size == lhs

    def test_shards_cover_disjointly(self):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, a_max=2, b_max=2, s_min=0, s_max=1)
        full = [(a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(plan)]
        sharded = []
        for i in range(3):
            sharded.extend(
                (a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(plan, i, 3)
            )
        assert sorted(sharded) == sorted(full)
        assert len(full) == plan.count_triples()

    def test_sampled_deterministic(self):
        g = rl.parse_group("Z3")
        plan = rl.EnumerationPlan(
            group=g, mode="sampled", sample_count=10, seed=1, s_min=0, s_max=1
        )
        run1 = [(a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(plan)]
        run2 = [(a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(plan)]
        assert run1 == run2
        assert len(run1) == 10

    def test_sampled_shard_stable(self):
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(
            group=g, mode="sampled", sample_count=30, seed=9, s_min=1, s_max=2
        )
        full = [(a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(plan)]
        merged = []
        for i in range(5):
            merged.extend(
                (a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(plan, i, 5)
            )
        assert sorted(merged) == sorted(full)

    def test_plan_validation(self):
        g = rl.parse_group("Z5")
        with pytest.raises(ValueError):
            rl.EnumerationPlan(group=g, a_min=0)
        with pytest.raises(ValueError):
            rl.EnumerationPlan(group=g, s_min=3, s_max=2)
        with pytest.raises(ValueError):
            rl.EnumerationPlan(group=g, mode="sampled")
