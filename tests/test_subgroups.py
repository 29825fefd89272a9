from __future__ import annotations

import pytest

import rsumlab as rl
from conftest import o_add, oracle_subgroups, set_of


class TestEnumeration:
    def test_prime_order_z9(self):
        subs = rl.prime_order_subgroups(rl.parse_group("Z9"))
        assert [set_of(h.members) for h in subs] == [{(0,), (3,), (6,)}]

    def test_prime_order_z3xz3(self):
        subs = rl.prime_order_subgroups(rl.parse_group("Z3xZ3"))
        assert len(subs) == 4  # (9-1)/(3-1)
        assert all(h.order == 3 for h in subs)

    def test_prime_order_z2_whole_group(self):
        subs = rl.prime_order_subgroups(rl.parse_group("Z2"))
        assert [set_of(h.members) for h in subs] == [{(0,), (1,)}]

    @pytest.mark.parametrize("factors", [[6], [2, 4], [3, 3], [2, 2, 2], [12]])
    def test_all_subgroups_match_bruteforce(self, factors):
        g = rl.make_group(factors)
        got = {frozenset(set_of(h.members)) for h in rl.all_subgroups(g)}
        assert got == oracle_subgroups(factors)

    def test_enumeration_ceiling(self):
        with pytest.raises(rl.GroupError):
            rl.all_subgroups(rl.parse_group("Z128"))
        rl.all_subgroups(rl.parse_group("Z128"), max_order=128)

    def test_sorted_by_bitmap(self):
        for g in (rl.parse_group("Z12"), rl.parse_group("Z2xZ4")):
            subs = rl.all_subgroups(g)
            bits = [h.members.bits for h in subs]
            assert bits == sorted(bits)

    def test_closure_and_nonempty_up_to_64(self):
        # every prime-order Subgroup passes an explicit closure check, and by
        # Cauchy's theorem the enumeration is never empty
        for g in rl.abelian_groups_up_to(64, min_order=2):
            pord = rl.prime_order_subgroups(g)
            assert pord, g
            for h in pord:
                assert rl.is_subgroup_set(h.members), (g, set_of(h.members))
                assert h.order * (g.order // h.order) == g.order
                assert set_of(h.members.negate()) == set_of(h.members)


class TestSubgroupType:
    def test_from_set_rejects_non_closed(self):
        g = rl.parse_group("Z6")
        with pytest.raises(rl.GroupError):
            rl.Subgroup.from_set(rl.parse_set(g, "{0,1}"))
        with pytest.raises(rl.GroupError):
            rl.Subgroup.from_set(rl.parse_set(g, "{3}"))  # no identity

    def test_from_set_accepts_subgroup(self):
        g = rl.parse_group("Z6")
        h = rl.Subgroup.from_set(rl.parse_set(g, "{0,3}"))
        assert h.order == 2
