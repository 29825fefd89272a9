from __future__ import annotations

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import rsumlab as rl
from rsumlab import _masks, bounds
from rsumlab.bounds import BoundKind
from rsumlab.groups import IndexTable
from rsumlab.sets import plan_a_masks, plan_b_masks, plan_s_masks
from conftest import o_add, o_elements, o_perm, o_scale, perm_mask_table, set_of, size_rows


def S(g, text):
    return rl.parse_set(g, text)


def sets_of_size(g, k):
    return rl.ElementSet.from_indices(g, range(k))


def scalar_over_sizes(plan, cfg, sizes):
    """The scalar path over the |A| sizes ``sizes`` of ``plan``, in one shard.

    The kernel deals whole |A| sizes to shards, so this is what one of its
    shards must give: one plan per size, counts summed, collectors merged.
    """
    cfg = dataclasses.replace(cfg, force_scalar=True)
    res = bounds._ShardResult(bounds._TopK(cfg.max_witnesses), bounds._TopK(cfg.max_witnesses))
    for m in sizes:
        one = bounds._shard_worker((dataclasses.replace(plan, a_min=m, a_max=m), cfg, 0, 1))
        res.evaluated += one.evaluated
        res.pruned += one.pruned
        res.triples += one.triples
        res.violations.merge(one.violations)
        res.tight.merge(one.tight)
    return res


def raise_rhs(monkeypatch, kind, by):
    """Raise ``kind``'s rhs by ``by``, in the catalog and in the ``info`` cached on the member."""
    info = dataclasses.replace(kind.info, c0=kind.info.c0 + by)
    monkeypatch.setitem(bounds._KIND_INFO, kind, info)
    monkeypatch.setitem(vars(kind), "info", info)


def unit_group(g):
    """The units mod the exponent of g: x -> u*x is an automorphism exactly for these."""
    e = math.lcm(*g.factors)
    return [u for u in range(1, e) if math.gcd(u, e) == 1]


def unit_subgroups(g):
    """Every subgroup of ``unit_group(g)``, as ascending tuples."""
    e = math.lcm(*g.factors)
    units = unit_group(g)
    subsets = ((1, *rest) for r in range(len(units))
               for rest in itertools.combinations(units[1:], r))
    return [h for h in subsets if all(u * v % e in h for u in h for v in h)]


def scaled_masks(g, u):
    """P[m] = mask of u*m for every mask m, by tuple arithmetic."""
    f = g.factors
    return perm_mask_table(o_perm(f, lambda e: o_scale(f, u, e)))


def affine_orbit_reps(g, units):
    """rep[m] = the least mask of u*m + y over u in ``units`` and y in g, by tuple arithmetic."""
    f = g.factors
    return np.minimum.reduce([
        perm_mask_table(o_perm(f, lambda e, u=u, y=y: o_add(f, o_scale(f, u, e), y)))
        for u in units for y in o_elements(f)])


def kernel_sizes(plan, shard_index, shard_count):
    """The |A| sizes the kernel deals to a shard."""
    return range(plan.a_min + shard_index, plan.a_max + 1, shard_count)


class TestBoundValue:
    def test_thm1_saturates_at_p(self):
        assert rl.bound_value(BoundKind.THM1, 10, 12, 3, 13) == 13

    def test_pansun_linear(self):
        assert rl.bound_value(BoundKind.PAN_SUN, 3, 3, 1, 7) == 3

    def test_negative_rhs_not_clamped(self):
        assert rl.bound_value(BoundKind.THM1, 2, 2, 2, 5) == -2

    def test_other_formulas(self):
        assert rl.bound_value(BoundKind.CAUCHY_DAVENPORT, 3, 4, 0, 7) == 6
        assert rl.bound_value(BoundKind.ERDOS_HEILBRONN, 3, 3, 0, 5) == 3
        assert rl.bound_value(BoundKind.ANR, 2, 4, 0, 7) == 4
        assert rl.bound_value(BoundKind.BALISTER_WHEELER, 4, 4, 0, 3) == 3
        assert rl.bound_value(BoundKind.PRIME_POWER_S, 4, 4, 1, 2) == 2


K = BoundKind

# one passing and one failing triple per hypothesis field of the catalog:
# kind, group, |A|, |B|, |S|, gamma, first failed hypothesis ("" = applicable)
HYPOTHESIS_TABLE = [
    (K.PAN_SUN, "Z7", 2, 3, 1, None, ""),
    (K.PAN_SUN, "Z2xZ2", 1, 1, 1, None, "group not prime cyclic"),
    (K.PRIME_POWER_S, "Z9", 2, 2, 1, None, ""),
    (K.PRIME_POWER_S, "Z3xZ3", 2, 2, 1, None, "group not a cyclic prime power"),
    (K.ERDOS_HEILBRONN, "Z7", 3, 3, 0, None, ""),
    (K.ERDOS_HEILBRONN, "Z7", 3, 2, 0, None, "A != B"),
    (K.ANR, "Z7", 2, 3, 0, None, ""),
    (K.ANR, "Z7", 2, 2, 0, None, "|A| = |B|"),
    (K.THM1, "Z7", 2, 2, 1, None, ""),
    (K.THM1, "Z7", 2, 2, 0, None, "S is empty"),
    (K.PAN_SUN, "Z5", 2, 2, 4, None, ""),
    (K.PAN_SUN, "Z5", 2, 2, 5, None, "|S| = 5 not < p = 5"),
    (K.TWISTED_PAN_SUN, "Z7", 1, 1, 1, 5, ""),
    (K.TWISTED_PAN_SUN, "Z7", 1, 1, 1, None, "gamma missing"),
    (K.TWISTED_PAN_SUN, "Z7", 1, 1, 1, 7, "gamma = 0 excluded"),
    (K.TWISTED_PAN_SUN, "Z7", 1, 1, 1, 6, "gamma = -1 excluded"),
    (K.THM2, "Z31", 23, 25, 2, None, ""),
    (K.THM2, "Z31", 22, 25, 2, None, "min(|A|,|B|) = 22 < 9|S|^2-5|S|-3 = 23"),
    (K.PROP34, "Z25", 19, 19, 2, None, ""),
    (K.PROP34, "Z25", 19, 18, 2, None, "min(|A|,|B|) = 18 < 6|S|^2-5 = 19"),
]


class TestApplicability:
    @pytest.mark.parametrize("kind,name,m,k,h,gamma,reason", HYPOTHESIS_TABLE)
    def test_hypothesis_table(self, kind, name, m, k, h, gamma, reason):
        g = rl.parse_group(name)
        a, b, s = sets_of_size(g, m), sets_of_size(g, k), sets_of_size(g, h)
        assert rl.applicability(kind, g, a, b, s, gamma) == (not reason, reason)
        # the sweep kernel reads the same rule, per |B|
        vec = bounds._applicable_vector(kind, g, m, h, gamma, np.array([k]))
        assert (vec is not None and bool(vec[0])) is (not reason)

    def test_thm2_threshold(self):
        g = rl.parse_group("Z31")
        a = sets_of_size(g, 25)
        s = sets_of_size(g, 2)
        ok, reason = rl.applicability(BoundKind.THM2, g, a, a, s)
        assert ok, reason  # floor 9*4 - 10 - 3 = 23 <= 25
        ok, reason = rl.applicability(BoundKind.THM2, g, sets_of_size(g, 22), a, s)
        assert not ok and "22" in reason and "23" in reason

    def test_pansun_needs_prime_cyclic(self):
        g = rl.parse_group("Z2xZ2")
        a = S(g, "{(0,0)}")
        ok, reason = rl.applicability(BoundKind.PAN_SUN, g, a, a, a)
        assert not ok
        assert reason == "group not prime cyclic"

    def test_twisted_gamma_boundaries(self):
        g = rl.parse_group("Z7")
        a, s = S(g, "{0}"), S(g, "{1}")
        ok, reason = rl.applicability(BoundKind.TWISTED_PAN_SUN, g, a, a, s, gamma=6)
        assert not ok and "-1" in reason
        ok, reason = rl.applicability(BoundKind.TWISTED_PAN_SUN, g, a, a, s, gamma=7)
        assert not ok and "0" in reason
        ok, _ = rl.applicability(BoundKind.TWISTED_PAN_SUN, g, a, a, s, gamma=5)
        assert ok

    def test_equal_sets_and_anr(self):
        g = rl.parse_group("Z7")
        a, b = S(g, "{0,1}"), S(g, "{0,2}")
        s = rl.ElementSet.empty(g)
        assert not rl.applicability(BoundKind.ERDOS_HEILBRONN, g, a, b, s)[0]
        assert rl.applicability(BoundKind.ERDOS_HEILBRONN, g, a, a, s)[0]
        assert not rl.applicability(BoundKind.ANR, g, a, b, s)[0]  # equal sizes
        assert rl.applicability(BoundKind.ANR, g, a, S(g, "{0,2,3}"), s)[0]

    def test_ppow_group_shape(self):
        s1 = lambda g: S(g, "{0}") if g.rank == 1 else S(g, "{(0,0)}")
        for name, expect in (("Z9", True), ("Z16", True), ("Z3xZ3", False), ("Z6", False)):
            g = rl.parse_group(name)
            a = s1(g)
            assert rl.applicability(BoundKind.PRIME_POWER_S, g, a, a, a)[0] is expect

    def test_s_empty(self):
        g = rl.parse_group("Z7")
        a = S(g, "{0,1}")
        ok, reason = rl.applicability(BoundKind.THM1, g, a, a, rl.ElementSet.empty(g))
        assert not ok and reason == "S is empty"


class TestCheckTriple:
    def test_pansun_tight_witness(self):
        g = rl.parse_group("Z7")
        a = S(g, "{1,2,3}")
        rep = rl.check_triple(g, a, a, S(g, "{0}"), BoundKind.PAN_SUN)
        assert rep.lhs == rep.rhs == 3
        assert rep.applicable and rep.satisfied and rep.tight

    def test_thm1_tight_on_z5(self):
        g = rl.parse_group("Z5")
        a = S(g, "{0,1,2,3}")
        rep = rl.check_triple(g, a, a, S(g, "{0}"), BoundKind.THM1)
        assert rep.rhs == 5 and rep.lhs == 5
        assert rep.satisfied and rep.tight

    def test_degenerate_full_s(self):
        g = rl.parse_group("Z5")
        a = S(g, "{0,1}")
        rep = rl.check_triple(g, a, a, rl.ElementSet.full(g), BoundKind.THM1)
        assert rep.lhs == 0
        assert rep.rhs == min(2 + 2 - 15, 5) == -11
        assert rep.applicable and rep.satisfied and not rep.tight

    def test_twisted_needs_gamma(self):
        g = rl.parse_group("Z5")
        a = S(g, "{0}")
        with pytest.raises(ValueError):
            rl.check_triple(g, a, a, S(g, "{1}"), BoundKind.TWISTED_PAN_SUN)

    def test_operator_errors_propagate(self):
        g = rl.parse_group("Z6")
        a = S(g, "{0}")
        with pytest.raises(rl.GroupError):
            rl.check_triple(g, a, a, S(g, "{1}"), BoundKind.TWISTED_PAN_SUN, gamma=2)


SCALAR_VECTOR_CASES = [  # group, |A| and |B| cap, max |S|, kinds
    ("Z5", None, 2, (K.THM1, K.PAN_SUN, K.THM2)),
    ("Z2xZ4", 4, 1, (K.THM1, K.KNESER_CD, K.BALISTER_WHEELER)),
    ("Z7", 4, 1, (K.TWISTED_PAN_SUN,)),
    ("Z8", 3, 1, (K.PRIME_POWER_S, K.PROP34, K.KAROLYI)),
    ("Z5", None, 1, (K.CAUCHY_DAVENPORT, K.ERDOS_HEILBRONN, K.ANR)),
    # the group hypotheses fail; alone these kinds plan no check that applies
    ("Z6", 2, 2, (K.CAUCHY_DAVENPORT, K.ERDOS_HEILBRONN, K.ANR, K.PAN_SUN, K.PRIME_POWER_S,
                  K.PROP34, K.KNESER_CD)),
    ("Z3xZ3", 3, 1, (K.PRIME_POWER_S, K.PROP34, K.THM2)),
]


class TestExhaustiveVerify:
    def test_z7_pansun_thm1_no_violations(self):
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        summary = rl.exhaustive_verify(plan, [BoundKind.PAN_SUN, BoundKind.THM1])
        assert summary.violation_count == 0 and summary.ok
        assert summary.triples_checked == 127 * 127 * 7

    def test_z2xz4_thm1(self):
        g = rl.parse_group("Z2xZ4")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=2)
        assert rl.exhaustive_verify(plan, [BoundKind.THM1]).violation_count == 0

    def test_z9_ppow(self):
        g = rl.parse_group("Z9")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=2)
        assert rl.exhaustive_verify(plan, [BoundKind.PRIME_POWER_S]).violation_count == 0

    @pytest.mark.parametrize("name,cap,smax,kinds", SCALAR_VECTOR_CASES)
    def test_scalar_and_vector_paths_agree(self, monkeypatch, name, cap, smax, kinds):
        _assert_paths_agree(monkeypatch, name, cap, smax, kinds)

    def test_scalar_and_vector_paths_agree_at_gamma_minus_one(self, monkeypatch):
        # gamma = 6 is -1 on Z7: a sweep refuses it, since no twisted check
        # applies there, but a counterexample search drops the hypotheses
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, a_max=3, s_min=0, s_max=1)

        def search(**kw):
            return [r.to_row() for r in rl.search_witnesses(
                plan, K.TWISTED_PAN_SUN, "counterexample", gammas=[2, 6],
                max_witnesses=10 ** 6, **kw)]

        slow = search(force_scalar=True)
        assert {row["gamma"] for row in slow} == {6}  # the bound holds at gamma = 2
        assert search() == slow
        for rows in (1, 3):
            with monkeypatch.context() as mp:
                mp.setattr(bounds, "_CHUNK_BYTES", _chunk_budget(g, rows))
                assert search() == slow, rows

    def test_scalar_and_vector_paths_agree_at_gamma_one(self, monkeypatch):
        # twisted at gamma = 1 reads the general operator's (S, gamma), so
        # the scalar path serves it and thm1 from one evaluation
        kinds = (K.TWISTED_PAN_SUN, K.THM1, K.PAN_SUN)
        _assert_paths_agree(monkeypatch, "Z7", 2, 2, kinds, gammas=[1, 3])

    # Z13: plain, restricted, general, and twisted at 2 and at 3; Z2xZ6 has
    # no twisted checks.  A check per (kind, gamma) makes 13 and 11.
    @pytest.mark.parametrize("name,per_triple", [("Z13", 5), ("Z2xZ6", 3)])
    def test_scalar_path_evaluates_each_operator_once_per_triple(
        self, monkeypatch, name, per_triple
    ):
        calls = []
        pair_sums = bounds.pair_sums

        def counting(g, abits, bbits, rules):
            calls.append(list(rules))
            return pair_sums(g, abits, bbits, rules)

        def check_triple(*args):
            raise AssertionError("the scalar sweep must not check one (kind, gamma) at a time")

        monkeypatch.setattr(bounds, "pair_sums", counting)
        monkeypatch.setattr(bounds, "check_triple", check_triple)
        g = rl.parse_group(name)
        plan = rl.EnumerationPlan(
            group=g, mode="sampled", sample_count=200, seed=5, s_min=1, s_max=3
        )
        summary = rl.exhaustive_verify(plan, bounds.ALL_KINDS, gammas=(2, 3))
        assert summary.triples_checked == 200
        # every triple has a live kneser check, so each makes exactly one call
        assert len(calls) == summary.triples_checked
        assert all(0 < len(set(rules)) == len(rules) <= per_triple for rules in calls)

    def test_scalar_path_translates_per_b_and_rule_not_per_pair(self, monkeypatch):
        # above order 20 only the scalar path runs; its work per triple must
        # not grow with |A| or |G|: |B| translates b + A, and |B| more per rule
        # whose S is non-empty
        translate = IndexTable.translate
        counts = []

        def counting_translate(self, bits, j):
            counts[-1] += 1
            return translate(self, bits, j)

        pair_sums = bounds.pair_sums
        calls = []

        def counting(g, abits, bbits, rules):
            counts.append(0)
            out = pair_sums(g, abits, bbits, rules)
            calls.append((bbits.bit_count(), sum(1 for sbits, _ in rules if sbits)))
            return out

        monkeypatch.setattr(IndexTable, "translate", counting_translate)
        monkeypatch.setattr(bounds, "pair_sums", counting)
        g = rl.parse_group("Z1009")
        plan = rl.EnumerationPlan(group=g, mode="sampled", sample_count=60, seed=3,
                                  a_max=12, b_max=6, s_min=0, s_max=3)
        summary = rl.exhaustive_verify(plan, bounds.ALL_KINDS, gammas=(2, 3))
        assert len(calls) == summary.triples_checked == 60
        for made, (b_size, s_rules) in zip(counts, calls):
            assert made <= b_size * (1 + s_rules)

    def test_scalar_and_vector_agree_canonicalized(self):
        g = rl.parse_group("Z6")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=2, canonicalize=True)
        kinds = (BoundKind.THM1, BoundKind.KNESER_CD)
        fast = rl.exhaustive_verify(plan, kinds)
        slow = rl.exhaustive_verify(plan, kinds, force_scalar=True)
        assert fast.to_json(include_timing=False) == slow.to_json(include_timing=False)

    def test_shard_count_independence(self):
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        outs = {
            rl.exhaustive_verify(plan, [BoundKind.PAN_SUN], shard_count=k).to_json(
                include_timing=False
            )
            for k in (1, 2, 8)
        }
        assert len(outs) == 1

    def test_work_ceiling(self):
        g = rl.parse_group("Z16")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=3)
        with pytest.raises(rl.WorkCeilingExceeded):
            rl.exhaustive_verify(plan, [BoundKind.PRIME_POWER_S])

    def test_prune_preserves_violation_report(self):
        for name, kind in (("Z8", BoundKind.PRIME_POWER_S), ("Z9", BoundKind.THM1)):
            g = rl.parse_group(name)
            n = g.order
            plan = rl.EnumerationPlan(group=g, s_min=1, s_max=2)
            pruned = rl.exhaustive_verify(plan, [kind], prune=True)
            plain = rl.exhaustive_verify(plan, [kind], collect_tight=False)
            assert pruned.violation_count == plain.violation_count == 0
            assert plain.triples_checked == plan.count_triples()
            # a pruned sweep counts only the triples of the classes it evaluated
            kept = sum(
                math.comb(n, m) * math.comb(n, h) * plan.b_count()
                for m in range(1, n + 1) for h in (1, 2)
                if not bounds._prunable(kind, m, h, plan, g.least_prime)
            )
            assert 0 < pruned.triples_checked == kept < plain.triples_checked

    def test_tight_implies_satisfied_and_reports_capped_sorted(self):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        summary = rl.exhaustive_verify(plan, [BoundKind.PAN_SUN], max_witnesses=10)
        assert len(summary.tight) == 10 <= summary.tight_count
        keys = [(r.a.bits, r.b.bits, r.s.bits) for r in summary.tight]
        assert keys == sorted(keys)
        for rep in summary.tight:
            assert rep.satisfied and rep.tight and rep.applicable
            # independent recomputation
            again = rl.check_triple(g, rep.a, rep.b, rep.s, rep.kind, rep.gamma)
            assert (again.lhs, again.rhs, again.tight) == (rep.lhs, rep.rhs, True)

    def test_witness_cap_matches_global_sort(self, monkeypatch):
        # a harvest keeps at most the first cap hits of each table, so every
        # cap, chunk size and shard count must still give the global prefix
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        big = rl.exhaustive_verify(plan, [BoundKind.PAN_SUN], max_witnesses=10 ** 6)
        assert big.tight_count == len(big.tight)
        # its rows start with A masks 3, 5, 6 (|A| = 2), then 7 (|A| = 3),
        # then 9 and 10: at caps 20 and 40 an |A| = 3 mask displaces rows
        # harvested at |A| = 2
        for cap in (1, 7, 20, 40):
            want = [r.to_row() for r in big.tight[:cap]]
            for rows in (None, 1, 3):
                for shards in (1, 3):
                    with monkeypatch.context() as mp:
                        if rows:
                            mp.setattr(bounds, "_CHUNK_BYTES", _chunk_budget(g, rows))
                        small = rl.exhaustive_verify(plan, [BoundKind.PAN_SUN],
                                                     max_witnesses=cap, shard_count=shards)
                    assert [r.to_row() for r in small.tight] == want, (cap, rows, shards)
                    assert small.tight_count == big.tight_count

    def test_duality_consistency_of_lhs(self):
        # |A +_S B| = |(-B) +_S (-A)| triple-for-triple on swept kinds
        g = rl.parse_group("Z6")
        plan = rl.EnumerationPlan(group=g, a_max=3, b_max=3, s_min=1, s_max=1)
        for kind in (BoundKind.THM1, BoundKind.KNESER_CD, BoundKind.BALISTER_WHEELER):
            for a, b, s in rl.enumerate_triples(plan, shard_index=0, shard_count=11):
                lhs = rl.check_triple(g, a, b, s, kind).lhs
                dual = rl.check_triple(g, b.negate(), a.negate(), s, kind).lhs
                assert lhs == dual

    def test_sampled_mode(self):
        g = rl.parse_group("Z12")
        plan = rl.EnumerationPlan(
            group=g, mode="sampled", sample_count=300, seed=3, s_min=1, s_max=2
        )
        s1 = rl.exhaustive_verify(plan, [BoundKind.THM1, BoundKind.KNESER_CD])
        s2 = rl.exhaustive_verify(plan, [BoundKind.THM1, BoundKind.KNESER_CD])
        assert s1.violation_count == 0
        assert s1.to_json(include_timing=False) == s2.to_json(include_timing=False)
        assert s1.triples_checked == 300

    def test_threads_match_sequential(self):
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        seq = rl.exhaustive_verify(plan, [BoundKind.PAN_SUN], shard_count=4)
        par = rl.exhaustive_verify(plan, [BoundKind.PAN_SUN], shard_count=4, threads=4)
        assert seq.to_json(include_timing=False) == par.to_json(include_timing=False)

    @pytest.mark.parametrize("force_scalar", [False, True])
    def test_duplicate_kinds_count_once(self, force_scalar):
        # a kind listed twice is checked once, at its first place
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        thm1, pansun = BoundKind.THM1, BoundKind.PAN_SUN
        once, twice = (
            rl.exhaustive_verify(plan, kinds, max_witnesses=2, force_scalar=force_scalar)
            for kinds in ([thm1, pansun], [thm1, pansun, thm1, thm1])
        )
        assert twice.to_json(include_timing=False) == once.to_json(include_timing=False)
        assert twice.kinds == (thm1, pansun)
        assert twice.checks_planned == 2 * 4805


class TestShardAccounting:
    @pytest.mark.parametrize("shard_count,threads", [(0, 1), (-1, 1), (1, 0), (2, -2)])
    def test_nonpositive_shards_or_threads_rejected(self, shard_count, threads):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=0, s_max=0)
        with pytest.raises(ValueError):
            rl.exhaustive_verify(plan, [BoundKind.ANR], shard_count=shard_count,
                                 threads=threads)
        with pytest.raises(ValueError):
            rl.search_witnesses(plan, BoundKind.ANR, "counterexample",
                                shard_count=shard_count, threads=threads)

    @pytest.mark.parametrize("force_scalar", [False, True])
    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("shard_count", [1, 2, 3])
    def test_shards_account_for_every_planned_check(self, shard_count, prune, force_scalar):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, a_max=2, b_max=3, s_min=1, s_max=2)
        kinds = (BoundKind.THM1, BoundKind.TWISTED_PAN_SUN, BoundKind.KAROLYI)
        summary = rl.exhaustive_verify(plan, kinds, gammas=[2, 3], prune=prune,
                                       shard_count=shard_count, force_scalar=force_scalar)
        cfg = bounds._SweepConfig(
            kinds=kinds, gammas=(2, 3), collect_violations=True, collect_tight=False,
            ignore_applicability=False, max_witnesses=10, prune=prune,
            force_scalar=force_scalar,
        )
        shards = [bounds._shard_worker((plan, cfg, i, shard_count))
                  for i in range(shard_count)]
        for i, r in enumerate(shards):
            if force_scalar or kernel_sizes(plan, i, shard_count):
                assert r.evaluated > 0  # some classes survive pruning
            else:  # the kernel deals whole sizes: at a_max = 2 a third shard owns none
                assert r.evaluated == r.pruned == 0
        total = sum(r.evaluated + r.pruned for r in shards)
        assert total == summary.checks_planned == plan.count_triples() * 4
        pruned = sum(r.pruned for r in shards)
        assert (pruned > 0) == prune
        assert sum(r.triples for r in shards) == summary.triples_checked

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("name,b_max,kinds,gammas", [
        ("Z5", 3, (K.THM1, K.KAROLYI, K.BALISTER_WHEELER), ()),
        ("Z2xZ4", 2, (K.THM1, K.PAN_SUN, K.KNESER_CD, K.BALISTER_WHEELER), ()),
        ("Z5", 3, (K.TWISTED_PAN_SUN, K.THM1), (2, 3)),
    ])
    def test_each_shard_agrees_across_paths(self, name, b_max, kinds, gammas, prune):
        # each kernel shard's counts and witnesses agree with the scalar path
        # over exactly that shard's |A| sizes, not only the merged summary
        g = rl.parse_group(name)
        plan = rl.EnumerationPlan(group=g, a_max=3, b_max=b_max, s_min=0, s_max=2)
        cfg = bounds._SweepConfig(
            kinds=kinds, gammas=gammas, collect_violations=True, collect_tight=not prune,
            ignore_applicability=False, max_witnesses=10 ** 6, prune=prune,
            force_scalar=False,
        )

        def summary(r):
            return (r.evaluated, r.pruned, r.triples, r.violations.total, r.tight.total,
                    r.violations.sorted_payloads(), r.tight.sorted_payloads())

        fast = [summary(bounds._shard_worker((plan, cfg, i, 3))) for i in range(3)]
        slow = [summary(scalar_over_sizes(plan, cfg, kernel_sizes(plan, i, 3)))
                for i in range(3)]
        assert fast == slow
        assert len({shard[0] for shard in fast}) > 1  # the shards differ

    @pytest.mark.parametrize("name,kind,s_min,s_max", [
        ("Z14", K.BALISTER_WHEELER, 0, 0),
        ("Z10", K.THM1, 1, 2),
    ])
    def test_table_work_does_not_grow_with_shards(self, monkeypatch, name, kind, s_min, s_max):
        # the kernel deals whole |A| sizes, so one shard builds each size's
        # key map and class tables, whatever the shard count
        rows, plans = [], []
        build, size_class = _masks.size_table_batch, bounds._size_class
        monkeypatch.setattr(_masks, "size_table_batch",
                            lambda cmasks, n: rows.append(len(cmasks)) or build(cmasks, n))
        monkeypatch.setattr(bounds, "_size_class",
                            lambda *args: plans.append(args[2:]) or size_class(*args))
        plan = rl.EnumerationPlan(group=rl.parse_group(name), s_min=s_min, s_max=s_max)
        work = {}
        for shards in (1, 2, 3, 8):
            rows.clear()
            plans.clear()
            rl.exhaustive_verify(plan, [kind], max_witnesses=0, shard_count=shards)
            work[shards] = (sum(rows), len(plans))
        assert work[1][0] > 0
        assert len(set(work.values())) == 1, work

    def test_gamma_minus_one_raises(self):
        # no twisted check applies at gamma = -1, so a sweep of it would be
        # clean work never done; a counterexample search drops the hypotheses
        for name, gammas in (("Z7", [2, 6]), ("Z7", [-1]), ("Z2", [1])):
            plan = rl.EnumerationPlan(group=rl.parse_group(name), s_min=1, s_max=1)
            with pytest.raises(ValueError, match="is -1 modulo"):
                rl.exhaustive_verify(plan, [K.TWISTED_PAN_SUN], gammas=gammas)
            with pytest.raises(ValueError, match="is -1 modulo"):
                rl.search_witnesses(plan, K.TWISTED_PAN_SUN, "tight", gammas=gammas)
            rl.search_witnesses(plan, K.TWISTED_PAN_SUN, "counterexample", gammas=gammas)

    def test_zero_planned_checks_raise(self):
        # the twisted bound has no gammas off Z_p, so alone it plans no checks
        g = rl.parse_group("Z6")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        with pytest.raises(ValueError, match="no checks planned"):
            rl.exhaustive_verify(plan, [K.TWISTED_PAN_SUN], gammas=[2])
        for mode in ("tight", "counterexample"):
            with pytest.raises(ValueError, match="no checks planned"):
                rl.search_witnesses(plan, K.TWISTED_PAN_SUN, mode, gammas=[2])
        # alongside another kind it contributes nothing and the sweep runs
        summary = rl.exhaustive_verify(plan, [K.THM1, K.TWISTED_PAN_SUN], gammas=[2])
        assert summary.checks_planned == plan.count_triples()

    def test_negative_max_witnesses_raise(self):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        with pytest.raises(ValueError, match="max_witnesses"):
            rl.exhaustive_verify(plan, [K.THM1], max_witnesses=-3)
        for mode in ("tight", "counterexample"):
            with pytest.raises(ValueError, match="max_witnesses"):
                rl.search_witnesses(plan, K.ANR, mode, max_witnesses=-1)
        # zero keeps the counts and lists no rows
        full = rl.exhaustive_verify(plan, [K.PAN_SUN])
        bare = rl.exhaustive_verify(plan, [K.PAN_SUN], max_witnesses=0)
        assert bare.tight_count == full.tight_count > 0
        assert bare.tight == bare.violations == []
        assert rl.search_witnesses(plan, K.PAN_SUN, max_witnesses=0) == []

    def test_lost_checks_raise(self, monkeypatch):
        honest = bounds._vector_shard

        def lossy(*args):
            res = honest(*args)
            res.evaluated -= 1
            return res

        monkeypatch.setattr(bounds, "_vector_shard", lossy)
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        with pytest.raises(RuntimeError, match="planned|plan has"):
            rl.exhaustive_verify(plan, [BoundKind.THM1])


class TestPruneFloor:
    @pytest.mark.parametrize("name", ["Z5", "Z6", "Z2xZ4"])
    def test_floor_is_at_most_every_class_minimum(self, name):
        # --prune skips a class when _min_lhs_floor meets the largest rhs, so the
        # floor must be a lower bound on lhs in every (|A|, |B|, |S|) class;
        # checked exhaustively for |S| <= 2, |S| = 0 included
        g = rl.parse_group(name)
        t = _masks.tables_for(g)
        n = g.order
        gammas = range(1, n) if g.is_prime_cyclic else ()
        # the (S, gamma) each operator reads, from its definition: A + B is
        # A +_{} B and the restricted sumset is A +_{0} B
        reads = {
            bounds.Operator.PLAIN: lambda smask: [(0, 1)],
            bounds.Operator.RESTRICTED: lambda smask: [(1, 1)],
            bounds.Operator.GENERAL: lambda smask: [(smask, 1)],
            bounds.Operator.TWISTED: lambda smask: [(smask, gm) for gm in gammas],
        }
        s_masks = [smask for smask in range(1 << n) if smask.bit_count() <= 2]
        order = np.argsort(t.pops, kind="stable")  # B masks by size
        starts = np.searchsorted(t.pops[order], np.arange(n + 1))
        amasks = np.arange(1, 1 << n)
        least = {op: np.full((n + 1, 3, n + 1), n + 1) for op in reads}  # [|A|, |S|, |B|]
        for op, read in reads.items():
            rows = [(smask.bit_count(), sg) for smask in s_masks for sg in read(smask)]
            if not rows:
                continue
            lhs = size_rows(t, amasks, [sg for _, sg in rows])[:, :, order]
            by_size = np.minimum.reduceat(lhs, starts, axis=2)  # min over B of each size
            for (h, _), row in zip(rows, by_size):
                np.minimum.at(least[op], (t.pops[amasks], h), row)
        # twisted has no checks off Z_p
        kinds = [k for k in BoundKind if gammas or k.operator is not bounds.Operator.TWISTED]
        for kind in kinds:
            for m in range(1, n + 1):
                for b in range(1, n + 1):
                    for h in range(3):
                        floor = bounds._min_lhs_floor(kind, m, b, h)
                        assert floor <= least[kind.operator][m, h, b], (kind, m, b, h)


def _chunk_budget(g, rows):
    """A _CHUNK_BYTES value that gives chunks of `rows` A masks on group g."""
    return rows * (_masks.plane_count(g.order) << g.order)


def _assert_paths_agree(monkeypatch, name, cap, smax, kinds, gammas=None):
    """The vector kernel gives the scalar path's JSON, also with small chunks."""
    g = rl.parse_group(name)
    plan = rl.EnumerationPlan(group=g, a_max=cap, b_max=cap, s_min=0, s_max=smax)
    fast = rl.exhaustive_verify(plan, kinds, gammas=gammas)
    slow = rl.exhaustive_verify(plan, kinds, gammas=gammas, force_scalar=True)
    assert fast.to_json(include_timing=False) == slow.to_json(include_timing=False)
    # every case fits one chunk per size class; shrink the budget so the
    # size classes span several chunks, with a partial last one
    for rows in (1, 3):
        monkeypatch.setattr(bounds, "_CHUNK_BYTES", _chunk_budget(g, rows))
        assert bounds._chunk_rows(g.order) == rows
        small = rl.exhaustive_verify(plan, kinds, gammas=gammas)
        assert small.to_json(include_timing=False) == slow.to_json(include_timing=False)


class TestChunkBoundaries:
    """Shrink the chunk budget so size classes span several chunks."""

    def test_small_chunks_counterexample_search(self, monkeypatch):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=0, s_max=2)
        for kind in (BoundKind.ANR, BoundKind.ERDOS_HEILBRONN, BoundKind.THM2):
            slow = [r.to_row() for r in rl.search_witnesses(
                plan, kind, "counterexample", force_scalar=True, max_witnesses=10 ** 6)]
            for cap in (1, 3, rl.DEFAULT_MAX_WITNESSES):
                default = [r.to_row() for r in
                           rl.search_witnesses(plan, kind, "counterexample", max_witnesses=cap)]
                assert default == slow[:cap], (kind, cap)
                for rows in (1, 3):
                    with monkeypatch.context() as mp:
                        mp.setattr(bounds, "_CHUNK_BYTES", _chunk_budget(g, rows))
                        small = rl.search_witnesses(plan, kind, "counterexample",
                                                    max_witnesses=cap)
                    assert [r.to_row() for r in small] == slow[:cap], (kind, cap, rows)

    def test_small_chunks_prune(self, monkeypatch):
        g = rl.parse_group("Z8")
        plan = rl.EnumerationPlan(group=g, a_max=3, b_max=3, s_min=1, s_max=1,
                                  canonicalize=True)
        kinds = (BoundKind.PRIME_POWER_S, BoundKind.PROP34, BoundKind.THM1)
        default = rl.exhaustive_verify(plan, kinds, prune=True).to_json(include_timing=False)
        slow = rl.exhaustive_verify(plan, kinds, prune=True, force_scalar=True).to_json(
            include_timing=False)
        assert default == slow
        for rows in (1, 3):
            monkeypatch.setattr(bounds, "_CHUNK_BYTES", _chunk_budget(g, rows))
            small = rl.exhaustive_verify(plan, kinds, prune=True)
            assert small.to_json(include_timing=False) == slow

    def test_pruned_sizes_build_no_translates(self, monkeypatch):
        # the kernel plans every (|A|, |S|) class first and walks the A chunks
        # of a size only when some class of it is still evaluated
        g = rl.parse_group("Z8")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=2, canonicalize=True,
                                  canonicalize_s=True)
        kinds = (BoundKind.PRIME_POWER_S, BoundKind.PROP34)
        cfg = bounds._SweepConfig(
            kinds=kinds, gammas=(), collect_violations=True, collect_tight=False,
            ignore_applicability=False, max_witnesses=100, prune=True, force_scalar=False,
        )
        live = {m for m in range(1, g.order + 1) for h in (1, 2)
                if bounds._size_class(plan, cfg, m, h)[1]}
        assert 0 < len(live) < g.order
        sizes = []
        honest = _masks.MaskTables.cmasks_general

        def recording(self, abits):
            sizes.extend(int(m).bit_count() for m in np.atleast_1d(abits))
            return honest(self, abits)

        monkeypatch.setattr(_masks.MaskTables, "cmasks_general", recording)
        summary = rl.exhaustive_verify(plan, kinds, prune=True)
        assert sizes and set(sizes) <= live
        monkeypatch.undo()
        slow = rl.exhaustive_verify(plan, kinds, prune=True, force_scalar=True)
        assert summary.to_json(include_timing=False) == slow.to_json(include_timing=False)

    def test_key_batches(self, monkeypatch):
        """An |A|'s count keys built in one batch, in several, and one per batch.

        ``--bound all`` on Z7 with two gammas mixes all four operators in one
        sweep: every |S| class of an |A| shares its S = {} and S = {0} keys,
        and general and twisted checks read one key per translation class of
        S and gamma.  The counting tables are built once per (translation
        class of A, count key) whatever the batching; the witness rows stay
        within cap per (S, gamma) key.
        """
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, a_max=2, b_max=2, s_min=0, s_max=2)
        kinds, gammas = bounds.ALL_KINDS, [2, 3]

        def run(**kw):
            return rl.exhaustive_verify(plan, kinds, gammas=gammas, **kw)

        build = _masks.size_table_batch
        # whole classes in one chunk each: every key of a class in one batch,
        # then 4 keys of a 3-row chunk per batch; last, one row and one key
        budgets = (1 << 30, _chunk_budget(g, 4 * 3), _chunk_budget(g, 1))
        caps = (0, 5)
        rows_per_call = {}
        for cap in caps:
            slow = run(force_scalar=True, max_witnesses=cap)
            assert slow.violation_count == 0  # only the tight collector picks A masks
            for budget in budgets:
                rows = []
                with monkeypatch.context() as mp:
                    mp.setattr(bounds, "_CHUNK_BYTES", budget)
                    mp.setattr(_masks, "size_table_batch",
                               lambda cmasks, n: rows.append(len(cmasks)) or build(cmasks, n))
                    fast = run(max_witnesses=cap)
                assert fast.to_json(include_timing=False) == slow.to_json(include_timing=False)
                rows_per_call[cap, budget] = rows
        one, several, single = (rows_per_call[0, budget] for budget in budgets)
        assert len(one) < len(several) < len(single)
        assert max(one) > 4 * 3 and max(several) == 4 * 3 and set(single) == {1}
        # one counting row per translation class of A and count key that some
        # check reads: the operator's (S, gamma) at the least translate of S
        p = g.least_prime
        rep = _masks.tables_for(g).translation_rep
        pairs, keys = set(), set()
        for amask in range(1 << g.order):
            m = amask.bit_count()
            for smask in range(1 << g.order):
                h = smask.bit_count()
                if not (plan.a_min <= m <= plan.a_max and plan.s_min <= h <= plan.s_max):
                    continue
                for kind in kinds:
                    for gamma in gammas if kind.operator is bounds.Operator.TWISTED else [None]:
                        if any(not bounds._failed_hypothesis(kind, g, m, k, h, gamma)
                               and bounds.bound_value(kind, m, k, h, p) >= 0
                               for k in range(plan.b_min, plan.b_max + 1)):
                            pairs.add((int(rep[amask]),
                                       bounds._operator_s_gamma(kind, int(rep[smask]), gamma)))
                            keys.add(bounds._operator_s_gamma(kind, smask, gamma))
        assert sum(one) == sum(several) == sum(single) == len(pairs)
        for budget in budgets:
            witness_rows = sum(rows_per_call[caps[1], budget]) - len(pairs)
            assert 0 < witness_rows <= caps[1] * len(keys), budget


class TestViolationsAndTightInOneTable:
    """With thm1's rhs raised by 2, one table holds both violations and tight hits.

    No true bound gives such a table, so this is the one place where the
    kernel's single lhs <= rhs pass is split into both collectors.
    """

    @pytest.fixture(autouse=True)
    def raised_thm1(self, monkeypatch):
        raise_rhs(monkeypatch, K.THM1, 2)

    @pytest.mark.parametrize("name,cap", [("Z5", None), ("Z2xZ4", 2)])
    def test_vector_matches_scalar(self, monkeypatch, name, cap):
        g = rl.parse_group(name)
        plan = rl.EnumerationPlan(group=g, a_max=cap, b_max=cap, s_min=0, s_max=2)
        mixed = rl.exhaustive_verify(plan, [K.THM1])
        assert mixed.violation_count > 0 and mixed.tight_count > 0

        def search(mode, **kw):
            return json.dumps([r.to_row() for r in rl.search_witnesses(plan, K.THM1, mode, **kw)])

        runs = {
            "verify": lambda **kw: rl.exhaustive_verify(
                plan, [K.THM1], **kw).to_json(include_timing=False),
            "prune": lambda **kw: rl.exhaustive_verify(
                plan, [K.THM1], prune=True, **kw).to_json(include_timing=False),
            "tight": lambda **kw: search("tight", **kw),
            "counterexample": lambda **kw: search("counterexample", **kw),
        }
        for what, run in runs.items():
            slow = run(force_scalar=True)
            assert run() == slow, what
            for rows in (1, 3):
                with monkeypatch.context() as mp:
                    mp.setattr(bounds, "_CHUNK_BYTES", _chunk_budget(g, rows))
                    assert run() == slow, (what, rows)


class TestTranslationClasses:
    """The kernel builds one counting table per translation class of A.

    (A, B, S) -> (A + x, B + x/gamma, S) keeps the lhs, so every member of a
    class has the same hit counts over all B; witnesses are rebuilt, in the
    same pass over |A|, for the first cap A masks of that size whose
    class had a hit.
    """

    @pytest.mark.parametrize("shards", [1, 3])
    def test_one_plan_per_size_class(self, monkeypatch, shards):
        # each |A| is walked once, counting and harvesting from one key map,
        # by the one shard it is dealt to: a shard plans each (|A|, |S|)
        # class of its own sizes exactly once, and the shards each class once
        calls = []
        size_class = bounds._size_class

        def counted(*args):
            calls.append(args[2:])
            return size_class(*args)

        monkeypatch.setattr(bounds, "_size_class", counted)
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, a_max=4, s_min=0, s_max=2)
        cfg = bounds._SweepConfig(
            kinds=bounds.ALL_KINDS, gammas=(2, 3), collect_violations=True,
            collect_tight=True, ignore_applicability=False, max_witnesses=5,
            prune=False, force_scalar=False,
        )
        planned = []
        for i in range(shards):
            calls.clear()
            res = bounds._vector_shard(plan, cfg, i, shards)
            assert res.tight.heap  # the shard harvested witness rows
            assert sorted(calls) == [(m, h) for m in kernel_sizes(plan, i, shards)
                                     for h in range(3)]
            planned += calls
        assert sorted(planned) == [(m, h) for m in range(1, 5) for h in range(3)]

    @pytest.mark.parametrize("g", rl.abelian_groups_up_to(10), ids=rl.format_group)
    def test_rep_is_least_translate(self, g):
        rep = _masks.tables_for(g).translation_rep
        want = [min(rl.ElementSet(g, m).translate(x).bits for x in g.elements())
                for m in range(1 << g.order)]
        assert rep.tolist() == want

    @pytest.mark.parametrize("canonicalize,canonicalize_s",
                             [(False, False), (True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("name,a_max,b_max,s_max", [("Z7", 3, 2, 2), ("Z11", 3, 1, 1)])
    def test_each_shard_matches_scalar_twisted(self, monkeypatch, name, a_max, b_max, s_max,
                                               canonicalize, canonicalize_s):
        # twisted's rhs raised by 2, so both collectors get hits in many classes
        raise_rhs(monkeypatch, K.TWISTED_PAN_SUN, 2)
        g = rl.parse_group(name)
        plan = rl.EnumerationPlan(group=g, a_max=a_max, b_max=b_max, s_min=1, s_max=s_max,
                                  canonicalize=canonicalize, canonicalize_s=canonicalize_s)

        def config(cap):
            return bounds._SweepConfig(
                kinds=(K.TWISTED_PAN_SUN,), gammas=(2, 3, 5), collect_violations=True,
                collect_tight=True, ignore_applicability=False, max_witnesses=cap,
                prune=False, force_scalar=False,
            )

        for count in (1, 2, 3):
            # a collector of cap c keeps the c least keys, so each cap's
            # witnesses are a prefix of the uncapped ones; each kernel shard
            # is compared with the scalar path over its own |A| sizes
            slow = [scalar_over_sizes(plan, config(10 ** 6), kernel_sizes(plan, i, count))
                    for i in range(count)]
            assert all(r.violations.total and r.tight.total for r in slow)
            for cap in (0, 1, 7, 100):
                shards = [bounds._shard_worker((plan, config(cap), i, count))
                          for i in range(count)]
                for fast, want in zip(shards, slow):
                    assert (fast.evaluated, fast.pruned, fast.triples) == (
                        want.evaluated, want.pruned, want.triples)
                    for got, full in ((fast.violations, want.violations),
                                      (fast.tight, want.tight)):
                        assert got.total == full.total, (count, cap)
                        assert got.sorted_payloads() == full.sorted_payloads()[:cap], (count, cap)


class TestTranslationClassesOfS:
    """The kernel counts once per translation class of S as well.

    a - gamma*(b + y) not in S  iff  a - gamma*b not in S + gamma*y, and the
    sum moves by y, so for gamma a unit B -> B + y gives every translate of S
    the same hit counts; plain and restricted fix S, so the S masks of a size
    share one count.  Witness rows stay real triples.
    """

    CASES = {
        "Z7-twisted": ("Z7", (K.TWISTED_PAN_SUN,), (2, 3, 4, 5), "verify", 2, 2),
        "Z7-twisted-minus-one": ("Z7", (K.TWISTED_PAN_SUN,), (6,), "counterexample", 2, 2),
        "Z11-twisted": ("Z11", (K.TWISTED_PAN_SUN,), None, "verify", 2, 1),
        "Z2xZ4-all": ("Z2xZ4", bounds.ALL_KINDS, None, "verify", 2, 2),
        "Z3xZ3-all": ("Z3xZ3", bounds.ALL_KINDS, None, "verify", 2, 2),
    }

    @pytest.mark.parametrize("canonicalize,canonicalize_s",
                             [(False, False), (True, False), (False, True), (True, True)])
    @pytest.mark.parametrize("case", CASES)
    def test_vector_matches_scalar(self, monkeypatch, case, canonicalize, canonicalize_s):
        name, kinds, gammas, mode, a_max, b_max = self.CASES[case]
        # every rhs raised by 2, so both collectors get hits and a cap of 7 bites
        for kind in kinds:
            raise_rhs(monkeypatch, kind, 2)
        plan = rl.EnumerationPlan(group=rl.parse_group(name), a_max=a_max, b_max=b_max,
                                  s_min=0, s_max=2, canonicalize=canonicalize,
                                  canonicalize_s=canonicalize_s)

        def run(**kw):
            if mode == "verify":
                summary = rl.exhaustive_verify(plan, kinds, gammas=gammas, max_witnesses=7, **kw)
                assert summary.violation_count > 7 and summary.tight_count > 7
                return summary.to_json(include_timing=False)
            rows = [r.to_row() for r in rl.search_witnesses(
                plan, kinds[0], mode, gammas=gammas, max_witnesses=7, **kw)]
            assert len(rows) == 7
            return json.dumps(rows, sort_keys=True, indent=2)

        slow = run(force_scalar=True)
        for shards in (1, 3):
            assert run(shard_count=shards) == slow, shards

    @pytest.mark.parametrize("canonicalize_s", [False, True])
    @pytest.mark.parametrize("name,gammas", [("Z7", (2, 3)), ("Z2xZ4", None)])
    def test_counting_rows(self, monkeypatch, name, gammas, canonicalize_s):
        # with no witness rows to harvest, each |A| builds one row per count
        # key some check reads, the operator's (S, gamma) at the least
        # translate of S, and per orbit of A under the translations and the
        # units that map every key's S class to itself
        g = rl.parse_group(name)
        plan = rl.EnumerationPlan(group=g, a_max=3, b_max=3, s_min=0, s_max=2,
                                  canonicalize_s=canonicalize_s)
        kinds = bounds.ALL_KINDS
        twisted = gammas if g.is_prime_cyclic else ()
        p = g.least_prime

        def least(mask):
            return min(rl.ElementSet(g, mask).translate(x).bits for x in g.elements())

        scaled = {u: scaled_masks(g, u) for u in unit_group(g)}
        want = 0
        for m in range(plan.a_min, plan.a_max + 1):
            keys = set()
            for smask in plan_s_masks(plan):
                h = smask.bit_count()
                for kind in kinds:
                    for gamma in twisted if kind.operator is bounds.Operator.TWISTED else [None]:
                        if any(not bounds._failed_hypothesis(kind, g, m, k, h, gamma)
                               and bounds.bound_value(kind, m, k, h, p) >= 0
                               for k in range(plan.b_min, plan.b_max + 1)):
                            keys.add(bounds._operator_s_gamma(kind, least(smask), gamma))
            fixed = [u for u, image in scaled.items()
                     if all(least(int(image[smask])) == smask for smask, _ in keys)]
            a_orbits = {min(least(int(scaled[u][a])) for u in fixed)
                        for a in range(1 << g.order) if a.bit_count() == m}
            want += len(a_orbits) * len(keys)
        rows = []
        build = _masks.size_table_batch
        monkeypatch.setattr(_masks, "size_table_batch",
                            lambda cmasks, n: rows.append(len(cmasks)) or build(cmasks, n))
        summary = rl.exhaustive_verify(plan, kinds, gammas=gammas, max_witnesses=0)
        assert summary.tight_count > 0
        assert sum(rows) == want


class TestUnitOrbits:
    """The kernel counts once per orbit of A under translations and units.

    u(a - gamma*b) = ua - gamma*(ub), so (A, B, S) -> (uA, uB, uS) keeps the
    lhs for every unit u; each |A| pass groups its A masks by the units that
    map every S class it reads to a translate of itself.
    """

    @pytest.mark.parametrize("name", ["Z7", "Z8", "Z9", "Z10", "Z12", "Z2xZ4", "Z3xZ3"])
    def test_orbit_rep_is_least_affine_image(self, name):
        g = rl.parse_group(name)
        t = _masks.tables_for(g)
        subgroups = unit_subgroups(g)
        assert len(subgroups) > 1
        for units in subgroups:
            assert np.array_equal(t.orbit_rep(units), affine_orbit_reps(g, units)), units
        assert t.translation_rep is t.orbit_rep((1,))

    def test_counting_rows_z14_bw(self, monkeypatch):
        # bw reads the fixed S = {0}, which every unit fixes, and every |A|
        # has checks: one counting row per orbit of translations and all units
        g = rl.parse_group("Z14")
        orbits = np.unique(affine_orbit_reps(g, unit_group(g))[1:]).size
        translation_classes = np.unique(affine_orbit_reps(g, (1,))[1:]).size
        assert orbits < translation_classes
        rows = []
        build = _masks.size_table_batch
        monkeypatch.setattr(_masks, "size_table_batch",
                            lambda cmasks, n: rows.append(len(cmasks)) or build(cmasks, n))
        plan = rl.EnumerationPlan(group=g, s_min=0, s_max=0)
        rl.exhaustive_verify(plan, [K.BALISTER_WHEELER], max_witnesses=0)
        assert sum(rows) == orbits

    @pytest.mark.parametrize("g,kinds,b_max", [
        *((g, bounds.ALL_KINDS, 2) for g in rl.abelian_groups_up_to(10)),
        (rl.parse_group("Z11"), (K.THM1, K.PAN_SUN, K.TWISTED_PAN_SUN), 3),
        (rl.parse_group("Z13"), (K.THM1, K.PAN_SUN, K.TWISTED_PAN_SUN), 2),
    ], ids=lambda v: rl.format_group(v) if isinstance(v, rl.GroupSpec) else None)
    def test_counts_match_scalar(self, g, kinds, b_max):
        # the true bounds, so tight hits are sparse: on Z11 at |B| <= 3 the
        # witness rows also change if the kernel merges A masks under a unit
        # that moves an S class it reads
        plan = rl.EnumerationPlan(group=g, a_max=min(3, g.order), b_max=b_max, s_min=0,
                                  s_max=2, canonicalize=g.order > 10, canonicalize_s=True)
        gammas = (2, 5) if g.is_prime_cyclic and g.order > 6 else None

        def run(**kw):
            return rl.exhaustive_verify(plan, kinds, gammas=gammas, max_witnesses=7, **kw)

        slow = run(force_scalar=True)
        assert slow.tight_count > 0
        for shards in (1, 3):
            fast = run(shard_count=shards)
            assert fast.to_json(include_timing=False) == slow.to_json(include_timing=False), shards


class TestTwistedCanonicalization:
    """(A, B, S) -> (A - x, B - x/gamma, S) keeps the twisted lhs for gamma != 0.

    The canonical streams pin 0 in A (and in S) but enumerate every B, so
    they reach every lhs value of the full stream; checked on Z7.
    """

    GAMMAS = (2, 3, 4, 5)

    def test_translates_keep_twisted_lhs(self):
        g = rl.parse_group("Z7")
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b = (rl.ElementSet(g, int(rng.integers(1, 1 << 7))) for _ in range(2))
            s = rl.ElementSet.from_indices(g, rng.choice(7, size=int(rng.integers(1, 3)),
                                                         replace=False).tolist())
            for gamma in self.GAMMAS:
                want = bounds.operator_lhs(K.TWISTED_PAN_SUN, a, b, s, gamma)
                for x in g.elements():
                    shift = g.neg(x)
                    moved_b = b.translate(g.scale(pow(gamma, -1, 7), shift))
                    got = bounds.operator_lhs(K.TWISTED_PAN_SUN, a.translate(shift), moved_b,
                                              s, gamma)
                    assert got == want, (a, b, s, gamma, x)

    def test_canonical_streams_reach_every_lhs(self):
        g = rl.parse_group("Z7")
        t = _masks.tables_for(g)
        pops = t.pops.astype(np.int64)

        def lhs_by_class(gamma, **canon):
            """Every (|A|, |B|, |S|, lhs) the stream reaches, as one integer each."""
            plan = rl.EnumerationPlan(group=g, a_max=4, b_max=4, s_min=1, s_max=2, **canon)
            amasks = np.array(list(plan_a_masks(plan)), dtype=np.int64)
            bmasks = np.array(list(plan_b_masks(plan)), dtype=np.int64)
            sizes = pops[amasks][:, None] * 8 + pops[bmasks][None, :]
            seen = set()
            for smask in plan_s_masks(plan):
                lhs = size_rows(t, amasks, [(smask, gamma)])[0][:, bmasks]
                seen |= set(np.unique((sizes * 8 + smask.bit_count()) * 8 + lhs).tolist())
            return seen

        for gamma in self.GAMMAS:
            full = lhs_by_class(gamma)
            assert lhs_by_class(gamma, canonicalize=True) == full
            assert lhs_by_class(gamma, canonicalize=True, canonicalize_s=True) == full

    def test_sampled_canonical_rows_are_the_drawn_triples(self):
        # a sampled canonical sweep checks and reports the triple it drew, so
        # every row re-checks on exactly that triple, and pinning S leaves the
        # counts of the operators that fix their own S as they were
        g = rl.parse_group("Z7")

        def sweep(**canon):
            plan = rl.EnumerationPlan(group=g, s_min=0, s_max=2, mode="sampled",
                                      sample_count=400, seed=5, **canon)
            return plan, rl.exhaustive_verify(plan, list(K), gammas=[2, 3],
                                              max_witnesses=10 ** 6)

        plan, summary = sweep(canonicalize=True, canonicalize_s=True)
        rows = summary.violations + summary.tight
        assert len(rows) == summary.violation_count + summary.tight_count > 0
        assert {r.gamma for r in rows if r.kind is K.TWISTED_PAN_SUN} == {2, 3}
        drawn = {(a.bits, b.bits, s.bits) for a, b, s in rl.enumerate_triples(plan)}
        for rep in rows:
            assert (rep.a.bits, rep.b.bits, rep.s.bits) in drawn
            again = rl.check_triple(g, rep.a, rep.b, rep.s, rep.kind, rep.gamma)
            assert (again.lhs, again.rhs, again.tight) == (rep.lhs, rep.rhs, rep.tight)

        def fixed_s_rows(summary):
            return sorted((r.kind.value, r.a.bits, r.b.bits, r.lhs, r.rhs)
                          for r in summary.violations + summary.tight if not r.kind.reads_s)

        unpinned_s = sweep(canonicalize=True)[1]
        assert fixed_s_rows(summary) == fixed_s_rows(unpinned_s) != []

    @pytest.mark.parametrize("canonicalize_s", [False, True])
    def test_canonical_twisted_sweeps(self, canonicalize_s):
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, a_max=3, b_max=3, s_min=1, s_max=2,
                                  canonicalize=True, canonicalize_s=canonicalize_s)
        gammas = [1, *self.GAMMAS]
        fast = rl.exhaustive_verify(plan, [K.TWISTED_PAN_SUN], gammas=gammas)
        slow = rl.exhaustive_verify(plan, [K.TWISTED_PAN_SUN], gammas=gammas,
                                    force_scalar=True)
        assert fast.violation_count == 0 and fast.tight_count > 0
        assert fast.to_json(include_timing=False) == slow.to_json(include_timing=False)


class TestCountsMatchCheckTriple:
    """check_triple, through ``applicability``, is the reference for the sweep counts.

    Both sweep paths read one check plan per size class, so this compares
    that plan with a check-by-check count over every (A, B, S, kind, gamma).
    """

    # gamma 4 is -1 on Z5, where no check applies: a sweep refuses it, so the
    # reference over gammas 2 and 4 must equal the sweep at gamma 2 alone;
    # on Z2xZ3, |A|, |B| <= 3 keeps the reference to seconds
    @pytest.mark.parametrize("name,cap,gammas", [("Z5", None, [2, 4]), ("Z2xZ3", 3, None)])
    def test_counts_and_counterexamples(self, name, cap, gammas):
        g = rl.parse_group(name)
        plan = rl.EnumerationPlan(group=g, a_max=cap, b_max=cap, s_min=0, s_max=2)
        kinds = [k for k in K if gammas or k.operator is not bounds.Operator.TWISTED]
        tight = violations = 0
        below = {kind: set() for kind in kinds}  # rows with lhs < rhs, hypotheses dropped
        for a, b, s in rl.enumerate_triples(plan):
            for kind in kinds:
                for gamma in gammas if kind is K.TWISTED_PAN_SUN else [None]:
                    rep = rl.check_triple(g, a, b, s, kind, gamma)
                    tight += rep.tight
                    violations += not rep.satisfied
                    if rep.lhs < rep.rhs:
                        below[kind].add(tuple(rep.to_row().values()))
        applicable = gammas and [gamma for gamma in gammas if gamma != g.order - 1]
        for force_scalar in (False, True):
            summary = rl.exhaustive_verify(plan, kinds, gammas=applicable,
                                           force_scalar=force_scalar)
            assert summary.triples_checked == plan.count_triples()
            assert (summary.tight_count, summary.violation_count) == (tight, violations)
        assert tight > 0
        for kind in kinds:
            found = rl.search_witnesses(plan, kind, "counterexample", gammas=gammas,
                                        max_witnesses=10 ** 6)
            assert {tuple(r.to_row().values()) for r in found} == below[kind], kind


class TestScalarPathAboveTableOrder:
    """Z131 is above ``_masks.MAX_TABLE_ORDER``, so only the scalar path runs.

    With thm1's rhs raised by 200, every check's rhs is p = 131, far above
    int8, so the check plan must hold it as a Python int.
    """

    @pytest.fixture(autouse=True)
    def raised_thm1(self, monkeypatch):
        raise_rhs(monkeypatch, K.THM1, 200)

    def test_rhs_at_p(self):
        g = rl.parse_group("Z131")
        assert g.order > _masks.MAX_TABLE_ORDER
        plan = rl.EnumerationPlan(group=g, mode="sampled", sample_count=40, seed=11,
                                  a_min=5, a_max=50, b_min=5, b_max=50, s_min=1, s_max=2)
        summary = rl.exhaustive_verify(plan, [K.THM1], max_witnesses=10 ** 6)
        rows = summary.violations + summary.tight
        assert summary.violation_count > 0 and summary.tight_count > 0
        assert len(rows) == summary.violation_count + summary.tight_count
        for rep in rows:
            assert rep.rhs == 131
            again = rl.check_triple(g, rep.a, rep.b, rep.s, K.THM1)
            assert (again.lhs, again.rhs, again.tight) == (rep.lhs, rep.rhs, rep.tight)
        reports = [rl.check_triple(g, a, b, s, K.THM1) for a, b, s in rl.enumerate_triples(plan)]
        assert summary.violation_count == sum(not r.satisfied for r in reports)
        assert summary.tight_count == sum(r.tight for r in reports)

    def test_hypotheses_only_at_drawn_sizes(self, monkeypatch):
        """Each check's rhs is built at the drawn |B| only, never over all 132."""
        g = rl.parse_group("Z131")
        plan = rl.EnumerationPlan(group=g, mode="sampled", sample_count=30, seed=3,
                                  a_min=1, a_max=3, b_min=1, b_max=3, s_min=1, s_max=2)
        seen = []
        real = bounds._failed_hypothesis

        def counted(kind, group, m, k, h, gamma):
            seen.append((m, k, h))
            return real(kind, group, m, k, h, gamma)

        monkeypatch.setattr(bounds, "_failed_hypothesis", counted)
        gammas = [2, 3, 5]
        rl.exhaustive_verify(plan, [K.TWISTED_PAN_SUN, K.THM1], gammas=gammas, max_witnesses=0)
        # the plan's applicability check stops at its first size pair, which applies
        assert seen[0] == (plan.a_max, plan.b_max, plan.s_min)
        sweep = seen[1:]
        drawn = {(a.size, b.size, s.size) for a, b, s in rl.enumerate_triples(plan)}
        assert set(sweep) == drawn
        assert len(sweep) == len(drawn) * (len(gammas) + 1)


class TestSearch:
    def test_pansun_tight_includes_witness(self):
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        found = rl.search_witnesses(plan, BoundKind.PAN_SUN, "tight", max_witnesses=10 ** 6)
        key = (S(g, "{1,2,3}"), S(g, "{1,2,3}"), S(g, "{0}"))
        assert any((r.a, r.b, r.s) == key for r in found)

    def test_eh_tight_includes_progression(self):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=0, s_max=0)
        found = rl.search_witnesses(
            plan, BoundKind.ERDOS_HEILBRONN, "tight", max_witnesses=10 ** 6
        )
        a = S(g, "{0,1,2}")
        hits = [r for r in found if r.a == a and r.b == a]
        assert hits and hits[0].lhs == 3 == 2 * 3 - 3

    def test_counterexample_mode_finds_dropped_anr(self):
        # with |A| != |B| dropped, A = B = {0,1} in Z5 violates |A(+)B| >= 2
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=0, s_max=0)
        found = rl.search_witnesses(plan, BoundKind.ANR, "counterexample")
        assert found
        assert all(r.hypothesis_dropped for r in found)
        assert any(r.a == r.b == S(g, "{0,1}") and r.lhs == 1 and r.rhs == 2 for r in found)

    def test_counterexample_mode_empty_is_fine(self):
        # the unconditional 3|S| bound has no counterexamples to find
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        assert rl.search_witnesses(plan, BoundKind.THM1, "counterexample") == []

    def test_thm2_floor_dropped_search_runs(self):
        # outcome is whatever the sweep finds; assert only well-formedness
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=2)
        found = rl.search_witnesses(plan, BoundKind.THM2, "counterexample")
        for r in found:
            assert r.hypothesis_dropped and r.lhs < r.rhs

    def test_search_scalar_vector_agree(self):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=2)
        for mode in ("tight", "counterexample"):
            fast = rl.search_witnesses(plan, BoundKind.PAN_SUN, mode, max_witnesses=50)
            slow = rl.search_witnesses(
                plan, BoundKind.PAN_SUN, mode, max_witnesses=50, force_scalar=True
            )
            assert [r.to_row() for r in fast] == [r.to_row() for r in slow]

    def test_bad_mode(self):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        with pytest.raises(ValueError):
            rl.search_witnesses(plan, BoundKind.PAN_SUN, "weird")


class TestSummarySerialization:
    def test_json_schema_keys(self):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        d = rl.exhaustive_verify(plan, [BoundKind.PAN_SUN]).to_json_dict()
        assert set(d) >= {"group", "kinds", "constraints", "triples_checked",
                          "violations", "tight", "elapsed_ms"}
        assert d["group"] == "Z5"
        for row in d["tight"]:
            assert set(row) == {"kind", "A", "B", "S", "gamma", "lhs", "rhs", "tight"}

    def test_csv_header_and_rows(self):
        g = rl.parse_group("Z5")
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=1)
        csv = rl.exhaustive_verify(plan, [BoundKind.PAN_SUN], max_witnesses=3).to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "group,kind,A,B,S,gamma,lhs,rhs,tight"
        assert len(lines) == 4
        assert lines[1].startswith("Z5,pansun,")

    def test_kind_from_name(self):
        assert rl.kind_from_name("cd") is BoundKind.CAUCHY_DAVENPORT
        with pytest.raises(ValueError):
            rl.kind_from_name("nosuch")
