from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

import rsumlab as rl
from rsumlab import _masks, bounds
from rsumlab.bounds import BoundKind
from rsumlab.sets import plan_a_masks, plan_b_masks, plan_s_masks
from conftest import set_of


def S(g, text):
    return rl.parse_set(g, text)


def sets_of_size(g, k):
    return rl.ElementSet.from_indices(g, range(k))


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
    # the group hypotheses fail
    ("Z6", 2, 2, (K.CAUCHY_DAVENPORT, K.ERDOS_HEILBRONN, K.ANR, K.PAN_SUN, K.PRIME_POWER_S,
                  K.PROP34)),
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
        # gamma = 6 is -1 on Z7, and at |S| = 2 the thm2 floor is 23
        kinds = (K.TWISTED_PAN_SUN, K.THM2, K.PAN_SUN)
        _assert_paths_agree(monkeypatch, "Z7", 2, 2, kinds, gammas=[2, 6])

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
        operator_lhs = bounds.operator_lhs

        def counting(*args):
            calls.append(args)
            return operator_lhs(*args)

        def check_triple(*args):
            raise AssertionError("the scalar sweep must not check one (kind, gamma) at a time")

        monkeypatch.setattr(bounds, "operator_lhs", counting)
        monkeypatch.setattr(bounds, "check_triple", check_triple)
        g = rl.parse_group(name)
        plan = rl.EnumerationPlan(
            group=g, mode="sampled", sample_count=200, seed=5, s_min=1, s_max=3
        )
        summary = rl.exhaustive_verify(plan, bounds.ALL_KINDS, gammas=(2, 3))
        assert summary.triples_checked == 200
        assert 0 < len(calls) <= per_triple * summary.triples_checked

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
        for cap in (1, 7):
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
        assert all(r.evaluated > 0 for r in shards)  # some classes survive pruning
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
        # both paths give a shard the same A masks, so each shard's counts and
        # witnesses agree, not only the merged summary
        g = rl.parse_group(name)
        plan = rl.EnumerationPlan(group=g, a_max=3, b_max=b_max, s_min=0, s_max=2)
        shards = {}
        for force_scalar in (False, True):
            cfg = bounds._SweepConfig(
                kinds=kinds, gammas=gammas, collect_violations=True, collect_tight=not prune,
                ignore_applicability=False, max_witnesses=10 ** 6, prune=prune,
                force_scalar=force_scalar,
            )
            shards[force_scalar] = [
                (r.evaluated, r.pruned, r.triples, r.violations.total, r.tight.total,
                 r.violations.sorted_payloads(), r.tight.sorted_payloads())
                for r in (bounds._shard_worker((plan, cfg, i, 3)) for i in range(3))
            ]
        assert shards[False] == shards[True]
        assert len({shard[0] for shard in shards[False]}) > 1  # the shards differ

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
        least = {op: np.full((n + 1, 3, n + 1), n + 1) for op in reads}  # [|A|, |S|, |B|]
        for abits in range(1, 1 << n):
            m = abits.bit_count()
            for op, read in reads.items():
                rows = [(smask.bit_count(), sg) for smask in s_masks for sg in read(smask)]
                if not rows:
                    continue
                cmasks = np.stack([t.cmasks_general(abits, *sg) for _, sg in rows])
                lhs = t.pops[_masks.union_table_batch(cmasks, n)][:, order]
                by_size = np.minimum.reduceat(lhs, starts, axis=1)  # min over B of each size
                for h, row in zip((h for h, _ in rows), by_size):
                    np.minimum(least[op][m, h], row, out=least[op][m, h])
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

        def recording(self, abits, sbits, gamma=1):
            sizes.extend(int(m).bit_count() for m in np.atleast_1d(abits))
            return honest(self, abits, sbits, gamma)

        monkeypatch.setattr(_masks.MaskTables, "cmasks_general", recording)
        summary = rl.exhaustive_verify(plan, kinds, prune=True)
        assert sizes and set(sizes) <= live
        monkeypatch.undo()
        slow = rl.exhaustive_verify(plan, kinds, prune=True, force_scalar=True)
        assert summary.to_json(include_timing=False) == slow.to_json(include_timing=False)

    def test_key_batches(self, monkeypatch):
        """An |A|'s (S, gamma) keys built in one batch, in several, and one per batch.

        ``--bound all`` on Z7 with two gammas mixes all four operators in one
        sweep: every |S| class of an |A| shares its S = {} and S = {0} keys,
        and general and twisted keys share each S.  Each (A, key) table is
        built exactly once whatever the batching.
        """
        g = rl.parse_group("Z7")
        plan = rl.EnumerationPlan(group=g, a_max=2, b_max=2, s_min=0, s_max=2)
        kinds, gammas = bounds.ALL_KINDS, [2, 3]

        def run(**kw):
            return rl.exhaustive_verify(plan, kinds, gammas=gammas, **kw).to_json(
                include_timing=False)

        slow = run(force_scalar=True)
        build = _masks.size_table_batch
        rows_per_call = []
        # whole classes in one chunk each: every key of a class in one batch,
        # then 4 keys of the 21-row chunk per batch; last, one row and one key
        for budget in (1 << 30, _chunk_budget(g, 4 * 21), _chunk_budget(g, 1)):
            rows = []
            with monkeypatch.context() as mp:
                mp.setattr(bounds, "_CHUNK_BYTES", budget)
                mp.setattr(_masks, "size_table_batch",
                           lambda cmasks, n: rows.append(len(cmasks)) or build(cmasks, n))
                assert run() == slow, budget
            rows_per_call.append(rows)
        one, several, single = rows_per_call
        assert len(one) < len(several) < len(single)
        assert max(one) > 4 * 21 and max(several) == 4 * 21 and set(single) == {1}
        # one table row per A mask and operator (S, gamma) key that some check reads
        p = g.least_prime
        pairs = set()
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
                            pairs.add((amask, bounds._operator_s_gamma(kind, smask, gamma)))
        assert sum(one) == sum(several) == sum(single) == len(pairs)


class TestViolationsAndTightInOneTable:
    """With thm1's rhs raised by 2, one table holds both violations and tight hits.

    No true bound gives such a table, so this is the one place where the
    kernel's single lhs <= rhs pass is split into both collectors.
    """

    @pytest.fixture(autouse=True)
    def raised_thm1(self, monkeypatch):
        info = bounds._KIND_INFO[K.THM1]
        monkeypatch.setitem(bounds._KIND_INFO, K.THM1, dataclasses.replace(info, c0=info.c0 + 2))

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
                cmasks = t.cmasks_general(amasks, smask, gamma)
                lhs = pops[_masks.union_table_batch(cmasks, g.order)][:, bmasks]
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

    # gamma 4 is -1 on Z5; on Z2xZ3, |A|, |B| <= 3 keeps the reference to seconds
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
        for force_scalar in (False, True):
            summary = rl.exhaustive_verify(plan, kinds, gammas=gammas, force_scalar=force_scalar)
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
        info = bounds._KIND_INFO[K.THM1]
        monkeypatch.setitem(bounds._KIND_INFO, K.THM1,
                            dataclasses.replace(info, c0=info.c0 + 200))

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
        drawn = {(a.size, b.size, s.size) for a, b, s in rl.enumerate_triples(plan)}
        assert set(seen) == drawn
        assert len(seen) == len(drawn) * (len(gammas) + 1)


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
