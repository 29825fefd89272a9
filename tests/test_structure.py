from __future__ import annotations

import hashlib

import numpy as np
import pytest

import rsumlab as rl
from rsumlab import _masks
from rsumlab.structure import sdr_index_window
from conftest import (
    o_add, o_sub, oracle_progression_differences, oracle_sumset, set_of, stabilizer_sizes,
)


def S(g, text):
    return rl.parse_set(g, text)


def sub(g, text):
    return rl.Subgroup.from_set(rl.parse_set(g, text))


# -- coset decomposition -------------------------------------------------------


class TestCosetDecompose:
    def test_z6_example(self):
        # coset-table oracle: cosets of {0,3} are {0,3},{1,4},{2,5};
        # X = {0,1,3} meets the first two, fibers {0,3} and {0}
        g = rl.parse_group("Z6")
        dec = rl.coset_decompose(S(g, "{0,1,3}"), sub(g, "{0,3}"))
        assert dec.part_count == 2
        assert [(rep, set_of(fiber)) for rep, fiber in dec.parts] == [
            ((0,), {(0,), (3,)}),
            ((1,), {(0,)}),
        ]

    def test_trivial_subgroup(self):
        g = rl.parse_group("Z7")
        dec = rl.coset_decompose(S(g, "{1,4}"), rl.Subgroup.trivial(g))
        assert dec.part_count == 2
        assert all(fiber.size == 1 for _, fiber in dec.parts)

    def test_whole_group(self):
        g = rl.parse_group("Z6")
        dec = rl.coset_decompose(S(g, "{1,2,5}"), rl.Subgroup.whole(g))
        assert dec.part_count == 1

    def test_empty_rejected(self):
        g = rl.parse_group("Z6")
        with pytest.raises(ValueError):
            rl.coset_decompose(rl.ElementSet.empty(g), sub(g, "{0,3}"))

    @pytest.mark.parametrize("name", ["Z6", "Z12", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2"])
    def test_roundtrip_and_invariants_random(self, name):
        g = rl.parse_group(name)
        subs = rl.all_subgroups(g)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = rl.ElementSet(g, int(rng.integers(1, 1 << g.order)))
            h = subs[int(rng.integers(0, len(subs)))]
            dec = rl.coset_decompose(x, h)
            rebuilt = rl.ElementSet.empty(g)
            for rep, fiber in dec.parts:
                rebuilt = rebuilt.union(fiber.translate(rep))
            assert rebuilt == x
            assert sum(fiber.size for _, fiber in dec.parts) == x.size
            sizes = [fiber.size for _, fiber in dec.parts]
            assert sizes == sorted(sizes, reverse=True)
            reps = [rep for rep, _ in dec.parts]
            for i, r1 in enumerate(reps):
                for r2 in reps[i + 1:]:
                    assert g.sub(r1, r2) not in h.members
            for rep, fiber in dec.parts:
                assert fiber.size >= 1
                assert fiber.is_subset(h.members)
                # rep is the minimal index inside its hit coset
                hit = x.intersect(h.members.translate(rep))
                assert g.element_index(rep) == hit.min_index()


# -- stabilizer ------------------------------------------------------------------


class TestStabilizer:
    def test_z4_period(self):
        g = rl.parse_group("Z4")
        assert set_of(rl.stabilizer(S(g, "{0,2}")).members) == {(0,), (2,)}

    def test_z7_trivial(self):
        g = rl.parse_group("Z7")
        assert rl.stabilizer(S(g, "{1,2}")).order == 1

    def test_full_group(self):
        g = rl.parse_group("Z2xZ2")
        assert rl.stabilizer(rl.ElementSet.full(g)).order == 4

    @pytest.mark.parametrize("name", ["Z8", "Z12", "Z2xZ4", "Z3xZ3"])
    def test_matches_mask_table(self, name):
        g = rl.parse_group(name)
        stab_sizes = stabilizer_sizes(g.factors)
        rng = np.random.default_rng(4)
        for _ in range(150):
            bits = int(rng.integers(1, 1 << g.order))
            h = rl.stabilizer(rl.ElementSet(g, bits))
            assert h.order == int(stab_sizes[bits])
            assert rl.is_subgroup_set(h.members)
            # X is a union of stabilizer cosets
            dec = rl.coset_decompose(rl.ElementSet(g, bits), h)
            assert all(fiber.size == h.order for _, fiber in dec.parts)


@pytest.mark.parametrize("name", [
    "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "Z6", "Z7", "Z8", "Z2xZ4", "Z2xZ2xZ2",
    "Z9", "Z3xZ3", "Z10", "Z11", "Z12", "Z2xZ6",
])
def test_kneser_and_extended_cauchy_davenport_exhaustive(name):
    # |A+B| >= |A| + |B| - |H(A+B)| and |A+B| >= min(|A|+|B|-1, p(G))
    # for all non-empty pairs, orders <= 12
    g = rl.parse_group(name)
    t = _masks.tables_for(g)
    n = g.order
    stab = stabilizer_sizes(g.factors).astype(np.int64)
    sizes = t.pops.astype(np.int64)
    p = g.least_prime
    for abits in range(1, 1 << n):
        u = _masks.union_table(t.cmasks_general(abits, 0), n)[1:]  # skip empty B
        card = sizes[u]
        bsizes = sizes[1:1 << n]
        m = int(sizes[abits])
        assert np.all(card >= m + bsizes - stab[u]), (name, abits)
        assert np.all(card >= np.minimum(m + bsizes - 1, p)), (name, abits)


# -- SDR selection ----------------------------------------------------------------


def check_solution(inst, sol):
    """Independent revalidation of every SdrSolution invariant."""
    g = inst.group
    factors = g.factors
    excluded = {o_add(factors, inst.a[0], b) for b in inst.b}
    sums = []
    for k, (i, j) in zip(
        range(1, len(sol.pairs) + 1) if inst.variant is not rl.SdrVariant.LEMMA32
        else range(2, len(sol.pairs) + 2),
        sol.pairs,
    ):
        assert i in sdr_index_window(inst, k)
        assert 1 <= j <= inst.n
        total = o_add(factors, inst.a[i - 1], inst.b[j - 1])
        assert total not in excluded
        # lemma32 takes no S, so there this holds for every pair
        assert o_sub(factors, inst.a[i - 1], inst.b[j - 1]) not in set(inst.s.elements())
        sums.append(total)
    assert len(set(sums)) == len(sums)
    expected_len = {
        rl.SdrVariant.LEMMA22: inst.m - inst.h - 2,
        rl.SdrVariant.LEMMA33: inst.m - 3 * inst.h,
        rl.SdrVariant.LEMMA32: inst.m - 1,
    }[inst.variant]
    assert len(sol.pairs) == expected_len
    # sums really belong to the right operator's result
    target = oracle_sumset(factors, inst.a, inst.b, tuple(inst.s.elements()))
    assert set(sums) <= target


class TestSdrSelect:
    def test_lemma22_z7_example(self):
        g = rl.parse_group("Z7")
        a, b, s = S(g, "{0,1,2,3}"), S(g, "{0,1,2,3}"), S(g, "{0}")
        inst = rl.SdrInstance.from_sets(a, b, s, rl.SdrVariant.LEMMA22)
        sol = rl.sdr_select(inst)
        assert len(sol.pairs) == 1
        # brute force: (A +_S B) \ (a_1 + B) = {4,5}
        pool = oracle_sumset(g.factors, inst.a, inst.b, [(0,)])
        pool -= {o_add(g.factors, (0,), x) for x in inst.b}
        assert pool == {(4,), (5,)}
        assert sol.sums[0] in pool
        assert sol.pairs[0][0] in {2, 3, 4}
        check_solution(inst, sol)

    def test_lemma32_z5_example(self):
        g = rl.parse_group("Z5")
        inst = rl.SdrInstance.from_sets(
            S(g, "{0,1}"), S(g, "{0,2}"), None, rl.SdrVariant.LEMMA32
        )
        sol = rl.sdr_select(inst)
        assert len(sol.pairs) == 1
        assert sol.pairs[0][0] == 2
        assert sol.sums[0] in {(1,), (3,)}
        check_solution(inst, sol)

    def test_lemma22_hypothesis_boundary(self):
        g = rl.parse_group("Z7")
        inst = rl.SdrInstance.from_sets(
            S(g, "{0,1,2}"), S(g, "{0,1}"), S(g, "{0}"), rl.SdrVariant.LEMMA22
        )  # m = h + 2 < h + 3
        with pytest.raises(rl.HypothesisViolation):
            rl.sdr_select(inst)

    def test_lemma22_needs_prime_group(self):
        g = rl.parse_group("Z6")
        inst = rl.SdrInstance.from_sets(
            S(g, "{0,1,2,3}"), S(g, "{0}"), S(g, "{1}"), rl.SdrVariant.LEMMA22
        )
        with pytest.raises(rl.HypothesisViolation):
            rl.sdr_select(inst)

    def test_lemma33_hypothesis_boundaries(self):
        g = rl.parse_group("Z7")
        inst = rl.SdrInstance.from_sets(
            S(g, "{0,1,2}"), S(g, "{0}"), S(g, "{1}"), rl.SdrVariant.LEMMA33
        )  # m = 3 < 3h + 1 = 4
        with pytest.raises(rl.HypothesisViolation):
            rl.sdr_select(inst)

    def test_lemma32_length_zero(self):
        g = rl.parse_group("Z5")
        inst = rl.SdrInstance.from_sets(
            S(g, "{3}"), S(g, "{0,2}"), None, rl.SdrVariant.LEMMA32
        )
        assert len(rl.sdr_select(inst).pairs) == 0

    def test_exhaustive_z5_h1_all_variants(self):
        g = rl.parse_group("Z5")
        runs = 0
        for variant in rl.SdrVariant:
            for inst in _all_instances(g, variant, h=1):
                sol = rl.sdr_select(inst)
                check_solution(inst, sol)
                runs += 1
        assert runs > 0

    def test_random_orderings_z11_z13(self):
        runs = 0
        for inst in _random_instances(
            [rl.parse_group("Z11"), rl.parse_group("Z13")], count=500, seed=77
        ):
            sol = rl.sdr_select(inst)
            check_solution(inst, sol)
            runs += 1
        assert runs == 500


def _all_instances(g, variant, h):
    """Every ascending-ordered instance with |S| = h meeting the hypotheses."""
    from itertools import combinations

    n_order = g.order
    p = g.least_prime
    els = list(g.elements())
    if variant is rl.SdrVariant.LEMMA22:
        m_lo = h + 3
    elif variant is rl.SdrVariant.LEMMA33:
        m_lo = 3 * h + 1
    else:
        m_lo = 1
    for m in range(m_lo, n_order + 1):
        if variant is rl.SdrVariant.LEMMA22:
            n_hi = p + h + 2 - m
        elif variant is rl.SdrVariant.LEMMA33:
            n_hi = p + 3 * h - m
        else:
            n_hi = p + 1 - m
        if n_hi < 1:
            continue
        for a_combo in combinations(els, m):
            for n_size in range(1, min(n_hi, n_order) + 1):
                for b_combo in combinations(els, n_size):
                    s_iter = (
                        [None] if variant is rl.SdrVariant.LEMMA32
                        else combinations(els, h)
                    )
                    for s_combo in s_iter:
                        s = None if s_combo is None else rl.ElementSet.from_elements(g, s_combo)
                        yield rl.SdrInstance(
                            group=g, a=a_combo, b=b_combo,
                            s=s if s is not None else rl.ElementSet.empty(g),
                            variant=variant,
                        )


def _random_instances(groups, count, seed):
    rng = np.random.default_rng(seed)
    variants = list(rl.SdrVariant)
    made = 0
    while made < count:
        g = groups[made % len(groups)]
        variant = variants[made % len(variants)]
        p = g.least_prime
        if variant is rl.SdrVariant.LEMMA22:
            h = int(rng.integers(1, 4))
            m = int(rng.integers(h + 3, min(g.order, p + h + 1) + 1))
            n = int(rng.integers(1, p + h + 2 - m + 1))
        elif variant is rl.SdrVariant.LEMMA33:
            h = 1
            m = int(rng.integers(4, min(g.order, p + 2) + 1))
            n = int(rng.integers(1, p + 3 - m + 1))
        else:
            h = 0
            m = int(rng.integers(1, p))
            n = int(rng.integers(1, p + 1 - m + 1))
        n = min(n, g.order)
        a_idx = rng.choice(g.order, size=m, replace=False)
        b_idx = rng.choice(g.order, size=n, replace=False)
        a = tuple(g.index_element(int(i)) for i in a_idx)  # random order kept
        b = tuple(g.index_element(int(i)) for i in b_idx)
        if h:
            s_idx = rng.choice(g.order, size=h, replace=False)
            s = rl.ElementSet.from_indices(g, (int(i) for i in s_idx))
        else:
            s = rl.ElementSet.empty(g)
        yield rl.SdrInstance(group=g, a=a, b=b, s=s, variant=variant)
        made += 1


# -- pinned output -----------------------------------------------------------------
#
# check_solution accepts any valid selection and the decomposition tests any
# valid split, so neither notices a change in *which* pairs or parts come out.
# These sha256 pins fix the exact sdr_select pairs (or the exception type and
# message) over fixed instance lists, and the exact coset_decompose parts.

SDR_PINS = {
    "lemma32-m1": "55105b07dbe67844ad33070d68620c5129e739f4afc36f6600e08bc43150ac66",
    "Z5-h1": "4c3b011838691c3670feacb85352b3046b9da49637246406ccad53663beb4cf0",
    "Z7-h1": "f0f95f4c47e52144667bdfbf536693ae6a538407187796b3c34b04eb2d6fd5c8",
    "Z11": "e3121c930d5827bc4195af058425db69605578450f421fd8890dc73b88a76bff",
    "Z13": "ee17f4f0816fafe8305f1b5410c6a366d8017f04d3f61e8be6752419d8f9a12f",
    "Z2xZ4": "d174235d46eaef64eb40c69305805e890967c603c22fa1ac45e7b8e2791c56ee",
}

DECOMPOSE_PINS = {
    "Z12": "0cfffffac27315c32dc339e3ab178f991dac9369ab78dea0cb7afe5fd2ae8833",
    "Z2xZ6": "dc878832c85f0375ba5f3782b0ba73748e10cc81b4f4a433717f3cc92707d618",
    "Z4xZ4": "d72871e6371a03547f0ee448e5339dd6dd1225d52c9b2dfd3986f514c47168e4",
}


def _lemma32_m1_instances():
    for name in ("Z5", "Z6", "Z7", "Z2xZ4"):
        g = rl.parse_group(name)
        for a in g.elements():
            for bbits in range(1, 1 << g.order):
                yield rl.SdrInstance.from_sets(
                    rl.ElementSet.from_elements(g, [a]), rl.ElementSet(g, bbits), None,
                    rl.SdrVariant.LEMMA32,
                )


def _unconstrained_instances(g, count, seed):
    """Random sizes and element orders, hypotheses or not."""
    rng = np.random.default_rng(seed)
    variants = list(rl.SdrVariant)
    for made in range(count):
        variant = variants[made % len(variants)]
        m, n = (int(x) for x in rng.integers(1, g.order + 1, size=2))
        h = int(rng.integers(0, 4))
        a = tuple(g.index_element(int(i)) for i in rng.choice(g.order, size=m, replace=False))
        b = tuple(g.index_element(int(i)) for i in rng.choice(g.order, size=n, replace=False))
        s_idx = rng.choice(g.order, size=h, replace=False)
        s = rl.ElementSet.from_indices(g, (int(i) for i in s_idx))
        yield rl.SdrInstance(group=g, a=a, b=b, s=s, variant=variant)


def _pin_instances(key):
    if key == "lemma32-m1":
        yield from _lemma32_m1_instances()
    elif key in ("Z5-h1", "Z7-h1"):
        g = rl.parse_group(key[:2])
        for variant in rl.SdrVariant:
            yield from _all_instances(g, variant, h=1)
    else:
        g = rl.parse_group(key)
        if g.is_prime_cyclic:
            yield from _random_instances([g], count=600, seed=g.order)
        yield from _unconstrained_instances(g, count=600, seed=100 + g.order)


def sdr_pin_digest(key):
    digest = hashlib.sha256()
    for inst in _pin_instances(key):
        try:
            out = repr(rl.sdr_select(inst).pairs)
        except (rl.HypothesisViolation, rl.LemmaViolation) as exc:
            out = f"{type(exc).__name__}: {exc}"
        digest.update(f"{inst.variant.value} {inst.a} {inst.b} {inst.s.bits} -> {out}\n".encode())
    return digest.hexdigest()


def decompose_pin_digest(name):
    g = rl.parse_group(name)
    subs = rl.all_subgroups(g)
    rng = np.random.default_rng(g.order)
    digest = hashlib.sha256()
    for _ in range(1500):
        x = rl.ElementSet(g, int(rng.integers(1, 1 << g.order)))
        h = subs[int(rng.integers(0, len(subs)))]
        parts = [(rep, fiber.bits) for rep, fiber in rl.coset_decompose(x, h).parts]
        digest.update(f"{x.bits} {h.members.bits} -> {parts}\n".encode())
    return digest.hexdigest()


class TestPinnedOutput:
    @pytest.mark.parametrize("key", sorted(SDR_PINS))
    def test_sdr_select_pairs(self, key):
        assert sdr_pin_digest(key) == SDR_PINS[key]

    @pytest.mark.parametrize("name", sorted(DECOMPOSE_PINS))
    def test_coset_decompose_parts(self, name):
        assert decompose_pin_digest(name) == DECOMPOSE_PINS[name]


# -- critical pair classification -------------------------------------------------


class TestClassify:
    def test_singleton_example(self):
        g = rl.parse_group("Z7")
        a, b = S(g, "{4}"), S(g, "{1,2,5}")
        assert rl.sumset(a, b).size == 3 == a.size + b.size - 1
        classes = rl.classify_critical_pair(a, b)
        assert rl.Singleton(side="A") in classes

    def test_progression_example(self):
        g = rl.parse_group("Z7")
        a, b = S(g, "{1,3,5}"), S(g, "{2,4}")
        assert rl.sumset(a, b).size == 4
        classes = rl.classify_critical_pair(a, b)
        diffs = {c.difference for c in classes if isinstance(c, rl.ArithmeticPair)}
        assert (2,) in diffs and (5,) in diffs

    def test_coset_and_progression_example(self):
        g = rl.parse_group("Z5xZ5")
        a = rl.ElementSet.from_elements(g, [(1, 0), (1, 1)])
        b = rl.ElementSet.from_elements(g, [(2, 0), (2, 1)])
        assert set_of(rl.sumset(a, b)) == {(3, 0), (3, 1), (3, 2)}
        classes = rl.classify_critical_pair(a, b)
        assert any(
            isinstance(c, rl.ArithmeticPair) and c.difference == (0, 1) for c in classes
        )
        coset = [c for c in classes if isinstance(c, rl.CosetPair)]
        assert len(coset) == 1
        assert set_of(coset[0].subgroup.members) == {(0, j) for j in range(5)}
        assert coset[0].a_offset == (1, 0) and coset[0].b_offset == (2, 0)

    def test_precondition_rejected(self):
        g = rl.parse_group("Z7")
        with pytest.raises(rl.HypothesisViolation):
            rl.classify_critical_pair(S(g, "{0,1}"), S(g, "{0,3}"))  # |A+B| = 4 != 3
        with pytest.raises(rl.HypothesisViolation):
            # critical but |A+B| = 7 > p - 1
            rl.classify_critical_pair(S(g, "{0,1,2,3}"), S(g, "{0,1,2,3}"))

    def test_progression_detector(self):
        g = rl.parse_group("Z7")
        assert 1 in rl.progression_differences(S(g, "{6,0,1}"))  # wraps
        assert set(rl.progression_differences(S(g, "{2}"))) == set(range(1, 7))
        assert rl.progression_differences(S(g, "{1,2,4}")) == []
        g9 = rl.parse_group("Z9")
        assert 3 in rl.progression_differences(S(g9, "{0,3,6}"))  # full <3>-coset
        assert 3 not in rl.progression_differences(S(g9, "{0,1,3,6}"))
        g2 = rl.parse_group("Z2xZ4")
        assert rl.parse_group("Z2xZ4").element_index((0, 1)) in (
            rl.progression_differences(rl.ElementSet.from_elements(g2, [(1, 1), (1, 2)]))
        )

    @pytest.mark.parametrize("name", ["Z2xZ2", "Z2xZ4", "Z9"])
    def test_progression_detector_on_every_subset(self, name):
        # {0, (0,1), (1,0)} in Z2xZ2 at q = (0,1) has one q-run but is no
        # progression: it is longer than ord(q)
        g = rl.parse_group(name)
        for bits in range(1, 1 << g.order):
            xs = rl.ElementSet(g, bits)
            elems = [g.index_element(i) for i in xs.indices()]
            assert rl.progression_differences(xs) == oracle_progression_differences(
                g.factors, elems), rl.format_set(xs)


# -- fiber spread ------------------------------------------------------------------


class TestFiberSpread:
    def test_full_set_z2xz2(self):
        g = rl.parse_group("Z2xZ2")
        k1 = sub(g, "{(0,0),(1,0)}")
        k2 = sub(g, "{(0,0),(0,1)}")
        rep = rl.fiber_spread_check(rl.ElementSet.full(g), k1, k2)
        assert (rep.count1, rep.count2, rep.ok) == (2, 2, True)

    def test_z3xz3_example(self):
        g = rl.parse_group("Z3xZ3")
        k1 = rl.Subgroup.from_set(rl.ElementSet.from_elements(g, [(0, 0), (1, 0), (2, 0)]))
        k2 = rl.Subgroup.from_set(rl.ElementSet.from_elements(g, [(0, 0), (0, 1), (0, 2)]))
        a = rl.ElementSet.from_elements(g, [(0, 0), (0, 1), (0, 2), (1, 0)])
        rep = rl.fiber_spread_check(a, k1, k2)
        assert (rep.count1, rep.count2) == (3, 2)
        assert rep.ok

    def test_singleton_always_ok(self):
        g = rl.parse_group("Z2xZ3")
        k1 = rl.Subgroup.from_set(rl.ElementSet.from_elements(g, [(0, 0), (1, 0)]))
        k2 = rl.Subgroup.from_set(rl.ElementSet.from_elements(g, [(0, 0), (0, 1), (0, 2)]))
        rep = rl.fiber_spread_check(rl.ElementSet.from_elements(g, [(1, 2)]), k1, k2)
        assert (rep.count1, rep.count2, rep.ok) == (1, 1, True)

    def test_rejects_non_direct_sum(self):
        g = rl.parse_group("Z2xZ4")
        k1 = rl.Subgroup.from_set(rl.ElementSet.from_elements(g, [(0, 0), (0, 2)]))
        k2 = rl.Subgroup.from_set(rl.ElementSet.from_elements(g, [(0, 0), (0, 2), (0, 1), (0, 3)]))
        with pytest.raises(rl.HypothesisViolation):
            rl.fiber_spread_check(S(g, "{(0,0)}"), k1, k2)  # intersection non-trivial
        k3 = rl.Subgroup.from_set(rl.ElementSet.from_elements(g, [(0, 0), (1, 0)]))
        with pytest.raises(rl.HypothesisViolation):
            rl.fiber_spread_check(S(g, "{(0,0)}"), k1, k3)  # order product 4 != 8

    def test_sampled_up_to_36(self):
        # elementary 2-groups have hundreds of splittings; sample a spread of
        # them per group rather than all
        rng = np.random.default_rng(5)
        for g in rl.abelian_groups_up_to(36, min_order=17):
            subs = rl.all_subgroups(g)
            pairs = [
                (k1, k2)
                for i, k1 in enumerate(subs)
                for k2 in subs[i:]
                if 1 < k1.order and 1 < k2.order
                and k1.order * k2.order == g.order
                and k1.members.intersect(k2.members).size == 1
            ]
            if len(pairs) > 10:
                step = len(pairs) // 10
                pairs = pairs[::step][:10]
            for k1, k2 in pairs:
                for _ in range(25):
                    a = rl.ElementSet(g, int(rng.integers(1, 1 << g.order)))
                    rep = rl.fiber_spread_check(a, k1, k2)
                    assert rep.ok, (g, set_of(a))
