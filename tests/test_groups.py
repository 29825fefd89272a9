from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

import rsumlab as rl
from rsumlab.groups import INDEX_TABLE_LIMIT, index_table
from conftest import (
    GROUP_MATRIX, o_add, o_elements, o_index, o_neg, o_scale, oracle_is_subgroup,
    oracle_least_prime, oracle_progression_differences, oracle_sumset, set_of,
)


class TestMakeGroup:
    def test_prime_cyclic(self):
        g = rl.make_group([7])
        assert g.order == 7
        assert g.least_prime == 7
        assert g.is_prime_cyclic

    def test_power_of_two(self):
        g = rl.make_group([2, 4])
        assert g.order == 8
        assert g.least_prime == 2
        assert not g.is_prime_cyclic

    def test_least_prime_matches_trial_division(self):
        g = rl.make_group([3, 5])
        assert g.order == 15
        assert g.least_prime == oracle_least_prime(15) == 3

    def test_factor_list_preserved(self):
        assert rl.make_group([4, 2]).factors == (4, 2)
        assert rl.make_group([2, 4]).factors == (2, 4)
        assert rl.make_group([4, 2]) != rl.make_group([2, 4])

    def test_bad_factor(self):
        with pytest.raises(rl.GroupError):
            rl.make_group([1, 3])
        with pytest.raises(rl.GroupError):
            rl.make_group([])

    def test_order_ceiling(self):
        with pytest.raises(rl.GroupError):
            rl.make_group([2] * 21)
        rl.make_group([2] * 21, max_order=1 << 21)


class TestIndexing:
    def test_mixed_radix_examples(self):
        assert rl.make_group([2, 4]).element_index((1, 2)) == 6
        assert rl.make_group([7]).element_index((0,)) == 0
        assert rl.make_group([3, 3]).index_element(5) == (1, 2)

    @pytest.mark.parametrize("factors", [[5], [2, 4], [3, 3], [2, 2, 3], [12]])
    def test_roundtrip(self, factors):
        g = rl.make_group(factors)
        for i in range(g.order):
            assert g.element_index(g.index_element(i)) == i
        for pos, e in enumerate(g.elements()):
            assert g.element_index(e) == pos

    def test_out_of_range(self):
        g = rl.make_group([2, 4])
        with pytest.raises(rl.GroupError):
            g.element_index((0, 4))
        with pytest.raises(rl.GroupError):
            g.element_index((1,))
        with pytest.raises(rl.GroupError):
            g.index_element(8)


class TestGroupLaw:
    def test_add(self):
        assert rl.make_group([5]).add((3,), (4,)) == (2,)

    def test_neg(self):
        assert rl.make_group([2, 4]).neg((1, 3)) == (1, 1)

    def test_scale(self):
        assert rl.make_group([7]).scale(2, (4,)) == (1,)

    def test_element_order(self):
        g = rl.make_group([2, 4])
        assert g.element_order((0, 0)) == 1
        assert g.element_order((1, 2)) == 2
        assert g.element_order((1, 1)) == 4

    @pytest.mark.parametrize("factors", [[6], [2, 4], [3, 3]])
    def test_law_matches_oracle(self, factors):
        g = rl.make_group(factors)
        els = o_elements(factors)
        for a in els:
            for b in els:
                assert g.add(a, b) == tuple((x + y) % n for x, y, n in zip(a, b, factors))
            assert g.add(a, g.neg(a)) == g.identity()


class TestGrammar:
    def test_parse_format(self):
        g = rl.parse_group("Z2xZ4")
        assert g.factors == (2, 4)
        assert rl.format_group(g) == "Z2xZ4"
        assert rl.parse_group("Z7").factors == (7,)

    def test_bad_spec(self):
        for bad in ("Z", "Z0", "z7", "Z7x", "Z7+Z2", ""):
            with pytest.raises(rl.GroupError):
                rl.parse_group(bad)

    def test_element_literals(self):
        g1 = rl.parse_group("Z7")
        assert rl.parse_element(g1, "3") == (3,)
        assert rl.format_element(g1, (3,)) == "3"
        g2 = rl.parse_group("Z2xZ4")
        assert rl.parse_element(g2, "(1, 3)") == (1, 3)
        assert rl.format_element(g2, (1, 3)) == "(1,3)"
        with pytest.raises(rl.GroupError):
            rl.parse_element(g1, "(1,2)")
        with pytest.raises(rl.GroupError):
            rl.parse_element(g2, "7")
        with pytest.raises(rl.GroupError):
            rl.parse_element(g2, "(1,4)")


class TestIsoClassCatalog:
    @pytest.mark.parametrize(
        "order,count", [(2, 1), (4, 2), (8, 3), (12, 2), (16, 5), (36, 4)]
    )
    def test_class_counts(self, order, count):
        assert len(rl.abelian_group_specs(order)) == count

    def test_orders_and_uniqueness(self):
        specs = rl.abelian_groups_up_to(16)
        assert len({g.factors for g in specs}) == len(specs)
        for g in specs:
            assert 2 <= g.order <= 16


@given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=3))
def test_index_bijection_property(factors):
    g = rl.make_group(factors)
    seen = {g.element_index(e) for e in g.elements()}
    assert seen == set(range(g.order))


# Z521 and Z2xZ263 lie above the table limit, so their lookups take the
# digit-arithmetic path; Z521 is prime, so the twisted sumset runs there too.
@pytest.mark.parametrize("name", GROUP_MATRIX + ["Z521", "Z2xZ263"])
def test_index_table_matches_tuple_arithmetic(name):
    g = rl.parse_group(name)
    f = g.factors
    assert (g.order > INDEX_TABLE_LIMIT) == (name in ("Z521", "Z2xZ263"))
    els = o_elements(f)
    t = index_table(g)
    rng = np.random.default_rng(g.order)

    def rand_set(lo, hi):
        size = int(rng.integers(lo, min(hi, g.order) + 1))
        return [els[int(i)] for i in rng.choice(g.order, size, replace=False)]

    for _ in range(300):
        i, j, u = (int(x) for x in rng.integers(g.order, size=3))
        assert t.add[j][i] == o_index(f, o_add(f, els[i], els[j]))
        assert t.neg[i] == o_index(f, o_neg(f, els[i]))
        assert t.scaled(u - g.order)[i] == o_index(f, o_scale(f, u, els[i]))
    gammas = [gm for gm in (2, 3) if gm % g.order] if g.is_prime_cyclic else []
    for _ in range(40):
        x, shift = rand_set(1, 6), els[int(rng.integers(g.order))]
        xs = rl.ElementSet.from_elements(g, x)
        assert set_of(xs.translate(shift)) == {o_add(f, e, shift) for e in x}
        assert set_of(xs.negate()) == {o_neg(f, e) for e in x}
        assert rl.progression_differences(xs) == oracle_progression_differences(f, x)
        a, b, s = rand_set(1, 6), rand_set(1, 6), rand_set(0, 3)
        sa, sb, ss = (rl.ElementSet.from_elements(g, e) for e in (a, b, s))
        got = rl.generalized_restricted_sumset(sa, sb, ss)
        assert set_of(got) == oracle_sumset(f, a, b, s)
        for gamma in gammas:
            got = rl.twisted_restricted_sumset(sa, sb, ss, gamma)
            assert set_of(got) == oracle_sumset(f, a, b, s, gamma)
    # an arithmetic progression, a coset of a small cyclic subgroup, subgroups
    q = els[int(rng.integers(1, g.order))]
    prog = [els[0]]
    for _ in range(min(5, g.order - 1)):
        prog.append(o_add(f, prog[-1], q))
    step = next(e for e in els if len(_multiples(f, e)) == g.least_prime)
    coset = [o_add(f, q, y) for y in _multiples(f, step)]
    for x in (prog, coset, _multiples(f, q), _multiples(f, step), [els[0]], els):
        xs = rl.ElementSet.from_elements(g, x)
        assert rl.progression_differences(xs) == oracle_progression_differences(f, x)
        assert rl.is_subgroup_set(xs) == oracle_is_subgroup(f, x)
    for _ in range(20):
        x = rand_set(1, 6)
        xs = rl.ElementSet.from_elements(g, x)
        assert rl.is_subgroup_set(xs) == oracle_is_subgroup(f, x)


@pytest.mark.parametrize("name", [
    "Z2", "Z12", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z2xZ3xZ5", "Z521", "Z2xZ263",
])
def test_translate_matches_tuple_arithmetic(name):
    # the last two lie above the table limit, where the digit masks are
    # computed per call instead of stored
    g = rl.parse_group(name)
    f = g.factors
    els = o_elements(f)
    t = index_table(g)
    rng = np.random.default_rng(g.order)
    small = g.order <= INDEX_TABLE_LIMIT
    for j in range(g.order) if small else rng.choice(g.order, 40, replace=False).tolist():
        for _ in range(8 if small else 2):
            x = rng.choice(g.order, int(rng.integers(0, g.order + 1)), replace=False).tolist()
            bits = sum(1 << i for i in x)
            want = sum(1 << o_index(f, o_add(f, els[i], els[j])) for i in x)
            assert t.translate(bits, j) == want, (j, x)


def test_translate_at_the_default_max_order():
    g = rl.parse_group("Z2xZ524288")
    assert g.order == rl.DEFAULT_MAX_ORDER
    x = [(0, 0), (0, 524287), (1, 5), (1, 524286)]
    shift = (1, 3)
    f = g.factors
    bits = sum(1 << o_index(f, e) for e in x)
    want = sum(1 << o_index(f, o_add(f, e, shift)) for e in x)
    assert index_table(g).translate(bits, o_index(f, shift)) == want


def _multiples(f, q):
    out = [tuple(0 for _ in f)]
    while (nxt := o_add(f, out[-1], q)) != out[0]:
        out.append(nxt)
    return out


def test_index_table_array_matches_lists():
    for name in GROUP_MATRIX:
        t = index_table(rl.parse_group(name))
        arr = t.add_array()
        assert arr.dtype == np.int64 and arr.shape == (t.order, t.order)
        assert arr.tolist() == t.add


def test_translate_rejects_malformed_shift():
    g = rl.parse_group("Z2xZ4")
    x = rl.parse_set(g, "{(0,0),(1,3)}")
    for bad in ((1,), (2, 0), (0, 4), (0, -1)):
        with pytest.raises(rl.GroupError):
            x.translate(bad)
