"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.  Heavy
sweeps that several criteria share are computed once in session fixtures.
Where a sweep cannot fit the default work ceiling (the full Z15 pair sweep
and the Z16 |S|<=3 sweep), the override is explicit and noted inline.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import rsumlab as rl
from rsumlab import _masks
from rsumlab.bounds import BoundKind
from rsumlab.cli import main as cli_main
from test_structure import _all_instances, _random_instances, check_solution


def _gate(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _verify(group, kinds, *, smin=0, smax=0, canonicalize=False, canonicalize_s=False,
            prune=False, ceiling=rl.DEFAULT_WORK_CEILING):
    plan = rl.EnumerationPlan(
        group=group, s_min=smin, s_max=smax,
        canonicalize=canonicalize, canonicalize_s=canonicalize_s,
    )
    return rl.exhaustive_verify(
        plan, kinds, collect_tight=False, prune=prune, work_ceiling=ceiling
    )


@pytest.fixture(scope="session")
def thm_sweep_groups():
    return rl.abelian_groups_up_to(12)


@pytest.fixture(scope="session")
def ppow_sweeps():
    """Shared Lemma-3.1-shaped sweeps: full S on Z4/Z8/Z9, |S|<=3 on Z16.

    The Z16 plan is 2.6e11 planned checks, far over the default ceiling, so
    it runs with translation canonicalization on A and S plus the
    trivial-floor prune (which preserves the violation report exactly).
    """
    out = {}
    for name in ("Z4", "Z8", "Z9"):
        g = rl.parse_group(name)
        out[name] = _verify(g, [BoundKind.PRIME_POWER_S, BoundKind.PROP34],
                            smin=1, smax=g.order)
    g16 = rl.parse_group("Z16")
    out["Z16"] = _verify(
        g16, [BoundKind.PRIME_POWER_S, BoundKind.PROP34], smin=1, smax=3,
        canonicalize=True, canonicalize_s=True, prune=True, ceiling=10 ** 12,
    )
    return out


@pytest.fixture(scope="session")
def thm2_sweeps(thm_sweep_groups):
    return [
        _verify(g, [BoundKind.THM2], smin=1, smax=2, canonicalize=True)
        for g in thm_sweep_groups
    ]


def test_criterion_01_cauchy_davenport_kneser(thm_sweep_groups):
    start = time.perf_counter()
    triples = 0
    violations = 0
    for g in thm_sweep_groups:
        s = _verify(g, [BoundKind.CAUCHY_DAVENPORT, BoundKind.KNESER_CD])
        triples += s.triples_checked
        violations += s.violation_count
    elapsed = time.perf_counter() - start
    _gate(
        1, "cd/kneser order<=12",
        violations == 0 and elapsed < 60,
        f"({len(thm_sweep_groups)} groups, {triples} pairs, {elapsed:.1f}s)",
    )


def test_criterion_02_erdos_heilbronn_karolyi():
    groups = rl.abelian_groups_up_to(13)
    violations = 0
    checked = 0
    for g in groups:
        s = _verify(g, [BoundKind.ERDOS_HEILBRONN, BoundKind.KAROLYI])
        violations += s.violation_count
        checked += s.triples_checked
    _gate(2, "eh/karolyi order<=13", violations == 0,
          f"({len(groups)} groups, {checked} pairs)")


def test_criterion_03_balister_wheeler():
    names = ("Z2xZ2", "Z2xZ4", "Z3xZ3", "Z2xZ2xZ2", "Z15")
    violations = 0
    for name in names:
        g = rl.parse_group(name)
        # the Z15 pair sweep is 1.07e9 checks, just over the default ceiling
        s = _verify(g, [BoundKind.BALISTER_WHEELER], ceiling=2 * 10 ** 9)
        violations += s.violation_count
    _gate(3, "balister-wheeler on listed groups", violations == 0, f"groups={names}")


def test_criterion_04_pan_sun_with_tight_witness():
    violations = 0
    for p in (3, 5, 7, 11):
        g = rl.make_group([p])
        s = _verify(g, [BoundKind.PAN_SUN], smin=1, smax=3, canonicalize=True)
        violations += s.violation_count
    g7 = rl.parse_group("Z7")
    plan = rl.EnumerationPlan(group=g7, s_min=1, s_max=1)
    tights = rl.search_witnesses(plan, BoundKind.PAN_SUN, "tight", max_witnesses=10 ** 6)
    witness = (
        rl.parse_set(g7, "{1,2,3}"), rl.parse_set(g7, "{1,2,3}"), rl.parse_set(g7, "{0}")
    )
    found = any((r.a, r.b, r.s) == witness and r.lhs == r.rhs == 3 for r in tights)
    _gate(4, "pan-sun p<=11 + tight witness", violations == 0 and found,
          f"(witness found={found})")


def test_criterion_05_thm1_order_up_to_12(thm_sweep_groups):
    start = time.perf_counter()
    violations = 0
    triples = 0
    for g in thm_sweep_groups:
        s = _verify(g, [BoundKind.THM1], smin=1, smax=2, canonicalize=True)
        violations += s.violation_count
        triples += s.triples_checked
    elapsed = time.perf_counter() - start
    _gate(5, "thm1 order<=12 |S|<=2", violations == 0 and elapsed < 600,
          f"({triples} triples, {elapsed:.1f}s, default work ceiling)")


def test_criterion_06_prime_power_bound(ppow_sweeps):
    violations = {name: s.violation_count for name, s in ppow_sweeps.items()}
    ppow_only = sum(
        1 for s in ppow_sweeps.values() for r in s.violations
        if r.kind is BoundKind.PRIME_POWER_S
    )
    _gate(6, "prime-power 2|S|+1 bound on Z4/Z8/Z9/Z16",
          all(v == 0 for v in violations.values()) and ppow_only == 0,
          f"violations={violations}")


def test_criterion_07_thm2_prop34(thm2_sweeps, ppow_sweeps):
    violations = sum(s.violation_count for s in thm2_sweeps)
    violations += sum(
        1 for s in ppow_sweeps.values() for r in s.violations if r.kind is BoundKind.PROP34
    )
    # non-vacuity: at |S| = 1 the floors are 1, so every non-empty pair applies
    g = rl.parse_group("Z8")
    a = rl.parse_set(g, "{0,1}")
    s1 = rl.parse_set(g, "{3}")
    assert rl.applicability(BoundKind.THM2, g, a, a, s1)[0]
    assert rl.applicability(BoundKind.PROP34, g, a, a, s1)[0]
    _gate(7, "thm2/prop34 wherever applicable", violations == 0,
          "(thm2 over order<=12 sweeps, prop34 over prime-power sweeps)")


def test_criterion_08_twisted():
    violations = 0
    checks = 0
    for name in ("Z5", "Z7"):
        g = rl.parse_group(name)
        plan = rl.EnumerationPlan(group=g, s_min=1, s_max=2)
        s = rl.exhaustive_verify(plan, [BoundKind.TWISTED_PAN_SUN], collect_tight=False)
        assert s.gammas == tuple(range(1, g.order - 1))  # all gamma not in {0, -1}
        violations += s.violation_count
        checks += s.checks_planned
    _gate(8, "twisted bound on Z5/Z7 all gamma", violations == 0, f"({checks} checks)")


def test_criterion_09_sdr_construction():
    runs = 0
    lemma_violations = 0
    for name in ("Z5", "Z7"):
        g = rl.parse_group(name)
        for variant in rl.SdrVariant:
            for inst in _all_instances(g, variant, h=1):
                try:
                    sol = rl.sdr_select(inst)
                except rl.LemmaViolation:
                    lemma_violations += 1
                    continue
                check_solution(inst, sol)
                runs += 1
    groups = [rl.parse_group("Z11"), rl.parse_group("Z13")]
    for inst in _random_instances(groups, count=10_000, seed=20260810):
        try:
            sol = rl.sdr_select(inst)
        except rl.LemmaViolation:
            lemma_violations += 1
            continue
        check_solution(inst, sol)
        runs += 1
    _gate(9, "sdr selection (exhaustive Z5/Z7 h=1 + 1e4 random Z11/Z13)",
          lemma_violations == 0, f"({runs} instances, {lemma_violations} failures)")


def test_criterion_10_critical_pair_classifier():
    total = 0
    empty = 0
    groups = [rl.make_group([p]) for p in (2, 3, 5, 7, 11, 13)] + [rl.parse_group("Z3xZ3")]
    for g in groups:
        t = _masks.tables_for(g)
        sizes = t.pops.astype(np.int64)
        p = g.least_prime
        n = g.order
        for abits in range(1, 1 << n):
            u = _masks.union_table(t.cmasks_general(abits), n)
            m = int(sizes[abits])
            card = sizes[u]
            crit = (card == m + sizes - 1) & (card <= p - 1) & (sizes > 0)
            crit[0] = False
            for bbits in np.nonzero(crit)[0]:
                a = rl.ElementSet(g, abits)
                b = rl.ElementSet(g, int(bbits))
                try:
                    classes = rl.classify_critical_pair(a, b)
                except rl.EmptyClassification:
                    empty += 1
                    continue
                assert classes
                total += 1
    _gate(10, "critical-pair classifier p<=13 and Z3xZ3", empty == 0,
          f"({total} critical pairs, {empty} unclassified)")


def test_criterion_11_fiber_spread():
    checked = 0
    failures = 0
    rng = np.random.default_rng(8)
    for g in rl.abelian_groups_up_to(16):
        subs = rl.all_subgroups(g)
        splittings = [
            (k1, k2)
            for i, k1 in enumerate(subs)
            for k2 in subs[i:]
            if 1 < k1.order and 1 < k2.order
            and k1.order * k2.order == g.order
            and k1.members.intersect(k2.members).size == 1
        ]
        if not splittings:
            continue
        t = _masks.tables_for(g)
        n = g.order
        sizes = t.pops.astype(np.int64)
        for k1, k2 in splittings:
            cos1 = _coset_index_array(g, k1)
            cos2 = _coset_index_array(g, k2)
            h1 = _masks.union_table((1 << cos1).astype(np.uint32), n)
            h2 = _masks.union_table((1 << cos2).astype(np.uint32), n)
            c1 = t.pops[h1].astype(np.int64)
            c2 = t.pops[h2].astype(np.int64)
            top = np.maximum(c1, c2)[1:]
            ok = top * top >= sizes[1:]
            failures += int(np.count_nonzero(~ok))
            checked += ok.size
            # cross-check a few masks against the public scalar operation
            for bits in rng.integers(1, 1 << n, size=5):
                rep = rl.fiber_spread_check(rl.ElementSet(g, int(bits)), k1, k2)
                assert (rep.count1, rep.count2) == (int(c1[bits]), int(c2[bits]))
                assert rep.ok
    _gate(11, "fiber spread over direct sums order<=16", failures == 0,
          f"({checked} set/splitting checks)")


def _coset_index_array(g, k):
    n = g.order
    ids = [-1] * n
    compact = []
    for i in range(n):
        if ids[i] >= 0:
            continue
        coset = k.members.translate(g.index_element(i))
        cid = len(compact)
        compact.append(i)
        for j in coset.indices():
            ids[j] = cid
    return np.array(ids, dtype=np.int64)


def test_criterion_12_metamorphic_suite(group_matrix):
    rng = np.random.default_rng(20260810)
    failures = 0
    count = 100_000
    for i in range(count):
        g = group_matrix[i % len(group_matrix)]
        n = g.order
        ka = int(rng.integers(1, n + 1))
        kb = int(rng.integers(1, n + 1))
        ks = int(rng.integers(0, n + 1))
        a = rl.ElementSet.from_indices(g, (int(x) for x in rng.choice(n, ka, replace=False)))
        b = rl.ElementSet.from_indices(g, (int(x) for x in rng.choice(n, kb, replace=False)))
        s = rl.ElementSet.from_indices(g, (int(x) for x in rng.choice(n, ks, replace=False)))
        base = rl.generalized_restricted_sumset(a, b, s).size
        # duality: negate both operands, swap, keep S
        if rl.generalized_restricted_sumset(b.negate(), a.negate(), s).size != base:
            failures += 1
        # negation: negate everything including S
        if rl.generalized_restricted_sumset(a.negate(), b.negate(), s.negate()).size != base:
            failures += 1
        # translation
        ge = g.index_element(int(rng.integers(n)))
        he = g.index_element(int(rng.integers(n)))
        shift = g.sub(ge, he)
        moved = rl.generalized_restricted_sumset(
            a.translate(ge), b.translate(he), s.translate(shift)
        ).size
        if moved != base:
            failures += 1
        # unit scaling
        units = [u for u in range(1, n) if np.gcd(u, n) == 1]
        u = units[int(rng.integers(len(units)))]
        mapping = lambda e: g.scale(u, e)
        scaled = rl.generalized_restricted_sumset(
            a.image_under(mapping), b.image_under(mapping), s.image_under(mapping)
        ).size
        if scaled != base:
            failures += 1
    _gate(12, "metamorphic invariances on 1e5 random triples", failures == 0,
          f"({count} triples x 4 relations, {failures} failures)")


def test_criterion_13_shard_determinism(tmp_path):
    outputs = []
    for shards in (1, 2, 8):
        path = tmp_path / f"out{shards}.json"
        code = cli_main([
            "verify", "--group", "Z2xZ4", "--bound", "thm1", "--bound", "kneser",
            "--max-s", "2", "--format", "json", "--no-timing",
            "--shards", str(shards), "--out", str(path),
        ])
        assert code == 0
        outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    _gate(13, "verify byte-identical across shard counts {1,2,8}", identical,
          f"({len(outputs[0])} bytes)")
