"""Output oracle: every check returns a list of problems, empty when the output is right.

Exhaustive sweeps are compared with reference values recorded from the seed
code (``reference.json``): the planned check count, the violation and tight
counts and the witness rows.  ``triples_checked`` is deliberately not
compared, since its meaning is due to change.  Everything else is validated
independently, with the benchmark's own brute-force arithmetic on coordinate
tuples (mixed radix, first factor most significant).
"""

from __future__ import annotations

from rsumlab import bounds
from rsumlab.structure import ArithmeticPair, SdrVariant, Singleton


def sweep_fields(summary) -> dict:
    def rows(reports):
        return [[r["kind"], r["A"], r["B"], r["S"], r["gamma"], r["lhs"], r["rhs"]]
                for r in (rep.to_row() for rep in reports)]

    return {
        "checks_planned": summary.checks_planned,
        "violation_count": summary.violation_count,
        "tight_count": summary.tight_count,
        "violations": rows(summary.violations),
        "tight": rows(summary.tight),
    }


def check_sweep(ref: dict | None, planned: int, summary) -> list[str]:
    if ref is None:
        return ["no reference recorded for this sweep"]
    got = sweep_fields(summary)
    problems = [f"{key}: got {got[key]!r:.200}, reference {ref[key]!r:.200}"
                for key in ref if got[key] != ref[key]]
    if summary.checks_planned != planned:
        problems.append(f"checks_planned {summary.checks_planned} != recomputed {planned}")
    return problems


def check_sampled(planned: int, summary) -> list[str]:
    """Sampled sweeps: every bound is a theorem, and every reported row re-checks."""
    problems = []
    if summary.checks_planned != planned:
        problems.append(f"checks_planned {summary.checks_planned} != recomputed {planned}")
    if summary.violation_count:
        problems.append(f"{summary.violation_count} violations of proven bounds")
    if summary.tight_count < len(summary.tight):
        problems.append("tight_count below the number of tight rows")
    for row in list(summary.violations) + list(summary.tight):
        g = row.a.group
        rep = bounds.check_triple(g, row.a, row.b, row.s, row.kind, row.gamma)
        op = row.kind.operator.value
        s = {"plain": (), "restricted": (0,)}.get(op, tuple(row.s.indices()))
        gamma = row.gamma if op == "twisted" else 1
        lhs = len(_sumset(g.factors, row.a, row.b, s, gamma))
        if (rep.lhs, rep.rhs, rep.tight, rep.satisfied) != (row.lhs, row.rhs, row.tight,
                                                            row.satisfied):
            problems.append(f"row {row.to_row()} does not re-check: {rep.to_row()}")
        if lhs != row.lhs:
            problems.append(f"row {row.to_row()}: brute-force lhs is {lhs}")
    return problems


def check_sumset(a, b, s, gamma, result) -> list[str]:
    want = _sumset(a.group.factors, a, b, tuple(s.indices()), gamma)
    got = {_decode(a.group.factors, i) for i in result.indices()}
    return [] if got == want else [f"sumset mismatch: {len(got)} vs {len(want)} elements"]


def check_sdr(inst, sol) -> list[str]:
    """Distinct sums outside a_1 + B, positions inside the index windows, a - b not in S."""
    f = inst.group.factors
    h, m = inst.h, inst.m
    lemma32 = inst.variant is SdrVariant.LEMMA32
    expected = {SdrVariant.LEMMA22: m - h - 2, SdrVariant.LEMMA33: m - 3 * h,
                SdrVariant.LEMMA32: m - 1}[inst.variant]
    problems = []
    if len(sol.pairs) != expected:
        problems.append(f"{len(sol.pairs)} pairs, expected {expected}")
    s = {_decode(f, i) for i in inst.s.indices()}
    excluded = {_add(f, inst.a[0], b) for b in inst.b}
    sums = []
    for k, (i, j) in enumerate(sol.pairs, start=2 if lemma32 else 1):
        if inst.variant is SdrVariant.LEMMA22:
            window = set(range(2, h + 3)) | {k + h + 2}
        elif inst.variant is SdrVariant.LEMMA33:
            window = set(range(2, 3 * h + 1)) | {k + 3 * h}
        else:
            window = {k}
        if i not in window or not 1 <= j <= inst.n:
            problems.append(f"pair {k} = ({i}, {j}) outside its index window")
            continue
        a, b = inst.a[i - 1], inst.b[j - 1]
        total = _add(f, a, b)
        if total in excluded:
            problems.append(f"pair {k}: sum inside a_1 + B")
        if not lemma32 and _add(f, a, _neg(f, b)) in s:
            problems.append(f"pair {k}: a - b in S")
        sums.append(total)
    if len(set(sums)) != len(sums):
        problems.append("sums are not distinct")
    return problems


def check_classes(a, b, d: int, classes) -> list[str]:
    """A and B are progressions with common difference d, built that way."""
    if not classes:
        return ["empty classification"]
    problems = []
    for side, x in (("A", a), ("B", b)):
        if (Singleton(side=side) in classes) != (x.size == 1):
            problems.append(f"singleton class for side {side} wrong")
    if not any(isinstance(c, ArithmeticPair) and c.difference == (d,) for c in classes):
        problems.append(f"common difference {d} missing")
    return problems


def check_fiber_spread(a, k1, k2, report) -> list[str]:
    f = a.group.factors
    counts = (_coset_count(f, a, k1), _coset_count(f, a, k2))
    problems = []
    if (report.count1, report.count2) != counts:
        problems.append(f"coset counts {(report.count1, report.count2)} != {counts}")
    if not report.ok or max(counts) ** 2 < a.size:
        problems.append("pigeonhole bound fails")
    return problems


def check_stabilizer(x, h) -> list[str]:
    f = x.group.factors
    xs = _elements(f, x)
    want = {g for g in _all_elements(f) if {_add(f, e, g) for e in xs} == xs}
    got = _elements(f, h.members)
    return [] if got == want and h.order == len(want) else [f"stabilizer {got} != {want}"]


def check_coset_decomposition(x, h, dec) -> list[str]:
    f = x.group.factors
    hs = _elements(f, h.members)
    cosets = {frozenset(_add(f, e, y) for y in hs) for e in _elements(f, x)}
    rebuilt, reps = set(), set()
    problems = []
    for rep, fiber in dec.parts:
        fs = _elements(f, fiber)
        if not fs or (0,) * len(f) not in fs or not fs <= hs:
            problems.append(f"fiber of {rep} is not a subset of H containing 0")
        reps.add(frozenset(_add(f, rep, y) for y in hs))
        rebuilt |= {_add(f, rep, e) for e in fs}
    if rebuilt != _elements(f, x):
        problems.append("parts do not rebuild X")
    if len(reps) != len(dec.parts) or reps != cosets:
        problems.append("representatives are not one per coset meeting X")
    return problems


# -- brute-force arithmetic on coordinate tuples --------------------------------


def _decode(factors, i: int) -> tuple:
    coords = []
    for n in reversed(factors):
        i, c = divmod(i, n)
        coords.append(c)
    return tuple(reversed(coords))


def _elements(factors, x) -> set:
    return {_decode(factors, i) for i in x.indices()}


def _all_elements(factors):
    size = 1
    for n in factors:
        size *= n
    return [_decode(factors, i) for i in range(size)]


def _add(factors, x, y) -> tuple:
    return tuple((a + b) % n for a, b, n in zip(x, y, factors))


def _neg(factors, x) -> tuple:
    return tuple(-a % n for a, n in zip(x, factors))


def _sumset(factors, a, b, s_indices, gamma: int) -> set:
    """{x + y : x in A, y in B, x - gamma*y not in S}."""
    s = {_decode(factors, i) for i in s_indices}
    bs = _elements(factors, b)
    return {
        _add(factors, x, y)
        for x in _elements(factors, a)
        for y in bs
        if _add(factors, x, _neg(factors, tuple(gamma * c for c in y))) not in s
    }


def _coset_count(factors, a, k) -> int:
    ks = _elements(factors, k.members)
    return len({frozenset(_add(factors, e, y) for y in ks) for e in _elements(factors, a)})
