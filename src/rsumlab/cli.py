"""Command-line front end: sumset evaluation, bound sweeps, and the
constructive subcommands (decompose, classify, sdr, stabilizer).

All data goes to stdout (or --out); diagnostics go to stderr.  Exit codes:
0 success / zero violations, 1 violations or a failed guaranteed
construction, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import (
    ALL_KINDS,
    DEFAULT_MAX_WITNESSES,
    DEFAULT_WORK_CEILING,
    BoundKind,
    WorkCeilingExceeded,
    default_gammas,
    exhaustive_verify,
    kind_from_name,
    search_witnesses,
    witness_csv,
)
from .engine import generalized_restricted_sumset, twisted_restricted_sumset
from .groups import GroupError, format_element, format_group, parse_group
from .sets import ElementSet, EnumerationPlan, format_set, parse_set
from .structure import (
    EmptyClassification,
    HypothesisViolation,
    LemmaViolation,
    ArithmeticPair,
    CosetPair,
    SdrInstance,
    SdrVariant,
    Singleton,
    classify_critical_pair,
    coset_decompose,
    sdr_select,
    stabilizer,
)
from .subgroups import Subgroup

FORMATS = ("text", "json", "csv")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--group", required=True, help="group spec, e.g. Z7 or Z2xZ4")
    p.add_argument("--format", choices=FORMATS, default="text", help="output format")
    p.add_argument("--out", help="write data output to this file instead of stdout")


def _plan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-a", type=int, default=1)
    p.add_argument("--max-a", type=int, default=None)
    p.add_argument("--min-b", type=int, default=1)
    p.add_argument("--max-b", type=int, default=None)
    p.add_argument("--min-s", type=int, default=None)
    p.add_argument("--max-s", type=int, default=None)
    p.add_argument("--canonicalize", action="store_true",
                   help="A is enumerated or drawn among the sets containing element 0")
    p.add_argument("--canonicalize-s", action="store_true",
                   help="a non-empty S is enumerated or drawn among the sets containing "
                        "element 0")
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="seeded random sampling instead of exhaustive enumeration")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of a --sample sweep (default 0)")
    p.add_argument("--gamma", action="append", default=None, metavar="G",
                   help="twist scalar(s) for the twisted bound; repeatable, or 'all' "
                        "for every gamma but 0 and -1 (the default)")
    p.add_argument("--shards", type=int, default=None,
                   help="split the sweep into N shards (default: the thread count)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (default: RSUMLAB_THREADS or 1)")
    p.add_argument("--work-ceiling", type=int, default=DEFAULT_WORK_CEILING)
    p.add_argument("--max-witnesses", type=int, default=DEFAULT_MAX_WITNESSES)
    p.add_argument("--no-timing", action="store_true",
                   help="report elapsed_ms as 0 for byte-reproducible output")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rsumlab",
        description="Generalized restricted sumsets A +_S B over finite abelian groups: "
                    "evaluate them, verify cardinality lower bounds exhaustively, and run "
                    "the constructive procedures behind them.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "sumset",
        help="evaluate A+B, A(+)B, A +_S B, or the gamma-twisted variant",
        description="Evaluate a sumset: plain A+B when S is omitted, the generalized "
                    "restricted sumset {a+b : a-b not in S} when S is given, or "
                    "{a+b : a-gamma*b not in S} when --gamma is set.",
    )
    _add_common(p)
    p.add_argument("--A", required=True, help="set literal, e.g. {1,2,3}")
    p.add_argument("--B", required=True)
    p.add_argument("--S", default=None, help="restriction set literal (omit for plain sumset)")
    p.add_argument("--gamma", type=int, default=None, help="twist scalar (prime groups only)")

    p = sub.add_parser(
        "verify",
        help="exhaustively verify bound kinds over all size-constrained triples",
        description="Sweep (A,B,S) triples and check the selected cardinality lower bounds: "
                    "cd/kneser (Cauchy-Davenport forms), eh/anr/karolyi/bw (restricted "
                    "sumsets), pansun/thm1/ppow/thm2/prop34 (generalized restricted "
                    "sumsets), twisted (a - gamma*b constraint). Exit 1 if any violation.",
    )
    _add_common(p)
    p.add_argument("--bound", action="append", required=True,
                   help="bound kind name or 'all'; repeatable")
    _plan_flags(p)
    p.add_argument("--no-tight", action="store_true", help="do not collect tight witnesses")
    p.add_argument("--prune", action="store_true",
                   help="skip size classes settled by the trivial bound (disables tight lists)")

    p = sub.add_parser(
        "search",
        help="search for tightness witnesses or hypothesis-dropped counterexamples",
        description="Tight mode lists triple witnesses achieving equality in a bound; "
                    "counterexample mode drops the bound's hypotheses and lists formula "
                    "violations (an empty result is a valid outcome).",
    )
    _add_common(p)
    p.add_argument("--bound", required=True, help="bound kind name")
    p.add_argument("--mode", choices=("tight", "counterexample"), default="tight")
    _plan_flags(p)

    p = sub.add_parser(
        "decompose",
        help="decompose a set into fibers over the cosets of a subgroup",
        description="Write X as a disjoint union of parts rep + fiber over the subgroup's "
                    "cosets, fibers sorted by descending size.",
    )
    _add_common(p)
    p.add_argument("--set", required=True, dest="xset", help="set literal to decompose")
    p.add_argument("--subgroup", required=True, help="subgroup member set literal")

    p = sub.add_parser(
        "stabilizer",
        help="compute the period {g : g + X = X} of a set",
        description="The stabilizer (period) subgroup underlying the Kneser bound.",
    )
    _add_common(p)
    p.add_argument("--set", required=True, dest="xset")

    p = sub.add_parser(
        "classify",
        help="classify a critical pair |A+B| = |A|+|B|-1",
        description="Report every matching inverse-theorem class: singleton side, "
                    "progressions with a common difference, or both sets inside cosets "
                    "of one subgroup of prime order p(G).",
    )
    _add_common(p)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)

    p = sub.add_parser(
        "sdr",
        help="select distinct representative sums via Hall-type matching",
        description="Choose distinct sums a_i + b_j outside a_1 + B, one per position, "
                    "with the variant's index windows; a failed matching is reported as a "
                    "lemma violation (exit 1).",
    )
    _add_common(p)
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--S", default=None)
    p.add_argument("--variant", required=True, choices=[v.value for v in SdrVariant])
    return top


class _Output:
    def __init__(self, path: str | None):
        self.path = path
        self.chunks: list[str] = []

    def write(self, text: str) -> None:
        self.chunks.append(text)

    def flush(self) -> None:
        data = "".join(self.chunks)
        if self.path:
            with open(self.path, "w") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data)


def _threads(args) -> int:
    """--threads, else RSUMLAB_THREADS, else 1; the sweep rejects values < 1."""
    if args.threads is not None:
        return args.threads
    env = os.environ.get("RSUMLAB_THREADS")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise GroupError(f"bad RSUMLAB_THREADS value {env!r}") from exc
    return 1


def _parse_kinds(names: list[str], group) -> list[BoundKind]:
    """The named kinds in order; ``all`` leaves out twisted off Z_p, where it has no checks."""
    kinds: list[BoundKind] = []
    for name in names:
        if name == "all":
            kinds.extend(k for k in ALL_KINDS
                         if group.is_prime_cyclic or k is not BoundKind.TWISTED_PAN_SUN)
        else:
            kinds.append(kind_from_name(name))
    return list(dict.fromkeys(kinds))


def _parse_gammas(raw, group) -> list[int] | None:
    if raw is None:
        return None
    out: list[int] = []
    for item in raw:
        if item == "all":
            out.extend(default_gammas(group.order))
        else:
            out.append(int(item))
    return out


def _require_twist_checks(args, group, kinds: list[BoundKind]) -> None:
    """Reject --gamma and the twisted bound where no twisted check can run.

    Off Z_p the sweep has no gammas and would drop the twisted bound without a
    word; without a twisted bound it would drop --gamma the same way.
    """
    twisted = BoundKind.TWISTED_PAN_SUN in kinds
    if not group.is_prime_cyclic and (twisted or args.gamma is not None):
        raise ValueError(
            f"no checks planned for the twisted bound (--gamma or --bound twisted): "
            f"it needs a prime cyclic group, got {format_group(group)}"
        )
    if args.gamma is not None and not twisted:
        raise ValueError("no checks planned for --gamma: it only applies to --bound twisted")


def _build_plan(args, group, kinds) -> EnumerationPlan:
    if args.seed is not None and args.sample is None:
        # an exhaustive sweep draws nothing, so the seed would vanish unread
        raise ValueError("--seed only applies to a --sample sweep")
    s_free = not any(k.reads_s for k in kinds)
    min_s = args.min_s
    max_s = args.max_s
    if min_s is None and max_s is None:
        min_s, max_s = (0, 0) if s_free else (1, 1)
    elif min_s is None:
        min_s = 0 if max_s == 0 else 1
    elif max_s is None:
        max_s = max(min_s, 1)
    return EnumerationPlan(
        group=group,
        a_min=args.min_a,
        a_max=args.max_a,
        b_min=args.min_b,
        b_max=args.max_b,
        s_min=min_s,
        s_max=max_s,
        mode="exhaustive" if args.sample is None else "sampled",
        sample_count=args.sample,
        seed=args.seed,
        canonicalize=args.canonicalize,
        canonicalize_s=args.canonicalize_s,
    )


def _emit_summary(summary, args, out: _Output) -> None:
    include_timing = not args.no_timing
    if args.format == "json":
        out.write(summary.to_json(include_timing=include_timing) + "\n")
    elif args.format == "csv":
        out.write(summary.to_csv())
    else:
        d = summary.to_json_dict(include_timing=include_timing)
        out.write(
            f"group={d['group']} kinds={','.join(d['kinds'])} "
            f"triples={d['triples_checked']} checks={d['checks_planned']} "
            f"violations={d['violation_count']} tight={d['tight_count']} "
            f"elapsed_ms={d['elapsed_ms']}\n"
        )
        for row in d["violations"]:
            out.write(_row_line("VIOLATION", row))
        for row in d["tight"]:
            out.write(_row_line("TIGHT", row))


def _row_line(tag: str, row: dict) -> str:
    gamma = "-" if row["gamma"] is None else str(row["gamma"])
    return (
        f"{tag} kind={row['kind']} A={row['A']} B={row['B']} S={row['S']} "
        f"gamma={gamma} lhs={row['lhs']} rhs={row['rhs']}\n"
    )


def _cmd_sumset(args, out: _Output) -> int:
    group = parse_group(args.group)
    a = parse_set(group, args.A)
    b = parse_set(group, args.B)
    s = parse_set(group, args.S) if args.S is not None else ElementSet.empty(group)
    if args.gamma is None:
        result = generalized_restricted_sumset(a, b, s)
    else:
        result = twisted_restricted_sumset(a, b, s, args.gamma)
    text = format_set(result)
    if args.format == "json":
        out.write(json.dumps(
            {"group": format_group(group), "result": text, "size": result.size},
            sort_keys=True) + "\n")
    elif args.format == "csv":
        out.write("group,A,B,S,gamma,result,size\n")
        gamma = "" if args.gamma is None else str(args.gamma)
        out.write(f'{format_group(group)},"{format_set(a)}","{format_set(b)}",'
                  f'"{format_set(s)}",{gamma},"{text}",{result.size}\n')
    else:
        out.write(text + "\n")
        out.write(f"size={result.size}\n")
    return 0


def _cmd_verify(args, out: _Output) -> int:
    group = parse_group(args.group)
    kinds = _parse_kinds(args.bound, group)
    _require_twist_checks(args, group, kinds)
    plan = _build_plan(args, group, kinds)
    gammas = _parse_gammas(args.gamma, group)
    threads = _threads(args)
    print(f"estimated triples: {plan.count_triples()}", file=sys.stderr)
    summary = exhaustive_verify(
        plan,
        kinds,
        gammas=gammas,
        max_witnesses=args.max_witnesses,
        work_ceiling=args.work_ceiling,
        collect_tight=not args.no_tight,
        prune=args.prune,
        shard_count=threads if args.shards is None else args.shards,
        threads=threads,
    )
    _emit_summary(summary, args, out)
    return 0 if summary.ok else 1


def _cmd_search(args, out: _Output) -> int:
    group = parse_group(args.group)
    kind = kind_from_name(args.bound)
    _require_twist_checks(args, group, [kind])
    plan = _build_plan(args, group, [kind])
    gammas = _parse_gammas(args.gamma, group)
    threads = _threads(args)
    print(f"estimated triples: {plan.count_triples()}", file=sys.stderr)
    reports = search_witnesses(
        plan,
        kind,
        mode=args.mode,
        gammas=gammas,
        max_witnesses=args.max_witnesses,
        work_ceiling=args.work_ceiling,
        shard_count=threads if args.shards is None else args.shards,
        threads=threads,
    )
    rows = [r.to_row() for r in reports]
    if args.format == "json":
        out.write(json.dumps(
            {"group": format_group(group), "kind": kind.value, "mode": args.mode,
             "witnesses": rows},
            sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        out.write(witness_csv(group, rows))
    else:
        tag = "TIGHT" if args.mode == "tight" else "COUNTEREXAMPLE"
        out.write(f"group={format_group(group)} kind={kind.value} mode={args.mode} "
                  f"found={len(rows)}\n")
        for row in rows:
            out.write(_row_line(tag, row))
    if args.mode == "counterexample" and rows:
        return 1
    return 0


def _cmd_decompose(args, out: _Output) -> int:
    group = parse_group(args.group)
    x = parse_set(group, args.xset)
    h = Subgroup.from_set(parse_set(group, args.subgroup))
    dec = coset_decompose(x, h)
    parts = [
        {"rep": format_element(group, rep), "fiber": format_set(fiber), "size": fiber.size}
        for rep, fiber in dec.parts
    ]
    if args.format == "json":
        out.write(json.dumps(
            {"group": format_group(group), "subgroup": format_set(h.members),
             "part_count": dec.part_count, "parts": parts}, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        out.write("rep,fiber,size\n")
        for part in parts:
            out.write(f'"{part["rep"]}","{part["fiber"]}",{part["size"]}\n')
    else:
        out.write(f"subgroup={format_set(h.members)} parts={dec.part_count}\n")
        for part in parts:
            out.write(f'part rep={part["rep"]} fiber={part["fiber"]}\n')
    return 0


def _cmd_stabilizer(args, out: _Output) -> int:
    group = parse_group(args.group)
    x = parse_set(group, args.xset)
    h = stabilizer(x)
    if args.format == "json":
        out.write(json.dumps(
            {"group": format_group(group), "stabilizer": format_set(h.members),
             "order": h.order}, sort_keys=True) + "\n")
    elif args.format == "csv":
        out.write("stabilizer,order\n")
        out.write(f'"{format_set(h.members)}",{h.order}\n')
    else:
        out.write(format_set(h.members) + "\n")
        out.write(f"order={h.order}\n")
    return 0


def _class_row(group, cls) -> dict:
    if isinstance(cls, Singleton):
        return {"type": "singleton", "side": cls.side}
    if isinstance(cls, ArithmeticPair):
        return {
            "type": "progression",
            "difference": format_element(group, cls.difference),
            "a_length": cls.a_length,
            "b_length": cls.b_length,
        }
    assert isinstance(cls, CosetPair)
    return {
        "type": "coset",
        "subgroup": format_set(cls.subgroup.members),
        "a_offset": format_element(group, cls.a_offset),
        "b_offset": format_element(group, cls.b_offset),
    }


def _cmd_classify(args, out: _Output) -> int:
    group = parse_group(args.group)
    a = parse_set(group, args.A)
    b = parse_set(group, args.B)
    classes = classify_critical_pair(a, b)
    rows = [_class_row(group, c) for c in classes]
    if args.format == "json":
        out.write(json.dumps({"group": format_group(group), "classes": rows},
                             sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        out.write("type,detail\n")
        for row in rows:
            detail = ";".join(f"{k}={v}" for k, v in row.items() if k != "type")
            out.write(f'{row["type"]},"{detail}"\n')
    else:
        for row in rows:
            detail = " ".join(f"{k}={v}" for k, v in row.items() if k != "type")
            out.write(f'{row["type"]} {detail}\n')
    return 0


def _cmd_sdr(args, out: _Output) -> int:
    group = parse_group(args.group)
    a = parse_set(group, args.A)
    b = parse_set(group, args.B)
    s = parse_set(group, args.S) if args.S is not None else None
    inst = SdrInstance.from_sets(a, b, s, SdrVariant(args.variant))
    solution = sdr_select(inst)
    pair_rows = [
        {"k": k, "i": i, "j": j, "sum": format_element(group, total)}
        for k, ((i, j), total) in enumerate(zip(solution.pairs, solution.sums), start=1)
    ]
    if args.format == "json":
        out.write(json.dumps(
            {"group": format_group(group), "variant": args.variant,
             "length": len(solution), "pairs": pair_rows}, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        out.write("k,i,j,sum\n")
        for row in pair_rows:
            out.write(f'{row["k"]},{row["i"]},{row["j"]},"{row["sum"]}"\n')
    else:
        out.write(f"variant={args.variant} length={len(solution)}\n")
        for row in pair_rows:
            out.write(f'pair k={row["k"]} i={row["i"]} j={row["j"]} sum={row["sum"]}\n')
    return 0


_COMMANDS = {
    "sumset": _cmd_sumset,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "decompose": _cmd_decompose,
    "stabilizer": _cmd_stabilizer,
    "classify": _cmd_classify,
    "sdr": _cmd_sdr,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = _Output(getattr(args, "out", None))
    try:
        code = _COMMANDS[args.command](args, out)
    except (LemmaViolation, EmptyClassification) as exc:
        print(f"rsumlab: {exc}", file=sys.stderr)
        return 1
    except (GroupError, HypothesisViolation, WorkCeilingExceeded, ValueError) as exc:
        print(f"rsumlab: {exc}", file=sys.stderr)
        return 2
    out.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
