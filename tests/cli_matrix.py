"""Run every rsumlab subcommand under every --format on seeded inputs over every
abelian group of order <= 8, and hash the exit codes, stdout and stderr.

Two trees whose hashes agree gave the same bytes on every run, so a rewrite
of the command line can be checked against the tree it replaces:

    PYTHONPATH=src python tests/cli_matrix.py DUMP.jsonl

writes one JSON line per run (argv, then [exit code, stdout, stderr], plus
the file's contents for --out runs) to DUMP.jsonl and prints the run count,
the exit codes and the sha256 of the dump.  Besides the seeded runs it
covers every --help, --out, and a good and a bad RSUMLAB_THREADS.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from collections import Counter

from rsumlab import abelian_groups_up_to, all_subgroups, format_group, format_set
from rsumlab.cli import FORMATS, main

KINDS = ["cd", "kneser", "eh", "anr", "karolyi", "bw", "pansun", "thm1", "ppow", "thm2",
         "prop34", "twisted"]
COMMANDS = ("sumset", "verify", "search", "decompose", "stabilizer", "classify", "sdr")


def _literal(g, rng, k: int) -> str:
    els = list(g.elements())
    picked = [els[i] for i in sorted(rng.sample(range(len(els)), k))]
    if g.rank == 1:
        return "{" + ",".join(str(e[0]) for e in picked) + "}"
    return "{" + ",".join("(" + ",".join(map(str, e)) + ")" for e in picked) + "}"


def _sweep_size_flags(rng, s_min: int) -> list[str]:
    return ["--max-a", str(rng.randint(1, 3)), "--max-b", str(rng.randint(1, 3)),
            "--max-s", str(rng.randint(s_min, 2))]


def cases() -> list[list[str]]:
    """The argv of every run but --format, in a fixed order."""
    rng = random.Random(20261020)
    out = [["--help"], []] + [[c, "--help"] for c in COMMANDS]
    for g in abelian_groups_up_to(8):
        n = g.order
        grp = ["--group", format_group(g)]
        for i in range(8):
            argv = ["sumset", *grp, "--A", _literal(g, rng, rng.randint(1, n)),
                    "--B", _literal(g, rng, rng.randint(1 if i else 0, n))]
            if rng.random() < 0.7:
                argv += ["--S", _literal(g, rng, rng.randint(0, n))]
            if rng.random() < 0.4:
                argv += ["--gamma", str(rng.randint(0, n))]
            out.append(argv)
        for _ in range(6):
            argv = ["verify", *grp]
            for kind in rng.sample(KINDS + ["all"], rng.randint(1, 3)):
                argv += ["--bound", kind]
            argv += _sweep_size_flags(rng, 0) + ["--no-timing"]
            if rng.random() < 0.5:
                argv += ["--max-witnesses", str(rng.choice([0, 1, 3, 100]))]
            for flag in ("--prune", "--no-tight", "--canonicalize"):
                if rng.random() < 0.2:
                    argv.append(flag)
            if rng.random() < 0.2:
                argv += ["--sample", "40", "--seed", str(rng.randint(0, 9))]
            if rng.random() < 0.3:
                argv += ["--gamma", rng.choice(["all", str(rng.randint(-1, n))])]
            if rng.random() < 0.2:
                argv += ["--shards", str(rng.randint(0, 3))]
            out.append(argv)
        for _ in range(5):
            argv = ["search", *grp, "--bound", rng.choice(KINDS),
                    "--mode", rng.choice(["tight", "counterexample"]), *_sweep_size_flags(rng, 1)]
            if rng.random() < 0.5:
                argv += ["--max-witnesses", str(rng.choice([0, 2, 5]))]
            if rng.random() < 0.3:
                argv += ["--gamma", rng.choice(["all", str(rng.randint(-1, n))])]
            if rng.random() < 0.2:
                argv += ["--sample", "30", "--seed", "1"]
            out.append(argv)
        for kind in ("anr", "eh", "cd", "kneser"):
            out.append(["search", *grp, "--bound", kind, "--mode", "counterexample",
                        "--max-a", "2", "--max-b", "2", "--max-witnesses", "3"])
        out.append(["verify", *grp, "--bound", "thm1", "--bound", "kneser", "--max-a", "2",
                    "--max-witnesses", "0", "--no-timing"])
        subgroups = all_subgroups(g)
        for _ in range(3):
            h = format_set(rng.choice(subgroups).members)
            out.append(["decompose", *grp, "--set", _literal(g, rng, rng.randint(0, n)),
                        "--subgroup", h])
        out.append(["decompose", *grp, "--set", _literal(g, rng, 2),
                    "--subgroup", _literal(g, rng, 2)])
        for _ in range(3):
            out.append(["stabilizer", *grp, "--set", _literal(g, rng, rng.randint(0, n))])
        out.append(["stabilizer", *grp, "--set", format_set(rng.choice(subgroups).members)])
        for _ in range(16):
            out.append(["classify", *grp, "--A", _literal(g, rng, rng.randint(1, min(3, n))),
                        "--B", _literal(g, rng, rng.randint(1, min(3, n)))])
        for i in range(20):
            variant = ["lemma22", "lemma33", "lemma32"][i % 3]
            argv = ["sdr", *grp, "--A", _literal(g, rng, rng.randint(1, n)),
                    "--B", _literal(g, rng, rng.randint(1, n)), "--variant", variant]
            if variant != "lemma32" or i == 2:
                argv += ["--S", _literal(g, rng, rng.randint(0 if i < 3 else 1, 2))]
            out.append(argv)
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def records(out_path: str) -> list[dict]:
    recs = []
    for argv in cases():
        helped = not argv or "--help" in argv
        for fmt in [None] if helped else FORMATS:
            full = argv + ([] if fmt is None else ["--format", fmt])
            recs.append({"argv": full, "r": run(full)})
        if argv and argv[0] in ("sumset", "stabilizer") and not helped:
            code, out, err = run(argv + ["--format", "json", "--out", out_path])
            data = None
            if os.path.exists(out_path):
                with open(out_path) as fh:
                    data = fh.read()
                os.remove(out_path)
            recs.append({"argv": argv + ["--format", "json", "--out", "F"],
                         "r": [code, out, err, data]})
    saved = os.environ.get("RSUMLAB_THREADS")
    try:
        os.environ["RSUMLAB_THREADS"] = "x2"
        for command in ("verify", "search"):
            argv = [command, "--group", "Z5", "--bound", "anr"]
            recs.append({"argv": ["RSUMLAB_THREADS=x2", *argv], "r": run(argv)})
        os.environ["RSUMLAB_THREADS"] = "2"
        argv = ["verify", "--group", "Z7", "--bound", "thm1", "--no-timing", "--format", "json"]
        recs.append({"argv": ["RSUMLAB_THREADS=2", *argv], "r": run(argv)})
    finally:
        if saved is None:
            os.environ.pop("RSUMLAB_THREADS", None)
        else:
            os.environ["RSUMLAB_THREADS"] = saved
    return recs


if __name__ == "__main__":
    dump = sys.argv[1]
    recs = records(dump + ".out")
    blob = "".join(json.dumps(r, sort_keys=True) + "\n" for r in recs)
    with open(dump, "w") as fh:
        fh.write(blob)
    codes = Counter(r["r"][0] for r in recs)
    print(f"{len(recs)} runs; exit codes {sorted(codes.items())}; "
          f"sha256 {hashlib.sha256(blob.encode()).hexdigest()}")
