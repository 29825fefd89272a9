"""Record the exhaustive workloads' reference outputs into reference.json.

    python3 perfbench/make_reference.py

Run it only on a commit whose sweep results are trusted; the benchmark's
oracle compares every later run against what it writes.  The file holds one
sweep per line, keyed "<scale>/<workload>/<group>".
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    reference = {}
    for scale in workloads.SCALES:
        for name in workloads.WORKLOADS:
            if name == "scalar_lib":
                continue
            subs = workloads.setup(workloads.groups_for(name, scale))
            for call in workloads.build_calls(name, scale, 0, subs, {}):
                summary = workloads.LIB.exhaustive_verify(*call.args, **call.kwargs)
                key = f"{scale}/{name}/{workloads.format_group(call.args[0].group)}"
                reference[key] = oracle.sweep_fields(summary)
                print(key, "recorded", file=sys.stderr)
    lines = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(reference.items()))
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
