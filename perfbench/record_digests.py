"""Record the gate-prefix digests of every workload for a range of seeds.

    python3 perfbench/record_digests.py [FIRST LAST]     (default 0 19)

Writes perfbench/digests.json, which run.py compares against. Re-record
only when the benchmark's inputs change on purpose: a change in the
program's exact output must show up as a mismatch, not be recorded over.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 19)
    run._import_program()
    from workloads import WORKLOADS

    out = {}
    for name, wl in sorted(WORKLOADS.items()):
        out[name] = {}
        for seed in range(first, last + 1):
            loop = run.closed_loop(wl, wl.instances(seed), 0, run.GATE[name])
            if loop["failures"]:
                raise SystemExit(f"{name} seed {seed}: failures {loop['failures'][:3]}")
            out[name][str(seed)] = loop["digests"]
    run.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
