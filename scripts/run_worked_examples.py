#!/usr/bin/env python3
"""Recompute the six worked fixtures and compare against the frozen values.

Exit status is 0 when every fixture reproduces, 1 otherwise.
"""

import argparse
import json
import sys

from diffrad.examples import FIXTURES, run_all


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="fixture names to run (default: all)",
    )
    parser.add_argument("--json", action="store_true", help="machine output")
    args = parser.parse_args(argv)

    try:
        results = run_all(args.names or None)
    except KeyError as exc:
        known = ", ".join(f.name for f in FIXTURES)
        parser.error(f"{exc.args[0]} (known: {known})")
    failed = [r for r in results if r.mismatches]

    if args.json:
        doc = [
            {
                "name": r.name,
                "ok": not r.mismatches,
                "values": {k: str(v) for k, v in r.values.items()},
                "mismatches": r.mismatches,
            }
            for r in results
        ]
        print(json.dumps(doc, indent=2))
        return 1 if failed else 0

    width = max(len(r.name) for r in results)
    for r in results:
        status = "FAIL" if r.mismatches else "ok"
        print(f"{r.name:<{width}}  {status}")
        for key in sorted(r.values):
            print(f"  {key} = {r.values[key]}")
        for msg in r.mismatches:
            print(f"  !! {msg}")
    print(f"{len(results) - len(failed)}/{len(results)} fixtures reproduced")
    for r in failed:
        print(f"expected values drifted: {r.name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
