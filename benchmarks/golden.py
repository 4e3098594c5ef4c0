"""SHA-256 digests of the `fntwist flow` files for the README's fixed input.

    python3 benchmarks/golden.py write   # record the digests in golden_sha256.json
    python3 benchmarks/golden.py check   # exit 1 if any file's bytes changed

A change to output formatting shows with `check` that its CSV, JSON and SVG
bytes are unchanged.  This is a tool for such changes, not a workload gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import inputs

DIGESTS = os.path.join(inputs.ROOT, "benchmarks", "golden_sha256.json")
OUT = os.path.join(inputs.OUT, "golden")
# The README's example: fntwist flow --coords 1,1,1,1 --t 1 --steps 100 --proj logX1,logX2
FLOW = ["flow", "--coords", "1,1,1,1", "--t", "1", "--steps", "100", "--proj", "logX1,logX2"]
FILES = {
    "flow.csv": ["--out", os.path.join(OUT, "flow.csv"), "--svg", os.path.join(OUT, "flow.svg")],
    "flow.json": ["--format", "json", "--out", os.path.join(OUT, "flow.json")],
}


def digests() -> dict:
    from workloads import Subprocesses

    os.makedirs(OUT, exist_ok=True)
    runner = Subprocesses()
    for extra in FILES.values():
        run = runner.run(FLOW + extra)
        if run.code != 0:
            raise SystemExit(f"fntwist {' '.join(FLOW + extra)} exited {run.code}: {run.stdout}")
    result = {}
    for name in ("flow.csv", "flow.json", "flow.svg"):
        with open(os.path.join(OUT, name), "rb") as fp:
            result[name] = hashlib.sha256(fp.read()).hexdigest()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("write", "check"))
    args = parser.parse_args(argv)
    inputs.import_fntwist()
    current = digests()
    if args.action == "write":
        with open(DIGESTS, "w") as fp:
            json.dump(current, fp, indent=2, sort_keys=True)
            fp.write("\n")
        print(f"wrote {DIGESTS}")
        return 0
    with open(DIGESTS) as fp:
        recorded = json.load(fp)
    changed = [name for name in recorded if recorded[name] != current.get(name)]
    for name in changed:
        print(f"{name}: {current.get(name)} differs from recorded {recorded[name]}")
    print("golden bytes " + ("changed" if changed else "unchanged"))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
