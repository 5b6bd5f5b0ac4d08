"""Write bench/reference.json: the work each workload must do.

    python3 bench/make_reference.py --seeds 0-31

For every workload this records the record count and the records per
family, which must not depend on the seed, and the digest of the sorted
(family, bindings) list per seed.  A workload whose bindings agree over the
first three seeds (the sweep: THOMAE1 at genus <= 4 is below the cap, so
nothing is sampled) is stored once under "*" and checked for any seed.
Run it only when the program is meant to do different work.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import run

sys.path.insert(0, str(run.SRC))
from workloads import WORKLOADS  # noqa: E402  (needs thomae_lab importable)


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    out = {}
    for name in WORKLOADS:
        entry, digests = None, {}
        for seed in seeds:
            p = run.run_worker(["--workload", name, "--seed", str(seed)],
                               perf_counter() + 600.0)
            if p["errors"] or p["failed"]:
                print(f"{name} seed {seed}: {p['errors']} infrastructure failures, "
                      f"{p['failed']} failed records", file=sys.stderr)
                return 1
            counts = {"records": p["records"], "families": p["families"]}
            if entry is None:
                entry = counts
            elif counts != entry:
                print(f"{name}: record counts differ at seed {seed}", file=sys.stderr)
                return 1
            digests[str(seed)] = p["bindings_digest"]
            print(f"{name} seed {seed}: {p['records']} records", file=sys.stderr)
            if len(digests) == 3 and len(set(digests.values())) == 1:
                digests = {"*": p["bindings_digest"]}
                break
        out[name] = {**entry, "bindings": digests}
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
