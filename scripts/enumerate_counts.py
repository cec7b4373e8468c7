#!/usr/bin/env python3
"""Regenerate the stable-map enumeration table used as regression constants.

Counts every stable split map per topological type up to the given norm, at
the declared acceptance caps (defaults up to norm 4, total-node budget 4 at
norm 5).  Output is one line per type, suitable for freezing into tests.
Exits 1 if any map fails the norm identity.
"""

import argparse
import sys
import time

from degkit import EnumerationCaps, TopType, enumerate_stable_types


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-norm", type=int, default=5)
    args = parser.parse_args()

    t0 = time.time()
    total = 0
    failures = 0
    for b in range(0, args.max_norm + 3):
        for g in range(0, args.max_norm // 2 + 2):
            for k in range(0, args.max_norm + 3):
                t = TopType(b, g, k)
                norm = t.norm()
                if norm > args.max_norm:
                    continue
                caps = (
                    EnumerationCaps()
                    if norm <= 4
                    else EnumerationCaps(max_total_nodes=4)
                )
                maps = enumerate_stable_types(t, caps)
                total += len(maps)
                bad = [m for m in maps if not m.verify_norm_identity()]
                failures += len(bad)
                print(
                    "(%d, %d, %d): %d,%s"
                    % (b, g, k, len(maps), "  # NORM FAILURE" if bad else "")
                )
    print("# total %d stable maps, %.1fs" % (total, time.time() - t0))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
