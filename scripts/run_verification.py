#!/usr/bin/env python3
"""Run the full symbolic verification battery and print a summary table.

Covers the chart-atlas identities, the quadric resolution, the
reparametrized chart inverses, the relative-action equivariances, and the
splice decompositions, for every model length up to --max-n.
"""

import argparse
import itertools
import sys
import time

from degkit import (
    gamma_atlas,
    relative_action,
    splice_check,
    verify_atlas,
    verify_principal_chart,
    verify_resolution,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()
    if args.max_n < 0:
        parser.error("--max-n must be non-negative")

    rows = []
    t0 = time.time()
    for n in range(1, args.max_n + 1):
        report = verify_atlas(gamma_atlas(n))
        rows.append(("atlas n=%d" % n, report.passed, len(report.checks)))
    _, report = verify_resolution()
    rows.append(("quadric resolution", report.passed, len(report.checks)))
    for n in range(1, args.max_n + 1):
        ok = True
        count = 0
        for size in range(1, n + 2):
            for subset in itertools.combinations(range(1, n + 2), size):
                rep, _, _ = verify_principal_chart(n, subset)
                ok = ok and rep.passed
                count += len(rep.checks)
        rows.append(("chart inverses n=%d" % n, ok, count))
    for n in range(1, args.max_n + 1):
        for rev in (False, True):
            _, rep = relative_action(n, rev)
            rows.append(
                (
                    "relative action n=%d%s" % (n, " reversed" if rev else ""),
                    rep.passed,
                    len(rep.checks),
                )
            )
    for n in range(1, args.max_n + 1):
        for l in range(1, n + 2):
            rep = splice_check(n, l)
            rows.append(("splice n=%d l=%d" % (n, l), rep.passed, len(rep.checks)))

    width = max(len(r[0]) for r in rows)
    failed = 0
    for name, passed, count in rows:
        mark = "pass" if passed else "FAIL"
        if not passed:
            failed += 1
        print("%-*s  %s  (%d checks)" % (width, name, mark, count))
    print("--")
    print(
        "%d suites, %d failed, %.1fs"
        % (len(rows), failed, time.time() - t0)
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
