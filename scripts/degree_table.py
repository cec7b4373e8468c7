#!/usr/bin/env python3
"""Tabulate symmetry-group orders of glued weighted graphs over the default
alphabet, together with the brute-force fiber counts that certify the degree
of the gluing map."""

import argparse
import sys
from collections import Counter

from degkit import (
    TripleAlphabet,
    enumerate_triples,
    eq_group,
    fiber_count,
    glue,
    realize_split_map,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-r", type=int, default=4)
    args = parser.parse_args()
    if args.max_r < 0:
        parser.error("--max-r must be non-negative")

    triples = enumerate_triples(TripleAlphabet(max_roots=args.max_r))
    orders = Counter()
    mismatches = 0
    for tr in triples:
        elems = eq_group(tr)
        orders[(tr.num_roots, len(elems))] += 1
        m = realize_split_map(tr)
        image = m.automorphism_interface_image(1)
        if fiber_count(tr, m, 1) * max(len(image), 1) != len(elems):
            mismatches += 1
    print("triples:", len(triples))
    for (r, order), count in sorted(orders.items()):
        print("  roots=%d |Eq|=%d: %d" % (r, order, count))
    print("degree identity mismatches:", mismatches)
    genus_check = all(
        glue(tr)[1] == glue(tr)[0].betti() + sum(v[2] for v in glue(tr)[0].vertices)
        for tr in triples[:200]
    )
    print("genus equals cycle rank plus vertex genera:", genus_check)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
