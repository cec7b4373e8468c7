"""Workload ``gluing``: combgraphs symmetry and canonical forms.

Why: the gluing side of combgraphs (admissible triples, symmetry groups,
gluing, the gluing-degree fiber count) shares its module with the split-map
search but not its search; it runs no algebra.  The triples of the default
alphabet are enumerated once, then every triple is processed as given and
again after a seeded reordering of its roots.  These are about 2,400 ops of a
few milliseconds each, which makes the latency percentiles meaningful.  A
seeded share goes through ``degkit graphs glue|eq-group``.
"""

from __future__ import annotations

import math
import random

import degkit.combgraphs as cg

from wl_common import Op, cli_json, cli_op, require, write_json

SIZES = {
    # min_triples: the floor of acceptance criterion 9 for the default alphabet
    "full": {"alphabet": cg.TripleAlphabet(), "min_triples": 501, "cli_triples": 20},
    "smoke": {"alphabet": cg.TripleAlphabet(max_roots=2), "min_triples": 1, "cli_triples": 2},
}


def chain(triple):
    """The gluing bookkeeping of one triple."""
    elems = cg.eq_group(triple)
    glued = cg.glue(triple)
    m = cg.realize_split_map(triple)
    count = cg.fiber_count(triple, m, 1)
    image = m.automorphism_interface_image(1)
    return elems, glued, count, image


def chain_check(triple, original=None):
    """|Eq| divides r!, genus = betti + vertex genera, fiber count times the
    induced automorphism image is |Eq|, and a reordering keeps |Eq|."""

    def check(result):
        elems, (glued, genus, _, _), count, image = result
        r = triple.num_roots
        require(math.factorial(r) % len(elems) == 0, "|Eq| does not divide r!")
        require(
            genus == glued.betti() + sum(v[2] for v in glued.vertices),
            "genus is not betti + vertex genera",
        )
        require(count * max(len(image), 1) == len(elems), "fiber count * |image| != |Eq|")
        if original is not None:
            require(original.result is not None, "no answer for the original order")
            require(len(elems) == len(original.result[0]), "|Eq| changed under reordering")
        return "eq %d genus %d fibers %d" % (len(elems), genus, count)

    return check


def triples_check(minimum):
    def check(triples):
        require(len(triples) >= minimum, "only %d triples" % len(triples))
        return "%d triples" % len(triples)

    return check


def setup(seed, size, workdir):
    return ops(SIZES[size], random.Random(seed), workdir)


def ops(cfg, rng, workdir):
    alphabet = cfg["alphabet"]
    enum = Op(
        "enumerate triples",
        lambda: cg.enumerate_triples(alphabet),
        triples_check(cfg["min_triples"]),
    )
    yield enum
    if enum.result is None:
        return
    triples = enum.result
    chains = []
    for k, tr in enumerate(triples):
        first = Op("triple %d" % k, lambda tr=tr: chain(tr), chain_check(tr))
        yield first
        sigma = list(range(tr.num_roots))
        rng.shuffle(sigma)
        moved = tr.reorder(tuple(sigma))
        yield Op(
            "triple %d reordered %s" % (k, sigma),
            lambda moved=moved: chain(moved),
            chain_check(moved, first),
        )
        chains.append(first)

    for k in sorted(rng.sample(range(len(triples)), min(cfg["cli_triples"], len(triples)))):
        tr = triples[k]
        path = write_json(
            workdir,
            "triple%d.json" % k,
            {
                "first": tr.first.to_json(),
                "second": tr.second.to_json(),
                "first_legs": list(tr.first_legs),
            },
        )
        yield cli_op("cli graphs glue %d" % k, ["graphs", "glue", "--input", path], glue_check(chains[k]))
        yield cli_op(
            "cli graphs eq-group %d" % k,
            ["graphs", "eq-group", "--input", path],
            eq_check(chains[k]),
        )


def glue_check(direct):
    def check(result):
        payload = cli_json(result, 0)
        require(direct.result is not None, "no direct answer to compare with")
        glued, genus, degree, _ = direct.result[1]
        require(payload["genus"] == genus, "CLI genus differs")
        require(payload["degree"] == degree, "CLI degree differs")
        require(payload["betti"] == glued.betti(), "CLI betti number differs")
        require(payload["edges"] == [[a, b, w] for a, b, w in glued.edges], "CLI edges differ")
        return "genus %d" % genus

    return check


def eq_check(direct):
    def check(result):
        payload = cli_json(result, 0)
        require(direct.result is not None, "no direct answer to compare with")
        order = len(direct.result[0])
        require(payload["order"] == order, "CLI |Eq| differs")
        elements = payload["elements"]
        require(len(elements) == order and len(set(elements)) == order, "CLI elements differ")
        return "eq %d" % order

    return check
