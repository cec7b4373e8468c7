"""Workload ``enumerate``: the combgraphs split-map search funnel.

Why: enumeration is where the toolkit spends most of its time (the
norm-five types of the acceptance suite).  The sweep over every small type,
in both modes, shows whether a prune that speeds up large types costs the
small ones; two norm-four types and one norm-five type at the acceptance
caps carry the heavy tail.  Emitted maps then go through
``degkit maps norm|stability|decompose``.

The norm-four types are drawn from a pool of types with similar cost, so
every seed asks for about the same work.  The norm-five type is always
TopType(5, 0, 2), the largest enumeration of the acceptance suite: the only
other norm-five type of similar time, (3, 1, 2), peaks 7% lower in memory,
which would make the peak memory depend on the seed.
"""

from __future__ import annotations

import random

import degkit.combgraphs as cg

from wl_common import Op, cli_json, cli_op, require, write_json

# Stable split-map counts per type (degree, genus, marks), copied from
# FROZEN_COUNTS in tests/test_acceptance.py: the regression constants of
# acceptance criterion 7, at the default caps for norm <= 4 and a total-node
# budget of 4 at norm 5.  Only the types this workload can ask for.
FROZEN_STABLE_COUNTS = {
    (0, 0, 0): 0, (0, 0, 1): 0, (0, 0, 2): 0, (0, 0, 3): 2, (0, 0, 4): 4,
    (0, 0, 5): 14, (0, 1, 0): 0, (0, 1, 1): 2, (0, 1, 2): 9, (0, 1, 3): 34,
    (0, 2, 0): 4, (0, 2, 1): 22, (1, 0, 0): 2, (1, 0, 1): 2, (1, 0, 2): 6,
    (1, 0, 3): 22, (1, 0, 4): 92, (1, 1, 0): 6, (1, 1, 1): 30, (1, 1, 2): 156,
    (1, 2, 0): 48, (2, 0, 0): 4, (2, 0, 1): 14, (2, 0, 2): 62, (2, 0, 3): 304,
    (2, 1, 0): 43, (2, 1, 1): 316, (3, 0, 0): 16, (3, 0, 1): 78, (3, 0, 2): 582,
    (3, 1, 0): 298, (4, 0, 0): 66, (4, 0, 1): 635, (5, 0, 0): 381,
    (2, 1, 2): 1890, (2, 2, 0): 463, (3, 0, 3): 3134,
    (5, 0, 2): 10597,
}

SIZES = {
    # sweep: largest b + 2g + k of the small types; heavy: (pool, how many)
    # per norm; cli_maps: emitted maps sent through the command line
    "full": {
        "sweep": 5,
        "heavy": (
            (((2, 1, 2), (2, 2, 0), (3, 0, 3)), 2),
            (((5, 0, 2),), 1),
        ),
        "cli_maps": 12,
    },
    "smoke": {"sweep": 3, "heavy": (), "cli_maps": 2},
}


def acceptance_caps(t):
    """The caps of acceptance criterion 7."""
    if t.norm() <= 4:
        return cg.EnumerationCaps()
    return cg.EnumerationCaps(max_total_nodes=4)


def maps_check(t, stable_only):
    """Every map passes the norm identity, agrees with the trivial-component
    stability oracle and has strictly increasing ample weights when stable;
    the stable count equals the frozen one.  In the all-maps mode the stable
    maps among the results must number the same."""

    def check(maps):
        stable = 0
        for m in maps:
            require(m.verify_norm_identity(), "norm identity fails on %r" % m)
            require(m.n <= max(t.norm(), 0), "expansion longer than the norm")
            is_stable = m.is_stable()
            require(is_stable == m.stability_oracle(), "stability oracle disagrees on %r" % m)
            require(is_stable or not stable_only, "unstable map in the stable mode")
            if is_stable:
                stable += 1
                sums = m.ample_weights()
                require(list(sums) == sorted(set(sums)), "ample weights not increasing")
        expected = FROZEN_STABLE_COUNTS[t.degree, t.genus, t.marks]
        require(stable == expected, "%d stable maps, frozen count %d" % (stable, expected))
        keys = {(m.n, m.canonical_key()) for m in maps}
        require(len(keys) == len(maps), "duplicate maps up to relabeling")
        return "%d maps, %d stable" % (len(maps), stable)

    return check


def sweep_types(limit):
    return [
        cg.TopType(b, g, k)
        for b in range(limit + 1)
        for g in range(limit // 2 + 1)
        for k in range(limit + 1)
        if b + 2 * g + k <= limit
    ]


def setup(seed, size, workdir):
    rng = random.Random(seed)
    cfg = SIZES[size]
    # the norm-five type goes first, right after the sweep, so that its peak
    # memory does not depend on which norm-four types the seed picked
    heavy = [
        cg.TopType(*t)
        for pool, count in reversed(cfg["heavy"])
        for t in sorted(rng.sample(pool, count))
    ]
    # the choice of emitted maps for the command line is made when they exist
    pick_seed = rng.randrange(2**32)
    return ops(cfg, heavy, random.Random(pick_seed), workdir)


def ops(cfg, heavy, rng, workdir):
    enumerations = [
        Op(
            "%s %s" % ("stable" if stable_only else "all", t),
            lambda t=t, s=stable_only: cg.enumerate_split_maps(t, stable_only=s),
            maps_check(t, stable_only),
        )
        for t in sweep_types(cfg["sweep"])
        for stable_only in (False, True)
    ] + [
        Op(
            "stable %s at the acceptance caps" % (t,),
            lambda t=t: cg.enumerate_stable_types(t, acceptance_caps(t)),
            maps_check(t, True),
        )
        for t in heavy
    ]
    # keep one emitted map per enumeration and drop the rest, so that the
    # peak memory is that of the largest single enumeration
    maps = []
    for op in enumerations:
        yield op
        if op.result:
            maps.append(rng.choice(op.result))
        op.result = None

    for k, m in enumerate(rng.sample(maps, min(cfg["cli_maps"], len(maps)))):
        path = write_json(workdir, "map%d.json" % k, m.to_json())
        l = rng.randrange(1, m.n + 2)
        yield cli_op("cli maps norm %d" % k, ["maps", "norm", "--input", path], norm_check(m))
        yield cli_op(
            "cli maps stability %d" % k,
            ["maps", "stability", "--input", path],
            stability_check(m),
        )
        yield cli_op(
            "cli maps decompose %d l=%d" % (k, l),
            ["maps", "decompose", "--input", path, "--l", str(l)],
            decompose_check(m, l),
        )


def norm_check(m):
    def check(result):
        payload = cli_json(result, 0)
        t = m.total_type()
        require(
            payload["type"] == {"degree": t.degree, "genus": t.genus, "marks": t.marks},
            "CLI type differs",
        )
        require(payload["norm"] == t.norm(), "CLI norm differs")
        require(payload["weights"] == list(m.weights()), "CLI weights differ")
        require(payload["identity_holds"] is True, "CLI says the norm identity fails")
        return "norm %d" % t.norm()

    return check


def stability_check(m):
    def check(result):
        stable = m.is_stable()
        payload = cli_json(result, 0 if stable else 1)
        require(payload["stable"] == stable, "CLI stability differs")
        require(payload["oracle"] == m.stability_oracle(), "CLI oracle differs")
        require(payload["weights"] == list(m.weights()), "CLI weights differ")
        return "stable" if stable else "unstable"

    return check


def decompose_check(m, l):
    def check(result):
        payload = cli_json(result, 0)
        _, _, sigma = cg.decompose(m, l)
        require(payload["interface_weights"] == list(sigma), "CLI interface weights differ")
        require(payload["roundtrip"] is True, "CLI halves do not glue back")
        return "sigma %s" % (list(sigma),)

    return check
