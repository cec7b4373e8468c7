"""Workload ``symbolic``: the polys -> ratmaps -> localmodel chain.

Why: chart-atlas identities, the quadric resolution, principal-chart
inverses, relative torus actions and splice checks are the symbolic half of
the toolkit; they use almost no linear algebra and no graph code.  The tail
is the atlas at n = 7 and 8.  Atlases with one corrupted transition are
negative controls: their reports must fail.  A seeded share of the checks is
repeated through the command line, whose JSON must match the direct answer.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import degkit.localmodel as lm
from degkit.polys import RatFunc
from degkit.ratmaps import RationalMap

from wl_common import Op, cli_json, cli_op, digest_text, require

SIZES = {
    "full": {
        "atlas": 8,
        "charts": 4,
        "chart_sample": (5, 12),
        "relative": 4,
        "splice": 5,
        "negatives": (1, 2, 3),
        "cli_atlas": (4, 2),
        "cli_splice": (4, 3),
    },
    "smoke": {
        "atlas": 2,
        "charts": 1,
        "chart_sample": (2, 2),
        "relative": 1,
        "splice": 1,
        "negatives": (1,),
        "cli_atlas": (1, 1),
        "cli_splice": (1, 1),
    },
}


def passing(report):
    """Oracle for a real input: every check of the report passes."""
    require(report.checks, "empty report")
    require(
        report.passed,
        "failed checks: %s" % ", ".join(c.name for c in report.failures()),
    )
    return "%d checks %s" % (len(report.checks), digest_text(report.to_json()))


def failing(report):
    """Oracle for a negative control: some check must fail."""
    require(not report.passed, "a corrupted transition passed every check")
    return "%d failed %s" % (len(report.failures()), digest_text(report.to_json()))


def corrupted_atlas(rng, n):
    """The atlas of Gamma(n) with one component of one transition scaled by
    a constant other than one."""
    atlas = lm.gamma_atlas(n)
    l = rng.randrange(1, n + 1)
    old = atlas.transition(l)
    comps = list(old.components)
    j = rng.randrange(len(comps))
    factor = rng.choice([2, -1, 3, Fraction(1, 2)])
    comps[j] = comps[j] * RatFunc.const(comps[j].nvars, factor)
    rmap = RationalMap(old.source_vars, comps, old.params)
    return atlas.with_transition(l, rmap), "n=%d l=%d comp=%d x%s" % (n, l, j + 1, factor)


def setup(seed, size, workdir):
    rng = random.Random(seed)
    cfg = SIZES[size]
    n5, k5 = cfg["chart_sample"]
    sample = sorted(
        rng.sample(
            [
                s
                for k in range(1, n5 + 2)
                for s in itertools.combinations(range(1, n5 + 2), k)
            ],
            k5,
        )
    )
    negatives = [corrupted_atlas(rng, n) for n in cfg["negatives"]]
    top, count = cfg["cli_atlas"]
    cli_atlas = sorted(rng.sample(range(1, top + 1), count))
    top, count = cfg["cli_splice"]
    cli_splice = sorted(
        rng.sample([(n, l) for n in range(1, top + 1) for l in range(1, n + 2)], count)
    )
    cli_splice_all = rng.randrange(1, top + 1)
    return ops(cfg, sample, negatives, cli_atlas, cli_splice, cli_splice_all)


def ops(cfg, sample, negatives, cli_atlas, cli_splice, cli_splice_all):
    atlas = {}
    for n in range(1, cfg["atlas"] + 1):
        op = Op("atlas n=%d" % n, lambda n=n: lm.verify_atlas(lm.gamma_atlas(n)), passing)
        atlas[n] = op
        yield op

    resolution = Op("resolution", lambda: lm.verify_resolution()[1], passing)
    yield resolution

    subsets = [
        (n, s)
        for n in range(1, cfg["charts"] + 1)
        for k in range(1, n + 2)
        for s in itertools.combinations(range(1, n + 2), k)
    ]
    subsets += [(cfg["chart_sample"][0], s) for s in sample]
    for n, s in subsets:
        yield Op(
            "chart n=%d %s" % (n, s),
            lambda n=n, s=s: lm.verify_principal_chart(n, s)[0],
            passing,
        )

    for n in range(1, cfg["relative"] + 1):
        for rev in (False, True):
            yield Op(
                "relative n=%d reversed=%s" % (n, rev),
                lambda n=n, rev=rev: lm.relative_action(n, rev)[1],
                passing,
            )

    splice = {}
    for n in range(1, cfg["splice"] + 1):
        for l in range(1, n + 2):
            op = Op("splice n=%d l=%d" % (n, l), lambda n=n, l=l: lm.splice_check(n, l), passing)
            splice[n, l] = op
            yield op

    for bad, label in negatives:
        yield Op("negative %s" % label, lambda bad=bad: lm.verify_atlas(bad), failing)

    # the command line must print exactly the direct answers
    def same_as(expected):
        def check(result):
            payload = cli_json(result, 0)
            require(payload == expected(), "CLI report differs from the direct answer")
            return digest_text(payload)

        return check

    for n in cli_atlas:
        yield cli_op(
            "cli verify-atlas n=%d" % n,
            ["verify-atlas", "--n", str(n)],
            same_as(lambda n=n: atlas[n].result.to_json()),
        )
    yield cli_op(
        "cli resolution-check",
        ["resolution-check"],
        same_as(lambda: resolution.result.to_json()),
    )
    for n, l in cli_splice:
        yield cli_op(
            "cli splice-check n=%d l=%d" % (n, l),
            ["splice-check", "--n", str(n), "--l", str(l)],
            same_as(lambda n=n, l=l: {"l=%d" % l: splice[n, l].result.to_json()}),
        )
    n = cli_splice_all
    yield cli_op(
        "cli splice-check n=%d" % n,
        ["splice-check", "--n", str(n)],
        same_as(lambda n=n: {"l=%d" % l: splice[n, l].result.to_json() for l in range(1, n + 2)}),
    )
