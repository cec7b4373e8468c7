"""Byte-exact CLI reports against golden files.

The expected stdout bytes and exit codes under ``tests/golden/`` were
recorded once by running ``python -m degkit.cli`` on each case of
``cases.json``; an argument starting with ``@`` names an input file in that
directory.  Any change to a report, however small, fails here.

``symbolic_pins.json`` holds library texts that print polynomials (failure
witnesses, chart inverses, torus actions); the CLI goldens are all passing
reports, which print none.  ``witness_pins.json`` holds the failure witnesses
of the resolution and splice checks on corrupted inputs.  Rewrites of the
polynomial arithmetic must keep these bytes.
"""

import dataclasses
import itertools
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from degkit import localmodel
from degkit.cli import main
from degkit.localmodel import (
    fourfold_resolution,
    gamma_atlas,
    relative_action,
    splice_check,
    verify_atlas,
    verify_principal_chart,
    verify_resolution,
)
from degkit.polys import RatFunc
from degkit.ratmaps import RationalMap

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())
EXIT_CODES = json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_golden(case, capsys):
    argv = [
        str(GOLDEN / a[1:]) if a.startswith("@") else a for a in case["argv"]
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == EXIT_CODES[case["name"]]
    assert out.encode() == (GOLDEN / (case["name"] + ".out")).read_bytes()


# ---------------------------------------------------------------------------
# symbolic texts that expose normal forms
# ---------------------------------------------------------------------------


FACTORS = (2, -1, 3, Fraction(1, 2))


def scaled(rmap, j, factor):
    """``rmap`` with component j multiplied by a constant factor."""
    comps = list(rmap.components)
    comps[j] = comps[j] * RatFunc.const(comps[j].nvars, factor)
    return RationalMap(rmap.source_vars, comps, rmap.params)


def corrupted_atlases(n):
    """(label, atlas of Gamma(n) with one transition component scaled), for
    each transition, each component and each factor."""
    atlas = gamma_atlas(n)
    for l in range(1, n + 1):
        old = atlas.transition(l)
        for j in range(len(old.components)):
            for factor in FACTORS:
                bad = atlas.with_transition(l, scaled(old, j, factor))
                yield "n=%d l=%d comp=%d x%s" % (n, l, j + 1, factor), bad


def symbolic_pins():
    """Texts whose bytes depend on the normal form of rational functions:
    the witnesses of every corrupted atlas at n <= 3 (each transition, each
    component, each factor), the principal-chart inverses at n <= 4 and the
    relative actions at n <= 4 in both orders."""
    pins = {}
    for n in range(1, 4):
        for label, bad in corrupted_atlases(n):
            pins["atlas " + label] = verify_atlas(bad).to_json()
    for n in range(1, 5):
        for k in range(1, n + 2):
            for subset in itertools.combinations(range(1, n + 2), k):
                _, _, inverse = verify_principal_chart(n, subset)
                pins["chart inverse n=%d %s" % (n, subset)] = inverse.render()
    for n in range(1, 5):
        for rev in (False, True):
            action, _ = relative_action(n, rev)
            pins["relative n=%d reversed=%s" % (n, rev)] = action.render()
    return pins


def test_symbolic_normal_form_pins():
    text = json.dumps(symbolic_pins(), indent=1) + "\n"
    assert text.encode() == (GOLDEN / "symbolic_pins.json").read_bytes()


def witness_pins():
    """Failure texts of the resolution and splice checks: the resolution
    with each map scaled in one component, and ``splice_check(n, l)`` at
    n <= 3 with only the top model Gamma(n) corrupted as in
    :func:`symbolic_pins` (the inner models stay intact)."""
    pins = {}
    res = fourfold_resolution()
    for field in dataclasses.fields(res):
        rmap = getattr(res, field.name)
        for j in range(len(rmap.components)):
            for factor in FACTORS:
                bad = dataclasses.replace(res, **{field.name: scaled(rmap, j, factor)})
                key = "resolution %s comp=%d x%s" % (field.name, j + 1, factor)
                pins[key] = verify_resolution(bad)[1].to_json()
    real = gamma_atlas
    for n in range(1, 4):
        for label, bad in corrupted_atlases(n):
            top = lambda k, bound=8, bad=bad: bad if k == bad.n else real(k, bound)
            with mock.patch.object(localmodel, "gamma_atlas", top):
                for l in range(1, n + 2):
                    pins["splice l=%d %s" % (l, label)] = splice_check(n, l).to_json()
    return pins


def test_witness_pins():
    text = json.dumps(witness_pins(), indent=1) + "\n"
    assert text.encode() == (GOLDEN / "witness_pins.json").read_bytes()
