"""Byte-exact CLI reports against golden files.

The expected stdout bytes and exit codes under ``tests/golden/`` were
recorded once by running ``python -m degkit.cli`` on each case of
``cases.json``; an argument starting with ``@`` names an input file in that
directory.  Any change to a report, however small, fails here.

``symbolic_pins.json`` holds library texts that print polynomials (failure
witnesses, chart inverses, torus actions); the CLI goldens are all passing
reports, which print none.  Rewrites of the polynomial arithmetic must keep
these bytes.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from degkit.cli import main
from degkit.localmodel import (
    gamma_atlas,
    relative_action,
    verify_atlas,
    verify_principal_chart,
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


def symbolic_pins():
    """Texts whose bytes depend on the normal form of rational functions:
    the witnesses of every corrupted atlas at n <= 3 (each transition, each
    component, each factor), the principal-chart inverses at n <= 4 and the
    relative actions at n <= 4 in both orders."""
    pins = {}
    for n in range(1, 4):
        atlas = gamma_atlas(n)
        for l in range(1, n + 1):
            old = atlas.transition(l)
            for j in range(len(old.components)):
                for factor in (2, -1, 3, Fraction(1, 2)):
                    comps = list(old.components)
                    comps[j] = comps[j] * RatFunc.const(comps[j].nvars, factor)
                    bad = atlas.with_transition(
                        l, RationalMap(old.source_vars, comps, old.params)
                    )
                    key = "atlas n=%d l=%d comp=%d x%s" % (n, l, j + 1, factor)
                    pins[key] = verify_atlas(bad).to_json()
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
