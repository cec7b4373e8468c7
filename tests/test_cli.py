import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from degkit import (
    AdmissibleGraph,
    NUMERIC_GROUP,
    NodeRing,
    Piece,
    Poly,
    SplitMap,
    TruncatedAlgebra,
)
import degkit.cli as cli
from degkit.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def contact_input(tmp_path, tails=False):
    alg = TruncatedAlgebra(("s",), order=4)
    ring = NodeRing(alg, order=4)
    phi1 = ring.z1()
    phi2 = ring.z2()
    data = {
        "algebra": alg.to_json(),
        "series_order": 4,
        "psi_t": alg.s.to_json(),
        "phi_w1": phi1.to_json(),
        "phi_w2": phi2.to_json(),
        "order": 1,
    }
    path = tmp_path / "contact.json"
    path.write_text(json.dumps(data))
    return path


def test_verify_atlas_passes(capsys):
    code, out = run_cli(capsys, "verify-atlas", "--n", "2")
    assert code == 0
    report = json.loads(out)
    assert all(v == "pass" for v in report.values())


def test_verify_atlas_deterministic(capsys):
    _, first = run_cli(capsys, "verify-atlas", "--n", "1")
    _, second = run_cli(capsys, "verify-atlas", "--n", "1")
    assert first == second


def test_resolution_and_splice(capsys):
    code, _ = run_cli(capsys, "resolution-check")
    assert code == 0
    code, out = run_cli(capsys, "splice-check", "--n", "2")
    assert code == 0
    assert set(json.loads(out)) == {"l=1", "l=2", "l=3"}


def test_contact_check_pure(tmp_path, capsys):
    path = contact_input(tmp_path)
    code, out = run_cli(capsys, "contact", "check", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["pure"] is True
    assert payload["beta"] == "(1)"
    assert payload["epsilon"] == "1"


def test_contact_check_failure_exit(tmp_path, capsys):
    path = contact_input(tmp_path)
    code, out = run_cli(
        capsys, "contact", "check", "--input", str(path), "--order", "2"
    )
    assert code == 1
    assert json.loads(out)["pure"] is False


def test_contact_ideal(tmp_path, capsys):
    path = contact_input(tmp_path)
    code, out = run_cli(capsys, "contact", "ideal", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["zero"] is True and payload["generators"] == []


def test_contact_universality(tmp_path, capsys):
    alg = TruncatedAlgebra(("s",), order=4)
    ring = NodeRing(alg, order=4)
    data = {
        "algebra": alg.to_json(),
        "series_order": 4,
        "psi_t": alg.s.to_json(),
        "phi_w1": ring.z1().to_json(),
        "phi_w2": ring.z2().to_json(),
        "order": 1,
        "homs": [
            {
                "target": alg.to_json(),
                "images": [alg.s.to_json()],
            }
        ],
    }
    path = tmp_path / "uni.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "contact", "universality", "--input", str(path))
    assert code == 0
    assert json.loads(out)["holds"] is True


def triple_input(tmp_path):
    g = AdmissibleGraph(
        NUMERIC_GROUP, (0,), ((1, 2),), (), ((0, 1), (0, 1))
    )
    data = {"first": g.to_json(), "second": g.to_json(), "first_legs": []}
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(data))
    return path


def test_graphs_eq_group(tmp_path, capsys):
    path = triple_input(tmp_path)
    code, out = run_cli(capsys, "graphs", "eq-group", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload == {"order": 2, "elements": ["(1 2)", "id"]}


def test_graphs_glue_and_dot(tmp_path, capsys):
    path = triple_input(tmp_path)
    code, out = run_cli(capsys, "graphs", "glue", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["genus"] == 1 and payload["degree"] == 2
    code, out = run_cli(
        capsys, "graphs", "glue", "--input", str(path), "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph glued")


def test_graphs_validate(tmp_path, capsys):
    g = AdmissibleGraph(NUMERIC_GROUP, (0,), ((1, 1),), (), ((0, 1),))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(g.to_json()))
    code, out = run_cli(capsys, "graphs", "validate", "--input", str(path))
    assert code == 0
    assert json.loads(out)["contact_ok"] is True


def test_graphs_enumerate(capsys):
    code, out = run_cli(capsys, "graphs", "enumerate", "--max-r", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] > 0


def map_input(tmp_path):
    m = SplitMap(
        [[Piece(0, 2, 1)], [Piece(0, 1, 0)], [Piece(1, 1, 1)]],
        [((1, 0, 0),), ((1, 0, 0),)],
    )
    path = tmp_path / "map.json"
    path.write_text(json.dumps(m.to_json()))
    return path


def test_maps_subcommands(tmp_path, capsys):
    path = map_input(tmp_path)
    code, out = run_cli(capsys, "maps", "stability", "--input", str(path))
    assert code == 0 and json.loads(out)["stable"] is True
    code, out = run_cli(capsys, "maps", "norm", "--input", str(path))
    assert code == 0 and json.loads(out)["identity_holds"] is True
    code, out = run_cli(
        capsys, "maps", "decompose", "--input", str(path), "--l", "1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["roundtrip"] is True
    assert payload["interface_weights"] == [1]


def test_malformed_input_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["maps", "norm", "--input", str(path)])
    assert code == 2
    code = main(["maps", "norm", "--input", str(tmp_path / "missing.json")])
    assert code == 2


def test_parser_built_once_answers_like_a_fresh_one(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process; a refused argv must leave
    # nothing behind that changes a later call
    valid = ["maps", "decompose", "--input", str(map_input(tmp_path)), "--l", "1"]
    bad = ["maps", "decompose", "--l", "one"]

    def session():
        results = []
        for argv in (bad, valid, valid):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    cli.build_parser.cache_clear()
    cached = session()
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert session() == cached
    assert [code for code, _, _ in cached] == [2, 0, 0]
    assert "invalid int value: 'one'" in cached[0][2] and cached[1][1]


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["verify-atlas", "--n", "1", "--out", str(out_path)])
    assert code == 0
    assert json.loads(out_path.read_text())


def test_truncation_overrides(tmp_path, capsys):
    path = contact_input(tmp_path)
    code, out = run_cli(
        capsys, "contact", "check", "--input", str(path), "--trunc-series", "6"
    )
    assert code == 0
    assert json.loads(out)["pure"] is True
    # a base override that changes the coefficient dimension is rejected
    code = main(
        ["contact", "check", "--input", str(path), "--trunc-base", "5"]
    )
    assert code == 2


@pytest.mark.parametrize("local", ["no", "false", 0, None])
def test_contact_local_must_be_boolean(tmp_path, capsys, local):
    path = contact_input(tmp_path)
    data = json.loads(path.read_text())
    data["algebra"]["local"] = local
    path.write_text(json.dumps(data))
    for sub in ("check", "ideal"):
        code, out = run_cli(capsys, "contact", sub, "--input", str(path))
        assert code == 2 and out == ""
    data["algebra"]["local"] = False
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "contact", "check", "--input", str(path))
    assert code == 0 and json.loads(out)["pure"] is True


@pytest.mark.parametrize("key", ["phi_w1", "phi_w2"])
def test_contact_series_order_must_match_file(tmp_path, capsys, key):
    # each series is checked against the file's own series_order, before
    # and whatever the --trunc-series override says
    path = contact_input(tmp_path)
    data = json.loads(path.read_text())
    data[key]["order"] = 3
    path.write_text(json.dumps(data))
    for extra in ([], ["--trunc-series", "3"], ["--trunc-series", "6"]):
        code, out = run_cli(capsys, "contact", "check", "--input", str(path), *extra)
        assert code == 2 and out == ""
    del data[key]["order"]
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "contact", "check", "--input", str(path))
    assert code == 0


def test_failure_report_carries_witness(capsys):
    from degkit import gamma_atlas, verify_atlas

    at = gamma_atlas(2)
    bad = at.with_transition(1, at.transition(2))
    payload = verify_atlas(bad).to_json()
    assert any(
        isinstance(v, dict) and "fail" in v for v in payload.values()
    )


def test_internal_error_keeps_traceback(capsys, monkeypatch):
    from degkit import localmodel as lm

    def boom(n):
        raise RuntimeError("invariant breached")

    monkeypatch.setattr(lm, "gamma_atlas", boom)
    code = main(["verify-atlas", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" in captured.err
    assert "RuntimeError: invariant breached" in captured.err
    assert captured.out == ""


def _set_path(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


MAP_FIELDS = [
    ("groups", 0, 0, "d"),
    ("groups", 0, 0, "g"),
    ("groups", 0, 0, "marks"),
    ("nodes", 0, 0, "weight"),
    ("nodes", 0, 0, "left"),
    ("nodes", 1, 0, "right"),
]
GRAPH_FIELDS = [
    ("vertices", 0, "g"),
    ("vertices", 0, "b", 1),
    ("vertices", 0, "roots", 0, "weight"),
    ("root_order", 0, 1),
    ("leg_order", 0),
    ("deg_H", 0),
]


@pytest.mark.parametrize("bad", [1.5, 1.0, True])
@pytest.mark.parametrize("path", MAP_FIELDS)
def test_maps_reject_non_integers(tmp_path, capsys, path, bad):
    data = json.loads(map_input(tmp_path).read_text())
    _set_path(data, path, bad)
    target = tmp_path / "bad_map.json"
    target.write_text(json.dumps(data))
    for sub in ("stability", "norm"):
        code, out = run_cli(capsys, "maps", sub, "--input", str(target))
        assert code == 2 and out == ""


@pytest.mark.parametrize("bad", [1.5, 1.0, True])
@pytest.mark.parametrize("path", GRAPH_FIELDS)
def test_graphs_reject_non_integers(tmp_path, capsys, path, bad):
    g = AdmissibleGraph(NUMERIC_GROUP, (0,), ((1, 1),), (0,), ((0, 1),))
    data = g.to_json()
    _set_path(data, path, bad)
    graph_path = tmp_path / "bad_graph.json"
    graph_path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "graphs", "validate", "--input", str(graph_path))
    assert code == 2 and out == ""
    triple_path = tmp_path / "bad_triple.json"
    triple_path.write_text(
        json.dumps({"first": data, "second": g.to_json(), "first_legs": [1]})
    )
    code, out = run_cli(capsys, "graphs", "glue", "--input", str(triple_path))
    assert code == 2 and out == ""


ROOT_ORDERS = {
    # a pair naming a vertex or a root that does not exist, or any pair
    # with no vertex at all, used to exit 3 with an IndexError traceback
    "no-such-vertex": lambda d: d.update(root_order=[[0, 0], [1, 0]]),
    "no-such-root": lambda d: d.update(root_order=[[0, 0], [0, 2]]),
    "no-vertices": lambda d: d.update(vertices=[], leg_order=[]),
    # a negative index used to read a root from the end
    "negative-root": lambda d: d.update(root_order=[[0, 0], [0, -1]]),
    "negative-vertex": lambda d: d.update(root_order=[[-1, 0], [0, 1]]),
    # a root listed twice, or left out, used to be taken as given
    "repeated-root": lambda d: d.update(root_order=[[0, 0], [0, 0]]),
    "missing-root": lambda d: d.update(root_order=[[0, 1]]),
}


@pytest.mark.parametrize("case", sorted(ROOT_ORDERS))
def test_graphs_refuse_root_orders_off_the_declared_roots(tmp_path, capsys, case):
    g = AdmissibleGraph(NUMERIC_GROUP, (0,), ((1, 1),), (0,), ((0, 1), (0, 1)))
    data = g.to_json()
    assert data["root_order"] == [[0, 0], [0, 1]]
    ROOT_ORDERS[case](data)
    graph_path = tmp_path / "bad_graph.json"
    graph_path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "graphs", "validate", "--input", str(graph_path))
    assert (code, out) == (2, "")
    triple_path = tmp_path / "bad_triple.json"
    triple_path.write_text(
        json.dumps({"first": data, "second": g.to_json(), "first_legs": [1]})
    )
    for sub in ("glue", "eq-group"):
        code, out = run_cli(capsys, "graphs", sub, "--input", str(triple_path))
        assert (code, out) == (2, "")
    # the graph as written is read back as it was
    graph_path.write_text(json.dumps(g.to_json()))
    code, _ = run_cli(capsys, "graphs", "validate", "--input", str(graph_path))
    assert code in (0, 1)


@pytest.mark.parametrize("bad", [1.9, True, "1"])
@pytest.mark.parametrize("sub", ["glue", "eq-group"])
def test_graphs_reject_non_integer_first_legs(tmp_path, capsys, sub, bad):
    legged = AdmissibleGraph(NUMERIC_GROUP, (0,), ((1, 1),), (0,), ((0, 1),))
    bare = AdmissibleGraph(NUMERIC_GROUP, (0,), ((1, 1),), (), ((0, 1),))
    path = tmp_path / "triple.json"
    for legs, expected in (([1], 0), ([bad], 2)):
        data = {"first": legged.to_json(), "second": bare.to_json(), "first_legs": legs}
        path.write_text(json.dumps(data))
        code, out = run_cli(capsys, "graphs", sub, "--input", str(path))
        assert code == expected
    assert out == ""


CONTACT_FIELDS = [
    ("order",),
    ("series_order",),
    ("algebra", "order"),
    ("algebra", "relations", 0, 0, 0, 1),
    ("algebra", "relations", 0, 0, 1),
    ("psi_t", 1),
    ("phi_w1", "z1_tail", 0, 0),
    ("phi_w2", "z2_tail", 0, 0),
]
NON_EXACT = {
    "float": lambda v: float(Fraction(v)),
    "half": lambda v: float(Fraction(v)) + 0.5,
    "true": lambda v: True,
    "zero_den": lambda v: "1/0",
    "empty_den": lambda v: "1/",
}


@pytest.mark.parametrize("kind", sorted(NON_EXACT))
@pytest.mark.parametrize("path", CONTACT_FIELDS)
def test_contact_rejects_non_exact_numbers(tmp_path, capsys, path, kind):
    # s, c with c^2 = 0; every field on the list holds a 1, 2 or 4 here
    alg = TruncatedAlgebra(("s", "c"), [Poly(2, {(0, 2): 1})], order=4)
    ring = NodeRing(alg, order=4)
    data = {
        "algebra": alg.to_json(),
        "series_order": 4,
        "psi_t": alg.s.to_json(),
        "phi_w1": ring.z1().to_json(),
        "phi_w2": ring.z2().to_json(),
        "order": 1,
    }
    value = data
    for key in path:
        value = value[key]
    _set_path(data, path, NON_EXACT[kind](value))
    target = tmp_path / "bad_contact.json"
    target.write_text(json.dumps(data))
    for sub in ("check", "ideal"):
        code, out = run_cli(capsys, "contact", sub, "--input", str(target))
        assert code == 2 and out == ""


@pytest.mark.parametrize("top", [[], [1, 2], "contact", 3, None])
@pytest.mark.parametrize("sub", ["check", "ideal", "universality"])
def test_contact_rejects_non_object_input(tmp_path, capsys, sub, top):
    target = tmp_path / "not_an_object.json"
    target.write_text(json.dumps(top))
    code = main(["contact", sub, "--input", str(target), "--order", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "must hold a JSON object" in captured.err


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CONTACT = str(GOLDEN / "contact.json")


@pytest.mark.parametrize(
    "argv",
    [
        ["contact", "check", "--input", GOLDEN_CONTACT, "--order", "0"],
        ["contact", "ideal", "--input", GOLDEN_CONTACT, "--order", "0"],
        ["contact", "check", "--input", GOLDEN_CONTACT, "--trunc-series", "0"],
        ["contact", "check", "--input", GOLDEN_CONTACT, "--trunc-base", "0"],
        ["splice-check", "--n", "1", "--l", "0"],
        ["splice-check", "--n", "-1"],
        ["splice-check", "--n", "-2"],
        ["graphs", "enumerate", "--max-r", "-1"],
        ["graphs", "eq-group", "--input", str(GOLDEN / "triple.json"), "--max-r", "-1"],
    ],
    ids=[
        "check-order-0",
        "ideal-order-0",
        "trunc-series-0",
        "trunc-base-0",
        "splice-l-0",
        "splice-n-negative-1",
        "splice-n-negative-2",
        "enumerate-max-r-negative",
        "eq-group-max-r-negative",
    ],
)
def test_explicit_zero_flags_are_not_replaced(capsys, argv):
    # an explicit 0 (or a negative bound) is a value to reject, not a
    # request for the default
    code, out = run_cli(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "script, flag",
    [("run_verification.py", "--max-n"), ("degree_table.py", "--max-r")],
)
def test_scripts_reject_negative_bounds(script, flag):
    # a negative bound would check nothing and still report success
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script), flag, "-1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "must be non-negative" in proc.stderr
