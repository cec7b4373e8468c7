"""Command-line front end: verification suites, contact queries, graph and
split-map tooling.

Every report is deterministic: keys are sorted, all numbers are exact
integers or rationals rendered as p/q, and repeated runs on the same input
produce byte-identical output.  Exit status 0 means every requested check
passed, 1 flags a failed check, 2 malformed input, 3 an internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from . import combgraphs as cg
from . import contact as ct
from . import localmodel as lm
from .exactalg import (
    AlgebraHom,
    NodeRing,
    TruncatedAlgebra,
    element_from_json,
    series_from_json,
)
from .polys import _json_field, _json_ints, _json_typed


class InputError(ValueError):
    pass


def _load(path):
    if path is None:
        raise InputError("this subcommand needs --input")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise InputError("cannot read %s: %s" % (path, err))
    if not isinstance(data, dict):
        raise InputError(
            "%s must hold a JSON object, not %s" % (path, type(data).__name__)
        )
    return data


def _emit(args, payload):
    if args.fmt == "dot" and isinstance(payload, str):
        body = payload
    else:
        body = json.dumps(payload, sort_keys=True, indent=2)
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    else:
        sys.stdout.write(body + "\n")


def _contact_data(args, data):
    try:
        for key in ("order", "series_order"):
            if data.get(key) is not None:
                _json_ints(ValueError, data[key])
        base_order = args.trunc_base
        if base_order is None:
            base_order = data["algebra"]["order"]
        algebra = TruncatedAlgebra.from_json({**data["algebra"], "order": base_order})
        # each series' own order must agree with the file's, whatever the
        # override asks for
        series_order = data.get("series_order", 8)
        for key in ("phi_w1", "phi_w2"):
            series = data[key]
            own = series["order"] if "order" in series else series_order
            if _json_ints(ValueError, own) != (series_order,):
                raise ValueError(
                    "%s has order %r but series_order is %r"
                    % (key, own, series_order)
                )
        if args.trunc_series is not None:
            series_order = args.trunc_series
        ring = NodeRing(algebra, series_order)
        psi_t = element_from_json(algebra, data["psi_t"])
        phi1 = series_from_json(ring, data["phi_w1"])
        phi2 = series_from_json(ring, data["phi_w2"])
        return ct.ContactData(ring, psi_t, phi1, phi2, data.get("mode", ct.NODE))
    except (KeyError, ValueError) as err:
        raise InputError("bad contact input: %s" % err)


def _hom_from_json(source, spec):
    target = TruncatedAlgebra.from_json(spec["target"])
    images = [element_from_json(target, im) for im in spec["images"]]
    return AlgebraHom(source, target, images)


def _perm_name(sigma):
    if all(i == v for i, v in enumerate(sigma)):
        return "id"
    seen = set()
    cycles = []
    for start in range(len(sigma)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = sigma[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = sigma[nxt]
        if len(cyc) > 1:
            cycles.append("(" + " ".join(str(c + 1) for c in cyc) + ")")
    return "".join(cycles)


def run(args):
    """Dispatch parsed arguments; returns the process exit status."""
    if args.command == "verify-atlas":
        atlas = lm.gamma_atlas(args.n)
        report = lm.verify_atlas(atlas)
        _emit(args, report.to_json())
        return 0 if report.passed else 1

    if args.command == "resolution-check":
        _, report = lm.verify_resolution()
        _emit(args, report.to_json())
        return 0 if report.passed else 1

    if args.command == "splice-check":
        if args.n < 0:
            raise InputError("--n must be nonnegative")
        ls = list(range(1, args.n + 2)) if args.l is None else [args.l]
        payload = {}
        ok = True
        for l in ls:
            report = lm.splice_check(args.n, l)
            payload["l=%d" % l] = report.to_json()
            ok = ok and report.passed
        _emit(args, payload)
        return 0 if ok else 1

    if args.command == "contact":
        data = _load(args.input_path)
        cdata = _contact_data(args, data)
        order = data.get("order") if args.order is None else args.order
        if args.subcommand == "check":
            if order is None:
                order = ct.contact_orders(cdata)[0]
            report = ct.check_pure_contact(cdata, order)
            payload = {
                "pure": report.pure,
                "n": order,
                "left_order": report.left_order,
                "right_order": report.right_order,
            }
            if report.pure:
                payload["beta"] = report.beta.render()
                payload["epsilon"] = report.epsilon.render()
                payload["orientation"] = report.orientation
            else:
                payload["certificate"] = report.certificate
            _emit(args, payload)
            return 0 if report.pure else 1
        if args.subcommand == "ideal":
            if order is None:
                raise InputError("contact ideal needs --order")
            ideal = ct.predeformability_ideal(cdata, order)
            payload = {
                "n": order,
                "generators": [g.render() for g in ideal.generators],
                "generator_vectors": [g.to_json() for g in ideal.generators],
                "span_dimension": ideal.span.dim,
                "zero": ideal.is_zero(),
            }
            _emit(args, payload)
            return 0
        if args.subcommand == "universality":
            if order is None:
                raise InputError("contact universality needs --order")
            homs = [
                _hom_from_json(cdata.algebra, spec)
                for spec in data.get("homs", [])
            ]
            if not homs:
                raise InputError("universality needs a nonempty hom family")
            holds, results = ct.verify_universality(cdata, order, homs)
            payload = {
                "holds": holds,
                "cases": [
                    {"pure": pure, "ideal_killed": killed}
                    for _, pure, killed in results
                ],
            }
            _emit(args, payload)
            return 0 if holds else 1
        raise InputError("unknown contact subcommand")

    if args.command == "graphs":
        if args.max_r < 0:
            raise InputError("--max-r must be nonnegative")
        if args.subcommand == "enumerate":
            if args.max_r > 8:
                sys.stderr.write("note: --max-r %d clamped to 8\n" % args.max_r)
            alpha = cg.TripleAlphabet(max_roots=min(args.max_r, 8))
            triples = cg.enumerate_triples(alpha)
            payload = {
                "count": len(triples),
                "by_roots": {},
            }
            for tr in triples:
                key = str(tr.num_roots)
                payload["by_roots"][key] = payload["by_roots"].get(key, 0) + 1
            _emit(args, payload)
            return 0
        data = _load(args.input_path)
        if args.subcommand == "validate":
            graph = cg.graph_from_json(data)
            payload = {
                "vertices": graph.num_vertices,
                "roots": graph.num_roots,
                "legs": graph.num_legs,
                "contact_defects": list(graph.contact_defects()),
                "contact_ok": graph.satisfies_contact(),
            }
            _emit(args, payload)
            return 0 if graph.satisfies_contact() else 1
        first, second = (
            cg._graph_from_json(
                _json_field(cg.GraphError, data, side, dict, "triple"), "triple." + side
            )
            for side in ("first", "second")
        )
        first_legs = data.get("first_legs", [])
        _json_typed(cg.GraphError, first_legs, list, "triple.first_legs", int)
        triple = cg.AdmissibleTriple(first, second, first_legs)
        if args.subcommand == "glue":
            glued, genus, degree, ttype = cg.glue(triple)
            if args.fmt == "dot":
                _emit(args, glued.to_dot())
                return 0
            payload = {
                "genus": genus,
                "degree": degree,
                "topological_type": {
                    "degree": ttype.degree,
                    "genus": ttype.genus,
                    "marks": ttype.marks,
                },
                "betti": glued.betti(),
                "edges": [[a, b, w] for a, b, w in glued.edges],
            }
            _emit(args, payload)
            return 0
        if args.subcommand == "eq-group":
            elements = cg.eq_group(triple, bound=args.max_r)
            payload = {
                "order": len(elements),
                "elements": sorted(_perm_name(s) for s in elements),
            }
            _emit(args, payload)
            return 0
        raise InputError("unknown graphs subcommand")

    if args.command == "maps":
        data = _load(args.input_path)
        sm = cg.split_map_from_json(data)
        if args.subcommand == "stability":
            payload = {
                "stable": sm.is_stable(),
                "oracle": sm.stability_oracle(),
                "weights": list(sm.weights()),
            }
            _emit(args, payload)
            return 0 if sm.is_stable() else 1
        if args.subcommand == "norm":
            t = sm.total_type()
            payload = {
                "type": {"degree": t.degree, "genus": t.genus, "marks": t.marks},
                "norm": t.norm(),
                "weights": list(sm.weights()),
                "identity_holds": sm.verify_norm_identity(),
            }
            _emit(args, payload)
            return 0 if sm.verify_norm_identity() else 1
        if args.subcommand == "decompose":
            if args.l is None:
                raise InputError("maps decompose needs --l")
            side1, side2, sigma = cg.decompose(sm, args.l)

            def half(side):
                return {
                    "groups": [
                        [[p.genus, p.degree, p.marks] for p in g] for g in side.groups
                    ],
                    "roots": [[mu, p] for mu, p in side.roots],
                }

            payload = {
                "interface_weights": list(sigma),
                "first": half(side1),
                "second": half(side2),
                "roundtrip": cg.glue_halves(side1, side2) == sm,
            }
            _emit(args, payload)
            return 0 if payload["roundtrip"] else 1
        raise InputError("unknown maps subcommand")

    raise InputError("unknown command %r" % args.command)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="degkit",
        description="exact verification toolkit for expanded-model charts, "
        "node-ring contact calculus, and gluing combinatorics",
    )
    parser.set_defaults(subcommand=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False):
        p.add_argument("--input", dest="input_path", default=None)
        p.add_argument("--out", dest="out_path", default=None)
        p.add_argument(
            "--format", dest="fmt", choices=("json", "text", "dot"), default="json"
        )
        p.add_argument("--trunc-base", type=int, default=None)
        p.add_argument("--trunc-series", type=int, default=None)
        p.add_argument("--max-r", type=int, default=8)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--l", type=int, default=None)

    for name in ("verify-atlas", "resolution-check", "splice-check"):
        common(sub.add_parser(name))
    for name, subs in (
        ("contact", ("check", "ideal", "universality")),
        ("graphs", ("validate", "glue", "eq-group", "enumerate")),
        ("maps", ("stability", "norm", "decompose")),
    ):
        p = sub.add_parser(name)
        p.add_argument("subcommand", choices=subs)
        common(p)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (InputError, ct.ContactError, cg.GraphError, cg.SplitMapError) as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    except (KeyError, TypeError, ValueError) as err:
        sys.stderr.write("error: malformed input (%s)\n" % err)
        return 2
    except Exception:  # internal invariant breach
        sys.stderr.write("internal error\n" + traceback.format_exc())
        return 3


if __name__ == "__main__":
    sys.exit(main())
