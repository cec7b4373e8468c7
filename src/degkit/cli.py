"""Command-line front end: verification suites, contact queries, graph and
split-map tooling.

Every report is deterministic: keys are sorted, all numbers are exact
integers or rationals rendered as p/q, and repeated runs on the same input
produce byte-identical output.  Exit status 0 means every requested check
passed, 1 flags a failed check, 2 refused input, 3 an internal error.

Every refusal of input is a ValueError: the named errors of the library
(``ContactError``, ``GraphError``, ``SplitMapError``) subclass it, and so
do its range checks and the JSON readers' refusals, each of which names
the path of the field at fault (``contact.phi_w1.z1_tail[2] has 3
coefficients, the algebra has 4``).  :func:`main` prints its message and
exits 2; any other exception is a fault of the program and exits 3 with
its traceback.
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
from .polys import _json_field

# the largest --max-r that graphs enumerate runs: six roots give the
# largest triple list that CI pins (9,324 triples, about 120 MiB), while
# eight outgrew 6.5 GB of memory without finishing
ENUMERATE_MAX_R = 6


def _load(path):
    if path is None:
        raise ValueError("this subcommand needs --input")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:  # unreadable, not UTF-8, not JSON
        raise ValueError("cannot read %s: %s" % (path, err))
    if not isinstance(data, dict):
        raise ValueError(
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
    """The contact query of the input object ``data``, with the truncation
    overrides of ``args``, and its contact order: ``--order``, else the
    file's optional ``order``, else None.  The file holds the ``algebra``,
    an optional ``series_order`` (8 when absent), the element ``psi_t``,
    the series ``phi_w1`` and ``phi_w2`` and an optional ``mode``.  A
    field of the wrong shape raises ValueError naming its path under
    ``contact``."""
    field = functools.partial(_json_field, ValueError)
    order = field(data, "order", int, "contact", default=None)
    series_order = field(data, "series_order", int, "contact", default=8)
    spec = field(data, "algebra", dict, "contact")
    if args.trunc_base is not None:
        # the file's own order is checked, whatever the override asks for
        field(spec, "order", int, "contact.algebra")
        spec = {**spec, "order": args.trunc_base}
    algebra = TruncatedAlgebra.from_json(spec, "contact.algebra")
    # each series' own order must agree with the file's, whatever the
    # override asks for
    for key in ("phi_w1", "phi_w2"):
        series = field(data, key, dict, "contact")
        own = field(series, "order", int, "contact." + key, default=series_order)
        if own != series_order:
            raise ValueError(
                "contact.%s.order is %d but contact.series_order is %d"
                % (key, own, series_order)
            )
    if args.trunc_series is not None:
        series_order = args.trunc_series
    ring = NodeRing(algebra, series_order)
    psi_t = element_from_json(
        algebra, field(data, "psi_t", list, "contact"), "contact.psi_t"
    )
    phi1, phi2 = (
        series_from_json(ring, data[key], "contact." + key)
        for key in ("phi_w1", "phi_w2")
    )
    cdata = ct.ContactData(
        ring, psi_t, phi1, phi2, field(data, "mode", str, "contact", default=ct.NODE)
    )
    return cdata, order if args.order is None else args.order


def _hom_from_json(source, spec, path):
    """The algebra map out of ``source`` given by the JSON object at
    ``path``: its ``target`` algebra and the list of ``images`` of the
    source's generators, elements of the target.  A field of the wrong
    shape raises ValueError naming its path."""
    field = functools.partial(_json_field, ValueError)
    target = TruncatedAlgebra.from_json(
        field(spec, "target", dict, path), path + ".target"
    )
    images = [
        element_from_json(target, x, "%s.images[%d]" % (path, i))
        for i, x in enumerate(field(spec, "images", list, path))
    ]
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
            raise ValueError("--n must be nonnegative")
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
        cdata, order = _contact_data(args, data)
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
                raise ValueError("contact ideal needs --order")
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
                raise ValueError("contact universality needs --order")
            homs = [
                _hom_from_json(cdata.algebra, spec, "contact.homs[%d]" % i)
                for i, spec in enumerate(
                    _json_field(ValueError, data, "homs", list, "contact", default=[])
                )
            ]
            if not homs:
                raise ValueError("universality needs a nonempty hom family")
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
        raise ValueError("unknown contact subcommand")

    if args.command == "graphs":
        if args.max_r is not None and args.max_r < 0:
            raise ValueError("--max-r must be nonnegative")
        if args.subcommand == "enumerate":
            max_r = ENUMERATE_MAX_R if args.max_r is None else args.max_r
            if max_r > ENUMERATE_MAX_R:
                sys.stderr.write(
                    "note: --max-r %d clamped to %d\n" % (max_r, ENUMERATE_MAX_R)
                )
            alpha = cg.TripleAlphabet(max_roots=min(max_r, ENUMERATE_MAX_R))
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
        triple = cg._triple_from_json(data)
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
            elements = cg.eq_group(triple, 8 if args.max_r is None else args.max_r)
            payload = {
                "order": len(elements),
                "elements": sorted(_perm_name(s) for s in elements),
            }
            _emit(args, payload)
            return 0
        raise ValueError("unknown graphs subcommand")

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
                raise ValueError("maps decompose needs --l")
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
        raise ValueError("unknown maps subcommand")

    raise ValueError("unknown command %r" % args.command)


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
        p.add_argument("--max-r", type=int, default=None)
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
    except ValueError as err:  # refused input, named errors included
        sys.stderr.write("error: %s\n" % err)
        return 2
    except Exception:  # a fault of the program
        sys.stderr.write("internal error\n" + traceback.format_exc())
        return 3


if __name__ == "__main__":
    sys.exit(main())
