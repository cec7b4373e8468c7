"""One pass of one workload in a fresh process (started by run.py).

Imports ``degkit`` from ``src/`` of the current directory, builds the
workload's inputs from the seed, reports when set-up is done, issues the
pass and prints one JSON line with what it measured.  With ``--setup-only``
it stops after set-up.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("symbolic", "contact", "enumerate", "gluing")
SIZES = ("full", "smoke")


def import_degkit(root):
    """Import the package from ``<root>/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import degkit
    import degkit.cli  # noqa: F401  (the CLI ops and the tracer need it loaded)

    where = os.path.dirname(os.path.abspath(degkit.__file__))
    if where != os.path.join(src, "degkit"):
        raise ImportError("degkit was imported from %s, not from %s" % (where, src))
    return degkit


def workload_module(name):
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    return importlib.import_module("wl_" + name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    import_degkit(root)
    module = workload_module(args.workload)
    os.makedirs(args.workdir, exist_ok=True)
    try:
        ops = module.setup(args.seed, args.size, args.workdir)
        setup_s = time.time() - args.spawned_at
        record = {"setup_s": setup_s}
        if not args.setup_only:
            record.update(measure(module, ops, args))
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


def measure(module, ops, args):
    from wl_common import run_pass

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(extra_modules=[module])
    try:
        result = run_pass(ops, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out = {
        "attempted": result.attempted,
        "failed": len(result.failures),
        "failures": result.failures[:20],
        "digest": result.digest.hexdigest(),
        "latencies_s": result.latencies,
        "busy_s": sum(result.latencies),
        "raw_busy_s": sum(result.raw_latencies),
        "raw_latencies_s": result.raw_latencies,
        "op_reference_s": result.op_reference_s,
        "reference_s": sorted(result.reference_s)[len(result.reference_s) // 2],
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        traces = os.path.join(os.getcwd(), ".perfbench", "traces")
        os.makedirs(traces, exist_ok=True)
        stem = os.path.join(traces, "%s-seed%d" % (args.workload, args.seed))
        tracer.write_spans(stem + ".spans.tsv")
        tracer.write_op_counts(stem + ".ops.jsonl")
        out["spans_file"] = os.path.relpath(stem + ".spans.tsv")
        out["op_counts_file"] = os.path.relpath(stem + ".ops.jsonl")
    return out


if __name__ == "__main__":
    sys.exit(main())
