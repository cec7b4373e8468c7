#!/usr/bin/env python3
"""The degkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports ``degkit`` from ``src/``
there and reads and writes nothing outside the checkout (scratch files go
to ``.perfbench/``).

Each workload is one closed-loop client: one process, one thread, and each
op is issued only when the previous one has returned.  A pass issues the
workload's whole op list, which the seed fixes, in a fresh process, so the
package's module-level caches start cold as they do for a command-line
user.  With ``--trace 0`` the run issues passes back to back while the next
one still fits in ``--seconds`` (always at least one) and reports the
end-to-end metrics over all of them:

- ``ops_per_s``: ops per second of time spent inside ops (the client's
  answer checks between ops are not counted);
- ``op_p50_ms``, ``op_p90_ms``: per-op latency over every op of the run;

  op times are scaled to a reference CPU speed measured between ops, see
  ``wl_common.run_pass``;
- ``setup_s``: from process start until the inputs are ready (interpreter
  start, ``import degkit``, input generation, CLI input files), the median
  over the passes plus set-up-only processes, at least five and up to
  fifteen of them, until they add up to two seconds;
- ``peak_rss_mib``: the median over passes of the process's maximum RSS.

With ``--trace 1`` it runs one untraced and one traced pass and reports the
per-layer metrics of the traced one (see ``tracer.py``), with the tracing
overhead as the traced pass's extra time inside ops.

Every answer is checked by an oracle outside the package; a raised
exception, a wrong exit code or a wrong answer makes an op fail.  Every pass
hashes its answers into a digest, which must be the same for every pass of
a run and for every run with the same code and seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
environment, the digest and the per-pass figures goes to ``--results``;
``compare.py`` compares two directories of such records.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from worker import SIZES, WORKLOADS  # noqa: E402

# set-up is timed at least SETUP_SAMPLES times per run, and more often while
# the samples add up to less than SETUP_TIME_S, at most MAX_SETUP_SAMPLES
SETUP_SAMPLES = 5
SETUP_TIME_S = 2.0
MAX_SETUP_SAMPLES = 15
MAX_PASSES = 20
RUN_BUDGET_S = 170  # a run that is not done by then gives up without a result


class BenchError(Exception):
    pass


def source_digest(root):
    """Hash of the package sources, which identifies the code when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "degkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "loadavg": os.getloadavg(),
        "degkit_threads": os.environ.get("DEGKIT_THREADS"),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def child_env():
    env = dict(os.environ)
    env.pop("DEGKIT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root, args, trace=0, setup_only=False):
    """Run worker.py once and return its JSON record plus its wall time."""
    remaining = args.deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("the run took longer than %d s" % RUN_BUDGET_S)
    workdir = os.path.join(root, ".perfbench", "work", "%d-%d" % (os.getpid(), time.time_ns()))
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--size", args.size,
        "--trace", str(trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("the run took longer than %d s" % RUN_BUDGET_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    wall = time.perf_counter() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("worker exited with %s" % proc.returncode)
    record = json.loads(lines[-1])
    record["wall_s"] = wall
    return record


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(root, args):
    begin = time.perf_counter()
    passes = []
    while len(passes) < MAX_PASSES:
        passes.append(spawn(root, args))
        elapsed = time.perf_counter() - begin
        if elapsed + passes[-1]["wall_s"] > args.seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES or (
        sum(setups) < SETUP_TIME_S and len(setups) < MAX_SETUP_SAMPLES
    ):
        setups.append(spawn(root, args, setup_only=True)["setup_s"])
    latencies = [x for p in passes for x in p["latencies_s"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values = {
        "ops_per_s": (attempted - failed) / sum(p["busy_s"] for p in passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * quantile(latencies, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(p["maxrss_mib"] for p in passes),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, *_ in END_TO_END}
    samples = {
        "ops_per_s": attempted,
        "op_p50_ms": len(latencies),
        "op_p90_ms": len(latencies),
        "setup_s": len(setups),
        "peak_rss_mib": len(passes),
    }
    return passes, metrics, {"samples": samples, "setup_samples_s": setups}


def traced_run(root, args):
    plain = spawn(root, args, trace=0)
    traced = spawn(root, args, trace=1)
    values = dict(traced["layers"])
    values["trace.overhead_pct"] = 100.0 * (traced["busy_s"] / plain["busy_s"] - 1.0)
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name, *_ in PER_LAYER}
    files = {k: traced[k] for k in ("spans_file", "op_counts_file")}
    return [plain, traced], metrics, files


@contextlib.contextmanager
def exclusive(root):
    """Hold a lock in the checkout so that two runs never overlap."""
    os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
    with open(os.path.join(root, ".perfbench", "run.lock"), "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def run_one(root, args):
    args.deadline = time.perf_counter() + RUN_BUDGET_S
    env = environment(root, args)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    runner = traced_run if args.trace else timed_run
    passes, metrics, extra = runner(root, args)
    digests = sorted({p["digest"] for p in passes})
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for line in failures[:20]:
        print("# FAILED " + line.replace("\n", " | "), file=sys.stderr)
    result = {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print("# digest " + " ".join(digests))
    if "samples" in extra:
        print("# samples " + json.dumps(extra["samples"], sort_keys=True))
    record = {
        "env": env,
        "digest": digests,
        "result": result,
        "passes": [
            {k: v for k, v in p.items() if k not in ("latencies_s", "layers")}
            for p in passes
        ],
        **extra,
    }
    os.makedirs(args.results, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed, args.trace, time.time_ns())
    with open(os.path.join(args.results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="degkit benchmark", formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'smoke' runs a few ops per workload, for the benchmark's tests")
    parser.add_argument("--results", default=os.path.join(".perfbench", "results"),
                        help="directory for the run records (default: %(default)s)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "degkit", "__init__.py")):
        print("error: run from the root of a degkit checkout (no src/degkit here)", file=sys.stderr)
        return 2
    try:
        with exclusive(root):
            if args.workload != "all":
                result = run_one(root, args)
                print(json.dumps(result, sort_keys=True))
                return 0
            results = {}
            for workload in WORKLOADS:
                args.workload = workload
                results[workload] = run_one(root, args)
            print_table(results)
            print(json.dumps(results, sort_keys=True))
            return 0
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


def print_table(results):
    for workload, result in results.items():
        flag = "" if result["correct"] else "  INCORRECT"
        print("%s: %d ops, %d failed%s" % (workload, result["attempted"], result["failed"], flag))
        for name, metric in result["metrics"].items():
            print("  %-32s %14.6g %s" % (name, metric["value"], metric["unit"]))


if __name__ == "__main__":
    sys.exit(main())
