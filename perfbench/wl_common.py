"""Pieces shared by the workloads: the op record, the in-process CLI call,
and the closed loop that issues one pass of ops."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import time
import traceback
from fractions import Fraction


class WrongAnswer(Exception):
    """An op returned, but the oracle rejects its answer."""


def require(condition, what):
    if not condition:
        raise WrongAnswer(what)


def digest_text(obj):
    """Short stable hash of a JSON-serialisable answer."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Op:
    """One call into the package.

    ``call`` is the timed part.  ``check`` receives its result with tracing
    off, raises :class:`WrongAnswer` when the answer is wrong, and returns a
    short text that goes into the run digest.  ``result`` holds the answer
    once the op has run and passed, so later ops and checks can use it.
    """

    __slots__ = ("name", "call", "check", "is_cli", "result")

    def __init__(self, name, call, check, is_cli=False):
        self.name = name
        self.call = call
        self.check = check
        self.is_cli = is_cli
        self.result = None


def cli_op(name, argv, check):
    """An op that runs ``degkit.cli.main(argv)`` in this process and hands
    ``(exit code, stdout text)`` to ``check``."""
    import degkit.cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = degkit.cli.main(list(argv))
        return code, out.getvalue()

    return Op(name, call, check, is_cli=True)


def cli_json(result, expected_code):
    """The JSON payload of a CLI answer after checking its exit code."""
    code, text = result
    require(code == expected_code, "exit code %r, expected %r" % (code, expected_code))
    return json.loads(text)


def write_json(workdir, name, payload):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return path


# On a shared 2-vCPU machine the CPU speed drifts by up to a quarter over
# tens of seconds (other tenants, clock boost), and pure-Python code of every
# kind slows with it, if not all by the same share.  So the loop times a
# fixed reference snippet between ops, at most every CALIBRATE_EVERY_S, and
# scales each op's latency by REFERENCE_S over the median of the
# CALIBRATION_WINDOW reference times taken just before and just after it:
# latencies read as at the speed where the reference takes REFERENCE_S.
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW = 3
REFERENCE_S = 0.004
_REF_TABLE = list(range(4096))


def reference():
    """Fixed pure-Python work in the package's style: exact rationals, tuple
    keys, dict updates and a walk over a list."""
    table = {}
    x = Fraction(0)
    for i in range(800):
        x = x * Fraction(1, 2) + Fraction(i % 7 + 1, i % 5 + 2)
        table[(i % 31, i % 7)] = x
    total = 0
    for v in _REF_TABLE:
        total += v & 7
    return len(table) + total


class PassResult:
    def __init__(self):
        self.latencies = []
        self.raw_latencies = []
        self.reference_s = []
        self.op_reference_s = []
        self.failures = []
        self.attempted = 0
        self.digest = hashlib.sha256()


def run_pass(ops, tracer=None):
    """Issue every op of ``ops`` (an iterable, possibly lazy) one after the
    other; each op starts only when the previous one and its check are done.
    """
    out = PassResult()
    before = []  # index of the last reference timing before each op
    last = -CALIBRATE_EVERY_S

    def calibrate():
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        out.reference_s.append(end - start)
        return end

    for index, op in enumerate(ops):
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            last = calibrate()
        before.append(len(out.reference_s) - 1)
        out.attempted += 1
        error = None
        if tracer is not None:
            tracer.begin_op(index, op.name)
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        out.raw_latencies.append(elapsed)
        if error is None:
            if tracer is not None and op.is_cli:
                tracer.counts["cli.out_bytes"] += len(result[1].encode())
            try:
                summary = op.check(result)
                op.result = result
            except WrongAnswer as wrong:
                error = "wrong answer: %s" % wrong
            except Exception:
                error = "check raised: " + traceback.format_exc(limit=3)
        if error is not None:
            out.failures.append("%s: %s" % (op.name, error))
            summary = "FAILED"
        out.digest.update(("%s\t%s\n" % (op.name, summary)).encode())
    calibrate()
    ref = out.reference_s
    w = CALIBRATION_WINDOW
    out.op_reference_s = [statistics.median(ref[max(b + 1 - w, 0) : b + 1 + w]) for b in before]
    out.latencies = [
        raw * REFERENCE_S / r for raw, r in zip(out.raw_latencies, out.op_reference_s)
    ]
    return out
