"""Tests of the benchmark itself, at the smoke size.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from worker import WORKLOADS, import_degkit  # noqa: E402

import_degkit(ROOT)

import degkit.cli  # noqa: E402
import degkit.combgraphs as cg  # noqa: E402
import degkit.localmodel as lm  # noqa: E402
import wl_common  # noqa: E402
import wl_enumerate  # noqa: E402
import wl_symbolic  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_bench(tmp_path, *args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--results", str(tmp_path / "results"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [tuple(m.values()) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [tuple(m.values()) for m in bench["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric(tmp_path, workload, trace):
    proc = run_bench(
        tmp_path, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "smoke",
    )
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert {n: u for n, u, *_ in expected} == {
        n: m["unit"] for n, m in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def test_same_code_and_seed_give_the_same_digest(tmp_path):
    def digest(seed):
        proc = run_bench(tmp_path, "--workload", "contact", "--seed", str(seed),
                         "--seconds", "1", "--size", "smoke")
        assert proc.returncode == 0, proc.stderr
        lines = [x for x in proc.stdout.splitlines() if x.startswith("# digest ")]
        assert len(lines) == 1 and len(lines[0].split()) == 3  # one digest for all passes
        return lines[0]

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(tmp_path, "--workload", "gluing", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def failures_of(ops):
    return wl_common.run_pass(ops).failures


def test_oracle_flags_a_wrong_symbolic_answer(tmp_path, monkeypatch):
    assert failures_of(wl_symbolic.setup(1, "smoke", str(tmp_path))) == []
    real = lm.splice_check

    def wrong(n, l):
        report = real(n, l)
        first = report.checks[0]
        flipped = lm.CheckResult(first.name, not first.passed, "injected")
        return lm.Report((flipped,) + report.checks[1:])

    monkeypatch.setattr(lm, "splice_check", wrong)
    failures = failures_of(wl_symbolic.setup(1, "smoke", str(tmp_path)))
    assert failures and all("splice" in f for f in failures)


def test_oracle_flags_a_dropped_split_map(tmp_path, monkeypatch):
    real = cg.enumerate_split_maps
    monkeypatch.setattr(cg, "enumerate_split_maps", lambda *a, **k: real(*a, **k)[1:])
    failures = failures_of(wl_enumerate.setup(1, "smoke", str(tmp_path)))
    assert any("frozen count" in f for f in failures)


def test_oracle_flags_a_wrong_exit_code(tmp_path, monkeypatch):
    real = degkit.cli.main
    monkeypatch.setattr(degkit.cli, "main", lambda argv: real(argv) or 1)
    failures = failures_of(wl_symbolic.setup(1, "smoke", str(tmp_path)))
    assert failures and all("exit code" in f for f in failures)


def test_self_times_add_up_to_the_op_time(tmp_path):
    original = lm.verify_atlas
    tracer = Tracer()
    tracer.install(extra_modules=[wl_symbolic])
    assert lm.verify_atlas is not original
    try:
        wl_common.run_pass(wl_symbolic.setup(2, "smoke", str(tmp_path)), tracer)
    finally:
        tracer.uninstall()
    assert lm.verify_atlas is original
    roots = [
        end - start
        for start, end, parent in zip(tracer._starts, tracer._ends, tracer._parents)
        if parent == -1
    ]
    total_self = sum(tracer.self_time.values())
    assert total_self == pytest.approx(sum(roots), rel=1e-9)
    metrics = tracer.layer_metrics()
    assert metrics["polys.poly_mul.calls"] > 0
    assert metrics["localmodel.checks_failed"] > 0  # the negative control
    assert metrics["combgraphs.maps_built"] == 0
