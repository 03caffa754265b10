"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_bench.py -q

Each run of perfbench/run.py happens in a fresh process with --seconds 1, so
a timed run makes one pass and a traced run one untraced and one traced pass.
The whole file takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 600


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return proc


def bench_result(workload: str, seed: int, trace: int):
    proc = run_bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    report_path = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(report_path.read_text())


@pytest.fixture(scope="module")
def traced_twice():
    return [bench_result("avp-solve", 1, 1) for _ in range(2)]


def test_result_line_has_exactly_four_keys(traced_twice):
    result, _ = traced_twice[0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_timed_run_emits_every_end_to_end_metric():
    result, report = bench_result("avp-solve", 2, 0)
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    prov = report["provenance"]
    for key in ("nproc", "python", "numpy", "scipy", "sympy", "git_commit", "seed",
                "blas_threads", "samples"):
        assert key in prov
    assert set(prov["samples"]) == set(want)
    assert report["fail_ratio"] == 0.0


def test_traced_run_emits_every_layer_metric(traced_twice):
    result, _ = traced_twice[0]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_self_times_add_up_to_the_traced_pass(traced_twice):
    for result, report in traced_twice:
        table = report["detail"]["span_tables"][0]
        metrics = report["detail"]["per_pass"][0]
        layers_self = sum(row["self_s"] for name, row in table.items() if name != "pass")
        outside = metrics["trace.outside_s"]
        assert outside >= 0.0
        assert abs(layers_self + outside - metrics["trace.pass_s"]) <= 1e-6 * metrics["trace.pass_s"]
        # The named layers cover the pass: little time is left outside them.
        assert outside <= 0.01 * metrics["trace.pass_s"]


def test_counts_repeat_exactly_for_the_same_seed(traced_twice):
    (first, _), (second, _) = traced_twice
    counts = [m["name"] for m in BENCH["per_layer"] if m["unit"] == "count"]
    assert "nlp.sqp_iters" in counts and "nlp.qp_iters" in counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["nlp.sqp_iters"]["value"] > 0


def test_rollout_does_no_nlp_or_transcription_work():
    result, _ = bench_result("avp-rollout", 1, 1)
    assert result["correct"] is True
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name.startswith(("nlp.", "transcription.")):
            assert m["value"] == 0.0, name
    assert metrics["ocp.dynamics_calls"]["value"] > 0
    assert metrics["ocp.jacobian_calls"]["value"] == 0.0


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("avp-solve", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
