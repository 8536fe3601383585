"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload(trace):
    proc = bench("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    names = run.LAYER_METRICS if trace == "1" else run.END_TO_END
    for w in run.WORKLOADS:
        for name, unit in names.items():
            assert out["metrics"][f"{w}.{name}"]["unit"] == unit


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.SPECS)
    model = json.loads((BENCH_DIR / "model.json").read_text())
    assert sorted(model["workloads"]) == sorted(run.WORKLOADS)
    for metric, moves in model["layer_map"].items():
        assert metric in tracing.LAYER_METRICS
        for target in moves:
            assert target["workload"] in run.WORKLOADS


def bindings():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name.startswith("copulachain") for attr, value in vars(mod).items()}


def test_tracing_keeps_reports_equal_and_restores_functions(tmp_path):
    from copulachain import montecarlo

    before = bindings()
    for name in run.WORKLOADS:
        w = workloads.make(name, 5, workloads.Gate(), tmp_path / name, in_process=True, smoke=True)
        plain = w.run()
        w.rewind()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert montecarlo.fit_mle is not before[("copulachain.montecarlo", "fit_mle")]
            traced = tracer.iteration(0, w.run)
        finally:
            tracer.restore()
        if name == "cli_file":
            assert plain[0] == traced[0] == {c: 0 for c in workloads.COMMANDS}
        else:
            assert traced == plain
        names = {s.name for s in tracer.spans}
        assert tracing.ROOT in names and "chain.simulate_bernoulli_chain" in names
        w.cleanup()
    assert bindings() == before


def test_self_times_add_up_to_the_iteration():
    tracer = tracing.Tracer()
    w = workloads.make("compare_long", 1, workloads.Gate(), None, smoke=True)
    tracer.install()
    try:
        for run_id in range(2):
            tracer.iteration(run_id, w.run)
    finally:
        tracer.restore()
    assert tracing.check_spans(tracer.spans) == []
    metrics = tracing.layer_metrics(tracer.spans, untraced_mean_s=0.0)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(metrics["trace.iteration_s"], rel=1e-9)
    assert metrics["chain.simulate_bernoulli_chain.calls"] == workloads.SMOKE["reps"]
    assert metrics["estimation.fit_mle.interior_ratio"] == 1.0


def test_span_check_flags_a_malformed_tree():
    S = tracing.Span
    good = [S(tracing.ROOT, 0.0, 10.0, -1, 0, None), S("a", 1.0, 4.0, 0, 0, None), S("b", 5.0, 9.0, 0, 0, None)]
    assert tracing.check_spans(good) == []
    assert len(tracing.check_spans([*good[:2], S("b", 3.0, 9.0, 0, 0, None)])) == 1  # overlaps a
    assert len(tracing.check_spans([*good[:2], S("b", 5.0, 11.0, 0, 0, None)])) == 1  # outlives its parent
    assert len(tracing.check_spans([*good[:2], S("b", 5.0, 9.0, 0, 1, None)])) == 1  # another run
    assert len(tracing.check_spans([S("a", 1.0, 4.0, -1, 0, None)])) == 1  # no root


def test_recorded_digest_passes_and_an_altered_one_trips_the_gate(tmp_path):
    gate = workloads.Gate()
    w = workloads.make("mc_interior", 0, gate, tmp_path)
    w.verify(w.run())
    assert gate.correct and gate.attempted == 1

    gate = workloads.Gate()
    w = workloads.make("mc_boundary", 0, gate, tmp_path, smoke=True)
    w.recorded = ["0" * 64] * len(w.configs)
    w.verify(w.run())
    assert gate.failed == 1 and not gate.correct

    gate = workloads.Gate()
    w = workloads.make("cli_file", 0, gate, tmp_path / "cli", in_process=True, smoke=True)
    w.recorded = {"estimate": "0" * 64}
    for _ in range(2):
        w.verify(w.run())
    w.cleanup()
    assert gate.attempted == 6 and gate.failed == 2


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "mc_interior", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(100))
    value, pct = worker.tail(samples)
    assert sum(s > value for s in samples) == 10 and pct == 90.0


@pytest.mark.parametrize(
    "head, expected",
    [
        ([0.8, 0.81, 0.79, 0.8, 0.82, 0.8, 0.78, 0.8, 0.81, 0.8], "gain"),
        ([1.3, 1.31, 1.29, 1.3, 1.32, 1.3, 1.28, 1.3, 1.31, 1.3], "regression"),
        ([1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0], "unchanged"),
    ],
)
def test_compare_verdicts(head, expected):
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert compare.verdict(base, head, "lower", 0.1, head_fails_more=False)[0] == expected


def test_compare_reports_a_wide_spread_as_unresolved():
    base = [1.0, 1.5, 0.6, 1.2, 0.8, 1.4, 0.7, 1.0, 1.3, 0.9]
    head = [b * 0.97 for b in base[::-1]]
    assert compare.verdict(base, head, "lower", 0.1, head_fails_more=False)[0] == "unresolved"
