"""Run the copulachain benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mc_interior --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 25

Run from the root of a checkout; the library is imported from its ``src``.
Each workload runs in a fresh worker process with BLAS and OpenMP pinned to
one thread.  The run prints every metric with its unit (with ``--trace 0``
also the raw median, tail, throughput, per-command CLI times and fail ratio,
which are not gated), then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  ``--record FILE``
appends the full result, with provenance, as one JSON line (compare.py
reads these).  Exits nonzero, printing no result, if the checkout holds
no library or the run fails to finish.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS

BENCH_DIR = Path(__file__).resolve().parent

WORKLOADS = ("mc_interior", "mc_boundary", "compare_long", "cli_file")
END_TO_END = {"setup_s": "s", "iter_s_norm": "s", "peak_rss_mb": "MB"}
DETAIL = json.loads((BENCH_DIR / "model.json").read_text())["detail_metrics"]
SETUP_IMPORTS = 7
DEADLINE_S = 170.0
# In each fresh interpreter, a fixed pure-Python loop times the host's speed
# just before the import; numpy may not be imported first, as the import
# under test loads it.  See worker.probe for why.
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter(); sum(j * j % 7 for j in range(200_000)); c = time.perf_counter() - t\n"
    "t = time.perf_counter(); import copulachain; print(time.perf_counter() - t, c)"
)
IMPORT_PROBE_REF_S = 0.015  # fixed scale: the loop's time on the reference host in a fast phase


def bench_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def setup_seconds(root, env):
    """Time of ``import copulachain`` in a fresh interpreter: (normalised, raw).

    Both are medians over ``SETUP_IMPORTS`` interpreters; the normalised one
    divides each import by the loop timed before it and scales by
    ``IMPORT_PROBE_REF_S``.  One untimed import first writes the bytecode
    cache, as any first use does.
    """
    def probe():
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=root,
                              capture_output=True, text=True, timeout=60, check=True)
        return [float(x) for x in proc.stdout.split()]

    probe()
    runs = [probe() for _ in range(SETUP_IMPORTS)]
    return (IMPORT_PROBE_REF_S * statistics.median(s / c for s, c in runs),
            statistics.median(s for s, _ in runs))


def commit_of(root):
    """(git commit or None, sha256 of the library's sources)."""
    h = hashlib.sha256()
    for f in sorted((root / "src" / "copulachain").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return commit, h.hexdigest()


def run_one(root, workload, seed, seconds, trace, smoke):
    """One run of one workload; the full result, or None if the worker failed."""
    deadline = time.monotonic() + DEADLINE_S
    env = bench_env(root)
    setup = None if trace else setup_seconds(root, env)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--root", str(root)]
    if smoke:
        cmd.append("--smoke")
    # a session of its own, so that a timeout also ends the CLI processes it started
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as e:  # a timeout, or an interrupt that must not leave the worker running
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        sys.stderr.write(f"error: the {workload} worker did not finish in time\n")
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"error: the {workload} worker exited with code {proc.returncode}\n")
        return None
    result = json.loads(lines[-1])
    if setup is not None:
        result["metrics"]["setup_s"], result["detail"]["setup_s_raw"] = setup
    units = LAYER_METRICS if trace else END_TO_END
    if set(result["metrics"]) != set(units):
        result["correct"] = False
        result["errors"].append(f"metrics {sorted(result['metrics'])} are not the expected set")
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": units[k]} for k in units if k in result["metrics"]}
    commit, src_sha = commit_of(root)
    result["provenance"].update(commit=commit, src_sha256=src_sha)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    return result


def show(result):
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g}  {m['unit']}")
    d = result["detail"]
    extra = {name: (d[name], m["unit"]) for name, m in DETAIL.items() if name in d}
    extra["fail_ratio"] = (result["failed"] / max(result["attempted"], 1), "ratio")
    if "tail_percentile" in d:
        extra["iter_s_tail.percentile"] = (d["tail_percentile"], "%")
        extra["iter_s_tail.samples"] = (d["samples"], "count")
    for name, (value, unit) in extra.items():
        print(f"  {name:40s} {value:>16.6g}  {unit}")
    p = result["provenance"]
    print(f"  provenance: python {p['python']}, numpy {p['numpy']}, scipy {p['scipy']}, nproc {p['nproc']}, "
          f"commit {p['commit']}, src sha256 {p['src_sha256'][:16]}")
    for e in result["errors"]:
        print(f"  error: {e}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, default=BENCH_DIR.parent, help="checkout to measure (default: this one)")
    ap.add_argument("--record", type=Path, help="append the full result to this JSON-lines file")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "copulachain" / "__init__.py").is_file():
        sys.stderr.write(f"error: no copulachain sources under {root / 'src'}\n")
        return 2
    (root / ".bench_out").mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_one(root, name, args.seed, args.seconds, args.trace, args.smoke)
        if result is None:
            return 1
        show(result)
        results.append(result)
        if args.record:
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(result) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
