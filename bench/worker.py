"""One measured run of one workload, in a fresh process started by run.py.

A run warms up with one untimed iteration, then iterates back to back for
``--seconds`` and until it holds ``MIN_SAMPLES`` iterations, timing the
host-speed probe just before each iteration.  With
``--trace 1`` it alternates untraced and traced iterations instead and
reports per-layer metrics from the spans, after checking that they
form one well-nested tree per traced iteration.  The last line of stdout is one
JSON object with the gate's counts, the metrics, the digests of the
outputs and the provenance.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy
import scipy

import copulachain
import tracing
import workloads

MIN_SAMPLES = 11  # the tail percentile needs ten samples beyond it
MIN_TRACED = 3  # traced and untraced iterations each, in a traced run
HARD_CAP_S = 120.0  # no new iteration starts after this, whatever the count
PROBE_REF_S = 0.005  # fixed scale: the probe's time on the reference host in a fast phase
PROBE_RNG = numpy.random.default_rng(0)


def probe():
    """Fixed interpreter and small-array numpy work that uses no copulachain code.

    On a shared VM the host's speed drifts by up to 2x over minutes, in
    both directions.  Timed just before each iteration, the probe measures
    the host's speed at that moment; ``iter_s_norm`` divides each iteration
    by it, so the drift cancels while a change to the library does not.
    Reference host: 2 shared cores, Python 3.11.7, numpy 2.4.6.
    """
    s = 0.0
    for _ in range(350):
        x = PROBE_RNG.random(999)
        s += float((x > 0.5).sum()) + sum(j * j % 7 for j in range(100))
    return s


def tail(samples):
    """The value at the highest percentile with ten samples beyond it, and that percentile."""
    s = sorted(samples)
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s)


def attempt(w, gate, call):
    """Time ``call()``; return (seconds, output), or None if it raised."""
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception as e:  # any unexpected error is a counted failure
        gate.op(False, f"{type(e).__name__}: {e}")
        return None
    seconds = time.perf_counter() - t0
    w.verify(out)
    return seconds, out


def measure(w, gate, seconds):
    """Untraced closed loop; the end-to-end metrics."""
    attempt(w, gate, w.run)  # warm-up: lazy set-up and the reference outputs
    samples, per_input, per_command = [], {}, {}
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(samples) >= MIN_SAMPLES) or elapsed >= HARD_CAP_S:
            break
        t0 = time.perf_counter()
        probe()
        probe_s = time.perf_counter() - t0
        got = attempt(w, gate, w.run)
        if got is None:
            continue
        samples.append(got[0])
        per_input.setdefault(w.current, []).append(got[0] / probe_s)
        if isinstance(w, workloads.CliRoundTrip):
            for name, t in got[1][1].items():
                per_command.setdefault(name, []).append(t)
    if len(samples) < MIN_SAMPLES:
        gate.expect(False, f"only {len(samples)} iterations completed")
        return {}, {}
    tail_s, pct = tail(samples)
    who = resource.RUSAGE_CHILDREN if isinstance(w, workloads.CliRoundTrip) else resource.RUSAGE_SELF
    metrics = {
        # per input, as the costs of mc_boundary's 32 studies differ up to tenfold
        "iter_s_norm": PROBE_REF_S * statistics.fmean(statistics.median(r) for r in per_input.values()),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / 1e6,
    }
    detail = {
        "iter_s_p50": statistics.median(samples),
        "iter_s_tail": tail_s,
        "ops_per_s": w.ops_per_iteration * len(samples) / sum(samples),
        "tail_percentile": pct,
        "samples": len(samples),
    }
    for name, ts in per_command.items():
        detail[f"cli_{name}_s"] = statistics.median(ts)
    return metrics, detail


def measure_traced(w, gate, seconds, spans_file):
    """Alternate untraced and traced iterations; the per-layer metrics."""
    tracer = tracing.Tracer()
    attempt(w, gate, w.run)
    untraced, traced = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and len(untraced) >= MIN_TRACED and traced >= MIN_TRACED
        if done or elapsed >= HARD_CAP_S:
            break
        got = attempt(w, gate, w.run)
        if got is not None:
            untraced.append(got[0])
        w.rewind()  # the traced iteration runs the same input
        tracer.install()
        try:
            attempt(w, gate, lambda: tracer.iteration(traced, w.run))
        finally:
            tracer.restore()
        traced += 1
    spans = tracer.spans
    tracer.write(spans_file)
    if not untraced or not traced:
        gate.expect(False, "no complete traced and untraced iterations")
        return {}, {}
    for problem in tracing.check_spans(spans):
        gate.expect(False, problem)
    metrics = tracing.layer_metrics(spans, statistics.fmean(untraced))
    return metrics, {"traced": traced, "untraced": len(untraced), "spans": len(spans)}


def provenance():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    gate = workloads.Gate()
    src = (args.root / "src").resolve()
    gate.expect(Path(copulachain.__file__).resolve().is_relative_to(src),
               f"imported copulachain from {copulachain.__file__}, not from {src}")
    out_dir = args.root / ".bench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    w = workloads.make(args.workload, args.seed, gate, workdir, env=os.environ.copy(),
                       in_process=bool(args.trace), smoke=args.smoke)
    try:
        if args.trace:
            spans_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, detail = measure_traced(w, gate, args.seconds, spans_file)
        else:
            metrics, detail = measure(w, gate, args.seconds)
    finally:
        w.cleanup()
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "errors": gate.errors,
        "metrics": metrics,
        "detail": detail,
        "outputs": w.outputs,
        "provenance": provenance(),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
