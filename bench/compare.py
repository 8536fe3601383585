"""Compare the benchmark on two checkouts, pair by pair.

    python3 bench/compare.py --base ../parent --head .

Runs this benchmark (the same code for both sides) against the library in
each checkout: every workload, ten pairs on the fixed seeds 100..109 (not
used while writing a change), each run ``run_seconds`` of BENCHMARK.json
long, alternating which side runs first in each pair.  Every run's full
result goes to ``.bench_out/compare.jsonl``.  For each workload and
end-to-end metric it prints each side's median and quartiles, the pairs the
head wins, and a verdict:

  gain        the head wins at least 9/10 of the pairs, its median is
              better by more than the base's interquartile range, and no
              more operations fail than on the base;
  regression  the head's median is worse than the base's by more than
              the metric's bound;
  unresolved  either side's spread (IQR / median) exceeds the bound,
              and not every head run beats every base run;
  unchanged   none of these.

Bounds come from BENCHMARK.json, and from model.json for the metrics a run
prints beside its result line (raw median, tail, throughput, CLI commands).
Exits 1 if any metric regressed, any run failed its checks, or the head's
outputs (report and CLI output digests) differ from the base's on any seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = range(100, 110)  # one pair per seed
WIN_SHARE = 0.9


def metric_table():
    """name -> {unit, better, bound} for every compared metric."""
    table = {m["name"]: m for m in SPEC["end_to_end"]}
    table.update(json.loads((BENCH_DIR / "model.json").read_text())["detail_metrics"])
    return table


def values_of(record, table):
    """The compared metrics one run reports."""
    out = {k: m["value"] for k, m in record["metrics"].items()}
    out.update({k: v for k, v in record["detail"].items() if k in table})
    return out


def run_pairs(base, head, table, results):
    tmp = results.with_name("compare-run.json")
    records = []
    for workload in WORKLOADS:
        for i, seed in enumerate(SEEDS):
            sides = [("base", base), ("head", head)]
            for side, root in sides if i % 2 == 0 else sides[::-1]:
                tmp.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                       "--seconds", str(SPEC["run_seconds"]), "--trace", "0", "--root", str(root),
                       "--record", str(tmp)]
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
                if proc.returncode != 0:
                    raise SystemExit(f"{side} run of {workload} at seed {seed} exited with {proc.returncode}")
                record = json.loads(tmp.read_text())
                record.update(side=side, pair=i)
                records.append(record)
                with open(results, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
                print(f"{workload} pair {i} {side}: " + ", ".join(
                    f"{k}={v:.5g}" for k, v in values_of(record, table).items()), flush=True)
    tmp.unlink(missing_ok=True)
    return records


def iqr(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def verdict(base, head, better, bound, head_fails_more):
    """Classify one metric from paired base and head values."""
    sign = 1.0 if better == "higher" else -1.0
    mb, mh = statistics.median(base), statistics.median(head)
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    if sign * (mb - mh) > bound * abs(mb):
        return "regression", wins
    if wins >= WIN_SHARE * len(base) and sign * (mh - mb) > iqr(base) and not head_fails_more:
        return "gain", wins
    spread = max(iqr(base) / abs(mb), iqr(head) / abs(mh))
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def report(records, table):
    bad = False
    workloads = sorted({r["workload"] for r in records})
    print(f"{'workload':14s} {'metric':16s} {'unit':5s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'wins':>6s}  verdict")
    for w in workloads:
        pairs = {}
        for r in records:
            if r["workload"] == w:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        fails = {s: sum(p[s]["failed"] for p in pairs) for s in ("base", "head")}
        incorrect = [f"{s} pair {i}" for i, p in enumerate(pairs) for s in ("base", "head") if not p[s]["correct"]]
        differ = [f"pair {i}" for i, p in enumerate(pairs) if p["head"]["outputs"] != p["base"]["outputs"]]
        if len(pairs) < 2:
            print(f"{w:14s} fewer than two complete pairs")
            bad = True
            continue
        for name, m in table.items():
            base = [values_of(p["base"], table).get(name) for p in pairs]
            head = [values_of(p["head"], table).get(name) for p in pairs]
            if None in base or None in head:
                continue
            v, wins = verdict(base, head, m["better"], m["bound"], fails["head"] > fails["base"])
            bad |= v == "regression"

            def show(xs):
                q1, _, q3 = statistics.quantiles(xs, n=4)
                return f"{statistics.median(xs):.5g} [{q1:.5g}, {q3:.5g}]"

            print(f"{w:14s} {name:16s} {m['unit']:5s} {show(base):>34s} {show(head):>34s} "
                  f"{wins:>3d}/{len(pairs):<2d}  {v}")
        print(f"{w:14s} failed operations: base {fails['base']}, head {fails['head']}")
        if incorrect:
            print(f"{w:14s} runs failing their checks: {', '.join(incorrect)}")
            bad = True
        if differ:
            print(f"{w:14s} head outputs differ from the base's: {', '.join(differ)}")
            bad = True
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--head", type=Path, required=True, help="checkout of the change")
    args = ap.parse_args(argv)
    table = metric_table()
    results = BENCH_DIR.parent / ".bench_out" / "compare.jsonl"
    results.parent.mkdir(exist_ok=True)
    results.unlink(missing_ok=True)
    records = run_pairs(args.base.resolve(), args.head.resolve(), table, results)
    return report(records, table)


if __name__ == "__main__":
    sys.exit(main())
