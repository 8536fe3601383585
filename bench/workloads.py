"""The benchmark's workloads: inputs made from a seed, one iteration, checks.

Every workload is a closed loop with one client: an iteration starts when
the previous one has returned.  An MC iteration is one study call; a CLI
iteration is one ``simulate`` -> ``estimate`` -> ``lrt`` round trip on a
path file.  Study master seeds and the CLI's ``--seed`` derive from the
benchmark seed, so the program sees nothing but the generated inputs.

``Gate`` counts checked operations (study calls, CLI commands) and the
failures among them: unexpected exceptions, nonzero exit codes, and
outputs that differ from the reference.  ``DegenerateData`` replications
are outcomes a study reports, not failures.

Run ``PYTHONPATH=src python3 bench/workloads.py --record 0-9`` to record digests
for seeds 0..9 into ``digests.json``; the gate compares against them at
the recorded seeds.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

from copulachain import chain, cli, estimation, inference, montecarlo, pathio

DIGESTS = Path(__file__).with_name("digests.json")

SPECS = {
    "mc_interior": {"study": "mc_mle_study", "a": 0.5, "p": 0.3, "n": 999, "reps": 400},
    "mc_boundary": {"study": "mc_mle_study", "a": 0.1, "p": 0.1, "n": 49, "reps": 5, "studies": 32},
    "compare_long": {
        "study": "mc_estimator_comparison",
        "a": 0.5,
        "p": 0.3,
        "n": 99_999,
        "reps": 4,
        "estimators": montecarlo.COMPARISON_ESTIMATORS,
    },
    "cli_file": {"a": 0.5, "p": 0.3, "n": 100_000},
}
SMOKE = {"reps": 3, "cli_n": 2_000}
COMMANDS = ("simulate", "estimate", "lrt")


class Gate:
    """Counts checked operations, the failures among them, and other errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, ok, note):
        """One operation (a study call or a CLI command), checked."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        return self.expect(ok, note)

    def expect(self, ok, note):
        """A check on the run that is not an operation of its own."""
        if not ok and len(self.errors) < 20:
            self.errors.append(note)
        return ok

    @property
    def correct(self):
        return self.failed == 0 and not self.errors


def sha256(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def report_digest(report):
    """Digest of an MCReport's statistical content (what equality compares)."""
    content = {
        "stats": {
            est: {t: [s.coverage, s.ciml] for t, s in targets.items()}
            for est, targets in report.stats.items()
        },
        "degenerate": report.degenerate,
        "reps_effective": report.reps_effective,
    }
    return sha256(json.dumps(content, sort_keys=True))


def recorded_digest(name, seed):
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


class Study:
    """One seeded MC study call per iteration.

    Iterations cycle through ``studies`` configurations with master seeds
    ``seed * studies + k``.  Where the cost of a study depends on its draws
    (on ``mc_boundary``, how many replications need the fallback scan), a
    run then averages over many of them instead of resting on one.
    """

    def __init__(self, spec, seed, gate, recorded=None):
        self.study = spec["study"]
        self.ops_per_iteration = spec["reps"]
        k_total = spec.get("studies", 1)
        self.configs = [
            montecarlo.StudyConfig(
                a=spec["a"],
                p=spec["p"],
                n=spec["n"],
                reps=spec["reps"],
                master_seed=seed * k_total + k,
                estimators=spec.get("estimators", montecarlo.MLE_ESTIMATORS),
            )
            for k in range(k_total)
        ]
        self.gate = gate
        self.recorded = recorded
        self.reference = {}
        self.outputs = {}  # study index -> report digest, for comparing checkouts
        self.next = 0
        self.current = None

    def run(self):
        """The next study in the cycle; returns (its index, its report)."""
        k = self.current = self.next
        self.next = (k + 1) % len(self.configs)
        # looked up per call, so that trace wrappers apply when installed
        return k, getattr(montecarlo, self.study)(self.configs[k])

    def rewind(self):
        """Make the next run repeat the study the last one ran."""
        self.next = self.current

    def verify(self, out):
        k, report = out
        if k not in self.reference:
            self.reference[k] = report
            digest = self.outputs[str(k)] = report_digest(report)
            ok = self.recorded is None or digest == self.recorded[k]
            self.gate.op(ok, f"study {k}: report digest {digest} != recorded")
        else:
            self.gate.op(report == self.reference[k], f"study {k}: report differs from its first run")

    def cleanup(self):
        pass


class CliRoundTrip:
    """``simulate --out`` then ``estimate`` and ``lrt`` on that file.

    With ``in_process`` false each command is a fresh ``python -m
    copulachain`` subprocess, so import time is part of every command; with
    it true the commands go through ``copulachain.cli.run`` (traced runs).
    """

    current = 0  # the one input every round trip uses

    def __init__(self, spec, seed, gate, workdir, env=None, in_process=False, recorded=None):
        self.gate = gate
        self.env = env
        self.in_process = in_process
        self.params = chain.ModelParams(spec["a"], spec["p"])
        self.n = spec["n"]
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = {c: self.workdir / f"{c}.{'csv' if c == 'simulate' else 'json'}" for c in COMMANDS}
        csv_file = str(self.files["simulate"])
        self.argv = {
            "simulate": ["simulate", "--a", str(spec["a"]), "--p", str(spec["p"]), "--n", str(self.n),
                         "--seed", str(seed), "--out", csv_file],
            "estimate": ["estimate", "--input", csv_file, "--method", "mle", "--out", str(self.files["estimate"])],
            "lrt": ["lrt", "--input", csv_file, "--out", str(self.files["lrt"])],
        }
        self.recorded = recorded
        self.expected = None
        self.outputs = {}  # command -> digest of its first output, for comparing checkouts
        self.ops_per_iteration = len(COMMANDS)

    def rewind(self):
        pass

    def _command(self, name):
        if self.in_process:
            return cli.run(self.argv[name])
        proc = subprocess.run(
            [sys.executable, "-m", "copulachain", *self.argv[name]],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode

    def run(self):
        """The three commands back to back; returns (exit codes, seconds)."""
        codes, seconds = {}, {}
        for name in COMMANDS:
            t0 = time.perf_counter()
            codes[name] = self._command(name)
            seconds[name] = time.perf_counter() - t0
        return codes, seconds

    def verify(self, out):
        codes, _ = out
        if self.expected is None and not any(codes.values()):
            self.expected = self._reference()
        for name in COMMANDS:
            if codes[name] != 0 or self.expected is None:
                self.gate.op(False, f"{name} failed in a round trip with exit codes {codes}")
                continue
            digest = sha256(self.files[name].read_bytes())
            self.outputs.setdefault(name, digest)
            self.gate.op(digest == self.expected[name], f"{name} output digest {digest} != {self.expected[name]}")
        self._clear()

    def _clear(self):
        for f in self.files.values():
            f.unlink(missing_ok=True)

    def _reference(self):
        """The digests every round trip's outputs must have.

        The CSV must equal the in-process ``path_to_csv`` of the in-process
        simulation, and the ``estimate`` and ``lrt`` JSON must carry the
        in-process ``mle_ci`` and ``lrt`` results on that path; the first
        outputs that do set the digests.  Where the seed has recorded
        digests, these must also equal them.
        """
        path = chain.simulate_bernoulli_chain(self.params, self.n, self.seed)
        expected = {"simulate": sha256(pathio.path_to_csv(path))}
        counts = chain.transition_counts(path)
        est_a, est_p = estimation.mle_ci(counts, 0.05)
        want_estimate = [
            {"parameter": k, "point": e.point, "stderr": e.stderr, "ci": [e.ci_low, e.ci_high], "n": e.n,
             "regime": e.regime.value}
            for k, e in (("a", est_a), ("p", est_p))
        ]
        res = inference.lrt(path, 0.05)
        want_lrt = {"statistic": res.statistic, "p_value": res.p_value, "threshold": res.threshold,
                    "decision": res.decision, "regime": res.regime.value}
        checks = {
            "estimate": lambda got: [{k: d[k] for k in want_estimate[0]} for d in got] == want_estimate,
            "lrt": lambda got: {k: got[k] for k in want_lrt} == want_lrt,
        }
        for name, agrees in checks.items():
            try:
                text = self.files[name].read_text()
                ok = agrees(json.loads(text))
            except (OSError, ValueError, KeyError, TypeError):
                ok = False
            expected[name] = sha256(text) if ok else "(disagrees with the in-process result)"
        for name, digest in (self.recorded or {}).items():
            if expected[name] != digest:
                expected[name] = f"(recorded {digest})"
        # a digest in parentheses matches no output, so every round trip fails
        return expected

    def cleanup(self):
        self._clear()
        self.workdir.rmdir()


def _spec(name, smoke):
    spec = dict(SPECS[name])
    if smoke:
        if "reps" in spec:
            spec["reps"] = SMOKE["reps"]
        else:
            spec["n"] = SMOKE["cli_n"]
    return spec


def make(name, seed, gate, workdir, env=None, in_process=False, smoke=False):
    """Build workload ``name``; at full size it checks the recorded digests."""
    spec = _spec(name, smoke)
    recorded = None if smoke else recorded_digest(name, seed)
    if "study" in spec:
        return Study(spec, seed, gate, recorded)
    return CliRoundTrip(spec, seed, gate, workdir, env, in_process, recorded)


def record(seeds, workdir):
    """Add the full-size output digests at ``seeds`` to ``digests.json``."""
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for name in SPECS:
        for seed in seeds:
            gate = Gate()
            spec = _spec(name, smoke=False)
            if "study" in spec:
                w = Study(spec, seed, gate)
                digest = [report_digest(w.run()[1]) for _ in w.configs]
            else:
                w = CliRoundTrip(spec, seed, gate, workdir, in_process=True)
                w.verify(w.run())
                w.cleanup()
                digest = w.expected
            if not gate.correct:
                raise SystemExit(f"{name} seed {seed}: {gate.errors}")
            table.setdefault(name, {})[str(seed)] = digest
            print(name, seed, flush=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="Record output digests of the workloads.")
    ap.add_argument("--record", required=True, metavar="LO-HI", help="seed range, such as 0-9")
    lo, _, hi = ap.parse_args().record.partition("-")
    record(range(int(lo), int(hi or lo) + 1), Path(__file__).resolve().parent.parent / ".bench_out" / "record")
