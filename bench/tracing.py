"""Span tracing of copulachain's public functions, installed from outside.

``Tracer.install`` replaces each traced function, in every loaded
``copulachain`` module that binds it, with a wrapper that records a span:
its name, start, end, parent span, run id and one attribute (a count such
as path steps or CSV bytes, or the outcome of a fit).  Spans stay in memory
until ``write`` dumps them; ``restore`` puts the original functions back.
The library itself is not modified, so an untraced run executes exactly the
code a user runs.
"""

import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple

ROOT = "bench.iteration"
STUDIES = ("montecarlo.mc_mle_study", "montecarlo.mc_estimator_comparison")
TRACED = (
    "rng.derive_seed",
    "rng.make_generator",
    "chain.simulate_bernoulli_chain",
    "chain.transition_counts",
    "estimation.fit_mle",
    "estimation.mle_ci",
    "estimation.mean_estimate",
    "estimation.robust_estimate",
    "inference.lrt",
    "pathio.path_to_csv",
    "pathio.path_from_csv",
    "pathio.read_path_csv",
    "cli.run",
) + STUDIES

# Per-layer metrics in report order, with units.  Self times and counts are
# per traced iteration; ``trace.iteration_s`` is the mean traced iteration
# wall time, which the self times add up to.
LAYER_METRICS = {
    "rng.derive_seed.calls": "count",
    "rng.derive_seed.self_s": "s",
    "rng.make_generator.calls": "count",
    "rng.make_generator.self_s": "s",
    "chain.simulate_bernoulli_chain.calls": "count",
    "chain.simulate_bernoulli_chain.self_s": "s",
    "chain.simulate_bernoulli_chain.steps": "count",
    "chain.transition_counts.calls": "count",
    "chain.transition_counts.self_s": "s",
    "estimation.fit_mle.calls": "count",
    "estimation.fit_mle.self_s": "s",
    "estimation.fit_mle.degenerate": "count",
    "estimation.fit_mle.interior_ratio": "ratio",
    "estimation.mle_ci.self_s": "s",
    "estimation.mean_estimate.self_s": "s",
    "estimation.robust_estimate.self_s": "s",
    "inference.lrt.calls": "count",
    "inference.lrt.self_s": "s",
    "montecarlo.self_s": "s",
    "pathio.path_to_csv.self_s": "s",
    "pathio.path_from_csv.self_s": "s",
    "pathio.read_path_csv.self_s": "s",
    "pathio.bytes_written": "bytes",
    "pathio.bytes_read": "bytes",
    "cli.run.self_s": "s",
    "bench.iteration.self_s": "s",
    "trace.iteration_s": "s",
    "trace.overhead_s": "s",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root
    run: int
    attr: object  # steps, bytes or fit outcome; None where nothing is counted


def _fit_outcome(result, exc):
    if exc is None:
        return "interior" if result.cov is not None else "half"
    degenerate = sys.modules["copulachain.errors"].DegenerateData
    return "degenerate" if isinstance(exc, degenerate) else "error"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# name -> f(args, kwargs, result, exc) giving the span attribute
_ATTRS = {
    "chain.simulate_bernoulli_chain": lambda a, k, r, e: _arg(a, k, 1, "n"),
    "estimation.fit_mle": lambda a, k, r, e: _fit_outcome(r, e),
    "pathio.path_to_csv": lambda a, k, r, e: None if e else len(r),
    "pathio.path_from_csv": lambda a, k, r, e: len(_arg(a, k, 0, "text")),
}


class Tracer:
    """Records spans of traced copulachain calls; one instance per run."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack = [-1]
        self._run = -1
        self._saved = []

    def install(self):
        """Wrap every traced function at each module attribute that binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import copulachain  # noqa: F401  (loads every submodule)

        targets = {}
        for name in TRACED:
            mod, fn = name.split(".")
            targets[id(getattr(sys.modules[f"copulachain.{mod}"], fn))] = name
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "copulachain" and not modname.startswith("copulachain."):
                continue
            for attr, value in list(vars(mod).items()):
                name = targets.get(id(value))
                if name is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(name, value)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def restore(self):
        """Put back every original function that ``install`` replaced."""
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attr_of = _ATTRS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                attr = attr_of(args, kwargs, result, exc) if attr_of else None
                spans[index] = Span(name, start, end, parent, self._run, attr)

        traced.__wrapped__ = fn
        return traced

    def iteration(self, run, fn):
        """Call ``fn()`` under a root span whose run id is ``run``."""
        self._run = run
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(ROOT, start, end, -1, run, None)

    def write(self, filename):
        """Write the spans as JSON lines, one span per line."""
        with open(filename, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s._asdict()}) + "\n")


def check_spans(spans):
    """Problems with the span tree; an empty list if it is well formed.

    Every span must lie inside its parent's interval and share its run id,
    its parent chain must end at a ``bench.iteration`` root, and spans with
    one parent must not overlap.  Only then are self times never negative,
    so that they split each root's duration among the layers.
    """
    problems = []
    last_child_end = {}
    for i, s in enumerate(spans):
        if s is None:
            problems.append(f"span {i} never ended")
            continue
        if s.parent < 0:
            if s.name != ROOT:
                problems.append(f"span {i} ({s.name}) has no bench.iteration ancestor")
            continue
        p = spans[s.parent]
        if p is None or not s.parent < i:
            problems.append(f"span {i} ({s.name}) has a bad parent {s.parent}")
            continue
        if not (p.start <= s.start <= s.end <= p.end) or p.run != s.run:
            problems.append(f"span {i} ({s.name}) is not inside its parent {s.parent} ({p.name})")
        if s.start < last_child_end.get(s.parent, s.start):
            problems.append(f"span {i} ({s.name}) overlaps an earlier child of span {s.parent}")
        last_child_end[s.parent] = s.end
    return problems[:20]


def self_times(spans):
    """Per layer: summed span durations minus the time covered by child spans.

    Children run inside their parent and never overlap one another (the
    program is single-threaded), so the covered time is their summed length.
    The two study functions count as one layer, ``montecarlo``.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    out = defaultdict(float)
    for s, t in zip(spans, own):
        out["montecarlo" if s.name in STUDIES else s.name] += t
    return out


def layer_metrics(spans, untraced_mean_s):
    """Per-layer metrics, averaged over the traced iterations in ``spans``."""
    roots = [s for s in spans if s.name == ROOT]
    runs = len(roots)
    traced_mean_s = sum(s.end - s.start for s in roots) / runs
    self_s = self_times(spans)
    calls = defaultdict(int)
    attrs = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        if s.name == "estimation.fit_mle":
            attrs[s.attr] += 1
        elif s.attr is not None:
            attrs[s.name] += s.attr

    values = {}
    for key in LAYER_METRICS:
        layer, _, stat = key.rpartition(".")
        if stat == "calls":
            values[key] = calls[layer] / runs
        elif stat == "self_s":
            values[key] = self_s[layer] / runs
    values["chain.simulate_bernoulli_chain.steps"] = attrs["chain.simulate_bernoulli_chain"] / runs
    values["pathio.bytes_written"] = attrs["pathio.path_to_csv"] / runs
    values["pathio.bytes_read"] = attrs["pathio.path_from_csv"] / runs
    fits = calls["estimation.fit_mle"]
    values["estimation.fit_mle.degenerate"] = attrs["degenerate"] / runs
    values["estimation.fit_mle.interior_ratio"] = attrs["interior"] / fits if fits else 0.0
    values["trace.iteration_s"] = traced_mean_s
    values["trace.overhead_s"] = traced_mean_s - untraced_mean_s
    return values
