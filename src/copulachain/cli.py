"""Command-line interface.

Exit codes: 0 on success, 1 when the data or parameters are outside what
the operation can handle, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys

from . import STUDY_SEED
from .errors import CopulaChainError, DegenerateData, DomainError


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _json_safe(obj):
    """obj with each NaN float as None: RFC 8259 JSON has no NaN, so it prints as null."""
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return None if isinstance(obj, float) and math.isnan(obj) else obj


def _json_text(obj) -> str:
    return json.dumps(_json_safe(obj), indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _numbers(text: str, kind=float) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise DomainError(f"could not parse {kind.__name__} list {text!r}") from None


def _estimate_dict(method, alpha, n, est, parameter=None) -> dict:
    """One estimate as JSON; ``est`` is an Estimate, or the boundary point of a degenerate fit."""
    from .estimation import Estimate

    interval = isinstance(est, Estimate)
    head = {} if parameter is None else {"parameter": parameter}
    return head | {
        "method": method,
        "point": est.point if interval else est,
        "stderr": est.stderr if interval else None,
        "ci": [est.ci_low, est.ci_high] if interval else None,
        "alpha": alpha,
        "n": n,
        "regime": est.regime.value if interval and est.regime is not None else None,
        "boundary": not interval,
    }


# Each command imports only the modules it runs, so a fresh process does not
# load (or compile) the rest of the package.
def _cmd_simulate(args) -> str:
    from .chain import ModelParams, simulate_bernoulli_chain, simulate_uniform_chain
    from .pathio import path_to_csv

    if args.marginal == "uniform":
        path = simulate_uniform_chain(args.a, args.n, args.seed)
    else:
        if args.p is None:
            raise DomainError("--p is required for the bernoulli marginal")
        path = simulate_bernoulli_chain(ModelParams(args.a, args.p), args.n, args.seed)
    return path_to_csv(path)


def _cmd_transition(args) -> str:
    from .chain import ModelParams, lambda2, n_step_matrix, stationary_distribution, transition_matrix

    params = ModelParams(args.a, args.p)
    one = transition_matrix(params)
    out = {
        "a": params.a,
        "p": params.p,
        "regime": params.regime.value,
        "lambda2": lambda2(params),
        "stationary": list(stationary_distribution(params)),
        "matrix": one.as_dict(),
    }
    if args.steps is not None:
        out["steps"] = args.steps
        out["matrix_n"] = n_step_matrix(params, args.steps).as_dict()
    return _json_text(out)


def _decays(args):
    """The closed-form psi and phi at lags 1..args.lags."""
    from .chain import ModelParams
    from .mixing import decay

    params = ModelParams(args.a, args.p)
    return decay(params, "psi", args.lags).values, decay(params, "phi", args.lags).values


def _cmd_mixing(args) -> str:
    psi, phi = _decays(args)
    rows = [[k + 1, float(psi[k]), float(phi[k])] for k in range(args.lags)]
    return _csv_text(["n", "psi", "phi"], rows)


def _read_path(filename: str, what: str, binary: bool = True) -> BinaryPath | RealPath:
    """read_path_csv, reporting text that is not UTF-8 or that the csv module
    rejects (such as an over-long field) as bad input, and a path of the other
    kind than ``what`` expects: a binary one, or one in [0, 1] if not ``binary``."""
    from .chain import BinaryPath
    from .pathio import read_path_csv

    try:
        path = read_path_csv(filename)
    except (UnicodeDecodeError, csv.Error) as e:
        raise DomainError(f"{filename}: {e}") from None
    if isinstance(path, BinaryPath) != binary:
        expected = "a binary path" if binary else "a path with values in [0, 1], not a binary one"
        raise DomainError(f"{what} expects {expected}")
    return path


def _cmd_estimate(args) -> str:
    from .chain import transition_counts
    from .estimation import indicator_estimate, mean_estimate, mle_ci, mle_half, robust_estimate

    method, alpha = args.method, args.alpha
    path = _read_path(args.input, f"the {method} method", binary=method != "indicator")
    fits = {
        "indicator": lambda: indicator_estimate(path, alpha),
        "mle": lambda: mle_ci(transition_counts(path), alpha),
        "mle-half": lambda: mle_half(transition_counts(path), alpha),
        "mean": lambda: mean_estimate(path, alpha),
        "robust": lambda: robust_estimate(path, alpha, noise_seed=args.noise_seed),
    }
    try:
        est = fits[method]()
    except DegenerateData as e:
        est = (e.a, e.p) if method == "mle" else e.point
    if method == "mle":
        return _json_text([_estimate_dict(method, alpha, path.n, e, k) for k, e in zip("ap", est)])
    return _json_text(_estimate_dict(method, alpha, path.n, est))


def _cmd_lrt(args) -> str:
    from .inference import lrt

    res = lrt(_read_path(args.input, "the independence test"), args.alpha)
    out = {k: getattr(res, k) for k in ("statistic", "df", "p_value", "alpha", "threshold", "decision", "clamped")}
    return _json_text(out | {"regime": res.regime.value})


def _cmd_study(args) -> str:
    from .montecarlo import (
        COMPARISON_ESTIMATORS,
        MLE_ESTIMATORS,
        RepRecord,
        StudyConfig,
        mc_estimator_comparison,
        mc_mle_study,
    )

    studies = {"mc": (mc_mle_study, MLE_ESTIMATORS), "compare": (mc_estimator_comparison, COMPARISON_ESTIMATORS)}
    study, estimators = studies[args.command]
    cfg = StudyConfig(args.a, args.p, args.n, args.reps, args.alpha, args.seed, estimators)
    # an empty --per-rep names no file: the rows are neither kept nor written
    keep_rows = bool(args.per_rep)
    report = study(cfg, keep_rows=keep_rows)
    if keep_rows:
        header = [f.name for f in dataclasses.fields(RepRecord)]
        _emit(_csv_text(header, map(dataclasses.astuple, report.rows)), args.per_rep)
    return _json_text(report.as_dict())


def _cmd_lrt_grid(args) -> str:
    from .montecarlo import lrt_grid

    cells = lrt_grid(_numbers(args.a_values), _numbers(args.p_values), args.n, args.seed, args.alpha)
    rows = []
    for c in cells:
        if c.degenerate:
            rows.append([c.a, c.p, None, None, "degenerate"])
        else:
            rows.append([c.a, c.p, c.result.statistic, c.result.p_value, c.result.decision])
    return _csv_text(["a", "p", "statistic", "p_value", "decision"], rows)


def _cmd_table(args) -> str:
    from .montecarlo import table_study

    header, rows = table_study(args.which, _numbers(args.n_values, int), args.reps, args.seed, args.alpha)
    return _csv_text(header, rows)


def _cmd_plot(args) -> str:
    from .svgchart import emit_svg

    if args.kind == "mixing":
        if args.p is None:
            raise DomainError("--p is required for the mixing plot")
        psi, phi = _decays(args)
        lags = list(range(1, args.lags + 1))
        return emit_svg(
            [("psi", list(zip(lags, psi))), ("phi", list(zip(lags, phi)))],
            title=f"Mixing decay at a={args.a}, p={args.p}",
            xlabel="lag",
            ylabel="coefficient",
        )
    from .montecarlo import symmetry_report

    rows = symmetry_report(args.a, _numbers(args.p_values), args.n, args.reps, args.seed, args.alpha)
    return emit_svg(
        [
            ("simulated", [(r.p, r.mc_ciml) for r in rows]),
            ("closed form", [(r.p, r.closed_ciml) for r in rows]),
        ],
        title=f"MLE interval length for p at a={args.a}, n={args.n}",
        xlabel="p",
        ylabel="interval length",
    )


# Every option, declared once.  A command that takes an option with other
# settings gives them beside its flag in _COMMANDS; they are merged over these.
_OPTIONS = {
    "--a": {"type": float, "required": True},
    "--p": {"type": float, "required": True},
    "--n": {"type": int, "required": True},
    "--alpha": {"type": float, "default": 0.05},
    "--seed": {"type": int, "default": STUDY_SEED},
    "--reps": {"type": int, "default": 100},
    "--lags": {"type": int, "default": 50},
    "--input": {"required": True},
    "--marginal": {"choices": ["bernoulli", "uniform"], "default": "bernoulli"},
    "--steps": {"type": int},
    "--method": {"choices": ["mle", "mle-half", "mean", "robust", "indicator"], "default": "mle"},
    "--noise-seed": {"type": int, "default": 0},
    "--per-rep": {"help": "also write one CSV row per replication to this file"},
    "--a-values": {"required": True},
    "--p-values": {"required": True},
    "--which": {"choices": ["mle-less", "mle-geq", "compare-less", "compare-geq"], "required": True},
    "--n-values": {"default": "499"},
    "--kind": {"choices": ["symmetry", "mixing"], "required": True},
}
_STUDY = ("--a", "--p", "--n", ("--reps", {"default": 400}), "--alpha", "--seed", "--per-rep")

# (command, its help, its handler, its options in --help order); an option is
# a flag, or a flag and the command's own settings for it.
_COMMANDS = (
    ("simulate", "simulate a path and write it as CSV", _cmd_simulate,
     ("--a", ("--p", {"required": False}), "--n", ("--seed", {"default": 0}), "--marginal")),
    ("transition", "print the transition matrix as JSON", _cmd_transition, ("--a", "--p", "--steps")),
    ("mixing", "closed-form mixing decay as CSV", _cmd_mixing, ("--a", "--p", "--lags")),
    ("estimate", "estimate parameters from a path CSV", _cmd_estimate,
     ("--input", "--method", "--alpha", "--noise-seed")),
    ("lrt", "likelihood-ratio independence test on a path CSV", _cmd_lrt, ("--input", "--alpha")),
    ("mc", "replicated coverage study of the MLE intervals", _cmd_study, _STUDY),
    ("compare", "coverage study comparing the three estimators of p", _cmd_study, _STUDY),
    ("lrt-grid", "run the independence test across an (a, p) grid", _cmd_lrt_grid,
     ("--a-values", "--p-values", "--n", "--seed", "--alpha")),
    ("table", "desk-scale reproduction of the study tables", _cmd_table,
     ("--which", "--n-values", "--reps", "--seed", "--alpha")),
    ("plot", "render an SVG chart", _cmd_plot, (
        "--kind", "--a", ("--p", {"required": False}),
        ("--p-values", {"required": False, "default": "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"}),
        ("--n", {"required": False, "default": 999}), "--reps", "--lags", "--seed", "--alpha",
    )),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copulachain",
        description="Simulation and inference for two-state copula-based Markov chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, what, func, options in _COMMANDS:
        sp = sub.add_parser(name, help=what)
        for option in options:
            flag, own = (option, {}) if isinstance(option, str) else option
            sp.add_argument(flag, **_OPTIONS[flag] | own)
        sp.add_argument("--out", help="write output to this file instead of stdout")
        sp.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        text = args.func(args)
        _emit(text, args.out)
    except (CopulaChainError, OSError) as e:
        sys.stderr.write(f"{type(e).__name__}: {e}\n")
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
