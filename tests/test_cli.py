"""End-to-end checks of the command line interface via subprocess."""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from copulachain import cli, montecarlo
from copulachain.chain import ModelParams, transition_matrix
from copulachain.mixing import phi_closed, psi_closed
from copulachain.montecarlo import StudyConfig, mc_estimator_comparison, mc_mle_study
from copulachain.pathio import read_path_csv


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "copulachain.cli", *args],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def binary_csv(tmp_path_factory):
    target = tmp_path_factory.mktemp("paths") / "binary.csv"
    run_cli("simulate", "--a", "0.5", "--p", "0.3", "--n", "400", "--seed", "3", "--out", str(target))
    return str(target)


@pytest.fixture(scope="module")
def uniform_csv(tmp_path_factory):
    target = tmp_path_factory.mktemp("paths") / "uniform.csv"
    run_cli(
        "simulate", "--a", "0.7", "--p", "0.3", "--n", "400", "--seed", "3",
        "--marginal", "uniform", "--out", str(target),
    )
    return str(target)


def test_simulate_writes_loadable_csv(binary_csv):
    path = read_path_csv(binary_csv)
    assert path.states.size == 401
    assert set(np.unique(path.states)) <= {0, 1}


def test_simulate_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("simulate", "--a", "0.4", "--p", "0.6", "--n", "50", "--seed", "9", "--out", str(a))
    run_cli("simulate", "--a", "0.4", "--p", "0.6", "--n", "50", "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_simulate_stdout_equals_file(tmp_path, binary_csv):
    proc = run_cli("simulate", "--a", "0.5", "--p", "0.3", "--n", "400", "--seed", "3")
    assert proc.stdout == Path(binary_csv).read_text()


def test_transition_json():
    proc = run_cli("transition", "--a", "0.3", "--p", "0.2", "--steps", "2")
    doc = json.loads(proc.stdout)
    mat = transition_matrix(ModelParams(0.3, 0.2)).entries
    assert doc["regime"] == "less_half"
    assert math.isclose(doc["matrix"]["p00"], mat[0, 0], rel_tol=1e-12)
    assert math.isclose(doc["matrix"]["p11"], mat[1, 1], rel_tol=1e-12)
    assert doc["stationary"] == [0.8, 0.2]
    two = np.linalg.matrix_power(mat, 2)
    assert math.isclose(doc["matrix_n"]["p01"], two[0, 1], rel_tol=1e-12)


def test_mixing_csv():
    proc = run_cli("mixing", "--a", "0.6", "--p", "0.2", "--lags", "4")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,psi,phi"
    assert len(lines) == 5
    params = ModelParams(0.6, 0.2)
    for line in lines[1:]:
        n, psi, phi = line.split(",")
        assert math.isclose(float(psi), psi_closed(params, int(n)), rel_tol=1e-12)
        assert math.isclose(float(phi), phi_closed(params, int(n)), rel_tol=1e-12)


def test_estimate_mle_schema(binary_csv):
    proc = run_cli("estimate", "--input", binary_csv, "--method", "mle")
    doc = json.loads(proc.stdout)
    assert [entry["parameter"] for entry in doc] == ["a", "p"]
    for entry in doc:
        assert entry["method"] == "mle"
        assert entry["boundary"] is False
        assert entry["ci"][0] < entry["point"] < entry["ci"][1]
        assert entry["n"] == 400
        assert entry["regime"] == "less_half"


@pytest.mark.parametrize("method", ["mean", "robust", "mle-half"])
def test_estimate_single_parameter_methods(method, binary_csv):
    proc = run_cli("estimate", "--input", binary_csv, "--method", method)
    doc = json.loads(proc.stdout)
    assert doc["method"] == method
    assert doc["boundary"] is False
    assert doc["ci"][0] <= doc["ci"][1]
    assert doc["n"] == 400


def test_estimate_indicator(uniform_csv):
    proc = run_cli("estimate", "--input", uniform_csv, "--method", "indicator")
    doc = json.loads(proc.stdout)
    assert doc["method"] == "indicator"
    assert abs(doc["point"] - 0.7) < 0.1
    assert doc["regime"] is None


def test_estimate_boundary_payload(tmp_path):
    target = tmp_path / "const.csv"
    target.write_text("t,x\n0,0\n1,0\n2,0\n3,0\n")
    proc = run_cli("estimate", "--input", str(target), "--method", "mle")
    doc = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert [entry["parameter"] for entry in doc] == ["a", "p"]
    for entry, point in zip(doc, (1.0, 0.0)):
        assert entry["boundary"] is True
        assert entry["point"] == point
        assert entry["stderr"] is None and entry["ci"] is None and entry["regime"] is None


def test_lrt_json(binary_csv):
    proc = run_cli("lrt", "--input", binary_csv, "--alpha", "0.1")
    doc = json.loads(proc.stdout)
    assert set(doc) == {
        "statistic", "df", "p_value", "alpha", "threshold", "decision", "clamped", "regime",
    }
    assert doc["df"] == 1
    assert doc["alpha"] == 0.1
    assert doc["decision"] in ("reject", "fail_to_reject")
    assert (doc["statistic"] >= doc["threshold"]) == (doc["decision"] == "reject")


def test_lrt_degenerate_exits_nonzero(tmp_path):
    target = tmp_path / "const.csv"
    target.write_text("t,x\n0,1\n1,1\n2,1\n")
    proc = run_cli("lrt", "--input", str(target), check=False)
    assert proc.returncode == 1
    assert "DegenerateData" in proc.stderr


@pytest.mark.parametrize("command", [("estimate", "--method", "mle"), ("lrt",)], ids=["estimate", "lrt"])
def test_crlf_copy_reads_as_the_canonical_file(tmp_path, binary_csv, command):
    # simulate's own file is decoded by the numpy route, its CRLF copy by the
    # csv.reader loop
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(Path(binary_csv).read_bytes().replace(b"\n", b"\r\n"))
    canonical = run_cli(command[0], "--input", binary_csv, *command[1:])
    copy = run_cli(command[0], "--input", str(crlf), *command[1:])
    assert json.loads(canonical.stdout)
    assert copy.stdout == canonical.stdout


def test_mc_json_schema():
    proc = run_cli("mc", "--a", "0.5", "--p", "0.25", "--n", "199", "--reps", "20", "--seed", "4")
    doc = json.loads(proc.stdout)
    assert sorted(doc) == ["config", "degenerate", "reps_effective", "results", "runtime_seconds"]
    assert doc["config"]["reps"] == 20
    stats = doc["results"]["mle"]
    for key in ("a", "p"):
        assert 0.0 <= stats[key]["coverage"] <= 1.0
        assert stats[key]["ciml"] > 0.0


def test_mc_statistical_payload_is_reproducible():
    one = json.loads(run_cli("mc", "--a", "0.3", "--p", "0.4", "--n", "99", "--reps", "10", "--seed", "5").stdout)
    two = json.loads(run_cli("mc", "--a", "0.3", "--p", "0.4", "--n", "99", "--reps", "10", "--seed", "5").stdout)
    one.pop("runtime_seconds")
    two.pop("runtime_seconds")
    assert one == two


def test_compare_lists_all_estimators():
    proc = run_cli("compare", "--a", "0.5", "--p", "0.3", "--n", "99", "--reps", "5", "--seed", "2")
    doc = json.loads(proc.stdout)
    assert sorted(doc["results"]) == ["mean", "mle", "robust"]
    for stats in doc["results"].values():
        assert "p" in stats


def _strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 JSON does not have."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command, study, estimators, a, p, n", [
    ("mc", mc_mle_study, ("mle",), 0.5, 0.3, 99),
    ("compare", mc_estimator_comparison, ("mle", "mean", "robust"), 0.5, 0.3, 99),
    # no effective MLE replication: the undefined coverage and length print as null
    ("mc", mc_mle_study, ("mle",), 0.9, 0.05, 1),
    ("compare", mc_estimator_comparison, ("mle", "mean", "robust"), 0.9, 0.05, 1),
])
def test_study_json_text_is_pinned_key_by_key(command, study, estimators, a, p, n):
    proc = run_cli(command, "--a", str(a), "--p", str(p), "--n", str(n), "--reps", "6", "--seed", "8")
    report = study(StudyConfig(a, p, n, 6, 0.05, 8, estimators))

    def number(v):
        return None if math.isnan(v) else v

    expected = {
        "config": {
            "a": a, "p": p, "n": n, "reps": 6, "alpha": 0.05, "master_seed": 8, "estimators": list(estimators),
        },
        "results": {
            est: {
                target: {"coverage": number(report.stats[est][target].coverage),
                         "ciml": number(report.stats[est][target].ciml)}
                for target in (("a", "p") if command == "mc" else ("p",))
            }
            for est in estimators
        },
        "degenerate": {est: report.degenerate[est] for est in estimators},
        "reps_effective": {est: report.reps_effective[est] for est in estimators},
        "runtime_seconds": _strict_json(proc.stdout)["runtime_seconds"],
    }
    assert proc.stdout == json.dumps(expected, indent=2) + "\n"


def test_per_rep_rows(tmp_path):
    rows_file = tmp_path / "rows.csv"
    proc = run_cli(
        "mc", "--a", "0.5", "--p", "0.3", "--n", "99", "--reps", "4", "--seed", "2",
        "--per-rep", str(rows_file),
    )
    json.loads(proc.stdout)  # summary still lands on stdout
    lines = rows_file.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert {"rep", "estimator", "point", "ci_lo", "ci_hi", "covered", "length", "degenerate"} <= set(header)
    assert len(lines) == 9  # header plus a and p rows per replication


@pytest.mark.parametrize("command, study", [("mc", "mc_mle_study"), ("compare", "mc_estimator_comparison")])
def test_empty_per_rep_keeps_and_writes_no_rows(tmp_path, monkeypatch, capsys, command, study):
    # an empty --per-rep names no file: the study builds no rows, and the
    # summary alone is written, to stdout
    calls = []
    run_study = getattr(montecarlo, study)

    def spy(config, keep_rows=False):
        report = run_study(config, keep_rows=keep_rows)
        calls.append((keep_rows, len(report.rows)))
        return report

    monkeypatch.setattr(montecarlo, study, spy)
    monkeypatch.chdir(tmp_path)
    argv = [command, "--a", "0.5", "--p", "0.3", "--n", "99", "--reps", "4", "--seed", "2", "--per-rep", ""]
    assert cli.run(argv) == 0
    assert calls == [(False, 0)]
    assert list(tmp_path.iterdir()) == []
    assert sorted(_strict_json(capsys.readouterr().out)) == [
        "config", "degenerate", "reps_effective", "results", "runtime_seconds",
    ]


def test_lrt_grid_csv():
    proc = run_cli("lrt-grid", "--a-values", "0.2,0.5", "--p-values", "0.3", "--n", "99", "--seed", "2")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "a,p,statistic,p_value,decision"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0.2" and first[1] == "0.3"
    assert first[4] in ("reject", "fail_to_reject")


def test_table_csv():
    proc = run_cli("table", "--which", "mle-less", "--n-values", "199", "--reps", "4", "--seed", "1")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "n,a,p,ciml_a,ciml_p,cp_a,cp_p"
    assert len(lines) > 1
    assert all(line.split(",")[0] == "199" for line in lines[1:])


def test_plot_outputs_deterministic_svg(tmp_path):
    a = tmp_path / "one.svg"
    b = tmp_path / "two.svg"
    for target in (a, b):
        run_cli(
            "plot", "--kind", "symmetry", "--a", "0.5", "--p-values", "0.2,0.5,0.8",
            "--n", "99", "--reps", "5", "--seed", "3", "--out", str(target),
        )
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_plot_of_degenerate_studies_holds_no_nan(tmp_path):
    # at n = 1 every replication is degenerate: the simulated series has no
    # finite point, so it keeps only a legend entry that says so, and the
    # closed-form one is drawn alone
    target = tmp_path / "sym.svg"
    run_cli(
        "plot", "--kind", "symmetry", "--a", ".9", "--n", "1", "--reps", "3",
        "--p-values", ".05,.5", "--out", str(target),
    )
    root = ElementTree.parse(target).getroot()
    values = [v for e in root.iter() for v in e.attrib.values()]
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 1
    assert not [v for v in values if "nan" in v.lower()]
    texts = [e.text for e in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "simulated (no finite points)" in texts and "closed form" in texts


def test_plot_mixing(tmp_path):
    target = tmp_path / "mix.svg"
    run_cli("plot", "--kind", "mixing", "--a", "0.6", "--p", "0.2", "--lags", "10", "--out", str(target))
    assert target.read_text().startswith("<svg")


def test_missing_input_fails_cleanly(tmp_path):
    proc = run_cli("estimate", "--input", str(tmp_path / "nope.csv"), "--method", "mle", check=False)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "content, message",
    [
        (b"t,x\n0,\xff\n", "codec can't decode"),
        (b't,x\n0,"' + b"1" * 200_000 + b'"\n', "field larger than field limit"),
    ],
    ids=["not_utf8", "overlong_field"],
)
@pytest.mark.parametrize("command", [("estimate", "--method", "mle"), ("lrt",)], ids=["estimate", "lrt"])
def test_unreadable_input_fails_cleanly(tmp_path, content, message, command):
    target = tmp_path / "bad.csv"
    target.write_bytes(content)
    proc = run_cli(command[0], "--input", str(target), *command[1:], check=False)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"DomainError: {target}: ") and message in proc.stderr


def test_format_mismatch_is_a_usage_error():
    proc = run_cli("mc", "--a", "0.5", "--p", "0.3", "--n", "99", "--reps", "5", "--format", "csv", check=False)
    assert proc.returncode == 2


def test_bad_invocations_exit_two():
    assert run_cli(check=False).returncode == 2
    assert run_cli("bogus-cmd", check=False).returncode == 2
    assert run_cli("estimate", "--input", "x.csv", "--method", "nope", check=False).returncode == 2


def test_runtime_imports_no_scipy():
    # scipy is a test-only dependency: a fresh interpreter that imports the
    # package and runs a command must not load any scipy module
    code = (
        "import sys, copulachain\n"
        "from copulachain import cli\n"
        "code = cli.run(['transition', '--a', '.3', '--p', '.2'])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(code, loaded, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "0 []"


def _pkg(*names):
    return {f"copulachain.{m}" for m in names}


# Each command imports only the modules it runs: (modules it must load, modules it must not).
# numpy.random loads with the first generator, which estimate --method mle and lrt never build.
_IDLE = _pkg("montecarlo", "mixing", "svgchart")
IMPORT_SETS = {
    "simulate": (_pkg("chain", "pathio") | {"numpy.random"}, _pkg("estimation", "inference") | _IDLE),
    "estimate": (_pkg("estimation", "pathio"), _pkg("inference") | _IDLE | {"numpy.random"}),
    "lrt": (_pkg("inference", "pathio"), _IDLE | {"numpy.random"}),
}


@pytest.mark.parametrize("command", sorted(IMPORT_SETS))
def test_a_command_loads_only_the_modules_it_runs(binary_csv, tmp_path, command):
    argv = {
        "simulate": ["simulate", "--a", ".5", "--p", ".3", "--n", "500"],
        "estimate": ["estimate", "--input", binary_csv, "--method", "mle"],
        "lrt": ["lrt", "--input", binary_csv],
    }[command]
    code = (
        "import sys\n"
        "import numpy\n"
        "eager = 'numpy.random' in sys.modules  # older numpy imports it with the package\n"
        "from copulachain import cli\n"
        "assert cli.run(sys.argv[1:]) == 0\n"
        "print(eager, *sorted(sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(tmp_path / "out")], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    eager, *loaded = proc.stdout.split()
    must, never = IMPORT_SETS[command]
    if eager == "True":
        never = never - {"numpy.random"}
    assert must <= set(loaded)
    assert never.isdisjoint(loaded)


# The parser's surface: per command its help, its handler, and per option
# (option strings, dest, default, type, required, choices, help), in --help order.
_OUT = (("--out",), "out", None, None, False, None, "write output to this file instead of stdout")
_STUDY = [
    (("--a",), "a", None, float, True, None, None),
    (("--p",), "p", None, float, True, None, None),
    (("--n",), "n", None, int, True, None, None),
    (("--reps",), "reps", 400, int, False, None, None),
    (("--alpha",), "alpha", 0.05, float, False, None, None),
    (("--seed",), "seed", 20260814, int, False, None, None),
    (("--per-rep",), "per_rep", None, None, False, None, "also write one CSV row per replication to this file"),
    _OUT,
]
CLI_SURFACE = {
    "simulate": ("simulate a path and write it as CSV", "_cmd_simulate", [
        (("--a",), "a", None, float, True, None, None),
        (("--p",), "p", None, float, False, None, None),
        (("--n",), "n", None, int, True, None, None),
        (("--seed",), "seed", 0, int, False, None, None),
        (("--marginal",), "marginal", "bernoulli", None, False, ["bernoulli", "uniform"], None),
        _OUT,
    ]),
    "transition": ("print the transition matrix as JSON", "_cmd_transition", [
        (("--a",), "a", None, float, True, None, None),
        (("--p",), "p", None, float, True, None, None),
        (("--steps",), "steps", None, int, False, None, None),
        _OUT,
    ]),
    "mixing": ("closed-form mixing decay as CSV", "_cmd_mixing", [
        (("--a",), "a", None, float, True, None, None),
        (("--p",), "p", None, float, True, None, None),
        (("--lags",), "lags", 50, int, False, None, None),
        _OUT,
    ]),
    "estimate": ("estimate parameters from a path CSV", "_cmd_estimate", [
        (("--input",), "input", None, None, True, None, None),
        (("--method",), "method", "mle", None, False, ["mle", "mle-half", "mean", "robust", "indicator"], None),
        (("--alpha",), "alpha", 0.05, float, False, None, None),
        (("--noise-seed",), "noise_seed", 0, int, False, None, None),
        _OUT,
    ]),
    "lrt": ("likelihood-ratio independence test on a path CSV", "_cmd_lrt", [
        (("--input",), "input", None, None, True, None, None),
        (("--alpha",), "alpha", 0.05, float, False, None, None),
        _OUT,
    ]),
    "mc": ("replicated coverage study of the MLE intervals", "_cmd_study", _STUDY),
    "compare": ("coverage study comparing the three estimators of p", "_cmd_study", _STUDY),
    "lrt-grid": ("run the independence test across an (a, p) grid", "_cmd_lrt_grid", [
        (("--a-values",), "a_values", None, None, True, None, None),
        (("--p-values",), "p_values", None, None, True, None, None),
        (("--n",), "n", None, int, True, None, None),
        (("--seed",), "seed", 20260814, int, False, None, None),
        (("--alpha",), "alpha", 0.05, float, False, None, None),
        _OUT,
    ]),
    "table": ("desk-scale reproduction of the study tables", "_cmd_table", [
        (("--which",), "which", None, None, True, ["mle-less", "mle-geq", "compare-less", "compare-geq"], None),
        (("--n-values",), "n_values", "499", None, False, None, None),
        (("--reps",), "reps", 100, int, False, None, None),
        (("--seed",), "seed", 20260814, int, False, None, None),
        (("--alpha",), "alpha", 0.05, float, False, None, None),
        _OUT,
    ]),
    "plot": ("render an SVG chart", "_cmd_plot", [
        (("--kind",), "kind", None, None, True, ["symmetry", "mixing"], None),
        (("--a",), "a", None, float, True, None, None),
        (("--p",), "p", None, float, False, None, None),
        (("--p-values",), "p_values", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", None, False, None, None),
        (("--n",), "n", 999, int, False, None, None),
        (("--reps",), "reps", 100, int, False, None, None),
        (("--lags",), "lags", 50, int, False, None, None),
        (("--seed",), "seed", 20260814, int, False, None, None),
        (("--alpha",), "alpha", 0.05, float, False, None, None),
        _OUT,
    ]),
}


def test_parser_surface_is_pinned():
    parser = cli.build_parser()
    assert (parser.prog, parser.description) == (
        "copulachain", "Simulation and inference for two-state copula-based Markov chains.",
    )
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    helps = {c.dest: c.help for c in sub._choices_actions}
    assert list(sub.choices) == list(helps) == list(CLI_SURFACE)
    for name, sp in sub.choices.items():
        want_help, handler, options = CLI_SURFACE[name]
        got = [
            (tuple(a.option_strings), a.dest, a.default, a.type, a.required, a.choices, a.help)
            for a in sp._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        assert (helps[name], sp.get_default("func").__name__) == (want_help, handler), name
        assert got == options, name
