"""End-to-end checks of the command line interface via subprocess."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from copulachain.chain import ModelParams, transition_matrix
from copulachain.mixing import phi_closed, psi_closed
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
