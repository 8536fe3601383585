"""Replicated coverage studies and their reporting layer."""

import math
from dataclasses import replace

import numpy as np
import pytest

from copulachain.chain import ModelParams
from copulachain.errors import DomainError
from copulachain.estimation import clt_variance, normal_quantile, var_sample_mean
from copulachain.montecarlo import (
    COMPARISON_ESTIMATORS,
    STREAM_PATH,
    STREAM_TABLE,
    TABLE_GRIDS,
    StudyConfig,
    closed_form_ciml_p,
    lrt_grid,
    mc_estimator_comparison,
    mc_mle_study,
    symmetry_report,
    table_study,
)
from copulachain.rng import derive_seed, make_generator


def test_config_validation():
    with pytest.raises(DomainError):
        StudyConfig(a=0.5, p=0.3, n=199, reps=0)
    with pytest.raises(DomainError):
        StudyConfig(a=0.5, p=0.3, n=199, alpha=1.5)
    with pytest.raises(DomainError):
        StudyConfig(a=1.2, p=0.3, n=199)
    with pytest.raises(DomainError):
        mc_estimator_comparison(StudyConfig(a=0.5, p=0.3, n=99, reps=5, estimators=("bogus",)))


@pytest.mark.parametrize("study", [mc_mle_study, mc_estimator_comparison])
@pytest.mark.parametrize("field", ["n", "reps"])
def test_studies_take_whole_sizes_only(field, study):
    # a size equal to an integer is stored as that int; any other value is
    # refused by name, not rounded up into one more replication
    cfg = StudyConfig(a=0.5, p=0.3, n=99, reps=5)
    whole = replace(cfg, **{field: float(getattr(cfg, field))})
    assert type(getattr(whole, field)) is int
    assert study(whole) == study(cfg)
    for value in (2.5, math.nan, math.inf, "5", None):
        with pytest.raises(DomainError, match=f"^{field} must be an integer"):
            study(replace(cfg, **{field: value}))


@pytest.mark.parametrize("estimators", [("mle", "robsut"), ("MLE", "mean"), ("mle", "mean", "robust", "")])
def test_unknown_estimator_names_are_rejected(estimators):
    with pytest.raises(DomainError, match="robsut|MLE|''"):
        mc_estimator_comparison(StudyConfig(a=0.5, p=0.3, n=99, reps=5, estimators=estimators))


@pytest.mark.parametrize("estimators", [("robust",), ("mle", "mean"), ()])
def test_mle_study_rejects_other_estimators(estimators):
    # the study fits the MLE only; a config naming anything else must not
    # come back as an MLE report labelled with those names
    with pytest.raises(DomainError, match="unsupported MLE study estimators"):
        mc_mle_study(StudyConfig(a=0.5, p=0.3, n=99, reps=5, estimators=estimators))
    once = mc_mle_study(StudyConfig(a=0.5, p=0.3, n=99, reps=5))
    twice = mc_mle_study(StudyConfig(a=0.5, p=0.3, n=99, reps=5, estimators=("mle", "mle")))
    assert (twice.stats, twice.degenerate) == (once.stats, once.degenerate)


def test_repeated_estimator_names_count_once():
    once = StudyConfig(a=0.1, p=0.1, n=49, reps=20, master_seed=3, estimators=("mle", "mean"))
    twice = StudyConfig(a=0.1, p=0.1, n=49, reps=20, master_seed=3, estimators=("mle", "mle", "mean"))
    one, two = mc_estimator_comparison(once), mc_estimator_comparison(twice)
    assert one.degenerate["mle"] > 0  # a double count would show
    assert (two.stats, two.degenerate, two.reps_effective) == (one.stats, one.degenerate, one.reps_effective)


def test_study_is_deterministic_and_row_free_by_default():
    cfg = StudyConfig(a=0.5, p=0.25, n=199, reps=40, master_seed=11)
    one = mc_mle_study(cfg)
    two = mc_mle_study(cfg)
    withrows = mc_mle_study(cfg, keep_rows=True)
    assert one == two
    assert one == withrows  # rows and runtime do not take part in equality
    assert len(one.rows) == 0
    assert len(withrows.rows) == 80  # one record per parameter per replication
    assert mc_mle_study(StudyConfig(a=0.5, p=0.25, n=199, reps=40, master_seed=12)) != one


def test_study_statistics_shape():
    rep = mc_mle_study(StudyConfig(a=0.6, p=0.3, n=499, reps=60, master_seed=5))
    stats = rep.stats["mle"]
    for key in ("a", "p"):
        assert 0.0 <= stats[key].coverage <= 1.0
        assert stats[key].ciml > 0.0
    assert rep.reps_effective["mle"] + rep.degenerate["mle"] == 60
    d = rep.as_dict()
    assert sorted(d) == ["config", "degenerate", "reps_effective", "results", "runtime_seconds"]


def test_degenerate_replications_are_counted_and_excluded():
    rep = mc_mle_study(StudyConfig(a=0.9, p=0.05, n=9, reps=60, master_seed=4))
    assert rep.degenerate["mle"] > 0
    assert rep.reps_effective["mle"] == 60 - rep.degenerate["mle"]


def test_comparison_covers_requested_estimators():
    cfg = StudyConfig(a=0.5, p=0.3, n=199, reps=25, master_seed=2, estimators=("mle", "mean", "robust"))
    rep = mc_estimator_comparison(cfg, keep_rows=True)
    assert sorted(rep.stats) == ["mean", "mle", "robust"]
    for name in rep.stats:
        assert "p" in rep.stats[name]
    assert sorted({r.estimator for r in rep.rows}) == ["mean", "mle", "robust"]
    for row in rep.rows:
        if not row.degenerate:
            assert math.isclose(row.length, row.ci_hi - row.ci_lo, rel_tol=1e-12)
            assert row.covered == (row.ci_lo <= 0.3 <= row.ci_hi)


def test_lrt_grid_layout_and_size():
    cells = lrt_grid([0.2, 0.5, 0.8], [0.2, 0.5, 0.8], 199, master_seed=5)
    assert len(cells) == 9
    assert [(c.a, c.p) for c in cells[:3]] == [(0.2, 0.2), (0.2, 0.5), (0.2, 0.8)]
    for cell in cells:
        if not cell.degenerate:
            assert cell.result.statistic >= 0.0


def test_lrt_grid_detects_strong_dependence():
    cells = lrt_grid([0.9], [0.4], 9999, master_seed=1)
    assert cells[0].result.statistic > 1000.0
    assert cells[0].result.decision == "reject"


def test_closed_form_interval_length_identity():
    for a, p, n in ((0.5, 0.3, 999), (0.2, 0.7, 499), (0.8, 0.45, 4999)):
        z = normal_quantile(0.975)
        want = 2.0 * z * math.sqrt(var_sample_mean(ModelParams(a, p), n))
        assert math.isclose(closed_form_ciml_p(a, p, n), want, rel_tol=1e-14)


def test_closed_form_interval_length_takes_whole_n_only():
    assert closed_form_ciml_p(0.5, 0.3, 999.0) == closed_form_ciml_p(0.5, 0.3, 999)
    for n in (999.5, math.nan, 0):
        with pytest.raises(DomainError, match="^n must be an integer of at least 1"):
            closed_form_ciml_p(0.5, 0.3, n)


def test_closed_form_interval_length_is_exactly_symmetric():
    for a in (0.1, 0.37, 0.5, 0.82):
        for p in (0.1, 0.2, 0.3, 0.45):
            assert closed_form_ciml_p(a, p, 999) == closed_form_ciml_p(a, 1.0 - p, 999)


def test_closed_form_frozen_value():
    assert math.isclose(closed_form_ciml_p(0.5, 0.3, 999), 0.0762121101721, abs_tol=1e-10)


def test_variance_profile_over_p():
    # at a = 0.5 the limit variance peaks at p = 0.3 and dips at the ends
    values = {p: clt_variance(ModelParams(0.5, p)) for p in (0.1, 0.3, 0.5, 0.7, 0.9)}
    assert math.isclose(values[0.1], 0.234, abs_tol=1e-12)
    assert values[0.3] == 0.378
    assert math.isclose(values[0.5], 0.25, abs_tol=1e-12)
    assert values[0.1] == values[0.9]
    assert values[0.3] == values[0.7]
    grid = [round(0.1 * k, 1) for k in range(1, 10)]
    lengths = [closed_form_ciml_p(0.5, p, 999) for p in grid]
    k = int(np.argmin(lengths))
    assert grid[k] in (0.1, 0.9)


def test_symmetry_report_rows():
    rows = symmetry_report(0.5, [0.2, 0.8, 0.35], 499, reps=60, master_seed=3)
    assert [r.p for r in rows] == [0.2, 0.8, 0.35]
    by_p = {r.p: r for r in rows}
    assert by_p[0.2].closed_ciml == by_p[0.8].closed_ciml
    for r in rows:
        assert abs(r.mc_ciml - r.closed_ciml) / r.closed_ciml < 0.2


def test_table_study_layout():
    header, rows = table_study("mle-less", [199, 499], reps=8, master_seed=6)
    assert header == ["n", "a", "p", "ciml_a", "ciml_p", "cp_a", "cp_p"]
    grid = TABLE_GRIDS["mle-less"]
    assert len(rows) == 2 * len(grid["a"]) * len(grid["p"])
    assert {r[0] for r in rows} == {199, 499}
    with pytest.raises(DomainError):
        table_study("bogus", [199], reps=8, master_seed=6)


def test_interval_length_decreases_with_n():
    lengths = [closed_form_ciml_p(0.5, 0.3, n) for n in (499, 999, 4999)]
    assert lengths[0] > lengths[1] > lengths[2]
    # same monotonicity in the simulated lengths
    ciml = [
        mc_mle_study(StudyConfig(a=0.5, p=0.3, n=n, reps=50, master_seed=8)).stats["mle"]["p"].ciml
        for n in (499, 999, 4999)
    ]
    assert ciml[0] > ciml[1] > ciml[2]


def test_replication_streams_are_distinct():
    seen = set()
    for r in range(10_000):
        g = make_generator(derive_seed(20260814, STREAM_PATH, r))
        seen.add(tuple(g.random(4).tolist()))
    assert len(seen) == 10_000


@pytest.mark.parametrize("which", ["compare-less", "compare-geq"])
def test_compare_table_rows_are_the_comparison_reports(which):
    header, rows = table_study(which, [49], 20, 6)
    assert header == ["n", "a", "p", "ciml_mle", "cp_mle", "ciml_mean", "cp_mean", "ciml_robust", "cp_robust"]
    grid = TABLE_GRIDS[which]
    cells = [(j, a, k, p) for j, a in enumerate(grid["a"]) for k, p in enumerate(grid["p"])]
    assert [row[:3] for row in rows] == [[49, a, p] for _, a, _, p in cells]
    for row, (j, a, k, p) in zip(rows, cells):
        seed = derive_seed(6, STREAM_TABLE, 0, j, k)
        report = mc_estimator_comparison(StudyConfig(a, p, 49, 20, master_seed=seed, estimators=COMPARISON_ESTIMATORS))
        stats = [report.stats[e]["p"] for e in COMPARISON_ESTIMATORS]
        np.testing.assert_array_equal(row[3:], [v for s in stats for v in (s.ciml, s.coverage)])


def test_lrt_grid_reports_a_constant_path_as_degenerate():
    (cell,) = lrt_grid([0.99], [0.01], 5, 1)
    assert (cell.a, cell.p, cell.result, cell.degenerate) == (0.99, 0.01, None, True)
