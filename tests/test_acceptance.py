"""Acceptance gate: every release-blocking check with its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion.  Each check recomputes its target from scratch; nothing here
shares state with the unit tests.
"""

import math
import time

import numpy as np

from copulachain.chain import (
    ModelParams,
    simulate_bernoulli_chain,
    simulate_uniform_chain,
    transition_counts,
    transition_matrix,
    n_step_matrix,
)
from copulachain.errors import DegenerateData
from copulachain.estimation import clt_variance, fit_mle
from copulachain.inference import REJECT, lrt
from copulachain.mixing import joint_table, lambda2, phi_closed, phi_from_table, psi_closed, psi_from_table
from copulachain.montecarlo import (
    StudyConfig,
    closed_form_ciml_p,
    mc_estimator_comparison,
    mc_mle_study,
    symmetry_report,
)
from copulachain.rng import make_generator

from oracles import grid_mle, score_reference

GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def _report(num, slug, ok):
    print(f"[acceptance] {num} {slug}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_01_n_step_matrix_matches_repeated_multiplication():
    start = time.time()
    worst = 0.0
    for a in GRID:
        for p in GRID:
            params = ModelParams(a, p)
            step = transition_matrix(params).entries
            acc = np.eye(2)
            for n in range(1, 51):
                acc = acc @ step
                closed = n_step_matrix(params, n).entries
                worst = max(worst, float(np.abs(closed - acc).max()))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert _report(1, "n-step-matrix-oracle", ok), f"worst={worst:.3g} elapsed={elapsed:.2f}s"


def test_02_mixing_brute_force_and_geometric_decay():
    start = time.time()
    worst = 0.0
    worst_ratio = 0.0
    for a in GRID:
        for p in GRID:
            params = ModelParams(a, p)
            lam = abs(lambda2(params))
            for n in (1, 2, 3, 5, 8, 13, 20):
                table = joint_table(params, n)
                worst = max(worst, abs(psi_from_table(table) - psi_closed(params, n)))
                worst = max(worst, abs(phi_from_table(table) - phi_closed(params, n)))
                worst_ratio = max(
                    worst_ratio, abs(psi_closed(params, n + 1) - lam * psi_closed(params, n))
                )
    elapsed = time.time() - start
    ok = worst < 1e-12 and worst_ratio < 1e-12 and elapsed < 1.0
    assert _report(2, "mixing-coefficient-oracle", ok), (
        f"worst={worst:.3g} ratio={worst_ratio:.3g} elapsed={elapsed:.2f}s"
    )


def test_03_mle_matches_grid_refine_on_random_tables():
    start = time.time()
    rng = make_generator(314159)
    accepted = 0
    attempts = 0
    worst_coord = 0.0
    worst_score = 0.0
    while accepted < 50 and attempts < 80:
        attempts += 1
        a = float(rng.uniform(0.1, 0.9))
        p = float(rng.uniform(0.1, 0.9))
        n = int(rng.integers(200, 1200))
        counts = transition_counts(
            simulate_bernoulli_chain(ModelParams(a, p), n, int(rng.integers(0, 2**63)))
        )
        try:
            fit = fit_mle(counts)
        except DegenerateData:
            continue
        if fit.params.p == 0.5:
            continue
        accepted += 1
        ga, gp, _ = grid_mle(counts)
        worst_coord = max(worst_coord, abs(fit.params.a - ga), abs(fit.params.p - gp))
        s_a, s_p = score_reference(counts, fit.params)
        worst_score = max(worst_score, abs(s_a), abs(s_p))
    elapsed = time.time() - start
    ok = accepted == 50 and worst_coord < 2e-3 and worst_score < 1e-6 and elapsed < 30.0
    assert _report(3, "mle-grid-agreement", ok), (
        f"accepted={accepted} worst_coord={worst_coord:.2e} "
        f"worst_score={worst_score:.2e} elapsed={elapsed:.1f}s"
    )


def test_04_mle_interval_table_reproduction():
    targets = {
        (0.1, 0.3): dict(cp_a=0.9575, cp_p=0.9525, ciml_a=0.0303, ciml_p=0.0189),
        (0.7, 0.3): dict(cp_a=0.9600, cp_p=0.9650, ciml_a=0.0465, ciml_p=0.0486),
    }
    ok = True
    detail = []
    for (a, p), want in targets.items():
        rep = mc_mle_study(StudyConfig(a=a, p=p, n=4999, reps=400))
        stats = rep.stats["mle"]
        checks = [
            abs(stats["a"].coverage - want["cp_a"]) <= 0.03,
            abs(stats["p"].coverage - want["cp_p"]) <= 0.03,
            abs(stats["a"].ciml - want["ciml_a"]) <= 0.15 * want["ciml_a"],
            abs(stats["p"].ciml - want["ciml_p"]) <= 0.15 * want["ciml_p"],
        ]
        ok = ok and all(checks)
        detail.append(
            f"(a={a},p={p}) cp=({stats['a'].coverage:.4f},{stats['p'].coverage:.4f}) "
            f"ciml=({stats['a'].ciml:.4f},{stats['p'].ciml:.4f})"
        )
    assert _report(4, "mle-interval-study", ok), " | ".join(detail)


def test_05_mean_and_robust_estimator_study():
    mean_rep = mc_estimator_comparison(
        StudyConfig(a=0.5, p=0.3, n=999, reps=400, estimators=("mean",))
    )
    mean_stats = mean_rep.stats["mean"]["p"]
    robust_rep = mc_estimator_comparison(
        StudyConfig(a=0.5, p=0.3, n=9999, reps=400, estimators=("robust",))
    )
    robust_cp = robust_rep.stats["robust"]["p"].coverage
    ok = (
        abs(mean_stats.ciml - 0.0762) <= 0.15 * 0.0762
        and abs(mean_stats.coverage - 0.9575) <= 0.03
        and robust_cp >= 0.90
    )
    assert _report(5, "mean-robust-study", ok), (
        f"mean cp={mean_stats.coverage:.4f} ciml={mean_stats.ciml:.4f} robust cp={robust_cp:.4f}"
    )


def test_06_lrt_size_and_power():
    rejections = 0
    for seed in range(1000):
        path = simulate_bernoulli_chain(ModelParams(0.3, 0.3), 9999, seed)
        rejections += lrt(path).decision == REJECT
    size = rejections / 1000

    power_hits = 0
    for seed in range(100):
        path = simulate_bernoulli_chain(ModelParams(0.9, 0.4), 9999, seed)
        power_hits += lrt(path).decision == REJECT
    power = power_hits / 100

    ok = 0.03 <= size <= 0.07 and power == 1.0
    assert _report(6, "lrt-size-and-power", ok), f"size={size:.3f} power={power:.2f}"


def test_07_clt_variance():
    a, p, n = 0.5, 0.3, 9999
    devs = np.empty(1000)
    for seed in range(1000):
        path = simulate_bernoulli_chain(ModelParams(a, p), n, seed)
        devs[seed] = math.sqrt(n + 1) * (path.states.mean() - p)
    target = clt_variance(ModelParams(a, p))
    got = float(np.var(devs))
    ok = abs(got - target) <= 0.10 * target
    assert _report(7, "clt-variance", ok), f"got={got:.4f} target={target:.4f}"


def test_08_interval_length_symmetry():
    exact = all(
        closed_form_ciml_p(a, p, 9999) == closed_form_ciml_p(a, 1.0 - p, 9999)
        for a in GRID
        for p in (0.1, 0.2, 0.3, 0.4, 0.45)
    )
    rows = symmetry_report(0.5, [0.3, 0.7], 9999, reps=400, master_seed=20260814)
    lo, hi = sorted(r.mc_ciml for r in rows)
    mc_close = (hi - lo) / hi <= 0.05
    ok = exact and mc_close
    assert _report(8, "interval-symmetry", ok), f"exact={exact} mc=({lo:.5f},{hi:.5f})"


def test_09_indicator_estimator_concentration():
    a, n = 0.3, 10_000
    band = 3.0 * math.sqrt(a * (1.0 - a) / n)
    hits = 0
    for seed in range(200):
        s = simulate_uniform_chain(a, n, seed).states
        mean_agree = float(np.mean(s[1:] == s[:-1]))
        hits += abs(mean_agree - a) < band
    ok = hits >= 198
    assert _report(9, "indicator-concentration", ok), f"hits={hits}/200"
