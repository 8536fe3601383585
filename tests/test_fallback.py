"""fit_mle's profile-likelihood fallback against the scalar scan it replaces.

estimation._golden_candidate scores its p grid in one numpy pass and must
return what ``oracles.golden_candidate_reference``, the one-point-at-a-time
scan, returns: the same (ll, a, p) bit for bit, or None.
"""

import numpy as np

from copulachain import estimation
from copulachain.chain import TransitionCounts
from copulachain.errors import DomainError
from copulachain.estimation import _first_scalar_max, _golden_candidate, quartic_coefficients
from copulachain.montecarlo import StudyConfig, mc_mle_study

from oracles import _branch_candidates, golden_candidate_reference, mc_mle_study_reference


def _realizable_tables(max_n):
    # a path leaves state 0 as often as it enters it, give or take one
    for n in range(1, max_n + 1):
        for n01 in range(n + 1):
            for n10 in range(max(n01 - 1, 0), min(n01 + 1, n - n01) + 1):
                for n00 in range(n - n01 - n10 + 1):
                    for x0 in (0, 1):
                        try:
                            yield TransitionCounts(x0, n00, n01, n10, n - n00 - n01 - n10)
                        except DomainError:
                            pass


def _fallback_scans(max_n):
    """(counts, workspace) for each orientation of a table, both states left,
    that has no admissible quartic root: a superset of fit_mle's scans."""
    for counts in _realizable_tables(max_n):
        if counts.n00 + counts.n01 == 0 or counts.n10 + counts.n11 == 0:
            continue
        for target in (counts, counts.flipped()):
            ws = quartic_coefficients(target)
            if not _branch_candidates(target, ws):
                yield target, ws


def _bits(found):
    return None if found is None else tuple(float(v).hex() for v in found)


def test_vectorized_scan_equals_scalar_reference():
    scans = list(_fallback_scans(10))
    got = {}
    for target, ws in scans:
        want = golden_candidate_reference(target, ws)
        assert _bits(_golden_candidate(target, ws)) == _bits(want), target
        got[target] = want
    assert len(scans) > 500
    assert 0 < sum(v is not None for v in got.values()) < len(got) / 2
    for cells in ((0, 1, 1, 0, 1), (0, 1, 2, 1, 1)):
        assert got[TransitionCounts(*cells)] is not None


def test_first_scalar_max_takes_the_first_scalar_maximum():
    top = -3.0
    up, down = np.nextafter(top, 0.0), np.nextafter(top, -np.inf)
    idx = np.array([3, 7, 9, 12, 15])
    # np.log order: 7 leads 9 and 12 by one ulp; 15 is far outside the window
    vals = np.array([-9.0, up, top, top, -4.0])
    scalar = {3: -9.0, 7: top, 9: up, 12: up}  # math.log order: 9 and 12 tie for the lead
    assert _first_scalar_max(idx, vals, scalar.__getitem__) == 9
    assert _first_scalar_max(idx, vals, {3: -9.0, 7: down, 9: down, 12: down}.__getitem__) == 7
    # the window grows with |ll|: at ll ~ -1e6 a gap of 1e-7 is still near
    big = np.array([-1e6, -1e6 - 1e-7, -1e6 - 1e-3])
    assert _first_scalar_max(np.arange(3), big, {0: -1e6 - 1e-7, 1: -1e6}.__getitem__) == 1


def test_inadmissible_grid_returns_none_before_any_loglik(monkeypatch):
    counts = TransitionCounts(0, 0, 1, 0, 1)
    ws = quartic_coefficients(counts)
    assert not _branch_candidates(counts, ws)
    assert golden_candidate_reference(counts, ws) is None

    def no_loglik(*args, **kwargs):
        raise AssertionError("no grid point is admissible; nothing to score")

    monkeypatch.setattr(estimation, "_loglik_less", no_loglik)
    assert _golden_candidate(counts, ws) is None


def test_boundary_study_equals_reference_with_scalar_scan(monkeypatch):
    calls = []

    def reference_scan(counts, ws):
        calls.append(counts)
        return golden_candidate_reference(counts, ws)

    for seed in range(32):
        cfg = StudyConfig(a=0.1, p=0.1, n=49, reps=5, master_seed=seed)
        got = mc_mle_study(cfg, keep_rows=True)
        with monkeypatch.context() as m:
            m.setattr(estimation, "_golden_candidate", reference_scan)
            want = mc_mle_study_reference(cfg, keep_rows=True)
        assert got == want
        assert got.rows == want.rows
    assert calls  # the reference runs went through the fallback
