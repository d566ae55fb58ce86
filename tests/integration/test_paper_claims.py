"""Integration: the paper's qualitative claims on a reduced grid.

These tests run the real pipeline end to end (algorithm execution →
work profile → simulated socket → study metrics) at 64³ — large enough
for the class structure to appear, small enough for CI. The full-size
table/figure reproductions live in benchmarks/.
"""

import pytest

from repro import api
from repro.core import (
    PowerClass,
    StudyConfig,
    classify_result,
    first_slowdown_cap,
)
from repro.core.study import ALGORITHM_NAMES

SIZE = 64


@pytest.fixture(scope="module")
def full_sweep():
    cfg = StudyConfig(name="integration", algorithms=ALGORITHM_NAMES, sizes=(SIZE,))
    return api.run_study(cfg)


class TestClassStructure:
    def test_two_classes_with_paper_membership(self, full_sweep):
        classes = classify_result(full_sweep, size=SIZE)
        sensitive = {a for a, c in classes.items() if c.power_class is PowerClass.SENSITIVE}
        assert sensitive == {"advection", "volume"}

    def test_sensitive_pair_draws_most_power(self, full_sweep):
        classes = classify_result(full_sweep, size=SIZE)
        draws = {a: c.natural_power_w for a, c in classes.items()}
        top_two = sorted(draws, key=draws.get, reverse=True)[:2]
        assert set(top_two) == {"advection", "volume"}

    def test_power_band_matches_paper(self, full_sweep):
        """Paper: default draw ranges from ~55 W up to ~90 W."""
        classes = classify_result(full_sweep, size=SIZE)
        for alg, c in classes.items():
            assert 40.0 < c.natural_power_w < 95.0, alg

    def test_sensitive_ipc_above_divide(self, full_sweep):
        """Paper's Fig. 2b: IPC > 1 marks compute-bound algorithms."""
        classes = classify_result(full_sweep, size=SIZE)
        for alg in ("advection", "volume"):
            assert classes[alg].baseline_ipc > 1.5
        for alg in ("contour", "threshold", "clip"):
            assert classes[alg].baseline_ipc < 1.0


class TestTradeoffs:
    def test_tratio_below_pratio_for_opportunity(self, full_sweep):
        """The data-bound algorithms never slow down as much as the
        power drops (the tradeoff the paper calls out)."""
        for alg in ("contour", "threshold", "clip", "slice"):
            for p in full_sweep.select(algorithm=alg, size=SIZE):
                if p.pratio > 1.0:
                    assert p.tratio < p.pratio, (alg, p.cap_w)

    def test_everyone_at_turbo_uncapped(self, full_sweep):
        for alg in ALGORITHM_NAMES:
            base = full_sweep.baseline(alg, SIZE)
            assert base.freq_ghz == pytest.approx(2.6)

    def test_sensitive_throttle_before_opportunity(self, full_sweep):
        reds = {}
        for alg in ALGORITHM_NAMES:
            pts = full_sweep.select(algorithm=alg, size=SIZE)
            reds[alg] = first_slowdown_cap([(p.cap_w, p.tratio) for p in pts]) or 0.0
        assert min(reds["advection"], reds["volume"]) > max(
            reds["contour"], reds["threshold"], reds["slice"]
        )

    def test_deep_caps_cut_power_without_energy_blowup(self, full_sweep):
        """Deep-capping a data-bound algorithm cuts power sharply while
        total energy stays near-flat (time grows less than power drops)."""
        base = full_sweep.baseline("contour", SIZE)
        p40 = [p for p in full_sweep.select(algorithm="contour", size=SIZE) if p.cap_w == 40.0][0]
        assert p40.power_w < base.power_w * 0.85
        assert p40.energy_j < base.energy_j * 1.10


class TestFullPhaseCounts:
    def test_phase_grid_is_complete(self, full_sweep):
        assert len(full_sweep.points) == 8 * 9

    def test_deterministic_rerun(self):
        """Two sweeps from the same seed produce identical metrics."""
        cfg = StudyConfig(name="det", algorithms=("threshold",), sizes=(16,))
        a = api.run_study(api.StudyRequest(config=cfg, n_cycles=3, seed=11))
        b = api.run_study(api.StudyRequest(config=cfg, n_cycles=3, seed=11))
        for pa, pb in zip(a.points, b.points):
            assert pa.time_s == pb.time_s
            assert pa.power_w == pb.power_w
