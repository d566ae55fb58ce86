"""Study metrics and configuration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ALGORITHM_NAMES,
    DATASET_SIZES,
    POWER_CAPS_W,
    Ratios,
    StudyConfig,
    element_rate,
    first_slowdown_cap,
    phase1_config,
    phase2_config,
    phase3_config,
)


class TestRatios:
    def test_orientation_matches_paper(self):
        """Paper §V: Pratio and Fratio put the default on top; Tratio is
        reversed, so all exceed 1 as the cap tightens."""
        r = Ratios.from_measurements(
            cap_default_w=120,
            cap_w=40,
            time_default_s=10.0,
            time_s=12.0,
            freq_default_ghz=2.6,
            freq_ghz=2.0,
        )
        assert r.pratio == pytest.approx(3.0)
        assert r.tratio == pytest.approx(1.2)
        assert r.fratio == pytest.approx(1.3)

    def test_good_tradeoff(self):
        r = Ratios(pratio=3.0, tratio=1.2, fratio=1.3)
        assert r.is_good_tradeoff
        r2 = Ratios(pratio=1.1, tratio=1.5, fratio=1.5)
        assert not r2.is_good_tradeoff

    def test_slowdown_threshold(self):
        assert Ratios(2.0, 1.10, 1.1).slowed_down
        assert not Ratios(2.0, 1.09, 1.1).slowed_down

    def test_validation(self):
        with pytest.raises(ValueError):
            Ratios.from_measurements(
                cap_default_w=120, cap_w=0, time_default_s=1, time_s=1,
                freq_default_ghz=2.6, freq_ghz=2.6,
            )


class TestMetrics:
    def test_element_rate(self):
        assert element_rate(128**3, 2.0) == pytest.approx(128**3 / 2.0)
        with pytest.raises(ValueError):
            element_rate(100, 0.0)

    def test_first_slowdown_cap_highest_slowed(self):
        rows = [(120, 1.0), (80, 1.0), (60, 1.12), (40, 1.5)]
        assert first_slowdown_cap(rows) == 60

    def test_first_slowdown_none(self):
        assert first_slowdown_cap([(120, 1.0), (40, 1.05)]) is None

    def test_first_slowdown_custom_threshold(self):
        rows = [(80, 1.06), (40, 1.2)]
        assert first_slowdown_cap(rows, threshold=0.05) == 80

    @given(
        tratios=st.lists(st.floats(min_value=0.9, max_value=3.0), min_size=1, max_size=9)
    )
    @settings(max_examples=40, deadline=None)
    def test_property_result_is_slowed_cap(self, tratios):
        rows = list(zip(range(120, 120 - 10 * len(tratios), -10), tratios))
        cap = first_slowdown_cap(rows)
        if cap is None:
            assert all(t < 1.1 for _, t in rows)
        else:
            assert dict(rows)[cap] >= 1.1


class TestStudyConfig:
    def test_paper_factors(self):
        assert len(POWER_CAPS_W) == 9
        assert POWER_CAPS_W[0] == 120.0 and POWER_CAPS_W[-1] == 40.0
        assert DATASET_SIZES == (32, 64, 128, 256)
        assert len(ALGORITHM_NAMES) == 8

    def test_phase_sizes_match_paper(self):
        assert phase1_config().n_configurations == 9
        assert phase2_config().n_configurations == 72
        assert phase3_config().n_configurations == 288

    def test_configurations_iteration(self):
        cfg = phase1_config()
        configs = list(cfg.configurations())
        assert len(configs) == 9
        assert configs[0] == ("contour", 128, 120.0)

    def test_default_cap(self):
        assert phase2_config().default_cap_w == 120.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            StudyConfig(name="x", algorithms=("nope",), sizes=(32,))

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            StudyConfig(name="x", algorithms=("contour",), sizes=(1,))


class TestEnergyDelayProduct:
    def test_edp_and_ed2p(self):
        from repro.core import energy_delay_product

        assert energy_delay_product(100.0, 2.0) == pytest.approx(200.0)
        assert energy_delay_product(100.0, 2.0, weight=2) == pytest.approx(400.0)

    def test_validation(self):
        from repro.core import energy_delay_product

        with pytest.raises(ValueError):
            energy_delay_product(-1.0, 1.0)
        with pytest.raises(ValueError):
            energy_delay_product(1.0, 1.0, weight=0)

    def test_deep_caps_cost_opportunity_class_little_edp(self):
        """Free-region caps leave a power-opportunity algorithm's EDP
        untouched, while the same relative cap costs a compute-bound
        algorithm far more — the facility-level version of the paper's
        tradeoff."""
        from repro import api
        from repro.core import energy_delay_product
        from repro.machine import Processor

        engine = api.sweep_engine(n_cycles=2)
        proc = Processor()
        degradation = {}
        for alg in ("threshold", "volume"):
            prof = engine.profile_for(alg, 16)
            base = proc.run(prof, 120.0)
            deep = proc.run(prof, 60.0)
            degradation[alg] = energy_delay_product(
                deep.energy_j, deep.time_s
            ) / energy_delay_product(base.energy_j, base.time_s)
        assert degradation["threshold"] == pytest.approx(1.0, abs=0.02)
        assert degradation["volume"] > degradation["threshold"] + 0.1
