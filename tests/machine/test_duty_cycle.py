"""Duty-cycle (T-state) throttling: the controller's last resort."""

import dataclasses

import pytest

from repro.machine import BROADWELL_E5_2695V4, MIN_DUTY, Processor
from repro.workload import AccessPattern, InstructionMix, WorkProfile, WorkSegment


def traffic_monster():
    """Bandwidth-saturating random access with real compute: enough
    incompressible (traffic) power that P-states alone cannot hold deep
    caps, and enough core work that throttling costs time."""
    return WorkSegment(
        name="monster",
        mix=InstructionMix(fp=3e10, simd=1e10, load=8e9, store=3e9),
        bytes_read=1.2e11,
        bytes_written=2e10,
        working_set_bytes=1e12,
        pattern=AccessPattern.RANDOM,
        mlp=64.0,
    )


@pytest.fixture(scope="module")
def hot_spec_proc():
    """A spec variant whose floor power exceeds deep caps, forcing the
    duty-cycle path deterministically."""
    spec = dataclasses.replace(
        BROADWELL_E5_2695V4,
        p_uncore_idle=25.0,
        p_per_dram_Bps=1.5e-9,
        rapl_floor_watts=40.0,
    )
    return Processor(spec)


class TestDutyCycling:
    def test_duty_engages_below_pstate_range(self, hot_spec_proc):
        prof = WorkProfile("m", [traffic_monster()])
        r = hot_spec_proc.run(prof, 40.0)
        rec = r.records[0]
        assert rec.duty < 1.0
        assert rec.f_ghz == pytest.approx(hot_spec_proc.spec.f_min)

    def test_duty_respects_minimum(self, hot_spec_proc):
        prof = WorkProfile("m", [traffic_monster()])
        r = hot_spec_proc.run(prof, 40.0)
        assert r.records[0].duty >= MIN_DUTY

    def test_unholdable_cap_is_flagged(self, hot_spec_proc):
        """When even maximal throttling exceeds the cap, the record says
        so instead of silently reporting a false power number."""
        prof = WorkProfile("m", [traffic_monster()])
        r = hot_spec_proc.run(prof, 40.0)
        rec = r.records[0]
        assert not rec.cap_met
        assert rec.power_w > 40.0

    def test_duty_costs_time(self, hot_spec_proc):
        prof = WorkProfile("m", [traffic_monster()])
        free = hot_spec_proc.run(prof, 120.0)
        capped = hot_spec_proc.run(prof, 40.0)
        assert capped.records[0].duty < free.records[0].duty
        assert capped.time_s > 1.5 * free.time_s

    def test_standard_spec_avoids_duty_for_study_workloads(self, processor):
        """On the calibrated Broadwell, none of the study algorithms
        needs T-states even at the 40 W floor."""
        from repro import api

        engine = api.sweep_engine(n_cycles=1)
        for alg in ("contour", "volume"):
            prof = engine.profile_for(alg, 16)
            r = processor.run(prof, 40.0)
            assert all(rec.duty == 1.0 for rec in r.records), alg
