"""In-situ coupling: pipelines, the coupled driver, the budget runtime."""

import numpy as np
import pytest

from repro.cloverleaf import CloverLeaf, step_profile
from repro.insitu import (
    InSituDriver,
    Pipeline,
    advisor_allocation,
    uniform_allocation,
)
from repro.viz import Contour, Threshold


class TestPipeline:
    def test_runs_filters_in_order(self, blobs_ds):
        pipe = Pipeline("p").add(Threshold(field="energy")).add(Contour(field="energy", isovalues=[1.0]))
        res = pipe.execute(blobs_ds)
        assert len(res.outputs) == 2
        assert res.profile.total_instructions > 0
        # Merged profile holds both filters' segments.
        names = [s.name for s in res.profile]
        assert names.count("framework") == 2

    def test_empty_pipeline_rejected(self, blobs_ds):
        with pytest.raises(ValueError, match="no filters"):
            Pipeline("empty").execute(blobs_ds)


class TestCoupledDriver:
    @pytest.fixture(scope="class")
    def run(self):
        sim = CloverLeaf(10)
        pipes = [Pipeline("viz").add(Threshold(field="energy"))]
        driver = InSituDriver(sim, pipes, steps_per_cycle=2)
        return driver.run(3)

    def test_cycle_count(self, run):
        assert len(run.cycles) == 3

    def test_times_and_energy_positive(self, run):
        assert run.total_time_s > 0
        assert run.total_energy_j > 0
        assert 0 < run.avg_power_w < 120

    def test_viz_fraction_in_unit_range(self, run):
        assert 0 < run.viz_fraction < 1

    def test_caps_change_phase_behavior(self):
        sim = CloverLeaf(10)
        pipes = [Pipeline("viz").add(Threshold(field="energy"))]
        driver = InSituDriver(sim, pipes, steps_per_cycle=1)
        free = driver.run(1)
        sim2 = CloverLeaf(10)
        driver2 = InSituDriver(sim2, pipes, steps_per_cycle=1)
        capped = driver2.run(1, sim_cap_w=40.0, viz_cap_w=40.0)
        assert capped.cycles[0].sim_time_s > free.cycles[0].sim_time_s

    def test_validation(self):
        sim = CloverLeaf(8)
        with pytest.raises(ValueError):
            InSituDriver(sim, [], steps_per_cycle=1)
        with pytest.raises(ValueError):
            InSituDriver(sim, [Pipeline("x").add(Threshold())], steps_per_cycle=0)


class TestBudgetRuntime:
    @pytest.fixture(scope="class")
    def profiles(self, request):
        # Paper-like composition: the simulation dominates; the
        # visualization is ~10-20% of the job.
        sim_profile = step_profile(128**3, 200)
        from repro import api

        viz_profile = api.sweep_engine(n_cycles=10).profile_for("contour", 64)
        return sim_profile, viz_profile

    BUDGET = 140.0  # two sockets sharing a 140 W node budget

    def test_uniform_holds_budget(self, processor, profiles):
        sim, viz = profiles
        d = uniform_allocation(processor, sim, viz, self.BUDGET)
        assert d.cap_total_w <= self.BUDGET + 1e-6
        assert d.budget_used_w <= self.BUDGET + 1e-6
        assert d.sim_cap_w == d.viz_cap_w == self.BUDGET / 2

    def test_advisor_holds_budget(self, processor, profiles):
        sim, viz = profiles
        d = advisor_allocation(processor, sim, viz, self.BUDGET)
        assert d.cap_total_w <= self.BUDGET + 1e-6
        assert d.budget_used_w <= self.BUDGET + 1e-6

    def test_advisor_beats_uniform(self, processor, profiles):
        """The paper's headline use case: informed splitting finishes
        the job sooner than a naive uniform split."""
        sim, viz = profiles
        uni = uniform_allocation(processor, sim, viz, self.BUDGET)
        adv = advisor_allocation(processor, sim, viz, self.BUDGET)
        assert adv.makespan_s < uni.makespan_s

    def test_advisor_deep_caps_the_visualization(self, processor, profiles):
        sim, viz = profiles
        adv = advisor_allocation(processor, sim, viz, self.BUDGET)
        assert adv.viz_cap_w < self.BUDGET / 2
        assert adv.sim_cap_w > self.BUDGET / 2

    def test_viz_slowdown_within_tolerance(self, processor, profiles):
        sim, viz = profiles
        adv = advisor_allocation(processor, sim, viz, self.BUDGET, tolerance=0.10)
        base = processor.run(viz, processor.spec.tdp_watts)
        assert adv.viz.time_s <= base.time_s * 1.10 + 1e-9

    def test_budget_below_floor_rejected(self, processor, profiles):
        sim, viz = profiles
        with pytest.raises(ValueError, match="floor"):
            uniform_allocation(processor, sim, viz, 60.0)
