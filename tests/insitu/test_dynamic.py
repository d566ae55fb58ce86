"""Dynamic per-cycle power reallocation runtime."""

import numpy as np
import pytest

from repro import api
from repro.cloverleaf import step_profile
from repro.insitu import (
    DynamicPowerRuntime,
    DynamicRunResult,
    SignalTrace,
    advisor_allocation,
    parse_governor,
    uniform_allocation,
)


@pytest.fixture(scope="module")
def profiles():
    sim = step_profile(64**3, 400)
    viz = api.sweep_engine(n_cycles=4).profile_for("contour", 64)
    return sim, viz


BUDGET = 140.0


class TestDynamicRuntime:
    def test_runs_requested_cycles(self, processor, profiles):
        sim, viz = profiles
        rt = DynamicPowerRuntime(processor, BUDGET)
        res = rt.run(sim, viz, 5)
        assert len(res.cycles) == 5

    def test_caps_respect_budget_every_cycle(self, processor, profiles):
        sim, viz = profiles
        res = DynamicPowerRuntime(processor, BUDGET).run(*profiles, n_cycles=5)
        for c in res.cycles:
            assert c.sim_cap_w + c.viz_cap_w <= BUDGET + 1e-6

    def test_converges_toward_advisor_split(self, processor, profiles):
        """With a stationary workload the feedback controller should end
        up feeding the hungry simulation like the static advisor does."""
        sim, viz = profiles
        res = DynamicPowerRuntime(processor, BUDGET).run(sim, viz, 6)
        adv = advisor_allocation(processor, sim, viz, BUDGET)
        sim_cap, viz_cap = res.final_caps()
        assert sim_cap >= adv.sim_cap_w - 10.0
        assert viz_cap <= adv.viz_cap_w + 15.0

    def test_beats_static_uniform_after_first_cycle(self, processor, profiles):
        sim, viz = profiles
        res = DynamicPowerRuntime(processor, BUDGET).run(sim, viz, 4)
        uni = uniform_allocation(processor, sim, viz, BUDGET)
        # Cycle 0 *is* the uniform split; later cycles should be faster.
        assert res.cycles[0].makespan_s == pytest.approx(uni.makespan_s, rel=1e-9)
        assert res.cycles[-1].makespan_s < res.cycles[0].makespan_s

    def test_caps_stabilize(self, processor, profiles):
        sim, viz = profiles
        res = DynamicPowerRuntime(processor, BUDGET).run(sim, viz, 6)
        a, b = res.cycles[-2], res.cycles[-1]
        assert a.sim_cap_w == pytest.approx(b.sim_cap_w, abs=6.0)
        assert a.viz_cap_w == pytest.approx(b.viz_cap_w, abs=6.0)

    def test_decide_oversubscribed_scales_down(self, processor):
        rt = DynamicPowerRuntime(processor, 100.0)
        sim_cap, viz_cap = rt.decide(90.0, 80.0)
        assert sim_cap + viz_cap <= 100.0 + 1e-6
        assert sim_cap > viz_cap  # proportional to demand

    def test_budget_validation(self, processor):
        with pytest.raises(ValueError, match="floor"):
            DynamicPowerRuntime(processor, 50.0)
        with pytest.raises(ValueError):
            DynamicPowerRuntime(processor, 140.0).run(
                step_profile(1000, 1), step_profile(1000, 1), 0
            )


class TestDecideCapArithmetic:
    """Regression: the surplus hand-off must never push the pair over
    the node budget (the floor clamp used to bounce ``budget - sim_cap``
    back *up* past the remainder) nor crash when budget > TDP leaves a
    non-positive remainder for ``validate_cap``."""

    def test_caps_within_budget_across_randomized_grid(self, processor):
        rng = np.random.default_rng(1234)
        tdp = processor.spec.tdp_watts
        floor = processor.spec.rapl_floor_watts
        # Budgets from just above the 2-socket floor to well past TDP
        # (the budget > TDP rows are the ones that used to raise).
        for budget in np.linspace(2 * floor + 1.0, 2 * tdp, 9):
            rt = DynamicPowerRuntime(processor, float(budget))
            draws = rng.uniform(1.0, tdp + 20.0, size=(40, 2))
            for sim_draw, viz_draw in draws:
                sim_cap, viz_cap = rt.decide(float(sim_draw), float(viz_draw))
                assert sim_cap + viz_cap <= budget + 1e-9
                assert sim_cap >= floor and viz_cap >= floor

    def test_surplus_handoff_keeps_floor_headroom(self, processor):
        # A starved viz phase hands its surplus to the hungry sim; the
        # old arithmetic let sim's clamp eat into viz's floor share.
        rt = DynamicPowerRuntime(processor, 100.0)
        sim_cap, viz_cap = rt.decide(85.0, 2.0)
        assert sim_cap + viz_cap <= 100.0 + 1e-9
        assert viz_cap >= processor.spec.rapl_floor_watts

    def test_budget_above_tdp_does_not_raise(self, processor):
        # budget 240 with a 120 W-draw sim used to make the remainder
        # -125 W and crash validate_cap mid-run.
        rt = DynamicPowerRuntime(processor, 2 * processor.spec.tdp_watts)
        sim_cap, viz_cap = rt.decide(processor.spec.tdp_watts, 1.0)
        assert sim_cap + viz_cap <= 2 * processor.spec.tdp_watts + 1e-9

    def test_run_respects_budget_with_hungry_sim(self, processor):
        sim = step_profile(64**3, 200)
        res = DynamicPowerRuntime(processor, 90.0).run(sim, step_profile(16**3, 5), 4)
        for c in res.cycles:
            assert c.sim_cap_w + c.viz_cap_w <= 90.0 + 1e-9

    def test_explicit_budget_below_floor_rejected(self, processor):
        rt = DynamicPowerRuntime(processor, 140.0)
        with pytest.raises(ValueError, match="floor"):
            rt.decide(50.0, 50.0, budget_w=60.0)


class TestFinalCapsEmptyRun:
    def test_empty_run_raises_value_error(self):
        with pytest.raises(ValueError, match="no cycles recorded"):
            DynamicRunResult().final_caps()

    def test_populated_run_still_works(self, processor, profiles):
        res = DynamicPowerRuntime(processor, BUDGET).run(*profiles, n_cycles=2)
        sim_cap, viz_cap = res.final_caps()
        assert sim_cap > 0 and viz_cap > 0


class TestGovernedDynamicRuntime:
    def test_governor_rescales_budget_per_cycle(self, processor, profiles):
        gov = parse_governor("const:0.7")
        rt = DynamicPowerRuntime(
            processor, 200.0, governor=gov, signal_trace=SignalTrace.constant(0.0)
        )
        res = rt.run(*profiles, n_cycles=3)
        for c in res.cycles:
            assert c.budget_w == pytest.approx(140.0)
            assert c.sim_cap_w + c.viz_cap_w <= c.budget_w + 1e-9

    def test_governed_budget_never_below_two_socket_floor(self, processor, profiles):
        # A 0.25 fraction of 170 W is under the 80 W floor; the runtime
        # must clamp rather than crash.
        gov = parse_governor("const:0.25")
        rt = DynamicPowerRuntime(
            processor, 170.0, governor=gov, signal_trace=SignalTrace.constant(0.0)
        )
        res = rt.run(*profiles, n_cycles=2)
        floor = 2 * processor.spec.rapl_floor_watts
        for c in res.cycles:
            assert c.budget_w >= floor
            assert c.sim_cap_w + c.viz_cap_w <= c.budget_w + 1e-9

    def test_no_governor_matches_static_budget(self, processor, profiles):
        plain = DynamicPowerRuntime(processor, BUDGET).run(*profiles, n_cycles=3)
        assert all(c.budget_w == BUDGET for c in plain.cycles)

    def test_governor_requires_trace(self, processor):
        with pytest.raises(ValueError, match="together"):
            DynamicPowerRuntime(processor, BUDGET, governor=parse_governor("const:0.8"))
