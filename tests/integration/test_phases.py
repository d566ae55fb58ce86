"""Integration: the three study phases through the experiment harness,
at smoke scale (REPRO_MAX_SIZE), exercising the exact code path the
benchmarks use — including the ledger cache round trip."""

import pytest

from repro import api
from repro.harness import result_to_csv, result_to_markdown


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache") / "counts.json"
    return api.harness(cache, n_cycles=3)


@pytest.fixture(autouse=True)
def smoke_scale(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_SIZE", "16")


class TestPhases:
    def test_phase1_shape(self, harness):
        r = harness.table1()
        assert len(r.points) == 9
        assert r.algorithms == ["contour"]

    def test_phase2_shape(self, harness):
        r = harness.table2()
        assert len(r.points) == 8 * 9
        assert len(r.algorithms) == 8

    def test_phase3_uses_capped_sizes(self, harness):
        r = harness.phase3()
        assert r.sizes == [16]
        assert len(r.points) == 8 * 9

    def test_table3_substitutes_cap(self, harness):
        r = harness.table3()
        assert r.sizes == [16]

    def test_results_are_cache_stable(self, harness):
        """A second harness over the same cache reproduces the sweep."""
        a = harness.table1()
        b = api.harness(harness.cache_path, n_cycles=3).table1()
        for pa, pb in zip(a.points, b.points):
            assert pa.time_s == pytest.approx(pb.time_s, rel=1e-12)
            assert pa.power_w == pytest.approx(pb.power_w, rel=1e-12)

    def test_emitters_accept_phase_output(self, harness):
        r = harness.table2()
        csv = result_to_csv(r)
        assert csv.count("\n") == 1 + len(r.points)
        md = result_to_markdown(r, size=16)
        assert md.count("|") > 20
