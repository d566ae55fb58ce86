"""The ninth algorithm (histogram) and its out-of-sample classification."""

import numpy as np
import pytest

from repro.core import PowerClass, classify, predict_class
from repro.core.runner import RunPoint
from repro.core.metrics import Ratios
from repro.machine import Processor
from repro.viz import Histogram


class TestHistogram:
    def test_counts_partition_cells(self, blobs_ds):
        edges, hist = Histogram(field="energy").execute(blobs_ds).output
        assert hist.sum() == blobs_ds.grid.n_cells
        assert len(edges) == len(hist) + 1

    def test_bin_count_respected(self, blobs_ds):
        _, hist = Histogram(field="energy", n_bins=32).execute(blobs_ds).output
        assert len(hist) == 32

    def test_values_fall_in_their_bins(self, blobs_ds):
        edges, hist = Histogram(field="energy", n_bins=16).execute(blobs_ds).output
        values = blobs_ds.cell_field("energy").values
        ref, _ = np.histogram(values, bins=edges)
        np.testing.assert_array_equal(hist, ref)

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(n_bins=0)


class TestOutOfSampleClassification:
    """§VIII: classify an algorithm the study never measured."""

    @pytest.fixture(scope="class")
    def sweep(self, request):
        proc = Processor()
        ds = __import__("repro.data.generators", fromlist=["make_dataset"]).make_dataset(32)
        prof = Histogram(field="energy").execute(ds).profile
        base = proc.run(prof, 120.0)
        points = []
        for cap in range(120, 30, -10):
            r = proc.run(prof, float(cap))
            points.append(
                RunPoint(
                    algorithm="histogram",
                    size=32,
                    cap_w=float(cap),
                    time_s=r.time_s,
                    energy_j=r.energy_j,
                    power_w=r.avg_power_w,
                    freq_ghz=r.effective_freq_ghz,
                    ipc=r.ipc,
                    llc_miss_rate=r.llc_miss_rate,
                    ratios=Ratios.from_measurements(
                        cap_default_w=120.0,
                        cap_w=float(cap),
                        time_default_s=base.time_s,
                        time_s=r.time_s,
                        freq_default_ghz=base.effective_freq_ghz,
                        freq_ghz=r.effective_freq_ghz,
                    ),
                )
            )
        return points, proc.run(prof, 120.0)

    def test_sweep_classifies_as_opportunity(self, sweep):
        points, _ = sweep
        c = classify(points)
        assert c.power_class is PowerClass.OPPORTUNITY
        assert c.natural_power_w < 60.0

    def test_predictor_agrees_with_sweep(self, sweep):
        points, tdp_run = sweep
        assert predict_class(tdp_run).power_class is classify(points).power_class

    def test_more_data_bound_than_threshold(self, blobs_ds):
        """Histogram's IPC sits at or below threshold's (one pass, no
        compaction output)."""
        from repro.viz import Threshold

        proc = Processor()
        ipc = {}
        for f in (Histogram(field="energy"), Threshold(field="energy")):
            prof = f.execute(blobs_ds).profile
            ipc[f.name] = proc.run(prof, 120.0).ipc
        assert ipc["histogram"] <= ipc["threshold"] * 1.2
