"""Tests for timing at reference speed.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import pytest

import refspeed
from run import _reference_s


def test_calibrate_times_the_kernel():
    assert 0.0 < refspeed.calibrate() < 5.0


def test_fsync_latency_appends_to_the_probe(tmp_path):
    probe = tmp_path / "probe.bin"
    assert 0.0 < refspeed.fsync_latency(probe) < 5.0
    assert probe.stat().st_size == 8 * 256


def test_at_reference_returns_the_result_and_the_scales(monkeypatch, tmp_path):
    timings = iter([0.02, 0.03])
    syncs = iter([1e-3, 3e-3])
    monkeypatch.setattr(refspeed, "calibrate", lambda: next(timings))
    monkeypatch.setattr(refspeed, "fsync_latency", lambda path: next(syncs))
    result, scale, wait_scale, cal_s = refspeed.at_reference(lambda: "done", tmp_path / "p")
    assert result == "done"
    assert cal_s == pytest.approx(0.025)
    assert scale == pytest.approx(refspeed.REF_S / 0.025)
    assert wait_scale == pytest.approx(refspeed.FSYNC_REF_S / 2e-3)


def test_reference_wall_scales_busy_and_waiting_time_apart():
    assert refspeed.reference_wall(2.0, 1.5, 0.5, 0.1) == pytest.approx(0.75 + 0.05)
    # A pool's CPU time exceeds its wall: all of the wall was busy.
    assert refspeed.reference_wall(2.0, 3.5, 0.5, 0.1) == pytest.approx(1.0)


def test_reference_time_sums_the_median_of_each_piece():
    units = [[1.0, 10.0], [3.0, 30.0], [2.0, 20.0], [100.0, 25.0]]
    assert _reference_s(units) == pytest.approx(2.5 + 22.5)


def test_reference_time_of_single_piece_units_is_their_median():
    assert _reference_s([[0.3], [0.1], [0.2]]) == pytest.approx(0.2)
