"""Golden-ledger equivalence guard.

The extraction kernels were optimized (interval culling, shared gather
caches, lattice classification, active-set compaction) under the
contract that the *measured work* — the op-count ledger, and hence every
WorkProfile, RunPoint, table, and figure — stays bitwise identical.
``tests/golden/ledgers.json`` and ``geometry.json`` were recorded from
the pre-optimization kernels; these tests pin the optimized kernels to
them exactly (ledgers) and to tolerance (geometry, whose emission order
legitimately changed).

``REPRO_MAX_SIZE`` skips the sizes it excludes, so CI at 32 runs the
32³ entries only while the full tier-1 run covers 64³ too.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.profiles import profile_from_ledger, run_algorithm_ledger
from repro.core.runner import make_run_point
from repro.core.study import POWER_CAPS_W

_GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
_LEDGERS = json.loads((_GOLDEN_DIR / "ledgers.json").read_text())
_GEOMETRY = json.loads((_GOLDEN_DIR / "geometry.json").read_text())


def _skip_if_capped(size: int) -> None:
    raw = os.environ.get("REPRO_MAX_SIZE", "").strip()
    if raw and size > int(raw):
        pytest.skip(f"REPRO_MAX_SIZE={raw} excludes {size}^3")


@pytest.mark.parametrize("key", sorted(_LEDGERS["entries"]))
def test_ledger_bitwise_identical(key):
    """Optimized kernels reproduce the recorded ledgers exactly."""
    algorithm, size = key.split("/")
    _skip_if_capped(int(size))
    fresh = run_algorithm_ledger(
        algorithm,
        int(size),
        dataset_kind=_LEDGERS["dataset_kind"],
        seed=_LEDGERS["seed"],
    )
    golden = _LEDGERS["entries"][key]
    assert fresh == golden, {
        k: (golden.get(k), fresh.get(k))
        for k in sorted(set(fresh) | set(golden))
        if fresh.get(k) != golden.get(k)
    }


def test_runpoints_identical_through_ledger(processor):
    """Identical ledgers price to identical RunPoints (the full chain)."""
    default_cap, capped = max(POWER_CAPS_W), min(POWER_CAPS_W)
    for algorithm in ("contour", "clip"):
        golden = _LEDGERS["entries"][f"{algorithm}/32"]
        fresh = run_algorithm_ledger(algorithm, 32)
        points = []
        for ledger in (golden, fresh):
            profile = profile_from_ledger(algorithm, 32, ledger, n_cycles=3)
            base = processor.run(profile, default_cap)
            run = processor.run(profile, capped)
            points.append(make_run_point(algorithm, 32, capped, run, base, default_cap))
        assert points[0] == points[1]


class TestGoldenGeometry:
    """Output geometry matches the pre-optimization path to tolerance.

    Emission order changed (batched tet cuts group by case, not by tet
    slot), so the stats compared are order-insensitive: counts, per-axis
    coordinate sums, bounds, and exact volumes.
    """

    @pytest.fixture(scope="class")
    def dataset(self):
        from repro.data.generators import make_dataset

        return make_dataset(32, kind=_GEOMETRY["dataset_kind"], seed=_GEOMETRY["seed"])

    def _check_points(self, key, points):
        ref = _GEOMETRY["entries"][key]
        pts = np.asarray(points, dtype=np.float64)
        assert pts.shape[0] == ref["n_points"]
        np.testing.assert_allclose(pts.sum(axis=0), ref["coord_sum"], rtol=1e-9)
        np.testing.assert_allclose(pts.min(axis=0), ref["bbox_lo"], atol=1e-12)
        np.testing.assert_allclose(pts.max(axis=0), ref["bbox_hi"], atol=1e-12)
        return ref

    def test_contour(self, dataset):
        from repro.viz import Contour

        mesh = Contour(keep_output=True).execute(dataset).output
        ref = self._check_points("contour/32", mesh.points)
        assert mesh.n_triangles == ref["n_triangles"]

    def test_clip(self, dataset):
        from repro.viz import SphericalClip

        out = SphericalClip(keep_output=True).execute(dataset).output
        ref = self._check_points("clip/32", out.cut.points)
        assert out.cut.n_tets == ref["n_tets"]
        assert out.kept.n_cells == ref["kept_cells"]
        np.testing.assert_allclose(out.cut.total_volume(), ref["cut_volume"], rtol=1e-9)

    def test_isovolume(self, dataset):
        from repro.viz import Isovolume

        out = Isovolume(keep_output=True).execute(dataset).output
        ref = self._check_points("isovolume/32", out.cut.points)
        assert out.cut.n_tets == ref["n_tets"]
        assert out.kept.n_cells == ref["kept_cells"]
        np.testing.assert_allclose(out.cut.total_volume(), ref["cut_volume"], rtol=1e-9)

    def test_slice(self, dataset):
        from repro.viz import Slice

        mesh = Slice(keep_output=True).execute(dataset).output
        ref = self._check_points("slice/32", mesh.points)
        assert mesh.n_triangles == ref["n_triangles"]

    def test_advection(self, dataset):
        from repro.viz import ParticleAdvection

        lines = ParticleAdvection(n_seeds=512, n_steps=100).execute(dataset).output
        ref = self._check_points("advection/32", lines.points)
        assert len(lines.offsets) - 1 == ref["n_lines"]
        assert int(np.sum(lines.offsets)) == ref["offsets_sum"]
