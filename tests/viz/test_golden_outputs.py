"""Exact output pins for the trilinear-sampling kernels.

``tests/golden/geometry.json`` checks advection output only to a
tolerance.  ``tests/golden/outputs.json`` holds sha256 digests of the
full output bytes of :class:`ParticleAdvection` (streamline points and
offsets) and :class:`VolumeRenderer` (every image) at 32³ and 64³,
recorded from the per-corner trilinear loop, so any change to the
sampler's arithmetic that moves a single bit fails here.

``REPRO_MAX_SIZE`` skips the sizes it excludes, as in
``test_golden_ledgers.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.data.generators import make_dataset
from repro.viz import ParticleAdvection, VolumeRenderer

_PINS = json.loads((Path(__file__).resolve().parent.parent / "golden" / "outputs.json").read_text())


def _skip_if_capped(size: int) -> None:
    raw = os.environ.get("REPRO_MAX_SIZE", "").strip()
    if raw and size > int(raw):
        pytest.skip(f"REPRO_MAX_SIZE={raw} excludes {size}^3")


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _dataset(size: int):
    return make_dataset(size, kind=_PINS["dataset_kind"], seed=_PINS["seed"])


@pytest.mark.parametrize("size", [32, 64])
def test_advection_polylines_bitwise(size):
    _skip_if_capped(size)
    pin = _PINS["entries"][f"advection/{size}"]
    lines = ParticleAdvection().execute(_dataset(size)).output
    assert lines.n_lines == pin["n_lines"]
    assert lines.points.shape == (pin["n_points"], 3)
    assert lines.points.dtype == np.float64 and lines.offsets.dtype == np.int64
    assert _digest(lines.points, lines.offsets) == pin["sha256"]


@pytest.mark.parametrize("size", [32, 64])
def test_volume_images_bitwise(size):
    _skip_if_capped(size)
    pin = _PINS["entries"][f"volume/{size}"]
    images = VolumeRenderer().execute(_dataset(size)).output
    assert len(images) == pin["n_images"]
    assert all(img.rgb.dtype == np.float64 for img in images)
    assert _digest(*(img.rgb for img in images)) == pin["sha256"]
