"""Volume rendering: ray marching with front-to-back compositing.

Per the paper: rays step through the volume sampling scalar values at
regular intervals; each sample maps through a transfer function to a
color with transparency, and samples blend along the ray.  Image-order,
FP-dense, the highest-IPC algorithm in the study; its IPC *falls* as the
dataset grows (Fig. 5) because the trilinear sampling's working set is
the whole scalar field, which stops fitting the LLC at 256³ — a capacity
effect the cache model produces without any per-size knob.
"""

from __future__ import annotations

import numpy as np

from ..data.fields import DataSet
from ..workload import WorkSegment
from .base import Filter, OpCounts, segment_from_cost
from .costs import COSTS
from .interp import TrilinearSampler
from .render import ColorMap, Image, orbit_cameras

__all__ = ["VolumeRenderer"]


class VolumeRenderer(Filter):
    """Ray-marched volume renderer over an orbit image database.

    ``n_images`` are rendered for real; the profile is scaled to the
    study's ``images_per_cycle`` (default 50) since orbit views cost
    the same on average.
    """

    name = "volume"
    n_worklets = 3.0  # rays + march + composite

    def __init__(
        self,
        field: str = "energy",
        *,
        n_images: int = 2,
        images_per_cycle: int = 50,
        resolution: tuple[int, int] = (128, 128),
        samples_per_cell: float = 2.0,
        opacity: float = 0.06,
        early_termination: float = 0.98,
    ):
        if n_images < 1 or images_per_cycle < n_images:
            raise ValueError("need 1 <= n_images <= images_per_cycle")
        if samples_per_cell <= 0:
            raise ValueError("samples_per_cell must be positive")
        self.field = field
        self.n_images = int(n_images)
        self.images_per_cycle = int(images_per_cycle)
        self.resolution = (int(resolution[0]), int(resolution[1]))
        self.samples_per_cell = float(samples_per_cell)
        self.opacity = float(opacity)
        self.early_termination = float(early_termination)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "field": self.field,
            "n_images": self.n_images,
            "images_per_cycle": self.images_per_cycle,
            "resolution": self.resolution,
        }

    def _apply(self, dataset: DataSet, counts: OpCounts) -> list[Image]:
        grid = dataset.grid
        scal = dataset.point_field(self.field).values
        if scal.ndim != 1:
            raise ValueError("volume rendering requires a scalar field")
        lo, hi = float(scal.min()), float(scal.max())
        span = hi - lo if hi > lo else 1.0
        cmap = ColorMap()

        bounds = grid.bounds
        step = float(min(grid.spacing)) / self.samples_per_cell
        w, h = self.resolution
        sample = TrilinearSampler(grid, scal)
        images: list[Image] = []
        for cam in orbit_cameras(bounds, self.n_images):
            origins, dirs = cam.rays(w, h)
            img = self._march(sample, origins, dirs, bounds, step, lo, span, cmap, counts)
            images.append(Image(img.reshape(h, w, 3)))
        counts.add("rays", self.n_images * w * h)
        return images

    def _march(self, sample, origins, dirs, bounds, step, lo, span, cmap, counts) -> np.ndarray:
        n = origins.shape[0]
        # Slab test: entry/exit parameters against the volume AABB.
        with np.errstate(divide="ignore"):
            inv = np.where(np.abs(dirs) > 1e-300, 1.0 / dirs, np.copysign(1e300, dirs))
        t1 = (bounds[:, 0][None, :] - origins) * inv
        t2 = (bounds[:, 1][None, :] - origins) * inv
        tnear = np.maximum(np.minimum(t1, t2).max(axis=1), 0.0)
        tfar = np.maximum(t1, t2).min(axis=1)

        color = np.zeros((n, 3))
        alpha = np.zeros(n)
        t = tnear + 0.5 * step
        # Active-set compaction: carry the dense index array of marching
        # rays and shrink it in place, instead of re-deriving it from a
        # boolean mask with nonzero + scattered fancy indexing each step.
        rows = np.nonzero(t < tfar)[0]
        origins_soa, dirs_soa = origins.T.copy(), dirs.T.copy()   # (3, n) for the sampler
        while rows.size:
            s, _ = sample(origins_soa[:, rows] + t[rows] * dirs_soa[:, rows])
            counts.add("samples", rows.size)

            tn = (s - lo) / span
            rgb = cmap(tn)
            a = self.opacity * tn  # scalar-proportional opacity ramp
            # Front-to-back "over" compositing.
            trans = (1.0 - alpha[rows])[:, None]
            color[rows] += trans * (a[:, None] * rgb)
            alpha[rows] += (1.0 - alpha[rows]) * a

            t[rows] += step
            rows = rows[(t[rows] < tfar[rows]) & (alpha[rows] < self.early_termination)]
        # Composite over a dark background.
        bg = np.array([0.08, 0.08, 0.10])
        return color + (1.0 - alpha)[:, None] * bg

    def _segments(self, dataset: DataSet, counts: OpCounts) -> list[WorkSegment]:
        grid = dataset.grid
        scale = self.images_per_cycle / self.n_images
        sa = COSTS[("volume", "sample")]
        samples = counts["samples"] * scale
        field_bytes = float(grid.n_points * 8)
        return [
            segment_from_cost(
                "march",
                samples,
                sa,
                # Adjacent rays sample adjacent cells, so most of the 8
                # corner fetches hit L1; ~1 new double per sample reaches
                # the memory system.
                bytes_read=samples * 10.0,
                bytes_written=counts["rays"] * 16.0 * scale,
                working_set_bytes=field_bytes,
            )
        ]
