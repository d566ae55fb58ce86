"""Particle advection: RK4 streamlines through a steady vector field.

Per the paper: massless particles are seeded throughout the dataset and
advected a fixed number of steps through a single time step's velocity
field, outputting streamlines.  Seed count, step length, and step count
are held constant regardless of dataset size (the study does the same,
which is why particles fall out of small grids early and why advection's
IPC is flat across sizes — Fig. 6).

RK4 is the fourth-order Runge–Kutta integrator the paper names: four
velocity evaluations per step, FP-dense, the most compute-intensive and
power-hungry algorithm in the set.
"""

from __future__ import annotations

import numpy as np

from ..data.fields import DataSet
from ..data.mesh import PolyLines
from ..workload import WorkSegment
from .base import Filter, OpCounts, segment_from_cost
from .costs import COSTS
from .interp import TrilinearSampler

__all__ = ["ParticleAdvection", "seed_grid"]


def seed_grid(bounds: np.ndarray, n_seeds: int, *, margin: float = 0.15) -> np.ndarray:
    """Deterministic lattice of ~``n_seeds`` seeds inside the bounds."""
    bounds = np.asarray(bounds, dtype=np.float64)
    per_axis = max(1, int(round(n_seeds ** (1.0 / 3.0))))
    pad = margin * (bounds[:, 1] - bounds[:, 0])
    axes = np.linspace(bounds[:, 0] + pad, bounds[:, 1] - pad, per_axis, axis=1)
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


class ParticleAdvection(Filter):
    """Advect seeded particles with RK4; outputs streamlines.

    Defaults follow the study's constant-across-sizes policy: the step
    length and step count are fixed in *world* units (sized for the
    128³ reference grid), not per-cell units.
    """

    name = "advection"
    n_worklets = 2.0  # seed + advect

    def __init__(
        self,
        field: str = "velocity",
        *,
        n_seeds: int = 4096,
        n_steps: int = 1500,
        step_length: float | None = None,
    ):
        if n_seeds < 1 or n_steps < 1:
            raise ValueError("n_seeds and n_steps must be positive")
        self.field = field
        self.n_seeds = int(n_seeds)
        self.n_steps = int(n_steps)
        self.step_length = step_length

    def describe(self) -> dict:
        return {
            "name": self.name,
            "field": self.field,
            "n_seeds": self.n_seeds,
            "n_steps": self.n_steps,
        }

    def _apply(self, dataset: DataSet, counts: OpCounts) -> PolyLines:
        grid = dataset.grid
        vel = dataset.point_field(self.field).values
        if vel.ndim != 2:
            raise ValueError("advection requires a vector field")
        # Fixed step in world units: 1/256 of the diagonal (≈ half a cell
        # on the 128³ reference), matching the study's constant policy.
        h = self.step_length if self.step_length is not None else grid.diagonal / 256.0

        # Particles stay in (3, m) layout.  Each step's k1 is sampled at
        # the previous step's new positions, and that sample's inside mask
        # is the liveness test.  Velocity is normalized so the step length
        # controls displacement (streamline geometry is the output).
        sample = TrilinearSampler(grid, vel)
        seeds = seed_grid(grid.bounds, self.n_seeds)
        history = np.empty((self.n_steps + 1, *seeds.T.shape))
        p = history[0] = seeds.T
        lengths = np.empty(len(seeds), dtype=np.int64)  # points per line, set when it ends
        ids = np.arange(len(seeds))                      # particles still alive
        k1, inside = sample(p)
        n_done = 0
        while n_done < self.n_steps and ids.size:
            k2, _ = sample(p + 0.5 * h * _unit(k1))
            k3, _ = sample(p + 0.5 * h * _unit(k2))
            k4, _ = sample(p + h * _unit(k3))
            counts.add("interp_evals", 4 * ids.size)
            counts.add("steps", ids.size)
            step = (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
            p = p + h * _unit(step)
            n_done += 1
            history[n_done][:, ids] = p
            k1, inside_new = sample(p)
            still = inside & inside_new
            if not still.all():
                lengths[ids[~still]] = n_done
                ids, p, k1, inside_new = ids[still], p[:, still], k1[:, still], inside_new[still]
            inside = inside_new
        lengths[ids] = n_done + 1
        # Particle-major lines: particle i's first lengths[i] recorded points.
        keep = np.arange(n_done + 1)[None, :] < lengths[:, None]
        pts = np.empty((int(lengths.sum()), 3))
        for c in range(3):
            pts[:, c] = history[: n_done + 1, c].T[keep]
        return PolyLines(pts, np.concatenate([[0], np.cumsum(lengths)]))

    def _segments(self, dataset: DataSet, counts: OpCounts) -> list[WorkSegment]:
        grid = dataset.grid
        step = COSTS[("advection", "step")]
        steps = counts["steps"]
        # Footprint: cells visited along trajectories, bounded by the field.
        vel_bytes = float(grid.n_points * 8 * 3)
        touched = min(vel_bytes, steps * 64.0)
        return [
            segment_from_cost(
                "advect",
                steps,
                step,
                # ~1 *new* cache line per half-cell step (the four RK4
                # evaluations hit the same corners, which stay in L1).
                bytes_read=steps * 64.0,
                bytes_written=steps * 24.0,       # appended positions
                working_set_bytes=touched,
            )
        ]


def _unit(v: np.ndarray) -> np.ndarray:
    """Unit columns of ``v`` (3, m), zero where the norm vanishes.  The left-
    to-right norm ``(x*x + y*y) + z*z`` is bitwise ``np.linalg.norm``'s."""
    x, y, z = v
    norm = np.sqrt((x * x + y * y) + z * z)
    return np.divide(v, norm, out=np.zeros_like(v), where=norm > 1e-300)
