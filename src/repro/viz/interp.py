"""Trilinear interpolation of point fields at arbitrary world positions.

One :class:`TrilinearSampler`, built once per field, serves particle
advection (velocity lookups) and volume rendering (scalar samples along
rays).  Queries are structure-of-arrays, ``(3, m)``, so every ufunc's
inner loop runs over the ``m`` queries, not over three coordinates.
"""

from __future__ import annotations

import numpy as np

from ..data.grid import UniformGrid

__all__ = ["TrilinearSampler", "trilinear"]


class TrilinearSampler:
    """Trilinear sampling of one point field, ``(n_points,)`` or ``(n_points, 3)``.

    ``sampler(positions)`` takes ``(3, m)`` world positions and returns
    ``(result, inside)``: ``result`` is ``(m,)`` or ``(3, m)``, zero where
    the in-bounds mask ``inside`` is False (non-finite queries included).
    Per query the weights are ``(wx * wy) * wz`` and the 8 corner terms
    are added one after another, x fastest then y then z, onto ``+0.0``.
    """

    def __init__(self, grid: UniformGrid, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        self.vector = values.ndim == 2
        self._comps = [np.ascontiguousarray(c) for c in (values.T if self.vector else [values])]
        self._origin = np.asarray(grid.origin, dtype=np.float64)[:, None]
        self._spacing = np.asarray(grid.spacing, dtype=np.float64)[:, None]
        self._dims = np.asarray(grid.cell_dims, dtype=np.float64)[:, None]
        px, py, _ = grid.point_dims
        self._linear = np.array([1.0, px, px * py])    # lattice (i, j, k) -> point id
        self._corners = np.array(
            [dx + px * (dy + py * dz) for dz in (0, 1) for dy in (0, 1) for dx in (0, 1)]
        )[:, None]

    def __call__(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = positions.shape[1]
        if m == 1:
            # NumPy sums a lone (8, 1) column pairwise; two stay sequential.
            out, inside = self(np.repeat(positions, 2, axis=1))
            return out[..., :1], inside[:1]
        lat = (positions - self._origin) / self._spacing
        clamped = np.minimum(np.maximum(lat, 0.0), self._dims)
        inside = (clamped == lat).all(axis=0)          # NaN compares unequal

        # Boundary points use the last cell with frac = 1; fmin also sends
        # NaN to a valid cell (its query is outside either way).
        cell = np.fmin(np.floor(clamped), self._dims - 1.0)
        weights = np.empty((2, 3, m))                  # [1 - frac, frac] per axis
        np.subtract(clamped, cell, out=weights[1])
        np.subtract(1.0, weights[1], out=weights[0])
        wx, wy, wz = weights[:, 0], weights[:, 1], weights[:, 2]
        w = (wz[:, None, None] * (wy[:, None] * wx[None])[None]).reshape(8, m)
        ids = (self._linear @ cell).astype(np.int64) + self._corners   # (8, m)

        out = np.empty((len(self._comps), m))
        terms = np.empty((8, m))
        for comp, row in zip(self._comps, out):
            comp.take(ids, out=terms, mode="clip")     # ids are in range
            terms *= w
            np.add.reduce(terms, axis=0, initial=0.0, out=row)
        out[:, ~inside] = 0.0
        return (out if self.vector else out[0]), inside


def trilinear(
    grid: UniformGrid, values: np.ndarray, positions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate ``values`` at ``(m, 3)`` world ``positions``.

    Returns ``(result, inside)``: ``result`` is ``(m,)`` or ``(m, 3)``,
    zero for out-of-bounds or non-finite queries; ``inside`` is the
    in-bounds mask.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    out, inside = TrilinearSampler(grid, values)(np.ascontiguousarray(positions.T))
    return (out.T if out.ndim == 2 else out), inside
