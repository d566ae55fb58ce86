"""Contour: table-driven marching cubes over a point scalar field.

Mirrors the paper's setup: 10 isovalues per visualization cycle, each
producing an isosurface of the energy field.  The implementation is the
classic two-phase worklet structure (classify cells → generate
geometry), vectorized over cells and chunked so 256³ grids fit in
memory.  Lookup tables come from :mod:`repro.data.mc_tables`.

Per-cell corner intervals (min/max) are computed once per chunk and each
isovalue is tested against them, so only straddled cells reach the
8-corner case classification — a pure implementation optimization: the
op-count ledger records the same classify/active/triangle work as the
unculled two-phase pass (see ``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np

from ..data.fields import DataSet
from ..data.grid import HEX_CORNER_OFFSETS, corner_gather, slab_corner_reduce
from ..data.mc_tables import get_tables
from ..data.mesh import TriangleMesh
from ..data.tiling import k_slabs, pick_tile_planes
from ..workload import WorkSegment
from .base import Filter, OpCounts, segment_from_cost
from .costs import COSTS

__all__ = ["Contour", "default_isovalues"]

_CASE_WEIGHTS = 1 << np.arange(8)

#: Live working bytes per cell for one contour tile: the scalar slab
#: (8 B/point ≈ 8 B/cell), the cmin/cmax interval arrays (16 B), and the
#: per-isovalue mask/nonzero scratch.
_TILE_BYTES_PER_CELL = 48.0


def default_isovalues(lo: float, hi: float, n: int = 10) -> np.ndarray:
    """The paper's "10 different isovalues": evenly spaced strictly
    inside the field range (endpoints produce empty surfaces)."""
    return lo + (hi - lo) * (np.arange(1, n + 1) / (n + 1))


class Contour(Filter):
    """Marching-cubes isosurfaces at one or more isovalues.

    Parameters
    ----------
    field:
        Point scalar field name (cell fields are recentered).
    isovalues:
        Explicit isovalues; default is 10 values spanning the field
        range, as in the study.
    chunk_cells:
        Cells processed per vectorized batch (memory ceiling).
    keep_output:
        When False, geometry is counted but not accumulated — used by
        the large sweeps so a 256³ × 10-isovalue run does not hold
        gigabytes of triangles.
    """

    name = "contour"

    def __init__(
        self,
        field: str = "energy",
        isovalues: np.ndarray | list[float] | None = None,
        *,
        n_isovalues: int = 10,
        chunk_cells: int = 1 << 20,
        keep_output: bool = True,
    ):
        self.field = field
        self.isovalues = None if isovalues is None else np.asarray(isovalues, dtype=np.float64)
        self.n_isovalues = n_isovalues
        self.chunk_cells = int(chunk_cells)
        self.keep_output = keep_output
        if self.chunk_cells < 1:
            raise ValueError("chunk_cells must be positive")

    @property
    def n_worklets(self) -> float:  # classify + scan + generate, per isovalue
        n = self.n_isovalues if self.isovalues is None else len(self.isovalues)
        return 3.0 * n

    def describe(self) -> dict:
        return {
            "name": self.name,
            "field": self.field,
            "n_isovalues": self.n_isovalues if self.isovalues is None else len(self.isovalues),
        }

    # ------------------------------------------------------------------ run
    def _apply(self, dataset: DataSet, counts: OpCounts) -> TriangleMesh:
        grid = dataset.grid
        scalars = dataset.point_field(self.field).values
        if scalars.ndim != 1:
            raise ValueError("contour requires a scalar field")
        isovalues = self.isovalues
        if isovalues is None:
            lo, hi = float(scalars.min()), float(scalars.max())
            isovalues = default_isovalues(lo, hi, self.n_isovalues)

        nx, ny, nz = grid.cell_dims
        px, py = nx + 1, ny + 1
        lat = scalars.reshape(nz + 1, py, px)
        tables = get_tables()
        # Triangles per MC case — the counting fast path tallies these
        # instead of generating-then-discarding geometry.
        tri_counts = np.count_nonzero(tables.tri_edges[:, :, 0] >= 0, axis=1)
        spacing = np.asarray(grid.spacing)
        origin = np.asarray(grid.origin)
        corner_off = HEX_CORNER_OFFSETS.astype(np.float64) * spacing
        tile = pick_tile_planes(
            nx * ny, _TILE_BYTES_PER_CELL, n_planes=nz, ceiling_cells=self.chunk_cells
        )

        # Interval culling, tiled: per-cell corner min/max computed per
        # cache-sized k-slab as shifted-lattice reductions (no (n, 8)
        # gather), every isovalue tested while the slab's intervals are
        # still cache-hot.  A cell produces triangles iff its MC case is
        # neither 0 nor 255, i.e. iff some corner is > iso and some is
        # <= iso — exactly (cmin <= iso) & (cmax > iso) — so the active
        # set (and the ledger) is unchanged; only straddled cells reach
        # the 8-corner case classification and the generate gather.
        pts_chunks: list[np.ndarray] = []
        val_chunks: list[np.ndarray] = []
        for k0, k1 in k_slabs(0, nz, tile):
            kz = k1 - k0
            slab = lat[k0 : k1 + 1]
            cmin = slab_corner_reduce(slab, np.minimum)
            cmax = slab_corner_reduce(slab, np.maximum)
            slab_cells = kz * ny * nx
            cell_base = k0 * ny * nx
            base_l, strides = corner_gather((nx, ny, kz))
            point_base = k0 * px * py
            for iso in isovalues:
                counts.add("cells_classified", slab_cells)
                active = np.nonzero((cmin <= iso) & (cmax > iso))[0]
                counts.add("active_cells", active.size)
                if active.size == 0:
                    continue
                pids = (base_l[active] + point_base)[:, None] + strides[None, :]
                active_vals = scalars[pids]
                cases = (active_vals > iso) @ _CASE_WEIGHTS
                if self.keep_output:
                    i, j, k = grid.cell_ijk(active + cell_base)
                    origins = np.stack([i, j, k], axis=1) * spacing + origin
                    pts, vals = _generate(tables, cases, active_vals, origins, corner_off, iso)
                    counts.add("triangles", pts.shape[0] // 3)
                    pts_chunks.append(pts)
                    val_chunks.append(vals)
                else:
                    # Same triangle total the generate pass would emit,
                    # without materializing (then dropping) the geometry.
                    counts.add("triangles", int(tri_counts[cases].sum()))

        if not pts_chunks:
            return TriangleMesh.empty()
        points = np.vstack(pts_chunks)
        scalars_out = np.concatenate(val_chunks)
        triangles = np.arange(points.shape[0], dtype=np.int64).reshape(-1, 3)
        return TriangleMesh(points, triangles, scalars_out)

    # ------------------------------------------------------------- profile
    def _segments(self, dataset: DataSet, counts: OpCounts) -> list[WorkSegment]:
        grid = dataset.grid
        field_bytes = float(grid.n_points * 8)
        n_iso = counts["cells_classified"] / max(grid.n_cells, 1)

        classify = COSTS[("contour", "classify")]
        generate = COSTS[("contour", "generate")]
        tris = counts["triangles"]
        active = counts["active_cells"]

        seg_classify = segment_from_cost(
            "classify",
            counts["cells_classified"],
            classify,
            bytes_read=field_bytes * n_iso,
            bytes_written=grid.n_cells * 1.0 * n_iso,  # one stencil byte per cell
            working_set_bytes=field_bytes,
            reuse_passes=max(n_iso, 1.0),
        )
        seg_generate = segment_from_cost(
            "generate",
            active,
            generate,
            bytes_read=active * 8.0 * 8,          # corner re-gathers for interp
            bytes_written=tris * 3 * 32.0,        # positions + scalars + indices
            working_set_bytes=active * 64.0,
        )
        return [seg_classify, seg_generate]


def _generate(
    tables, cases: np.ndarray, corner_vals: np.ndarray, origins: np.ndarray,
    corner_off: np.ndarray, iso: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Emit interpolated triangle vertices for the active cells.

    Returns ``(points, scalars)`` with ``points`` of shape ``(3t, 3)``
    laid out triangle-major (rows 3i..3i+2 are one triangle).
    """
    te = tables.tri_edges[cases]                       # (na, 12, 3)
    valid = te[:, :, 0] >= 0                           # (na, 12)
    cell_rows, _ = np.nonzero(valid)                   # (nt,)
    eids = te[valid]                                   # (nt, 3)

    endpoints = tables.edges[eids]                     # (nt, 3, 2)
    u, v = endpoints[..., 0], endpoints[..., 1]
    rows = cell_rows[:, None]
    su = corner_vals[rows, u]
    sv = corner_vals[rows, v]
    t = (iso - su) / (sv - su)

    pu = corner_off[u] + origins[cell_rows][:, None, :]
    pv = corner_off[v] + origins[cell_rows][:, None, :]
    pts = pu + t[..., None] * (pv - pu)                # (nt, 3, 3)
    vals = np.full(pts.shape[0] * 3, iso)
    return pts.reshape(-1, 3), vals
