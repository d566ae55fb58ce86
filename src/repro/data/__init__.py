"""Dataset substrate: uniform grids, fields, meshes, and MC tables."""

from .fields import (
    Association,
    DataSet,
    Field,
    recenter_slab_to_cells,
    recenter_to_cells,
    recenter_to_points,
)
from .grid import HEX_CORNER_OFFSETS, UniformGrid, slab_corner_reduce
from .io import load_dataset, load_obj, save_dataset, save_obj
from .mc_tables import CUBE_TETS, MAX_TRIS_PER_CELL, McTables, get_tables
from .mesh import CellSubset, PolyLines, TetMesh, TriangleMesh
from .tiling import k_slabs, pick_tile_planes

__all__ = [
    "Association",
    "DataSet",
    "Field",
    "UniformGrid",
    "HEX_CORNER_OFFSETS",
    "CUBE_TETS",
    "MAX_TRIS_PER_CELL",
    "McTables",
    "get_tables",
    "TriangleMesh",
    "PolyLines",
    "CellSubset",
    "TetMesh",
    "recenter_to_points",
    "recenter_to_cells",
    "recenter_slab_to_cells",
    "slab_corner_reduce",
    "k_slabs",
    "pick_tile_planes",
    "save_obj",
    "load_obj",
    "save_dataset",
    "load_dataset",
]
