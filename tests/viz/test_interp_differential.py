"""Differential tests: the structure-of-arrays sampler against the
per-corner trilinear loop it replaced.

``_oracle_trilinear`` is that loop, kept here as a test-only oracle: one
``(m, 3)`` gather per corner, accumulated into a zeroed buffer.  The
sampler must reproduce its values bit for bit (compared by ``tobytes``)
and its ``inside`` mask exactly, for random, lattice, boundary-face and
out-of-grid positions, scalar and vector fields, and single queries.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import UniformGrid
from repro.viz import trilinear
from repro.viz.advection import _unit
from repro.viz.interp import TrilinearSampler

GRIDS = (
    UniformGrid.cube(6),
    UniformGrid(cell_dims=(4, 3, 5), origin=(-0.5, 0.25, 1.0), spacing=(0.3, 0.125, 0.7)),
)


def _oracle_trilinear(grid, values, positions):
    """The per-corner trilinear loop, verbatim in its arithmetic."""
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    lat = grid.world_to_lattice(positions)
    dims = np.asarray(grid.cell_dims, dtype=np.float64)
    inside = np.all((lat >= 0.0) & (lat <= dims), axis=1)
    cell = np.minimum(np.floor(lat), dims - 1.0)
    cell = np.maximum(cell, 0.0).astype(np.int64)
    frac = np.clip(lat - cell, 0.0, 1.0)
    px, py, _ = grid.point_dims
    i, j, k = cell[:, 0], cell[:, 1], cell[:, 2]
    base = i + px * (j + py * k)
    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    wx = np.stack([1.0 - fx, fx], axis=1)
    wy = np.stack([1.0 - fy, fy], axis=1)
    wz = np.stack([1.0 - fz, fz], axis=1)
    vec = values.ndim == 2
    out = np.zeros((positions.shape[0], 3) if vec else (positions.shape[0],))
    for dz in (0, 1):
        for dy in (0, 1):
            for dx in (0, 1):
                pid = base + dx + px * (dy + py * dz)
                w = wx[:, dx] * wy[:, dy] * wz[:, dz]
                out += (w[:, None] if vec else w) * values[pid]
    out[~inside] = 0.0
    return out, inside


def _field(grid, seed, vector, neg_zero_share=0.0):
    rng = np.random.default_rng(seed)
    shape = (grid.n_points, 3) if vector else (grid.n_points,)
    # Mixed signs and magnitudes, so the corner sum's order shows in the
    # bits; -0.0 entries show whether the sum starts from +0.0.
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    values[rng.random(shape) < neg_zero_share] = -0.0
    return values


def _axis_coord(grid, axis):
    lo, hi = (float(b) for b in grid.bounds[axis])
    o, s, d = grid.origin[axis], grid.spacing[axis], grid.cell_dims[axis]
    return st.one_of(
        st.floats(lo - 2 * s, hi + 2 * s),                      # in and around the grid
        st.integers(-1, d + 1).map(lambda i: o + i * s),        # lattice planes
        st.sampled_from([lo, hi, -0.0]),                        # boundary faces
        st.floats(allow_nan=False, allow_infinity=False),       # anywhere, far outside
    )


@st.composite
def _case(draw):
    grid = draw(st.sampled_from(GRIDS))
    point = st.tuples(*(_axis_coord(grid, a) for a in range(3)))
    positions = np.array(draw(st.lists(point, min_size=1, max_size=12)), dtype=np.float64)
    seed, vector = draw(st.integers(0, 2**32 - 1)), draw(st.booleans())
    return grid, positions, (seed, vector, draw(st.sampled_from([0.0, 0.5, 1.0])))


def _assert_same(got, want):
    (out, inside), (ref, ref_inside) = got, want
    assert out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()
    np.testing.assert_array_equal(inside, ref_inside)


@settings(max_examples=300, deadline=None)
@given(_case())
def test_sampler_matches_per_corner_loop_bitwise(case):
    grid, positions, field = case
    values = _field(grid, *field)
    with np.errstate(over="ignore"):   # far-away queries overflow the lattice transform
        _assert_same(trilinear(grid, values, positions), _oracle_trilinear(grid, values, positions))


@pytest.mark.parametrize("vector", [False, True])
def test_single_query_sums_corners_in_order(vector):
    """A lone query must not fall into NumPy's pairwise summation.

    With these corner values, adding in order cancels to 0 while a
    pairwise sum keeps the small terms.
    """
    grid = UniformGrid.cube(1)
    corners = np.array([1e16, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1e16])
    values = np.stack([corners] * 3, axis=1) if vector else corners
    for m in (1, 2):
        q = np.full((m, 3), 0.5)
        got = trilinear(grid, values, q)
        _assert_same(got, _oracle_trilinear(grid, values, q))
        assert not got[0].any()


@pytest.mark.parametrize("vector", [False, True])
def test_corner_sum_starts_from_positive_zero(vector):
    grid = GRIDS[0]
    values = _field(grid, 1, vector, neg_zero_share=1.0)
    q = np.random.default_rng(4).random((5, 3))
    got = trilinear(grid, values, q)
    _assert_same(got, _oracle_trilinear(grid, values, q))
    assert not np.signbit(got[0]).any()


@pytest.mark.parametrize("vector", [False, True])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_non_finite_positions_are_outside(vector, bad, axis):
    grid = GRIDS[1]
    values = _field(grid, 3, vector)
    rng = np.random.default_rng(5)
    q = grid.origin + rng.random((9, 3)) * (grid.bounds[:, 1] - grid.bounds[:, 0])
    q[::2, axis] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no NaN may reach an integer index
        out, inside = trilinear(grid, values, q)
    assert not inside[::2].any() and inside[1::2].all()
    assert out[::2].tobytes() == np.zeros_like(out[::2]).tobytes()
    # The finite queries keep every bit.
    _assert_same((out[1::2], inside[1::2]), _oracle_trilinear(grid, values, q[1::2]))


def test_sampler_soa_layout_matches_wrapper():
    grid = GRIDS[1]
    values = _field(grid, 11, True)
    q = np.random.default_rng(2).random((40, 3))
    out, inside = TrilinearSampler(grid, values)(np.ascontiguousarray(q.T))
    ref, ref_inside = trilinear(grid, values, q)
    assert out.shape == (3, 40)
    assert out.T.tobytes() == ref.tobytes()
    np.testing.assert_array_equal(inside, ref_inside)


def _oracle_unit(v):
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    return np.divide(v, norm, out=np.zeros_like(v), where=norm > 1e-300)


_vectors = st.lists(
    st.tuples(*[st.floats(-1e150, 1e150)] * 3), min_size=1, max_size=20
).map(lambda rows: np.array(rows, dtype=np.float64))


@settings(max_examples=200, deadline=None)
@given(_vectors)
def test_unit_matches_linalg_norm_bitwise(v):
    x, y, z = v.T
    assert np.sqrt((x * x + y * y) + z * z).tobytes() == np.linalg.norm(v, axis=1).tobytes()
    assert _unit(np.ascontiguousarray(v.T)).T.tobytes() == _oracle_unit(v).tobytes()


def test_unit_norm_on_many_vectors():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((200_000, 3)) * 10.0 ** rng.integers(-5, 6, (200_000, 3))
    x, y, z = v.T
    assert np.sqrt((x * x + y * y) + z * z).tobytes() == np.linalg.norm(v, axis=1).tobytes()
    assert _unit(np.ascontiguousarray(v.T)).T.tobytes() == _oracle_unit(v).tobytes()
