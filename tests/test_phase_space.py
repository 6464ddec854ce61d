"""Grid and box-set behavior: point location, geometry, set algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dynkit.phase_space import BoxSet, Domain, Grid, GridMismatchError


def unit_square(periodic=False, depth=(1, 1)):
    return Grid(Domain((0.0, 0.0), (1.0, 1.0), (periodic, periodic)), depth)


class TestBoxOfPoint:
    def test_quadrant_containment(self):
        g = unit_square()
        assert g.box_of_point(np.array([0.1, 0.1])) == g.box_id((0, 0))

    def test_torus_wrap(self):
        g = unit_square(periodic=True)
        wrapped = g.box_of_point(np.array([1.2, 0.0]))
        assert wrapped == g.box_of_point(np.array([0.2, 0.0]))

    def test_outside_window(self):
        g = unit_square()
        assert g.box_of_point(np.array([2.0, 0.0])) is None

    def test_each_point_in_its_box(self):
        # box_geometry(box_of_point(p)) contains p after wrapping
        g = Grid(Domain((0.0, -1.0), (2.0, 1.0), (True, False)), (3, 4))
        rng = np.random.default_rng(7)
        pts = np.c_[rng.uniform(-3, 5, 200), rng.uniform(-1, 1, 200)]
        for p in pts:
            b = g.box_of_point(p)
            center, radius = g.box_geometry(b)
            wrapped = g.domain.wrap(p)
            assert np.all(np.abs(wrapped - center) <= radius + 1e-12)

    def test_vectorized_matches_scalar(self):
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (True, False)), (2, 3))
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.5, 1.5, size=(100, 2))
        vec = g.boxes_of_points(pts)
        for p, b in zip(pts, vec):
            scalar = g.box_of_point(p)
            assert (scalar is None and b == -1) or scalar == b


class TestBoxGeometry:
    def test_depth_one_center(self):
        g = unit_square()
        center, radius = g.box_geometry(g.box_id((0, 0)))
        assert np.allclose(center, [0.25, 0.25])
        assert np.allclose(radius, [0.25, 0.25])

    def test_depth_two_corner(self):
        g = unit_square(depth=(2, 2))
        center, _ = g.box_geometry(g.box_id((3, 3)))
        assert np.allclose(center, [0.875, 0.875])

    def test_anisotropic_window(self):
        g = Grid(Domain((0.0, 0.0), (2.0, 1.0), (False, False)), (1, 1))
        center, _ = g.box_geometry(g.box_id((1, 0)))
        assert np.allclose(center, [1.5, 0.25])

    def test_non_finite_width_refused(self):
        # -1e308 and 1e308 are finite, their distance is not
        for lo, hi in (((-1e308,), (1e308,)), ((0.0, -1e308), (1.0, 1e308))):
            with pytest.raises(ValueError, match="finite width"):
                Domain(lo, hi, (False,) * len(lo))

    def test_invalid_id(self):
        g = unit_square()
        with pytest.raises(IndexError):
            g.box_geometry(99)


class TestSetAlgebra:
    def test_union_identity(self):
        g = unit_square(depth=(3, 3))
        a = BoxSet.from_indices(g, [1, 5, 9])
        assert (a | BoxSet.empty(g)) == a

    def test_intersect_complement_empty(self):
        g = unit_square(depth=(3, 3))
        a = BoxSet.from_indices(g, range(0, 64, 3))
        assert len(a & a.complement()) == 0

    def test_inclusion_exclusion_on_random_sets(self):
        # oracle: plain python sets over the enumerated bits, depth-3 grid
        g = unit_square(depth=(3, 3))
        rng = np.random.default_rng(13)
        for _ in range(20):
            ia = set(int(i) for i in rng.integers(0, 64, 17))
            ib = set(int(i) for i in rng.integers(0, 64, 23))
            a = BoxSet.from_indices(g, ia)
            b = BoxSet.from_indices(g, ib)
            assert len(a | b) + len(a & b) == len(a) + len(b)
            assert set(a.indices()) == ia
            assert set((a | b).indices()) == ia | ib
            assert set((a & b).indices()) == ia & ib
            assert set((a - b).indices()) == ia - ib

    def test_grid_mismatch_rejected(self):
        a = BoxSet.empty(unit_square(depth=(2, 2)))
        b = BoxSet.empty(unit_square(depth=(3, 3)))
        with pytest.raises(GridMismatchError):
            _ = a | b

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 63), max_size=40),
           st.lists(st.integers(0, 63), max_size=40))
    def test_de_morgan(self, ia, ib):
        g = unit_square(depth=(3, 3))
        a = BoxSet.from_indices(g, ia)
        b = BoxSet.from_indices(g, ib)
        assert (a | b).complement() == (a.complement() & b.complement())
        assert (a & b).complement() == (a.complement() | b.complement())


class TestMorphologyAndSerialization:
    def test_dilate_erode_roundtrip_interior(self):
        g = Grid(Domain((0.0,), (1.0,), (False,)), (5,))
        a = BoxSet.from_indices(g, range(10, 20))
        assert a.dilate(1).erode(1) == a

    def test_erode_respects_window_edge(self):
        g = Grid(Domain((0.0,), (1.0,), (False,)), (3,))
        a = BoxSet.from_indices(g, [0, 1, 2])
        assert set(a.erode(1).indices()) == {1}

    def test_periodic_dilate_wraps(self):
        g = Grid(Domain((0.0,), (1.0,), (True,)), (3,))
        a = BoxSet.from_indices(g, [0])
        assert set(a.dilate(1).indices()) == {7, 0, 1}

    def test_boundary(self):
        g = Grid(Domain((0.0, 0.0), (1.0, 1.0), (False, False)), (3, 3))
        idx = [g.box_id((i, j)) for i in range(2, 6) for j in range(2, 6)]
        a = BoxSet.from_indices(g, idx)
        interior = [g.box_id((i, j)) for i in range(3, 5) for j in range(3, 5)]
        assert set(a.boundary().indices()) == set(idx) - set(interior)

    def test_coarsen(self):
        fine = unit_square(depth=(3, 3))
        coarse = unit_square(depth=(2, 2))
        a = BoxSet.from_indices(fine, [fine.box_id((0, 1))])
        c = a.coarsen(coarse)
        assert set(c.indices()) == {coarse.box_id((0, 0))}

    def test_rle_roundtrip(self):
        g = unit_square(depth=(3, 3))
        rng = np.random.default_rng(3)
        a = BoxSet.from_indices(g, rng.integers(0, 64, 30))
        assert BoxSet.from_rle(g, a.rle()) == a
        assert BoxSet.from_rle(g, np.asarray(a.rle())) == a

    @pytest.mark.parametrize("runs", [[[1]], "x", [[-3, 2]], [[60, 10]],
                                      [[10, -2]], [[1.0, 2]], [[True, 2]]])
    def test_from_rle_rejects_malformed_runs(self, runs):
        g = unit_square(depth=(3, 3))
        with pytest.raises(ValueError):
            BoxSet.from_rle(g, runs)

    def test_sample_points_land_in_set(self):
        g = unit_square(depth=(3, 3))
        a = BoxSet.from_indices(g, [5, 17, 40])
        pts = a.sample_points(500, np.random.default_rng(11))
        boxes = g.boxes_of_points(pts)
        assert set(int(b) for b in boxes) <= {5, 17, 40}


def reference_morph(bits, shape, periodic, layers, grow):
    """Dilate (grow) or erode with np.roll on periodic axes and an np.pad
    of empty boxes on the others, one full neighbour array per shift."""
    a = bits.reshape(shape)
    for _ in range(layers):
        out = a.copy()
        for ax, per in enumerate(periodic):
            for step in (1, -1):
                if per:
                    nb = np.roll(a, step, axis=ax)
                else:
                    pad = [(0, 0)] * len(shape)
                    pad[ax] = (1, 1)
                    nb = np.take(np.pad(a, pad, constant_values=False),
                                 np.arange(shape[ax]) + 1 - step, axis=ax)
                out = (out | nb) if grow else (out & nb)
        a = out
    return a.ravel()


@st.composite
def grids_and_bits(draw):
    dim = draw(st.integers(1, 3))
    depth = tuple(draw(st.integers(0, 4 if dim < 3 else 2)) for _ in range(dim))
    periodic = tuple(draw(st.booleans()) for _ in range(dim))
    g = Grid(Domain((0.0,) * dim, (1.0,) * dim, periodic), depth)
    bits = draw(st.lists(st.booleans(), min_size=g.nboxes, max_size=g.nboxes))
    return g, np.asarray(bits, dtype=bool)


class TestMorphologyOracle:
    @settings(max_examples=150, deadline=None)
    @given(grids_and_bits(), st.integers(0, 3))
    def test_dilate_and_erode_match_pad_and_roll(self, case, layers):
        g, bits = case
        a = BoxSet(g, bits)
        periodic = g.domain.periodic
        assert np.array_equal(a.dilate(layers).bits,
                              reference_morph(bits, g.shape, periodic, layers, True))
        assert np.array_equal(a.erode(layers).bits,
                              reference_morph(bits, g.shape, periodic, layers, False))
        assert np.array_equal(a.bits, bits)  # the operand is left as it was
