import ast
import collections
import json
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import coldwave
from coldwave import operators as ops
from coldwave.cli import main
from coldwave.grid import Domain, Grid2D, box_type_range
from coldwave.multipliers import MultiplierSpec, bump_gram
from coldwave.quadrature import (_corners, decompose_cells,
                                 integrate_signed, weighted_norms)
from coldwave.typegeometry import canonical_type_function


def _polygon_area_centroid(poly):
    """Signed shoelace area and centroid of a simple polygon."""
    x, y = np.array(poly).T
    xn = np.roll(x, -1)
    yn = np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    if area == 0.0:
        return 0.0, x.mean(), y.mean()
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    return abs(area), cx, cy


def _split_cell(corners, values):
    """Split a ccw quad along the zero set of the linearly interpolated
    corner values; yields (sign, area, cx, cy) pieces."""
    pos, neg = [], []
    for k in range(4):
        p0, f0 = corners[k], values[k]
        p1, f1 = corners[(k + 1) % 4], values[(k + 1) % 4]
        if f0 >= 0.0:
            pos.append(p0)
        if f0 <= 0.0:
            neg.append(p0)
        if (f0 > 0.0 > f1) or (f0 < 0.0 < f1):
            t = f0 / (f0 - f1)
            crossing = (p0[0] + t * (p1[0] - p0[0]),
                        p0[1] + t * (p1[1] - p0[1]))
            pos.append(crossing)
            neg.append(crossing)
    for sign, poly in ((1, pos), (-1, neg)):
        if len(poly) >= 3:
            area, cx, cy = _polygon_area_centroid(poly)
            if area > 0.0:
                yield sign, area, cx, cy


def split_cells_one_by_one(grid, cut):
    """The cut-cell pieces of ``decompose_cells``, one cell at a time."""
    K = grid.K
    xs, ys = grid.xs, grid.ys
    rows = []
    for i, j in zip(*np.nonzero(cut)):
        corners = ((xs[i], ys[j]), (xs[i + 1], ys[j]),
                   (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]))
        vals = (K[i, j], K[i + 1, j], K[i + 1, j + 1], K[i, j + 1])
        rows.extend((i, j, *piece) for piece in _split_cell(corners, vals))
    i, j, sign, area, x, y = np.array(rows, dtype=float).reshape(-1, 6).T
    return i.astype(np.intp), j.astype(np.intp), sign, area, x, y


@pytest.fixture
def square():
    return Grid2D(Domain.rectangle(-1, 1, -1, 1), 33, 33)


class TestGrid:
    def test_masks_partition(self, square):
        g = square
        assert not np.any(g.interior & g.boundary)
        assert np.array_equal(g.inside, g.interior | g.boundary)
        assert g.boundary[0, :].all() and g.boundary[:, -1].all()

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid2D(Domain.rectangle(0, 1, 0, 1), 3, 10)

    def test_union_of_rectangles(self):
        dom = Domain(((0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 0.0, 0.5)))
        g = Grid2D(dom, 41, 21)
        assert bool(dom.contains(1.5, 0.25))
        assert not bool(dom.contains(1.5, 0.75))
        assert g.inside.sum() > 0

    def test_domain_flags(self):
        assert Domain.rectangle(-1, 1, -1, 1).contains_origin
        assert Domain.rectangle(-1, 1, -1, 1).contains_sonic_arc
        elliptic = Domain.rectangle(1.5, 2.5, -0.4, 0.4)
        assert not elliptic.contains_origin
        assert not elliptic.contains_sonic_arc

    def test_type_range_is_exact(self):
        assert Domain.rectangle(-1, 1, -1, 1).type_range == (-2.0, 1.0)
        box = Domain.rectangle(0, 1, -0.3, 0.7)
        assert box.type_range == (-(0.7 * 0.7), 1.0)
        # K peaks at y = 0, which no node of a 65-node lattice holds
        assert Grid2D(box, 65, 65).K.max() < 1.0
        assert Domain.rectangle(1, 2, 0.5, 1.0).type_range == (0.0, 1.75)
        assert Domain(((-2.0, -1.0, 0.0, 1.0),
                       (1.0, 2.0, 0.5, 1.0))).type_range == (-3.0, 1.75)

    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=2),
           ys=st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=2),
           shape=st.sampled_from(["box", "horizontal", "vertical"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_box_type_range_bounds_and_is_attained(self, xs, ys, shape,
                                                   seed):
        # a side is a box with x0 == x1 or y0 == y1; K is bounded at
        # random points, and each extreme is K at a corner or at y = 0
        (x0, x1), (y0, y1) = sorted(xs), sorted(ys)
        if shape == "horizontal":
            y1 = y0
        elif shape == "vertical":
            x1 = x0
        lo, hi = box_type_range(x0, x1, y0, y1)
        rng = np.random.default_rng(seed)
        x = np.clip(x0 + (x1 - x0) * rng.random(256), x0, x1)
        y = np.clip(y0 + (y1 - y0) * rng.random(256), y0, y1)
        K = canonical_type_function(x, y)
        assert (lo <= K).all() and (K <= hi).all()
        cx = [x0, x1, x1, x0] + ([x0, x1] if y0 <= 0.0 <= y1 else [])
        cy = [y0, y0, y1, y1] + ([0.0, 0.0] if y0 <= 0.0 <= y1 else [])
        K = canonical_type_function(np.array(cx), np.array(cy))
        assert (lo, hi) == (K.min(), K.max())

    def test_sonic_arc_between_samples(self):
        # K(1e-5, 0) > 0, but no node of a 101 x 101 sample has K > 0
        assert Domain.rectangle(-1, 1e-5, -0.5, 1.0).contains_sonic_arc
        # K <= 0 everywhere, reaching 0 only at the origin: no sign change
        assert not Domain.rectangle(-1, 0.0, -0.5, 1.0).contains_sonic_arc
        assert Domain(((-2.0, -1.0, 0.0, 1.0),
                       (1.0, 2.0, 0.5, 1.0))).contains_sonic_arc

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.lists(st.floats(-3, 3), min_size=2, max_size=2, unique=True),
        st.lists(st.floats(-3, 3), min_size=2, max_size=2, unique=True)),
        min_size=1, max_size=3))
    def test_sonic_arc_whenever_samples_change_sign(self, pairs):
        rects = [(*sorted(xs), *sorted(ys)) for xs, ys in pairs]
        k = np.concatenate([
            (x - y * y).ravel() for x, y in (
                np.meshgrid(np.linspace(x0, x1, 41), np.linspace(y0, y1, 41))
                for x0, x1, y0, y1 in rects)])
        if k.min() < 0.0 < k.max():
            assert Domain(tuple(rects)).contains_sonic_arc

    def test_boundary_segments_ccw(self):
        segs = Domain.rectangle(0, 2, 0, 1).boundary_segments()
        names = [s.name for s in segs]
        assert names == ["bottom", "right", "top", "left"]
        assert segs[0].delta == (2.0, 0.0)
        assert segs[3].delta == (0.0, -1.0)
        with pytest.raises(ValueError):
            Domain(((0, 1, 0, 1), (1, 2, 0, 1))).boundary_segments()

    def test_segment_mask_is_its_lattice_edges(self):
        g = Grid2D(Domain.rectangle(0, 2, 0, 1), 5, 4)
        edges = {"bottom": (slice(None), 0), "right": (-1, slice(None)),
                 "top": (slice(None), -1), "left": (0, slice(None))}
        assert set(edges) == set(Domain.SEGMENTS)
        for name, edge in edges.items():
            want = np.zeros((5, 4), dtype=bool)
            want[edge] = True
            assert np.array_equal(g.segment_mask({name}), want)
        assert np.array_equal(g.segment_mask(Domain.SEGMENTS), g.boundary)
        assert not g.segment_mask(()).any()
        union = Domain(((0, 1, 0, 1), (1, 2, 0, 1)))
        with pytest.raises(ValueError):
            Grid2D(union, 5, 4).segment_mask({"top"})


class TestApplyL:
    def test_constant_field(self, square):
        u = np.ones((33, 33))
        assert np.abs(ops.apply_L(u, square, 0.3)).max() == 0.0

    def test_linear_field(self, square):
        X, _ = square.meshgrid()
        out = ops.apply_L(X.copy(), square, 0.7)
        assert np.abs(out - 0.7).max() <= 1e-12

    def test_quadratic_exact(self, square):
        X, Y = square.meshgrid()
        u = 0.5 * X ** 2
        expected = (X - Y ** 2) + 1.3 * X
        assert np.abs(ops.apply_L(u, square, 1.3) - expected).max() <= 1e-11

    def test_adjoint_swaps_drift(self, square):
        X, _ = square.meshgrid()
        out = ops.apply_L_adjoint(X.copy(), square, 0.0)
        assert np.abs(out - 2.0).max() <= 1e-12

    def test_self_adjoint_at_one(self, square):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(33, 33))
        a = ops.apply_L(u, square, 1.0)
        b = ops.apply_L_adjoint(u, square, 1.0)
        assert np.array_equal(a, b)

    def test_adjoint_involution(self, square):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(33, 33))
        once = ops.apply_L_adjoint(u, square, 0.3)
        # adjoint of the adjoint operator has drift kappa again
        assert np.allclose(ops.apply_L(u, square, 2.0 - (2.0 - 0.3)),
                           ops.apply_L(u, square, 0.3))
        assert once is not None

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0])
    def test_discrete_adjoint_identity(self, square, kappa):
        rng = np.random.default_rng(7)
        u = np.zeros((33, 33))
        v = np.zeros((33, 33))
        u[3:-3, 3:-3] = rng.normal(size=(27, 27))
        v[3:-3, 3:-3] = rng.normal(size=(27, 27))
        lhs = np.sum(ops.apply_L(u, square, kappa) * v)
        rhs = np.sum(u * ops.apply_L_adjoint(v, square, kappa))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestDecomposition:
    def test_area_conserved(self, square):
        dec = decompose_cells(square)
        one = lambda K, x, y: np.ones_like(np.asarray(x, dtype=float))
        assert integrate_signed(dec, one, one) == pytest.approx(4.0, rel=1e-12)

    def test_positive_area_converges(self):
        # area of {x > y^2} inside [-1,1]^2 is 4/3
        vals = []
        for n in (33, 65, 129):
            g = Grid2D(Domain.rectangle(-1, 1, -1, 1), n, n)
            dec = decompose_cells(g)
            one = lambda K, x, y: np.ones_like(np.asarray(x, dtype=float))
            zero = lambda K, x, y: np.zeros_like(np.asarray(x, dtype=float))
            vals.append(integrate_signed(dec, one, zero))
        errs = [abs(v - 4.0 / 3.0) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    @pytest.mark.parametrize("box", [
        (-1.0, 1.0, -1.0, 1.0), (-1.05, 0.95, -1.02, 0.98),
        (0.0, 1.0, 0.0, 0.75), (-0.3, 1.2, -0.9, 0.7)])
    @pytest.mark.parametrize("n", [9, 17, 33, 65, 100, 129, 257])
    def test_split_matches_cell_loop(self, box, n):
        # corners with K = 0 exactly (origin box, first-quadrant box)
        # put vertices on both sides and give degenerate pieces
        g = Grid2D(Domain.rectangle(*box), n, n)
        dec = decompose_cells(g)
        i, j, sign, area, x, y = split_cells_one_by_one(g, dec.cut_mask)
        for pts in dec.points:
            side = sign == pts.sign
            k = slice(pts.n_cells, None)
            got = (pts.i[k], pts.j[k], pts.weight[k], pts.x[k], pts.y[k])
            expected = (i[side], j[side], area[side], x[side], y[side])
            for a, b in zip(got, expected):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data(), nx=st.integers(8, 24), ny=st.integers(8, 24))
    def test_centre_values_are_corner_averages(self, data, nx, ny):
        # the bilinear weights at a centre are exactly 1/4; magnitudes in
        # [1e-300, 1e300] keep every quarter and partial sum clear of
        # underflow and overflow, where the two orders could round apart
        magnitude = st.floats(1e-300, 1e300)
        F = data.draw(arrays(float, (nx, ny), elements=st.one_of(
            magnitude, magnitude.map(lambda v: -v))))
        g = Grid2D(Domain.rectangle(-0.3, 1.2, -0.9, 0.7), nx, ny)
        average = 0.25 * sum(_corners(F))
        for pts in decompose_cells(g).points:
            k = slice(None, pts.n_cells)
            got = pts.values(F)[k]
            assert got.tobytes() == average[pts.i[k], pts.j[k]].tobytes()

    def test_cut_cells_follow_parabola(self, square):
        dec = decompose_cells(square)
        assert dec.cut_mask.any()
        area = np.zeros(dec.cut_mask.shape)
        for pts in dec.points:
            k = slice(pts.n_cells, None)
            np.add.at(area, (pts.i[k], pts.j[k]), pts.weight[k])
            side = np.zeros(dec.cut_mask.shape, dtype=bool)
            side[pts.i[k], pts.j[k]] = True
            assert np.array_equal(side, dec.cut_mask)
        assert area[dec.cut_mask] == pytest.approx(dec.cell_area, rel=1e-12)
        assert not area[~dec.cut_mask].any()

    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(-10, 10), b=st.floats(-10, 10), c=st.floats(-10, 10),
           nx=st.integers(8, 40), ny=st.integers(8, 40))
    def test_affine_field_integrates_exactly(self, a, b, c, nx, ny):
        # corner averages, bilinear interpolation and piece centroids are
        # all exact for affine integrands
        x0, x1, y0, y1 = -0.3, 1.2, -0.9, 0.7
        g = Grid2D(Domain.rectangle(x0, x1, y0, y1), nx, ny)
        dec = decompose_cells(g)
        assert dec.cut_mask.any()
        X, Y = g.meshgrid()
        f = lambda K, x, y, v: v
        got = integrate_signed(dec, f, f, (a + b * X + c * Y,))
        area = (x1 - x0) * (y1 - y0)
        exact = area * (a + b * 0.5 * (x0 + x1) + c * 0.5 * (y0 + y1))
        scale = area * (abs(a) + abs(b) * max(abs(x0), abs(x1))
                        + abs(c) * max(abs(y0), abs(y1)))
        # floored: 1e-12 * scale underflows for subnormal coefficients
        tol = max(1e-12 * scale, sys.float_info.min)
        assert got == pytest.approx(exact, rel=1e-12, abs=tol)

    def test_matches_cell_by_cell_reference(self, square):
        # a non-bilinear field and different branches on the two sides,
        # summed one cell and one piece at a time
        g = square
        X, Y = g.meshgrid()
        u = np.sin(3.0 * X) * np.cos(2.0 * Y) + X * X
        fp = lambda K, x, y, v: v * v + x
        fm = lambda K, x, y, v: np.exp(v) - y
        K = X - Y * Y
        dec = decompose_cells(g)
        ref = 0.0
        for i in range(g.nx - 1):
            for j in range(g.ny - 1):
                corners = K[i:i + 2, j:j + 2]
                if corners.min() >= 0.0:
                    fn = fp
                elif corners.max() <= 0.0:
                    fn = fm
                else:   # straddles K = 0: its pieces follow
                    continue
                x = 0.5 * (g.xs[i] + g.xs[i + 1])
                y = 0.5 * (g.ys[j] + g.ys[j + 1])
                ref += dec.cell_area * fn(x - y * y, x, y,
                                          0.25 * u[i:i + 2, j:j + 2].sum())
        for pts in dec.points:
            k = slice(pts.n_cells, None)
            for i, j, area, x, y in zip(pts.i[k], pts.j[k], pts.weight[k],
                                        pts.x[k], pts.y[k]):
                tx, ty = (x - g.xs[i]) / g.hx, (y - g.ys[j]) / g.hy
                v = ((1 - tx) * (1 - ty) * u[i, j]
                     + tx * (1 - ty) * u[i + 1, j]
                     + (1 - tx) * ty * u[i, j + 1] + tx * ty * u[i + 1, j + 1])
                ref += area * (fp if pts.sign > 0 else fm)(x - y * y, x, y,
                                                           v)
        got = integrate_signed(dec, fp, fm, (u,))
        assert got == pytest.approx(ref, rel=1e-12)


class TestWeightedNorms:
    def test_zero_field(self, square):
        wn = weighted_norms(np.zeros((33, 33)), square)
        assert (wn.l2_weighted, wn.h1_weighted) == (0.0, 0.0)

    def test_unit_field_on_elliptic_box(self):
        g = Grid2D(Domain.rectangle(1, 2, 0, 1), 513, 513)
        wn = weighted_norms(np.ones((513, 513)), g)
        assert wn.l2_weighted ** 2 == pytest.approx(7.0 / 6.0, abs=1e-6)
        assert wn.h1_weighted == 0.0

    def test_homogeneity(self, square):
        rng = np.random.default_rng(3)
        u = np.zeros((33, 33))
        u[2:-2, 2:-2] = rng.normal(size=(29, 29))
        a = weighted_norms(u, square)
        b = weighted_norms(2.0 * u, square)
        assert b.l2_weighted == pytest.approx(2.0 * a.l2_weighted, rel=1e-12)
        assert b.h1_weighted == pytest.approx(2.0 * a.h1_weighted, rel=1e-12)


class TestOneEvaluationOfK:
    @pytest.mark.parametrize("rects, nx, ny", [
        (((-1.0, 1.0, -1.0, 1.0),), 33, 33),
        (((-1.05, 0.95, -1.02, 0.98),), 49, 41),
        (((0.0, 1.0, 0.0, 0.75),), 17, 29),
        (((0.0, 1.0, 0.0, 1.0), (1.0, 2.0, 0.0, 0.5)), 41, 21)])
    def test_grid_and_points_carry_exact_K(self, rects, nx, ny):
        g = Grid2D(Domain(rects), nx, ny)
        assert g.K.tobytes() == canonical_type_function(
            *g.meshgrid()).tobytes()
        for pts in decompose_cells(g).points:
            assert pts.K.tobytes() == canonical_type_function(
                pts.x, pts.y).tobytes()

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """The calling function of every evaluation of K, with a check
        that no point set is evaluated twice."""
        callers, point_sets = [], set()

        def counted(x, y):
            callers.append(sys._getframe(1).f_code.co_name)
            points = np.stack(np.broadcast_arrays(x, y)).tobytes()
            assert points not in point_sets
            point_sets.add(points)
            return canonical_type_function(x, y)

        for module in ("grid", "quadrature"):
            monkeypatch.setattr(f"coldwave.{module}.canonical_type_function",
                                counted)
        return callers

    @pytest.mark.parametrize("command, kappa, bc, forcing, expected", [
        ("solve", 0.5, {"type": "closed_dirichlet"}, "one",
         {"__post_init__": 1, "decompose_cells": 2}),
        ("solve-mixed", 0.0, {"type": "mixed", "G": ["top", "left"]},
         "smooth2", {"__post_init__": 1, "decompose_cells": 2})])
    def test_once_per_point_set_in_a_solve(self, command, kappa, bc, forcing,
                                           expected, evaluations, tmp_path):
        # the problem's grid once and every quadrature side once; the
        # mixed multiplier and its boundary test read K's range in closed
        # form
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "kappa": kappa, "domain": {"rects": [[0.0, 1.0, 0.0, 0.75]]},
            "grid": {"nx": 17, "ny": 17}, "bc": bc,
            "forcing": {"kind": forcing}}))
        assert main(["--quiet", "--out", str(tmp_path / "u.csv"), command,
                     "--problem", str(problem)]) == 0
        assert collections.Counter(evaluations) == expected

    def test_once_per_point_set_in_bump_gram(self, evaluations):
        domain = Domain.rectangle(-1.0, 1.0, -1.0, 1.0)
        g = Grid2D(domain, 17, 17)
        spec = MultiplierSpec(1.5, domain)
        evaluations.clear()
        bump_gram(g, spec)
        assert evaluations == ["decompose_cells", "decompose_cells"]

    def test_evaluation_sites(self):
        # every use of the name outside imports, by innermost enclosing
        # function: the definition and the two evaluation sites
        name = "canonical_type_function"
        sites = collections.Counter()

        def visit(node, path, scope):
            if isinstance(node, ast.FunctionDef):
                if node.name == name:
                    sites[path.name, "def"] += 1
                scope = node.name
            if name in (getattr(node, "id", None),
                        getattr(node, "attr", None)):
                sites[path.name, scope] += 1
            for child in ast.iter_child_nodes(node):
                visit(child, path, scope)

        for path in pathlib.Path(coldwave.__file__).parent.glob("*.py"):
            visit(ast.parse(path.read_text()), path, None)
        assert sites == {("typegeometry.py", "def"): 1,
                         ("grid.py", "__post_init__"): 1,
                         ("quadrature.py", "decompose_cells"): 1}
