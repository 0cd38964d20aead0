"""Cellwise midpoint quadrature with cells split along the sonic curve.

Integrands may take different branches on the two sides of K = x - y^2
(the energy-inequality multipliers do); cells whose corners straddle the
curve are split into polygonal pieces by linear interpolation of K along
the cell edges, and each piece is integrated at its own centroid.
``decompose_cells`` evaluates the exact K once on each of two point
sets, the cell centres (an (mx, my) lattice) and the pieces of both
sides, and gives two views of one decomposition: the lattice view (each
side's uncut-cell mask over the centres, and its pieces), which the
bump Gram reads, and one point table per side of K = 0 (the uncut
cells' centres, then the pieces' centroids), built from the lattice
view when an integral first asks for it; every integral is one pass
over each table.  An integrand is called as fn(K, x, y,
*field_values) and reads K from its argument.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import _corners
from .operators import gradient
from .typegeometry import canonical_type_function


@dataclass(frozen=True)
class SidePoints:
    """Quadrature points on one side (sign = +-1) of K = 0: the centres
    of its ``n_cells`` uncut cells, then the centroids of its cut-cell
    pieces.  Point k lies in cell (i[k], j[k]) at offsets (tx[k], ty[k])
    in units of the cell sides (1/2 at a centre), at (x[k], y[k]), where
    K = x - y^2 is K[k], with weight weight[k].  Fields are read at every
    point, cell centres included, by their bilinear interpolant."""

    sign: int
    n_cells: int
    i: np.ndarray
    j: np.ndarray
    tx: np.ndarray
    ty: np.ndarray
    x: np.ndarray
    y: np.ndarray
    K: np.ndarray
    weight: np.ndarray

    def values(self, F):
        """A nodal field F at the points, bilinearly.  A centre's weights
        are exactly 1/4, so it reads F's corner average bit for bit,
        barring underflow and overflow."""
        f, ny = F.ravel(), F.shape[1]
        k = self.i * ny + self.j
        tx, ty = self.tx, self.ty
        return ((1 - tx) * (1 - ty) * f[k] + tx * (1 - ty) * f[k + ny]
                + (1 - tx) * ty * f[k + 1] + tx * ty * f[k + ny + 1])


@dataclass(frozen=True)
class CellDecomposition:
    """Domain cells (all four corners inside) split along K = 0.

    The lattice view: ``K_centres`` is K = x - y^2 at every cell centre
    (xc[i], yc[j]), an (mx, my) array; per side (K >= 0, K <= 0)
    ``uncut`` masks that side's uncut cells on it and ``pieces`` is a
    ``SidePoints`` of that side's cut-cell pieces alone (``n_cells`` 0,
    in row-major cell order).  ``cut_mask`` marks the cells that
    straddle K = 0.  The point view, ``points``, is built from the
    lattice view when first read."""

    uncut: tuple
    pieces: tuple
    xc: np.ndarray
    yc: np.ndarray
    K_centres: np.ndarray
    cut_mask: np.ndarray
    cell_area: float

    @cached_property
    def points(self):
        """The quadrature points of the (K >= 0, K <= 0) sides, each a
        ``SidePoints``: that side's uncut cells in row-major order, then
        its cut-cell pieces."""
        sides = []
        for uncut, p in zip(self.uncut, self.pieces):
            ci, cj = np.nonzero(uncut)
            half = np.full(ci.size, 0.5)
            cells = (ci, cj, half, half, self.xc[ci], self.yc[cj],
                     self.K_centres[ci, cj], np.full(ci.size, self.cell_area))
            pieces = (p.i, p.j, p.tx, p.ty, p.x, p.y, p.K, p.weight)
            sides.append(SidePoints(p.sign, ci.size,
                                    *map(np.concatenate, zip(cells, pieces))))
        return tuple(sides)

    @property
    def cut_area(self):
        """Total area of the cells straddling K = 0."""
        return int(self.cut_mask.sum()) * self.cell_area


# Corners of a cell counterclockwise from node (i, j), as lattice offsets.
_CCW_DI = np.array([0, 1, 1, 0])
_CCW_DJ = np.array([0, 0, 1, 1])


def _shoelace(vx, vy, keep):
    """Per polygon along the last axis, the one whose vertices are the
    kept entries of (vx, vy) in order: its signed shoelace area, the
    centroid sums sum (x + x') c and sum (y + y') c over its edge cross
    products c, and its vertex count.  Each sum runs left to right over
    the real vertices, with 0.0 at the unused ones after them, as
    numpy's sum over one short polygon does (at most 6 of the 8
    candidates are kept, so a 0.0 always ends the sum, as 0.0 began
    it)."""
    order = np.argsort(~keep, axis=-1, kind="stable")
    x = np.take_along_axis(vx, order, axis=-1)
    y = np.take_along_axis(vy, order, axis=-1)
    m = keep.sum(axis=-1, keepdims=True)
    r = np.arange(keep.shape[-1])
    nxt = np.where(r + 1 < m, r + 1, 0)
    xn = np.take_along_axis(x, nxt, axis=-1)
    yn = np.take_along_axis(y, nxt, axis=-1)
    cross = x * yn - xn * y
    area, sx, sy = (
        np.add.accumulate(np.where(r < m, term, 0.0), axis=-1)[..., -1]
        for term in (cross, (x + xn) * cross, (y + yn) * cross))
    return 0.5 * area, sx, sy, m[..., 0]


def _split_cut_cells(grid, K, cut):
    """Split every cut cell along the zero set of K interpolated
    linearly on its edges, all cells and both sides in one array pass.

    Each side's polygon takes, in counterclockwise order, every corner
    on that side (K = 0 counts for both) and every strict sign change
    of an edge; polygons with fewer than three vertices or zero area
    are dropped.  Returns, per side (K >= 0 first), the (i, j, area,
    x, y) of its pieces in row-major cell order.
    """
    ci, cj = np.nonzero(cut)
    n = ci.size
    ii, jj = ci[:, None] + _CCW_DI, cj[:, None] + _CCW_DJ
    px, py, f = grid.xs[ii], grid.ys[jj], K[ii, jj]
    px1, py1, f1 = (np.roll(a, -1, axis=1) for a in (px, py, f))
    change = ((f > 0.0) & (0.0 > f1)) | ((f < 0.0) & (0.0 < f1))
    t = np.divide(f, f - f1, out=np.zeros_like(f), where=change)
    # candidate vertices: corner k, then the crossing on edge k
    vx = np.stack((px, px + t * (px1 - px)), axis=2).reshape(n, 8)
    vy = np.stack((py, py + t * (py1 - py)), axis=2).reshape(n, 8)
    keep = np.stack([np.stack((on_side, change), axis=2).reshape(n, 8)
                     for on_side in (f >= 0.0, f <= 0.0)])
    shape = keep.shape
    area, sx, sy, m = _shoelace(np.broadcast_to(vx, shape),
                                np.broadcast_to(vy, shape), keep)
    sides = []
    for a, cx, cy, k in zip(area, sx, sy, m):
        v = (k >= 3) & (a != 0.0)
        area6 = 6.0 * a[v]
        sides.append((ci[v], cj[v], np.abs(a[v]), cx[v] / area6,
                      cy[v] / area6))
    return sides


def decompose_cells(grid):
    """Classify every domain cell (all four corners inside) against the
    sign of K = x - y^2 (the grid's nodal K), split the straddling
    ones, and evaluate the exact K at every cell centre and every
    piece."""
    K = grid.K
    cell_inside = np.logical_and.reduce(_corners(grid.inside))
    cmin = np.minimum.reduce(_corners(K))
    cmax = np.maximum.reduce(_corners(K))
    cut = cell_inside & (cmin < 0.0) & (cmax > 0.0)
    pos = cell_inside & ~cut & (cmin >= 0.0)
    xc = 0.5 * (grid.xs[:-1] + grid.xs[1:])
    yc = 0.5 * (grid.ys[:-1] + grid.ys[1:])
    sides = _split_cut_cells(grid, K, cut)
    # K on the centre lattice, then at the pieces of both sides at once
    px, py = (np.concatenate([s[k] for s in sides]) for k in (3, 4))
    K_centres, K_pieces = map(canonical_type_function, (xc[:, None], px),
                              (yc, py))
    n_pos = sides[0][0].size
    pieces = tuple(
        SidePoints(sign, 0, pi, pj, (x - grid.xs[pi]) / grid.hx,
                   (y - grid.ys[pj]) / grid.hy, x, y, k, a)
        for sign, (pi, pj, a, x, y), k in zip(
            (1, -1), sides, np.split(K_pieces, [n_pos])))
    return CellDecomposition((pos, cell_inside & ~cut & ~pos), pieces,
                             xc, yc, K_centres, cut, grid.hx * grid.hy)


def _integrate(decomp, fn_pos, fn_neg, fields, with_pieces):
    """Per side of K = 0, one call of that side's integrand at that
    side's points (the first ``n_cells``, uncut, unless ``with_pieces``)."""
    total = 0.0
    for pts, fn in zip(decomp.points, (fn_pos, fn_neg)):
        n = None if with_pieces else pts.n_cells
        vals = [pts.values(F)[:n] for F in fields]
        total += float(np.sum(pts.weight[:n] * fn(pts.K[:n], pts.x[:n],
                                                   pts.y[:n], *vals)))
    return total


def integrate_uncut(decomp, fn, fields=()):
    """Midpoint integral of an integrand (K, x, y, *field_values) over the
    uncut cells only (cells straddling K = 0 are skipped)."""
    return _integrate(decomp, fn, fn, fields, with_pieces=False)


def integrate_signed(decomp, fn_pos, fn_neg, fields=()):
    """Integrate a sign-branched integrand over the decomposed cells.

    ``fn_pos``/``fn_neg`` are callables (K, x, y, *field_values) that
    are always called with arrays, K = x - y^2 read from the points;
    ``fields`` are nodal arrays interpolated bilinearly to evaluation
    points (cell centers for uncut cells, piece centroids for cut ones).
    """
    return _integrate(decomp, fn_pos, fn_neg, fields, with_pieces=True)


def _h1_density(K, x, y, a, b):
    return np.abs(K) * a * a + b * b


def integrate_h1_density(decomp, a, b):
    """Integral of |K| a^2 + b^2 for nodal fields a, b; with (a, b) the
    gradient (u_x, u_y) it is the squared H1_0(K) seminorm of u."""
    return integrate_signed(decomp, _h1_density, _h1_density, (a, b))


@dataclass(frozen=True)
class WeightedNorms:
    """Weighted norms of a grid field: L2(|K|) and the H1_0(K)
    seminorm."""

    l2_weighted: float
    h1_weighted: float


def weighted_norms(u, grid):
    """Quadrature of (int |K| u^2)^1/2 and (int |K| u_x^2 + u_y^2)^1/2
    with K = x - y^2."""
    u = np.asarray(u, dtype=float)
    decomp = decompose_cells(grid)
    ux, uy = gradient(u, grid)

    def absk_u2(K, x, y, uv):
        return np.abs(K) * uv * uv

    l2sq = integrate_signed(decomp, absk_u2, absk_u2, (u,))
    h1sq = integrate_h1_density(decomp, ux, uy)
    return WeightedNorms(
        l2_weighted=np.sqrt(max(l2sq, 0.0)),
        h1_weighted=np.sqrt(max(h1sq, 0.0)),
    )
