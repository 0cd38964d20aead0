"""Cellwise midpoint quadrature with cells split along the sonic curve.

Integrands may take different branches on the two sides of K = x - y^2
(the energy-inequality multipliers do); cells whose corners straddle the
curve are split into polygonal pieces by linear interpolation of K along
the cell edges, and each piece is integrated at its own centroid.
``decompose_cells`` evaluates the exact K once on each of two point
sets, the cell centres (an (mx, my) lattice) and the pieces of both
sides, and gives one view of the decomposition: the centre lattice,
each side's uncut-cell mask on it, and each side's pieces.  Every
integral and the bump Gram read that view; an integral calls each
side's integrand once at that side's uncut cell centres and once at
its pieces.  An integrand is called as fn(K, x, y, *field_values) and
reads K from its argument.
"""

from dataclasses import dataclass

import numpy as np

from .grid import _corners
from .operators import gradient
from .typegeometry import canonical_type_function


@dataclass(frozen=True)
class SidePoints:
    """The cut-cell pieces on one side (sign = +-1) of K = 0, in
    row-major cell order.  Piece k lies in cell (i[k], j[k]), with its
    centroid at offsets (tx[k], ty[k]) in units of the cell sides, at
    (x[k], y[k]), where K = x - y^2 is K[k]; its area is weight[k].
    Fields are read at the centroids by their bilinear interpolant."""

    sign: int
    i: np.ndarray
    j: np.ndarray
    tx: np.ndarray
    ty: np.ndarray
    x: np.ndarray
    y: np.ndarray
    K: np.ndarray
    weight: np.ndarray

    def values(self, F):
        """A nodal field F at the centroids, bilinearly."""
        f, ny = F.ravel(), F.shape[1]
        k = self.i * ny + self.j
        tx, ty = self.tx, self.ty
        return ((1 - tx) * (1 - ty) * f[k] + tx * (1 - ty) * f[k + ny]
                + (1 - tx) * ty * f[k + 1] + tx * ty * f[k + ny + 1])


@dataclass(frozen=True)
class CellDecomposition:
    """Domain cells (all four corners inside) split along K = 0.

    ``K_centres`` is K = x - y^2 at every cell centre (xc[i], yc[j]), an
    (mx, my) array; per side (K >= 0, K <= 0) ``uncut`` masks that
    side's uncut cells on it and ``pieces`` is the ``SidePoints`` of
    that side's cut-cell pieces.  ``cut_mask`` marks the cells that
    straddle K = 0; every cell has area ``cell_area``."""

    uncut: tuple
    pieces: tuple
    xc: np.ndarray
    yc: np.ndarray
    K_centres: np.ndarray
    cut_mask: np.ndarray
    cell_area: float

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
        SidePoints(sign, pi, pj, (x - grid.xs[pi]) / grid.hx,
                   (y - grid.ys[pj]) / grid.hy, x, y, k, a)
        for sign, (pi, pj, a, x, y), k in zip(
            (1, -1), sides, np.split(K_pieces, [n_pos])))
    return CellDecomposition((pos, cell_inside & ~cut & ~pos), pieces,
                             xc, yc, K_centres, cut, grid.hx * grid.hy)


def _integrate(decomp, fn_pos, fn_neg, fields, with_pieces):
    """Per side of K = 0, one call of that side's integrand at the
    centres of its uncut cells, where each field reads the average of
    its four corners, and, ``with_pieces``, one at its pieces; one sum
    over both calls' terms."""
    averages = [0.25 * a + 0.25 * b + 0.25 * c + 0.25 * d
                for a, b, c, d in map(_corners, fields)]
    lattice = (decomp.K_centres, decomp.xc[:, None], decomp.yc, *averages)
    total = 0.0
    for uncut, p, fn in zip(decomp.uncut, decomp.pieces, (fn_pos, fn_neg)):
        K, x, y, *vals = (np.broadcast_to(A, uncut.shape)[uncut]
                          for A in lattice)
        # an array of areas, so that a scalar integrand counts at every
        # centre
        terms = [np.full(K.size, decomp.cell_area) * fn(K, x, y, *vals)]
        if with_pieces:
            terms.append(p.weight * fn(p.K, p.x, p.y, *map(p.values, fields)))
        total += float(np.sum(np.concatenate(terms)))
    return total


def integrate_uncut(decomp, fn, fields=()):
    """Midpoint integral of an integrand (K, x, y, *field_values) over the
    uncut cells only (cells straddling K = 0 are skipped)."""
    return _integrate(decomp, fn, fn, fields, with_pieces=False)


def integrate_signed(decomp, fn_pos, fn_neg, fields=()):
    """Integrate a sign-branched integrand over the decomposed cells.

    ``fn_pos``/``fn_neg`` are callables (K, x, y, *field_values) that
    are always called with arrays, K = x - y^2 read from the points,
    and return an array of values or one scalar for every point;
    ``fields`` are nodal arrays, read at the centre of an uncut cell as
    the average of its four corners (its bilinear interpolant there)
    and at a piece's centroid bilinearly.
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
