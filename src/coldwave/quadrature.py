"""Cellwise midpoint quadrature with cells split along the sonic curve.

Integrands may take different branches on the two sides of K = x - y^2
(the energy-inequality multipliers do); cells whose corners straddle the
curve are split into polygonal pieces by linear interpolation of K along
the cell edges, and each piece is integrated at its own centroid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DualNormSingular
from .operators import gradient
from .typegeometry import canonical_type_function


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


@dataclass(frozen=True)
class CellDecomposition:
    """Grid cells sorted by the sign of K: uncut positive, uncut
    negative, and cut cells, whose polygon pieces are flat arrays
    (piece k: cell (piece_i[k], piece_j[k]), side piece_sign[k] = +-1,
    area piece_area[k], centroid (piece_x[k], piece_y[k]))."""

    grid: object
    pos_cells: np.ndarray
    neg_cells: np.ndarray
    cut_mask: np.ndarray
    cell_area: float
    piece_i: np.ndarray
    piece_j: np.ndarray
    piece_sign: np.ndarray
    piece_area: np.ndarray
    piece_x: np.ndarray
    piece_y: np.ndarray

    @property
    def cut_area(self):
        """Total area of the cells straddling K = 0."""
        return int(self.cut_mask.sum()) * self.cell_area


def _corners(F):
    """Nodal values at the four corners of every cell."""
    return F[:-1, :-1], F[1:, :-1], F[:-1, 1:], F[1:, 1:]


def decompose_cells(grid):
    """Classify every domain cell (all four corners inside) against the
    sign of K = x - y^2 and split the straddling ones."""
    K = grid.type_values()
    cell_inside = np.logical_and.reduce(_corners(grid.inside))
    cmin = np.minimum.reduce(_corners(K))
    cmax = np.maximum.reduce(_corners(K))
    cut = cell_inside & (cmin < 0.0) & (cmax > 0.0)
    pos = cell_inside & ~cut & (cmin >= 0.0)
    neg = cell_inside & ~cut & ~pos
    rows = []
    xs, ys = grid.xs, grid.ys
    for i, j in zip(*np.nonzero(cut)):
        corners = ((xs[i], ys[j]), (xs[i + 1], ys[j]),
                   (xs[i + 1], ys[j + 1]), (xs[i], ys[j + 1]))
        vals = (K[i, j], K[i + 1, j], K[i + 1, j + 1], K[i, j + 1])
        rows.extend((i, j, *piece) for piece in _split_cell(corners, vals))
    i, j, sign, area, x, y = np.array(rows, dtype=float).reshape(-1, 6).T
    return CellDecomposition(grid, pos, neg, cut, grid.hx * grid.hy,
                             i.astype(np.intp), j.astype(np.intp),
                             sign, area, x, y)


def _integrate(decomp, fn_pos, fn_neg, fields, with_pieces):
    """Per side of K = 0, one call of that side's integrand at the centres
    of its uncut cells (corner-averaged fields) and, if ``with_pieces``,
    the centroids of its cut-cell pieces (fields interpolated bilinearly)."""
    grid = decomp.grid
    XC, YC = np.meshgrid(0.5 * (grid.xs[:-1] + grid.xs[1:]),
                         0.5 * (grid.ys[:-1] + grid.ys[1:]), indexing="ij")
    centered = [0.25 * sum(_corners(F)) for F in fields]
    total = 0.0
    for sign, mask, fn in ((1, decomp.pos_cells, fn_pos),
                           (-1, decomp.neg_cells, fn_neg)):
        x, y = XC[mask], YC[mask]
        vals = [c[mask] for c in centered]
        weights = np.full(x.size, decomp.cell_area)
        if with_pieces:
            p = decomp.piece_sign == sign
            i, j = decomp.piece_i[p], decomp.piece_j[p]
            px, py = decomp.piece_x[p], decomp.piece_y[p]
            tx = (px - grid.xs[i]) / grid.hx
            ty = (py - grid.ys[j]) / grid.hy
            x, y = np.concatenate((x, px)), np.concatenate((y, py))
            vals = [np.concatenate((v, (1 - tx) * (1 - ty) * F[i, j]
                                    + tx * (1 - ty) * F[i + 1, j]
                                    + (1 - tx) * ty * F[i, j + 1]
                                    + tx * ty * F[i + 1, j + 1]))
                    for v, F in zip(vals, fields)]
            weights = np.concatenate((weights, decomp.piece_area[p]))
        total += float(np.sum(weights * fn(x, y, *vals)))
    return total


def integrate_uncut(decomp, fn, fields=()):
    """Midpoint integral of an integrand (x, y, *field_values) over the
    uncut cells only (cells straddling K = 0 are skipped)."""
    return _integrate(decomp, fn, fn, fields, with_pieces=False)


def integrate_signed(decomp, fn_pos, fn_neg, fields=()):
    """Integrate a sign-branched integrand over the decomposed cells.

    ``fn_pos``/``fn_neg`` are callables (x, y, *field_values) that are
    always called with arrays; ``fields`` are nodal arrays interpolated
    bilinearly to evaluation points (cell centers for uncut cells, piece
    centroids for cut ones).
    """
    return _integrate(decomp, fn_pos, fn_neg, fields, with_pieces=True)


def _h1_density(x, y, a, b):
    return np.abs(canonical_type_function(x, y)) * a * a + b * b


def integrate_h1_density(decomp, a, b):
    """Integral of |K| a^2 + b^2 for nodal fields a, b; with (a, b) the
    gradient (u_x, u_y) it is the squared H1_0(K) seminorm of u."""
    return integrate_signed(decomp, _h1_density, _h1_density, (a, b))


@dataclass(frozen=True)
class WeightedNorms:
    """Weighted norms of a grid field: L2(|K|), dual L2(1/|K|), and the
    H1_0(K) seminorm.  The dual norm is None unless requested; cut-cell
    area excluded from it is reported."""

    l2_weighted: float
    h1_weighted: float
    l2_dual_weighted: float | None = None
    excluded_measure: float = 0.0


def weighted_norms(u, grid, include_dual=True, decomp=None):
    """Quadrature of (int |K| u^2)^1/2, (int 1/|K| u^2)^1/2, and
    (int |K| u_x^2 + u_y^2)^1/2 with K = x - y^2.

    The dual norm skips cells straddling K = 0 (their total area is
    reported) and raises DualNormSingular if u is supported there.
    """
    u = np.asarray(u, dtype=float)
    if decomp is None:
        decomp = decompose_cells(grid)
    ux, uy = gradient(u, grid)

    def absk_u2(x, y, uv):
        return np.abs(canonical_type_function(x, y)) * uv * uv

    l2sq = integrate_signed(decomp, absk_u2, absk_u2, (u,))
    h1sq = integrate_h1_density(decomp, ux, uy)
    dual = None
    if include_dual:
        A = np.abs(u)
        supported = decomp.cut_mask & (np.maximum.reduce(_corners(A))
                                       > 1e-12 * max(float(A.max()), 1e-300))
        if supported.any():
            i, j = np.argwhere(supported)[0]
            raise DualNormSingular(f"field is supported on cell ({i}, {j}) "
                                   "straddling the sonic curve")

        def inv_absk_u2(x, y, uv):
            return uv * uv / np.abs(canonical_type_function(x, y))

        dual = np.sqrt(max(integrate_uncut(decomp, inv_absk_u2, (u,)), 0.0))
    return WeightedNorms(
        l2_weighted=np.sqrt(max(l2sq, 0.0)),
        h1_weighted=np.sqrt(max(h1sq, 0.0)),
        l2_dual_weighted=dual,
        excluded_measure=decomp.cut_area if include_dual else 0.0,
    )
