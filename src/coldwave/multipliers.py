"""Energy-inequality multipliers and boundary sign conditions.

The a-b-c multiplier M u = a u + b u_x + c u_y pairs with L u to bound
the weighted H1 seminorm from above: (Mu, Lu) >= delta ||u||^2 for
compactly supported u.  One ``MultiplierSpec`` carries the whole
multiplier: it is built once from the drift kappa and the domain (the
extremes of K = x - y^2 over it), and the checks on any grid of that
domain read kappa from it.  Its two coefficient regimes, a property of
kappa, cover the closed-Dirichlet drift range
(``operators.KAPPA_MAX``).  A matrix multiplier with boundary sign
conditions serves the mixed first-order problem.

The coefficients take K, not the point: callers read it from a grid
(``Grid2D.K``), from the cell centres (``CellDecomposition.K_centres``)
or from the cut-cell pieces (``SidePoints.K``); the mixed
multiplier and the boundary sign test read K's extremes over the box
and its sides in closed form (``grid.box_type_range``).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyval2d

from .errors import NumericalFailure, SpecInvalid
from .grid import Domain, box_type_range
from .operators import KAPPA_MAX, _d1, _d2, apply_L, gradient
from .quadrature import (decompose_cells, integrate_h1_density,
                         integrate_signed)

SIGN_TOL = 1e-12

# Polynomial degree per axis of the random bumps and of the Gram basis.
BUMP_DEGREE = 3


@dataclass(frozen=True)
class MultiplierSpec:
    """Scalar multiplier coefficients (a = -1 throughout) for L of drift
    ``kappa`` on ``domain``, checked and derived when built.

    kappa_high (kappa >= 1): b is the two-branch exponential
    exp(2 delta K / Q1) on K > 0 and exp(6 delta K / Q2) on K < 0 with
    Q1 = exp(2 delta mu1), Q2 = exp(mu2) built from the extreme values
    mu1 = max(max K, 0) and mu2 = min(min K, 0) of K over the domain
    (exact, ``Domain.type_range``); c = 2 (2 delta - 1) y.  b <= Q1 on
    K > 0 and b > Q2 on K < 0 need delta < exp(mu2)/6; ``warnings`` says
    when that fails (``bump_gram`` measures the integral bound itself).

    kappa_low (kappa < 1): b = -N K on K > 0 and +N K on K < 0
    (i.e. -N |K|), c = -4 N y, with N strictly inside
    ((1 + dt) / (3 - kappa), (1 - dt) / (kappa + 1)), by default its
    midpoint; Q1 and Q2 stay None.

    delta is the lower bound that the checks assert for
    (Mu, Lu) / ||u||_{H1_0(K)}^2.
    """

    kappa: float
    domain: Domain
    delta: float = 0.05
    delta_tilde: float = 0.05
    N: float | None = None
    Q1: float | None = field(init=False, default=None)
    Q2: float | None = field(init=False, default=None)
    warnings: tuple = field(init=False, default=())

    def __post_init__(self):
        kappa, delta, delta_tilde = self.kappa, self.delta, self.delta_tilde
        kappa_max = KAPPA_MAX["closed_dirichlet"]
        if not 0.0 <= kappa <= kappa_max:
            raise SpecInvalid(f"kappa={kappa!r} outside [0, {kappa_max:g}]")
        if not 0.0 < delta < 0.5:
            raise SpecInvalid(f"delta={delta!r} outside (0, 0.5)")
        if not delta_tilde > 0.0:
            raise SpecInvalid(f"delta_tilde={delta_tilde!r} must be positive")
        if self.regime == "kappa_high":
            k_min, k_max = self.domain.type_range
            try:
                Q1 = math.exp(2.0 * delta * max(k_max, 0.0))
            except OverflowError:
                Q1 = math.inf
            mu2 = min(k_min, 0.0)
            Q2 = math.exp(mu2)
            q = ("Q1 is not finite" if Q1 == math.inf
                 else "Q2 is not > 0" if Q2 == 0.0
                 else "6 delta mu2 / Q2 is not finite"
                 if math.isinf(6.0 * delta * mu2 / Q2) else None)
            if q:
                raise SpecInvalid(f"{q} for K in [{k_min!r}, {k_max!r}]")
            warnings = ()
            if k_min < 0.0 and 6.0 * delta >= Q2:
                warnings = (
                    f"exponential branch bound b > Q2 fails for delta="
                    f"{delta!r} (needs delta < exp(mu2)/6 = {Q2 / 6.0!r})",)
            for name, value in zip(("Q1", "Q2", "warnings"),
                                   (Q1, Q2, warnings)):
                object.__setattr__(self, name, value)
            return
        lo = (1.0 + delta_tilde) / (3.0 - kappa)
        hi = (1.0 - delta_tilde) / (kappa + 1.0)
        if not lo < hi:
            raise SpecInvalid(
                f"admissible N interval empty for kappa={kappa!r}, "
                f"delta_tilde={delta_tilde!r}"
            )
        if self.N is None:
            object.__setattr__(self, "N", 0.5 * (lo + hi))
        elif not lo < self.N < hi:
            raise SpecInvalid(
                f"N={self.N!r} outside admissible interval ({lo!r}, {hi!r})"
            )

    @property
    def regime(self):
        """The coefficient regime: "kappa_high" for kappa >= 1, else
        "kappa_low"."""
        return "kappa_high" if self.kappa >= 1.0 else "kappa_low"

    def b(self, K, sign):
        """Branch of b at type values K on the side of the sonic curve
        given by sign."""
        if self.regime == "kappa_high":
            if sign > 0:
                return np.exp(2.0 * self.delta * K / self.Q1)
            return np.exp(6.0 * self.delta * K / self.Q2)
        return -self.N * K if sign > 0 else self.N * K

    def c(self, y):
        if self.regime == "kappa_high":
            return 2.0 * (2.0 * self.delta - 1.0) * y
        return -4.0 * self.N * y


def require_domain(grid, spec):
    """Raise ValueError unless ``grid`` lies on ``spec.domain``."""
    if grid.domain != spec.domain:
        raise ValueError(f"grid domain {grid.domain.rects} is not the "
                         f"multiplier's domain {spec.domain.rects}")


@dataclass(frozen=True)
class EnergyReport:
    """Result of one energy-inequality evaluation: the multiplier
    pairing, the squared weighted seminorm, and their ratio (None when
    the seminorm vanishes)."""

    lhs: float
    rhs: float
    ratio: float | None


def verify_energy_inequality(u, spec, grid, decomp=None):
    """Quadrature check of (Mu, Lu) >= delta ||u||_{H1_0(K)}^2, with L
    of drift ``spec.kappa``, on a grid of ``spec.domain``.

    ``u`` must vanish on the boundary nodes (discrete compact support).
    The pairing integral splits cells along the sonic curve because b
    switches branch there.  The bound to compare the ratio with is
    ``spec.delta``.
    """
    require_domain(grid, spec)
    u = np.asarray(u, dtype=float)
    boundary_max = float(np.abs(u[grid.boundary]).max()) if grid.boundary.any() else 0.0
    if boundary_max != 0.0:
        raise ValueError("u must vanish on boundary nodes")
    if decomp is None:
        decomp = decompose_cells(grid)
    ux, uy = gradient(u, grid)
    Lu = apply_L(u, grid, spec.kappa)

    def pairing(sign):
        def fn(K, x, y, uv, uxv, uyv, luv):
            return (-uv + spec.b(K, sign) * uxv
                    + spec.c(y) * uyv) * luv
        return fn

    lhs = integrate_signed(decomp, pairing(+1), pairing(-1),
                           (u, ux, uy, Lu))
    # the square of the seminorm that weighted_norms reports, bit for bit
    rhs = np.sqrt(integrate_h1_density(decomp, ux, uy)) ** 2
    ratio = lhs / rhs if rhs > 0.0 else None
    return EnergyReport(lhs, rhs, ratio)


def bump_coefficients(rng, trials):
    """The polynomial coefficients of ``trials`` random bumps, shape
    (trials, BUMP_DEGREE + 1, BUMP_DEGREE + 1); [t, i, j] multiplies
    X^i Y^j.  Drawing them all at once or one bump at a time gives the
    same bumps."""
    return rng.uniform(-1.0, 1.0,
                       size=(trials, BUMP_DEGREE + 1, BUMP_DEGREE + 1))


def random_interior_bump(domain, rng):
    """Random smooth field vanishing to second order on the bounding
    box boundary: (1-X^2)^2 (1-Y^2)^2 times a random polynomial in the
    box-normalized coordinates X, Y."""
    x0, x1, y0, y1 = domain.bounding_box
    coeffs = bump_coefficients(rng, 1)[0]

    def bump(x, y):
        X = (2.0 * x - (x0 + x1)) / (x1 - x0)
        Y = (2.0 * y - (y0 + y1)) / (y1 - y0)
        return ((1.0 - X ** 2) ** 2 * (1.0 - Y ** 2) ** 2
                * polyval2d(X, Y, coeffs))

    return bump


@dataclass(frozen=True)
class BumpGram:
    """The energy check restricted to the span of the bump basis
    phi_k = (1-X^2)^2 (1-Y^2)^2 X^i Y^j, k = (BUMP_DEGREE + 1) i + j, on
    one grid: the field sum_k alpha_k phi_k (zero on the boundary ring)
    has (Mu, Lu) = alpha^T S alpha and ||u||_{H1_0(K)}^2 = alpha^T W alpha
    under the quadrature of ``verify_energy_inequality``."""

    S: np.ndarray
    W: np.ndarray

    def ratios(self, alphas):
        """(Mu, Lu) / ||u||^2 for each coefficient array in ``alphas``
        (leading axis: trials; the rest flattens in row-major order,
        as ``bump_coefficients``' [t, i, j] of X^i Y^j)."""
        a = np.reshape(alphas, (len(alphas), -1))
        return (np.einsum("ti,ij,tj->t", a, self.S, a)
                / np.einsum("ti,ij,tj->t", a, self.W, a))

    def span_minimum(self):
        """The smallest ratio over the whole span and its coefficients,
        scaled to max-abs 1 with the largest-magnitude entry positive:
        the least eigenvalue of sym(S) x = lambda W x, from the Cholesky
        factor W = L L^T and the eigenvalues of L^-1 sym(S) L^-T.
        Raises numpy.linalg.LinAlgError when W is singular (on grids too
        coarse to tell the basis functions apart)."""
        linv = np.linalg.inv(np.linalg.cholesky(self.W))
        vals, vecs = np.linalg.eigh(linv @ (0.5 * (self.S + self.S.T))
                                    @ linv.T)
        alpha = linv.T @ vecs[:, 0]
        return float(vals[0]), alpha / alpha[np.argmax(np.abs(alpha))]


def _bump_tables(coords, lo, hi, h):
    """1-D bump factors (1 - X^2)^2 X^i on the lattice coordinates, zero
    on the two end nodes (the boundary ring), with their _d1 and _d2
    stencils; each is (BUMP_DEGREE + 1, nodes)."""
    X = (2.0 * coords - (lo + hi)) / (hi - lo)
    p = (1.0 - X ** 2) ** 2 * X ** np.arange(BUMP_DEGREE + 1)[:, None]
    p[:, [0, -1]] = 0.0
    return p, _d1(p, h, 1), _d2(p, h, 1)


def _outer(p, q):
    """Outer products along the rows: row q.shape[0] i + j holds
    p[i] q[j]."""
    return (p[:, None, :] * q[None, :, :]).reshape(-1, p.shape[1])


def _shared_row_sum(C, diag, terms):
    """sum_p c_p (a_p (x) b_p)(e_p (x) f_p)^T over a point set, summed
    over the terms (a, e, b, f) of x row tables a, e and y row tables
    b, f, each (basis, rows): X [[C, 0], [0, diag(diag)]] Y^T with
    X = a (x) e and Y = b (x) f row by row, entry [(i, k), (j, l)] in
    place of [(i, j), (k, l)].  The first m x rows and n y rows, C of
    shape (m, n), are shared: C[r, s] is the coefficient of the point on
    x row r and y row s.  Each later x row pairs with the y row as far
    along, both serving one point whose coefficient is its entry of
    ``diag``."""
    m, n = C.shape
    total = 0.0
    for a, e, b, f in terms:
        X, Y = _outer(a, e), _outer(b, f)
        total = (total + X[:, :m] @ (C @ Y[:, :n].T)
                 + X[:, m:] @ (Y[:, n:] * diag).T)
    return total


def bump_gram(grid, spec):
    """S and W of ``BumpGram`` on a rectangle grid of ``spec.domain`` in
    one quadrature pass, for L of drift ``spec.kappa``.

    Every basis field, its stencil derivatives and L of it are sums of
    products p(x) q(y) of 1-D tables (K = x - y^2 enters as x p'' q -
    p'' y^2 q), and corner averages and bilinear values of such a
    product are products of 1-D interpolations.  Every uncut cell's
    centre takes the x row of its cell column and the y row of its cell
    row; each cut-cell piece has a row of its own.  So each term
    sum_p c_p (a (x) b)(e (x) f)^T of S and W is X C Y^T with C the
    (cell columns x cell rows) lattice of the term's coefficients c_p
    (-w, w b, w c, w |K| or w) at the centres of the uncut cells, read
    from the decomposition's centre lattice, and diagonal in the pieces
    (``_shared_row_sum``): its cost grows as cells x basis, not as
    points x basis^2.

    Raises NumericalFailure when S or W has an entry that is not finite
    (a box so small that h^2 underflows, or so large that the sums
    overflow).
    """
    require_domain(grid, spec)
    if not grid.inside.all():
        raise ValueError("bump_gram needs a rectangle domain")
    with np.errstate(all="ignore"):
        S, W = _bump_gram(grid, spec)
    if not (np.isfinite(S).all() and np.isfinite(W).all()):
        x0, x1, y0, y1 = grid.domain.bounding_box
        raise NumericalFailure(
            f"bump Gram is not finite on the {grid.nx} x {grid.ny} grid "
            f"of the box [{x0!r}, {x1!r}] x [{y0!r}, {y1!r}]")
    return BumpGram(S, W)


def _bump_gram(grid, spec):
    """The S and W of ``bump_gram``, unchecked."""
    dec = decompose_cells(grid)
    pieces = dec.pieces
    x0, x1, y0, y1 = grid.domain.bounding_box
    p, p1, p2 = _bump_tables(grid.xs, x0, x1, grid.hx)
    q, q1, q2 = _bump_tables(grid.ys, y0, y1, grid.hy)
    xtab = np.vstack((p, p1, p2, grid.xs * p2))
    ytab = np.vstack((q, q1, q2, (grid.ys * grid.ys) * q))

    def rows(tab, k, t):
        """tab at each cell column's (row's) centre, then at each
        piece, split into its four 1-D tables."""
        cols = tab.shape[1] - 1
        k = np.concatenate((np.arange(cols), k))
        t = np.concatenate((np.full(cols, 0.5), t))
        return np.vsplit((1.0 - t) * tab[:, k] + t * tab[:, k + 1], 4)

    pi, pj, ptx, pty = (np.concatenate([getattr(s, name) for s in pieces])
                        for name in ("i", "j", "tx", "ty"))
    px, pdx, pdxx, xpdxx = rows(xtab, pi, ptx)
    qy, qdy, qdyy, yyq = rows(ytab, pj, pty)
    pos, neg = dec.uncut
    d = BUMP_DEGREE + 1

    def gram(parts):
        """Sum of _shared_row_sum over (coefficient, terms) parts, the
        coefficient fn(w, K, y, sign) taken on the centre lattice where
        its side is uncut (0 on cut cells) and per piece; permuted from
        [(i, k), (j, l)] to [(i, j), (k, l)]."""
        G = 0.0
        for fn, terms in parts:
            # + 0.0 makes a -0.0 coefficient +0.0, as a sum from 0.0 does
            C = np.where(pos, fn(dec.cell_area, dec.K_centres, dec.yc, 1),
                         np.where(neg, fn(dec.cell_area, dec.K_centres,
                                          dec.yc, -1), 0.0)) + 0.0
            diag = np.concatenate([fn(s.weight, s.K, s.y, s.sign)
                                   for s in pieces])
            G = G + _shared_row_sum(C, diag, terms)
        return G.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d,
                                                                   d * d)

    # L u = (x p'' + kappa p') q - p'' (y^2 q) + p q'' and M u = -u +
    # b u_x + c u_y; each term of S pairs a factor of M u with one of L u
    lu = ((xpdxx + spec.kappa * pdx, qy), (-pdxx, yyq), (px, qdyy))
    mu = ((lambda w, K, y, sign: -w, px, qy),
          (lambda w, K, y, sign: w * spec.b(K, sign), pdx, qy),
          (lambda w, K, y, sign: w * spec.c(y), px, qdy))
    S = gram([(fn, [(a, la, b, lb) for la, lb in lu]) for fn, a, b in mu])
    W = gram([
        (lambda w, K, y, sign: w * np.abs(K), [(pdx, pdx, qy, qy)]),
        (lambda w, K, y, sign: w, [(px, px, qdy, qdy)])])
    return S, W


@dataclass(frozen=True)
class MixedMultiplierSpec:
    """Matrix multiplier M = [[b, c], [-K c, b]] for the mixed problem
    on ``domain``, checked and derived when built.

    b = m K + s_const with m = (mu + delta)/2 on K > 0 and
    (mu - delta)/2 on K < 0; c = mu y - t.  On the bounding box [x0, x1]
    x [y0, y1], where K spans [K_min, K_max] (``Domain.type_range``),
    t = 1 + mu max(y1, 0) (or the next double above mu max(y1, 0)) keeps
    c < 0 and |c| <= c_max = t - mu y0, and s_const = 1 + 2 max(2 c_max
    max(-y0, y1), (mu + delta)/2 max(-K_min, K_max) + sqrt(max(-K_min,
    0)) c_max) keeps m K + s_const and 2 c y + s_const >= 1 and
    b > sqrt(-K) |c| at every point of the box.
    """

    domain: Domain
    mu: float = 1.0
    delta: float = 0.05
    t: float = field(init=False)
    s_const: float = field(init=False)

    def __post_init__(self):
        mu, delta = self.mu, self.delta
        if not mu > 0.0:
            raise SpecInvalid("mu must be positive")
        if not 0.0 < delta < mu:
            raise SpecInvalid("delta must be in (0, mu)")
        _, _, y0, y1 = self.domain.bounding_box
        k_min, k_max = self.domain.type_range
        top = mu * max(0.0, y1)
        # 1 + top can round to top once top reaches 2^53
        t = max(1.0 + top, math.nextafter(top, math.inf))
        c_max = t - mu * y0
        s_const = 1.0 + 2.0 * max(
            2.0 * c_max * max(-y0, y1),
            0.5 * (mu + delta) * max(-k_min, k_max)
            + math.sqrt(max(-k_min, 0.0)) * c_max)
        for name, value in (("t", t), ("s_const", s_const)):
            if not math.isfinite(value):
                raise SpecInvalid(f"{name}={value!r} is not finite for "
                                  f"mu={mu!r} on {self.domain.rects}")
            object.__setattr__(self, name, value)

    def m(self, sign):
        return 0.5 * (self.mu + self.delta) if sign > 0 \
            else 0.5 * (self.mu - self.delta)

    def b(self, K):
        """b at type values K."""
        m = np.where(K >= 0.0, self.m(+1), self.m(-1))
        return m * K + self.s_const

    def c(self, y):
        return self.mu * y - self.t

    def matrix(self, K, y):
        """The 2x2 multiplier matrix at a point of type value K and
        ordinate y."""
        b = self.b(K)
        c = self.c(y)
        return np.array([[b, c], [-K * c, b]])

    def proviso_density(self, K, y, f1, f2):
        """|diag(1/|K|, 1) M^T (f1, f2)|^2 at points of type values K and
        ordinates y: the integrand of the mixed problem's proviso
        int |K^(-1) M^T f|^2."""
        (m11, m12), (m21, m22) = self.matrix(K, y)
        w1 = (m11 * f1 + m21 * f2) / np.abs(K)
        w2 = m12 * f1 + m22 * f2
        return w1 * w1 + w2 * w2


@dataclass(frozen=True)
class SegmentReport:
    """Sign check of one boundary segment: the extremes of b dy - c dx on
    G, or of K (b dy - c dx) off G, with (dx, dy) its unit tangent."""

    name: str
    in_G: bool
    min_value: float
    max_value: float
    admissible: bool


@dataclass(frozen=True)
class BoundaryReport:
    segments: tuple
    admissible: bool


def boundary_admissible(G, spec, orientation=1):
    """Check the mixed problem's boundary sign conditions per segment of
    ``spec.domain``, with (dx, dy) the segment's unit tangent.

    On segments in G the requirement is b dy - c dx <= 0; elsewhere
    K (b dy - c dx) >= 0, both to within SIGN_TOL.  ``orientation`` = -1
    traverses the boundary clockwise (flipping every sign).  Along a
    segment (y fixed, or dx = 0) both are monotone in K, as s_const >
    2 m |K| makes b and K b increasing: their extremes are at the
    segment's two extremes of K (``grid.box_type_range``).
    """
    G = set(G)
    reports = []
    for seg in spec.domain.boundary_segments():
        (xa, ya), (xb, yb) = seg.start, seg.end
        K = np.array(box_type_range(*sorted((xa, xb)), *sorted((ya, yb))))
        dx, dy = seg.delta
        length = orientation * math.hypot(dx, dy)
        q = spec.b(K) * (dy / length) - spec.c(ya) * (dx / length)
        in_g = seg.name in G
        vals = q if in_g else K * q
        ok = vals.max() <= SIGN_TOL if in_g else vals.min() >= -SIGN_TOL
        reports.append(SegmentReport(seg.name, in_g, float(vals.min()),
                                     float(vals.max()), bool(ok)))
    return BoundaryReport(tuple(reports), all(r.admissible for r in reports))
