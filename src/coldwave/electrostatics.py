"""Electrostatic-wave equations in layered and 2D-inhomogeneous media.

Covers the plane-layered first-order ODE for psi = phi_x, the
coefficients of the 2D potential equation, type classification from the
K11*K33 product, the singular points of the sonic line K11 = 0 (its
Keldysh points by ``typegeometry.canonical_case_classify``, refined by
SciPy's root finder), and the scaled local normal form near such a
point (``NormalForm``, one object holding the local model and its
scaled equation).  The plane-layered leading coefficient K11 is a plain
callable of x, which ``config.parse_layered`` builds from a ``Field2D``
at z = 0; only its values are read.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LayeredNotConverged, SingularCoefficient
from .grid import _corners
from .typegeometry import canonical_case_classify

TYPE_PRODUCT_TOL = 1e-14
# _require_nonvanishing: samples of K11, golden-section steps (each
# shrinks a bracket by 0.618, and 0.618^80 < 2e-17 takes it to the
# spacing of doubles) and the rounding level of |K11| in units of
# eps max|K11|.
NONVANISHING_SAMPLES = 257
NONVANISHING_GOLDEN_STEPS = 80
NONVANISHING_ROUNDING = 64
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# integrate_layered: first-pass cells, phase tolerance, cell limit, and
# the 4-point Gauss-Legendre nodes and weights on [-1, 1].
LAYERED_CELLS0 = 64
LAYERED_RTOL = 1e-9
LAYERED_MAX_CELLS = 2 ** 20
_GAUSS_NODES = np.array([-1.0, -1.0, 1.0, 1.0]) * np.sqrt(
    3 / 7 + np.array([2.0, -2.0, -2.0, 2.0]) / 7 * math.sqrt(6 / 5))
_GAUSS_WEIGHTS = 0.5 - np.array([1.0, -1.0, -1.0, 1.0]) * math.sqrt(30) / 36
# singular_points_on_sonic_line: search cells per axis.
SONIC_SEARCH_CELLS = 64


@dataclass(frozen=True)
class LayeredProblem:
    """Plane-layered medium: leading coefficient K11(x), constant
    sigma0, and an interval on which K11 must not vanish.  K11 is a
    callable that returns an array of x's shape for an array x."""

    K11: object
    sigma0: float
    x_range: tuple

    def __post_init__(self):
        x0, x1 = self.x_range
        if not x0 < x1:
            raise ValueError("x_range must be increasing")
        _require_nonvanishing(self.K11, x0, x1)


def _require_nonvanishing(k11, x0, x1):
    """Raise SingularCoefficient if K11 vanishes on [x0, x1]: a sample
    is 0, two samples differ in sign, or |K11| falls to rounding level
    (NONVANISHING_ROUNDING eps max|K11|) at the minimum that a
    golden-section search finds next to a local minimum of the sampled
    |K11|, end samples included, where K11 may touch 0 between
    samples."""
    xs = np.linspace(x0, x1, NONVANISHING_SAMPLES)
    vals = k11(xs)
    if np.shape(vals) != xs.shape:
        raise ValueError("K11 must return an array of x's shape for an "
                         "array x")
    vals = np.asarray(vals, dtype=float)
    if np.any(vals == 0.0) or vals.min() < 0.0 < vals.max():
        raise SingularCoefficient(f"K11 vanishes on [{x0!r}, {x1!r}]")
    a = np.abs(vals)
    ends = np.concatenate(([np.inf], a, [np.inf]))
    k = np.flatnonzero((a < ends[:-2]) & (a <= ends[2:]))
    if k.size == 0:
        return
    lo, hi = xs[np.maximum(k - 1, 0)], xs[np.minimum(k + 1, xs.size - 1)]
    for _ in range(NONVANISHING_GOLDEN_STEPS):
        c, d = hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo)
        f = np.abs(np.asarray(k11(np.concatenate((c, d))), dtype=float))
        left = f[:k.size] < f[k.size:]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
    low = np.abs(np.asarray(k11(0.5 * (lo + hi)), dtype=float)).min()
    if low <= NONVANISHING_ROUNDING * np.finfo(float).eps * a.max():
        raise SingularCoefficient(f"K11 touches 0 on [{x0!r}, {x1!r}]")


@dataclass(frozen=True)
class LayeredSolution:
    """Sampled complex solution psi(x) = phi_x(x)."""

    xs: np.ndarray
    psi: np.ndarray
    steps: int

    @property
    def end_value(self):
        return self.psi[-1]


def integrate_layered(problem, psi0, x0, x1):
    """Solve K11 psi' + (K11' + i sigma0) psi = 0 from x0 to x1.

    This is (K11 psi)' = -i sigma0 psi, so psi = psi0 K11(x0)/K11(x)
    exp(-i sigma0 tau(x)) with tau = integral from x0 of dt/K11, summed by
    4-point Gauss-Legendre over LAYERED_CELLS0 uniform cells.  Each pass
    bisects every cell whose whole-cell and two half-cell estimates of
    sigma0 tau differ by more than LAYERED_RTOL times the larger of its
    share of [x0, x1] and of integral |1/K11|; psi is sampled on the cell
    edges.  x0 < x1 must hold and [x0, x1] must lie inside
    ``problem.x_range``, on which the problem checked when built that K11
    does not vanish; a ValueError names the condition that fails.  Raises
    LayeredNotConverged before the cells would pass LAYERED_MAX_CELLS or
    when the rounding of sigma0 tau exceeds LAYERED_RTOL or is NaN.
    """
    lo, hi = problem.x_range
    where = f"x0={x0!r}, x1={x1!r}, x_range=[{lo!r}, {hi!r}]"
    if not x0 < x1:
        raise ValueError(f"x0 must be below x1 ({where})")
    if not lo <= x0 < x1 <= hi:
        raise ValueError(f"[x0, x1] must lie inside the problem's x_range "
                         f"({where})")
    k11, sigma0 = problem.K11, problem.sigma0

    def gauss(a, b):
        half = 0.5 * (b - a)
        t = (a + half)[:, None] + half[:, None] * _GAUSS_NODES
        return half * ((1.0 / k11(t)) @ _GAUSS_WEIGHTS)

    xs = np.linspace(x0, x1, LAYERED_CELLS0 + 1)
    while True:
        a, b = xs[:-1], xs[1:]
        mid = 0.5 * (a + b)
        halves = gauss(a, mid) + gauss(mid, b)
        share = np.maximum((b - a) / (x1 - x0),
                           np.abs(halves) / np.abs(halves).sum())
        change = abs(sigma0) * np.abs(halves - gauss(a, b)) / share
        split = np.flatnonzero(change > LAYERED_RTOL)
        # no pass can settle below the rounding of sigma0 tau, or on a NaN
        floor = abs(sigma0) * np.abs(halves).sum() * np.finfo(float).eps
        if (not floor <= LAYERED_RTOL
                or halves.size + split.size > LAYERED_MAX_CELLS):
            raise LayeredNotConverged(
                f"layered quadrature did not converge (relative phase change "
                f"{change.max():.3e}, rounding {floor:.3e} at {halves.size} "
                f"cells, tolerance {LAYERED_RTOL:g})")
        if split.size == 0:
            break
        xs = np.insert(xs, split + 1, mid[split])
    k, tau = k11(xs), np.concatenate(([0.0], np.cumsum(halves)))
    psi = psi0 * (k[0] / k * np.exp(-1j * sigma0 * tau))
    return LayeredSolution(xs, psi, halves.size)


@dataclass(frozen=True)
class PDECoefficients:
    """Coefficients of the 2D potential equation
    K11 phi_xx + 2 sigma phi_xz + K33 phi_zz + alpha1 phi_x
    + alpha2 phi_z = 0 at one point."""

    sigma: complex
    alpha1: complex
    alpha2: complex
    K11: complex
    K33: complex


def pde_coefficients(tensor, k2, x, z):
    """Pointwise coefficients of the 2D electrostatic equation:
    2 sigma = K13 + K31,
    alpha1 = K11_x + i k2 (K12 + K21) + K31_z,
    alpha2 = K13_x + i k2 (K23 + K32) + K33_z.
    """
    sigma = 0.5 * (tensor.K13(x, z) + tensor.K31(x, z))
    alpha1 = (tensor.K11.dx(x, z)
              + 1j * k2 * (tensor.K12(x, z) + tensor.K21(x, z))
              + tensor.K31.dz(x, z))
    alpha2 = (tensor.K13.dx(x, z)
              + 1j * k2 * (tensor.K23(x, z) + tensor.K32(x, z))
              + tensor.K33.dz(x, z))
    return PDECoefficients(sigma, alpha1, alpha2,
                           tensor.K11(x, z), tensor.K33(x, z))


def type_from_product(K11, K33):
    """Equation type from the sign of K11*K33: 'elliptic' (> 0),
    'hyperbolic' (< 0), or 'parabolic' (zero within TYPE_PRODUCT_TOL).
    For array arguments the result is an array of these names."""
    product = np.multiply(K11, K33)
    kind = np.where(np.abs(product) <= TYPE_PRODUCT_TOL, "parabolic",
                    np.where(product > 0.0, "elliptic", "hyperbolic"))
    return kind if kind.ndim else str(kind)


@dataclass(frozen=True)
class SonicPointSearch:
    """Singular points of the sonic line K11 = 0: the Keldysh points,
    where K11_z = 0 as well, by ``typegeometry.canonical_case_classify``.
    ``degenerate`` marks plane-layered fields whose z-derivative
    vanishes identically: there the tangency condition holds along
    entire sonic lines and no discrete list is meaningful."""

    points: tuple
    degenerate: bool = False


def singular_points_on_sonic_line(k11, box):
    """Keldysh points of K11 in the box: points where K11 = 0 and
    K11_z = 0, as ``typegeometry.canonical_case_classify`` decides.

    Candidate cells, in row-major order, are those of a
    SONIC_SEARCH_CELLS-square lattice whose corners bracket zero in both
    functions; each is refined by ``scipy.optimize.root`` on
    (K11, K11_z) from the cell centre, and the root is kept exactly when
    ``canonical_case_classify`` calls it a ``keldysh_point``.  Duplicates
    within half a cell merge.
    """
    # imported here: typemap and layered import this module and need no
    # SciPy
    from scipy.optimize import root

    x0, x1, z0, z1 = box
    n = SONIC_SEARCH_CELLS
    xs, zs = np.linspace(x0, x1, n + 1), np.linspace(z0, z1, n + 1)
    X, Z = np.meshgrid(xs, zs, indexing="ij")
    f, g = (np.asarray(fn(X, Z), dtype=float) for fn in (k11, k11.dz))
    every = max(1, n // 8)
    fx_scale = np.abs(k11.dx(X[::every, ::every], Z[::every, ::every])).max()
    if np.max(np.abs(g)) <= 1e-12 * max(1.0, fx_scale):
        return SonicPointSearch((), degenerate=True)

    def straddles(F):
        return ((np.minimum.reduce(_corners(F)) <= 0.0)
                & (np.maximum.reduce(_corners(F)) >= 0.0))

    found = []
    min_sep = 0.5 * min(x1 - x0, z1 - z0) / n
    for i, j in np.argwhere(straddles(f) & straddles(g)):
        # the Jacobian's difference step, sqrt(eps) |x|, is by default
        # below the noise of a central-difference K11_z (Field2D's) near 0
        x, z = root(lambda p: [k11(*p), k11.dz(*p)],
                    [0.5 * (xs[i] + xs[i + 1]), 0.5 * (zs[j] + zs[j + 1])],
                    options={"eps": 1e-8}).x
        if canonical_case_classify(k11, (x, z)) != "keldysh_point":
            continue
        if not (x0 - min_sep <= x <= x1 + min_sep
                and z0 - min_sep <= z <= z1 + min_sep):
            continue
        if all(math.hypot(x - px, z - pz) > min_sep for px, pz in found):
            found.append((x, z))
    found.sort()
    return SonicPointSearch(tuple(found))


@dataclass(frozen=True)
class NormalForm:
    """Local model near a singular sonic point, K11 = x/a + z^2/b with
    K33 = -eta0 < 0, and its scaled equation.

    In standard orientation the operator is
        -(xt + A zt^2) d_xtxt + d_ztzt - d_xt,      xt = x/a,
    and in flipped orientation (xt = -x/a)
        (xt - A zt^2) d_xtxt + d_ztzt + d_xt,
    whose highest-order part with A = 1 is the canonical model
    (x - y^2) u_xx + u_yy.  In both, zt = z / (a sqrt(eta0)).
    """

    a: float
    b: float
    eta0: float
    A_const: float = 1.0
    orientation: str = "standard"

    def __post_init__(self):
        if self.a == 0.0:
            raise ValueError("a must be nonzero")
        if self.eta0 <= 0.0:
            raise ValueError("eta0 must be positive")
        if self.orientation not in ("standard", "flipped"):
            raise ValueError("orientation must be 'standard' or 'flipped'")

    @property
    def x_scale(self):
        """xt = x / x_scale (sign included)."""
        return self.a if self.orientation == "standard" else -self.a

    @property
    def z_scale(self):
        """zt = z / z_scale."""
        return self.a * math.sqrt(self.eta0)

    @property
    def drift(self):
        """Coefficient of d_xt."""
        return -1.0 if self.orientation == "standard" else 1.0

    def xx_coefficient(self, xt, zt):
        """Coefficient of the second xt-derivative in scaled coordinates."""
        if self.orientation == "standard":
            return -(xt + self.A_const * zt * zt)
        return xt - self.A_const * zt * zt

    def to_scaled(self, x, z):
        return x / self.x_scale, z / self.z_scale

    def from_scaled(self, xt, zt):
        return xt * self.x_scale, zt * self.z_scale
