"""Electrostatic-wave equations in layered and 2D-inhomogeneous media.

Covers the plane-layered first-order ODE for psi = phi_x, the
coefficients of the 2D potential equation, type classification from the
K11*K33 product, sonic conditions, singular points of the sonic line,
and the scaled local normal form near such a point.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LayeredNotConverged, SingularCoefficient
from .fields import Field1D
from .quadrature import _corners

TYPE_PRODUCT_TOL = 1e-14
SONIC_TOL = 1e-12
# Samples of K11 in _require_nonvanishing.
NONVANISHING_SAMPLES = 257
# integrate_layered: first-pass RK4 steps, acceptance tolerance, halvings.
LAYERED_STEPS0 = 64
LAYERED_RTOL = 1e-9
LAYERED_MAX_HALVINGS = 14
# singular_points_on_sonic_line: search cells per axis, Newton residual
# tolerance and iteration limit.
SONIC_SEARCH_CELLS = 64
SONIC_RESIDUAL_TOL = 1e-8
SONIC_MAX_NEWTON = 50


def layered_sigma0(k2, k3, tensor, x, z=0.0):
    """First-order coefficient sigma0 = k3 (K13+K31) + k2 (K12+K21) of
    the plane-layered equation, evaluated at x (layering axis)."""
    return (k3 * (tensor.K13(x, z) + tensor.K31(x, z))
            + k2 * (tensor.K12(x, z) + tensor.K21(x, z)))


@dataclass(frozen=True)
class LayeredProblem:
    """Plane-layered medium: leading coefficient K11(x), constant
    sigma0, and an interval on which K11 must not vanish."""

    K11: Field1D
    sigma0: float
    x_range: tuple

    def __post_init__(self):
        x0, x1 = self.x_range
        if not x0 < x1:
            raise ValueError("x_range must be increasing")
        _require_nonvanishing(self.K11, x0, x1)


def _require_nonvanishing(k11, x0, x1):
    vals = np.asarray(k11(np.linspace(x0, x1, NONVANISHING_SAMPLES)),
                      dtype=float)
    if np.any(vals == 0.0) or vals.min() < 0.0 < vals.max():
        raise SingularCoefficient(f"K11 vanishes on [{x0!r}, {x1!r}]")


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
    """Integrate K11 psi' + (K11' + i sigma0) psi = 0 from x0 to x1.

    Classical fixed-step RK4 with step halving until the endpoint value
    changes by less than LAYERED_RTOL (relative).  Returns the solution
    sampled at the accepted resolution.  Raises SingularCoefficient if
    K11 vanishes on [x0, x1], and LayeredNotConverged if the endpoint
    still changes after LAYERED_MAX_HALVINGS halvings; the closed form
    is psi0 * K11(x0)/K11(x) * exp(-i sigma0 * integral dt/K11).
    """
    lo, hi = problem.x_range
    if not (lo <= x0 < x1 <= hi):
        raise ValueError("[x0, x1] must lie inside the problem's x_range")
    _require_nonvanishing(problem.K11, x0, x1)
    k11, i_s0 = problem.K11, 1j * problem.sigma0

    def run(n):
        # psi' = c psi, c = -(K11' + i sigma0) / K11: an RK4 step multiplies
        # psi by 1 + d, d = h/6 (k1 + 2 k2 + 2 k3 + k4) per unit psi.  Rounding
        # 1 + d drops the same low bits of Re d at every step, so the product
        # of rounded factors f is corrected by 1 + cumsum(exact loss / f)
        h = (x1 - x0) / n
        xs = np.linspace(x0, x1, n + 1)
        c, mid = (-(k11.dx(t) + i_s0) / k11(t)
                  for t in (xs, xs[:-1] + 0.5 * h))
        k = mid * (1.0 + 0.5 * h * c[:-1])              # k2
        d = c[:-1] + 2.0 * k
        k = mid * (1.0 + 0.5 * h * k)                   # k3
        d += 2.0 * k + c[1:] * (1.0 + h * k)            # 2 k3 + k4
        d *= h / 6.0
        psi = np.empty(n + 1, dtype=complex)
        psi[0], psi[1:] = psi0, 1.0 + d
        np.divide(d.real - (psi[1:].real - 1.0), psi[1:], out=d)
        np.cumprod(psi, out=psi)
        psi[1:] *= 1.0 + np.cumsum(d, out=d)
        return xs, psi

    n = LAYERED_STEPS0
    end = run(n)[1][-1]
    for _ in range(LAYERED_MAX_HALVINGS):
        n *= 2
        xs, psi = run(n)
        ref = max(abs(psi[-1]), abs(psi0), 1e-300)
        change = abs(psi[-1] - end)
        if change <= LAYERED_RTOL * ref:
            return LayeredSolution(xs, psi, n)
        end = psi[-1]
    raise LayeredNotConverged(
        f"layered RK4 did not converge (relative end-value change "
        f"{change / ref:.3e} at {n} steps, tolerance {LAYERED_RTOL:g})")


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


def sonic_condition(K, eta, theta):
    """Which sonic alternative holds: 'sonic_K' if K = 0,
    'sonic_angle' if K sin^2(theta) + eta cos^2(theta) = 0, else 'none'
    (zero meaning within SONIC_TOL)."""
    if abs(K) <= SONIC_TOL:
        return "sonic_K"
    value = K * math.sin(theta) ** 2 + eta * math.cos(theta) ** 2
    if abs(value) <= SONIC_TOL:
        return "sonic_angle"
    return "none"


@dataclass(frozen=True)
class SonicPointSearch:
    """Singular points of the sonic line K11 = 0 (where additionally
    K11_z = 0).  ``degenerate`` marks plane-layered fields whose
    z-derivative vanishes identically: there the tangency condition
    holds along entire sonic lines and no discrete list is meaningful."""

    points: tuple
    degenerate: bool = False


def singular_points_on_sonic_line(k11, box):
    """Points in the box where K11 = 0 and K11_z = 0 simultaneously.

    Candidate cells, in row-major order, are those of a
    SONIC_SEARCH_CELLS-square lattice whose corners bracket zero in both
    functions; each is refined by damped 2D Newton until both residuals
    drop below SONIC_RESIDUAL_TOL.  Duplicates within half a cell merge.
    """
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

    def newton(x, z):
        h = 1e-6 * max(abs(x1 - x0), abs(z1 - z0))
        for _ in range(SONIC_MAX_NEWTON):
            F = np.array([k11(x, z), k11.dz(x, z)])
            if (abs(F[0]) < SONIC_RESIDUAL_TOL
                    and abs(F[1]) < SONIC_RESIDUAL_TOL):
                return x, z
            J = np.array([
                [k11.dx(x, z), k11.dz(x, z)],
                [(k11.dz(x + h, z) - k11.dz(x - h, z)) / (2 * h),
                 (k11.dz(x, z + h) - k11.dz(x, z - h)) / (2 * h)],
            ])
            try:
                step = np.linalg.solve(J, F)
            except np.linalg.LinAlgError:
                return None
            t = 1.0
            norm0 = np.abs(F).max()
            while t > 1e-6:
                xn, zn = x - t * step[0], z - t * step[1]
                if max(abs(k11(xn, zn)), abs(k11.dz(xn, zn))) < norm0:
                    x, z = xn, zn
                    break
                t *= 0.5
            else:
                return None
        F = np.array([k11(x, z), k11.dz(x, z)])
        if abs(F[0]) < SONIC_RESIDUAL_TOL and abs(F[1]) < SONIC_RESIDUAL_TOL:
            return x, z
        return None

    found = []
    min_sep = 0.5 * min(x1 - x0, z1 - z0) / n
    for i, j in np.argwhere(straddles(f) & straddles(g)):
        res = newton(0.5 * (xs[i] + xs[i + 1]), 0.5 * (zs[j] + zs[j + 1]))
        if res is None:
            continue
        x, z = res
        if not (x0 - min_sep <= x <= x1 + min_sep
                and z0 - min_sep <= z <= z1 + min_sep):
            continue
        if all(math.hypot(x - px, z - pz) > min_sep for px, pz in found):
            found.append((x, z))
    found.sort()
    return SonicPointSearch(tuple(found))


@dataclass(frozen=True)
class NormalFormModel:
    """Local model near a singular sonic point: K11 = x/a + z^2/b with
    K33 = -eta0 < 0, plus the constant of the scaled equation."""

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


@dataclass(frozen=True)
class NormalFormDescriptor:
    """Scaled model equation near the singular sonic point.

    In standard orientation the operator is
        -(xt + A zt^2) d_xtxt + d_ztzt - d_xt,      xt = x/a,
    and in flipped orientation (xt = -x/a)
        (xt - A zt^2) d_xtxt + d_ztzt + d_xt,
    whose highest-order part with A = 1 is the canonical model
    (x - y^2) u_xx + u_yy.  In both, zt = z / (a sqrt(eta0)).
    """

    orientation: str
    A_const: float
    x_scale: float      # xt = x / x_scale (sign included)
    z_scale: float      # zt = z / z_scale
    drift: float        # coefficient of d_xt

    def xx_coefficient(self, xt, zt):
        """Coefficient of the second xt-derivative in scaled coordinates."""
        if self.orientation == "standard":
            return -(xt + self.A_const * zt * zt)
        return xt - self.A_const * zt * zt

    def to_scaled(self, x, z):
        return x / self.x_scale, z / self.z_scale

    def from_scaled(self, xt, zt):
        return xt * self.x_scale, zt * self.z_scale


def normal_form(model):
    """Scaled-equation descriptor for the given local model."""
    sign = 1.0 if model.orientation == "standard" else -1.0
    return NormalFormDescriptor(
        orientation=model.orientation,
        A_const=model.A_const,
        x_scale=sign * model.a,
        z_scale=model.a * math.sqrt(model.eta0),
        drift=-1.0 if model.orientation == "standard" else 1.0,
    )
