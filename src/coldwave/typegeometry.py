"""Type-change geometry of the model operator (x - y^2) u_xx + u_yy.

Tricomi/Keldysh point classification on a sonic curve, characteristic
directions and tracing in the hyperbolic region, the four
characteristics through the origin, and the Fourier symbols of the
curl-curl and Coulomb-gauge operators.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import StartNotHyperbolic

CLASSIFY_RTOL = 1e-10


def canonical_type_function(x, y):
    """Type-change coefficient x - y^2 of the model operator."""
    return x - y * y


def canonical_case_classify(field, point):
    """Classify a point against the sonic set of a type-change field.

    'not_on_sonic' when the field is nonzero there; on the sonic set,
    'keldysh_point' when the z-derivative vanishes too (degenerate
    tangency, weaker regularity expected) and 'tricomi_point' otherwise.
    ``field`` is a Field2D, read as ``field(x, y)``, ``.dx`` and ``.dz``;
    the model's own x - y^2 is ``Field2D.affine_quadratic(1.0, -1.0)``.
    The tolerance is CLASSIFY_RTOL scaled by the local gradient
    magnitude.  A point where the field is NaN is 'not_on_sonic'.
    """
    x, y = point
    val = field(x, y)
    gx, gy = field.dx(x, y), field.dz(x, y)
    tol = CLASSIFY_RTOL * (1.0 + math.hypot(abs(gx), abs(gy)))
    if not abs(val) <= tol:
        return "not_on_sonic"
    if abs(gy) <= tol:
        return "keldysh_point"
    return "tricomi_point"


def characteristic_directions(point):
    """Unit tangents of the characteristics of (x-y^2) dy^2 + dx^2 = 0.

    Two directions (dx/dy = +/- sqrt(y^2-x)) in the hyperbolic region,
    one degenerate tangential direction on the sonic line, none in the
    elliptic region.
    """
    x, y = point
    h2 = y * y - x
    if h2 > 0.0:
        slope = math.sqrt(h2)
        norm = math.hypot(slope, 1.0)
        return [(slope / norm, 1.0 / norm), (-slope / norm, 1.0 / norm)]
    if h2 == 0.0:
        return [(0.0, 1.0)]
    return []


@dataclass(frozen=True)
class CharacteristicPath:
    """Traced characteristic: point list, branch sign, and why the
    trace stopped."""

    points: np.ndarray
    branch: int
    termination: str


def trace_characteristic(start, branch, h, domain=None, max_steps=200000):
    """Trace a characteristic of the model operator from a hyperbolic
    start point toward the axis y = 0.

    Integrates dx/dy = branch * sqrt(y^2 - x) with RK4 in steps of
    magnitude ``h`` (advancing y toward 0; a start on the axis marches
    upward).  Steps shrink near the sonic line, where the square root
    loses smoothness.  Stops with termination 'reached_sonic' when
    y^2 - x < h^2, 'reached_origin_ball' when |(x,y)| < 10 h,
    'reached_boundary' on leaving ``domain`` (x0, x1, y0, y1), else
    'step_limit'.
    """
    x, y = float(start[0]), float(start[1])
    if branch not in (-1, 1):
        raise ValueError("branch must be +1 or -1")
    if h <= 0.0:
        raise ValueError("h must be positive")
    if y * y - x <= 0.0:
        raise StartNotHyperbolic(f"start {start!r} has x >= y^2")

    direction = -1.0 if y > 0.0 else 1.0
    if domain is not None:
        x0, x1, y0, y1 = domain
    h2, ball = h * h, 10.0 * h
    sqrt, hypot = math.sqrt, math.hypot
    xs, ys = [x], [y]
    termination = "step_limit"
    for _ in range(max_steps):
        if hypot(x, y) < ball:
            termination = "reached_origin_ball"
            break
        gap = y * y - x
        if gap < h2:
            termination = "reached_sonic"
            break
        if domain is not None and not (x0 <= x <= x1 and y0 <= y <= y1):
            termination = "reached_boundary"
            break
        # slopes branch sqrt(max(y^2 - x, 0)); the step shrinks while
        # the sonic line is close.  The conditionals are max(v, 0.0) and
        # min(h, z) with the builtins' operand order, so NaN and signed
        # zeros pass as they would.
        k1 = branch * sqrt(gap)
        z = 0.5 * gap / (abs(k1) + h)
        step = direction * (z if z < h else h)
        ym = y + 0.5 * step
        v = ym * ym - (x + 0.5 * step * k1)
        k2 = branch * sqrt(0.0 if 0.0 > v else v)
        v = ym * ym - (x + 0.5 * step * k2)
        k3 = branch * sqrt(0.0 if 0.0 > v else v)
        y_next = y + step
        v = y_next * y_next - (x + step * k3)
        k4 = branch * sqrt(0.0 if 0.0 > v else v)
        x = x + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = y_next
        xs.append(x)
        ys.append(y)
    return CharacteristicPath(np.column_stack((xs, ys)), branch, termination)


@dataclass(frozen=True)
class OriginCharacteristics:
    """Parabolas x = lambda y^2 through the origin that satisfy the
    characteristic equation; two slopes, each with two branches, give
    four characteristics at the origin."""

    polynomial: tuple   # coefficients (4, 1, -1) of 4 L^2 + L - 1
    roots: tuple
    count: int


def origin_characteristics():
    """Characteristics through the origin of (x-y^2) dy^2 + dx^2 = 0.

    Substituting x = lambda y^2 gives 4 lambda^2 + lambda - 1 = 0 with
    two real roots (-1 +/- sqrt(17))/8; with the two branch signs this
    makes four characteristics, two more than through any other
    hyperbolic point.
    """
    disc = math.sqrt(17.0)
    return OriginCharacteristics(
        polynomial=(4.0, 1.0, -1.0),
        roots=((-1.0 + disc) / 8.0, (-1.0 - disc) / 8.0),
        count=4,
    )


def curl_curl_symbol(k):
    """Fourier symbol matrix of curl curl (negated double-curl form) and
    its determinant, which vanishes identically in k."""
    k1, k2, k3 = k
    M = np.array([
        [-(k2 * k2 + k3 * k3), k1 * k2, k1 * k3],
        [k2 * k1, -(k3 * k3 + k1 * k1), k2 * k3],
        [k3 * k1, k3 * k2, -(k1 * k1 + k2 * k2)],
    ])
    return M, float(np.linalg.det(M))


def coulomb_gauge_symbol(K, k):
    """Symbol sigma = -|k|^4 (K k) . k of the Coulomb-gauge system;
    a homogeneous polynomial of degree six in k."""
    k = np.asarray(k, dtype=float)
    entries = K.entries if hasattr(K, "entries") else np.asarray(K)
    kk = float(k @ k)
    return -(kk * kk) * complex(k @ (entries @ k))
