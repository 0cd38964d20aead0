"""Scalar fields of (x, z) with their partial derivatives.

``Field2D`` is the one field type: the dielectric-tensor entries, the
sonic-line model x/a + z^2/b (which with a = 1, b = -1 is the
type-change function x - y^2 of the model operator) and tabulated
fields.  Analytic partial derivatives may be supplied; otherwise an
O(h^2) central-difference fallback with step h = 1e-6 * scale is used.
Evaluators are deterministic and may return complex values.  A field of
one variable, such as the leading coefficient of the layered equation,
is a plain callable.
"""

from dataclasses import dataclass, field

import numpy as np

FD_STEP_FACTOR = 1e-6


def _broadcast(value, *at):
    """An evaluator's value at the coordinates ``at``, a scalar result
    (a constant field's) broadcast to their common array shape."""
    shape = np.broadcast(*at).shape
    return value if np.shape(value) == shape else np.broadcast_to(value, shape)


def _central(fn, scale, axis):
    """O(h^2) central difference of fn in its argument ``axis``, step
    h = FD_STEP_FACTOR * scale: the fallback for a missing derivative."""
    h = FD_STEP_FACTOR * scale

    def derivative(*at):
        up, down = list(at), list(at)
        up[axis], down[axis] = at[axis] + h, at[axis] - h
        return (fn(*up) - fn(*down)) / (2.0 * h)

    return derivative


class Field2D:
    """Scalar function of (x, z) with partial-derivative evaluators.

    The field and its derivatives take floats or ndarrays, evaluated
    elementwise, and so must ``fn``, ``dfdx`` and ``dfdz``; a scalar
    result, such as a constant field's, is broadcast to the common shape
    of the arguments."""

    def __init__(self, fn, dfdx=None, dfdz=None, scale=1.0):
        self.scale = float(scale)
        self._fn = fn
        self._dfdx = dfdx or _central(fn, self.scale, 0)
        self._dfdz = dfdz or _central(fn, self.scale, 1)

    def __call__(self, x, z):
        return _broadcast(self._fn(x, z), x, z)

    def dx(self, x, z):
        return _broadcast(self._dfdx(x, z), x, z)

    def dz(self, x, z):
        return _broadcast(self._dfdz(x, z), x, z)

    @classmethod
    def constant(cls, value):
        zero = 0.0 * value
        return cls(lambda x, z: value, lambda x, z: zero, lambda x, z: zero)

    @classmethod
    def affine_quadratic(cls, a, b):
        """The local sonic-line model x/a + z^2/b."""
        if a == 0.0 or b == 0.0:
            raise ValueError("affine_quadratic needs nonzero scales a, b")
        return cls(
            lambda x, z: x / a + z * z / b,
            lambda x, z: 1.0 / a,
            lambda x, z: 2.0 * z / b,
        )

    @classmethod
    def from_table(cls, xs, zs, values):
        """Bilinear interpolant of a sampled field (derivatives by the
        central-difference fallback, step scaled to the sample spacing).
        ``xs`` and ``zs`` are strictly increasing, with two entries or
        more, and ``values`` has shape (len(xs), len(zs)); the reader of
        a field file (``config.parse_field``) checks this."""
        xs, zs = np.asarray(xs, dtype=float), np.asarray(zs, dtype=float)
        values = np.asarray(values, dtype=float)

        def interp(x, z):
            i = np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2)
            j = np.clip(np.searchsorted(zs, z) - 1, 0, zs.size - 2)
            tx = (x - xs[i]) / (xs[i + 1] - xs[i])
            tz = (z - zs[j]) / (zs[j + 1] - zs[j])
            return ((1 - tx) * (1 - tz) * values[i, j]
                    + tx * (1 - tz) * values[i + 1, j]
                    + (1 - tx) * tz * values[i, j + 1]
                    + tx * tz * values[i + 1, j + 1])

        scale = min(np.diff(xs).min(), np.diff(zs).min())
        return cls(interp, scale=scale)


def _zero_field():
    return Field2D.constant(0.0)


@dataclass(frozen=True)
class TensorField2D:
    """Dielectric-tensor entries over (x, z) that enter the 2D
    electrostatic reduction (K22 never appears there)."""

    K11: Field2D = field(default_factory=_zero_field)
    K12: Field2D = field(default_factory=_zero_field)
    K13: Field2D = field(default_factory=_zero_field)
    K21: Field2D = field(default_factory=_zero_field)
    K23: Field2D = field(default_factory=_zero_field)
    K31: Field2D = field(default_factory=_zero_field)
    K32: Field2D = field(default_factory=_zero_field)
    K33: Field2D = field(default_factory=_zero_field)

    @classmethod
    def from_stix(cls, stix):
        """Uniform tensor of a longitudinal-field plasma: K11 = s,
        K12 = -i d, K21 = i d, K33 = p, remaining entries zero."""
        return cls(
            K11=Field2D.constant(stix.s),
            K12=Field2D.constant(-1j * stix.d),
            K21=Field2D.constant(1j * stix.d),
            K33=Field2D.constant(stix.p),
        )
