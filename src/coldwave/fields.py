"""Scalar-field evaluators with derivative support.

Analytic partial derivatives may be supplied; otherwise an O(h^2)
central-difference fallback with step h = 1e-6 * scale is used.
Evaluators are deterministic and may return complex values.
"""

from dataclasses import dataclass, field

import numpy as np

FD_STEP_FACTOR = 1e-6


def _broadcast(value, x):
    """An evaluator's value at x, a scalar result (a constant field's)
    broadcast to the shape of an array x."""
    return value if np.ndim(x) == 0 else np.broadcast_to(value, np.shape(x))


class Field1D:
    """Scalar function of one variable with a derivative evaluator.

    The field and its derivative take a float or an ndarray, evaluated
    elementwise, and so must ``fn`` and ``dfdx``; a scalar result, such
    as a constant field's, is broadcast to the array's shape."""

    def __init__(self, fn, dfdx=None, scale=1.0):
        self._fn = fn
        self._dfdx = dfdx
        self.scale = float(scale)

    def __call__(self, x):
        return _broadcast(self._fn(x), x)

    def dx(self, x):
        if self._dfdx is not None:
            return _broadcast(self._dfdx(x), x)
        h = FD_STEP_FACTOR * self.scale
        return _broadcast((self._fn(x + h) - self._fn(x - h)) / (2.0 * h), x)

    @classmethod
    def constant(cls, value):
        return cls(lambda x: value, lambda x: 0.0 * value)


class Field2D:
    """Scalar function of (x, z) with partial-derivative evaluators."""

    def __init__(self, fn, dfdx=None, dfdz=None, scale=1.0):
        self._fn = fn
        self._dfdx = dfdx
        self._dfdz = dfdz
        self.scale = float(scale)

    def __call__(self, x, z):
        return self._fn(x, z)

    def dx(self, x, z):
        if self._dfdx is not None:
            return self._dfdx(x, z)
        h = FD_STEP_FACTOR * self.scale
        return (self._fn(x + h, z) - self._fn(x - h, z)) / (2.0 * h)

    def dz(self, x, z):
        if self._dfdz is not None:
            return self._dfdz(x, z)
        h = FD_STEP_FACTOR * self.scale
        return (self._fn(x, z + h) - self._fn(x, z - h)) / (2.0 * h)

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
        central-difference fallback, step scaled to the sample spacing)."""
        xs = np.asarray(xs, dtype=float)
        zs = np.asarray(zs, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape != (xs.size, zs.size):
            raise ValueError("table shape must be (len(xs), len(zs))")
        if xs.size < 2 or zs.size < 2:
            raise ValueError("table needs at least two samples per axis")

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
