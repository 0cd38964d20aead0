"""Tensor-product grids over rectangle (or union-of-rectangle) domains.

Node (i, j) sits at (xs[i], ys[j]); masks partition nodes into interior
(all four lattice neighbors inside the domain), boundary, and outside.
A grid evaluates the type function K = x - y^2 at its nodes once, when
built, and the operators read it from there.
"""

from dataclasses import dataclass, field

import numpy as np

from .typegeometry import canonical_type_function

_TOL = 1e-12


def box_type_range(x0, x1, y0, y1):
    """(min K, max K) of K = x - y^2 over the closed box [x0, x1] x
    [y0, y1], a side when x0 == x1 or y0 == y1: min K = x0 - max y^2 and
    max K = x1 - min y^2 (0 when y0 <= 0 <= y1)."""
    return (x0 - max(y0 * y0, y1 * y1),
            x1 - (0.0 if y0 <= 0.0 <= y1 else min(y0 * y0, y1 * y1)))


@dataclass(frozen=True)
class BoundarySegment:
    """Oriented straight boundary piece (counterclockwise traversal)."""

    name: str
    start: tuple
    end: tuple

    @property
    def delta(self):
        return (self.end[0] - self.start[0], self.end[1] - self.start[1])


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle or union of rectangles."""

    rects: tuple
    # the boundary segments of a single rectangle, counterclockwise
    SEGMENTS = ("bottom", "right", "top", "left")

    def __post_init__(self):
        rects = tuple(tuple(float(v) for v in r) for r in self.rects)
        if not rects:
            raise ValueError("domain needs at least one rectangle")
        for x0, x1, y0, y1 in rects:
            if not (x0 < x1 and y0 < y1):
                raise ValueError(f"degenerate rectangle {(x0, x1, y0, y1)}")
        object.__setattr__(self, "rects", rects)

    @classmethod
    def rectangle(cls, x0, x1, y0, y1):
        return cls(((x0, x1, y0, y1),))

    @property
    def bounding_box(self):
        x0 = min(r[0] for r in self.rects)
        x1 = max(r[1] for r in self.rects)
        y0 = min(r[2] for r in self.rects)
        y1 = max(r[3] for r in self.rects)
        return x0, x1, y0, y1

    def contains(self, x, y):
        """Vectorized membership test (closed rectangles, small slack)."""
        x = np.asarray(x)
        y = np.asarray(y)
        inside = np.zeros(np.broadcast(x, y).shape, dtype=bool)
        for x0, x1, y0, y1 in self.rects:
            sx = _TOL * max(1.0, abs(x0), abs(x1))
            sy = _TOL * max(1.0, abs(y0), abs(y1))
            inside |= ((x >= x0 - sx) & (x <= x1 + sx)
                       & (y >= y0 - sy) & (y <= y1 + sy))
        return inside

    @property
    def contains_origin(self):
        return bool(self.contains(0.0, 0.0))

    @property
    def type_range(self):
        """(min K, max K) of K = x - y^2 over the domain, exact from each
        rectangle (``box_type_range``)."""
        ranges = [box_type_range(*r) for r in self.rects]
        return min(lo for lo, _ in ranges), max(hi for _, hi in ranges)

    @property
    def contains_sonic_arc(self):
        """Whether K = x - y^2 takes both signs on the domain."""
        k_min, k_max = self.type_range
        return k_min < 0.0 < k_max

    def boundary_segments(self):
        """The four counterclockwise edges of a single-rectangle domain,
        named as in SEGMENTS."""
        if len(self.rects) != 1:
            raise ValueError(
                "boundary segments are only defined for single-rectangle "
                "domains"
            )
        x0, x1, y0, y1 = self.rects[0]
        corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0))
        return [BoundarySegment(name, *corners[k:k + 2])
                for k, name in enumerate(self.SEGMENTS)]


@dataclass(frozen=True)
class Grid2D:
    """Uniform lattice over a domain's bounding box with node masks and
    K = x - y^2 at every node."""

    domain: Domain
    nx: int
    ny: int
    xs: np.ndarray = field(init=False, repr=False)
    ys: np.ndarray = field(init=False, repr=False)
    hx: float = field(init=False)
    hy: float = field(init=False)
    inside: np.ndarray = field(init=False, repr=False)
    interior: np.ndarray = field(init=False, repr=False)
    boundary: np.ndarray = field(init=False, repr=False)
    K: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ValueError("grid needs nx, ny >= 4")
        x0, x1, y0, y1 = self.domain.bounding_box
        xs = np.linspace(x0, x1, self.nx)
        ys = np.linspace(y0, y1, self.ny)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        inside = self.domain.contains(X, Y)
        interior = inside.copy()
        interior[0, :] = interior[-1, :] = False
        interior[:, 0] = interior[:, -1] = False
        interior[1:-1, 1:-1] &= (inside[:-2, 1:-1] & inside[2:, 1:-1]
                                 & inside[1:-1, :-2] & inside[1:-1, 2:])
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "hx", float(xs[1] - xs[0]))
        object.__setattr__(self, "hy", float(ys[1] - ys[0]))
        object.__setattr__(self, "inside", inside)
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "boundary", inside & ~interior)
        object.__setattr__(self, "K", canonical_type_function(X, Y))

    def segment_mask(self, names):
        """Boundary-node mask of the segments ``names`` of a single-rectangle
        domain; corners belong to both adjacent segments."""
        self.domain.boundary_segments()   # refuses a union of rectangles
        edges = {"bottom": np.s_[:, 0], "right": np.s_[-1, :],
                 "top": np.s_[:, -1], "left": np.s_[0, :]}
        mask = np.zeros((self.nx, self.ny), dtype=bool)
        for name in names:
            mask[edges[name]] = True
        return mask & self.boundary

    def meshgrid(self):
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def evaluate(self, fn):
        """Evaluate a callable (x, y) -> value on the full lattice."""
        X, Y = self.meshgrid()
        return np.asarray(fn(X, Y), dtype=float)
