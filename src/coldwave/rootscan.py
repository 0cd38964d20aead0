"""Pole-aware bracketed root finding on frequency intervals.

The Stix functions R, L, s have simple poles at the cyclotron
frequencies, so derivative-based root finders are unsafe.  The scanner
splits a bracket at the known pole locations (with small guard gaps),
samples each pole-free piece on a geometric grid in one array call
shared by every function scanned, and bisects every sign change with
scalar calls.
"""

import math
from itertools import repeat

import numpy as np

from .errors import BracketTooWide

MAX_SUBINTERVALS = 2 ** 16
POLE_GUARD_RTOL = 1e-9
# Bisection stops once a bracket is this narrow relative to its midpoint;
# scan_roots merges roots this close (relative) into one.
ROOT_RTOL = 1e-12
BISECT_MAX_ITER = 200
# Geometric samples over a whole bracket; a pole-free piece gets its
# share by log length, but at least 8.
SCAN_SAMPLES = 2048


def bisect(f, a, b):
    """Root of f in [a, b] by plain bisection; f(a) and f(b) must differ
    in sign (either may be zero)."""
    fa = f(a)
    if fa == 0.0:
        return a
    fb = f(b)
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("root is not bracketed")
    for _ in range(BISECT_MAX_ITER):
        m = 0.5 * (a + b)
        if b - a <= ROOT_RTOL * abs(m):
            return m
        fm = f(m)
        if fm == 0.0:
            return m
        if fa * fm < 0.0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def split_at_poles(a, b, poles):
    """Pole-free closed subintervals of [a, b].

    Each pole inside (a, b) is excised with a relative guard gap.  Raises
    BracketTooWide if the guard gaps cannot be separated (poles too close
    together, or more pieces than MAX_SUBINTERVALS).
    """
    if not a < b:
        raise ValueError("bracket endpoints must be increasing")
    inside = sorted(p for p in poles
                    if a - POLE_GUARD_RTOL * abs(p) < p
                    < b + POLE_GUARD_RTOL * abs(p))
    if len(inside) + 1 > MAX_SUBINTERVALS:
        raise BracketTooWide(f"{len(inside)} poles inside bracket")
    pieces = []
    lo = a
    for p in inside:
        gap = POLE_GUARD_RTOL * abs(p)
        hi = p - gap
        if hi <= lo:
            # pole guard swallows the whole piece (pole at/near an
            # endpoint, or two poles closer than their guards)
            lo = max(lo, p + gap)
            continue
        pieces.append((lo, hi))
        lo = p + gap
    if lo < b:
        pieces.append((lo, b))
    if not pieces:
        raise BracketTooWide("bracket reduces to pole guards only")
    return pieces


def _geometric_samples(lo, ratio, n):
    """lo * ratio ** (i / n) for i = 0..n as one array: libm's pow of
    each correctly rounded i / n, as Python's float power takes it, not
    numpy's (they differ by an ulp, and the samples bracket the
    bisection)."""
    t = (np.arange(n + 1) / n).tolist()
    return lo * np.fromiter(map(math.pow, repeat(ratio), t), float, n + 1)


def scan_roots(f, a, b, poles=()):
    """All sign-change roots of the rows of f on [a, b], avoiding the
    given poles.

    ``f`` returns a tuple of k rows: k arrays (or scalars, broadcast)
    when given a 1-D array, k floats when given a float.  Each pole-free
    piece is sampled on a geometric grid (a, b must be positive) in one
    call f(xs) that serves every row, and each sign change of row j is
    bisected with float calls that read f(m)[j].  Returns the sorted
    (root, row) pairs; roots of one row closer than ROOT_RTOL (relative)
    are merged, and tangent (non-sign-changing) roots are not found.
    """
    if a <= 0.0:
        raise ValueError("bracket must be positive")
    found = []
    last = {}

    def add(r, j):
        if j not in last or abs(last[j] - r) > ROOT_RTOL * abs(r):
            last[j] = r
            found.append((r, j))

    for lo, hi in split_at_poles(a, b, poles):
        ratio = hi / lo
        n = max(8, min(SCAN_SAMPLES, int(SCAN_SAMPLES * math.log(ratio)
                                         / math.log(b / a))))
        samples = _geometric_samples(lo, ratio, n)
        rows = f(samples)
        xs = samples.tolist()
        if not isinstance(rows, tuple):
            raise TypeError("f must return a tuple of rows")
        for j, row in enumerate(rows):
            fs = np.broadcast_to(row, (n + 1,))
            f0, f1 = fs[:-1], fs[1:]
            for i in np.flatnonzero((f0 == 0.0) | (f0 * f1 < 0.0)).tolist():
                if fs[i] == 0.0:
                    add(xs[i], j)
                else:
                    add(bisect(lambda m, j=j: f(m)[j], xs[i], xs[i + 1]), j)
            if fs[-1] == 0.0:
                add(xs[-1], j)
    found.sort()
    return found
