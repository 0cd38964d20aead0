"""Pole-aware bracketed root finding on frequency intervals.

The Stix functions R, L, s have simple poles at the cyclotron
frequencies, so derivative-based root finders are unsafe.  The scanner
splits a bracket at the known pole locations (with small guard gaps),
samples each pole-free piece on a geometric grid in one array call, and
bisects every sign change with scalar calls.
"""

import math

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


def scan_roots(f, a, b, poles=()):
    """All sign-change roots of f on [a, b], avoiding the given poles.

    Samples each pole-free piece on a geometric grid (a, b must be
    positive) and bisects every bracketed sign change.  ``f`` must take
    both a float and a 1-D array: each piece's samples are one call
    f(xs) (a scalar result is broadcast to the samples), bisection calls
    it on floats.  Returns roots in increasing order; tangent
    (non-sign-changing) roots are not found.
    """
    if a <= 0.0:
        raise ValueError("bracket must be positive")
    roots = []

    def add(r):
        if not roots or abs(roots[-1] - r) > ROOT_RTOL * abs(r):
            roots.append(r)

    for lo, hi in split_at_poles(a, b, poles):
        ratio = hi / lo
        n = max(8, min(SCAN_SAMPLES, int(SCAN_SAMPLES * math.log(ratio)
                                         / math.log(b / a))))
        xs = [lo * ratio ** (i / n) for i in range(n + 1)]
        fs = np.broadcast_to(f(np.array(xs)), (n + 1,))
        f0, f1 = fs[:-1], fs[1:]
        for i in np.flatnonzero((f0 == 0.0) | (f0 * f1 < 0.0)).tolist():
            if fs[i] == 0.0:
                add(xs[i])
            else:
                add(bisect(f, xs[i], xs[i + 1]))
        if fs[-1] == 0.0:
            add(xs[-1])
    return roots
