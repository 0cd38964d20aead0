"""Cold-plasma dispersion relation (wave-normal surface).

Builds the quadratic-in-n^2 coefficients A, B, C, solves for the squared
refractive indices, evaluates whole (omega, theta) grids in array form,
and scans frequency brackets for cutoffs (C=0 via p=0, R=0, L=0) and
hybrid resonances (s=0).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rootscan
from .errors import DegenerateQuartic, NumericalFailure
from .plasma import (
    RESONANCE_RTOL,
    cyclotron_frequency,
    finite_stix_arrays,
    near_cyclotron,
    plasma_frequency_squared,
    require_omega,
    stix_arrays,
)

SCAN_HEADER = "omega,theta,A,B,C,F2,n2_plus,n2_minus,class_plus,class_minus,flag"

# |A| below this multiple of the Stix scale is treated as the resonance
# branch of the quadratic (n^2 -> infinity on one sheet).
RESONANCE_BRANCH_RTOL = 1e-12

# A root n^2 within this multiple of max(1, scale) of zero is a cutoff.
CUTOFF_RTOL = 1e-14


@dataclass(frozen=True)
class WaveNormalCoefficients:
    """Coefficients of A n^4 - B n^2 + C = 0 at propagation angle theta."""

    A: float
    B: float
    C: float
    F_squared: float
    theta: float


@dataclass(frozen=True)
class DispersionSolution:
    """Squared refractive indices with per-root classification.

    ``n_squared`` pairs with ``classifications`` entrywise; entries are
    complex when ``complex_roots`` is set.  ``resonance`` marks the
    degenerate A ~ 0 branch where only the single finite root C/B is
    returned (the other sheet runs to infinity).
    """

    n_squared: tuple
    classifications: tuple
    resonance: bool = False
    complex_roots: bool = False


def _coefficients(s, d, p, sin2, cos2):
    """(A, B, C, F^2) from plain arithmetic, so that (s, d, p) may be
    column arrays over omega and (sin2, cos2) row arrays over theta.
    Every product keeps its left-to-right order and every square is
    x * x, so a grid point and a 0-d call round alike."""
    rl = s * s - d * d
    g = rl - p * s
    A = s * sin2 + p * cos2
    B = rl * sin2 + p * s * (1.0 + cos2)
    C = p * rl
    F2 = g * g * sin2 * sin2 + 4.0 * p * p * d * d * cos2
    return A, B, C, F2


def wave_normal_coefficients(stix, theta):
    """Wave-normal surface coefficients at angle theta [rad] from B0.

    A = s sin^2 + p cos^2, B = (s^2 - d^2) sin^2 + p s (1 + cos^2),
    C = p (s^2 - d^2).  The discriminant F^2 = B^2 - 4AC is evaluated in
    its factored form (RL - ps)^2 sin^4 + 4 p^2 d^2 cos^2 -- identical
    algebraically, but a sum of non-negative terms, so double roots
    (e.g. vacuum) do not suffer the B^2 - 4AC cancellation.
    """
    sin, cos = np.sin(theta), np.cos(theta)
    coeffs = _coefficients(stix.s, stix.d, stix.p, sin * sin, cos * cos)
    return WaveNormalCoefficients(*map(float, coeffs), theta)


def f_squared_alternate(stix, theta):
    """F^2 recomputed as (RL - ps)^2 sin^4 + 4 p^2 d^2 cos^2 (cross-check
    form; equals B^2 - 4AC identically)."""
    sin2 = math.sin(theta) ** 2
    cos2 = math.cos(theta) ** 2
    rl = stix.R * stix.L
    return (rl - stix.p * stix.s) ** 2 * sin2 * sin2 \
        + 4.0 * stix.p ** 2 * stix.d ** 2 * cos2


def refractive_indices(coeffs):
    """Solve A n^4 - B n^2 + C = 0 for n^2 as a 0-d call of
    :func:`_solve_grid`, the scan's kernel.  Raises DegenerateQuartic
    where the scan flags ``degenerate`` and NumericalFailure where it
    flags ``non_finite``."""
    A, B, C, F2 = coeffs.A, coeffs.B, coeffs.C, coeffs.F_squared
    plus, minus, *codes = _solve_grid(
        *(np.asarray(v, dtype=float) for v in (A, B, C, F2)))
    plus, minus = float(plus), float(minus)
    class_plus, class_minus, flag = (_LABELS[code] for code in codes)
    if flag == "non_finite":
        raise NumericalFailure(
            f"non-finite dispersion coefficients A={A!r}, B={B!r}, "
            f"C={C!r}, F2={F2!r}")
    if flag == "degenerate":
        scale = abs(A) + abs(B) + abs(C)
        raise DegenerateQuartic(
            f"A={A!r} and B={B!r} both negligible against scale {scale!r}")
    if flag == "resonance":
        return DispersionSolution((plus,), (class_plus,), resonance=True)
    if flag == "complex":
        im = math.sqrt(-F2) / (2.0 * A)
        return DispersionSolution(
            (complex(plus, im), complex(minus, -im)), ("complex", "complex"),
            complex_roots=True)
    return DispersionSolution((plus, minus), (class_plus, class_minus))


def resonance_angle(stix):
    """Propagation angle [rad] at which A vanishes, if it is real.

    Solves tan^2(theta) = -p/s; returns None when -p/s < 0 (no real
    resonance cone) or when s = 0.
    """
    if stix.s == 0.0:
        return None
    ratio = -stix.p / stix.s
    if ratio < 0.0:
        return None
    return math.atan(math.sqrt(ratio))


def _poles(plasma):
    return [Om for _, Om, _ in plasma.species_table if Om > 0.0]


def _stix_roots(plasma, omega_bracket, rows):
    """(omega, row) roots in the bracket of the Stix parameters picked by
    ``rows`` from (R, L, s, d, p), sorted; one :func:`rootscan.scan_roots`
    over the cyclotron-split bracket.  Each piece's samples are one
    array call, which raises NumericalFailure as :func:`stix_parameters`
    does where a Stix parameter is not finite; bisection calls
    :func:`stix_arrays` on floats."""
    a, b = omega_bracket
    if not 0.0 < a < b:
        raise ValueError("omega bracket must satisfy 0 < a < b")

    def f(w):
        if isinstance(w, np.ndarray):
            return rows(*finite_stix_arrays(plasma, w))
        return rows(*stix_arrays(plasma, w))

    return rootscan.scan_roots(f, a, b, _poles(plasma))


def cutoff_frequencies(plasma, omega_bracket):
    """Cutoff frequencies in the bracket: roots of p, R, and L.

    Returns (omega, which) pairs sorted by omega, which in {"P","R","L"}.
    The bracket is split around the cyclotron-frequency poles; raises
    BracketTooWide if that fails.
    """
    found = _stix_roots(plasma, omega_bracket,
                        lambda R, L, s, d, p: (p, R, L))
    return sorted((w, "PRL"[row]) for w, row in found)


@dataclass(frozen=True)
class HybridResonances:
    """Roots of s(omega)=0 plus, for a single-ion plasma in a nonzero
    field, the closed-form lower-hybrid estimate
    omega_LH^2 = Pi_i^2 / (1 + Pi_e^2/Omega_e^2)."""

    roots: tuple
    lower_hybrid_estimate: float | None = None


def hybrid_resonances(plasma, omega_bracket):
    """Hybrid resonance frequencies: sign-change roots of s in the
    bracket, pole-aware.  See :class:`HybridResonances`."""
    roots = tuple(w for w, _ in _stix_roots(plasma, omega_bracket,
                                            lambda R, L, s, d, p: (s,)))
    estimate = None
    electron_sp = plasma.electron_species()
    ions = plasma.ion_species()
    if electron_sp is not None and len(ions) == 1 and plasma.B0 > 0.0:
        pi_e, pi_i = (math.sqrt(plasma_frequency_squared(sp))
                      for sp in (electron_sp, ions[0]))
        om_e = cyclotron_frequency(electron_sp, plasma.B0)
        # Pi_i Omega_e / hypot(Omega_e, Pi_e) squares nothing, so an
        # Omega_e whose square underflows still gives the estimate; an
        # electron-free plasma (Pi_e = 0) gives Pi_i whatever Omega_e is
        estimate = pi_i * om_e / math.hypot(om_e, pi_e) if pi_e > 0.0 \
            else pi_i
    return HybridResonances(roots, estimate)


# Labels of the scan's class and flag columns.  The array solve works on
# codes into this table; the columns hold the label objects themselves.
_LABELS = np.array(["", "cutoff", "propagating", "evanescent", "complex",
                    "resonance", "degenerate", "cyclotron_resonance",
                    "non_finite"], dtype=object)
_CODE = {label: code for code, label in enumerate(_LABELS)}


def _classify_codes(value, scale):
    """Class codes of real roots: cutoff where |value| is at most
    CUTOFF_RTOL times max(1, scale), else propagating (> 0) or
    evanescent."""
    cutoff = np.abs(value) <= CUTOFF_RTOL * np.where(scale > 1.0, scale, 1.0)
    return np.where(cutoff, _CODE["cutoff"],
                    np.where(value > 0.0, _CODE["propagating"],
                             _CODE["evanescent"]))


def _solve_grid(A, B, C, F2):
    """Solve A n^4 - B n^2 + C = 0 for n^2 at every point of arrays of
    any shape (0-d included), branch by mask.

    Returns (n2_plus, n2_minus, class_plus, class_minus, flag), the last
    three codes into ``_LABELS``.  Real roots are q/A and C/q, q the
    sign-matched half of B +/- F (no cancellation).  F^2 < 0 gives a
    complex pair, whose columns hold its real part B/2A.  |A| within
    RESONANCE_BRANCH_RTOL of |A| + |B| + |C| is the resonance branch,
    with the single root C/B, or degenerate (NaN roots) if |B| is too.
    A point with a non-finite A, B, C or F^2 (an overflowed Stix
    parameter) is flagged non_finite, with NaN roots and empty classes.
    """
    finite = np.isfinite(A) & np.isfinite(B) & np.isfinite(C) \
        & np.isfinite(F2)
    scale = np.abs(A) + np.abs(B) + np.abs(C)
    a_tol = RESONANCE_BRANCH_RTOL * np.where(1e-300 > scale, 1e-300, scale)
    on_branch = finite & (np.abs(A) <= a_tol)
    degenerate = on_branch & (np.abs(B) <= a_tol)
    resonance = on_branch & ~degenerate
    pair = finite & ~on_branch & (F2 < 0.0)
    real = finite & ~on_branch & ~pair
    with np.errstate(all="ignore"):
        F = np.sqrt(F2)
        upper = B >= 0.0
        q = np.where(upper, 0.5 * (B + F), 0.5 * (B - F))
        zero = q == 0.0  # B == 0 and F == 0: double root at zero
        big = np.where(zero, 0.0, q / A)
        small = np.where(zero, 0.0, C / q)
        r0 = np.where(upper, big, small)
        r1 = np.where(upper, small, big)
        scale_r = np.where(np.abs(r1) > np.abs(r0), np.abs(r1), np.abs(r0))
        root = C / B
        re = B / (2.0 * A)
    n2_plus = np.where(real, r0, np.where(resonance, root,
                                          np.where(pair, re, math.nan)))
    n2_minus = np.where(real, r1, np.where(pair, re, math.nan))
    other = np.where(pair, _CODE["complex"], _CODE[""])
    class_plus = np.where(real, _classify_codes(r0, scale_r),
                          np.where(resonance,
                                   _classify_codes(root, np.abs(root)), other))
    class_minus = np.where(real, _classify_codes(r1, scale_r),
                           np.where(resonance, _CODE["resonance"], other))
    flag = np.where(degenerate, _CODE["degenerate"],
                    np.where(resonance, _CODE["resonance"],
                             np.where(finite, other, _CODE["non_finite"])))
    return n2_plus, n2_minus, class_plus, class_minus, flag


def dispersion_scan(plasma, omega_grid, theta_grid,
                    resonance_rtol=RESONANCE_RTOL):
    """Evaluate the dispersion relation over an (omega, theta) grid.

    Returns a dict of CSV columns keyed by the SCAN_HEADER names, in that
    order, with one row per grid point in omega-major order.  The columns
    that repeat are dictionary-encoded (values, index) pairs, as
    :func:`output.write_csv` takes them: omega and C (which does not
    depend on theta) index the omega grid's entries, theta the theta
    grid's, and the three label columns ``_LABELS``; row r of such a
    column is values[index[r]].  A, B, F2 and the n2 columns are 1-D
    arrays.  The Stix
    parameters come from one :func:`stix_arrays` call over the omega
    grid and the quadratic by one :func:`_solve_grid` call over the whole
    grid, the kernel that :func:`refractive_indices` calls at one point.
    Points never abort the scan: cyclotron-resonant frequencies, complex
    pairs, the resonance branch and the degenerate case are flagged.  For
    a complex pair the n2 columns carry the (equal) real parts; the
    conjugate imaginary part is recoverable from A, B, F2.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    thetas = np.asarray(theta_grid, dtype=float)
    require_omega(omegas)
    shape = (omegas.size, thetas.size)
    resonant = np.broadcast_to(
        near_cyclotron(plasma, omegas, resonance_rtol), omegas.shape)
    sin, cos = np.sin(thetas), np.cos(thetas)
    with np.errstate(all="ignore"):  # inf and NaN pass through, flagged
        _, _, s, d, p = (np.where(resonant, math.nan, v)[:, None]
                         for v in stix_arrays(plasma, omegas))
        coeffs = [np.broadcast_to(c, shape)
                  for c in _coefficients(s, d, p, sin * sin, cos * cos)]
    A, B, C, F2 = coeffs
    n2_plus, n2_minus, *codes = _solve_grid(A, B, C, F2)
    resonant = np.broadcast_to(resonant[:, None], shape)
    marks = (_CODE[""], _CODE[""], _CODE["cyclotron_resonance"])
    labels = [(_LABELS, np.where(resonant, mark, code).ravel())
              for code, mark in zip(codes, marks)]
    row_omega = np.repeat(np.arange(omegas.size), thetas.size)
    columns = ((omegas, row_omega),
               (thetas, np.tile(np.arange(thetas.size), omegas.size)),
               A.ravel(), B.ravel(), (C[:, 0], row_omega), F2.ravel(),
               n2_plus.ravel(), n2_minus.ravel(), *labels)
    return dict(zip(SCAN_HEADER.split(","), columns))
