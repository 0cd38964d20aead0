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
from .errors import DegenerateQuartic
from .plasma import (
    RESONANCE_RTOL,
    cyclotron_frequency,
    near_cyclotron,
    plasma_frequency_squared,
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
    Every product keeps its left-to-right order, and the square of
    RL - ps is Python's float power per entry, so each grid point
    matches the scalar evaluation bit for bit."""
    rl = s * s - d * d
    A = s * sin2 + p * cos2
    B = rl * sin2 + p * s * (1.0 + cos2)
    C = p * rl
    F2 = _square(rl - p * s) * sin2 * sin2 + 4.0 * p * p * d * d * cos2
    return A, B, C, F2


def _square(x):
    if isinstance(x, np.ndarray):
        return np.array([v ** 2 for v in x.ravel().tolist()]).reshape(x.shape)
    return x ** 2


def wave_normal_coefficients(stix, theta):
    """Wave-normal surface coefficients at angle theta [rad] from B0.

    A = s sin^2 + p cos^2, B = (s^2 - d^2) sin^2 + p s (1 + cos^2),
    C = p (s^2 - d^2).  The discriminant F^2 = B^2 - 4AC is evaluated in
    its factored form (RL - ps)^2 sin^4 + 4 p^2 d^2 cos^2 -- identical
    algebraically, but a sum of non-negative terms, so double roots
    (e.g. vacuum) do not suffer the B^2 - 4AC cancellation.
    """
    sin2 = math.sin(theta) ** 2
    cos2 = math.cos(theta) ** 2
    return WaveNormalCoefficients(
        *_coefficients(stix.s, stix.d, stix.p, sin2, cos2), theta)


def f_squared_alternate(stix, theta):
    """F^2 recomputed as (RL - ps)^2 sin^4 + 4 p^2 d^2 cos^2 (cross-check
    form; equals B^2 - 4AC identically)."""
    sin2 = math.sin(theta) ** 2
    cos2 = math.cos(theta) ** 2
    rl = stix.R * stix.L
    return (rl - stix.p * stix.s) ** 2 * sin2 * sin2 \
        + 4.0 * stix.p ** 2 * stix.d ** 2 * cos2


def _classify(value, scale):
    if abs(value) <= CUTOFF_RTOL * max(1.0, scale):
        return "cutoff"
    return "propagating" if value > 0.0 else "evanescent"


def refractive_indices(coeffs):
    """Solve A n^4 - B n^2 + C = 0 for n^2.

    The quadratic is solved in the cancellation-free form (larger root
    from the sign-matched half of B +/- F, the other as C over that
    half).  Negative F^2 yields the conjugate complex pair, flagged
    rather than raised.  |A| below RESONANCE_BRANCH_RTOL times the
    coefficient scale is the resonance branch: the single finite root
    C/B is returned.  Raises DegenerateQuartic if A and B both vanish.
    """
    A, B, C = coeffs.A, coeffs.B, coeffs.C
    scale = abs(A) + abs(B) + abs(C)
    a_tol = RESONANCE_BRANCH_RTOL * max(scale, 1e-300)
    if abs(A) <= a_tol:
        if abs(B) <= a_tol:
            raise DegenerateQuartic(
                f"A={A!r} and B={B!r} both negligible against scale {scale!r}"
            )
        root = C / B
        return DispersionSolution(
            (root,), (_classify(root, abs(root)),), resonance=True
        )
    F2 = coeffs.F_squared
    if F2 < 0.0:
        re = B / (2.0 * A)
        im = math.sqrt(-F2) / (2.0 * A)
        return DispersionSolution(
            (complex(re, im), complex(re, -im)),
            ("complex", "complex"),
            complex_roots=True,
        )
    F = math.sqrt(F2)
    q = 0.5 * (B + F) if B >= 0.0 else 0.5 * (B - F)
    if q == 0.0:  # B == 0 and F == 0: double root at zero
        roots = (0.0, 0.0)
    else:
        big = q / A
        small = C / q
        roots = (big, small) if B >= 0.0 else (small, big)
    scale_r = max(abs(roots[0]), abs(roots[1]))
    return DispersionSolution(
        roots, tuple(_classify(r, scale_r) for r in roots)
    )


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
    poles = (cyclotron_frequency(sp, plasma.B0) for sp in plasma.species)
    return [Om for Om in poles if Om > 0.0]


def cutoff_frequencies(plasma, omega_bracket):
    """Cutoff frequencies in the bracket: roots of p, R, and L.

    Returns (omega, which) pairs sorted by omega, which in {"P","R","L"}.
    The bracket is split around the cyclotron-frequency poles; raises
    BracketTooWide if that fails.
    """
    a, b = omega_bracket
    if not 0.0 < a < b:
        raise ValueError("omega bracket must satisfy 0 < a < b")
    poles = _poles(plasma)
    found = []
    for index, label in ((4, "P"), (0, "R"), (1, "L")):
        fn = lambda w, index=index: stix_arrays(plasma, w)[index]
        for w in rootscan.scan_roots(fn, a, b, poles):
            found.append((w, label))
    found.sort()
    return found


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
    a, b = omega_bracket
    if not 0.0 < a < b:
        raise ValueError("omega bracket must satisfy 0 < a < b")
    roots = tuple(rootscan.scan_roots(lambda w: stix_arrays(plasma, w)[2],
                                      a, b, _poles(plasma)))
    estimate = None
    electron_sp = plasma.electron_species()
    ions = plasma.ion_species()
    if electron_sp is not None and len(ions) == 1 and plasma.B0 > 0.0:
        pi_e2 = plasma_frequency_squared(electron_sp)
        pi_i2 = plasma_frequency_squared(ions[0])
        om_e = cyclotron_frequency(electron_sp, plasma.B0)
        estimate = math.sqrt(pi_i2 / (1.0 + pi_e2 / (om_e * om_e)))
    return HybridResonances(roots, estimate)


# Labels of the scan's class and flag columns.  The array solve works on
# codes into this table; the columns hold the label objects themselves.
_LABELS = np.array(["", "cutoff", "propagating", "evanescent", "complex",
                    "resonance", "degenerate", "cyclotron_resonance"],
                   dtype=object)
_CODE = {label: code for code, label in enumerate(_LABELS)}


def _classify_codes(value, scale):
    """Array form of :func:`_classify` (``max`` spelt as Python's)."""
    cutoff = np.abs(value) <= CUTOFF_RTOL * np.where(scale > 1.0, scale, 1.0)
    return np.where(cutoff, _CODE["cutoff"],
                    np.where(value > 0.0, _CODE["propagating"],
                             _CODE["evanescent"]))


def _solve_grid(A, B, C, F2):
    """Array form of :func:`refractive_indices` with masked branches.

    Returns (n2_plus, n2_minus, class_plus, class_minus, flag): each
    point takes the branch, the roundings and the classification of the
    scalar solve, and a complex pair carries its real parts.  The last
    three are codes into ``_LABELS``.
    """
    scale = np.abs(A) + np.abs(B) + np.abs(C)
    a_tol = RESONANCE_BRANCH_RTOL * np.where(1e-300 > scale, 1e-300, scale)
    on_branch = np.abs(A) <= a_tol
    degenerate = on_branch & (np.abs(B) <= a_tol)
    resonance = on_branch & ~degenerate
    pair = ~on_branch & (F2 < 0.0)
    real = ~on_branch & ~pair
    with np.errstate(all="ignore"):
        F = np.sqrt(F2)
        upper = B >= 0.0
        q = np.where(upper, 0.5 * (B + F), 0.5 * (B - F))
        zero = q == 0.0
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
                    np.where(resonance, _CODE["resonance"], other))
    return n2_plus, n2_minus, class_plus, class_minus, flag


def dispersion_scan(plasma, omega_grid, theta_grid,
                    resonance_rtol=RESONANCE_RTOL):
    """Evaluate the dispersion relation over an (omega, theta) grid.

    Returns a dict of 1-D arrays keyed by the SCAN_HEADER names, in that
    order, with one entry per grid point in omega-major order.  The Stix
    parameters come from one :func:`stix_arrays` call over the omega
    grid and the quadratic is solved with masked branches over the whole
    grid; each point equals the scalar composition :func:`stix_parameters`
    -> :func:`wave_normal_coefficients` -> :func:`refractive_indices`.
    Points never abort the scan: cyclotron-resonant frequencies, complex
    pairs, the resonance branch and the degenerate case are flagged.  For
    a complex pair the n2 columns carry the (equal) real parts; the
    conjugate imaginary part is recoverable from A, B, F2.
    """
    omegas = np.asarray(omega_grid, dtype=float)
    thetas = np.asarray(theta_grid, dtype=float)
    if not (omegas > 0.0).all():
        raise ValueError("omega must be > 0")
    shape = (omegas.size, thetas.size)
    resonant = np.broadcast_to(
        near_cyclotron(plasma, omegas, resonance_rtol), omegas.shape)
    sin2 = np.array([math.sin(t) ** 2 for t in thetas.tolist()])
    cos2 = np.array([math.cos(t) ** 2 for t in thetas.tolist()])
    with np.errstate(all="ignore"):  # inf/nan as the scalar chain gives
        _, _, s, d, p = (np.where(resonant, math.nan, v)[:, None]
                         for v in stix_arrays(plasma, omegas))
        coeffs = [np.broadcast_to(c, shape)
                  for c in _coefficients(s, d, p, sin2, cos2)]
    n2_plus, n2_minus, *codes = _solve_grid(*coeffs)
    resonant = np.broadcast_to(resonant[:, None], shape)
    marks = (_CODE[""], _CODE[""], _CODE["cyclotron_resonance"])
    labels = [_LABELS[np.where(resonant, mark, code)]
              for code, mark in zip(codes, marks)]
    columns = (np.repeat(omegas, thetas.size), np.tile(thetas, omegas.size),
               *coeffs, n2_plus, n2_minus, *labels)
    return {name: np.ravel(col)
            for name, col in zip(SCAN_HEADER.split(","), columns)}
