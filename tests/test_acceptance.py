"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``.

Every tolerance is pinned here; oracles are independent of the code
paths they check (textbook quadratic solves via numpy.roots, symbolic
differentiation via sympy, quadrature via scipy, closed forms evaluated
inline).
"""

import json
import math
import time

import numpy as np
import pytest

from coldwave import dispersion, plasma, typegeometry as tg
from coldwave.cli import main as cli_main
from coldwave.errors import SingularCoefficient
from coldwave.fields import Field2D
from coldwave.grid import Domain, Grid2D
from coldwave.multipliers import (MixedMultiplierSpec, MultiplierSpec,
                                  boundary_admissible, random_interior_bump,
                                  verify_energy_inequality)
from coldwave.quadrature import decompose_cells
from coldwave.solvers import (ModelProblem, illposedness_diagnostic,
                              solve_closed_dirichlet, solve_mixed)
from coldwave import electrostatics as es

E = 1.602176634e-19
ME = 9.1093837015e-31
MP = 1.67262192369e-27
EPS0 = 8.8541878128e-12


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_stix_tuples(rng, count):
    out = []
    while len(out) < count:
        R, L, p = rng.uniform(-2.0, 2.0, 3)
        s, d = 0.5 * (R + L), 0.5 * (R - L)
        if abs(s) > 1e-3 and abs(p) > 1e-3:
            out.append(plasma.StixParameters(R, L, s, d, p))
    return out


def test_01_vacuum_dispersion():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    worst = 0.0
    vac = plasma.StixParameters.vacuum()
    for theta in rng.uniform(0.0, math.pi, 50):
        sol = dispersion.refractive_indices(
            dispersion.wave_normal_coefficients(vac, theta))
        worst = max(worst, max(abs(r - 1.0) for r in sol.n_squared))
    elapsed = time.monotonic() - t0
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"vacuum n^2 max deviation {worst:.2e} (tol 1e-12), "
           f"{elapsed:.2f}s (< 1 s)")


def test_02_parallel_perpendicular_factorization():
    rng = np.random.default_rng(42)
    t0 = time.monotonic()
    worst = 0.0
    for st in random_stix_tuples(rng, 1000):
        for theta, closed in ((0.0, (st.R, st.L)),
                              (math.pi / 2, (st.R * st.L / st.s, st.p))):
            c = dispersion.wave_normal_coefficients(st, theta)
            if abs(c.A) <= 1e-3:
                continue
            sol = dispersion.refractive_indices(c)
            if sol.complex_roots:
                continue
            got = sorted(sol.n_squared)
            oracle = sorted(np.roots([c.A, -c.B, c.C]).real)
            for g, o, e in zip(got, oracle, sorted(closed)):
                scale = max(abs(o), abs(e), 1e-12)
                worst = max(worst, abs(g - o) / scale, abs(g - e) / scale)
    elapsed = time.monotonic() - t0
    report(2, worst <= 1e-8 and elapsed < 5.0,
           f"root-set mismatch {worst:.2e} vs oracle/closed forms "
           f"(tol 1e-8), {elapsed:.2f}s (< 5 s)")


def test_03_f_squared_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for st in random_stix_tuples(rng, 1000):
        theta = rng.uniform(0.0, math.pi)
        c = dispersion.wave_normal_coefficients(st, theta)
        direct = c.B * c.B - 4.0 * c.A * c.C
        alt = dispersion.f_squared_alternate(st, theta)
        worst = max(worst, abs(direct - alt)
                    / max(abs(direct), abs(alt), 1e-30))
    report(3, worst <= 1e-10,
           f"B^2-4AC vs factored F^2: relative mismatch {worst:.2e} "
           f"(tol 1e-10)")


def test_04_stix_spot_value():
    om_c = E / ME  # electron cyclotron frequency at 1 T
    n = om_c ** 2 * EPS0 * ME / (E * E)  # Pi = Omega
    state = plasma.PlasmaState((plasma.electron(n),), 1.0)
    st = plasma.stix_parameters(state, 2.0 * om_c)
    expected = (0.5, 5.0 / 6.0, 2.0 / 3.0, -1.0 / 6.0, 0.75)
    worst = max(abs(a - b) for a, b in
                zip((st.R, st.L, st.s, st.d, st.p), expected))
    report(4, worst <= 1e-14,
           f"(R,L,s,d,p) deviation {worst:.2e} from "
           f"(1/2, 5/6, 2/3, -1/6, 3/4) (tol 1e-14)")


def test_05_consistency_chain():
    rng = np.random.default_rng(42)
    worst = 0.0
    count = 0
    while count < 100:
        sp = plasma.Species("x", 10.0 ** rng.uniform(-30.5, -26.5),
                            int(rng.choice([-1, 1])),
                            int(rng.integers(1, 4)),
                            10.0 ** rng.uniform(17.0, 20.0))
        B0 = rng.uniform(0.1, 5.0)
        omega = 10.0 ** rng.uniform(8.0, 12.0)
        om_c = plasma.cyclotron_frequency(sp, B0)
        if om_c > 0.0 and abs(omega - om_c) < 1e-6 * om_c:
            continue
        state = plasma.PlasmaState((sp,), B0)
        E_vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        v = plasma.velocity_response(sp, E_vec, B0, omega)
        j = plasma.plasma_current(state, [v])
        D_path = plasma.displacement(E_vec, j, omega)
        K = plasma.dielectric_tensor(plasma.stix_parameters(state, omega))
        D_tensor = EPS0 * K.apply(E_vec)
        worst = max(worst, float(np.max(np.abs(D_path - D_tensor))
                                 / np.max(np.abs(D_tensor))))
        count += 1
    report(5, worst <= 1e-8,
           f"eps0 K E vs velocity/current/displacement path: relative "
           f"error {worst:.2e} over 100 states (tol 1e-8)")


def test_06_lower_hybrid_root():
    t0 = time.monotonic()
    n = 1e19
    hydrogen = plasma.PlasmaState(
        (plasma.electron(n), plasma.proton(n)), 1.0)
    om_i, om_e = E / MP, E / ME
    res = dispersion.hybrid_resonances(hydrogen, (2 * om_i, 0.5 * om_e))
    ok = len(res.roots) == 1 and res.lower_hybrid_estimate is not None
    rel = abs(res.roots[0] - res.lower_hybrid_estimate) \
        / res.lower_hybrid_estimate
    below = plasma.stix_parameters(hydrogen, res.roots[0] * 0.99).s
    above = plasma.stix_parameters(hydrogen, res.roots[0] * 1.01).s
    elapsed = time.monotonic() - t0
    report(6, ok and rel < 0.01 and below * above < 0.0 and elapsed < 1.0,
           f"closed-form vs bisection gap {rel:.2e} (tol 1e-2), s changes "
           f"sign across root, {elapsed:.2f}s (< 1 s)")


def test_07_curl_curl_degeneracy():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10000):
        k = rng.uniform(-10.0, 10.0, 3)
        _, det = tg.curl_curl_symbol(k)
        worst = max(worst, abs(det) / max(1.0, float(np.linalg.norm(k)) ** 6))
    report(7, worst <= 1e-12,
           f"curl-curl |det| scaled max {worst:.2e} over 1e4 k (tol 1e-12)")


def test_08_coulomb_symbol_homogeneity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        R, L, p = rng.uniform(-2.0, 2.0, 3)
        st = plasma.StixParameters(R, L, 0.5 * (R + L), 0.5 * (R - L), p)
        K = plasma.dielectric_tensor(st)
        k = rng.uniform(-10.0, 10.0, 3)
        t = rng.uniform(0.5, 3.0)
        s1 = tg.coulomb_gauge_symbol(K, t * k)
        s0 = tg.coulomb_gauge_symbol(K, k)
        worst = max(worst, abs(s1 - t ** 6 * s0)
                    / max(abs(t ** 6 * s0), 1e-300))
    report(8, worst <= 1e-10,
           f"degree-6 homogeneity mismatch {worst:.2e} over 1e3 samples "
           f"(tol 1e-10)")


def test_09_origin_characteristics():
    t0 = time.monotonic()
    oc = tg.origin_characteristics()
    exact = ((-1.0 + math.sqrt(17.0)) / 8.0, (-1.0 - math.sqrt(17.0)) / 8.0)
    root_err = max(abs(a - b) for a, b in zip(oc.roots, exact))
    fit_err = 0.0
    h = 1e-4
    for lam, branch in zip(oc.roots, (1, -1)):
        for eps in (1e-6, -1e-6):
            start = (lam * 0.04 * (1.0 + eps), 0.2)
            path = tg.trace_characteristic(start, branch, h)
            y = path.points[:, 1]
            w = y * y
            lam_fit = float(np.sum(path.points[:, 0] * w) / np.sum(w * w))
            fit_err = max(fit_err, abs(lam_fit - lam))
    elapsed = time.monotonic() - t0
    report(9, root_err <= 1e-14 and fit_err <= 1e-3 and oc.count == 4
           and elapsed < 10.0,
           f"roots err {root_err:.1e} (tol 1e-14), trace fit err "
           f"{fit_err:.2e} at h=1e-4 (tol 1e-3), count {oc.count} (= 4), "
           f"{elapsed:.2f}s (< 10 s)")


def test_10_keldysh_tricomi_classification():
    rng = np.random.default_rng(42)
    field = Field2D.affine_quadratic(1.0, -1.0)
    ok = tg.canonical_case_classify(field, (0.0, 0.0)) == "keldysh_point"
    sampled = 0
    while sampled < 50:
        y = rng.uniform(-1.0, 1.0)
        if abs(y) < 1e-3:
            continue
        ok &= tg.canonical_case_classify(field, (y * y, y)) == "tricomi_point"
        sampled += 1
    for _ in range(50):
        x, y = rng.uniform(-2.0, 2.0, 2)
        if abs(x - y * y) < 0.1:
            continue
        ok &= tg.canonical_case_classify(field, (x, y)) == "not_on_sonic"
    report(10, ok, "origin keldysh_point, 50 sonic points tricomi_point, "
                   "off-sonic not_on_sonic")


def test_11_energy_inequality():
    t0 = time.monotonic()
    domain = Domain.rectangle(-1, 1, -1, 1)
    grids = [Grid2D(domain, 65, 65), Grid2D(domain, 129, 129)]
    decomps = [decompose_cells(g) for g in grids]
    delta = 0.05
    bound = delta * 0.9
    min_ratio = np.inf
    max_gap = 0.0
    for kappa in (0.0, 0.5, 1.0, 1.5, 2.0):
        rng = np.random.default_rng(42)
        spec = MultiplierSpec(kappa, domain, delta=delta)
        for _ in range(100):
            bump = random_interior_bump(domain, rng)
            pair = []
            for g, dec in zip(grids, decomps):
                X, Y = g.meshgrid()
                u = bump(X, Y)
                u[g.boundary] = 0.0
                rep = verify_energy_inequality(u, spec, g, decomp=dec)
                pair.append(rep.ratio)
            min_ratio = min(min_ratio, *pair)
            max_gap = max(max_gap, abs(pair[0] - pair[1]))
    elapsed = time.monotonic() - t0
    report(11, min_ratio >= bound and elapsed < 60.0,
           f"min (Mu,Lu)/||u||^2 ratio {min_ratio:.4f} over 5 kappa x 100 "
           f"bumps at two resolutions (bound {bound}), two-resolution gap "
           f"<= {max_gap:.1e}, {elapsed:.1f}s (< 60 s)")


def test_12_manufactured_elliptic_convergence():
    import sympy
    t0 = time.monotonic()
    kappa = 0.5
    x, y = sympy.symbols("x y")
    u_sym = sympy.sin(sympy.pi * (x - sympy.Rational(3, 2))) \
        * sympy.sin(sympy.pi * (y + sympy.Rational(2, 5))
                    / sympy.Rational(4, 5))
    f_sym = ((x - y ** 2) * sympy.diff(u_sym, x, 2) + sympy.diff(u_sym, y, 2)
             + kappa * sympy.diff(u_sym, x))
    u_fn = sympy.lambdify((x, y), u_sym, "numpy")
    f_fn = sympy.lambdify((x, y), sympy.simplify(f_sym), "numpy")
    dom = Domain.rectangle(1.5, 2.5, -0.4, 0.4)
    prob = ModelProblem(kappa, dom, forcing=f_fn)
    errs = []
    for n in (17, 33, 65):
        sol = solve_closed_dirichlet(prob, n, n)
        g = sol.grid
        X, Y = g.meshgrid()
        errs.append(float(np.sqrt(
            g.hx * g.hy * np.sum((sol.values - u_fn(X, Y)) ** 2))))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.monotonic() - t0
    report(12, min(orders) >= 1.0 and elapsed < 60.0,
           f"L2 errors {errs[0]:.2e} -> {errs[1]:.2e} -> {errs[2]:.2e}, "
           f"observed orders {orders[0]:.2f}, {orders[1]:.2f} (>= 1), "
           f"{elapsed:.1f}s (< 60 s)")


def test_13_illposedness_signature():
    t0 = time.monotonic()
    levels = [13, 33, 49]
    origin_prob = ModelProblem(0.5, Domain.rectangle(-1.05, 0.95,
                                                     -1.02, 0.98))
    elliptic_prob = ModelProblem(0.5, Domain.rectangle(1.5, 2.5, -0.4, 0.4))
    origin = illposedness_diagnostic(origin_prob, levels)
    elliptic = illposedness_diagnostic(elliptic_prob, levels)
    co = [c for _, c in origin]
    ce = [c for _, c in elliptic]
    nondecreasing = co[0] <= co[1] <= co[2]
    growth_o = co[-1] / co[0]
    growth_e = ce[-1] / ce[0]
    dominates = growth_o > growth_e and co[-1] > ce[-1]
    elapsed = time.monotonic() - t0
    report(13, nondecreasing and dominates and elapsed < 120.0,
           f"origin conds {co[0]:.3g} <= {co[1]:.3g} <= {co[2]:.3g} "
           f"(nondecreasing), growth x{growth_o:.1f} vs elliptic "
           f"x{growth_e:.1f}, finest {co[-1]:.3g} > {ce[-1]:.3g}, "
           f"{elapsed:.1f}s (< 120 s)")


def test_14_mixed_problem_plumbing():
    dom = Domain.rectangle(0.0, 1.0, 0.0, 0.75)
    spec = MixedMultiplierSpec(dom)
    G = ("top", "left")
    admissible = boundary_admissible(G, spec).admissible
    flipped = boundary_admissible(G, spec, orientation=-1).admissible
    f1 = lambda x, y: np.sin(np.pi * x) * np.cos(0.5 * np.pi * y)
    f2 = lambda x, y: np.cos(np.pi * x) * np.sin(np.pi * y) + 0.3
    prob = ModelProblem(0.0, dom, forcing=(f1, f2), bc="mixed", G=G)
    sol = solve_mixed(prob, 65, 65, spec)
    ratio = sol.residual_norm / sol.diagnostics["forcing_norm"]
    report(14, admissible and not flipped and ratio < 1e-6,
           f"kappa=0 first-quadrant box: admissible={admissible}, "
           f"orientation-flipped admissible={flipped} (must be False), "
           f"residual/|f| = {ratio:.2e} at 65^2 (tol 1e-6)")


def test_15_layered_ode():
    import scipy.integrate
    rng = np.random.default_rng(42)
    worst = 0.0
    done = 0
    while done < 100:
        base = rng.uniform(1.5, 3.0)
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5)
        w = rng.uniform(1.0, 4.0)

        def k11(t):
            return base + a * t + b * np.sin(w * t)

        sigma0 = rng.uniform(-3.0, 3.0)
        x0, x1 = sorted(rng.uniform(0.0, 1.0, 2))
        if x1 - x0 < 0.1:
            continue
        psi0 = complex(rng.normal(), rng.normal())
        prob = es.LayeredProblem(k11, sigma0, (0.0, 1.0))
        sol = es.integrate_layered(prob, psi0, x0, x1)
        I, _ = scipy.integrate.quad(lambda t: 1.0 / k11(t), x0, x1,
                                    epsabs=1e-13, epsrel=1e-13)
        closed = psi0 * k11(x0) / k11(x1) * np.exp(-1j * sigma0 * I)
        worst = max(worst, abs(sol.end_value - closed) / abs(closed))
        done += 1
    try:
        es.LayeredProblem(lambda t: t, 0.0, (-0.5, 0.5))
        raises = False
    except SingularCoefficient:
        raises = True
    report(15, worst <= 1e-8 and raises,
           f"integrating-factor closed form: relative error {worst:.2e} "
           f"over 100 samples (tol 1e-8); vanishing K11 raises "
           f"SingularCoefficient={raises}")


def test_16_cli_determinism(tmp_path):
    hydrogen = tmp_path / "hydrogen.json"
    hydrogen.write_text(json.dumps({
        "B0": 1.0,
        "species": [{"name": "electron", "density_m3": 1e19},
                    {"name": "proton", "density_m3": 1e19}],
    }))
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "kappa": 0.5,
        "domain": {"rects": [[-1.05, 0.95, -1.02, 0.98]]},
        "grid": {"nx": 17, "ny": 17},
        "bc": {"type": "closed_dirichlet"},
        "forcing": {"kind": "sine_bump"},
    }))
    runs = {
        "stix": ["stix", "--plasma", str(hydrogen), "--omega", "5e9"],
        "scan": ["dispersion", "--plasma", str(hydrogen),
                 "--omegas", "1e9:1e12:6:log", "--thetas", "0:90deg:4"],
        "origin": ["origin-chars"],
        "energy": ["energy-check", "--kappa", "1.0", "--trials", "3",
                   "--nx", "17"],
        "symbols": ["symbol-check", "--trials", "25"],
        "solve": ["solve", "--problem", str(problem)],
    }
    identical = True
    for name, argv in runs.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            code = cli_main(["--quiet", "--seed", "42",
                             "--out", str(out)] + argv)
            assert code == 0
            blobs.append(out.read_bytes())
        identical &= blobs[0] == blobs[1]
    report(16, identical,
           "repeated CLI runs with identical config/seed are byte-identical "
           f"across {len(runs)} subcommands")
