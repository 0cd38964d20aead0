"""Output checks written without the program's code or diagnostics.

Each check reads one output file of a CLI command and returns a list of
problems (empty when the output is correct).  Residuals, Stix
parameters, wave-normal coefficients and closed forms are recomputed
here from the generated inputs.
"""

import json
import math

import numpy as np

SCAN_HEADER = ("omega,theta,A,B,C,F2,n2_plus,n2_minus,"
               "class_plus,class_minus,flag")


def _read_csv(path, header):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            return None, [f"{path}: header {first!r}, expected {header!r}"]
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return data, []


def _lattice(box, n):
    x0, x1, y0, y1 = box
    return np.linspace(x0, x1, n), np.linspace(y0, y1, n)


def _node_fields(data, box, n, ncols):
    """Reshape i-major node rows (x, y, values...) of a rectangle grid."""
    if data.shape != (n * n, 2 + ncols):
        return None, [f"rows/columns {data.shape}, expected "
                      f"{(n * n, 2 + ncols)}"]
    xs, ys = _lattice(box, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    if not (np.array_equal(data[:, 0], X.ravel())
            and np.array_equal(data[:, 1], Y.ravel())):
        return None, ["node coordinates differ from the lattice"]
    return [data[:, 2 + k].reshape(n, n) for k in range(ncols)], []


def dirichlet(path, box, n, kappa, f, rtol=1e-8):
    """L_h u = f at interior nodes by an independent 5-point stencil."""
    data, problems = _read_csv(path, "x,y,u")
    if problems:
        return problems
    fields, problems = _node_fields(data, box, n, 1)
    if problems:
        return problems
    (u,) = fields
    xs, ys = _lattice(box, n)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    edge = np.concatenate([u[0], u[-1], u[:, 0], u[:, -1]])
    if np.any(edge != 0.0):
        problems.append("nonzero boundary values")
    K = xs[1:-1, None] - ys[None, 1:-1] ** 2
    c = u[1:-1, 1:-1]
    r = (K * (u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1]) / hx ** 2
         + (u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2]) / hy ** 2
         + kappa * (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * hx)
         - f[1:-1, 1:-1])
    ratio = float(np.linalg.norm(r) / np.linalg.norm(f[1:-1, 1:-1]))
    if not ratio <= rtol:
        problems.append(f"|L_h u - f| / |f| = {ratio:.3e} > {rtol:g}")
    return problems


def mixed(path, box, n, kappa, f1, f2, rtol=1e-6):
    """First-order system residual and the u1 = 0 on G = (top, left),
    u2 = 0 off G constraints."""
    data, problems = _read_csv(path, "x,y,u1,u2")
    if problems:
        return problems
    fields, problems = _node_fields(data, box, n, 2)
    if problems:
        return problems
    u1, u2 = fields
    xs, ys = _lattice(box, n)
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    if np.any(u1[0, :] != 0.0) or np.any(u1[:, -1] != 0.0):
        problems.append("u1 is not zero on G (top, left)")
    if np.any(u2[-1, :] != 0.0) or np.any(u2[:, 0] != 0.0):
        problems.append("u2 is not zero off G (bottom, right)")
    K = xs[1:-1, None] - ys[None, 1:-1] ** 2
    eq1 = (K * (u1[2:, 1:-1] - u1[:-2, 1:-1]) / (2.0 * hx)
           + (u2[1:-1, 2:] - u2[1:-1, :-2]) / (2.0 * hy)
           + kappa * u1[1:-1, 1:-1] - f1[1:-1, 1:-1])
    eq2 = ((u1[1:-1, 2:] - u1[1:-1, :-2]) / (2.0 * hy)
           - (u2[2:, 1:-1] - u2[:-2, 1:-1]) / (2.0 * hx) - f2[1:-1, 1:-1])
    fnorm = math.hypot(np.linalg.norm(f1[1:-1, 1:-1]),
                       np.linalg.norm(f2[1:-1, 1:-1]))
    ratio = math.hypot(np.linalg.norm(eq1), np.linalg.norm(eq2)) / fnorm
    if not ratio <= rtol:
        problems.append(f"residual/|f| = {ratio:.3e} > {rtol:g}")
    return problems


def illposedness(path, box, levels):
    """Finite condition figures >= 1 at strictly decreasing h.  Growth
    is not required: the figures are reported as they are."""
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    if len(rows) != len(levels):
        return [f"{len(rows)} levels reported, expected {len(levels)}"]
    problems = []
    x0, x1, y0, y1 = box
    for row, n in zip(rows, levels):
        h = max((x1 - x0) / (n - 1), (y1 - y0) / (n - 1))
        if not math.isclose(row["h"], h, rel_tol=1e-12):
            problems.append(f"h={row['h']!r} at level {n}, expected {h!r}")
        if not (math.isfinite(row["cond"]) and row["cond"] >= 1.0):
            problems.append(f"condition figure {row['cond']!r} at level {n}")
    return problems


def energy(path, kappa, trials, bound, expected_min=None, rtol=1e-9):
    """Energy-check report: passes, respects the bound, and (on the
    default seed) reproduces the recorded minimum ratio."""
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    problems = []
    ratios = rep.get("ratios", [])
    if rep.get("kappa") != kappa or len(ratios) != trials:
        problems.append(f"kappa {rep.get('kappa')!r} with {len(ratios)} "
                        f"ratios, expected {kappa!r} with {trials}")
    if not math.isclose(rep.get("bound", math.nan), bound, rel_tol=1e-15):
        problems.append(f"bound {rep.get('bound')!r}, expected {bound!r}")
    if rep.get("pass") is not True:
        problems.append("energy check did not pass")
    if not ratios or min(ratios) != rep.get("min_ratio"):
        problems.append("min_ratio is not the minimum of the ratios")
    elif not rep["min_ratio"] >= bound:
        problems.append(f"min_ratio {rep['min_ratio']!r} < bound {bound!r}")
    if expected_min is not None and not math.isclose(
            rep.get("min_ratio", math.nan), expected_min, rel_tol=rtol):
        problems.append(f"min_ratio {rep.get('min_ratio')!r} differs from "
                        f"the recorded {expected_min!r}")
    return problems


def species_table(species, b0, e_charge, eps0):
    """(Pi^2, Omega, charge sign) per species from the plasma config."""
    table = []
    for sp in species:
        q = sp["Z"] * sp["charge_sign"] * e_charge
        m = sp["mass_kg"]
        table.append((sp["density_m3"] * q * q / (eps0 * m),
                      abs(q * b0 / m), sp["charge_sign"]))
    return table


def stix(table, w):
    """Closed-form (R, L, p) at angular frequency w."""
    R = 1.0 - sum(pi2 / (w * (w + sgn * om)) for pi2, om, sgn in table)
    L = 1.0 - sum(pi2 / (w * (w - sgn * om)) for pi2, om, sgn in table)
    p = 1.0 - sum(pi2 for pi2, _, _ in table) / (w * w)
    return R, L, p


def _close(value, ref, scale, rtol):
    return abs(value - ref) <= rtol * scale + 1e-300


def dispersion(path, table, omegas, thetas, sample):
    """Exact header, row count and grid order; cyclotron rows flagged;
    sampled rows against closed-form A, B, C, F^2 and the quadratic."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    problems = []
    if lines[0] != SCAN_HEADER:
        return [f"header {lines[0]!r}"]
    rows = lines[1:]
    nt = len(thetas)
    if len(rows) != len(omegas) * nt:
        return [f"{len(rows)} rows, expected {len(omegas) * nt}"]
    resonant = {w for w in omegas
                if any(w == om for _, om, _ in table)}
    for k, line in enumerate(rows):
        w, t, rest = line.split(",", 2)
        if float(w) != omegas[k // nt] or float(t) != thetas[k % nt]:
            return [f"row {k} is off the (omega, theta) grid"]
        flagged = rest.endswith(",cyclotron_resonance")
        if flagged != (omegas[k // nt] in resonant):
            problems.append(f"row {k}: cyclotron flag {flagged}")
    if problems:
        return problems[:5]
    for k in sorted(int(i) for i in sample):
        problems += _scan_row(k, rows[k].split(","), table)
        if len(problems) >= 5:
            break
    return problems


def _scan_row(k, cols, table, rtol=1e-8):
    """One scan row against the closed form.  Tolerances are rtol times
    first-order rounding bounds built from the magnitudes of the terms
    that make up R, L and p, so that cancellation near cutoffs and near
    R = L does not trip them."""
    w, t = float(cols[0]), float(cols[1])
    A, B, C, F2, n1, n2 = (float(c) for c in cols[2:8])
    flag = cols[10]
    if flag == "cyclotron_resonance":
        return [] if all(math.isnan(v) for v in (A, B, C, F2, n1, n2)) \
            else [f"row {k}: cyclotron row carries values"]
    R, L, p = stix(table, w)
    M = 1.0 + sum(abs(pi2 / (w * (w + sgn * om)))
                  + abs(pi2 / (w * (w - sgn * om))) for pi2, om, sgn in table)
    Mp = 1.0 + sum(pi2 for pi2, _, _ in table) / (w * w)
    s, d = 0.5 * (R + L), 0.5 * (R - L)
    sin2, cos2 = math.sin(t) ** 2, math.cos(t) ** 2
    rl = s * s - d * d
    X = R * L - p * s
    dX = 2.0 * M * M + 2.0 * Mp * M
    ref = {
        "A": (s * sin2 + p * cos2, M * sin2 + Mp * cos2),
        "B": (rl * sin2 + p * s * (1.0 + cos2),
              2.0 * M * M * sin2 + Mp * M * (1.0 + cos2)),
        "C": (p * rl, 3.0 * Mp * M * M),
        "F2": (X * X * sin2 * sin2 + 4.0 * p * p * d * d * cos2,
               2.0 * abs(X) * dX * sin2 * sin2
               + 8.0 * (p * p * abs(d) * M + abs(p) * d * d * Mp) * cos2
               + rtol * (dX * dX * sin2 * sin2
                         + 4.0 * Mp * Mp * M * M * cos2)),
    }
    problems = [f"row {k}: {name}={got!r}, closed form {val!r}"
                for (name, (val, scale)), got in zip(ref.items(),
                                                     (A, B, C, F2))
                if not _close(got, val, scale, rtol)]
    if problems or flag == "degenerate":
        return problems
    if flag == "resonance":
        ok = _close(n1 * B, C, abs(n1 * B) + abs(C), rtol)
        return [] if ok else [f"row {k}: resonance root {n1!r} != C/B"]
    if flag:
        return [f"row {k}: unexpected flag {flag!r}"]
    # Both n^2 values solve A x^2 - B x + C = 0 and multiply to C / A.
    # The program takes F^2 in factored form, so its roots solve the
    # quadratic with C shifted by (F^2 - (B^2 - 4AC)) / 4A: allow that.
    slack = (B * B + 4.0 * abs(A * C) + abs(F2)) / (4.0 * abs(A))
    ok = all(_close(A * x * x - B * x, -C,
                    abs(A) * x * x + abs(B * x) + abs(C) + slack, rtol)
             for x in (n1, n2))
    ok &= _close(A * n1 * n2, C, abs(A * n1 * n2) + abs(C) + slack, rtol)
    for x, cls in ((n1, cols[8]), (n2, cols[9])):
        if cls == "propagating":
            ok &= x > 0.0
        elif cls == "evanescent":
            ok &= x < 0.0
        else:
            ok &= cls == "cutoff"
    return [] if ok else [f"row {k}: roots {n1!r}, {n2!r} ({cols[8]}, "
                          f"{cols[9]}) do not solve A n^4 - B n^2 + C = 0"]


def _changes_sign(fn, w, rel=1e-8):
    lo, hi = fn(w * (1.0 - rel)), fn(w * (1.0 + rel))
    return lo * hi <= 0.0


def cutoffs(path, table, bracket):
    """Every root brackets a sign change of its closed-form P, R or L;
    the P cutoff is sqrt(sum Pi^2) whenever that lies in the bracket."""
    with open(path, encoding="utf-8") as fh:
        found = json.load(fh)
    fns = {"R": lambda w: stix(table, w)[0], "L": lambda w: stix(table, w)[1],
           "P": lambda w: stix(table, w)[2]}
    problems = []
    omegas = [r["omega"] for r in found]
    if omegas != sorted(omegas) or not found:
        problems.append(f"{len(found)} cutoffs, not a sorted nonempty list")
    for r in found:
        if r["which"] not in fns or not bracket[0] <= r["omega"] <= bracket[1]:
            problems.append(f"cutoff {r!r} outside the bracket or labels")
        elif not _changes_sign(fns[r["which"]], r["omega"]):
            problems.append(f"no sign change of {r['which']} at {r!r}")
    w_p = math.sqrt(sum(pi2 for pi2, _, _ in table))
    p_roots = [r["omega"] for r in found if r["which"] == "P"]
    if bracket[0] < w_p < bracket[1] and not (
            len(p_roots) == 1 and math.isclose(p_roots[0], w_p,
                                               rel_tol=1e-9)):
        problems.append(f"P cutoffs {p_roots!r}, expected [{w_p!r}]")
    return problems


def resonances(path, table):
    """Every hybrid resonance brackets a sign change of closed-form s."""
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    roots = rep.get("roots", [])
    problems = [] if roots and roots == sorted(roots) else [
        f"{len(roots)} resonances, not a sorted nonempty list"]
    s = lambda w: 0.5 * sum(stix(table, w)[:2])  # noqa: E731
    problems += [f"no sign change of s at {w!r}" for w in roots
                 if not _changes_sign(s, w)]
    return problems


def typemap(path, box, n, a, b, k33, tol=1e-14):
    """K11 = x/a + z^2/b, constant K33 and the sign-of-product type at
    every lattice node, x-major."""
    xs, zs = _lattice(box, n)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        rows = [line.rstrip("\n").split(",") for line in fh]
    if header != "x,z,K11,K33,type" or len(rows) != n * n:
        return [f"header {header!r} with {len(rows)} rows"]
    problems = []
    for k, (x, z, v11, v33, kind) in enumerate(rows):
        xr, zr = xs[k // n], zs[k % n]
        ref = xr / a + zr * zr / b
        prod = ref * k33
        want = ("parabolic" if abs(prod) <= tol
                else "elliptic" if prod > 0.0 else "hyperbolic")
        if (float(x) != xr or float(z) != zr or float(v33) != k33
                or not math.isclose(float(v11), ref, rel_tol=1e-14,
                                    abs_tol=1e-15) or kind != want):
            problems.append(f"row {k}: {x},{z},{v11},{v33},{kind}")
            if len(problems) >= 5:
                break
    return problems


def characteristic(path, start, branch, h, box):
    """Starts at the start point, follows dx/dy = branch sqrt(y^2 - x),
    and stops for a reason other than the step limit."""
    data, problems = _read_csv(path, "branch,step,x,y")
    if problems:
        return problems
    if np.any(data[:, 0] != branch) or np.any(
            data[:, 1] != np.arange(len(data))):
        problems.append("branch or step columns are wrong")
    if data[0, 2] != start[0] or data[0, 3] != start[1]:
        problems.append(f"first point {tuple(data[0, 2:])}, start {start}")
    x, y = data[-1, 2], data[-1, 3]
    x0, x1, y0, y1 = box
    stopped = (math.hypot(x, y) < 10.0 * h or y * y - x < h * h
               or not (x0 <= x <= x1 and y0 <= y <= y1))
    if not stopped:
        problems.append(f"trace ended at ({x!r}, {y!r}) without reaching "
                        "the origin ball, the sonic line or the box "
                        "(step_limit)")
    # away from the sonic line the points must follow an independent
    # high-accuracy integration of dx/dy = branch sqrt(y^2 - x)
    from scipy.integrate import solve_ivp
    gap = data[:, 3] ** 2 - data[:, 2]
    far = np.argmax(gap < 1e-2) if np.any(gap < 1e-2) else len(data)
    if far > 1:
        ys = data[:far, 3]
        ref = solve_ivp(
            lambda yv, xv: branch * np.sqrt(np.maximum(yv * yv - xv, 0.0)),
            (ys[0], ys[-1]), [data[0, 2]], method="DOP853", rtol=1e-12,
            atol=1e-14, t_eval=ys).y[0]
        err = float(np.abs(ref - data[:far, 2]).max())
        if err > 1e-8:
            problems.append(f"points leave the characteristic by {err:.2e}")
    return problems


def layered(path, a, sigma0, psi0, x_range, rtol=1e-8):
    """End value against the integrating-factor closed form for
    K11 = x/a: psi0 (x0/x1) exp(-i sigma0 a ln(x1/x0))."""
    data, problems = _read_csv(path, "x,psi_re,psi_im")
    if problems:
        return problems
    x0, x1 = x_range
    if data[0, 1] != psi0.real or data[0, 2] != psi0.imag \
            or data[0, 0] != x0 or data[-1, 0] != x1:
        problems.append("start value or interval differs from the input")
    phase = sigma0 * a * math.log(x1 / x0)
    closed = psi0 * (x0 / x1) * complex(math.cos(phase), -math.sin(phase))
    end = complex(data[-1, 1], data[-1, 2])
    err = abs(end - closed) / abs(closed)
    if not err <= rtol:
        problems.append(f"end value off the closed form by {err:.2e}")
    return problems
