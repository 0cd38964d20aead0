"""Seeded inputs and command lines of the benchmark workloads.

``build(workload, seed, workdir)`` writes the configuration files a
workload needs into ``workdir`` and returns its steps.  A step is one
CLI command of a pass: the end-to-end metric its time feeds, the argv
handed to ``coldwave.cli.main`` (``{out}`` stands for the directory the
pass writes its outputs to), how many times a pass repeats it, and the
check that its output must pass.  Every number the program receives is
drawn from ``numpy.random.default_rng(seed)``.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import checks

WORKLOADS = ("bvp", "energy", "scan")

# Seed on which energy-check ratios are compared with the recorded
# values of the first baseline (BASELINE.json, "energy_reference").
DEFAULT_SEED = 0

ORIGIN_BOX = (-1.05, 0.95, -1.02, 0.98)
MIXED_BOX = (0.0, 1.0, 0.0, 0.75)

# CODATA 2018, kept here so that the checks do not read the program's
# own constants.
E_CHARGE = 1.602176634e-19
EPSILON_0 = 8.8541878128e-12
M_ELECTRON = 9.1093837015e-31
M_PROTON = 1.67262192369e-27
M_DEUTERON = 3.3435837724e-27


@dataclass
class Step:
    group: str          # end-to-end metric the step's time feeds
    argv: list          # argv for coldwave.cli.main, with {out} placeholders
    outputs: list       # output file names inside {out}
    check: object       # callable(out_dir) -> list of problems
    repeat: int = 1


def _write_json(workdir, name, obj):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _problem(box, n, kappa, bc, forcing):
    return {"kappa": kappa, "domain": {"rects": [list(box)]},
            "grid": {"nx": n, "ny": n}, "bc": bc, "forcing": forcing}


def _bvp(rng, wd):
    n_solve, n_mixed = 49, 41
    f = rng.uniform(-1.0, 1.0, (n_solve, n_solve))
    solve_cfg = _write_json(wd, "solve.json", _problem(
        ORIGIN_BOX, n_solve, 0.5, {"type": "closed_dirichlet"},
        {"kind": "samples", "values": f.tolist()}))
    f1 = rng.uniform(-1.0, 1.0, (n_mixed, n_mixed))
    f2 = rng.uniform(-1.0, 1.0, (n_mixed, n_mixed))
    mixed_cfg = _write_json(wd, "mixed.json", _problem(
        MIXED_BOX, n_mixed, 0.0, {"type": "mixed", "G": ["top", "left"]},
        {"kind": "samples2", "values1": f1.tolist(),
         "values2": f2.tolist()}))
    levels = (13, 33, 49)
    ill_cfg = _write_json(wd, "ill.json", _problem(
        ORIGIN_BOX, 13, 0.5, {"type": "closed_dirichlet"}, {"kind": "zero"}))
    return [
        Step("solve_s",
             ["--quiet", "--out", "{out}/solve.csv", "solve", "--problem",
              solve_cfg, "--summary", "{out}/solve_summary.json"],
             ["solve.csv", "solve_summary.json"],
             lambda d: checks.dirichlet(os.path.join(d, "solve.csv"),
                                        ORIGIN_BOX, n_solve, 0.5, f)),
        Step("solve_mixed_s",
             ["--quiet", "--out", "{out}/mixed.csv", "solve-mixed",
              "--problem", mixed_cfg, "--summary", "{out}/mixed_summary.json"],
             ["mixed.csv", "mixed_summary.json"],
             lambda d: checks.mixed(os.path.join(d, "mixed.csv"),
                                    MIXED_BOX, n_mixed, 0.0, f1, f2)),
        Step("illposedness_s",
             ["--quiet", "--out", "{out}/ill.json", "illposedness",
              "--problem", ill_cfg,
              "--levels", ",".join(str(n) for n in levels)],
             ["ill.json"],
             lambda d: checks.illposedness(os.path.join(d, "ill.json"),
                                           ORIGIN_BOX, levels)),
    ]


def _energy(rng, seed, reference):
    steps = []
    for tag, kappa in (("low", 0.5), ("high", 1.5)):
        program_seed = int(rng.integers(2 ** 31))
        name = f"energy_{tag}.json"
        expected = reference.get(str(kappa)) if seed == DEFAULT_SEED else None
        steps.append(Step(
            "energy_check_s",
            ["--quiet", "--seed", str(program_seed), "--out", "{out}/" + name,
             "energy-check", "--kappa", repr(kappa), "--trials", "50",
             "--nx", "65"],
            [name],
            lambda d, name=name, kappa=kappa, expected=expected:
                checks.energy(os.path.join(d, name), kappa, 50,
                              bound=0.05 * 0.9, expected_min=expected)))
    return steps


def _species(name, mass, sign, density):
    return {"name": name, "mass_kg": mass, "charge_sign": sign, "Z": 1,
            "density_m3": density}


def _scan(rng, wd):
    b0 = float(rng.uniform(1.0, 3.0))
    n_e = float(10.0 ** rng.uniform(18.0, 19.5))
    frac_d = float(rng.uniform(0.2, 0.8))
    species = [_species("electron", M_ELECTRON, -1, n_e),
               _species("proton", M_PROTON, 1, (1.0 - frac_d) * n_e),
               _species("deuteron", M_DEUTERON, 1, frac_d * n_e)]
    plasma_cfg = _write_json(wd, "plasma.json",
                             {"B0": b0, "species": species})
    table = checks.species_table(species, b0, E_CHARGE, EPSILON_0)
    cyclotron = [om for _, om, _ in table]

    # omega grid: log-uniform draws kept clear of the cyclotron
    # frequencies, plus those frequencies exactly (flagged rows)
    n_omega, n_theta = 1000, 100
    draws = 10.0 ** rng.uniform(6.0, 14.0, 4 * n_omega)
    clear = [float(w) for w in draws
             if all(abs(w - om) > 1e-6 * om for om in cyclotron)]
    omegas = sorted(clear[:n_omega - len(cyclotron)] + cyclotron)
    thetas = sorted([0.0, 0.5 * math.pi]
                    + rng.uniform(0.0, 0.5 * math.pi, n_theta - 2).tolist())
    sample = rng.choice(n_omega * n_theta, size=2000, replace=False)

    bracket = (1e6, 1e15)
    a11 = float(rng.uniform(0.5, 2.0))
    b11 = -float(rng.uniform(0.5, 2.0))
    k33 = float(rng.uniform(0.5, 2.0))
    fields_cfg = _write_json(wd, "fields.json", {
        "K11": {"kind": "affine_quadratic", "a": a11, "b": b11},
        "K33": {"kind": "constant", "value": k33}})
    n_map = 129
    start = (-float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.8, 1.0)))
    char_step, char_box = 2e-4, (-2.0, 2.0, -2.0, 2.0)
    a_lay = float(rng.uniform(0.5, 1.5))
    sigma0 = float(rng.uniform(-3.0, 3.0))
    psi0 = complex(*rng.uniform(-1.0, 1.0, 2))
    x_range = (0.5, 2.0)
    layered_cfg = _write_json(wd, "layered.json", {
        "K11": {"kind": "affine_quadratic", "a": a_lay, "b": 1.0},
        "sigma0": sigma0, "x_range": list(x_range)})

    box_flag = "--box=" + ":".join(repr(v) for v in char_box)
    steps = [
        Step("dispersion_s",
             ["--quiet", "--out", "{out}/scan.csv", "dispersion",
              "--plasma", plasma_cfg,
              "--omegas", ",".join(repr(w) for w in omegas),
              "--thetas", ",".join(repr(t) for t in thetas)],
             ["scan.csv"],
             lambda d: checks.dispersion(os.path.join(d, "scan.csv"), table,
                                         omegas, thetas, sample)),
        Step("roots_s",
             ["--quiet", "--out", "{out}/cutoffs.json", "cutoffs",
              "--plasma", plasma_cfg, "--bracket", "%r:%r" % bracket],
             ["cutoffs.json"],
             lambda d: checks.cutoffs(os.path.join(d, "cutoffs.json"), table,
                                      bracket),
             repeat=20),
        Step("roots_s",
             ["--quiet", "--out", "{out}/resonances.json", "resonances",
              "--plasma", plasma_cfg, "--bracket", "%r:%r" % bracket],
             ["resonances.json"],
             lambda d: checks.resonances(os.path.join(d, "resonances.json"),
                                         table),
             repeat=20),
        Step("typemap_s",
             ["--quiet", "--out", "{out}/typemap.csv", "typemap",
              "--fields", fields_cfg, "--box=-1:1:-1:1",
              "--nx", str(n_map), "--nz", str(n_map)],
             ["typemap.csv"],
             lambda d: checks.typemap(os.path.join(d, "typemap.csv"),
                                      (-1.0, 1.0, -1.0, 1.0), n_map,
                                      a11, b11, k33)),
    ]
    for branch in (1, -1):
        name = f"char_{'p' if branch > 0 else 'm'}.csv"
        steps.append(Step(
            "trace_s",
            ["--quiet", "--out", "{out}/" + name, "characteristics",
             "--start=%r,%r" % start, "--branch", str(branch),
             "--step", repr(char_step), box_flag],
            [name],
            lambda d, name=name, branch=branch: checks.characteristic(
                os.path.join(d, name), start, branch, char_step, char_box),
            repeat=3))
    steps.append(Step(
        "trace_s",
        ["--quiet", "--out", "{out}/layered.csv", "layered",
         "--layered", layered_cfg, "--psi0=%r,%r" % (psi0.real, psi0.imag),
         "--x0", repr(x_range[0]), "--x1", repr(x_range[1])],
        ["layered.csv"],
        lambda d: checks.layered(os.path.join(d, "layered.csv"), a_lay,
                                 sigma0, psi0, x_range),
        repeat=3))
    return steps


def build(workload, seed, workdir, energy_reference=None):
    """Write the workload's inputs for ``seed`` and return its steps."""
    rng = np.random.default_rng(seed)
    if workload == "bvp":
        return _bvp(rng, workdir)
    if workload == "energy":
        return _energy(rng, seed, energy_reference or {})
    if workload == "scan":
        return _scan(rng, workdir)
    raise ValueError(f"unknown workload {workload!r}")
