import json
import math
import os
from collections import deque
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldwave import cli
from coldwave import config as cfg
from coldwave import dispersion, electrostatics, errors, output, typegeometry
from coldwave.cli import KMAX_LIMIT, build_parser, main
from coldwave.dispersion import SCAN_HEADER, dispersion_scan
from coldwave.grid import Domain, Grid2D
from coldwave.multipliers import (MultiplierSpec, bump_gram,
                                  random_interior_bump,
                                  verify_energy_inequality)
from coldwave.plasma import cyclotron_frequency
from coldwave.solvers import ModelProblem, solve_closed_dirichlet
from test_config_output import assert_same_text, csv_oracle, expanded

SRC = os.path.dirname(os.path.dirname(cfg.__file__))


@pytest.fixture
def vacuum_json(tmp_path):
    path = tmp_path / "vacuum.json"
    path.write_text('{"B0": 0.0, "species": []}')
    return str(path)


@pytest.fixture
def hydrogen_json(tmp_path):
    path = tmp_path / "hydrogen.json"
    path.write_text(json.dumps({
        "B0": 1.0,
        "species": [{"name": "electron", "density_m3": 1e19},
                    {"name": "proton", "density_m3": 1e19}],
    }))
    return str(path)


@pytest.fixture
def problem_json(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({
        "kappa": 0.5,
        "domain": {"rects": [[-1.05, 0.95, -1.02, 0.98]]},
        "grid": {"nx": 13, "ny": 13},
        "bc": {"type": "closed_dirichlet"},
        "forcing": {"kind": "sine_bump"},
    }))
    return str(path)


@pytest.fixture
def mixed_json(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({
        "kappa": 0.0,
        "domain": {"rects": [[0.0, 1.0, 0.0, 0.75]]},
        "grid": {"nx": 13, "ny": 13},
        "bc": {"type": "mixed", "G": ["top", "left"]},
        "forcing": {"kind": "smooth2"},
    }))
    return str(path)


class TestStix:
    def test_vacuum(self, vacuum_json, tmp_path):
        out = tmp_path / "stix.json"
        code = main(["--out", str(out), "stix", "--plasma", vacuum_json,
                     "--omega", "1e9"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data == {"R": 1.0, "L": 1.0, "s": 1.0, "d": 0.0, "p": 1.0}

    def test_cyclotron_resonance_is_numerical_failure(self, hydrogen_json):
        om_e = 1.602176634e-19 / 9.1093837015e-31
        code = main(["--quiet", "stix", "--plasma", hydrogen_json,
                     "--omega", repr(om_e)])
        assert code == 2

    def test_underflowing_omega_is_numerical_failure(self, hydrogen_json,
                                                     capsys):
        assert main(["stix", "--plasma", hydrogen_json,
                     "--omega", "1e-170"]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: non-finite Stix parameter p=-inf at "
            "omega=1e-170\n")

    @pytest.mark.parametrize("command", ["cutoffs", "resonances"])
    def test_underflowing_bracket_is_numerical_failure(
            self, hydrogen_json, command, capsys):
        # an escaping numpy warning would end in an internal error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--plasma", hydrogen_json,
                         "--bracket", "1e-170:1e6"]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: non-finite Stix parameter p=-inf at "
            "omega=1e-170\n")

    def test_missing_file_invalid(self):
        assert main(["--quiet", "stix", "--plasma", "/nonexistent.json",
                     "--omega", "1e9"]) == 1

    @pytest.mark.parametrize("command", ["stix", "symbol-check"])
    @pytest.mark.parametrize("omega", ["nan", "-nan", "0", "-1e9", "inf"])
    def test_omega_must_be_positive(self, hydrogen_json, command, omega,
                                    capsys):
        need = "finite" if omega == "inf" else "> 0"
        assert main([command, "--plasma", hydrogen_json,
                     "--omega=" + omega]) == 1
        assert capsys.readouterr().err.startswith(
            f"invalid input: omega must be {need}, got ")


class TestSubcommands:
    def test_origin_chars(self, tmp_path):
        out = tmp_path / "oc.json"
        assert main(["--out", str(out), "origin-chars"]) == 0
        data = json.loads(out.read_text())
        assert data["count"] == 4
        assert data["roots"][0] == pytest.approx(0.390388, abs=1e-6)
        assert data["roots"][1] == pytest.approx(-0.640388, abs=1e-6)

    def test_dispersion_header(self, vacuum_json, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(["--out", str(out), "dispersion", "--plasma", vacuum_json,
                     "--omegas", "1e9,2e9", "--thetas", "0,90deg"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("omega,theta,A,B,C,F2,n2_plus,n2_minus,"
                            "class_plus,class_minus,flag")
        assert len(lines) == 5

    def test_cutoffs_and_resonances(self, hydrogen_json, tmp_path):
        out = tmp_path / "cut.json"
        assert main(["--out", str(out), "cutoffs", "--plasma", hydrogen_json,
                     "--bracket", "1e9:1e13"]) == 0
        cuts = json.loads(out.read_text())
        assert {c["which"] for c in cuts} == {"P", "R", "L"}
        out2 = tmp_path / "res.json"
        assert main(["--out", str(out2), "resonances", "--plasma",
                     hydrogen_json, "--bracket", "2e8:8e10"]) == 0
        res = json.loads(out2.read_text())
        assert res["roots"][0] == pytest.approx(res["lower_hybrid_estimate"],
                                                rel=0.01)

    def test_typemap(self, tmp_path):
        fields = tmp_path / "fields.json"
        fields.write_text(json.dumps({
            "K11": {"kind": "affine_quadratic", "a": 1.0, "b": 1.0},
            "K33": {"kind": "constant", "value": 1.0},
        }))
        out = tmp_path / "map.csv"
        code = main(["--quiet", "--out", str(out), "typemap", "--fields",
                     str(fields), "--box=-1:1:-1:1",
                     "--nx", "9", "--nz", "9"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,z,K11,K33,type"
        assert len(lines) == 82
        kinds = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert {"elliptic", "hyperbolic"} <= kinds

    @pytest.mark.parametrize("fields", [
        {"K11": {"kind": "constant", "value": -0.5}},
        {"K11": {"kind": "constant", "value": 0.0},
         "K33": {"kind": "constant", "value": 2.0}},
        {"K11": {"kind": "affine_quadratic", "a": 1.3, "b": -0.7},
         "K33": {"kind": "constant", "value": 0.8}},
        {"K11": {"kind": "expression-table", "xs": [-1.0, 0.0, 0.5, 1.0],
                 "zs": [-1.0, 1.0],
                 "values": [[1.0, -2.0], [0.5, 0.25], [-1.0, 3.0],
                            [2.0, 2.0]]},
         "K33": {"kind": "affine_quadratic", "a": 1.5, "b": -0.7}},
    ])
    def test_typemap_matches_per_point_oracle(self, fields, tmp_path, capsys):
        path = tmp_path / "fields.json"
        path.write_text(json.dumps(fields))
        out = tmp_path / "map.csv"
        box, nx, nz = (-1.2, 1.3, -1.0, 1.0), 17, 12
        assert main(["--out", str(out), "typemap", "--fields", str(path),
                     "--box=" + ":".join(map(repr, box)),
                     "--nx", str(nx), "--nz", str(nz)]) == 0
        k11 = cfg.parse_field(fields["K11"])
        k33 = cfg.parse_field(fields.get("K33"), default=1.0)
        rows = []
        for x in np.linspace(box[0], box[1], nx):
            for z in np.linspace(box[2], box[3], nz):
                v11 = float(np.real(k11(x, z)))
                v33 = float(np.real(k33(x, z)))
                product = v11 * v33
                kind = ("parabolic" if abs(product) <= 1e-14 else
                        "elliptic" if product > 0.0 else "hyperbolic")
                rows.append((x, z, v11, v33, kind))
        assert out.read_text() == csv_oracle("x,z,K11,K33,type", rows)
        k33_min = min(r[3] for r in rows)
        err = capsys.readouterr().err
        if k33_min <= 0.0:
            assert f"warning: K33 reaches {k33_min:g} <= 0" in err
        else:
            assert err == ""

    def test_characteristics(self, tmp_path):
        out = tmp_path / "char.csv"
        code = main(["--quiet", "--out", str(out), "characteristics",
                     "--start=-1,0.5", "--branch", "1", "--step", "1e-2",
                     "--max-steps", "2000"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "branch,step,x,y"
        assert len(lines) > 10

    def test_characteristics_elliptic_start_fails(self):
        assert main(["--quiet", "characteristics", "--start", "1,0",
                     "--branch", "1"]) == 2

    def test_symbol_check(self, tmp_path):
        out = tmp_path / "sym.json"
        code = main(["--out", str(out), "symbol-check", "--trials", "20"])
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == 20
        assert all(r["pass"] for r in records)

    def test_symbol_check_plasma_honours_tol(self, hydrogen_json, tmp_path,
                                             capsys):
        # 1e-6 from the proton cyclotron frequency: outside the default
        # guard of 1e-9, inside --tol 1e-3, where stix refuses it too
        pl = cfg.parse_plasma(cfg.load_json(hydrogen_json))
        omega = repr(cyclotron_frequency(pl.species[1], 1.0) * (1 + 1e-6))
        assert main(["--out", str(tmp_path / "a.json"), "symbol-check",
                     "--trials", "3", "--plasma", hydrogen_json,
                     "--omega", omega]) == 0
        capsys.readouterr()
        errs = []
        for argv in (["stix"], ["symbol-check", "--trials", "3"]):
            out = tmp_path / "b.json"
            assert main(["--tol", "1e-3", "--out", str(out), *argv,
                         "--plasma", hydrogen_json, "--omega", omega]) == 2
            assert not out.exists()
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("numerical failure: ")

    def test_layered(self, tmp_path):
        layered = tmp_path / "layered.json"
        layered.write_text(json.dumps({
            "K11": {"kind": "constant", "value": 2.0},
            "sigma0": 0.0,
            "x_range": [0.0, 1.0],
        }))
        out = tmp_path / "psi.csv"
        code = main(["--quiet", "--out", str(out), "layered", "--layered",
                     str(layered), "--psi0", "1,0", "--x0", "0.0",
                     "--x1", "1.0"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x,psi_re,psi_im"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.0, rel=1e-9)

    def test_layered_checks_nonvanishing_once(self, tmp_path, monkeypatch):
        # LayeredProblem checks its x_range when built, and integrate_layered
        # runs only inside it
        calls = []
        check = electrostatics._require_nonvanishing
        monkeypatch.setattr(electrostatics, "_require_nonvanishing",
                            lambda *a: calls.append(a[1:]) or check(*a))
        layered = tmp_path / "layered.json"
        layered.write_text(json.dumps({
            "K11": {"kind": "affine_quadratic", "a": 1.0, "b": 1.0},
            "sigma0": 2.0, "x_range": [0.5, 2.0]}))
        for x0, x1 in (("0.5", "2.0"), ("1.0", "1.5")):
            calls.clear()
            assert main(["--quiet", "--out", str(tmp_path / "psi.csv"),
                         "layered", "--layered", str(layered), "--psi0",
                         "1,0", "--x0", x0, "--x1", x1]) == 0
            assert calls == [(0.5, 2.0)]

    @pytest.mark.parametrize("x0, x1, message", [
        ("1.5", "0.6", "x0 must be below x1 (x0=1.5, x1=0.6, "
                       "x_range=[0.5, 2.0])"),
        ("0.6", "0.6", "x0 must be below x1 (x0=0.6, x1=0.6, "
                       "x_range=[0.5, 2.0])"),
        ("0.1", "0.6", "[x0, x1] must lie inside the problem's x_range "
                       "(x0=0.1, x1=0.6, x_range=[0.5, 2.0])"),
        ("0.6", "2.5", "[x0, x1] must lie inside the problem's x_range "
                       "(x0=0.6, x1=2.5, x_range=[0.5, 2.0])"),
    ], ids=["descending", "equal", "below-range", "above-range"])
    def test_layered_refusal_names_its_condition(self, tmp_path, capsys, x0,
                                                 x1, message):
        layered = tmp_path / "layered.json"
        layered.write_text(json.dumps({
            "K11": {"kind": "affine_quadratic", "a": 1.0, "b": 1.0},
            "sigma0": 2.0, "x_range": [0.5, 2.0]}))
        assert main(["layered", "--layered", str(layered), "--x0", x0,
                     "--x1", x1]) == 1
        assert capsys.readouterr().err == f"invalid input: {message}\n"

    def test_layered_singular_exit(self, tmp_path):
        layered = tmp_path / "layered.json"
        layered.write_text(json.dumps({
            "K11": {"kind": "affine_quadratic", "a": 1.0, "b": 1e12},
            "sigma0": 0.0,
            "x_range": [-0.5, 0.5],
        }))
        code = main(["--quiet", "layered", "--layered", str(layered),
                     "--psi0", "1,0", "--x0", "-0.5", "--x1", "0.5"])
        assert code == 2

    def test_layered_unconverged_exit(self, tmp_path, monkeypatch, capsys):
        # a quadrature still above tolerance at the cell cap is not accepted
        monkeypatch.setattr(electrostatics, "LAYERED_MAX_CELLS", 100)
        layered = tmp_path / "layered.json"
        layered.write_text(json.dumps({
            "K11": {"kind": "affine_quadratic", "a": 1.0, "b": 1.0},
            "sigma0": 30.0,
            "x_range": [1e-4, 1.0],
        }))
        out = tmp_path / "psi.csv"
        code = main(["--out", str(out), "layered", "--layered",
                     str(layered), "--psi0", "1,0", "--x0", "1e-4",
                     "--x1", "1"])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("numerical failure: layered quadrature did "
                              "not converge (relative phase change ")
        assert err.endswith(" at 99 cells, tolerance 1e-09)\n")

    def test_layered_piecewise_linear_table(self, tmp_path, capsys):
        # a kinked K11: tau is a sum of ln(K(b)/K(a)) / K' over the pieces
        xs, ks, sigma0 = [0.5, 0.9, 1.3, 2.0], [1.0, 0.3, 2.0, 0.8], 2.0
        layered = tmp_path / "layered.json"
        layered.write_text(json.dumps({
            "K11": {"kind": "expression-table", "xs": xs, "zs": [-1.0, 1.0],
                    "values": [[k, k] for k in ks]},
            "sigma0": sigma0, "x_range": [0.5, 2.0]}))
        out = tmp_path / "psi.csv"
        code = main(["--out", str(out), "layered", "--layered",
                     str(layered), "--psi0", "1,0", "--x0", "0.5",
                     "--x1", "2.0"])
        cells = len(out.read_text().splitlines()) - 2
        assert code == 0
        assert capsys.readouterr().err == f"accepted at {cells} cells\n"
        x, re, im = np.loadtxt(out, delimiter=",", skiprows=1).T
        k = np.interp(x, xs, ks)
        piece = np.clip(np.searchsorted(xs, x) - 1, 0, 2)
        slopes = np.diff(ks) / np.diff(xs)
        tau_at = np.concatenate(([0.0], np.cumsum(np.log(
            np.divide(ks[1:], ks[:-1])) / slopes)))
        tau = tau_at[piece] + np.log(k / np.take(ks, piece)) / slopes[piece]
        exact = ks[0] / k * np.exp(-1j * sigma0 * tau)
        assert np.abs(re + 1j * im - exact).max() <= 1e-10

    def test_solve_and_summary(self, problem_json, tmp_path):
        out = tmp_path / "u.csv"
        summary = tmp_path / "summary.json"
        code = main(["--quiet", "--out", str(out), "solve", "--problem",
                     problem_json, "--summary", str(summary)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,y,u"
        info = json.loads(summary.read_text())
        assert {"residual_norm", "condition_estimate", "rank",
                "l2_weighted", "h1_weighted"} <= set(info)
        assert info["method"] == "splu"
        assert info["unknowns"] == info["rank"] == 11 * 11
        assert info["ordering"] == "MMD_AT_PLUS_A"
        assert 0.0 <= info["backward_error"] <= 1e-14
        assert info["unknowns"] < info["nnz"] < info["lu_nnz"]

    def test_solve_mixed(self, mixed_json, tmp_path):
        out = tmp_path / "u12.csv"
        summary = tmp_path / "summary.json"
        code = main(["--quiet", "--out", str(out), "solve-mixed",
                     "--problem", mixed_json, "--summary", str(summary)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,y,u1,u2"
        info = json.loads(summary.read_text())
        assert info["residual_norm"] <= 1e-6 * info["forcing_norm"]
        assert info["method"] == "splu"
        assert info["ordering"] == "MMD_AT_PLUS_A"
        assert 0.0 <= info["backward_error"] <= 1e-14
        assert info["rank"] < info["unknowns"] < info["nnz"] < info["lu_nnz"]

    def test_solve_mixed_inadmissible_exit(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "kappa": 0.0,
            "domain": {"rects": [[0.0, 1.0, 0.0, 0.75]]},
            "grid": {"nx": 13, "ny": 13},
            "bc": {"type": "mixed", "G": ["bottom"]},
            "forcing": {"kind": "zero2"},
        }))
        assert main(["--quiet", "solve-mixed", "--problem", str(path)]) == 3

    def test_out_of_memory_is_numerical_failure(self, mixed_json,
                                                monkeypatch, capsys):
        import coldwave.solvers

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.9 GiB")

        monkeypatch.setattr(coldwave.solvers, "solve_mixed", no_memory)
        assert main(["--quiet", "solve-mixed", "--problem", mixed_json]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "out of memory" in err

    @pytest.mark.parametrize("bc,forcing,argv", [
        ({"type": "mixed", "G": ["top", "left"]}, "smooth2",
         ["solve-mixed"]),
        ({"type": "closed_dirichlet"}, "one", ["solve"]),
        ({"type": "closed_dirichlet"}, "one",
         ["illposedness", "--levels", "13,33,4097"]),
    ])
    def test_oversized_grid_refused_before_assembly(self, tmp_path, capsys,
                                                    monkeypatch, bc, forcing,
                                                    argv):
        import resource

        # an 8 GB address-space cap keeps the refusal independent of the
        # machine's memory (4097^2 needs about 107 GB for solve)
        monkeypatch.setattr(resource, "getrlimit",
                            lambda which: (8 << 30, resource.RLIM_INFINITY))
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "kappa": 0.0, "domain": {"rects": [[0.0, 1.0, 0.0, 0.75]]},
            "grid": {"nx": 4097, "ny": 4097}, "bc": bc,
            "forcing": {"kind": forcing}}))
        t0 = time.perf_counter()
        code = main(["--out", str(tmp_path / "out"), argv[0], "--problem",
                     str(path), *argv[1:]])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert "nx=4097, ny=4097" in err and " MB " in err
        assert elapsed < 1.0
        assert not (tmp_path / "out").exists()

    def test_unexpected_exception_is_internal_error(self, monkeypatch,
                                                    capsys):
        import coldwave.cli

        def broken(run):
            raise TypeError("unsupported operand\ntype(s)")

        monkeypatch.setitem(coldwave.cli._COMMANDS, "origin-chars", broken)
        assert main(["--quiet", "origin-chars"]) == 2
        err = capsys.readouterr().err
        assert err == "internal error: TypeError: unsupported operand type(s)\n"

        def interrupted(run):
            raise KeyboardInterrupt

        monkeypatch.setitem(coldwave.cli._COMMANDS, "origin-chars",
                            interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["--quiet", "origin-chars"])

    def test_non_finite_matrix_is_numerical_failure(self, problem_json,
                                                    monkeypatch, capsys):
        import coldwave.solvers

        real = coldwave.solvers.assemble_dirichlet

        def poisoned(grid, kappa):
            A, idx = real(grid, kappa)
            A.data[0] = np.nan
            return A, idx

        monkeypatch.setattr(coldwave.solvers, "assemble_dirichlet", poisoned)
        assert main(["--quiet", "solve", "--problem", problem_json]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, coldwave.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "[]"

    @staticmethod
    def _coldwave_modules(argv=None):
        """The coldwave modules loaded, in a fresh interpreter that
        compiles them from source, by importing the cli and then running
        ``main(argv)`` (after an assertion that it exits 0)."""
        code = "import sys; from coldwave.cli import main; "
        if argv is not None:
            code += f"assert main({argv!r}) == 0; "
        code += ("print(' '.join(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'coldwave')))")
        out = subprocess.run([sys.executable, "-B", "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC})
        return set(out.stdout.split())

    def test_cli_import_loads_front_end_only(self):
        # constants: SPECIES_ALIASES, which config builds at import
        assert self._coldwave_modules() == {
            "coldwave", "coldwave.cli", "coldwave.config",
            "coldwave.constants", "coldwave.errors", "coldwave.output"}

    # command -> (its input files by name, its arguments, in which
    # "{name}" stands for the path of that file, and the modules it must
    # not load)
    COMMAND_MODULES = {
        "stix": (
            {"plasma": {"B0": 1.0, "species": [
                {"name": "electron", "density_m3": 1e19},
                {"name": "proton", "density_m3": 1e19}]}},
            ["--plasma", "{plasma}", "--omega", "1e9"],
            "grid operators quadrature multipliers solvers electrostatics"),
        "dispersion": (
            {"plasma": {"B0": 1.0, "species": [
                {"name": "electron", "density_m3": 1e19}]}},
            ["--plasma", "{plasma}", "--omegas", "1e9,2e9", "--thetas",
             "0,1"],
            "grid operators quadrature multipliers solvers electrostatics"),
        "typemap": (
            {"fields": {"K11": {"kind": "affine_quadratic", "a": 1.0,
                                "b": -1.0}}},
            ["--fields", "{fields}", "--box=0:1:0:1", "--nx", "3", "--nz",
             "3"],
            "quadrature operators multipliers solvers"),
        "layered": (
            {"layered": {"K11": {"kind": "affine_quadratic", "a": 1.0,
                                 "b": 1.0},
                         "sigma0": 2.0, "x_range": [0.5, 2.0]}},
            ["--layered", "{layered}", "--x0", "0.6", "--x1", "1.5"],
            "quadrature operators multipliers solvers"),
        "energy-check": (
            {}, ["--kappa", "1.5", "--trials", "2", "--nx", "9"],
            "solvers plasma dispersion electrostatics"),
        "solve": (
            {"problem": {"kappa": 0.5,
                         "domain": {"rects": [[-1.0, 1.0, -1.0, 1.0]]},
                         "grid": {"nx": 9, "ny": 9},
                         "forcing": {"kind": "one"}}},
            ["--problem", "{problem}"],
            "plasma dispersion rootscan electrostatics fields"),
    }

    @pytest.mark.parametrize("command", COMMAND_MODULES)
    def test_command_loads_only_its_modules(self, tmp_path, command):
        files, argv, unloaded = self.COMMAND_MODULES[command]
        paths = {}
        for name, data in files.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            paths[name] = str(path)
        loaded = self._coldwave_modules(
            ["--quiet", "--out", str(tmp_path / "out"), command,
             *(a.format(**paths) for a in argv)])
        assert not loaded & {f"coldwave.{m}" for m in unloaded.split()}

    def test_oversized_grid_refusal_loads_no_scipy(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "kappa": 0.5, "domain": {"rects": [[-1.0, 1.0, -1.0, 1.0]]},
            "grid": {"nx": 8193, "ny": 8193}, "forcing": {"kind": "one"}}))
        code = ("import sys; from coldwave.cli import main; "
                "code = main(['--quiet', 'solve', '--problem', sys.argv[1]]); "
                "print(code, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code, str(path)],
                             check=True, capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "2 []"
        assert "nx=8193, ny=8193" in out.stderr

    def test_energy_check(self, tmp_path):
        out = tmp_path / "energy.json"
        code = main(["--out", str(out), "energy-check", "--kappa", "1.0",
                     "--trials", "3", "--nx", "17"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        assert report["min_ratio"] >= report["bound"]
        minimizer = np.array(report["span_minimizer"])
        assert minimizer.shape == (4, 4)
        assert minimizer.flat[np.argmax(np.abs(minimizer))] == 1.0
        assert report["span_min_ratio"] >= report["bound"]
        assert report["span_min_ratio_refined"] >= report["bound"]

    def test_energy_check_matches_per_field_trials(self, tmp_path):
        # the same seeded bumps as random_interior_bump, each checked by
        # verify_energy_inequality on the nx and 2nx-1 grids
        out = tmp_path / "energy.json"
        assert main(["--out", str(out), "--seed", "7", "energy-check",
                     "--kappa", "0.5", "--trials", "4", "--nx", "17",
                     "--box=-0.5:1:-0.8:0.6"]) == 0
        report = json.loads(out.read_text())
        domain = Domain.rectangle(-0.5, 1.0, -0.8, 0.6)
        grids = [Grid2D(domain, 17, 17), Grid2D(domain, 33, 33)]
        spec = MultiplierSpec(0.5, domain)
        rng = np.random.default_rng(7)
        pairs = []
        for _ in range(4):
            bump = random_interior_bump(domain, rng)
            pair = []
            for g in grids:
                u = g.evaluate(bump)
                u[g.boundary] = 0.0
                pair.append(verify_energy_inequality(u, spec, g).ratio)
            pairs.append(pair)
        np.testing.assert_allclose(report["ratios"],
                                   [min(p) for p in pairs], rtol=1e-12)
        assert report["max_two_resolution_gap"] == pytest.approx(
            max(abs(a - b) for a, b in pairs), rel=1e-10)

    @pytest.mark.parametrize("box", ["-1:1:-1:1", "0:1:-0.3:0.7"])
    def test_energy_check_builds_one_spec_from_the_box(self, box, tmp_path,
                                                       monkeypatch):
        # one multiplier for both grids, from kappa and the box's exact
        # range of K, whether or not the lattice holds its extremes
        built = []
        real = MultiplierSpec.__post_init__

        def counted(spec):
            built.append(spec.domain)
            real(spec)

        monkeypatch.setattr(MultiplierSpec, "__post_init__", counted)
        out = tmp_path / "energy.json"
        assert main(["--out", str(out), "--seed", "3", "energy-check",
                     "--kappa", "1.5", "--trials", "3", "--nx", "17",
                     "--box=" + box]) == 0
        domain = Domain.rectangle(*map(float, box.split(":")))
        assert built == [domain]
        spec = MultiplierSpec(1.5, domain)
        alphas = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 4, 4))
        ratios = np.minimum(*(bump_gram(Grid2D(domain, n, n), spec)
                              .ratios(alphas) for n in (17, 33)))
        assert json.loads(out.read_text())["ratios"] == ratios.tolist()

    def test_energy_check_span_undefined_on_coarse_grid(self, tmp_path):
        # on 5 x 5 nodes some bump vanishes at every node: W is singular
        out = tmp_path / "energy.json"
        assert main(["--out", str(out), "energy-check", "--kappa", "1.0",
                     "--trials", "3", "--nx", "5"]) in (0, 3)
        report = json.loads(out.read_text())
        assert len(report["ratios"]) == 3
        assert report["span_min_ratio"] is None
        assert report["span_minimizer"] is None
        assert report["span_min_ratio_refined"] is None

    def test_energy_check_loads_no_scipy(self, tmp_path):
        code = ("import sys; from coldwave.cli import main; "
                "code = main(['--quiet', '--out', sys.argv[1], "
                "'energy-check', '--kappa', '1.5', '--trials', '2', "
                "'--nx', '17']); "
                "print(code, sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "e.json")],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "0 []"

    def test_benchmark_scan_and_energy_load_no_scipy(self):
        # importing scipy.optimize alone takes the resident set from
        # about 27 to 76 MB, far above the benchmark's peak_rss_mb bound
        code = """
import os, sys, tempfile
sys.path.insert(0, "perfbench")
import workloads
from coldwave.cli import main
with tempfile.TemporaryDirectory() as wd:
    out = os.path.join(wd, "out")
    os.mkdir(out)
    codes = [main([a.replace("{out}", out) for a in step.argv])
             for w in ("scan", "energy") for step in workloads.build(w, 1, wd)]
print(set(codes),
      sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        out = subprocess.run([sys.executable, "-B", "-c", code],
                             cwd=os.path.dirname(SRC), check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC})
        assert out.stdout.strip() == "{0} []"

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_energy_check_trials_positive(self, trials, capsys):
        assert main(["energy-check", "--kappa", "1.0",
                     "--trials", trials]) == 1
        assert "argument --trials: must be positive" in capsys.readouterr().err

    def test_illposedness(self, problem_json, tmp_path):
        out = tmp_path / "ill.json"
        code = main(["--out", str(out), "illposedness", "--problem",
                     problem_json, "--levels", "9,13,17"])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data) == 3
        assert all(d["cond"] > 0 for d in data)

    def test_illposedness_too_few_levels(self, problem_json):
        assert main(["--quiet", "illposedness", "--problem", problem_json,
                     "--levels", "9,13"]) == 1

    @pytest.mark.parametrize("levels", ["13,13,13", "9,17,13"])
    def test_illposedness_levels_increasing(self, problem_json, levels,
                                            capsys):
        assert main(["illposedness", "--problem", problem_json,
                     "--levels", levels]) == 1
        err = capsys.readouterr().err
        assert "argument --levels: levels must be strictly increasing" in err

    def test_invalid_kappa_exit(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "kappa": 3.0,
            "domain": {"rects": [[-1, 1, -1, 1]]},
            "grid": {"nx": 13, "ny": 13},
            "bc": {"type": "closed_dirichlet"},
            "forcing": {"kind": "zero"},
        }))
        assert main(["--quiet", "solve", "--problem", str(path)]) == 1


class TestConsoleScript:
    def _run(self, *argv):
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
        return subprocess.run([sys.executable, "-m", "coldwave.cli", *argv],
                              env=env, capture_output=True, text=True)

    def test_entry_point_with_thread_cap(self, vacuum_json, tmp_path):
        out = tmp_path / "stix.json"
        proc = self._run("--out", str(out), "stix", "--plasma", vacuum_json,
                         "--omega", "1e9")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["p"] == 1.0

    def test_entry_point_usage_error_exits_1(self, vacuum_json):
        proc = self._run("stix", "--plasma", vacuum_json, "--omega", "abc")
        assert proc.returncode == 1
        assert proc.stderr.startswith("usage: coldwave stix")
        assert "error: argument --omega: invalid float value: 'abc'" \
            in proc.stderr

    def test_global_flags_after_subcommand(self, vacuum_json, tmp_path):
        out = tmp_path / "stix.json"
        assert main(["stix", "--plasma", vacuum_json, "--omega", "1e9",
                     "--out", str(out), "--seed", "7"]) == 0
        assert json.loads(out.read_text())["R"] == 1.0


# Exit code and stderr prefix of each toolkit error, as main reported
# them when the classification was kept in three tuples of classes.
FAILURE_TABLE = {
    "CyclotronResonance": (2, "numerical failure"),
    "BracketTooWide": (2, "numerical failure"),
    "SingularCoefficient": (2, "numerical failure"),
    "DegenerateQuartic": (2, "numerical failure"),
    "FactorizationFailure": (2, "numerical failure"),
    "StartNotHyperbolic": (2, "numerical failure"),
    "LayeredNotConverged": (2, "numerical failure"),
    "GridTooLarge": (2, "numerical failure"),
    "InadmissibleBoundary": (3, "check failed"),
    "SpecInvalid": (1, "invalid configuration"),
    "InsufficientLevels": (1, "invalid configuration"),
    "MissingElectrons": (1, "invalid configuration"),
    "LengthMismatch": (1, "invalid configuration"),
}
KINDS = ("InvalidConfiguration", "NumericalFailure", "CheckFailed")


def concrete_errors():
    """Every ColdwaveError subclass in coldwave.errors but the kinds."""
    return [c for name, c in sorted(vars(errors).items())
            if isinstance(c, type) and issubclass(c, errors.ColdwaveError)
            and name not in ("ColdwaveError", *KINDS)]


class TestFailureTable:
    def _fail_with(self, exc, monkeypatch, capsys):
        def failing(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "origin-chars", failing)
        code = main(["origin-chars"])
        return code, capsys.readouterr().err

    def test_table_names_every_error(self):
        assert sorted(c.__name__ for c in concrete_errors()) \
            == sorted(FAILURE_TABLE)

    @pytest.mark.parametrize("cls", concrete_errors(),
                             ids=lambda c: c.__name__)
    def test_exit_code_and_stderr(self, cls, monkeypatch, capsys):
        code, prefix = FAILURE_TABLE[cls.__name__]
        assert self._fail_with(cls("kappa=0.5 at 3 nodes"), monkeypatch,
                               capsys) \
            == (code, f"{prefix}: kappa=0.5 at 3 nodes\n")

    @pytest.mark.parametrize("cls", concrete_errors(),
                             ids=lambda c: c.__name__)
    def test_one_kind_each(self, cls):
        kinds = [getattr(errors, k) for k in KINDS]
        (kind,) = [k for k in kinds if issubclass(cls, k)]
        assert (kind.exit_code, kind.prefix) == FAILURE_TABLE[cls.__name__]

    @pytest.mark.parametrize("exc, expected", [
        (errors.ColdwaveError("bare"), (2, "error: bare\n")),
        (MemoryError("7.9 GiB"),
         (2, "numerical failure: out of memory: 7.9 GiB\n")),
        (ValueError("bad value"), (1, "invalid input: bad value\n")),
        # no reader indexes a mapping with a user's key: a KeyError is a bug
        (KeyError("x_range"),
         (2, "internal error: KeyError: 'x_range'\n")),
        (OSError("no such file"), (1, "invalid input: no such file\n")),
        (TypeError("unsupported\noperand"),
         (2, "internal error: TypeError: unsupported operand\n")),
    ], ids=["ColdwaveError", "MemoryError", "ValueError", "KeyError",
            "OSError", "TypeError"])
    def test_other_exceptions(self, exc, expected, monkeypatch, capsys):
        assert self._fail_with(exc, monkeypatch, capsys) == expected


class TestInputChecks:
    @pytest.mark.parametrize("kappa", ["0.5", "1.5"])
    @pytest.mark.parametrize("delta_tilde", ["-0.5", "0"])
    def test_delta_tilde_positive(self, kappa, delta_tilde, tmp_path,
                                  capsys):
        # a margin <= 0 would widen the admissible N interval at kappa < 1
        out = tmp_path / "e.json"
        assert main(["--out", str(out), "energy-check", "--kappa", kappa,
                     "--nx", "9", "--trials", "2",
                     f"--delta-tilde={delta_tilde}"]) == 1
        assert capsys.readouterr().err == (
            f"invalid configuration: delta_tilde={float(delta_tilde)!r} "
            "must be positive\n")
        assert not out.exists()

    def test_illposedness_refuses_mixed_problem(self, problem_json,
                                                mixed_json, tmp_path, capsys):
        # solve and solve-mixed refuse the other problem as illposedness
        # does, with the message of the solver that refuses it
        out = tmp_path / "out"
        for argv, bc in (
                (["illposedness", "--problem", mixed_json,
                  "--levels", "9,13,17"], "closed_dirichlet"),
                (["solve", "--problem", mixed_json], "closed_dirichlet"),
                (["solve-mixed", "--problem", problem_json], "mixed")):
            assert main(["--out", str(out), *argv]) == 1
            assert capsys.readouterr().err \
                == f"invalid input: problem.bc must be {bc!r}\n"
            assert not out.exists()

    @pytest.mark.parametrize("box, message", [
        ("0:1e300:0:1", "Q1 is not finite for K in [-1.0, 1e+300]"),
        ("-1000:1:-1:1", "Q2 is not > 0 for K in [-1001.0, 1.0]"),
        ("-740:1:-1:1",
         "6 delta mu2 / Q2 is not finite for K in [-741.0, 1.0]")])
    def test_energy_check_multiplier_out_of_range(self, box, message,
                                                  tmp_path, capsys):
        # exp(2 delta max K) overflowed to an internal error, and exp(min K)
        # underflowed to 0, or to a subnormal Q2 that overflows 6 delta K /
        # Q2, with a RuntimeWarning and a pass
        out = tmp_path / "e.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(out), "energy-check", "--kappa", "1.5",
                         "--box=" + box, "--nx", "9", "--trials", "2"]) == 1
        assert capsys.readouterr().err \
            == f"invalid configuration: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("box, shown", [
        ("0:1e-300:0:1e-300", "[0.0, 1e-300] x [0.0, 1e-300]"),
        ("0:1e-160:0:1e-160", "[0.0, 1e-160] x [0.0, 1e-160]"),
        ("-1e150:1e150:-1e150:1e150",
         "[-1e+150, 1e+150] x [-1e+150, 1e+150]")])
    def test_energy_check_gram_not_finite(self, box, shown, tmp_path,
                                          capsys):
        # h^2 underflows (1e-300) or the Gram's sums overflow (1e-160,
        # and the centroid sums of the cut cells at 1e150): the NaN
        # ratios were reported as a failed inequality, with
        # RuntimeWarnings, and exit 3
        out = tmp_path / "e.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(out), "energy-check", "--kappa", "0.5",
                         "--box=" + box, "--nx", "9", "--trials", "3"]) == 2
        assert capsys.readouterr().err == (
            "numerical failure: bump Gram is not finite on the 9 x 9 grid "
            f"of the box {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, rect, message", [
        # the quadrature's centroid sums overflow: NaN norms with exit 0
        (["solve"], [-1e150, 1e150, -1e150, 1e150],
         "weighted norms are not finite on the 9 x 9 grid of the box "
         "[-1e+150, 1e+150] x [-1e+150, 1e+150]"),
        # h^2 underflows to 0: a ZeroDivisionError in the assembly
        (["solve"], [0.0, 1e-300, 0.0, 1e-300],
         "grid nx=9, ny=9 of the box [0.0, 1e-300] x [0.0, 1e-300] is "
         "too fine: the square of its step underflows"),
        (["illposedness", "--levels", "9,13,17"], [0.0, 1e-300, 0.0, 1e-300],
         "grid nx=9, ny=9 of the box [0.0, 1e-300] x [0.0, 1e-300] is "
         "too fine: the square of its step underflows")])
    def test_solve_out_of_float_range(self, argv, rect, message, tmp_path,
                                      capsys):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "kappa": 0.5, "domain": {"rects": [rect]},
            "grid": {"nx": 9, "ny": 9}, "forcing": {"kind": "one"}}))
        out, summary = tmp_path / "u.csv", tmp_path / "summary.json"
        extra = ["--summary", str(summary)] if argv == ["solve"] else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(out), argv[0], "--problem",
                         str(problem), *argv[1:], *extra]) == 2
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert not out.exists() and not summary.exists()

    def test_solve_mixed_multiplier_overflow(self, tmp_path, capsys):
        problem = tmp_path / "mixed.json"
        problem.write_text(json.dumps({
            "kappa": 0.0, "domain": {"rects": [[-1.0, 1.0, -1.0, 1.0]]},
            "grid": {"nx": 9, "ny": 9},
            "bc": {"type": "mixed", "G": ["top", "left"]}}))
        out = tmp_path / "mixed.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--out", str(out), "solve-mixed", "--problem",
                         str(problem), "--mu", "1e308"]) == 1
        assert capsys.readouterr().err == (
            "invalid configuration: s_const=inf is not finite for "
            "mu=1e+308 on ((-1.0, 1.0, -1.0, 1.0),)\n")
        assert not out.exists()

    def test_symbol_check_omega_needs_plasma(self, tmp_path, capsys):
        # the frequency was ignored and the vacuum check ran
        out = tmp_path / "sym.json"
        assert main(["--out", str(out), "symbol-check", "--omega", "1e9",
                     "--trials", "2"]) == 1
        assert capsys.readouterr().err \
            == "invalid input: --omega requires --plasma\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, bracket", [
        ("cutoffs", "1:inf"), ("resonances", "1e6:inf")])
    def test_infinite_bracket(self, hydrogen_json, command, bracket,
                              tmp_path, capsys):
        out = tmp_path / "roots.json"
        assert main(["--out", str(out), command, "--plasma", hydrogen_json,
                     "--bracket", bracket]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: argument --bracket: must be finite, got {bracket!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("bracket", ["abc:1", "1:2e"])
    def test_bracket_bound_not_a_number(self, hydrogen_json, bracket,
                                        tmp_path, capsys):
        out = tmp_path / "roots.json"
        assert main(["--out", str(out), "cutoffs", "--plasma", hydrogen_json,
                     "--bracket", bracket]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: argument --bracket: invalid bracket: {bracket!r}\n")
        assert not out.exists()


class TestNonFiniteConfig:
    """NaN, Infinity and overflowing numbers in a configuration file are
    refused when it is read (exit 1, no output), by every command."""

    HYDROGEN = [{"name": "electron", "density_m3": 1e19},
                {"name": "proton", "density_m3": 1e19}]
    CASES = {
        "typemap": ({"K11": {"kind": "constant", "value": math.nan}},
                    ["typemap", "--fields", "{cfg}", "--box=0:1:0:1",
                     "--nx", "3", "--nz", "2"], "NaN"),
        "dispersion": ({"B0": math.nan, "species": HYDROGEN},
                       ["dispersion", "--plasma", "{cfg}", "--omegas", "1e9",
                        "--thetas", "0"], "NaN"),
        "stix": ('{"B0": 1e999, "species": []}',
                 ["stix", "--plasma", "{cfg}", "--omega", "1e9"], "1e999"),
        "solve": ({"kappa": 0.5,
                   "domain": {"rects": [[0.0, math.inf, 0.0, 1.0]]},
                   "grid": {"nx": 9, "ny": 9}},
                  ["solve", "--problem", "{cfg}"], "Infinity"),
        "layered": ({"K11": {"kind": "constant", "value": 1.0},
                     "sigma0": math.nan, "x_range": [0.0, 1.0]},
                    ["layered", "--layered", "{cfg}", "--x0", "0", "--x1",
                     "1"], "NaN"),
    }

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_refused_before_any_output(self, command, tmp_path, capsys):
        config, argv, literal = self.CASES[command]
        path = tmp_path / "config.json"
        path.write_text(config if isinstance(config, str)
                        else json.dumps(config))
        out = tmp_path / "out"
        assert main(["--out", str(out)] + [
            str(path) if a == "{cfg}" else a for a in argv]) == 1
        assert capsys.readouterr().err \
            == f"invalid input: {path}: non-finite number {literal}\n"
        assert not out.exists()

    @pytest.mark.parametrize("literal", ["-Infinity", "-1e400", "1E+309"])
    def test_negative_and_uppercase_overflow(self, literal, tmp_path):
        path = tmp_path / "fields.json"
        path.write_text('{"K11": {"kind": "constant", "value": %s}}'
                        % literal)
        with pytest.raises(ValueError, match=f"non-finite number "
                           f"{literal.replace('+', '[+]')}$"):
            cfg.load_json(str(path))

    def test_largest_finite_number_accepted(self, tmp_path):
        path = tmp_path / "plasma.json"
        path.write_text('{"B0": 1.7976931348623157e308, "x": -0.0}')
        data = cfg.load_json(str(path))
        assert data["B0"] == sys.float_info.max
        assert math.copysign(1.0, data["x"]) == -1.0

    @pytest.mark.parametrize("command", ["typemap", "stix", "layered"])
    def test_integer_beyond_double_refused(self, command, tmp_path, capsys):
        big = "1" + "0" * 400
        config, argv = {
            "typemap": ('{"K11": {"kind": "constant", "value": %s}}',
                        ["typemap", "--fields", "{cfg}", "--box=0:1:0:1",
                         "--nx", "3", "--nz", "2"]),
            "stix": ('{"B0": %s, "species": []}',
                     ["stix", "--plasma", "{cfg}", "--omega", "1e9"]),
            "layered": ('{"K11": {"kind": "constant", "value": 1.0}, '
                        '"x_range": [0, %s]}',
                        ["layered", "--layered", "{cfg}", "--x0", "0",
                         "--x1", "1"]),
        }[command]
        path = tmp_path / "config.json"
        path.write_text(config % big)
        out = tmp_path / "out"
        assert main(["--out", str(out)] + [
            str(path) if a == "{cfg}" else a for a in argv]) == 1
        assert capsys.readouterr().err \
            == f"invalid input: {path}: non-finite number {big}\n"
        assert not out.exists()

    def test_fractional_charge_number_refused(self, tmp_path, capsys):
        path = tmp_path / "plasma.json"
        path.write_text(json.dumps({"B0": 1.0, "species": [
            {"name": "electron", "density_m3": 1e19},
            {"name": "alpha", "mass_kg": 6.64e-27, "charge_sign": 1,
             "Z": 2.7, "density_m3": 5e18}]}))
        out = tmp_path / "stix.json"
        assert main(["--out", str(out), "stix", "--plasma", str(path),
                     "--omega", "1e9"]) == 1
        assert capsys.readouterr().err == (
            f"invalid input: {path}: invalid plasma configuration: "
            "species[1] ('alpha'): Z must be a whole number >= 1\n")
        assert not out.exists()

    def test_finite_numbers_whose_sum_overflows_accepted(self, tmp_path):
        path = tmp_path / "fields.json"
        path.write_text('{"values": [1.7e308, 1.7e308, -0.0], "n": 3}')
        assert cfg.load_json(str(path)) \
            == {"values": [1.7e308, 1.7e308, 0.0], "n": 3}

    @pytest.mark.parametrize("where", ["top", "list", "nested"])
    def test_non_finite_found_anywhere(self, where, tmp_path):
        value = {"top": '{"a": "x", "b": NaN}',
                 "list": '{"a": [1, 2.5, "x", NaN]}',
                 "nested": '{"a": [[1.0, 2.0], [3.0, {"b": [-Infinity]}]]}'}
        path = tmp_path / "config.json"
        path.write_text(value[where])
        with pytest.raises(ValueError, match="non-finite number"):
            cfg.load_json(str(path))


class TestWrongTypeConfig:
    """A configured value of the wrong JSON type is refused by name (exit
    1, no output), not met by an internal error."""

    def test_string_density(self, tmp_path, capsys):
        path = tmp_path / "plasma.json"
        path.write_text(json.dumps({"B0": 1.0, "species": [
            {"name": "electron", "density_m3": "1e19"}]}))
        out = tmp_path / "stix.json"
        assert main(["--out", str(out), "stix", "--plasma", str(path),
                     "--omega", "1e9"]) == 1
        assert capsys.readouterr().err == (
            f"invalid input: {path}: invalid plasma configuration: "
            "species[0] ('electron'): density_m3 must be a number\n")
        assert not out.exists()

    @pytest.mark.parametrize("species, message", [
        ({"name": "ion", "mass_kg": "1e-27", "charge_sign": 1},
         "species[0] ('ion'): mass_kg must be a number"),
        ({"name": ["electron"]}, "species[0]: name must be a string"),
    ])
    def test_bad_species(self, species, message, tmp_path, capsys):
        path = tmp_path / "plasma.json"
        path.write_text(json.dumps({"B0": 1.0, "species": [species]}))
        assert main(["stix", "--plasma", str(path), "--omega", "1e9"]) == 1
        assert capsys.readouterr().err == (
            f"invalid input: {path}: invalid plasma configuration: "
            f"{message}\n")

    @pytest.mark.parametrize("change, message", [
        ({"domain": {"rects": [[0, "1", 0, 1]]}},
         "domain.rects: rectangle [0, '1', 0, 1] must be a list of numbers"),
        ({"domain": {"rects": [5]}},
         "domain.rects: rectangle 5 must be a list of numbers"),
        ({"domain": {"rects": 7}}, "domain.rects must be a nonempty list"),
        ({"domain": 5}, "domain must be a JSON object"),
        ({"bc": "mixed"}, "bc must be a JSON object"),
        ({"forcing": ["zero"]}, "forcing must be a JSON object"),
        ({"kappa": 0.0, "bc": {"type": "mixed", "G": "top"}},
         "bc.G must be a list of segment names"),
        ({"kappa": 0.0, "bc": {"type": "mixed", "G": [["top"]]}},
         "unknown boundary segment ['top'] in G"),
    ])
    def test_bad_problem(self, change, message, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "kappa": 0.5, "domain": {"rects": [[0.0, 1.0, 0.0, 0.75]]},
            "grid": {"nx": 9, "ny": 9}, **change}))
        out = tmp_path / "u.csv"
        assert main(["--out", str(out), "solve", "--problem",
                     str(path)]) == 1
        assert capsys.readouterr().err == (
            f"invalid input: invalid problem configuration: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("plasma, message", [
        ({"B0": True, "species": []}, "B0 must be a number >= 0"),
        ({"B0": 1.0, "species": [
            {"name": "ion", "mass_kg": True, "charge_sign": 1}]},
         "species[0] ('ion'): mass_kg must be a number"),
        ({"B0": 1.0, "species": [{"name": "proton", "charge_sign": True}]},
         "species[0] ('proton'): charge_sign must be -1 or 1"),
        ({"B0": 1.0, "species": [{"name": "proton", "Z": True}]},
         "species[0] ('proton'): Z must be a whole number >= 1"),
        ({"B0": 1.0, "species": [{"name": "electron", "density_m3": True}]},
         "species[0] ('electron'): density_m3 must be a number"),
    ])
    def test_boolean_plasma_number(self, plasma, message, tmp_path, capsys):
        path = tmp_path / "plasma.json"
        path.write_text(json.dumps(plasma))
        out = tmp_path / "stix.json"
        assert main(["--out", str(out), "stix", "--plasma", str(path),
                     "--omega", "1e9"]) == 1
        assert capsys.readouterr().err == (
            f"invalid input: {path}: invalid plasma configuration: "
            f"{message}\n")
        assert not out.exists()

    SOLVE = ["solve", "--problem", "{cfg}"]
    TYPEMAP = ["typemap", "--fields", "{cfg}", "--box=0:1:0:1", "--nx", "3",
               "--nz", "2"]
    LAYERED = ["layered", "--layered", "{cfg}", "--x0", "0", "--x1", "1"]
    PROBLEM = {"kappa": 0.5, "domain": {"rects": [[0.0, 1.0, 0.0, 1.0]]},
               "grid": {"nx": 9, "ny": 9}}
    LAYER = {"K11": {"kind": "constant", "value": 1.0}, "sigma0": 0.0,
             "x_range": [0.0, 1.0]}
    MIXED = ["solve-mixed", "--problem", "{cfg}"]
    MIXED_PROBLEM = {**PROBLEM, "kappa": 0.0,
                     "bc": {"type": "mixed", "G": ["top", "left"]}}
    TABLE = {"kind": "expression-table", "xs": [0.0, 1.0, 2.0],
             "zs": [0.0, 1.0], "values": [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]}

    @pytest.mark.parametrize("argv, config, message", [
        (SOLVE, {**PROBLEM, "kappa": True},
         "invalid problem configuration: kappa must be a number"),
        (SOLVE, {**PROBLEM, "domain": {"rects": [[0.0, True, 0.0, 1.0]]}},
         "invalid problem configuration: domain.rects: rectangle "
         "[0.0, True, 0.0, 1.0] must be a list of numbers"),
        (SOLVE, {**PROBLEM, "forcing": {"kind": "gauss", "params": [1]}},
         "invalid problem configuration: forcing.params must be a JSON "
         "object"),
        (SOLVE, {**PROBLEM, "forcing": {"kind": "gauss",
                                        "params": {"w": "x"}}},
         "invalid problem configuration: forcing.params.w must be a number"),
        (SOLVE, {**PROBLEM, "forcing": {"kind": "samples",
                                        "values": [[True] * 9] * 9}},
         "invalid problem configuration: forcing.values must be a list of "
         "lists of numbers"),
        (TYPEMAP, {"K11": 5}, "K11 must be a JSON object"),
        (TYPEMAP, [1, 2], "field definitions must be a JSON object"),
        (TYPEMAP, {"K11": {"kind": "affine_quadratic", "a": [1], "b": 1}},
         "K11.a must be a number"),
        (TYPEMAP, {"K11": {"kind": "constant", "value": 1.0},
                   "K33": {"kind": "expression-table", "xs": [0, True],
                           "zs": [0, 1], "values": [[1, 1], [1, 1]]}},
         "K33.xs must be a list of numbers"),
        (LAYERED, {**LAYER, "K11": {"kind": "constant", "value": True}},
         "K11.value must be a number"),
        (LAYERED, {**LAYER, "sigma0": True}, "sigma0 must be a number"),
        (LAYERED, {**LAYER, "sigma0": [1]}, "sigma0 must be a number"),
        (LAYERED, {**LAYER, "x_range": 5},
         "x_range must be a list of two numbers"),
        (LAYERED, {**LAYER, "x_range": ["a", "b"]},
         "x_range must be a list of two numbers"),
        (SOLVE, {**PROBLEM, "forcing": {"kind": "gauss",
                                        "params": {"w": 0}}},
         "invalid problem configuration: forcing.params.w must be > 0"),
        (SOLVE, {**PROBLEM, "forcing": {"kind": "samples"}},
         "invalid problem configuration: missing forcing.values"),
        (MIXED, {**MIXED_PROBLEM, "forcing": {"kind": "samples2",
                                              "values1": [[0.0] * 9] * 9}},
         "invalid problem configuration: missing forcing.values2"),
        (SOLVE, {**PROBLEM, "forcing": {
            "kind": "samples", "values": [[0.0] * 9] * 8 + [[0.0] * 8]}},
         "invalid problem configuration: forcing.values must have shape "
         "(nx, ny) = (9, 9)"),
        (MIXED, {**MIXED_PROBLEM, "forcing": {
            "kind": "samples2", "values1": [[0.0] * 9] * 9,
            "values2": [[0.0] * 8] * 9}},
         "invalid problem configuration: forcing.values2 must have shape "
         "(nx, ny) = (9, 9)"),
        # refused before the memory check of a grid too large to solve
        (SOLVE, {**PROBLEM, "grid": {"nx": 100000, "ny": 100000},
                 "forcing": {"kind": "samples", "values": [[0.0] * 9] * 9}},
         "invalid problem configuration: forcing.values must have shape "
         "(nx, ny) = (100000, 100000)"),
        (TYPEMAP, {"K11": {**TABLE, "xs": [1.0, 0.0, 2.0]}},
         "K11.xs must be strictly increasing"),
        (TYPEMAP, {"K11": {**TABLE, "xs": [0.0, 0.0, 2.0]}},
         "K11.xs must be strictly increasing"),
        (LAYERED, {**LAYER, "K11": {**TABLE, "zs": [1.0, 0.0]}},
         "K11.zs must be strictly increasing"),
        (TYPEMAP, {"K11": {**TABLE,
                           "values": [[1.0, 1.0], [2.0], [3.0, 3.0]]}},
         "K11.values must have shape (len(xs), len(zs))"),
    ])
    def test_bad_entry(self, argv, config, message, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["--out", str(out)] + [
            str(path) if a == "{cfg}" else a for a in argv]) == 1
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        assert not out.exists()


class TestUsageErrors:
    CHAR = ["characteristics", "--branch", "1", "--max-steps", "50"]
    MIXED = ["solve-mixed", "--problem", "p.json"]
    LAYERED = ["layered", "--layered", "l.json", "--x0", "0", "--x1", "1"]

    @pytest.mark.parametrize("argv, where", [
        (["stix"], "stix"),
        (["stix", "--plasma", "p.json", "--omega", "abc"], "stix"),
        (["stix", "--format", "xml", "--plasma", "p.json", "--omega", "1"],
         "stix"),
        (["--tol", "0", "origin-chars"], ""),
        (["origin-chars", "--tol", "0"], "origin-chars"),
        (["--tol=-1e-9", "origin-chars"], ""),
        (["origin-chars", "--tol", "nan"], "origin-chars"),
        (["no-such-command"], ""),
        ([], ""),
        (CHAR + ["--start=-1,0.5", "--step", "nan"], "characteristics"),
        (CHAR + ["--start=-1,0.5", "--step", "inf"], "characteristics"),
        (CHAR + ["--start=-1,0.5", "--step", "0"], "characteristics"),
        (CHAR + ["--start=nan,0.5"], "characteristics"),
        (CHAR + ["--start=-1,inf"], "characteristics"),
        (CHAR + ["--start=-1"], "characteristics"),
        (CHAR + ["--start=-1,0.5,2"], "characteristics"),
        (CHAR + ["--start=a,0.5"], "characteristics"),
        (["symbol-check", "--kmax", "nan"], "symbol-check"),
        (["symbol-check", "--kmax", "inf"], "symbol-check"),
        (["symbol-check", "--kmax", "0"], "symbol-check"),
        (["characteristics", "--start=-1,0.5", "--branch", "1",
          "--max-steps", "-5"], "characteristics"),
        (["typemap", "--fields", "f.json", "--box=-1:1:-1:1", "--nx", "0"],
         "typemap"),
        (["typemap", "--fields", "f.json", "--box=-1:1:-1:1", "--nz", "-3"],
         "typemap"),
        (["symbol-check", "--trials", "-3"], "symbol-check"),
        (["symbol-check", "--kmax", "1e60"], "symbol-check"),
        (["symbol-check", "--kmax", "1e308"], "symbol-check"),
        (["energy-check", "--kappa", "1", "--bound-factor", "nan"],
         "energy-check"),
        (["energy-check", "--kappa", "1", "--nx", "0"], "energy-check"),
        (MIXED + ["--mu", "nan"], "solve-mixed"),
        (MIXED + ["--mu", "inf"], "solve-mixed"),
        (MIXED + ["--mdelta", "nan"], "solve-mixed"),
        (LAYERED + ["--psi0", "nan,0"], "layered"),
        (LAYERED + ["--psi0", "inf,0"], "layered"),
        (LAYERED + ["--psi0", "1,2,3"], "layered"),
        (LAYERED + ["--psi0", "1"], "layered"),
        (["typemap", "--fields", "f.json", "--box=0:inf:0:1"], "typemap"),
        (["typemap", "--fields", "f.json", "--box=abc:1:0:1"], "typemap"),
        (CHAR + ["--box=-2:2:nan:2", "--start=-1,0.5"], "characteristics"),
        (["energy-check", "--kappa", "0.5", "--box=0:inf:0:1"],
         "energy-check"),
    ], ids=["missing-required", "bad-float", "bad-format", "tol-before",
            "tol-after", "tol-negative", "tol-nan", "unknown-command",
            "no-arguments", "step-nan", "step-inf", "step-zero",
            "start-nan", "start-inf", "start-one-value", "start-three-values",
            "start-bad-float", "kmax-nan", "kmax-inf", "kmax-zero",
            "max-steps-negative", "typemap-nx-zero", "typemap-nz-negative",
            "symbol-trials-negative", "kmax-1e60", "kmax-1e308",
            "bound-factor-nan", "energy-nx-zero", "mu-nan", "mu-inf",
            "mdelta-nan", "psi0-nan", "psi0-inf", "psi0-three-values",
            "psi0-one-value", "typemap-box-inf", "typemap-box-not-a-number",
            "characteristics-box-nan", "energy-box-inf"])
    def test_usage_error_exits_1(self, argv, where, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: coldwave {where}".rstrip())
        assert "\nerror: " in err
        # a rejected flag value names its flag
        named = [a.partition("=")[0] for a in argv[-2:]
                 if a.partition("=")[0] in (
                     "--step", "--start", "--kmax", "--max-steps", "--nx",
                     "--nz", "--trials", "--bound-factor", "--mu",
                     "--mdelta", "--psi0", "--box")]
        if named:
            assert f"error: argument {named[0]}: " in err

    def test_kmax_limit(self, tmp_path, capsys):
        assert main(["symbol-check", "--kmax", "1e41"]) == 1
        assert capsys.readouterr().err.endswith(
            f"error: argument --kmax: must be at most {KMAX_LIMIT:g}, "
            "got '1e41'\n")
        out = tmp_path / "sym.json"
        assert main(["--out", str(out), "symbol-check", "--trials", "50",
                     "--kmax", repr(KMAX_LIMIT)]) == 0
        assert all(r["pass"] for r in json.loads(out.read_text()))

    def test_tol_message(self, capsys):
        assert main(["origin-chars", "--tol", "0"]) == 1
        assert capsys.readouterr().err.endswith(
            "error: argument --tol: must be positive, got '0'\n")

    def test_help_exits_0(self, capsys):
        assert main(["stix", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: coldwave stix")


class TestFlagTypes:
    """--omegas, --thetas and --bracket are read and checked by their
    argparse types when the command line is parsed: a refused value
    exits 1 with a usage error naming the flag, before the plasma file
    is read and before any output is written."""

    @pytest.mark.parametrize("plasma", ["hydrogen", "missing"])
    @pytest.mark.parametrize("argv, flag, message", [
        (["cutoffs", "--bracket", "5:1"], "--bracket",
         "must have 0 < low < high, got '5:1'"),
        (["resonances", "--bracket", "0:1e6"], "--bracket",
         "must have 0 < low < high, got '0:1e6'"),
        (["cutoffs", "--bracket", "1e6"], "--bracket",
         "must be 'low:high', got '1e6'"),
        (["resonances", "--bracket=nan:1e6"], "--bracket",
         "must be finite, got 'nan:1e6'"),
        (["dispersion", "--omegas", "1e9", "--thetas", "90degs"], "--thetas",
         "invalid theta grid: '90degs'"),
        (["dispersion", "--omegas", "1e9", "--thetas", "0:1deg:1.5"],
         "--thetas", "invalid theta grid: '0:1deg:1.5'"),
        (["dispersion", "--omegas", "1e9:2e9:3.5", "--thetas", "0"],
         "--omegas", "invalid omega grid: '1e9:2e9:3.5'"),
        (["dispersion", "--omegas", "1e9:2e9:0", "--thetas", "0"],
         "--omegas", "count must be >= 1, got '1e9:2e9:0'"),
        (["dispersion", "--omegas", "1e9:2e9", "--thetas", "0"], "--omegas",
         "must be 'a,b,c' or start:stop:count[:log], got '1e9:2e9'"),
        (["dispersion", "--omegas", "1e9:2e9:3:cubic", "--thetas", "0"],
         "--omegas",
         "must be 'a,b,c' or start:stop:count[:log], got '1e9:2e9:3:cubic'"),
        (["dispersion", "--omegas", "1e9", "--thetas", "0:1:3:log"],
         "--thetas", "log spacing needs positive endpoints, got '0:1:3:log'"),
        (["dispersion", "--omegas", "1e9,,2e9", "--thetas", "0"], "--omegas",
         "invalid omega grid: '1e9,,2e9'"),
        (["dispersion", "--omegas", "1e9", "--thetas", "0,,1"], "--thetas",
         "invalid theta grid: '0,,1'"),
        (["dispersion", "--omegas=", "--thetas", "0"], "--omegas",
         "invalid omega grid: ''"),
        (["dispersion", "--omegas", "0,1e9", "--thetas", "0"], "--omegas",
         "must be positive, got '0,1e9'"),
        (["dispersion", "--omegas=-1e9:1e9:3", "--thetas", "0"], "--omegas",
         "must be positive, got '-1e9:1e9:3'"),
        (["dispersion", "--omegas", "1e9", "--thetas=-1e308:1e308:3"],
         "--thetas", "must be finite, got '-1e308:1e308:3'"),
        (["dispersion", "--omegas", "1:2:100000000000000000000",
          "--thetas", "0"], "--omegas",
         "invalid omega grid: '1:2:100000000000000000000'"),
    ], ids=["bracket-reversed", "bracket-zero", "bracket-one-bound",
            "bracket-nan", "angle-not-a-number",
            "angle-range-count-not-an-int",
            "grid-spec-count-not-an-int", "grid-spec-count-zero",
            "grid-spec-two-parts", "grid-spec-spacing", "grid-spec-log-zero",
            "omegas-empty-token", "thetas-empty-token", "omegas-empty",
            "omegas-not-positive", "omegas-range-not-positive",
            "thetas-range-overflow", "omegas-count-beyond-array-size"])
    def test_refused_before_any_output(self, argv, flag, message, plasma,
                                       hydrogen_json, tmp_path, capsys):
        path = hydrogen_json if plasma == "hydrogen" else str(
            tmp_path / "missing.json")
        out = tmp_path / "out"
        assert main(["--out", str(out), argv[0], "--plasma", path,
                     *argv[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: coldwave {argv[0]}")
        assert err.endswith(f"error: argument {flag}: {message}\n")
        assert not out.exists()

    @staticmethod
    def parsed(flag, text):
        """The value of dispersion or cutoffs ``flag`` read from ``text``."""
        command = ["cutoffs"] if flag == "--bracket" else [
            "dispersion", "--omegas=1", "--thetas=0"]
        args = build_parser().parse_args(
            [*command, "--plasma", "p.json", f"{flag}={text}"])
        return getattr(args, flag[2:])

    @pytest.mark.parametrize("flag, text, value", [
        ("--bracket", "1e8:1e9", (1e8, 1e9)),
        ("--thetas", "90deg", [math.radians(90.0)]),
        ("--thetas", "1.5708rad", [1.5708]),
        ("--thetas", "0.5", [0.5]),
        ("--thetas", "0deg,90deg", [0.0, math.radians(90.0)]),
        ("--thetas", "0:90deg:3", np.linspace(0.0, math.radians(90.0), 3)),
        ("--omegas", "1,2,3", [1.0, 2.0, 3.0]),
        ("--omegas", "0.5:1:5:lin", [0.5, 0.625, 0.75, 0.875, 1.0]),
        ("--omegas", "1:100:3:log", np.geomspace(1.0, 100.0, 3)),
    ])
    def test_accepted_values(self, flag, text, value):
        got = self.parsed(flag, text)
        if flag == "--bracket":
            assert got == value
        else:
            assert got.dtype == np.float64
            assert got.tolist() == list(value)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=20))
    def test_list_is_its_floats(self, values):
        got = self.parsed("--thetas", ",".join(map(repr, values)))
        assert got.tobytes() == np.array(values).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(bounds=st.lists(st.floats(-1e300, 1e300), min_size=2,
                           max_size=2),
           count=st.integers(1, 200))
    def test_range_is_linspace(self, bounds, count):
        a, b = bounds
        got = self.parsed("--thetas", f"{a!r}:{b!r}:{count}")
        assert got.tobytes() == np.linspace(a, b, count).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(bounds=st.lists(st.floats(5e-324, 1e308), min_size=2,
                           max_size=2),
           count=st.integers(1, 200))
    def test_log_range_is_geomspace(self, bounds, count):
        a, b = bounds
        got = self.parsed("--omegas", f"{a!r}:{b!r}:{count}:log")
        assert got.tobytes() == np.geomspace(a, b, count).tobytes()


class TestParserReuse:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_flags_do_not_carry_over(self, hydrogen_json, tmp_path, capsys):
        cut = ["cutoffs", "--plasma", hydrogen_json, "--bracket", "1e9:1e13"]
        first = tmp_path / "cut.csv"
        assert main(["--quiet", "--format", "csv", "--out", str(first),
                     *cut]) == 0
        assert first.read_text().startswith("omega,which\n")
        capsys.readouterr()
        assert main(cut) == 0
        out = capsys.readouterr().out
        assert {c["which"] for c in json.loads(out)} == {"P", "R", "L"}
        fresh = build_parser.__wrapped__()
        for argv in (cut, ["--quiet", "--format", "csv", *cut]):
            assert build_parser().parse_args(argv) == fresh.parse_args(argv)

    def test_notes_after_quiet_call(self, tmp_path, capsys):
        char = ["characteristics", "--start=-1,0.5", "--branch", "1",
                "--step", "1e-2", "--box=-2:2:-2:2",
                "--out", str(tmp_path / "c.csv")]
        assert main(["--quiet", *char]) == 0
        assert capsys.readouterr().err == ""
        assert main(char) == 0
        assert capsys.readouterr().err.startswith("termination: ")


class TestSolutionCsv:
    def test_l_shaped_domain_matches_node_loop(self, tmp_path):
        path = tmp_path / "l.json"
        path.write_text(json.dumps({
            "kappa": 0.5,
            "domain": {"rects": [[-1.0, 1.0, -1.0, 0.0],
                                 [-1.0, 0.0, 0.0, 1.0]]},
            "grid": {"nx": 21, "ny": 17},
            "bc": {"type": "closed_dirichlet"},
            "forcing": {"kind": "sine_bump"},
        }))
        out = tmp_path / "u.csv"
        assert main(["--quiet", "--out", str(out), "solve", "--problem",
                     str(path)]) == 0
        problem, (nx, ny) = cfg.parse_problem(cfg.load_json(str(path)))
        sol = solve_closed_dirichlet(problem, nx, ny)
        grid, u = sol.grid, sol.values
        assert not grid.inside.all()
        rows = [(grid.xs[i], grid.ys[j], u[i, j])
                for i in range(nx) for j in range(ny) if grid.inside[i, j]]
        assert out.read_bytes() == csv_oracle("x,y,u", rows).encode()


class TestSampleForcings:
    """Nodal samples of a forcing, given as ``samples``/``samples2``
    arrays, solve as the forcing itself does."""

    @staticmethod
    def _outputs(path, command, tmp_path, tag):
        out, summary = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        assert main(["--quiet", "--out", str(out), command, "--problem",
                     str(path), "--summary", str(summary)]) == 0
        return out.read_bytes(), summary.read_bytes()

    @pytest.mark.parametrize("command, keys", [
        ("solve", ("values",)), ("solve-mixed", ("values1", "values2"))])
    def test_samples_solve_as_their_forcing(self, problem_json, mixed_json,
                                            command, keys, tmp_path):
        path = problem_json if command == "solve" else mixed_json
        data = json.loads(open(path).read())
        problem, (nx, ny) = cfg.parse_problem(data)
        grid = Grid2D(problem.domain, nx, ny)
        forcings = (problem.forcing,) if len(keys) == 1 else problem.forcing
        data["forcing"] = {"kind": "samples" if len(keys) == 1
                           else "samples2"}
        for key, fn in zip(keys, forcings):
            data["forcing"][key] = grid.evaluate(fn).tolist()
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(data))
        assert (self._outputs(samples, command, tmp_path, "samples")
                == self._outputs(path, command, tmp_path, "fn"))

    def test_wrong_shape_names_both_shapes(self):
        domain = Domain.rectangle(0.0, 1.0, 0.0, 1.0)
        problem = ModelProblem(0.5, domain, np.zeros((5, 7)))
        with pytest.raises(ValueError, match=r"shape \(5, 7\), grid needs "
                                             r"\(9, 9\)"):
            solve_closed_dirichlet(problem, 9, 9)


class TestDispersionCsv:
    """The dispersion CSV, written a block of omegas at a time with the
    repeated omega/theta/C cells formatted once, equals the CSV of one
    full scan byte for byte."""

    HALF_PI = "1.5707963267948966"

    @pytest.mark.parametrize("omegas,thetas,omega_grid,theta_grid", [
        # n_theta divides BLOCK_ROWS; 150 omegas are not whole blocks
        ("1e6:1e14:150:log", f"0:{HALF_PI}:64",
         np.geomspace(1e6, 1e14, 150), np.linspace(0.0, math.pi / 2, 64)),
        # n_theta does not divide BLOCK_ROWS
        ("1e6:1e14:97:log", f"0:{HALF_PI}:100",
         np.geomspace(1e6, 1e14, 97), np.linspace(0.0, math.pi / 2, 100)),
        # n_theta > BLOCK_ROWS: one omega per block
        ("1e6:1e14:3:log", f"0:1.5:{output.BLOCK_ROWS + 7}",
         np.geomspace(1e6, 1e14, 3),
         np.linspace(0.0, 1.5, output.BLOCK_ROWS + 7)),
        ("1e6", f"0:{HALF_PI}:100",
         np.array([1e6]), np.linspace(0.0, math.pi / 2, 100)),
        ("1e9,2e9", "0,15deg,45deg,90deg", np.array([1e9, 2e9]),
         np.radians([0.0, 15.0, 45.0, 90.0])),
    ], ids=["1e6:1e14:150:log-0:1.5707963267948966:64",
            "1e6:1e14:97:log-0:1.5707963267948966:100",
            f"1e6:1e14:3:log-0:1.5:{output.BLOCK_ROWS + 7}",
            "1e6-0:1.5707963267948966:100",
            "1e9,2e9-0,15deg,45deg,90deg"])
    def test_matches_full_scan(self, hydrogen_json, tmp_path, omegas,
                               thetas, omega_grid, theta_grid):
        self._check(hydrogen_json, tmp_path, omegas, thetas, omega_grid,
                    theta_grid)

    def test_cyclotron_rows(self, hydrogen_json, tmp_path):
        pl = cfg.parse_plasma(cfg.load_json(hydrogen_json))
        omegas = sorted(np.geomspace(1e6, 1e14, 85).tolist()
                        + [cyclotron_frequency(sp, pl.B0)
                           for sp in pl.species])
        text = self._check(hydrogen_json, tmp_path,
                           ",".join(map(repr, omegas)), "0:90deg:100",
                           omegas, np.linspace(0.0, math.pi / 2, 100))
        flagged = [line for line in text.splitlines()
                   if line.endswith(",cyclotron_resonance")]
        assert len(flagged) == 2 * 100
        assert all(",nan," in line for line in flagged)

    @staticmethod
    def _check(plasma_json, tmp_path, omegas, thetas, omega_grid,
               theta_grid):
        """The CSV of ``--omegas omegas --thetas thetas`` against the scan
        of the grids they stand for."""
        out = tmp_path / "scan.csv"
        assert main(["--out", str(out), "dispersion", "--plasma",
                     plasma_json, "--omegas", omegas,
                     "--thetas", thetas]) == 0
        columns = dispersion_scan(
            cfg.parse_plasma(cfg.load_json(plasma_json)), omega_grid,
            theta_grid)
        oracle = csv_oracle(SCAN_HEADER, zip(*(expanded(col).tolist()
                                              for col in columns.values())))
        text = out.read_bytes().decode()
        assert_same_text(text, oracle)
        return text

    def test_memory_bounded_by_block(self, hydrogen_json, monkeypatch):
        # one scan of 2000 x 100 points holds its 11 columns and the
        # solve's temporaries at once, a 35 MB tracemalloc peak; a block
        # of omegas at a time peaks near 1.3 MB.  Formatting 2e5 rows
        # under tracemalloc takes seconds, so the column blocks are
        # drained here without being written.
        monkeypatch.setattr(output, "write_csv",
                            lambda header, blocks, out=None: deque(blocks, 0))
        argv = ["dispersion", "--plasma", hydrogen_json,
                "--omegas", "1e6:1e14:2000:log", "--thetas", "0:90deg:100"]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestNonFiniteGrids:
    @pytest.mark.parametrize("omegas,thetas,grid", [
        ("nan,1e9", "0", "omega"),
        ("1e9,-nan", "0", "omega"),
        ("1e9,inf", "0", "omega"),
        ("1e9", "0,nan", "theta"),
        ("1e9", "inf", "theta"),
        ("1e9", "-infdeg", "theta"),
    ])
    def test_rejected_before_any_output(self, hydrogen_json, tmp_path,
                                        capsys, omegas, thetas, grid):
        out = tmp_path / "scan.csv"
        assert main(["--out", str(out), "dispersion", "--plasma",
                     hydrogen_json, "--omegas=" + omegas,
                     "--thetas=" + thetas]) == 1
        text = omegas if grid == "omega" else thetas
        assert capsys.readouterr().err.endswith(
            f"error: argument --{grid}s: must be finite, got {text!r}\n")
        assert not out.exists()

    def test_scan_rejects_nan_omega(self, hydrogen):
        with pytest.raises(ValueError, match="omega must be > 0"):
            dispersion_scan(hydrogen, [1e9, float("nan")], [0.0])


class TestCsvOracles:
    """CSV commands the benchmark runs as JSON or not at all, byte for
    byte against the per-cell rule over the rows of the library calls."""

    @pytest.mark.parametrize("bracket", ["1e9:1e13", "1:2"])
    def test_cutoffs_and_resonances(self, hydrogen_json, hydrogen, tmp_path,
                                    bracket):
        out = tmp_path / "cut.csv"
        assert main(["--format", "csv", "--out", str(out), "cutoffs",
                     "--plasma", hydrogen_json, "--bracket", bracket]) == 0
        lo, hi = map(float, bracket.split(":"))
        found = dispersion.cutoff_frequencies(hydrogen, (lo, hi))
        assert out.read_text() == csv_oracle("omega,which", found)
        assert main(["--format", "csv", "--out", str(out), "resonances",
                     "--plasma", hydrogen_json, "--bracket", bracket]) == 0
        roots = dispersion.hybrid_resonances(hydrogen, (lo, hi)).roots
        assert out.read_text() == csv_oracle("omega", [(w,) for w in roots])
        if bracket == "1:2":
            assert not found and not roots
        else:
            assert len(found) == 3 and roots

    @pytest.mark.parametrize("branch", [1, -1])
    def test_characteristics(self, tmp_path, branch):
        out = tmp_path / "char.csv"
        assert main(["--quiet", "--out", str(out), "characteristics",
                     "--start=-1,0.5", "--branch", str(branch),
                     "--step", "1e-2", "--box=-2:2:-2:2"]) == 0
        path = typegeometry.trace_characteristic(
            (-1.0, 0.5), branch, 1e-2, domain=(-2.0, 2.0, -2.0, 2.0))
        rows = [(path.branch, i, px, py)
                for i, (px, py) in enumerate(path.points)]
        assert len(rows) > 10
        assert out.read_text() == csv_oracle("branch,step,x,y", rows)

    def test_layered(self, tmp_path):
        spec = {"K11": {"kind": "affine_quadratic", "a": 1.3, "b": 0.4},
                "sigma0": 0.7, "x_range": [0.5, 1.5]}
        path = tmp_path / "layered.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "psi.csv"
        assert main(["--quiet", "--out", str(out), "layered", "--layered",
                     str(path), "--psi0", "1,0.5", "--x0", "0.5",
                     "--x1", "1.5"]) == 0
        f2d = cfg.parse_field(spec["K11"])
        problem = electrostatics.LayeredProblem(
            lambda x: np.real(f2d(x, 0.0)), 0.7, (0.5, 1.5))
        sol = electrostatics.integrate_layered(problem, 1 + 0.5j, 0.5, 1.5)
        rows = [(x, p.real, p.imag) for x, p in zip(sol.xs, sol.psi)]
        assert all(im != 0.0 for _, _, im in rows[1:])
        assert out.read_text() == csv_oracle("x,psi_re,psi_im", rows)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, hydrogen_json, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"scan_{tag}.csv"
            assert main(["--out", str(out), "dispersion", "--plasma",
                         hydrogen_json, "--omegas", "1e9:1e12:7:log",
                         "--thetas", "0:90deg:5"]) == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seeded_energy_check_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"energy_{tag}.json"
            assert main(["--out", str(out), "--seed", "7", "energy-check",
                         "--kappa", "0.5", "--trials", "2",
                         "--nx", "17"]) == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()
