"""Print a SHA-256 digest of every output of the benchmark workloads.

Usage: PYTHONPATH=src python3 tools/output_digests.py [SEED ...]

For each seed (default 1 2 3) and each workload in
``perfbench/workloads.WORKLOADS``, the workload's inputs are built with
``workloads.build`` and every step runs once through
``coldwave.cli.main``, all inside a temporary directory.  Each output
file gives one line on stdout:

    seed workload file exit-code sha256

with ``-`` for a file the step did not write.  The ``coldwave`` that
runs is whichever ``PYTHONPATH`` selects, so two checkouts are compared
byte for byte by running ``diff`` on the output of each.  Nothing is
written inside the checkout, bytecode caches included.

What each step writes to stderr gives one more line, with
``stderr.<step index>`` in place of the file name and the digest of the
text (empty text included), so that messages, notes and summaries
printed there are compared as well.

Then the commands of ``FIXED`` and ``FAILING`` run once each, on fixed
inputs.  ``FIXED`` holds successful paths that no benchmark step takes:
a characteristic traced without ``--box``, ``cutoffs --format csv`` and
``resonances`` of a single-ion plasma, which sets the lower-hybrid
estimate, once at B0 = 1 T and once at a B0 so small that the square of
the electron cyclotron frequency underflows, ``layered`` with a
piecewise-linear ``expression-table`` K11, whose kinks the quadrature
must resolve, ``energy-check`` at kappa 1.5 on a 64-node lattice,
which misses the extremes of K = x - y^2 that the multiplier's Q1 and
Q2 come from, ``energy-check`` at kappa 0.5 and 1.5 on the boxes
[1.5, 2.5] x [-0.4, 0.4] (all K > 0) and [-3, -2] x [-0.5, 0.5] (all
K < 0), where one side of K = 0 has no cells and no pieces, and
``solve`` and ``illposedness`` (levels 13, 33, 49) on the
all-hyperbolic box [-2, -0.5] x [-1, 1] at kappa 0.5, whose factor
the probe rejects, so that kappa_1 of a COLAMD refactor is compared
too, and ``solve-mixed`` with G empty on the box [0.25, 1] x [0.5, 1],
whose corners lie on K = 0.  Every benchmark step succeeds, so
``FAILING`` holds commands that must fail: a non-finite or unparsable
``--box``, an unparsable or reversed ``--bracket``, dispersion grids holding a NaN, a
frequency of 0 or an empty entry, a ``stix`` frequency and two
``cutoffs``/``resonances`` brackets whose square underflows,
``symbol-check`` of a plasma 1e-6 from its proton cyclotron frequency
under ``--tol 1e-3``, and configuration files holding a non-finite
number (a NaN B0 for ``dispersion``, a NaN K11 for ``typemap`` and an
``Infinity`` rectangle bound for ``solve``) or a value of the wrong JSON
type (a ``true`` B0 for ``stix``, a number for the ``x_range`` of
``layered``), or a value out of its range (a ``gauss`` forcing of width
0 and a ``samples`` forcing without ``values`` for ``solve``, an
``expression-table`` K11 whose ``xs`` are not increasing for
``typemap``), ``energy-check`` at kappa 1.5 on boxes where the
multiplier's Q1 = exp(2 delta max K) overflows (``--box=0:1e300:0:1``),
Q2 = exp(min K) underflows to 0 (``--box=-1000:1:-1:1``) and Q2 is so
small that 6 delta min K / Q2 overflows (``--box=-740:1:-1:1``),
``energy-check`` at kappa 0.5 on ``--box=0:1e-300:0:1e-300``, where the
square of the grid step underflows and the bump Gram is not finite,
``solve`` on the box [-1e150, 1e150]^2, where the quadrature's sums
overflow and the weighted norms are not finite, ``solve`` and
``illposedness`` on the box [0, 1e-300]^2, where the square of the grid
step underflows,
``solve-mixed --mu 1e308`` on [-1, 1]^2, where the multiplier's s_const
is not finite, ``solve-mixed`` with G = bottom on the benchmark's box
[0, 1] x [0, 0.75], where the boundary sign conditions fail,
``solve`` of a mixed problem and ``solve-mixed`` of a closed Dirichlet
one, ``solve`` and ``solve-mixed`` on grids of 100001 x 100001 nodes,
whose factor no machine's memory holds,
``stix --omega inf``, ``symbol-check --omega`` without ``--plasma``,
and ``layered`` of a piecewise-linear K11 that touches 0 between the
samples of the nonvanishing check.  Each gives the line of its output
file and of its stderr, with ``-`` for the seed and ``fixed`` or
``errors`` for the workload, so that error text and exit codes are
compared too.  In that stderr the temporary input directory reads
``{in}``, so that a message naming an input file has one digest.
``COLUMNS`` is fixed at 80, since argparse wraps its usage text to the
terminal width.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.dont_write_bytecode = True
os.environ["COLUMNS"] = "80"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402
from coldwave import cli  # noqa: E402

# name -> argv of a command that must succeed ({in} is the input
# directory)
FIXED = {
    "characteristics-unboxed": ["characteristics", "--start=-0.1,0.9",
                                "--branch", "1", "--step", "1e-3",
                                "--max-steps", "20000"],
    "cutoffs-csv": ["--format", "csv", "cutoffs", "--plasma",
                    "{in}/plasma.json", "--bracket", "1e6:1e15"],
    "resonances-single-ion": ["resonances", "--plasma", "{in}/plasma.json",
                              "--bracket", "1e6:1e15"],
    "resonances-single-ion-tiny-b0": ["resonances", "--plasma",
                                      "{in}/plasma-tiny-b0.json",
                                      "--bracket", "1e3:1e4"],
    "layered-table": ["layered", "--layered", "{in}/layered-table.json",
                      "--psi0", "1,0", "--x0", "0.5", "--x1", "2.0"],
    "energy-check-even-lattice": ["--seed", "3", "energy-check", "--kappa",
                                  "1.5", "--nx", "64", "--trials", "20"],
    # all K > 0 and all K < 0: one side has no cells and no pieces
    **{f"energy-check-{side}-{kappa}": [
        "--seed", "3", "energy-check", "--kappa", kappa, "--nx", "17",
        "--trials", "20", f"--box={box}"]
       for side, box in (("elliptic", "1.5:2.5:-0.4:0.4"),
                         ("hyperbolic", "-3:-2:-0.5:0.5"))
       for kappa in ("0.5", "1.5")},
    "solve-hyperbolic": ["solve", "--problem",
                         "{in}/problem-hyperbolic.json"],
    "illposedness-hyperbolic": ["illposedness", "--problem",
                                "{in}/problem-hyperbolic.json",
                                "--levels", "13,33,49"],
    "solve-mixed-lens": ["solve-mixed", "--problem",
                         "{in}/problem-mixed-lens.json"],
}
# name -> argv of a command that must fail
FAILING = {
    "typemap-box-inf": ["typemap", "--fields", "{in}/fields.json",
                        "--box=0:inf:0:1", "--nx", "3", "--nz", "2"],
    "typemap-box-not-a-number": ["typemap", "--fields", "{in}/fields.json",
                                 "--box=abc:1:0:1"],
    "characteristics-box-nan": ["characteristics", "--start=0.5,0.5",
                                "--branch", "1", "--box=0:1:nan:1"],
    "energy-check-box-inf": ["energy-check", "--kappa", "0.5", "--nx", "9",
                             "--trials", "2", "--box=0:inf:0:1"],
    "cutoffs-bracket-not-a-number": ["cutoffs", "--plasma",
                                     "{in}/plasma.json", "--bracket",
                                     "abc:1"],
    "dispersion-nan-grid": ["dispersion", "--plasma", "{in}/plasma.json",
                            "--omegas", "1e8,nan", "--thetas", "0,1"],
    "dispersion-omega-not-positive": ["dispersion", "--plasma",
                                      "{in}/plasma.json", "--omegas", "0,1e9",
                                      "--thetas", "0,1"],
    "dispersion-grid-empty-token": ["dispersion", "--plasma",
                                    "{in}/plasma.json", "--omegas",
                                    "1e9,,2e9", "--thetas", "0,1"],
    "cutoffs-bracket-reversed": ["cutoffs", "--plasma", "{in}/plasma.json",
                                 "--bracket", "5:1"],
    "stix-omega-underflow": ["stix", "--plasma", "{in}/plasma.json",
                             "--omega", "1e-170"],
    # omega = (1 + 1e-6) times the proton cyclotron frequency at 1 T
    "symbol-check-tol": ["--tol", "1e-3", "symbol-check", "--trials", "3",
                         "--plasma", "{in}/plasma.json",
                         "--omega", "95788427.34776792"],
    "cutoffs-bracket-underflow": ["cutoffs", "--plasma", "{in}/plasma.json",
                                  "--bracket", "1e-170:1e6"],
    "resonances-bracket-underflow": ["resonances", "--plasma",
                                     "{in}/plasma.json", "--bracket",
                                     "1e-170:1e6"],
    "dispersion-nan-b0": ["dispersion", "--plasma", "{in}/plasma-nan-b0.json",
                          "--omegas", "1e9", "--thetas", "0,1"],
    "typemap-nan-k11": ["typemap", "--fields", "{in}/fields-nan-k11.json",
                        "--box=0:1:0:1", "--nx", "3", "--nz", "2"],
    "solve-infinite-bound": ["solve", "--problem",
                             "{in}/problem-infinite-bound.json"],
    "stix-bool-b0": ["stix", "--plasma", "{in}/plasma-bool-b0.json",
                     "--omega", "1e9"],
    "layered-x-range-number": ["layered", "--layered",
                               "{in}/layered-x-range-number.json",
                               "--x0", "0", "--x1", "1"],
    "solve-gauss-zero-width": ["solve", "--problem",
                               "{in}/problem-gauss-zero-width.json"],
    "solve-samples-without-values": ["solve", "--problem",
                                     "{in}/problem-samples-no-values.json"],
    "typemap-unsorted-table": ["typemap", "--fields",
                               "{in}/fields-unsorted-table.json",
                               "--box=0:2:0:1", "--nx", "5", "--nz", "2"],
    "energy-check-q1-overflow": ["energy-check", "--kappa", "1.5",
                                 "--box=0:1e300:0:1", "--nx", "9",
                                 "--trials", "2"],
    "energy-check-q2-underflow": ["energy-check", "--kappa", "1.5",
                                  "--box=-1000:1:-1:1", "--nx", "9",
                                  "--trials", "2"],
    "energy-check-q2-subnormal": ["energy-check", "--kappa", "1.5",
                                  "--box=-740:1:-1:1", "--nx", "9",
                                  "--trials", "2"],
    "energy-check-gram-underflow": ["energy-check", "--kappa", "0.5",
                                    "--box=0:1e-300:0:1e-300", "--nx", "9",
                                    "--trials", "3"],
    "solve-norms-overflow": ["solve", "--problem",
                             "{in}/problem-huge-box.json"],
    "solve-step-underflow": ["solve", "--problem",
                             "{in}/problem-tiny-box.json"],
    "illposedness-step-underflow": ["illposedness", "--problem",
                                    "{in}/problem-tiny-box.json",
                                    "--levels", "9,13,17"],
    "solve-mixed-mu-overflow": ["solve-mixed", "--problem",
                                "{in}/problem-mixed-square.json",
                                "--mu", "1e308"],
    "solve-mixed-inadmissible": ["solve-mixed", "--problem",
                                 "{in}/problem-mixed-bottom.json"],
    "solve-mixed-problem": ["solve", "--problem",
                            "{in}/problem-mixed-square.json"],
    "solve-mixed-dirichlet-problem": ["solve-mixed", "--problem",
                                      "{in}/problem-hyperbolic.json"],
    "solve-oversized": ["solve", "--problem", "{in}/problem-oversized.json"],
    "solve-mixed-oversized": ["solve-mixed", "--problem",
                              "{in}/problem-mixed-oversized.json"],
    "stix-omega-inf": ["stix", "--plasma", "{in}/plasma.json",
                       "--omega", "inf"],
    "symbol-check-omega-without-plasma": ["symbol-check", "--omega", "1e9",
                                          "--trials", "2"],
    "layered-touching-zero": ["layered", "--layered",
                              "{in}/layered-touching-zero.json",
                              "--x0", "0.1", "--x1", "0.7"],
}
FIXED_INPUTS = {
    "fields.json": {"K11": {"kind": "affine_quadratic", "a": 1.0, "b": -1.0}},
    "plasma.json": {"B0": 1.0, "species": [
        {"name": "electron", "density_m3": 1e19},
        {"name": "proton", "density_m3": 1e19}]},
    "plasma-tiny-b0.json": {"B0": 8.713129219028573e-223, "species": [
        {"name": "electron", "density_m3": 1e14},
        {"name": "proton", "density_m3": 1e14}]},
    "layered-table.json": {"K11": {
        "kind": "expression-table", "xs": [0.5, 0.9, 1.3, 2.0],
        "zs": [-1.0, 1.0],
        "values": [[1.0, 1.0], [0.3, 0.3], [2.0, 2.0], [0.8, 0.8]]},
        "sigma0": 2.0, "x_range": [0.5, 2.0]},
    # json.dump writes these as the NaN and Infinity literals
    "plasma-nan-b0.json": {"B0": float("nan"), "species": [
        {"name": "electron", "density_m3": 1e19},
        {"name": "proton", "density_m3": 1e19}]},
    "fields-nan-k11.json": {"K11": {"kind": "constant",
                                    "value": float("nan")}},
    "problem-infinite-bound.json": {
        "kappa": 0.5, "domain": {"rects": [[0.0, float("inf"), 0.0, 1.0]]},
        "grid": {"nx": 9, "ny": 9}},
    "plasma-bool-b0.json": {"B0": True, "species": [
        {"name": "electron", "density_m3": 1e19},
        {"name": "proton", "density_m3": 1e19}]},
    "layered-x-range-number.json": {"K11": {"kind": "constant",
                                            "value": 1.0},
                                    "sigma0": 0.0, "x_range": 5},
    "problem-gauss-zero-width.json": {
        "kappa": 0.5, "domain": {"rects": [[0.0, 1.0, 0.0, 1.0]]},
        "grid": {"nx": 9, "ny": 9},
        "forcing": {"kind": "gauss", "params": {"w": 0}}},
    "problem-samples-no-values.json": {
        "kappa": 0.5, "domain": {"rects": [[0.0, 1.0, 0.0, 1.0]]},
        "grid": {"nx": 9, "ny": 9}, "forcing": {"kind": "samples"}},
    "fields-unsorted-table.json": {"K11": {
        "kind": "expression-table", "xs": [1.0, 0.0, 2.0], "zs": [0.0, 1.0],
        "values": [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]}},
    # all hyperbolic: the probe rejects the static factor at 49 nodes
    "problem-hyperbolic.json": {
        "kappa": 0.5, "domain": {"rects": [[-2.0, -0.5, -1.0, 1.0]]},
        "grid": {"nx": 49, "ny": 49}, "forcing": {"kind": "one"}},
    "problem-mixed-lens.json": {
        "kappa": 0.0, "domain": {"rects": [[0.25, 1.0, 0.5, 1.0]]},
        "grid": {"nx": 17, "ny": 17}, "bc": {"type": "mixed", "G": []},
        "forcing": {"kind": "smooth2"}},
    "problem-mixed-bottom.json": {
        "kappa": 0.0, "domain": {"rects": [[0.0, 1.0, 0.0, 0.75]]},
        "grid": {"nx": 9, "ny": 9}, "bc": {"type": "mixed",
                                           "G": ["bottom"]}},
    "problem-mixed-square.json": {
        "kappa": 0.0, "domain": {"rects": [[-1.0, 1.0, -1.0, 1.0]]},
        "grid": {"nx": 9, "ny": 9}, "bc": {"type": "mixed",
                                           "G": ["top", "left"]}},
    # estimated factors of about 3.6e8 MB (solve) and 8.2e8 MB (mixed)
    "problem-oversized.json": {
        "kappa": 0.5, "domain": {"rects": [[0.0, 1.0, 0.0, 1.0]]},
        "grid": {"nx": 100001, "ny": 100001}},
    "problem-huge-box.json": {
        "kappa": 0.5, "domain": {"rects": [[-1e150, 1e150, -1e150, 1e150]]},
        "grid": {"nx": 9, "ny": 9}, "forcing": {"kind": "one"}},
    "problem-tiny-box.json": {
        "kappa": 0.5, "domain": {"rects": [[0.0, 1e-300, 0.0, 1e-300]]},
        "grid": {"nx": 9, "ny": 9}, "forcing": {"kind": "one"}},
    # K11 touches 0 at x = 0.35, between two of the check's samples
    "layered-touching-zero.json": {"K11": {
        "kind": "expression-table", "xs": [0.1, 0.35, 0.7],
        "zs": [-1.0, 1.0], "values": [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]},
        "x_range": [0.1, 0.7]},
    "problem-mixed-oversized.json": {
        "kappa": 0.0, "domain": {"rects": [[-1.0, 1.0, -1.0, 1.0]]},
        "grid": {"nx": 100001, "ny": 100001},
        "bc": {"type": "mixed", "G": ["top", "left"]}},
}


def _sha256(path):
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(argv, indir=None):
    """Exit code and stderr digest of one CLI call, with the input
    directory ``indir`` (when given) written as ``{in}`` in stderr."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    text = err.getvalue()
    if indir is not None:
        text = text.replace(indir, "{in}")
    return code, hashlib.sha256(text.encode()).hexdigest()


def fixed_digests(commands):
    """(name, exit code, sha256) of the output and the stderr of every
    command of ``commands`` (FIXED or FAILING)."""
    with tempfile.TemporaryDirectory() as workdir:
        for name, data in FIXED_INPUTS.items():
            with open(os.path.join(workdir, name), "w",
                      encoding="utf-8") as fh:
                json.dump(data, fh)
        rows = []
        for name, argv in commands.items():
            out = os.path.join(workdir, f"{name}.out")
            code, err = _run(["--out", out]
                             + [a.replace("{in}", workdir) for a in argv],
                             workdir)
            rows += [(f"{name}.out", code, _sha256(out)),
                     (f"stderr.{name}", code, err)]
        return rows


def digests(seed, workload):
    """(file, exit code, sha256) of every output of one workload, and of
    every step's stderr."""
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "out")
        os.mkdir(out)
        rows = []
        for k, step in enumerate(workloads.build(workload, seed, workdir)):
            code, err = _run([a.replace("{out}", out) for a in step.argv])
            rows.extend((name, code, _sha256(os.path.join(out, name)))
                        for name in step.outputs)
            rows.append((f"stderr.{k}", code, err))
        return rows


def main(argv):
    seeds = [int(s) for s in argv] or [1, 2, 3]
    print(f"coldwave from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for name, code, digest in digests(seed, workload):
                print(seed, workload, name, code, digest, flush=True)
    for workload, commands in (("fixed", FIXED), ("errors", FAILING)):
        for name, code, digest in fixed_digests(commands):
            print("-", workload, name, code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
