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
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402
from coldwave import cli  # noqa: E402


def _sha256(path):
    if not os.path.exists(path):
        return "-"
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests(seed, workload):
    """(file, exit code, sha256) of every output of one workload, and of
    every step's stderr."""
    with tempfile.TemporaryDirectory() as workdir:
        out = os.path.join(workdir, "out")
        os.mkdir(out)
        rows = []
        for k, step in enumerate(workloads.build(workload, seed, workdir)):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = cli.main([a.replace("{out}", out) for a in step.argv])
            rows.extend((name, code, _sha256(os.path.join(out, name)))
                        for name in step.outputs)
            rows.append((f"stderr.{k}", code, hashlib.sha256(
                err.getvalue().encode()).hexdigest()))
        return rows


def main(argv):
    seeds = [int(s) for s in argv] or [1, 2, 3]
    print(f"coldwave from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for name, code, digest in digests(seed, workload):
                print(seed, workload, name, code, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
