"""Smoke test of tools/output_digests.py, the byte-identity check of the
benchmark workloads' outputs."""

import json
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The file names each workload's steps write for seed 1, listed by
# perfbench/workloads in a separate interpreter that writes no bytecode.
LIST_OUTPUTS = """
import json, sys, tempfile
sys.path.insert(0, "perfbench")
import workloads
with tempfile.TemporaryDirectory() as wd:
    print(json.dumps({w: [s.outputs for s in workloads.build(w, 1, wd)]
                      for w in workloads.WORKLOADS}))
"""


def checkout_files():
    """(path, size, mtime) of every file in the checkout outside .git."""
    return {(str(p.relative_to(ROOT)), p.stat().st_size, p.stat().st_mtime_ns)
            for p in ROOT.rglob("*")
            if p.is_file() and ".git" not in p.relative_to(ROOT).parts}


def test_one_line_per_output_and_nothing_written():
    # the tool keeps bytecode caches out of the checkout by itself
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    steps = json.loads(subprocess.run(
        [sys.executable, "-B", "-c", LIST_OUTPUTS], cwd=ROOT, env=env,
        check=True, capture_output=True, text=True).stdout)
    before = checkout_files()
    run = subprocess.run(
        [sys.executable, "tools/output_digests.py", "1"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert checkout_files() == before
    rows = [line.split(" ") for line in run.stdout.splitlines()]
    digest = re.compile(r"[0-9a-f]{64}|-")
    for row in rows:
        assert len(row) == 5 and re.fullmatch(r"-?\d+", row[3]) \
            and digest.fullmatch(row[4]), row
    for workload, outputs in steps.items():
        expected = [name for k, names in enumerate(outputs)
                    for name in (*names, f"stderr.{k}")]
        assert [name for seed, w, name, _, _ in rows
                if (seed, w) == ("1", workload)] == expected
    assert {seed for seed, *_ in rows} == {"1", "-"}
