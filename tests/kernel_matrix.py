"""Run tier-1 under each OpenBLAS kernel and thread count, and print each cell's failures.

    python3 tests/kernel_matrix.py [--cores native SkylakeX ...] [--threads 1 2]

numpy's OpenBLAS is a DYNAMIC_ARCH build: it picks its kernel from the CPU,
and the environment variable OPENBLAS_CORETYPE forces another one. Each cell
of the matrix runs the tier-1 command, `python -m pytest -q
--continue-on-collection-errors` with src/ on PYTHONPATH, in a subprocess
from the repository root, with OPENBLAS_CORETYPE set to the cell's kernel
(unset for `native`, the CPU's own pick) and OPENBLAS_NUM_THREADS to its
thread count. Cells run one at a time. Only the children's environment
changes; the script sets nothing on the machine.

The table lists, per cell, its passed and failed counts and the failures
that differ from the native cell with the same thread count (`+` fails here
only, `-` fails in native only). The script exits non-zero when some
cell's failures differ from native's.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORES = ["native", "SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott"]
THREADS = [1, 2]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def cell_env(core, threads, base):
    """base with the cell's OpenBLAS kernel and thread count, and src/ on PYTHONPATH."""
    env = dict(base)
    env.pop("OPENBLAS_CORETYPE", None)
    if core != "native":
        env["OPENBLAS_CORETYPE"] = core
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in ("src", base.get("PYTHONPATH")) if p)
    return env


def parse_junit(text):
    """{"passed": n, "failed": sorted test ids} of a pytest JUnit XML report.

    A test id is `classname::name`, as in tests.test_nn.TestPadRows::test_x[a];
    an error counts as a failure, a skip as neither.
    """
    passed, failed = 0, []
    for case in ET.fromstring(text).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            failed.append(f"{case.get('classname')}::{case.get('name')}")
        elif case.find("skipped") is None:
            passed += 1
    return {"passed": passed, "failed": sorted(failed)}


def run_cell(core, threads):
    """parse_junit of one tier-1 run under the cell's kernel and thread count."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        proc = subprocess.run([sys.executable, *TIER1, f"--junitxml={report}"], cwd=ROOT,
                              env=cell_env(core, threads, os.environ), capture_output=True,
                              text=True, timeout=3600)
        if not report.exists():
            raise RuntimeError(f"{core}/{threads}: pytest exited {proc.returncode} without "
                               f"a report\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
        return parse_junit(report.read_text())


def diff_cells(cells):
    """{(core, threads): (only here, only in native)} against the native cell of
    the same thread count; a thread count without a native cell is compared
    with the empty failure set."""
    out = {}
    for (core, threads), cell in cells.items():
        native = set(cells.get(("native", threads), {"failed": []})["failed"])
        here = set(cell["failed"])
        out[core, threads] = (sorted(here - native), sorted(native - here))
    return out


def summary(cells):
    """The table's lines, one per cell, each followed by its differing failures."""
    diffs = diff_cells(cells)
    lines = [f"{'cell':<16}{'passed':>8}{'failed':>8}  vs native"]
    for (core, threads), cell in cells.items():
        extra, missing = diffs[core, threads]
        delta = f"+{len(extra)} -{len(missing)}" if extra or missing else "same"
        lines.append(f"{f'{core}/{threads}':<16}{cell['passed']:>8}"
                     f"{len(cell['failed']):>8}  {delta}")
        lines += [f"  + {t}" for t in extra] + [f"  - {t}" for t in missing]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cores", nargs="+", default=CORES,
                        help="OPENBLAS_CORETYPE values; `native` leaves it unset")
    parser.add_argument("--threads", type=int, nargs="+", default=THREADS,
                        help="OPENBLAS_NUM_THREADS values")
    args = parser.parse_args(argv)

    cells = {}
    for threads in args.threads:
        for core in args.cores:
            cells[core, threads] = run_cell(core, threads)
            print(f"{core}/{threads} done", file=sys.stderr, flush=True)
    print("\n".join(summary(cells)))
    return 0 if all(d == ([], []) for d in diff_cells(cells).values()) else 1


if __name__ == "__main__":
    sys.exit(main())
