#!/usr/bin/env python3
"""Peak resident memory of one tarpreg command-line call, as the call itself saw it.

Usage: python scripts/peak_rss.py [--root DIR] -- ARGV...
e.g.   python scripts/peak_rss.py -- fit train.csv test.csv --out /tmp/p

It runs ARGV in a fresh interpreter that imports tarpreg.cli from
DIR/src (default: this checkout), calls ``main(ARGV)`` and then reads its own
``VmHWM`` from /proc/self/status.  That is the high-water mark of the memory
map which exec gave the call.  A child's ``ru_maxrss`` is not: Linux carries
the launcher's high-water mark into a vfork-spawned child, so it reads the
launcher's peak whenever that is the larger.  Thread variables (OMP_*,
OPENBLAS_*, ...) are removed from the child's environment, so the call starts
its BLAS as shipped.  Prints one JSON line with the argv, the checkout, the
call's exit status and its peak_rss_mb (10^6 bytes).  Linux only.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

THREAD_VARS = re.compile(r"^(OMP_|OPENBLAS_|GOTO_|MKL_|VECLIB_|BLIS_|NUMEXPR_)|NUM_THREADS")
CHILD = """
import sys
from tarpreg.cli import main
status = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(f"VmHWM_kib={kib}", file=sys.stderr)
sys.exit(status)
"""


def measure(argv, root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not THREAD_VARS.search(k)}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    found = re.findall(r"^VmHWM_kib=(\d+)$", proc.stderr, re.MULTILINE)
    if not found:
        raise SystemExit(f"no VmHWM from the call (exit {proc.returncode}): {proc.stderr[-400:]}")
    return {"status": proc.returncode, "peak_rss_mb": int(found[-1]) * 1024 / 1e6}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="source checkout whose src/ the call imports")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the tarpreg arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv:
        parser.error("give the tarpreg arguments after --")
    root = args.root.resolve()
    print(json.dumps({"argv": argv, "root": str(root), **measure(argv, root)}))


if __name__ == "__main__":
    main()
