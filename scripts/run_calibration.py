#!/usr/bin/env python3
"""One-time calibration of the scheme-I acceptance bands.

Runs the exact benchmark harness at the four configurations the acceptance
suite gates on and freezes the resulting means/sds into
tests/data/scheme1_reference.json.  See docs/calibration.md for why these
bands exist and how they relate to the externally published reference values.

Usage: python scripts/run_calibration.py [outdir]
(~10 minutes on two cores; the committed JSON was produced with seed 20250808)
"""
import json
import pathlib
import sys
import tempfile

from tarpreg.cli import main as cli

SEED = "20250808"
BASE = ["benchmark", "--scheme", "ar1", "--n", "200", "--p", "2000",
        "--n-test", "100", "--seed", SEED, "--delta", "2", "--workers", "0"]

RUNS = {
    ("single_replicate", "ris-rp_m80_psi0.25"):
        BASE + ["--datasets", "100", "--backend", "ris-rp",
                "--no-aggregate", "--m", "80", "--psi", "0.25"],
    ("single_replicate", "ris-pcr_m40"):
        BASE + ["--datasets", "100", "--backend", "ris-pcr",
                "--no-aggregate", "--m", "40"],
    ("aggregated_100_replicates", "ris-rp"):
        BASE + ["--datasets", "50", "--backend", "ris-rp", "--replicates", "100"],
    ("aggregated_100_replicates", "ris-pcr"):
        BASE + ["--datasets", "50", "--backend", "ris-pcr", "--replicates", "100"],
}


def run(outdir: pathlib.Path) -> dict:
    result = {
        "description": "Reference statistics for the first-order-autoregressive "
                       "benchmark (n=200, p=2000, delta=2, noise_sd=1, coef=1, "
                       "n_test=100), produced by scripts/run_calibration.py "
                       f"(seed {SEED}).",
        "single_replicate": {},
        "aggregated_100_replicates": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for (group, name), argv in RUNS.items():
            prefix = pathlib.Path(tmp) / name
            code = cli(argv + ["--out", str(prefix)])
            if code != 0:
                raise SystemExit(f"calibration run {name} failed")
            with open(f"{prefix}.json") as fh:
                report = json.load(fh)
            result[group][name] = {
                "report": report["report"],
                "datasets": report["datasets"],
                "config_seed": report["config"]["seed"],
                "no_aggregate": report["no_aggregate"],
            }
            print(name, report["report"])
    target = outdir / "scheme1_reference.json"
    with open(target, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote", target)
    return result


if __name__ == "__main__":
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
    run(out)
