#!/usr/bin/env python3
"""Build and run the Vegvisir benchmark.

    python3 perfbench/run.py --workload catch-up|fleet-sim \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built from source with
dune, then run with the workload parameters fixed in perfbench/plan.json.
Its last line of stdout is the JSON result; build output goes to stderr.
Scratch files (the fixture, replica directories, traces) live under
.perfbench_work/ in the checkout.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["catch-up", "fleet-sim"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the root of a vegvisir checkout (no dune-project or lib/ here)")
    with open(os.path.join(HERE, "plan.json")) as f:
        params = json.load(f)["parameters"]

    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE.replace("_build/default/", "")],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")

    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work", ".perfbench_work",
    ]
    for key, value in params[args.workload].items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
