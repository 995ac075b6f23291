#!/usr/bin/env python3
"""Run each CLI stage of a config in its own process and print, per stage,
the wall seconds of `cli.main` (interpreter start and imports excluded) and
the process's peak RSS (`ru_maxrss`, in MB of 1024 KiB as on Linux). Stops
with exit 1 and the stage's error output at a stage that does not exit 0.

    python3 scripts/stage_peaks.py --config run.cfg [--out DIR]
"""

import argparse
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
STAGES = ("simulate", "estimate", "segment", "render", "evaluate")
# each stage's process: the stage, then its seconds and peak RSS last
CHILD = """import resource, sys, time
from matscan import cli
t = time.perf_counter()
rc = cli.main(sys.argv[1:])
print(time.perf_counter() - t, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(rc)"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="key = value config file")
    ap.add_argument("--out", help="output directory (overrides config)")
    args = ap.parse_args()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = ["--out", args.out] if args.out else []
    print(f"{'stage':<9} {'wall_s':>7} {'peak_rss_mb':>11}")
    for stage in STAGES:
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, stage, "--config", args.config, *out],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"{stage} exited {proc.returncode}", file=sys.stderr)
            return 1
        seconds, kib = proc.stdout.split()[-2:]
        print(f"{stage:<9} {float(seconds):7.2f} {int(kib) / 1024:11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
