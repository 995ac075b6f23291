#!/usr/bin/env python3
"""Run `matscan pipeline` on one scene seed after seed, in one process, and
print one JSON object: the seeds run, the SHA-256 of each seed's labels.txt,
and for each failing seed (purity below 0.95 or classified fraction below
0.85, the acceptance floors, or a non-zero exit) its group counts, purity,
classified fraction and `segment` diagnostics. Seeds are drawn below 2^31
from `random.Random(seed stream)`, so the same arguments give the same JSON,
whatever PYTHONHASHSEED is.

    python3 scripts/sweep.py --scene corner-board --vertices 300 \\
        --frames 1000 --seeds 20 [--seed-stream 20261020]

In place of `--seeds`, a repeated `--seed N` runs exactly the seeds given,
in that order (a known failing seed, say), and prints the same JSON with a
`seed_stream` of null:

    python3 scripts/sweep.py --scene corner-board --vertices 300 \\
        --frames 1000 --seed 1592843935

Each run is the demo scan of scripts/run_demo.py, in `multi` mode.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from matscan import cli
from run_demo import demo_config

PURITY_FLOOR = 0.95
CLASSIFIED_FLOOR = 0.85


def run_seed(args, seed: int, out_dir: str) -> dict:
    """One pipeline run: its exit code, labels digest, report fields and the
    diagnostics `segment` prints after its last ';'."""
    path = demo_config(args.scene, args.vertices, args.frames, "multi",
                       seed, out_dir)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = cli.main(["pipeline", "--config", path])
    run = {"seed": seed, "exit": rc}
    if rc != 0:
        return run
    with open(os.path.join(out_dir, "labels.txt"), "rb") as fh:
        run["labels_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(out_dir, "report.txt")) as fh:
        fields = dict(line.split(" ", 1) for line in fh.read().splitlines())
    run["group_counts"] = [int(x) for x in fields["group_counts"].split()]
    run["purity"] = float(fields["purity"])
    run["classified_fraction"] = float(fields["classified_fraction"])
    segment = next(line for line in printed.getvalue().splitlines()
                   if line.startswith("segment: "))
    # a dict of ints, lists and tuples; JSON keeps its tuples as lists
    run["segment"] = ast.literal_eval(segment.rsplit("; ", 1)[1])
    return run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scene", required=True,
                    choices=["two-sphere", "four-material-room", "corner-board"])
    ap.add_argument("--vertices", type=int, required=True)
    ap.add_argument("--frames", type=int, required=True)
    runs = ap.add_mutually_exclusive_group(required=True)
    runs.add_argument("--seeds", type=int, help="seeds to draw and run")
    runs.add_argument("--seed", type=int, action="append",
                      help="a seed to run; repeat for more")
    ap.add_argument("--seed-stream", type=int,
                    help="seed of the generator the --seeds are drawn from "
                         "(default 20261020)")
    args = ap.parse_args()
    if args.seed is None:
        if args.seed_stream is None:
            args.seed_stream = 20261020
        stream = random.Random(args.seed_stream)
        seeds = [stream.randrange(2 ** 31) for _ in range(args.seeds)]
    elif args.seed_stream is not None:
        ap.error("--seed-stream draws the --seeds; --seed names its seeds")
    else:
        seeds = args.seed
    digests, failing = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            run = run_seed(args, seed, os.path.join(tmp, str(seed)))
            digests[str(seed)] = run.pop("labels_sha256", None)
            if (run["exit"] != 0 or run["purity"] < PURITY_FLOOR
                    or run["classified_fraction"] < CLASSIFIED_FLOOR):
                failing.append(run)
    print(json.dumps({
        "scene": args.scene, "vertices": args.vertices, "frames": args.frames,
        "seed_stream": args.seed_stream, "seeds": seeds,
        "labels_sha256": digests, "failing": failing}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
