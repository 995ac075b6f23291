"""`scripts/sweep.py` runs the seeds it is given as it runs the seeds it
draws."""

import json
import os
import subprocess
import sys

SWEEP = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts",
                     "sweep.py")
SCAN = ["--scene", "two-sphere", "--vertices", "60", "--frames", "30"]


def sweep(*args):
    return subprocess.run([sys.executable, SWEEP, *SCAN, *args],
                          capture_output=True, text=True)


def test_given_seeds_print_the_drawn_seeds_json():
    run = sweep("--seeds", "2", "--seed-stream", "7")
    assert run.returncode == 0, run.stderr
    drawn = json.loads(run.stdout)
    run = sweep(*(arg for seed in drawn["seeds"] for arg in ("--seed", str(seed))))
    assert run.returncode == 0, run.stderr
    given = json.loads(run.stdout)
    assert drawn.pop("seed_stream") == 7 and given.pop("seed_stream") is None
    assert given == drawn


def test_a_seed_stream_with_given_seeds_is_a_usage_error():
    run = sweep("--seed", "1", "--seed-stream", "3")
    assert run.returncode == 2 and "--seed-stream" in run.stderr
