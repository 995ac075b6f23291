"""The program surface the benchmark uses.

`perfbench/tracing.py` rebinds named entry points of every matscan module and
the `BrdfTable.from_cells` classmethod, and `perfbench/workloads.py` calls the
library functions the way the CLI stages do. A refactor that drops or renames
one of them breaks the benchmark run; these tests make it fail here too.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import matscan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_tracer_installs_and_uninstalls():
    for mod in pkgutil.iter_modules(matscan.__path__):
        importlib.import_module(f"matscan.{mod.name}")
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    from matscan import brdf_table
    original = brdf_table.BrdfTable.__dict__["from_cells"]
    merge = brdf_table.merge
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert brdf_table.merge is not merge
        brdf_table.merge([brdf_table.BrdfTable.from_cells([(0, 0)], [[1, 1, 1]], [1])])
        names = [span["name"] for span in tracer.spans]
        assert names == ["brdf_table.from_cells", "brdf_table.merge",
                         "brdf_table.from_cells"]
    finally:
        tracer.uninstall()
    assert brdf_table.merge is merge
    assert brdf_table.BrdfTable.__dict__["from_cells"] is original


def test_selftest_passes():
    """The benchmark's self-test at its tiny size: every workload path runs
    untraced and traced, and the traced runs time every layer it requires
    (`brdf_table.merge` and `BrdfTable.from_cells` among them)."""
    proc = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["cli-two-sphere", "lib-sphere-multi"])
def test_workload_runs_correct(workload):
    """One untraced and one traced iteration of the workload at its own size,
    through `perfbench/run.py`: every stage call completes and every output
    check passes, so a call the workload makes (`merge`, `BrdfTable()`,
    iterating the records) that the program no longer supports fails here."""
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
