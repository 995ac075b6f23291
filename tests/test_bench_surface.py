"""The program surface the benchmark's tracer wraps.

`perfbench/tracing.py` rebinds named entry points of every matscan module and
the `BrdfTable.from_cells` classmethod. A refactor that drops or renames one
of them breaks the traced benchmark run; this test makes it fail here too.
"""

import importlib
import os
import pkgutil
import sys

import matscan

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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
