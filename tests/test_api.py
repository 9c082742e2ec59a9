"""Every exported name resolves, and so does every name the span tracer wraps.

`perfbench/spans.py` wraps each (module, attribute) of its PATCH_SITES with a
bare getattr, so a deleted or renamed attribute there breaks traced benchmark
runs (`perfbench/run.py --trace 1`) although no unit test calls it.
"""

import importlib
import importlib.util
from pathlib import Path

import stitchpolar

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_all_names_resolve():
    assert [name for name in stitchpolar.__all__
            if not hasattr(stitchpolar, name)] == []


def test_traced_patch_sites_exist():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _ in spans.PATCH_SITES
               if not hasattr(importlib.import_module(f"stitchpolar.{module}"), attr)]
    assert missing == []
