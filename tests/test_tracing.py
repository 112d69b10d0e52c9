"""The benchmark's tracer must find every function it wraps.

``perfbench/tracing.py`` names the functions it spans and counts by module
and attribute; a name that no longer resolves is only reported as
``trace.missing_names`` in a traced run.  This test makes a rename or a
deletion fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    targets = [*tracing.SPANNED, *tracing.COUNTED]
    assert targets
    missing = [
        f"{module}.{attr}"
        for _name, module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
