"""The benchmark's tracer must find every function it wraps.

``perfbench/tracing.py`` names the functions it spans, counts and reads
with its count hooks by module and attribute; a name that no longer
resolves is only reported as ``trace.missing_names`` in a traced run.  This
test makes a rename or a deletion fail here instead, on every Python
version the tests run on.
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
    targets = [(module, attr) for _name, module, attr in tracing.SPANNED]
    targets += [(module, attr) for _name, module, attr in tracing.COUNTED]
    # a count hook is keyed by the spanned function whose call it reads
    targets += list(tracing.HOOKS)
    assert tracing.SPANNED and tracing.COUNTED and tracing.HOOKS
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
