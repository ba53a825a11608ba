"""The benchmark tracer (bench/tracing.py) patches program functions by
module and attribute name; a renamed or deleted name would break its
``--trace 1`` runs, so every name it patches must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = [(module, attr) for module, attr, *_ in _tracing_module().TARGETS]
    targets.append(("contactloci.curves", "sympy"))  # patched outside the table
    assert len(targets) > 10
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing
