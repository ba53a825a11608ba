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


def test_traced_counters_read_the_returned_objects(capsys):
    # every counter reads attributes of a traced call's result; a renamed
    # attribute would fail inside the tracer, not here, so run them all
    from contactloci.cli import main

    tracing = _tracing_module()
    with tracing.Tracer() as tracer:
        assert main(["report", "--poly", "x*y", "--m", "3", "--primes", "3,5,7", "--format", "json"]) == 0
        assert main(["oracle-count", "--poly", "x*y", "--m", "2", "--q", "3", "--strata"]) == 0
    capsys.readouterr()
    counts = {k: v for k, v in tracing.summarize(tracer.spans).items() if not k.endswith("_s")}
    # every h0 and every initial form of x*y is one term, so its counts and
    # strata are closed-form: each count at m = 3 lists only the singular
    # origin of x*y at e = 1, one node per prime, and the strata none
    assert counts == {
        "curves.blowups": 1,
        "separation.subdivisions": 2,
        "weights.exc_divisors": 3,
        "weights.weight_sum": 11,
        "spectral.page_entries": 2,
        "jets.count_nodes": 3,
        "jets.fits": 1,
        "jets.fits_conclusive": 1,
        "jets.strata_nodes": 0,
        "jets.strata_cells": 1,
        "cli.calls": 0,
    }
