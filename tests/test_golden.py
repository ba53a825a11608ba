"""Golden pinning of the full pipeline output on the reference families,
and of ``report --format json`` stdout byte for byte.

Regenerate with REGEN_GOLDEN=1 after an intentional change:

    REGEN_GOLDEN=1 python -m pytest tests/test_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from contactloci.cli import main
from contactloci.curves import point_configuration, resolve_plane_curve
from contactloci.lefschetz import lefschetz_number, zeta_factorization
from contactloci.separation import separate
from contactloci.spectral import degeneration_analysis, e1_page
from contactloci.weights import solve_weights

GOLDEN_DIR = Path(__file__).parent / "golden"


def pipeline_summary(cfg, m):
    sep, records = separate(cfg, m)
    w = solve_weights(sep)
    page = e1_page(sep, w, m)
    hc = degeneration_analysis(page)
    return {
        "m": m,
        "subdivisions": len(records),
        "weights": w.to_json_dict(),
        "page": page.to_json_dict(),
        "hc": hc.to_json_dict(),
        "lefschetz": lefschetz_number(cfg, m),
    }


def build_family(name):
    if name == "cusp":
        cfg, _ = resolve_plane_curve("x^2 + y^3")
        ms = range(1, 7)
    elif name == "node":
        cfg, _ = resolve_plane_curve("x*y")
        ms = range(1, 5)
    else:
        r = int(name.split("_x")[1])
        cfg = point_configuration(r)
        ms = range(1, 11)
    return {
        "family": name,
        "configuration": cfg.to_json_dict(),
        "zeta": zeta_factorization(cfg).to_json_dict(),
        "runs": [pipeline_summary(cfg, m) for m in ms],
    }


FAMILIES = ["cusp", "node"] + [f"power_x{r}" for r in range(1, 6)]


def stored_golden(path: Path, text: str) -> str:
    """The golden file's text; with REGEN_GOLDEN set, writes ``text`` first."""
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip("golden file regenerated")
    assert path.exists(), f"golden file missing; run with REGEN_GOLDEN=1 ({path})"
    return path.read_text()


@pytest.mark.parametrize("name", FAMILIES)
def test_golden(name):
    data = build_family(name)
    path = GOLDEN_DIR / f"{name}.json"
    stored = stored_golden(path, json.dumps(data, indent=1, sort_keys=True) + "\n")
    assert data == json.loads(stored)


# the keys report adds to the pipeline (input, weights_note, contributing,
# covers, zeta, oracle, verdict) are pinned only here
REPORTS = {
    "report_node_m2_primes": ["--poly", "x*y", "--m", "2", "--primes", "3,5,7"],
    "report_cusp_m6": ["--poly", "x^2+y^3", "--m", "6"],
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_report_json_golden(name, capsys):
    code = main(["report", *REPORTS[name], "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == stored_golden(GOLDEN_DIR / f"{name}.json", out)
