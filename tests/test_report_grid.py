"""The report grid: 96 short runs compared with the reports stored in
``tests/data/report_grid.json`` (written by ``tools/report_grid.py``).

The contract: blow-up steps and ``factor_fill`` match exactly; every
record of ``l2``, ``jump_u`` and ``jump_w`` and the final ``l2_err`` and
``h1_err`` match within 1e-10 of the largest value of the same field in the
same report.  The divergence and the energy residual are roundoff, so they
keep their own gates (1e-10, and 1e-10 relative) instead of a comparison
with stored roundoff.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COMPARED = ("l2", "jump_u", "jump_w", "l2_err", "h1_err")
REL_TOL = 1e-10


@pytest.fixture(scope="module")
def grid():
    spec = importlib.util.spec_from_file_location("report_grid",
                                                  ROOT / "tools" / "report_grid.py")
    report_grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_grid)
    stored = json.loads(report_grid.OUT.read_text())
    return stored, report_grid.run_grid(), report_grid.stored_fields


def _moves(key, want, have):
    """The fields of one report that break the contract."""
    moves = [f"{key}: {name} {have[name]} != {want[name]}"
             for name in ("blow_up", "factor_fill") if have[name] != want[name]]
    for name in COMPARED:
        old, new = want[name], have[name]
        old, new = (old, new) if isinstance(old, list) else ([old], [new])
        if len(old) != len(new):
            moves.append(f"{key}: {len(new)} records of {name}, not {len(old)}")
            continue
        scale = max((abs(x) for x in old if x is not None), default=0.0)
        for i, (a, b) in enumerate(zip(old, new)):
            if (a is None) != (b is None) or (a is not None and abs(b - a) > REL_TOL * scale):
                moves.append(f"{key}: {name}[{i}] {b} != {a}")
    return moves


def test_every_report_of_the_grid_matches_the_stored_one(grid):
    stored, reports, fields = grid
    assert sorted(reports) == sorted(stored)
    moves = [m for key, report in reports.items()
             for m in _moves(key, stored[key], fields(report))]
    assert not moves, "\n".join(moves[:20])


def test_the_grid_keeps_the_divergence_and_energy_gates(grid):
    _, reports, _ = grid
    for key, report in reports.items():
        assert report.max_div <= 1e-10, key
        if report.completed and "forced" in key:
            assert report.div_err <= 1e-10, key
        else:
            assert math.isnan(report.div_err), key
        if "rk2" in key and "f_zero" in key and report.n_steps_done:
            assert report.max_relative_energy_residual() <= 1e-10, key
