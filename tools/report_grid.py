"""Write the report grid: the ``RunReport`` of each of 96 short runs, the
values that ``tests/test_report_grid.py`` compares every later tree with.

    PYTHONPATH=src python3 tools/report_grid.py [--out PATH]

The grid is k = 1, 2; n = 4, 8, 16 (perturb 0.15, seed 0); RK2 and CN;
nu = 0 and 0.01 with ``taylor_green(nu)``; forced and ``f_zero``; and
tau = 1/40 to T = 0.25 and tau = 1/4 to T = 2, where 36 runs blow up.  Each
entry holds the blow-up step and ``factor_fill`` of a report, every record
of ``l2``, ``jump_u`` and ``jump_w``, and the final ``l2_err`` and
``h1_err``, one report per line, as JSON floats (Python's shortest repr,
at most 17 significant digits, which reads back to the same bits) with
null for NaN.  The divergence and the energy residual are roundoff and
keep their own gates in the test; they are not stored.

Regenerate the file only when a change moves a report beyond the test's
contract on purpose, and list what moved.
"""

import argparse
import itertools
import json
import math
from pathlib import Path

from divfreedg import build_structured, integrators, manufactured

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "report_grid.json"

DEGREES = (1, 2)
SIZES = (4, 8, 16)
INTEGRATORS = ("rk2", "cn")
VISCOSITIES = (0.0, 0.01)
FORCING = ("forced", "f_zero")
SCHEDULES = ((1.0 / 40, 0.25), (0.25, 2.0))  # (tau, T)
PERTURB, SEED = 0.15, 0


def cases():
    """(key, SchemeConfig fields, n) of every run of the grid."""
    for k, n, integrator, nu, forcing, (tau, T) in itertools.product(
            DEGREES, SIZES, INTEGRATORS, VISCOSITIES, FORCING, SCHEDULES):
        key = f"k{k}-n{n}-{integrator}-nu{nu:g}-{forcing}-tau{tau:g}-T{T:g}"
        yield key, dict(tau=tau, T=T, k=k, nu=nu, integrator=integrator,
                        f_zero=forcing == "f_zero"), n


def run_grid():
    """The ``RunReport`` of every case, keyed as ``cases`` keys them."""
    meshes = {n: build_structured(n, perturb=PERTURB, seed=SEED) for n in SIZES}
    return {key: integrators.run(integrators.SchemeConfig(**fields), meshes[n],
                                 manufactured.taylor_green(fields["nu"]))
            for key, fields, n in cases()}


def _stored(x):
    return None if x is None or math.isnan(x) else x


def stored_fields(report):
    """What the grid keeps of ``report``."""
    return dict(blow_up=report.blow_up, factor_fill=report.factor_fill,
                l2=[_stored(x) for x in report.l2_norms],
                jump_u=[_stored(x) for x in report.jump_u],
                jump_w=[_stored(x) for x in report.jump_w],
                l2_err=_stored(report.l2_err), h1_err=_stored(report.h1_err))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    grid = {key: stored_fields(report) for key, report in run_grid().items()}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(entry)}"
                                          for key, entry in grid.items()) + "\n}\n")
    blow_ups = sum(entry["blow_up"] is not None for entry in grid.values())
    records = sum(len(entry["l2"]) for entry in grid.values())
    print(f"wrote {args.out}: {len(grid)} reports, {records} records, {blow_ups} blow-ups, "
          f"{args.out.stat().st_size} bytes")


if __name__ == "__main__":
    main()
