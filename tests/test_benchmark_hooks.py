"""The names the benchmark in ``perfbench/`` patches and reads.

``perfbench/run.py --all`` wraps the solver's public functions by name and
describes each discretization through its KKT oracle.  A renamed or deleted
name would break only that run, so these tests call both hooks here.
"""

import sys
from pathlib import Path

import pytest

from divfreedg import (build_structured, diagnostics, forms, integrators, linsolve,
                       manufactured, mesh)
from divfreedg.integrators import Discretization

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
        yield workloads
    finally:
        sys.path.remove(str(PERFBENCH))


def test_tracer_patches_and_restores_every_traced_name(workloads):
    from tracing import Tracer

    modules = (diagnostics, forms, integrators, linsolve, manufactured, mesh)
    before = {module: dict(vars(module)) for module in modules}
    tracer = Tracer()
    try:
        workloads.install_tracer(tracer)
        assert linsolve.cn_solve is not before[linsolve]["cn_solve"]
    finally:
        tracer.restore()
    for module, names in before.items():
        assert all(vars(module)[name] is value for name, value in names.items())


def test_describe_reads_the_kkt_oracle(workloads):
    described = workloads.describe(Discretization(build_structured(4), 1))
    assert described["k"] == 1 and described["n"] == 4
    assert described["kkt_n"] > described["dofs"] > 0
    assert described["lu_fill"] >= described["kkt_nnz"] > 0
