from types import SimpleNamespace

import numpy as np
import pytest

from divfreedg import build_structured, linsolve
from divfreedg.fe_space import RTSpace, ScalarDGSpace


@pytest.fixture(scope="session")
def meshes():
    """Small meshes shared across test modules, keyed by (n, perturb)."""
    cache = {}

    def get(n, perturb=0.0, seed=0):
        key = (n, perturb, seed)
        if key not in cache:
            cache[key] = build_structured(n, perturb=perturb, seed=seed)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def spaces(meshes):
    """RT/DG space pairs with an optional factorized KKT projection."""
    cache = {}

    def get(n, k, perturb=0.15, seed=0, with_saddle=False):
        key = (n, k, perturb, seed)
        if key not in cache:
            mesh = meshes(n, perturb, seed)
            space = RTSpace(mesh, k)
            q_space = ScalarDGSpace(mesh, k)
            cache[key] = dict(mesh=mesh, space=space, q_space=q_space,
                              saddle=None, stream=None)
        entry = cache[key]
        if with_saddle and entry["saddle"] is None:
            entry["saddle"] = linsolve.build_saddle(entry["space"], entry["q_space"])
        return entry

    return get


def projections(entry):
    """Both projection objects of a ``spaces`` entry: the bordered KKT
    oracle and the stream-function projection."""
    if entry["saddle"] is None:
        entry["saddle"] = linsolve.build_saddle(entry["space"], entry["q_space"])
    if entry["stream"] is None:
        entry["stream"] = linsolve.StreamFunctionProjection(
            entry["space"], entry["saddle"].mass)
    return [entry["saddle"], entry["stream"]]


def random_div_free(entry, rng):
    """A random exactly divergence-free field via the L2 projection."""
    rhs = rng.normal(size=len(entry["space"].free_dofs))
    return linsolve.project_div_free(entry["saddle"], rhs)


def trace_points(mesh, facet, rule):
    """Quadrature points of ``rule`` (on [0, 1]) along ``facet``, from its
    lower-index vertex to the higher one, mapped into the plus cell and the
    minus cell (None on the boundary) and back, with physical weights."""
    a, b = mesh.vertices[mesh.facet_vertices[facet]]
    t = np.asarray(rule.points)
    pts = a + t[:, None] * (b - a)
    out = SimpleNamespace(weights=np.asarray(rule.weights) * mesh.facet_length[facet],
                          ref_minus=None, points_minus=None)
    for side, cell in (("plus", mesh.facet_plus[facet]),
                       ("minus", mesh.facet_minus[facet])):
        if cell < 0:
            continue
        cells = np.full(len(t), cell)
        ref = mesh.map_to_reference(cells, pts)
        setattr(out, f"ref_{side}", ref)
        setattr(out, f"points_{side}", mesh.map_to_physical(cells, ref))
    return out
