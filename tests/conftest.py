from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from divfreedg import build_structured, forms, linsolve
from divfreedg.fe_space import RTSpace, ScalarDGSpace
from divfreedg.quadrature import triangle_rule


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


def refined_solve(system, rhs_free):
    """``system.solve`` with one pass of iterative refinement, for oracles
    that want roundoff: the plain KKT solve of an indefinite system is off
    its refined solution by up to 5e-13."""
    rhs = system.lift(rhs_free)
    z = system.lu.solve(rhs)
    return z + system.lu.solve(rhs - system.matrix @ z)


class BorderedCN:
    """The KKT oracle of a CN step: the operator M/tau + theta C(a) +
    theta nu A on the free velocity DOFs, with C(a) from
    ``forms.convection_matrix``, bordered by the divergence rows and the
    zero-mean row of ``saddle``, whose unknowns it shares."""

    def __init__(self, saddle, advect, tau, nu=0.0, theta=0.5, sip=None):
        free = saddle.free
        block = saddle.mass / tau + theta * forms.convection_matrix(saddle.space, advect)
        if nu > 0:
            block = block + theta * nu * sip
        div, border = saddle.div_free, saddle.border
        self.saddle = saddle
        self.n_free = saddle.n_free
        self.matrix = sp.bmat([[block[free][:, free], div.T, None],
                               [div, None, border],
                               [None, border.T, None]], format="csc")
        self.lu = splu(self.matrix)

    def lift(self, rhs_free):
        return self.saddle.lift(rhs_free)

    def solve(self, rhs_free):
        return self.lu.solve(self.lift(rhs_free))

    def expand(self, z):
        return self.saddle.expand(z)


# -- broken P_k oracles ------------------------------------------------------------

def dg_local_mass(q_space):
    """Mass matrix of the monomial basis of ``q_space`` on the reference cell."""
    rule = triangle_rule(2 * q_space.k)
    mon = q_space.eval_ref(rule.points)
    return np.einsum("qi,qj,q->ij", mon, mon, rule.weights)


def dg_project(q_space, func, order=None):
    """Coefficients of the local L2 projection of a scalar function onto
    broken P_k."""
    if order is None:
        order = max(2 * q_space.k + 2, 15)
    mesh = q_space.mesh
    rule = triangle_rule(order)
    phys = mesh.map_to_physical(np.arange(mesh.n_cells)[:, None], rule.points)
    fvals = np.asarray(func(phys[..., 0], phys[..., 1]), dtype=float)
    moments = np.einsum("q,qi,cq->ci", rule.weights, q_space.eval_ref(rule.points), fvals)
    return (moments @ np.linalg.inv(dg_local_mass(q_space)).T).ravel()


def dg_evaluate(q_space, coeffs, cells, ref_points):
    """Broken P_k field of ``coeffs`` at reference points in cells."""
    loc = coeffs.reshape(-1, q_space.n_loc)[np.asarray(cells, dtype=int)]
    return np.einsum("...i,...i->...", loc, q_space.eval_ref(ref_points))


def div_l2_through_b(space, q_space, coeffs, div):
    """L2 norm of div u_h through the divergence matrix B and the local P_k
    mass inverse, sqrt((Bu)^T Mq^{-1} (Bu)): div u_h lies in broken P_k, so
    its P_k moments determine it."""
    moments = (div @ coeffs).reshape(space.mesh.n_cells, q_space.n_loc)
    sq = np.einsum("ci,ij,cj->c", moments, np.linalg.inv(dg_local_mass(q_space)), moments)
    return float(np.sqrt(max(np.sum(sq / space.mesh.cell_detj), 0.0)))


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
