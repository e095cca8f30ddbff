"""Sparse direct saddle-point solvers for the divergence-free projection.

The L2 projection onto the exactly divergence-free subspace is realized by a
KKT system [[M, B^T], [B, 0]] on the boundary-free velocity DOFs, bordered by
one Lagrange multiplier enforcing a zero-mean constraint on the broken
multiplier.  The factorization depends only on mesh and degree and is reused
for every stage of every time step.  One step of iterative refinement keeps
solve residuals at roundoff, which the energy-identity diagnostics rely on.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from . import forms
from .fe_space import CoefVec


class BlowUpSignal(Exception):
    """Non-finite or runaway state.  Reportable data, not a solver failure."""

    def __init__(self, step=None, message=None):
        super().__init__(message or f"blow-up detected at step {step}")
        self.step = step


def _factorize(matrix, label):
    try:
        return splu(matrix.tocsc())
    except RuntimeError as exc:
        raise RuntimeError(f"{label} factorization failed: {exc}") from exc


class _BorderedSystem:
    """Shared machinery: factorized [[A, B^T, 0], [B, 0, c], [0, c^T, 0]]."""

    def __init__(self, space, q_space, velocity_block, div_free, border, label):
        self.space = space
        self.q_space = q_space
        self.free = space.free_dofs
        self.n_free = len(self.free)
        self.n_mult = q_space.n_dofs
        self.matrix = sp.bmat(
            [[velocity_block, div_free.T, None],
             [div_free, None, border],
             [None, border.T, None]], format="csc")
        self.lu = _factorize(self.matrix, label)

    def solve(self, rhs_free, refine=False):
        # SuperLU already reaches ~1e-14 relative residual on these systems;
        # one refinement pass is available for diagnostics that want roundoff
        rhs = np.zeros(self.matrix.shape[0])
        rhs[:self.n_free] = rhs_free
        z = self.lu.solve(rhs)
        if refine:
            z += self.lu.solve(rhs - self.matrix @ z)
        return z

    def expand(self, z):
        full = np.zeros(self.space.n_dofs)
        full[self.free] = z[:self.n_free]
        return CoefVec(self.space, full)

    def restrict(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n_free,):
            raise ValueError(f"rhs has shape {rhs.shape}, not the {self.n_free} free DOFs")
        return rhs


def _check_connected(mesh):
    """The one zero-mean border row fixes the multiplier's constant on a
    connected mesh only; each further component would leave one free."""
    inner = mesh.interior_facets
    adjacency = sp.coo_matrix(
        (np.ones(len(inner)), (mesh.facet_plus[inner], mesh.facet_minus[inner])),
        shape=(mesh.n_cells, mesh.n_cells))
    count, _ = connected_components(adjacency, directed=False)
    if count > 1:
        raise ValueError(f"the divergence-free projection needs a connected mesh; "
                         f"this one has {count} connected components")


class SaddleSystem(_BorderedSystem):
    """Factorized mass/divergence saddle operator for the L2 projection.

    Keeps the free-DOF blocks and the border that every CN system on the
    same discretization reuses.  The mesh must be connected."""

    def __init__(self, space, q_space, mass=None, div=None):
        _check_connected(space.mesh)
        self.mass = mass if mass is not None else forms.assemble_mass(space)
        self.div = div if div is not None else forms.assemble_div(space, q_space)
        free = space.free_dofs
        self.mass_free = self.mass[free][:, free].tocsr()
        self.div_free = self.div[:, free].tocsr()
        self.border = sp.csr_matrix(q_space.integral_vector()[:, None])
        super().__init__(space, q_space, self.mass_free, self.div_free,
                         self.border, "saddle")


def build_saddle(space, q_space, mass=None, div=None):
    """Assemble and factorize the divergence-free projection system."""
    return SaddleSystem(space, q_space, mass=mass, div=div)


def project_div_free(system, rhs):
    """Velocity u in the divergence-free subspace with (u, v) = rhs(v).

    ``rhs`` is a functional vector over the free velocity DOFs.  Non-finite
    input raises BlowUpSignal.
    """
    rhs_free = system.restrict(rhs)
    if not np.all(np.isfinite(rhs_free)):
        raise BlowUpSignal(message="non-finite right-hand side in projection")
    z = system.solve(rhs_free)
    return system.expand(z)


class CNSystem(_BorderedSystem):
    """Factorized semi-implicit step operator (1/tau) M + theta C(a) + theta nu A.

    Refreshed every step because the linearized convection C depends on the
    advecting field; the mass, divergence and border blocks come sliced from
    ``saddle`` and ``sip_free`` is the SIP matrix on the free DOFs.
    """

    def __init__(self, saddle, convection, tau, nu=0.0, sip_free=None,
                 theta=0.5):
        if tau <= 0:
            raise ValueError("time step must be positive")
        free = saddle.free
        block = (saddle.mass_free / tau + theta * convection[free][:, free])
        if nu > 0:
            if sip_free is None:
                raise ValueError("viscous CN step needs the assembled SIP matrix")
            block = block + theta * nu * sip_free
        super().__init__(saddle.space, saddle.q_space, block.tocsr(),
                         saddle.div_free, saddle.border, "CN")
        self.tau = tau
        self.theta = theta


def cn_solve(system, rhs):
    """Solve one semi-implicit step; the result is divergence-free by the
    constraint rows."""
    rhs_free = system.restrict(rhs)
    if not np.all(np.isfinite(rhs_free)):
        raise BlowUpSignal(message="non-finite right-hand side in CN step")
    z = system.solve(rhs_free)
    return system.expand(z)


__all__ = [
    "SaddleSystem", "CNSystem", "build_saddle", "project_div_free",
    "cn_solve", "BlowUpSignal",
]
