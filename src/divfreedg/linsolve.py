"""The divergence-free L2 projection and the semi-implicit step systems.

On a simply connected domain the discrete de Rham sequence

    P_{k+1} ∩ H^1_0  --curl-->  RT_k,0  --div-->  P_k^disc / R

is exact, so the exactly divergence-free velocities are the curls C psi of
continuous P_{k+1} stream functions that vanish on the boundary (Arnold,
Falk and Winther, Acta Numerica 2006; Girault and Raviart 1986).  The
projection of a functional r is then u = C K^{-1} C^T r, where K = C^T M C
is the P_{k+1} stiffness matrix on the interior nodes: symmetric positive
definite, assembled cell by cell and factorized once per mesh and degree.
B C = 0 holds identically, so the divergence vanishes by construction.  The
semi-implicit CN operator C^T (M/tau + theta C(a) + theta nu A) C is
assembled directly on the stream nodes, on a pattern fixed per mesh, with
no velocity convection matrix and no triple product per step.

The bordered KKT system [[M, B^T, 0], [B, 0, c], [0, c^T, 0]] on the free
velocity DOFs, with one zero-mean border row c for the broken multiplier,
realizes the same projection without the topology assumption.  It is kept
as the oracle the stream-function projection is tested against; no run
builds it.  Both handle the constraint behind one interface: ``solve``,
``expand`` and ``stats``.
"""

import time
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from . import forms
from .fe_space import CoefVec, _curl_reference


class BlowUpSignal(Exception):
    """Non-finite or runaway state.  Reportable data, not a solver failure."""

    def __init__(self, step=None, message=None):
        super().__init__(message or f"blow-up detected at step {step}")
        self.step = step


def _factorize(matrix, label, **options):
    try:
        return splu(matrix.tocsc(), **options)
    except RuntimeError as exc:
        raise RuntimeError(f"{label} factorization failed: {exc}") from exc


# -- the two ways of handling the constraint ------------------------------------

# Each maps a functional on the free velocity DOFs to its right-hand side
# (``lift``) and its solution back to the free velocity DOFs (``velocity``).

class _Border:
    """The divergence rows B and the zero-mean border c of the bordered KKT
    system; the unknowns are the free velocity DOFs and the multipliers."""

    def __init__(self, div_free, border):
        self.div_free = div_free
        self.border = border

    def reduce(self, block):
        return sp.bmat([[block, self.div_free.T, None],
                        [self.div_free, None, self.border],
                        [None, self.border.T, None]], format="csc")

    def lift(self, rhs_free):
        rhs = np.zeros(sum(self.div_free.shape) + 1)
        rhs[:len(rhs_free)] = rhs_free
        return rhs

    def velocity(self, z):
        return z[:self.div_free.shape[1]]


class _Curl:
    """The discrete curl C from the interior P_{k+1} nodes to the free
    velocity DOFs; the unknowns are the stream-function values."""

    def __init__(self, curl):
        self.curl = curl
        self.curl_t = curl.T.tocsr()

    def lift(self, rhs_free):
        return self.curl_t @ rhs_free

    def velocity(self, z):
        return self.curl @ z


class _ConstrainedSystem:
    """A factorized operator on the divergence-free velocities of ``space``;
    the constraint object says how they are represented."""

    def __init__(self, space, constraint, matrix, label, **options):
        self.space = space
        self.constraint = constraint
        self.free = space.free_dofs
        self.n_free = len(self.free)
        self.matrix = matrix
        started = time.perf_counter()
        self.lu = _factorize(matrix, label, **options)
        self.factor_s = time.perf_counter() - started
        self.fill = self.lu.nnz  # stored entries of L and U; reading L or U would copy them

    def solve(self, rhs_free, refine=False):
        # SuperLU already reaches ~1e-14 relative residual on these systems;
        # one refinement pass is available for diagnostics that want roundoff
        rhs = self.constraint.lift(rhs_free)
        z = self.lu.solve(rhs)
        if refine:
            z += self.lu.solve(rhs - self.matrix @ z)
        return z

    def expand(self, z):
        full = np.zeros(self.space.n_dofs)
        full[self.free] = self.constraint.velocity(z)
        return CoefVec(self.space, full)

    def restrict(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape != (self.n_free,):
            raise ValueError(f"rhs has shape {rhs.shape}, not the {self.n_free} free DOFs")
        return rhs

    def stats(self):
        """Unknowns, matrix nonzeros, factor fill and factorization seconds."""
        return dict(unknowns=self.matrix.shape[0], nonzeros=self.matrix.nnz,
                    fill=self.fill, factor_s=self.factor_s)


# -- topology ---------------------------------------------------------------------

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


def _check_simply_connected(mesh):
    """Each hole lowers V - E + C by one and adds a harmonic field to the
    divergence-free velocities that no stream function reaches."""
    _check_connected(mesh)
    nv, ne, nc = mesh.n_vertices, mesh.n_facets, mesh.n_cells
    if nv - ne + nc != 1:
        raise ValueError(
            f"the stream-function projection needs a simply connected mesh; "
            f"this one has V - E + C = {nv} - {ne} + {nc} = {nv - ne + nc}, not 1")


# -- the KKT oracle ---------------------------------------------------------------

class SaddleSystem(_ConstrainedSystem):
    """Factorized mass/divergence saddle operator for the L2 projection.

    Keeps the free-DOF blocks, the border and the SIP matrix ``sip`` that
    every CN system on the same discretization reuses.  The mesh must be
    connected."""

    cn_options = {}

    def __init__(self, space, q_space, mass=None, div=None, sip=None):
        _check_connected(space.mesh)
        self.q_space = q_space
        self.mass = mass if mass is not None else forms.assemble_mass(space)
        self.div = div if div is not None else forms.assemble_div(space, q_space)
        self.sip = sip
        free = space.free_dofs
        self.mass_free = self.mass[free][:, free].tocsr()
        self.div_free = self.div[:, free].tocsr()
        self.border = sp.csr_matrix(q_space.integral_vector()[:, None])
        constraint = _Border(self.div_free, self.border)
        super().__init__(space, constraint, constraint.reduce(self.mass_free),
                         "saddle")

    def cn_matrix(self, advect, tau, theta, nu):
        """The bordered CN operator around the velocity convection matrix."""
        block = self.mass / tau + theta * forms.convection_matrix(self.space, advect)
        if nu > 0:
            block = block + theta * nu * self.sip
        return self.constraint.reduce(block[self.free][:, self.free].tocsr())


def build_saddle(space, q_space, mass=None, div=None, sip=None):
    """Assemble and factorize the bordered KKT projection system."""
    return SaddleSystem(space, q_space, mass=mass, div=div, sip=sip)


# -- the stream-function projection -------------------------------------------------

def _stream_nodes(space):
    """Interior-node index of every (cell, reference node) of P_{k+1}, -1
    on the boundary, and the number of interior nodes.

    The global nodes are the vertices, then k nodes per facet from its
    lower-index vertex to the higher one, then the interior nodes of each
    cell; a cell whose counterclockwise edge runs the other way
    (``cell_facet_reversed``) reads that facet's nodes backwards."""
    mesh, k = space.mesh, space.k
    nv, nf, nc = mesh.n_vertices, mesh.n_facets, mesh.n_cells
    n_inner = k * (k - 1) // 2
    j = np.arange(k)
    edge = mesh.cell_facets[:, :, None] * k + np.where(
        mesh.cell_facet_reversed[:, :, None] == 1, k - 1 - j, j)
    inner = np.arange(nc)[:, None] * n_inner + np.arange(n_inner)
    nodes = np.hstack([mesh.cells, nv + edge.reshape(nc, -1), nv + nf * k + inner])

    on_boundary = np.zeros(nv + nf * k + nc * n_inner, dtype=bool)
    walls = mesh.boundary_facets
    on_boundary[mesh.facet_vertices[walls]] = True
    on_boundary[nv + walls[:, None] * k + j] = True
    index = np.full(len(on_boundary), -1)
    index[~on_boundary] = np.arange(np.count_nonzero(~on_boundary))
    return index[nodes], np.count_nonzero(~on_boundary)


def _discrete_curl(space, cell_nodes, n_nodes):
    """C = cell_signs x C_loc on the free velocity DOFs.  Both cells of an
    interior facet give its edge DOFs the same value; the plus cell sets
    them, once."""
    mesh = space.mesh
    nc, ne = mesh.n_cells, space.ref.n_edge_moments
    owner = np.ones((nc, space.n_loc), dtype=bool)
    for i in range(3):
        owner[:, i * ne:(i + 1) * ne] = \
            (mesh.facet_plus[mesh.cell_facets[:, i]] == np.arange(nc))[:, None]
    c_loc = _curl_reference(space.k)
    vals = space.cell_signs[:, :, None] * c_loc
    rows = np.broadcast_to(space.cell_dofs[:, :, None], vals.shape)
    cols = np.broadcast_to(cell_nodes[:, None, :], vals.shape)
    keep = owner[:, :, None] & (cols >= 0) & (vals != 0.0)
    curl = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(space.n_dofs, n_nodes))
    return curl[space.free_dofs]


def _stiffness(space, cell_nodes, n_nodes):
    """K = C^T M C assembled cell by cell as K_c = C_loc^T M_c C_loc, with
    the compact P_{k+1} stencil.  On an affine cell M_c = det J sum_ab G_ab
    R_ab, where G = J^T J / det J^2 is the cell metric and R_ab the
    reference mass of components a and b, so K_c combines the four
    reference matrices C_loc^T R_ab C_loc."""
    c_loc = _curl_reference(space.k)
    tab = space.ref_tables(forms.default_cell_order(space.k))
    curls = np.einsum("qia,in->qna", tab["val"], c_loc)
    ref = np.einsum("q,qma,qnb->abmn", tab["rule"].weights, curls, curls)
    loc = np.einsum("c,cab,abmn->cmn", space.mesh.cell_detj, space.metric, ref)
    rows = np.broadcast_to(cell_nodes[:, :, None], loc.shape)
    cols = np.broadcast_to(cell_nodes[:, None, :], loc.shape)
    keep = (rows >= 0) & (cols >= 0)
    return sp.csc_matrix((loc[keep], (rows[keep], cols[keep])),
                         shape=(n_nodes, n_nodes))


class StreamFunctionProjection(_ConstrainedSystem):
    """The divergence-free L2 projection u = C K^{-1} C^T r through the
    stream function: K is the SPD P_{k+1} stiffness on the interior nodes,
    factorized once with a symmetric ordering and no pivoting.

    The mesh must be simply connected (connected, with V - E + C = 1): a
    hole would leave harmonic divergence-free fields out of range(C), and
    the projection would be wrong with zero divergence."""

    cn_options = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                      options=dict(SymmetricMode=True))

    def __init__(self, space, mass=None, sip=None):
        _check_simply_connected(space.mesh)
        self.mass = mass if mass is not None else forms.assemble_mass(space)
        self.sip = sip
        self.cell_nodes, n_nodes = _stream_nodes(space)
        super().__init__(
            space, _Curl(_discrete_curl(space, self.cell_nodes, n_nodes)),
            _stiffness(space, self.cell_nodes, n_nodes), "stream-function",
            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True))

    @cached_property
    def reduced_cn(self):
        """The CSR pattern (indices, indptr) of the CN operator over the
        stream nodes, the slots of the convection blocks in it and the fixed
        parts K and C^T A C on it; built on the first CN step."""
        n, curl, free = self.matrix.shape[0], self.constraint.curl, self.free
        keys, slots = forms.block_pattern(self.space.mesh, self.cell_nodes, n)
        fixed = [self.matrix] if self.sip is None else \
            [self.matrix, curl.T @ self.sip[free][:, free] @ curl]
        placed = [np.bincount(np.searchsorted(keys, m.row * n + m.col), m.data, len(keys))
                  for m in map(sp.coo_matrix, fixed)]
        return keys % n, np.searchsorted(keys // n, np.arange(n + 1)), slots, placed

    def cn_matrix(self, advect, tau, theta, nu):
        """K/tau + theta C^T C(a) C + theta nu C^T A C.  The signed local
        coefficients of C psi are C_loc psi_loc on every cell, so C^T C(a) C
        sums the convection blocks in the basis phi @ C_loc: one bincount."""
        indices, indptr, slots, placed = self.reduced_cn
        blocks = forms.convection_blocks(self.space, advect, _curl_reference(self.space.k))
        data = placed[0] / tau + theta * np.bincount(
            slots, np.concatenate([b.ravel() for b, _, _ in blocks]), len(indices) + 1)[:-1]
        if nu > 0:
            data += theta * nu * placed[1]
        matrix = sp.csr_matrix((data, indices, indptr), shape=self.matrix.shape)
        matrix.eliminate_zeros()  # the cross blocks of outflow sides
        return matrix


def project_div_free(system, rhs):
    """Velocity u in the divergence-free subspace with (u, v) = rhs(v).

    ``system`` is a projection (stream function or KKT) and ``rhs`` a
    functional vector over the free velocity DOFs.  Non-finite input raises
    BlowUpSignal.
    """
    rhs_free = system.restrict(rhs)
    if not np.all(np.isfinite(rhs_free)):
        raise BlowUpSignal(message="non-finite right-hand side in projection")
    z = system.solve(rhs_free)
    return system.expand(z)


class CNSystem(_ConstrainedSystem):
    """Factorized semi-implicit step operator (1/tau) M + theta C(a) + theta nu A
    on the divergence-free velocities, constrained as ``projection`` is.

    Refreshed every step because the linearized convection C(a) depends on
    the advecting field ``advect``.  The stream-function projection reduces
    it to C^T (...) C on a fixed pattern, factorized with a symmetric
    ordering and threshold pivoting, since the pattern is symmetric but the
    operator is not; the KKT oracle borders it.  A viscous step needs a
    projection built with the SIP matrix ``sip``.
    """

    def __init__(self, projection, advect, tau, nu=0.0, theta=0.5):
        if tau <= 0:
            raise ValueError("time step must be positive")
        if nu > 0 and projection.sip is None:
            raise ValueError("viscous CN step needs the assembled SIP matrix")
        super().__init__(projection.space, projection.constraint,
                         projection.cn_matrix(advect, tau, theta, nu), "CN",
                         **projection.cn_options)


def cn_solve(system, rhs):
    """Solve one semi-implicit step; the result is divergence-free by the
    constraint."""
    rhs_free = system.restrict(rhs)
    if not np.all(np.isfinite(rhs_free)):
        raise BlowUpSignal(message="non-finite right-hand side in CN step")
    z = system.solve(rhs_free)
    return system.expand(z)


__all__ = [
    "StreamFunctionProjection", "SaddleSystem", "CNSystem", "build_saddle",
    "project_div_free", "cn_solve", "BlowUpSignal",
]
