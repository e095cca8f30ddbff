"""The divergence-free L2 projection and the semi-implicit step systems.

On a simply connected domain the discrete de Rham sequence

    P_{k+1} ∩ H^1_0  --curl-->  RT_k,0  --div-->  P_k^disc / R

is exact, so the exactly divergence-free velocities are the curls C psi of
continuous P_{k+1} stream functions that vanish on the boundary (Arnold,
Falk and Winther, Acta Numerica 2006; Girault and Raviart 1986).  The
projection of a functional r is then u = C K^{-1} C^T r, where K = C^T M C
is the P_{k+1} stiffness matrix on the interior nodes: symmetric positive
definite, assembled cell by cell from the reference mass tables, with no
velocity mass matrix, and factorized once per mesh and degree.  B C = 0
holds identically, so the divergence vanishes by construction.  The
semi-implicit CN operator C^T (M/tau + theta C(a) + theta nu A) C is
assembled directly on the stream nodes, on a pattern fixed per mesh.  Runs
solve only these two systems, and on their own unknowns (``on_unknowns``):
the steps advance psi itself, so no step lifts a velocity functional.

The bordered KKT system [[M, B^T, 0], [B, 0, c], [0, c^T, 0]], with one
zero-mean border row c for the broken multiplier, gives the same
projection on any connected mesh.  It stays only as the oracle the tests
compare with; no run builds it.  Each system lifts a functional on the
free velocity DOFs to its own right-hand side (``lift``) and expands its
solution to the velocity (``expand``); ``project_div_free`` solves any.
"""

import time
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from . import forms
from .fe_space import CoefVec, LocalBasis, _curl_reference


class BlowUpSignal(Exception):
    """Non-finite or runaway state.  Reportable data, not a solver failure."""

    def __init__(self, step=None, message=None):
        super().__init__(message or f"blow-up detected at step {step}")
        self.step = step


class _FactorizedSystem:
    """A factorized operator on the divergence-free velocities of ``space``,
    whose unknowns are the stream-function values psi at the interior nodes
    unless a subclass says otherwise: ``lift`` maps a functional r on the
    free velocity DOFs to the right-hand side C^T r and ``velocity`` maps
    psi to the free velocity DOFs C psi, with C = ``curl`` and C^T = ``curl_t``."""

    def __init__(self, space, matrix, label, **options):
        self.space = space
        self.free = space.free_dofs
        self.n_free = len(self.free)
        self.matrix = matrix
        started = time.perf_counter()
        try:
            self.lu = splu(matrix.tocsc(), **options)
        except RuntimeError as exc:
            raise RuntimeError(f"{label} factorization failed: {exc}") from exc
        self.factor_s = time.perf_counter() - started
        self.fill = self.lu.nnz  # stored entries of L and U; reading L or U would copy them

    def lift(self, rhs_free):
        return self.curl_t @ rhs_free

    def velocity(self, z):
        return self.curl @ z

    def solve(self, rhs_free):
        return self.lu.solve(self.lift(rhs_free))

    def expand(self, z):
        full = np.zeros(self.space.n_dofs)
        full[self.free] = self.velocity(z)
        return CoefVec(self.space, full)

    def stats(self):
        """Unknowns, matrix nonzeros, factor fill and factorization seconds."""
        return dict(unknowns=self.matrix.shape[0], nonzeros=self.matrix.nnz,
                    fill=self.fill, factor_s=self.factor_s)

    @cached_property
    def on_unknowns(self):
        """This factor on its own unknowns, whose lift and expand are the
        identity: ``project_div_free`` and ``cn_solve`` on it take a
        right-hand side on the stream-function nodes and return psi."""
        return SimpleNamespace(n_free=self.matrix.shape[0], solve=self.lu.solve,
                               expand=lambda z: z)


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

class SaddleSystem(_FactorizedSystem):
    """Factorized mass/divergence saddle operator for the L2 projection,
    whose unknowns are the free velocity DOFs, then the multipliers and the
    border's.  The mesh must be connected."""

    def __init__(self, space, q_space, mass=None, div=None):
        _check_connected(space.mesh)
        self.mass = mass if mass is not None else forms.assemble_mass(space)
        div = div if div is not None else forms.assemble_div(space, q_space)
        free = space.free_dofs
        self.mass_free = self.mass[free][:, free].tocsr()
        self.div_free = div[:, free].tocsr()
        self.border = sp.csr_matrix(q_space.integral_vector()[:, None])
        super().__init__(space, sp.bmat([[self.mass_free, self.div_free.T, None],
                                         [self.div_free, None, self.border],
                                         [None, self.border.T, None]], format="csc"),
                         "saddle")

    def lift(self, rhs_free):
        rhs = np.zeros(self.matrix.shape[0])
        rhs[:self.n_free] = rhs_free
        return rhs

    def velocity(self, z):
        return z[:self.n_free]


def build_saddle(space, q_space, mass=None, div=None):
    """Assemble and factorize the bordered KKT projection system."""
    return SaddleSystem(space, q_space, mass=mass, div=div)


# -- the stream-function systems ------------------------------------------------------

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
    reference mass of components a and b (``ref_tables(order)["mass"]``, the
    tables ``forms.apply_mass`` applies M with), so K_c combines the four
    reference matrices C_loc^T R_ab C_loc."""
    c_loc = _curl_reference(space.k)
    ref = c_loc.T @ space.ref_tables(forms.default_cell_order(space.k))["mass"] @ c_loc
    loc = np.einsum("c,cab,abmn->cmn", space.mesh.cell_detj, space.metric, ref)
    rows = np.broadcast_to(cell_nodes[:, :, None], loc.shape)
    cols = np.broadcast_to(cell_nodes[:, None, :], loc.shape)
    keep = (rows >= 0) & (cols >= 0)
    return sp.csc_matrix((loc[keep], (rows[keep], cols[keep])),
                         shape=(n_nodes, n_nodes))


class StreamFunctionProjection(_FactorizedSystem):
    """The divergence-free L2 projection u = C K^{-1} C^T r through the
    stream function: K is the SPD P_{k+1} stiffness on the interior nodes,
    factorized once with a symmetric ordering and no pivoting; no velocity
    mass or SIP matrix is assembled; the viscous steps read the SIP form of
    ``params``.

    The mesh must be simply connected (connected, with V - E + C = 1): a
    hole would leave harmonic divergence-free fields out of range(C), and
    the projection would be wrong with zero divergence."""

    def __init__(self, space, params=None):
        _check_simply_connected(space.mesh)
        self.params = (params or forms.FormParams()).resolve(space.k)
        self.cell_nodes, n_nodes = _stream_nodes(space)
        self.curl = _discrete_curl(space, self.cell_nodes, n_nodes)
        self.curl_t = self.curl.T.tocsr()
        super().__init__(space, _stiffness(space, self.cell_nodes, n_nodes),
                         "stream-function", permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))

    @cached_property
    def basis(self):
        """The stream-function basis phi @ C_loc of the interior nodes, built
        on first use: psi_loc = psi[cell_nodes], the boundary nodes read as 0."""
        inner = self.cell_nodes.T >= 0
        return LocalBasis(np.where(inner, self.cell_nodes.T, 0), inner.astype(float),
                          self.matrix.shape[0], _curl_reference(self.space.k))

    @cached_property
    def pattern(self):
        """``forms.block_pattern`` on the stream nodes, the pattern of the CN
        operator and of C^T A C, as CSC indices and indptr, with K on it."""
        n, k = self.matrix.shape[0], self.matrix.tocoo()
        keys, slots = forms.block_pattern(self.space.mesh, self.cell_nodes, n)
        return (keys % n, np.searchsorted(keys // n, np.arange(n + 1)), slots,
                np.bincount(np.searchsorted(keys, k.col * n + k.row), k.data, len(keys)))

    def on_pattern(self, blocks):
        """The CSC matrix on ``pattern`` summing ``blocks`` in one bincount."""
        indices, indptr, slots, _ = self.pattern
        data = np.bincount(slots, np.concatenate([b.ravel() for b, _, _ in blocks]),
                           len(indices) + 1)[:-1]
        return sp.csc_matrix((data, indices, indptr), shape=self.matrix.shape)

    @cached_property
    def reduced_sip(self):
        """C^T A C, the SIP matrix on the stream-function nodes: the SIP
        blocks in the basis phi @ C_loc on ``pattern``; built on first use."""
        return self.on_pattern(forms.sip_blocks(self.space, self.params, self.basis.coeffs))

    @cached_property
    def reduced_cn(self):
        """The convection tables in the basis phi @ C_loc, built on the first CN step."""
        return forms.convection_tables(self.space, _curl_reference(self.space.k))

    def cn_matrix(self, advect, tau, theta, nu):
        """K/tau + theta C^T C(a) C + theta nu C^T A C, in CSC: the signed
        local coefficients of C psi are C_loc psi_loc on every cell, so C^T
        C(a) C sums the convection blocks in the basis phi @ C_loc."""
        stiffness = self.pattern[3]  # built before the first blocks: a lower peak memory
        matrix = self.on_pattern(forms.convection_blocks(self.space, advect, self.reduced_cn))
        matrix.data = stiffness / tau + theta * matrix.data
        if nu > 0:
            matrix.data += theta * nu * self.reduced_sip.data
        matrix.eliminate_zeros()  # the cross blocks of outflow sides
        return matrix


class CNSystem(_FactorizedSystem):
    """Factorized semi-implicit step operator (1/tau) M + theta C(a) + theta nu A
    on the divergence-free velocities, reduced by the stream-function
    ``projection`` to C^T (...) C on its fixed pattern.

    Refreshed every step because the linearized convection C(a) depends on
    the advecting field ``advect``.  Factorized with a symmetric ordering
    and threshold pivoting, since the pattern is symmetric but the operator
    is not.  A viscous step needs a projection built with viscous params.
    """

    def __init__(self, projection, advect, tau, nu=0.0, theta=0.5):
        if not isinstance(projection, StreamFunctionProjection):
            raise TypeError(f"a CN step is built on the stream-function projection, "
                            f"not on {type(projection).__name__}")
        if tau <= 0:
            raise ValueError("time step must be positive")
        if nu > 0 and projection.params.nu == 0:
            raise ValueError("viscous CN step needs a projection built with nu > 0")
        self.curl, self.curl_t = projection.curl, projection.curl_t
        super().__init__(projection.space, projection.cn_matrix(advect, tau, theta, nu),
                         "CN", permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1,
                         options=dict(SymmetricMode=True))


def project_div_free(system, rhs):
    """The velocity that solves ``system`` for the functional ``rhs`` over
    the free velocity DOFs: for a projection the u in the divergence-free
    subspace with (u, v) = rhs(v), for a CNSystem the step's new velocity.
    Either is divergence-free by construction.  Non-finite input raises
    BlowUpSignal.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (system.n_free,):
        raise ValueError(f"rhs has shape {rhs.shape}, not the {system.n_free} free DOFs")
    if not np.all(np.isfinite(rhs)):
        raise BlowUpSignal(message="non-finite right-hand side")
    return system.expand(system.solve(rhs))


# One semi-implicit step solve: the same body under a second name, so the
# benchmark's tracer times projections and CN solves apart.
cn_solve = project_div_free


__all__ = [
    "StreamFunctionProjection", "SaddleSystem", "CNSystem", "build_saddle",
    "project_div_free", "cn_solve", "BlowUpSignal",
]
