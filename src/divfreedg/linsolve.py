"""The divergence-free L2 projection and the semi-implicit step systems.

On a simply connected domain the discrete de Rham sequence

    P_{k+1} ∩ H^1_0  --curl-->  RT_k,0  --div-->  P_k^disc / R

is exact, so the exactly divergence-free velocities are the curls C psi of
continuous P_{k+1} stream functions that vanish on the boundary (Arnold,
Falk and Winther, Acta Numerica 2006; Girault and Raviart 1986).  The
projection of a functional r is then u = C K^{-1} C^T r, where K = C^T M C
is the P_{k+1} stiffness matrix on the interior nodes: symmetric positive
definite, assembled cell by cell from the reference mass tables in the
stream-function ``LocalBasis`` (boundary nodes of sign 0), with no velocity
mass matrix, and factorized once per mesh and degree, in one-column panels
(``_LU_PANELS``).  C is assembled from the nonzeros of C_loc alone.  B C = 0
holds identically, so the divergence vanishes by construction.  The
semi-implicit CN operator C^T (M/tau + theta C(a) + theta nu A) C is
assembled directly on the stream nodes, on a pattern fixed per mesh, and
factorized every step in one column ordering computed once per mesh from
that pattern alone (``StreamFunctionProjection.cn_order``).  Runs solve
only these two systems, each with a right-hand side on the interior nodes
and psi there as its result: the steps advance psi itself, and
``StreamFunctionProjection.velocity`` alone turns C psi into a velocity.

The bordered KKT system [[M, B^T, 0], [B, 0, c], [0, c^T, 0]], with one
zero-mean border row c for the broken multiplier, gives the same
projection on any connected mesh.  It stays only as the oracle the tests
compare with; no run builds it.  Its ``solve`` takes a functional on the
free velocity DOFs and returns the velocity.
"""

import time
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import spilu, splu

from . import forms
from .fe_space import CoefVec, LocalBasis, _curl_reference


class BlowUpSignal(Exception):
    """Non-finite or runaway state.  Reportable data, not a solver failure."""

    def __init__(self, step=None, message=None):
        super().__init__(message or f"blow-up detected at step {step}")
        self.step = step


class _FactorizedSystem:
    """A sparse LU factorization of ``matrix``; ``solve`` solves on its
    unknowns, a right-hand side of length ``n_free``."""

    def __init__(self, matrix, label, **options):
        self.matrix = matrix
        self.factorize(matrix, label, **options)

    def factorize(self, matrix, label, **options):
        self.n_free = matrix.shape[0]
        started = time.perf_counter()
        try:
            self.lu = splu(matrix.tocsc(), **options)
        except RuntimeError as exc:
            raise RuntimeError(f"{label} factorization failed: {exc}") from exc
        self.factor_s = time.perf_counter() - started
        self.fill = self.lu.nnz  # stored entries of L and U; reading L or U would copy them

    def solve(self, rhs):
        return self.lu.solve(rhs)

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

class SaddleSystem(_FactorizedSystem):
    """Factorized mass/divergence saddle operator for the L2 projection,
    whose unknowns are the free velocity DOFs, then the multipliers and the
    border's.  Its ``solve`` takes a functional on the free velocity DOFs
    (``lift``) and returns the velocity (``expand``).  The mesh must be
    connected."""

    def __init__(self, space, q_space, mass=None, div=None):
        _check_connected(space.mesh)
        self.space = space
        self.free = space.free_dofs
        self.mass = mass if mass is not None else forms.assemble_mass(space)
        div = div if div is not None else forms.assemble_div(space, q_space)
        self.mass_free = self.mass[self.free][:, self.free].tocsr()
        self.div_free = div[:, self.free].tocsr()
        self.border = sp.csr_matrix(q_space.integral_vector()[:, None])
        super().__init__(sp.bmat([[self.mass_free, self.div_free.T, None],
                                  [self.div_free, None, self.border],
                                  [None, self.border.T, None]], format="csc"), "saddle")
        self.n_free = len(self.free)

    def lift(self, rhs_free):
        rhs = np.zeros(self.matrix.shape[0])
        rhs[:self.n_free] = rhs_free
        return rhs

    def expand(self, z):
        full = np.zeros(self.space.n_dofs)
        full[self.free] = z[:self.n_free]
        return CoefVec(self.space, full)

    def solve(self, rhs_free):
        return self.expand(self.lu.solve(self.lift(rhs_free)))


def build_saddle(space, q_space, mass=None, div=None):
    """Assemble and factorize the bordered KKT projection system."""
    return SaddleSystem(space, q_space, mass=mass, div=div)


# -- the stream-function systems ------------------------------------------------------

def _stream_basis(space):
    """The stream-function basis phi @ C_loc of the interior P_{k+1} nodes:
    the boundary nodes have sign 0, and its functions, curls of P_{k+1},
    have degree k.

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
    nodes = index[nodes].T
    return LocalBasis(np.where(nodes >= 0, nodes, 0), (nodes >= 0).astype(float),
                      np.count_nonzero(~on_boundary), _curl_reference(k), k)


def _discrete_curl(space, basis):
    """C on the free velocity DOFs from the nonzeros of C_loc, the block from the
    stream ``basis`` to the RT_k basis on every cell.  An interior edge's plus cell
    sets its DOFs; the minus cell's slots and the wall DOFs have sign 0."""
    mesh, rt, wall = space.mesh, space.basis, space.is_boundary_dof
    nc, ne = mesh.n_cells, space.ref.n_edge_moments
    owner = ~wall[rt.dofs]
    owner[:3 * ne] &= np.repeat(mesh.facet_plus[mesh.cell_facets] == np.arange(nc)[:, None],
                                ne, axis=1).T
    owned = LocalBasis(np.where(owner, np.cumsum(~wall)[rt.dofs] - 1, 0), rt.signs * owner,
                       len(space.free_dofs), rt.coeffs, rt.degree)
    return basis.assemble([(basis.coeffs, slice(None), slice(None))], test=owned).tocsr()


def _stiffness(space, basis):
    """K = C^T M C assembled cell by cell as K_c = C_loc^T M_c C_loc, with
    the compact P_{k+1} stencil.  On an affine cell M_c = det J sum_ab G_ab
    R_ab, where G = J^T J / det J^2 is the cell metric and R_ab the
    reference mass of components a and b (``ref_tables(order)["mass"]``, the
    tables ``forms.apply_mass`` applies M with), so K_c combines the four
    reference matrices C_loc^T R_ab C_loc."""
    c_loc = basis.coeffs
    ref = c_loc.T @ space.ref_tables(forms.default_cell_order(space.k))["mass"] @ c_loc
    loc = np.einsum("c,cab,abmn->cmn", space.mesh.cell_detj, space.metric, ref)
    return basis.assemble([(loc, slice(None), slice(None))]).tocsc()


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
        self.space = space
        self.basis = _stream_basis(space)
        started = time.perf_counter()
        self.curl = _discrete_curl(space, self.basis)
        self.curl_t = self.curl.T.tocsr()
        stiffness = _stiffness(space, self.basis)
        self.assemble_s = time.perf_counter() - started
        super().__init__(stiffness, "stream-function", permc_spec="MMD_AT_PLUS_A",
                         diag_pivot_thresh=0.0, **_LU_PANELS)

    def stats(self):
        """The factorization's stats and the seconds that assembled C and K."""
        return dict(super().stats(), assemble_s=self.assemble_s)

    def velocity(self, psi):
        """The divergence-free velocity C psi of the node values ``psi``."""
        full = np.zeros(self.space.n_dofs)
        full[self.space.free_dofs] = self.curl @ psi
        return CoefVec(self.space, full)

    @cached_property
    def pattern(self):
        """``forms.block_pattern`` on the stream nodes, the pattern of the CN
        operator and of C^T A C, as CSC indices and indptr, with K on it."""
        n, k = self.matrix.shape[0], self.matrix.tocoo()
        keys, slots = forms.block_pattern(self.space.mesh, self.basis)
        return (keys % n, np.searchsorted(keys // n, np.arange(n + 1)), slots,
                np.bincount(np.searchsorted(keys, k.col * n + k.row), k.data, len(keys)))

    @cached_property
    def cn_order(self):
        """The column ordering of the CN operator and ``pattern`` renumbered
        in it, built on the first CN step: ``order``, with the permuted
        operator B[i, j] = A[order[i], order[j]], ``take``, with B.data =
        A.data[take], and B's CSC indices and indptr.

        The ordering is SuperLU's minimum degree on A^T + A with the
        postorder of its elimination tree, both structural, so it depends on
        the pattern alone.  It is read from an incomplete factorization that
        drops every entry, of K on the upper triangle of the pattern, which
        spans the same A^T + A: that costs little more than the ordering,
        and every CN step of every run then factorizes B in its natural
        order.  ``order`` is the inverse of that ``perm_c``; ``perm_c``
        itself gave 6.5 to 15 times the fill."""
        indices, indptr, _, stiffness = self.pattern
        n = len(indptr) - 1
        cols = np.repeat(np.arange(n), np.diff(indptr))
        upper = indices <= cols
        probe = spilu(sp.csc_matrix((stiffness[upper], indices[upper],
                                     np.concatenate([[0], np.cumsum(upper)])[indptr]),
                                    shape=(n, n)),
                      permc_spec="MMD_AT_PLUS_A", drop_tol=np.inf, fill_factor=1, **_CN_LU)
        position = probe.perm_c.astype(np.intp)  # its keys reach n^2
        order = np.empty(n, dtype=np.intp)
        order[position] = np.arange(n)
        keys = position[cols] * n + position[indices]
        take = np.argsort(keys)
        keys = keys[take]
        tables = (order, take, (keys % n).astype(np.int32),
                  np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32))
        for table in tables:  # shared by every run: a step that wrote to them raises
            table.flags.writeable = False
        return tables

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
        return forms.convection_tables(self.space, self.basis)

    def cn_matrix(self, advect, tau, theta):
        """K/tau + theta C^T C(a) C + theta nu C^T A C, with the nu of
        ``params``, in CSC on the whole
        of ``pattern``, the zero cross blocks of outflow sides included: the
        signed local coefficients of C psi are C_loc psi_loc on every cell,
        so C^T C(a) C sums the convection blocks in the basis phi @ C_loc."""
        stiffness = self.pattern[3]  # built before the first blocks: a lower peak memory
        matrix = self.on_pattern(forms.convection_blocks(self.space, advect, self.reduced_cn))
        matrix.data = stiffness / tau + theta * matrix.data
        if self.params.nu > 0:
            matrix.data += theta * self.params.nu * self.reduced_sip.data
        return matrix


# SuperLU's options for K and the CN operator, on symmetric patterns: panels of
# one column without relaxed supernodes factorized K 10-25% and the CN operator
# 5-10% faster, at the same fill.  CN adds pivoting that prefers the diagonal.
_LU_PANELS = dict(relax=1, panel_size=1, options=dict(SymmetricMode=True))
_CN_LU = dict(diag_pivot_thresh=0.1, **_LU_PANELS)


def _without_zeros(data, indices, indptr, shape):
    """The CSC matrix of ``data`` on a pattern without its zero entries;
    the pattern's index arrays are copied, never compacted in place."""
    matrix = sp.csc_matrix((data, indices.copy(), indptr.copy()), shape=shape)
    matrix.eliminate_zeros()  # the cross blocks of outflow sides
    return matrix


class CNSystem(_FactorizedSystem):
    """Factorized semi-implicit step operator (1/tau) M + theta C(a) + theta nu A
    on the divergence-free velocities, reduced by the stream-function
    ``projection`` to C^T (...) C on its fixed pattern: its unknowns are
    the projection's interior nodes.

    Refreshed every step because the linearized convection C(a) depends on
    the advecting field ``advect``.  The column ordering is not: it is
    computed once per projection from the pattern alone
    (``StreamFunctionProjection.cn_order``), and each step factorizes the
    operator renumbered in it, in its natural order, with threshold
    pivoting, since the pattern is symmetric but the operator is not.
    ``matrix`` stays in the node numbering; ``solve`` permutes the
    right-hand side and the solution.  The viscosity is that of the
    projection's params.
    """

    def __init__(self, projection, advect, tau, theta=0.5):
        if not isinstance(projection, StreamFunctionProjection):
            raise TypeError(f"a CN step is built on the stream-function projection, "
                            f"not on {type(projection).__name__}")
        if tau <= 0:
            raise ValueError("time step must be positive")
        self.full = projection.cn_matrix(advect, tau, theta)
        self.order, take, indices, indptr = projection.cn_order
        self.factorize(_without_zeros(self.full.data[take], indices, indptr, self.full.shape),
                       "CN", permc_spec="NATURAL", **_CN_LU)

    @cached_property
    def matrix(self):
        """The operator in the node numbering, without its zero entries;
        built on first use, since the steps solve with the factors alone."""
        return _without_zeros(self.full.data, self.full.indices, self.full.indptr,
                              self.full.shape)

    def solve(self, rhs):
        psi = np.empty_like(rhs)
        psi[self.order] = self.lu.solve(rhs[self.order])
        return psi


def project_div_free(system, rhs):
    """``system.solve(rhs)`` once ``rhs`` has the system's length and is
    finite; non-finite input raises BlowUpSignal.  The stream-function
    systems take a right-hand side on the interior nodes and return psi
    there: K psi = C^T r for a projection makes C psi the divergence-free
    projection of the functional r, and a CNSystem gives the step's new
    psi.  The KKT oracle takes r on the free velocity DOFs and returns the
    projected velocity.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (system.n_free,):
        raise ValueError(f"rhs has shape {rhs.shape}, not the {system.n_free} free DOFs")
    if not np.all(np.isfinite(rhs)):
        raise BlowUpSignal(message="non-finite right-hand side")
    return system.solve(rhs)


# One semi-implicit step solve: the same body under a second name, so the
# benchmark's tracer times projections and CN solves apart.
cn_solve = project_div_free


__all__ = [
    "StreamFunctionProjection", "SaddleSystem", "CNSystem", "build_saddle",
    "project_div_free", "cn_solve", "BlowUpSignal",
]
