"""Assembly of the discrete forms: mass, divergence constraint, upwind
convection (residual and linearized matrix), SIP viscosity, loads and the
upwind jump seminorm.

All facet convection terms run over interior facets only; the single-valued
normal velocity a . n_F is read from the shared edge DOFs rather than traced
from either side.  Assembly is serial and deterministic: per-cell/per-facet
contributions are accumulated into triplets and compressed by summation.
One local-block kernel (``convection_blocks``) serves the linearized
convection: ``convection_matrix`` scatters its blocks as triplets, and the
reduced CN operator sums them, in a premultiplied basis, into a pattern
fixed per mesh (``block_pattern``) with one bincount over precomputed slots.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fe_space import CoefVec, _matvec2


def default_sigma(k):
    return 10.0 * k * k


def default_cell_order(k):
    return 2 * k + 3


def default_facet_order(k):
    # upwind terms couple two tangential traces of degree k+1 with a . n
    return max(2 * k + 3, 3 * k + 2)


def default_load_order(k):
    # smooth forcing: two extra Gauss points keep the quadrature error of
    # gradient-type loads below the divergence-free projection tolerances
    return 2 * k + 7


def check_finite(params, *names):
    """Reject a non-finite value in the fields ``names`` of ``params``."""
    for name in names:
        value = getattr(params, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, not {value}")


@dataclass
class FormParams:
    """Penalty, viscosity and quadrature orders for the discrete forms."""

    sigma: float = None
    nu: float = 0.0
    cell_order: int = None
    facet_order: int = None
    load_order: int = None

    def resolve(self, k):
        return FormParams(
            sigma=default_sigma(k) if self.sigma is None else self.sigma,
            nu=self.nu,
            cell_order=default_cell_order(k) if self.cell_order is None else self.cell_order,
            facet_order=default_facet_order(k) if self.facet_order is None else self.facet_order,
            load_order=default_load_order(k) if self.load_order is None else self.load_order,
        )

    def __post_init__(self):
        check_finite(self, "nu", "sigma")
        if self.nu < 0:
            raise ValueError("viscosity must be nonnegative")
        if self.nu > 0 and self.sigma is not None and self.sigma <= 0:
            raise ValueError("SIP penalty sigma must be positive for viscous runs")


def _values(space, field):
    if isinstance(field, CoefVec):
        if field.space is not space:
            raise ValueError("coefficient vector belongs to a different space")
        return field.values
    field = np.asarray(field, dtype=float)
    if field.shape != (space.n_dofs,):
        raise ValueError("coefficient length does not match the space")
    return field


def _local(space, values, cells=slice(None)):
    """Cell-local coefficients of a global vector (the gather)."""
    return values[space.cell_dofs[cells]] * space.cell_signs[cells]


def _scatter(space, r_loc, cells=slice(None)):
    """Global vector summing cell-local vectors (the scatter, transpose of
    the gather)."""
    return np.bincount(space.cell_dofs[cells].ravel(),
                       weights=(r_loc * space.cell_signs[cells]).ravel(),
                       minlength=space.n_dofs)


def _blocks(space, blk, test_cells, trial_cells):
    """COO triplets of local blocks blk[:, i, j] = form(phi_j, phi_i), with
    phi_j on the trial cells and phi_i on the test cells."""
    blk = blk * space.cell_signs[test_cells][:, :, None] \
        * space.cell_signs[trial_cells][:, None, :]
    return (np.broadcast_to(space.cell_dofs[test_cells][:, :, None], blk.shape),
            np.broadcast_to(space.cell_dofs[trial_cells][:, None, :], blk.shape),
            blk)


def _to_csr(n_rows, n_cols, triplets):
    rows, cols, vals = zip(*triplets)
    mat = sp.coo_matrix(
        (np.concatenate([v.ravel() for v in vals]),
         (np.concatenate([r.ravel() for r in rows]),
          np.concatenate([c.ravel() for c in cols]))),
        shape=(n_rows, n_cols),
    )
    return mat.tocsr()


# -- the volume kernel ------------------------------------------------------------

def _cell_wdet(mesh, rule):
    return rule.weights[None, :] * mesh.cell_detj[:, None]


def _test_cells(tab, s):
    """Cell-local vectors sum_q w_q s_q . phi_i(x_q) det J for an integrand
    s (nc, nq, 2) pulled back to the reference frame (s = J^T f for the
    physical integrand f), on the volume reference tables ``tab``."""
    return s.reshape(len(s), -1) @ tab["val_weighted"]


# -- the facet-trace kernel -----------------------------------------------------------
#
# Traces live on the slots (cell, local edge) in facet-point order; facet F
# is seen from its plus slot (facet_plus, facet_plus_local) and, inside the
# domain, from its minus slot.

def _sides(mesh, facets):
    return ((mesh.facet_plus[facets], mesh.facet_plus_local[facets]),
            (mesh.facet_minus[facets], mesh.facet_minus_local[facets]))


def _edge_field(space, tab, loc):
    """Physical traces (nc, 3, nq, 2) of the cell-local fields loc on every
    slot: one GEMM against the edge tables in both orientations, then each
    slot's orientation is picked and Piola-mapped."""
    nc = len(loc)
    ref = (loc @ tab["val_flat"]).reshape(nc, 3, 2, tab["nq"], 2)
    cells = np.arange(nc)[:, None]
    ref = ref[cells, np.arange(3), space.mesh.cell_facet_reversed]
    return space.piola(cells[:, :, None], ref)


def _test_edges(space, tab, s):
    """Cell-local vectors sum over slots and points of s . phi_i for a
    physical integrand s (nc, 3, nq, 2) that carries the quadrature
    weights; the transpose of ``_edge_field``."""
    nc = len(s)
    cells = np.arange(nc)[:, None]
    full = np.zeros((nc, 3, 2, tab["nq"], 2))
    full[cells, np.arange(3), space.mesh.cell_facet_reversed] = \
        space.piola_transpose(cells[:, :, None], s)
    return full.reshape(nc, -1) @ tab["val_flat"].T


def _edge_basis(space, side, val, grad=None):
    """Physical values (nf, nq, m, 2), and with ``grad`` gradients, on the
    slots ``side`` = (cells, local edges) of edge tables (3, 2, nq, m, ...)."""
    cells, local = side
    rev = space.mesh.cell_facet_reversed[cells, local]
    return space.piola(cells[:, None, None], val[local, rev],
                       None if grad is None else grad[local, rev])


def _facet_weights(mesh, tab, facets):
    return tab["rule"].weights[None, :] * mesh.facet_length[facets][:, None]


# -- forms ----------------------------------------------------------------------------

def assemble_mass(space, order=None):
    """Velocity mass matrix, symmetric positive definite."""
    if order is None:
        order = default_cell_order(space.k)
    # The projection's LU fill follows the last bits of M and B through
    # COLAMD, so these two keep their physical-value arithmetic.
    tab = space.ref_tables(order)
    mesh = space.mesh
    val = np.einsum("cab,qib->cqia", mesh.cell_jac, tab["val"], optimize=True)
    val /= mesh.cell_detj[:, None, None, None]
    loc = np.einsum("cqia,cqja,cq->cij", val, val, _cell_wdet(mesh, tab["rule"]),
                    optimize=True)
    cells = slice(None)
    return _to_csr(space.n_dofs, space.n_dofs, [_blocks(space, loc, cells, cells)])


def assemble_div(space, q_space, order=None):
    """Constraint matrix with entries (div phi_j, theta_i)."""
    if q_space.k != space.k:
        raise ValueError("multiplier degree must match the velocity degree")
    if q_space.mesh is not space.mesh:
        raise ValueError("spaces live on different meshes")
    if order is None:
        order = default_cell_order(space.k)
    tab = space.ref_tables(order)
    mesh = space.mesh
    qv = q_space.eval_ref(tab["rule"].points)
    div = tab["div"][None, :, :] / mesh.cell_detj[:, None, None]
    loc = np.einsum("qi,cqj,cq->cij", qv, div, _cell_wdet(mesh, tab["rule"]),
                    optimize=True)
    loc *= space.cell_signs[:, None, :]
    nc = mesh.n_cells
    qdofs = np.arange(nc)[:, None] * q_space.n_loc + np.arange(q_space.n_loc)[None, :]
    rows = np.broadcast_to(qdofs[:, :, None], loc.shape)
    cols = np.broadcast_to(space.cell_dofs[:, None, :], loc.shape)
    return _to_csr(q_space.n_dofs, space.n_dofs, [(rows, cols, loc)])


def _facet_normal_values(space, tab, a_values):
    """a . n_F at the facet quadrature points, from the shared edge DOFs."""
    coeffs = space.normal_trace_coeffs(a_values)
    return coeffs @ tab["legendre"].T  # (nf, nq)


def _upwind_weights(an):
    return 0.5 * (np.abs(an) - an), -0.5 * (np.abs(an) + an)


def apply_convection(space, a, w, cell_order=None, facet_order=None):
    """Residual vector r with r_i = c_h(a, w, phi_i).

    Volume term (a . grad) w . v plus the interior-facet upwind flux terms;
    a must be H(div)-conforming with zero boundary-normal DOFs.
    """
    av = _values(space, a)
    wv = _values(space, w)
    if cell_order is None:
        cell_order = default_cell_order(space.k)
    if facet_order is None:
        facet_order = default_facet_order(space.k)
    mesh = space.mesh
    a_loc = _local(space, av)
    w_loc = _local(space, wv)

    # Volume term: with the Piola factors contracted into the cell metric
    # A = J^T J / det^2, the integrand is w_q (Ghat_w ahat)^T A vhat,
    # leaving three dense GEMMs per apply.
    tab = space.ref_tables(cell_order)
    nq = tab["nq"]
    nc = mesh.n_cells
    a_hat = (a_loc @ tab["val_flat"]).reshape(nc, nq, 2)
    g_hat = (w_loc @ tab["grad_flat"]).reshape(nc, nq, 2, 2)
    r_loc = _test_cells(tab, _matvec2(space.metric[:, None], _matvec2(g_hat, a_hat)))

    # Facets: the upwind weight times the jump w+ - w-, tested on both
    # sides of every interior facet.
    etab = space.edge_tables(facet_order)
    ii = mesh.interior_facets
    gp, gm = _upwind_weights(_facet_normal_values(space, etab, av)[ii])
    wq = _facet_weights(mesh, etab, ii)
    plus, minus = _sides(mesh, ii)
    trace = _edge_field(space, etab, w_loc)
    jump = trace[plus] - trace[minus]
    s = np.zeros_like(trace)
    s[plus] = (wq * gp)[..., None] * jump
    s[minus] = (wq * gm)[..., None] * jump
    r_loc += _test_edges(space, etab, s)
    return _scatter(space, r_loc)


def convection_blocks(space, a, basis=None, cell_order=None, facet_order=None):
    """Local blocks blk[:, i, j] = c_h(a, phi_j, phi_i), without cell signs,
    as (blk, test cells, trial cells): each cell with itself, then across
    each interior facet plus with minus and minus with plus.  The phi are
    the RT_k reference basis, or with ``basis`` (n_loc, m) phi @ basis, for
    which the tables are premultiplied."""
    av = _values(space, a)
    if cell_order is None:
        cell_order = default_cell_order(space.k)
    if facet_order is None:
        facet_order = default_facet_order(space.k)
    mesh = space.mesh
    tab = space.ref_tables(cell_order)
    etab = space.edge_tables(facet_order)
    grad, val_w, edge_val = tab["grad"], tab["val_weighted"], etab["val"]
    if basis is not None:
        grad = np.einsum("qiab,im->qmab", grad, basis)
        val_w = val_w @ basis
        edge_val = np.einsum("erqia,im->erqma", edge_val, basis)
    nc, nq, m = mesh.n_cells, tab["nq"], grad.shape[1]

    # volume: the apply_convection integrand with each trial basis function
    # in place of w, loc[c, i, j] = sum_q w_q (A Ghat_j ahat) . vhat_i
    a_hat = (_local(space, av) @ tab["val_flat"]).reshape(nc, nq, 1, 2)
    s = _matvec2(space.metric[:, None, None], _matvec2(grad, a_hat))
    loc = (s.transpose(0, 2, 1, 3).reshape(nc * m, -1) @ val_w) \
        .reshape(nc, m, m).transpose(0, 2, 1)

    # facets: blocks of the upwind weight times the jump trial, tested on
    # each side; the same-side blocks join the volume blocks of their cells
    ii = mesh.interior_facets
    gp, gm = _upwind_weights(_facet_normal_values(space, etab, av)[ii])
    wq = _facet_weights(mesh, etab, ii)
    plus, minus = _sides(mesh, ii)
    vp, vm = _edge_basis(space, plus, edge_val), _edge_basis(space, minus, edge_val)

    def pair(g, trial, test):
        return np.einsum("fq,fqja,fqia->fij", wq * g, trial, test, optimize=True)

    same = np.zeros((nc, 3, m, m))
    same[plus] = pair(gp, vp, vp)
    same[minus] = -pair(gm, vm, vm)
    return [(loc + same.sum(axis=1), np.arange(nc), np.arange(nc)),
            (-pair(gp, vm, vp), plus[0], minus[0]), (pair(gm, vp, vm), minus[0], plus[0])]


def convection_matrix(space, a, cell_order=None, facet_order=None):
    """Matrix C with C_ij = c_h(a, phi_j, phi_i), the linearized convection."""
    blocks = convection_blocks(space, a, None, cell_order, facet_order)
    return _to_csr(space.n_dofs, space.n_dofs, [_blocks(space, *b) for b in blocks])


def block_pattern(mesh, index, n):
    """Sorted keys row * n + col of an n x n matrix summed from the blocks of
    ``convection_blocks`` with rows ``index`` (nc, m; -1 drops one), and the
    slot of every block entry among the keys (len(keys) when dropped)."""
    plus, minus = (side[0] for side in _sides(mesh, mesh.interior_facets))
    pairs = [np.broadcast_arrays(test[:, :, None], trial[:, None, :]) for test, trial
             in ((index, index), (index[plus], index[minus]), (index[minus], index[plus]))]
    rows, cols = (np.concatenate([p[i].ravel() for p in pairs]) for i in (0, 1))
    # a dropped entry gets the key n * n, which sorts after every kept one
    keys, slots = np.unique(np.where((rows >= 0) & (cols >= 0), rows * n + cols, n * n),
                            return_inverse=True)
    return keys[keys < n * n], slots


def jump_seminorm(space, a, v, facet_order=None):
    """Squared upwind jump seminorm |v|^2_{a,up} over interior facets."""
    av = _values(space, a)
    vv = _values(space, v)
    if facet_order is None:
        facet_order = default_facet_order(space.k)
    mesh = space.mesh
    etab = space.edge_tables(facet_order)
    ii = mesh.interior_facets
    an = _facet_normal_values(space, etab, av)[ii]
    plus, minus = _sides(mesh, ii)
    trace = _edge_field(space, etab, _local(space, vv))
    jump2 = np.sum((trace[plus] - trace[minus]) ** 2, axis=-1)
    return float(np.sum(_facet_weights(mesh, etab, ii) * 0.5 * np.abs(an) * jump2))


def assemble_sip(space, params=None):
    """Symmetric interior penalty matrix for the vector Laplacian.

    Runs over all facets; on the boundary the jump and average reduce to the
    trace itself, enforcing no-slip weakly.
    """
    params = (params or FormParams()).resolve(space.k)
    if params.sigma <= 0:
        raise ValueError("SIP penalty sigma must be positive")
    mesh = space.mesh

    tab = space.ref_tables(params.cell_order)
    cells = np.arange(mesh.n_cells)
    _, grad = space.piola(cells[:, None, None], tab["val"], tab["grad"])
    loc = np.einsum("cqiab,cqjab,cq->cij", grad, grad, _cell_wdet(mesh, tab["rule"]),
                    optimize=True)
    triplets = [_blocks(space, loc, cells, cells)]

    etab = space.edge_tables(params.facet_order)
    penalty = params.sigma / mesh.facet_length
    for facets, two_sided in ((mesh.interior_facets, True),
                              (mesh.boundary_facets, False)):
        if len(facets) == 0:
            continue
        wq = _facet_weights(mesh, etab, facets)
        nrm = mesh.facet_normal[facets]
        pen = penalty[facets]
        avg_w = 0.5 if two_sided else 1.0
        sides = []
        for side, jump_sign in zip(_sides(mesh, facets)[:1 + two_sided], (1.0, -1.0)):
            val, grad = _edge_basis(space, side, etab["val"], etab["grad"])
            sides.append((side[0], val, np.einsum("fqiab,fb->fqia", grad, nrm),
                          jump_sign))
        for tcells, tv, tgn, st in sides:
            for rcells, rv, rgn, sr in sides:
                blk = -avg_w * st * np.einsum("fq,fqja,fqia->fij", wq, rgn, tv,
                                              optimize=True)
                blk += -avg_w * sr * np.einsum("fq,fqja,fqia->fij", wq, rv, tgn,
                                               optimize=True)
                blk += st * sr * np.einsum("f,fq,fqja,fqia->fij", pen, wq, rv, tv,
                                           optimize=True)
                triplets.append(_blocks(space, blk, tcells, rcells))
    return _to_csr(space.n_dofs, space.n_dofs, triplets)


def assemble_sip_boundary_load(space, g, params=None, order=None):
    """Right-hand-side functional of the SIP form for inhomogeneous Dirichlet
    data g on the boundary:

        r_i = sum_{F on boundary} int_F [ -g . (grad phi_i n_F)
                                          + (sigma/h_F) g . phi_i ] ds

    Pairs with assemble_sip so manufactured boundary velocities enter the
    viscous scheme consistently; with g = 0 this is the zero vector.
    """
    params = (params or FormParams()).resolve(space.k)
    if order is None:
        order = params.facet_order
    mesh = space.mesh
    bb = mesh.boundary_facets
    if len(bb) == 0:
        return np.zeros(space.n_dofs)
    etab = space.edge_tables(order)
    a = mesh.vertices[mesh.facet_vertices[bb, 0]]
    b = mesh.vertices[mesh.facet_vertices[bb, 1]]
    pts = a[:, None, :] + etab["rule"].points[None, :, None] * (b - a)[:, None, :]
    gv = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
    wq = _facet_weights(mesh, etab, bb)
    plus = _sides(mesh, bb)[0]
    val, grad = _edge_basis(space, plus, etab["val"], etab["grad"])
    gn = np.einsum("fqiab,fb->fqia", grad, mesh.facet_normal[bb])
    pen = (params.sigma / mesh.facet_length[bb])[:, None]
    r_loc = np.einsum("fq,fqa,fqia->fi", wq, -gv, gn, optimize=True)
    r_loc += np.einsum("fq,fqa,fqia->fi", wq * pen, gv, val, optimize=True)
    return _scatter(space, r_loc, plus[0])


def assemble_load(space, f, order=None):
    """Load vector with entries (f, phi_i) for a pointwise-evaluable f."""
    if order is None:
        order = default_load_order(space.k)
    tab = space.ref_tables(order)
    mesh = space.mesh
    cells = np.arange(mesh.n_cells)[:, None]
    pts = mesh.map_to_physical(cells, tab["rule"].points)
    fv = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    s = mesh.cell_detj[:, None, None] * space.piola_transpose(cells, fv)
    return _scatter(space, _test_cells(tab, s))


def divergence_l2_norm(space, coeffs, order=None):
    """L2 norm of div u_h by direct quadrature: on each cell div u_h is
    div_ref u_loc / det J, one GEMM against the ``div`` table, independent
    of the discrete curl and of any divergence matrix."""
    cv = _values(space, coeffs)
    if order is None:
        order = default_cell_order(space.k)
    tab = space.ref_tables(order)
    mesh = space.mesh
    dv = (_local(space, cv) @ tab["div"].T) / mesh.cell_detj[:, None]
    return float(np.sqrt(np.sum(_cell_wdet(mesh, tab["rule"]) * dv ** 2)))


__all__ = [
    "FormParams", "assemble_mass", "assemble_div", "apply_convection",
    "convection_matrix", "assemble_sip", "assemble_sip_boundary_load",
    "assemble_load", "jump_seminorm",
    "divergence_l2_norm", "check_finite",
    "default_sigma", "default_cell_order", "default_facet_order",
    "default_load_order",
]
