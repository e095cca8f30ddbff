"""Assembly of the discrete forms: mass, divergence constraint, upwind
convection (residual and linearized matrix), SIP viscosity, loads and the
upwind jump seminorm.

All facet convection terms run over interior facets only, with the
single-valued normal velocity a . n_F, which the shared edge DOFs determine.
Assembly is serial and deterministic: matrices accumulate
per-cell/per-facet contributions into triplets and compress them by summation.
Every convection form reads one facet-trace kernel, with one edge
orientation, a . n_F from the plus side's trace and tangential traces only.
Every velocity here is H(div)-conforming (RT_k, or the curl of a continuous
P_{k+1} stream function), so its normal trace is the same from both sides:
the jump w+ - w- is tangential, and the normal parts of a local block cancel
across each facet in the assembled operator (Cockburn, Kanschat and
Schoetzau, J. Sci. Comput. 31, 2007).  The apply and the jump seminorm run
on cell-minor coefficients in any ``LocalBasis``: the RT_k basis of the
space, or the stream-function basis, whose tables are premultiplied by
C_loc.  The linearized convection is one local-block kernel
(``convection_blocks``) on tables built once per basis
(``convection_tables``): ``convection_matrix`` scatters its blocks as
triplets, and the reduced CN operator sums them into a pattern fixed per
mesh (``block_pattern``) with one bincount over precomputed slots.  Only
the SIP forms read physical edge traces (``_edge_basis``).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fe_space import CoefVec


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
# domain, from its minus slot.  Both sides read the same edge DOFs, so
# w+ . n_F = w- . n_F and the jump is tangential: the apply and the jump
# seminorm read it on cell-minor coefficients (``RTSpace.facet_traces``).

def _sides(mesh, facets):
    return ((mesh.facet_plus[facets], mesh.facet_plus_local[facets]),
            (mesh.facet_minus[facets], mesh.facet_minus_local[facets]))


def _basis_values(space, basis, a, w):
    """The basis a kernel runs in (``space.basis`` when ``basis`` is None)
    and the coefficients of the fields a and w in it (``gather`` checks
    their length)."""
    if basis is None:
        return space.basis, _values(space, a), _values(space, w)
    return basis, np.asarray(a, dtype=float), np.asarray(w, dtype=float)


def _dot(g, t):
    return g[0] * t[0] + g[1] * t[1]


def _jump_and_flux(ft, table, a_loc, w_loc):
    """The tangential jump (w+ - w-) . t_F and w_q |F| a . n_F at the points
    (nq, nfi) of the interior facets, from the slot traces ``table`` @ loc
    (2, 3 * nq * n_cells) of the cell-local coefficients.  Both sides read
    the same edge DOFs, so the plus side gives the normal trace."""
    trace = (table @ w_loc).reshape(2, -1)
    plus, minus = (np.take(trace, ft[side], axis=1) for side in ("plus", "minus"))
    plus_a = plus if a_loc is w_loc else \
        np.take((table @ a_loc).reshape(2, -1), ft["plus"], axis=1)
    return (_dot(ft["g_plus"], plus) - _dot(ft["g_minus"], minus),
            ft["weights"] * _dot(ft["n_plus"], plus_a))


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


def apply_mass(space, v, order=None):
    """M v without M: on an affine cell M_c = det J sum_ab G_ab R_ab, with
    the cell metric G and the reference mass tables R_ab, so the product is
    four GEMMs on the gathered coefficients and one scatter."""
    tab = space.ref_tables(order or default_cell_order(space.k))
    loc = space.basis.gather(_values(space, v))
    scale = space.mesh.cell_detj * space.metric.transpose(1, 2, 0)
    return space.basis.scatter(sum(scale[a, b] * (tab["mass"][a, b] @ loc)
                                   for a in (0, 1) for b in (0, 1)))


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


def _upwind_weights(an):
    # 0.5 (|an| - an) and -0.5 (|an| + an), in two passes
    return np.maximum(-an, 0.0), np.minimum(-an, 0.0)


def apply_convection(space, a, w, cell_order=None, facet_order=None, basis=None):
    """Residual vector r with r_i = c_h(a, w, phi_i).

    Volume term (a . grad) w . v plus the interior-facet upwind flux terms;
    a must be H(div)-conforming with zero boundary-normal DOFs.  With a
    ``basis`` (a ``LocalBasis``), a, w and r are coefficients in it: for the
    stream-function basis of ``StreamFunctionProjection.basis``, psi_a and
    psi_w give r = C^T c_h(C psi_a, C psi_w, .) on the interior nodes.
    """
    basis, av, wv = _basis_values(space, basis, a, w)
    if cell_order is None:
        cell_order = default_cell_order(space.k)
    if facet_order is None:
        facet_order = default_facet_order(space.k)
    ft = space.facet_traces(facet_order)
    tab = space.ref_tables(cell_order)
    a_loc = basis.gather(av)
    w_loc = a_loc if wv is av else basis.gather(wv)

    # Volume term: with the Piola factors contracted into the cell metric
    # A = J^T J / det^2, the integrand is w_q (Ghat_w ahat)^T A vhat,
    # leaving three dense GEMMs per apply, against the transposed tables in
    # the basis, and pointwise products over rows of length nq * n_cells:
    # the tables' rows run by component, then point, so each component of
    # a GEMM's result is one contiguous block.
    nq, nc = tab["nq"], space.mesh.n_cells
    val, grad, val_w = (t.reshape(nq, -1, space.n_loc).transpose(1, 0, 2).reshape(t.shape)
                        @ basis.coeffs for t in
                        (tab["val_flat"].T, tab["grad_flat"].T, tab["val_weighted"]))
    a_hat = (val @ a_loc).reshape(2, -1)
    g_hat = (grad @ w_loc).reshape(2, 2, -1)
    ga = [(g_hat[i, 0] * a_hat[0] + g_hat[i, 1] * a_hat[1]).reshape(nq, nc) for i in (0, 1)]
    A = np.ascontiguousarray(np.moveaxis(space.metric, 0, -1))
    s = np.empty((2, nq, nc))
    for i in (0, 1):
        np.multiply(A[i, 0], ga[0], out=s[i])
        s[i] += A[i, 1] * ga[1]
    r_loc = val_w.T @ s.reshape(2 * nq, nc)

    # Facets: the upwind weight times the tangential jump, tested on both
    # sides of every interior facet through t_F . phi_i = g . phi_ref.
    table = ft["table"] @ basis.coeffs
    jump, flux = _jump_and_flux(ft, table, a_loc, w_loc)
    s = np.zeros((len(table), nc))
    for side, weight in zip(("plus", "minus"), _upwind_weights(flux)):
        upwind = weight * jump
        for comp, rows in enumerate(s.reshape(2, -1)):
            rows[ft[side]] = ft["g_" + side][comp] * upwind
    r_loc += table.T @ s
    return basis.scatter(r_loc)


def convection_tables(space, basis=None, cell_order=None, facet_order=None):
    """The tables of ``convection_blocks`` that do not depend on a, as plain
    arrays, in the functions phi @ ``basis`` (phi, the RT_k reference basis,
    when None): R[(a, b, d, q), (i, j)] = w_q phi_i[a] d_d phi_j[b] at the
    cell rule, and t_F . phi_j at the facet points of the plus then the
    minus side of every interior facet (nfi, nq, 2 m)."""
    coeffs = np.eye(space.n_loc) if basis is None else basis
    cell_order = cell_order or default_cell_order(space.k)
    facet_order = facet_order or default_facet_order(space.k)
    tab, ft = space.ref_tables(cell_order), space.facet_traces(facet_order)
    volume = np.einsum("q,qka,ki,qlbd,lj->abdqij", tab["rule"].weights, tab["val"], coeffs,
                       tab["grad"], coeffs, optimize=True)
    trace = (ft["table"] @ coeffs).reshape(2, -1, coeffs.shape[1])
    traces = [_dot(ft["g_" + side][:, :, None, None], trace[:, ft[side].T // space.mesh.n_cells])
              for side in ("plus", "minus")]
    return dict(cell_order=cell_order, facet_order=facet_order,
                volume=volume.reshape(8 * tab["nq"], -1), traces=np.concatenate(traces, axis=2))


def convection_blocks(space, a, tables):
    """Local blocks blk[:, i, j] = c_h(a, phi_j, phi_i), without cell signs,
    as (blk, test cells, trial cells): each cell with itself, then across
    each interior facet plus with minus and minus with plus, in the basis of
    ``tables`` (``convection_tables``).  The volume blocks are one GEMM, F @
    R with F[c, (a, b, d, q)] = G_ab(c) ahat_d(c, q).  The facet blocks pair
    tangential traces, sum_q g_+- (t . phi_j)(t . phi_i) with the upwind
    weights g_+- of a . n_F: a block lacks the normal part (n . phi_j)(n .
    phi_i) of the full-vector pairing, but every trial function here is
    H(div)-conforming, so those parts cancel across each facet in every
    assembled entry."""
    mesh, traces = space.mesh, tables["traces"]
    nc, nfi, nq, m = mesh.n_cells, *traces.shape[:2], traces.shape[2] // 2
    a_loc = space.basis.gather(_values(space, a))
    a_hat = a_loc.T @ space.ref_tables(tables["cell_order"])["val_flat"]
    loc = ((space.metric[:, :, :, None, None] * a_hat.reshape(nc, 1, 1, -1, 2)
            .transpose(0, 1, 2, 4, 3)).reshape(nc, -1) @ tables["volume"]).reshape(nc, m, m)

    # facets: each side's upwind weight times its test traces, against the
    # trial traces [plus | -minus]; the same-side blocks join their cells'
    ft = space.facet_traces(tables["facet_order"])
    upwind = np.stack(_upwind_weights(_jump_and_flux(ft, ft["table"], a_loc, a_loc)[1].T), 2)
    pair = (traces.reshape(nfi, nq, 2, m) * upwind[..., None]).reshape(traces.shape) \
        .transpose(0, 2, 1) @ traces
    pair[:, :, m:] *= -1.0
    plus, minus = _sides(mesh, mesh.interior_facets)
    same = np.zeros((nc, 3, m, m))
    same[plus], same[minus] = pair[:, :m, :m], pair[:, m:, m:]
    return [(loc + same.sum(axis=1), np.arange(nc), np.arange(nc)),
            (pair[:, :m, m:], plus[0], minus[0]), (pair[:, m:, :m], minus[0], plus[0])]


def convection_matrix(space, a, cell_order=None, facet_order=None):
    """Matrix C with C_ij = c_h(a, phi_j, phi_i), the linearized convection."""
    blocks = convection_blocks(space, a, convection_tables(space, None, cell_order, facet_order))
    return _to_csr(space.n_dofs, space.n_dofs, [_blocks(space, *b) for b in blocks])


def block_pattern(mesh, index, n):
    """Sorted column-major keys col * n + row of an n x n matrix summed from
    the blocks of ``convection_blocks`` with rows ``index`` (nc, m; -1 drops
    one), and the slot of every block entry among the keys (len(keys) when
    dropped)."""
    plus, minus = (side[0] for side in _sides(mesh, mesh.interior_facets))
    pairs = [np.broadcast_arrays(test[:, :, None], trial[:, None, :]) for test, trial
             in ((index, index), (index[plus], index[minus]), (index[minus], index[plus]))]
    rows, cols = (np.concatenate([p[i].ravel() for p in pairs]) for i in (0, 1))
    # a dropped entry gets the key n * n, which sorts after every kept one
    keys, slots = np.unique(np.where((rows >= 0) & (cols >= 0), cols * n + rows, n * n),
                            return_inverse=True)
    return keys[keys < n * n], slots


def jump_seminorm(space, a, v, facet_order=None, basis=None):
    """Squared upwind jump seminorm |v|^2_{a,up} over interior facets; with
    a ``basis``, a and v are coefficients in it, as in ``apply_convection``."""
    basis, av, vv = _basis_values(space, basis, a, v)
    if facet_order is None:
        facet_order = default_facet_order(space.k)
    ft = space.facet_traces(facet_order)
    v_loc = basis.gather(vv)
    jump, flux = _jump_and_flux(ft, ft["table"] @ basis.coeffs,
                                v_loc if vv is av else basis.gather(av), v_loc)
    return float(0.5 * np.sum(np.abs(flux) * jump ** 2))


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
    dv = (tab["div"] @ space.basis.gather(cv)) / mesh.cell_detj
    return float(np.sqrt(np.sum(_cell_wdet(mesh, tab["rule"]).T * dv ** 2)))


__all__ = [
    "FormParams", "assemble_mass", "apply_mass", "assemble_div", "apply_convection",
    "convection_matrix", "assemble_sip", "assemble_sip_boundary_load",
    "assemble_load", "jump_seminorm",
    "divergence_l2_norm", "check_finite",
    "default_sigma", "default_cell_order", "default_facet_order",
    "default_load_order",
]
