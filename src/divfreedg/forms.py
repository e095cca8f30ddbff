"""Assembly of the discrete forms: mass, divergence constraint, upwind
convection (residual and linearized matrix), SIP viscosity, loads and the
upwind jump seminorm.

The convection and SIP forms run on per-degree reference tables and on
one-orientation traces on the slots (cell, local edge), with per-cell and
per-slot Jacobian factors; no basis is mapped to physical values.
Convection runs over interior facets only, with a . n_F from the plus
side's trace and tangential traces: every velocity here is H(div)-conforming
(RT_k, or the curl of a continuous P_{k+1} stream function), so the jump
w+ - w- is tangential and the normal parts of a local block cancel across
each facet in the assembled operator (Cockburn, Kanschat and Schoetzau,
J. Sci. Comput. 31, 2007).  The apply and the jump seminorm run on
cell-minor coefficients in any ``LocalBasis`` (the RT_k basis, or the
stream-function basis phi @ C_loc).  The linearized convection and the SIP
form are local blocks in one layout (``convection_blocks``, ``sip_blocks``),
scattered as triplets on the velocity DOFs or summed on the stream nodes
over a pattern fixed per mesh (``block_pattern``) with one bincount.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fe_space import CoefVec
from .quadrature import segment_rule


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


# -- the SIP form ---------------------------------------------------------------------
#
# phi = J phi_ref / det J and grad phi = J G J^{-1} / det J on an affine cell,
# so d . phi = g . phi_ref and d . (grad phi n_F) = g . G J^{-1} n_F with
# g = J^T d / det J, for any vector d.

def _sip_traces(space, params, facets, sides, dirs, coeffs):
    """For the vectors d (nf, nd, nq or 1, 2) at the points of ``facets``, in
    rows (d, q) and columns (side, i) over the slots ``sides`` (plus, then
    minus inside): the traces X of d . [phi] and Y of d . {grad phi n_F} of
    phi @ ``coeffs``, Z = w_q |F| (sigma/|F| X - Y) and w_q |F| X."""
    mesh, n, m = space.mesh, len(sides), coeffs.shape[1]
    rule, val, grad = space.ref.edge_traces(params.facet_order)
    val, grad = np.moveaxis(val, 2, -1) @ coeffs, np.moveaxis(grad, 2, -1) @ coeffs
    nq, point = len(rule), np.arange(len(rule))
    x, y = [], []
    for sign, (cells, local) in zip((1.0, -1.0), sides):
        q = np.where(mesh.cell_facet_reversed[cells, local][:, None] == 1, nq - 1 - point, point)
        g = space.piola_transpose(cells[:, None, None], dirs)
        h = np.einsum("fab,fb->fa", mesh.cell_jac_inv[cells], mesh.facet_normal[facets])
        x.append(sign * np.einsum("fdqa,fqam->fdqm", g, val[local[:, None], q]))
        y.append(np.einsum("fdqa,fb,fqabm->fdqm", g, h, grad[local[:, None], q]) / n)
    w = (np.tile(rule.weights, dirs.shape[1]) * mesh.facet_length[facets][:, None])[..., None]
    x, y = (np.concatenate(t, axis=-1).reshape(w.shape[:2] + (n * m,)) for t in (x, y))
    return x, y, w * ((params.sigma / mesh.facet_length[facets])[:, None, None] * x - y), w * x


def sip_blocks(space, params, coeffs=None):
    """Local blocks blk[:, i, j] = a_h(phi_j, phi_i) of the SIP form in the
    layout of ``convection_blocks``, of phi @ ``coeffs`` (the RT_k basis when
    None); a facet's same-side blocks join their cells'.  The volume blocks are
    one GEMM of (J^T J) x (J^{-1} J^{-T}) / det J against sum_q w_q G_i[a, c]
    G_j[b, d]; the facet blocks pair the traces X, Y of ``_sip_traces`` along
    t_F and n_F: sum w_q |F| (sigma/|F| X_i X_j - Y_i X_j - X_i Y_j)."""
    coeffs = np.eye(space.n_loc) if coeffs is None else coeffs
    mesh, m = space.mesh, coeffs.shape[1]
    tab = space.ref_tables(params.cell_order)
    grad = np.moveaxis(tab["grad"], 1, -1) @ coeffs
    ref = np.einsum("q,qacm,qbdn->abcdmn", tab["rule"].weights, grad, grad, optimize=True)
    scale = np.einsum("c,cab,ceg,cfg->cabef", mesh.cell_detj, space.metric,
                      mesh.cell_jac_inv, mesh.cell_jac_inv).reshape(-1, 16)
    loc = (scale @ ref.reshape(16, -1)).reshape(-1, m, m)
    for facets, n in ((mesh.boundary_facets, 1), (mesh.interior_facets, 2)):
        sides, normal = _sides(mesh, facets)[:n], mesh.facet_normal[facets]
        dirs = np.stack([normal @ [[0.0, 1.0], [-1.0, 0.0]], normal], axis=1)[:, :, None]
        x, y, z, wx = _sip_traces(space, params, facets, sides, dirs, coeffs)
        pair = np.concatenate([z, -wx], axis=1).transpose(0, 2, 1) @ np.concatenate([x, y], axis=1)
        for s, (cells, _) in enumerate(sides):
            np.add.at(loc, cells, pair[:, s * m:(s + 1) * m, s * m:(s + 1) * m])
    (plus, _), (minus, _) = sides
    cells = np.arange(mesh.n_cells)
    return [(loc, cells, cells), (pair[:, :m, m:], plus, minus), (pair[:, m:, :m], minus, plus)]


def assemble_sip(space, params=None):
    """Symmetric interior penalty matrix for the vector Laplacian, scattered
    from ``sip_blocks``; on the boundary it enforces no-slip weakly."""
    params = (params or FormParams()).resolve(space.k)
    if params.sigma <= 0:
        raise ValueError("SIP penalty sigma must be positive")
    return _to_csr(space.n_dofs, space.n_dofs,
                   [_blocks(space, *b) for b in sip_blocks(space, params)])


def assemble_sip_boundary_load(space, g, params=None):
    """Right-hand-side functional of the SIP form for inhomogeneous Dirichlet
    data g on the boundary:

        r_i = sum_{F on boundary} int_F [ -g . (grad phi_i n_F)
                                          + (sigma/h_F) g . phi_i ] ds

    Pairs with assemble_sip so manufactured boundary velocities enter the
    viscous scheme consistently; ``_sip_traces`` takes d = g(x_q).
    """
    params = (params or FormParams()).resolve(space.k)
    mesh, bb = space.mesh, space.mesh.boundary_facets
    a, b = np.split(mesh.vertices[mesh.facet_vertices[bb]], 2, axis=1)
    pts = a + segment_rule(params.facet_order).points[:, None] * (b - a)
    gv = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
    sides = _sides(mesh, bb)[:1]
    z = _sip_traces(space, params, bb, sides, gv[:, None], np.eye(space.n_loc))[2]
    return _scatter(space, z.sum(axis=1), sides[0][0])


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
