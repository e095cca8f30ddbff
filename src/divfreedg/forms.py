"""Assembly of the discrete forms: mass, divergence constraint, upwind
convection (residual and linearized matrix), SIP viscosity, loads and the
upwind jump seminorm.

The convection and SIP forms run on per-degree reference tables and on
one-orientation traces on the slots (cell, local edge), with per-cell and
per-slot Jacobian factors; no basis is mapped to physical values.
Convection runs over interior facets only, with tangential traces: every
velocity here is H(div)-conforming (RT_k, or the curl of a continuous
P_{k+1} stream function), so the jump w+ - w- is tangential and the normal
parts of a local block cancel across each facet in the assembled operator
(Cockburn, Kanschat and Schoetzau, J. Sci. Comput. 31, 2007).  Every facet
term runs on the slots, each slot reading its own outward normal and its
partner's traces through ``RTSpace.facet_traces``: the apply and the jump
seminorm on cell-minor coefficients in any ``LocalBasis`` (the RT_k basis,
or the stream-function basis phi @ C_loc), and the linearized convection
and the SIP form as local blocks in one layout (``_layout``: each cell
with itself, each slot with its partner cell).  The blocks are assembled
on the velocity DOFs by ``LocalBasis.assemble``, as the mass and
divergence blocks are, or summed on the stream nodes over a pattern fixed
per mesh (``block_pattern``) with one bincount.  The volume rules of the
convection kernels are the exact ones for the degrees of their arguments
(``_volume_order``); the facet rules are not exact, since the upwind
weight |a . n| is no polynomial.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fe_space import CoefVec, cell_blocks, map_points
from .quadrature import segment_rule


def default_sigma(k):
    return 10.0 * k * k


def default_cell_order(k):
    # sized for the RT_k basis (degree k+1): its mass has degree 2k+2; the
    # kernels on the stream nodes take the exact rules of ``_volume_order``
    return 2 * k + 3


def default_facet_order(k):
    # upwind terms couple two tangential traces of degree k+1 with a . n
    return max(2 * k + 3, 3 * k + 2)


def default_load_order(k):
    # smooth forcing: two extra Gauss points keep the quadrature error of
    # gradient-type loads below the divergence-free projection tolerances
    return 2 * k + 7


def check_finite(params, *names):
    """Reject a non-finite value in the fields ``names`` of ``params``, by name."""
    for name in names:
        value = getattr(params, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")


@dataclass
class FormParams:
    """The SIP penalty sigma and the viscosity nu: with the mesh and k they
    fix the discrete operator, since every form integrates on the one rule
    its code picks for k."""

    sigma: float = None
    nu: float = 0.0

    def resolve(self, k):
        return FormParams(default_sigma(k) if self.sigma is None else self.sigma, self.nu)

    def __post_init__(self):
        check_finite(self, "nu", "sigma")
        if self.nu < 0:
            raise ValueError(f"nu={self.nu} must be nonnegative")
        if self.nu > 0 and self.sigma is not None and self.sigma <= 0:
            raise ValueError(f"sigma={self.sigma} must be positive for viscous runs")


def _values(space, field):
    if isinstance(field, CoefVec):
        if field.space is not space:
            raise ValueError("coefficient vector belongs to a different space")
        return field.values
    field = np.asarray(field, dtype=float)
    if field.shape != (space.n_dofs,):
        raise ValueError("coefficient length does not match the space")
    return field


# -- the volume kernel ------------------------------------------------------------

def _cell_wdet(mesh, rule):
    return rule.weights[None, :] * mesh.cell_detj[:, None]


def _volume_order(space, advect, basis):
    """The volume rule of a convection kernel with a in the basis ``advect``
    and w, v in ``basis``: on an affine cell a . grad w . v has degree
    deg a + 2 deg w - 1, so that rule is exact, capped at
    ``default_cell_order``.  With all three on the stream basis (degree k)
    it is 3k - 1: 4 points instead of 9 at k = 1 and 9 instead of 16 at
    k = 2.  With a in RT_k (degree k+1) and w, v on the stream basis it is
    3k, the same 16-point rule as 2k + 3 at k = 2.  The RT_k basis keeps
    2k + 3, which its test oracles share: exact at k = 1, and at k = 2 for a
    divergence-free a, which lies in [P_k]^2 (degree 3k + 1).  A
    non-solenoidal a at k = 2 (3k + 2) is not exact: with random a and w on
    ``build_structured(6, 0.2, seed=1)`` orders 7 and 8 differ by 23%."""
    return min(advect.degree + 2 * basis.degree - 1, default_cell_order(space.k))


def _volume_tables(space, basis, order):
    """The reference values (2 nq, m), gradients (4 nq, m) and weighted
    values (2 nq, m) of phi @ ``basis.coeffs`` at the volume rule of
    ``order``, rows by component then point; built once per (basis, order)
    and kept on the basis."""
    def build():
        tab = space.ref_tables(order)
        return tuple(t.reshape(tab["nq"], -1, space.n_loc).transpose(1, 0, 2).reshape(t.shape)
                     @ basis.coeffs for t in
                     (tab["val_flat"].T, tab["grad_flat"].T, tab["val_weighted"]))
    return basis.kept(("volume", order), build)


# -- the facet-trace kernel -----------------------------------------------------------
#
# Traces live on the slots (cell, local edge) in facet-point order
# (``RTSpace.facet_traces``), and each slot reads its own: the tangential
# trace t_F . w = g_slot . w_ref and the flux w_q |F| a . n_out through its
# cell's outward normal.  Both sides of a facet read the same edge DOFs, so
# their normal traces agree and the jump is tangential: own side minus the
# ``partner`` side, t_F . (w_own - w_other).  A slot is the upwind side of
# its point when a flows into its cell there: its inflow weight
# max(-w_q |F| a . n_out, 0) times the jump, tested on the slot's own
# traces, is its share of c_h's facet term, and half that times the jump
# again its share of the seminorm; the outflow side's weight is 0.  A wall
# slot is its own partner with g_slot = 0, so it adds nothing.

def _basis_values(space, basis, a, w):
    """The basis a kernel runs in (``space.basis`` when ``basis`` is None)
    and the coefficients of the fields a and w in it (``gather`` checks
    their length)."""
    if basis is None:
        return space.basis, _values(space, a), _values(space, w)
    return basis, np.asarray(a, dtype=float), np.asarray(w, dtype=float)


def _dot(g, t):
    return g[0] * t[0] + g[1] * t[1]


def _upwind_terms(space, basis, a_loc, w_loc):
    """The slot traces ``table`` of phi @ ``basis.coeffs`` and ``g_slot``,
    and on every slot point (3, nq, n_cells) the jump of w and the upwind
    term, the inflow weight times the jump.  The basis keeps ``table`` and
    the normal traces with the rule's weights folded in, built on first
    use per facet rule."""
    order = default_facet_order(space.k)
    ft = space.facet_traces(order)
    table, normal = basis.kept(("slots", order), lambda: (
        ft["table"] @ basis.coeffs, np.tile(ft["weights"], (3, 1)) * ft["normal"] @ basis.coeffs))
    g = ft["g_slot"]
    own = _dot(g, (table @ w_loc).reshape(2, 3, -1, w_loc.shape[1]))
    jump = np.take(own, ft["partner"]).reshape(own.shape)
    np.subtract(own, jump, out=jump)
    flux = normal @ a_loc
    upwind = np.maximum(-flux, 0.0, out=flux).reshape(jump.shape)
    upwind *= jump
    return table, g, jump, upwind


def _upwind_seminorm(jump, upwind):
    """0.5 sum over the slot points of the upwind term times the jump:
    0.5 sum_F sum_q w_q |F| |a . n_F| [w . t_F]^2, the upwind seminorm."""
    return float(0.5 * np.sum(upwind * jump))


# -- forms ----------------------------------------------------------------------------

def assemble_mass(space):
    """Velocity mass matrix, symmetric positive definite."""
    # The projection's LU fill follows the last bits of M and B through
    # COLAMD, so these two keep their physical-value arithmetic.
    tab = space.ref_tables(default_cell_order(space.k))
    mesh = space.mesh
    val = np.einsum("cab,qib->cqia", mesh.cell_jac, tab["val"], optimize=True)
    val /= mesh.cell_detj[:, None, None, None]
    loc = np.einsum("cqia,cqja,cq->cij", val, val, _cell_wdet(mesh, tab["rule"]),
                    optimize=True)
    return space.basis.assemble([(loc, slice(None), slice(None))]).tocsr()


def apply_mass(space, v):
    """M v without M: on an affine cell M_c = det J sum_ab G_ab R_ab, with
    the cell metric G and the reference mass tables R_ab, so the product is
    four GEMMs on the gathered coefficients and one scatter."""
    tab = space.ref_tables(default_cell_order(space.k))
    loc = space.basis.gather(_values(space, v))
    scale = space.mesh.cell_detj * space.metric
    return space.basis.scatter(sum(scale[a, b] * (tab["mass"][a, b] @ loc)
                                   for a in (0, 1) for b in (0, 1)))


def assemble_div(space, q_space):
    """Constraint matrix with entries (div phi_j, theta_i)."""
    if q_space.k != space.k:
        raise ValueError("multiplier degree must match the velocity degree")
    if q_space.mesh is not space.mesh:
        raise ValueError("spaces live on different meshes")
    tab = space.ref_tables(default_cell_order(space.k))
    mesh = space.mesh
    qv = q_space.eval_ref(tab["rule"].points)
    div = tab["div"][None, :, :] / mesh.cell_detj[:, None, None]
    loc = np.einsum("qi,cqj,cq->cij", qv, div, _cell_wdet(mesh, tab["rule"]),
                    optimize=True)
    return space.basis.assemble([(loc, slice(None), slice(None))], test=q_space.basis).tocsr()


def apply_convection(space, a, w, basis=None, seminorm=False):
    """Residual vector r with r_i = c_h(a, w, phi_i).

    Volume term (a . grad) w . v plus the interior-facet upwind flux terms;
    a must be H(div)-conforming with zero boundary-normal DOFs.  With a
    ``basis`` (a ``LocalBasis``), a, w and r are coefficients in it: for the
    stream-function basis of ``StreamFunctionProjection.basis``, psi_a and
    psi_w give r = C^T c_h(C psi_a, C psi_w, .) on the interior nodes.
    With ``seminorm`` it returns (r, |w|^2_{a,up}), the seminorm formed from
    the apply's own jump and upwind terms, bitwise what ``jump_seminorm``
    returns.

    The volume rule is the exact one for the basis degree
    (``_volume_order``): order 3k - 1 on the stream basis, 2k + 3 on RT_k.
    The facet terms run on the slots (see the facet-trace kernel above):
    one partner gather per apply, and each slot's upwind term tested on its
    own traces in one GEMM, with no scatter.  The facet rule is
    ``default_facet_order``: the upwind weight |a . n| is no polynomial, so
    no facet rule is exact, and moving it by 2 moves the apply by 7-18%.
    """
    basis, av, wv = _basis_values(space, basis, a, w)
    a_loc = basis.gather(av)
    w_loc = a_loc if wv is av else basis.gather(wv)

    # Volume term: with the Piola factors contracted into the cell metric
    # A = J^T J / det^2, the integrand is w_q (Ghat_w ahat)^T A vhat,
    # leaving three dense GEMMs per apply, against the transposed tables in
    # the basis, and pointwise products over rows of length nq * n_cells:
    # the tables' rows run by component, then point, so each component of
    # a GEMM's result is one contiguous block.
    val, grad, val_w = _volume_tables(space, basis, _volume_order(space, basis, basis))
    nq, nc = len(val) // 2, space.mesh.n_cells
    a_hat = (val @ a_loc).reshape(2, -1)
    g_hat = (grad @ w_loc).reshape(2, 2, -1)
    ga = [(g_hat[i, 0] * a_hat[0] + g_hat[i, 1] * a_hat[1]).reshape(nq, nc) for i in (0, 1)]
    A = space.metric
    s = np.empty((2, nq, nc))
    for i in (0, 1):
        np.multiply(A[i, 0], ga[0], out=s[i])
        s[i] += A[i, 1] * ga[1]
    r_loc = val_w.T @ s.reshape(2 * nq, nc)

    # Facets: each slot's upwind term, tested on its own tangential traces
    # through t_F . phi_i = g . phi_ref.
    table, g, jump, upwind = _upwind_terms(space, basis, a_loc, w_loc)
    r_loc += table.T @ (g * upwind).reshape(len(table), nc)
    r = basis.scatter(r_loc)
    return (r, _upwind_seminorm(jump, upwind)) if seminorm else r


def convection_tables(space, basis=None):
    """The tables of ``convection_blocks`` that do not depend on a, as plain
    arrays, in the functions phi @ coeffs of a ``LocalBasis`` (the RT_k
    basis when None): R[(a, b, d, q), (i, j)] = w_q phi_i[a] d_d phi_j[b]
    at the cell rule, and the tangential traces t_F . phi_j at every slot
    point (3 nq n_cells, m), in the flat order of ``RTSpace.facet_traces``
    and 0 on the wall slots, whose g_slot is 0.  a enters
    ``convection_blocks`` as an RT_k vector, so the cell rule is the one
    exact for a in RT_k and w, v in the basis (``_volume_order``: 3k on
    the stream basis); the facet rule is that of ``apply_convection``."""
    basis = space.basis if basis is None else basis
    coeffs, m = basis.coeffs, basis.coeffs.shape[1]
    cell_order = _volume_order(space, space.basis, basis)
    facet_order = default_facet_order(space.k)
    tab, ft = space.ref_tables(cell_order), space.facet_traces(facet_order)
    volume = np.einsum("q,qka,ki,qlbd,lj->abdqij", tab["rule"].weights, tab["val"], coeffs,
                       tab["grad"], coeffs, optimize=True)
    trace = _dot(ft["g_slot"][..., None], (ft["table"] @ coeffs).reshape(2, 3, -1, 1, m))
    return dict(cell_order=cell_order, facet_order=facet_order,
                volume=volume.reshape(8 * tab["nq"], -1), traces=trace.reshape(-1, m))


def _layout(space, cell_blocks, slot_blocks):
    """The one block layout of the convection and SIP forms, (blk, test
    cells, trial cells): each cell with itself, then each slot (local edge,
    cell) with its ``partner_cell``, itself on the wall."""
    cells = np.arange(space.mesh.n_cells)
    partner = space.facet_traces(default_facet_order(space.k))["partner_cell"]
    return [(cell_blocks, cells, cells), (slot_blocks, np.tile(cells, 3), partner.ravel())]


def convection_blocks(space, a, tables):
    """Local blocks blk[:, i, j] = c_h(a, phi_j, phi_i), without cell signs,
    in the basis of ``tables`` (``convection_tables``), in ``_layout``.  The
    volume blocks are one GEMM, F @ R with F[c, (a, b, d, q)] = G_ab(c)
    ahat_d(c, q).  A slot's inflow weight (see the facet-trace kernel) times
    t . phi_i, against t . phi_j of its own cell, joins the cell's block, and
    against -t . phi_j of the partner, gathered through ``partner``, is the
    slot block; a wall slot's traces are 0.  A block lacks the normal part
    (n . phi_j)(n . phi_i) of the full-vector pairing, but every trial
    function here is H(div)-conforming, so those parts cancel across each
    facet in every assembled entry."""
    traces = tables["traces"]
    nc, m = space.mesh.n_cells, traces.shape[1]
    a_loc = space.basis.gather(_values(space, a))
    a_hat = a_loc.T @ space.ref_tables(tables["cell_order"])["val_flat"]
    loc = ((np.moveaxis(space.metric, -1, 0)[..., None, None] * a_hat.reshape(nc, 1, 1, -1, 2)
            .transpose(0, 1, 2, 4, 3)).reshape(nc, -1) @ tables["volume"]).reshape(nc, m, m)

    ft = space.facet_traces(tables["facet_order"])
    inflow = np.maximum(-ft["weights"] * (ft["normal"] @ a_loc).reshape(3, -1, nc), 0.0)
    own, other = (t.reshape(3, -1, nc, m).transpose(0, 2, 1, 3)
                  for t in (traces, np.take(traces, ft["partner"], axis=0)))
    test = (inflow[..., None] * traces.reshape(3, -1, nc, m)).transpose(0, 2, 3, 1)
    loc += np.sum(test @ own, axis=0)
    return _layout(space, loc, np.negative(test @ other).reshape(-1, m, m))


def convection_matrix(space, a):
    """Matrix C with C_ij = c_h(a, phi_j, phi_i), the linearized convection."""
    return space.basis.assemble(convection_blocks(space, a, convection_tables(space))).tocsr()


def block_pattern(space, basis):
    """Sorted column-major keys col * n + row of the n x n matrix summed from
    the blocks of ``convection_blocks`` and ``sip_blocks`` in ``basis`` (n =
    ``basis.size``): every cell with itself and every slot with its partner
    cell (``_layout``); and the slot of every block entry among the keys
    (len(keys) for a function of sign 0, which is dropped)."""
    n, index = basis.size, np.where(basis.signs != 0, basis.dofs, -1).T
    pairs = [np.broadcast_arrays(index[test][:, :, None], index[trial][:, None, :])
             for _, test, trial in _layout(space, None, None)]
    rows, cols = (np.concatenate([p[i].ravel() for p in pairs]) for i in (0, 1))
    # a dropped entry gets the key n * n, which sorts after every kept one
    keys, slots = np.unique(np.where((rows >= 0) & (cols >= 0), cols * n + rows, n * n),
                            return_inverse=True)
    return keys[keys < n * n], slots


def jump_seminorm(space, a, v, basis=None):
    """Squared upwind jump seminorm |v|^2_{a,up} over interior facets, from
    the slot terms of ``apply_convection``; with a ``basis``, a and v are
    coefficients in it, as in ``apply_convection``."""
    basis, av, vv = _basis_values(space, basis, a, v)
    v_loc = basis.gather(vv)
    a_loc = v_loc if vv is av else basis.gather(av)
    return _upwind_seminorm(*_upwind_terms(space, basis, a_loc, v_loc)[2:])


# -- the SIP form ---------------------------------------------------------------------
#
# phi = J phi_ref / det J and grad phi = J G J^{-1} / det J on an affine cell,
# so d . phi = g . phi_ref and d . (grad phi n) = g . G J^{-1} n with
# g = J^T d / det J, for any vector d.  The facet integrand reads the same
# from either side (the jump and the normal both change sign), so each slot
# takes the rows of its own test functions, along its own outward normal.

def _sip_traces(space, sigma, coeffs, points):
    """On the slot points ``points`` (flat indices of ``facet_traces``), in
    rows d = t, n of the slot's outward normal n and t = n rotated by +90
    degrees: the directions (len(points), 2, 2), and the traces X of d . phi_i
    and Y of s d . (grad phi_i n) of phi @ ``coeffs``, s = 1/2 on an interior
    slot (the average) and 1 on the wall, Z = w_q |F| (sigma/|F| X - Y) and
    w_q |F| X, each (len(points), 2, m)."""
    mesh = space.mesh
    rule, val, grad = space.ref.edge_traces(default_facet_order(space.k))
    local, q, cells = np.unravel_index(points, (3, len(rule), mesh.n_cells))
    facets = mesh.cell_facets[cells, local]
    side = np.where(mesh.facet_plus[facets] == cells, 1.0, -1.0)
    normal = side[:, None] * mesh.facet_normal[facets]
    dirs = np.stack([normal @ [[0.0, 1.0], [-1.0, 0.0]], normal], axis=1)
    g = space.piola_transpose(cells[:, None], dirs)
    h = np.einsum("pab,pb->pa", mesh.cell_jac_inv[cells], normal)
    h *= np.where(mesh.facet_minus[facets] < 0, 1.0, 0.5)[:, None]
    x = g @ (np.moveaxis(val, 2, -1) @ coeffs)[local, q]
    y = g @ np.einsum("pabm,pb->pam", (np.moveaxis(grad, 2, -1) @ coeffs)[local, q], h)
    length = mesh.facet_length[facets][:, None, None]
    w = rule.weights[q][:, None, None] * length
    return dirs, x, y, w * (sigma / length * x - y), w * x


def sip_blocks(space, params, coeffs=None):
    """Local blocks blk[:, i, j] = a_h(phi_j, phi_i) of the SIP form of
    phi @ ``coeffs`` (the RT_k basis when None) in ``_layout``.  The volume
    blocks are one GEMM of (J^T J) x (J^{-1} J^{-T}) / det J against sum_q
    w_q G_i[a, c] G_j[b, d].  A slot pairs w_q |F| (sigma/|F| X_i X_j - Y_i
    X_j - X_i Y_j) as [Z, -wX]^T [X, Y] of ``_sip_traces``: its own traces
    join its cell's block, and the partner's own traces at its points, whose
    t and n are the slot's negated, make the slot block (0 on the wall)."""
    coeffs = np.eye(space.n_loc) if coeffs is None else coeffs
    mesh, m = space.mesh, coeffs.shape[1]
    tab = space.ref_tables(default_cell_order(space.k))
    grad = np.moveaxis(tab["grad"], 1, -1) @ coeffs
    ref = np.einsum("q,qacm,qbdn->abcdmn", tab["rule"].weights, grad, grad, optimize=True)
    scale = np.einsum("c,abc,ceg,cfg->cabef", mesh.cell_detj, space.metric,
                      mesh.cell_jac_inv, mesh.cell_jac_inv).reshape(-1, 16)
    loc = (scale @ ref.reshape(16, -1)).reshape(-1, m, m)
    partner = space.facet_traces(default_facet_order(space.k))["partner"]
    _, x, y, z, wx = _sip_traces(space, params.sigma, coeffs, np.arange(len(partner)))
    test, own = np.concatenate([z, -wx], axis=1), np.concatenate([x, y], axis=1)
    across = own[partner]
    across[partner == np.arange(len(partner))] = 0.0
    test, own, across = (t.reshape(3, -1, mesh.n_cells, 4, m).transpose(0, 2, 1, 3, 4)
                         .reshape(3, mesh.n_cells, -1, m) for t in (test, own, across))
    test = test.transpose(0, 1, 3, 2)
    loc += np.sum(test @ own, axis=0)
    return _layout(space, loc, (test @ across).reshape(-1, m, m))


def assemble_sip(space, params=None):
    """Symmetric interior penalty matrix for the vector Laplacian, scattered
    from ``sip_blocks``; on the boundary it enforces no-slip weakly."""
    params = (params or FormParams()).resolve(space.k)
    if params.sigma <= 0:
        raise ValueError("SIP penalty sigma must be positive")
    return space.basis.assemble(sip_blocks(space, params)).tocsr()


def assemble_sip_boundary_load(space, g, params=None):
    """Right-hand-side functional of the SIP form for inhomogeneous Dirichlet
    data g on the boundary:

        r_i = sum_{F on boundary} int_F [ -g . (grad phi_i n_F)
                                          + (sigma/h_F) g . phi_i ] ds

    Pairs with assemble_sip so manufactured boundary velocities enter the
    viscous scheme consistently: r = Z^T (d . g) over the rows d of
    ``_sip_traces`` on the wall slots' points.
    """
    params = (params or FormParams()).resolve(space.k)
    mesh, order = space.mesh, default_facet_order(space.k)
    rule, partner = segment_rule(order), space.facet_traces(order)["partner"]
    wall = np.flatnonzero(partner == np.arange(len(partner)))
    local, q, cells = np.unravel_index(wall, (3, len(rule), mesh.n_cells))
    ref = space.ref.edge_points(rule.points)[local, q]
    pts = mesh.vertices[mesh.cells[cells, 0]] + np.einsum("pab,pb->pa", mesh.cell_jac[cells], ref)
    gv = np.asarray(g(pts[:, 0], pts[:, 1]), dtype=float)
    dirs, _, _, z, _ = _sip_traces(space, params.sigma, np.eye(space.n_loc), wall)
    return space.basis.scatter(np.einsum("pdi,pda,pa->ip", z, dirs, gv), cells)


def assemble_load(space, f):
    """Load vector with entries (f, phi_i) for a pointwise-evaluable f: the
    local loads (n_loc, n_cells) are filled block by block of
    ``cell_blocks`` and scattered once."""
    tab = space.ref_tables(default_load_order(space.k))
    mesh, rule = space.mesh, tab["rule"]
    loc = np.empty((space.n_loc, mesh.n_cells))
    for cells in cell_blocks(mesh, rule):
        fv = np.asarray(f(*map_points(mesh, cells, rule)), dtype=float)
        s = mesh.cell_detj[cells, None, None] * space.piola_transpose((cells, None), fv)
        loc[:, cells] = (s.reshape(len(s), -1) @ tab["val_weighted"]).T
    return space.basis.scatter(loc)


def divergence_l2_norm(space, coeffs):
    """L2 norm of div u_h by direct quadrature, independent of the discrete
    curl and of any divergence matrix: the per-record audit and the final
    ``div_err``.  div u_h = div_ref u_loc / det J, one GEMM against the
    ``div`` table, is in P_k, so the rule of order 2k is exact for its square."""
    tab = space.ref_tables(2 * space.k)
    dv = (tab["div"] @ space.basis.gather(_values(space, coeffs))) / space.mesh.cell_detj
    return float(np.sqrt(np.sum(_cell_wdet(space.mesh, tab["rule"]).T * dv ** 2)))


__all__ = [
    "FormParams", "assemble_mass", "apply_mass", "assemble_div", "apply_convection",
    "convection_tables", "convection_blocks", "convection_matrix", "block_pattern",
    "sip_blocks", "assemble_sip", "assemble_sip_boundary_load",
    "assemble_load", "jump_seminorm", "divergence_l2_norm", "check_finite",
    "default_sigma", "default_cell_order", "default_facet_order",
    "default_load_order",
]
