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
(Cockburn, Kanschat and Schoetzau, J. Sci. Comput. 31, 2007).  The apply
and the jump seminorm run on the slots, each reading a . n from its own
outward normal trace, on cell-minor coefficients in any ``LocalBasis``
(the RT_k basis, or the stream-function basis phi @ C_loc); the CN blocks
read a . n_F from the plus side's trace.  The linearized convection and
the SIP form are local blocks in one layout (``convection_blocks``,
``sip_blocks``), assembled on the velocity DOFs by ``LocalBasis.assemble``,
as the mass and divergence blocks are, or summed on the stream nodes over a
pattern fixed per mesh (``block_pattern``) with one bincount.  The volume rules of the
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


def _upwind_weights(an):
    # 0.5 (|an| - an) and -0.5 (|an| + an), in two passes
    return np.maximum(-an, 0.0), np.minimum(-an, 0.0)


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
    at the cell rule, t_F . phi_j at the facet points of the plus then the
    minus side of every interior facet (nfi, nq, 2 m), and for each slot
    (cell, local edge) the index of its same-side facet block among the
    plus blocks, then the minus blocks, then one zero block for the slots
    on the boundary (n_cells, 3).  a enters
    ``convection_blocks`` as an RT_k vector, so the cell rule is the one
    exact for a in RT_k and w, v in the basis (``_volume_order``: 3k on
    the stream basis); the facet rule is that of ``apply_convection``."""
    basis = space.basis if basis is None else basis
    coeffs = basis.coeffs
    cell_order = _volume_order(space, space.basis, basis)
    facet_order = default_facet_order(space.k)
    tab, ft = space.ref_tables(cell_order), space.facet_traces(facet_order)
    volume = np.einsum("q,qka,ki,qlbd,lj->abdqij", tab["rule"].weights, tab["val"], coeffs,
                       tab["grad"], coeffs, optimize=True)
    trace = (ft["table"] @ coeffs).reshape(2, -1, coeffs.shape[1])
    traces = [_dot(ft["g_" + side][:, :, None, None], trace[:, ft[side].T // space.mesh.n_cells])
              for side in ("plus", "minus")]
    mesh = space.mesh
    nfi = len(mesh.interior_facets)
    same_slots = np.full((mesh.n_cells, 3), 2 * nfi)
    for i, side in enumerate(_sides(mesh, mesh.interior_facets)):
        same_slots[side] = np.arange(i * nfi, (i + 1) * nfi)
    return dict(cell_order=cell_order, facet_order=facet_order,
                volume=volume.reshape(8 * tab["nq"], -1), traces=np.concatenate(traces, axis=2),
                same_slots=same_slots)


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
    loc = ((np.moveaxis(space.metric, -1, 0)[..., None, None] * a_hat.reshape(nc, 1, 1, -1, 2)
            .transpose(0, 1, 2, 4, 3)).reshape(nc, -1) @ tables["volume"]).reshape(nc, m, m)

    # facets: each side's upwind weight times its test traces, against the
    # trial traces [plus | -minus]; each cell gathers the same-side blocks
    # of its three slots
    ft = space.facet_traces(tables["facet_order"])
    flux = ft["weights"] * np.take(ft["normal"] @ a_loc, ft["plus"])
    upwind = np.stack(_upwind_weights(flux.T), 2)
    pair = (traces.reshape(nfi, nq, 2, m) * upwind[..., None]).reshape(traces.shape) \
        .transpose(0, 2, 1) @ traces
    pair[:, :, m:] *= -1.0
    same = np.concatenate([pair[:, :m, :m], pair[:, m:, m:], np.zeros((1, m, m))])
    slots = tables["same_slots"]
    gathered = np.take(same, slots[:, 0], axis=0)
    gathered += np.take(same, slots[:, 1], axis=0)
    gathered += np.take(same, slots[:, 2], axis=0)
    plus, minus = (side[0] for side in _sides(mesh, mesh.interior_facets))
    return [(loc + gathered, np.arange(nc), np.arange(nc)),
            (pair[:, :m, m:], plus, minus), (pair[:, m:, :m], minus, plus)]


def convection_matrix(space, a):
    """Matrix C with C_ij = c_h(a, phi_j, phi_i), the linearized convection."""
    return space.basis.assemble(convection_blocks(space, a, convection_tables(space))).tocsr()


def block_pattern(mesh, basis):
    """Sorted column-major keys col * n + row of the n x n matrix summed from
    the blocks of ``convection_blocks`` in ``basis`` (n = ``basis.size``), and
    the slot of every block entry among the keys (len(keys) for a function of
    sign 0, which is dropped)."""
    n, index = basis.size, np.where(basis.signs != 0, basis.dofs, -1).T
    plus, minus = (side[0] for side in _sides(mesh, mesh.interior_facets))
    pairs = [np.broadcast_arrays(test[:, :, None], trial[:, None, :]) for test, trial
             in ((index, index), (index[plus], index[minus]), (index[minus], index[plus]))]
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
# so d . phi = g . phi_ref and d . (grad phi n_F) = g . G J^{-1} n_F with
# g = J^T d / det J, for any vector d.

def _sip_traces(space, sigma, facets, sides, dirs, coeffs):
    """For the vectors d (nf, nd, nq or 1, 2) at the points of ``facets``, in
    rows (d, q) and columns (side, i) over the slots ``sides`` (plus, then
    minus inside): the traces X of d . [phi] and Y of d . {grad phi n_F} of
    phi @ ``coeffs``, Z = w_q |F| (sigma/|F| X - Y) and w_q |F| X."""
    mesh, n, m = space.mesh, len(sides), coeffs.shape[1]
    rule, val, grad = space.ref.edge_traces(default_facet_order(space.k))
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
    return x, y, w * ((sigma / mesh.facet_length[facets])[:, None, None] * x - y), w * x


def sip_blocks(space, params, coeffs=None):
    """Local blocks blk[:, i, j] = a_h(phi_j, phi_i) of the SIP form in the
    layout of ``convection_blocks``, of phi @ ``coeffs`` (the RT_k basis when
    None); a facet's same-side blocks join their cells'.  The volume blocks are
    one GEMM of (J^T J) x (J^{-1} J^{-T}) / det J against sum_q w_q G_i[a, c]
    G_j[b, d]; the facet blocks pair the traces X, Y of ``_sip_traces`` along
    t_F and n_F: sum w_q |F| (sigma/|F| X_i X_j - Y_i X_j - X_i Y_j)."""
    coeffs = np.eye(space.n_loc) if coeffs is None else coeffs
    mesh, m = space.mesh, coeffs.shape[1]
    tab = space.ref_tables(default_cell_order(space.k))
    grad = np.moveaxis(tab["grad"], 1, -1) @ coeffs
    ref = np.einsum("q,qacm,qbdn->abcdmn", tab["rule"].weights, grad, grad, optimize=True)
    scale = np.einsum("c,abc,ceg,cfg->cabef", mesh.cell_detj, space.metric,
                      mesh.cell_jac_inv, mesh.cell_jac_inv).reshape(-1, 16)
    loc = (scale @ ref.reshape(16, -1)).reshape(-1, m, m)
    for facets, n in ((mesh.boundary_facets, 1), (mesh.interior_facets, 2)):
        sides, normal = _sides(mesh, facets)[:n], mesh.facet_normal[facets]
        dirs = np.stack([normal @ [[0.0, 1.0], [-1.0, 0.0]], normal], axis=1)[:, :, None]
        x, y, z, wx = _sip_traces(space, params.sigma, facets, sides, dirs, coeffs)
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
    return space.basis.assemble(sip_blocks(space, params)).tocsr()


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
    pts = a + segment_rule(default_facet_order(space.k)).points[:, None] * (b - a)
    gv = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
    sides = _sides(mesh, bb)[:1]
    z = _sip_traces(space, params.sigma, bb, sides, gv[:, None], np.eye(space.n_loc))[2]
    return space.basis.scatter(z.sum(axis=1).T, sides[0][0])


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
