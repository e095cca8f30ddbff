import functools
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from divfreedg import build_structured, forms, integrators, linsolve
from divfreedg.fe_space import (REF_EDGE_VERTICES, REF_VERTICES, CoefVec, RTSpace,
                                ScalarDGSpace, _matmul2, _matvec2)
from divfreedg.quadrature import segment_rule, triangle_rule


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
        entry["stream"] = linsolve.StreamFunctionProjection(entry["space"])
    return [entry["saddle"], entry["stream"]]


def project_velocity(system, rhs, projection=None):
    """The velocity that ``system`` gives for a functional ``rhs`` on the
    velocity DOFs.  The KKT oracles take it on their free DOFs; a
    stream-function system solves on its lift C^T rhs, which reads no wall
    DOF, and returns C psi, with the curl of ``projection`` for a CNSystem."""
    if isinstance(system, (linsolve.SaddleSystem, BorderedCN)):
        return linsolve.project_div_free(system, rhs[system.free])
    projection = projection or system
    return projection.velocity(
        linsolve.project_div_free(system, projection.curl_t @ rhs))


def loop_assemble(trial, test, blocks):
    """The oracle of ``trial.assemble(blocks, test=test)``: its triplets made
    one cell or cell pair at a time, row-major within a block, from every
    local pair whose two functions have nonzero signs and, in a 2-D block
    shared by every cell, whose entry is nonzero."""
    rows, cols, vals = [], [], []
    n_test, n_trial = test.dofs.shape[1], trial.dofs.shape[1]
    for blk, test_cells, trial_cells in blocks:
        cells = zip(np.arange(n_test)[test_cells], np.arange(n_trial)[trial_cells])
        for c, (ct, cr) in enumerate(cells):
            b = blk if blk.ndim == 2 else blk[c]
            s_i, s_j = test.signs[:, ct], trial.signs[:, cr]
            live = (s_i != 0)[:, None] & (s_j != 0)[None, :]
            i, j = np.nonzero(live & (b != 0) if blk.ndim == 2 else live)
            rows.append(test.dofs[i, ct])
            cols.append(trial.dofs[j, cr])
            vals.append(b[i, j] * s_i[i] * s_j[j])
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(test.size, trial.size))


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
        self.free = free = saddle.free
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
        return self.expand(self.lu.solve(self.lift(rhs_free)))

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
    phys = map_to_physical(mesh, np.arange(mesh.n_cells)[:, None], rule.points)
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


def map_to_physical(mesh, cells, ref_points):
    """Affine map of reference points into the given cells (broadcasts)."""
    return mesh.vertices[mesh.cells[cells, 0]] + np.einsum(
        "...ab,...b->...a", mesh.cell_jac[cells], np.asarray(ref_points, dtype=float))


def map_to_reference(mesh, cells, points):
    """Inverse affine map of physical points into reference coordinates."""
    points = np.asarray(points, dtype=float)
    origin = mesh.vertices[mesh.cells[cells, 0]]
    return np.einsum("...ab,...b->...a", mesh.cell_jac_inv[cells], points - origin)


def dt_f(problem, x, y, t):
    """The pointwise df/dt of ``problem``, from its separable form."""
    return sum(c * g(x, y) for c, g in zip(problem.dt_f_coeffs(t), problem.f_spatial))


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
        ref = map_to_reference(mesh, cells, pts)
        setattr(out, f"ref_{side}", ref)
        setattr(out, f"points_{side}", map_to_physical(mesh, cells, ref))
    return out


# -- the physical facet layer ------------------------------------------------------------
#
# The library's facet forms as they were before they ran on one-orientation
# reference traces: the reference traces on the local edges in both
# orientations, each slot read in its own and Piola-mapped to physical
# values and gradients, and the SIP forms as einsum pairs of those.

def edge_tables(space, order):
    """Reference basis traces on the three local edges at the segment rule of
    ``order``, in both orientations: ``val[i, r]`` and ``grad[i, r]`` hold
    the traces on local edge i at the points of the rule traversed from the
    edge's first vertex (r = 0) or from its second (r = 1).  A facet's points
    run from its lower-index vertex, so the cell that sees the facet as local
    edge i reads orientation ``mesh.cell_facet_reversed[c, i]``."""
    rule = segment_rule(order)
    t, nq = rule.points, len(rule.points)
    pts = [REF_VERTICES[a] + s[:, None] * (REF_VERTICES[b] - REF_VERTICES[a])
           for a, b in REF_EDGE_VERTICES for s in (t, 1.0 - t)]
    rv, _, rg = space.ref.eval_basis(np.concatenate(pts))
    return dict(rule=rule, nq=nq, val=rv.reshape(3, 2, nq, space.n_loc, 2),
                grad=rg.reshape(3, 2, nq, space.n_loc, 2, 2))


def facet_sides(mesh, facets):
    """The (cells, local edges) of the plus and of the minus side of
    ``facets``, read from the mesh's facet adjacency."""
    return ((mesh.facet_plus[facets], mesh.facet_plus_local[facets]),
            (mesh.facet_minus[facets], mesh.facet_minus_local[facets]))


def upwind_weights(an):
    """The upwind weights of the plus and the minus side for a . n_F:
    1/2 (|an| - an) and -1/2 (|an| + an)."""
    return 0.5 * (np.abs(an) - an), -0.5 * (np.abs(an) + an)


def piola_gradient(space, cells, ref_grad):
    """Physical gradients J G J^{-1} / det J of reference gradients G in
    ``cells``, which broadcast against their leading axes."""
    jac = space.mesh.cell_jac[cells] / space.mesh.cell_detj[cells][..., None, None]
    return _matmul2(_matmul2(jac, ref_grad), space.mesh.cell_jac_inv[cells])


def edge_basis(space, side, val, grad=None):
    """Physical values (nf, nq, m, 2), and with ``grad`` gradients, on the
    slots ``side`` = (cells, local edges) of edge tables (3, 2, nq, m, ...)."""
    cells, local = side
    rev = space.mesh.cell_facet_reversed[cells, local]
    values = space.piola(cells[:, None, None], val[local, rev])
    if grad is None:
        return values
    return values, piola_gradient(space, cells[:, None, None], grad[local, rev])


def facet_weights(mesh, tab, facets):
    return tab["rule"].weights[None, :] * mesh.facet_length[facets][:, None]


def physical_sip(space, params=None):
    """``forms.assemble_sip`` on physical traces, side pair by side pair."""
    params = (params or forms.FormParams()).resolve(space.k)
    mesh = space.mesh
    tab = space.ref_tables(forms.default_cell_order(space.k))
    cells = np.arange(mesh.n_cells)
    grad = piola_gradient(space, cells[:, None, None], tab["grad"])
    wdet = tab["rule"].weights[None, :] * mesh.cell_detj[:, None]
    loc = np.einsum("cqiab,cqjab,cq->cij", grad, grad, wdet, optimize=True)
    blocks = [(loc, cells, cells)]

    etab = edge_tables(space, forms.default_facet_order(space.k))
    penalty = params.sigma / mesh.facet_length
    for facets, two_sided in ((mesh.interior_facets, True),
                              (mesh.boundary_facets, False)):
        wq = facet_weights(mesh, etab, facets)
        nrm = mesh.facet_normal[facets]
        pen = penalty[facets]
        avg_w = 0.5 if two_sided else 1.0
        sides = []
        for side, jump_sign in zip(facet_sides(mesh, facets)[:1 + two_sided], (1.0, -1.0)):
            val, grad = edge_basis(space, side, etab["val"], etab["grad"])
            sides.append((side[0], val, np.einsum("fqiab,fb->fqia", grad, nrm), jump_sign))
        for tcells, tv, tgn, st in sides:
            for rcells, rv, rgn, sr in sides:
                blk = -avg_w * st * np.einsum("fq,fqja,fqia->fij", wq, rgn, tv, optimize=True)
                blk -= avg_w * sr * np.einsum("fq,fqja,fqia->fij", wq, rv, tgn, optimize=True)
                blk += st * sr * np.einsum("f,fq,fqja,fqia->fij", pen, wq, rv, tv,
                                           optimize=True)
                blocks.append((blk, tcells, rcells))
    return space.basis.assemble(blocks).tocsr()


def physical_sip_boundary_load(space, g, params=None):
    """``forms.assemble_sip_boundary_load`` on physical traces."""
    params = (params or forms.FormParams()).resolve(space.k)
    mesh = space.mesh
    bb = mesh.boundary_facets
    etab = edge_tables(space, forms.default_facet_order(space.k))
    a = mesh.vertices[mesh.facet_vertices[bb, 0]]
    b = mesh.vertices[mesh.facet_vertices[bb, 1]]
    pts = a[:, None, :] + etab["rule"].points[None, :, None] * (b - a)[:, None, :]
    gv = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
    wq = facet_weights(mesh, etab, bb)
    plus = facet_sides(mesh, bb)[0]
    val, grad = edge_basis(space, plus, etab["val"], etab["grad"])
    gn = np.einsum("fqiab,fb->fqia", grad, mesh.facet_normal[bb])
    pen = (params.sigma / mesh.facet_length[bb])[:, None]
    r_loc = np.einsum("fq,fqa,fqia->fi", wq, -gv, gn, optimize=True)
    r_loc += np.einsum("fq,fqa,fqia->fi", wq * pen, gv, val, optimize=True)
    return space.basis.scatter(r_loc.T, plus[0])


# -- full-vector-jump convection oracles ----------------------------------------------
#
# The convection apply and the jump seminorm as they were before the
# tangential-trace kernel: physical traces of both sides of every interior
# facet, each slot read in its own orientation of the edge tables and
# Piola-mapped, with the full vector jump w+ - w-.

def _edge_field(space, etab, loc):
    """Physical traces (nc, 3, nq, 2) of the cell-local fields loc on every
    slot: one GEMM against the edge tables in both orientations, then each
    slot's orientation is picked and Piola-mapped."""
    nc = len(loc)
    val_flat = etab["val"].transpose(3, 0, 1, 2, 4).reshape(space.n_loc, -1)
    ref = (loc @ val_flat).reshape(nc, 3, 2, etab["nq"], 2)
    cells = np.arange(nc)[:, None]
    ref = ref[cells, np.arange(3), space.mesh.cell_facet_reversed]
    return space.piola(cells[:, :, None], ref)


def _test_edges(space, etab, s):
    """Cell-local vectors sum over slots and points of s . phi_i for a
    physical integrand s (nc, 3, nq, 2) that carries the quadrature
    weights; the transpose of ``_edge_field``."""
    nc = len(s)
    cells = np.arange(nc)[:, None]
    full = np.zeros((nc, 3, 2, etab["nq"], 2))
    full[cells, np.arange(3), space.mesh.cell_facet_reversed] = \
        space.piola_transpose(cells[:, :, None], s)
    val_flat = etab["val"].transpose(3, 0, 1, 2, 4).reshape(space.n_loc, -1)
    return full.reshape(nc, -1) @ val_flat.T


def facet_normal_values(space, etab, a_values):
    """a . n_F at the facet points of ``etab``, from the shared edge DOFs:
    on F it lies in P_k(F), u . n(s) = sum_j (2j+1)/|F| c_{F,j} P_j(s)."""
    ne = space.ref.n_edge_moments
    coeffs = a_values[:space.n_facet_dofs].reshape(-1, ne) \
        * (2.0 * np.arange(ne) + 1.0) / space.mesh.facet_length[:, None]
    return coeffs @ np.polynomial.legendre.legvander(
        2.0 * etab["rule"].points - 1.0, space.k).T  # (nf, nq)


def full_jump_apply(space, a, w, cell_order=None, facet_order=None):
    """c_h(a, w, phi_i) for every i, with full vector jumps.  The default
    facet rule is ``forms.default_facet_order`` written out, so that the
    oracle pins the library's rule rather than follows it."""
    av, wv = forms._values(space, a), forms._values(space, w)
    cell_order = cell_order or forms.default_cell_order(space.k)
    facet_order = facet_order or max(2 * space.k + 3, 3 * space.k + 2)
    mesh = space.mesh
    a_loc, w_loc = space.basis.gather(av).T, space.basis.gather(wv).T

    tab = space.ref_tables(cell_order)
    nq, nc = tab["nq"], mesh.n_cells
    grad_flat = tab["grad"].transpose(1, 0, 2, 3).reshape(space.n_loc, -1)
    a_hat = (a_loc @ tab["val_flat"]).reshape(nc, nq, 2)
    g_hat = (w_loc @ grad_flat).reshape(nc, nq, 2, 2)
    s = _matvec2(np.moveaxis(space.metric, -1, 0)[:, None], _matvec2(g_hat, a_hat))
    r_loc = s.reshape(nc, -1) @ tab["val_weighted"]

    etab = edge_tables(space, facet_order)
    ii = mesh.interior_facets
    gp, gm = upwind_weights(facet_normal_values(space, etab, av)[ii])
    wq = facet_weights(mesh, etab, ii)
    plus, minus = facet_sides(mesh, ii)
    trace = _edge_field(space, etab, w_loc)
    jump = trace[plus] - trace[minus]
    s = np.zeros_like(trace)
    s[plus] = (wq * gp)[..., None] * jump
    s[minus] = (wq * gm)[..., None] * jump
    r_loc += _test_edges(space, etab, s)
    return space.basis.scatter(r_loc.T)


def full_jump_seminorm(space, a, v, facet_order=None):
    """|v|^2_{a,up} over the interior facets, with full vector jumps."""
    av, vv = forms._values(space, a), forms._values(space, v)
    facet_order = facet_order or max(2 * space.k + 3, 3 * space.k + 2)
    mesh = space.mesh
    etab = edge_tables(space, facet_order)
    ii = mesh.interior_facets
    an = facet_normal_values(space, etab, av)[ii]
    plus, minus = facet_sides(mesh, ii)
    trace = _edge_field(space, etab, space.basis.gather(vv).T)
    jump2 = np.sum((trace[plus] - trace[minus]) ** 2, axis=-1)
    return float(np.sum(facet_weights(mesh, etab, ii) * 0.5 * np.abs(an) * jump2))


def full_vector_convection_blocks(space, a, basis=None, cell_order=None, facet_order=None):
    """``forms.convection_blocks`` as it was before the tangential-trace
    kernel, in the library's layout (each cell with itself, then each slot
    (local edge, cell) with the cell across its facet, itself on the wall):
    the volume blocks through two 2x2 products per point, and facet blocks
    pairing full vectors sum_q g_+- phi_j . phi_i of the physical traces
    (``edge_basis`` on the two-orientation ``edge_tables``).  The phi are
    the RT_k reference basis, or with ``basis`` (n_loc, m) phi @ basis."""
    av = forms._values(space, a)
    cell_order = cell_order or forms.default_cell_order(space.k)
    facet_order = facet_order or forms.default_facet_order(space.k)
    mesh = space.mesh
    tab = space.ref_tables(cell_order)
    etab = edge_tables(space, facet_order)
    grad, val_w, edge_val = tab["grad"], tab["val_weighted"], etab["val"]
    if basis is not None:
        grad = np.einsum("qiab,im->qmab", grad, basis)
        val_w = val_w @ basis
        edge_val = np.einsum("erqia,im->erqma", edge_val, basis)
    nc, nq, m = mesh.n_cells, tab["nq"], grad.shape[1]

    a_loc = space.basis.gather(av)
    a_hat = (a_loc.T @ tab["val_flat"]).reshape(nc, nq, 1, 2)
    s = _matvec2(np.moveaxis(space.metric, -1, 0)[:, None, None], _matvec2(grad, a_hat))
    loc = (s.transpose(0, 2, 1, 3).reshape(nc * m, -1) @ val_w) \
        .reshape(nc, m, m).transpose(0, 2, 1)

    ii = mesh.interior_facets
    gp, gm = upwind_weights(facet_weights(mesh, etab, ii)
                            * facet_normal_values(space, etab, av)[ii])
    plus, minus = facet_sides(mesh, ii)
    vp = edge_basis(space, plus, edge_val)
    vm = edge_basis(space, minus, edge_val)

    def pair(g, trial, test):
        return np.einsum("fq,fqja,fqia->fij", g, trial, test, optimize=True)

    cells = np.arange(nc)
    same, cross = np.zeros((2, 3, nc, m, m))
    across = np.tile(cells, (3, 1))
    same[plus[::-1]], same[minus[::-1]] = pair(gp, vp, vp), -pair(gm, vm, vm)
    cross[plus[::-1]], cross[minus[::-1]] = -pair(gp, vm, vp), pair(gm, vp, vm)
    across[plus[::-1]], across[minus[::-1]] = minus[0], plus[0]
    return [(loc + same.sum(axis=0), cells, cells),
            (cross.reshape(-1, m, m), np.tile(cells, 3), across.ravel())]


def use_full_vector_kernel(monkeypatch):
    """Make ``forms.convection_blocks`` the full-vector oracle wherever the
    library calls it: ``forms.convection_tables`` then returns the
    coefficients of the basis, and the oracle reads them."""
    monkeypatch.setattr(forms, "convection_tables",
                        lambda space, basis=None: (None if basis is None else basis.coeffs,))
    monkeypatch.setattr(forms, "convection_blocks",
                        lambda space, a, tables: full_vector_convection_blocks(space, a, *tables))


# -- point evaluation and the error norms through it -----------------------------------

def evaluate(space, coeffs, cells, ref_points, with_grad=False):
    """Field value (and broken gradient) at reference points in cells."""
    cells = np.asarray(cells, dtype=int)
    rv, _, _ = space.ref.eval_basis(np.asarray(ref_points, dtype=float))
    loc = np.moveaxis(coeffs[space.basis.dofs[:, cells]] * space.basis.signs[:, cells], 0, -1)
    # optimize=True turns the broadcast contraction into one GEMM
    val = space.piola(cells, np.einsum("...i,...ia->...a", loc, rv, optimize=True))
    if not with_grad:
        return val
    return val, evaluate_gradient(space, coeffs, cells, ref_points)


def evaluate_gradient(space, coeffs, cells, ref_points):
    """The broken gradient alone at reference points in cells."""
    cells = np.asarray(cells, dtype=int)
    _, _, rg = space.ref.eval_basis(np.asarray(ref_points, dtype=float))
    loc = np.moveaxis(coeffs[space.basis.dofs[:, cells]] * space.basis.signs[:, cells], 0, -1)
    return piola_gradient(space, cells, np.einsum("...i,...iab->...ab", loc, rg, optimize=True))


def _pointwise_error_rule(space, order):
    rule = triangle_rule(max(2 * space.k + 5, 15) if order is None else order)
    mesh = space.mesh
    cells = np.arange(mesh.n_cells)[:, None]
    pts = np.einsum("...ab,...b->...a", mesh.cell_jac[cells], rule.points) \
        + mesh.vertices[mesh.cells[cells, 0]]
    return cells, rule.points, pts, rule.weights[None, :] * mesh.cell_detj[:, None]


def pointwise_l2_error(space, coeffs, problem, t, order=None):
    """``manufactured.l2_error`` as it was before the GEMM path: u_h by
    ``evaluate`` at the error rule in every cell, the points mapped by einsum."""
    cells, ref, pts, wdet = _pointwise_error_rule(space, order)
    diff = problem.u(pts[..., 0], pts[..., 1], t) \
        - evaluate(space, forms._values(space, coeffs), cells, ref)
    return float(np.sqrt(np.sum(wdet * np.sum(diff ** 2, axis=-1))))


def pointwise_h1_error(space, coeffs, problem, t, order=None):
    """``manufactured.h1_broken_error`` as it was before the GEMM path."""
    cells, ref, pts, wdet = _pointwise_error_rule(space, order)
    diff = problem.grad_u(pts[..., 0], pts[..., 1], t) \
        - evaluate_gradient(space, forms._values(space, coeffs), cells, ref)
    return float(np.sqrt(np.sum(wdet * np.sum(diff ** 2, axis=(-2, -1)))))


def pointwise_div_norm(space, coeffs, order=None):
    """``forms.divergence_l2_norm`` at a deeper rule (default the error
    rule): div u_h as the trace of the broken gradient by ``evaluate``."""
    cells, ref, _, wdet = _pointwise_error_rule(space, order)
    grad = evaluate_gradient(space, forms._values(space, coeffs), cells, ref)
    return float(np.sqrt(np.sum(wdet * np.trace(grad, axis1=-2, axis2=-1) ** 2)))


# -- the velocity-space steps -----------------------------------------------------------
#
# The RK2 and CN steps as they were before the state moved onto the stream
# function: each stage forms its right-hand side on the velocity DOFs (mass
# products, RT loads, the RT apply) and projects it through C^T and C of
# ``disc.projection`` (``project_velocity``); the gate reads the mass norm.
# Their state is the velocity and the velocity of the step before.

def _velocity_load(disc, problem, t, tau_taylor=None):
    coeffs = problem.f_coeffs(t)
    if tau_taylor is not None:
        coeffs = coeffs + tau_taylor * problem.dt_f_coeffs(t)
    return coeffs @ np.stack([forms.assemble_load(disc.space, g) for g in problem.f_spatial])


def _velocity_wall_load(disc, problem, t):
    if problem is None:
        return 0.0
    return problem.u_coeffs(t) @ np.stack(
        [forms.assemble_sip_boundary_load(disc.space, g, disc.params)
         for g in problem.u_spatial])


@functools.lru_cache(maxsize=1)
def velocity_sip(disc):
    """The velocity SIP matrix of ``disc``, which no run assembles."""
    return forms.assemble_sip(disc.space, disc.params)


def _velocity_state(disc, config, state, u):
    """The state after step ``state.n`` with the new velocity ``u``, once
    its mass norm has passed the blow-up gate."""
    if not np.all(np.isfinite(u.values)):
        raise linsolve.BlowUpSignal(step=state.n)
    l2 = disc.l2_norm(u)
    if l2 > integrators.BLOWUP_FACTOR * max(state.norm0, 1.0):
        raise linsolve.BlowUpSignal(step=state.n)
    return SimpleNamespace(n=state.n + 1, t=config.time_at(state.n + 1), u=u,
                           u_prev=state.u, norm0=state.norm0, l2=l2)


def velocity_rk2_step(state, config, disc, problem=None):
    space, mass, tau, t = disc.space, disc.mass, config.tau, state.t
    u = state.u.values
    mass_u = mass @ u
    rhs = mass_u - tau * forms.apply_convection(space, state.u, state.u)
    if config.nu > 0:
        rhs -= tau * config.nu * (velocity_sip(disc) @ u)
        rhs += tau * config.nu * _velocity_wall_load(disc, problem, t)
    if problem is not None:
        rhs += tau * _velocity_load(disc, problem, t)
    stage = project_velocity(disc.projection, rhs)
    w = stage.values
    rhs = 0.5 * (mass_u + mass @ w) - 0.5 * tau * forms.apply_convection(space, stage, stage)
    if config.nu > 0:
        rhs -= 0.5 * tau * config.nu * (velocity_sip(disc) @ w)
        rhs += 0.5 * tau * config.nu * _velocity_wall_load(disc, problem, t + tau)
    if problem is not None:
        rhs += 0.5 * tau * (_velocity_load(disc, problem, t, tau_taylor=tau)
                            if config.f_mode == "f_taylor" else
                            _velocity_load(disc, problem, t + tau))
    return _velocity_state(disc, config, state,
                           project_velocity(disc.projection, rhs))


def velocity_cn_step(state, config, disc, problem=None):
    space, mass, tau, nu = disc.space, disc.mass, config.tau, config.nu
    u = state.u.values
    if state.n == 0:
        system = linsolve.CNSystem(disc.projection, state.u, tau, theta=1.0)
        rhs = mass @ u / tau
        t_load = state.t + tau
    else:
        advect = CoefVec(space, 1.5 * u - 0.5 * state.u_prev.values)
        system = linsolve.CNSystem(disc.projection, advect, tau, theta=0.5)
        rhs = mass @ u / tau - 0.5 * forms.apply_convection(space, advect, state.u)
        if nu > 0:
            rhs -= 0.5 * nu * (velocity_sip(disc) @ u)
        t_load = state.t + 0.5 * tau
    if problem is not None:
        rhs += _velocity_load(disc, problem, t_load)
    if nu > 0:
        rhs += nu * _velocity_wall_load(disc, problem, t_load)
    return _velocity_state(disc, config, state,
                           project_velocity(system, rhs, disc.projection))


def velocity_run(config, disc, problem):
    """The per-step L2 norms and the blow-up step (None) of a run made of
    the velocity-space steps, with the forcing of ``integrators.run``."""
    step = velocity_rk2_step if config.integrator == "explicit_rk2" else velocity_cn_step
    forcing = None if config.f_zero else problem
    start = integrators.initial_state(config, disc, problem)
    state = SimpleNamespace(n=0, t=0.0, u=start.u, u_prev=None, norm0=start.norm0,
                            l2=start.l2)
    l2 = [state.l2]
    for _ in range(config.n_steps):
        try:
            state = step(state, config, disc, forcing)
        except linsolve.BlowUpSignal:
            return l2, state.n
        l2.append(state.l2)
    return l2, None
