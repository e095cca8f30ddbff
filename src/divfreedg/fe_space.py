"""Raviart-Thomas velocity elements, broken scalar elements and interpolation.

The reference element lives on the triangle with vertices (0,0), (1,0), (0,1);
edge i is opposite vertex i and runs counterclockwise.  Velocity basis
functions are dual to Legendre edge-normal moments plus orthonormalized
interior moments, obtained by inverting the moment Vandermonde once per
degree.  Physical elements follow by the contravariant Piola transform, which
preserves edge-normal moments and therefore glues H(div)-conformingly.  The
curls of the P_{k+1} Lagrange basis, written in the RT_k basis, give the
discrete curl of the stream-function projection.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .quadrature import segment_rule, triangle_rule

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
REF_EDGE_VERTICES = ((1, 2), (2, 0), (0, 1))
REF_EDGE_NORMALS = np.array([
    [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
    [-1.0, 0.0],
    [0.0, -1.0],
])
REF_EDGE_LENGTHS = np.array([np.sqrt(2.0), 1.0, 1.0])

SUPPORTED_DEGREES = (1, 2)


def _pow(x, e):
    if e < 0:
        return np.zeros_like(x)
    return x ** e


def scalar_monomial_exponents(k):
    """Exponent pairs of the monomial basis of P_k, graded ordering."""
    return [(d - b, b) for d in range(k + 1) for b in range(d + 1)]


def eval_scalar_monomials(exps, points):
    points = np.asarray(points, dtype=float)
    x, y = points[..., 0], points[..., 1]
    return np.stack([_pow(x, a) * _pow(y, b) for a, b in exps], axis=-1)


def _rt_monomials(k):
    """Monomial basis of RT_k = [P_k]^2 + (homogeneous P_k) * x."""
    terms = []
    for comp in (0, 1):
        for a, b in scalar_monomial_exponents(k):
            terms.append(("comp", comp, a, b))
    for a in range(k + 1):
        terms.append(("radial", a, k - a))
    return terms


def eval_rt_monomials(k, points):
    """Evaluate value, divergence and gradient of every RT_k monomial.

    Returns arrays of shape (npts, nmono, 2), (npts, nmono), (npts, nmono, 2, 2)
    with gradient convention grad[a, b] = d v_a / d x_b.
    """
    points = np.asarray(points, dtype=float)
    x, y = points[..., 0], points[..., 1]
    terms = _rt_monomials(k)
    npts = x.shape[0]
    nm = len(terms)
    vals = np.zeros((npts, nm, 2))
    divs = np.zeros((npts, nm))
    grads = np.zeros((npts, nm, 2, 2))
    for m, term in enumerate(terms):
        if term[0] == "comp":
            _, comp, a, b = term
            vals[:, m, comp] = _pow(x, a) * _pow(y, b)
            grads[:, m, comp, 0] = a * _pow(x, a - 1) * _pow(y, b)
            grads[:, m, comp, 1] = b * _pow(x, a) * _pow(y, b - 1)
            divs[:, m] = grads[:, m, comp, comp]
        else:
            _, a, c = term
            vals[:, m, 0] = _pow(x, a + 1) * _pow(y, c)
            vals[:, m, 1] = _pow(x, a) * _pow(y, c + 1)
            divs[:, m] = (k + 2) * _pow(x, a) * _pow(y, c)
            grads[:, m, 0, 0] = (a + 1) * _pow(x, a) * _pow(y, c)
            grads[:, m, 0, 1] = c * _pow(x, a + 1) * _pow(y, c - 1)
            grads[:, m, 1, 0] = a * _pow(x, a - 1) * _pow(y, c + 1)
            grads[:, m, 1, 1] = (c + 1) * _pow(x, a) * _pow(y, c)
    return vals, divs, grads


def _matvec2(m, v):
    """m @ v for 2x2 matrices and 2-vectors with broadcast leading axes,
    written out elementwise: several times faster than einsum or matmul on
    stacks of tiny blocks."""
    return np.stack([m[..., 0, 0] * v[..., 0] + m[..., 0, 1] * v[..., 1],
                     m[..., 1, 0] * v[..., 0] + m[..., 1, 1] * v[..., 1]], axis=-1)


def _matmul2(a, b):
    """a @ b for 2x2 matrices with broadcast leading axes, column by column,
    written into one output rather than stacked (one full-size copy fewer)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for j in (0, 1):
        out[..., j] = _matvec2(a, b[..., :, j])
    return out


class RTReference:
    """Reference RT_k element with moment-dual basis, built once per degree."""

    def __init__(self, k):
        if k not in SUPPORTED_DEGREES:
            raise ValueError(f"unsupported degree k={k}; supported: {SUPPORTED_DEGREES}")
        self.k = k
        self.n_edge_moments = k + 1
        self.n_interior = k * (k + 1)
        self.n_dofs = (k + 1) * (k + 3)

        # orthonormal scalar polynomials of degree <= k-1 for interior moments
        int_exps = scalar_monomial_exponents(k - 1)
        rule = triangle_rule(2 * k + 2)
        mon = eval_scalar_monomials(int_exps, rule.points)
        gram = np.einsum("qi,qj,q->ij", mon, mon, rule.weights)
        self._int_exps = int_exps
        self._int_coeffs = np.linalg.inv(np.linalg.cholesky(gram))

        # edge quadrature in the reference edge parameter t in [0,1]
        erule = segment_rule(2 * k + 3)
        self._edge_t = erule.points
        self._edge_w = erule.weights
        self._edge_leg = np.polynomial.legendre.legvander(2.0 * erule.points - 1.0, k)

        self.coeffs = np.linalg.inv(
            self._moments(lambda points: eval_rt_monomials(k, points)[0]))
        self._tables = {}

    def _edge_points(self, t):
        return np.stack([REF_VERTICES[a] + t[:, None] * (REF_VERTICES[b] - REF_VERTICES[a])
                         for a, b in REF_EDGE_VERTICES])

    def interior_polys(self, points):
        """Orthonormalized interior moment polynomials at reference points."""
        return eval_scalar_monomials(self._int_exps, points) @ self._int_coeffs.T

    def _moments(self, field):
        """The DOF functionals applied to vector fields: ``field(points)``
        gives the values (npts, m, 2) of m fields, and entry [i, j] of the
        result is functional i of field j.  On fields in RT_k these are the
        coefficients in the dual basis."""
        rows = []
        for i in range(3):
            vn = field(self._edge_points(self._edge_t)[i]) @ REF_EDGE_NORMALS[i]
            w = self._edge_w * REF_EDGE_LENGTHS[i]
            rows += [np.einsum("q,qm->m", w * self._edge_leg[:, j], vn)
                     for j in range(self.n_edge_moments)]
        rule = triangle_rule(2 * self.k + 2)
        vals = field(rule.points)
        polys = self.interior_polys(rule.points)
        rows += [np.einsum("q,qm->m", rule.weights * polys[:, p], vals[:, :, comp])
                 for p in range(polys.shape[1]) for comp in (0, 1)]
        return np.array(rows)

    def edge_traces(self, order):
        """The segment rule of ``order`` and the values (3, nq, n_dofs, 2)
        and gradients (3, nq, n_dofs, 2, 2) of the basis at its points on
        the three edges, each edge read from its first vertex."""
        rule = segment_rule(order)
        rv, _, rg = self.eval_basis(self._edge_points(rule.points).reshape(-1, 2))
        shape = (3, len(rule), self.n_dofs)
        return rule, rv.reshape(*shape, 2), rg.reshape(*shape, 2, 2)

    def tables(self, order):
        """Basis values, divergences and gradients at the volume rule of
        ``order``, with flattened copies for GEMM-style kernels, and the
        reference mass ``mass[a, b]`` of the components a and b; built on
        first use and shared by every space of this degree."""
        tab = self._tables.get(order)
        if tab is not None:
            return tab
        rule = triangle_rule(order)
        rv, rd, rg = self.eval_basis(rule.points)
        nq, n = len(rule.weights), self.n_dofs
        tab = dict(
            rule=rule, nq=nq, val=rv, div=rd, grad=rg,
            val_flat=np.ascontiguousarray(rv.transpose(1, 0, 2).reshape(n, nq * 2)),
            grad_flat=np.ascontiguousarray(rg.transpose(1, 0, 2, 3).reshape(n, nq * 4)),
            val_weighted=np.ascontiguousarray(
                (rv * rule.weights[:, None, None]).transpose(0, 2, 1).reshape(nq * 2, n)),
            mass=np.einsum("q,qia,qjb->abij", rule.weights, rv, rv),
        )
        self._tables[order] = tab
        return tab

    def eval_basis(self, points):
        """Values, divergences and gradients of the dual basis at points."""
        mv, md, mg = eval_rt_monomials(self.k, points)
        vals = np.einsum("qma,mb->qba", mv, self.coeffs)
        divs = md @ self.coeffs
        grads = np.einsum("qmab,mc->qcab", mg, self.coeffs)
        return vals, divs, grads


@lru_cache(maxsize=None)
def rt_reference(k):
    return RTReference(k)


def _lagrange_nodes(p):
    """Nodes of the P_p Lagrange element on the reference triangle: the three
    vertices, then p - 1 nodes on each edge i running from its first vertex
    REF_EDGE_VERTICES[i][0] to its second, then the interior nodes."""
    t = np.arange(1, p)[:, None] / p
    edges = [REF_VERTICES[a] + t * (REF_VERTICES[b] - REF_VERTICES[a])
             for a, b in REF_EDGE_VERTICES]
    inner = [(i / p, j / p) for j in range(1, p) for i in range(1, p - j)]
    return np.vstack([REF_VERTICES, *edges, np.reshape(inner, (-1, 2))])


@lru_cache(maxsize=None)
def _curl_reference(k):
    """C_loc, (n_dofs of RT_k) x (nodes of P_{k+1}): column a holds the RT_k
    coefficients of curl psi_a = (d psi_a/dy, -d psi_a/dx) of the P_{k+1}
    Lagrange basis function psi_a at node a of ``_lagrange_nodes(k + 1)``.

    The curl commutes with the contravariant Piola map on cells of positive
    Jacobian, so C_loc is the same on every cell.  Entries that vanish in
    exact arithmetic (a node off an edge has no normal curl on it) come out
    at roundoff and are set to zero, so the global curl keeps its sparsity.
    """
    exps = scalar_monomial_exponents(k + 1)
    basis = np.linalg.inv(eval_scalar_monomials(exps, _lagrange_nodes(k + 1)))

    def curls(points):
        x, y = points[..., 0], points[..., 1]
        dx = np.stack([a * _pow(x, a - 1) * _pow(y, b) for a, b in exps], axis=-1)
        dy = np.stack([b * _pow(x, a) * _pow(y, b - 1) for a, b in exps], axis=-1)
        return np.stack([dy @ basis, -(dx @ basis)], axis=-1)

    c_loc = rt_reference(k)._moments(curls)
    c_loc[np.abs(c_loc) < 1e-12 * np.abs(c_loc).max()] = 0.0
    return c_loc


@dataclass(eq=False)
class LocalBasis:
    """The local-to-global map of a space, cell-minor: local function i of
    cell c is ``signs[i, c]`` times global function ``dofs[i, c]``, one of
    ``size``, and the local functions are phi @ ``coeffs`` of the reference
    basis phi, polynomials of ``degree``.  A local function of sign 0 stands
    for no global one (a boundary node of the stream-function basis):
    ``gather`` and ``scatter`` weight it by 0, and ``assemble`` leaves it out.

    The degree sizes the volume rules of the kernels that run in the basis:
    k+1 on the RT_k basis, k on the stream-function basis, whose functions
    are curls of P_{k+1} (see ``forms.apply_convection``).  Facet rules do
    not follow it, since the upwind weight |a . n| is no polynomial."""

    dofs: np.ndarray
    signs: np.ndarray
    size: int
    coeffs: np.ndarray
    degree: int
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def kept(self, key, build):
        """``build()``, made on the first call with ``key`` and kept on the
        basis: a kernel's reference tables in phi @ ``coeffs``."""
        if key not in self._kept:
            self._kept[key] = build()
        return self._kept[key]

    def gather(self, values, cells=slice(None)):
        """The local coefficients (n_loc, len(cells)) of ``cells`` of the
        global vector ``values``."""
        if values.shape != (self.size,):
            raise ValueError(f"{values.shape} coefficients for a basis of {self.size}")
        return values[self.dofs[:, cells]] * self.signs[:, cells]

    def scatter(self, r_loc, cells=slice(None)):
        """The transpose of ``gather``: the global vector summing the local
        vectors r_loc (m, len(cells)) of ``cells``."""
        return np.bincount(self.dofs[:, cells].ravel(),
                           weights=(r_loc * self.signs[:, cells]).ravel(), minlength=self.size)

    def assemble(self, blocks, test=None):
        """The COO sum of local blocks (blk, test cells, trial cells), with
        blk[:, i, j] = form(phi_j, phi_i): phi_j in this basis on the trial
        cells, phi_i in ``test`` (this basis when None) on the test cells.  A
        2-D blk is one block on every cell, and its zeros make no triplets."""
        test = self if test is None else test
        # int32 indices where they fit: scipy would copy wider ones down
        index = np.promote_types(np.int32, np.min_scalar_type(-max(test.size, self.size)))
        rows, cols, vals = [], [], []
        for blk, test_cells, trial_cells in blocks:
            i, j = np.nonzero(blk) if blk.ndim == 2 else np.indices(blk.shape[1:]).reshape(2, -1)
            s_test = test.signs.T[test_cells].take(i, axis=1)
            s_trial = self.signs.T[trial_cells].take(j, axis=1)
            live = (s_test != 0) & (s_trial != 0)
            entries = (blk[i, j] if blk.ndim == 2 else blk.reshape(len(blk), -1)) * s_test
            vals.append(np.multiply(entries, s_trial, out=entries)[live])
            rows.append(test.dofs.T[test_cells].astype(index).take(i, axis=1)[live])
            cols.append(self.dofs.T[trial_cells].astype(index).take(j, axis=1)[live])
        return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                             shape=(test.size, self.size))


@dataclass
class CoefVec:
    """Coefficient vector of a discrete field in a given space."""

    space: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.space.n_dofs,):
            raise ValueError(
                f"coefficient length {self.values.shape} does not match "
                f"space with {self.space.n_dofs} DOFs")


class RTSpace:
    """Global H(div)-conforming RT_k space on a triangular mesh.

    Edge DOFs are shared between the two cells of an interior facet; the
    signs of ``basis`` absorb normal and tangential orientation flips, so a
    cell-local coefficient is sign * global coefficient.
    """

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        self.ref = rt_reference(k)
        ne = self.ref.n_edge_moments
        ni = self.ref.n_interior
        nf, nc = mesh.n_facets, mesh.n_cells
        self.n_loc = self.ref.n_dofs
        self.n_facet_dofs = nf * ne
        self.n_dofs = nf * ne + nc * ni

        dofs = np.empty((self.n_loc, nc), dtype=int)
        signs = np.ones((self.n_loc, nc))
        cell_ids = np.arange(nc)
        for i in range(3):
            f = mesh.cell_facets[:, i]
            sigma_t = 1.0 - 2.0 * mesh.cell_facet_reversed[:, i]
            sigma_n = np.where(mesh.facet_plus[f] == cell_ids, 1.0, -1.0)
            for j in range(ne):
                dofs[i * ne + j] = f * ne + j
                signs[i * ne + j] = sigma_n * sigma_t ** j
        dofs[3 * ne:] = nf * ne + cell_ids * ni + np.arange(ni)[:, None]
        self.basis = LocalBasis(dofs, signs, self.n_dofs, np.eye(self.n_loc), k + 1)

        self.boundary_dofs = (
            mesh.boundary_facets[:, None] * ne + np.arange(ne)[None, :]
        ).ravel()
        self.is_boundary_dof = np.zeros(self.n_dofs, dtype=bool)
        self.is_boundary_dof[self.boundary_dofs] = True
        self.free_dofs = np.flatnonzero(~self.is_boundary_dof)

        self._facet_traces = {}

    def zero(self):
        return CoefVec(self, np.zeros(self.n_dofs))

    @cached_property
    def metric(self):
        """(J^T J) / det(J)^2 per cell; contracts Piola factors so volume
        convection and the mass apply can run on shared reference tables."""
        jac = self.mesh.cell_jac
        return np.einsum("cga,cgb->cab", jac, jac) / self.mesh.cell_detj[:, None, None] ** 2

    # -- reference tables ----------------------------------------------------------
    #
    # Every integral runs on these small per-degree tables, combined at call
    # time with the per-cell Jacobian (see ``piola`` and ``metric``).

    def ref_tables(self, order):
        """``RTReference.tables(order)`` of the space's degree."""
        return self.ref.tables(order)

    def facet_traces(self, order):
        """Plain arrays of the facet-trace kernel at the segment rule of
        ``order``: ``table`` (2 * 3 * nq, n_loc), the reference traces by
        component, local edge and point, each edge read from its first
        vertex.  The rule is symmetric, so ``plus``/``minus`` (nq, nfi), the
        flat indices of the interior facets' points into each component's
        slot traces, read point nq - 1 - q of a reversed edge.
        ``g_plus``/``g_minus`` (2, nfi) are J^T t_F / det J, so
        t_F . v = g . v_ref, and ``weights`` (nq, 1) times ``n_plus`` (2, nfi)
        = |F| J^T n_F / det J of the plus cell gives w_q |F| u . n_F from the
        plus trace.  n_F points out of the plus cell, so ``n_plus`` is the
        plus edge's |F_ref| n_ref, and ``normal`` (3 * nq, n_loc), the
        reference normal traces |F_ref| n_ref . phi by local edge and point,
        gives u . n_F alone: w_q |F| u . n_F is ``weights`` times the plus
        slot's entry of ``normal`` @ loc, read at ``plus``."""
        ft = self._facet_traces.get(order)
        if ft is not None:
            return ft
        mesh = self.mesh
        rule, val, _ = self.ref.edge_traces(order)
        nq = len(rule)
        ii = mesh.interior_facets
        normal = mesh.facet_normal[ii]
        tangent = np.stack([-normal[:, 1], normal[:, 0]], axis=-1)
        point = np.arange(nq)[:, None]

        def side(cells, local, direction):
            q = np.where(mesh.cell_facet_reversed[cells, local] == 1, nq - 1 - point, point)
            g = np.einsum("fab,fa->bf", mesh.cell_jac[cells], direction) / mesh.cell_detj[cells]
            return (local * nq + q) * mesh.n_cells + cells, np.ascontiguousarray(g)

        plus_cells, plus_local = mesh.facet_plus[ii], mesh.facet_plus_local[ii]
        plus, g_plus = side(plus_cells, plus_local, tangent)
        minus, g_minus = side(mesh.facet_minus[ii], mesh.facet_minus_local[ii], tangent)
        n_plus = side(plus_cells, plus_local, normal)[1] * mesh.facet_length[ii]
        normal = np.einsum("eqia,ea->eqi", val, REF_EDGE_NORMALS * REF_EDGE_LENGTHS[:, None])
        ft = dict(
            table=np.ascontiguousarray(val.transpose(3, 0, 1, 2).reshape(6 * nq, self.n_loc)),
            normal=normal.reshape(3 * nq, self.n_loc),
            plus=plus, minus=minus, g_plus=g_plus, g_minus=g_minus,
            weights=rule.weights[:, None], n_plus=n_plus,
        )
        self._facet_traces[order] = ft
        return ft

    def piola(self, cells, ref_val):
        """Contravariant Piola map v = J v_ref / det J of reference values in
        ``cells``, which broadcast against their leading axes."""
        jac = self.mesh.cell_jac[cells] / self.mesh.cell_detj[cells][..., None, None]
        return _matvec2(jac, ref_val)

    def piola_transpose(self, cells, vec):
        """J^T vec / det J, the transpose of ``piola`` on values: it pulls a
        physical integrand back onto the reference basis."""
        jac = self.mesh.cell_jac[cells] / self.mesh.cell_detj[cells][..., None, None]
        return _matvec2(np.swapaxes(jac, -1, -2), vec)


# Rule points per block of a pass over a volume rule in every cell: a
# block's coordinates, field values and products take a few hundred KB,
# which stay in a core's L2 whatever the mesh and the rule.
CELL_BLOCK = 1 << 14


def cell_blocks(mesh, rule):
    """Slices of consecutive cells that hold about ``CELL_BLOCK`` points of
    the volume ``rule`` each, the last one partial.  Every pass over a rule
    in every cell that forms arrays per point (the interpolation, the loads,
    the error norms) runs over these blocks, so its memory does not grow
    with the mesh.  A block is a whole multiple of 8 cells, so each ends on a
    whole group of the GEMM's rows: with two columns (the k = 1
    interpolation's moments) OpenBLAS's dgemm rounded a trailing group of
    fewer than four rows unlike the same rows inside a longer pass, and
    the moments depended on where the blocks end."""
    step = max(8, CELL_BLOCK // len(rule) // 8 * 8)
    return [slice(start, min(start + step, mesh.n_cells))
            for start in range(0, mesh.n_cells, step)]


def map_points(mesh, cells, rule):
    """x and y (len(cells), nq): the points of a volume ``rule`` mapped
    into a slice of ``cells``, two multiply-adds per coordinate."""
    rx, ry = rule.points.T
    origin, jac = mesh.vertices[mesh.cells[cells, 0], :, None], mesh.cell_jac[cells, ..., None]
    x = jac[:, 0, 0] * rx
    x += jac[:, 0, 1] * ry
    x += origin[:, 0]
    y = jac[:, 1, 0] * rx
    y += jac[:, 1, 1] * ry
    y += origin[:, 1]
    return x, y


def rt_interpolate(field, space, enforce_boundary=True):
    """Raviart-Thomas interpolation of a pointwise-evaluable vector field.

    Edge DOFs are the Legendre moments of field . n_F along each facet,
    interior DOFs the orthonormalized moments of the Piola pullback
    det J J^{-1} u.  J is constant on a cell, so each block of
    ``cell_blocks`` takes the moments of the physical components in one
    GEMM and applies det J J^{-1} once per cell.  The rule deepens
    with the longest facet (see below).  With ``enforce_boundary``
    the boundary edge DOFs come from the field (which is then expected to
    satisfy u.n = 0 on the boundary); otherwise they are zeroed so the
    result lies in the constrained space regardless.
    """
    mesh = space.mesh
    k = space.k
    # trig moments need depth beyond the polynomial minimum 2k + 2, more on
    # longer facets: Pi u of Taylor-Green then sits within 1e-14 of its
    # exact moments (order 9 at n = 80, 11 at n = 32, 31 at n = 4), and two
    # orders less misses by up to 6e-11 at n = 48 to 80
    order = int(np.ceil(7.0 + 60.0 * mesh.facet_length.max()))

    erule = segment_rule(order)
    t = erule.points
    a = mesh.vertices[mesh.facet_vertices[:, 0]]
    d = mesh.vertices[mesh.facet_vertices[:, 1]] - a
    uvals = np.asarray(field(a[:, :1] + t * d[:, :1], a[:, 1:] + t * d[:, 1:]), dtype=float)
    normal = mesh.facet_normal
    un = uvals[..., 0] * normal[:, :1] + uvals[..., 1] * normal[:, 1:]
    leg = np.polynomial.legendre.legvander(2.0 * t - 1.0, k)
    edge_moments = (un * erule.weights * mesh.facet_length[:, None]) @ leg

    values = np.empty(space.n_dofs)
    values[:space.n_facet_dofs] = edge_moments.ravel()
    interior = values[space.n_facet_dofs:].reshape(mesh.n_cells, -1, 2)
    trule = triangle_rule(order)
    # entry (2q + a, 2p + b) is w_q P_p(q) [a == b]: the moments of both
    # components of the (cells, nq, 2) values, by interior DOF
    polys = np.kron(trule.weights[:, None] * space.ref.interior_polys(trule.points), np.eye(2))
    pullback = mesh.cell_jac_inv * mesh.cell_detj[:, None, None]
    for cells in cell_blocks(mesh, trule):
        uc = np.asarray(field(*map_points(mesh, cells, trule)), dtype=float)
        moments = (uc.reshape(len(uc), -1) @ polys).reshape(len(uc), -1, 2)
        interior[cells] = _matvec2(pullback[cells, None], moments)
    if not enforce_boundary:
        values[space.boundary_dofs] = 0.0
    return CoefVec(space, values)


class ScalarDGSpace:
    """Broken P_k multiplier space of the KKT oracle: one monomial block per
    cell, no coupling."""

    def __init__(self, mesh, k):
        self.mesh = mesh
        self.k = k
        self.exponents = scalar_monomial_exponents(k)
        self.n_loc = len(self.exponents)
        self.n_dofs = mesh.n_cells * self.n_loc
        dofs = np.arange(self.n_dofs).reshape(-1, self.n_loc).T
        self.basis = LocalBasis(dofs, np.ones(dofs.shape), self.n_dofs, np.eye(self.n_loc), k)
        rule = triangle_rule(2 * k)
        self.local_integrals = np.einsum("qi,q->i", self.eval_ref(rule.points),
                                         rule.weights)

    def eval_ref(self, points):
        return eval_scalar_monomials(self.exponents, points)

    def integral_vector(self):
        """Functional q -> integral of q over the domain, as a DOF vector."""
        return (self.mesh.cell_detj[:, None] * self.local_integrals[None, :]).ravel()


__all__ = [
    "RTReference", "RTSpace", "ScalarDGSpace", "CoefVec", "LocalBasis",
    "rt_reference", "rt_interpolate", "cell_blocks", "map_points", "CELL_BLOCK",
    "scalar_monomial_exponents", "eval_scalar_monomials", "eval_rt_monomials",
    "SUPPORTED_DEGREES",
]
