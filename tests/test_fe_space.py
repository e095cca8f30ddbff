import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divfreedg import build_structured, forms, linsolve, manufactured
from divfreedg.fe_space import (REF_EDGE_LENGTHS, REF_EDGE_NORMALS,
                                REF_EDGE_VERTICES, REF_VERTICES, CoefVec, LocalBasis,
                                RTSpace, ScalarDGSpace, eval_scalar_monomials,
                                rt_interpolate, rt_reference,
                                scalar_monomial_exponents)
from divfreedg.mesh import Mesh
from divfreedg.quadrature import segment_rule, triangle_rule
from conftest import (dg_evaluate, dg_project, edge_tables, evaluate, facet_normal_values,
                      loop_assemble, map_to_reference, trace_points)


def piola_map(jacobian, ref_value, ref_div=None, ref_grad=None):
    """Contravariant Piola transform, written out independently of the
    library: v = J v_ref / det J, div v = div_ref / det J,
    grad v = J G J^{-1} / det J."""
    jacobian = np.asarray(jacobian, dtype=float)
    det = np.linalg.det(jacobian)
    if np.any(det <= 0):
        raise ValueError("degenerate cell: non-positive Jacobian determinant")
    value = np.einsum("...ab,...b->...a", jacobian, ref_value) / det[..., None]
    out = [value]
    if ref_div is not None:
        out.append(ref_div / det)
    if ref_grad is not None:
        inv = np.linalg.inv(jacobian)
        grad = np.einsum("...ag,...gd,...db->...ab", jacobian, ref_grad, inv)
        out.append(grad / det[..., None, None])
    return out[0] if len(out) == 1 else tuple(out)


def apply_dofs(ref, func):
    """Every reference DOF functional of ``ref`` (Legendre edge-normal
    moments, then interior moments) applied to a callable field on the
    reference cell, with quadrature deeper than the one that built ``ref``."""
    k = ref.k
    erule = segment_rule(2 * k + 5)
    leg = np.polynomial.legendre.legvander(2.0 * erule.points - 1.0, k)
    out = []
    for i, (a, b) in enumerate(REF_EDGE_VERTICES):
        va, vb = REF_VERTICES[a], REF_VERTICES[b]
        pts = va + erule.points[:, None] * (vb - va)
        vn = np.asarray([func(p) for p in pts]) @ REF_EDGE_NORMALS[i]
        out.extend((erule.weights * REF_EDGE_LENGTHS[i] * vn) @ leg)
    rule = triangle_rule(2 * k + 4)
    vals = np.asarray([func(p) for p in rule.points])
    polys = ref.interior_polys(rule.points)
    out.extend(np.einsum("q,qp,qc->pc", rule.weights, polys, vals).ravel())
    return np.array(out)


def one_cell_mesh():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


# -- reference element ---------------------------------------------------------

@pytest.mark.parametrize("k,count", [(1, 8), (2, 15)])
def test_reference_basis_count(k, count):
    vals, divs, grads = rt_reference(k).eval_basis(np.array([[0.3, 0.3]]))
    assert vals.shape == (1, count, 2)
    assert divs.shape == (1, count) and grads.shape == (1, count, 2, 2)


def test_unsupported_degree():
    with pytest.raises(ValueError, match="supported"):
        rt_reference(3)


@pytest.mark.parametrize("k", [1, 2])
def test_dof_duality_identity(k):
    ref = rt_reference(k)
    dual = np.zeros((ref.n_dofs, ref.n_dofs))
    for b in range(ref.n_dofs):
        def basis_b(p, b=b):
            vals, _, _ = ref.eval_basis(np.asarray(p, dtype=float)[None, :])
            return vals[0, b]
        dual[:, b] = apply_dofs(ref, basis_b)
    assert np.abs(dual - np.eye(ref.n_dofs)).max() < 1e-10


@pytest.mark.parametrize("k", [1, 2])
def test_basis_divergence_lies_in_pk(k):
    # least-squares fit of each basis divergence by a degree-k polynomial
    # must be exact: div RT_k is a subset of P_k
    ref = rt_reference(k)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, 0.4, size=(60, 2))
    _, divs, _ = ref.eval_basis(pts)
    vander = eval_scalar_monomials(scalar_monomial_exponents(k), pts)
    coef, *_ = np.linalg.lstsq(vander, divs, rcond=None)
    assert np.abs(vander @ coef - divs).max() < 1e-9


# -- Piola transform -----------------------------------------------------------

def test_piola_identity_and_translation():
    ref = rt_reference(1)
    pts = np.array([[0.25, 0.5], [0.1, 0.2]])
    vals, divs, grads = ref.eval_basis(pts)
    v, d, g = piola_map(np.eye(2), vals, divs, grads)
    assert np.allclose(v, vals) and np.allclose(d, divs) and np.allclose(g, grads)
    # a pure translation has the same (identity) Jacobian
    mesh = Mesh(np.array([[3.0, 7.0], [4.0, 7.0], [3.0, 8.0]]),
                np.array([[0, 1, 2]]))
    v2 = piola_map(mesh.cell_jac[0], vals)
    assert np.allclose(v2, vals)


def test_piola_scaling_divergence_fd_oracle():
    s = 3.0
    jac = s * np.eye(2)
    ref = rt_reference(2)

    def mapped(x):
        ref_pt = np.asarray(x) / s
        vals, _, _ = ref.eval_basis(ref_pt[None, :])
        return piola_map(jac, vals[0])

    x0 = np.array([0.6, 0.9])
    vals, divs, _ = ref.eval_basis((x0 / s)[None, :])
    v, d = piola_map(jac, vals[0], divs[0])
    # value scales by 1/s, divergence by 1/s^2
    assert np.allclose(v, vals[0] / s)
    assert np.allclose(d, divs[0] / s ** 2)
    # central finite differences of the mapped field reproduce d
    h = 1e-6
    fd = ((mapped(x0 + [h, 0]) - mapped(x0 - [h, 0]))[:, 0]
          + (mapped(x0 + [0, h]) - mapped(x0 - [0, h]))[:, 1]) / (2 * h)
    assert np.abs(fd - d).max() < 1e-6 * max(1.0, np.abs(d).max())


def test_piola_rejects_degenerate_cell():
    with pytest.raises(ValueError, match="degenerate"):
        piola_map(np.zeros((2, 2)), np.array([1.0, 0.0]))


# -- interpolation ---------------------------------------------------------------

def test_interpolation_reproduces_rt1_field():
    mesh = one_cell_mesh()
    space = RTSpace(mesh, 1)
    u = lambda x, y: np.stack([1.0 + x, 2.0 + y], axis=-1)
    c = rt_interpolate(u, space, enforce_boundary=True)
    pts = np.random.default_rng(1).uniform(0.05, 0.4, size=(10, 2))
    vals = evaluate(space, c.values, np.zeros(10, dtype=int), pts)
    phys = mesh.map_to_physical(np.zeros(10, dtype=int), pts)
    assert np.abs(vals - u(phys[:, 0], phys[:, 1])).max() < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_commuting_property_pointwise(k):
    mesh = build_structured(4, 0.15, seed=0)
    space = RTSpace(mesh, k)
    q_space = ScalarDGSpace(mesh, k)
    u = lambda x, y: np.stack([np.sin(np.pi * x) * (1 + y),
                               np.cos(x) * y ** 2], axis=-1)
    div_u = lambda x, y: np.pi * np.cos(np.pi * x) * (1 + y) + 2 * y * np.cos(x)
    ci = rt_interpolate(u, space)
    proj = dg_project(q_space, div_u)
    rng = np.random.default_rng(3)
    for c in range(mesh.n_cells):
        pts = rng.uniform(0.0, 1.0, size=(20, 2))
        pts[pts.sum(axis=1) > 1.0] *= 0.5
        cells = np.full(20, c)
        _, grads = evaluate(space, ci.values, cells, pts, with_grad=True)
        div_h = grads[:, 0, 0] + grads[:, 1, 1]
        pk = dg_evaluate(q_space, proj, cells, pts)
        assert np.abs(div_h - pk).max() < 1e-9


@pytest.mark.parametrize("k", [1, 2])
def test_interpolant_of_solenoidal_field_is_div_free(k):
    mesh = build_structured(8, 0.15, seed=0)
    space = RTSpace(mesh, k)
    prob = manufactured.taylor_green(0.0)
    c = rt_interpolate(lambda x, y: prob.u(x, y, 0.0), space)
    assert manufactured.div_norm(space, c) <= 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_interpolation_convergence(k):
    prob = manufactured.taylor_green(0.0)
    errs = []
    hs = []
    for n in (8, 16, 32):
        mesh = build_structured(n, 0.15, seed=0)
        space = RTSpace(mesh, k)
        c = rt_interpolate(lambda x, y: prob.u(x, y, 0.0), space)
        errs.append(manufactured.l2_error(space, c, prob, 0.0))
        hs.append(1.0 / n)
    rates = manufactured.rate_table(hs, errs)
    assert all(k + 0.8 <= r <= k + 1.2 for r in rates)


# -- evaluation -------------------------------------------------------------------

def evaluate_at(space, coeffs, cell, ref_point):
    """Value and broken-gradient matrix of a field at one reference point."""
    val, grad = evaluate(space, coeffs.values, np.array([cell]), ref_point[None, :],
                               with_grad=True)
    return val[0], grad[0]


def test_evaluate_field_trivia():
    mesh = build_structured(2, 0.0)
    space = RTSpace(mesh, 1)
    zero = space.zero()
    val, grad = evaluate_at(space, zero, 0, np.array([0.2, 0.3]))
    assert np.all(val == 0) and np.all(grad == 0)

    u = lambda x, y: np.stack([0.5 * x + 2.0, -0.5 * y + 1.0], axis=-1)
    c = rt_interpolate(u, space, enforce_boundary=True)
    val, grad = evaluate_at(space, c, 3, np.array([0.25, 0.25]))
    phys = mesh.map_to_physical(np.array([3]), np.array([[0.25, 0.25]]))[0]
    assert np.allclose(val, u(phys[0], phys[1]), atol=1e-13)
    assert np.allclose(grad, np.array([[0.5, 0.0], [0.0, -0.5]]), atol=1e-12)


def test_evaluate_field_gradient_matches_finite_differences():
    mesh = build_structured(4, 0.1, seed=2)
    space = RTSpace(mesh, 2)
    rng = np.random.default_rng(4)
    coeffs = CoefVec(space, rng.normal(size=space.n_dofs))
    cell = 5
    ref = np.array([0.3, 0.25])
    _, grad = evaluate_at(space, coeffs, cell, ref)
    x0 = mesh.map_to_physical(np.array([cell]), ref[None, :])[0]
    h = 1e-6
    fd = np.empty((2, 2))
    for j, e in enumerate(np.eye(2)):
        rp = map_to_reference(mesh, np.array([cell, cell]),
                              np.array([x0 + h * e, x0 - h * e]))
        vp = evaluate(space, coeffs.values, np.array([cell, cell]), rp)
        fd[:, j] = (vp[0] - vp[1]) / (2 * h)
    scale = max(1.0, np.abs(grad).max())
    assert np.abs(fd - grad).max() / scale < 1e-6


def test_evaluate_field_space_mismatch():
    # a coefficient vector of another space is rejected, not misread
    mesh = build_structured(2, 0.0)
    s1 = RTSpace(mesh, 1)
    s2 = RTSpace(mesh, 2)
    c = s2.zero()
    with pytest.raises(ValueError, match="different space"):
        forms.divergence_l2_norm(s1, c)


# -- conformity invariants ---------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_normal_component_continuity(k):
    mesh = build_structured(4, 0.2, seed=1)
    space = RTSpace(mesh, k)
    coeffs = np.random.default_rng(5).normal(size=space.n_dofs)
    rule = segment_rule(9)  # 5 points
    for f in mesh.interior_facets:
        tp = trace_points(mesh, f, rule)
        nq = len(rule.points)
        vp = evaluate(space, coeffs, np.full(nq, mesh.facet_plus[f]), tp.ref_plus)
        vm = evaluate(space, coeffs, np.full(nq, mesh.facet_minus[f]), tp.ref_minus)
        assert np.abs((vp - vm) @ mesh.facet_normal[f]).max() < 1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_zeroed_boundary_dofs_kill_normal_trace(k):
    mesh = build_structured(4, 0.2, seed=1)
    space = RTSpace(mesh, k)
    coeffs = np.random.default_rng(6).normal(size=space.n_dofs)
    coeffs[space.boundary_dofs] = 0.0
    rule = segment_rule(9)
    worst = 0.0
    for f in mesh.boundary_facets:
        tp = trace_points(mesh, f, rule)
        nq = len(rule.points)
        vp = evaluate(space, coeffs, np.full(nq, mesh.facet_plus[f]), tp.ref_plus)
        worst = max(worst, np.abs(vp @ mesh.facet_normal[f]).max())
    assert worst <= 1e-12


# -- local dimensions and CoefVec ----------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_space_dimensions(k):
    mesh = build_structured(4, 0.0)
    space = RTSpace(mesh, k)
    assert space.n_loc == (k + 1) * (k + 3)
    q_space = ScalarDGSpace(mesh, k)
    assert q_space.n_loc == (k + 1) * (k + 2) // 2
    assert q_space.n_dofs == mesh.n_cells * q_space.n_loc


def test_shared_edge_dofs_have_relative_sign():
    mesh = build_structured(4, 0.1, seed=0)
    space = RTSpace(mesh, 1)
    ne = space.ref.n_edge_moments
    for f in mesh.interior_facets:
        cp, cm = mesh.facet_plus[f], mesh.facet_minus[f]
        ip = list(mesh.cell_facets[cp]).index(f)
        im = list(mesh.cell_facets[cm]).index(f)
        for j in range(ne):
            g = f * ne + j
            assert space.basis.dofs[ip * ne + j, cp] == g
            assert space.basis.dofs[im * ne + j, cm] == g
            sp = space.basis.signs[ip * ne + j, cp]
            sm = space.basis.signs[im * ne + j, cm]
            # lowest moment always sees an orientation flip across the facet
            if j == 0:
                assert sp * sm == -1


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3), seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
def test_local_bases_gather_scatter_and_assemble(k, n, perturb, seed):
    # the RT_k, stream-function and broken P_k bases: scatter is the
    # transpose of gather, and assemble is the loop sum of the local blocks,
    # on cells and across interior facets, within and between bases
    mesh = build_structured(n, perturb, seed=seed)
    space = RTSpace(mesh, k)
    proj = linsolve.StreamFunctionProjection(space)
    rt, stream, dg = space.basis, proj.basis, ScalarDGSpace(mesh, k).basis
    rng = np.random.default_rng(seed)
    for basis in (rt, stream, dg):
        x, y = rng.normal(size=basis.size), rng.normal(size=basis.dofs.shape)
        assert np.sum(basis.gather(x) * y) == pytest.approx(x @ basis.scatter(y), rel=1e-12)
    cells, plus, minus = (slice(None), mesh.facet_plus[mesh.interior_facets],
                          mesh.facet_minus[mesh.interior_facets])
    for trial, test in ((rt, rt), (stream, stream), (rt, dg), (stream, rt)):
        shape = (len(test.dofs), len(trial.dofs))
        blocks = [(rng.normal(size=(mesh.n_cells, *shape)), cells, cells),
                  (rng.normal(size=(len(plus), *shape)), plus, minus)]
        coo = trial.assemble(blocks, test=test)
        assert np.all(coo.data != 0)  # no triplet of a function of sign 0
        _assert_same_triplets(coo, loop_assemble(trial, test, blocks))
    # K lives on the interior nodes alone: every row holds a positive diagonal
    walls = mesh.boundary_facets
    n_nodes = mesh.n_vertices + k * mesh.n_facets + mesh.n_cells * k * (k - 1) // 2
    n_inner = n_nodes - len(np.unique(mesh.facet_vertices[walls])) - k * len(walls)
    assert stream.size == proj.matrix.shape[0] == n_inner
    assert np.all(proj.matrix.diagonal() > 0)


def _assert_same_triplets(got, want):
    assert np.array_equal(got.row, want.row) and np.array_equal(got.col, want.col)
    assert got.data.tobytes() == want.data.tobytes()


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3), seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
def test_assemble_matches_the_cell_loop_on_the_curl_k_and_mass(k, n, perturb, seed):
    # the curl (C_loc, one 2-D block on every cell, tested in the owner basis
    # on the free DOFs), K and the mass (3-D blocks per cell): the triplets
    # are the oracle's bit for bit, no function of sign 0 makes one, and the
    # shared block stores no zero
    calls, assemble = [], LocalBasis.assemble

    def spy(trial, blocks, test=None):
        calls.append((trial, test or trial, blocks, assemble(trial, blocks, test)))
        return calls[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LocalBasis, "assemble", spy)
        space = RTSpace(build_structured(n, perturb, seed=seed), k)
        proj = linsolve.StreamFunctionProjection(space)
        forms.assemble_mass(space)
    assert [blocks[0][0].ndim for _, _, blocks, _ in calls] == [2, 3, 3]
    for trial, test, blocks, coo in calls:
        _assert_same_triplets(coo, loop_assemble(trial, test, blocks))
    (stream, owned, _, curl), (_, _, (stiffness,), k_coo) = calls[:2]
    assert np.count_nonzero(owned.signs == 0) > np.count_nonzero(space.basis.signs == 0) == 0
    assert np.count_nonzero(stream.signs == 0) > 0
    assert np.all(curl.data != 0) and np.count_nonzero(proj.curl.data) == proj.curl.nnz == curl.nnz
    live = (stream.signs != 0).sum(axis=0)
    assert k_coo.nnz == np.sum(live ** 2) < stiffness[0].size


@pytest.mark.parametrize("k", [1, 2])
def test_normal_trace_legendre_reconstruction(k):
    # u . n_F rebuilt from the k+1 shared edge DOFs matches the side traces,
    # and the facet-trace kernel's flux w_q |F| u . n_F read from the plus
    # trace matches it on the interior facets
    mesh = build_structured(4, 0.2, seed=3)
    space = RTSpace(mesh, k)
    coeffs = np.random.default_rng(9).normal(size=space.n_dofs)
    order = 7
    rule = segment_rule(order)
    rebuilt = facet_normal_values(space, edge_tables(space, order), coeffs)
    for f in range(mesh.n_facets):
        tp = trace_points(mesh, f, rule)
        cells = np.full(len(rule.points), mesh.facet_plus[f])
        traced = evaluate(space, coeffs, cells, tp.ref_plus) @ mesh.facet_normal[f]
        assert np.abs(traced - rebuilt[f]).max() < 1e-11
    ft = space.facet_traces(order)
    loc = space.basis.gather(coeffs)
    _, flux = forms._jump_and_flux(ft, ft["table"], loc, loc)
    ii = mesh.interior_facets
    want = rule.weights[:, None] * mesh.facet_length[ii] * rebuilt[ii].T
    assert np.abs(flux - want).max() < 1e-11 * np.abs(want).max()


def test_coefvec_validation_and_finiteness():
    # non-finite values are caught on the public path, by the projection
    # (test_linsolve.py::test_blowup_signal_on_nonfinite_rhs)
    mesh = build_structured(2, 0.0)
    space = RTSpace(mesh, 1)
    with pytest.raises(ValueError):
        CoefVec(space, np.zeros(3))


def test_scalar_projection_reproduces_polynomials():
    mesh = build_structured(3, 0.1, seed=1)
    for k in (1, 2):
        q_space = ScalarDGSpace(mesh, k)
        f = lambda x, y: 1.0 + 2.0 * x - y + (x * y if k > 1 else 0.0)
        c = dg_project(q_space, f)
        pts = np.random.default_rng(7).uniform(0.1, 0.4, size=(8, 2))
        cells = np.random.default_rng(8).integers(0, mesh.n_cells, 8)
        vals = dg_evaluate(q_space, c, cells, pts)
        phys = mesh.map_to_physical(cells, pts)
        assert np.abs(vals - f(phys[:, 0], phys[:, 1])).max() < 1e-12
