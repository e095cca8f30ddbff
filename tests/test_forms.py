import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divfreedg import build_structured, forms, linsolve, manufactured
from divfreedg.fe_space import CoefVec, RTSpace, ScalarDGSpace, rt_interpolate
from divfreedg.mesh import Mesh
from divfreedg.quadrature import segment_rule, triangle_rule
from conftest import (dg_project, div_l2_through_b, evaluate, full_jump_apply,
                      full_jump_seminorm, physical_sip, physical_sip_boundary_load,
                      project_velocity, random_div_free, trace_points,
                      use_full_vector_kernel)


def one_cell_mesh():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


def cell_samples(space, coeffs, order):
    """u_h and its broken gradient at a volume rule in every cell, through
    pointwise evaluation, with the weights times det J."""
    rule = triangle_rule(order)
    cells = np.arange(space.mesh.n_cells)[:, None]
    uh, gh = evaluate(space, coeffs, cells, rule.points, with_grad=True)
    return uh, gh, rule.weights[None, :] * space.mesh.cell_detj[:, None]


# -- mass matrix ---------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_mass_spd(spaces, k):
    entry = spaces(4, k)
    M = forms.assemble_mass(entry["space"])
    sym = np.abs(M - M.T).max()
    assert sym <= 1e-12 * np.abs(M).max()
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=entry["space"].n_dofs)
        assert x @ (M @ x) > 0


def test_mass_norm_matches_direct_quadrature(spaces):
    entry = spaces(8, 1)
    space = entry["space"]
    prob = manufactured.taylor_green(0.0)
    c = rt_interpolate(lambda x, y: prob.u(x, y, 0.0), space)
    M = forms.assemble_mass(space)
    energy = c.values @ (M @ c.values)
    # oracle: direct quadrature of |u_h|^2 at an unrelated, higher order
    uh, _, wdet = cell_samples(space, c.values, 2 * space.k + 7)
    direct = np.sum(wdet * np.sum(uh ** 2, axis=-1))
    assert energy == pytest.approx(direct, rel=1e-10)


def test_mass_rule_refinement_single_cell():
    mesh = one_cell_mesh()
    space = RTSpace(mesh, 1)
    coarse = forms.assemble_mass(space, order=5).toarray()
    fine = forms.assemble_mass(space, order=9).toarray()
    assert np.abs(coarse - fine).max() < 1e-12


# -- divergence matrix -----------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_div_of_interpolated_curl_field(spaces, k):
    entry = spaces(8, k)
    space, q_space = entry["space"], entry["q_space"]
    B = forms.assemble_div(space, q_space)
    # u = curl psi is exactly divergence-free with u.n = 0 on the boundary
    curl_psi = lambda x, y: np.pi * np.stack(
        [np.sin(np.pi * x) * np.cos(np.pi * y),
         -np.cos(np.pi * x) * np.sin(np.pi * y)], axis=-1)
    c = rt_interpolate(curl_psi, space, enforce_boundary=True)
    assert np.abs(B @ c.values).max() <= 1e-10 * np.linalg.norm(c.values)


def test_div_matrix_divergence_theorem(spaces):
    entry = spaces(4, 1)
    space, q_space = entry["space"], entry["q_space"]
    B = forms.assemble_div(space, q_space)
    c = rt_interpolate(lambda x, y: np.stack([x, y], axis=-1), space)
    ones = dg_project(q_space, lambda x, y: np.ones_like(x))
    assert ones @ (B @ c.values) == pytest.approx(2.0, abs=1e-10)
    assert np.abs(B @ np.zeros(space.n_dofs)).max() == 0.0


def test_div_degree_mismatch_rejected(meshes):
    mesh = meshes(2)
    with pytest.raises(ValueError, match="degree"):
        forms.assemble_div(RTSpace(mesh, 1), ScalarDGSpace(mesh, 2))


# -- divergence norm --------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_divergence_norm_of_interpolated_radial_field(spaces, k):
    # div Pi u = pi_k div u = 2 on the unit square, so ||div Pi u|| = 2
    space = spaces(4, k)["space"]
    c = rt_interpolate(lambda x, y: np.stack([x, y], axis=-1), space,
                       enforce_boundary=True)
    assert forms.divergence_l2_norm(space, c) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_divergence_norm_matches_b_matrix_oracle(spaces, k):
    # the quadrature measure against the moments B u of the broken P_k
    # divergence, on fields that are far from solenoidal
    entry = spaces(4, k)
    space, q_space = entry["space"], entry["q_space"]
    div = forms.assemble_div(space, q_space)
    rng = np.random.default_rng(10 + k)
    for _ in range(3):
        c = rng.normal(size=space.n_dofs)
        oracle = div_l2_through_b(space, q_space, c, div)
        assert forms.divergence_l2_norm(space, c) == pytest.approx(oracle, rel=1e-12)


# -- convection -------------------------------------------------------------------

@pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (8, 1), (8, 2)])
def test_upwind_dissipation_identity(spaces, n, k):
    entry = spaces(n, k, with_saddle=True)
    space = entry["space"]
    rng = np.random.default_rng(10 * n + k)
    for _ in range(5):
        a = random_div_free(entry, rng)
        v = random_div_free(entry, rng)
        r = forms.apply_convection(space, a, v)
        lhs = r @ v.values
        rhs = forms.jump_seminorm(space, a, v)
        assert rhs >= 0
        assert abs(lhs - rhs) <= 1e-11 * max(abs(rhs), 1e-14)


def test_convection_zero_advection(spaces):
    entry = spaces(4, 1)
    space = entry["space"]
    w = CoefVec(space, np.random.default_rng(1).normal(size=space.n_dofs))
    r = forms.apply_convection(space, space.zero(), w)
    assert np.abs(r).max() == 0.0
    C = forms.convection_matrix(space, space.zero())
    assert abs(C).max() == 0.0


def _random_fields(space, rng):
    """An advecting field with zero boundary-normal DOFs and a field with
    every DOF set; neither is divergence-free."""
    a = rng.normal(size=space.n_dofs)
    a[space.boundary_dofs] = 0.0
    return CoefVec(space, a), CoefVec(space, rng.normal(size=space.n_dofs))


def _rel(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


@pytest.mark.parametrize("k", [1, 2])
def test_trace_kernel_matches_full_jump_oracle(spaces, k):
    entry = spaces(6, k, with_saddle=True)
    space = entry["space"]
    rng = np.random.default_rng(20 + k)
    a, w = _random_fields(space, rng)
    u = random_div_free(entry, rng)
    for adv, field in ((a, w), (u, w), (a, a), (u, u)):
        assert _rel(forms.apply_convection(space, adv, field),
                    full_jump_apply(space, adv, field)) <= 1e-12
        assert _rel(forms.jump_seminorm(space, adv, field),
                    full_jump_seminorm(space, adv, field)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_trace_kernel_matches_full_jump_oracle_at_other_orders(spaces, k):
    # an even and an odd number of facet points: the reversed slots read
    # q -> nq - 1 - q either way, and the middle point maps to itself
    space = spaces(4, k, perturb=0.2, seed=3)["space"]
    a, w = _random_fields(space, np.random.default_rng(30 + k))
    for cell_order, facet_order in ((2 * k + 5, 2 * k + 4), (4 * k + 2, 2 * k + 6)):
        assert _rel(forms.apply_convection(space, a, w, cell_order, facet_order),
                    full_jump_apply(space, a, w, cell_order, facet_order)) <= 1e-12
        assert _rel(forms.jump_seminorm(space, a, w, facet_order),
                    full_jump_seminorm(space, a, w, facet_order)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_trace_kernel_zero_advection_is_exactly_zero(spaces, k):
    space = spaces(6, k)["space"]
    _, w = _random_fields(space, np.random.default_rng(40 + k))
    assert np.all(forms.apply_convection(space, space.zero(), w) == 0.0)
    assert forms.jump_seminorm(space, space.zero(), w) == 0.0


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3),
       mesh_seed=st.integers(0, 2 ** 32 - 1), field_seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
def test_stream_basis_kernels_match_the_velocity_basis(k, n, perturb, mesh_seed,
                                                       field_seed):
    # on the stream-function values psi the apply is C^T c_h(C psi_a, C psi_w, .)
    # and the seminorm that of C psi; a = w passed as one object takes the
    # shared-trace path
    space = RTSpace(build_structured(n, perturb, seed=mesh_seed), k)
    stream = linsolve.StreamFunctionProjection(space)
    basis, free = stream.basis, space.free_dofs
    psi_a, psi_w = np.random.default_rng(field_seed).normal(size=(2, basis.size))
    u_a, u_w = stream.velocity(psi_a), stream.velocity(psi_w)
    for (pa, pw), (ua, uw) in (((psi_a, psi_w), (u_a, u_w)), ((psi_a, psi_a), (u_a, u_a))):
        want = stream.curl_t @ forms.apply_convection(space, ua, uw)[free]
        assert _rel(forms.apply_convection(space, pa, pw, basis=basis), want) <= 1e-13
        assert forms.jump_seminorm(space, pa, pw, basis=basis) == \
            pytest.approx(forms.jump_seminorm(space, ua, uw), rel=1e-13)
    # the upwind identity psi_v^T b(psi_a, psi_v) = |C psi_v|^2_{a,up}
    pairing = psi_w @ forms.apply_convection(space, psi_a, psi_w, basis=basis)
    assert pairing == pytest.approx(forms.jump_seminorm(space, u_a, u_w), rel=1e-11)


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3),
       mesh_seed=st.integers(0, 2 ** 32 - 1), field_seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
def test_volume_rules_of_the_basis_degree_are_exact(k, n, perturb, mesh_seed, field_seed):
    # a . grad w . v of degree-k curls has degree 3k - 1, and div u_h in P_k
    # squared has degree 2k: the default rules give what order 2k + 3 gives,
    # and a rule with fewer points (order 2k - 1) does not
    space = RTSpace(build_structured(n, perturb, seed=mesh_seed), k)
    stream = linsolve.StreamFunctionProjection(space)
    basis, full, coarse = stream.basis, forms.default_cell_order(k), 2 * k - 1
    rng = np.random.default_rng(field_seed)
    psi_a, psi_w = rng.normal(size=(2, basis.size))

    def apply(order):
        return forms.apply_convection(space, psi_a, psi_w, order, basis=basis)

    assert _rel(apply(None), apply(full)) <= 1e-13
    assert _rel(apply(coarse), apply(full)) > 1e-8

    def cn_blocks(a, order):
        return forms.convection_blocks(space, a, forms.convection_tables(space, basis, order))

    for a in (stream.velocity(psi_a), _random_fields(space, rng)[0]):
        want = cn_blocks(a, full)
        assert all(_rel(got, old) <= 1e-13 for (got, _, _), (old, _, _)
                   in zip(cn_blocks(a, None), want))
        assert _rel(cn_blocks(a, coarse)[0][0], want[0][0]) > 1e-8

    u = rng.normal(size=space.n_dofs)
    norm = forms.divergence_l2_norm(space, u, full)
    assert abs(forms.divergence_l2_norm(space, u) - norm) <= 1e-13 * norm
    assert abs(forms.divergence_l2_norm(space, u, 2 * k - 2) - norm) > 1e-8 * norm


@pytest.mark.parametrize("k", [1, 2])
def test_velocity_basis_convection_is_exact_for_a_curl(k):
    # on RTSpace.basis the default volume rule 2k + 3 integrates a . grad w
    # . v exactly when a = C psi lies in [P_k]^2 (degree 3k + 1 with w in
    # RT_k): the apply and the matrix equal their order-10 evaluations.  A
    # random, not solenoidal a has degree 3k + 2, which the rule misses at
    # k = 2 (orders 7 and 8 differ) and meets at k = 1
    space = RTSpace(build_structured(6, 0.2, seed=1), k)
    stream = linsolve.StreamFunctionProjection(space)
    rng = np.random.default_rng(40 + k)
    a = stream.velocity(rng.normal(size=stream.basis.size))
    w = CoefVec(space, rng.normal(size=space.n_dofs))

    def apply(order=None):
        return forms.apply_convection(space, a, w, order)

    assert _rel(apply(), apply(10)) <= 1e-13
    want = forms.convection_matrix(space, a, 10).toarray()
    assert _rel(forms.convection_matrix(space, a).toarray(), want) <= 1e-13

    a, w = _random_fields(space, rng)
    moved = _rel(apply(7), apply(8))
    assert moved > 0.05 if k == 2 else moved <= 1e-13


def test_stream_basis_rejects_a_velocity_vector(spaces):
    space = spaces(4, 1)["space"]
    basis = linsolve.StreamFunctionProjection(space).basis
    with pytest.raises(ValueError, match="coefficients for a basis of"):
        forms.apply_convection(space, space.zero().values, space.zero().values,
                               basis=basis)


def test_convection_single_cell_over_integration_oracle():
    # polynomial data on one cell: compare against brute-force order-12
    # quadrature of (a . grad) w . phi_i (no interior facets exist)
    mesh = one_cell_mesh()
    space = RTSpace(mesh, 2)
    a_field = lambda x, y: np.stack([1.0 + x - 2 * y, 3.0 - x + 0.5 * y], axis=-1)
    w_field = lambda x, y: np.stack([x * y, x - y * y], axis=-1)
    a = rt_interpolate(a_field, space, enforce_boundary=True)
    w = rt_interpolate(w_field, space, enforce_boundary=True)
    r = forms.apply_convection(space, a, w)

    rule = triangle_rule(12)
    cells = np.zeros(len(rule.weights), dtype=int)
    av = evaluate(space, a.values, cells, rule.points)
    _, gw = evaluate(space, w.values, cells, rule.points, with_grad=True)
    conv = np.einsum("qab,qb->qa", gw, av)
    rv, _, _ = space.ref.eval_basis(rule.points)
    phys = np.einsum("ab,qib->qia", mesh.cell_jac[0], rv) / mesh.cell_detj[0]
    oracle = np.einsum("q,qa,qia->i", rule.weights * mesh.cell_detj[0], conv, phys)
    oracle = oracle * space.basis.signs[:, 0]
    r_loc = r[space.basis.dofs[:, 0]]
    assert np.abs(r_loc - oracle).max() < 1e-11 * max(1.0, np.abs(oracle).max())


def test_convection_matrix_consistency(spaces):
    entry = spaces(4, 2, with_saddle=True)
    space = entry["space"]
    rng = np.random.default_rng(3)
    a = random_div_free(entry, rng)
    C = forms.convection_matrix(space, a)
    for _ in range(5):
        w = CoefVec(space, rng.normal(size=space.n_dofs))
        direct = forms.apply_convection(space, a, w)
        scale = max(np.abs(direct).max(), 1.0)
        assert np.abs(C @ w.values - direct).max() <= 1e-12 * scale


def test_convection_matrix_nonnegative_on_div_free(spaces):
    entry = spaces(4, 1, with_saddle=True)
    space = entry["space"]
    rng = np.random.default_rng(4)
    a = random_div_free(entry, rng)
    C = forms.convection_matrix(space, a)
    for _ in range(5):
        x = random_div_free(entry, rng).values
        assert x @ (C @ x) >= -1e-11


@pytest.mark.parametrize("k", [1, 2])
def test_tangential_blocks_match_full_vector_oracle(meshes, k, monkeypatch):
    # single tangential blocks differ from the full-vector ones by normal
    # parts that cancel across each facet for conforming trial functions, so
    # the assembled operators agree to roundoff and keep their pattern
    space = RTSpace(meshes(5, 0.3, seed=2), k)
    params = forms.FormParams(nu=0.01)
    rng = np.random.default_rng(11)
    stream = linsolve.StreamFunctionProjection(space, params)
    div_free = project_velocity(stream, rng.normal(size=len(space.free_dofs)))
    fields = [div_free, _random_fields(space, rng)[0]]

    def operators():
        proj = linsolve.StreamFunctionProjection(space, params)
        return [op for a in fields for op in (
            proj.cn_matrix(a, 0.05, 0.5, 0.01), proj.cn_matrix(a, 1 / 200, 1.0, 0.0),
            forms.convection_matrix(space, a).tocsc())]

    tangential = operators()
    assert tangential[0].format == "csc"  # SuperLU takes the CN operator as it is
    use_full_vector_kernel(monkeypatch)
    for new, old in zip(tangential, operators()):
        new.eliminate_zeros()
        old.eliminate_zeros()
        assert np.abs(new - old).max() <= 1e-13 * np.abs(old).max()
        assert np.array_equal(new.indptr, old.indptr)
        assert np.array_equal(new.indices, old.indices)

    monkeypatch.undo()
    blocks = forms.convection_blocks(space, space.zero(), forms.convection_tables(space))
    for blk, _, _ in blocks:
        assert not np.any(blk)


# -- SIP ----------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_sip_blocks_match_physical_oracle(meshes, k):
    # the SIP blocks on the reference traces, scattered on the velocity DOFs
    # (boundary DOFs included) and summed on the stream nodes, against the
    # physical-trace assembly of ``conftest``
    space = RTSpace(meshes(5, 0.3, seed=2), k)
    params = forms.FormParams(nu=0.01)
    oracle = physical_sip(space, params)
    A = forms.assemble_sip(space, params)
    assert np.abs(A - oracle).max() <= 1e-13 * np.abs(oracle).max()
    g = lambda x, y: np.stack([np.sin(3 * x) * y + 1.0, np.cos(2 * y) - x], axis=-1)
    load, want = forms.assemble_sip_boundary_load(space, g, params), \
        physical_sip_boundary_load(space, g, params)
    assert np.abs(load - want).max() <= 1e-13 * np.abs(want).max()

    stream = linsolve.StreamFunctionProjection(space, params)
    free = space.free_dofs
    nodal, product = stream.reduced_sip.tocsc(), (stream.curl.T @ oracle[free][:, free]
                                                  @ stream.curl).tocsc()
    assert np.abs(nodal - product).max() <= 1e-13 * np.abs(product).max()
    for mat in (nodal, product):
        mat.eliminate_zeros()
        mat.sort_indices()
    assert np.array_equal(nodal.indptr, product.indptr)
    assert np.array_equal(nodal.indices, product.indices)


@pytest.mark.parametrize("k", [1, 2])
def test_sip_symmetry(spaces, k):
    entry = spaces(4, k)
    A = forms.assemble_sip(entry["space"], forms.FormParams(nu=1.0))
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()


def test_sip_coercivity_spot_check(spaces):
    entry = spaces(4, 1)
    space = entry["space"]
    A = forms.assemble_sip(space, forms.FormParams(sigma=10.0, nu=1.0)).toarray()
    rng = np.random.default_rng(5)
    basis = rng.normal(size=(space.n_dofs, 20))
    sub = basis.T @ A @ basis
    gram = basis.T @ basis
    eig = np.linalg.eigvalsh(np.linalg.solve(gram, sub + sub.T) / 2.0)
    assert eig.min() >= -1e-10


def test_sip_rejects_nonpositive_sigma(spaces):
    entry = spaces(2, 1, perturb=0.0)
    with pytest.raises(ValueError, match="sigma"):
        forms.assemble_sip(entry["space"], forms.FormParams(sigma=-1.0))


def test_sip_energy_matches_direct_quadrature(spaces):
    # interpolated smooth field: normal jumps vanish, tangential jumps remain;
    # rebuild a_h(u, u) from pointwise traces, independently of assembly
    entry = spaces(4, 1)
    space, mesh = entry["space"], entry["mesh"]
    sigma = forms.default_sigma(space.k)
    A = forms.assemble_sip(space, forms.FormParams(sigma=sigma, nu=1.0))
    u = rt_interpolate(lambda x, y: np.stack(
        [np.sin(x) * np.cos(y), np.cos(x) * np.sin(y)], axis=-1),
        space, enforce_boundary=False)
    quad_form = float(u.values @ (A @ u.values))

    _, gh, wdet = cell_samples(space, u.values, 2 * space.k + 3)
    direct = np.sum(wdet * np.sum(gh ** 2, axis=(-2, -1)))
    rule = segment_rule(2 * space.k + 3)
    nq = len(rule.points)
    for f in range(mesh.n_facets):
        tp = trace_points(mesh, f, rule)
        nrm = mesh.facet_normal[f]
        cp = np.full(nq, mesh.facet_plus[f])
        vp, gp = evaluate(space, u.values, cp, tp.ref_plus, with_grad=True)
        if mesh.facet_is_boundary[f]:
            jump, avg_gn = vp, gp @ nrm
        else:
            cm = np.full(nq, mesh.facet_minus[f])
            vm, gm = evaluate(space, u.values, cm, tp.ref_minus, with_grad=True)
            jump, avg_gn = vp - vm, 0.5 * (gp + gm) @ nrm
        direct += np.sum(tp.weights * (-2.0 * np.sum(avg_gn * jump, axis=-1)
                                       + sigma / mesh.facet_length[f]
                                       * np.sum(jump ** 2, axis=-1)))
    assert quad_form == pytest.approx(direct, rel=1e-9)


def test_sip_boundary_load_consistency(spaces):
    # for a linear field g (harmonic, interpolated exactly, continuous),
    # a_h(Pi g, v) equals the inhomogeneous boundary functional of g for
    # every v: elementwise integration by parts leaves no volume residual
    entry = spaces(4, 1)
    space = entry["space"]
    g = lambda x, y: np.stack([2.0 * x - y + 1.0, 0.5 * x + 3.0 * y], axis=-1)
    params = forms.FormParams(nu=1.0)
    A = forms.assemble_sip(space, params)
    c = rt_interpolate(g, space, enforce_boundary=True)
    bload = forms.assemble_sip_boundary_load(space, g, params)
    residual = A @ c.values - bload
    assert np.abs(residual).max() <= 1e-11 * max(np.abs(bload).max(), 1.0)
    zero = forms.assemble_sip_boundary_load(
        space, lambda x, y: np.zeros(x.shape + (2,)), params)
    assert np.abs(zero).max() == 0.0


# -- load vectors -----------------------------------------------------------------

def test_load_zero_forcing(spaces):
    entry = spaces(4, 1)
    zero = forms.assemble_load(entry["space"], lambda x, y: np.zeros(x.shape + (2,)))
    assert np.abs(zero).max() == 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_gradient_load_invisible_after_projection(spaces, k):
    entry = spaces(8, k, with_saddle=True)
    space = entry["space"]
    grad_phi = lambda x, y: np.stack([3 * np.cos(3 * x) * np.cos(2 * y),
                                      -2 * np.sin(3 * x) * np.sin(2 * y)], axis=-1)
    load = forms.assemble_load(space, grad_phi)
    u = linsolve.project_div_free(entry["saddle"], load[space.free_dofs])
    M = entry["saddle"].mass
    assert np.sqrt(u.values @ (M @ u.values)) <= 1e-10


def test_manufactured_load_matches_direct_quadrature(spaces):
    entry = spaces(8, 1)
    space, mesh = entry["space"], entry["mesh"]
    prob = manufactured.taylor_green(0.0)
    f0 = lambda x, y: prob.f(x, y, 0.0)
    base = forms.assemble_load(space, f0, order=20)
    assert np.all(np.isfinite(base))
    # oracle: rebuild every entry from pointwise basis evaluation, without
    # the assembly tables (both converged at this depth for the 4pi forcing)
    rule = triangle_rule(20)
    nq = len(rule.weights)
    oracle = np.zeros(space.n_dofs)
    for c in range(mesh.n_cells):
        cells = np.full(nq, c)
        phys = mesh.map_to_physical(cells, rule.points)
        rv, _, _ = space.ref.eval_basis(rule.points)
        pv = np.einsum("ab,qib->qia", mesh.cell_jac[c], rv) / mesh.cell_detj[c]
        vals = np.einsum("q,qa,qia->i", rule.weights * mesh.cell_detj[c],
                         f0(phys[:, 0], phys[:, 1]), pv)
        oracle[space.basis.dofs[:, c]] += vals * space.basis.signs[:, c]
    assert np.linalg.norm(base - oracle) <= 1e-10 * np.linalg.norm(oracle)
    # the default order is converged to well below discretization error
    default = forms.assemble_load(space, f0)
    assert np.linalg.norm(default - base) <= 1e-7 * np.linalg.norm(base)


# -- jump seminorm -----------------------------------------------------------------

def test_jump_seminorm_trivia(spaces):
    entry = spaces(4, 1, with_saddle=True)
    space = entry["space"]
    rng = np.random.default_rng(6)
    a = random_div_free(entry, rng)
    assert forms.jump_seminorm(space, a, space.zero()) == 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_jump_seminorm_refinement_decay(k):
    from divfreedg.mesh import build_structured
    prob = manufactured.taylor_green(0.0)
    vals = []
    for n in (4, 8, 16):
        mesh = build_structured(n, 0.15, seed=0)
        space = RTSpace(mesh, k)
        c = rt_interpolate(lambda x, y: prob.u(x, y, 0.0), space)
        vals.append(forms.jump_seminorm(space, c, c))
    # smooth interpolant: tangential jumps O(h^{k+1}) -> seminorm ~ h^{2k+1}
    assert vals[0] > vals[1] > vals[2]
    observed = np.log2(vals[1] / vals[2])
    assert observed > 2 * k + 0.5


def test_jump_seminorm_equals_convection_pairing(spaces):
    entry = spaces(8, 2, with_saddle=True)
    space = entry["space"]
    rng = np.random.default_rng(7)
    a = random_div_free(entry, rng)
    v = random_div_free(entry, rng)
    r = forms.apply_convection(space, a, v)
    assert r @ v.values == pytest.approx(forms.jump_seminorm(space, a, v),
                                         rel=1e-11)


# -- quadrature refinement stability -------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_assembled_entries_stable_under_order_doubling(spaces, k):
    # The upwind weight |a . n_F| is only piecewise smooth where the normal
    # flux changes sign inside a facet, so entry-level exactness is checked
    # with a sign-definite advecting field; everything else is polynomial.
    entry = spaces(4, k, with_saddle=True)
    space, q_space = entry["space"], entry["q_space"]
    co, fo = forms.default_cell_order(k), forms.default_facet_order(k)

    pairs = [
        (forms.assemble_mass(space), forms.assemble_mass(space, order=2 * co)),
        (forms.assemble_div(space, q_space),
         forms.assemble_div(space, q_space, order=2 * co)),
    ]
    a = rt_interpolate(lambda x, y: np.stack(
        [np.full_like(x, 0.9), np.full_like(y, 0.35)], axis=-1),
        space, enforce_boundary=True)
    pairs.append((forms.convection_matrix(space, a),
                  forms.convection_matrix(space, a, cell_order=2 * co,
                                          facet_order=2 * fo)))
    params = forms.FormParams(nu=1.0)
    doubled = forms.FormParams(nu=1.0, cell_order=2 * co, facet_order=2 * fo)
    pairs.append((forms.assemble_sip(space, params),
                  forms.assemble_sip(space, doubled)))
    for base, fine in pairs:
        scale = np.abs(base).max()
        assert np.abs(base - fine).max() <= 1e-11 * scale
