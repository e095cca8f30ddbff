import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from divfreedg import build_structured, forms, linsolve, manufactured
from divfreedg.fe_space import RTSpace, ScalarDGSpace
from divfreedg.forms import FormParams
from divfreedg.integrators import Discretization
from divfreedg.mesh import Mesh

from conftest import (BorderedCN, physical_sip, project_velocity, projections,
                      random_div_free, refined_solve)

# Each property test below runs on both projection objects of
# ``conftest.projections``: the bordered KKT oracle and the stream function,
# compared as velocities through ``conftest.project_velocity``.  The CN tests
# pair the stream-function CNSystem with the bordered CN oracle of
# ``conftest.BorderedCN`` on the KKT unknowns.


def cn_systems(entry, advect, tau, **kwargs):
    """The CN step on each projection of ``entry``: the bordered KKT oracle
    and the CNSystem on the stream-function nodes."""
    saddle, stream = projections(entry)
    return [BorderedCN(saddle, advect, tau, **kwargs),
            linsolve.CNSystem(stream, advect, tau, **kwargs)]


def test_saddle_roundtrip(spaces):
    # projecting the mass image of a divergence-free field returns the field
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    space = entry["space"]
    rng = np.random.default_rng(0)
    c = random_div_free(entry, rng)
    mass = entry["saddle"].mass
    for sys in projections(entry):
        back = project_velocity(sys, mass @ c.values)
        assert np.abs(back.values - c.values).max() <= 1e-10, type(sys).__name__


def test_projection_of_gradient_load_vanishes(spaces):
    entry = spaces(2, 1, perturb=0.0)
    space = entry["space"]
    grad_phi = lambda x, y: np.stack([np.cos(x + 2 * y), 2 * np.cos(x + 2 * y)],
                                     axis=-1)
    load = forms.assemble_load(space, grad_phi)
    for sys in projections(entry):
        u = project_velocity(sys, load)
        mass = entry["saddle"].mass
        assert np.sqrt(u.values @ (mass @ u.values)) <= 1e-10, type(sys).__name__


def test_solver_determinism(spaces):
    entry = spaces(4, 1, with_saddle=True)
    sys = entry["saddle"]
    rhs = np.random.default_rng(1).normal(size=sys.n_free)
    a = linsolve.project_div_free(sys, rhs)
    b = linsolve.project_div_free(sys, rhs)
    assert np.array_equal(a.values, b.values)


def test_projection_idempotent_and_div_free(spaces):
    entry = spaces(4, 2)
    space = entry["space"]
    for sys in projections(entry):
        rng = np.random.default_rng(2)
        for _ in range(3):
            rhs = rng.normal(size=space.n_dofs)
            u = project_velocity(sys, rhs)
            assert manufactured.div_norm(space, u) <= 1e-11, type(sys).__name__
            assert np.all(u.values[space.boundary_dofs] == 0.0)
            mass_u = entry["saddle"].mass @ u.values
            again = project_velocity(sys, mass_u)
            assert np.abs(again.values - u.values).max() <= 1e-10, type(sys).__name__


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3),
       mesh_seed=st.integers(0, 2 ** 32 - 1), field_seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
def test_projection_property_on_random_meshes(k, n, perturb, mesh_seed, field_seed):
    # the divergence left by roundoff scales with the field, so the
    # projected field is a random one of unit L2 norm
    mesh = build_structured(n, perturb, seed=mesh_seed)
    space = RTSpace(mesh, k)
    saddle = linsolve.build_saddle(space, ScalarDGSpace(mesh, k))
    c = np.random.default_rng(field_seed).normal(size=space.n_dofs)
    mass = saddle.mass
    c /= np.sqrt(c @ (mass @ c))
    for sys in (saddle, linsolve.StreamFunctionProjection(space)):
        u = project_velocity(sys, mass @ c)
        assert manufactured.div_norm(space, u) <= 1e-11, type(sys).__name__
        again = project_velocity(sys, mass @ u.values)
        assert np.abs(again.values - u.values).max() <= 1e-10, type(sys).__name__


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3),
       mesh_seed=st.integers(0, 2 ** 32 - 1), field_seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
def test_stream_function_matches_kkt_on_random_meshes(k, n, perturb, mesh_seed,
                                                      field_seed):
    mesh = build_structured(n, perturb, seed=mesh_seed)
    space = RTSpace(mesh, k)
    sip = physical_sip(space, FormParams(nu=0.01))
    kkt = linsolve.build_saddle(space, ScalarDGSpace(mesh, k))
    stream = linsolve.StreamFunctionProjection(space, FormParams(nu=0.01))
    mass = kkt.mass

    def rel_mass_norm(a, b):
        d = a.values - b.values
        return np.sqrt(d @ (mass @ d) / (b.values @ (mass @ b.values)))

    rng = np.random.default_rng(field_seed)
    rhs = rng.normal(size=space.n_dofs)
    assert rel_mass_norm(project_velocity(stream, rhs), project_velocity(kkt, rhs)) <= 1e-12

    # C maps onto every RT DOF with empty wall rows, and B C = 0: the curl
    # lands in the kernel of the divergence rows
    curl = stream.curl
    assert curl.shape[0] == space.n_dofs and curl[space.boundary_dofs].nnz == 0
    assert np.abs((kkt.div_free @ curl[kkt.free]).toarray()).max() <= 1e-12
    # the cell-by-cell stiffness is C^T M C
    product = (curl.T @ kkt.mass @ curl).toarray()
    assert np.abs(stream.matrix.toarray() - product).max() \
        <= 1e-12 * np.abs(product).max()

    # one viscous CN step with a random divergence-free advecting field of
    # unit norm.  The plain KKT solve of this indefinite system is off its
    # own refined solution by up to 5e-13 (the stream-function solve by
    # 1.5e-14), so the oracle takes one refinement pass.
    advect = linsolve.project_div_free(kkt, rng.normal(size=kkt.n_free))
    advect.values[:] /= np.sqrt(advect.values @ (mass @ advect.values))
    rhs = rng.normal(size=space.n_dofs)
    step = project_velocity(linsolve.CNSystem(stream, advect, 0.05), rhs, stream)
    oracle = BorderedCN(kkt, advect, 0.05, nu=0.01, sip=sip)
    assert rel_mass_norm(step, oracle.expand(refined_solve(oracle, rhs[kkt.free]))) <= 1e-12


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3),
       mesh_seed=st.integers(0, 2 ** 32 - 1), field_seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
def test_reduced_cn_operator_matches_triple_product(k, n, perturb, mesh_seed,
                                                    field_seed):
    # the CN operator assembled on the stream-function nodes is
    # C^T (M/tau + theta C(a) + theta nu A) C with the velocity convection
    # matrix C(a) of a random divergence-free field
    mesh = build_structured(n, perturb, seed=mesh_seed)
    space = RTSpace(mesh, k)
    sip = physical_sip(space, FormParams(nu=0.01))
    # the CN operator reads nu from its projection: one inviscid, one viscous
    streams = {nu: linsolve.StreamFunctionProjection(space, FormParams(nu=nu))
               for nu in (0.0, 0.01)}
    stream = streams[0.01]
    rng = np.random.default_rng(field_seed)
    advect = project_velocity(stream, rng.normal(size=space.n_dofs))
    mass = forms.assemble_mass(space)
    advect.values[:] /= np.sqrt(advect.values @ (mass @ advect.values))
    curl, tau = stream.curl, 0.05
    conv = forms.convection_matrix(space, advect)
    for theta in (0.5, 1.0):
        for nu in (0.0, 0.01):
            block = mass / tau + theta * conv + theta * nu * sip
            oracle = (curl.T @ block @ curl).toarray()
            cn = linsolve.CNSystem(streams[nu], advect, tau, theta=theta)
            assert np.abs(cn.matrix.toarray() - oracle).max() \
                <= 1e-13 * np.abs(oracle).max(), (theta, nu)


@pytest.mark.parametrize("k, fill", [(1, 39_160), (2, 76_194)])
@pytest.mark.parametrize("seed", [0, 5])
def test_stiffness_fill_is_pinned(k, fill, seed):
    # K's LU fill is structural (minimum degree on its pattern, diagonal
    # pivots), so it is exact: a change to the ordering or to the factor
    # options cannot raise it unseen.  The stats time the assembly of C and
    # K beside the factorization
    proj = linsolve.StreamFunctionProjection(RTSpace(build_structured(16, 0.15, seed=seed), k))
    stats = proj.stats()
    assert stats["fill"] == proj.lu.nnz == fill
    assert stats["assemble_s"] > 0 and stats["factor_s"] > 0


def test_stream_function_rejects_mesh_with_hole():
    # the two cells of one interior square removed: the mesh is connected
    # but not simply connected, and the harmonic field around the hole is
    # divergence-free without being the curl of any stream function
    base = build_structured(4)
    square = 2 * (1 * 4 + 1)
    mesh = Mesh(base.vertices, np.delete(base.cells, [square, square + 1], axis=0))
    space = RTSpace(mesh, 1)
    linsolve.build_saddle(space, ScalarDGSpace(mesh, 1))  # connected: accepted
    with pytest.raises(ValueError, match=r"V - E \+ C = 25 - 55 \+ 30 = 0, not 1"):
        linsolve.StreamFunctionProjection(space)
    with pytest.raises(ValueError, match="simply connected"):
        Discretization(mesh, 1)


def test_projection_rejects_disconnected_mesh():
    # two copies of the unit-square mesh, side by side without touching: the
    # one zero-mean border row leaves the second component's multiplier
    # constant free, and the projection used to return div_l2 = 1.26
    base = build_structured(3)
    mesh = Mesh(np.vstack([base.vertices, base.vertices + [2.0, 0.0]]),
                np.vstack([base.cells, base.cells + base.n_vertices]))
    space = RTSpace(mesh, 1)
    with pytest.raises(ValueError, match="2 connected components"):
        linsolve.build_saddle(space, ScalarDGSpace(mesh, 1))


def test_projection_rejects_full_length_rhs(spaces):
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    with pytest.raises(ValueError, match="free DOFs"):
        linsolve.project_div_free(entry["saddle"], np.zeros(entry["space"].n_dofs))


def test_projection_is_contraction(spaces):
    # the constrained projection never beats the unconstrained mass solve
    entry = spaces(4, 1)
    rng = np.random.default_rng(3)
    free_dofs = entry["space"].free_dofs
    for sys in projections(entry):
        mass = entry["saddle"].mass
        mass_free = mass[free_dofs][:, free_dofs]
        rhs = rng.normal(size=entry["space"].n_dofs)
        constrained = project_velocity(sys, rhs)
        free = sp.linalg.spsolve(mass_free.tocsc(), rhs[free_dofs])
        norm_c = constrained.values @ (mass @ constrained.values)
        norm_f = free @ (mass_free @ free)
        assert norm_c <= norm_f * (1 + 1e-10), type(sys).__name__


def test_solve_residual_contract(spaces):
    # each factor solves its own matrix: the KKT oracle's on the lifted
    # functional, the stream-function systems' on a right-hand side on the
    # nodes, as the steps solve them
    entry = spaces(8, 1)
    saddle, stream = projections(entry)
    cn = linsolve.CNSystem(stream, random_div_free(entry, np.random.default_rng(4)), 0.05)
    for sys in (saddle, stream, cn):
        rhs = np.random.default_rng(4).normal(size=sys.n_free)
        if sys is saddle:
            rhs = saddle.lift(rhs)
            z = saddle.lu.solve(rhs)
        else:
            z = linsolve.project_div_free(sys, rhs)
        res = np.abs(sys.matrix @ z - rhs).max()
        assert res <= 1e-10 * np.abs(rhs).max(), type(sys).__name__


def test_blowup_signal_on_nonfinite_rhs(spaces):
    # on the KKT oracle and on the stream-function nodes, where the steps solve
    entry = spaces(2, 1, perturb=0.0)
    saddle, stream = projections(entry)
    cn = linsolve.CNSystem(stream, entry["space"].zero(), 0.1)
    for sys in (saddle, stream, cn):
        rhs = np.zeros(sys.n_free)
        rhs[0] = np.nan
        with pytest.raises(linsolve.BlowUpSignal):
            linsolve.project_div_free(sys, rhs)
        with pytest.raises(linsolve.BlowUpSignal):
            linsolve.cn_solve(sys, rhs)


# -- CN system -------------------------------------------------------------------

def test_cn_pure_mass_step(spaces):
    # nu = 0, zero advection, f = 0: one step is the identity
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    space = entry["space"]
    rng = np.random.default_rng(5)
    u = random_div_free(entry, rng)
    tau = 0.1
    stream = projections(entry)[1]
    for cn in cn_systems(entry, space.zero(), tau):
        rhs = (entry["saddle"].mass @ u.values) / tau
        nxt = project_velocity(cn, rhs, stream)
        assert np.abs(nxt.values - u.values).max() <= 1e-10, type(cn).__name__


def test_cn_step_matches_dense_solve(spaces):
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    space = entry["space"]
    rng = np.random.default_rng(6)
    u = random_div_free(entry, rng)
    advect = random_div_free(entry, rng)
    conv = forms.convection_matrix(space, advect)
    tau = 0.05
    rhs = (entry["saddle"].mass @ u.values) / tau - 0.5 * (conv @ u.values)
    stream = projections(entry)[1]
    bordered, cn = cn_systems(entry, advect, tau)
    # the KKT oracle solves the functional on the free DOFs, the CNSystem
    # its lift on the nodes
    psi = linsolve.cn_solve(cn, stream.curl_t @ rhs)
    dense_psi = np.linalg.solve(cn.matrix.toarray(), stream.curl_t @ rhs)
    rhs_free = rhs[bordered.free]
    dense_kkt = bordered.expand(np.linalg.solve(bordered.matrix.toarray(),
                                                bordered.lift(rhs_free)))
    for name, sparse_u, dense_u in (("KKT", linsolve.cn_solve(bordered, rhs_free), dense_kkt),
                                    ("CN", stream.velocity(psi), stream.velocity(dense_psi))):
        assert np.abs(sparse_u.values - dense_u.values).max() <= 1e-9, name
        assert manufactured.div_norm(space, sparse_u) <= 1e-9, name


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3),
       mesh_seed=st.integers(0, 2 ** 32 - 1), field_seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("nu", [0.0, 0.01])
@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_cn_solve_matches_dense_solve_on_random_meshes(k, nu, theta, n, perturb, mesh_seed,
                                                       field_seed):
    # on the node contract the sparse CN solve is the dense solve of the
    # assembled operator, to the bound of test_cn_step_matches_dense_solve,
    # and the curl of its psi is divergence-free; the advecting field is a
    # random one of unit L2 norm
    proj = linsolve.StreamFunctionProjection(
        RTSpace(build_structured(n, perturb, seed=mesh_seed), k), FormParams(nu=nu))
    rng = np.random.default_rng(field_seed)
    psi_a = rng.normal(size=proj.n_free)
    psi_a /= np.sqrt(psi_a @ (proj.matrix @ psi_a))
    system = linsolve.CNSystem(proj, proj.velocity(psi_a), 0.05, theta=theta)
    rhs = rng.normal(size=proj.n_free)
    psi = linsolve.cn_solve(system, rhs)
    dense = np.linalg.solve(system.matrix.toarray(), rhs)
    assert np.abs(psi - dense).max() <= 1e-9 * np.abs(dense).max()
    assert forms.divergence_l2_norm(proj.space, proj.velocity(psi)) <= 1e-10


def test_cn_rejects_nonpositive_tau(spaces):
    # the CN step is built on the stream-function projection only; the KKT
    # oracle is refused before any other check
    entry = spaces(2, 1, perturb=0.0)
    space = entry["space"]
    saddle, stream = projections(entry)
    with pytest.raises(ValueError, match="time step"):
        linsolve.CNSystem(stream, space.zero(), 0.0)
    with pytest.raises(TypeError, match="stream-function projection, not on SaddleSystem"):
        linsolve.CNSystem(saddle, space.zero(), 0.1)
