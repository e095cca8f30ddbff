import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from divfreedg import build_structured, forms, linsolve, manufactured
from divfreedg.fe_space import RTSpace, ScalarDGSpace
from divfreedg.mesh import Mesh

from conftest import random_div_free


def test_saddle_roundtrip(spaces):
    # projecting the mass image of a divergence-free field returns the field
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    space, sys = entry["space"], entry["saddle"]
    rng = np.random.default_rng(0)
    c = random_div_free(entry, rng)
    back = linsolve.project_div_free(sys, (sys.mass @ c.values)[space.free_dofs])
    assert np.abs(back.values - c.values).max() <= 1e-10


def test_projection_of_gradient_load_vanishes(spaces):
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    space, sys = entry["space"], entry["saddle"]
    grad_phi = lambda x, y: np.stack([np.cos(x + 2 * y), 2 * np.cos(x + 2 * y)],
                                     axis=-1)
    load = forms.assemble_load(space, grad_phi)
    u = linsolve.project_div_free(sys, load[space.free_dofs])
    assert np.sqrt(u.values @ (sys.mass @ u.values)) <= 1e-10


def test_solver_determinism(spaces):
    entry = spaces(4, 1, with_saddle=True)
    sys = entry["saddle"]
    rhs = np.random.default_rng(1).normal(size=sys.n_free)
    a = linsolve.project_div_free(sys, rhs)
    b = linsolve.project_div_free(sys, rhs)
    assert np.array_equal(a.values, b.values)


def test_projection_idempotent_and_div_free(spaces):
    entry = spaces(4, 2, with_saddle=True)
    space, sys = entry["space"], entry["saddle"]
    rng = np.random.default_rng(2)
    for _ in range(3):
        rhs = rng.normal(size=sys.n_free)
        u = linsolve.project_div_free(sys, rhs)
        assert manufactured.div_norm(space, u) <= 1e-11
        assert np.all(u.values[space.boundary_dofs] == 0.0)
        again = linsolve.project_div_free(sys, (sys.mass @ u.values)[space.free_dofs])
        assert np.abs(again.values - u.values).max() <= 1e-10


@settings(max_examples=6, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3),
       mesh_seed=st.integers(0, 2 ** 32 - 1), field_seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
def test_projection_property_on_random_meshes(k, n, perturb, mesh_seed, field_seed):
    # the divergence left by roundoff scales with the field, so the
    # projected field is a random one of unit L2 norm
    mesh = build_structured(n, perturb, seed=mesh_seed)
    space = RTSpace(mesh, k)
    sys = linsolve.build_saddle(space, ScalarDGSpace(mesh, k))
    c = np.random.default_rng(field_seed).normal(size=space.n_dofs)
    c /= np.sqrt(c @ (sys.mass @ c))
    u = linsolve.project_div_free(sys, (sys.mass @ c)[space.free_dofs])
    assert manufactured.div_norm(space, u) <= 1e-11
    again = linsolve.project_div_free(sys, (sys.mass @ u.values)[space.free_dofs])
    assert np.abs(again.values - u.values).max() <= 1e-10


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
    entry = spaces(4, 1, with_saddle=True)
    space, sys = entry["space"], entry["saddle"]
    rng = np.random.default_rng(3)
    rhs = rng.normal(size=sys.n_free)
    constrained = linsolve.project_div_free(sys, rhs)
    free = sp.linalg.spsolve(sys.mass_free.tocsc(), rhs)
    norm_c = constrained.values @ (sys.mass @ constrained.values)
    norm_f = free @ (sys.mass_free @ free)
    assert norm_c <= norm_f * (1 + 1e-10)


def test_solve_residual_contract(spaces):
    entry = spaces(8, 1, with_saddle=True)
    sys = entry["saddle"]
    rhs_free = np.random.default_rng(4).normal(size=sys.n_free)
    z = sys.solve(rhs_free)
    rhs = np.zeros(sys.matrix.shape[0])
    rhs[:sys.n_free] = rhs_free
    res = np.abs(sys.matrix @ z - rhs).max()
    assert res <= 1e-10 * np.abs(rhs).max()


def test_blowup_signal_on_nonfinite_rhs(spaces):
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    sys = entry["saddle"]
    rhs = np.zeros(sys.n_free)
    rhs[0] = np.nan
    with pytest.raises(linsolve.BlowUpSignal):
        linsolve.project_div_free(sys, rhs)


# -- CN system -------------------------------------------------------------------

def test_cn_pure_mass_step(spaces):
    # nu = 0, zero advection, f = 0: one step is the identity
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    space = entry["space"]
    sys = entry["saddle"]
    rng = np.random.default_rng(5)
    u = random_div_free(entry, rng)
    conv = forms.convection_matrix(space, space.zero())
    tau = 0.1
    cn = linsolve.CNSystem(sys, conv, tau)
    rhs = (sys.mass @ u.values) / tau
    nxt = linsolve.cn_solve(cn, rhs[space.free_dofs])
    assert np.abs(nxt.values - u.values).max() <= 1e-10


def test_cn_step_matches_dense_solve(spaces):
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    space = entry["space"]
    sys = entry["saddle"]
    rng = np.random.default_rng(6)
    u = random_div_free(entry, rng)
    advect = random_div_free(entry, rng)
    conv = forms.convection_matrix(space, advect)
    tau = 0.05
    cn = linsolve.CNSystem(sys, conv, tau)
    rhs = (sys.mass @ u.values) / tau - 0.5 * (conv @ u.values)
    sparse_u = linsolve.cn_solve(cn, rhs[space.free_dofs])

    dense = cn.matrix.toarray()
    full_rhs = np.zeros(dense.shape[0])
    full_rhs[:cn.n_free] = rhs[space.free_dofs]
    z = np.linalg.solve(dense, full_rhs)
    assert np.abs(sparse_u.values[space.free_dofs] - z[:cn.n_free]).max() <= 1e-9
    assert manufactured.div_norm(space, sparse_u) <= 1e-9


def test_cn_rejects_nonpositive_tau(spaces):
    entry = spaces(2, 1, perturb=0.0, with_saddle=True)
    space = entry["space"]
    sys = entry["saddle"]
    conv = forms.convection_matrix(space, space.zero())
    with pytest.raises(ValueError, match="time step"):
        linsolve.CNSystem(sys, conv, 0.0)
