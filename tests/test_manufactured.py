import tracemalloc

import numpy as np
import pytest

from divfreedg import build_structured, fe_space, forms, manufactured
from divfreedg.fe_space import RTSpace, rt_interpolate
from divfreedg.quadrature import triangle_rule
from conftest import dt_f, pointwise_div_norm, pointwise_h1_error, pointwise_l2_error


def _fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_pointwise_values():
    prob = manufactured.taylor_green(0.0)
    u = prob.u(np.array(0.25), np.array(0.25), 0.0)
    assert np.allclose(u, [0.0, 0.0], atol=1e-14)
    # the time factor vanishes at t = 1/4
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 1, 20), rng.uniform(0, 1, 20)
    assert np.abs(prob.u(x, y, 0.25)).max() < 1e-13


def test_divergence_free_and_boundary():
    prob = manufactured.taylor_green(0.0)
    rng = np.random.default_rng(1)
    x, y = rng.uniform(0.01, 0.99, 100), rng.uniform(0.01, 0.99, 100)
    h = 1e-6
    div = (prob.u(x + h, y, 0.3)[..., 0] - prob.u(x - h, y, 0.3)[..., 0]
           + prob.u(x, y + h, 0.3)[..., 1] - prob.u(x, y - h, 0.3)[..., 1]) / (2 * h)
    assert np.abs(div).max() <= 1e-8

    s = rng.uniform(0, 1, 50)
    for xb, yb, comp in ((np.zeros_like(s), s, 0), (np.ones_like(s), s, 0),
                         (s, np.zeros_like(s), 1), (s, np.ones_like(s), 1)):
        assert np.abs(prob.u(xb, yb, 0.37)[..., comp]).max() <= 1e-12


@pytest.mark.parametrize("nu", [0.0, 1e-3])
def test_momentum_residual_by_finite_differences(nu):
    # du/dt - nu Lap u + (u . grad) u + grad p - f = 0 at random points
    prob = manufactured.taylor_green(nu)
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.05, 0.95, size=(100, 3))
    h = 1e-5
    for x, y, t in pts:
        dudt = _fd(lambda s: prob.u(x, y, s), t, h)
        ux = _fd(lambda s: prob.u(s, y, t), x, h)
        uy = _fd(lambda s: prob.u(x, s, t), y, h)
        lap = ((prob.u(x + h, y, t) - 2 * prob.u(x, y, t) + prob.u(x - h, y, t))
               + (prob.u(x, y + h, t) - 2 * prob.u(x, y, t)
                  + prob.u(x, y - h, t))) / h ** 2
        u = prob.u(x, y, t)
        conv = u[0] * ux + u[1] * uy
        gp = np.array([_fd(lambda s: prob.p(s, y, t), x, h),
                       _fd(lambda s: prob.p(x, s, t), y, h)])
        res = dudt - nu * lap + conv + gp - prob.f(x, y, t)
        assert np.abs(res).max() <= 1e-6


def test_derivative_callables_match_finite_differences():
    prob = manufactured.taylor_green(2e-3)
    rng = np.random.default_rng(3)
    for x, y, t in rng.uniform(0.1, 0.9, size=(20, 3)):
        assert np.allclose(_fd(lambda s: prob.u(x, y, s), t),
                           prob.dt_u(x, y, t), atol=1e-8)
        assert np.allclose(_fd(lambda s: prob.f(x, y, s), t),
                           dt_f(prob, x, y, t), atol=1e-6)
        gfd = np.stack([_fd(lambda s: prob.u(s, y, t), x),
                        _fd(lambda s: prob.u(x, s, t), y)], axis=-1)
        assert np.allclose(gfd, prob.grad_u(x, y, t), atol=1e-8)


def test_error_norms_zero_for_zero_data():
    mesh = build_structured(2, 0.0)
    space = RTSpace(mesh, 1)
    zero_prob = manufactured.ExactProblem(
        u_spatial=(lambda x, y: np.zeros(np.shape(x) + (2,)),),
        u_coeffs=lambda t: np.ones(1),
        grad_u=lambda x, y, t: np.zeros(np.shape(x) + (2, 2)),
        dt_u=None, p=None, f_spatial=(), f_coeffs=None, dt_f_coeffs=None)
    z = space.zero()
    assert manufactured.l2_error(space, z, zero_prob, 0.0) == 0.0
    assert manufactured.h1_broken_error(space, z, zero_prob, 0.0) == 0.0
    assert manufactured.div_norm(space, z) == 0.0


def test_error_norms_reject_a_vector_of_another_space():
    # same size and degree, other seed: the lengths match, the space does not
    prob = manufactured.taylor_green(0.0)
    space = RTSpace(build_structured(4, 0.15, seed=0), 1)
    other = RTSpace(build_structured(4, 0.15, seed=1), 1)
    u = rt_interpolate(lambda x, y: prob.u(x, y, 0.0), other)
    for norm in (manufactured.l2_error, manufactured.h1_broken_error):
        with pytest.raises(ValueError, match="different space"):
            norm(space, u, prob, 0.0)
    with pytest.raises(ValueError, match="different space"):
        manufactured.div_norm(space, u)
    # a plain array of the right length is still read as coefficients
    assert manufactured.l2_error(space, u.values, prob, 0.0) > 0.0


@pytest.mark.parametrize("k", [1, 2])
def test_error_norms_quadrature_insensitive(k, monkeypatch):
    # the default rule is deep enough that two extra orders change nothing
    mesh = build_structured(8, 0.15, seed=0)
    space = RTSpace(mesh, k)
    prob = manufactured.taylor_green(0.0)
    c = rt_interpolate(lambda x, y: prob.u(x, y, 0.0), space)
    norms = (manufactured.l2_error, manufactured.h1_broken_error)
    e1, g1 = (norm(space, c, prob, 0.0) for norm in norms)
    base = manufactured._error_order(space)
    monkeypatch.setattr(manufactured, "_error_order", lambda space: base + 2)
    e2, g2 = (norm(space, c, prob, 0.0) for norm in norms)
    assert abs(e1 - e2) <= 1e-10 * e1
    assert abs(g1 - g2) <= 1e-10 * g1


def test_rate_table():
    assert manufactured.rate_table([0.5, 0.25, 0.125],
                                   [4.0, 1.0, 0.25]) == pytest.approx([2.0, 2.0],
                                                                      abs=1e-12)
    # observed table rows: halving h from 1/8 to 1/16
    r = manufactured.rate_table([1 / 8, 1 / 16], [4.77e-2, 1.23e-2])
    assert r[0] == pytest.approx(1.96, abs=0.01)
    r = manufactured.rate_table([1 / 8, 1 / 16], [5.85e-3, 5.66e-4])
    assert r[0] == pytest.approx(3.37, abs=0.01)
    assert np.isnan(manufactured.rate_table([0.5, 0.25], [1.0, 0.0])[0])
    with pytest.raises(ValueError):
        manufactured.rate_table([0.25, 0.5], [1.0, 2.0])


def test_pressure_shift_changes_only_gradient_part():
    # replacing p by p + phi shifts f by grad(phi); the discrete trajectory
    # comparison lives in the acceptance suite, here we check the forcing
    prob = manufactured.taylor_green(0.0)
    phi = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
    gphi = lambda x, y: np.stack([3 * np.cos(3 * x) * np.cos(2 * y),
                                  -2 * np.sin(3 * x) * np.sin(2 * y)], axis=-1)
    shifted = lambda x, y, t: prob.f(x, y, t) + gphi(x, y)
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0, 1, 10), rng.uniform(0, 1, 10)
    assert np.allclose(shifted(x, y, 0.4) - prob.f(x, y, 0.4), gphi(x, y))


@pytest.mark.parametrize("k", [1, 2])
def test_h1_error_evaluates_the_gradient_alone(spaces, k, monkeypatch):
    # u_h and its broken gradient as GEMMs against the reference tables, on
    # points mapped per block of cells, against the per-point evaluation
    space = spaces(8, k, perturb=0.3, seed=3)["space"]
    prob = manufactured.taylor_green(0.0)
    c = rt_interpolate(lambda x, y: prob.u(x, y, 0.0), space)
    c.values[:] += 0.01 * np.random.default_rng(k).normal(size=space.n_dofs)
    for order in (None, 2 * k + 3):
        if order is not None:
            monkeypatch.setattr(manufactured, "_error_order", lambda space: order)
        for t in (0.0, 0.3):
            assert manufactured.l2_error(space, c, prob, t) == \
                pytest.approx(pointwise_l2_error(space, c, prob, t, order), rel=1e-12)
            assert manufactured.h1_broken_error(space, c, prob, t) == \
                pytest.approx(pointwise_h1_error(space, c, prob, t, order), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2])
def test_blocked_passes_match_one_pass(k, monkeypatch):
    # each pass over a volume rule in blocks of 40 cells, so the 128 cells of
    # n = 8 take three full blocks and a partial one of 8, against one pass:
    # the norms against the per-point oracles, the loads and the interpolant
    # bit for bit; the divergence norm, one pass at its rule of order 2k,
    # against the per-point oracle at the error rule
    mesh = build_structured(8, 0.15, seed=0)
    space = RTSpace(mesh, k)
    prob = manufactured.taylor_green(0.0)
    vortex = prob.u_spatial[0]
    interp_rule = triangle_rule(int(np.ceil(7.0 + 60.0 * mesh.facet_length.max())))
    load_rule = space.ref_tables(forms.default_load_order(k))["rule"]

    def in_blocks_of_40(rule):
        monkeypatch.setattr(fe_space, "CELL_BLOCK", 40 * len(rule))
        assert [b.stop - b.start for b in fe_space.cell_blocks(mesh, rule)] == [40, 40, 40, 8]

    def one_pass_and_blocked(compute, rule):
        monkeypatch.setattr(fe_space, "CELL_BLOCK", 1 << 30)
        one = compute()
        in_blocks_of_40(rule)
        return one, compute()

    one, pi = one_pass_and_blocked(lambda: rt_interpolate(vortex, space).values, interp_rule)
    assert np.array_equal(one, pi)
    one, blocked = one_pass_and_blocked(
        lambda: [forms.assemble_load(space, g) for g in prob.f_spatial], load_rule)
    assert all(np.array_equal(a, b) for a, b in zip(one, blocked))

    u = pi + 0.01 * np.random.default_rng(k).normal(size=space.n_dofs)
    order = manufactured._error_order(space)
    in_blocks_of_40(triangle_rule(order))
    for t in (0.0, 0.3):
        assert manufactured.l2_error(space, u, prob, t) == \
            pytest.approx(pointwise_l2_error(space, u, prob, t), rel=1e-12)
        assert manufactured.h1_broken_error(space, u, prob, t) == \
            pytest.approx(pointwise_h1_error(space, u, prob, t), rel=1e-12)
    assert manufactured.div_norm(space, u) == \
        pytest.approx(pointwise_div_norm(space, u, order), rel=1e-12)


def test_final_norms_and_loads_memory_does_not_grow_with_the_mesh():
    # the final error norms and both Taylor-Green loads at k = 2, n = 32 run
    # in blocks of fe_space.CELL_BLOCK points, and the divergence norm in one
    # pass at its rule of order 2k; in one pass over every cell at the error
    # rule the broken H1 error alone peaked at 19 MiB here
    space = RTSpace(build_structured(32, 0.15, seed=0), 2)
    prob = manufactured.taylor_green(0.0)
    u = rt_interpolate(lambda x, y: prob.u(x, y, 0.0), space)
    tracemalloc.start()
    try:
        manufactured.l2_error(space, u, prob, 0.1)
        manufactured.h1_broken_error(space, u, prob, 0.1)
        manufactured.div_norm(space, u)
        for g in prob.f_spatial:
            forms.assemble_load(space, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"
