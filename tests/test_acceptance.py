"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them inline).  Criterion 1 audits the divergence
norms of every run executed by the other criteria, so it is defined last.

The convergence studies of criteria 5 and 6 and the stability sweep of
criterion 9 take most of the suite's time and are marked slow; deselect
them with -m "not slow" for a quick pass.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from divfreedg import (build_structured, diagnostics, forms, integrators,
                       linsolve, manufactured)
from divfreedg.fe_space import RTSpace, ScalarDGSpace, rt_interpolate
from divfreedg.integrators import Discretization, SchemeConfig
from divfreedg.quadrature import triangle_rule
from conftest import dg_evaluate, dg_project, evaluate

TRACKED_RUNS = []


def tracked_run(config, mesh, problem, disc=None):
    report = integrators.run(config, mesh, problem, disc=disc)
    TRACKED_RUNS.append(report)
    return report


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:2d}] FAIL  {desc}")
                raise
            print(f"\n[criterion {num:2d}] PASS  {desc}")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def problem():
    return manufactured.taylor_green(0.0)


@pytest.fixture(scope="module")
def mesh8():
    return build_structured(8, 0.15, seed=0)


@pytest.fixture(scope="module")
def disc8(mesh8):
    return Discretization(mesh8, 1)


@criterion(2, "upwind dissipation identity c_h(u,v,v) = |v|^2 up to 1e-11")
@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("k", [1, 2])
def test_criterion_02_upwind_identity(n, k):
    mesh = build_structured(n, 0.15, seed=0)
    space = RTSpace(mesh, k)
    q_space = ScalarDGSpace(mesh, k)
    saddle = linsolve.build_saddle(space, q_space)
    rng = np.random.default_rng(100 * n + k)
    for _ in range(5):
        u = linsolve.project_div_free(saddle, rng.normal(size=saddle.n_free))
        v = linsolve.project_div_free(saddle, rng.normal(size=saddle.n_free))
        pairing = forms.apply_convection(space, u, v) @ v.values
        seminorm = forms.jump_seminorm(space, u, v)
        assert seminorm >= 0.0
        assert abs(pairing - seminorm) <= 1e-11 * max(seminorm, 1e-14)


@criterion(3, "discrete energy identity residual <= 1e-10 ||u^n||^2, 50 steps")
def test_criterion_03_energy_identity(mesh8, disc8, problem):
    config = SchemeConfig(tau=1.0 / 25, k=1, T=2.0, f_zero=True)
    assert config.n_steps == 50
    report = tracked_run(config, mesh8, problem, disc=disc8)
    assert report.completed
    assert report.max_relative_energy_residual() <= 1e-10


@criterion(4, "commuting property div(Pi u) = pi_k(div u) to 1e-9 in L2")
@pytest.mark.parametrize("k", [1, 2])
def test_criterion_04_commuting_property(k):
    mesh = build_structured(8, 0.15, seed=0)
    space = RTSpace(mesh, k)
    q_space = ScalarDGSpace(mesh, k)
    fields = [
        (lambda x, y: np.stack([x * y, x + y], axis=-1),
         lambda x, y: y + 1.0),
        (lambda x, y: np.stack([np.sin(np.pi * x), np.cos(np.pi * y)], axis=-1),
         lambda x, y: np.pi * np.cos(np.pi * x) - np.pi * np.sin(np.pi * y)),
        (lambda x, y: np.stack([np.exp(x) * y, x * y * y], axis=-1),
         lambda x, y: np.exp(x) * y + 2.0 * x * y),
        (lambda x, y: np.stack([np.cos(2 * x + y), np.sin(x - y)], axis=-1),
         lambda x, y: -2.0 * np.sin(2 * x + y) - np.cos(x - y)),
        (lambda x, y: np.stack([x ** 2 + y, y ** 2 - x], axis=-1),
         lambda x, y: 2.0 * x + 2.0 * y),
    ]
    for u, div_u in fields:
        interp = rt_interpolate(u, space)
        proj = dg_project(q_space, div_u)
        rule = triangle_rule(2 * k + 5)
        cells = np.arange(mesh.n_cells)[:, None]
        _, grad = evaluate(space, interp.values, cells, rule.points,
                                 with_grad=True)
        div_h = grad[..., 0, 0] + grad[..., 1, 1]
        pk = dg_evaluate(q_space, proj, cells, rule.points[None, :, :])
        wdet = rule.weights[None, :] * mesh.cell_detj[:, None]
        err = np.sqrt(np.sum(wdet * (div_h - pk) ** 2))
        assert err <= 1e-9


@criterion(5, "k=1 restrictive-CFL study: L2 rates in [1.8,2.3], H1 in [0.85,1.15]")
@pytest.mark.slow
def test_criterion_05_table2_reproduction(problem):
    rows = diagnostics.convergence_study([8, 16, 32, 64], k=1,
                                         cfl_form="fourthirds", co=1.0,
                                         problem=problem)
    for r in rows:
        assert r["blow_up"] is None
        assert r["max_div"] <= 1e-10
    l2_rates = [r["l2_rate"] for r in rows[1:]]
    h1_rates = [r["h1_rate"] for r in rows[1:]]
    assert all(1.8 <= rate <= 2.3 for rate in l2_rates), l2_rates
    assert all(0.85 <= rate <= 1.15 for rate in h1_rates), h1_rates
    err16 = rows[1]["l2_err"]
    assert 1.23e-02 / 2 <= err16 <= 1.23e-02 * 2


@criterion(6, "k=2 restrictive-CFL study: L2 rates >= 2.8")
@pytest.mark.slow
def test_criterion_06_table5_reproduction(problem):
    rows = diagnostics.convergence_study([8, 16, 32], k=2,
                                         cfl_form="fourthirds", co=0.04,
                                         problem=problem)
    for r in rows:
        assert r["blow_up"] is None
        assert r["max_div"] <= 1e-10
    rates = [r["l2_rate"] for r in rows[1:]]
    assert all(rate >= 2.8 for rate in rates), rates


@criterion(7, "k=1 standard-CFL fragility: blow-up by T=2 on a fine mesh")
def test_criterion_07_table3_blow_up(problem):
    blow_ups = []
    for n in (32, 64):
        mesh = build_structured(n, 0.15, seed=0)
        report = tracked_run(SchemeConfig(tau=0.5 / n, k=1, T=2.0), mesh, problem)
        blow_ups.append(not report.completed)
    assert any(blow_ups)


@criterion(8, "tau ladder at h=1/8: RK blows up early, stabilizes; CN always completes")
def test_criterion_08_table1_reproduction(mesh8, disc8, problem):
    denominators = (12, 14, 16, 18, 20, 22, 24)
    rk = {}
    for m in denominators:
        rk[m] = tracked_run(SchemeConfig(tau=1.0 / m, k=1, T=2.0),
                            mesh8, problem, disc=disc8)
    assert not rk[12].completed
    for m in (20, 24):
        assert rk[m].completed
        assert rk[m].l2_err <= 1.5e-01
    stable = [m for m in denominators if rk[m].completed]
    assert stable, "explicit RK never stabilized on the tau ladder"
    assert 10 <= stable[0] <= 24  # tau_max within [1/24, 1/10]

    cn_errs = []
    for m in denominators:
        config = SchemeConfig(tau=1.0 / m, k=1, T=2.0,
                              integrator="semi_implicit_cn")
        report = tracked_run(config, mesh8, problem, disc=disc8)
        assert report.completed
        cn_errs.append(report.l2_err)
    assert all(b < a for a, b in zip(cn_errs, cn_errs[1:])), cn_errs
    assert cn_errs[-1] <= 1.0e-01


@criterion(9, "stability exponent alpha >= 1.05 for the (1/40, 1/80) pair")
@pytest.mark.slow
def test_criterion_09_table4_alpha(problem):
    result = diagnostics.cfl_sweep([10, 20, 40, 80], k=1, cfl_form="search",
                                   problem=problem)
    taus = {r["n"]: r["tau_max"] for r in result.rows}
    assert all(math.isfinite(t) for t in taus.values()), taus
    alpha = math.log(taus[40] / taus[80]) / math.log(2.0)
    assert alpha >= 1.05, (taus, alpha)
    for r in result.rows:
        assert r["max_div"] <= 1e-10


@criterion(10, "pressure robustness: grad(phi) forcing shift is invisible to 1e-9")
def test_criterion_10_pressure_robustness(mesh8, disc8, problem):
    grad_phi = lambda x, y: np.stack([3.0 * np.cos(3 * x) * np.cos(2 * y),
                                      -2.0 * np.sin(3 * x) * np.sin(2 * y)],
                                     axis=-1)
    shifted = dataclasses.replace(
        problem, f_spatial=problem.f_spatial + (grad_phi,),
        f_coeffs=lambda t: np.concatenate([problem.f_coeffs(t), [1.0]]),
        dt_f_coeffs=lambda t: np.concatenate([problem.dt_f_coeffs(t), [0.0]]))
    config = SchemeConfig(tau=1.0 / 20, k=1, T=1.0)
    assert config.n_steps == 20
    base = tracked_run(config, mesh8, problem, disc=disc8)
    pert = tracked_run(config, mesh8, shifted, disc=disc8)
    assert base.completed and pert.completed
    diff = abs(base.l2_err - pert.l2_err)  # coarse guard
    assert diff <= 1e-9
    # strict form: the final coefficient fields agree in the L2 norm
    state_a = _final_state(config, mesh8, disc8, problem)
    state_b = _final_state(config, mesh8, disc8, shifted)
    delta = state_a.u.values - state_b.u.values
    assert np.sqrt(delta @ (disc8.mass @ delta)) <= 1e-9


def _final_state(config, mesh, disc, problem):
    state = integrators.initial_state(config, disc, problem)
    for _ in range(config.n_steps):
        state = integrators.rk2_step(state, config, disc, problem)
    return state


@criterion(11, "interpolation error rates in [k+0.8, k+1.2] over n=8,16,32")
@pytest.mark.parametrize("k", [1, 2])
def test_criterion_11_interpolation_order(k, problem):
    errs, hs = [], []
    for n in (8, 16, 32):
        mesh = build_structured(n, 0.15, seed=0)
        space = RTSpace(mesh, k)
        c = rt_interpolate(lambda x, y: problem.u(x, y, 0.0), space)
        errs.append(manufactured.l2_error(space, c, problem, 0.0))
        hs.append(1.0 / n)
    rates = manufactured.rate_table(hs, errs)
    assert all(k + 0.8 <= r <= k + 1.2 for r in rates), rates


@criterion(12, "explicit-viscous run at nu=1e-3 tracks the inviscid error")
def test_criterion_12_ns_extension(problem):
    mesh = build_structured(16, 0.15, seed=0)
    tau = 0.25 * (1.0 / 16) ** (4.0 / 3.0)
    viscous_problem = manufactured.taylor_green(1e-3)
    viscous = tracked_run(SchemeConfig(tau=tau, k=1, T=2.0, nu=1e-3),
                          mesh, viscous_problem)
    inviscid = tracked_run(SchemeConfig(tau=tau, k=1, T=2.0), mesh, problem)
    assert viscous.completed and inviscid.completed
    assert viscous.l2_err <= 3.0 * inviscid.l2_err
    assert viscous.l2_err >= inviscid.l2_err / 3.0


@criterion(1, "divergence norm <= 1e-10 at every step of every completed run")
def test_criterion_01_divergence_free_everywhere():
    completed = [r for r in TRACKED_RUNS if r.completed]
    assert completed, "no completed runs were tracked"
    worst = max(r.max_div for r in completed)
    assert worst <= 1e-10, worst
