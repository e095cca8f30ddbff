import dataclasses
import math

import numpy as np
import pytest

from divfreedg import build_structured, diagnostics, forms, integrators, manufactured
from divfreedg.integrators import Discretization, SchemeConfig
from conftest import refined_solve


@pytest.fixture(scope="module")
def setup8():
    mesh = build_structured(8, 0.15, seed=0)
    return mesh, Discretization(mesh, 1), manufactured.taylor_green(0.0)


def _jump(disc, psi):
    return forms.jump_seminorm(disc.space, psi, psi, basis=disc.projection.basis)


def test_energy_residual_zero_fields(setup8):
    _, disc, _ = setup8
    zero = np.zeros(disc.projection.matrix.shape[0])
    res = diagnostics.energy_residual(disc.projection.matrix, zero, zero, 0.0, 0.0,
                                      0.0, 0.0, 0.1)
    assert res == 0.0


def test_energy_residual_single_step(setup8):
    mesh, disc, problem = setup8
    cfg = SchemeConfig(tau=1.0 / 32, T=2.0, f_zero=True)
    state = integrators.initial_state(cfg, disc, problem)
    new = integrators.rk2_step(state, cfg, disc, None)
    ju, jw = _jump(disc, state.psi), _jump(disc, new.stage)
    res = diagnostics.energy_residual(disc.projection.matrix, new.stage, new.psi,
                                      state.l2, new.l2, ju, jw, cfg.tau)
    scale = disc.l2_norm(state.u) ** 2
    assert abs(res) <= 1e-10 * scale
    # the gate's norms and K on the stream function give the residual that
    # M gives on the expanded velocities
    stage = disc.projection.velocity(new.stage)
    in_velocity = diagnostics.energy_residual(
        disc.mass, stage.values, new.u.values, disc.l2_norm(state.u),
        disc.l2_norm(new.u), ju, jw, cfg.tau)
    assert abs(res - in_velocity) <= 1e-12 * scale
    # the same step solved at the tighter refinement tolerance agrees
    refined = refined_solve(disc.saddle, (
        disc.mass @ state.u.values
        - cfg.tau * forms.apply_convection(disc.space, state.u, state.u)
    )[disc.space.free_dofs])
    stage_refined = disc.saddle.expand(refined)
    assert np.abs(stage_refined.values - stage.values).max() <= 1e-11


def test_energy_residual_scales_quadratically(setup8):
    mesh, disc, problem = setup8
    cfg = SchemeConfig(tau=1.0 / 100, T=2.0, f_zero=True)
    base = integrators.initial_state(cfg, disc, problem)
    for s in (0.5, 1.0, 2.0):
        psi = s * base.psi
        state = integrators.StepState(n=0, t=0.0, u=disc.projection.velocity(psi), psi=psi,
                                      norm0=s * base.norm0)
        new = integrators.rk2_step(state, cfg, disc, None)
        ju, jw = _jump(disc, psi), _jump(disc, new.stage)
        res = diagnostics.energy_residual(disc.projection.matrix, new.stage, new.psi,
                                          disc.l2_norm(state.u), new.l2, ju, jw, cfg.tau)
        assert abs(res) <= 1e-10 * s ** 2 * base.norm0 ** 2


def test_cfl_sweep_search_mode():
    result = diagnostics.cfl_sweep([4, 8], k=1)
    assert len(result.rows) == 2
    taus = [r["tau_max"] for r in result.rows]
    assert all(math.isfinite(t) for t in taus)
    assert taus[1] <= taus[0]  # monotone nonincreasing in h
    assert 1.0 / 24 <= taus[1] <= 1.0 / 12  # h = 1/8 stability window
    # the search starts at the standard-CFL denominator and steps by 2
    assert result.rows[0]["denominator"] >= 8
    assert result.rows[1]["denominator"] >= 16
    # alpha satisfies its defining relation exactly
    r0, r1 = result.rows
    expected = math.log(r0["tau_max"] / r1["tau_max"]) / math.log(r0["h"] / r1["h"])
    assert r1["alpha"] == pytest.approx(expected, abs=1e-14)
    assert result.trace, "search trace must not be empty"
    assert all(r["max_div"] <= 1e-10 for r in result.rows)


def test_cfl_sweep_fixed_form_blow_up_row():
    # standard CFL on a finer mesh is unstable and yields a nan row; a fixed
    # schedule is the convergence study's, the sweep only searches
    row, = diagnostics.convergence_study([16], k=1, cfl_form="std", co=0.5)
    assert row["tau"] == 0.5 / 16
    assert row["blow_up"] is not None
    assert math.isnan(row["l2_err"])
    assert math.isnan(row["max_div"])


def test_cfl_sweep_starts_at_the_standard_cfl_denominator():
    # the search starts at m = 2n exactly: ceil(1 / (0.5 h)) with h = 1/49
    # rounds up to 99, and the search then ran the odd denominators only
    result = diagnostics.cfl_sweep([49], k=1, T=1.0 / 98)
    assert result.rows[0]["denominator"] == 98
    assert result.trace == [(1.0 / 49, 1.0 / 98, True)]


def test_cfl_sweep_rejects_empty():
    with pytest.raises(ValueError):
        diagnostics.cfl_sweep([], k=1)
    with pytest.raises(ValueError):
        diagnostics.convergence_study([], k=1)


def test_cfl_sweep_small_initial_data():
    # ||u^0|| = 0.007: the tau = 1/8 run completes with max ||u|| near 1,
    # which is below the run's blow-up gate 10 * max(||u^0||, 1), so the
    # sweep must call it stable
    tg = manufactured.taylor_green(0.0)
    small = dataclasses.replace(
        tg, u_coeffs=lambda t: 0.01 * tg.u_coeffs(t),
        grad_u=lambda x, y, t: 0.01 * tg.grad_u(x, y, t))
    result = diagnostics.cfl_sweep([4], k=1, T=0.5, tau_floor=1.0 / 20,
                                   problem=small)
    row = result.rows[0]
    assert row["denominator"] == 8
    assert row["tau_max"] == 1.0 / 8
    assert [stable for _, _, stable in result.trace] == [True]
    # the run ends well past 10 ||u^0|| = 0.07, where the old sweep verdict
    # had no floor and called it unstable
    assert row["l2_norm"] > 0.07


@pytest.mark.parametrize("study", [
    lambda n_list: diagnostics.cfl_sweep(n_list, k=1, T=0.5),
    lambda n_list: diagnostics.convergence_study(n_list, k=1, T=0.5),
], ids=["cfl_sweep", "convergence_study"])
def test_duplicate_mesh_sizes_rejected(study):
    with pytest.raises(ValueError, match="duplicate mesh size n=2"):
        study([2, 4, 2])


def test_convergence_study_structure():
    rows = diagnostics.convergence_study([8, 16], k=1, cfl_form="fourthirds",
                                         co=1.0, T=1.0)
    assert [r["n"] for r in rows] == [8, 16]
    assert math.isnan(rows[0]["l2_rate"])
    assert math.isfinite(rows[1]["l2_rate"])
    assert all(math.isfinite(r["l2_err"]) for r in rows)
    assert all(r["max_div"] <= 1e-10 for r in rows)


def test_convergence_study_std_default_is_half_h():
    # one default constant per schedule, the CLI's: tau = h/2 for "std",
    # tau = h^(4/3) for "fourthirds"
    assert diagnostics.convergence_study([4], k=1, cfl_form="std", T=0.25)[0]["tau"] == 0.125
    assert diagnostics.convergence_study([4], k=1, T=0.25)[0]["tau"] == 0.25 ** (4.0 / 3.0)


def test_convergence_study_marks_blow_up_rows():
    rows = diagnostics.convergence_study([8, 32], k=1, cfl_form="std", co=0.5)
    by_n = {r["n"]: r for r in rows}
    assert by_n[32]["blow_up"] is not None
    assert math.isnan(by_n[32]["l2_err"])
    assert math.isnan(by_n[32]["l2_rate"])

