import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from divfreedg import (build_structured, diagnostics, fe_space, forms, integrators, linsolve,
                       manufactured)
from divfreedg.forms import FormParams
from divfreedg.integrators import Discretization, SchemeConfig
from conftest import use_full_vector_kernel, velocity_run


@pytest.fixture(scope="module")
def mesh8():
    return build_structured(8, 0.15, seed=0)


@pytest.fixture(scope="module")
def disc8(mesh8):
    return Discretization(mesh8, 1)


@pytest.fixture(scope="module")
def problem():
    return manufactured.taylor_green(0.0)


def test_config_snaps_tau():
    cfg = SchemeConfig(tau=0.3, T=2.0)
    assert cfg.n_steps == 7
    assert cfg.n_steps * cfg.tau == pytest.approx(2.0, abs=1e-15)
    assert abs(cfg.n_steps * cfg.tau - 2.0) <= cfg.tau / 2
    assert cfg.time_at(cfg.n_steps) == 2.0
    # endpoint exactness even where N*(T/N) rounds away from T
    cfg = SchemeConfig(tau=2.0 / 49, T=2.0)
    assert cfg.time_at(cfg.n_steps) == 2.0


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig(tau=-0.1)
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.1, f_mode="bogus")
    with pytest.raises(ValueError):
        SchemeConfig(tau=0.1, integrator="bogus")
    assert SchemeConfig(tau=0.1, f_mode="next").f_mode == "f_next"
    assert SchemeConfig(tau=0.1, integrator="cn").integrator == "semi_implicit_cn"


@pytest.mark.parametrize("fields, message", [
    (dict(f_mode="next", integrator="cn"), "f_mode='f_next' .* a CN run has no such load"),
    (dict(f_mode="f_next", f_zero=True), r"an unforced \(f_zero\) run has no such load"),
    (dict(sigma=5.0), r"sigma=5.0 is the SIP penalty .* inviscid run \(nu=0\)"),
], ids=["f_next-cn", "f_next-f_zero", "sigma-inviscid"])
def test_config_rejects_a_field_the_run_would_not_read(fields, message):
    # each of these ran as if the field were not set: a CN step reads no
    # f_mode, an unforced run has no load, and the SIP form enters only
    # viscous runs (sigma 5 and 500 gave the same l2_err at nu = 0)
    with pytest.raises(ValueError, match=message):
        SchemeConfig(tau=0.1, **fields)
    assert SchemeConfig(tau=0.1, sigma=5.0, nu=0.01).sigma == 5.0


@pytest.mark.parametrize("integrator", ["explicit_rk2", "semi_implicit_cn"])
def test_zero_data_stays_zero(mesh8, disc8, integrator):
    cfg = SchemeConfig(tau=0.1, T=0.5, integrator=integrator)
    report = integrators.run(cfg, mesh8, problem=None, disc=disc8)
    assert report.completed
    assert max(report.l2_norms) == 0.0


def test_rk2_energy_identity_and_monotonicity(mesh8, disc8, problem):
    cfg = SchemeConfig(tau=1.0 / 25, T=1.0, f_zero=True)
    report = integrators.run(cfg, mesh8, problem, disc=disc8)
    assert report.completed
    assert report.max_relative_energy_residual() <= 1e-10

    # per-step implication: whenever the anti-dissipative term is dominated
    # by the jump dissipation, the L2 norm cannot grow
    tau = cfg.tau
    l2 = np.asarray(report.l2_norms)
    ju = np.asarray(report.jump_u)
    jw = np.asarray(report.jump_w)
    for n in range(len(l2) - 1):
        diff_sq = l2[n + 1] ** 2 - l2[n] ** 2 + tau * ju[n] + tau * jw[n + 1]
        if diff_sq <= tau * (ju[n] + jw[n + 1]):
            assert l2[n + 1] <= l2[n] * (1 + 1e-13)
    # for this unforced flow the norm is in fact non-increasing throughout
    assert np.all(np.diff(l2) <= 1e-12)


def test_rk2_divergence_free_every_step(mesh8, disc8, problem):
    cfg = SchemeConfig(tau=1.0 / 20, T=0.5)
    report = integrators.run(cfg, mesh8, problem, disc=disc8)
    assert report.completed
    assert report.max_div <= 1e-10


def test_rk2_manufactured_error_matches_reference(mesh8, disc8, problem):
    # tau = 1.0 * h^(4/3) at h = 1/8, run to T = 2
    cfg = SchemeConfig(tau=(1.0 / 8) ** (4.0 / 3.0), k=1, T=2.0)
    report = integrators.run(cfg, mesh8, problem, disc=disc8)
    assert report.completed
    assert 4.77e-02 / 2 <= report.l2_err <= 4.77e-02 * 2


def test_rk2_blows_up_at_large_tau(mesh8, disc8, problem):
    report = integrators.run(SchemeConfig(tau=1.0 / 12, T=2.0), mesh8,
                             problem, disc=disc8)
    assert not report.completed
    assert report.blow_up is not None
    assert len(report.times) == report.blow_up + 1


def test_standard_cfl_blow_up_on_fine_mesh(problem):
    mesh = build_structured(32, 0.15, seed=0)
    report = integrators.run(SchemeConfig(tau=0.5 / 32, T=2.0), mesh, problem)
    assert not report.completed


@pytest.mark.parametrize("k, n, step", [(1, 4, 2), (2, 4, 2), (1, 8, 1)])
def test_blow_up_step(problem, k, n, step):
    # tau = 1/4 to T = 2: the norm gate ||u|| > 10 max(||u^0||, 1) stops
    # these runs at the step given; without it they run on to a non-finite
    # value at steps 6, 5 and 5
    report = integrators.run(SchemeConfig(tau=0.25, T=2.0, k=k),
                             build_structured(n, 0.15, seed=0), problem)
    assert report.blow_up == step
    assert report.n_steps_done == step


def test_f_mode_equivalence(problem):
    mesh = build_structured(16, 0.15, seed=0)
    disc = Discretization(mesh, 1)
    tau = (1.0 / 16) ** (4.0 / 3.0)
    errs = {}
    for mode in ("f_taylor", "f_next"):
        cfg = SchemeConfig(tau=tau, T=2.0, f_mode=mode)
        errs[mode] = integrators.run(cfg, mesh, problem, disc=disc).l2_err
    assert abs(errs["f_taylor"] - errs["f_next"]) <= 0.2 * errs["f_taylor"]


def test_cn_stable_at_large_tau(mesh8, disc8, problem):
    report = integrators.run(
        SchemeConfig(tau=1.0 / 12, T=2.0, integrator="semi_implicit_cn"),
        mesh8, problem, disc=disc8)
    assert report.completed
    assert 1.38e-01 / 2 <= report.l2_err <= 1.38e-01 * 2
    assert report.max_div <= 1e-9


def test_cn_error_decreases_then_saturates(mesh8, disc8, problem):
    errs = []
    for tau in (1.0 / 12, 1.0 / 24, 1.0 / 48):
        report = integrators.run(
            SchemeConfig(tau=tau, T=2.0, integrator="semi_implicit_cn"),
            mesh8, problem, disc=disc8)
        assert report.completed
        errs.append(report.l2_err)
    assert errs[0] > errs[1] > errs[2]
    # saturation at the spatial error level: the last halving gains little
    assert errs[1] / errs[2] < errs[0] / errs[1] + 0.5


# The time half of the paper's O(h^{k+1/2} + tau^2): on one mesh, halving
# tau three times quarters ||u_tau - u_{tau/2}|| at T.  RK2 at k = 2 starts
# at tau = 1/100, four times below 1/25, where its rates leave the window.
@pytest.mark.parametrize("integrator,k,f_mode,steps", [
    ("explicit_rk2", 1, "f_taylor", 40), ("explicit_rk2", 1, "f_next", 40),
    ("explicit_rk2", 2, "f_taylor", 100), ("explicit_rk2", 2, "f_next", 100),
    ("semi_implicit_cn", 1, "f_taylor", 40)])
def test_temporal_order_is_two(mesh8, disc8, problem, integrator, k, f_mode, steps):
    disc = disc8 if k == 1 else Discretization(mesh8, k)
    step = integrators.rk2_step if integrator == "explicit_rk2" else integrators.cn_step
    finals = []
    for halvings in range(4):
        config = SchemeConfig(tau=1.0 / (steps << halvings), k=k, T=0.5, f_mode=f_mode,
                              integrator=integrator)
        state = integrators.initial_state(config, disc, problem)
        for _ in range(config.n_steps):
            state = step(state, config, disc, problem)
        finals.append(state.u.values)
    gaps = [disc.l2_norm(a - b) for a, b in zip(finals, finals[1:])]
    rates = np.log2(np.divide(gaps[:-1], gaps[1:]))
    assert np.all((1.9 <= rates) & (rates <= 2.1)), rates


def test_viscous_rk2_runs(problem):
    mesh = build_structured(8, 0.15, seed=0)
    prob = manufactured.taylor_green(1e-3)
    cfg = SchemeConfig(tau=0.5 * (1.0 / 8) ** (4.0 / 3.0), T=0.5, nu=1e-3)
    report = integrators.run(cfg, mesh, prob)
    assert report.completed
    assert report.max_div <= 1e-10
    assert np.isfinite(report.l2_err)


def test_report_records_align(mesh8, disc8, problem):
    cfg = SchemeConfig(tau=1.0 / 20, T=1.0)
    report = integrators.run(cfg, mesh8, problem, disc=disc8)
    assert report.n_steps_done == cfg.n_steps
    assert len(report.times) == len(report.l2_norms) == len(report.div_norms)
    assert report.times[0] == 0.0
    assert report.times[-1] == 1.0


def test_run_rejects_disc_of_another_degree(mesh8, disc8, problem):
    # a k=2 config with a k=1 disc used to run at k=1 and report k=2
    with pytest.raises(ValueError, match="disc has degree k=1 but the config asks for k=2"):
        integrators.run(SchemeConfig(tau=0.05, k=2, T=0.1), mesh8, problem,
                        disc=disc8)


def test_run_rejects_inviscid_disc_for_viscous_config(mesh8, disc8, problem):
    # nu > 0 with an inviscid disc used to fail inside the first step with
    # an opaque "matmul ... 0 dimensions" error
    with pytest.raises(ValueError, match="disc has nu=0.0"):
        integrators.run(SchemeConfig(tau=0.05, nu=0.01, T=0.1), mesh8, problem,
                        disc=disc8)


def test_forced_run_rejects_a_problem_of_another_viscosity(mesh8):
    # the forcing folds in the nu it was derived for: an inviscid forcing in
    # a run at nu = 0.01 used to complete with l2_err 7.66e-2 at T = 0.25,
    # against 1.86e-2 with the matched problem.  An unforced run reads u^0
    # alone, so any problem will do
    inviscid = manufactured.taylor_green(0.0)
    assert manufactured.taylor_green(0.01).nu == 0.01 and inviscid.nu == 0.0
    config = SchemeConfig(tau=1.0 / 200, T=0.25, nu=0.01)
    with pytest.raises(ValueError, match="problem was derived for nu=0.0 but the config "
                                         "asks for nu=0.01"):
        integrators.run(config, mesh8, inviscid)
    unforced = SchemeConfig(tau=1.0 / 40, T=0.05, nu=0.01, f_zero=True)
    assert integrators.run(unforced, mesh8, inviscid).completed


def test_run_rejects_disc_of_another_mesh_or_sigma(mesh8, disc8, problem):
    other = build_structured(8, 0.15, seed=0)
    with pytest.raises(ValueError, match="different mesh"):
        integrators.run(SchemeConfig(tau=0.05, T=0.1), other, problem, disc=disc8)
    with pytest.raises(ValueError, match="disc has sigma=10.0"):
        integrators.run(SchemeConfig(tau=0.05, T=0.1, sigma=3.0, nu=0.01), mesh8,
                        manufactured.taylor_green(0.01), disc=disc8)


@pytest.mark.parametrize("integrator", ["explicit_rk2", "semi_implicit_cn"])
def test_runs_never_build_the_kkt_system(mesh8, problem, integrator, monkeypatch):
    # the bordered KKT system is the tests' oracle, built only on request,
    # and so are its multiplier space and divergence matrix
    def forbidden(*args, **kwargs):
        raise AssertionError("a run built part of the KKT system")

    monkeypatch.setattr(forms, "assemble_div", forbidden)
    monkeypatch.setattr(integrators, "ScalarDGSpace", forbidden)
    monkeypatch.setattr(linsolve, "SaddleSystem", forbidden)
    disc = Discretization(mesh8, 1)
    report = integrators.run(SchemeConfig(tau=1.0 / 20, T=0.25,
                                          integrator=integrator),
                             mesh8, problem, disc=disc)
    assert report.completed
    assert "saddle" not in disc.__dict__


@pytest.mark.parametrize("integrator", ["explicit_rk2", "semi_implicit_cn"])
def test_runs_never_assemble_the_velocity_convection_matrix(mesh8, problem,
                                                            integrator,
                                                            monkeypatch):
    # the CN step assembles its operator on the stream-function nodes, on a
    # pattern built once per discretization; an RK2 run never builds it
    def forbidden(*args, **kwargs):
        raise AssertionError("a run assembled the velocity convection matrix")

    builds = []
    block_pattern = forms.block_pattern
    monkeypatch.setattr(forms, "convection_matrix", forbidden)
    monkeypatch.setattr(forms, "block_pattern",
                        lambda *args: builds.append(args) or block_pattern(*args))
    disc = Discretization(mesh8, 1)
    cfg = SchemeConfig(tau=1.0 / 20, T=0.25, integrator=integrator)
    for _ in range(2):
        report = integrators.run(cfg, mesh8, problem, disc=disc)
        assert report.completed and report.n_steps_done == 5
    assert len(builds) == (integrator == "semi_implicit_cn")


def test_cn_steps_read_no_physical_facet_basis(mesh8, problem, monkeypatch):
    # a viscous CN run, its SIP form on the stream nodes included, reads the
    # reference facet traces only and maps no basis to physical values; the
    # convection tables are built once per discretization
    def forbidden(*args, **kwargs):
        raise AssertionError("a CN step read the physical facet basis")

    builds = []
    convection_tables = forms.convection_tables
    monkeypatch.setattr(fe_space.RTSpace, "piola", forbidden)
    monkeypatch.setattr(forms, "convection_tables",
                        lambda *args: builds.append(args) or convection_tables(*args))
    disc = Discretization(mesh8, 1, FormParams(nu=0.01))
    cfg = SchemeConfig(tau=1.0 / 20, T=0.25, nu=0.01, f_zero=True,
                       integrator="semi_implicit_cn")
    for _ in range(2):
        report = integrators.run(cfg, mesh8, problem, disc=disc)
        assert report.completed and report.n_steps_done == 5
    assert len(builds) == 1


@pytest.mark.parametrize("integrator", ["explicit_rk2", "semi_implicit_cn"])
def test_runs_never_assemble_the_velocity_sip_matrix(mesh8, problem, integrator,
                                                     monkeypatch):
    # viscous runs read the SIP form on the stream nodes, summed from its
    # local blocks; the velocity matrix is built only for the tests
    def forbidden(*args, **kwargs):
        raise AssertionError("a run assembled the velocity SIP matrix")

    monkeypatch.setattr(forms, "assemble_sip", forbidden)
    disc = Discretization(mesh8, 1, FormParams(nu=1e-3))
    report = integrators.run(SchemeConfig(tau=1.0 / 20, T=0.25, nu=1e-3,
                                          integrator=integrator),
                             mesh8, manufactured.taylor_green(1e-3), disc=disc)
    assert report.completed and report.n_steps_done == 5
    assert "sip" not in disc.__dict__


# CN runs with the full-vector convection kernel of ``conftest`` in place of
# the tangential one: the same per-step norms, fill and blow-up.
FULL_VECTOR_RUNS = {
    "k1_viscous": dict(n=8, tau=1.0 / 12, T=0.5, nu=0.01),
    "k1_unforced": dict(n=8, tau=1.0 / 12, T=0.5, f_zero=True),
    "k2_viscous": dict(n=6, k=2, tau=1.0 / 12, T=0.5, nu=0.01),
    "k2_unforced": dict(n=6, k=2, tau=1.0 / 12, T=0.5, f_zero=True),
}


@pytest.mark.parametrize("case", sorted(FULL_VECTOR_RUNS))
def test_cn_runs_match_the_full_vector_kernel(case, monkeypatch):
    scheme = dict(FULL_VECTOR_RUNS[case])
    mesh = build_structured(scheme.pop("n"), 0.15, seed=0)
    config = SchemeConfig(integrator="semi_implicit_cn", **scheme)
    problem = manufactured.taylor_green(config.nu)
    tangential = integrators.run(config, mesh, problem)
    use_full_vector_kernel(monkeypatch)
    full_vector = integrators.run(config, mesh, problem)
    assert tangential.blow_up == full_vector.blow_up
    assert tangential.factor_fill == full_vector.factor_fill > 0
    assert len(tangential.l2_norms) == len(full_vector.l2_norms) == config.n_steps + 1
    np.testing.assert_allclose(tangential.l2_norms, full_vector.l2_norms, rtol=1e-12, atol=0)


@pytest.mark.parametrize("integrator", ["explicit_rk2", "semi_implicit_cn"])
def test_report_factor_fill(mesh8, disc8, problem, integrator, monkeypatch):
    # the largest LU fill among the factorizations the run solved with
    fills = []

    class RecordingCN(linsolve.CNSystem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            fills.append(self.stats()["fill"])

    monkeypatch.setattr(linsolve, "CNSystem", RecordingCN)
    report = integrators.run(SchemeConfig(tau=1.0 / 20, T=0.25,
                                          integrator=integrator),
                             mesh8, problem, disc=disc8)
    assert report.completed
    if integrator == "explicit_rk2":
        assert fills == []
        assert report.factor_fill == disc8.projection.stats()["fill"] > 0
    else:
        assert len(fills) == 5
        assert report.factor_fill == max(fills) > disc8.projection.stats()["fill"]


@pytest.mark.parametrize("k, n, fills", [(1, 8, (9_360, 11_212)), (2, 6, (18_614, 20_536))])
def test_cn_fill_is_pinned(k, n, fills):
    # The largest LU fill of a CN run, inviscid and viscous, on one mesh per
    # k: a change to the CN ordering or to its factor options cannot raise
    # it unseen (the ordering applied as SuperLU's perm_c, not its inverse,
    # gives 3 to 3.3 times these).  SuperLU pivots on the operator's values,
    # so unlike K's fill this one follows roundoff: another BLAS or CPU may
    # store other fills
    mesh = build_structured(n, 0.15, seed=0)
    for nu, fill in zip((0.0, 0.01), fills):
        config = SchemeConfig(integrator="semi_implicit_cn", k=k, tau=1.0 / 12, T=0.25, nu=nu)
        report = integrators.run(config, mesh, manufactured.taylor_green(nu))
        assert report.completed and report.factor_fill == fill, nu


def test_discretization_is_freed_without_the_cycle_collector(problem):
    # Every table a space caches must be plain data: one that referred back
    # to the space would keep each finished discretization, its factor
    # included, alive until the cyclic collector happened to run.
    gc.disable()
    try:
        config = SchemeConfig(tau=0.05, T=0.05)
        disc = Discretization(build_structured(4, 0.15, seed=0), 1)
        state = integrators.rk2_step(integrators.initial_state(config, disc, problem),
                                     config, disc, problem)
        assert forms.jump_seminorm(disc.space, state.u, state.u) > 0.0
        state = integrators.cn_step(state, config, disc, problem)
        assert "reduced_cn" in disc.projection.__dict__
        space = weakref.ref(disc.space)
        del disc, state
        assert space() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("integrator,nu", [("explicit_rk2", 0.0), ("explicit_rk2", 1e-3),
                                           ("semi_implicit_cn", 0.0)])
def test_runs_never_assemble_the_velocity_mass_matrix(mesh8, integrator, nu, monkeypatch):
    # the stiffness comes from the reference tables and the run applies M
    # cell by cell; the assembled M is for the tests and the KKT oracle
    def forbidden(*args, **kwargs):
        raise AssertionError("a run assembled the velocity mass matrix")

    monkeypatch.setattr(forms, "assemble_mass", forbidden)
    disc = Discretization(mesh8, 1, FormParams(nu=nu))
    config = SchemeConfig(tau=1.0 / 20, T=0.25, nu=nu, integrator=integrator)
    report = integrators.run(config, mesh8, manufactured.taylor_green(nu), disc=disc)
    assert report.completed and report.n_steps_done == 5
    assert report.l2_err > 0.0
    assert "mass" not in disc.__dict__


@pytest.mark.parametrize("k", [1, 2])
def test_cell_local_mass_apply_matches_the_assembled_matrix(k):
    disc = Discretization(build_structured(6, 0.3, seed=4), k)
    v = np.random.default_rng(k).normal(size=disc.space.n_dofs)
    oracle = disc.mass @ v
    assert np.abs(forms.apply_mass(disc.space, v) - oracle).max() \
        <= 1e-14 * np.abs(oracle).max()
    assert disc.l2_norm(v) == pytest.approx(np.sqrt(v @ oracle), rel=1e-14)


def test_initial_field_is_interpolated_once_per_discretization(mesh8, problem, monkeypatch):
    # two runs on one disc interpolate each spatial part of u^0 once, and
    # report what runs on fresh discretizations report
    calls = []
    interpolate = integrators.rt_interpolate
    monkeypatch.setattr(integrators, "rt_interpolate",
                        lambda *args, **kwargs: calls.append(args[0]) or
                        interpolate(*args, **kwargs))
    configs = [SchemeConfig(tau=1.0 / 20, T=0.25),
               SchemeConfig(tau=1.0 / 12, T=0.25, integrator="semi_implicit_cn")]
    disc = Discretization(mesh8, 1)
    shared = [integrators.run(config, mesh8, problem, disc=disc) for config in configs]
    assert calls == list(problem.u_spatial)
    for config, report in zip(configs, shared):
        fresh = integrators.run(config, mesh8, problem)
        report.wall_time = fresh.wall_time
        np.testing.assert_equal(dataclasses.asdict(report), dataclasses.asdict(fresh))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_shared_discretization_gives_cn_runs_the_fresh_factorizations(k, nu):
    # CN runs with another tau, or unforced, after a first one on the same
    # disc report to the bit what runs on fresh discretizations report, and
    # leave the pattern and its renumbering in the column ordering as they
    # were (a viscous config needs a viscous disc and problem, so each nu
    # has its own)
    problem = manufactured.taylor_green(nu)
    mesh = build_structured(6, 0.2, seed=3)
    disc = Discretization(mesh, k, FormParams(nu=nu))
    tables = disc.projection.pattern + disc.projection.cn_order
    before = [table.copy() for table in tables]
    for kwargs in (dict(tau=1.0 / 20, T=0.25), dict(tau=1.0 / 8, T=0.5),
                   dict(tau=1.0 / 20, T=0.25, f_zero=True)):
        config = SchemeConfig(k=k, nu=nu, integrator="semi_implicit_cn", **kwargs)
        shared = integrators.run(config, mesh, problem, disc=disc)
        fresh = integrators.run(config, mesh, problem)
        shared.wall_time = fresh.wall_time
        np.testing.assert_equal(dataclasses.asdict(shared), dataclasses.asdict(fresh))
    for table, copy in zip(disc.projection.pattern + disc.projection.cn_order, before):
        assert table.dtype == copy.dtype
        np.testing.assert_array_equal(table, copy)


@pytest.mark.parametrize("k", [1, 2])
def test_cn_ordering_is_computed_once_per_projection(problem, k, monkeypatch):
    # the minimum-degree ordering is computed once, from the pattern, and
    # every CN step of every run on the projection factorizes in its natural
    # order; each step's solve is still the dense solve of its operator, to
    # the bound of test_linsolve's test_cn_step_matches_dense_solve
    disc = Discretization(build_structured(6, 0.2, seed=3), k)
    orderings, solves = [], []

    def recording(factorize):
        def factor(matrix, **kwargs):
            orderings.append(kwargs["permc_spec"])
            return factorize(matrix, **kwargs)
        return factor

    def solving(system, rhs):
        psi = cn_solve(system, rhs)
        solves.append((system, rhs, psi))
        return psi

    cn_solve = linsolve.cn_solve
    monkeypatch.setattr(linsolve, "splu", recording(linsolve.splu))
    monkeypatch.setattr(linsolve, "spilu", recording(linsolve.spilu))
    monkeypatch.setattr(linsolve, "cn_solve", solving)
    config = SchemeConfig(tau=1.0 / 24, T=0.25, k=k, integrator="semi_implicit_cn")
    for _ in range(2):
        assert integrators.run(config, disc.mesh, problem, disc=disc).completed
    assert orderings[0].startswith("MMD") and orderings[1:] == ["NATURAL"] * 12
    assert len(solves) == 12
    for system, rhs, psi in solves:
        dense = np.linalg.solve(system.matrix.toarray(), rhs)
        assert np.abs(psi - dense).max() <= 1e-9 * np.abs(dense).max()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 6), perturb=st.floats(0.0, 0.3),
       mesh_seed=st.integers(0, 2 ** 32 - 1), field_seed=st.integers(0, 2 ** 32 - 1))
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_rk2_steps_keep_div_and_energy_on_random_meshes(k, nu, n, perturb, mesh_seed,
                                                        field_seed):
    # a random stream function of unit velocity norm on a random mesh,
    # unforced: every step keeps div u = 0 and the energy identity with the
    # dissipation |v|^2_up + nu a_h(v, v) of the nodal SIP
    disc = Discretization(build_structured(n, perturb, seed=mesh_seed), k, FormParams(nu=nu))
    config = SchemeConfig(tau=1e-3, T=1.0, k=k, nu=nu, f_zero=True)
    proj = disc.projection
    psi = np.random.default_rng(field_seed).normal(size=proj.matrix.shape[0])
    psi /= np.sqrt(psi @ (proj.matrix @ psi))
    state = integrators.StepState(n=0, t=0.0, u=proj.velocity(psi), psi=psi, norm0=1.0, l2=1.0)
    for _ in range(3):
        new = integrators.rk2_step(state, config, disc)
        assert disc.div_l2(new.u) <= 1e-10
        jump_u, jump_w = (forms.jump_seminorm(disc.space, p, p, basis=proj.basis)
                          for p in (state.psi, new.stage))
        res = diagnostics.energy_residual(
            proj.matrix, new.stage, new.psi, state.l2, new.l2,
            integrators._dissipation(disc, state.psi, jump_u),
            integrators._dissipation(disc, new.stage, jump_w), config.tau)
        assert abs(res) <= 1e-10 * state.l2 ** 2
        state = new


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("nu", [0.0, 0.01])
def test_rk2_carries_the_stage_seminorm_of_its_own_apply(problem, k, nu):
    # the second stage's apply forms |C stage|^2_up from its own jump and
    # flux: to the bit what jump_seminorm gives, forced or not, and what an
    # unforced run records as jump_w
    mesh = build_structured(6, 0.2, seed=1)
    disc = Discretization(mesh, k, FormParams(nu=nu))
    config = SchemeConfig(tau=1.0 / 200, T=0.02, k=k, nu=nu, f_zero=True)
    basis = disc.projection.basis
    state = integrators.initial_state(config, disc, problem)
    forced = integrators.rk2_step(state, config, disc, problem)
    assert forced.stage_jump == forms.jump_seminorm(disc.space, forced.stage, forced.stage,
                                                    basis=basis)
    stage_jumps = []
    for _ in range(config.n_steps):
        state = integrators.rk2_step(state, config, disc)
        assert state.stage_jump == forms.jump_seminorm(disc.space, state.stage, state.stage,
                                                       basis=basis)
        stage_jumps.append(state.stage_jump)
    assert integrators.run(config, mesh, problem, disc=disc).jump_w[1:] == stage_jumps


@pytest.mark.parametrize("k,n,perturb", [(1, 8, 0.15), (1, 2, 0.3), (2, 2, 0.3),
                                         (1, 3, 0.3), (2, 3, 0.3)])
def test_initial_velocity_is_the_curl_of_psi0(problem, k, n, perturb):
    # u^0 = C psi_0, the divergence-free projection of the interpolant,
    # which C psi_0 reproduces on Taylor-Green to roundoff, on n = 2 and 3
    # too, where the interpolation's rule deepens with the facet length (at
    # order 15 it would miss by up to 3.3e-9, and the run would be rejected)
    disc = Discretization(build_structured(n, perturb, seed=0), k)
    state = integrators.initial_state(SchemeConfig(tau=0.05, k=k), disc, problem)
    assert np.array_equal(state.u.values, disc.projection.velocity(state.psi).values)
    assert state.norm0 == state.l2 == pytest.approx(disc.l2_norm(state.u), rel=1e-12)
    interp = fe_space.rt_interpolate(lambda x, y: problem.u(x, y, 0.0), disc.space)
    assert disc.l2_norm(interp.values - state.u.values) <= 1e-12 * state.norm0


@pytest.mark.parametrize("n", [4, 5, 6])
def test_coarse_mesh_initial_defect_is_at_roundoff(problem, n):
    # the rule of the interpolation deepens enough on coarse k = 2 meshes
    # that C psi_0 reproduces Pi u^0 to roundoff; the fixed order 15 of
    # earlier versions left up to 7.6e-13 of ||u^0|| at n = 4
    for seed in range(4):
        disc = Discretization(build_structured(n, 0.3, seed=seed), 2)
        state = integrators.initial_state(SchemeConfig(tau=0.05, k=2), disc, problem)
        interp = fe_space.rt_interpolate(lambda x, y: problem.u(x, y, 0.0), disc.space)
        assert disc.l2_norm(interp.values - state.u.values) <= 1e-13 * state.norm0, seed


def test_initial_flow_through_the_walls_is_rejected(mesh8, disc8):
    # the uniform flow (1, 0) has normal flux on the walls, which no stream
    # function vanishing there carries: the run used to report completed
    # after dropping ||u|| from 1 to 0 at step 1
    uniform = lambda x, y: np.stack(np.broadcast_arrays(1.0, 0.0 * x), axis=-1)
    flow = manufactured.ExactProblem(
        u_spatial=(uniform,), u_coeffs=lambda t: np.ones(1), grad_u=None, dt_u=None,
        p=None, f_spatial=(), f_coeffs=None, dt_f_coeffs=None)
    config = SchemeConfig(tau=1.0 / 40, T=0.1, f_zero=True)
    with pytest.raises(ValueError, match=r"misses the interpolant .* by \d\.\d+e[+-]\d+ of"):
        integrators.run(config, mesh8, flow, disc=disc8)


# The runs on the stream function against the velocity-space steps of
# ``conftest``: the same per-step norms, to roundoff, and the same blow-up.
EQUIVALENCE_RUNS = {
    "forced_rk2": dict(n=8, tau=1.0 / 20, T=0.5),
    "forced_rk2_k2_f_next": dict(n=6, k=2, tau=1.0 / 30, T=0.25, f_mode="f_next"),
    "unforced_rk2": dict(n=8, tau=1.0 / 25, T=0.5, f_zero=True),
    "viscous_rk2": dict(n=8, tau=1.0 / 40, T=0.25, nu=1e-3),
    "viscous_unforced_rk2": dict(n=8, tau=1.0 / 64, T=0.25, nu=0.01, f_zero=True),
    "blown_up_rk2": dict(n=8, tau=1.0 / 12, T=2.0),
    "cn": dict(n=8, tau=1.0 / 12, T=0.5, integrator="semi_implicit_cn"),
    "cn_k2": dict(n=6, k=2, tau=1.0 / 12, T=0.5, integrator="semi_implicit_cn"),
    "viscous_cn": dict(n=8, tau=1.0 / 12, T=0.5, nu=0.01, integrator="semi_implicit_cn"),
}


@pytest.mark.parametrize("case", sorted(EQUIVALENCE_RUNS))
def test_runs_match_the_velocity_space_steps(case):
    scheme = dict(EQUIVALENCE_RUNS[case])
    mesh = build_structured(scheme.pop("n"), 0.15, seed=0)
    config = SchemeConfig(**scheme)
    problem = manufactured.taylor_green(config.nu)
    disc = config.discretization(mesh)
    report = integrators.run(config, mesh, problem, disc=disc)
    l2, blow_up = velocity_run(config, disc, problem)
    assert report.blow_up == blow_up
    assert (blow_up is not None) == (case == "blown_up_rk2")
    assert len(report.l2_norms) == len(l2)
    np.testing.assert_allclose(report.l2_norms, l2, rtol=1e-11, atol=0)


@pytest.mark.parametrize("integrator,nu", [("explicit_rk2", 0.0), ("explicit_rk2", 1e-3),
                                           ("semi_implicit_cn", 0.01)])
def test_steps_stay_on_the_stream_nodes(mesh8, problem, integrator, nu, monkeypatch):
    # inside a step: no velocity mass product, and every solve takes a
    # right-hand side on the stream nodes.  C psi becomes a velocity once
    # for u^0, once per step, for the new u, and once more per CN step
    # after step 0, for the advecting field
    disc = Discretization(mesh8, 1, FormParams(nu=nu))
    inside, velocities, rhs_sizes = [], [], []

    def stepping(step):
        def wrapped(*args, **kwargs):
            inside.append(True)
            try:
                return step(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    def forbidden(name, method):
        def call(*args, **kwargs):
            if inside:
                raise AssertionError(f"a step called {name}")
            return method(*args, **kwargs)
        return call

    def solving(solve):
        return lambda system, rhs: rhs_sizes.append(len(rhs)) or solve(system, rhs)

    class GuardedMass(type(disc.mass)):
        __matmul__ = forbidden("a velocity mass product", type(disc.mass).__matmul__)

    monkeypatch.setattr(forms, "apply_mass",
                        forbidden("a velocity mass product", forms.apply_mass))

    velocity = linsolve.StreamFunctionProjection.velocity
    monkeypatch.setattr(integrators, "rk2_step", stepping(integrators.rk2_step))
    monkeypatch.setattr(integrators, "cn_step", stepping(integrators.cn_step))
    monkeypatch.setattr(linsolve, "project_div_free", solving(linsolve.project_div_free))
    monkeypatch.setattr(linsolve, "cn_solve", solving(linsolve.cn_solve))
    monkeypatch.setattr(linsolve.StreamFunctionProjection, "velocity",
                        lambda self, psi: velocities.append(bool(inside))
                        or velocity(self, psi))
    disc.mass = GuardedMass(disc.mass)
    config = SchemeConfig(tau=1.0 / 20, T=0.25, nu=nu, integrator=integrator)
    report = integrators.run(config, mesh8, manufactured.taylor_green(nu), disc=disc)
    assert report.completed and report.n_steps_done == 5
    is_rk2 = integrator == "explicit_rk2"
    assert rhs_sizes == [disc.projection.n_free] * (10 if is_rk2 else 5)
    assert velocities.count(False) == 1
    assert velocities.count(True) == (5 if is_rk2 else 9)
