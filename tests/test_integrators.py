import numpy as np
import pytest

from divfreedg import build_structured, forms, integrators, linsolve, manufactured
from divfreedg.integrators import Discretization, SchemeConfig


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
    cfg = SchemeConfig(tau=0.1, f_mode="next", integrator="cn")
    assert cfg.f_mode == "f_next"
    assert cfg.integrator == "semi_implicit_cn"


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


def test_run_rejects_disc_of_another_mesh_or_sigma(mesh8, disc8, problem):
    other = build_structured(8, 0.15, seed=0)
    with pytest.raises(ValueError, match="different mesh"):
        integrators.run(SchemeConfig(tau=0.05, T=0.1), other, problem, disc=disc8)
    with pytest.raises(ValueError, match="disc has sigma=10.0"):
        integrators.run(SchemeConfig(tau=0.05, T=0.1, sigma=3.0), mesh8, problem,
                        disc=disc8)


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
