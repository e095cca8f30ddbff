"""Time stepping: the explicit second-order RK scheme for the inviscid and
explicit-viscous equations, and the semi-implicit Crank-Nicolson comparator.

Each RK stage assembles an explicit right-hand-side functional and projects it
onto the exactly divergence-free subspace, so both the predictor and the new
velocity are divergence-free by construction.  Blow-up (non-finite values or
norm growth past the gate) is a reportable outcome carried by BlowUpSignal,
not a solver failure.
"""

import time
from dataclasses import dataclass, asdict

import numpy as np

from . import diagnostics, forms, linsolve
from .fe_space import CoefVec, RTSpace, ScalarDGSpace, rt_interpolate
from .forms import FormParams
from .linsolve import BlowUpSignal

F_MODES = ("f_taylor", "f_next")
INTEGRATOR_NAMES = ("explicit_rk2", "semi_implicit_cn")


@dataclass
class SchemeConfig:
    """Run parameters.  The time step is snapped to T/round(T/tau) so every
    run ends exactly at the final time."""

    tau: float
    k: int = 1
    T: float = 2.0
    nu: float = 0.0
    sigma: float = None
    f_mode: str = "f_taylor"
    integrator: str = "explicit_rk2"
    blowup_factor: float = 10.0
    f_zero: bool = False
    track_time_errors: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("time step must be positive")
        if self.T <= 0:
            raise ValueError("final time must be positive")
        aliases = {"taylor": "f_taylor", "next": "f_next"}
        self.f_mode = aliases.get(self.f_mode, self.f_mode)
        if self.f_mode not in F_MODES:
            raise ValueError(f"f_mode must be one of {F_MODES}")
        int_aliases = {"rk2": "explicit_rk2", "cn": "semi_implicit_cn"}
        self.integrator = int_aliases.get(self.integrator, self.integrator)
        if self.integrator not in INTEGRATOR_NAMES:
            raise ValueError(f"integrator must be one of {INTEGRATOR_NAMES}")
        self.requested_tau = self.tau
        self.n_steps = max(1, round(self.T / self.tau))
        self.tau = self.T / self.n_steps

    def time_at(self, n):
        """t^n without drift; lands on T exactly at the final step."""
        return (n * self.T) / self.n_steps

    def as_dict(self):
        return asdict(self)


@dataclass
class StepState:
    """State after step n: velocity, previous velocity (for the CN
    extrapolation) and the RK predictor of the step that produced u."""

    n: int
    t: float
    u: CoefVec
    u_prev: CoefVec = None
    stage: CoefVec = None
    norm0: float = 0.0


class Discretization:
    """Spaces, assembled operators and the factorized projection for one
    (mesh, degree) pair; shared by all steps and all trial runs on it."""

    def __init__(self, mesh, k, params=None):
        self.mesh = mesh
        self.k = k
        self.params = (params or FormParams()).resolve(k)
        self.space = RTSpace(mesh, k)
        self.q_space = ScalarDGSpace(mesh, k)
        self.mass = forms.assemble_mass(self.space, self.params.cell_order)
        self.div = forms.assemble_div(self.space, self.q_space, self.params.cell_order)
        self.saddle = linsolve.build_saddle(self.space, self.q_space,
                                            self.mass, self.div)
        self.sip = forms.assemble_sip(self.space, self.params) if self.params.nu > 0 else None

    def l2_norm(self, u):
        v = u.values if isinstance(u, CoefVec) else u
        return float(np.sqrt(max(v @ (self.mass @ v), 0.0)))

    def div_l2(self, u):
        v = u.values if isinstance(u, CoefVec) else u
        return forms.divergence_l2_norm(self.space, self.q_space, v, self.div)


def _check_finite(vec, step):
    if not np.all(np.isfinite(vec)):
        raise BlowUpSignal(step=step)


def _cached_vectors(disc, attr, problem, build):
    """Per-problem cache on the discretization; the entry keeps a reference
    to the problem so id() keys cannot be recycled while cached."""
    cache = getattr(disc, attr, None)
    if cache is None:
        cache = {}
        setattr(disc, attr, cache)
    entry = cache.get(id(problem))
    if entry is None or entry[0] is not problem:
        entry = (problem, build())
        cache[id(problem)] = entry
    return entry[1]


def _load_vectors(disc, problem):
    return _cached_vectors(
        disc, "_load_cache", problem,
        lambda: np.stack([
            forms.assemble_load(disc.space, g, disc.params.load_order)
            for g in problem.f_spatial]))


def _load(disc, problem, t, tau_taylor=None):
    """Load vector of f(t), or of f(t) + tau df/dt(t) when tau_taylor is set."""
    if problem.f_spatial is not None:
        coeffs = problem.f_coeffs(t)
        if tau_taylor is not None:
            coeffs = coeffs + tau_taylor * problem.dt_f_coeffs(t)
        return coeffs @ _load_vectors(disc, problem)
    if tau_taylor is None:
        func = lambda x, y: problem.f(x, y, t)
    else:
        func = lambda x, y: problem.f(x, y, t) + tau_taylor * problem.dt_f(x, y, t)
    return forms.assemble_load(disc.space, func, disc.params.load_order)


def _viscous_boundary_load(disc, problem, t):
    """Weak Dirichlet data for the viscous term: the exact velocity has zero
    normal trace but a nonzero tangential trace on the walls, which must pair
    with the SIP boundary terms or the no-slip penalty drags the solution."""
    if problem is None:
        return 0.0
    if problem.u_spatial is not None:
        vecs = _cached_vectors(
            disc, "_bload_cache", problem,
            lambda: np.stack([
                forms.assemble_sip_boundary_load(disc.space, g, disc.params)
                for g in problem.u_spatial]))
        return problem.u_coeffs(t) @ vecs
    return forms.assemble_sip_boundary_load(
        disc.space, lambda x, y: problem.u(x, y, t), disc.params)


def rk2_step(state, config, disc, problem=None):
    """One explicit RK2 step; the viscous term enters explicitly when nu > 0."""
    space = disc.space
    mass = disc.mass
    tau = config.tau
    u = state.u.values
    t = state.t
    try:
        rhs = mass @ u - tau * forms.apply_convection(space, state.u, state.u)
        if config.nu > 0:
            rhs -= tau * config.nu * (disc.sip @ u)
            rhs += tau * config.nu * _viscous_boundary_load(disc, problem, t)
        if problem is not None:
            rhs += tau * _load(disc, problem, t)
        stage = linsolve.project_div_free(disc.saddle, rhs[space.free_dofs])
        _check_finite(stage.values, state.n)

        w = stage.values
        rhs = 0.5 * (mass @ u + mass @ w) - 0.5 * tau * forms.apply_convection(
            space, stage, stage)
        if config.nu > 0:
            rhs -= 0.5 * tau * config.nu * (disc.sip @ w)
            rhs += 0.5 * tau * config.nu * _viscous_boundary_load(disc, problem,
                                                                  t + tau)
        if problem is not None:
            if config.f_mode == "f_taylor":
                rhs += 0.5 * tau * _load(disc, problem, t, tau_taylor=tau)
            else:
                rhs += 0.5 * tau * _load(disc, problem, t + tau)
        u_next = linsolve.project_div_free(disc.saddle, rhs[space.free_dofs])
        _check_finite(u_next.values, state.n)
    except BlowUpSignal as sig:
        if sig.step is None:
            sig.step = state.n
        raise

    norm = disc.l2_norm(u_next)
    if norm > config.blowup_factor * max(state.norm0, 1.0):
        raise BlowUpSignal(step=state.n)
    return StepState(n=state.n + 1, t=config.time_at(state.n + 1), u=u_next,
                     u_prev=state.u, stage=stage, norm0=state.norm0)


def cn_step(state, config, disc, problem=None):
    """One semi-implicit step: Crank-Nicolson with the extrapolated advecting
    field 1.5 u^n - 0.5 u^{n-1}; step 0 bootstraps with semi-implicit Euler."""
    space = disc.space
    mass = disc.mass
    tau = config.tau
    nu = config.nu
    u = state.u.values

    if state.n == 0:
        advect = state.u
        conv = forms.convection_matrix(space, advect)
        system = linsolve.CNSystem(space, disc.q_space, mass, disc.div, conv,
                                   tau, nu=nu, sip=disc.sip, theta=1.0)
        rhs = mass @ u / tau
        if problem is not None:
            rhs += _load(disc, problem, state.t + tau)
        if nu > 0:
            rhs += nu * _viscous_boundary_load(disc, problem, state.t + tau)
    else:
        advect = CoefVec(space, 1.5 * u - 0.5 * state.u_prev.values)
        conv = forms.convection_matrix(space, advect)
        system = linsolve.CNSystem(space, disc.q_space, mass, disc.div, conv,
                                   tau, nu=nu, sip=disc.sip, theta=0.5)
        rhs = mass @ u / tau - 0.5 * (conv @ u)
        if nu > 0:
            rhs -= 0.5 * nu * (disc.sip @ u)
            rhs += nu * _viscous_boundary_load(disc, problem, state.t + 0.5 * tau)
        if problem is not None:
            rhs += _load(disc, problem, state.t + 0.5 * tau)

    try:
        u_next = linsolve.cn_solve(system, rhs[space.free_dofs])
        _check_finite(u_next.values, state.n)
    except BlowUpSignal as sig:
        if sig.step is None:
            sig.step = state.n
        raise

    norm = disc.l2_norm(u_next)
    if norm > config.blowup_factor * max(state.norm0, 1.0):
        raise BlowUpSignal(step=state.n)
    return StepState(n=state.n + 1, t=config.time_at(state.n + 1), u=u_next,
                     u_prev=state.u, stage=None, norm0=state.norm0)


def initial_state(config, disc, problem=None):
    if problem is not None:
        u0 = rt_interpolate(lambda x, y: problem.u(x, y, 0.0), disc.space,
                            enforce_boundary=True)
    else:
        u0 = disc.space.zero()
    return StepState(n=0, t=0.0, u=u0, norm0=disc.l2_norm(u0))


def _check_disc(disc, config, mesh, params):
    """A shared discretization must be the one the config describes."""
    if disc.mesh is not mesh:
        raise ValueError("disc was built on a different mesh than the one passed to run")
    if disc.k != config.k:
        raise ValueError(f"disc has degree k={disc.k} but the config asks for k={config.k}")
    for name in ("sigma", "nu"):
        have, want = getattr(disc.params, name), getattr(params, name)
        if have != want:
            raise ValueError(f"disc has {name}={have} but the config resolves to {name}={want}")


def run(config, mesh, problem=None, disc=None):
    """Drive N steps and collect per-step diagnostics into a RunReport.

    With ``config.f_zero`` the forcing is suppressed (the initial value still
    comes from the problem) and the per-step energy identity is monitored.
    A ``disc`` passed in must be built on ``mesh`` with the config's k, sigma
    and nu; any other raises ValueError.
    """
    started = time.perf_counter()
    params = FormParams(sigma=config.sigma, nu=config.nu)
    if disc is None:
        disc = Discretization(mesh, config.k, params)
    else:
        _check_disc(disc, config, mesh, params.resolve(config.k))
    forcing = problem if (problem is not None and not config.f_zero) else None
    track_energy = config.f_zero or problem is None
    is_rk2 = config.integrator == "explicit_rk2"
    step_fn = rk2_step if is_rk2 else cn_step

    state = initial_state(config, disc, problem)
    from . import manufactured  # local import to keep module deps one-way

    report = diagnostics.RunReport(config=config.as_dict())
    initial = dict(t=0.0, l2=state.norm0, div=disc.div_l2(state.u))
    if track_energy:
        initial["jump_u"] = forms.jump_seminorm(disc.space, state.u, state.u)
    if config.track_time_errors and problem is not None and not config.f_zero:
        initial["l2_error"] = manufactured.l2_error(disc.space, state.u,
                                                    problem, 0.0)
    report.record(**initial)

    for _ in range(config.n_steps):
        prev_l2_sq = disc.l2_norm(state.u) ** 2
        try:
            new_state = step_fn(state, config, disc, forcing)
        except BlowUpSignal as sig:
            report.blow_up = sig.step if sig.step is not None else state.n
            break
        rec = dict(t=new_state.t, l2=disc.l2_norm(new_state.u),
                   div=disc.div_l2(new_state.u))
        if config.track_time_errors and problem is not None and not config.f_zero:
            rec["l2_error"] = manufactured.l2_error(disc.space, new_state.u,
                                                    problem, new_state.t)
        if track_energy:
            rec["jump_u"] = forms.jump_seminorm(disc.space, new_state.u,
                                                new_state.u)
            if is_rk2:
                jump_u = report.jump_u[-1]
                jump_w = forms.jump_seminorm(disc.space, new_state.stage,
                                             new_state.stage)
                res = diagnostics.energy_residual(
                    disc.mass, state.u, new_state.stage, new_state.u,
                    jump_u, jump_w, config.tau)
                rec["jump_w"] = jump_w
                rec["energy_residual"] = res
                rec["energy_scale"] = max(prev_l2_sq, 1e-300)
        report.record(**rec)
        state = new_state

    if report.completed and problem is not None and not config.f_zero:
        report.l2_err = manufactured.l2_error(disc.space, state.u, problem, state.t)
        report.h1_err = manufactured.h1_broken_error(disc.space, state.u,
                                                     problem, state.t)
        report.div_err = manufactured.div_norm(disc.space, state.u)
    report.wall_time = time.perf_counter() - started
    return report


__all__ = ["SchemeConfig", "StepState", "Discretization", "rk2_step",
           "cn_step", "run", "initial_state", "BlowUpSignal"]
