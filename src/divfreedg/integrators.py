"""Time stepping: the explicit second-order RK scheme for the inviscid and
explicit-viscous equations, and the semi-implicit Crank-Nicolson comparator.

Each RK stage assembles an explicit right-hand-side functional and projects it
onto the exactly divergence-free subspace, so both the predictor and the new
velocity are divergence-free by construction.  Blow-up is a reportable
outcome carried by BlowUpSignal, not a solver failure.  Both integrators, and
so every sweep and study built on them, share one definition of it: a step
blows up when the new velocity has a non-finite value or
||u|| > BLOWUP_FACTOR * max(||u^0||, 1).
"""

import time
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

from . import diagnostics, forms, linsolve
from .fe_space import CoefVec, RTSpace, ScalarDGSpace, rt_interpolate
from .forms import FormParams
from .linsolve import BlowUpSignal

F_MODES = ("f_taylor", "f_next")
INTEGRATOR_NAMES = ("explicit_rk2", "semi_implicit_cn")
BLOWUP_FACTOR = 10.0


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
    f_zero: bool = False

    def __post_init__(self):
        forms.check_finite(self, "tau", "T", "nu", "sigma")
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
        self.n_steps = max(1, round(self.T / self.tau))
        self.tau = self.T / self.n_steps

    def time_at(self, n):
        """t^n without drift; lands on T exactly at the final step."""
        return (n * self.T) / self.n_steps

    def as_dict(self):
        return asdict(self)

    def discretization(self, mesh):
        """The spaces and operators this config runs on ``mesh``; every
        config with the same k, sigma and nu can share them."""
        return Discretization(mesh, self.k, FormParams(sigma=self.sigma, nu=self.nu))


@dataclass
class StepState:
    """State after step n: velocity, previous velocity (for the CN
    extrapolation), the RK predictor of the step that produced u, the L2
    norms of u^0 and of u (from the blow-up gate) and the step's LU fill."""

    n: int
    t: float
    u: CoefVec
    u_prev: CoefVec = None
    stage: CoefVec = None
    norm0: float = 0.0
    l2: float = None
    factor_fill: int = 0


class Discretization:
    """The RT_k space, the mass and SIP matrices and the factorized
    stream-function projection for one (mesh, degree) pair; shared by all
    steps and all trial runs on it, and so is every load vector assembled
    on it (see ``load_vectors``).  The mesh must be simply connected."""

    def __init__(self, mesh, k, params=None):
        self.mesh = mesh
        self.k = k
        self.params = (params or FormParams()).resolve(k)
        self.space = RTSpace(mesh, k)
        self.mass = forms.assemble_mass(self.space, self.params.cell_order)
        self.sip = forms.assemble_sip(self.space, self.params) if self.params.nu > 0 else None
        self.projection = linsolve.StreamFunctionProjection(self.space, self.mass,
                                                            self.sip)
        self._load_memo = {}

    @cached_property
    def saddle(self):
        """The bordered KKT projection on the same mass matrix, with the
        broken P_k multipliers and their divergence matrix, built on first
        use: the oracle that tests compare the stream-function projection
        with.  No run uses it."""
        q_space = ScalarDGSpace(self.mesh, self.k)
        div = forms.assemble_div(self.space, q_space, self.params.cell_order)
        return linsolve.build_saddle(self.space, q_space, self.mass, div)

    def load_vectors(self, spatial, boundary=False):
        """Rows: the load vector of each function g(x, y) in ``spatial``, or
        with ``boundary`` its SIP wall data.  Each is assembled on first use
        and kept, keyed by the function itself."""
        rows = []
        for g in spatial:
            key = (g, boundary)
            if key not in self._load_memo:
                self._load_memo[key] = (
                    forms.assemble_sip_boundary_load(self.space, g, self.params)
                    if boundary else
                    forms.assemble_load(self.space, g, self.params.load_order))
            rows.append(self._load_memo[key])
        return np.stack(rows)

    def l2_norm(self, u):
        return float(np.sqrt(max(u.values @ (self.mass @ u.values), 0.0)))

    def div_l2(self, u):
        return forms.divergence_l2_norm(self.space, u, self.params.cell_order)


def _check_blowup(disc, state, u):
    """The blow-up gate of step ``state.n``, shared by both integrators;
    returns the L2 norm of u."""
    if not np.all(np.isfinite(u.values)):
        raise BlowUpSignal(step=state.n)
    l2 = disc.l2_norm(u)
    if l2 > BLOWUP_FACTOR * max(state.norm0, 1.0):
        raise BlowUpSignal(step=state.n)
    return l2


def _load(disc, problem, t, tau_taylor=None):
    """Load vector of f(t), or of f(t) + tau df/dt(t) when tau_taylor is set."""
    coeffs = problem.f_coeffs(t)
    if tau_taylor is not None:
        coeffs = coeffs + tau_taylor * problem.dt_f_coeffs(t)
    return coeffs @ disc.load_vectors(problem.f_spatial)


def _viscous_boundary_load(disc, problem, t):
    """Weak Dirichlet data for the viscous term: the exact velocity has zero
    normal trace but a nonzero tangential trace on the walls, which must pair
    with the SIP boundary terms or the no-slip penalty drags the solution."""
    if problem is None:
        return 0.0
    return problem.u_coeffs(t) @ disc.load_vectors(problem.u_spatial,
                                                   boundary=True)


def rk2_step(state, config, disc, problem=None):
    """One explicit RK2 step; the viscous term enters explicitly when nu > 0.
    A non-finite predictor reaches the second projection, which raises."""
    space = disc.space
    mass = disc.mass
    tau = config.tau
    u = state.u.values
    t = state.t
    rhs = mass @ u - tau * forms.apply_convection(space, state.u, state.u)
    if config.nu > 0:
        rhs -= tau * config.nu * (disc.sip @ u)
        rhs += tau * config.nu * _viscous_boundary_load(disc, problem, t)
    if problem is not None:
        rhs += tau * _load(disc, problem, t)
    stage = linsolve.project_div_free(disc.projection, rhs[space.free_dofs])

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
    u_next = linsolve.project_div_free(disc.projection, rhs[space.free_dofs])
    l2 = _check_blowup(disc, state, u_next)
    return StepState(n=state.n + 1, t=config.time_at(state.n + 1), u=u_next,
                     u_prev=state.u, stage=stage, norm0=state.norm0, l2=l2,
                     factor_fill=disc.projection.fill)


def cn_step(state, config, disc, problem=None):
    """One semi-implicit step: Crank-Nicolson with the extrapolated advecting
    field 1.5 u^n - 0.5 u^{n-1}; step 0 bootstraps with semi-implicit Euler."""
    space = disc.space
    mass = disc.mass
    tau = config.tau
    nu = config.nu
    u = state.u.values

    if state.n == 0:
        system = linsolve.CNSystem(disc.projection, state.u, tau, nu=nu, theta=1.0)
        rhs = mass @ u / tau
        if problem is not None:
            rhs += _load(disc, problem, state.t + tau)
        if nu > 0:
            rhs += nu * _viscous_boundary_load(disc, problem, state.t + tau)
    else:
        advect = CoefVec(space, 1.5 * u - 0.5 * state.u_prev.values)
        system = linsolve.CNSystem(disc.projection, advect, tau, nu=nu, theta=0.5)
        rhs = mass @ u / tau - 0.5 * forms.apply_convection(space, advect, state.u)
        if nu > 0:
            rhs -= 0.5 * nu * (disc.sip @ u)
            rhs += nu * _viscous_boundary_load(disc, problem, state.t + 0.5 * tau)
        if problem is not None:
            rhs += _load(disc, problem, state.t + 0.5 * tau)

    u_next = linsolve.cn_solve(system, rhs[space.free_dofs])
    l2 = _check_blowup(disc, state, u_next)
    return StepState(n=state.n + 1, t=config.time_at(state.n + 1), u=u_next,
                     u_prev=state.u, stage=None, norm0=state.norm0, l2=l2,
                     factor_fill=system.fill)


def initial_state(config, disc, problem=None):
    if problem is not None:
        u0 = rt_interpolate(lambda x, y: problem.u(x, y, 0.0), disc.space,
                            enforce_boundary=True)
    else:
        u0 = disc.space.zero()
    norm0 = disc.l2_norm(u0)
    return StepState(n=0, t=0.0, u=u0, norm0=norm0, l2=norm0)


def _dissipation(disc, v, jump):
    """What stage v dissipates in the energy identity: its upwind jump
    seminorm ``jump`` = |v|^2_up, plus nu a_h(v, v) when the run is viscous."""
    if disc.sip is None:
        return jump
    return jump + disc.params.nu * float(v.values @ (disc.sip @ v.values))


def _check_disc(disc, config, mesh):
    """A shared discretization must be the one the config describes."""
    params = FormParams(sigma=config.sigma, nu=config.nu).resolve(config.k)
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
    comes from the problem) and the per-step energy identity is monitored,
    with the viscous dissipation nu a_h(v, v) counted in viscous runs.
    A ``disc`` passed in must be built on ``mesh`` with the config's k, sigma
    and nu; any other raises ValueError.
    """
    started = time.perf_counter()
    if disc is None:
        disc = config.discretization(mesh)
    else:
        _check_disc(disc, config, mesh)
    forcing = problem if (problem is not None and not config.f_zero) else None
    track_energy = config.f_zero or problem is None
    is_rk2 = config.integrator == "explicit_rk2"
    step_fn = rk2_step if is_rk2 else cn_step

    state = initial_state(config, disc, problem)
    from . import manufactured  # local import to keep module deps one-way

    report = diagnostics.RunReport(config=config.as_dict())
    initial = dict(t=0.0, l2=state.l2, div=disc.div_l2(state.u))
    if track_energy:
        initial["jump_u"] = forms.jump_seminorm(disc.space, state.u, state.u)
    report.record(**initial)

    for _ in range(config.n_steps):
        try:
            new_state = step_fn(state, config, disc, forcing)
        except BlowUpSignal:
            report.blow_up = state.n
            break
        rec = dict(t=new_state.t, l2=new_state.l2, div=disc.div_l2(new_state.u))
        if track_energy:
            rec["jump_u"] = forms.jump_seminorm(disc.space, new_state.u,
                                                new_state.u)
            if is_rk2:
                jump_w = forms.jump_seminorm(disc.space, new_state.stage,
                                             new_state.stage)
                res = diagnostics.energy_residual(
                    disc.mass, state.u, new_state.stage, new_state.u,
                    _dissipation(disc, state.u, report.jump_u[-1]),
                    _dissipation(disc, new_state.stage, jump_w), config.tau)
                rec["jump_w"] = jump_w
                rec["energy_residual"] = res
                rec["energy_scale"] = max(state.l2 ** 2, 1e-300)
        report.record(**rec)
        report.factor_fill = max(report.factor_fill, new_state.factor_fill)
        state = new_state

    if report.completed and problem is not None and not config.f_zero:
        report.l2_err = manufactured.l2_error(disc.space, state.u, problem, state.t)
        report.h1_err = manufactured.h1_broken_error(disc.space, state.u,
                                                     problem, state.t)
        report.div_err = manufactured.div_norm(disc.space, state.u)
    report.wall_time = time.perf_counter() - started
    return report


__all__ = ["SchemeConfig", "StepState", "Discretization", "rk2_step",
           "cn_step", "run", "initial_state", "BlowUpSignal", "BLOWUP_FACTOR"]
