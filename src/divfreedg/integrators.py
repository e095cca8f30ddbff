"""Time stepping: the explicit second-order RK scheme for the inviscid and
explicit-viscous equations, and the semi-implicit Crank-Nicolson comparator.

Both integrators advance the stream function psi on the interior P_{k+1}
nodes: each RK stage adds K^{-1} of an explicit right-hand side on the
nodes, so the velocities C psi are divergence-free by construction, and u
= C psi is formed once per step, for the records.  Blow-up is a reportable
outcome carried by BlowUpSignal, not a solver failure.  Both integrators, and
so every sweep and study built on them, share one definition of it: a step
blows up when the new velocity has a non-finite value or
||u|| > BLOWUP_FACTOR * max(||u^0||, 1).
"""

import time
from dataclasses import dataclass, asdict
from functools import cached_property

import numpy as np

from . import diagnostics, forms, linsolve, manufactured
from .fe_space import CoefVec, RTSpace, ScalarDGSpace, rt_interpolate
from .forms import FormParams
from .linsolve import BlowUpSignal

F_MODES = ("f_taylor", "f_next")
INTEGRATOR_NAMES = ("explicit_rk2", "semi_implicit_cn")
BLOWUP_FACTOR = 10.0


@dataclass
class SchemeConfig:
    """Run parameters.  The time step is snapped to T/round(T/tau) so every
    run ends exactly at the final time.

    Each field changes the run, and a field the run would not read raises
    ValueError: ``f_mode`` places the load of RK2's second stage (at t with
    the Taylor term tau df/dt, or at t + tau), which a CN run and an
    unforced (``f_zero``) run do not have, so those take the default
    "f_taylor"; ``sigma`` (None: ``forms.default_sigma(k)``) is the SIP
    penalty of the viscous term, so an inviscid run leaves it None."""

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
            raise ValueError(f"tau={self.tau} must be positive")
        if self.T <= 0:
            raise ValueError(f"T={self.T} must be positive")
        aliases = {"taylor": "f_taylor", "next": "f_next"}
        self.f_mode = aliases.get(self.f_mode, self.f_mode)
        if self.f_mode not in F_MODES:
            raise ValueError(f"f_mode must be one of {F_MODES}")
        int_aliases = {"rk2": "explicit_rk2", "cn": "semi_implicit_cn"}
        self.integrator = int_aliases.get(self.integrator, self.integrator)
        if self.integrator not in INTEGRATOR_NAMES:
            raise ValueError(f"integrator must be one of {INTEGRATOR_NAMES}")
        if self.f_mode == "f_next" and (self.integrator == "semi_implicit_cn" or self.f_zero):
            run = "an unforced (f_zero) run" if self.f_zero else "a CN run"
            raise ValueError(f"f_mode='f_next' moves the load of RK2's second stage to "
                             f"t + tau, and {run} has no such load")
        if self.sigma is not None and self.nu == 0:
            raise ValueError(f"sigma={self.sigma} is the SIP penalty of the viscous term, "
                             f"which an inviscid run (nu=0) does not have")
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
    """State after step n, u^0 included: the stream function psi on the
    interior P_{k+1} nodes and its velocity u = C psi, psi of the step
    before (for the CN extrapolation) and of the RK predictor, with the
    upwind seminorms |C psi_prev|^2_up and |C stage|^2_up that the RK
    stages' own applies formed, the L2 norms sqrt(psi^T K psi) of u^0 and
    of u and the step's LU fill.  The steps read psi; u is kept for the
    records."""

    n: int
    t: float
    u: CoefVec
    psi: np.ndarray
    psi_prev: np.ndarray = None
    stage: np.ndarray = None
    stage_jump: float = None
    prev_jump: float = None
    norm0: float = 0.0
    l2: float = None
    factor_fill: int = 0


class Discretization:
    """The RT_k space and the factorized stream-function projection for one
    (mesh, k, sigma, nu), which fix the discrete operator; shared by all
    steps and trial runs on it, as is every load vector C^T l
    (``load_vectors``) and initial stream function (``interpolants``) made
    on it.  A run applies M cell by cell (``forms.apply_mass``), and only at
    set-up.  The mesh must be simply connected."""

    def __init__(self, mesh, k, params=None):
        self.mesh = mesh
        self.k = k
        self.params = (params or FormParams()).resolve(k)
        self.space = RTSpace(mesh, k)
        self.projection = linsolve.StreamFunctionProjection(self.space, self.params)
        self._memo = {}

    @cached_property
    def mass(self):
        """The assembled mass matrix, built on first use for the tests and the KKT oracle."""
        return forms.assemble_mass(self.space)

    @cached_property
    def saddle(self):
        """The bordered KKT projection on the same mass matrix, with the
        broken P_k multipliers and their divergence matrix, built on first
        use: the oracle that tests compare the stream-function projection
        with.  No run uses it."""
        q_space = ScalarDGSpace(self.mesh, self.k)
        return linsolve.build_saddle(self.space, q_space, self.mass,
                                     forms.assemble_div(self.space, q_space))

    def load_vectors(self, spatial, boundary=False):
        """Rows: C^T l for the load vector l of each function g(x, y) in
        ``spatial``, or with ``boundary`` of its SIP wall data.  They are
        assembled on first use and kept, keyed by the functions themselves."""
        key = (tuple(spatial), boundary)
        if key not in self._memo:
            self._memo[key] = np.stack([self.projection.curl_t @ (
                forms.assemble_sip_boundary_load(self.space, g, self.params) if boundary
                else forms.assemble_load(self.space, g)) for g in spatial])
        return self._memo[key]

    def interpolants(self, spatial):
        """Rows: Pi g and its stream function K^{-1} C^T M Pi g for each g(x, y)
        in ``spatial``, made on first use and kept as ``load_vectors`` are."""
        key = (tuple(spatial), "interpolants")
        if key not in self._memo:
            proj = self.projection
            pi = np.stack([rt_interpolate(g, self.space).values for g in spatial])
            mass_pi = (forms.apply_mass(self.space, row) for row in pi)
            self._memo[key] = pi, np.stack([proj.solve(proj.curl_t @ m) for m in mass_pi])
        return self._memo[key]

    def l2_norm(self, u):
        u = forms._values(self.space, u)
        return float(np.sqrt(max(u @ forms.apply_mass(self.space, u), 0)))

    def div_l2(self, u):
        """||div u||, at the rule of order 2k that is exact for div u in P_k."""
        return forms.divergence_l2_norm(self.space, u)


def _l2(disc, psi):
    """The L2 norm of u = C psi, sqrt(psi^T K psi)."""
    return float(np.sqrt(max(psi @ (disc.projection.matrix @ psi), 0.0)))


def _check_blowup(disc, state, psi):
    """The blow-up gate of step ``state.n``, shared by both integrators;
    returns the L2 norm of u = C psi."""
    if not np.all(np.isfinite(psi)):
        raise BlowUpSignal(step=state.n)
    l2 = _l2(disc, psi)
    if l2 > BLOWUP_FACTOR * max(state.norm0, 1.0):
        raise BlowUpSignal(step=state.n)
    return l2


def _load(disc, problem, t, tau_taylor=None):
    """C^T l for the load l of f(t), or of f(t) + tau df/dt(t) with tau_taylor."""
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


def _stage_rhs(disc, psi, problem, t, load_at):
    """-b(psi, psi) - nu C^T A C psi + nu C^T g_b(t) + C^T l(*load_at) on the
    stream-function nodes, with b(psi_a, psi_w) = C^T c_h(C psi_a, C psi_w, .)
    and the nu of ``disc.params``: the right-hand side of an RK stage, and
    |C psi|^2_up from the same apply."""
    proj = disc.projection
    convection, jump = forms.apply_convection(disc.space, psi, psi, basis=proj.basis,
                                              seminorm=True)
    rhs, nu = -convection, disc.params.nu
    if nu > 0:
        rhs -= nu * (proj.reduced_sip @ psi)
        rhs += nu * _viscous_boundary_load(disc, problem, t)
    if problem is not None:
        rhs += _load(disc, problem, *load_at)
    return rhs, jump


def _advance(disc, state, config, system, psi, psi_next, **stages):
    """The state after step ``state.n`` from psi to ``psi_next``, once that
    has passed the blow-up gate; u = C psi_next is formed here, once per
    step.  ``stages`` holds an RK step's predictor and seminorms."""
    l2 = _check_blowup(disc, state, psi_next)
    return StepState(n=state.n + 1, t=config.time_at(state.n + 1),
                     u=disc.projection.velocity(psi_next), psi=psi_next, psi_prev=psi,
                     norm0=state.norm0, l2=l2, factor_fill=system.fill, **stages)


def rk2_step(state, config, disc, problem=None):
    """One explicit RK2 step on the stream function, each stage adding K^{-1}
    of its right-hand side; the viscous term enters explicitly when nu > 0:

        psi_w = psi + K^{-1} tau (-b(psi, psi) + C^T l(t) + ...)
        psi'  = (psi + psi_w) / 2 + K^{-1} tau/2 (-b(psi_w, psi_w) + ...)

    A non-finite predictor reaches the second solve, which raises.  Each
    apply also gives the seminorm of its field, |C psi|^2_up and |C
    psi_w|^2_up, which the state carries for the records and the energy
    identity."""
    proj, tau, t, psi = disc.projection, config.tau, state.t, state.psi
    rhs, prev_jump = _stage_rhs(disc, psi, problem, t, (t,))
    stage = psi + linsolve.project_div_free(proj, tau * rhs)
    load_at = (t, tau) if config.f_mode == "f_taylor" else (t + tau,)
    rhs, stage_jump = _stage_rhs(disc, stage, problem, t + tau, load_at)
    psi_next = 0.5 * (psi + stage) + linsolve.project_div_free(proj, 0.5 * tau * rhs)
    return _advance(disc, state, config, proj, psi, psi_next, stage=stage,
                    stage_jump=stage_jump, prev_jump=prev_jump)


def cn_step(state, config, disc, problem=None):
    """One semi-implicit step: Crank-Nicolson with the extrapolated advecting
    field C psi_a, psi_a = 1.5 psi^n - 0.5 psi^{n-1}; step 0 bootstraps with
    semi-implicit Euler.  The right-hand side K psi / tau - b(psi_a, psi) / 2
    + ... lives on the stream-function nodes, as the operator does."""
    proj, tau, nu, psi = disc.projection, config.tau, disc.params.nu, state.psi
    rhs = proj.matrix @ psi / tau
    if state.n == 0:
        system = linsolve.CNSystem(proj, state.u, tau, theta=1.0)
        t_load = state.t + tau
    else:
        psi_a = 1.5 * psi - 0.5 * state.psi_prev
        system = linsolve.CNSystem(proj, proj.velocity(psi_a), tau, theta=0.5)
        rhs -= 0.5 * forms.apply_convection(disc.space, psi_a, psi, basis=proj.basis)
        if nu > 0:
            rhs -= 0.5 * nu * (proj.reduced_sip @ psi)
        t_load = state.t + 0.5 * tau
    if nu > 0:
        rhs += nu * _viscous_boundary_load(disc, problem, t_load)
    if problem is not None:
        rhs += _load(disc, problem, t_load)
    return _advance(disc, state, config, system, psi, linsolve.cn_solve(system, rhs))


def initial_state(config, disc, problem=None):
    """The state at t = 0: u^0 = C psi_0, with psi_0 = K^{-1} C^T M Pi u^0 the
    stream function of the interpolant (both from ``disc.interpolants``),
    and ||u^0|| = sqrt(psi_0^T K psi_0).  An interpolant that C psi_0 misses
    by more than 1e-10 of its L2 norm, such as a flow through the walls,
    raises ValueError; Taylor-Green misses by the K solve's roundoff, 1e-14
    on coarse meshes and 1e-13 at n = 64."""
    psi, interp = np.zeros(disc.projection.matrix.shape[0]), np.zeros(disc.space.n_dofs)
    if problem is not None:
        coeffs, (rows, psi_rows) = problem.u_coeffs(0.0), disc.interpolants(problem.u_spatial)
        interp, psi = coeffs @ rows, coeffs @ psi_rows
    u0 = disc.projection.velocity(psi)
    defect, size = disc.l2_norm(interp - u0.values), disc.l2_norm(interp)
    if defect > 1e-10 * size:
        raise ValueError(f"C psi_0 misses the interpolant of the initial velocity by "
                         f"{defect / size:.3e} of its L2 norm: the velocity has flux through "
                         f"the walls or divergence, or varies too fast for this mesh")
    norm0 = _l2(disc, psi)
    return StepState(n=0, t=0.0, u=u0, psi=psi, norm0=norm0, l2=norm0)


def _dissipation(disc, psi, jump):
    """What the stage C psi dissipates in the energy identity: its upwind
    jump seminorm ``jump`` = |C psi|^2_up, plus nu a_h(C psi, C psi) when the
    run is viscous."""
    if disc.params.nu == 0:
        return jump
    return jump + disc.params.nu * float(psi @ (disc.projection.reduced_sip @ psi))


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
    with the viscous dissipation nu a_h(v, v) counted in viscous runs.  In
    an RK2 run a record's |u|^2_up is the one the next step's first stage
    formed; only the last record, after which no step ran, makes a
    ``jump_seminorm`` call of its own.  A ``disc`` passed in must be built
    on ``mesh`` with the config's k, sigma and nu, and the problem of a
    forced run derived for the config's nu; any other raises ValueError.
    """
    started = time.perf_counter()
    if disc is not None:
        _check_disc(disc, config, mesh)
    forcing = problem if (problem is not None and not config.f_zero) else None
    if forcing is not None and forcing.nu != config.nu:
        raise ValueError(f"the problem was derived for nu={forcing.nu} but the config "
                         f"asks for nu={config.nu}")
    disc = disc or config.discretization(mesh)
    track_energy = config.f_zero or problem is None
    is_rk2 = config.integrator == "explicit_rk2"
    step_fn = rk2_step if is_rk2 else cn_step

    state = initial_state(config, disc, problem)
    report = diagnostics.RunReport(config=config.as_dict())
    basis = disc.projection.basis

    def jump_u(psi):
        return forms.jump_seminorm(disc.space, psi, psi, basis=basis)

    initial = dict(t=0.0, l2=state.l2, div=disc.div_l2(state.u))
    if track_energy and not is_rk2:
        initial["jump_u"] = jump_u(state.psi)
    report.record(**initial)

    for _ in range(config.n_steps):
        try:
            new_state = step_fn(state, config, disc, forcing)
        except BlowUpSignal:
            report.blow_up = state.n
            break
        rec = dict(t=new_state.t, l2=new_state.l2, div=disc.div_l2(new_state.u))
        if track_energy and not is_rk2:
            rec["jump_u"] = jump_u(new_state.psi)
        elif track_energy:
            psi, stage = new_state.psi, new_state.stage
            report.jump_u[-1] = new_state.prev_jump  # the record of psi_prev
            rec["jump_w"] = new_state.stage_jump
            rec["energy_residual"] = diagnostics.energy_residual(
                disc.projection.matrix, stage, psi, state.l2, new_state.l2,
                _dissipation(disc, state.psi, report.jump_u[-1]),
                _dissipation(disc, stage, rec["jump_w"]), config.tau)
        report.record(**rec)
        report.factor_fill = max(report.factor_fill, new_state.factor_fill)
        state = new_state
    if track_energy and is_rk2:
        report.jump_u[-1] = jump_u(state.psi)

    if report.completed and problem is not None and not config.f_zero:
        report.l2_err = manufactured.l2_error(disc.space, state.u, problem, state.t)
        report.h1_err = manufactured.h1_broken_error(disc.space, state.u,
                                                     problem, state.t)
        report.div_err = manufactured.div_norm(disc.space, state.u)
    report.wall_time = time.perf_counter() - started
    return report


__all__ = ["SchemeConfig", "StepState", "Discretization", "rk2_step",
           "cn_step", "run", "initial_state", "BlowUpSignal", "BLOWUP_FACTOR"]
