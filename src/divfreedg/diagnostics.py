"""Per-run and cross-run analysis: energy-identity residuals, CFL sweeps with
maximum-step search and exponent fitting, and convergence-study orchestration.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .manufactured import rate_table

NAN = float("nan")


def energy_residual(mass, prev_u, stage, next_u, diss_u, diss_w, tau):
    """Defect of the per-step discrete energy identity for unforced RK2 runs:

        ||u^{n+1}||^2 - ||u^n||^2
            = -tau D(u^n) - tau D(w^n) + ||u^{n+1} - w^n||^2

    with all norms in the mass inner product.  ``diss_u`` and ``diss_w``
    are the dissipations D(v) = |v|^2_up + nu a_h(v, v) of the two stages
    (the jump seminorm alone in an inviscid run).  For the exact scheme
    this is zero up to solver roundoff.  The three fields are coefficient
    vectors (``CoefVec``).
    """
    def msq(v):
        return float(v @ (mass @ v))

    lhs = msq(next_u.values) - msq(prev_u.values)
    rhs = -tau * diss_u - tau * diss_w + msq(next_u.values - stage.values)
    return lhs - rhs


@dataclass
class RunReport:
    """Per-step records plus final errors of one time-stepping run, and the
    largest LU fill (stored entries of L and U) among the factorizations its
    completed steps solved with: K for RK2, the step operators for CN."""

    config: dict
    times: list = field(default_factory=list)
    l2_norms: list = field(default_factory=list)
    div_norms: list = field(default_factory=list)
    jump_u: list = field(default_factory=list)
    jump_w: list = field(default_factory=list)
    energy_residuals: list = field(default_factory=list)
    energy_scales: list = field(default_factory=list)
    blow_up: int = None
    l2_err: float = NAN
    h1_err: float = NAN
    div_err: float = NAN
    wall_time: float = 0.0
    factor_fill: int = 0

    def record(self, t, l2, div, jump_u=NAN, jump_w=NAN,
               energy_residual=NAN, energy_scale=NAN):
        self.times.append(t)
        self.l2_norms.append(l2)
        self.div_norms.append(div)
        self.jump_u.append(jump_u)
        self.jump_w.append(jump_w)
        self.energy_residuals.append(energy_residual)
        self.energy_scales.append(energy_scale)

    @property
    def completed(self):
        return self.blow_up is None

    @property
    def n_steps_done(self):
        return len(self.times) - 1

    @property
    def max_div(self):
        return max(self.div_norms) if self.div_norms else NAN

    def max_relative_energy_residual(self):
        res = np.asarray(self.energy_residuals, dtype=float)
        scale = np.asarray(self.energy_scales, dtype=float)
        ok = np.isfinite(res) & np.isfinite(scale)
        if not np.any(ok):
            return NAN
        return float(np.max(np.abs(res[ok]) / scale[ok]))


@dataclass
class SweepResult:
    """Rows of (h, tau_max, alpha, errors) plus the full search trace."""

    rows: list = field(default_factory=list)
    trace: list = field(default_factory=list)


def _tau_for(cfl_form, co, h):
    if cfl_form == "std":
        return co * h
    if cfl_form == "fourthirds":
        return co * h ** (4.0 / 3.0)
    raise ValueError(f"unknown CFL form {cfl_form!r}")


def _mesh_sizes(n_list):
    """Mesh sizes in increasing order; rates need distinct sizes."""
    if len(n_list) == 0:
        raise ValueError("empty mesh-size list")
    n_sorted = sorted(n_list)
    for a, b in zip(n_sorted, n_sorted[1:]):
        if a == b:
            raise ValueError(f"duplicate mesh size n={a} in {list(n_list)}")
    return n_sorted


def run_trial(mesh, tau, problem, **scheme):
    """One run at step ``tau``; ``scheme`` holds the other SchemeConfig
    fields.  Sweeps and studies take the run's own blow-up gate
    (``report.completed``) as the verdict on the trial."""
    from . import integrators
    return integrators.run(integrators.SchemeConfig(tau=tau, **scheme), mesh,
                           problem)


def trial_row(report):
    """Table cells of one trial: final norms, errors and divergences, all nan
    when the run blew up or (``report`` None) no trial ran."""
    if report is None or not report.completed:
        return dict(l2_norm=NAN, l2_err=NAN, h1_err=NAN, max_div=NAN,
                    div_norm=NAN, div_err=NAN,
                    blow_up=None if report is None else report.blow_up)
    return dict(l2_norm=report.l2_norms[-1], l2_err=report.l2_err,
                h1_err=report.h1_err, max_div=report.max_div,
                div_norm=report.div_norms[-1], div_err=report.div_err,
                blow_up=None)


def _add_rates(rows, key, rate_key):
    rates = rate_table([r["h"] for r in rows], [r[key] for r in rows])
    for row, rate in zip(rows, [NAN] + rates):
        row[rate_key] = rate


def _problem(problem, scheme):
    if problem is not None:
        return problem
    from .manufactured import taylor_green
    return taylor_green(scheme.get("nu", 0.0))


def cfl_sweep(n_list, *, cfl_form="search", co=0.5, perturb=0.15, seed=0,
              problem=None, tau_floor=1e-5, **scheme):
    """Stability sweep over mesh sizes h = 1/n; ``scheme`` holds the
    SchemeConfig fields other than tau, and the problem defaults to
    Taylor-Green at the scheme's nu.

    In search mode tau = 1/m is scanned with the integer denominator starting
    at the standard-CFL value m = ceil(2 n) and increasing by 2 until the
    first run that completes; fixed forms run tau = co*h or co*h^(4/3) once
    per h.  All trials on one mesh share one Discretization.  alpha is the
    observed rate of tau_max in h.
    """
    problem = _problem(problem, scheme)
    from . import integrators
    from .mesh import build_structured

    result = SweepResult()
    for n in _mesh_sizes(n_list):
        h = 1.0 / n
        mesh = build_structured(n, perturb=perturb, seed=seed)
        if cfl_form == "search":
            start = math.ceil(1.0 / (0.5 * h))
            schedule = ((1.0 / m, m) for m in itertools.takewhile(
                lambda m: 1.0 / m >= tau_floor, itertools.count(start, 2)))
        else:
            schedule = [(_tau_for(cfl_form, co, h), None)]
        disc, row = None, None
        for tau, m in schedule:
            config = integrators.SchemeConfig(tau=tau, **scheme)
            disc = disc or config.discretization(mesh)
            report = integrators.run(config, mesh, problem, disc)
            result.trace.append((h, tau, report.completed))
            if report.completed:
                row = dict(h=h, n=n, tau_max=tau, denominator=m, **trial_row(report))
                break
        result.rows.append(row or dict(h=h, n=n, tau_max=NAN, denominator=None,
                                       **trial_row(None)))
    _add_rates(result.rows, "tau_max", "alpha")
    return result


def convergence_study(n_list, *, cfl_form="fourthirds", co=1.0, perturb=0.15,
                      seed=0, problem=None, **scheme):
    """Error/rate table over a sequence of meshes at the given CFL schedule;
    ``scheme`` and ``problem`` as in ``cfl_sweep``.

    Blown-up runs appear as nan rows (the standard-CFL fragility experiment
    uses the same operation).  An ``f_zero`` scheme has no exact solution to
    measure the errors against and raises ValueError."""
    if scheme.get("f_zero"):
        raise ValueError("a convergence study measures errors against the exact "
                         "solution, which an unforced (f_zero) run does not have")
    problem = _problem(problem, scheme)
    from .mesh import build_structured

    rows = []
    for n in _mesh_sizes(n_list):
        h = 1.0 / n
        tau = _tau_for(cfl_form, co, h)
        mesh = build_structured(n, perturb=perturb, seed=seed)
        report = run_trial(mesh, tau, problem, **scheme)
        rows.append(dict(h=h, n=n, tau=tau, **trial_row(report)))
    _add_rates(rows, "l2_err", "l2_rate")
    _add_rates(rows, "h1_err", "h1_rate")
    return rows


__all__ = ["RunReport", "SweepResult", "energy_residual", "cfl_sweep",
           "convergence_study", "run_trial", "trial_row", "rate_table"]
