"""Workloads of the divfreedg benchmark; one run of one workload per process.

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed S \
        --seconds T --trace 0|1 --out FILE

``perfbench/run.py`` starts this script with BLAS pinned to one thread.  Jobs
of the workload run back to back from this one process (a closed loop): the
next job starts only after the last one ended, and only if it is expected to
end within ``--seconds``; at least one runs.  Before them, an untimed
warm-up runs the same configuration for two steps: a fresh process grows
its heap during its first job, which made that job up to 40% slower than
the rest, by an amount that varied from run to run, and the short warm-up
removes that difference.  Every job builds its mesh from the seed (the
mesh-perturbation seed; the first job uses the seed itself, later ones seeds
drawn from it, see ``mesh_seed``) and runs the solver from start to finish
through the package's public functions; its outputs are checked after it
ends.

The untraced run times steps with a step clock: a timestamp at the mesh
build and at every ``RunReport.record`` call, which ``integrators.run``
makes once after the initial state and once after every step.  The traced
run adds a span around each call into the solver's modules.  Both run the
calibration solve of ``calibration.py`` before and after every job and at
every ``record`` call, with the clock stopped, and report every time scaled
to the solve's reference speed.  The last line
of output is one JSON object with the metrics, the output checks and the
provenance of the run; ``--out`` receives the same object, with the spans
of a traced run and every job's times and calibration speeds (``job_log``).
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from divfreedg import (diagnostics, fe_space, forms, integrators, linsolve,
                       manufactured, mesh)

from calibration import REFERENCE_S, Calibration, speed, interval_speeds
from tracing import Tracer, self_times, summarize

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())
PERTURB = 0.15
DIV_TOL = 1e-10
ENERGY_TOL = 1e-10


@dataclass(frozen=True)
class SteppingRun:
    """One ``integrators.run`` on one mesh, cut to ``steps`` steps of ``tau``."""

    n: int
    k: int
    tau: float
    steps: int
    integrator: str = "explicit_rk2"
    f_zero: bool = False

    def job(self, seed, problem):
        m = mesh.build_structured(self.n, perturb=PERTURB, seed=seed)
        disc = integrators.Discretization(m, self.k)
        config = integrators.SchemeConfig(
            tau=self.tau, k=self.k, T=self.steps * self.tau,
            integrator=self.integrator, f_zero=self.f_zero)
        return integrators.run(config, m, problem, disc=disc), disc

    def warmup(self):
        return replace(self, steps=2)

    def check(self, report, ref, checks):
        checks.check(report.completed, f"run blew up at step {report.blow_up}")
        if self.f_zero:
            res = report.max_relative_energy_residual()
            checks.check(res <= ENERGY_TOL, f"energy residual {res:.3e}")
        if "l2_err" in ref:
            rel = abs(report.l2_err - ref["l2_err"]) / ref["l2_err"]
            checks.check(rel <= REFERENCE["l2_err_rel_tol"],
                         f"l2_err {report.l2_err!r} is {rel:.2e} off the reference")


def mesh_seed(seed, job):
    """The mesh-perturbation seed of a run's job: the workload seed itself
    for the first job, which the reference values check, and a seed drawn
    from it for each later one.  The solver's cost per step depends on the
    mesh (the pivoting of the CN factorization follows the values), so a run
    averages over several meshes rather than resting on one."""
    return seed if job == 0 else [seed, job]


def snapped_tau(tau):
    """The time step the solver takes for ``tau`` at T = 2."""
    return integrators.SchemeConfig(tau=tau, T=2.0).tau


# Why each workload is here, and which layers it loads, is in README.md.
WORKLOADS = {
    "rk2_k2_n32": SteppingRun(n=32, k=2, tau=snapped_tau(0.04 * 32 ** (-4 / 3)),
                              steps=30),
    "cn_k1_n16": SteppingRun(n=16, k=1, tau=1.0 / 24, steps=24,
                             integrator="semi_implicit_cn"),
    "energy_k1_n80": SteppingRun(n=80, k=1, tau=snapped_tau(0.25 / 80),
                                 steps=24, f_zero=True),
}


# -- output checks -------------------------------------------------------------

class Checks:
    """Output checks of one run: how many were made and which failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def divergence_ok(report):
    """div u_h at or below 1e-10 at every recorded step (nan fails)."""
    return all(d <= DIV_TOL for d in report.div_norms)


def broken_input_rejected():
    """The divergence check must fail on a field with div u = 2."""
    disc = integrators.Discretization(mesh.build_structured(4), 1)
    u = fe_space.rt_interpolate(lambda x, y: np.stack([x, y], axis=-1),
                                disc.space, enforce_boundary=False)
    report = diagnostics.RunReport(config={})
    report.record(t=0.0, l2=disc.l2_norm(u), div=disc.div_l2(u))
    return not divergence_ok(report)


# -- step clock ----------------------------------------------------------------

class StepClock:
    """Timestamps the start and end of a job and every ``RunReport.record``
    call in it; ``integrators.run`` records once after the initial state
    and once after every step.  The calibration runs after each stamp, with
    the clock stopped, so no interval the clock gives holds calibration
    time, and every interval between two stamps lies between two
    calibrations.
    """

    def __init__(self, calibration):
        self.calibration = calibration
        self.paused = 0.0
        self.stamps = []
        self._saved = []

    def now(self):
        return time.perf_counter() - self.paused

    def stamp(self):
        self.stamps.append(self.now())
        t0 = time.perf_counter()
        self.calibration.measure()
        self.paused += time.perf_counter() - t0

    def install(self):
        clock = self
        report_cls = diagnostics.RunReport

        class StampedReport(report_cls):
            def record(self, *args, **kwargs):
                clock.stamp()
                super().record(*args, **kwargs)

        self._saved = [(diagnostics, "RunReport", report_cls)]
        diagnostics.RunReport = StampedReport

    def restore(self):
        for module, attr, value in self._saved:
            setattr(module, attr, value)

    def job_times(self, samples):
        """Times of the job whose stamps the clock holds, as read and at the
        reference speed: each interval between two stamps scaled by the
        calibrations on either side of it (``samples``, one per stamp).

        Stamps: job start, initial state, step 1, ..., step N, job end."""
        read = np.diff(self.stamps)
        scaled = read * interval_speeds(samples)
        return {view: dict(wall_s=float(t.sum()),
                           setup_s=float(t[:2].sum()),  # to the end of step 1
                           step_s=t[2:-1].tolist())     # steps 2..N
                for view, t in (("read", read), ("scaled", scaled))}


# -- traced run ----------------------------------------------------------------

def install_tracer(tracer):
    """Wrap the public functions of each layer where their callers look
    them up.  The quadrature layer runs inside the fe_space table builds and
    the cli layer is not driven, so neither is wrapped."""
    patches = [
        (mesh, "build_structured", "mesh.build_structured"),
        (integrators, "RTSpace", "fe_space.RTSpace"),
        (integrators, "ScalarDGSpace", "fe_space.ScalarDGSpace"),
        (integrators, "rt_interpolate", "fe_space.rt_interpolate"),
        (forms, "assemble_mass", "forms.assemble_mass"),
        (forms, "assemble_div", "forms.assemble_div"),
        (forms, "apply_convection", "forms.apply_convection"),
        (forms, "convection_matrix", "forms.convection_matrix"),
        (forms, "jump_seminorm", "forms.jump_seminorm"),
        (forms, "divergence_l2_norm", "forms.divergence_l2_norm"),
        (linsolve, "build_saddle", "linsolve.build_saddle"),
        (linsolve, "splu", "linsolve.factor"),
        (linsolve, "project_div_free", "linsolve.project_div_free"),
        (linsolve, "CNSystem", "linsolve.CNSystem"),
        (linsolve, "cn_solve", "linsolve.cn_solve"),
        (manufactured, "l2_error", "manufactured.l2_error"),
        (manufactured, "h1_broken_error", "manufactured.h1_broken_error"),
        (manufactured, "div_norm", "manufactured.div_norm"),
        (integrators, "Discretization", "integrators.Discretization"),
        (integrators, "rk2_step", "integrators.rk2_step"),
        (integrators, "cn_step", "integrators.cn_step"),
        (integrators, "run", "integrators.run"),
        (diagnostics, "energy_residual", "diagnostics.energy_residual"),
    ]
    for module, attr, name in patches:
        tracer.patch(module, attr, name)


def layer_metrics(spans, jobs, sizes):
    """Per-layer metrics of a traced run.  ``.ms`` is the median time of one
    call; counts and busy seconds are per job.  Every time is scaled by its
    job's speed, as the end-to-end ones are.  ``sizes`` describes the
    discretization; KKT size and LU fill are those of the projection."""
    n_jobs = len(jobs)
    scale = [jobs[span.job]["speed"] for span in spans]
    duration = [span.duration * f for span, f in zip(spans, scale)]
    own = [t * f for t, f in zip(self_times(spans), scale)]
    named = {}
    for i, span in enumerate(spans):
        named.setdefault(span.name, []).append(i)

    def idx(name):
        return named.get(name, [])

    def count(name):
        return len(idx(name)) / n_jobs

    def ms(name):
        durations = [duration[i] for i in idx(name)]
        return 1e3 * statistics.median(durations) if durations else 0.0

    def self_ms(name):
        values = [own[i] for i in idx(name)]
        return 1e3 * statistics.median(values) if values else 0.0

    def busy_s(*names):
        return sum(duration[i] for name in names for i in idx(name))

    steps = len(idx("integrators.rk2_step")) + len(idx("integrators.cn_step"))
    discs = len(idx("integrators.Discretization"))
    return {
        "mesh.build_ms": ms("mesh.build_structured"),
        "mesh.cells": sizes["cells"],
        "mesh.facets": sizes["facets"],
        "fe_space.space_ms": 1e3 * busy_s("fe_space.RTSpace",
                                          "fe_space.ScalarDGSpace") / discs,
        "fe_space.interp_ms": ms("fe_space.rt_interpolate"),
        "fe_space.lazy_tables_ms": 1e3 * statistics.median(
            job["lazy_tables_s"] * job["speed"] for job in jobs),
        "fe_space.dofs": sizes["dofs"],
        "forms.assembly_ms": 1e3 * busy_s("forms.assemble_mass",
                                          "forms.assemble_div") / discs,
        "forms.convection_apply.ms": ms("forms.apply_convection"),
        "forms.convection_apply.calls": count("forms.apply_convection"),
        "forms.convection_apply.busy_s": busy_s("forms.apply_convection") / n_jobs,
        "forms.convection_matrix.ms": ms("forms.convection_matrix"),
        "forms.convection_matrix.calls": count("forms.convection_matrix"),
        "forms.jump_seminorm.ms": ms("forms.jump_seminorm"),
        "forms.jump_seminorm.calls": count("forms.jump_seminorm"),
        "forms.divergence_l2_norm.ms": ms("forms.divergence_l2_norm"),
        "linsolve.factor_ms": ms("linsolve.factor"),
        "linsolve.kkt_n": sizes["kkt_n"],
        "linsolve.lu_fill": sizes["lu_fill"],
        "linsolve.fill_ratio": sizes["lu_fill"] / sizes["kkt_nnz"],
        "linsolve.project.ms": ms("linsolve.project_div_free"),
        "linsolve.project.calls": count("linsolve.project_div_free"),
        "linsolve.cn_system.ms": ms("linsolve.CNSystem"),
        "linsolve.cn_system.calls": count("linsolve.CNSystem"),
        "linsolve.cn_solve.ms": ms("linsolve.cn_solve"),
        "manufactured.l2_error.ms": ms("manufactured.l2_error"),
        "manufactured.l2_error.calls": count("manufactured.l2_error"),
        "manufactured.h1_error.ms": ms("manufactured.h1_broken_error"),
        "manufactured.h1_error.calls": count("manufactured.h1_broken_error"),
        "manufactured.div_norm.ms": ms("manufactured.div_norm"),
        "manufactured.div_norm.calls": count("manufactured.div_norm"),
        "integrators.disc_ms": ms("integrators.Discretization"),
        "integrators.rk2_step.self_ms": self_ms("integrators.rk2_step"),
        "integrators.cn_step.self_ms": self_ms("integrators.cn_step"),
        "integrators.run.self_ms_per_step":
            1e3 * sum(own[i] for i in idx("integrators.run")) / steps,
        "integrators.steps": steps / n_jobs,
        "integrators.blow_ups": sum(job["blow_ups"] for job in jobs) / n_jobs,
        "diagnostics.energy_residual.ms": ms("diagnostics.energy_residual"),
        "trace.run_s": statistics.median(job["scaled"]["wall_s"]
                                         for job in jobs),
        "machine.calibration_ms": 1e3 * float(np.median(
            np.concatenate([job["calibration_s"] for job in jobs]))),
    }


# -- the run -------------------------------------------------------------------

def describe(disc):
    """Sizes of one discretization of a structured mesh (2 n^2 cells)."""
    lu = disc.saddle.lu
    cells = disc.mesh.n_cells
    return dict(k=disc.k, n=round(math.sqrt(cells / 2)), cells=cells,
                facets=disc.mesh.n_facets,
                dofs=disc.space.n_dofs, kkt_n=disc.saddle.matrix.shape[0],
                kkt_nnz=disc.saddle.matrix.nnz, lu_fill=lu.L.nnz + lu.U.nnz)


def git_sha():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return dict(
        git_sha=git_sha(),
        nproc=os.cpu_count(),
        python=platform.python_version(),
        numpy=np.__version__,
        scipy=scipy.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
        blas_threads=os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        divfree_threads=os.environ.get("DIVFREE_THREADS", "unset (serial)"),
        seed=seed,
    )


def run(name, seed, seconds, traced):
    workload = WORKLOADS[name]
    problem = manufactured.taylor_green(0.0)
    ref = REFERENCE[name].get(str(seed), {})
    checks = Checks()
    jobs = []
    started = time.perf_counter()
    workload.warmup().job(seed, problem)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration = Calibration()
    clock = StepClock(calibration)
    tracer = Tracer(clock=clock.now)
    clock.install()
    if traced:
        install_tracer(tracer)
    try:
        while True:
            job = len(jobs)
            clock.stamps = []
            tracer.job = job
            first = len(calibration.samples)
            real_t0 = time.perf_counter()
            clock.stamp()
            report, disc = workload.job(mesh_seed(seed, job), problem)
            clock.stamp()
            samples = calibration.samples[first:]
            times = clock.job_times(samples)
            steps = times["read"]["step_s"]
            jobs.append(dict(times, real_s=time.perf_counter() - real_t0,
                             speed=speed(samples),
                             lazy_tables_s=float(np.diff(clock.stamps)[1]
                                                 - np.median(steps)),
                             blow_ups=int(not report.completed),
                             calibration_s=samples))
            checks.check(divergence_ok(report),
                         f"divergence above {DIV_TOL} at some step")
            if job == 0:
                workload.check(report, ref, checks)
                described = describe(disc)
            else:
                workload.check(report, {}, checks)
            typical = statistics.median(j["real_s"] for j in jobs)
            if time.perf_counter() + typical > started + seconds:
                break
            # Free the last job's discretization before the next job starts,
            # not at whatever point of it the garbage collector next runs.
            del report, disc
            gc.collect()
    finally:
        clock.restore()
        tracer.restore()

    if "lu_fill" in ref:
        checks.check(described["lu_fill"] == ref["lu_fill"],
                     f"LU fill {described['lu_fill']} != {ref['lu_fill']}")
    result = dict(workload=name, seed=seed, trace=int(traced), jobs=len(jobs),
                  checks=dict(attempted=checks.attempted,
                              failed=len(checks.failures),
                              failures=checks.failures,
                              broken_input_rejected=broken_input_rejected()),
                  calibration=dict(
                      median_ms=1e3 * statistics.median(calibration.samples),
                      reference_ms=1e3 * REFERENCE_S,
                      samples=len(calibration.samples)),
                  provenance=dict(provenance(seed), discretization=described))
    if traced:
        result["metrics"] = layer_metrics(tracer.spans, jobs, described)
        result["layers"] = {key: {k: v / len(jobs) for k, v in row.items()}
                            for key, row in summarize(tracer.spans).items()}
        return result, tracer.spans, jobs

    def timings(view):
        times = [job[view] for job in jobs]
        step_ms = 1e3 * np.concatenate([t["step_s"] for t in times])
        return {
            "setup_s": statistics.median(t["setup_s"] for t in times),
            "run_s": statistics.median(t["wall_s"] for t in times),
            "step_ms.p50": float(np.percentile(step_ms, 50)),
            "step_ms.p90": float(np.percentile(step_ms, 90)),
        }

    result["metrics"] = timings("scaled")
    result["unscaled"] = timings("read")
    steps = sum(len(job["read"]["step_s"]) for job in jobs)
    result["metrics"]["peak_rss_mb"] = peak_rss_mb
    result["samples"] = {"setup_s": f"{len(jobs)} jobs",
                         "run_s": f"{len(jobs)} jobs",
                         "step_ms.p50": f"{steps} steps in {len(jobs)} jobs",
                         "step_ms.p90": f"{steps} steps in {len(jobs)} jobs",
                         "peak_rss_mb": "the warm-up"}
    return result, [], jobs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    result, spans, jobs = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    spans = [[s.name, s.job, s.parent, s.start, s.end] for s in spans]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(dict(result, spans=spans, job_log=jobs)))
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
