"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import types

import numpy as np

from tracing import Span, Tracer, self_times, summarize


def test_self_time_subtracts_nested_children():
    spans = [
        Span("run", 0, None, 0.0, 10.0),
        Span("step", 0, 0, 1.0, 4.0),
        Span("apply", 0, 1, 1.5, 2.5),
        Span("step", 0, 0, 5.0, 9.0),
        Span("apply", 0, 3, 6.0, 7.0),
        Span("solve", 0, 3, 7.0, 8.5),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 1.5, 1.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", 0, None, 0.0, 10.0),
        Span("a", 0, 0, 2.0, 6.0),
        Span("b", 0, 0, 4.0, 8.0),
        Span("late", 0, 0, 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == 3.0


def test_tracer_records_parents_jobs_and_call_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) + module.inner(x)
    tracer.patch(module, "inner", "inner")
    tracer.patch(module, "outer", "outer")
    assert module.outer(1) == 4
    tracer.job = 1
    assert module.inner(5) == 6
    tracer.restore()
    assert module.inner(0) == 1 and not hasattr(module.inner, "__wrapped__")

    names = [(s.name, s.job, s.parent) for s in tracer.spans]
    assert names == [("outer", 0, None), ("inner", 0, 0), ("inner", 0, 0),
                     ("inner", 1, None)]
    # clock ticks: outer 0-5, inner 1-2 and 3-4, the second job's inner 6-7
    table = summarize(tracer.spans)
    assert table["outer"] == dict(calls=1, busy_s=5.0, self_s=3.0)
    assert table["inner"] == dict(calls=3, busy_s=3.0, self_s=3.0)


def test_span_ends_when_the_call_raises():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def blow_up():
        raise RuntimeError("blow-up")

    wrapped = tracer.wrap("step", blow_up)
    try:
        wrapped()
    except RuntimeError:
        pass
    assert tracer.spans[0].end == 1.0 and tracer.begin("next").parent is None


def test_divergence_check_rejects_broken_input():
    import workloads
    from divfreedg import build_structured, diagnostics, linsolve
    from divfreedg.integrators import Discretization

    assert workloads.broken_input_rejected()
    disc = Discretization(build_structured(4, 0.15, seed=0), 1)
    rng = np.random.default_rng(0)
    u = linsolve.project_div_free(disc.saddle, rng.normal(size=disc.saddle.n_free))
    report = diagnostics.RunReport(config={})
    report.record(t=0.0, l2=disc.l2_norm(u), div=disc.div_l2(u))
    assert workloads.divergence_ok(report)
    report.record(t=1.0, l2=float("nan"), div=float("nan"))
    assert not workloads.divergence_ok(report)


def test_step_clock_stands_still_during_calibration():
    import time

    import workloads

    class SlowCalibration:
        def __init__(self):
            self.samples = []

        def measure(self):
            time.sleep(0.2)
            self.samples.append(0.2)

    clock = workloads.StepClock(SlowCalibration())
    clock.stamp()
    assert clock.now() - clock.stamps[0] < 0.1
    assert clock.paused >= 0.2


def test_job_times_scale_each_interval_by_its_calibrations():
    from calibration import REFERENCE_S

    import workloads

    clock = workloads.StepClock(None)
    # job start, initial state, steps 1-3, job end
    clock.stamps = [0.0, 1.0, 2.0, 2.5, 3.0, 3.5]
    samples = [REFERENCE_S * f for f in (1, 1, 1, 3, 1, 1)]
    times = clock.job_times(samples)
    assert times["read"] == dict(wall_s=3.5, setup_s=2.0, step_s=[0.5, 0.5])
    # steps 2 and 3 ran next to a calibration three times as slow
    assert times["scaled"] == dict(wall_s=3.0, setup_s=2.0, step_s=[0.25, 0.25])


def test_speed_scales_to_the_reference_solve():
    from calibration import REFERENCE_S, Calibration, speed, interval_speeds

    assert speed([REFERENCE_S] * 3) == 1.0
    assert speed([2 * REFERENCE_S, 4 * REFERENCE_S, 1.0]) == 0.25
    assert list(interval_speeds([REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S])) == [0.5, 0.5]
    calibration = Calibration(n=20, n_small=5, triplets=100, loop=10)
    calibration.measure()
    assert len(calibration.samples) == 1 and calibration.samples[0] > 0
