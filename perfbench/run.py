"""Benchmark of the divfreedg solver.

One run of one workload:

    python3 perfbench/run.py --workload rk2_k2_n32 --seed 0 --seconds 36 --trace 0

Every workload, untraced and traced, with the per-layer summary and the
tracing overhead:

    python3 perfbench/run.py --all --seed 0 --seconds 36

Run from the root of a checkout.  Each run is one child process
(``perfbench/workloads.py``) with BLAS pinned to one thread and the solver's
``DIVFREE_THREADS`` unset (serial), so its peak RSS is its own.  Metric
names and units come from ``BENCHMARK.json``: ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  The last line of
output is ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` and ``failed`` count output checks.  The full result of each
run, with provenance and, when traced, every span, is written to
``perfbench/out/``.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class RunFailed(RuntimeError):
    pass


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_child(workload, seed, seconds, trace):
    out = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    env = {key: value for key, value in os.environ.items()
           if key != "DIVFREE_THREADS"}
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: no result within {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: child exited with {proc.returncode}\n"
                        f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def select(result, metric_specs):
    """The metrics BENCHMARK.json names, with their units."""
    missing = [m["name"] for m in metric_specs if m["name"] not in result["metrics"]]
    if missing:
        raise RunFailed(f"{result['workload']}: no value for {missing}")
    return {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in metric_specs}


def print_result(result, metrics):
    checks = result["checks"]
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"trace={result['trace']}  jobs={result['jobs']}")
    samples = result.get("samples", {})
    for name, entry in metrics.items():
        n = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:36s} {entry['value']:>16.10g} {entry['unit']}{n}")
    cal = result["calibration"]
    print(f"  calibration {cal['median_ms']:.3f} ms (median of "
          f"{cal['samples']}); times are scaled to {cal['reference_ms']:g} ms")
    for name, value in result.get("unscaled", {}).items():
        print(f"  {name + ' (unscaled)':36s} {value:>16.10g} "
              f"{metrics[name]['unit']}")
    fail_ratio = checks["failed"] / checks["attempted"]
    print(f"  {'fail_ratio':36s} {fail_ratio:>14.6g} ratio  "
          f"(n={checks['attempted']})")
    for failure in checks["failures"]:
        print(f"  CHECK FAILED: {failure}")
    if not checks["broken_input_rejected"]:
        print("  CHECK FAILED: the divergence check accepted a field with div u = 2")
    print("  provenance " + json.dumps(result["provenance"]))


def print_layers(result, untraced_run_s):
    print(f"-- per-layer summary of {result['workload']}, per job "
          "(calls, busy s, self s; as the clock read them, unscaled)")
    for name, row in sorted(result["layers"].items()):
        print(f"  {name:36s} {row['calls']:>9.1f} {row['busy_s']:>10.4f} "
              f"{row['self_s']:>10.4f}")
    if untraced_run_s is None:
        return
    traced = result["metrics"]["trace.run_s"]
    print(f"  tracing overhead: run_s {untraced_run_s:.4f} s untraced, "
          f"{traced:.4f} s traced, {traced - untraced_run_s:+.4f} s "
          f"({100 * (traced / untraced_run_s - 1):+.2f}%)")


def correct(result):
    checks = result["checks"]
    return checks["failed"] == 0 and checks["broken_input_rejected"]


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="divfreedg benchmark")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "divfreedg").is_dir():
        print(f"perfbench: no solver source at {ROOT / 'src' / 'divfreedg'}",
              file=sys.stderr)
        return 1
    try:
        if args.all:
            ok = True
            for name in names:
                plain = run_child(name, args.seed, args.seconds, 0)
                print_result(plain, select(plain, spec["end_to_end"]))
                traced = run_child(name, args.seed, args.seconds, 1)
                print_result(traced, select(traced, spec["per_layer"]))
                print_layers(traced, plain["metrics"]["run_s"])
                ok = ok and correct(plain) and correct(traced)
            return 0 if ok else 1
        result = run_child(args.workload, args.seed, args.seconds, args.trace)
        metrics = select(result, spec["per_layer"] if args.trace
                         else spec["end_to_end"])
    except RunFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_result(result, metrics)
    if args.trace:
        print_layers(result, None)
    print(json.dumps({"correct": correct(result),
                      "attempted": result["checks"]["attempted"],
                      "failed": result["checks"]["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
