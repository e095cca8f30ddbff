"""Plant known bugs in a copy of the package, one at a time, and report
which tests of the quick suite kill each one.

    python3 tools/mutation_check.py [--only NAME ...]

Each mutant is one exact text replacement in one module of
``src/divfreedg``.  The script copies ``src``, ``tests``, ``perfbench`` and
``pyproject.toml`` into a temporary directory, runs the quick suite there
(``python -m pytest -m "not slow"``) once unmutated, then once per mutant,
and lists the tests that fail under each mutant.  Two limits keep a run
short, through a plugin (``mutant_limits.py`` in the copy): hypothesis runs
without its shrink phase and example database, since shrinking a failing
example under a mutant took minutes and 2 GB; and a test that runs past
``TEST_LIMIT_S`` fails, since a mutant that makes every trial blow up sends
the CFL search down to its floor of tau, 1e-5.  The slowest test of the
unmutated quick suite takes about 1 s.  A mutant that no test kills
survives; the script exits 1 if one does, or if the unmutated suite fails.
A mutant takes the quick suite's 15 to 25 s on two cores, and the swapped
upwind weights about 200 s (9 min for all 25), so the script is kept out of
the test suite.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TEST_LIMIT_S = 60


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str


MUTANTS = [
    # planted by hand in earlier changes
    Mutant("minus_trial_traces_flipped", "forms",
           "    pair[:, :, m:] *= -1.0\n", ""),
    Mutant("sip_without_x_i_y_j", "forms",
           "pair = np.concatenate([z, -wx], axis=1).transpose(0, 2, 1) @ np.concatenate([x, y], axis=1)",
           "pair = z.transpose(0, 2, 1) @ x"),
    Mutant("sip_same_jump_sign_both_sides", "forms",
           "zip((1.0, -1.0), sides)", "zip((1.0, 1.0), sides)"),
    Mutant("viscous_dissipation_halved", "integrators",
           "return jump + disc.params.nu * float(", "return jump + 0.5 * disc.params.nu * float("),
    Mutant("assemble_keeps_sign_zero_triplets", "fe_space",
           "live = (s_test != 0) & (s_trial != 0)", "live = np.ones(s_test.shape, dtype=bool)"),
    Mutant("scatter_drops_signs", "fe_space",
           "weights=(r_loc * self.signs[:, cells]).ravel()", "weights=r_loc.ravel()"),
    # the upwind flux, the RK2 stage and the blow-up gate
    Mutant("upwind_weight_without_abs", "forms",
           "return np.maximum(-an, 0.0), np.minimum(-an, 0.0)", "return -0.5 * an, -0.5 * an"),
    Mutant("upwind_seminorm_without_abs", "forms",
           "np.sum(np.abs(flux) * jump ** 2)", "np.sum(flux * jump ** 2)"),
    Mutant("upwind_weights_swapped", "forms",
           "return np.maximum(-an, 0.0), np.minimum(-an, 0.0)",
           "return np.minimum(-an, 0.0), np.maximum(-an, 0.0)"),
    Mutant("rk2_second_stage_reads_psi", "integrators",
           "_stage_rhs(disc, stage, problem, t + tau, load_at)",
           "_stage_rhs(disc, psi, problem, t + tau, load_at)"),
    Mutant("blow_up_norm_test_skipped", "integrators",
           "if l2 > BLOWUP_FACTOR * max(state.norm0, 1.0):", "if False:"),
    # each default rule lowered: an under-integrated form
    Mutant("volume_order_minus_2", "forms",
           "return min(advect.degree + 2 * basis.degree - 1, default_cell_order(space.k))",
           "return min(advect.degree + 2 * basis.degree - 1, default_cell_order(space.k)) - 2"),
    Mutant("facet_order_minus_2", "forms",
           "return max(2 * k + 3, 3 * k + 2)", "return max(2 * k + 3, 3 * k + 2) - 2"),
    Mutant("load_order_k", "forms", "return 2 * k + 7", "return k"),
    Mutant("error_order_2k", "manufactured",
           "return max(2 * space.k + 5, 15)", "return 2 * space.k"),
    # the input checks: each refuses a run that would ignore one of its inputs
    Mutant("single_run_tau_with_co_accepted", "cli",
           'if cfg["tau"] is not None and cfg["co"] is not None:', "if False:"),
    Mutant("f_next_without_second_stage_load_accepted", "integrators",
           'if self.f_mode == "f_next" and (self.integrator == "semi_implicit_cn" or self.f_zero):',
           "if False:"),
    Mutant("sigma_at_nu_zero_accepted", "integrators",
           "if self.sigma is not None and self.nu == 0:", "if False:"),
    Mutant("check_disc_skipped", "integrators",
           "_check_disc(disc, config, mesh)\n", "pass\n"),
    # the CFL search starts at m = 2n, not at a rounded 1 / (h/2)
    Mutant("search_start_from_rounded_h", "diagnostics",
           "itertools.count(2 * n, 2)", "itertools.count(int(np.ceil(1.0 / (0.5 * h))), 2)"),
    # the CLI: each subcommand registers only its own flags, takes no
    # prefix of one, and the standard schedule's default is tau = h/2
    Mutant("every_flag_on_every_subcommand", "cli",
           "for key in SHARED + keys:", "for key in ARGUMENTS:"),
    Mutant("abbreviated_flags_accepted", "cli",
           "sub.add_parser(name, allow_abbrev=False)", "sub.add_parser(name, allow_abbrev=True)"),
    Mutant("std_schedule_constant_one", "diagnostics", '"std": 0.5', '"std": 1.0'),
    # the passes over a volume rule in blocks of cells: the last, partial
    # block skipped, and the first block's weights times det J on every block
    Mutant("last_partial_block_dropped", "fe_space",
           "for start in range(0, mesh.n_cells, step)]",
           "for start in range(0, mesh.n_cells - step + 1, step)]"),
    Mutant("first_block_weights_on_every_block", "manufactured",
           "rule.weights * detj[cells, None]",
           "rule.weights * detj[:cells.stop - cells.start, None]"),
]


# A pytest plugin, loaded before the test modules define their settings.
LIMITS = f"""import signal

import pytest
from hypothesis import Phase, settings

settings.register_profile("mutants", database=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("mutants")


def expire(signum, frame):
    raise TimeoutError("the test ran past {TEST_LIMIT_S} s")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    signal.signal(signal.SIGALRM, expire)
    signal.alarm({TEST_LIMIT_S})
    try:
        yield
    finally:
        signal.alarm(0)
"""


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "out", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    (dest / "mutant_limits.py").write_text(LIMITS)


def failing_tests(tree):
    """The ids of the quick-suite tests that fail or error in ``tree``, and
    the suite's seconds."""
    command = [sys.executable, "-m", "pytest", "-q", "-m", "not slow", "-rfE",
               "-p", "no:cacheprovider", "-p", "mutant_limits"]
    started = time.perf_counter()
    result = subprocess.run(command, cwd=tree, env=dict(os.environ, PYTHONPATH="src"),
                            capture_output=True, text=True)
    ids = {line.split()[1] for line in result.stdout.splitlines()
           if line.startswith(("FAILED ", "ERROR "))}
    if result.returncode not in (0, 1) and not ids:
        ids = {f"pytest exited {result.returncode}"}
    return sorted(ids), time.perf_counter() - started


def mutate(tree, mutant):
    path = tree / "src" / "divfreedg" / f"{mutant.module}.py"
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: the text to replace occurs {text.count(mutant.old)} "
                         f"times in {mutant.module}.py, not once")
    path.write_text(text.replace(mutant.old, mutant.new))
    return path, text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants alone")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    unknown = set(args.only or ()) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")

    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        baseline, seconds = failing_tests(tree)
        print(f"unmutated: {len(baseline)} failing in {seconds:.0f} s", flush=True)
        if baseline:
            print("\n".join(baseline))
            return 1
        for mutant in mutants:
            path, original = mutate(tree, mutant)
            try:
                killers, seconds = failing_tests(tree)
            finally:
                path.write_text(original)
            if not killers:
                survivors.append(mutant.name)
            state = f"killed by {len(killers)}" if killers else "SURVIVED"
            print(f"{mutant.name}: {state} ({seconds:.0f} s)", flush=True)
            for test in killers:
                print(f"    {test}")
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
