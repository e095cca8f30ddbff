"""Command-line front end: experiment subcommands with CSV and Markdown
output mirroring the solver's standard experiment tables.

Exit codes: 0 success, 1 usage/IO error, 2 blow-up detected (single-run only;
study commands encode blow-up as nan rows and exit 0).  Each subcommand
registers only the flags it reads (``COMMANDS``), so argparse exits 1 on any
other, and the effective config is the parsed flags.  A run also exits 1 on
a pair of options it would ignore one of: single-run's --co with --tau, and
the pairs ``integrators.SchemeConfig`` refuses (--f-mode next on a CN or
--f-zero run, --sigma at --nu 0), whose messages name the flag.
"""

import argparse
import itertools
import math
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

from . import diagnostics, integrators, manufactured
from .mesh import build_structured


class _Parser(argparse.ArgumentParser):
    """argparse that exits with code 1 on usage errors, per the CLI contract."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_tau(text):
    text = text.strip()
    if "/" in text:
        num, den = map(float, text.split("/", 1))
        if den == 0.0:
            raise ValueError(f"zero denominator in {text!r}")
        return num / den
    return float(text)


def _parse_list(text, conv):
    items = [s for s in text.replace(",", " ").split() if s]
    if not items:
        raise ValueError("empty list argument")
    return [conv(s) for s in items]


def _flag_type(conv):
    """``conv`` for argparse, whose own message for a ValueError names the
    converter function and drops the reason."""
    def convert(text):
        try:
            return conv(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}: {exc}") from exc
    return convert


# The argparse settings of each flag, ``--key`` with dashes for underscores
ARGUMENTS = {
    "k": dict(type=int, default=1, choices=(1, 2)),
    "n": dict(type=int, default=8),
    "n_list": dict(type=_flag_type(lambda s: _parse_list(s, int)), required=True),
    "tau": dict(type=_flag_type(_parse_tau)),
    "tau_list": dict(type=_flag_type(lambda s: _parse_list(s, _parse_tau))),
    "cfl": dict(default="fourthirds", choices=("std", "fourthirds")),
    "co": dict(type=float),
    "nu": dict(type=float, default=0.0),
    "sigma": dict(type=float),
    "T": dict(type=float, default=2.0),
    "perturb": dict(type=float, default=0.15),
    "seed": dict(type=int, default=0),
    "f_mode": dict(default="taylor", choices=("next", "taylor")),
    "integrator": dict(default="rk2", choices=("rk2", "cn")),
    "f_zero": dict(action="store_true"),
    "out_dir": dict(default="."),
}


def _missing(x):
    return x is None or (isinstance(x, float) and math.isnan(x))


def _fmt3(x):
    return "nan" if _missing(x) else f"{x:.2e}"


def _fmt_rate(x):
    return "-" if _missing(x) else f"{x:.2f}"


def _fmt17(x):
    """CSV cell: 17 significant digits for floats, empty for None."""
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _tau_fraction(tau):
    if _missing(tau):
        return "nan"
    frac = Fraction(tau).limit_denominator(1000000)
    return f"{frac.numerator}/{frac.denominator}"


def _tau_cell(tau):
    return "nan" if _missing(tau) else f"{_tau_fraction(tau)} ({tau:.2e})"


class Column(NamedTuple):
    """One table column: the row key, its CSV header and its Markdown
    header with cell format (None leaves the column out of that format)."""

    key: str
    csv: str = None
    md: str = None
    fmt: Callable = _fmt3


def _csv_table(columns, rows):
    cols = [c for c in columns if c.csv]
    return [",".join(c.csv for c in cols)] + [
        ",".join(_fmt17(row[c.key]) for c in cols) for row in rows]


def _md_table(columns, rows):
    cols = [c for c in columns if c.md]
    return ["| " + " | ".join(c.md for c in cols) + " |",
            "|" + "---|" * len(cols)] + [
        "| " + " | ".join(c.fmt(row[c.key]) for c in cols) + " |"
        for row in rows]


L2_NORM = Column("l2_norm", "l2_norm", "||u_h||_L2")
L2_ERR = Column("l2_err", "l2_err", "||u - u_h||_L2")
H1_ERR = Column("h1_err", "h1_err", "||grad_h(u - u_h)||_L2")
BLOW_UP = Column("blow_up", "blow_up_step")
H = Column("h", "h", "h", _tau_fraction)
N = Column("n", "n")
TAU = Column("tau", "tau", "tau", _tau_fraction)
MAX_DIV = Column("max_div", "max_div")

STEP_KEYS = ("step", "t", "l2_norm", "div_norm", "jump_u", "jump_w",
             "energy_residual")
STEP_COLUMNS = [Column(key, key) for key in STEP_KEYS]
SUMMARY_COLUMNS = [Column(key, key) for key in ("summary", "key", "value")]
RUN_COLUMNS = [TAU, L2_NORM, L2_ERR, H1_ERR,
               Column("div_norm", "div_norm", "||div u_h||_L2")]
STUDY_COLUMNS = [H, N, Column("tau", "tau"), L2_NORM, L2_ERR,
                 Column("l2_rate", "l2_rate", "Rate", _fmt_rate), H1_ERR,
                 Column("h1_rate", "h1_rate", "Rate", _fmt_rate), MAX_DIV,
                 BLOW_UP]
SWEEP_COLUMNS = [H, N, Column("tau_max", "tau_max", "tau_max", _tau_cell),
                 Column("denominator", "denominator"),
                 Column("alpha", "alpha", "alpha", _fmt_rate), L2_NORM, L2_ERR,
                 H1_ERR, MAX_DIV]
TRACE_COLUMNS = [Column(key, key) for key in ("h", "tau", "stable")]
COMPARE_COLUMNS = [Column("scheme", "scheme"), TAU, L2_NORM, L2_ERR, H1_ERR,
                   Column("div_err", "div_norm", "||div u_h||_L2"), BLOW_UP]


def _config_lines(cfg):
    return [f"# {key}={_fmt17(value) if isinstance(value, float) else value}"
            for key, value in sorted(cfg.items()) if key != "out_dir"]


def _write_outputs(cfg, title, outputs):
    """Write the (file name, body lines) pairs.  A CSV body follows the
    effective config as ``#`` lines, a Markdown body follows the title and
    the same config on one line."""
    os.makedirs(cfg["out_dir"], exist_ok=True)
    heads = {"csv": _config_lines(cfg),
             "md": [f"# {title}", "", "Config: " + ", ".join(
                 f"{k}={v}" for k, v in sorted(cfg.items()) if v is not None),
                    ""]}
    for name, lines in outputs:
        ext = name.rsplit(".", 1)[1]
        path = os.path.join(cfg["out_dir"], name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(heads[ext] + lines) + "\n")
        print(f"wrote {path}")


def _scheme(cfg, integrator=None):
    """SchemeConfig fields other than tau, from the effective config."""
    return dict(k=cfg["k"], T=cfg["T"], nu=cfg["nu"], sigma=cfg["sigma"],
                f_mode=cfg["f_mode"],
                integrator=integrator or cfg["integrator"],
                f_zero=cfg["f_zero"])


def cmd_single_run(cfg):
    if cfg["tau"] is not None and cfg["co"] is not None:
        raise ValueError("single-run reads no option --co when --tau is given: "
                         "--co scales the default step co h^(4/3)")
    mesh = build_structured(cfg["n"], perturb=cfg["perturb"], seed=cfg["seed"])
    if cfg["tau"] is None:
        cfg["tau"] = diagnostics._tau_for("fourthirds", cfg["co"], 1.0 / cfg["n"])
    problem = manufactured.taylor_green(cfg["nu"])
    report = diagnostics.run_trial(mesh, cfg["tau"], problem, **_scheme(cfg))
    tau = report.config["tau"]

    steps = [dict(zip(STEP_KEYS, values)) for values in zip(
        itertools.count(), report.times, report.l2_norms, report.div_norms,
        report.jump_u, report.jump_w, report.energy_residuals)]
    summary = [
        ("tau", tau), ("steps_completed", report.n_steps_done),
        ("blow_up_step", report.blow_up),
        ("l2_norm_final", report.l2_norms[-1]),
        ("l2_error", report.l2_err), ("h1_error", report.h1_err),
        ("div_norm_final", report.div_norms[-1]),
        ("max_div_norm", report.max_div),
        ("factor_fill", report.factor_fill),
    ]
    md = _md_table(RUN_COLUMNS, [dict(tau=tau, **diagnostics.trial_row(report))])
    if not report.completed:
        md += ["", f"Blow-up detected at step {report.blow_up}."]
    if cfg["f_zero"]:
        energy = report.max_relative_energy_residual()
        summary.append(("max_rel_energy_residual", energy))
        md += ["", "Max relative energy-identity residual: " + _fmt3(energy)]
    csv = _csv_table(STEP_COLUMNS, steps) + [""] + _csv_table(
        SUMMARY_COLUMNS, [dict(summary="summary", key=key, value=value)
                          for key, value in summary])

    _write_outputs(cfg, "Single run", [("single-run.csv", csv),
                                       ("single-run.md", md)])
    print(f"completed={report.completed} l2_err={_fmt3(report.l2_err)} "
          f"max_div={_fmt3(report.max_div)} factor_fill={report.factor_fill} "
          f"wall={report.wall_time:.2f}s")
    return 2 if not report.completed else 0


def cmd_convergence(cfg):
    cfl = cfg["cfl"]
    co = diagnostics.CFL_CO[cfl] if cfg["co"] is None else cfg["co"]
    rows = diagnostics.convergence_study(
        cfg["n_list"], cfl_form=cfl, co=co, perturb=cfg["perturb"],
        seed=cfg["seed"], problem=manufactured.taylor_green(cfg["nu"]),
        **_scheme(cfg))
    schedule = "h^(4/3)" if cfl == "fourthirds" else "h"
    _write_outputs(
        {**cfg, "co": co},
        f"Convergence under tau = {co} * {schedule}, k={cfg['k']}",
        [("convergence.csv", _csv_table(STUDY_COLUMNS, rows)),
         ("convergence.md", _md_table(STUDY_COLUMNS, rows))])
    return 0


def cmd_cfl_sweep(cfg):
    result = diagnostics.cfl_sweep(
        cfg["n_list"], perturb=cfg["perturb"], seed=cfg["seed"],
        problem=manufactured.taylor_green(cfg["nu"]), **_scheme(cfg))
    trace = [dict(h=h, tau=tau, stable=int(stable))
             for h, tau, stable in result.trace]
    _write_outputs(
        cfg, "Maximum stable time steps",
        [("cfl-sweep.csv", _csv_table(SWEEP_COLUMNS, result.rows)),
         ("cfl-sweep.md", _md_table(SWEEP_COLUMNS, result.rows)),
         ("cfl-sweep-trace.csv", _csv_table(TRACE_COLUMNS, trace))])
    return 0


def cmd_compare_cn(cfg):
    taus = cfg["tau_list"] or [1.0 / m for m in (12, 14, 16, 18, 20, 22, 24)]
    mesh = build_structured(cfg["n"], perturb=cfg["perturb"], seed=cfg["seed"])
    problem = manufactured.taylor_green(cfg["nu"])

    rows, md, disc = [], [], None
    for name, scheme in (("Explicit RK", "rk2"), ("Semi-implicit CN", "cn")):
        block, fields = [], _scheme(cfg, scheme)
        if scheme == "cn":
            del fields["f_mode"]  # --f-mode places the load of RK2's second stage
        for tau in taus:
            config = integrators.SchemeConfig(tau=tau, **fields)
            disc = disc or config.discretization(mesh)
            report = integrators.run(config, mesh, problem, disc)
            block.append(dict(scheme=scheme, tau=report.config["tau"],
                              **diagnostics.trial_row(report)))
        rows += block
        md += [f"## {name}", ""] + _md_table(COMPARE_COLUMNS, block) + [""]
    _write_outputs(cfg, "Explicit RK vs semi-implicit CN",
                   [("compare-cn.csv", _csv_table(COMPARE_COLUMNS, rows)),
                    ("compare-cn.md", md)])
    return 0


# The options every subcommand reads, and each subcommand's own: the flags
# its parser registers
SHARED = ("k", "T", "nu", "sigma", "f_mode", "f_zero", "perturb", "seed", "out_dir")
COMMANDS = {
    "single-run": (cmd_single_run, ("n", "tau", "co", "integrator")),
    "convergence": (cmd_convergence, ("n_list", "cfl", "co", "integrator")),
    "cfl-sweep": (cmd_cfl_sweep, ("n_list", "integrator")),
    "compare-cn": (cmd_compare_cn, ("n", "tau_list")),
}


def _named_by_flag(message, keys):
    """A library refusal of ``field=value`` opens with the field's flag
    instead, if the command has that flag (``keys``): n=1 of --n-list is not --n."""
    field, sep, rest = message.partition("=")
    if sep and field in keys:
        return f"--{field.replace('_', '-')}={rest}"
    return message


def main(argv=None):
    # allow_abbrev=False: a prefix of a flag, such as --tau for --tau-list,
    # is an unrecognized argument, not that flag
    parser = _Parser(prog="divfree", allow_abbrev=False,
                     description="Exactly divergence-free DG flow solver")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, (_, keys) in COMMANDS.items():
        command = sub.add_parser(name, allow_abbrev=False)
        for key in SHARED + keys:
            command.add_argument("--" + key.replace("_", "-"), dest=key, **ARGUMENTS[key])

    cfg = vars(parser.parse_args(argv))
    command, keys = COMMANDS[cfg.pop("command")]
    try:
        return command(cfg)
    except (ValueError, OSError) as exc:
        # the --tau/--co pair and the library's input checks (bad tau, T, n
        # or a duplicate mesh size) are ValueErrors
        print(f"divfree: error: {_named_by_flag(str(exc), SHARED + keys)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
