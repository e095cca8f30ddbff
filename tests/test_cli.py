import math
import re
import sys

import pytest

from divfreedg import cli, integrators


def run_cli(args):
    return cli.main(args)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines


def test_single_run_summary(tmp_path):
    code = run_cli(["single-run", "--k", "1", "--n", "8", "--tau", "0.0625",
                    "--T", "2", "--out-dir", str(tmp_path)])
    assert code == 0
    csv = read(tmp_path / "single-run.csv")
    assert "summary,l2_error," in csv
    assert "summary,h1_error," in csv
    assert "summary,div_norm_final," in csv
    md = read(tmp_path / "single-run.md")
    assert "||u_h||_L2" in md and "||div u_h||_L2" in md
    # config echo present in the CSV preamble
    assert "# k=1" in csv and "# n=8" in csv
    # the summary reports a completed run with small divergence
    div = float(re.search(r"summary,max_div_norm,([^\n]+)", csv).group(1))
    assert div <= 1e-10


def test_single_run_invalid_degree(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["single-run", "--k", "3", "--out-dir", str(tmp_path)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "1, 2" in err


def test_single_run_blow_up_exit_code(tmp_path):
    code = run_cli(["single-run", "--k", "1", "--n", "8", "--tau", "1/12",
                    "--T", "2", "--out-dir", str(tmp_path)])
    assert code == 2
    md = read(tmp_path / "single-run.md")
    assert "nan" in md and "Blow-up" in md


def test_single_run_f_zero_energy_column(tmp_path):
    code = run_cli(["single-run", "--k", "1", "--n", "8", "--tau", "1/25",
                    "--T", "0.4", "--f-zero", "--out-dir", str(tmp_path)])
    assert code == 0
    csv = read(tmp_path / "single-run.csv")
    assert "max_rel_energy_residual" in csv
    val = float(re.search(r"summary,max_rel_energy_residual,([^\n]+)", csv).group(1))
    assert val <= 1e-10


def test_single_run_viscous_f_zero_energy_identity(tmp_path):
    # the identity of a viscous run counts nu a_h(v, v) as dissipation; the
    # inviscid identity read 0.114 here
    code = run_cli(["single-run", "--n", "8", "--tau", "1/64", "--T", "0.25",
                    "--f-zero", "--nu", "0.01", "--out-dir", str(tmp_path)])
    assert code == 0
    csv = read(tmp_path / "single-run.csv")
    val = float(re.search(r"summary,max_rel_energy_residual,([^\n]+)", csv).group(1))
    assert val <= 1e-10


@pytest.mark.parametrize("integrator", ["rk2", "cn"])
def test_single_run_prints_factor_fill(tmp_path, capsys, integrator):
    code = run_cli(["single-run", "--k", "1", "--n", "8", "--tau", "1/20",
                    "--T", "0.25", "--integrator", integrator,
                    "--out-dir", str(tmp_path)])
    assert code == 0
    fill = int(re.search(r"factor_fill=(\d+) ", capsys.readouterr().out).group(1))
    assert fill > 0
    assert f"summary,factor_fill,{fill}\n" in read(tmp_path / "single-run.csv")


def test_convergence_table_layout(tmp_path):
    code = run_cli(["convergence", "--k", "1", "--n-list", "8,16",
                    "--cfl", "fourthirds", "--out-dir", str(tmp_path)])
    assert code == 0
    md = read(tmp_path / "convergence.md")
    assert "| h |" in md and "Rate" in md
    csv = read(tmp_path / "convergence.csv")
    rows = csv_rows(csv)
    assert rows[0].startswith("h,n,tau")
    assert len(rows) == 3


def test_convergence_standard_cfl_has_nan_rows(tmp_path):
    code = run_cli(["convergence", "--k", "1", "--n-list", "8,32",
                    "--cfl", "std", "--out-dir", str(tmp_path)])
    assert code == 0
    md = read(tmp_path / "convergence.md")
    assert "nan" in md


def test_cfl_sweep_outputs(tmp_path):
    code = run_cli(["cfl-sweep", "--k", "1", "--n-list", "4,8",
                    "--out-dir", str(tmp_path)])
    assert code == 0
    csv = read(tmp_path / "cfl-sweep.csv")
    rows = csv_rows(csv)[1:]
    taus = [float(r.split(",")[2]) for r in rows]
    assert taus[0] >= taus[1]
    # alpha appears from the second row on
    assert rows[0].split(",")[4] == "nan"
    assert math.isfinite(float(rows[1].split(",")[4]))
    trace = read(tmp_path / "cfl-sweep-trace.csv")
    assert len(csv_rows(trace)) >= 3
    md = read(tmp_path / "cfl-sweep.md")
    assert "tau_max" in md and "1/" in md


def test_cfl_sweep_requires_n_list(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["cfl-sweep", "--out-dir", str(tmp_path)])
    assert exc.value.code == 1
    assert "n-list" in capsys.readouterr().err


def test_cfl_sweep_deterministic_rerun(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    for out in (a_dir, b_dir):
        assert run_cli(["cfl-sweep", "--k", "1", "--n-list", "4",
                        "--seed", "7", "--out-dir", str(out)]) == 0
    a = (a_dir / "cfl-sweep.csv").read_bytes()
    b = (b_dir / "cfl-sweep.csv").read_bytes()
    assert a == b


def test_compare_cn_blocks(tmp_path):
    code = run_cli(["compare-cn", "--k", "1", "--n", "8",
                    "--tau-list", "1/16,1/24", "--out-dir", str(tmp_path)])
    assert code == 0
    md = read(tmp_path / "compare-cn.md")
    assert "Explicit RK" in md and "Semi-implicit CN" in md
    csv = read(tmp_path / "compare-cn.csv")
    rows = [r for r in csv_rows(csv)[1:]]
    assert len(rows) == 4  # two schemes x two taus
    # markdown shows the same numbers at 3 significant digits
    for row in rows:
        fields = row.split(",")
        err = float(fields[3])
        if math.isfinite(err):
            assert f"{err:.2e}" in md


@pytest.mark.parametrize("command, flag, value, reason", [
    ("convergence", "--n-list", "x", "invalid literal for int()"),
    ("convergence", "--n-list", "", "empty list argument"),
    ("single-run", "--tau", "1/0", "zero denominator"),
    ("compare-cn", "--tau-list", "1/2,x", "could not convert string to float"),
], ids=["n-list-item", "n-list-empty", "tau-zero", "tau-list-item"])
def test_flag_errors_give_the_reason(capsys, command, flag, value, reason):
    # argparse names the converter of a failed flag ("invalid <lambda>
    # value") and drops its reason unless the converter says otherwise
    with pytest.raises(SystemExit) as exc:
        run_cli([command, flag, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid value {value!r}: " in err and reason in err
    assert "<lambda>" not in err and "_parse" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["single-run", "--unknown-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["not-a-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("flag, message", [
    (["--tau", "-1"], "--tau=-1.0 must be positive"),
    (["--T", "0"], "--T=0.0 must be positive"),
    (["--n", "0"], "--n=0 must be at least 2"),
    (["--T", "inf"], "--T=inf must be finite"),
    (["--tau", "inf", "--T", "0.25"], "--tau=inf must be finite"),
    (["--tau", "nan"], "--tau=nan must be finite"),
    (["--nu", "nan"], "--nu=nan must be finite"),
    (["--sigma", "nan", "--nu", "0.01"], "--sigma=nan must be finite"),
    (["--nu", "-1"], "--nu=-1.0 must be nonnegative"),
    (["--sigma", "-1", "--nu", "0.01"], "--sigma=-1.0 must be positive for viscous runs"),
    (["--co", "nan"], "--co=nan must be finite and positive"),
    (["--co", "-1"], "--co=-1.0 must be finite and positive"),
    (["--perturb", "0.5"], "--perturb=0.5 must lie in [0, 0.3]"),
], ids=["tau", "T", "n", "T-inf", "tau-inf", "tau-nan", "nu-nan", "sigma-nan", "nu-negative",
        "sigma-negative", "co-nan", "co-negative", "perturb"])
def test_single_run_bad_value_is_usage_error(tmp_path, capsys, flag, message):
    # each library refusal of a value opens with field=value, which the CLI
    # prints with the flag the user gave: --co nan used to print "tau must
    # be finite, not nan", naming a tau the user never gave
    code = run_cli(["single-run", "--n", "4", *flag, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"divfree: error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("tau", "0")], ids=["tau"])
def test_config_values_are_checked_as_flags_are(tmp_path, capsys, key, value):
    # a run's SchemeConfig gets the checks of its flag: the library rejects
    # the value with the message the CLI prints, its field named by the
    # flag, and no output is written
    with pytest.raises(ValueError) as exc:
        integrators.SchemeConfig(**{"tau": 0.0625, key: float(value)})
    assert str(exc.value).startswith(f"{key}=")
    out = tmp_path / "out"
    code = run_cli(["single-run", "--n", "4", "--T", "0.25",
                    "--" + key, value, "--out-dir", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"divfree: error: --{exc.value}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, args, message", [
    ("convergence", ["--n-list", "1"], "n=1 must be at least 2"),
    ("compare-cn", ["--n", "4", "--tau-list=-1"], "tau=-1.0 must be positive"),
    ("convergence", ["--n-list", "4", "--co", "inf"], "--co=inf must be finite and positive"),
], ids=["convergence-n-list", "compare-cn-tau-list", "convergence-co"])
def test_value_refusals_name_only_a_flag_of_the_command(tmp_path, capsys, command, args,
                                                        message):
    # --n-list's n=1 is not the flag --n, nor --tau-list's tau=-1 the flag --tau
    code = run_cli([command, "--T", "0.25", *args, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"divfree: error: {message}\n"


@pytest.mark.parametrize("command", ["convergence", "cfl-sweep"])
def test_duplicate_n_list_is_usage_error(tmp_path, capsys, command):
    code = run_cli([command, "--n-list", "2,2", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "divfree: error: duplicate mesh size n=2" in capsys.readouterr().err


def test_convergence_uses_sigma(tmp_path):
    errors = []
    for sigma in ("50", "500"):
        out = tmp_path / sigma
        assert run_cli(["convergence", "--n-list", "4,6", "--T", "0.1",
                        "--co", "0.005", "--nu", "0.01", "--sigma", sigma,
                        "--out-dir", str(out)]) == 0
        header, *rows = csv_rows(read(out / "convergence.csv"))
        col = header.split(",").index("l2_err")
        errors.append([float(r.split(",")[col]) for r in rows])
    assert all(math.isfinite(e) for e in errors[0] + errors[1])
    assert all(a != b for a, b in zip(*errors))


@pytest.fixture
def trial_configs(monkeypatch):
    """The SchemeConfig of every run that the CLI starts."""
    configs, real_run = [], integrators.run

    def spy(config, *args, **kwargs):
        configs.append(config)
        return real_run(config, *args, **kwargs)

    monkeypatch.setattr(integrators, "run", spy)
    return configs


@pytest.mark.parametrize("flag, field, value", [
    ("--integrator=cn", "integrator", "semi_implicit_cn"),
    ("--f-zero", "f_zero", True),
], ids=["integrator", "f-zero"])
def test_cfl_sweep_uses_scheme_flag(tmp_path, trial_configs, flag, field, value):
    assert run_cli(["cfl-sweep", "--n-list", "4", "--T", "0.25", flag,
                    "--out-dir", str(tmp_path)]) == 0
    assert trial_configs
    assert all(getattr(c, field) == value for c in trial_configs)


@pytest.mark.parametrize("command, args, message", [
    ("single-run", ["--integrator", "cn", "--f-mode", "next"],
     "--f-mode='f_next' moves .* a CN run has no such load"),
    ("single-run", ["--f-zero", "--f-mode", "next"],
     r"--f-mode='f_next' moves .* an unforced \(f_zero\) run has no"),
    ("single-run", ["--sigma", "5"], r"--sigma=5.0 is the SIP penalty"),
    ("compare-cn", ["--sigma", "5"], r"--sigma=5.0 is the SIP penalty"),
    ("compare-cn", ["--f-zero", "--f-mode", "next"],
     r"--f-mode='f_next' moves .* an unforced \(f_zero\) run has no"),
], ids=["single-run-cn-f-mode", "single-run-f-zero-f-mode", "single-run-sigma-inviscid",
        "compare-cn-sigma-inviscid", "compare-cn-f-zero-f-mode"])
def test_option_pair_a_run_would_ignore_is_usage_error(tmp_path, capsys, command, args,
                                                        message):
    # the run would have read one option of each pair and not the other
    code = run_cli([command, "--n", "4", "--tau" if command == "single-run" else "--tau-list",
                    "1/8", "--T", "0.5", *args, "--out-dir", str(tmp_path / "out")])
    assert code == 1
    # the message names the flag, not the library's field
    assert re.search("divfree: error: " + message, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_compare_cn_reads_f_mode_in_its_rk2_runs(tmp_path, trial_configs):
    # --f-mode places the load of RK2's second stage: the CN rows keep the
    # default, and the RK2 rows change with it
    rows = {}
    for mode in ("taylor", "next"):
        out = tmp_path / mode
        assert run_cli(["compare-cn", "--n", "4", "--tau-list", "1/8", "--T", "0.5",
                        "--f-mode", mode, "--out-dir", str(out)]) == 0
        rows[mode] = csv_rows(read(out / "compare-cn.csv"))[1:]
    assert [(c.integrator, c.f_mode) for c in trial_configs] == [
        ("explicit_rk2", "f_taylor"), ("semi_implicit_cn", "f_taylor"),
        ("explicit_rk2", "f_next"), ("semi_implicit_cn", "f_taylor")]
    assert rows["taylor"][0] != rows["next"][0]
    assert rows["taylor"][1] == rows["next"][1]


def test_convergence_f_zero_is_usage_error(tmp_path, capsys):
    code = run_cli(["convergence", "--n-list", "4", "--T", "0.25", "--f-zero",
                    "--out-dir", str(tmp_path)])
    assert code == 1
    assert "divfree: error: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_compare_cn_rejects_integrator(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["compare-cn", "--n", "4", "--integrator", "cn", "--out-dir", str(tmp_path)])
    assert exc.value.code == 1
    assert "divfree: error: unrecognized arguments: --integrator cn" in capsys.readouterr().err


UNREAD = "unrecognized arguments: "


@pytest.mark.parametrize("command, args, message", [
    ("convergence", ["--n-list", "4,8", "--tau", "0.01"], UNREAD + "--tau 0.01"),
    ("single-run", ["--n-list", "4,8"], UNREAD + "--n-list 4,8"),
    ("single-run", ["--tau-list", "1/8"], UNREAD + "--tau-list 1/8"),
    ("single-run", ["--cfl", "std"], UNREAD + "--cfl std"),
    ("compare-cn", ["--tau", "0.1"], UNREAD + "--tau 0.1"),
    ("single-run", ["--n", "4", "--tau", "1/8", "--co", "2"],
     "single-run reads no option --co when --tau is given"),
    ("cfl-sweep", ["--n-list", "4", "--co", "2"], UNREAD + "--co 2"),
    ("cfl-sweep", ["--n-list", "4", "--cfl", "std"], UNREAD + "--cfl std"),
    ("single-run", ["--n", "4", "--format", "csv"], UNREAD + "--format csv"),
    ("single-run", ["--n", "4", "--config", "run.cfg"], UNREAD + "--config run.cfg"),
], ids=["convergence-tau", "single-run-n-list", "single-run-tau-list", "single-run-cfl",
        "compare-cn-tau", "single-run-tau-co", "cfl-sweep-co", "cfl-sweep-cfl",
        "single-run-format", "single-run-config"])
def test_subcommand_rejects_an_option_it_does_not_read(tmp_path, capsys, command, args,
                                                       message):
    # convergence --tau 0.01 used to echo "# tau=0.01" and run tau = h^(4/3),
    # 0.157 at n = 4; single-run's --co scales only the default step, the
    # CFL search has no co and no fixed schedule, and no subcommand reads a
    # config file or an output format.  Without allow_abbrev=False,
    # compare-cn would read --tau as --tau-list.  The entry point exits with
    # main's status, or argparse's on a usage error.
    with pytest.raises(SystemExit) as exc:
        sys.exit(run_cli([command, *args, "--out-dir", str(tmp_path / "out")]))
    assert exc.value.code == 1
    assert f"divfree: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


RUN_MD = ("| tau | ||u_h||_L2 | ||u - u_h||_L2 | ||grad_h(u - u_h)||_L2 "
          "| ||div u_h||_L2 |")
TABLE_HEADERS = {
    "single-run": (
        ["single-run", "--n", "4", "--tau", "1/8", "--T", "0.25"],
        {"single-run.csv": ["step,t,l2_norm,div_norm,jump_u,jump_w,"
                            "energy_residual", "summary,key,value"]},
        [RUN_MD, "|---|---|---|---|---|"]),
    "convergence": (
        ["convergence", "--n-list", "4,8", "--T", "0.25"],
        {"convergence.csv": ["h,n,tau,l2_norm,l2_err,l2_rate,h1_err,h1_rate,"
                             "max_div,blow_up_step"]},
        ["| h | ||u_h||_L2 | ||u - u_h||_L2 | Rate | ||grad_h(u - u_h)||_L2 "
         "| Rate |", "|---|---|---|---|---|---|"]),
    "cfl-sweep": (
        ["cfl-sweep", "--n-list", "4", "--T", "0.25"],
        {"cfl-sweep.csv": ["h,n,tau_max,denominator,alpha,l2_norm,l2_err,"
                           "h1_err,max_div"],
         "cfl-sweep-trace.csv": ["h,tau,stable"]},
        ["| h | tau_max | alpha | ||u_h||_L2 | ||u - u_h||_L2 "
         "| ||grad_h(u - u_h)||_L2 |", "|---|---|---|---|---|---|"]),
    "compare-cn": (
        ["compare-cn", "--n", "4", "--tau-list", "1/8", "--T", "0.25"],
        {"compare-cn.csv": ["scheme,tau,l2_norm,l2_err,h1_err,div_norm,"
                            "blow_up_step"]},
        [RUN_MD, "|---|---|---|---|---|"]),
}


# The keys each subcommand echoes besides k, T, nu, sigma, f_mode, f_zero,
# perturb and seed, which every one reads
OWN_KEYS = {"single-run": {"n", "tau", "co", "integrator"},
            "convergence": {"n_list", "cfl", "co", "integrator"},
            "cfl-sweep": {"n_list", "integrator"},
            "compare-cn": {"n", "tau_list"}}


@pytest.mark.parametrize("command", list(TABLE_HEADERS))
def test_config_echo_lists_the_keys_the_subcommand_reads(tmp_path, command):
    args, csv_headers, _ = TABLE_HEADERS[command]
    assert run_cli(args + ["--out-dir", str(tmp_path)]) in (0, 2)
    lines = read(tmp_path / next(iter(csv_headers))).splitlines()
    keys = {l[2:].split("=", 1)[0] for l in lines if l.startswith("# ")}
    shared = {"k", "T", "nu", "sigma", "f_mode", "f_zero", "perturb", "seed"}
    assert keys == shared | OWN_KEYS[command]


@pytest.mark.parametrize("command", list(TABLE_HEADERS))
def test_table_headers_and_config_echo(tmp_path, command):
    args, csv_headers, md_rows = TABLE_HEADERS[command]
    assert run_cli(args + ["--out-dir", str(tmp_path)]) in (0, 2)
    echoes = []
    for name, headers in csv_headers.items():
        lines = read(tmp_path / name).splitlines()
        echo = [l for l in lines if l.startswith("# ")]
        assert lines[:len(echo)] == echo  # the config comes first
        assert [l for l in lines if l in headers] == headers
        assert lines[len(echo)] == headers[0]
        echoes.append(echo)
    assert all(echo == echoes[0] for echo in echoes)

    md = read(tmp_path / f"{command}.md").splitlines()
    assert md[0].startswith("# ") and md[1] == ""
    assert md[2].startswith("Config: ") and md[3] == ""
    header = md.index(md_rows[0])
    assert md[header:header + 2] == md_rows
    # both formats echo the same effective config; the CSV leaves out the
    # output location, the Markdown line leaves out unset keys
    csv_keys = {l[2:].split("=", 1)[0] for l in echoes[0]
                if not l.endswith("=None")}
    md_keys = set(re.findall(r"(?:Config: |, )(\w+)=", md[2]))
    assert md_keys == csv_keys | {"out_dir"}
    if command == "cfl-sweep":
        assert "cfl=" not in md[2] and "co=" not in md[2]
