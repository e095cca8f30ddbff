import math
import re

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
    code = run_cli(["single-run", "--k", "3", "--out-dir", str(tmp_path)])
    assert code == 1
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
    code = run_cli(["cfl-sweep", "--out-dir", str(tmp_path)])
    assert code == 1
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


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("k=1\nn=8\ntau=1/16\nT=2\nformat=csv\n")
    out = tmp_path / "out"
    code = run_cli(["single-run", "--config", str(cfgfile), "--T", "0.5",
                    "--out-dir", str(out)])
    assert code == 0
    csv = read(out / "single-run.csv")
    assert "# T=0.5" in csv  # flag wins over file
    assert not (out / "single-run.md").exists()  # format=csv from file


def test_unknown_config_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("bogus=1\n")
    code = run_cli(["single-run", "--config", str(cfgfile)])
    assert code == 1
    assert "bogus" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["single-run", "--unknown-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli(["not-a-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize("flag", [
    ["--tau", "-1"], ["--T", "0"], ["--n", "0"],
    ["--T", "inf"], ["--tau", "inf", "--T", "0.25"], ["--tau", "nan"],
    ["--nu", "nan"], ["--sigma", "nan", "--nu", "0.01"],
], ids=["tau", "T", "n", "T-inf", "tau-inf", "tau-nan", "nu-nan", "sigma-nan"])
def test_single_run_bad_value_is_usage_error(tmp_path, capsys, flag):
    code = run_cli(["single-run", "--n", "4", *flag, "--out-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("divfree: error: ") and "Traceback" not in err
    if flag[1] in ("inf", "nan"):
        # the message names the field
        assert f"{flag[0][2:]} must be finite" in err


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
                        "--format", "csv", "--out-dir", str(out)]) == 0
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


def test_convergence_f_zero_is_usage_error(tmp_path, capsys):
    code = run_cli(["convergence", "--n-list", "4", "--T", "0.25", "--f-zero",
                    "--out-dir", str(tmp_path)])
    assert code == 1
    assert "divfree: error: " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_compare_cn_rejects_integrator(tmp_path, capsys):
    code = run_cli(["compare-cn", "--n", "4", "--integrator", "cn",
                    "--out-dir", str(tmp_path)])
    assert code == 1
    assert "compare-cn runs both integrators" in capsys.readouterr().err


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
    assert md_keys == csv_keys | {"out_dir", "format"}
    if command == "cfl-sweep":
        assert "cfl=search" in md[2] and "co=0.5" in md[2]
