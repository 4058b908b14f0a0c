import json
import os
import re

import numpy as np
import pytest

from dyntrust.cli import EXIT_AUDIT, EXIT_CAP, EXIT_CONFIG, EXIT_OK, main
from dyntrust.driver import ConfigError
from dyntrust.harness import (CSV_COLUMNS, RunSpec, cost_savings_report,
                              eps_scaling_study, execute_run, parse_config_file,
                              parse_eps_grid, read_history_csv, write_history_csv)


def test_csv_round_trip(tmp_path):
    spec = RunSpec(problem="quadratic", problem_params={"dim": 2, "cond": 20},
                   eps=(1e-3,), policy="adversarial", seed=4)
    result, _, _, _ = execute_run(spec, write=False)
    path = tmp_path / "hist.csv"
    write_history_csv(path, result.history)
    parsed = read_history_csv(path)
    assert len(parsed) == len(result.history) > 0
    for got, want in zip(parsed, result.history):
        for name in CSV_COLUMNS:
            a, b = getattr(got, name), getattr(want, name)
            assert type(a) is type(b), name
            np.testing.assert_array_equal(a, b, strict=True, err_msg=name)
        # vectors come back as read-only arrays, like the run's own records
        assert not got.x.flags.writeable and not got.x_trial.flags.writeable


def test_runspec_validation_diagnostics():
    spec = RunSpec(problem="quadratic", eps=(1e-3,),
                   cfg_overrides={"eta1": 0.5, "omega": 0.3})
    with pytest.raises(ConfigError) as err:
        spec.build_config()
    assert "omega" in str(err.value)
    with pytest.raises(ConfigError):
        RunSpec(problem="not_a_problem").build_problem()


def test_parse_eps_grid_forms():
    assert parse_eps_grid("1e-1,3e-2,1e-2") == [0.1, 0.03, 0.01]
    decades = parse_eps_grid("1e-1..1e-4")
    assert len(decades) == 4
    assert decades[0] == pytest.approx(0.1) and decades[-1] == pytest.approx(1e-4)
    pts = parse_eps_grid("1e-1..1e-3:5")
    assert len(pts) == 5


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("problem = rosenbrock\n# comment\neta1 = 0.1\neps = 1e-2,1e-2\n")
    vals = parse_config_file(path)
    assert vals == {"problem": "rosenbrock", "eta1": "0.1", "eps": "1e-2,1e-2"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)


def test_cli_run_writes_outputs(tmp_path):
    code = main(["run", "--problem", "rosenbrock", "--q", "2", "--eps", "1e-2,1e-2",
                 "--policy", "adversarial", "--seed", "3",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    files = sorted(os.listdir(tmp_path))
    assert any(f.endswith("_history.csv") for f in files)
    summary_file = next(f for f in files if f.endswith("_summary.json"))
    summary = json.loads((tmp_path / summary_file).read_text())
    assert summary["terminated"] is True
    assert summary["problem"] == "rosenbrock"


def test_cli_config_error_exit_code(tmp_path):
    code = main(["run", "--eta1", "0.5", "--omega", "0.3", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("flags,message", [
    (["--q", "0"], "criticality order q=0 outside the supported 1..3"),
    (["--eps", "abc"], "--eps expects comma-separated numbers, got 'abc'"),
    (["--eps", "1e-3,,1e-3"], "--eps expects comma-separated numbers, got '1e-3,,1e-3'"),
    (["--x0", "1,nan"], "start point x0 = [1.0, nan] is not finite"),
], ids=["q0", "eps_word", "eps_empty_field", "x0_nan"])
def test_cli_malformed_numbers_are_config_errors(tmp_path, capsys, flags, message):
    code = main(["run", "--problem", "rosenbrock", *flags, "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("line,message", [
    ("Delta0 = abc", "Delta0 expects a number, got 'abc'"),
    ("max_iterations = 1e3", "max_iterations expects an integer, got '1e3'"),
    ("seed = x", "seed expects an integer, got 'x'"),
    ("q = two", "q expects an integer, got 'two'"),
    ("dim = 2.5", "dim expects an integer, got '2.5'"),
    ("cond = ten", "cond expects a number, got 'ten'"),
], ids=["cfg_float", "cfg_int", "seed", "q", "problem_int", "problem_float"])
def test_cli_malformed_config_file_values_are_config_errors(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = quadratic\n{line}\n")
    code = main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("grid,message", [
    ("1e-1,abc", "--eps-grid expects a number, got 'abc'"),
    ("1e-1..x", "--eps-grid expects a number, got 'x'"),
    ("1e-1..1e-3:many", "--eps-grid point count expects an integer, got 'many'"),
    ("0..1e-3", "--eps-grid entries must be positive and finite, got '0'"),
    ("1e-1..0", "--eps-grid entries must be positive and finite, got '0'"),
    ("1e-2,-1e-3", "--eps-grid entries must be positive and finite, got '-1e-3'"),
    ("inf..1e-3", "--eps-grid entries must be positive and finite, got 'inf'"),
], ids=["list_entry", "range_end", "range_count", "range_zero_lo", "range_zero_hi",
        "list_negative", "range_inf"])
def test_cli_malformed_eps_grid_is_a_config_error(tmp_path, capsys, grid, message):
    code = main(["sweep", "--problem", "quadratic", "--eps-grid", grid,
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_cli_cap_exhaustion_exit_code(tmp_path):
    code = main(["run", "--problem", "saddle_well", "--eps", "1e-3,1e-3",
                 "--max-iterations", "20", "--out-dir", str(tmp_path)])
    assert code == EXIT_CAP


def test_cli_audit_success(tmp_path):
    code = main(["audit", "--problem", "quadratic", "--dim", "2", "--cond", "10",
                 "--eps", "1e-3", "--policy", "adversarial", "--seed", "1",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    summary_file = next(f for f in os.listdir(tmp_path) if f.endswith("_summary.json"))
    summary = json.loads((tmp_path / summary_file).read_text())
    assert summary["audit_ok"] is True
    assert "bounds" in summary


def test_cli_audit_checks_termination_at_any_dimension(tmp_path, capsys):
    # orders 1-2 are certified for any n
    code = main(["audit", "--problem", "quadratic", "--dim", "8", "--cond", "10",
                 "--eps", "1e-3", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[PASS] termination_soundness: phi_1=" in out


def test_cli_audit_prints_where_lipschitz_constants_come_from(tmp_path, capsys):
    code = main(["audit", "--problem", "rosenbrock", "--eps", "1e-2",
                 "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert re.search(r"^L_f = max\(1, L_j\) = \S+: L_1=\S+ sampled \(1,500 pairs x 1\.5\)$",
                     out, re.MULTILINE)
    code = main(["audit", "--problem", "quadratic", "--dim", "2", "--cond", "10",
                 "--eps", "1e-3", "--out-dir", str(tmp_path)])
    assert "L_f = max(1, L_j) = 10: L_1=10 declared\n" in capsys.readouterr().out


def test_cli_audit_certifies_order3_at_n6(tmp_path, capsys):
    # phi_3 is decided by branch and bound at any n
    code = main(["audit", "--problem", "quartic", "--dim", "6",
                 "--eps", "1e-1,1e-1,1e-1", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    line = next(s for s in out.splitlines() if "termination_soundness" in s)
    assert line.startswith("[PASS]")
    assert re.search(r"phi_2=\S+ certified, phi_3=\S+<=2\.083e-03 certified, ", line)


def test_cli_sweep(tmp_path):
    code = main(["sweep", "--problem", "quadratic", "--dim", "2", "--q", "1",
                 "--eps-grid", "1e-1,3e-2,1e-2,3e-3", "--seeds", "2",
                 "--policy", "adversarial", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    rows_file = next(f for f in os.listdir(tmp_path)
                     if f.startswith("sweep_") and f.endswith(".json"))
    payload = json.loads((tmp_path / rows_file).read_text())
    assert payload["passed"] is True
    assert len(payload["rows"]) == 8
    csv_file = next(f for f in os.listdir(tmp_path)
                    if f.startswith("sweep_") and f.endswith(".csv"))
    text = (tmp_path / csv_file).read_text().splitlines()
    assert text[0] == "eps,seed,terminated,iterations,n_f,n_deriv,total_evals"
    assert len(text) == 9


def test_cli_seed_sweep_single_eps(tmp_path):
    code = main(["sweep", "--problem", "quadratic", "--q", "1",
                 "--eps-grid", "1e-2", "--seeds", "3", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    csv_file = next(f for f in os.listdir(tmp_path) if f.endswith(".csv"))
    assert len((tmp_path / csv_file).read_text().splitlines()) == 4


def test_cli_compare(tmp_path, capsys):
    code = main(["compare", "--problem", "rosenbrock", "--eps", "1e-2",
                 "--policy", "adversarial", "--cost-model", "inverse",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert "ratio" in capsys.readouterr().out


def test_env_var_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("DYNTRUST_OUTDIR", str(tmp_path / "from_env"))
    spec = RunSpec(problem="quadratic", eps=(1e-2,))
    assert str(spec.output_dir()) == str(tmp_path / "from_env")


def test_eps_scaling_study_quadratic_flat_slope():
    res = eps_scaling_study("quadratic", 1, (1e-1, 3e-2, 1e-2, 3e-3), seeds=(0, 1),
                            problem_params={"dim": 2, "cond": 10})
    assert res.passed
    assert res.slope <= 1.0  # convex quadratic: far below the worst case


def test_eps_scaling_requires_four_points():
    with pytest.raises(ConfigError):
        eps_scaling_study("quadratic", 1, (1e-1, 1e-2), seeds=(0,))


def test_cost_savings_dynamic_cheaper_under_inverse_cost():
    spec = RunSpec(problem="rosenbrock", eps=(1e-2,), policy="adversarial", seed=0)
    report = cost_savings_report(spec, cost_model="inverse")
    assert report.ratio < 1.0
    assert report.dynamic_calls > 0 and report.fixed_calls > 0


def test_cost_savings_unit_cost_reports_counts():
    # under unit cost the report reduces to dynamic vs fixed call counts
    spec = RunSpec(problem="quadratic", problem_params={"dim": 2, "cond": 10},
                   eps=(1e-3,), policy="adversarial", seed=1)
    report = cost_savings_report(spec, cost_model="unit")
    assert report.dynamic_cost_f + report.dynamic_cost_d == report.dynamic_calls
    assert report.fixed_cost_f + report.fixed_cost_d == report.fixed_calls


def test_zero_iteration_run_makes_no_objective_calls():
    # starting at the minimizer: termination at iteration zero; the objective
    # value is never needed (it is only requested once a step exists)
    from dyntrust.driver import TrConfig, run as drun
    from dyntrust.oracle import InexactOracle
    from dyntrust.problems import make_problem
    p = make_problem("quadratic", dim=2, cond=5)
    o = InexactOracle(p, policy="none")
    res = drun(o, TrConfig.with_defaults((1e-2,)), x0=np.zeros(2))
    assert res.terminated and res.n_iterations == 0
    assert res.eval_ledger.n_f == 0


def test_run_summary_includes_bounds(tmp_path):
    code = main(["run", "--problem", "quadratic", "--dim", "2", "--cond", "10",
                 "--eps", "1e-3", "--policy", "adversarial",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    summary_file = next(f for f in os.listdir(tmp_path) if f.endswith("_summary.json"))
    summary = json.loads((tmp_path / summary_file).read_text())
    assert "bounds" in summary and summary["bounds"]["kappa_delta"] > 0
    assert summary["n_f_evals"] <= summary["bounds"]["eval_bound_f"]


def test_cli_x0_override(tmp_path):
    code = main(["run", "--problem", "quadratic", "--dim", "2", "--cond", "5",
                 "--eps", "1e-2", "--policy", "none", "--x0", "0,0",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    summary_file = next(f for f in os.listdir(tmp_path) if f.endswith("_summary.json"))
    summary = json.loads((tmp_path / summary_file).read_text())
    assert summary["iterations"] == 0 and summary["x_eps"] == [0.0, 0.0]


def test_cli_audit_violation_exit_code(tmp_path, monkeypatch):
    # force a failing report to exercise the exit-code mapping
    import dyntrust.cli as cli_mod
    from dyntrust.driver import AuditReport, CheckResult

    def fake_check_history(result, problem, **kw):
        return AuditReport(checks={"forced": CheckResult(False, "synthetic")},
                           bounds=None, lipschitz_used=1.0)

    monkeypatch.setattr(cli_mod, "check_history", fake_check_history)
    code = main(["audit", "--problem", "quadratic", "--eps", "1e-2",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_AUDIT


def test_cost_savings_zero_iteration_ratio_near_one():
    # starting at the minimizer: both sides certify at the same tightest
    # accuracy; the dynamic run pays at most one extra round's worth for its
    # cheap preliminary evaluations
    spec = RunSpec(problem="quadratic", problem_params={"dim": 2, "cond": 5},
                   eps=(1e-2,), policy="none", seed=0, x0=(0.0, 0.0))
    report = cost_savings_report(spec, cost_model="inverse")
    dyn = report.dynamic_cost_f + report.dynamic_cost_d
    fixed = report.fixed_cost_f + report.fixed_cost_d
    one_round = fixed / report.fixed_calls
    assert abs(dyn - fixed) <= one_round
    assert report.ratio == pytest.approx(1.0, abs=0.2)
    # tight start accuracy removes even that slack
    spec2 = RunSpec(problem="quadratic", problem_params={"dim": 2, "cond": 5},
                    eps=(1e-2,), policy="none", seed=0, x0=(0.0, 0.0),
                    cfg_overrides={"zeta0": 1e-6, "kappa_zeta": 1e-6})
    report2 = cost_savings_report(spec2, cost_model="inverse")
    assert report2.ratio == pytest.approx(1.0)
    assert report2.dynamic_calls == report2.fixed_calls


def test_cli_run_from_config_file(tmp_path):
    cfg_file = tmp_path / "study.cfg"
    cfg_file.write_text(
        "problem = quadratic\n"
        "dim = 2\n"
        "cond = 15\n"
        "eps = 1e-3\n"
        "eta1 = 0.1\n"
        "seed = 9\n"
    )
    code = main(["run", "--config", str(cfg_file), "--out-dir", str(tmp_path),
                 "--policy", "gaussian"])
    assert code == EXIT_OK
    summary_file = next(f for f in os.listdir(tmp_path) if f.endswith("_summary.json"))
    summary = json.loads((tmp_path / summary_file).read_text())
    assert summary["config"]["eta1"] == 0.1
    assert summary["config"]["seed"] == 9
    assert summary["problem"].startswith("quadratic(dim=2,cond=15")
