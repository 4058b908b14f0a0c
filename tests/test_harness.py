import csv
import dataclasses
import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from checkers import assert_traces_equal
from dyntrust.cli import (EXIT_AUDIT, EXIT_CAP, EXIT_CONFIG, EXIT_OK, _with_config_file,
                          build_parser, main)
from dyntrust.driver import ConfigError, RunTrace, TrConfig
from dyntrust.harness import (CSV_COLUMNS, EVENT_CSV_COLUMNS, RunSpec,
                              cost_savings_report, eps_scaling_study, execute_run,
                              parse_config_file, parse_eps_grid, read_events_csv,
                              read_history_csv, write_events_csv, write_history_csv)
from dyntrust.oracle import PHASES


def test_csv_round_trip(tmp_path):
    spec = RunSpec(problem="quadratic", problem_params={"dim": 2, "cond": 20},
                   eps=(1e-3,), policy="adversarial", seed=4)
    result, _ = execute_run(spec, write=False)
    path = tmp_path / "hist.csv"
    write_history_csv(path, result.history)
    parsed = read_history_csv(path)
    assert isinstance(parsed, RunTrace)
    assert len(parsed) == len(result.history) > 0
    assert_traces_equal(parsed, result.history)
    # the start and trial points come back read-only, like the run's own trace
    assert not parsed.x0.flags.writeable and not parsed.x_trial.flags.writeable
    # writing the parsed trace again gives the same bytes
    again = tmp_path / "again.csv"
    write_history_csv(again, parsed)
    assert again.read_bytes() == path.read_bytes()


def _rewrite_csv(src, dst, edit):
    """Copy the CSV ``src`` to ``dst``, passing its data rows through ``edit``."""
    with open(src, newline="") as fh:
        header, *rows = csv.reader(fh)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *edit(rows)])


def test_csv_reader_refuses_rows_that_do_not_follow(tmp_path):
    # x is derived from the rows before it, so a CSV whose x disagrees with
    # the previous accepted x_trial, or whose k skips, is not a trace
    spec = RunSpec(problem="rosenbrock", eps=(1e-2,), policy="adversarial", seed=2)
    result, _ = execute_run(spec, write=False)
    path = tmp_path / "hist.csv"
    write_history_csv(path, result.history)
    x = CSV_COLUMNS.index("x")

    def bad_x(rows):
        first, rest = rows[5][x].split(";", 1)
        rows[5][x] = f"{float(first) + 1.0!r};{rest}"
        return rows

    for edit in (bad_x, lambda rows: rows[:5] + rows[6:]):  # the second skips k = 5
        bad = tmp_path / "bad.csv"
        _rewrite_csv(path, bad, edit)
        with pytest.raises(ValueError, match="at row 5 does not follow from the rows before it"):
            read_history_csv(bad)


@pytest.mark.parametrize("column,text", [
    ("successful", "2"), ("successful", "True"), ("f_recomputed", ""),
    ("i_zeta", "2.5"), ("n_f", "x"), ("rho", "fast"), ("x_trial", "0.5;y")])
def test_csv_reader_refuses_malformed_cells_by_row_and_column(tmp_path, column, text):
    spec = RunSpec(problem="quadratic", problem_params={"dim": 2}, eps=(1e-3,),
                   policy="adversarial", seed=0)
    result, _ = execute_run(spec, write=False)
    path = tmp_path / "hist.csv"
    write_history_csv(path, result.history)

    def edit(rows):
        rows[3][CSV_COLUMNS.index(column)] = text
        return rows

    _rewrite_csv(path, path, edit)
    with pytest.raises(ValueError, match=f"^row 3: unexpected {column} cell {text!r}$"):
        read_history_csv(path)


def test_csv_schemas_are_fixed():
    assert CSV_COLUMNS == (
        "k", "Delta", "delta", "j", "rho", "successful", "dT_s", "f_bar_old", "f_bar_new",
        "i_zeta", "step2_tightens", "zeta_max_step2_entry",
        "f_recomputed", "n_f", "n_d1", "n_d2", "n_d3", "step_norm", "x", "x_trial")
    assert EVENT_CSV_COLUMNS == ("order", "acc", "work", "phase")


def test_readme_history_schema_is_the_csv_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## History CSV schema", 1)[1].split("```")[1]
    assert tuple(name.strip() for name in block.split(",")) == CSV_COLUMNS


def _random_trace(k, n, accept_every):
    """A k-row trace of random floats in n dimensions that accepts the step
    of every ``accept_every``-th row, the first at row accept_every - 1."""
    rng = np.random.default_rng(k)
    rows = np.zeros(k, RunTrace.dtype)
    for name in RunTrace.dtype.names:
        if RunTrace.dtype[name].kind == "f":
            rows[name] = rng.standard_normal(k)
    rows["successful"] = np.arange(1, k + 1) % accept_every == 0
    return RunTrace(rng.standard_normal(n), rows.tobytes(), rng.standard_normal((k, n)))


def _trace_bytes(trace):
    """The bytes a run trace holds: its packed rows and its trial points."""
    return len(trace) * RunTrace.row.size + trace.x_trial.nbytes


def test_csv_round_trip_across_blocks(tmp_path):
    # the x of rows 0-299 is x0, and that of rows 300-599 the trial point
    # of row 299; both runs cross a block of rows
    trace = _random_trace(1_000, 3, 300)
    path = tmp_path / "hist.csv"
    write_history_csv(path, trace)
    assert_traces_equal(read_history_csv(path), trace)


def test_history_csv_is_written_in_bounded_memory(tmp_path):
    # the cells of one block of rows exist at a time, not the whole file's
    # (writing all 2,000 rows at once peaked at 8.4x the trace's bytes here)
    trace = _random_trace(2_000, 100, 3)
    tracemalloc.start()
    try:
        write_history_csv(tmp_path / "2k.csv", trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * _trace_bytes(trace)


def test_history_csv_is_read_in_bounded_memory(tmp_path):
    # one block of rows exists as Python objects at a time, and each block's
    # x is checked against the trial points read so far, not a (k, n) copy
    # (reading the whole file at once peaked at about 60 MB here)
    write_history_csv(tmp_path / "5k.csv", _random_trace(5_000, 100, 3))
    tracemalloc.start()
    try:
        trace = read_history_csv(tmp_path / "5k.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 5_000
    assert peak <= 2 * _trace_bytes(trace)


def test_events_csv_round_trip(tmp_path):
    spec = RunSpec(problem="finite_sum_logistic", problem_params={"dim": 3, "terms": 32},
                   eps=(1e-2, 1e-2), policy="subsample", seed=1)
    result, _ = execute_run(spec, write=False)
    ledger = result.eval_ledger
    path = tmp_path / "events.csv"
    write_events_csv(path, ledger)
    parsed = read_events_csv(path)
    assert parsed.entries == ledger.entries and len(parsed) > 0
    assert any(e.work < 1.0 for e in parsed.entries)  # subsampled calls
    assert {PHASES[e.phase] for e in parsed.entries} >= {"termination", "objective"}
    assert parsed.counts == ledger.counts
    again = tmp_path / "again.csv"
    write_events_csv(again, parsed)
    assert again.read_bytes() == path.read_bytes()
    for row, cell in (("-1,0.1,1.0,step", "order cell '-1'"),
                      ("1,0.1,1.0,audit", "phase cell 'audit'")):
        again.write_text(f"order,acc,work,phase\n{row}\n")
        with pytest.raises(ValueError, match=f"row 0: unexpected {cell}"):
            read_events_csv(again)


def test_runspec_validation_diagnostics():
    spec = RunSpec(problem="quadratic", eps=(1e-3,),
                   cfg_overrides={"eta1": 0.5, "omega": 0.3})
    with pytest.raises(ConfigError) as err:
        spec.build_config()
    assert "omega" in str(err.value)
    with pytest.raises(ConfigError):
        RunSpec(problem="not_a_problem").build_oracle()
    with pytest.raises(ConfigError, match="unknown policy 'adversarail'"):
        execute_run(RunSpec(policy="adversarail"), write=False)


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
    # one events row per oracle call, and the per-phase tables add up
    events = read_events_csv(tmp_path / next(f for f in files if f.endswith("_events.csv")))
    by_phase = summary["evals_by_phase"]
    assert list(by_phase) == list(PHASES)
    assert len(events) == summary["n_f_evals"] + sum(summary["n_deriv_evals"].values())
    for order in range(4):
        assert sum(by_phase[p][str(order)] for p in PHASES) == events.counts[order]
    # objective values come from the objective phase only, derivatives never do
    assert by_phase["objective"]["0"] == summary["n_f_evals"]
    assert sum(by_phase["objective"][str(o)] for o in (1, 2, 3)) == 0
    assert by_phase["termination"]["1"] > 0
    tightenings = summary["tightenings_by_phase"]
    assert tightenings["termination"] >= 0 and tightenings["step"] >= 0
    assert tightenings["termination"] + tightenings["step"] == summary["i_zeta"]


def test_cli_config_error_exit_code(tmp_path):
    code = main(["run", "--eta1", "0.5", "--omega", "0.3", "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("flags,message", [
    (["--q", "0"], "criticality order q=0 outside the supported 1..3"),
    (["--eps", "abc"], "--eps expects comma-separated numbers, got 'abc'"),
    (["--eps", "1e-3,,1e-3"], "--eps expects comma-separated numbers, got '1e-3,,1e-3'"),
    (["--x0", "1,nan"], "start point x0 = [1.0, nan] is not finite"),
    (["--seed", "-1"], "seed must be a non-negative integer, got -1"),
    (["--kappa-zeta", "inf"], "kappa_zeta must be positive and finite, got inf"),
    (["--problem", "finite_sum_logistic", "--lam", "-1"],
     "finite_sum_logistic: lam must be finite and non-negative, got -1.0"),
], ids=["q0", "eps_word", "eps_empty_field", "x0_nan", "seed_negative", "kappa_zeta_inf",
        "lam_negative"])
def test_cli_malformed_numbers_are_config_errors(tmp_path, capsys, flags, message):
    code = main(["run", "--problem", "rosenbrock", *flags, "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_cli_refuses_a_non_integer_iteration_cap(tmp_path, capsys):
    # the flag is parsed as an integer before TrConfig sees it
    with pytest.raises(SystemExit) as exc:
        main(["run", "--max-iterations", "2.5", "--out-dir", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert "--max-iterations: invalid int value: '2.5'" in capsys.readouterr().err


def _refused(capsys, argv) -> str:
    """The last stderr line of a command line the flags' parser refuses,
    which exits with the configuration-error code."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    return capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("line,message", [
    ("Delta0 = abc", "argument --delta0: invalid float value: 'abc'"),
    ("max_iterations = 1e3", "argument --max-iterations: invalid int value: '1e3'"),
    ("seed = x", "argument --seed: invalid int value: 'x'"),
    ("q = two", "argument --q: invalid int value: 'two'"),
    ("dim = 2.5", "argument --dim: invalid int value: '2.5'"),
    ("cond = ten", "argument --cond: invalid float value: 'ten'"),
], ids=["cfg_float", "cfg_int", "seed", "q", "problem_int", "problem_float"])
def test_cli_malformed_config_file_values_are_config_errors(tmp_path, capsys, line, message):
    # a file line is read as the flag it names, by the same parser
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = quadratic\n{line}\n")
    err = _refused(capsys, ["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert err == f"dyntrust run: error: {message}"


@pytest.mark.parametrize("line,message", [
    ("gama_zeta = 0.5", "unrecognized arguments: --gama-zeta=0.5"),
    ("gamma = 0.5", "unrecognized arguments: --gamma=0.5"),  # no prefix matching
    ("seeds = 3", "unrecognized arguments: --seeds=3"),      # a flag of sweep only
    ("policy = adversarail", "argument --policy: invalid choice: 'adversarail'"),
], ids=["misspelled_key", "key_prefix", "other_command_key", "unknown_policy"])
def test_cli_config_file_refuses_keys_and_values_its_flags_refuse(tmp_path, capsys,
                                                                   line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"problem = quadratic\n{line}\n")
    err = _refused(capsys, ["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert message in err
    assert os.listdir(tmp_path) == ["run.cfg"]  # refused before any run


def test_cli_config_file_that_cannot_be_read_is_a_config_error(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "missing.cfg"), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: cannot read the config file")
    (tmp_path / "nested.cfg").write_text(f"config = {tmp_path / 'other.cfg'}\n")
    code = main(["run", "--config", str(tmp_path / "nested.cfg"), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.endswith("a config file cannot name another config file\n")


def test_cli_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = rosenbrock\neta1 = 0.1\nseed = 9\npolicy = truncate\n")
    code = main(["run", "--config", str(cfg), "--eta1", "0.2", "--seed", "4",
                 "--problem", "quadratic", "--dim", "2", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    summary_file = next(f for f in os.listdir(tmp_path) if f.endswith("_summary.json"))
    assert summary_file == "quadratic_q1_eps0.001_truncate_s4_summary.json"
    summary = json.loads((tmp_path / summary_file).read_text())
    assert summary["config"]["eta1"] == 0.2 and summary["config"]["seed"] == 4
    assert summary["problem"].startswith("quadratic(dim=2,")


@pytest.mark.parametrize("flags", [
    ["--problem", "quadratic", "--policy", "subsample"],
    ["--config", "{cfg}"],
], ids=["flag", "config_file"])
def test_cli_refuses_subsampling_a_problem_that_is_not_a_finite_sum(tmp_path, capsys, flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = rosenbrock\npolicy = subsample\n")
    code = main(["run", *(f.format(cfg=cfg) for f in flags), "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: subsample policy requires a finite-sum problem\n")


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
    assert re.search(r"^L_f = max\(1, L_j\) = \S+: L_1=\S+ certified on box$", out, re.MULTILINE)
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


def test_cli_sweep_starts_where_run_starts(tmp_path):
    # --x0 reaches every run of a sweep: the row is the run's own count
    code = main(["run", "--problem", "quadratic", "--eps", "1e-2", "--x0", "5,5",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    summary_file = next(f for f in os.listdir(tmp_path) if f.endswith("_summary.json"))
    iterations = json.loads((tmp_path / summary_file).read_text())["iterations"]
    assert iterations == 31
    code = main(["sweep", "--problem", "quadratic", "--eps-grid", "1e-2", "--seeds", "1",
                 "--x0", "5,5", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    with open(tmp_path / "sweep_quadratic_q1.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert int(row["iterations"]) == iterations


def test_cli_sweep_starts_at_the_seed_and_writes_under_the_tag(tmp_path):
    # both flags used to be dropped: seeds 0 and 1 went to sweep_quadratic_q1.csv
    code = main(["sweep", "--problem", "quadratic", "--eps-grid", "1e-2", "--seeds", "2",
                 "--seed", "5", "--tag", "mine", "--out-dir", str(tmp_path)])
    assert code == EXIT_OK
    assert os.listdir(tmp_path) == ["mine.csv"]
    with open(tmp_path / "mine.csv", newline="") as fh:
        assert [int(row["seed"]) for row in csv.DictReader(fh)] == [5, 6]


@pytest.mark.parametrize("command", ["run", "sweep", "audit", "compare"])
def test_every_run_constant_is_a_flag_and_a_config_key(tmp_path, command):
    # TrConfig's constants but the targets and the seed, which have flags of
    # their own, are flags of each command and keys of its config file
    fields = [f for f in dataclasses.fields(TrConfig) if f.name not in ("eps", "seed")]
    (tmp_path / "all.cfg").write_text("".join(f"{f.name} = 7\n" for f in fields))
    required = ["--eps-grid", "1e-2"] if command == "sweep" else []
    flags = [f"--{f.name.replace('_', '-').lower()}=7" for f in fields]
    for argv in ([command, *required, *flags],
                 [command, *required, "--config", str(tmp_path / "all.cfg")]):
        args = build_parser().parse_args(_with_config_file(argv))
        for f in fields:
            want = int if f.name == "max_iterations" else float
            assert type(getattr(args, f.name)) is want and getattr(args, f.name) == 7, f.name


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
    spec = RunSpec(problem="quadratic", problem_params={"dim": 2, "cond": 10})
    res = eps_scaling_study(spec, (1e-1, 3e-2, 1e-2, 3e-3), seeds=(0, 1))
    assert res.passed
    assert res.slope <= 1.0  # convex quadratic: far below the worst case


def test_eps_scaling_requires_four_points():
    with pytest.raises(ConfigError):
        eps_scaling_study(RunSpec(problem="quadratic"), (1e-1, 1e-2), seeds=(0,))


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
