import functools
import json
import operator
import os

import pytest
from hypothesis import given, settings, strategies as st

import whyplan.cli as cli
from whyplan.cli import main, parse_query
from whyplan.errors import QueryParseError
from whyplan.mcts import MAX_DEPTH_BOUND, REWARD_COMPONENTS
from whyplan.pipeline import RUN_FORMAT_VERSION

from conftest import format_2_trace_log, mini_scenario_dict

FAST = ["--iterations", "40", "--max-depth", "2"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def plan_run(mini_scenario_path, tmp_path, capsys, name="run", seed="3"):
    out = str(tmp_path / name)
    code, stdout, _ = run_cli(["plan", "--scenario", mini_scenario_path, "--seed", seed,
                               *FAST, "--out", out], capsys)
    assert code == 0
    return out, stdout


def test_plan_writes_run_directory(mini_scenario_path, tmp_path, capsys):
    out, stdout = plan_run(mini_scenario_path, tmp_path, capsys)
    assert "plan:" in stdout
    for name in ("run.json", "tracelog.json", "predictions.json", "bn.json"):
        assert os.path.exists(os.path.join(out, name))
    meta = json.load(open(os.path.join(out, "run.json")))
    assert meta["seed"] == 3
    assert meta["iterations"] == 40
    assert len(meta["scenario_sha256"]) == 64


def test_plan_is_deterministic_byte_for_byte(mini_scenario_path, tmp_path, capsys):
    out1, _ = plan_run(mini_scenario_path, tmp_path, capsys, name="a")
    out2, _ = plan_run(mini_scenario_path, tmp_path, capsys, name="b")
    for name in ("run.json", "tracelog.json", "predictions.json", "bn.json"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_plan_dump_bn_prints_json(mini_scenario_path, tmp_path, capsys):
    out = str(tmp_path / "dump")
    code, stdout, _ = run_cli(["plan", "--scenario", mini_scenario_path, "--seed", "3",
                               *FAST, "--out", out, "--dump-bn"], capsys)
    assert code == 0
    payload = json.loads(stdout[:stdout.rindex("}") + 1])
    assert "action_cpds" in payload


def test_bad_scenario_path_exits_with_parse_code(tmp_path, capsys):
    code, _, err = run_cli(["plan", "--scenario", str(tmp_path / "missing.json"),
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 2
    assert f"cannot read {tmp_path / 'missing.json'}: No such file or directory" in err


def test_zero_iterations_exits_with_validation_code(mini_scenario_path, tmp_path, capsys):
    code, _, err = run_cli(["plan", "--scenario", mini_scenario_path, "--iterations", "0",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 3
    assert "iterations" in err


BAD_EXPLORATION = {  # case -> (--exploration argument or None, planner.exploration)
    "nan-flag": ("nan", 0.5),
    "inf-flag": ("inf", 0.5),
    "negative-flag": ("-5", 0.5),
    "negative-in-file": (None, -5.0),
}


@pytest.mark.parametrize("case", sorted(BAD_EXPLORATION))
def test_bad_exploration_exits_with_validation_code(tmp_path, capsys, case):
    flag, in_file = BAD_EXPLORATION[case]
    raw = mini_scenario_dict()
    raw["planner"]["exploration"] = in_file
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    args = ["plan", "--scenario", str(scenario), *FAST, "--out", str(tmp_path / "run")]
    code, _, err = run_cli(args + (["--exploration", flag] if flag else []), capsys)
    assert code == 3, err
    assert "exploration is " in err and "not a finite number in [0.0, inf]" in err
    assert not os.path.exists(tmp_path / "run")


def test_explain_from_run_directory(mini_scenario_path, tmp_path, capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    code, stdout, _ = run_cli(["explain", "--run", out, "--query", "omega1=Continue"],
                              capsys)
    assert code == 0
    assert stdout.strip().startswith("If ego had")

    code, raw_out, _ = run_cli(["explain", "--run", out, "--query", "omega1=Continue",
                                "--raw"], capsys)
    assert code == 0

    code, json_out, _ = run_cli(["explain", "--run", out, "--query", "omega1=Continue",
                                 "--json"], capsys)
    assert code == 0
    payload = json.loads(json_out)
    assert payload["s"]["omega"] == ["Continue"]
    assert 0.0 <= payload["s"]["p"] <= 1.0


def test_explain_is_reproducible_without_replanning(mini_scenario_path, tmp_path, capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    runs = [run_cli(["explain", "--run", out, "--query", "omega1=Continue"], capsys)[1]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_explain_dump_causal(mini_scenario_path, tmp_path, capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    target = str(tmp_path / "summary.json")
    code, _, _ = run_cli(["explain", "--run", out, "--query", "omega1=Continue",
                          "--dump-causal", target], capsys)
    assert code == 0
    assert json.load(open(target))["s"]["omega"] == ["Continue"]


def test_malformed_query_exits_with_parse_code(mini_scenario_path, tmp_path, capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega9=Fly"], capsys)
    assert code == 2
    assert "valid" in err  # names valid depths or actions


def test_unexplored_counterfactual_exits_distinctly(mini_scenario_path, tmp_path, capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega1=Continue-next-exit"],
                           capsys)
    assert code == 6
    assert "never explored" in err
    assert "Continue-next-exit" in err


def test_query_parser():
    q = parse_query("omega1=Continue,omega2=Exit-right", n_causes=2, n_effects=3)
    assert q.indices == (1, 2)
    assert q.actions == ("Continue", "Exit-right")
    assert q.n_causes == 2 and q.n_effects == 3
    with pytest.raises(QueryParseError):
        parse_query("omega=Continue")
    with pytest.raises(QueryParseError):
        parse_query("sigma1=Continue")
    with pytest.raises(QueryParseError):
        parse_query("")
    with pytest.raises(QueryParseError):
        parse_query("omega1")


# Query-shaped text: terms of a variable, a depth, a separator and an action.
QUERY_TERMS = st.tuples(st.sampled_from(["omega", "OMEGA", " Omega", "omeg", "", "x"]),
                        st.text("0123456789-+ _\u0663", max_size=5),
                        st.sampled_from(["=", "==", " = ", ""]),
                        st.text(max_size=12)).map("".join)
QUERIES = st.one_of(st.text(), st.lists(QUERY_TERMS, max_size=4).map(",".join))


@settings(max_examples=300, deadline=None)
@given(QUERIES, st.integers(-3, 3), st.integers(-3, 3))
def test_query_parser_raises_only_query_parse_errors(expr, n_causes, n_effects):
    try:
        q = parse_query(expr, n_causes=n_causes, n_effects=n_effects)
    except QueryParseError:
        return
    assert q.indices and len(q.indices) == len(set(q.indices)) == len(q.actions)
    assert min(q.indices) >= 1 and q.n_causes >= 0 and q.n_effects >= 0


def test_batch_produces_stable_csv(mini_scenario_path, tmp_path, capsys):
    out_csv = str(tmp_path / "batch.csv")
    args = ["batch", "--scenario", mini_scenario_path, "--runs", "2",
            "--queries", "omega1=Continue;omega1=Exit-right", *FAST,
            "--out", out_csv, "--seed", "3"]
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    lines = open(out_csv).read().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert lines[0].startswith("run,seed,plan,query,outcome")
    first = open(out_csv, "rb").read()
    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert open(out_csv, "rb").read() == first


def test_batch_workers_match_serial(mini_scenario_path, tmp_path, capsys):
    serial = str(tmp_path / "serial.csv")
    parallel = str(tmp_path / "parallel.csv")
    base = ["batch", "--scenario", mini_scenario_path, "--runs", "2",
            "--queries", "omega1=Continue", *FAST, "--seed", "3"]
    assert run_cli([*base, "--out", serial], capsys)[0] == 0
    assert run_cli([*base, "--out", parallel, "--workers", "2"], capsys)[0] == 0
    assert open(serial, "rb").read() == open(parallel, "rb").read()


def test_explain_matches_batch_wording(mini_scenario_path, tmp_path, capsys):
    # The run-directory path (persisted factors) and the in-memory batch path
    # must verbalize identically.
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys, seed="5")
    _, explain_text, _ = run_cli(["explain", "--run", out, "--query", "omega1=Continue"],
                                 capsys)
    csv_path = str(tmp_path / "one.csv")
    code, _, _ = run_cli(["batch", "--scenario", mini_scenario_path, "--runs", "1",
                          "--queries", "omega1=Continue", *FAST, "--seed", "5",
                          "--out", csv_path], capsys)
    assert code == 0
    import csv as csv_mod
    with open(csv_path) as fh:
        row = list(csv_mod.DictReader(fh))[0]
    assert row["explanation"] == explain_text.strip()


def test_batch_rejects_zero_runs(mini_scenario_path, tmp_path, capsys):
    code, _, _ = run_cli(["batch", "--scenario", mini_scenario_path, "--runs", "0",
                          "--queries", "omega1=Continue"], capsys)
    assert code == 3


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_batch_rejects_fewer_than_one_worker(mini_scenario_path, tmp_path, capsys, workers):
    code, _, err = run_cli(["batch", "--scenario", mini_scenario_path, "--runs", "1",
                            "--queries", "omega1=Continue", "--workers", workers], capsys)
    assert code == 3
    assert "--workers must be >= 1" in err


@pytest.mark.parametrize("runs,workers,cpus,pool", [
    ("1", "64", 4, None), ("3", "64", 4, 3), ("8", "64", 4, 4), ("8", "2", 4, 2),
    ("8", "64", None, None)])
def test_batch_pool_is_bounded_by_runs_and_cpus(mini_scenario_path, tmp_path, capsys,
                                                monkeypatch, runs, workers, cpus, pool):
    # A stand-in pool records its size and runs the jobs in this process, so
    # no worker is ever forked.
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    code, out, _ = run_cli(["batch", "--scenario", mini_scenario_path, "--runs", runs,
                            "--queries", "omega1=Continue", "--iterations", "5",
                            "--max-depth", "2", "--workers", workers], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + int(runs)
    assert sizes == ([] if pool is None else [pool])


def test_style_flag_changes_wording(mini_scenario_path, tmp_path, capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    code, default_text, _ = run_cli(["explain", "--run", out, "--query", "omega1=Continue"],
                                    capsys)
    code, styled_text, _ = run_cli(["explain", "--run", out, "--query", "omega1=Continue",
                                    "--style", "scenarios/present_style.json"], capsys)
    assert code == 0
    assert "continued ahead" in default_text
    assert "gone straight" in styled_text


# --- typed run-directory and style errors -------------------------------------------


def test_missing_run_directory_exits_with_run_dir_code(tmp_path, capsys):
    code, _, err = run_cli(["explain", "--run", str(tmp_path / "nowhere"),
                            "--query", "omega1=Continue"], capsys)
    assert code == 7
    assert "does not exist" in err and "unexpected" not in err


def test_truncated_trace_log_exits_with_run_dir_code(mini_scenario_path, tmp_path, capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    path = os.path.join(out, "tracelog.json")
    data = open(path).read()
    with open(path, "w") as fh:
        fh.write(data[:len(data) // 2])
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega1=Continue"], capsys)
    assert code == 7
    assert "tracelog.json is not valid JSON" in err


def test_run_json_without_max_depth_exits_with_run_dir_code(mini_scenario_path, tmp_path,
                                                            capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    path = os.path.join(out, "run.json")
    meta = json.load(open(path))
    del meta["max_depth"]
    json.dump(meta, open(path, "w"))
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega1=Continue"], capsys)
    assert code == 7
    assert "max_depth" in err


def _format_1_log(log):
    """The records of a format-2 trace log in the format-1 layout: one object each."""
    return [{"index": i, "assignment": {"v1": row}, "outcome": log["outcome"][i],
             "macros": log["macro_sequences"][log["macros"][i]], "collider": log["collider"][i],
             "reward": log["reward"][i], "steps": log["steps"][i],
             "components": {c: log[c][i] for c in REWARD_COMPONENTS}}
            for i, row in enumerate(log["assignment"])]


@pytest.mark.parametrize("version", [None, 1, 2, 4])
def test_run_json_format_version_other_than_current_exits_with_run_dir_code(
        mini_scenario_path, tmp_path, capsys, version):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    path = os.path.join(out, "run.json")
    meta = json.load(open(path))
    assert meta["format_version"] == RUN_FORMAT_VERSION == 3
    if version is None:
        del meta["format_version"]
    else:
        meta["format_version"] = version
    json.dump(meta, open(path, "w"))
    if version in (1, 2):  # a whole format-1 or format-2 directory, which no reader is kept for
        log_path = os.path.join(out, "tracelog.json")
        log = format_2_trace_log(json.load(open(log_path)))
        json.dump(_format_1_log(log) if version == 1 else log, open(log_path, "w"))
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega1=Continue"], capsys)
    assert code == 7
    assert err == f"error: {path} has format_version {version!r}; this version reads 3\n"


@pytest.mark.parametrize("command", [
    ["plan"], ["batch", "--runs", "1", "--queries", "omega1=Continue"]], ids=["plan", "batch"])
def test_max_depth_above_bound_exits_with_validation_code(mini_scenario_path, tmp_path,
                                                          capsys, command):
    code, _, err = run_cli([*command, "--scenario", mini_scenario_path, "--iterations", "5",
                            "--max-depth", str(MAX_DEPTH_BOUND + 1),
                            "--out", str(tmp_path / "out")], capsys)
    assert code == 3
    assert f"max_depth is {MAX_DEPTH_BOUND + 1}, not an integer in [1, {MAX_DEPTH_BOUND}]" in err
    assert not os.path.exists(tmp_path / "out")


def test_malformed_style_file_exits_with_parse_code(mini_scenario_path, tmp_path, capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    style = tmp_path / "style.json"
    style.write_text("{not json")
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega1=Continue",
                            "--style", str(style)], capsys)
    assert code == 2
    assert "not valid JSON" in err


def test_missing_style_file_exits_with_parse_code(mini_scenario_path, tmp_path, capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega1=Continue",
                            "--style", str(tmp_path / "missing.json")], capsys)
    assert code == 2
    assert f"cannot read {tmp_path / 'missing.json'}" in err


def test_goal_less_vehicle_exits_with_validation_code(tmp_path, capsys):
    raw = mini_scenario_dict()
    raw["vehicles"][1]["goals"] = []
    path = tmp_path / "goal_less.json"
    path.write_text(json.dumps(raw))
    code, _, err = run_cli(["plan", "--scenario", str(path), *FAST,
                            "--out", str(tmp_path / "run")], capsys)
    assert code == 3
    assert "vehicle v1 goals is [], not a list of at least one goal" in err
    assert not os.path.exists(tmp_path / "run")


# Each edit puts one malformed value into the mini scenario, and `plan` must
# exit 2 with exactly this message, which names the value's path and the value
# ({dir} is the test's directory, which the last case passes as the scenario).
MALFORMED_SCENARIOS = {  # case -> (path to the edited value, its new value, message)
    "string-timestep": (("timestep_s",), "fast",
                        "scenario timestep_s is 'fast', not a finite number"),
    "one-element-speed-range": (("vehicles", 1, "speed_range_mps"), [5.0],
                                "vehicles 1 speed_range_mps is [5.0], not a list of two numbers"),
    "number-for-lanes": (("layout", "lanes"), 5, "layout lanes is 5, not a list"),
    "number-for-vehicles": (("vehicles",), 5, "scenario vehicles is 5, not a list"),
    "integer-connection": (("layout", "junctions", 0, "connections", 0), 7,
                           "layout junctions 0 connections 0 is 7, not an object"),
    "string-in-interval": (("vehicles", 1, "goals", 0, "interval", 1), "ten",
                           "vehicles 1 goals 0 interval 1 is 'ten', not a finite number"),
    "string-exploration": (("planner", "exploration"), "high",
                           "planner exploration is 'high', not a finite number"),
    "misspelt-planner-key": (("planner", "exploraton"), 0.5,
                             "planner key is 'exploraton', not 'exploration'"),
    "fractional-horizon": (("horizon_steps",), 2.5,
                           "scenario horizon_steps is 2.5, not an integer"),
    "directory": (None, None, "cannot read {dir}: Is a directory"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_exits_with_parse_code(tmp_path, capsys, case):
    path, value, message = MALFORMED_SCENARIOS[case]
    scenario = tmp_path
    if path is not None:
        raw = mini_scenario_dict()
        functools.reduce(operator.getitem, path[:-1], raw)[path[-1]] = value
        scenario = tmp_path / "malformed.json"
        scenario.write_text(json.dumps(raw))
    code, _, err = run_cli(["plan", "--scenario", str(scenario), *FAST,
                            "--out", str(tmp_path / "run")], capsys)
    assert code == 2, err
    assert err == f"error: {message.format(dir=tmp_path)}\n"
    assert not os.path.exists(tmp_path / "run")


def test_plan_into_an_existing_file_exits_with_run_dir_code(mini_scenario_path, tmp_path,
                                                            capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    code, _, err = run_cli(["plan", "--scenario", mini_scenario_path, *FAST,
                            "--out", str(out)], capsys)
    assert code == 7
    assert "cannot write run directory" in err and "unexpected error" not in err


def test_batch_out_to_a_directory_exits_with_run_dir_code(mini_scenario_path, tmp_path,
                                                          capsys):
    code, _, err = run_cli(["batch", "--scenario", mini_scenario_path, "--runs", "1",
                            "--queries", "omega1=Continue", *FAST, "--out", str(tmp_path)],
                           capsys)
    assert code == 7
    assert f"cannot write output file {tmp_path}" in err and "unexpected error" not in err


def test_batch_opens_out_before_planning(mini_scenario_path, tmp_path, capsys, monkeypatch):
    def no_planning(job):
        raise AssertionError("planned before --out was opened")

    monkeypatch.setattr(cli, "_batch_worker", no_planning)
    code, _, err = run_cli(["batch", "--scenario", mini_scenario_path, "--runs", "2",
                            "--queries", "omega1=Continue", *FAST, "--out", str(tmp_path)],
                           capsys)
    assert code == 7, err
    assert f"cannot write output file {tmp_path}" in err


def test_dump_causal_to_a_directory_exits_with_run_dir_code(mini_scenario_path, tmp_path,
                                                           capsys):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega1=Continue",
                            "--dump-causal", str(tmp_path)], capsys)
    assert code == 7
    assert f"cannot write output file {tmp_path}" in err and "unexpected error" not in err


# --- run directories whose trace log disagrees with run.json or predictions.json ------


def explain_edited_log(mini_scenario_path, tmp_path, capsys, edit):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    path = os.path.join(out, "tracelog.json")
    log = json.load(open(path))
    edit(log)
    json.dump(log, open(path, "w"))
    return run_cli(["explain", "--run", out, "--query", "omega1=Continue"], capsys)


def test_record_deeper_than_max_depth_exits_with_run_dir_code(mini_scenario_path, tmp_path,
                                                              capsys):
    def deepen(log):
        log["macro_sequences"][log["macros"][0]] += ["Continue"] * 3

    code, _, err = explain_edited_log(mini_scenario_path, tmp_path, capsys, deepen)
    assert code == 7
    assert "signature 0" in err and "not a list of at most 2 macro names" in err


def test_record_naming_unpredicted_vehicle_exits_with_run_dir_code(mini_scenario_path,
                                                                    tmp_path, capsys):
    def rename(log):
        log["vehicles"] = ["v9"]

    code, _, err = explain_edited_log(mini_scenario_path, tmp_path, capsys, rename)
    assert code == 7
    assert "tracelog.json vehicles" in err and "'v9'" in err


def test_record_naming_unpredicted_option_exits_with_run_dir_code(mini_scenario_path,
                                                                   tmp_path, capsys):
    def retarget(log):
        log["assignment"][0] = [0, 99]

    code, _, err = explain_edited_log(mini_scenario_path, tmp_path, capsys, retarget)
    assert code == 7
    assert "signature 0 assignment is [0, 99]" in err


def _first_vehicle(pred):
    return pred[sorted(pred)[0]]


def _first_option(pred):
    options = _first_vehicle(pred)["options"]
    return options[sorted(options)[0]]


NOT_OPTIONS = ("not a goal and trajectory index per vehicle ['v1'], naming options listed in "
               "predictions.json")
RECORD_INDEX = "not an index into the 8 signatures"  # the mini run has 8
MALFORMED = "malformed run directory {out}: "
DEPTH_RANGE = f"not an integer in [1, {MAX_DEPTH_BOUND}]"
MACRO_NAMES = "not a list of at most 2 macro names"  # the mini run's max_depth
MACRO_INDEX = "not an index into the 7 macro_sequences"  # the mini run has 7
MISFIT = ("tracelog.json signature 0 components is ['angular_acceleration', 'curvature', 'jerk', "
          "'time'], not exactly ('collision',), which outcome 'collision' requires")


def _set(column, value, entry=0):
    """An edit that sets one entry of a tracelog.json column."""
    return lambda log: log[column].__setitem__(entry, value)


def _set_macros(value):
    """An edit that sets signature 0's macro sequence (signature 0 holds sequence 0)."""
    return lambda log: log["macro_sequences"].__setitem__(log["macros"][0], value)


# Each edit puts one malformed value into an artifact of the mini run at seed 3
# (40 records of 8 signatures; signature 0 is a "done" trace sampling v1's
# option 0/0 with macro sequence 0 ['Continue'], and records 0 and 5 hold it;
# signature 5 is held by record 6 alone, and signature 7 samples option 1/0
# with macro sequence 0; v1's first option is 0/0), and `explain` must exit 7
# with exactly this message ({out} is the run directory).
MALFORMED_RUN_VALUES = {
    "positive-collision-weight": (
        "run.json", lambda run: run["reward_weights"].update(collision=5.0),
        "run.json reward weight collision is 5.0, not negative"),
    "missing-reward-weight": (
        "run.json", lambda run: run["reward_weights"].pop("jerk"),
        "run.json reward weights must cover exactly ('time', "
        "'jerk', 'angular_acceleration', 'curvature', 'collision', 'termination'); "
        "missing ['jerk'], extra []"),
    "unknown-outcome": (
        "tracelog.json", _set("outcome", "crash"),
        "tracelog.json signature 0 outcome is 'crash', "
        "not one of ('done', 'collision', 'termination', 'dead')"),
    "components-misfit-outcome": ("tracelog.json", _set("outcome", "collision"), MISFIT),
    "non-numeric-component": (
        "tracelog.json", _set("time", "fast"),
        "tracelog.json signature 0 component time is 'fast', not a finite number"),
    "infinite-component": (
        "tracelog.json", _set("time", float("inf")),
        "tracelog.json signature 0 component time is inf, not a finite number"),
    "non-numeric-option-p": (
        "predictions.json", lambda pred: _first_option(pred).update(p="high"),
        "predictions.json v1 option 0/0 p is 'high', not a finite number in [0.0, 1.0]"),
    "null-goal-probability": (
        "predictions.json", lambda pred: _first_vehicle(pred)["goals"].update({"0": None}),
        "predictions.json v1 goal 0 is None, not a finite number in [0.0, 1.0]"),
    "option-macros-not-a-list": (
        "predictions.json", lambda pred: _first_option(pred).update(macros=5),
        "predictions.json v1 option 0/0 macros is 5, not a list of macro names"),
    "negative-goal-probability": (
        "predictions.json", lambda pred: _first_vehicle(pred)["goals"].update({"0": -0.5}),
        "predictions.json v1 goal 0 is -0.5, not a finite number in [0.0, 1.0]"),
    "collider-a-list": (
        "tracelog.json", _set("collider", ["v1"]),
        "tracelog.json signature 0 collider is ['v1'], not a vehicle id or null"),
    "macros-nested-list": (
        "tracelog.json", _set_macros([["Continue"]]),
        f"tracelog.json signature 0 macros is [['Continue']], {MACRO_NAMES}"),
    "macros-not-names": (
        "tracelog.json", _set_macros([7]),
        f"tracelog.json signature 0 macros is [7], {MACRO_NAMES}"),
    "macros-deeper-than-max-depth": (
        "tracelog.json", _set_macros(["Continue"] * 3),
        f"tracelog.json signature 0 macros is ['Continue', 'Continue', 'Continue'], {MACRO_NAMES}"),
    "macro-index-out-of-range": (
        "tracelog.json", _set("macros", 7),
        f"tracelog.json signature 0 macros is 7, {MACRO_INDEX}"),
    "macro-index-a-bool": (
        "tracelog.json", _set("macros", True),
        f"tracelog.json signature 0 macros is True, {MACRO_INDEX}"),
    "macro-index-a-float": (
        "tracelog.json", _set("macros", 0.0),
        f"tracelog.json signature 0 macros is 0.0, {MACRO_INDEX}"),
    "macro-sequence-unused": (
        "tracelog.json", lambda log: log["macro_sequences"].append(["Stop"]),
        "tracelog.json macro_sequences 7 is ['Stop'], which no signature uses"),
    "macro-sequence-repeated": (
        "tracelog.json", lambda log: log["macro_sequences"].__setitem__(1, ["Continue"]),
        "tracelog.json macro_sequences 1 repeats macro_sequences 0, ['Continue']"),
    "steps-a-string": (
        "tracelog.json", _set("steps", "many"),
        "tracelog.json signature 0 steps is 'many', not an integer"),
    "reward-a-string": (
        "tracelog.json", _set("reward", "high"),
        "tracelog.json signature 0 reward is 'high', not a finite number"),
    "reward-nan": (
        "tracelog.json", _set("reward", float("nan")),
        "tracelog.json signature 0 reward is nan, not a finite number"),
    "reward-too-large-for-a-float": (
        "tracelog.json", _set("reward", 10 ** 400),
        f"tracelog.json signature 0 reward is {10 ** 400}, not a finite number"),
    "label-a-list": (
        "predictions.json", lambda pred: _first_vehicle(pred).update(label=["the car"]),
        "predictions.json v1 label is ['the car'], not a string"),
    "unpredicted-vehicle": (
        "tracelog.json", lambda log: log.update(vehicles=["v9"]),
        "tracelog.json vehicles is ['v9'], not ['v1'], the sorted vehicle ids of "
        "predictions.json"),
    "vehicles-beyond-predictions": (
        "tracelog.json", lambda log: log.update(vehicles=["v1", "v2"]),
        "tracelog.json vehicles is ['v1', 'v2'], not ['v1'], the sorted vehicle ids of "
        "predictions.json"),
    "unsampled-vehicle": (
        "tracelog.json", _set("assignment", []),
        f"tracelog.json signature 0 assignment is [], {NOT_OPTIONS}"),
    "assignment-too-long": (
        "tracelog.json", _set("assignment", [0, 0, 0, 0]),
        f"tracelog.json signature 0 assignment is [0, 0, 0, 0], {NOT_OPTIONS}"),
    "unpredicted-option": (
        "tracelog.json", _set("assignment", [0, 99]),
        f"tracelog.json signature 0 assignment is [0, 99], {NOT_OPTIONS}"),
    "assignment-nested-list": (
        "tracelog.json", _set("assignment", [[0], 0], entry=5),
        f"tracelog.json signature 5 assignment is [[0], 0], {NOT_OPTIONS}"),
    # A signature is held once: its index is its position in every signature
    # column, and a record names it by that index. Signature 7 made to
    # duplicate signature 0, and signature 5 left without its one record.
    "duplicate-index": (
        "tracelog.json", _set("assignment", [0, 0], entry=7),
        "tracelog.json signature 7 repeats signature 0, assignment [0, 0] and macros 0"),
    "gapped-index": (
        "tracelog.json", _set("record", 0, entry=6),
        "tracelog.json signature 5 is assignment [0, 0] and macros 5, which no record uses"),
    "record-out-of-range": (
        "tracelog.json", _set("record", 8), f"tracelog.json record 0 is 8, {RECORD_INDEX}"),
    "record-negative": (
        "tracelog.json", _set("record", -1, entry=3),
        f"tracelog.json record 3 is -1, {RECORD_INDEX}"),
    "record-a-bool": (
        "tracelog.json", _set("record", False), f"tracelog.json record 0 is False, {RECORD_INDEX}"),
    "record-a-float": (
        "tracelog.json", _set("record", 0.0), f"tracelog.json record 0 is 0.0, {RECORD_INDEX}"),
    "record-column-missing": (
        "tracelog.json", lambda log: log.pop("record"), "tracelog.json column record is missing"),
    "record-column-not-a-list": (
        "tracelog.json", lambda log: log.update(record=0), "tracelog.json record is 0, not a list"),
    "signature-columns-unequal": (
        "tracelog.json", lambda log: log["reward"].pop(1),
        "tracelog.json columns have unequal lengths: assignment has 8 entries, reward 7"),
    "missing-column": (
        "tracelog.json", lambda log: log.pop("steps"), "tracelog.json column steps is missing"),
    "unknown-column": (
        "tracelog.json", lambda log: log.update(index=list(range(40))),
        "tracelog.json has unknown columns ['index']"),
    "column-not-a-list": (
        "tracelog.json", lambda log: log.update(outcome="done"),
        "tracelog.json outcome is 'done', not a list"),
    "max-depth-a-float": (
        "run.json", lambda run: run.update(max_depth=1e9),
        f"run.json max_depth is 1000000000.0, {DEPTH_RANGE}"),
    "max-depth-infinite": (
        "run.json", lambda run: run.update(max_depth=float("inf")),
        f"run.json max_depth is inf, {DEPTH_RANGE}"),
    "max-depth-nan": (
        "run.json", lambda run: run.update(max_depth=float("nan")),
        f"run.json max_depth is nan, {DEPTH_RANGE}"),
    "max-depth-huge": (
        "run.json", lambda run: run.update(max_depth=10 ** 400),
        f"run.json max_depth is {10 ** 400}, {DEPTH_RANGE}"),
    "max-depth-above-bound": (
        "run.json", lambda run: run.update(max_depth=MAX_DEPTH_BOUND + 1),
        f"run.json max_depth is {MAX_DEPTH_BOUND + 1}, {DEPTH_RANGE}"),
    "max-depth-a-bool": (
        "run.json", lambda run: run.update(max_depth=True),
        f"run.json max_depth is True, {DEPTH_RANGE}"),
    "plan-deeper-than-max-depth": (
        "run.json", lambda run: run.update(plan=["Continue"] * 5),
        f"run.json plan is {['Continue'] * 5}, {MACRO_NAMES}"),
    "plan-a-string": (
        "run.json", lambda run: run.update(plan="Exit-right"),
        f"run.json plan is 'Exit-right', {MACRO_NAMES}"),
    "plan-nested-list": (
        "run.json", lambda run: run.update(plan=[["Continue"]]),
        f"run.json plan is [['Continue']], {MACRO_NAMES}"),
    "plan-not-names": (
        "run.json", lambda run: run.update(plan=["x"]),
        f"run.json plan is ['x'], {MACRO_NAMES}"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RUN_VALUES))
def test_malformed_run_value_exits_with_run_dir_code(mini_scenario_path, tmp_path, capsys,
                                                     case):
    name, edit, message = MALFORMED_RUN_VALUES[case]
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    path = os.path.join(out, name)
    payload = json.load(open(path))
    edit(payload)
    json.dump(payload, open(path, "w"))
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega1=Continue"], capsys)
    assert code == 7, err
    assert err == f"error: {message.format(out=out)}\n"


@pytest.mark.parametrize("reindex", ["duplicate", "gap"])
def test_bad_record_indices_exit_with_run_dir_code(mini_scenario_path, tmp_path, capsys,
                                                   reindex):
    # Signature j is entry j of every signature column, so a column that
    # repeats or skips one signature's entry misnumbers the signatures after it.
    def renumber(log):
        if reindex == "duplicate":
            log["steps"].insert(1, log["steps"][0])
        else:
            del log["steps"][1]

    code, _, err = explain_edited_log(mini_scenario_path, tmp_path, capsys, renumber)
    assert code == 7
    assert "tracelog.json columns have unequal lengths" in err and "steps" in err
