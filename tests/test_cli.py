import functools
import json
import operator
import os

import pytest
from hypothesis import given, settings, strategies as st

from whyplan.cli import main, parse_query
from whyplan.errors import QueryParseError

from conftest import mini_scenario_dict

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
    assert "not found" in err


def test_zero_iterations_exits_with_validation_code(mini_scenario_path, tmp_path, capsys):
    code, _, err = run_cli(["plan", "--scenario", mini_scenario_path, "--iterations", "0",
                            "--out", str(tmp_path / "x")], capsys)
    assert code == 3
    assert "iterations" in err


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


@pytest.mark.parametrize("version", [None, 2])
def test_run_json_format_version_other_than_1_exits_with_run_dir_code(
        mini_scenario_path, tmp_path, capsys, version):
    out, _ = plan_run(mini_scenario_path, tmp_path, capsys)
    path = os.path.join(out, "run.json")
    meta = json.load(open(path))
    assert meta["format_version"] == 1
    if version is None:
        del meta["format_version"]
    else:
        meta["format_version"] = version
    json.dump(meta, open(path, "w"))
    code, _, err = run_cli(["explain", "--run", out, "--query", "omega1=Continue"], capsys)
    assert code == 7
    assert f"format_version {version!r}" in err and "unexpected" not in err


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
    assert "cannot read style file" in err


def test_goal_less_vehicle_exits_with_validation_code(tmp_path, capsys):
    raw = mini_scenario_dict()
    raw["vehicles"][1]["goals"] = []
    path = tmp_path / "goal_less.json"
    path.write_text(json.dumps(raw))
    code, _, err = run_cli(["plan", "--scenario", str(path), *FAST,
                            "--out", str(tmp_path / "run")], capsys)
    assert code == 3
    assert "'v1'" in err and "at least one goal" in err
    assert not os.path.exists(tmp_path / "run")


MALFORMED_SCENARIOS = {  # case -> (path to the edited value, its new value)
    "string-timestep": (("timestep_s",), "fast"),
    "one-element-speed-range": (("vehicles", 1, "speed_range_mps"), [5.0]),
    "number-for-lanes": (("layout", "lanes"), 5),
    "number-for-vehicles": (("vehicles",), 5),
    "integer-connection": (("layout", "junctions", 0, "connections", 0), 7),
    "string-in-interval": (("vehicles", 1, "goals", 0, "interval", 1), "ten"),
    "string-exploration": (("planner", "exploration"), "high"),
    "fractional-horizon": (("horizon_steps",), 2.5),
    "directory": None,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_exits_with_parse_code(tmp_path, capsys, case):
    scenario = tmp_path
    if MALFORMED_SCENARIOS[case] is not None:
        path, value = MALFORMED_SCENARIOS[case]
        raw = mini_scenario_dict()
        functools.reduce(operator.getitem, path[:-1], raw)[path[-1]] = value
        scenario = tmp_path / "malformed.json"
        scenario.write_text(json.dumps(raw))
    code, _, err = run_cli(["plan", "--scenario", str(scenario), *FAST,
                            "--out", str(tmp_path / "run")], capsys)
    assert code == 2, err
    assert "unexpected error" not in err
    assert not os.path.exists(tmp_path / "run")


def test_plan_into_an_existing_file_exits_with_run_dir_code(mini_scenario_path, tmp_path,
                                                            capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    code, _, err = run_cli(["plan", "--scenario", mini_scenario_path, *FAST,
                            "--out", str(out)], capsys)
    assert code == 7
    assert "cannot write run directory" in err and "unexpected error" not in err


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
        log[0]["macros"] = log[0]["macros"] + ["Continue"] * 3

    code, _, err = explain_edited_log(mini_scenario_path, tmp_path, capsys, deepen)
    assert code == 7
    assert "record 0" in err and "max_depth 2" in err


def test_record_naming_unpredicted_vehicle_exits_with_run_dir_code(mini_scenario_path,
                                                                    tmp_path, capsys):
    def rename(log):
        log[0]["assignment"]["v9"] = log[0]["assignment"].pop("v1")

    code, _, err = explain_edited_log(mini_scenario_path, tmp_path, capsys, rename)
    assert code == 7
    assert "record 0" in err and "'v9'" in err


def test_record_naming_unpredicted_option_exits_with_run_dir_code(mini_scenario_path,
                                                                   tmp_path, capsys):
    def retarget(log):
        log[0]["assignment"]["v1"] = [0, 99]

    code, _, err = explain_edited_log(mini_scenario_path, tmp_path, capsys, retarget)
    assert code == 7
    assert "record 0" in err and "('v1', (0, 99))" in err


@pytest.mark.parametrize("reindex", ["duplicate", "gap"])
def test_bad_record_indices_exit_with_run_dir_code(mini_scenario_path, tmp_path, capsys,
                                                   reindex):
    def renumber(log):
        log[1]["index"] = 0 if reindex == "duplicate" else len(log) + 5

    code, _, err = explain_edited_log(mini_scenario_path, tmp_path, capsys, renumber)
    assert code == 7
    assert "indices are not 0, 1, ..., n-1" in err
