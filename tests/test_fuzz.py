"""A fixed-seed fuzz gate: `whyplan plan` and `whyplan explain` map every bad
input they are given to a documented exit code, never to 1 ("unexpected
error").

Four kinds of input are mutated: the leaves of the shipped scenario files
`s1.json` and `s2.json`, each planned at 5 iterations within a time bound per
case; the leaves of one small run directory's `run.json`, of its
`tracelog.json` columns and their first entries, and of its
`predictions.json`; every key and table entry of a style file; and query
strings built from an atom alphabet. The faults of the per-signature trace
log that format 3 brought in, a `record` column that does not index its
signatures one to one, and a format-2 or format-3 directory, are also made
one by one, each exiting 7 with a message that names the field.
The run directory is planned once per module, and every case is drawn from a
seeded `random.Random`, so the cases are the same on every run.
"""

import copy
import json
import math
import os
import random
import signal

import pytest

from whyplan import cli
from whyplan.grammar import DEFAULT_STYLE

from conftest import REPO_ROOT, format_2_trace_log, format_3_trace_log, mini_scenario_dict

DOCUMENTED = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_PLANNING,
              cli.EXIT_INFERENCE, cli.EXIT_UNEXPLORED, cli.EXIT_RUN_DIR}
ARTIFACTS = ("run.json", "tracelog.json", "predictions.json")
SCENARIOS = os.path.join(REPO_ROOT, "scenarios")
SCENARIO_CASES = 300
CASE_SECONDS = 5.0
FIRST_RECORDS = 3
RUN_CASES = 600
QUERY_CASES = 500

# Values a mutated leaf takes: wrong JSON types, out-of-range and non-finite
# numbers, an integer too large for a float, macro names in the wrong place.
VALUES = [None, 0, 1, -1, 2.5, -2.5, 1e9, -1e9, math.inf, -math.inf, math.nan, 10 ** 400,
          "", "x", "Continue", [], {}, [1], ["Continue"], [["Continue"]], {"a": 1}, True]
DELETE = object()

# A query joins pieces with commas; most pieces are whole terms, so that many
# queries parse and reach the causal layer.
QUERY_TERMS = [f"omega{depth}={action}" for depth in (0, 1, 2, 3)
               for action in ("Continue", "Change-right", "Exit-right", "Stop", "x")]
QUERY_ATOMS = ["omega", "omega1", "omega-1", "omega1e9", "Omega1", "=", "==", ",", " ",
               "Continue", "continue", "x", "1", "-", "\t", "ω", ""]

# Two junction-connection cases that once ended as exit 1. Lane 1's first point
# far north puts a vehicle off every lane, where s1's priority straight, whose
# lanes meet, has no curve; lane 2's first point far east makes the
# connection into it 1e9 m long, a curve of 2e9 samples.
CONNECTION_CASES = [("s1.json", ("layout", "lanes", 1, "midline", 0, 1), 1e9),
                    ("s1.json", ("layout", "lanes", 2, "midline", 0, 0), 1e9)]


class CaseTimeout(BaseException):
    """Raised in a scenario case that runs longer than CASE_SECONDS."""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    scenario = root / "mini.json"
    scenario.write_text(json.dumps(mini_scenario_dict()))
    out = str(root / "run")
    assert cli.main(["plan", "--scenario", str(scenario), "--seed", "3", "--iterations", "40",
                     "--max-depth", "2", "--out", out]) == 0
    return out


def explain(run: str, *extra: str) -> int:
    return cli.main(["explain", "--run", run, *extra])


def leaves(node, path=()):
    """The path of every value below `node`; lists and objects count too."""
    if path:
        yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))


def mutated(payload, path, value):
    payload = copy.deepcopy(payload)
    *parents, last = path
    node = payload
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return payload


def trace_log_paths(log: dict):
    """Each column of a trace log, and the leaves of its first FIRST_RECORDS entries."""
    for name, column in log.items():
        yield (name,)
        for i, entry in enumerate(column[:FIRST_RECORDS]):
            yield from leaves(entry, (name, i))


def run_dir_cases(originals: dict, rng: random.Random):
    """(artifact, path, value) cases over the leaves a loader reads first."""
    paths = [("run.json", p) for p in leaves(originals["run.json"])]
    paths += [("tracelog.json", p) for p in trace_log_paths(originals["tracelog.json"])]
    paths += [("predictions.json", p) for p in leaves(originals["predictions.json"])]
    for _ in range(RUN_CASES):
        name, path = rng.choice(paths)
        yield name, path, rng.choice(VALUES + [DELETE])


def scenario_cases(originals: dict, rng: random.Random):
    """The connection cases, then (file, path, value) cases over every leaf."""
    yield from CONNECTION_CASES
    paths = [(name, p) for name in originals for p in leaves(originals[name])]
    for _ in range(SCENARIO_CASES):
        name, path = rng.choice(paths)
        yield name, path, rng.choice(VALUES + [DELETE])


def test_mutated_scenario_plans_with_a_documented_code(tmp_path, capsys):
    originals = {}
    for name in ("s1.json", "s2.json"):
        with open(os.path.join(SCENARIOS, name)) as fh:
            originals[name] = json.load(fh)
    scenario, out = tmp_path / "scenario.json", str(tmp_path / "run")

    def time_out(signum, frame):
        raise CaseTimeout

    previous = signal.signal(signal.SIGALRM, time_out)
    try:
        for name, path, value in scenario_cases(originals, random.Random(0)):
            scenario.write_text(json.dumps(mutated(originals[name], path, value)))
            signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
            try:
                code = cli.main(["plan", "--scenario", str(scenario), "--iterations", "5",
                                 "--out", out])
            except CaseTimeout:
                pytest.fail(f"{name} {path} = {value!r} ran over {CASE_SECONDS} s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            err = capsys.readouterr().err
            assert code in DOCUMENTED, (name, path, value, err)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_mutated_run_directory_exits_with_a_documented_code(run_dir, tmp_path, capsys):
    originals = {}
    for name in ARTIFACTS:
        with open(os.path.join(run_dir, name)) as fh:
            originals[name] = json.load(fh)
    case_dir = str(tmp_path / "case")
    os.makedirs(case_dir)
    for name in ARTIFACTS:
        with open(os.path.join(case_dir, name), "w") as fh:
            json.dump(originals[name], fh)
    for name, path, value in run_dir_cases(originals, random.Random(0)):
        with open(os.path.join(case_dir, name), "w") as fh:
            json.dump(mutated(originals[name], path, value), fh)
        code = explain(case_dir, "--query", "omega1=Continue")
        err = capsys.readouterr().err
        assert code in DOCUMENTED, (name, path, value, err)
        with open(os.path.join(case_dir, name), "w") as fh:
            json.dump(originals[name], fh)


def _set_record(value, i=0):
    return lambda run: run["tracelog.json"]["record"].__setitem__(i, value)


def _record_out_of_range(run):
    log = run["tracelog.json"]
    log["record"][0] = len(log["assignment"])


def _drop_signature_holders(run):
    """Every record of the last signature names signature 0 instead."""
    log = run["tracelog.json"]
    last = len(log["assignment"]) - 1
    log["record"] = [0 if j == last else j for j in log["record"]]


def _repeat_signature(run):
    """The last signature takes signature 0's assignment row and macro index."""
    log = run["tracelog.json"]
    for name in ("assignment", "macros"):
        log[name][-1] = log[name][0]


def _format_3_directory(run):
    run["run.json"]["format_version"] = 3
    run["tracelog.json"] = format_3_trace_log(run["tracelog.json"],
                                              run["run.json"]["reward_weights"])


def _format_2_directory(run):
    _format_3_directory(run)
    run["run.json"]["format_version"] = 2
    run["tracelog.json"] = format_2_trace_log(run["tracelog.json"])


# Each edit of the run directory's artifacts must exit 7 with a message that
# names this field.
FORMAT_3_FAULTS = {
    "record-out-of-range": (_record_out_of_range, "tracelog.json record 0 is"),
    "record-negative": (_set_record(-1, 2), "tracelog.json record 2 is -1"),
    "record-a-bool": (_set_record(True), "tracelog.json record 0 is True"),
    "record-a-float": (_set_record(0.0), "tracelog.json record 0 is 0.0"),
    "signature-unused": (_drop_signature_holders, "which no record uses"),
    "signature-repeated": (_repeat_signature, "repeats signature 0"),
    "record-column-missing": (lambda run: run["tracelog.json"].pop("record"),
                              "tracelog.json column record is missing"),
    "format-2-directory": (_format_2_directory, "has format_version 2"),
    "format-3-directory": (_format_3_directory, "has format_version 3"),
}


@pytest.mark.parametrize("case", sorted(FORMAT_3_FAULTS))
def test_format_3_fault_exits_with_the_run_dir_code(run_dir, tmp_path, capsys, case):
    edit, field = FORMAT_3_FAULTS[case]
    run = {}
    for name in ARTIFACTS:
        with open(os.path.join(run_dir, name)) as fh:
            run[name] = json.load(fh)
    edit(run)
    for name, payload in run.items():
        with open(tmp_path / name, "w") as fh:
            json.dump(payload, fh)
    code = explain(str(tmp_path), "--query", "omega1=Continue")
    err = capsys.readouterr().err
    assert code == cli.EXIT_RUN_DIR and field in err, err


def style_cases():
    """Every style key, and the first two entries of every table, set to each value."""
    for key, default in DEFAULT_STYLE.items():
        for value in VALUES:
            yield {key: value}
            if isinstance(default, dict):
                for entry in list(default)[:2]:
                    yield {key: {entry: value}}


def test_mutated_style_file_exits_with_a_documented_code(run_dir, tmp_path, capsys):
    style = str(tmp_path / "style.json")
    for overlay in style_cases():
        with open(style, "w") as fh:
            json.dump(overlay, fh)
        code = explain(run_dir, "--query", "omega1=Continue", "--style", style)
        err = capsys.readouterr().err
        assert code in DOCUMENTED, (overlay, err)


def test_generated_query_exits_with_a_documented_code(run_dir, capsys):
    rng = random.Random(0)
    for _ in range(QUERY_CASES):
        query = ",".join(rng.choice(QUERY_TERMS if rng.random() < 0.6 else QUERY_ATOMS)
                         for _ in range(rng.randint(1, 4)))
        code = explain(run_dir, f"--query={query}")
        err = capsys.readouterr().err
        assert code in DOCUMENTED, (query, err)
