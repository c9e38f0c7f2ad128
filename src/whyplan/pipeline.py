"""End-to-end orchestration: sample, observe, recognize, plan, model.

Each non-ego vehicle's candidate plans from its initial state are enumerated
once (`true_goal_plans`) and serve both its observation-phase plan and
recognition's optimal reward; recognition enumerates once more, from the
last observed state.

Also owns the run-directory format: everything an explanation needs is
persisted (the trace log as a table of its distinct (sample, trace)
signatures, goal/trajectory factors, config), so `explain` never re-plans.
Artifact files are byte-stable for a fixed seed.
"""

import hashlib
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass

from . import checks
from .bayes_net import BnModel, build_bn, model_to_dict
from .causal import (CausalSummary, CounterfactualQuery, agent_influences, outcome_given_cf,
                     reward_deltas)
from .errors import RunDirectoryError, ScenarioValidationError
from .grammar import explain as render_explanation
from .maneuvers import ALL_MACRO_NAMES
from .mcts import (OUTCOME_KINDS, OUTCOME_REQUIRED, REWARD_COMPONENTS, MctsResult, PlannerConfig,
                   RewardConfig, TraceTable, run_mcts)
from .recognition import Predictions, enumerate_plans, predict_all
from .scenario import JointState, Scenario, sample_initial_states
from .simulation import observe

RUN_FORMAT_VERSION = 3  # run.json "format_version"; load_run reads no other


@dataclass
class PipelineResult:
    scenario: Scenario
    seed: int
    planner: PlannerConfig
    reward: RewardConfig
    initial: JointState
    planning_state: JointState
    prefixes: dict
    predictions: Predictions
    mcts: MctsResult
    model: BnModel


def true_goal_plans(scenario: Scenario, initial: JointState) -> tuple[dict, dict]:
    """Observation-phase plan per vehicle, and every non-ego vehicle's plans.

    `from_start` maps each non-ego vehicle to its candidate plans per goal
    from its initial state. Its observation plan is the best plan to its true
    goal (the first). The ego has not planned yet and just keeps its lane
    (Continue), as does a vehicle with no plan to its true goal.
    """
    plans: dict = {}
    from_start: dict = {}
    for spec in scenario.vehicles:
        names = ("Continue",)
        if spec.id != scenario.ego_id:
            per_goal = from_start[spec.id] = enumerate_plans(
                initial.vehicles[spec.id], spec.goals, scenario.layout, scenario.dt,
                scenario.horizon, scenario.target_speed)
            if per_goal[0]:
                names = per_goal[0][0].macros
        plans[spec.id] = list(names)
    return plans, from_start


def planner_config(scenario: Scenario, seed: int, iterations: int = 300, max_depth: int = 3,
                   exploration: float | None = None) -> PlannerConfig:
    """Planner settings; `exploration` defaults to the scenario's, else sqrt 2."""
    if exploration is None:
        exploration = scenario.exploration if scenario.exploration is not None else math.sqrt(2.0)
    return PlannerConfig(iterations=iterations, max_depth=max_depth,
                         exploration=exploration, seed=seed)


def run_pipeline(scenario: Scenario, seed: int, planner: PlannerConfig | None = None,
                 reward: RewardConfig | None = None) -> PipelineResult:
    """Full planning run: returns the plan, trace log and Bayes net."""
    planner = planner or planner_config(scenario, seed)
    reward = reward or RewardConfig()
    initial = sample_initial_states(scenario, seed)
    plans, from_start = true_goal_plans(scenario, initial)
    prefixes, planning_state = observe(scenario, initial, plans)
    predictions = predict_all(scenario, prefixes, from_start)
    result = run_mcts(scenario, planning_state, planner, predictions, reward_config=reward)
    goal_probs, traj_probs, traj_macros, labels = prediction_factors(predictions)
    model = build_bn(result.table, goal_probs, traj_probs, planner.max_depth,
                     traj_macros=traj_macros, labels=labels)
    return PipelineResult(scenario=scenario, seed=seed, planner=planner, reward=reward,
                          initial=initial, planning_state=planning_state, prefixes=prefixes,
                          predictions=predictions, mcts=result, model=model)


def prediction_factors(predictions: Predictions) -> tuple[dict, dict, dict, dict]:
    """(goal probs, trajectory probs, trajectory macros, labels) for the net."""
    goal_probs: dict = {}
    traj_probs: dict = {}
    traj_macros: dict = {}
    labels: dict = {}
    for vid, pred in predictions.vehicles.items():
        goal_probs[vid] = {gi: p for gi, p in enumerate(pred.posterior.probs)}
        traj_probs[vid] = {}
        traj_macros[vid] = {}
        for gi, opts in pred.options.items():
            for si, opt in enumerate(opts):
                traj_probs[vid][(gi, si)] = opt.probability
                traj_macros[vid][(gi, si)] = opt.macros
        labels[vid] = pred.label
    return goal_probs, traj_probs, traj_macros, labels


def explain_query(model: BnModel, plan: tuple[str, ...], reward: RewardConfig,
                  query: CounterfactualQuery, style: dict | None = None
                  ) -> tuple[CausalSummary, str, str]:
    """Answer one counterfactual query: (summary, raw sentence, final sentence).

    The model is the only input the answer reads. Reward effects only make
    sense against a completed counterfactual, so they are suppressed when the
    most likely outcome is not `done` (matching how collision and no-goal
    explanations read).
    """
    outcome = outcome_given_cf(model, query)
    effects = (reward_deltas(model, plan, query, reward)
               if outcome.kind == "done" and query.n_effects > 0 else [])
    summary = CausalSummary(cf_actions=tuple(query.actions), outcome=outcome,
                            effects=tuple(effects),
                            causes=tuple(agent_influences(model, query.n_causes)))
    raw, text = render_explanation(summary, style)
    return summary, raw, text


# --- run directory -----------------------------------------------------------


def _dump(path: str, payload) -> None:
    # One write: json.dump would make one per token, for the same bytes.
    text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def save_run(out_dir: str, scenario_path, pipe: PipelineResult) -> None:
    """Write the run directory; RunDirectoryError when it cannot be created or written.

    `tracelog.json` (format 3) is the model's `TraceTable` as one object:
    `vehicles` (sorted ids), `macro_sequences` (the distinct macro lists in
    first-seen order), one list per signature field, whose entry j is
    signature j, in first-seen order: `assignment` (flat [goal, trajectory,
    ...] rows in `vehicles` order), `macros` (an index into
    `macro_sequences`), `outcome`, `collider`, `reward`, `steps`, and one
    per reward component, null where absent; and `record`, whose entry i is
    the signature index of MCTS iteration i. The search memoises each
    (sample, macro prefix), so a signature fixes every field of its records.
    """
    scenario_sha256 = file_sha256(scenario_path)
    try:
        os.makedirs(out_dir, exist_ok=True)
        _dump(os.path.join(out_dir, "run.json"), {
            "format_version": RUN_FORMAT_VERSION,
            "scenario_path": str(scenario_path),
            "scenario_sha256": scenario_sha256,
            "scenario_name": pipe.scenario.name,
            "seed": pipe.seed,
            "iterations": pipe.planner.iterations,
            "max_depth": pipe.planner.max_depth,
            "exploration": pipe.planner.exploration,
            "reward_weights": pipe.reward.weights,
            "plan": list(pipe.mcts.plan),
        })
        _dump(os.path.join(out_dir, "tracelog.json"), pipe.model.table.to_json())
        model = pipe.model
        _dump(os.path.join(out_dir, "predictions.json"), {
            vid: {
                "label": model.labels[vid],
                "goals": {str(gi): p for gi, p in model.goal_probs[vid].items()},
                "options": {f"{gi}/{si}": {"p": p, "macros": model.traj_macros[vid][(gi, si)]}
                            for (gi, si), p in sorted(model.traj_probs[vid].items())},
            }
            for vid in model.vehicles
        })
        _dump(os.path.join(out_dir, "bn.json"), model_to_dict(model))
    except OSError as exc:
        raise RunDirectoryError(f"cannot write run directory {out_dir}: {exc}") from exc


@dataclass
class LoadedRun:
    plan: tuple[str, ...]
    reward: RewardConfig
    model: BnModel


_MACRO_NAMES = frozenset(ALL_MACRO_NAMES)
_SIGNATURE = "tracelog.json signature"
_NULL = type(None)
_OUTCOMES = frozenset(OUTCOME_KINDS)
_PER_SIGNATURE = ("assignment", "macros", "outcome", "collider", "reward", "steps",
                  *REWARD_COMPONENTS)
_COLUMNS = frozenset(("vehicles", "macro_sequences", "record", *_PER_SIGNATURE))
# Per reward component, the outcome kinds whose records hold it.
_REQUIRING = {c: frozenset(k for k, required in OUTCOME_REQUIRED.items() if c in required)
              for c in REWARD_COMPONENTS}


def _first_bad(column: list, ok) -> int | None:
    """The index of the first entry `ok` rejects: a check that failed on a
    whole column finds the entry to name this way."""
    return next((i for i, v in enumerate(column) if not ok(v)), None)


def _typed_column(column: list, kinds: set, field: str, what: str) -> None:
    """Every entry's type is in `kinds`, checked in one pass; otherwise the
    first entry of another type is named as not `what`."""
    if not set(map(type, column)) <= kinds:
        i = _first_bad(column, lambda v: type(v) in kinds)
        checks.fail(column[i], (_SIGNATURE, i, field), what, RunDirectoryError)


def _finite_column(column: list, field: tuple, nullable: bool) -> list:
    """`column` if its entries are finite floats (or null, if `nullable`),
    as one pass each over types and values; otherwise the entries as
    floats, where each is checked by `checks.number`, which names the
    signature of the first that fails."""
    if (set(map(type, column)) <= ({float, _NULL} if nullable else {float})
            and math.isfinite(sum(filter(None, column)))):  # filter drops nulls and zeros
        return column  # a finite sum has finite terms
    return [None if v is None and nullable
            else checks.number(v, (_SIGNATURE, i, *field), RunDirectoryError)
            for i, v in enumerate(column)]


def _assignment_column(column: list, vehicles: list, traj_probs: dict) -> list:
    """The assignment column as tuples: each row holds a goal and trajectory
    index per vehicle, integers naming an option predictions.json lists.
    Types and lengths are checked in one pass each over the whole column,
    options per vehicle over the distinct rows."""
    options = [frozenset(traj_probs[vid]) for vid in vehicles]
    width = 2 * len(vehicles)

    def lists_options(row: tuple) -> bool:
        return (len(row) == width
                and all(map(operator.contains, options, zip(row[0::2], row[1::2]))))

    if (set(map(type, column)) <= {list} and set(map(len, column)) <= {width}
            and set(map(type, itertools.chain.from_iterable(column))) <= {int}):
        rows = list(map(tuple, column))
        # Entry k of each distinct row, for every k.
        entries = list(zip(*dict.fromkeys(rows))) if rows else [()] * width
        if all(set(zip(entries[2 * k], entries[2 * k + 1])) <= option
               for k, option in enumerate(options)):
            return rows
    i = _first_bad(column, lambda row: type(row) is list and set(map(type, row)) <= {int}
                   and lists_options(tuple(row)))
    checks.fail(column[i], (_SIGNATURE, i, "assignment"),
                f"a goal and trajectory index per vehicle {vehicles}, naming options "
                f"listed in predictions.json", RunDirectoryError)


def _signature_text(pair: tuple) -> str:
    row, m = pair
    return f"assignment {list(row)!r} and macros {m}"


def _trace_table(log, traj_probs: dict, d_max: int) -> TraceTable:
    """`tracelog.json` as a TraceTable, checked column by column (see load_run)."""
    if type(log) is not dict:
        raise RunDirectoryError("tracelog.json is not an object of columns")
    for name in sorted(_COLUMNS.difference(log)):
        checks.missing(("tracelog.json column", name), RunDirectoryError)
    unknown = sorted(set(log) - _COLUMNS)
    if unknown:
        raise RunDirectoryError(f"tracelog.json has unknown columns {unknown}")
    columns = {name: checks.typed(log[name], ("tracelog.json", name), RunDirectoryError, list)
               for name in _PER_SIGNATURE}
    n = len(columns["assignment"])
    for name, column in columns.items():
        if len(column) != n:
            raise RunDirectoryError(f"tracelog.json columns have unequal lengths: "
                                    f"assignment has {n} entries, {name} {len(column)}")
    vehicles = sorted(traj_probs)
    if log["vehicles"] != vehicles:
        checks.fail(log["vehicles"], ("tracelog.json", "vehicles"),
                    f"{vehicles}, the sorted vehicle ids of predictions.json", RunDirectoryError)

    # Macro indices first, so that a bad sequence can name a signature holding it.
    sequences = checks.typed(log["macro_sequences"], ("tracelog.json", "macro_sequences"),
                             RunDirectoryError, list)
    macros = columns["macros"]
    index = f"an index into the {len(sequences)} macro_sequences"
    _typed_column(macros, {int}, "macros", index)
    if set(macros) != set(range(len(sequences))):
        i = _first_bad(macros, lambda m: 0 <= m < len(sequences))
        if i is not None:
            checks.fail(macros[i], (_SIGNATURE, i, "macros"), index, RunDirectoryError)
        j = min(set(range(len(sequences))) - set(macros))
        raise RunDirectoryError(f"tracelog.json macro_sequences {j} is {sequences[j]!r}, "
                                f"which no signature uses")
    seen: dict = {}  # macro tuple -> its index
    for j, seq in enumerate(sequences):
        seq = checks.names(seq, (_SIGNATURE, macros.index(j), "macros"), RunDirectoryError,
                           _MACRO_NAMES, "macro names", d_max)
        if seen.setdefault(seq, j) != j:
            raise RunDirectoryError(f"tracelog.json macro_sequences {j} repeats "
                                    f"macro_sequences {seen[seq]}, {list(seq)!r}")

    outcome = columns["outcome"]
    kinds = f"one of {OUTCOME_KINDS}"
    _typed_column(outcome, {str}, "outcome", kinds)
    if not set(outcome) <= _OUTCOMES:
        i = _first_bad(outcome, _OUTCOMES.__contains__)
        checks.fail(outcome[i], (_SIGNATURE, i, "outcome"), kinds, RunDirectoryError)
    for comp, requiring in _REQUIRING.items():
        present = list(map(operator.is_not, columns[comp], itertools.repeat(None)))
        if present != list(map(requiring.__contains__, outcome)):
            i = _first_bad(range(n), lambda i: present[i] == (outcome[i] in requiring))
            kind = outcome[i]
            checks.fail(sorted(c for c in REWARD_COMPONENTS if columns[c][i] is not None),
                        (_SIGNATURE, i, "components"),
                        f"exactly {OUTCOME_REQUIRED[kind]}, which outcome {kind!r} requires",
                        RunDirectoryError)
    _typed_column(columns["collider"], {str, _NULL}, "collider", "a vehicle id or null")
    _typed_column(columns["steps"], {int}, "steps", "an integer")
    assignment = _assignment_column(columns["assignment"], vehicles, traj_probs)
    pairs = list(zip(assignment, macros))
    if len(set(pairs)) != n:
        first: dict = {}  # (assignment row, macro index) -> its first signature
        for j, pair in enumerate(pairs):
            if first.setdefault(pair, j) != j:
                raise RunDirectoryError(f"tracelog.json signature {j} repeats signature "
                                        f"{first[pair]}, {_signature_text(pair)}")

    # Then the records: each names a signature, and every signature is named.
    record = checks.typed(log["record"], ("tracelog.json", "record"), RunDirectoryError, list)
    if not (set(map(type, record)) <= {int} and set(record) <= set(range(n))):
        i = _first_bad(record, lambda j: type(j) is int and 0 <= j < n)
        checks.fail(record[i], ("tracelog.json record", i), f"an index into the {n} signatures",
                    RunDirectoryError)
    if len(set(record)) != n:
        j = min(set(range(n)).difference(record))
        raise RunDirectoryError(f"tracelog.json signature {j} is {_signature_text(pairs[j])}, "
                                f"which no record uses")
    return TraceTable(
        vehicles=tuple(vehicles), macro_sequences=list(seen), assignment=assignment,
        macros=macros, outcome=outcome, collider=columns["collider"],
        reward=_finite_column(columns["reward"], ("reward",), nullable=False),
        steps=columns["steps"],
        components={c: _finite_column(columns[c], ("component", c), nullable=True)
                    for c in REWARD_COMPONENTS},
        record=record)


def load_run(run_dir: str) -> LoadedRun:
    """Rebuild the model from persisted artifacts, without re-planning.

    Reads `run.json`, whose reward weights and planner settings must pass
    `RewardConfig` and `PlannerConfig` (so `max_depth` is an integer in [1,
    MAX_DEPTH_BOUND]) and whose `plan` is a list of at most `max_depth` macro
    names, and `predictions.json`, then checks the `tracelog.json` table
    (format 3, see `save_run`) column by column, with one pass over each
    column's types or values, and scans a column entry by entry only to name
    the signature or record that failed. First the signatures: the columns
    are exactly those `save_run` writes, and the per-signature ones are
    lists of one length; `vehicles` are the sorted ids of
    `predictions.json`; each assignment row names an option
    `predictions.json` lists for each vehicle, checked once per distinct
    row; each macro index points into `macro_sequences`, whose entries are
    distinct lists of at most `max_depth` macro names, each held by some
    signature; outcomes are known and hold exactly the components they
    require; components and reward are finite numbers, the collider a string
    or null and steps an integer; and no two signatures share an assignment
    row and macro index. Then the records: `record` is a list of integers
    (not bools), each the index of a signature, and every signature is held
    by some record. The checked columns are the table `build_bn` counts
    from.

    Raises RunDirectoryError for any such fault, when the directory or an
    artifact is missing, unreadable or not JSON, when an entry is missing, a
    probability is not a number in [0, 1], option macros are not macro names
    or a label is not a string, and when `format_version` is missing or not
    RUN_FORMAT_VERSION.
    """
    if not os.path.isdir(run_dir):
        raise RunDirectoryError(f"run directory {run_dir} does not exist")
    meta, raw_log, raw_pred = (checks.read_json(os.path.join(run_dir, name), RunDirectoryError)
                               for name in ("run.json", "tracelog.json", "predictions.json"))
    try:
        version = meta.get("format_version")
        if version != RUN_FORMAT_VERSION:
            raise RunDirectoryError(f"{os.path.join(run_dir, 'run.json')} has format_version "
                                    f"{version!r}; this version reads {RUN_FORMAT_VERSION}")
        goal_probs, traj_probs, traj_macros, labels = {}, {}, {}, {}
        for vid, d in raw_pred.items():
            where = ("predictions.json", vid)
            labels[vid] = checks.typed(d["label"], where + ("label",), RunDirectoryError, str)
            goal_probs[vid] = {int(g): checks.number(p, where + ("goal", g), RunDirectoryError,
                                                     0.0, 1.0)
                               for g, p in d["goals"].items()}
            traj_probs[vid], traj_macros[vid] = {}, {}
            for key, od in d["options"].items():
                gi, si = (int(part) for part in key.split("/"))
                option = where + ("option", key)
                traj_probs[vid][(gi, si)] = checks.number(od["p"], option + ("p",),
                                                          RunDirectoryError, 0.0, 1.0)
                traj_macros[vid][(gi, si)] = checks.names(
                    od["macros"], option + ("macros",), RunDirectoryError, _MACRO_NAMES,
                    "macro names")
        try:
            reward = RewardConfig(weights=meta["reward_weights"])
            d_max = PlannerConfig(iterations=meta["iterations"], max_depth=meta["max_depth"],
                                  exploration=meta["exploration"], seed=meta["seed"]).max_depth
        except ScenarioValidationError as exc:
            raise RunDirectoryError(f"run.json {exc}") from exc
        plan = checks.names(meta["plan"], ("run.json", "plan"), RunDirectoryError,
                            _MACRO_NAMES, "macro names", d_max)
        table = _trace_table(raw_log, traj_probs, d_max)
    except (KeyError, TypeError, ValueError, AttributeError,
            ScenarioValidationError) as exc:
        raise RunDirectoryError(f"malformed run directory {run_dir}: "
                                f"{type(exc).__name__} {exc}") from exc
    model = build_bn(table, goal_probs, traj_probs, d_max,
                     traj_macros=traj_macros, labels=labels)
    return LoadedRun(plan=plan, reward=reward, model=model)
