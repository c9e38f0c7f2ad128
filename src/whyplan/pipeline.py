"""End-to-end orchestration: sample, observe, recognize, plan, model.

Each non-ego vehicle's candidate plans from its initial state are enumerated
once (`true_goal_plans`) and serve both its observation-phase plan and
recognition's optimal reward; recognition enumerates once more, from the
last observed state.

Also owns the run-directory format: everything an explanation needs is
persisted (trace log, goal/trajectory factors, config), so `explain` never
re-plans. Artifact files are byte-stable for a fixed seed.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass

from . import checks
from .bayes_net import BnModel, build_bn, model_to_dict
from .causal import (CausalSummary, CounterfactualQuery, agent_influences, outcome_given_cf,
                     reward_deltas)
from .errors import RunDirectoryError, ScenarioValidationError
from .grammar import explain as render_explanation
from .maneuvers import ALL_MACRO_NAMES
from .mcts import MctsResult, PlannerConfig, RewardConfig, TraceRecord, run_mcts
from .recognition import Predictions, enumerate_plans, predict_all
from .scenario import JointState, Scenario, sample_initial_states
from .simulation import observe

RUN_FORMAT_VERSION = 1  # run.json "format_version"; load_run reads no other


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
    model = build_bn(result.trace_log, goal_probs, traj_probs, planner.max_depth,
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
    """Write the run directory; RunDirectoryError when it cannot be created or written."""
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
        _dump(os.path.join(out_dir, "tracelog.json"), [
            {
                "index": rec.index,
                "assignment": {vid: list(gs) for vid, gs in sorted(rec.assignment.items())},
                "macros": list(rec.macros),
                "components": rec.components,
                "outcome": rec.outcome,
                "collider": rec.collider,
                "reward": rec.reward,
                "steps": rec.steps,
            }
            for rec in pipe.mcts.trace_log
        ])
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
_RECORD = "tracelog.json record"


def _trace_records(raw_log, traj_probs: dict, d_max) -> list[TraceRecord]:
    """`tracelog.json` as records, in the one checking pass `load_run` describes."""
    options = {(vid, gs): gs for vid, opts in traj_probs.items() for gs in opts}
    shared: dict = {}  # macro tuple -> itself, once its names and depth are checked
    records = []
    for i, r in enumerate(raw_log):
        index, assignment, raw_macros = r["index"], r["assignment"], r["macros"]
        if index != i:
            raise RunDirectoryError("tracelog.json indices are not 0, 1, ..., n-1 in order")
        found = 0
        for vid, gs in assignment.items():
            option = options.get((vid, tuple(gs)))  # TypeError if gs is not iterable
            if option is not None:
                assignment[vid] = option
                found += 1
        if found != len(assignment) or found != len(traj_probs):
            sample = sorted({vid: tuple(gs) for vid, gs in assignment.items()}.items())
            raise RunDirectoryError(f"{_RECORD} {i} samples {sample}, which are not options "
                                    f"listed in predictions.json")
        macros = shared.get(tuple(raw_macros)) if type(raw_macros) is list else None
        if macros is None:
            macros = checks.names(raw_macros, (_RECORD, i, "macros"), RunDirectoryError,
                                  _MACRO_NAMES, "macro names", d_max)
            shared[macros] = macros
        components = r["components"]
        for k, v in components.items():
            # v - v is 0.0 for a finite float, NaN for an infinite or NaN one.
            if v is not None and (type(v) is not float or v - v != 0.0):
                checks.number(v, (_RECORD, i, "component", k), RunDirectoryError)
        collider, reward, steps = r["collider"], r["reward"], r["steps"]
        if collider is not None and type(collider) is not str:
            checks.fail(collider, (_RECORD, i, "collider"), "a vehicle id or null",
                        RunDirectoryError)
        if type(reward) is not float or reward - reward != 0.0:
            checks.number(reward, (_RECORD, i, "reward"), RunDirectoryError)
        if type(steps) is not int:
            checks.integer(steps, (_RECORD, i, "steps"), RunDirectoryError)
        records.append(TraceRecord(index=i, assignment=assignment, macros=macros,
                                   components=components, outcome=r["outcome"],
                                   collider=collider, reward=reward, steps=steps))
    return records


def load_run(run_dir: str) -> LoadedRun:
    """Rebuild the model from persisted artifacts, without re-planning.

    Reads `run.json`, whose reward weights and planner settings must pass
    `RewardConfig` and `PlannerConfig` (so `max_depth` is an integer in [1,
    MAX_DEPTH_BOUND]) and whose `plan` is a list of at most `max_depth` macro
    names, and `predictions.json`, then checks each `tracelog.json` record in
    one pass with inline type tests (a leaf of `checks` runs only to raise
    for a value that fails): its index is its position; components and
    reward are finite numbers; macros are macro names, at most `max_depth`;
    the collider is a string or null, steps an integer; outcome and
    components fit (`TraceRecord`); and it samples an option
    `predictions.json` lists for each predicted vehicle. Decoded values are
    kept: assignment values become their options' shared tuples, and records
    with equal macros share one tuple.

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
        records = _trace_records(raw_log, traj_probs, d_max)
    except (KeyError, TypeError, ValueError, AttributeError,
            ScenarioValidationError) as exc:
        raise RunDirectoryError(f"malformed run directory {run_dir}: "
                                f"{type(exc).__name__} {exc}") from exc
    model = build_bn(records, goal_probs, traj_probs, d_max,
                     traj_macros=traj_macros, labels=labels)
    return LoadedRun(plan=plan, reward=reward, model=model)
