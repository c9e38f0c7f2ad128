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

from .bayes_net import BnModel, build_bn, model_to_dict
from .causal import (CausalSummary, CounterfactualQuery, agent_influences, outcome_given_cf,
                     reward_deltas)
from .errors import RunDirectoryError
from .grammar import explain as render_explanation
from .maneuvers import KinematicParams, macro_from_name
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


def true_goal_plans(scenario: Scenario, initial: JointState,
                    params: KinematicParams) -> tuple[dict, dict]:
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
                scenario.horizon, params)
            if per_goal[0]:
                names = per_goal[0][0].macros
        plans[spec.id] = [macro_from_name(name) for name in names]
    return plans, from_start


def planner_config(scenario: Scenario, seed: int, iterations: int = 300, max_depth: int = 3,
                   exploration: float | None = None) -> PlannerConfig:
    """Planner settings with the scenario's calibration overrides applied."""
    if exploration is None:
        exploration = float(scenario.planner_overrides.get("exploration", math.sqrt(2.0)))
    return PlannerConfig(iterations=iterations, max_depth=max_depth,
                         exploration=exploration, seed=seed)


def run_pipeline(scenario: Scenario, seed: int, planner: PlannerConfig | None = None,
                 reward: RewardConfig | None = None) -> PipelineResult:
    """Full planning run: returns the plan, trace log and Bayes net."""
    planner = planner or planner_config(scenario, seed)
    reward = reward or RewardConfig()
    params = KinematicParams(cruise_speed=scenario.target_speed)
    initial = sample_initial_states(scenario, seed)
    plans, from_start = true_goal_plans(scenario, initial, params)
    prefixes, planning_state = observe(scenario, initial, plans)
    predictions = predict_all(scenario, prefixes, from_start, params=params)
    result = run_mcts(scenario, planning_state, planner, predictions, reward_config=reward,
                      params=params)
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
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


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


def _read_artifact(run_dir: str, name: str):
    path = os.path.join(run_dir, name)
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise RunDirectoryError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise RunDirectoryError(f"{path} is not valid JSON: {exc}") from exc


def _check_trace_log(records: list[TraceRecord], traj_probs: dict, d_max: int) -> None:
    """Records indexed 0..n-1, no deeper than max_depth, each sampling one of
    the options `predictions.json` lists for every vehicle it predicts."""
    if [rec.index for rec in records] != list(range(len(records))):
        raise RunDirectoryError("tracelog.json indices are not 0, 1, ..., n-1 in order")
    options = {(vid, gs) for vid, opts in traj_probs.items() for gs in opts}
    for rec in records:
        if len(rec.macros) > d_max:
            raise RunDirectoryError(f"tracelog.json record {rec.index} has {len(rec.macros)} "
                                    f"macros, more than max_depth {d_max} in run.json")
        # Keys are distinct, so this covers each predicted vehicle exactly once.
        if len(rec.assignment) != len(traj_probs) or not options.issuperset(
                rec.assignment.items()):
            raise RunDirectoryError(f"tracelog.json record {rec.index} samples "
                                    f"{sorted(rec.assignment.items())}, which are not "
                                    f"options listed in predictions.json")


def load_run(run_dir: str) -> LoadedRun:
    """Rebuild the model from persisted artifacts, without re-planning.

    Raises RunDirectoryError when the directory or an artifact is missing or
    unreadable, is not JSON, or lacks an entry the model is built from, when
    `run.json` lacks `format_version` or has another than RUN_FORMAT_VERSION,
    and when the trace log disagrees with `run.json` or `predictions.json` (see
    `_check_trace_log`).
    """
    if not os.path.isdir(run_dir):
        raise RunDirectoryError(f"run directory {run_dir} does not exist")
    meta, raw_log, raw_pred = (_read_artifact(run_dir, name) for name in
                               ("run.json", "tracelog.json", "predictions.json"))
    try:
        version = meta.get("format_version")
        if version != RUN_FORMAT_VERSION:
            raise RunDirectoryError(f"{os.path.join(run_dir, 'run.json')} has format_version "
                                    f"{version!r}; this version reads {RUN_FORMAT_VERSION}")
        records = [
            TraceRecord(
                index=r["index"],
                assignment={vid: tuple(gs) for vid, gs in r["assignment"].items()},
                macros=tuple(r["macros"]),
                components={k: v for k, v in r["components"].items()},
                outcome=r["outcome"],
                collider=r["collider"],
                reward=r["reward"],
                steps=r["steps"],
            )
            for r in raw_log
        ]
        goal_probs, traj_probs, traj_macros, labels = {}, {}, {}, {}
        for vid, d in raw_pred.items():
            labels[vid] = d["label"]
            goal_probs[vid] = {int(g): p for g, p in d["goals"].items()}
            traj_probs[vid], traj_macros[vid] = {}, {}
            for key, od in d["options"].items():
                gi, si = (int(part) for part in key.split("/"))
                traj_probs[vid][(gi, si)] = od["p"]
                traj_macros[vid][(gi, si)] = od["macros"]
        reward = RewardConfig(weights=meta["reward_weights"])
        plan, d_max = tuple(meta["plan"]), meta["max_depth"]
        _check_trace_log(records, traj_probs, d_max)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise RunDirectoryError(f"malformed run directory {run_dir}: "
                                f"{type(exc).__name__} {exc}") from exc
    model = build_bn(records, goal_probs, traj_probs, d_max,
                     traj_macros=traj_macros, labels=labels)
    return LoadedRun(plan=plan, reward=reward, model=model)
