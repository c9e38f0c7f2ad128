"""Goal recognition: Boltzmann-rational posteriors over goals and predicted
trajectory distributions per goal.

A vehicle's candidate plans to a goal are enumerated as macro-action
sequences (bounded depth, traffic-free rollouts). The goal posterior weighs
how much reward the observed prefix has already given up relative to the
optimal plan for each goal; trajectory probabilities are a softmax over
candidate plan rewards.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (GoalUnreachableError, InapplicableMacroError, NoApplicableActionError,
                     OffRoadError)
from .maneuvers import (KinematicParams, Trajectory, applicable_macros,
                        concat_trajectories, expand_macro, extract_features,
                        lane_follow_chain, roll_chain, Maneuver)
from .scenario import Goal, JointState, RoadLayout, Scenario, VehicleState, locate

ENUMERATION_DEPTH = 3

# Reward components of a completed trajectory, shared with the planner.
DEFAULT_FEATURE_WEIGHTS = {
    "time": -1.0,
    "jerk": -0.1,
    "angular_acceleration": -0.1,
    "curvature": -0.1,
}


def plan_reward(traj: Trajectory, goal: Goal, layout: RoadLayout,
                weights: dict | None = None) -> float:
    w = weights or DEFAULT_FEATURE_WEIGHTS
    f = extract_features(traj, goal, layout)
    return (w["time"] * f.time_to_goal + w["jerk"] * f.jerk
            + w["angular_acceleration"] * f.angular_acceleration
            + w["curvature"] * f.curvature)


@dataclass(frozen=True)
class PlanCandidate:
    macros: tuple[str, ...]
    trajectory: Trajectory
    reward: float


@dataclass(frozen=True)
class TrajectoryOption:
    """One predicted trajectory for a goal, with its macro labels."""

    macros: tuple[str, ...]
    trajectory: Trajectory
    probability: float


@dataclass(frozen=True)
class GoalPosterior:
    """Normalized posterior over one vehicle's goal set."""

    goals: tuple[Goal, ...]
    probs: tuple[float, ...]


def enumerate_plans(state: VehicleState, goal: Goal, layout: RoadLayout, dt: float,
                    horizon: int, params: KinematicParams,
                    max_depth: int = ENUMERATION_DEPTH,
                    weights: dict | None = None) -> list[PlanCandidate]:
    """All goal-reaching macro sequences up to max_depth, traffic-free."""
    vid = "_solo"
    results: list[PlanCandidate] = []

    def recurse(cur: VehicleState, macros: tuple[str, ...], parts: list[Trajectory],
                steps_left: int, depth: int):
        if depth >= max_depth or steps_left <= 0:
            return
        joint = JointState(t=0, vehicles={vid: cur})
        try:
            actions = applicable_macros(joint, vid, layout, goal, params)
        except (OffRoadError, NoApplicableActionError):
            return
        _inverse = {"Change-left": "Change-right", "Change-right": "Change-left"}
        for macro in actions:
            if macro.kind == "Stop":
                continue
            if macro.kind == "Continue" and macros and macros[-1] == "Continue":
                continue
            # An immediately reverted lane change is never on an efficient
            # path (Continue covers the stay-in-lane alternative).
            if macros and _inverse.get(macro.name) == macros[-1]:
                continue
            maneuvers = expand_macro(macro, joint, vid, layout)
            traj = roll_chain(maneuvers, cur, layout, dt, steps_left, params=params)
            if len(traj) < 2:
                continue
            new_parts = parts + [traj]
            new_macros = macros + (macro.name,)
            full = concat_trajectories(new_parts)
            feats = extract_features(full, goal, layout)
            if feats.reached_goal:
                results.append(PlanCandidate(new_macros, full,
                                             plan_reward(full, goal, layout, weights)))
                continue
            if not traj.truncated:
                recurse(traj.tail_state(), new_macros, new_parts,
                        steps_left - (len(traj) - 1), depth + 1)

    recurse(state, (), [], horizon, 0)
    # Deterministic order: best reward first, macro names break ties.
    results.sort(key=lambda c: (-c.reward, c.macros))
    return results


def _softmax(scores, beta: float) -> np.ndarray:
    z = beta * np.asarray(scores, dtype=float)
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def trajectory_distribution(state: VehicleState, goal: Goal, layout: RoadLayout,
                            dt: float, horizon: int, params: KinematicParams,
                            beta: float = 1.0, weights: dict | None = None,
                            max_depth: int = ENUMERATION_DEPTH) -> list[TrajectoryOption]:
    """Predicted trajectories to one goal with rationality-weighted probabilities."""
    candidates = enumerate_plans(state, goal, layout, dt, horizon, params,
                                 max_depth=max_depth, weights=weights)
    return _trajectory_options(candidates, goal, layout, dt, horizon, params, beta)


def _trajectory_options(candidates: list[PlanCandidate], goal: Goal, layout: RoadLayout,
                        dt: float, horizon: int, params: KinematicParams,
                        beta: float) -> list[TrajectoryOption]:
    if not candidates:
        raise GoalUnreachableError(f"goal {goal.label!r} unreachable")
    probs = _softmax([c.reward for c in candidates], beta)
    return [TrajectoryOption(c.macros, _extend_to_horizon(c.trajectory, layout, dt, horizon,
                                                          params), float(p))
            for c, p in zip(candidates, probs)]


def _extend_to_horizon(traj: Trajectory, layout: RoadLayout, dt: float, horizon: int,
                       params: KinematicParams) -> Trajectory:
    """Keep driving (lane follow) after the plan completes, then hold in place."""
    parts = [traj]
    total = len(traj) - 1
    if total < horizon and not traj.truncated:
        tail = traj.tail_state()
        try:
            lane_id, _, _ = locate(layout, (tail.x, tail.y))
            chain = lane_follow_chain(layout, lane_id)
            ext = roll_chain([Maneuver("lane-follow", lanes=tuple(chain))], tail, layout,
                             dt, horizon - total, params=params)
            if len(ext) > 1:
                parts.append(ext)
                total += len(ext) - 1
        except (OffRoadError, InapplicableMacroError):
            pass
    out = concat_trajectories(parts) if len(parts) > 1 else traj
    if total < horizon:
        pad = horizon - total
        last = out.tail_state()
        out = Trajectory(
            dt=dt,
            xs=np.concatenate([out.xs, np.full(pad, last.x)]),
            ys=np.concatenate([out.ys, np.full(pad, last.y)]),
            headings=np.concatenate([out.headings, np.full(pad, last.heading)]),
            speeds=np.concatenate([out.speeds, np.zeros(pad)]),
            vehicle_id=out.vehicle_id, truncated=out.truncated,
        )
    return out


def goal_posterior(observed: Trajectory, goals: tuple[Goal, ...], layout: RoadLayout,
                   dt: float, horizon: int, params: KinematicParams, beta: float = 1.0,
                   prior: list[float] | None = None,
                   weights: dict | None = None) -> GoalPosterior:
    """Posterior over goals given an observed trajectory prefix.

    p(g | prefix) ~ prior(g) * exp(beta * (r_hat(g) - r_star(g))) where
    r_star is the optimal plan reward from the first observed state and r_hat
    the best achievable reward given the prefix already driven. Goals with no
    completion from the current state get probability zero.
    """
    _check_observation(observed, goals)
    current = observed.tail_state()
    completions = [enumerate_plans(current, goal, layout, dt, horizon, params,
                                   weights=weights) for goal in goals]
    return _goal_posterior(observed, goals, completions, layout, dt, horizon, params,
                           beta, prior, weights)


def _check_observation(observed: Trajectory, goals: tuple[Goal, ...]) -> None:
    if len(goals) == 0:
        raise GoalUnreachableError("empty goal set")
    if len(observed) == 0:
        raise ValueError("empty observed prefix")


def _goal_posterior(observed: Trajectory, goals: tuple[Goal, ...],
                    completions: list[list[PlanCandidate]], layout: RoadLayout, dt: float,
                    horizon: int, params: KinematicParams, beta: float,
                    prior: list[float] | None, weights: dict | None) -> GoalPosterior:
    """`goal_posterior` given each goal's plans from the last observed state."""
    prior = prior or [1.0 / len(goals)] * len(goals)
    start = observed.state_at(0)
    scores: list[float | None] = []
    for goal, cands in zip(goals, completions):
        best_from_start = enumerate_plans(start, goal, layout, dt, horizon, params,
                                          weights=weights)
        if not best_from_start or not cands:
            scores.append(None)
            continue
        r_star = best_from_start[0].reward
        r_hat = None
        for cand in cands:
            full = concat_trajectories([observed, cand.trajectory])
            r = plan_reward(full, goal, layout, weights)
            if r_hat is None or r > r_hat:
                r_hat = r
        scores.append(r_hat - r_star)
    if all(s is None for s in scores):
        raise GoalUnreachableError("all goals unreachable")
    finite = [beta * s for s in scores if s is not None]
    zmax = max(finite)
    weights_out = [p * math.exp(beta * s - zmax) if s is not None else 0.0
                   for p, s in zip(prior, scores)]
    total = sum(weights_out)
    return GoalPosterior(goals=tuple(goals), probs=tuple(w / total for w in weights_out))


# --- whole-scenario prediction -------------------------------------------------


@dataclass(frozen=True)
class VehiclePrediction:
    vehicle_id: str
    label: str
    posterior: GoalPosterior
    options: dict[int, tuple[TrajectoryOption, ...]]  # goal index -> options

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        g = int(rng.choice(len(self.posterior.goals), p=np.asarray(self.posterior.probs)))
        opts = self.options[g]
        k = int(rng.choice(len(opts), p=np.asarray([o.probability for o in opts])))
        return g, k


@dataclass(frozen=True)
class Predictions:
    vehicles: dict[str, VehiclePrediction]

    def __getitem__(self, vid: str) -> VehiclePrediction:
        return self.vehicles[vid]


def predict_all(scenario: Scenario, prefixes: dict[str, Trajectory],
                params: KinematicParams | None = None) -> Predictions:
    """Goal posteriors and trajectory distributions for every non-ego vehicle."""
    params = params or KinematicParams(cruise_speed=scenario.target_speed)
    beta = scenario.rationality_beta
    out: dict[str, VehiclePrediction] = {}
    for spec in scenario.vehicles:
        if spec.id == scenario.ego_id:
            continue
        prefix = prefixes[spec.id]
        _check_observation(prefix, spec.goals)
        current = prefix.tail_state()
        completions = [enumerate_plans(current, goal, scenario.layout, scenario.dt,
                                       scenario.horizon, params) for goal in spec.goals]
        posterior = _goal_posterior(prefix, spec.goals, completions, scenario.layout,
                                    scenario.dt, scenario.horizon, params, beta, None, None)
        options: dict[int, tuple[TrajectoryOption, ...]] = {}
        for gi, goal in enumerate(spec.goals):
            if posterior.probs[gi] <= 0.0:
                options[gi] = ()
                continue
            options[gi] = tuple(_trajectory_options(completions[gi], goal, scenario.layout,
                                                    scenario.dt, scenario.horizon, params,
                                                    beta))
        out[spec.id] = VehiclePrediction(spec.id, spec.label, posterior, options)
    return Predictions(vehicles=out)
