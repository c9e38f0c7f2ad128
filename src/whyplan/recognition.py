"""Goal recognition: Boltzmann-rational posteriors over goals and predicted
trajectory distributions per goal.

A vehicle's candidate plans are enumerated as macro-action sequences
(bounded depth, traffic-free rollouts) for all of its goals at once, from two
start states: where it was first observed (its observation plan and r_star)
and where it is now (the completions of the observed prefix). Each node of
the enumeration reads its macro table (`maneuvers.macro_table`) once. The goal
posterior weighs how much reward the observed prefix has already given up
relative to the optimal plan for each goal; trajectory probabilities are a
softmax over candidate plan rewards.
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GoalUnreachableError, InapplicableMacroError, OffRoadError
from .maneuvers import (Trajectory, TrajectoryFeatures, concat_trajectories, continue_reaches_goal,
                        extract_features, goal_entry, lane_macros, macro_table, roll_chain)
from .scenario import Goal, RoadLayout, Scenario, VehicleState, locate

ENUMERATION_DEPTH = 3

# Weights of a completed trajectory's reward components, shared with the planner.
FEATURE_WEIGHTS = {
    "time": -1.0,
    "jerk": -0.1,
    "angular_acceleration": -0.1,
    "curvature": -0.1,
}

def plan_reward(f: TrajectoryFeatures) -> float:
    w = FEATURE_WEIGHTS
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


def enumerate_plans(state: VehicleState, goals: tuple[Goal, ...], layout: RoadLayout,
                    dt: float, horizon: int, cruise: float) -> list[list[PlanCandidate]]:
    """Goal-reaching macro sequences up to ENUMERATION_DEPTH, one list per goal.

    The recursion carries the goals still open on a path: each macro prefix
    is rolled out once, traffic-free at `cruise`, and offered to every open
    goal for which the macro is applicable. A node reads its `macro_table`
    once; Continue, the only goal-dependent macro, is then decided per goal.
    A goal closes on a path once the path reaches it.
    """
    results: list[list[PlanCandidate]] = [[] for _ in goals]

    def recurse(cur: VehicleState, open_goals: list[int], macros: tuple[str, ...],
                parts: list[Trajectory], steps_left: int, depth: int):
        if depth >= ENUMERATION_DEPTH or steps_left <= 0:
            return
        try:
            table, s = macro_table(cur, layout)
        except OffRoadError:
            return
        _inverse = {"Change-left": "Change-right", "Change-right": "Change-left"}
        for macro, maneuvers in table.items():
            if macro == "Stop":
                continue
            if macro == "Continue" and macros and macros[-1] == "Continue":
                continue
            # An immediately reverted lane change is never on an efficient
            # path (Continue covers the stay-in-lane alternative).
            if macros and _inverse.get(macro) == macros[-1]:
                continue
            gis = open_goals
            if macro == "Continue":
                gis = [gi for gi in open_goals
                       if continue_reaches_goal(table, s, layout, goals[gi])]
                if not gis:
                    continue
            traj = roll_chain(maneuvers, cur, layout, dt, steps_left, cruise)
            if len(traj) < 2:
                continue
            new_parts = parts + [traj]
            new_macros = macros + (macro,)
            full = concat_trajectories(new_parts)
            still_open = []
            for gi in gis:
                # An open goal was not reached on the prefix: scan the new part only.
                feats = extract_features(full, goals[gi], layout, start=len(full) - len(traj))
                if feats.reached_goal:
                    results[gi].append(PlanCandidate(new_macros, full, plan_reward(feats)))
                else:
                    still_open.append(gi)
            if still_open and not traj.truncated:
                recurse(traj.tail_state(), still_open, new_macros, new_parts,
                        steps_left - (len(traj) - 1), depth + 1)

    recurse(state, list(range(len(goals))), (), [], horizon, 0)
    # Deterministic order: best reward first, macro names break ties.
    for cands in results:
        cands.sort(key=lambda c: (-c.reward, c.macros))
    return results


def trajectory_options(candidates: list[PlanCandidate], goal: Goal, layout: RoadLayout,
                       dt: float, horizon: int, cruise: float,
                       beta: float) -> list[TrajectoryOption]:
    """One goal's candidates as predicted trajectories with softmax probabilities."""
    if not candidates:
        raise GoalUnreachableError(f"goal {goal.label!r} unreachable")
    z = beta * np.asarray([c.reward for c in candidates], dtype=float)
    e = np.exp(z - z.max())
    probs = e / e.sum()
    return [TrajectoryOption(c.macros, _extend_to_horizon(c.trajectory, layout, dt, horizon,
                                                          cruise), float(p))
            for c, p in zip(candidates, probs)]


def _extend_to_horizon(traj: Trajectory, layout: RoadLayout, dt: float, horizon: int,
                       cruise: float) -> Trajectory:
    """Keep driving (Continue) after the plan completes, then hold in place."""
    parts = [traj]
    total = len(traj) - 1
    if total < horizon and not traj.truncated:
        tail = traj.tail_state()
        try:
            lane_id, _, _ = locate(layout, (tail.x, tail.y))
            ext = roll_chain(lane_macros(layout, lane_id)["Continue"], tail, layout, dt,
                             horizon - total, cruise)
            if len(ext) > 1:
                parts.append(ext)
                total += len(ext) - 1
        except (OffRoadError, InapplicableMacroError):
            pass
    out = concat_trajectories(parts) if len(parts) > 1 else traj
    if total < horizon:
        pad = horizon - total
        last = out.tail_state()
        out = Trajectory(dt=dt, xs=list(out.xs) + [last.x] * pad, ys=list(out.ys) + [last.y] * pad,
                         headings=list(out.headings) + [last.heading] * pad,
                         speeds=list(out.speeds) + [0.0] * pad, truncated=out.truncated)
    return out


def goal_posterior(observed: Trajectory, goals: tuple[Goal, ...],
                   from_start: list[list[PlanCandidate]],
                   from_current: list[list[PlanCandidate]], layout: RoadLayout,
                   beta: float = 1.0) -> GoalPosterior:
    """Posterior over goals given an observed trajectory prefix.

    p(g | prefix) ~ exp(beta * (r_hat(g) - r_star(g))) under a uniform prior,
    where r_star is the optimal plan reward from the first observed state (the
    best of `from_start[g]`, enumerated there) and r_hat the best achievable
    reward given the prefix already driven (the prefix followed by a plan in
    `from_current[g]`, enumerated from the last observed state). Goals with no
    plan from either state get probability zero.
    """
    if len(goals) == 0:
        raise GoalUnreachableError("empty goal set")
    if len(observed) == 0:
        raise ValueError("empty observed prefix")
    scores: list[float | None] = []
    for goal, start_plans, tail_plans in zip(goals, from_start, from_current):
        if not start_plans or not tail_plans:
            scores.append(None)
            continue
        # Goal entry is first looked for on the prefix, once per goal, and
        # past it only in each plan's own states.
        entry = goal_entry(observed, goal, layout)
        entry = len(observed) if entry is None else entry
        r_hat = max(plan_reward(extract_features(concat_trajectories([observed, c.trajectory]),
                                                 goal, layout, start=entry))
                    for c in tail_plans)
        scores.append(r_hat - start_plans[0].reward)
    if all(s is None for s in scores):
        raise GoalUnreachableError("all goals unreachable")
    zmax = max(beta * s for s in scores if s is not None)
    # The uniform prior cancels exactly only in exact arithmetic, so it stays
    # a factor: dropping it can move the last bit of a probability.
    prior = 1.0 / len(goals)
    weights = [prior * math.exp(beta * s - zmax) if s is not None else 0.0 for s in scores]
    total = sum(weights)
    return GoalPosterior(goals=tuple(goals), probs=tuple(w / total for w in weights))


# --- whole-scenario prediction -------------------------------------------------


def choice_table(probs) -> list[float]:
    """The cumulative table `Generator.choice(len(probs), p=probs)` draws from:
    choice's index is the table's `bisect_right` of one `rng.random()`. Raises
    ValueError, as choice does, unless the probabilities are non-negative and
    sum to 1 within sqrt(float64 eps)."""
    cdf = list(itertools.accumulate(float(p) for p in probs))
    if not cdf or min(probs) < 0.0 or not abs(math.fsum(probs) - 1.0) <= 2.0 ** -26:
        raise ValueError(f"{list(probs)} is not a probability vector")
    return [c / cdf[-1] for c in cdf]


@dataclass(frozen=True)
class VehiclePrediction:
    vehicle_id: str
    label: str
    posterior: GoalPosterior
    options: dict[int, tuple[TrajectoryOption, ...]]  # goal index -> options

    @functools.cached_property
    def _tables(self) -> tuple[list[float], dict[int, list[float]]]:
        """The goal table and each goal's option table (`choice_table`)."""
        return choice_table(self.posterior.probs), {
            g: choice_table([o.probability for o in opts]) for g, opts in self.options.items()
            if opts}

    def sample(self, rng: np.random.Generator) -> tuple[int, int]:
        """A goal, then one of its options, drawn as `Generator.choice` draws
        them from the same generator, from `rng.random()` and tables built on
        the first draw."""
        goals, options = self._tables
        g = bisect.bisect_right(goals, rng.random())
        return g, bisect.bisect_right(options[g], rng.random())


@dataclass(frozen=True)
class Predictions:
    vehicles: dict[str, VehiclePrediction]

    def __getitem__(self, vid: str) -> VehiclePrediction:
        return self.vehicles[vid]


def predict_all(scenario: Scenario, prefixes: dict[str, Trajectory],
                from_start: dict[str, list[list[PlanCandidate]]]) -> Predictions:
    """Goal posteriors and trajectory distributions for every non-ego vehicle.

    `from_start` holds each vehicle's plans per goal from the first state of
    its prefix; only the last state is enumerated here.
    """
    beta, cruise = scenario.rationality_beta, scenario.target_speed
    out: dict[str, VehiclePrediction] = {}
    for spec in scenario.vehicles:
        if spec.id == scenario.ego_id:
            continue
        prefix = prefixes[spec.id]
        completions = enumerate_plans(prefix.tail_state(), spec.goals, scenario.layout,
                                      scenario.dt, scenario.horizon, cruise)
        posterior = goal_posterior(prefix, spec.goals, from_start[spec.id], completions,
                                   scenario.layout, beta)
        options = {gi: tuple(trajectory_options(completions[gi], goal, scenario.layout,
                                                scenario.dt, scenario.horizon, cruise, beta))
                   if posterior.probs[gi] > 0.0 else ()
                   for gi, goal in enumerate(spec.goals)}
        out[spec.id] = VehiclePrediction(spec.id, spec.label, posterior, options)
    return Predictions(vehicles=out)
