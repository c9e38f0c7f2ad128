"""Monte Carlo Tree Search over macro actions.

Each iteration samples one goal and trajectory per non-ego vehicle, walks the
tree with UCB1 selection, forward-simulates the chosen macros against the
fixed traffic, and backs the terminal reward up the visited path. The trace
log of every iteration is the planner's second output; the search fills it
as a `TraceTable`, the sole input to the Bayes net.

A rollout is a pure function of the joint sample and the ego's macro prefix,
so within one search each (joint sample, macro prefix) is simulated once and
later iterations reuse the result; the reuse is exact, and the trace log is
the same as without it. The memo is also why a (sample, trace) signature
fixes its record: every iteration that samples the same joint sample and
selects the same macros ends at the same memoised result, so the search
adds a signature to the table the first time its pair ends and afterwards
only logs its index.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import checks
from .errors import ScenarioValidationError
from .maneuvers import Trajectory, applicable_macros, concat_trajectories, extract_features
from .recognition import FEATURE_WEIGHTS, Predictions
from .scenario import JointState, Scenario
from .simulation import FixedTraffic, MacroStepResult, ProjectionTable, simulate_step

OUTCOME_KINDS = ("done", "collision", "termination", "dead")
# Argmax tie-breaking prefers safety-salient outcomes.
OUTCOME_SAFETY_ORDER = ("collision", "done", "termination", "dead")

# First-visit order for untried actions: progress-making actions first, so a
# fresh branch's initial sample is its natural continuation rather than a
# pathological action chain.
SELECTION_ORDER = {name: i for i, name in enumerate((
    "Continue", "Change-left", "Change-right", "Exit-right", "Exit-straight",
    "Exit-left", "Continue-next-exit", "Stop"))}

REWARD_COMPONENTS = ("time", "jerk", "angular_acceleration", "curvature",
                     "collision", "termination")

# Components that must all be present for each outcome; dead is the
# all-absent pattern.
OUTCOME_REQUIRED = {
    "done": ("time", "jerk", "angular_acceleration", "curvature"),
    "collision": ("collision",),
    "termination": ("termination",),
    "dead": (),
}


@dataclass(frozen=True)
class RewardConfig:
    """Weights of the linear reward; collision and termination negative."""

    weights: dict = field(default_factory=lambda: {
        **FEATURE_WEIGHTS, "collision": -100.0, "termination": -50.0})

    def __post_init__(self):
        missing = set(REWARD_COMPONENTS) - set(self.weights)
        extra = set(self.weights) - set(REWARD_COMPONENTS)
        if missing or extra:
            raise ScenarioValidationError(
                f"reward weights must cover exactly {REWARD_COMPONENTS}; "
                f"missing {sorted(missing)}, extra {sorted(extra)}")
        for k, v in self.weights.items():
            checks.number(v, ("reward weight", k), ScenarioValidationError)
        for k in ("collision", "termination"):
            if self.weights[k] >= 0:
                checks.fail(self.weights[k], ("reward weight", k), "negative",
                            ScenarioValidationError)


# The deepest search a planner config or run directory may ask for. The Bayes
# net makes one Omega_d variable per depth up to max_depth, reached or not, so
# the depth must be bounded; every shipped run and the benchmark use 3.
MAX_DEPTH_BOUND = 16


@dataclass(frozen=True)
class PlannerConfig:
    iterations: int = 300
    max_depth: int = 3
    exploration: float = math.sqrt(2.0)
    seed: int = 0

    def __post_init__(self):
        checks.integer(self.iterations, ("iterations",), ScenarioValidationError, 1)
        checks.integer(self.max_depth, ("max_depth",), ScenarioValidationError, 1,
                       MAX_DEPTH_BOUND)
        checks.number(self.exploration, ("exploration",), ScenarioValidationError, 0.0)


def components_for(outcome: str, traj: Trajectory, goal, layout) -> dict:
    """Reward components of a terminal trajectory; absent components are None.
    A "done" trajectory first enters the goal at its last state (`simulate_step`
    checks the goal before every step), so only that state is scanned."""
    comps: dict = {c: None for c in REWARD_COMPONENTS}
    if outcome == "done":
        f = extract_features(traj, goal, layout, start=len(traj) - 1)
        comps["time"] = f.time_to_goal
        comps["jerk"] = f.jerk
        comps["angular_acceleration"] = f.angular_acceleration
        comps["curvature"] = f.curvature
    elif outcome == "collision":
        comps["collision"] = 1.0
    elif outcome == "termination":
        comps["termination"] = 1.0
    elif outcome != "dead":
        raise ValueError(f"unknown outcome {outcome!r}")
    return comps


def terminal_reward(traj: Trajectory, outcome: str, reward_config: RewardConfig,
                    goal, layout) -> tuple[float, dict]:
    """Scalar reward and component values at a terminal simulation state."""
    comps = components_for(outcome, traj, goal, layout)
    w = reward_config.weights
    if outcome == "dead":
        return w["termination"], comps
    scalar = sum(w[c] * v for c, v in comps.items() if v is not None)
    return float(scalar), comps


@dataclass(frozen=True)
class TraceTable:
    """A trace log held once per (sample, trace) signature.

    A rollout is memoised per (joint sample, macro prefix) (see `run_mcts`),
    so every record of one signature, an (assignment row, macro sequence)
    pair, holds the same outcome, collider, reward, components and steps.
    The table keeps those fields once per signature, in first-seen order,
    and `record` holds each MCTS iteration's signature index: record i is
    signature `record[i]`. `assignment` holds one flat (goal, trajectory,
    goal, trajectory, ...) tuple per signature, in `vehicles` order;
    `macros` an index into `macro_sequences`, the distinct macro tuples in
    first-seen order; and `components` one column per reward component,
    None where absent. `run_mcts` fills it as it searches, the Bayes net
    counts from it and `tracelog.json` is its JSON form.
    """

    vehicles: tuple[str, ...]
    macro_sequences: list[tuple[str, ...]]
    assignment: list[tuple[int, ...]]
    macros: list[int]
    outcome: list[str]
    collider: list[str | None]
    reward: list[float]
    steps: list[int]
    components: dict[str, list[float | None]]
    record: list[int]

    def __len__(self) -> int:
        """The number of records, one per MCTS iteration."""
        return len(self.record)

    def to_json(self) -> dict:
        """The `tracelog.json` object: every column under its name, the
        components under theirs."""
        return {"vehicles": self.vehicles, "macro_sequences": self.macro_sequences,
                "assignment": self.assignment, "macros": self.macros,
                "outcome": self.outcome, "collider": self.collider, "reward": self.reward,
                "steps": self.steps, **self.components, "record": self.record}


@dataclass
class _Node:
    visits: int = 0
    actions: dict = field(default_factory=dict)  # name -> [n, q]


class SearchTree:
    """Visit counts and Q values keyed by macro-sequence prefix."""

    def __init__(self):
        self.nodes: dict[tuple, _Node] = {}

    def node(self, key: tuple) -> _Node:
        if key not in self.nodes:
            self.nodes[key] = _Node()
        return self.nodes[key]

    def update(self, key: tuple, action: str, reward: float) -> None:
        node = self.node(key)
        node.visits += 1
        stat = node.actions.setdefault(action, [0, 0.0])
        stat[0] += 1
        stat[1] += (reward - stat[1]) / stat[0]

    def best_path(self) -> tuple[str, ...]:
        """Root-to-leaf action sequence by visit count (ties: Q, then name)."""
        path: list[str] = []
        key: tuple = ()
        while key in self.nodes and self.nodes[key].actions:
            acts = self.nodes[key].actions
            name = sorted(acts.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))[0][0]
            path.append(name)
            key = key + (name,)
        return tuple(path)


class _Iteration(NamedTuple):
    sample: tuple  # sorted (vehicle id, goal index, trajectory index)
    macros: tuple[str, ...]

    def assignment_key(self) -> tuple:
        return self.sample


@dataclass
class MctsResult:
    """The plan, the search tree and the trace log the search filled."""

    plan: tuple[str, ...]
    tree: SearchTree
    table: TraceTable

    @property
    def trace_log(self) -> list[_Iteration]:
        """Each iteration's (sample, macros), expanded from `table`. Its one
        reader is the benchmark tracer's search counter in `benchmarks/run.py`."""
        t = self.table
        samples = [tuple(zip(t.vehicles, row[::2], row[1::2])) for row in t.assignment]
        return [_Iteration(samples[j], t.macro_sequences[t.macros[j]]) for j in t.record]


def _select_ucb(node: _Node, actions: list[str], exploration: float,
                r_lo: float, r_hi: float) -> str:
    ordered = sorted(actions, key=lambda a: SELECTION_ORDER[a])
    for a in ordered:  # untried first
        if a not in node.actions or node.actions[a][0] == 0:
            return a
    span = max(r_hi - r_lo, 1e-9)
    total = sum(node.actions[a][0] for a in actions)
    log_total = math.log(max(total, 2))
    best, best_score = None, -math.inf
    for a in ordered:
        n, q = node.actions[a]
        score = (q - r_lo) / span + exploration * math.sqrt(log_total / n)
        if score > best_score + 1e-12:
            best, best_score = a, score
    return best


def run_mcts(scenario: Scenario, initial: JointState, config: PlannerConfig,
             predictions: Predictions, reward_config: RewardConfig | None = None) -> MctsResult:
    """Plan for the ego with MCTS; returns the plan, tree and trace table.

    `predictions` comes from goal recognition over the observation phase.
    Deterministic for a fixed config.seed.
    """
    reward_config = reward_config or RewardConfig()
    rng = np.random.default_rng(config.seed)
    tree = SearchTree()
    table = TraceTable(vehicles=tuple(sorted(scenario.non_ego_ids)), macro_sequences=[],
                       assignment=[], macros=[], outcome=[], collider=[], reward=[], steps=[],
                       components={c: [] for c in REWARD_COMPONENTS}, record=[])
    sequences: dict = {}  # macro tuple -> its index in macro_sequences, first-seen
    r_lo, r_hi = math.inf, -math.inf
    # Exact transposition tables for this search (Childs, Brodeur & Kocsis,
    # CIG 2008), keyed by (joint sample, macro prefix): the applicable macros
    # at a prefix, the step to a prefix the rollout goes on from, and at a
    # prefix where it ends, the (sample, macros) signature's index in `table`
    # and its reward. Ending steps keep no trajectory, which keeps peak
    # memory flat.
    actions_at: dict[tuple, list[str]] = {}
    step_at: dict[tuple, MacroStepResult] = {}
    end_at: dict[tuple, tuple] = {}
    # Car-following projections recur across joint samples that share a
    # predicted option, which the memo above cannot see: one table per search.
    projections = ProjectionTable()

    for _ in range(config.iterations):
        assignment = {vid: predictions[vid].sample(rng) for vid in scenario.non_ego_ids}
        sample = tuple(sorted((vid, g, s) for vid, (g, s) in assignment.items()))
        traffic = None  # built on the first simulated step of this iteration

        state = initial
        macros: tuple[str, ...] = ()
        ego_parts: list[Trajectory] = []
        for depth in range(config.max_depth):
            # The root state is `initial` for every sample, so its key is the
            # empty prefix alone.
            akey = (sample if macros else None, macros)
            actions = actions_at.get(akey)
            if actions is None:
                actions = applicable_macros(state, scenario.ego_id, scenario.layout,
                                            scenario.ego_goal)
                actions_at[akey] = actions
            lo = r_lo if math.isfinite(r_lo) else 0.0
            hi = r_hi if math.isfinite(r_hi) else 1.0
            choice = _select_ucb(tree.node(macros), actions, config.exploration, lo, hi)
            macros = macros + (choice,)
            key = (sample, macros)
            end = end_at.get(key)
            if end is not None:
                break
            step = step_at.get(key)
            if step is None:
                if traffic is None:
                    traffic = FixedTraffic(scenario.layout, {
                        vid: predictions[vid].options[g][s].trajectory
                        for vid, (g, s) in assignment.items()}, projections, assignment)
                step = simulate_step(scenario, state, choice, traffic)
            ego_parts.append(step.ego_trajectory)
            if step.outcome is not None or depth + 1 == config.max_depth:
                outcome = step.outcome or "termination"
                ego_traj = concat_trajectories(ego_parts)
                reward, comps = terminal_reward(ego_traj, outcome, reward_config,
                                                scenario.ego_goal, scenario.layout)
                end = end_at[key] = (len(table.outcome), reward)
                table.assignment.append(tuple(x for _, g, s in sample for x in (g, s)))
                table.macros.append(sequences.setdefault(macros, len(sequences)))
                table.outcome.append(outcome)
                table.collider.append(step.collider)
                table.reward.append(reward)
                table.steps.append(len(ego_traj) - 1)
                for c, column in table.components.items():
                    column.append(comps[c])
                break
            step_at[key] = step
            state = step.next_state

        signature, reward = end
        r_lo = min(r_lo, reward)
        r_hi = max(r_hi, reward)
        for depth, action in enumerate(macros):
            tree.update(macros[:depth], action, reward)
        table.record.append(signature)

    table.macro_sequences.extend(sequences)
    return MctsResult(plan=tree.best_path(), tree=tree, table=table)
