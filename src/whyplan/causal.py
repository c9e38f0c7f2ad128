"""Causal information behind a plan: counterfactual outcomes, reward-component
effects, and the other-vehicle behaviours the plan was aligned with.

Agent influence ranks each (vehicle, goal, trajectory) by the KL divergence
(bits) between the marginal macro-action distribution and the one conditioned
on that sample; small divergence marks behaviour the plan already accounts
for. Vehicles whose divergences are all identical carry no signal and are
dropped.

Every answer reads the Bayes net alone (a cause's macros come from
`BnModel.traj_macros`), and each function applies the query count it serves.
"""

import math
from dataclasses import dataclass

from .bayes_net import BnModel, collision_collider, expected_reward, outcome_distribution
from .errors import QueryParseError, UnexploredCounterfactualError
from .maneuvers import ALL_MACRO_NAMES
from .mcts import OUTCOME_SAFETY_ORDER, REWARD_COMPONENTS, RewardConfig


@dataclass(frozen=True)
class CounterfactualQuery:
    """A possibly partial assignment of macro actions to tree depths."""

    indices: tuple[int, ...]
    actions: tuple[str, ...]
    n_causes: int = 1
    n_effects: int = 1

    def __post_init__(self):
        if len(self.indices) != len(self.actions) or not self.indices:
            raise QueryParseError("query needs one action per depth index")
        if len(set(self.indices)) != len(self.indices):
            raise QueryParseError("duplicate depth indices in query")
        if any(j < 1 for j in self.indices):
            raise QueryParseError("depth indices are 1-based")
        if self.n_causes < 0 or self.n_effects < 0:
            raise QueryParseError("n_causes and n_effects must be >= 0")

    def evidence(self, model: BnModel) -> dict:
        realized = set().union(*model.omega_support.values())
        for j, a in zip(self.indices, self.actions):
            if j > model.d_max:
                raise QueryParseError(
                    f"depth {j} exceeds max depth {model.d_max}; valid depths: "
                    f"{list(range(1, model.d_max + 1))}")
            if a not in ALL_MACRO_NAMES and a not in realized:
                raise QueryParseError(
                    f"unknown action {a!r}; valid actions: {list(ALL_MACRO_NAMES)}")
            if a not in model.omega_support[j]:
                explored = sorted(model.omega_support[j])
                raise UnexploredCounterfactualError(
                    f"counterfactual action {a!r} was never explored at depth {j}; "
                    f"explored there: {explored}")
        return {f"Omega_{j}": a for j, a in zip(self.indices, self.actions)}


@dataclass(frozen=True)
class CfOutcome:
    distribution: dict
    kind: str
    probability: float
    collider: str | None = None


@dataclass(frozen=True)
class Effect:
    component: str
    delta: float           # reward-space difference E[R|factual] - E[R|counterfactual]
    delta_quantity: float  # quantity-space difference E[q|counterfactual] - E[q|factual]


@dataclass(frozen=True)
class Cause:
    vehicle: str
    label: str
    macros: tuple[str, ...]
    probability: float
    divergence: float


@dataclass(frozen=True)
class CausalSummary:
    """The (scenario, effects, causes) triple handed to the grammar."""

    cf_actions: tuple[str, ...]
    outcome: CfOutcome
    effects: tuple[Effect, ...]
    causes: tuple[Cause, ...]

    def __post_init__(self):
        if not (0.0 <= self.outcome.probability <= 1.0):
            raise ValueError("outcome probability outside [0, 1]")
        for c in self.causes:
            if not (0.0 <= c.probability <= 1.0):
                raise ValueError("cause probability outside [0, 1]")
        mags = [abs(e.delta) for e in self.effects]
        if any(mags[i] < mags[i + 1] - 1e-12 for i in range(len(mags) - 1)):
            raise ValueError("effects not sorted by |delta| descending")

    def to_dict(self) -> dict:
        return {
            "s": {
                "omega": list(self.cf_actions),
                "o": self.outcome.kind,
                "p": self.outcome.probability,
                "collider": self.outcome.collider,
                "distribution": dict(self.outcome.distribution),
            },
            "e": [{"r": e.component, "delta": e.delta, "delta_quantity": e.delta_quantity}
                  for e in self.effects],
            "c": [{"i": c.label, "omega": list(c.macros), "p": c.probability,
                   "divergence": c.divergence} for c in self.causes],
        }


def outcome_given_cf(model: BnModel, cf: CounterfactualQuery) -> CfOutcome:
    """p(outcome | counterfactual actions) and its safety-first argmax."""
    evidence = cf.evidence(model)
    dist = outcome_distribution(model, evidence)
    best = max(dist.values())
    kind = next(k for k in OUTCOME_SAFETY_ORDER if dist[k] >= best - 1e-12)
    collider = None
    if dist["collision"] > 0:
        vid = collision_collider(model, evidence)
        collider = model.labels.get(vid, vid) if vid is not None else None
    return CfOutcome(distribution=dist, kind=kind, probability=dist[kind], collider=collider)


def reward_deltas(model: BnModel, factual: tuple[str, ...], cf: CounterfactualQuery,
                  reward_config: RewardConfig) -> list[Effect]:
    """Per-component reward differences between factual and counterfactual.

    Only components present on both sides contribute; entries are sorted by
    |reward delta| descending and truncated to the query's n_effects.
    """
    ev_f = {f"Omega_{d}": a for d, a in enumerate(factual, start=1)}
    ev_cf = cf.evidence(model)
    effects = []
    for comp in REWARD_COMPONENTS:
        mean_f, w_f = expected_reward(model, comp, ev_f)
        mean_cf, w_cf = expected_reward(model, comp, ev_cf)
        if mean_f is None or mean_cf is None:
            continue
        weight = reward_config.weights[comp]
        effects.append(Effect(
            component=comp,
            delta=weight * (mean_f - mean_cf),
            delta_quantity=mean_cf - mean_f,
        ))
    order = {c: i for i, c in enumerate(REWARD_COMPONENTS)}
    effects.sort(key=lambda e: (-abs(e.delta), order[e.component]))
    return effects[:cf.n_effects]


def _omega_distributions(model: BnModel) -> tuple[dict, dict]:
    """Distributions over full realized traces: the marginal, and the
    conditional given each sampled (vehicle, goal, trajectory).

    One pass over the trace weights; each distribution adds its weights in
    trace-weight order.
    """
    totals: dict = {}  # () for the marginal, else (vid, g, s) -> weight
    masses: dict = {}  # the same keys -> {omega: weight}
    for (akey, omega), w in model.trace_weights.items():
        for key in ((), *akey):
            totals[key] = totals.get(key, 0.0) + w
            dist = masses.setdefault(key, {})
            dist[omega] = dist.get(omega, 0.0) + w
    dists = {key: {o: m / totals[key] for o, m in dist.items()} if totals[key] > 0.0 else {}
             for key, dist in masses.items()}
    return dists.pop(()), dists


def trace_divergence(marginal: dict, conditional: dict) -> float:
    """KL divergence in bits over the realized trace support.

    Terms with zero marginal probability contribute nothing; a zero
    conditional against positive marginal diverges to +inf, which sorts last
    in the ascending influence order.
    """
    d = 0.0
    for omega, p in marginal.items():
        if p <= 0.0:
            continue
        q = conditional.get(omega, 0.0)
        if q <= 0.0:
            return math.inf
        d += p * math.log2(p / q)
    return max(d, 0.0)


def agent_influences(model: BnModel, n_causes: int = 1) -> list[Cause]:
    """Vehicle behaviours ranked by how little they change the plan (Eq-KL).

    Returns at most n_causes causes, one per vehicle (each vehicle's
    minimal-divergence pair), ordered by divergence ascending. Vehicles whose
    divergence is identical across all their sampled (goal, trajectory) pairs
    carry no signal and are dropped.
    """
    if n_causes <= 0:
        return []
    marginal, conditionals = _omega_distributions(model)
    samples = sorted(conditionals)
    triples = []
    for vid in model.vehicles:
        divs = [((g, s), trace_divergence(marginal, conditionals[(v, g, s)]))
                for v, g, s in samples if v == vid]
        # Identical finite divergence across every pair means the vehicle does
        # not move the plan at all; identical infinities just mean every
        # conditional misses some rarely explored trace, which is no reason
        # to silence the vehicle.
        if len(divs) <= 1 or (math.isfinite(divs[0][1])
                              and all(d == divs[0][1] for _, d in divs)):
            continue
        for (g, s), d in divs:
            p_pair = (model.goal_probs[vid].get(g, 0.0)
                      * model.traj_probs[vid].get((g, s), 0.0))
            triples.append((d, -p_pair, vid, g, s))
    triples.sort()
    causes: list[Cause] = []
    seen = set()
    for d, neg_p, vid, g, s in triples:
        if vid in seen:
            continue
        seen.add(vid)
        macros = _cause_macros(model, vid, g, s)
        label = model.labels.get(vid, vid)
        causes.append(Cause(vehicle=vid, label=label, macros=macros,
                            probability=-neg_p, divergence=d))
        if len(causes) >= n_causes:
            break
    return causes


def _cause_macros(model: BnModel, vid: str, g: int, s: int) -> tuple[str, ...]:
    # Only a model built without trajectory macros lacks them.
    macros = model.traj_macros.get(vid, {}).get((g, s)) or (f"goal-{g}/trajectory-{s}",)
    # The phrasing reads better without the trailing drive-on segment.
    if len(macros) > 1 and macros[-1] == "Continue":
        macros = macros[:-1]
    return macros
