"""Bayesian network over a completed planning run.

The network factorizes p(G, S, Omega, R, O): per-vehicle goal and trajectory
factors come straight from goal recognition, macro-action CPDs are selection
count ratios keyed by (action prefix, joint non-ego sample), reward
components are per-trace-node Gaussians with an absence probability, and the
existence/outcome layers are deterministic. Inference is exact enumeration
over the support realized in the trace log; conditionals are ratios of sums,
so queries never touch never-realized presence patterns.

The model is immutable after build, so what a query reads is computed once
per model: CPD counts in one pass per (sample, trace) signature, each node's
reward means when the build ends, and the rows matching an evidence, with
their total weight, the first time that evidence is asked. The build reads
each `TraceRecord` once, and sorts each distinct joint sample into its key
once, finding it by the assignment's items.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyTraceLogError, UnexploredCounterfactualError
from .mcts import OUTCOME_KINDS, OUTCOME_REQUIRED, REWARD_COMPONENTS, TraceRecord

AssignmentKey = tuple  # sorted tuple of (vehicle id, goal index, trajectory index)


@dataclass
class _NodeStats:
    """Per reached trace node: reward samples and realized outcome kinds."""

    total: int = 0
    values: dict = field(default_factory=lambda: {c: [] for c in REWARD_COMPONENTS})
    outcomes: dict = field(default_factory=dict)   # kind -> count
    colliders: dict = field(default_factory=dict)  # vehicle id -> count
    means: dict = field(default_factory=dict)  # component -> mean or None, set after build

    def presence(self, comp: str) -> float:
        return len(self.values[comp]) / self.total

    def mean(self, comp: str) -> float | None:
        return self.means[comp]

    def variance(self, comp: str) -> float:
        vals = self.values[comp]
        if len(vals) < 2:
            return 0.0
        mu = self.means[comp]
        return float(sum((v - mu) ** 2 for v in vals) / (len(vals) - 1))


@dataclass(frozen=True)
class Row:
    """One cell of the realized joint support."""

    akey: AssignmentKey
    omega: tuple[str, ...]
    kind: str
    weight: float
    values: dict


class BnModel:
    """Factorized joint over one trace log; immutable after build."""

    def __init__(self, trace_log, goal_probs, traj_probs, d_max,
                 traj_macros=None, labels=None):
        if not trace_log:
            raise EmptyTraceLogError("empty trace log")
        self.trace_log: list[TraceRecord] = list(trace_log)
        self.d_max = int(d_max)
        self.goal_probs: dict = {v: dict(p) for v, p in goal_probs.items()}
        self.traj_probs: dict = {v: {tuple(k): pv for k, pv in p.items()}
                                 for v, p in traj_probs.items()}
        self.traj_macros: dict = {v: {tuple(k): tuple(m) for k, m in (traj_macros or {}).get(v, {}).items()}
                                  for v in goal_probs}
        self.labels: dict = dict(labels or {v: v for v in goal_probs})
        self.vehicles = sorted(self.goal_probs)

        self.sel: dict = {}    # (prefix, akey) -> {action: count}
        self.reach: dict = {}  # (prefix, akey) -> count
        self.support: dict = {}  # (prefix, akey) -> [record index]
        self.nodes: dict[tuple, _NodeStats] = {}
        self._signatures: dict = {}  # (akey, omega) -> count
        self._build_counts()
        self.trace_weights: dict = {(akey, omega): (self.assignment_probability(akey)
                                                    * self.trace_probability(akey, omega))
                                    for akey, omega in self._signatures}
        self.rows: list[Row] = self._build_rows()
        self._filtered: dict = {}  # canonical evidence -> (rows, weight), see _filter_rows
        self.omega_support: dict[int, set] = {
            d: {omega[d - 1] for _, omega in self._signatures if len(omega) >= d}
            for d in range(1, self.d_max + 1)}

    # -- construction ---------------------------------------------------------

    def _build_counts(self) -> None:
        # Records that share a (sample, trace) signature walk the same CPD
        # keys, so each signature walks them once and adds its record count.
        # A record holds exactly the components its outcome requires.
        members: dict = {}  # (akey, omega) -> [record index], first-seen order
        akeys: dict = {}  # assignment items -> sorted assignment key
        nodes = self.nodes
        for rec in self.trace_log:
            items = tuple(rec.assignment.items())
            akey = akeys.get(items)
            if akey is None:
                akey = akeys[items] = rec.assignment_key()
            omega, outcome, components = rec.macros, rec.outcome, rec.components
            members.setdefault((akey, omega), []).append(rec.index)
            node = nodes.get(omega)
            if node is None:
                node = nodes[omega] = _NodeStats()
            node.total += 1
            for comp in OUTCOME_REQUIRED[outcome]:
                node.values[comp].append(float(components[comp]))
            node.outcomes[outcome] = node.outcomes.get(outcome, 0) + 1
            if rec.collider is not None:
                node.colliders[rec.collider] = node.colliders.get(rec.collider, 0) + 1
        for node in self.nodes.values():
            node.means = {c: float(np.mean(v)) if v else None for c, v in node.values.items()}
        for (akey, omega), indices in members.items():
            n = len(indices)
            self._signatures[(akey, omega)] = n
            prefix: tuple = ()
            for action in omega:
                key = (prefix, akey)
                self.reach[key] = self.reach.get(key, 0) + n
                counts = self.sel.setdefault(key, {})
                counts[action] = counts.get(action, 0) + n
                self.support.setdefault(key, []).extend(indices)
                prefix = prefix + (action,)
            if len(omega) < self.d_max:
                # Terminal visit: the trace reached this node and selected nothing.
                key = (prefix, akey)
                self.reach[key] = self.reach.get(key, 0) + n
                self.support.setdefault(key, []).extend(indices)

    def assignment_probability(self, akey: AssignmentKey) -> float:
        p = 1.0
        for vid, g, s in akey:
            p *= self.goal_probs[vid].get(g, 0.0)
            p *= self.traj_probs[vid].get((g, s), 0.0)
        return p

    def action_probability(self, prefix: tuple, akey: AssignmentKey,
                           action: str | None) -> float:
        """CPD entry p(Omega_d = action | prefix, sample); None means no selection."""
        key = (prefix, akey)
        if key not in self.reach:
            return 1.0 if action is None else 0.0
        reach = self.reach[key]
        sel = self.sel.get(key, {})
        if action is None:
            return (reach - sum(sel.values())) / reach
        return sel.get(action, 0) / reach

    def trace_probability(self, akey: AssignmentKey, omega: tuple[str, ...]) -> float:
        """p(Omega = omega, padded with no-selection | sample)."""
        p = 1.0
        prefix: tuple = ()
        for action in omega:
            p *= self.action_probability(prefix, akey, action)
            prefix = prefix + (action,)
        if len(omega) < self.d_max:
            p *= self.action_probability(prefix, akey, None)
        return p

    def pattern_probability(self, omega: tuple[str, ...], kind: str) -> float:
        """p(the presence pattern of `kind` | trace node omega).

        Estimated as the empirical frequency of that outcome at the node.
        Treating the existence indicators as independent binaries would skew
        mixed-outcome nodes (a 3:1 done/termination split would come out
        around 240:1 because five indicators co-vary), while the per-trace
        patterns always co-occur.
        """
        node = self.nodes[omega]
        return node.outcomes.get(kind, 0) / node.total

    def _build_rows(self) -> list[Row]:
        # Variable names are formatted once per model, and the Rb/O values,
        # which depend on the outcome kind alone, once per kind.
        vehicle_names: dict = {}  # vid -> (G name, S name)
        omega_names = [f"Omega_{d}" for d in range(1, self.d_max + 1)]
        kind_values = {
            kind: {**{f"Rb_{c}": 1 if c in OUTCOME_REQUIRED[kind] else 0
                      for c in REWARD_COMPONENTS},
                   **{f"O_{k}": 1 if k == kind else 0 for k in OUTCOME_KINDS}}
            for kind in OUTCOME_KINDS}
        rows = []
        for (akey, omega), base in self.trace_weights.items():
            node = self.nodes[omega]
            trace_values = {}
            for vid, g, s in akey:
                names = vehicle_names.get(vid)
                if names is None:
                    names = vehicle_names[vid] = (f"G_{vid}", f"S_{vid}")
                trace_values[names[0]] = g
                trace_values[names[1]] = (g, s)
            for d, name in enumerate(omega_names):
                trace_values[name] = omega[d] if d < len(omega) else None
            for kind in sorted(node.outcomes):
                w = base * self.pattern_probability(omega, kind)
                rows.append(Row(akey=akey, omega=omega, kind=kind, weight=w,
                                values={**trace_values, **kind_values[kind]}))
        return rows

    # -- variable index -------------------------------------------------------

    def variables(self) -> dict:
        """Name -> support of every random variable."""
        out = {}
        for vid in self.vehicles:
            out[f"G_{vid}"] = sorted(self.goal_probs[vid])
            out[f"S_{vid}"] = sorted(self.traj_probs[vid])
        for d in range(1, self.d_max + 1):
            out[f"Omega_{d}"] = sorted(self.omega_support[d]) + [None]
        for comp in REWARD_COMPONENTS:
            out[f"R_{comp}"] = "gaussian-or-absent"
            out[f"Rb_{comp}"] = [0, 1]
        for kind in OUTCOME_KINDS:
            out[f"O_{kind}"] = [0, 1]
        return out

    def reward_stats(self, omega: tuple[str, ...], comp: str):
        """(mean, unbiased variance, sample count, absence probability)."""
        node = self.nodes[omega]
        vals = node.values[comp]
        return (node.mean(comp), node.variance(comp), len(vals), 1.0 - node.presence(comp))


def build_bn(trace_log, goal_probs, traj_probs, d_max,
             traj_macros=None, labels=None) -> BnModel:
    """Construct the network from a trace log and goal-recognition factors."""
    return BnModel(trace_log, goal_probs, traj_probs, d_max,
                   traj_macros=traj_macros, labels=labels)


def _canonical_value(var: str, value):
    if var.startswith("S_") and isinstance(value, (list, tuple)):
        return tuple(value)
    return value


def _filter_rows(model: BnModel, evidence: dict) -> tuple[tuple[Row, ...], float]:
    """The rows matching every evidence value, in row order, and their weight.

    The model never changes after build, so both are found once per distinct
    evidence and kept on the model.
    """
    evidence = {var: _canonical_value(var, val) for var, val in evidence.items()}
    key = frozenset(evidence.items())
    found = model._filtered.get(key)
    if found is None:
        known = model.rows[0].values
        for var in evidence:
            if var not in known:
                raise KeyError(f"unknown variable {var!r}; valid: {sorted(known)}")
        rows = tuple(row for row in model.rows
                     if all(row.values[var] == val for var, val in evidence.items()))
        found = model._filtered[key] = (rows, sum(r.weight for r in rows))
    return found


def _weighted_rows(model: BnModel, evidence: dict | None) -> tuple[tuple[Row, ...], float]:
    """`_filter_rows`, raising UnexploredCounterfactualError on zero weight."""
    rows, total = _filter_rows(model, evidence or {})
    if total <= 0.0:
        raise UnexploredCounterfactualError(f"zero-probability evidence: {evidence}")
    return rows, total


def query(model: BnModel, targets: list[str], evidence: dict | None = None) -> dict:
    """Exact conditional p(targets | evidence) over the realized support.

    Returns {target value tuple: probability}, normalized. Raises
    UnexploredCounterfactualError when the evidence has zero probability.
    """
    rows, total = _weighted_rows(model, evidence or {})
    known = model.rows[0].values
    for var in targets:
        if var not in known:
            raise KeyError(f"unknown variable {var!r}; valid: {sorted(known)}")
    dist: dict = {}
    for row in rows:
        key = tuple(row.values[v] for v in targets)
        dist[key] = dist.get(key, 0.0) + row.weight
    return {k: v / total for k, v in dist.items()}


def outcome_distribution(model: BnModel, evidence: dict | None = None) -> dict:
    """Categorical distribution over outcome kinds (Rb marginalized out)."""
    rows, total = _weighted_rows(model, evidence)
    dist = {k: 0.0 for k in OUTCOME_KINDS}
    for row in rows:
        dist[row.kind] += row.weight
    return {k: v / total for k, v in dist.items()}


def expected_reward(model: BnModel, component: str, evidence: dict | None = None
                    ) -> tuple[float | None, float]:
    """Absence-excluded conditional mean of a reward component.

    Returns (mean, support weight); mean is None when the component is absent
    in every trace consistent with the evidence.
    """
    rows, total = _weighted_rows(model, evidence)
    num = 0.0
    den = 0.0
    indicator = f"Rb_{component}"
    for row in rows:
        if row.values[indicator] == 1:
            mu = model.nodes[row.omega].mean(component)
            if mu is None:
                continue
            num += row.weight * mu
            den += row.weight
    if den <= 0.0:
        return None, 0.0
    return num / den, den / total


def collision_collider(model: BnModel, evidence: dict | None = None) -> str | None:
    """Most likely colliding vehicle under the evidence, if any."""
    rows, _ = _filter_rows(model, evidence or {})
    weights: dict = {}
    for row in rows:
        if row.kind != "collision":
            continue
        node = model.nodes[row.omega]
        n_coll = sum(node.colliders.values())
        if n_coll == 0:
            continue
        for vid, cnt in node.colliders.items():
            weights[vid] = weights.get(vid, 0.0) + row.weight * cnt / n_coll
    if not weights:
        return None
    return sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def model_to_dict(model: BnModel) -> dict:
    """JSON-exportable view: supports, non-zero CPD entries, provenance."""
    action_cpds = []
    for (prefix, akey), counts in sorted(model.sel.items(), key=lambda kv: repr(kv[0])):
        reach = model.reach[(prefix, akey)]
        term = (reach - sum(counts.values())) / reach
        probs = {a: c / reach for a, c in sorted(counts.items())}
        if term > 0:
            probs["<none>"] = term
        action_cpds.append({
            "prefix": list(prefix),
            "sample": [list(part) for part in akey],
            "probabilities": probs,
            "supporting_traces": sorted(set(model.support[(prefix, akey)])),
        })
    reward_stats = []
    for omega, node in sorted(model.nodes.items()):
        for comp in REWARD_COMPONENTS:
            mean, var, count, p_absent = model.reward_stats(omega, comp)
            reward_stats.append({
                "trace": list(omega),
                "component": comp,
                "mean": mean,
                "variance": var,
                "count": count,
                "p_absent": p_absent,
            })
    return {
        "trace_count": len(model.trace_log),
        "max_depth": model.d_max,
        "variables": {k: (v if v == "gaussian-or-absent" else [list(x) if isinstance(x, tuple) else x for x in v])
                      for k, v in model.variables().items()},
        "goal_factors": {v: {str(g): p for g, p in gp.items()}
                         for v, gp in model.goal_probs.items()},
        "trajectory_factors": {v: {f"{g}/{s}": p for (g, s), p in tp.items()}
                               for v, tp in model.traj_probs.items()},
        "action_cpds": action_cpds,
        "reward_stats": reward_stats,
        "labels": model.labels,
    }
