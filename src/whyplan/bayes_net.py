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
their total weight, the first time that evidence is asked. The build counts
from a `TraceTable`, the same table for a planning run and a reloaded run
directory. It holds each (sample, trace) signature once, with the fields
the memoised search fixes for it, so CPD counts, node totals, outcomes and
colliders are signature fields times the signature's record count from the
`record` column; only each node's reward values are gathered per record, in
record order. The record indices behind each CPD entry, which only the JSON
export shows, are found when it asks.
"""

import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import EmptyTraceLogError, UnexploredCounterfactualError
from .mcts import OUTCOME_KINDS, OUTCOME_REQUIRED, REWARD_COMPONENTS, TraceTable

AssignmentKey = tuple  # sorted tuple of (vehicle id, goal index, trajectory index)
_is_value = partial(operator.is_not, None)


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
    """Factorized joint over one trace table; immutable after build."""

    def __init__(self, table: TraceTable, goal_probs, traj_probs, d_max,
                 traj_macros=None, labels=None):
        if not len(table):
            raise EmptyTraceLogError("empty trace log")
        self.table = table
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

    def _visits(self, omega: tuple) -> list[tuple]:
        """(prefix, selected action) per CPD key a trace reaches, in depth
        order. A trace shorter than max depth also reaches the node at its
        end, where it selected nothing: that visit's action is None."""
        visits = [(omega[:d], action) for d, action in enumerate(omega)]
        if len(omega) < self.d_max:
            visits.append((omega, None))
        return visits

    def _akey(self, row: tuple) -> AssignmentKey:
        vehicles = self.table.vehicles
        return tuple(zip(vehicles, row[0::2], row[1::2]))  # vehicles are sorted

    def _build_counts(self) -> None:
        # Records that share a (sample, trace) signature walk the same CPD
        # keys and hold the same outcome and collider, so each signature
        # walks them once and adds its record count. Counting the `record`
        # column gives the signatures in first-seen order, which fixes row
        # order and with it every float sum.
        table = self.table
        sequences = table.macro_sequences
        visits = [self._visits(omega) for omega in sequences]
        stats = [_NodeStats() for _ in sequences]
        for j, n in Counter(table.record).items():
            m = table.macros[j]
            akey = self._akey(table.assignment[j])
            self._signatures[(akey, sequences[m])] = n
            for prefix, action in visits[m]:
                key = (prefix, akey)
                self.reach[key] = self.reach.get(key, 0) + n
                if action is not None:
                    counts = self.sel.setdefault(key, {})
                    counts[action] = counts.get(action, 0) + n
            node = stats[m]
            node.total += n
            kind = table.outcome[j]
            node.outcomes[kind] = node.outcomes.get(kind, 0) + n
            collider = table.collider[j]
            if collider is not None:
                node.colliders[collider] = node.colliders.get(collider, 0) + n
        # A record holds exactly the components its outcome requires, so a
        # node gathers the components of its outcomes from its records'
        # signatures, in record order: the same floats, summed in the same
        # order, as one value per record.
        members: list = [[] for _ in sequences]  # macro index -> signature per record
        for j in table.record:
            members[table.macros[j]].append(j)
        for omega, node, signatures in zip(sequences, stats, members):
            for comp in {c for kind in node.outcomes for c in OUTCOME_REQUIRED[kind]}:
                node.values[comp] = list(filter(_is_value, map(
                    table.components[comp].__getitem__, signatures)))
            # The same floats as np.mean, without its per-call overhead.
            node.means = {c: float(np.add.reduce(np.array(v))) / len(v) if v else None
                          for c, v in node.values.items()}
            self.nodes[omega] = node

    @cached_property
    def support(self) -> dict:
        """(prefix, akey) -> indices of the records that reach that CPD key.
        Only the JSON export reads it, so it is found on first use."""
        members: dict = {}  # signature index -> [record index], first-seen order
        for i, j in enumerate(self.table.record):
            members.setdefault(j, []).append(i)
        support: dict = {}
        for j, indices in members.items():
            akey = self._akey(self.table.assignment[j])
            for prefix, _ in self._visits(self.table.macro_sequences[self.table.macros[j]]):
                support.setdefault((prefix, akey), []).extend(indices)
        return support

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


def build_bn(trace, goal_probs, traj_probs, d_max,
             traj_macros=None, labels=None) -> BnModel:
    """Construct the network from a trace log and goal-recognition factors.

    `trace` is a `TraceTable`, or a list of `TraceRecord`s, tabled first.
    """
    if not isinstance(trace, TraceTable):
        trace = TraceTable.from_records(trace)
    return BnModel(trace, goal_probs, traj_probs, d_max,
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
        "trace_count": len(model.table),
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
