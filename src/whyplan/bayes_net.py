"""Bayesian network over a completed planning run.

The network factorizes p(G, S, Omega, R, O): per-vehicle goal and trajectory
factors come straight from goal recognition, macro-action CPDs are selection
count ratios keyed by (action prefix, joint non-ego sample), reward
components are per-trace-node Gaussians with an absence probability, and the
existence/outcome layers are deterministic. Inference is exact enumeration
over the support realized in the trace log; conditionals are ratios of sums,
so queries never touch never-realized presence patterns.

With empirical CPDs the product of a trace's CPD entries telescopes, so the
weight of a (sample s, trace omega) signature is p(s) n(s, omega) / n(s):
the records of s that ended on omega, over all records of s. The build
counts from a `TraceTable`, the same table for a planning run and a reloaded
run directory, which holds each signature once; it counts records per
signature (the `record` column), per sample and per trace node. Everything
else is found the first time it is read and kept, as the model never
changes (see `BnModel`).
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import EmptyTraceLogError, UnexploredCounterfactualError
from .mcts import OUTCOME_KINDS, OUTCOME_REQUIRED, REWARD_COMPONENTS, TraceTable

AssignmentKey = tuple  # sorted tuple of (vehicle id, goal index, trajectory index)


@dataclass
class _NodeStats:
    """Per reached trace node: records, outcome kinds, colliders, and where
    its records start in `BnModel._by_node`."""

    total: int = 0
    outcomes: dict = field(default_factory=dict)   # kind -> count
    colliders: dict = field(default_factory=dict)  # vehicle id -> count
    start: int = 0


class Row(NamedTuple):
    """One cell of the realized joint support: a (sample, trace) signature
    with one outcome kind of its node, and the cell's probability."""

    akey: AssignmentKey
    omega: tuple[str, ...]
    kind: str
    weight: float


class BnModel:
    """Factorized joint over one trace table; immutable after build.

    The build counts `trace_weights`, `nodes` and `omega_support`. `sel`,
    `reach`, `support`, `rows`, each (node, component)'s reward samples and
    mean, each evidence's rows and `memo` results are found on first read.
    """

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

        # Counting the `record` column gives the signatures in first-seen
        # order, which fixes the order of trace weights and rows and with it
        # every float sum.
        sequences = table.macro_sequences
        counted = Counter(table.record)  # signature index -> n(s, omega)
        stats = [_NodeStats() for _ in sequences]
        per_sample: dict = {}  # assignment row -> n(s)
        for j, n in counted.items():
            row = table.assignment[j]
            per_sample[row] = per_sample.get(row, 0) + n
            node = stats[table.macros[j]]
            node.total += n
            kind = table.outcome[j]
            node.outcomes[kind] = node.outcomes.get(kind, 0) + n
            collider = table.collider[j]
            if collider is not None:
                node.colliders[collider] = node.colliders.get(collider, 0) + n
        start = 0
        for node in stats:  # `_by_node` groups the records by node, in this order
            node.start = start
            start += node.total
        self.nodes: dict[tuple, _NodeStats] = dict(zip(sequences, stats))
        akeys = {row: self._akey(row) for row in per_sample}
        p = {row: self.assignment_probability(akey) for row, akey in akeys.items()}
        self._signatures: dict = {}  # (akey, omega) -> n(s, omega)
        self.trace_weights: dict = {}  # (akey, omega) -> p(s) n(s, omega) / n(s)
        for j, n in counted.items():
            row = table.assignment[j]
            signature = (akeys[row], sequences[table.macros[j]])
            self._signatures[signature] = n
            self.trace_weights[signature] = p[row] * (n / per_sample[row])
        self.omega_support: dict[int, set] = {
            d: {omega[d - 1] for omega in sequences if len(omega) >= d}
            for d in range(1, self.d_max + 1)}
        self._reward: dict = {}    # (omega, component) -> (samples, mean), see reward_samples
        self._filtered: dict = {}  # canonical evidence -> (rows, weight), see _filter_rows
        self._memo: dict = {}      # function -> its result, see memo

    # -- aggregates, each found on first read ---------------------------------

    def _prefixes(self, omega: tuple) -> list[tuple]:
        """The prefix of each CPD key a trace reaches, in depth order: one
        per selection, and the whole trace when it is shorter than max depth,
        as it then selects nothing at the node where it ends."""
        return [omega[:d] for d in range(len(omega) + (len(omega) < self.d_max))]

    def _akey(self, row: tuple) -> AssignmentKey:
        vehicles = self.table.vehicles
        return tuple(zip(vehicles, row[0::2], row[1::2]))  # vehicles are sorted

    # Records that share a signature reach the same CPD keys, so `sel` and
    # `reach` walk each signature once and add its record count.
    @cached_property
    def sel(self) -> dict:
        """(prefix, akey) -> {action: count}: the selections behind each CPD."""
        sel: dict = {}
        for (akey, omega), n in self._signatures.items():
            for d, action in enumerate(omega):
                counts = sel.setdefault((omega[:d], akey), {})
                counts[action] = counts.get(action, 0) + n
        return sel

    @cached_property
    def reach(self) -> dict:
        """(prefix, akey) -> the number of records that reach that CPD key."""
        reach: dict = {}
        for (akey, omega), n in self._signatures.items():
            for prefix in self._prefixes(omega):
                reach[(prefix, akey)] = reach.get((prefix, akey), 0) + n
        return reach

    @cached_property
    def support(self) -> dict:
        """(prefix, akey) -> indices of the records that reach that CPD key.
        Only the JSON export reads it."""
        members: dict = {}  # signature index -> [record index], first-seen order
        for i, j in enumerate(self.table.record):
            members.setdefault(j, []).append(i)
        support: dict = {}
        for j, indices in members.items():
            akey = self._akey(self.table.assignment[j])
            for prefix in self._prefixes(self.table.macro_sequences[self.table.macros[j]]):
                support.setdefault((prefix, akey), []).extend(indices)
        return support

    def assignment_probability(self, akey: AssignmentKey) -> float:
        p = 1.0
        for vid, g, s in akey:
            p *= self.goal_probs[vid].get(g, 0.0)
            p *= self.traj_probs[vid].get((g, s), 0.0)
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

    @cached_property
    def rows(self) -> list[Row]:
        """The realized support: a row per (signature, outcome kind at its node)."""
        cells = {omega: [(kind, self.pattern_probability(omega, kind))
                         for kind in sorted(node.outcomes)]
                 for omega, node in self.nodes.items()}
        return [Row(akey, omega, kind, weight * p)
                for (akey, omega), weight in self.trace_weights.items() for kind, p in cells[omega]]

    @cached_property
    def _by_node(self) -> np.ndarray:
        """The signature of every record, grouped by trace node (in `nodes`
        order) and in record order within a node."""
        record = np.array(self.table.record)
        return record[np.argsort(np.array(self.table.macros)[record], kind="stable")]

    def _gather(self, omega: tuple[str, ...], comp: str) -> tuple[np.ndarray, float | None]:
        # A record holds exactly the components its outcome requires.
        node = self.nodes[omega]
        present = [comp in OUTCOME_REQUIRED[kind] for kind in node.outcomes]
        if not any(present):
            return np.empty(0), None
        signatures = self._by_node[node.start:node.start + node.total]
        values = np.array(self.table.components[comp], dtype=float)[signatures]
        if not all(present):  # the absent values read as NaN
            values = values[~np.isnan(values)]
        # The same floats as np.mean, without its per-call overhead.
        return values, float(np.add.reduce(values)) / len(values)

    def reward_samples(self, omega: tuple[str, ...], comp: str) -> tuple[np.ndarray, float | None]:
        """A component's values at a trace node, in record order, and their
        mean (None when the component is absent there)."""
        found = self._reward.get((omega, comp))
        if found is None:
            found = self._reward[(omega, comp)] = self._gather(omega, comp)
        return found

    def memo(self, fn):
        """fn(model), computed on the first call and kept: the model never changes."""
        found = self._memo.get(fn)
        if found is None:
            found = self._memo[fn] = fn(self)
        return found

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

    @cached_property
    def _readers(self) -> dict:
        """Variable name -> the function that reads its value off a row."""
        readers = {}
        for k, vid in enumerate(self.table.vehicles):  # the order of each akey
            readers[f"G_{vid}"] = lambda row, k=k: row.akey[k][1]
            readers[f"S_{vid}"] = lambda row, k=k: row.akey[k][1:]
        for d in range(1, self.d_max + 1):
            readers[f"Omega_{d}"] = (lambda row, d=d:
                                     row.omega[d - 1] if len(row.omega) >= d else None)
        for comp in REWARD_COMPONENTS:
            readers[f"Rb_{comp}"] = lambda row, comp=comp: int(comp in OUTCOME_REQUIRED[row.kind])
        for kind in OUTCOME_KINDS:
            readers[f"O_{kind}"] = lambda row, kind=kind: int(row.kind == kind)
        return readers

    def reward_stats(self, omega: tuple[str, ...], comp: str):
        """(mean, unbiased variance, sample count, absence probability)."""
        values, mean = self.reward_samples(omega, comp)
        count = len(values)
        variance = (float(sum((v - mean) ** 2 for v in values.tolist()) / (count - 1))
                    if count >= 2 else 0.0)
        return mean, variance, count, 1.0 - count / self.nodes[omega].total


def build_bn(table: TraceTable, goal_probs, traj_probs, d_max,
             traj_macros=None, labels=None) -> BnModel:
    """Construct the network from a trace table and goal-recognition factors:
    the table `run_mcts` filled, or the one `load_run` read back."""
    return BnModel(table, goal_probs, traj_probs, d_max,
                   traj_macros=traj_macros, labels=labels)


def _canonical_value(var: str, value):
    if var.startswith("S_") and isinstance(value, (list, tuple)):
        return tuple(value)
    return value


def _reader(model: BnModel, var: str):
    if var not in model._readers:
        raise KeyError(f"unknown variable {var!r}; valid: {sorted(model._readers)}")
    return model._readers[var]


def _filter_rows(model: BnModel, evidence: dict) -> tuple[tuple[Row, ...], float]:
    """The rows matching every evidence value, in row order, and their weight.

    The model never changes after build, so both are found once per distinct
    evidence and kept on the model.
    """
    evidence = {var: _canonical_value(var, val) for var, val in evidence.items()}
    key = frozenset(evidence.items())
    found = model._filtered.get(key)
    if found is None:
        rows = model.rows
        for var, val in evidence.items():
            read = _reader(model, var)
            rows = [row for row in rows if read(row) == val]
        rows = tuple(rows)
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
    readers = [_reader(model, var) for var in targets]
    dist: dict = {}
    for row in rows:
        key = tuple(read(row) for read in readers)
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
    # A row whose outcome requires the component has records holding it.
    rows = [row for row in rows if component in OUTCOME_REQUIRED[row.kind]]
    means = {omega: model.reward_samples(omega, component)[1]
             for omega in dict.fromkeys(row.omega for row in rows)}
    num = 0.0
    den = 0.0
    for row in rows:
        num += row.weight * means[row.omega]
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
    for omega in sorted(model.nodes):
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
