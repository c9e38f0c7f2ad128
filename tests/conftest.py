"""Shared fixtures: tiny layouts, synthetic trace logs, and an independent
brute-force oracle for checking network queries.

The oracle recomputes everything from the trace records, expanded from the
table, by plain counting and multiplication; it never touches the model's CPD
structures.
"""

import json
import zlib
from typing import NamedTuple

import numpy as np
import pytest

from whyplan.mcts import OUTCOME_REQUIRED, REWARD_COMPONENTS, TraceTable
from whyplan.scenario import scenario_from_dict

# --- scenario builders ---------------------------------------------------------


def spec_of(scenario, vehicle_id):
    """The VehicleSpec of `vehicle_id` in `scenario`."""
    return next(v for v in scenario.vehicles if v.id == vehicle_id)


def two_lane_road_dict(length=120.0, junction_x=None, exit_len=40.0):
    """Straight two-lane eastbound road, optionally with a right slip exit."""
    lanes = [
        {"id": "right", "midline": [[0.0, 0.0], [length, 0.0]], "width_m": 3.5,
         "left_neighbor": "left", "successors": []},
        {"id": "left", "midline": [[0.0, 3.5], [length, 3.5]], "width_m": 3.5,
         "right_neighbor": "right", "successors": []},
    ]
    junctions = []
    if junction_x is not None:
        lanes[0]["midline"] = [[0.0, 0.0], [junction_x, 0.0]]
        lanes.append({"id": "right_far", "midline": [[junction_x, 0.0], [length, 0.0]],
                      "width_m": 3.5, "left_neighbor": None, "successors": []})
        lanes.append({"id": "exit", "width_m": 3.5, "successors": [],
                      "midline": [[junction_x + 4.0, -4.0], [junction_x + 4.0, -4.0 - exit_len]]})
        junctions.append({"id": "j1", "connections": [
            {"from": "right", "to": "right_far", "direction": "straight", "has_priority": True},
            {"from": "right", "to": "exit", "direction": "right", "has_priority": True},
        ]})
    return {"lanes": lanes, "junctions": junctions}


def mini_scenario_dict():
    """Small, fast version of the cut-in scenario for unit and CLI tests."""
    layout = two_lane_road_dict(length=150.0, junction_x=90.0)
    return {
        "name": "mini",
        "timestep_s": 0.1,
        "horizon_steps": 300,
        "observation_steps": 10,
        "rationality_beta": 4.0,
        "target_speed_mps": 10.0,
        "planner": {"exploration": 0.5},
        "layout": layout,
        "ego": {"id": "ego", "goal": {"lane": "right_far", "interval": [40.0, 55.0],
                                      "label": "the end of the road",
                                      "lateral_tolerance_m": 5.0}},
        "vehicles": [
            {"id": "ego", "label": "ego", "lane": "right", "nominal_s": 8.0,
             "spawn_range_m": 10.0, "speed_range_mps": [5.0, 10.0], "goals": []},
            {"id": "v1", "label": "vehicle 1", "lane": "left", "nominal_s": 30.0,
             "spawn_range_m": 10.0, "speed_range_mps": [5.0, 10.0],
             "goals": [
                 {"lane": "exit", "interval": [0.0, 10.0], "label": "the right exit"},
                 {"lane": "left", "interval": [140.0, 150.0], "label": "the end of the road"},
             ]},
        ],
    }


@pytest.fixture
def mini_scenario():
    return scenario_from_dict(mini_scenario_dict())


@pytest.fixture
def mini_scenario_path(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(mini_scenario_dict()))
    return str(path)


# --- synthetic trace logs -------------------------------------------------------


class Record(NamedTuple):
    """One iteration of a synthetic trace log, as tests write and read it."""

    akey: tuple  # sorted (vehicle id, goal index, trajectory index)
    macros: tuple
    outcome: str
    components: dict
    collider: str | None = None
    reward: float = 0.0
    steps: int = 10


def make_record(assignment, macros, outcome, values=None, collider=None, reward=0.0):
    comps = {c: None for c in REWARD_COMPONENTS}
    if outcome == "done":
        base = values or {}
        comps.update({"time": base.get("time", 10.0), "jerk": base.get("jerk", 0.1),
                      "angular_acceleration": base.get("angular_acceleration", 0.05),
                      "curvature": base.get("curvature", 0.01)})
    elif outcome == "collision":
        comps["collision"] = 1.0
    elif outcome == "termination":
        comps["termination"] = 1.0
    akey = tuple(sorted((vid, g, s) for vid, (g, s) in assignment.items()))
    return Record(akey, tuple(macros), outcome, comps, collider, reward)


def trace_table(records) -> TraceTable:
    """The `TraceTable` of `records`, which all sample the same vehicles: one
    signature per distinct (sample, macros) pair, in first-seen order, as
    `run_mcts` fills it. Records of one signature must agree."""
    vehicles = tuple(vid for vid, _, _ in records[0].akey) if records else ()
    sequences: dict = {}  # macro tuple -> its index, first-seen
    signatures: dict = {}  # (akey, macros) -> (signature index, record)
    for rec in records:
        _, first = signatures.setdefault((rec.akey, rec.macros), (len(signatures), rec))
        assert rec == first, (rec, first)
        sequences.setdefault(rec.macros, len(sequences))
    firsts = [rec for _, rec in signatures.values()]
    return TraceTable(
        vehicles=vehicles, macro_sequences=list(sequences),
        assignment=[tuple(x for _, g, s in rec.akey for x in (g, s)) for rec in firsts],
        macros=[sequences[rec.macros] for rec in firsts],
        outcome=[rec.outcome for rec in firsts], collider=[rec.collider for rec in firsts],
        reward=[rec.reward for rec in firsts], steps=[rec.steps for rec in firsts],
        components={c: [rec.components[c] for rec in firsts] for c in REWARD_COMPONENTS},
        record=[signatures[(rec.akey, rec.macros)][0] for rec in records])


def records_of(table: TraceTable) -> list[Record]:
    """Record i of `table` is its signature `record[i]`, expanded."""
    signatures = [
        Record(tuple(zip(table.vehicles, row[::2], row[1::2])),
               table.macro_sequences[table.macros[j]], table.outcome[j],
               {c: column[j] for c, column in table.components.items()},
               table.collider[j], table.reward[j], table.steps[j])
        for j, row in enumerate(table.assignment)]
    return [signatures[j] for j in table.record]


def random_trace_log(seed, d_max=3, n_vehicles=2, n_goals=2, iterations=20):
    """Synthetic trace table from a deterministic random environment.

    The environment fixes, per (joint sample, action prefix), whether the
    simulation terminates (and how) or which actions are available next, so
    repeated visits behave like the real deterministic simulator.
    """
    rng = np.random.default_rng(seed)
    actions = ["A", "B", "C"]
    vehicles = [f"v{i}" for i in range(1, rng.integers(1, n_vehicles + 1) + 1)]
    goal_probs = {}
    traj_probs = {}
    for vid in vehicles:
        k = int(rng.integers(1, n_goals + 1))
        raw = rng.uniform(0.2, 1.0, size=k)
        probs = raw / raw.sum()
        goal_probs[vid] = {g: float(p) for g, p in enumerate(probs)}
        traj_probs[vid] = {}
        for g in range(k):
            m = int(rng.integers(1, 3))
            raw_t = rng.uniform(0.2, 1.0, size=m)
            for s, p in enumerate(raw_t / raw_t.sum()):
                traj_probs[vid][(g, s)] = float(p)

    env: dict = {}

    def env_response(akey, prefix):
        key = (akey, prefix)
        if key not in env:
            # crc32, not hash(): string hashes change with PYTHONHASHSEED.
            sub = np.random.default_rng(zlib.crc32(repr(key).encode()))
            depth = len(prefix)
            if depth > 0 and (depth >= d_max or sub.random() < 0.35 + 0.2 * depth):
                outcome = ["done", "collision", "termination"][int(sub.integers(0, 3))]
                values = {"time": float(sub.uniform(2, 20)), "jerk": float(sub.uniform(0, 1)),
                          "angular_acceleration": float(sub.uniform(0, 1)),
                          "curvature": float(sub.uniform(0, 0.2))}
                env[key] = ("terminal", outcome, values)
            else:
                avail = [a for a in actions if sub.random() < 0.8] or ["A"]
                env[key] = ("continue", avail, None)
        return env[key]

    records = []
    for _ in range(iterations):
        assignment = {}
        for vid in vehicles:
            gs = list(traj_probs[vid])
            probs = np.array([goal_probs[vid][g] * traj_probs[vid][(g, s)] for g, s in gs])
            pick = int(rng.choice(len(gs), p=probs / probs.sum()))
            assignment[vid] = gs[pick]
        akey = tuple(sorted((vid, g, s) for vid, (g, s) in assignment.items()))
        prefix: tuple = ()
        outcome = None
        values = None
        while True:
            if len(prefix) >= d_max:
                kind, outcome, values = env_response(akey, prefix + ("<final>",))
                break
            kind, payload, maybe_values = env_response(akey, prefix)
            if kind == "terminal":
                outcome, values = payload, maybe_values
                break
            prefix = prefix + (str(rng.choice(payload)),)
            # Selecting an action may itself end the simulation.
            kind2, payload2, values2 = env_response(akey, prefix)
            if kind2 == "terminal":
                outcome, values = payload2, values2
                break
        records.append(make_record(assignment, prefix, outcome, values=values))
    return trace_table(records), goal_probs, traj_probs, d_max


def format_2_trace_log(log: dict) -> dict:
    """A format-3 `tracelog.json` object in the format-2 layout, which holds
    every signature column once per record: record i is entry i of each."""
    per_record = ("assignment", "macros", "outcome", "collider", "reward", "steps",
                  *REWARD_COMPONENTS)
    return {"vehicles": log["vehicles"], "macro_sequences": log["macro_sequences"],
            **{name: [log[name][j] for j in log["record"]] for name in per_record}}


# --- independent oracle ---------------------------------------------------------


def cpd_entry(model, prefix, akey, action):
    """CPD entry p(Omega_d = action | prefix, sample) from `model.sel` and
    `model.reach`; None is no selection. A key no record reaches selects
    nothing."""
    key = (prefix, akey)
    if key not in model.reach:
        return 1.0 if action is None else 0.0
    reach = model.reach[key]
    sel = model.sel.get(key, {})
    if action is None:
        return (reach - sum(sel.values())) / reach
    return sel.get(action, 0) / reach


def cpd_product(model, akey, omega):
    """p(Omega = omega, padded with no-selection | sample): the product of
    the CPD entries along the trace."""
    p = 1.0
    for d, action in enumerate(omega):
        p *= cpd_entry(model, omega[:d], akey, action)
    if len(omega) < model.d_max:
        p *= cpd_entry(model, omega, akey, None)
    return p



def oracle_rows(table, goal_probs, traj_probs, d_max):
    """Materialize the realized joint table by direct counting."""
    records = records_of(table)
    reach: dict = {}
    sel: dict = {}
    for rec in records:
        akey = rec.akey
        prefix = ()
        for a in rec.macros:
            reach[(prefix, akey)] = reach.get((prefix, akey), 0) + 1
            sel.setdefault((prefix, akey), {})
            sel[(prefix, akey)][a] = sel[(prefix, akey)].get(a, 0) + 1
            prefix = prefix + (a,)
        if len(rec.macros) < d_max:
            reach[(prefix, akey)] = reach.get((prefix, akey), 0) + 1

    node_total: dict = {}
    node_kinds: dict = {}
    node_values: dict = {}
    for rec in records:
        node_total[rec.macros] = node_total.get(rec.macros, 0) + 1
        node_kinds.setdefault(rec.macros, {})
        node_kinds[rec.macros][rec.outcome] = node_kinds[rec.macros].get(rec.outcome, 0) + 1
        for comp, val in rec.components.items():
            if val is not None:
                node_values.setdefault((rec.macros, comp), []).append(val)

    def trace_prob(akey, omega):
        p = 1.0
        prefix = ()
        for a in omega:
            key = (prefix, akey)
            if key not in reach:
                return 0.0
            p *= sel.get(key, {}).get(a, 0) / reach[key]
            prefix = prefix + (a,)
        if len(omega) < d_max:
            key = (prefix, akey)
            if key not in reach:
                return 0.0
            chosen = sum(sel.get(key, {}).values())
            p *= (reach[key] - chosen) / reach[key]
        return p

    signatures = sorted({(rec.akey, rec.macros) for rec in records})
    rows = []
    for akey, omega in signatures:
        base = 1.0
        for vid, g, s in akey:
            base *= goal_probs[vid][g] * traj_probs[vid][(g, s)]
        base *= trace_prob(akey, omega)
        for kind in sorted(node_kinds[omega]):
            w = base * node_kinds[omega][kind] / node_total[omega]
            required = set(OUTCOME_REQUIRED[kind])
            values = {}
            for vid, g, s in akey:
                values[f"G_{vid}"] = g
                values[f"S_{vid}"] = (g, s)
            for d in range(1, d_max + 1):
                values[f"Omega_{d}"] = omega[d - 1] if d <= len(omega) else None
            for comp in REWARD_COMPONENTS:
                values[f"Rb_{comp}"] = 1 if comp in required else 0
            for k in ("done", "collision", "termination", "dead"):
                values[f"O_{k}"] = 1 if k == kind else 0
            mus = {comp: (sum(vals) / len(vals))
                   for (om, comp), vals in node_values.items() if om == omega}
            rows.append({"weight": w, "values": values, "kind": kind, "means": mus})
    return rows


def oracle_query(rows, targets, evidence):
    keep = [r for r in rows
            if all(r["values"][k] == v for k, v in evidence.items())]
    total = sum(r["weight"] for r in keep)
    if total <= 0:
        return None
    dist = {}
    for r in keep:
        key = tuple(r["values"][t] for t in targets)
        dist[key] = dist.get(key, 0.0) + r["weight"]
    return {k: v / total for k, v in dist.items()}


def oracle_expected_reward(rows, component, evidence):
    keep = [r for r in rows
            if all(r["values"][k] == v for k, v in evidence.items())]
    num = den = 0.0
    for r in keep:
        if r["values"][f"Rb_{component}"] == 1 and component in r["means"]:
            num += r["weight"] * r["means"][component]
            den += r["weight"]
    return None if den <= 0 else num / den
