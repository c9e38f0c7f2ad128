import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import whyplan.bayes_net as bayes_net_mod
from whyplan.bayes_net import (BnModel, build_bn, expected_reward, model_to_dict,
                               outcome_distribution, query)
from whyplan.causal import (Cause, _cause_macros, _omega_distributions, agent_influences,
                            trace_divergence)
from whyplan.cli import parse_query
from whyplan.errors import EmptyTraceLogError, UnexploredCounterfactualError
from whyplan.mcts import OUTCOME_KINDS, OUTCOME_REQUIRED, REWARD_COMPONENTS
from whyplan.pipeline import explain_query, planner_config, run_pipeline
from whyplan.scenario import load_scenario

from conftest import (REPO_ROOT, Record, cpd_entry, cpd_product, make_record,
                      oracle_expected_reward, oracle_query, oracle_rows, random_trace_log,
                      records_of, trace_table)


def single_vehicle_probs(goal_probs, options):
    return {"v1": goal_probs}, {"v1": options}


def test_random_trace_log_is_independent_of_hash_seed():
    # Tests built on random_trace_log must see the same log in every process.
    src = os.path.dirname(os.path.dirname(bayes_net_mod.__file__))
    code = "from conftest import random_trace_log; print(repr(random_trace_log(0)))"
    logs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}
        logs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert logs[0] == logs[1] and "TraceTable" in logs[0]


def test_empty_trace_log_is_rejected():
    with pytest.raises(EmptyTraceLogError):
        build_bn(trace_table([]), {"v1": {0: 1.0}}, {"v1": {(0, 0): 1.0}}, 2)


def test_action_cpd_is_selection_count_over_visits():
    goal_probs, traj_probs = single_vehicle_probs({0: 1.0}, {(0, 0): 1.0})
    records = []
    for i in range(60):
        macros = ["A"] if i < 30 else ["B"]
        records.append(make_record({"v1": (0, 0)}, macros, "done"))
    model = build_bn(trace_table(records), goal_probs, traj_probs, 2)
    akey = (("v1", 0, 0),)
    assert cpd_entry(model, (), akey, "A") == pytest.approx(0.5, abs=1e-12)
    assert cpd_entry(model, (), akey, "B") == pytest.approx(0.5, abs=1e-12)


# Two joint samples reach node ("A",) with different times. One sample's
# records all hold one result, as a memoised search logs them.
TWO_SAMPLES_AT_A = [make_record({"v1": (0, 0)}, ["A"], "done", values={"time": 4.0}),
                    make_record({"v1": (0, 1)}, ["A"], "done", values={"time": 6.0})]


def test_reward_stats_use_unbiased_variance():
    goal_probs, traj_probs = single_vehicle_probs({0: 1.0}, {(0, 0): 0.5, (0, 1): 0.5})
    records = TWO_SAMPLES_AT_A
    model = build_bn(trace_table(records), goal_probs, traj_probs, 1)
    mean, var, count, p_absent = model.reward_stats(("A",), "time")
    assert mean == pytest.approx(5.0)
    assert var == pytest.approx(2.0)  # (n-1) estimator
    assert count == 2
    assert p_absent == 0.0
    # A single sample yields zero variance by convention.
    solo = build_bn(trace_table(records[:1]), goal_probs, traj_probs, 1)
    assert solo.reward_stats(("A",), "time")[1] == 0.0


def test_unvisited_conditioning_key_defaults_to_no_selection():
    goal_probs, traj_probs = single_vehicle_probs({0: 1.0}, {(0, 0): 1.0})
    model = build_bn(trace_table([make_record({"v1": (0, 0)}, ["A"], "done")]),
                     goal_probs, traj_probs, 2)
    ghost = (("v1", 9, 9),)
    assert (("A",), ghost) not in model.reach and (("A",), ghost) not in model.sel
    assert cpd_entry(model, ("A",), ghost, None) == 1.0
    assert cpd_entry(model, ("A",), ghost, "B") == 0.0


TWO_TRACES = [make_record({"v1": (0, 0)}, ["Continue"], "done"),
              make_record({"v1": (1, 0)}, ["Continue"], "collision", collider="v1")]


def two_trace_model():
    """Equal-weight split: one trace ends done, the other in a collision."""
    goal_probs = {"v1": {0: 0.5, 1: 0.5}}
    traj_probs = {"v1": {(0, 0): 1.0, (1, 0): 1.0}}
    return build_bn(trace_table(TWO_TRACES), goal_probs, traj_probs, 2)


def test_two_trace_outcome_split_matches_enumeration_oracle():
    model = two_trace_model()
    dist = outcome_distribution(model, {"Omega_1": "Continue"})
    assert dist["done"] == pytest.approx(0.5, abs=1e-9)
    assert dist["collision"] == pytest.approx(0.5, abs=1e-9)
    assert dist["termination"] == 0.0 and dist["dead"] == 0.0


def test_conditioning_on_full_factual_trace_is_a_point_mass():
    goal_probs, traj_probs = single_vehicle_probs({0: 1.0}, {(0, 0): 1.0})
    model = build_bn(trace_table([make_record({"v1": (0, 0)}, ["A", "B"], "done")]),
                     goal_probs, traj_probs, 2)
    dist = query(model, ["Omega_1", "Omega_2"], {"Omega_1": "A", "Omega_2": "B"})
    assert dist == {("A", "B"): 1.0}


def test_zero_probability_evidence_raises():
    model = two_trace_model()
    with pytest.raises(UnexploredCounterfactualError, match="zero-probability"):
        query(model, ["O_done"], {"Omega_1": "Stop"})


def test_unknown_variable_is_rejected():
    model = two_trace_model()
    with pytest.raises(KeyError, match="unknown variable"):
        query(model, ["O_done"], {"Omega_9": "Continue"})


# --- joint probability ------------------------------------------------------------


def _normal_density(x: float, mu: float, var: float) -> float:
    if var <= 0.0:
        # Degenerate single-sample estimate: point mass at the observed value.
        return 1.0 if abs(x - mu) < 1e-9 else 0.0
    return math.exp(-((x - mu) ** 2) / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)


def joint_probability(model, assignment: dict) -> float:
    """Factor-product reference: the product of all factor groups for one
    full assignment.

    The assignment sets G and S for every non-ego, Omega for every depth
    (None past the trace end), Rb for every component, O for every outcome
    kind, and R values (number or None) for every component. Densities enter
    for set reward values, masses otherwise. This is the verbatim factor
    product with component-wise existence terms; query() and the outcome
    helpers instead weight whole realized presence patterns by their node
    frequencies (see pattern_probability).
    """
    p = 1.0
    akey_parts = []
    for vid in model.vehicles:
        g = assignment[f"G_{vid}"]
        s = tuple(assignment[f"S_{vid}"])
        p *= model.goal_probs[vid].get(g, 0.0)
        p *= model.traj_probs[vid].get(s, 0.0)
        if s[0] != g:
            return 0.0
        akey_parts.append((vid, s[0], s[1]))
    akey = tuple(sorted(akey_parts))

    omega_vals = [assignment[f"Omega_{d}"] for d in range(1, model.d_max + 1)]
    actions = []
    seen_none = False
    for v in omega_vals:
        if v is None:
            seen_none = True
        elif seen_none:
            return 0.0  # a selection after no-selection is inconsistent
        else:
            actions.append(v)
    omega = tuple(actions)
    p *= cpd_product(model, akey, omega)
    if p <= 0.0:
        return 0.0

    node = model.nodes.get(omega)
    if node is None:
        return 0.0
    present = set()
    for comp in REWARD_COMPONENTS:
        rb = assignment[f"Rb_{comp}"]
        rv = assignment[f"R_{comp}"]
        if (rv is not None) != (rb == 1):
            return 0.0  # existence indicator must match the value
        mu, variance, count, _ = model.reward_stats(omega, comp)
        pres = count / node.total
        p *= pres if rb == 1 else (1.0 - pres)
        if rv is not None:
            present.add(comp)
            p *= _normal_density(float(rv), mu, variance)

    for kind in OUTCOME_KINDS:
        expected = 1 if set(OUTCOME_REQUIRED[kind]) == present else 0
        if assignment[f"O_{kind}"] != expected:
            return 0.0
    return p


def full_assignment(model, record, r_values=None):
    out = {}
    for vid, g, s in record.akey:
        out[f"G_{vid}"] = g
        out[f"S_{vid}"] = (g, s)
    for d in range(1, model.d_max + 1):
        out[f"Omega_{d}"] = record.macros[d - 1] if d <= len(record.macros) else None
    for comp in REWARD_COMPONENTS:
        val = record.components[comp] if r_values is None else r_values.get(comp)
        out[f"R_{comp}"] = val
        out[f"Rb_{comp}"] = 1 if val is not None else 0
    present = {c for c in REWARD_COMPONENTS if out[f"R_{c}"] is not None}
    for kind in OUTCOME_KINDS:
        out[f"O_{kind}"] = 1 if set(OUTCOME_REQUIRED[kind]) == present else 0
    return out


def test_single_trace_joint_probability_is_one_over_discrete_support():
    goal_probs, traj_probs = single_vehicle_probs({0: 1.0}, {(0, 0): 1.0})
    rec = make_record({"v1": (0, 0)}, ["A"], "done", values={"time": 7.0})
    model = build_bn(trace_table([rec]), goal_probs, traj_probs, 2)
    # Point-mass densities at the observed values contribute factor one.
    assert joint_probability(model, full_assignment(model, rec)) == pytest.approx(1.0)


def test_joint_probability_zero_for_unseen_trace_and_outcome_mismatch():
    model = two_trace_model()
    good = full_assignment(model, TWO_TRACES[0])
    bad_trace = dict(good)
    bad_trace["Omega_1"] = "Stop"
    assert joint_probability(model, bad_trace) == 0.0
    # done without one of its required components has zero probability
    bad_outcome = dict(good)
    bad_outcome["R_jerk"] = None
    bad_outcome["Rb_jerk"] = 0
    assert joint_probability(model, bad_outcome) == 0.0


def test_rb_must_match_value_presence():
    model = two_trace_model()
    a = full_assignment(model, TWO_TRACES[0])
    a["Rb_time"] = 0  # value present but indicator cleared
    assert joint_probability(model, a) == 0.0


def test_reward_value_density_enters_the_joint():
    goal_probs, traj_probs = single_vehicle_probs({0: 1.0}, {(0, 0): 0.5, (0, 1): 0.5})
    model = build_bn(trace_table(TWO_SAMPLES_AT_A), goal_probs, traj_probs, 1)
    base = full_assignment(model, TWO_SAMPLES_AT_A[0], r_values={
        "time": 5.0, "jerk": 0.1, "angular_acceleration": 0.05, "curvature": 0.01})
    # mean 5, unbiased variance 2: density at the mean is 1/sqrt(4*pi), times
    # the sample's probability 0.5.
    expected = 0.5 / math.sqrt(4.0 * math.pi)
    # jerk/angacc/curvature carry identical samples, so their variance is 0
    # and the point mass at the observed value contributes factor one.
    assert joint_probability(model, base) == pytest.approx(expected, rel=1e-12)
    off = dict(base)
    off["R_jerk"] = 0.123  # single-sample point mass elsewhere has no density
    assert joint_probability(model, off) == 0.0


def test_s_evidence_accepts_lists():
    # JSON round trips turn tuples into lists; both spellings must agree.
    model = two_trace_model()
    as_list = query(model, ["O_done", "G_v1"], {"S_v1": [0, 0]})
    as_tuple = query(model, ["O_done", "G_v1"], {"S_v1": (0, 0)})
    assert as_list == as_tuple
    assert all(g == 0 for (_, g) in as_list)


# --- oracle equivalence -------------------------------------------------------------


def all_queries_for(model):
    yield ["O_done"], {}
    yield [f"O_{k}" for k in OUTCOME_KINDS], {}
    yield ["Omega_1"], {}
    for action in sorted(model.omega_support[1]):
        yield [f"O_{k}" for k in OUTCOME_KINDS], {"Omega_1": action}
    for vid in model.vehicles:
        yield [f"G_{vid}"], {}
        yield [f"G_{vid}"], {"O_done": 1}
        yield ["Omega_1", "Omega_2"], {f"G_{vid}": 0}
    yield ["Rb_time"], {}
    yield ["Omega_2"], {"Omega_1": sorted(model.omega_support[1])[0]}


def test_queries_match_brute_force_oracle_on_random_logs():
    checked = 0
    for seed in range(12):
        table, goal_probs, traj_probs, d_max = random_trace_log(seed)
        model = build_bn(table, goal_probs, traj_probs, d_max)
        rows = oracle_rows(table, goal_probs, traj_probs, d_max)
        for targets, evidence in all_queries_for(model):
            expect = oracle_query(rows, targets, evidence)
            if expect is None:
                with pytest.raises(UnexploredCounterfactualError):
                    query(model, targets, evidence)
                continue
            got = query(model, targets, evidence)
            assert set(got) == set(expect)
            for key, p in expect.items():
                assert got[key] == pytest.approx(p, abs=1e-9)
            checked += 1
        for comp in REWARD_COMPONENTS:
            expect = oracle_expected_reward(rows, comp, {})
            got, _ = expected_reward(model, comp, {})
            if expect is None:
                assert got is None
            else:
                assert got == pytest.approx(expect, abs=1e-9)
    assert checked > 100


def test_structural_invariants_on_random_logs():
    for seed in range(8):
        table, goal_probs, traj_probs, d_max = random_trace_log(seed + 100)
        model = build_bn(table, goal_probs, traj_probs, d_max)
        records = records_of(table)

        # Every stored CPD vector (actions plus no-selection) sums to one.
        for (prefix, akey), counts in model.sel.items():
            total = sum(cpd_entry(model, prefix, akey, a) for a in counts)
            total += cpd_entry(model, prefix, akey, None)
            assert total == pytest.approx(1.0, abs=1e-9)

        # Chain rule: a trace weight, a count ratio, equals the sample's
        # probability times the product of per-depth entries.
        for rec in records:
            akey = rec.akey
            p = 1.0
            prefix = ()
            for a in rec.macros:
                p *= cpd_entry(model, prefix, akey, a)
                prefix += (a,)
            if len(rec.macros) < d_max:
                p *= cpd_entry(model, prefix, akey, None)
            p *= model.assignment_probability(akey)
            assert model.trace_weights[(akey, rec.macros)] == pytest.approx(p, abs=1e-12)

        # Law of total probability over the first selection.
        marg = query(model, ["O_done"], {})
        mix = {}
        p1 = query(model, ["Omega_1"], {})
        for (action,), p_a in p1.items():
            cond = query(model, ["O_done"], {"Omega_1": action})
            for key, pv in cond.items():
                mix[key] = mix.get(key, 0.0) + p_a * pv
        for key in marg:
            assert marg[key] == pytest.approx(mix.get(key, 0.0), abs=1e-9)

        # Existence indicators and outcomes are deterministic given the rest.
        for rec in records[:5]:
            base = full_assignment(model, rec)
            assert joint_probability(model, base) >= 0.0
            flip = dict(base)
            done = base["O_done"]
            flip["O_done"] = 1 - done
            assert joint_probability(model, flip) == 0.0

        # Querying an outcome leaves the same answer whether the existence
        # layer is marginalized or spelled out as evidence-compatible rows.
        for kind in OUTCOME_KINDS:
            via_o = query(model, [f"O_{kind}"], {})
            via_rb = {}
            required = set(OUTCOME_REQUIRED[kind])
            rb_targets = [f"Rb_{c}" for c in REWARD_COMPONENTS]
            for key, p in query(model, rb_targets, {}).items():
                pattern = {c for c, v in zip(REWARD_COMPONENTS, key) if v == 1}
                hit = 1 if pattern == required else 0
                via_rb[(hit,)] = via_rb.get((hit,), 0.0) + p
            for key in via_o:
                assert via_o[key] == pytest.approx(via_rb.get(key, 0.0), abs=1e-9)


def test_model_export_is_json_ready():
    import json
    model = two_trace_model()
    payload = model_to_dict(model)
    text = json.dumps(payload, sort_keys=True)
    assert "action_cpds" in payload and "reward_stats" in payload
    assert payload["trace_count"] == 2
    entry = payload["action_cpds"][0]
    assert entry["supporting_traces"] == [0] or entry["supporting_traces"] == [1]
    assert "Continue" in json.loads(text)["variables"]["Omega_1"]


# --- aggregates on first read: a per-record build and per-call scans as reference --


class ReferenceModel:
    """The net's counts built by walking every record one at a time: CPD
    counts and their records, per-node outcomes and reward samples in record
    order, and each trace weight as p(s) times the product of CPD entries."""

    def __init__(self, table, goal_probs, traj_probs, d_max):
        self.d_max = d_max
        self.sel, self.reach, self.support, self.nodes = {}, {}, {}, {}
        signatures = {}
        for index, rec in enumerate(records_of(table)):
            akey = rec.akey
            prefix = ()
            for action in rec.macros:
                key = (prefix, akey)
                self.reach[key] = self.reach.get(key, 0) + 1
                self.sel.setdefault(key, {})
                self.sel[key][action] = self.sel[key].get(action, 0) + 1
                self.support.setdefault(key, []).append(index)
                prefix = prefix + (action,)
            if len(rec.macros) < self.d_max:
                key = (prefix, akey)
                self.reach[key] = self.reach.get(key, 0) + 1
                self.support.setdefault(key, []).append(index)
            node = self.nodes.setdefault(rec.macros, {
                "total": 0, "outcomes": {}, "values": {c: [] for c in REWARD_COMPONENTS}})
            node["total"] += 1
            node["outcomes"][rec.outcome] = node["outcomes"].get(rec.outcome, 0) + 1
            for comp, val in rec.components.items():
                if val is not None:
                    node["values"][comp].append(float(val))
            signatures.setdefault((akey, rec.macros), None)
        self.trace_weights = {}
        for akey, omega in signatures:
            p = 1.0
            for vid, g, s in akey:
                p *= goal_probs[vid].get(g, 0.0) * traj_probs[vid].get((g, s), 0.0)
            self.trace_weights[(akey, omega)] = p * cpd_product(self, akey, omega)

    def reward_stats(self, omega, comp):
        """(mean, unbiased variance, count, absence probability), recomputed per call."""
        node = self.nodes[omega]
        vals = node["values"][comp]
        mean = float(np.mean(vals)) if vals else None
        var = float(sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)) if len(vals) >= 2 else 0.0
        return mean, var, len(vals), 1.0 - len(vals) / node["total"]


def reference_rows(model, ref):
    """Every row of the realized support as a dict of variable values, with
    the model's trace weights."""
    rows = []
    for (akey, omega), base in model.trace_weights.items():
        outcomes = ref.nodes[omega]["outcomes"]
        for kind in sorted(outcomes):
            values = {}
            for vid, g, s in akey:
                values[f"G_{vid}"] = g
                values[f"S_{vid}"] = (g, s)
            for d in range(1, model.d_max + 1):
                values[f"Omega_{d}"] = omega[d - 1] if d <= len(omega) else None
            for comp in REWARD_COMPONENTS:
                values[f"Rb_{comp}"] = 1 if comp in OUTCOME_REQUIRED[kind] else 0
            for k in OUTCOME_KINDS:
                values[f"O_{k}"] = 1 if k == kind else 0
            rows.append({"omega": omega, "weight": base * (outcomes[kind] / sum(outcomes.values())),
                         "values": values})
    return rows


def reference_filter(rows, evidence):
    """Scan every row for each call."""
    known = set(rows[0]["values"])
    for var in evidence:
        if var not in known:
            raise KeyError(f"unknown variable {var!r}")
    return [row for row in rows
            if all(row["values"][var] == (tuple(val) if var.startswith("S_") else val)
                   for var, val in evidence.items())]


def reference_query(rows, targets, evidence):
    keep = reference_filter(rows, evidence)
    total = sum(r["weight"] for r in keep)
    if total <= 0.0:
        raise UnexploredCounterfactualError("zero-probability evidence")
    for var in targets:
        if var not in rows[0]["values"]:
            raise KeyError(f"unknown variable {var!r}")
    dist = {}
    for row in keep:
        key = tuple(row["values"][v] for v in targets)
        dist[key] = dist.get(key, 0.0) + row["weight"]
    return {k: v / total for k, v in dist.items()}


def reference_expected_reward(ref, rows, component, evidence):
    keep = reference_filter(rows, evidence)
    total = sum(r["weight"] for r in keep)
    if total <= 0.0:
        raise UnexploredCounterfactualError("zero-probability evidence")
    num = den = 0.0
    for row in keep:
        if row["values"][f"Rb_{component}"] == 1:
            num += row["weight"] * ref.reward_stats(row["omega"], component)[0]
            den += row["weight"]
    if den <= 0.0:
        return None, 0.0
    return num / den, den / total


def reference_omega_distribution(model, restrict=None):
    """One scan of the trace weights per distribution."""
    dist = {}
    total = 0.0
    for (akey, omega), w in model.trace_weights.items():
        if restrict is not None and not restrict(akey):
            continue
        dist[omega] = dist.get(omega, 0.0) + w
        total += w
    if total <= 0.0:
        return {}
    return {k: v / total for k, v in dist.items()}


def reference_agent_influences(model, n_causes):
    marginal = reference_omega_distribution(model)
    triples = []
    for vid in model.vehicles:
        pairs = sorted({(g, s) for akey, _ in model.trace_weights
                        for v, g, s in akey if v == vid})
        divs = []
        for (g, s) in pairs:
            cond = reference_omega_distribution(
                model, restrict=lambda ak, vid=vid, g=g, s=s: (vid, g, s) in ak)
            divs.append(((g, s), trace_divergence(marginal, cond)))
        if len(divs) <= 1 or (math.isfinite(divs[0][1])
                              and all(d == divs[0][1] for _, d in divs)):
            continue
        for (g, s), d in divs:
            p_pair = (model.goal_probs[vid].get(g, 0.0)
                      * model.traj_probs[vid].get((g, s), 0.0))
            triples.append((d, -p_pair, vid, g, s))
    triples.sort()
    causes, seen = [], set()
    for d, neg_p, vid, g, s in triples:
        if vid in seen:
            continue
        seen.add(vid)
        causes.append(Cause(vehicle=vid, label=model.labels.get(vid, vid),
                            macros=_cause_macros(model, vid, g, s),
                            probability=-neg_p, divergence=d))
        if len(causes) >= n_causes:
            break
    return causes


def answer(fn, *args):
    """A result in comparable form: dict items in order, or the error type."""
    try:
        out = fn(*args)
    except (UnexploredCounterfactualError, KeyError) as exc:
        return type(exc)
    return list(out.items()) if isinstance(out, dict) else out


PROBS = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


@st.composite
def trace_logs(draw):
    """A trace log over 1-3 vehicles with 1-2 goals of 1-2 trajectories each.

    Outcome, collider, components, reward and steps are drawn once per
    (sample, macros) signature, as a memoised search fixes them."""
    d_max = draw(st.integers(1, 3))
    goal_probs, traj_probs = {}, {}
    for vid in [f"v{i}" for i in range(1, draw(st.integers(1, 3)) + 1)]:
        n_goals = draw(st.integers(1, 2))
        goal_probs[vid] = {g: draw(PROBS) for g in range(n_goals)}
        traj_probs[vid] = {(g, s): draw(PROBS)
                           for g in range(n_goals) for s in range(draw(st.integers(1, 2)))}
    records = []
    results: dict = {}  # (sample, macros) -> the fields that signature fixes
    for _ in range(draw(st.integers(1, 25))):
        assignment = {vid: draw(st.sampled_from(sorted(opts)))
                      for vid, opts in traj_probs.items()}
        macros = tuple(draw(st.lists(st.sampled_from("ABC"), min_size=1, max_size=d_max)))
        signature = (tuple((vid, *assignment[vid]) for vid in sorted(assignment)), macros)
        if signature not in results:
            outcome = draw(st.sampled_from(OUTCOME_KINDS))
            results[signature] = dict(
                outcome=outcome,
                components={c: (draw(st.floats(-50.0, 50.0))
                                if c in OUTCOME_REQUIRED[outcome] else None)
                            for c in REWARD_COMPONENTS},
                collider=(draw(st.sampled_from([None, *sorted(goal_probs)]))
                          if outcome == "collision" else None))
        records.append(Record(*signature, **results[signature]))
    return trace_table(records), goal_probs, traj_probs, d_max


@settings(max_examples=200, deadline=None)
@given(trace_logs())
def test_aggregates_built_once_match_per_call_reference(log):
    table, goal_probs, traj_probs, d_max = log
    model = build_bn(table, goal_probs, traj_probs, d_max)
    ref = ReferenceModel(table, goal_probs, traj_probs, d_max)

    assert model.sel == ref.sel and model.reach == ref.reach
    assert ({k: set(v) for k, v in model.support.items()}
            == {k: set(v) for k, v in ref.support.items()})
    assert list(model.nodes) == list(ref.nodes)
    for omega in model.nodes:
        for comp in REWARD_COMPONENTS:
            assert model.reward_stats(omega, comp) == ref.reward_stats(omega, comp)

    rows = reference_rows(model, ref)
    assert [(r.omega, r.weight) for r in model.rows] == [(r["omega"], r["weight"]) for r in rows]
    for targets, evidence in all_queries_for(model):
        assert (answer(query, model, targets, evidence)
                == answer(reference_query, rows, targets, evidence)), (targets, evidence)
    for evidence in [{}] + [{"Omega_1": a} for a in sorted(model.omega_support[1])]:
        for comp in REWARD_COMPONENTS:
            assert (answer(expected_reward, model, comp, evidence)
                    == answer(reference_expected_reward, ref, rows, comp, evidence))

    marginal, conditionals = _omega_distributions(model)
    assert list(marginal.items()) == list(reference_omega_distribution(model).items())
    for (vid, g, s), cond in conditionals.items():
        want = reference_omega_distribution(model, lambda ak: (vid, g, s) in ak)
        assert list(cond.items()) == list(want.items())
    n = len(model.vehicles)
    assert agent_influences(model, n) == reference_agent_influences(model, n)
    # The export, read after the queries, is the export of a fresh model.
    assert model_to_dict(model) == model_to_dict(build_bn(table, goal_probs, traj_probs, d_max))


@settings(max_examples=200, deadline=None)
@given(trace_logs())
def test_trace_weights_are_the_cpd_product_as_a_count_ratio(log):
    # p(s) n(s, omega) / n(s) equals p(s) times the product of the CPD entries
    # along omega, and the conditional p(omega | s) it carries sums to one.
    table, goal_probs, traj_probs, d_max = log
    model = build_bn(table, goal_probs, traj_probs, d_max)
    ref = ReferenceModel(table, goal_probs, traj_probs, d_max)
    assert list(model.trace_weights) == list(ref.trace_weights)
    for signature, weight in model.trace_weights.items():
        assert weight == pytest.approx(ref.trace_weights[signature], rel=1e-12, abs=0.0)
    per_sample = {}
    for (akey, _), weight in model.trace_weights.items():
        per_sample[akey] = per_sample.get(akey, 0.0) + weight
    for akey, total in per_sample.items():
        p = model.assignment_probability(akey)
        if p > 0.0:
            assert total / p == pytest.approx(1.0, abs=1e-9)
        else:
            assert total == 0.0


CORPORA = {"s1": os.path.join(REPO_ROOT, "scenarios", "s1.json"),
           "dense": os.path.join(REPO_ROOT, "benchmarks", "scenarios", "dense.json")}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_explain_queries_reuse_node_means_and_filtered_rows(name, monkeypatch):
    # Over every explored depth-1 and depth-2 query on one model, each
    # (node, component)'s reward samples and mean are gathered at most once,
    # and the rows are scanned once per distinct evidence.
    sc = load_scenario(CORPORA[name])
    pipe = run_pipeline(sc, 0, planner=planner_config(sc, 0, iterations=60))
    model = pipe.model
    scans, evidences, gathered = [], set(), []

    class CountingRows(list):
        def __iter__(self):
            scans.append(1)
            return super().__iter__()

    model.rows = CountingRows(model.rows)
    real_filter, real_gather = bayes_net_mod._filter_rows, BnModel._gather

    def recording_filter(model, evidence):
        evidences.add(frozenset(evidence.items()))
        return real_filter(model, evidence)

    def recording_gather(self, omega, comp):
        gathered.append((omega, comp))
        return real_gather(self, omega, comp)

    monkeypatch.setattr(bayes_net_mod, "_filter_rows", recording_filter)
    monkeypatch.setattr(BnModel, "_gather", recording_gather)
    answered = 0
    for depth in (1, 2):
        for action in sorted(model.omega_support[depth]):
            cf = parse_query(f"omega{depth}={action}", n_causes=3, n_effects=6)
            summary, _, _ = explain_query(model, pipe.mcts.plan, pipe.reward, cf)
            answered += bool(summary.effects)
    assert answered > 1  # reward effects were asked for, by more than one query
    assert gathered and len(gathered) == len(set(gathered))
    assert len(scans) == len(evidences)
