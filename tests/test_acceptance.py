"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the golden state counts (PTA 14, cloud 106) were frozen from the
independent brute-force explorer in tests/oracle.py.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from tickgraph.elaborate import load_model
from tickgraph.match import occurrences
from tickgraph.mdp import explore, export_prism
from tickgraph.rules import action_distribution, enabled_outcomes
from tickgraph.verify import (
    ForcedNext,
    Pattern,
    Reach,
    check,
    label,
    parse_properties,
    reach_prob,
)

from .oracle import _fingerprint, brute_iso, oracle_explore
from .test_match import check_agreement

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

PTA_STATES, PTA_CHOICES, PTA_TRANSITIONS = 14, 20, 21  # golden (oracle-pinned)
CLOUD_STATES, CLOUD_CHOICES, CLOUD_TRANSITIONS = 106, 106, 120  # golden (oracle-pinned)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "tickgraph", *map(str, argv)],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def pta():
    model = load_model(MODELS / "pta.big")
    mdp = explore(model)
    label(mdp, [Pattern(n, b) for n, b in model.predicates])
    return model, mdp


@pytest.fixture(scope="module")
def cloud():
    model = load_model(MODELS / "cloud.big")
    mdp = explore(model)
    label(mdp, [Pattern(n, b) for n, b in model.predicates])
    return model, mdp


def state_with(mdp, *names):
    hits = [
        s
        for s in range(mdp.n_states)
        if all(n in mdp.labels[s] for n in names)
    ]
    assert len(hits) == 1, f"labels {names}: {hits}"
    return hits[0]


def test_criterion_1_pta_transition_structure(pta):
    model, mdp = pta
    s_init0 = state_with(mdp, "in_Init_state", "clock_X_0")
    assert s_init0 == 0
    cs = mdp.choices[0]
    assert sorted(c.action for c in cs) == ["rec", "tick"]
    for c in cs:
        assert len(c.dist) == 1 and abs(c.dist[0][1] - 1.0) <= 1e-12

    s_init1 = state_with(mdp, "in_Init_state", "clock_X_1")
    assert sorted(c.action for c in mdp.choices[s_init1]) == ["rec", "tick"]

    s_init2 = state_with(mdp, "in_Init_state", "clock_X_2")
    (only,) = mdp.choices[s_init2]
    assert only.action == "rec"
    recs = enabled_outcomes(mdp.states[s_init2], model)["rec"]
    assert [oc.name for oc in recs] == ["init_transition(2)"]

    s_send = state_with(mdp, "in_Send_state")
    (send,) = mdp.choices[s_send]
    assert send.action == "send"
    s_done = state_with(mdp, "in_Done_state")
    s_wait0 = state_with(mdp, "in_Wait_state", "clock_X_0")
    dist = dict(send.dist)
    assert abs(dist[s_done] - 0.99) <= 1e-12
    assert abs(dist[s_wait0] - 0.01) <= 1e-12
    print("\nACCEPTANCE 1: PASS - PTA transition structure matches the reference MDP")


def test_criterion_2_property_1(pta):
    _model, mdp = pta
    (prop,) = parse_properties('P >= 0.99 [ F "in_Done_state" ]')
    verdict = check(mdp, prop)
    assert verdict.holds
    v = reach_prob(mdp, ("name", "in_Done_state"), "min")
    assert abs(v - 1.0) <= 1e-9
    print("\nACCEPTANCE 2: PASS - P>=0.99 [F Done] holds, Pmin(Done) = 1.0")


def test_criterion_3_property_2(pta):
    _model, mdp = pta
    (prop,) = parse_properties('P >= 0.99 [ F ("in_Done_state" & "clock_X_0") ]')
    assert check(mdp, prop).holds
    print("\nACCEPTANCE 3: PASS - P>=0.99 [F (Done & clock 0)] holds")


def test_criterion_4_property_3(pta):
    _model, mdp = pta
    (prop,) = parse_properties('A [ G !("in_Wait_state" & "clock_X_9") ]')
    verdict = check(mdp, prop)
    assert verdict.holds
    assert verdict.value == 0.0  # exact, from the qualitative precomputation
    print("\nACCEPTANCE 4: PASS - safety A[G !(Wait & clock 9)] holds with Pmax = 0 exactly")


def test_criterion_5_cloud_property_4(cloud):
    _model, mdp = cloud
    (prop,) = parse_properties('FORCEDNEXT "req1_waiting_clock1" -> "req1_processing"')
    verdict = check(mdp, prop)
    assert verdict.holds
    print("\nACCEPTANCE 5: PASS - request 1 at clock 1 is forced to send next")


def test_criterion_6_weighted_bias():
    model = load_model(MODELS / "sensor.big")
    mdp = explore(model)
    label(mdp, [Pattern(n, b) for n, b in model.predicates])
    (send,) = mdp.choices[0]
    assert send.action == "send" and len(send.dist) == 2
    s_b = state_with(mdp, "data_at_b")
    s_c = state_with(mdp, "data_at_c")
    dist = dict(send.dist)
    assert abs(dist[s_b] - 0.7) <= 1e-12
    assert abs(dist[s_c] - 0.3) <= 1e-12
    print("\nACCEPTANCE 6: PASS - weighted rules give one send action at 0.7/0.3")


def _clock_values(g, locals_ctrl, global_ctrl=None):
    locals_ = sorted(p for c, p in g.nodes if c.name == locals_ctrl)
    gc = [p for c, p in g.nodes if global_ctrl and c.name == global_ctrl]
    return locals_, (gc[0] if gc else None)


def _lockstep_suite(model, mdp, locals_ctrl, global_ctrl=None, expect_single_instance=False):
    saw_tick = 0
    for s in range(mdp.n_states):
        agent = mdp.states[s]
        per_action = enabled_outcomes(agent, model)
        if "tick" not in per_action:
            continue
        saw_tick += 1
        outcomes = per_action["tick"]
        if expect_single_instance:
            assert len(outcomes) == 1
        dist = action_distribution(agent, outcomes)
        assert len(dist) == 1, f"tick not a point distribution in state {s}"
        succ, p = dist[0]
        assert abs(p - 1.0) <= 1e-12
        before, gc_before = _clock_values(agent, locals_ctrl, global_ctrl)
        after, gc_after = _clock_values(succ, locals_ctrl, global_ctrl)
        assert after == [v + 1 for v in before], f"clocks out of lockstep in state {s}"
        if global_ctrl:
            assert gc_after == gc_before + 1
    assert saw_tick > 0
    if global_ctrl:
        # wall time never decreases, and moves exactly on tick transitions
        for s, cs in enumerate(mdp.choices):
            _loc, gc_here = _clock_values(mdp.states[s], locals_ctrl, global_ctrl)
            for c in cs:
                for t, _p in c.dist:
                    _loc2, gc_there = _clock_values(mdp.states[t], locals_ctrl, global_ctrl)
                    if c.action == "tick":
                        assert gc_there == gc_here + 1
                    else:
                        assert gc_there == gc_here


def test_criterion_7_clock_lockstep(pta, cloud):
    pta_model, pta_mdp = pta
    _lockstep_suite(pta_model, pta_mdp, "X", expect_single_instance=True)
    cloud_model, cloud_mdp = cloud
    _lockstep_suite(cloud_model, cloud_mdp, "LC", global_ctrl="GC")
    print("\nACCEPTANCE 7: PASS - tick is a point distribution, clocks advance in lockstep, GC monotone")


def _mdp_isomorphic(mdp, oracle):
    buckets = {}
    for i, g in enumerate(oracle.states):
        buckets.setdefault(_fingerprint(g), []).append(i)
    mapping = {}
    for s, g in enumerate(mdp.states):
        cands = [i for i in buckets.get(_fingerprint(g), ()) if brute_iso(g, oracle.states[i])]
        assert len(cands) == 1
        mapping[s] = cands[0]
    assert len(set(mapping.values())) == mdp.n_states
    for s in range(mdp.n_states):
        mine = {
            (c.action, tuple(sorted((mapping[t], round(p, 12)) for t, p in c.dist)))
            for c in mdp.choices[s]
        }
        theirs = {
            (a, tuple(sorted((t, round(p, 12)) for t, p in d)))
            for a, d in oracle.choices[mapping[s]]
        }
        assert mine == theirs


def test_criterion_8_oracle_equivalence(pta, cloud):
    for seed in range(500):
        check_agreement(seed)

    pta_model, pta_mdp = pta
    assert (pta_mdp.n_states, pta_mdp.n_choices, pta_mdp.n_transitions) == (
        PTA_STATES, PTA_CHOICES, PTA_TRANSITIONS,
    )
    pta_oracle = oracle_explore(pta_model)
    assert len(pta_oracle.states) == PTA_STATES
    _mdp_isomorphic(pta_mdp, pta_oracle)

    cloud_model, cloud_mdp = cloud
    assert (cloud_mdp.n_states, cloud_mdp.n_choices, cloud_mdp.n_transitions) == (
        CLOUD_STATES, CLOUD_CHOICES, CLOUD_TRANSITIONS,
    )
    cloud_oracle = oracle_explore(cloud_model)
    assert len(cloud_oracle.states) == CLOUD_STATES
    _mdp_isomorphic(cloud_mdp, cloud_oracle)
    print("\nACCEPTANCE 8: PASS - matcher matches the enumerator on 500 random cases;"
          " both corpus MDPs isomorphic to the brute-force explorer's")


def test_criterion_9_export_round_trip(pta, tmp_path):
    _model, mdp = pta
    tra, lab, _sta = export_prism(mdp)
    lines = tra.splitlines()
    n_states, n_choices, n_trans = map(int, lines[0].split())
    sums = {}
    for row in lines[1:]:
        src, ci, dst, p, _action = row.split()
        assert 0 <= int(dst) < n_states
        sums[(int(src), int(ci))] = sums.get((int(src), int(ci)), 0.0) + float(p)
    assert len(lines) - 1 == n_trans and len(sums) == n_choices
    for total in sums.values():
        assert abs(total - 1.0) <= 1e-9
    init_line = [l for l in lab.splitlines()[1:] if l.startswith("0:")]
    assert init_line, "state 0 must carry labels"
    assert "0" in init_line[0].split(":", 1)[1].split(), "init label must mark state 0"
    tra2, lab2, sta2 = export_prism(mdp)
    assert (tra, lab) == (tra2, lab2)
    print("\nACCEPTANCE 9: PASS - .tra re-parses with unit sums, init marks state 0, re-export identical")


def test_criterion_10_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run_cli("build", MODELS / "pta.big", "--out", out1, "--json")
    r2 = run_cli("build", MODELS / "pta.big", "--out", out2, "--json")
    assert r1.returncode == 0 and r2.returncode == 0
    assert json.loads(r1.stdout)["cache_digest"] == json.loads(r2.stdout)["cache_digest"]
    e1 = run_cli("export", MODELS / "pta.big", "--out", out1)
    e2 = run_cli("export", MODELS / "pta.big", "--out", out2)
    assert e1.returncode == 0 and e2.returncode == 0
    for ext in (".tra", ".lab"):
        assert (out1 / f"pta{ext}").read_bytes() == (out2 / f"pta{ext}").read_bytes()
    s1 = run_cli("simulate", MODELS / "pta.big", "--seed", "11", "--steps", "15")
    s2 = run_cli("simulate", MODELS / "pta.big", "--seed", "11", "--steps", "15")
    assert s1.returncode == 0 and s1.stdout == s2.stdout
    print("\nACCEPTANCE 10: PASS - independent builds byte-identical, equal seeds give identical traces")
