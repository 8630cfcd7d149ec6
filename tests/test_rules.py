import functools
import importlib.util
import math
import pathlib
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tickgraph import rules
from tickgraph.bigraph import Control, close, ion, merge, nest, parallel, site, validate
from tickgraph.canon import canonical_form, is_iso
from tickgraph.elaborate import elaborate, load_model
from tickgraph.lang import parse
from tickgraph.match import occurrences
from tickgraph.mdp import explore
from tickgraph.params import Arith, ParameterLimit, Var
from tickgraph.rules import (
    Model,
    RuleEntry,
    RuleFamily,
    action_distribution,
    apply,
    effect_key,
    enabled_outcomes,
)

from .conftest import (
    DONE,
    INIT,
    SEND,
    WAIT,
    X,
    S,
    loc_state,
    pta_families,
    pta_state,
    tick_model,
)
from .oracle import (
    class_instance_names,
    every_match,
    expand,
    instantiate,
    per_entry_enabled_outcomes,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_expand_clock_advance():
    fam = pta_families()["clock_advance"]
    rules = expand(fam, {"n": tuple(range(9))})
    assert len(rules) == 9
    r3 = next(r for r in rules if r.base == "clock_advance(3)")
    assert r3.redex.nodes[0][1] == 3
    assert r3.reactum.nodes[0][1] == 4  # arithmetic evaluated


def test_expand_wait_domain():
    fam = pta_families()["wait_transition"]
    assert len(expand(fam, {"n": (4, 5, 6, 7, 8)})) == 5


def test_expand_empty_domain():
    fam = pta_families()["clock_advance"]
    with pytest.raises(ValueError, match="empty"):
        expand(fam, {"n": ()})


def test_rule_shape_validation():
    with pytest.raises(ValueError, match="outer names"):
        RuleFamily("bad", (), ion(S, ["c"]), ion(S, ["d"]), 1.0)
    with pytest.raises(ValueError, match="regions"):
        RuleFamily(
            "bad2", (), parallel(ion(INIT), ion(SEND)), merge(ion(INIT), ion(SEND)), 1.0
        )
    with pytest.raises(ValueError, match="weight"):
        RuleFamily("bad3", (), ion(INIT), ion(INIT), 0.0)
    for weight in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite positive"):
            RuleFamily("bad3", (), ion(INIT), ion(INIT), weight)
    with pytest.raises(ValueError, match="arithmetic in redex"):
        RuleFamily(
            "bad4", ("n",),
            ion(X, ["c"], param=Arith("+", Var("n"), 1)),
            ion(X, ["c"], param=Var("n")),
            1.0,
        )


def test_apply_init_transition():
    rule = instantiate(pta_families()["init_transition"], {"n": 2})
    agent = pta_state(INIT, 2)
    (m,) = occurrences(agent, rule.redex)
    out = apply(agent, rule, m)
    assert validate(out) == []
    assert is_iso(out, pta_state(SEND, 0))  # clock reset


def test_apply_keeps_clock_on_success():
    rule = instantiate(pta_families()["send_transition_success"], {"n": 0})
    agent = pta_state(SEND, 0)
    (m,) = occurrences(agent, rule.redex)
    assert is_iso(apply(agent, rule, m), pta_state(DONE, 0))


def test_apply_symbolic_family_uses_binding():
    fam = pta_families()["clock_advance"]
    agent = pta_state(INIT, 5)
    (m,) = occurrences(agent, fam.redex, domains={"n": set(range(9))})
    assert m.binding_env() == {"n": 5}
    assert is_iso(apply(agent, fam, m), pta_state(INIT, 6))


def test_apply_stale_match():
    rule = instantiate(pta_families()["init_transition"], {"n": 0})
    agent = pta_state(INIT, 0)
    (m,) = occurrences(agent, rule.redex)
    other = merge(ion(INIT), ion(DONE))
    with pytest.raises(ValueError, match="stale"):
        apply(other, rule, m)


def test_negative_condition_sees_site_content():
    # captured site content lies outside the image, so a marker inside it
    # still blocks the rule
    stop = Control("Stop", atomic=True)
    box = Control("Box")
    out = Control("Out", atomic=True)
    fam = RuleFamily(
        "empty_box",
        (),
        nest(ion(box), site()),
        nest(ion(box), site()),
        1.0,
        condition=ion(stop),
    )
    agent = nest(ion(box), ion(stop))
    (m,) = occurrences(agent, fam.redex)
    assert m.site_images == ((0,),) or len(m.site_images[0]) == 1
    (stop_at,) = occurrences(agent, ion(stop))
    assert m.image.isdisjoint(stop_at.nodes)  # Stop is in the context
    model = Model(
        controls={c.name: c for c in (stop, box, out)},
        classes=[[RuleEntry(fam, ())]],
        actions=[("a", ("empty_box",))],
        patterns=[],
        init=agent,
        name="t",
    )
    assert enabled_outcomes(agent, model) == {}


def test_negative_condition_blocks():
    stop = Control("Stop", atomic=True)
    a = Control("A", atomic=True)
    b = Control("B", atomic=True)
    fam = RuleFamily("go", (), ion(a), ion(b), 1.0, condition=ion(stop))
    model = Model(
        controls={c.name: c for c in (stop, a, b)},
        classes=[[RuleEntry(fam, ())]],
        actions=[("go", ("go",))],
        patterns=[],
        init=merge(ion(a), ion(stop)),
        name="t",
    )
    assert enabled_outcomes(merge(ion(a), ion(stop)), model) == {}
    out = enabled_outcomes(ion(a), model)
    assert list(out) == ["go"] and len(out["go"]) == 1


def test_condition_blocked_class_falls_through():
    # a higher class whose only rule is condition-blocked does not preempt
    stop = Control("Stop", atomic=True)
    a = Control("A", atomic=True)
    b = Control("B", atomic=True)
    hi = RuleFamily("hi", (), ion(a), ion(b), 1.0, condition=ion(stop))
    lo = RuleFamily("lo", (), ion(a), ion(a), 1.0)
    model = Model(
        controls={c.name: c for c in (stop, a, b)},
        classes=[[RuleEntry(hi, ())], [RuleEntry(lo, ())]],
        actions=[("hi", ("hi",)), ("lo", ("lo",))],
        patterns=[],
        init=merge(ion(a), ion(stop)),
        name="t",
    )
    agent = merge(ion(a), ion(stop))
    out = enabled_outcomes(agent, model)
    assert list(out) == ["lo"]
    # without the blocker the higher class wins again
    out2 = enabled_outcomes(ion(a), model)
    assert list(out2) == ["hi"]


def test_enabled_outcomes_pta_initial(pta_model_prog):
    out = enabled_outcomes(pta_state(INIT, 0), pta_model_prog)
    assert set(out) == {"rec", "tick"}
    assert [oc.name for oc in out["rec"]] == ["init_transition(0)"]
    assert [oc.name for oc in out["tick"]] == ["clock_advance(0)"]


def test_enabled_outcomes_pta_clock1(pta_model_prog):
    out = enabled_outcomes(pta_state(INIT, 1), pta_model_prog)
    assert set(out) == {"rec", "tick"}
    assert [oc.name for oc in out["rec"]] == ["init_transition(1)"]


def test_priority_suppresses_tick_at_deadline(pta_model_prog):
    out = enabled_outcomes(pta_state(INIT, 2), pta_model_prog)
    assert set(out) == {"rec"}
    assert [oc.name for oc in out["rec"]] == ["init_transition(2)"]


def test_send_state_weighted_outcomes(pta_model_prog):
    out = enabled_outcomes(pta_state(SEND, 0), pta_model_prog)
    assert set(out) == {"send"}
    weights = sorted(oc.weight for oc in out["send"])
    assert weights == [0.01, 0.99]


def test_action_distribution_normalises(pta_model_prog):
    agent = pta_state(SEND, 0)
    out = enabled_outcomes(agent, pta_model_prog)
    dist = action_distribution(agent, out["send"])
    # two outcomes, two distinct results, in outcome order
    assert len(out["send"]) == len(dist) == 2
    probs = {oc.name: p for oc, (_g, p) in zip(out["send"], dist)}
    assert math.isclose(probs["send_transition_success(0)"], 0.99, abs_tol=1e-15)
    assert math.isclose(probs["send_transition_fail(0)"], 0.01, abs_tol=1e-15)
    assert abs(sum(p for _g, p in dist) - 1.0) < 1e-12


def test_action_distribution_singleton(pta_model_prog):
    agent = pta_state(INIT, 0)
    out = enabled_outcomes(agent, pta_model_prog)
    dist = action_distribution(agent, out["tick"])
    assert len(dist) == 1 and dist[0][1] == 1.0
    assert is_iso(dist[0][0], pta_state(INIT, 1))


def test_action_distribution_merges_isomorphic_results():
    # one rule, two symmetric matches, isomorphic successors: single entry, p=1
    a = Control("A", atomic=True)
    b = Control("B", atomic=True)
    rule = RuleFamily("flip", (), ion(a), ion(b), 1.0)
    model = Model(
        controls={"A": a, "B": b},
        classes=[[RuleEntry(rule, ())]],
        actions=[("flip", ("flip",))],
        patterns=[],
        init=merge(ion(a), ion(a)),
        name="t",
    )
    agent = merge(ion(a), ion(a))
    out = enabled_outcomes(agent, model)
    assert len(out["flip"]) == 2
    # the matches rewrite different entities: two effects, one canonical result
    assert len({effect_key(oc.rule, oc.match) for oc in out["flip"]}) == 2
    dist = action_distribution(agent, out["flip"])
    assert len(dist) == 1
    assert abs(dist[0][1] - 1.0) < 1e-12


def _outcome_table(agent, model):
    from tickgraph.canon import canonical_form

    return {
        action: sorted(
            (oc.name, canonical_form(apply(agent, oc.rule, oc.match)), oc.weight) for oc in ocs
        )
        for action, ocs in enabled_outcomes(agent, model).items()
    }


def test_family_matching_equals_expanded_instances(pta_model_prog):
    # matching the symbolic redex once gives exactly the outcomes of
    # matching every concrete instance on its own
    from .oracle import expanded_outcomes

    states = [pta_state(INIT, 0), pta_state(INIT, 2), pta_state(SEND, 0), pta_state(WAIT, 5)]
    states += explore(pta_model_prog).states
    for state in states:
        table = _outcome_table(state, pta_model_prog)
        ref = expanded_outcomes(state, pta_model_prog)
        assert list(table) == list(ref)
        assert table == ref


def test_reactum_only_parameter_enumerated():
    # n occurs only in the reactum: each match yields one outcome per value
    from .oracle import expanded_outcomes

    box, go = Control("Box", 0), Control("Go", 0, atomic=True)
    b = Control("B", 0, atomic=True, parameterised=True)
    fam = RuleFamily("spawn", ("n", "m"), nest(ion(box), ion(go)),
                     nest(ion(box), ion(b, param=Arith("+", Var("n"), Var("m")))), 1.0)
    model = Model(
        controls={c.name: c for c in (box, go, b)},
        classes=[[RuleEntry(fam, ((3, 1), (10, 20)))]],
        actions=[("go", ("spawn",))],
        patterns=[],
        init=merge(nest(ion(box), ion(go)), nest(ion(box), ion(go))),
    )
    out = enabled_outcomes(model.init, model)
    assert [oc.name for oc in out["go"]] == [
        f"spawn({n},{m})" for _match in range(2) for n in (3, 1) for m in (10, 20)
    ]
    assert _outcome_table(model.init, model) == expanded_outcomes(model.init, model)


def test_out_of_range_clock_matches_nothing(pta_model_prog):
    # X(9) exceeds the clock_advance domain: time is up, no further tick
    agent = pta_state(WAIT, 9)
    out = enabled_outcomes(agent, pta_model_prog)
    assert "tick" not in out


def test_overlapping_priority_classes_rejected():
    fam = pta_families()
    with pytest.raises(ValueError, match="two priority classes"):
        Model(
            controls={},
            classes=[
                [RuleEntry(fam["init_transition"], ((1, 2),))],
                [RuleEntry(fam["init_transition"], ((2, 3),))],
            ],
            actions=[("rec", ("init_transition",))],
            patterns=[],
            init=pta_state(INIT, 0),
        )


def test_rule_in_no_action_rejected():
    fam = pta_families()
    with pytest.raises(ValueError, match="no action"):
        Model(
            controls={},
            classes=[[RuleEntry(fam["done_done"], ())]],
            actions=[],
            patterns=[],
            init=pta_state(DONE, 0),
        )


def test_priority_spec_instance_names(pta_model_prog):
    classes = class_instance_names(pta_model_prog)
    assert classes[0] == {
        "done_done",
        "init_transition(2)",
        "send_transition_fail(0)",
        "send_transition_success(0)",
        "wait_transition(8)",
    }
    assert "clock_advance(0)" in classes[1]
    assert pta_model_prog.rule_count() == 20


# --- effect keys -------------------------------------------------------------


@functools.cache
def _perfbench_gen():
    # loaded by path, as test_cli loads perfbench/tracer.py; its dataclasses
    # need the module registered while it executes
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules["perfbench_gen"] = gen
    spec.loader.exec_module(gen)
    return gen


# two matches with one image each: `swap` differs only in which agent edge
# each new entity joins, `pick` only in which box's content each site carries
SWAP_MODEL = """
atomic ctrl A = 1;
atomic ctrl B = 1;
atomic ctrl C = 1;
atomic fun ctrl K(v) = 1;
atomic fun ctrl P(v) = 0;
ctrl Pair = 0;
ctrl Box = 0;
ctrl Kept = 0;
ctrl Gone = 0;
react swap = Pair.(A{x} | A{y}) -[1]-> Pair.(B{x} | C{y});
react pick = Box.id | Box.id -[1]-> Kept.id | Gone.id;
big start = /e1 /e2 (Pair.(A{e1} | A{e2}) | K(1){e1} | K(2){e2} | Box.P(1) | Box.P(2));
begin abrs
  init start;
  rules = [ {swap, pick} ];
  actions = [ swap = {swap}, pick = {pick} ];
end
"""


# `fin` is blocked exactly when a second A exists: the condition's occurrence
# inside the image does not count
CONDITION_MODEL = """
atomic ctrl A = 0;
atomic ctrl B = 0;
atomic ctrl C = 0;
react grow = C -[1]-> A;
react fin = A -[1]-> B if ! A in ctx;
big start = C | A;
begin abrs
  init start;
  rules = [ {grow, fin} ];
  actions = [ grow = {grow}, fin = {fin} ];
end
"""


def _model(name):
    """A bundled model by file stem, a model above, or a generated one."""
    if (ROOT / "models" / f"{name}.big").exists():
        return load_model(str(ROOT / "models" / f"{name}.big"))
    if name == "ports-and-sites":
        return elaborate(parse(SWAP_MODEL))
    if name == "condition-in-image":
        return elaborate(parse(CONDITION_MODEL))
    gen = _perfbench_gen()
    spec = {
        "cloud-family-3": lambda: gen.cloud_family(3, 1, random.Random(1)),
        "pta-family-8": lambda: gen.pta_family(8, random.Random(1)),
        "token-none-5": lambda: gen.token_family(5, "none", marks=(1, 2)),
        "token-pairs-4": lambda: gen.token_family(4, "pairs"),
        "token-ring-4": lambda: gen.token_family(4, "ring"),
    }[name]()
    return elaborate(parse(spec.text))


@pytest.mark.parametrize(
    "name",
    ["pta", "cloud", "sensor", "cloud-family-3", "pta-family-8",
     "token-none-5", "token-pairs-4", "token-ring-4", "ports-and-sites"],
)
def test_effect_key_is_sound(name):
    # outcomes with equal effect keys must give isomorphic results, in every
    # reachable state and over every match; action_distribution applies
    # only one of them
    model = _model(name)
    outcomes = groups = 0
    mdp = explore(model)
    for agent in mdp.states:
        for ocs in enabled_outcomes(agent, every_match(model)).values():
            by_effect: dict[tuple, list] = {}
            for oc in ocs:
                by_effect.setdefault(effect_key(oc.rule, oc.match), []).append(oc)
            for group in by_effect.values():
                results = {canonical_form(apply(agent, oc.rule, oc.match)) for oc in group}
                assert len(results) == 1
            outcomes += len(ocs)
            groups += len(by_effect)
    if name == "cloud":
        # 24 clock permutations per tick collapse to one effect
        assert (outcomes, groups) == (1156, 150)
    if name == "ports-and-sites":
        assert outcomes == groups
        assert (mdp.n_states, mdp.n_choices, mdp.n_transitions) == (9, 6, 12)


def test_tick_applies_once_per_effect(monkeypatch):
    model = _model("cloud")
    agent = model.init
    tick = enabled_outcomes(agent, every_match(model))["tick"]
    assert len(tick) == 24
    calls = []
    real = rules.apply
    monkeypatch.setattr(rules, "apply", lambda *a: calls.append(a) or real(*a))
    dist = action_distribution(agent, tick)
    assert len(calls) == 1
    # one entry, and every matched instance adds its share exactly
    assert [p for _g, p in dist] == [1.0]


def test_distinct_effects_merge_by_canonical_form(monkeypatch):
    # bare tokens: each move rewrites a different token (k effects, k applies),
    # and the results still merge into one state
    model = _model("token-none-5")
    agent = model.init
    moves = enabled_outcomes(agent, model)["move"]
    assert len(moves) == 5
    assert len({effect_key(oc.rule, oc.match) for oc in moves}) == 5
    calls = []
    real = rules.apply
    monkeypatch.setattr(rules, "apply", lambda *a: calls.append(a) or real(*a))
    dist = action_distribution(agent, moves)
    assert len(calls) == 5
    assert [p for _g, p in dist] == [sum([1 / 5] * 5)]


# --- one search per family per state -------------------------------------------


def test_one_search_per_family_per_state(monkeypatch):
    # cloud's initial state reaches every priority class (only `tick` fires);
    # its 17 rule entries come from 5 families, and only clock_advance has a
    # context condition
    model = _model("cloud")
    families = {e.family.base: e.family for cls in model.classes for e in cls}
    with_condition = [f for f in families.values() if f.condition is not None]
    assert (sum(map(len, model.classes)), len(families), len(with_condition)) == (17, 5, 1)
    searched = []
    real = rules.occurrences
    monkeypatch.setattr(
        rules, "occurrences", lambda *a, **k: searched.append(a[1]) or real(*a, **k)
    )
    assert list(enabled_outcomes(model.init, model)) == ["tick"]
    want = [f.redex for f in families.values()] + [f.condition for f in with_condition]
    assert sorted(map(id, searched)) == sorted(map(id, want))


@pytest.mark.parametrize(
    "name",
    ["pta", "cloud", "sensor", "cloud-family-3", "pta-family-8",
     "token-none-5", "token-pairs-4", "token-ring-4", "ports-and-sites",
     "condition-in-image"],
)
def test_enabled_outcomes_equal_per_entry_search(name):
    # one search per family, filtered per entry, and one condition search per
    # family give exactly the outcomes of a search per entry with the
    # condition searched per match, image excluded
    model = _model(name)
    mdp = explore(model)
    blocked = 0
    for agent in mdp.states:
        got = enabled_outcomes(agent, every_match(model))
        want = per_entry_enabled_outcomes(agent, model)
        assert list(got.items()) == list(want.items())
        blocked += not got
    if name == "condition-in-image":
        # C|A, A|A (fin blocked: a deadlock), C|B, A|B, B|B
        assert (mdp.n_states, blocked) == (5, 2)


def test_probabilities_are_correctly_rounded():
    # 1/6, 2/6 and 3/6 of the exact sum of 0.1, 0.2 and 0.3, each rounded
    # once; summing floats left to right gives 0.4999999999999999 for r3
    text = (
        "atomic ctrl A = 0;\natomic ctrl B = 0;\natomic ctrl C = 0;\natomic ctrl D = 0;\n"
        "react r1 = A -[0.1]-> B;\nreact r2 = A -[0.2]-> C;\nreact r3 = A -[0.3]-> D;\n"
        "big start = A;\n"
        "begin abrs\n  init start;\n  rules = [ {r1, r2, r3} ];\n"
        "  actions = [ go = {r1, r2, r3} ];\nend\n"
    )
    model = elaborate(parse(text))
    dist = explore(model).choices[0][0].dist
    assert [repr(p) for _t, p in dist] == [
        "0.16666666666666669", "0.33333333333333337", "0.5"
    ]
    total = Fraction(0.1) + Fraction(0.2) + Fraction(0.3)
    assert [p for _t, p in dist] == [float(Fraction(w) / total) for w in (0.1, 0.2, 0.3)]


@pytest.mark.parametrize("k", range(2, 11))
def test_tick_choice_is_exactly_one(k):
    # k! matches of one tick, each with share 1/k!, sum to exactly 1.0
    mdp = explore(elaborate(parse(tick_model(k))))
    assert [c.dist for cs in mdp.choices for c in cs] == [[(1, 1.0)], [(2, 1.0)], [(3, 1.0)]]


# four rules from one state, two of them to the same result
FOUR_WAY = """
atomic ctrl A = 0;
atomic ctrl B = 0;
atomic ctrl C = 0;
atomic ctrl D = 0;
react r1 = A -[1]-> B;
react r2 = A -[1]-> C;
react r3 = A -[1]-> D;
react r4 = A -[1]-> B;
big start = A;
begin abrs
  init start;
  rules = [ {r1, r2, r3, r4} ];
  actions = [ go = {r1, r2, r3, r4} ];
end
"""


@functools.cache
def _four_way():
    model = elaborate(parse(FOUR_WAY))
    return model.init, enabled_outcomes(model.init, model)["go"]


positive_weights = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7e308),
    st.sampled_from([1e-30, 0.1, 0.3, 1.0, 1e300, 1.7e308]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(positive_weights, st.integers(1, 40320)), min_size=4, max_size=4))
@example([(1.7e308, 1), (1.7e308, 2), (1e308, 1), (1.0, 1)])  # the float sum overflows
@example([(1e-30, 1), (1e300, 1), (1.0, 1), (1.0, 1)])  # r1's share underflows
@example([(0.1, 6), (0.2, 1), (0.3, 24), (0.1, 1)])
def test_probabilities_equal_exact_fractions(ws):
    agent, outcomes = _four_way()
    outcomes = [replace(oc, weight=w, multiplicity=m) for oc, (w, m) in zip(outcomes, ws)]
    exact = [Fraction(w) * m for w, m in ws]
    total = sum(exact)
    if any(float(Fraction(w) / total) == 0.0 for w, _m in ws):
        with pytest.raises(ParameterLimit, match="rounds to 0"):
            action_distribution(agent, outcomes, "go")
        return
    dist = action_distribution(agent, outcomes, "go")
    # B (r1 and r4), C, D in first-appearance order
    sums = [exact[0] + exact[3], exact[1], exact[2]]
    assert [p for _g, p in dist] == [float(x / total) for x in sums]
