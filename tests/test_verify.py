import logging
import pathlib
import random
import re

import numpy as np
import pytest

from tests import oracle
from tickgraph import verify
from tickgraph.elaborate import ElabError, elaborate, load_model
from tickgraph.kernels import Graph, as_arrays, sweep
from tickgraph.lang import ParseError, parse
from tickgraph.mdp import Choice, Mdp, add_stall_loops, explore
from tickgraph.verify import (
    ForcedNext,
    Inevitable,
    Pattern,
    Reach,
    Safety,
    UnknownLabel,
    check,
    label,
    parse_properties,
    reach_prob,
    reach_vector,
    satisfying,
    zero_one,
)


MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def tiny_mdp(choices, n=None, labels=None):
    n = n if n is not None else len(choices)
    mdp = Mdp(
        states=[None] * n,
        canon=[str(i).encode() for i in range(n)],
        choices=choices,
        actions=["a", "b"],
        labels=labels,
    )
    mdp.label_names = {nm for ls in mdp.labels for nm in ls}
    return mdp


def test_two_state_chain():
    mdp = tiny_mdp(
        [
            [Choice("a", [(1, 1.0)])],
            [],
        ],
        labels=[set(), {"goal"}],
    )
    e = ("name", "goal")
    assert reach_prob(mdp, e, "min") == 1.0
    assert reach_prob(mdp, e, "max") == 1.0


def test_min_le_max_and_dtmc_equality():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(2, 8)
        choices = []
        for s in range(n):
            cs = []
            for _c in range(rng.randint(0, 2)):
                k = rng.randint(1, 3)
                tgts = [rng.randrange(n) for _ in range(k)]
                ws = [rng.random() + 0.05 for _ in range(k)]
                z = sum(ws)
                cs.append(Choice("a", [(t, w / z) for t, w in zip(tgts, ws)]))
            choices.append(cs)
        labels = [set() for _ in range(n)]
        labels[rng.randrange(n)] = {"goal"}
        mdp = tiny_mdp(choices, labels=labels)
        e = ("name", "goal")
        lo = np.asarray(reach_vector(mdp, satisfying(mdp, e), "min"))
        hi = np.asarray(reach_vector(mdp, satisfying(mdp, e), "max"))
        assert np.all(lo <= hi + 1e-9)
        # single-choice version: min and max coincide
        single = tiny_mdp(
            [cs[:1] for cs in choices], labels=labels
        )
        lo1 = np.asarray(reach_vector(single, satisfying(single, e), "min"))
        hi1 = np.asarray(reach_vector(single, satisfying(single, e), "max"))
        assert np.allclose(lo1, hi1, atol=1e-9)


def test_weighted_bias_reaches_point_seven(sensor_model_prog):
    mdp = explore(sensor_model_prog)
    label(mdp, [Pattern(n, b) for n, b in sensor_model_prog.predicates])
    v = reach_prob(mdp, ("name", "data_at_b"), "max")
    assert abs(v - 0.7) < 1e-9
    assert abs(reach_prob(mdp, ("name", "data_at_b"), "min") - 0.7) < 1e-9


def test_renumbering_invariance():
    # permute states of a small MDP; initial-state value must not change
    mdp = tiny_mdp(
        [
            [Choice("a", [(1, 0.5), (2, 0.5)])],
            [Choice("a", [(1, 1.0)])],
            [],
        ],
        labels=[set(), set(), {"goal"}],
    )
    e = ("name", "goal")
    base = reach_prob(mdp, e, "max")
    perm = {0: 0, 1: 2, 2: 1}
    mdp2 = tiny_mdp(
        [
            [Choice("a", [(2, 0.5), (1, 0.5)])],
            [],
            [Choice("a", [(2, 1.0)])],
        ],
        labels=[set(), {"goal"}, set()],
    )
    assert abs(base - reach_prob(mdp2, e, "max")) < 1e-12
    assert abs(base - 0.5) < 1e-12


def test_pta_properties(pta_model_prog):
    mdp = explore(pta_model_prog)
    label(mdp, [Pattern(n, b) for n, b in pta_model_prog.predicates])

    done = ("name", "in_Done_state")
    assert reach_prob(mdp, done, "min") == 1.0

    v = check(mdp, Reach(">=", 0.99, done, "min"))
    assert v.holds and abs(v.value - 1.0) < 1e-9

    done_and_reset = ("and", done, ("name", "clock_X_0"))
    assert check(mdp, Reach(">=", 0.99, done_and_reset, "min")).holds

    bad = ("and", ("name", "in_Wait_state"), ("name", "clock_X_9"))
    v3 = check(mdp, Safety(bad))
    assert v3.holds and v3.value == 0.0

    # a property that fails, with its computed probability
    v4 = check(mdp, Reach(">=", 1.0, ("name", "in_Wait_state"), "min"))
    assert not v4.holds
    assert abs(v4.value - 0.01) < 1e-9


def test_forced_next():
    def forced(trigger_choices):
        mdp = tiny_mdp(
            [[Choice("a", [(1, 1.0)])], trigger_choices, []],
            labels=[set(), {"trig"}, {"done"}],
        )
        return check(mdp, ForcedNext(("name", "trig"), ("name", "done")))

    assert forced([Choice("go", [(2, 1.0)])]).holds
    # an escaping choice: no longer forced
    assert not forced([Choice("go", [(2, 1.0)]), Choice("other", [(0, 1.0)])]).holds


def test_forced_next_needs_inevitable_trigger():
    mdp = tiny_mdp(
        [
            [Choice("a", [(1, 0.5), (2, 0.5)])],
            [Choice("go", [(2, 1.0)])],
            [],
        ],
        labels=[set(), {"trig"}, {"done"}],
    )
    v = check(mdp, ForcedNext(("name", "trig"), ("name", "done")))
    assert not v.holds and "inevitable" in v.detail


def test_unknown_label_rejected(pta_model_prog):
    mdp = explore(pta_model_prog)
    label(mdp, [Pattern(n, b) for n, b in pta_model_prog.predicates])
    with pytest.raises(UnknownLabel):
        check(mdp, Inevitable(("name", "nonsense")))


def test_label_assigns_expected_sets(pta_model_prog):
    mdp = explore(pta_model_prog)
    label(mdp, [Pattern(n, b) for n, b in pta_model_prog.predicates])
    assert mdp.labels[0] == {"in_Init_state", "clock_X_0"}
    done_states = [s for s in range(mdp.n_states) if "in_Done_state" in mdp.labels[s]]
    assert len(done_states) == 1
    assert "clock_X_0" in mdp.labels[done_states[0]]


def instance_labels(mdp, model):
    """Per state, the predicate instances whose concrete body occurs there,
    found by the brute-force matcher, one instance at a time."""
    return [
        {n for n, body in model.predicates if oracle.brute_occurrences(g, body)}
        for g in mdp.states
    ]


@pytest.mark.parametrize("name, families", [("pta", 5), ("cloud", 4), ("sensor", 2)])
def test_family_labels_equal_instance_labels(name, families):
    model = load_model(MODELS / f"{name}.big")
    assert len(model.patterns) == families
    mdp = label(explore(model), model.patterns)
    assert mdp.labels == instance_labels(mdp, model)
    assert mdp.label_names == {n for n, _b in model.predicates}


FAMILIES = """
atomic fun ctrl X(n) = 0;
fun react bump(n) = X(n) -[1]-> X(n + 1);
fun big next_is(m) = X(m + 1);
fun big any_x(m) = X(2);
fun big pair(m) = X(m) | X(m);
fun big at(m) = X(m);
big start = X(0) | X(0) | X(1);
begin abrs
  int k = {0,1,2};
  int m = {0,1,2};
  init start;
  rules = [ {bump(k)} ];
  actions = [ a = {bump} ];
  preds = { next_is(m), next_is(3), any_x(m), pair(m), at(3)PREDS };
end
"""


def test_family_kinds_label_like_instances():
    model = elaborate(parse(FAMILIES.replace("PREDS", "")))
    # arithmetic: one plain pattern per valuation; the rest stay families
    assert [(p.name, p.formal, p.domains) for p in model.patterns] == [
        ("next_is_0", (), ()),
        ("next_is_1", (), ()),
        ("next_is_2", (), ()),
        ("next_is_3", (), ()),
        ("any_x", ("m",), ((0, 1, 2),)),
        ("pair", ("m",), ((0, 1, 2),)),
        ("at", ("m",), ((3,),)),
    ]
    mdp = label(explore(model), model.patterns)
    assert mdp.labels == instance_labels(mdp, model)
    assert mdp.labels[0] == {"next_is_0", "pair_0"}
    anys = {"any_x_0", "any_x_1", "any_x_2"}
    for g, names in zip(mdp.states, mdp.labels):
        values = sorted(p for _c, p in g.nodes)
        assert (anys <= names) == (2 in values)
        assert ("at_3" in names) == (3 in values)
        assert {n for n in names if n.startswith("pair_")} == {
            f"pair_{v}" for v in set(values) if values.count(v) >= 2 and v <= 2
        }


def test_predicate_name_collision_has_position():
    # a plain big named like an instance of the any_x family
    text = FAMILIES.replace("PREDS", ", any_x_1").replace("big start", "big any_x_1 = X(1);\nbig start")
    with pytest.raises(ElabError, match="predicate any_x_1 defined twice") as info:
        elaborate(parse(text))
    lines = text.splitlines()
    line = next(i for i, ln in enumerate(lines, 1) if "preds" in ln)
    assert info.value.pos == (line, lines[line - 1].index("any_x_1") + 1)
    assert str(info.value).startswith(f"{line}:")


def test_pattern_checks_its_parameters():
    from tickgraph.bigraph import Control
    from tickgraph.params import Arith, Var

    from .algebra import ion

    x = Control("X", atomic=True, parameterised=True)
    with pytest.raises(ValueError, match=r"unbound parameters \['m'\]"):
        Pattern("p", ion(x, param=Var("m")))
    with pytest.raises(ValueError, match="0 domain"):
        Pattern("p", ion(x, param=Var("m")), ("m",))
    with pytest.raises(ValueError, match="empty domain"):
        Pattern("p", ion(x, param=Var("m")), ("m",), ((),))
    fam = Pattern("p", ion(x, param=Arith("+", Var("m"), 1)), ("m",), ((0, 1),))
    assert [(n, b.nodes[0][1]) for n, b in fam.instances()] == [("p_0", 1), ("p_1", 2)]
    mdp = tiny_mdp([[]])
    mdp.states = [ion(x, param=1)]
    with pytest.raises(ValueError, match="arithmetic"):
        label(mdp, [fam])
    assert label(mdp, [Pattern(n, b) for n, b in fam.instances()]).labels == [{"p_0"}]


def test_label_logs_one_line(caplog):
    model = load_model(MODELS / "pta.big")
    mdp = explore(model)
    with caplog.at_level(logging.INFO, logger="tickgraph"):
        label(mdp, model.patterns)
    (msg,) = [r.getMessage() for r in caplog.records if r.name == "tickgraph.verify"]
    # every state matches one location pattern and one clock value
    assert msg.startswith("label: 14 states, 5 patterns, 70 searches, 28 matches, ")
    assert msg.endswith(" s")


# ---------------------------------------------------------------------------
# property grammar


def test_parse_properties_full_grammar():
    text = """
# properties for the send model
P >= 0.99 [ F "in_Done_state" ]
P >= 0.99 [ F ("in_Done_state" & "clock_X_0") ]
A [ G !("in_Wait_state" & "clock_X_9") ]
A [ F "goal" ]
FORCEDNEXT "t" -> "n"
E [ F "x" ]
P < 0.5 [ F !"a" | "b" ]
"""
    props = parse_properties(text)
    assert [type(p).__name__ for p in props] == [
        "Reach",
        "Reach",
        "Safety",
        "Inevitable",
        "ForcedNext",
        "Reach",
        "Reach",
    ]
    assert props[0].mode == "min" and props[0].p == 0.99
    assert props[2].bad == ("and", ("name", "in_Wait_state"), ("name", "clock_X_9"))
    assert props[5].mode == "max" and props[5].bound == ">"
    assert props[6].mode == "max"


def test_parse_property_errors():
    cases = [
        ('P >= 0.5 [ G "a" ]', "1:12: found 'G' (expected F)"),
        ('A [ G "a" ]', "1:7: A [ G ... ] takes a negated expression (expected !)"),
        ("WHAT", "1:1: found 'WHAT' (expected P, E, A, FORCEDNEXT)"),
        ('P >= 0.5 [ F "a" ] junk', "1:20: trailing input 'junk'"),
        ('A [ F "a"', "1:10: found 'end of input' (expected ])"),
        ('E [ F "a ]', "1:7: unterminated string"),
        ('# two\n\n  P >= 0.5 [ F "a" | @ ]', "3:22: unexpected character '@'"),
    ]
    for text, msg in cases:
        with pytest.raises(ParseError) as info:
            parse_properties(text)
        assert str(info.value) == msg


def test_nested_parentheses_are_read_without_recursion():
    # each '(' was one lexpr/lterm/lfactor frame triple
    body = '"a" & !("b" | "c") | "d"'
    (deep,) = parse_properties(f"P >= 0.5 [ F {'(' * 3000}{body}{')' * 3000} ]")
    (plain,) = parse_properties(f"P >= 0.5 [ F {body} ]")
    assert deep.target == plain.target
    (deep,) = parse_properties(f"A [ G !{'(' * 3000}{body}{')' * 3000} ]")
    assert deep.bad == plain.target
    cases = [  # the positions the recursive reader gave
        ('P >= 0.5 [ F (("a") ]', "1:21: found ']' (expected ))"),
        ('A [ G !(("a" & ) ]', "1:16: found ')' (expected quoted pattern name)"),
        ('A [ G !"a" & "b" ]', "1:12: found '&' (expected ])"),
        ('E [ F ("a" | ("b" "c")) ]', """1:19: found '"c"' (expected ))"""),
    ]
    for text, msg in cases:
        with pytest.raises(ParseError) as info:
            parse_properties(text)
        assert str(info.value) == msg


@pytest.mark.parametrize("bound", ["2", "1.5", "1.0000001"])
def test_probability_bound_outside_unit_interval(bound):
    with pytest.raises(ParseError) as info:
        parse_properties(f'A [ F "a" ]\nP <= {bound} [ F "a" ]')
    assert (info.value.line, info.value.col) == (2, 6)
    assert f"probability bound {bound} is outside [0, 1]" in str(info.value)
    (prop,) = parse_properties('P <= 1 [ F "a" ]  # a comment')
    assert (prop.p, prop.source) == (1.0, 'P <= 1 [ F "a" ]')


# ---------------------------------------------------------------------------
# the SCC-ordered solver against the reference solver in tests/oracle.py


def _dist(rng, targets):
    ws = [rng.random() + 0.05 for _ in targets]
    z = sum(ws)
    return [(t, w / z) for t, w in zip(targets, ws)]


def random_mdp(rng):
    """Any shape: deadlocks, target states with choices, pure self-loop
    choices, empty distributions and distributions naming one target twice."""
    n = rng.randint(1, 10)
    choices = []
    for s in range(n):
        cs = []
        for _c in range(rng.choice((0, 1, 1, 2, 2, 3))):
            if rng.random() < 0.05:
                cs.append(("a", []))
            elif rng.random() < 0.1:
                cs.append(("a", [(s, 1.0)]))
            else:
                cs.append(("a", _dist(rng, [rng.randrange(n) for _ in range(rng.randint(1, 4))])))
        choices.append(cs)
    target = [rng.random() < 0.25 for _ in range(n)]
    return choices, target


def scc_sequence(rng):
    """Cyclic blocks in sequence: each block is a ring with extra edges
    inside it, and some choices leave for a later block or either sink.
    Some states also have a choice with an empty distribution."""
    sizes = [rng.randint(2, 5) for _ in range(rng.randint(2, 4))]
    n = sum(sizes) + 2
    goal, fail = n - 2, n - 1
    choices, start = [], 0
    for size in sizes:
        block = list(range(start, start + size))
        later = list(range(start + size, n))
        for i, s in enumerate(block):
            cs = [("a", _dist(rng, [block[(i + 1) % size], rng.choice(block)]))]
            for _c in range(rng.randint(0, 2)):
                cs.append(("b", _dist(rng, [rng.choice(block), rng.choice(later), rng.choice(later)])))
            if rng.random() < 0.1:
                cs.insert(rng.randint(0, len(cs)), ("c", []))
            choices.append(cs)
        start += size
    choices += [[], []]
    return choices, [s == goal for s in range(n)]


def retry_chain(rng, n=None):
    """State i moves on, retries (a self-loop) or fails; the last state is
    the goal.  Some states also get a pure self-loop choice."""
    n = n or rng.randint(2, 30)
    fail = n
    choices = []
    for s in range(n):
        if s == n - 1:
            choices.append([])
            continue
        r, f = rng.uniform(0.05, 0.9), rng.uniform(0.0, 0.05)
        cs = [("safe", [(s + 1, 1 - r - f), (s, r), (fail, f)]), ("fast", [(s + 1, 0.9), (fail, 0.1)])]
        if rng.random() < 0.2:
            cs.append(("stay", [(s, 1.0)]))
        choices.append(cs)
    choices.append([])
    return choices, [s == n - 1 for s in range(n + 1)]


def as_mdp(choices):
    return tiny_mdp([[Choice(a, d) for a, d in cs] for cs in choices])


@pytest.mark.parametrize("make", [random_mdp, scc_sequence, retry_chain])
def test_solver_matches_reference(make, monkeypatch):
    # Stopping at a sweep that moves no value by 1e-9 leaves errors of up to
    # 2e-7 on slowly mixing SCCs here (the state-order Gauss-Seidel solver
    # this one replaced did the same): that rule bounds no error.  Iterate
    # further so that the comparison checks the SCC order and closed forms.
    monkeypatch.setattr(verify, "VI_TOL", 1e-14)
    rng = random.Random(make.__name__)
    for _ in range(200):
        choices, target = make(rng)
        g = Graph(*as_arrays(as_mdp(choices).choices))
        for mode in ("min", "max"):
            zero, one = zero_one(g, target, mode)
            want_zero, want_one = oracle.zero_one_sets(choices, target, mode)
            assert {s for s, z in enumerate(zero) if z} == want_zero
            assert {s for s, o in enumerate(one) if o} == want_one
            got = np.asarray(reach_vector(as_mdp(choices), target, mode))
            want = oracle.gauss_seidel(choices, target, mode)
            assert np.allclose(got, want, rtol=0.0, atol=1e-8), (choices, target, mode)


def test_sweep_matches_reference():
    # one SCC: every state moves to a random state, the goal or the fail sink
    rng = random.Random(11)
    n = 50
    choices = [
        [("a", _dist(rng, [rng.randrange(n), rng.randrange(n), n, n + 1])) for _c in range(rng.randint(1, 3))]
        for _s in range(n)
    ] + [[], []]
    target = [s == n for s in range(n + 2)]
    choice_ptr, trans_ptr, targets, probs = map(np.asarray, as_arrays(as_mdp(choices).choices))
    states = np.arange(n)
    for mode in ("min", "max"):
        values = np.zeros(n + 2)
        values[n] = 1.0
        while sweep(values, states, mode == "min", choice_ptr[:n], trans_ptr[: choice_ptr[n]],
                    targets, probs) >= 1e-14:
            pass
        assert np.allclose(values, oracle.gauss_seidel(choices, target, mode), rtol=0.0, atol=1e-12)


def _count_sweeps(monkeypatch, choices, target, mode):
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return sweep(*args)

    monkeypatch.setattr(verify, "sweep", counting)
    reach_vector(as_mdp(choices), target, mode)
    return calls[0]


def test_only_cyclic_sccs_sweep(monkeypatch):
    rng = random.Random(3)
    # acyclic and layered: every choice moves one layer on
    width, layers = 20, 10
    n = width * layers
    layered = [
        [("a", _dist(rng, rng.sample(range((s // width + 1) * width, (s // width + 2) * width), 3)))
         for _c in range(2)]
        if s < n - width else []
        for s in range(n)
    ]
    goal = [s >= n - width and s % 2 == 0 for s in range(n)]
    chain, chain_goal = retry_chain(rng, 4000)
    # a ring whose every choice leaks to the goal and the fail sink
    ring = [
        [("a", _dist(rng, [(s + 1) % 30, rng.randrange(30), 30, 31])) for _c in range(2)]
        for s in range(30)
    ]
    cyclic, cyclic_goal = ring + [[], []], [s == 30 for s in range(32)]
    for mode in ("min", "max"):
        assert _count_sweeps(monkeypatch, layered, goal, mode) == 0
        assert _count_sweeps(monkeypatch, chain, chain_goal, mode) == 0
        assert _count_sweeps(monkeypatch, cyclic, cyclic_goal, mode) > 1


def test_non_convergence_names_the_scc(monkeypatch):
    # states 1 and 2 form a cycle that leaks to the goal 3 and the sink 4
    choices = [
        [("a", [(1, 1.0)])],
        [("a", [(2, 0.5), (3, 0.25), (4, 0.25)])],
        [("a", [(1, 0.5), (3, 0.25), (4, 0.25)])],
        [],
        [],
    ]
    monkeypatch.setattr(verify, "VI_MAX_SWEEPS", 1)
    msg = r"within 1 sweeps on an SCC of 2 states \(lowest state 1\) with actions a$"
    with pytest.raises(RuntimeError, match=msg):
        reach_vector(as_mdp(choices), [s == 3 for s in range(5)], "max")


def _pred_reference(choices):
    """The predecessor CSR by sorting (target, transition) pairs."""
    entries, choice_state = [], []
    k = 0
    for s, cs in enumerate(choices):
        for _a, dist in cs:
            for t, _p in dist:
                entries.append((t, k, len(choice_state), s))
                k += 1
            choice_state.append(s)
    entries.sort()
    ptr = [sum(1 for e in entries if e[0] < t) for t in range(len(choices) + 1)]
    return ptr, [e[2] for e in entries], [e[3] for e in entries], choice_state


def test_predecessor_csr_matches_sorted_reference():
    rng = random.Random("pred-csr")
    seen = {"twice": 0, "deadlock": 0, "empty": 0}
    for _ in range(300):
        choices, _target = random_mdp(rng)
        seen["deadlock"] += any(not cs for cs in choices)
        seen["empty"] += any(not d for cs in choices for _a, d in cs)
        seen["twice"] += any(len({t for t, _p in d}) < len(d) for cs in choices for _a, d in cs)
        g = Graph(*as_arrays(as_mdp(choices).choices))
        assert (g.pred_ptr, g.pred_choice, g.pred_state, g.choice_state) == _pred_reference(
            choices
        ), choices
    # every case the counting sort must order stably occurred
    assert min(seen.values()) > 0, seen


def test_graph_holds_python_lists():
    choices = [[("a", [(1, 0.5), (1, 0.25), (2, 0.25)])], [], [("a", [])]]
    g = Graph(*as_arrays(as_mdp(choices).choices))
    for name in ("choice_ptr", "trans_ptr", "targets", "probs", "choice_state",
                 "pred_ptr", "pred_choice", "pred_state"):
        assert type(getattr(g, name)) is list, name
    assert (g.pred_ptr, g.pred_choice) == ([0, 0, 2, 3], [0, 0, 0])
    values = reach_vector(as_mdp(choices), [False, False, True], "max")
    assert values == [0.25, 0.0, 1.0] and all(type(v) is float for v in values)


def test_queries_on_one_mdp_share_one_graph(monkeypatch):
    built = []

    class CountingGraph(Graph):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(verify, "Graph", CountingGraph)
    # state 0 moves to the deadlocks 1 and the goal 2
    mdp = tiny_mdp([[Choice("a", [(1, 0.5), (2, 0.5)])], [], []],
                   labels=[set(), set(), {"goal"}])
    props = parse_properties('P >= 0.5 [ F "goal" ]\nP <= 0.5 [ F "goal" ]\n'
                             'A [ F "goal" ]\nA [ G ! "goal" ]\n')
    before = [check(mdp, prop) for prop in props]
    reach_vector(mdp, [True, False, False], "max")
    assert len(built) == 1 and mdp._graph is built[0]
    assert add_stall_loops(mdp) == 2 and mdp._graph is None
    # the next query builds a graph that holds the stall loops
    assert [check(mdp, prop) for prop in props] == before
    assert len(built) == 2 and mdp._graph is built[1]
    assert (built[1].choice_ptr, built[1].targets) == ([0, 1, 2, 3], [1, 2, 1, 2])


def test_reach_vector_logs_one_line_per_query(monkeypatch, caplog):
    # states 1 and 2 form a cyclic SCC that leaks to the goal 3 and the sink 4
    choices = [
        [("a", [(1, 1.0)])],
        [("a", [(2, 0.5), (3, 0.25), (4, 0.25)])],
        [("a", [(1, 0.5), (3, 0.25), (4, 0.25)])],
        [],
        [],
    ]
    target = [s == 3 for s in range(5)]
    for mode in ("min", "max"):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="tickgraph.verify"):
            sweeps = _count_sweeps(monkeypatch, choices, target, mode)
        (line,) = [r.getMessage() for r in caplog.records]
        assert re.fullmatch(
            rf"reach P{mode}: 5 states, 1 zero, 1 one, 2 SCCs \(1 cyclic\), "
            rf"{sweeps} sweeps, \d+\.\d{{3}} s",
            line,
        ), line
        assert sweeps > 1
