"""Interchangeable redex entities matched once per orbit.

`enabled_outcomes` searches each family once per orbit of its
interchangeable redex entities (`Model.groups`) and lets each outcome stand
for its orbit's members.  The full match list, which the oracles use (a
model copy without groups, `tests/oracle.py::every_match`), is the
reference: the representatives are its orbit-first members, their
multiplicities count it, and the distributions built from them are equal
float for float.
"""

import itertools
import math
import random

import pytest

from tickgraph import match, rules
from tickgraph.bigraph import Bigraph, Control, Link
from tickgraph.elaborate import elaborate, load_model
from tickgraph.lang import parse
from tickgraph.match import occurrences
from tickgraph.mdp import explore
from tickgraph.params import Var
from tickgraph.rules import action_distribution, enabled_outcomes

from .conftest import tick_model
from .oracle import every_match
from .test_cli import MODELS
from .test_rules import _perfbench_gen


def _model(name):
    kind, _, size = name.partition("-")
    if kind == "tick":
        return elaborate(parse(tick_model(int(size))))
    if kind == "cloud":
        if not size:
            return load_model(MODELS / "cloud.big")
        spec = _perfbench_gen().cloud_family(int(size), 0, random.Random(int(size)))
        return elaborate(parse(spec.text))
    return load_model(MODELS / f"{name}.big")


def _ascending(groups, nodes) -> bool:
    return all(nodes[a] < nodes[b] for g in groups for a, b in zip(g, g[1:]))


def _orbit_key(model, oc):
    """What the members of one orbit share: the family, the image of every
    entity outside the groups, each group's image set, and the value of
    every formal that no group member carries."""
    groups = model.groups.get(oc.rule.base, ())
    nodes = list(oc.match.nodes)
    for g in groups:
        for p, u in zip(g, sorted(nodes[p] for p in g)):
            nodes[p] = u
    carried = {
        param.name for g in groups for p in g
        if isinstance(param := oc.rule.redex.nodes[p][1], Var)
    }
    rest = tuple((v, x) for v, x in oc.match.binding if v not in carried)
    return oc.rule.base, tuple(nodes), rest


def _same_distribution(a, b) -> bool:
    shape = lambda g: (g.nodes, g.up, g.site_up, g.nregions, g.links)
    return [(shape(g), p) for g, p in a] == [(shape(g), p) for g, p in b]


def _check_orbits(model, agent):
    """Orbit outcomes against the full list in one state; returns the number
    of matches that orbits saved."""
    full = enabled_outcomes(agent, every_match(model))
    orbit = enabled_outcomes(agent, model)
    assert list(orbit) == list(full)
    saved = 0
    for action, ocs in orbit.items():
        members = full[action]
        by_orbit: dict[tuple, list] = {}
        for oc in members:
            by_orbit.setdefault(_orbit_key(model, oc), []).append(oc)
        # the representatives are the members whose images ascend inside
        # every group, in full-list order
        reps = [rules.Outcome(oc.rule, oc.match, oc.weight) for oc in ocs]
        assert reps == [
            oc for oc in members
            if _ascending(model.groups.get(oc.rule.base, ()), oc.match.nodes)
        ]
        for oc, rep in zip(ocs, reps):
            orbit_members = by_orbit[_orbit_key(model, oc)]
            assert orbit_members[0] == rep
            assert oc.multiplicity == len(orbit_members)
        for base in {oc.rule.base for oc in members}:
            assert sum(oc.multiplicity for oc in ocs if oc.rule.base == base) == sum(
                1 for oc in members if oc.rule.base == base
            )
        assert _same_distribution(action_distribution(agent, ocs),
                                  action_distribution(agent, members))
        saved += len(members) - len(ocs)
    return saved


ORBIT_MODELS = ["pta", "cloud", "sensor", "cloud-2", "cloud-3", "cloud-4", "cloud-5"] + [
    f"tick-{k}" for k in range(2, 8)
]


@pytest.mark.parametrize("name", ORBIT_MODELS)
def test_orbit_outcomes_stand_for_every_match(name):
    model = _model(name)
    saved = sum(_check_orbits(model, agent) for agent in explore(model).states)
    if name in ("pta", "sensor"):
        assert not model.groups and saved == 0
    else:
        assert saved > 0


@pytest.mark.parametrize("name", ["pta", "cloud", "cloud-3", "tick-5"])
def test_explore_equals_explore_over_every_match(name):
    model = _model(name)
    mdp = explore(model)
    ref = explore(every_match(model))
    assert mdp.canon == ref.canon
    assert [[(c.action, c.dist) for c in cs] for cs in mdp.choices] == [
        [(c.action, c.dist) for c in cs] for cs in ref.choices
    ]


def test_cloud_tick_is_one_outcome_for_24_matches():
    model = _model("cloud")
    assert model.groups == {"clock_advance": ((1, 2, 3, 4),)}
    (tick,) = enabled_outcomes(model.init, model)["tick"]
    assert tick.multiplicity == 24
    assert len(enabled_outcomes(model.init, every_match(model))["tick"]) == 24


def test_eight_clock_tick_matches_once_per_state(monkeypatch):
    model = _model("tick-8")
    found = []
    real = rules.occurrences
    monkeypatch.setattr(
        rules, "occurrences", lambda *a, **k: found.append(real(*a, **k)) or found[-1]
    )
    mdp = explore(model)
    assert (mdp.n_states, mdp.n_choices, mdp.n_transitions) == (4, 3, 3)
    # one match per state where the tick is enabled, none at clock value 3
    assert [len(ms) for ms in found] == [1, 1, 1, 0]
    # the full search finds every order of the same eight clocks
    (group,) = model.groups["clock_advance"]
    search = model.searches["clock_advance"]
    for agent, ms in zip(mdp.states, found):
        every = real(agent, search.body, domains=search.match_domains)
        assert len(every) == math.factorial(8) * len(ms)
        assert ms == [m for m in every if _ascending((group,), m.nodes)][:1]


def _plan_in(monkeypatch, order):
    """Make every search map entity 0 first, then its children in `order`."""
    steps = [(0, "all", None)] + [(p, "kids", 0) for p in order]
    monkeypatch.setattr(match, "_plan", lambda *args: steps)


def test_orbit_search_orders_images_by_entity_id(monkeypatch):
    # the plan maps the two A children in reverse id order, entity 2 before
    # entity 1; the match kept must still be the one whose images ascend
    # with the entity id: the first by sort_key
    P, A = Control("P"), Control("A", atomic=True)
    pattern = Bigraph([(P, None), (A, None), (A, None)], [~0, 0, 0], [], 1, [])
    agent = Bigraph([(P, None), (A, None), (A, None)], [~0, 0, 0], [], 1, [])
    _plan_in(monkeypatch, (2, 1))
    every = occurrences(agent, pattern)
    assert [m.nodes for m in every] == [(0, 1, 2), (0, 2, 1)]
    assert occurrences(agent, pattern, groups=((1, 2),)) == every[:1]


@pytest.mark.parametrize("order", list(itertools.permutations((1, 2, 3))))
def test_orbit_search_prunes_by_entity_id_in_any_search_order(monkeypatch, order):
    # the plan maps the A children of the pattern P.(A | A | A | id) in
    # `order`; the agent's P holds five A children and a B.  Each kept
    # match is the one of its orbit whose images ascend with the entity id,
    # none is lost to the bounds or to the room that the later members
    # need, and the search enters no prefix that does not extend to a kept
    # match
    P, A, B = Control("P"), Control("A", atomic=True), Control("B", atomic=True)
    pattern = Bigraph([(P, None)] + [(A, None)] * 3, [~0, 0, 0, 0], [0], 1, [])
    nodes = [(P, None), (A, None), (A, None), (B, None), (A, None), (A, None), (A, None)]
    agent = Bigraph(nodes, [~0] + [0] * 6, [], 1, [])
    _plan_in(monkeypatch, order)
    every = occurrences(agent, pattern)
    assert len(every) == 5 * 4 * 3
    entered = []
    real = match._Search._assign
    monkeypatch.setattr(match._Search, "_assign",
                        lambda self, idx: entered.append(idx) or real(self, idx))
    kept = occurrences(agent, pattern, groups=((1, 2, 3),))
    assert kept == [m for m in every if _ascending(((1, 2, 3),), m.nodes)]
    assert len(kept) == 10
    search_order = (0,) + order
    prefixes = {tuple(m.nodes[p] for p in search_order[:d]) for m in kept for d in range(5)}
    assert len(entered) == len(prefixes)


def test_orbit_search_counts_a_member_found_by_edge_among_its_control():
    # R{y1,y2} || P.(A{y1} | A{y2}): ports are unordered, so a swap of the
    # A children with y1 and y2 maps the pattern onto itself.  The search
    # starts at R, the one entity of the rarest control, and finds the first
    # A on y1's image.  With y1 on the edge of A 1, the later A is A 2, which
    # is not on that edge: counted among that edge's A entities only, the
    # room it needs above would drop A 1 and lose the match kept
    R = Control("R", arity=2, atomic=True)
    P, A = Control("P"), Control("A", arity=1, atomic=True)
    pattern = Bigraph([(R, None), (P, None), (A, None), (A, None)], [~0, ~1, 1, 1], [], 2,
                      [Link("y1", ((0, 0), (2, 0))), Link("y2", ((0, 1), (3, 0)))])
    agent = Bigraph([(P, None), (A, None), (A, None), (R, None)], [~0, 0, 0, ~0], [], 1,
                    [Link("e0", ((3, 0), (2, 0))), Link("e1", ((3, 1), (1, 0)))])
    every = occurrences(agent, pattern)
    assert len(every) == 2
    kept = occurrences(agent, pattern, groups=((2, 3),))
    assert kept == [m for m in every if _ascending(((2, 3),), m.nodes)]
    assert len(kept) == 1
    # one plan, with and without the group (the group shapes only its bounds)
    steps = match._plan(pattern, pattern._tables, match.Tally(agent).counts)
    assert [(p, source) for p, source, *_ in steps] == [
        (0, "all"), (2, "edge"), (1, "up"), (3, "kids")]


@pytest.mark.parametrize("k", [16, 30])
def test_many_clock_tick_is_linear_in_the_clocks(monkeypatch, k):
    # one comparison per clock finds the group, and the matcher never
    # enters a prefix that leaves too few clocks for the rest of the group
    calls = {"interchangeable": 0, "assign": 0}

    def counted(name, real, limit):
        def call(*args):
            calls[name] += 1
            assert calls[name] <= limit, f"more than {limit} {name} calls"
            return real(*args)
        return call

    monkeypatch.setattr(rules, "_interchangeable",
                        counted("interchangeable", rules._interchangeable, k - 1))
    model = _model(f"tick-{k}")
    assert calls["interchangeable"] == k - 1
    assert model.groups == {"clock_advance": (tuple(range(1, k + 1)),)}
    monkeypatch.setattr(match._Search, "_assign",
                        counted("assign", match._Search._assign, 10 * k))
    mdp = explore(model)
    assert (mdp.n_states, mdp.n_choices, mdp.n_transitions) == (4, 3, 3)


def test_tick9_data_is_the_generated_tick():
    assert (MODELS.parent / "tests" / "data" / "tick9.big").read_text() == tick_model(9)


def test_tick30_data_is_the_generated_tick():
    assert (MODELS.parent / "tests" / "data" / "tick30.big").read_text() == tick_model(30)


# --- look-alike siblings that must not be collapsed ----------------------------

LOOKALIKES = """
ctrl P = 0;
ctrl B = 0;
atomic ctrl A = 1;
atomic ctrl Q = 1;
atomic ctrl C = 0;
atomic fun ctrl X(n) = 1;
{react}
big start = /x/y/z/w (P.(A{{x}} | A{{y}} | X(0){{z}} | X(0){{w}} | B.1 | B.1 | C) || Q{{x}});
begin abrs
  int s = {{0,1}};
  int u = {{0}};
  int v = {{1}};
  init start;
  rules = [ {rules} ];
  actions = [ go = {{f}} ];
end
"""

# name: (rule with interchangeable siblings, the rule with a difference that
# must keep them apart, priority classes)
CASES = {
    "linked": (
        "react f = P.(A{a} | A{b} | C | id) -[1]-> P.(A{a} | A{b} | id);",
        "react f = P.(A{a} | A{b} | C | id) || Q{a} -[1]-> P.(A{a} | A{b} | id) || Q{a};",
        "{f}",
    ),
    "steps": (
        "fun react f(n, m) = P.(X(n){c} | X(m){d} | id) -[1]-> P.(X(n + 1){c} | X(m + 1){d} | id);",
        "fun react f(n, m) = P.(X(n){c} | X(m){d} | id) -[1]-> P.(X(n + 1){c} | X(m + 2){d} | id);",
        "{f(s, s)}",
    ),
    "site": (
        "react f = P.(B.1 | B.1 | C | id) -[1]-> P.(B.1 | B.1 | id);",
        "react f = P.(B.1 | B.id | C | id) -[1]-> P.(B.1 | B.id | id);",
        "{f}",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_lookalike_siblings_are_not_collapsed(case):
    alike, different, classes = CASES[case]
    model = elaborate(parse(LOOKALIKES.format(react=alike, rules=classes)))
    (group,) = model.groups["f"]
    assert len(group) == 2
    for agent in explore(model).states:
        _check_orbits(model, agent)
    model = elaborate(parse(LOOKALIKES.format(react=different, rules=classes)))
    assert model.groups == {}
    for agent in explore(model).states:
        _check_orbits(model, agent)


def test_unequal_domains_across_entries_are_not_collapsed():
    # f(u, v) and f(v, u) swap into each other's entry, one class apart: in
    # the state X(0) X(1) only the first class fires, with one match
    react = ("fun react f(n, m) = P.(X(n){c} | X(m){d} | id)"
             " -[1]-> P.(X(n + 1){c} | X(m + 1){d} | id);")
    text = LOOKALIKES.replace("X(0){{w}}", "X(1){{w}}")
    model = elaborate(parse(text.format(react=react, rules="{f(s, s)}")))
    assert len(model.groups["f"]) == 1
    model = elaborate(parse(text.format(react=react, rules="{f(u, v)}, {f(v, u)}")))
    assert model.groups == {}
    (oc,) = enabled_outcomes(model.init, model)["go"]
    assert (oc.match.binding, oc.multiplicity) == ((("m", 1), ("n", 0)), 1)
    for agent in explore(model).states:
        _check_orbits(model, agent)
