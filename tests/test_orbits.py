"""Interchangeable redex entities matched once per orbit.

`enabled_outcomes` searches each family once per orbit of its
interchangeable redex entities (`Model.groups`) and lets each outcome stand
for its orbit's members.  The full match list, which the oracles use (a
model copy without groups, `tests/oracle.py::every_match`), is the
reference: the representatives are its orbit-first members, their
multiplicities count it, and the distributions built from them are equal
float for float.
"""

import math
import random
from dataclasses import replace

import pytest

from tickgraph import rules
from tickgraph.bigraph import Bigraph, Control
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
    shape = lambda g: (g.nodes, g.node_children, g.region_children, g.links)
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
        reps = [replace(oc, multiplicity=1) for oc in ocs]
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


def test_orbit_search_orders_images_by_entity_id():
    # the pattern lists its two A children in reverse id order, so the
    # search maps entity 2 before entity 1; the match kept must still be
    # the one whose images ascend with the entity id: the first by sort_key
    P, A = Control("P"), Control("A", atomic=True)
    pattern = Bigraph([(P, None), (A, None), (A, None)],
                      [[("n", 2), ("n", 1)], [], []], [[("n", 0)]], 0, [])
    agent = Bigraph([(P, None), (A, None), (A, None)],
                    [[("n", 1), ("n", 2)], [], []], [[("n", 0)]], 0, [])
    every = occurrences(agent, pattern)
    assert [m.nodes for m in every] == [(0, 1, 2), (0, 2, 1)]
    assert occurrences(agent, pattern, groups=((1, 2),)) == every[:1]


def test_tick9_data_is_the_generated_tick():
    assert (MODELS.parent / "tests" / "data" / "tick9.big").read_text() == tick_model(9)


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
