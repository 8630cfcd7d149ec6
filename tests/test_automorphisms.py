"""Automorphisms recorded with canonical forms, and the outcomes they skip.

`canonical_form` keeps generators of automorphisms of every bigraph it
encodes (`Bigraph._autos`): swaps of equal sibling subtrees, and the maps
that two equal leaves of the search reveal.  `rules._successors` uses them
to apply one outcome per orbit.  The checks here are structural: each
generator must map its bigraph onto itself, entity by entity and link by
link, and each outcome's own result must be isomorphic to the result it
joined.  `tests/oracle.py::reference_action_distribution`, which applies
every new effect of every match and sums the weights as fractions, is the
reference the distributions must equal bit for bit.
"""

import random
from collections import Counter

import pytest

from tickgraph import rules
from tickgraph.bigraph import Bigraph
from tickgraph.canon import canonical_form
from tickgraph.elaborate import elaborate, load_model
from tickgraph.lang import parse
from tickgraph.match import Match
from tickgraph.mdp import explore
from tickgraph.rules import action_distribution, apply, enabled_outcomes

from .algebra import merge, parallel
from .conftest import token_model
from .oracle import every_generator_orbit, every_match, reference_action_distribution
from .test_canon import near_symmetric, random_bigraph, weakly_refined
from .test_cli import MODELS, _deep_model

TOKENS = [f"none-{k}" for k in range(2, 9)] + [f"pairs-{k}" for k in (2, 4, 6, 8)] + [
    f"ring-{k}" for k in range(3, 9)
]


def _model(name: str):
    if name in ("pta", "cloud", "sensor"):
        return load_model(MODELS / f"{name}.big")
    links, k = name.split("-")
    if links == "marked":
        # a ring whose move leaves a mark on the token's first link only:
        # exchanging the agent edges of `a` and `b` changes the result
        text = token_model(int(k), "ring").replace(
            "Out.(Tok{a,b} | id);", "Out.(Tok{a,b} | Mark{a} | id);"
        )
        return elaborate(parse("atomic ctrl Mark = 1;\n" + text))
    return elaborate(parse(token_model(int(k), links)))


def is_automorphism(g: Bigraph, nodes: dict[int, int], edges: dict[int, int]) -> bool:
    """Whether moving entity v to ``nodes.get(v, v)`` and link e to
    ``edges.get(e, e)`` maps `g` onto itself: a bijection that keeps every
    control and parameter, every parent (regions and sites stay put) and
    each link's multiset of entities, with open names fixed."""
    at = lambda v: nodes.get(v, v)
    on = lambda e: edges.get(e, e)
    if sorted(map(at, range(g.nnodes))) != list(range(g.nnodes)):
        return False
    if sorted(map(on, range(len(g.links)))) != list(range(len(g.links))):
        return False
    for v in range(g.nnodes):
        if g.nodes[at(v)] != g.nodes[v]:
            return False
        q = g.up[v]  # a parent entity, or below zero a region
        if g.up[at(v)] != (at(q) if q >= 0 else q):
            return False
    for q in g.site_up:
        if q >= 0 and at(q) != q:
            return False
    for e, lk in enumerate(g.links):
        image = g.links[on(e)]
        if image.name != lk.name or (lk.name is not None and on(e) != e):
            return False
        if Counter(at(v) for v, _p in lk.ports) != Counter(v for v, _p in image.ports):
            return False
    return True


def _check_generators(g: Bigraph) -> int:
    canonical_form(g)
    for nodes, edges in g._autos:
        assert nodes or edges
        assert is_automorphism(g, nodes, edges), (g.pretty(), nodes, edges)
    return len(g._autos)


def test_checker_rejects_non_automorphisms():
    # copies of a closed pair swap together with their edges: the entity map
    # alone, or the edge map alone, is no automorphism
    g = near_symmetric(3, "pairs")
    canonical_form(g)
    nodes, edges = next((n, e) for n, e in g._autos if e)
    assert is_automorphism(g, nodes, edges)
    assert not is_automorphism(g, nodes, {})
    assert not is_automorphism(g, {}, edges)
    # exchanging two copies is one under one region, not across two
    n, e = g.nnodes, len(g.links)
    nodes = {v: (v + n) % (2 * n) for v in range(2 * n)}
    edges = {f: (f + e) % (2 * e) for f in range(2 * e)}
    assert is_automorphism(merge(g, g), nodes, edges)
    assert not is_automorphism(parallel(g, g), nodes, edges)


@pytest.mark.parametrize("seed", range(60))
def test_generators_of_random_bigraphs(seed):
    rng = random.Random(seed)
    g = random_bigraph(rng)
    _check_generators(g)
    # copies side by side: swapped by a generator under one region, never
    # across two regions
    if g.nregions == 1:
        assert _check_generators(merge(g, g)) > 0
    _check_generators(parallel(g, g))
    _check_generators(weakly_refined(rng))


@pytest.mark.parametrize("shape, k", [("pairs", 3), ("pairs", 4), ("ring", 4), ("ring", 5)])
@pytest.mark.parametrize("variant", ["none", "param", "site", "link"])
def test_generators_of_near_symmetric_bigraphs(shape, k, variant):
    _check_generators(near_symmetric(k, shape, variant))


@pytest.mark.parametrize("name", ["pta", "cloud", "sensor"] + TOKENS)
def test_generators_of_reachable_states(name):
    mdp = explore(_model(name))
    found = sum(_check_generators(g) for g in mdp.states)
    if name.startswith(("none", "pairs", "ring")):
        assert found > 0


def test_bare_tokens_are_swapped_by_neighbouring_pairs():
    g = _model("none-8").init
    assert _check_generators(g) == 7
    assert all(edges == {} and len(nodes) == 2 for nodes, edges in g._autos)


@pytest.mark.parametrize("name", ["pta", "cloud", "sensor", "marked-4", "marked-5"] + TOKENS)
def test_skipped_outcomes_join_an_isomorphic_result(name):
    model = _model(name)
    mdp = explore(model)
    full = every_match(model)
    for agent in mdp.states:
        every = enabled_outcomes(agent, full)
        for action, ocs in enabled_outcomes(agent, model).items():
            results, joined = rules._successors(agent, ocs)
            forms = [canonical_form(g) for g in results]
            for oc, i in zip(ocs, joined):
                assert canonical_form(apply(agent, oc.rule, oc.match)) == forms[i]
            assert sorted(set(joined)) == list(range(len(results)))
            got = action_distribution(agent, ocs, action)
            want = reference_action_distribution(agent, every[action])
            assert len(got) == len(want)
            for (g, p), (h, q) in zip(got, want):
                assert (g.nodes, g.up, g.site_up, g.nregions, g.links) == (
                    h.nodes, h.up, h.site_up, h.nregions, h.links
                )
                assert p.hex() == q.hex()


@pytest.mark.parametrize("name", ["none-8", "pairs-8", "ring-6"])
def test_one_apply_per_transition(name, monkeypatch):
    model = _model(name)
    calls = []
    real = rules.apply
    monkeypatch.setattr(rules, "apply", lambda *a: calls.append(a) or real(*a))
    mdp = explore(model)
    assert len(calls) == mdp.n_transitions
    assert (mdp.n_states, mdp.n_transitions) == {
        "none-8": (9, 8), "pairs-8": (15, 20), "ring-6": (13, 20)
    }[name]


def test_ring12_data_is_the_generated_ring():
    assert (MODELS.parent / "tests" / "data" / "ring12.big").read_text() == token_model(12, "ring")


@pytest.mark.parametrize("name", ["ring-5", "marked-4"])
def test_swapped_names_share_an_effect(name):
    # the ring's move rule may give Tok's two names either agent edge: ports
    # are unordered, so the two matches of a token have one effect key; the
    # marked ring marks only the edge of `a`, so there the two differ
    model = _model(name)
    agent = model.init
    by_image: dict[tuple, list] = {}
    for oc in enabled_outcomes(agent, every_match(model))["move"]:
        by_image.setdefault(oc.match.nodes, []).append(oc)
    assert len(by_image) == int(name[-1])
    for first, second in by_image.values():
        ea, eb = (first.rule.redex_edge_of_name[n] for n in "ab")
        one, two = dict(first.match.edges), dict(second.match.edges)
        assert (two[ea], two[eb]) == (one[eb], one[ea]) and one[ea] != one[eb]
        keys = {rules.effect_key(oc.rule, oc.match) for oc in (first, second)}
        assert len(keys) == (1 if name == "ring-5" else 2)
        if name == "ring-5":
            results = {canonical_form(apply(agent, oc.rule, oc.match)) for oc in (first, second)}
            assert len(results) == 1


def test_agent_without_canonical_form_skips_nothing(monkeypatch):
    model = _model("none-5")
    agent = model.init
    agent._canon = agent._autos = None
    moves = enabled_outcomes(agent, model)["move"]
    calls = []
    real = rules.apply
    monkeypatch.setattr(rules, "apply", lambda *a: calls.append(a) or real(*a))
    assert len(action_distribution(agent, moves)) == 1
    assert len(calls) == 5
    canonical_form(agent)
    calls.clear()
    assert len(action_distribution(agent, moves)) == 1
    assert len(calls) == 1


def _orbits_agree(agent, matches) -> tuple[int, int]:
    """`rules._orbit` against the walk over every generator, for each match
    at caps that do and do not cut its orbit; returns how many orbits were
    not empty and how many a cap cut."""
    autos = agent._autos
    movers = rules._movers(autos)
    moved = cut = 0
    for m in matches:
        full = every_generator_orbit(m, autos, 10**9)
        moved += bool(full)
        for cap in (0, 1, 2, len(full) - 1, len(full), 10**9):
            got = rules._orbit(m, autos, movers, cap)
            assert got == every_generator_orbit(m, autos, cap), (m, cap)
            cut += len(got) < len(full)
    return moved, cut


def _random_matches(rng, g, count):
    """Match-shaped tuples over the entities and edges of `g`: an orbit
    reads only those, so they need not be occurrences of any pattern."""
    for _ in range(count):
        nodes = tuple(rng.sample(range(g.nnodes), rng.randint(1, min(3, g.nnodes))))
        edges = tuple((i, rng.randrange(len(g.links))) for i in range(rng.randint(0, 2))
                      if g.links)
        anchors = tuple(rng.choice((None, ~0, rng.randrange(g.nnodes)))
                        for _ in range(rng.randint(1, 2)))
        sites = tuple(tuple(rng.sample(range(g.nnodes), rng.randint(0, min(2, g.nnodes))))
                      for _ in range(rng.randint(0, 2)))
        yield Match(nodes, edges, anchors, sites)


@pytest.mark.parametrize("seed", range(20))
def test_orbit_equals_the_walk_over_every_generator(seed):
    # `_orbit` tries on each image only the generators that move one of its
    # entities, edges or anchors
    rng = random.Random(seed)
    shape = rng.choice(("pairs", "ring"))
    variant = rng.choice(("none", "param", "site", "link"))
    graphs = [near_symmetric(rng.randint(3, 5), shape, variant), weakly_refined(rng)]
    g = random_bigraph(rng)
    graphs.append(merge(g, merge(g, g)) if g.nregions == 1 else parallel(g, g))
    moved = cut = 0
    for g in graphs:
        canonical_form(g)
        m, c = _orbits_agree(g, _random_matches(rng, g, 30))
        moved, cut = moved + m, cut + c
    assert moved and cut


@pytest.mark.parametrize("name", ["marked-4", "none-6", "pairs-4", "ring-6"])
def test_orbit_of_every_match_equals_the_walk_over_every_generator(name):
    model = _model(name)
    moved = 0
    for agent in explore(model).states:
        for ocs in enabled_outcomes(agent, every_match(model)).values():
            moved += _orbits_agree(agent, [oc.match for oc in ocs])[0]
    assert moved


def test_wide_orbit_reads_linearly_many_entity_maps(tmp_path):
    # 1,500 L leaves under one A and the rule L -> L: the first match's
    # orbit holds every leaf, and trying each of the 1,499 generators on
    # each of its 1,500 images read the entity maps about 4.5 million times
    n = 1500
    model = load_model(_deep_model(tmp_path, "wide", "A.(" + " | ".join(["L"] * n) + ")"))
    agent = model.init
    canonical_form(agent)
    reads = [0]

    class Counting(dict):
        def get(self, *args):
            reads[0] += 1
            return super().get(*args)

    agent._autos = tuple((Counting(nodes), edges) for nodes, edges in agent._autos)
    assert len(agent._autos) == n - 1
    (moves,) = enabled_outcomes(agent, model).values()
    assert len(moves) == n
    assert [p for _g, p in action_distribution(agent, moves)] == [1.0]
    assert 0 < reads[0] <= 10 * n, reads
