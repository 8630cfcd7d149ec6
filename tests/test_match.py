import random
import sys

import pytest

from tickgraph import match
from tickgraph.bigraph import Bigraph, Control, Link, validate
from tickgraph.match import Match, occurrences
from tickgraph.params import Var

from .algebra import close, ion, merge, merge_all, nest, parallel, site
from .conftest import is_iso
from .oracle import brute_occurrences, descendants, edge_counts

S = Control("S", arity=1)
INIT = Control("Init", atomic=True)
SEND = Control("Send", atomic=True)
X = Control("X", arity=1, atomic=True, parameterised=True)

SENSOR = Control("Sn", arity=2)
DATA = Control("Data", atomic=True)
ACTIVE = Control("Active", atomic=True)
ID = Control("ID", atomic=True, parameterised=True)


def pta_initial():
    return close("c", parallel(nest(ion(S, ["c"]), ion(INIT)), ion(X, ["c"], param=0)))


def pta_pattern(loc, x):
    return parallel(nest(ion(S, ["c"]), ion(loc)), ion(X, ["c"], param=x))


def test_pta_redex_matches_initial_once():
    ms = occurrences(pta_initial(), pta_pattern(INIT, 0))
    assert len(ms) == 1


def test_pta_wrong_location_no_match():
    assert occurrences(pta_initial(), pta_pattern(SEND, 0)) == []


def test_pta_wrong_clock_no_match():
    assert occurrences(pta_initial(), pta_pattern(INIT, 1)) == []


def test_symbolic_clock_binds():
    pat = parallel(nest(ion(S, ["c"]), ion(INIT)), ion(X, ["c"], param=Var("n")))
    ms = occurrences(pta_initial(), pat, domains={"n": {0, 1, 2}})
    assert len(ms) == 1
    assert ms[0].binding_env() == {"n": 0}
    assert occurrences(pta_initial(), pat, domains={"n": {1, 2}}) == []


def sensor_state():
    a = nest(ion(SENSOR, ["ab", "ac"]), merge(ion(ID, param=0), ion(DATA)))
    b = nest(ion(SENSOR, ["ab", "bc"]), merge(ion(ID, param=1), ion(ACTIVE)))
    c = nest(ion(SENSOR, ["ac", "bc"]), merge(ion(ID, param=2), ion(ACTIVE)))
    g = merge_all([a, b, c])
    for nm in ("ab", "ac", "bc"):
        g = close(nm, g)
    return g


def generic_send_redex():
    snd = nest(ion(SENSOR, ["x", "y"]), merge(ion(DATA), site()))
    rcv = nest(ion(SENSOR, ["x", "z"]), merge(ion(ACTIVE), site()))
    return merge(snd, rcv)


def test_sensor_generic_redex_two_matches():
    ms = occurrences(sensor_state(), generic_send_redex())
    assert len(ms) == 2  # receiver B or C, both active


def test_targeted_send_redex_single_match():
    snd = nest(ion(SENSOR, ["x", "y"]), merge(merge(ion(ID, param=0), ion(DATA)), site()))
    rcv = nest(ion(SENSOR, ["x", "z"]), merge(merge(ion(ID, param=1), ion(ACTIVE)), site()))
    ms = occurrences(sensor_state(), merge(snd, rcv))
    assert len(ms) == 1


def test_exact_children_without_site():
    # pattern Sn.(Data) must not match the sender, which also holds an ID
    pat = nest(ion(SENSOR, ["x", "y"]), ion(DATA))
    assert occurrences(sensor_state(), pat) == []
    # with a site it matches; x/y are unconstrained so both port pairings count
    pat_with_site = nest(ion(SENSOR, ["x", "y"]), merge(ion(DATA), site()))
    ms = occurrences(sensor_state(), pat_with_site)
    assert len(ms) == 2
    assert len({m.nodes for m in ms}) == 1  # same entity image, edge maps differ


def test_closed_pattern_edge_needs_full_coverage():
    # /c (S{c}.Init || X(0){c}) as a pattern covers both ports: matches
    full = close("c", pta_pattern(INIT, 0))
    assert len(occurrences(pta_initial(), full)) == 1
    # /c X(0){c} covers one port of a two-port edge: no match
    partial = close("c", ion(X, ["c"], param=0))
    assert occurrences(pta_initial(), partial) == []
    # open X(0){c} matches the closed edge fine
    assert len(occurrences(pta_initial(), ion(X, ["c"], param=0))) == 1


def test_distinct_open_names_need_distinct_edges():
    pat = merge(ion(X, ["a"], param=0), ion(X, ["b"], param=0))
    agent = close("c", merge(ion(X, ["c"], param=0), ion(X, ["c"], param=0)))
    assert occurrences(agent, pat) == []
    shared = merge(ion(X, ["a"], param=0), ion(X, ["a"], param=0))
    assert len(occurrences(agent, shared)) == 2  # the two symmetric port pairings


def test_anchor_not_in_image():
    # pattern A || B cannot match agent A.B: region 1's anchor would be A's image
    A = Control("A")
    B = Control("B", atomic=True)
    agent = nest(ion(A), ion(B))
    pat = parallel(nest(ion(A), site()), ion(B))
    assert occurrences(agent, pat) == []
    # but A.B itself matches
    assert len(occurrences(agent, nest(ion(A), ion(B)))) == 1


def test_anchor_inside_a_captured_forest_is_refused():
    # pattern A.id || B: A's site captures C.B, D.E.B and D2.E.G.B, so the
    # anchors C (a captured root), E (one level below one) and G (two
    # levels below) lie inside the forest; the B below F, beside A, is the
    # one match, as the brute-force matcher finds
    A, C, D, E, F, G = (Control(n) for n in "ACDEFG")
    B = Control("B", atomic=True)
    below_a = merge_all([
        nest(ion(C), ion(B)),
        nest(ion(D), nest(ion(E), ion(B))),
        nest(ion(D), nest(ion(E), nest(ion(G), ion(B)))),
    ])
    agent = merge(nest(ion(A), below_a), nest(ion(F), ion(B)))
    pat = parallel(nest(ion(A), site()), ion(B))
    found = occurrences(agent, pat)
    assert {(m.nodes, m.edges, m.binding) for m in found} == brute_occurrences(agent, pat)
    (m,) = found
    (f,) = [u for u, (ctrl, _p) in enumerate(agent.nodes) if ctrl.name == "F"]
    assert m.anchors == (~0, f)
    assert len(m.site_images[0]) == 3
    # without F.B every B lies in the forest
    assert occurrences(nest(ion(A), below_a), pat) == []
    assert brute_occurrences(nest(ion(A), below_a), pat) == set()


def test_two_pattern_regions_may_share_anchor():
    A = Control("A", atomic=True)
    B = Control("B", atomic=True)
    agent = merge(ion(A), ion(B))
    pat = parallel(ion(A), ion(B))
    assert len(occurrences(agent, pat)) == 1


def test_match_reconstruction_round_trip():
    # context + (pattern with filled sites) recomposes to the agent:
    # rewriting with redex == reactum must give back an isomorphic agent
    from tickgraph.rules import RuleFamily, apply

    agent = sensor_state()
    pat = generic_send_redex()
    rule = RuleFamily("idy", (), pat, pat, 1.0)
    for m in occurrences(agent, pat):
        assert is_iso(apply(agent, rule, m), agent)


@pytest.mark.parametrize("model_file", ["pta.big", "sensor.big", "cloud.big"])
def test_reconstruction_over_corpus(model_file):
    # every corpus rule redex, matched anywhere in the reachable space,
    # reconstructs the agent when used as an identity rewrite
    import pathlib

    from tickgraph.elaborate import load_model
    from tickgraph.mdp import explore
    from tickgraph.rules import RuleFamily, apply

    model = load_model(pathlib.Path(__file__).resolve().parent.parent / "models" / model_file)
    mdp = explore(model, max_states=200)
    families = {e.family.base: e.family for cls in model.classes for e in cls}
    checked = 0
    for fam in families.values():
        identity = RuleFamily(
            base=fam.base + "_id",
            formal=fam.formal,
            redex=fam.redex,
            reactum=fam.redex,
            weight=1.0,
        )
        domains = {v: set(range(0, 13)) for v in fam.formal}
        for agent in mdp.states:
            for m in occurrences(agent, fam.redex, domains=domains):
                assert is_iso(apply(agent, identity, m), agent)
                checked += 1
    assert checked > 0


# ---- agreement with the brute-force enumerator ---------------------------

_POOL = [
    Control("K0", 0, atomic=True),
    Control("K1", 1, atomic=True),
    Control("K2", 2, atomic=True),
    Control("N0", 0),
    Control("N1", 1),
    Control("P", 0, atomic=True, parameterised=True),
]


def random_ground(rng: random.Random, max_nodes=6) -> Bigraph:
    n = rng.randint(1, max_nodes)
    picks = [rng.choice(_POOL) for _ in range(n)]
    nodes = [(c, rng.randint(0, 1) if c.parameterised else None) for c in picks]
    up = []
    nregions = rng.randint(1, 2)
    for i in range(n):
        hosts = [j for j in range(i) if not picks[j].atomic]
        if hosts and rng.random() < 0.6:
            up.append(rng.choice(hosts))
        else:
            up.append(~rng.randrange(nregions))
    ports = [(i, p) for i in range(n) for p in range(picks[i].arity)]
    rng.shuffle(ports)
    links = []
    while ports:
        k = min(len(ports), rng.randint(1, 2))
        chunk, ports = tuple(ports[:k]), ports[k:]
        links.append(Link(None, chunk))
    return Bigraph(nodes, up, [], nregions, links)


def random_pattern(rng: random.Random, max_nodes=3) -> Bigraph:
    n = rng.randint(1, max_nodes)
    picks = [rng.choice(_POOL) for _ in range(n)]
    nodes = [(c, rng.randint(0, 1) if c.parameterised else None) for c in picks]
    up = []
    nregions = rng.randint(1, 2)
    for i in range(n):
        hosts = [j for j in range(i) if not picks[j].atomic]
        if hosts and rng.random() < 0.5:
            up.append(rng.choice(hosts))
        else:
            up.append(~rng.randrange(nregions))
    site_up = [i for i in range(n) if not picks[i].atomic and rng.random() < 0.5]
    ports = [(i, p) for i in range(n) for p in range(picks[i].arity)]
    rng.shuffle(ports)
    links = []
    while ports:
        k = min(len(ports), rng.randint(1, 2))
        chunk, ports = tuple(ports[:k]), ports[k:]
        name = f"y{len(links)}" if rng.random() < 0.7 else None
        links.append(Link(name, chunk))
    return Bigraph(nodes, up, site_up, nregions, links)


def sub_pattern(rng: random.Random, agent: Bigraph, nested: float = 0.0) -> Bigraph:
    """A pattern cut out of the agent, so that it occurs at least once unless
    a variable's domain or an exclusion rules that out.

    Each chosen entity keeps a random subset of its children and gets a site
    when it drops one (and at random otherwise); parameters become shared
    variables at random.  With probability `nested`, a second region is
    rooted at an entity inside the first region's captured forest (below a
    dropped child), where its anchor must be refused, so the pattern occurs
    elsewhere or not at all.  Otherwise, mostly, when the agent has two
    entities with disjoint subtrees that share an edge, they root two
    regions; else a second region is drawn at random.  An agent edge all of
    whose ports are chosen may stay closed; any other becomes an outer name.
    """
    nodes, up, site_up = [], [], []
    new_id: dict[int, int] = {}
    nregions = 0

    def take(u: int, parent: int):
        i = new_id[u] = len(nodes)
        ctrl, param = agent.nodes[u]
        if ctrl.parameterised and rng.random() < 0.6:
            param = Var(rng.choice("vw"))
        nodes.append((ctrl, param))
        up.append(parent)
        kids = agent.kids[u]
        keep = [c for c in kids if rng.random() < 0.6]
        for c in keep:
            take(c, i)
        if not ctrl.atomic and (len(keep) < len(kids) or rng.random() < 0.5):
            site_up.append(i)

    def root(u: int):  # `u` roots a new region
        nonlocal nregions
        nregions += 1
        take(u, ~(nregions - 1))

    def above(u: int) -> set[int]:
        up = set()
        while agent.up[u] >= 0:
            u = agent.up[u]
            up.add(u)
        return up

    def apart(u: int, v: int) -> bool:
        return u != v and v not in descendants(agent, u) and u not in descendants(agent, v)

    # pairs of roots with disjoint subtrees that share an edge
    linked = [
        (u, v) for u in range(agent.nnodes) for v in range(agent.nnodes)
        if apart(u, v) and set(edge_counts(agent, u)) & set(edge_counts(agent, v))
    ]
    # entities with a grandchild: a forest captured below them can hold a root
    deep = [u for u in range(agent.nnodes) if any(agent.kids[c] for c in agent.kids[u])]
    if deep and nested and rng.random() < nested:
        root(rng.choice(deep))
        forest = [v for v in range(agent.nnodes) if v not in new_id and agent.up[v] >= 0
                  and agent.up[v] not in new_id and new_id.keys() & above(agent.up[v])]
        roots = [rng.choice(forest)] if forest else []
    elif linked and rng.random() < 0.8:
        roots = list(rng.choice(linked))
    else:
        roots = [rng.randrange(agent.nnodes)]
        free = [v for v in range(agent.nnodes) if apart(roots[0], v)]
        if free and rng.random() < 0.5:
            roots.append(rng.choice(free))
    for u in roots:
        root(u)
    links = []
    for e, lk in enumerate(agent.links):
        ports = tuple((new_id[v], p) for v, p in lk.ports if v in new_id)
        if not ports:
            continue
        whole = len(ports) == len(lk.ports) and lk.closed
        links.append(Link(None if whole and rng.random() < 0.5 else f"y{e}", ports))
    return Bigraph(nodes, up, site_up, nregions, links)


def check_agreement(seed: int) -> tuple[int, int]:
    """The number of matches on one seed's agent and pattern, and the same
    number again if the pattern's second root is linked to its first region
    (else 0)."""
    rng = random.Random(seed)
    agent = random_ground(rng)
    pattern = sub_pattern(rng, agent, nested=0.5) if rng.random() < 0.5 else random_pattern(rng)
    n = assert_agreement(rng, agent, pattern, seed)
    return n, n if second_root_linked(pattern) else 0


def assert_agreement(rng: random.Random, agent: Bigraph, pattern: Bigraph, seed) -> int:
    """Draw domains for the pattern's variables, check that the matcher finds
    what the oracle does, in `Match.sort_key` order, and return the number
    of matches."""
    domains = {}
    for v in sorted({p.name for _c, p in pattern.nodes if isinstance(p, Var)}):
        dom = rng.choice([None, {0}, {1}, {0, 1}])
        if dom is not None:
            domains[v] = dom
    found = occurrences(agent, pattern, domains=domains)
    assert found == sorted(found, key=Match.sort_key)
    got = {(m.nodes, m.edges, m.binding) for m in found}
    assert len(got) == len(found)
    want = brute_occurrences(agent, pattern, domains=domains)
    assert got == want, f"seed {seed}: matcher={got} oracle={want}"
    return len(want)


def second_root_linked(pattern: Bigraph) -> bool:
    """Whether the root of region 1 shares an edge with region 0's entities."""
    if pattern.nregions < 2:
        return False
    first = set()
    for c in pattern.roots[0]:
        first |= {c} | descendants(pattern, c)
    roots = set(pattern.roots[1])
    return any(
        {v for v, _p in lk.ports} & roots and {v for v, _p in lk.ports} & first
        for lk in pattern.links
    )


@pytest.mark.parametrize("block", range(10))
def test_matcher_agrees_with_enumerator(block):
    hits = linked_hits = 0
    for seed in range(block * 50, block * 50 + 50):
        n, linked = check_agreement(seed)
        hits += n
        linked_hits += linked
    # each block holds matches, some of them of a second root found through
    # an edge it shares with the first region (32-45 and 3-12 per block);
    # some patterns root their second region inside the first one's
    # captured forest, where no anchor may lie (half the blocks fail when
    # `_Search._complete` checks the anchor alone, not the entities above it)
    assert hits >= 20
    assert linked_hits >= 2


# ---- the search plan -------------------------------------------------------


def rare_case(rng: random.Random) -> tuple[Bigraph, Bigraph]:
    """An agent in which one entity below another has a control, R, that no
    other entity has, and a pattern cut out of it that holds R below a root
    or as the root of a second region that shares an edge with the first.
    The agent holds every other control of the pattern at least twice."""
    while True:
        agent = random_ground(rng, max_nodes=7)
        below = [u for u in range(agent.nnodes) if agent.up[u] >= 0]
        if not below:
            continue
        u = rng.choice(below)
        ctrl, param = agent.nodes[u]
        nodes = list(agent.nodes)
        nodes[u] = (Control("R", ctrl.arity, ctrl.atomic, ctrl.parameterised), param)
        agent = Bigraph(nodes, agent.up, agent.site_up, agent.nregions, agent.links)
        names = [c.name for c, _v in agent.nodes]
        for _ in range(20):
            pattern = sub_pattern(rng, agent)
            (r,) = [p for p, (c, _v) in enumerate(pattern.nodes) if c.name == "R"] or [None]
            if r is None or any(names.count(c.name) < 2 for c, _v in pattern.nodes if c.name != "R"):
                continue
            q = pattern.up[r]
            if q >= 0 or (q == ~1 and second_root_linked(pattern)):
                return agent, pattern


@pytest.mark.parametrize("block", range(4))
def test_plan_from_the_rarest_control_agrees_with_enumerator(block):
    # the plan starts at R, the host's rarest control, so a pattern that
    # holds R below a root maps a child before its parent, and one whose
    # second region starts at R reaches the first region through an edge
    hits = 0
    sources = {"kids": 0, "up": 0, "edge": 0, "all": 0}
    for seed in range(block * 50, block * 50 + 50):
        rng = random.Random(f"rare {seed}")
        agent, pattern = rare_case(rng)
        hits += assert_agreement(rng, agent, pattern, seed)
        steps = match._plan(pattern, pattern._tables, match.Tally(agent).counts)
        assert pattern.nodes[steps[0][0]][0].name == "R"
        for _p, source, _src in steps:
            sources[source] += 1
    # every pattern occurs at least once unless a domain rules it out
    # (54-62 matches, 32-40 up and 16-27 edge steps per block)
    assert hits >= 40
    assert sources["up"] >= 25 and sources["edge"] >= 10, sources


def test_too_few_entities_of_a_control_are_not_searched(monkeypatch):
    # the agent holds one Init; a pattern with two, or with a control the
    # agent lacks, is answered before any entity is mapped
    calls = []
    real = match._Search._assign
    monkeypatch.setattr(match._Search, "_assign",
                        lambda self, idx: calls.append(idx) or real(self, idx))
    assert occurrences(pta_initial(), parallel(ion(INIT), ion(INIT))) == []
    assert occurrences(pta_initial(), parallel(ion(INIT), ion(SEND))) == []
    assert calls == []
    assert len(occurrences(pta_initial(), ion(INIT))) == 1
    assert calls


def test_cloud_explore_search_steps(monkeypatch):
    # partial assignments over cloud's whole exploration: 12,234 when the
    # search mapped entities in pre-order and searched hosts that lack a
    # redex control, 3,697 with the count check and the rarest-first plan
    import pathlib

    from tickgraph.elaborate import load_model
    from tickgraph.mdp import explore

    calls = [0]
    real = match._Search._assign

    def counted(self, idx):
        calls[0] += 1
        return real(self, idx)

    model = load_model(pathlib.Path(__file__).resolve().parent.parent / "models" / "cloud.big")
    monkeypatch.setattr(match._Search, "_assign", counted)
    mdp = explore(model)
    assert (mdp.n_states, mdp.n_choices, mdp.n_transitions) == (106, 106, 120)
    assert calls[0] == 3_697 <= 12_234 // 3


def _chain(n: int) -> Bigraph:
    """n entities, each the only child of the one before."""
    a, leaf = Control("A"), Control("L", atomic=True)
    return Bigraph([(a, None)] * (n - 1) + [(leaf, None)], [~0, *range(n - 1)], [], 1, [])


def test_pattern_deeper_than_the_stack_is_a_named_limit():
    # the search nests one call per entity: a pattern deeper than the stack
    # leaves room for is refused when its tables are built, before any search
    budget = sys.getrecursionlimit() - match._HEADROOM
    fits = _chain(budget - 3)  # its search nests `budget` calls
    assert len(occurrences(fits, fits)) == 1
    deep = _chain(budget - 2)
    message = f"{budget - 2} entities and 0 hyperedges need {budget + 1} nested search calls"
    for _ in range(2):  # refused each time, as no tables are kept
        with pytest.raises(match.PatternLimit, match=message):
            occurrences(deep, deep)
        assert deep._tables is None
    # a state holding the deep chain is searched for shallow patterns as before
    assert len(occurrences(deep, _chain(3))) == 1  # at the chain's foot
