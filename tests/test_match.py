import random

import pytest

from tickgraph.bigraph import (
    Bigraph,
    Control,
    Link,
    close,
    ion,
    merge,
    merge_all,
    nest,
    parallel,
    site,
    validate,
)
from tickgraph.canon import is_iso
from tickgraph.match import Match, occurrences
from tickgraph.params import Var

from .oracle import brute_occurrences

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
    node_children = [[] for _ in range(n)]
    nregions = rng.randint(1, 2)
    region_children = [[] for _ in range(nregions)]
    for i in range(n):
        hosts = [j for j in range(i) if not picks[j].atomic]
        if hosts and rng.random() < 0.6:
            node_children[rng.choice(hosts)].append(("n", i))
        else:
            region_children[rng.randrange(nregions)].append(("n", i))
    ports = [(i, p) for i in range(n) for p in range(picks[i].arity)]
    rng.shuffle(ports)
    links = []
    while ports:
        k = min(len(ports), rng.randint(1, 2))
        chunk, ports = tuple(ports[:k]), ports[k:]
        links.append(Link(None, chunk))
    return Bigraph(nodes, node_children, region_children, 0, links)


def random_pattern(rng: random.Random, max_nodes=3) -> Bigraph:
    n = rng.randint(1, max_nodes)
    picks = [rng.choice(_POOL) for _ in range(n)]
    nodes = [(c, rng.randint(0, 1) if c.parameterised else None) for c in picks]
    node_children = [[] for _ in range(n)]
    nregions = rng.randint(1, 2)
    region_children = [[] for _ in range(nregions)]
    for i in range(n):
        hosts = [j for j in range(i) if not picks[j].atomic]
        if hosts and rng.random() < 0.5:
            node_children[rng.choice(hosts)].append(("n", i))
        else:
            region_children[rng.randrange(nregions)].append(("n", i))
    nsites = 0
    for i in range(n):
        if not picks[i].atomic and rng.random() < 0.5:
            node_children[i].append(("s", nsites))
            nsites += 1
    ports = [(i, p) for i in range(n) for p in range(picks[i].arity)]
    rng.shuffle(ports)
    links = []
    while ports:
        k = min(len(ports), rng.randint(1, 2))
        chunk, ports = tuple(ports[:k]), ports[k:]
        name = f"y{len(links)}" if rng.random() < 0.7 else None
        links.append(Link(name, chunk))
    return Bigraph(nodes, node_children, region_children, nsites, links)


def sub_pattern(rng: random.Random, agent: Bigraph) -> Bigraph:
    """A pattern cut out of the agent, so that it occurs at least once unless
    a variable's domain or an exclusion rules that out.

    Each chosen entity keeps a random subset of its children and gets a site
    when it drops one (and at random otherwise); parameters become shared
    variables at random.  Mostly, when the agent has two entities with
    disjoint subtrees that share an edge, they root two regions;
    otherwise a second region is drawn at random.  An agent edge all of
    whose ports are chosen may stay closed; any other becomes an outer name.
    """
    nodes, node_children, region_children = [], [], []
    new_id: dict[int, int] = {}
    nsites = 0

    def take(u: int) -> int:
        nonlocal nsites
        i = new_id[u] = len(nodes)
        ctrl, param = agent.nodes[u]
        if ctrl.parameterised and rng.random() < 0.6:
            param = Var(rng.choice("vw"))
        nodes.append((ctrl, param))
        node_children.append([])
        kids = [c for _k, c in agent.node_children[u]]
        keep = [c for c in kids if rng.random() < 0.6]
        for c in keep:
            node_children[i].append(("n", take(c)))
        if not ctrl.atomic and (len(keep) < len(kids) or rng.random() < 0.5):
            node_children[i].append(("s", nsites))
            nsites += 1
        return i

    def apart(u: int, v: int) -> bool:
        return u != v and v not in agent.descendants(u) and u not in agent.descendants(v)

    # pairs of roots with disjoint subtrees that share an edge
    linked = [
        (u, v) for u in range(agent.nnodes) for v in range(agent.nnodes)
        if apart(u, v) and set(agent.edge_counts(u)) & set(agent.edge_counts(v))
    ]
    if linked and rng.random() < 0.8:
        roots = list(rng.choice(linked))
    else:
        roots = [rng.randrange(agent.nnodes)]
        free = [v for v in range(agent.nnodes) if apart(roots[0], v)]
        if free and rng.random() < 0.5:
            roots.append(rng.choice(free))
    for root in roots:
        region_children.append([("n", take(root))])
    links = []
    for e, lk in enumerate(agent.links):
        ports = tuple((new_id[v], p) for v, p in lk.ports if v in new_id)
        if not ports:
            continue
        whole = len(ports) == len(lk.ports) and lk.closed
        links.append(Link(None if whole and rng.random() < 0.5 else f"y{e}", ports))
    return Bigraph(nodes, node_children, region_children, nsites, links)


def check_agreement(seed: int) -> tuple[int, int]:
    """The number of matches on one seed's agent and pattern, and the same
    number again if the pattern's second root is linked to its first region
    (else 0)."""
    rng = random.Random(seed)
    agent = random_ground(rng)
    pattern = sub_pattern(rng, agent) if rng.random() < 0.5 else random_pattern(rng)
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
    return len(want), len(want) if second_root_linked(pattern) else 0


def second_root_linked(pattern: Bigraph) -> bool:
    """Whether the root of region 1 shares an edge with region 0's entities."""
    if pattern.nregions < 2:
        return False
    first = set()
    for k, c in pattern.region_children[0]:
        if k == "n":
            first |= {c} | pattern.descendants(c)
    roots = {c for k, c in pattern.region_children[1] if k == "n"}
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
    # an edge it shares with the first region (26-36 and 3-12 per block)
    assert hits >= 20
    assert linked_hits >= 2
