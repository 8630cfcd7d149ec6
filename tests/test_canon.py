import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickgraph.bigraph import Bigraph, Control, Link, close, ion, merge, nest, parallel, site, validate
from tickgraph.canon import canonical_form, decode_canonical, is_iso

from .oracle import brute_iso

S = Control("S", arity=1)
INIT = Control("Init", atomic=True)
SEND = Control("Send", atomic=True)
X = Control("X", arity=1, atomic=True, parameterised=True)
A = Control("A", atomic=True)
B = Control("B", atomic=True)


def pta_state(loc, x):
    return close("c", parallel(nest(ion(S, ["c"]), ion(loc)), ion(X, ["c"], param=x)))


def test_identity_and_param_sensitivity():
    assert is_iso(pta_state(INIT, 0), pta_state(INIT, 0))
    assert not is_iso(pta_state(INIT, 0), pta_state(INIT, 1))
    assert not is_iso(pta_state(INIT, 0), pta_state(SEND, 0))


def test_sibling_permutation():
    assert canonical_form(merge(ion(A), ion(B))) == canonical_form(merge(ion(B), ion(A)))


def test_region_permutation():
    a, b = ion(A), ion(B)
    assert canonical_form(parallel(a, b)) == canonical_form(parallel(b, a))


def test_entity_renumbering_invariance():
    g = pta_state(INIT, 0)
    # rebuild with node ids permuted by hand
    perm = {0: 2, 1: 0, 2: 1}
    nodes = [None] * 3
    node_children = [None] * 3
    for old, new in perm.items():
        nodes[new] = g.nodes[old]
        node_children[new] = [
            ("n", perm[i]) if k == "n" else (k, i) for k, i in g.node_children[old]
        ]
    region_children = [
        [("n", perm[i]) if k == "n" else (k, i) for k, i in cs] for cs in g.region_children
    ]
    links = [
        Link(lk.name, tuple((perm[n], p) for n, p in lk.ports)) for lk in g.links
    ]
    h = Bigraph(nodes, node_children, region_children, g.nsites, links)
    assert canonical_form(g) == canonical_form(h)


def test_open_names_identify_links():
    assert not is_iso(ion(S, ["a"]), ion(S, ["b"]))
    assert is_iso(close("a", ion(S, ["a"])), close("b", ion(S, ["b"])))


def test_closed_edge_symmetry_with_later_references():
    # two structurally identical closed pairs; a third entity distinguishes
    # them only through which edge it shares. The encodings must still agree.
    T = Control("T", arity=1, atomic=True)
    U = Control("U", arity=2, atomic=True)

    def build(order):
        parts = [ion(T, [nm]) for nm in order]
        g = parts[0]
        for p in parts[1:]:
            g = merge(g, p)
        g = merge(g, ion(U, ["p", "q"]))
        for nm in ("p", "q"):
            g = close(nm, g)
        return g

    assert canonical_form(build(["p", "q"])) == canonical_form(build(["q", "p"]))


def test_decode_round_trip():
    controls = {c.name: c for c in (S, INIT, X)}
    g = pta_state(INIT, 2)
    enc = canonical_form(g)
    h = decode_canonical(enc, controls)
    assert validate(h) == []
    assert canonical_form(h) == enc


def test_decode_round_trip_with_sites_and_open_names():
    controls = {c.name: c for c in (S, A, B)}
    g = merge(nest(ion(S, ["c"]), merge(ion(A), site())), ion(B))
    enc = canonical_form(g)
    h = decode_canonical(enc, controls)
    assert canonical_form(h) == enc
    assert h.nsites == 1
    assert canonical_form(permuted_copy(random.Random(5), g)) == enc


def test_decode_rejects_bytes_after_tail(tmp_path):
    from tickgraph.mdp import Mdp, load_mdp, save_mdp

    controls = {c.name: c for c in (S, INIT, X)}
    enc = canonical_form(pta_state(INIT, 2))
    assert enc.endswith(b";Y=;X=")
    with pytest.raises(ValueError, match="trailing bytes"):
        decode_canonical(enc + b"x>c0", controls)
    # a cache holding such an encoding (a state with an inner name) is rebuilt
    path = tmp_path / "m.mdpc"
    state = pta_state(INIT, 2)
    save_mdp(path, Mdp([state], [enc], [[]], ["a"]), "key")
    assert load_mdp(path, controls, "key") is not None
    save_mdp(path, Mdp([state], [enc + b"x>c0"], [[]], ["a"]), "key")
    assert load_mdp(path, controls, "key") is None


# randomized renaming / perturbation checks -------------------------------

_POOL = [
    Control("K0", 0, atomic=True),
    Control("K1", 1, atomic=True),
    Control("K2", 2, atomic=True),
    Control("L2", 2, atomic=True),
    Control("N0", 0),
    Control("N1", 1),
    Control("P", 0, atomic=True, parameterised=True),
]


def random_bigraph(rng: random.Random, max_nodes=6):
    n = rng.randint(1, max_nodes)
    picks = [rng.choice(_POOL) for _ in range(n)]
    nodes = [(c, rng.randint(0, 2) if c.parameterised else None) for c in picks]
    node_children = [[] for _ in range(n)]
    nregions = rng.randint(1, 2)
    region_children = [[] for _ in range(nregions)]
    for i in range(n):
        candidates = [j for j in range(i) if not picks[j].atomic]
        if candidates and rng.random() < 0.6:
            node_children[rng.choice(candidates)].append(("n", i))
        else:
            region_children[rng.randrange(nregions)].append(("n", i))
    ports = [(i, p) for i in range(n) for p in range(picks[i].arity)]
    rng.shuffle(ports)
    links = []
    while ports:
        k = min(len(ports), rng.randint(1, 3))
        chunk = tuple(ports[:k])
        ports = ports[k:]
        name = f"y{len(links)}" if rng.random() < 0.2 else None  # mostly closed
        links.append(Link(name, chunk))
    return Bigraph(nodes, node_children, region_children, 0, links)


def permuted_copy(rng: random.Random, g: Bigraph) -> Bigraph:
    n = g.nnodes
    perm = list(range(n))
    rng.shuffle(perm)
    nodes = [None] * n
    node_children = [None] * n
    for old in range(n):
        nodes[perm[old]] = g.nodes[old]
        node_children[perm[old]] = [
            ("n", perm[i]) if k == "n" else (k, i) for k, i in g.node_children[old]
        ]
    regions = list(range(g.nregions))
    rng.shuffle(regions)
    region_children = [
        [("n", perm[i]) if k == "n" else (k, i) for k, i in g.region_children[r]]
        for r in regions
    ]
    for cs in node_children:
        rng.shuffle(cs)
    for cs in region_children:
        rng.shuffle(cs)
    links = [
        Link(lk.name, tuple(sorted((perm[v], p) for v, p in lk.ports)))
        for lk in g.links
    ]
    rng.shuffle(links)
    return Bigraph(nodes, node_children, region_children, g.nsites, links)


def test_agrees_with_brute_force_iso_on_near_misses():
    # canonical equality must decide isomorphism exactly; compare against the
    # independent backtracking decision procedure on same-fingerprint pairs
    import itertools

    from .oracle import _fingerprint, brute_iso

    K1 = Control("K", 1, atomic=True)
    K2 = Control("K2", 2, atomic=True)
    N = Control("N", 0)

    def symgraph(rng):
        n = rng.randint(2, 6)
        hosts = rng.randint(1, 3)
        toks = [rng.choice([K1, K2]) for _ in range(n)]
        nodes = [(N, None)] * hosts + [(c, None) for c in toks]
        node_children = [[] for _ in range(hosts + n)]
        region_children = [[("n", i) for i in range(hosts)]]
        for i in range(n):
            node_children[rng.randrange(hosts)].append(("n", hosts + i))
        ports = [(hosts + i, p) for i in range(n) for p in range(toks[i].arity)]
        rng.shuffle(ports)
        links = []
        while ports:
            k = min(len(ports), rng.choice([1, 2, 2, 3]))
            links.append(Link(None, tuple(ports[:k])))
            ports = ports[k:]
        return Bigraph(nodes, node_children, region_children, 0, links)

    rng = random.Random(99)
    graphs = [symgraph(rng) for _ in range(1000)]
    buckets = {}
    for g in graphs:
        buckets.setdefault(_fingerprint(g), []).append(g)
    pairs = 0
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket[:12], 2):
            pairs += 1
            assert is_iso(a, b) == brute_iso(a, b)
    assert pairs > 200
    # closed edges tied at one entity: a renumbered copy keeps its encoding
    for g in graphs:
        assert canonical_form(g) == canonical_form(permuted_copy(rng, g))


@pytest.mark.parametrize("seed", range(40))
def test_random_renaming_keeps_encoding(seed):
    rng = random.Random(seed)
    for _ in range(25):
        g = random_bigraph(rng)
        assert canonical_form(g) == canonical_form(permuted_copy(rng, g))


def test_decode_round_trip_random():
    controls = {c.name: c for c in _POOL}
    rng = random.Random(77)
    for _ in range(200):
        g = random_bigraph(rng)
        enc = canonical_form(g)
        h = decode_canonical(enc, controls)
        assert validate(h) == []
        assert canonical_form(h) == enc
        assert canonical_form(permuted_copy(rng, g)) == enc


@pytest.mark.parametrize("k", range(2, 7))
def test_closed_link_stars(k):
    # one hub whose k closed edges each join it to one leaf: the k edges tie
    # until the leaves' values and places tell them apart
    import itertools

    from .oracle import _fingerprint, brute_iso

    hub = Control("Hub", k, atomic=True)
    leaf = Control("Leaf", 1, atomic=True, parameterised=True)
    box = Control("Box", 0)
    controls = {c.name: c for c in (hub, leaf, box)}

    def star(rng):
        # hub and two boxes at the root; each leaf at the root or in a box
        nodes = [(hub, None), (box, None), (box, None)]
        nodes += [(leaf, rng.randint(0, 1)) for _ in range(k)]
        node_children = [[] for _ in nodes]
        root = [("n", 0), ("n", 1), ("n", 2)]
        for i in range(3, 3 + k):
            where = rng.randrange(3)
            (root if where == 0 else node_children[where]).append(("n", i))
        links = [Link(None, ((0, j), (3 + j, 0))) for j in range(k)]
        return Bigraph(nodes, node_children, [root], 0, links)

    rng = random.Random(k)
    stars = [star(rng) for _ in range(40)]
    for g in stars:
        enc = canonical_form(g)
        assert canonical_form(decode_canonical(enc, controls)) == enc
        h = permuted_copy(rng, g)
        assert canonical_form(h) == enc and brute_iso(g, h)
    buckets = {}
    for g in stars:
        buckets.setdefault(_fingerprint(g), []).append(g)
    pairs = 0
    for bucket in buckets.values():
        for a, b in itertools.combinations(bucket[:8], 2):
            pairs += 1
            assert is_iso(a, b) == brute_iso(a, b)
    assert pairs > 0


@pytest.mark.parametrize("seed", range(40))
def test_random_perturbation_changes_encoding(seed):
    rng = random.Random(1000 + seed)
    for _ in range(25):
        g = random_bigraph(rng)
        h = permuted_copy(rng, g)
        # perturb: change a parameter, drop a node, or reclassify one edge
        mode = rng.randrange(3)
        if mode == 0 and any(c.parameterised for c, _ in h.nodes):
            idx = next(i for i, (c, _) in enumerate(h.nodes) if c.parameterised)
            nodes = list(h.nodes)
            nodes[idx] = (nodes[idx][0], nodes[idx][1] + 7)
            h2 = Bigraph(nodes, [list(c) for c in h.node_children],
                         [list(c) for c in h.region_children], h.nsites, list(h.links))
        elif mode == 1 and h.links:
            links = list(h.links)
            lk = links[0]
            links[0] = Link("zz_fresh" if lk.name is None else None, lk.ports)
            h2 = Bigraph(list(h.nodes), [list(c) for c in h.node_children],
                         [list(c) for c in h.region_children], h.nsites, links)
        else:
            extra = Control("ZZ", 0, atomic=True)
            nodes = list(h.nodes) + [(extra, None)]
            node_children = [list(c) for c in h.node_children] + [[]]
            region_children = [list(c) for c in h.region_children]
            region_children[0] = region_children[0] + [("n", len(nodes) - 1)]
            h2 = Bigraph(nodes, node_children, region_children, h.nsites, list(h.links))
        assert canonical_form(g) != canonical_form(h2)


# hypothesis: random_bigraph-style bigraphs with sites, open names and closed
# edges, drawn so that failures shrink to a small bigraph ----------------------


@st.composite
def bigraphs(draw, max_nodes=6):
    n = draw(st.integers(1, max_nodes))
    picks = draw(st.lists(st.sampled_from(_POOL), min_size=n, max_size=n))
    nodes = [(c, draw(st.integers(0, 2)) if c.parameterised else None) for c in picks]
    nregions = draw(st.integers(1, 2))
    node_children: list[list] = [[] for _ in range(n)]
    region_children: list[list] = [[] for _ in range(nregions)]

    def place(ref, hosts):
        kind, i = draw(st.sampled_from([("r", r) for r in range(nregions)] + hosts))
        (region_children if kind == "r" else node_children)[i].append(ref)

    for i in range(n):
        place(("n", i), [("n", j) for j in range(i) if not picks[j].atomic])
    nsites = draw(st.integers(0, 2))
    for s in range(nsites):
        place(("s", s), [("n", j) for j in range(n) if not picks[j].atomic])
    ports = draw(st.permutations([(i, p) for i in range(n) for p in range(picks[i].arity)]))
    links = []
    while ports:
        k = min(len(ports), draw(st.integers(1, 3)))
        name = f"y{len(links)}" if draw(st.booleans()) else None
        links.append(Link(name, tuple(ports[:k])))
        ports = ports[k:]
    if draw(st.booleans()):
        links.append(Link("idle", ()))  # a portless open name
    return Bigraph(nodes, node_children, region_children, nsites, links)


@settings(max_examples=200, deadline=None)
@given(bigraphs(), st.randoms(use_true_random=False))
def test_hypothesis_permuted_copy_keeps_encoding(g, rng):
    assert validate(g) == []
    h = permuted_copy(rng, g)
    assert canonical_form(h) == canonical_form(g)
    assert brute_iso(g, h)


@settings(max_examples=200, deadline=None)
@given(bigraphs())
def test_hypothesis_decode_round_trips(g):
    enc = canonical_form(g)
    h = decode_canonical(enc, {c.name: c for c in _POOL})
    assert validate(h) == []
    assert canonical_form(h) == enc
    assert brute_iso(g, h)


@settings(max_examples=300, deadline=None)
@given(bigraphs(), st.data())
def test_hypothesis_corrupted_encoding_decodes_or_raises_value_error(g, data):
    # load_mdp reads a ValueError as an unreadable cache; any other exception
    # would escape `check` as an internal error
    enc = canonical_form(g)
    at = data.draw(st.integers(0, len(enc) - 1))
    how = data.draw(st.sampled_from(["cut", "flip", ";", "[", "]"]))
    if how == "cut":
        bad = enc[:at]
    elif how == "flip":
        bad = enc[:at] + bytes([enc[at] ^ data.draw(st.integers(1, 255))]) + enc[at + 1 :]
    else:
        bad = enc[:at] + how.encode() + enc[at:]
    try:
        h = decode_canonical(bad, {c.name: c for c in _POOL})
    except ValueError:
        return
    assert how != "cut" and isinstance(h, Bigraph)


@settings(max_examples=300, deadline=None)
@given(bigraphs(), st.data())
def test_hypothesis_near_misses_agree_with_brute_force(g, data):
    # the same forest and link sizes with the ports dealt out again: often
    # isomorphic, often only by fingerprint
    ports = data.draw(st.permutations([vp for lk in g.links for vp in lk.ports]))
    links = []
    for lk in g.links:
        links.append(Link(lk.name, tuple(ports[: len(lk.ports)])))
        ports = ports[len(lk.ports) :]
    h = Bigraph(list(g.nodes), [list(c) for c in g.node_children],
                [list(c) for c in g.region_children], g.nsites, links)
    assert is_iso(g, h) == brute_iso(g, h)


# the pruned search against the plain reference search --------------------


def _models(name: str) -> list:
    """Bundled models by stem, the benchmark's generated build models
    (perfbench/workloads.py, seed 1) or one token model such as `pairs-12`."""
    from tickgraph.elaborate import elaborate, load_model
    from tickgraph.lang import parse

    from .test_rules import ROOT, _perfbench_gen

    if name in ("pta", "cloud", "sensor"):
        return [load_model(str(ROOT / "models" / f"{name}.big"))]
    gen = _perfbench_gen()
    rng = random.Random(1)
    if name == "build-timed":
        specs = [gen.cloud_family(n, profile, rng) for n, profile in ((3, 0), (3, 1), (4, 3))]
        specs += [gen.pta_family(h, rng) for h in (16, 16, 20, 20, 24, 24, 28, 28)]
    elif name == "build-symmetric":
        shapes = [("none", k) for k in (4, 5, 6, 6, 8)] + [("pairs", k) for k in (4, 4, 6, 6, 8)]
        shapes += [("ring", k) for k in (3, 4, 4, 5, 5, 5, 6)]
        specs = [gen.token_family(k, links, marks=rng.sample(range(100), 2)) for links, k in shapes]
    else:
        links, k = name.split("-")
        specs = [gen.token_family(int(k), links)]
    return [elaborate(parse(spec.text)) for spec in specs]


@pytest.mark.parametrize(
    "name",
    ["pta", "cloud", "sensor", "build-timed", "build-symmetric", "pairs-12", "ring-7", "ring-8"],
)
def test_equals_reference_on_reachable_states(name):
    from tickgraph.mdp import explore

    from .oracle import reference_canonical_form

    for model in _models(name):
        for g in explore(model).states:
            assert canonical_form(g) == reference_canonical_form(g)


@settings(max_examples=300, deadline=None)
@given(bigraphs())
def test_hypothesis_equals_reference(g):
    from .oracle import reference_canonical_form

    assert canonical_form(g) == reference_canonical_form(g)


_CELL = Control("Cell", 0)
_PAIRED = Control("T", 1)
_RINGED = Control("R", 2)
_DEEP = Control("D", 1)
_LEAF = Control("P", 0, atomic=True, parameterised=True)


def near_symmetric(k: int, shape: str, variant: str = "none", at: int = 0) -> Bigraph:
    """`k` interchangeable copies on closed links, each holding two deep
    entities D.P(0) and D.P(1) whose Ds share a closed edge of the copy.

    `shape` "pairs": a copy is Cell.(T{e}.D.P(0) | T{e}.D.P(1)) with e closed;
    "ring": a copy is R{r_i, r_(i+1)}.(D.P(0) | D.P(1)), the Rs in one closed
    cycle.  `variant` changes copy `at` deep down: "param" P(1) -> P(2),
    "site" a site beside its first P, "link" its Ds' edge and copy at+1's
    swap one end each, so each joins one D of either copy.
    """
    nodes: list = []
    kids: list[list] = []
    roots: list = []

    def add(ctrl, param=None, parent=None) -> int:
        nodes.append((ctrl, param))
        kids.append([])
        (roots if parent is None else kids[parent]).append(("n", len(nodes) - 1))
        return len(nodes) - 1

    links: list[list] = []
    holders: list[list[int]] = []  # per copy, the entity above each D
    if shape == "pairs":
        for _i in range(k):
            cell = add(_CELL)
            ts = [add(_PAIRED, parent=cell) for _j in range(2)]
            links.append([(t, 0) for t in ts])
            holders.append(ts)
    else:
        rs = [add(_RINGED) for _i in range(k)]
        links += [[(rs[i], 1), (rs[(i + 1) % k], 0)] for i in range(k)]
        holders = [[r, r] for r in rs]
    deep = []
    for i, hs in enumerate(holders):
        ds = []
        for j, h in enumerate(hs):
            ds.append(add(_DEEP, parent=h))
            add(_LEAF, 2 if (variant, i, j) == ("param", at, 1) else j, parent=ds[-1])
        if (variant, i) == ("site", at):
            kids[ds[0]].append(("s", 0))
        deep.append(ds)
    pairs = [[deep[i][0], deep[i][1]] for i in range(k)]
    if variant == "link":
        nxt = (at + 1) % k
        pairs[at], pairs[nxt] = [deep[at][0], deep[nxt][0]], [deep[at][1], deep[nxt][1]]
    links += [[(d, 0) for d in ds] for ds in pairs]
    return Bigraph(
        nodes, kids, [roots], int(variant == "site"), [Link(None, tuple(ports)) for ports in links]
    )


@pytest.mark.parametrize("shape, k", [("pairs", 3), ("pairs", 4), ("ring", 4), ("ring", 5)])
@pytest.mark.parametrize("variant", ["param", "site", "link"])
def test_near_symmetric_copies_are_not_merged(shape, k, variant):
    # a copy that differs deep down breaks the symmetry the pruning exploits:
    # the encodings must still equal the plain search's, split the variant
    # from the symmetric graph and agree whichever copy differs
    from .oracle import reference_canonical_form

    rng = random.Random(k)
    base = near_symmetric(k, shape)
    variants = [near_symmetric(k, shape, variant, at) for at in range(k)]
    for g in [base, *variants]:
        enc = canonical_form(g)
        assert enc == reference_canonical_form(g)
        assert canonical_form(permuted_copy(rng, g)) == enc
    assert not is_iso(base, variants[0]) and not brute_iso(base, variants[0])
    for h in variants[1:]:
        assert is_iso(variants[0], h) and brute_iso(variants[0], h)


def weakly_refined(rng: random.Random) -> Bigraph:
    """Closed two-port links as the edges of a graph that colour refinement
    hardly splits: a union of cycles (entities of arity 2) or a random cubic
    multigraph without loops (arity 3), spread over one or two boxes, some
    entities holding a parameterised leaf."""
    if rng.random() < 0.5:
        arity, sizes, left = 2, [], rng.randint(5, 9)
        while left:
            size = min(left, rng.randint(2, 6))
            size += left - size == 1  # no cycle of one
            sizes.append(size)
            left -= size
        ends, first = [], 0
        for size in sizes:
            ends += [(first + i, first + (i + 1) % size) for i in range(size)]
            first += size
        n = first
    else:
        arity, n = 3, rng.choice([4, 6, 8])
        while True:
            stubs = [v for v in range(n) for _ in range(3)]
            rng.shuffle(stubs)
            ends = list(zip(stubs[::2], stubs[1::2]))
            if all(a != b for a, b in ends):
                break
    vertex = Control(f"V{arity}", arity)
    boxes = rng.randint(1, 2)
    nodes = [(Control("Box", 0), None)] * boxes + [(vertex, None)] * n
    kids: list[list] = [[] for _ in nodes]
    for v in range(boxes, boxes + n):
        kids[rng.randrange(boxes)].append(("n", v))
    for v in rng.sample(range(boxes, boxes + n), rng.randint(0, 2)):
        kids[v].append(("n", len(nodes)))
        nodes.append((_LEAF, rng.randint(0, 1)))
        kids.append([])
    used = [0] * len(nodes)
    links = []
    for a, b in ends:
        a, b = a + boxes, b + boxes
        links.append(Link(None, ((a, used[a]), (b, used[b]))))
        used[a] += 1
        used[b] += 1
    return Bigraph(nodes, kids, [[("n", b) for b in range(boxes)]], 0, links)


@pytest.mark.parametrize("seed", range(4))
def test_weakly_refined_graphs_equal_reference(seed):
    # ties that refinement cannot break, between edges that are automorphic
    # and edges that are not: a wrong orbit or a jump back past the node
    # where two equal leaves diverge loses the smallest leaf
    from .oracle import reference_canonical_form

    rng = random.Random(seed)
    for _ in range(50):
        g = weakly_refined(rng)
        assert validate(g) == []
        enc = reference_canonical_form(g)
        assert canonical_form(g) == enc
        assert canonical_form(permuted_copy(rng, g)) == enc


# work counts: leaves are `_encode` calls, search nodes `_refine` calls ------


@pytest.fixture
def work(monkeypatch):
    from collections import Counter

    from tickgraph import canon

    counts = Counter()
    encode, refine = canon._encode, canon._refine

    def counting_encode(*args):
        counts["leaves"] += 1
        return encode(*args)

    def counting_refine(*args):
        counts["refines"] += 1
        return refine(*args)

    monkeypatch.setattr(canon, "_encode", counting_encode)
    monkeypatch.setattr(canon, "_refine", counting_refine)
    return counts


def test_closed_pairs_prune_by_automorphism(work):
    # six interchangeable closed pairs: the plain search writes 9,828 leaves
    from tickgraph.mdp import explore

    (model,) = _models("pairs-12")
    assert len(explore(model).states) == 28
    assert work["leaves"] <= 1500


def test_no_refinement_without_two_closed_edges(work):
    from tickgraph.mdp import explore

    from .oracle import reference_canonical_form

    graphs = [pta_state(INIT, 3), ion(S, ["c"])]
    graphs.append(merge(close("c", ion(S, ["c"])), ion(X, ["o"], param=1)))
    for model in _models("pta") + _models("none-6"):
        graphs += explore(model).states
    assert work["refines"] == 0
    work.clear()
    for g in graphs:
        g._canon = None
        assert canonical_form(g) == reference_canonical_form(g)
    assert work["refines"] == 0 and work["leaves"] == len(graphs)


def test_cloud_computes_the_same_forms(monkeypatch):
    from tickgraph import mdp, rules
    from tickgraph.canon import canonical_form as real

    from .oracle import reference_canonical_form

    computed = []

    def recording(g):
        if g._canon is None:
            computed.append(g)
        return real(g)

    monkeypatch.setattr(mdp, "canonical_form", recording)
    monkeypatch.setattr(rules, "canonical_form", recording)
    (model,) = _models("cloud")
    built = mdp.explore(model)
    assert (built.n_states, built.n_choices, built.n_transitions) == (106, 106, 120)
    assert len(computed) == 151
    assert all(g._canon == reference_canonical_form(g) for g in computed)
