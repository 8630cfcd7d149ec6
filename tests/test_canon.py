import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickgraph.bigraph import Bigraph, Control, Link, validate
from tickgraph.canon import canonical_form, decode_canonical

from .algebra import close, ion, merge, nest, parallel, site
from .conftest import is_iso
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
    up = [None] * 3
    for old, new in perm.items():
        nodes[new] = g.nodes[old]
        up[new] = perm[g.up[old]] if g.up[old] >= 0 else g.up[old]
    links = [
        Link(lk.name, tuple((perm[n], p) for n, p in lk.ports)) for lk in g.links
    ]
    h = Bigraph(nodes, up, g.site_up, g.nregions, links)
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
    from tickgraph.mdp import Mdp, decode_states, load_mdp, save_mdp

    controls = {c.name: c for c in (S, INIT, X)}
    enc = canonical_form(pta_state(INIT, 2))
    assert enc.endswith(";Y=;X=")
    with pytest.raises(ValueError, match="trailing bytes"):
        decode_canonical(enc + "x>c0", controls)
    # a cache holding such an encoding (a state with an inner name) does not
    # decode, so it is rebuilt
    path = tmp_path / "m.mdpc"
    state = pta_state(INIT, 2)
    save_mdp(path, Mdp([state], [enc], [[]], ["a"]), "key")
    assert decode_states(load_mdp(path, "key"), controls) is not None
    save_mdp(path, Mdp([state], [enc + "x>c0"], [[]], ["a"]), "key")
    assert decode_states(load_mdp(path, "key"), controls) is None


@pytest.mark.parametrize(
    "text, why",
    [
        ("bg;2;0;R[S(){}[Init(){}[]]]R[X(0){c0}[]];Y=;X=", "0 references on S, of arity 1"),
        ("bg;2;0;R[S(){c0}[Init(0){}[]]]R[X(0){c0}[]];Y=;X=", "Init with a parameter"),
        ("bg;2;0;R[S(){c0}[Init(){}[]]]R[X(){c0}[]];Y=;X=", "X without a parameter"),
        ("bg;2;0;R[S(){c0}[Init(){}[Init(){}[]]]]R[X(0){c0}[]];Y=;X=", "a child of atomic Init"),
        ("bg;2;1;R[S(){c0}[Init(){}[$0]]]R[X(0){c0}[]];Y=;X=", "a site in atomic Init"),
        ("bg;2;0;R[S(){oc}[Init(){}[]]]R[X(0){oc}[]];Y=c;X=", "outer name 'c' on two"),
        ("bg;2;0;R[S(){c0}[Init(){}[]]]R[X(0){c0}[]];Y=c,c;X=", "outer name 'c' on two"),
    ],
    ids=["reference-count", "unexpected-parameter", "missing-parameter", "atomic-child",
         "atomic-site", "linked-and-portless-name", "portless-name-twice"],
)
def test_decode_refuses_what_validate_refuses(text, why):
    # each is a small edit of a pta state's form; each was decoded into a
    # bigraph that `validate` refuses, and a cache holding one of the first
    # kind gave wrong verdicts
    controls = {c.name: c for c in (S, INIT, X)}
    good = "bg;2;0;R[S(){c0}[Init(){}[]]]R[X(0){c0}[]];Y=;X="
    assert canonical_form(pta_state(INIT, 0)) == good
    assert validate(decode_canonical(good, controls)) == []
    with pytest.raises(ValueError, match=re.escape(why)):
        decode_canonical(text, controls)


@pytest.mark.parametrize(
    "text, why",
    [
        ("bg;1;1;R[$0;$0];Y=;X=", "site $0 written twice"),
        ("bg;1;2;R[N(){}[$0];$0];Y=;X=", "site $0 written twice"),
        ("bg;1;2;R[$1];Y=;X=", "expected 2 sites"),
        ("bg;1;1;R[$1];Y=;X=", "expected 1 sites"),
        ("bg;1;0;R[N(){}[$0]];Y=;X=", "expected 0 sites"),
    ],
    ids=["twice", "twice-in-two-places", "missing", "out-of-range", "unannounced"],
)
def test_decode_refuses_misnumbered_sites(tmp_path, text, why):
    # a parent map cannot tell a site written twice or not at all, so the
    # decoder checks that $0 .. $n-1 each occur exactly once
    from tickgraph.mdp import Mdp, decode_states, load_mdp, save_mdp

    controls = {"N": Control("N")}
    with pytest.raises(ValueError, match=re.escape(why)):
        decode_canonical(text, controls)
    # a cache holding such a form does not decode, so it is rebuilt
    path = tmp_path / "m.mdpc"
    save_mdp(path, Mdp([pta_state(INIT, 2)], [text], [[]], ["a"]), "key")
    assert decode_states(load_mdp(path, "key"), controls) is None


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
    up = []
    nregions = rng.randint(1, 2)
    for i in range(n):
        candidates = [j for j in range(i) if not picks[j].atomic]
        if candidates and rng.random() < 0.6:
            up.append(rng.choice(candidates))
        else:
            up.append(~rng.randrange(nregions))
    ports = [(i, p) for i in range(n) for p in range(picks[i].arity)]
    rng.shuffle(ports)
    links = []
    while ports:
        k = min(len(ports), rng.randint(1, 3))
        chunk = tuple(ports[:k])
        ports = ports[k:]
        name = f"y{len(links)}" if rng.random() < 0.2 else None  # mostly closed
        links.append(Link(name, chunk))
    return Bigraph(nodes, up, [], nregions, links)


def permuted_copy(rng: random.Random, g: Bigraph) -> Bigraph:
    """`g` with its entities, regions and links renumbered at random."""
    n = g.nnodes
    perm = list(range(n))
    rng.shuffle(perm)
    regions = list(range(g.nregions))  # new region k is old region regions[k]
    rng.shuffle(regions)
    moved = lambda p: perm[p] if p >= 0 else ~regions.index(~p)
    nodes = [None] * n
    up = [None] * n
    for old in range(n):
        nodes[perm[old]] = g.nodes[old]
        up[perm[old]] = moved(g.up[old])
    links = [
        Link(lk.name, tuple(sorted((perm[v], p) for v, p in lk.ports)))
        for lk in g.links
    ]
    rng.shuffle(links)
    return Bigraph(nodes, up, [moved(p) for p in g.site_up], g.nregions, links)


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
        up = [~0] * hosts + [rng.randrange(hosts) for _i in range(n)]
        ports = [(hosts + i, p) for i in range(n) for p in range(toks[i].arity)]
        rng.shuffle(ports)
        links = []
        while ports:
            k = min(len(ports), rng.choice([1, 2, 2, 3]))
            links.append(Link(None, tuple(ports[:k])))
            ports = ports[k:]
        return Bigraph(nodes, up, [], 1, links)

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
        up = [~0, ~0, ~0]
        for _i in range(k):
            where = rng.randrange(3)
            up.append(~0 if where == 0 else where)
        links = [Link(None, ((0, j), (3 + j, 0))) for j in range(k)]
        return Bigraph(nodes, up, [], 1, links)

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
            h2 = Bigraph(nodes, h.up, h.site_up, h.nregions, h.links)
        elif mode == 1 and h.links:
            links = list(h.links)
            lk = links[0]
            links[0] = Link("zz_fresh" if lk.name is None else None, lk.ports)
            h2 = Bigraph(h.nodes, h.up, h.site_up, h.nregions, links)
        else:
            extra = Control("ZZ", 0, atomic=True)
            nodes = list(h.nodes) + [(extra, None)]
            h2 = Bigraph(nodes, h.up + [~0], h.site_up, h.nregions, h.links)
        assert canonical_form(g) != canonical_form(h2)


# hypothesis: random_bigraph-style bigraphs with sites, open names and closed
# edges, drawn so that failures shrink to a small bigraph ----------------------


@st.composite
def bigraphs(draw, max_nodes=6):
    n = draw(st.integers(1, max_nodes))
    picks = draw(st.lists(st.sampled_from(_POOL), min_size=n, max_size=n))
    nodes = [(c, draw(st.integers(0, 2)) if c.parameterised else None) for c in picks]
    nregions = draw(st.integers(1, 2))
    # a parent: ~r for region r, or an entity that can hold children
    place = lambda hosts: draw(st.sampled_from([~r for r in range(nregions)] + hosts))
    up = [place([j for j in range(i) if not picks[j].atomic]) for i in range(n)]
    nsites = draw(st.integers(0, 2))
    site_up = [place([j for j in range(n) if not picks[j].atomic]) for _s in range(nsites)]
    ports = draw(st.permutations([(i, p) for i in range(n) for p in range(picks[i].arity)]))
    links = []
    while ports:
        k = min(len(ports), draw(st.integers(1, 3)))
        name = f"y{len(links)}" if draw(st.booleans()) else None
        links.append(Link(name, tuple(ports[:k])))
        ports = ports[k:]
    if draw(st.booleans()):
        links.append(Link("idle", ()))  # a portless open name
    return Bigraph(nodes, up, site_up, nregions, links)


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
        bad = enc[:at] + chr(ord(enc[at]) ^ data.draw(st.integers(1, 255))) + enc[at + 1 :]
    else:
        bad = enc[:at] + how + enc[at:]
    try:
        h = decode_canonical(bad, {c.name: c for c in _POOL})
    except ValueError:
        return
    assert how != "cut" and isinstance(h, Bigraph)
    assert validate(h) == []  # what decodes is a well-formed bigraph


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
    h = Bigraph(g.nodes, g.up, g.site_up, g.nregions, links)
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
    up: list[int] = []
    site_up: list[int] = []

    def add(ctrl, param=None, parent=~0) -> int:
        nodes.append((ctrl, param))
        up.append(parent)
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
            site_up.append(ds[0])
        deep.append(ds)
    pairs = [[deep[i][0], deep[i][1]] for i in range(k)]
    if variant == "link":
        nxt = (at + 1) % k
        pairs[at], pairs[nxt] = [deep[at][0], deep[nxt][0]], [deep[at][1], deep[nxt][1]]
    links += [[(d, 0) for d in ds] for ds in pairs]
    return Bigraph(nodes, up, site_up, 1, [Link(None, tuple(ports)) for ports in links])


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
    up = [~0] * boxes + [rng.randrange(boxes) for _v in range(n)]
    for v in rng.sample(range(boxes, boxes + n), rng.randint(0, 2)):
        up.append(v)
        nodes.append((_LEAF, rng.randint(0, 1)))
    used = [0] * len(nodes)
    links = []
    for a, b in ends:
        a, b = a + boxes, b + boxes
        links.append(Link(None, ((a, used[a]), (b, used[b]))))
        used[a] += 1
        used[b] += 1
    return Bigraph(nodes, up, [], 1, links)


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


def test_orbit_pruning_uses_only_automorphisms_that_fix_the_path(work):
    # an automorphism that moves an edge individualised on the path maps the
    # search node onto another node: it may not prune that node's cell
    from tickgraph import canon

    from .oracle import reference_canonical_form

    swap = {0: 1, 1: 0, 2: 3, 3: 2}  # closed edges 0 <-> 1 and 2 <-> 3
    assert canon._skipped(3, [2], [swap], [])
    assert not canon._skipped(3, [2], [swap], [0])
    assert canon._skipped(3, [2], [{2: 3, 3: 2}], [0])
    # a cubic graph, each vertex a closed edge and each graph edge an entity:
    # below vertex 3, vertex 5 is searched after vertex 1.  Of the
    # automorphisms found by then, (0 6)(1 3) and (0 7)(3 5) map 5 onto 1,
    # but both move vertex 3, and (2 4) fixes it but not 5 onto 1
    edges = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (1, 6),
             (2, 6), (2, 7), (3, 5), (4, 6), (4, 7), (5, 7)]
    e = Control("E", 2, atomic=True)
    ports: dict[int, list] = {v: [] for v in range(8)}
    for i, (a, b) in enumerate(edges):
        ports[a].append((i, 0))
        ports[b].append((i, 1))
    g = Bigraph([(e, None)] * len(edges), [~0] * len(edges), [], 1,
                [Link(None, tuple(ports[v])) for v in (4, 3, 2, 7, 1, 5, 0, 6)])
    assert canonical_form(g) == reference_canonical_form(g)
    assert work["leaves"] == 7  # 6 when vertex 5 is skipped


def test_each_leaf_is_written_once(monkeypatch):
    # equal leaves pair their entities through the texts each leaf keeps, so
    # no edge numbering is written out a second time
    from tickgraph import canon
    from tickgraph.mdp import explore

    written = []
    encode = canon._encode

    def recording(t, order):
        assert not any(order is seen for seen in written)
        written.append(order)
        return encode(t, order)

    monkeypatch.setattr(canon, "_encode", recording)
    (model,) = _models("pairs-12")
    assert len(explore(model).states) == 28
    assert len(written) == 198


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
    assert len(computed) == 121
    assert all(g._canon == reference_canonical_form(g) for g in computed)


def _dense(ranks: list[int]) -> list[int]:
    table = {r: i for i, r in enumerate(sorted(set(ranks)))}
    return [table[r] for r in ranks]


def test_incremental_refinement_equals_reference(monkeypatch):
    # `_refine` recomputes only the classes next to a split; every call must
    # end in the oracle's ordered partition of the same input.  It stops once
    # every closed edge with ports has a rank of its own, where the oracle
    # refines on: there the oracle may split further, but only within its
    # classes, so the order of those edges is the same
    from tickgraph import canon
    from tickgraph.mdp import explore

    from . import oracle

    calls = []
    refine = canon._refine

    def checking(t, nrank, erank, *rest):
        out = refine(t, nrank, erank, *rest)
        got = _dense(out[0]) + [t.g.nnodes + r for r in _dense(out[1])]
        want = oracle._refine(t.g, nrank, erank)
        want = _dense(want[0]) + [t.g.nnodes + r for r in _dense(want[1])]
        if len({out[1][e] for e in t.closed}) < len(t.closed):
            assert got == want
        else:
            pairs = sorted(set(zip(want, got)))
            assert len({w for w, _g in pairs}) == len(pairs)  # the oracle's is finer
            assert [g for _w, g in pairs] == sorted(g for _w, g in pairs)  # in order
        calls.append(got != want)
        return out

    monkeypatch.setattr(canon, "_refine", checking)
    for name in ("ring-6", "pairs-8", "cloud"):
        for model in _models(name):
            explore(model)
    rng = random.Random(3)
    graphs = [random_bigraph(rng) for _ in range(200)] + [weakly_refined(rng) for _ in range(60)]
    for shape, k in (("pairs", 3), ("ring", 5)):
        for variant in ("none", "param", "site", "link"):
            graphs += [near_symmetric(k, shape, variant, at) for at in range(k)]
    for g in graphs:
        canonical_form(g)
    assert len(calls) > 1000 and 0 < sum(calls) < len(calls)


_PINNED = {  # sha256 of an explore's forms, joined by newlines: the first 16 digits
    "cloud": "9cff7892a22db41d",
    "ring12": "6ae626bb49a193c8",
    "pairs-8": "c74a8124d5389507",
    "ring-6": "6b37d40d42239ec8",
    "pairs-12": "9c2aa5cd488aaa0e",
}


def _forms_digest(model) -> str:
    import hashlib

    from tickgraph.mdp import explore

    return hashlib.sha256("\n".join(explore(model).canon).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", ["cloud", "pairs-8", "ring-6", "pairs-12"])
def test_pinned_forms(name):
    from tickgraph.elaborate import elaborate
    from tickgraph.lang import parse

    from .conftest import token_model

    if name == "cloud":
        (model,) = _models(name)
    else:
        links, k = name.split("-")
        model = elaborate(parse(token_model(int(k), links)))
    assert _forms_digest(model) == _PINNED[name]


def test_ring12_pinned_forms_and_work(work, monkeypatch):
    # a closed ring of twelve tokens: the forms and the search's work
    from tickgraph import mdp, rules
    from tickgraph.elaborate import load_model

    from .test_rules import ROOT

    real = canonical_form

    def counting(g):
        work["forms"] += g._canon is None
        return real(g)

    monkeypatch.setattr(mdp, "canonical_form", counting)
    monkeypatch.setattr(rules, "canonical_form", counting)
    model = load_model(str(ROOT / "tests" / "data" / "ring12.big"))
    assert _forms_digest(model) == _PINNED["ring12"]
    assert (work["forms"], work["leaves"], work["refines"]) == (1057, 1374, 1683)


# the forms digest of the model on standard input, in a process of its own
_FORMS_DIGEST = """
import hashlib, sys
from tickgraph.elaborate import elaborate
from tickgraph.lang import parse
from tickgraph.mdp import explore
built = explore(elaborate(parse(sys.stdin.read())))
print(hashlib.sha256("\\n".join(built.canon).encode()).hexdigest()[:16])
"""


def test_head_memo_is_per_control_and_bounded():
    # `LC` is declared three ways: atomic with one port and a parameter (the
    # clocks), atomic with two ports (a ring), atomic with one port (pairs);
    # `Clocks` holds the clocks in the first model and is atomic in the
    # others.  Forms computed after the other models' equal a fresh
    # process's, and each control keeps one head per parameter seen with it
    import hashlib
    import subprocess
    import sys

    from tickgraph.elaborate import elaborate
    from tickgraph.lang import parse
    from tickgraph.mdp import explore

    from .conftest import tick_model, token_model

    texts = [tick_model(3)]
    texts += [token_model(4, links).replace("Tok", "LC").replace("Floor", "Clocks")
              for links in ("ring", "pairs")]
    fresh = [
        subprocess.run([sys.executable, "-c", _FORMS_DIGEST], input=text, capture_output=True,
                       text=True, check=True).stdout.strip()
        for text in texts
    ]
    for k in (0, 1, 2, 1, 0):
        model = elaborate(parse(texts[k]))
        built = explore(model)
        assert hashlib.sha256("\n".join(built.canon).encode()).hexdigest()[:16] == fresh[k]
        for ctrl in model.controls.values():
            seen = {param for g in built.states for c, param in g.nodes if c is ctrl}
            assert set(ctrl._heads) == seen, ctrl
    assert Control("LC", 1, True, True) == model.controls["LC"]


def deep_nest(depth: int) -> Bigraph:
    """`depth` nested C entities around an L leaf, with a site halfway down,
    closed edges pairing the entities at equal distance from the middle and
    one open name."""
    c, leaf = Control("C", arity=1), Control("L", arity=1, atomic=True)
    nodes = [(c, None)] * depth + [(leaf, None)]
    links = [Link(None, ((i, 0), (depth - i, 0))) for i in range(depth // 2)]
    links.append(Link("x", ((depth // 2, 0),)))
    return Bigraph(nodes, [~0, *range(depth)], [depth // 2], 1, links)


def test_deep_nest_equals_reference():
    from .oracle import reference_canonical_form

    g = deep_nest(200)
    assert validate(g) == []
    assert canonical_form(g) == reference_canonical_form(deep_nest(200))
    back = decode_canonical(canonical_form(g), {"C": g.nodes[0][0], "L": g.nodes[-1][0]})
    assert canonical_form(back) == canonical_form(g)


def test_deep_nest_builds(tmp_path):
    # entities are written children first, so depth costs no Python stack
    from .test_cli import run

    depth = 800
    model = tmp_path / "deep.big"
    model.write_text(
        "ctrl A = 0;\natomic ctrl L = 0;\nreact r = L -[1]-> L;\n"
        f"big s = {'A.' * depth}L;\n"
        "begin abrs\n  init s;\n  rules = [ {r} ];\n  actions = [ a = {r} ];\nend\n"
    )
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert "1 states, 1 choices, 1 transitions" in r.stdout
