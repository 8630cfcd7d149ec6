import re

import pytest

from tickgraph.bigraph import Bigraph, Control, Link, validate

from .algebra import close, empty, ion, merge, merge_all, nest, parallel, parallel_all, site
from .conftest import is_iso

S = Control("S", arity=1)
INIT = Control("Init", atomic=True)
DATA = Control("Data", atomic=True)
X = Control("X", arity=1, atomic=True, parameterised=True)
LC = Control("LC", arity=1, atomic=True, parameterised=True)
LOCALCLOCKS = Control("LocalClocks")


def test_ion_basic():
    g = ion(S, ["c"])
    assert g.nnodes == 1 and g.nregions == 1 and g.nsites == 1
    assert g.outer_names() == {"c"}
    assert validate(g) == []


def test_ion_atomic_parameterised():
    g = ion(X, ["c"], param=1)
    assert g.nsites == 0
    assert g.nodes[0][1] == 1
    assert validate(g) == []


def test_ion_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        ion(S, ["c", "c2"])


def test_ion_param_mismatch():
    with pytest.raises(ValueError, match="parameter"):
        ion(X, ["c"])
    with pytest.raises(ValueError, match="parameter"):
        ion(S, ["c"], param=3)


def test_ion_repeated_names_share_hyperedge():
    two = Control("T", arity=2)
    g = ion(two, ["a", "a"])
    assert len(g.links) == 1
    assert len(g.links[0].ports) == 2


def test_nest():
    g = nest(ion(S, ["c"]), ion(INIT))
    assert g.nnodes == 2 and g.nsites == 0
    assert g.kids[0] == (1,) and g.up == [~0, 0]
    assert validate(g) == []


def test_nest_atomic_parent():
    with pytest.raises(ValueError, match="atomic"):
        nest(ion(DATA), ion(INIT))


def test_nest_fuses_names():
    g = nest(ion(S, ["c"]), ion(LC, ["c"], param=0))
    assert len(g.links) == 1
    assert len(g.links[0].ports) == 2


def test_nest_localclocks_container():
    lcs = merge(merge(ion(LC, ["c1"], param=0), ion(LC, ["c2"], param=0)), ion(LC, ["c3"], param=0))
    g = nest(ion(LOCALCLOCKS), lcs)
    assert g.nnodes == 4
    assert g.kids[0] == (1, 2, 3)
    assert validate(g) == []


def test_merge_unit():
    a = nest(ion(S, ["c"]), ion(INIT))
    assert is_iso(merge(a, empty()), a)
    assert is_iso(merge(empty(), a), a)


def test_merge_commutative_up_to_iso():
    a, b = ion(INIT), ion(DATA)
    assert is_iso(merge(a, b), merge(b, a))


def test_parallel_regions_and_fusion():
    g = parallel(nest(ion(S, ["c"]), ion(INIT)), ion(X, ["c"], param=0))
    assert g.nregions == 2
    assert len([lk for lk in g.links if lk.name == "c"]) == 1
    c_edge = next(lk for lk in g.links if lk.name == "c")
    assert len(c_edge.ports) == 2


def test_parallel_unit():
    a = ion(INIT)
    assert is_iso(parallel(a, empty(regions=0)), a)


def test_close():
    g = close("c", parallel(nest(ion(S, ["c"]), ion(INIT)), ion(X, ["c"], param=0)))
    assert g.outer_names() == set()
    assert g.is_ground()
    assert validate(g) == []


def test_close_absent_name_warns():
    a = ion(INIT)
    with pytest.warns(UserWarning):
        b = close("z", a)
    assert is_iso(a, b)


def test_close_single_port():
    g = close("c", ion(S, ["c"]))
    assert g.outer_names() == set()
    assert len(g.links) == 1 and g.links[0].closed


def test_site_numbering_preorder():
    # S.(id) | S.(id): site under first S must be site 0
    g = merge(ion(S, ["a"]), ion(S, ["b"]))
    assert list(g.preorder()) == [0, 1]
    assert g.site_up == [0, 1]


def test_constructors_always_valid():
    g = parallel(
        merge(nest(ion(S, ["a"]), merge(ion(DATA), site())), ion(X, ["a"], param=2)),
        nest(ion(LOCALCLOCKS), ion(LC, ["b"], param=0)),
    )
    assert validate(g) == []
    assert g.nsites == 1


def test_port_slot_partition():
    g = close("c", parallel(nest(ion(S, ["c"]), ion(INIT)), ion(X, ["c"], param=0)))
    slots = sum(ctrl.arity for ctrl, _ in g.nodes)
    assert slots == sum(len(lk.ports) for lk in g.links)


def test_merge_parallel_associative_up_to_iso():
    import random

    from .test_canon import random_bigraph

    rng = random.Random(321)
    for _ in range(60):
        a, b, c = (random_bigraph(rng, max_nodes=2) for _ in range(3))
        assert is_iso(merge(merge(a, b), c), merge(a, merge(b, c)))
        assert is_iso(parallel(parallel(a, b), c), parallel(a, parallel(b, c)))
        assert is_iso(parallel(a, empty(regions=0)), a)
        if a.nregions == 1:  # merge flattens regions, so the unit law is single-region
            assert is_iso(merge(a, empty()), a)


def test_nest_chain_associative():
    # one-site chains: nesting is determined by the chain, not the grouping
    a, b, c = ion(S, ["x"]), ion(LOCALCLOCKS), ion(INIT)
    assert is_iso(nest(a, nest(b, c)), nest(nest(a, b), c))


def _structure(g):
    return g.nodes, g.up, g.site_up, g.nregions, [(lk.name, lk.ports) for lk in g.links]


def test_n_ary_joins_equal_pairwise_folds():
    # one pass gives the bigraph, entity for entity, that the pairwise fold gave
    import functools
    import random

    from .test_canon import random_bigraph

    rng = random.Random(5)
    for _ in range(60):
        parts = [random_bigraph(rng, max_nodes=3) for _ in range(rng.randint(2, 5))]
        parts.append(merge(nest(ion(S, ["a"]), site()), site()))  # two sites, a shared name
        rng.shuffle(parts)
        for join, fold in ((merge_all, merge), (parallel_all, parallel)):
            g = join(parts)
            assert validate(g) == []
            assert _structure(g) == _structure(functools.reduce(fold, parts))


@pytest.mark.parametrize("op", ["||", "|"])
def test_wide_joins_copy_linear_entities(monkeypatch, op):
    # a fold copied the whole result so far at every step: n^2 / 2 entities
    from tickgraph.bigraph import Bigraph
    from tickgraph.elaborate import elaborate
    from tickgraph.lang import parse

    init = Bigraph.__init__
    copied = []

    def counting(self, nodes, *args):
        copied[-1] += len(nodes)
        init(self, nodes, *args)

    monkeypatch.setattr(Bigraph, "__init__", counting)
    for n in (300, 600):
        body = f" {op} ".join(["A{x}.L"] * n)
        copied.append(0)
        model = elaborate(parse(
            "ctrl A = 1;\natomic ctrl L = 0;\nreact r = L -[1]-> L;\n"
            f"big s = /x ({body});\n"
            "begin abrs\n  init s;\n  rules = [ {r} ];\n  actions = [ a = {r} ];\nend\n"
        ))
        assert model.init.nnodes == 2 * n
    assert copied[1] <= 2.5 * copied[0]


P = Control("P", arity=1)
A = Control("A")
L = Control("L", atomic=True)


@pytest.mark.parametrize(
    "parts, problems",
    [
        (([(A, None)] * 2, [~0, 2], [], 1, []), "parent 2 is no entity or region"),
        (([(A, None)], [~1], [], 1, []), "parent -2 is no entity or region"),
        (([(A, None)], [~0], [1], 1, []), "parent 1 is no entity or region"),
        (([(P, None)], [~0], [], 1, [Link("a", ((0, 0),)), Link("b", ((0, 0),))]),
         "port (0, 0) occurs in two hyperedges"),
        (([(A, None)], [], [], 1, []), "up must parallel nodes"),
        # a parent map with a cycle or ill-formed links is built, and
        # validate reports it
        (([(A, None)] * 3, [~0, 2, 1], [1], 1, []),
         ["place graph is not a forest rooted at the regions"]),
        (([(P, None)], [~0], [], 1, []),
         ["entity 0 (P): 0 linked ports, arity is 1", "entity 0 (P): port 0 dangling"]),
        (([(P, None)], [~0], [], 1, [Link("a", ((0, 0), (0, 1)))]),
         ["entity 0 (P): 2 linked ports, arity is 1", "hyperedge 0: port (0,1) out of range"]),
    ],
    ids=["no-entity", "no-region", "site-no-entity", "two-hyperedges", "not-parallel",
         "cycle", "dangling", "out-of-range"],
)
def test_malformed_bigraphs_are_refused_or_reported(parts, problems):
    if isinstance(problems, str):
        with pytest.raises(ValueError, match=re.escape(problems)):
            Bigraph(*parts)
    else:
        assert validate(Bigraph(*parts)) == problems


@pytest.mark.parametrize(
    "parts",
    [
        ([(A, None)], [~0], [~0, 1], 1, []),
        ([(P, None)], [~0], [], 1, [Link("a", ((1, 0),))]),
        ([(P, None)], [~0], [], 1, [Link("a", ((-1, 0),))]),
    ],
    ids=["site", "port", "negative-port"],
)
def test_references_to_missing_entities_or_sites_are_refused(parts):
    with pytest.raises(ValueError, match="no entity"):
        Bigraph(*parts)


def test_decoding_a_site_out_of_range_raises_value_error():
    # load_mdp reads a ValueError as an unreadable cache, and rebuilds it
    from tickgraph.canon import decode_canonical

    with pytest.raises(ValueError, match="expected 1 sites"):
        decode_canonical("bg;1;1;R[$0;$3];Y=;X=", {})


def test_deep_nest_is_written_without_recursion():
    # each level of `A.A. ... L` was one frame of the renderer
    n = 1500
    g = Bigraph([(A, None)] * n + [(L, None)], [~0, *range(n)], [], 1, [])
    assert repr(g) == "<Bigraph " + "A.(" * (n - 1) + "A.L" + ")" * (n - 1) + ">"
    two = Bigraph([(A, None)] * 2 + [(L, None)], [~0, 0, 1], [], 1, [])
    assert two.pretty() == "A.(A.L)"
    # a parent's sites are written after its entity children
    assert Bigraph([(A, None), (L, None)], [~0, 0], [0, ~0], 1, []).pretty() == "A.(L | id) | id"


@pytest.mark.parametrize("path", ["models/pta.big", "models/cloud.big", "models/sensor.big",
                                  "tests/data/prod2.big", "tests/data/tick9.big",
                                  "tests/data/ring12.big"])
def test_pretty_reads_back_as_the_same_state(path):
    # each reachable state, written by `pretty` as the model's initial
    # bigraph, elaborates to a state of the same canonical form; an empty
    # non-atomic entity written as a bare `K` read back as an ion with a site
    import pathlib

    from tickgraph.canon import canonical_form
    from tickgraph.elaborate import elaborate
    from tickgraph.lang import parse, read_source
    from tickgraph.mdp import explore

    text = read_source(pathlib.Path(__file__).resolve().parent.parent / path)
    states = explore(elaborate(parse(text))).states
    init = re.search(r"^\s*init (\w+);", text, re.M)
    head, tail = text[: init.start(1)], text[init.end(1):]
    begin = head.rindex("begin abrs")
    for g in states:
        again = head[:begin] + f"big s__ = {g.pretty()};\n" + head[begin:] + "s__" + tail
        assert canonical_form(elaborate(parse(again)).init) == canonical_form(g), g.pretty()
