"""The bigraph algebra: the fixture API that tests build bigraphs with, and
the reference that `test_elaborate.py` compares the elaborator with.

No module of the package builds a bigraph through it: the elaborator builds
each `.big` body in one pass and shares only `check_ion` and `check_nest`
with it.
"""

from __future__ import annotations

import warnings

from tickgraph.bigraph import Bigraph, Control, Link, Ref, check_ion, check_nest
from tickgraph.params import Term


def empty(regions: int = 1) -> Bigraph:
    """The empty bigraph: `regions` barren regions (0 regions = unit of ||)."""
    return Bigraph([], [], [[] for _ in range(regions)], 0, [])


def site() -> Bigraph:
    """A single region holding one site; the DSL's `id`."""
    return Bigraph([], [], [[("s", 0)]], 1, [])


def ion(ctrl: Control, names: tuple[str, ...] | list[str] = (), param: Term | None = None) -> Bigraph:
    """Single-entity bigraph with its ports attached openly to `names`.

    Repeated names share a hyperedge.  Non-atomic ions carry one site as
    their single child; atomic ions have none.
    """
    names = tuple(names)
    check_ion(ctrl, names, param)
    by_name: dict[str, list[tuple[int, int]]] = {}
    order: list[str] = []
    for p, nm in enumerate(names):
        if nm not in by_name:
            by_name[nm] = []
            order.append(nm)
        by_name[nm].append((0, p))
    links = [Link(nm, tuple(by_name[nm])) for nm in order]
    if ctrl.atomic:
        return Bigraph([(ctrl, param)], [[]], [[("n", 0)]], 0, links)
    return Bigraph([(ctrl, param)], [[("s", 0)]], [[("n", 0)]], 1, links)


def _shift_ref(ref: Ref, dn: int, ds: int) -> Ref:
    kind, i = ref
    if kind == "n":
        return ("n", i + dn)
    return ("s", i + ds)


def _fuse_links(parts: list[Bigraph], shifts: list[int]) -> list[Link]:
    """Concatenate the parts' link sets, each part's entity ids shifted by its
    shift, fusing like-named open links into one hyperedge (ports in part
    order)."""
    links: list[Link] = []
    by_name: dict[str, int] = {}
    fused: dict[int, list[tuple[int, int]]] = {}  # ports of later parts, by link
    for g, dn in zip(parts, shifts):
        for lk in g.links:
            if lk.name is not None and lk.name in by_name:
                fused.setdefault(by_name[lk.name], []).extend((n + dn, p) for n, p in lk.ports)
                continue
            if lk.name is not None:
                by_name[lk.name] = len(links)
            links.append(Link(lk.name, tuple((n + dn, p) for n, p in lk.ports)) if dn else lk)
    for i, ports in fused.items():
        links[i] = Link(links[i].name, links[i].ports + tuple(ports))
    return links


def _renumber_sites(g: Bigraph) -> Bigraph:
    """Renumber sites in place-forest pre-order (left to right)."""
    mapping: dict[int, int] = {}
    for ref in g.preorder():
        if ref[0] == "s":
            mapping[ref[1]] = len(mapping)
    if all(mapping[s] == s for s in mapping):
        return g

    def fix(children):
        return [("s", mapping[i]) if k == "s" else (k, i) for k, i in children]

    return Bigraph(
        list(g.nodes),
        [fix(cs) for cs in g.node_children],
        [fix(cs) for cs in g.region_children],
        g.nsites,
        list(g.links),
    )


def _combine(parts: list[Bigraph], flatten: bool) -> Bigraph:
    """The parts side by side, in one pass: their regions in order (all under
    one region when `flatten`), like outer names fused, sites numbered once."""
    nodes: list[tuple[Control, Term | None]] = []
    node_children: list[list[Ref]] = []
    region_children: list[list[Ref]] = []
    shifts: list[int] = []
    nsites = 0
    for g in parts:
        dn, ds = len(nodes), nsites
        shifts.append(dn)
        nodes += g.nodes
        if dn or ds:
            node_children += [[_shift_ref(c, dn, ds) for c in cs] for cs in g.node_children]
            region_children += [[_shift_ref(c, dn, ds) for c in cs] for cs in g.region_children]
        else:
            node_children += g.node_children
            region_children += g.region_children
        nsites += g.nsites
    if flatten:
        region_children = [[c for cs in region_children for c in cs]]
    links = _fuse_links(parts, shifts)
    return _renumber_sites(Bigraph(nodes, node_children, region_children, nsites, links))


def merge(a: Bigraph, b: Bigraph) -> Bigraph:
    """Juxtaposition under one region (the DSL's `|`); like outer names fuse."""
    return _combine([a, b], flatten=True)


def parallel(a: Bigraph, b: Bigraph) -> Bigraph:
    """Region concatenation (the DSL's `||`); like outer names fuse."""
    return _combine([a, b], flatten=False)


def nest(outer: Bigraph, inner: Bigraph) -> Bigraph:
    """Place `inner`'s single region into `outer`'s single site (the DSL's `.`)."""
    check_nest(outer.nsites, inner.nregions, outer.nodes[0][0] if outer.nnodes == 1 else None)

    dn = outer.nnodes
    nodes = list(outer.nodes) + list(inner.nodes)
    inner_fix = lambda cs: [_shift_ref(c, dn, 0) for c in cs]
    inner_top = inner_fix(inner.region_children[0])

    def splice(children):
        out: list[Ref] = []
        for c in children:
            if c == ("s", 0):
                out.extend(inner_top)
            else:
                out.append(c)
        return out

    node_children = [splice(cs) for cs in outer.node_children]
    node_children += [inner_fix(cs) for cs in inner.node_children]
    region_children = [splice(cs) for cs in outer.region_children]
    links = _fuse_links([outer, inner], [0, dn])
    return _renumber_sites(
        Bigraph(nodes, node_children, region_children, inner.nsites, links)
    )


def close(name: str, g: Bigraph) -> Bigraph:
    """Close the open link `name` (drop its outer name; ports stay connected)."""
    if name not in g.outer_names():
        warnings.warn(f"close: {name!r} is not an outer name, bigraph unchanged")
        return g
    links = [Link(None, lk.ports) if lk.name == name else lk for lk in g.links]
    return Bigraph(
        list(g.nodes),
        [list(cs) for cs in g.node_children],
        [list(cs) for cs in g.region_children],
        g.nsites,
        links,
    )


def merge_all(parts: list[Bigraph]) -> Bigraph:
    """`parts[0] | parts[1] | ...`, joined in one pass."""
    if not parts:
        return empty()
    return parts[0] if len(parts) == 1 else _combine(parts, flatten=True)


def parallel_all(parts: list[Bigraph]) -> Bigraph:
    """`parts[0] || parts[1] || ...`, joined in one pass."""
    if not parts:
        return empty(regions=0)
    return parts[0] if len(parts) == 1 else _combine(parts, flatten=False)
