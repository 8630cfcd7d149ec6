"""The bigraph algebra: the fixture API that tests build bigraphs with, and
the reference that `test_elaborate.py` compares the elaborator with.

No module of the package builds a bigraph through it: the elaborator builds
each `.big` body in one pass and shares only `check_ion` and `check_nest`
with it.
"""

from __future__ import annotations

import warnings

from tickgraph.bigraph import Bigraph, Control, Link, check_ion, check_nest
from tickgraph.params import Term


def empty(regions: int = 1) -> Bigraph:
    """The empty bigraph: `regions` barren regions (0 regions = unit of ||)."""
    return Bigraph([], [], [], regions, [])


def site() -> Bigraph:
    """A single region holding one site; the DSL's `id`."""
    return Bigraph([], [], [~0], 1, [])


def ion(ctrl: Control, names: tuple[str, ...] | list[str] = (), param: Term | None = None) -> Bigraph:
    """Single-entity bigraph with its ports attached openly to `names`.

    Repeated names share a hyperedge.  Non-atomic ions carry one site as
    their single child; atomic ions have none.
    """
    names = tuple(names)
    check_ion(ctrl, names, param)
    by_name: dict[str, list[tuple[int, int]]] = {}
    for p, nm in enumerate(names):
        by_name.setdefault(nm, []).append((0, p))
    links = [Link(nm, tuple(ports)) for nm, ports in by_name.items()]
    return Bigraph([(ctrl, param)], [~0], [] if ctrl.atomic else [0], 1, links)


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


def _combine(parts: list[Bigraph], flatten: bool) -> Bigraph:
    """The parts side by side, in one pass: their entities, sites and regions
    in order (all under one region when `flatten`), like outer names fused.
    Each part's sites follow the earlier parts', which is pre-order."""
    nodes: list[tuple[Control, Term | None]] = []
    up: list[int] = []
    site_up: list[int] = []
    shifts: list[int] = []
    nregions = 0
    for g in parts:
        dn, dr = len(nodes), nregions
        # a region parent ~r moves to region r + dr, or to region 0
        move = lambda p: p + dn if p >= 0 else ~0 if flatten else p - dr
        shifts.append(dn)
        nodes += g.nodes
        up += map(move, g.up)
        site_up += map(move, g.site_up)
        nregions += g.nregions
    links = _fuse_links(parts, shifts)
    return Bigraph(nodes, up, site_up, 1 if flatten else nregions, links)


def merge(a: Bigraph, b: Bigraph) -> Bigraph:
    """Juxtaposition under one region (the DSL's `|`); like outer names fuse."""
    return _combine([a, b], flatten=True)


def parallel(a: Bigraph, b: Bigraph) -> Bigraph:
    """Region concatenation (the DSL's `||`); like outer names fuse."""
    return _combine([a, b], flatten=False)


def nest(outer: Bigraph, inner: Bigraph) -> Bigraph:
    """Place `inner`'s single region into `outer`'s single site (the DSL's `.`):
    inner's region roots and region sites take that site's parent."""
    check_nest(outer.nsites, inner.nregions, outer.nodes[0][0] if outer.nnodes == 1 else None)
    dn = outer.nnodes
    at = outer.site_up[0]
    move = lambda p: p + dn if p >= 0 else at
    links = _fuse_links([outer, inner], [0, dn])
    return Bigraph([*outer.nodes, *inner.nodes], [*outer.up, *map(move, inner.up)],
                   list(map(move, inner.site_up)), outer.nregions, links)


def close(name: str, g: Bigraph) -> Bigraph:
    """Close the open link `name` (drop its outer name; ports stay connected)."""
    if name not in g.outer_names():
        warnings.warn(f"close: {name!r} is not an outer name, bigraph unchanged")
        return g
    links = [Link(None, lk.ports) if lk.name == name else lk for lk in g.links]
    return Bigraph(g.nodes, g.up, g.site_up, g.nregions, links)


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
