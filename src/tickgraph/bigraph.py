"""Value-semantic bigraphs.

A bigraph couples two structures over one entity set: a *place graph* (a
forest of entities below numbered regions, with numbered sites standing for
unspecified sub-bigraphs) and a *link graph* (hyperedges over entity ports,
carrying an outer name when open and nothing when closed).

Instances are immutable after construction; all the algebraic constructors
(:func:`ion`, :func:`nest`, :func:`merge`, :func:`parallel`, :func:`close`)
return fresh values.  Entity identifiers are dense, local to one bigraph and
carry no meaning across values; semantic equality is isomorphism, handled by
:mod:`tickgraph.canon`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .params import Term

# Place references: ("n", node id), ("s", site index), ("r", region index).
Ref = tuple[str, int]


@dataclass(frozen=True)
class Control:
    """Entity type: fixes the port count, atomicity and parameter sort."""

    name: str
    arity: int = 0
    atomic: bool = False
    parameterised: bool = False


@dataclass(frozen=True)
class Link:
    """One hyperedge.  ``name`` is the outer name of an open link, None when
    closed.  There are no inner names: no `.big` expression can write one."""

    name: str | None
    ports: tuple[tuple[int, int], ...]  # (node id, port index)

    @property
    def closed(self) -> bool:
        return self.name is None


class Bigraph:
    """Immutable bigraph value.

    ``nodes[i]`` is a ``(Control, param)`` pair; ``node_children[i]`` and
    ``region_children[r]`` hold ordered child references (order is only
    significant for site numbering, sibling order is not part of identity).
    """

    __slots__ = (
        "nodes",
        "node_children",
        "region_children",
        "nsites",
        "links",
        "_parent",
        "_port_link",
        "_canon",
        "_autos",
        "_tables",
    )

    def __init__(
        self,
        nodes: list[tuple[Control, Term | None]],
        node_children: list[list[Ref]],
        region_children: list[list[Ref]],
        nsites: int,
        links: list[Link],
    ):
        self.nodes = tuple(nodes)
        self.node_children = tuple(tuple(cs) for cs in node_children)
        self.region_children = tuple(tuple(cs) for cs in region_children)
        self.nsites = nsites
        self.links = tuple(links)
        self._canon = None
        self._autos = None  # automorphism generators, found with the canonical form
        self._tables = None  # match.py's search tables, when used as a pattern

        parent: dict[Ref, Ref] = {}
        for r, children in enumerate(self.region_children):
            for ref in children:
                parent[ref] = ("r", r)
        for i, children in enumerate(self.node_children):
            for ref in children:
                if ref in parent:
                    raise ValueError(f"place reference {ref} has two parents")
                parent[ref] = ("n", i)
        self._parent = parent

        port_link: dict[tuple[int, int], int] = {}
        for e, link in enumerate(self.links):
            for port in link.ports:
                if port in port_link:
                    raise ValueError(f"port {port} occurs in two hyperedges")
                port_link[port] = e
        self._port_link = port_link

        if len(node_children) != len(nodes):
            raise ValueError("node_children must parallel nodes")
        for i in range(len(self.nodes)):
            if ("n", i) not in parent:
                raise ValueError(f"entity {i} has no parent")
        for s in range(nsites):
            if ("s", s) not in parent:
                raise ValueError(f"site {s} has no parent")

    # -- interface views ---------------------------------------------------

    @property
    def nregions(self) -> int:
        return len(self.region_children)

    @property
    def nnodes(self) -> int:
        return len(self.nodes)

    def outer_names(self) -> set[str]:
        return {lk.name for lk in self.links if lk.name is not None}

    def is_ground(self) -> bool:
        return self.nsites == 0

    # -- navigation --------------------------------------------------------

    def parent(self, ref: Ref) -> Ref:
        return self._parent[ref]

    def children(self, ref: Ref) -> tuple[Ref, ...]:
        kind, i = ref
        return self.node_children[i] if kind == "n" else self.region_children[i]

    def edge_counts(self, node: int) -> dict[int, int]:
        """Multiset of hyperedges this entity's ports sit on (edge index -> count)."""
        counts: dict[int, int] = {}
        arity = self.nodes[node][0].arity
        for p in range(arity):
            e = self._port_link[(node, p)]
            counts[e] = counts.get(e, 0) + 1
        return counts

    def preorder(self):
        """Yield place refs region by region, depth first, in child order."""
        stack: list[Ref] = []
        for r in range(self.nregions):
            stack = list(reversed(self.region_children[r]))
            while stack:
                ref = stack.pop()
                yield ref
                if ref[0] == "n":
                    stack.extend(reversed(self.node_children[ref[1]]))

    def descendants(self, node: int) -> set[int]:
        out: set[int] = set()
        todo = [node]
        while todo:
            v = todo.pop()
            for kind, c in self.node_children[v]:
                if kind == "n" and c not in out:
                    out.add(c)
                    todo.append(c)
        return out

    # -- rendering ---------------------------------------------------------

    def pretty(self) -> str:
        """Algebraic rendering, mainly for diagnostics and traces."""
        closed_names: dict[int, str] = {}
        for e, lk in enumerate(self.links):
            if lk.closed and lk.ports:
                closed_names[e] = f"e{len(closed_names)}"

        def link_ref(e: int) -> str:
            lk = self.links[e]
            return lk.name if lk.name is not None else closed_names[e]

        def render(ref: Ref) -> str:
            if ref[0] == "s":
                return "id"
            i = ref[1]
            ctrl, param = self.nodes[i]
            s = ctrl.name
            if param is not None:
                s += f"({param})"
            if ctrl.arity:
                names = sorted(link_ref(e) for e, k in self.edge_counts(i).items() for _ in range(k))
                s += "{" + ",".join(names) + "}"
            kids = self.node_children[i]
            if kids:
                body = " | ".join(render(c) for c in kids)
                s += f".({body})" if (len(kids) > 1 or "|" in body or "." in body) else f".{body}"
            return s

        regions = []
        for r in range(self.nregions):
            kids = self.region_children[r]
            regions.append(" | ".join(render(c) for c in kids) if kids else "1")
        body = " || ".join(regions) if regions else "0"
        if closed_names:
            return "/" + "/".join(closed_names.values()) + f" ({body})"
        return body

    def __repr__(self) -> str:
        return f"<Bigraph {self.pretty()}>"


# ---------------------------------------------------------------------------
# constructors


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
    if len(names) != ctrl.arity:
        raise ValueError(
            f"arity mismatch for {ctrl.name}: got {len(names)} names, arity is {ctrl.arity}"
        )
    if ctrl.parameterised and param is None:
        raise ValueError(f"control {ctrl.name} requires an integer parameter")
    if not ctrl.parameterised and param is not None:
        raise ValueError(f"control {ctrl.name} takes no parameter")
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


def _fuse_links(a: Bigraph, b: Bigraph, dn: int) -> list[Link]:
    """Concatenate link sets, fusing like-named open links into one hyperedge."""
    links: list[Link] = []
    by_name: dict[str, int] = {}
    for lk in a.links:
        if lk.name is not None:
            by_name[lk.name] = len(links)
        links.append(lk)
    for lk in b.links:
        ports = tuple((n + dn, p) for n, p in lk.ports)
        if lk.name is not None and lk.name in by_name:
            i = by_name[lk.name]
            old = links[i]
            links[i] = Link(old.name, old.ports + ports)
        else:
            if lk.name is not None:
                by_name[lk.name] = len(links)
            links.append(Link(lk.name, ports))
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


def _combine(a: Bigraph, b: Bigraph, flatten: bool) -> Bigraph:
    dn, ds = a.nnodes, a.nsites
    nodes = list(a.nodes) + list(b.nodes)
    node_children = [list(cs) for cs in a.node_children] + [
        [_shift_ref(c, dn, ds) for c in cs] for cs in b.node_children
    ]
    b_regions = [[_shift_ref(c, dn, ds) for c in cs] for cs in b.region_children]
    if flatten:
        merged: list[Ref] = [c for cs in a.region_children for c in cs]
        merged += [c for cs in b_regions for c in cs]
        region_children = [merged]
    else:
        region_children = [list(cs) for cs in a.region_children] + b_regions
    links = _fuse_links(a, b, dn)
    return _renumber_sites(
        Bigraph(nodes, node_children, region_children, a.nsites + b.nsites, links)
    )


def merge(a: Bigraph, b: Bigraph) -> Bigraph:
    """Juxtaposition under one region (the DSL's `|`); like outer names fuse."""
    return _combine(a, b, flatten=True)


def parallel(a: Bigraph, b: Bigraph) -> Bigraph:
    """Region concatenation (the DSL's `||`); like outer names fuse."""
    return _combine(a, b, flatten=False)


def nest(outer: Bigraph, inner: Bigraph) -> Bigraph:
    """Place `inner`'s single region into `outer`'s single site (the DSL's `.`)."""
    sites = [ref for ref in outer.preorder() if ref[0] == "s"]
    if len(sites) != 1:
        if outer.nnodes == 1 and outer.nodes[0][0].atomic:
            raise ValueError(
                f"atomic control {outer.nodes[0][0].name} cannot contain children"
            )
        raise ValueError(f"nest: outer must have exactly one site, found {len(sites)}")
    if inner.nregions != 1:
        raise ValueError(f"nest: inner must have exactly one region, found {inner.nregions}")

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
    links = _fuse_links(outer, inner, dn)
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
    if not parts:
        return empty()
    out = parts[0]
    for p in parts[1:]:
        out = merge(out, p)
    return out


def parallel_all(parts: list[Bigraph]) -> Bigraph:
    if not parts:
        return empty(regions=0)
    out = parts[0]
    for p in parts[1:]:
        out = parallel(out, p)
    return out


# ---------------------------------------------------------------------------
# validation


def validate(g: Bigraph) -> list[str]:
    """Exhaustive invariant scan; empty list means well formed."""
    errs: list[str] = []
    for i, (ctrl, param) in enumerate(g.nodes):
        have = sum(1 for (n, _p) in g._port_link if n == i)
        if have != ctrl.arity:
            errs.append(f"entity {i} ({ctrl.name}): {have} linked ports, arity is {ctrl.arity}")
        for p in range(ctrl.arity):
            if (i, p) not in g._port_link:
                errs.append(f"entity {i} ({ctrl.name}): port {p} dangling")
        if ctrl.parameterised and param is None:
            errs.append(f"entity {i} ({ctrl.name}): missing parameter")
        if not ctrl.parameterised and param is not None:
            errs.append(f"entity {i} ({ctrl.name}): unexpected parameter")
        if ctrl.atomic and g.node_children[i]:
            errs.append(f"entity {i} ({ctrl.name}): atomic control has children")
    seen_names: set[str] = set()
    for e, lk in enumerate(g.links):
        if lk.name is not None:
            if lk.name in seen_names:
                errs.append(f"outer name {lk.name!r} on two hyperedges")
            seen_names.add(lk.name)
        for n, p in lk.ports:
            if n >= g.nnodes or p >= g.nodes[n][0].arity:
                errs.append(f"hyperedge {e}: port ({n},{p}) out of range")
    # forest shape: every entity/site has exactly one parent (constructor enforces
    # at-least-one; double parents raise at construction, so only count check left)
    refs = list(g.preorder())
    entities = [r for r in refs if r[0] == "n"]
    if len(entities) != g.nnodes:
        errs.append("place graph is not a forest rooted at the regions")
    sites = sorted(r[1] for r in refs if r[0] == "s")
    if sites != list(range(g.nsites)):
        errs.append(f"sites not numbered 0..{g.nsites - 1}: {sites}")
    return errs
