"""Value-semantic bigraphs.

A bigraph couples two structures over one entity set: a *place graph* (a
forest of entities below numbered regions, with numbered sites standing for
unspecified sub-bigraphs) and a *link graph* (hyperedges over entity ports,
carrying an outer name when open and nothing when closed).  As in Milner's
definition (*The Space and Motion of Communicating Agents*, 2009, ch. 2),
the place graph is stored as its parent map alone: each entity and each
site names its parent, an entity or a region.  Siblings are unordered, so
a parent map writes each place graph exactly one way, and every builder
(the elaborator, `rules.apply`, the canonical-form decoder) writes parents
directly.

Instances are immutable after construction.  Entity identifiers are dense,
local to one bigraph and carry no meaning across values; semantic equality
is isomorphism, handled by :mod:`tickgraph.canon`.

The elaborator builds each `.big` body in one pass
(:mod:`tickgraph.elaborate`).  The algebra (ion, nest, merge, parallel,
close) lives in `tests/algebra.py`: it is the fixture API that tests build
bigraphs with, and the reference that the elaborator's output is compared
against.  The two share only :func:`check_ion` and :func:`check_nest`.
"""

from __future__ import annotations

from .params import Term
from .records import Record

class Control(Record):
    """Entity type: fixes the port count, atomicity and parameter sort.

    ``_heads`` maps each parameter seen with this control to what canonical
    forms derive from the pair (:func:`tickgraph.canon._head`); it is a
    cache, so equality and hashing skip it."""

    __slots__ = ("name", "arity", "atomic", "parameterised", "_heads")
    _fields = __slots__[:-1]

    def __init__(self, name: str, arity: int = 0, atomic: bool = False,
                 parameterised: bool = False):
        self.name = name
        self.arity = arity
        self.atomic = atomic
        self.parameterised = parameterised
        self._heads = {}


class Link(Record):
    """One hyperedge.  ``name`` is the outer name of an open link, None when
    closed.  There are no inner names: no `.big` expression can write one."""

    __slots__ = ("name", "ports")

    def __init__(self, name: str | None, ports: tuple[tuple[int, int], ...]):
        self.name = name
        self.ports = ports  # (node id, port index)

    @property
    def closed(self) -> bool:
        return self.name is None


# The pairs (x, 1) for small x, shared by every index: nearly every port is
# its entity's only one on its edge, and a pair per port would cost each
# state more than the lists that hold them.
_ONE_PORT = tuple((x, 1) for x in range(1024))


class Bigraph:
    """Immutable bigraph value.

    ``nodes[i]`` is a ``(Control, param)`` pair.  The place graph is its
    parent map (Milner's ``prnt``): ``up[i]`` is entity i's parent and
    ``site_up[s]`` site s's, each an entity id, or ``~r`` for region r;
    there are ``nregions`` regions.  Siblings are unordered; the
    constructor lists each place's children in id order.

    The constructor also builds the index that navigation, matching and
    canonical forms read: per entity i its entity and site children
    ``kids[i]`` and ``sites[i]`` and its ``(edge, port count)`` pairs
    ``node_edges[i]`` (in edge order); per region r its entity and site
    children ``roots[r]`` and ``region_sites[r]``; per hyperedge e its
    ``(entity, port count)`` pairs ``edge_nodes[e]`` (in port order).
    """

    __slots__ = (
        "nodes",
        "up",
        "site_up",
        "nregions",
        "links",
        "kids",
        "sites",
        "roots",
        "region_sites",
        "node_edges",
        "edge_nodes",
        "_canon",
        "_autos",
        "_tables",
    )

    def __init__(
        self,
        nodes: list[tuple[Control, Term | None]],
        up: list[int],
        site_up: list[int],
        nregions: int,
        links: list[Link],
    ):
        self.nodes = tuple(nodes)
        self.up = up
        self.site_up = site_up
        self.nregions = nregions
        self.links = tuple(links)
        self._canon = None
        self._autos = None  # automorphism generators, found with the canonical form
        self._tables = None  # match.py's search tables, when used as a pattern

        n = len(self.nodes)
        if len(up) != n:
            raise ValueError("up must parallel nodes")
        self.kids, self.roots = _children(up, n, nregions)
        self.sites, self.region_sites = _children(site_up, n, nregions)
        self.node_edges = node_edges = [()] * n
        self.edge_nodes = edge_nodes = []
        one = _ONE_PORT
        try:
            for e, lk in enumerate(self.links):
                counts: dict[int, int] = {}
                for v, _p in lk.ports:
                    counts[v] = counts.get(v, 0) + 1
                members = []
                alone = (one[e] if e < 1024 else (e, 1),)  # shared by one-port entities
                for v, c in counts.items():
                    members.append(one[v] if c == 1 and v < 1024 else (v, c))
                    node_edges[v] += alone if c == 1 else ((e, c),)
                edge_nodes.append(tuple(members))
        except IndexError:
            raise ValueError("a port names no entity") from None
        ports = [port for lk in self.links for port in lk.ports]
        if ports and min(ports)[0] < 0:  # indexed above as counted from the end
            raise ValueError("a port names no entity")
        if len(set(ports)) < len(ports):
            twice = next(port for k, port in enumerate(ports) if port in ports[:k])
            raise ValueError(f"port {twice} occurs in two hyperedges")

    # -- interface views ---------------------------------------------------

    @property
    def nnodes(self) -> int:
        return len(self.nodes)

    @property
    def nsites(self) -> int:
        return len(self.site_up)

    def outer_names(self) -> set[str]:
        return {lk.name for lk in self.links if lk.name is not None}

    def is_ground(self) -> bool:
        return not self.site_up

    # -- navigation --------------------------------------------------------

    def preorder(self):
        """Yield entity ids region by region, depth first, children in id
        order."""
        kids = self.kids
        for roots in self.roots:
            stack = list(reversed(roots))
            while stack:
                v = stack.pop()
                yield v
                stack.extend(reversed(kids[v]))

    # -- rendering ---------------------------------------------------------

    def pretty(self) -> str:
        """Algebraic rendering, mainly for diagnostics and traces: a place's
        entity children in id order, then one `id` per site."""
        closed_names: dict[int, str] = {}
        for e, lk in enumerate(self.links):
            if lk.closed and lk.ports:
                closed_names[e] = f"e{len(closed_names)}"

        def link_ref(e: int) -> str:
            lk = self.links[e]
            return lk.name if lk.name is not None else closed_names[e]

        # entities are written children first, in reverse pre-order, so
        # nesting depth costs no stack
        texts: list[str] = [""] * self.nnodes

        def join(kids, sites) -> str:
            return " | ".join([texts[c] for c in kids] + ["id"] * len(sites)) or "1"

        for i in reversed(list(self.preorder())):
            ctrl, param = self.nodes[i]
            s = ctrl.name
            if param is not None:
                s += f"({param})"
            if ctrl.arity:
                names = sorted(link_ref(e) for e, k in self.node_edges[i] for _ in range(k))
                s += "{" + ",".join(names) + "}"
            body = join(self.kids[i], self.sites[i])
            if body != "1":
                s += f".({body})" if "|" in body or "." in body else f".{body}"
            texts[i] = s

        regions = [join(kids, sites) for kids, sites in zip(self.roots, self.region_sites)]
        body = " || ".join(regions) if regions else "0"
        if closed_names:
            return "/" + "/".join(closed_names.values()) + f" ({body})"
        return body

    def __repr__(self) -> str:
        return f"<Bigraph {self.pretty()}>"


def _children(parents: list[int], n: int, nregions: int) -> tuple[list, list]:
    """Per entity and per region, the ids whose parent it is (entity i, or
    ``~r`` for region r), in id order; ValueError for a parent that is no
    entity or region."""
    below: dict[int, list[int]] = {}
    for v, p in enumerate(parents):
        if p in below:
            below[p].append(v)
        else:
            below[p] = [v]
    of_entity, of_region = [()] * n, [()] * nregions
    try:
        for p, vs in below.items():
            if p >= 0:
                of_entity[p] = tuple(vs)
            else:
                of_region[~p] = tuple(vs)
    except (IndexError, TypeError):
        raise ValueError(f"parent {p!r} is no entity or region") from None
    return of_entity, of_region


# ---------------------------------------------------------------------------
# checks shared by the elaborator and the algebra (tests/algebra.py)


def check_ion(ctrl: Control, names: tuple[str, ...], param: Term | None) -> None:
    """Raise ValueError unless an ion of `ctrl` may have these names and parameter."""
    if len(names) != ctrl.arity:
        raise ValueError(
            f"arity mismatch for {ctrl.name}: got {len(names)} names, arity is {ctrl.arity}"
        )
    if ctrl.parameterised and param is None:
        raise ValueError(f"control {ctrl.name} requires an integer parameter")
    if not ctrl.parameterised and param is not None:
        raise ValueError(f"control {ctrl.name} takes no parameter")


def check_nest(outer_sites: int, inner_regions: int, head: Control | None = None) -> None:
    """Raise ValueError unless an outer with `outer_sites` sites can take an
    inner with `inner_regions` regions; `head` is the outer's one entity, if
    it has exactly one."""
    if outer_sites != 1:
        if head is not None and head.atomic:
            raise ValueError(f"atomic control {head.name} cannot contain children")
        raise ValueError(f"nest: outer must have exactly one site, found {outer_sites}")
    if inner_regions != 1:
        raise ValueError(f"nest: inner must have exactly one region, found {inner_regions}")


# ---------------------------------------------------------------------------
# validation


def validate(g: Bigraph) -> list[str]:
    """Exhaustive invariant scan; empty list means well formed."""
    errs: list[str] = []
    linked = {port for lk in g.links for port in lk.ports}
    for i, (ctrl, param) in enumerate(g.nodes):
        have = sum(c for _e, c in g.node_edges[i])
        if have != ctrl.arity:
            errs.append(f"entity {i} ({ctrl.name}): {have} linked ports, arity is {ctrl.arity}")
        for p in range(ctrl.arity):
            if (i, p) not in linked:
                errs.append(f"entity {i} ({ctrl.name}): port {p} dangling")
        if ctrl.parameterised and param is None:
            errs.append(f"entity {i} ({ctrl.name}): missing parameter")
        if not ctrl.parameterised and param is not None:
            errs.append(f"entity {i} ({ctrl.name}): unexpected parameter")
        if ctrl.atomic and (g.kids[i] or g.sites[i]):
            errs.append(f"entity {i} ({ctrl.name}): atomic control has children")
    seen_names: set[str] = set()
    for e, lk in enumerate(g.links):
        if lk.name is not None:
            if lk.name in seen_names:
                errs.append(f"outer name {lk.name!r} on two hyperedges")
            seen_names.add(lk.name)
        for n, p in lk.ports:
            if p >= g.nodes[n][0].arity:
                errs.append(f"hyperedge {e}: port ({n},{p}) out of range")
    # forest shape: every entity is reached from a region (no parent cycle)
    if sum(1 for _v in g.preorder()) != g.nnodes:
        errs.append("place graph is not a forest rooted at the regions")
    return errs
