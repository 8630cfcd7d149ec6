"""Value-semantic bigraphs.

A bigraph couples two structures over one entity set: a *place graph* (a
forest of entities below numbered regions, with numbered sites standing for
unspecified sub-bigraphs) and a *link graph* (hyperedges over entity ports,
carrying an outer name when open and nothing when closed).

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

# Place references: ("n", node id), ("s", site index), ("r", region index).
Ref = tuple[str, int]


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

    ``nodes[i]`` is a ``(Control, param)`` pair; ``node_children[i]`` and
    ``region_children[r]`` hold ordered child references (order is only
    significant for site numbering, sibling order is not part of identity).

    The constructor also builds the one place-and-link index that
    navigation, matching and canonical forms read: per entity i its parent
    ``up[i]`` (an entity, or ``~r`` below region r), its entity and site
    children ``kids[i]`` and ``sites[i]`` (in child order) and its
    ``(edge, port count)`` pairs ``node_edges[i]`` (in edge order); per site
    s its parent ``site_up[s]``; per hyperedge e its ``(entity, port
    count)`` pairs ``edge_nodes[e]`` (in port order).
    """

    __slots__ = (
        "nodes",
        "node_children",
        "region_children",
        "nsites",
        "links",
        "up",
        "site_up",
        "kids",
        "sites",
        "node_edges",
        "edge_nodes",
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
        self.node_children = tuple(map(tuple, node_children))
        self.region_children = tuple(map(tuple, region_children))
        self.nsites = nsites
        self.links = tuple(links)
        self._canon = None
        self._autos = None  # automorphism generators, found with the canonical form
        self._tables = None  # match.py's search tables, when used as a pattern

        n = len(self.nodes)
        if len(self.node_children) != n:
            raise ValueError("node_children must parallel nodes")
        self.up = up = [None] * n
        self.site_up = site_up = [None] * nsites
        self.kids = kids = [()] * n
        self.sites = sites = [()] * n
        self.node_edges = node_edges = [()] * n
        self.edge_nodes = edge_nodes = []
        one = _ONE_PORT
        try:
            for r, children in enumerate(self.region_children):
                for kind, c in children:
                    (up if kind == "n" else site_up)[c] = ~r
            for i, children in enumerate(self.node_children):
                if not children:
                    continue
                ks, ss = [], []
                for ref in children:
                    kind, c = ref
                    at, same = (up, ks) if kind == "n" else (site_up, ss)
                    if at[c] is not None:
                        raise ValueError(f"place reference {ref} has two parents")
                    at[c] = i
                    same.append(c)
                kids[i] = tuple(ks)
                sites[i] = tuple(ss)
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
            raise ValueError("a child reference or port names no entity or site") from None
        ports = [port for lk in self.links for port in lk.ports]
        if len(set(ports)) < len(ports):
            twice = next(port for k, port in enumerate(ports) if port in ports[:k])
            raise ValueError(f"port {twice} occurs in two hyperedges")
        if None in up:
            raise ValueError(f"entity {up.index(None)} has no parent")
        if None in site_up:
            raise ValueError(f"site {site_up.index(None)} has no parent")

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
        """The parent of an entity or a site."""
        kind, i = ref
        p = (self.up if kind == "n" else self.site_up)[i]
        return ("n", p) if p >= 0 else ("r", ~p)

    def children(self, ref: Ref) -> tuple[Ref, ...]:
        kind, i = ref
        return self.node_children[i] if kind == "n" else self.region_children[i]

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
            for c in self.kids[v]:
                if c not in out:
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

        # entities are written children first, in reverse pre-order, so
        # nesting depth costs no stack
        texts: list[str] = [""] * self.nnodes

        def join(refs) -> str:
            return " | ".join(texts[c] if kind == "n" else "id" for kind, c in refs)

        for kind, i in reversed(list(self.preorder())):
            if kind == "s":
                continue
            ctrl, param = self.nodes[i]
            s = ctrl.name
            if param is not None:
                s += f"({param})"
            if ctrl.arity:
                names = sorted(link_ref(e) for e, k in self.node_edges[i] for _ in range(k))
                s += "{" + ",".join(names) + "}"
            kids = self.node_children[i]
            if kids:
                body = join(kids)
                s += f".({body})" if (len(kids) > 1 or "|" in body or "." in body) else f".{body}"
            texts[i] = s

        regions = [join(kids) if kids else "1" for kids in self.region_children]
        body = " || ".join(regions) if regions else "0"
        if closed_names:
            return "/" + "/".join(closed_names.values()) + f" ({body})"
        return body

    def __repr__(self) -> str:
        return f"<Bigraph {self.pretty()}>"


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
        if ctrl.atomic and g.node_children[i]:
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
