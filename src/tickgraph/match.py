"""Occurrence finding: all embeddings of a pattern bigraph in a ground agent.

An occurrence is a decomposition of the agent into context, pattern image and
parameters (site contents).  Concretely it is an injective entity map that
preserves controls, parameters and the parent relation, together with an
injective hyperedge map.  Entity ports are matched as unordered multisets:
for every matched entity there is a bijection between its pattern edges and
its image's edges with equal port counts.  A closed pattern edge must map to
a closed agent edge all of whose ports are covered by the image; an open
pattern edge may map to any agent edge (extra ports stay with the context).

Pattern regions place independently: the top-level entities of one region
share a parent in the agent (the region's *anchor*, written as a parent is:
an entity, or ``~r`` for region r), distinct regions may share an anchor,
and anchors must lie in the context (not in the image, not inside a site's
captured forest).  Unmatched children of a matched entity are captured by
that entity's site and survive rewriting; a matched entity without a site
admits no extra children.

A host that holds fewer entities of some control than the pattern has no
match, and the search ends before it starts.  Otherwise it maps pattern
entities along a plan.  Each connected part of the pattern (entities linked
by parent, child or shared edge) starts at the entity whose control is
rarest in the host, ties going by pre-order, and grows one neighbour of a
mapped entity at a time: a child of a mapped entity takes its candidates,
in agent entity order, from the children of its parent's image; else the
parent of a mapped child takes the parent of that child's image; else an
entity on a mapped edge takes the entities on that edge's image.  A parent
is mapped as soon as the subtree of its first mapped child is, so these
sources alone keep each entity the child of its parent's image.  Parents
are read from each bigraph's parent map, children and edge memberships
from the index it derives once (see :class:`Bigraph`); the pattern's own
search tables (:class:`Tables`) are computed once and kept with the
pattern, with one plan per host count of its controls.

Set-up is paid once, not per search.  A caller that searches one state for
several patterns (every rule family and condition of an expansion, every
predicate of a labelled state) builds the state's :class:`Tally`, its
control names and counts, once and passes it to each search; nothing of
it stays on the state.  Each plan is compiled when it is cached: its steps
hold the source as a small int, the control name, the child-count rule,
the region, the parameter variable or value, the edge tuples and the group
bounds, so a search step reads no pattern attribute, and an entity without
pattern edges goes straight to the next step.  A complete map checks its
anchors by walking up from each: an anchor lies in the context when
neither it nor any entity above it is mapped, because a mapped entity's
unmapped children are exactly the roots its site captures.

The search recurses once per pattern entity and once more per entity with
ports and per pattern edge, so a pattern whose entities plus edges leave
its callers too little of the interpreter's recursion limit cannot be
searched: building its tables raises :class:`PatternLimit`, once per
pattern, and a search of a shallow pattern checks nothing.

A search may be given groups of interchangeable pattern entities (see
`rules.Model.groups`: leaf siblings of one control that a swap, together
with their parameters and private outer names, maps onto themselves).
Every match then stands for one orbit of matches that differ only by a
permutation of the images inside each group, and the search keeps only the
member whose images ascend with the entity id inside every group.  A
member's candidates are the free entities of its control between the
images of the members mapped before it, less as many at each end as the
members mapped after it need there, so no prefix without room for the
rest of its group is entered.  A member whose parent is mapped before it
counts its parent image's children; any other counts every entity of its
control, since its later members need not share the edge or child it
would be found by.  The member kept is the orbit's first in
`Match.sort_key` order.
"""

from __future__ import annotations

import sys

from .bigraph import Bigraph
from .params import Var
from .records import Record, ResourceLimit


class Match(Record):
    """One occurrence of a pattern in an agent."""

    __slots__ = ("nodes", "edges", "anchors", "site_images", "binding")

    def __init__(self, nodes: tuple[int, ...], edges: tuple[tuple[int, int], ...],
                 anchors: tuple[int | None, ...], site_images: tuple[tuple[int, ...], ...],
                 binding: tuple[tuple[str, int], ...] = ()):
        self.nodes = nodes  # pattern entity id -> agent entity id
        self.edges = edges  # (pattern link idx, agent link idx), sorted
        self.anchors = anchors  # per pattern region: an entity, ~r for region r, or None
        self.site_images = site_images  # per pattern site: captured root entities
        self.binding = binding  # bound rule parameters, sorted

    @property
    def image(self) -> frozenset[int]:
        return frozenset(self.nodes)

    def edge_map(self) -> dict[int, int]:
        return dict(self.edges)

    def binding_env(self) -> dict[str, int]:
        return dict(self.binding)

    def sort_key(self):
        return (self.nodes, self.edges, self.binding)


class PatternLimit(ValueError, ResourceLimit):
    """A pattern too deep to search: mapping it nests more calls than the
    interpreter's recursion limit leaves room for (see :class:`Tables`)."""


# the recursion limit less this is what a search may use; the rest is for
# its callers, a command's or a test runner's
_HEADROOM = 100

# where a plan step takes its candidates (see `_plan`)
_KIDS, _UP, _EDGE, _ALL = range(4)
_SOURCES = {"kids": _KIDS, "up": _UP, "edge": _EDGE, "all": _ALL}
_MANY = sys.maxsize  # the most children an entity with a site may have
_NEVER = object()  # stands for an arithmetic redex parameter: equals no host's


class Tally:
    """A host's control name per entity, its number of entities per control
    and, once a search asks, its entities per control.  Built once per
    state and shared by every search of it; the state does not keep it."""

    __slots__ = ("names", "counts", "of_control")

    def __init__(self, agent: Bigraph):
        if not agent.is_ground():
            raise ValueError("occurrences: agent must be ground (no sites)")
        self.names = names = [ctrl.name for ctrl, _param in agent.nodes]
        counts: dict[str, int] = {}
        for name in names:
            counts[name] = counts.get(name, 0) + 1
        self.counts = counts
        self.of_control: dict[str, list[int]] = {}

    def entities(self, name: str) -> list[int]:
        """The host's entities of control `name`, in entity order."""
        found = self.of_control.get(name)
        if found is None:
            found = self.of_control[name] = [u for u, c in enumerate(self.names) if c == name]
        return found


class Tables:
    """What a pattern's search needs beyond the pattern's index: per entity
    its pre-order position and sorted ``(edge, count, closed, edge size)``
    tuples; the pattern's controls and how many entities of each it has;
    per entity with a site, ``(entity, its first site)``; and the search
    plans compiled so far (see :func:`_compile`), keyed by the host's
    counts of those controls and the groups.  A pattern whose search would
    nest more calls than the recursion limit less `_HEADROOM` raises
    :class:`PatternLimit` instead."""

    __slots__ = ("pos", "edges", "controls", "need", "site_of", "compiled")

    def __init__(self, pattern: Bigraph):
        self.pos = [0] * pattern.nnodes
        for k, i in enumerate(pattern.preorder()):
            self.pos[i] = k
        links = pattern.links
        self.edges = [
            tuple((e, cnt, links[e].closed, len(links[e].ports)) for e, cnt in pairs)
            for pairs in pattern.node_edges
        ]
        names = [ctrl.name for ctrl, _p in pattern.nodes]
        self.controls = tuple(sorted(set(names)))
        self.need = tuple(names.count(name) for name in self.controls)
        self.site_of = tuple((p, s[0]) for p, s in enumerate(pattern.sites) if s)
        # one `_assign` frame per entity, one `_assign_edges` more per entity
        # with ports and per edge, and the search's own few
        depth = pattern.nnodes + sum(1 for es in self.edges if es) + len(links) + 3
        budget = sys.getrecursionlimit() - _HEADROOM
        if depth > budget:
            raise PatternLimit(
                f"{pattern.nnodes} entities and {len(links)} hyperedges need {depth} nested "
                f"search calls, more than the {budget} the interpreter's stack allows"
            )
        self.compiled: dict[tuple, tuple[tuple, ...]] = {}


def _plan(pattern: Bigraph, pat: Tables, counts: dict[str, int]) -> list[tuple[int, str, int | None]]:
    """The order in which to map the pattern's entities, as steps
    ``(entity, source, source entity or edge)``.

    Each step maps an unmapped entity next to a mapped one, preferring a
    child of a mapped entity ("kids" of the parent's image), then the
    parent of a mapped child ("up": the parent of that child's image), then
    an entity on a mapped edge ("edge": the entities on the edge's image).
    An entity next to none starts a connected part and takes every entity
    of its control ("all").  Within each kind the control rarest in the
    host goes first, then pre-order.

    A parent is thus mapped as soon as the subtree of its first mapped child
    is, and its other children after it: no entity needs a check of its
    parent beyond its source.
    """
    n = pattern.nnodes
    up, kids, edges, pos = pattern.up, pattern.kids, pat.edges, pat.pos
    rarity = [counts[ctrl.name] for ctrl, _param in pattern.nodes]
    # per unmapped entity the kind of its best source, kept up to date as
    # entities are mapped: 0 kids, 1 up, 2 edge, 3 all
    kind = [3] * n
    done = [False] * n
    todo = set(range(n))
    linked: set[int] = set()  # the pattern edges of mapped entities
    steps = []
    for _ in range(n):
        p = min(todo, key=lambda v: (kind[v], rarity[v], pos[v]))
        if kind[p] == 0:
            steps.append((p, "kids", up[p]))
        elif kind[p] == 1:
            steps.append((p, "up", next(c for c in kids[p] if done[c])))
        elif kind[p] == 2:
            steps.append((p, "edge", next(e for e, *_ in edges[p] if e in linked)))
        else:
            steps.append((p, "all", None))
        todo.discard(p)
        done[p] = True
        for c in kids[p]:
            kind[c] = 0
        q = up[p]
        if q >= 0 and kind[q] > 1:
            kind[q] = 1
        for e, *_ in edges[p]:
            if e not in linked:
                linked.add(e)
                for v, _c in pattern.edge_nodes[e]:
                    kind[v] = min(kind[v], 2)
    return steps


def _bounds(steps, groups) -> dict[int, tuple[int | None, int | None, int, int]]:
    """Per group member, the nearest members by id mapped before it, below
    and above (None if there is none), and how many members mapped after it
    lie between each of those and it."""
    at = {p: i for i, (p, *_rest) in enumerate(steps)}
    bounds = {}
    for group in groups:
        members = [None, *sorted(group), None]
        for k, p in enumerate(members[1:-1], 1):
            fixed = [j for j, q in enumerate(members) if q is None or at[q] < at[p]]
            lo, hi = max(j for j in fixed if j < k), min(j for j in fixed if j > k)
            bounds[p] = (members[lo], members[hi], k - lo - 1, hi - k - 1)
    return bounds


def _compile(pattern: Bigraph, pat: Tables, steps, bounds) -> tuple[tuple, ...]:
    """The plan's steps with what `_Search._assign` reads of each entity:
    ``(entity, source, source entity or edge, control name, least and most
    children, region if a region root else -1, parameter variable or None,
    parameter to equal when there is no variable, edge tuples, group
    bounds or None)``.  A child count must equal the pattern's unless the
    entity has a site, which makes it a lower bound.  A group member found
    by an edge takes every entity of its control: its later members need not
    share that edge (see :func:`occurrences`)."""
    compiled = []
    for p, source, src in steps:
        ctrl, param = pattern.nodes[p]
        want = len(pattern.kids[p])
        q = pattern.up[p]
        var = param.name if isinstance(param, Var) else None
        exact = param if param is None or isinstance(param, int) else _NEVER
        bound = bounds.get(p)
        kind = _SOURCES[source]
        if kind == _EDGE and bound is not None:
            kind = _ALL
        compiled.append((p, kind, src, ctrl.name, want,
                         _MANY if pattern.sites[p] else want, ~q if q < 0 else -1,
                         var, exact, pat.edges[p], bound))
    return tuple(compiled)


class _Search:
    __slots__ = ("agent", "tally", "names", "nodes", "kids", "steps", "last", "site_of",
                 "nsites", "domains", "results", "nmap", "emap", "used_nodes", "used_edges",
                 "anchors", "binding")

    def __init__(self, agent: Bigraph, tally: Tally, pattern: Bigraph, pat: Tables,
                 steps: tuple[tuple, ...], domains):
        self.agent = agent
        self.tally = tally
        self.names = tally.names
        self.nodes = agent.nodes
        self.kids = agent.kids
        self.last = len(steps)
        self.steps = steps
        self.site_of = pat.site_of
        self.nsites = pattern.nsites
        self.domains = domains or {}
        self.results: list[Match] = []
        self.nmap: list[int] = [-1] * pattern.nnodes
        self.emap: dict[int, int] = {}
        self.used_nodes: set[int] = set()
        self.used_edges: set[int] = set()
        # per pattern region, its anchor as a parent (see Bigraph.up)
        self.anchors: list[int | None] = [None] * pattern.nregions
        self.binding: dict[str, int] = {}

    def run(self) -> list[Match]:
        self._assign(0)
        if len(self.results) > 1:
            self.results.sort(key=Match.sort_key)
        return self.results

    def _bounded(self, candidates, name: str, bound) -> list[int]:
        """The free `candidates` of control `name` that leave a group member
        room between the members mapped before it (see :func:`_bounds`)."""
        lo, hi, below, above = bound
        nmap, used, names = self.nmap, self.used_nodes, self.names
        lo = -1 if lo is None else nmap[lo]
        hi = self.agent.nnodes if hi is None else nmap[hi]
        free = sorted(u for u in candidates if lo < u < hi and names[u] == name and u not in used)
        return free[below : len(free) - above]

    def _assign(self, idx: int):
        if idx == self.last:
            self._complete()
            return
        p, source, src, name, least, most, r, var, exact, pedges, bound = self.steps[idx]
        agent, kids = self.agent, self.kids
        if source == _KIDS:
            candidates = kids[self.nmap[src]]
        elif source == _UP:
            a = agent.up[self.nmap[src]]
            candidates = (a,) if a >= 0 else ()
        elif source == _EDGE:
            candidates = [v for v, _c in agent.edge_nodes[self.emap[src]]]
        else:
            candidates = self.tally.entities(name)
        if bound is not None:
            candidates = self._bounded(candidates, name, bound)
        names, nodes, nmap, used = self.names, self.nodes, self.nmap, self.used_nodes
        bind = False
        if var is not None:
            binding = self.binding
            fixed = binding.get(var)
            dom = self.domains.get(var)
            bind = fixed is None
        anchor = None
        if r >= 0:
            up, anchors = agent.up, self.anchors
            anchor = anchors[r]
            placing = anchor is None  # this step places region r
        for u in candidates:
            if names[u] != name or u in used or not least <= len(kids[u]) <= most:
                continue
            value = nodes[u][1]
            if var is None:
                if value != exact:
                    continue
            elif not bind:
                if value != fixed:
                    continue
            elif not isinstance(value, int) or dom is not None and value not in dom:
                continue
            if r >= 0:
                if placing:
                    anchors[r] = up[u]
                elif up[u] != anchor:
                    continue
            if bind:
                binding[var] = value
            nmap[p] = u
            used.add(u)
            if pedges:
                self._assign_edges(u, pedges, 0, idx)
            else:
                self._assign(idx + 1)
            used.discard(u)
        if bind:
            binding.pop(var, None)
        if anchor is None and r >= 0:
            anchors[r] = None

    def _assign_edges(self, u: int, pedges, i: int, idx: int):
        """Map the pattern edges of the entity at `idx` from `pedges[i]` on
        onto `u`'s edges, then go on with the next entity, once per
        consistent choice.  An edge mapped before must be one of `u`'s with
        the same port count; the first unmapped one tries each of them."""
        ag = self.agent.node_edges[u]
        emap = self.emap
        for i in range(i, len(pedges)):
            e, cnt, closed, size = pedges[i]
            E = emap.get(e)
            if E is None:
                break
            if (E, cnt) not in ag:
                return
        else:
            self._assign(idx + 1)
            return
        links, used = self.agent.links, self.used_edges
        for E, c in ag:
            if c != cnt or E in used:
                continue
            # a closed pattern edge is the whole of a closed agent edge
            if closed and (not links[E].closed or len(links[E].ports) != size):
                continue
            emap[e] = E
            used.add(E)
            self._assign_edges(u, pedges, i + 1, idx)
            used.discard(E)
            del emap[e]

    def _complete(self):
        agent, used = self.agent, self.used_nodes
        # anchors must lie in the context: neither an anchor nor any entity
        # above it is mapped.  A mapped entity's unmapped children are the
        # roots its site captures (one without a site has none), so this
        # also refuses an anchor inside a captured forest
        up = agent.up
        for a in self.anchors:
            while a is not None and a >= 0:
                if a in used:
                    return
                a = up[a]
        nmap, kids = self.nmap, agent.kids
        # site contents: unmapped children of mapped parents
        site_images: list[tuple[int, ...]] = [()] * self.nsites
        for p, s in self.site_of:
            site_images[s] = tuple([c for c in kids[nmap[p]] if c not in used])
        emap, binding = self.emap, self.binding
        self.results.append(Match(
            tuple(nmap),
            tuple(sorted(emap.items())) if emap else (),
            tuple(self.anchors),
            tuple(site_images),
            tuple(sorted(binding.items())) if binding else (),
        ))


def occurrences(
    agent: Bigraph,
    pattern: Bigraph,
    *,
    domains: dict[str, set[int]] | None = None,
    groups: tuple[tuple[int, ...], ...] = (),
    tally: Tally | None = None,
) -> list[Match]:
    """Complete, duplicate-free, deterministically ordered list of matches.

    `agent` is a ground bigraph.  `domains` restricts what values pattern
    parameter variables may bind.  With `groups` (disjoint tuples of
    interchangeable leaf entities) the same search keeps one match per
    orbit, its first; the caller must know that the groups are
    interchangeable.  `tally` is the agent's :class:`Tally`, which a
    caller that searches one state for several patterns builds once; it
    is built here when not given.  A host with fewer entities of some
    control than the pattern has no match and is not searched; any other
    is searched along the plan for its counts of the pattern's controls,
    built and compiled on first use and kept with the pattern's tables.
    """
    if tally is None:
        tally = Tally(agent)
    pat = pattern._tables
    if pat is None:  # built on first use, kept with the pattern
        pat = pattern._tables = Tables(pattern)
    counts = tally.counts
    have = tuple([counts.get(name, 0) for name in pat.controls])
    for n, need in zip(have, pat.need):
        if n < need:
            return []
    key = (have, groups)
    steps = pat.compiled.get(key)
    if steps is None:
        plan = _plan(pattern, pat, dict(zip(pat.controls, have)))
        steps = pat.compiled[key] = _compile(pattern, pat, plan, _bounds(plan, groups))
    return _Search(agent, tally, pattern, pat, steps, domains).run()
