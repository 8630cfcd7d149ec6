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
share a parent in the agent (the region's *anchor*), distinct regions may
share an anchor, and anchors must lie in the context (not in the image, not
inside a site's captured forest).  Unmatched children of a matched entity
are captured by that entity's site and survive rewriting; a matched entity
without a site admits no extra children.

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
sources alone keep each entity the child of its parent's image.  Parents,
children and edge memberships, of the agent and of the pattern, are read
from the index each bigraph builds once (see :class:`Bigraph`); the
pattern's own search tables (:class:`Tables`) are computed once and kept
with the pattern, with one plan per host count of its controls.

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

from .bigraph import Bigraph, Ref
from .params import Var
from .records import Record


class Match(Record):
    """One occurrence of a pattern in an agent."""

    __slots__ = ("nodes", "edges", "anchors", "site_images", "binding")

    def __init__(self, nodes: tuple[int, ...], edges: tuple[tuple[int, int], ...],
                 anchors: tuple[Ref | None, ...], site_images: tuple[tuple[int, ...], ...],
                 binding: tuple[tuple[str, int], ...] = ()):
        self.nodes = nodes  # pattern entity id -> agent entity id
        self.edges = edges  # (pattern link idx, agent link idx), sorted
        self.anchors = anchors  # per pattern region
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


class Tables:
    """What a pattern's search needs beyond the pattern's index: per entity
    its pre-order position and sorted ``(edge, count, closed, edge size)``
    tuples; how many entities of each control the pattern has, as sorted
    ``(control, count)`` pairs; and the search plans built so far, keyed by
    the host's counts of those controls and the groups."""

    __slots__ = ("pos", "edges", "need", "plans")

    def __init__(self, pattern: Bigraph):
        self.pos = [0] * pattern.nnodes
        for k, i in enumerate(i for kind, i in pattern.preorder() if kind == "n"):
            self.pos[i] = k
        links = pattern.links
        self.edges = [
            tuple((e, cnt, links[e].closed, len(links[e].ports)) for e, cnt in pairs)
            for pairs in pattern.node_edges
        ]
        names = [ctrl.name for ctrl, _p in pattern.nodes]
        self.need = tuple(sorted((name, names.count(name)) for name in set(names)))
        self.plans: dict[tuple, tuple[list[tuple], dict]] = {}


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
    done = [False] * n
    linked: set[int] = set()  # the pattern edges of mapped entities
    steps = []
    for _ in range(n):
        best = None
        for p in range(n):
            if done[p]:
                continue
            q = pattern.up[p]
            kid = next((c for c in pattern.kids[p] if done[c]), None)
            edge = next((e for e, *_ in pat.edges[p] if e in linked), None)
            if q >= 0 and done[q]:
                kind, source, src = 0, "kids", q
            elif kid is not None:
                kind, source, src = 1, "up", kid
            elif edge is not None:
                kind, source, src = 2, "edge", edge
            else:
                kind, source, src = 3, "all", None
            key = (kind, counts[pattern.nodes[p][0].name], pat.pos[p])
            if best is None or key < best[0]:
                best = (key, p, source, src)
        _key, p, source, src = best
        steps.append((p, source, src))
        done[p] = True
        linked.update(e for e, *_ in pat.edges[p])
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


class _Search:
    def __init__(self, agent: Bigraph, names: list[str], pattern: Bigraph, pat: Tables,
                 steps, bounds, domains):
        self.agent = agent
        self.names = names  # the agent's control name per entity
        self.of_control: dict[str, list[int]] = {}  # its entities per control, when asked
        self.pattern = pattern
        self.pat = pat
        self.steps = steps
        self.bounds = bounds
        self.domains = domains or {}
        self.results: list[Match] = []
        self.nmap: list[int] = [-1] * pattern.nnodes
        self.emap: dict[int, int] = {}
        self.used_nodes: set[int] = set()
        self.used_edges: set[int] = set()
        # per pattern region, its anchor as an agent index entry (see Bigraph.up)
        self.anchors: list[int | None] = [None] * pattern.nregions
        self.binding: dict[str, int] = {}

    def run(self) -> list[Match]:
        self._assign(0)
        self.results.sort(key=Match.sort_key)
        return self.results

    def _candidates(self, p: int, name: str, source: str, src):
        agent = self.agent
        if source == "kids":
            candidates = agent.kids[self.nmap[src]]
        elif source == "up":
            a = agent.up[self.nmap[src]]
            candidates = (a,) if a >= 0 else ()
        elif source == "edge" and p not in self.bounds:
            candidates = [v for v, _c in agent.edge_nodes[self.emap[src]]]
        else:
            # a group member's later members need not share its edge, so it
            # counts them among every entity of its control
            candidates = self.of_control.get(name)
            if candidates is None:
                candidates = [u for u, c in enumerate(self.names) if c == name]
                self.of_control[name] = candidates
        if p not in self.bounds:
            return candidates
        lo, hi, below, above = self.bounds[p]
        lo = -1 if lo is None else self.nmap[lo]
        hi = agent.nnodes if hi is None else self.nmap[hi]
        names = self.names
        free = sorted(u for u in candidates
                      if lo < u < hi and names[u] == name and u not in self.used_nodes)
        return free[below : len(free) - above]

    def _assign(self, idx: int):
        if idx == len(self.steps):
            self._complete()
            return
        agent, pattern = self.agent, self.pattern
        names, nodes, kids, up = self.names, agent.nodes, agent.kids, agent.up
        p, source, src = self.steps[idx]
        ctrl, pat_param = pattern.nodes[p]
        name = ctrl.name
        want = len(pattern.kids[p])
        has_site = bool(pattern.sites[p])
        q = pattern.up[p]
        r = ~q if q < 0 else None  # the region of a region root
        var = pat_param.name if isinstance(pat_param, Var) else None
        dom = self.domains.get(var) if var is not None else None
        for u in self._candidates(p, name, source, src):
            if names[u] != name or u in self.used_nodes:
                continue
            # child count feasibility: equality without a site, lower bound with one
            have = len(kids[u])
            if have < want if has_site else have != want:
                continue
            ag_param = nodes[u][1]
            bind = False
            if var is not None:
                if not isinstance(ag_param, int):
                    continue
                if var in self.binding:
                    if self.binding[var] != ag_param:
                        continue
                elif dom is not None and ag_param not in dom:
                    continue
                else:
                    bind = True
            elif isinstance(pat_param, int) or pat_param is None:
                if pat_param != ag_param:
                    continue
            else:
                continue  # arithmetic terms are reactum-only
            anchor_set = False
            if r is not None:
                a = up[u]
                if self.anchors[r] is None:
                    self.anchors[r] = a
                    anchor_set = True
                elif self.anchors[r] != a:
                    continue
            if bind:
                self.binding[var] = ag_param
            self.nmap[p] = u
            self.used_nodes.add(u)
            self._assign_edges(u, self.pat.edges[p], 0, idx)
            self.used_nodes.discard(u)
            if bind:
                del self.binding[var]
            if anchor_set:
                self.anchors[r] = None

    def _assign_edges(self, u: int, pedges, i: int, idx: int):
        """Map the pattern edges of the entity at `idx` from `pedges[i]` on
        onto `u`'s edges, then go on with the next entity, once per
        consistent choice."""
        if i == len(pedges):
            self._assign(idx + 1)
            return
        e, cnt, closed, size = pedges[i]
        ag = self.agent.node_edges[u]
        E = self.emap.get(e)
        if E is not None:
            if (E, cnt) in ag:
                self._assign_edges(u, pedges, i + 1, idx)
            return
        links = self.agent.links
        for E, c in ag:
            if c != cnt or E in self.used_edges:
                continue
            # a closed pattern edge is the whole of a closed agent edge
            if closed and (not links[E].closed or len(links[E].ports) != size):
                continue
            self.emap[e] = E
            self.used_edges.add(E)
            self._assign_edges(u, pedges, i + 1, idx)
            self.used_edges.discard(E)
            del self.emap[e]

    def _complete(self):
        agent, pattern, nmap = self.agent, self.pattern, self.nmap
        # site contents: unmatched children of matched parents
        site_images: list[tuple[int, ...]] = [()] * pattern.nsites
        forest: set[int] = set()
        for p, u in enumerate(nmap):
            sites = pattern.sites[p]
            if not sites:
                continue
            matched_children = {nmap[c] for c in pattern.kids[p]}
            extras = tuple(c for c in agent.kids[u] if c not in matched_children)
            site_images[sites[0]] = extras
            for root in extras:
                forest.add(root)
                forest |= agent.descendants(root)

        # anchors must lie in the context
        for a in self.anchors:
            if a is not None and a >= 0 and (a in self.used_nodes or a in forest):
                return

        self.results.append(
            Match(
                nodes=tuple(nmap),
                edges=tuple(sorted(self.emap.items())),
                anchors=tuple(None if a is None else ("n", a) if a >= 0 else ("r", ~a)
                              for a in self.anchors),
                site_images=tuple(site_images),
                binding=tuple(sorted(self.binding.items())),
            )
        )


def occurrences(
    agent: Bigraph,
    pattern: Bigraph,
    *,
    domains: dict[str, set[int]] | None = None,
    groups: tuple[tuple[int, ...], ...] = (),
) -> list[Match]:
    """Complete, duplicate-free, deterministically ordered list of matches.

    `agent` is a ground bigraph.  `domains` restricts what values pattern
    parameter variables may bind.  With `groups` (disjoint tuples of
    interchangeable leaf entities) the same search keeps one match per
    orbit, its first; the caller must know that the groups are
    interchangeable.  A host with fewer entities of some control than the
    pattern has no match and is not searched; any other is searched along
    the plan for its counts of the pattern's controls, built on first use
    and kept with the pattern's tables.
    """
    if not agent.is_ground():
        raise ValueError("occurrences: agent must be ground (no sites)")
    pat = pattern._tables
    if pat is None:  # built on first use, kept with the pattern
        pat = pattern._tables = Tables(pattern)
    names = [ctrl.name for ctrl, _param in agent.nodes]
    counts = tuple([names.count(name) for name, _need in pat.need])
    if any(have < need for have, (_name, need) in zip(counts, pat.need)):
        return []
    plan = pat.plans.get((counts, groups))
    if plan is None:
        steps = _plan(pattern, pat, {name: have for have, (name, _need) in zip(counts, pat.need)})
        plan = pat.plans[counts, groups] = (steps, _bounds(steps, groups))
    return _Search(agent, names, pattern, pat, *plan, domains).run()
