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
sources alone keep each entity the child of its parent's image.  The
pattern's tables (:class:`Tables`) are computed once and kept with the
pattern, with one plan per host count of its controls; the agent's
(:class:`Host`) once per agent, and a caller that searches one agent for
several patterns builds one Host and passes it to each search.

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


class Host:
    """A ground agent's search tables: per entity its control name,
    parameter, parent, child entities and edge counts (agent edge -> ports,
    in edge order); per control its entities; per edge its entities and
    whether it is closed, with its port count."""

    __slots__ = ("agent", "ctrl", "param", "parent", "kids", "edges", "by_control",
                 "on_edge", "closed", "size")

    def __init__(self, agent: Bigraph):
        if not agent.is_ground():
            raise ValueError("occurrences: agent must be ground (no sites)")
        self.agent = agent
        self.ctrl = [ctrl.name for ctrl, _p in agent.nodes]
        self.param = [param for _ctrl, param in agent.nodes]
        self.parent = [agent.parent(("n", u)) for u in range(agent.nnodes)]
        self.kids = [tuple(c for _k, c in cs) for cs in agent.node_children]
        self.by_control: dict[str, list[int]] = {}
        for u, name in enumerate(self.ctrl):
            self.by_control.setdefault(name, []).append(u)
        self.edges: list[dict[int, int]] = [{} for _ in agent.nodes]
        self.on_edge: list[tuple[int, ...]] = []
        for E, lk in enumerate(agent.links):
            for v, _p in lk.ports:
                self.edges[v][E] = self.edges[v].get(E, 0) + 1
            self.on_edge.append(tuple(sorted({v for v, _p in lk.ports})))
        self.closed = [lk.closed for lk in agent.links]
        self.size = [len(lk.ports) for lk in agent.links]


class Tables:
    """A pattern's search tables: per entity its control name, parameter,
    parent entity (None for a region root), region (roots only), sorted
    ``(edge, count, closed, edge size)`` tuples, child entities, sites and
    pre-order position; how many entities of each control the pattern has,
    as sorted ``(control, count)`` pairs; and the search plans built so
    far, keyed by the host's counts of those controls and the groups."""

    __slots__ = ("ctrl", "param", "parent", "region", "edges", "kids", "sites", "pos",
                 "need", "plans", "nregions", "nsites")

    def __init__(self, pattern: Bigraph):
        n = pattern.nnodes
        self.ctrl = [ctrl.name for ctrl, _p in pattern.nodes]
        self.param = [param for _ctrl, param in pattern.nodes]
        self.parent: list[int | None] = [None] * n
        self.region: list[int | None] = [None] * n
        for r, cs in enumerate(pattern.region_children):
            for k, c in cs:
                if k == "n":
                    self.region[c] = r
        self.kids = [tuple(c for k, c in cs if k == "n") for cs in pattern.node_children]
        self.sites = [tuple(c for k, c in cs if k == "s") for cs in pattern.node_children]
        for i, cs in enumerate(self.kids):
            for c in cs:
                self.parent[c] = i
        counts: list[dict[int, int]] = [{} for _ in range(n)]
        for e, lk in enumerate(pattern.links):
            for v, _p in lk.ports:
                counts[v][e] = counts[v].get(e, 0) + 1
        self.edges = [
            tuple((e, cnt, pattern.links[e].closed, len(pattern.links[e].ports))
                  for e, cnt in sorted(cs.items()))
            for cs in counts
        ]
        self.pos = [0] * n
        for k, i in enumerate(i for kind, i in pattern.preorder() if kind == "n"):
            self.pos[i] = k
        self.need = tuple(sorted((name, self.ctrl.count(name)) for name in set(self.ctrl)))
        self.plans: dict[tuple, tuple[list[tuple], dict]] = {}
        self.nregions = pattern.nregions
        self.nsites = pattern.nsites


def _plan(pat: Tables, counts: dict[str, int]) -> list[tuple[int, str, int | None]]:
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
    n = len(pat.ctrl)
    done = [False] * n
    linked: set[int] = set()  # the pattern edges of mapped entities
    steps = []
    for _ in range(n):
        best = None
        for p in range(n):
            if done[p]:
                continue
            q = pat.parent[p]
            kid = next((c for c in pat.kids[p] if done[c]), None)
            edge = next((e for e, *_ in pat.edges[p] if e in linked), None)
            if q is not None and done[q]:
                kind, source, src = 0, "kids", q
            elif kid is not None:
                kind, source, src = 1, "up", kid
            elif edge is not None:
                kind, source, src = 2, "edge", edge
            else:
                kind, source, src = 3, "all", None
            key = (kind, counts[pat.ctrl[p]], pat.pos[p])
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
    def __init__(self, host: Host, pat: Tables, steps, bounds, domains):
        self.host = host
        self.pat = pat
        self.steps = steps
        self.bounds = bounds
        self.domains = domains or {}
        self.results: list[Match] = []
        self.nmap: list[int] = [-1] * len(pat.ctrl)
        self.emap: dict[int, int] = {}
        self.used_nodes: set[int] = set()
        self.used_edges: set[int] = set()
        self.anchors: list[Ref | None] = [None] * pat.nregions
        self.binding: dict[str, int] = {}

    def run(self) -> list[Match]:
        self._assign(0)
        self.results.sort(key=Match.sort_key)
        return self.results

    def _candidates(self, p: int, source: str, src):
        host, pat = self.host, self.pat
        if source == "kids":
            candidates = host.kids[self.nmap[src]]
        elif source == "up":
            a = host.parent[self.nmap[src]]
            candidates = (a[1],) if a[0] == "n" else ()
        elif source == "edge" and p not in self.bounds:
            candidates = host.on_edge[self.emap[src]]
        else:
            # a group member's later members need not share its edge, so it
            # counts them among every entity of its control
            candidates = host.by_control[pat.ctrl[p]]
        if p not in self.bounds:
            return candidates
        lo, hi, below, above = self.bounds[p]
        lo = -1 if lo is None else self.nmap[lo]
        hi = len(host.ctrl) if hi is None else self.nmap[hi]
        free = sorted(u for u in candidates
                      if lo < u < hi and host.ctrl[u] == pat.ctrl[p] and u not in self.used_nodes)
        return free[below : len(free) - above]

    def _assign(self, idx: int):
        if idx == len(self.steps):
            self._complete()
            return
        host, pat = self.host, self.pat
        p, source, src = self.steps[idx]
        name = pat.ctrl[p]
        want = len(pat.kids[p])
        has_site = bool(pat.sites[p])
        r = pat.region[p]
        pat_param = pat.param[p]
        var = pat_param.name if isinstance(pat_param, Var) else None
        dom = self.domains.get(var) if var is not None else None
        for u in self._candidates(p, source, src):
            if host.ctrl[u] != name or u in self.used_nodes:
                continue
            # child count feasibility: equality without a site, lower bound with one
            have = len(host.kids[u])
            if have < want if has_site else have != want:
                continue
            ag_param = host.param[u]
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
                a = host.parent[u]
                if self.anchors[r] is None:
                    self.anchors[r] = a
                    anchor_set = True
                elif self.anchors[r] != a:
                    continue
            if bind:
                self.binding[var] = ag_param
            self.nmap[p] = u
            self.used_nodes.add(u)
            self._assign_edges(u, pat.edges[p], 0, idx)
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
        host = self.host
        e, cnt, closed, size = pedges[i]
        ag = host.edges[u]
        E = self.emap.get(e)
        if E is not None:
            if ag.get(E) == cnt:
                self._assign_edges(u, pedges, i + 1, idx)
            return
        for E, c in ag.items():
            if c != cnt or E in self.used_edges:
                continue
            # a closed pattern edge is the whole of a closed agent edge
            if closed and (not host.closed[E] or host.size[E] != size):
                continue
            self.emap[e] = E
            self.used_edges.add(E)
            self._assign_edges(u, pedges, i + 1, idx)
            self.used_edges.discard(E)
            del self.emap[e]

    def _complete(self):
        host, pat, nmap = self.host, self.pat, self.nmap
        # site contents: unmatched children of matched parents
        site_images: list[tuple[int, ...]] = [()] * pat.nsites
        forest: set[int] = set()
        for p, u in enumerate(nmap):
            sites = pat.sites[p]
            if not sites:
                continue
            matched_children = {nmap[c] for c in pat.kids[p]}
            extras = tuple(c for c in host.kids[u] if c not in matched_children)
            site_images[sites[0]] = extras
            for root in extras:
                forest.add(root)
                forest |= host.agent.descendants(root)

        # anchors must lie in the context
        for a in self.anchors:
            if a is not None and a[0] == "n" and (a[1] in self.used_nodes or a[1] in forest):
                return

        self.results.append(
            Match(
                nodes=tuple(nmap),
                edges=tuple(sorted(self.emap.items())),
                anchors=tuple(self.anchors),
                site_images=tuple(site_images),
                binding=tuple(sorted(self.binding.items())),
            )
        )


def occurrences(
    agent: Bigraph | Host,
    pattern: Bigraph,
    *,
    domains: dict[str, set[int]] | None = None,
    groups: tuple[tuple[int, ...], ...] = (),
) -> list[Match]:
    """Complete, duplicate-free, deterministically ordered list of matches.

    `agent` is a ground bigraph, or the :class:`Host` of one shared by
    several searches of it.  `domains` restricts what values pattern
    parameter variables may bind.  With `groups` (disjoint tuples of
    interchangeable leaf entities) the same search keeps one match per
    orbit, its first; the caller must know that the groups are
    interchangeable.  A host with fewer entities of some control than the
    pattern has no match and is not searched; any other is searched along
    the plan for its counts of the pattern's controls, built on first use
    and kept with the pattern's tables.
    """
    host = agent if isinstance(agent, Host) else Host(agent)
    pat = pattern._tables
    if pat is None:  # built on first use, kept with the pattern
        pat = pattern._tables = Tables(pattern)
    counts = tuple(len(host.by_control.get(name, ())) for name, _need in pat.need)
    if any(have < need for have, (_name, need) in zip(counts, pat.need)):
        return []
    plan = pat.plans.get((counts, groups))
    if plan is None:
        steps = _plan(pat, {name: have for have, (name, _need) in zip(counts, pat.need)})
        plan = pat.plans[counts, groups] = (steps, _bounds(steps, groups))
    return _Search(host, pat, *plan, domains).run()
