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

The search maps pattern entities in pre-order, so a parent is mapped before
its children.  Each pattern entity takes its candidates, in agent entity
order, from the narrowest source already fixed: a child entity from the
children of its parent's image; a region root that shares an edge with an
entity mapped before it from the entities on that edge's image; any other
root from every agent entity of its control.  The pattern's tables
(:class:`Tables`) are computed once and kept with the pattern; the agent's
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
rest of its group is entered.  That member is the orbit's first in
`Match.sort_key` order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigraph import Bigraph, Ref
from .params import Var


@dataclass(frozen=True)
class Match:
    """One occurrence of a pattern in an agent."""

    nodes: tuple[int, ...]  # pattern entity id -> agent entity id
    edges: tuple[tuple[int, int], ...]  # (pattern link idx, agent link idx), sorted
    anchors: tuple[Ref | None, ...]  # per pattern region
    site_images: tuple[tuple[int, ...], ...]  # per pattern site: captured root entities
    binding: tuple[tuple[str, int], ...] = ()  # bound rule parameters, sorted

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
    """A pattern's search tables: its entities in pre-order and, per entity,
    control name, parameter, parent entity (None for a region root), region
    (roots only), sorted ``(edge, count, closed, edge size)`` tuples, child
    entities, sites and the edge whose image gives a root its candidates."""

    __slots__ = ("order", "ctrl", "param", "parent", "region", "edges", "kids", "sites",
                 "via", "nregions", "nsites")

    def __init__(self, pattern: Bigraph):
        n = pattern.nnodes
        self.order = [i for k, i in pattern.preorder() if k == "n"]
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
        self.via: list[int | None] = [None] * n
        mapped: set[int] = set()
        for p in self.order:
            if self.parent[p] is None:
                self.via[p] = next((e for e, *_ in self.edges[p] if e in mapped), None)
            mapped.update(e for e, *_ in self.edges[p])
        self.nregions = pattern.nregions
        self.nsites = pattern.nsites


class _Search:
    def __init__(self, host: Host, pat: Tables, domains, groups=()):
        self.host = host
        self.pat = pat
        self.domains = domains or {}
        # group member -> (the nearest members by id mapped before it, below
        # and above, or None; how many members mapped after it lie between
        # each of those and it)
        self.bounds: dict[int, tuple[int | None, int | None, int, int]] = {}
        for group in groups:
            step = {p: pat.order.index(p) for p in group}
            members = [None, *sorted(group), None]
            for k, p in enumerate(members[1:-1], 1):
                fixed = [j for j, q in enumerate(members) if q is None or step[q] < step[p]]
                lo, hi = max(j for j in fixed if j < k), min(j for j in fixed if j > k)
                self.bounds[p] = (members[lo], members[hi], k - lo - 1, hi - k - 1)
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

    def _candidates(self, p: int):
        host, pat = self.host, self.pat
        q = pat.parent[p]
        if q is not None:
            candidates = host.kids[self.nmap[q]]
        elif pat.via[p] is not None:
            candidates = host.on_edge[self.emap[pat.via[p]]]
        else:
            candidates = host.by_control.get(pat.ctrl[p], ())
        if p not in self.bounds:
            return candidates
        lo, hi, below, above = self.bounds[p]
        lo = -1 if lo is None else self.nmap[lo]
        hi = len(host.ctrl) if hi is None else self.nmap[hi]
        free = sorted(u for u in candidates
                      if lo < u < hi and host.ctrl[u] == pat.ctrl[p] and u not in self.used_nodes)
        return free[below : len(free) - above]

    def _assign(self, idx: int):
        pat = self.pat
        if idx == len(pat.order):
            self._complete()
            return
        host = self.host
        p = pat.order[idx]
        name = pat.ctrl[p]
        want = len(pat.kids[p])
        has_site = bool(pat.sites[p])
        r = pat.region[p]
        pat_param = pat.param[p]
        var = pat_param.name if isinstance(pat_param, Var) else None
        dom = self.domains.get(var) if var is not None else None
        for u in self._candidates(p):
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
    interchangeable pattern entities) the same search keeps one match per
    orbit, its first; the caller must know that the groups are
    interchangeable.
    """
    host = agent if isinstance(agent, Host) else Host(agent)
    if pattern._tables is None:  # built on first use, kept with the pattern
        pattern._tables = Tables(pattern)
    return _Search(host, pattern._tables, domains, groups).run()
