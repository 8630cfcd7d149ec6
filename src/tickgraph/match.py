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


class _Search:
    def __init__(self, agent: Bigraph, pattern: Bigraph, domains, excluded):
        self.agent = agent
        self.pattern = pattern
        self.domains = domains or {}
        self.excluded = excluded
        self.results: list[Match] = []

        self.by_control: dict[str, list[int]] = {}
        for i, (ctrl, _p) in enumerate(agent.nodes):
            self.by_control.setdefault(ctrl.name, []).append(i)

        # pattern entities in pre-order so parents precede children
        self.order = [ref[1] for ref in pattern.preorder() if ref[0] == "n"]
        self.pat_region_of: dict[int, int] = {}
        self.pat_parent: dict[int, int | None] = {}
        for r in range(pattern.nregions):
            for k, c in pattern.region_children[r]:
                if k == "n":
                    self.pat_region_of[c] = r
        for i in range(pattern.nnodes):
            par = pattern.parent(("n", i))
            self.pat_parent[i] = par[1] if par[0] == "n" else None
        self.pat_edge_counts = [pattern.edge_counts(i) for i in range(pattern.nnodes)]
        self.pat_child_nodes = [
            [c for k, c in pattern.node_children[i] if k == "n"]
            for i in range(pattern.nnodes)
        ]
        self.pat_sites = [
            [c for k, c in pattern.node_children[i] if k == "s"]
            for i in range(pattern.nnodes)
        ]

        self.nmap: dict[int, int] = {}
        self.emap: dict[int, int] = {}
        self.used_nodes: set[int] = set()
        self.used_edges: set[int] = set()
        self.anchors: list[Ref | None] = [None] * pattern.nregions
        self.anchor_fixed: list[bool] = [False] * pattern.nregions
        self.binding: dict[str, int] = {}

    # -- parameter handling --------------------------------------------------

    def _param_ok(self, pat_param, ag_param, undo: list):
        if pat_param is None:
            return ag_param is None
        if isinstance(pat_param, int):
            return pat_param == ag_param
        if isinstance(pat_param, Var):
            if not isinstance(ag_param, int):
                return False
            name = pat_param.name
            if name in self.binding:
                return self.binding[name] == ag_param
            dom = self.domains.get(name)
            if dom is not None and ag_param not in dom:
                return False
            self.binding[name] = ag_param
            undo.append(name)
            return True
        return False  # arithmetic terms are reactum-only

    # -- search ---------------------------------------------------------------

    def run(self) -> list[Match]:
        self._assign(0)
        self.results.sort(key=Match.sort_key)
        return self.results

    def _assign(self, idx: int):
        if idx == len(self.order):
            self._complete()
            return
        p = self.order[idx]
        ctrl, pat_param = self.pattern.nodes[p]
        for u in self.by_control.get(ctrl.name, ()):
            if u in self.used_nodes or u in self.excluded:
                continue
            undo_bind: list[str] = []
            if not self._param_ok(pat_param, self.agent.nodes[u][1], undo_bind):
                for name in undo_bind:
                    del self.binding[name]
                continue
            if not self._place_ok(p, u):
                for name in undo_bind:
                    del self.binding[name]
                continue

            q = self.pat_parent[p]
            anchor_set = False
            if q is None:
                r = self.pat_region_of[p]
                agent_parent = self.agent.parent(("n", u))
                if self.anchor_fixed[r]:
                    if self.anchors[r] != agent_parent:
                        for name in undo_bind:
                            del self.binding[name]
                        continue
                else:
                    self.anchors[r] = agent_parent
                    self.anchor_fixed[r] = True
                    anchor_set = True

            self.nmap[p] = u
            self.used_nodes.add(u)
            for _ in self._edge_assignments(p, u):
                self._assign(idx + 1)
            del self.nmap[p]
            self.used_nodes.discard(u)
            if anchor_set:
                r = self.pat_region_of[p]
                self.anchors[r] = None
                self.anchor_fixed[r] = False
            for name in undo_bind:
                del self.binding[name]

    def _place_ok(self, p: int, u: int) -> bool:
        q = self.pat_parent[p]
        if q is not None:
            if self.agent.parent(("n", u)) != ("n", self.nmap[q]):
                return False
        # child count feasibility: equality without a site, lower bound with one
        want = len(self.pat_child_nodes[p])
        have = len(self.agent.node_children[u])
        if self.pat_sites[p]:
            return have >= want
        return have == want

    def _edge_assignments(self, p: int, u: int):
        """Yield once per consistent pattern-edge -> agent-edge choice at p.

        State in ``emap``/``used_edges`` is live while the caller is inside the
        yield and unwound here on resume.
        """
        pat = sorted(self.pat_edge_counts[p].items())
        ag = self.agent.edge_counts(u)

        def rec(i: int):
            if i == len(pat):
                yield None
                return
            e, cnt = pat[i]
            if e in self.emap:
                if ag.get(self.emap[e]) == cnt:
                    yield from rec(i + 1)
                return
            closed = self.pattern.links[e].closed
            for E in sorted(ag):
                if ag[E] != cnt or E in self.used_edges:
                    continue
                if closed and not self.agent.links[E].closed:
                    continue
                self.emap[e] = E
                self.used_edges.add(E)
                yield from rec(i + 1)
                self.used_edges.discard(E)
                del self.emap[e]

        yield from rec(0)

    def _complete(self):
        agent, pattern = self.agent, self.pattern
        image = set(self.nmap.values())

        # closed pattern edges must be fully consumed by the image
        for e, E in self.emap.items():
            lk = pattern.links[e]
            if lk.closed and len(agent.links[E].ports) != len(lk.ports):
                return

        # site contents: unmatched children of matched parents
        site_images: list[tuple[int, ...]] = [()] * pattern.nsites
        forest: set[int] = set()
        for p, u in self.nmap.items():
            sites = self.pat_sites[p]
            if not sites:
                continue
            matched_children = {self.nmap[c] for c in self.pat_child_nodes[p]}
            extras = tuple(
                c for k, c in agent.node_children[u] if k == "n" and c not in matched_children
            )
            site_images[sites[0]] = extras
            for root in extras:
                forest.add(root)
                forest |= agent.descendants(root)

        # anchors must lie in the context
        for r in range(pattern.nregions):
            a = self.anchors[r]
            if a is not None and a[0] == "n" and (a[1] in image or a[1] in forest):
                return

        self.results.append(
            Match(
                nodes=tuple(self.nmap[p] for p in range(pattern.nnodes)),
                edges=tuple(sorted(self.emap.items())),
                anchors=tuple(self.anchors),
                site_images=tuple(site_images),
                binding=tuple(sorted(self.binding.items())),
            )
        )


def occurrences(
    agent: Bigraph,
    pattern: Bigraph,
    *,
    domains: dict[str, set[int]] | None = None,
    excluded: frozenset[int] = frozenset(),
) -> list[Match]:
    """Complete, duplicate-free, deterministically ordered list of matches.

    `domains` restricts what values pattern parameter variables may bind.
    `excluded` bans agent entities from the image (negative context checks).
    """
    if not agent.is_ground():
        raise ValueError("occurrences: agent must be ground (no sites)")
    return _Search(agent, pattern, domains, excluded).run()
