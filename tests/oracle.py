"""Independent brute-force oracles for the matcher and the explorer.

Deliberately different algorithms from the engine: the occurrence oracle
enumerates every injective control-preserving entity map and filters it
against the occurrence conditions written out directly; the iso oracle
enumerates entity bijections; the exploration oracle walks the state space
depth-first and deduplicates states by fingerprint buckets plus brute-force
isomorphism, never touching canonical forms.  The canonical-form reference
is the plain search the engine's pruned one must equal.  The reachability
references compute the 0/1 sets by plain nested fixpoints and values by Gauss-Seidel
value iteration in state order.
"""

from __future__ import annotations

import copy
import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from tickgraph.bigraph import Bigraph, Ref
from tickgraph.params import Var, term_eval


def _binding_of(pattern, nmap, agent, domains):
    """Derive and check the parameter valuation for a candidate entity map."""
    binding = {}
    for p, u in enumerate(nmap):
        pp = pattern.nodes[p][1]
        ap = agent.nodes[u][1]
        if pp is None and ap is None:
            continue
        if isinstance(pp, int):
            if pp != ap:
                return None
        elif isinstance(pp, Var):
            if not isinstance(ap, int):
                return None
            if domains and pp.name in domains and ap not in domains[pp.name]:
                return None
            if pp.name in binding and binding[pp.name] != ap:
                return None
            binding[pp.name] = ap
        else:
            return None
    return binding


def brute_occurrences(agent: Bigraph, pattern: Bigraph, domains=None, excluded=frozenset()):
    """All occurrences as (nodes, edges, binding) triples."""
    np = pattern.nnodes
    candidates = []
    for p in range(np):
        ctrl = pattern.nodes[p][0]
        cands = [
            u
            for u in range(agent.nnodes)
            if agent.nodes[u][0].name == ctrl.name and u not in excluded
        ]
        candidates.append(cands)

    results = set()
    for nmap in itertools.product(*candidates):
        if len(set(nmap)) != np:
            continue
        binding = _binding_of(pattern, nmap, agent, domains)
        if binding is None:
            continue
        if not _place_respected(agent, pattern, nmap):
            continue
        for edges in _edge_maps(agent, pattern, nmap):
            results.add(
                (tuple(nmap), tuple(sorted(edges.items())), tuple(sorted(binding.items())))
            )
    return results


def _place_respected(agent, pattern, nmap):
    anchors = {}
    image = set(nmap)
    for p, u in enumerate(nmap):
        par = pattern.parent(("n", p))
        if par[0] == "n":
            if agent.parent(("n", u)) != ("n", nmap[par[1]]):
                return False
        else:
            r = par[1]
            a = agent.parent(("n", u))
            if anchors.setdefault(r, a) != a:
                return False
    # children exactness / site capture
    forest = set()
    for p, u in enumerate(nmap):
        pat_kids = [c for k, c in pattern.node_children[p] if k == "n"]
        sites = [c for k, c in pattern.node_children[p] if k == "s"]
        agent_kids = [c for k, c in agent.node_children[u] if k == "n"]
        images = {nmap[c] for c in pat_kids}
        if not images <= set(agent_kids):
            return False
        extras = [c for c in agent_kids if c not in images]
        if not sites and extras:
            return False
        for root in extras:
            forest.add(root)
            forest |= agent.descendants(root)
    for a in anchors.values():
        if a[0] == "n" and (a[1] in image or a[1] in forest):
            return False
    return True


def _edge_maps(agent, pattern, nmap):
    """All injective hyperedge maps consistent with the entity map."""
    pat_edges = list(range(len(pattern.links)))
    # per pattern edge: the count every entity on it must exhibit on the image edge
    constraints = {e: {} for e in pat_edges}
    for p in range(pattern.nnodes):
        for e, cnt in pattern.edge_counts(p).items():
            constraints[e][nmap[p]] = cnt

    candidates = {}
    for e in pat_edges:
        closed = pattern.links[e].closed
        cands = []
        for E, lk in enumerate(agent.links):
            if closed and not lk.closed:
                continue
            ok = all(
                sum(1 for (v, _q) in lk.ports if v == u) == cnt
                for u, cnt in constraints[e].items()
            )
            if not ok:
                continue
            if closed and len(lk.ports) != len(pattern.links[e].ports):
                continue
            cands.append(E)
        candidates[e] = cands

    # every port of an image entity must land on a mapped edge (per-entity bijection)
    def per_node_ok(emap):
        for p, u in enumerate(nmap):
            pat_counts = pattern.edge_counts(p)
            ag_counts = agent.edge_counts(u)
            mapped = {}
            for e, cnt in pat_counts.items():
                E = emap[e]
                mapped[E] = mapped.get(E, 0) + cnt
            if mapped != ag_counts:
                return False
        return True

    for combo in itertools.product(*(candidates[e] for e in pat_edges)):
        if len(set(combo)) != len(combo):
            continue
        emap = dict(zip(pat_edges, combo))
        if per_node_ok(emap):
            yield emap


# ---------------------------------------------------------------------------
# brute-force isomorphism


def _fingerprint(g: Bigraph):
    per_node = sorted(
        (
            g.nodes[i][0].name,
            str(g.nodes[i][1]),
            len(g.node_children[i]),
            tuple(sorted(len(g.links[e].ports) for e in g.edge_counts(i))),
        )
        for i in range(g.nnodes)
    )
    per_edge = sorted(
        (lk.name or "", len(lk.ports)) for lk in g.links if lk.ports or lk.name
    )
    return (g.nregions, tuple(per_node), tuple(per_edge))


def brute_iso(a: Bigraph, b: Bigraph) -> bool:
    """Backtracking bijection search: parents before children, so candidates
    shrink to the siblings of the image parent."""
    if a.nnodes != b.nnodes or a.nregions != b.nregions or a.nsites != b.nsites:
        return False
    if _fingerprint(a) != _fingerprint(b):
        return False

    def key(g, v):
        return (
            g.nodes[v][0].name,
            str(g.nodes[v][1]),
            len(g.node_children[v]),
        )

    def edges_ok(bij):
        used = set()
        for lk in a.links:
            if not lk.ports and lk.name is None:
                continue
            members = {}
            for v, _p in lk.ports:
                members[bij[v]] = members.get(bij[v], 0) + 1
            target = None
            for E, lk2 in enumerate(b.links):
                if E in used or lk2.name != lk.name:
                    continue
                m2 = {}
                for v, _p in lk2.ports:
                    m2[v] = m2.get(v, 0) + 1
                if m2 == members:
                    target = E
                    break
            if target is None:
                return False
            used.add(target)
        return True

    def site_parents_ok(bij, region_map):
        for s in range(a.nsites):
            par = a.parent(("s", s))
            want = ("n", bij[par[1]]) if par[0] == "n" else ("r", region_map[par[1]])
            if b.parent(("s", s)) != want:
                return False
        return True

    for perm in itertools.permutations(range(b.nregions)):
        region_map = dict(enumerate(perm))
        order = [v for ref in a.preorder() if ref[0] == "n" for v in [ref[1]]]
        bij: dict[int, int] = {}
        used: set[int] = set()

        def rec(idx: int) -> bool:
            if idx == len(order):
                return site_parents_ok(bij, region_map) and edges_ok(bij)
            v = order[idx]
            par = a.parent(("n", v))
            if par[0] == "n":
                pool = [c for k, c in b.node_children[bij[par[1]]] if k == "n"]
            else:
                pool = [c for k, c in b.region_children[region_map[par[1]]] if k == "n"]
            want = key(a, v)
            for u in pool:
                if u in used or key(b, u) != want:
                    continue
                bij[v] = u
                used.add(u)
                if rec(idx + 1):
                    return True
                used.discard(u)
                del bij[v]
            return False

        if rec(0):
            return True
    return False


# ---------------------------------------------------------------------------
# brute-force exploration (depth-first, fingerprint-bucketed iso dedup)


@dataclass
class OracleMdp:
    states: list[Bigraph] = field(default_factory=list)
    choices: list[list[tuple[str, list[tuple[int, float]]]]] = field(default_factory=list)

    @property
    def n_choices(self):
        return sum(len(c) for c in self.choices)

    @property
    def n_transitions(self):
        return sum(len(d) for cs in self.choices for _a, d in cs)


def every_match(model):
    """A copy of `model` without groups of interchangeable redex entities, so
    that `rules.enabled_outcomes` gives every match as an outcome."""
    model = copy.copy(model)
    model.groups = {}
    return model


def oracle_explore(model, max_states=50000) -> OracleMdp:
    from tickgraph.rules import apply, enabled_outcomes

    model = every_match(model)
    out = OracleMdp()
    buckets: dict[tuple, list[int]] = {}

    def intern(g: Bigraph) -> tuple[int, bool]:
        fp = _fingerprint(g)
        for idx in buckets.get(fp, ()):
            if brute_iso(out.states[idx], g):
                return idx, False
        idx = len(out.states)
        out.states.append(g)
        out.choices.append([])
        buckets.setdefault(fp, []).append(idx)
        return idx, True

    root, _new = intern(model.init)
    stack = [root]
    seen_expanded = set()
    while stack:
        s = stack.pop()
        if s in seen_expanded:
            continue
        seen_expanded.add(s)
        if len(out.states) > max_states:
            raise RuntimeError("oracle explorer exceeded state budget")
        agent = out.states[s]
        per_action = enabled_outcomes(agent, model)
        for action, outcomes in per_action.items():
            # normalisation and iso-merging reimplemented here, on purpose
            total = sum(oc.weight for oc in outcomes)
            entries: list[tuple[int, float]] = []
            for oc in outcomes:
                succ = apply(agent, oc.rule, oc.match)
                idx, new = intern(succ)
                if new:
                    stack.append(idx)
                for k, (tgt, p0) in enumerate(entries):
                    if tgt == idx:
                        entries[k] = (tgt, p0 + oc.weight / total)
                        break
                else:
                    entries.append((idx, oc.weight / total))
            out.choices[s].append((action, entries))
    return out


# ---------------------------------------------------------------------------
# rule outcomes by one search per rule entry and one condition search per
# match: the matching that one search per family per state replaced


def entry_outcomes(agent: Bigraph, entry) -> list:
    """The entry's outcomes from its own redex search over its domains, each
    match blocked by a condition occurrence disjoint from its image."""
    from dataclasses import replace

    from tickgraph.match import occurrences
    from tickgraph.rules import Outcome

    fam, pat = entry.family, entry.pattern
    out = []
    for m in occurrences(agent, fam.redex, domains=pat.match_domains):
        if fam.condition is not None and _blocked(agent, fam.condition, m):
            continue
        for values in pat.valuations(m.binding):
            env = dict(zip(fam.formal, values))
            full = replace(m, binding=tuple(sorted(env.items())))
            out.append(Outcome(fam, full, fam.weight))
    return out


def _blocked(agent: Bigraph, condition: Bigraph, m) -> bool:
    """Whether some occurrence of `condition` lies wholly outside `m`'s image."""
    from tickgraph.match import occurrences

    return any(m.image.isdisjoint(c.nodes) for c in occurrences(agent, condition))


def per_entry_enabled_outcomes(agent: Bigraph, model) -> dict[str, list]:
    """`enabled_outcomes` over :func:`entry_outcomes`."""
    for cls in model.classes:
        grouped: dict[str, list] = {}
        for entry in cls:
            for oc in entry_outcomes(agent, entry):
                grouped.setdefault(model.action_of[oc.rule.base], []).append(oc)
        if grouped:
            return {a: grouped[a] for a in model.action_order if a in grouped}
    return {}


def reference_action_distribution(agent: Bigraph, outcomes: list) -> list:
    """`rules.action_distribution` by exact arithmetic, with no skipped
    `apply`: every outcome whose effect key is new is applied and
    canonicalised, isomorphic results merge by canonical form, and each
    result's probability is its weight sum over the action's, taken as a
    `Fraction` and rounded once.  Pass every match (see :func:`every_match`)."""
    from tickgraph.canon import canonical_form
    from tickgraph.rules import apply, effect_key

    by_effect: dict[tuple, int] = {}
    by_canon: dict[bytes, int] = {}
    entries: list[list] = []  # [result, weight sum]
    for oc in outcomes:
        effect = effect_key(oc.rule, oc.match)
        i = by_effect.get(effect)
        if i is None:
            succ = apply(agent, oc.rule, oc.match)
            i = by_canon.setdefault(canonical_form(succ), len(entries))
            if i == len(entries):
                entries.append([succ, Fraction(0)])
            by_effect[effect] = i
        entries[i][1] += Fraction(oc.weight) * oc.multiplicity
    total = sum(w for _g, w in entries)
    return [(g, float(w / total)) for g, w in entries]


# ---------------------------------------------------------------------------
# rule outcomes by expansion: every valuation becomes a concrete rule that is
# matched on its own, an independent route to what one symbolic match per
# rule entry computes


def _subst(g: Bigraph, env: dict[str, int]) -> Bigraph:
    nodes = [(c, p if p is None or isinstance(p, int) else term_eval(p, env)) for c, p in g.nodes]
    return Bigraph(
        nodes,
        [list(cs) for cs in g.node_children],
        [list(cs) for cs in g.region_children],
        g.nsites,
        list(g.links),
    )


def instantiate(family, env: dict[str, int]):
    """The concrete rule (a family with no formals) named after its valuation."""
    from tickgraph.rules import RuleFamily

    return RuleFamily(
        base=family.instance_name(env),
        formal=(),
        redex=_subst(family.redex, env),
        reactum=_subst(family.reactum, env),
        weight=family.weight,
        condition=family.condition,
    )


def expand(family, domains: dict[str, tuple[int, ...]]) -> list:
    """One concrete rule per valuation in the cartesian product of the domains."""
    for v in family.formal:
        if v not in domains or not domains[v]:
            raise ValueError(f"rule {family.base}: empty or missing domain for {v!r}")
    return [
        instantiate(family, dict(zip(family.formal, combo)))
        for combo in itertools.product(*(domains[v] for v in family.formal))
    ]


def class_instance_names(model) -> list[set[str]]:
    """Per priority class, the names of every rule instance its entries hold."""
    return [
        {
            e.family.instance_name(dict(zip(e.family.formal, combo)))
            for e in cls
            for combo in itertools.product(*e.domains)
        }
        for cls in model.classes
    ]


def expanded_outcomes(agent: Bigraph, model) -> dict[str, list[tuple[str, bytes, float]]]:
    """Per enabled action, (instance name, successor canonical form, weight)
    for each match of each concrete instance, sorted."""
    from tickgraph.canon import canonical_form
    from tickgraph.match import occurrences
    from tickgraph.rules import apply

    for cls in model.classes:
        found: dict[str, list[tuple[str, bytes, float]]] = {}
        for entry in cls:
            domains = dict(zip(entry.family.formal, entry.domains))
            for rule in expand(entry.family, domains):
                for m in occurrences(agent, rule.redex):
                    if rule.condition is not None and _blocked(agent, rule.condition, m):
                        continue
                    succ = canonical_form(apply(agent, rule, m))
                    action = model.action_of[entry.family.base]
                    found.setdefault(action, []).append((rule.base, succ, rule.weight))
        if found:
            return {a: sorted(found[a]) for a in model.action_order if a in found}
    return {}


# ---------------------------------------------------------------------------
# canonical forms: the plain individualisation-refinement search, without
# automorphism pruning, flat tables or shortcuts, kept as the reference that
# `tickgraph.canon.canonical_form` must equal byte for byte


def _param_repr(param) -> str:
    return "" if param is None else str(param)


def _ranks(sigs: list) -> list[int]:
    table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [table[s] for s in sigs]


def _colours(g: Bigraph) -> tuple[list[int], list[int]]:
    """Initial ranks: control, parameter and arity; open name or closed."""
    nrank = _ranks([(ctrl.name, _param_repr(param), ctrl.arity) for ctrl, param in g.nodes])
    erank = _ranks([lk.name if lk.name is not None else "\x00closed" for lk in g.links])
    return nrank, erank


def _refine(g: Bigraph, nrank: list[int], erank: list[int]) -> tuple[list[int], list[int]]:
    """Refine the given ranks until no class splits (no salted hashing).

    An entity's signature is its rank, its parent's rank, its children's
    ranks and the ranks of the hyperedges on its ports; a hyperedge's is its
    rank and its members' ranks.  Ranks index the sorted signatures, so the
    result only splits classes and keeps the order between them.
    """
    parents = [g.parent(("n", i)) for i in range(g.nnodes)]
    counts = [g.edge_counts(i) for i in range(g.nnodes)]
    members = [Counter(n for n, _p in lk.ports) for lk in g.links]
    while True:
        new_n = _ranks([
            (
                nrank[i],
                -1 if par[0] == "r" else nrank[par[1]],
                tuple(sorted(nrank[c] if k == "n" else -1 for k, c in g.node_children[i])),
                tuple(sorted((erank[e], cnt) for e, cnt in counts[i].items())),
            )
            for i, par in enumerate(parents)
        ])
        new_e = _ranks([
            (erank[e], tuple(sorted((nrank[n], c) for n, c in m.items())))
            for e, m in enumerate(members)
        ])
        stable = len(set(new_n)) == len(set(nrank)) and len(set(new_e)) == len(set(erank))
        nrank, erank = new_n, new_e
        if stable:
            return nrank, erank


def _search(g: Bigraph, nrank: list[int], erank: list[int]) -> str:
    """Smallest leaf encoding below these ranks (individualise tied closed edges)."""
    nrank, erank = _refine(g, nrank, erank)
    cells: dict[int, list[int]] = {}
    for e, lk in enumerate(g.links):
        if lk.closed and lk.ports:
            cells.setdefault(erank[e], []).append(e)
    tied = [cell for _r, cell in sorted(cells.items()) if len(cell) > 1]
    if not tied:
        return _encode(g, erank)
    r = erank[tied[0][0]]
    # the chosen edge keeps rank 2r, the rest of its class move to 2r + 1
    return min(
        _search(g, nrank, [2 * x + (x == r and f != e) for f, x in enumerate(erank)])
        for e in tied[0]
    )


def _encode(g: Bigraph, erank: list[int]) -> str:
    """Write the forest with closed edges numbered by rank, siblings sorted by
    text, then the portless open names.  The empty `;X=` tail once listed
    inner names; it stays so that cached bytes do not change."""
    closed = sorted((erank[e], e) for e, lk in enumerate(g.links) if lk.closed and lk.ports)
    num = {e: i for i, (_r, e) in enumerate(closed)}

    def node(i: int) -> str:
        ctrl, param = g.nodes[i]
        open_refs: list[str] = []
        closed_refs: list[int] = []
        for e, cnt in g.edge_counts(i).items():
            name = g.links[e].name
            if name is None:
                closed_refs.extend([num[e]] * cnt)
            else:
                open_refs.extend([f"o{name}"] * cnt)
        refs = sorted(open_refs) + [f"c{n}" for n in sorted(closed_refs)]
        return (
            f"{ctrl.name}({_param_repr(param)})"
            + "{" + ",".join(refs) + "}"
            + "[" + children(g.node_children[i]) + "]"
        )

    def children(refs: tuple[Ref, ...]) -> str:
        return ";".join(sorted(node(c) if k == "n" else f"${c}" for k, c in refs))

    regions = sorted(children(cs) for cs in g.region_children)
    portless = sorted(lk.name for lk in g.links if lk.name is not None and not lk.ports)
    return (
        f"bg;{g.nregions};{g.nsites};"
        + "".join(f"R[{r}]" for r in regions)
        + ";Y=" + ",".join(portless) + ";X="
    )


def reference_canonical_form(g: Bigraph) -> bytes:
    """The smallest leaf encoding over the whole search tree."""
    return _search(g, *_colours(g)).encode("ascii")


# ---------------------------------------------------------------------------
# reachability on explicit MDPs: choices[s] = [(action, [(t, p), ...]), ...]
#
# The checker's former solver, kept as the reference: 0/1 sets by nested
# fixpoints rescanning every state, then Gauss-Seidel sweeps in state order.


def _predecessors(choices) -> list[list[int]]:
    pred: list[list[int]] = [[] for _ in choices]
    for s, cs in enumerate(choices):
        for _a, dist in cs:
            for t, _p in dist:
                pred[t].append(s)
    return pred


def backward_reach(choices, seeds: set[int], allowed=None) -> set[int]:
    pred = _predecessors(choices)
    seen = set(seeds)
    todo = list(seeds)
    while todo:
        t = todo.pop()
        for s in pred[t]:
            if s not in seen and (allowed is None or allowed[s]):
                seen.add(s)
                todo.append(s)
    return seen


def prob0_avoid_set(choices, target: list[bool]) -> set[int]:
    """States from which some scheduler avoids the target forever (Pmin = 0)."""
    avoid = {s for s in range(len(choices)) if not target[s]}
    changed = True
    while changed:
        changed = False
        for s in list(avoid):
            cs = choices[s]
            if not cs:
                continue  # deadlock: absorbing, avoids forever
            if not any(all(t in avoid for t, _p in d) for _a, d in cs):
                avoid.discard(s)
                changed = True
    return avoid


def prob1_sure_set(choices, target: list[bool]) -> set[int]:
    """States where the best scheduler reaches the target with probability one.

    Greatest fixpoint over candidate sets X of the least fixpoint growing from
    the target through choices that stay inside X and touch the grown set.
    """
    n = len(choices)
    tset = {s for s in range(n) if target[s]}
    X = set(range(n))
    while True:
        Y = set(tset)
        changed = True
        while changed:
            changed = False
            for s in range(n):
                if s in Y:
                    continue
                for _a, d in choices[s]:
                    supp = {t for t, _p in d}
                    if supp <= X and supp & Y:
                        Y.add(s)
                        changed = True
                        break
        if Y == X:
            return X
        X = Y


def zero_one_sets(choices, target: list[bool], mode: str) -> tuple[set[int], set[int]]:
    """States whose Pmin or Pmax of reaching the target is exactly 0 and 1."""
    n = len(choices)
    tset = {s for s in range(n) if target[s]}
    if mode == "max":
        return set(range(n)) - backward_reach(choices, tset), prob1_sure_set(choices, target)
    avoid = prob0_avoid_set(choices, target)
    escape = backward_reach(choices, avoid, allowed=[not t for t in target])
    return avoid, set(range(n)) - escape


def gauss_seidel(choices, target: list[bool], mode: str, tol: float = 1e-13) -> list[float]:
    """Reachability values: the 0/1 sets, then in-place sweeps in state order
    until no value moves by `tol`; deadlocks are absorbing."""
    zero, one = zero_one_sets(choices, target, mode)
    values = [1.0 if s in one else 0.0 for s in range(len(choices))]
    free = [s for s in range(len(choices)) if s not in zero and s not in one]
    pick = min if mode == "min" else max
    delta = 1.0
    while delta >= tol:
        delta = 0.0
        for s in free:
            best = pick(sum(p * values[t] for t, p in d) for _a, d in choices[s])
            delta = max(delta, abs(best - values[s]))
            values[s] = best
    return values
