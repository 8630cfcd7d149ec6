"""Canonical forms for bigraphs.

Two bigraphs get equal encodings exactly when they are isomorphic: same
controls and parameters, isomorphic place forests (regions and siblings
permute freely), isomorphic link structure with open names compared by
identity and closed edges anonymous.  Used for state deduplication, so
stability across runs and platforms matters: no builtin ``hash`` anywhere.

The scheme is individualisation-refinement (McKay & Piperno, "Practical
graph isomorphism, II", J. Symb. Comput. 2014):

* colour refinement ranks every entity and hyperedge by its control,
  parameter, parent, children and links until no rank class splits;
* while some rank class holds more than one closed edge that carries ports,
  each edge of the first such class in turn gets a rank of its own, the
  ranks are refined again and the search recurses;
* at a leaf every such closed edge has its own rank, so the edges are
  numbered by rank and the forest is written out with siblings and regions
  sorted by their own text, as in AHU tree canonisation.  The smallest leaf
  encoding wins.

The search visits less than that whole tree, and finds the same smallest
leaf:

* With at most one closed edge carrying ports that edge is numbered 0
  whatever the ranks, so the bigraph is written out at once, without
  refinement (every pta-like state and every state of bare tokens).
* Two leaves with equal text reveal an automorphism: the map from one
  leaf's edge numbering to the other's.  It fixes the edges individualised
  on the two paths' common prefix and maps the earlier leaf's subtree below
  that prefix onto the later leaf's, so the search resumes at the node where
  the paths diverge.
* At a node, a member of the cell is skipped when its orbit, under the
  automorphisms found so far that fix every edge individualised on the path
  to the node, holds a member already searched: its subtree is the image of
  that member's and writes the same texts.

Entities that carry no closed edges never branch: equal subtrees write
equal text, so any number of interchangeable atoms costs one leaf.  Closed-
linked symmetry costs about one extra path per search level, not a
factorial.

Automorphisms found on the way are kept with the encoding, as generators
(`Bigraph._autos`), for `rules.action_distribution`, which applies one
outcome per orbit of them.  A generator is an (entity map, edge map) pair
that lists only what it moves; regions and sites never move.  There are two
sources:

* Two sibling subtrees with equal text reference the same edges under any
  numbering, so swapping them, entity for entity in text order, is an
  automorphism that fixes every edge.  The first leaf written (the only one
  with at most one closed edge carrying ports) yields one swap per
  neighbouring pair of equal siblings.  Detecting them costs one set of
  (parent, text) pairs, and a look at each child list only when that set
  has a repeat.
* Two equal leaves give the edge map above.  Pairing the entities in the
  order the two leaves write them extends it to entities, at the cost of
  writing the earlier leaf once more.  A pairing that would move one
  region's content to another region is dropped.

The generators need not span the whole automorphism group; each must map
the bigraph onto itself.  Exploring twelve tokens linked in six identical
closed pairs (28 states) computes 43 forms with 198 leaves and 155 extra
writes in about 0.11 s (before generators were used: 169 forms, 759
leaves, 0.2 s); fourteen tokens (36 states) take 57 forms, 315 leaves and
about 0.23 s.  The worst case left is refinement itself: a closed ring of
twelve tokens (224 states) computes 1,057 forms, not 2,689, with 1,374
leaves and 317 extra writes in about 1.6 s (2.9 s before), most of it in
refinement rounds that spread along the ring.  Times are on a shared 2-core
x86 machine.  ``tests/oracle.py`` keeps the plain search as the reference
these encodings must equal byte for byte.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

from .bigraph import Bigraph, Control, Link, Ref


def _param_repr(param) -> str:
    return "" if param is None else str(param)


class _Tables:
    """A bigraph's place and link structure as integer index lists, and each
    entity's text up to its closed references, built once per
    `canonical_form` call and shared by the whole search (not kept on the
    bigraph: states would carry them for the rest of the run)."""

    __slots__ = (
        "g", "parent", "sites", "kids", "node_edges", "edge_nodes", "closed", "head", "opens",
        "closed_refs",
    )

    def __init__(self, g: Bigraph):
        n = g.nnodes
        self.g = g
        self.parent = [-1] * n  # -1 under a region
        self.sites = [0] * n  # site children
        self.kids: list[list[int]] = [[] for _ in range(n)]  # entity children
        for i, refs in enumerate(g.node_children):
            for kind, c in refs:
                if kind == "n":
                    self.parent[c] = i
                    self.kids[i].append(c)
                else:
                    self.sites[i] += 1
        self.node_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (edge, ports)
        self.edge_nodes: list[list[tuple[int, int]]] = []  # (entity, ports)
        self.closed: list[int] = []  # closed edges that carry ports
        self.opens: list[list[str]] = [[] for _ in range(n)]  # `o<name>` per port, sorted
        self.closed_refs: list[list[int]] = [[] for _ in range(n)]  # closed edge per port
        for e, lk in enumerate(g.links):
            counts: dict[int, int] = {}
            for v, _p in lk.ports:
                counts[v] = counts.get(v, 0) + 1
                if lk.name is None:
                    self.closed_refs[v].append(e)
                else:
                    self.opens[v].append(f"o{lk.name}")
            self.edge_nodes.append(list(counts.items()))
            for v, c in counts.items():
                self.node_edges[v].append((e, c))
            if lk.closed and lk.ports:
                self.closed.append(e)
        for names in self.opens:
            names.sort()
        self.head = [f"{ctrl.name}({_param_repr(param)})" + "{" for ctrl, param in g.nodes]


def _ranks(sigs: list) -> list[int]:
    table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
    return [table[s] for s in sigs]


def _colours(g: Bigraph) -> tuple[list[int], list[int]]:
    """Initial ranks: control, parameter and arity; open name or closed."""
    nrank = _ranks([(ctrl.name, _param_repr(param), ctrl.arity) for ctrl, param in g.nodes])
    erank = _ranks([lk.name if lk.name is not None else "\x00closed" for lk in g.links])
    return nrank, erank


def _refine(t: _Tables, nrank: list[int], erank: list[int]) -> tuple[list[int], list[int]]:
    """Refine the given ranks until no class splits (no salted hashing).

    An entity's signature is its rank, its parent's rank (-1 under a region),
    its children's ranks (-1 for a site) and the ranks of the hyperedges on
    its ports with their port counts; a hyperedge's is its rank and its
    members' ranks with their port counts.  A member of a class of its own
    has the signature (rank,), which sorts where its full signature would.
    Ranks index the sorted signatures, so a round only splits classes and
    keeps the order between them.  Hence refinement also stops as soon as
    every closed edge with ports has a rank of its own: later rounds could
    not change the order of those edges, which is all a leaf encodes.
    """
    nodes = list(zip(t.parent, [(-1,) * s for s in t.sites], t.kids, t.node_edges))
    while len({erank[e] for e in t.closed}) < len(t.closed):
        nsize, esize = Counter(nrank), Counter(erank)
        new_n = _ranks([
            (
                r,
                -1 if p < 0 else nrank[p],
                sites + tuple(sorted([nrank[c] for c in kids])),
                tuple(sorted([(erank[e], c) for e, c in edges])),
            )
            if nsize[r] > 1
            else (r,)
            for r, (p, sites, kids, edges) in zip(nrank, nodes)
        ])
        new_e = _ranks([
            (r, tuple(sorted([(nrank[v], c) for v, c in members]))) if esize[r] > 1 else (r,)
            for r, members in zip(erank, t.edge_nodes)
        ])
        stable = len(set(new_n)) == len(nsize) and len(set(new_e)) == len(esize)
        nrank, erank = new_n, new_e
        if stable:
            break
    return nrank, erank


def _orbit(e: int, autos: list[dict[int, int]]) -> set[int]:
    """The edges that `e` reaches under the group the given maps generate."""
    orbit, todo = {e}, [e]
    while todo:
        x = todo.pop()
        for a in autos:
            y = a.get(x, x)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


# an automorphism as (entity map, edge map), each listing only what it moves
Auto = tuple[dict[int, int], dict[int, int]]


def _search(t: _Tables, nrank: list[int], erank: list[int]) -> tuple[str, list[Auto]]:
    """Smallest leaf encoding below these ranks (individualise tied closed
    edges, prune by the automorphisms that equal leaves reveal), and the
    automorphisms found on the way."""
    leaves: dict[str, tuple[list[int], list[int]]] = {}  # text -> (edges in number order, path)
    autos: list[dict[int, int]] = []  # closed-edge maps of automorphisms, moved edges only
    found: list[Auto] = []

    def visit(nrank: list[int], erank: list[int], path: list[int]) -> int:
        """Search below the node `path` names; return the depth at which the
        search resumes (less than this node's depth when an automorphism
        maps this node's subtree onto one already searched)."""
        nrank, erank = _refine(t, nrank, erank)
        cells: dict[int, list[int]] = {}
        for e in t.closed:
            cells.setdefault(erank[e], []).append(e)
        tied = [cell for _r, cell in sorted(cells.items()) if len(cell) > 1]
        depth = len(path)
        if not tied:
            order = sorted(t.closed, key=erank.__getitem__)
            text, texts = _encode(t, order)
            if not leaves:
                # equal siblings reference the same edges under any numbering
                found.extend(_swaps(t, texts))
            first, at = leaves.setdefault(text, (order, path))
            if at is path:
                return depth
            # equal text: numbering `first` onto `order` is an automorphism; it
            # fixes the common prefix of the two paths and maps the earlier
            # leaf's subtree below that prefix onto this leaf's
            autos.append({a: b for a, b in zip(first, order) if a != b})
            perm = _leaf_map(t, _encode(t, first)[1], texts)
            if perm is not None and (perm or autos[-1]):
                found.append((perm, autos[-1]))
            common = 0
            while at[common] == path[common]:
                common += 1
            return common
        cell = tied[0]
        r = erank[cell[0]]
        done: list[int] = []
        for e in cell:
            if done:
                fixing = [a for a in autos if not any(p in a for p in path)]
                if not _orbit(e, fixing).isdisjoint(done):
                    continue
            # the chosen edge keeps rank 2r, the rest of its class move to 2r + 1
            split = [2 * x + (x == r and f != e) for f, x in enumerate(erank)]
            back = visit(nrank, split, path + [e])
            if back < depth:
                return back
            done.append(e)
        return depth

    visit(nrank, erank, [])
    return min(leaves), found


def _encode(t: _Tables, order: list[int]) -> tuple[str, list[str]]:
    """Write the forest with the closed edges numbered in the given order,
    siblings sorted by text, then the portless open names; also return each
    entity's own text.  The empty `;X=` tail once listed inner names; it
    stays so that cached bytes do not change."""
    g = t.g
    num = {e: i for i, e in enumerate(order)}
    head, opens, closed_refs = t.head, t.opens, t.closed_refs
    texts = [""] * g.nnodes

    def node(i: int) -> str:
        closed = [f"c{n}" for n in sorted([num[e] for e in closed_refs[i]])]
        text = texts[i] = (
            head[i] + ",".join(opens[i] + closed) + "}[" + children(g.node_children[i]) + "]"
        )
        return text

    def children(refs) -> str:
        return ";".join(sorted([node(c) if k == "n" else f"${c}" for k, c in refs]))

    regions = sorted(children(cs) for cs in g.region_children)
    portless = sorted(lk.name for lk in g.links if lk.name is not None and not lk.ports)
    text = (
        f"bg;{g.nregions};{g.nsites};"
        + "".join(f"R[{r}]" for r in regions)
        + ";Y=" + ",".join(portless) + ";X="
    )
    return text, texts


def _roots(t: _Tables) -> list[list[int]]:
    """The entity children of each region."""
    return [[c for k, c in cs if k == "n"] for cs in t.g.region_children]


def _pair(t: _Tables, ta: list[str], tb: list[str], a: int, b: int, perm: dict[int, int]):
    """Map the subtree below entity `a` (entity texts `ta`) onto the equal
    one below `b` (texts `tb`), children paired in text order; add the
    entities that move to `perm`."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x != y:
            perm[x] = y
        todo.extend(
            zip(sorted(t.kids[x], key=ta.__getitem__), sorted(t.kids[y], key=tb.__getitem__))
        )


def _swaps(t: _Tables, texts: list[str]) -> list[Auto]:
    """Swaps of two equal sibling subtrees, one per neighbouring pair in text
    order: automorphisms that fix every edge, since equal text references
    equal edges."""
    found: list[Auto] = []
    if len(set(zip(t.parent, texts))) == len(texts):
        return found  # no two siblings (or region roots) write the same text
    for kids in t.kids + _roots(t):
        if len(kids) > 1 and len({texts[c] for c in kids}) < len(kids):
            kids = sorted(kids, key=texts.__getitem__)
            for a, b in zip(kids, kids[1:]):
                if texts[a] == texts[b]:
                    perm: dict[int, int] = {}
                    _pair(t, texts, texts, a, b, perm)
                    _pair(t, texts, texts, b, a, perm)
                    found.append((perm, {}))
    return found


def _leaf_map(t: _Tables, ta: list[str], tb: list[str]) -> dict[int, int] | None:
    """The entity map of two equal leaves with entity texts `ta` and `tb`:
    entities paired in text order, region by region; None when it would move
    one region's content to another region."""
    perm: dict[int, int] = {}
    for roots in _roots(t):
        xs, ys = sorted(roots, key=ta.__getitem__), sorted(roots, key=tb.__getitem__)
        if [ta[x] for x in xs] != [tb[y] for y in ys]:
            return None
        for x, y in zip(xs, ys):
            _pair(t, ta, tb, x, y, perm)
    return perm


def canonical_form(g: Bigraph) -> bytes:
    """Deterministic encoding equal exactly for isomorphic bigraphs.  Keeps
    the encoding on `g`, with the automorphisms found on the way
    (`g._autos`)."""
    if g._canon is None:
        t = _Tables(g)
        if len(t.closed) <= 1:
            # with at most one closed edge carrying ports its number is 0
            # whatever the ranks, so there is nothing to refine
            text, texts = _encode(t, t.closed)
            found = _swaps(t, texts)
        else:
            text, found = _search(t, *_colours(g))
        g._canon = text.encode("ascii")
        g._autos = tuple(found)
    return g._canon


def canonical_digest(g: Bigraph) -> str:
    return hashlib.sha256(canonical_form(g)).hexdigest()


def is_iso(a: Bigraph, b: Bigraph) -> bool:
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# decoding (used by the MDP cache; the encoding doubles as a full structural
# serialization of the bigraph)


_HEAD = re.compile(r"bg;(\d+);(\d+);", re.ASCII)
_REF = r"(?:o\w+|c\d+)"
_ITEM = re.compile(
    rf"""
      (?P<region>R\[)
    | (?P<node>(?P<ctrl>\w+)\((?P<param>-?\d+)?\)\{{(?P<refs>{_REF}(?:,{_REF})*)?\}}\[)
    | \$(?P<site>\d+)
    | (?P<sep>;)
    | (?P<close>\])
    """,
    re.VERBOSE | re.ASCII,
)
_TAIL = re.compile(r";Y=(\w+(?:,\w+)*)?;X=", re.ASCII)


def decode_canonical(data: bytes, controls: dict[str, Control]) -> Bigraph:
    """Rebuild a bigraph from its canonical encoding (inverse up to iso)."""
    text = data.decode("latin-1")  # one character per byte; the patterns take ASCII only
    pos = 0

    def fail(why: str):
        raise ValueError(f"bad canonical encoding at byte {pos}: {why}")

    head = _HEAD.match(text)
    if head is None:
        fail("expected 'bg;<regions>;<sites>;'")
    pos = head.end()
    nodes: list[tuple[Control, int | None]] = []
    node_children: list[list[Ref]] = []
    region_children: list[list[Ref]] = []
    edges: dict[str, list[tuple[int, int]]] = {}  # by reference: c<number> or o<name>
    stack: list[list[Ref]] = []  # the child lists of the brackets still open
    while (m := _ITEM.match(text, pos)) and (stack or m.lastgroup == "region"):
        kind = m.lastgroup
        if kind == "region":
            if stack:
                fail("'R[' inside a region")
            region_children.append([])
            stack.append(region_children[-1])
        elif kind == "node":
            if m["ctrl"] not in controls:
                fail(f"unknown control {m['ctrl']!r}")
            for port, ref in enumerate(m["refs"].split(",") if m["refs"] else ()):
                edges.setdefault(ref, []).append((len(nodes), port))
            stack[-1].append(("n", len(nodes)))
            nodes.append((controls[m["ctrl"]], None if m["param"] is None else int(m["param"])))
            node_children.append([])
            stack.append(node_children[-1])
        elif kind == "site":
            stack[-1].append(("s", int(m["site"])))
        elif kind == "close":
            stack.pop()
        pos = m.end()
    if stack or len(region_children) != int(head[1]):
        fail(f"expected {head[1]} closed regions")
    tail = _TAIL.match(text, pos)
    if tail is None:
        fail("expected ';Y=<names>;X='")
    pos = tail.end()
    if pos != len(text):
        fail("trailing bytes after ';X='")
    closed = sorted((int(ref[1:]), ports) for ref, ports in edges.items() if ref[0] == "c")
    links = [Link(None, tuple(ports)) for _num, ports in closed]
    links += [Link(ref[1:], tuple(edges[ref])) for ref in sorted(edges) if ref[0] == "o"]
    links += [Link(name, ()) for name in tail[1].split(",")] if tail[1] else []
    return Bigraph(nodes, node_children, region_children, int(head[2]), links)
