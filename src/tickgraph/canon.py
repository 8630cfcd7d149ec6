"""Canonical forms for bigraphs.

Two bigraphs get equal encodings exactly when they are isomorphic: same
controls and parameters, isomorphic place forests (regions and siblings
permute freely), isomorphic link structure with open names compared by
identity and closed edges anonymous.  Used for state deduplication, so
stability across runs and platforms matters: no builtin ``hash`` anywhere.

The scheme is individualisation-refinement (McKay & Piperno, "Practical
graph isomorphism, II", J. Symb. Comput. 2014):

* colour refinement ranks every entity and hyperedge by its control,
  parameter, parent, children and links until no rank class splits.  Its
  rounds are synchronous, and each recomputes the signatures of only the
  tied classes next to a class that split in the round before (Paige &
  Tarjan's splitters, SIAM J. Comput. 1987): any other class cannot split.
  A search node starts from its parent's stable ranks, so its first round
  recomputes only the entity classes on the edges it just individualised;
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
factorial.  The search recurses once per closed edge it individualises, so
a path longer than the interpreter's recursion limit allows (less the
matcher's headroom) raises :class:`CanonLimit`, a resource limit, instead
of overflowing the stack.

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
  order the two leaves write them extends it to entities; each leaf keeps
  its entity texts for this, at the cost of one list of strings per leaf.
  A pairing that would move one region's content to another region is
  dropped.

The generators need not span the whole automorphism group; each must map
the bigraph onto itself.  Exploring twelve tokens linked in six identical
closed pairs (28 states) computes 43 forms with 198 leaves in about 0.05 s;
fourteen tokens (36 states) take 57 forms, 315 leaves and about 0.08 s.
The worst case left is refinement itself: a closed ring of twelve tokens
(224 states) computes 1,057 forms, not 2,689, with 1,374 leaves and 1,683
refinements.  Their 14,457 rounds, which spread along the ring, compute
111,144 signatures: the explore takes about 0.65 s, 0.27 s of it in
refinement.

The inner loops work on the bigraph's parent map, the index derived from
it (children in id order, the roots and sites of each region) and tables
built once per form in one pass: each entity's text up to its closed
references, its closed (edge, port count) pairs and its initial colour,
the head text and colour memoised on the control per parameter.  A signature sorts an
entity's children only when it has two or more, and an entity's edges or a
hyperedge's members only when there are three or more.  Times are on a
shared 2-core x86 machine.  ``tests/oracle.py`` keeps the plain search as
the reference these encodings must equal byte for byte.
"""

from __future__ import annotations

import hashlib
import re
import sys

from .bigraph import Bigraph, Control, Link
from .match import _HEADROOM
from .records import ResourceLimit


class CanonLimit(ValueError, ResourceLimit):
    """A bigraph whose canonical-form search would nest more calls than the
    interpreter's recursion limit, less the matcher's `_HEADROOM`, leaves
    room for: the search recurses once per closed edge it individualises."""


def _head(ctrl: Control, param) -> tuple[str, tuple, str]:
    """An entity's text up to its links, ``name(param){``, its initial
    colour, (name, parameter text, arity), and its text up to its children
    when it has no links: memoised on the control, one entry per parameter
    seen with it."""
    text = "" if param is None else str(param)
    head = f"{ctrl.name}({text})" + "{"
    ctrl._heads[param] = memo = (head, (ctrl.name, text, ctrl.arity), head + "}[")
    return memo


class _Tables:
    """What a canonical form needs beyond the bigraph's index, built in one
    pass over `node_edges`: per entity its text up to its closed references
    (`pre`: head and sorted open names, ending in `}[` when it has no closed
    reference), its (closed edge, port count) pairs (`refs`) and its initial
    colour; the closed edges that carry ports and the reference `c<n>` to
    each number they can get; an order with every entity after its children;
    and the text before and after the regions.  Built
    once per `canonical_form` call and shared by the whole search; not kept
    on the bigraph, since a state's form is computed once and the texts are
    only needed while it is."""

    __slots__ = ("g", "pre", "refs", "colour", "closed", "cref", "upward", "frame")

    def __init__(self, g: Bigraph):
        self.g = g
        opened = [None if lk.name is None else "o" + lk.name for lk in g.links]
        self.closed = [e for e, lk in enumerate(g.links) if lk.name is None and lk.ports]
        self.cref = [f"c{n}" for n in range(len(self.closed))]
        self.pre = pre = []
        self.colour = colour = []
        if opened.count(None) == len(opened):
            self.refs = g.node_edges  # every edge is closed
            for (ctrl, param), pairs in zip(g.nodes, g.node_edges):
                memo = ctrl._heads.get(param) or _head(ctrl, param)
                colour.append(memo[1])
                pre.append(memo[0] if pairs else memo[2])
        else:
            self.refs = refs = []
            for (ctrl, param), pairs in zip(g.nodes, g.node_edges):
                memo = ctrl._heads.get(param) or _head(ctrl, param)
                colour.append(memo[1])
                # `o<name>` per port on an open edge, sorted, then the closed
                # edges
                opens = [opened[e] for e, c in pairs if opened[e] is not None for _ in range(c)]
                opens.sort()
                mine = tuple([(e, c) for e, c in pairs if opened[e] is None])
                text = memo[0] + ",".join(opens) + ("," if opens and mine else "")
                pre.append(text if mine else text + "}[")
                refs.append(mine)
        # every entity after its children: a breadth-first order from the
        # region roots, reversed
        down = [c for roots in g.roots for c in roots]
        for i in down:
            down.extend(g.kids[i])
        self.upward = down[::-1]
        portless = sorted(lk.name for lk in g.links if lk.name is not None and not lk.ports)
        self.frame = (f"bg;{g.nregions};{g.nsites};", ";Y=" + ",".join(portless) + ";X=")


def _classes(keys: list) -> tuple[list[int], list[list[int]]]:
    """Rank by sorted key, and each rank's members in index order."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    cls = [groups[key] for key in sorted(groups)]
    rank = [0] * len(keys)
    for r, members in enumerate(cls):
        for i in members:
            rank[i] = r
    return rank, cls


def _colours(t: _Tables) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """Initial ranks, control, parameter and arity for entities, open name or
    closed for hyperedges, and their classes."""
    nrank, ncls = _classes(t.colour)
    names = [lk.name for lk in t.g.links]
    if names.count(None) == len(names):  # every edge closed: one class
        return nrank, [0] * len(names), ncls, [list(range(len(names)))]
    erank, ecls = _classes([name if name is not None else "\x00closed" for name in names])
    return nrank, erank, ncls, ecls


def _relabel(rank: list[int], cls: list[list[int]], splits: dict) -> tuple[list[int], list[list[int]]]:
    """Give each class split into parts (in signature order) the ranks from
    its own onwards, and shift the classes above it; a fresh rank list."""
    if not splits:
        return rank, cls
    rank, out, done = rank[:], [], 0
    for r in sorted(splits):
        if len(out) == done:  # nothing below has split: the ranks stay
            out += cls[done:r]
        else:
            for members in cls[done:r]:
                for x in members:
                    rank[x] = len(out)
                out.append(members)
        for part in splits[r]:
            for x in part:
                rank[x] = len(out)
            out.append(part)
        done = r + 1
    for members in cls[done:]:
        for x in members:
            rank[x] = len(out)
        out.append(members)
    return rank, out


def _refine(
    t: _Tables, nrank: list[int], erank: list[int], ncls: list[list[int]], ecls: list[list[int]],
    ntodo, etodo,
) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """Refine the given ranks until no class splits (no salted hashing).

    An entity's signature is its parent's rank (-1 under a region), its
    children's ranks (-1 for a site), sorted, and the ranks of the hyperedges
    on its ports with their port counts, sorted; a hyperedge's is its
    members' ranks with their port counts, sorted.  An entity with at most
    one child or two edges, and a hyperedge with at most two members, builds
    those tuples without a sort.  Rounds are synchronous: a tied class splits into parts
    ranked by signature within its own place, so a round keeps the order
    between classes.  `ncls` and `ecls` list the members of each rank;
    `ntodo` and `etodo` hold the ranks of the classes whose signatures may
    differ in the first round.  Later rounds recompute only the classes next
    to a split one: the entity classes holding a parent or child of a split
    entity or a member of a split hyperedge, and the hyperedge classes on a
    split entity's ports.  The signatures of any other class change only by
    a relabelling that keeps order, so it cannot split.  Refinement also
    stops as soon as every closed edge with ports has a rank of its own:
    later rounds could not change the order of those edges, which is all a
    leaf encodes.
    """
    g, closed = t.g, t.closed
    up, sites, kids, node_edges, edge_nodes = g.up, g.sites, g.kids, g.node_edges, g.edge_nodes
    tied = len({erank[e] for e in closed}) < len(closed)
    while tied:
        nsplit: dict[int, list[list[int]]] = {}
        for r in ntodo:
            if len(ncls[r]) > 1:
                groups: dict = {}
                for i in ncls[r]:
                    p = up[i]
                    below = kids[i]
                    if below:
                        if len(below) == 1:
                            below = (nrank[below[0]],)
                        else:
                            below = tuple(sorted([nrank[c] for c in below]))
                    if sites[i]:  # a site child ranks -1, below every entity
                        below = (-1,) * len(sites[i]) + below
                    links = node_edges[i]
                    if links:
                        if len(links) == 1:
                            e, c = links[0]
                            links = ((erank[e], c),)
                        elif len(links) == 2:
                            (e, c), (f, d) = links
                            x, y = (erank[e], c), (erank[f], d)
                            links = (x, y) if x <= y else (y, x)
                        else:
                            links = tuple(sorted([(erank[e], c) for e, c in links]))
                    sig = (nrank[p] if p >= 0 else -1, below, links)
                    groups.setdefault(sig, []).append(i)
                if len(groups) > 1:
                    nsplit[r] = [groups[sig] for sig in sorted(groups)]
        esplit: dict[int, list[list[int]]] = {}
        for r in etodo:
            if len(ecls[r]) > 1:
                groups = {}
                for f in ecls[r]:
                    members = edge_nodes[f]
                    if len(members) == 2:
                        (a, ca), (b, cb) = members
                        x, y = (nrank[a], ca), (nrank[b], cb)
                        sig = (x, y) if x <= y else (y, x)
                    elif len(members) == 1:
                        sig = ((nrank[members[0][0]], members[0][1]),)
                    else:
                        sig = tuple(sorted([(nrank[v], c) for v, c in members]))
                    groups.setdefault(sig, []).append(f)
                if len(groups) > 1:
                    esplit[r] = [groups[sig] for sig in sorted(groups)]
        if not nsplit and not esplit:
            break
        nrank, ncls = _relabel(nrank, ncls, nsplit)
        if esplit:
            erank, ecls = _relabel(erank, ecls, esplit)
            tied = len({erank[e] for e in closed}) < len(closed)
        ntodo, etodo = set(), set()
        for parts in nsplit.values():
            for part in parts:
                for i in part:
                    p = up[i]
                    if p >= 0:
                        ntodo.add(nrank[p])
                    for c in kids[i]:
                        ntodo.add(nrank[c])
                    for e, _c in node_edges[i]:
                        etodo.add(erank[e])
        for parts in esplit.values():
            for part in parts:
                for f in part:
                    for v, _c in edge_nodes[f]:
                        ntodo.add(nrank[v])
    return nrank, erank, ncls, ecls


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


def _skipped(e: int, done: list[int], autos: list[dict[int, int]], path: list[int]) -> bool:
    """Whether cell member `e` is skipped at the search node that `path`
    names: its orbit, under the automorphisms found so far that fix every
    edge on the path, holds a member already searched (`done`).  One that
    moves a path edge maps this node onto another node, so it tells nothing
    about this node's subtrees."""
    fixing = [a for a in autos if not any(p in a for p in path)]
    return not _orbit(e, fixing).isdisjoint(done)


# an automorphism as (entity map, edge map), each listing only what it moves
Auto = tuple[dict[int, int], dict[int, int]]


def _search(
    t: _Tables, nrank: list[int], erank: list[int], ncls: list[list[int]], ecls: list[list[int]]
) -> tuple[str, list[Auto]]:
    """Smallest leaf encoding below these ranks and classes (individualise
    tied closed edges, prune by the automorphisms that equal leaves reveal),
    and the automorphisms found on the way."""
    # text -> (edges in number order, path, entity texts)
    leaves: dict[str, tuple[list[int], list[int], list[str]]] = {}
    autos: list[dict[int, int]] = []  # closed-edge maps of automorphisms, moved edges only
    found: list[Auto] = []
    _visit(t, leaves, autos, found, nrank, erank, ncls, ecls, range(len(ncls)), range(len(ecls)), [])
    return min(leaves), found


def _visit(t: _Tables, leaves: dict, autos: list[dict[int, int]], found: list[Auto],
           nrank, erank, ncls, ecls, ntodo, etodo, path: list[int]) -> int:
    """Search below the node `path` names, refining from the classes in
    `ntodo` and `etodo`, adding its leaves to `leaves` and the automorphisms
    they reveal to `autos` and `found`; return the depth at which the search
    resumes (less than this node's depth when an automorphism maps this
    node's subtree onto one already searched).  A module-level function, so
    that a search leaves no reference cycle behind."""
    nrank, erank, ncls, ecls = _refine(t, nrank, erank, ncls, ecls, ntodo, etodo)
    closed = t.closed
    cells: dict[int, list[int]] = {}
    for e in closed:
        cells.setdefault(erank[e], []).append(e)
    depth = len(path)
    if len(cells) == len(closed):
        order = [cells[r][0] for r in sorted(cells)]
        text, texts = _encode(t, order)
        if not leaves:
            # equal siblings reference the same edges under any numbering
            found.extend(_swaps(t, texts))
        first, at, first_texts = leaves.setdefault(text, (order, path, texts))
        if at is path:
            return depth
        # equal text: numbering `first` onto `order` is an automorphism; it
        # fixes the common prefix of the two paths and maps the earlier
        # leaf's subtree below that prefix onto this leaf's
        autos.append({a: b for a, b in zip(first, order) if a != b})
        perm = _leaf_map(t, first_texts, texts)
        if perm is not None and (perm or autos[-1]):
            found.append((perm, autos[-1]))
        common = 0
        while at[common] == path[common]:
            common += 1
        return common
    # one frame per edge on the path, and the search's own few below it
    budget = sys.getrecursionlimit() - _HEADROOM
    if depth + 6 > budget:
        raise CanonLimit(
            f"canonical form: {t.g.nnodes} entities and {len(closed)} closed edges with "
            f"ports need more nested search calls than the {budget} the interpreter's "
            "stack allows"
        )
    # the first tied cell: the closed edges of the lowest rank held by two
    r = min([r for r, cell in cells.items() if len(cell) > 1])
    cell = cells[r]
    # the ranks are stable, so splitting the cell can split at first only
    # the entity classes on its edges
    edge_nodes = t.g.edge_nodes
    touched = {nrank[v] for f in cell for v, _c in edge_nodes[f]}
    done: list[int] = []
    for e in cell:
        if done and _skipped(e, done, autos, path):
            continue
        # the chosen edge keeps rank r, the rest of its class move to r + 1
        split = [x + (x > r) for x in erank]
        for f in ecls[r]:
            if f != e:
                split[f] = r + 1
        parts = ecls[:r] + [[e], [f for f in cell if f != e]] + ecls[r + 1 :]
        back = _visit(t, leaves, autos, found, nrank, split, ncls, parts, touched, (), path + [e])
        if back < depth:
            return back
        done.append(e)
    return depth


def _encode(t: _Tables, order: list[int]) -> tuple[str, list[str]]:
    """Write the forest with the closed edges numbered in the given order,
    siblings sorted by text, then the portless open names; also return each
    entity's own text.  Entities are written children first, in one pass,
    so nesting depth costs no stack.  The empty `;X=` tail once listed inner
    names; it stays so that cached bytes do not change."""
    g = t.g
    num = [0] * len(g.links)
    for n, e in enumerate(order):
        num[e] = n
    pre, refs, cref, kids, sites = t.pre, t.refs, t.cref, g.kids, g.sites
    texts = [""] * g.nnodes
    for i in t.upward:
        text = pre[i]
        mine = refs[i]
        if len(mine) > 1 or (mine and mine[0][1] > 1):
            nums = sorted([num[e] for e, c in mine for _ in range(c)])
            text += ",".join([cref[n] for n in nums]) + "}["
        elif mine:
            text += cref[num[mine[0][0]]] + "}["
        below = kids[i]
        if sites[i]:
            below = [texts[c] for c in below] + [f"${s}" for s in sites[i]]
            text += ";".join(sorted(below))
        elif len(below) > 1:
            text += ";".join(sorted([texts[c] for c in below]))
        elif below:
            text += texts[below[0]]
        texts[i] = text + "]"
    regions = sorted(
        ";".join(sorted([texts[c] for c in roots] + [f"${s}" for s in sites]))
        for roots, sites in zip(g.roots, g.region_sites)
    )
    head, tail = t.frame
    return head + "".join([f"R[{r}]" for r in regions]) + tail, texts


def _pair(t: _Tables, ta: list[str], tb: list[str], a: int, b: int, perm: dict[int, int]):
    """Map the subtree below entity `a` (entity texts `ta`) onto the equal
    one below `b` (texts `tb`), children paired in text order; add the
    entities that move to `perm`."""
    kids = t.g.kids
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x != y:
            perm[x] = y
        below = kids[x]
        if len(below) > 1:
            pairs = zip(sorted(below, key=ta.__getitem__), sorted(kids[y], key=tb.__getitem__))
            todo.extend(pairs)
        elif below:
            todo.append((below[0], kids[y][0]))


def _swaps(t: _Tables, texts: list[str]) -> list[Auto]:
    """Swaps of two equal sibling subtrees, one per neighbouring pair in text
    order: automorphisms that fix every edge, since equal text references
    equal edges."""
    found: list[Auto] = []
    if len(set(zip(t.g.up, texts))) == len(texts):
        return found  # no two siblings (or region roots) write the same text
    for kids in t.g.kids + t.g.roots:
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
    for roots in t.g.roots:
        xs, ys = sorted(roots, key=ta.__getitem__), sorted(roots, key=tb.__getitem__)
        if [ta[x] for x in xs] != [tb[y] for y in ys]:
            return None
        for x, y in zip(xs, ys):
            _pair(t, ta, tb, x, y, perm)
    return perm


def canonical_form(g: Bigraph) -> str:
    """Deterministic ASCII encoding equal exactly for isomorphic bigraphs.
    Keeps the encoding on `g`, with the automorphisms found on the way
    (`g._autos`)."""
    if g._canon is None:
        t = _Tables(g)
        if len(t.closed) <= 1:
            # with at most one closed edge carrying ports its number is 0
            # whatever the ranks, so there is nothing to refine
            text, texts = _encode(t, t.closed)
            found = _swaps(t, texts)
        else:
            text, found = _search(t, *_colours(t))
        g._canon = text
        g._autos = tuple(found)
    return g._canon


def canonical_digest(g: Bigraph) -> str:
    return hashlib.sha256(canonical_form(g).encode("ascii")).hexdigest()


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


def decode_canonical(text: str, controls: dict[str, Control]) -> Bigraph:
    """Rebuild a bigraph from its canonical encoding (inverse up to iso).

    Raises ValueError for text that no canonical form writes, and for an
    entity that its control does not allow: references other than one per
    port, a parameter it does not take or lacks, or children (a site
    included) under an atomic control; and for an outer name on two
    hyperedges."""
    pos = 0  # the patterns take ASCII only, so up to a failure a character is a byte

    def fail(why: str):
        raise ValueError(f"bad canonical encoding at byte {pos}: {why}")

    head = _HEAD.match(text)
    if head is None:
        fail("expected 'bg;<regions>;<sites>;'")
    pos = head.end()
    nodes: list[tuple[Control, int | None]] = []
    up: list[int] = []
    nregions = 0
    sites: dict[int, int] = {}  # site number -> its parent
    edges: dict[str, list[tuple[int, int]]] = {}  # by reference: c<number> or o<name>
    stack: list[int] = []  # the places whose brackets are still open: entities, ~r for region r
    while (m := _ITEM.match(text, pos)) and (stack or m.lastgroup == "region"):
        kind = m.lastgroup
        if kind == "region":
            if stack:
                fail("'R[' inside a region")
            stack.append(~nregions)
            nregions += 1
        elif kind == "node":
            ctrl = controls.get(m["ctrl"])
            if ctrl is None:
                fail(f"unknown control {m['ctrl']!r}")
            refs = m["refs"].split(",") if m["refs"] else ()
            if len(refs) != ctrl.arity:
                fail(f"{len(refs)} references on {ctrl.name}, of arity {ctrl.arity}")
            if (m["param"] is None) == ctrl.parameterised:
                fail(f"{ctrl.name} {'without' if ctrl.parameterised else 'with'} a parameter")
            if stack[-1] >= 0 and nodes[stack[-1]][0].atomic:
                fail(f"a child of atomic {nodes[stack[-1]][0].name}")
            for port, ref in enumerate(refs):
                edges.setdefault(ref, []).append((len(nodes), port))
            up.append(stack[-1])
            stack.append(len(nodes))
            nodes.append((ctrl, None if m["param"] is None else int(m["param"])))
        elif kind == "site":
            s = int(m["site"])
            if s in sites:
                fail(f"site ${s} written twice")
            if stack[-1] >= 0 and nodes[stack[-1]][0].atomic:
                fail(f"a site in atomic {nodes[stack[-1]][0].name}")
            sites[s] = stack[-1]
        elif kind == "close":
            stack.pop()
        pos = m.end()
    if stack or nregions != int(head[1]):
        fail(f"expected {head[1]} closed regions")
    nsites = int(head[2])
    if len(sites) != nsites or any(s >= nsites for s in sites):
        fail(f"expected {nsites} sites, numbered from $0, each written once")
    tail = _TAIL.match(text, pos)
    if tail is None:
        fail("expected ';Y=<names>;X='")
    pos = tail.end()
    if pos != len(text):
        fail("trailing bytes after ';X='")
    portless = tail[1].split(",") if tail[1] else []
    for k, name in enumerate(portless):
        if "o" + name in edges or name in portless[:k]:
            fail(f"outer name {name!r} on two hyperedges")
    closed = sorted((int(ref[1:]), ports) for ref, ports in edges.items() if ref[0] == "c")
    links = [Link(None, tuple(ports)) for _num, ports in closed]
    links += [Link(ref[1:], tuple(edges[ref])) for ref in sorted(edges) if ref[0] == "o"]
    links += [Link(name, ()) for name in portless]
    return Bigraph(nodes, up, [sites[s] for s in range(nsites)], nregions, links)
