"""Canonical forms for bigraphs.

Two bigraphs get equal encodings exactly when they are isomorphic: same
controls and parameters, isomorphic place forests (regions and siblings
permute freely), isomorphic link structure with open names compared by
identity and closed edges anonymous.  Used for state deduplication, so
stability across runs and platforms matters: no builtin ``hash`` anywhere.

The scheme is individualisation-refinement (McKay & Piperno, "Practical
graph isomorphism, II", J. Symb. Comput. 2014) in its plainest form:

* colour refinement ranks every entity and hyperedge by its control,
  parameter, parent, children and links until no rank class splits;
* while some rank class holds more than one closed edge that carries ports,
  each edge of the first such class in turn gets a rank of its own, the
  ranks are refined again and the search recurses;
* at a leaf every such closed edge has its own rank, so the edges are
  numbered by rank and the forest is written out with siblings and regions
  sorted by their own text, as in AHU tree canonisation.  The smallest leaf
  encoding wins.

Entities that carry no closed edges never branch: equal subtrees write
equal text, so any number of interchangeable atoms costs one leaf.  The
worst case is closed-linked symmetry: the leaves grow as the factorial of
the largest set of interchangeable closed-linked groups: twelve tokens
linked in six identical closed pairs give 720 leaves for the initial state
alone and 9,108 over the model's 28 states, which take about 4 s to explore
on a shared 2-core x86 machine.  No automorphism pruning is done.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter

from .bigraph import Bigraph, Control, Link, Ref


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


def canonical_form(g: Bigraph) -> bytes:
    """Deterministic encoding equal exactly for isomorphic bigraphs."""
    if g._canon is None:
        g._canon = _search(g, *_colours(g)).encode("ascii")
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
