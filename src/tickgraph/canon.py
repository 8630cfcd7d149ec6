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


class _Decoder:
    def __init__(self, text: str, controls: dict[str, Control]):
        self.text = text
        self.pos = 0
        self.controls = controls
        self.nodes: list[tuple[Control, int | None]] = []
        self.node_children: list[list[Ref]] = []
        self.closed_edges: dict[int, list[tuple[int, int]]] = {}
        self.open_edges: dict[str, list[tuple[int, int]]] = {}

    def fail(self, why: str):
        raise ValueError(f"bad canonical encoding at byte {self.pos}: {why}")

    def expect(self, lit: str):
        if not self.text.startswith(lit, self.pos):
            self.fail(f"expected {lit!r}")
        self.pos += len(lit)

    def until(self, stops: str) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in stops:
            self.pos += 1
        return self.text[start : self.pos]

    def parse(self) -> Bigraph:
        self.expect("bg;")
        nregions = int(self.until(";"))
        self.expect(";")
        nsites = int(self.until(";"))
        self.expect(";")
        region_children: list[list[Ref]] = []
        for _ in range(nregions):
            self.expect("R[")
            region_children.append(self.children())
            self.expect("]")
        self.expect(";Y=")
        portless = self.until(";")
        self.expect(";X=")
        if self.pos != len(self.text):
            self.fail("trailing bytes after ';X='")
        links = [Link(None, tuple(self.closed_edges[num])) for num in sorted(self.closed_edges)]
        links += [Link(name, tuple(self.open_edges[name])) for name in sorted(self.open_edges)]
        if portless:
            links += [Link(name, ()) for name in portless.split(",")]
        return Bigraph(self.nodes, self.node_children, region_children, nsites, links)

    def children(self) -> list[Ref]:
        out: list[Ref] = []
        while self.pos < len(self.text) and self.text[self.pos] != "]":
            if self.text[self.pos] == ";":
                self.pos += 1
                continue
            if self.text[self.pos] == "$":
                self.pos += 1
                out.append(("s", int(self.until(";]"))))
            else:
                out.append(("n", self.node()))
        return out

    def node(self) -> int:
        name = self.until("(")
        self.expect("(")
        param_s = self.until(")")
        self.expect("){")
        refs_s = self.until("}")
        self.expect("}[")
        if name not in self.controls:
            self.fail(f"unknown control {name!r}")
        ctrl = self.controls[name]
        param = int(param_s) if param_s else None
        idx = len(self.nodes)
        self.nodes.append((ctrl, param))
        self.node_children.append([])
        port = 0
        if refs_s:
            for ref in refs_s.split(","):
                if ref.startswith("o"):
                    self.open_edges.setdefault(ref[1:], []).append((idx, port))
                else:
                    self.closed_edges.setdefault(int(ref[1:]), []).append((idx, port))
                port += 1
        kids = self.children()
        self.expect("]")
        self.node_children[idx] = kids
        return idx


def decode_canonical(data: bytes, controls: dict[str, Control]) -> Bigraph:
    """Rebuild a bigraph from its canonical encoding (inverse up to iso)."""
    return _Decoder(data.decode("ascii"), controls).parse()
