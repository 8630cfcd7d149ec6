"""Reaction rules with weights, actions, priorities and negative conditions.

A :class:`RuleFamily` is a rule template whose redex carries parameter
variables; a concrete rule is a family with no formals.  A model's rule
entries never expand their valuations.  Per state, each family's symbolic
redex is searched once, with its parameters restricted to the union of its
entries' domains, and its context condition is searched once; every entry
then keeps the matches whose binding lies in its own domains, and
parameters that occur only in the reactum range over their whole domain.
Predicate families (:class:`Pattern`) are matched the same way.

Priority classes are global and ordered: a rule may fire only when no rule
of any earlier class has a condition-satisfying match.  Weights turn the
matches of one action in one state into a probability distribution, summed
exactly as integers (:func:`integer_weights`) and rounded once per
probability.

Symmetric clocks: a tick such as ``LC(c1){l1} | ... | LC(ck){lk}`` matches
k interchangeable siblings in all k! orders, and every order leads to the
same successor.  When the model is built, each family's groups of
interchangeable redex entities are found once (:attr:`Model.groups`).
Each family is then matched once per orbit of those groups: the search
keeps the orbit's first member, and its outcome carries the orbit size as a
multiplicity, so every match still counts toward the weights.  A caller
that needs every match clears `groups` on a copy of the model.

Symmetric states: interchangeable tokens make many outcomes whose results
are isomorphic, because an automorphism of the state maps one match onto
the other.  :func:`action_distribution` applies and canonicalises the first
of them only; the generators come with the state's canonical form
(:mod:`tickgraph.canon`), together with a rule's own swaps of two outer
names that play the same part (:attr:`RuleFamily.name_swaps`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .bigraph import Bigraph, Control, Link, Ref
from .canon import canonical_form
from .match import Host, Match, occurrences
from .params import Arith, ParameterLimit, Term, Var, is_concrete, term_eval, term_vars

# a family's groups of interchangeable redex entities (pattern entity ids)
Groups = tuple[tuple[int, ...], ...]


def _check_rule_shape(redex: Bigraph, reactum: Bigraph, weight: float, label: str):
    if not 0 < weight < math.inf:  # NaN fails too
        raise ValueError(f"rule {label}: weight must be a finite positive number, got {weight}")
    if redex.nregions != reactum.nregions:
        raise ValueError(
            f"rule {label}: redex has {redex.nregions} regions, reactum {reactum.nregions}"
        )
    if redex.outer_names() != reactum.outer_names():
        raise ValueError(
            f"rule {label}: outer names differ "
            f"({sorted(redex.outer_names())} vs {sorted(reactum.outer_names())})"
        )
    if redex.nsites != reactum.nsites:
        raise ValueError(
            f"rule {label}: redex has {redex.nsites} sites, reactum {reactum.nsites}"
        )
    for lk in redex.links:
        if lk.name is not None and not lk.ports:
            raise ValueError(f"rule {label}: redex outer name {lk.name!r} has no ports")
    for _ctrl, param in redex.nodes:
        if not (param is None or isinstance(param, (int, Var))):
            raise ValueError(
                f"rule {label}: arithmetic in redex parameters is not allowed ({param})"
            )


def _check_bound(what: str, formal: tuple[str, ...], bodies: tuple[Bigraph, ...]):
    """Every parameter variable in `bodies` must be one of `formal`."""
    free = set()
    for g in bodies:
        for _ctrl, param in g.nodes:
            if param is not None and not isinstance(param, int):
                free |= term_vars(param)
    missing = free - set(formal)
    if missing:
        raise ValueError(f"{what}: unbound parameters {sorted(missing)}")


def _subst(g: Bigraph, env: dict[str, int]) -> Bigraph:
    nodes = []
    for ctrl, param in g.nodes:
        if param is None or isinstance(param, int):
            nodes.append((ctrl, param))
        else:
            nodes.append((ctrl, term_eval(param, env)))
    return Bigraph(
        nodes,
        [list(cs) for cs in g.node_children],
        [list(cs) for cs in g.region_children],
        g.nsites,
        list(g.links),
    )


@dataclass(frozen=True)
class RuleFamily:
    """Parameterised redex -> reactum template over named integer parameters."""

    base: str
    formal: tuple[str, ...]
    redex: Bigraph
    reactum: Bigraph
    weight: float
    condition: Bigraph | None = None  # no occurrence of this outside the image
    pos: tuple[int, int] = field(default=(0, 0), compare=False)  # declaration line:col
    # outer name -> its redex link index, computed once
    redex_edge_of_name: dict[str, int] = field(init=False, repr=False, compare=False)
    # swaps of two outer names that change no result, as redex link maps
    name_swaps: tuple[dict[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_rule_shape(self.redex, self.reactum, self.weight, self.base)
        _check_bound(f"rule {self.base}", self.formal, (self.redex, self.reactum))
        object.__setattr__(self, "redex_edge_of_name", {
            lk.name: e for e, lk in enumerate(self.redex.links) if lk.name is not None
        })
        object.__setattr__(self, "name_swaps", _name_swaps(self))

    def instance_name(self, env: dict[str, int]) -> str:
        if not self.formal:
            return self.base
        return f"{self.base}({','.join(str(env[v]) for v in self.formal)})"


def _name_swaps(fam: RuleFamily) -> tuple[dict[int, int], ...]:
    """Swaps of two outer names under which every entity of the redex and of
    the reactum keeps its multiset of names (such as `a` and `b` in
    ``Tok{a,b} -> Tok{a,b}``), each as a map between the two redex links.
    Two names swap so exactly when they reach the same entities, as often,
    on both sides; one swap per neighbouring pair of such names generates
    every permutation of them.  Exchanging the agent edges that a match
    gives two such names yields a match whose result differs only in the
    order of some entity's ports."""
    reach: dict[str, list] = {name: [(), ()] for name in fam.redex_edge_of_name}
    for side, g in enumerate((fam.redex, fam.reactum)):
        for lk in g.links:
            if lk.name is not None:
                reach[lk.name][side] = tuple(sorted([v for v, _p in lk.ports]))
    alike: dict[tuple, list[str]] = {}
    for name in sorted(reach):
        alike.setdefault(tuple(reach[name]), []).append(name)
    swaps = []
    for names in alike.values():
        for a, b in zip(names, names[1:]):
            ea, eb = fam.redex_edge_of_name[a], fam.redex_edge_of_name[b]
            swaps.append({ea: eb, eb: ea})
    return tuple(swaps)


# ---------------------------------------------------------------------------
# application


def _reactum_values(rule: RuleFamily, env: dict[str, int]) -> list[int | None]:
    """The parameter of each reactum entity under a match's binding."""
    try:
        return [
            param if is_concrete(param) else term_eval(param, env)
            for _ctrl, param in rule.reactum.nodes
        ]
    except ParameterLimit as exc:
        line, col = rule.pos
        raise ParameterLimit(f"{line}:{col}: rule {rule.base}: {exc}") from None


def effect_key(rule: RuleFamily, m: Match) -> tuple:
    """What applying `rule` at `m` writes, as a hashable key.

    Two outcomes on the same agent with equal keys give results that are
    equal up to entity numbering: the key holds the match image, each
    reactum region's anchor, and per reactum entity its control, computed
    parameter, ports (the agent edge of an outer name, or the reactum link
    of a fresh closed edge) and children, with a site child standing for
    the agent entities it carries, in entity order.  Siblings are sorted,
    so matches that only permute equal-valued interchangeable entities
    share one key (the clocks of a tick, in the full match list;
    :func:`enabled_outcomes` matches them once per orbit).  A None parameter
    is written as ``()`` and a value as ``(v,)``, so sorting never compares
    None with an int.
    """
    reactum = rule.reactum
    values = _reactum_values(rule, m.binding_env())
    emap = m.edge_map()
    ports: list[list[tuple]] = [[] for _ in range(reactum.nnodes)]
    for l, lk in enumerate(reactum.links):
        if lk.name is not None:
            tag = ("o", emap[rule.redex_edge_of_name[lk.name]])
        else:
            tag = ("c", l)
        for v, p in lk.ports:
            ports[v].append((p, *tag))

    def children(refs) -> tuple:
        return tuple(sorted(
            entity(c) if k == "n" else ("$", tuple(sorted(m.site_images[c]))) for k, c in refs
        ))

    def entity(j: int) -> tuple:
        value = values[j]
        return (
            reactum.nodes[j][0].name,
            () if value is None else (value,),
            tuple(sorted(ports[j])),
            children(reactum.node_children[j]),
        )

    return (m.image, m.anchors, tuple(children(cs) for cs in reactum.region_children))


def apply(agent: Bigraph, rule: RuleFamily, m: Match) -> Bigraph:
    """Replace the matched occurrence of the redex with the reactum.

    `m` must be the match of an outcome that :func:`enabled_outcomes`
    returned for `rule` on `agent`: it already checked the context
    condition, and the binding holds every formal.
    The context is preserved as-is, each redex site's content moves to the
    reactum site of the same index, reactum ports on an outer name reattach
    to the agent hyperedge that name matched, and fully consumed closed
    edges vanish.
    """
    if not agent.is_ground():
        raise ValueError("apply: agent must be ground")
    redex, reactum = rule.redex, rule.reactum
    image = set(m.nodes)
    for p, u in enumerate(m.nodes):
        if u >= agent.nnodes or agent.nodes[u][0].name != redex.nodes[p][0].name:
            raise ValueError("apply: stale match for this agent")
    env = m.binding_env()
    emap = m.edge_map()

    survivors = [v for v in range(agent.nnodes) if v not in image]
    new_id = {old: i for i, old in enumerate(survivors)}
    nodes: list[tuple[Control, Term | None]] = [agent.nodes[v] for v in survivors]
    node_children: list[list[Ref]] = []
    for v in survivors:
        node_children.append(
            [("n", new_id[c]) for k, c in agent.node_children[v] if c not in image]
        )
    region_children: list[list[Ref]] = []
    for r in range(agent.nregions):
        region_children.append(
            [("n", new_id[c]) for k, c in agent.region_children[r] if c not in image]
        )

    react_id: dict[int, int] = {}
    for j, value in enumerate(_reactum_values(rule, env)):
        react_id[j] = len(nodes)
        nodes.append((reactum.nodes[j][0], value))
        node_children.append([])

    def place(target: list[Ref], children):
        for k, c in children:
            if k == "n":
                target.append(("n", react_id[c]))
            else:
                for root in m.site_images[c]:
                    target.append(("n", new_id[root]))

    for j in range(reactum.nnodes):
        place(node_children[react_id[j]], reactum.node_children[j])
    for r in range(reactum.nregions):
        anchor = m.anchors[r]
        if anchor is None:
            target = region_children[r if r < len(region_children) else 0]
        elif anchor[0] == "r":
            target = region_children[anchor[1]]
        else:
            target = node_children[new_id[anchor[1]]]
        place(target, reactum.region_children[r])

    # links: surviving agent ports keep their edges; reactum ports join the
    # matched edge of their outer name or form fresh closed edges
    new_ports: list[list[tuple[int, int]]] = [
        [(new_id[v], p) for v, p in lk.ports if v not in image] for lk in agent.links
    ]
    fresh: list[Link] = []
    for lk in reactum.links:
        ports = [(react_id[v], p) for v, p in lk.ports]
        if lk.name is not None:
            E = emap[rule.redex_edge_of_name[lk.name]]
            new_ports[E].extend(ports)
        elif ports:
            fresh.append(Link(None, tuple(ports)))

    links: list[Link] = []
    for E, lk in enumerate(agent.links):
        if new_ports[E] or lk.name is not None:
            links.append(Link(lk.name, tuple(new_ports[E])))
    links.extend(fresh)

    return Bigraph(nodes, node_children, region_children, 0, links)


# ---------------------------------------------------------------------------
# model structure


@dataclass
class RuleEntry:
    """One occurrence of a rule family inside a priority class, with domains.

    `pattern` is the family's redex over those domains; an entry has no
    search of its own but takes, from its family's matches in a state, the
    ones whose binding lies in its domains (:meth:`outcomes`)."""

    family: RuleFamily
    domains: tuple[tuple[int, ...], ...]  # aligned with family.formal
    pattern: "Pattern" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fam = self.family
        self.pattern = Pattern(fam.base, fam.redex, fam.formal, self.domains, kind="rule")

    @property
    def size(self) -> int:
        return self.pattern.size

    def overlaps(self, other: "RuleEntry") -> bool:
        if self.family.base != other.family.base:
            return False
        if not self.family.formal:
            return True
        return all(
            set(a) & set(b) for a, b in zip(self.domains, other.domains)
        )

    def outcomes(self, matches: list[Match], multiplicity: int) -> list["Outcome"]:
        """The outcomes of this entry among its family's condition-satisfying
        matches in one state, in match order, each standing for
        `multiplicity` matches."""
        fam, pat = self.family, self.pattern
        doms = pat.match_domains
        out: list[Outcome] = []
        for m in matches:
            if not all(v in doms[name] for name, v in m.binding):
                continue
            for values in pat.valuations(m.binding):
                env = dict(zip(fam.formal, values))
                full = replace(m, binding=tuple(sorted(env.items())))
                out.append(Outcome(fam, full, fam.weight, multiplicity))
        return out


@dataclass(frozen=True)
class Outcome:
    """An enabled (rule, match) pair with its weight; the match binds every
    formal of the rule.  An outcome found once per orbit stands for
    `multiplicity` matches with equal results (see :func:`enabled_outcomes`)."""

    rule: RuleFamily
    match: Match
    weight: float
    multiplicity: int = 1

    @property
    def name(self) -> str:
        """The rule instance, such as ``init_transition(2)``."""
        return self.rule.instance_name(self.match.binding_env())


@dataclass(frozen=True)
class Pattern:
    """A named bigraph used as a state predicate, or a family of them, or a
    rule entry's redex (`kind` names which in errors).

    A family's body carries its parameters as `Var` entity parameters;
    `formal` names them and `domains` gives each its integer set.  The
    instance `name_v1_v2...` (values in formal order) holds in every state
    where the body occurs with those values bound, and a formal that the
    body does not carry takes every value of its set (`axes`, None for a
    carried formal).  A plain pattern has no formals and one instance.
    Both `match_domains` and `axes` are computed once, at construction.
    """

    name: str
    body: Bigraph
    formal: tuple[str, ...] = ()
    domains: tuple[tuple[int, ...], ...] = ()
    kind: str = field(default="pattern", compare=False)
    match_domains: dict[str, frozenset[int]] = field(init=False, repr=False, compare=False)
    axes: tuple[tuple[int, ...] | None, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        what = f"{self.kind} {self.name}"
        if len(self.domains) != len(self.formal):
            raise ValueError(
                f"{what}: {len(self.domains)} domain(s) for {len(self.formal)} formal(s)"
            )
        for v, dom in zip(self.formal, self.domains):
            if not dom:
                raise ValueError(f"{what}: empty domain for {v!r}")
        _check_bound(what, self.formal, (self.body,))
        carried = {p.name for _ctrl, p in self.body.nodes if isinstance(p, Var)}
        object.__setattr__(
            self, "match_domains", {v: frozenset(d) for v, d in zip(self.formal, self.domains)}
        )
        object.__setattr__(self, "axes", tuple(
            None if v in carried else tuple(dict.fromkeys(d))
            for v, d in zip(self.formal, self.domains)
        ))

    @property
    def size(self) -> int:
        """The number of valuations of `formal`."""
        return math.prod(len(dom) for dom in self.domains)

    def valuations(self, binding) -> itertools.product:
        """The valuations of `formal`, in formal order, that a match with this
        binding stands for."""
        env = dict(binding)
        return itertools.product(
            *[(env[v],) if ax is None else ax for v, ax in zip(self.formal, self.axes)]
        )

    @property
    def has_arithmetic(self) -> bool:
        """Whether the body computes a parameter, which no match can bind."""
        return any(isinstance(param, Arith) for _ctrl, param in self.body.nodes)

    def instance_name(self, values: tuple[int, ...]) -> str:
        if not values:
            return self.name
        return self.name + "_" + "_".join(str(v) for v in values)

    def instance_names(self) -> list[str]:
        return [self.instance_name(vs) for vs in itertools.product(*self.domains)]

    def instances(self) -> list[tuple[str, Bigraph]]:
        """One (name, concrete body) pair per valuation, in domain order."""
        out = []
        for values in itertools.product(*self.domains):
            env = dict(zip(self.formal, values))
            out.append((self.instance_name(values), _subst(self.body, env) if env else self.body))
        return out


@dataclass
class Model:
    """Elaborated model: controls, prioritised rule entries, actions, and the
    predicate patterns that label states.

    `searches` holds, per rule family (by base name), the pattern that
    :func:`enabled_outcomes` searches: the family's redex over the union of
    its entries' domains.  `groups` holds, per family that has any, its
    groups of interchangeable redex entities (see :func:`_groups`)."""

    controls: dict[str, Control]
    classes: list[list[RuleEntry]]
    actions: list[tuple[str, tuple[str, ...]]]  # (action label, rule base names)
    patterns: list[Pattern]
    init: Bigraph
    name: str = "model"

    def __post_init__(self):
        self.action_of: dict[str, str] = {}
        for label, bases in self.actions:
            for b in bases:
                if b in self.action_of:
                    raise ValueError(f"rule {b} belongs to two actions")
                self.action_of[b] = label
        for cls in self.classes:
            for entry in cls:
                if entry.family.base not in self.action_of:
                    raise ValueError(f"rule {entry.family.base} belongs to no action")
        flat = [e for cls in self.classes for e in cls]
        for i, a in enumerate(flat):
            for b in flat[i + 1 :]:
                if a.overlaps(b):
                    raise ValueError(
                        f"rule instances of {a.family.base} appear in two priority classes"
                    )
        families: dict[str, tuple[RuleFamily, list[dict[int, None]]]] = {}
        for entry in flat:
            fam = entry.family
            first, union = families.setdefault(fam.base, (fam, [{} for _ in fam.formal]))
            if first != fam:
                raise ValueError(f"rule {fam.base} has two definitions")
            for dom, values in zip(union, entry.domains):
                dom.update(dict.fromkeys(values))
        self.searches: dict[str, Pattern] = {
            base: Pattern(base, fam.redex, fam.formal, tuple(tuple(d) for d in union), kind="rule")
            for base, (fam, union) in families.items()
        }
        self.groups: dict[str, Groups] = {}
        for base, (fam, _union) in families.items():
            domains = [e.pattern.match_domains for e in flat if e.family.base == base]
            groups = _groups(fam, domains + [self.searches[base].match_domains])
            if groups:
                self.groups[base] = groups

    @property
    def action_order(self) -> list[str]:
        return [label for label, _ in self.actions]

    @property
    def predicates(self) -> list[tuple[str, Bigraph]]:
        """Every predicate instance with its concrete body, in pattern order."""
        return [inst for pat in self.patterns for inst in pat.instances()]

    def rule_count(self) -> int:
        return sum(e.size for cls in self.classes for e in cls)


# ---------------------------------------------------------------------------
# interchangeable redex entities


def _rename(term: Term | None, sigma: dict[str, str]) -> Term | None:
    if isinstance(term, Var):
        return Var(sigma.get(term.name, term.name))
    if isinstance(term, Arith):
        return Arith(term.op, _rename(term.left, sigma), _rename(term.right, sigma))
    return term


def _maps_onto_itself(g: Bigraph, perm: dict[int, int], sigma: dict[str, str],
                      tau: dict[str, str]) -> bool:
    """Whether moving each entity v to ``perm.get(v, v)``, renaming parameter
    variables by `sigma` and outer names by `tau` gives `g` back: equal
    controls and parameters, parents and hyperedges, port by port."""
    at = lambda v: perm.get(v, v)
    for v, (ctrl, param) in enumerate(g.nodes):
        w = at(v)
        if g.nodes[w] != (ctrl, _rename(param, sigma)):
            return False
        kind, q = g.parent(("n", v))
        if g.parent(("n", w)) != (kind, at(q) if kind == "n" else q):
            return False
    links = {(lk.name, frozenset(lk.ports)) for lk in g.links}
    return links == {
        (tau.get(lk.name, lk.name), frozenset((at(v), p) for v, p in lk.ports))
        for lk in g.links
    }


def _interchangeable(fam: RuleFamily, i: int, j: int, domains) -> bool:
    """Whether swapping redex entities `i` and `j` (same parent and control,
    no children, no sites), together with their parameter variables and
    their private outer names, maps the redex and the reactum onto
    themselves and every one of `domains` (formal -> value set) onto itself.
    The reactum may answer with no move or with a swap of two of its leaves."""
    redex, reactum = fam.redex, fam.reactum
    pi, pj = redex.nodes[i][1], redex.nodes[j][1]
    sigma = {}
    if isinstance(pi, Var) and isinstance(pj, Var):
        sigma = {pi.name: pj.name, pj.name: pi.name}
    if any(dom[a] != dom[b] for dom in domains for a, b in sigma.items()):
        return False
    link_of = {port: lk for lk in redex.links for port in lk.ports}
    private = lambda lk, v: lk.name is not None and all(w == v for w, _p in lk.ports)
    tau = {}
    for p in range(redex.nodes[i][0].arity):
        a, b = link_of[(i, p)], link_of[(j, p)]
        if private(a, i) and private(b, j):
            tau[a.name], tau[b.name] = b.name, a.name
    if not _maps_onto_itself(redex, {i: j, j: i}, sigma, tau):
        return False
    leaves = [v for v in range(reactum.nnodes) if not reactum.node_children[v]]
    return _maps_onto_itself(reactum, {}, sigma, tau) or any(
        _maps_onto_itself(reactum, {a: b, b: a}, sigma, tau)
        for a, b in itertools.combinations(leaves, 2)
    )


def _groups(fam: RuleFamily, domains) -> Groups:
    """The family's groups of at least two interchangeable redex entities.

    A group's members share a parent and a control, have no children and no
    sites, and every two of them are :func:`_interchangeable` under
    `domains`: those of every entry of the family and of its search.  So
    every permutation inside the groups maps a match to a match of the same
    entries, with the same image and an isomorphic result.  The context
    condition needs no check: whether it blocks depends on the image alone.
    """
    redex = fam.redex
    alike: dict[tuple, list[int]] = {}
    for v, (ctrl, _param) in enumerate(redex.nodes):
        if not redex.node_children[v]:
            alike.setdefault((redex.parent(("n", v)), ctrl.name), []).append(v)
    groups: list[tuple[int, ...]] = []
    for members in alike.values():
        found: list[list[int]] = []
        for v in members:
            for group in found:
                if all(_interchangeable(fam, u, v, domains) for u in group):
                    group.append(v)
                    break
            else:
                found.append([v])
        groups.extend(tuple(g) for g in found if len(g) > 1)
    return tuple(groups)


def enabled_outcomes(agent: Bigraph, model: Model) -> dict[str, list[Outcome]]:
    """Outcomes of the highest priority class with any valid match, by action.

    Actions appear in declaration order; the mapping is empty iff no rule
    matches at all.  Each family reached is searched once, by the first
    entry that needs it, on tables of `agent` built once: its redex over
    `model.searches`, then, if it has matches, its context condition with no
    exclusions.  A match is blocked when some occurrence of the condition
    lies wholly outside its image.

    A family with `model.groups` is searched once per orbit of its matches
    under permutations inside the groups: each outcome is its orbit's first
    member in match order and has the orbit size, the product of the group
    sizes' factorials, as its multiplicity.
    """
    host = Host(agent)
    valid: dict[str, tuple[list[Match], int]] = {}

    def family_matches(fam: RuleFamily) -> tuple[list[Match], int]:
        found = valid.get(fam.base)
        if found is None:
            search = model.searches[fam.base]
            groups = model.groups.get(fam.base, ())
            matches = occurrences(host, fam.redex, domains=search.match_domains, groups=groups)
            if matches and fam.condition is not None:
                blockers = [frozenset(c.nodes) for c in occurrences(host, fam.condition)]
                matches = [m for m in matches if not any(b.isdisjoint(m.nodes) for b in blockers)]
            size = math.prod(math.factorial(len(g)) for g in groups) if groups else 1
            found = valid[fam.base] = (matches, size)
        return found

    for cls in model.classes:
        grouped: dict[str, list[Outcome]] = {}
        for entry in cls:
            for oc in entry.outcomes(*family_matches(entry.family)):
                grouped.setdefault(model.action_of[oc.rule.base], []).append(oc)
        if grouped:
            return {label: grouped[label] for label in model.action_order if label in grouped}
    return {}


def integer_weights(outcomes: list[Outcome]) -> list[int]:
    """Each outcome's weight times its multiplicity, as integers over one
    common power of two (the largest denominator of a weight), so that sums
    of them are exact."""
    ratios = [oc.weight.as_integer_ratio() for oc in outcomes]
    common = max(d for _n, d in ratios)
    return [n * (common // d) * oc.multiplicity for (n, d), oc in zip(ratios, outcomes)]


def _orbit(m: Match, moves: list, cap: int) -> list[Match]:
    """Up to `cap` images of `m`, in breadth-first order and `m` left out,
    under the group generated by `moves`: (entities, edges, links) triples,
    each an automorphism of the agent (entity and edge maps that list only
    what they move) or one of the rule's `name_swaps` (a redex link map).
    Images are told apart by entities, edges and anchors: those fix the
    site images up to order."""
    seen = {(m.nodes, m.edges, m.anchors)}
    out = [m]
    for x in out:
        for nodes, edges, links in moves:
            at = nodes.get
            pairs = x.edges
            if links:
                emap = dict(pairs)
                pairs = [(e, emap[links.get(e, e)]) for e, _E in pairs]
            key = (
                tuple([at(u, u) for u in x.nodes]),
                tuple([(e, edges.get(E, E)) for e, E in pairs]),
                tuple([("n", at(a[1], a[1])) if a and a[0] == "n" else a for a in x.anchors]),
            )
            if key in seen:
                continue
            if len(out) > cap:
                return out[1:]
            seen.add(key)
            sites = tuple([tuple([at(u, u) for u in s]) for s in x.site_images])
            out.append(Match(*key, sites, x.binding))
    return out[1:]


def _successors(agent: Bigraph, outcomes: list[Outcome]) -> tuple[list[Bigraph], list[int]]:
    """The distinct results of one action's outcomes, in first-appearance
    order, and for each outcome the index of its result.

    Outcomes with equal :func:`effect_key` are applied and canonicalised
    once, by the first of them; results that are still isomorphic merge by
    canonical form.  When an outcome is applied, the images of its match
    under the automorphisms recorded with the agent's canonical form
    (`agent._autos`; none if it has not been canonicalised) and under the
    rule's `name_swaps` give isomorphic results, so their effect keys join
    the same result, and later outcomes among them are neither applied nor
    canonicalised.  The walk over those images stops after as many as the
    action has outcomes.
    """
    autos = [(nodes, edges, {}) for nodes, edges in agent._autos or ()]
    by_effect: dict[tuple, int] = {}
    by_canon: dict[bytes, int] = {}
    results: list[Bigraph] = []
    joined: list[int] = []
    for oc in outcomes:
        effect = effect_key(oc.rule, oc.match)
        i = by_effect.get(effect)
        if i is None:
            succ = apply(agent, oc.rule, oc.match)
            i = by_canon.setdefault(canonical_form(succ), len(results))
            if i == len(results):
                results.append(succ)
            by_effect[effect] = i
            moves = autos + [({}, {}, links) for links in oc.rule.name_swaps]
            if moves and len(outcomes) > 1:
                for image in _orbit(oc.match, moves, len(outcomes)):
                    by_effect.setdefault(effect_key(oc.rule, image), i)
        joined.append(i)
    return results, joined


def action_distribution(agent: Bigraph, outcomes: list[Outcome],
                        action: str = "") -> list[tuple[Bigraph, float]]:
    """Normalise one action's outcomes into a distribution over result states.

    Each match (every one counts, symmetric ones too) has probability
    weight / total weight.  The results are those of :func:`_successors`,
    which applies and canonicalises one outcome per effect and per orbit of
    the agent's automorphisms; entries keep first-appearance order.  The
    :func:`integer_weights` of the outcomes joining a result are summed
    exactly and divided by the action's total once, so each probability is
    correctly rounded and a single result gets exactly 1.0.  A match's share
    that rounds to 0 raises :class:`ParameterLimit` naming the rule and
    `action`: a transition of probability 0 would be written.
    """
    if not outcomes:
        raise ValueError("action_distribution: empty outcome list")
    weights = integer_weights(outcomes)
    total = sum(weights)
    results, joined = _successors(agent, outcomes)
    sums = [0] * len(results)
    for oc, w, i in zip(outcomes, weights, joined):
        if w // oc.multiplicity / total == 0.0:
            line, col = oc.rule.pos
            raise ParameterLimit(
                f"{line}:{col}: rule {oc.rule.base}: its probability in action {action}"
                f" rounds to 0 (weight {oc.weight!r})"
            )
        sums[i] += w
    return [(g, w / total) for g, w in zip(results, sums)]
