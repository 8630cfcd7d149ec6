"""Reaction rules with weights, actions, priorities and negative conditions.

A :class:`RuleFamily` is a rule template whose redex carries parameter
variables; a concrete rule is a family with no formals.  A model's rule
entries never expand their valuations.  Per state, each family's symbolic
redex is searched once, with its parameters restricted to the union of its
entries' domains, and its context condition is searched once; every entry
then keeps the matches whose binding lies in its own domains, and
parameters that occur only in the reactum range over their whole domain.
Predicate families (:class:`Pattern`) are matched the same way.  The
searches of one state share one control tally of it (`match.Tally`); an
entry whose family found no valid match is passed over, and an entry whose
redex carries every formal makes each outcome from its family's own
`Match`, whose binding is already whole.  What a family's search needs
besides the state (its pattern and domains, its groups and their orbit
size) is computed once, with the :class:`Model`.

Priority classes are global and ordered: a rule may fire only when no rule
of any earlier class has a condition-satisfying match.  Weights turn the
matches of one action in one state into a probability distribution, summed
exactly as integers (:func:`integer_weights`) and rounded once per
probability.

Symmetric clocks: a tick such as ``LC(c1){l1} | ... | LC(ck){lk}`` matches
k interchangeable siblings in all k! orders, and every order leads to the
same successor.  When the model is built, each family's groups of
interchangeable redex entities are found once (:attr:`Model.groups`), one
swap test per sibling.  Each family is then matched once per orbit of
those groups: the search keeps the orbit's first member, and its outcome
carries the orbit size as a multiplicity, so every match still counts
toward the weights.  A caller that needs every match clears `groups` on a
copy of the model.

Symmetric states: interchangeable tokens make many outcomes whose results
are isomorphic, because an automorphism of the state maps one match onto
the other.  :func:`action_distribution` applies and canonicalises the first
of them only; the generators come with the state's canonical form
(:mod:`tickgraph.canon`).  An entity's ports are a multiset, so
:func:`effect_key` writes a reactum entity's links without port indices:
matches that give two outer names of a rule (such as `a` and `b` in
``Tok{a,b} -> Tok{a,b}``) each other's agent edges share one key.
"""

from __future__ import annotations

import itertools
import math

from .bigraph import Bigraph, Control, Link
from .canon import canonical_form
from .match import Match, PatternLimit, Tally, occurrences
from .params import Arith, ParameterLimit, Term, Var, is_concrete, term_eval, term_fold, term_vars
from .records import Record

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


def _check_bound(what: str, formal: tuple[str, ...], bodies: tuple[Bigraph, ...]) -> set[str]:
    """Every parameter variable in `bodies` must be one of `formal`.  Returns
    the variables that some entity carries bare, as its whole parameter."""
    carried = set()
    free = set()
    for g in bodies:
        for _ctrl, param in g.nodes:
            if type(param) is Var:
                carried.add(param.name)
            elif param is not None and not isinstance(param, int):
                free |= term_vars(param)
    missing = (carried | free).difference(formal)
    if missing:
        raise ValueError(f"{what}: unbound parameters {sorted(missing)}")
    return carried


def _subst(g: Bigraph, env: dict[str, int]) -> Bigraph:
    nodes = []
    for ctrl, param in g.nodes:
        if param is None or isinstance(param, int):
            nodes.append((ctrl, param))
        else:
            nodes.append((ctrl, term_eval(param, env)))
    return Bigraph(nodes, g.up, g.site_up, g.nregions, g.links)


class RuleFamily(Record):
    """Parameterised redex -> reactum template over named integer parameters.

    `condition`: no occurrence of it may lie outside a match's image.
    `pos`: the declaration's line:col, which equality ignores.
    `redex_edge_of_name`: outer name -> its redex link index, computed once."""

    __slots__ = ("base", "formal", "redex", "reactum", "weight", "condition", "pos",
                 "redex_edge_of_name")
    _fields = __slots__[:-1]
    _ignore = ("pos",)

    def __init__(self, base: str, formal: tuple[str, ...], redex: Bigraph, reactum: Bigraph,
                 weight: float, condition: Bigraph | None = None, pos: tuple[int, int] = (0, 0)):
        _check_rule_shape(redex, reactum, weight, base)
        _check_bound(f"rule {base}", formal, (redex, reactum))
        self.base = base
        self.formal = formal
        self.redex = redex
        self.reactum = reactum
        self.weight = weight
        self.condition = condition
        self.pos = pos
        self.redex_edge_of_name = {
            lk.name: e for e, lk in enumerate(redex.links) if lk.name is not None
        }

    def instance_name(self, env: dict[str, int]) -> str:
        if not self.formal:
            return self.base
        return f"{self.base}({','.join(str(env[v]) for v in self.formal)})"


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

    Two outcomes on the same agent with equal keys give isomorphic results:
    the key holds the match image, each reactum region's anchor, and per
    reactum entity its control, computed parameter, links and children,
    with a site child standing for the agent entities it carries, in entity
    order.  An entity's links are a sorted multiset of the agent edge of
    each outer name and the reactum link of each fresh closed edge, one per
    port: ports are unordered (as in canonical forms), so matches that give
    two outer names each other's agent edges share one key when the names
    reach every entity equally often.  Siblings are sorted, so matches that
    only permute equal-valued interchangeable entities share one key (the
    clocks of a tick, in the full match list; :func:`enabled_outcomes`
    matches them once per orbit).  A None parameter is written as ``()``
    and a value as ``(v,)``, so sorting never compares None with an int.
    """
    reactum = rule.reactum
    values = _reactum_values(rule, m.binding_env())
    emap = m.edge_map()
    tags = [("c", l) if lk.name is None else ("o", emap[rule.redex_edge_of_name[lk.name]])
            for l, lk in enumerate(reactum.links)]
    return (m.image, m.anchors, tuple([
        _written(reactum, values, tags, m.site_images, kids, sites)
        for kids, sites in zip(reactum.roots, reactum.region_sites)
    ]))


def _written(reactum: Bigraph, values: list, tags: list, site_images, kids, sites) -> tuple:
    """The sorted :func:`effect_key` entries of the reactum entities `kids`
    and sites `sites`, the children of one place: per entity its control,
    parameter, links and children, per site the agent entities it carries.
    A module-level function, so that a key leaves no reference cycle
    behind."""
    out = [("$", tuple(sorted(site_images[s]))) for s in sites]
    for c in kids:
        value = values[c]
        out.append((
            reactum.nodes[c][0].name,
            () if value is None else (value,),
            tuple(sorted([tags[l] for l, n in reactum.node_edges[c] for _ in range(n)])),
            _written(reactum, values, tags, site_images, reactum.kids[c], reactum.sites[c]),
        ))
    return tuple(sorted(out))


def apply(agent: Bigraph, rule: RuleFamily, m: Match) -> Bigraph:
    """Replace the matched occurrence of the redex with the reactum.

    `m` must be the match of an outcome that :func:`enabled_outcomes`
    returned for `rule` on `agent`: it already checked the context
    condition, and the binding holds every formal.
    The context is preserved as-is: a surviving entity keeps its parent,
    except that a root captured by redex site s moves to the place of
    reactum site s.  Reactum entity j becomes entity ``base + j`` after the
    survivors, and a reactum region's roots go to the region's anchor.
    Reactum ports on an outer name reattach to the agent hyperedge that
    name matched, and fully consumed closed edges vanish.
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
    base = len(nodes)
    nodes += [(ctrl, value) for (ctrl, _p), value in zip(reactum.nodes, _reactum_values(rule, env))]

    # where each reactum region's roots go: its anchor's new place
    where = [~(r if r < agent.nregions else 0) if a is None else a if a < 0 else new_id[a]
             for r, a in enumerate(m.anchors)]
    place = lambda x: base + x if x >= 0 else where[~x]  # of a reactum parent
    moved = {root: place(reactum.site_up[s])
             for s, roots in enumerate(m.site_images) for root in roots}
    up = []
    for v in survivors:
        p = agent.up[v]
        up.append(p if p < 0 else moved[v] if p in image else new_id[p])
    up += [place(p) for p in reactum.up]

    # links: surviving agent ports keep their edges; reactum ports join the
    # matched edge of their outer name or form fresh closed edges
    new_ports: list[list[tuple[int, int]]] = [
        [(new_id[v], p) for v, p in lk.ports if v not in image] for lk in agent.links
    ]
    fresh: list[Link] = []
    for lk in reactum.links:
        ports = [(base + v, p) for v, p in lk.ports]
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

    return Bigraph(nodes, up, [], agent.nregions, links)


# ---------------------------------------------------------------------------
# model structure


class RuleEntry(Record):
    """One occurrence of a rule family inside a priority class, with domains.

    `pattern` is the family's redex over those domains; an entry has no
    search of its own but takes, from its family's matches in a state, the
    ones whose binding lies in its domains (:meth:`outcomes`).  `carried`
    tells whether the redex carries every formal, computed once."""

    __slots__ = ("family", "domains", "pattern", "carried")
    _fields = __slots__[:-2]
    __hash__ = None

    def __init__(self, family: RuleFamily, domains: tuple[tuple[int, ...], ...]):
        self.family = family
        self.domains = domains  # aligned with family.formal
        self.pattern = Pattern(family.base, family.redex, family.formal, domains, kind="rule")
        self.carried = all(ax is None for ax in self.pattern.axes)

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
        `multiplicity` matches.  When the redex carries every formal, a
        match's binding is whole, and its outcome holds that match itself;
        otherwise a formal that only the reactum uses takes each value of
        its domain, one outcome per value."""
        fam, pat = self.family, self.pattern
        doms = pat.match_domains
        out: list[Outcome] = []
        for m in matches:
            if m.binding and not all(v in doms[name] for name, v in m.binding):
                continue
            if self.carried:
                out.append(Outcome(fam, m, fam.weight, multiplicity))
                continue
            for values in pat.valuations(m.binding):
                env = dict(zip(fam.formal, values))
                full = Match(m.nodes, m.edges, m.anchors, m.site_images,
                             tuple(sorted(env.items())))
                out.append(Outcome(fam, full, fam.weight, multiplicity))
        return out


class Outcome(Record):
    """An enabled (rule, match) pair with its weight; the match binds every
    formal of the rule.  An outcome found once per orbit stands for
    `multiplicity` matches with equal results (see :func:`enabled_outcomes`)."""

    __slots__ = ("rule", "match", "weight", "multiplicity")

    def __init__(self, rule: RuleFamily, match: Match, weight: float, multiplicity: int = 1):
        self.rule = rule
        self.match = match
        self.weight = weight
        self.multiplicity = multiplicity

    @property
    def name(self) -> str:
        """The rule instance, such as ``init_transition(2)``."""
        return self.rule.instance_name(self.match.binding_env())


class Pattern(Record):
    """A named bigraph used as a state predicate, or a family of them, or a
    rule entry's redex (`kind` names which in errors; equality ignores it).

    A family's body carries its parameters as `Var` entity parameters;
    `formal` names them and `domains` gives each its integer set.  The
    instance `name_v1_v2...` (values in formal order) holds in every state
    where the body occurs with those values bound, and a formal that the
    body does not carry takes every value of its set (`axes`, None for a
    carried formal).  A plain pattern has no formals and one instance.
    Both `match_domains` and `axes` are computed once, at construction.
    """

    __slots__ = ("name", "body", "formal", "domains", "kind", "match_domains", "axes")
    _fields = __slots__[:-2]
    _ignore = ("kind",)

    def __init__(self, name: str, body: Bigraph, formal: tuple[str, ...] = (),
                 domains: tuple[tuple[int, ...], ...] = (), kind: str = "pattern"):
        what = f"{kind} {name}"
        if len(domains) != len(formal):
            raise ValueError(f"{what}: {len(domains)} domain(s) for {len(formal)} formal(s)")
        if not all(domains):
            v = next(v for v, dom in zip(formal, domains) if not dom)
            raise ValueError(f"{what}: empty domain for {v!r}")
        carried = _check_bound(what, formal, (body,))
        self.name = name
        self.body = body
        self.formal = formal
        self.domains = domains
        self.kind = kind
        self.match_domains = {}
        self.axes = ()
        if formal:
            self.match_domains = {v: frozenset(d) for v, d in zip(formal, domains)}
            self.axes = tuple(
                None if v in carried else tuple(dict.fromkeys(d)) for v, d in zip(formal, domains)
            )

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
        return self.name + "_" + "_".join(map(str, values))

    def instance_names(self) -> list[str]:
        if not self.formal:
            return [self.name]
        head = self.name + "_"
        return [head + "_".join(map(str, vs)) for vs in itertools.product(*self.domains)]

    def instances(self) -> list[tuple[str, Bigraph]]:
        """One (name, concrete body) pair per valuation, in domain order."""
        out = []
        for values in itertools.product(*self.domains):
            env = dict(zip(self.formal, values))
            out.append((self.instance_name(values), _subst(self.body, env) if env else self.body))
        return out


class Model(Record):
    """Elaborated model: controls, prioritised rule entries, actions, and the
    predicate patterns that label states.

    `searches` holds, per rule family (by base name), the pattern that
    :func:`enabled_outcomes` searches: the family's redex over the union of
    its entries' domains.  `groups` holds, per family that has any, its
    groups of interchangeable redex entities (see :func:`_groups`), and
    `orbit_sizes` the number of matches each orbit of them stands for, the
    product of the group sizes' factorials.  All three are computed once."""

    __slots__ = ("controls", "classes", "actions", "patterns", "init", "name",
                 "action_of", "searches", "groups", "orbit_sizes")
    _fields = __slots__[:-4]
    __hash__ = None

    def __init__(self, controls: dict[str, Control], classes: list[list[RuleEntry]],
                 actions: list[tuple[str, tuple[str, ...]]], patterns: list[Pattern],
                 init: Bigraph, name: str = "model"):
        self.controls = controls
        self.classes = classes
        self.actions = actions  # (action label, rule base names)
        self.patterns = patterns
        self.init = init
        self.name = name
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
        of_base: dict[str, list[RuleEntry]] = {}  # per family, its entries in `flat` order
        for entry in flat:
            of_base.setdefault(entry.family.base, []).append(entry)
        # only entries of one family can overlap: each is compared with the
        # later entries of its family, pairs in the order of `flat`
        passed = dict.fromkeys(of_base, 0)
        for a in flat:
            k = passed[a.family.base] = passed[a.family.base] + 1
            for b in of_base[a.family.base][k:]:
                if a.overlaps(b):
                    raise ValueError(
                        f"rule instances of {a.family.base} appear in two priority classes"
                    )
        families: dict[str, tuple[RuleFamily, list[dict[int, None]]]] = {}
        for entry in flat:
            fam = entry.family
            if fam.base not in families:
                families[fam.base] = (fam, [{} for _ in fam.formal])
            first, union = families[fam.base]
            if first is not fam and first != fam:
                raise ValueError(f"rule {fam.base} has two definitions")
            for dom, values in zip(union, entry.domains):
                dom.update(dict.fromkeys(values))
        self.searches: dict[str, Pattern] = {}
        for base, (fam, union) in families.items():
            domains = tuple(tuple(d) for d in union)
            first = of_base[base][0]  # its domains are the union when it is the only entry
            self.searches[base] = (first.pattern if domains == first.domains else
                                   Pattern(base, fam.redex, fam.formal, domains, kind="rule"))
        self.groups: dict[str, Groups] = {}
        for base, (fam, _union) in families.items():
            groups = _groups(fam, [e.pattern.match_domains for e in of_base[base]])
            if groups:
                self.groups[base] = groups
        self.orbit_sizes = {
            base: math.prod(math.factorial(len(g)) for g in groups)
            for base, groups in self.groups.items()
        }

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
    leaf = lambda t: Var(sigma.get(t.name, t.name)) if isinstance(t, Var) else t
    return term_fold(term, leaf, Arith) if isinstance(term, Arith) else leaf(term)


def _maps_onto_itself(g: Bigraph, perm: dict[int, int], params: list,
                      tau: dict[str, str]) -> bool:
    """Whether moving each entity v to ``perm.get(v, v)`` with parameter
    ``params[v]`` (renamed) and renaming outer names by `tau` gives `g` back:
    equal controls and parameters, parents and hyperedges, port by port."""
    at = lambda v: perm.get(v, v)
    for v, ((ctrl, _param), param) in enumerate(zip(g.nodes, params)):
        w = at(v)
        if g.nodes[w] != (ctrl, param):
            return False
        q = g.up[v]  # a parent entity, or below zero a region
        if g.up[w] != (at(q) if q >= 0 else q):
            return False
    links = {(lk.name, frozenset(lk.ports)) for lk in g.links}
    return links == {
        (tau.get(lk.name, lk.name), frozenset((at(v), p) for v, p in lk.ports))
        for lk in g.links
    }


def _interchangeable(fam: RuleFamily, i: int, j: int, domains, reactum_vars) -> bool:
    """Whether swapping redex entities `i` and `j` (same parent and control,
    no children, no sites), together with their parameter variables and
    their private outer names, maps the redex and the reactum onto
    themselves and every one of `domains` (formal -> value set) onto itself.
    The renaming must rewrite no reactum entity, and then the reactum maps
    onto itself unmoved, or exactly two leaves, and then their swap must.
    `reactum_vars` holds the variables of each reactum entity's parameter."""
    redex, reactum = fam.redex, fam.reactum
    pi, pj = redex.nodes[i][1], redex.nodes[j][1]
    sigma = {}
    if isinstance(pi, Var) and isinstance(pj, Var) and pi.name != pj.name:
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
    params = [_rename(x, sigma) for _c, x in redex.nodes]
    if not _maps_onto_itself(redex, {i: j, j: i}, params, tau):
        return False
    # a swap of two distinct variables rewrites exactly the terms that hold one
    rewritten = [v for v, names in enumerate(reactum_vars) if not sigma.keys().isdisjoint(names)]
    params = [x for _c, x in reactum.nodes]
    for v in rewritten:
        params[v] = _rename(params[v], sigma)
    renamed = sorted({v for lk in reactum.links if lk.name in tau for v, _p in lk.ports}
                     | set(rewritten))
    if len(renamed) not in (0, 2) or any(reactum.kids[v] or reactum.sites[v] for v in renamed):
        return False
    return _maps_onto_itself(reactum, dict(zip(renamed, reversed(renamed))), params, tau)


def _groups(fam: RuleFamily, domains) -> Groups:
    """The family's groups of at least two interchangeable redex entities.

    A group's members share a parent and a control, have no children and no
    sites, and each is :func:`_interchangeable` with the group's first
    under `domains`, those of every entry of the family (and so of their
    union).  Swaps compose, (b c) = (a b)(a c)(a b), so every permutation
    inside the groups maps a match to a match of the same entries, with the
    same image and an isomorphic result.  The context condition needs no
    check: whether it blocks depends on the image alone.
    """
    redex = fam.redex
    alike: dict[tuple, list[int]] = {}
    for v, (ctrl, _param) in enumerate(redex.nodes):
        if not (redex.kids[v] or redex.sites[v]):
            alike.setdefault((redex.up[v], ctrl.name), []).append(v)
    groups: list[tuple[int, ...]] = []
    reactum_vars = None
    for members in alike.values():
        if len(members) < 2:
            continue
        if reactum_vars is None:
            reactum_vars = [() if is_concrete(x) else term_vars(x) for _c, x in fam.reactum.nodes]
        found: list[list[int]] = []
        for v in members:
            for group in found:
                if _interchangeable(fam, group[0], v, domains, reactum_vars):
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
    entry that needs it, on `agent`'s own index and one :class:`Tally` of
    it that every search of this call shares: its redex over
    `model.searches`, then, if it has matches, its context condition with
    no exclusions.  A match is blocked when some occurrence of the
    condition lies wholly outside its image.  An entry whose family has no
    valid match is passed over.

    A family with `model.groups` is searched once per orbit of its matches
    under permutations inside the groups: each outcome is its orbit's first
    member in match order and has the orbit size (`model.orbit_sizes`) as
    its multiplicity.
    """
    tally = Tally(agent)
    valid: dict[str, list[Match]] = {}
    for cls in model.classes:
        grouped: dict[str, list[Outcome]] = {}
        for entry in cls:
            fam = entry.family
            base = fam.base
            matches = valid.get(base)
            if matches is None:
                groups = model.groups.get(base, ())
                try:
                    matches = occurrences(agent, fam.redex, groups=groups, tally=tally,
                                          domains=model.searches[base].match_domains)
                    if matches and fam.condition is not None:
                        blockers = [frozenset(c.nodes)
                                    for c in occurrences(agent, fam.condition, tally=tally)]
                        matches = [m for m in matches
                                   if not any(b.isdisjoint(m.nodes) for b in blockers)]
                except PatternLimit as exc:
                    raise PatternLimit(f"rule {base}: {exc}") from None
                valid[base] = matches
            if not matches:
                continue
            size = model.orbit_sizes[base] if base in model.groups else 1
            found = entry.outcomes(matches, size)
            if found:
                grouped.setdefault(model.action_of[base], []).extend(found)
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


def _movers(autos) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Per entity and per edge, the positions in `autos` of the
    automorphisms that move it, in order."""
    by_node: dict[int, list[int]] = {}
    by_edge: dict[int, list[int]] = {}
    for i, (nodes, edges) in enumerate(autos):
        for u in nodes:
            by_node.setdefault(u, []).append(i)
        for e in edges:
            by_edge.setdefault(e, []).append(i)
    return by_node, by_edge


def _orbit(m: Match, autos, movers, cap: int) -> list[Match]:
    """Up to `cap` images of `m`, in breadth-first order and `m` left out,
    under the group generated by `autos`: automorphisms of the agent, as
    (entity map, edge map) pairs that list only what they move.  Images are
    told apart by entities, edges and anchors: those fix the site images up
    to order.  Each image tries, in order, only the automorphisms that
    `movers` (see :func:`_movers`) lists for one of its entities, edges or
    anchor entities: any other maps it onto itself, an image already seen."""
    by_node, by_edge = movers
    seen = {(m.nodes, m.edges, m.anchors)}
    out = [m]
    for x in out:
        lists = [by_node[u] for u in x.nodes if u in by_node]
        lists += [by_edge[E] for _e, E in x.edges if E in by_edge]
        lists += [by_node[a] for a in x.anchors if a in by_node]  # not None or a region
        for i in lists[0] if len(lists) == 1 else sorted(set().union(*lists)):
            nodes, edges = autos[i]
            at = nodes.get
            key = (
                tuple([at(u, u) for u in x.nodes]),
                tuple([(e, edges.get(E, E)) for e, E in x.edges]),
                tuple([a if a is None or a < 0 else at(a, a) for a in x.anchors]),
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
    (`agent._autos`; none if it has not been canonicalised) give isomorphic
    results, so their effect keys join the same result, and later outcomes
    among them are neither applied nor canonicalised.  The walk over those
    images stops after as many as the action has outcomes.  A lone outcome
    has nothing to join, so its key is not computed.
    """
    autos = agent._autos or ()
    movers = None  # built by the first orbit walk
    lone = len(outcomes) == 1
    by_effect: dict[tuple | None, int] = {}
    by_canon: dict[str, int] = {}
    results: list[Bigraph] = []
    joined: list[int] = []
    for oc in outcomes:
        effect = None if lone else effect_key(oc.rule, oc.match)
        i = by_effect.get(effect)
        if i is None:
            succ = apply(agent, oc.rule, oc.match)
            i = by_canon.setdefault(canonical_form(succ), len(results))
            if i == len(results):
                results.append(succ)
            by_effect[effect] = i
            if autos and not lone:
                if movers is None:
                    movers = _movers(autos)
                for image in _orbit(oc.match, autos, movers, len(outcomes)):
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
