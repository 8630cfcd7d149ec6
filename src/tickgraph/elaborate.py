"""Elaboration of a parsed `.big` document into an executable model.

Every `big` and `react` declaration is evaluated and checked once, where it
is declared, whether or not anything uses it: a `big` body with its
parameters as `Var`s, a `react` into its :class:`RuleFamily`.  Each body
(a `big`, a redex, a reactum, a condition) is elaborated in one pass over
its expression, which appends entities, sites and hyperedges to one set of
lists and constructs one Bigraph at the end: no ion, nest, join or closure
becomes a Bigraph of its own, and a join's operands, which the parser
reads flat, are appended in that pass.  The result equals, entity for
entity, what folding the expression with :mod:`tickgraph.bigraph`'s algebra
gives.
The `init` and `preds` references reuse those values.  Rule and predicate families are
closed over the integer sets named at their use sites in the `rules` and
`preds` lists (an `int` set keeps the first occurrence of each value),
priority classes keep their listed order (first class is highest), and
actions must partition the rule base names.  Both kinds of family stay
symbolic: each rule entry matches its redex, and each predicate family its
body, with bindings restricted to its domains.  A predicate family names
its instances `base_v1_v2...`; one whose body uses parameter arithmetic
cannot bind through it and becomes one plain pattern per valuation.  Every
diagnostic, including a closure `/x` of a name its body does not have,
carries a source position.  :func:`clock_problems` checks an elaborated
model against the digital-clocks discipline.
"""

from __future__ import annotations

from itertools import repeat

from . import lang
from .lang import EClose, EId, EIon, EMerge, ENest, EOne, EPar, IVar
from .bigraph import Bigraph, Control, Link, check_ion, check_nest
from .params import Arith, ParameterLimit, Term, Var, term_eval
from .records import InputError
from .rules import Model, Pattern, RuleEntry, RuleFamily


class ElabError(InputError):
    def __init__(self, msg: str, pos=(0, 0)):
        super().__init__(f"{pos[0]}:{pos[1]}: {msg}")
        self.pos = pos


class _Elaborator:
    def __init__(self, ast):
        self.ast = ast
        self.controls: dict[str, Control] = {}
        self.bigs: dict[str, tuple[lang.BigDecl, Bigraph]] = {}
        self.families: dict[str, RuleFamily] = {}

    def run(self, name: str = "model") -> Model:
        for c in self.ast.controls:
            if c.name in self.controls:
                raise ElabError(f"control {c.name} declared twice", c.pos)
            if len(c.params) > 1:
                raise ElabError(f"control {c.name}: at most one integer parameter", c.pos)
            self.controls[c.name] = Control(
                c.name, c.arity, atomic=c.atomic, parameterised=bool(c.params)
            )
        for b in self.ast.bigs:
            if b.name in self.bigs:
                raise ElabError(f"big {b.name} declared twice", b.pos)
            self.bigs[b.name] = (b, self.eval_big(b.body, {p: Var(p) for p in b.params}))
        for r in self.ast.reacts:
            if r.name in self.families:
                raise ElabError(f"react {r.name} declared twice", r.pos)
            self.families[r.name] = self.family(r)

        abrs = self.ast.abrs
        if abrs is None:
            raise ElabError("no abrs block")
        ints: dict[str, tuple[int, ...]] = {}
        for d in abrs.ints:
            if d.name in ints:
                raise ElabError(f"int {d.name} bound twice", d.pos)
            if not d.values:
                raise ElabError(f"int {d.name} is empty", d.pos)
            ints[d.name] = tuple(dict.fromkeys(d.values))

        if abrs.init_name not in self.bigs:
            raise ElabError(f"init references undefined big {abrs.init_name!r}", abrs.pos)
        init_decl, init = self.bigs[abrs.init_name]
        if init_decl.params:
            raise ElabError(f"init bigraph {abrs.init_name} must not be parameterised", init_decl.pos)
        if not init.is_ground():
            raise ElabError(f"initial bigraph {abrs.init_name} is not ground", init_decl.pos)

        classes: list[list[RuleEntry]] = []
        used_reacts: set[str] = set()
        for cls in abrs.classes:
            entries: list[RuleEntry] = []
            for ref in cls:
                entries.append(self.rule_entry(ref, ints))
                used_reacts.add(ref.name)
            classes.append(entries)
        for rname, fam in self.families.items():
            if rname not in used_reacts:
                raise ElabError(f"rule {rname} is in no priority class", fam.pos)

        actions: list[tuple[str, tuple[str, ...]]] = []
        for a in abrs.actions:
            for rname in a.rules:
                if rname not in self.families:
                    raise ElabError(f"action {a.name} references undefined rule {rname}", a.pos)
            actions.append((a.name, a.rules))

        patterns: list[Pattern] = []
        seen_preds: set[str] = set()
        for ref in abrs.preds:
            fam = self.pred_family(ref, ints)
            names = fam.instance_names()  # distinct, as the values are distinct
            if not seen_preds.isdisjoint(names):
                pname = next(n for n in names if n in seen_preds)
                raise ElabError(f"predicate {pname} defined twice", ref.pos)
            seen_preds.update(names)
            if fam.has_arithmetic:
                patterns.extend(Pattern(n, b) for n, b in fam.instances())
            else:
                patterns.append(fam)

        try:
            return Model(
                controls=self.controls,
                classes=classes,
                actions=actions,
                patterns=patterns,
                init=init,
                name=name,
            )
        except ValueError as exc:
            raise ElabError(str(exc), abrs.pos) from exc

    # -- rule machinery ------------------------------------------------------

    def family(self, decl) -> RuleFamily:
        env = {p: Var(p) for p in decl.params}
        condition = None
        if decl.condition is not None:
            condition = self.eval_big(decl.condition, {})
        try:
            return RuleFamily(
                base=decl.name,
                formal=decl.params,
                redex=self.eval_big(decl.redex, env),
                reactum=self.eval_big(decl.reactum, env),
                weight=decl.weight,
                condition=condition,
                pos=decl.pos,
            )
        except ValueError as exc:
            raise ElabError(str(exc), decl.pos) from exc

    @staticmethod
    def ref_domains(ref, formal, ints, kind: str) -> tuple[tuple[int, ...], ...]:
        """One integer set per formal: a literal argument or a named set."""
        if len(ref.args) != len(formal):
            raise ElabError(
                f"{kind} {ref.name} takes {len(formal)} argument(s), got {len(ref.args)}",
                ref.pos,
            )
        domains = []
        for arg in ref.args:
            if isinstance(arg, int):
                domains.append((arg,))
            elif arg in ints:
                domains.append(ints[arg])
            else:
                raise ElabError(f"undefined int set {arg!r} in {kind} reference", ref.pos)
        return tuple(domains)

    def rule_entry(self, ref, ints) -> RuleEntry:
        if ref.name not in self.families:
            raise ElabError(f"undefined rule {ref.name!r}", ref.pos)
        fam = self.families[ref.name]
        return RuleEntry(fam, self.ref_domains(ref, fam.formal, ints, "rule"))

    def pred_family(self, ref, ints) -> Pattern:
        if ref.name not in self.bigs:
            raise ElabError(f"undefined predicate big {ref.name!r}", ref.pos)
        decl, body = self.bigs[ref.name]
        domains = self.ref_domains(ref, decl.params, ints, "predicate")
        return Pattern(ref.name, body, decl.params, domains)

    # -- bigraph expression evaluation ----------------------------------------

    def eval_iexpr(self, e, env) -> Term:
        # evaluated from an explicit stack, left operands first, so a term's
        # depth costs no Python stack; an operator over two integers folds
        values: list[Term] = []
        todo = [e]  # expressions to evaluate, and (node,) to apply to the last two values
        while todo:
            e = todo.pop()
            if type(e) is tuple:
                node = e[0]
                right = values.pop()
                left = values.pop()
                term = Arith(node.op, left, right)
                if isinstance(left, int) and isinstance(right, int):
                    try:
                        term = term_eval(term, {})
                    except ParameterLimit as exc:
                        raise ElabError(str(exc), node.pos) from exc
                values.append(term)
            elif isinstance(e, lang.IBin):
                todo += ((e,), e.right, e.left)
            elif isinstance(e, int):
                values.append(e)
            elif e.name in env:
                values.append(env[e.name])
            else:
                raise ElabError(f"undefined parameter {e.name!r}", e.pos)
        return values[0]

    def eval_big(self, e, env) -> Bigraph:
        # one pass over an explicit stack, operands left to right, so depth
        # costs no Python stack.  Entities, sites and hyperedges are appended
        # to one set of lists in source order, which is the order the
        # algebra gives them: entities and sites in place-forest pre-order,
        # hyperedges by first port, each hyperedge's ports in source order.
        nodes: list = []  # (Control, param) per entity
        up: list[int] = []  # parent per entity: an entity, or ~r for region r
        site_up: list[int] = []  # parent per site
        nregions = 0
        link_names: list = []  # outer name per hyperedge, None once closed
        link_ports: list[list[tuple[int, int]]] = []
        names: dict[str, int] = {}  # open name -> its hyperedge, in the current scope
        controls = self.controls
        # Each expression comes with the parent of its top-level places: its
        # nest head or its `|`'s one region; None at the top of the body,
        # where each place opens a region.  So every place gets its parent
        # once, when it is made.  A (closure, outer hyperedge) pair restores
        # the name's outer meaning once the body is done, and a (nest,
        # entity) pair raises the nest's error once its child is.
        todo = [(e, None)]
        while todo:
            e, into = todo.pop()
            kind = type(e)
            # a chain of nests is followed down to its last head without the
            # stack; `else` takes any other expression, where the chain ends
            while kind is EIon or kind is ENest:
                head = e if kind is EIon else e.head
                ctrl = controls.get(head.ctrl)
                if ctrl is None:
                    raise ElabError(f"unknown control {head.ctrl!r}", head.pos)
                param = head.param
                if param is None or type(param) is int:
                    pass
                elif type(param) is IVar and param.name in env:
                    param = env[param.name]
                else:
                    param = self.eval_iexpr(param, env)
                ion_names = head.names
                if len(ion_names) != ctrl.arity or (param is None) == ctrl.parameterised:
                    try:
                        check_ion(ctrl, ion_names, param)
                    except ValueError as exc:
                        raise ElabError(str(exc), head.pos) from exc
                i = len(nodes)
                nodes.append((ctrl, param))
                for p, name in enumerate(ion_names):
                    link = names.get(name)
                    if link is None:
                        names[name] = len(link_ports)
                        link_names.append(name)
                        link_ports.append([(i, p)])
                    else:
                        link_ports[link].append((i, p))
                if into is None:
                    up.append(~nregions)
                    nregions += 1
                else:
                    up.append(into)
                if kind is EIon:
                    if not ctrl.atomic:  # an ion's own site
                        site_up.append(i)
                    break
                into = i
                child = e.child
                if ctrl.atomic or (type(child) in _MULTI and _regions(child) != 1):
                    todo.append(((e, i), None))
                e, kind = child, type(child)
            else:
                if kind is EMerge or kind is EPar:
                    if kind is EMerge and into is None:
                        into = ~nregions
                        nregions += 1
                    todo += zip(reversed(e.parts), repeat(into))
                elif kind is EClose:
                    # the name is unbound for the body, whose ports of it form a
                    # new hyperedge; the outer binding waits on the stack
                    todo += (((e, names.pop(e.name, None)), None), (e.body, into))
                elif kind is EId:
                    if into is None:
                        site_up.append(~nregions)
                        nregions += 1
                    else:
                        site_up.append(into)
                elif kind is EOne:
                    if into is None:
                        nregions += 1
                elif kind is tuple:
                    node, x = e
                    if type(node) is ENest:
                        ctrl = nodes[x][0]
                        try:
                            check_nest(0 if ctrl.atomic else 1, _regions(node.child), ctrl)
                        except ValueError as exc:
                            raise ElabError(str(exc), node.pos) from exc
                    # the body's hyperedge of the name is closed; the name
                    # means again what it meant outside
                    name = node.name
                    link = names.pop(name, None)
                    if link is None:
                        raise ElabError(
                            f"/{name}: {name!r} is not an outer name of its body", node.pos
                        )
                    link_names[link] = None
                    if x is not None:
                        names[name] = x
                else:
                    raise TypeError(e)
        links = [Link(name, tuple(ports)) for name, ports in zip(link_names, link_ports)]
        return Bigraph(nodes, up, site_up, nregions, links)


# a nest's child with other than one region is one of these
_MULTI = (EPar, EClose)


def _regions(e) -> int:
    """How many regions `e` has: `||` adds up its operands', a closure has
    its body's, anything else has one.  Only the `||` and closures on top of
    `e` are walked."""
    n, todo = 0, [e]
    while todo:
        e = todo.pop()
        if type(e) is EPar:
            todo += e.parts
        elif type(e) is EClose:
            todo.append(e.body)
        else:
            n += 1
    return n


def elaborate(ast, name: str = "model") -> Model:
    """Turn an AST into a Model; raises ElabError with a source position."""
    return _Elaborator(ast).run(name=name)


def load_model(path) -> Model:
    import os

    ast = lang.parse(lang.read_source(path))
    name = os.path.splitext(os.path.basename(path))[0]
    return elaborate(ast, name=name)


def _advance(param) -> tuple[str, int] | None:
    """(variable, step) when `param` is `Var + step` with a positive step
    once its integer constants are folded: a sum and difference of integers
    and one variable added, such as ``n + 1``, ``1 + n`` or ``n + 1 + 0``.
    A term of any depth is read from an explicit stack."""
    var, step = None, 0
    todo = [(param, 1)]
    while todo:
        term, sign = todo.pop()
        if isinstance(term, int):
            step += sign * term
        elif isinstance(term, Var) and var is None and sign == 1:
            var = term.name
        elif isinstance(term, Arith) and term.op != "*":
            todo += ((term.left, sign), (term.right, sign if term.op == "+" else -sign))
        else:
            return None
    return (var, step) if var is not None and step > 0 else None


def clock_problems(model: Model) -> list[str]:
    """Breaches of the digital-clocks discipline, each with its rule's position.

    The clocks are the controls that the `clock_advance` reactum gives a
    computed parameter.  That tick must advance every clock it holds by the
    same step, from a value its redex binds: ``Var + step`` once integer
    constants are folded (see :func:`_advance`), however it is spelled; any
    other rule may give a clock only a value that a clock of its redex binds
    (keep) or 0 (reset).
    Lockstep over a whole state: the tick's redex must hold as many
    entities of each clock control as the initial state, and no other rule
    may change that number.  A model without `clock_advance` is not checked.
    """
    families = {e.family.base: e.family for cls in model.classes for e in cls}
    tick = families.get("clock_advance")
    if tick is None:
        return []
    clocks = sorted({c.name for c, param in tick.reactum.nodes if isinstance(param, Arith)})
    count = lambda g, name: sum(ctrl.name == name for ctrl, _param in g.nodes)
    problems = []
    for name in clocks:
        ticked, initial = count(tick.redex, name), count(model.init, name)
        if ticked != initial:
            problems.append(
                f"{tick.pos[0]}:{tick.pos[1]}: rule clock_advance: the tick advances "
                f"{ticked} {name} clock(s), the initial state has {initial}"
            )
    for fam in families.values():
        where = f"{fam.pos[0]}:{fam.pos[1]}: rule {fam.base}"
        for name in clocks:
            before, after = count(fam.redex, name), count(fam.reactum, name)
            if fam is not tick and before != after:
                problems.append(
                    f"{where}: changes the number of {name} clocks from {before} to {after}"
                )
        kept = {p.name for c, p in fam.redex.nodes if c.name in clocks and isinstance(p, Var)}
        steps = set()
        for ctrl, param in fam.reactum.nodes:
            if ctrl.name not in clocks:
                continue
            if fam is tick:
                adv = _advance(param)
                if adv and adv[0] in kept:
                    steps.add(adv[1])
                else:
                    problems.append(f"{where}: tick does not advance clock {ctrl.name}({param})")
            elif param != 0 and not (isinstance(param, Var) and param.name in kept):
                problems.append(
                    f"{where}: sets clock {ctrl.name} to {param}; only the tick may "
                    "change a clock other than by keeping it or resetting it to 0"
                )
        if len(steps) > 1:
            problems.append(f"{where}: clocks advance by different steps {sorted(steps)}")
    return problems
