"""Elaboration of a parsed `.big` document into an executable model.

Every `big` and `react` declaration is evaluated and checked once, where it
is declared, whether or not anything uses it: a `big` body with its
parameters as `Var`s, a `react` into its :class:`RuleFamily`.  The `init`
and `preds` references reuse those values.  Rule and predicate families are
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

from . import lang
from .bigraph import Bigraph, Control, close, empty, ion, merge_all, nest, parallel_all, site
from .params import Arith, ParameterLimit, Term, Var, term_eval
from .rules import Model, Pattern, RuleEntry, RuleFamily


class ElabError(Exception):
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
            for pname in fam.instance_names():
                if pname in seen_preds:
                    raise ElabError(f"predicate {pname} defined twice", ref.pos)
                seen_preds.add(pname)
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
        if isinstance(e, int):
            return e
        if isinstance(e, lang.IVar):
            if e.name not in env:
                raise ElabError(f"undefined parameter {e.name!r}", e.pos)
            return env[e.name]
        term = Arith(e.op, self.eval_iexpr(e.left, env), self.eval_iexpr(e.right, env))
        if isinstance(term.left, int) and isinstance(term.right, int):
            try:
                return term_eval(term, {})
            except ParameterLimit as exc:
                raise ElabError(str(exc), e.pos) from exc
        return term

    def eval_big(self, e, env) -> Bigraph:
        if isinstance(e, lang.EId):
            return site()
        if isinstance(e, lang.EOne):
            return empty()
        if isinstance(e, lang.EIon):
            return self.eval_ion(e, env)
        if isinstance(e, lang.ENest):
            outer = self.eval_ion(e.head, env)
            inner = self.eval_big(e.child, env)
            try:
                return nest(outer, inner)
            except ValueError as exc:
                raise ElabError(str(exc), e.pos) from exc
        if isinstance(e, lang.EMerge):
            return merge_all([self.eval_big(p, env) for p in e.parts])
        if isinstance(e, lang.EPar):
            return parallel_all([self.eval_big(p, env) for p in e.parts])
        if isinstance(e, lang.EClose):
            body = self.eval_big(e.body, env)
            if e.name not in body.outer_names():
                raise ElabError(f"/{e.name}: {e.name!r} is not an outer name of its body", e.pos)
            return close(e.name, body)
        raise TypeError(e)

    def eval_ion(self, e, env) -> Bigraph:
        if e.ctrl not in self.controls:
            raise ElabError(f"unknown control {e.ctrl!r}", e.pos)
        param = None if e.param is None else self.eval_iexpr(e.param, env)
        try:
            return ion(self.controls[e.ctrl], e.names, param=param)
        except ValueError as exc:
            raise ElabError(str(exc), e.pos) from exc


def elaborate(ast, name: str = "model") -> Model:
    """Turn an AST into a Model; raises ElabError with a source position."""
    return _Elaborator(ast).run(name=name)


def load_model(path) -> Model:
    import os

    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    ast = lang.parse(text)
    name = os.path.splitext(os.path.basename(path))[0]
    return elaborate(ast, name=name)


def _advance(param) -> tuple[str, int] | None:
    """(variable, step) when `param` is `Var + step` with a positive step."""
    if (
        isinstance(param, Arith)
        and param.op == "+"
        and isinstance(param.left, Var)
        and isinstance(param.right, int)
        and param.right > 0
    ):
        return param.left.name, param.right
    return None


def clock_problems(model: Model) -> list[str]:
    """Breaches of the digital-clocks discipline, each with its rule's position.

    The clocks are the controls that the `clock_advance` reactum gives a
    `Var + step` parameter.  That tick must advance every clock it holds by
    the same step, from a value its redex binds; any other rule may give a
    clock only a value that a clock of its redex binds (keep) or 0 (reset).
    Lockstep over a whole state: the tick's redex must hold as many
    entities of each clock control as the initial state, and no other rule
    may change that number.  A model without `clock_advance` is not checked.
    """
    families = {e.family.base: e.family for cls in model.classes for e in cls}
    tick = families.get("clock_advance")
    if tick is None:
        return []
    clocks = sorted({ctrl.name for ctrl, param in tick.reactum.nodes if _advance(param)})
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
