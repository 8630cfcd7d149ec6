"""Elaboration of a parsed `.big` document into an executable model.

Rule and predicate families are closed over the integer sets named at
their use sites in the `rules` and `preds` lists, priority classes keep
their listed order (first class is highest), and actions must partition
the rule base names.  Both kinds of family stay symbolic: each rule entry
matches its redex, and each predicate family its body, with bindings
restricted to its domains.  A predicate family names its instances
`base_v1_v2...`; one whose body uses parameter arithmetic cannot bind
through it and becomes one plain pattern per valuation.  Every diagnostic
carries a source position.  :func:`clock_problems` checks an elaborated
model against the digital-clocks discipline.
"""

from __future__ import annotations

from . import lang
from .bigraph import Bigraph, Control, close, empty, ion, merge_all, nest, parallel_all, site
from .params import Arith, Term, Var
from .rules import Model, Pattern, RuleEntry, RuleFamily


class ElabError(Exception):
    def __init__(self, msg: str, pos=(0, 0)):
        super().__init__(f"{pos[0]}:{pos[1]}: {msg}")
        self.pos = pos


def _fold(term: Term) -> Term:
    if isinstance(term, Arith):
        left, right = _fold(term.left), _fold(term.right)
        if isinstance(left, int) and isinstance(right, int):
            return {"+": left + right, "-": left - right, "*": left * right}[term.op]
        return Arith(term.op, left, right)
    return term


class _Elaborator:
    def __init__(self, ast):
        self.ast = ast
        self.controls: dict[str, Control] = {}
        self.bigs = {}
        self.reacts = {}
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
            self.bigs[b.name] = b
            self.check_expr(b.body, set(b.params))
        for r in self.ast.reacts:
            if r.name in self.reacts:
                raise ElabError(f"react {r.name} declared twice", r.pos)
            self.reacts[r.name] = r
            self.check_expr(r.redex, set(r.params))
            self.check_expr(r.reactum, set(r.params))
            if r.condition is not None:
                self.check_expr(r.condition, set())

        abrs = self.ast.abrs
        if abrs is None:
            raise ElabError("no abrs block")
        ints: dict[str, tuple[int, ...]] = {}
        for d in abrs.ints:
            if d.name in ints:
                raise ElabError(f"int {d.name} bound twice", d.pos)
            if not d.values:
                raise ElabError(f"int {d.name} is empty", d.pos)
            ints[d.name] = d.values

        if abrs.init_name not in self.bigs:
            raise ElabError(f"init references undefined big {abrs.init_name!r}", abrs.pos)
        init_decl = self.bigs[abrs.init_name]
        if init_decl.params:
            raise ElabError(f"init bigraph {abrs.init_name} must not be parameterised", init_decl.pos)
        init = self.eval_big(init_decl.body, {}, symbolic=False)
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
        for rname, decl in self.reacts.items():
            if rname not in used_reacts:
                raise ElabError(f"rule {rname} is in no priority class", decl.pos)

        actions: list[tuple[str, tuple[str, ...]]] = []
        for a in abrs.actions:
            for rname in a.rules:
                if rname not in self.reacts:
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

    def family(self, name: str) -> RuleFamily:
        if name in self.families:
            return self.families[name]
        decl = self.reacts[name]
        env = {p: Var(p) for p in decl.params}
        redex = self.eval_big(decl.redex, env, symbolic=True)
        for _ctrl, param in redex.nodes:
            if isinstance(param, Arith):
                raise ElabError(
                    f"rule {name}: parameter arithmetic is only allowed in reactums", decl.pos
                )
        reactum = self.eval_big(decl.reactum, env, symbolic=True)
        condition = None
        if decl.condition is not None:
            condition = self.eval_big(decl.condition, {}, symbolic=False)
        try:
            fam = RuleFamily(
                base=name,
                formal=decl.params,
                redex=redex,
                reactum=reactum,
                weight=decl.weight,
                condition=condition,
                pos=decl.pos,
            )
        except ValueError as exc:
            raise ElabError(f"rule {name}: {exc}", decl.pos) from exc
        self.families[name] = fam
        return fam

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
        if ref.name not in self.reacts:
            raise ElabError(f"undefined rule {ref.name!r}", ref.pos)
        fam = self.family(ref.name)
        return RuleEntry(fam, self.ref_domains(ref, fam.formal, ints, "rule"))

    def pred_family(self, ref, ints) -> Pattern:
        if ref.name not in self.bigs:
            raise ElabError(f"undefined predicate big {ref.name!r}", ref.pos)
        decl = self.bigs[ref.name]
        domains = self.ref_domains(ref, decl.params, ints, "predicate")
        body = self.eval_big(decl.body, {p: Var(p) for p in decl.params}, symbolic=True)
        return Pattern(ref.name, body, decl.params, domains)

    # -- bigraph expression evaluation ----------------------------------------

    def check_expr(self, e, params: set[str]):
        """Structural pass over a declaration body: every control resolves,
        name counts match arities, parameters are declared formals."""
        if isinstance(e, lang.EIon):
            if e.ctrl not in self.controls:
                raise ElabError(f"unknown control {e.ctrl!r}", e.pos)
            ctrl = self.controls[e.ctrl]
            if len(e.names) != ctrl.arity:
                raise ElabError(
                    f"{e.ctrl}: {len(e.names)} link name(s), arity is {ctrl.arity}", e.pos
                )
            if ctrl.parameterised and e.param is None:
                raise ElabError(f"{e.ctrl} requires an integer parameter", e.pos)
            if not ctrl.parameterised and e.param is not None:
                raise ElabError(f"{e.ctrl} takes no parameter", e.pos)
            if e.param is not None:
                self.check_iexpr(e.param, params)
        elif isinstance(e, lang.ENest):
            self.check_expr(e.head, params)
            self.check_expr(e.child, params)
        elif isinstance(e, (lang.EMerge, lang.EPar)):
            for p in e.parts:
                self.check_expr(p, params)
        elif isinstance(e, lang.EClose):
            self.check_expr(e.body, params)

    def check_iexpr(self, e, params: set[str]):
        if isinstance(e, lang.IVar):
            if e.name not in params:
                raise ElabError(f"undefined parameter {e.name!r}", e.pos)
        elif isinstance(e, lang.IBin):
            self.check_iexpr(e.left, params)
            self.check_iexpr(e.right, params)

    def eval_iexpr(self, e, env) -> Term:
        if isinstance(e, int):
            return e
        if isinstance(e, lang.IVar):
            if e.name not in env:
                raise ElabError(f"undefined parameter {e.name!r}", e.pos)
            return env[e.name]
        left = self.eval_iexpr(e.left, env)
        right = self.eval_iexpr(e.right, env)
        return _fold(Arith(e.op, left, right))

    def eval_big(self, e, env, symbolic: bool) -> Bigraph:
        if isinstance(e, lang.EId):
            return site()
        if isinstance(e, lang.EOne):
            return empty()
        if isinstance(e, lang.EIon):
            return self.eval_ion(e, env, symbolic)
        if isinstance(e, lang.ENest):
            outer = self.eval_ion(e.head, env, symbolic)
            inner = self.eval_big(e.child, env, symbolic)
            try:
                return nest(outer, inner)
            except ValueError as exc:
                raise ElabError(str(exc), e.pos) from exc
        if isinstance(e, lang.EMerge):
            return merge_all([self.eval_big(p, env, symbolic) for p in e.parts])
        if isinstance(e, lang.EPar):
            return parallel_all([self.eval_big(p, env, symbolic) for p in e.parts])
        if isinstance(e, lang.EClose):
            return close(e.name, self.eval_big(e.body, env, symbolic))
        raise TypeError(e)

    def eval_ion(self, e, env, symbolic: bool) -> Bigraph:
        if e.ctrl not in self.controls:
            raise ElabError(f"unknown control {e.ctrl!r}", e.pos)
        ctrl = self.controls[e.ctrl]
        param = None
        if e.param is not None:
            param = self.eval_iexpr(e.param, env)
            if not symbolic and not isinstance(param, int):
                raise ElabError(f"parameter of {e.ctrl} must be a concrete integer here", e.pos)
        try:
            return ion(ctrl, e.names, param=param)
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
    A model without `clock_advance` is not checked.
    """
    families = {e.family.base: e.family for cls in model.classes for e in cls}
    tick = families.get("clock_advance")
    if tick is None:
        return []
    clocks = {ctrl.name for ctrl, param in tick.reactum.nodes if _advance(param)}
    problems = []
    for fam in families.values():
        where = f"{fam.pos[0]}:{fam.pos[1]}: rule {fam.base}"
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
