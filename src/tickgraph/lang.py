"""The two input languages, `.big` models and `.props` properties: one
lexer, the ASTs and one parser.

A `.big` document holds controls, bigraph definitions, weighted reaction
rules (optionally with a negative context condition) and one `begin abrs
... end` block with integer set bindings, the initial bigraph, ordered
priority classes, the action map and the predicate set.  Bigraph
expressions use ion `K(e){a,b}`, nesting `.` (tightest), merge `|`,
parallel `||` (loosest), prefix closure `/x` scoping rightward, `id` for a
site, `1` for the empty bigraph, and parentheses.  The parser checks syntax
only; `elaborate` resolves names and checks every declaration.

A `.props` document holds one property per line over label expressions of
quoted pattern names (see :func:`parse_properties`).  In both languages `#`
starts a comment and every error is a :class:`ParseError` carrying its
`line:col`.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, TypeVar

from .records import Record

KEYWORDS = {
    "atomic", "fun", "ctrl", "react", "big", "begin", "end", "abrs",
    "int", "init", "rules", "actions", "preds", "if", "in", "ctx", "id",
}

# The alternatives are tried in order: a FLOAT before an INT, each operator
# before its prefixes.  `\d` is a decimal digit, which `int` and `float`
# accept.  Identifiers are ASCII: canonical forms, and so cache files, spell
# control names in ASCII.
_TOKEN = re.compile(
    r"""
      (?P<SKIP>[ \t\r]+|\#[^\n]*)
    | (?P<NEWLINE>\n)
    | (?P<FLOAT>\d+\.\d+)
    | (?P<INT>\d+)
    | (?P<STRING>"[^"\n]*")
    | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<PUNCT>\|\||-\[|\]->|->|<=|>=|[{}()\[\]=;,.|/+\-*!<>&])
    """,
    re.VERBOSE,
)


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int, expected: tuple[str, ...] = ()):
        loc = f"{line}:{col}"
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{loc}: {msg}{hint}")
        self.line = line
        self.col = col
        self.expected = expected


class Token(Record):
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # IDENT KEYWORD INT FLOAT STRING PUNCT EOF
        self.text = text
        self.line = line
        self.col = col


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    pos = end = 0  # end: where the EOF token sits, at the '#' of a final comment
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            if text[pos] == '"':
                raise ParseError("unterminated string", line, col)
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind, word = m.lastgroup, m.group()
        end = pos if word[0] == "#" else m.end()
        pos = m.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
        elif kind == "WORD":
            toks.append(Token("KEYWORD" if word in KEYWORDS else "IDENT", word, line, col))
        elif kind != "SKIP":
            toks.append(Token(kind, word, line, col))
    toks.append(Token("EOF", "", line, end - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# AST

Pos = tuple[int, int]
NOPOS: Pos = (0, 0)


class _Node(Record):
    """An AST node: its fields, then its source position, which equality
    and hashing ignore (the same text parses to equal ASTs wherever it
    sits)."""

    __slots__ = ()
    _ignore = ("pos",)


class IVar(_Node):
    __slots__ = ("name", "pos")

    def __init__(self, name: str, pos: Pos = NOPOS):
        self.name = name
        self.pos = pos


class IBin(_Node):
    __slots__ = ("op", "left", "right", "pos")

    def __init__(self, op: str, left: IExpr, right: IExpr, pos: Pos = NOPOS):
        self.op = op
        self.left = left
        self.right = right
        self.pos = pos


IExpr = int | IVar | IBin


class EId(_Node):
    __slots__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        self.pos = pos


class EOne(_Node):
    __slots__ = ("pos",)

    def __init__(self, pos: Pos = NOPOS):
        self.pos = pos


class EIon(_Node):
    __slots__ = ("ctrl", "param", "names", "pos")

    def __init__(self, ctrl: str, param: IExpr | None, names: tuple[str, ...], pos: Pos = NOPOS):
        self.ctrl = ctrl
        self.param = param
        self.names = names
        self.pos = pos


class ENest(_Node):
    __slots__ = ("head", "child", "pos")

    def __init__(self, head: EIon, child: BExpr, pos: Pos = NOPOS):
        self.head = head
        self.child = child
        self.pos = pos


class EMerge(_Node):
    __slots__ = ("parts", "pos")

    def __init__(self, parts: tuple[BExpr, ...], pos: Pos = NOPOS):
        self.parts = parts
        self.pos = pos


class EPar(_Node):
    __slots__ = ("parts", "pos")

    def __init__(self, parts: tuple[BExpr, ...], pos: Pos = NOPOS):
        self.parts = parts
        self.pos = pos


class EClose(_Node):
    __slots__ = ("name", "body", "pos")

    def __init__(self, name: str, body: BExpr, pos: Pos = NOPOS):
        self.name = name
        self.body = body
        self.pos = pos


BExpr = EId | EOne | EIon | ENest | EMerge | EPar | EClose


class CtrlDecl(_Node):
    __slots__ = ("name", "params", "arity", "atomic", "pos")

    def __init__(self, name: str, params: tuple[str, ...], arity: int, atomic: bool,
                 pos: Pos = NOPOS):
        self.name = name
        self.params = params
        self.arity = arity
        self.atomic = atomic
        self.pos = pos


class BigDecl(_Node):
    __slots__ = ("name", "params", "body", "pos")

    def __init__(self, name: str, params: tuple[str, ...], body: BExpr, pos: Pos = NOPOS):
        self.name = name
        self.params = params
        self.body = body
        self.pos = pos


class ReactDecl(_Node):
    __slots__ = ("name", "params", "redex", "weight", "reactum", "condition", "pos")

    def __init__(self, name: str, params: tuple[str, ...], redex: BExpr, weight: float,
                 reactum: BExpr, condition: BExpr | None, pos: Pos = NOPOS):
        self.name = name
        self.params = params
        self.redex = redex
        self.weight = weight
        self.reactum = reactum
        self.condition = condition
        self.pos = pos


class IntDecl(_Node):
    __slots__ = ("name", "values", "pos")

    def __init__(self, name: str, values: tuple[int, ...], pos: Pos = NOPOS):
        self.name = name
        self.values = values
        self.pos = pos


class RuleRef(_Node):
    __slots__ = ("name", "args", "pos")

    def __init__(self, name: str, args: tuple[int | str, ...], pos: Pos = NOPOS):
        self.name = name
        self.args = args
        self.pos = pos


class ActionDecl(_Node):
    __slots__ = ("name", "rules", "pos")

    def __init__(self, name: str, rules: tuple[str, ...], pos: Pos = NOPOS):
        self.name = name
        self.rules = rules
        self.pos = pos


class AbrsBlock(_Node):
    __slots__ = ("ints", "init_name", "classes", "actions", "preds", "pos")

    def __init__(self, ints: tuple[IntDecl, ...], init_name: str,
                 classes: tuple[tuple[RuleRef, ...], ...], actions: tuple[ActionDecl, ...],
                 preds: tuple[RuleRef, ...], pos: Pos = NOPOS):
        self.ints = ints
        self.init_name = init_name
        self.classes = classes
        self.actions = actions
        self.preds = preds
        self.pos = pos


class Ast(Record):
    __slots__ = ("controls", "bigs", "reacts", "abrs")

    def __init__(self, controls: tuple[CtrlDecl, ...], bigs: tuple[BigDecl, ...],
                 reacts: tuple[ReactDecl, ...], abrs: AbrsBlock | None):
        self.controls = controls
        self.bigs = bigs
        self.reacts = reacts
        self.abrs = abrs


# Properties.  A label expression is ("name", s) | ("not", e) | ("and", a, b)
# | ("or", a, b); `source` is the property's text on its line.


class Reach(Record):
    __slots__ = ("bound", "p", "target", "mode", "source")

    def __init__(self, bound: str, p: float, target: tuple, mode: str, source: str = ""):
        self.bound = bound  # one of >= > <= <
        self.p = p
        self.target = target
        self.mode = mode  # min or max
        self.source = source


class Safety(Record):
    __slots__ = ("bad", "source")

    def __init__(self, bad: tuple, source: str = ""):
        self.bad = bad
        self.source = source


class Inevitable(Record):
    __slots__ = ("goal", "source")

    def __init__(self, goal: tuple, source: str = ""):
        self.goal = goal
        self.source = source


class ForcedNext(Record):
    __slots__ = ("trigger", "next", "source")

    def __init__(self, trigger: tuple, next: tuple, source: str = ""):
        self.trigger = trigger
        self.next = next
        self.source = source


Property = Reach | Safety | Inevitable | ForcedNext


# ---------------------------------------------------------------------------
# parser


_T = TypeVar("_T")


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def at(self, text: str) -> bool:
        return self.cur.text == text  # a STRING's text keeps its quotes

    def bump(self) -> Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        if not self.at(text):
            self.unexpected(text)
        return self.bump()

    def ident(self, what="identifier") -> Token:
        if self.cur.kind != "IDENT":
            self.unexpected(what)
        return self.bump()

    def integer(self) -> int:
        """The value of the current INT token, which is consumed."""
        try:
            value = int(self.cur.text)
        except ValueError:  # more digits than the interpreter converts
            self.fail(f"integer literal of {len(self.cur.text)} digits is too long")
        self.bump()
        return value

    def fail(self, msg: str, expected: tuple[str, ...] = ()):
        raise ParseError(msg, self.cur.line, self.cur.col, expected)

    def unexpected(self, *expected: str):
        self.fail(f"found {self.cur.text or 'end of input'!r}", expected)

    def commas(self, item: Callable[[], _T]) -> list[_T]:
        """item (',' item)*"""
        items = [item()]
        while self.at(","):
            self.bump()
            items.append(item())
        return items

    # -- declarations -------------------------------------------------------

    def program(self) -> Ast:
        controls: list[CtrlDecl] = []
        bigs: list[BigDecl] = []
        reacts: list[ReactDecl] = []
        abrs: AbrsBlock | None = None
        while self.cur.kind != "EOF":
            tok = self.cur
            atomic = False
            funny = False
            if self.at("atomic"):
                atomic = True
                self.bump()
            if self.at("fun"):
                funny = True
                self.bump()
            if self.at("ctrl"):
                controls.append(self.ctrl_decl(atomic, funny, (tok.line, tok.col)))
            elif self.at("big"):
                if atomic:
                    self.fail("'atomic' only applies to controls")
                bigs.append(self.big_decl(funny, (tok.line, tok.col)))
            elif self.at("react"):
                if atomic:
                    self.fail("'atomic' only applies to controls")
                reacts.append(self.react_decl(funny, (tok.line, tok.col)))
            elif self.at("begin"):
                if atomic or funny:
                    self.fail("unexpected modifier before 'begin'")
                if abrs is not None:
                    self.fail("duplicate abrs block")
                abrs = self.abrs_block()
            else:
                self.unexpected("ctrl", "big", "react", "begin abrs")
        return Ast(tuple(controls), tuple(bigs), tuple(reacts), abrs)

    def _formals(self) -> tuple[str, ...]:
        if not self.at("("):
            return ()
        self.bump()
        names = self.commas(lambda: self.ident("parameter name").text)
        self.expect(")")
        return tuple(names)

    def ctrl_decl(self, atomic: bool, funny: bool, pos: Pos) -> CtrlDecl:
        self.expect("ctrl")
        name = self.ident("control name")
        params = self._formals()
        if funny and not params:
            self.fail(f"fun ctrl {name.text} needs a parameter list")
        if not funny and params:
            self.fail(f"ctrl {name.text} with parameters must be declared 'fun ctrl'")
        self.expect("=")
        if self.cur.kind != "INT":
            self.fail("arity must be an integer", ("integer",))
        arity = self.integer()
        self.expect(";")
        return CtrlDecl(name.text, params, arity, atomic, pos)

    def big_decl(self, funny: bool, pos: Pos) -> BigDecl:
        self.expect("big")
        name = self.ident("bigraph name")
        params = self._formals() if funny else ()
        self.expect("=")
        body = self.bexpr()
        self.expect(";")
        return BigDecl(name.text, params, body, pos)

    def react_decl(self, funny: bool, pos: Pos) -> ReactDecl:
        self.expect("react")
        name = self.ident("rule name")
        params = self._formals() if funny else ()
        self.expect("=")
        redex = self.bexpr()
        self.expect("-[")
        weight = self.number()
        self.expect("]->")
        reactum = self.bexpr()
        condition = None
        if self.at("if"):
            self.bump()
            self.expect("!")
            condition = self.bexpr()
            self.expect("in")
            self.expect("ctx")
        self.expect(";")
        return ReactDecl(name.text, params, redex, weight, reactum, condition, pos)

    def number(self) -> float:
        if self.cur.kind not in ("INT", "FLOAT"):
            self.fail("expected a numeric weight", ("number",))
        return float(self.bump().text)

    # -- abrs block ----------------------------------------------------------

    def abrs_block(self) -> AbrsBlock:
        pos = (self.cur.line, self.cur.col)
        self.expect("begin")
        self.expect("abrs")
        ints: list[IntDecl] = []
        init_name = None
        classes = None
        actions = None
        preds = None
        while not self.at("end"):
            if self.cur.kind == "EOF":
                self.fail("abrs block not closed", ("end",))
            if self.at("int"):
                ints.append(self.int_decl())
            elif self.at("init"):
                self.bump()
                init_name = self.ident("initial bigraph name").text
                self.expect(";")
            elif self.at("rules"):
                self.bump()
                self.expect("=")
                self.expect("[")
                classes = self.commas(self.rule_class)
                self.expect("]")
                self.expect(";")
            elif self.at("actions"):
                self.bump()
                self.expect("=")
                self.expect("[")
                actions = self.commas(self.action_decl)
                self.expect("]")
                self.expect(";")
            elif self.at("preds"):
                self.bump()
                self.expect("=")
                self.expect("{")
                preds = self.commas(self.rule_ref)
                self.expect("}")
                self.expect(";")
            else:
                self.unexpected("int", "init", "rules", "actions", "preds", "end")
        self.expect("end")
        if init_name is None:
            self.fail("abrs block has no init")
        if classes is None:
            self.fail("abrs block has no rules")
        if actions is None:
            self.fail("abrs block has no actions")
        return AbrsBlock(
            tuple(ints),
            init_name,
            tuple(tuple(c) for c in classes),
            tuple(actions),
            tuple(preds or ()),
            pos,
        )

    def int_decl(self) -> IntDecl:
        pos = (self.cur.line, self.cur.col)
        self.expect("int")
        name = self.ident("int binding name").text
        self.expect("=")
        values: list[int] = []
        if self.at("{"):
            self.bump()
            if not self.at("}"):
                values = self.commas(self.int_lit)
            self.expect("}")
        else:
            values.append(self.int_lit())
        self.expect(";")
        return IntDecl(name, tuple(values), pos)

    def int_lit(self) -> int:
        if self.cur.kind != "INT":
            self.fail("expected an integer", ("integer",))
        return self.integer()

    def rule_class(self) -> list[RuleRef]:
        self.expect("{")
        refs = self.commas(self.rule_ref)
        self.expect("}")
        return refs

    def rule_ref(self) -> RuleRef:
        tok = self.ident("rule name")
        args: list[int | str] = []
        if self.at("("):
            self.bump()
            args = self.commas(self.ref_arg)
            self.expect(")")
        return RuleRef(tok.text, tuple(args), (tok.line, tok.col))

    def ref_arg(self) -> int | str:
        if self.cur.kind == "INT":
            return self.integer()
        return self.ident("int binding or literal").text

    def action_decl(self) -> ActionDecl:
        tok = self.ident("action name")
        self.expect("=")
        self.expect("{")
        rules = self.commas(lambda: self.ident("rule name").text)
        self.expect("}")
        return ActionDecl(tok.text, tuple(rules), (tok.line, tok.col))

    # -- bigraph expressions --------------------------------------------------
    # bexpr := ('/' name)* par ; par := mer ('||' mer)* ; mer := prim ('|' prim)*
    # prim := 'id' | '1' | '(' bexpr ')' | ion ['.' prim]

    # Both expression languages are read in one loop each, as `lexpr` reads
    # properties: a '(' saves the enclosing expression's unfinished parts on
    # an explicit stack and its ')' restores them, and chains of closures
    # and of nestings are folded from the right, so no nesting is bounded by
    # the recursion limit.

    def closures(self) -> list[tuple[str, Pos]]:
        """('/' name)*, with each '/' position."""
        closes = []
        while self.at("/"):
            pos = (self.cur.line, self.cur.col)
            self.bump()
            closes.append((self.ident("link name").text, pos))
        return closes

    def bexpr(self) -> BExpr:
        frames = []  # per open '(': the closures, parts and nest heads around it
        closes, pars, mers, heads = self.closures(), [], [], []
        par_pos = mer_pos = (self.cur.line, self.cur.col)
        while True:
            if self.at("id"):
                tok = self.bump()
                e = EId((tok.line, tok.col))
            elif self.cur.kind == "INT" and self.cur.text == "1":
                tok = self.bump()
                e = EOne((tok.line, tok.col))
            elif self.at("("):
                self.bump()
                frames.append((closes, par_pos, pars, mer_pos, mers, heads))
                closes, pars, mers, heads = self.closures(), [], [], []
                par_pos = mer_pos = (self.cur.line, self.cur.col)
                continue
            else:
                e = self.ion()
                if self.at("."):
                    heads.append((e, (self.cur.line, self.cur.col)))
                    self.bump()
                    continue
            # a whole prim: join it to the chains, closing each ')' that ends them
            while True:
                for ion, pos in reversed(heads):
                    e = ENest(ion, e, pos)
                heads = []
                mers.append(e)
                if self.at("|"):
                    break
                pars.append(mers[0] if len(mers) == 1 else EMerge(tuple(mers), mer_pos))
                mers = []
                if self.at("||"):
                    break
                e = pars[0] if len(pars) == 1 else EPar(tuple(pars), par_pos)
                for name, pos in reversed(closes):
                    e = EClose(name, e, pos)
                if not frames:
                    return e
                self.expect(")")
                closes, par_pos, pars, mer_pos, mers, heads = frames.pop()
            self.bump()
            if not mers:  # a new mer starts after '||'
                mer_pos = (self.cur.line, self.cur.col)

    def ion(self) -> EIon:
        tok = self.ident("control name")
        param = None
        if self.at("("):
            self.bump()
            param = self.iexpr()
            self.expect(")")
        names: tuple[str, ...] = ()
        if self.at("{"):
            self.bump()
            names = tuple(self.commas(lambda: self.ident("link name").text))
            self.expect("}")
        return EIon(tok.text, param, names, (tok.line, tok.col))

    # -- integer expressions ---------------------------------------------------
    # iexpr := iterm (('+' | '-') iterm)* ; iterm := ifactor ('*' ifactor)*
    # ifactor := integer | parameter | '(' iexpr ')'

    def iexpr(self) -> IExpr:
        frames = []  # per open '(': the sum and the product around it
        # (left operand, operator, its position) awaiting a right operand
        total = product = None
        while True:
            if self.cur.kind == "INT":
                e = self.integer()
            elif self.cur.kind == "IDENT":
                tok = self.bump()
                e = IVar(tok.text, (tok.line, tok.col))
            elif self.at("("):
                self.bump()
                frames.append((total, product))
                total = product = None
                continue
            else:
                self.fail("expected an integer expression", ("integer", "parameter", "("))
            # a whole ifactor: join it to the chains, closing each ')' that ends them
            while True:
                if product is not None:
                    e = IBin(product[1], product[0], e, product[2])
                    product = None
                if self.at("*"):
                    op = self.bump()
                    product = (e, op.text, (op.line, op.col))
                    break
                if total is not None:
                    e = IBin(total[1], total[0], e, total[2])
                    total = None
                if self.at("+") or self.at("-"):
                    op = self.bump()
                    total = (e, op.text, (op.line, op.col))
                    break
                if not frames:
                    return e
                self.expect(")")
                total, product = frames.pop()

    # -- properties -------------------------------------------------------------
    # prop := 'P' bound prob '[' 'F' lexpr ']' | 'E' '[' 'F' lexpr ']'
    #       | 'A' '[' ('F' lexpr | 'G' '!' lfactor) ']' | 'FORCEDNEXT' lexpr '->' lexpr
    # lexpr := lterm ('|' lterm)* ; lterm := lfactor ('&' lfactor)*
    # lfactor := '!' lfactor | '(' lexpr ')' | string   (all read by `lexpr`)

    def prop(self, source: str) -> Property:
        if self.at("P"):
            self.bump()
            if self.cur.text not in (">=", ">", "<=", "<"):
                self.unexpected(">=", ">", "<=", "<")
            bound = self.bump().text
            if self.cur.kind not in ("INT", "FLOAT"):
                self.unexpected("probability")
            if float(self.cur.text) > 1.0:
                self.fail(f"probability bound {self.cur.text} is outside [0, 1]")
            p = float(self.bump().text)
            prop = Reach(bound, p, self.eventually(), "min" if bound[0] == ">" else "max", source)
        elif self.at("E"):
            self.bump()
            # E F phi  <=>  Pmax(F phi) > 0
            prop = Reach(">", 0.0, self.eventually(), "max", source)
        elif self.at("A"):
            self.bump()
            self.expect("[")
            if self.at("G"):
                self.bump()
                if not self.at("!"):
                    self.fail("A [ G ... ] takes a negated expression", ("!",))
                self.bump()
                prop = Safety(self.lexpr(factor=True), source)
            else:
                if not self.at("F"):
                    self.unexpected("F", "G")
                self.bump()
                prop = Inevitable(self.lexpr(), source)
            self.expect("]")
        elif self.at("FORCEDNEXT"):
            self.bump()
            trigger = self.lexpr()
            self.expect("->")
            prop = ForcedNext(trigger, self.lexpr(), source)
        else:
            self.unexpected("P", "E", "A", "FORCEDNEXT")
        if self.cur.kind != "EOF":
            self.fail(f"trailing input {self.cur.text!r}")
        return prop

    def eventually(self) -> tuple:
        self.expect("[")
        self.expect("F")
        e = self.lexpr()
        self.expect("]")
        return e

    def lexpr(self, factor: bool = False) -> tuple:
        """An lexpr, or with `factor` an lfactor.  Parentheses open frames on
        an explicit stack, so their nesting costs no Python stack; a run of
        `!` is counted and folded from the right."""
        frames = []  # per open '(': the `!` before it, and the `|` and `&` chains around it
        ors = ands = None
        while True:
            nots = 0
            while self.at("!"):
                self.bump()
                nots += 1
            if self.at("("):
                self.bump()
                frames.append((nots, ors, ands))
                ors = ands = None
                continue
            if self.cur.kind != "STRING":
                self.unexpected("quoted pattern name")
            e = ("name", self.bump().text[1:-1])
            # a whole factor: join it to the chains, closing each ')' that ends them
            while True:
                for _ in range(nots):
                    e = ("not", e)
                if factor and not frames:
                    return e
                ands = e if ands is None else ("and", ands, e)
                if self.at("&"):
                    break
                ors = ands if ors is None else ("or", ors, ands)
                ands = None
                if self.at("|"):
                    break
                if not frames:
                    return ors
                self.expect(")")
                e = ors
                nots, ors, ands = frames.pop()
            self.bump()


def read_source(path) -> str:
    """The text of a `.big` or `.props` file, which must be UTF-8, with line
    ends read as ``open`` reads them in text mode.  A byte that is not UTF-8
    raises a :class:`ParseError` naming the file and the byte's offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = exc.start
        line = data.count(b"\n", 0, at) + 1
        col = at - data.rfind(b"\n", 0, at)
        raise ParseError(
            f"{path}: byte {at} (0x{data[at]:02x}) is not UTF-8", line, col
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse(text: str) -> Ast:
    """Parse a `.big` document into an AST with source positions."""
    return _Parser(tokenize(text)).program()


def parse_properties(text: str) -> list[Property]:
    """Parse a `.props` document: one property per line, blank lines and `#`
    comments skipped.  Each property's `source` is its line's text from its
    first token to its last."""
    lines = text.split("\n")
    props = []
    for line, group in itertools.groupby(tokenize(text)[:-1], key=lambda t: t.line):
        toks = list(group)
        end = toks[-1].col + len(toks[-1].text)
        source = lines[line - 1][toks[0].col - 1 : end - 1]
        props.append(_Parser(toks + [Token("EOF", "", line, end)]).prop(source))
    return props
