"""The two input languages, `.big` models and `.props` properties: one
lexer, the ASTs and one parser.

A `.big` document holds controls, bigraph definitions, weighted reaction
rules (optionally with a negative context condition) and one `begin abrs
... end` block with integer set bindings, the initial bigraph, ordered
priority classes, the action map and the predicate set.  Bigraph
expressions use ion `K(e){a,b}`, nesting `.` (tightest), merge `|`,
parallel `||` (loosest), prefix closure `/x` scoping rightward, `id` for a
site, `1` for the empty bigraph, and parentheses.  Joins are read flat:
`(A | B) | C` and `A | (B | C)` parse as `A | B | C`, and likewise for `||`.
The parser checks syntax only; `elaborate` resolves names and checks every
declaration.

A `.props` document holds one property per line over label expressions of
quoted pattern names (see :func:`parse_properties`).  In both languages `#`
starts a comment and every error is a :class:`ParseError` carrying its
`line:col`.

The lexer scans each line with one match of one regex per token: the match
takes the blanks and any comment before its token, and as its last two
alternatives (the end of the line, any other character) always match, it
never gives back what the blanks took.  A token is a plain tuple
``(kind, text, (line, col))``, kind one of IDENT KEYWORD INT FLOAT STRING
PUNCT EOF, a STRING's text with its quotes.  The parser reads its fields by
index, and each AST node keeps the position tuple of the token it starts at.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, TypeVar

from .records import InputError, Record

KEYWORDS = {
    "atomic", "fun", "ctrl", "react", "big", "begin", "end", "abrs",
    "int", "init", "rules", "actions", "preds", "if", "in", "ctx", "id",
}

# The alternatives are tried in order: a FLOAT before an INT, each operator
# before its prefixes.  `\d` is a decimal digit, which `int` and `float`
# accept.  Identifiers are ASCII: canonical forms, and so cache files, spell
# control names in ASCII.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:\#.*)?
    (?: ([A-Za-z_][A-Za-z0-9_]*)
      | (\|\||-\[|\]->|->|<=|>=|[{}()\[\]=;,.|/+\-*!<>&])
      | (\d+\.\d+)
      | (\d+)
      | ("[^"]*")
      | (\Z)
      | (.) )
    """,
    re.VERBOSE,
).finditer
_KIND = (None, "IDENT", "PUNCT", "FLOAT", "INT", "STRING")
_WORD = dict.fromkeys(KEYWORDS, "KEYWORD")


class ParseError(InputError):
    def __init__(self, msg: str, line: int, col: int, expected: tuple[str, ...] = ()):
        loc = f"{line}:{col}"
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{loc}: {msg}{hint}")
        self.line = line
        self.col = col
        self.expected = expected


Token = tuple[str, str, tuple[int, int]]  # kind, text, (line, col)


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, line by line, ending with one EOF token at the
    end of the text, or at the `#` of a comment that ends it."""
    toks: list[Token] = []
    append = toks.append
    for n, line in enumerate(text.split("\n"), 1):
        for m in _TOKEN(line):
            k = m.lastindex
            if k == 1:
                word = m[1]
                append((_WORD.get(word, "IDENT"), word, (n, m.start(1) + 1)))
            elif k < 6:
                append((_KIND[k], m[k], (n, m.start(k) + 1)))
            elif k == 6:
                break
            elif m[7] == '"':
                raise ParseError("unterminated string", n, m.start(7) + 1)
            else:
                raise ParseError(f"unexpected character {m[7]!r}", n, m.start(7) + 1)
    end = line.find("#", m.start())
    toks.append(("EOF", "", (n, (len(line) if end < 0 else end) + 1)))
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


def _join(kind, parts: list, pos: Pos) -> BExpr:
    """`parts` joined by `kind` (EMerge or EPar), read flat: an operand that
    is a parenthesised join of the same kind gives its own operands."""
    if len(parts) == 1:
        return parts[0]
    return kind(tuple(p for e in parts for p in (e.parts if type(e) is kind else (e,))), pos)


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


class ForcedNext(Record):
    __slots__ = ("trigger", "next", "source")

    def __init__(self, trigger: tuple, next: tuple, source: str = ""):
        self.trigger = trigger
        self.next = next
        self.source = source


Property = Reach | ForcedNext


# ---------------------------------------------------------------------------
# parser


_T = TypeVar("_T")


class _Parser:
    """Reads a token list.  `tok` is the current token, whose fields are read
    by index (0 kind, 1 text, 2 position), and `next` returns the one after
    it; a node takes the position tuple of the token that starts it."""

    def __init__(self, toks: list[Token]):
        self.next = iter(toks).__next__
        self.tok = self.next()

    def at(self, text: str) -> bool:
        return self.tok[1] == text  # a STRING's text keeps its quotes

    def bump(self) -> Token:
        tok = self.tok
        self.tok = self.next()
        return tok

    def expect(self, text: str) -> None:
        if self.tok[1] != text:
            self.unexpected(text)
        self.tok = self.next()

    def name(self, what: str) -> str:
        """The text of an identifier, which is consumed."""
        kind, text, _pos = self.tok
        if kind != "IDENT":
            self.unexpected(what)
        self.tok = self.next()
        return text

    def integer(self) -> int:
        """The value of the current INT token, which is consumed."""
        text = self.tok[1]
        try:
            value = int(text)
        except ValueError:  # more digits than the interpreter converts
            self.fail(f"integer literal of {len(text)} digits is too long")
        self.bump()
        return value

    def fail(self, msg: str, expected: tuple[str, ...] = ()):
        raise ParseError(msg, *self.tok[2], expected)

    def unexpected(self, *expected: str):
        self.fail(f"found {self.tok[1] or 'end of input'!r}", expected)

    def commas(self, item: Callable[..., _T], *args) -> list[_T]:
        """item (',' item)*, each item read by ``item(*args)``"""
        items = [item(*args)]
        while self.tok[1] == ",":
            self.tok = self.next()
            items.append(item(*args))
        return items

    def listed(self, opening: str, item: Callable[[], _T], closing: str) -> list[_T]:
        """keyword '=' opening item (',' item)* closing ';'"""
        self.bump()
        self.expect("=")
        self.expect(opening)
        items = self.commas(item)
        self.expect(closing)
        self.expect(";")
        return items

    # -- declarations -------------------------------------------------------

    def program(self) -> Ast:
        controls: list[CtrlDecl] = []
        bigs: list[BigDecl] = []
        reacts: list[ReactDecl] = []
        abrs: AbrsBlock | None = None
        while self.tok[0] != "EOF":
            pos = self.tok[2]
            atomic = self.at("atomic")
            if atomic:
                self.bump()
            funny = self.at("fun")
            if funny:
                self.bump()
            if self.at("ctrl"):
                controls.append(self.ctrl_decl(atomic, funny, pos))
            elif self.at("big"):
                if atomic:
                    self.fail("'atomic' only applies to controls")
                bigs.append(self.big_decl(funny, pos))
            elif self.at("react"):
                if atomic:
                    self.fail("'atomic' only applies to controls")
                reacts.append(self.react_decl(funny, pos))
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
        names = self.commas(self.name, "parameter name")
        self.expect(")")
        return tuple(names)

    def ctrl_decl(self, atomic: bool, funny: bool, pos: Pos) -> CtrlDecl:
        self.expect("ctrl")
        name = self.name("control name")
        params = self._formals()
        if funny and not params:
            self.fail(f"fun ctrl {name} needs a parameter list")
        if not funny and params:
            self.fail(f"ctrl {name} with parameters must be declared 'fun ctrl'")
        self.expect("=")
        if self.tok[0] != "INT":
            self.fail("arity must be an integer", ("integer",))
        arity = self.integer()
        self.expect(";")
        return CtrlDecl(name, params, arity, atomic, pos)

    def big_decl(self, funny: bool, pos: Pos) -> BigDecl:
        self.expect("big")
        name = self.name("bigraph name")
        params = self._formals() if funny else ()
        self.expect("=")
        body = self.bexpr()
        self.expect(";")
        return BigDecl(name, params, body, pos)

    def react_decl(self, funny: bool, pos: Pos) -> ReactDecl:
        self.expect("react")
        name = self.name("rule name")
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
        return ReactDecl(name, params, redex, weight, reactum, condition, pos)

    def number(self) -> float:
        if self.tok[0] not in ("INT", "FLOAT"):
            self.fail("expected a numeric weight", ("number",))
        return float(self.bump()[1])

    # -- abrs block ----------------------------------------------------------

    def abrs_block(self) -> AbrsBlock:
        pos = self.tok[2]
        self.expect("begin")
        self.expect("abrs")
        ints: list[IntDecl] = []
        init_name = classes = actions = preds = None
        while not self.at("end"):
            if self.tok[0] == "EOF":
                self.fail("abrs block not closed", ("end",))
            if self.at("int"):
                ints.append(self.int_decl())
            elif self.at("init"):
                self.bump()
                init_name = self.name("initial bigraph name")
                self.expect(";")
            elif self.at("rules"):
                classes = self.listed("[", self.rule_class, "]")
            elif self.at("actions"):
                actions = self.listed("[", self.action_decl, "]")
            elif self.at("preds"):
                preds = self.listed("{", self.rule_ref, "}")
            else:
                self.unexpected("int", "init", "rules", "actions", "preds", "end")
        self.expect("end")
        if init_name is None:
            self.fail("abrs block has no init")
        if classes is None:
            self.fail("abrs block has no rules")
        if actions is None:
            self.fail("abrs block has no actions")
        classes = tuple(tuple(c) for c in classes)
        return AbrsBlock(tuple(ints), init_name, classes, tuple(actions), tuple(preds or ()), pos)

    def int_decl(self) -> IntDecl:
        pos = self.tok[2]
        self.expect("int")
        name = self.name("int binding name")
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
        if self.tok[0] != "INT":
            self.fail("expected an integer", ("integer",))
        return self.integer()

    def rule_class(self) -> list[RuleRef]:
        self.expect("{")
        refs = self.commas(self.rule_ref)
        self.expect("}")
        return refs

    def rule_ref(self) -> RuleRef:
        pos = self.tok[2]
        name = self.name("rule name")
        args: list[int | str] = []
        if self.at("("):
            self.bump()
            args = self.commas(self.ref_arg)
            self.expect(")")
        return RuleRef(name, tuple(args), pos)

    def ref_arg(self) -> int | str:
        if self.tok[0] == "INT":
            return self.integer()
        return self.name("int binding or literal")

    def action_decl(self) -> ActionDecl:
        pos = self.tok[2]
        name = self.name("action name")
        self.expect("=")
        self.expect("{")
        rules = self.commas(self.name, "rule name")
        self.expect("}")
        return ActionDecl(name, tuple(rules), pos)

    # -- bigraph expressions --------------------------------------------------
    # bexpr := ('/' name)* par ; par := mer ('||' mer)* ; mer := prim ('|' prim)*
    # prim := 'id' | '1' | '(' bexpr ')' | ion ['.' prim]
    # ion := name ['(' iexpr ')'] ['{' name (',' name)* '}']

    # Both expression languages are read in one loop each, as `lexpr` reads
    # properties: a '(' saves the enclosing expression's unfinished parts on
    # an explicit stack and its ')' restores them, and chains of closures
    # and of nestings are folded from the right, so no nesting is bounded by
    # the recursion limit.

    def closures(self) -> list[tuple[str, Pos]]:
        """('/' name)*, with each '/' position."""
        closes = []
        while self.tok[1] == "/":
            pos = self.bump()[2]
            closes.append((self.name("link name"), pos))
        return closes

    def bexpr(self) -> BExpr:
        advance = self.next
        frames = []  # per open '(': the closures, parts and nest heads around it
        closes, pars, mers, heads = self.closures(), [], [], []
        par_pos = mer_pos = self.tok[2]
        while True:
            kind, text, pos = self.tok
            if kind == "IDENT":  # an ion: K, K(param), K{names}
                self.tok = advance()
                param = None
                if self.tok[1] == "(":
                    self.tok = advance()
                    param = self.iexpr()
                    self.expect(")")
                names: tuple[str, ...] = ()
                if self.tok[1] == "{":
                    self.tok = advance()
                    names = tuple(self.commas(self.name, "link name"))
                    self.expect("}")
                e = EIon(text, param, names, pos)
                if self.tok[1] == ".":
                    heads.append((e, self.tok[2]))
                    self.tok = advance()
                    continue
            elif text == "id":
                self.tok = advance()
                e = EId(pos)
            elif text == "1":  # an INT
                self.tok = advance()
                e = EOne(pos)
            elif text == "(":
                self.tok = advance()
                frames.append((closes, par_pos, pars, mer_pos, mers, heads))
                closes, pars, mers, heads = self.closures(), [], [], []
                par_pos = mer_pos = self.tok[2]
                continue
            else:
                self.unexpected("control name")
            # a whole prim: join it to the chains, closing each ')' that ends them
            while True:
                for ion, pos in reversed(heads):
                    e = ENest(ion, e, pos)
                heads = []
                mers.append(e)
                text = self.tok[1]
                if text == "|":
                    break
                pars.append(_join(EMerge, mers, mer_pos))
                mers = []
                if text == "||":
                    break
                e = _join(EPar, pars, par_pos)
                for name, pos in reversed(closes):
                    e = EClose(name, e, pos)
                if not frames:
                    return e
                self.expect(")")
                closes, par_pos, pars, mer_pos, mers, heads = frames.pop()
            self.tok = advance()
            if not mers:  # a new mer starts after '||'
                mer_pos = self.tok[2]

    # -- integer expressions ---------------------------------------------------
    # iexpr := iterm (('+' | '-') iterm)* ; iterm := ifactor ('*' ifactor)*
    # ifactor := integer | parameter | '(' iexpr ')'

    def iexpr(self) -> IExpr:
        frames = []  # per open '(': the sum and the product around it
        # (left operand, operator, its position) awaiting a right operand
        total = product = None
        while True:
            kind = self.tok[0]
            if kind == "INT":
                e = self.integer()
            elif kind == "IDENT":
                _kind, name, pos = self.bump()
                e = IVar(name, pos)
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
                    _kind, op, pos = self.bump()
                    product = (e, op, pos)
                    break
                if total is not None:
                    e = IBin(total[1], total[0], e, total[2])
                    total = None
                if self.at("+") or self.at("-"):
                    _kind, op, pos = self.bump()
                    total = (e, op, pos)
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
            if self.tok[1] not in (">=", ">", "<=", "<"):
                self.unexpected(">=", ">", "<=", "<")
            bound = self.bump()[1]
            if self.tok[0] not in ("INT", "FLOAT"):
                self.unexpected("probability")
            if float(self.tok[1]) > 1.0:
                self.fail(f"probability bound {self.tok[1]} is outside [0, 1]")
            p = float(self.bump()[1])
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
                # A G !phi  <=>  Pmax(F phi) <= 0
                prop = Reach("<=", 0.0, self.lexpr(factor=True), "max", source)
            else:
                if not self.at("F"):
                    self.unexpected("F", "G")
                self.bump()
                # A F phi  <=>  Pmin(F phi) >= 1
                prop = Reach(">=", 1.0, self.lexpr(), "min", source)
            self.expect("]")
        elif self.at("FORCEDNEXT"):
            self.bump()
            trigger = self.lexpr()
            self.expect("->")
            prop = ForcedNext(trigger, self.lexpr(), source)
        else:
            self.unexpected("P", "E", "A", "FORCEDNEXT")
        if self.tok[0] != "EOF":
            self.fail(f"trailing input {self.tok[1]!r}")
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
            if self.tok[0] != "STRING":
                self.unexpected("quoted pattern name")
            e = ("name", self.bump()[1][1:-1])
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
    for line, group in itertools.groupby(tokenize(text)[:-1], key=lambda t: t[2][0]):
        toks = list(group)
        _kind, last, (_line, col) = toks[-1]
        end = col + len(last)
        source = lines[line - 1][toks[0][2][1] - 1 : end - 1]
        props.append(_Parser(toks + [("EOF", "", (line, end))]).prop(source))
    return props
