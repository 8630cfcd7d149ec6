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
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, TypeVar

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


class Token(NamedTuple):
    kind: str  # IDENT KEYWORD INT FLOAT STRING PUNCT EOF
    text: str
    line: int
    col: int


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


def _pos_field() -> Pos:
    return (0, 0)


@dataclass(frozen=True)
class IVar:
    name: str
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class IBin:
    op: str
    left: "IExpr"
    right: "IExpr"
    pos: Pos = field(default_factory=_pos_field, compare=False)


IExpr = int | IVar | IBin


@dataclass(frozen=True)
class EId:
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class EOne:
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class EIon:
    ctrl: str
    param: IExpr | None
    names: tuple[str, ...]
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class ENest:
    head: EIon
    child: "BExpr"
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class EMerge:
    parts: tuple["BExpr", ...]
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class EPar:
    parts: tuple["BExpr", ...]
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class EClose:
    name: str
    body: "BExpr"
    pos: Pos = field(default_factory=_pos_field, compare=False)


BExpr = EId | EOne | EIon | ENest | EMerge | EPar | EClose


@dataclass(frozen=True)
class CtrlDecl:
    name: str
    params: tuple[str, ...]
    arity: int
    atomic: bool
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class BigDecl:
    name: str
    params: tuple[str, ...]
    body: BExpr
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class ReactDecl:
    name: str
    params: tuple[str, ...]
    redex: BExpr
    weight: float
    reactum: BExpr
    condition: BExpr | None
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class IntDecl:
    name: str
    values: tuple[int, ...]
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class RuleRef:
    name: str
    args: tuple["int | str", ...]
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class ActionDecl:
    name: str
    rules: tuple[str, ...]
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class AbrsBlock:
    ints: tuple[IntDecl, ...]
    init_name: str
    classes: tuple[tuple[RuleRef, ...], ...]
    actions: tuple[ActionDecl, ...]
    preds: tuple[RuleRef, ...]
    pos: Pos = field(default_factory=_pos_field, compare=False)


@dataclass(frozen=True)
class Ast:
    controls: tuple[CtrlDecl, ...]
    bigs: tuple[BigDecl, ...]
    reacts: tuple[ReactDecl, ...]
    abrs: AbrsBlock | None


# Properties.  A label expression is ("name", s) | ("not", e) | ("and", a, b)
# | ("or", a, b); `source` is the property's text on its line.


@dataclass(frozen=True)
class Reach:
    bound: str  # one of >= > <= <
    p: float
    target: tuple
    mode: str  # min or max
    source: str = ""


@dataclass(frozen=True)
class Safety:
    bad: tuple
    source: str = ""


@dataclass(frozen=True)
class Inevitable:
    goal: tuple
    source: str = ""


@dataclass(frozen=True)
class ForcedNext:
    trigger: tuple
    next: tuple
    source: str = ""


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

    # A chain of closures or of nestings is read in a loop and folded from
    # the right, so its length is not bounded by the recursion limit.

    def bexpr(self) -> BExpr:
        closes = []
        while self.at("/"):
            pos = (self.cur.line, self.cur.col)
            self.bump()
            closes.append((self.ident("link name").text, pos))
        e = self.par()
        for name, pos in reversed(closes):
            e = EClose(name, e, pos)
        return e

    def par(self) -> BExpr:
        pos = (self.cur.line, self.cur.col)
        parts = [self.mer()]
        while self.at("||"):
            self.bump()
            parts.append(self.mer())
        return parts[0] if len(parts) == 1 else EPar(tuple(parts), pos)

    def mer(self) -> BExpr:
        pos = (self.cur.line, self.cur.col)
        parts = [self.prim()]
        while self.at("|"):
            self.bump()
            parts.append(self.prim())
        return parts[0] if len(parts) == 1 else EMerge(tuple(parts), pos)

    def prim(self) -> BExpr:
        heads = []
        while True:
            if self.at("id"):
                tok = self.bump()
                e = EId((tok.line, tok.col))
            elif self.cur.kind == "INT" and self.cur.text == "1":
                tok = self.bump()
                e = EOne((tok.line, tok.col))
            elif self.at("("):
                self.bump()
                e = self.bexpr()
                self.expect(")")
            else:
                e = self.ion()
                if self.at("."):
                    heads.append((e, (self.cur.line, self.cur.col)))
                    self.bump()
                    continue
            break
        for ion, pos in reversed(heads):
            e = ENest(ion, e, pos)
        return e

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

    def iexpr(self) -> IExpr:
        left = self.iterm()
        while self.at("+") or self.at("-"):
            op = self.bump()
            left = IBin(op.text, left, self.iterm(), (op.line, op.col))
        return left

    def iterm(self) -> IExpr:
        left = self.ifactor()
        while self.at("*"):
            op = self.bump()
            left = IBin("*", left, self.ifactor(), (op.line, op.col))
        return left

    def ifactor(self) -> IExpr:
        if self.cur.kind == "INT":
            return self.integer()
        if self.cur.kind == "IDENT":
            tok = self.bump()
            return IVar(tok.text, (tok.line, tok.col))
        if self.at("("):
            self.bump()
            inner = self.iexpr()
            self.expect(")")
            return inner
        self.fail("expected an integer expression", ("integer", "parameter", "("))

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
