"""Integer parameter terms used in rule templates.

A concrete entity parameter is a plain ``int``.  Rule families keep symbolic
terms instead: a :class:`Var` bound at match time, or an :class:`Arith`
expression (reactum side only) evaluated once the variables are bound.
"""

from __future__ import annotations

import math
import sys

from .records import Record, ResourceLimit

# Python writes an int as text only up to this many digits (0: no limit)
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_BOUND = 10**_MAX_DIGITS if _MAX_DIGITS else math.inf


class ParameterLimit(ValueError, ResourceLimit):
    """A computed parameter has more digits than Python writes as text, so
    no state holding it can be encoded; or a rule's share of its action's
    probability rounds to 0, so its transition cannot be written."""


class Var(Record):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __str__(self) -> str:
        return self.name


class Arith(Record):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Term, right: Term):
        self.op = op  # one of + - *
        self.left = left
        self.right = right

    # terms of thousands of operators are legal, so what walks a whole term
    # walks an explicit stack, not the Python one

    def __eq__(self, other) -> bool:
        # the text writes every operator in parentheses: equal texts, equal terms
        if not isinstance(other, Arith):
            return NotImplemented
        return str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))

    def __str__(self) -> str:
        out: list[str] = []
        todo: list = [self]
        while todo:
            t = todo.pop()
            if isinstance(t, Arith):
                out.append("(")
                todo += (")", t.right, f" {t.op} ", t.left)
            else:
                out.append(str(t))
        return "".join(out)


Term = int | Var | Arith

_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def _unbound(name: str):
    raise KeyError(f"unbound parameter {name!r}")


def _too_long():
    raise ParameterLimit(f"computed parameter has more than {_MAX_DIGITS} digits")


def _leaf(term: int | Var, env: dict[str, int]) -> int:
    if type(term) is Var:
        return env[term.name] if term.name in env else _unbound(term.name)
    return term


def term_eval(term: Term, env: dict[str, int]) -> int:
    """Evaluate a term under a variable valuation; a computed value too long
    to write as text raises ParameterLimit.  A term of more than one operator
    is evaluated from an explicit stack, so its depth costs no Python stack."""
    if isinstance(term, int):
        return term
    if isinstance(term, Var):
        return env[term.name] if term.name in env else _unbound(term.name)
    left, right = term.left, term.right
    if type(left) is not Arith and type(right) is not Arith:
        value = _OPS[term.op](_leaf(left, env), _leaf(right, env))
        return value if abs(value) < _BOUND else _too_long()
    return term_fold(term, lambda t: _leaf(t, env), _apply)


def _apply(op: str, a: int, b: int) -> int:
    value = _OPS[op](a, b)
    return value if abs(value) < _BOUND else _too_long()


def term_fold(term: Term, leaf, node):
    """Fold a term bottom-up from an explicit stack: `leaf` maps each int or
    Var, `node(op, left, right)` each operator, left operands first."""
    values: list = []
    todo: list = [term]  # terms to fold, and operators to apply to the last two values
    while todo:
        t = todo.pop()
        if type(t) is str:
            right = values.pop()
            values.append(node(t, values.pop(), right))
        elif type(t) is Arith:
            todo += (t.op, t.right, t.left)
        else:
            values.append(leaf(t))
    return values[0]


def term_vars(term: Term) -> set[str]:
    leaf = lambda t: {t.name} if isinstance(t, Var) else set()
    return term_fold(term, leaf, lambda _op, a, b: a | b) if isinstance(term, Arith) else leaf(term)


def is_concrete(term: Term | None) -> bool:
    return term is None or isinstance(term, int)
