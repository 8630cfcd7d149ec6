"""Integer parameter terms used in rule templates.

A concrete entity parameter is a plain ``int``.  Rule families keep symbolic
terms instead: a :class:`Var` bound at match time, or an :class:`Arith`
expression (reactum side only) evaluated once the variables are bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

# Python writes an int as text only up to this many digits (0: no limit)
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_BOUND = 10**_MAX_DIGITS if _MAX_DIGITS else math.inf


class ParameterLimit(ValueError):
    """A computed parameter has more digits than Python writes as text, so
    no state holding it can be encoded; or a rule's share of its action's
    probability rounds to 0, so its transition cannot be written."""


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Arith:
    op: str  # one of + - *
    left: "Term"
    right: "Term"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


Term = int | Var | Arith

_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}


def term_eval(term: Term, env: dict[str, int]) -> int:
    """Evaluate a term under a variable valuation; a computed value too long
    to write as text raises ParameterLimit."""
    if isinstance(term, int):
        return term
    if isinstance(term, Var):
        if term.name not in env:
            raise KeyError(f"unbound parameter {term.name!r}")
        return env[term.name]
    value = _OPS[term.op](term_eval(term.left, env), term_eval(term.right, env))
    if abs(value) >= _BOUND:
        raise ParameterLimit(f"computed parameter has more than {_MAX_DIGITS} digits")
    return value


def term_vars(term: Term) -> set[str]:
    if isinstance(term, int):
        return set()
    if isinstance(term, Var):
        return {term.name}
    return term_vars(term.left) | term_vars(term.right)


def is_concrete(term: Term | None) -> bool:
    return term is None or isinstance(term, int)
