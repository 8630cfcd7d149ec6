"""The one-pass elaborator against the bigraph algebra.

`algebra_body` evaluates a body expression the literal way: every ion,
nest, join, closure and `id` is a bigraph of its own, folded with
:mod:`tickgraph.bigraph`'s constructors.  The elaborator must build the same
bigraph, entity for entity, and raise the same errors at the same positions
in the same order.
"""

import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickgraph import bigraph, lang
from tickgraph.bigraph import Control
from tickgraph.elaborate import ElabError, _Elaborator, load_model
from tickgraph.params import _MAX_DIGITS

from .algebra import close, empty, ion, merge_all, nest, parallel_all, site

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODEL_FILES = sorted((ROOT / "models").glob("*.big")) + sorted(
    (ROOT / "tests" / "data").glob("*.big")
)


def algebra_body(el, e, env):
    """The body of `e`, folded from one bigraph per sub-expression."""
    values = []
    todo = [e]
    while todo:
        e = todo.pop()
        if type(e) is tuple:
            node, x = e
            if isinstance(node, lang.ENest):
                try:
                    values.append(nest(x, values.pop()))
                except ValueError as exc:
                    raise ElabError(str(exc), node.pos) from exc
            elif isinstance(node, lang.EClose):
                name = node.name
                if name not in values[-1].outer_names():
                    raise ElabError(
                        f"/{name}: {name!r} is not an outer name of its body", node.pos
                    )
                values.append(close(name, values.pop()))
            else:
                join = merge_all if isinstance(node, lang.EMerge) else parallel_all
                parts = values[len(values) - x :]
                del values[len(values) - x :]
                values.append(join(parts))
        elif isinstance(e, lang.EIon):
            values.append(_algebra_ion(el, e, env))
        elif isinstance(e, lang.ENest):
            todo += ((e, _algebra_ion(el, e.head, env)), e.child)
        elif isinstance(e, (lang.EMerge, lang.EPar)):
            todo += ((e, len(e.parts)), *reversed(e.parts))
        elif isinstance(e, lang.EClose):
            todo += ((e, None), e.body)
        elif isinstance(e, lang.EId):
            values.append(site())
        else:
            values.append(empty())
    return values[0]


def _algebra_ion(el, e, env):
    if e.ctrl not in el.controls:
        raise ElabError(f"unknown control {e.ctrl!r}", e.pos)
    param = None if e.param is None else el.eval_iexpr(e.param, env)
    try:
        return ion(el.controls[e.ctrl], e.names, param=param)
    except ValueError as exc:
        raise ElabError(str(exc), e.pos) from exc


def entities(g):
    return (g.nodes, list(g.up), list(g.site_up), g.nregions, g.links)


def outcome(evaluate):
    try:
        return "ok", entities(evaluate())
    except ElabError as exc:
        return "error", str(exc), exc.pos


def both(el, e, env):
    """The elaborator's outcome and the algebra's."""
    return outcome(lambda: el.eval_big(e, env)), outcome(lambda: algebra_body(el, e, env))


# -- every checked-in model ----------------------------------------------------


@pytest.mark.parametrize("path", MODEL_FILES, ids=lambda p: p.name)
def test_every_model_body_equals_the_algebra(path, monkeypatch):
    seen = []
    eval_big = _Elaborator.eval_big

    def recorded(el, e, env):
        got = eval_big(el, e, env)
        seen.append((entities(got), entities(algebra_body(el, e, env))))
        return got

    monkeypatch.setattr(_Elaborator, "eval_big", recorded)
    load_model(path)
    assert seen
    for got, want in seen:
        assert got == want


# -- generated expressions ----------------------------------------------------

DECLS = (
    "ctrl A = 0;\nctrl B = 2;\natomic ctrl L = 0;\natomic ctrl K = 1;\n"
    "fun ctrl P(v) = 1;\natomic fun ctrl Q(v) = 0;\n"
)
NAMES = st.sampled_from(["x", "y", "z"])
PARAMS = st.sampled_from(["0", "3", "n", "n + 1", "2 * n - 1"])


def _heads(atomic):
    """Ion texts: non-atomic ones, with atomic ones too when `atomic`."""
    heads = [
        st.just("A"),
        st.builds("B{{{},{}}}".format, NAMES, NAMES),
        st.builds("P({}){{{}}}".format, PARAMS, NAMES),
    ]
    if atomic:
        heads += [
            st.just("L"),
            st.builds("K{{{}}}".format, NAMES),
            st.builds("Q({})".format, PARAMS),
        ]
    return st.one_of(heads)


BAD_IONS = st.sampled_from(["Zz", "B{x}", "K{x,y}", "P{x}", "A(1)", "Q(m)", "K"])


def _exprs(leaves, heads):
    def extend(inner):
        return st.one_of(
            st.builds("{}.{}".format, heads, leaves),
            st.builds("{}.({})".format, heads, inner),
            st.builds(" | ".join, st.lists(inner, min_size=2, max_size=4)).map("({})".format),
            st.builds(" || ".join, st.lists(inner, min_size=2, max_size=3)).map("({})".format),
            st.builds("(/{} {})".format, NAMES, inner),
            st.builds("(/{}/{} {})".format, NAMES, NAMES, inner),
        )

    return st.recursive(leaves, extend, max_leaves=14)


VALID = _exprs(st.one_of(_heads(atomic=True), st.just("id"), st.just("1")), _heads(atomic=False))
ANY = _exprs(
    st.one_of(_heads(atomic=True), st.just("id"), st.just("1"), BAD_IONS),
    st.one_of(_heads(atomic=True), BAD_IONS),
)


def _body(text):
    """An elaborator with the test controls, and the body of `fun big b(n)`."""
    ast = lang.parse(f"fun big b(n) =\n{text};\n" + DECLS)  # the body is line 2
    el = _Elaborator(ast)
    for c in ast.controls:
        el.controls[c.name] = Control(
            c.name, c.arity, atomic=c.atomic, parameterised=bool(c.params)
        )
    return el, ast.bigs[0].body


@settings(max_examples=400, deadline=None)
@given(VALID)
def test_generated_bodies_equal_the_algebra(text):
    el, e = _body(text)
    got, want = both(el, e, {"n": 7})
    assert got == want


@settings(max_examples=300, deadline=None)
@given(ANY)
def test_generated_errors_equal_the_algebra(text):
    el, e = _body(text)
    got, want = both(el, e, {"n": 7})
    assert got == want


@pytest.mark.parametrize(
    "text",
    [
        # repeated names and parameters, fused across parts and nests
        "B{x,x}.(B{x,y} | K{y} | P(n){x}) || K{y} | P(n + 1){z}",
        # a closure shadows an outer name: the inner port gets its own edge
        "B{x,y}.(/x (B{x,y} | K{x})) | K{x}",
        "/x (K{x} | (/x K{x} | (/x K{x})) | K{x})",
        # hyperedges in first-appearance order, the closed one in the middle
        "K{z} | (/y B{y,y}) | B{z,x} | K{x}",
        # sites in pre-order: ions' own sites, `id`s, through `||` and `|`
        "(A || id) | A.(id | A | (id || 1)) || 1 | A.1",
        # nested joins of both kinds, and `1`
        "((A | (1 | A)) || (A || (A | 1))) | ((1))",
    ],
)
def test_chosen_bodies_equal_the_algebra(text):
    el, e = _body(text)
    got, want = both(el, e, {"n": 7})
    assert got[0] == "ok"
    assert got == want


# -- errors: message, position, precedence ------------------------------------

TOO_BIG = " * ".join(["99999"] * (_MAX_DIGITS // 5 + 2)) if _MAX_DIGITS else None


@pytest.mark.parametrize(
    "text, message",
    [
        ("A.Zz", "2:3: unknown control 'Zz'"),
        ("P(m){x}", "2:3: undefined parameter 'm'"),
        ("B{x}", "2:1: arity mismatch for B: got 1 names, arity is 2"),
        ("P{x}", "2:1: control P requires an integer parameter"),
        ("A(1)", "2:1: control A takes no parameter"),
        ("L.A", "2:2: atomic control L cannot contain children"),
        ("A.(K{x} || L)", "2:2: nest: inner must have exactly one region, found 2"),
        ("A.(1 || 1 || 1)", "2:2: nest: inner must have exactly one region, found 3"),
        ("/w A", "2:1: /w: 'w' is not an outer name of its body"),
        # an outer binding of the name does not count for the body
        ("K{w} | (/w A)", "2:9: /w: 'w' is not an outer name of its body"),
        # precedence: a head's own error comes before its child's, a child's
        # and a body's before the nest's or closure's, operands left to right
        ("Zz.(Yy)", "2:1: unknown control 'Zz'"),
        ("B{x}.(Yy)", "2:1: arity mismatch for B: got 1 names, arity is 2"),
        ("L.(Zz)", "2:4: unknown control 'Zz'"),
        ("L.(A || A)", "2:2: atomic control L cannot contain children"),
        ("L.(K{x}.A)", "2:8: atomic control K cannot contain children"),
        ("A.(L.A || A)", "2:5: atomic control L cannot contain children"),
        ("/w (Zz)", "2:5: unknown control 'Zz'"),
        ("/w L.A", "2:5: atomic control L cannot contain children"),
        ("(/w A) | Zz", "2:2: /w: 'w' is not an outer name of its body"),
        ("A | Yy | Zz", "2:5: unknown control 'Yy'"),
        ("/v/w K{v}", "2:3: /w: 'w' is not an outer name of its body"),
    ],
)
def test_error_messages_positions_and_precedence(text, message):
    el, e = _body(text)
    got, want = both(el, e, {"n": 7})
    assert got == want
    assert got[0] == "error" and got[1] == message


@pytest.mark.skipif(TOO_BIG is None, reason="this interpreter writes ints of any length")
def test_parameter_limit_is_an_error_at_its_operator():
    el, e = _body(f"Q({TOO_BIG})")
    got, want = both(el, e, {"n": 7})
    assert got == want
    assert got[0] == "error"
    assert got[1].endswith(f"computed parameter has more than {_MAX_DIGITS} digits")
    line, col = got[2]
    assert line == 2 and f"Q({TOO_BIG})"[col - 1] == "*"


# -- work: one Bigraph per body, however deep or wide -------------------------


def _bodies(path) -> int:
    ast = lang.parse(lang.read_source(path))
    return len(ast.bigs) + sum(2 + (r.condition is not None) for r in ast.reacts)


def _constructions(path, monkeypatch) -> int:
    made = []
    init = bigraph.Bigraph.__init__

    def counted(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(bigraph.Bigraph, "__init__", counted)
    load_model(path)
    monkeypatch.undo()
    return len(made)


def _deep(tmp_path, big, ctrls=""):
    model = tmp_path / "deep.big"
    model.write_text(
        f"ctrl A = 0;\natomic ctrl L = 0;\n{ctrls}react r = L -[1]-> L;\nbig s = {big};\n"
        "begin abrs\n  init s;\n  rules = [ {r} ];\n  actions = [ a = {r} ];\nend\n"
    )
    return model


def test_cloud_builds_one_bigraph_per_body(monkeypatch):
    path = ROOT / "models" / "cloud.big"
    assert _bodies(path) == 16
    assert _constructions(path, monkeypatch) == 16


def test_deep_nest_builds_one_bigraph_per_body(monkeypatch):
    path = ROOT / "tests" / "data" / "nest2000.big"
    assert "A." * 2000 + "L;" in path.read_text()
    assert _constructions(path, monkeypatch) == _bodies(path) == 3


def test_long_closure_chain_builds_one_bigraph_per_body(tmp_path, monkeypatch):
    # the model of test_cli.py's test_long_closure_chain_is_read_without_recursion
    n = 1200
    closes = "".join(f"/t{i}" for i in range(n))
    body = " | ".join(f"B{{t{i}}}" for i in range(n))
    path = _deep(tmp_path, f"{closes} A.({body} | L)", "atomic ctrl B = 1;\n")
    assert _constructions(path, monkeypatch) == _bodies(path) == 3


def test_deep_nested_merge_builds_one_bigraph_per_body(tmp_path, monkeypatch):
    body = "L"
    for _ in range(3000):
        body = f"(S | {body})"
    path = _deep(tmp_path, body, "atomic ctrl S = 0;\n")
    assert _constructions(path, monkeypatch) == _bodies(path) == 3
