import pathlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tickgraph.bigraph import validate
from tickgraph.canon import is_iso
from tickgraph.elaborate import ElabError, elaborate, load_model
from tickgraph.lang import ParseError, parse

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def read(name: str) -> str:
    return (MODELS / name).read_text()


def test_parse_pta_shape():
    ast = parse(read("pta.big"))
    assert len(ast.controls) == 6
    assert len(ast.reacts) == 6
    assert {c.name for c in ast.controls} == {"X", "S", "Init", "Send", "Wait", "Done"}
    assert ast.abrs is not None
    assert ast.abrs.init_name == "example_PTA"
    assert len(ast.abrs.classes) == 2


def test_parse_precedence():
    ast = parse("ctrl S = 1;\natomic fun ctrl X(n) = 1;\nbig b = /c (S{c}.id || X(0){c});\n")
    (decl,) = [b for b in ast.bigs if b.name == "b"]
    body = decl.body
    assert type(body).__name__ == "EClose" and body.name == "c"
    assert type(body.body).__name__ == "EPar"
    nest_part, ion_part = body.body.parts
    assert type(nest_part).__name__ == "ENest"
    assert type(ion_part).__name__ == "EIon" and ion_part.param == 0


def test_closure_scopes_rightward():
    ast = parse("atomic ctrl A = 1;\natomic ctrl B = 1;\nbig b = /c A{c} | B{c};\n")
    body = ast.bigs[0].body
    assert type(body).__name__ == "EClose"
    assert type(body.body).__name__ == "EMerge"


def test_nesting_binds_tighter_than_merge():
    ast = parse("ctrl A = 0;\natomic ctrl B = 0;\natomic ctrl C = 0;\nbig b = A.B | C;\n")
    body = ast.bigs[0].body
    assert type(body).__name__ == "EMerge"
    assert type(body.parts[0]).__name__ == "ENest"


def test_parse_error_missing_reactum():
    with pytest.raises(ParseError) as exc:
        parse("atomic ctrl A = 0;\nreact r = A -[0.5]-> ;\n")
    assert exc.value.line == 2


def test_parse_error_position_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse("ctrl S = ;\n")
    assert exc.value.line == 1 and "integer" in str(exc.value)


@pytest.mark.parametrize(
    "text, col",
    [
        ("ctrl A = {n};", 10),  # arity
        ("begin abrs\n  int k = {{1, {n}}};", 15),  # integer declaration
        ("fun ctrl A(x) = 0;\nbig b = A({n} * 2);", 11),  # parameter term
        ("begin abrs\n  rules = [ {{r({n})}} ];", 16),  # rule instance argument
    ],
)
def test_huge_integer_literal_is_a_positioned_error(text, col):
    with pytest.raises(ParseError) as exc:
        parse(text.format(n="9" * 5000))
    assert (exc.value.line, exc.value.col) == (text.count("\n") + 1, col)
    assert "integer literal of 5000 digits is too long" in str(exc.value)


def test_identifiers_are_ascii():
    with pytest.raises(ParseError) as exc:
        parse("atomic ctrl D\u00f3ne = 0;")
    assert (exc.value.line, exc.value.col) == (1, 14)
    assert "unexpected character" in str(exc.value)


def test_empty_file_no_abrs():
    with pytest.raises(ElabError, match="no abrs block"):
        elaborate(parse(""))


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
@example("1²")
@example("x = 0.5²")
@example("ctrl A = ²;")
def test_parser_never_panics(text):
    try:
        parse(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1


@settings(max_examples=120, deadline=None)
@given(st.binary(max_size=120))
def test_parser_survives_octets(blob):
    try:
        parse(blob.decode("utf-8", errors="replace"))
    except ParseError:
        pass


# ---------------------------------------------------------------------------
# elaboration


@pytest.fixture(scope="module")
def pta_parsed():
    return load_model(MODELS / "pta.big")


def test_elaborate_pta_counts(pta_parsed):
    assert len(pta_parsed.controls) == 6
    assert pta_parsed.rule_count() == 20  # init 3, succ 1, fail 1, wait 5, done 1, tick 9
    assert [a for a, _ in pta_parsed.actions] == ["send", "retry", "rec", "deadlock", "tick"]
    names = [n for n, _ in pta_parsed.predicates]
    assert "in_Done_state" in names and "clock_X_0" in names and "clock_X_9" in names
    assert len(names) == 14
    assert validate(pta_parsed.init) == [] and pta_parsed.init.is_ground()


def test_elaborate_pta_priorities(pta_parsed):
    from .oracle import class_instance_names

    classes = class_instance_names(pta_parsed)
    assert classes[0] == {
        "done_done",
        "init_transition(2)",
        "send_transition_fail(0)",
        "send_transition_success(0)",
        "wait_transition(8)",
    }
    assert len(classes[1]) == 15


def test_parsed_pta_matches_programmatic(pta_parsed, pta_model_prog):
    # rule-for-rule isomorphism between the DSL model and the built one
    from .oracle import expand

    def instances(model):
        out = {}
        for cls in model.classes:
            for e in cls:
                for r in expand(e.family, dict(zip(e.family.formal, e.domains))):
                    out[r.base] = r
        return out

    prog = instances(pta_model_prog)
    parsed = instances(pta_parsed)
    assert set(prog) == set(parsed)
    for name in prog:
        assert is_iso(prog[name].redex, parsed[name].redex), name
        assert is_iso(prog[name].reactum, parsed[name].reactum), name
        assert prog[name].weight == parsed[name].weight
    assert is_iso(pta_parsed.init, pta_model_prog.init)


def test_elaborate_cloud(tmp_path):
    model = load_model(MODELS / "cloud.big")
    assert len(model.controls) == 18
    tick_entries = [
        e for cls in model.classes for e in cls if e.family.base == "clock_advance"
    ]
    assert len(tick_entries) == 1
    assert tick_entries[0].size == 9**4 * 13
    assert model.init.is_ground() and validate(model.init) == []
    names = [n for n, _ in model.predicates]
    assert "req1_waiting_clock1" in names and "req1_processing" in names
    assert "request_Sent_to_S1_at_1_0" in names
    assert len(names) == 4 * 12 * 2 + 2


def test_elaborate_sensor():
    model = load_model(MODELS / "sensor.big")
    assert model.rule_count() == 2
    assert model.init.nnodes == 9


def test_cloud_fragment_matches_expanded_instances():
    # shrink the clock domains so every valuation can be expanded, then check
    # the symbolic match gives the outcomes of the concrete instances
    from tickgraph.canon import canonical_form
    from tickgraph.rules import action_distribution, apply, enabled_outcomes

    from .oracle import every_match, expanded_outcomes

    text = read("cloud.big")
    for name in ("request1Clock", "request2Clock", "request3Clock", "request4Clock"):
        text = text.replace(f"int {name} = {{0,1,2,3,4,5,6,7,8}};", f"int {name} = {{0,1,2}};")
    text = text.replace("int gc = {0,1,2,3,4,5,6,7,8,9,10,11,12};", "int gc = {0,1,2};")
    model = every_match(elaborate(parse(text)))

    state = model.init
    for _step in range(3):
        out = enabled_outcomes(state, model)
        table = {
            action: sorted(
                (oc.name, canonical_form(apply(state, oc.rule, oc.match)), oc.weight)
                for oc in ocs
            )
            for action, ocs in out.items()
        }
        ref = expanded_outcomes(state, model)
        assert list(table) == list(ref)
        assert table == ref
        state = action_distribution(state, out[next(iter(out))])[0][0]


EMPTY_PLACE = """
ctrl P = 0;
ctrl Q = 0;
atomic ctrl Tok = 0;
atomic ctrl G = 0;
atomic ctrl F = 0;
react go = P.Tok || Q.1 -[1]-> P.1 || Q.Tok;
react drop = P.Tok || Q.1 -[3]-> P.1 || Q.1;
react fill = P.1 || G -[1]-> P.G || 1;
big start = P.Tok || Q.1 || G || F;
big q_empty = Q.1;
big q_token = Q.Tok;
begin abrs
  init start;
  rules = [ {go, drop, fill} ];
  actions = [ move = {go, drop}, fill = {fill} ];
  preds = { q_empty, q_token };
end
"""


def test_empty_bigraph_parses():
    ast = parse(EMPTY_PLACE)
    (start,) = [b for b in ast.bigs if b.name == "start"]
    assert type(start.body.parts[1].child).__name__ == "EOne"
    with pytest.raises(ParseError, match="found '2'"):
        parse("big b = Q.2;")


def test_empty_place_golden_counts():
    from tickgraph.mdp import explore
    from tickgraph.verify import label

    from .oracle import brute_occurrences, oracle_explore

    model = elaborate(parse(EMPTY_PLACE))
    assert model.init.is_ground() and validate(model.init) == []
    assert sorted(c.name for c, _p in model.init.nodes) == ["F", "G", "P", "Q", "Tok"]
    mdp = label(explore(model), model.patterns)
    assert (mdp.n_states, mdp.n_choices, mdp.n_transitions) == (5, 3, 4)
    ref = oracle_explore(model)
    assert (len(ref.states), ref.n_choices, ref.n_transitions) == (5, 3, 4)
    assert [c.action for c in mdp.choices[0]] == ["move"]
    assert sorted(p for _t, p in mdp.choices[0][0].dist) == [0.25, 0.75]
    assert mdp.labels == [
        {n for n, body in model.predicates if brute_occurrences(g, body)} for g in mdp.states
    ]
    assert sum("q_token" in ls for ls in mdp.labels) == 2


def test_elaboration_errors():
    base = "atomic ctrl A = 0;\nreact r = A -[1]-> A;\n"

    def abrs(rules="{r}", actions="a = {r}", extra=""):
        return base + extra + (
            "big init0 = A;\nbegin abrs\n  init init0;\n"
            f"  rules = [ {rules} ];\n  actions = [ {actions} ];\nend\n"
        )

    elaborate(parse(abrs()))  # sanity: the well-formed version is fine

    with pytest.raises(ElabError, match="unknown control"):
        elaborate(parse("big b = Zz;\n" + abrs()))
    with pytest.raises(ElabError, match="undefined rule"):
        elaborate(parse(abrs(rules="{nope}")))
    with pytest.raises(ElabError, match="no action"):
        elaborate(parse(abrs(rules="{r, r2}", extra="react r2 = A -[1]-> A;\n")))
    with pytest.raises(ElabError, match="no priority class"):
        elaborate(parse(abrs(extra="react unused = A -[1]-> A;\n")))
    with pytest.raises(ElabError, match="two actions"):
        elaborate(parse(abrs(actions="a = {r}, b = {r}")))
    with pytest.raises(ElabError, match="empty"):
        elaborate(parse(base + "big i0 = A;\nbegin abrs\n  int d = {};\n  init i0;\n  rules = [ {r} ];\n  actions = [ a = {r} ];\nend\n"))
    # every declaration is evaluated, used or not; line 3 is the first `extra` line
    with pytest.raises(ElabError, match=r"^3:12: atomic control A cannot contain children"):
        elaborate(parse(abrs(extra="big bad = A.A;\n")))
    with pytest.raises(ElabError, match=r"^3:9: /x: 'x' is not an outer name"):
        elaborate(parse(abrs(extra="big s = /x A;\n")))
    with pytest.raises(ElabError, match=r"^4:1: big b declared twice"):
        elaborate(parse(abrs(extra="big b = A;\nbig b = A;\n")))
    with pytest.raises(ElabError, match=r"^3:1: react r declared twice"):
        elaborate(parse(abrs(extra="react r = A -[1]-> A;\n")))
    with pytest.raises(ElabError) as exc:
        elaborate(parse(abrs(extra="react q = A -[1]-> A || A;\n")))
    assert str(exc.value) == "3:1: rule q: redex has 1 regions, reactum 2"


def test_arity_mismatch_position():
    with pytest.raises(ElabError, match=r"^2:9: .*arity"):
        elaborate(parse("ctrl S = 2;\nbig b = S{c};\n" +
                        "react r = S{c,d}.id -[1]-> S{c,d}.id;\n" +
                        "big i0 = /c /d S{c,d}.b0;\natomic ctrl b0 = 0;\n" +
                        "begin abrs\n  init i0;\n  rules = [ {r} ];\n  actions = [ a = {r} ];\nend\n"))


def test_redex_arithmetic_rejected():
    text = (
        "atomic fun ctrl X(n) = 0;\n"
        "fun react r(n) = X(n + 1) -[1]-> X(n);\n"
        "big i0 = X(0);\n"
        "begin abrs\n  int n = {0,1};\n  init i0;\n  rules = [ {r(n)} ];\n  actions = [ a = {r} ];\nend\n"
    )
    with pytest.raises(ElabError, match="arithmetic"):
        elaborate(parse(text))


def test_scalar_int_binding():
    text = (
        "atomic fun ctrl X(n) = 0;\n"
        "fun react r(n) = X(n) -[1]-> X(n);\n"
        "big i0 = X(0);\n"
        "begin abrs\n  int k = 0;\n  init i0;\n  rules = [ {r(k)} ];\n  actions = [ a = {r} ];\nend\n"
    )
    model = elaborate(parse(text))
    assert model.rule_count() == 1
    from .oracle import class_instance_names

    assert class_instance_names(model) == [{"r(0)"}]

    # a repeated value binds once: two rules, two predicate instances
    text = (
        "atomic fun ctrl X(n) = 0;\n"
        "fun react r(n) = X(n) -[1]-> X(n);\n"
        "fun big p(n) = X(n);\n"
        "big i0 = X(0);\n"
        "begin abrs\n  int n = {1,1,2};\n  init i0;\n  rules = [ {r(n)} ];\n"
        "  actions = [ a = {r} ];\n  preds = { p(n) };\nend\n"
    )
    model = elaborate(parse(text))
    assert model.rule_count() == 2
    assert class_instance_names(model) == [{"r(1)", "r(2)"}]
    assert [n for n, _b in model.predicates] == ["p_1", "p_2"]
