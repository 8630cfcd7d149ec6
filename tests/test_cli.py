import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"
DATA = pathlib.Path(__file__).resolve().parent / "data"


def run(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "tickgraph", *map(str, argv)],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_validate_pta():
    r = run("validate", MODELS / "pta.big")
    assert r.returncode == 0
    assert "20 rules, 6 controls" in r.stdout


def test_validate_json():
    r = run("validate", MODELS / "pta.big", "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["rules"] == 20 and report["controls"] == 6
    assert report["problems"] == []


def test_validate_bad_model(tmp_path):
    bad = tmp_path / "bad.big"
    bad.write_text("big b = Zz;\n")
    r = run("validate", bad)
    assert r.returncode == 2
    assert "no abrs block" in r.stderr or "unknown control" in r.stderr


def test_validate_unknown_control(tmp_path):
    bad = tmp_path / "bad.big"
    bad.write_text(
        "atomic ctrl A = 0;\nbig i0 = Qq;\nbegin abrs\n  init i0;\n"
        "  rules = [ {r} ];\n  actions = [ a = {r} ];\nend\n"
    )
    r = run("validate", bad)
    assert r.returncode == 2
    assert "unknown control" in r.stderr and "2:" in r.stderr


def test_validate_non_decimal_digit(tmp_path):
    # '²' is a digit to str.isdigit but not to int()
    bad = tmp_path / "bad.big"
    bad.write_text("ctrl A = ²;\n", encoding="utf-8")
    r = run("validate", bad)
    assert r.returncode == 2
    assert r.stderr.strip() == "tickgraph: 1:10: unexpected character '²'"


def test_build_non_ascii_identifier(tmp_path):
    # canonical forms spell control names in ASCII; a non-ASCII letter is a
    # lexical error at its position, not an internal encoding error
    bad = tmp_path / "pta.big"
    bad.write_text((MODELS / "pta.big").read_text().replace("Done", "D\u00f3ne"), encoding="utf-8")
    r = run("build", bad, "--out", tmp_path)
    assert r.returncode == 2
    assert r.stderr.strip() == "tickgraph: 9:14: unexpected character '\u00f3'"


def test_non_utf8_model_is_a_model_error(tmp_path):
    # a Latin-1 'é' in a comment: bad input that names the file and the byte
    bad = tmp_path / "bad.big"
    bad.write_bytes(b"# ok\nctrl A = 0; # caf\xe9\n")
    for argv in (("validate", bad), ("build", bad, "--out", tmp_path)):
        r = run(*argv)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr.strip() == f"tickgraph: 2:18: {bad}: byte 22 (0xe9) is not UTF-8"


def _deep_model(tmp_path, name, big, ctrls=""):
    model = tmp_path / f"{name}.big"
    model.write_text(
        f"ctrl A = 0;\natomic ctrl L = 0;\n{ctrls}react r = L -[1]-> L;\nbig s = {big};\n"
        "begin abrs\n  init s;\n  rules = [ {r} ];\n  actions = [ a = {r} ];\nend\n"
    )
    return model


def test_deep_nest_chain_is_read_without_recursion(tmp_path):
    # each `A.` was one parser frame, and one elaborator frame
    model = _deep_model(tmp_path, "nest", "A." * 1500 + "L")
    r = run("validate", model)
    assert r.returncode == 0, r.stderr
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert "1 states, 1 choices, 1 transitions" in r.stdout


def test_deep_predicate_is_a_named_limit(tmp_path):
    # the matcher recurses once per pattern entity: a 1,501-entity predicate
    # was an internal RecursionError (exit 4); now the pattern is refused,
    # by name and size, before its first search
    text = (DATA / "deep_pred.big").read_text()
    assert text.count("A." * 1500 + "L;") == 2
    r = run("check", DATA / "deep_pred.big", "--props", DATA / "deep_pred.props",
            "--out", tmp_path)
    assert (r.returncode, r.stdout) == (3, ""), r.stderr
    assert r.stderr.startswith("tickgraph: pattern p: 1501 entities and 0 hyperedges need ")
    assert "internal error" not in r.stderr


def test_long_closure_chain_is_read_without_recursion(tmp_path):
    # each `/t` was one parser frame, and one elaborator frame
    n = 1200
    closes = "".join(f"/t{i}" for i in range(n))
    body = " | ".join(f"B{{t{i}}}" for i in range(n))
    model = _deep_model(tmp_path, "close", f"{closes} A.({body} | L)", "atomic ctrl B = 1;\n")
    r = run("validate", model)
    assert r.returncode == 0, r.stderr
    assert "close: 1 rules, 3 controls" in r.stdout
    # the canonical-form search recurses once per closed edge it
    # individualises: 1,200 interchangeable edges are a named limit (exit 3),
    # not a RecursionError (exit 4)
    r = run("build", model, "--out", tmp_path)
    assert (r.returncode, r.stdout) == (3, ""), r.stderr
    assert r.stderr.startswith("tickgraph: canonical form: 1202 entities and 1200 closed edges")
    assert "internal error" not in r.stderr


def test_nested_parenthesised_joins_are_elaborated_without_recursion(tmp_path):
    # each parenthesised `|` operand was one elaborator frame
    model = tmp_path / "joins.big"
    body = "S{c}.Done"
    for _ in range(3000):
        body = f"(S{{c}}.Done | {body})"
    text = (MODELS / "pta.big").read_text()
    assert text.count("= S{c}.Done;") == 1
    model.write_text(text.replace("= S{c}.Done;", f"= {body};"))
    r = run("validate", model)
    assert r.returncode == 0, r.stderr
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert "14 states, 20 choices, 21 transitions" in r.stdout


def test_long_parameter_sum_is_evaluated_without_recursion(tmp_path):
    # `0+0+...+0` leans left 3,000 deep; each `+` was one elaborator frame
    model = tmp_path / "sum.big"
    chain = "+".join(["0"] * 3000)
    text = (MODELS / "pta.big").read_text()
    model.write_text(text.replace("X(0){c});", f"X({chain}){{c}});", 1))
    assert chain in model.read_text()
    r = run("validate", model)
    assert r.returncode == 0, r.stderr
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert "14 states, 20 choices, 21 transitions" in r.stdout


def test_long_rule_parameter_term_is_evaluated_without_recursion(tmp_path):
    # the tick's `n + 1 + 0 + ... + 0` keeps its variable, so it is not
    # folded: 3,000 terms, each one frame of `term_vars` and `term_eval`
    model = tmp_path / "tick.big"
    chain = " + ".join(["0"] * 2998)
    text = (MODELS / "pta.big").read_text()
    model.write_text(text.replace("X(n + 1){c};", f"X(n + 1 + {chain}){{c}};", 1))
    assert chain in model.read_text()
    r = run("validate", model)
    assert r.returncode == 0, r.stderr
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert "14 states, 20 choices, 21 transitions" in r.stdout


@pytest.mark.parametrize(
    "old, new",
    [
        ("= S{c}.Done;", "= " + "(" * 3000 + "S{c}.Done" + ")" * 3000 + ";"),
        ("X(n + 1){c};", "X(" + "(" * 3000 + "n + 1" + ")" * 3000 + "){c};"),
        ("X(n + 1){c};", "X(n + " + "(0 + " * 3000 + "1" + ")" * 3000 + "){c};"),
    ],
    ids=["bigraph", "integer", "right-operands"],
)
def test_nested_model_parentheses_are_read_without_recursion(tmp_path, old, new):
    # each '(' was four parser frames, and each right operand one elaborator
    # frame; 3,000 of them mean what none do
    model = tmp_path / "deep.big"
    text = (MODELS / "pta.big").read_text()
    assert text.count(old) == 1
    model.write_text(text.replace(old, new))
    r = run("validate", model)
    assert r.returncode == 0, r.stderr
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert "14 states, 20 choices, 21 transitions" in r.stdout


def test_validate_huge_integer_literal(tmp_path):
    # int() refuses more than 4300 digits by default
    bad = tmp_path / "bad.big"
    bad.write_text("ctrl A = " + "1" * 5000 + ";\n")
    r = run("validate", bad)
    assert r.returncode == 2
    assert r.stderr.strip() == "tickgraph: 1:10: integer literal of 5000 digits is too long"


def test_huge_computed_parameter_is_a_resource_limit(tmp_path):
    # legal arithmetic on a 3,000-digit value outgrows int-to-str's 4300 digits
    nines = "9" * 3000
    model = tmp_path / "grow.big"
    model.write_text(
        "atomic fun ctrl C(n) = 0;\n"
        "fun react grow(x) = C(x) -[1]-> C(x * x);\n"
        f"big s = C({nines});\n"
        f"begin abrs\n  int x = {{ {nines} }};\n  init s;\n"
        "  rules = [ {grow(x)} ];\n  actions = [ g = {grow} ];\nend\n"
    )
    message = "tickgraph: 2:1: rule grow: computed parameter has more than 4300 digits\n"
    for argv in (("build", model, "--out", tmp_path), ("simulate", model)):
        r = run(*argv)
        assert (r.returncode, r.stderr) == (3, message)
    # a product of two literals is folded, and rejected at its `*`, at elaboration
    model.write_text(model.read_text().replace("C(x * x)", f"C({nines} * {nines})"))
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 2
    assert r.stderr == "tickgraph: 2:3036: computed parameter has more than 4300 digits\n"


def test_infinite_weight_is_a_model_error(tmp_path):
    # 400 nines parse to an infinite float, which would export NaN probabilities
    model = tmp_path / "inf.big"
    model.write_text(
        "atomic ctrl A = 0;\natomic ctrl B = 0;\n"
        f"react r1 = A -[{'9' * 400}.0]-> B;\nreact r2 = A -[1]-> A;\nbig start = A;\n"
        "begin abrs\n  init start;\n  rules = [ {r1, r2} ];\n  actions = [ a = {r1, r2} ];\nend\n"
    )
    r = run("export", model, "--out", tmp_path)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "tickgraph: 3:1: rule r1: weight must be a finite positive number, got inf\n"
    assert not (tmp_path / "inf.tra").exists()


def test_huge_weights_normalise_without_overflow(tmp_path):
    # each weight is finite, their sum is not: 1e308 + 1e308 overflows
    weight = "1" + "0" * 308 + ".0"
    model = tmp_path / "huge.big"
    model.write_text(
        "atomic ctrl A = 0;\natomic ctrl B = 0;\n"
        f"react r1 = A -[{weight}]-> B;\nreact r2 = A -[{weight}]-> A;\nbig start = A;\n"
        "begin abrs\n  init start;\n  rules = [ {r1, r2} ];\n  actions = [ a = {r1, r2} ];\nend\n"
    )
    r = run("export", model, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "huge.tra").read_text() == "2 1 2\n0 0 1 0.5 a\n0 0 0 0.5 a\n"
    # every probability is positive, so the cache is valid and read back
    env = dict(os.environ, TICKGRAPH_LOG="info")
    r = subprocess.run([sys.executable, "-m", "tickgraph", "build", model, "--out", tmp_path],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0 and "reusing cache" in r.stderr
    # simulate picks either rule, not always the last one
    first = {run("simulate", model, "--seed", seed, "--steps", "1").stdout.split(", ")[2]
             for seed in range(8)}
    assert first == {"r1", "r2"}


def test_probability_that_rounds_to_zero_is_a_limit(tmp_path):
    # 1e-30 against 1e300: the share of `stay` underflows to 0.0; no row of
    # probability 0 is exported, and no cache is written that the next run
    # would refuse
    big, tiny = "1" + "0" * 300 + ".0", "0." + "0" * 29 + "1"
    model = tmp_path / "zero.big"
    model.write_text(
        "atomic ctrl A = 0;\natomic ctrl B = 0;\n"
        f"react go_b = A -[{big}]-> B;\nreact stay = A -[{tiny}]-> A;\nbig start = A;\n"
        "begin abrs\n  init start;\n  rules = [ {go_b, stay} ];\n"
        "  actions = [ go = {go_b, stay} ];\nend\n"
    )
    for command in ("export", "build"):
        r = run(command, model, "--out", tmp_path)
        assert r.returncode == 3, r.stderr
        assert "4:1: rule stay: its probability in action go rounds to 0" in r.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["zero.big"]


def test_validate_empty_file(tmp_path):
    bad = tmp_path / "empty.big"
    bad.write_text("")
    r = run("validate", bad)
    assert r.returncode == 2
    assert "no abrs block" in r.stderr


def test_build_stats(tmp_path):
    r = run("build", MODELS / "pta.big", "--out", tmp_path, "--json")
    assert r.returncode == 0
    stats = json.loads(r.stdout)
    assert stats["states"] == 14
    assert stats["choices"] == 20
    assert stats["transitions"] == 21
    assert stats["deadlocks"] == 0
    assert stats["initial_actions"] == ["rec", "tick"]


def test_build_budget_exceeded(tmp_path):
    r = run("build", MODELS / "pta.big", "--max-states", "3", "--out", tmp_path)
    assert r.returncode == 3
    assert "budget" in r.stderr
    # a cached MDP over the budget fails the same way
    assert run("build", MODELS / "pta.big", "--out", tmp_path).returncode == 0
    again = run("build", MODELS / "pta.big", "--max-states", "3", "--out", tmp_path)
    assert (again.returncode, again.stderr) == (3, r.stderr)


def test_build_budget_names_state(tmp_path):
    # Send(0), expanded at depth 1, discovers the fourth state
    from tickgraph.canon import canonical_digest

    from .conftest import SEND, pta_state

    r = run("build", MODELS / "pta.big", "--max-states", "3", "--out", tmp_path)
    digest = canonical_digest(pta_state(SEND, 0))[:16]
    assert r.returncode == 3
    assert r.stderr == (
        f"tickgraph: state budget 3 exceeded at depth 1 while expanding state {digest}"
        " (frontier 2)\n"
    )


def test_build_trivial_deadlock(tmp_path):
    model = tmp_path / "t.big"
    model.write_text(
        "atomic ctrl A = 0;\natomic ctrl B = 0;\nreact r = B -[1]-> B;\n"
        "big i0 = A;\nbegin abrs\n  init i0;\n  rules = [ {r} ];\n"
        "  actions = [ a = {r} ];\nend\n"
    )
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 0
    assert "1 states, 0 choices, 0 transitions, 1 deadlocks" in r.stdout


def test_export_prism_files(tmp_path):
    r = run("export", MODELS / "pta.big", "--out", tmp_path)
    assert r.returncode == 0
    tra = (tmp_path / "pta.tra").read_text()
    lab = (tmp_path / "pta.lab").read_text()
    sta = (tmp_path / "pta.sta").read_text()
    assert tra.splitlines()[0] == "14 20 21"
    assert lab.splitlines()[0].startswith('0="init" 1="deadlock"')
    assert sta.splitlines()[0] == "(state)"
    # byte-identical re-export
    r2 = run("export", MODELS / "pta.big", "--out", tmp_path)
    assert r2.returncode == 0
    assert (tmp_path / "pta.tra").read_text() == tra


def test_export_dot(tmp_path):
    r = run("export", MODELS / "pta.big", "--format", "dot", "--out", tmp_path)
    assert r.returncode == 0
    dot = (tmp_path / "pta.dot").read_text()
    assert dot.startswith("digraph mdp {") and "0.99" in dot


def test_fix_deadlocks(tmp_path):
    r = run("export", MODELS / "sensor.big", "--fix-deadlocks", "--out", tmp_path)
    assert r.returncode == 0
    tra = (tmp_path / "sensor.tra").read_text()
    assert " stall" in tra


def test_check_pta_properties(tmp_path):
    r = run(
        "check", MODELS / "pta.big", "--props", MODELS / "pta.props", "--out", tmp_path
    )
    assert r.returncode == 0
    lines = [l for l in r.stdout.splitlines() if l]
    assert len(lines) == 3 and all(l.startswith("HOLDS") for l in lines)


def test_check_cloud_shipped_properties(tmp_path):
    r = run(
        "check", MODELS / "cloud.big", "--props", MODELS / "cloud.props", "--out", tmp_path
    )
    assert r.returncode == 0
    assert r.stdout.startswith("HOLDS: FORCEDNEXT")


def test_check_failing_property(tmp_path):
    props = tmp_path / "f.props"
    props.write_text('P >= 1.0 [ F "in_Wait_state" ]\n')
    r = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path)
    assert r.returncode == 1
    assert "FAILS" in r.stdout and "0.01" in r.stdout


@pytest.mark.xfail(strict=True, reason="value iteration stops 1e-6 short of the true 0.5")
def test_check_exact_half_does_not_fail(tmp_path):
    # G is reached with probability exactly 1/2, so `P >= 0.5` holds; the
    # stopping rule (successive sweeps within 1e-9) leaves 0.4999990002
    props = tmp_path / "half.props"
    props.write_text('P >= 0.5 [ F "g" ]\n')
    r = run("check", DATA / "pq_half.big", "--props", props, "--out", tmp_path)
    assert "FAILS" not in r.stdout, r.stdout


def test_check_malformed_property_has_position(tmp_path):
    props = tmp_path / "f.props"
    props.write_text('# header\nP >= 0.5 [ G "s" ]\n')
    r = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path)
    assert r.returncode == 2
    assert r.stderr.strip() == "tickgraph: 2:12: found 'G' (expected F)"


def test_check_probability_bound_out_of_range(tmp_path):
    props = tmp_path / "f.props"
    props.write_text('P >= 2 [ F "in_Done_state" ]\n')
    r = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.strip() == "tickgraph: 1:6: probability bound 2 is outside [0, 1]"


def test_check_non_decimal_digit_in_bound(tmp_path):
    props = tmp_path / "f.props"
    props.write_text('P >= 0.² [ F "a" ]\n', encoding="utf-8")
    r = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.strip() == "tickgraph: 1:8: unexpected character '²'"


def test_non_utf8_properties_are_a_usage_error(tmp_path):
    # a UTF-16 byte-order mark on the second line
    props = tmp_path / "f.props"
    props.write_bytes(b'P >= 0.5 [ F "in_Done_state" ]\n\xff\xfe\n')
    r = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.strip() == f"tickgraph: 2:1: {props}: byte 31 (0xff) is not UTF-8"


def test_long_label_expression_is_evaluated_without_recursion(tmp_path):
    # a 1,200-term `|` chain nests 1,200 tuples deep; it means what one term means
    results = []
    for terms in (1, 1200):
        props = tmp_path / f"f{terms}.props"
        target = " | ".join(['"in_Done_state"'] * terms)
        props.write_text(f"P >= 0.5 [ F {target} ]\n")
        r = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path, "--json")
        assert r.returncode in (0, 1), r.stderr
        (result,) = json.loads(r.stdout)
        results.append((r.returncode, result["holds"], result["value"]))
    assert results[0] == results[1]


def test_long_not_chain_is_read_without_recursion(tmp_path):
    # each `!` was one parser frame; 3,000 of them mean what four do
    results = []
    for nots in (4, 3000):
        props = tmp_path / f"n{nots}.props"
        props.write_text(f'P >= 0.5 [ F {"!" * nots}"in_Done_state" ]\n')
        plain = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path)
        r = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path, "--json")
        assert r.returncode in (0, 1), r.stderr
        assert plain.returncode == r.returncode, plain.stderr
        (result,) = json.loads(r.stdout)
        results.append((r.returncode, result["holds"], result["value"]))
    assert results[0] == results[1]


def test_nested_parentheses_are_read_without_recursion(tmp_path):
    # each '(' was three parser frames; 3,000 of them mean what none do
    results = []
    for depth in (0, 3000):
        props = tmp_path / f"p{depth}.props"
        props.write_text(f'P >= 0.5 [ F {"(" * depth}"in_Done_state"{")" * depth} ]\n')
        plain = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path)
        r = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path, "--json")
        assert r.returncode in (0, 1), r.stderr
        assert plain.returncode == r.returncode, plain.stderr
        (result,) = json.loads(r.stdout)
        results.append((r.returncode, result["holds"], result["value"]))
    assert results[0] == results[1]


def test_check_unknown_predicate(tmp_path):
    props = tmp_path / "f.props"
    props.write_text('P >= 0.5 [ F "nonsense" ]\n')
    r = run("check", MODELS / "pta.big", "--props", props, "--out", tmp_path)
    assert r.returncode == 2
    assert "nonsense" in r.stderr


def test_simulate_deterministic(tmp_path):
    a = run("simulate", MODELS / "pta.big", "--seed", "7", "--steps", "12")
    b = run("simulate", MODELS / "pta.big", "--seed", "7", "--steps", "12")
    assert a.returncode == 0 and a.stdout == b.stdout
    first_action = a.stdout.splitlines()[0].split(", ")[1]
    assert first_action in ("tick", "rec")


def test_simulate_deadlock_note(tmp_path):
    model = tmp_path / "t.big"
    model.write_text(
        "atomic ctrl A = 0;\natomic ctrl B = 0;\nreact r = B -[1]-> B;\n"
        "big i0 = A;\nbegin abrs\n  init i0;\n  rules = [ {r} ];\n"
        "  actions = [ a = {r} ];\nend\n"
    )
    r = run("simulate", model, "--seed", "1")
    assert r.returncode == 0
    assert r.stdout.strip() == "deadlock at step 0"


def test_independent_builds_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run("build", MODELS / "pta.big", "--out", out1, "--json")
    r2 = run("build", MODELS / "pta.big", "--out", out2, "--json")
    assert r1.returncode == 0 and r2.returncode == 0
    d1, d2 = json.loads(r1.stdout), json.loads(r2.stdout)
    assert d1["cache_digest"] == d2["cache_digest"]
    e1 = run("export", MODELS / "pta.big", "--out", out1)
    e2 = run("export", MODELS / "pta.big", "--out", out2)
    assert e1.returncode == 0 and e2.returncode == 0
    for ext in (".tra", ".lab", ".sta", ".mdpc"):
        assert (out1 / f"pta{ext}").read_bytes() == (out2 / f"pta{ext}").read_bytes()


@pytest.mark.parametrize("budget", [0, -5])
def test_max_states_must_be_positive(tmp_path, budget):
    r = run("build", MODELS / "pta.big", "--max-states", budget, "--out", tmp_path)
    assert r.returncode == 2
    assert r.stderr.splitlines()[-1] == (
        f"tickgraph build: error: argument --max-states: must be at least 1, got {budget}"
    )
    assert "internal error" not in r.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("steps", ["-1", "-3"])
def test_simulate_steps_must_not_be_negative(steps):
    r = run("simulate", MODELS / "pta.big", "--steps", steps)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr.splitlines()[-1] == (
        f"tickgraph simulate: error: argument --steps: must be at least 0, got {steps}"
    )
    zero = run("simulate", MODELS / "pta.big", "--steps", "0")
    assert (zero.returncode, zero.stdout) == (0, "")


def test_benchmark_bindings_resolve():
    # perfbench/tracer.py wraps these names where they are bound; a refactor
    # that unbinds one must fail here, not only in the benchmark's selftest
    import importlib
    import importlib.util

    path = MODELS.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, attr) for mod, attr, _span in tracer.BINDINGS]
    names.append(("tickgraph.verify", "parse_properties"))
    missing = [
        f"{mod}.{attr}" for mod, attr in names
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


# the modules of the bigraph layers, which a command the cache answers
# does not load (see `cli._layers`)
LAYERS = tuple(f"tickgraph.{m}" for m in ("bigraph", "params", "match", "canon", "rules",
                                          "elaborate"))

_TRACED_PROBE = """
import contextlib, importlib.util, io, json, sys
from tickgraph import cli
loaded = [m for m in {layers!r} if m in sys.modules]
spec = importlib.util.spec_from_file_location("perfbench_tracer", {tracer!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
passes = []
for out in {outs!r}:  # the first installs before the layers load, the second after
    t = tracer.Tracer()
    t.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["build", {model!r}, "--out", out]) == 0
    finally:
        t.uninstall()
    passes.append([t.missing, {{name: [t.counts[name + "_calls"], t.total[name]]
                                for name in {spans!r}}}])
print(json.dumps([loaded, passes]))
"""


def test_benchmark_tracer_sees_every_layer(tmp_path):
    # a layer bound on first use must still be called through the names the
    # tracer wraps: an import inside a function would bypass the wrap and
    # leave its spans at zero while every binding still resolved
    spans = ("elaborate.load_model", "mdp.explore", "rules.enabled_outcomes",
             "canon.canonical_form")
    code = _TRACED_PROBE.format(
        layers=LAYERS, tracer=str(MODELS.parent / "perfbench" / "tracer.py"),
        outs=[str(tmp_path / "before"), str(tmp_path / "after")],
        model=str(MODELS / "pta.big"), spans=spans)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded, passes = json.loads(r.stdout)
    assert loaded == []
    for missing, seen in passes:
        assert missing == []
        assert all(calls > 0 and seconds > 0 for calls, seconds in seen.values()), seen
    calls = [{name: calls for name, (calls, _s) in seen.items()} for _missing, seen in passes]
    assert calls[0] == calls[1]


_LAYERS_PROBE = """
import contextlib, io, json, sys
from tickgraph import cli
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1), (argv, code)
print(json.dumps([m for m in {layers!r} if m in sys.modules]))
"""


def _layers_loaded_by(runs: list) -> list[str]:
    """The bigraph layers loaded in a fresh interpreter once it has imported
    `tickgraph.cli` and made the CLI runs `runs`."""
    code = _LAYERS_PROBE.format(runs=runs, layers=LAYERS)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return json.loads(r.stdout)


def test_commands_the_cache_answers_load_no_bigraph_layer(tmp_path):
    pta, props = str(MODELS / "pta.big"), str(MODELS / "pta.props")
    out, first = str(tmp_path / "labelled"), str(tmp_path / "first")
    check = ["check", pta, "--props", props]
    assert _layers_loaded_by([]) == []
    # a cold build, a first check, validate and simulate read the model
    assert _layers_loaded_by([["build", pta, "--out", out], check + ["--out", out]]) == list(LAYERS)
    assert _layers_loaded_by([check + ["--out", first]]) == list(LAYERS)
    assert _layers_loaded_by([["validate", pta]]) == list(LAYERS)
    assert _layers_loaded_by([["simulate", pta, "--steps", "3"]]) == list(LAYERS)
    # a fresh cache answers build, and a labelled one check and export
    assert _layers_loaded_by([["build", pta, "--out", out], check + ["--out", out],
                              ["export", pta, "--out", out],
                              ["export", pta, "--format", "dot", "--out", out]]) == []


def test_jobs_option_removed(tmp_path):
    r = run("build", MODELS / "pta.big", "--jobs", "2", "--out", tmp_path)
    assert r.returncode == 2
    assert "unrecognized arguments: --jobs 2" in r.stderr


def test_check_requires_props(tmp_path):
    r = run("check", MODELS / "pta.big", "--out", tmp_path)
    assert r.returncode == 2
    assert "the following arguments are required: --props" in r.stderr
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_out(tmp_path):
    r = run("simulate", MODELS / "pta.big", "--out", tmp_path)
    assert r.returncode == 2
    assert "unrecognized arguments: --out" in r.stderr


def test_subcommand_options(capsys):
    # each subcommand takes only the flags it reads: 16 settable values
    from tickgraph import cli

    expected = {
        "validate": {"--json"},
        "build": {"--max-states", "--fix-deadlocks", "--out", "--json"},
        "export": {"--format", "--max-states", "--fix-deadlocks", "--out"},
        "check": {"--props", "--max-states", "--fix-deadlocks", "--out", "--json"},
        "simulate": {"--seed", "--steps"},
    }
    for command, flags in expected.items():
        with pytest.raises(SystemExit):
            cli.main([command, "--help"])
        usage = capsys.readouterr().out
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage)) - {"--help"} == flags
    assert sum(map(len, expected.values())) == 16


_BUILD_USAGE = (
    "usage: tickgraph build [-h] [--max-states MAX_STATES] [--fix-deadlocks]\n"
    "                       [--out OUT] [--json]\n"
    "                       model\n"
)
_TOP_USAGE = "usage: tickgraph [-h] {validate,build,export,check,simulate} ...\n"
# (stdout, stderr, exit code) of `main` on each argv,
# written by Python 3.11 at 80 columns
_USAGE_PINS = {
    ("-h",): (
        _TOP_USAGE + "\n"
        "Action bigraphs with digital clocks: build, check and export MDPs.\n\n"
        "positional arguments:\n"
        "  {validate,build,export,check,simulate}\n"
        "    validate            parse, elaborate and check the model and its clocks\n"
        "    build               explore the state space and cache the MDP\n"
        "    export              write PRISM explicit files or a DOT graph\n"
        "    check               evaluate a property file against the MDP\n"
        "    simulate            print a seeded random trace\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
        0,
    ),
    ("build", "-h"): (
        _BUILD_USAGE + "\n"
        "positional arguments:\n"
        "  model                 path to the .big model file\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --max-states MAX_STATES\n"
        "                        exploration state budget\n"
        "  --fix-deadlocks       give deadlock states a stall self-loop\n"
        "  --out OUT             output/cache directory\n"
        "  --json                machine-readable output\n",
        "",
        0,
    ),
    ("frobnicate", "models/pta.big"): (
        "",
        _TOP_USAGE + "tickgraph: error: argument command: invalid choice: 'frobnicate' "
        "(choose from 'validate', 'build', 'export', 'check', 'simulate')\n",
        2,
    ),
    ("build",): (
        "",
        _BUILD_USAGE + "tickgraph build: error: the following arguments are required: model\n",
        2,
    ),
    ("build", "models/pta.big", "--max-states", "0"): (
        "",
        _BUILD_USAGE
        + "tickgraph build: error: argument --max-states: must be at least 1, got 0\n",
        2,
    ),
    ("build", "models/pta.big", "--bogus"): (
        "",
        _TOP_USAGE + "tickgraph: error: unrecognized arguments: --bogus\n",
        2,
    ),
}


def _exit(call, capsys):
    with pytest.raises(SystemExit) as stop:
        call()
    out, err = capsys.readouterr()
    return out, err, stop.value.code


@pytest.mark.parametrize("argv", list(_USAGE_PINS), ids=" ".join)
def test_usage_and_errors_do_not_depend_on_the_parsers_built(argv, monkeypatch, capsys):
    # `main` keeps the parser it built for the process: help and errors read
    # the same from a freshly built parser and from the kept one
    from tickgraph import cli

    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    got = _exit(lambda: cli.main(list(argv)), capsys)
    assert got == _exit(lambda: cli.main(list(argv)), capsys)
    if sys.version_info[:2] == (3, 11):  # argparse's wording moves between versions
        assert got == _USAGE_PINS[argv]


def test_main_builds_its_parser_once_per_process(monkeypatch):
    from tickgraph import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    argv = ["validate", str(MODELS / "pta.big")]
    assert cli.main(argv) == 0
    assert len(built) == 1 + len(cli._COMMANDS)  # the top parser and one per command
    assert cli.main(argv) == 0
    assert len(built) == 1 + len(cli._COMMANDS)


# sha256 of the bundled models' exports and cache payloads (labelled, as
# `export` writes them back; see `_payload`): a change to matching,
# exploration, export or the cache layout must not move a byte
GOLDEN_SHA256 = {
    "pta.tra": "3374feb4ff9e960969c72cc1738b3ccf29ec3976fe1c3b80acd5d716b904814e",
    "pta.lab": "2ce296a1c435fa65220cff9fa9911d2cb70b16eefafc91073a4cc478f538ff55",
    "pta.sta": "175bba0bb76ed18e6b4f693165696c454bc1505e51f04fc254837424f6124c95",
    "pta.mdpc": "26191fcee148cef68aa06020f4acbc6ea68f625e1be87fb9c2423cf0ef74fce2",
    "cloud.tra": "cebaa729421fbd153196b4ea859114e73d3448951845e8bf36d3916ffd4b8642",
    "cloud.lab": "642668c1b3f38a4bf9a35664d9eeea5bc684074cc06a05ece6eddfc0da5ddef7",
    "cloud.sta": "1dd38d05bcac6342d0cc07e0d356753096f5df57ab32ff57faf5a095e6c15bec",
    "cloud.mdpc": "0a033b9c9072a27449c3dcc8ede728260b579d5fea4daedcb74994fe8784de2e",
}


def _payload(blob: bytes) -> bytes:
    """A cache's bytes without its leading code digest, which moves with
    every edit to the package."""
    head = re.match(rb'\{"code":"[0-9a-f]{64}",', blob)
    assert head is not None, blob[:80]
    return b"{" + blob[head.end():]


def test_export_golden_bytes(tmp_path):
    for stem in ("pta", "cloud"):
        assert run("export", MODELS / f"{stem}.big", "--out", tmp_path).returncode == 0
    got = {}
    for name in GOLDEN_SHA256:
        blob = (tmp_path / name).read_bytes()
        got[name] = hashlib.sha256(_payload(blob) if name.endswith(".mdpc") else blob).hexdigest()
    assert got == GOLDEN_SHA256


def spawn_model(values) -> str:
    # n occurs only in spawn's reactum, so a match cannot bind it
    return (
        "ctrl Box = 0;\natomic ctrl Go = 0;\natomic fun ctrl B(n) = 0;\n"
        "fun react spawn(n) = Box.Go -[1]-> Box.B(n);\n"
        "fun react idle(n) = B(n) -[1]-> B(n);\n"
        "big start = Box.Go;\n"
        f"begin abrs\n  int k = {{{','.join(map(str, values))}}};\n  init start;\n"
        "  rules = [ {spawn(k), idle(k)} ];\n  actions = [ go = {spawn}, wait = {idle} ];\nend\n"
    )


def test_reactum_only_parameter(tmp_path):
    small, large = tmp_path / "spawn2.big", tmp_path / "spawn600.big"
    small.write_text(spawn_model([1, 2]))
    large.write_text(spawn_model(range(1, 601)))
    assert run("export", small, "--out", tmp_path).returncode == 0
    assert (tmp_path / "spawn2.tra").read_text() == (
        "3 3 4\n0 0 1 0.5 go\n0 0 2 0.5 go\n1 0 1 1 wait\n2 0 2 1 wait\n"
    )
    r = run("build", large, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert "601 states, 601 choices, 1200 transitions, 0 deadlocks" in r.stdout


def test_build_cloud_golden_count(tmp_path):
    r = run("build", MODELS / "cloud.big", "--out", tmp_path, "--json")
    assert r.returncode == 0
    stats = json.loads(r.stdout)
    assert stats["states"] == 106  # pinned from the brute-force oracle explorer
    assert stats["initial_actions"] == ["tick"]


def test_cache_reuse(tmp_path):
    r1 = run("build", MODELS / "pta.big", "--out", tmp_path, "--json")
    digest = json.loads(r1.stdout)["cache_digest"]
    r2 = run("build", MODELS / "pta.big", "--out", tmp_path, "--json")
    assert json.loads(r2.stdout)["cache_digest"] == digest
    # a truncated cache is rebuilt, not read
    cache = tmp_path / "pta.mdpc"
    cache.write_bytes(cache.read_bytes()[:-18])
    r3 = run("build", MODELS / "pta.big", "--out", tmp_path, "--json")
    assert json.loads(r3.stdout)["cache_digest"] == digest


def test_cache_of_other_code_is_refused(tmp_path):
    # a cache is keyed on the package's own sources: a copy that differs by
    # one comment writes caches the package refuses, and the other way round
    import shutil

    import tickgraph

    copy = tmp_path / "edited" / "tickgraph"
    shutil.copytree(pathlib.Path(tickgraph.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "records.py", "a", encoding="utf-8") as fh:
        fh.write("# an edit that changes no behaviour\n")
    real = dict(os.environ, TICKGRAPH_LOG="info")
    edited = dict(real, PYTHONPATH=str(copy.parent))
    out = tmp_path / "out"
    caches = {}

    def build(env):
        r = subprocess.run([sys.executable, "-m", "tickgraph", "build", MODELS / "pta.big",
                            "--out", out], capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert "14 states, 20 choices, 21 transitions" in r.stdout
        caches[env is edited] = json.loads((out / "pta.mdpc").read_bytes())
        return r.stderr

    for env in (edited, real, edited):
        log = build(env)
        assert "explore:" in log and "reusing cache" not in log, log
    log = build(edited)
    assert "reusing cache" in log and "explore:" not in log, log
    # the same payload under another code digest
    assert caches[True].pop("code") != caches[False].pop("code")
    assert caches[True] == caches[False]


def test_tick9_cache_is_reused(tmp_path):
    # every probability is exactly 1.0, so the cache passes load_mdp's checks
    model = MODELS.parent / "tests" / "data" / "tick9.big"
    env = dict(os.environ, TICKGRAPH_LOG="info")
    logs = []
    for _ in range(2):
        r = subprocess.run([sys.executable, "-m", "tickgraph", "build", model, "--out", tmp_path],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert "4 states, 3 choices, 3 transitions" in r.stdout
        logs.append(r.stderr)
    assert "reusing cache" not in logs[0] and "reusing cache" in logs[1]


@pytest.mark.parametrize("name", ["cloud", "tick5"])
def test_simulate_follows_the_built_mdp(tmp_path, name):
    # each printed digest is that of a successor, under the printed action,
    # of the state before it
    from tickgraph.canon import canonical_digest
    from tickgraph.elaborate import load_model
    from tickgraph.mdp import explore

    from .conftest import tick_model

    if name == "cloud":
        model = MODELS / "cloud.big"
    else:
        model = tmp_path / "tick5.big"
        model.write_text(tick_model(5))
    mdp = explore(load_model(model))
    digests = [canonical_digest(g)[:16] for g in mdp.states]
    for seed in range(3):
        r = run("simulate", model, "--seed", seed, "--steps", 25)
        assert r.returncode == 0, r.stderr
        lines = r.stdout.splitlines()
        s = 0
        for step, line in enumerate(lines):
            if line == f"deadlock at step {step}":
                assert not mdp.choices[s] and step == len(lines) - 1
                break
            printed_step, action, _rule, digest = line.split(", ")
            assert int(printed_step) == step
            (choice,) = [c for c in mdp.choices[s] if c.action == action]
            (s,) = [t for t, _p in choice.dist if digests[t] == digest]
        else:
            assert len(lines) == 25


def test_eight_interchangeable_tokens_build(tmp_path):
    # bare tokens never branch the canonical-form search
    from tickgraph.elaborate import elaborate
    from tickgraph.lang import parse

    from .conftest import token_model
    from .oracle import oracle_explore

    model = tmp_path / "tokens.big"
    model.write_text(token_model(8))
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 0, r.stderr
    assert "9 states, 8 choices, 8 transitions, 1 deadlocks" in r.stdout
    ref = oracle_explore(elaborate(parse(token_model(8))))
    assert (len(ref.states), ref.n_choices, ref.n_transitions) == (9, 8, 8)


LOOP_MODEL = """atomic ctrl Tok = 0;
atomic ctrl Nil = 0;
ctrl P = 0;
ctrl Q = 0;
ctrl G = 0;
ctrl F = 0;
react pq = P.(Tok | id) || Q.id -[2]-> P.id || Q.(Tok | id);
react pg = P.(Tok | id) || G.id -[1]-> P.id || G.(Tok | id);
react pf = P.(Tok | id) || F.id -[1]-> P.id || F.(Tok | id);
react qp = Q.(Tok | id) || P.id -[1]-> Q.id || P.(Tok | id);
big start = P.(Tok | Nil) || Q.Nil || G.Nil || F.Nil;
big at_goal = G.(Tok | id);
begin abrs
  init start;
  rules = [ {pq, pg, pf, qp} ];
  actions = [ step = {pq, pg, pf, qp} ];
  preds = { at_goal };
end
"""


def test_solver_non_convergence_exit_code(tmp_path, monkeypatch, capsys):
    # the token moves P -> Q -> P until it lands in G or F: states 0 and 1
    # form a cyclic SCC that value iteration must sweep
    from tickgraph import cli, verify

    model = tmp_path / "loop.big"
    model.write_text(LOOP_MODEL)
    props = tmp_path / "loop.props"
    props.write_text('P >= 0.4 [ F "at_goal" ]\n')
    assert cli.main(["check", str(model), "--props", str(props), "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(verify, "VI_MAX_SWEEPS", 1)
    code = cli.main(["check", str(model), "--props", str(props), "--out", str(tmp_path)])
    assert code == cli.EXIT_LIMIT == 3
    assert capsys.readouterr().err == (
        "tickgraph: value iteration did not converge "
        "within 1 sweeps on an SCC of 2 states (lowest state 0) with actions step\n"
    )


def test_exit_codes_follow_the_two_error_families(monkeypatch, capsys):
    # `main` catches the two bases; library callers may still catch the old ones
    from tickgraph import cli
    from tickgraph.canon import CanonLimit
    from tickgraph.elaborate import ElabError
    from tickgraph.lang import ParseError
    from tickgraph.match import PatternLimit
    from tickgraph.mdp import ExplorationLimit
    from tickgraph.params import ParameterLimit
    from tickgraph.records import InputError, ResourceLimit
    from tickgraph.verify import SweepLimit, UnknownLabel

    # (error, its base before the two families, exit code, stderr)
    cases = [
        (ExplorationLimit("budget", frontier=2, depth=1, state="0" * 16), Exception, 3,
         "tickgraph: budget (frontier 2)\n"),
        (CanonLimit("deep form"), ValueError, 3, "tickgraph: deep form\n"),
        (PatternLimit("deep pattern"), ValueError, 3, "tickgraph: deep pattern\n"),
        (ParameterLimit("long digits"), ValueError, 3, "tickgraph: long digits\n"),
        (SweepLimit("no convergence"), RuntimeError, 3, "tickgraph: no convergence\n"),
        (ParseError("bad token", 3, 4), Exception, 2, "tickgraph: 3:4: bad token\n"),
        (ElabError("bad control", (5, 6)), Exception, 2, "tickgraph: 5:6: bad control\n"),
        (UnknownLabel("no such label"), Exception, 2, "tickgraph: no such label\n"),
    ]
    for error, old_base, code, err in cases:
        family = ResourceLimit if code == cli.EXIT_LIMIT else InputError
        assert isinstance(error, family) and isinstance(error, old_base)

        def fail(_path, error=error):
            raise error

        monkeypatch.setattr(cli, "load_model", fail)
        assert cli.main(["validate", str(MODELS / "pta.big")]) == code
        assert capsys.readouterr() == ("", err)


# --- numpy is loaded only for value-iteration sweeps, dataclasses never -------

_IMPORTS_PROBE = """
import contextlib, io, json, sys
already = {module!r} in sys.modules
from tickgraph import cli
loaded = [{module!r} in sys.modules]
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1), (argv, code)
    loaded.append({module!r} in sys.modules)
print(json.dumps([already, loaded]))
"""


def _loaded_after_each_run(module: str, runs: list) -> tuple[bool, list[bool]]:
    """Whether `module` was loaded before `tickgraph.cli` was imported in a
    fresh interpreter, and after the import and each CLI run in turn."""
    r = subprocess.run([sys.executable, "-c", _IMPORTS_PROBE.format(module=module, runs=runs)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return tuple(json.loads(r.stdout))


def test_numpy_is_imported_only_by_a_sweep(tmp_path):
    out = str(tmp_path)
    pta, cloud = str(MODELS / "pta.big"), str(MODELS / "cloud.big")
    loop = tmp_path / "loop.big"
    loop.write_text(LOOP_MODEL)
    loop_props = tmp_path / "loop.props"
    loop_props.write_text('P >= 0.4 [ F "at_goal" ]\n')
    runs = [
        ["build", pta, "--out", out],
        ["check", pta, "--props", str(MODELS / "pta.props"), "--out", out],  # labels
        ["check", pta, "--props", str(MODELS / "pta.props"), "--out", out],  # warm
        ["check", cloud, "--props", str(MODELS / "cloud.props"), "--out", out],
        ["check", cloud, "--props", str(MODELS / "cloud.props"), "--out", out],
        ["export", pta, "--out", out],
        ["export", cloud, "--format", "dot", "--out", out],
        ["validate", pta],
        ["simulate", pta, "--steps", "5"],
        # states 0 and 1 of the loop model form a cyclic SCC: this one sweeps
        ["check", str(loop), "--props", str(loop_props), "--out", out],
    ]
    assert _loaded_after_each_run("numpy", runs) == (False, [False] * len(runs) + [True])


def test_dataclasses_is_never_imported(tmp_path):
    # the value classes are written out, so no command compiles generated
    # methods; a site hook may have loaded the module already, and then
    # there is nothing to tell
    out = str(tmp_path)
    pta = str(MODELS / "pta.big")
    runs = [
        ["build", pta, "--out", out],
        ["check", pta, "--props", str(MODELS / "pta.props"), "--out", out],  # labels
        ["check", pta, "--props", str(MODELS / "pta.props"), "--out", out],  # warm
    ]
    for module in ("dataclasses", "inspect"):
        already, loaded = _loaded_after_each_run(module, runs)
        assert loaded == [already] * (len(runs) + 1), module


def test_check_builds_one_graph_with_the_same_answers(tmp_path, monkeypatch, capsys):
    from tickgraph import cli, verify
    from tickgraph.mdp import load_mdp

    graphs = []

    class CountingGraph(verify.Graph):
        def __init__(self, *args):
            graphs.append(self)
            super().__init__(*args)

    checked = []

    def recording(mdp, prop):
        verdict = verify.check(mdp, prop)
        checked.append((mdp, prop, verdict))
        return verdict

    def bits(v):
        return v.holds, v.detail, None if v.value is None else float.hex(v.value)

    monkeypatch.setattr(verify, "Graph", CountingGraph)
    monkeypatch.setattr(cli, "check", recording)
    loop = tmp_path / "loop.big"
    loop.write_text(LOOP_MODEL)
    loop_props = tmp_path / "loop.props"
    loop_props.write_text('P >= 0.4 [ F "at_goal" ]\nP <= 0.5 [ F "at_goal" ]\n'
                          'A [ F "at_goal" ]\n')
    for model, props in ((MODELS / "pta.big", MODELS / "pta.props"),
                         (MODELS / "cloud.big", MODELS / "cloud.props"), (loop, loop_props)):
        for _run in range(2):  # labels, then answers from the labelled cache
            graphs.clear()
            checked.clear()
            argv = ["check", str(model), "--props", str(props), "--out", str(tmp_path), "--json"]
            assert cli.main(argv) in (0, 1)
            capsys.readouterr()
            assert len(graphs) == 1
            assert len(checked) == len(verify.parse_properties(props.read_text()))
            assert all(mdp is checked[0][0] for mdp, _p, _v in checked)
            # an independent solve: the same cache loaded afresh
            fresh = load_mdp(tmp_path / (model.stem + ".mdpc"), cli._model_key(str(model), False))
            assert fresh is not None and fresh is not checked[0][0]
            for _mdp, prop, verdict in checked:
                assert bits(verify.check(fresh, prop)) == bits(verdict), prop.source
            assert len(graphs) == 2 and fresh._graph is graphs[1]


# --- a labelled cache answers `check` and `export` alone ----------------------

SENSOR_PROPS = (
    'P >= 0.5 [ F "data_at_b" ]\nE [ F "data_at_c" ]\nA [ G !("data_at_b" & "data_at_c") ]\n'
)


def _check_case(tmp_path, name):
    """(model, props, extra flags) for a bundled or a generated model."""
    import random

    from tickgraph.elaborate import load_model

    from .test_rules import _perfbench_gen

    if name in ("pta", "cloud"):
        return MODELS / f"{name}.big", MODELS / f"{name}.props", []
    props = tmp_path / f"{name}.props"
    if name == "sensor":
        props.write_text(SENSOR_PROPS)
        return MODELS / "sensor.big", props, ["--fix-deadlocks"]
    gen = _perfbench_gen()
    rng = random.Random(7)
    spec = gen.cloud_family(3, 0, rng) if name == "cloud3" else gen.pta_family(16, rng)
    model = tmp_path / f"{name}.big"
    model.write_text(spec.text)
    names = [n for n, _body in load_model(model).predicates]
    props.write_text("".join(gen.render(p) + "\n" for p in gen.random_props(names, rng)))
    return model, props, []


def _forbid_bigraph_work(monkeypatch):
    from tickgraph import cli, mdp, verify

    def forbidden(*_args, **_kwargs):
        raise AssertionError("bigraph work where the cache answers")

    for module, name in ((cli, "load_model"), (mdp, "decode_canonical"), (verify, "occurrences")):
        monkeypatch.setattr(module, name, forbidden)


def _is_labelled(cache) -> bool:
    return "labels" in json.loads(cache.read_bytes())


@pytest.mark.parametrize("name", ["pta", "cloud", "sensor", "cloud3", "pta16"])
def test_check_is_exact_cold_after_build_and_labelled(tmp_path, capsys, name):
    from tickgraph import cli

    model, props, flags = _check_case(tmp_path, name)

    def check(out):
        argv = ["check", str(model), "--props", str(props), "--out", str(out), "--json"]
        code = cli.main(argv + flags)
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out

    cold = check(tmp_path / "cold")
    assert cold[0] in (0, 1) and json.loads(cold[1])
    warm = tmp_path / "warm"
    assert cli.main(["build", str(model), "--out", str(warm)] + flags) == 0
    capsys.readouterr()
    cache = warm / f"{model.stem}.mdpc"
    assert not _is_labelled(cache)
    assert check(warm) == cold  # decodes the build's cache and labels it
    assert _is_labelled(cache)
    assert check(warm) == cold  # reads the labels


def test_labelled_check_and_export_do_no_bigraph_work(tmp_path, monkeypatch, capsys, caplog):
    import logging

    from tickgraph import cli

    exports = {}
    for stem in ("pta", "cloud"):
        argv = ["check", str(MODELS / f"{stem}.big"), "--props", str(MODELS / f"{stem}.props"),
                "--out", str(tmp_path), "--json"]
        assert cli.main(argv) == 0
        cold = capsys.readouterr().out
        for fmt in ("prism", "dot"):
            out = tmp_path / f"{stem}-{fmt}"
            assert cli.main(["export", str(MODELS / f"{stem}.big"), "--format", fmt,
                             "--out", str(out)]) == 0
            exports[stem, fmt] = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        with monkeypatch.context() as patched:
            _forbid_bigraph_work(patched)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="tickgraph"):
                assert cli.main(argv) == 0
            assert capsys.readouterr().out == cold
            lines = [r.getMessage() for r in caplog.records]
            assert f"reusing cache {tmp_path / stem}.mdpc with labels" in lines
            assert not any(line.startswith("label:") for line in lines)
            # the exports of a labelled cache are byte-identical to the first
            for fmt in ("prism", "dot"):
                out = tmp_path / f"{stem}-{fmt}"
                assert cli.main(["export", str(MODELS / f"{stem}.big"), "--format", fmt,
                                 "--out", str(out)]) == 0
                assert {p.name: p.read_bytes() for p in out.iterdir()} == exports[stem, fmt]
            capsys.readouterr()
    assert sorted(exports["pta", "prism"]) == ["pta.lab", "pta.mdpc", "pta.sta", "pta.tra"]


@pytest.mark.parametrize("stem", ["pta", "cloud"])
def test_build_on_a_fresh_cache_does_no_bigraph_work(tmp_path, monkeypatch, capsys, caplog, stem):
    # a second build reads the cache alone, unlabelled or labelled, and
    # prints what the first one did (with the digest of the payload it finds)
    import logging

    from tickgraph import cli

    model = str(MODELS / f"{stem}.big")
    cache = tmp_path / f"{stem}.mdpc"

    def build(flags):
        assert cli.main(["build", model, "--out", str(tmp_path)] + flags) == 0
        return capsys.readouterr().out

    cold = {}
    for flags in ([], ["--json"]):
        cache.unlink(missing_ok=True)
        cold[tuple(flags)] = build(flags)
    built = cache.read_bytes()
    digest = hashlib.sha256(_payload(built)).hexdigest()
    for labelled in (False, True):
        if labelled:
            assert cli.main(["check", model, "--props", str(MODELS / f"{stem}.props"),
                             "--out", str(tmp_path)]) == 0
            capsys.readouterr()
            assert _is_labelled(cache)
        before = cache.read_bytes()
        now = hashlib.sha256(_payload(before)).hexdigest()
        with monkeypatch.context() as patched:
            _forbid_bigraph_work(patched)
            for flags in ([], ["--json"]):
                caplog.clear()
                with caplog.at_level(logging.INFO, logger="tickgraph"):
                    got = build(flags)
                assert got == cold[tuple(flags)].replace(digest, now)
                lines = [r.getMessage() for r in caplog.records]
                assert lines == [f"reusing cache {cache}"]
        assert cache.read_bytes() == before
    assert json.loads(got)["cache_digest"] != digest  # the labelled file's


def test_cache_digest_does_not_move_with_the_code(tmp_path, monkeypatch, capsys):
    # the same MDP written by other code: other bytes, the same digest
    from tickgraph import cli, mdp

    printed, written = [], []
    for code in (mdp._code_digest(), "0" * 64):
        monkeypatch.setattr(mdp, "_code_digest", lambda code=code: code)
        out = tmp_path / code[:8]
        assert cli.main(["build", str(MODELS / "pta.big"), "--out", str(out)]) == 0
        printed.append(capsys.readouterr().out.splitlines()[-1].rsplit("sha256=", 1)[1])
        written.append((out / "pta.mdpc").read_bytes())
    assert written[0] != written[1]
    assert printed[0] == printed[1] == hashlib.sha256(_payload(written[0])).hexdigest()


@pytest.mark.parametrize("stem", ["pta", "cloud"])
@pytest.mark.parametrize("command", ["check", "export"])
def test_check_or_export_after_build_decodes_the_cache_once(tmp_path, monkeypatch, capsys,
                                                            stem, command):
    from collections import Counter

    from tickgraph import cli, mdp

    model = str(MODELS / f"{stem}.big")
    assert cli.main(["build", model, "--out", str(tmp_path), "--json"]) == 0
    states = json.loads(capsys.readouterr().out)["states"]
    calls = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("explored though the cache is fresh")

    count(cli, "load_mdp")
    count(mdp, "decode_canonical")
    monkeypatch.setattr(cli, "explore", forbidden)
    if command == "check":
        argv = ["check", model, "--props", str(MODELS / f"{stem}.props")]
    else:
        argv = ["export", model]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert calls == {"load_mdp": 1, "decode_canonical": states}
    assert _is_labelled(tmp_path / f"{stem}.mdpc")


def test_check_rebuilds_a_cache_whose_form_does_not_decode(tmp_path, capsys, caplog):
    # `build` reads no form, so it reuses such a cache; the first `check`
    # finds the form undecodable, explores afresh and writes the cache that
    # a cold check writes
    _check_rebuilds_damaged_form(tmp_path, capsys, caplog, 0, lambda form: "bg;")


def test_check_rebuilds_a_cache_whose_entity_its_control_forbids(tmp_path, capsys, caplog):
    # S has one port: without its reference the state decoded into a
    # bigraph with S's port dangling, and the first two properties read
    # FAILS (Pmin = 0), exit 1
    def damage(form):
        assert "S(){c0}[Done(){}[]]" in form
        return form.replace("S(){c0}[Done(){}[]]", "S(){}[Done(){}[]]")

    _check_rebuilds_damaged_form(tmp_path, capsys, caplog, 4, damage)


def _check_rebuilds_damaged_form(tmp_path, capsys, caplog, state, damage):
    import logging

    from tickgraph import cli
    from tickgraph.mdp import load_mdp

    model = str(MODELS / "pta.big")
    argv = ["check", model, "--props", str(MODELS / "pta.props"), "--json", "--out"]
    assert cli.main(argv + [str(tmp_path / "cold")]) == 0
    cold = capsys.readouterr().out
    out = tmp_path / "damaged"
    assert cli.main(["build", model, "--out", str(out)]) == 0
    cache = out / "pta.mdpc"
    doc = json.loads(cache.read_bytes())
    doc["states"][state] = damage(doc["states"][state])
    cache.write_text(json.dumps(doc, separators=(",", ":")))
    damaged = cache.read_bytes()
    with caplog.at_level(logging.INFO, logger="tickgraph"):
        assert cli.main(["build", model, "--out", str(out)]) == 0
    assert f"reusing cache {cache}" in [r.getMessage() for r in caplog.records]
    assert cache.read_bytes() == damaged
    capsys.readouterr()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="tickgraph"):
        assert cli.main(argv + [str(out)]) == 0
    assert capsys.readouterr().out == cold
    lines = [r.getMessage() for r in caplog.records]
    assert not any(line.startswith("reusing cache") for line in lines)
    assert any(line.startswith("explore:") for line in lines)
    assert cache.read_bytes() == (tmp_path / "cold" / "pta.mdpc").read_bytes()
    relabelled = load_mdp(cache, cli._model_key(model, False))
    assert relabelled is not None and relabelled.label_names is not None


def test_labelled_check_keeps_its_errors(tmp_path, monkeypatch, capsys):
    from tickgraph import cli

    model = str(MODELS / "pta.big")
    props = tmp_path / "f.props"
    props.write_text('P >= 0.5 [ F "nonsense" ]\n')
    argv = ["check", model, "--props", str(props), "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    unknown = capsys.readouterr()
    assert unknown.err == "tickgraph: unknown pattern name(s): ['nonsense']\n"
    assert _is_labelled(tmp_path / "pta.mdpc")
    assert cli.main(["build", model, "--max-states", "3", "--out", str(tmp_path / "b")]) == 3
    budget = capsys.readouterr().err
    _forbid_bigraph_work(monkeypatch)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == unknown
    # below the cached count, the labelled cache is not used: the fresh
    # exploration it falls back to stops exactly as a cold build does
    monkeypatch.undo()
    props.write_text('P >= 0.5 [ F "in_Done_state" ]\n')
    assert cli.main(argv + ["--max-states", "3"]) == 3
    assert capsys.readouterr().err == budget


def test_editing_the_model_relabels_the_cache(tmp_path, capsys, caplog):
    import logging

    from tickgraph import cli
    from tickgraph.mdp import load_mdp

    model = tmp_path / "pta.big"
    model.write_text((MODELS / "pta.big").read_text())
    props = tmp_path / "done.props"
    props.write_text('P <= 0.5 [ F "in_Done_state" ]\n')
    argv = ["check", str(model), "--props", str(props), "--out", str(tmp_path)]
    assert cli.main(argv) == 1  # Done is reached with probability 1
    capsys.readouterr()
    # `in_Done_state` now names a location no run reaches
    edited = model.read_text().replace("big in_Done_state = S{c}.Done;",
                                       "big in_Done_state = S{c}.Nowhere;")
    model.write_text("atomic ctrl Nowhere = 0;\n" + edited)
    with caplog.at_level(logging.INFO, logger="tickgraph"):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("HOLDS")
    assert any(r.getMessage().startswith("label: 14 states") for r in caplog.records)
    key = cli._model_key(str(model), False)
    relabelled = load_mdp(tmp_path / "pta.mdpc", key)
    assert relabelled is not None and not any("in_Done_state" in ls for ls in relabelled.labels)


@pytest.mark.parametrize("built", [False, True])
def test_failed_write_back_only_warns(tmp_path, monkeypatch, capsys, caplog, built):
    # a read-only --out or a full disk: chmod does not stop root, so the
    # write itself is made to fail
    import logging

    from tickgraph import cli

    model = str(MODELS / "pta.big")
    if built:
        assert cli.main(["build", model, "--out", str(tmp_path)]) == 0
    before = sorted(p.name for p in tmp_path.iterdir())

    def refuse(path, *_args):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(cli, "save_mdp", refuse)
    props = tmp_path / "f.props"
    for text, code in (('P >= 0.99 [ F "in_Done_state" ]\n', 0),
                       ('P >= 1.0 [ F "in_Wait_state" ]\n', 1)):
        props.write_text(text)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tickgraph"):
            assert cli.main(["check", model, "--props", str(props), "--out", str(tmp_path)]) == code
        capsys.readouterr()
        (warning,) = [r.getMessage() for r in caplog.records]
        assert str(tmp_path / "pta.mdpc") in warning and "Permission denied" in warning
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + ["f.props"])
