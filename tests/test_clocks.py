"""The digital-clocks discipline that `tickgraph validate` checks.

One `clock_advance` tick moves every clock by the same step; any other rule
only keeps a clock or resets it to 0.
"""

import json

import pytest

from .test_cli import MODELS, run


def clock_model(move: str, tick: str) -> str:
    """Two clocked locations with a move rule and a tick over two clocks."""
    return (
        "atomic fun ctrl X(n) = 1;\n"
        "ctrl S = 1;\n"
        "atomic ctrl A = 0;\n"
        "atomic ctrl B = 0;\n"
        f"fun react move(n) = {move};\n"
        f"fun react clock_advance(n, m) = {tick};\n"
        "big start = /c /d (S{c}.A || X(0){c} || X(0){d});\n"
        "begin abrs\n  int n = {0,1,2};\n  init start;\n"
        "  rules = [ {move(n)}, {clock_advance(n, n)} ];\n"
        "  actions = [ go = {move}, tick = {clock_advance} ];\nend\n"
    )


GOOD_MOVE = "S{c}.A || X(n){c} -[1]-> S{c}.B || X(0){c}"
GOOD_TICK = "X(n){c} | X(m){d} -[1]-> X(n + 1){c} | X(m + 1){d}"


def validate_json(path):
    r = run("validate", path, "--json")
    return r.returncode, json.loads(r.stdout)["problems"]


@pytest.mark.parametrize("name", ["pta", "cloud", "sensor"])
def test_validate_bundled_models_keep_clock_discipline(name):
    assert validate_json(MODELS / f"{name}.big") == (0, [])


def test_validate_accepts_keep_and_reset(tmp_path):
    path = tmp_path / "ok.big"
    path.write_text(clock_model(GOOD_MOVE, GOOD_TICK))
    assert validate_json(path) == (0, [])
    path.write_text(clock_model("S{c}.A || X(n){c} -[1]-> S{c}.B || X(n){c}", GOOD_TICK))
    assert validate_json(path) == (0, [])


def test_validate_reports_clock_set_by_non_tick_rule(tmp_path):
    path = tmp_path / "bad.big"
    path.write_text(clock_model("S{c}.A || X(n){c} -[1]-> S{c}.B || X(5){c}", GOOD_TICK))
    code, problems = validate_json(path)
    assert code == 2
    assert len(problems) == 1 and problems[0].startswith("5:1: rule move: sets clock X to 5")
    r = run("validate", path)
    assert r.returncode == 2 and "problem: 5:1: rule move" in r.stdout
    # build and check do not run the clock check
    assert run("build", path, "--out", tmp_path).returncode == 0


def test_validate_reports_clock_set_from_reactum_only_parameter(tmp_path):
    path = tmp_path / "bad.big"
    path.write_text(clock_model("S{c}.A || X(0){c} -[1]-> S{c}.B || X(n){c}", GOOD_TICK))
    code, problems = validate_json(path)
    assert code == 2 and problems[0].startswith("5:1: rule move: sets clock X to n")


def test_validate_reports_tick_that_keeps_a_clock(tmp_path):
    path = tmp_path / "bad.big"
    path.write_text(clock_model(GOOD_MOVE, "X(n){c} | X(m){d} -[1]-> X(n + 1){c} | X(m){d}"))
    code, problems = validate_json(path)
    assert code == 2
    assert problems == ["6:1: rule clock_advance: tick does not advance clock X(m)"]


def test_validate_reports_tick_with_unequal_steps(tmp_path):
    path = tmp_path / "bad.big"
    path.write_text(clock_model(GOOD_MOVE, "X(n){c} | X(m){d} -[1]-> X(n + 1){c} | X(m + 2){d}"))
    code, problems = validate_json(path)
    assert code == 2
    assert problems == ["6:1: rule clock_advance: clocks advance by different steps [1, 2]"]


def test_validate_reports_init_with_more_clocks_than_the_tick(tmp_path):
    # five LC clocks in the initial state, four in the tick: one is never advanced
    ticked = " | ".join(f"LC(c{i}){{l{i}}}" for i in range(1, 5))
    advanced = " | ".join(f"LC(c{i} + 1){{l{i}}}" for i in range(1, 5))
    path = tmp_path / "five.big"
    path.write_text(
        "atomic fun ctrl LC(c) = 1;\nctrl Clocks = 0;\n"
        f"fun react clock_advance(c1, c2, c3, c4) = Clocks.({ticked}) -[1]-> Clocks.({advanced});\n"
        "big start = /t1/t2/t3/t4/t5 Clocks.("
        + " | ".join(f"LC(0){{t{i}}}" for i in range(1, 6)) + ");\n"
        "begin abrs\n  int c = {0,1};\n  init start;\n"
        "  rules = [ {clock_advance(c, c, c, c)} ];\n  actions = [ tick = {clock_advance} ];\nend\n"
    )
    code, problems = validate_json(path)
    assert code == 2
    assert problems == [
        "3:1: rule clock_advance: the tick advances 4 LC clock(s), the initial state has 5"
    ]


def test_validate_reports_rule_that_creates_a_clock(tmp_path):
    path = tmp_path / "spawn.big"
    spawn = "S{c}.A || X(n){c} -[1]-> S{c}.B || (X(n){c} | X(0){c})"
    path.write_text(clock_model(spawn, GOOD_TICK))
    code, problems = validate_json(path)
    assert code == 2
    assert problems == ["5:1: rule move: changes the number of X clocks from 1 to 2"]
    r = run("validate", path)
    assert r.returncode == 2 and "problem: 5:1: rule move: changes the number" in r.stdout
