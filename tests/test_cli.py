import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


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


# sha256 of the bundled models' exports and caches: a change to matching,
# exploration, export or the cache format must not move a byte
GOLDEN_SHA256 = {
    "pta.tra": "3374feb4ff9e960969c72cc1738b3ccf29ec3976fe1c3b80acd5d716b904814e",
    "pta.lab": "2ce296a1c435fa65220cff9fa9911d2cb70b16eefafc91073a4cc478f538ff55",
    "pta.sta": "175bba0bb76ed18e6b4f693165696c454bc1505e51f04fc254837424f6124c95",
    "pta.mdpc": "b3c3e9158c5e2afa9262a8068594c80f963f442173511ee5c51b4a593e26f6bf",
    "cloud.tra": "cebaa729421fbd153196b4ea859114e73d3448951845e8bf36d3916ffd4b8642",
    "cloud.lab": "642668c1b3f38a4bf9a35664d9eeea5bc684074cc06a05ece6eddfc0da5ddef7",
    "cloud.sta": "1dd38d05bcac6342d0cc07e0d356753096f5df57ab32ff57faf5a095e6c15bec",
    "cloud.mdpc": "1e8997ff9e73f667b06dfdfd5405960408fed0f62e45f0b20ab5033fad65f746",
}


def test_export_golden_bytes(tmp_path):
    for stem in ("pta", "cloud"):
        assert run("export", MODELS / f"{stem}.big", "--out", tmp_path).returncode == 0
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
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
    assert code == cli.EXIT_INTERNAL == 4
    assert capsys.readouterr().err == (
        "tickgraph: internal error: RuntimeError: value iteration did not converge "
        "within 1 sweeps on an SCC of 2 states (lowest state 0) with actions step\n"
    )
