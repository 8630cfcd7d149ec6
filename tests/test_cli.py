import json
import pathlib
import subprocess
import sys

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


def test_jobs_determinism(tmp_path):
    out1, out8 = tmp_path / "j1", tmp_path / "j8"
    r1 = run("build", MODELS / "pta.big", "--jobs", "1", "--out", out1, "--json")
    r8 = run("build", MODELS / "pta.big", "--jobs", "8", "--out", out8, "--json")
    assert r1.returncode == 0 and r8.returncode == 0
    d1, d8 = json.loads(r1.stdout), json.loads(r8.stdout)
    assert d1["cache_digest"] == d8["cache_digest"]
    e1 = run("export", MODELS / "pta.big", "--jobs", "1", "--out", out1)
    e8 = run("export", MODELS / "pta.big", "--jobs", "8", "--out", out8)
    assert e1.returncode == 0 and e8.returncode == 0
    for ext in (".tra", ".lab", ".sta"):
        assert (out1 / f"pta{ext}").read_bytes() == (out8 / f"pta{ext}").read_bytes()


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


def test_internal_error_exit_code(tmp_path):
    # eight interchangeable tokens exceed the canonicalisation tie budget
    model = tmp_path / "tokens.big"
    model.write_text(
        "atomic ctrl Tok = 0;\nctrl Bag = 0;\nctrl Out = 0;\natomic ctrl Floor = 0;\n"
        "react move = Bag.(Tok | id) || Out.id -[1]-> Bag.id || Out.(Tok | id);\n"
        f"big start = Bag.({' | '.join(['Tok'] * 8)}) || Out.Floor;\n"
        "begin abrs\n  init start;\n  rules = [ {move} ];\n  actions = [ move = {move} ];\nend\n"
    )
    r = run("build", model, "--out", tmp_path)
    assert r.returncode == 4
    assert r.stderr == "tickgraph: internal error: RuntimeError: canonicalisation tie budget exceeded\n"


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
        "within 1 sweeps on an SCC of 2 states (lowest state 0)\n"
    )
