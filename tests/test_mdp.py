import json
import logging
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tickgraph import __version__
from tickgraph.bigraph import Control, ion, validate
from tickgraph.canon import canonical_digest, canonical_form, is_iso
from tickgraph.elaborate import load_model
from tickgraph.match import occurrences
from tickgraph.mdp import (
    ExplorationLimit,
    Mdp,
    add_stall_loops,
    explore,
    export_dot,
    export_prism,
    load_mdp,
    save_mdp,
)
from tickgraph.rules import Model, RuleEntry, RuleFamily

from .conftest import DONE, INIT, SEND, WAIT, build_pta_model, pta_state, token_model
from .oracle import _fingerprint, brute_iso, entry_outcomes, oracle_explore


MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def find_state(mdp: Mdp, pattern) -> list[int]:
    return [s for s, g in enumerate(mdp.states) if occurrences(g, pattern)]


@pytest.fixture(scope="module")
def pta_mdp(pta_model_prog):
    return explore(pta_model_prog)


def test_pta_shape(pta_mdp):
    # Init x in {0,1,2}; Send(0); Done(0); Wait(0..8)
    assert pta_mdp.n_states == 14
    assert pta_mdp.n_choices == 20
    assert pta_mdp.n_transitions == 21
    assert pta_mdp.deadlocks() == []


def test_pta_initial_choices(pta_mdp):
    cs = pta_mdp.choices[0]
    assert [c.action for c in cs] == ["rec", "tick"]
    for c in cs:
        assert len(c.dist) == 1 and c.dist[0][1] == 1.0


def test_pta_transition_structure(pta_mdp):
    mdp = pta_mdp
    assert is_iso(mdp.states[0], pta_state(INIT, 0))

    def state_of(g):
        key = canonical_form(g)
        return mdp.canon.index(key)

    init1, init2 = state_of(pta_state(INIT, 1)), state_of(pta_state(INIT, 2))
    send0 = state_of(pta_state(SEND, 0))
    done0, wait0 = state_of(pta_state(DONE, 0)), state_of(pta_state(WAIT, 0))

    assert sorted(c.action for c in mdp.choices[init1]) == ["rec", "tick"]
    assert [c.action for c in mdp.choices[init2]] == ["rec"]
    assert mdp.choices[init2][0].dist == [(send0, 1.0)]

    (send_choice,) = mdp.choices[send0]
    assert send_choice.action == "send"
    dist = dict(send_choice.dist)
    assert abs(dist[done0] - 0.99) < 1e-12
    assert abs(dist[wait0] - 0.01) < 1e-12

    # Done self-loops under the model's deadlock action
    (done_choice,) = mdp.choices[done0]
    assert done_choice.action == "deadlock" and done_choice.dist == [(done0, 1.0)]


def test_every_state_valid_and_single_clock(pta_mdp):
    for g in pta_mdp.states:
        assert validate(g) == []
        assert sum(1 for c, _ in g.nodes if c.name == "X") == 1


def test_distributions_normalised(pta_mdp):
    for cs in pta_mdp.choices:
        for c in cs:
            total = sum(p for _t, p in c.dist)
            assert abs(total - 1.0) < 1e-9
            assert all(0.0 < p <= 1.0 for _t, p in c.dist)


def _assert_priority_sound(model, mdp):
    # no lower-class rule fires in a state where any higher-class rule matches
    for g in mdp.states:
        per_class = []
        for cls in model.classes:
            found = []
            for entry in cls:
                found.extend(entry_outcomes(g, entry))
            per_class.append(found)
        hot = next((i for i, f in enumerate(per_class) if f), None)
        if hot is None:
            continue
        for i in range(hot):
            assert not per_class[i]


def test_priority_soundness(pta_mdp, pta_model_prog):
    _assert_priority_sound(pta_model_prog, pta_mdp)


def test_priority_soundness_cloud():
    import pathlib

    from tickgraph.elaborate import load_model

    model = load_model(pathlib.Path(__file__).resolve().parent.parent / "models" / "cloud.big")
    mdp = explore(model)
    _assert_priority_sound(model, mdp)


def test_order_insensitive_exploration(pta_model_prog):
    base = explore(pta_model_prog)
    rng = random.Random(7)
    classes = [list(cls) for cls in pta_model_prog.classes]
    for cls in classes:
        rng.shuffle(cls)
    shuffled = Model(
        controls=pta_model_prog.controls,
        classes=classes,
        actions=list(pta_model_prog.actions),
        patterns=list(pta_model_prog.patterns),
        init=pta_model_prog.init,
        name="pta-shuffled",
    )
    other = explore(shuffled)
    assert sorted(base.canon) == sorted(other.canon)
    # same transition structure under the canonical-form bijection
    remap = {other.canon[s]: s for s in range(other.n_states)}
    for s in range(base.n_states):
        o = remap[base.canon[s]]
        ours = {
            (c.action, tuple(sorted((other.canon[t], round(p, 12)) for t, p in c.dist)))
            for c in other.choices[o]
        }
        mine = {
            (c.action, tuple(sorted((base.canon[t], round(p, 12)) for t, p in c.dist)))
            for c in base.choices[s]
        }
        assert ours == mine


def test_state_budget():
    with pytest.raises(ExplorationLimit) as err:
        explore(build_pta_model(), max_states=5)
    # the limit names the BFS level and the state being expanded: Init(1),
    # at depth 1, discovers Init(2) as the sixth state
    assert err.value.depth == 1
    assert len(err.value.state) == 16
    assert err.value.state == canonical_digest(pta_state(INIT, 1))[:16]
    with pytest.raises(ValueError, match="at least 1"):
        explore(build_pta_model(), max_states=0)


def test_fixpoint_on_dead_model():
    a = Control("A", atomic=True)
    b = Control("B", atomic=True)
    model = Model(
        controls={"A": a, "B": b},
        classes=[[RuleEntry(RuleFamily("r", (), ion(b), ion(b), 1.0), ())]],
        actions=[("r", ("r",))],
        patterns=[],
        init=ion(a),
        name="dead",
    )
    mdp = explore(model)
    assert mdp.n_states == 1 and mdp.n_choices == 0
    assert mdp.deadlocks() == [0]
    assert add_stall_loops(mdp) == 1
    assert mdp.choices[0][0].action == "stall"


def test_oracle_explorer_agrees_on_pta(pta_model_prog, pta_mdp):
    oracle = oracle_explore(pta_model_prog)
    assert len(oracle.states) == pta_mdp.n_states == 14
    assert oracle.n_choices == pta_mdp.n_choices
    assert oracle.n_transitions == pta_mdp.n_transitions

    # bijection via brute-force isomorphism, then structure comparison
    buckets = {}
    for i, g in enumerate(oracle.states):
        buckets.setdefault(_fingerprint(g), []).append(i)
    mapping = {}
    for s, g in enumerate(pta_mdp.states):
        cands = [i for i in buckets.get(_fingerprint(g), ()) if brute_iso(g, oracle.states[i])]
        assert len(cands) == 1, f"state {s} has {len(cands)} oracle twins"
        mapping[s] = cands[0]
    assert len(set(mapping.values())) == pta_mdp.n_states

    for s in range(pta_mdp.n_states):
        mine = {
            (c.action, tuple(sorted((mapping[t], round(p, 12)) for t, p in c.dist)))
            for c in pta_mdp.choices[s]
        }
        theirs = {
            (action, tuple(sorted((t, round(p, 12)) for t, p in dist)))
            for action, dist in oracle.choices[mapping[s]]
        }
        assert mine == theirs


def test_sensor_oracle_and_bias(sensor_model_prog):
    mdp = explore(sensor_model_prog)
    assert mdp.n_states == 3
    (send,) = mdp.choices[0]
    assert send.action == "send"
    probs = sorted(p for _t, p in send.dist)
    assert abs(probs[0] - 0.3) < 1e-12 and abs(probs[1] - 0.7) < 1e-12
    oracle = oracle_explore(sensor_model_prog)
    assert len(oracle.states) == 3


# ---------------------------------------------------------------------------
# exporters


def test_export_prism_minimal():
    a = Control("A", atomic=True)
    model = Model(
        controls={"A": a},
        classes=[[RuleEntry(RuleFamily("a", (), ion(a), ion(a), 1.0), ())]],
        actions=[("a", ("a",))],
        patterns=[],
        init=ion(a),
        name="loop",
    )
    mdp = explore(model)
    tra, lab, sta = export_prism(mdp)
    assert tra == "1 1 1\n0 0 0 1 a\n"
    assert lab.splitlines()[0] == '0="init" 1="deadlock"'
    assert lab.splitlines()[1] == "0: 0"
    assert sta == "(state)\n0:(0)\n"


def test_export_prism_round_trip(pta_mdp):
    tra, lab, _sta = export_prism(pta_mdp)
    lines = tra.splitlines()
    n_states, n_choices, n_trans = map(int, lines[0].split())
    assert (n_states, n_choices, n_trans) == (14, 20, 21)
    sums: dict[tuple[int, int], float] = {}
    seen_actions = set()
    for row in lines[1:]:
        src, ci, dst, p, action = row.split()
        sums[(int(src), int(ci))] = sums.get((int(src), int(ci)), 0.0) + float(p)
        seen_actions.add(action)
        assert 0 <= int(dst) < n_states
    assert len(sums) == n_choices
    for total in sums.values():
        assert abs(total - 1.0) < 1e-9
    assert "send" in seen_actions and "tick" in seen_actions
    assert lab.splitlines()[1].startswith("0: 0")


def test_export_deterministic(pta_mdp, pta_model_prog):
    again = explore(pta_model_prog)
    assert again.canon == pta_mdp.canon == [canonical_form(g) for g in again.states]
    assert export_prism(pta_mdp) == export_prism(again)
    assert export_dot(pta_mdp) == export_dot(again)


def test_export_dot_shape(pta_mdp):
    dot = export_dot(pta_mdp)
    assert dot.startswith("digraph mdp {")
    assert '[label="0.99"]' in dot
    assert "shape=point" in dot


def test_cache_round_trip(tmp_path, pta_mdp, pta_model_prog):
    path = tmp_path / "pta.mdpc"
    save_mdp(path, pta_mdp, model_hash="abc123")
    again = load_mdp(path, pta_model_prog.controls, "abc123")
    assert again is not None
    assert again.canon == pta_mdp.canon
    assert [[(c.action, c.dist) for c in cs] for cs in again.choices] == [
        [(c.action, c.dist) for c in cs] for cs in pta_mdp.choices
    ]
    for orig, back in zip(pta_mdp.states, again.states):
        assert is_iso(orig, back)
    assert load_mdp(path, pta_model_prog.controls, "otherhash") is None
    assert load_mdp(tmp_path / "missing.mdpc", pta_model_prog.controls, "abc123") is None

def test_repeated_exploration_identical(pta_model_prog):
    # two independent runs must agree
    one = explore(pta_model_prog)
    many = explore(pta_model_prog)
    assert one.canon == many.canon
    assert export_prism(one) == export_prism(many)


def test_truncated_cache_loads_none(tmp_path, pta_mdp, pta_model_prog):
    path = tmp_path / "pta.mdpc"
    save_mdp(path, pta_mdp, model_hash="abc123")
    blob = path.read_bytes()
    assert [p.name for p in tmp_path.iterdir()] == ["pta.mdpc"]  # no temporary left
    cut = tmp_path / "cut.mdpc"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        assert load_mdp(cut, pta_model_prog.controls, "abc123") is None, n
    cut.write_bytes(blob + b"\x00")
    assert load_mdp(cut, pta_model_prog.controls, "abc123") is None


def test_cache_holds_no_rule_names(tmp_path, pta_mdp):
    path = tmp_path / "pta.mdpc"
    save_mdp(path, pta_mdp, model_hash="abc123")
    doc = json.loads(path.read_bytes())
    assert list(doc) == ["format", "version", "key", "actions", "states", "choices"]
    assert doc["version"] == __version__ and doc["key"] == "abc123"
    assert b"transition" not in path.read_bytes()  # every pta rule is *_transition(n)
    save_mdp(tmp_path / "again.mdpc", pta_mdp, model_hash="abc123")
    assert (tmp_path / "again.mdpc").read_bytes() == path.read_bytes()


PARENT_FORMAT = pathlib.Path(__file__).parent / "data" / "pta-tgmdp2.mdpc"


def test_cache_of_another_encoding_is_rebuilt(tmp_path, capsys):
    # the binary cache that the code before the JSON format wrote for
    # models/pta.big, under the same model key
    from tickgraph import cli

    old = PARENT_FORMAT.read_bytes()
    assert old.startswith(b"TGMDP\x02")
    model = MODELS / "pta.big"
    cache = tmp_path / "pta.mdpc"
    cache.write_bytes(old)
    assert load_mdp(cache, load_model(model).controls, cli._model_key(str(model), False)) is None
    assert cli.main(["build", str(model), "--out", str(tmp_path), "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["states"] == 14
    fresh = cache.read_bytes()
    assert fresh.startswith(b'{"format":"tickgraph-mdp/')
    cache.write_bytes(old)
    assert cli.main(["build", str(model), "--out", str(tmp_path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cache_digest"] == first["cache_digest"]
    assert cache.read_bytes() == fresh


@pytest.fixture(scope="module")
def bundled_caches(tmp_path_factory):
    """The cache bytes, controls and MDP of models/pta.big and cloud.big."""
    out = {}
    for stem in ("pta", "cloud"):
        model = load_model(MODELS / f"{stem}.big")
        mdp = explore(model)
        path = tmp_path_factory.mktemp(stem) / f"{stem}.mdpc"
        save_mdp(path, mdp, model_hash="k")
        out[stem] = (path.read_bytes(), model.controls, mdp)
    return out


def _edited(blob: bytes, edit) -> bytes:
    doc = json.loads(blob)
    edit(doc)
    return json.dumps(doc).encode()


def _set_prob(value):
    def edit(doc):
        doc["choices"][0][0][1][0][1] = value
    return edit


def _set_target(value):
    def edit(doc):
        doc["choices"][0][0][1][0][0] = value
    return edit


MALFORMED = {
    "nan probability": lambda b: _edited(b, _set_prob(float("nan"))),
    "infinite probability": lambda b: _edited(b, _set_prob(float("inf"))),
    "zero probability": lambda b: _edited(b, _set_prob(0.0)),
    "probability above one": lambda b: _edited(b, _set_prob(1.5)),
    "integer probability": lambda b: _edited(b, _set_prob(1)),
    "true as a target": lambda b: _edited(b, _set_target(True)),
    "float target": lambda b: _edited(b, _set_target(1.0)),
    "negative target": lambda b: _edited(b, _set_target(-1)),
    "target out of range": lambda b: _edited(b, _set_target(14)),
    "action index out of range": lambda b: _edited(
        b, lambda d: d["choices"][0][0].__setitem__(0, len(d["actions"]))
    ),
    "string action index": lambda b: _edited(b, lambda d: d["choices"][0][0].__setitem__(0, "0")),
    "empty distribution": lambda b: _edited(b, lambda d: d["choices"][0][0].__setitem__(1, [])),
    "distribution as an object": lambda b: _edited(
        b, lambda d: d["choices"][0][0].__setitem__(1, {})
    ),
    "choice of three": lambda b: _edited(b, lambda d: d["choices"][0][0].append(1)),
    "pair of three": lambda b: _edited(b, lambda d: d["choices"][0][0][1][0].append(1)),
    "choice as a dict": lambda b: _edited(b, lambda d: d["choices"][0].__setitem__(0, {"a": 1})),
    "one choice list short": lambda b: _edited(b, lambda d: d["choices"].pop()),
    "one choice list long": lambda b: _edited(b, lambda d: d["choices"].append([])),
    "no states": lambda b: _edited(b, lambda d: d.update(states=[], choices=[])),
    "action name not a string": lambda b: _edited(b, lambda d: d["actions"].__setitem__(0, 1)),
    "states not a list": lambda b: _edited(b, lambda d: d.update(states="bg;0;0;")),
    "non-ascii canonical form": lambda b: _edited(
        b, lambda d: d["states"].__setitem__(0, d["states"][0].replace("Init", "\u00cdnit"))
    ),
    "undecodable canonical form": lambda b: _edited(b, lambda d: d["states"].__setitem__(0, "bg;")),
    "unknown control": lambda b: _edited(
        b, lambda d: d["states"].__setitem__(0, d["states"][0].replace("Init", "Nope"))
    ),
    "another version": lambda b: _edited(b, lambda d: d.update(version="0.0.0")),
    "another format": lambda b: _edited(b, lambda d: d.update(format="tickgraph-mdp/0")),
    "another key": lambda b: _edited(b, lambda d: d.update(key="k:stall")),
    "no format": lambda b: _edited(b, lambda d: d.pop("format")),
    "a list, not an object": lambda b: b"[" + b + b"]",
    "trailing data": lambda b: b + b"{}",
    "not utf-8": lambda b: b[:-1] + b"\xff}",
    "nested 100,000 deep": lambda b: b'{"format":' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "parent format": lambda b: PARENT_FORMAT.read_bytes(),
    "empty": lambda b: b"",
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_cache_loads_none(tmp_path, bundled_caches, case):
    blob, controls, _mdp = bundled_caches["pta"]
    path = tmp_path / "pta.mdpc"
    path.write_bytes(blob)
    assert load_mdp(path, controls, "k") is not None
    path.write_bytes(MALFORMED[case](blob))
    assert load_mdp(path, controls, "k") is None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["pta", "cloud"]), st.data())
def test_hypothesis_damaged_cache_never_raises(tmp_path_factory, bundled_caches, stem, data):
    # truncations, byte flips and insertions: the loader gives None or an MDP
    # whose targets are states and whose probabilities lie in (0, 1]
    blob, controls, mdp = bundled_caches[stem]
    damaged = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["cut", "flip", "insert"]))
        at = data.draw(st.integers(0, max(len(damaged) - 1, 0)))
        if kind == "cut":
            del damaged[at:]
        elif kind == "flip" and damaged:
            damaged[at] ^= data.draw(st.integers(1, 255))
        else:
            damaged[at:at] = data.draw(st.binary(min_size=1, max_size=4))
    path = tmp_path_factory.getbasetemp() / f"damaged-{stem}.mdpc"
    path.write_bytes(bytes(damaged))
    got = load_mdp(path, controls, "k")
    if got is None:
        return
    assert got.n_states == len(got.canon) == len(got.choices) == mdp.n_states
    for cs in got.choices:
        for c in cs:
            assert c.action in got.actions
            for t, p in c.dist:
                assert type(t) is int and 0 <= t < got.n_states
                assert type(p) is float and 0.0 < p <= 1.0


@pytest.mark.parametrize(
    "k, links, counts",
    [(8, "none", (9, 8, 8)), (8, "pairs", (15, 14, 20)), (6, "ring", (13, 12, 20)), (7, "ring", (18, 17, 36))],
)
def test_symmetric_token_models_match_oracle(k, links, counts):
    # interchangeable tokens, bare or closed-linked: canonical forms must merge
    # exactly the isomorphic states, with no branching budget to run out of
    from tickgraph.elaborate import elaborate
    from tickgraph.lang import parse

    model = elaborate(parse(token_model(k, links)))
    mdp = explore(model)
    assert (mdp.n_states, mdp.n_choices, mdp.n_transitions) == counts
    ref = oracle_explore(model)
    assert (len(ref.states), ref.n_choices, ref.n_transitions) == counts


def test_explore_logs_each_level(pta_model_prog, caplog):
    with caplog.at_level(logging.INFO, logger="tickgraph"):
        mdp = explore(pta_model_prog)
    lines = [r.getMessage() for r in caplog.records if r.name == "tickgraph.mdp"]
    assert len(lines) == 11  # one per BFS level: the PTA is 10 levels deep
    assert lines[0].startswith("explore: depth 0, frontier 1, 3 states, ")
    assert lines[-1].startswith(f"explore: depth 10, frontier 1, {mdp.n_states} states, ")
    assert all(line.endswith(" states/s") for line in lines)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tickgraph"):
        explore(pta_model_prog)
    assert caplog.records == []
