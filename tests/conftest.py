import pytest

from tickgraph.bigraph import Control
from tickgraph.canon import canonical_form
from tickgraph.params import Arith, Var
from tickgraph.rules import Model, Pattern, RuleEntry, RuleFamily

from .algebra import close, ion, merge, merge_all, nest, parallel, site


def is_iso(a, b) -> bool:
    """Isomorphism as the engine decides it: equal canonical forms."""
    return canonical_form(a) == canonical_form(b)


# --- programmatic PTA model (mirrors models/pta.big) -----------------------

X = Control("X", arity=1, atomic=True, parameterised=True)
S = Control("S", arity=1)
INIT = Control("Init", atomic=True)
SEND = Control("Send", atomic=True)
WAIT = Control("Wait", atomic=True)
DONE = Control("Done", atomic=True)

PTA_CONTROLS = {c.name: c for c in (X, S, INIT, SEND, WAIT, DONE)}


def loc_state(loc: Control, clock):
    """S{c}.<loc> || X(<clock>){c} with c open (patterns / rule sides)."""
    return parallel(nest(ion(S, ["c"]), ion(loc)), ion(X, ["c"], param=clock))


def pta_state(loc: Control, clock: int):
    """A ground PTA state with the clock link closed."""
    return close("c", loc_state(loc, clock))


def move_rule(base, src, dst, weight, reset):
    n = Var("n")
    return RuleFamily(
        base=base,
        formal=("n",),
        redex=loc_state(src, n),
        reactum=loc_state(dst, 0 if reset else n),
        weight=weight,
    )


def pta_families():
    return {
        "init_transition": move_rule("init_transition", INIT, SEND, 1.0, reset=True),
        "send_transition_success": move_rule("send_transition_success", SEND, DONE, 0.99, reset=False),
        "send_transition_fail": move_rule("send_transition_fail", SEND, WAIT, 0.01, reset=False),
        "wait_transition": move_rule("wait_transition", WAIT, SEND, 1.0, reset=True),
        "done_done": RuleFamily(
            "done_done", (), nest(ion(S, ["c"]), ion(DONE)), nest(ion(S, ["c"]), ion(DONE)), 1.0
        ),
        "clock_advance": RuleFamily(
            "clock_advance",
            ("n",),
            ion(X, ["c"], param=Var("n")),
            ion(X, ["c"], param=Arith("+", Var("n"), 1)),
            1.0,
        ),
    }


def build_pta_model() -> Model:
    fam = pta_families()
    entry = lambda name, *doms: RuleEntry(fam[name], tuple(tuple(d) for d in doms))
    classes = [
        [
            entry("done_done"),
            entry("init_transition", [2]),
            entry("send_transition_fail", [0]),
            entry("send_transition_success", [0]),
            entry("wait_transition", [8]),
        ],
        [
            entry("clock_advance", range(9)),
            entry("wait_transition", [4, 5, 6, 7]),
            entry("init_transition", [0, 1]),
        ],
    ]
    actions = [
        ("send", ("send_transition_success", "send_transition_fail")),
        ("retry", ("wait_transition",)),
        ("rec", ("init_transition",)),
        ("deadlock", ("done_done",)),
        ("tick", ("clock_advance",)),
    ]
    preds = [(f"in_{c.name}_state", nest(ion(S, ["c"]), ion(c))) for c in (INIT, SEND, WAIT, DONE)]
    preds += [(f"clock_X_{v}", ion(X, ["c"], param=v)) for v in range(10)]
    return Model(
        controls=dict(PTA_CONTROLS),
        classes=classes,
        actions=actions,
        patterns=[Pattern(n, b) for n, b in preds],
        init=pta_state(INIT, 0),
        name="pta",
    )


@pytest.fixture(scope="session")
def pta_model_prog():
    return build_pta_model()


# --- programmatic two-rule weighted sensor model (bias example) ------------

SN = Control("Sn", arity=2)
DATA = Control("Data", atomic=True)
ACTIVE = Control("Active", atomic=True)
IDC = Control("ID", atomic=True, parameterised=True)


def sensor_initial():
    a = nest(ion(SN, ["ab", "ac"]), merge(ion(IDC, param=0), ion(DATA)))
    b = nest(ion(SN, ["ab", "bc"]), merge(ion(IDC, param=1), ion(ACTIVE)))
    c = nest(ion(SN, ["ac", "bc"]), merge(ion(IDC, param=2), ion(ACTIVE)))
    g = merge_all([a, b, c])
    for nm in ("ab", "ac", "bc"):
        g = close(nm, g)
    return g


def send_rule(target_id: int, weight: float) -> RuleFamily:
    snd_l = nest(ion(SN, ["x", "y"]), merge_all([ion(IDC, param=0), ion(DATA), site()]))
    rcv_l = nest(ion(SN, ["x", "z"]), merge_all([ion(IDC, param=target_id), ion(ACTIVE), site()]))
    snd_r = nest(ion(SN, ["x", "y"]), merge_all([ion(IDC, param=0), site()]))
    rcv_r = nest(
        ion(SN, ["x", "z"]),
        merge_all([ion(IDC, param=target_id), ion(ACTIVE), ion(DATA), site()]),
    )
    return RuleFamily(
        f"send_data_{target_id}", (), merge(snd_l, rcv_l), merge(snd_r, rcv_r), weight
    )


def build_sensor_model() -> Model:
    classes = [
        [
            RuleEntry(send_rule(1, 0.7), ()),
            RuleEntry(send_rule(2, 0.3), ()),
        ]
    ]
    actions = [("send", ("send_data_1", "send_data_2"))]
    preds = [
        ("data_at_b", nest(ion(SN, ["x", "y"]), merge_all([ion(IDC, param=1), ion(DATA), site()]))),
        ("data_at_c", nest(ion(SN, ["x", "y"]), merge_all([ion(IDC, param=2), ion(DATA), site()]))),
    ]
    return Model(
        controls={c.name: c for c in (SN, DATA, ACTIVE, IDC)},
        classes=classes,
        actions=actions,
        patterns=[Pattern(n, b) for n, b in preds],
        init=sensor_initial(),
        name="sensor",
    )


@pytest.fixture(scope="session")
def sensor_model_prog():
    return build_sensor_model()


# --- symmetric token models (.big text) ------------------------------------


def token_model(k: int, links: str = "none") -> str:
    """`k` interchangeable tokens that move one at a time from Bag to Out.

    `links` is "none" (bare atoms), "pairs" (tokens closed-linked in pairs)
    or "ring" (one closed cycle through all tokens).
    """
    if links == "none":
        ports, toks, names = "", ["Tok"] * k, []
    elif links == "pairs":
        ports, toks = "{a}", [f"Tok{{p{i // 2}}}" for i in range(k)]
        names = [f"p{i}" for i in range(k // 2)]
    else:
        ports, toks = "{a,b}", [f"Tok{{r{i},r{(i + 1) % k}}}" for i in range(k)]
        names = [f"r{i}" for i in range(k)]
    closes = "".join(f"/{n} " for n in names)
    return (
        f"atomic ctrl Tok = {len(ports) // 2};\nctrl Bag = 0;\nctrl Out = 0;\n"
        "atomic ctrl Floor = 0;\n"
        f"react move = Bag.(Tok{ports} | id) || Out.id -[1]-> Bag.id || Out.(Tok{ports} | id);\n"
        f"big start = {closes}(Bag.({' | '.join(toks)}) || Out.Floor);\n"
        "begin abrs\n  init start;\n  rules = [ {move} ];\n  actions = [ move = {move} ];\nend\n"
    )


def tick_model(k: int) -> str:
    """A pure tick over `k` interchangeable clocks from 0, with values 0..2 in
    the rule: 4 states in a chain.  `tests/data/tick9.big` is `tick_model(9)`,
    `tests/data/tick30.big` is `tick_model(30)`."""
    ids = range(1, k + 1)
    formals = ", ".join(f"c{i}" for i in ids)
    clocks = lambda step: " | ".join(f"LC(c{i}{step}){{l{i}}}" for i in ids)
    closes = "".join(f"/t{i}" for i in ids)
    return (
        f"# a pure tick over {k} interchangeable clocks\n"
        "atomic fun ctrl LC(c) = 1;\nctrl Clocks = 0;\n"
        f"fun react clock_advance({formals}) =\n"
        f"  Clocks.( {clocks('')} )\n  -[1]->\n  Clocks.( {clocks(' + 1')} );\n"
        f"big start = {closes} Clocks.( {' | '.join(f'LC(0){{t{i}}}' for i in ids)} );\n"
        "fun big clock_at(v) = LC(v){l};\n"
        "begin abrs\n"
        + "".join(f"  int c{i} = {{0,1,2}};\n" for i in ids)
        + "  int v = {0,1,2,3};\n  init start;\n"
        f"  rules = [ {{clock_advance({formals})}} ];\n"
        "  actions = [ tick = {clock_advance} ];\n  preds = { clock_at(v) };\nend\n"
    )
