"""Seeded inputs for the benchmark: `.big` models, property files and MDPs.

Everything here is a pure function of a `random.Random` (or of explicit
sizes), so one seed always yields byte-identical inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ---------------------------------------------------------------------------
# properties: structured tuples, rendered to tickgraph's syntax by `render`
#   ("P", bound, p, expr) | ("AG", bad) | ("AF", goal) | ("EF", x) | ("FN", trig, nxt)
# expr: ("name", s) | ("not", e) | ("and", a, b) | ("or", a, b)


def render_expr(e) -> str:
    if e[0] == "name":
        return f'"{e[1]}"'
    if e[0] == "not":
        return "!" + render_expr(e[1])
    op = " & " if e[0] == "and" else " | "
    return "(" + render_expr(e[1]) + op + render_expr(e[2]) + ")"


def render(prop) -> str:
    kind = prop[0]
    if kind == "P":
        return f"P {prop[1]} {prop[2]} [ F {render_expr(prop[3])} ]"
    if kind == "AG":
        return f"A [ G !{render_expr(prop[1])} ]"
    if kind == "AF":
        return f"A [ F {render_expr(prop[1])} ]"
    if kind == "EF":
        return f"E [ F {render_expr(prop[1])} ]"
    return f"FORCEDNEXT {render_expr(prop[1])} -> {render_expr(prop[2])}"


def random_props(names: list[str], rng: random.Random) -> list:
    """One property of each kind over the given predicate names."""
    pick = lambda: ("name", rng.choice(names))
    p = lambda: round(rng.choice((0.1, 0.25, 0.5, 0.75, 0.9)) + rng.choice((0.01, -0.01)), 2)
    return [
        ("P", ">=", p(), pick()),
        ("P", "<=", p(), ("or", pick(), pick())),
        ("AG", ("and", pick(), pick())),
        ("EF", pick()),
        ("AF", ("or", pick(), pick())),
        ("FN", pick(), pick()),
    ]


# ---------------------------------------------------------------------------
# timed models


@dataclass(frozen=True)
class ModelSpec:
    """One generated model: its `.big` text and family facts."""

    text: str
    family: str
    size: int  # requests, clock bound or token count, by family
    links: str = ""  # token family only: none, pairs or ring


def cloud_windows(n: int, profile: int) -> list[tuple[int, int, int, int]]:
    """A fixed table of (release, deadline, S1 return, S2 return) clock values.

    Releases are staggered as in the bundled model; two requests get a
    one-unit send window.  The table depends only on (n, profile), so every
    benchmark seed explores models of the same size.
    """
    rng = random.Random(1000 * n + profile)
    slack = set(rng.sample(range(n), 2))
    rows = []
    for i in range(n):
        r = i + rng.randint(0, 1)
        d = r + (1 if i in slack else 0)
        a = d + rng.randint(2, 3)
        rows.append((r, d, a, a + 1))
    return rows


def cloud_family(n: int, profile: int, rng: random.Random) -> ModelSpec:
    """The bundled cloud model's shape with `n` requests, one per end user.

    Request i may be sent from clock value `release` and must be sent at
    `deadline`; it returns from server 1 or 2 at fixed absolute clock values.
    The seed assigns the rows of `cloud_windows(n, profile)` to requests.
    """
    if not 1 <= n <= 5:
        raise ValueError("cloud family: 1 to 5 requests")
    rows = cloud_windows(n, profile)
    rng.shuffle(rows)
    rel, dead, p1, p2 = (list(col) for col in zip(*rows))
    cmax = max(p2)
    gmax = cmax + 3
    xmax = cmax + 2
    ids = range(1, n + 1)
    lc = lambda off: " | ".join(f"LC(c{i}{off}){{l{i}}}" for i in ids)
    cparams = ", ".join(f"c{i}" for i in ids)
    done_l = " | ".join(f"EU{{x{i},e}}.R{{x{i},k{i}}}.(Result | id)" for i in ids)
    done_r = " | ".join(f"EU{{x{i},e}}.R{{x{i},k{i}}}.(Stop | id)" for i in ids)
    init_eu = " | ".join(f"EU{{x{i},e}}.R{{x{i},t{i}}}.(Wait | ID({i}))" for i in ids)
    init_lc = " | ".join(f"LC(0){{t{i}}}" for i in ids)
    closes = "".join(f"/x{i}/t{i}" for i in ids)
    rng_set = lambda lo, hi: "{" + ",".join(str(v) for v in range(lo, hi + 1)) + "}"
    ints = [f"  int {v} = {rng_set(0, cmax)};" for v in (f"c{i}" for i in ids)]
    ints.append(f"  int gc = {rng_set(0, gmax)};")
    ints.append(f"  int i = {rng_set(1, n)};")
    ints.append(f"  int x = {rng_set(0, xmax)};")
    forced, optional, ret1, ret2 = [], [], [], []
    for i in ids:
        j = i - 1
        ints.append(f"  int dl{i} = {{{dead[j]}}};")
        ints.append(f"  int pa{i} = {{{p1[j]}}};")
        ints.append(f"  int pb{i} = {{{p2[j]}}};")
        forced.append(f"sendingRequest({i}, dl{i})")
        if rel[j] < dead[j]:
            ints.append(f"  int rl{i} = {rng_set(rel[j], dead[j] - 1)};")
            optional.append(f"sendingRequest({i}, rl{i})")
        ret1.append(f"returnRequest_S1({i}, pa{i})")
        ret2.append(f"returnRequest_S2({i}, pb{i})")
    text = f"""# generated cloud-family model: {n} requests
ctrl FrontEnd = 0;
ctrl EU = 2;
ctrl R = 2;
atomic ctrl Processing = 0;
atomic ctrl Result = 0;
atomic ctrl Wait = 0;
atomic ctrl Idle = 0;
atomic ctrl Stop = 0;
ctrl BackEnd = 0;
ctrl DC = 1;
ctrl S = 1;
atomic ctrl S1 = 0;
atomic ctrl S2 = 0;
ctrl VM = 0;
atomic fun ctrl ID(i) = 0;
ctrl LocalClock = 0;
atomic fun ctrl LC(requestClock) = 1;
atomic fun ctrl GC(globalClock) = 0;

fun react clock_advance({cparams}, gc) =
  LocalClock.( {lc("")} ) | GC(gc)
  -[1]->
  LocalClock.( {lc(" + 1")} ) | GC(gc + 1) if ! Stop in ctx;

fun react sendingRequest(i, t) =
  EU{{x1,y1}}.(R{{x1,c1}}.(ID(i) | Wait) | id) || DC{{y1}}.( S{{e2}}.VM.(Idle | id) | id ) || LC(t){{c1}}
  -[1]->
  EU{{x1,y1}}.id || DC{{y1}}.( S{{e2}}.VM.(R{{x1,c1}}.(ID(i) | Processing) | id) | id ) || LC(t){{c1}};

fun react returnRequest_S1(i, t) =
  EU{{x1,y1}}.id || DC{{y1}}.( S{{e2}}.VM.(R{{x1,c1}}.(ID(i) | Processing) | S1) | id ) || LC(t){{c1}}
  -[1]->
  EU{{x1,y1}}.(R{{x1,c1}}.(ID(i) | Result) | id) || DC{{y1}}.( S{{e2}}.VM.(Idle | S1) | id ) || LC(0){{c1}};

fun react returnRequest_S2(i, t) =
  EU{{x1,y1}}.id || DC{{y1}}.( S{{e2}}.VM.(R{{x1,c1}}.(ID(i) | Processing) | S2) | id ) || LC(t){{c1}}
  -[1]->
  EU{{x1,y1}}.(R{{x1,c1}}.(ID(i) | Result) | id) || DC{{y1}}.( S{{e2}}.VM.(Idle | S2) | id ) || LC(0){{c1}};

react done =
  {done_l}
  -[1]->
  {done_r};

big cloudSystem =
/e/e2{closes} (
  FrontEnd.( {init_eu} )
  || BackEnd.(DC{{e}}.( S{{e2}}.VM.(Idle | S1) | S{{e2}}.VM.(Idle | S2) ))
  || LocalClock.( {init_lc} ) | GC(0)
);

fun big request_Sent_to_S1_at(i, x) = S{{e2}}.VM.(R{{x1,c1}}.(ID(i) | Processing) | S1) || LC(x){{c1}};
fun big request_Return_at(i, x) = R{{x1,c1}}.(ID(i) | Result) || LC(x){{c1}};
fun big req_waiting_at(i, x) = R{{x1,c1}}.(ID(i) | Wait) || LC(x){{c1}};
fun big req_processing(i) = R{{x1,c1}}.(ID(i) | Processing);
fun big req_returned(i) = R{{x1,c1}}.(ID(i) | Result);
big stopped = Stop;

begin abrs
{chr(10).join(ints)}

  init cloudSystem;

  rules = [
    {{done}},
    {{{", ".join(ret1 + ret2)}}},
    {{{", ".join(forced)}}},
    {{{", ".join(optional + ["clock_advance(" + cparams + ", gc)"])}}}
  ];

  actions = [
    send = {{sendingRequest}},
    return = {{returnRequest_S1, returnRequest_S2}},
    tick = {{clock_advance}},
    stop = {{done}}
  ];

  preds = {{
    request_Sent_to_S1_at(i, x),
    request_Return_at(i, x),
    req_waiting_at(i, x),
    req_processing(i),
    req_returned(i),
    stopped
  }};
end
"""
    return ModelSpec(text, "cloud", n)


def pta_family(horizon: int, rng: random.Random) -> ModelSpec:
    """The bundled PTA's send/retry process with a clock bound of `horizon`.

    The retry window is the last three units before `horizon`; the seed
    draws the init deadline and the send success weight.
    """
    init_max = rng.randint(2, 3)
    wait_lo = horizon - 3
    ok = rng.choice((0.9, 0.95, 0.99))
    iset = lambda lo, hi: "{" + ",".join(str(v) for v in range(lo, hi + 1)) + "}"
    text = f"""# generated pta-family model: clock bound {horizon}
atomic fun ctrl X(n) = 1;
ctrl S = 1;
atomic ctrl Init = 0;
atomic ctrl Send = 0;
atomic ctrl Wait = 0;
atomic ctrl Done = 0;

fun react init_transition(n) = S{{c}}.Init || X(n){{c}} -[1]-> S{{c}}.Send || X(0){{c}};
fun react send_transition_success(n) = S{{c}}.Send || X(n){{c}} -[{ok}]-> S{{c}}.Done || X(n){{c}};
fun react send_transition_fail(n) = S{{c}}.Send || X(n){{c}} -[{round(1 - ok, 2)}]-> S{{c}}.Wait || X(n){{c}};
fun react wait_transition(n) = S{{c}}.Wait || X(n){{c}} -[1]-> S{{c}}.Send || X(0){{c}};
react done_done = S{{c}}.Done -[1]-> S{{c}}.Done;
fun react clock_advance(n) = X(n){{c}} -[1]-> X(n + 1){{c}};

fun big clock_X(m) = X(m){{c}};
big in_Init_state = S{{c}}.Init;
big in_Send_state = S{{c}}.Send;
big in_Wait_state = S{{c}}.Wait;
big in_Done_state = S{{c}}.Done;

big example_PTA = /c (S{{c}}.Init || X(0){{c}});

begin abrs
  int n = {iset(0, horizon)};
  int m = {iset(0, horizon + 1)};
  int maxInitT = {{{init_max}}};
  int init_Sending_Time = {iset(0, init_max - 1)};
  int maxSendT = 0;
  int maxWaitT = {horizon};
  int wait_Sending_Time = {iset(wait_lo, horizon - 1)};

  init example_PTA;

  rules = [
    {{done_done, init_transition(maxInitT), send_transition_fail(maxSendT),
     send_transition_success(maxSendT), wait_transition(maxWaitT)}},
    {{clock_advance(n), wait_transition(wait_Sending_Time), init_transition(init_Sending_Time)}}
  ];

  actions = [
    send = {{send_transition_success, send_transition_fail}},
    retry = {{wait_transition}},
    rec = {{init_transition}},
    deadlock = {{done_done}},
    tick = {{clock_advance}}
  ];

  preds = {{ in_Init_state, in_Send_state, in_Wait_state, in_Done_state, clock_X(m) }};
end
"""
    return ModelSpec(text, "pta", horizon)


def token_family(k: int, links: str, marks=()) -> ModelSpec:
    """`k` interchangeable tokens that move one at a time from Bag to Out.

    `links` is "none" (bare atoms), "pairs" (tokens closed-linked in pairs,
    k even) or "ring" (one closed cycle through all tokens, k >= 3).  `marks`
    are distinct bystander atoms in Out; they change no count.
    """
    if len(set(marks)) != len(marks):
        raise ValueError("token family: marks must be distinct")
    if links == "none":
        arity, toks = 0, ["Tok"] * k
        names = []
    elif links == "pairs":
        if k % 2:
            raise ValueError("token family: pairs need an even k")
        arity = 1
        toks = [f"Tok{{p{i // 2}}}" for i in range(k)]
        names = [f"p{i}" for i in range(k // 2)]
    elif links == "ring":
        if k < 3:
            raise ValueError("token family: a ring needs k >= 3")
        arity = 2
        toks = [f"Tok{{r{i},r{(i + 1) % k}}}" for i in range(k)]
        names = [f"r{i}" for i in range(k)]
    else:
        raise ValueError(f"token family: unknown links {links!r}")
    ports = {0: "", 1: "{a}", 2: "{a,b}"}[arity]
    closes = "".join(f"/{n}" for n in names)
    text = f"""# generated token model: {k} tokens, links {links}
atomic ctrl Tok = {arity};
ctrl Bag = 0;
ctrl Out = 0;
atomic ctrl Floor = 0;
atomic fun ctrl Mark(v) = 0;

react move = Bag.(Tok{ports} | id) || Out.id -[1]-> Bag.id || Out.(Tok{ports} | id);

big start = {closes} (Bag.({" | ".join(toks)}) || Out.({" | ".join(["Floor"] + [f"Mark({v})" for v in marks])}));
big in_bag = Bag.(Tok{ports} | id);

begin abrs
  init start;
  rules = [ {{move}} ];
  actions = [ move = {{move}} ];
  preds = {{ in_bag }};
end
"""
    return ModelSpec(text, "token", k, links)


# ---------------------------------------------------------------------------
# synthetic MDPs for the solver


@dataclass
class SyntheticMdp:
    """An explicit MDP as plain lists: choices[s] = [(action, [(t, p), ...])]."""

    shape: str
    choices: list
    labels: list  # per state: set of label names
    props: list  # structured properties over the labels, see `render`


def _normalise(rng: random.Random, k: int) -> list[float]:
    w = [rng.random() + 0.05 for _ in range(k)]
    total = sum(w)
    return [x / total for x in w]


def layered_mdp(layers: int, width: int, rng: random.Random) -> SyntheticMdp:
    """Acyclic, time-layered: every transition goes one layer forward, like a
    timed model whose global clock only rises.  Goal and fail states sit in
    the last layer and are absorbing."""
    n = 1 + (layers - 1) * width
    layer_of = lambda s: 0 if s == 0 else 1 + (s - 1) // width
    choices, labels = [], []
    for s in range(n):
        lay = layer_of(s)
        labels.append(set())
        if lay == layers - 1:
            choices.append([])
            labels[s].add("goal" if (s - 1) % 3 else "fail")
            continue
        base = 1 + lay * width
        cs = []
        for a in ("tick", "act")[: rng.randint(1, 2)]:
            k = rng.randint(1, 3)
            ts = sorted(rng.sample(range(base, base + width), k))
            cs.append((a, list(zip(ts, _normalise(rng, k)))))
        choices.append(cs)
        if lay and rng.random() < 0.05:
            labels[s].add("risky")
    goal, fail, risky = ("name", "goal"), ("name", "fail"), ("name", "risky")
    props = [
        ("P", ">=", 0.51, goal),
        ("P", "<=", 0.89, goal),
        ("P", "<", 0.49, fail),
        ("AG", risky),
        ("AF", ("or", goal, fail)),
    ]
    return SyntheticMdp("layered", choices, labels, props)


def chain_mdp(n: int, rng: random.Random) -> SyntheticMdp:
    """A retry chain: state i moves on, retries or fails; two actions per
    state with different odds.  Values have a closed form (see refs)."""
    choices, labels = [], []
    fail = n
    for s in range(n):
        labels.append({"goal"} if s == n - 1 else set())
        if s == n - 1:
            choices.append([])
            continue
        cs = []
        for a in ("safe", "fast"):
            f = rng.uniform(0.0002, 0.001) if a == "safe" else rng.uniform(0.0, 0.002)
            r = rng.uniform(0.05, 0.3) if a == "safe" else 0.0
            cs.append((a, [(s + 1, 1.0 - f - r), (s, r), (fail, f)] if r else [(s + 1, 1.0 - f), (fail, f)]))
        choices.append(cs)
    choices.append([])
    labels.append({"fail"})
    goal, fail = ("name", "goal"), ("name", "fail")
    props = [("P", ">=", 0.31, goal), ("P", "<=", 0.61, goal), ("AG", fail), ("EF", goal)]
    return SyntheticMdp("chain", choices, labels, props)


def cyclic_mdp(n: int, instance: int, rng: random.Random) -> SyntheticMdp:
    """Random cyclic MDP with 2% targets and an absorbing fail sink reached
    with small probability from every state, so no state is decided by the
    0/1 precomputation alone and iteration needs many sweeps.

    The graph (targets, actions per state, successors) depends only on
    (n, instance); the seed draws the probabilities and leaks.  How many
    sweeps value iteration takes depends mostly on the graph, so every seed
    gives about the same work.
    """
    graph = random.Random(1000 * n + instance)
    fail = n
    goals = set(graph.sample(range(1, n), max(1, n // 50)))
    choices, labels = [], []
    for s in range(n):
        labels.append({"goal"} if s in goals else set())
        if s in goals:
            choices.append([])
            continue
        cs = []
        for a in ("a", "b", "c")[: graph.randint(1, 3)]:
            k = graph.randint(1, 4)
            ts = graph.sample(range(n), k)
            ps = _normalise(rng, k)
            leak = rng.uniform(0.001, 0.01)
            cs.append((a, [(t, p * (1 - leak)) for t, p in zip(ts, ps)] + [(fail, leak)]))
        choices.append(cs)
    choices.append([])
    labels.append({"fail"})
    # Pmin of the sink and Pmax of the goal are the two queries the 0/1
    # precomputation cannot settle here
    goal, fail = ("name", "goal"), ("name", "fail")
    props = [("P", ">=", 0.21, fail), ("P", "<=", 0.79, goal)]
    return SyntheticMdp("cyclic", choices, labels, props)
