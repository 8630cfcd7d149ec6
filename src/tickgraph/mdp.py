"""Exhaustive state-space exploration into an explicit MDP, plus exporters.

States are bigraphs deduplicated by canonical form and numbered in BFS
order; per state, each enabled action contributes one choice holding a
probability distribution over successor states.  Exporters write the PRISM
explicit-engine triple (.tra/.lab/.sta) and a DOT rendering; both are byte
deterministic.  The CLI caches a built MDP as one JSON document: the action
names, each state's canonical form, and each choice as an action index with
its `[target, probability]` pairs.  It is keyed on the model file's hash,
`--fix-deadlocks` and the package version, and rebuilt when any differs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from time import perf_counter

from . import __version__
from .bigraph import Bigraph, Control
from .canon import canonical_digest, canonical_form, decode_canonical
from .rules import Model, action_distribution, enabled_outcomes

log = logging.getLogger(__name__)


class ExplorationLimit(Exception):
    """The state budget tripped while expanding the state with digest
    `state` (first 16 hex digits of its `canonical_digest`) at BFS `depth`."""

    def __init__(self, msg: str, frontier: int, depth: int, state: str):
        super().__init__(msg)
        self.frontier = frontier
        self.depth = depth
        self.state = state


@dataclass
class Choice:
    action: str
    dist: list[tuple[int, float]]  # (target state, probability)


@dataclass
class Mdp:
    states: list[Bigraph]
    canon: list[bytes]
    choices: list[list[Choice]]
    actions: list[str]  # declared action order
    labels: list[set[str]] = field(default_factory=list)
    label_names: set[str] | None = None  # set by verify.label

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_choices(self) -> int:
        return sum(len(cs) for cs in self.choices)

    @property
    def n_transitions(self) -> int:
        return sum(len(c.dist) for cs in self.choices for c in cs)

    def deadlocks(self) -> list[int]:
        return [s for s, cs in enumerate(self.choices) if not cs]


def explore(model: Model, max_states: int = 100_000) -> Mdp:
    """Breadth-first closure from the initial bigraph.

    States are numbered in discovery order: level by level, and within a
    level by frontier order, then action order, then successor order.
    Discovering more than `max_states` states raises ExplorationLimit.
    Interchangeable redex entities are matched once per orbit (see
    `rules.enabled_outcomes`), and of the outcomes whose matches the
    state's automorphisms map onto one another only the first is applied
    and canonicalised (see `rules.action_distribution`; every state was
    canonicalised, and its automorphisms recorded, when it was discovered).
    The distributions are those of every match, each probability summed
    exactly and rounded once.  A rule's probability that rounds to 0 raises
    `params.ParameterLimit`.
    At log level INFO each BFS level logs its depth, frontier size, the
    states discovered so far and the rate since the start.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    init = model.init
    if not init.is_ground():
        raise ValueError("initial bigraph must be ground")
    index: dict[bytes, int] = {canonical_form(init): 0}
    states = [init]
    choices: list[list[Choice]] = [[]]
    frontier = [0]
    depth = 0
    start = perf_counter()
    while frontier:
        next_frontier: list[int] = []
        for s in frontier:
            agent = states[s]
            for action, outcomes in enabled_outcomes(agent, model).items():
                dist: list[tuple[int, float]] = []
                for succ, prob in action_distribution(agent, outcomes, action):
                    key = canonical_form(succ)
                    t = index.get(key)
                    if t is None:
                        t = len(states)
                        if t >= max_states:
                            digest = canonical_digest(agent)[:16]
                            raise ExplorationLimit(
                                f"state budget {max_states} exceeded at depth {depth}"
                                f" while expanding state {digest}",
                                frontier=len(frontier) + len(next_frontier),
                                depth=depth,
                                state=digest,
                            )
                        index[key] = t
                        states.append(succ)
                        choices.append([])
                        next_frontier.append(t)
                    dist.append((t, prob))
                choices[s].append(Choice(action, dist))
        if log.isEnabledFor(logging.INFO):
            elapsed = perf_counter() - start
            log.info(
                "explore: depth %d, frontier %d, %d states, %.0f states/s",
                depth, len(frontier), len(states), len(states) / max(elapsed, 1e-9),
            )
        frontier = next_frontier
        depth += 1
    return Mdp(
        states=states,
        canon=list(index),
        choices=choices,
        actions=list(model.action_order),
        labels=[set() for _ in states],
    )


def add_stall_loops(mdp: Mdp) -> int:
    """Give deadlock states a self-loop under the reserved action `stall`."""
    fixed = 0
    for s in mdp.deadlocks():
        mdp.choices[s].append(Choice("stall", [(s, 1.0)]))
        fixed += 1
    if fixed and "stall" not in mdp.actions:
        mdp.actions.append("stall")
    return fixed


# ---------------------------------------------------------------------------
# exporters


def _fmt_prob(p: float) -> str:
    return f"{p:.12g}"


def export_prism(mdp: Mdp) -> tuple[str, str, str]:
    """PRISM explicit files (tra, lab, sta), bit deterministic."""
    rows = []
    for s, cs in enumerate(mdp.choices):
        for ci, choice in enumerate(cs):
            for t, p in choice.dist:
                rows.append(f"{s} {ci} {t} {_fmt_prob(p)} {choice.action}")
    tra = f"{mdp.n_states} {mdp.n_choices} {mdp.n_transitions}\n" + "".join(
        r + "\n" for r in rows
    )

    pred_names = sorted({name for labels in mdp.labels for name in labels})
    header = ['0="init"', '1="deadlock"'] + [
        f'{i + 2}="{name}"' for i, name in enumerate(pred_names)
    ]
    pred_id = {name: i + 2 for i, name in enumerate(pred_names)}
    deadlocks = set(mdp.deadlocks())
    lab_lines = [" ".join(header)]
    for s in range(mdp.n_states):
        ids = []
        if s == 0:
            ids.append(0)
        if s in deadlocks:
            ids.append(1)
        ids.extend(sorted(pred_id[name] for name in mdp.labels[s]))
        if ids:
            lab_lines.append(f"{s}: " + " ".join(str(i) for i in ids))
    lab = "\n".join(lab_lines) + "\n"

    sta = "(state)\n" + "".join(f"{s}:({s})\n" for s in range(mdp.n_states))
    return tra, lab, sta


def export_dot(mdp: Mdp) -> str:
    out = ["digraph mdp {", "  node [shape=ellipse];"]
    for s in range(mdp.n_states):
        label = str(s)
        if mdp.labels[s]:
            label += "\\n" + ",".join(sorted(mdp.labels[s]))
        out.append(f'  s{s} [label="{label}"];')
    for s, cs in enumerate(mdp.choices):
        for ci, choice in enumerate(cs):
            mid = f"s{s}c{ci}"
            out.append(f"  {mid} [shape=point];")
            out.append(f'  s{s} -> {mid} [label="{choice.action}"];')
            for t, p in choice.dist:
                out.append(f'  {mid} -> s{t} [label="{_fmt_prob(p)}"];')
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# cache (one JSON document)

# Names the layout, the canonical-form encoding and how probabilities are
# rounded; bump it when any of them changes.  A cache of another format,
# package version or model key is rebuilt.
_FORMAT = "tickgraph-mdp/2"


def save_mdp(path, mdp: Mdp, model_hash: str) -> None:
    action_idx = {a: i for i, a in enumerate(mdp.actions)}
    text = json.dumps({
        "format": _FORMAT,
        "version": __version__,
        "key": model_hash,
        "actions": mdp.actions,
        "states": [key.decode("ascii") for key in mdp.canon],
        "choices": [[[action_idx[c.action], c.dist] for c in cs] for cs in mdp.choices],
    }, separators=(",", ":"))
    # a reader sees the old file or the new one, never a partial write
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _is_list_of(x, kind: type) -> bool:
    return type(x) is list and all(type(y) is kind for y in x)  # a bool is not an int


def _is_index(x, n: int) -> bool:
    return type(x) is int and 0 <= x < n


def _is_choice(x, n_actions: int, n_states: int) -> bool:
    """`[action index, [[target, probability], ...]]` with at least one pair
    and every probability in (0, 1] (NaN fails both comparisons)."""
    if not (type(x) is list and len(x) == 2 and _is_index(x[0], n_actions)):
        return False
    dist = x[1]
    return type(dist) is list and dist != [] and all(
        type(tp) is list and len(tp) == 2 and _is_index(tp[0], n_states)
        and type(tp[1]) is float and 0.0 < tp[1] <= 1.0
        for tp in dist
    )


def load_mdp(path, controls: dict[str, Control], model_hash: str) -> Mdp | None:
    """Reload a cached MDP; None, never an exception, when the file is
    missing, unreadable or malformed, or has another format, version or key."""
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except (OSError, ValueError, RecursionError):
        return None
    if type(doc) is not dict:
        return None
    if (doc.get("format"), doc.get("version"), doc.get("key")) != (_FORMAT, __version__, model_hash):
        return None
    actions, texts, table = doc.get("actions"), doc.get("states"), doc.get("choices")
    if not (_is_list_of(actions, str) and _is_list_of(texts, str) and _is_list_of(table, list)):
        return None
    # one choice list per state, and at least the initial state
    if not 0 < len(texts) == len(table):
        return None
    if not all(_is_choice(c, len(actions), len(texts)) for cs in table for c in cs):
        return None
    try:
        canon = [text.encode("ascii") for text in texts]
        states = [decode_canonical(key, controls) for key in canon]
    except ValueError:  # not ASCII, or not a canonical form over these controls
        return None
    choices = [[Choice(actions[a], [(t, p) for t, p in dist]) for a, dist in cs] for cs in table]
    return Mdp(states, canon, choices, actions, labels=[set() for _ in texts])


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
