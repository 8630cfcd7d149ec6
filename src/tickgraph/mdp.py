"""Exhaustive state-space exploration into an explicit MDP, plus exporters.

States are bigraphs deduplicated by canonical form and numbered in BFS
order; per state, each enabled action contributes one choice holding a
probability distribution over successor states.  With `fix_deadlocks`,
`explore` gives a state with no enabled action a self-loop under the
reserved action `stall` when it expands it, so an MDP's choices are final
once `explore` (or `load_mdp`) returns.  Exporters write the PRISM
explicit-engine triple (.tra/.lab/.sta) and a DOT rendering; both are byte
deterministic.  The CLI caches a built MDP as one JSON document: the action
names, each state's canonical form (the string `Mdp.canon` holds, as it
is), and each choice as an action index with its `[target, probability]`
pairs.  Once labelled (by `check` or `export`) it also holds the sorted
label names and, per state, sorted indices into them.  `load_mdp` checks
every field and decodes nothing; `decode_states` decodes the forms of a
cache that is still to be labelled.  The cache is keyed on the model file's
hash and `--fix-deadlocks` (the caller's key, so one file per model serves
either setting and switching rewrites it) and on the code that wrote it: a
sha256 over this package's own `*.py` files, computed on the first cache
read or write in a process.  A cache is rebuilt when either differs, so any
edit to the package, a comment included, retires every cache written before
it.  `cache_digest` hashes a cache without that code field, so it names the
MDP alone.

Only `explore` and `decode_states` need the bigraph layers (`canon` and
`rules`, which load the others); they bind the names they call on first
use (see `records.on_first_use`), so loading, saving and exporting a cache
imports none of them, and `mdp.canonical_form` and the like remain the
names a wrap or a patch replaces.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
from time import perf_counter
from typing import TYPE_CHECKING

from .records import Record, ResourceLimit, on_first_use

if TYPE_CHECKING:
    from .bigraph import Bigraph, Control
    from .rules import Model

log = logging.getLogger(__name__)

_layers, __getattr__ = on_first_use(globals(), {
    ".canon": ("canonical_digest", "canonical_form", "decode_canonical"),
    ".rules": ("action_distribution", "enabled_outcomes"),
})


class ExplorationLimit(ResourceLimit):
    """The state budget tripped while expanding the state with digest
    `state` (first 16 hex digits of its `canonical_digest`) at BFS `depth`;
    the message ends with the number of states left to expand."""

    def __init__(self, msg: str, frontier: int, depth: int, state: str):
        super().__init__(f"{msg} (frontier {frontier})")
        self.frontier = frontier
        self.depth = depth
        self.state = state


class Choice(Record):
    __slots__ = ("action", "dist")
    __hash__ = None

    def __init__(self, action: str, dist: list[tuple[int, float]]):
        self.action = action
        self.dist = dist  # (target state, probability)


class Mdp(Record):
    """``_graph`` caches the solver's graph of ``choices`` (`verify.Graph`,
    with its condensation), which the MDP's first query builds and every
    later one reads: ``choices`` are final once `explore` or `load_mdp`
    returns.  Equality skips it."""

    __slots__ = ("states", "canon", "choices", "actions", "labels", "label_names", "_graph")
    _fields = __slots__[:-1]
    __hash__ = None

    def __init__(self, states: list[Bigraph], canon: list[str], choices: list[list[Choice]],
                 actions: list[str], labels: list[set[str]] | None = None,
                 label_names: set[str] | None = None):
        self.states = states  # empty when loaded from a cache, until decode_states
        self.canon = canon
        self.choices = choices
        self.actions = actions  # declared action order
        self.labels = [set() for _ in canon] if labels is None else labels
        self.label_names = label_names  # set by verify.label
        self._graph = None

    @property
    def n_states(self) -> int:
        return len(self.canon)

    @property
    def n_choices(self) -> int:
        return sum(len(cs) for cs in self.choices)

    @property
    def n_transitions(self) -> int:
        return sum(len(c.dist) for cs in self.choices for c in cs)

    def deadlocks(self) -> list[int]:
        return [s for s, cs in enumerate(self.choices) if not cs]


def explore(model: Model, max_states: int = 100_000, fix_deadlocks: bool = False) -> Mdp:
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
    `params.ParameterLimit`.  With `fix_deadlocks`, a state with no enabled
    action gets one choice, a self-loop under the reserved action `stall`,
    which is appended to `actions` unless the model declares it.
    At log level INFO each BFS level logs its depth, frontier size, the
    states discovered so far and the rate since the start.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    _layers()
    init = model.init
    if not init.is_ground():
        raise ValueError("initial bigraph must be ground")
    index: dict[str, int] = {canonical_form(init): 0}
    states = [init]
    choices: list[list[Choice]] = [[]]
    actions = list(model.action_order)
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
            if fix_deadlocks and not choices[s]:
                choices[s].append(Choice("stall", [(s, 1.0)]))
                if "stall" not in actions:
                    actions.append("stall")
        if log.isEnabledFor(logging.INFO):
            elapsed = perf_counter() - start
            log.info(
                "explore: depth %d, frontier %d, %d states, %.0f states/s",
                depth, len(frontier), len(states), len(states) / max(elapsed, 1e-9),
            )
        frontier = next_frontier
        depth += 1
    return Mdp(states=states, canon=list(index), choices=choices, actions=actions)


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

@functools.cache
def _code_digest() -> str:
    """sha256 over this package's `*.py` files, each file's name and bytes in
    name order: whatever writes a cache (its layout, the canonical forms,
    the successors and their probabilities, the labels) lives in them."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def save_mdp(path, mdp: Mdp, model_hash: str) -> None:
    """Write `mdp` to `path`, with its labels when it has been labelled."""
    action_idx = {a: i for i, a in enumerate(mdp.actions)}
    doc = {
        "code": _code_digest(),
        "key": model_hash,
        "actions": mdp.actions,
        "states": mdp.canon,
        "choices": [[[action_idx[c.action], c.dist] for c in cs] for cs in mdp.choices],
    }
    if mdp.label_names is not None:
        names = sorted(mdp.label_names)
        name_idx = {name: i for i, name in enumerate(names)}
        doc["label_names"] = names
        doc["labels"] = [sorted(name_idx[name] for name in ls) for ls in mdp.labels]
    text = json.dumps(doc, separators=(",", ":"))
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


def _is_label_row(x, n_names: int) -> bool:
    """Strictly increasing indices into the label names."""
    return type(x) is list and all(_is_index(i, n_names) for i in x) and all(
        a < b for a, b in zip(x, x[1:])
    )


def load_mdp(path, model_hash: str) -> Mdp | None:
    """Reload a cached MDP; None, never an exception, when the file is
    missing, unreadable or malformed, or was written by other code or under
    another key.

    Nothing is decoded: `states` is empty and the canonical forms are only
    checked to be distinct ASCII strings (see `decode_states`).  A labelled
    cache loads with its labels and label names.
    """
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read())
    except (OSError, ValueError, RecursionError):
        return None
    if type(doc) is not dict:
        return None
    if doc.get("key") != model_hash or doc.get("code") != _code_digest():
        return None
    actions, texts, table = doc.get("actions"), doc.get("states"), doc.get("choices")
    if not (_is_list_of(actions, str) and _is_list_of(texts, str) and _is_list_of(table, list)):
        return None
    # ASCII forms, one choice list per state, at least the initial state, no state twice
    if not (all(map(str.isascii, texts)) and 0 < len(texts) == len(table) == len(set(texts))):
        return None
    if not all(_is_choice(c, len(actions), len(texts)) for cs in table for c in cs):
        return None
    choices = [[Choice(actions[a], [(t, p) for t, p in dist]) for a, dist in cs] for cs in table]
    if "label_names" not in doc and "labels" not in doc:
        return Mdp([], texts, choices, actions)
    names, rows = doc.get("label_names"), doc.get("labels")
    if not (_is_list_of(names, str) and len(set(names)) == len(names)
            and type(rows) is list and len(rows) == len(texts)
            and all(_is_label_row(row, len(names)) for row in rows)):
        return None
    labels = [{names[i] for i in row} for row in rows]
    return Mdp([], texts, choices, actions, labels, label_names=set(names))


def decode_states(mdp: Mdp, controls: dict[str, Control]) -> Mdp | None:
    """`mdp` with its canonical forms decoded over `controls` into `states`;
    None, leaving `states` as it was, when a form does not decode."""
    _layers()
    try:
        mdp.states = [decode_canonical(key, controls) for key in mdp.canon]
    except ValueError:  # not a canonical form over these controls
        return None
    return mdp


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cache_digest(path) -> str:
    """sha256 of the cache at `path` without its `code` field, which
    `save_mdp` writes first: the digest names the MDP (and its labels), so
    it stays put when only the package's code changes."""
    with open(path, "rb") as fh:
        data = fh.read()
    head = b'{"code":"' + _code_digest().encode("ascii") + b'",'
    return hashlib.sha256(b"{" + data[len(head):] if data.startswith(head) else data).hexdigest()
