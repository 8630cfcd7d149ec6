"""Exhaustive state-space exploration into an explicit MDP, plus exporters.

States are bigraphs deduplicated by canonical form and numbered in BFS
order; per state, each enabled action contributes one choice holding a
probability distribution over successor states.  Exporters write the PRISM
explicit-engine triple (.tra/.lab/.sta) and a DOT rendering; both are byte
deterministic.  A small versioned binary cache keyed by the model file hash
lets the CLI reuse a built MDP across commands.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
from dataclasses import dataclass, field
from time import perf_counter

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
    rules: tuple[str, ...] = ()  # contributing rule instances (diagnostics)


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
                rules: list[str] = []
                for succ, prob, names in action_distribution(agent, outcomes):
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
                    rules.extend(names)
                choices[s].append(Choice(action, dist, tuple(dict.fromkeys(rules))))
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
# cache (versioned, length-prefixed binary)

# The last byte names the canonical-form encoding the cache stores: \x02 is
# the individualisation-refinement encoding of canon.py.  A cache written with
# another encoding loads as None and is rebuilt.
_MAGIC = b"TGMDP\x02"


def save_mdp(path, mdp: Mdp, model_hash: str) -> None:
    chunks = [_MAGIC]

    def frame(data: bytes):
        chunks.append(struct.pack("<I", len(data)))
        chunks.append(data)

    frame(model_hash.encode())
    frame(struct.pack("<I", mdp.n_states))
    frame("\x00".join(mdp.actions).encode())
    for key in mdp.canon:
        frame(key)
    action_idx = {a: i for i, a in enumerate(mdp.actions)}
    for cs in mdp.choices:
        body = [struct.pack("<H", len(cs))]
        for choice in cs:
            rules = "\x00".join(choice.rules).encode()
            body.append(
                struct.pack("<HII", action_idx[choice.action], len(choice.dist), len(rules))
            )
            for t, p in choice.dist:
                body.append(struct.pack("<Id", t, p))
            body.append(rules)
        frame(b"".join(body))
    # a reader sees the old file or the new one, never a partial write
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(b"".join(chunks))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_mdp(path, controls: dict[str, Control], model_hash: str) -> Mdp | None:
    """Reload a cached MDP; None when missing, stale or unreadable."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    if not blob.startswith(_MAGIC):
        return None
    pos = len(_MAGIC)

    def frame() -> bytes:
        nonlocal pos
        (n,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + n > len(blob):
            raise ValueError("frame runs past the end of the cache")
        data = blob[pos : pos + n]
        pos += n
        return data

    try:
        if frame().decode() != model_hash:
            return None
        (n_states,) = struct.unpack("<I", frame())
        actions = frame().decode().split("\x00")
        canon = [frame() for _ in range(n_states)]
        states = [decode_canonical(key, controls) for key in canon]
        choices: list[list[Choice]] = []
        for _s in range(n_states):
            body = frame()
            bpos = 0
            (k,) = struct.unpack_from("<H", body, bpos)
            bpos += 2
            cs = []
            for _c in range(k):
                ai, nd, nr = struct.unpack_from("<HII", body, bpos)
                bpos += 10
                # a short slice raises struct.error or leaves bpos past the body
                dist = list(struct.iter_unpack("<Id", body[bpos : bpos + 12 * nd]))
                bpos += 12 * nd
                rules = body[bpos : bpos + nr].decode()
                bpos += nr
                cs.append(Choice(actions[ai], dist, tuple(rules.split("\x00")) if rules else ()))
            if bpos != len(body):
                return None
            choices.append(cs)
    except (struct.error, ValueError, IndexError):
        return None
    if pos != len(blob):
        return None
    return Mdp(states, canon, choices, actions, labels=[set() for _ in range(n_states)])


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
