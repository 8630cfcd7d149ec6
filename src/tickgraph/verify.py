"""Bigraph-pattern state labelling and a small probabilistic property checker.

A pattern labels every state it occurs in.  A predicate family is one
pattern: its symbolic body is searched once per state with its parameters
restricted to their domains, and each distinct binding names the instances
(`base_v1_v2...`) that hold there.  Properties range over boolean
combinations of labels: probabilistic reachability with a bound, safety
("never bad"), inevitability ("always eventually goal"), and the forced-next
idiom ("whenever the trigger holds, every possible next state satisfies the
target" plus the trigger being inevitable).  They are parsed from `.props`
text by :func:`tickgraph.lang.parse_properties`, which this module
re-exports; nothing here parses.

Reachability is solved in two phases over the MDP's CSR arrays and their
predecessor index, both built once per query.  First the states whose value
is exactly 0 or 1 are found by worklist fixpoints, so 0 and 1 answers are
exact.  Then the remaining states are split into strongly connected
components (SCCs), solved in reverse topological order so that every
successor outside an SCC is final: a single-state SCC in closed form, a
cyclic SCC by Jacobi value iteration over its own states until no value
moves by VI_TOL.  An SCC that does not converge within VI_MAX_SWEEPS
raises a RuntimeError naming its size, lowest state and actions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .kernels import Graph, as_arrays, sweep
from .lang import ForcedNext, Inevitable, Property, Reach, Safety
from .lang import parse_properties  # re-exported beside the checker it feeds
from .match import Host, occurrences
from .mdp import Mdp
from .rules import Pattern

log = logging.getLogger(__name__)

VI_TOL = 1e-9
VI_MAX_SWEEPS = 1_000_000


def label(mdp: Mdp, patterns: list[Pattern]) -> Mdp:
    """Attach to every state the names of the pattern instances occurring in it.

    One search per pattern per state, all searches of a state sharing its
    match tables.  A body with parameter arithmetic cannot bind its
    parameters, so such a family must be given as one plain pattern per
    instance (the elaborator does so).
    """
    start = perf_counter()
    for p in patterns:
        if p.has_arithmetic:
            raise ValueError(f"pattern {p.name}: parameter arithmetic cannot be matched")
    labels: list[set[str]] = [set() for _ in mdp.states]
    searches = matches = 0
    for g, names in zip(mdp.states, labels):
        host = Host(g)
        for p in patterns:
            found = occurrences(host, p.body, domains=p.match_domains)
            searches += 1
            matches += len(found)
            for binding in {m.binding for m in found}:
                names.update(p.instance_name(vs) for vs in p.valuations(binding))
    mdp.labels = labels
    mdp.label_names = {n for p in patterns for n in p.instance_names()}
    log.info(
        "label: %d states, %d patterns, %d searches, %d matches, %.3f s",
        mdp.n_states, len(patterns), searches, matches, perf_counter() - start,
    )
    return mdp


# ---------------------------------------------------------------------------
# label expressions


class UnknownLabel(Exception):
    pass


# expressions are the tuples of `tickgraph.lang`: ("name", s) | ("not", e) |
# ("and", a, b) | ("or", a, b)


def expr_names(expr) -> set[str]:
    if expr[0] == "name":
        return {expr[1]}
    if expr[0] == "not":
        return expr_names(expr[1])
    return expr_names(expr[1]) | expr_names(expr[2])


def eval_expr(expr, labels: set[str]) -> bool:
    op = expr[0]
    if op == "name":
        return expr[1] in labels
    if op == "not":
        return not eval_expr(expr[1], labels)
    if op == "and":
        return eval_expr(expr[1], labels) and eval_expr(expr[2], labels)
    return eval_expr(expr[1], labels) or eval_expr(expr[2], labels)


def satisfying(mdp: Mdp, expr) -> list[bool]:
    if mdp.label_names is not None:
        missing = expr_names(expr) - mdp.label_names
        if missing:
            raise UnknownLabel(f"unknown pattern name(s): {sorted(missing)}")
    return [eval_expr(expr, labels) for labels in mdp.labels]


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Verdict:
    holds: bool
    value: float | None = None
    detail: str = ""


# ---------------------------------------------------------------------------
# reachability


def _avoid_set(g: Graph, target: list[bool]) -> list[bool]:
    """States from which some scheduler avoids the target forever (Pmin = 0).

    Greatest fixpoint from the non-target states, as a worklist: per choice
    the count of transitions leaving the set, per state the count of choices
    still wholly inside it.  A state with choices leaves when that count
    drops to zero; deadlocks never leave.
    """
    cp, tp, tg = g.choice_ptr, g.trans_ptr, g.targets
    avoid = [not t for t in target]
    outside = [0] * len(g.choice_state)
    inside = [0] * g.n
    for c, s in enumerate(g.choice_state):
        outside[c] = sum(1 for k in range(tp[c], tp[c + 1]) if target[tg[k]])
        if not outside[c]:
            inside[s] += 1
    todo = [s for s in range(g.n) if avoid[s] and cp[s] < cp[s + 1] and not inside[s]]
    for s in todo:
        avoid[s] = False
    while todo:
        t = todo.pop()
        for j in range(g.pred_ptr[t], g.pred_ptr[t + 1]):
            c = g.pred_choice[j]
            outside[c] += 1
            if outside[c] == 1:
                s = g.choice_state[c]
                inside[s] -= 1
                if not inside[s] and avoid[s]:
                    avoid[s] = False
                    todo.append(s)
    return avoid


def _sure_set(g: Graph, target: list[bool], reach: list[bool]) -> list[bool]:
    """States where the best scheduler reaches the target with probability one.

    The nested fixpoint (greatest over candidate sets X of the least set grown
    from the target through choices that stay inside X and touch the grown
    set), run SCC by SCC in reverse topological order over the non-target
    states that can reach the target.  Targets are absorbing, and every
    successor outside the SCC is already known to be in the set or not, so
    a chain costs O(states + transitions).
    """
    cp, tp, tg = g.choice_ptr, g.trans_ptr, g.targets
    one = list(target)
    in_x = [False] * g.n
    in_y = [False] * g.n
    enabled = [False] * len(g.choice_state)
    for comp in g.sccs([r and not t for r, t in zip(reach, target)]):
        x = comp
        while x:
            for s in x:
                in_x[s] = True
            grown, opened = [], []
            for s in x:
                for c in range(cp[s], cp[s + 1]):
                    succ = tg[tp[c] : tp[c + 1]]
                    if all(in_x[t] or one[t] for t in succ):
                        enabled[c] = True
                        opened.append(c)
                        if not in_y[s] and any(one[t] for t in succ):
                            in_y[s] = True
                            grown.append(s)
            i = 0
            while i < len(grown):
                t = grown[i]
                i += 1
                for j in range(g.pred_ptr[t], g.pred_ptr[t + 1]):
                    s = g.pred_state[j]
                    if enabled[g.pred_choice[j]] and not in_y[s]:
                        in_y[s] = True
                        grown.append(s)
            for c in opened:
                enabled[c] = False
            for s in x:
                in_x[s] = in_y[s] = False
            if len(grown) == len(x):
                for s in x:
                    one[s] = True
                break
            x = grown
    return one


def zero_one(g: Graph, target: list[bool], mode: str) -> tuple[list[bool], list[bool]]:
    """Per state: is the Pmin or Pmax of reaching the target exactly 0, exactly 1?"""
    if mode == "max":
        reach = g.backward(target)
        return [not r for r in reach], _sure_set(g, target, reach)
    zero = _avoid_set(g, target)
    escape = g.backward(zero, through=[not t for t in target])
    return zero, [not e for e in escape]


def _closed_form(g: Graph, vals: list[float], s: int, minimize: bool) -> float:
    """Exact value of a single-state SCC whose successors are all solved:
    the best over choices of (sum of p * v[t] over t != s) / (1 - p_loop)."""
    tp, tg, pr = g.trans_ptr, g.targets, g.probs
    best = None
    for c in range(g.choice_ptr[s], g.choice_ptr[s + 1]):
        loop = rest = 0.0
        for k in range(tp[c], tp[c + 1]):
            if tg[k] == s:
                loop += pr[k]
            else:
                rest += pr[k] * vals[tg[k]]
        v = rest / (1.0 - loop) if loop < 1.0 else 0.0
        if best is None or (v < best if minimize else v > best):
            best = v
    return best


def _iterate(g: Graph, values: np.ndarray, comp: list[int], minimize: bool) -> bool:
    """Jacobi value iteration over one cyclic SCC whose successors outside it
    are all solved; False if it did not converge within VI_MAX_SWEEPS.
    Choices without transitions are left out: they are worth 0, so they
    never decide a maximum, and under the minimum a state with one has
    Pmin = 0 and is decided before this phase."""
    cp, tp = g.choice_ptr, g.trans_ptr
    choice_starts, trans_starts, trans = [], [], []
    for s in comp:
        choice_starts.append(len(trans_starts))
        for c in range(cp[s], cp[s + 1]):
            if tp[c] < tp[c + 1]:
                trans_starts.append(len(trans))
                trans.extend(range(tp[c], tp[c + 1]))
    args = (
        np.asarray(comp, dtype=np.int64),
        minimize,
        np.asarray(choice_starts, dtype=np.int64),
        np.asarray(trans_starts, dtype=np.int64),
        g.target_array[trans],
        g.prob_array[trans],
    )
    for _ in range(VI_MAX_SWEEPS):
        if sweep(values, *args) < VI_TOL:
            return True
    return False


def reach_vector(mdp: Mdp, target: list[bool], mode: str) -> np.ndarray:
    """Per-state probability of eventually reaching the target set."""
    if mode not in ("min", "max"):
        raise ValueError("mode must be min or max")
    g = Graph(*as_arrays([[(c.action, c.dist) for c in cs] for cs in mdp.choices]))
    zero, one = zero_one(g, target, mode)
    minimize = mode == "min"
    # vals mirrors values for the scalar reads of the closed form
    vals = [1.0 if o else 0.0 for o in one]
    values = np.asarray(vals, dtype=np.float64)
    for comp in g.sccs([not (z or o) for z, o in zip(zero, one)]):
        if len(comp) == 1:
            s = comp[0]
            vals[s] = values[s] = _closed_form(g, vals, s, minimize)
        else:
            if not _iterate(g, values, comp, minimize):
                actions = sorted({c.action for s in comp for c in mdp.choices[s]})
                raise RuntimeError(
                    f"value iteration did not converge within {VI_MAX_SWEEPS} sweeps "
                    f"on an SCC of {len(comp)} states (lowest state {comp[0]}) "
                    f"with actions {', '.join(actions)}"
                )
            for s, v in zip(comp, values[comp].tolist()):
                vals[s] = v
    return values


def reach_prob(mdp: Mdp, target_expr, mode: str) -> float:
    """Probability of reaching states satisfying the expression, from state 0."""
    return float(reach_vector(mdp, satisfying(mdp, target_expr), mode)[0])


# ---------------------------------------------------------------------------
# checking


def check(mdp: Mdp, prop: Property) -> Verdict:
    if isinstance(prop, Reach):
        v = reach_prob(mdp, prop.target, prop.mode)
        holds = {
            ">=": v >= prop.p,
            ">": v > prop.p,
            "<=": v <= prop.p,
            "<": v < prop.p,
        }[prop.bound]
        return Verdict(holds, v, f"P{prop.mode} = {v:.10g}")
    if isinstance(prop, Safety):
        v = reach_prob(mdp, prop.bad, "max")
        return Verdict(v == 0.0, v, f"Pmax(bad) = {v:.10g}")
    if isinstance(prop, Inevitable):
        v = reach_prob(mdp, prop.goal, "min")
        return Verdict(v == 1.0, v, f"Pmin = {v:.10g}")
    if isinstance(prop, ForcedNext):
        trig = satisfying(mdp, prop.trigger)
        nxt = satisfying(mdp, prop.next)
        v = float(reach_vector(mdp, trig, "min")[0])
        if v != 1.0:
            return Verdict(False, v, f"trigger not inevitable (Pmin = {v:.10g})")
        for s in range(mdp.n_states):
            if not trig[s]:
                continue
            if not mdp.choices[s]:
                return Verdict(False, None, f"trigger state {s} is a deadlock")
            for c in mdp.choices[s]:
                for t, _p in c.dist:
                    if not nxt[t]:
                        return Verdict(
                            False,
                            None,
                            f"state {s}, action {c.action} reaches {t} without the target",
                        )
        return Verdict(True, 1.0, "trigger inevitable and every successor satisfies next")
    raise TypeError(f"unknown property {prop!r}")
