"""Bigraph-pattern state labelling and a small probabilistic property checker.

A pattern labels every state it occurs in.  A predicate family is one
pattern: its symbolic body is searched once per state with its parameters
restricted to their domains, and each distinct binding names the instances
(`base_v1_v2...`) that hold there.  Properties range over boolean
combinations of labels; a name that no pattern declares, or any name on an
MDP not yet labelled, raises UnknownLabel.  Each threshold property is one
reachability bound (:class:`Reach`); `E [ F phi ]`, `A [ G !phi ]` and
`A [ F phi ]` are Pmax > 0, Pmax <= 0 and Pmin >= 1.  The other kind is the
forced-next idiom ("whenever the trigger holds, every possible next state
satisfies the target" plus the trigger being inevitable).  They are parsed
from `.props` text by :func:`tickgraph.lang.parse_properties`, which this
module re-exports; nothing here parses.  Only `label` needs the bigraph
layers: it binds `occurrences`, `Tally`, `PatternLimit` and `Pattern` on
first use (see `records.on_first_use`), so checking a labelled MDP imports
none of them.

Reachability is solved in two phases over the solver's graph of the MDP
(:class:`Graph`): the CSR (compressed sparse row) lists of `as_arrays` and
their predecessor index, in pure Python.  An MDP's choices are final once
`explore` or `load_mdp` returns, so its first query builds the graph and
keeps it in `Mdp._graph`, and every later query on that MDP reads it.  The
graph also keeps its condensation: the strongly connected components
(SCCs) of the whole MDP in reverse topological order, built by the first
query with one INFO line (its states, choices, transitions, SCCs, cyclic
SCCs, largest SCC and seconds), from which each query derives the SCCs of
its own subgraph.  First the states whose value is exactly 0 or 1 are
found by worklist fixpoints, so 0 and 1 answers are exact.  Then the
remaining states are split into SCCs, solved in reverse topological order
so that every successor outside an SCC is final: a single-state SCC in
closed form, a cyclic SCC by Jacobi value iteration (`sweep`) over its own
states until no value moves by VI_TOL.  A cyclic SCC's sweep arrays (its
local CSR) are built by the first query that keeps it whole and stored in
the graph, so a later query only gathers the values it reads and sweeps;
one that a query's 0/1 sets cut is built for that query alone.  Last,
every value outside both sets is put strictly inside (0, 1), so a bound at
0 or 1 is decided by the sets alone.  Values are Python floats; only the
sweeps over a cyclic SCC use numpy, imported on first use, so a check that
makes no sweep never loads it.  An SCC that does not converge within
VI_MAX_SWEEPS raises a SweepLimit naming its size, lowest state and
actions.  Each query logs one INFO line: its mode, states, 0/1 set sizes,
SCCs, cyclic SCCs and how many of those it built arrays for, sweeps and
seconds.
"""

from __future__ import annotations

import logging
import math
from itertools import accumulate
from time import perf_counter

from .lang import ForcedNext, Property, Reach
from .lang import parse_properties  # re-exported beside the checker it feeds
from .mdp import Mdp
from .records import InputError, Record, ResourceLimit, on_first_use

log = logging.getLogger(__name__)

_layers, __getattr__ = on_first_use(globals(), {
    ".match": ("PatternLimit", "Tally", "occurrences"),
    ".rules": ("Pattern",),
})

VI_TOL = 1e-9
VI_MAX_SWEEPS = 1_000_000


def label(mdp: Mdp, patterns: list[Pattern]) -> Mdp:
    """Attach to every state the names of the pattern instances occurring in it.

    One search per pattern per state, each reading the state's own index
    and one :class:`Tally` of the state that its searches share.
    A body with parameter arithmetic cannot bind its parameters, so such a
    family must be given as one plain pattern per instance (the elaborator
    does so).  The states must be decoded: an MDP read from a cache gets
    them from `mdp.decode_states`.
    """
    if len(mdp.states) != mdp.n_states or None in mdp.states:
        raise ValueError("label: the MDP's states are not decoded (see mdp.decode_states)")
    _layers()
    start = perf_counter()
    for p in patterns:
        if p.has_arithmetic:
            raise ValueError(f"pattern {p.name}: parameter arithmetic cannot be matched")
    labels: list[set[str]] = [set() for _ in mdp.states]
    searches = matches = 0
    for g, names in zip(mdp.states, labels):
        tally = Tally(g)
        for p in patterns:
            try:
                found = occurrences(g, p.body, domains=p.match_domains, tally=tally)
            except PatternLimit as exc:
                raise PatternLimit(f"pattern {p.name}: {exc}") from None
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


class UnknownLabel(InputError):
    pass


# expressions are the tuples of `tickgraph.lang`: ("name", s) | ("not", e) |
# ("and", a, b) | ("or", a, b).  They are walked with a stack, not by
# recursion, as a long `|` or `&` chain nests one tuple per term.


def _postorder(expr) -> list[tuple]:
    """The subexpressions of `expr`, each after its operands."""
    order, stack = [], [expr]
    while stack:
        e = stack.pop()
        order.append(e)
        if e[0] != "name":
            stack.extend(e[1:])
    order.reverse()
    return order


def satisfying(mdp: Mdp, expr) -> list[bool]:
    """Per state, whether its labels satisfy `expr`; an MDP not yet labelled
    (`label_names` is None) raises UnknownLabel, as every name is unknown."""
    if mdp.label_names is None:
        raise UnknownLabel("the MDP carries no labels: label it before checking")
    order = _postorder(expr)
    missing = {e[1] for e in order if e[0] == "name"} - mdp.label_names
    if missing:
        raise UnknownLabel(f"unknown pattern name(s): {sorted(missing)}")
    values: list[list[bool]] = []  # one vector per operand not yet used
    for e in order:
        if e[0] == "name":
            values.append([e[1] in labels for labels in mdp.labels])
        elif e[0] == "not":
            values.append([not x for x in values.pop()])
        elif e[0] == "and":
            values.append([x and y for x, y in zip(values.pop(), values.pop())])
        else:
            values.append([x or y for x, y in zip(values.pop(), values.pop())])
    return values.pop()


# ---------------------------------------------------------------------------
# verdicts


class Verdict(Record):
    __slots__ = ("holds", "value", "detail")

    def __init__(self, holds: bool, value: float | None = None, detail: str = ""):
        self.holds = holds
        self.value = value
        self.detail = detail


# ---------------------------------------------------------------------------
# the solver's graph of an MDP


def as_arrays(choices_per_state):
    """Flatten per-state ``Choice`` records into CSR-style lists.

    Returns ``(choice_ptr, trans_ptr, targets, probs)``: the choices of state
    ``s`` are ``choice_ptr[s]:choice_ptr[s+1]`` and the transitions of choice
    ``c`` are ``trans_ptr[c]:trans_ptr[c+1]``.
    """
    choice_ptr = [0]
    trans_ptr = [0]
    targets: list[int] = []
    probs: list[float] = []
    for cs in choices_per_state:
        for c in cs:
            for t, p in c.dist:
                targets.append(t)
                probs.append(p)
            trans_ptr.append(len(targets))
        choice_ptr.append(len(trans_ptr) - 1)
    return choice_ptr, trans_ptr, targets, probs


class Graph:
    """The CSR lists of ``as_arrays`` with their predecessor CSR.

    The transitions into state ``t`` are ``pred_ptr[t]:pred_ptr[t+1]``; each
    entry names the choice it belongs to (``pred_choice``) and that choice's
    state (``pred_state``), one entry per transition in transition order, so
    a distribution that names ``t`` twice appears twice.

    The graph also keeps what its queries derive from it alone: the
    condensation (`sccs`) and, per cyclic component of it that some query
    swept whole, that component's sweep arrays (`local`).  Neither depends
    on a query's target, so neither goes stale.
    """

    def __init__(self, choice_ptr, trans_ptr, targets, probs):
        n = self.n = len(choice_ptr) - 1
        self.choice_ptr = choice_ptr
        self.trans_ptr = trans_ptr
        self.targets = targets
        self.probs = probs
        choice_state: list[int] = []
        for s in range(n):
            choice_state += [s] * (choice_ptr[s + 1] - choice_ptr[s])
        trans_choice: list[int] = []
        for c in range(len(trans_ptr) - 1):
            trans_choice += [c] * (trans_ptr[c + 1] - trans_ptr[c])
        # stable counting sort of the transitions by target
        counts = [0] * (n + 1)
        for t in targets:
            counts[t + 1] += 1
        pred_ptr = list(accumulate(counts))
        slot = pred_ptr[:n]
        pred_choice = [0] * len(targets)
        for t, c in zip(targets, trans_choice):
            pred_choice[slot[t]] = c
            slot[t] += 1
        self.choice_state = choice_state
        self.pred_ptr = pred_ptr
        self.pred_choice = pred_choice
        self.pred_state = [choice_state[c] for c in pred_choice]
        self._condensation = None  # built by the first `sccs`
        self._comp_of: list[int] = []  # per state, its component's position in `_condensation`
        self._local: dict[int, tuple] = {}  # `local` arrays per whole cyclic component

    def backward(self, seeds: list[bool], through: list[bool] | None = None) -> list[bool]:
        """States with a path into a seed; every state on it but the last is
        allowed by ``through`` (all states when it is None)."""
        seen = list(seeds)
        todo = [s for s in range(self.n) if seeds[s]]
        ptr, pred = self.pred_ptr, self.pred_state
        while todo:
            t = todo.pop()
            for j in range(ptr[t], ptr[t + 1]):
                s = pred[j]
                if not seen[s] and (through is None or through[s]):
                    seen[s] = True
                    todo.append(s)
        return seen

    def sccs(self, include: list[bool]) -> list[list[int]]:
        """Strongly connected components of the subgraph induced by the
        included states, each sorted, in reverse topological order: a
        component comes after every component it has an edge into.

        They are derived from the condensation of the whole graph, built by
        the first call and kept: a one-state component is kept or dropped by
        its mask, a cyclic component wholly inside the mask is returned as it
        is, and only one that the mask cuts is split again, by Tarjan over its
        own included states.  The parts of a cut component take its place in
        the order, as every edge out of it leads to an earlier component.
        A whole component is returned as the graph's own list, which `local`
        tells from a part by identity: callers do not change them.
        """
        comps = self._condensation
        if comps is None:
            comps = self._condensation = self._condense()
        out: list[list[int]] = []
        member = None
        for comp in comps:
            if len(comp) == 1:
                if include[comp[0]]:
                    out.append(comp)
                continue
            kept = [s for s in comp if include[s]]
            if len(kept) == len(comp):
                out.append(comp)
            elif kept:
                if member is None:  # work arrays for every cut component of this call
                    n = self.n
                    member, index, low, on_stack = [False] * n, [-1] * n, [0] * n, [False] * n
                # a state of an earlier cut component stays a member, but it is
                # numbered and off the stack, so Tarjan passes over it
                for s in kept:
                    member[s] = True
                self._tarjan(kept, member, index, low, on_stack, out)
        return out

    def local(self, comp: list[int]) -> tuple[tuple, bool]:
        """The arrays `_iterate` sweeps over the cyclic SCC ``comp``, one of
        the lists `sccs` returned, and whether this call built them.

        A whole component of the condensation has its arrays built by its
        first query and kept, so every later query reads them; a part of one
        that a query's mask cut is built for that query alone.  So the store
        holds at most one entry per cyclic component of the condensation.
        """
        i = self._comp_of[comp[0]]
        whole = self._condensation[i] is comp
        if whole and i in self._local:
            return self._local[i], False
        arrays = self._build_local(comp)
        if whole:
            self._local[i] = arrays
        return arrays, True

    def _build_local(self, comp: list[int]) -> tuple:
        """``(index, choice_starts, trans_starts, targets, probs)`` over the
        SCC alone, in the layout `sweep` reads.

        ``index`` lists the states the local indices stand for: the SCC's
        own states first, then the successors outside it, whose values stay
        fixed while it is swept.  Choices without transitions are left out:
        they are worth 0, so they never decide a maximum, and under the
        minimum a state with one has Pmin = 0 and is decided before value
        iteration.  ``index`` is a list, the other four numpy arrays.
        """
        import numpy as np

        cp, tp, tg, pr = self.choice_ptr, self.trans_ptr, self.targets, self.probs
        local = {s: i for i, s in enumerate(comp)}
        index = list(comp)
        choice_starts, trans_starts, targets, probs = [], [], [], []
        for s in comp:
            choice_starts.append(len(trans_starts))
            for c in range(cp[s], cp[s + 1]):
                if tp[c] < tp[c + 1]:
                    trans_starts.append(len(targets))
                    for k in range(tp[c], tp[c + 1]):
                        i = local.get(tg[k])
                        if i is None:
                            i = local[tg[k]] = len(index)
                            index.append(tg[k])
                        targets.append(i)
                    probs += pr[tp[c] : tp[c + 1]]
        return (
            index,
            np.asarray(choice_starts, dtype=np.int64),
            np.asarray(trans_starts, dtype=np.int64),
            np.asarray(targets, dtype=np.int64),
            np.asarray(probs, dtype=np.float64),
        )

    def _condense(self) -> list[list[int]]:
        """The SCCs of the whole graph, each sorted, in reverse topological order."""
        start = perf_counter()
        n = self.n
        comps: list[list[int]] = []
        self._tarjan(range(n), [True] * n, [-1] * n, [0] * n, [False] * n, comps)
        comp_of = self._comp_of = [0] * n
        for i, comp in enumerate(comps):
            for s in comp:
                comp_of[s] = i
        log.info(
            "condensation: %d states, %d choices, %d transitions, %d SCCs (%d cyclic), "
            "largest %d, %.3f s",
            n, len(self.trans_ptr) - 1, len(self.targets), len(comps),
            sum(len(c) > 1 for c in comps), max(map(len, comps), default=0),
            perf_counter() - start,
        )
        return comps

    def _tarjan(self, roots, include, index, low, on_stack, out) -> None:
        """Append to ``out`` the SCCs, each sorted, in reverse topological
        order, of the subgraph induced by the included states, as far as it
        is reached from ``roots``.

        Iterative Tarjan: ``work`` holds (state, next transition) frames in
        place of the recursion stack.  ``index`` (-1 for a state not yet
        numbered), ``low`` and ``on_stack`` are the caller's work arrays; a
        state numbered by an earlier call is off the stack, so its number is
        never compared with this call's.
        """
        cp, tp, tg = self.choice_ptr, self.trans_ptr, self.targets
        stack: list[int] = []
        counter = 0
        for root in roots:
            if not include[root] or index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, tp[cp[root]])]
            while work:
                v, k = work[-1]
                end = tp[cp[v + 1]]
                descended = False
                while k < end:
                    w = tg[k]
                    k += 1
                    if not include[w]:
                        continue
                    if index[w] < 0:
                        work[-1] = (v, k)
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, tp[cp[w]]))
                        descended = True
                        break
                    if on_stack[w] and index[w] < low[v]:
                        low[v] = index[w]
                if descended:
                    continue
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comp.sort()
                    out.append(comp)


# ---------------------------------------------------------------------------
# reachability


class SweepLimit(RuntimeError, ResourceLimit):
    """A cyclic SCC whose values still moved after VI_MAX_SWEEPS sweeps."""


def _avoid_set(g: Graph, target: list[bool]) -> list[bool]:
    """States from which some scheduler avoids the target forever (Pmin = 0).

    Greatest fixpoint from the non-target states, as a worklist over the
    predecessor CSR: per choice the count of transitions leaving the set,
    per state the count of choices still wholly inside it.  The worklist
    starts from the target states, so the walk over their predecessors
    seeds the counts; a state leaves when its count drops to zero, so a
    deadlock, or a state with an empty choice, never leaves.
    """
    cp, ptr, pred_choice, choice_state = g.choice_ptr, g.pred_ptr, g.pred_choice, g.choice_state
    avoid = [not t for t in target]
    outside = [0] * len(choice_state)
    inside = [cp[s + 1] - cp[s] for s in range(g.n)]
    todo = [t for t in range(g.n) if target[t]]
    while todo:
        t = todo.pop()
        for j in range(ptr[t], ptr[t + 1]):
            c = pred_choice[j]
            outside[c] += 1
            if outside[c] == 1:
                s = choice_state[c]
                inside[s] -= 1
                if not inside[s] and avoid[s]:
                    avoid[s] = False
                    todo.append(s)
    return avoid


def _sure_set(g: Graph, target: list[bool], reach: list[bool]) -> list[bool]:
    """States where the best scheduler reaches the target with probability one.

    Run SCC by SCC, in reverse topological order, over the non-target states
    that can reach the target; the SCCs come from the graph's condensation.
    Targets are absorbing, and every successor outside the SCC is already
    known to be in the set or not, so a chain costs O(states + transitions).
    A one-state SCC {s} is decided directly: s is in the set when some choice
    has every successor in {s} or the set and at least one in the set.  A
    cyclic SCC runs the nested fixpoint (greatest over candidate sets X of
    the least set grown from the target through choices that stay inside X
    and touch the grown set).
    """
    cp, tp, tg = g.choice_ptr, g.trans_ptr, g.targets
    one = list(target)
    in_x = [False] * g.n
    in_y = [False] * g.n
    enabled = [False] * len(g.choice_state)
    for comp in g.sccs([r and not t for r, t in zip(reach, target)]):
        if len(comp) == 1:
            s = comp[0]  # not in the set yet
            for c in range(cp[s], cp[s + 1]):
                hit = False
                for k in range(tp[c], tp[c + 1]):
                    t = tg[k]
                    if one[t]:
                        hit = True
                    elif t != s:
                        break
                else:
                    if hit:
                        one[s] = True
                        break
            continue
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


def sweep(values, minimize, choice_starts, trans_starts, targets, probs):
    """One Jacobi sweep over the states ``0 .. k-1``, where ``k`` is
    ``len(choice_starts)``; returns max |change|.

    ``trans_starts`` splits ``targets``/``probs`` into the choices of the
    swept states, ``choice_starts`` splits those choices into states; every
    state has a choice and every choice a transition.  All reads see the
    values from before the sweep, and only the prefix ``values[:k]`` is
    written.  The arguments are numpy arrays.
    """
    import numpy as np

    per_choice = np.add.reduceat(probs * values[targets], trans_starts)
    best = (np.minimum if minimize else np.maximum).reduceat(per_choice, choice_starts)
    swept = values[: len(best)]  # a view
    diff = best - swept
    np.abs(diff, out=diff)
    delta = float(diff.max())
    swept[:] = best
    return delta


def _iterate(vals: list[float], comp: list[int], local: tuple, minimize: bool) -> int | None:
    """Jacobi value iteration over one cyclic SCC whose successors outside it
    are all solved, on its arrays from `Graph.local`; writes the SCC's values
    into `vals` and returns the number of sweeps, or None if it did not
    converge within VI_MAX_SWEEPS.  Only the values of the SCC and its
    successors are read, and only the SCC's are written."""
    import numpy as np

    index, *args = local
    values = np.fromiter(map(vals.__getitem__, index), dtype=np.float64, count=len(index))
    for sweeps in range(1, VI_MAX_SWEEPS + 1):
        if sweep(values, minimize, *args) < VI_TOL:
            for s, v in zip(comp, values[: len(comp)].tolist()):
                vals[s] = v
            return sweeps
    return None


def reach_vector(mdp: Mdp, target: list[bool], mode: str) -> list[float]:
    """Per-state probability of eventually reaching the target set: exactly
    0 or 1 on the 0/1 sets, strictly between them everywhere else."""
    if mode not in ("min", "max"):
        raise ValueError("mode must be min or max")
    start = perf_counter()
    g = mdp._graph
    if g is None:  # the MDP's first query
        g = mdp._graph = Graph(*as_arrays(mdp.choices))
    zero, one = zero_one(g, target, mode)
    minimize = mode == "min"
    vals = [1.0 if o else 0.0 for o in one]
    sccs = g.sccs([not (z or o) for z, o in zip(zero, one)])
    cyclic = built = sweeps = 0
    for comp in sccs:
        if len(comp) == 1:
            s = comp[0]
            vals[s] = _closed_form(g, vals, s, minimize)
            continue
        cyclic += 1
        local, fresh = g.local(comp)
        built += fresh
        made = _iterate(vals, comp, local, minimize)
        if made is None:
            actions = sorted({c.action for s in comp for c in mdp.choices[s]})
            raise SweepLimit(
                f"value iteration did not converge within {VI_MAX_SWEEPS} sweeps "
                f"on an SCC of {len(comp)} states (lowest state {comp[0]}) "
                f"with actions {', '.join(actions)}"
            )
        sweeps += made
    # an underflow or a rounding to 1 must not read as a 0/1 answer; moved
    # only now, so that no other value reads the moved ones
    for comp in sccs:
        for s in comp:
            if not 0.0 < vals[s] < 1.0:
                vals[s] = math.ulp(0.0) if vals[s] <= 0.0 else math.nextafter(1.0, 0.0)
    log.info(
        "reach P%s: %d states, %d zero, %d one, %d SCCs (%d cyclic, %d built), %d sweeps, "
        "%.3f s",
        mode, g.n, sum(zero), sum(one), len(sccs), cyclic, built, sweeps,
        perf_counter() - start,
    )
    return vals


def reach_prob(mdp: Mdp, target_expr, mode: str) -> float:
    """Probability of reaching states satisfying the expression, from state 0."""
    return reach_vector(mdp, satisfying(mdp, target_expr), mode)[0]


# ---------------------------------------------------------------------------
# checking


def _show(v: float) -> str:
    """`v` to 10 significant digits, in full where those would read as an
    exact 0 or 1 that `v` is not."""
    text = f"{v:.10g}"
    return repr(v) if text in ("0", "1") and v != float(text) else text


def check(mdp: Mdp, prop: Property) -> Verdict:
    """The verdict of one property."""
    if isinstance(prop, Reach):
        v, p = reach_prob(mdp, prop.target, prop.mode), prop.p
        holds = {">=": v >= p, ">": v > p, "<=": v <= p, "<": v < p}[prop.bound]
        return Verdict(holds, v, f"P{prop.mode} = {_show(v)}")
    if isinstance(prop, ForcedNext):
        trig = satisfying(mdp, prop.trigger)
        nxt = satisfying(mdp, prop.next)
        v = reach_vector(mdp, trig, "min")[0]
        if v != 1.0:
            return Verdict(False, v, f"trigger not inevitable (Pmin = {_show(v)})")
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
