"""Sparse MDP arrays and the graph and sweep kernels of the reachability solver.

``as_arrays`` flattens an MDP's choices into CSR arrays.  ``Graph`` keeps
them as Python lists for the qualitative worklists, adds the predecessor
CSR (built once per query), backward reachability and an iterative Tarjan
decomposition into strongly connected components.  ``sweep`` is one
vectorised Jacobi sweep of value iteration over the states of one SCC.
"""

from __future__ import annotations

import numpy as np


def as_arrays(choices_per_state):
    """Flatten per-state choices into CSR-style arrays.

    Returns ``(choice_ptr, trans_ptr, targets, probs)``: the choices of state
    ``s`` are ``choice_ptr[s]:choice_ptr[s+1]`` and the transitions of choice
    ``c`` are ``trans_ptr[c]:trans_ptr[c+1]``.
    """
    choice_ptr = [0]
    trans_ptr = [0]
    targets: list[int] = []
    probs: list[float] = []
    for cs in choices_per_state:
        for _action, dist in cs:
            for t, p in dist:
                targets.append(t)
                probs.append(p)
            trans_ptr.append(len(targets))
        choice_ptr.append(len(trans_ptr) - 1)
    return (
        np.asarray(choice_ptr, dtype=np.int64),
        np.asarray(trans_ptr, dtype=np.int64),
        np.asarray(targets, dtype=np.int64),
        np.asarray(probs, dtype=np.float64),
    )


class Graph:
    """The CSR arrays of ``as_arrays`` with their predecessor CSR.

    The transitions into state ``t`` are ``pred_ptr[t]:pred_ptr[t+1]``; each
    entry names the choice it belongs to (``pred_choice``) and that choice's
    state (``pred_state``), one entry per transition, so a distribution that
    names ``t`` twice appears twice.
    """

    def __init__(self, choice_ptr, trans_ptr, targets, probs):
        self.n = len(choice_ptr) - 1
        self.target_array = targets
        self.prob_array = probs
        self.choice_ptr = choice_ptr.tolist()
        self.trans_ptr = trans_ptr.tolist()
        self.targets = targets.tolist()
        self.probs = probs.tolist()
        choice_state = np.repeat(np.arange(self.n), np.diff(choice_ptr))
        trans_choice = np.repeat(np.arange(len(trans_ptr) - 1), np.diff(trans_ptr))
        pred_choice = trans_choice[np.argsort(targets, kind="stable")]
        pred_ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(targets, minlength=self.n), out=pred_ptr[1:])
        self.choice_state = choice_state.tolist()
        self.pred_ptr = pred_ptr.tolist()
        self.pred_choice = pred_choice.tolist()
        self.pred_state = choice_state[pred_choice].tolist()

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

        Iterative Tarjan: ``work`` holds (state, next transition) frames in
        place of the recursion stack.
        """
        n, cp, tp, tg = self.n, self.choice_ptr, self.trans_ptr, self.targets
        index = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        out: list[list[int]] = []
        counter = 0
        for root in range(n):
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
        return out


def sweep(values, states, minimize, choice_starts, trans_starts, targets, probs):
    """One Jacobi sweep over ``states``; returns max |change|.

    ``trans_starts`` splits ``targets``/``probs`` into the choices of the
    swept states, ``choice_starts`` splits those choices into states; every
    state has a choice and every choice a transition.  All reads see the
    values from before the sweep.
    """
    per_choice = np.add.reduceat(probs * values[targets], trans_starts)
    best = (np.minimum if minimize else np.maximum).reduceat(per_choice, choice_starts)
    delta = float(np.max(np.abs(best - values[states])))
    values[states] = best
    return delta
