"""Flat MDP lists and the graph and sweep kernels of the reachability solver.

``as_arrays`` flattens an MDP's ``Choice`` records into CSR (compressed
sparse row) Python lists.  ``Graph`` keeps them for the qualitative
worklists and adds the predecessor CSR, built by a stable counting sort in
Python, backward reachability and an iterative Tarjan decomposition into
strongly connected components; an MDP keeps its graph (``Mdp._graph``).
``sweep`` is one vectorised Jacobi sweep of value iteration over one SCC's
states, and the only kernel that uses numpy, imported on first use, so a
command that makes no sweep never loads numpy.
"""

from __future__ import annotations

from itertools import accumulate


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
    values from before the sweep.  The arguments are numpy arrays.
    """
    import numpy as np

    per_choice = np.add.reduceat(probs * values[targets], trans_starts)
    best = (np.minimum if minimize else np.maximum).reduceat(per_choice, choice_starts)
    delta = float(np.max(np.abs(best - values[states])))
    values[states] = best
    return delta
