"""Reference answers that tickgraph does not compute.

* Build counts come from the brute-force explorer in ``tests/oracle.py``
  (depth-first, isomorphism by bijection search, no canonical forms) or,
  for the token family, from closed forms and orbit counting.
* Property verdicts are recomputed on the oracle's MDP with the oracle's
  brute-force matcher for labels, graph algorithms for the 0/1 sets and
  ``scipy.optimize.linprog`` for values.
* Chain MDPs have closed-form values; other synthetic MDPs use the LP.
"""

from __future__ import annotations

from math import comb

VALUE_TOL = 1e-6  # allowed |tickgraph - reference| on a probability


# ---------------------------------------------------------------------------
# build counts


def oracle_build(model):
    """(states, choices, transitions, deadlocks) and the oracle MDP itself."""
    from tests.oracle import oracle_explore

    o = oracle_explore(model)
    deadlocks = sum(1 for cs in o.choices if not cs)
    return (len(o.states), o.n_choices, o.n_transitions, deadlocks), o


def token_counts(k: int, links: str) -> tuple[int, int, int, int]:
    """Closed-form (states, choices, transitions, deadlocks) of the token family.

    A state is the set of tokens still in the bag, up to the symmetry of the
    link structure; every state but the empty bag has one `move` choice, and
    its transitions are the distinct states one move can reach.
    """
    if links == "none":
        return k + 1, k, k, 1
    if links == "pairs":
        m = k // 2
        states = comb(m + 2, 2)
        # state (n0, n1, n2): pairs with 0, 1, 2 tokens in the bag
        trans = sum(
            (n1 > 0) + (m - n0 - n1 > 0)
            for n0 in range(m + 1)
            for n1 in range(m + 1 - n0)
        )
        return states, states - 1, trans, 1
    # ring: subsets of the k-cycle up to rotation and reflection
    full = (1 << k) - 1

    def canon(mask: int) -> int:
        best = mask
        for r in range(k):
            rot = ((mask >> r) | (mask << (k - r))) & full
            rev = int(format(rot, f"0{k}b")[::-1], 2)
            best = min(best, rot, rev)
        return best

    orbits = {canon(m) for m in range(full + 1)}
    trans = sum(
        len({canon(o & ~(1 << i)) for i in range(k) if o >> i & 1}) for o in orbits
    )
    return len(orbits), len(orbits) - 1, trans, 1


# ---------------------------------------------------------------------------
# reachability on explicit MDPs: choices[s] = [(action, [(t, p), ...]), ...]


def _preds(choices):
    pred = [set() for _ in choices]
    for s, cs in enumerate(choices):
        for _a, dist in cs:
            for t, _p in dist:
                pred[t].add(s)
    return pred


def _backward(pred, seeds, allowed):
    seen = set(seeds)
    todo = list(seeds)
    while todo:
        t = todo.pop()
        for s in pred[t]:
            if s not in seen and allowed(s):
                seen.add(s)
                todo.append(s)
    return seen


def zero_one(choices, target: list[bool], mode: str) -> tuple[set[int], set[int]]:
    """States whose Pmin or Pmax of reaching `target` is exactly 0 or 1.

    The 1 set is exact for Pmin; for Pmax it holds only the targets, which
    leaves the rest to the LP.
    """
    n = len(choices)
    pred = _preds(choices)
    tset = {s for s in range(n) if target[s]}
    if mode == "max":
        return set(range(n)) - _backward(pred, tset, lambda s: True), tset
    # greatest fixpoint: non-target states where some choice stays inside
    zero = set(range(n)) - tset
    changed = True
    while changed:
        changed = False
        for s in list(zero):
            cs = choices[s]
            if cs and not any(all(t in zero for t, _p in d) for _a, d in cs):
                zero.discard(s)
                changed = True
    can_escape = _backward(pred, zero, lambda s: s not in tset)
    return zero, set(range(n)) - can_escape


def reach_values(choices, target: list[bool], mode: str) -> list[float]:
    """Pmin or Pmax of eventually reaching `target`, per state, by LP after
    the 0/1 sets (deadlocks are absorbing)."""
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    zero, one = zero_one(choices, target, mode)
    fixed = {s: 1.0 for s in one}
    fixed.update({s: 0.0 for s in zero})
    free = [s for s in range(len(choices)) if s not in fixed]
    values = [fixed.get(s, 0.0) for s in range(len(choices))]
    if not free:
        return values
    col = {s: i for i, s in enumerate(free)}
    # max: least solution of x_s >= sum p x_t; min: greatest of x_s <= sum p x_t
    sign = 1.0 if mode == "max" else -1.0
    rows, cols, data, rhs = [], [], [], []
    for s in free:
        for _a, dist in choices[s]:
            acc: dict[int, float] = {col[s]: -1.0}
            const = 0.0
            for t, p in dist:
                if t in col:
                    acc[col[t]] = acc.get(col[t], 0.0) + p
                else:
                    const += p * fixed[t]
            for c, v in acc.items():
                rows.append(len(rhs))
                cols.append(c)
                data.append(sign * v)
            rhs.append(-sign * const)
    a_ub = csr_matrix((data, (rows, cols)), shape=(len(rhs), len(free)))
    res = linprog(
        np.full(len(free), sign), A_ub=a_ub, b_ub=np.array(rhs), bounds=(0.0, 1.0),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    for s, v in zip(free, res.x):
        values[s] = float(v)
    return values


# ---------------------------------------------------------------------------
# properties, in the structured form of `gen.render`


def expr_names(e) -> set[str]:
    if e[0] == "name":
        return {e[1]}
    return set().union(*(expr_names(x) for x in e[1:]))


def holds_in(e, labels: set[str]) -> bool:
    if e[0] == "name":
        return e[1] in labels
    if e[0] == "not":
        return not holds_in(e[1], labels)
    if e[0] == "and":
        return holds_in(e[1], labels) and holds_in(e[2], labels)
    return holds_in(e[1], labels) or holds_in(e[2], labels)


def verdict(choices, labels, prop) -> tuple[bool, float | None, bool]:
    """(holds, value at state 0, whether `holds` is decided away from a bound)."""
    kind = prop[0]
    sat = lambda e: [holds_in(e, ls) for ls in labels]
    if kind == "P":
        _k, bound, p, e = prop
        mode = "min" if bound in (">=", ">") else "max"
        v = reach_values(choices, sat(e), mode)[0]
        holds = {">=": v >= p, ">": v > p, "<=": v <= p, "<": v < p}[bound]
        return holds, v, abs(v - p) > VALUE_TOL
    if kind in ("AG", "EF"):
        target = sat(prop[1])
        zero, _one = zero_one(choices, target, "max")
        v = 0.0 if 0 in zero else reach_values(choices, target, "max")[0]
        return (0 in zero) == (kind == "AG"), v, True
    target = sat(prop[1])
    _zero, one = zero_one(choices, target, "min")
    inevitable = 0 in one
    v = 1.0 if inevitable else reach_values(choices, target, "min")[0]
    if kind == "AF":
        return inevitable, v, True
    nxt = sat(prop[2])
    ok = inevitable and all(
        choices[s] and all(nxt[t] for _a, d in choices[s] for t, _p in d)
        for s in range(len(choices))
        if target[s]
    )
    return ok, (1.0 if ok else v if not inevitable else None), True


def answers_agree(answer, ref) -> bool:
    """tickgraph's (holds, value) against the reference verdict."""
    holds, value = answer
    r_holds, r_value, decided = ref
    if decided and holds != r_holds:
        return False
    if value is not None and r_value is not None and abs(value - r_value) > VALUE_TOL:
        return False
    return True


def chain_values(sm) -> tuple[float, float]:
    """Closed-form (Pmin, Pmax) of reaching the goal from state 0 of a chain."""
    lo = hi = 1.0
    for cs in sm.choices[:-2]:
        ratios = []
        for _a, dist in cs:
            stay = sum(p for t, p in dist if t == dist[0][0] - 1)
            ratios.append(dist[0][1] / (1.0 - stay))
        lo *= min(ratios)
        hi *= max(ratios)
    return lo, hi
