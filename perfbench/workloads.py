"""The four workloads: seeded inputs, the operations and their references.

An operation is one cold `build`, one warm `check` invocation (both through
`tickgraph.cli.main` with default flags plus `--json` to read the answer),
or one synthetic query through `tickgraph.verify.check`.  A pass runs every
operation of the workload once, in a seeded order.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import gen
import refs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODELS = os.path.join(ROOT, "models")

# Why each workload exists; mirrored in BENCHMARK.json.
WHY = {
    "build-timed": "cold builds of timed models: rules, match and canon dominate; cloud "
    "permutes equal clocks, pta-family outcomes are nearly all distinct",
    "build-symmetric": "cold builds of k interchangeable tokens, k on both sides of the "
    "canon tie budget: the only workload where canon's tie branching dominates",
    "check-warm": "check --props on a warm cache: decode, then label every predicate "
    "instance (match on patterns) and verdicts; explore does nothing",
    "solve-synthetic": "seeded layered, chain and cyclic MDPs queried via verify.check: "
    "only verify and kernels work, the bigraph layers do nothing",
}


@dataclass
class Op:
    label: str
    run: Callable[[], object]  # returns the answer; exceptions count as failures
    reference: Callable[[], object]  # the independent answer, computed once
    agree: Callable[[object, object], bool]
    states: int = 0  # MDP states the operation handles; builds report their own
    verdicts: int = 0  # property verdicts it returns
    after: Callable[[], None] | None = None  # untimed clean-up between runs


@dataclass
class Workload:
    ops: list[Op] = field(default_factory=list)
    # guarantees about the inputs: each returns (holds, description)
    checks: list[Callable[[], tuple[bool, str]]] = field(default_factory=list)


def _cli(argv: list[str]):
    """Run the CLI in-process; returns (exit code, stdout)."""
    from tickgraph import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def cli_build(path: str, out: str) -> dict:
    code, text = _cli(["build", path, "--out", out, "--json"])
    if code != 0:
        raise RuntimeError(f"build exited with {code}")
    st = json.loads(text)
    return {
        "counts": (st["states"], st["choices"], st["transitions"], st["deadlocks"]),
        "cache_digest": st["cache_digest"],
    }


def cli_check(path: str, props: str, out: str) -> tuple:
    code, text = _cli(["check", path, "--props", props, "--out", out, "--json"])
    if code not in (0, 1):
        raise RuntimeError(f"check exited with {code}")
    return tuple((r["holds"], r["value"]) for r in json.loads(text))


def _cache_file(path: str, out: str) -> str:
    return os.path.join(out, os.path.splitext(os.path.basename(path))[0] + ".mdpc")


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# bigraph workloads


# (requests, window profile): builds of about 0.25, 0.3 and 1.1 s
CLOUD_PROFILES = [(3, 0), (3, 1), (4, 3)]


def _timed_specs(rng: random.Random) -> list[tuple[str, gen.ModelSpec | None]]:
    """Bundled pta and cloud, cloud-family with 3 and 4 requests, pta-family
    with clock bounds two to three times the bundled model's.

    Five requests are left out: one such build takes 7 to 12 s, more than a
    pass can hold.
    """
    specs: list[tuple[str, gen.ModelSpec | None]] = [("pta", None), ("cloud", None)]
    for j, (n, profile) in enumerate(CLOUD_PROFILES):
        specs.append((f"cf{j}", gen.cloud_family(n, profile, rng)))
    # pairs of equal clock bounds keep the median operation inside a pair
    horizons = [16, 16, 20, 20, 24, 24, 28, 28]
    for j, h in enumerate(horizons):
        specs.append((f"pf{j}", gen.pta_family(h, rng)))
    return specs


def _model_path(work: str, stem: str, spec) -> str:
    if spec is None:
        return os.path.join(MODELS, stem + ".big")
    return _write(os.path.join(work, stem + ".big"), spec.text)


def _count_ref(model_path: str, spec) -> Callable[[], object]:
    def ref():
        if spec is not None and spec.family == "token":
            return refs.token_counts(spec.size, spec.links)
        from tickgraph.elaborate import load_model

        counts, _o = refs.oracle_build(load_model(model_path))
        return counts

    return ref


def _build_op(label: str, path: str, out: str, spec) -> Op:
    cache = _cache_file(path, out)

    def clean():
        if os.path.exists(cache):
            os.remove(cache)

    return Op(
        label=label,
        run=lambda: cli_build(path, out),
        reference=_count_ref(path, spec),
        agree=lambda ans, ref: ans["counts"] == tuple(ref),
        after=clean,
    )


def setup_build_timed(seed: int, work: str) -> Workload:
    from tickgraph.elaborate import load_model

    rng = random.Random(seed)
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    wl = Workload()
    for stem, spec in _timed_specs(rng):
        path = _model_path(work, stem, spec)
        load_model(path)
        wl.ops.append(_build_op(f"build {stem}", path, out, spec))
    rng.shuffle(wl.ops)
    return wl


# k = 8 exceeds canon's tie budget (20160 alternatives) with and without
# links; rings stop at 6 because k = 7 alone takes about 1.8 s.  Repeats carry
# other bystander marks.  The 17 operations fall into groups of about equal
# length: seven under 0.04 s, three 5-rings, four 6-token models, then the
# 6-ring and the two k = 8 models.  The p50 rank (8.5th operation) sits in
# the middle of the 5-rings and the p75 rank (12.75th) in the middle of the
# 6-token group, so neither percentile rests on one group's extreme samples.
SYMMETRIC = [("none", k) for k in (4, 5, 6, 6, 8)] + [("pairs", k) for k in (4, 4, 6, 6, 8)] + [
    ("ring", k) for k in (3, 4, 4, 5, 5, 5, 6)
]


def setup_build_symmetric(seed: int, work: str) -> Workload:
    from tickgraph.elaborate import load_model

    rng = random.Random(seed)
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    wl = Workload()
    for j, (links, k) in enumerate(SYMMETRIC):
        stem = f"tok{j}_{links}_{k}"
        spec = gen.token_family(k, links, marks=rng.sample(range(100), 2))
        path = _model_path(work, stem, spec)
        load_model(path)
        wl.ops.append(_build_op(f"build {stem}", path, out, spec))
    rng.shuffle(wl.ops)
    return wl


def _props_for(stem: str, model, rng: random.Random) -> list:
    names = [n for n, _b in model.predicates]
    props = gen.random_props(names, rng)
    if stem == "cloud":
        props.append(("FN", ("name", "req1_waiting_clock1"), ("name", "req1_processing")))
    if stem == "pta":
        props.append(("P", ">=", 0.99, ("name", "in_Done_state")))
    return props


def _check_ref(path: str, props: list) -> Callable[[], object]:
    def ref():
        from tests.oracle import brute_occurrences
        from tickgraph.elaborate import load_model

        model = load_model(path)
        _counts, o = refs.oracle_build(model)
        bodies = dict(model.predicates)
        names = set().union(*(refs.expr_names(e) for p in props for e in p[1:] if isinstance(e, tuple)))
        labels = [
            {n for n in names if brute_occurrences(g, bodies[n])} for g in o.states
        ]
        return [refs.verdict(o.choices, labels, p) for p in props]

    return ref


def setup_check_warm(seed: int, work: str) -> Workload:
    from tickgraph.elaborate import load_model

    rng = random.Random(seed)
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    wl = Workload()
    for stem, spec in _timed_specs(rng):
        path = _model_path(work, stem, spec)
        model = load_model(path)
        props = _props_for(stem, model, rng)
        prop_path = _write(
            os.path.join(work, stem + ".props"), "".join(gen.render(p) + "\n" for p in props)
        )
        states = cli_build(path, out)["counts"][0]  # fills the cache
        wl.ops.append(
            Op(
                label=f"check {stem}",
                run=lambda path=path, prop_path=prop_path: cli_check(path, prop_path, out),
                reference=_check_ref(path, props),
                agree=lambda ans, ref: len(ans) == len(ref)
                and all(refs.answers_agree(a, r) for a, r in zip(ans, ref)),
                states=states,
                verdicts=len(props),
            )
        )
    rng.shuffle(wl.ops)
    return wl


# ---------------------------------------------------------------------------
# solver workload


def _to_mdp(sm: gen.SyntheticMdp):
    from tickgraph.mdp import Choice, Mdp

    n = len(sm.choices)
    return Mdp(
        states=[None] * n,
        canon=[b""] * n,
        choices=[[Choice(a, list(d)) for a, d in cs] for cs in sm.choices],
        actions=sorted({a for cs in sm.choices for a, _d in cs}),
        labels=[set(ls) for ls in sm.labels],
        label_names={x for ls in sm.labels for x in ls},
    )


def _solve_ref(sm: gen.SyntheticMdp, prop) -> Callable[[], object]:
    def ref():
        if sm.shape != "chain":
            return refs.verdict(sm.choices, sm.labels, prop)
        lo, hi = refs.chain_values(sm)
        kind = prop[0]
        if kind == "P":
            v = lo if prop[1] in (">=", ">") else hi
            p = prop[2]
            holds = {">=": v >= p, ">": v > p, "<=": v <= p, "<": v < p}[prop[1]]
            return holds, v, abs(v - p) > refs.VALUE_TOL
        if kind == "AG":  # the fail sink: Pmax(fail) = 1 - Pmin(goal)
            return False, 1.0 - lo, True
        return True, hi, True  # EF goal

    return ref


# Chains are the most numerous queries, so the median and tail operation
# fall among them; the cyclic instances carry the sweep-bound queries.
SYNTHETIC = [("layered", (30, 20)),
             ("cyclic", (250, 0)), ("cyclic", (250, 1)), ("cyclic", (250, 2)), ("cyclic", (250, 3)),
             ("chain", (150,)), ("chain", (150,)), ("chain", (150,)), ("chain", (150,)),
             ("chain", (150,))]


def setup_solve_synthetic(seed: int, work: str) -> Workload:
    from tickgraph import verify

    rng = random.Random(seed)
    wl = Workload()
    makers = {"layered": gen.layered_mdp, "chain": gen.chain_mdp, "cyclic": gen.cyclic_mdp}
    for j, (shape, size) in enumerate(SYNTHETIC):
        sm = makers[shape](*size, rng)
        mdp = _to_mdp(sm)
        for q, prop in enumerate(sm.props):
            (parsed,) = verify.parse_properties(gen.render(prop))
            wl.ops.append(
                Op(
                    label=f"{shape}{j} q{q}",
                    run=lambda mdp=mdp, parsed=parsed: _verdict(verify.check(mdp, parsed)),
                    reference=_solve_ref(sm, prop),
                    agree=lambda ans, ref: refs.answers_agree(ans, ref),
                    states=mdp.n_states,
                    verdicts=1,
                )
            )
            if shape == "cyclic":
                wl.checks.append(_nontrivial(f"{shape}{j} q{q}", mdp, parsed))
    rng.shuffle(wl.ops)
    return wl


def _verdict(v) -> tuple:
    return v.holds, v.value


def _nontrivial(label: str, mdp, parsed) -> Callable[[], tuple[bool, str]]:
    """A cyclic query must need iteration: value strictly inside (0, 1) and
    more than one sweep of tickgraph's kernel."""

    def check() -> list[str]:
        from tickgraph import verify

        sweeps = [0]
        kernel = getattr(verify, "sweep", None)
        if kernel is not None:

            def counting(*a):
                sweeps[0] += 1
                return kernel(*a)

            verify.sweep = counting
        try:
            v = verify.check(mdp, parsed)
        finally:
            if kernel is not None:
                verify.sweep = kernel
        ok = v.value is not None and 0.0 < v.value < 1.0
        ok = ok and (kernel is None or sweeps[0] > 1)
        return ok, f"{label}: {sweeps[0]} sweeps, value {v.value}"

    return check


SETUPS = {
    "build-timed": setup_build_timed,
    "build-symmetric": setup_build_symmetric,
    "check-warm": setup_check_warm,
    "solve-synthetic": setup_solve_synthetic,
}
