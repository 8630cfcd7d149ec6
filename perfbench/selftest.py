"""Tracer self-test: counts on the bundled cloud model, measured from outside
the package at the commit that introduced the benchmark.  A miss means a
bound name went unwrapped (or the pipeline's work changed; update the table
in the same change that changes the work).

    python3 perfbench/run.py --selftest
"""

from __future__ import annotations

import os

from tracer import Tracer
from workloads import MODELS, cli_build, cli_check

BUILD_EXPECT = {
    "rules.outcomes": 1156,
    "rules.apply_calls": 1156,
    "canon.computed": 1157,
    "canon.canonical_form_calls": 1383,
    "tickgraph.rules.occurrences_calls": 3598,
    "mdp.states": 106,
    "mdp.choices": 106,
    "mdp.transitions": 120,
}
CHECK_EXPECT = {
    "verify.label_pairs": 106 * 98,
    "tickgraph.verify.occurrences_calls": 106 * 98,
}


def _traced(fn):
    t = Tracer()
    t.install()
    try:
        fn()
    finally:
        t.uninstall()
    return t


def run(work: str) -> int:
    model = os.path.join(MODELS, "cloud.big")
    props = os.path.join(MODELS, "cloud.props")
    out = os.path.join(work, "out")
    ok = True
    for what, fn, expect in (
        ("build", lambda: cli_build(model, out), BUILD_EXPECT),
        ("warm check", lambda: cli_check(model, props, out), CHECK_EXPECT),
    ):
        t = _traced(fn)
        for key, want in expect.items():
            got = t.counts.get(key, 0)
            mark = "ok  " if got == want else "MISS"
            ok &= got == want
            print(f"{mark} cloud {what}: {key} = {got} (expected {want})")
        if t.missing:
            ok = False
            print(f"MISS bindings not found: {t.missing}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1
