"""Spans and counts around tickgraph's layer boundaries, from outside.

`Tracer.install` rebinds each traced name where it is bound: `from x import
y` copies the binding into the importing module, so the name is wrapped in
every module that calls it (see `BINDINGS`).  A span is (name, start, end,
parent); a layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter

# (module, bound name, span name): every binding the pipeline calls through
BINDINGS = [
    ("tickgraph.cli", "load_model", "elaborate.load_model"),
    ("tickgraph.cli", "explore", "mdp.explore"),
    ("tickgraph.cli", "save_mdp", "mdp.save_mdp"),
    ("tickgraph.cli", "load_mdp", "mdp.load_mdp"),
    ("tickgraph.cli", "label", "verify.label"),
    ("tickgraph.cli", "check", "verify.check"),
    ("tickgraph.verify", "check", "verify.check"),
    ("tickgraph.mdp", "enabled_outcomes", "rules.enabled_outcomes"),
    ("tickgraph.mdp", "action_distribution", "rules.action_distribution"),
    ("tickgraph.mdp", "canonical_form", "canon.canonical_form"),
    ("tickgraph.mdp", "decode_canonical", "canon.decode_canonical"),
    ("tickgraph.rules", "occurrences", "match.occurrences"),
    ("tickgraph.rules", "apply", "rules.apply"),
    ("tickgraph.rules", "canonical_form", "canon.canonical_form"),
    ("tickgraph.verify", "occurrences", "match.occurrences"),
    ("tickgraph.verify", "reach_vector", "verify.reach_vector"),
    ("tickgraph.verify", "as_arrays", "kernels.as_arrays"),
    ("tickgraph.verify", "sweep", "kernels.sweep"),
]


def _count_result(counts: Counter, name: str, args, result) -> None:
    """Work counts read off a traced call's arguments and result."""
    if name == "rules.enabled_outcomes":
        counts["rules.outcomes"] += sum(len(v) for v in result.values())
    elif name == "rules.action_distribution":
        counts["rules.distribution_in"] += len(args[1])
        counts["rules.distribution_out"] += len(result)
    elif name == "match.occurrences":
        counts["match.matches"] += len(result)
        counts["match.hits"] += bool(result)
    elif name == "mdp.explore":
        counts["mdp.states"] += result.n_states
        counts["mdp.choices"] += result.n_choices
        counts["mdp.transitions"] += result.n_transitions
    elif name == "mdp.save_mdp":
        counts["mdp.cache_bytes"] += os.path.getsize(args[0])
    elif name == "verify.label":
        counts["verify.label_pairs"] += len(args[1]) * args[0].n_states
    elif name == "kernels.sweep":
        counts["kernels.swept_transitions"] += len(args[5])


class Tracer:
    """Collects spans and counts while installed; one instance per pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span index, child time]
        self._saved: list[tuple] = []
        self.missing: list[str] = []  # bindings absent from this tickgraph

    @contextlib.contextmanager
    def root(self, name: str):
        """A span with no traced caller (one operation)."""
        self._open(name)
        try:
            yield
        finally:
            self._close(name)

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), 0.0])
        self.spans.append([name, perf_counter(), 0.0, parent])

    def _close(self, name: str) -> None:
        end = perf_counter()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, fn, name: str, binding: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = tracer.counts
            counts[name + "_calls"] += 1
            counts[binding + "_calls"] += 1
            canon = name == "canon.canonical_form"
            if canon and getattr(args[0], "_canon", None) is None:
                counts["canon.computed"] += 1
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except RuntimeError as exc:
                if canon and "tie budget" in str(exc):
                    counts["canon.tie_failures"] += 1
                raise
            finally:
                tracer._close(name)
            _count_result(counts, name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding that exists; absent ones go to `missing`."""
        for mod_name, attr, name in BINDINGS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, f"{mod_name}.{attr}"))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by the names in BENCHMARK.json."""
    c, tot, own = t.counts, t.total, t.self_time
    ratio = lambda a, b: a / b if b else 0.0
    occ_calls = c["match.occurrences_calls"]
    return {
        "elaborate.load_model_s": tot["elaborate.load_model"],
        "rules.enabled_outcomes_calls": c["rules.enabled_outcomes_calls"],
        "rules.outcomes": c["rules.outcomes"],
        "rules.enabled_outcomes_self_s": own["rules.enabled_outcomes"],
        "rules.apply_calls": c["rules.apply_calls"],
        "rules.apply_s": tot["rules.apply"],
        "rules.action_distribution_self_s": own["rules.action_distribution"],
        "rules.distinct_ratio": ratio(c["rules.distribution_out"], c["rules.distribution_in"]),
        "match.occurrences_calls": occ_calls,
        "match.matches": c["match.matches"],
        "match.occurrences_s": tot["match.occurrences"],
        "match.hit_ratio": ratio(c["match.hits"], occ_calls),
        "canon.canonical_form_calls": c["canon.canonical_form_calls"],
        "canon.computed": c["canon.computed"],
        "canon.canonical_form_s": tot["canon.canonical_form"],
        "canon.tie_failures": c["canon.tie_failures"],
        "canon.decode_s": tot["canon.decode_canonical"],
        "mdp.explore_s": tot["mdp.explore"],
        "mdp.states": c["mdp.states"],
        "mdp.choices": c["mdp.choices"],
        "mdp.transitions": c["mdp.transitions"],
        "mdp.save_s": tot["mdp.save_mdp"],
        "mdp.load_s": tot["mdp.load_mdp"],
        "mdp.cache_bytes": c["mdp.cache_bytes"],
        "verify.label_s": tot["verify.label"],
        "verify.label_pairs": c["verify.label_pairs"],
        "verify.check_s": tot["verify.check"],
        "verify.reach_vector_s": tot["verify.reach_vector"],
        # reach_vector minus its as_arrays and sweep children: the 0/1 sets
        "verify.precompute_s": own["verify.reach_vector"],
        "kernels.sweeps": c["kernels.sweep_calls"],
        "kernels.sweep_s": tot["kernels.sweep"],
        "kernels.as_arrays_s": tot["kernels.as_arrays"],
        "kernels.transitions_per_sweep": ratio(
            c["kernels.swept_transitions"], c["kernels.sweep_calls"]
        ),
    }


COUNT_METRICS = [
    "rules.enabled_outcomes_calls", "rules.outcomes", "rules.apply_calls",
    "rules.distinct_ratio", "match.occurrences_calls", "match.matches",
    "match.hit_ratio", "canon.canonical_form_calls", "canon.computed",
    "canon.tie_failures", "mdp.states", "mdp.choices", "mdp.transitions",
    "mdp.cache_bytes", "verify.label_pairs", "kernels.sweeps",
    "kernels.transitions_per_sweep",
]
