"""Command-line front end: parse -> elaborate -> explore -> check/export.

Each subcommand takes only the flags it reads.  `main` parses every argv
with one parser holding every command (`_parser`), built on the first call
and kept for the process: an in-process caller pays for argparse once, and a
one-shot run builds every command's parser, about 0.4 ms more than its own
command's alone.  `validate` also checks the model's digital-clocks
discipline (see `elaborate.clock_problems`) and reports each breach as a
problem; `build`, `export` and `check` do not.
These three get their MDP from `_mdp`, which reads the cache once: a fresh
cache answers `build`, and a labelled one `check` and `export`, without the
model.  A cache is fresh when it was written under the same model file hash
and `--fix-deadlocks` (the key `_model_key` makes) by the same package code
(see `mdp.load_mdp`).

The bigraph layers (`bigraph`, `params`, `match`, `canon`, `rules`,
`elaborate`) are loaded when a command first reads the model: a cold
`build`, a `check` or `export` without a labelled cache, `validate` and
`simulate`.  A command the cache answers imports only `cli`, `lang`, `mdp`,
`records` and `verify`.  The names this module takes from the layers stay
module attributes, bound on first use (see `records.on_first_use`), so a
wrap or a patch of `cli.load_model` takes effect either way.

Exit codes: 0 success (all properties hold), 1 property failure, 2 usage or
model error (any `records.InputError`, and any `validate` problem), 3
resource limit (any `records.ResourceLimit`, such as the state budget, a
canonical-form search deeper than the stack allows, or value iteration not
converging within its sweeps), 4 internal error (a one-line diagnostic on
stderr).  All outputs are byte deterministic for identical inputs and
flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import random
import sys

from .lang import parse_properties, read_source
from .mdp import (
    cache_digest,
    decode_states,
    explore,
    export_dot,
    export_prism,
    file_digest,
    load_mdp,
    save_mdp,
)
from .records import InputError, ResourceLimit, on_first_use
from .verify import check, label

log = logging.getLogger("tickgraph")

_layers, __getattr__ = on_first_use(globals(), {
    ".bigraph": ("validate",),
    ".canon": ("canonical_digest",),
    ".elaborate": ("clock_problems", "load_model"),
    ".rules": ("apply", "enabled_outcomes", "integer_weights"),
})

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


def _setup_logging():
    level = os.environ.get("TICKGRAPH_LOG", "warn").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _model_key(path: str, fix_deadlocks: bool) -> str:
    return file_digest(path) + (":stall" if fix_deadlocks else "")


def _model_stem(args) -> str:
    """The model file's stem, which `load_model` names the model by."""
    return os.path.splitext(os.path.basename(args.model))[0]


def _model(args):
    """The model of `args`, elaborated, with the bigraph layers bound."""
    _layers()
    return load_model(args.model)


def _cache_path(args) -> str:
    return os.path.join(args.out, _model_stem(args) + ".mdpc")


def _mdp(args, labelled: bool = False):
    """The MDP a command reads, from one read of the cache.  A fresh cache
    answers alone when it is labelled or `labelled` is false; one over
    `--max-states` counts as absent, so exploring again fails exactly as the
    first build did.  Otherwise the cache's forms are decoded, or the model
    explored, then labelled when `labelled`, and the result is written back:
    a failed write fails `build` and only warns after labelling."""
    key = _model_key(args.model, args.fix_deadlocks)
    cache = _cache_path(args)
    mdp = load_mdp(cache, key)
    if mdp is not None and mdp.n_states > args.max_states:
        mdp = None
    if mdp is not None and (mdp.label_names is not None or not labelled):
        log.info("reusing cache %s%s", cache, " with labels" if labelled else "")
        return mdp
    model = _model(args)
    if mdp is not None and decode_states(mdp, model.controls) is not None:
        log.info("reusing cache %s", cache)
    else:
        mdp = explore(model, args.max_states, args.fix_deadlocks)
    if labelled:
        label(mdp, model.patterns)
    try:
        os.makedirs(args.out, exist_ok=True)
        save_mdp(cache, mdp, key)
    except OSError as exc:
        if not labelled:
            raise
        log.warning("could not write the labelled cache %s: %s", cache, exc)
    return mdp


def cmd_validate(args) -> int:
    model = _model(args)
    problems = validate(model.init) + clock_problems(model)
    report = {
        "model": model.name,
        "rules": model.rule_count(),
        "controls": len(model.controls),
        "predicates": len(model.predicates),
        "init_entities": model.init.nnodes,
        "problems": problems,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"{model.name}: {report['rules']} rules, {report['controls']} controls, "
            f"{report['predicates']} predicates"
        )
        for p in problems:
            print(f"  problem: {p}")
    return EXIT_OK if not problems else EXIT_USAGE


def cmd_build(args) -> int:
    mdp = _mdp(args)
    cache = _cache_path(args)
    initial_actions = [c.action for c in mdp.choices[0]]
    stats = {
        "model": _model_stem(args),
        "states": mdp.n_states,
        "choices": mdp.n_choices,
        "transitions": mdp.n_transitions,
        "deadlocks": len(mdp.deadlocks()),
        "initial_actions": initial_actions,
        "cache": cache,
        "cache_digest": cache_digest(cache),
    }
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(
            f"{stats['model']}: {stats['states']} states, {stats['choices']} choices, "
            f"{stats['transitions']} transitions, {stats['deadlocks']} deadlocks"
        )
        print(f"initial actions: {{{', '.join(initial_actions)}}}")
        print(f"cache: {cache} sha256={stats['cache_digest']}")
    return EXIT_OK


def cmd_export(args) -> int:
    mdp = _mdp(args, labelled=True)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, _model_stem(args))
    written = []
    if args.format == "prism":
        tra, lab, sta = export_prism(mdp)
        for ext, text in ((".tra", tra), (".lab", lab), (".sta", sta)):
            with open(stem + ext, "w", encoding="utf-8") as fh:
                fh.write(text)
            written.append(stem + ext)
    else:
        with open(stem + ".dot", "w", encoding="utf-8") as fh:
            fh.write(export_dot(mdp))
        written.append(stem + ".dot")
    for path in written:
        print(path)
    return EXIT_OK


def cmd_check(args) -> int:
    props = parse_properties(read_source(args.props))
    if not props:
        print("check: no properties in file", file=sys.stderr)
        return EXIT_USAGE
    mdp = _mdp(args, labelled=True)
    all_hold = True
    results = []
    for prop in props:
        verdict = check(mdp, prop)
        all_hold &= verdict.holds
        results.append(
            {
                "property": prop.source,
                "holds": verdict.holds,
                "value": verdict.value,
                "detail": verdict.detail,
            }
        )
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            status = "HOLDS" if r["holds"] else "FAILS"
            extra = f" ({r['detail']})" if r["detail"] else ""
            print(f"{status}: {r['property']}{extra}")
    return EXIT_OK if all_hold else EXIT_PROPERTY


def cmd_simulate(args) -> int:
    model = _model(args)
    rng = random.Random(args.seed)
    state = model.init
    for step in range(args.steps):
        per_action = enabled_outcomes(state, model)
        if not per_action:
            print(f"deadlock at step {step}")
            return EXIT_OK
        actions = list(per_action)
        action = actions[rng.randrange(len(actions))]
        outcomes = per_action[action]
        weights = integer_weights(outcomes)
        pick = rng.randrange(sum(weights))
        for chosen, w in zip(outcomes, weights):
            if pick < w:
                break
            pick -= w
        state = apply(state, chosen.rule, chosen.match)
        print(f"{step}, {action}, {chosen.name}, {canonical_digest(state)[:16]}")
    return EXIT_OK


_OPTIONS = {
    "--props": dict(required=True, help="property file"),
    "--format": dict(choices=("prism", "dot"), default="prism", help="export format"),
    "--max-states": dict(type=_at_least(1), default=100_000, help="exploration state budget"),
    "--fix-deadlocks": dict(action="store_true", help="give deadlock states a stall self-loop"),
    "--seed": dict(type=int, default=0, help="simulation seed"),
    "--steps": dict(type=_at_least(0), default=20, help="simulation length"),
    "--out": dict(default=".", help="output/cache directory"),
    "--json": dict(action="store_true", help="machine-readable output"),
}
_MDP_FLAGS = ("--max-states", "--fix-deadlocks", "--out")
_COMMANDS = {
    "validate": (cmd_validate, "parse, elaborate and check the model and its clocks",
                 ("--json",)),
    "build": (cmd_build, "explore the state space and cache the MDP", _MDP_FLAGS + ("--json",)),
    "export": (cmd_export, "write PRISM explicit files or a DOT graph",
               ("--format",) + _MDP_FLAGS),
    "check": (cmd_check, "evaluate a property file against the MDP",
              ("--props",) + _MDP_FLAGS + ("--json",)),
    "simulate": (cmd_simulate, "print a seeded random trace", ("--seed", "--steps")),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Every command's parser, built on the first call and kept for the
    process."""
    parser = argparse.ArgumentParser(
        prog="tickgraph",
        description="Action bigraphs with digital clocks: build, check and export MDPs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, blurb, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=blurb)
        p.add_argument("model", help="path to the .big model file")
        for flag in flags:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimit as exc:
        print(f"tickgraph: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (InputError, OSError) as exc:
        print(f"tickgraph: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        print(f"tickgraph: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
