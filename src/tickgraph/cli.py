"""Command-line front end: parse -> elaborate -> explore -> check/export.

Each subcommand takes only the flags it reads.  `validate` also checks the
model's digital-clocks discipline (see `elaborate.clock_problems`) and
reports each breach as a problem; `build`, `export` and `check` do not.

Exit codes: 0 success (all properties hold), 1 property failure, 2 usage or
model error (including any `validate` problem), 3 resource limit, 4
internal error (a one-line diagnostic on stderr, such as value iteration
not converging).  All outputs are byte deterministic for identical inputs
and flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import random
import sys

from .canon import canonical_digest
from .bigraph import validate
from .elaborate import ElabError, clock_problems, load_model
from .lang import ParseError, parse_properties
from .mdp import (
    ExplorationLimit,
    add_stall_loops,
    explore,
    export_dot,
    export_prism,
    file_digest,
    load_mdp,
    save_mdp,
)
from .params import ParameterLimit
from .rules import apply, enabled_outcomes, integer_weights
from .verify import UnknownLabel, check, label

log = logging.getLogger("tickgraph")

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


def _cache_path(args) -> str:
    stem = os.path.splitext(os.path.basename(args.model))[0]
    return os.path.join(args.out, stem + ".mdpc")


def _obtain_mdp(args, model):
    """Load the cached MDP when fresh, else explore and refresh the cache."""
    fix = args.fix_deadlocks
    key = _model_key(args.model, fix)
    cache = _cache_path(args)
    mdp = load_mdp(cache, model.controls, key)
    # over the budget, exploring again fails exactly as the first build did
    if mdp is not None and mdp.n_states <= args.max_states:
        log.info("reusing cache %s", cache)
        return mdp, cache
    mdp = explore(model, max_states=args.max_states)
    if fix:
        add_stall_loops(mdp)
    os.makedirs(args.out, exist_ok=True)
    save_mdp(cache, mdp, key)
    return mdp, cache


def cmd_validate(args) -> int:
    model = load_model(args.model)
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
    model = load_model(args.model)
    mdp, cache = _obtain_mdp(args, model)
    initial_actions = [c.action for c in mdp.choices[0]]
    stats = {
        "model": model.name,
        "states": mdp.n_states,
        "choices": mdp.n_choices,
        "transitions": mdp.n_transitions,
        "deadlocks": len(mdp.deadlocks()),
        "initial_actions": initial_actions,
        "cache": cache,
        "cache_digest": file_digest(cache),
    }
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(
            f"{model.name}: {stats['states']} states, {stats['choices']} choices, "
            f"{stats['transitions']} transitions, {stats['deadlocks']} deadlocks"
        )
        print(f"initial actions: {{{', '.join(initial_actions)}}}")
        print(f"cache: {cache} sha256={stats['cache_digest']}")
    return EXIT_OK


def cmd_export(args) -> int:
    model = load_model(args.model)
    mdp, _cache = _obtain_mdp(args, model)
    label(mdp, model.patterns)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, model.name)
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
    model = load_model(args.model)
    with open(args.props, "r", encoding="utf-8") as fh:
        props = parse_properties(fh.read())
    if not props:
        print("check: no properties in file", file=sys.stderr)
        return EXIT_USAGE
    mdp, _cache = _obtain_mdp(args, model)
    label(mdp, model.patterns)
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
    model = load_model(args.model)
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


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="tickgraph",
        description="Action bigraphs with digital clocks: build, check and export MDPs.",
    )
    options = {
        "--props": dict(required=True, help="property file"),
        "--format": dict(choices=("prism", "dot"), default="prism", help="export format"),
        "--max-states": dict(type=_at_least(1), default=100_000,
                             help="exploration state budget"),
        "--fix-deadlocks": dict(action="store_true",
                                help="give deadlock states a stall self-loop"),
        "--seed": dict(type=int, default=0, help="simulation seed"),
        "--steps": dict(type=_at_least(0), default=20, help="simulation length"),
        "--out": dict(default=".", help="output/cache directory"),
        "--json": dict(action="store_true", help="machine-readable output"),
    }
    mdp_flags = ("--max-states", "--fix-deadlocks", "--out")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, blurb, flags in (
        ("validate", cmd_validate, "parse, elaborate and check the model and its clocks",
         ("--json",)),
        ("build", cmd_build, "explore the state space and cache the MDP",
         mdp_flags + ("--json",)),
        ("export", cmd_export, "write PRISM explicit files or a DOT graph",
         ("--format",) + mdp_flags),
        ("check", cmd_check, "evaluate a property file against the MDP",
         ("--props",) + mdp_flags + ("--json",)),
        ("simulate", cmd_simulate, "print a seeded random trace", ("--seed", "--steps")),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("model", help="path to the .big model file")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ExplorationLimit as exc:
        print(f"tickgraph: {exc} (frontier {exc.frontier})", file=sys.stderr)
        return EXIT_LIMIT
    except ParameterLimit as exc:
        print(f"tickgraph: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ParseError, ElabError, UnknownLabel) as exc:
        print(f"tickgraph: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"tickgraph: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        log.debug("internal error", exc_info=True)
        print(f"tickgraph: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
