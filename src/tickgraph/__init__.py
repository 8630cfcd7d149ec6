"""tickgraph: action bigraph rewriting with digital clocks.

Library surface: the bigraph value types and constructors, occurrence
matching with canonical forms, weighted prioritised reaction rules,
exhaustive MDP exploration with PRISM/DOT export, bigraph-pattern
labelling with a small probabilistic checker, and the `.big` language
front end (parser and elaborator, no printer) with its digital-clocks
check.  Models are written in `.big`; the library builds no clocks or
rules of its own.
"""

from .bigraph import (
    Bigraph,
    Control,
    Link,
    close,
    empty,
    ion,
    merge,
    merge_all,
    nest,
    parallel,
    parallel_all,
    site,
    validate,
)
from .canon import canonical_digest, canonical_form, decode_canonical, is_iso
from .elaborate import ElabError, clock_problems, elaborate, load_model
from .lang import ParseError, parse
from .match import Match, occurrences
from .mdp import (
    ExplorationLimit,
    Mdp,
    explore,
    export_dot,
    export_prism,
)
from .params import Arith, Var
from .rules import (
    Model,
    RuleEntry,
    RuleFamily,
    action_distribution,
    apply,
    enabled_outcomes,
)
from .verify import (
    ForcedNext,
    Inevitable,
    Pattern,
    Reach,
    Safety,
    Verdict,
    check,
    label,
    parse_properties,
    reach_prob,
)

__version__ = "0.1.0"
