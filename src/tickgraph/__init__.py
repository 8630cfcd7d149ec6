"""tickgraph: action bigraph rewriting with digital clocks.

Library surface: the bigraph value types and constructors, occurrence
matching with canonical forms, weighted prioritised reaction rules,
exhaustive MDP exploration with PRISM/DOT export, bigraph-pattern
labelling with a small probabilistic checker, and the front end of the
`.big` and `.props` languages (one parser, the elaborator, no printer) with
the digital-clocks check.  Models are written in `.big`; the library builds
no clocks or rules of its own.
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
from .lang import ForcedNext, Inevitable, ParseError, Reach, Safety, parse, parse_properties
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
from .verify import Pattern, Verdict, check, label, reach_prob

__version__ = "0.1.0"
