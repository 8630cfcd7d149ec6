"""tickgraph: action bigraph rewriting with digital clocks.

Library surface: the bigraph value types and constructors, occurrence
matching with canonical forms, weighted prioritised reaction rules,
exhaustive MDP exploration with PRISM/DOT export, bigraph-pattern
labelling with a small probabilistic checker, and the front end of the
`.big` and `.props` languages (one parser, the elaborator, no printer) with
the digital-clocks check.  Models are written in `.big`; the library builds
no clocks or rules of its own.
"""

__version__ = "0.1.0"
