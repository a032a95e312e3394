"""Aggregation of binary evaluations over constrained feasible spaces.

The package models societies voting yes/no on m linked issues, where
only some position combinations are feasible: strict preference orders,
fixed-size committees, logically linked judgments, cycles.  It provides
the standard aggregation rules for such spaces, exhaustive searches for
profitable lies under three nested manipulation notions, and named
verification suites that re-derive the published worked examples and
impossibility boundaries at desk scale.

The package root re-exports the names of README's library example and a
few more entry points; everything else is imported from its submodule.
"""

from .aggregators import IiaStage, NearestNeighborRule, monotone_tables, parse_rule
from .manipulation import classify_deviation, find_witness, search_size
from .metric import TieOrder
from .spaces import builtin_space, from_bits, to_bits
from .suites import suite_names

__version__ = "0.1.0"
