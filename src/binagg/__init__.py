"""Aggregation of binary evaluations over constrained feasible spaces.

The package models societies voting yes/no on m linked issues, where
only some position combinations are feasible: strict preference orders,
fixed-size committees, logically linked judgments, cycles.  It provides
the standard aggregation rules for such spaces, exhaustive searches for
profitable lies under three nested manipulation notions, and named
verification suites that re-derive the published worked examples and
impossibility boundaries at desk scale.
"""

from .aggregators import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    Dictator,
    IiaStage,
    NearestNeighborRule,
    Partition,
    Plurality,
    Rule,
    RuleSpec,
    StageRule,
    StructuralReport,
    TableRule,
    WelfareMaximizer,
    check_structural,
    column_sums,
    committee_tie_order,
    issuewise_majority,
    iter_profiles,
    monotone_tables,
    outcome_table,
    parse_rule,
    profile_count,
    profile_rows,
    swm_topk,
)
from .manipulation import (
    Certification,
    Deviation,
    GAINED,
    LOST,
    UNCHANGED,
    ManipulationWitness,
    certify,
    classify_deviation,
    find_witness,
    issue_partition,
    issue_relation,
    iter_witnesses,
    relation_string,
    search_size,
)
from .metric import (
    TieOrder,
    check_h2,
    nn_select,
    nn_set,
    uniform_weights,
    validate_weights,
    weighted_hamming,
)
from .spaces import (
    EvaluationSpace,
    InfeasibleOrderError,
    MAX_ISSUES,
    PartialEvaluation,
    bit_at,
    builtin_space,
    builtin_space_names,
    choose_space,
    classifier_space,
    cycle_space,
    decode_order,
    doctrinal_space,
    encode_order,
    enumerate_mipes,
    explicit_space,
    from_bits,
    hamming,
    interval,
    is_between,
    is_mipe,
    mipe_set,
    mipe_type,
    neighbors_of,
    partial_feasible,
    preference_space,
    project,
    to_bits,
    validate_profile,
)
from .suites import CheckResult, SuiteReport, format_report, run_suite, suite_names

__version__ = "0.1.0"
