"""A lambda-calculus workbench for essential reduction strategies.

Four strategies over one term language: head, weak call-by-value,
leftmost-outermost and least-level reduction, each paired with its
inessential complement, indexed parallel steps, constructive factorization
and normalization, and an exhaustive property harness.
"""

from .terms import (
    App,
    Free,
    Lam,
    ParseError,
    Position,
    Term,
    Var,
    alpha_eq,
    count_occurrences,
    free_names,
    instantiate,
    is_closed,
    is_neutral,
    is_normal,
    is_value,
    parse,
    show,
    show_steps,
    size,
    substitute,
)
from .reductions import (
    Base,
    INFINITY,
    Step,
    StepKind,
    SystemId,
    beta_redexes,
    betav_redexes,
    least_level,
    step_at,
)
from .parallel import (
    Flavor,
    ParDerivation,
    all_parallel_steps,
    derive,
    identity_derivation,
    parallel_level,
    realize,
    selection_of,
    sequential_index,
    sequentialize,
    subst_parallel,
)
from .engine import (
    EssentialSystem,
    Factorization,
    Outcome,
    Report,
    SYSTEMS,
    Trace,
    check_normalization,
    check_property,
    check_subst_index,
    factorize,
    get_system,
    head_steps,
    is_parallel_inessential,
    ll_steps,
    lo_steps,
    merge,
    neg_head_steps,
    neg_ll_steps,
    neg_lo_steps,
    neg_weak_steps,
    normalize,
    split,
    trace_from_positions,
    weak_cbv_steps,
)
from .enumeration import EnumSpec, count_terms, enumerate_terms, random_term
from .graphs import ReductionGraph, explore

__version__ = "0.1.0"
