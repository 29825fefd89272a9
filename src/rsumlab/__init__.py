"""rsumlab: generalized restricted sumsets over finite abelian groups.

Evaluate A+B, the restricted sumset, A +_S B = {a+b : a-b not in S}, and the
gamma-twisted variant; run the constructive procedures behind their
cardinality lower bounds; and verify the whole bound catalog exhaustively at
desk scale, with tightness-witness and counterexample search.
"""

from .groups import (
    DEFAULT_MAX_ORDER,
    Element,
    GroupError,
    GroupSpec,
    abelian_group_specs,
    abelian_groups_up_to,
    format_element,
    format_group,
    make_group,
    parse_element,
    parse_group,
)
from .sets import (
    ElementSet,
    EnumerationPlan,
    GroupMismatchError,
    canonicalize_triple,
    enumerate_triples,
    format_set,
    parse_set,
)
from .engine import (
    generalized_restricted_sumset,
    restricted_sumset,
    sumset,
    twisted_restricted_sumset,
)
from .subgroups import (
    Subgroup,
    all_subgroups,
    is_subgroup_set,
    prime_order_subgroups,
)
from .structure import (
    ArithmeticPair,
    CosetDecomposition,
    CosetPair,
    EmptyClassification,
    FiberSpreadReport,
    HypothesisViolation,
    LemmaViolation,
    SdrInstance,
    SdrSolution,
    SdrVariant,
    Singleton,
    StructureClass,
    classify_critical_pair,
    coset_decompose,
    fiber_spread_check,
    progression_differences,
    sdr_select,
    stabilizer,
)
from .bounds import (
    ALL_KINDS,
    DEFAULT_MAX_WITNESSES,
    DEFAULT_WORK_CEILING,
    BoundKind,
    BoundReport,
    VerificationSummary,
    WorkCeilingExceeded,
    applicability,
    bound_value,
    check_triple,
    exhaustive_verify,
    kind_from_name,
    search_witnesses,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
