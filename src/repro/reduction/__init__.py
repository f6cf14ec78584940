"""Forward (IJ -> EJ) and backward (EJ -> IJ) reductions."""

from .encoding_store import EncodingStore
from .forward import (
    DomainChanged,
    EncodedQuery,
    ForwardReducer,
    ForwardReductionResult,
    forward_reduce,
)
from .backward import (
    backward_database,
    backward_reduce,
    bitstring_encode_database,
)
from .disjoint import shift_distinct_left, verify_distinct_left
from .one_step import OneStepResult, iterate_one_step, one_step_forward
from .factored import (
    FactoredForwardReducer,
    count_ij_factored,
    evaluate_ij_factored,
    forward_reduce_factored,
)

__all__ = [
    "DomainChanged",
    "EncodedQuery",
    "EncodingStore",
    "ForwardReducer",
    "ForwardReductionResult",
    "forward_reduce",
    "backward_database",
    "backward_reduce",
    "bitstring_encode_database",
    "shift_distinct_left",
    "verify_distinct_left",
    "FactoredForwardReducer",
    "count_ij_factored",
    "evaluate_ij_factored",
    "forward_reduce_factored",
    "OneStepResult",
    "iterate_one_step",
    "one_step_forward",
]
