"""Forward (IJ -> EJ) and backward (EJ -> IJ) reductions."""

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

__all__ = [
    "DomainChanged",
    "EncodedQuery",
    "ForwardReducer",
    "ForwardReductionResult",
    "forward_reduce",
    "backward_database",
    "backward_reduce",
    "bitstring_encode_database",
    "shift_distinct_left",
    "verify_distinct_left",
    "OneStepResult",
    "iterate_one_step",
    "one_step_forward",
]
