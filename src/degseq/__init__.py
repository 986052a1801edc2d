"""Degree-sequence toolkit.

Graphicality testing (Erdos-Gallai), graph realization with a bounded
component-size guarantee, regularity-count encodings, and decision
procedures for the induced-subgraph order on graphic sequences, plus a
stream harness that hunts for comparable pairs.
"""

from .errors import CapExceededError, GoodPairNotFound, NotGraphicError
from .graphs import (
    SimpleGraph,
    components,
    degree_sequence,
    disjoint_union,
    from_edge_list_text,
    from_json_dict,
    to_edge_list_text,
    to_json_dict,
)
from .harness import (
    GoodPairReport,
    StreamConfig,
    enumerate_graphic,
    find_good_pair,
    generate_stream,
    report_to_json,
)
from .rao import (
    Outcome,
    RaoWitness,
    canonical_form,
    compare,
    decompose,
    higman_embeds,
    is_induced_subgraph,
    labeled_realizations,
    rao_leq_oracle,
    rao_leq_sufficient,
    rao_leq_via_components,
    witness_to_json,
)
from .realization import (
    plan_bounded,
    realize,
    realize_bounded,
)
from .sequences import (
    GraphicalityVerdict,
    IntegerSequence,
    RegularitySequence,
    erdos_gallai_check,
    from_regularity,
    leq_pointwise,
    parse_sequence,
    sufficient_by_length,
    to_regularity,
)

__all__ = [
    "CapExceededError",
    "GoodPairNotFound",
    "GoodPairReport",
    "GraphicalityVerdict",
    "IntegerSequence",
    "NotGraphicError",
    "Outcome",
    "RaoWitness",
    "RegularitySequence",
    "SimpleGraph",
    "StreamConfig",
    "canonical_form",
    "compare",
    "components",
    "decompose",
    "degree_sequence",
    "disjoint_union",
    "enumerate_graphic",
    "erdos_gallai_check",
    "find_good_pair",
    "from_edge_list_text",
    "from_json_dict",
    "from_regularity",
    "generate_stream",
    "higman_embeds",
    "is_induced_subgraph",
    "labeled_realizations",
    "leq_pointwise",
    "parse_sequence",
    "plan_bounded",
    "rao_leq_oracle",
    "rao_leq_sufficient",
    "rao_leq_via_components",
    "realize",
    "realize_bounded",
    "report_to_json",
    "sufficient_by_length",
    "to_edge_list_text",
    "to_json_dict",
    "to_regularity",
    "witness_to_json",
]

__version__ = "0.1.0"
