"""Mining and verification of deterministic graph-walking programs.

The library works on finite directed graphs whose vertices carry feature
vectors.  A walking program is a fixed-length sequence of per-step vertex
filters; simulating it from a source set produces a trace of reachable
endpoint sets.  Two program families are supported: colour sequences (one
categorical test per step) and criterion sequences (one decision-tree
predicate per step), each with an exact and a feasible mining mode.
"""

from .bitset import VertexSet
from .criterion import (
    AllOf,
    AnyOf,
    Atom,
    InseparableError,
    compute_criterion,
    criterion_from_dict,
    criterion_key,
    criterion_mask,
    criterion_to_dict,
)
from .graph import (
    CATEGORICAL,
    ORDERED,
    Dimension,
    DirectedGraph,
    FeatureSchema,
    MultiGraph,
    convert_multigraph,
)
from .graphio import (
    GraphFormatError,
    load_graph,
    parse_vertex_set,
    serialize_graph,
    serialize_vertex_set,
    to_dot,
)
from .mining import Budget, MiningConfig, MiningReport
from .scp import (
    Classification,
    classify_scp,
    mine_exact_scp,
    mine_feasible_scp,
    simulate_scp,
)
from .setcover import minimal_covers
from .stp import (
    TosetProgram,
    classify_stp,
    mine_exact_stp,
    mine_feasible_stp,
    simulate_stp,
)

__version__ = "0.1.0"

__all__ = [
    "AllOf",
    "AnyOf",
    "Atom",
    "Budget",
    "CATEGORICAL",
    "Classification",
    "Dimension",
    "DirectedGraph",
    "FeatureSchema",
    "GraphFormatError",
    "InseparableError",
    "MiningConfig",
    "MiningReport",
    "MultiGraph",
    "ORDERED",
    "TosetProgram",
    "VertexSet",
    "classify_scp",
    "classify_stp",
    "compute_criterion",
    "convert_multigraph",
    "criterion_from_dict",
    "criterion_key",
    "criterion_mask",
    "criterion_to_dict",
    "load_graph",
    "mine_exact_scp",
    "mine_exact_stp",
    "mine_feasible_scp",
    "mine_feasible_stp",
    "minimal_covers",
    "parse_vertex_set",
    "serialize_graph",
    "serialize_vertex_set",
    "simulate_scp",
    "simulate_stp",
    "to_dot",
]
