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
    satisfies,
)
from .graph import (
    CATEGORICAL,
    ORDERED,
    Dimension,
    DirectedGraph,
    FeatureSchema,
    MultiGraph,
    convert_multigraph,
    in_neighbors,
    iterated_in,
    iterated_out,
    out_neighbors,
    reachability_levels,
    select_by_color,
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
    covers,
    enumerate_pseudo_bases,
    injects,
    mine_exact_scp,
    mine_feasible_scp,
    outspans,
    simulate_scp,
    spans,
)
from .setcover import minimal_covers
from .stp import (
    TosetProgram,
    classify_stp,
    consistent,
    mine_exact_stp,
    mine_feasible_stp,
    select_by_criterion,
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
    "consistent",
    "convert_multigraph",
    "covers",
    "criterion_from_dict",
    "criterion_key",
    "criterion_mask",
    "criterion_to_dict",
    "enumerate_pseudo_bases",
    "in_neighbors",
    "injects",
    "iterated_in",
    "iterated_out",
    "load_graph",
    "mine_exact_scp",
    "mine_exact_stp",
    "mine_feasible_scp",
    "mine_feasible_stp",
    "minimal_covers",
    "out_neighbors",
    "outspans",
    "parse_vertex_set",
    "reachability_levels",
    "satisfies",
    "select_by_color",
    "select_by_criterion",
    "serialize_graph",
    "serialize_vertex_set",
    "simulate_scp",
    "simulate_stp",
    "spans",
    "to_dot",
]
