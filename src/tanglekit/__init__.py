"""tanglekit: biased multigraphs, tangle analysis, linkages and structure.

A biased graph pairs a multigraph with a theta-consistent family of
"balanced" cycles.  This package decides whether such a graph is tangled
(unbalanced, no blocking vertex, no two vertex-disjoint unbalanced cycles),
finds linkages or 3-planar obstructions, builds the known tangled families,
and classifies tangled inputs against them, exhaustively and at desk scale.

The classifier itself is ``tanglekit.classify.classify``: bound here, it
would hide the module of the same name.
"""

from .bias import (AllBalanced, AllUnbalanced, BiasedGraph, BiasError, ExplicitSet, Signed, complete_bias,
                   make_explicit, make_signed, simplify, switch_signature, validate_biased_graph)
from .classify import (ClassificationReport, ClassifyError, FourConnectedCore, Label, SumDecomposition, SumNode,
                       WheelCore, decompose)
from .embedding import OrderedPlanarEmbedding, RotationSystem, ordered_planarity, walk_contains_order
from .families import (Certificate, CheckResult, FamilyDescriptor, FamilyError, build_family, describe_k5_family,
                       describe_pp_signed, t_sum, verify_family)
from .graph import Bond, Bridge, Cycle, GraphError, MultiGraph, Polygon, Rings, bridges_of_cut, rings
from .io import InstanceDocument, ParseError, export_dot, load, parse, serialize
from .limits import DEFAULT_CAPS, Caps, ResourceLimitError, caps_from_env
from .linkage import (Linkage, LinkageError, ThreePlanarWitness, VertexPath, find_linkage, find_three_planar,
                      neighborhood, project, verify_linkage, verify_witness)
from .tangles import (StandardPartition, Tangled, blocking_pairs, blocking_vertices, disjoint_unbalanced_pair_exists,
                      find_disjoint_unbalanced_pair, is_tangled, standard_partition)

__all__ = [
    "AllBalanced", "AllUnbalanced", "BiasedGraph", "BiasError", "ExplicitSet", "Signed", "complete_bias",
    "make_explicit", "make_signed", "simplify", "switch_signature", "validate_biased_graph",
    "ClassificationReport", "ClassifyError", "FourConnectedCore", "Label", "SumDecomposition", "SumNode",
    "WheelCore", "decompose",
    "OrderedPlanarEmbedding", "RotationSystem", "ordered_planarity", "walk_contains_order",
    "Certificate", "CheckResult", "FamilyDescriptor", "FamilyError", "build_family", "describe_k5_family",
    "describe_pp_signed", "t_sum", "verify_family",
    "Bond", "Bridge", "Cycle", "GraphError", "MultiGraph", "Polygon", "Rings", "bridges_of_cut", "rings",
    "InstanceDocument", "ParseError", "export_dot", "load", "parse", "serialize",
    "DEFAULT_CAPS", "Caps", "ResourceLimitError", "caps_from_env",
    "Linkage", "LinkageError", "ThreePlanarWitness", "VertexPath", "find_linkage", "find_three_planar",
    "neighborhood", "project", "verify_linkage", "verify_witness",
    "StandardPartition", "Tangled", "blocking_pairs", "blocking_vertices", "disjoint_unbalanced_pair_exists",
    "find_disjoint_unbalanced_pair", "is_tangled", "standard_partition",
]

__version__ = "0.1.0"
