"""Congested-clique simulation of sparse semiring matrix multiplication,
triangle listing, 4-cycle counting, and unweighted APSP."""

from .engine import CliqueEngine, PhaseRecord, RoundLedger, SimulationError
from .graphs import DisconnectedGraphError, Graph, GraphError, load_edge_list
from .graph_suite import apsp, count_4_cycles
from .semiring import (Semiring, boolean_semiring, counting_semiring,
                       min_plus_semiring, semiring_by_name)
from .smm import SmmResult, SplitPair, choose_split, smm
from .sparse import (DimensionError, FormatError, SparseMatrix, load_matrix_market,
                     save_matrix_market)
from .triangles import TriangleResult, list_triangles

__version__ = "0.1.0"

__all__ = [
    "CliqueEngine", "PhaseRecord", "RoundLedger", "SimulationError",
    "Graph", "GraphError", "DisconnectedGraphError",
    "load_edge_list",
    "apsp", "count_4_cycles",
    "Semiring", "boolean_semiring", "counting_semiring", "min_plus_semiring",
    "semiring_by_name",
    "SmmResult", "SplitPair", "choose_split", "smm",
    "DimensionError", "FormatError", "SparseMatrix",
    "load_matrix_market", "save_matrix_market",
    "TriangleResult", "list_triangles",
]
