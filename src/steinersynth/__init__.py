"""Connectivity-aware synthesis of CNOT and CNOT+RZ circuits.

Given a hardware coupling graph, the synthesis routines here emit circuits
whose every CNOT lies on a graph edge, grouping row eliminations along
Steiner trees instead of expanding long-range gates one by one.
"""

from .circuits import Angle, Circuit, Gate, cnot, emit_circuit, h, parse_circuit, rz
from .cnot_synth import (
    SynthesisReport,
    eliminate_column_cost,
    expand_templates,
    naive_column_cost,
    naive_swap_expand,
    plan_post_transpose,
    plan_pre_transpose,
    pmh_synthesize,
    synthesize_constrained,
)
from .gf2 import (
    BinaryMatrix,
    SingularMatrixError,
    emit_matrix,
    invert,
    multiply,
    parse_matrix,
    random_invertible,
    rank,
    simulate_cnot_circuit,
)
from .graphs import (
    ConnectivityGraph,
    SteinerTree,
    builtin_architecture,
    complete_graph,
    emit_graph,
    grid_graph,
    line_graph,
    parse_graph,
    random_connected_graph,
    shortest_path,
    steiner_approx,
    steiner_exact,
)
from .optimizer import cancel_pass
from .phase_synth import (
    PhasePolynomial,
    SumOverPaths,
    build_parity_matrix,
    extract_sum_over_paths,
    parse_phase_polynomial,
    synth_parity_network_constrained,
    synthesize_cnot_rz,
)
from .pipeline import run
from .universal import Segment, merge_delete_h, partition_segments, route_universal
from .verify import Certificate, EquivalenceReport, certify, edge_legal, verify_equivalence

__version__ = "0.1.0"
