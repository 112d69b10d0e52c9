"""Exact geodetic set solvers and hardness gadget generators."""

from __future__ import annotations

from geodetic.fpt import SolveResult, solve_fpt
from geodetic.gadget import (
    GadgetGraph,
    build_gadget,
    canonical_solution,
    exhaustive_no_check,
    verify_structure,
)
from geodetic.graph import (
    DisconnectedError,
    Graph,
    GraphError,
    GraphFormatError,
    VerificationError,
    connected_components,
    diameter,
    feedback_edge_number,
    format_graph,
    interval_closure,
    is_connected,
    is_geodetic,
    parse_graph,
)
from geodetic.gridtiling import (
    GridTilingInstance,
    grid_tiling_brute,
    random_instance,
    random_no_instance,
    random_yes_instance,
    solution_valid,
)
from geodetic.ilp import IlpModel, IlpResult, solve as solve_ilp
from geodetic.oracle import min_geodetic_brute
from geodetic.reduction import ReductionResult, lift_witness, reduce_to_fixpoint

__all__ = [
    "DisconnectedError",
    "GadgetGraph",
    "Graph",
    "GraphError",
    "GraphFormatError",
    "GridTilingInstance",
    "IlpModel",
    "IlpResult",
    "ReductionResult",
    "SolveResult",
    "VerificationError",
    "build_gadget",
    "canonical_solution",
    "connected_components",
    "diameter",
    "exhaustive_no_check",
    "feedback_edge_number",
    "format_graph",
    "grid_tiling_brute",
    "interval_closure",
    "is_connected",
    "is_geodetic",
    "lift_witness",
    "min_geodetic_brute",
    "parse_graph",
    "random_instance",
    "random_no_instance",
    "random_yes_instance",
    "reduce_to_fixpoint",
    "solution_valid",
    "solve_fpt",
    "solve_ilp",
    "verify_structure",
]
