"""Leaf-seeking curvature flow in conformally flat ambient 3-manifolds."""

from .ambient import Euclidean, PaperExample, PoincareBall, make_geometry
from .ckv import KillingPair, Schedule, estimate_T0, verify_assumptions
from .config import load_config, parse_config
from .diagnostics import FlowTrace, isoperimetric_check, leaf_profile
from .flow import StepControl, run, run_graph
from .surface import (
    TriSurface,
    checked_seed,
    ellipsoid_seed,
    icosphere,
    mesh_geometry,
    sphere_seed,
)

__all__ = [
    "Euclidean",
    "PaperExample",
    "PoincareBall",
    "make_geometry",
    "KillingPair",
    "Schedule",
    "estimate_T0",
    "verify_assumptions",
    "load_config",
    "parse_config",
    "FlowTrace",
    "isoperimetric_check",
    "leaf_profile",
    "StepControl",
    "run",
    "run_graph",
    "TriSurface",
    "checked_seed",
    "ellipsoid_seed",
    "icosphere",
    "mesh_geometry",
    "sphere_seed",
]
