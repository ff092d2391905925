"""acuta — construction and certification of acute point sets.

A set of points is *acute* when every angle spanned by three of its points
is strictly less than a right angle. This package builds candidate sets of
size 2**(d-1) + 1 in R^d from perturbed hypercubes plus an apex, certifies
them in exact (rational or sparse dyadic) or float64 arithmetic, and ships
the verification machinery separately from the construction so
certificates never trust the builder.
"""
from .scalars import Backend, Dyadic, FLOAT64, RATIONAL, ScalarError
from .geometry import (GeometryError, Point, PointSet, TripleWitness,
                       dot_at_apex, set_margin, squared_diameter)
from .construct import (ConstructionConfig, ConstructionError,
                        ConstructionTrace, LemmaReport, TraceStep,
                        apex_point, construct_acute_cube, construct_full,
                        hypercube_vertices, lemma_check, perturb_vertex,
                        random_baseline, safe_radius)
from .verify import (CardinalityReport, VerificationReport, ef_bound,
                     fibonacci, hard_cap, legacy_bounds, target_size,
                     verify_acute, verify_antipodal_witness,
                     verify_cardinality_bounds, verify_nonobtuse)
from .pointset_io import ParseError, load_point_set, save_point_set

__version__ = "0.1.0"

__all__ = [
    "Backend", "Dyadic", "FLOAT64", "RATIONAL", "ScalarError",
    "GeometryError", "Point", "PointSet", "TripleWitness", "dot_at_apex",
    "set_margin", "squared_diameter",
    "ConstructionConfig", "ConstructionError", "ConstructionTrace",
    "LemmaReport", "TraceStep", "apex_point", "construct_acute_cube",
    "construct_full", "hypercube_vertices", "lemma_check", "perturb_vertex",
    "random_baseline", "safe_radius",
    "CardinalityReport", "VerificationReport", "ef_bound", "fibonacci",
    "hard_cap", "legacy_bounds", "target_size", "verify_acute",
    "verify_antipodal_witness", "verify_cardinality_bounds",
    "verify_nonobtuse",
    "ParseError", "load_point_set", "save_point_set",
    "__version__",
]
