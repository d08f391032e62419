"""Exact-arithmetic toolkit for lonely runner instances.

Decides whether integer speed vectors admit a time at which every
runner keeps distance 1/(k+1) from the start, using exact rational
arithmetic throughout: an interval-sweep oracle, the runner polyhedron
and its planar integer-point cell, integer sufficient-condition rules, a dyadic
grid search, and a census sweep over all speed subsets of {1..N}.
"""

from .classify import ClassificationReport, classify, evaluate_rules
from .dyadic import dyadic_denominator, dyadic_exponent, find_dyadic_time
from .enumeration import (
    EnumerationSummary,
    VectorRecord,
    coprime_count_moebius,
    export,
    iter_vector_records,
    sweep,
)
from .model import SpeedVector, format_rational, new_speed_vector, normalize
from .oracle import (
    earliest_suitable_time,
    is_instance,
    is_suitable,
    lattice_witness_from_time,
    suitable_set,
)
from .polyhedron import (
    HalfPlane,
    LemmaWidths,
    QGeometry,
    QLandmarks,
    contains,
    integer_point_in_q,
    lift_to_p,
    p1_interval,
    q_geometry,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "EnumerationSummary",
    "HalfPlane",
    "LemmaWidths",
    "QGeometry",
    "QLandmarks",
    "SpeedVector",
    "VectorRecord",
    "classify",
    "contains",
    "coprime_count_moebius",
    "dyadic_denominator",
    "dyadic_exponent",
    "earliest_suitable_time",
    "evaluate_rules",
    "export",
    "find_dyadic_time",
    "format_rational",
    "integer_point_in_q",
    "is_instance",
    "is_suitable",
    "iter_vector_records",
    "lattice_witness_from_time",
    "lift_to_p",
    "new_speed_vector",
    "normalize",
    "p1_interval",
    "q_geometry",
    "suitable_set",
    "sweep",
]
