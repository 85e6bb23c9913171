"""Locality tools (S5): BNDP, Gaifman, Hanf, threshold-Hanf, Gaifman's theorem.

The inexpressibility toolbox of §3.4–3.5 of the paper, plus the
linear-time bounded-degree evaluation algorithm of Theorem 3.11.
"""

from repro.locality.bndp import (
    BNDPReport,
    bndp_report,
    degree_profile,
    degs,
    output_graph,
)
from repro.locality.bounded_degree import BoundedDegreeEvaluator, census_key
from repro.locality.gaifman_locality import (
    gaifman_locality_counterexample,
    gaifman_locality_radius,
    is_gaifman_local_on,
    transitive_closure_chain_counterexample,
)
from repro.locality.gaifman_theorem import (
    BasicLocalSentence,
    adjacency_formula,
    distance_at_most,
    distance_greater,
    local_satisfies,
    scattered_tuple_exists,
)
from repro.locality.hanf import (
    hanf_equivalent,
    hanf_locality_counterexample,
    hanf_locality_radius,
    threshold_hanf_equivalent,
)
from repro.locality.neighborhoods import (
    TypeRegistry,
    ball_key,
    max_ball_size,
    neighborhood_census,
    neighborhood_census_baseline,
    neighborhood_type,
    tuple_type_classes,
)

__all__ = [
    # neighborhoods
    "TypeRegistry", "neighborhood_type", "neighborhood_census",
    "neighborhood_census_baseline", "tuple_type_classes", "max_ball_size",
    "ball_key",
    # hanf
    "hanf_equivalent", "threshold_hanf_equivalent",
    "hanf_locality_counterexample", "hanf_locality_radius",
    # gaifman locality
    "gaifman_locality_counterexample", "is_gaifman_local_on",
    "gaifman_locality_radius", "transitive_closure_chain_counterexample",
    # bndp
    "degs", "output_graph", "degree_profile", "BNDPReport", "bndp_report",
    # bounded degree
    "BoundedDegreeEvaluator", "census_key",
    # gaifman theorem
    "adjacency_formula", "distance_at_most", "distance_greater",
    "local_satisfies", "scattered_tuple_exists", "BasicLocalSentence",
]
