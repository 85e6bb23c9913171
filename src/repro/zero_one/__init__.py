"""The 0–1 law for FO (S6).

Uniform random structures, extension axioms, and exact almost-sure
decisions μ(φ) ∈ {0, 1}.
"""

from repro.zero_one.asymptotic import (
    decide_almost_sure,
    decide_via_witness,
    mu_estimate_sentence,
    mu_limit,
)
from repro.zero_one.extension_axioms import (
    extension_atoms,
    extension_axiom_counterexample,
    extension_axiom_formula,
    extension_conditions,
    find_extension_witness,
    satisfies_extension_axiom,
)
from repro.zero_one.random_structures import (
    MuEstimate,
    count_structures,
    mu_curve,
    mu_estimate,
)

__all__ = [
    "mu_estimate", "mu_curve", "MuEstimate", "count_structures",
    "extension_atoms", "extension_conditions", "extension_axiom_formula",
    "satisfies_extension_axiom", "extension_axiom_counterexample",
    "find_extension_witness",
    "decide_almost_sure", "mu_limit", "decide_via_witness",
    "mu_estimate_sentence",
]
