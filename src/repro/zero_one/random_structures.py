"""The probability space STRUC(σ, n) of the 0–1 law.

μ_n(Q) is the probability that a uniformly random structure with domain
[n] satisfies Q. Sampling uniformly means including every possible tuple
of every relation independently with probability 1/2 — exactly what
:func:`repro.structures.builders.random_structure` does; this module adds
the measurement machinery.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import FMTError
from repro.logic.signature import Signature
from repro.structures.builders import random_structure
from repro.structures.structure import Structure

__all__ = ["mu_estimate", "MuEstimate", "mu_curve", "count_structures"]


@dataclass(frozen=True)
class MuEstimate:
    """A Monte-Carlo estimate of μ_n(Q) with a 95% confidence half-width."""

    n: int
    samples: int
    successes: int

    @property
    def value(self) -> float:
        return self.successes / self.samples

    @property
    def half_width(self) -> float:
        """Normal-approximation 95% confidence half-width."""
        p = self.value
        return 1.96 * math.sqrt(max(p * (1 - p), 1e-12) / self.samples)

    def __repr__(self) -> str:
        return f"μ_{self.n} ≈ {self.value:.3f} ± {self.half_width:.3f} ({self.samples} samples)"


def mu_estimate(
    query: Callable[[Structure], bool],
    signature: Signature,
    n: int,
    samples: int = 200,
    seed: int = 0,
) -> MuEstimate:
    """Estimate μ_n(Q) by sampling STRUC(σ, n) uniformly.

    Sample ``index`` is drawn with seed ``seed * 1_000_003 + index``, so
    an estimate is reproducible from ``(seed, samples)`` alone.
    """
    if samples < 1:
        raise FMTError(f"need at least one sample, got {samples}")
    successes = 0
    for index in range(samples):
        structure = random_structure(signature, n, p=0.5, seed=seed * 1_000_003 + index)
        if query(structure):
            successes += 1
    return MuEstimate(n=n, samples=samples, successes=successes)


def mu_curve(
    query: Callable[[Structure], bool],
    signature: Signature,
    sizes: list[int],
    samples: int = 200,
    seed: int = 0,
) -> list[MuEstimate]:
    """μ_n estimates across a range of sizes — the convergence curve of E12."""
    return [mu_estimate(query, signature, n, samples, seed) for n in sizes]


def count_structures(signature: Signature, n: int) -> int:
    """|STRUC(σ, n)|: the exact number of structures with domain [n]."""
    total = 1
    for name in signature.relation_names():
        total *= 2 ** (n ** signature.arity(name))
    return total
