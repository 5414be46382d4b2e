"""Cross-validation of the availability engines.

Every engine must agree with the naive reference implementation in
``conftest`` — and with each other — on systems small enough for brute
force.
"""

import itertools
import math

import pytest

from repro.analysis import (
    availability,
    availability_exhaustive,
    availability_shannon,
    failure_probability,
    failure_probability_exhaustive,
    failure_probability_heterogeneous,
    failure_probability_montecarlo,
    failure_probability_shannon,
)
from repro.analysis.exhaustive import state_probabilities, usable_states
from repro.cli import build_system
from repro.core import AnalysisError, ExplicitQuorumSystem, Universe
from ..conftest import brute_force_failure_probability, tiny_majority

SYSTEMS = {
    "maj5": tiny_majority(5),
    "star": ExplicitQuorumSystem(Universe.of_size(4), [{0, 1}, {0, 2}, {0, 3}]),
    "mixed": ExplicitQuorumSystem(
        Universe.of_size(6), [{0, 1, 2}, {2, 3}, {0, 3, 4}, {1, 2, 3, 5}]
    ),
    "singleton": ExplicitQuorumSystem(Universe.of_size(3), [{1}]),
}

P_VALUES = (0.05, 0.1, 0.3, 0.5, 0.7)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@pytest.mark.parametrize("p", P_VALUES)
class TestAgainstBruteForce:
    def test_exhaustive(self, name, p):
        system = SYSTEMS[name]
        assert failure_probability_exhaustive(system, p) == pytest.approx(
            brute_force_failure_probability(system, p), abs=1e-12
        )

    def test_shannon(self, name, p):
        system = SYSTEMS[name]
        assert failure_probability_shannon(system, p) == pytest.approx(
            brute_force_failure_probability(system, p), abs=1e-12
        )


class TestAvailabilityComplement:
    @pytest.mark.parametrize("p", (0.1, 0.4))
    def test_sum_to_one(self, p):
        system = SYSTEMS["mixed"]
        assert availability_exhaustive(system, p) + failure_probability_exhaustive(
            system, p
        ) == pytest.approx(1.0)
        assert availability_shannon(system, p) + failure_probability_shannon(
            system, p
        ) == pytest.approx(1.0)


class TestHeterogeneous:
    def test_heterogeneous_matches_brute_force(self):
        system = SYSTEMS["star"]
        probs = [0.1, 0.2, 0.3, 0.4]
        expected = 0.0
        for states in itertools.product([0, 1], repeat=4):
            pr = 1.0
            for alive, crash in zip(states, probs):
                pr *= (1 - crash) if alive else crash
            alive_set = {i for i, s in enumerate(states) if s}
            if not system.contains_quorum(alive_set):
                expected += pr
        for method in ("exhaustive", "shannon", "auto"):
            got = failure_probability_heterogeneous(system, probs, method=method)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_wrong_length_rejected(self):
        with pytest.raises(AnalysisError):
            failure_probability_heterogeneous(SYSTEMS["star"], [0.1, 0.2])


class TestMonteCarloEngine:
    def test_covers_exact_value(self, maj5):
        exact = brute_force_failure_probability(maj5, 0.3)
        estimate = failure_probability_montecarlo(maj5, 0.3, samples=200_000, seed=3)
        assert estimate.contains(exact)

    @pytest.mark.parametrize("spec", ["htriang:15", "hgrid:4x4", "htgrid:4x4"])
    @pytest.mark.parametrize("p", [0.1, 0.2, 0.3])
    def test_lies_within_four_sigma_of_the_exact_value_on_hierarchical_systems(
        self, spec, p
    ):
        # Structural on the first two, exhaustive on htgrid:4x4.
        system = build_system(spec)
        exact = failure_probability(system, p)
        samples = 200_000
        estimate = failure_probability_montecarlo(system, p, samples=samples)
        sigma = math.sqrt(exact * (1.0 - exact) / samples)
        assert abs(estimate.value - exact) <= 4.0 * sigma

    def test_reproducible(self, maj5):
        a = failure_probability_montecarlo(maj5, 0.2, samples=10_000, seed=5)
        b = failure_probability_montecarlo(maj5, 0.2, samples=10_000, seed=5)
        assert a.value == b.value

    def test_different_seeds_differ(self, maj5):
        a = failure_probability_montecarlo(maj5, 0.2, samples=10_000, seed=5)
        b = failure_probability_montecarlo(maj5, 0.2, samples=10_000, seed=6)
        assert a.value != b.value

    def test_bad_confidence_rejected(self, maj5):
        for confidence in (0.0, 1.0, 1.5, -0.3):
            with pytest.raises(AnalysisError):
                failure_probability_montecarlo(
                    maj5, 0.2, samples=100, confidence=confidence
                )

    def test_arbitrary_confidence_via_normal_quantile(self, maj5):
        # 0.975 is not in the precomputed z-table: resolved through
        # scipy.stats.norm.ppf.  z(0.975, two-sided) ~= 2.2414.
        tabled = failure_probability_montecarlo(
            maj5, 0.2, samples=10_000, seed=5, confidence=0.95
        )
        wider = failure_probability_montecarlo(
            maj5, 0.2, samples=10_000, seed=5, confidence=0.975
        )
        assert wider.value == tabled.value  # same samples, same estimate
        assert wider.half_width == pytest.approx(
            tabled.half_width * 2.2414 / 1.9600, rel=1e-3
        )

    def test_tabled_confidence_matches_quantile(self, maj5):
        # The fast-path table agrees with the scipy quantile it caches.
        from scipy.stats import norm

        from repro.analysis.montecarlo import _Z_SCORES

        for confidence, z in _Z_SCORES.items():
            assert z == pytest.approx(norm.ppf(0.5 + confidence / 2), abs=5e-5)

    def test_bad_samples_rejected(self, maj5):
        with pytest.raises(AnalysisError):
            failure_probability_montecarlo(maj5, 0.2, samples=0)

    def test_interval_clipping(self, maj5):
        estimate = failure_probability_montecarlo(maj5, 0.01, samples=1000, seed=0)
        assert 0.0 <= estimate.low <= estimate.high <= 1.0


class TestFrontend:
    def test_edge_probabilities(self, maj5):
        assert failure_probability(maj5, 0.0) == 0.0
        assert failure_probability(maj5, 1.0) == 1.0
        assert availability(maj5, 0.0) == 1.0

    def test_out_of_range_rejected(self, maj5):
        with pytest.raises(AnalysisError):
            failure_probability(maj5, 1.5)
        with pytest.raises(AnalysisError):
            failure_probability(maj5, -0.1)

    def test_unknown_method_rejected(self, maj5):
        with pytest.raises(AnalysisError):
            failure_probability(maj5, 0.3, method="magic")

    def test_structural_method_requires_closed_form(self, maj5):
        with pytest.raises(AnalysisError):
            failure_probability(maj5, 0.3, method="structural")

    def test_methods_agree(self, maj5):
        values = {
            failure_probability(maj5, 0.3, method=m)
            for m in ("auto", "exhaustive", "shannon")
        }
        assert max(values) - min(values) < 1e-12


class TestExhaustiveInternals:
    def test_usable_states_count(self, maj5):
        usable = usable_states(maj5)
        # Alive sets holding a 3-of-5 majority: sum_{k>=3} C(5,k) = 16.
        assert int(usable.sum()) == 16

    def test_state_probabilities_sum_to_one(self):
        probs = state_probabilities(6, 0.37)
        assert probs.sum() == pytest.approx(1.0)

    def test_oversized_universe_rejected(self):
        big = ExplicitQuorumSystem(Universe.of_size(30), [{0}], name="big")
        with pytest.raises(AnalysisError):
            failure_probability_exhaustive(big, 0.1)


class TestShannonBudget:
    def test_state_budget_enforced(self):
        system = SYSTEMS["mixed"]
        with pytest.raises(AnalysisError):
            failure_probability_shannon(system, 0.3, max_states=1)
