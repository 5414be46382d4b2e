"""Cross-validation of the availability engines.

Every engine must agree with the naive reference implementation in
``conftest`` — and with each other — on systems small enough for brute
force.
"""

import itertools
import math

import numpy as np
import pytest

from repro.analysis import (
    availability,
    availability_exhaustive,
    availability_shannon,
    failure_probability,
    failure_probability_exhaustive,
    failure_probability_heterogeneous,
    failure_probability_montecarlo,
    failure_probability_rare,
    failure_probability_shannon,
)
from repro.analysis.exhaustive import MAX_EXHAUSTIVE_N, state_probabilities, usable_states
from repro.analysis.montecarlo import BATCH
from repro.cli import build_system
from repro.core import AnalysisError, ExplicitQuorumSystem, Universe
from repro.runtime import iid_crash_schedule
from repro.sim import schedule_availability
from repro.systems import (
    CrumblingWallQuorumSystem,
    HQSQuorumSystem,
    HierarchicalTGrid,
    HierarchicalTriangle,
    MajorityQuorumSystem,
    PathsQuorumSystem,
    YQuorumSystem,
)
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

    @pytest.mark.parametrize("p", [1.5, -0.5, float("nan")])
    def test_out_of_range_crash_probability_rejected(self, maj5, p):
        with pytest.raises(AnalysisError):
            failure_probability_montecarlo(maj5, p, samples=100)
        with pytest.raises(AnalysisError):
            failure_probability_montecarlo(
                maj5, 0.0, samples=100, per_element=[0.1, 0.2, p, 0.3, 0.4]
            )


def row_by_row_failures(system, alive):
    """Rows of an alive matrix that contain no minimal quorum, tested one
    quorum at a time (the loop the packed kernel replaced)."""
    usable = np.zeros(len(alive), dtype=bool)
    for quorum in system.minimal_quorums():
        usable |= alive[:, sorted(quorum)].all(axis=1)
    return len(alive) - int(usable.sum())


class TestOneCountingKernel:
    """Every sampler of the iid crash model draws one ``rng.random()`` per
    element per configuration in id order, so on one seed they all count
    the same failures."""

    @pytest.mark.parametrize("spec", ["majority:5", "h-triang:15", "hgrid:4x4"])
    def test_schedule_monte_carlo_and_rare_counts_agree(self, spec):
        system = build_system(spec)
        samples, p = 2_001, 0.25
        schedule = iid_crash_schedule(
            np.random.default_rng(7), sorted(system.universe.ids), p,
            horizon=float(samples - 1),
        )
        reference = schedule_availability(system, schedule, samples).failures
        estimate = failure_probability_montecarlo(system, p, samples=samples, seed=7)
        rare = failure_probability_rare(system, p, biased_p=p, samples=samples, seed=7)
        assert estimate.failures == reference
        assert round(rare.hit_rate * samples) == reference
        assert 0 < reference < samples

    def test_batches_count_as_one_matrix(self):
        system = build_system("hgrid:4x4")
        samples, p = 70_000, 0.25
        assert samples > BATCH
        alive = np.random.default_rng(3).random((samples, system.n)) >= p
        live = system.contains_quorum_many(np.flatnonzero(row) for row in alive)
        estimate = failure_probability_montecarlo(system, p, samples=samples, seed=3)
        assert estimate.failures == samples - int(live.sum())

    def test_quorums_across_the_lane_boundary(self):
        # 70 elements: two packed lanes, and every quorum holds element 64
        # or spans 63 and 65, so a bit misplaced across lanes miscounts.
        quorums = [
            set(range(60, 68)),
            {62, 64, 66, 68},
            {1, 2, 63, 64},
            {0, 64, 69},
            {63, 65, 66, 68, 69},
        ]
        system = ExplicitQuorumSystem(Universe.of_size(70), quorums)
        samples, p = 20_000, 0.25
        alive = np.random.default_rng(11).random((samples, system.n)) >= p
        estimate = failure_probability_montecarlo(system, p, samples=samples, seed=11)
        assert estimate.failures == row_by_row_failures(system, alive)
        assert 0 < estimate.failures < samples


#: Table 2's systems (about 15 elements), as :func:`repro.tables.table2`
#: builds them.
TABLE2 = {
    "majority(15)": lambda: MajorityQuorumSystem.of_size(15),
    "hqs[5x3]": lambda: HQSQuorumSystem.balanced([5, 3]),
    "cwlog(14)": lambda: CrumblingWallQuorumSystem.cwlog(14),
    "h-T-grid 3x3": lambda: HierarchicalTGrid.halving(3, 3),
    "paths(13)": lambda: PathsQuorumSystem(2),
    "y(15)": lambda: YQuorumSystem(5),
    "h-triang(15)": lambda: HierarchicalTriangle(5),
}

#: Shannon expansion over majority(15)'s 6,435 same-size quorums takes
#: about 3 s a point, so its structural and exhaustive values stand for
#: it here.
SHANNON_TOO_SLOW = {"majority(15)"}


@pytest.fixture(scope="module")
def table2_systems():
    return {label: build() for label, build in TABLE2.items()}


@pytest.mark.parametrize("label", sorted(TABLE2))
@pytest.mark.parametrize("p", [0.1, 0.2, 0.3])
class TestTable2CrossCheck:
    def test_exact_engines_agree(self, table2_systems, label, p):
        system = table2_systems[label]
        values = {}
        structural = system.failure_probability_exact(p)
        if structural is not None:
            values["structural"] = structural
        if system.n <= MAX_EXHAUSTIVE_N:
            values["exhaustive"] = failure_probability_exhaustive(system, p)
        if label not in SHANNON_TOO_SLOW:
            values["shannon"] = failure_probability_shannon(system, p)
        assert len(values) >= 2, values
        assert max(values.values()) - min(values.values()) <= 1e-12, values

    def test_monte_carlo_lies_within_four_sigma(self, table2_systems, label, p):
        system = table2_systems[label]
        exact = failure_probability(system, p)
        samples = 50_000
        estimate = failure_probability_montecarlo(system, p, samples=samples, seed=1)
        sigma = math.sqrt(exact * (1.0 - exact) / samples)
        assert abs(estimate.value - exact) <= 4.0 * sigma


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
