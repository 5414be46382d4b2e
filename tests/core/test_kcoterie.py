"""Tests for k-coteries and k-mutual exclusion."""

import pytest

from repro.core import ConstructionError, KCoterie, AnalysisError
from repro.core.kcoterie import _max_disjoint
from repro.systems import HierarchicalTriangle, MajorityQuorumSystem


class TestMaxDisjoint:
    def test_counts_disjoint_family(self):
        quorums = [frozenset({0, 1}), frozenset({2, 3}), frozenset({1, 2})]
        assert _max_disjoint(quorums, 5) == 2

    def test_stop_at_caps_search(self):
        quorums = [frozenset({i}) for i in range(6)]
        assert _max_disjoint(quorums, 3) == 3  # stops early


class TestConstructions:
    def test_k_majority_conditions(self):
        coterie = KCoterie.k_majority(7, 2)
        coterie.verify()
        assert coterie.smallest_quorum_size() == 3  # 7 // 3 + 1

    def test_k1_majority_is_plain_majority(self):
        k1 = KCoterie.k_majority(5, 1)
        majority = MajorityQuorumSystem.of_size(5)
        assert set(k1.quorums) == set(majority.minimal_quorums())

    def test_k_majority_infeasible(self):
        # n=5, k=3: size = 5//4+1 = 2 and 3*2 > 5.
        with pytest.raises(ConstructionError):
            KCoterie.k_majority(5, 3)

    def test_k_singleton(self):
        coterie = KCoterie.k_singleton(5, 3)
        coterie.verify()
        assert len(coterie.quorums) == 3
        with pytest.raises(ConstructionError):
            KCoterie.k_singleton(2, 3)

    def test_from_coterie(self):
        lifted = KCoterie.from_coterie(HierarchicalTriangle(4))
        lifted.verify()
        assert lifted.k == 1

    def test_disjoint_union(self):
        union = KCoterie.disjoint_union(
            [HierarchicalTriangle(2), HierarchicalTriangle(2), HierarchicalTriangle(2)]
        )
        union.verify()
        assert union.k == 3
        assert union.n == 9

    def test_bad_k(self):
        from repro.core import Universe

        with pytest.raises(ConstructionError):
            KCoterie(Universe.of_size(2), [{0}], 0)

    def test_overconstrained_family_rejected(self):
        from repro.core import Universe

        # A single quorum cannot yield 2 disjoint quorums.
        with pytest.raises(ConstructionError):
            KCoterie(Universe.of_size(4), [{0, 1}], 2)

    def test_underconstrained_family_rejected(self):
        from repro.core import Universe

        # Three disjoint singletons are NOT a 2-coterie (3 concurrent).
        with pytest.raises(ConstructionError):
            KCoterie(Universe.of_size(3), [{0}, {1}, {2}], 2)


class TestAvailability:
    def test_availability_vs_coterie(self):
        # The 2-majority of 7 has smaller quorums than majority-of-7, so
        # better single-quorum availability.
        two = KCoterie.k_majority(7, 2)
        one = MajorityQuorumSystem.of_size(7)
        for p in (0.2, 0.4):
            assert two.availability(p) > 1.0 - one.failure_probability(p)

    def test_concurrency_availability_decreasing_in_j(self):
        coterie = KCoterie.k_majority(7, 2)
        p = 0.2
        j1 = coterie.concurrency_availability(p, 1)
        j2 = coterie.concurrency_availability(p, 2)
        assert j1 == pytest.approx(coterie.availability(p), abs=1e-12)
        assert j2 < j1

    def test_concurrency_validation(self):
        coterie = KCoterie.k_majority(7, 2)
        with pytest.raises(AnalysisError):
            coterie.concurrency_availability(0.2, 3)


class TestKMutexSimulation:
    def _run(self, coterie, requests, hold=30.0):
        from repro.sim import MutexMonitor, MutexNode, Network, Simulator

        sim = Simulator(seed=0)
        net = Network(sim)
        nodes = [MutexNode(i, net) for i in range(coterie.n)]
        monitor = MutexMonitor(capacity=coterie.k)
        quorums = list(coterie.quorums)

        def make(node, quorum):
            def acquired():
                monitor.enter(node.node_id)

                def leave():
                    monitor.leave(node.node_id)
                    node.release_cs()

                sim.schedule(hold, leave)

            node.request_cs(quorum, acquired)

        for index, quorum in enumerate(requests):
            sim.schedule(0.1 * index, make, nodes[index], quorums[quorum])
        sim.run(until=100_000)
        return monitor

    def test_two_concurrent_holders_allowed(self):
        coterie = KCoterie.k_majority(7, 2)
        # Pick two disjoint quorums: {0,1,2} and {3,4,5} exist in the family.
        quorums = list(coterie.quorums)
        disjoint = []
        for i, first in enumerate(quorums):
            for j, second in enumerate(quorums):
                if not (first & second):
                    disjoint = [i, j]
                    break
            if disjoint:
                break
        monitor = self._run(coterie, disjoint)
        assert monitor.entries == 2
        assert monitor.max_concurrent == 2
        assert monitor.violations == 0

    def test_never_more_than_k(self):
        coterie = KCoterie.k_majority(7, 2)
        monitor = self._run(coterie, list(range(6)), hold=5.0)
        assert monitor.entries == 6
        assert monitor.violations == 0
        assert monitor.max_concurrent <= 2
