"""Tests for the micro-batch injection-order search (paper §5)."""

from __future__ import annotations

import pytest

from repro.core.microbatch_ordering import cluster_and_order, cluster_by_time


class TestClusterByTime:
    def test_clusters_partition_indices(self):
        times = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0]
        clusters = cluster_by_time(times, 3)
        flattened = sorted(i for cluster in clusters for i in cluster)
        assert flattened == list(range(len(times)))

    def test_clusters_ordered_by_time(self):
        times = [5.0, 1.0, 9.0, 2.0, 7.0, 3.0]
        clusters = cluster_by_time(times, 3)
        cluster_means = [sum(times[i] for i in c) / len(c) for c in clusters]
        assert cluster_means == sorted(cluster_means)

    def test_fewer_items_than_clusters(self):
        clusters = cluster_by_time([4.0, 2.0], 5)
        assert len(clusters) == 2

    def test_single_cluster(self):
        clusters = cluster_by_time([3.0, 1.0, 2.0], 1)
        assert clusters == [[0, 1, 2]]

    def test_empty(self):
        assert cluster_by_time([], 3) == []

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            cluster_by_time([1.0], 0)


class TestClusterAndOrder:
    def test_returns_permutation(self):
        times = [1.0, 5.0, 2.0, 8.0, 3.0]
        result = cluster_and_order(times, score_fn=lambda order: float(order[0]))
        assert sorted(result.order) == list(range(len(times)))

    def test_picks_lowest_scoring_permutation(self):
        """With a score that prefers long micro-batches first, the search
        should return an order starting with the slowest cluster."""
        times = [1.0, 1.1, 10.0, 10.5, 5.0, 5.2]

        def score(order):
            # Penalise orders that do not start with the slowest micro-batch.
            return 0.0 if times[order[0]] >= 10.0 else 100.0

        result = cluster_and_order(times, score, num_clusters=3)
        assert times[result.order[0]] >= 10.0
        assert result.makespan_ms == 0.0

    def test_single_microbatch(self):
        result = cluster_and_order([3.0], score_fn=lambda order: 42.0)
        assert result.order == [0]
        assert result.makespan_ms == 42.0
        assert result.evaluated == 1

    def test_evaluation_count_bounded(self):
        times = list(range(12))
        result = cluster_and_order(
            [float(t) for t in times], score_fn=lambda order: 0.0, num_clusters=4,
            max_permutations=5,
        )
        assert result.evaluated <= 5

    def test_cluster_sizes_reported(self):
        result = cluster_and_order(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], score_fn=lambda order: 0.0, num_clusters=3
        )
        assert sum(result.cluster_sizes) == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_and_order([], score_fn=lambda order: 0.0)

    @pytest.mark.parametrize("max_permutations", [0, -1])
    def test_non_positive_permutation_cap_rejected(self, max_permutations):
        with pytest.raises(ValueError, match="max_permutations"):
            cluster_and_order(
                [1.0, 2.0, 3.0], score_fn=lambda order: 0.0, max_permutations=max_permutations
            )

    def test_all_infinite_scores_keep_first_candidate(self):
        result = cluster_and_order(
            [3.0, 1.0, 2.0], score_fn=lambda order: float("inf"), num_clusters=3
        )
        assert result.order == [1, 2, 0]
        assert result.makespan_ms == float("inf")
        assert result.evaluated == 6

    def test_all_permutations_evaluated_for_three_clusters(self):
        result = cluster_and_order(
            [1.0, 10.0, 20.0], score_fn=lambda order: float(sum(order)), num_clusters=3
        )
        assert result.evaluated == 6
