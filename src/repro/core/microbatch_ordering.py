"""Micro-batch injection ordering (paper §5, "Micro-batch ordering").

The order in which micro-batches are injected into the pipeline affects
throughput when their execution times differ.  Modelling this exactly is
intractable, so the paper clusters micro-batches by predicted execution
time, permutes the *cluster order* (a small factorial search — 3 or 4
clusters suffice), and keeps the order with the lowest simulated makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Sequence

import numpy as np

#: Scores an injection order (permutation of micro-batch indices) -> makespan.
OrderScoreFn = Callable[[Sequence[int]], float]


@dataclass
class OrderingSearchResult:
    """Result of the cluster-permutation search.

    Attributes:
        order: The selected injection order (micro-batch indices).
        makespan_ms: Simulated makespan of the selected order.
        evaluated: Number of candidate orders scored.
        cluster_sizes: Sizes of the execution-time clusters used.
    """

    order: list[int]
    makespan_ms: float
    evaluated: int
    cluster_sizes: list[int]


def cluster_by_time(times: Sequence[float], num_clusters: int) -> list[list[int]]:
    """Group micro-batch indices into ``num_clusters`` clusters of similar
    predicted execution time.

    Clustering is one-dimensional, so quantile bucketing over the sorted
    times is both simple and as good as k-means for this purpose.  Clusters
    are returned ordered by increasing execution time; indices within a
    cluster keep their original relative order.
    """
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters}")
    n = len(times)
    if n == 0:
        return []
    num_clusters = min(num_clusters, n)
    order = sorted(range(n), key=lambda i: times[i])
    boundaries = np.array_split(np.array(order), num_clusters)
    clusters = []
    for bucket in boundaries:
        members = sorted(int(i) for i in bucket)
        if members:
            clusters.append(members)
    return clusters


def cluster_and_order(
    times: Sequence[float],
    score_fn: OrderScoreFn,
    num_clusters: int = 3,
    max_permutations: int = 24,
) -> OrderingSearchResult:
    """Search cluster-order permutations for the best injection order.

    Args:
        times: Predicted execution time of each micro-batch.
        score_fn: Callback scoring a full injection order (lower is better);
            typically a simulation of the adaptive schedule.
        num_clusters: Number of execution-time clusters (3–4 per the paper).
        max_permutations: Safety cap on the number of permutations evaluated.

    Returns:
        The best order found together with search statistics; when no
        candidate scores below ``inf``, the first candidate is kept.
    """
    if max_permutations < 1:
        raise ValueError(f"max_permutations must be >= 1, got {max_permutations}")
    n = len(times)
    if n == 0:
        raise ValueError("at least one micro-batch is required")
    if n == 1:
        return OrderingSearchResult(order=[0], makespan_ms=score_fn([0]), evaluated=1, cluster_sizes=[1])

    clusters = cluster_by_time(times, num_clusters)
    best_order: list[int] | None = None
    best_score = float("inf")
    evaluated = 0
    for permutation in permutations(range(len(clusters))):
        if evaluated >= max_permutations:
            break
        candidate: list[int] = []
        for cluster_index in permutation:
            candidate.extend(clusters[cluster_index])
        score = score_fn(candidate)
        evaluated += 1
        if best_order is None or score < best_score:
            best_score = score
            best_order = candidate
    return OrderingSearchResult(
        order=best_order,
        makespan_ms=best_score,
        evaluated=evaluated,
        cluster_sizes=[len(cluster) for cluster in clusters],
    )
