"""Dataset container, sufficient statistics, and center mathematics."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ALL_KINDS, random_instance, reference_rows_distinct, spec_for
from lokmeans import Dataset, DivergenceSpec
from lokmeans.divergence import DomainError
from lokmeans.model import (
    EmptyClusterError,
    check_labels,
    cluster_stats,
    clustering_loss,
    weighted_sums,
)

KMEANS_LABELS = np.array([0, 0, 0, 1, 1])
ESCAPED_LABELS = np.array([0, 0, 1, 1, 1])
SQE = DivergenceSpec.squared_euclidean()


def test_counterexample_kmeans_state(counterexample):
    dataset, _ = counterexample
    centers = cluster_stats(dataset, KMEANS_LABELS, 2).centers()
    np.testing.assert_allclose(centers, [[-2.0], [2.0]], atol=1e-12)
    loss = clustering_loss(dataset, KMEANS_LABELS, centers, SQE)
    assert loss == pytest.approx(8.5, abs=1e-12)


def test_counterexample_escaped_state(counterexample):
    dataset, _ = counterexample
    centers = cluster_stats(dataset, ESCAPED_LABELS, 2).centers()
    np.testing.assert_allclose(centers, [[-3.0], [4.0 / 3.0]], atol=1e-12)
    loss = clustering_loss(dataset, ESCAPED_LABELS, centers, SQE)
    assert loss == pytest.approx(31.0 / 6.0, abs=1e-12)


def test_weighted_mean_frozen_value():
    dataset = Dataset(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]))
    centers = cluster_stats(dataset, np.array([0, 0]), 1).centers()
    assert centers[0, 0] == pytest.approx(0.75, abs=1e-15)


def test_single_point_cluster_center_is_the_point():
    rng = np.random.default_rng(0)
    dataset, k = random_instance(rng)
    labels = np.zeros(dataset.n, dtype=np.int64)
    labels[3] = 1
    centers = cluster_stats(dataset, labels, 2).centers()
    np.testing.assert_allclose(centers[1], dataset.points[3], rtol=1e-12)


def test_empty_cluster_error_names_the_cluster(counterexample):
    dataset, _ = counterexample
    with pytest.raises(EmptyClusterError, match="cluster 1") as info:
        cluster_stats(dataset, np.zeros(5, dtype=np.int64), 2).centers()
    assert info.value.cluster == 1


def test_cluster_stats_totals():
    rng = np.random.default_rng(1)
    dataset, k = random_instance(rng)
    labels = rng.integers(0, k, size=dataset.n)
    stats = cluster_stats(dataset, labels, k)
    for c in range(k):
        members = labels == c
        assert stats.member_count[c] == members.sum()
        assert stats.weight_sum[c] == pytest.approx(dataset.weights[members].sum())
        np.testing.assert_allclose(
            stats.coord_sum[c],
            (dataset.weights[members, None] * dataset.points[members]).sum(axis=0),
            rtol=1e-12,
            atol=1e-12,
        )


def test_weighted_sums_add_each_coordinates_products_in_point_order():
    # The sums of a (d, N) product ``points.T * weights``, one bincount per
    # coordinate, to the bit: the same products, added in the same order.
    rng = np.random.default_rng(2)
    for n, d, k in ((1, 1, 1), (37, 3, 5), (1000, 8, 16)):
        points = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 6, size=d)
        weights = rng.uniform(0.5, 3.0, size=n)
        labels = rng.integers(0, k, size=n)
        product = points.T * weights
        expected = np.stack([np.bincount(labels, weights=row, minlength=k) for row in product], axis=1)
        assert weighted_sums(points, weights, labels, k).tobytes() == expected.tobytes()


def test_cluster_stats_holds_a_few_columns():
    # Figures for numpy 2.4 at (N, K, d) = (1000, 16, 8), where an (N,)
    # float column takes 8 KB: the call peaks at 10 KB, one reused column
    # of products and the (K, d) sums. A (d, N) product peaked at 194 KB,
    # with the 128 KB of buffers its broadcast multiply took.
    rng = np.random.default_rng(6)
    n, k, d = 1000, 16, 8
    dataset = Dataset(rng.normal(size=(n, d)), rng.integers(1, 4, size=n).astype(float))
    labels = rng.integers(0, k, size=n)
    cluster_stats(dataset, labels, k)
    tracemalloc.start()
    try:
        cluster_stats(dataset, labels, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n, peak


def test_cluster_stats_checks_labels():
    dataset = Dataset(np.array([[1.0], [2.0], [4.0]]), np.ones(3))
    with pytest.raises(ValueError, match=r"lie in \[0, 2\)"):
        cluster_stats(dataset, np.array([0, 1, 2]), 2)


def test_stats_move_matches_recount(counterexample):
    dataset, _ = counterexample
    stats = cluster_stats(dataset, KMEANS_LABELS, 2)
    stats.move(dataset, 2, 0, 1)
    fresh = cluster_stats(dataset, ESCAPED_LABELS, 2)
    np.testing.assert_allclose(stats.weight_sum, fresh.weight_sum, rtol=1e-12)
    np.testing.assert_allclose(stats.coord_sum, fresh.coord_sum, rtol=1e-12)
    np.testing.assert_array_equal(stats.member_count, fresh.member_count)


def test_incremental_update_frozen_values(counterexample):
    # Moving the point at 0 from {-4, -2, 0} to {1.5, 2.5} sends the source
    # center -2 -> -3 and the destination center 2 -> 4/3.
    dataset, _ = counterexample
    stats = cluster_stats(dataset, KMEANS_LABELS, 2)
    stats.move(dataset, 2, 0, 1)
    centers = stats.centers()
    assert centers[0, 0] == pytest.approx(-3.0, abs=1e-12)
    assert centers[1, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    np.testing.assert_array_equal(stats.member_count, [2, 3])


def test_incremental_update_matches_recompute_randomized():
    rng = np.random.default_rng(2)
    singleton_hits = 0
    for _ in range(300):
        dataset, k = random_instance(rng)
        labels = np.concatenate(
            [np.arange(k), rng.integers(0, k, size=dataset.n - k)]
        )
        rng.shuffle(labels)
        stats = cluster_stats(dataset, labels, k)
        point = int(rng.integers(dataset.n))
        src = int(labels[point])
        dst = int((src + 1 + rng.integers(k - 1)) % k)
        was_singleton = stats.member_count[src] == 1
        stats.move(dataset, point, src, dst)
        labels[point] = dst
        fresh = cluster_stats(dataset, labels, k)
        if was_singleton:
            singleton_hits += 1
            assert stats.member_count[src] == 0
            with pytest.raises(EmptyClusterError, match=f"cluster {src} is empty"):
                stats.centers()
        for c in range(k):
            if c == src and was_singleton:
                continue
            moved = stats.coord_sum[c] / stats.weight_sum[c]
            expected = fresh.coord_sum[c] / fresh.weight_sum[c]
            assert np.abs(moved - expected).max() <= 1e-10
    assert singleton_hits > 0


def test_incremental_update_rejects_empty_source(counterexample):
    dataset, _ = counterexample
    stats = cluster_stats(dataset, KMEANS_LABELS, 2)
    stats.move(dataset, 3, 1, 0)
    stats.move(dataset, 4, 1, 0)
    with pytest.raises(ValueError, match="no members"):
        stats.move(dataset, 4, 1, 0)
    with pytest.raises(ValueError, match="must differ"):
        stats.move(dataset, 4, 0, 0)


def test_optimal_centers_minimize_loss():
    rng = np.random.default_rng(3)
    for kind in ALL_KINDS:
        dataset, k = random_instance(rng)
        spec = spec_for(kind, rng, dataset.dim)
        labels = np.concatenate(
            [np.arange(k), rng.integers(0, k, size=dataset.n - k)]
        )
        centers = cluster_stats(dataset, labels, k).centers()
        best = clustering_loss(dataset, labels, centers, spec)
        for _ in range(100):
            jitter = centers * rng.uniform(0.9, 1.1, size=centers.shape)
            assert best <= clustering_loss(dataset, labels, jitter, spec) + 1e-12


def test_clustering_loss_validates_inputs(counterexample):
    dataset, _ = counterexample
    centers = cluster_stats(dataset, KMEANS_LABELS, 2).centers()
    with pytest.raises(ValueError):
        clustering_loss(dataset, np.array([0, 0, 0, 1, 5]), centers, SQE)
    with pytest.raises(ValueError):
        clustering_loss(dataset, KMEANS_LABELS, centers[:, :0], SQE)
    kl = DivergenceSpec.kl()
    positive = Dataset(np.array([[1.0], [2.0]]), np.ones(2))
    with pytest.raises(DomainError, match="centers"):
        clustering_loss(positive, np.array([0, 1]), np.array([[1.0], [0.0]]), kl)
    outside = Dataset(np.array([[-1.0], [2.0]]), np.ones(2))
    with pytest.raises(DomainError, match="points"):
        clustering_loss(outside, np.array([0, 1]), np.array([[1.5], [2.0]]), kl)


def test_dataset_validation():
    with pytest.raises(ValueError, match="pairwise distinct"):
        Dataset(np.array([[1.0], [1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="positive"):
        Dataset(np.array([[1.0], [2.0]]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[1.0], [np.inf]]), np.ones(2))
    with pytest.raises(ValueError, match="2-D"):
        Dataset(np.array([1.0, 2.0]), np.ones(2))
    with pytest.raises(ValueError, match="weights shape"):
        Dataset(np.array([[1.0], [2.0]]), np.ones(3))


# Few distinct values, both signed zeros among them: most draws hold rows
# that are equal in value, and some only through a signed zero.
TIE_HEAVY_ROWS = st.tuples(st.integers(1, 12), st.integers(1, 3)).flatmap(
    lambda shape: hnp.arrays(
        np.float64, shape, elements=st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, 1e5])
    )
)


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=300)
@given(TIE_HEAVY_ROWS)
def test_dataset_distinctness_matches_value_equality(points):
    if reference_rows_distinct(points):
        assert Dataset(points, np.ones(points.shape[0])).n == points.shape[0]
    else:
        with pytest.raises(ValueError, match="pairwise distinct; merge duplicates first"):
            Dataset(points, np.ones(points.shape[0]))


def test_dataset_treats_signed_zeros_as_equal():
    with pytest.raises(ValueError, match="pairwise distinct"):
        Dataset(np.array([[1.0, 0.0], [1.0, -0.0]]), np.ones(2))
    dataset = Dataset(np.array([[-0.0, 1.0], [1.0, 0.0]]), np.ones(2))
    assert np.signbit(dataset.points[0, 0])  # the stored points are unchanged


def test_dataset_is_read_only(counterexample):
    dataset, _ = counterexample
    assert not dataset.points.flags.writeable
    assert not dataset.weights.flags.writeable
    with pytest.raises(ValueError):
        dataset.points[0, 0] = 99.0
    assert dataset.n == 5
    assert dataset.dim == 1
    assert dataset.total_weight == pytest.approx(5.0)


def test_check_labels():
    ok = check_labels(np.array([0, 1, 2]), 3, 3)
    assert ok.dtype == np.int64
    with pytest.raises(ValueError):
        check_labels(np.array([0, 1]), 3, 3)
    with pytest.raises(ValueError):
        check_labels(np.array([0.0, 1.0, 2.0]), 3, 3)
    with pytest.raises(ValueError):
        check_labels(np.array([0, 1, 3]), 3, 3)
    with pytest.raises(ValueError):
        check_labels(np.array([0, -1, 2]), 3, 3)