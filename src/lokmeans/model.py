"""Weighted point sets, assignments, cluster statistics, and the loss.

The clustering objective is

    f(P, C) = sum_k sum_n p_{k,n} w_n D(x_n, c_k)

over hard assignments P and centers C. For every divergence supported
here the optimal center of a cluster is its weighted mean, so center
updates never depend on the divergence choice: every center is
``ClusterStats.centers()`` of its cluster's sums. The sweep, the escape
core and the certificates share four definitions from here:
``within_tie_band`` (the tie band), ``smallest_in_band`` (the sweep's
label, the smallest index in the band), ``tie_move`` (the one move that
breaks a tie) and ``rounding_floor`` (the one bar a gain must clear, at
any offset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSpec, check_domain, phi, rowwise


class EmptyClusterError(ValueError):
    def __init__(self, cluster: int):
        super().__init__(f"cluster {cluster} is empty; its center is undefined")
        self.cluster = int(cluster)


@dataclass(frozen=True)
class Dataset:
    """Immutable weighted point set with pairwise-distinct rows."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        points = np.ascontiguousarray(self.points, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 1:
            raise ValueError(f"points must be a non-empty 2-D array, got shape {points.shape}")
        if weights.shape != (points.shape[0],):
            raise ValueError(
                f"weights shape {weights.shape} does not match {points.shape[0]} points"
            )
        if not np.isfinite(points).all():
            raise ValueError("points contain non-finite values")
        if not np.isfinite(weights).all() or (weights <= 0.0).any():
            raise ValueError("weights must be finite and strictly positive")
        keys = row_keys(points)
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("points must be pairwise distinct; merge duplicates first")
        points.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())


def row_keys(points: np.ndarray) -> np.ndarray:
    """One opaque key per row of a finite (N, d) array: two keys are equal
    exactly when the rows are equal in value.

    The keys are the bytes of a fresh copy of the rows in which ``-0.0``
    is ``+0.0``; ``keys.view(np.float64)`` reads that copy back.
    """
    rows = np.ascontiguousarray(points, dtype=np.float64) + 0.0
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def check_tolerance(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is finite and non-negative."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"tolerances must be finite and non-negative, got {name} = {value}")


def check_labels(labels: np.ndarray, n: int, k: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match {n} points")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError("labels must be integers")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels must lie in [0, {k})")
    return labels.astype(np.int64, copy=False)


@dataclass
class ClusterStats:
    """Per-cluster weight sums, weighted coordinate sums, and member counts."""

    weight_sum: np.ndarray
    coord_sum: np.ndarray
    member_count: np.ndarray

    @property
    def k(self) -> int:
        return self.weight_sum.shape[0]

    def centers(self) -> np.ndarray:
        """Optimal (weighted-mean) centers; every cluster must be non-empty."""
        empty = np.flatnonzero(self.member_count == 0)
        if empty.size:
            raise EmptyClusterError(int(empty[0]))
        return self.coord_sum / self.weight_sum[:, None]

    def move(self, dataset: Dataset, point: int, src: int, dst: int) -> None:
        """Shift one point's weight and coordinate mass between clusters."""
        if src == dst:
            raise ValueError("source and destination clusters must differ")
        if self.member_count[src] < 1:
            raise ValueError(f"cluster {src} has no members to move")
        w = dataset.weights[point]
        wx = w * dataset.points[point]
        self.weight_sum[src] -= w
        self.weight_sum[dst] += w
        self.coord_sum[src] -= wx
        self.coord_sum[dst] += wx
        self.member_count[src] -= 1
        self.member_count[dst] += 1


def weighted_sums(
    points: np.ndarray, weights: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    """(K, d) per-cluster sums of ``w x``, each accumulated in point order.

    Each coordinate's products ``w x_j`` are formed in one reused (N,)
    column and summed by one ``bincount``, so the call holds no (d, N)
    product and no ufunc buffer.
    """
    n, d = points.shape
    column = np.empty(n)
    sums = np.empty((k, d), dtype=np.float64)
    for j in range(d):
        np.multiply(points[:, j], weights, out=column)
        sums[:, j] = np.bincount(labels, weights=column, minlength=k)
    return sums


def cluster_stats(dataset: Dataset, labels: np.ndarray, k: int) -> ClusterStats:
    """Fresh statistics of ``labels``."""
    labels = check_labels(labels, dataset.n, k)
    weight_sum = np.bincount(labels, weights=dataset.weights, minlength=k)
    member_count = np.bincount(labels, minlength=k).astype(np.int64)
    coord_sum = weighted_sums(dataset.points, dataset.weights, labels, k)
    return ClusterStats(weight_sum, coord_sum, member_count)


def clustering_loss(
    dataset: Dataset,
    labels: np.ndarray,
    centers: np.ndarray,
    spec: DivergenceSpec,
) -> float:
    """Exact weighted sum of divergences from each point to its center:
    the argument checks, then ``unchecked_clustering_loss``."""
    centers = np.asarray(centers, dtype=np.float64)
    labels = check_labels(labels, dataset.n, centers.shape[0])
    if centers.ndim != 2 or centers.shape[1] != dataset.dim:
        raise ValueError(f"centers shape {centers.shape} does not match dimension {dataset.dim}")
    check_domain(spec, dataset.points, "points")
    check_domain(spec, centers, "centers", require_interior=True)
    return unchecked_clustering_loss(dataset, labels, centers, spec)


def unchecked_clustering_loss(
    dataset: Dataset, labels: np.ndarray, centers: np.ndarray, spec: DivergenceSpec
) -> float:
    """``clustering_loss`` without its checks, for a caller that holds
    int64 labels in range and float64 (K, d) centers, with the points and
    centers inside the divergence's domain (``engine.run`` checks its
    centers each iteration).
    """
    gathered = np.take(centers, labels, axis=0)
    if spec.quadratic:
        # rowwise's phi(x - y), with x - y written over the gathered centers.
        per_point = phi(spec, np.subtract(dataset.points, gathered, out=gathered))
    else:
        per_point = rowwise(spec, dataset.points, gathered)
    return float(per_point @ dataset.weights)


def rounding_floor(loss: float) -> float:
    """Smallest loss change that counts as real at the given loss level.

    For a move whose gain is near zero, the terms of its closed-form cost,
    and the two losses of a recomputed difference, are at most a small
    multiple of the loss, so the rounding error is a few ulps of the loss.
    A predicted gain within this floor of zero may be pure rounding: the
    escape steps never apply such a move, and the d-local certificate never
    reports one as a witness. Without the floor, tie-heavy data lets a step
    undo its own zero-gain move forever. Far from the origin, ``engine.run``
    keeps the offset out of its centers with ``divergence.mean_shift``.
    """
    return 1e-12 * (1.0 + abs(loss))


# Default relative width of the tie band, for every caller that takes one.
TIE_TOLERANCE = 1e-9


def _tie_band(divs: np.ndarray, tie_tolerance: float, dtype) -> np.ndarray:
    """(K, N) band: 1 where a center lies within ``dmin + tol (1 + |dmin|)``
    of the row's smallest divergence, else 0, in ``dtype``.

    Built one center at a time, as ``pairwise`` lays out its divergences:
    a compare of each center's divergences against the (N,) bound reads
    and writes contiguous memory without a broadcast, and so without
    numpy's 64 KB iteration buffer.
    """
    bound = divs.min(axis=1)
    slack = np.abs(bound)
    slack += 1.0
    slack *= tie_tolerance
    bound += slack
    del slack  # before the band: the sweep's peak
    band = np.empty(divs.shape[::-1], dtype=dtype)
    # A one-byte band takes the compare's booleans with no cast.
    for center, within in zip(divs.T, band.view(bool) if band.itemsize == 1 else band):
        np.less_equal(center, bound, out=within)
    return band


def within_tie_band(divs: np.ndarray, tie_tolerance: float) -> np.ndarray:
    """(N, K) mask of the centers within ``dmin + tol (1 + |dmin|)`` of
    each row: the transpose of a C-contiguous (K, N) boolean band."""
    return _tie_band(divs, tie_tolerance, bool).T


def smallest_in_band(divs: np.ndarray, tie_tolerance: float) -> np.ndarray:
    """Each row's smallest center index within its tie band: the sweep's
    labels. A row with no center in its band (a NaN divergence) gets 0.

    The band is built in the narrowest unsigned type that holds K, and
    center b's row is scaled to rank K - b in place, so the largest rank
    of a column is ``K -`` its smallest in-band index, and 0 for an empty
    band: one contiguous max over the centers, where an argmax over the
    center-major band would copy it transposed. ``K -`` the max, modulo K,
    is the label, formed in that narrow type.
    """
    k = divs.shape[1]
    ranks = _tie_band(divs, tie_tolerance, np.min_scalar_type(k))
    np.multiply(ranks, np.arange(k, 0, -1, dtype=ranks.dtype)[:, None], out=ranks)
    return ((k - ranks.max(axis=0)) % k).astype(np.int64)


def tie_move(within: np.ndarray, labels: np.ndarray) -> tuple[int, int] | None:
    """The move that breaks the first tie of the band ``within``, or None:
    the first row with two or more tied centers goes to its largest tied
    index, or to its smallest when it already sits in the largest."""
    ties = np.flatnonzero(within.sum(axis=1) >= 2)
    if ties.size == 0:
        return None
    point = int(ties[0])
    tied = np.flatnonzero(within[point])
    return point, int(tied[-1] if tied[-1] != labels[point] else tied[0])
