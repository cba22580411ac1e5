"""Weighted point sets, assignments, cluster statistics, and the loss.

The clustering objective is

    f(P, C) = sum_k sum_n p_{k,n} w_n D(x_n, c_k)

over hard assignments P and centers C. For every divergence supported
here the optimal center of a cluster is its weighted mean, so center
updates never depend on the divergence choice: every center is
``ClusterStats.centers()`` of its cluster's sums. The escape core shares
three definitions from here: ``rank_one_shift`` (the post-move mean in a
move cost), ``within_tie_band`` (the tie band) and ``rounding_floor``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSpec, check_domain, rowwise


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


def weighted_points(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(d, N) products ``w x``, coordinate-major, so that each coordinate's
    ``bincount`` in ``weighted_sums`` reads contiguous memory."""
    n, d = points.shape
    return np.multiply(points.T, weights, out=np.empty((d, n)))


def weighted_sums(
    points: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    k: int,
    *,
    weighted: np.ndarray | None = None,
) -> np.ndarray:
    """(K, d) per-cluster sums of ``w x``, each accumulated in point order.

    ``weighted`` may carry ``weighted_points(points, weights)``, computed
    once by a caller that sums the same points under many labelings.
    """
    d = points.shape[1]
    if weighted is None:
        weighted = weighted_points(points, weights)
    elif weighted.shape != points.shape[::-1]:
        raise ValueError(f"weighted points shape {weighted.shape} does not match {points.shape}")
    sums = np.empty((k, d), dtype=np.float64)
    for j in range(d):
        sums[:, j] = np.bincount(labels, weights=weighted[j], minlength=k)
    return sums


def cluster_stats(
    dataset: Dataset, labels: np.ndarray, k: int, *, weighted: np.ndarray | None = None
) -> ClusterStats:
    """Fresh statistics of ``labels``; ``weighted`` as in ``weighted_sums``."""
    labels = check_labels(labels, dataset.n, k)
    weight_sum = np.bincount(labels, weights=dataset.weights, minlength=k)
    member_count = np.bincount(labels, minlength=k).astype(np.int64)
    coord_sum = weighted_sums(dataset.points, dataset.weights, labels, k, weighted=weighted)
    return ClusterStats(weight_sum, coord_sum, member_count)


def clustering_loss(
    dataset: Dataset,
    labels: np.ndarray,
    centers: np.ndarray,
    spec: DivergenceSpec,
    *,
    check_points: bool = True,
) -> float:
    """Exact weighted sum of divergences from each point to its center.

    ``check_points=False`` skips only the O(N d) domain check of the
    points, for a caller that has already checked this dataset against
    ``spec`` (``engine.run`` does once per run); the centers are always
    checked.
    """
    centers = np.asarray(centers, dtype=np.float64)
    labels = check_labels(labels, dataset.n, centers.shape[0])
    if centers.ndim != 2 or centers.shape[1] != dataset.dim:
        raise ValueError(f"centers shape {centers.shape} does not match dimension {dataset.dim}")
    if check_points:
        check_domain(spec, dataset.points, "points")
    check_domain(spec, centers, "centers", require_interior=True)
    per_point = rowwise(spec, dataset.points, centers[labels])
    return float(per_point @ dataset.weights)


def rounding_floor(loss: float, origin_loss: float = 0.0) -> float:
    """Smallest loss change that counts as real at the given loss level.

    For a move whose gain is near zero, the terms of its closed-form cost,
    and the two losses of a recomputed difference, are at most a small
    multiple of the loss, so the rounding error is a few ulps of the loss.
    A predicted gain within this floor of zero may be pure rounding: the
    escape steps never apply such a move, and the d-local certificate never
    reports one as a witness. Without the floor, tie-heavy data lets a step
    undo its own zero-gain move forever.

    Centers are stored in absolute coordinates, so on data far from the
    origin each carries rounding of a few ulps of the coordinates, and a
    move cost inherits about ``2 w |x - c|`` times that. ``origin_loss``
    (see ``origin_loss``) bounds the coordinate scale: by Cauchy-Schwarz
    ``sum w |x - c| |x| <= sqrt(loss * origin_loss)``.
    """
    return 1e-12 * (1.0 + abs(loss) + math.sqrt(abs(loss) * origin_loss))


def origin_loss(dataset: Dataset, spec: DivergenceSpec) -> float:
    """Loss of all points against one center at the origin, for quadratic phi.

    This is the coordinate scale term of ``rounding_floor``. KL and
    Itakura-Saito are not translation invariant and have no such term: 0.
    """
    if not spec.quadratic:
        return 0.0
    return float(dataset.weights @ rowwise(spec, dataset.points, np.zeros(dataset.dim)))


def rank_one_shift(center, x, weight_sum, s):
    """``c + s (x - c) / (W + s)``: the mean of a cluster of weight ``W`` and
    mean ``c`` once signed weight ``s`` at ``x`` joins it (``s = -w`` moves a
    point out). ``W`` and ``s`` broadcast against ``center.shape[:-1]``; a
    cluster left with no positive weight raises ArithmeticError."""
    grown = np.asarray(weight_sum + s)[..., None]
    if (grown <= 0.0).any():
        raise ArithmeticError("cluster weights inconsistent with member weights")
    return center + np.asarray(s)[..., None] * (x - center) / grown


# Default relative width of the tie band, for every caller that takes one.
TIE_TOLERANCE = 1e-9


def within_tie_band(divs: np.ndarray, tie_tolerance: float) -> np.ndarray:
    """(N, K) mask of the centers within ``dmin + tol (1 + |dmin|)`` of each row."""
    dmin = divs.min(axis=1)
    return divs <= (dmin + tie_tolerance * (1.0 + np.abs(dmin)))[:, None]

