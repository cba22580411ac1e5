"""Independent verification: local-optimality certificates and brute force.

Everything here recomputes from scratch (fresh weighted sums from the
labels) so that certificates stay meaningful even if the engine's
incremental arithmetic were wrong. Certificates and brute force score a
labeling through one exact loss, ``_losses_at_optimal_centers``, so it
gets the same bits wherever it is scored. ``certify_d_local`` checks the
assignment against every single-point reassignment through the Bregman-
information identity, a different formula from the engine's move costs,
and recomputes the full loss for the moves that decide its verdict;
``certify_c_local`` checks the conditions under which a fixed point of the
assignment sweep is optimal against continuous perturbations: no cross-
cluster nearest-center ties, no empty clusters, pairwise-distinct centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import DivergenceSpec, check_domain, mean_shift, pairwise, phi, phi_magnitude, rowwise
from .model import (
    TIE_TOLERANCE,
    ClusterStats,
    Dataset,
    EmptyClusterError,
    check_labels,
    check_tolerance,
    cluster_stats,
    rounding_floor,
    weighted_sums,
    within_tie_band,
)

C_LOCAL = "c-local"
D_LOCAL = "d-local"
NOT_LOCAL = "not-local"

# Hard bound on k**n for exhaustive enumeration.
BRUTE_FORCE_LIMIT = 10**7

_DUPLICATE_CENTER_TOLERANCE = 1e-12
# Relative drift from the optimal centers above which certify_c_local rejects them.
_CENTER_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MoveDelta:
    """One single-point move and the loss change it causes: a certificate's witness."""

    point: int
    from_cluster: int
    to_cluster: int
    delta: float
    source_empties: bool


@dataclass(frozen=True)
class Certificate:
    """Verdict of a local-optimality check.

    ``worst_delta`` is the smallest loss change over the checked moves
    (negative means improvement exists); ``tie_count`` is the number of
    points with more than one nearest center within the tie band; ``note``
    explains degenerate verdicts that no single move can witness.
    """

    kind: str
    witness: MoveDelta | None
    worst_delta: float
    tie_count: int
    note: str = ""


def loss_at_optimal_centers(
    dataset: Dataset, labels: np.ndarray, k: int, spec: DivergenceSpec
) -> float:
    """F(P): loss at freshly recomputed weighted means; empty clusters allowed."""
    labels = check_labels(labels, dataset.n, k)
    return float(_losses_at_optimal_centers(dataset, labels[None, :], k, spec)[0])


def _losses_at_optimal_centers(
    dataset: Dataset, labelings: np.ndarray, k: int, spec: DivergenceSpec
) -> np.ndarray:
    """F of each row of a (B, n) stack of labelings, bit for bit as if alone:
    cluster j of row r is bincount slot ``j + k r``, so each cluster adds its
    points in point order, and each row's loss is its own dot product with
    the weights (a (B, n) by (n,) product would round differently)."""
    b, n = labelings.shape
    slots = (labelings + k * np.arange(b)[:, None]).ravel()
    weights = np.tile(dataset.weights, b)
    weight_sum = np.bincount(slots, weights=weights, minlength=b * k)
    coord_sum = weighted_sums(np.tile(dataset.points, (b, 1)), weights, slots, b * k)
    occupied = weight_sum > 0.0  # weights are positive
    centers = np.zeros_like(coord_sum)
    centers[occupied] = coord_sum[occupied] / weight_sum[occupied, None]
    per_point = rowwise(spec, dataset.points, centers[slots].reshape(b, n, -1))
    return (per_point[:, None, :] @ dataset.weights[:, None])[:, 0, 0]


def _adjacent_deltas(
    dataset: Dataset,
    labels: np.ndarray,
    stats: ClusterStats,
    spec: DivergenceSpec,
    *,
    frame: np.ndarray,
) -> np.ndarray:
    """(N, K) change of F for every single-point move; the own column is +inf.

    A cluster of weight W and mean c holds ``sum w phi(x) - W phi(c)`` (its
    Bregman information), so moving point g (weight w) from a to b changes
    F by ``W_a phi(c_a) + W_b phi(c_b) - (W_a - w) phi(c_a') - (W_b + w)
    phi(c_b')``, with c' the means after the move; the source term is 0
    when the move empties a. The sums come fresh from the labels, of
    ``frame``, the points in their ``mean_shift`` frame.
    """
    x, w = frame, dataset.weights
    n, k = dataset.n, stats.k
    totals = stats.weight_sum
    sums = weighted_sums(x, w, labels, k)
    held = totals * phi(spec, sums / totals[:, None])

    source = held[labels]
    multi = np.flatnonzero(stats.member_count[labels] > 1)
    left = totals[labels[multi]] - w[multi]
    moved_out = (sums[labels[multi]] - w[multi, None] * x[multi]) / left[:, None]
    source[multi] -= left * phi(spec, moved_out)

    delta = np.empty((k, n)).T  # center-major, like pairwise's output
    moved_in = np.empty_like(x)  # (sums[b] + w x) / (W_b + w), one column at a time
    for b in range(k):
        grown = totals[b] + w
        np.multiply(w[:, None], x, out=moved_in)
        np.add(sums[b], moved_in, out=moved_in)
        np.divide(moved_in, grown[:, None], out=moved_in)
        delta[:, b] = source + held[b] - grown * phi(spec, moved_in)
    delta[np.arange(n), labels] = np.inf
    return delta


def adjacent_delta_bound(
    dataset: Dataset, spec: DivergenceSpec, loss: float, *, frame: np.ndarray
) -> float:
    """Bound on the gap between a fast and a recomputed adjacent delta.

    ``beta = 8 (n + d + 4) u (Phi + F)`` with u = 2^-53 and F the loss.
    Each fast delta adds four ``W phi(c)`` terms whose sums run over at
    most n points and d coordinates, so to first order each is off by at
    most (n + d + 4) u times ``Phi = sum_g w_g m(x_g)``, where m,
    ``divergence.phi_magnitude``, bounds |phi| and its sensitivity to
    relative error (on the points in their ``mean_shift`` frame, which
    ``frame`` gives as in ``_adjacent_deltas``). A recomputed delta differs
    two losses, each off by about (n + d) u F: a center at a cluster mean
    moves the loss by its rounding to second order.
    """
    total = float(dataset.weights @ phi_magnitude(spec, frame)) + loss
    return 8.0 * (dataset.n + dataset.dim + 4) * (np.finfo(np.float64).eps / 2) * total


def certify_d_local(
    dataset: Dataset,
    labels: np.ndarray,
    k: int,
    spec: DivergenceSpec,
) -> Certificate:
    """Compare F against every single-point reassignment in O(N K d).

    Every adjacent delta comes from the Bregman-information identity,
    scored one destination center at a time (``_adjacent_deltas``); it lies
    within ``beta`` of the recomputed difference ``F(moved) - F``
    (``adjacent_delta_bound``).
    Each move whose fast delta lies within ``2 beta`` of the smallest one
    is recomputed exactly with ``loss_at_optimal_centers``, as is any move
    whose fast delta is not finite. Every move that could hold the
    smallest recomputed delta is among them, so ``worst_delta``, the
    witness and the verdict are those of recomputing all n(k-1) moves. A
    move is a witness only when it lowers F by more than the rounding floor
    of F, the bar the escape steps use; a smaller recomputed difference
    cannot be told from rounding.
    """
    check_domain(spec, dataset.points, "points")
    labels = check_labels(labels, dataset.n, k)
    stats = cluster_stats(dataset, labels, k)
    empty = np.flatnonzero(stats.member_count == 0)
    if empty.size:
        raise EmptyClusterError(int(empty[0]))
    base = loss_at_optimal_centers(dataset, labels, k, spec)
    frame = mean_shift(spec, dataset.points)[0]
    fast = _adjacent_deltas(dataset, labels, stats, spec, frame=frame)
    finite = np.isfinite(fast)
    recheck = ~finite
    recheck[np.arange(dataset.n), labels] = False
    if finite.any():
        beta = adjacent_delta_bound(dataset, spec, base, frame=frame)
        recheck |= fast <= np.min(fast, where=finite, initial=np.inf) + 2.0 * beta
    worst = np.inf
    worst_move: tuple[int, int, int] | None = None
    for point, dst in np.argwhere(recheck):
        trial = labels.copy()
        trial[point] = dst
        delta = loss_at_optimal_centers(dataset, trial, k, spec) - base
        if delta < worst:
            worst = delta
            worst_move = (int(point), int(labels[point]), int(dst))
    if worst >= -rounding_floor(base):
        return Certificate(D_LOCAL, None, float(worst), 0)
    point, src, dst = worst_move
    witness = MoveDelta(point, src, dst, float(worst), bool(stats.member_count[src] == 1))
    return Certificate(NOT_LOCAL, witness, float(worst), 0)


def certify_c_local(
    dataset: Dataset,
    labels: np.ndarray,
    centers: np.ndarray,
    spec: DivergenceSpec,
    tie_tolerance: float = TIE_TOLERANCE,
) -> Certificate:
    """Check the conditions for optimality against continuous perturbations.

    The assignment must be a fixed point (each point at a nearest center),
    with no cross-cluster ties within the band, no empty clusters, and
    pairwise-distinct centers. Duplicate centers make the criterion
    inapplicable, reported as not-local with a note. Centers that drift
    from the assignment's optimal ones by more than ``_CENTER_TOLERANCE``
    (relative) raise ValueError.
    """
    check_tolerance("tie_tolerance", tie_tolerance)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != dataset.dim:
        raise ValueError(f"centers shape {centers.shape} does not match dimension {dataset.dim}")
    check_domain(spec, dataset.points, "points")
    check_domain(spec, centers, "centers", require_interior=True)
    k = centers.shape[0]
    labels = check_labels(labels, dataset.n, k)
    stats = cluster_stats(dataset, labels, k)

    empty = np.flatnonzero(stats.member_count == 0)
    if empty.size:
        return Certificate(
            NOT_LOCAL, None, 0.0, 0, note=f"cluster {int(empty[0])} is empty"
        )

    optimal = stats.centers()
    drift = np.abs(centers - optimal).max()
    if drift > _CENTER_TOLERANCE * (1.0 + np.abs(optimal).max()):
        raise ValueError(
            f"centers are not optimal for the assignment (max drift {drift:.3e})"
        )

    # Every pair a < b at once; argwhere reports the first in row-major order.
    gap = np.abs(centers[:, None, :] - centers[None, :, :]).max(axis=2)
    shared = np.argwhere(np.triu(gap <= _DUPLICATE_CENTER_TOLERANCE, 1))
    if shared.size:
        a, b = shared[0]
        note = f"clusters {a} and {b} share a center; criterion inapplicable"
        return Certificate(NOT_LOCAL, None, 0.0, 0, note=note)

    divs = pairwise(spec, dataset.points, centers)
    within = within_tie_band(divs, tie_tolerance)
    tie_count = int((within.sum(axis=1) >= 2).sum())

    def full_delta(point: int, dst: int) -> float:
        base = loss_at_optimal_centers(dataset, labels, k, spec)
        trial = labels.copy()
        trial[point] = dst
        return loss_at_optimal_centers(dataset, trial, k, spec) - base

    rows = np.arange(dataset.n)
    misassigned = np.flatnonzero(~within[rows, labels])
    if misassigned.size:
        point = int(misassigned[0])
        dst = int(np.argmin(divs[point]))
        delta = full_delta(point, dst)
        witness = MoveDelta(point, int(labels[point]), dst, delta, False)
        return Certificate(
            NOT_LOCAL, witness, delta, tie_count, note="assignment is not a fixed point"
        )

    if tie_count:
        point = int(np.flatnonzero(within.sum(axis=1) >= 2)[0])
        tied = np.flatnonzero(within[point])
        dst = int(tied[-1]) if tied[-1] != labels[point] else int(tied[0])
        delta = full_delta(point, dst)
        witness = MoveDelta(point, int(labels[point]), dst, delta, False)
        return Certificate(NOT_LOCAL, witness, delta, tie_count)

    return Certificate(C_LOCAL, None, 0.0, 0)


def brute_force_best(
    dataset: Dataset, k: int, spec: DivergenceSpec
) -> tuple[np.ndarray, float]:
    """Global optimum by scoring every partition into k nonempty clusters once.

    Guarded by BRUTE_FORCE_LIMIT on k**n. Restricting to partitions with
    no empty cluster is lossless: moving a point into an empty cluster
    never raises the loss, so some optimum uses all clusters. Each
    partition is scored in one labeling, its labels numbered in order of
    first appearance: the first label is 0 and each label exceeds the
    largest before it by at most 1. Labelings are enumerated in
    lexicographic order and the first one of least loss is returned. A
    relabeling leaves the loss unchanged to the bit (each cluster sums its
    points in point order), and the lexicographically first labeling of a
    partition is its numbering by first appearance, so the result is that
    of scanning every labeling with no empty cluster. The loss returned is
    ``loss_at_optimal_centers`` of the labels returned, to the bit.
    """
    check_domain(spec, dataset.points, "points")
    total = k**dataset.n
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"k**n = {total} exceeds the enumeration limit {BRUTE_FORCE_LIMIT}"
        )
    # The first label is 0: in lexicographic order that is the first
    # k**(n-1) labelings, so the rest are never formed.
    shape = (k,) * dataset.n
    first = total // k
    best_loss = np.inf
    best_labels: np.ndarray | None = None
    chunk = 256  # tracemalloc peak at n = 8, k = 3: 0.18 MB (0.30 MB at 512)
    for start in range(0, first, chunk):
        flat = np.arange(start, min(start + chunk, first))
        labels = np.stack(np.unravel_index(flat, shape), axis=1)
        # Labelings numbered in order of first appearance that use all k labels.
        top = np.maximum.accumulate(labels, axis=1)
        keep = top[:, -1] == k - 1
        keep &= (labels[:, 1:] <= top[:, :-1] + 1).all(axis=1)
        labels = labels[keep]
        del top  # freed before the losses below
        if not labels.size:
            continue
        losses = _losses_at_optimal_centers(dataset, labels, k, spec)
        pick = int(np.argmin(losses))
        if losses[pick] < best_loss:
            best_loss = float(losses[pick])
            best_labels = labels[pick].astype(np.int64)
    return best_labels, best_loss
