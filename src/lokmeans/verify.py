"""Independent verification: local-optimality certificates and brute force.

Everything here recomputes losses from scratch (fresh weighted means,
full sums) so that certificates stay meaningful even if the engine's
incremental arithmetic were wrong. ``certify_d_local`` checks the
assignment against every single-point reassignment; ``certify_c_local``
checks the conditions under which a fixed point of the assignment sweep
is optimal against continuous perturbations: no cross-cluster nearest-
center ties, no empty clusters, pairwise-distinct centers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .divergence import DivergenceSpec, pairwise, rowwise
from .localopt import MoveDelta
from .model import (
    Dataset,
    EmptyClusterError,
    check_labels,
    cluster_stats,
    origin_loss,
    rounding_floor,
    within_tie_band,
)

C_LOCAL = "c-local"
D_LOCAL = "d-local"
NOT_LOCAL = "not-local"

# Hard bound on k**n for exhaustive enumeration.
BRUTE_FORCE_LIMIT = 10**7

_DUPLICATE_CENTER_TOLERANCE = 1e-12


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


def adjacent_assignments(labels: np.ndarray, k: int) -> Iterator[np.ndarray]:
    """All assignments differing in exactly one label, point-major order."""
    labels = np.asarray(labels)
    for point in range(labels.shape[0]):
        for dst in range(k):
            if dst == labels[point]:
                continue
            moved = labels.copy()
            moved[point] = dst
            yield moved


def loss_at_optimal_centers(
    dataset: Dataset, labels: np.ndarray, k: int, spec: DivergenceSpec
) -> float:
    """F(P): loss at freshly recomputed weighted means; empty clusters allowed."""
    labels = check_labels(labels, dataset.n, k)
    stats = cluster_stats(dataset, labels, k)
    occupied = stats.member_count > 0
    centers = np.zeros_like(stats.coord_sum)
    centers[occupied] = stats.coord_sum[occupied] / stats.weight_sum[occupied, None]
    per_point = rowwise(spec, dataset.points, centers[labels])
    return float(per_point @ dataset.weights)


def certify_d_local(
    dataset: Dataset,
    labels: np.ndarray,
    k: int,
    spec: DivergenceSpec,
) -> Certificate:
    """Exhaustively compare F against every single-point reassignment.

    A reassignment is a witness only when it lowers F by more than the
    rounding floor of F, the bar the escape steps use; a smaller recomputed
    difference cannot be told from rounding.
    """
    labels = check_labels(labels, dataset.n, k)
    stats = cluster_stats(dataset, labels, k)
    empty = np.flatnonzero(stats.member_count == 0)
    if empty.size:
        raise EmptyClusterError(int(empty[0]))
    base = loss_at_optimal_centers(dataset, labels, k, spec)
    worst = np.inf
    worst_move: tuple[int, int, int] | None = None
    for point in range(dataset.n):
        src = int(labels[point])
        for dst in range(k):
            if dst == src:
                continue
            trial = labels.copy()
            trial[point] = dst
            delta = loss_at_optimal_centers(dataset, trial, k, spec) - base
            if delta < worst:
                worst = delta
                worst_move = (point, src, dst)
    if worst >= -rounding_floor(base, origin_loss(dataset, spec)):
        return Certificate(D_LOCAL, None, float(worst), 0)
    point, src, dst = worst_move
    witness = MoveDelta(point, src, dst, float(worst), bool(stats.member_count[src] == 1))
    return Certificate(NOT_LOCAL, witness, float(worst), 0)


def certify_c_local(
    dataset: Dataset,
    labels: np.ndarray,
    centers: np.ndarray,
    spec: DivergenceSpec,
    tie_tolerance: float = 1e-9,
    center_tolerance: float = 1e-9,
) -> Certificate:
    """Check the conditions for optimality against continuous perturbations.

    The assignment must be a fixed point (each point at a nearest center),
    with no cross-cluster ties within the band, no empty clusters, and
    pairwise-distinct centers. Duplicate centers make the criterion
    inapplicable, reported as not-local with a note.
    """
    centers = np.asarray(centers, dtype=np.float64)
    k = centers.shape[0]
    labels = check_labels(labels, dataset.n, k)
    stats = cluster_stats(dataset, labels, k)

    empty = np.flatnonzero(stats.member_count == 0)
    if empty.size:
        return Certificate(
            NOT_LOCAL, None, 0.0, 0, note=f"cluster {int(empty[0])} is empty"
        )

    optimal = stats.coord_sum / stats.weight_sum[:, None]
    drift = np.abs(centers - optimal).max()
    if drift > center_tolerance * (1.0 + np.abs(optimal).max()):
        raise ValueError(
            f"centers are not optimal for the assignment (max drift {drift:.3e})"
        )

    for a in range(k):
        for b in range(a + 1, k):
            if np.abs(centers[a] - centers[b]).max() <= _DUPLICATE_CENTER_TOLERANCE:
                return Certificate(
                    NOT_LOCAL,
                    None,
                    0.0,
                    0,
                    note=f"clusters {a} and {b} share a center; criterion inapplicable",
                )

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
    """Global optimum by enumerating every assignment with no empty cluster.

    Guarded by BRUTE_FORCE_LIMIT on k**n. Restricting to surjective
    assignments is lossless: moving a point into an empty cluster never
    raises the loss, so some optimum uses all clusters.
    """
    total = k**dataset.n
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"k**n = {total} exceeds the enumeration limit {BRUTE_FORCE_LIMIT}"
        )
    points = dataset.points
    weights = dataset.weights
    shape = (k,) * dataset.n
    best_loss = np.inf
    best_labels: np.ndarray | None = None
    chunk = 4096
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total))
        labels = np.stack(np.unravel_index(flat, shape), axis=1)
        onehot = labels[:, :, None] == np.arange(k)
        counts = onehot.sum(axis=1)
        surjective = (counts > 0).all(axis=1)
        if not surjective.any():
            continue
        labels = labels[surjective]
        onehot = onehot[surjective]
        weight_sum = np.einsum("bnk,n->bk", onehot, weights)
        coord_sum = np.einsum("bnk,n,nd->bkd", onehot, weights, points)
        centers = coord_sum / weight_sum[:, :, None]
        assigned = np.take_along_axis(centers, labels[:, :, None], axis=1)
        losses = rowwise(spec, points[None, :, :], assigned) @ weights
        pick = int(np.argmin(losses))
        if losses[pick] < best_loss:
            best_loss = float(losses[pick])
            best_labels = labels[pick].astype(np.int64)
    return best_labels, best_loss
