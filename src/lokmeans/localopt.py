"""Move costs and the new-step procedures that escape non-local fixed points.

The cost of moving point ``g`` from cluster ``a`` to cluster ``b`` (with
optimal centers before and after) has the closed form

    delta = w_g (D(x_g, c_b) - D(x_g, c_a))
            - (s_a - w_g) D(c_a', c_a)
            - (s_b + w_g) D(c_b', c_b)

where c_a', c_b' are the post-move weighted means, obtained in O(d) by a
rank-one shift. Each center term is ``shift_cost``, the one definition of
(W + s) D(c', c) for a cluster of weight W that gains signed weight s. The
source term is zero when the move empties cluster ``a``.
Evaluating this instead of recomputing the full loss is what makes the
local-optimality steps cheap.

For quadratic phi (squared Euclidean and Mahalanobis) both center shifts
are multiples of D(x_g, c), and the move cost reduces to
Hartigan's form (Telgarsky & Vattani, *Hartigan's Method*, AISTATS 2010)

    delta = w W_b / (W_b + w) D(x_g, c_b) - w W_a / (W_a - w) D(x_g, c_a)

with W the cluster weights; a singleton source contributes -w D(x_g, c_a).
``move_cost_matrix`` reads it off the cached (N, K) divergence matrix, so
these kinds need no (N, K, d) scratch: besides its output they hold one
(K, N) scratch for ``W + w``. KL and Itakura-Saito keep the rank-one form,
one destination center at a time, so their scratch is a few (N, d) arrays.

The escape steps ``c_lo_step``, ``d_lo_step`` and ``min_d_lo_step`` only
choose a move: each leaves its arguments untouched and returns the move as
a ``(point, destination)`` pair, or None when it finds none. ``engine.run``
makes the move with ``ClusterStats.move`` and takes the new centers from
the stats, so each step gets ``divs`` computed at exactly the ``centers``
it is given. ``d_lo_step`` and ``min_d_lo_step`` never empty a cluster: a
singleton's point sits on its optimal center, so moving it out cannot
lower the loss. A ``c_lo_step`` move that would empty one makes
``engine.run`` raise EmptyClusterError. Variant "pnx" is ``d_lo_step`` run
by ``engine.run`` without sweeps.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .divergence import DivergenceSpec, rowwise
from .model import (
    ClusterStats,
    Dataset,
    check_tolerance,
    rounding_floor,
    within_tie_band,
)


def shift_cost(spec: DivergenceSpec, center, x, weight_sum, s):
    """``(W + s) D(c', c)``: how much the loss of a cluster of weight ``W``
    and mean ``c`` falls when signed weight ``s`` at ``x`` joins it (``s =
    -w`` moves a point out) and its center moves to the new mean ``c' = c +
    s (x - c) / (W + s)``. ``W`` and ``s`` broadcast against
    ``center.shape[:-1]``; a cluster left with no positive weight raises
    ArithmeticError."""
    grown = np.asarray(weight_sum + s)[..., None]
    if (grown <= 0.0).any():
        raise ArithmeticError("cluster weights inconsistent with member weights")
    shifted = center + np.asarray(s)[..., None] * (x - center) / grown
    return grown[..., 0] * rowwise(spec, shifted, center)


def move_cost_matrix(
    dataset: Dataset,
    labels: np.ndarray,
    stats: ClusterStats,
    centers: np.ndarray,
    spec: DivergenceSpec,
    divs: np.ndarray,
) -> np.ndarray:
    """(N, K) matrix of hard-move costs; the own-cluster column is +inf.

    ``divs`` is the point-to-center divergence matrix of ``pairwise``; the
    result has its layout (center-major).
    """
    points = dataset.points
    weights = dataset.weights
    n, k = points.shape[0], centers.shape[0]

    rows = np.arange(n)
    own = divs[rows, labels]
    remaining = stats.weight_sum[labels] - weights
    multi = stats.member_count[labels] > 1
    if ((remaining <= 0.0) & multi).any():
        raise ArithmeticError("cluster weights inconsistent with member weights")

    if spec.quadratic:
        # Hartigan's form: both center shifts are multiples of D(x, c), so
        # the cost is read off the cached matrix. Singleton sources keep
        # the plain -w D(x, c_a) term, as in the rank-one path below.
        src_scale = np.ones(n, dtype=np.float64)
        src_scale[multi] = stats.weight_sum[labels][multi] / remaining[multi]
        # W w / (W + w), built (K, N) and viewed as (N, K) like pairwise's
        # output. W + w fills one (K, N) scratch by a one-operand broadcast
        # and an in-place add. einsum writes W w with no transient, after
        # the add, so the add's 64 KB iterator buffer never meets it.
        grown = np.empty((k, n))
        grown[...] = stats.weight_sum[:, None]
        grown += weights
        delta = np.einsum("k,n->kn", stats.weight_sum, weights)
        delta /= grown
        del grown  # freed before the subtraction below takes its buffer
        delta = delta.T
        delta *= divs
        delta -= (weights * src_scale * own)[:, None]
    else:
        delta = weights[:, None] * (divs - own[:, None])
        # Source term: depends on the point only. Singleton sources
        # contribute zero and their rank-one formula is skipped entirely,
        # since its intermediate value could leave the divergence domain.
        src_term = np.zeros(n, dtype=np.float64)
        if multi.any():
            idx = np.flatnonzero(multi)
            src = labels[idx]
            src_term[idx] = shift_cost(
                spec, centers[src], points[idx], stats.weight_sum[src], -weights[idx]
            )
        delta -= src_term[:, None]
        # Destination term, one center at a time: (N, d) scratch per column.
        for b in range(k):
            delta[:, b] -= shift_cost(spec, centers[b], points, stats.weight_sum[b], weights)

    delta[rows, labels] = np.inf
    return delta


def _move_costs_and_bar(
    dataset: Dataset,
    labels: np.ndarray,
    stats: ClusterStats,
    centers: np.ndarray,
    spec: DivergenceSpec,
    divs: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Move-cost matrix and the gain a move must beat to be chosen.

    The bar is the rounding floor of the current loss, read off the
    divergence matrix the costs are built from. Rows of singleton clusters
    are +inf: emptying a cluster never lowers the loss (its optimal center
    is the point itself), so such a move could only be rounding noise.
    """
    loss = float(dataset.weights @ divs[np.arange(dataset.n), labels])
    delta = move_cost_matrix(dataset, labels, stats, centers, spec, divs)
    delta[stats.member_count[labels] == 1] = np.inf
    return delta, rounding_floor(loss)


def c_lo_step(
    dataset: Dataset,
    labels: np.ndarray,
    stats: ClusterStats,
    centers: np.ndarray,
    spec: DivergenceSpec,
    tie_tolerance: float,
    divs: np.ndarray,
) -> tuple[int, int] | None:
    """Choose a cross-cluster tie to break: its point moves to the largest tied index.

    Scans points in index order for a nearest-center tie (at least two
    centers within the relative tie band). Returns None when no tie
    exists, which certifies the fixed point cannot be escaped this way.
    It reads only ``labels`` and ``divs``; the other arguments keep the
    signature every escape step shares.
    """
    check_tolerance("tie_tolerance", tie_tolerance)
    within = within_tie_band(divs, tie_tolerance)
    candidates = np.flatnonzero(within.sum(axis=1) >= 2)
    if candidates.size == 0:
        return None
    point = int(candidates[0])
    tied = np.flatnonzero(within[point])
    src, dst = int(tied[0]), int(tied[-1])
    if labels[point] != src:
        raise ValueError(
            f"point {point} assigned to cluster {labels[point]} but its nearest tied cluster is {src}"
        )
    return point, dst


def d_lo_step(
    dataset: Dataset,
    labels: np.ndarray,
    stats: ClusterStats,
    centers: np.ndarray,
    spec: DivergenceSpec,
    divs: np.ndarray,
) -> tuple[int, int] | None:
    """Choose the first single-point move that lowers the loss.

    The gain must clear the rounding floor of the current loss, so a move
    whose predicted gain is rounding error is never chosen. Candidates are
    scanned point-major, destination-minor: the first point with an
    improving move takes its smallest improving destination, even when a
    later one gains more. Returns None when no move improves, i.e. the
    assignment is locally optimal over single-point moves. The floor holds
    far from the origin: ``engine.run`` passes the quadratic kinds in their mean frame.
    """
    delta, bar = _move_costs_and_bar(dataset, labels, stats, centers, spec, divs)
    improving = delta < -bar
    gains = improving.any(axis=1)
    if not gains.any():
        return None
    point = int(np.argmax(gains))
    return point, int(np.argmax(improving[point]))


def min_d_lo_step(
    dataset: Dataset,
    labels: np.ndarray,
    stats: ClusterStats,
    centers: np.ndarray,
    spec: DivergenceSpec,
    divs: np.ndarray,
) -> tuple[int, int] | None:
    """Choose the single best improving move by its computed cost, equal
    costs to the smallest point, then cluster. Moves whose exact gains tie
    may compute some ulps apart, and then rounding decides. The move is
    chosen only when its gain clears the rounding floor of the current
    loss, as in ``d_lo_step``."""
    delta, bar = _move_costs_and_bar(dataset, labels, stats, centers, spec, divs)
    point = int(np.argmin(delta.min(axis=1)))
    dst = int(np.argmin(delta[point]))
    if not delta[point, dst] < -bar:
        return None
    return point, dst


def pnx_run(dataset: Dataset, config) -> "RunReport":
    """``engine.run`` with variant "pnx": ``d_lo_step`` without reassignment sweeps."""
    from .engine import run  # deferred: engine imports this module

    return run(dataset, replace(config, variant="pnx"))
