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
these kinds need no (N, K, d) scratch; KL and Itakura-Saito keep the
rank-one form. Both are scored in one loop over destination centers, each
column's costs written over its column of the divergences, which no cost
column reads but its own: besides the (N, K) matrix it is given, the
quadratic kinds hold a few (N,) arrays and KL and Itakura-Saito a few
(N, d) arrays.

The escape steps ``c_lo_step``, ``d_lo_step`` and ``min_d_lo_step`` only
choose a move, returned as a ``(point, destination)`` pair, or None when
they find none. ``c_lo_step`` sends the first tied point to its largest
tied index, or to its smallest when it sits in the largest: the rule of
``model.tie_move``, which also names ``certify_c_local``'s tie witness.
``c_lo_step`` leaves its arguments untouched; ``d_lo_step`` and
``min_d_lo_step`` leave all but ``divs``, which their move costs consume.
``engine.run`` makes the move with ``ClusterStats.move`` and takes the new
centers from the stats, so each step gets ``divs`` computed at exactly the
``centers`` it is given, and drops them after the step. ``d_lo_step`` and
``min_d_lo_step`` never empty a cluster: a singleton's point sits on its
optimal center, so moving it out cannot lower the loss. A ``c_lo_step``
move that would empty one makes ``engine.run`` raise EmptyClusterError.
Variant "pnx" is ``d_lo_step`` run by ``engine.run`` without sweeps.
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
    tie_move,
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

    ``divs`` is the point-to-center divergence matrix of ``pairwise``, and
    the call consumes it: the result is ``divs`` itself, each column's
    divergences overwritten by its costs. A caller that needs the
    divergences afterwards passes a copy. One loop over destination
    centers b rewrites each column in place from a per-point source term
    ``src``: ``w W_b / (W_b + w) D_b - src`` for the quadratic kinds
    (Hartigan's form) and ``(D_b - D_a) w - src - shift_cost(c_b, x, W_b,
    w)`` for KL and Itakura-Saito, evaluated in that order.
    """
    points = dataset.points
    weights = dataset.weights
    n = points.shape[0]
    weight_sum = stats.weight_sum

    rows = np.arange(n)
    own = divs[rows, labels]
    remaining = weight_sum[labels] - weights
    multi = stats.member_count[labels] > 1
    if ((remaining <= 0.0) & multi).any():
        raise ArithmeticError("cluster weights inconsistent with member weights")

    # Source term, per point: Hartigan's w W_a / (W_a - w) D_a, or the
    # rank-one shift_cost(c_a, x, W_a, -w). A singleton source keeps w D_a,
    # or 0 with the rank-one formula skipped entirely, since its
    # intermediate value could leave the divergence domain.
    if spec.quadratic:
        src = np.ones(n, dtype=np.float64)
        src[multi] = weight_sum[labels][multi] / remaining[multi]
        src *= weights
        src *= own
    else:
        src = np.zeros(n, dtype=np.float64)
        if multi.any():
            idx = np.flatnonzero(multi)
            a = labels[idx]
            src[idx] = shift_cost(spec, centers[a], points[idx], weight_sum[a], -weights[idx])

    # Each column's cost overwrites its divergences, which nothing reads
    # after ``own`` above: the result is ``divs`` itself.
    factor = np.empty(n)  # W_b w / (W_b + w), for the quadratic kinds
    grown = np.empty(n)  # W_b + w
    # ufunc calls with ``out=``: at K = 16, N = 1000 the in-place operators'
    # dispatch would add a tenth to the call's time.
    for col, center, w_b in zip(divs.T, centers, weight_sum):
        if spec.quadratic:
            np.multiply(w_b, weights, out=factor)
            np.add(w_b, weights, out=grown)
            np.divide(factor, grown, out=factor)
            np.multiply(factor, col, out=col)
            np.subtract(col, src, out=col)
        else:
            np.subtract(col, own, out=col)
            np.multiply(col, weights, out=col)
            np.subtract(col, src, out=col)
            np.subtract(col, shift_cost(spec, center, points, w_b, weights), out=col)

    divs[rows, labels] = np.inf
    return divs


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
    divergence matrix before the costs are written over it: the matrix
    returned is ``divs``, consumed as in ``move_cost_matrix``. Rows of
    singleton clusters are +inf: emptying a cluster never lowers the loss
    (its optimal center is the point itself), so such a move could only be
    rounding noise.
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
    """Choose a cross-cluster tie to break: ``model.tie_move`` of the tie band.

    The first point in index order with a nearest-center tie (at least two
    centers within the relative tie band) moves to its largest tied index,
    or to its smallest when it already sits in the largest. Returns None
    when no tie exists, which certifies the fixed point cannot be escaped
    this way. It reads only ``labels`` and ``divs``; the other arguments
    keep the signature every escape step shares.
    """
    check_tolerance("tie_tolerance", tie_tolerance)
    return tie_move(within_tie_band(divs, tie_tolerance), labels)


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
    The move costs are written over ``divs``.
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
    loss, and the move costs are written over ``divs``, as in ``d_lo_step``."""
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
