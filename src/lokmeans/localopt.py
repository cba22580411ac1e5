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
``_hartigan`` is its one definition, read off the cached (N, K) divergence
matrix, so these kinds need no (N, K, d) scratch; KL and Itakura-Saito
keep the rank-one form. ``move_cost_matrix`` scores both in one loop over
destination centers, each column's costs written over its column of the
divergences, which no cost column reads but its own: besides the (N, K)
matrix it is given, the quadratic kinds hold a few (N,) arrays and KL and
Itakura-Saito a few (N, d) arrays.

The escape steps ``c_lo_step``, ``d_lo_step`` and ``min_d_lo_step`` only
choose a move, returned as a ``(point, destination)`` pair, or None when
they find none. ``c_lo_step`` sends the first tied point to its largest
tied index, or to its smallest when it sits in the largest: the rule of
``model.tie_move``, which also names ``certify_c_local``'s tie witness.
For the quadratic kinds ``d_lo_step`` and ``min_d_lo_step`` first screen
the rows: Hartigan's factor grows with W_b, so no move of point g costs
less than its move to a cluster of the smallest weight at its nearest
other divergence, and only rows where that bound beats the rounding floor
are scored, each cost the bits ``move_cost_matrix`` gives it. At a
K-means fixed point a few percent of the rows survive. KL and
Itakura-Saito have no such cheap bound and score the full matrix.
``c_lo_step`` leaves its arguments untouched; ``d_lo_step`` and
``min_d_lo_step`` leave all but ``divs``: KL and Itakura-Saito write their
move costs over it, the quadratic kinds +inf over each row's own-cluster
entry and then the kept rows' costs over its front rows, scored in blocks
of at most N entries so that the scratch stays that of (N,) arrays at
any share of kept rows. ``engine.run`` makes the move with ``ClusterStats.move`` and takes
the new centers from the stats, so each step gets ``divs`` computed at
exactly the ``centers`` it is given, and drops them after the step.
``d_lo_step`` and ``min_d_lo_step`` never empty a cluster: a singleton's
point sits on its optimal center, so moving it out cannot lower the loss.
A ``c_lo_step`` move that would empty one makes ``engine.run`` raise
EmptyClusterError. Variant "pnx" is ``d_lo_step`` run by ``engine.run``
without sweeps.
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


# Relative slack of the row screen: 16 units of rounding, u = 2**-53. A
# computed Hartigan factor fl(fl(W w) / fl(W + w)) is three roundings from
# f = w W / (W + w), and its product with D one more, so a computed cost's
# product is at least f D (1 - u)^3 / (1 + u). The screen's factor g takes
# the same three roundings, D2 (1 - margin) one (1 - margin is exact) and
# their product one, so its product is at most g D2 (1 - margin) (1 + u)^4
# / (1 - u). As g D2 <= f D, any margin above about 9 u keeps the screen's
# product at or below every computed cost's, and rounding is monotone, so
# subtracting the same source term keeps that order. This holds away from
# gradual underflow, which weights and divergences near 1e-300 would reach.
_SCREEN_MARGIN = 16 * 2.0**-53


def _hartigan(weight_sum, weights, divs, src, out=None, factor=None, grown=None):
    """Hartigan's move cost ``w W / (W + w) D - src``, the one evaluation
    order of the quadratic kinds: ``W w``, ``W + w``, their quotient, times
    ``D``, less ``src``. Arguments broadcast; ``out``, ``factor`` and
    ``grown`` are optional scratch of the result's shape."""
    factor = np.multiply(weight_sum, weights, out=factor)
    grown = np.add(weight_sum, weights, out=grown)
    np.divide(factor, grown, out=factor)
    out = np.multiply(factor, divs, out=out)
    return np.subtract(out, src, out=out)


def _source_terms(
    dataset: Dataset,
    labels: np.ndarray,
    stats: ClusterStats,
    centers: np.ndarray,
    spec: DivergenceSpec,
    divs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point: its divergence to its own center, whether its cluster has
    other members, and the source term ``src`` of its move costs.

    ``src`` is Hartigan's w W_a / (W_a - w) D_a, or the rank-one
    ``shift_cost(c_a, x, W_a, -w)``. A singleton source keeps w D_a, or 0
    with the rank-one formula skipped entirely, since its intermediate
    value could leave the divergence domain.
    """
    points = dataset.points
    weights = dataset.weights
    n = points.shape[0]
    weight_sum = stats.weight_sum

    own = divs[np.arange(n), labels]
    held = weight_sum[labels]
    remaining = held - weights
    multi = stats.member_count[labels] > 1
    if ((remaining <= 0.0) & multi).any():
        raise ArithmeticError("cluster weights inconsistent with member weights")
    if spec.quadratic:
        src = np.ones(n, dtype=np.float64)
        src[multi] = held[multi] / remaining[multi]
        src *= weights
        src *= own
    else:
        src = np.zeros(n, dtype=np.float64)
        if multi.any():
            idx = np.flatnonzero(multi)
            a = labels[idx]
            src[idx] = shift_cost(spec, centers[a], points[idx], weight_sum[a], -weights[idx])
    return own, multi, src


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
    (``_hartigan``) and ``(D_b - D_a) w - src - shift_cost(c_b, x, W_b,
    w)`` for KL and Itakura-Saito, evaluated in that order.
    """
    points = dataset.points
    weights = dataset.weights
    n = points.shape[0]
    own, _, src = _source_terms(dataset, labels, stats, centers, spec, divs)

    # Each column's cost overwrites its divergences, which nothing reads
    # after ``own`` above: the result is ``divs`` itself.
    factor = np.empty(n)  # W_b w / (W_b + w), for the quadratic kinds
    grown = np.empty(n)  # W_b + w
    # ufunc calls with ``out=``: at K = 16, N = 1000 the in-place operators'
    # dispatch would add a tenth to the call's time.
    for col, center, w_b in zip(divs.T, centers, stats.weight_sum):
        if spec.quadratic:
            _hartigan(w_b, weights, col, src, out=col, factor=factor, grown=grown)
        else:
            np.subtract(col, own, out=col)
            np.multiply(col, weights, out=col)
            np.subtract(col, src, out=col)
            np.subtract(col, shift_cost(spec, center, points, w_b, weights), out=col)

    divs[np.arange(n), labels] = np.inf
    return divs


def _move_costs_and_bar(
    dataset: Dataset,
    labels: np.ndarray,
    stats: ClusterStats,
    centers: np.ndarray,
    spec: DivergenceSpec,
    divs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """The rows that may hold an improving move, ascending, their move
    costs, and the gain a move must beat to be chosen.

    The bar is the rounding floor of the current loss, read off the
    divergence matrix before anything is written over it. Rows of
    singleton clusters never hold a move: emptying a cluster never lowers
    the loss (its optimal center is the point itself), so such a move
    could only be rounding noise. KL and Itakura-Saito return every row,
    the singletons' at +inf: the costs are ``move_cost_matrix``, written
    over ``divs``. The quadratic kinds return only the rows that pass a
    screen, each row of costs the bits of its row of ``move_cost_matrix``:
    Hartigan's factor w W_b / (W_b + w) grows with W_b and divergences are
    non-negative, so a row's costs are at least ``_hartigan`` of the
    smallest cluster weight at its smallest divergence to another center,
    that divergence shrunk by ``_SCREEN_MARGIN``, and a row where this
    bound does not beat the bar holds no move that does. ``divs`` gets +inf
    over each row's own-cluster entry, which the bound and the costs read
    as such, and the costs returned are its first rows, the i-th kept
    row's costs in row i.
    """
    rows = np.arange(dataset.n)
    if not spec.quadratic:
        loss = float(dataset.weights @ divs[rows, labels])
        delta = move_cost_matrix(dataset, labels, stats, centers, spec, divs)
        delta[stats.member_count[labels] == 1] = np.inf
        return rows, delta, rounding_floor(loss)
    weights = dataset.weights
    own, multi, src = _source_terms(dataset, labels, stats, centers, spec, divs)
    bar = rounding_floor(float(weights @ own))
    divs[rows, labels] = np.inf
    nearest = divs.min(axis=1)
    np.multiply(nearest, 1.0 - _SCREEN_MARGIN, out=nearest)
    bound = _hartigan(stats.weight_sum.min(), weights, nearest, src, out=nearest)
    rows = np.flatnonzero((bound < -bar) & multi)
    # The kept rows' costs go over the front rows of ``divs``, row i's at
    # position i: rows ascend, so no row is read after it is written over.
    # Blocks of at most N entries hold the scratch of N-long columns.
    height = max(1, dataset.n // divs.shape[1])
    for start in range(0, rows.size, height):
        part = rows[start : start + height]
        block = divs[part]
        _hartigan(stats.weight_sum, weights[part, None], block, src[part, None], out=block)
        divs[start : start + part.size] = block
    return rows, divs[: rows.size], bar


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
    Only the rows ``_move_costs_and_bar`` keeps are scored; ``divs`` is
    written over as it says.
    """
    rows, delta, bar = _move_costs_and_bar(dataset, labels, stats, centers, spec, divs)
    improving = delta < -bar
    gains = improving.any(axis=1)
    if not gains.any():
        return None
    row = int(np.argmax(gains))
    return int(rows[row]), int(np.argmax(improving[row]))


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
    loss. Only the rows ``_move_costs_and_bar`` keeps are scored, and
    ``divs`` is written over, as in ``d_lo_step``: every row it drops
    holds no move that clears the floor, so the best row is among those
    kept."""
    rows, delta, bar = _move_costs_and_bar(dataset, labels, stats, centers, spec, divs)
    if rows.size == 0:
        return None
    row = int(np.argmin(delta.min(axis=1)))
    dst = int(np.argmin(delta[row]))
    if not delta[row, dst] < -bar:
        return None
    return int(rows[row]), dst


def pnx_run(dataset: Dataset, config) -> "RunReport":
    """``engine.run`` with variant "pnx": ``d_lo_step`` without reassignment sweeps."""
    from .engine import run  # deferred: engine imports this module

    return run(dataset, replace(config, variant="pnx"))
