"""Shared fixtures and instance generators for the test suite."""

import csv
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lokmeans import Dataset, DivergenceSpec
from lokmeans.divergence import (
    ITAKURA_SAITO,
    KL,
    SQUARED_EUCLIDEAN,
    SQUARED_MAHALANOBIS,
    mean_shift,
    phi,
    rowwise,
)
from lokmeans.data_io import CsvFormatError, RawTable, counterexample_instance
from lokmeans.localopt import move_cost_matrix, shift_cost
from lokmeans.model import (
    EmptyClusterError,
    cluster_stats,
    rounding_floor,
    row_keys,
    weighted_sums,
    within_tie_band,
)
from lokmeans.verify import D_LOCAL, NOT_LOCAL, Certificate, MoveDelta, loss_at_optimal_centers

DATA_DIR = Path(__file__).parent / "data"
IRIS_PATH = DATA_DIR / "iris.csv"


def random_instance(rng, n_range=(4, 12), k_range=(2, 4), d_range=(1, 3)):
    """Draw a random weighted instance with strictly positive coordinates.

    Positivity keeps every point inside the domain of all four divergences,
    so the same instance can be reused across divergence kinds.  Returns
    ``(dataset, k)``.
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    d = int(rng.integers(d_range[0], d_range[1] + 1))
    k = int(rng.integers(k_range[0], min(k_range[1], n) + 1))
    while True:
        points = rng.uniform(0.5, 5.0, size=(n, d))
        if np.unique(points, axis=0).shape[0] == n:
            break
    weights = rng.uniform(0.5, 3.0, size=n)
    return Dataset(points, weights), k


def reference_loss_at_optimal_centers(dataset, labels, k, spec):
    """``loss_at_optimal_centers`` of one labeling, as it was computed
    before it scored batches: the batched form must match it bit for bit."""
    stats = cluster_stats(dataset, labels, k)
    occupied = stats.member_count > 0
    centers = np.zeros_like(stats.coord_sum)
    centers[occupied] = stats.coord_sum[occupied] / stats.weight_sum[occupied, None]
    per_point = rowwise(spec, dataset.points, centers[labels])
    return float(per_point @ dataset.weights)


def delta_move(dataset, labels, stats, centers, spec, point, src, dst, alpha=1.0):
    """Closed-form loss change for moving weight ``alpha * w`` of one point.

    The scalar reference for ``move_cost_matrix``: the rank-one form of
    ``localopt``, one move at a time. ``centers`` must be optimal for the
    current assignment. ``alpha`` in (0, 1] covers the continuous
    relaxation; alpha = 1 is the hard move.
    """
    if src == dst:
        raise ValueError("source and destination clusters must differ")
    if labels[point] != src:
        raise ValueError(f"point {point} is assigned to cluster {labels[point]}, not {src}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    x = dataset.points[point]
    w = dataset.weights[point]
    moved = alpha * w
    delta = moved * (rowwise(spec, x, centers[dst]) - rowwise(spec, x, centers[src]))

    source_empties = bool(alpha == 1.0 and stats.member_count[src] == 1)
    if not source_empties and moved > 0.0:
        delta -= shift_cost(spec, centers[src], x, stats.weight_sum[src], -moved)
    if moved > 0.0:
        delta -= shift_cost(spec, centers[dst], x, stats.weight_sum[dst], moved)
    return MoveDelta(int(point), int(src), int(dst), float(delta), source_empties)


def reference_quadratic_move_costs(dataset, labels, stats, divs):
    """``move_cost_matrix`` for squared Euclidean and Mahalanobis as a plain
    broadcast of Hartigan's form, with three fresh (K, N) temporaries: the
    bounded scratch of ``move_cost_matrix`` must give the same bits."""
    weights = dataset.weights
    rows = np.arange(dataset.n)
    own = divs[rows, labels]
    remaining = stats.weight_sum[labels] - weights
    multi = stats.member_count[labels] > 1
    src_scale = np.ones(dataset.n, dtype=np.float64)
    src_scale[multi] = stats.weight_sum[labels][multi] / remaining[multi]
    delta = (stats.weight_sum[:, None] * weights[None, :]) / (
        stats.weight_sum[:, None] + weights[None, :]
    )
    delta = delta.T
    delta *= divs
    delta -= (weights * src_scale * own)[:, None]
    delta[rows, labels] = np.inf
    return delta


def reference_bregman_move_costs(dataset, labels, stats, centers, spec, divs):
    """``move_cost_matrix`` for KL and Itakura-Saito with the destination
    term as one (K, N, d) broadcast of ``shift_cost``: the loop over
    destination centers of ``move_cost_matrix`` must give the same bits."""
    points, weights = dataset.points, dataset.weights
    rows = np.arange(dataset.n)
    own = divs[rows, labels]
    idx = np.flatnonzero(stats.member_count[labels] > 1)
    src = labels[idx]
    delta = weights[:, None] * (divs - own[:, None])
    src_term = np.zeros(dataset.n, dtype=np.float64)
    src_term[idx] = shift_cost(spec, centers[src], points[idx], stats.weight_sum[src], -weights[idx])
    delta -= src_term[:, None]
    delta -= shift_cost(
        spec, centers[:, None, :], points[None, :, :], stats.weight_sum[:, None], weights[None, :]
    ).T
    delta[rows, labels] = np.inf
    return delta


def reference_labels(divs, tie_tolerance):
    """The smallest index in each row's tie band, as an argmax over the
    band: ``engine._assign_with_divergences`` must give these labels bit
    for bit."""
    return np.argmax(within_tie_band(divs, tie_tolerance), axis=1)


def reference_escape_moves(dataset, labels, stats, centers, spec, divs):
    """What ``d_lo_step`` and ``min_d_lo_step`` chose when they scored
    every row: the full ``move_cost_matrix`` with singleton rows at +inf,
    the rounding floor of the loss, the first improving move in point-major
    order and the move of smallest cost (or None where it does not clear
    the floor). ``divs`` is left as it is. The screened steps must choose
    the same moves."""
    bar = rounding_floor(float(dataset.weights @ divs[np.arange(dataset.n), labels]))
    delta = move_cost_matrix(dataset, labels, stats, centers, spec, np.copy(divs))
    delta[stats.member_count[labels] == 1] = np.inf
    improving = delta < -bar
    gains = improving.any(axis=1)
    first = None
    if gains.any():
        point = int(np.argmax(gains))
        first = (point, int(np.argmax(improving[point])))
    point = int(np.argmin(delta.min(axis=1)))
    dst = int(np.argmin(delta[point]))
    best = (point, dst) if delta[point, dst] < -bar else None
    return delta, bar, first, best


def reference_adjacent_deltas(dataset, labels, stats, spec):
    """``verify._adjacent_deltas`` with every destination's post-move mean
    in one (N, K, d) broadcast: the loop over destination centers must give
    the same bits."""
    x, w = mean_shift(spec, dataset.points)[0], dataset.weights
    totals = stats.weight_sum
    sums = weighted_sums(x, w, labels, stats.k)
    held = totals * phi(spec, sums / totals[:, None])
    source = held[labels]
    multi = np.flatnonzero(stats.member_count[labels] > 1)
    left = totals[labels[multi]] - w[multi]
    moved_out = (sums[labels[multi]] - w[multi, None] * x[multi]) / left[:, None]
    source[multi] -= left * phi(spec, moved_out)
    grown = totals + w[:, None]
    moved_in = (sums + w[:, None, None] * x[:, None, :]) / grown[:, :, None]
    delta = source[:, None] + held - grown * phi(spec, moved_in)
    delta[np.arange(dataset.n), labels] = np.inf
    return delta


def labels_with_singletons(rng, n, k, singletons):
    """A random labeling of n points that uses all k clusters, the first
    ``singletons`` of them (at most k - 1) with one point each."""
    labels = np.concatenate([rng.permutation(k), rng.integers(singletons, k, size=n - k)])
    return labels[rng.permutation(n)]


def reference_kmeanspp(dataset, k, spec, rng):
    """kmeans++ with each chosen point's divergences from the closed form
    ``rowwise``, as ``engine.init_centers`` drew it before it used the
    ``pairwise`` kernel: the two must draw the same centers."""
    weights = dataset.weights
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.choice(dataset.n, p=weights / weights.sum())
    nearest = rowwise(spec, dataset.points, dataset.points[chosen[0]])
    for j in range(1, k):
        mass = weights * np.maximum(nearest, 0.0)
        total = mass.sum()
        if total <= 0.0:
            raise ValueError(f"no positive mass for center {j + 1} of {k}")
        chosen[j] = rng.choice(dataset.n, p=mass / total)
        nearest = np.minimum(nearest, rowwise(spec, dataset.points, dataset.points[chosen[j]]))
    return dataset.points[chosen].copy()


def exact_sqe_loss(dataset, labels):
    """Squared Euclidean loss at the optimal centers, in exact rationals.

    Every float is a rational number, so this oracle settles the sign of a
    loss difference that floating point can only round. Empty clusters
    contribute nothing.
    """
    clusters = {}
    for x, w, label in zip(dataset.points, dataset.weights, labels):
        clusters.setdefault(int(label), []).append(([Fraction(v) for v in x], Fraction(w)))
    total = Fraction(0)
    for members in clusters.values():
        mass = sum(w for _, w in members)
        center = [sum(w * x[j] for x, w in members) / mass for j in range(dataset.dim)]
        for x, w in members:
            total += w * sum((xj - cj) ** 2 for xj, cj in zip(x, center))
    return total


def adjacent_assignments(labels, k):
    """All labelings that differ from ``labels`` in exactly one point, point-major."""
    labels = np.asarray(labels)
    for point in range(labels.shape[0]):
        for dst in range(k):
            if dst != labels[point]:
                moved = labels.copy()
                moved[point] = dst
                yield moved


def exhaustive_d_local(dataset, labels, k, spec):
    """``certify_d_local`` by recomputing F for all n(k-1) adjacent labelings.

    The O(N^2 K d) reference the fast certificate must agree with: the
    smallest recomputed difference, its first move in point-major order,
    and a witness only below minus the rounding floor.
    """
    labels = np.asarray(labels, dtype=np.int64)
    stats = cluster_stats(dataset, labels, k)
    empty = np.flatnonzero(stats.member_count == 0)
    if empty.size:
        raise EmptyClusterError(int(empty[0]))
    base = loss_at_optimal_centers(dataset, labels, k, spec)
    worst = np.inf
    worst_move = None
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
    if worst >= -rounding_floor(base):
        return Certificate(D_LOCAL, None, float(worst), 0)
    point, src, dst = worst_move
    witness = MoveDelta(point, src, dst, float(worst), bool(stats.member_count[src] == 1))
    return Certificate(NOT_LOCAL, witness, float(worst), 0)


def reference_load_csv(path, skip_header=False, weight_column=None):
    """``load_csv`` converting and checking one cell at a time.

    The reference the row-at-a-time parser must match: the same
    ``RawTable`` bit for bit, or the same error message. A bad cell
    reports its file row and column, ahead of its row's column count, and
    a bad weight reports its file row.
    """
    records, file_rows = [], []
    with open(path, newline="", encoding="utf-8") as handle:
        for row_index, row in enumerate(csv.reader(handle), start=1):
            if skip_header and row_index == 1:
                continue
            if not row:
                continue
            values = []
            for col_index, cell in enumerate(row, start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise CsvFormatError(
                        f"{path}: row {row_index}, column {col_index}: not a number: {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise CsvFormatError(
                        f"{path}: row {row_index}, column {col_index}: non-finite value"
                    )
                values.append(value)
            if records and len(values) != len(records[0]):
                raise CsvFormatError(
                    f"{path}: row {row_index}: expected {len(records[0])} columns, got {len(values)}"
                )
            records.append(values)
            file_rows.append(row_index)
    if not records:
        raise CsvFormatError(f"{path}: no data rows")

    table = np.asarray(records, dtype=np.float64)
    if weight_column is None:
        return RawTable(table, None)
    if not 0 <= weight_column < table.shape[1]:
        raise CsvFormatError(
            f"{path}: weight column {weight_column} out of range for {table.shape[1]} columns"
        )
    weights = table[:, weight_column]
    for weight, file_row in zip(weights, file_rows):
        if weight <= 0.0:
            raise CsvFormatError(f"{path}: row {file_row}: weight must be positive")
    rows = np.delete(table, weight_column, axis=1)
    if rows.shape[1] == 0:
        raise CsvFormatError(f"{path}: no coordinate columns besides the weight column")
    return RawTable(rows, weights)


def reference_dedup_merge(raw):
    """``dedup_merge`` with one dict lookup and one running sum per row.

    The reference the vectorised merge must match bit for bit: the same
    rows in first-seen order, ``-0.0`` read as ``+0.0``, and each weight
    the left-to-right sum of its rows' weights.
    """
    keys = row_keys(raw.rows)
    rows = keys.view(np.float64).reshape(np.shape(raw.rows))
    weights = (
        np.ones(rows.shape[0], dtype=np.float64)
        if raw.weights is None
        else np.asarray(raw.weights, dtype=np.float64)
    )
    index = {}
    unique_rows = []
    merged = []
    for row, key, weight in zip(rows, keys, weights):
        key = key.tobytes()
        slot = index.get(key)
        if slot is None:
            index[key] = len(unique_rows)
            unique_rows.append(row)
            merged.append(float(weight))
        else:
            merged[slot] += float(weight)
    return Dataset(np.asarray(unique_rows), np.asarray(merged))


def reference_rows_distinct(points):
    """Whether the rows of ``points`` are pairwise distinct in value.

    The reference for ``Dataset``'s distinctness check: ``np.unique`` over
    rows compares coordinates as numbers, so ``-0.0`` equals ``+0.0``.
    """
    return np.unique(points, axis=0).shape[0] == points.shape[0]


def reference_mahalanobis_phi(matrix, x):
    """x^T A x over the last axis as one three-operand ``einsum``: the form
    ``divergence.phi`` used before it took ``x @ A`` first. The two differ
    only by rounding."""
    return np.einsum("...i,ij,...j->...", x, matrix, x)


def random_spd(rng, d):
    """A random symmetric positive definite matrix of order d."""
    basis = rng.normal(size=(d, d))
    return basis @ basis.T + d * np.eye(d)


def spec_for(kind, rng, d):
    if kind == SQUARED_MAHALANOBIS:
        return DivergenceSpec.squared_mahalanobis(random_spd(rng, d))
    return DivergenceSpec(kind)


ALL_KINDS = (SQUARED_EUCLIDEAN, SQUARED_MAHALANOBIS, KL, ITAKURA_SAITO)


@pytest.fixture()
def counterexample():
    return counterexample_instance()


@pytest.fixture(scope="session")
def iris_csv():
    """Materialize the Iris measurements as a local CSV once per session.

    The file is written from scikit-learn's bundled copy when it is not
    already present; tests that need it are skipped when neither source is
    available.
    """
    if IRIS_PATH.exists():
        return IRIS_PATH
    datasets = pytest.importorskip(
        "sklearn.datasets", reason="iris.csv is absent and scikit-learn is unavailable"
    )
    DATA_DIR.mkdir(exist_ok=True)
    np.savetxt(IRIS_PATH, datasets.load_iris().data, delimiter=",", fmt="%.1f")
    return IRIS_PATH
