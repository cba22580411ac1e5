"""The clustering engine: seeding, assignment sweeps, and the outer loop.

``run`` is plain weighted K-means when ``variant`` is "none". The other
variants behave identically until the assignment stops changing, then
invoke an escape step at the fixed point:

* c-lo      break one cross-cluster nearest-center tie
* d-lo      first single-point move that strictly lowers the loss
* min-d-lo  best single-point move
* pnx       d-lo without sweeps: after the first assignment, single-point
            moves only (Hartigan's method)

The steps in ``localopt`` only choose a move; ``run`` makes it in one
place, with ``ClusterStats.move`` and the label write. Every center ``run``
holds is ``ClusterStats.centers()`` of its current stats (or the initial
centers), so a step always gets the divergences of the centers it is
given. Every run is a deterministic function of (dataset, config).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import localopt
from .divergence import (
    DivergenceSpec,
    DomainError,
    PointTerms,
    check_domain,
    pairwise,
    point_terms,
)
from .model import (
    TIE_TOLERANCE,
    ClusterStats,
    Dataset,
    check_tolerance,
    cluster_stats,
    unchecked_clustering_loss,
    within_tie_band,
)

VARIANTS = ("none", "c-lo", "d-lo", "min-d-lo", "pnx")
INITS = ("uniform", "kmeans++")

TERMINATION_CONVERGED = "converged"
TERMINATION_ITERATION_CAP = "iteration-cap"


@dataclass
class EngineConfig:
    k: int
    divergence: DivergenceSpec
    variant: str = "none"
    init: str = "uniform"
    seed: int = 0
    max_iterations: int = 10000
    tie_tolerance: float = TIE_TOLERANCE
    initial_centers: np.ndarray | None = None  # overrides sampled seeding

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.init not in INITS:
            raise ValueError(f"unknown init {self.init!r}; expected one of {INITS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        check_tolerance("tie_tolerance", self.tie_tolerance)
        if self.initial_centers is not None:
            centers = np.asarray(self.initial_centers, dtype=np.float64)
            if centers.ndim != 2 or centers.shape[0] != self.k:
                raise ValueError(f"initial_centers must have shape ({self.k}, d)")
            self.initial_centers = centers


@dataclass
class RunReport:
    """Everything observable about one run.

    ``iterations`` counts passes of the outer loop for every variant,
    including the final pass that certifies nothing improves (a converged
    ``pnx`` run takes its moves + 2); ``max_iterations`` caps it.
    ``new_step_invocations`` counts escape steps that changed the assignment.
    """

    final_labels: np.ndarray
    final_centers: np.ndarray
    final_loss: float
    loss_trajectory: np.ndarray
    iterations: int
    new_step_invocations: int
    empty_cluster_repairs: int
    wall_time: float
    termination: str


def validate_run_inputs(dataset: Dataset, config: EngineConfig) -> None:
    if config.k > dataset.n:
        raise ValueError(
            f"k = {config.k} exceeds the {dataset.n} distinct points in the dataset"
        )
    try:
        check_domain(config.divergence, dataset.points, "dataset", require_interior=True)
    except DomainError as exc:
        raise DomainError(f"{exc}; filter or preprocess it first") from None
    centers = config.initial_centers
    if centers is not None:
        if centers.shape[1] != dataset.dim:
            raise ValueError(
                f"initial_centers are {centers.shape[1]}-dimensional,"
                f" dataset is {dataset.dim}-dimensional"
            )
        check_domain(config.divergence, centers, "initial_centers", require_interior=True)


def init_centers(
    dataset: Dataset,
    k: int,
    init: str,
    spec: DivergenceSpec,
    rng: np.random.Generator,
    *,
    terms: PointTerms | None = None,
) -> np.ndarray:
    """Sample k distinct data points as starting centers.

    "uniform" ignores weights. "kmeans++" draws the first center with
    probability proportional to weight, then each next one proportional to
    weight times divergence to the nearest chosen center. Each chosen
    point's column of divergences is one ``pairwise`` call on
    ``terms.points``, and its own mass is set to zero, so the draw is
    without replacement whatever the kernel rounds a self-divergence to.
    ``terms`` default to ``point_terms(spec, dataset.points)``; given, they
    must be the frame ``dataset`` is in, as in ``run``. Raises DomainError
    when the points leave the interior of the divergence's domain, and
    ValueError on another point set's or divergence's ``terms`` or when
    every remaining point's divergence to the chosen centers is zero.
    """
    if k > dataset.n:
        raise ValueError(f"cannot choose {k} distinct centers from {dataset.n} points")
    check_domain(spec, dataset.points, "dataset", require_interior=True)
    if init == "uniform":
        chosen = rng.choice(dataset.n, size=k, replace=False)
        return dataset.points[chosen]
    if init != "kmeans++":
        raise ValueError(f"unknown init {init!r}")
    weights = dataset.weights
    if terms is None:
        terms = point_terms(spec, dataset.points)
    elif terms.spec is not spec or terms.points is not dataset.points:
        raise ValueError("point terms were computed for another divergence or point set")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.choice(dataset.n, p=weights / weights.sum())
    nearest = np.full(dataset.n, np.inf)
    for j in range(1, k):
        last = chosen[j - 1]
        column = pairwise(spec, terms.points, terms.points[last : last + 1], terms=terms)[:, 0]
        np.minimum(nearest, column, out=nearest)
        nearest[last] = 0.0  # the kernel may round its self-divergence above 0
        mass = weights * nearest
        total = mass.sum()
        if total <= 0.0:
            raise ValueError(
                f"kmeans++ cannot choose center {j + 1} of {k}: no remaining point has "
                "a positive divergence to the chosen centers"
            )
        chosen[j] = rng.choice(dataset.n, p=mass / total)
    return dataset.points[chosen]


def _assign_with_divergences(
    dataset: Dataset,
    centers: np.ndarray,
    spec: DivergenceSpec,
    tie_tolerance: float,
    *,
    terms: PointTerms | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center labels (smallest index within the tie band) and the divergences."""
    divs = pairwise(spec, dataset.points, centers, terms=terms)
    labels = np.argmax(within_tie_band(divs, tie_tolerance), axis=1).astype(np.int64)
    return labels, divs


def repair_empty_clusters(
    dataset: Dataset,
    labels: np.ndarray,
    stats: ClusterStats,
    centers: np.ndarray,
) -> int:
    """Refill each empty cluster with a point whose move strictly helps.

    For each empty cluster (ascending) the first point g, in index order,
    whose source cluster keeps positive weight (s_b > w_g) and which does
    not sit exactly on its current center (x_g != c_b) is moved in. Both
    conditions together guarantee a strict loss decrease once centers are
    recomputed. Deterministic; consumes no randomness. Mutates labels and
    stats; centers are the caller's current ones and are left untouched.
    """
    repaired = 0
    for empty in np.flatnonzero(stats.member_count == 0):
        moved = False
        for g in range(dataset.n):
            source = int(labels[g])
            if stats.weight_sum[source] > dataset.weights[g] and np.any(
                dataset.points[g] != centers[source]
            ):
                stats.move(dataset, g, source, int(empty))
                labels[g] = empty
                repaired += 1
                moved = True
                break
        if not moved:
            raise RuntimeError(
                f"cluster {int(empty)} cannot be repaired; dataset has too few points for k"
            )
    return repaired


def run(dataset: Dataset, config: EngineConfig) -> RunReport:
    """Cluster ``dataset`` per ``config`` and report the full run.

    Outer loop per iteration: assignment sweep and, when it changes the
    labels, fresh cluster statistics, empty-cluster repair and their
    weighted means as centers. When the assignment stops changing, the
    variant's escape step chooses a move, which is made here: the stats
    shift the point and the centers are recomputed from them. The loop ends
    when the step finds none (or at once for variant "none"). "pnx" sweeps
    in the first iteration only. A move that empties a cluster raises
    EmptyClusterError; ``d-lo``, ``min-d-lo`` and ``pnx`` never choose one.
    The loss trajectory records one value per iteration and is strictly
    decreasing: an iteration that changes nothing ends the run instead.

    Every decision is made in the dataset's mean-shift frame, which
    ``point_terms`` builds once per run with the point side of ``pairwise``
    that every call shares; for squared Euclidean the frame's points are
    also that side's GEMM operand. Initial centers enter the frame,
    reported centers and trajectory losses leave it, and points that
    coincide in it raise ValueError. ``cluster_stats`` forms
    the weighted points on each call, so no (d, N) copy is held through the
    escape steps. Only a fixed point's escape step reads a sweep's (N, K)
    divergences. ``d_lo_step`` and ``min_d_lo_step`` write over them: KL
    and Itakura-Saito their move costs, the quadratic kinds +inf at each
    point's own cluster and then the costs of the points their screen
    keeps, scored in blocks of at most N entries. So an escape step holds
    one (N, K) array and scratch of N-long arrays. A sweep that changes
    the labels frees them before the stats pass, and every iteration frees
    them, read or consumed, before the loss pass. That pass checks the
    centers' domain and then takes ``unchecked_clustering_loss``: the
    labels are the run's own.
    """
    validate_run_inputs(dataset, config)
    start = time.perf_counter()
    spec = config.divergence
    terms = point_terms(spec, dataset.points)
    points, origin = terms.points, terms.origin
    frame = dataset
    if points is not dataset.points:
        try:
            frame = Dataset(points, dataset.weights)
        except ValueError as exc:  # the caller's shape and weights: rows are non-finite or repeat
            what = "two points coincide" if np.isfinite(points).all() else str(exc)
            raise ValueError(f"{what} once their mean is subtracted; {spec.kind} runs in that frame") from None
    rng = np.random.default_rng(config.seed)
    if config.initial_centers is not None:
        centers = config.initial_centers - origin
    else:
        centers = init_centers(frame, config.k, config.init, spec, rng, terms=terms)

    # Built per run from localopt's attributes, so that a wrapper set there
    # (the traced benchmark sets one) sees every step.
    step = {
        "none": None,
        "c-lo": partial(localopt.c_lo_step, tie_tolerance=config.tie_tolerance),
        "d-lo": localopt.d_lo_step,
        "min-d-lo": localopt.min_d_lo_step,
        "pnx": localopt.d_lo_step,
    }[config.variant]
    sweeps = config.variant != "pnx"
    labels: np.ndarray | None = None
    trajectory: list[float] = []
    iterations = 0
    invocations = 0
    repairs = 0
    termination = TERMINATION_ITERATION_CAP

    while iterations < config.max_iterations:
        iterations += 1
        if labels is None or sweeps:
            fresh, divs = _assign_with_divergences(
                frame, centers, spec, config.tie_tolerance, terms=terms
            )
            # Unchanged labels leave no cluster empty: stats and centers stand.
            fixed = labels is not None and np.array_equal(fresh, labels)
            if not fixed:
                divs = None
                stats = cluster_stats(frame, fresh, config.k)
                repairs += repair_empty_clusters(frame, fresh, stats, centers)
                centers = stats.centers()
            labels = fresh
        else:
            fixed = True
            divs = pairwise(spec, frame.points, centers, terms=terms)
        if fixed:
            move = None if step is None else step(frame, labels, stats, centers, spec, divs=divs)
            if move is None:
                termination = TERMINATION_CONVERGED
                break
            point, dst = move
            stats.move(frame, point, int(labels[point]), dst)
            labels[point] = dst
            centers = stats.centers()
            invocations += 1
        # Free the (N, K) divergences before the loss pass: the frame costs an (N, d) copy.
        divs = None
        reported = centers + origin
        check_domain(spec, reported, "centers", require_interior=True)
        trajectory.append(unchecked_clustering_loss(dataset, labels, reported, spec))
        del reported  # not held through the next sweep, where a run peaks

    return RunReport(
        final_labels=labels,
        final_centers=centers + origin,
        final_loss=trajectory[-1],
        loss_trajectory=np.asarray(trajectory),
        iterations=iterations,
        new_step_invocations=invocations,
        empty_cluster_repairs=repairs,
        wall_time=time.perf_counter() - start,
        termination=termination,
    )
