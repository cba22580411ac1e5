"""Certificates and brute-force enumeration as independent oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    ALL_KINDS,
    adjacent_assignments,
    exact_sqe_loss,
    exhaustive_d_local,
    labels_with_singletons,
    random_instance,
    reference_adjacent_deltas,
    reference_loss_at_optimal_centers,
    spec_for,
    traced_peak,
)
from lokmeans import (
    Dataset,
    DivergenceSpec,
    EngineConfig,
    brute_force_best,
    certify_c_local,
    certify_d_local,
    run,
    verify,
)
from lokmeans.data_io import synth_uniform_grid
from lokmeans.divergence import ITAKURA_SAITO, KL, SQUARED_MAHALANOBIS, mean_shift, pairwise
from lokmeans.engine import init_centers
from lokmeans.localopt import c_lo_step, move_cost_matrix
from lokmeans.model import EmptyClusterError, cluster_stats, rounding_floor
from lokmeans.verify import (
    MoveDelta,
    _adjacent_deltas,
    _losses_at_optimal_centers,
    adjacent_delta_bound,
    loss_at_optimal_centers,
)

SQE = DivergenceSpec.squared_euclidean()
KMEANS_LABELS = np.array([0, 0, 0, 1, 1])
ESCAPED_LABELS = np.array([0, 0, 1, 1, 1])


def test_loss_at_optimal_centers_tolerates_empty_clusters(counterexample):
    dataset, _ = counterexample
    full = loss_at_optimal_centers(dataset, KMEANS_LABELS, 2, SQE)
    assert full == pytest.approx(8.5, abs=1e-12)
    collapsed = loss_at_optimal_centers(dataset, np.zeros(5, dtype=np.int64), 2, SQE)
    spread = dataset.points[:, 0] - dataset.points[:, 0].mean()
    assert collapsed == pytest.approx(float(spread @ spread), abs=1e-12)


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    seed=st.integers(0, 10_000),
    kind=st.sampled_from(ALL_KINDS),
    offset=st.sampled_from((0.0, 1e5)),
    n=st.integers(1, 30),
    d=st.integers(1, 24),
    k=st.integers(1, 8),
    b=st.integers(1, 40),
)
def test_batched_losses_score_every_row_as_one_labeling_alone(seed, kind, offset, n, d, k, b):
    # Every row of a batch, and the one-row call, must round exactly as
    # the per-labeling formula does. Every other row leaves cluster k - 1
    # empty, and short rows of many clusters leave others empty too.
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.5, 5.0, size=(n, d)) + offset
    dataset = Dataset(points, rng.uniform(0.5, 3.0, size=n))
    spec = spec_for(kind, rng, d)
    labelings = rng.integers(0, k, size=(b, n))
    labelings[::2] %= max(1, k - 1)
    expected = [reference_loss_at_optimal_centers(dataset, row, k, spec) for row in labelings]
    batched = _losses_at_optimal_centers(dataset, labelings, k, spec)
    assert batched.tobytes() == np.array(expected).tobytes()
    single = [loss_at_optimal_centers(dataset, row, k, spec) for row in labelings]
    assert np.array(single).tobytes() == np.array(expected).tobytes()


def test_certify_d_local_flags_the_frozen_witness(counterexample):
    dataset, _ = counterexample
    cert = certify_d_local(dataset, KMEANS_LABELS, 2, SQE)
    assert cert.kind == "not-local"
    assert cert.witness is not None
    assert (cert.witness.point, cert.witness.from_cluster, cert.witness.to_cluster) == (
        2,
        0,
        1,
    )
    assert cert.witness.delta == pytest.approx(-10.0 / 3.0, abs=1e-9)
    assert cert.worst_delta == pytest.approx(-10.0 / 3.0, abs=1e-9)


def test_certify_d_local_accepts_the_escaped_state(counterexample):
    dataset, _ = counterexample
    cert = certify_d_local(dataset, ESCAPED_LABELS, 2, SQE)
    assert cert.kind == "d-local"
    assert cert.witness is None
    # The cheapest adjacent assignment is the reverse move, back up by 10/3.
    assert cert.worst_delta == pytest.approx(10.0 / 3.0, abs=1e-9)


def test_certify_d_local_rejects_empty_clusters(counterexample):
    dataset, _ = counterexample
    with pytest.raises(EmptyClusterError):
        certify_d_local(dataset, np.zeros(5, dtype=np.int64), 2, SQE)


def test_certify_c_local_flags_the_frozen_tie(counterexample):
    dataset, _ = counterexample
    centers = cluster_stats(dataset, KMEANS_LABELS, 2).centers()
    cert = certify_c_local(dataset, KMEANS_LABELS, centers, SQE)
    assert cert.kind == "not-local"
    assert cert.tie_count == 1
    assert (cert.witness.point, cert.witness.from_cluster, cert.witness.to_cluster) == (
        2,
        0,
        1,
    )
    assert cert.witness.delta == pytest.approx(-10.0 / 3.0, abs=1e-9)


def test_certify_c_local_accepts_the_escaped_state(counterexample):
    dataset, _ = counterexample
    centers = cluster_stats(dataset, ESCAPED_LABELS, 2).centers()
    cert = certify_c_local(dataset, ESCAPED_LABELS, centers, SQE)
    assert cert.kind == "c-local"
    assert cert.tie_count == 0
    assert cert.witness is None


def test_certificates_raise_on_an_empty_cluster():
    # Neither criterion applies without k non-empty clusters; both
    # certificates raise what ClusterStats.centers() and engine.run raise.
    dataset = Dataset(np.array([[0.0], [1.0]]), np.ones(2))
    labels = np.zeros(2, dtype=np.int64)
    with pytest.raises(EmptyClusterError, match="cluster 1 is empty"):
        certify_c_local(dataset, labels, np.array([[0.5], [9.0]]), SQE)
    with pytest.raises(EmptyClusterError, match="cluster 1 is empty"):
        certify_d_local(dataset, labels, 2, SQE)


def test_certify_c_local_tie_witness_says_it_empties_a_singleton():
    # A wide tie band ties point 0, alone in cluster 0, to center 1: the
    # witness is c_lo_step's move, and it empties its source cluster.
    dataset = Dataset(np.array([[0.0], [3.0], [4.0], [5.0]]), np.ones(4))
    labels = np.array([0, 1, 1, 1])
    stats = cluster_stats(dataset, labels, 2)
    centers = stats.centers()
    np.testing.assert_array_equal(centers, [[0.0], [4.0]])
    divs = pairwise(SQE, dataset.points, centers)
    assert c_lo_step(dataset, labels, stats, centers, SQE, 100.0, divs) == (0, 1)
    cert = certify_c_local(dataset, labels, centers, SQE, tie_tolerance=100.0)
    assert cert.kind == "not-local"
    assert cert.witness == MoveDelta(0, 0, 1, cert.worst_delta, True)
    assert cert.worst_delta == pytest.approx(12.0)


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(5, 30),
    k=st.integers(2, 9),
    singletons=st.integers(0, 8),
    kind=st.sampled_from(ALL_KINDS),
    offset=st.sampled_from((0.0, 1e4)),
)
def test_every_witness_says_whether_it_empties_its_source(seed, n, k, singletons, kind, offset):
    # Itakura-Saito far from the origin ties a singleton's point to other
    # centers in the absolute part of the tie band, so c-local witnesses
    # move singletons there as d-local ones do elsewhere.
    rng = np.random.default_rng(seed)
    k = min(k, n)
    d = 1 + seed % 2
    points = np.exp(rng.normal(size=(n, d))) + offset
    dataset = Dataset(points, rng.integers(1, 4, size=n).astype(float))
    spec = spec_for(kind, rng, d)
    labelings = [
        run(dataset, EngineConfig(k=k, divergence=spec, seed=seed, max_iterations=50)).final_labels,
        labels_with_singletons(rng, n, k, min(singletons, k - 1)),
    ]
    for labels in labelings:
        stats = cluster_stats(dataset, labels, k)
        for cert in (
            certify_c_local(dataset, labels, stats.centers(), spec),
            certify_d_local(dataset, labels, k, spec),
        ):
            move = cert.witness
            if move is not None:
                assert move.from_cluster == labels[move.point] != move.to_cluster
                assert move.source_empties == (stats.member_count[move.from_cluster] == 1)


def test_certify_c_local_rejects_stale_centers(counterexample):
    dataset, initial = counterexample
    with pytest.raises(ValueError, match="not optimal"):
        certify_c_local(dataset, KMEANS_LABELS, initial, SQE)


@pytest.mark.parametrize("name", ["tie_tolerance"])
def test_certify_c_local_rejects_non_finite_tolerances(name, counterexample):
    dataset, _ = counterexample
    centers = cluster_stats(dataset, ESCAPED_LABELS, 2).centers()
    for bad in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match=f"finite and non-negative, got {name}"):
            certify_c_local(dataset, ESCAPED_LABELS, centers, SQE, **{name: bad})


def test_certify_c_local_flags_duplicate_centers():
    dataset = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.ones(4))
    labels = np.array([1, 0, 0, 1])
    centers = cluster_stats(dataset, labels, 2).centers()
    np.testing.assert_allclose(centers, [[1.5], [1.5]])
    cert = certify_c_local(dataset, labels, centers, SQE)
    assert cert.kind == "not-local"
    assert "share a center" in cert.note
    # Two shared centers, 0 = 3 and 1 = 2: the first pair a < b in
    # row-major order is reported, not the first by b.
    points = np.array([[0.0], [4.0], [10.0], [14.0], [11.0], [13.0], [1.0], [3.0]])
    dataset = Dataset(points, np.ones(8))
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    centers = cluster_stats(dataset, labels, 4).centers()
    np.testing.assert_array_equal(centers, [[2.0], [12.0], [12.0], [2.0]])
    cert = certify_c_local(dataset, labels, centers, SQE)
    assert cert.note == "clusters 0 and 3 share a center; criterion inapplicable"


def test_certify_c_local_checks_duplicate_centers_in_center_scratch():
    # Figures for numpy 2.4 at (N, K, d) = (256, 128, 32): comparing each
    # center with the later ones, the call peaks at 0.64 MB, in its (N, K)
    # divergences; a (K, K, d) broadcast of all center differences, 4.2 MB
    # an array, peaked at 8.5 MB.
    rng = np.random.default_rng(11)
    n, k, d = 256, 128, 32
    dataset = Dataset(rng.normal(size=(n, d)), np.ones(n))
    labels = np.arange(n) % k
    centers = cluster_stats(dataset, labels, k).centers()
    certify_c_local(dataset, labels, centers, SQE)
    peak = traced_peak(certify_c_local, dataset, labels, centers, SQE)[1]
    assert peak <= 1_000_000, peak


def test_certify_c_local_rejects_centers_of_another_dimension():
    dataset = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 1.0]]), np.ones(3))
    with pytest.raises(ValueError, match=r"centers shape \(2, 3\) does not match dimension 2"):
        certify_c_local(dataset, np.array([0, 1, 1]), np.zeros((2, 3)), SQE)


def test_certify_c_local_flags_misassigned_point(counterexample):
    dataset, _ = counterexample
    labels = np.array([0, 1, 0, 1, 1])
    centers = cluster_stats(dataset, labels, 2).centers()
    cert = certify_c_local(dataset, labels, centers, SQE)
    assert cert.kind == "not-local"
    assert cert.note == "assignment is not a fixed point"
    assert cert.witness.point == 1
    assert cert.witness.to_cluster == 0
    assert cert.witness.delta < 0.0


def test_certificates_on_single_cluster():
    dataset = Dataset(np.array([[0.0], [1.0], [5.0]]), np.ones(3))
    labels = np.zeros(3, dtype=np.int64)
    centers = cluster_stats(dataset, labels, 1).centers()
    assert certify_c_local(dataset, labels, centers, SQE).kind == "c-local"
    assert certify_d_local(dataset, labels, 1, SQE).kind == "d-local"


def test_certify_d_local_agrees_with_move_cost_matrix():
    # Exhaustive recomputation and the rank-one closed form are independent
    # paths to the same minimum adjacent delta.
    rng = np.random.default_rng(30)
    for trial in range(12):
        dataset, k = random_instance(rng, n_range=(5, 9), k_range=(2, 3))
        spec = spec_for(ALL_KINDS[trial % 4], rng, dataset.dim)
        report = run(dataset, EngineConfig(k=k, divergence=spec, seed=trial))
        labels = report.final_labels
        stats = cluster_stats(dataset, labels, k)
        centers = stats.centers()
        divs = pairwise(spec, dataset.points, centers)
        matrix = move_cost_matrix(dataset, labels, stats, centers, spec, divs)
        cert = certify_d_local(dataset, labels, k, spec)
        closed = float(matrix.min())
        scale = max(1.0, abs(closed), abs(cert.worst_delta))
        assert abs(closed - cert.worst_delta) <= 1e-9 * scale


def test_certify_d_local_refuses_rounding_only_witness():
    # Replicate 0 of the dominance criterion's protocol: d-lo ends where the
    # recomputed loss difference of its best move is -3.6e-15. Exact
    # arithmetic shows that no move gains anything, so that move is no
    # witness and the state is d-local.
    dataset = synth_uniform_grid(50, 2, seed=600)
    centers = init_centers(dataset, 15, "uniform", SQE, np.random.default_rng(0))
    config = EngineConfig(k=15, divergence=SQE, variant="d-lo", initial_centers=centers)
    labels = run(dataset, config).final_labels
    cert = certify_d_local(dataset, labels, 15, SQE)
    assert cert.kind == "d-local"
    assert cert.witness is None
    loss = loss_at_optimal_centers(dataset, labels, 15, SQE)
    assert -rounding_floor(loss) < cert.worst_delta < 0.0
    base = exact_sqe_loss(dataset, labels)
    gains = [exact_sqe_loss(dataset, trial) - base for trial in adjacent_assignments(labels, 15)]
    assert min(gains) == 0


def test_fast_adjacent_deltas_lie_within_the_stated_bound():
    # Every Bregman-information delta against the recomputed difference,
    # at engine fixed points and at random labelings, for all four kinds.
    rng = np.random.default_rng(41)
    for trial in range(24):
        dataset, k = random_instance(rng, n_range=(6, 14), k_range=(2, 4))
        spec = spec_for(ALL_KINDS[trial % 4], rng, dataset.dim)
        if trial % 8 in (4, 5):
            # Quadratic kinds far from the origin: the mean shift's case.
            dataset = Dataset(dataset.points + 1e5, dataset.weights)
        if trial % 2:
            labels = rng.permutation(np.arange(dataset.n) % k)
        else:
            labels = run(dataset, EngineConfig(k=k, divergence=spec, seed=trial)).final_labels
        base = loss_at_optimal_centers(dataset, labels, k, spec)
        frame = mean_shift(spec, dataset.points)[0]
        stats = cluster_stats(dataset, labels, k)
        fast = _adjacent_deltas(dataset, labels, stats, spec, frame=frame)
        bound = adjacent_delta_bound(dataset, spec, base, frame=frame)
        for trial_labels in adjacent_assignments(labels, k):
            point = int(np.flatnonzero(trial_labels != labels)[0])
            recomputed = loss_at_optimal_centers(dataset, trial_labels, k, spec) - base
            assert abs(fast[point, trial_labels[point]] - recomputed) <= bound
        assert np.isinf(fast[np.arange(dataset.n), labels]).all()


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 90),
    d=st.integers(1, 16),
    k=st.integers(1, 12),
    singletons=st.integers(0, 11),
    kind=st.sampled_from(ALL_KINDS),
    offset=st.sampled_from((0.0, 1e4)),
)
def test_adjacent_deltas_are_the_bits_of_the_broadcast_form(seed, n, d, k, singletons, kind, offset):
    # One destination center at a time gives each entry the same
    # element-wise expression as the (N, K, d) broadcast. d stays at most
    # 16: Mahalanobis phi forms ``x @ A`` by GEMM, and from d = 17 on
    # OpenBLAS 0.3.31 (Haswell kernels) rounds some rows by the number of
    # rows in the call, which differs between the two forms.
    rng = np.random.default_rng(seed)
    k = min(k, n)
    points = rng.normal(size=(n, d))
    if kind in (KL, ITAKURA_SAITO):
        points = np.exp(points)
    dataset = Dataset(points + offset, rng.integers(1, 4, size=n).astype(float))
    spec = spec_for(kind, rng, d)
    labels = labels_with_singletons(rng, n, k, min(singletons, k - 1))
    stats = cluster_stats(dataset, labels, k)
    want = reference_adjacent_deltas(dataset, labels, stats, spec)
    got = _adjacent_deltas(dataset, labels, stats, spec, frame=mean_shift(spec, dataset.points)[0])
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_certify_d_local_holds_its_deltas_and_column_scratch(kind):
    # Figures for numpy 2.4 at (N, K, d) = (1000, 16, 8): the (N, K)
    # deltas take 128 KB and an (N, d) array 64 KB. Scoring one destination
    # center at a time into one (N, d) buffer, and taking the smallest
    # finite delta without a copy, peaks at 445-510 KB; fresh post-move
    # means per center and an (N, K) copy peaked at 486-550 KB, and the
    # (rows, K, d) blocks before them at 2.5-3.7 MB.
    rng = np.random.default_rng(5)
    n, k, d = 1000, 16, 8
    points = rng.normal(size=(n, d))
    if kind in (KL, ITAKURA_SAITO):
        points = np.exp(points)
    dataset = Dataset(points, rng.integers(1, 4, size=n).astype(float))
    spec = spec_for(kind, rng, d)
    labels = np.arange(n) % k
    certify_d_local(dataset, labels, k, spec)
    peak = traced_peak(certify_d_local, dataset, labels, k, spec)[1]
    assert peak <= 8 * n * k + 6 * dataset.points.nbytes, peak


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_certify_d_local_builds_one_mean_shift_frame(kind, monkeypatch):
    # The deltas and their bound read the points in one frame, which each
    # call builds once.
    rng = np.random.default_rng(8)
    dataset, k = random_instance(rng, n_range=(30, 40), k_range=(3, 4))
    if kind not in (KL, ITAKURA_SAITO):
        dataset = Dataset(dataset.points + 1e4, dataset.weights)
    spec = spec_for(kind, rng, dataset.dim)
    labels = np.arange(dataset.n) % k
    want = certify_d_local(dataset, labels, k, spec)
    calls = []

    def counted(*args):
        calls.append(args)
        return mean_shift(*args)

    monkeypatch.setattr(verify, "mean_shift", counted)
    assert certify_d_local(dataset, labels, k, spec) == want
    assert len(calls) == 1


def test_certify_d_local_rechecks_moves_the_fast_form_ranks_apart():
    # Two moves tie at a gain of -5/6; the fast form rounds one lowest, the
    # recomputed losses the other. Rechecking every move near the fast
    # minimum still reports the smallest recomputed delta.
    dataset = synth_uniform_grid(13, 2, 255)
    labels = run(dataset, EngineConfig(k=6, divergence=SQE, seed=255)).final_labels
    stats = cluster_stats(dataset, labels, 6)
    fast = _adjacent_deltas(dataset, labels, stats, SQE, frame=mean_shift(SQE, dataset.points)[0])
    point, dst = np.unravel_index(np.argmin(fast), fast.shape)
    trial = labels.copy()
    trial[point] = dst
    base = loss_at_optimal_centers(dataset, labels, 6, SQE)
    oracle = exhaustive_d_local(dataset, labels, 6, SQE)
    assert loss_at_optimal_centers(dataset, trial, 6, SQE) - base > oracle.worst_delta
    assert certify_d_local(dataset, labels, 6, SQE) == oracle


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(8, 60),
    d=st.sampled_from((1, 2)),
    k=st.integers(2, 9),
    case=st.sampled_from(("sqe", "sqe+1e5", SQUARED_MAHALANOBIS, KL, ITAKURA_SAITO)),
)
def test_certify_d_local_agrees_with_exhaustive_on_tie_heavy_grids(seed, n, d, k, case):
    # Integer grids are full of exact ties and zero-gain moves. On a plain
    # K-means fixed point, a d-lo result and a random labeling, the fast
    # certificate must match recomputing all n(k-1) moves; where the two
    # disagree on squared Euclidean, exact rationals decide.
    dataset = synth_uniform_grid(n, d, seed)
    if case == "sqe+1e5":
        dataset = Dataset(dataset.points + 1e5, dataset.weights)
    k = min(k, dataset.n)
    rng = np.random.default_rng(seed)
    spec = SQE if case.startswith("sqe") else spec_for(case, rng, d)
    labelings = [
        run(dataset, EngineConfig(k=k, divergence=spec, variant=variant, seed=seed)).final_labels
        for variant in ("none", "d-lo")
    ]
    labelings.append(rng.permutation(np.arange(dataset.n) % k))
    for labels in labelings:
        fast = certify_d_local(dataset, labels, k, spec)
        slow = exhaustive_d_local(dataset, labels, k, spec)
        if fast.kind != slow.kind:
            assert case.startswith("sqe")
            base = exact_sqe_loss(dataset, labels)
            gain = min(exact_sqe_loss(dataset, t) - base for t in adjacent_assignments(labels, k))
            loss = loss_at_optimal_centers(dataset, labels, k, spec)
            floor = rounding_floor(loss)
            assert fast.kind == ("not-local" if gain < -floor else "d-local")
            continue
        assert fast.worst_delta == slow.worst_delta
        assert fast.witness == slow.witness


def test_brute_force_counterexample_optimum(counterexample):
    dataset, _ = counterexample
    labels, loss = brute_force_best(dataset, 2, SQE)
    assert loss == pytest.approx(31.0 / 6.0, abs=1e-9)
    np.testing.assert_array_equal(labels, ESCAPED_LABELS)


def test_brute_force_with_k_equal_n_is_zero():
    dataset = Dataset(np.array([[0.0], [1.0], [2.0]]), np.ones(3))
    labels, loss = brute_force_best(dataset, 3, SQE)
    assert loss == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_array_equal(labels, [0, 1, 2])


def test_brute_force_single_cluster():
    dataset = Dataset(np.array([[0.0], [1.0], [5.0]]), np.ones(3))
    labels, loss = brute_force_best(dataset, 1, SQE)
    np.testing.assert_array_equal(labels, [0, 0, 0])
    assert loss == pytest.approx(loss_at_optimal_centers(dataset, labels, 1, SQE))


def test_brute_force_loss_is_the_exact_loss_of_its_labels():
    rng = np.random.default_rng(47)
    for trial in range(24):
        dataset, k = random_instance(rng, n_range=(4, 8), k_range=(2, 3))
        if trial % 3 == 0:
            dataset = Dataset(dataset.points + 1e5, dataset.weights)
        spec = spec_for(ALL_KINDS[trial % 4], rng, dataset.dim)
        labels, loss = brute_force_best(dataset, k, spec)
        assert loss == loss_at_optimal_centers(dataset, labels, k, spec)


def _first_least_of_every_labeling(dataset, k, spec):
    """Every labeling with no empty cluster, in lexicographic order, scored
    in one batch: the first one of least loss, and its loss."""
    labelings = np.array(list(itertools.product(range(k), repeat=dataset.n)))
    labelings = labelings[[np.unique(row).size == k for row in labelings]]
    losses = _losses_at_optimal_centers(dataset, labelings, k, spec)
    pick = int(np.argmin(losses))
    return labelings[pick], losses[pick]


def test_brute_force_is_the_first_least_of_every_labeling():
    # Scoring each partition once, in its labeling by first appearance,
    # gives the labels and loss bits of scanning every labeling. Integer
    # grids hold exact ties between partitions of equal loss.
    rng = np.random.default_rng(53)
    for trial in range(24):
        kind = ALL_KINDS[trial % 4]
        if trial % 2:
            dataset = synth_uniform_grid(int(rng.integers(5, 12)), int(rng.integers(1, 3)), trial)
            k = int(rng.integers(1, min(3, dataset.n) + 1))
        else:
            dataset, k = random_instance(rng, n_range=(4, 7), k_range=(1, 3))
        spec = spec_for(kind, rng, dataset.dim)
        labels, loss = brute_force_best(dataset, k, spec)
        want_labels, want_loss = _first_least_of_every_labeling(dataset, k, spec)
        np.testing.assert_array_equal(labels, want_labels)
        assert loss == want_loss


def test_brute_force_scores_each_partition_once(monkeypatch):
    # 966 partitions of 8 points into 3 nonempty clusters, each labeled
    # 3! = 6 ways.
    dataset = Dataset(np.random.default_rng(59).normal(size=(8, 2)), np.ones(8))
    scored = []

    def counted(dataset, labelings, k, spec):
        scored.extend(map(tuple, labelings))
        return _losses_at_optimal_centers(dataset, labelings, k, spec)

    monkeypatch.setattr(verify, "_losses_at_optimal_centers", counted)
    brute_force_best(dataset, 3, SQE)
    assert len(scored) == len(set(scored)) == 966
    assert all(row[0] == 0 for row in scored)


def test_brute_force_holds_one_chunk_of_labelings():
    # Figures for numpy 2.4: at n = 8, k = 3 the call peaks at 176 KB,
    # forming only the labelings whose first label is 0; all k**n of them,
    # 512 at a time, peaked at 303 KB.
    dataset = Dataset(np.random.default_rng(59).normal(size=(8, 2)), np.ones(8))
    brute_force_best(dataset, 3, SQE)
    peak = traced_peak(brute_force_best, dataset, 3, SQE)[1]
    assert peak <= 200_000, peak


def test_brute_force_respects_enumeration_limit():
    points = np.arange(24, dtype=np.float64)[:, None]
    dataset = Dataset(points, np.ones(24))
    with pytest.raises(ValueError, match="enumeration limit"):
        brute_force_best(dataset, 2, SQE)


@pytest.mark.parametrize("k", [0, 4])
def test_brute_force_needs_one_to_n_clusters(k):
    # No partition of 3 points into 0 or 4 nonempty clusters exists.
    dataset = Dataset(np.array([[0.0], [1.0], [2.0]]), np.ones(3))
    with pytest.raises(ValueError, match=f"got k = {k}, n = 3"):
        brute_force_best(dataset, k, SQE)


def test_brute_force_lower_bounds_engine_runs():
    rng = np.random.default_rng(31)
    for trial in range(8):
        dataset, k = random_instance(rng, n_range=(5, 7), k_range=(2, 3))
        spec = spec_for(ALL_KINDS[trial % 4], rng, dataset.dim)
        _, best = brute_force_best(dataset, k, spec)
        for variant in ("none", "d-lo", "min-d-lo", "pnx"):
            report = run(
                dataset, EngineConfig(k=k, divergence=spec, variant=variant, seed=trial)
            )
            assert best <= report.final_loss + 1e-9