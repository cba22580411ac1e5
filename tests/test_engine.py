"""Engine behavior: seeding, assignment, repair, and full runs."""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import (
    ALL_KINDS,
    random_instance,
    reference_kmeanspp,
    reference_labels,
    spec_for,
    traced_peak,
)
from lokmeans import Dataset, DivergenceSpec, EngineConfig, engine, localopt, run
from lokmeans.data_io import synth_uniform_grid
from lokmeans.divergence import (
    DomainError,
    pairwise,
    phi_magnitude,
    point_terms,
    rowwise,
)
from lokmeans.engine import init_centers, repair_empty_clusters
from lokmeans.model import TIE_TOLERANCE, EmptyClusterError, cluster_stats, clustering_loss

SQE = DivergenceSpec.squared_euclidean()


def test_assign_step_counterexample_initial(counterexample):
    dataset, initial = counterexample
    labels = engine._assign_with_divergences(dataset, initial, SQE, 1e-9)[0]
    np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1])


def test_assign_tie_prefers_smallest_index(counterexample):
    dataset, _ = counterexample
    centers = np.array([[-2.0], [2.0]])
    labels = engine._assign_with_divergences(dataset, centers, SQE, 1e-9)[0]
    # The point at 0 is exactly 4 from both centers; index 0 wins.
    np.testing.assert_array_equal(labels, [0, 0, 0, 1, 1])


def test_assign_breaks_a_three_way_tie_to_the_smallest_index():
    # Integer points with mean 0, so every divergence is exact: (0, 0) is 4
    # from centers 1, 2 and 3, (0, -2) is 8 from centers 1 and 2, and
    # (-1, 0) is 1 from center 2, 5 from center 3 and 9 from center 1.
    points = [[0, 0], [0, -2], [0, 2], [8, 8], [-8, -8], [-1, 0], [1, 0]]
    dataset = Dataset(np.array(points, dtype=float), np.ones(7))
    centers = np.array([[8.0, 8.0], [2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]])
    labels, divs = engine._assign_with_divergences(dataset, centers, SQE, TIE_TOLERANCE)
    assert divs[0].tolist() == [128.0, 4.0, 4.0, 4.0]
    assert divs[1].tolist() == [164.0, 8.0, 8.0, 16.0]
    assert divs[5].tolist() == [145.0, 9.0, 1.0, 5.0]
    assert labels.dtype == np.int64
    assert labels.tolist() == [1, 1, 3, 0, 2, 2, 1]
    # A band of 4 (1 + dmin) holds centers 1-3 for (-1, 0) and (-8, -8):
    # the smallest index in it wins, not the nearest center.
    wide, _ = engine._assign_with_divergences(dataset, centers, SQE, 4.0)
    assert wide.tolist() == [1, 1, 3, 0, 1, 1, 1]
    for tol, got in ((TIE_TOLERANCE, labels), (4.0, wide)):
        assert got.tobytes() == reference_labels(divs, tol).tobytes()


def test_assign_gives_label_zero_to_a_row_with_no_center_in_its_band(monkeypatch):
    # A NaN divergence makes its row's minimum NaN, so no center of that row
    # is in the band; argmax over the band then gives 0.
    dataset = Dataset(np.array([[0.0], [1.0]]), np.ones(2))
    divs = np.array([[3.0, np.nan], [1.0, 0.5], [2.0, 0.25]]).T
    monkeypatch.setattr(engine, "pairwise", lambda *args, **kwargs: divs)
    labels, _ = engine._assign_with_divergences(dataset, np.zeros((3, 1)), SQE, TIE_TOLERANCE)
    assert labels.tolist() == [1, 0]
    assert labels.tobytes() == reference_labels(divs, TIE_TOLERANCE).tobytes()


def test_uniform_init_draws_distinct_data_points():
    rng = np.random.default_rng(20)
    dataset, k = random_instance(rng)
    centers = init_centers(dataset, k, "uniform", SQE, np.random.default_rng(0))
    assert centers.shape == (k, dataset.dim)
    assert np.unique(centers, axis=0).shape[0] == k
    rows = {row.tobytes() for row in dataset.points}
    assert all(center.tobytes() in rows for center in centers)


def test_uniform_init_with_k_equal_n_is_a_permutation():
    rng = np.random.default_rng(21)
    dataset, _ = random_instance(rng)
    centers = init_centers(dataset, dataset.n, "uniform", SQE, np.random.default_rng(1))
    got = sorted(row.tobytes() for row in centers)
    want = sorted(row.tobytes() for row in dataset.points)
    assert got == want


def test_init_is_deterministic_per_seed():
    rng = np.random.default_rng(22)
    dataset, k = random_instance(rng)
    for init in ("uniform", "kmeans++"):
        a = init_centers(dataset, k, init, SQE, np.random.default_rng(7))
        b = init_centers(dataset, k, init, SQE, np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


def test_kmeanspp_first_draw_follows_weights():
    points = np.array([[0.0], [10.0], [20.0]])
    weights = np.array([1.0, 1e6, 1.0])
    dataset = Dataset(points, weights)
    hits = sum(
        init_centers(dataset, 1, "kmeans++", SQE, np.random.default_rng(seed))[0, 0]
        == 10.0
        for seed in range(1000)
    )
    assert hits > 950


def test_kmeanspp_spreads_centers_across_far_groups():
    points = np.array([[0.0], [0.1], [100.0], [100.1]])
    dataset = Dataset(points, np.ones(4))
    crossings = 0
    for seed in range(200):
        centers = init_centers(dataset, 2, "kmeans++", SQE, np.random.default_rng(seed))
        sides = centers[:, 0] > 50.0
        crossings += sides[0] != sides[1]
    assert crossings >= 195


def test_kmeanspp_accepts_kl_divergence():
    rng = np.random.default_rng(23)
    dataset, k = random_instance(rng)
    spec = DivergenceSpec.kl()
    centers = init_centers(dataset, k, "kmeans++", spec, np.random.default_rng(2))
    rows = {row.tobytes() for row in dataset.points}
    assert all(center.tobytes() in rows for center in centers)


def test_kmeanspp_draws_without_replacement_up_to_k_equals_n():
    rng = np.random.default_rng(24)
    dataset, _ = random_instance(rng, n_range=(6, 12))
    for kind in ALL_KINDS:
        spec = spec_for(kind, rng, dataset.dim)
        for seed in range(20):
            centers = init_centers(dataset, dataset.n, "kmeans++", spec, np.random.default_rng(seed))
            assert np.unique(centers, axis=0).shape[0] == dataset.n, (kind, seed)


def _nextafter_pairs() -> Dataset:
    # 50 points and their one-ulp neighbours: 100 distinct rows whose pair
    # divergences round to zero, or just below it.
    base = np.random.default_rng(0).uniform(1.0, 2.0, size=(50, 2))
    return Dataset(np.vstack([base, np.nextafter(base, 3.0)]), np.ones(100))


@pytest.mark.parametrize("k", [3, 40])
def test_kmeanspp_survives_kl_divergences_rounded_below_zero(k):
    dataset = _nextafter_pairs()
    rows = {row.tobytes() for row in dataset.points}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        centers = init_centers(dataset, k, "kmeans++", DivergenceSpec.kl(), rng)
        assert np.unique(centers, axis=0).shape[0] == k
        assert all(center.tobytes() in rows for center in centers)


def test_kmeanspp_rejects_a_draw_with_no_positive_mass():
    # The squared differences of these points underflow to zero, so after
    # the first draw no remaining point carries mass.
    dataset = Dataset(np.array([[0.0], [1e-170], [2e-170], [3e-170]]), np.ones(4))
    config = EngineConfig(k=2, divergence=SQE, init="kmeans++")
    with pytest.raises(ValueError, match="no remaining point has a positive divergence"):
        run(dataset, config)


def _near_duplicates_far_out(spec) -> Dataset:
    # Points whose divergences to their neighbours are a few times what the
    # kernel rounds a point's divergence to itself to: for KL a grid of step
    # 0.01 at 1e5, for Mahalanobis two grids of step 3e-4 that lie 1e4 apart,
    # so every point is far from the mean the kernel shifts by.
    grid = synth_uniform_grid(30, 2, 0).points
    if spec.kind == "kl":
        return Dataset(grid * 0.01 + 1e5, np.ones(len(grid)))
    return Dataset(np.vstack([grid * 3e-4, grid * 3e-4 + 1e4]) + 1e5, np.ones(2 * len(grid)))


@pytest.mark.parametrize(
    "spec",
    [DivergenceSpec.kl(), DivergenceSpec.squared_mahalanobis(np.array([[2.0, 0.5], [0.5, 1.0]]))],
    ids=["kl", "mahalanobis"],
)
def test_kmeanspp_never_draws_a_point_twice_where_the_kernel_rounds_its_self_divergence_above_zero(spec):
    dataset = _near_duplicates_far_out(spec)
    terms = point_terms(spec, dataset.points)
    own = [pairwise(spec, terms.points, row[None], terms=terms)[i, 0] for i, row in enumerate(terms.points)]
    assert max(own) > 0.0
    for seed in range(10):
        centers = init_centers(dataset, dataset.n, "kmeans++", spec, np.random.default_rng(seed))
        assert np.unique(centers, axis=0).shape[0] == dataset.n, seed


@pytest.mark.parametrize("init", ["uniform", "kmeans++"])
@pytest.mark.parametrize("kind", [DivergenceSpec.kl, DivergenceSpec.itakura_saito])
def test_init_rejects_points_on_the_domain_boundary(kind, init):
    spec = kind()
    dataset = Dataset(np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 1.0]]), np.ones(3))
    with pytest.raises(DomainError, match=f"dataset outside the interior domain of {spec.kind}"):
        init_centers(dataset, 2, init, spec, np.random.default_rng(0))


def _seeding_instance(kind, offset, grid, seed, n, d):
    """N(0,1) points (exp-transformed for KL and Itakura-Saito) with weights
    1-3, or a ``synth_uniform_grid``, shifted by ``offset``."""
    rng = np.random.default_rng(seed)
    spec = spec_for(kind, rng, d)
    if grid:
        data = synth_uniform_grid(n, d, seed)
        points, weights = data.points, data.weights
    else:
        points = rng.standard_normal((n, d))
        points = points if spec.quadratic else np.exp(points)
        weights = rng.integers(1, 4, size=n).astype(np.float64)
    return Dataset(points + offset, weights), spec


def _or_none(draw):
    """``draw()``, or None when the seeding runs out of mass."""
    try:
        return draw()
    except ValueError:
        return None


def _first_parting_draw(dataset, k, spec, seed):
    """The index of the first center on which ``init_centers`` and the
    closed-form loop differ, or on which one of them runs out of mass;
    None when they agree on all k. Both draw from the same stream, so a
    seeding of m centers is the first m of a longer one."""

    def agree(m):
        got = _or_none(lambda: init_centers(dataset, m, "kmeans++", spec, np.random.default_rng(seed)))
        want = _or_none(lambda: reference_kmeanspp(dataset, m, spec, np.random.default_rng(seed)))
        return got is not None and want is not None and np.array_equal(got, want)

    if agree(k):
        return None
    return next(m - 1 for m in range(1, k + 1) if not agree(m))


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=200)
# Both kinds part at offset 1e4 as well: KL at its 24th draw, by 1.6e-11
# against a bound of 1.8e-10; Itakura-Saito at its 18th, by 2e-15 against 1.8e-14.
@example(seed=29, n=28, d=1, k=24, kind="kl", offset=1e4, grid=False)
@example(seed=5, n=28, d=1, k=24, kind="itakura-saito", offset=1e4, grid=False)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 200),
    d=st.integers(1, 4),
    k=st.integers(2, 32),
    kind=st.sampled_from(ALL_KINDS),
    offset=st.sampled_from((0.0, 1e4, 1e5)),
    grid=st.booleans(),
)
def test_kmeanspp_draws_the_centers_of_the_closed_form_loop(seed, n, d, k, kind, offset, grid):
    dataset, spec = _seeding_instance(kind, offset, grid, seed, n, d)
    k = min(k, dataset.n)
    terms = point_terms(spec, dataset.points)
    frame = Dataset(terms.points, dataset.weights)
    got = _or_none(lambda: init_centers(dataset, k, "kmeans++", spec, np.random.default_rng(seed)))
    again = _or_none(
        lambda: init_centers(frame, k, "kmeans++", spec, np.random.default_rng(seed), terms=terms)
    )
    assert (got is None) == (again is None)
    assert got is None or (got - terms.origin).tobytes() == again.tobytes()
    parted = _first_parting_draw(dataset, k, spec, seed)
    if parted is None:
        return
    # Far from the origin (offsets 1e4 and 1e5) the KL and Itakura-Saito
    # kernel keeps few digits of a divergence, so a draw may part there, but
    # only where the two forms' divergences to the shared chosen centers
    # differ by rounding: 8 d u times the size of the kernel's terms
    # (measured worst 1.7). The quadratic kinds never part.
    assert not spec.quadratic and offset in (1e4, 1e5), parted
    chosen = init_centers(dataset, parted, "kmeans++", spec, np.random.default_rng(seed))
    kernel = pairwise(spec, dataset.points, chosen).min(axis=1)
    closed = np.maximum(rowwise(spec, dataset.points[:, None, :], chosen[None]), 0.0).min(axis=1)
    bound = 8 * d * np.finfo(np.float64).eps * phi_magnitude(spec, dataset.points).max()
    assert np.abs(kernel - closed).max() <= bound


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=200)
# Ranks above 255 take the band's wider type; the draw alone might miss it.
@example(seed=3, n=400, d=1, k=300, kind="squared-euclidean", offset=1e5, grid=True, tol=TIE_TOLERANCE)
@example(seed=4, n=300, d=2, k=256, kind="kl", offset=0.0, grid=False, tol=0.0)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 400),
    d=st.integers(1, 3),
    k=st.integers(2, 300),
    kind=st.sampled_from(ALL_KINDS),
    offset=st.sampled_from((0.0, 1e4, 1e5)),
    grid=st.booleans(),
    tol=st.sampled_from((0.0, TIE_TOLERANCE, 1e-3)),
)
def test_sweep_labels_are_the_smallest_index_in_the_tie_band(seed, n, d, k, kind, offset, grid, tol):
    # Centers are drawn with replacement, so repeated centers tie exactly,
    # and tie-heavy grids tie most points to several centers.
    dataset, spec = _seeding_instance(kind, offset, grid, seed, n, d)
    centers = dataset.points[np.random.default_rng(seed).integers(0, dataset.n, size=k)]
    labels, divs = engine._assign_with_divergences(dataset, centers, spec, tol)
    assert labels.dtype == np.int64
    assert labels.tobytes() == reference_labels(divs, tol).tobytes()


def test_init_rejects_k_above_n():
    dataset = Dataset(np.array([[0.0], [1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="distinct centers"):
        init_centers(dataset, 3, "uniform", SQE, np.random.default_rng(0))


def test_repair_refills_empty_cluster_via_run():
    # Duplicate starting centers leave cluster 1 empty after the first
    # sweep; the repair donates the first strictly helpful point.
    dataset = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.ones(4))
    config = EngineConfig(
        k=2, divergence=SQE, variant="none", initial_centers=np.array([[5.0], [5.0]])
    )
    report = run(dataset, config)
    assert report.empty_cluster_repairs == 1
    assert report.termination == "converged"
    np.testing.assert_array_equal(report.final_labels, [1, 0, 0, 0])
    np.testing.assert_allclose(report.final_centers, [[2.0], [0.0]], atol=1e-12)
    assert report.final_loss == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(report.loss_trajectory, [2.0], atol=1e-12)


def test_repair_error_when_no_donor_exists():
    dataset = Dataset(np.array([[4.0]]), np.ones(1))
    labels = np.zeros(1, dtype=np.int64)
    stats = cluster_stats(dataset, labels, 2)
    centers = np.array([[4.0], [9.0]])
    with pytest.raises(RuntimeError, match="cannot be repaired"):
        repair_empty_clusters(dataset, labels, stats, centers)


def test_run_counterexample_baseline(counterexample):
    dataset, initial = counterexample
    config = EngineConfig(k=2, divergence=SQE, variant="none", initial_centers=initial)
    report = run(dataset, config)
    assert report.termination == "converged"
    assert report.iterations == 2
    assert report.new_step_invocations == 0
    assert report.empty_cluster_repairs == 0
    assert report.final_loss == pytest.approx(8.5, abs=1e-12)
    np.testing.assert_array_equal(report.final_labels, [0, 0, 0, 1, 1])
    np.testing.assert_allclose(report.final_centers, [[-2.0], [2.0]], atol=1e-12)
    np.testing.assert_allclose(report.loss_trajectory, [8.5], atol=1e-12)
    assert report.wall_time >= 0.0


@pytest.mark.parametrize("variant", ["c-lo", "d-lo", "min-d-lo", "pnx"])
def test_run_counterexample_escape(variant, counterexample):
    dataset, initial = counterexample
    config = EngineConfig(k=2, divergence=SQE, variant=variant, initial_centers=initial)
    report = run(dataset, config)
    assert report.termination == "converged"
    assert report.iterations == 3
    assert report.new_step_invocations == 1
    assert report.final_loss == pytest.approx(31.0 / 6.0, abs=1e-12)
    np.testing.assert_array_equal(report.final_labels, [0, 0, 1, 1, 1])
    np.testing.assert_allclose(report.final_centers, [[-3.0], [4.0 / 3.0]], atol=1e-12)
    np.testing.assert_allclose(report.loss_trajectory, [8.5, 31.0 / 6.0], atol=1e-12)


def test_run_ends_at_fixed_point_of_the_sweep():
    rng = np.random.default_rng(24)
    for trial in range(10):
        dataset, k = random_instance(rng)
        config = EngineConfig(k=k, divergence=SQE, variant="none", seed=trial)
        report = run(dataset, config)
        assert report.termination == "converged"
        again, _ = engine._assign_with_divergences(
            dataset, report.final_centers, SQE, config.tie_tolerance
        )
        np.testing.assert_array_equal(again, report.final_labels)
        np.testing.assert_allclose(
            cluster_stats(dataset, report.final_labels, k).centers(),
            report.final_centers,
            rtol=1e-12,
            atol=1e-12,
        )


@pytest.mark.parametrize("variant", ["none", "c-lo", "d-lo", "min-d-lo", "pnx"])
def test_run_trajectories_strictly_decrease(variant):
    rng = np.random.default_rng(25)
    for trial in range(10):
        dataset, k = random_instance(rng)
        config = EngineConfig(k=k, divergence=SQE, variant=variant, seed=trial)
        report = run(dataset, config)
        assert report.termination == "converged"
        diffs = np.diff(report.loss_trajectory)
        assert (diffs < 0).all()
        assert report.final_loss == report.loss_trajectory[-1]


def test_run_with_k_equal_n_reaches_zero_loss():
    rng = np.random.default_rng(26)
    dataset, _ = random_instance(rng)
    config = EngineConfig(k=dataset.n, divergence=SQE, variant="none", seed=0)
    report = run(dataset, config)
    assert report.termination == "converged"
    assert report.final_loss <= 1e-20


def test_run_is_bitwise_deterministic():
    rng = np.random.default_rng(27)
    dataset, k = random_instance(rng)
    for variant in ("none", "c-lo", "d-lo", "min-d-lo", "pnx"):
        config = EngineConfig(k=k, divergence=SQE, variant=variant, seed=5)
        first = run(dataset, config)
        second = run(dataset, config)
        np.testing.assert_array_equal(first.final_labels, second.final_labels)
        assert (first.final_centers == second.final_centers).all()
        assert (first.loss_trajectory == second.loss_trajectory).all()
        assert first.iterations == second.iterations
        assert first.new_step_invocations == second.new_step_invocations


def test_variants_share_initialization_per_seed():
    rng = np.random.default_rng(28)
    dataset, k = random_instance(rng)
    base = run(dataset, EngineConfig(k=k, divergence=SQE, variant="none", seed=9))
    esc = run(dataset, EngineConfig(k=k, divergence=SQE, variant="d-lo", seed=9))
    assert base.loss_trajectory[0] == esc.loss_trajectory[0]


@pytest.mark.parametrize("variant", ["none", "c-lo", "d-lo", "min-d-lo", "pnx"])
def test_run_iteration_cap(variant, counterexample):
    dataset, initial = counterexample
    config = EngineConfig(
        k=2, divergence=SQE, variant=variant, initial_centers=initial, max_iterations=1
    )
    report = run(dataset, config)
    assert report.termination == "iteration-cap"
    assert report.iterations == 1


def test_config_validation():
    with pytest.raises(ValueError, match="k must be"):
        EngineConfig(k=0, divergence=SQE)
    with pytest.raises(ValueError, match="unknown variant"):
        EngineConfig(k=2, divergence=SQE, variant="gradient")
    with pytest.raises(ValueError, match="unknown init"):
        EngineConfig(k=2, divergence=SQE, init="farthest")
    with pytest.raises(ValueError, match="max_iterations"):
        EngineConfig(k=2, divergence=SQE, max_iterations=0)
    with pytest.raises(ValueError, match="tolerances"):
        EngineConfig(k=2, divergence=SQE, tie_tolerance=-1e-9)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerances must be finite"):
            EngineConfig(k=2, divergence=SQE, tie_tolerance=bad)
    with pytest.raises(ValueError, match="initial_centers"):
        EngineConfig(k=2, divergence=SQE, initial_centers=np.zeros((3, 1)))


def test_escape_run_holds_the_frame_divergences_and_move_costs():
    # Figures for numpy 2.4 at (N, K, d) = (1000, 16, 8): the frame takes
    # 64 KB and the divergences, which the move costs are written over,
    # 128 KB. A d-lo run peaks at 280-290 KB on seeds 1-6, in ``pairwise``;
    # a sweep and stats pass with ufunc buffers took it to 311-322 KB, a
    # separate (N, K) move-cost matrix to 387-398 KB and a (K, N) scratch
    # for W + w besides to 517-528 KB.
    rng = np.random.default_rng(1)
    n, k, d = 1000, 16, 8
    dataset = Dataset(rng.normal(size=(n, d)), rng.integers(1, 4, size=n).astype(float))
    config = EngineConfig(k=k, divergence=SQE, init="kmeans++", variant="d-lo", seed=1)
    run(dataset, config)
    report, peak = traced_peak(run, dataset, config)
    assert report.new_step_invocations > 0
    assert peak <= 350_000, peak


def _traced_sweep(dataset, centers):
    """The sweep of ``run`` in the dataset's frame, and its tracemalloc peak."""
    terms = point_terms(SQE, dataset.points)
    frame = Dataset(terms.points, dataset.weights)
    centers = centers - terms.origin
    engine._assign_with_divergences(frame, centers, SQE, TIE_TOLERANCE, terms=terms)
    (labels, divs), peak = traced_peak(
        engine._assign_with_divergences, frame, centers, SQE, TIE_TOLERANCE, terms=terms
    )
    return labels, divs, peak


def test_sweep_holds_its_divergences_the_band_and_columns():
    # Figures for numpy 2.4 at (N, K, d) = (1000, 16, 8): the divergences
    # take 128 KB and the labels 8 KB. The sweep peaks 18 KB above them:
    # the 16 KB (K, N) band and a little. Broadcasts through numpy's
    # 64 KB iteration buffer, in ``pairwise``'s adds and the band's compare,
    # and argmax's transposed copy of the band took it 90 KB above.
    rng = np.random.default_rng(3)
    n, k, d = 1000, 16, 8
    dataset = Dataset(rng.normal(size=(n, d)), rng.integers(1, 4, size=n).astype(float))
    labels, divs, peak = _traced_sweep(dataset, dataset.points[:k])
    assert labels.tobytes() == reference_labels(divs, TIE_TOLERANCE).tobytes()
    assert peak <= divs.nbytes + labels.nbytes + 40_000, peak


def test_large_sweep_holds_its_output_the_band_and_columns():
    # Figures for numpy 2.4 at (N, K, d) = (20000, 64, 8), where ``pairwise``
    # needs no iteration buffer: the divergences take 10.24 MB, the labels
    # 0.16 MB and the band 1.28 MB. The sweep peaks at 11.70 MB; argmax's
    # transposed copy of the band took it to 12.96 MB.
    rng = np.random.default_rng(4)
    n, k, d = 20000, 64, 8
    dataset = Dataset(rng.normal(size=(n, d)), np.ones(n))
    labels, divs, peak = _traced_sweep(dataset, dataset.points[:k])
    assert peak <= divs.nbytes + labels.nbytes + n * k + 4 * 8 * n, peak


def test_run_input_validation(counterexample):
    dataset, _ = counterexample
    with pytest.raises(ValueError, match="exceeds"):
        run(dataset, EngineConfig(k=6, divergence=SQE))
    kl = DivergenceSpec.kl()
    with pytest.raises(DomainError):
        run(dataset, EngineConfig(k=2, divergence=kl))
    mah = DivergenceSpec.squared_mahalanobis(np.eye(3))
    with pytest.raises(ValueError, match="dimensional"):
        run(dataset, EngineConfig(k=2, divergence=mah))


def test_run_rejects_initial_centers_that_do_not_fit_the_dataset(counterexample):
    dataset, _ = counterexample
    with pytest.raises(ValueError, match="initial_centers are 3-dimensional"):
        run(dataset, EngineConfig(k=2, divergence=SQE, initial_centers=np.zeros((2, 3))))
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="initial_centers outside the interior domain"):
            run(dataset, EngineConfig(k=2, divergence=SQE, initial_centers=[[0.0], [bad]]))
    positive = Dataset(np.array([[1.0], [2.0], [4.0]]), np.ones(3))
    for spec in (DivergenceSpec.kl(), DivergenceSpec.itakura_saito()):
        for bad in (0.0, -1.0, np.nan):
            config = EngineConfig(k=2, divergence=spec, initial_centers=[[1.0], [bad]])
            with pytest.raises(DomainError, match="initial_centers"):
                run(positive, config)
    # Duplicate centers stay legal; the empty-cluster repair handles them.
    config = EngineConfig(k=2, divergence=DivergenceSpec.kl(), initial_centers=[[2.0], [2.0]])
    assert run(positive, config).termination == "converged"


def test_run_rejects_points_that_coincide_once_centered():
    # The quadratic kinds run in the frame of the point mean, where these
    # two distinct rows round to one; the run refuses them by name.
    points = np.array([[1e-20, 0.0], [2e-20, 0.0], [-1e5, 0.0], [-1e5, 1.0]])
    centered = points - points.mean(axis=0)
    assert (centered[0] == centered[1]).all()
    dataset = Dataset(points, np.ones(4))
    for spec in (SQE, DivergenceSpec.squared_mahalanobis(np.eye(2))):
        with pytest.raises(ValueError, match="two points coincide once their mean is subtracted"):
            run(dataset, EngineConfig(k=2, divergence=spec, variant="d-lo"))
    # The frame's other failure: a mean that overflows leaves no finite row.
    huge = Dataset(np.array([[1.5e308], [1.6e308]]), np.ones(2))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite values once"):
        run(huge, EngineConfig(k=1, divergence=SQE))


@pytest.mark.parametrize("variant", ["none", "d-lo", "pnx"])
def test_run_reaches_pairwise_and_cluster_stats_through_engine(variant, monkeypatch):
    # The traced benchmark wraps both at engine's bindings and reads the
    # points and centers from argument positions 1 and 2.
    seen = {"pairwise": [], "cluster_stats": []}

    def recorded(name):
        original = getattr(engine, name)

        def wrapper(*args, **kwargs):
            seen[name].append(args)
            return original(*args, **kwargs)

        return wrapper

    for name in seen:
        monkeypatch.setattr(engine, name, recorded(name))
    rng = np.random.default_rng(3)
    dataset = Dataset(rng.normal(size=(40, 2)), np.ones(40))
    report = run(dataset, EngineConfig(k=4, divergence=SQE, variant=variant, seed=1))
    assert len(seen["pairwise"]) == report.iterations
    # A sweep that changes no label (one per escape move, plus the last of
    # a converged run) keeps its stats; pnx sweeps once.
    converged = report.termination == "converged"
    fixed_sweeps = report.new_step_invocations + converged
    expected = 1 if variant == "pnx" else report.iterations - fixed_sweeps
    assert len(seen["cluster_stats"]) == expected
    # The point side is built once and reaches every call at position 1.
    points = seen["pairwise"][0][1]
    assert points.shape == (40, 2)
    for args in seen["pairwise"]:
        assert args[1] is points and args[2].shape == (4, 2)


def _escape_instances(count):
    """``count`` random instances per kind, large enough for escape moves."""
    rng = np.random.default_rng(31)
    for kind in ALL_KINDS:
        for seed in range(count):
            dataset, k = random_instance(rng, n_range=(40, 60), k_range=(4, 6), d_range=(2, 3))
            yield dataset, k, spec_for(kind, rng, dataset.dim), seed


@pytest.mark.parametrize("variant", engine.VARIANTS)
def test_final_loss_is_the_loss_of_the_final_centers(variant):
    # Every center is the mean of its current stats, so the reported loss
    # is the loss of the reported labels and centers, to the bit.
    for dataset, k, spec, seed in _escape_instances(8):
        report = run(dataset, EngineConfig(k=k, divergence=spec, variant=variant, seed=seed))
        loss = clustering_loss(dataset, report.final_labels, report.final_centers, spec)
        assert report.final_loss == loss


def _capture_point_terms(monkeypatch):
    """Wrap ``engine.point_terms``; the returned list gets each run's terms."""
    built = []

    def capture(spec, points):
        built.append(point_terms(spec, points))
        return built[-1]

    monkeypatch.setattr(engine, "point_terms", capture)
    return built


def test_every_step_gets_the_divergences_of_its_centers(monkeypatch):
    calls = []
    built = _capture_point_terms(monkeypatch)

    def checked(original):
        def wrapper(dataset, labels, stats, centers, spec, **kwargs):
            want = pairwise(spec, dataset.points, centers, terms=built[-1])
            calls.append(np.array_equal(kwargs["divs"], want))
            return original(dataset, labels, stats, centers, spec, **kwargs)

        return wrapper

    for name in ("c_lo_step", "d_lo_step", "min_d_lo_step"):
        monkeypatch.setattr(localopt, name, checked(getattr(localopt, name)))
    for dataset, k, spec, seed in _escape_instances(4):
        for variant in engine.VARIANTS[1:]:
            run(dataset, EngineConfig(k=k, divergence=spec, variant=variant, seed=seed))
    assert len(calls) > 100 and all(calls)


def test_runs_never_read_the_divergences_an_escape_step_consumed(monkeypatch):
    # d_lo_step and min_d_lo_step write their move costs over the run's
    # divergences. Filling those with NaN once a step returns must leave
    # every run the same, to the bit.
    cases = [
        (dataset, EngineConfig(k=k, divergence=spec, variant=variant, seed=seed))
        for dataset, k, spec, seed in _escape_instances(4)
        for variant in engine.VARIANTS
    ]
    want = [run(dataset, config) for dataset, config in cases]
    poisoned = []

    def poisoning(original):
        def wrapper(*args, **kwargs):
            move = original(*args, **kwargs)
            kwargs["divs"].fill(np.nan)
            poisoned.append(move)
            return move

        return wrapper

    for name in ("d_lo_step", "min_d_lo_step"):
        monkeypatch.setattr(localopt, name, poisoning(getattr(localopt, name)))
    got = [run(dataset, config) for dataset, config in cases]
    assert sum(move is not None for move in poisoned) > 50
    for old, new in zip(want, got):
        for name in ("final_labels", "final_centers", "loss_trajectory"):
            assert getattr(old, name).tobytes() == getattr(new, name).tobytes(), name
        for name in ("iterations", "new_step_invocations", "empty_cluster_repairs", "termination"):
            assert getattr(old, name) == getattr(new, name), name


def test_a_run_holds_one_copy_of_its_frame(monkeypatch):
    # The escape steps see the frame point_terms built, and for squared
    # Euclidean that frame is also the GEMM operand: one (N, d) array.
    built = _capture_point_terms(monkeypatch)
    seen = []

    def wrapper(dataset, *args, **kwargs):
        seen.append(dataset)
        return None

    monkeypatch.setattr(localopt, "d_lo_step", wrapper)
    for dataset, k, spec, seed in _escape_instances(1):
        shifted = Dataset(dataset.points + 1e4 * spec.quadratic, dataset.weights)
        run(shifted, EngineConfig(k=k, divergence=spec, variant="d-lo", seed=seed))
        terms, frame = built[-1], seen[-1]
        assert terms.points is frame.points, spec.kind
        assert spec.kind != SQE.kind or terms.operand is frame.points
    assert len(built) == len(seen) == len(ALL_KINDS)


def test_init_refuses_terms_of_another_point_set_or_divergence():
    rng = np.random.default_rng(5)
    dataset = Dataset(rng.normal(size=(20, 2)) + 10.0, np.ones(20))
    terms = point_terms(SQE, dataset.points)
    frame = Dataset(terms.points, dataset.weights)
    mahalanobis = DivergenceSpec.squared_mahalanobis(np.eye(2))
    for points, spec, other in (
        (dataset, SQE, terms),  # the caller's points, not their frame
        (frame, mahalanobis, terms),
        (frame, SQE, point_terms(SQE, frame.points)),
    ):
        with pytest.raises(ValueError, match="point terms were computed for another"):
            init_centers(points, 3, "kmeans++", spec, np.random.default_rng(0), terms=other)
    init_centers(frame, 3, "kmeans++", SQE, np.random.default_rng(0), terms=terms)


def test_a_move_that_empties_a_cluster_raises(monkeypatch):
    # Three points, three singletons: a step that moves one out empties it.
    dataset = Dataset(np.array([[0.0], [1.0], [10.0]]), np.ones(3))
    monkeypatch.setattr(localopt, "d_lo_step", lambda *args, **kwargs: (1, 2))
    config = EngineConfig(k=3, divergence=SQE, variant="d-lo", initial_centers=dataset.points)
    with pytest.raises(EmptyClusterError, match="cluster 1 is empty"):
        run(dataset, config)


def test_itakura_saito_far_from_the_origin_converges_without_a_tie_band():
    # The default band ties every center when divergences are ~1e-9 and the
    # sweeps cycle to the iteration cap; a zero band converges.
    grid = synth_uniform_grid(20, 1, 0)
    dataset = Dataset(grid.points + 1e5, grid.weights)
    for variant in engine.VARIANTS:
        config = EngineConfig(
            k=2,
            divergence=DivergenceSpec.itakura_saito(),
            variant=variant,
            max_iterations=2000,
            tie_tolerance=0.0,
        )
        report = run(dataset, config)
        assert report.termination == "converged"
        assert report.iterations <= 5
        assert np.all(np.diff(report.loss_trajectory) < 0)
        assert report.final_loss == pytest.approx(2.0426e-9, rel=1e-4)
