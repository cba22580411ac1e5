"""Engine behavior: seeding, assignment, repair, and full runs."""

import numpy as np
import pytest

from conftest import ALL_KINDS, random_instance, spec_for
from lokmeans import Dataset, DivergenceSpec, EngineConfig, engine, run
from lokmeans.divergence import DomainError
from lokmeans.engine import init_centers, repair_empty_clusters
from lokmeans.model import cluster_stats

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


def test_assign_ignores_non_finite_centers(counterexample):
    dataset, _ = counterexample
    centers = np.array([[np.nan], [2.0]])
    labels = engine._assign_with_divergences(dataset, centers, SQE, 1e-9)[0]
    np.testing.assert_array_equal(labels, np.ones(5))


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
    # Itakura-Saito gives every neighbour zero divergence to its partner, so
    # after 50 draws no remaining point carries mass.
    dataset = _nextafter_pairs()
    config = EngineConfig(k=51, divergence=DivergenceSpec.itakura_saito(), init="kmeans++")
    with pytest.raises(ValueError, match="no remaining point has a positive divergence"):
        run(dataset, config)


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
    assert len(seen["cluster_stats"]) == (1 if variant == "pnx" else report.iterations)
    for args in seen["pairwise"]:
        assert args[1] is dataset.points and args[2].shape == (4, 2)
