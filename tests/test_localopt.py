"""Move costs, escape steps, and the single-move local search."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    ALL_KINDS,
    delta_move,
    exact_sqe_loss,
    labels_with_singletons,
    random_instance,
    random_spd,
    reference_bregman_move_costs,
    reference_escape_moves,
    reference_quadratic_move_costs,
    spec_for,
)
from lokmeans import (
    Dataset,
    DivergenceSpec,
    EngineConfig,
    certify_c_local,
    certify_d_local,
    run,
)
from lokmeans.data_io import synth_uniform_grid
from lokmeans.divergence import (
    ITAKURA_SAITO,
    KL,
    SQUARED_EUCLIDEAN,
    SQUARED_MAHALANOBIS,
    pairwise,
    point_terms,
)
from lokmeans.localopt import (
    _move_costs_and_bar,
    c_lo_step,
    d_lo_step,
    min_d_lo_step,
    move_cost_matrix,
    pnx_run,
    shift_cost,
)
from lokmeans.model import (
    TIE_TOLERANCE,
    cluster_stats,
    clustering_loss,
    rounding_floor,
)

SQE = DivergenceSpec.squared_euclidean()
KMEANS_LABELS = np.array([0, 0, 0, 1, 1])
ESCAPED_LABELS = np.array([0, 0, 1, 1, 1])
STEPS = (c_lo_step, d_lo_step, min_d_lo_step)


def _state(dataset, labels, k):
    stats = cluster_stats(dataset, labels, k)
    return stats, stats.centers()


def _costs(dataset, labels, stats, centers, spec):
    divs = pairwise(spec, dataset.points, centers)
    return move_cost_matrix(dataset, labels, stats, centers, spec, divs)


def _choose(step, dataset, labels, stats, centers, spec, divs=None):
    """The move ``step`` chooses, given what ``engine.run`` passes it."""
    if divs is None:
        divs = pairwise(spec, dataset.points, centers)
    if step is c_lo_step:
        return step(dataset, labels, stats, centers, spec, tie_tolerance=TIE_TOLERANCE, divs=divs)
    return step(dataset, labels, stats, centers, spec, divs=divs)


def _apply(dataset, labels, stats, move):
    """Make ``move`` the way ``engine.run`` does; return the new centers."""
    point, dst = move
    stats.move(dataset, point, int(labels[point]), dst)
    labels[point] = dst
    return stats.centers()


def test_delta_frozen_improving_move(counterexample):
    dataset, _ = counterexample
    stats, centers = _state(dataset, KMEANS_LABELS, 2)
    move = delta_move(dataset, KMEANS_LABELS, stats, centers, SQE, 2, 0, 1)
    assert move.delta == pytest.approx(-10.0 / 3.0, abs=1e-12)
    assert not move.source_empties


def test_delta_frozen_worsening_move(counterexample):
    dataset, _ = counterexample
    stats, centers = _state(dataset, KMEANS_LABELS, 2)
    move = delta_move(dataset, KMEANS_LABELS, stats, centers, SQE, 3, 1, 0)
    assert move.delta == pytest.approx(8.6875, abs=1e-12)


def test_delta_alpha_family_closed_form(counterexample):
    # Fractional reassignment of the boundary point: the closed form reduces
    # to -(4 a^2 / (3 - a) + 4 a^2 / (2 + a)) on this instance.
    dataset, _ = counterexample
    stats, centers = _state(dataset, KMEANS_LABELS, 2)
    for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
        move = delta_move(
            dataset, KMEANS_LABELS, stats, centers, SQE, 2, 0, 1, alpha=alpha
        )
        expected = -(
            4.0 * alpha**2 / (3.0 - alpha) + 4.0 * alpha**2 / (2.0 + alpha)
        )
        assert move.delta == pytest.approx(expected, abs=1e-12)


def test_delta_alpha_zero_is_zero(counterexample):
    dataset, _ = counterexample
    stats, centers = _state(dataset, KMEANS_LABELS, 2)
    move = delta_move(dataset, KMEANS_LABELS, stats, centers, SQE, 2, 0, 1, alpha=0.0)
    assert move.delta == 0.0


def test_delta_flags_emptied_source():
    dataset = Dataset(np.array([[0.0], [4.0], [5.0]]), np.ones(3))
    labels = np.array([0, 1, 1])
    stats, centers = _state(dataset, labels, 2)
    move = delta_move(dataset, labels, stats, centers, SQE, 0, 0, 1)
    assert move.source_empties
    # Emptying a singleton removes no within-cluster loss, so only the
    # destination terms matter: w D(x, c_b) - (s_b + w) D(c_b', c_b).
    expected = 20.25 - 3.0 * 2.25
    assert move.delta == pytest.approx(expected, abs=1e-12)


def test_delta_move_input_validation(counterexample):
    dataset, _ = counterexample
    stats, centers = _state(dataset, KMEANS_LABELS, 2)
    with pytest.raises(ValueError, match="must differ"):
        delta_move(dataset, KMEANS_LABELS, stats, centers, SQE, 2, 0, 0)
    with pytest.raises(ValueError, match="not 1"):
        delta_move(dataset, KMEANS_LABELS, stats, centers, SQE, 2, 1, 0)
    with pytest.raises(ValueError, match="alpha"):
        delta_move(dataset, KMEANS_LABELS, stats, centers, SQE, 2, 0, 1, alpha=1.5)


def test_move_cost_matrix_matches_scalar_deltas():
    rng = np.random.default_rng(10)
    for kind in ALL_KINDS:
        dataset, k = random_instance(rng)
        spec = spec_for(kind, rng, dataset.dim)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=dataset.n - k)])
        rng.shuffle(labels)
        stats, centers = _state(dataset, labels, k)
        matrix = _costs(dataset, labels, stats, centers, spec)
        for point in range(dataset.n):
            src = int(labels[point])
            assert matrix[point, src] == np.inf
            for dst in range(k):
                if dst == src:
                    continue
                single = delta_move(
                    dataset, labels, stats, centers, spec, point, src, dst
                )
                assert matrix[point, dst] == pytest.approx(
                    single.delta, rel=1e-9, abs=1e-9
                )


def test_move_cost_matrix_matches_full_recompute():
    # The rank-one closed form must agree with recomputing the loss of the
    # moved assignment at its own optimal centers.
    rng = np.random.default_rng(11)
    checks = 0
    for trial in range(40):
        dataset, k = random_instance(rng)
        spec = spec_for(ALL_KINDS[trial % 4], rng, dataset.dim)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=dataset.n - k)])
        rng.shuffle(labels)
        stats, centers = _state(dataset, labels, k)
        base = clustering_loss(dataset, labels, centers, spec)
        matrix = _costs(dataset, labels, stats, centers, spec)
        for _ in range(5):
            point = int(rng.integers(dataset.n))
            dst = int(rng.integers(k))
            src = int(labels[point])
            if dst == src or stats.member_count[src] == 1:
                continue
            moved = labels.copy()
            moved[point] = dst
            target = cluster_stats(dataset, moved, k).centers()
            recomputed = clustering_loss(dataset, moved, target, spec) - base
            scale = max(1.0, abs(matrix[point, dst]), abs(recomputed))
            assert abs(matrix[point, dst] - recomputed) <= 1e-9 * scale
            checks += 1
    assert checks > 100


def test_singleton_source_row_matches_recompute():
    # k = n - 1 guarantees exactly one two-member cluster and singletons
    # elsewhere, exercising the zero source term.
    rng = np.random.default_rng(12)
    dataset, _ = random_instance(rng, n_range=(5, 5), d_range=(2, 2))
    k = dataset.n - 1
    labels = np.concatenate([np.arange(k), [0]])
    stats, centers = _state(dataset, labels, k)
    base = clustering_loss(dataset, labels, centers, SQE)
    matrix = _costs(dataset, labels, stats, centers, SQE)
    singleton = 1  # its own cluster, single member
    moved = labels.copy()
    moved[singleton] = 2
    fresh = cluster_stats(dataset, moved, k)
    partial = fresh.coord_sum[fresh.member_count > 0] / fresh.weight_sum[
        fresh.member_count > 0, None
    ]
    kept = np.flatnonzero(fresh.member_count > 0)
    remap = {int(c): i for i, c in enumerate(kept)}
    squeezed = np.array([remap[int(c)] for c in moved])
    recomputed = clustering_loss(dataset, squeezed, partial, SQE) - base
    assert matrix[singleton, 2] == pytest.approx(recomputed, rel=1e-9, abs=1e-9)


def test_c_lo_step_breaks_the_frozen_tie(counterexample):
    dataset, _ = counterexample
    labels = KMEANS_LABELS.copy()
    stats, centers = _state(dataset, labels, 2)
    move = _choose(c_lo_step, dataset, labels, stats, centers, SQE)
    assert move == (2, 1)
    centers = _apply(dataset, labels, stats, move)
    np.testing.assert_array_equal(labels, ESCAPED_LABELS)
    np.testing.assert_allclose(centers, [[-3.0], [4.0 / 3.0]], atol=1e-12)
    np.testing.assert_array_equal(stats.member_count, [2, 3])
    # The escaped state is tie-free, so a second call certifies and declines.
    assert _choose(c_lo_step, dataset, labels, stats, centers, SQE) is None


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_c_lo_step_rejects_a_non_finite_tie_tolerance(bad, counterexample):
    # The stalled state holds a tie; a NaN band would hide it and report none.
    dataset, _ = counterexample
    labels = KMEANS_LABELS.copy()
    stats, centers = _state(dataset, labels, 2)
    divs = pairwise(SQE, dataset.points, centers)
    with pytest.raises(ValueError, match="finite and non-negative"):
        c_lo_step(dataset, labels, stats, centers, SQE, tie_tolerance=bad, divs=divs)
    np.testing.assert_array_equal(labels, KMEANS_LABELS)


def test_c_lo_step_moves_to_largest_tied_index():
    points = np.array([[0.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    dataset = Dataset(points, np.ones(4))
    labels = np.array([0, 0, 1, 2])
    stats, centers = _state(dataset, labels, 3)
    np.testing.assert_allclose(centers, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    move = _choose(c_lo_step, dataset, labels, stats, centers, SQE)
    assert move == (0, 2)
    centers = _apply(dataset, labels, stats, move)
    np.testing.assert_array_equal(labels, [2, 0, 1, 2])
    np.testing.assert_allclose(centers[0], [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(centers[2], [0.0, 0.5], atol=1e-12)


def test_c_lo_step_and_certificate_break_a_tie_on_the_largest_index_alike():
    # Point 2 (x = 0) ties both centers and sits on the larger index, which
    # the sweep never produces: it goes to the smaller one, the move the
    # certificate names.
    dataset = Dataset(np.array([[-3.0], [-1.0], [0.0], [4.0]]), np.ones(4))
    labels = np.array([0, 0, 1, 1])
    stats, centers = _state(dataset, labels, 2)
    np.testing.assert_array_equal(centers, [[-2.0], [2.0]])
    assert _choose(c_lo_step, dataset, labels, stats, centers, SQE) == (2, 0)
    cert = certify_c_local(dataset, labels, centers, SQE)
    assert (cert.kind, cert.note, cert.tie_count) == ("not-local", "", 1)
    assert (cert.witness.point, cert.witness.from_cluster, cert.witness.to_cluster) == (2, 1, 0)
    assert cert.witness.delta == pytest.approx(-16.0 / 3.0, abs=1e-12)


def test_d_lo_step_applies_first_improving_move():
    dataset = Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]), np.ones(4))
    labels = np.array([0, 1, 0, 1])
    stats, centers = _state(dataset, labels, 2)
    before = clustering_loss(dataset, labels, centers, SQE)
    move = _choose(d_lo_step, dataset, labels, stats, centers, SQE)
    # Point 0 -> cluster 1 (delta -26) precedes the larger improvement at
    # point 1 in the point-major, destination-minor scan.
    assert move == (0, 1)
    _apply(dataset, labels, stats, move)
    np.testing.assert_array_equal(labels, [1, 1, 0, 1])
    after = clustering_loss(dataset, labels, cluster_stats(dataset, labels, 2).centers(), SQE)
    assert after - before == pytest.approx(-26.0, abs=1e-9)


def test_min_d_lo_step_applies_best_move():
    dataset = Dataset(np.array([[0.0], [1.0], [10.0], [11.0]]), np.ones(4))
    labels = np.array([0, 1, 0, 1])
    stats, centers = _state(dataset, labels, 2)
    before = clustering_loss(dataset, labels, centers, SQE)
    move = _choose(min_d_lo_step, dataset, labels, stats, centers, SQE)
    # Point 1 -> cluster 0 and point 2 -> cluster 1 tie at -118/3; the
    # smaller point index wins.
    assert move == (1, 0)
    _apply(dataset, labels, stats, move)
    np.testing.assert_array_equal(labels, [0, 0, 0, 1])
    after = clustering_loss(dataset, labels, cluster_stats(dataset, labels, 2).centers(), SQE)
    assert after - before == pytest.approx(-118.0 / 3.0, abs=1e-9)


def test_min_d_lo_tie_breaks_toward_smallest_point():
    # Mirror-symmetric instance: moving point 0 or point 3 to cluster 0
    # improves by exactly 3 either way; the smaller index must win.
    dataset = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.ones(4))
    labels = np.array([1, 0, 0, 1])
    stats, centers = _state(dataset, labels, 2)
    move = _choose(min_d_lo_step, dataset, labels, stats, centers, SQE)
    assert move == (0, 0)
    _apply(dataset, labels, stats, move)
    np.testing.assert_array_equal(labels, [0, 0, 0, 1])


def test_d_lo_step_takes_the_smaller_improving_destination():
    # Point 0 gains 45.5 by moving to cluster 1 and 49.5 by moving to
    # cluster 2; d-lo scans destinations in index order and takes 1, while
    # min-d-lo takes the larger gain.
    dataset = Dataset(np.array([[0.0], [10.0], [-3.0], [1.0]]), np.ones(4))
    labels = np.array([0, 0, 1, 2])
    stats, centers = _state(dataset, labels, 3)
    delta = _costs(dataset, labels, stats, centers, SQE)
    assert delta[0, 1] == pytest.approx(-45.5) and delta[0, 2] == pytest.approx(-49.5)
    assert _choose(d_lo_step, dataset, labels, stats, centers, SQE) == (0, 1)
    assert _choose(min_d_lo_step, dataset, labels, stats, centers, SQE) == (0, 2)


def test_min_d_lo_tie_breaks_toward_smaller_cluster_of_the_same_point():
    # Clusters 1 and 2 sit symmetrically about point 0: both moves gain
    # exactly 48, the best gain of any move; the smaller cluster wins.
    dataset = Dataset(np.array([[0.0], [10.0], [-2.0], [2.0]]), np.ones(4))
    labels = np.array([0, 0, 1, 2])
    stats, centers = _state(dataset, labels, 3)
    delta = _costs(dataset, labels, stats, centers, SQE)
    assert delta[0, 1] == delta[0, 2] == delta.min()
    assert _choose(min_d_lo_step, dataset, labels, stats, centers, SQE) == (0, 1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_move_costs_and_steps_do_not_depend_on_divs_layout(kind):
    # pairwise returns a center-major (Fortran-ordered) matrix; a C-ordered
    # copy of the same values must give bit-identical costs and moves. The
    # costs are written over the matrix they are given, so each call gets
    # its own copy, in the same layout.
    rng = np.random.default_rng(17)
    for _ in range(6):
        dataset, _ = random_instance(rng, n_range=(8, 40), k_range=(3, 3))
        spec = spec_for(kind, rng, dataset.dim)
        labels = rng.permutation(np.arange(dataset.n) % 3)
        stats, centers = _state(dataset, labels, 3)
        divs = pairwise(spec, dataset.points, centers)
        layouts = (np.ascontiguousarray(divs), np.asfortranarray(divs))
        costs = [move_cost_matrix(dataset, labels, stats, centers, spec, np.copy(m)) for m in layouts]
        np.testing.assert_array_equal(costs[0], costs[1])
        for step in (d_lo_step, min_d_lo_step):
            moves = [_choose(step, dataset, labels, stats, centers, spec, divs=np.copy(m)) for m in layouts]
            assert moves[0] == moves[1]


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 90),
    d=st.integers(1, 4),
    k=st.integers(1, 12),
    singletons=st.integers(0, 11),
    kind=st.sampled_from((SQUARED_EUCLIDEAN, SQUARED_MAHALANOBIS)),
    offset=st.sampled_from((0.0, 1e5)),
)
def test_quadratic_move_costs_are_the_bits_of_the_broadcast_form(
    seed, n, d, k, singletons, kind, offset
):
    # Random labelings in which the first ``singletons`` clusters hold one
    # point each.
    rng = np.random.default_rng(seed)
    k = min(k, n)
    dataset = Dataset(rng.normal(size=(n, d)) + offset, rng.integers(1, 4, size=n).astype(float))
    spec = spec_for(kind, rng, d)
    labels = labels_with_singletons(rng, n, k, min(singletons, k - 1))
    stats, centers = _state(dataset, labels, k)
    divs = pairwise(spec, dataset.points, centers)
    want = reference_quadratic_move_costs(dataset, labels, stats, divs)
    got = move_cost_matrix(dataset, labels, stats, centers, spec, divs)
    assert got.strides == want.strides
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 90),
    d=st.integers(1, 16),
    k=st.integers(1, 12),
    singletons=st.integers(0, 11),
    kind=st.sampled_from((KL, ITAKURA_SAITO)),
    offset=st.sampled_from((0.0, 1e4)),
)
def test_bregman_move_costs_are_the_bits_of_the_broadcast_form(
    seed, n, d, k, singletons, kind, offset
):
    # The destination term is scored one center at a time; each entry is
    # the same element-wise expression and each row reduces its own
    # d-vector, as in the (K, N, d) broadcast.
    rng = np.random.default_rng(seed)
    k = min(k, n)
    points = np.exp(rng.normal(size=(n, d))) + offset
    dataset = Dataset(points, rng.integers(1, 4, size=n).astype(float))
    spec = DivergenceSpec(kind)
    labels = labels_with_singletons(rng, n, k, min(singletons, k - 1))
    stats, centers = _state(dataset, labels, k)
    divs = pairwise(spec, dataset.points, centers)
    want = reference_bregman_move_costs(dataset, labels, stats, centers, spec, divs)
    got = move_cost_matrix(dataset, labels, stats, centers, spec, divs)
    # Center-major, like pairwise's output. At k = 1 the broadcast gives
    # the length-1 axis a nominal stride of 8 and the loop 8 N, as the
    # quadratic kinds' output always had.
    assert got.flags.f_contiguous, got.strides
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(10, 120),
    d=st.integers(1, 3),
    k=st.integers(2, 12),
    kind=st.sampled_from((SQUARED_EUCLIDEAN, SQUARED_MAHALANOBIS)),
    grid=st.booleans(),
    offset=st.sampled_from((0.0, 1e4, 1e5)),
    fixed=st.booleans(),
)
def test_screen_keeps_every_row_with_an_improving_move(seed, n, d, k, kind, grid, offset, fixed):
    # In the frame engine.run gives the steps: at a K-means fixed point or
    # on a random labeling, of tie-heavy grids or of N(0,1) points. Every
    # row whose full-matrix costs hold one below the floor must survive
    # the screen, the rows that survive must be scored to the bits of the
    # full matrix, and each step must choose the full matrix's move.
    rng = np.random.default_rng(seed)
    if grid:
        base = synth_uniform_grid(n, d, seed)
    else:
        base = Dataset(rng.normal(size=(n, d)), rng.integers(1, 4, size=n).astype(float))
    raw = Dataset(base.points + offset, base.weights)
    k = min(k, raw.n)
    spec = spec_for(kind, rng, d)
    if fixed:
        labels = run(raw, EngineConfig(k=k, divergence=spec, seed=seed)).final_labels
    else:
        labels = labels_with_singletons(rng, raw.n, k, 0)
    terms = point_terms(spec, raw.points)
    frame = Dataset(terms.points, raw.weights)
    stats, centers = _state(frame, labels, k)
    divs = pairwise(spec, frame.points, centers, terms=terms)
    delta, bar, first, best = reference_escape_moves(frame, labels, stats, centers, spec, divs)

    rows, costs, got_bar = _move_costs_and_bar(frame, labels, stats, centers, spec, np.copy(divs))
    assert got_bar == bar
    assert (np.diff(rows) > 0).all()
    assert np.isin(np.flatnonzero((delta < -bar).any(axis=1)), rows).all()
    want = np.ascontiguousarray(delta[rows])
    assert np.ascontiguousarray(costs).tobytes() == want.tobytes()
    assert _choose(d_lo_step, frame, labels, stats, centers, spec, np.copy(divs)) == first
    assert _choose(min_d_lo_step, frame, labels, stats, centers, spec, np.copy(divs)) == best


def test_screen_keeps_a_row_whose_bound_rounds_above_its_cost():
    # Hand-built divergences: point 0 may move to singleton cluster 2 of
    # weight W2, one ulp above the smallest weight W1 of singleton cluster
    # 1. In exact arithmetic the screen's bound, Hartigan's factor at W1
    # times point 0's nearest divergence, is below that move's cost, but
    # computed it rounds two ulps above it, and the bar lies between the
    # two: the move clears the floor and only _SCREEN_MARGIN keeps its
    # row. Found by a search over w, W1 and the nearest divergence.
    w, w1 = 0.9218425750732422, 7.865847371433611
    w2 = float(np.nextafter(w1, np.inf))
    nearest, own, other = 1.6855419844806947, 1.366628305306624, 0.9999991455419909
    assert (w1 * w / (w1 + w)) * nearest > (w2 * w / (w2 + w)) * nearest
    dataset = Dataset(np.arange(4.0)[:, None], np.array([w, w2 + 1.0, w1, w2]))
    labels = np.array([0, 0, 1, 2])
    stats = cluster_stats(dataset, labels, 3)
    centers = np.zeros((3, 1))  # the quadratic costs read only the divergences
    far = 1e3
    divs = np.array(
        [[own, far, nearest], [other, far, far], [far, 0.0, far], [far, far, 0.0]]
    )
    delta, bar, first, best = reference_escape_moves(dataset, labels, stats, centers, SQE, divs)
    assert first == best == (0, 2)
    assert delta[0, 2] < -bar < delta[0, 2] + 1e-15
    rows, costs, _ = _move_costs_and_bar(dataset, labels, stats, centers, SQE, np.copy(divs))
    assert rows.tolist() == [0]
    assert costs.tobytes() == delta[:1].tobytes()
    for step in (d_lo_step, min_d_lo_step):
        assert _choose(step, dataset, labels, stats, centers, SQE, np.copy(divs)) == (0, 2)


def test_screened_step_holds_column_scratch_when_most_rows_are_kept():
    # Figures for numpy 2.4 at (N, K, d) = (1000, 16, 8), whose (N, K)
    # matrix takes 128 KB and an (N,) float column 8 KB. On a random
    # labeling 944 rows pass the screen; scoring them in blocks of at most
    # N entries over the front rows of the divergences peaks at 67 KB, and
    # the full move-cost matrix at 45 KB. Scoring every kept row in one
    # (rows, K) copy with its factor and sum scratch peaked at 599 KB.
    rng = np.random.default_rng(5)
    n, k, d = 1000, 16, 8
    dataset = Dataset(rng.normal(size=(n, d)), rng.integers(1, 4, size=n).astype(float))
    labels = np.arange(n) % k
    stats, centers = _state(dataset, labels, k)
    divs = pairwise(SQE, dataset.points, centers)
    rows, _, _ = _move_costs_and_bar(dataset, labels, stats, centers, SQE, np.copy(divs))
    assert rows.size > 0.9 * n
    for step in (d_lo_step, min_d_lo_step):
        _choose(step, dataset, labels, stats, centers, SQE, np.copy(divs))
        scratch = np.copy(divs)
        tracemalloc.start()
        try:
            _choose(step, dataset, labels, stats, centers, SQE, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * n, (step.__name__, peak)


def test_quadratic_move_cost_matrix_holds_its_output_and_column_scratch():
    # Figures for numpy 2.4 at (N, K, d) = (1000, 16, 8), whose (N, K)
    # matrix takes 128 KB and an (N,) float column 8 KB. Writing each
    # destination center's costs over its divergences peaks at 45 KB: the
    # own divergences, source terms, the W_b w / (W_b + w) and W_b + w
    # scratch, the row indices and boolean masks, under six columns and no
    # (N, K) array. A separate (N, K) output peaked at 173
    # KB, three broadcast (K, N) temporaries at 419 KB and one bounded
    # (K, N) scratch at 291 KB.
    rng = np.random.default_rng(5)
    n, k, d = 1000, 16, 8
    dataset = Dataset(rng.normal(size=(n, d)), rng.integers(1, 4, size=n).astype(float))
    labels = np.arange(n) % k
    stats, centers = _state(dataset, labels, k)
    divs = pairwise(SQE, dataset.points, centers)
    move_cost_matrix(dataset, labels, stats, centers, SQE, np.copy(divs))
    tracemalloc.start()
    try:
        got = move_cost_matrix(dataset, labels, stats, centers, SQE, divs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is divs
    assert peak <= 9 * 8 * n, peak


@pytest.mark.parametrize("kind", (KL, ITAKURA_SAITO))
def test_bregman_move_cost_matrix_holds_its_output_and_column_scratch(kind):
    # Figures for numpy 2.4 at (N, K, d) = (1000, 16, 8): the (N, K) matrix
    # takes 128 KB and an (N, d) array 64 KB. Writing each destination center's
    # costs over its divergences peaks at 347 KB (KL) and 379 KB
    # (Itakura-Saito), with ``shift_cost`` and ``rowwise`` writing each step
    # over the last; their fresh arrays per step took it to 404 and 459 KB,
    # a separate (N, K) output to 462 and 459 KB, subtracting each center's
    # term from a full (N, K) matrix to 533 and 587 KB, and the (K, rows, d)
    # blocks before it to 3.5 and 4.4 MB.
    rng = np.random.default_rng(5)
    n, k, d = 1000, 16, 8
    dataset = Dataset(np.exp(rng.normal(size=(n, d))), rng.integers(1, 4, size=n).astype(float))
    spec = DivergenceSpec(kind)
    labels = np.arange(n) % k
    stats, centers = _state(dataset, labels, k)
    divs = pairwise(spec, dataset.points, centers)
    move_cost_matrix(dataset, labels, stats, centers, spec, np.copy(divs))
    tracemalloc.start()
    try:
        got = move_cost_matrix(dataset, labels, stats, centers, spec, divs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + 4 * dataset.points.nbytes, peak


@pytest.mark.parametrize("kind", (KL, ITAKURA_SAITO))
def test_shift_cost_holds_the_shifted_means_and_rowwise_scratch(kind):
    # Figures for numpy 2.4 at (N, d) = (1000, 8), where an (N, d) array
    # takes 64 KB. One center against every point, a destination column of
    # the move costs, peaks at 210 KB (KL) and 202 KB (Itakura-Saito): the
    # shifted means, ``rowwise``'s float and boolean arrays (two float
    # arrays for Itakura-Saito), and numpy's 64 KB iteration buffer for the
    # broadcast center. A fresh array per step peaked at 274 and 265 KB.
    rng = np.random.default_rng(8)
    n, d = 1000, 8
    points = np.exp(rng.normal(size=(n, d)))
    weights = rng.integers(1, 4, size=n).astype(float)
    spec = DivergenceSpec(kind)
    center = points.mean(axis=0)
    shift_cost(spec, center, points, 500.0, weights)
    tracemalloc.start()
    try:
        shift_cost(spec, center, points, 500.0, weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * points.nbytes + 4 * 8 * n, peak


def test_screened_steps_hold_a_few_columns_at_a_fixed_point():
    # Figures for numpy 2.4 at (N, K, d) = (1000, 16, 8), where an (N,)
    # float column takes 8 KB. At a K-means fixed point few rows pass the
    # screen, and each step peaks at 28 KB beside the divergences: three
    # (N,) float arrays at once. Copies of the source terms' operands, and
    # the bound's factor and sum formed beside the nearest divergences,
    # peaked at 66 KB.
    rng = np.random.default_rng(7)
    n, k, d = 1000, 16, 8
    dataset = Dataset(rng.normal(size=(n, d)), rng.integers(1, 4, size=n).astype(float))
    labels = run(dataset, EngineConfig(k=k, divergence=SQE, init="kmeans++", seed=7)).final_labels
    stats, centers = _state(dataset, labels, k)
    divs = pairwise(SQE, dataset.points, centers)
    rows, _, _ = _move_costs_and_bar(dataset, labels, stats, centers, SQE, np.copy(divs))
    assert rows.size < 0.05 * n
    for step in (d_lo_step, min_d_lo_step):
        _choose(step, dataset, labels, stats, centers, SQE, np.copy(divs))
        scratch = np.copy(divs)
        tracemalloc.start()
        try:
            _choose(step, dataset, labels, stats, centers, SQE, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n, (step.__name__, peak)


def test_steps_decline_at_single_move_optimum(counterexample):
    dataset, _ = counterexample
    labels = ESCAPED_LABELS.copy()
    stats, centers = _state(dataset, labels, 2)
    assert _choose(d_lo_step, dataset, labels, stats, centers, SQE) is None
    assert _choose(min_d_lo_step, dataset, labels, stats, centers, SQE) is None


def test_true_steps_strictly_decrease_loss():
    rng = np.random.default_rng(13)
    improved = 0
    for trial in range(30):
        dataset, k = random_instance(rng, n_range=(5, 9), k_range=(2, 3))
        spec = spec_for(ALL_KINDS[trial % 4], rng, dataset.dim)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=dataset.n - k)])
        rng.shuffle(labels)
        stats, centers = _state(dataset, labels, k)
        before = clustering_loss(dataset, labels, centers, spec)
        step = (d_lo_step, min_d_lo_step)[trial % 2]
        move = _choose(step, dataset, labels, stats, centers, spec)
        if move is not None:
            _apply(dataset, labels, stats, move)
            kept = np.flatnonzero(stats.member_count > 0)
            remap = {int(c): i for i, c in enumerate(kept)}
            squeezed = np.array([remap[int(c)] for c in labels])
            fresh = cluster_stats(dataset, squeezed, kept.size).centers()
            after = clustering_loss(dataset, squeezed, fresh, spec)
            assert after < before
            improved += 1
    assert improved > 10


def test_escapes_refuse_zero_gain_moves_on_tie_heavy_grid():
    # Ten distinct integer points with multiplicities. Without a rounding
    # floor, every escape variant cycled here until the iteration cap on a
    # move whose rank-one cost rounded to -1.6e-15 in both directions,
    # while d-lo and pnx sat at loss 3.3506 with a move worth -0.97 open.
    dataset = synth_uniform_grid(43, 1, 30)
    for variant in ("d-lo", "min-d-lo", "pnx"):
        report = run(dataset, EngineConfig(k=8, divergence=SQE, variant=variant, seed=30))
        assert report.termination == "converged", variant
        assert (np.diff(report.loss_trajectory) < 0.0).all(), variant
        assert report.final_loss == pytest.approx(50.0 / 21.0, abs=1e-12)
        assert certify_d_local(dataset, report.final_labels, 8, SQE).kind == "d-local"
        assert exact_sqe_loss(dataset, report.final_labels) == Fraction(50, 21)

    # A final state where the best move rounds below zero. Which move does
    # depends on the kernel's rounding, not on the data's structure.
    dataset = synth_uniform_grid(30, 1, 2)
    report = run(dataset, EngineConfig(k=6, divergence=SQE, variant="min-d-lo", seed=2))
    labels = report.final_labels.copy()
    stats, centers = _state(dataset, labels, 6)
    delta = _costs(dataset, labels, stats, centers, SQE)
    point, dst = np.unravel_index(int(np.argmin(delta)), delta.shape)
    # The best move looks improving in floating point, within the floor ...
    assert -rounding_floor(report.final_loss) < delta[point, dst] < 0.0
    # ... but its true gain is exactly zero, so both steps must decline it.
    moved = labels.copy()
    moved[point] = dst
    assert exact_sqe_loss(dataset, moved) == exact_sqe_loss(dataset, labels)
    assert _choose(d_lo_step, dataset, labels, stats, centers, SQE) is None
    assert _choose(min_d_lo_step, dataset, labels, stats, centers, SQE) is None
    np.testing.assert_array_equal(labels, report.final_labels)


def _sweep_fixed_points(kind, rng):
    """(dataset, spec, labels) at fixed points of the sweep, half of them on
    tie-heavy grids, then two clusters that share a center, whose points
    are all tied."""
    for trial in range(12):
        if trial % 2:
            dataset = synth_uniform_grid(int(rng.integers(20, 80)), 1 + trial % 3 // 2, trial)
            k = int(rng.integers(2, min(8, dataset.n) + 1))
        else:
            dataset, k = random_instance(rng, n_range=(8, 30), k_range=(2, 5))
        spec = spec_for(kind, rng, dataset.dim)
        yield dataset, spec, run(dataset, EngineConfig(k=k, divergence=spec, seed=trial)).final_labels
    dataset = Dataset(np.array([[1.0], [3.0], [1.5], [2.5], [8.0]]), np.ones(5))
    yield dataset, spec_for(kind, rng, 1), np.array([0, 0, 1, 1, 2])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_steps_return_a_move_and_leave_their_arguments_untouched(kind):
    # Each step only chooses: engine.run makes the move. Every array the
    # step is given keeps its bits, except the divergences, which d_lo_step
    # and min_d_lo_step consume (each step gets its own copy), and the move
    # is a pair of Python ints.
    moves = dict.fromkeys(STEPS, 0)
    for dataset, spec, labels in _sweep_fixed_points(kind, np.random.default_rng(19)):
        stats, centers = _state(dataset, labels, int(labels.max()) + 1)
        divs = pairwise(spec, dataset.points, centers)
        arrays = (labels, stats.weight_sum, stats.coord_sum, stats.member_count, centers)
        before = [a.copy() for a in arrays]
        for step in STEPS:
            given = np.copy(divs)
            move = _choose(step, dataset, labels, stats, centers, spec, divs=given)
            for old, new in zip(before, arrays):
                assert old.dtype == new.dtype and old.tobytes() == new.tobytes(), step.__name__
            if step is c_lo_step:
                assert given.tobytes() == divs.tobytes()
            if move is not None:
                assert type(move) is tuple and [type(v) for v in move] == [int, int]
                moves[step] += 1
    assert all(moves.values()), moves


@pytest.mark.parametrize("offset", [1e3, 1e5])
def test_escapes_certify_on_tie_heavy_grids_far_from_origin(offset):
    # Far from the origin the divergence expansion cancels offset-sized
    # norms, and centers held in absolute coordinates would carry rounding
    # of a few ulps of the offset. Neither may let a zero-gain move through
    # the rounding floor.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 2
        grid = synth_uniform_grid(int(rng.integers(20, 60)), d, seed)
        dataset = Dataset(grid.points + offset, grid.weights)
        k = int(rng.integers(2, min(12, dataset.n) + 1))
        for spec in (SQE, DivergenceSpec.squared_mahalanobis(random_spd(rng, d))):
            for variant in ("d-lo", "min-d-lo", "pnx"):
                config = EngineConfig(k=k, divergence=spec, variant=variant, seed=seed)
                report = run(dataset, config)
                case = (seed, spec.kind, variant)
                assert report.termination == "converged", case
                assert (np.diff(report.loss_trajectory) < 0.0).all(), case
                cert = certify_d_local(dataset, report.final_labels, k, spec)
                assert cert.kind == "d-local", case


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(10, 120),
    d=st.sampled_from((1, 2)),
    k=st.integers(2, 12),
    kind=st.sampled_from(ALL_KINDS),
    init=st.sampled_from(("uniform", "kmeans++")),
)
def test_escapes_end_certified_on_tie_heavy_grids(seed, n, d, k, kind, init):
    # Integer grids with multiplicities are full of exact ties and zero-gain
    # moves, the stress case for rounding taken as an improvement.
    dataset = synth_uniform_grid(n, d, seed)
    k = min(k, dataset.n)
    spec = spec_for(kind, np.random.default_rng(seed), d)
    for variant in ("c-lo", "d-lo", "min-d-lo", "pnx"):
        config = EngineConfig(k=k, divergence=spec, variant=variant, init=init, seed=seed)
        report = run(dataset, config)
        assert report.termination == "converged", variant
        assert (np.diff(report.loss_trajectory) < 0.0).all(), variant
        if variant == "c-lo":
            cert = certify_c_local(dataset, report.final_labels, report.final_centers, spec)
            assert cert.kind == "c-local"
        else:
            assert certify_d_local(dataset, report.final_labels, k, spec).kind == "d-local", variant


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=500)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(20, 80),
    d=st.sampled_from((1, 2)),
    k=st.integers(2, 10),
    kind=st.sampled_from(ALL_KINDS),
    init=st.sampled_from(("uniform", "kmeans++")),
    offset=st.sampled_from((0.0, 1e4)),
)
def test_c_lo_step_makes_the_move_the_c_local_certificate_names(seed, n, d, k, kind, init, offset):
    # At a plain K-means fixed point of a tie-heavy grid, a tie witness of
    # the certificate is the move c_lo_step makes, and a c-local verdict is
    # a state c_lo_step declines. Such fixed points seldom hold a tie: 8 of
    # these 500 examples do, most of them Itakura-Saito at offset 1e4,
    # whose tie band is wide there.
    grid = synth_uniform_grid(n, d, seed)
    dataset = Dataset(grid.points + offset, grid.weights)
    k = min(k, dataset.n)
    spec = spec_for(kind, np.random.default_rng(seed), d)
    report = run(dataset, EngineConfig(k=k, divergence=spec, init=init, seed=seed))
    labels, centers = report.final_labels, report.final_centers
    cert = certify_c_local(dataset, labels, centers, spec)
    divs = pairwise(spec, dataset.points, centers)
    move = _choose(c_lo_step, dataset, labels, cluster_stats(dataset, labels, k), centers, spec, divs)
    if cert.kind == "c-local":
        assert move is None
    elif cert.witness is not None and not cert.note:
        assert move == (cert.witness.point, cert.witness.to_cluster)


def test_pnx_run_escapes_the_counterexample(counterexample):
    dataset, initial = counterexample
    config = EngineConfig(k=2, divergence=SQE, variant="pnx", initial_centers=initial)
    report = pnx_run(dataset, config)
    assert report.termination == "converged"
    assert report.final_loss == pytest.approx(31.0 / 6.0, abs=1e-9)
    # One move plus the first sweep and the final certifying pass.
    assert report.iterations == 3
    assert report.new_step_invocations == 1
    np.testing.assert_array_equal(report.final_labels, ESCAPED_LABELS)
    np.testing.assert_allclose(report.loss_trajectory, [8.5, 31.0 / 6.0], atol=1e-9)


def test_pnx_run_stops_immediately_when_already_optimal(counterexample):
    dataset, _ = counterexample
    start = np.array([[-3.0], [4.0 / 3.0]])
    config = EngineConfig(k=2, divergence=SQE, variant="pnx", initial_centers=start)
    report = pnx_run(dataset, config)
    assert report.iterations == 2
    assert report.new_step_invocations == 0
    assert report.termination == "converged"
    assert report.final_loss == pytest.approx(31.0 / 6.0, abs=1e-9)


def test_pnx_dispatched_by_run(counterexample):
    dataset, initial = counterexample
    config = EngineConfig(k=2, divergence=SQE, variant="pnx", initial_centers=initial)
    report = run(dataset, config)
    assert report.final_loss == pytest.approx(31.0 / 6.0, abs=1e-9)
