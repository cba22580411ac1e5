"""Divergence closed forms, domains, and the generating-function identity."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import ALL_KINDS, random_spd, reference_mahalanobis_phi, spec_for
from lokmeans import Dataset, DivergenceSpec, EngineConfig, run
from lokmeans.data_io import load_csv, synth_uniform_grid
from lokmeans.divergence import (
    ITAKURA_SAITO,
    KL,
    SQUARED_EUCLIDEAN,
    SQUARED_MAHALANOBIS,
    DomainError,
    domain_contains,
    evaluate,
    pairwise,
    phi,
    point_terms,
    rowwise,
)
from lokmeans.model import cluster_stats, clustering_loss
from lokmeans.verify import brute_force_best, certify_c_local, certify_d_local

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


def _interior_vectors(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda d: st.tuples(
            hnp.arrays(np.float64, d, elements=st.floats(0.1, 10.0)),
            hnp.arrays(np.float64, d, elements=st.floats(0.1, 10.0)),
        )
    )


def _generic_form(spec, x, y):
    """Independent oracle: phi(x) - phi(y) - <grad phi(y), x - y>."""
    if spec.kind == SQUARED_EUCLIDEAN:
        phi = lambda v: float(v @ v)
        grad = lambda v: 2.0 * v
    elif spec.kind == SQUARED_MAHALANOBIS:
        phi = lambda v: float(v @ spec.matrix @ v)
        grad = lambda v: 2.0 * (spec.matrix @ v)
    elif spec.kind == KL:
        phi = lambda v: float(np.sum(v * np.log(v)))
        grad = lambda v: np.log(v) + 1.0
    elif spec.kind == ITAKURA_SAITO:
        phi = lambda v: -float(np.sum(np.log(v)))
        grad = lambda v: -1.0 / v
    else:
        raise AssertionError(spec.kind)
    return phi(x) - phi(y) - float(grad(y) @ (x - y))


def test_squared_euclidean_frozen_value():
    spec = DivergenceSpec.squared_euclidean()
    assert evaluate(spec, np.array([0.0]), np.array([2.5])) == pytest.approx(6.25)


def test_kl_frozen_value():
    spec = DivergenceSpec.kl()
    expected = 2.0 * math.log(2.0) - 1.0
    assert evaluate(spec, np.array([2.0]), np.array([1.0])) == pytest.approx(
        expected, abs=1e-12
    )


def test_itakura_saito_frozen_value():
    spec = DivergenceSpec.itakura_saito()
    expected = 1.0 - math.log(2.0)
    assert evaluate(spec, np.array([2.0]), np.array([1.0])) == pytest.approx(
        expected, abs=1e-12
    )


def test_mahalanobis_frozen_value():
    matrix = np.array([[2.0, 0.0], [0.0, 1.0]])
    spec = DivergenceSpec.squared_mahalanobis(matrix)
    x = np.array([1.0, 1.0])
    y = np.array([0.0, 0.0])
    assert evaluate(spec, x, y) == pytest.approx(3.0)


def test_kl_zero_coordinate_contributes_nothing():
    spec = DivergenceSpec.kl()
    x = np.array([0.0, 1.0])
    y = np.array([1.0, 1.0])
    # sum(x log x/y) - sum(x) + sum(y) with the 0 log 0 term read as 0.
    assert evaluate(spec, x, y) == pytest.approx(1.0, abs=1e-12)


def test_identity_of_indiscernibles():
    rng = np.random.default_rng(5)
    for kind in ALL_KINDS:
        spec = spec_for(kind, rng, 3)
        x = rng.uniform(0.5, 5.0, size=3)
        assert evaluate(spec, x, x) == pytest.approx(0.0, abs=1e-12)


def test_mahalanobis_identity_matrix_matches_squared_euclidean():
    rng = np.random.default_rng(6)
    mah = DivergenceSpec.squared_mahalanobis(np.eye(4))
    sqe = DivergenceSpec.squared_euclidean()
    for _ in range(50):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        assert evaluate(mah, x, y) == pytest.approx(evaluate(sqe, x, y), rel=1e-12)


# The leading shapes of the callers: one vector (``evaluate``), points
# against their centers (``clustering_loss``) and a batch of labelings
# (``brute_force_best``).
@pytest.mark.parametrize("lead", [(), (7,), (3, 5)], ids=["vector", "rows", "batch"])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
def test_mahalanobis_phi_and_rowwise_match_the_three_operand_form(lead, scale):
    rng = np.random.default_rng(len(lead) * 10 + round(math.log10(scale)) + 3)
    for d in range(1, 21):
        spec = DivergenceSpec.squared_mahalanobis(random_spd(rng, d))
        x = scale * rng.normal(size=lead + (d,))
        y = scale * rng.normal(size=lead + (d,))
        for got, want in (
            (phi(spec, x), reference_mahalanobis_phi(spec.matrix, x)),
            (rowwise(spec, x, y), reference_mahalanobis_phi(spec.matrix, x - y)),
        ):
            assert np.shape(got) == lead
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_mahalanobis_phi_is_exact_on_small_integers():
    # Every product and partial sum is an integer below 2**53, so both
    # forms must equal the rational value exactly.
    rng = np.random.default_rng(12)
    for d in range(1, 9):
        basis = rng.integers(-3, 4, size=(d, d))
        matrix = basis @ basis.T + d * np.eye(d, dtype=np.int64)
        spec = DivergenceSpec.squared_mahalanobis(matrix.astype(np.float64))
        x = rng.integers(-20, 21, size=(6, d)).astype(np.float64)
        y = rng.integers(-20, 21, size=(6, d)).astype(np.float64)

        def exact(v):
            return sum(
                Fraction(int(v[i])) * int(matrix[i, j]) * Fraction(int(v[j]))
                for i in range(d)
                for j in range(d)
            )

        assert phi(spec, x).tolist() == [float(exact(row)) for row in x]
        assert rowwise(spec, x, y).tolist() == [float(exact(row)) for row in x - y]


@seed(0)
@PROPERTY
@given(_interior_vectors())
def test_generic_form_equivalence(pair):
    x, y = pair
    rng = np.random.default_rng(x.size)
    for kind in ALL_KINDS:
        spec = spec_for(kind, rng, x.size)
        closed = evaluate(spec, x, y)
        generic = _generic_form(spec, x, y)
        scale = max(1.0, abs(closed), abs(generic))
        assert abs(closed - generic) <= 1e-10 * scale


@seed(0)
@PROPERTY
@given(_interior_vectors())
def test_nonnegativity(pair):
    x, y = pair
    rng = np.random.default_rng(x.size + 1)
    for kind in ALL_KINDS:
        spec = spec_for(kind, rng, x.size)
        assert evaluate(spec, x, y) >= -1e-12


def test_rowwise_matches_scalar_evaluate():
    rng = np.random.default_rng(7)
    points = rng.uniform(0.5, 5.0, size=(9, 3))
    center = rng.uniform(0.5, 5.0, size=3)
    for kind in ALL_KINDS:
        spec = spec_for(kind, rng, 3)
        got = rowwise(spec, points, center)
        want = [evaluate(spec, p, center) for p in points]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_bregman_rowwise_takes_each_closed_form_step_in_order():
    # ``x log(x / y)`` with 0 where x = 0, summed, less sum(x), plus
    # sum(y); and ``r - log r - 1`` summed: the one-expression forms, bit
    # for bit, with zeros in x and a broadcast y.
    rng = np.random.default_rng(9)
    x = np.exp(rng.normal(size=(200, 5)) * 3.0)
    x[rng.random(size=x.shape) < 0.2] = 0.0
    y = np.exp(rng.normal(size=(200, 5)) * 3.0)
    for other in (y, y[7], y[:1]):
        xb, yb = np.broadcast_arrays(x, other)
        positive = xb > 0.0
        logs = np.where(positive, xb * np.log(np.where(positive, xb, 1.0) / yb), 0.0)
        kl = logs.sum(axis=-1) - xb.sum(axis=-1) + yb.sum(axis=-1)
        assert rowwise(DivergenceSpec.kl(), x, other).tobytes() == kl.tobytes()
        ratio = (x + 1.0) / other
        saito = (ratio - np.log(ratio) - 1.0).sum(axis=-1)
        assert rowwise(DivergenceSpec.itakura_saito(), x + 1.0, other).tobytes() == saito.tobytes()


@pytest.mark.parametrize("kind", (KL, ITAKURA_SAITO))
def test_bregman_rowwise_holds_at_most_two_point_arrays(kind):
    # Figures for numpy 2.4 at (N, d) = (1000, 8), where an (N, d) float
    # array takes 64 KB and a boolean one 8 KB. KL peaks at 96 KB (one
    # float and one boolean array and the (N,) sums), Itakura-Saito at
    # 128 KB (the ratios and their logarithms). A fresh array per step
    # peaked at 138 and 192 KB.
    rng = np.random.default_rng(10)
    n, d = 1000, 8
    x = np.exp(rng.normal(size=(n, d)))
    y = np.exp(rng.normal(size=(n, d)))
    spec = DivergenceSpec(kind)
    rowwise(spec, x, y)
    tracemalloc.start()
    try:
        rowwise(spec, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if kind == KL:
        assert peak <= x.nbytes + x.size + 4 * 8 * n, peak
    else:
        assert peak <= 2 * x.nbytes + 2 * 8 * n, peak


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pairwise_holds_its_output_and_no_iteration_buffer(kind):
    # Figures for numpy 2.4 at (N, K, d) = (1000, 16, 8), in the frame of
    # ``point_terms``: the (K, N) output takes 128 KB, and the call peaks
    # under 2 KB above it. Its two broadcast adds through numpy's 64 KB
    # iteration buffer peaked at 193 KB.
    rng = np.random.default_rng(11)
    n, k, d = 1000, 16, 8
    points = rng.normal(size=(n, d))
    spec = spec_for(kind, rng, d)
    if not spec.quadratic:
        points = np.exp(points)
    terms = point_terms(spec, points)
    centers = terms.points[:k].copy()
    pairwise(spec, terms.points, centers, terms=terms)
    tracemalloc.start()
    try:
        got = pairwise(spec, terms.points, centers, terms=terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + 4_000, peak


def test_pairwise_matches_scalar_evaluate():
    rng = np.random.default_rng(8)
    points = rng.uniform(0.5, 5.0, size=(6, 2))
    centers = rng.uniform(0.5, 5.0, size=(3, 2))
    for kind in ALL_KINDS:
        spec = spec_for(kind, rng, 2)
        got = pairwise(spec, points, centers)
        assert got.shape == (6, 3)
        for n in range(6):
            for k in range(3):
                assert got[n, k] == pytest.approx(
                    evaluate(spec, points[n], centers[k]), rel=1e-12, abs=1e-12
                )


def test_pairwise_kl_treats_zero_coordinates_as_zero_mass():
    points = np.array([[0.0, 2.0], [3.0, 0.0], [1.5, 0.5]])
    centers = np.array([[1.0, 1.0], [0.5, 4.0]])
    spec = DivergenceSpec.kl()
    want = [[evaluate(spec, p, c) for c in centers] for p in points]
    np.testing.assert_allclose(pairwise(spec, points, centers), want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("offset", [1e3, 1e5])
def test_pairwise_keeps_precision_far_from_origin(offset):
    # The expansion cancels squared norms down to the divergence. On a grid
    # far from the origin the norms are offset**2, so only the shift by the
    # point mean keeps the rounding at the scale of the grid's spread.
    rng = np.random.default_rng(31)
    points = synth_uniform_grid(80, 2, 31).points + offset
    centers = points[:7] + rng.uniform(-0.5, 0.5, size=(7, 2))
    for spec in (
        DivergenceSpec.squared_euclidean(),
        DivergenceSpec.squared_mahalanobis(random_spd(rng, 2)),
    ):
        want = np.array([[evaluate(spec, p, c) for c in centers] for p in points])
        got = pairwise(spec, points, centers)
        assert np.abs(got - want).max() <= 16 * np.finfo(np.float64).eps * want.max()


def _bits(array):
    return array.dtype, array.shape, array.tobytes()


@pytest.mark.parametrize("offset", [0.0, 1e5])
def test_pairwise_with_point_terms_is_bit_identical(offset):
    rng = np.random.default_rng(41)
    for kind in ALL_KINDS:
        spec = spec_for(kind, rng, 3)
        points = rng.normal(size=(60, 3))
        if kind in (KL, ITAKURA_SAITO):
            points = np.exp(points)
        else:
            points += offset
        if kind == KL:
            points[rng.random(points.shape) < 0.3] = 0.0
        centers = points[:5] + rng.uniform(0.01, 0.5, size=(5, 3))
        centers[2] = np.nan  # an undefined center keeps its column
        terms = point_terms(spec, points)
        for _ in range(2):  # the terms are reused, never changed
            want = pairwise(spec, points, centers)
            got = pairwise(spec, terms.points, centers - terms.origin, terms=terms)
            assert _bits(got) == _bits(want)


def test_pairwise_refuses_terms_of_other_points_or_divergence():
    points = np.array([[1.0, 2.0], [3.0, 1.0]])
    centers = np.array([[1.0, 1.0]])
    sqe = DivergenceSpec.squared_euclidean()
    terms = point_terms(sqe, points)
    with pytest.raises(ValueError, match="point terms"):
        pairwise(sqe, points.copy(), centers, terms=terms)
    with pytest.raises(ValueError, match="point terms"):
        pairwise(DivergenceSpec.kl(), terms.points, centers, terms=terms)


def test_spd_validation_rejects_asymmetric_matrix():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        DivergenceSpec.squared_mahalanobis(bad)


def test_spd_validation_rejects_indefinite_matrix():
    bad = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        DivergenceSpec.squared_mahalanobis(bad)


def test_spd_validation_rejects_near_singular_matrix():
    bad = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(ValueError, match="positive definite|numerically singular"):
        DivergenceSpec.squared_mahalanobis(bad)


def test_mahalanobis_requires_matrix():
    with pytest.raises(ValueError):
        DivergenceSpec(SQUARED_MAHALANOBIS)


def test_non_mahalanobis_rejects_matrix():
    with pytest.raises(ValueError):
        DivergenceSpec(SQUARED_EUCLIDEAN, matrix=np.eye(2))


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        DivergenceSpec("manhattan")


def test_dimension_mismatch_raises():
    spec = DivergenceSpec.squared_mahalanobis(np.eye(2))
    with pytest.raises(ValueError):
        evaluate(spec, np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
    sqe = DivergenceSpec.squared_euclidean()
    with pytest.raises(ValueError):
        evaluate(sqe, np.array([1.0, 2.0]), np.array([1.0]))


def test_kl_domain_violations():
    spec = DivergenceSpec.kl()
    with pytest.raises(DomainError):
        evaluate(spec, np.array([-1.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        evaluate(spec, np.array([1.0]), np.array([0.0]))


def test_itakura_saito_domain_violations():
    spec = DivergenceSpec.itakura_saito()
    with pytest.raises(DomainError):
        evaluate(spec, np.array([0.0]), np.array([1.0]))
    with pytest.raises(DomainError):
        evaluate(spec, np.array([1.0]), np.array([-2.0]))


def test_domain_contains_boundary_versus_interior():
    spec = DivergenceSpec.kl()
    boundary = np.array([0.0, 1.0])
    assert domain_contains(spec, boundary)
    assert not domain_contains(spec, boundary, require_interior=True)
    sqe = DivergenceSpec.squared_euclidean()
    assert domain_contains(sqe, np.array([-5.0]), require_interior=True)


def test_specs_compare_and_hash_by_kind_and_matrix_values():
    eye = DivergenceSpec.squared_mahalanobis(np.eye(2))
    signed_zeros = DivergenceSpec.squared_mahalanobis(np.array([[1.0, -0.0], [-0.0, 1.0]]))
    assert eye == signed_zeros and hash(eye) == hash(signed_zeros)
    assert eye != DivergenceSpec.squared_mahalanobis(2.0 * np.eye(2))
    assert eye != DivergenceSpec.squared_mahalanobis(np.eye(3))
    assert eye != DivergenceSpec.squared_euclidean() and eye != SQUARED_MAHALANOBIS
    assert DivergenceSpec.kl() == DivergenceSpec(KL) != DivergenceSpec.itakura_saito()
    assert len({eye, signed_zeros, DivergenceSpec.kl(), DivergenceSpec(KL)}) == 2
    assert "_values" not in repr(eye)


# Each public entry point, called on (dataset, labels, optimal centers, spec),
# and the name its message gives the checked argument.
_ENTRY_POINTS = {
    "certify_d_local": (lambda x, p, c, s: certify_d_local(x, p, 2, s), "points"),
    "certify_c_local": (lambda x, p, c, s: certify_c_local(x, p, c, s), "points"),
    "brute_force_best": (lambda x, p, c, s: brute_force_best(x, 2, s), "points"),
    "clustering_loss": (lambda x, p, c, s: clustering_loss(x, p, c, s), "points"),
    "engine.run": (lambda x, p, c, s: run(x, EngineConfig(k=2, divergence=s)), "dataset"),
    "evaluate": (lambda x, p, c, s: evaluate(s, x.points[0], x.points[1]), "first argument"),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize(
    "spec, error, message",
    [
        (DivergenceSpec.kl(), DomainError, "{} outside the (interior )?domain of kl"),
        (DivergenceSpec.itakura_saito(), DomainError, "{} outside the (interior )?domain of itakura"),
        (DivergenceSpec.squared_mahalanobis(np.eye(3)), ValueError, "matrix is 3-dim.*, {} 2-dim"),
    ],
    ids=["kl", "itakura-saito", "mahalanobis-3x3"],
)
def test_entry_points_check_their_inputs_against_the_divergence(entry, spec, error, message):
    # N(0, 1) points leave dom(phi) of KL and Itakura-Saito; the matrix does
    # not match their dimension.
    data = Dataset(np.random.default_rng(0).normal(size=(12, 2)), np.ones(12))
    labels = np.array([0, 1] * 6)
    centers = cluster_stats(data, labels, 2).centers()
    call, what = _ENTRY_POINTS[entry]
    with pytest.raises(error, match=message.format(what)):
        call(data, labels, centers, spec)


def test_certify_c_local_requires_centers_inside_the_interior():
    # Zeros lie in dom(phi) of KL but not in its interior, where the centers must lie.
    data = Dataset(np.array([[0.0, 1.0], [0.0, 2.0], [1.0, 1.0], [2.0, 3.0]]), np.ones(4))
    labels = np.array([0, 0, 1, 1])
    centers = cluster_stats(data, labels, 2).centers()
    with pytest.raises(DomainError, match="centers outside the interior domain of kl"):
        certify_c_local(data, labels, centers, DivergenceSpec.kl())


def test_load_mahalanobis_csv(tmp_path):
    path = tmp_path / "matrix.csv"
    matrix = random_spd(np.random.default_rng(9), 3)
    np.savetxt(path, matrix, delimiter=",")
    loaded = load_csv(path).rows
    spec = DivergenceSpec.squared_mahalanobis(loaded)
    assert spec.kind == SQUARED_MAHALANOBIS
    np.testing.assert_allclose(spec.matrix, matrix, rtol=1e-12, atol=1e-15)
