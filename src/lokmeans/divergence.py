"""Closed-form Bregman divergences and their one input check, ``check_domain``.

Four divergences are supported, each given by its generating convex
function phi:

* squared Euclidean        phi(x) = ||x||^2
* squared Mahalanobis      phi(x) = x^T A x, A symmetric positive definite
* generalized KL           phi(x) = sum_i x_i log x_i
* Itakura-Saito            phi(x) = -sum_i log x_i

``evaluate`` and ``rowwise`` use the closed forms directly rather than
the generic phi / grad-phi expression; the equivalence of the two is
covered by tests. ``pairwise`` instead splits every divergence into a
row term, a column term and one matrix product (Banerjee et al.,
*Clustering with Bregman Divergences*, JMLR 2005), so an (N, K) matrix
costs one GEMM and no (N, K, d) scratch; ``point_terms`` holds the part
that depends on the points alone, for a caller that reuses it. ``phi``
evaluates the generating function itself, for the d-local certificate's
Bregman-information form. For Mahalanobis, ``phi`` (and so ``rowwise``)
and ``point_terms`` both take x^T A x as one matrix product ``x @ A`` and
a row-wise dot product with x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SQUARED_EUCLIDEAN = "squared-euclidean"
SQUARED_MAHALANOBIS = "squared-mahalanobis"
KL = "kl"
ITAKURA_SAITO = "itakura-saito"

KINDS = (SQUARED_EUCLIDEAN, SQUARED_MAHALANOBIS, KL, ITAKURA_SAITO)

# Relative pivot cutoff below which a Mahalanobis matrix is rejected as
# numerically singular.
_SPD_PIVOT_RTOL = 1e-12


class DomainError(ValueError):
    """An argument lies outside the domain required by the divergence."""


def _validate_spd(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"Mahalanobis matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("Mahalanobis matrix contains non-finite entries")
    scale = np.abs(a).max()
    if scale == 0.0 or np.abs(a - a.T).max() > _SPD_PIVOT_RTOL * scale:
        raise ValueError("Mahalanobis matrix must be symmetric")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Mahalanobis matrix must be positive definite") from exc
    # Cholesky pivots are diag(L)^2; a tiny pivot means the matrix is
    # positive definite only up to rounding, which we reject as well.
    if (np.diag(chol) ** 2).min() < _SPD_PIVOT_RTOL * scale:
        raise ValueError("Mahalanobis matrix is numerically singular")
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class DivergenceSpec:
    """Identifies a divergence; carries the matrix for the Mahalanobis case."""

    kind: str
    matrix: np.ndarray | None = field(default=None, compare=False)
    # The matrix's bytes with -0.0 as +0.0: equality and hashing compare them.
    _values: bytes | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown divergence kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == SQUARED_MAHALANOBIS:
            if self.matrix is None:
                raise ValueError("squared-mahalanobis requires a matrix")
            object.__setattr__(self, "matrix", _validate_spd(self.matrix))
            object.__setattr__(self, "_values", (self.matrix + 0.0).tobytes())
        elif self.matrix is not None:
            raise ValueError(f"{self.kind} does not take a matrix")

    @property
    def quadratic(self) -> bool:
        """Whether phi(x) = x^T A x; squared Euclidean is A = I, ``matrix`` None."""
        return self.kind in (SQUARED_EUCLIDEAN, SQUARED_MAHALANOBIS)

    @classmethod
    def squared_euclidean(cls) -> "DivergenceSpec":
        return cls(SQUARED_EUCLIDEAN)

    @classmethod
    def squared_mahalanobis(cls, matrix: np.ndarray) -> "DivergenceSpec":
        return cls(SQUARED_MAHALANOBIS, matrix)

    @classmethod
    def kl(cls) -> "DivergenceSpec":
        return cls(KL)

    @classmethod
    def itakura_saito(cls) -> "DivergenceSpec":
        return cls(ITAKURA_SAITO)


def domain_contains(spec: DivergenceSpec, value: np.ndarray, require_interior: bool = False) -> bool:
    """Whether ``value`` lies in dom(phi) (or its interior)."""
    v = np.asarray(value, dtype=np.float64)
    if not np.isfinite(v).all():
        return False
    if spec.quadratic:
        return True
    if spec.kind == KL:
        # dom(phi) allows zeros; the interior does not.
        return bool((v > 0.0).all()) if require_interior else bool((v >= 0.0).all())
    return bool((v > 0.0).all())


def check_domain(spec: DivergenceSpec, value, what: str, require_interior: bool = False) -> None:
    """Raise ValueError when a Mahalanobis matrix does not match the rows ``value``
    (named ``what``), DomainError when a value lies outside dom(phi) or its interior."""
    dim = np.shape(value)[-1]
    if spec.matrix is not None and len(spec.matrix) != dim:
        raise ValueError(f"Mahalanobis matrix is {len(spec.matrix)}-dimensional, {what} {dim}-dimensional")
    if not domain_contains(spec, value, require_interior):
        raise DomainError(f"{what} outside the {'interior ' if require_interior else ''}domain of {spec.kind}")


def rowwise(spec: DivergenceSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Divergence over the last axis; broadcasts over leading axes.

    Assumes in-domain inputs: first argument in dom(phi), second in its
    interior. Public entry points validate; internal hot paths rely on
    dataset-level validation done once up front.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if spec.quadratic:
        return phi(spec, x - y)
    if spec.kind == KL:
        x, y = np.broadcast_arrays(x, y)
        positive = x > 0.0
        logs = np.where(positive, x * np.log(np.where(positive, x, 1.0) / y), 0.0)
        return logs.sum(axis=-1) - x.sum(axis=-1) + y.sum(axis=-1)
    ratio = x / y
    return (ratio - np.log(ratio) - 1.0).sum(axis=-1)


def phi(spec: DivergenceSpec, x: np.ndarray) -> np.ndarray:
    """The generating function over the last axis (KL: 0 log 0 = 0).

    KL drops phi's linear term ``-sum(x)``: it changes no divergence.
    Mahalanobis takes ``x @ A`` and then its row-wise dot product with
    ``x``, as ``point_terms`` forms its row term.
    """
    if spec.matrix is not None:
        return np.einsum("...i,...i->...", x @ spec.matrix, x)
    if spec.quadratic:
        return np.einsum("...i,...i->...", x, x)
    if spec.kind == KL:
        positive = x > 0.0
        return np.where(positive, x * np.log(np.where(positive, x, 1.0)), 0.0).sum(axis=-1)
    return -np.log(x).sum(axis=-1)


def phi_magnitude(spec: DivergenceSpec, x: np.ndarray) -> np.ndarray:
    """Per row of ``x``, a bound on |phi| and on its sensitivity to relative
    error: ``||A||_F ||x||^2`` for quadratic phi (A = I for squared
    Euclidean), ``sum_j x_j (1 + |log x_j|)`` for KL and ``sum_j (1 + |log
    x_j|)`` for Itakura-Saito (see ``verify.adjacent_delta_bound``)."""
    if spec.quadratic:
        scale = 1.0 if spec.matrix is None else float(np.linalg.norm(spec.matrix))
        return scale * np.einsum("ij,ij->i", x, x)
    logs = 1.0 + np.abs(np.log(np.where(x > 0.0, x, 1.0)))
    return (x * logs if spec.kind == KL else logs).sum(axis=1)


def evaluate(spec: DivergenceSpec, x: np.ndarray, y: np.ndarray) -> float:
    """D(x, y) for a single pair of points, with full domain validation."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"expected matching 1-D vectors, got shapes {x.shape} and {y.shape}")
    check_domain(spec, x, "first argument")
    check_domain(spec, y, "second argument", require_interior=True)
    return float(rowwise(spec, x, y))


@dataclass(frozen=True)
class PointTerms:
    """The point side of ``pairwise`` for one point set: it depends on the
    points alone, so a run computes it once and passes it to every call.

    ``mean`` is the shift of the quadratic kinds (None otherwise), ``operand``
    the matrix the centers' side multiplies (the shifted points, times A for
    Mahalanobis) and ``row`` the per-point term. ``spec`` and ``points`` are
    the arguments it was computed from.
    """

    spec: DivergenceSpec
    points: np.ndarray
    mean: np.ndarray | None
    operand: np.ndarray
    row: np.ndarray


def point_terms(spec: DivergenceSpec, points: np.ndarray) -> PointTerms:
    """The point side of ``pairwise`` for ``points``: its mean shift, GEMM
    operand and row term."""
    x = np.asarray(points, dtype=np.float64)
    mean = None
    if spec.quadratic:
        mean = x.mean(axis=0)
        shifted = x - mean
        x = shifted if spec.matrix is None else shifted @ spec.matrix
        row = np.einsum("ij,ij->i", x, shifted)
    else:
        row = phi(spec, x) - (x.sum(axis=1) if spec.kind == KL else x.shape[1])
    return PointTerms(spec, points, mean, x, row)


def pairwise(
    spec: DivergenceSpec,
    points: np.ndarray,
    centers: np.ndarray,
    *,
    terms: PointTerms | None = None,
) -> np.ndarray:
    """(N, K) matrix of divergences from each point to each center.

    Evaluates ``D(X, C) = row(X) + col(C) - X @ G(C).T``, clamped at 0:

    * squared Euclidean    ||x||^2 + ||c||^2 - 2 x.c
    * squared Mahalanobis  the same in the inner product of A
    * KL                   sum(x log x - x) + sum(c) - x.log(c), 0 log 0 = 0
    * Itakura-Saito        x.(1/c) - sum(log x) + sum(log c) - d

    For the quadratic kinds points and centers are first shifted by the
    point mean. D is translation invariant, and without the shift the
    expansion cancels terms of size offset^2 down to spread^2, which on
    data far from the origin leaves rounding larger than real move gains.
    Assumes in-domain inputs, like ``rowwise``; a non-finite center yields
    a non-finite column.

    ``terms``, from ``point_terms(spec, points)`` with these very objects,
    skips recomputing the point side; the result is the same to the bit.

    The result is center-major: the transpose of a C-contiguous (K, N)
    product ``G(C) @ X.T``, so a min or argmax over the centers of each
    point reads contiguous memory.
    """
    if terms is None:
        terms = point_terms(spec, points)
    elif terms.spec is not spec or terms.points is not points:
        raise ValueError("point terms were computed for another divergence or point set")
    c = np.asarray(centers, dtype=np.float64)
    if spec.quadratic:
        c = c - terms.mean
        ca = c if spec.matrix is None else c @ spec.matrix
        out = (-2.0 * c) @ terms.operand.T
        col = np.einsum("ij,ij->i", ca, c)
    elif spec.kind == KL:
        out = -np.log(c) @ terms.operand.T
        col = c.sum(axis=1)
    else:
        out = (1.0 / c) @ terms.operand.T
        col = np.log(c).sum(axis=1)
    out += terms.row[None, :]
    out += col[:, None]
    return np.maximum(out, 0.0, out=out).T
