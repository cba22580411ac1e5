"""Seeded workload generators and the operations the benchmark times.

Each workload has a ``build(seed, workdir)`` that makes its inputs as a
pure function of the seed (files go under ``workdir``), a ``warmup``, and
an ``op(inputs, index)`` that runs one replicate against the public API
or CLI and returns a list of ``Result`` records for the checker. Results
carry what a `RunReport` or the CLI's JSON says together with the
dataset the run saw, so every check recomputes from data the benchmark
owns. ``CERTIFY_FIRST`` adds certificates to op 0's results that are
too costly to compute on every op; the runner computes them untimed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from lokmeans import cli, data_io, engine, verify
from lokmeans.divergence import KL, SQUARED_EUCLIDEAN, DivergenceSpec
from lokmeans.model import Dataset

import checks

ESCAPE_SQE = "escape-sqe"
LLOYD_DIVERGENCES = "lloyd-divergences"
TIES_CERTIFY = "ties-certify"

CLI_DIVERGENCES = tuple(cli.DIVERGENCE_FLAGS)

# Stable per-workload stream ids mixed into the seed, so that two
# workloads given the same --seed still draw unrelated inputs.
_STREAM = {ESCAPE_SQE: 1, LLOYD_DIVERGENCES: 2, TIES_CERTIFY: 3}


def rng_for(workload: str, seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload], *key])


@dataclass
class Result:
    """One clustering run as the checker sees it."""

    instance: str
    variant: str
    dataset: Dataset
    k: int
    spec: DivergenceSpec
    termination: str
    final_loss: float
    trajectory: np.ndarray
    labels: np.ndarray
    centers: np.ndarray | None = None
    # Certificates the op itself computed, by name ("d_local", "c_local").
    certificates: dict = field(default_factory=dict)
    # Lower bound on the loss, when the op computed the global optimum.
    optimum: float | None = None


def from_report(instance, variant, dataset, k, spec, report) -> Result:
    return Result(
        instance=instance,
        variant=variant,
        dataset=dataset,
        k=k,
        spec=spec,
        termination=report.termination,
        final_loss=float(report.final_loss),
        trajectory=np.asarray(report.loss_trajectory, dtype=np.float64),
        labels=np.asarray(report.final_labels),
        centers=np.asarray(report.final_centers),
    )


# ---------------------------------------------------------------- escape-sqe

ESCAPE_SHAPE = {"n": 1000, "d": 8, "k": 16}
ESCAPE_SQE_VARIANTS = ("none", "d-lo", "min-d-lo")
# (name, n, d, k) of the small instances each op draws afresh, all five
# variants on each: the escape variants' results are certified on the
# first, and every result on the second is checked against its
# brute-force optimum.
ESCAPE_CERTIFIED = ("normal-100x2", 100, 2, 4)
ESCAPE_BRUTE = ("normal-8x2", 8, 2, 3)


@dataclass
class EscapeInputs:
    seed: int
    dataset: Dataset
    config: engine.EngineConfig


def build_escape(seed: int, workdir: str) -> EscapeInputs:
    rng = rng_for(ESCAPE_SQE, seed)
    points = rng.standard_normal((ESCAPE_SHAPE["n"], ESCAPE_SHAPE["d"]))
    weights = rng.integers(1, 4, size=ESCAPE_SHAPE["n"]).astype(np.float64)
    config = engine.EngineConfig(
        k=ESCAPE_SHAPE["k"],
        divergence=DivergenceSpec.squared_euclidean(),
        init="kmeans++",
        seed=seed,
    )
    return EscapeInputs(seed, Dataset(points, weights), config)


def _normal_dataset(rng: np.random.Generator, n: int, d: int) -> Dataset:
    return Dataset(rng.standard_normal((n, d)), rng.integers(1, 4, size=n).astype(np.float64))


def certify(res: Result, which: str) -> None:
    """Store the ``which`` certificate ("d_local" or "c_local") of one result."""
    if which == "d_local":
        res.certificates[which] = verify.certify_d_local(res.dataset, res.labels, res.k, res.spec)
    else:
        res.certificates[which] = verify.certify_c_local(res.dataset, res.labels, res.centers, res.spec)


def op_escape(inputs: EscapeInputs, index: int) -> list[Result]:
    """One `cli.run_bench` replicate, unrolled so each report stays visible.

    Then all five variants on two small instances drawn for this op: the
    certified one covers `c-lo`, `pnx` and `certify_d_local`, which the
    large instance is too costly for, and the brute-force one bounds
    every variant's loss from below.
    """
    base = inputs.config
    # The replicate seed run_bench derives for replicate ``index``.
    seed = cli._derived_seed(base.seed, 1, index)
    centers = engine.init_centers(
        inputs.dataset, base.k, base.init, base.divergence, np.random.default_rng(seed)
    )
    results = []
    for variant in ESCAPE_SQE_VARIANTS:
        config = replace(base, variant=variant, seed=seed, initial_centers=centers.copy())
        report = engine.run(inputs.dataset, config)
        results.append(
            from_report("normal", variant, inputs.dataset, base.k, base.divergence, report)
        )
    rng = rng_for(ESCAPE_SQE, inputs.seed, index)
    name, n, d, k = ESCAPE_CERTIFIED
    small = _all_variants(name, _normal_dataset(rng, n, d), k, base.divergence, rng, "kmeans++")
    for res in small:
        if res.variant in checks.REQUIRED_CERTIFICATE:
            certify(res, checks.REQUIRED_CERTIFICATE[res.variant][0])
    name, n, d, k = ESCAPE_BRUTE
    dataset = _normal_dataset(rng, n, d)
    _, optimum = verify.brute_force_best(dataset, k, base.divergence)
    brute = _all_variants(name, dataset, k, base.divergence, rng, "kmeans++")
    for res in brute:
        res.optimum = optimum
    return results + small + brute


def certify_escape_first(results: list[Result]) -> None:
    """d-local certificates for op 0's large-instance escape results."""
    for res in results:
        if res.instance == "normal" and res.variant in ("d-lo", "min-d-lo"):
            certify(res, "d_local")


# --------------------------------------------------------- lloyd-divergences

LLOYD_SHAPE = {"distinct": 2000, "duplicates": 200, "count_only": 80, "d": 16, "k": 32, "blobs": 32}
# The mixture (blob centers, count rates, Mahalanobis matrix) is one fixed
# problem; --seed draws the sample from it. With a geometry drawn per
# seed, Lloyd's iteration count and so the op time moved with the seed.
_LLOYD_MIXTURE_SEED = 20250606


@dataclass
class LloydInputs:
    seed: int
    data_csv: str
    matrix_csv: str
    # The dataset each divergence's CLI run sees after load, merge and filter.
    datasets: dict
    specs: dict


def lloyd_table(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, matrix): weight column then 16 coordinates, and a 16x16 SPD matrix.

    Coordinates 0..14 are log-normal around 32 blob centers; coordinate 15
    is a Poisson count with zeros, which KL and Itakura-Saito must drop.
    The last ``count_only`` distinct rows copy an earlier row except for
    the count, so dropping it makes the domain filter merge them again.
    """
    shape = LLOYD_SHAPE
    n, d, blobs, m = shape["distinct"], shape["d"], shape["blobs"], shape["count_only"]
    mixture = np.random.default_rng(_LLOYD_MIXTURE_SEED)
    log_centers = mixture.normal(0.0, 1.0, size=(blobs, d - 1))
    rates = mixture.uniform(0.2, 4.0, size=blobs)
    basis = mixture.normal(size=(d, d))
    matrix = basis @ basis.T / d + np.eye(d)

    rng = rng_for(LLOYD_DIVERGENCES, seed)
    member = rng.integers(0, blobs, size=n)
    coords = np.exp(log_centers[member] + rng.normal(0.0, 0.1, size=(n, d - 1)))
    counts = rng.poisson(rates[member]).astype(np.float64)
    coords[n - m :] = coords[:m]
    counts[n - m :] = counts[:m] + 1.0 + rng.integers(0, 3, size=m)
    distinct = np.column_stack([coords, counts])
    copies = distinct[rng.integers(0, n, size=shape["duplicates"])]
    rows = np.vstack([distinct, copies])
    weights = rng.integers(1, 4, size=rows.shape[0]).astype(np.float64)
    table = np.column_stack([weights, rows])[rng.permutation(rows.shape[0])]
    return table, (matrix + matrix.T) / 2.0


def _lloyd_spec(flag: str, matrix: np.ndarray) -> DivergenceSpec:
    kind = cli.DIVERGENCE_FLAGS[flag]
    return DivergenceSpec(kind, matrix if flag == "mahalanobis" else None)


def build_lloyd(seed: int, workdir: str) -> LloydInputs:
    table, matrix = lloyd_table(seed)
    data_csv = os.path.join(workdir, f"lloyd-{seed}.csv")
    matrix_csv = os.path.join(workdir, f"lloyd-{seed}-matrix.csv")
    np.savetxt(data_csv, table, fmt="%.17g", delimiter=",")
    np.savetxt(matrix_csv, matrix, fmt="%.17g", delimiter=",")
    merged = data_io.dedup_merge(data_io.load_csv(data_csv, weight_column=0))
    loaded_matrix = np.loadtxt(matrix_csv, delimiter=",", ndmin=2)
    datasets, specs = {}, {}
    for flag in CLI_DIVERGENCES:
        spec = _lloyd_spec(flag, loaded_matrix)
        datasets[flag], _ = data_io.filter_domain(merged, spec)
        specs[flag] = spec
    return LloydInputs(seed, data_csv, matrix_csv, datasets, specs)


def lloyd_argv(inputs: LloydInputs, flag: str, seed: int, out: str) -> list[str]:
    argv = [
        "run", "--data", inputs.data_csv, "--weights-col", "0",
        "--k", str(LLOYD_SHAPE["k"]), "--init", "kmeans++", "--variant", "none",
        "--divergence", flag, "--seed", str(seed), "--json", "--out", out,
    ]
    if flag == "mahalanobis":
        argv += ["--mahalanobis-matrix", inputs.matrix_csv]
    return argv


def op_lloyd(inputs: LloydInputs, index: int) -> list[Result]:
    """Four in-process `lokmeans run` calls, one per divergence."""
    seed = cli._derived_seed(inputs.seed, 2, index)
    out = os.path.join(os.path.dirname(inputs.data_csv), f"run-{os.getpid()}.json")
    results = []
    for flag in CLI_DIVERGENCES:
        # The CLI reports dropped dimensions on stderr; keep the benchmark's
        # own output to its result lines.
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            status = cli.main(lloyd_argv(inputs, flag, seed, out))
        if status != 0:
            raise RuntimeError(f"lokmeans run --divergence {flag} exited {status}: {stderr.getvalue()}")
        with open(out, encoding="utf-8") as handle:
            payload = json.load(handle)
        os.remove(out)
        report = payload["report"]
        results.append(
            Result(
                instance="csv",
                variant=flag,
                dataset=inputs.datasets[flag],
                k=LLOYD_SHAPE["k"],
                spec=inputs.specs[flag],
                termination=report["termination"],
                final_loss=float(report["final_loss"]),
                trajectory=np.asarray(report["loss_trajectory"], dtype=np.float64),
                labels=np.asarray(report["final_labels"], dtype=np.int64),
            )
        )
    return results


# -------------------------------------------------------------- ties-certify

# (name, n draws, d, k) of the instances every op draws afresh.
TIES_INSTANCES = (("grid-200x2", 200, 2, 10), ("grid-50x1", 50, 1, 8))
TIES_BRUTE = ("brute-11x2", 11, 2, 3)
TIES_DIVERGENCES = (SQUARED_EUCLIDEAN, KL)


@dataclass
class TiesInputs:
    seed: int


def build_ties(seed: int, workdir: str) -> TiesInputs:
    # Every op draws its own instances from (seed, op index).
    return TiesInputs(seed)


def ties_instances(seed: int, index: int) -> list[tuple[str, Dataset, int]]:
    rng = rng_for(TIES_CERTIFY, seed, index)
    out = []
    for name, n, d, k in TIES_INSTANCES + (TIES_BRUTE,):
        grid_seed = int(rng.integers(0, 2**63 - 1))
        out.append((name, data_io.synth_uniform_grid(n, d, grid_seed), k))
    return out


def op_ties(inputs: TiesInputs, index: int) -> list[Result]:
    """All five variants from shared uniform-init centers, each certified."""
    instances = ties_instances(inputs.seed, index)
    results = []
    for name, dataset, k in instances[: len(TIES_INSTANCES)]:
        for kind in TIES_DIVERGENCES:
            spec = DivergenceSpec(kind)
            rng = np.random.default_rng([inputs.seed, index, k, dataset.n])
            results += _all_variants(name, dataset, k, spec, rng, "uniform")
    for res in results:
        certify(res, "d_local")
        certify(res, "c_local")
    name, dataset, k = instances[-1]
    spec = DivergenceSpec.squared_euclidean()
    _, optimum = verify.brute_force_best(dataset, k, spec)
    rng = np.random.default_rng([inputs.seed, index, k, dataset.n])
    brute = _all_variants(name, dataset, k, spec, rng, "uniform")
    for res in brute:
        res.optimum = optimum
    return results + brute


def _all_variants(name, dataset, k, spec, rng, init) -> list[Result]:
    """Every engine variant from one set of ``init`` centers drawn with ``rng``."""
    centers = engine.init_centers(dataset, k, init, spec, rng)
    results = []
    for variant in engine.VARIANTS:
        config = engine.EngineConfig(
            k=k, divergence=spec, variant=variant, initial_centers=centers.copy()
        )
        report = engine.run(dataset, config)
        results.append(from_report(name, variant, dataset, k, spec, report))
    return results


# A warm-up runs code an op runs, once and on no more data than the op's,
# so that first-call costs (lazy imports, allocator growth) fall into
# set-up and not into op 0. Every path an op takes also runs, untimed, in
# the peak-memory pass of op 0, before the timed loop starts.
_WARMUP_SEED = 0
WARMUP_ITERATIONS = 12


def warmup_escape(inputs: EscapeInputs) -> None:
    """The op's first step, kmeans++ and Lloyd's iteration, on the workload's data.

    Its escape steps and certificates then run first in the peak-memory
    pass. Warming them up on tiny instances here made `setup_s` mostly
    per-call overhead, which the machine's slow and fast states moved
    by 1.5x against 1.1x for the op. Lloyd's iteration stops after
    WARMUP_ITERATIONS steps, fewer than it takes to converge on any seed
    tried (14 to 46), so the warm-up's work does not depend on the seed.
    """
    config = inputs.config
    rng = np.random.default_rng(config.seed)
    centers = engine.init_centers(inputs.dataset, config.k, config.init, config.divergence, rng)
    engine.run(
        inputs.dataset,
        replace(config, initial_centers=centers, max_iterations=WARMUP_ITERATIONS),
    )


def warmup_lloyd(inputs: LloydInputs) -> None:
    out = os.path.join(os.path.dirname(inputs.data_csv), f"warmup-{os.getpid()}.json")
    argv = lloyd_argv(inputs, "kl", _WARMUP_SEED, out)
    # Large enough that the CLI skips exhaustive certification, as in the op.
    argv[argv.index("--k") + 1] = "16"
    with contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv + ["--max-iters", "1"])
    os.remove(out)


def warmup_ties(inputs: TiesInputs) -> None:
    rng = np.random.default_rng(_WARMUP_SEED)
    dataset = data_io.synth_uniform_grid(20, 2, _WARMUP_SEED)
    for kind in TIES_DIVERGENCES:
        spec = DivergenceSpec(kind)
        for res in _all_variants("warmup", dataset, 3, spec, rng, "uniform"):
            certify(res, "d_local")
            certify(res, "c_local")
    spec = DivergenceSpec(SQUARED_EUCLIDEAN)
    verify.brute_force_best(data_io.synth_uniform_grid(5, 2, _WARMUP_SEED), 2, spec)


BUILD_INPUTS = {ESCAPE_SQE: build_escape, LLOYD_DIVERGENCES: build_lloyd, TIES_CERTIFY: build_ties}
OPS = {ESCAPE_SQE: op_escape, LLOYD_DIVERGENCES: op_lloyd, TIES_CERTIFY: op_ties}
WARMUPS = {ESCAPE_SQE: warmup_escape, LLOYD_DIVERGENCES: warmup_lloyd, TIES_CERTIFY: warmup_ties}
CERTIFY_FIRST = {ESCAPE_SQE: certify_escape_first}
