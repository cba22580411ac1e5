"""The experiment protocol: paired runs, replicated benchmarks and grid sweeps.

Each escape variant is compared with plain K-means run from the same
initial centers, drawn per replicate from a seed derived from the master
seed. The library is called through module attributes
(``engine.run``, ``verify.certify_c_local``), so that a wrapper set on a
module, as the traced benchmark sets, sees every call made from here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import engine, model, verify
from .data_io import counterexample_instance, synth_uniform_grid
from .divergence import DivergenceSpec
from .engine import EngineConfig, RunReport
from .model import Dataset

# Single-move certification is skipped above this many (point, destination)
# candidates. It costs O(N K d); the gate stays until the benchmark
# certifies at that scale (see ROADMAP.md).
MAX_CERTIFY_ADJACENTS = 20000

# How an escape variant compares with plain K-means run from the same centers.
IMPROVEMENT_METRICS = [
    "improvement_proportion",
    "improvement_ratio_mean",
    "iteration_increase_ratio_mean",
    "new_step_invocations_mean",
]


def derived_seed(master: int, *key: int) -> int:
    """A seed for the job named by ``key``, independent of every other key's."""
    sequence = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _check_replicates(replicates: int) -> None:
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")


def certificates(
    dataset: Dataset,
    labels: np.ndarray,
    centers: np.ndarray,
    spec: DivergenceSpec,
    tie_tolerance: float,
) -> dict:
    """Both certificates at the labeling's ``len(centers)`` centers, as plain dicts;
    the d-local one is None, with a note, above ``MAX_CERTIFY_ADJACENTS`` moves."""
    c_cert = verify.certify_c_local(dataset, labels, centers, spec, tie_tolerance=tie_tolerance)
    if dataset.n * (len(centers) - 1) > MAX_CERTIFY_ADJACENTS:
        note = "skipped: instance above MAX_CERTIFY_ADJACENTS"
        return {"c_local": asdict(c_cert), "d_local": None, "d_local_note": note}
    d_cert = verify.certify_d_local(dataset, labels, len(centers), spec)
    return {"c_local": asdict(c_cert), "d_local": asdict(d_cert)}


def certify_labels(
    dataset: Dataset,
    labels: np.ndarray,
    k: int,
    spec: DivergenceSpec,
    tie_tolerance: float,
    brute_limit: int,
) -> dict:
    """Loss and certificates of a labeling at its optimal centers, plus the
    global optimum when ``k**n`` is within ``brute_limit`` and ``BRUTE_FORCE_LIMIT``."""
    labels = model.check_labels(labels, dataset.n, k)
    # The first unused label, found before any (k, d) statistics exist:
    # k may be far above n when it comes from a file's largest label.
    used = np.unique(labels)
    if used.size < k:
        gaps = np.flatnonzero(used != np.arange(used.size))
        first = int(gaps[0]) if gaps.size else used.size
        raise ValueError(f"cluster {first} is empty under the given labels")
    centers = model.cluster_stats(dataset, labels, k).centers()
    loss = model.clustering_loss(dataset, labels, centers, spec)
    payload = {"loss": loss, "k": k, **certificates(dataset, labels, centers, spec, tie_tolerance)}
    if k**dataset.n <= min(brute_limit, verify.BRUTE_FORCE_LIMIT):
        _, best = verify.brute_force_best(dataset, k, spec)
        payload["global_loss"] = best
        payload["gap_to_global"] = loss - best
    return payload


def _paired_runs(
    dataset: Dataset, config: EngineConfig, variants, seed: int, centers: np.ndarray | None = None
) -> list[RunReport]:
    """Each of ``variants`` run with ``seed`` from one set of initial centers,
    drawn from ``seed`` with ``config``'s init unless ``centers`` are given."""
    if centers is None:
        rng = np.random.default_rng(seed)
        centers = engine.init_centers(dataset, config.k, config.init, config.divergence, rng)
    return [
        engine.run(
            dataset, replace(config, variant=variant, seed=seed, initial_centers=centers.copy())
        )
        for variant in variants
    ]


def _improvement_metrics(plain: list[RunReport], tuned: list[RunReport]) -> dict[str, float]:
    """The ``IMPROVEMENT_METRICS`` of paired plain and escape runs.

    The proportion counts pairs in which the escape run ends strictly
    lower; the three means average over those improved pairs only. A
    metric with no pair to average is NaN.
    """
    plain_losses = np.array([r.final_loss for r in plain], dtype=np.float64)
    plain_iterations = np.array([r.iterations for r in plain], dtype=np.float64)
    losses = np.array([r.final_loss for r in tuned], dtype=np.float64)
    iterations = np.array([r.iterations for r in tuned], dtype=np.float64)
    invocations = np.array([r.new_step_invocations for r in tuned], dtype=np.float64)
    improved = losses < plain_losses
    metrics = dict.fromkeys(IMPROVEMENT_METRICS, float("nan"))
    if improved.size:
        metrics["improvement_proportion"] = float(improved.mean())
    if improved.any():
        base, base_iters = plain_losses[improved], plain_iterations[improved]
        metrics["improvement_ratio_mean"] = float(((base - losses[improved]) / base).mean())
        metrics["iteration_increase_ratio_mean"] = float(
            ((iterations[improved] - base_iters) / base_iters).mean()
        )
        metrics["new_step_invocations_mean"] = float(invocations[improved].mean())
    return metrics


@dataclass
class BenchRecord:
    replicate: int
    variant: str
    loss: float
    iterations: int
    new_step_invocations: int
    empty_cluster_repairs: int
    wall_time: float
    termination: str


def run_bench(
    dataset: Dataset,
    base_config: EngineConfig,
    variants: list[str],
    replicates: int,
) -> tuple[list[BenchRecord], list[dict]]:
    """Run every variant against shared per-replicate initial centers.

    Replicate ``i`` runs with seed ``derived_seed(base_config.seed, 1, i)``
    and draws its centers from it with ``base_config``'s init. Plain
    K-means ("none") is added when ``variants`` lacks it. Returns one
    record per run, replicate-major, and one summary per variant.
    """
    _check_replicates(replicates)
    if len(set(variants)) != len(variants):
        raise ValueError(f"each variant may be listed once, got {','.join(variants)}")
    if "none" not in variants:
        variants = ["none"] + variants
    nested = [
        _paired_runs(dataset, base_config, variants, derived_seed(base_config.seed, 1, index))
        for index in range(replicates)
    ]
    records = [
        BenchRecord(
            replicate=index,
            variant=variant,
            loss=report.final_loss,
            iterations=report.iterations,
            new_step_invocations=report.new_step_invocations,
            empty_cluster_repairs=report.empty_cluster_repairs,
            wall_time=report.wall_time,
            termination=report.termination,
        )
        for index, reports in enumerate(nested)
        for variant, report in zip(variants, reports)
    ]
    plain = [reports[variants.index("none")] for reports in nested]
    summaries = []
    for column, variant in enumerate(variants):
        reports = [row[column] for row in nested]
        losses = np.array([r.final_loss for r in reports])
        iterations = np.array([r.iterations for r in reports], dtype=np.float64)
        summary = {
            "variant": variant,
            "init": base_config.init,
            "k": base_config.k,
            "replicates": replicates,
            "loss_mean": float(losses.mean()),
            "loss_variance": float(np.var(losses, ddof=1)) if replicates > 1 else float("nan"),
            "loss_min": float(losses.min()),
            "time_mean_seconds": float(np.mean([r.wall_time for r in reports])),
            "iterations_mean": float(iterations.mean()),
            **_improvement_metrics(plain, reports),
        }
        if variant == "none":
            # Self-comparison: every difference is exactly zero.
            summary.update(dict.fromkeys(IMPROVEMENT_METRICS, 0.0))
        summaries.append(summary)
    return records, summaries


def run_sweep(
    base_config: EngineConfig,
    n_grid: list[int],
    k_grid: list[int],
    d: int,
    replicates: int,
) -> dict[str, np.ndarray]:
    """Per-(n, k) improvement matrices for one variant against plain K-means.

    ``base_config`` names the escape variant and carries the divergence,
    init, iteration cap and tie tolerance; its seed is the master of every
    derived seed, and each cell sets its own k. Each replicate draws a fresh
    synthetic dataset; both runs share its initial centers. Cells whose
    sampled datasets cannot host k clusters (fewer distinct points than k)
    drop those replicates; a cell with no usable replicate, or no improved
    run for the ratio metrics, is NaN.
    """
    _check_replicates(replicates)

    def one_cell(row: int, col: int) -> dict[str, float]:
        n, k = n_grid[row], k_grid[col]
        plain, tuned = [], []
        for rep in range(replicates):
            dataset = synth_uniform_grid(n, d, derived_seed(base_config.seed, 2, row, col, rep, 0))
            if k > dataset.n:
                continue
            seed = derived_seed(base_config.seed, 2, row, col, rep, 1)
            config = replace(base_config, k=k)
            pair = _paired_runs(dataset, config, ("none", config.variant), seed)
            plain.append(pair[0])
            tuned.append(pair[1])
        return _improvement_metrics(plain, tuned)

    values = [one_cell(row, col) for row in range(len(n_grid)) for col in range(len(k_grid))]
    shape = (len(n_grid), len(k_grid))
    return {
        metric: np.array([cell[metric] for cell in values]).reshape(shape)
        for metric in IMPROVEMENT_METRICS
    }


def run_counterexample(
    max_iterations: int = 10000, tie_tolerance: float = model.TIE_TOLERANCE
) -> dict:
    """All variants on the fixed five-point instance with its fixed centers."""
    dataset, initial = counterexample_instance()
    config = EngineConfig(
        k=2,
        divergence=DivergenceSpec.squared_euclidean(),
        max_iterations=max_iterations,
        tie_tolerance=tie_tolerance,
    )
    reports = dict(
        zip(engine.VARIANTS, _paired_runs(dataset, config, engine.VARIANTS, config.seed, initial))
    )
    baseline = reports["none"].final_loss
    payload = {"baseline_loss": baseline, "variants": {}}
    for variant, report in reports.items():
        payload["variants"][variant] = {
            "final_loss": report.final_loss,
            "iterations": report.iterations,
            "new_step_invocations": report.new_step_invocations,
            "termination": report.termination,
            "final_labels": report.final_labels,
            "final_centers": report.final_centers,
            "loss_trajectory": report.loss_trajectory,
            "normalized_trajectory_percent": report.loss_trajectory / baseline * 100.0,
            "certificates": certificates(
                dataset, report.final_labels, report.final_centers, config.divergence, tie_tolerance
            ),
        }
    return payload
