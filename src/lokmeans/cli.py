"""Command-line harness: single runs, benchmarks, sweeps, and verification.

Subcommands
    run             one clustering run with a report and certificates
    bench           R replicates per variant with shared initial centers
    sweep           benchmark grids over (n, k) on synthetic data
    counterexample  the fixed five-point instance across all variants
    verify          certify a user-supplied labeling, optionally vs brute force

The environment variable LOKMEANS_THREADS bounds the worker pool used for
replicates; aggregation sorts per-run records first, so the thread count
never changes any result.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data_io import (
    counterexample_instance,
    dedup_merge,
    filter_domain,
    load_csv,
    load_mahalanobis_csv,
    synth_uniform_grid,
)
from .divergence import ITAKURA_SAITO, KL, SQUARED_EUCLIDEAN, SQUARED_MAHALANOBIS, DivergenceSpec
from .engine import INITS, VARIANTS, EngineConfig, RunReport, init_centers, run
from .model import Dataset, cluster_stats, clustering_loss
from .verify import BRUTE_FORCE_LIMIT, brute_force_best, certify_c_local, certify_d_local

DIVERGENCE_FLAGS = {
    "sq-euclidean": SQUARED_EUCLIDEAN,
    "mahalanobis": SQUARED_MAHALANOBIS,
    "kl": KL,
    "itakura-saito": ITAKURA_SAITO,
}

# Single-move certification is skipped above this many (point, destination)
# candidates. It costs O(N K d); the gate stays until the benchmark
# certifies at that scale (see ROADMAP.md).
MAX_CERTIFY_ADJACENTS = 20000


def _thread_count() -> int:
    raw = os.environ.get("LOKMEANS_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"LOKMEANS_THREADS must be an integer, got {raw!r}") from None
    return max(1, count)


def _map_jobs(fn, jobs):
    workers = _thread_count()
    if workers == 1 or len(jobs) <= 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


def _derived_seed(master: int, *key: int) -> int:
    sequence = np.random.SeedSequence(master, spawn_key=tuple(key))
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def _parse_synth(text: str) -> tuple[int, int]:
    fields = {}
    for part in text.split(","):
        name, _, value = part.partition("=")
        if name not in ("n", "d") or not value:
            raise ValueError(f"--synth expects n=<N>,d=<D>, got {text!r}")
        fields[name] = int(value)
    if set(fields) != {"n", "d"}:
        raise ValueError(f"--synth expects n=<N>,d=<D>, got {text!r}")
    return fields["n"], fields["d"]


def _parse_grid(text: str, flag: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ValueError(f"{flag} must list at least one value")
    return values


def _divergence_from_args(args) -> DivergenceSpec:
    kind = DIVERGENCE_FLAGS[args.divergence]
    if kind == SQUARED_MAHALANOBIS:
        if not getattr(args, "mahalanobis_matrix", None):
            raise ValueError("--divergence mahalanobis requires --mahalanobis-matrix")
        return DivergenceSpec(kind, load_mahalanobis_csv(args.mahalanobis_matrix))
    return DivergenceSpec(kind)


def _dataset_from_args(args, spec: DivergenceSpec) -> Dataset:
    if getattr(args, "data", None) and getattr(args, "synth", None):
        raise ValueError("pass either --data or --synth, not both")
    if getattr(args, "data", None):
        raw = load_csv(args.data, skip_header=args.skip_header, weight_column=args.weights_col)
        dataset = dedup_merge(raw)
    elif getattr(args, "synth", None):
        n, d = _parse_synth(args.synth)
        dataset = synth_uniform_grid(n, d, _derived_seed(args.seed, 0xDA7A))
    else:
        raise ValueError("a dataset is required: pass --data <csv> or --synth n=<N>,d=<D>")
    if not args.no_filter:
        dataset, dropped = filter_domain(dataset, spec)
        if dropped:
            print(f"dropped {len(dropped)} out-of-domain dimensions: {dropped}", file=sys.stderr)
    return dataset


def _config_from_args(args, spec: DivergenceSpec, k: int | None = None) -> EngineConfig:
    return EngineConfig(
        k=args.k if k is None else k,
        divergence=spec,
        variant=getattr(args, "variant", "none"),
        init=args.init,
        seed=args.seed,
        max_iterations=args.max_iters,
        tie_tolerance=args.tie_tol,
    )


def _jsonable(value):
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        # Only non-finite floats need the element walk (they become null).
        if value.dtype.kind in "iu" or (value.dtype.kind == "f" and np.isfinite(value).all()):
            return value.tolist()
        return _jsonable(value.tolist())
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        number = float(value)
        return number if math.isfinite(number) else None
    return value


def _emit_json(payload, args) -> None:
    text = json.dumps(_jsonable(payload), indent=2, allow_nan=False)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _d_local_certificate(
    dataset: Dataset, labels: np.ndarray, k: int, spec: DivergenceSpec
) -> dict | None:
    """The d-local certificate, or None above ``MAX_CERTIFY_ADJACENTS`` candidates."""
    if dataset.n * (k - 1) > MAX_CERTIFY_ADJACENTS:
        return None
    return asdict(certify_d_local(dataset, labels, k, spec))


def _certificates(dataset: Dataset, report: RunReport, config: EngineConfig) -> dict:
    c_cert = certify_c_local(
        dataset,
        report.final_labels,
        report.final_centers,
        config.divergence,
        tie_tolerance=config.tie_tolerance,
    )
    certs = {
        "c_local": asdict(c_cert),
        "d_local": _d_local_certificate(dataset, report.final_labels, config.k, config.divergence),
    }
    if certs["d_local"] is None:
        certs["d_local_note"] = "skipped: instance above MAX_CERTIFY_ADJACENTS"
    return certs


def cmd_run(args) -> int:
    spec = _divergence_from_args(args)
    dataset = _dataset_from_args(args, spec)
    config = _config_from_args(args, spec)
    report = run(dataset, config)
    certs = _certificates(dataset, report, config)
    payload = {
        "dataset": {"n": dataset.n, "d": dataset.dim, "total_weight": dataset.total_weight},
        "config": {
            "k": config.k,
            "divergence": args.divergence,
            "variant": config.variant,
            "init": config.init,
            "seed": config.seed,
        },
        "report": asdict(report),
        "certificates": certs,
    }
    if args.json or args.out:
        _emit_json(payload, args)
    if not args.json:
        print(f"dataset: {dataset.n} points, {dataset.dim} dims, total weight {dataset.total_weight:g}")
        print(
            f"variant {config.variant}: loss {report.final_loss:.6f}, "
            f"{report.iterations} iterations, {report.new_step_invocations} escape steps, "
            f"{report.empty_cluster_repairs} repairs, {report.termination}"
        )
        c_kind = certs["c_local"]["kind"]
        d_kind = certs["d_local"]["kind"] if certs["d_local"] else "skipped"
        print(f"certificates: continuous {c_kind}, discrete {d_kind}")
        if dataset.n <= 50:
            print(f"labels: {report.final_labels.tolist()}")
    return 0


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


# How an escape variant compares with plain K-means run from the same centers.
IMPROVEMENT_METRICS = [
    "improvement_proportion",
    "improvement_ratio_mean",
    "iteration_increase_ratio_mean",
    "new_step_invocations_mean",
]

BENCH_COLUMNS = [
    "variant",
    "init",
    "k",
    "replicates",
    "loss_mean",
    "loss_variance",
    "loss_min",
    "time_mean_seconds",
    "iterations_mean",
    *IMPROVEMENT_METRICS,
]


def _check_replicates(replicates: int) -> None:
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")


def _improvement_metrics(
    plain_losses, plain_iterations, losses, iterations, invocations
) -> dict[str, float]:
    """The ``IMPROVEMENT_METRICS`` of paired escape and plain runs.

    Each argument is a float array with one value per pair. The proportion
    counts pairs in which the escape variant ends strictly lower; the three
    means average over those improved pairs only. A metric with no pair to
    average is NaN.
    """
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


def _summarize_bench(
    records: list[BenchRecord], variants: list[str], init: str, k: int, replicates: int
) -> list[dict]:
    by_variant: dict[str, list[BenchRecord]] = {v: [] for v in variants}
    for record in sorted(records, key=lambda r: (r.variant, r.replicate)):
        by_variant[record.variant].append(record)
    baseline = np.array([r.loss for r in by_variant["none"]])
    baseline_iters = np.array([r.iterations for r in by_variant["none"]], dtype=np.float64)

    summaries = []
    for variant in variants:
        rows = by_variant[variant]
        losses = np.array([r.loss for r in rows])
        iters = np.array([r.iterations for r in rows], dtype=np.float64)
        invocations = np.array([r.new_step_invocations for r in rows], dtype=np.float64)
        summary = {
            "variant": variant,
            "init": init,
            "k": k,
            "replicates": replicates,
            "loss_mean": float(losses.mean()),
            "loss_variance": float(np.var(losses, ddof=1)) if replicates > 1 else float("nan"),
            "loss_min": float(losses.min()),
            "time_mean_seconds": float(np.mean([r.wall_time for r in rows])),
            "iterations_mean": float(iters.mean()),
            **_improvement_metrics(baseline, baseline_iters, losses, iters, invocations),
        }
        if variant == "none":
            # Self-comparison: every difference is exactly zero.
            summary.update(dict.fromkeys(IMPROVEMENT_METRICS, 0.0))
        summaries.append(summary)
    return summaries


def run_bench(
    dataset: Dataset,
    base_config: EngineConfig,
    variants: list[str],
    replicates: int,
    fixed_centers: np.ndarray | None = None,
) -> tuple[list[BenchRecord], list[dict]]:
    """Run every variant against shared per-replicate initial centers."""
    _check_replicates(replicates)
    if "none" not in variants:
        variants = ["none"] + variants

    def one_replicate(index: int) -> list[BenchRecord]:
        seed = _derived_seed(base_config.seed, 1, index)
        if fixed_centers is not None:
            centers = fixed_centers
        else:
            rng = np.random.default_rng(seed)
            centers = init_centers(
                dataset, base_config.k, base_config.init, base_config.divergence, rng
            )
        out = []
        for variant in variants:
            config = replace(
                base_config, variant=variant, seed=seed, initial_centers=centers.copy()
            )
            report = run(dataset, config)
            out.append(
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
            )
        return out

    nested = _map_jobs(one_replicate, list(range(replicates)))
    records = [record for group in nested for record in group]
    summaries = _summarize_bench(
        records, variants, base_config.init, base_config.k, replicates
    )
    return records, summaries


def _format_cell(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.6g}"
    return str(value)


def cmd_bench(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    fixed_centers = None
    if args.counterexample:
        dataset, fixed_centers = counterexample_instance()
        args.k = 2
        spec = DivergenceSpec.squared_euclidean()
    else:
        if args.k is None:
            raise ValueError("--k is required unless --counterexample is given")
        spec = _divergence_from_args(args)
        dataset = _dataset_from_args(args, spec)
    base = _config_from_args(args, spec)
    records, summaries = run_bench(dataset, base, variants, args.replicates, fixed_centers)

    if args.json:
        _emit_json({"records": [asdict(r) for r in records], "summaries": summaries}, args)
        return 0
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=BENCH_COLUMNS)
            writer.writeheader()
            for summary in summaries:
                writer.writerow({key: _format_cell(summary[key]) for key in BENCH_COLUMNS})
    header = "  ".join(f"{name:>12}" for name in BENCH_COLUMNS)
    print(header)
    for summary in summaries:
        print("  ".join(f"{_format_cell(summary[name]):>12}" for name in BENCH_COLUMNS))
    return 0


SWEEP_METRICS = IMPROVEMENT_METRICS


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
    matrices = {
        metric: np.full((len(n_grid), len(k_grid)), np.nan) for metric in SWEEP_METRICS
    }

    def one_cell(cell: tuple[int, int]) -> tuple[int, int, dict[str, float]]:
        row, col = cell
        n, k = n_grid[row], k_grid[col]
        pairs = []  # (plain loss, plain iterations, loss, iterations, invocations)
        for rep in range(replicates):
            data_seed = _derived_seed(base_config.seed, 2, row, col, rep, 0)
            run_seed = _derived_seed(base_config.seed, 2, row, col, rep, 1)
            dataset = synth_uniform_grid(n, d, data_seed)
            if k > dataset.n:
                continue
            rng = np.random.default_rng(run_seed)
            centers = init_centers(dataset, k, base_config.init, base_config.divergence, rng)
            config = replace(base_config, k=k, seed=run_seed)
            plain = run(dataset, replace(config, variant="none", initial_centers=centers.copy()))
            tuned = run(dataset, replace(config, initial_centers=centers.copy()))
            pairs.append(
                (
                    plain.final_loss,
                    plain.iterations,
                    tuned.final_loss,
                    tuned.iterations,
                    tuned.new_step_invocations,
                )
            )
        return row, col, _improvement_metrics(*np.array(pairs, dtype=np.float64).reshape(-1, 5).T)

    cells = [(row, col) for row in range(len(n_grid)) for col in range(len(k_grid))]
    for row, col, values in _map_jobs(one_cell, cells):
        for metric in SWEEP_METRICS:
            matrices[metric][row, col] = values[metric]
    return matrices


def cmd_sweep(args) -> int:
    if args.variant == "none":
        raise ValueError("--variant must name an escape variant to compare against plain K-means")
    n_grid = _parse_grid(args.n_grid, "--n-grid")
    k_grid = _parse_grid(args.k_grid, "--k-grid")
    # The base's k is a placeholder: each cell sets its own.
    base = _config_from_args(args, _divergence_from_args(args), k=k_grid[0])
    matrices = run_sweep(base, n_grid, k_grid, args.synth_d, args.replicates)
    if args.json:
        payload = {metric: matrices[metric] for metric in SWEEP_METRICS}
        payload["n_grid"] = n_grid
        payload["k_grid"] = k_grid
        _emit_json(payload, args)
        return 0
    for metric in SWEEP_METRICS:
        rows = [["n\\k"] + [str(k) for k in k_grid]]
        for row, n in enumerate(n_grid):
            rows.append([str(n)] + [_format_cell(float(v)) for v in matrices[metric][row]])
        if args.out:
            path = f"{args.out}_{metric}.csv"
            with open(path, "w", newline="", encoding="utf-8") as handle:
                csv.writer(handle).writerows(rows)
            print(f"wrote {path}")
        else:
            print(f"# {metric}")
            for line in rows:
                print(",".join(line))
    return 0


def run_counterexample(args=None) -> dict:
    """All variants on the fixed five-point instance with its fixed centers."""
    dataset, initial = counterexample_instance()
    base = EngineConfig(k=2, divergence=DivergenceSpec.squared_euclidean())
    if args is not None:
        base = replace(base, max_iterations=args.max_iters, tie_tolerance=args.tie_tol)
    results = {}
    for variant in VARIANTS:
        config = replace(base, variant=variant, initial_centers=initial.copy())
        report = run(dataset, config)
        results[variant] = {
            "report": report,
            "certificates": _certificates(dataset, report, config),
        }
    baseline = results["none"]["report"].final_loss
    payload = {"baseline_loss": baseline, "variants": {}}
    for variant, bundle in results.items():
        report = bundle["report"]
        payload["variants"][variant] = {
            "final_loss": report.final_loss,
            "iterations": report.iterations,
            "new_step_invocations": report.new_step_invocations,
            "termination": report.termination,
            "final_labels": report.final_labels,
            "final_centers": report.final_centers,
            "loss_trajectory": report.loss_trajectory,
            "normalized_trajectory_percent": report.loss_trajectory / baseline * 100.0,
            "certificates": bundle["certificates"],
        }
    return payload


def cmd_counterexample(args) -> int:
    payload = run_counterexample(args)
    if args.json:
        _emit_json(payload, args)
        return 0
    print("five-point instance, k = 2, squared Euclidean, centers seeded at (0, 2.5)")
    for variant, entry in payload["variants"].items():
        certs = entry["certificates"]
        d_kind = certs["d_local"]["kind"] if certs["d_local"] else "skipped"
        percent = ", ".join(f"{v:.1f}%" for v in entry["normalized_trajectory_percent"])
        print(
            f"  {variant:>9}: loss {entry['final_loss']:.6f}  iterations {entry['iterations']}"
            f"  continuous {certs['c_local']['kind']}  discrete {d_kind}  trajectory [{percent}]"
        )
    return 0


def cmd_verify(args) -> int:
    spec = _divergence_from_args(args)
    dataset = _dataset_from_args(args, spec)
    with open(args.labels, encoding="utf-8") as handle:
        try:
            labels = np.array([int(line.strip()) for line in handle if line.strip()], dtype=np.int64)
        except ValueError:
            raise ValueError(f"{args.labels}: labels must be one integer per line") from None
    if labels.shape[0] != dataset.n:
        raise ValueError(
            f"{args.labels}: {labels.shape[0]} labels for {dataset.n} points after merging duplicates"
        )
    k = args.k if args.k is not None else int(labels.max()) + 1
    stats = cluster_stats(dataset, labels, k)
    empty = np.flatnonzero(stats.member_count == 0)
    if empty.size:
        raise ValueError(f"cluster {int(empty[0])} is empty under the given labels")
    centers = stats.centers()
    loss = clustering_loss(dataset, labels, centers, spec)
    c_cert = certify_c_local(dataset, labels, centers, spec, tie_tolerance=args.tie_tol)
    payload = {
        "loss": loss,
        "k": k,
        "c_local": asdict(c_cert),
    }
    payload["d_local"] = _d_local_certificate(dataset, labels, k, spec)
    if k**dataset.n <= min(args.brute_limit, BRUTE_FORCE_LIMIT):
        _, best = brute_force_best(dataset, k, spec)
        payload["global_loss"] = best
        payload["gap_to_global"] = loss - best
    if args.json:
        _emit_json(payload, args)
        return 0
    print(f"loss {loss:.6f} over {dataset.n} points, k = {k}")
    print(f"continuous certificate: {c_cert.kind}" + (f" ({c_cert.note})" if c_cert.note else ""))
    if payload["d_local"]:
        d_cert = payload["d_local"]
        line = f"discrete certificate: {d_cert['kind']}"
        if d_cert["witness"]:
            w = d_cert["witness"]
            line += (
                f" (move point {w['point']} from cluster {w['from_cluster']}"
                f" to {w['to_cluster']}: {w['delta']:+.6f})"
            )
        print(line)
    else:
        print("discrete certificate: skipped (instance too large)")
    if "global_loss" in payload:
        print(f"gap to global optimum: {payload['gap_to_global']:.6f} (global {payload['global_loss']:.6f})")
    return 0


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", help="CSV of points, one row per point")
    parser.add_argument("--synth", help="synthetic integer-grid data: n=<N>,d=<D>")
    parser.add_argument("--weights-col", type=int, default=None, help="zero-based weight column in --data")
    parser.add_argument("--skip-header", action="store_true", help="ignore the first CSV row")
    parser.add_argument(
        "--no-filter", action="store_true", help="do not drop out-of-domain dimensions"
    )


# Model flags shared by several subcommands, each declared once.
_MODEL_FLAGS = {
    "--divergence": {"choices": sorted(DIVERGENCE_FLAGS), "default": "sq-euclidean"},
    "--mahalanobis-matrix": {"help": "CSV holding the d x d matrix"},
    "--variant": {"choices": VARIANTS, "default": "none"},
    "--init": {"choices": INITS, "default": "uniform"},
    "--seed": {"type": int, "default": 0},
    "--max-iters": {"type": int, "default": 10000},
    "--tie-tol": {"type": float, "default": 1e-9},
}


def _add_model_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_MODEL_FLAGS[flag])


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write results to this path")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lokmeans",
        description="Weighted K-means over Bregman divergences with local-optimality guarantees",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p_run = commands.add_parser("run", help="one clustering run with certificates")
    _add_dataset_flags(p_run)
    p_run.add_argument("--k", type=int, required=True, help="number of clusters")
    _add_model_flags(p_run, *_MODEL_FLAGS)
    _add_output_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = commands.add_parser("bench", help="replicated benchmark across variants")
    _add_dataset_flags(p_bench)
    p_bench.add_argument(
        "--counterexample", action="store_true", help="use the fixed five-point instance"
    )
    p_bench.add_argument("--k", type=int, help="number of clusters")
    _add_model_flags(p_bench, *(flag for flag in _MODEL_FLAGS if flag != "--variant"))
    p_bench.add_argument(
        "--variants",
        default="none,c-lo,d-lo,min-d-lo",
        help="comma-separated variants; plain K-means is always included",
    )
    p_bench.add_argument("--replicates", type=int, default=20)
    _add_output_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_sweep = commands.add_parser("sweep", help="improvement matrices over (n, k) grids")
    p_sweep.add_argument("--n-grid", required=True, help="comma-separated sample sizes")
    p_sweep.add_argument("--k-grid", required=True, help="comma-separated cluster counts")
    p_sweep.add_argument("--synth-d", type=int, default=1, help="synthetic dimension")
    _add_model_flags(p_sweep, *_MODEL_FLAGS)
    p_sweep.add_argument("--replicates", type=int, default=100)
    _add_output_flags(p_sweep)
    # A sweep compares an escape variant against plain K-means.
    p_sweep.set_defaults(func=cmd_sweep, variant="c-lo")

    p_counter = commands.add_parser(
        "counterexample", help="all variants on the fixed five-point instance"
    )
    _add_model_flags(p_counter, "--max-iters", "--tie-tol")
    _add_output_flags(p_counter)
    p_counter.set_defaults(func=cmd_counterexample)

    p_verify = commands.add_parser("verify", help="certify a labeling from a file")
    _add_dataset_flags(p_verify)
    p_verify.add_argument("--labels", required=True, help="file with one label per line")
    p_verify.add_argument("--k", type=int, default=None, help="cluster count (default: max label + 1)")
    _add_model_flags(p_verify, "--divergence", "--mahalanobis-matrix", "--seed", "--tie-tol")
    p_verify.add_argument(
        "--brute-limit",
        type=int,
        default=10**6,
        help="enumerate the global optimum when k**n is at most this",
    )
    _add_output_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
