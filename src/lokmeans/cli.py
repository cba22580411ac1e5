"""Command-line harness: single runs, benchmarks, sweeps, and verification.

Subcommands
    run             one clustering run with a report and certificates
    bench           R replicates per variant with shared initial centers
    sweep           benchmark grids over (n, k) on synthetic data
    counterexample  the fixed five-point instance across all variants
    verify          certify a user-supplied labeling, optionally vs brute force

Each subcommand loads its inputs, calls the library (the protocols behind
``bench``, ``sweep`` and ``counterexample`` live in ``lokmeans.experiments``),
builds a payload and its text, and hands both to ``_emit``: ``--json``
picks strict JSON of the payload over the text (CSV for ``bench`` and
``sweep``), and ``--out FILE`` sends that output to FILE instead of stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import engine, experiments
from .data_io import dedup_merge, filter_domain, load_csv, synth_uniform_grid
from .divergence import ITAKURA_SAITO, KL, SQUARED_EUCLIDEAN, SQUARED_MAHALANOBIS, DivergenceSpec
from .engine import INITS, VARIANTS, EngineConfig
from .experiments import IMPROVEMENT_METRICS
from .experiments import derived_seed as _derived_seed
from .model import TIE_TOLERANCE, Dataset

DIVERGENCE_FLAGS = {
    "sq-euclidean": SQUARED_EUCLIDEAN,
    "mahalanobis": SQUARED_MAHALANOBIS,
    "kl": KL,
    "itakura-saito": ITAKURA_SAITO,
}


def _parse_synth(text: str) -> tuple[int, int]:
    fields = [part.partition("=") for part in text.split(",")]
    try:
        if sorted(name for name, _, _ in fields) == ["d", "n"]:
            values = {name: int(value) for name, _, value in fields}
            return values["n"], values["d"]
    except ValueError:
        pass
    raise ValueError(f"--synth expects n=<N>,d=<D>, got {text!r}")


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
    path = args.mahalanobis_matrix
    if kind == SQUARED_MAHALANOBIS:
        if not path:
            raise ValueError("--divergence mahalanobis requires --mahalanobis-matrix")
        return DivergenceSpec(kind, load_csv(path).rows)
    if path is not None:
        raise ValueError(f"--mahalanobis-matrix does not apply to --divergence {args.divergence}")
    return DivergenceSpec(kind)


def _dataset_from_args(args, spec: DivergenceSpec) -> Dataset:
    if args.data and args.synth:
        raise ValueError("pass either --data or --synth, not both")
    if args.data:
        # No name holds the parsed table: it is freed once merged.
        dataset = dedup_merge(
            load_csv(args.data, skip_header=args.skip_header, weight_column=args.weights_col)
        )
    elif args.synth:
        if args.weights_col is not None or args.skip_header:
            raise ValueError("--weights-col and --skip-header apply only to --data")
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


def _emit(args, payload, lines: list[str]) -> int:
    """Write ``payload`` as JSON under ``--json``, else ``lines``, to ``--out`` or stdout."""
    if args.json:
        text = json.dumps(_jsonable(payload), indent=2, allow_nan=False)
    else:
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _certificate_lines(certs: dict) -> list[str]:
    """Each certificate's kind with its note and witness move, or a skipped check's note."""
    lines = []
    for sense, key in (("continuous", "c_local"), ("discrete", "d_local")):
        cert = certs[key]
        if cert is None:
            lines.append(f"{sense} certificate: {certs[f'{key}_note']}")
            continue
        details = [cert["note"]] if cert["note"] else []
        if w := cert["witness"]:
            move = f"{w['point']} from cluster {w['from_cluster']} to {w['to_cluster']}"
            details.append(f"move point {move}: {w['delta']:+.6f}")
        detail = f" ({'; '.join(details)})" if details else ""
        lines.append(f"{sense} certificate: {cert['kind']}{detail}")
    return lines


def cmd_run(args) -> int:
    spec = _divergence_from_args(args)
    dataset = _dataset_from_args(args, spec)
    config = _config_from_args(args, spec)
    report = engine.run(dataset, config)
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
        "certificates": experiments.certificates(
            dataset, report.final_labels, report.final_centers, spec, config.tie_tolerance
        ),
    }
    lines = [
        f"dataset: {dataset.n} points, {dataset.dim} dims, total weight {dataset.total_weight:g}",
        f"variant {config.variant}: loss {report.final_loss:.6f}, "
        f"{report.iterations} iterations, {report.new_step_invocations} escape steps, "
        f"{report.empty_cluster_repairs} repairs, {report.termination}",
        *_certificate_lines(payload["certificates"]),
    ]
    if dataset.n <= 50:
        lines.append(f"labels: {report.final_labels.tolist()}")
    return _emit(args, payload, lines)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.6g}"
    return str(value)


def cmd_bench(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    spec = _divergence_from_args(args)
    dataset = _dataset_from_args(args, spec)
    records, summaries = experiments.run_bench(
        dataset, _config_from_args(args, spec), variants, args.replicates
    )
    lines = [",".join(summaries[0])] + [",".join(map(_format_cell, s.values())) for s in summaries]
    return _emit(args, {"records": [asdict(r) for r in records], "summaries": summaries}, lines)


def cmd_sweep(args) -> int:
    if args.variant == "none":
        raise ValueError("--variant must name an escape variant to compare against plain K-means")
    n_grid = _parse_grid(args.n_grid, "--n-grid")
    k_grid = _parse_grid(args.k_grid, "--k-grid")
    # The base's k is a placeholder: each cell sets its own.
    base = _config_from_args(args, _divergence_from_args(args), k=k_grid[0])
    matrices = experiments.run_sweep(base, n_grid, k_grid, args.synth_d, args.replicates)
    lines = []
    for metric in IMPROVEMENT_METRICS:
        lines += [f"# {metric}", ",".join(["n\\k"] + [str(k) for k in k_grid])]
        for n, row in zip(n_grid, matrices[metric]):
            lines.append(",".join([str(n)] + [_format_cell(float(v)) for v in row]))
    return _emit(args, {**matrices, "n_grid": n_grid, "k_grid": k_grid}, lines)


def cmd_counterexample(args) -> int:
    payload = experiments.run_counterexample(args.max_iters, args.tie_tol)
    lines = ["five-point instance, k = 2, squared Euclidean, centers seeded at (0, 2.5)"]
    for variant, entry in payload["variants"].items():
        percent = ", ".join(f"{v:.1f}%" for v in entry["normalized_trajectory_percent"])
        lines.append(
            f"  {variant:>9}: loss {entry['final_loss']:.6f}  iterations {entry['iterations']}"
            f"  trajectory [{percent}]"
        )
        lines += [f"    {line}" for line in _certificate_lines(entry["certificates"])]
    return _emit(args, payload, lines)


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
    payload = experiments.certify_labels(dataset, labels, k, spec, args.tie_tol, args.brute_limit)
    lines = [
        f"loss {payload['loss']:.6f} over {dataset.n} points, k = {k}",
        *_certificate_lines(payload),
    ]
    if "global_loss" in payload:
        lines.append(
            f"gap to global optimum: {payload['gap_to_global']:.6f}"
            f" (global {payload['global_loss']:.6f})"
        )
    return _emit(args, payload, lines)


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
    "--tie-tol": {"type": float, "default": TIE_TOLERANCE},
}


def _add_model_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_MODEL_FLAGS[flag])


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the output to this file instead of stdout")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")


# Parsing leaves the parser unchanged (each call fills a fresh namespace),
# so one process builds it once, however many times ``main`` runs.
@functools.cache
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
    p_bench.add_argument("--k", type=int, required=True, help="number of clusters")
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
