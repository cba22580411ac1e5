"""Which lokmeans functions the traced run wraps, and the per-layer metrics.

A function is wrapped at every module attribute bound to it, so a span
is named after the binding its caller used (``engine.pairwise``,
``verify.cluster_stats``, ``cli.run``) and folded into the defining
function (``divergence.pairwise``) for the metrics. Counts marked
"computed" come from argument and result shapes, not from the program.
"""

from __future__ import annotations

import math

import numpy as np

import lokmeans
from lokmeans import cli, data_io, divergence, engine, localopt, model, verify

import spans

MODULES = {
    "lokmeans": lokmeans,
    "cli": cli,
    "data_io": data_io,
    "divergence": divergence,
    "engine": engine,
    "localopt": localopt,
    "model": model,
    "verify": verify,
}


def _kind(args, kwargs):
    return args[0].kind


def _variant(args, kwargs):
    return args[1].variant


def _add(counts, key, value):
    counts[key] += value


def _count_pairwise(counts, args, kwargs, out):
    points, centers = args[1], args[2]
    # Bytes of the (N, K, d) float64 difference tensor the kernel builds.
    _add(counts, "divergence.pairwise.bytes_computed", 8 * points.shape[0] * centers.shape[0] * points.shape[1])


def _count_rowwise(counts, args, kwargs, out):
    shape = np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))
    _add(counts, "divergence.rowwise.elements", math.prod(shape))


def _count_run(counts, args, kwargs, out):
    _add(counts, "engine.iterations", out.iterations)
    _add(counts, "engine.iteration_cap_runs", out.termination == engine.TERMINATION_ITERATION_CAP)


def _count_repairs(counts, args, kwargs, out):
    _add(counts, "engine.repair_empty_clusters.repairs", out)


def _count_pairs(counts, args, kwargs, out):
    dataset, centers = args[0], args[3]
    _add(counts, "localopt.move_cost_matrix.pairs_scanned", dataset.n * (centers.shape[0] - 1))


def _count_escape(counts, args, kwargs, out):
    _add(counts, "localopt.escape.useful", bool(out))


def _count_escape_move(counts, args, kwargs, out):
    _add(counts, "localopt.escape.useful", bool(out))
    _add(counts, "localopt.moves", bool(out))


def _count_pnx(counts, args, kwargs, out):
    _add(counts, "localopt.pnx_run.moves", out.iterations)
    _add(counts, "localopt.moves", out.iterations)


def _count_load(counts, args, kwargs, out):
    _add(counts, "data_io.load_csv.rows", out.rows.shape[0])


def _count_merge(counts, args, kwargs, out):
    _add(counts, "data_io.dedup_merge.rows_in", args[0].rows.shape[0])
    _add(counts, "data_io.dedup_merge.rows_out", out.n)


def _count_filter(counts, args, kwargs, out):
    _add(counts, "data_io.filter_domain.dropped_dims", len(out[1]))


def _count_verdict(counts, args, kwargs, out):
    _add(counts, "verify.not_local_verdicts", out.kind == verify.NOT_LOCAL)


def _count_adjacents(counts, args, kwargs, out):
    dataset, k = args[0], args[2]
    _add(counts, "verify.certify_d_local.adjacents", dataset.n * (k - 1))
    _count_verdict(counts, args, kwargs, out)


def surjections(n: int, k: int) -> int:
    """Labelings of n points onto all k clusters (inclusion-exclusion)."""
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1))


def _count_brute(counts, args, kwargs, out):
    n, k = args[0].n, args[1]
    _add(counts, "verify.brute_force_best.labelings", k**n)
    _add(counts, "verify.brute_force_best.surjective", surjections(n, k))


# (defining module, function, tag, count) for every wrapped function.
FUNCTIONS = (
    ("data_io", "load_csv", None, _count_load),
    ("data_io", "dedup_merge", None, _count_merge),
    ("data_io", "filter_domain", None, _count_filter),
    ("model", "cluster_stats", None, None),
    ("model", "clustering_loss", None, None),
    ("divergence", "pairwise", _kind, _count_pairwise),
    ("divergence", "rowwise", _kind, _count_rowwise),
    ("engine", "run", _variant, _count_run),
    ("engine", "init_centers", None, None),
    ("engine", "_assign_with_divergences", None, None),
    ("engine", "repair_empty_clusters", None, _count_repairs),
    ("localopt", "move_cost_matrix", None, _count_pairs),
    ("localopt", "c_lo_step", None, _count_escape),
    ("localopt", "d_lo_step", None, _count_escape_move),
    ("localopt", "min_d_lo_step", None, _count_escape_move),
    ("localopt", "pnx_run", None, _count_pnx),
    ("verify", "loss_at_optimal_centers", None, None),
    ("verify", "certify_d_local", None, _count_adjacents),
    ("verify", "certify_c_local", None, _count_verdict),
    ("verify", "brute_force_best", None, _count_brute),
    ("cli", "main", None, None),
)
# (class, method, span name) for wrapped methods.
METHODS = (
    (model.Dataset, "__post_init__", "model.Dataset"),
    (model.ClusterStats, "centers", "model.ClusterStats.centers"),
)


def instrument(recorder: spans.SpanRecorder):
    """Patch targets for ``spans.patched`` and the span-name -> function map."""
    targets, function_of = [], {}
    for home, attr, tag, count in FUNCTIONS:
        original = getattr(MODULES[home], attr)
        for label, module in MODULES.items():
            if module.__dict__.get(attr) is original:
                name = f"{label}.{attr}"
                function_of[name] = f"{home}.{attr}"
                targets.append((module, attr, recorder.wrap(original, name, tag, count)))
    for owner, attr, name in METHODS:
        function_of[name] = name
        targets.append((owner, attr, recorder.wrap(owner.__dict__[attr], name)))
    return targets, function_of


# Per-layer metrics: (name, unit, better). Values are per traced op unless
# the unit says otherwise; "computed" counts are derived from shapes.
PER_LAYER = (
    ("localopt.move_cost_matrix.calls", "count/op", "lower"),
    ("localopt.move_cost_matrix.self_s", "s/op", "lower"),
    ("localopt.move_cost_matrix.pairs_scanned", "count/op", "lower"),
    ("localopt.escape.calls", "count/op", "lower"),
    ("localopt.escape.self_s", "s/op", "lower"),
    ("localopt.escape.useful_ratio", "ratio", "higher"),
    ("localopt.moves_per_pair", "ratio", "higher"),
    ("localopt.pnx_run.calls", "count/op", "lower"),
    ("localopt.pnx_run.self_s", "s/op", "lower"),
    ("localopt.pnx_run.moves", "count/op", "lower"),
    ("engine.assign.calls", "count/op", "lower"),
    ("engine.assign.self_s", "s/op", "lower"),
    ("engine.init_centers.self_s", "s/op", "lower"),
    ("engine.run.self_s", "s/op", "lower"),
    ("engine.repair_empty_clusters.calls", "count/op", "lower"),
    ("engine.repair_empty_clusters.repairs", "count/op", "lower"),
    ("engine.iterations", "count/op", "lower"),
    ("engine.iteration_cap_runs", "count/op", "lower"),
    ("engine.escape_vs_none_x", "ratio", "lower"),
    ("divergence.pairwise.calls", "count/op", "lower"),
    ("divergence.pairwise.self_s", "s/op", "lower"),
    ("divergence.pairwise.bytes_computed", "B/op", "lower"),
    ("divergence.pairwise.squared-euclidean.self_s", "s/op", "lower"),
    ("divergence.pairwise.squared-mahalanobis.self_s", "s/op", "lower"),
    ("divergence.pairwise.kl.self_s", "s/op", "lower"),
    ("divergence.pairwise.itakura-saito.self_s", "s/op", "lower"),
    ("divergence.rowwise.calls", "count/op", "lower"),
    ("divergence.rowwise.self_s", "s/op", "lower"),
    ("divergence.rowwise.elements", "count/op", "lower"),
    ("model.Dataset.self_s", "s/op", "lower"),
    ("model.cluster_stats.calls", "count/op", "lower"),
    ("model.cluster_stats.self_s", "s/op", "lower"),
    ("model.ClusterStats.centers.calls", "count/op", "lower"),
    ("model.clustering_loss.calls", "count/op", "lower"),
    ("model.clustering_loss.self_s", "s/op", "lower"),
    ("data_io.load_csv.self_s", "s/op", "lower"),
    ("data_io.load_csv.rows", "count/op", "lower"),
    ("data_io.dedup_merge.self_s", "s/op", "lower"),
    ("data_io.dedup_merge.merge_ratio", "ratio", "lower"),
    ("data_io.filter_domain.self_s", "s/op", "lower"),
    ("data_io.filter_domain.dropped_dims", "count/op", "lower"),
    ("verify.certify_d_local.calls", "count/op", "lower"),
    ("verify.certify_d_local.self_s", "s/op", "lower"),
    ("verify.certify_d_local.adjacents", "count/op", "lower"),
    ("verify.loss_at_optimal_centers.calls", "count/op", "lower"),
    ("verify.certify_c_local.calls", "count/op", "lower"),
    ("verify.certify_c_local.self_s", "s/op", "lower"),
    ("verify.brute_force_best.self_s", "s/op", "lower"),
    ("verify.brute_force_best.labelings", "count/op", "lower"),
    ("verify.brute_force_best.surjective_ratio", "ratio", "higher"),
    ("verify.not_local_verdicts", "count/op", "lower"),
    ("cli.main.calls", "count/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("trace.spans", "count/op", "lower"),
    ("trace.untraced_op_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
COMPUTED = {
    "localopt.move_cost_matrix.pairs_scanned",
    "localopt.moves_per_pair",
    "divergence.pairwise.bytes_computed",
    "divergence.rowwise.elements",
    "verify.certify_d_local.adjacents",
    "verify.brute_force_best.labelings",
    "verify.brute_force_best.surjective_ratio",
}
# Metric prefix -> defining functions folded into it.
GROUPS = {
    "engine.assign": ("engine._assign_with_divergences",),
    "localopt.escape": ("localopt.c_lo_step", "localopt.d_lo_step", "localopt.min_d_lo_step"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(recorder: spans.SpanRecorder, function_of: dict, ops: int) -> dict[str, float]:
    """Per-layer values from the recorded spans and counters, per traced op."""
    arr = recorder.arrays()
    duration = arr["end"] - arr["start"]
    own = spans.self_times(arr["start"], arr["end"], arr["parent"])
    functions = sorted(set(function_of.values()))
    function_ids = np.array(
        [functions.index(function_of[n]) if n in function_of else -1 for n in recorder.names]
    )
    fid = function_ids[arr["name"]]
    calls = np.bincount(fid, minlength=len(functions))
    self_s = np.bincount(fid, weights=own, minlength=len(functions))

    def total(prefix, values):
        return sum(values[functions.index(f)] for f in GROUPS.get(prefix, (prefix,)))

    counts = recorder.counts
    out = {}
    for metric, _unit, _better in PER_LAYER:
        prefix, _, field = metric.rpartition(".")
        if field in ("calls", "self_s") and prefix in functions + list(GROUPS):
            out[metric] = total(prefix, calls if field == "calls" else self_s) / ops
        else:
            out[metric] = counts.get(metric, 0.0) / ops

    pairwise = fid == functions.index("divergence.pairwise")
    for kind in divergence.KINDS:
        mask = pairwise & (arr["tag"] == recorder.intern(kind))
        out[f"divergence.pairwise.{kind}.self_s"] = float(own[mask].sum()) / ops
    runs = fid == functions.index("engine.run")
    none = runs & (arr["tag"] == recorder.intern("none"))
    escape = runs & ~none
    out["engine.escape_vs_none_x"] = _ratio(
        duration[escape].mean() if escape.any() else 0.0,
        duration[none].mean() if none.any() else 0.0,
    )
    out["localopt.escape.useful_ratio"] = _ratio(
        counts["localopt.escape.useful"], total("localopt.escape", calls)
    )
    out["localopt.moves_per_pair"] = _ratio(
        counts["localopt.moves"], counts["localopt.move_cost_matrix.pairs_scanned"]
    )
    out["data_io.dedup_merge.merge_ratio"] = _ratio(
        counts["data_io.dedup_merge.rows_out"], counts["data_io.dedup_merge.rows_in"]
    )
    out["verify.brute_force_best.surjective_ratio"] = _ratio(
        counts["verify.brute_force_best.surjective"], counts["verify.brute_force_best.labelings"]
    )
    out["trace.spans"] = len(duration) / ops
    return out
