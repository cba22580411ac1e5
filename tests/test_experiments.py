"""The experiment protocol's API, and the benchmark's hooks into the package."""

import contextlib
import importlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lokmeans import Dataset, DivergenceSpec, EngineConfig, cli, experiments, verify
from lokmeans.data_io import counterexample_instance, synth_uniform_grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SQE = DivergenceSpec.squared_euclidean()


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's ``layers``, ``spans`` and ``workloads`` modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name) for name in ("layers", "spans", "workloads")}


@pytest.mark.parametrize("variants", [["d-lo", "d-lo"], ["none", "none"], ["c-lo", "none", "c-lo"]])
def test_run_bench_rejects_a_repeated_variant(variants):
    dataset = synth_uniform_grid(30, 2, 3)
    with pytest.raises(ValueError, match="each variant may be listed once"):
        experiments.run_bench(dataset, EngineConfig(k=3, divergence=SQE), variants, 2)


def test_improvement_metrics_on_the_counterexample():
    # Frozen numbers: c-lo escapes the stalled K-means fixed point (loss
    # 8.5) to 31/6 in one escape step and half as many extra iterations.
    dataset, initial = counterexample_instance()
    config = EngineConfig(k=2, divergence=SQE)
    plain, tuned = experiments._paired_runs(dataset, config, ("none", "c-lo"), 0, initial)
    assert plain.final_loss == pytest.approx(8.5, abs=1e-9)
    assert tuned.final_loss == pytest.approx(31.0 / 6.0, abs=1e-9)
    metrics = experiments._improvement_metrics([plain], [tuned])
    assert metrics["improvement_proportion"] == pytest.approx(1.0)
    assert metrics["improvement_ratio_mean"] == pytest.approx((8.5 - 31.0 / 6.0) / 8.5, abs=1e-9)
    assert metrics["iteration_increase_ratio_mean"] == pytest.approx(0.5, abs=1e-12)
    assert metrics["new_step_invocations_mean"] == pytest.approx(1.0)


def test_run_bench_single_replicate_summaries():
    dataset = synth_uniform_grid(40, 1, 5)
    config = EngineConfig(k=3, divergence=SQE)
    records, summaries = experiments.run_bench(dataset, config, ["c-lo"], 1)
    assert [(r.replicate, r.variant) for r in records] == [(0, "none"), (0, "c-lo")]
    none = summaries[0]
    assert none["variant"] == "none"
    assert np.isnan(none["loss_variance"])
    assert [none[metric] for metric in experiments.IMPROVEMENT_METRICS] == [0.0] * 4


def test_run_sweep_drops_replicates_with_fewer_distinct_points_than_k():
    # d = 1 grids hold at most 10 distinct points, so no replicate can
    # host 12 clusters and that column is NaN; 3 clusters always fit.
    config = EngineConfig(k=2, divergence=SQE, variant="d-lo", seed=0)
    matrices = experiments.run_sweep(config, [40], [12, 3], 1, 4)
    assert list(matrices) == experiments.IMPROVEMENT_METRICS
    for matrix in matrices.values():
        assert np.isnan(matrix[:, 0]).all()
        assert np.isfinite(matrix[:, 1]).all()


def test_certify_labels_finds_an_empty_cluster_without_memory_per_label():
    # k is the largest label plus one, as `lokmeans verify` takes it: the
    # empty cluster must be found before any (k, d) statistics are built.
    dataset, _ = counterexample_instance()
    labels = np.array([0, 0, 0, 1, 2_000_000])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cluster 2 is empty"):
            experiments.certify_labels(dataset, labels, 2_000_001, SQE, 1e-9, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize(
    "labels, k, message",
    [
        ([1, 1, 2, 2, 3], 4, "cluster 0 is empty"),
        ([0, 0, 1, 1, 1], 3, "cluster 2 is empty"),
        ([0, 0, 1, 1, 4], 4, r"labels must lie in \[0, 4\)"),
    ],
)
def test_certify_labels_names_the_first_empty_cluster(labels, k, message):
    dataset, _ = counterexample_instance()
    with pytest.raises(ValueError, match=message):
        experiments.certify_labels(dataset, np.array(labels), k, SQE, 1e-9, 10**6)


def test_certify_labels_gives_the_brute_force_optimum_a_gap_of_zero():
    # The escape-sqe brute-force shape; on this seed the optimum once scored
    # 8.9e-16 below the loss of its own labels.
    rng = np.random.default_rng(6)
    dataset = Dataset(rng.standard_normal((8, 2)), rng.integers(1, 4, size=8).astype(np.float64))
    labels, best = verify.brute_force_best(dataset, 3, SQE)
    payload = experiments.certify_labels(dataset, labels, 3, SQE, 1e-9, 10**6)
    assert payload["global_loss"] == best == payload["loss"]
    assert payload["gap_to_global"] == 0.0


def test_run_counterexample_applies_the_given_limits():
    capped = experiments.run_counterexample(max_iterations=1)
    assert {v["termination"] for v in capped["variants"].values()} == {"iteration-cap"}
    with pytest.raises(ValueError, match="finite and non-negative"):
        experiments.run_counterexample(tie_tolerance=float("nan"))


def test_benchmark_layers_resolve_and_see_the_library_calls(perfbench):
    # The traced benchmark wraps functions where its listed modules bind
    # them; experiments is not one, so it must reach them as attributes.
    layers, spans = perfbench["layers"], perfbench["spans"]
    recorder = spans.SpanRecorder()
    targets, function_of = layers.instrument(recorder)
    assert {f"{home}.{attr}" for home, attr, _, _ in layers.FUNCTIONS} <= set(function_of.values())
    argv = ["run", "--synth", "n=30,d=2", "--k", "3", "--variant", "d-lo", "--json"]
    with spans.patched(targets), recorder.op_scope(0), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
        assert cli.main(["counterexample", "--json"]) == 0
    called = {function_of[recorder.names[i]] for i in recorder.arrays()["name"]}
    assert {
        "cli.main",
        "engine.run",
        "engine.init_centers",
        "verify.certify_c_local",
        "verify.certify_d_local",
        "divergence.pairwise",
        "localopt.d_lo_step",
    } <= called


@pytest.mark.parametrize(
    "variant, synth, k, counters",
    [
        ("d-lo", "n=80,d=2", "6", ("localopt.moves", "localopt.escape.useful")),
        # The benchmark counts localopt.moves for the steps that read the
        # move-cost matrix only, so a c-lo move is counted as useful alone.
        ("c-lo", "n=40,d=1", "5", ("localopt.escape.useful",)),
    ],
)
def test_benchmark_counts_each_move_the_engine_makes(perfbench, variant, synth, k, counters):
    # A step returns the move it chose; the benchmark counts a truthy
    # return as a move made, so its count must match the run's report.
    layers, spans = perfbench["layers"], perfbench["spans"]
    recorder = spans.SpanRecorder()
    targets, _ = layers.instrument(recorder)
    argv = ["run", "--synth", synth, "--k", k, "--variant", variant, "--json"]
    out = io.StringIO()
    with spans.patched(targets), recorder.op_scope(0), contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    moves = json.loads(out.getvalue())["report"]["new_step_invocations"]
    assert moves > 0
    for counter in counters:
        assert recorder.counts[counter] == moves, counter


def test_benchmark_escape_op_mirrors_the_bench_replicate_seed(perfbench):
    # op_escape unrolls one run_bench replicate with cli._derived_seed.
    workloads = perfbench["workloads"]
    rng = np.random.default_rng(7)
    dataset = Dataset(rng.standard_normal((60, 2)), rng.integers(1, 4, size=60).astype(float))
    config = EngineConfig(k=4, divergence=SQE, init="kmeans++", seed=11)
    index = 2
    assert cli._derived_seed(11, 1, index) == experiments.derived_seed(11, 1, index)
    results = workloads.op_escape(workloads.EscapeInputs(11, dataset, config), index)
    records, _ = experiments.run_bench(dataset, config, ["d-lo", "min-d-lo"], index + 1)
    replicate = [r for r in records if r.replicate == index]
    assert [r.variant for r in replicate] == list(workloads.ESCAPE_SQE_VARIANTS)
    for record, result in zip(replicate, results):
        assert result.variant == record.variant
        assert result.final_loss == record.loss
        assert result.termination == record.termination
