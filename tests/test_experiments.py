"""The experiment protocol's API, and the benchmark's hooks into the package."""

import contextlib
import importlib
import io
from pathlib import Path

import numpy as np
import pytest

from lokmeans import Dataset, DivergenceSpec, EngineConfig, cli, experiments
from lokmeans.data_io import synth_uniform_grid

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
