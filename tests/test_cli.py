"""End-to-end command line coverage through main(argv)."""

import argparse
import csv
import gc
import importlib
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lokmeans
from lokmeans import engine, experiments
from lokmeans.cli import _jsonable, build_parser, main
from lokmeans.experiments import IMPROVEMENT_METRICS


# The bench CSV header: the keys of ``experiments.run_bench``'s summaries.
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
    "improvement_proportion",
    "improvement_ratio_mean",
    "iteration_increase_ratio_mean",
    "new_step_invocations_mean",
]


def _json_output(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


def _write_counterexample_csv(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("-4.0\n-2.0\n0.0\n1.5\n2.5\n")
    return str(path)


def _write_labels(tmp_path, labels, name="labels.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{v}\n" for v in labels))
    return str(path)


def test_counterexample_text_table(capsys):
    assert main(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert "five-point instance" in out
    for variant in ("none", "c-lo", "d-lo", "min-d-lo", "pnx"):
        assert variant in out


def test_counterexample_json_payload(capsys):
    assert main(["counterexample", "--json"]) == 0
    payload, _ = _json_output(capsys)
    assert payload["baseline_loss"] == pytest.approx(8.5, abs=1e-9)

    none = payload["variants"]["none"]
    assert none["final_loss"] == pytest.approx(8.5, abs=1e-9)
    assert none["certificates"]["c_local"]["kind"] == "not-local"
    assert none["certificates"]["d_local"]["kind"] == "not-local"
    witness = none["certificates"]["d_local"]["witness"]
    assert (witness["point"], witness["from_cluster"], witness["to_cluster"]) == (2, 0, 1)
    assert witness["delta"] == pytest.approx(-10.0 / 3.0, abs=1e-9)

    for variant in ("c-lo", "d-lo", "min-d-lo", "pnx"):
        entry = payload["variants"][variant]
        assert entry["final_loss"] == pytest.approx(31.0 / 6.0, abs=1e-9)
        assert entry["termination"] == "converged"
        assert entry["certificates"]["d_local"]["kind"] == "d-local"
        assert entry["certificates"]["c_local"]["kind"] == "c-local"
        percent = entry["normalized_trajectory_percent"]
        assert percent[0] == pytest.approx(100.0, abs=1e-9)
        assert percent[-1] == pytest.approx(100.0 * (31.0 / 6.0) / 8.5, abs=1e-6)
    assert payload["variants"]["c-lo"]["new_step_invocations"] == 1


def test_run_json_on_synthetic_data(capsys):
    code = main(
        [
            "run",
            "--synth",
            "n=40,d=2",
            "--k",
            "3",
            "--variant",
            "min-d-lo",
            "--seed",
            "3",
            "--json",
        ]
    )
    assert code == 0
    payload, _ = _json_output(capsys)
    assert payload["dataset"]["d"] == 2
    assert payload["dataset"]["total_weight"] == pytest.approx(40.0)
    assert payload["config"]["variant"] == "min-d-lo"
    report = payload["report"]
    assert report["termination"] == "converged"
    assert report["final_loss"] == pytest.approx(report["loss_trajectory"][-1])
    assert payload["certificates"]["d_local"]["kind"] == "d-local"


def test_run_reads_weighted_csv(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("2.0,1.0,1.0\n1.0,5.0,5.0\n3.0,9.0,9.0\n")
    code = main(
        ["run", "--data", str(path), "--weights-col", "0", "--k", "2", "--json"]
    )
    assert code == 0
    payload, _ = _json_output(capsys)
    assert payload["dataset"]["n"] == 3
    assert payload["dataset"]["d"] == 2
    assert payload["dataset"]["total_weight"] == pytest.approx(6.0)


def test_run_merges_rows_that_differ_only_in_a_signed_zero(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("1,0,1\n1,-0,1\n5,5,5\n")
    assert main(["run", "--data", str(path), "--k", "2", "--json"]) == 0
    payload, _ = _json_output(capsys)
    assert payload["dataset"]["n"] == 2
    assert payload["dataset"]["total_weight"] == pytest.approx(3.0)


def test_run_holds_each_table_once(tmp_path):
    # Figures for numpy 2.4 on 2000 rows x 16 columns (256 KB) at k = 32.
    # With a list of the file's lines, np.unique's copies of the rows, the
    # unmerged rows kept through filtering and the (N, K) divergences kept
    # through the stats pass, the run peaked at 1.75 MB; with each stage
    # freeing what it no longer needs, at 1.51 MB.
    rng = np.random.default_rng(4)
    data = tmp_path / "points.csv"
    np.savetxt(data, np.exp(rng.normal(size=(2000, 16))), fmt="%.17g", delimiter=",")
    argv = ["run", "--data", str(data), "--k", "32", "--json", "--out", str(tmp_path / "run.json")]
    assert main(argv) == 0  # a first call builds what every later call reuses
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_630_000, peak


def test_run_rejects_rows_that_coincide_once_centered(tmp_path, capsys):
    path = tmp_path / "points.csv"
    path.write_text("1e-20,0\n2e-20,0\n-1e5,0\n-1e5,1\n")
    assert main(["run", "--data", str(path), "--k", "2", "--variant", "d-lo"]) == 2
    assert "two points coincide once their mean is subtracted" in capsys.readouterr().err


@pytest.mark.parametrize("synth", ["n=5,n=60,d=2", "n=abc,d=2", "n=40,d=2,d=3", "n=40"])
def test_run_rejects_a_malformed_synth_spec(synth, capsys):
    assert main(["run", "--synth", synth, "--k", "2"]) == 2
    assert f"error: --synth expects n=<N>,d=<D>, got {synth!r}" in capsys.readouterr().err


def test_run_requires_a_dataset(capsys):
    assert main(["run", "--k", "2"]) == 2
    assert "a dataset is required" in capsys.readouterr().err


def test_run_rejects_invalid_k(capsys):
    assert main(["run", "--synth", "n=10,d=1", "--k", "0"]) == 2
    assert "k must be at least 1" in capsys.readouterr().err


def test_run_rejects_data_and_synth_together(tmp_path, capsys):
    path = _write_counterexample_csv(tmp_path)
    code = main(["run", "--data", path, "--synth", "n=5,d=1", "--k", "2"])
    assert code == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--weights-col", "5"], ["--skip-header"]])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_csv_flags_without_data_exit_2(command, flag, tmp_path, capsys):
    # With --synth there is no CSV for the flag to read, so it is an error.
    argv = [command, "--synth", "n=20,d=2", "--k", "2", *flag]
    if command == "verify":
        argv += ["--labels", _write_labels(tmp_path, [0, 1] * 10)]
    assert main(argv) == 2
    assert "error: --weights-col and --skip-header apply only to --data" in capsys.readouterr().err


def test_run_reports_a_field_over_the_csv_limit_by_row(tmp_path, capsys):
    path = tmp_path / "long.csv"
    path.write_text("1,2\n3," + "1" * 140_001 + "\n")
    assert main(["run", "--data", str(path), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: row 2: field larger than field limit" in err


def test_run_reports_a_skipped_header_over_the_csv_limit_by_row(tmp_path, capsys):
    # The quoted header spans 141 lines, none of them longer than the limit.
    path = tmp_path / "header.csv"
    path.write_text('"' + "\n".join(["h" * 1000] * 141) + '"\n1,2\n3,4\n')
    assert main(["run", "--data", str(path), "--k", "1", "--skip-header"]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: row 1: field larger than field limit" in err


def test_kl_domain_filter_drops_dimension(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    path.write_text("1.0,-1.0\n2.0,3.0\n4.0,5.0\n")
    code = main(
        ["run", "--data", str(path), "--k", "2", "--divergence", "kl", "--json"]
    )
    assert code == 0
    payload, err = _json_output(capsys)
    assert "dropped 1 out-of-domain dimensions: [1]" in err
    assert payload["dataset"]["d"] == 1


def test_kl_no_filter_fails_on_domain_violation(tmp_path, capsys):
    path = tmp_path / "mixed.csv"
    path.write_text("1.0,-1.0\n2.0,3.0\n4.0,5.0\n")
    code = main(
        ["run", "--data", str(path), "--k", "2", "--divergence", "kl", "--no-filter"]
    )
    assert code == 2
    assert "interior domain" in capsys.readouterr().err


def test_mahalanobis_requires_matrix_flag(capsys):
    code = main(["run", "--synth", "n=10,d=2", "--k", "2", "--divergence", "mahalanobis"])
    assert code == 2
    assert "--mahalanobis-matrix" in capsys.readouterr().err


@pytest.mark.parametrize("divergence", ["sq-euclidean", "kl", "itakura-saito"])
def test_mahalanobis_matrix_flag_needs_the_mahalanobis_divergence(divergence, tmp_path, capsys):
    argv = ["run", "--synth", "n=30,d=2", "--k", "3", "--divergence", divergence]
    assert main(argv + ["--mahalanobis-matrix", str(tmp_path / "absent.csv")]) == 2
    captured = capsys.readouterr()
    assert f"--mahalanobis-matrix does not apply to --divergence {divergence}" in captured.err
    assert captured.out == ""


def test_mahalanobis_run_with_matrix_file(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text("2.0,0.0\n0.0,1.0\n")
    code = main(
        [
            "run",
            "--synth",
            "n=30,d=2",
            "--k",
            "3",
            "--divergence",
            "mahalanobis",
            "--mahalanobis-matrix",
            str(matrix),
            "--json",
        ]
    )
    assert code == 0
    payload, _ = _json_output(capsys)
    assert payload["report"]["termination"] == "converged"


def test_mahalanobis_matrix_file_uses_the_data_dialect(tmp_path, capsys):
    matrix = tmp_path / "matrix.csv"
    matrix.write_text('"2.0", 0\n0,1\n')
    args = ["run", "--synth", "n=30,d=2", "--k", "3", "--divergence", "mahalanobis"]
    assert main(args + ["--mahalanobis-matrix", str(matrix), "--json"]) == 0
    assert _json_output(capsys)[0]["report"]["termination"] == "converged"
    matrix.write_text("2,0\n0,1 # id\n")
    assert main(args + ["--mahalanobis-matrix", str(matrix)]) == 2
    assert "row 2, column 2: not a number: '1 # id'" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_run_rejects_a_non_finite_tie_tolerance(bad, capsys):
    code = main(["run", "--synth", "n=50,d=2", "--k", "3", "--tie-tol", bad, "--json"])
    assert code == 2
    assert "tolerances must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("variants", ["d-lo,d-lo", "none,none", "d-lo,none,d-lo"])
def test_bench_rejects_a_repeated_variant(variants, capsys):
    argv = ["bench", "--synth", "n=40,d=1", "--k", "3", "--replicates", "2"]
    assert main(argv + ["--variants", variants]) == 2
    captured = capsys.readouterr()
    assert f"each variant may be listed once, got {variants}" in captured.err
    assert captured.out == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_run_json_is_strict_json_when_no_move_exists(capsys):
    # With k = 1 there is no adjacent move, so the d-local certificate's
    # worst delta is infinite; it must print as null, not Infinity.
    assert main(["run", "--synth", "n=20,d=1", "--k", "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert payload["certificates"]["d_local"]["kind"] == "d-local"
    assert payload["certificates"]["d_local"]["worst_delta"] is None


def test_jsonable_turns_arrays_into_lists_and_non_finite_values_into_null():
    payload = {
        "labels": np.arange(3, dtype=np.int64),
        "centers": np.array([[0.5, -0.0]]),
        "deltas": np.array([1.0, np.inf, np.nan]),
    }
    out = _jsonable(payload)
    assert out == {"labels": [0, 1, 2], "centers": [[0.5, -0.0]], "deltas": [1.0, None, None]}
    assert all(type(label) is int for label in out["labels"])


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_replicates_below_one_rejected(command, capsys):
    if command == "bench":
        argv = ["bench", "--synth", "n=20,d=1", "--k", "2", "--replicates", "0"]
    else:
        argv = ["sweep", "--n-grid", "20", "--k-grid", "2", "--replicates", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "replicates must be at least 1, got 0" in captured.err
    assert captured.out == ""


def test_bench_requires_k(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bench", "--synth", "n=20,d=1"])
    assert info.value.code == 2
    assert "the following arguments are required: --k" in capsys.readouterr().err


def test_bench_writes_summary_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--synth",
            "n=60,d=1",
            "--k",
            "4",
            "--replicates",
            "3",
            "--variants",
            "d-lo",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(list(row) == BENCH_COLUMNS for row in rows)
    assert {row["variant"] for row in rows} == {"none", "d-lo"}
    for row in rows:
        assert float(row["loss_min"]) <= float(row["loss_mean"]) + 1e-12


def test_sweep_json_matrices(capsys):
    code = main(
        [
            "sweep",
            "--n-grid",
            "20,40",
            "--k-grid",
            "2,3",
            "--replicates",
            "3",
            "--variant",
            "c-lo",
            "--json",
        ]
    )
    assert code == 0
    payload, _ = _json_output(capsys)
    assert payload["n_grid"] == [20, 40]
    assert payload["k_grid"] == [2, 3]
    for metric in IMPROVEMENT_METRICS:
        matrix = payload[metric]
        assert len(matrix) == 2 and len(matrix[0]) == 2
    for row in payload["improvement_proportion"]:
        for cell in row:
            assert cell is None or 0.0 <= cell <= 1.0


def test_sweep_out_writes_one_csv_file(tmp_path, capsys):
    argv = ["sweep", "--n-grid", "20", "--k-grid", "2,3", "--replicates", "2", "--variant", "d-lo"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == text
    lines = text.splitlines()
    assert [line for line in lines if line.startswith("#")] == [
        f"# {metric}" for metric in IMPROVEMENT_METRICS
    ]
    assert lines[1] == "n\\k,2,3"


@pytest.mark.parametrize(
    "grids, message",
    [
        (["--n-grid", "1,x", "--k-grid", "2"], "--n-grid expects comma-separated integers, got '1,x'"),
        (["--n-grid", "20", "--k-grid", ","], "--k-grid must list at least one value"),
    ],
)
def test_sweep_rejects_a_malformed_grid(grids, message, capsys):
    assert main(["sweep", *grids]) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


def test_sweep_rejects_plain_variant(capsys):
    code = main(
        ["sweep", "--n-grid", "20", "--k-grid", "2", "--variant", "none"]
    )
    assert code == 2
    assert "escape variant" in capsys.readouterr().err


def test_verify_certifies_the_escaped_labels(tmp_path, capsys):
    data = _write_counterexample_csv(tmp_path)
    labels = _write_labels(tmp_path, [0, 0, 1, 1, 1])
    code = main(["verify", "--data", data, "--labels", labels, "--json"])
    assert code == 0
    payload, _ = _json_output(capsys)
    assert payload["k"] == 2
    assert payload["loss"] == pytest.approx(31.0 / 6.0, abs=1e-9)
    assert payload["c_local"]["kind"] == "c-local"
    assert payload["d_local"]["kind"] == "d-local"
    assert payload["global_loss"] == pytest.approx(31.0 / 6.0, abs=1e-9)
    assert payload["gap_to_global"] == pytest.approx(0.0, abs=1e-9)


def test_verify_flags_the_stalled_labels(tmp_path, capsys):
    data = _write_counterexample_csv(tmp_path)
    labels = _write_labels(tmp_path, [0, 0, 0, 1, 1])
    code = main(["verify", "--data", data, "--labels", labels, "--json"])
    assert code == 0
    payload, _ = _json_output(capsys)
    assert payload["loss"] == pytest.approx(8.5, abs=1e-9)
    assert payload["c_local"]["kind"] == "not-local"
    assert payload["d_local"]["kind"] == "not-local"
    assert payload["gap_to_global"] == pytest.approx(8.5 - 31.0 / 6.0, abs=1e-9)


def test_verify_rejects_a_non_finite_tie_tolerance(tmp_path, capsys):
    data = _write_counterexample_csv(tmp_path)
    labels = _write_labels(tmp_path, [0, 0, 1, 1, 1])
    code = main(["verify", "--data", data, "--labels", labels, "--tie-tol", "nan"])
    assert code == 2
    assert "tolerances must be finite and non-negative" in capsys.readouterr().err


def test_verify_rejects_wrong_label_count(tmp_path, capsys):
    data = _write_counterexample_csv(tmp_path)
    labels = _write_labels(tmp_path, [0, 0, 1])
    assert main(["verify", "--data", data, "--labels", labels]) == 2
    assert "3 labels for 5 points" in capsys.readouterr().err


def test_verify_rejects_non_integer_labels(tmp_path, capsys):
    data = _write_counterexample_csv(tmp_path)
    labels = tmp_path / "bad.txt"
    labels.write_text("0\nx\n1\n1\n1\n")
    assert main(["verify", "--data", data, "--labels", str(labels)]) == 2
    assert "one integer per line" in capsys.readouterr().err


def test_verify_rejects_empty_cluster(tmp_path, capsys):
    data = _write_counterexample_csv(tmp_path)
    labels = _write_labels(tmp_path, [0, 0, 0, 0, 0])
    code = main(["verify", "--data", data, "--labels", labels, "--k", "2"])
    assert code == 2
    assert "cluster 1 is empty" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["run", "--bogus"])
    assert info.value.code == 2


def test_json_out_file_round_trip(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--synth", "n=25,d=1", "--k", "3", "--json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["termination"] == "converged"


def _output_argv(command, tmp_path):
    if command == "verify":
        data = _write_counterexample_csv(tmp_path)
        return ["verify", "--data", data, "--labels", _write_labels(tmp_path, [0, 0, 0, 1, 1])]
    return {
        "run": ["run", "--synth", "n=20,d=1", "--k", "2"],
        "bench": ["bench", "--synth", "n=20,d=1", "--k", "2", "--replicates", "2"],
        "sweep": ["sweep", "--n-grid", "20", "--k-grid", "2,3", "--replicates", "2"],
        "counterexample": ["counterexample"],
    }[command]


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", ["run", "bench", "sweep", "counterexample", "verify"])
def test_out_writes_exactly_what_stdout_carries(command, fmt, tmp_path, monkeypatch, capsys):
    # A fixed clock makes the timing fields of two runs equal.
    monkeypatch.setattr(engine, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    argv = _output_argv(command, tmp_path) + fmt
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert expected
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == expected.encode("utf-8")


def test_a_skipped_d_local_check_reads_the_same_in_every_payload_and_text(
    tmp_path, monkeypatch, capsys
):
    # With the gate at 0 every instance skips the d-local check: each
    # certificate pair of run, counterexample and verify says so with one
    # note, and each text prints that note once per pair.
    monkeypatch.setattr(experiments, "MAX_CERTIFY_ADJACENTS", 0)
    pairs_of = {
        "run": lambda payload: [payload["certificates"]],
        "counterexample": lambda payload: [
            entry["certificates"] for entry in payload["variants"].values()
        ],
        "verify": lambda payload: [payload],
    }
    notes, texts = set(), []
    for command, pairs in pairs_of.items():
        argv = _output_argv(command, tmp_path)
        assert main(argv + ["--json"]) == 0
        certs = pairs(_json_output(capsys)[0])
        assert [c["d_local"] for c in certs] == [None] * len(certs)
        notes.update(c["d_local_note"] for c in certs)
        assert main(argv) == 0
        texts.append((capsys.readouterr().out, len(certs)))
    (note,) = notes
    assert note
    for text, count in texts:
        assert text.count(f"discrete certificate: {note}\n") == count


def test_readme_documents_every_subcommand_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (commands,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    accepted = {
        option
        for parser in commands.choices.values()
        for action in parser._actions
        for option in action.option_strings
    }
    assert accepted - {"-h", "--help"} == set(re.findall(r"--[a-z][a-z0-9-]*", section))


def test_readme_python_api_example_prints_what_its_comments_state(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(example, {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("5.1666")
    assert lines[1] == "[0 0 1 1 1]"
    assert lines[-1] == "d-local"


def test_console_script_is_cli_main(monkeypatch, capsys):
    # The installed `lokmeans` command calls the [project.scripts] target
    # with no arguments, so it reads sys.argv.
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, _, name = scripts["lokmeans"].partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry is main
    monkeypatch.setattr(sys, "argv", ["lokmeans", "counterexample", "--json"])
    assert entry() == 0
    payload, _ = _json_output(capsys)
    assert payload["baseline_loss"] == 8.5


def test_one_process_parses_each_command_as_a_fresh_process(tmp_path, capsys):
    # The parser is built once per process; no parse may leave state behind
    # for the next one, such as flags of an earlier call.
    data = _write_counterexample_csv(tmp_path)
    calls = [
        ["run", "--synth", "n=30,d=2", "--k", "3", "--variant", "d-lo", "--init", "kmeans++",
         "--seed", "4"],
        ["verify", "--data", data, "--labels", _write_labels(tmp_path, [0, 0, 0, 1, 1])],
        ["run", "--data", data, "--k", "2", "--divergence", "sq-euclidean"],
    ]
    src = str(Path(lokmeans.__file__).resolve().parents[1])
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "lokmeans.cli", *argv],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=120,
        )
        assert (code, captured.out, captured.err) == (0, fresh.stdout, fresh.stderr)
        assert fresh.returncode == 0
    assert build_parser() is build_parser()
