"""End-to-end command line coverage through main(argv)."""

import csv
import json

import numpy as np
import pytest

from lokmeans.cli import BENCH_COLUMNS, _jsonable, main
from lokmeans.experiments import IMPROVEMENT_METRICS


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


def test_bench_counterexample_frozen_summary(capsys):
    code = main(
        [
            "bench",
            "--counterexample",
            "--replicates",
            "1",
            "--variants",
            "c-lo",
            "--json",
        ]
    )
    assert code == 0
    payload, _ = _json_output(capsys)
    summaries = {row["variant"]: row for row in payload["summaries"]}
    assert set(summaries) == {"none", "c-lo"}

    none = summaries["none"]
    assert none["loss_mean"] == pytest.approx(8.5, abs=1e-9)
    assert none["improvement_ratio_mean"] == 0.0
    assert none["loss_variance"] is None  # single replicate

    tuned = summaries["c-lo"]
    assert tuned["loss_mean"] == pytest.approx(31.0 / 6.0, abs=1e-9)
    assert tuned["improvement_proportion"] == pytest.approx(1.0)
    assert tuned["improvement_ratio_mean"] == pytest.approx(
        (8.5 - 31.0 / 6.0) / 8.5, abs=1e-9
    )
    assert tuned["iteration_increase_ratio_mean"] == pytest.approx(0.5, abs=1e-12)
    assert tuned["new_step_invocations_mean"] == pytest.approx(1.0)
    assert len(payload["records"]) == 2


@pytest.mark.parametrize(
    "extra, flag",
    [
        (["--synth", "n=100,d=3"], "--synth"),
        (["--data", "points.csv"], "--data"),
        (["--k", "5"], "--k"),
        (["--divergence", "kl"], "--divergence"),
    ],
)
def test_bench_counterexample_rejects_dataset_and_model_flags(extra, flag, capsys):
    argv = ["bench", "--counterexample", "--variants", "d-lo", "--replicates", "2"]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert f"{flag} does not apply" in captured.err
    assert captured.out == ""


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


def test_bench_requires_k_without_counterexample(capsys):
    assert main(["bench", "--synth", "n=20,d=1"]) == 2
    assert "--k is required" in capsys.readouterr().err


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
    assert [set(row) == set(BENCH_COLUMNS) for row in rows]
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


def test_sweep_writes_one_csv_per_metric(tmp_path, capsys):
    prefix = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--n-grid",
            "20",
            "--k-grid",
            "2,3",
            "--replicates",
            "2",
            "--variant",
            "d-lo",
            "--out",
            str(prefix),
        ]
    )
    assert code == 0
    for metric in IMPROVEMENT_METRICS:
        path = tmp_path / f"sweep_{metric}.csv"
        assert path.exists()
        first = path.read_text().splitlines()[0]
        assert first == "n\\k,2,3"


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


def test_thread_env_does_not_change_results(monkeypatch, capsys):
    argv = [
        "bench",
        "--synth",
        "n=50,d=1",
        "--k",
        "5",
        "--replicates",
        "4",
        "--variants",
        "d-lo",
        "--json",
    ]
    monkeypatch.setenv("LOKMEANS_THREADS", "1")
    assert main(argv) == 0
    serial, _ = _json_output(capsys)
    monkeypatch.setenv("LOKMEANS_THREADS", "3")
    assert main(argv) == 0
    threaded, _ = _json_output(capsys)

    def strip_timing(payload):
        records = [
            {key: value for key, value in record.items() if key != "wall_time"}
            for record in payload["records"]
        ]
        summaries = [
            {key: value for key, value in row.items() if key != "time_mean_seconds"}
            for row in payload["summaries"]
        ]
        return records, summaries

    assert strip_timing(serial) == strip_timing(threaded)


def test_json_out_file_round_trip(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--synth", "n=25,d=1", "--k", "3", "--json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["termination"] == "converged"