"""CSV ingestion, duplicate merging, domain filtering, and synthesis."""

import csv
import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from conftest import reference_dedup_merge, reference_load_csv
from lokmeans import DivergenceSpec
from lokmeans.data_io import (
    CsvFormatError,
    RawTable,
    _read_with_numpy,
    counterexample_instance,
    dedup_merge,
    filter_domain,
    load_csv,
    synth_uniform_grid,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n3.5,4.5\n")
    raw = load_csv(path)
    np.testing.assert_allclose(raw.rows, [[1.0, 2.0], [3.5, 4.5]])
    assert raw.weights is None


def test_load_csv_skips_header_and_blank_lines(tmp_path):
    path = _write(tmp_path, "x,y\n1,2\n\n3,4\n")
    raw = load_csv(path, skip_header=True)
    np.testing.assert_allclose(raw.rows, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_weight_column(tmp_path):
    path = _write(tmp_path, "1.0,2.0,3.0\n4.0,0.5,6.0\n")
    raw = load_csv(path, weight_column=1)
    np.testing.assert_allclose(raw.rows, [[1.0, 3.0], [4.0, 6.0]])
    np.testing.assert_allclose(raw.weights, [2.0, 0.5])


def test_load_csv_reports_bad_cell_location(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n3.0,oops\n")
    with pytest.raises(CsvFormatError, match=r"row 2, column 2"):
        load_csv(path)


def test_load_csv_rejects_non_finite(tmp_path):
    path = _write(tmp_path, "1.0\ninf\n")
    with pytest.raises(CsvFormatError, match="non-finite"):
        load_csv(path)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n3.0\n")
    with pytest.raises(CsvFormatError, match="expected 2 columns"):
        load_csv(path)


def test_load_csv_rejects_empty_file(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_csv(path)


def test_load_csv_rejects_nonpositive_weight(tmp_path):
    path = _write(tmp_path, "1.0,1.0\n2.0,-3.0\n")
    with pytest.raises(CsvFormatError, match="weight must be positive"):
        load_csv(path, weight_column=1)


def test_load_csv_weight_error_names_the_file_row(tmp_path):
    path = _write(tmp_path, "w,x\n1,2\n\n0,3\n")
    with pytest.raises(CsvFormatError, match=r"row 4: weight must be positive"):
        load_csv(path, skip_header=True, weight_column=0)


def test_load_csv_reports_the_first_bad_cell_before_the_column_count(tmp_path):
    path = _write(tmp_path, "1,2\n3,oops,inf\n")
    with pytest.raises(CsvFormatError, match=r"row 2, column 2: not a number: 'oops'"):
        load_csv(path)
    path = _write(tmp_path, "1,2\ninf,oops\n")
    with pytest.raises(CsvFormatError, match=r"row 2, column 1: non-finite value"):
        load_csv(path)


def _outcome(loader, path, **kwargs):
    """The table a loader returns as (rows, weights) bytes, or its error message."""
    try:
        raw = loader(path, **kwargs)
    except CsvFormatError as error:
        return str(error)
    weights = None if raw.weights is None else (raw.weights.dtype, raw.weights.tobytes())
    return raw.rows.dtype, raw.rows.shape, raw.rows.tobytes(), weights


VALID_CELLS = ("1_0", " 2 ", '"3"', "-0", "0", "1e308", "+1e5", "-2.5", "0.1", "7")
BAD_CELLS = ("nan", "inf", "-inf", "1e400", "oops", "", '"1,5"', '"4\n5"')
CELLS = st.sampled_from(VALID_CELLS * 6 + BAD_CELLS) | st.floats().map(repr)


@st.composite
def csv_texts(draw):
    """CSV text: a header or not, blank lines, rows mostly of one width."""
    width = draw(st.integers(1, 4))
    lines = [draw(st.sampled_from(["x,y", "1,2", ""]))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        size = width if draw(st.integers(0, 3)) else draw(st.integers(1, 5))
        lines.append(",".join(draw(st.lists(CELLS, min_size=size, max_size=size))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@seed(0)
@settings(
    derandomize=True,
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    text=csv_texts(),
    skip_header=st.booleans(),
    weight_column=st.sampled_from([None, None, 0, 1, 3]),
)
def test_load_csv_matches_the_per_cell_reference(tmp_path, text, skip_header, weight_column):
    path = _write(tmp_path, text)
    kwargs = {"skip_header": skip_header, "weight_column": weight_column}
    assert _outcome(load_csv, path, **kwargs) == _outcome(reference_load_csv, path, **kwargs)


def test_load_csv_matches_the_reference_on_a_full_precision_table(tmp_path):
    rng = np.random.default_rng(7)
    table = np.column_stack(
        [rng.integers(1, 4, size=500), np.exp(rng.normal(size=(500, 15))), rng.poisson(1.0, 500)]
    )
    path = str(tmp_path / "table.csv")
    np.savetxt(path, table, fmt="%.17g", delimiter=",")
    outcome = _outcome(load_csv, path, weight_column=0)
    assert outcome == _outcome(reference_load_csv, path, weight_column=0)
    np.testing.assert_array_equal(load_csv(path).rows, table)


def test_load_csv_holds_the_file_and_two_tables_at_most(tmp_path):
    # Figures for numpy 2.4: the 2000 x 17 table takes 272 KB and its file
    # 624 KB. A list of the file's lines took the peak to 1.33 MB, and
    # weights that viewed the parsed table kept all of it alive after the
    # return; without either the peak is 0.97 MB.
    rng = np.random.default_rng(3)
    table = np.column_stack([rng.integers(1, 4, size=2000), np.exp(rng.normal(size=(2000, 16)))])
    path = tmp_path / "table.csv"
    np.savetxt(path, table, fmt="%.17g", delimiter=",")
    gc.collect()
    tracemalloc.start()
    try:
        raw = load_csv(str(path), weight_column=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert raw.weights.base is None
    assert peak <= path.stat().st_size + 2 * table.nbytes + 64_000, peak


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["", "\n\n", "\r\n\r\n\r\n"], ids=["empty", "lf", "crlf"])
@pytest.mark.parametrize("skip_header", [False, True])
def test_load_csv_reports_no_data_rows_without_a_warning(tmp_path, text, skip_header):
    path = _write(tmp_path, text)
    with pytest.raises(CsvFormatError, match="no data rows"):
        load_csv(path, skip_header=skip_header)


LIMIT = csv.field_size_limit()


# Files numpy's reader refuses or reads differently from ``float`` and csv:
# underscores, quotes, non-ASCII whitespace and digits, the ASCII
# separators \x1c-\x1f (numpy strips them, ``float`` refuses them), a header
# whose quote spans lines, and a field over csv's size limit. At the limit,
# a line of one field is numpy's with "\n" and the row loop's with "\r\n"
# (the "\r" counts); one character over, on a last line with no newline,
# the row loop refuses it.
@pytest.mark.parametrize(
    "text, skip_header",
    [
        ("1_0,2\n3,4\n", False),
        ('"3",2\n3,4\n', False),
        ("\xa01,2\n3,4\n", False),
        ("\u0661,2\n3,4\n", False),
        ("1,2\n\x1c3,4\n", False),
        ("1,2\n3\x1f,4\n", False),
        ('"h\n1,2\n3,4\n', True),
        ('"x","y"\n1,2\n3,4\n', True),
        ("1,2\n" + "0" * (LIMIT + 1) + ",4\n", False),
        ("0" * LIMIT + "\n7\n", False),
        ("7\n" + "0" * (LIMIT + 1), False),
        ("0" * LIMIT + "\r\n7\r\n", False),
        ("7\r\n" + "0" * (LIMIT + 1), False),
    ],
    ids=[
        "underscore", "quoted", "nbsp", "arabic-indic", "fs", "us",
        "open-quote-header", "quoted-header", "long-field",
        "field-at-limit", "last-line-over-limit",
        "field-at-limit-crlf", "last-line-over-limit-crlf",
    ],
)
@pytest.mark.parametrize("weight_column", [None, 1])
def test_load_csv_matches_the_reference_where_numpy_and_float_differ(
    tmp_path, text, skip_header, weight_column
):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    kwargs = {"skip_header": skip_header, "weight_column": weight_column}
    # Routing: a line longer than the limit, its "\n" left out, sends the
    # file to the row loop; a one-column line at the limit stays numpy's.
    longest = max(map(len, text.encode("utf-8").split(b"\n")))
    if longest > LIMIT:
        assert _read_with_numpy(path, skip_header, weight_column) is None
    elif longest == LIMIT and weight_column is None:
        assert _read_with_numpy(path, skip_header, weight_column) is not None
    try:
        expected = _outcome(reference_load_csv, path, **kwargs)
    except csv.Error as error:
        with pytest.raises(csv.Error, match=re.escape(str(error))):
            load_csv(path, **kwargs)
        return
    assert _outcome(load_csv, path, **kwargs) == expected


def test_load_csv_weight_column_bounds(tmp_path):
    path = _write(tmp_path, "1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="out of range"):
        load_csv(path, weight_column=2)


def test_load_csv_requires_coordinates_beyond_weight(tmp_path):
    path = _write(tmp_path, "1.0\n2.0\n")
    with pytest.raises(CsvFormatError, match="no coordinate columns"):
        load_csv(path, weight_column=0)


def test_load_mahalanobis_csv_reads_full_precision_bit_for_bit(tmp_path):
    rng = np.random.default_rng(12)
    basis = rng.normal(size=(16, 16))
    matrix = basis @ basis.T + 16 * np.eye(16)
    path = str(tmp_path / "matrix.csv")
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
    loaded = load_csv(path).rows
    assert loaded.dtype == np.float64
    assert loaded.tobytes() == matrix.tobytes()


def test_load_mahalanobis_csv_errors_name_the_file_row_and_column(tmp_path):
    path = _write(tmp_path, "1,0\n\n0,oops\n", name="matrix.csv")
    with pytest.raises(CsvFormatError, match=r"row 3, column 2: not a number: 'oops'"):
        load_csv(path).rows
    path = _write(tmp_path, "1,0\n0\n", name="matrix.csv")
    with pytest.raises(CsvFormatError, match=r"row 2: expected 2 columns, got 1"):
        load_csv(path).rows


def test_dedup_merge_sums_weights_in_first_seen_order():
    rows = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [5.0, 6.0], [1.0, 2.0]])
    weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    dataset = dedup_merge(RawTable(rows, weights))
    np.testing.assert_allclose(
        dataset.points, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    )
    np.testing.assert_allclose(dataset.weights, [9.0, 2.0, 4.0])


def test_dedup_merge_defaults_to_multiplicity():
    rows = np.array([[7.0], [7.0], [8.0]])
    dataset = dedup_merge(RawTable(rows, None))
    np.testing.assert_allclose(dataset.points, [[7.0], [8.0]])
    np.testing.assert_allclose(dataset.weights, [2.0, 1.0])


def test_dedup_merge_is_bitwise_not_tolerance_based():
    near = 0.1 + 0.2  # differs from 0.3 in the last bit
    dataset = dedup_merge(RawTable(np.array([[0.3], [near]]), None))
    assert dataset.n == 2


def test_dedup_merge_merges_rows_that_differ_only_in_a_signed_zero():
    rows = np.array([[1.0, 0.0, 1.0], [1.0, -0.0, 1.0], [5.0, 5.0, 5.0]])
    dataset = dedup_merge(RawTable(rows, np.array([1.0, 2.0, 4.0])))
    np.testing.assert_array_equal(dataset.points, [[1.0, 0.0, 1.0], [5.0, 5.0, 5.0]])
    np.testing.assert_array_equal(dataset.weights, [3.0, 4.0])


@seed(0)
@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    data=st.data(),
    n=st.integers(1, 60),
    d=st.integers(1, 3),
    weighted=st.booleans(),
)
def test_dedup_merge_matches_the_per_row_reference(data, n, d, weighted):
    # Few distinct values, signed zeros among them, and weights of mixed
    # magnitude, so that rows repeat and the order of the additions shows.
    cell = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, 1e300])
    rows = np.array(data.draw(st.lists(cell, min_size=n * d, max_size=n * d))).reshape(n, d)
    weight = st.sampled_from([0.1, 0.7, 1.0, 3.0, 1e16, 2.5e-8])
    weights = np.array(data.draw(st.lists(weight, min_size=n, max_size=n))) if weighted else None
    raw = RawTable(rows, weights)
    merged, reference = dedup_merge(raw), reference_dedup_merge(raw)
    assert merged.points.shape == reference.points.shape
    assert merged.points.tobytes() == reference.points.tobytes()
    assert merged.weights.tobytes() == reference.weights.tobytes()


def test_filter_domain_is_identity_for_unconstrained_divergences():
    dataset = dedup_merge(RawTable(np.array([[-1.0, 2.0], [3.0, -4.0]]), None))
    spec = DivergenceSpec.squared_euclidean()
    same, dropped = filter_domain(dataset, spec)
    assert dropped == []
    assert same is dataset


def test_filter_domain_drops_offending_dimensions():
    rows = np.array(
        [[1.0, -1.0, 2.0, 0.0], [1.0, 5.0, 3.0, 1.0], [2.0, 2.0, 4.0, 2.0]]
    )
    dataset = dedup_merge(RawTable(rows, None))
    filtered, dropped = filter_domain(dataset, DivergenceSpec.kl())
    assert dropped == [1, 3]
    np.testing.assert_allclose(
        filtered.points, [[1.0, 2.0], [1.0, 3.0], [2.0, 4.0]]
    )


def test_filter_domain_remerges_collapsed_rows():
    rows = np.array([[1.0, -1.0], [1.0, -2.0], [3.0, 4.0]])
    dataset = dedup_merge(RawTable(rows, np.array([1.0, 2.0, 3.0])))
    filtered, dropped = filter_domain(dataset, DivergenceSpec.itakura_saito())
    assert dropped == [1]
    np.testing.assert_allclose(filtered.points, [[1.0], [3.0]])
    np.testing.assert_allclose(filtered.weights, [3.0, 3.0])


def test_filter_domain_rejects_fully_invalid_data():
    dataset = dedup_merge(RawTable(np.array([[-1.0], [2.0]]), None))
    with pytest.raises(ValueError, match="every dimension"):
        filter_domain(dataset, DivergenceSpec.kl())


def test_synth_uniform_grid_properties():
    dataset = synth_uniform_grid(200, 2, seed=4)
    assert dataset.total_weight == pytest.approx(200.0)
    assert dataset.n <= 100
    assert dataset.points.min() >= 1.0
    assert dataset.points.max() <= 10.0
    assert np.array_equal(dataset.points, np.round(dataset.points))
    again = synth_uniform_grid(200, 2, seed=4)
    np.testing.assert_array_equal(dataset.points, again.points)
    np.testing.assert_array_equal(dataset.weights, again.weights)


def test_synth_uniform_grid_single_dimension_caps_at_ten_points():
    dataset = synth_uniform_grid(50, 1, seed=0)
    assert dataset.n <= 10
    assert dataset.total_weight == pytest.approx(50.0)


def test_synth_uniform_grid_validates_arguments():
    with pytest.raises(ValueError):
        synth_uniform_grid(0, 2, seed=1)
    with pytest.raises(ValueError):
        synth_uniform_grid(5, 0, seed=1)


def test_counterexample_instance_frozen_contents():
    dataset, initial = counterexample_instance()
    np.testing.assert_allclose(
        dataset.points, [[-4.0], [-2.0], [0.0], [1.5], [2.5]]
    )
    np.testing.assert_allclose(dataset.weights, np.ones(5))
    np.testing.assert_allclose(initial, [[0.0], [2.5]])