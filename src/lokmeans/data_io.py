"""Dataset ingestion: CSV loading, duplicate merging, domain filtering, synthesis."""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NoReturn

import numpy as np

from .divergence import DivergenceSpec, domain_contains
from .model import Dataset, row_keys


class CsvFormatError(ValueError, csv.Error):
    """A file ``load_csv`` refuses, located; csv's own refusals become one."""


@dataclass(frozen=True)
class RawTable:
    """Parsed rows before merging; weights is None when no column was given."""

    rows: np.ndarray
    weights: np.ndarray | None


def load_csv(path: str, skip_header: bool = False, weight_column: int | None = None) -> RawTable:
    """Parse a UTF-8 comma-separated file of numeric rows.

    ``weight_column`` is a zero-based index into the raw columns; the
    remaining columns become coordinates. Cells follow Python's ``float``
    (quoting, surrounding whitespace, ``1_0``, ``+1e5``) and must be
    finite; weights must be positive. Errors carry one-based file row and
    column locations; the first bad cell in file order wins, ahead of its
    row's column count.

    numpy's C reader is tried first. It converts each cell with the same
    routine as ``float``, so a table it reads is the row loop's bit for
    bit. A file it refuses, a file with text the two read differently, and
    a table with no rows, a non-finite value or a weight that is not
    positive all go to the row loop, which alone decides what is accepted
    and words every error.
    """
    table = _read_with_numpy(path, skip_header, weight_column)
    if table is None:
        table = _read_rows(path, skip_header, weight_column)
    if weight_column is None:
        return RawTable(table, None)
    rows = np.delete(table, weight_column, axis=1)
    if rows.shape[1] == 0:
        raise CsvFormatError(f"{path}: no coordinate columns besides the weight column")
    return RawTable(rows, table[:, weight_column])


def _read_with_numpy(path: str, skip_header: bool, weight_column: int | None) -> np.ndarray | None:
    """The file's table as ``np.loadtxt`` reads it, or None when the row loop
    must decide: the file holds text numpy reads differently from the row
    loop, numpy refused it, or the table has no rows, a non-finite value,
    or a weight column that is out of range or not positive."""
    with open(path, "rb") as handle:
        data = handle.read()
    # numpy strips the ASCII separators \x1c-\x1f around a number, which
    # ``float`` refuses; csv refuses a field longer than its limit, and a
    # field of an unquoted file lies within one line.
    if any(sep in data for sep in b"\x1c\x1d\x1e\x1f") or (
        max(map(len, data.split(b"\n"))) > csv.field_size_limit()
    ):
        return None
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        # csv consumes the header record, which a quote can stretch over
        # several lines; numpy never sees it.
        if skip_header:
            next(csv.reader(text), None)
        # numpy warns on a file with no rows; the row loop reports it.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = np.loadtxt(
                text,
                delimiter=",",
                comments=None,
                quotechar=None,
                encoding="utf-8",
                ndmin=2,
                dtype=np.float64,
            )
    except (ValueError, csv.Error):
        return None
    if table.shape[0] == 0 or not np.isfinite(table).all():
        return None
    if weight_column is not None and not (
        0 <= weight_column < table.shape[1] and (table[:, weight_column] > 0.0).all()
    ):
        return None
    return table


def _read_rows(path: str, skip_header: bool, weight_column: int | None) -> np.ndarray:
    """``load_csv``'s table, read one ``csv`` row at a time, with its weight
    column checked; raises the located error of the first fault."""
    records: list[list[float]] = []
    file_rows: list[int] = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row, row_index in _records(path, handle):
            if not row or (skip_header and row_index == 1):
                continue
            # One conversion and one finiteness test per row; only a row
            # that fails either is scanned cell by cell for the error.
            try:
                values = list(map(float, row))
                finite = all(map(math.isfinite, values))
            except ValueError:
                finite = False
            if not finite:
                _raise_bad_cell(path, row_index, row)
            if records and len(values) != len(records[0]):
                raise CsvFormatError(
                    f"{path}: row {row_index}: expected {len(records[0])} columns, got {len(values)}"
                )
            records.append(values)
            file_rows.append(row_index)
    if not records:
        raise CsvFormatError(f"{path}: no data rows")

    table = np.asarray(records, dtype=np.float64)
    if weight_column is None:
        return table
    if not 0 <= weight_column < table.shape[1]:
        raise CsvFormatError(
            f"{path}: weight column {weight_column} out of range for {table.shape[1]} columns"
        )
    weights = table[:, weight_column]
    if (weights <= 0.0).any():
        bad = int(np.flatnonzero(weights <= 0.0)[0])
        raise CsvFormatError(f"{path}: row {file_rows[bad]}: weight must be positive")
    return table


def _records(path: str, handle) -> Iterator[tuple[list[str], int]]:
    """csv records with their numbers from 1; one csv refuses raises CsvFormatError."""
    numbers = itertools.count(1)
    try:
        yield from zip(csv.reader(handle), numbers)
    except csv.Error as exc:
        # zip reads a record before drawing its number: the refused one's is next.
        raise CsvFormatError(f"{path}: row {next(numbers)}: {exc}") from None


def _raise_bad_cell(path: str, row_index: int, row: list[str]) -> NoReturn:
    """Raise the error for the first cell of ``row`` that is not a finite number."""
    for col_index, cell in enumerate(row, start=1):
        try:
            value = float(cell)
        except ValueError:
            raise CsvFormatError(
                f"{path}: row {row_index}, column {col_index}: not a number: {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise CsvFormatError(f"{path}: row {row_index}, column {col_index}: non-finite value")
    raise AssertionError(f"row {row_index} holds only finite numbers")


def dedup_merge(raw: RawTable) -> Dataset:
    """Merge rows of equal value, summing weights, keeping first-seen order.

    Rows are compared by ``row_keys``, so two rows merge exactly when
    ``Dataset`` would call them equal; a merged row keeps ``+0.0`` for
    ``-0.0``.
    """
    keys = row_keys(raw.rows)
    rows = keys.view(np.float64).reshape(np.shape(raw.rows))
    weights = (
        np.ones(rows.shape[0], dtype=np.float64)
        if raw.weights is None
        else np.asarray(raw.weights, dtype=np.float64)
    )
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    # Number the distinct rows by first appearance; bincount then adds each
    # row's weights in file order, as a running sum would.
    order = np.argsort(first)
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    merged = np.bincount(slot[inverse], weights=weights, minlength=order.size)
    return Dataset(rows[first[order]], merged)


def filter_domain(dataset: Dataset, spec: DivergenceSpec) -> tuple[Dataset, list[int]]:
    """Drop dimensions that violate the divergence domain; re-merge afterwards.

    A dimension is removed when one of its values lies outside the interior
    of dom(phi), which ``engine.run`` requires. Projection can make
    previously distinct rows coincide, so duplicates are re-merged (weights
    summed). Returns the dataset and the dropped dimension indices.
    """
    keep = np.array([domain_contains(spec, col, require_interior=True) for col in dataset.points.T])
    dropped = [int(j) for j in np.flatnonzero(~keep)]
    if not dropped:
        return dataset, []
    if not keep.any():
        raise ValueError(f"every dimension violates the domain of {spec.kind}")
    return dedup_merge(RawTable(dataset.points[:, keep], dataset.weights)), dropped


def synth_uniform_grid(n: int, d: int, seed: int) -> Dataset:
    """n integer points drawn uniformly from {1..10}^d, duplicates merged.

    Multiplicity becomes the weight, so total weight equals n while the
    number of distinct points is at most 10**d.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    rng = np.random.default_rng(seed)
    points = rng.integers(1, 11, size=(n, d)).astype(np.float64)
    return dedup_merge(RawTable(points, None))


def counterexample_instance() -> tuple[Dataset, np.ndarray]:
    """Fixed five-point line where plain K-means stalls at a non-local fixed point.

    Returns the unit-weight dataset and the initial centers that lead the
    assignment sweep into a cross-cluster tie it cannot escape.
    """
    points = np.array([[-4.0], [-2.0], [0.0], [1.5], [2.5]])
    dataset = Dataset(points, np.ones(5))
    initial_centers = np.array([[0.0], [2.5]])
    return dataset, initial_centers
