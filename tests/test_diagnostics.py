"""Error metrics and convergence-trace CSV files."""

import numpy as np
import pytest

from atmtomo import Field, make_grid, relative_error
from atmtomo.diagnostics import CSV_HEADER, ConvergenceRecord, read_csv, write_csv


def sample_records():
    return [
        ConvergenceRecord(0, 12.5, 0.0, None, 3.0, 7.25, 0.0),
        ConvergenceRecord(1, 0.1, 1e-17, 1.0, 2.5, 1.6605846898191808, 0.015625),
        ConvergenceRecord(2, 0.062, 5.5, 0.25, 1e-300, 0.0, 2.0),
    ]


def test_relative_error_examples(desk):
    assert relative_error(np.zeros(desk.grid.n_nodes), desk.truth) == pytest.approx(1.0)
    assert relative_error(desk.truth, desk.truth) == 0.0
    scaled = Field(grid=desk.grid, values=1.1 * desk.truth.values)
    assert relative_error(scaled, desk.truth) == pytest.approx(0.1, abs=1e-14)


def test_zero_truth(desk):
    zero = np.zeros(desk.grid.n_nodes)
    assert relative_error(zero, zero) == 0.0
    with pytest.raises(ValueError):
        relative_error(desk.truth.values, zero)


def test_mismatches_raise(desk):
    other = make_grid(3, 3, 3, (0, 1, 0, 1, 0, 15))
    with pytest.raises(ValueError):
        relative_error(Field(grid=other, values=np.zeros(27)), desk.truth)
    # same node count, other box: only the grid check can tell them apart
    taller = make_grid(4, 4, 4, (0, 1, 0, 1, 0, 30))
    with pytest.raises(ValueError, match="different grids"):
        relative_error(Field(grid=taller, values=desk.truth.values), desk.truth)
    with pytest.raises(ValueError):
        relative_error(np.zeros(5), desk.truth)


def test_field_and_array_agree(desk, rng):
    values = rng.standard_normal(desk.grid.n_nodes)
    as_field = Field(grid=desk.grid, values=values)
    assert relative_error(as_field, desk.truth) == relative_error(values, desk.truth)


def test_csv_round_trip_is_exact(tmp_path):
    records = sample_records()
    path = tmp_path / "trace.csv"
    write_csv(records, path)
    back = read_csv(path)
    assert back == records
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 4
    # a missing reference error stays an empty cell
    assert lines[1].split(",")[3] == ""


def test_csv_line_count_for_thirty_outer_steps(tmp_path):
    records = [
        ConvergenceRecord(k, float(30 - k), 1.0, None, 1.0, 0.5, float(k))
        for k in range(31)
    ]
    path = tmp_path / "outer.csv"
    write_csv(records, path)
    assert len(path.read_text().splitlines()) == 32
    assert len(read_csv(path)) == 31


def test_empty_records_write_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text().splitlines() == [",".join(CSV_HEADER)]
    assert read_csv(path) == []


def test_read_rejects_other_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_read_rejects_malformed_rows(tmp_path):
    # only rel_error may be empty, and every row has one cell per column
    path = tmp_path / "trace.csv"
    write_csv(sample_records(), path)
    header, first, *rest = path.read_text().splitlines()
    cells = first.split(",")
    for bad in (["", *cells[1:]], [cells[0], "", *cells[2:]], cells[:-1], [*cells, "1.0"]):
        path.write_text("\n".join([header, ",".join(bad), *rest]) + "\n")
        with pytest.raises(ValueError):
            read_csv(path)


def test_read_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_csv(tmp_path / "absent.csv")
