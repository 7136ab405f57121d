"""Byte-stable writers: the CSV row templates against a per-cell reference."""

import numpy as np
import pytest

from bochnerlab.io_utils import CSV_BLOCK, ColumnRows, write_csv
from bochnerlab.numerics import fmt17

EDGE_FLOATS = [
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    0.0,
    5e-324,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1,
    1.0 / 3.0,
]
EDGE_CELLS = EDGE_FLOATS + [
    np.float64(-0.0),
    np.float64("nan"),
    np.float32(0.1),
    np.float32("-inf"),
    np.int64(-7),
    np.int32(3),
    7,
    True,
    False,
    np.bool_(True),
    "strict",
    "",
    None,
]


def cell(x):
    return fmt17(x) if isinstance(x, (float, np.floating)) else str(x)


def reference(header, rows):
    """The CSV text with each cell formatted on its own."""
    lines = [",".join(header)] + [",".join(cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def written(tmp_path, header, rows):
    path = tmp_path / "out.csv"
    write_csv(path, header, rows)
    return path.read_text()


def test_edge_cells_match_the_per_cell_reference(tmp_path):
    rows = [[x] for x in EDGE_CELLS] + [EDGE_CELLS]
    assert written(tmp_path, ["x"], rows) == reference(["x"], rows)


def test_fmt17_bytes_for_special_floats(tmp_path):
    text = written(tmp_path, ["x"], [[x] for x in EDGE_FLOATS[:6]])
    assert text.splitlines()[1:] == [
        "nan", "inf", "-inf", "-0", "0", "4.9406564584124654e-324",
    ]


def test_cell_types_may_change_from_row_to_row(tmp_path):
    # as in scan tables, where a column holds a float in one row and an
    # int, a bool or a string in the next
    rng = np.random.default_rng(5)
    rows = [
        [EDGE_CELLS[k] for k in rng.integers(0, len(EDGE_CELLS), 4)]
        for _ in range(3 * CSV_BLOCK + 11)
    ]
    rows += [tuple(EDGE_CELLS[:4]), (1, 2.5, "a", np.float32(2.5))]
    header = ["a", "b", "c", "d"]
    assert written(tmp_path, header, rows) == reference(header, rows)


def test_empty_table_is_the_header(tmp_path):
    assert written(tmp_path, ["a", "b"], []) == "a,b\n"


@pytest.mark.parametrize("count", [0, 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 5])
def test_column_rows_match_element_reads(tmp_path, count):
    rng = np.random.default_rng(count)
    ints = np.arange(count)
    floats = rng.standard_normal(count)
    floats[::7] = -0.0
    if count:
        floats[0] = np.nan
    rows = ColumnRows([ints, floats, 2.0 * floats])
    assert len(rows) == count
    expected = [[ints[k], floats[k], 2.0 * floats[k]] for k in range(count)]
    header = ["i", "x", "y"]
    assert written(tmp_path, header, rows) == reference(header, expected)
