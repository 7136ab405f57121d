"""Byte-stable writers: the %.17g kernel and the CSV writer against a per-cell reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bochnerlab import cli, io_utils
from bochnerlab.errors import NumericalError
from bochnerlab.io_utils import CSV_BLOCK, ColumnRows, fmt17_fields, json_dumps, write_csv
from bochnerlab.maps import load_map, save_map
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


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), np.float32("inf")])
def test_json_refuses_a_non_finite_number_by_its_key_path(bad):
    payload = {"passed": True, "levels": [{"h": 0.5}, {"h": 0.25, "sup_residual": bad}]}
    with pytest.raises(NumericalError, match=r"^non-finite result: levels\[1\]\.sup_residual$"):
        json_dumps(payload)
    with pytest.raises(NumericalError, match=r"^non-finite result: \[0\]$"):
        json_dumps([bad])
    assert json_dumps({"h": [0.5, -0.0]}) == '{\n  "h": [\n    0.5,\n    -0\n  ]\n}\n'


@pytest.mark.parametrize("count", [0, 1, CSV_BLOCK, CSV_BLOCK + 1, 2 * CSV_BLOCK + 5])
def test_column_rows_match_element_reads(tmp_path, count):
    rng = np.random.default_rng(count)
    ints = np.arange(count)
    floats = rng.standard_normal(count)
    floats[::7] = -0.0
    floats[3::11] = np.inf
    floats[5::13] = -np.inf
    if count:
        floats[0] = np.nan
    rows = ColumnRows([ints, floats, 2.0 * floats])
    assert len(rows) == count
    expected = [[ints[k], floats[k], 2.0 * floats[k]] for k in range(count)]
    header = ["i", "x", "y"]
    assert written(tmp_path, header, rows) == reference(header, expected)


def test_column_rows_hold_numbers_only():
    with pytest.raises(TypeError):
        ColumnRows([np.array(["a", "b"])])
    with pytest.raises(ValueError):
        ColumnRows([np.array([2**53])])


@pytest.mark.parametrize("big", [2**53, -2**53, -2**63, 2**64 - 1])
def test_column_rows_refuse_integers_from_2_53(big):
    # read from the column's extremes: -2**63 has no int64 absolute value
    column = np.array([0, big], dtype=np.uint64 if big > 2**63 else np.int64)
    with pytest.raises(ValueError):
        ColumnRows([column])


def test_column_rows_write_integers_below_2_53(tmp_path):
    ints = np.array([2**53 - 1, -(2**53 - 1), 0])
    rows = ColumnRows([ints])
    assert written(tmp_path, ["n"], rows) == reference(["n"], [[int(n)] for n in ints])


def test_column_rows_compute_derived_columns_a_block_at_a_time(tmp_path):
    count = 2 * CSV_BLOCK + 5
    x = np.random.default_rng(1).standard_normal(count)
    blocks = []

    def index(start, stop):
        blocks.append((start, stop))
        return np.arange(start, stop)

    rows = ColumnRows([index, x[::-1], lambda start, stop: 3.0 * x[start:stop]], count=count)
    expected = [[k, x[::-1][k], 3.0 * x[k]] for k in range(count)]
    assert written(tmp_path, ["k", "y", "z"], rows) == reference(["k", "y", "z"], expected)
    assert blocks == [(0, CSV_BLOCK), (CSV_BLOCK, 2 * CSV_BLOCK), (2 * CSV_BLOCK, count)]
    # an array column is read as a view where its strides allow
    assert np.shares_memory(rows.columns[1], x)


# -- the %.17g kernel, cell by cell ----------------------------------------


def kernel(x):
    """fmt17_fields of x, one string per cell."""
    return [row.tobytes().replace(b"\0", b"").decode() for row in fmt17_fields(x)]


def assert_cells_match(x):
    x = np.asarray(x, dtype=float)
    got = kernel(x)
    bad = [(v, g) for v, g in zip(x.tolist(), got) if g != fmt17(v)]
    assert not bad, bad[:5]


def test_random_bit_patterns():
    bits = np.random.default_rng(13).integers(0, 2**64, 10**5, dtype=np.uint64)
    assert_cells_match(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours():
    powers = np.array([float(f"1e{p}") for p in range(-300, 301)])
    assert_cells_match(np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers,
    ]))


def test_dyadic_ties():
    # most odd multiples of 1/4 and 1/8 between 2**48 and 2**51 have
    # exactly 18 significant digits, the last a 5: a tie that %.17g
    # rounds half to even (about 4700 of these 6002 values)
    odd = np.random.default_rng(2).integers(2**51, 2**53, 3000) | 1
    x = np.concatenate([odd / 4.0, odd / 8.0, np.array([1e15 + 0.25, 1e15 + 0.75])])
    assert_cells_match(np.concatenate([x, -x]))


@pytest.mark.parametrize("x", [
    99999999999999999.0, 9.9999999999999999e5, 9.9999999999999999e-5,
    9.9999999999999999e16, 9.9999999999999999e-300, 0.99999999999999999,
    np.nextafter(1e-269, 0), np.nextafter(1e270, np.inf),
])
def test_carries_into_the_next_decade(x):
    assert_cells_match([x, -x])


def test_three_digit_exponents():
    assert_cells_match([1e100, 1.5e-100, 2.5e123, -3e-250, 1e200, 7.0e-101, 1.7976931348623157e308])


def test_fixed_and_exponent_boundaries():
    # %.17g writes 1e-5 <= |x| < 1e17 without an exponent
    assert_cells_match([1e-5, 1.25e-5, 1e-4, 0.0001234, 1e16, 1.5e16, 1e17, 123456.0, 0.5, 7.0])


def test_edge_floats():
    assert_cells_match(EDGE_FLOATS)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=50))
def test_any_float(xs):
    assert_cells_match(xs)


def test_ordinary_values_take_the_vectorised_path(monkeypatch):
    calls = []
    monkeypatch.setattr(io_utils, "fmt17", lambda v: calls.append(v) or fmt17(v))
    rng = np.random.default_rng(8)
    x = rng.standard_normal(20000) * 10.0 ** rng.integers(-200, 200, 20000)
    x[:100] = np.arange(100)  # zeros and small integers as well
    assert kernel(x) == [fmt17(v) for v in x.tolist()]
    assert calls == []
    # the cells it cannot render are the ones that fall back
    kernel([np.nan, np.inf, 5e-324, 1e300])
    assert len(calls) == 4


def test_powers_of_ten_are_computed_for_the_decades_met(monkeypatch):
    computed = []  # the decade k of each 10**(16 - k) computed
    pow10 = io_utils._pow10
    monkeypatch.setattr(io_utils, "_pow10", lambda p: computed.append(16 - p) or pow10(p))
    io_utils._tables.cache_clear()
    try:
        narrow = np.geomspace(1e-5, 1e5, 301)
        assert_cells_match(np.concatenate([narrow, -narrow, [0.0, 1.0]]))
        # its decades -5..5, and one either side where a product may move
        assert sorted(computed) == list(range(-6, 7))
        computed.clear()
        assert_cells_match(narrow[::7])
        assert computed == []
        edges = np.array([float(f"1e{k}") for k in (-270, -100, -6, -5, -4, -1, 0, 1, 16, 17,
                                                    100, 269, 270)])
        assert_cells_match(np.concatenate([
            edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), -edges,
            [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, 1.7976931348623157e308],
        ]))
        # the later call computes only the decades no earlier one met, once
        # each, out to the ends of the vectorised range
        lo, hi = min(computed), max(computed)
        assert sorted(computed) == [*range(lo, -6), *range(7, hi + 1)]
        assert lo <= -271 and hi >= 271
    finally:
        io_utils._tables.cache_clear()


# -- whole files through the command line ------------------------------------


def test_node_csv_equals_the_per_cell_reference(tmp_path, monkeypatch):
    tables = []
    monkeypatch.setattr(cli, "write_csv", lambda *a: tables.append(a) or write_csv(*a))
    path = tmp_path / "nodes.csv"
    assert cli.main(["verify", "--map", "holomorphic:k=2", "--resolution", "32",
                     "--refine", "2", "--csv", str(path)]) == 0
    (_, header, rows), = tables
    assert isinstance(rows, ColumnRows) and len(rows) == 64 * 128
    # a derived column computed as one block, against the CSV's blocks
    cells = [(c(0, len(rows)) if callable(c) else c).tolist() for c in rows.columns]
    assert path.read_text() == reference(header, zip(*cells))


def test_flow_dump_round_trips_bit_for_bit(tmp_path, monkeypatch):
    saved = []
    monkeypatch.setattr(cli, "save_map", lambda f, p: saved.append(f) or save_map(f, p))
    path = tmp_path / "final.map"
    assert cli.main(["flow", "--domain", "torus:a=1,b=1", "--init", "cap:amplitude=0.3",
                     "--resolution", "16", "--steps", "4", "--save", str(path)]) in (0, 1)
    f, = saved
    lines = path.read_text().splitlines()[4:]
    dumped = np.array([[float(s) for s in line.split(" ")] for line in lines])
    assert dumped.reshape(f.values.shape).tobytes() == f.values.tobytes()
    # load_map reprojects, as the map's own constructor did
    assert load_map(path).values.tobytes() == f.with_values(f.values).values.tobytes()
