"""Lossless CSV round trips."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

from wealthsim import _kernels_py, backends
from wealthsim.errors import ParseError
from wealthsim.tableio import BLOCK_CELLS, format_value, read_table, write_table


def test_format_value_cases():
    assert format_value(7) == "7"
    assert format_value(np.int64(-12)) == "-12"
    assert format_value(2**63 - 1) == "9223372036854775807"
    assert format_value(1.0) == "1.0"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(1e300) == "1.0000000000000001e+300"
    assert float(format_value(1e300)) == 1e300
    assert format_value(float("nan")) == "nan"
    assert format_value(float("inf")) == "inf"
    # ties at the 17th digit go to the even digit
    assert format_value(1000000000000000.25) == "1000000000000000.2"
    assert format_value(4503599627370497.5) == "4503599627370498.0"


def test_round_trip_preserves_values_and_dtypes(tmp_path):
    path = tmp_path / "t.csv"
    t = np.arange(0, 150, 30, dtype=np.int64)
    w = np.array([1000.0, 999.99999999999989, 1e-300, 6.0064911319545377e-4,
                  123456789.12345679])
    write_table(path, ["t", "w"], [t, w], {"seed": "17", "units": "t=days"})
    meta, header, cols = read_table(path)
    assert meta == {"seed": "17", "units": "t=days"}
    assert header == ["t", "w"]
    assert cols["t"].dtype == np.int64
    np.testing.assert_array_equal(cols["t"], t)
    assert cols["w"].dtype == np.float64
    np.testing.assert_array_equal(cols["w"], w)  # bitwise, not approx


def test_integral_floats_stay_floats(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["x"], [np.array([1.0, 2.0, 3.0])], {})
    _, _, cols = read_table(path)
    assert cols["x"].dtype == np.float64
    np.testing.assert_array_equal(cols["x"], [1.0, 2.0, 3.0])


def test_big_integers_survive(tmp_path):
    # 64-bit seeds exceed float64's mantissa; they must not go through float
    path = tmp_path / "t.csv"
    vals = np.array([2**62 + 1, -(2**61 + 7)], dtype=np.int64)
    write_table(path, ["seed"], [vals], {})
    _, _, cols = read_table(path)
    assert cols["seed"].dtype == np.int64
    np.testing.assert_array_equal(cols["seed"], vals)


@settings(max_examples=200, deadline=None)
@given(hyp.lists(hyp.floats(allow_nan=False, width=64), min_size=1, max_size=40))
def test_float_round_trip_is_bitwise(tmp_path_factory, xs):
    path = tmp_path_factory.getbasetemp() / "prop.csv"
    arr = np.array(xs, dtype=np.float64)
    write_table(path, ["x"], [arr], {})
    _, _, cols = read_table(path)
    np.testing.assert_array_equal(cols["x"], arr)


def test_write_validation(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_table(path, ["a", "b"], [np.arange(3)], {})
    with pytest.raises(ValueError):
        write_table(path, ["a", "b"], [np.arange(3), np.arange(4)], {})
    with pytest.raises(ValueError):
        write_table(path, ["a"], [np.zeros((2, 2))], {})


def test_reader_reports_ragged_rows_with_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# seed: 1\na,b\n1,2\n3\n4,5,6\n7,8\n", encoding="utf-8")
    with pytest.raises(ParseError) as ei:
        read_table(path)
    msgs = ei.value.problems
    assert len(msgs) == 2
    assert "line 4" in msgs[0] and "got 1" in msgs[0]
    assert "line 5" in msgs[1] and "got 3" in msgs[1]


def test_reader_reports_integers_outside_int64(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("x\n1\n99999999999999999999\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_table(path)


def test_reader_names_the_column_of_a_non_numeric_cell(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("x,name\n1,2.5\n2,rank_1\n", encoding="utf-8")
    with pytest.raises(ParseError) as ei:
        read_table(path)
    [problem] = ei.value.problems
    assert problem.startswith("column 'name':") and "'rank_1'" in problem


def test_reader_requires_header(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# only: metadata\n\n", encoding="utf-8")
    with pytest.raises(ParseError) as ei:
        read_table(path)
    assert any("no header" in p for p in ei.value.problems)


def test_blank_lines_and_late_comments_ignored(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# k: v\n\nx,y\n1,2\n# trailing note\n3,4\n", encoding="utf-8")
    meta, header, cols = read_table(path)
    assert meta == {"k": "v"}
    np.testing.assert_array_equal(cols["x"], [1, 3])
    np.testing.assert_array_equal(cols["y"], [2, 4])


def test_empty_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b"], [np.array([]), np.array([])], {"n": "0"})
    meta, header, cols = read_table(path)
    assert header == ["a", "b"]
    assert cols["a"].size == 0


def reference_bytes(header, columns, metadata):
    """The file as the cell-by-cell writer made it: one format_value per cell."""
    lines = [f"# {k}: {v}" for k, v in metadata.items()]
    lines.append(",".join(header))
    for i in range(len(columns[0]) if columns else 0):
        lines.append(",".join(format_value(c[i]) for c in columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


INT64 = np.iinfo(np.int64)
# the floats whose text needs care: '-0.0', integral values either side of
# 1e17 (where %.17g switches to an exponent), subnormals, nan and inf
SPECIAL_FLOATS = [-0.0, 0.0, 1000.0, -1e16, 99999999999999984.0, 1e17, -1e17,
                  5e-324, 2.2250738585072009e-308, math.inf, -math.inf, math.nan]
CELLS = {
    "int64": hyp.one_of(hyp.sampled_from([INT64.min, INT64.max, 0, -1]),
                        hyp.integers(INT64.min, INT64.max)),
    "float64": hyp.one_of(hyp.sampled_from(SPECIAL_FLOATS), hyp.floats(width=64)),
}


@hyp.composite
def tables(draw):
    kinds = draw(hyp.lists(hyp.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    block = BLOCK_CELLS // len(kinds)  # rows per block
    n = draw(hyp.sampled_from([0, 1, block - 1, block, block + 1]))
    rng = np.random.default_rng(draw(hyp.integers(0, 2**32 - 1)))
    columns = []
    for kind in kinds:
        pool = np.array(draw(hyp.lists(CELLS[kind], min_size=1, max_size=8)), dtype=kind)
        columns.append(pool[rng.integers(pool.size, size=n)])
    return [f"c{j}" for j in range(len(kinds))], columns


needs_c = pytest.mark.skipif(backends.backend_name != "c",
                             reason="compiled library not built")
# write_table's two paths: the compiled writer, and format_value cell by
# cell, which the pure-Python backend supplies
WRITERS = [pytest.param("c", marks=needs_c), "python"]


@contextlib.contextmanager
def writing_through(writer):
    """Make write_table take the given path."""
    with pytest.MonkeyPatch.context() as mp:
        if writer == "python":
            mp.setattr(backends, "write_rows", _kernels_py.write_rows)
        yield


@pytest.mark.parametrize("writer", WRITERS)
@settings(max_examples=60, deadline=None)
@given(table=tables())
def test_write_table_matches_the_cell_by_cell_writer(tmp_path_factory, writer, table):
    header, columns = table
    path = tmp_path_factory.getbasetemp() / "bytes.csv"
    metadata = {"params_hash": "5f1c2b", "units": "x=1, y=2"}
    with writing_through(writer):
        write_table(path, header, columns, metadata)
    assert path.read_bytes() == reference_bytes(header, columns, metadata)


def same_floats(a, b):
    """Bitwise equal, except that any nan equals any nan."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


@pytest.mark.parametrize("writer", WRITERS)
@settings(max_examples=60, deadline=None)
@given(table=tables())
def test_read_table_returns_what_write_table_accepts(tmp_path_factory, writer, table):
    header, columns = table
    path = tmp_path_factory.getbasetemp() / "round-trip.csv"
    metadata = {"params_hash": "5f1c2b", "units": "x=1, y=2"}
    with writing_through(writer):
        write_table(path, header, columns, metadata)
    meta, names, cols = read_table(path)
    assert meta == metadata
    assert names == header
    for name, c in zip(header, columns):
        back = cols[name]
        assert back.size == c.size
        if c.size == 0:  # no cell to type the column by
            continue
        assert back.dtype == c.dtype
        if c.dtype == np.int64:
            assert np.array_equal(back, c)
        else:
            assert same_floats(back, c)


def c_cells(column):
    """The cells the compiled writer writes for one int64 or float64 column."""
    fh = io.BytesIO()
    backends.write_rows(fh, [np.ascontiguousarray(column)], BLOCK_CELLS)
    return fh.getvalue().decode("ascii").split("\n")[:-1]


def neighbours(values):
    """The values with the next double either side of each."""
    v = np.array(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # past the largest double: inf
        return np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)])


# The compiled formatter takes 17 digits from the exact value m * 2^e:
# unsigned __int128 serves 2^-19 <= |v| < 1e16, 64-bit limbs the rest;
# 2^53, 1e16 and 1e17 are where the decimal scale turns from up to down
FORMATTER_CASES = {
    "random-bit-patterns": np.random.default_rng(20261018).integers(
        0, 2**64, size=10**5, dtype=np.uint64).view(np.float64),
    "powers-of-ten": neighbours([float(f"1e{k}") for k in range(-320, 309)]),
    "path-edges": neighbours([2.0**-20, 2.0**-19, 1e-6, 2.0**126, 2.0**127,
                              2.0**53, 2.0**54, 1e16, 1e17, 5e-324,
                              2.2250738585072014e-308, 1.7976931348623157e308]),
    "ties": np.array([1000000000000000.25, 4503599627370497.5, 0.5, 2.5]),
    # doubles below a power of ten whose 17 digits round up to it
    "new-decade": np.array([1e-14, 1e-73, 1e-305]),
    "specials": np.array([-0.0, 0.0, np.copysign(np.nan, -1), np.nan, np.inf, -np.inf]),
    "int64": np.array([INT64.min, INT64.max, 0, -1, 10**18], dtype=np.int64),
}


@needs_c
@pytest.mark.parametrize("case", sorted(FORMATTER_CASES))
def test_compiled_formatter_matches_format_value(case):
    column = FORMATTER_CASES[case]
    cells = c_cells(column)
    wrong = [(v, got, format_value(v)) for v, got in zip(column, cells)
             if got != format_value(v)]
    assert not wrong[:5]
    assert len(cells) == column.size
    assert max(map(len, cells)) < backends.write_rows.cell_bytes  # room for ','


# str columns are refused on dtype; the str cases below would also not read back
@pytest.mark.parametrize("header, columns, metadata", [
    pytest.param(["name"], [np.array(["a,b"])], {}, id="comma-cell"),
    pytest.param(["name"], [np.array(["ok", "two\nlines"])], {}, id="newline-cell"),
    pytest.param(["name"], [np.array(["carriage\rreturn"])], {}, id="cr-cell"),
    pytest.param(["name"], [np.array(["a,b"], dtype=object)], {}, id="comma-object-cell"),
    pytest.param(["a,b"], [np.arange(2)], {}, id="comma-name"),
    pytest.param(["a\nb"], [np.arange(2)], {}, id="newline-name"),
    pytest.param(["x"], [np.arange(2)], {"note": "two\nlines"}, id="newline-meta-value"),
    pytest.param(["x"], [np.arange(2)], {"bad\nkey": "v"}, id="newline-meta-key"),
    # read back as a metadata line, the first data row becoming the header
    pytest.param(["#x", "y"], [np.arange(2), np.arange(2)], {}, id="comment-first-name"),
    # the first of two equal names is lost
    pytest.param(["x", "x"], [np.arange(2), np.arange(2)], {}, id="duplicate-name"),
    # names are stripped, an empty one-column header is a blank line
    pytest.param([" x"], [np.arange(2)], {}, id="padded-name"),
    pytest.param([""], [np.arange(2)], {}, id="empty-one-column-name"),
    # '# a:b: v' reads back as {'a': 'b: v'}; keys and values are stripped
    pytest.param(["x"], [np.arange(2)], {"a:b": "v"}, id="colon-meta-key"),
    pytest.param(["x"], [np.arange(2)], {" k": "v"}, id="padded-meta-key"),
    pytest.param(["x"], [np.arange(2)], {"k": "v "}, id="padded-meta-value"),
    # a row starting with '#' is a late comment, a blank one-column row a blank line
    pytest.param(["name", "x"], [np.array(["a", "#b"]), np.arange(2)], {},
                 id="comment-first-cell"),
    pytest.param(["name", "x"], [np.array(["a", "#b"], dtype=object), np.arange(2)], {},
                 id="comment-first-object-cell"),
    pytest.param(["name"], [np.array(["a", ""])], {}, id="empty-one-column-cell"),
    pytest.param(["name"], [np.array(["a", " \t"])], {}, id="blank-one-column-cell"),
    # a str column whose cells all parse as numbers reads back as numbers
    pytest.param(["name"], [np.array(["1", " 2.5"])], {}, id="numeric-str-column"),
    pytest.param(["name"], [np.array(["nan"])], {}, id="nan-str-cell"),
    pytest.param(["name", "x"], [np.array(["1_0", "-inf"]), np.arange(2)], {},
                 id="underscore-and-inf-str-cells"),
    pytest.param(["x", "name"], [np.arange(2), np.array([2.5, "3"], dtype=object)], {},
                 id="numeric-object-str-cell"),
    pytest.param(["name"], [np.array(["99999999999999999999"])], {},
                 id="int64-overflow-str-cell"),
    # read back as int64, which cannot hold it
    pytest.param(["x"], [np.array([1, 2**63], dtype=np.uint64)], {},
                 id="uint64-above-int64"),
    pytest.param(["x"], [np.array([2**64, 1], dtype=object)], {}, id="object-int-above-int64"),
    # read back as float64 [1.0, 2.5]
    pytest.param(["x"], [np.array([1, 2.5], dtype=object)], {}, id="object-int-and-float"),
    # a column is int64 or float64 in native byte order, the dtypes read_table
    # returns, with no cast, and nothing else; a 0-d array is not a column,
    # even as the first
    pytest.param(["x"], [np.array([1, 2**63 - 1], dtype=np.uint64)], {},
                 id="uint64-in-int64-range"),
    pytest.param(["x"], [np.arange(2, dtype=np.int32)], {}, id="int32-column"),
    pytest.param(["x"], [np.array([0.5, 1.5], dtype=np.float32)], {}, id="float32-column"),
    pytest.param(["x"], [np.array([0.5, 1.5], dtype=">f8")], {}, id="big-endian-float64"),
    pytest.param(["x", "y"], [np.array(1.0), np.array([1.0])], {}, id="0-d-first-column"),
    pytest.param(["x"], [np.array([True, False])], {}, id="bool-column"),
    pytest.param(["name"], [np.array(["a", "b"])], {}, id="str-column"),
    pytest.param(["name"], [np.array(["a", "b"], dtype=object)], {}, id="object-str-column"),
    pytest.param(["x"], [np.array([1 + 2j, 3.5])], {}, id="complex128-column"),
    pytest.param(["x"], [np.array([0.1, 1e300], dtype=np.longdouble)], {},
                 id="longdouble-column",
                 marks=pytest.mark.skipif(np.dtype(np.longdouble).itemsize <= 8,
                                          reason="long double is float64 on this platform")),
    pytest.param(["x"], [np.array([b"a", b"b"])], {}, id="bytes-column"),
    pytest.param(["t"], [np.array(["2026-01-01", "2026-01-02"], dtype="datetime64[D]")],
                 {}, id="datetime64-column"),
])
def test_unreadable_tables_are_refused_before_the_file_opens(tmp_path, header,
                                                              columns, metadata):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_table(path, header, columns, metadata)
    assert not path.exists()
