"""Lossless CSV round trips."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hyp

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
    assert format_value("rank_1") == "rank_1"


def test_round_trip_preserves_values_and_dtypes(tmp_path):
    path = tmp_path / "t.csv"
    t = np.arange(0, 150, 30, dtype=np.int64)
    w = np.array([1000.0, 999.99999999999989, 1e-300, 6.0064911319545377e-4,
                  123456789.12345679])
    names = np.array(["alpha", "beta_2", "gamma-3", "d", "e"], dtype=str)
    write_table(path, ["t", "w", "name"], [t, w, names],
                {"seed": "17", "units": "t=days"})
    meta, header, cols = read_table(path)
    assert meta == {"seed": "17", "units": "t=days"}
    assert header == ["t", "w", "name"]
    assert cols["t"].dtype == np.int64
    np.testing.assert_array_equal(cols["t"], t)
    assert cols["w"].dtype == np.float64
    np.testing.assert_array_equal(cols["w"], w)  # bitwise, not approx
    assert list(cols["name"]) == list(names)


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
    "uint64": hyp.one_of(hyp.sampled_from([2**63, 2**64 - 1]),
                         hyp.integers(0, 2**64 - 1)),
    "float64": hyp.one_of(hyp.sampled_from(SPECIAL_FLOATS), hyp.floats(width=64)),
    "float32": hyp.floats(width=32),
    "bool": hyp.booleans(),
    "str": hyp.text(hyp.characters(blacklist_characters=",\n\r",
                                   blacklist_categories=("Cs",)), max_size=6),
}


@hyp.composite
def tables(draw):
    kinds = draw(hyp.lists(hyp.sampled_from(sorted(CELLS)), min_size=1, max_size=5))
    block = BLOCK_CELLS // len(kinds)  # rows per block
    n = draw(hyp.sampled_from([0, 1, block - 1, block, block + 1]))
    rng = np.random.default_rng(draw(hyp.integers(0, 2**32 - 1)))
    columns = []
    for j, kind in enumerate(kinds):
        cells = CELLS[kind]
        if kind == "str":  # leave out the cells write_table refuses
            cells = cells.filter(lambda s, first=j == 0: not (first and s.startswith("#")))
            if len(kinds) == 1:  # numpy drops trailing NULs
                cells = cells.filter(lambda s: s.rstrip("\x00").strip())
        pool = np.array(draw(hyp.lists(cells, min_size=1, max_size=8)),
                        dtype=str if kind == "str" else kind)
        columns.append(pool[rng.integers(pool.size, size=n)])
        if kind == "str":  # nor a str column that would read back as numbers
            assume(not reads_as_numbers(columns[-1].tolist()))
    return [f"c{j}" for j in range(len(kinds))], columns


def reads_as_numbers(cells):
    """read_table types a column as numeric when every cell parses as a float."""
    try:
        [float(c) for c in cells]
    except ValueError:
        return False
    return bool(cells)


@settings(max_examples=60, deadline=None)
@given(tables())
def test_write_table_matches_the_cell_by_cell_writer(tmp_path_factory, table):
    header, columns = table
    path = tmp_path_factory.getbasetemp() / "bytes.csv"
    metadata = {"params_hash": "5f1c2b", "units": "x=1, y=2"}
    write_table(path, header, columns, metadata)
    assert path.read_bytes() == reference_bytes(header, columns, metadata)


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
])
def test_unreadable_tables_are_refused_before_the_file_opens(tmp_path, header,
                                                              columns, metadata):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError):
        write_table(path, header, columns, metadata)
    assert not path.exists()
