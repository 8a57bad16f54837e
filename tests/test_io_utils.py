"""The artifact table format: read_table and write_table."""

import csv
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganc.errors import ParseError
from ganc.io_utils import read_table, write_table

HEADER = ("user", "rank", "item")


def _read(tmp_path, text, header=HEADER):
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    return path, list(read_table(path, header))


class TestReadTable:
    def test_records_with_their_lines(self, tmp_path):
        _, got = _read(tmp_path, "user,rank,item\r\n1,1,a\r\n2,1,\"b,c\"\r\n")
        assert got == [(2, ["1", "1", "a"]), (3, ["2", "1", "b,c"])]

    def test_header_is_compared_after_strip_and_lower_case(self, tmp_path):
        _, got = _read(tmp_path, " User ,RANK,item\n1,1,a\n")
        assert got == [(2, ["1", "1", "a"])]

    @pytest.mark.parametrize("header", ["user,item", "user,rank,item,x", "user,position,item"])
    def test_other_header(self, tmp_path, header):
        with pytest.raises(ParseError, match=r"t\.csv:1: expected header user,rank,item$"):
            _read(tmp_path, header + "\n1,1,a\n")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match=r"t\.csv: empty file$"):
            _read(tmp_path, "")

    def test_header_only(self, tmp_path):
        assert _read(tmp_path, "user,rank,item\n")[1] == []

    def test_blank_records_are_skipped(self, tmp_path):
        _, got = _read(tmp_path, "user,rank,item\n\n1,1,a\n   \n\"\"\n2,1,b\n")
        assert got == [(3, ["1", "1", "a"]), (6, ["2", "1", "b"])]

    @pytest.mark.parametrize("row", ["1,1", "1,1,a,b", ",", " ,"])
    def test_record_of_another_width(self, tmp_path, row):
        with pytest.raises(ParseError, match=r"t\.csv:3: expected 3 fields$"):
            _read(tmp_path, f"user,rank,item\n1,1,a\n{row}\n")

    def test_line_after_a_field_that_spans_lines(self, tmp_path):
        text = "user,rank,item\n1,1,\"a\nb\"\n2,1,c\n"
        assert _read(tmp_path, text)[1] == [(3, ["1", "1", "a\nb"]), (4, ["2", "1", "c"])]
        with pytest.raises(ParseError, match=r"t\.csv:5: expected 3 fields$"):
            _read(tmp_path, text + "2,2\n")

    def test_csv_error_names_the_line(self, tmp_path):
        long = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(ParseError, match=r"t\.csv:3: field larger than field limit"):
            _read(tmp_path, f"user,rank,item\n1,1,a\n2,1,{long}\n")

    def test_text_that_does_not_decode(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"user,rank,item\n1,1,\xff\xfe\n")
        with pytest.raises(ParseError, match=r"t\.csv: not .* text$"):
            list(read_table(path, HEADER))


class TestWriteTable:
    def test_bytes_match_csv_writer(self, tmp_path):
        rows = [(1, "a,b", 0.5), ("x\"y", "", -0.0), ("line\nbreak", 7, "z")]
        write_table(tmp_path / "t.csv", ("a", "b", "c"), iter(rows))
        want = io.StringIO(newline="")
        w = csv.writer(want)
        w.writerow(["a", "b", "c"])
        w.writerows(rows)
        assert (tmp_path / "t.csv").read_bytes() == want.getvalue().encode()

    def test_round_trip(self, tmp_path):
        rows = [["1", "1", "a, b"], ["2", "2", "\"q\""], ["3", "1", "two\r\nlines"]]
        write_table(tmp_path / "t.csv", HEADER, rows)
        assert [f for _, f in read_table(tmp_path / "t.csv", HEADER)] == rows


# Field pieces that need quoting (comma, quote, line breaks) or stay bare.
PIECES = ["a", "7", " ", ",", "\"", "\n", "\r\n", "x y", "é"]
LINE_BREAK = re.compile(r"\r\n|\r|\n")


@st.composite
def tables(draw):
    """(header, records, text, ends): records written by csv.writer with
    either line end, blank records (a bare line end or spaces) among them,
    and the offset at which each record's text ends."""
    width = draw(st.integers(2, 4))
    header = tuple(f"c{k}" for k in range(width))
    field = st.lists(st.sampled_from(PIECES), max_size=4).map("".join)
    records = draw(st.lists(st.none() | st.lists(field, min_size=width, max_size=width),
                            max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO(newline="")
    w = csv.writer(out, lineterminator=end)
    w.writerow([draw(st.sampled_from([h, h.upper(), f" {h} "])) for h in header])
    ends = []  # offset at which each non-blank record's text ends
    for record in records:
        if record is None:
            out.write(draw(st.sampled_from(["", "  "])) + end)
        else:
            w.writerow(record)
            ends.append(out.tell() - len(end))
    text = out.getvalue()
    if text.endswith(end) and draw(st.booleans()):
        text = text[:-len(end)]  # no line end after the last record
    return header, [r for r in records if r is not None], text, ends


def _reference(text: str) -> list:
    """(line_num, row) of each record a plain csv.reader returns after the
    header, blank ones (no field, or one blank field) left out."""
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    return [(reader.line_num, row) for row in reader
            if row and not (len(row) == 1 and not row[0].strip())]


class TestReadTableMatchesCsvReader:
    @settings(max_examples=300, deadline=None)
    @given(case=tables())
    def test_rows_and_lines(self, tmp_path_factory, case):
        header, records, text, ends = case
        path = tmp_path_factory.mktemp("table") / "t.csv"
        path.write_text(text, newline="")
        got = list(read_table(path, header))
        assert got == _reference(text)
        assert [fields for _, fields in got] == records
        # a record's line is 1 + the line breaks before its end, quoted ones included
        assert [line for line, _ in got] == [1 + len(LINE_BREAK.findall(text, 0, e))
                                             for e in ends]
