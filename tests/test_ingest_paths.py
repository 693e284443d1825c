"""The columnar and the row-by-row path of each loader agree.

``load_segments`` and ``load_linelist`` read a large plain file
column-wise and hand any other file to their row parser, which alone
words errors. These properties feed the columnar path small generated
files, mutated the way real exports go wrong: whenever it answers, its
answer must be the row parser's, bit for bit; otherwise it must step
aside rather than raise.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import contextmanager
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from warpwatch import cases, timeseries, trends
from warpwatch.cases import load_linelist
from warpwatch.errors import ParseError
from warpwatch.timeseries import COLUMNAR_MIN_BYTES, iso_date_ordinals, parse_iso_date, read_plain_blocks
from warpwatch.trends import load_segments

BASE = date(2020, 3, 1)
CORPUS = Path(__file__).parent / "data" / "dirty"
SEGMENT_HEADER = "keyword,segment_start,date,value"
LINELIST_HEADER = "RegionRes,ProvinceRes,DateRepConf,DateRepRem,Age"

CELL_TEXT = st.sampled_from(
    ["", " ", "x", "nan", "inf", "1e999", "-0.0", "100.0000001", "-1", "1_0", "0x1", "5.", ".5", "+5",
     "2020-02-30", "2020-3-01", "20200301", "2020-W10-1", "2020-03-01T00", " 2020-03-05 ",
     "NCR", " NCR ", "#N/A", "#", '"q"', '"a,b"', "é", "\t5", "a,b"]
)
VALUE_TEXT = st.one_of(
    st.floats(0, 100).map(lambda v: f"{v:.4f}"),
    st.floats(0, 100).map(repr),
    st.sampled_from(["0", "100", "5.", ".5", "+5", "1e1", "-0.0", "0e0", " 7 "]),
)
MUTATION = st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "cell", "blank", "pad", "quote", "crlf", "blank_line", "truncate", "bom"]),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    CELL_TEXT,
)


def mutated_bytes(lines: list[str], mutations) -> bytes:
    """Apply the mutation operators to ``lines`` and encode the file."""
    lines = list(lines)
    newline, prefix, cut = "\n", b"", None
    for op, i, j, text in mutations:
        i %= len(lines)
        cells = lines[i].split(",")
        j %= len(cells)
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            k = j % len(lines)
            lines[i], lines[k] = lines[k], lines[i]
        elif op in ("cell", "blank", "pad", "quote"):
            cells[j] = {"cell": text, "blank": "", "pad": f"  {cells[j]} ", "quote": f'"{cells[j]}"'}[op]
            lines[i] = ",".join(cells)
        elif op == "crlf":
            newline = "\r\n"
        elif op == "blank_line":
            lines.insert(i, "")
        elif op == "truncate":
            cut = i
        elif op == "bom":
            prefix = b"\xef\xbb\xbf"
    data = prefix + (newline.join(lines) + newline).encode("utf-8")
    return data if cut is None else data[: cut % len(data)]


@st.composite
def segment_files(draw):
    lines = [SEGMENT_HEADER]
    for keyword in draw(st.lists(st.sampled_from(["cough", "sore throat", "flu"]), min_size=1, max_size=2, unique=True)):
        for offset in draw(st.lists(st.integers(0, 20), min_size=1, max_size=2, unique=True)):
            start = BASE + timedelta(days=offset)
            values = draw(st.lists(VALUE_TEXT, min_size=1, max_size=4))
            lines += [f"{keyword},{start},{start + timedelta(days=i)},{values[i % len(values)]}" for i in range(30)]
    return mutated_bytes(lines, draw(st.lists(MUTATION, max_size=3)))


@st.composite
def linelist_files(draw):
    lines = [LINELIST_HEADER]
    for _ in range(draw(st.integers(1, 25))):
        region = draw(st.sampled_from(["NCR", "NCR", " NCR ", "CALABARZON", ""]))
        conf = BASE + timedelta(days=draw(st.integers(0, 40)))
        removal = draw(st.sampled_from(["", str(conf + timedelta(days=5)), str(conf - timedelta(days=2))]))
        lines.append(f"{region},{region},{conf},{removal},{draw(st.integers(0, 99))}")
    return mutated_bytes(lines, draw(st.lists(MUTATION, max_size=3)))


def outcome(load, *args):
    """What a loader did: its result, or its error's type, message and line."""
    try:
        return "ok", load(*args)
    except Exception as exc:  # both paths must fail alike, whatever the error
        return "error", type(exc), str(exc), getattr(exc, "line", None)


def segment_key(result):
    if result[0] != "ok":
        return result
    segments = result[1]
    assert not segments.flags.writeable
    assert segments["values"].dtype == np.float64 and segments["values"].shape == (len(segments), 30)
    return "ok", segments.dtype, segments.tobytes()


def linelist_key(result):
    if result[0] != "ok":
        return result
    rows = result[1]
    assert rows.dtype == np.int64 and rows.ndim == 2 and rows.shape[1] == 2
    return "ok", len(rows), rows.tobytes()


@contextmanager
def scan_bytes(size: int):
    """Read columnar files in blocks of about ``size`` bytes of whole lines."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(timeseries, "_SCAN_BYTES", size)
        yield


def block_sizes(path: str, parts: int) -> tuple[int, int]:
    """The default block size, and one that cuts ``path`` into about
    ``parts`` blocks, the last one shorter."""
    return timeseries._SCAN_BYTES, max(1, os.path.getsize(path) // parts - 1)


def check_segments(path: str, parts: int = 3) -> None:
    expected = segment_key(outcome(trends._segments_from_rows, path))
    for size in block_sizes(path, parts):
        with scan_bytes(size):
            fast = trends._segments_from_columns(path)
        assert fast is None or segment_key(("ok", fast)) == expected


def check_linelist(path: str, region: str = "NCR", province: str = "NCR", parts: int = 3) -> None:
    expected = linelist_key(outcome(cases._linelist_from_rows, path, region, province))
    for size in block_sizes(path, parts):
        with scan_bytes(size):
            fast = cases._linelist_from_columns(path, region, province)
        assert fast is None or linelist_key(("ok", fast)) == expected


def written(data: bytes) -> str:
    fh = tempfile.NamedTemporaryFile("wb", suffix=".csv", delete=False)
    with fh:
        fh.write(data)
    return fh.name


PROPERTY = settings(max_examples=75, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(segment_files(), st.integers(2, 7))
def test_columnar_segments_match_the_row_parser(data, parts):
    path = written(data)
    try:
        check_segments(path, parts)
    finally:
        Path(path).unlink()


@PROPERTY
@given(linelist_files(), st.sampled_from([("NCR", "NCR"), ("CALABARZON", "CALABARZON"), ("", ""), ("NCR ", "NCR"), ("é", "NCR")]), st.integers(2, 7))
def test_columnar_linelist_matches_the_row_parser(data, place, parts):
    path = written(data)
    try:
        check_linelist(path, *place, parts=parts)
    finally:
        Path(path).unlink()


@pytest.mark.parametrize("path", sorted(CORPUS.glob("[sl]*.csv")), ids=lambda p: p.stem)
def test_columnar_path_matches_the_row_parser_on_the_corpus(path):
    (check_segments if path.name.startswith("segments") else check_linelist)(str(path))


@pytest.fixture(scope="module")
def large_inputs(tmp_path_factory):
    """A segment file and a line list just over COLUMNAR_MIN_BYTES, both well formed."""
    directory = tmp_path_factory.mktemp("large")
    segments, linelist = directory / "segments.csv", directory / "linelist.csv"
    rows = [SEGMENT_HEADER]
    for k in range(20):
        for offset in range(46):
            start = BASE + timedelta(days=offset)
            rows += [f"keyword {k},{start},{start + timedelta(days=i)},{(7 * k + i) % 100}.25" for i in range(30)]
    segments.write_text("\n".join(rows) + "\n", encoding="utf-8")
    rows = [LINELIST_HEADER]
    for n in range(33_000):
        conf = BASE + timedelta(days=n % 90)
        rows.append(f"{'NCR' if n % 3 else 'CALABARZON'},NCR,{conf},{conf + timedelta(days=n % 17) if n % 5 else ''},{n % 90}")
    linelist.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert min(segments.stat().st_size, linelist.stat().st_size) >= COLUMNAR_MIN_BYTES
    return str(segments), str(linelist)


@pytest.fixture
def row_parser_calls(monkeypatch):
    """Count the calls into both row parsers."""
    calls = []
    for module, name in ((trends, "_segments_from_rows"), (cases, "_linelist_from_rows")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    return calls


def test_large_well_formed_files_skip_the_row_parser(large_inputs, row_parser_calls):
    segments, linelist = large_inputs
    assert len(load_segments(segments)) == 20 * 46
    assert len(load_linelist(linelist, "NCR", "NCR")) == 22_000
    assert row_parser_calls == []


def test_small_files_take_the_row_parser(sweep_inputs, row_parser_calls):
    assert len(load_segments(sweep_inputs.segments)) > 0
    assert len(load_linelist(sweep_inputs.linelist, "NCR", "NCR")) > 0
    assert row_parser_calls == ["_segments_from_rows", "_linelist_from_rows"]


def test_columnar_loaders_equal_the_row_parsers_on_large_files(large_inputs):
    segments, linelist = large_inputs
    assert segment_key(("ok", load_segments(segments))) == segment_key(("ok", trends._segments_from_rows(segments)))
    assert linelist_key(("ok", load_linelist(linelist, "NCR", "NCR"))) == linelist_key(("ok", cases._linelist_from_rows(linelist, "NCR", "NCR")))


def test_the_separator_scan_is_the_only_tokenizer(large_inputs, row_parser_calls, monkeypatch):
    segments, linelist = large_inputs
    expected = (segment_key(("ok", trends._segments_from_rows(segments))),
                linelist_key(("ok", cases._linelist_from_rows(linelist, "NCR", "NCR"))))
    row_parser_calls.clear()

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    assert (segment_key(("ok", load_segments(segments))), linelist_key(("ok", load_linelist(linelist, "NCR", "NCR")))) == expected
    assert row_parser_calls == []


@pytest.mark.parametrize("defect", ["lone CR", "comment", "field counts"])
def test_a_late_non_plain_line_in_a_large_file_goes_to_the_row_parser(large_inputs, tmp_path, defect):
    header, *rows = Path(large_inputs[0]).read_text(encoding="utf-8").splitlines()
    i = len(rows) - 100  # in a later block than the first
    if defect == "lone CR":
        rows[i] = rows[i].replace(",", "\r,", 1)
    elif defect == "comment":
        rows[i] = "#" + rows[i]
    else:  # one field too many, then one too few: the comma total still divides by the field count
        rows[i], rows[i + 1] = rows[i] + ",x", rows[i + 1].rsplit(",", 1)[0]
    path = tmp_path / "segments.csv"
    path.write_bytes(("\n".join([header, *rows]) + "\n").encode("ascii"))
    assert path.stat().st_size >= COLUMNAR_MIN_BYTES
    assert trends._segments_from_columns(str(path)) is None
    assert segment_key(outcome(load_segments, str(path))) == segment_key(outcome(trends._segments_from_rows, str(path)))


def test_a_quoted_field_steps_aside(tmp_path):
    path = tmp_path / "segments.csv"
    rows = [f'"a, b",{BASE},{BASE + timedelta(days=i)},1.0' for i in range(30)]
    path.write_text("\n".join([SEGMENT_HEADER, *rows]) + "\n", encoding="utf-8")
    assert trends._segments_from_columns(str(path)) is None
    assert load_segments(str(path))["keyword"].tolist() == ["a, b"]


class TestColumnarPieces:
    @pytest.mark.parametrize(
        "text", ["2020-03-01", "2020-02-29", "2020-02-30", "2021-02-29", "20200301", "2020-W10-1",
                 "0000-01-01", "9999-12-31", "2020-13-01", "2020-00-10", "2020-1-01", "2020-03-01 ",
                 " 2020-03-01", "2020-03-0x", "2020/03/01", "", "2020-04-31", "1900-02-29", "2000-02-29",
                 "0001-01-01"]
    )
    def test_date_decoder_accepts_what_the_strict_parser_accepts(self, text):
        try:
            expected = parse_iso_date(text.strip()).toordinal()
        except ValueError:
            expected = None
        ordinals = iso_date_ordinals(np.array([text.encode()]))
        assert (None if ordinals is None else int(ordinals[0])) == expected

    def test_date_decoder_agrees_with_the_strict_parser_at_calendar_edges(self):
        for year in ("0000", "0001", "1900", "2000", "2020", "2021", "9999"):
            for month in range(14):
                for day in range(33):
                    text = f"{year}-{month:02d}-{day:02d}"
                    try:
                        expected = [parse_iso_date(text).toordinal()]
                    except ValueError:
                        expected = None
                    ordinals = iso_date_ordinals(np.array([text.encode()]))
                    assert (None if ordinals is None else ordinals.tolist()) == expected, text

    def test_ordinals_are_date_toordinal_across_the_calendar(self):
        days = [date(1, 1, 1) + timedelta(days=n) for n in range(0, date.max.toordinal(), 401)]
        days += [date(y, m, d) for y in (1, 4, 100, 400, 1900, 2000, 2020, 2100, 9999) for m, d in ((2, 28), (3, 1), (12, 31))]
        days += [date(y, 2, 29) for y in (4, 400, 2000, 2020)]
        ordinals = iso_date_ordinals(np.array([d.isoformat().encode() for d in days]))
        assert ordinals.tolist() == [d.toordinal() for d in days]

    def test_strict_parser_rejects_compact_and_week_dates(self):
        for text in ("20200301", "2020-W10-1", "2020-061", "２０２０-03-01"):
            with pytest.raises(ValueError, match="expected YYYY-MM-DD"):
                parse_iso_date(text)

    def test_columns_are_as_wide_as_their_longest_field(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfa, b ,c\r\nxy,1.5,\r\nlonger field,2,z\r\n")
        [columns] = read_plain_blocks(str(path), ("b", "a"), floats=("b",))
        assert columns["a"].tolist() == [b"xy", b"longer field"]
        assert columns["b"].tolist() == [1.5, 2.0]

    def test_a_crlf_last_field_keeps_its_cr_and_floats_read_as_float_does(self, tmp_path):
        path = tmp_path / "t.csv"
        texts = [" 7 ", "1_0", "+5", ".5"]
        path.write_bytes(b"v,k\r\n" + b"".join(f"{text},k{i}\r\n".encode() for i, text in enumerate(texts)))
        [columns] = read_plain_blocks(str(path), ("k", "v"), floats=("v",))
        assert columns["k"].tolist() == [b"k0\r", b"k1\r", b"k2\r", b"k3\r"]
        assert columns["v"].tolist() == [float(text) for text in texts]

    @pytest.mark.parametrize(
        "text",
        [b"", b"a,b\n", b"a,b\n1,2,3\n", b"a,b\n1\n", b'a,b\n"1",2\n', b"a,b\n1,2\n\n3,4\n", b"a,b\n#1,2\n",
         b"a,b\r1,2\r", b"a,b\n1\t,2\n", b"a,b\n\xc3\xa9,2\n", b"x,b\n1,2\n", b"a,b\n1\r,2\n",
         b"a,b\n1,2\n#3,4\n", b"a,b\n1,2,3\n4\n"],
    )
    def test_anything_but_plain_is_handed_back(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_bytes(text)
        assert list(read_plain_blocks(str(path), ("a", "b"))) == [None]


def segment_lines(keywords=("cough", "flu"), segments=2) -> list[str]:
    """Header and rows of a valid segment file, keyword by keyword."""
    lines = [SEGMENT_HEADER]
    for keyword in keywords:
        for offset in range(segments):
            start = BASE + timedelta(days=offset)
            lines += [f"{keyword},{start},{start + timedelta(days=i)},{i + offset}.5" for i in range(30)]
    return lines


class TestBlockEdges:
    """Constructed segment files read in blocks of a few lines each."""

    def read(self, tmp_path, lines, size, end="\n"):
        path = tmp_path / "segments.csv"
        path.write_text("\n".join(lines) + end, encoding="utf-8")
        with scan_bytes(size):
            blocks = list(read_plain_blocks(str(path), trends.SEGMENT_HEADER, floats=("value",), exact=True))
            fast = trends._segments_from_columns(str(path))
        return blocks, fast, outcome(trends._segments_from_rows, str(path))

    def test_a_segment_and_a_keyword_run_straddle_block_edges(self, tmp_path):
        lines = segment_lines()
        # the first read ends inside row 18 of the first segment, and the block takes the rest of that row
        blocks, fast, rows = self.read(tmp_path, lines, size=len("\n".join(lines[1:18])) + 5)
        assert len(blocks) > 4 and None not in blocks
        assert len(blocks[0]["keyword"]) == 18
        assert segment_key(("ok", fast)) == segment_key(rows)

    def test_a_duplicate_cell_in_a_later_block(self, tmp_path):
        lines = segment_lines()
        lines[-1] = lines[1]  # the first segment's first day again, so the last segment lacks its last day
        blocks, fast, rows = self.read(tmp_path, lines, size=200)
        assert len(blocks) > 4 and None not in blocks
        assert fast is None
        assert rows[1] is ParseError and "duplicate date 2020-03-01 within segment" in rows[2]

    def test_a_non_plain_byte_in_the_last_block_only(self, tmp_path):
        lines = segment_lines()
        keyword, start, day, value = lines[-1].split(",")
        lines[-1] = f'{keyword},{start},{day},"{value}"'
        blocks, fast, rows = self.read(tmp_path, lines, size=200)
        assert len(blocks) > 4 and blocks[-1] is None and None not in blocks[:-1]
        assert fast is None and rows[0] == "ok"

    @pytest.mark.parametrize("size", [1, 200, 1 << 18])
    def test_no_trailing_newline(self, tmp_path, size):
        blocks, fast, rows = self.read(tmp_path, segment_lines(), size, end="")
        assert None not in blocks and sum(len(b["value"]) for b in blocks) == 120
        assert segment_key(("ok", fast)) == segment_key(rows)

    def test_dates_decode_without_the_strict_parser(self, tmp_path, monkeypatch):
        def refuse(text):
            raise ValueError(f"parse_iso_date({text!r}) called")

        # the row parsers reach the strict parser through parse_date_field, so their outcomes come first
        rows = self.read(tmp_path, segment_lines(), size=200)[2]
        path = tmp_path / "linelist.csv"
        lines = [LINELIST_HEADER] + [
            f"{('NCR', 'CALABARZON')[n % 3 == 0]},NCR,{BASE + timedelta(days=n)},{BASE + timedelta(days=n + 9) if n % 2 else ''},{n}"
            for n in range(60)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        linelist_rows = outcome(cases._linelist_from_rows, str(path), "NCR", "NCR")
        monkeypatch.setattr(timeseries, "parse_iso_date", refuse)
        blocks, fast, _ = self.read(tmp_path, segment_lines(), size=200)
        assert len(blocks) > 4 and fast is not None
        assert segment_key(("ok", fast)) == segment_key(rows)
        with scan_bytes(100):
            blocks = list(read_plain_blocks(str(path), cases.REQUIRED_COLUMNS))
            fast = cases._linelist_from_columns(str(path), "NCR", "NCR")
        assert len(blocks) > 10 and None not in blocks and fast is not None
        assert linelist_key(("ok", fast)) == linelist_key(linelist_rows)


class TestInPlaceWidening:
    """Files over COLUMNAR_MIN_BYTES, whose per-segment records the
    columnar path widens into its result in place, or copies out when
    they outgrow the buffer reserved from the file's size: dtype and
    bytes must be the row parser's."""

    DAYS = [str(BASE + timedelta(days=n)) for n in range(1300)]

    def rows(self, keyword, offset):
        return [f"{keyword},{self.DAYS[offset]},{self.DAYS[offset + i]},{(7 * offset + i) % 100}.25" for i in range(30)]

    def check(self, tmp_path, lines):
        path = tmp_path / "segments.csv"
        path.write_text("\n".join([SEGMENT_HEADER, *lines]) + "\n", encoding="ascii")
        assert path.stat().st_size >= COLUMNAR_MIN_BYTES
        fast, rows = trends._segments_from_columns(str(path)), trends._segments_from_rows(str(path))
        assert fast is not None and fast.dtype == rows.dtype and fast.tobytes() == rows.tobytes()
        assert not fast.flags.writeable
        return path, fast

    def test_keywords_out_of_order_with_the_widest_last_and_a_segment_across_a_block_edge(self, tmp_path):
        keywords = ("papaya", "kiwi", "zucchini", "apple", "dragon fruit smoothie")
        path, fast = self.check(tmp_path, [row for k in keywords for s in range(220) for row in self.rows(k, s)])
        assert fast.dtype["keyword"] == np.dtype("U21") and not fast.flags.owndata  # widened in place
        assert fast["keyword"][0] == "apple" and fast["keyword"][-1] == "zucchini"
        first_block = next(read_plain_blocks(str(path), trends.SEGMENT_HEADER, floats=("value",), exact=True))
        assert timeseries._SCAN_BYTES == 1 << 17 and len(first_block["keyword"]) % 30  # the edge cuts a segment

    def test_interleaved_segments(self, tmp_path):
        # two segments' rows alternate, so every row starts a run of its own
        pairs = [zip(self.rows(k, s), self.rows(k, s + 1)) for s in range(0, 560, 2) for k in ("flu", "cough")]
        self.check(tmp_path, [row for pair in pairs for both in pair for row in both])

    def test_records_that_outgrow_the_buffer_are_copied_out(self, tmp_path):
        lines = [row for s in range(1200) for row in self.rows("k", s)] + self.rows("w" * 200, 0)
        _, fast = self.check(tmp_path, lines)
        assert fast.dtype["keyword"] == np.dtype("U200") and fast.flags.owndata

    @pytest.mark.parametrize("text", ["", SEGMENT_HEADER + "\n"], ids=["empty", "header only"])
    def test_an_empty_or_header_only_file_steps_aside(self, tmp_path, text):
        path = tmp_path / "segments.csv"
        path.write_text(text, encoding="ascii")
        assert trends._segments_from_columns(str(path)) is None
        error = outcome(load_segments, str(path))
        assert error[1] is ParseError and error == outcome(trends._segments_from_rows, str(path))


def test_loader_memory_is_bounded_and_flat_in_the_file_size(tmp_path):
    """Beyond its result and one staging copy of the same size, a columnar
    loader holds one block's working set, however large the file."""
    segment_rows = "".join(
        f"KEYWORD,{BASE + timedelta(days=s)},{BASE + timedelta(days=s + i)},{(7 * s + i) % 100}.25\n"
        for s in range(60) for i in range(30)
    )
    # a line list with the columns of a real export, a third of it outside the region
    linelist_rows = "".join(
        f"C{n:06d},{n % 90},{n % 90 // 5 * 5} to {n % 90 // 5 * 5 + 4},{('FEMALE', 'MALE')[n % 2]},"
        f"{BASE + timedelta(days=n % 300 - 3)},{BASE + timedelta(days=n % 300 - 1)},{BASE + timedelta(days=n % 300)},,"
        f"{BASE + timedelta(days=n % 300 + n % 17) if n % 5 else ''},{'RECOVERED' if n % 5 else ''},No,"
        f"{'NCR' if n % 3 else 'CALABARZON'},NCR,CITY OF MANILA,PH133900000,BARANGAY {n % 900},{'MILD' if n % 5 else 'RECOVERED'},No\n"
        for n in range(3000)
    )
    linelist_header = (
        "CaseCode,Age,AgeGroup,Sex,DateSpecimen,DateResultRelease,DateRepConf,DateDied,DateRepRem,RemovalType,"
        "Admitted,RegionRes,ProvinceRes,CityMunRes,CityMuniPSGC,BarangayRes,HealthStatus,Quarantined\n"
    )

    def files(mib):
        segments, linelist = tmp_path / f"segments{mib}.csv", tmp_path / f"linelist{mib}.csv"
        keywords = mib * 2**20 // len(segment_rows.replace("KEYWORD", "sore throat remedy 10"))
        phrases = ("social distancing", "sore throat remedy", "face shield price")
        segments.write_text(SEGMENT_HEADER + "\n" + "".join(
            segment_rows.replace("KEYWORD", f"{phrases[k % 3]} {k}") for k in range(keywords)
        ))
        linelist.write_text(linelist_header + linelist_rows * (mib * 2**20 // len(linelist_rows)))
        return str(segments), str(linelist)

    def working_set(load, *args):
        tracemalloc.start()
        try:
            result = load(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - 2 * result.nbytes

    (segments2, linelist2), (segments4, linelist4) = files(2), files(4)
    for load, small, large in (
        (load_segments, (segments2,), (segments4,)),
        (load_linelist, (linelist2, "NCR", "NCR"), (linelist4, "NCR", "NCR")),
    ):
        small_set, large_set = working_set(load, *small), working_set(load, *large)
        assert large_set <= 5 * 2**19
        assert large_set <= small_set + 2**18


RESIDENT_PROBE = """
import json, sys
from warpwatch.cases import load_linelist
from warpwatch.trends import load_segments

def status():
    with open("/proc/self/status", encoding="ascii") as fh:
        fields = dict(line.split(":", 1) for line in fh)
    return {key: int(fields[key].split()[0]) * 1024 for key in ("VmHWM", "VmRSS")}

which, path = sys.argv[1:]
before = status()
result = load_segments(path) if which == "segments" else load_linelist(path, "NCR", "NCR")
after = status()
print(json.dumps({"peak": after["VmHWM"] - before["VmRSS"], "held": after["VmRSS"] - before["VmRSS"], "result": result.nbytes}))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_loaders_leave_little_beyond_their_result_resident(tmp_path):
    """Resident memory of a fresh interpreter around one load of a file over
    12 MiB, read from VmHWM and VmRSS: what tracemalloc cannot see, the
    pages a loader keeps after it returns. On the line list below, a
    builder that joins per-block pieces (kept rows per block vary, as in a
    real export) keeps its whole high-water mark resident: 1.73 MiB over
    its 1.53 MiB result. Bounds are the largest of five measurements of
    these loaders (2-vCPU x86-64 Linux, glibc) plus about 0.5 MiB: over its
    result the line list held 0.70 MiB and peaked at 1.28-1.40 MiB, the
    segment file (3.24 MiB result) held 2.0-2.2 MiB and peaked at
    2.0-2.8 MiB, built in the buffer its scores are scattered into (it
    peaked at 5.13-5.80 MiB while they sat in a grid beside the result)."""
    rng = random.Random(5)
    day = lambda n: BASE + timedelta(days=n)
    # a third of the pool in the region, padded; the file draws its 300k rows from the pool at random
    pool = [
        f" NCR ,NCR ,{day(n % 380)},{day(n % 380 + 5 + n % 16) if n % 7 else ''},{18 + n % 65},M\n" if n % 3 == 0
        else f"CALABARZON,CALABARZON,{day(n % 380)},{day(n % 380 + 9)},{18 + n % 65},F\n"
        for n in range(4096)
    ]
    linelist = tmp_path / "linelist.csv"
    linelist.write_text(LINELIST_HEADER + ",Sex\n" + "".join(rng.choices(pool, k=300_000)), encoding="ascii")
    segment_rows = "".join(f"KEYWORD,{day(s)},{day(s + i)},{(7 * s + i) % 100}.25\n" for s in range(60) for i in range(30))
    segments = tmp_path / "segments.csv"
    segments.write_text(SEGMENT_HEADER + "\n" + "".join(
        segment_rows.replace("KEYWORD", f"keyword {k}") for k in range(12 * 2**20 // len(segment_rows))
    ), encoding="ascii")

    src = str(Path(trends.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for which, path, held_bound, peak_bound in (
        ("linelist", linelist, 1.25 * 2**20, 2.0 * 2**20),
        ("segments", segments, 3.25 * 2**20, 3.5 * 2**20),
    ):
        out = subprocess.run([sys.executable, "-c", RESIDENT_PROBE, which, str(path)],
                             capture_output=True, text=True, env=env, check=True).stdout
        measured = json.loads(out)
        assert measured["held"] - measured["result"] <= held_bound, (which, measured)
        assert measured["peak"] - measured["result"] <= peak_bound, (which, measured)
