"""CSV import parity: the column-at-a-time ``load_csv`` against a row-by-row reference.

The reference below encodes every row with one ``Writer().text(...)`` per
field and puts the map exactly as a load does, so the imported table's
root and :class:`LoadReport` must match it field for field.
"""

import csv
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.cli import main as cli_main
from repro.chunk import Writer
from repro.chunk.codec import blob_rows, uvarint_bytes
from repro.db import ForkBase
from repro.errors import ChunkEncodingError, SchemaError
from repro.table import DataTable, Schema
from repro.table.csvio import parse_csv, render_csv
from repro.table.dataset import LoadReport
from repro.table.schema import ROW_PREFIX, SCHEMA_KEY
from repro.types import FMap


def fresh_engine() -> ForkBase:
    return ForkBase(author="tester", clock=lambda: 1234.5)


def reference_load(text: str, primary_key: str):
    """The row-by-row import: parse to records, encode each field with ``Writer.text``."""
    engine = fresh_engine()
    records = list(csv.reader(io.StringIO(text)))
    header, body = records[0], [values for values in records[1:] if values]
    schema = Schema.of(header, primary_key)
    mapping = {SCHEMA_KEY: schema.encode()}
    for values in body:
        writer = Writer()
        for value in values:
            writer.text(value)
        mapping[ROW_PREFIX + values[header.index(primary_key)].encode("utf-8")] = (
            writer.getvalue()
        )
    before = engine.store.stats.snapshot()
    info = engine.put("t", FMap.from_dict(engine.store, mapping), message="load csv")
    delta = engine.store.stats.delta(before)
    report = LoadReport(
        version=info,
        rows_loaded=len(body),
        logical_bytes=delta.logical_bytes,
        physical_bytes_added=delta.physical_bytes,
        chunks_new=delta.puts_new,
        chunks_deduped=delta.puts_dup,
    )
    return engine.get("t").root, report


def assert_matches_reference(text: str, primary_key: str = "id") -> LoadReport:
    engine = fresh_engine()
    _, report = DataTable.load_csv(engine, "t", text, primary_key)
    root, expected = reference_load(text, primary_key)
    assert engine.get("t").root == root
    assert report == expected
    return report


def leb128(value: int) -> bytes:
    out = bytearray()
    while True:
        out.append((value & 0x7F) | (0x80 if value >> 7 else 0))
        value >>= 7
        if not value:
            return bytes(out)


class TestCodec:
    @pytest.mark.parametrize(
        "value", [0, 1, 127, 128, 300, 16_383, 16_384, 2**21 - 1, 2**21, 2**63 + 5]
    )
    def test_uvarint_is_leb128(self, value):
        assert uvarint_bytes(value) == leb128(value)
        assert Writer().uvarint(value).getvalue() == leb128(value)

    def test_negative_uvarint_rejected(self):
        with pytest.raises(ChunkEncodingError):
            uvarint_bytes(-1)
        with pytest.raises(ChunkEncodingError):
            Writer().uvarint(-1)

    def test_blob_rows_match_writer(self):
        columns = [[b"", b"x" * 127, b"y" * 128], [b"a" * 16_384, b"", b"z"]]
        expected = [
            Writer().blob(first).blob(second).getvalue() for first, second in zip(*columns)
        ]
        assert list(blob_rows(columns)) == expected
        assert list(blob_rows([])) == []


class TestImportParity:
    @pytest.mark.parametrize("length", [0, 127, 128, 16_383, 16_384])
    def test_field_length_boundaries(self, length):
        text = f"id,note,tail\n1,{'a' * length},x\n2,b,{'c' * length}\n"
        report = assert_matches_reference(text)
        assert report.rows_loaded == 2

    def test_long_primary_key(self):
        assert_matches_reference(f"id,note\n{'k' * 200},v\n1,w\n")

    def test_non_ascii_text(self):
        # 127 characters but more bytes: the prefix follows the UTF-8 length.
        assert_matches_reference(f"id,note\né,{'ü' * 127}\n日本,naïve ☃\n")

    def test_quoted_commas_quotes_and_crlf(self):
        text = 'id,note\r\n1,"a, b"\r\n2,"say ""hi"""\r\n3,"line one\r\nline two"\r\n'
        assert_matches_reference(text)
        _, rows = parse_csv(text)
        assert rows[2]["note"] == "line one\r\nline two"

    def test_lone_carriage_return_round_trips(self):
        rows = [{"id": "1", "v": "a\rb"}, {"id": "2", "v": "plain"}]
        text = render_csv(["id", "v"], iter(rows))
        assert text == 'id,v\n1,"a\rb"\n2,plain\n'
        assert parse_csv(text) == (["id", "v"], rows)
        assert_matches_reference(text)
        # One column: the line is still a one-field record.
        assert render_csv(["id"], iter([{"id": "x\ry"}])) == 'id\n"x\ry"\n'

    def test_blank_lines_skipped(self):
        report = assert_matches_reference("id,note\n\n1,a\n\n\n2,b\n")
        assert report.rows_loaded == 2

    def test_header_only(self):
        engine = fresh_engine()
        table, report = DataTable.load_csv(engine, "t", "id,note\n", "id")
        assert report == reference_load("id,note\n", "id")[1]
        assert report.rows_loaded == 0 and table.row_count() == 0

    def test_duplicate_keys_last_wins(self):
        text = "id,note\n1,first\n2,x\n1,second\n"
        report = assert_matches_reference(text)
        assert report.rows_loaded == 3
        engine = fresh_engine()
        table, _ = DataTable.load_csv(engine, "t", text, "id")
        assert table.get_row("1") == {"id": "1", "note": "second"}

    def test_primary_key_not_first(self):
        assert_matches_reference("a,b,id\nx,y,2\nz,w,1\n")

    def test_encode_row_matches_writer(self):
        schema = Schema.of(["id", "note"], "id")
        row = {"id": "1", "note": "n" * 200}
        assert schema.encode_row(row) == Writer().text("1").text("n" * 200).getvalue()


CELLS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
) | st.sampled_from(["", "x" * 130, ",", '"', "\r\n", "\r", "a\rb"])


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 4), data=st.data())
def test_random_tables_match_reference(width, data):
    header = [f"c{index}" for index in range(width)]
    rows = data.draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=12))
    # Written as an export writes it, so the import reads what export wrote.
    dicts = [dict(zip(header, values)) for values in rows]
    text = render_csv(header, iter(dicts))
    assert parse_csv(text) == (header, dicts)
    primary_key = header[data.draw(st.integers(0, width - 1))]
    assert_matches_reference(text, primary_key)


class TestErrorParity:
    def test_empty_csv(self):
        with pytest.raises(ValueError, match="^empty CSV$"):
            DataTable.load_csv(fresh_engine(), "t", "", "id")

    def test_ragged_line_number_counts_records(self):
        # Blank records count; a quoted line break does not start a record.
        text = 'id,note\n1,"two\nlines"\n\n2,b,extra\n'
        message = "^CSV line 4: expected 2 fields, got 3$"
        with pytest.raises(ValueError, match=message):
            DataTable.load_csv(fresh_engine(), "t", text, "id")
        with pytest.raises(ValueError, match=message):
            parse_csv(text)

    def test_missing_primary_key_column(self):
        message = r"^primary key 'sku' not among columns \('id', 'note'\)$"
        with pytest.raises(SchemaError, match=message):
            DataTable.load_csv(fresh_engine(), "t", "id,note\n1,a\n", "sku")

    def test_duplicate_header(self):
        with pytest.raises(SchemaError, match="^duplicate column names$"):
            DataTable.load_csv(fresh_engine(), "t", "id,id\n1,2\n", "id")


class TestCliImport:
    TEXT = 'id,note\r\n1,"line one\r\nline two"\r\n2,plain\r\n'

    def test_load_csv_keeps_quoted_crlf(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_bytes(self.TEXT.encode("utf-8"))
        data_dir = str(tmp_path / "db")
        code = cli_main(["--data-dir", data_dir, "load-csv", "t", str(csv_path), "--pk", "id"])
        assert code == 0
        engine = ForkBase.open(data_dir)
        try:
            table = DataTable(engine, "t")
            assert table.get_row("1")["note"] == "line one\r\nline two"
            loaded = fresh_engine()
            DataTable.load_csv(loaded, "t", self.TEXT, "id")
            assert engine.get("t").root == loaded.get("t").root
        finally:
            engine.close()
        out_path = tmp_path / "out.csv"
        assert cli_main(["--data-dir", data_dir, "export", "t", "--out", str(out_path)]) == 0
        capsys.readouterr()
        _, rows = parse_csv(out_path.read_bytes().decode("utf-8"))
        assert rows[0]["note"] == "line one\r\nline two"
