"""Table schemas and the row codec.

Rows are serialized column-by-column in schema order with the canonical
codec, so logically equal rows are byte-equal — a prerequisite for the
map layer's deduplication to see row-level redundancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.chunk import Reader, Writer
from repro.chunk.codec import blob_rows
from repro.errors import SchemaError

#: Reserved map key holding the serialized schema (sorts before row keys).
SCHEMA_KEY = b"\x00schema"
#: Prefix for row keys, keeping them clear of reserved entries.
ROW_PREFIX = b"r:"


@dataclass(frozen=True)
class Schema:
    """Column names plus the primary-key column."""

    columns: Tuple[str, ...]
    primary_key: str

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("schema needs at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise SchemaError("duplicate column names")
        if self.primary_key not in self.columns:
            raise SchemaError(
                f"primary key {self.primary_key!r} not among columns {self.columns}"
            )

    @classmethod
    def of(cls, columns: Sequence[str], primary_key: str) -> "Schema":
        """Build a schema from a column list."""
        return cls(tuple(columns), primary_key)

    def encode(self) -> bytes:
        """Canonical serialization (stored under :data:`SCHEMA_KEY`)."""
        return Writer().text_list(list(self.columns)).text(self.primary_key).getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "Schema":
        """Parse :meth:`encode` output."""
        reader = Reader(data)
        columns = tuple(reader.text_list())
        primary_key = reader.text()
        reader.expect_end()
        return cls(columns, primary_key)

    # -- row codec ---------------------------------------------------------------

    def row_key(self, row: Dict[str, str]) -> bytes:
        """Map key for a row: prefix + primary-key value."""
        try:
            return ROW_PREFIX + row[self.primary_key].encode("utf-8")
        except KeyError:
            raise SchemaError(f"row missing primary key {self.primary_key!r}") from None

    def key_for(self, pk_value: str) -> bytes:
        """Map key for a primary-key value."""
        return ROW_PREFIX + pk_value.encode("utf-8")

    def pk_of(self, row_key: bytes) -> str:
        """Primary-key value back out of a map key."""
        if not row_key.startswith(ROW_PREFIX):
            raise SchemaError(f"not a row key: {row_key!r}")
        return row_key[len(ROW_PREFIX) :].decode("utf-8")

    def encode_row(self, row: Dict[str, str]) -> bytes:
        """Serialize a row dict in column order."""
        missing = [column for column in self.columns if column not in row]
        if missing:
            raise SchemaError(f"row missing columns: {missing}")
        extra = [column for column in row if column not in self.columns]
        if extra:
            raise SchemaError(f"row has unknown columns: {extra}")
        return next(self.encode_records([[row[column] for column in self.columns]]))[1]

    def encode_records(self, records: Sequence[Sequence[str]]) -> Iterator[Tuple[bytes, bytes]]:
        """(row key, encoded row) per record of values in column order, a column at a time."""
        getters = map(itemgetter, range(len(self.columns)))
        columns = [list(map(str.encode, map(get, records))) for get in getters]
        keys = map(ROW_PREFIX.__add__, columns[self.columns.index(self.primary_key)])
        return zip(keys, blob_rows(columns))

    def decode_row(self, data: bytes) -> Dict[str, str]:
        """Parse a row back into a dict."""
        reader = Reader(data)
        row = {column: reader.text() for column in self.columns}
        reader.expect_end()
        return row

    def changed_columns(self, old: bytes, new: bytes) -> List[str]:
        """Which columns differ between two encoded rows (cell-level diff)."""
        old_row = self.decode_row(old)
        new_row = self.decode_row(new)
        return [c for c in self.columns if old_row[c] != new_row[c]]
