"""CSV import/export for datasets (the demo's load/export flows)."""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterator, List, Sequence, Tuple


def read_records(text: str) -> Tuple[List[str], List[List[str]]]:
    """Parse CSV text into (header, records): blank lines skipped, widths checked."""
    records = list(csv.reader(io.StringIO(text)))
    if not records:
        raise ValueError("empty CSV")
    header = records.pop(0)
    for line, values in enumerate(records, start=2):
        if values and len(values) != len(header):
            raise ValueError(f"CSV line {line}: expected {len(header)} fields, got {len(values)}")
    return header, list(filter(None, records))


def parse_csv(text: str) -> Tuple[List[str], List[Dict[str, str]]]:
    """Parse CSV text into (header, row dicts)."""
    header, records = read_records(text)
    return header, [dict(zip(header, values)) for values in records]


def render_csv(header: Sequence[str], rows: Iterator[Dict[str, str]]) -> str:
    """Serialize row dicts back to CSV text (columns in ``header`` order)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([row[column] for column in header])
    return buffer.getvalue()

