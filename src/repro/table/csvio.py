"""CSV import/export for datasets (the demo's load/export flows)."""

from __future__ import annotations

import csv
import io
from operator import itemgetter
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
    r"""Serialize row dicts back to CSV text (columns in ``header`` order).

    Lines end in ``"\n"``.  ``csv.writer`` quotes only the characters of
    its line terminator, so a field holding a lone ``"\r"`` would go out
    bare and the text would not parse back; when any field holds one,
    each line is written with a ``"\r\n"`` terminator (which quotes it)
    and re-ended with ``"\n"``.  Fields without ``"\r"`` render the same
    either way.
    """
    columns = list(header)
    records: List[Sequence[str]] = [columns]
    if len(columns) == 1:
        records.extend([row[columns[0]]] for row in rows)
    else:
        records.extend(map(itemgetter(*columns), rows))
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(records)
    text = buffer.getvalue()
    if "\r" not in text:
        return text
    lines = []
    for record in records:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(record)
        lines.append(buffer.getvalue()[:-2] + "\n")
    return "".join(lines)
