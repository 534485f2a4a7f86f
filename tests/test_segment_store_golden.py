"""Cross-commit golden for the two segmented on-disk layouts.

``FileStore`` and ``PackStore`` are two record formats over one
segmented append-only log; this file freezes what that log leaves on
disk and which durability boundaries it crosses, as short hashes
*generated on the parent commit* (4efe54f, PR 16) — before the two
stores were rewritten over ``repro.store.segments.SegmentStore``.  One
fixed script per layout (single puts, a ``put_many`` that rolls a
segment, reads, deletes, ``close``; reopen, ``put_many``, ``abandon``;
reopen through the watermark scan, delete, ``close``; for pack a
``compact_segments``) pins, after every step, each file's
``(relative path, size, sha256)`` and ``stats.io_write_bytes``, and the
whole script's ``(kind, label)`` sequence under an fs census — the
boundaries every disk fault and every crash lands on.

One deliberate difference is filtered out rather than pinned: since the
rewrite the file layout's index snapshot goes through the disk seam, so
its fs census gained one ``("write", "index")`` hit per snapshot.  One
was regenerated: ``file/fs-census``, when file records took the uid
label pack records already had (the crash plane became a disk-plane
flavor and its per-format boundary kinds went).

A moved hash means a record, index or snapshot byte moved, or a
boundary did.  To see which, run ``trace(layout)`` on both checkouts and
diff the dicts.  To regenerate after a *deliberate* change (reason in
CHANGES.md): ``PYTHONPATH=src python tests/test_segment_store_golden.py``.
"""

import hashlib
import json
import os
import tempfile

import pytest

from repro.chunk import Chunk, ChunkType
from repro.faults import FsFaultPlan, fs_zone
from repro.store import FileStore, PackStore

LAYOUTS = {
    "file": lambda directory: FileStore(directory, segment_limit=4096),
    # Compressed bytes depend on the zlib build; raw records do not.
    "pack": lambda directory: PackStore(directory, segment_limit=4096, compression="none"),
}

CHUNKS = [
    Chunk(ChunkType.BLOB if n % 3 else ChunkType.META, (b"golden-%03d-" % n) * (20 + 7 * (n % 9)))
    for n in range(36)
]

#: ``<layout>/<section>`` -> first 16 hex digits of SHA-256 over the
#: section's canonical JSON, generated by running this file on 4efe54f
#: (``file/fs-census``: regenerated when file records took uid labels).
GOLDEN = {
    "file/00-puts": "a57904b491925c17",
    "file/01-batch-rolls": "5441062144f20af3",
    "file/02-deletes": "5441062144f20af3",
    "file/03-close": "c38bb0b6470108dd",
    "file/04-reopen-batch": "66183a4e796e3ce3",
    "file/05-abandon": "66183a4e796e3ce3",
    "file/06-rescan": "93b76ab976018010",
    "file/07-rescan-close": "2e7c61b25a1969aa",
    "file/fs-census": "c53a4578a5b5a2ef",
    "pack/00-puts": "f88232282639ecdf",
    "pack/01-batch-rolls": "6f3a265cc1d09a62",
    "pack/02-deletes": "6f3a265cc1d09a62",
    "pack/03-close": "4b5824a6485ee157",
    "pack/04-reopen-batch": "3b5fdb7295ae11b8",
    "pack/05-abandon": "3b5fdb7295ae11b8",
    "pack/06-rescan": "84aa0e1aa425f3d3",
    "pack/07-rescan-close": "c31643a51a34a621",
    "pack/08-compact": "c310663904890634",
    "pack/09-compact-close": "e7835c1aaabdb33b",
    "pack/fs-census": "1f129cf67e654d59",
}


def _files(directory: str) -> list:
    listing = []
    for root, _dirs, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                data = handle.read()
            listing.append(
                [os.path.relpath(path, directory), len(data), hashlib.sha256(data).hexdigest()]
            )
    return sorted(listing)


def _script(layout: str, directory: str) -> dict:
    """Run the fixed script; return ``{step: {files, io_write_bytes}}``."""
    steps = {}

    def pin(name: str, store) -> None:
        steps[f"{len(steps):02d}-{name}"] = {
            "files": _files(directory),
            "io_write_bytes": store.stats.io_write_bytes,
        }

    store = LAYOUTS[layout](directory)
    for chunk in CHUNKS[:3]:
        store.put(chunk)
    pin("puts", store)
    store.put_many(CHUNKS[3:20])  # ~6 KiB against a 4 KiB limit: rolls
    pin("batch-rolls", store)
    assert [store.get(chunk.uid).data for chunk in CHUNKS[:20:4]] == [
        chunk.data for chunk in CHUNKS[:20:4]
    ]
    store.delete(CHUNKS[1].uid)
    store.delete(CHUNKS[7].uid)
    pin("deletes", store)
    store.close()
    pin("close", store)

    store = LAYOUTS[layout](directory)
    store.put_many(CHUNKS[20:30])
    store.put(CHUNKS[30])
    pin("reopen-batch", store)
    store.abandon()
    pin("abandon", store)

    store = LAYOUTS[layout](directory)  # the watermark scan finds chunk 30
    assert store.get(CHUNKS[30].uid).data == CHUNKS[30].data
    assert not store.has(CHUNKS[7].uid)
    store.delete(CHUNKS[22].uid)
    store.put(CHUNKS[31])
    pin("rescan", store)
    store.close()
    pin("rescan-close", store)

    if layout == "pack":
        store = LAYOUTS[layout](directory)
        store.compact_segments()
        pin("compact", store)
        store.put_many(CHUNKS[32:36])
        store.close()
        pin("compact-close", store)
    return steps


def trace(layout: str) -> dict:
    """Everything the golden pins for one layout, un-hashed."""
    with tempfile.TemporaryDirectory() as scratch:
        sections = _script(layout, os.path.join(scratch, "steps"))
        with fs_zone(FsFaultPlan(seed=1)) as shim:
            _script(layout, os.path.join(scratch, "fs"))
        sections["fs-census"] = [
            [hit.kind, hit.label]
            for hit in shim.trace
            if not (layout == "file" and (hit.kind, hit.label) == ("write", "index"))
        ]
    return sections


def short_hashes(layout: str) -> dict:
    return {
        f"{layout}/{name}": hashlib.sha256(
            json.dumps(value, sort_keys=True).encode("utf-8")
        ).hexdigest()[:16]
        for name, value in trace(layout).items()
    }


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_bytes_and_boundaries_match_parent_commit(layout):
    got = short_hashes(layout)
    assert got == {name: GOLDEN[name] for name in GOLDEN if name.startswith(layout + "/")}


if __name__ == "__main__":
    hashes = {k: v for layout in sorted(LAYOUTS) for k, v in short_hashes(layout).items()}
    print(json.dumps(hashes, indent=4))
