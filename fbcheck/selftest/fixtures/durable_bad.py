# fbcheck-fixture-path: src/repro/vcs/dur_bad.py
"""FB-DURABLE must fail: bare renames in persistence code."""

import json
import os

from repro.store.durability import fsync_file


def reset(path, magic):
    # The journal-reset shape: the temp file is fsynced, so its bytes are
    # durable — but the rename is not until the parent directory is
    # fsynced too, which only durable_replace does.
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(magic)
        fsync_file(handle)
    os.replace(tmp, path)


def save_snapshot(path, heads):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(heads, handle)
    os.replace(tmp, path)
