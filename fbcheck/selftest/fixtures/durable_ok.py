# fbcheck-fixture-path: src/repro/vcs/dur_ok.py
"""FB-DURABLE must pass: every rename goes through durable_replace."""

import os

from repro.store.durability import durable_replace, fsync_file


def reset(path, magic):
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(magic)
        fsync_file(handle)
    durable_replace(tmp, path)


def rename_nothing(path):
    # No rename at all — the rule has nothing to say.
    with open(path, "ab") as handle:
        handle.write(b"tail")
        handle.flush()


def replace_text(name):
    # str.replace is not os.replace.
    return os.path.basename(name).replace(".tmp", "")
