"""The package works with its optional codec missing.

zstandard (pack compression) is optional: its import sits behind
``try/except ImportError`` and zlib stands in.  (numpy is a dependency.)
A child interpreter blocks it (``sys.modules[name] = None`` makes
``import name`` raise ImportError), imports every ``repro.*`` module, and
drives one round trip: a map and a blob through the engine on a pack
store whose ``auto`` codec must resolve to zlib, read back after a
reopen.  One unguarded ``import zstandard`` anywhere in the package fails
this test, whether or not zstandard is installed in the parent
environment.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

OPTIONAL = ("zstandard",)

CHILD = r"""
import importlib
import pkgutil
import sys
import tempfile

for name in sys.argv[1:]:
    sys.modules[name] = None

import repro


def fail(name):
    raise ImportError(f"walking {name} failed")


modules = ["repro"]
for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
    importlib.import_module(info.name)
    modules.append(info.name)

from repro.chunk import Chunk, ChunkType
from repro.db import ForkBase
from repro.store import physical_store
from repro.store.packstore import _CODEC_ZLIB, PackStore

mapping = {f"k{i:04d}": f"v{i}" * 3 for i in range(600)}
blob = b"".join(b"line %d of a compressible blob\n" % i for i in range(4000))
with tempfile.TemporaryDirectory() as directory:
    with ForkBase.open(directory, backend="pack") as db:
        pack = physical_store(db.store)
        assert isinstance(pack, PackStore), type(pack)
        assert pack._codec == _CODEC_ZLIB, pack._codec
        db.put("map", mapping)
        db.put("blob", blob)
        chunk = Chunk(ChunkType.BLOB, blob[:4096])
        db.store.put(chunk)
    with ForkBase.open(directory, backend="pack") as db:
        assert db.get_value("map") == {k.encode(): v.encode() for k, v in mapping.items()}
        assert db.get_value("blob") == blob
        assert db.store.get(chunk.uid).data == chunk.data
print(len(modules))
"""


def test_every_module_imports_and_round_trips_without_optional_deps():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *OPTIONAL],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    # The walk reached every module file in the package.
    files = list((REPO_ROOT / "src" / "repro").rglob("*.py"))
    assert int(proc.stdout.strip()) == len(files), proc.stdout
