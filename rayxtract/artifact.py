"""One content-keyed cache for derived data (spilled tables, fitted models).

Every derived artifact a query reuses across calls and processes —
extracted page text, MinHash signatures, embedding spills, PQ/IVF models,
BPE vocabularies, the url-clustered corpus — lives at
``artifact_dir(root, op, params, inputs)`` = ``{root}.{op}/{key}``, where
``root`` is the corpus root of the tier. The key is a sha256 prefix over:

  * the op name;
  * the params, as canonical JSON. Module constants and literals are
    covered by the source digest below, so params only need the call
    arguments that vary at run time;
  * each input's fingerprint. An input file (or every parquet file under an
    input dir) contributes its realpath plus ``manifest.shard_fingerprint``
    (size + mtime_ns), so a copy of the tables elsewhere, or a shard
    rewritten in place, misses the cache instead of being served another
    input's result. An upstream artifact dir (any path under ``{root}.``)
    contributes its own key, so chained caches such as docs -> signatures
    -> estimates -> pairs invalidate together;
  * a digest of this package's ``*.py`` sources, computed once per process.
    It replaces a hand-bumped version integer: an edit to any kernel
    invalidates every derived artifact by itself, with nothing to remember.

An artifact is published once: written to ``{key}.tmp.<pid>``, marked
``_SPILL_COMPLETE`` inside the tmp dir, then renamed into place, so a killed
writer never leaves a readable cache. A successful publish deletes the
other key dirs of the same op (each ``{root}.{op}`` holds one current
artifact), but never an in-flight ``.tmp.`` dir; those are left to
``synth._sweep_stale_scratch``'s age sweep.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import re
import shutil

from .manifest import shard_fingerprint

__all__ = ["artifact_dir", "published", "spill_and_reread", "drop_stale"]

MARKER = "_SPILL_COMPLETE"
_KEY = re.compile(r"[0-9a-f]{16}")


@functools.cache
def source_digest() -> str:
    """sha256 over the names and bytes of this package's ``*.py`` files."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _fingerprint(root: str, path: str):
    if path.startswith(f"{root}."):  # upstream artifact: its key covers it
        return os.path.basename(path)
    files = (
        [path] if os.path.isfile(path)
        else sorted(glob.glob(os.path.join(path, "**", "*.parquet"), recursive=True))
    )
    return [os.path.realpath(path)] + [
        [os.path.realpath(f), shard_fingerprint(f)] for f in files
    ]


def artifact_dir(root: str, op: str, params: dict, inputs: list[str]) -> str:
    """``{root}.{op}/{key}``; the module docstring says what the key covers."""
    rec = {
        "op": op,
        "params": params,
        "inputs": [_fingerprint(root, p) for p in inputs],
        "source": source_digest(),
    }
    blob = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return os.path.join(f"{root}.{op}", hashlib.sha256(blob.encode()).hexdigest()[:16])


def published(path: str) -> bool:
    return os.path.exists(os.path.join(path, MARKER))


def drop_stale(path: str) -> None:
    """Delete the other key dirs next to ``path``. Only key-shaped names
    are touched, so an in-flight ``.tmp.`` dir is never deleted."""
    parent, key = os.path.split(path)
    for name in os.listdir(parent):
        if name != key and _KEY.fullmatch(name):
            shutil.rmtree(os.path.join(parent, name), ignore_errors=True)


def spill_and_reread(ds, path: str):
    """Write a Dataset to parquet at ``path`` once (marker-gated,
    publish-race tolerant) and return a fresh read of it — the disk-backed
    alternative to pinning a large intermediate in the object store."""
    import ray.data

    if not published(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        ds.write_parquet(tmp)
        with open(os.path.join(tmp, MARKER), "w") as f:
            f.write("ok\n")
        try:
            os.rename(tmp, path)
        except OSError:  # lost a publish race — trust the winner
            shutil.rmtree(tmp, ignore_errors=True)
            if not published(path):
                raise RuntimeError(f"spill publish failed for {path}") from None
        else:
            drop_stale(path)
    return ray.data.read_parquet(path, file_extensions=["parquet"])
