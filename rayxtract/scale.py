"""Size-derived exchange fan-out (the round-4 VERDICT top task).

Every explicit exchange in this engine hash-partitions into
``resolve()`` merge tasks. All of them but one go through
``agg.exchange`` — ``bucketed_aggregate``, every keyed operator and query
stage (exact dedup, min-label propagation, keep-latest dedup, the
prefix-filter stages, the graph node tables, paragraph/line reassembly
and the k-NN top-k among them), and every join (``bucketed_join``,
``interval_join``, ``asof_join`` and ``auto_join`` past its broadcast
limit); the flagship winner pass is the only remaining direct placement
by ``joins.bucket_of``. A FIXED fan-out is a 100x-scale hazard: 16 buckets puts
~6% of a corpus-sized join into one task regardless of corpus size.
This module derives the fan-out from the bytes actually flowing in:

    fan-out = clamp(ceil(nbytes / TARGET_EXCHANGE_BYTES),
                    MIN_BUCKETS, MAX_BUCKETS)

``TARGET_EXCHANGE_BYTES`` is 64 MiB of ON-DISK parquet per bucket —
snappy parquet decompresses ~3-5x, so one merge task sees roughly
200-320 MiB in memory, comfortably inside a 2-4 GiB worker heap with
pandas-merge overhead. ``MAX_BUCKETS`` caps driver/groupby metadata at
64k tasks (100 TB / 64 MiB would otherwise ask for 1.6M buckets; at that
tier callers should pre-partition by key instead of one flat exchange).

The estimate is a CONTEXT HINT, not a per-dataset probe:
``Dataset.size_bytes()`` on a lazy pipeline would trigger execution, so
instead every query entry point stamps the hint once from its input
directory (sum of parquet file sizes — pure os.scandir, no Ray, no I/O
beyond directory metadata). ``resolve()`` is the one source of an
exchange's fan-out: it takes no arguments, each exchange calls it where
the exchange is built, and no operator takes a per-call override.
Tests that need to see or pin the fan-out spy on or stub
``scale.resolve``. ``exchange_buckets(nbytes)`` applies the same rule
to an explicit byte count (``tools.cluster_by_url`` sizes its ranges
with it).

At the sandbox tiers (sf0.001-0.1, <= a few hundred MB) the derived
value equals MIN_BUCKETS == 16, so every DuckDB oracle keeps its
round-1..4 bucket layout; the scaling behavior is unit-tested with
synthetic byte counts (tests/test_scale.py).
"""

from __future__ import annotations

import os

__all__ = [
    "exchange_buckets",
    "resolve",
    "set_scale_hint",
    "hint_from_dir",
    "TARGET_EXCHANGE_BYTES",
    "MIN_BUCKETS",
    "MAX_BUCKETS",
]

TARGET_EXCHANGE_BYTES = 64 << 20  # on-disk bytes per merge task
MIN_BUCKETS = 16  # the round-1..4 layout; floor keeps small tiers stable
MAX_BUCKETS = 65536  # metadata ceiling — beyond this, pre-partition by key

_hint_bytes: int | None = None


def set_scale_hint(nbytes: int | None) -> None:
    """Stamp the current workload's input size (bytes). ``None`` clears."""
    global _hint_bytes
    _hint_bytes = None if nbytes is None else int(nbytes)


def dir_bytes(path: str) -> int:
    """Total size of ``*.parquet`` files under ``path`` (one level of
    nesting, matching this repo's ``table.parquet`` / ``shard=*/...``
    layouts). Pure directory metadata — never opens a file."""
    total = 0
    try:
        with os.scandir(path) as it:
            entries = list(it)
    except OSError:
        return 0
    for e in entries:
        try:
            if e.is_file() and e.name.endswith(".parquet"):
                total += e.stat().st_size
            elif e.is_dir():
                total += dir_bytes(e.path)
        except OSError:
            continue
    return total


def hint_from_dir(path: str) -> int:
    """Stamp the scale hint from a directory of parquet; returns the
    resolved bucket count. Only RAISES the hint — a pages query that
    first stamps its (larger) corpus dir is not clobbered by the
    sf-table stamp in the registry wrapper."""
    global _hint_bytes
    b = dir_bytes(path)
    if _hint_bytes is None or b > _hint_bytes:
        _hint_bytes = b
    return exchange_buckets()


def exchange_buckets(nbytes: int | None = None) -> int:
    """Bucket count for ``nbytes`` flowing through one exchange
    (falls back to the stamped workload hint, then to ``MIN_BUCKETS``)."""
    b = _hint_bytes if nbytes is None else int(nbytes)
    if not b or b <= 0:
        return MIN_BUCKETS
    want = -(-b // TARGET_EXCHANGE_BYTES)  # ceil
    return max(MIN_BUCKETS, min(MAX_BUCKETS, int(want)))


def resolve() -> int:
    """The fan-out of the exchange being built, derived from the stamped
    workload hint; never less than ``MIN_BUCKETS``."""
    return exchange_buckets()
