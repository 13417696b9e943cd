"""Size-derived exchange fan-out (the round-4 VERDICT top task).

Every explicit exchange in this engine hash-partitions into
``n_buckets`` merge tasks. All of them but one go through
``agg.exchange`` — ``bucketed_aggregate``, every keyed operator and query
stage, and every join (``bucketed_join``, ``interval_join``,
``asof_join`` and ``auto_join`` past its broadcast limit); the flagship
winner pass is the only remaining direct placement by
``joins.bucket_of``. A FIXED fan-out is a 100x-scale hazard: 16 buckets puts
~6% of a corpus-sized join into one task regardless of corpus size.
This module derives the fan-out from the bytes actually flowing in:

    n_buckets = clamp(ceil(est_bytes / TARGET_EXCHANGE_BYTES),
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
beyond directory metadata). Individual call sites that know a tighter
bound (a pruned two-column projection, a pre-aggregated side) may pass
``est_bytes=`` or an explicit ``n_buckets=`` — explicit always wins.

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
    "scale_hint",
    "hint_from_dir",
    "TARGET_EXCHANGE_BYTES",
    "MIN_BUCKETS",
    "MAX_BUCKETS",
]

TARGET_EXCHANGE_BYTES = 64 << 20  # on-disk bytes per merge task
MIN_BUCKETS = 16  # the round-1..4 layout; floor keeps small tiers stable
MAX_BUCKETS = 65536  # metadata ceiling — beyond this, pre-partition by key

_hint_bytes: int | None = None
# diagnostics: the last value resolve() handed to an exchange (tests read it)
last_resolved: int | None = None


def set_scale_hint(nbytes: int | None) -> None:
    """Stamp the current workload's input size (bytes). ``None`` clears."""
    global _hint_bytes
    _hint_bytes = None if nbytes is None else int(nbytes)


def scale_hint() -> int | None:
    return _hint_bytes


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


def exchange_buckets(
    est_bytes: int | None = None,
    floor: int = MIN_BUCKETS,
    cap: int = MAX_BUCKETS,
) -> int:
    """Bucket count for ``est_bytes`` flowing through one exchange
    (falls back to the stamped workload hint, then to ``floor``)."""
    b = _hint_bytes if est_bytes is None else int(est_bytes)
    if not b or b <= 0:
        return floor
    want = -(-b // TARGET_EXCHANGE_BYTES)  # ceil
    return max(floor, min(cap, int(want)))


def resolve(n_buckets: int | None, est_bytes: int | None = None) -> int:
    """The call-site contract: an explicit ``n_buckets`` wins; ``None``
    derives from ``est_bytes`` / the workload hint. Records the choice
    in ``last_resolved`` for tests and ``ds.stats()``-style forensics."""
    global last_resolved
    n = int(n_buckets) if n_buckets is not None else exchange_buckets(est_bytes)
    last_resolved = n
    return n
