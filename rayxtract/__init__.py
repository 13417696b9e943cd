"""rayxtract — a Ray-Data-native main-content extraction engine.

A from-scratch re-expression of the capabilities of
``CarlosMagnoSTavares/document-local-ai-processor`` (studied read-only at
/root/reference; see SURVEY.md) as a streaming Ray Data batch job:

  recrawl winner pass (url, warc_ts only) -> broadcast winner map
  read_parquet(pages) -> map_batches(drop recrawl losers)   # keep latest warc_ts
                      -> map_batches(extract_batch tasks)    # sniff, DOM strip,
                                                             # inline PDFL/XLSL/DOCL decode
                      -> write_parquet(partitioned by input shard)
                      + per-partition manifests

The reference is a FastAPI/Celery/Redis/SQLite per-document queue
(reference: workers.py:39-345, main.py:178-325); this engine replaces the
queue with a single streaming Dataset DAG and the per-row status checkpoints
with per-partition lineage manifests (reference: models.py:8-13).
"""

__version__ = "0.1.0"


def configure_context() -> None:
    """Set the engine's Ray Data execution knobs on the current DataContext.

    Called at every dataset-creation entry point (pipeline, queries, bench).
    The one knob set is ``target_max_block_size`` (below). The shuffle
    strategy stays Ray's default sort-based shuffle: the 2.49 hash-shuffle
    path spawns an aggregator actor pool that oversubscribes small CPU
    counts and stalls (measured: 8-CPU job 321s -> >12min), and no
    exchange here needs it — keyed exchanges run as ``groupby(bucket)``
    over a bounded bucket column (``agg.exchange``). Datasets snapshot
    their context at creation, so this must run before ``read_parquet``.
    """
    from ray.data.context import DataContext

    ctx = DataContext.get_current()
    # Skew: cap per-task payload. Map-stage fusion makes the read task's
    # dynamic output splitting the unit of extraction work, so the default
    # 128-MiB target lets one task accumulate ~128 MiB of html while its
    # peers idle at the stream tail. 32 MiB bounds the p99 task 4x tighter
    # at negligible block-count overhead (heavy single rows above the
    # target are isolated by ops.isolate_heavy; a row cannot be split).
    ctx.target_max_block_size = 32 * 1024 * 1024
