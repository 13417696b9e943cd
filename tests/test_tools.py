"""Tests for ops utilities (re-extraction probe, retention, status) and the
exchange-dedup fallback path."""

import os
import time

import pandas as pd
import pytest

from rayxtract.ops import ExtractConfig
from rayxtract.pipeline import run_extraction
from rayxtract.tools import reextract_url, retention_sweep, status_report


@pytest.fixture(scope="module")
def extracted_small(small_corpus, tmp_path_factory):
    pages_dir, golden_dir = small_corpus
    out = str(tmp_path_factory.mktemp("tools") / "out")
    run_extraction(pages_dir, out, ExtractConfig(), resume=False)
    return pages_dir, golden_dir, out


def test_reextract_matches_golden(extracted_small):
    pages_dir, golden_dir, _ = extracted_small
    import ray.data

    golden = ray.data.read_parquet(golden_dir).take(5)
    for g in golden:
        rec = reextract_url(pages_dir, g["url"])
        assert rec["text"] == g["golden_text"], g["url"]
        # idempotent: a second probe returns identical bytes (M13 semantics)
        rec2 = reextract_url(pages_dir, g["url"])
        assert rec2["text"] == rec["text"]


def test_reextract_unknown_url(extracted_small):
    pages_dir, _, _ = extracted_small
    with pytest.raises(KeyError):
        reextract_url(pages_dir, "https://nope.example/x")


def test_retention_sweep(extracted_small):
    _, _, out = extracted_small
    from rayxtract import manifest as mf

    pids = sorted(mf.completed_partitions(out))
    assert pids
    # age two partitions' manifests artificially
    for pid in pids[:2]:
        p = os.path.join(mf.partition_dir(out, pid), mf.MANIFEST_NAME)
        old = time.time() - 10 * 3600
        os.utime(p, (old, old))
    swept = retention_sweep(out, max_age_hours=5)
    assert swept == pids[:2]
    assert sorted(mf.completed_partitions(out)) == pids[2:]
    # a resumable run would now re-extract exactly the swept partitions


def test_status_report(extracted_small):
    _, _, out = extracted_small
    df = status_report(out, limit=10).to_pandas()
    assert len(df) == 10
    ts = df["warc_ts"].tolist()
    assert ts == sorted(ts, reverse=True)


def test_dedup_fallback_by_url(ray_session):
    """Exchange-based dedup path (general tables without partition_id)."""
    import ray.data

    from rayxtract.dedup import dedup_keep_latest

    rows = [
        {"url": "u1", "warc_ts": 1, "text_crc": 5, "v": "a"},
        {"url": "u1", "warc_ts": 3, "text_crc": 9, "v": "b"},
        {"url": "u2", "warc_ts": 2, "text_crc": 1, "v": "c"},
        {"url": "u1", "warc_ts": 3, "text_crc": 2, "v": "d"},  # ts tie -> min crc
    ]
    out = (
        dedup_keep_latest(ray.data.from_items(rows))
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert len(out) == 2
    assert out.loc[0, "v"] == "d"  # latest ts, tie broken by smallest crc
    assert out.loc[1, "v"] == "c"


def test_reextract_pushdown_reads_few_shards(extracted_small):
    """The probe's payload read must touch only shards that contain the
    url (predicate-pushdown two-step), not every shard."""
    pages_dir, golden_dir, _ = extracted_small
    import ray.data

    g = ray.data.read_parquet(golden_dir).take(1)[0]
    rec = reextract_url(pages_dir, g["url"])
    assert rec["shards_total"] > 1
    assert 1 <= rec["shards_payload_read"] <= 2  # hit shards only


def test_compact_output_content_identity(extracted_small, tmp_path):
    """Compaction rewrites many small per-partition files into few
    target-sized ones with EXACT content identity (order-insensitive)."""
    _, _, out = extracted_small
    import ray.data

    from rayxtract.tools import compact_output

    a = (
        ray.data.read_parquet(out)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    dest = str(tmp_path / "compacted")
    # target >= total rows -> exactly one output file
    rep = compact_output(out, dest, target_rows_per_file=len(a))
    assert rep["rows"] == len(a)
    assert rep["files_after"] < rep["files_before"]
    assert rep["files_after"] == 1

    b = (
        ray.data.read_parquet(dest)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    # hive partition column comes back as extra col on the source side only
    common = [c for c in a.columns if c in set(b.columns)]
    pd.testing.assert_frame_equal(
        a[common], b[common], check_dtype=False
    )


def test_compact_output_rerun_refuses(extracted_small, tmp_path):
    from rayxtract.tools import compact_output

    _, _, out = extracted_small
    dest = str(tmp_path / "c2")
    compact_output(out, dest, target_rows_per_file=100000)
    with pytest.raises(FileExistsError):
        compact_output(out, dest, target_rows_per_file=100000)


def test_neardup_prune_job(extracted_small, tmp_path):
    """End-to-end near-dup prune over the extracted corpus: the synth
    corpus plants perturbed-copy pages, so the job must drop a nonzero
    loser set, keep exactly one representative per cluster, and the
    surviving rows must be byte-identical to their originals."""
    import duckdb

    from rayxtract.tools import neardup_prune

    _, _, out = extracted_small
    dest = str(tmp_path / "pruned")
    rep = neardup_prune(out, dest)
    assert rep["rows_in"] > rep["rows_kept"] > 0
    assert rep["n_losers"] == rep["rows_in"] - rep["rows_kept"]
    assert rep["n_clusters"] >= 1 and rep["n_pairs"] >= rep["n_losers"]
    # survivors are byte-identical rows of the input (pure filter)
    n_bad = duckdb.sql(
        f"""
        SELECT count(*) FROM read_parquet('{dest}/*.parquet') p
        LEFT JOIN read_parquet('{out}/*/*.parquet', hive_partitioning=1) o
          ON p.url = o.url AND p.text = o.text
        WHERE o.url IS NULL
        """
    ).fetchone()[0]
    assert n_bad == 0
    # idempotent re-run refuses to clobber a published dest
    import pytest

    with pytest.raises(FileExistsError):
        neardup_prune(out, dest)


def test_neardup_prune_deterministic(extracted_small, tmp_path):
    from rayxtract.tools import neardup_prune
    import duckdb

    _, _, out = extracted_small
    d1, d2 = str(tmp_path / "p1"), str(tmp_path / "p2")
    r1 = neardup_prune(out, d1)
    r2 = neardup_prune(out, d2)
    assert r1 == r2
    h1 = duckdb.sql(
        f"SELECT md5(string_agg(url, ',' ORDER BY url)) FROM read_parquet('{d1}/*.parquet')"
    ).fetchone()[0]
    h2 = duckdb.sql(
        f"SELECT md5(string_agg(url, ',' ORDER BY url)) FROM read_parquet('{d2}/*.parquet')"
    ).fetchone()[0]
    assert h1 == h2
