"""End-to-end pipeline tests: golden byte-equality, dedup, resume.

These are the t3-layer tests from SURVEY.md §5 — the contract BASELINE.json
states: byte-identical extracted text per url, one row per url, output
independent of parallelism/blocks, resumable at partition granularity.
"""

import os
import shutil

import pandas as pd
import pytest

from rayxtract.ops import ExtractConfig
from rayxtract.pipeline import extraction_dataset, run_extraction


def _load_sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values("url").reset_index(drop=True)


@pytest.fixture(scope="module")
def extracted(small_corpus, tmp_path_factory):
    pages_dir, golden_dir = small_corpus
    out = str(tmp_path_factory.mktemp("xout") / "extracted")
    cfg = ExtractConfig(batch_size=64)
    report = run_extraction(pages_dir, out, cfg, resume=False)
    return pages_dir, golden_dir, out, report


def _read_output(out):
    import ray.data

    df = ray.data.read_parquet(out).to_pandas()
    # hive-partition columns read back as strings
    df["partition_id"] = df["partition_id"].astype("int64")
    return df


def _read_golden(golden_dir):
    import ray.data

    return ray.data.read_parquet(golden_dir).to_pandas()


def test_byte_identical_text_per_url(extracted):
    _, golden_dir, out, _ = extracted
    got = _load_sorted(_read_output(out))
    exp = _load_sorted(_read_golden(golden_dir))
    assert len(got) == len(exp), "one output row per unique url"
    assert list(got["url"]) == list(exp["url"])
    mism = got["text"].values != exp["golden_text"].values
    assert not mism.any(), (
        f"{mism.sum()} text mismatches, e.g. url={got['url'][mism].iloc[0]!r}"
    )


def test_spans_match_golden(extracted):
    _, golden_dir, out, _ = extracted
    got = _load_sorted(_read_output(out))
    exp = _load_sorted(_read_golden(golden_dir))
    for g, e, url in zip(got["spans"], exp["golden_spans"], got["url"]):
        gl = [dict(s) for s in g]
        el = [dict(s) for s in e]
        assert gl == el, f"span mismatch for {url}"


def test_sentinel_and_metric_flags(extracted):
    _, golden_dir, out, report = extracted
    got = _load_sorted(_read_output(out))
    exp = _load_sorted(_read_golden(golden_dir))
    assert (got["is_ocr_fallback"].values == exp["expect_ocr_fallback"].values).all()
    assert (got["is_parse_failure"].values == exp["expect_parse_failure"].values).all()
    assert report["ocr_fallbacks"] == int(exp["expect_ocr_fallback"].sum())
    assert report["parse_failures"] == int(exp["expect_parse_failure"].sum())
    # failure rows carry the reference's sentinel, never get dropped
    fail = got[got["is_parse_failure"]]
    assert fail["text"].str.startswith("[ERRO: Não foi possível").all()


def test_dedup_keeps_latest_crawl(extracted):
    pages_dir, _, out, _ = extracted
    import ray.data

    pages = ray.data.read_parquet(pages_dir, columns=["url", "warc_ts"]).to_pandas()
    got = _read_output(out)
    latest = pages.groupby("url")["warc_ts"].max()
    merged = got.set_index("url")["warc_ts"]
    assert (merged.sort_index() == latest.sort_index()).all()
    # corpus really contains recrawls (idx % 20 == 7)
    assert len(pages) > len(got)


def test_manifests_fingerprint_output(extracted):
    _, _, out, _ = extracted
    from rayxtract import manifest as mf

    done = mf.completed_partitions(out)
    assert done, "manifests written"
    got = _read_output(out)
    for pid in done:
        m = mf.read_manifest(out, pid)
        part = got[got["partition_id"] == pid]
        assert m["rows"] == len(part)
        assert m["crc_sum"] == int(part["text_crc"].sum())


def test_resume_skips_completed_partitions(small_corpus, tmp_path):
    pages_dir, golden_dir, = small_corpus
    out = str(tmp_path / "resume_out")
    cfg = ExtractConfig(batch_size=64)
    run_extraction(pages_dir, out, cfg, resume=False)
    full = _load_sorted(_read_output(out))

    # simulate a killed run: drop two completed partitions + one partial dir
    from rayxtract import manifest as mf

    shutil.rmtree(mf.partition_dir(out, 0))
    shutil.rmtree(mf.partition_dir(out, 3))
    os.remove(os.path.join(mf.partition_dir(out, 5), mf.MANIFEST_NAME))

    report = run_extraction(pages_dir, out, cfg, resume=True)
    assert report["partitions_skipped_on_resume"] == 5
    assert 5 in report["partitions_wiped_incomplete"]
    resumed = _load_sorted(_read_output(out))
    pd.testing.assert_frame_equal(
        full[["url", "text", "n_chars"]], resumed[["url", "text", "n_chars"]]
    )


def test_output_independent_of_parallelism(small_corpus, tmp_path):
    """Same corpus, different batch size -> same bytes."""
    pages_dir, _ = small_corpus
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    run_extraction(
        pages_dir, a, ExtractConfig(batch_size=32),
        resume=False,
    )
    run_extraction(
        pages_dir, b, ExtractConfig(batch_size=256),
        resume=False,
    )
    da = _load_sorted(_read_output(a))[["url", "text"]]
    db = _load_sorted(_read_output(b))[["url", "text"]]
    pd.testing.assert_frame_equal(da, db)


def test_lazy_dataset_streams(small_corpus):
    """extraction_dataset is lazy and consumable without full materialize."""
    pages_dir, _ = small_corpus
    ds = extraction_dataset(pages_dir, ExtractConfig())
    n = 0
    for batch in ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        n += batch.num_rows
    assert n == 1000  # unique urls


def test_extraction_dataset_sets_the_block_cap(small_corpus, monkeypatch):
    """Library callers (not only the CLI) extract under the engine's
    32 MiB block cap that ops.isolate_heavy relies on, not Ray's 128 MiB
    default."""
    from ray.data.context import DataContext

    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "target_max_block_size", 128 * 1024 * 1024)
    pages_dir, _ = small_corpus
    extraction_dataset(pages_dir, ExtractConfig())
    assert DataContext.get_current().target_max_block_size == 32 * 1024 * 1024


def test_resume_and_single_shard(small_corpus, tmp_path):
    """The loser filter composes with resume (partition ids are ABSOLUTE
    shard ids, independent of the skip set) and with a single-shard input;
    the winner pass also runs at one bucket (the bare-ref ``num_returns=1``
    edge)."""
    import pyarrow.parquet as pq

    from rayxtract import manifest as mf

    pages_dir, _ = small_corpus
    cfg = ExtractConfig(batch_size=64)

    out = str(tmp_path / "resume_out")
    run_extraction(pages_dir, out, cfg, resume=False)
    full = _load_sorted(_read_output(out))
    shutil.rmtree(mf.partition_dir(out, 1))
    report = run_extraction(pages_dir, out, cfg, resume=True)
    assert report["partitions_skipped_on_resume"] > 0
    resumed = _load_sorted(_read_output(out))
    pd.testing.assert_frame_equal(full[["url", "text"]], resumed[["url", "text"]])

    # single-shard input: concat all pages into ONE parquet file
    single = tmp_path / "single_pages"
    single.mkdir()
    import glob as _glob

    import pyarrow as pa

    parts = [pq.read_table(f) for f in sorted(_glob.glob(f"{pages_dir}/*.parquet"))]
    pq.write_table(pa.concat_tables(parts), str(single / "all.parquet"))
    out1 = str(tmp_path / "single_out")
    run_extraction(str(single), out1, cfg, resume=False)
    got = _load_sorted(_read_output(out1))
    pd.testing.assert_frame_equal(full[["url", "text"]], got[["url", "text"]])

    from rayxtract.pipeline import compute_recrawl_winners

    assert compute_recrawl_winners(str(single)) == compute_recrawl_winners(pages_dir)


def test_resume_reruns_shard_rewritten_in_place(small_corpus, tmp_path):
    """A shard regenerated IN PLACE (same filename, different content) must
    force a FULL rebuild on resume — the manifest records a content
    fingerprint, not just the name (VERDICT r2 "What's wrong" #4), and
    since the OLD content's url set is unknowable, winner drift against
    the other partitions can't be bounded (delta reconciliation,
    pipeline._reconcile_input_change: the pre-rewrite rows participated
    in the keep-latest winner map every other partition was filtered
    with)."""
    pages_dir, _ = small_corpus
    local_pages = str(tmp_path / "pages")
    shutil.copytree(pages_dir, local_pages)
    out = str(tmp_path / "out")
    cfg = ExtractConfig(batch_size=64)
    run_extraction(local_pages, out, cfg, resume=False)
    first = _load_sorted(_read_output(out))

    from rayxtract.pipeline import list_shards

    shards = sorted(list_shards(local_pages))
    n_shards = len(shards)
    victim = shards[2]
    # rewrite in place: same rows, re-encoded file (size/mtime change)
    import pyarrow.parquet as pq

    t = pq.read_table(victim)
    pq.write_table(t, victim, compression="snappy", row_group_size=123)

    report = run_extraction(local_pages, out, cfg, resume=True)
    assert report["partitions_skipped_on_resume"] == 0
    assert sorted(report["partitions_wiped_incomplete"]) == list(range(n_shards))
    again = _load_sorted(_read_output(out))
    pd.testing.assert_frame_equal(
        first[["url", "text"]], again[["url", "text"]]
    )


def test_resume_rejects_stale_manifests_from_other_input(small_corpus, tmp_path):
    """A manifest written for a DIFFERENT pages_path must not be trusted:
    shard_id is a file-list index, so reusing out_dir across inputs would
    silently skip partitions of stale data (ADVICE r1)."""
    pages_dir, _ = small_corpus
    out = str(tmp_path / "out")
    cfg = ExtractConfig(batch_size=64)
    run_extraction(pages_dir, out, cfg, resume=False)
    first = _load_sorted(_read_output(out))

    # same bytes, different input path -> every manifest is stale
    other = str(tmp_path / "other_pages")
    shutil.copytree(pages_dir, other)
    report = run_extraction(other, out, cfg, resume=True)
    assert report["partitions_skipped_on_resume"] == 0
    assert len(report["partitions_wiped_incomplete"]) > 0
    again = _load_sorted(_read_output(out))
    pd.testing.assert_frame_equal(
        first[["url", "text"]], again[["url", "text"]]
    )


def test_recrawl_winners_match_duckdb(small_corpus):
    """Distributed bucketed winner reduce == SQL GROUP BY ... HAVING n>1."""
    import duckdb

    from rayxtract.pipeline import compute_recrawl_winners

    pages_dir, _ = small_corpus
    winners, ties = compute_recrawl_winners(pages_dir)
    assert not ties  # WARC-style corpus: no exact (url, ts) ties
    con = duckdb.connect()
    exp = dict(
        con.execute(
            "SELECT url, CAST(epoch_us(MAX(warc_ts)) AS BIGINT) "
            f"FROM read_parquet('{pages_dir}/*.parquet') "
            "GROUP BY url HAVING COUNT(*) > 1"
        ).fetchall()
    )
    con.close()
    assert winners == exp
    assert len(winners) > 0


def test_exact_ts_ties_resolve_to_one_row(tmp_path):
    """Exact (url, warc_ts) ties: exactly ONE deterministic winner row per
    url survives — smallest crc32(payload) among the max-ts rows, identical
    payload duplicates collapse to one (ADVICE r1, pipeline.py:133)."""
    import zlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayxtract.schema import PAGES_SCHEMA

    def page(url, ts, body):
        html = f"<html><body><div><p>{body}</p></div></body></html>"
        return {
            "url": url,
            "warc_ts": ts,
            "html": html.encode(),
            "text": body,
            "lang": "en",
        }

    base = 1_700_000_000_000_000
    body_a = "tie candidate payload alpha with enough characters to extract"
    body_b = "tie candidate payload bravo with enough characters to extract"
    rows_s0 = [
        page("https://t.example/tie-diff", base, body_a),
        page("https://t.example/tie-same", base, body_a),
        page("https://t.example/plain", base, body_b),
    ]
    rows_s1 = [
        page("https://t.example/tie-diff", base, body_b),  # same ts, diff payload
        page("https://t.example/tie-same", base, body_a),  # fully identical row
        page("https://t.example/recrawl", base, body_a),
        page("https://t.example/recrawl", base + 5, body_b),  # normal recrawl
    ]
    pdir = tmp_path / "tie_pages"
    pdir.mkdir()
    pq.write_table(pa.Table.from_pylist(rows_s0, schema=PAGES_SCHEMA), pdir / "s0.parquet")
    pq.write_table(pa.Table.from_pylist(rows_s1, schema=PAGES_SCHEMA), pdir / "s1.parquet")

    from rayxtract.pipeline import compute_recrawl_winners

    winners, ties = compute_recrawl_winners(str(pdir))
    assert set(ties) == {"https://t.example/tie-diff", "https://t.example/tie-same"}
    assert winners == {"https://t.example/recrawl": base + 5}

    out = str(tmp_path / "tie_out")
    run_extraction(str(pdir), out, ExtractConfig(batch_size=8), resume=False)
    got = _load_sorted(_read_output(out))
    assert list(got["url"]) == sorted(
        ["https://t.example/tie-diff", "https://t.example/tie-same",
         "https://t.example/plain", "https://t.example/recrawl"]
    )
    # tie-diff winner: the payload with the smaller crc32
    crc_a = zlib.crc32(rows_s0[0]["html"])
    crc_b = zlib.crc32(rows_s1[0]["html"])
    expect_body = body_a if crc_a < crc_b else body_b
    tie_row = got[got["url"] == "https://t.example/tie-diff"].iloc[0]
    assert tie_row["text"] == expect_body
    assert got[got["url"] == "https://t.example/recrawl"].iloc[0]["text"] == body_b


def test_isolate_heavy_singles_out_big_rows():
    import pyarrow as pa

    from rayxtract.ops import isolate_heavy

    rows = [
        {"url": "a", "html": b"x" * 10},
        {"url": "b", "html": b"y" * 5000},
        {"url": "c", "html": b"z" * 20},
        {"url": "d", "html": b"w" * 6000},
    ]
    t = pa.Table.from_pylist(rows)
    out = list(isolate_heavy(t, heavy_bytes=1000))
    assert [b.num_rows for b in out] == [2, 1, 1]
    assert sorted(out[0]["url"].to_pylist()) == ["a", "c"]
    assert {out[1]["url"][0].as_py(), out[2]["url"][0].as_py()} == {"b", "d"}
    # no-heavy batch passes through as one piece
    out2 = list(isolate_heavy(t, heavy_bytes=10_000))
    assert [b.num_rows for b in out2] == [4]


def test_skew_planted_giant_pages(tmp_path):
    """Planted multi-MB blobs: extraction stays correct and one-row-per-url
    with the heavy-isolation stage on (the north rule's giant-HTML-blob
    skew case)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayxtract.ops import _extract_one
    from rayxtract.schema import PAGES_SCHEMA
    from rayxtract.synth import build_page

    def giant(idx: int, n_paras: int) -> dict:
        paras = "".join(
            f"<p>giant content paragraph number {i} with plenty of words to "
            f"score as main article content in document {idx}</p>"
            for i in range(n_paras)
        )
        html = (
            "<html><body><nav><a href='/'>home</a></nav>"
            f"<div class='content-body'>{paras}</div></body></html>"
        )
        return {
            "url": f"https://giant.example/p/{idx:08d}",
            "warc_ts": 1_700_000_000_000_000 + idx,
            "html": html.encode(),
            "text": "",
            "lang": "en",
        }

    normal = [build_page(i, 1) for i in range(400)]
    giants = [giant(0, 40_000), giant(1, 40_000)]  # ~4.5 MB each
    pdir = tmp_path / "skew_pages"
    pdir.mkdir()
    pq.write_table(
        pa.Table.from_pylist(normal[:200] + giants[:1], schema=PAGES_SCHEMA),
        pdir / "s0.parquet",
    )
    pq.write_table(
        pa.Table.from_pylist(normal[200:] + giants[1:], schema=PAGES_SCHEMA),
        pdir / "s1.parquet",
    )

    out = str(tmp_path / "skew_out")
    cfg = ExtractConfig(batch_size=64, heavy_bytes=1024 * 1024)
    report = run_extraction(str(pdir), out, cfg, resume=False)
    got = _load_sorted(_read_output(out))
    assert len(got) == len({r["url"] for r in normal + giants})
    for g in giants:
        _, exp_text, _, _, _, _ = _extract_one(g["url"], g["html"], cfg)
        row = got[got["url"] == g["url"]].iloc[0]
        assert row["text"] == exp_text
        assert row["n_chars"] > 3_000_000
    assert report["rows"] == len(got)


def test_isolate_heavy_keeps_null_payload_rows():
    """Null html + a heavy row in the same batch: the null row must survive
    (as a light row) — a null size mask would be dropped by BOTH filters."""
    import pyarrow as pa

    from rayxtract.ops import isolate_heavy

    t = pa.table(
        {
            "url": ["a", "b", "c"],
            "html": pa.array([b"x" * 10, None, b"y" * 5000], type=pa.binary()),
        }
    )
    out = list(isolate_heavy(t, heavy_bytes=1000))
    total = sum(b.num_rows for b in out)
    assert total == 3
    light = out[0]["url"].to_pylist()
    assert "b" in light  # null-payload row stays with the light rows


def test_run_writes_stage_stats(small_corpus, tmp_path):
    pages_dir, _ = small_corpus
    out = str(tmp_path / "stats_out")
    run_extraction(pages_dir, out, ExtractConfig(), resume=False)
    stats = open(os.path.join(out, "_stats.txt")).read()
    assert "ReadParquet" in stats or "Operator" in stats


def test_curation_build_manifested_and_resumable(small_corpus, tmp_path):
    """run_curation_build: gate output equals the plain (unmanifested)
    curation DAG run over the same corpus; a second call skips every
    partition at the read; the report counts kept rows."""
    import duckdb
    import numpy as np
    import pandas as pd

    from rayxtract.ops import ExtractConfig
    from rayxtract.pipeline import extraction_dataset, run_curation_build
    from rayxtract.textops import LangIdBatch, add_quality_counts

    pages_dir, _ = small_corpus
    out = str(tmp_path / "build_out")
    report = run_curation_build(pages_dir, out, ExtractConfig())
    assert report["partitions_skipped_on_resume"] == 0
    assert 0 < report["rows"] < 1000  # the gate must actually drop rows

    # independent expectation: same stages as a plain Dataset run
    ds = extraction_dataset(pages_dir, ExtractConfig())
    ds = ds.map_batches(
        LangIdBatch, batch_format="pandas", batch_size=512, concurrency=(1, 4)
    )
    ds = ds.map_batches(add_quality_counts, batch_format="pandas")

    def gate(batch: pd.DataFrame) -> pd.DataFrame:
        n_chars = batch["n_chars_q"].to_numpy(np.int64)
        keep = (
            (batch["lang_pred"] == "en").to_numpy()
            & (n_chars >= 200)
            & (batch["n_digits"].to_numpy(np.int64) * 10 <= n_chars)
        )
        return batch.loc[keep]

    exp = (
        ds.map_batches(gate, batch_format="pandas")
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    got = duckdb.sql(
        f"SELECT url, text FROM read_parquet('{out}/*/*.parquet', "
        "hive_partitioning=1) ORDER BY url"
    ).df()
    assert report["rows"] == len(exp) == len(got)
    assert list(got["url"]) == list(exp["url"])
    assert list(got["text"]) == list(exp["text"])

    # resume: everything already manifested -> nothing re-runs
    report2 = run_curation_build(pages_dir, out, ExtractConfig())
    assert report2["partitions_skipped_on_resume"] == report["partitions"]
    assert report2["rows"] == report["rows"]


def test_build_resume_rejects_extract_manifests(small_corpus, tmp_path):
    """Job identity in manifests: an out dir written by the RAW
    extraction job must not satisfy a curation-build resume (the
    partitions would silently stay un-curated), and vice versa."""
    from rayxtract.ops import ExtractConfig
    from rayxtract.pipeline import run_curation_build, run_extraction

    pages_dir, _ = small_corpus
    out = str(tmp_path / "mixed_out")
    r1 = run_extraction(pages_dir, out, ExtractConfig())
    assert r1["rows"] == 1000

    r2 = run_curation_build(pages_dir, out, ExtractConfig())
    # nothing may be "skipped on resume" — every partition re-runs
    # under the curate job identity, and the output is now gated
    assert r2["partitions_skipped_on_resume"] == 0
    assert 0 < r2["rows"] < r1["rows"]

    # and the build's own manifests DO satisfy a second build
    r3 = run_curation_build(pages_dir, out, ExtractConfig())
    assert r3["partitions_skipped_on_resume"] == r2["partitions"]
