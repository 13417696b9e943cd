"""Oracle-parity harness: runs every queries() entry at sf0.001 and compares
SQL-expressible ones against DuckDB the way the driver does (row count +
column names + order-insensitive value equality)."""

import duckdb
import pandas as pd
import pytest

import os
SF_DIR = os.environ.get("QTEST_SF_DIR", "/root/testdata/sf0.001")

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _duck(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    df = con.execute(sql).df()
    con.close()
    return df


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(9)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _oracle_names():
    import __ray_entry__ as e

    return sorted(e.oracle_sql().keys())


def _query_names():
    import __ray_entry__ as e

    return sorted(e.queries().keys())


@pytest.mark.parametrize("name", _oracle_names())
def test_oracle_parity(name):
    import __ray_entry__ as e

    from rayxtract.queries import oracle_sql_for

    got = _canon(_to_pandas(e.queries()[name](SF_DIR)))
    # pages_* oracles embed the corpus path for the driver's sf0.01 tier;
    # rebind them to the test tier (the driver surface stays sf0.01)
    exp = _canon(_duck(oracle_sql_for(SF_DIR)[name]))
    assert list(got.columns) == list(exp.columns), (
        f"{name}: columns {list(got.columns)} != {list(exp.columns)}"
    )
    assert len(got) == len(exp), f"{name}: {len(got)} rows vs {len(exp)}"
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, obj=name)


@pytest.mark.parametrize("name", sorted(set(_query_names()) - set(_oracle_names())))
def test_rows_only_queries_run(name):
    """Non-SQL-expressible ops must at least run and return a stable frame."""
    import __ray_entry__ as e

    df = _to_pandas(e.queries()[name](SF_DIR))
    assert df is not None
    assert len(df.columns) > 0


def test_entry_smoke():
    import __ray_entry__ as e

    df = _to_pandas(e.entry())
    assert len(df) == 1000  # unique urls at the sf0.001 tier
    assert {"url", "n_chars", "doc_type"} <= set(df.columns)


def test_left_join_typed_nulls():
    """bucketed_join(how='left') preserves every left row and carries
    unmatched right columns as typed nulls (not dropped, not zero-filled)."""
    from rayxtract.joins import bucketed_join
    import ray.data

    c = ray.data.read_parquet(
        f"{SF_DIR}/customer.parquet", columns=["c_custkey", "c_name"]
    )
    o = ray.data.read_parquet(
        f"{SF_DIR}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    j = bucketed_join(c, o, "c_custkey", "o_custkey", how="left")
    df = j.to_pandas()
    n_cust = c.count()
    cust_with_orders = set(o.to_pandas()["o_custkey"].astype("int64"))
    expected_null_rows = n_cust - len(
        set(c.to_pandas()["c_custkey"].astype("int64")) & cust_with_orders
    )
    null_rows = int(df["o_orderkey"].isna().sum())
    assert null_rows == expected_null_rows
    assert set(df["c_custkey"].astype("int64")) == set(
        c.to_pandas()["c_custkey"].astype("int64")
    )
    # matched half agrees with the inner join
    inner = bucketed_join(c, o, "c_custkey", "o_custkey").to_pandas()
    assert len(df) == len(inner) + null_rows


def test_decontaminate_antijoin_matches_broadcast(ray_session):
    """decontaminate's corpus-sized-eval anti-join fallback removes
    exactly the same rows as the broadcast fingerprint filter."""
    import ray.data

    from rayxtract.dedup import decontaminate

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    eval_ds = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(lambda b: b[b["doc_id"] % 97 == 0], batch_format="pandas")
    a = (
        decontaminate(docs, eval_ds)
        .drop_columns(["text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        decontaminate(docs, eval_ds, broadcast_limit=0)  # force anti-join
        .drop_columns(["text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(a) > 0 and len(a) < docs.count()
    pd.testing.assert_frame_equal(a[["doc_id", "lang"]], b[["doc_id", "lang"]])


def test_decontaminate_bloom_false_positives_rescued(ray_session):
    """A deliberately tiny bloom (high false-positive rate) routes nearly
    every row through the anti-join suspects leg — the exact check must
    still keep all clean rows, so output equals the broadcast path."""
    import ray.data

    from rayxtract.dedup import decontaminate

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    eval_ds = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    ).map_batches(lambda b: b[b["doc_id"] % 97 == 0], batch_format="pandas")
    a = (
        decontaminate(docs, eval_ds)
        .drop_columns(["text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        decontaminate(docs, eval_ds, broadcast_limit=0, bloom_bits=64)
        .drop_columns(["text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a[["doc_id", "lang"]], b[["doc_id", "lang"]])


def test_decontaminate_bloom_count_invariant(ray_session):
    """check_counts=True enforces the bloom path's determinism contract:
    every input row lands in exactly one of clean/suspects (a
    nondeterministic upstream would drop or duplicate rows silently)."""
    import ray.data

    from rayxtract.dedup import decontaminate

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    eval_ds = docs.map_batches(
        lambda b: b[b["doc_id"] % 97 == 0], batch_format="pandas"
    )
    out = decontaminate(
        docs, eval_ds, broadcast_limit=0, bloom_bits=64, check_counts=True
    )
    assert 0 < out.count() < docs.count()


def test_ngram_contamination_guard_and_floor(ray_session):
    """ngram_contamination raises past broadcast_limit instead of silently
    ballooning the driver; eval docs themselves are fully contaminated."""
    import pytest
    import ray.data

    from rayxtract.dedup import ngram_contamination

    docs = ray.data.read_parquet(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]
    )
    eval_ds = docs.map_batches(
        lambda b: b[b["doc_id"] % 97 == 0], batch_format="pandas"
    )
    with pytest.raises(ValueError, match="broadcast_limit"):
        ngram_contamination(docs, eval_ds, w=5, broadcast_limit=1).count()
    out = ngram_contamination(docs, eval_ds, w=5).to_pandas()
    evs = out[out["doc_id"] % 97 == 0]
    assert len(evs) > 0
    # every window of an eval doc is (trivially) present in the eval set
    assert (evs["n_contaminated"] == evs["n_windows"]).all()


def test_compress_ratio_signal(ray_session):
    """Repetitive text compresses harder than prose: the signal orders a
    planted boilerplate doc below the corpus median ratio; byte counts
    match an independent python recount."""
    import zlib

    import pyarrow.parquet as pq

    from rayxtract.queries import QUERIES

    out = QUERIES["doc_compress_ratio"](SF_DIR).to_pandas()
    t = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
    ref = {i: s for i, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    assert len(out) == len(ref)
    sample = out.sample(20, random_state=0)
    for _, r in sample.iterrows():
        e = ref[int(r["doc_id"])].encode("utf-8")
        assert r["n_bytes"] == len(e)
        assert r["n_compressed"] == len(zlib.compress(e, 6))
    ratio = out["n_compressed"] / out["n_bytes"].clip(lower=1)
    rep = "spam spam spam " * 200
    rep_ratio = len(zlib.compress(rep.encode(), 6)) / len(rep.encode())
    assert rep_ratio < ratio.median()


def test_emb_knn_mutual_rejects_ids_outside_packed_range(tmp_path):
    """The reciprocity join packs (a, b) into one int64 key (a << 32) | b,
    so an id outside [0, 2^31) must fail loudly rather than collide."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import pytest

    from rayxtract.queries import q_emb_knn_mutual

    rng = np.random.RandomState(0)
    ids = [0, 1, 2, 3, 4, 5, 6, 1 << 31]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(ids, type=pa.int64()),
                "embedding": pa.array(
                    [rng.randn(8).tolist() for _ in ids], type=pa.list_(pa.float64())
                ),
            }
        ),
        str(tmp_path / "embeddings.parquet"),
    )
    with pytest.raises(Exception, match=r"\[0, 2\^31\)"):
        q_emb_knn_mutual(str(tmp_path)).materialize()
