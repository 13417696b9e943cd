"""Seeded benchmark inputs, cached on disk by seed.

The program receives only what this module writes. Every input derives from
one stock page corpus (``rayxtract.synth`` with its default seed, so the
goldens stay valid) plus the benchmark seed, which decides:

* ``flagship``: the row order and so which shard each row lands in;
* ``resume``: the same, laid out as more, smaller shards;
* ``multicrawl``: which urls are sampled, which of the K snapshots holds each
  url's newest copy, and which foreign page each loser copy carries;
* ``query_sweep``: the contents of the relational, document and embedding
  tables the swept queries read.

The stock corpus is written in the layout ``rayxtract.synth.ensure_corpus``
caches, so the pages queries find it instead of generating their own.
"""

from __future__ import annotations

import os
import shutil
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


class Sizes(NamedTuple):
    name: str
    pages: int  # stock corpus of the extraction workloads
    query_pages: int  # pages tier the query tables' directory name maps to
    flagship_shards: int
    resume_shards: int
    multicrawl_urls: int
    multicrawl_snapshots: int
    shards_per_snapshot: int
    table_scale: float  # 1.0 = the smallest test tier's row counts


SIZES = {
    s.name: s
    for s in (
        Sizes("full", 2000, 500, 8, 20, 500, 8, 2, 1.0),
        Sizes("smoke", 300, 100, 4, 10, 100, 4, 1, 0.4),
    )
}

_DAY_US = 86_400 * 1_000_000


def _publish(tmp: str, final: str) -> None:
    with open(os.path.join(tmp, "_COMPLETE"), "w") as f:
        f.write("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)


def _fresh_tmp(final: str) -> str:
    tmp = f"{final}.tmp.{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    return tmp


def _write_shards(table: pa.Table, out_dir: str, n_shards: int, prefix: str = "shard") -> None:
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, table.num_rows, n_shards + 1).astype(int)
    for i in range(n_shards):
        part = table.slice(bounds[i], bounds[i + 1] - bounds[i])
        pq.write_table(part, os.path.join(out_dir, f"{prefix}-{i:03d}.parquet"))


def query_sf_name(sizes: Sizes) -> str:
    """A directory name ``synth.sf_dir_to_n_pages`` maps to the pages tier."""
    return f"sf{sizes.query_pages / 1e6:g}"


def ensure_corpus(program_cache: str, n_pages: int) -> tuple[str, str]:
    """A stock corpus (pages + golden), generated once per checkout, where
    ``rayxtract.synth.ensure_corpus`` would cache it."""
    from rayxtract.synth import DEFAULT_SEED, GEN_VERSION, golden_batch, pages_batch

    root = os.path.join(program_cache, f"n{n_pages}_s{DEFAULT_SEED}_v{GEN_VERSION}")
    pages_dir, golden_dir = (os.path.join(root, d) for d in ("pages", "golden"))
    if os.path.exists(os.path.join(root, "_COMPLETE")):
        return pages_dir, golden_dir
    os.makedirs(program_cache, exist_ok=True)
    tmp = _fresh_tmp(root)
    ids = np.arange(n_pages, dtype=np.int64)
    for i, chunk in enumerate(np.array_split(ids, 8)):
        batch = pa.table({"id": chunk})
        for sub, build in (("pages", pages_batch), ("golden", golden_batch)):
            os.makedirs(os.path.join(tmp, sub), exist_ok=True)
            pq.write_table(
                build(batch), os.path.join(tmp, sub, f"part-{i:03d}.parquet")
            )
    _publish(tmp, root)
    return pages_dir, golden_dir


def _relayout(pages_dir: str, out: str, n_shards: int, seed: int) -> None:
    pages = pq.read_table(pages_dir)
    order = np.random.default_rng(seed).permutation(pages.num_rows)
    _write_shards(pages.take(order), os.path.join(out, "pages"), n_shards)


def _multicrawl(pages_dir: str, out: str, seed: int, sizes: Sizes) -> None:
    """K overlapping snapshots of a url sample. Each url's newest copy sits
    in one seed-chosen snapshot and carries the url's own newest payload;
    every older copy carries another sampled url's payload, so keeping a
    loser changes the extracted text."""
    table = pq.read_table(pages_dir)
    schema, pages = table.schema, table.to_pandas()
    ts = pages["warc_ts"].astype("int64")
    newest = pages.loc[ts.groupby(pages["url"]).idxmax()].sort_values("url")
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(len(newest), sizes.multicrawl_urls, replace=False))
    base = newest.iloc[pick].reset_index(drop=True)
    k = sizes.multicrawl_snapshots
    home = rng.integers(0, k, len(base))
    base_ts = base["warc_ts"].astype("int64").to_numpy()
    for snap in range(k):
        is_home = home == snap
        # a foreign payload: another sampled url, never the url itself
        donor = (np.arange(len(base)) + rng.integers(1, len(base), len(base))) % len(base)
        src = np.where(is_home, np.arange(len(base)), donor)
        # the home copy is newest; other snapshots are older by whole days
        age_days = np.where(is_home, 0, k - snap)
        rows = base.copy()
        rows["html"] = base["html"].to_numpy()[src]
        rows["text"] = base["text"].to_numpy()[src]
        rows["warc_ts"] = (base_ts - age_days * _DAY_US).astype("datetime64[us]")
        snapshot = pa.Table.from_pandas(rows, schema=schema, preserve_index=False)
        _write_shards(
            snapshot.take(rng.permutation(snapshot.num_rows)),
            os.path.join(out, "pages"), sizes.shards_per_snapshot, f"snap{snap}",
        )
    pq.write_table(
        pa.table({"url": base["url"].to_numpy()}),
        os.path.join(out, "urls.parquet"),
    )


_WORDS = (
    "the data stream engine batch table query sort merge join filter scan "
    "window partition shuffle block actor worker memory disk network page "
    "content article reader system design value result record column row "
    "index vector model text token language process cluster node task"
).split()


def _query_tables(out_dir: str, seed: int, scale: float) -> None:
    """TPC-H-shaped customer/orders/lineitem plus documents and embeddings;
    ``scale`` 1.0 gives the row counts of the smallest test tier."""
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    def write(name: str, cols: dict) -> None:
        pq.write_table(pa.table(cols), os.path.join(out_dir, f"{name}.parquet"))

    n_cust, n_orders = int(150 * scale), int(1500 * scale)
    write("customer", {
        "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
        "c_name": [f"Customer#{i:09d}" for i in range(n_cust)],
        "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        "c_acctbal": np.round(rng.uniform(-999, 9999, n_cust), 2),
        "c_mktsegment": rng.choice(
            ["FURNITURE", "MACHINERY", "BUILDING", "HOUSEHOLD", "AUTOMOBILE"],
            n_cust,
        ),
    })
    day0 = np.datetime64("1995-01-01", "D")
    write("orders", {
        "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
        "o_custkey": pa.array(rng.integers(0, n_cust, n_orders), pa.int64()),
        "o_orderstatus": rng.choice(["O", "F", "P"], n_orders),
        "o_totalprice": np.round(rng.uniform(1000, 500_000, n_orders), 2),
        "o_orderdate": pa.array(
            (day0 + rng.integers(0, 2404, n_orders)).astype("datetime64[us]")
        ),
        "o_orderpriority": rng.choice(
            ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"],
            n_orders,
        ),
    })
    lines = rng.integers(1, 9, n_orders)
    okey = np.repeat(np.arange(n_orders), lines)
    n_lines = len(okey)
    lineno = np.concatenate([np.arange(1, n + 1) for n in lines])
    qty = rng.integers(1, 51, n_lines).astype(np.float64)
    write("lineitem", {
        "l_orderkey": pa.array(okey, pa.int64()),
        "l_partkey": pa.array(rng.integers(0, 200, n_lines), pa.int64()),
        "l_suppkey": pa.array(rng.integers(0, 10, n_lines), pa.int64()),
        "l_linenumber": pa.array(lineno, pa.int32()),
        "l_quantity": qty,
        "l_extendedprice": np.round(qty * rng.uniform(900, 2000, n_lines), 2),
        "l_discount": rng.integers(0, 11, n_lines) / 100.0,
        "l_tax": rng.integers(0, 9, n_lines) / 100.0,
        "l_returnflag": rng.choice(["N", "A", "R"], n_lines),
        "l_linestatus": rng.choice(["O", "F"], n_lines),
        "l_shipdate": pa.array(
            (day0 + rng.integers(0, 2434, n_lines)).astype("datetime64[us]")
        ),
    })
    n_docs = int(500 * scale)
    texts = [
        " ".join(rng.choice(_WORDS, rng.integers(8, 90)))
        for _ in range(n_docs)
    ]
    for i in rng.choice(np.arange(1, n_docs), n_docs // 20, replace=False):
        texts[i] = texts[int(rng.integers(0, i))]  # planted exact duplicates
    write("documents", {
        "doc_id": pa.array(np.arange(n_docs), pa.int64()),
        "text": texts,
        "lang": rng.choice(["en", "fr", "es", "zh", "de"], n_docs),
        "source": [f"src{i % 20}" for i in range(n_docs)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })
    n_vecs, dim = int(500 * scale), 64
    vecs = rng.standard_normal((n_vecs, dim)).astype(np.float32)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    write("embeddings", {
        "vec_id": pa.array(np.arange(n_vecs), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array(rng.integers(0, 10, n_vecs), pa.int32()),
    })


def ensure_inputs(
    workload: str, seed: int, sizes: Sizes, cache: str, program_cache: str
) -> dict:
    """Build (once per seed) and return the paths of a workload's inputs."""
    n_pages = sizes.query_pages if workload == "query_sweep" else sizes.pages
    pages_dir, golden_dir = ensure_corpus(program_cache, n_pages)
    out = os.path.join(cache, "inputs", sizes.name, f"{workload}-s{seed}")
    paths = {"corpus_pages": pages_dir, "golden": golden_dir}
    if workload == "query_sweep":
        paths["sf_dir"] = os.path.join(out, query_sf_name(sizes))
    else:
        paths["pages"] = os.path.join(out, "pages")
    if workload == "multicrawl":
        paths["urls"] = os.path.join(out, "urls.parquet")
    if os.path.exists(os.path.join(out, "_COMPLETE")):
        return paths
    tmp = _fresh_tmp(out)
    if workload == "flagship":
        _relayout(pages_dir, tmp, sizes.flagship_shards, seed)
    elif workload == "resume":
        _relayout(pages_dir, tmp, sizes.resume_shards, seed)
    elif workload == "multicrawl":
        _multicrawl(pages_dir, tmp, seed, sizes)
    elif workload == "query_sweep":
        _query_tables(os.path.join(tmp, query_sf_name(sizes)), seed, sizes.table_scale)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _publish(tmp, out)
    return paths
