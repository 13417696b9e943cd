"""The four workloads: what one op is, how it is checked, and the per-layer
facts each exposes. One client submits one op at a time (a closed loop)."""

from __future__ import annotations

import glob
import os
import re
import shutil
import time
from contextlib import nullcontext

import numpy as np
import pyarrow.parquet as pq


# query_sweep's queries, by the layer group they stress. Each sweep runs them
# in this order. The exchange query is not first: run first, it paid its
# cold start in the first two sweeps, not one.
QUERY_GROUPS = {
    "text": ["doc_dedup_exact"],
    "ann": ["emb_knn_graph_ivf"],
    "pages": ["pages_hits"],
    "exchange": ["q18_large_orders"],
}
SWEEP = [q for group in QUERY_GROUPS.values() for q in group]
# the tables each query reads, for rows_in_per_s ("corpus" = the pages corpus)
QUERY_INPUTS = {
    "q18_large_orders": ["lineitem", "orders", "customer"],
    "doc_dedup_exact": ["documents"],
    "emb_knn_graph_ivf": ["embeddings"],
    "pages_hits": ["corpus"],
}
RESUME_REDO = 2  # partitions whose manifests each resume op deletes
# a published stock corpus, as inputs.ensure_corpus names it
_CORPUS_DIR = re.compile(r"n\d+_s\d+_v\d+")


def _rows(path: str) -> int:
    return pq.ParquetDataset(path).read(columns=[]).num_rows


def _shard_rows(pages_dir: str) -> list[int]:
    from rayxtract.pipeline import list_shards

    return [pq.ParquetFile(p).metadata.num_rows for p in list_shards(pages_dir)]


def wrong_extraction_rows(out_dir: str, golden_dir: str, urls_file: str | None = None) -> int:
    """Golden urls without exactly one byte-identical output row, plus
    output rows for urls outside the golden set."""
    import duckdb

    golden = f"read_parquet('{golden_dir}/*.parquet')"
    if urls_file:
        golden = (
            f"(SELECT g.* FROM {golden} g "
            f"JOIN read_parquet('{urls_file}') u USING (url))"
        )
    out = f"read_parquet('{out_dir}/*/*.parquet', hive_partitioning=1)"
    con = duckdb.connect()
    try:
        return int(con.execute(f"""
            WITH g AS (SELECT url, golden_text FROM {golden}),
                 o AS (SELECT url, text FROM {out}),
                 per_url AS (SELECT url, count(*) AS n, min(text) AS t FROM o GROUP BY url)
            SELECT (SELECT count(*) FROM g LEFT JOIN per_url p USING (url)
                    WHERE p.n IS NULL OR p.n <> 1 OR p.t IS DISTINCT FROM g.golden_text)
                 + (SELECT count(*) FROM o WHERE url NOT IN (SELECT url FROM g))
        """).fetchone()[0])
    finally:
        con.close()


class Extraction:
    """An op is one ``run_extraction`` call over the workload's shards."""

    resume = False

    def __init__(self, name: str, paths: dict, run_dir: str, seed: int) -> None:
        self.name, self.paths, self.seed = name, paths, seed
        self.out = os.path.join(run_dir, "out")
        self.shard_rows = _shard_rows(paths["pages"])
        self.urls_file = paths.get("urls")

    def _run(self, resume: bool) -> dict:
        from rayxtract.ops import ExtractConfig
        from rayxtract.pipeline import run_extraction

        return run_extraction(self.paths["pages"], self.out, ExtractConfig(), resume=resume)

    def warmup(self) -> None:
        self._run(resume=False)

    def check_setup(self) -> int:
        return 0  # every op's output is checked

    def before_op(self, i: int) -> dict:
        return {"redo": list(range(len(self.shard_rows)))}

    def op(self, prep: dict, rec=None) -> dict:
        self._run(resume=self.resume)
        return {}

    def after_op(self, prep: dict, facts: dict) -> dict:
        """Untimed: output accounting and the correctness gate."""
        redo = prep["redo"]
        written = sum(
            _rows(d) for d in self._pdirs()
            if int(d.rsplit("=", 1)[1]) in set(redo)
        )
        return {
            "rows_in": sum(self.shard_rows[p] for p in redo),
            "rows_out": written,
            "partitions_written": len(redo),
            "partitions_read_back": len(self._pdirs()),
            "wrong_rows": wrong_extraction_rows(self.out, self.paths["golden"], self.urls_file),
        }

    def _pdirs(self) -> list[str]:
        return [
            d for d in glob.glob(os.path.join(self.out, "partition_id=*"))
            if glob.glob(os.path.join(d, "*.parquet"))
        ]

    def stats_text(self) -> str:
        try:
            with open(os.path.join(self.out, "_stats.txt")) as f:
                return f.read()
        except OSError:
            return ""

    def probe_pages(self) -> str:
        return self.paths["pages"]


class Resume(Extraction):
    """After a full untimed extraction, each op deletes the manifests of a
    few seed-chosen partitions and resumes the job."""

    resume = True

    def before_op(self, i: int) -> dict:
        from rayxtract.manifest import MANIFEST_NAME, partition_dir

        rng = np.random.default_rng([self.seed, i])
        redo = sorted(int(p) for p in rng.choice(len(self.shard_rows), RESUME_REDO, replace=False))
        for pid in redo:
            try:
                os.remove(os.path.join(partition_dir(self.out, pid), MANIFEST_NAME))
            except FileNotFoundError:
                pass  # a partition whose rows were all recrawl losers
        return {"redo": redo}


class QuerySweep:
    """An op is one pass over SWEEP with warm program caches."""

    def __init__(self, name: str, paths: dict, run_dir: str, seed: int) -> None:
        from rayxtract.queries import QUERIES, oracle_sql_for

        self.name, self.paths, self.seed = name, paths, seed
        self.sf_dir = paths["sf_dir"]
        self.queries = {q: QUERIES[q] for q in SWEEP}
        oracles = oracle_sql_for(self.sf_dir)
        self.oracle_sql = {q: oracles[q] for q in SWEEP if q in oracles}
        self.expected: dict = {}
        corpus_rows = _rows(paths["corpus_pages"])
        self.rows_in = sum(
            corpus_rows if t == "corpus" else _rows(os.path.join(self.sf_dir, f"{t}.parquet"))
            for q in SWEEP for t in QUERY_INPUTS[q]
        )
        self.cold_s: dict[str, float] = {}

    def _sweep(self, rec=None) -> tuple[dict, dict]:
        times, frames = {}, {}
        for q in SWEEP:
            with rec.span(f"queries.{q}") if rec else nullcontext():
                t0 = time.perf_counter()
                frames[q] = _to_pandas(self.queries[q](self.sf_dir))
                times[q] = time.perf_counter() - t0
        return times, frames

    def warmup(self) -> None:
        """The cold sweep: builds the pages spill caches."""
        self.cold_s, self._cold_frames = self._sweep()

    def check_setup(self) -> int:
        """Untimed: records each query's reference result (its DuckDB
        oracle, or the cold sweep's output for queries without one) and
        checks the cold sweep against it."""
        frames, self._cold_frames = self._cold_frames, None
        self.expected = {q: _canon(frames[q]) for q in SWEEP}
        for q in self.oracle_sql:
            self.expected[q] = _canon(self._oracle(q))
        return self._wrong(frames)

    def before_op(self, i: int) -> dict:
        return {}

    def op(self, prep: dict, rec=None) -> dict:
        times, frames = self._sweep(rec)
        return {"frames": frames, "times": times}

    def after_op(self, prep: dict, facts: dict) -> dict:
        frames = facts.pop("frames")
        return {
            "rows_in": self.rows_in,
            "rows_out": sum(len(f) for f in frames.values()),
            "wrong_rows": self._wrong(frames),
        }

    def _wrong(self, frames: dict) -> int:
        """Queries whose output differs from their DuckDB oracle, or, for
        queries without one, from the cold sweep's output."""
        return sum(not _same(_canon(frames[q]), self.expected[q]) for q in SWEEP)

    def _oracle(self, q: str):
        import duckdb

        con = duckdb.connect()
        try:
            for f in sorted(glob.glob(os.path.join(self.sf_dir, "*.parquet"))):
                t = os.path.basename(f)[: -len(".parquet")]
                con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{f}')")
            return con.execute(self.oracle_sql[q]).df()
        finally:
            con.close()

    def stats_text(self) -> str:
        return ""

    def probe_pages(self) -> str:
        return self.paths["corpus_pages"]


def _to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _canon(df):
    """The canonical form the repository's oracle-parity tests compare in:
    sorted columns, ints as int64, floats to 9 places, rows sorted."""
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(9)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _same(got, expected) -> bool:
    import pandas as pd

    if list(got.columns) != list(expected.columns) or len(got) != len(expected):
        return False
    try:
        pd.testing.assert_frame_equal(got, expected, check_dtype=False)
    except AssertionError:
        return False
    return True


def make(name: str, paths: dict, run_dir: str, seed: int):
    if name == "query_sweep":
        return QuerySweep(name, paths, run_dir, seed)
    if name == "resume":
        return Resume(name, paths, run_dir, seed)
    return Extraction(name, paths, run_dir, seed)


def wipe_program_state(program_cache: str, run_dir: str) -> None:
    """Program caches and outputs start empty: everything in the program's
    cache root except the stock corpora (inputs), and the run's outputs."""
    if os.path.isdir(program_cache):
        for entry in os.listdir(program_cache):
            if not _CORPUS_DIR.fullmatch(entry):
                shutil.rmtree(os.path.join(program_cache, entry), ignore_errors=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
