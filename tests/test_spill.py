"""Artifact-cache discipline (VERDICT r3 next #5/#8): the marker-gated
parquet spill must (a) serve byte-identical data on cold build and warm
hit, (b) miss — and rebuild from the real input — when the params, an
input shard or the package source change the content key, (c) survive a
mid-publish kill — a crashed writer leaves NO readable cache and the next
run recomputes from scratch — and (d) back the embedding fixpoints
without pinning the table in the object store."""

import os
import shutil
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


def test_spill_cold_and_warm_identity(ray_session, tmp_path):
    import ray.data

    from rayxtract.artifact import artifact_dir, published, spill_and_reread

    df = pd.DataFrame(
        {"k": np.arange(500, dtype="int64"), "v": np.arange(500, dtype="int64") * 7}
    )
    root = str(tmp_path / "c")
    spill = artifact_dir(root, "t", {"ver": 1}, [])
    cold = (
        spill_and_reread(ray.data.from_pandas(df).repartition(4), spill)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert published(spill)
    # warm hit: the input dataset is NOT re-executed (feed a poisoned one)
    def boom(_b):
        raise RuntimeError("cache miss executed the input")

    poisoned = ray.data.from_pandas(df).map_batches(boom, batch_format="pandas")
    warm = (
        spill_and_reread(poisoned, spill)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(cold, warm)
    pd.testing.assert_frame_equal(cold, df)
    # other params are another key: the cache is not served, the real
    # input is executed (the poisoned one shows it) and rebuilds it
    other = artifact_dir(root, "t", {"ver": 2}, [])
    assert other != spill
    with pytest.raises(Exception, match="cache miss executed the input"):
        spill_and_reread(poisoned, other)
    rebuilt = (
        spill_and_reread(ray.data.from_pandas(df * 2), other)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(rebuilt, df * 2)


@pytest.mark.parametrize("change", ["source", "shard_rewritten", "params"])
def test_artifact_key_change_misses_and_replaces(
    ray_session, tmp_path, monkeypatch, change
):
    """A changed source digest, an input shard rewritten in place (same
    bytes, new mtime) or other params give a new key that misses the
    cache; publishing it deletes the older sibling key dir but leaves an
    in-flight ``.tmp.<pid>`` dir alone."""
    import ray.data

    from rayxtract import artifact

    shard = str(tmp_path / "in.parquet")
    pq.write_table(pa.table({"k": [1, 2, 3]}), shard)
    root = str(tmp_path / "c")
    monkeypatch.setattr(artifact, "source_digest", lambda: "src-1")
    old = artifact.artifact_dir(root, "op", {"p": 1}, [shard])
    assert artifact.artifact_dir(root, "op", {"p": 1}, [shard]) == old
    df = pd.DataFrame({"k": np.arange(10, dtype="int64")})
    artifact.spill_and_reread(ray.data.from_pandas(df), old)
    inflight = os.path.join(os.path.dirname(old), "0123456789abcdef.tmp.99999")
    os.makedirs(inflight)

    params = {"p": 1}
    if change == "source":
        monkeypatch.setattr(artifact, "source_digest", lambda: "src-2")
    elif change == "shard_rewritten":
        st = os.stat(shard)
        pq.write_table(pa.table({"k": [1, 2, 3]}), shard)
        os.utime(shard, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    else:
        params = {"p": 2}
    new = artifact.artifact_dir(root, "op", params, [shard])
    assert new != old and os.path.dirname(new) == os.path.dirname(old)
    assert not artifact.published(new)
    artifact.spill_and_reread(ray.data.from_pandas(df), new)
    assert artifact.published(new)
    assert not os.path.exists(old)
    assert os.path.isdir(inflight)


def test_copies_of_one_tier_do_not_share_caches(ray_session, tmp_path, monkeypatch):
    """Two copies of one sf tier map to the same corpus root (the root is
    a function of the tier name), so only the input fingerprint in the
    artifact key tells their derived caches apart. Run on copy A and then
    on an edited copy B under one cache root: BM25 must score B's
    documents (DuckDB's oracle on B), and B's embedding spill must hold
    B's rows."""
    import duckdb

    from rayxtract import synth
    from rayxtract.queries import QUERIES, _emb_spilled, oracle_sql_for

    monkeypatch.setattr(synth, "_CACHE_ROOT", str(tmp_path / "cache"))
    a, b = str(tmp_path / "a" / "sf0.001"), str(tmp_path / "b" / "sf0.001")
    for d in (a, b):
        os.makedirs(d)
        for t in ("documents", "embeddings"):
            shutil.copyfile(f"{SF_DIR}/{t}.parquet", f"{d}/{t}.parquet")
    docs = pq.read_table(f"{b}/documents.parquet").to_pandas()
    docs["text"] = [
        " ".join(w for w in t.split() if w not in ("merge", "vector"))
        for t in docs["text"]
    ]
    pq.write_table(
        pa.Table.from_pandas(docs, preserve_index=False), f"{b}/documents.parquet"
    )
    emb = pq.read_table(f"{b}/embeddings.parquet")
    pq.write_table(emb.slice(0, emb.num_rows // 2), f"{b}/embeddings.parquet")

    def topk(sf):
        return (
            QUERIES["doc_bm25_topk"](sf).to_pandas()
            .sort_values(["score", "doc_id"], ascending=[False, True])
            .reset_index(drop=True)
        )

    def emb_ids(sf):
        return sorted(_emb_spilled(sf).to_pandas()["vec_id"].tolist())

    got_a, got_b = topk(a), topk(b)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{b}/documents.parquet')"
    )
    exp_b = (
        con.execute(oracle_sql_for(b)["doc_bm25_topk"]).df()
        .sort_values(["score", "doc_id"], ascending=[False, True])
        .reset_index(drop=True)
    )
    con.close()
    assert not got_a.equals(got_b)
    pd.testing.assert_frame_equal(got_b, exp_b[got_b.columns], check_dtype=False)

    assert len(emb_ids(a)) == emb.num_rows
    assert emb_ids(b) == sorted(emb.slice(0, emb.num_rows // 2)["vec_id"].to_pylist())


def test_spill_kill_mid_publish_recomputes(ray_session, tmp_path):
    """SIGKILL a writer mid-spill: the unpublished ``.tmp.<pid>`` dir must
    never be readable as a cache (no _SPILL_COMPLETE in the final path),
    and the next run recomputes and serves identical rows."""
    import ray.data

    from rayxtract.artifact import artifact_dir, spill_and_reread

    spill = artifact_dir(str(tmp_path / "c"), "kill-probe", {}, [])
    script = textwrap.dedent(f"""
        import time
        import numpy as np, pandas as pd, ray
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR")
        import ray.data
        from rayxtract.artifact import spill_and_reread

        df = pd.DataFrame({{"k": np.arange(400, dtype="int64")}})

        def slow(b):
            time.sleep(0.5)   # stretch the write window for the kill
            return b

        ds = ray.data.from_pandas(df).repartition(16).map_batches(
            slow, batch_format="pandas")
        print("SPILL_START", flush=True)
        spill_and_reread(ds, {spill!r})
        print("SPILL_DONE", flush=True)
    """)
    env = dict(os.environ, PYTHONPATH="/root/repo")
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    # wait for the writer to reach the spill, then kill it mid-write
    line = proc.stdout.readline()
    assert "SPILL_START" in line, line
    deadline = time.monotonic() + 60
    tmp_seen = False
    while time.monotonic() < deadline:
        if any(".tmp." in d for d in __import__("glob").glob(f"{spill}.tmp.*")):
            tmp_seen = True
            break
        if proc.poll() is not None:
            break
        time.sleep(0.1)
    proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    assert tmp_seen, "writer never opened its tmp spill dir"
    # the crash must not have published anything readable
    assert not os.path.exists(os.path.join(spill, "_SPILL_COMPLETE"))

    # next run recomputes from the REAL input and serves identical rows
    df = pd.DataFrame({"k": np.arange(400, dtype="int64")})
    out = (
        spill_and_reread(ray.data.from_pandas(df).repartition(4), spill)
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out, df)
    assert os.path.exists(os.path.join(spill, "_SPILL_COMPLETE"))


def test_emb_spill_serves_identical_table(ray_session):
    """The embedding fixpoints' disk-backed input equals the direct
    pruned read row-for-row, and a warm q_emb_kmeans (spill hit) matches
    the cold run exactly."""
    from rayxtract.queries import QUERIES, _emb_spilled, _read

    direct = (
        _read(SF_DIR, "embeddings", ["vec_id", "embedding"])
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    spilled = (
        _emb_spilled(SF_DIR).to_pandas().sort_values("vec_id").reset_index(drop=True)
    )
    assert direct["vec_id"].tolist() == spilled["vec_id"].tolist()
    for a, b in zip(direct["embedding"], spilled["embedding"]):
        assert np.array_equal(np.asarray(a), np.asarray(b))

    cold = QUERIES["emb_kmeans"](SF_DIR).to_pandas().sort_values("cluster")
    warm = QUERIES["emb_kmeans"](SF_DIR).to_pandas().sort_values("cluster")
    pd.testing.assert_frame_equal(
        cold.reset_index(drop=True), warm.reset_index(drop=True)
    )


KMEANS_FAMILY = [
    "emb_cluster_sample", "emb_kmeans", "emb_cluster_medoids",
    "emb_semdedup_prune", "emb_cluster_sample_agreement",
    "emb_kmeans_agreement", "emb_medoids_agreement", "emb_semdedup_agreement",
]


def test_kmeans_family_fits_once(ray_session, tmp_path, monkeypatch):
    """The eight k-means family queries share one k=8 fit per tier: from
    an empty cache, exactly one Lloyd run over one 8-centroid codebook
    serves them all, and every gate still reports total agreement."""
    import ray.data

    from rayxtract import ann, synth
    from rayxtract.queries import QUERIES

    monkeypatch.setattr(synth, "_CACHE_ROOT", str(tmp_path / "cache"))
    fits = []
    real = ann._lloyd

    def spy(ds, codebooks, width, n_iter, vec_col):
        if len(codebooks) == 1 and codebooks[0].shape[0] == 8:
            fits.append(n_iter)
        return real(ds, codebooks, width, n_iter, vec_col)

    monkeypatch.setattr(ann, "_lloyd", spy)
    out = {}
    for name in KMEANS_FAMILY:
        r = QUERIES[name](SF_DIR)
        out[name] = r.to_pandas() if isinstance(r, ray.data.Dataset) else r
    assert fits == [8]
    for gate in ("emb_cluster_sample_agreement", "emb_kmeans_agreement",
                 "emb_semdedup_agreement"):
        row = out[gate].iloc[0]
        assert row["n_agree"] == row["n_vecs"] == 500, gate
    assert out["emb_medoids_agreement"].iloc[0]["n_disagree"] == 0
    assert out["emb_kmeans"]["n_vecs"].sum() == 500


def test_kmeans_model_cache_is_bit_identical(ray_session, tmp_path, monkeypatch):
    """The shared k-means model read back from its artifact equals a
    fresh kmeans_fit on the same input bit for bit, cold and warm."""
    from rayxtract import synth
    from rayxtract.ann import kmeans_fit
    from rayxtract.queries import _emb_spilled, _kmeans_model

    monkeypatch.setattr(synth, "_CACHE_ROOT", str(tmp_path / "cache"))
    cold = _kmeans_model(SF_DIR)
    warm = _kmeans_model(SF_DIR)
    fresh, _ = kmeans_fit(_emb_spilled(SF_DIR), k=8, n_iter=8, seed=13)
    assert cold.dtype == fresh.dtype == np.float64
    assert np.array_equal(cold, fresh) and np.array_equal(warm, fresh)
